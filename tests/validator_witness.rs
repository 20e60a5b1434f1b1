//! The translation validator's two shortcuts against the check they
//! replace.  `observable_summary` runs on a witness grid sized by the
//! program's reach instead of on `width × height` PEs, and the validated
//! link checks the composition of all eight pass units before any single
//! one; both must leave every verdict — rejections, blame, the reverted
//! stream, stream equality — exactly what the full-grid, unit-by-unit
//! check reports ([`check_validator_shortcuts`]).  The sweeps below run
//! programs on PE grids *wider* than their witness, so the crop is real,
//! and the hand-built cases pin the witness's size and the two ways it
//! could be too small.

use testkit::conformance::check_validator_shortcuts;
use testkit::{try_generate_case_with, GeneratorConfig};
use wse_frontends::benchmarks::Benchmark;
use wse_lowering::lower_program;
use wse_sim::link::{LinkMutation, LinkedProgram};
use wse_sim::loader::{
    BufferDecl, CommSpec, Instr, LoadedKernel, LoadedProgram, SlotSpec, Src, ViewRef,
};
use wse_sim::validate::{observable_summary, summary_on};
use wse_sim::{link_program_with, load_program, LinkOptions};

/// The shortcuts report what the full-grid, unit-by-unit check does —
/// with no unit's defect masked by a later one, which on compiled
/// programs and these hand-built ones never happens.
fn assert_shortcuts(label: &str, loaded: &LoadedProgram) {
    let masked = check_validator_shortcuts(loaded).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert!(!masked, "{label}: the composition masked a unit the per-unit check reverts");
}

fn on_grid(loaded: &LoadedProgram, width: i64, height: i64) -> LoadedProgram {
    LoadedProgram { width, height, ..loaded.clone() }
}

fn unoptimized(loaded: &LoadedProgram) -> LinkedProgram {
    link_program_with(loaded, &LinkOptions { optimize: false, ..LinkOptions::default() })
        .expect("links")
}

/// PEs the abstract grid of `observable_summary` holds: the summary is
/// one hash per observable field per PE per interior element.
fn abstract_pes(loaded: &LoadedProgram) -> usize {
    let observable = loaded.field_buffers.len() - loaded.internal_fields.len();
    observable_summary(&unoptimized(loaded)).len() / (observable * loaded.z_dim as usize)
}

/// Whether the summary equates the two streams — the same answer on the
/// witness grid and on the streams' own, or the witness is unsound.
fn equated(a: &LinkedProgram, b: &LinkedProgram) -> bool {
    let full = |l: &LinkedProgram| summary_on(l, l.width, l.height);
    let (on_full, on_witness) =
        (full(a) == full(b), observable_summary(a) == observable_summary(b));
    assert_eq!(on_witness, on_full, "the witness grid changed a stream-equality verdict");
    on_witness
}

// ---------------------------------------------------------------------------
// Sweeps: generated seeds and the paper programs.
// ---------------------------------------------------------------------------

/// 512 generator seeds, half from the default profile and half from the
/// conformance bin's `--stress` one, each on a PE grid four wider and
/// taller than generated: a radius-1 single-step program then runs
/// 3 × 3 abstract PEs against up to 15 × 15.  The full-grid side of the
/// comparison is the cost this PR removed from the validator, so an
/// unoptimized build sweeps an eighth of the seeds; CI runs the file with
/// `--release`.
#[test]
fn generated_seeds_report_the_same_on_the_witness_and_the_full_grid() {
    let seeds = if cfg!(debug_assertions) { 32 } else { 256 };
    let (mut checked, mut cropped) = (0u64, 0u64);
    for (profile, config) in
        [("default", GeneratorConfig::default()), ("stress", GeneratorConfig::stress())]
    {
        for seed in 0..seeds {
            let Ok(case) = try_generate_case_with(seed, &config) else { continue };
            // A typed rejection is not this test's concern.
            let Ok(lowered) = lower_program(&case.program, &case.options) else { continue };
            let Ok(loaded) = load_program(&lowered.ctx, lowered.module) else { continue };
            let loaded = on_grid(&loaded, loaded.width + 4, loaded.height + 4);
            assert_shortcuts(&format!("{profile} seed {seed}"), &loaded);
            checked += 1;
            cropped += u64::from(abstract_pes(&loaded) < (loaded.width * loaded.height) as usize);
        }
    }
    assert!(checked >= seeds, "only {checked} of {} seeds compiled", 2 * seeds);
    assert!(cropped >= checked / 4, "the witness cropped only {cropped} of {checked} grids");
}

/// The five paper programs at 16 × 16 and at 40 × 40: the radius-4 star's
/// witness is wider than 16 PEs, so only the larger grid crops all five.
#[test]
fn paper_programs_report_the_same_on_the_witness_and_the_full_grid() {
    for benchmark in Benchmark::ALL {
        let lowered =
            lower_program(&benchmark.tiny_program(), &Default::default()).expect("lowers");
        let loaded = load_program(&lowered.ctx, lowered.module).expect("loads");
        for side in [16, 40] {
            let loaded = on_grid(&loaded, side, side);
            assert_shortcuts(&format!("{} at {side}x{side}", benchmark.name()), &loaded);
            if side == 40 {
                assert!(abstract_pes(&loaded) < 40 * 40, "{} is not cropped", benchmark.name());
            }
        }
    }
}

/// A count, not a timing: a validated link of the Jacobian executes the
/// same 7 × 7 abstract PEs (radius 1, three cycles) whatever the grid.
#[test]
fn validated_link_work_is_independent_of_grid_area() {
    let lowered =
        lower_program(&Benchmark::Jacobian.tiny_program(), &Default::default()).expect("lowers");
    let loaded = load_program(&lowered.ctx, lowered.module).expect("loads");
    assert_eq!(abstract_pes(&on_grid(&loaded, 32, 32)), 49);
    assert_eq!(abstract_pes(&on_grid(&loaded, 256, 256)), 49);
    let validated = LinkOptions { optimize: true, validate: true, ..LinkOptions::default() };
    let linked = link_program_with(&on_grid(&loaded, 256, 256), &validated).expect("links");
    assert_eq!((linked.stats.validated_passes, linked.stats.validator_rejections), (8, 0));
}

// ---------------------------------------------------------------------------
// Hand-built programs: witness size, edge cases, and the two ways a
// witness can be too small.
// ---------------------------------------------------------------------------

fn view(buffer: &str) -> ViewRef {
    ViewRef { buffer: buffer.into(), offset: 0, dynamic: false, len: 4 }
}

/// One kernel per hop `(dx, dy)`: kernel `k` sets field `f{k+1}` to
/// `0 + 1 · (f{k} of the PE at (x + dx, y + dy))`, zero off the grid.  So
/// `f{n}` of a PE is `f0` of the PE at the sum of the hops — if every PE
/// on the way exists.
fn relay(width: i64, height: i64, hops: &[(i64, i64)], timesteps: i64) -> LoadedProgram {
    let fields: Vec<String> = (0..=hops.len()).map(|k| format!("f{k}")).collect();
    let buffers = fields.iter().map(String::as_str).chain(["zeros", "recv_buffer"]);
    let kernels = hops.iter().enumerate().map(|(k, &(dx, dy))| LoadedKernel {
        name: format!("seq_kernel{k}"),
        pre: Vec::new(),
        comm: Some(CommSpec {
            num_chunks: 1,
            chunk_size: 4,
            slots: vec![SlotSpec { field: fields[k].clone(), dx, dy }],
            fields: vec![fields[k].clone()],
            pattern: dx.abs().max(dy.abs()),
        }),
        recv: accumulate(&fields[k + 1], "recv_buffer"),
        done: Vec::new(),
    });
    LoadedProgram {
        width,
        height,
        z_dim: 4,
        z_halo: 0,
        timesteps,
        buffers: buffers.map(|name| BufferDecl { name: name.into(), len: 4, init: 0.0 }).collect(),
        field_buffers: fields.clone(),
        internal_fields: Vec::new(),
        kernels: kernels.collect(),
    }
}

/// `dest = 0 + 1 · src`, the `Fill` + `Macs` spelling the optimizer fuses
/// (and, for a receive window, redirects to the neighbour's column).
fn accumulate(dest: &str, src: &str) -> Vec<Instr> {
    vec![
        Instr::Movs { dest: view(dest), src: Src::Scalar(0.0) },
        Instr::Macs { dest: view(dest), acc: view(dest), src: view(src), coeff: 1.0 },
    ]
}

/// The reach is per axis `max(|dx|, |dy|)`, whichever side the slots sit
/// on, summed over kernels, times the cycles; the witness is
/// `min(w, 2R+1) × min(h, 2R+1)`.
#[test]
fn witness_is_sized_by_reach_clipped_to_the_grid() {
    let cases = [
        ("one-sided slot, dx = +2 only", relay(9, 1, &[(2, 0)], 1), 5),
        ("w < 2R+1 <= h", relay(3, 9, &[(0, 2)], 1), 3 * 5),
        ("reach sums over two kernels", relay(9, 9, &[(1, 0), (0, 1)], 1), 5 * 5),
        ("reach grows with the cycles, three at most", relay(16, 1, &[(1, 0)], 5), 7),
        ("a grid inside the reach is not cropped", relay(2, 2, &[(1, 1)], 2), 4),
    ];
    for (label, loaded, pes) in cases {
        assert_eq!(abstract_pes(&loaded), pes, "{label}");
        assert_shortcuts(label, &loaded);
    }
}

/// `wse-perf`'s known-bad shape: no exchange, so one abstract PE whatever
/// the grid — and the `DropAliasingCheck` mutant is still caught there,
/// blamed on `fuse-block`, by the entry users call.
#[test]
fn a_program_without_an_exchange_is_validated_on_one_pe() {
    let window = |buffer: &str, offset| ViewRef { offset, ..view(buffer) };
    let mut loaded = relay(12, 12, &[], 1);
    loaded.buffers.push(BufferDecl { name: "acc".into(), len: 6, init: 1.5 });
    loaded.kernels = vec![LoadedKernel {
        name: "seq_kernel0".into(),
        pre: vec![
            Instr::Movs { dest: window("acc", 1), src: Src::Scalar(0.0) },
            // Reads one element behind its own destination.
            Instr::Macs {
                dest: window("acc", 1),
                acc: window("acc", 1),
                src: window("acc", 0),
                coeff: 2.0,
            },
            Instr::Movs { dest: view("f0"), src: Src::View(window("acc", 1)) },
        ],
        comm: None,
        recv: Vec::new(),
        done: Vec::new(),
    }];
    assert_eq!(abstract_pes(&loaded), 1);
    assert_shortcuts("aliasing witness", &loaded);
    let mutant = LinkOptions {
        optimize: true,
        validate: true,
        mutate: Some(LinkMutation::DropAliasingCheck),
        ..LinkOptions::default()
    };
    let guarded = link_program_with(&loaded, &mutant).expect("links");
    assert_eq!(guarded.stats.rejected_passes, ["fuse-block"], "{:?}", guarded.stats);
    assert!(equated(&unoptimized(&loaded), &guarded), "the revert restores the dataflow");
}

/// A malformed exchange of zero chunks never runs its receive block; its
/// slots still count toward the reach (conservatively) and the verdicts
/// still agree.
#[test]
fn zero_chunk_exchange_summarizes_the_same_on_both_grids() {
    let mut linked = unoptimized(&relay(9, 1, &[(1, 0)], 1));
    let other = linked.clone();
    linked.kernels[0].comm.as_mut().expect("an exchange").num_chunks = 0;
    assert_eq!(observable_summary(&linked).len(), 3 * 2 * 4);
    assert!(!equated(&linked, &other), "f1 keeps its initial value only without the receive");
    assert!(equated(&linked, &linked.clone()));
}

/// Too small, first way: a witness with no neighbour in it (1 × 1) reads
/// the zero halo through every slot, so it cannot tell which neighbour a
/// stream reads.
#[test]
fn witness_tells_neighbours_apart() {
    let from_the_right = unoptimized(&relay(9, 1, &[(1, 0)], 1));
    let mut from_the_left = from_the_right.clone();
    from_the_left.kernels[0].comm.as_mut().expect("an exchange").slots[0].dx = -1;
    assert!(!equated(&from_the_right, &from_the_left));
}

/// Too small, second way: three one-PE hops carry `f0` three PEs, so
/// against a stream whose last kernel stores zero instead, only a PE with
/// three neighbours to its right differs.  A reach taken as the *largest*
/// hop (1, witness three wide) has no such PE; the sum (3, witness seven
/// wide) has four.
#[test]
fn witness_follows_a_value_across_every_kernel() {
    let hops = [(1, 0), (1, 0), (1, 0)];
    let carried = relay(8, 1, &hops, 1);
    let mut zeroed = carried.clone();
    zeroed.kernels[2].recv = accumulate("f3", "zeros");
    assert!(!equated(&unoptimized(&carried), &unoptimized(&zeroed)));
    assert_eq!(abstract_pes(&carried), 7);
    assert_shortcuts("three-kernel relay", &carried);
}
