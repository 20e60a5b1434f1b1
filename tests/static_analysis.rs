//! Integration tests for the static analyzer: hand-written racy and
//! clean linked-stream fixtures, lint pins for every diagnostic code,
//! dependence-DAG shape checks, and the seed-sweep properties the ISSUE
//! requires — the translation validator accepts every optimizer rewrite
//! on generated seeds, and no unflagged seed may differ bitwise between
//! serial and parallel execution (the race detector's no-false-negative
//! contract: a diverging schedule implies a flagged stream).

use proptest::prelude::*;
use testkit::conformance::{
    bitwise_difference, check_optimizer_transparent, check_validator_shortcuts,
};
use testkit::generate_case;
use wse_analysis::{dag::Block, has_errors, Analyzer, EdgeKind, NodeKind};
use wse_frontends::ast::{Expr, Frontend, GridSpec, StencilEquation, StencilProgram};
use wse_frontends::benchmarks::Benchmark;
use wse_lowering::lower_program;
use wse_sim::link::{
    BufferId, BufferLayout, FusedInit, FusedTerm, LinkedComm, LinkedInstr, LinkedKernel,
    LinkedProgram, LinkedView, SrcRef,
};
use wse_sim::loader::{
    BinKind, BufferDecl, CommSpec, Instr, LoadedKernel, LoadedProgram, SlotSpec, Src, ViewRef,
};
use wse_sim::plan::PlannedOp;
use wse_sim::{link_program_with, load_program, plan_program, LinkOptions, OptStats, WseGridSim};

fn analyzer() -> Analyzer {
    Analyzer::new()
}

/// Links one benchmark's tiny program with the optimizer (and validator)
/// on, returning the stream.
fn linked_benchmark(benchmark: Benchmark) -> LinkedProgram {
    let program = benchmark.tiny_program();
    let lowered = lower_program(&program, &Default::default()).expect("benchmark lowers");
    let loaded = load_program(&lowered.ctx, lowered.module).expect("benchmark loads");
    link_program_with(
        &loaded,
        &LinkOptions { optimize: true, validate: true, ..LinkOptions::default() },
    )
    .expect("benchmark links")
}

/// A benchmark stream with a halo exchange whose capture was elided and
/// whose write-backs were deferred — the shape every racy fixture below
/// starts from.
fn deferred_commit_stream() -> LinkedProgram {
    for benchmark in Benchmark::ALL {
        let linked = linked_benchmark(benchmark);
        let has_shape = linked.kernels.iter().any(|k| {
            k.comm.as_ref().is_some_and(|c| !c.capture && !c.snap_fields.is_empty())
                && !k.commit.is_empty()
        });
        if has_shape {
            return linked;
        }
    }
    panic!("no benchmark produced an elided-capture kernel with deferred commits");
}

fn view(base: u32, len: u32) -> LinkedView {
    LinkedView { base, len, dynamic: false }
}

// ---------------------------------------------------------------------------
// Hand-written stream fixtures: clean and racy.
// ---------------------------------------------------------------------------

/// Fixture 1 (clean): the optimizer's own output on every benchmark must
/// carry no error finding, in both the optimized and unoptimized streams.
#[test]
fn benchmark_streams_are_race_free() {
    for benchmark in Benchmark::ALL {
        let optimized = linked_benchmark(benchmark);
        let findings = analyzer().check_stream(&optimized);
        assert!(
            !has_errors(&findings),
            "{benchmark:?} optimized stream has race findings: {findings:?}"
        );

        let program = benchmark.tiny_program();
        let lowered = lower_program(&program, &Default::default()).expect("lowers");
        let loaded = load_program(&lowered.ctx, lowered.module).expect("loads");
        let unoptimized =
            link_program_with(&loaded, &LinkOptions { optimize: false, ..LinkOptions::default() })
                .expect("links");
        let findings = analyzer().check_stream(&unoptimized);
        assert!(
            !has_errors(&findings),
            "{benchmark:?} unoptimized stream has race findings: {findings:?}"
        );
    }
}

/// Fixture 2 (racy, E101): un-deferring the commit block — moving its
/// write-backs into the sweep-phase `done` block while the capture stays
/// elided — puts live writes into transmitted columns.
#[test]
fn sweep_write_into_live_transmitted_column_is_flagged() {
    let mut linked = deferred_commit_stream();
    for kernel in &mut linked.kernels {
        let commits: Vec<_> = kernel.commit.drain(..).collect();
        kernel.done.extend(commits);
    }
    let findings = analyzer().check_stream(&linked);
    assert!(
        findings.iter().any(|f| f.code == "E101"),
        "un-deferred commit writes were not flagged: {findings:?}"
    );
    assert!(has_errors(&findings));
}

/// Fixture 3 (racy, E102): a deferred commit instruction that sources a
/// receive slot reads neighbor state that is stale by commit time.
#[test]
fn slot_read_in_deferred_commit_is_flagged() {
    let mut linked = deferred_commit_stream();
    let kernel = linked
        .kernels
        .iter_mut()
        .find(|k| k.comm.is_some() && !k.commit.is_empty())
        .expect("fixture has a deferred-commit kernel");
    let chunk = kernel.comm.as_ref().unwrap().chunk_size as u32;
    kernel.commit.push(LinkedInstr::FusedMacs {
        dest: view(0, chunk),
        init: FusedInit::Fill(0.0),
        terms: vec![FusedTerm { src: SrcRef::Slot { slot: 0, offset: 0, len: chunk }, coeff: 1.0 }],
    });
    let findings = analyzer().check_stream(&linked);
    assert!(
        findings.iter().any(|f| f.code == "E102"),
        "slot-sourcing commit was not flagged: {findings:?}"
    );
}

/// Fixture 4 (wasteful, W101): re-enabling the capture on a kernel whose
/// transmitted-column writes all sit in the deferred commit block retains
/// a snapshot nothing needs.
#[test]
fn redundant_retained_capture_is_flagged() {
    let mut linked = deferred_commit_stream();
    let mut flipped = 0;
    for kernel in &mut linked.kernels {
        if let Some(comm) = &mut kernel.comm {
            if !comm.capture && !kernel.commit.is_empty() {
                comm.capture = true;
                flipped += 1;
            }
        }
    }
    assert!(flipped > 0);
    let findings = analyzer().check_stream(&linked);
    assert!(
        findings.iter().any(|f| f.code == "W101"),
        "redundant capture was not flagged: {findings:?}"
    );
    // A waste warning, not a race: the stream still has no errors.
    assert!(!has_errors(&findings));
}

/// A one-PE program over three 4-element buffers `a`, `b`, `c` running
/// the single hand-built `kernel`.
fn hand_built_program(kernel: LinkedKernel) -> LinkedProgram {
    LinkedProgram {
        width: 1,
        height: 1,
        z_dim: 4,
        z_halo: 0,
        timesteps: 1,
        arena_len: 12,
        layouts: vec![
            BufferLayout { name: "a".into(), base: 0, len: 4, init: 0.0 },
            BufferLayout { name: "b".into(), base: 4, len: 4, init: 0.0 },
            BufferLayout { name: "c".into(), base: 8, len: 4, init: 0.0 },
        ],
        field_ids: vec![BufferId(0)],
        field_internal: vec![false],
        kernels: vec![kernel],
        max_view_len: 4,
        simd: false,
        fast_fma: false,
        stats: OptStats::default(),
    }
}

/// Fixture 5 (clean, hand-constructed): a minimal three-instruction
/// stream whose dependence DAG is small enough to predict exactly.
#[test]
fn hand_built_stream_has_exact_dependence_edges() {
    let linked = hand_built_program(LinkedKernel {
        pre: vec![
            // Writes b.
            LinkedInstr::Fill { dest: view(4, 4), value: 1.0 },
            // Reads a and b, writes a: RAW on b from the Fill.
            LinkedInstr::Macs { dest: view(0, 4), acc: view(0, 4), src: view(4, 4), coeff: 0.5 },
            // Reads c, writes b: WAR against the Macs read of b, WAW
            // against the Fill write of b.
            LinkedInstr::Copy { dest: view(4, 4), src: view(8, 4) },
        ],
        comm: None,
        recv: Vec::new(),
        done: Vec::new(),
        commit: Vec::new(),
        work_per_pe: 12,
    });

    let graph = analyzer().dependence_graph(&linked);
    let counts = graph.counts();
    assert_eq!(counts.nodes, 3);
    assert_eq!(counts.raw, 1, "expected exactly the Fill→Macs RAW edge");
    assert_eq!(counts.war, 1, "expected exactly the Macs→Copy WAR edge");
    assert_eq!(counts.waw, 1, "expected exactly the Fill→Copy WAW edge");
    assert_eq!(counts.snapshot, 0);
    assert_eq!(counts.halo, 0);
    let raw = graph.edges_of(EdgeKind::Raw).next().unwrap();
    assert_eq!((raw.from, raw.to), (0, 1));

    // And the stream itself is clean.
    let findings = analyzer().check_stream(&linked);
    assert!(findings.is_empty(), "{findings:?}");
}

/// Fixture 6 (malformed, hand-constructed): an exchange with zero chunks,
/// which no linked program has (`link_comm` rejects it) but a hand-built
/// stream can.  The planner and the dependence DAG share
/// [`LinkedComm::max_dyn`], so neither underflows and both take every
/// dynamic view of the receive block at the same unshifted span.
#[test]
fn zero_chunk_exchange_neither_panics_nor_splits_planner_and_dag() {
    let dynamic = |base, len| LinkedView { base, len, dynamic: true };
    // A dynamic accumulate next to, then on top of, its static source.
    let recv = vec![
        LinkedInstr::Macs { dest: dynamic(0, 4), acc: dynamic(0, 4), src: view(4, 4), coeff: 0.5 },
        LinkedInstr::Macs { dest: dynamic(2, 4), acc: dynamic(2, 4), src: view(4, 4), coeff: 0.5 },
    ];
    let linked = hand_built_program(LinkedKernel {
        pre: Vec::new(),
        comm: Some(LinkedComm {
            num_chunks: 0,
            chunk_size: 4,
            recv_base: 8,
            slots: Vec::new(),
            snap_fields: Vec::new(),
            col_len: 0,
            capture: false,
        }),
        recv: recv.clone(),
        done: Vec::new(),
        commit: Vec::new(),
        work_per_pe: 0,
    });
    assert_eq!(linked.kernels[0].max_dyn(), 0);

    let plan = plan_program(&linked);
    let graph = analyzer().dependence_graph(&linked);
    assert_eq!(graph.nodes.len(), recv.len());
    for ((instr, op), node) in recv.iter().zip(&plan.kernels[0].recv).zip(&graph.nodes) {
        let LinkedInstr::Macs { dest, acc, src, .. } = instr else { unreachable!() };
        assert_eq!(node.write, Some(dest.span(0)), "{}", node.label);
        assert_eq!(node.reads, vec![acc.span(0), src.span(0)], "{}", node.label);
        // The planner's in-place proof is the DAG's interval test.
        let (w, r) = (dest.span(0), src.span(0));
        let PlannedOp::Macs { direct, .. } = op else { panic!("expected a planned Macs") };
        assert_eq!(*direct, !(w.0 < r.1 && r.0 < w.1), "{}", node.label);
    }
}

/// Fixture 6: a benchmark stream with a halo exchange grows snapshot and
/// staging structure in the DAG when the capture is retained
/// (unoptimized), and the racy E101 mutation shows up as sweep instructions
/// writing ranges the snapshot reads — the DAG edge the detector walks.
#[test]
fn exchange_streams_grow_snapshot_nodes_in_the_dag() {
    let program = Benchmark::Diffusion.tiny_program();
    let lowered = lower_program(&program, &Default::default()).expect("lowers");
    let loaded = load_program(&lowered.ctx, lowered.module).expect("loads");
    let unoptimized =
        link_program_with(&loaded, &LinkOptions { optimize: false, ..LinkOptions::default() })
            .expect("links");
    let graph = analyzer().dependence_graph(&unoptimized);
    assert!(
        graph.nodes.iter().any(|n| n.kind == NodeKind::Snapshot),
        "unoptimized exchange stream should retain a snapshot capture node"
    );
    assert!(graph.counts().snapshot > 0, "snapshot-ordering edges expected");
    assert!(
        graph.nodes.iter().any(|n| n.kind == NodeKind::Staging && n.block == Block::Exchange),
        "staged receive copies should appear as exchange-phase nodes"
    );
}

// ---------------------------------------------------------------------------
// Lint pins: one hand-written program per diagnostic code.
// ---------------------------------------------------------------------------

fn lint_program(fields: &[&str], equations: Vec<StencilEquation>) -> StencilProgram {
    StencilProgram {
        name: "lint-fixture".into(),
        frontend: Frontend::Flang,
        grid: GridSpec::new(6, 6, 8),
        fields: fields.iter().map(|f| f.to_string()).collect(),
        equations,
        timesteps: 1,
        source: String::new(),
    }
}

fn codes(findings: &[wse_analysis::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.code).collect()
}

#[test]
fn lint_pins_every_ast_code() {
    // W001: field "ghost" is never read or written.
    let program = lint_program(
        &["u", "ghost"],
        vec![StencilEquation::new("u", Expr::center("u").scale(0.5))],
    );
    assert!(codes(&analyzer().lint(&program)).contains(&"W001"));

    // W002: the first store to u is overwritten before any read.
    let program = lint_program(
        &["u", "v"],
        vec![
            StencilEquation::new("u", Expr::center("v").scale(0.5)),
            StencilEquation::new("u", Expr::center("v").scale(0.25)),
        ],
    );
    assert!(codes(&analyzer().lint(&program)).contains(&"W002"));

    // ... but an intervening read keeps the store live.
    let program = lint_program(
        &["u", "v"],
        vec![
            StencilEquation::new("u", Expr::center("v").scale(0.5)),
            StencilEquation::new("v", Expr::center("u").scale(0.5)),
            StencilEquation::new("u", Expr::center("v").scale(0.25)),
        ],
    );
    assert!(!codes(&analyzer().lint(&program)).contains(&"W002"));

    // W003: reads its own output at a shifted offset.
    let program = lint_program(
        &["u"],
        vec![StencilEquation::new(
            "u",
            (Expr::at("u", 1, 0, 0) + Expr::at("u", -1, 0, 0)).scale(0.25),
        )],
    );
    assert!(codes(&analyzer().lint(&program)).contains(&"W003"));

    // W004: a degree-2 product term (warns, does not error).
    let program = lint_program(
        &["u", "v"],
        vec![StencilEquation::new("u", (Expr::center("u") * Expr::center("v")).scale(0.25))],
    );
    let findings = analyzer().lint(&program);
    assert!(codes(&findings).contains(&"W004"));
    assert!(!has_errors(&findings));

    // E001: offset at least the grid extent.
    let program =
        lint_program(&["u"], vec![StencilEquation::new("u", Expr::at("u", 0, 0, 9).scale(0.5))]);
    let findings = analyzer().lint(&program);
    assert!(codes(&findings).contains(&"E001"));
    assert!(has_errors(&findings));

    // E002: halo radius above what any exchange pattern transmits.
    let program = lint_program(
        &["u", "v"],
        vec![StencilEquation::new("u", Expr::at("v", 5, 0, 0).scale(0.5))],
    );
    assert!(codes(&analyzer().lint(&program)).contains(&"E002"));

    // E003: polynomial degree 3 (the lowering's non-linear-degree twin).
    let program = lint_program(
        &["u", "v"],
        vec![StencilEquation::new(
            "u",
            (Expr::center("u") * Expr::center("v") * Expr::center("v")).scale(0.1),
        )],
    );
    let findings = analyzer().lint(&program);
    assert!(codes(&findings).contains(&"E003"));
    assert!(has_errors(&findings));

    // All five benchmarks stay error-free.
    for benchmark in Benchmark::ALL {
        let findings = analyzer().lint(&benchmark.tiny_program());
        assert!(!has_errors(&findings), "{benchmark:?}: {findings:?}");
    }
}

// ---------------------------------------------------------------------------
// Hand-built loaded programs: dependence shapes the generator cannot emit.
// ---------------------------------------------------------------------------

/// Decodes a genome of small integers into a valid `LoadedProgram` on a
/// 2×2 grid: one kernel exchanging 1–2 slots of field `a` in 1–3 chunks,
/// 3–4 working buffers with a spare element at each end plus the receive
/// buffer, and random `Movs`/`Binary`/`Macs` in `pre`/`recv`/`done`.
/// Operands come from a palette of six places — a buffer at a small
/// offset, static or (inside `recv`) advancing with the chunk — so
/// instructions keep meeting on equal, shifted and disjoint views of the
/// scratch buffers, the transmitted field and the receive windows.
fn hand_built_loaded_program(shape: &[usize], ops: &[Vec<usize>]) -> LoadedProgram {
    let (num_chunks, chunk, num_slots) = (1 + shape[0] % 3, 2 + shape[1] % 3, 1 + shape[2] % 2);
    let buffers = &["a", "t", "k", "b"][..3 + shape[3] % 2];
    let col = num_chunks * chunk;
    let (len_of, max_dyn) = (col + 2, (num_chunks - 1) * chunk);
    let view = |buffer: &str, offset: usize, len: usize, dynamic: bool| ViewRef {
        buffer: buffer.into(),
        offset: offset as i64,
        dynamic,
        len: len as i64,
    };
    // Place `p` at length `len` in `block` (0 = pre, 1 = recv, 2 = done).
    let buffer_of = |p: usize| {
        ["a", "t", "k", buffers[buffers.len() - 1], "t", "recv_buffer"][shape[6 + p] % 6]
    };
    let place = |p: usize, len: usize, block: usize, written: bool| {
        // `k` is never written, so it stays a splat of its init: the
        // coefficient buffer of the mul-then-add accumulate spelling.
        let name = if written && buffer_of(p) == "k" { "t" } else { buffer_of(p) };
        let shift = shape[12 + p] % 3;
        if name == "recv_buffer" {
            // A receive window, read or written like any other storage.
            return view(name, (shift % num_slots) * chunk, len, false);
        }
        let dynamic = block == 1 && shape[18 + p] % 3 != 0;
        let slack = len_of - len - if dynamic { max_dyn } else { 0 };
        view(name, shift.min(slack), len, dynamic)
    };
    let mut blocks = [Vec::new(), Vec::new(), Vec::new()];
    for g in ops {
        let block = g[0] % 3;
        // One length per instruction: a chunk inside `recv` and wherever a
        // receive window is an operand, the whole column elsewhere.
        let windowed = g[1..4].iter().any(|p| buffer_of(p % 6) == "recv_buffer");
        let len = if block == 1 || windowed { chunk } else { col };
        // Half the instructions continue from the previous one's
        // destination: accumulate chains, write-backs, read-after-write.
        let previous = blocks[block]
            .last()
            .map(|i: &Instr| match i {
                Instr::Movs { dest, .. }
                | Instr::Binary { dest, .. }
                | Instr::Macs { dest, .. } => dest.clone(),
            })
            .filter(|dest| dest.len == len as i64);
        let (dest, x, y) = (
            place(g[1] % 6, len, block, true),
            place(g[2] % 6, len, block, false),
            place(g[3] % 6, len, block, false),
        );
        let coeff = [0.5, -0.25, 0.125, 1.0][g[4] % 4];
        let kind = [BinKind::Add, BinKind::Sub, BinKind::Mul][g[6] % 3];
        let instr = match (g[5] % 11, previous) {
            (0, _) => Instr::Movs { dest, src: Src::Scalar(coeff) },
            (1, _) => Instr::Movs { dest, src: Src::View(x) },
            (2, _) => Instr::Binary { kind, dest, a: x, b: y },
            (3, _) => Instr::Macs { dest, acc: x, src: y, coeff },
            (4, _) => {
                // `x = y · k; dest += x`: an accumulate without fmacs.
                let (product, splat) =
                    (place(g[2] % 6, len, block, true), view("k", 0, len, false));
                let mul = BinKind::Mul;
                blocks[block].push(Instr::Binary {
                    kind: mul,
                    dest: product.clone(),
                    a: y,
                    b: splat,
                });
                Instr::Binary { kind: BinKind::Add, a: dest.clone(), dest, b: product }
            }
            (5, _) | (_, None) => Instr::Macs { acc: dest.clone(), dest, src: y, coeff },
            (6, Some(last)) => Instr::Movs { dest, src: Src::View(last) },
            (7, Some(last)) => Instr::Binary { kind, dest, a: last, b: y },
            (_, Some(last)) => Instr::Macs { acc: last.clone(), dest: last, src: y, coeff },
        };
        blocks[block].push(instr);
    }
    // Make the scratch state observable every step.
    blocks[2].push(Instr::Movs {
        dest: view("a", 1, col, false),
        src: Src::View(view("t", shape[4] % 3, col, false)),
    });
    let [pre, recv, done] = blocks;
    let neighbours = [(1, 0), (0, -1), (-1, 0), (0, 1)];
    LoadedProgram {
        width: 2,
        height: 2,
        z_dim: col as i64,
        z_halo: 1,
        timesteps: 2,
        buffers: buffers
            .iter()
            .map(|&name| (name, len_of, if name == "k" { 0.5 } else { 0.0 }))
            .chain([("recv_buffer", num_slots * chunk, 0.0)])
            .map(|(name, len, init)| BufferDecl { name: name.into(), len: len as i64, init })
            .collect(),
        field_buffers: vec!["a".into()],
        internal_fields: Vec::new(),
        kernels: vec![LoadedKernel {
            name: "seq_kernel0".into(),
            pre,
            comm: Some(CommSpec {
                num_chunks: num_chunks as i64,
                chunk_size: chunk as i64,
                slots: (0..num_slots)
                    .map(|s| {
                        let (dx, dy) = neighbours[(shape[5] + s) % 4];
                        SlotSpec { field: "a".into(), dx, dy }
                    })
                    .collect(),
                fields: vec!["a".into()],
                pattern: 1,
            }),
            recv,
            done,
        }],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The link optimizer is bitwise transparent on hand-built programs
    /// where it runs for release users — validator off — and never needs
    /// the validator's revert when it is on.
    #[test]
    fn optimizer_is_transparent_on_hand_built_programs(
        shape in proptest::collection::vec(0usize..60, 24..25),
        ops in proptest::collection::vec(proptest::collection::vec(0usize..168, 7..8), 2..9),
    ) {
        let loaded = hand_built_loaded_program(&shape, &ops);
        let verdict = check_optimizer_transparent(&loaded);
        prop_assert!(verdict.is_ok(), "{}\n{loaded:#?}", verdict.unwrap_err());
        // And whatever the validator says about them, mutant included, it
        // says the same on its witness grid (reach 2: 5 × 5) as on all
        // 7 × 6 PEs, and trying the composition first reports what checking
        // unit by unit does — or accepts a stream that is equivalent whole.
        let wide = LoadedProgram { width: 7, height: 6, ..loaded };
        let verdict = check_validator_shortcuts(&wide);
        prop_assert!(verdict.is_ok(), "{}\n{wide:#?}", verdict.unwrap_err());
    }
}

// ---------------------------------------------------------------------------
// Seed-sweep properties.
// ---------------------------------------------------------------------------

/// For every generated seed the compiler accepts: (a) the translation
/// validator accepts every optimizer rewrite (zero rejections), and
/// (b) the race detector's verdict agrees with the schedule — a stream it
/// flags must differ bitwise between serial and parallel execution, and a
/// stream it clears must be bitwise identical under both schedules.
/// Since the optimizer's output is clean, (b) exercises the
/// no-false-negative direction on every seed.
#[test]
fn seeds_validate_and_unflagged_streams_are_schedule_invariant() {
    let mut checked = 0;
    for seed in 0..256u64 {
        let case = generate_case(seed);
        let Ok(lowered) = lower_program(&case.program, &case.options) else {
            continue; // typed rejection (e.g. non-linear-degree); not this test's concern
        };
        let Ok(loaded) = load_program(&lowered.ctx, lowered.module) else { continue };
        let options = LinkOptions { optimize: true, validate: true, ..LinkOptions::default() };
        let linked = link_program_with(&loaded, &options).expect("seed links");

        // (a) the validator accepted every rewrite.
        assert_eq!(
            linked.stats.validator_rejections, 0,
            "seed {seed}: validator rejected {:?}",
            linked.stats.rejected_passes
        );
        assert!(linked.stats.validated_passes > 0, "seed {seed}: validator did not run");

        // (b) schedule invariance for unflagged streams.
        let findings = analyzer().check_stream(&linked);
        let flagged = has_errors(&findings);

        let mut serial = WseGridSim::with_options(loaded.clone(), options).expect("links");
        serial.set_threads(1);
        serial.run(None).expect("serial run");
        let serial_state = serial.grid_state().expect("serial state");

        let mut parallel = WseGridSim::with_options(loaded, options).expect("links");
        parallel.set_threads(4);
        parallel.run(None).expect("parallel run");
        let parallel_state = parallel.grid_state().expect("parallel state");

        let difference = bitwise_difference(&serial_state, &parallel_state);
        if flagged {
            assert!(
                difference.is_some(),
                "seed {seed}: race detector flagged a schedule-invariant stream: {findings:?}"
            );
        } else {
            assert!(
                difference.is_none(),
                "seed {seed}: unflagged stream diverges serial vs parallel: {}",
                difference.unwrap()
            );
        }
        checked += 1;
    }
    assert!(checked >= 128, "only {checked} of 256 seeds were accepted by the compiler");
}
