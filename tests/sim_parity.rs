//! Property tests: the linked flat-memory engine must match the
//! sequential reference executor across randomized grid sizes, chunk
//! counts, and optimization settings (vendored proptest shim) — and the
//! link-time optimizer must be bitwise-transparent: every case runs
//! through both the optimized and the unoptimized (`optimize: false`)
//! stream and the two grids must be identical bit for bit.  So must the pooled band
//! wavefront, for any band count, against single-threaded execution, and
//! the op-major row path on the stream shapes no paper program has: a
//! receive slot the optimizer left staged, a fused sweep in a commit block.

use proptest::prelude::*;
use testkit::conformance::bitwise_difference;
use testkit::generate_case;
use wse_frontends::ast::{Expr, Frontend, GridSpec, StencilEquation, StencilProgram};
use wse_frontends::benchmarks::{acoustic, diffusion, jacobian, seismic_25pt, uvkbe};
use wse_lowering::{lower_program, PipelineOptions};
use wse_sim::link::{LinkedInstr, LinkedKernel};
use wse_sim::{
    load_program, max_abs_difference, run_reference, GridState, InterpGridSim, LinkOptions,
    LoadedProgram, WseGridSim,
};

/// Lowers, links, and simulates with the link-time optimizer on and off;
/// asserts the two streams agree bitwise and returns the optimized
/// stream's deviation from the reference.
fn deviation(program: &StencilProgram, options: &PipelineOptions) -> f32 {
    let lowered = lower_program(program, options).expect("lowering succeeds");
    let loaded = load_program(&lowered.ctx, lowered.module).expect("loading succeeds");
    let mut sim = WseGridSim::with_options(
        loaded.clone(),
        LinkOptions { optimize: true, ..LinkOptions::default() },
    )
    .expect("program links");
    sim.run(None).expect("simulation succeeds");
    let simulated = sim.grid_state().expect("state extraction succeeds");

    let mut unopt =
        WseGridSim::with_options(loaded, LinkOptions { optimize: false, ..LinkOptions::default() })
            .expect("program links unoptimized");
    unopt.run(None).expect("unoptimized simulation succeeds");
    let unopt_state = unopt.grid_state().expect("state extraction succeeds");
    for ((name, a), b) in simulated.names.iter().zip(&simulated.fields).zip(&unopt_state.fields) {
        for (i, (x, y)) in a.data.iter().zip(&b.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "optimizer changed {name}[{i}]: {x} vs {y}");
        }
    }

    let reference = run_reference(program, None);
    max_abs_difference(&simulated, &reference)
}

/// A 9-point box in the x-y plane: the four diagonal neighbours make
/// every receive slot pair a `dx` with a `dy`.
fn box9(x: i64, y: i64, z: i64, timesteps: i64) -> StencilProgram {
    let offsets = (-1..=1).flat_map(|dx| (-1..=1).map(move |dy| (dx, dy)));
    let expr = Expr::sum(offsets.map(|(dx, dy)| Expr::at("a", dx, dy, 0).scale(0.11)));
    let program = StencilProgram {
        name: "box9".into(),
        frontend: Frontend::Csl,
        grid: GridSpec::new(x, y, z),
        fields: vec!["a".into()],
        equations: vec![StencilEquation::new("a", expr)],
        timesteps,
        source: String::new(),
    };
    program.validate().expect("box9 program is valid");
    program
}

/// Final state of `loaded` on exactly `bands` row bands.
fn state_on_bands(loaded: &LoadedProgram, bands: usize) -> GridState {
    let mut sim = WseGridSim::with_options(loaded.clone(), LinkOptions::default()).expect("links");
    assert!(
        !sim.linked().kernels.iter().any(|k| k.comm.as_ref().is_some_and(|c| c.capture)),
        "every kernel must take the capture-elided path the band wavefront serves"
    );
    sim.set_threads(bands);
    sim.run(None).expect("simulation succeeds");
    sim.grid_state().expect("state extraction succeeds")
}

/// Runs the generated programs of `seeds` (default generator profile)
/// through the optimized stream on 1, 2 and 3 row bands and requires
/// bitwise equality with the unoptimized stream and the interpreter.
/// `premise` must hold for some kernel of every optimized stream, so a
/// generator or optimizer change cannot quietly empty the test.
fn optimized_stream_matches_oracles(seeds: &[u64], what: &str, premise: fn(&LinkedKernel) -> bool) {
    for &seed in seeds {
        let case = generate_case(seed);
        let lowered = lower_program(&case.program, &case.options).expect("pinned seed lowers");
        let loaded = load_program(&lowered.ctx, lowered.module).expect("pinned seed loads");

        let unoptimized = LinkOptions { optimize: false, ..LinkOptions::default() };
        let mut oracle = WseGridSim::with_options(loaded.clone(), unoptimized).expect("links");
        oracle.run(None).expect("unoptimized run");
        let oracle = oracle.grid_state().expect("unoptimized state");
        let mut interp = InterpGridSim::new(loaded.clone());
        interp.run(None).expect("interpreter run");
        let difference = bitwise_difference(&oracle, &interp.grid_state());
        assert!(difference.is_none(), "seed {seed}: the oracles disagree: {difference:?}");

        for bands in 1..=3 {
            let mut sim =
                WseGridSim::with_options(loaded.clone(), LinkOptions::default()).expect("links");
            assert!(sim.linked().stats().optimized, "seed {seed}: optimizer off");
            assert!(
                sim.linked().kernels.iter().any(premise),
                "seed {seed}: the optimized stream no longer {what}"
            );
            sim.set_threads(bands);
            sim.run(None).expect("optimized run");
            let difference = bitwise_difference(&oracle, &sim.grid_state().expect("state"));
            assert!(difference.is_none(), "seed {seed}, {bands} band(s): {difference:?}");
        }
    }
}

/// A receive slot the optimizer could not elide is staged row-wide ahead
/// of each chunk's receive ops (from live neighbor arenas: every one of
/// these streams has its capture elided).
#[test]
fn retained_staged_slots_run_op_major_bitwise() {
    optimized_stream_matches_oracles(&[12, 15, 32, 85, 107], "keeps a staged slot", |kernel| {
        kernel.comm.as_ref().is_some_and(|c| !c.capture && c.slots.iter().any(|s| s.staged))
    });
}

/// A fused sweep inside a deferred commit block takes the row-batched
/// kernels like any other sweep, inside the band wavefront and on the
/// dispatcher's edge rows alike.
#[test]
fn commit_block_sweeps_run_row_batched_bitwise() {
    optimized_stream_matches_oracles(
        &[48, 107, 242, 361, 372],
        "commits a fused sweep",
        |kernel| kernel.commit.iter().any(|i| matches!(i, LinkedInstr::FusedMacs { .. })),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pooled band wavefront against single-threaded execution, with
    /// the band count drawn from `1..=height + 1`: bands wider than, equal
    /// to and narrower than `2 * max_dy` (an empty commit window), one-row
    /// bands, and more bands than rows all occur, over radius-1 and
    /// radius-4 stars, a box with diagonal offsets, and the two-kernel
    /// programs.
    #[test]
    fn pooled_wavefront_is_bitwise_equal_to_serial_for_any_band_count(
        shape in 0usize..5,
        height in 5i64..17,
        pick in 0usize..1000,
        chunks in 1i64..3,
    ) {
        let program = match shape {
            0 => jacobian(5, height, 8, 3),
            1 => seismic_25pt(5, height, 8, 2),
            2 => box9(5, height, 8, 3),
            3 => acoustic(5, height, 8, 3),
            _ => uvkbe(5, height, 8, 2),
        };
        let options = PipelineOptions { num_chunks: chunks, ..PipelineOptions::default() };
        let lowered = lower_program(&program, &options).expect("lowering succeeds");
        let loaded = load_program(&lowered.ctx, lowered.module).expect("loading succeeds");
        let bands = 1 + pick % (height as usize + 1);
        let difference =
            bitwise_difference(&state_on_bands(&loaded, 1), &state_on_bands(&loaded, bands));
        prop_assert!(
            difference.is_none(),
            "{} height={height} bands={bands} chunks={chunks}: {difference:?}",
            program.name
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Jacobian across grid sizes, chunk counts, and fmacs fusion on/off.
    #[test]
    fn jacobian_linked_engine_matches_reference(
        nx in 2i64..7,
        ny in 2i64..7,
        nz in 4i64..17,
        steps in 1i64..4,
        chunks in 1i64..5,
        fusion in 0i64..2,
    ) {
        let program = jacobian(nx, ny, nz, steps);
        let options = PipelineOptions {
            num_chunks: chunks,
            enable_fmac_fusion: fusion == 1,
            ..PipelineOptions::default()
        };
        let diff = deviation(&program, &options);
        prop_assert!(
            diff < 1e-4,
            "jacobian {nx}x{ny}x{nz} steps={steps} chunks={chunks} fusion={fusion} \
             diverges by {diff}"
        );
    }

    /// The 13-point diffusion stencil across grid sizes and chunk counts.
    #[test]
    fn diffusion_linked_engine_matches_reference(
        nx in 3i64..7,
        ny in 3i64..7,
        nz in 4i64..15,
        chunks in 1i64..4,
    ) {
        let program = diffusion(nx, ny, nz, 2);
        let options = PipelineOptions { num_chunks: chunks, ..PipelineOptions::default() };
        let diff = deviation(&program, &options);
        prop_assert!(
            diff < 1e-4,
            "diffusion {nx}x{ny}x{nz} chunks={chunks} diverges by {diff}"
        );
    }
}
