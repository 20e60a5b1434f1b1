//! Fault-injection and recovery integration tests for the linked engine:
//! precisely-placed faults (bit flips, dropped halo deliveries, band
//! panics, band stalls) must either be detected and rolled back — with a
//! final state bit-identical to the fault-free stream — or surface a
//! typed [`wse_sim::ExecError`].  Silent corruption is the one outcome
//! that must never happen.

use std::sync::Once;

use wse_frontends::ast::{Expr, Frontend, GridSpec, StencilEquation, StencilProgram};
use wse_frontends::benchmarks::{acoustic, jacobian, uvkbe};
use wse_lowering::{lower_program, PipelineOptions};
use wse_sim::checkpoint::live_spans;
use wse_sim::{
    load_program, ExecErrorKind, FaultKind, FaultOptions, FaultPlan, GridState, LinkOptions,
    LoadedProgram, RecoveryOptions, RecoveryStats, WseGridSim, INJECTED_BAND_PANIC,
};

/// Suppresses the deliberately injected band-fault panics (they unwind
/// on engine worker threads before the engine catches them) while
/// forwarding every other panic to the default hook.
fn quiet_injected_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.contains(INJECTED_BAND_PANIC))
                .unwrap_or(false)
                || info
                    .payload()
                    .downcast_ref::<String>()
                    .map(|s| s.contains(INJECTED_BAND_PANIC))
                    .unwrap_or(false);
            if !injected {
                previous(info);
            }
        }));
    });
}

fn loaded(program: &StencilProgram) -> LoadedProgram {
    let options = PipelineOptions { num_chunks: 2, ..PipelineOptions::default() };
    let lowered = lower_program(program, &options).expect("lowering succeeds");
    load_program(&lowered.ctx, lowered.module).expect("loading succeeds")
}

fn loaded_jacobian(nx: i64, ny: i64, nz: i64, steps: i64) -> LoadedProgram {
    loaded(&jacobian(nx, ny, nz, steps))
}

fn state_of(loaded: &LoadedProgram, link: LinkOptions) -> GridState {
    let mut sim = WseGridSim::with_options(loaded.clone(), link).expect("links");
    sim.run(None).expect("fault-free run");
    sim.grid_state().expect("extracts")
}

fn assert_bitwise(label: &str, a: &GridState, b: &GridState) {
    for ((name, fa), fb) in a.names.iter().zip(&a.fields).zip(&b.fields) {
        for (i, (x, y)) in fa.data.iter().zip(&fb.data).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: {name}[{i}] differs: {x} vs {y}");
        }
    }
}

const LINK: LinkOptions = LinkOptions {
    optimize: true,
    simd: true,
    fast_fma: false,
    validate: cfg!(debug_assertions),
    mutate: None,
};

#[test]
fn bit_flips_are_detected_rolled_back_and_replayed_bitwise() {
    let loaded = loaded_jacobian(4, 4, 8, 12);
    let baseline = state_of(&loaded, LINK);

    let mut sim = WseGridSim::with_options(loaded, LINK).expect("links");
    // Flips at even boundaries land one step past the checkpoint cadence
    // (every 2 steps, taken before the boundary injection), so each
    // rollback must actually replay a lost step.
    sim.set_fault_plan(FaultPlan::from_events(vec![
        (2, FaultKind::ArenaBitFlip { pe: 0, offset: 5, bit: 7 }),
        (8, FaultKind::ArenaBitFlip { pe: 3, offset: 2, bit: 30 }),
    ]));
    sim.enable_recovery(RecoveryOptions {
        checkpoint_every: 2,
        verify: true,
        ..RecoveryOptions::default()
    });
    sim.run(None).expect("faulted run recovers");
    let state = sim.grid_state().expect("extracts");
    assert_bitwise("bit-flip recovery", &baseline, &state);

    let stats = sim.recovery_stats().expect("recovery was enabled");
    assert_eq!(stats.faults.bit_flips, 2, "both planned flips fired");
    assert_eq!(stats.checksum_failures, 2, "both flips were detected by the row checksums");
    assert_eq!(stats.rollbacks, 2, "each detection rolled back once");
    assert!(stats.steps_replayed > 0, "rollback replayed lost steps");
    assert!(stats.checkpoints_saved > 0, "the cadence saved checkpoints");
}

#[test]
fn band_panic_without_recovery_is_typed_then_restorable() {
    quiet_injected_panics();
    let loaded = loaded_jacobian(4, 4, 8, 6);
    let baseline = state_of(&loaded, LINK);

    let mut sim = WseGridSim::with_options(loaded, LINK).expect("links");
    sim.set_threads(2);
    let checkpoint = sim.checkpoint();
    sim.set_fault_plan(FaultPlan::from_events(vec![(
        0,
        FaultKind::BandPanic { kernel: 0, band: 0 },
    )]));
    // Single-step execution bypasses the recovery loop: the panic must
    // surface as a typed error, never as an unwind or silent corruption.
    let err = sim.run_timestep().expect_err("the injected panic surfaces");
    assert_eq!(err.kind, ExecErrorKind::BandPanicked);
    assert!(err.message.contains(INJECTED_BAND_PANIC), "payload is preserved: {}", err.message);
    assert!(sim.poisoned(), "state was lost mid-sweep");
    let err = sim.grid_state().expect_err("poisoned engines refuse extraction");
    assert_eq!(err.kind, ExecErrorKind::Poisoned);

    // Restoring the pre-fault checkpoint clears the poison; the re-run
    // (the panic event was consumed) matches the fault-free stream.
    sim.restore(&checkpoint).expect("restores");
    sim.run(None).expect("clean re-run");
    let state = sim.grid_state().expect("extracts");
    assert_bitwise("post-restore re-run", &baseline, &state);
}

#[test]
fn band_panic_under_recovery_rolls_back_and_recovers() {
    quiet_injected_panics();
    let loaded = loaded_jacobian(4, 4, 8, 6);
    let baseline = state_of(&loaded, LINK);

    let mut sim = WseGridSim::with_options(loaded, LINK).expect("links");
    sim.set_threads(2);
    sim.set_fault_plan(FaultPlan::from_events(vec![(
        2,
        FaultKind::BandPanic { kernel: 0, band: 1 },
    )]));
    sim.enable_recovery(RecoveryOptions { checkpoint_every: 2, ..RecoveryOptions::default() });
    sim.run(None).expect("recovery absorbs the panic");
    let state = sim.grid_state().expect("extracts");
    assert_bitwise("band-panic recovery", &baseline, &state);
    let stats = sim.recovery_stats().expect("recovery was enabled");
    assert_eq!(stats.faults.band_panics, 1);
    assert_eq!(stats.band_panics, 1, "the panic was detected");
    assert!(stats.rollbacks >= 1);
}

#[test]
fn stalled_band_hits_the_watchdog_and_recovery_replays() {
    quiet_injected_panics();
    let loaded = loaded_jacobian(4, 4, 8, 6);
    let baseline = state_of(&loaded, LINK);

    let mut sim = WseGridSim::with_options(loaded, LINK).expect("links");
    sim.set_threads(2);
    sim.set_fault_plan(FaultPlan::from_events(vec![(
        1,
        FaultKind::BandStall { kernel: 0, band: 0, millis: 1_500 },
    )]));
    sim.enable_recovery(RecoveryOptions {
        checkpoint_every: 2,
        watchdog_ms: 150,
        ..RecoveryOptions::default()
    });
    sim.run(None).expect("the watchdog converts the stall into a rollback");
    let state = sim.grid_state().expect("extracts");
    assert_bitwise("stall recovery", &baseline, &state);
    let stats = sim.recovery_stats().expect("recovery was enabled");
    assert_eq!(stats.faults.band_stalls, 1);
    assert_eq!(stats.band_timeouts, 1, "the watchdog fired");
    assert!(stats.rollbacks >= 1);
    assert!(!sim.poisoned(), "rollback restored the quarantined engine");
}

/// A band fault on the *middle* band of a three-band capture-elided
/// kernel.  Band faults fire halfway through the band's rows, so on the
/// 18-row grid the six-row middle band has already committed the first
/// row of its window behind its sweep when it dies, and its two
/// neighbours have committed theirs: the state the failure leaves behind
/// is a partial wavefront, not an untouched band.
fn middle_band_fault_mid_wavefront(fault: FaultKind, expected: ExecErrorKind) {
    quiet_injected_panics();
    let loaded = loaded_jacobian(4, 18, 8, 6);
    let baseline = state_of(&loaded, LINK);
    let recovery =
        RecoveryOptions { checkpoint_every: 2, watchdog_ms: 150, ..RecoveryOptions::default() };
    let engine = || {
        let mut sim = WseGridSim::with_options(loaded.clone(), LINK).expect("links");
        let kernel = &sim.linked().kernels[0];
        assert!(
            kernel.comm.as_ref().is_some_and(|c| !c.capture) && !kernel.commit.is_empty(),
            "the fault must strike a kernel that commits inside its bands"
        );
        sim.set_threads(3);
        // Recovery is enabled on both engines: it is what arms the short
        // watchdog.  `run_timestep` bypasses its rollback loop.
        sim.enable_recovery(recovery);
        sim
    };

    // Under the recovery loop the fault is absorbed.
    let mut sim = engine();
    sim.set_fault_plan(FaultPlan::from_events(vec![(3, fault)]));
    sim.run(None).expect("recovery absorbs the fault");
    assert_bitwise("mid-wavefront recovery", &baseline, &sim.grid_state().expect("extracts"));
    let stats = sim.recovery_stats().expect("recovery was enabled");
    assert_eq!(stats.band_panics + stats.band_timeouts, 1, "the fault was detected: {stats:?}");
    assert!(stats.rollbacks >= 1);

    // Outside it the error is typed, the engine is poisoned, and a
    // restore brings it back.
    let mut sim = engine();
    let checkpoint = sim.checkpoint();
    sim.set_fault_plan(FaultPlan::from_events(vec![(0, fault)]));
    let err = sim.run_timestep().expect_err("the fault surfaces");
    assert_eq!(err.kind, expected);
    assert!(sim.poisoned(), "state was lost mid-wavefront");
    sim.restore(&checkpoint).expect("restores");
    sim.run(None).expect("clean re-run");
    assert_bitwise("mid-wavefront restore", &baseline, &sim.grid_state().expect("extracts"));
}

#[test]
fn middle_band_panic_mid_wavefront_recovers_or_is_typed() {
    middle_band_fault_mid_wavefront(
        FaultKind::BandPanic { kernel: 0, band: 1 },
        ExecErrorKind::BandPanicked,
    );
}

#[test]
fn middle_band_stall_mid_wavefront_recovers_or_is_typed() {
    middle_band_fault_mid_wavefront(
        FaultKind::BandStall { kernel: 0, band: 1, millis: 1_500 },
        ExecErrorKind::Timeout,
    );
}

#[test]
fn dropped_halo_delivery_is_caught_by_the_delivery_checksum() {
    let loaded = loaded_jacobian(4, 4, 8, 6);
    // Optimizer off so halo captures survive (capture elision removes
    // the snapshot region the delivery checksum guards); the optimizer
    // is bitwise-transparent, so the baseline comparison still holds.
    let link = LinkOptions { optimize: false, ..LINK };
    let baseline = state_of(&loaded, link);

    let mut sim = WseGridSim::with_options(loaded, link).expect("links");
    let kernel = sim
        .linked()
        .kernels
        .iter()
        .position(|k| k.comm.as_ref().is_some_and(|c| c.capture && !c.snap_fields.is_empty()))
        .expect("an unoptimized halo exchange captures columns");
    sim.set_fault_plan(FaultPlan::from_events(vec![
        (1, FaultKind::DropDelivery { kernel, pe: 2, field: 0 }),
        (3, FaultKind::DuplicateDelivery { kernel, pe: 5, field: 0 }),
    ]));
    sim.enable_recovery(RecoveryOptions {
        checkpoint_every: 2,
        verify: true,
        ..RecoveryOptions::default()
    });
    sim.run(None).expect("recovery absorbs the delivery faults");
    let state = sim.grid_state().expect("extracts");
    assert_bitwise("delivery-fault recovery", &baseline, &state);
    let stats = sim.recovery_stats().expect("recovery was enabled");
    assert_eq!(stats.faults.drops, 1);
    assert_eq!(stats.faults.duplicates, 1);
    assert_eq!(stats.delivery_failures, 2, "both tampered exchanges were refused");
    assert!(stats.rollbacks >= 2);
}

#[test]
fn exhausted_rollback_budget_is_a_typed_recovery_failure() {
    quiet_injected_panics();
    let loaded = loaded_jacobian(3, 3, 6, 6);
    let mut sim = WseGridSim::with_options(loaded, LINK).expect("links");
    sim.set_threads(2);
    // A persistent fault: every replay of step 0 panics again until the
    // budget runs out.
    sim.set_fault_plan(FaultPlan::from_events(vec![
        (
            0,
            FaultKind::BandPanic { kernel: 0, band: 0 }
        );
        8
    ]));
    sim.enable_recovery(RecoveryOptions { max_rollbacks: 3, ..RecoveryOptions::default() });
    let err = sim.run(None).expect_err("the budget is exhausted");
    assert_eq!(err.kind, ExecErrorKind::RecoveryFailed);
    assert!(sim.poisoned(), "giving up poisons the engine");
    let stats = sim.recovery_stats().expect("recovery was enabled");
    assert!(stats.rollbacks > 3, "the budget was spent before giving up");
}

#[test]
fn seeded_campaign_from_options_recovers_bitwise() {
    quiet_injected_panics();
    let loaded = loaded_jacobian(4, 4, 8, 16);
    let baseline = state_of(&loaded, LINK);

    let mut sim = WseGridSim::with_options(loaded, LINK).expect("links");
    sim.inject_faults(FaultOptions { seed: 0xFA17, rate: 0.6 });
    sim.enable_recovery(RecoveryOptions {
        checkpoint_every: 2,
        verify: true,
        max_rollbacks: 64,
        watchdog_ms: 250,
    });
    sim.run(None).expect("the campaign recovers");
    let state = sim.grid_state().expect("extracts");
    assert_bitwise("seeded campaign", &baseline, &state);
    let stats = sim.recovery_stats().expect("recovery was enabled");
    assert!(stats.faults.total() > 0, "the campaign injected something: {stats:?}");
    assert!(stats.rollbacks > 0, "recovery actually fired");
}

#[test]
fn fault_campaign_without_enable_recovery_auto_enables_verified_recovery() {
    quiet_injected_panics();
    let loaded = loaded_jacobian(4, 4, 8, 16);
    let baseline = state_of(&loaded, LINK);

    let mut sim = WseGridSim::with_options(loaded, LINK).expect("links");
    // No `enable_recovery`: the run arms `RecoveryOptions { verify: true,
    // ..Default::default() }` itself.  This seed plans bit flips and band
    // panics but no band stall in 16 steps — a stall sleeps for twice the
    // watchdog, which at the default is two minutes.
    sim.inject_faults(FaultOptions { seed: 0xFA17, rate: 0.6 });
    assert!(sim.recovery_stats().is_none(), "nothing is enabled before the run");
    sim.run(None).expect("the campaign recovers");
    let state = sim.grid_state().expect("extracts");
    assert_bitwise("auto-enabled recovery", &baseline, &state);
    let stats = sim.recovery_stats().expect("the campaign enabled recovery");
    assert!(stats.faults.total() > 0, "the campaign injected something: {stats:?}");
    assert!(stats.checksum_failures > 0, "verification was on: {stats:?}");
    assert!(stats.rollbacks > 0, "recovery actually fired");
    assert_eq!(stats.checkpoints_saved, 1, "16 steps fit inside the default 256-step cadence");
}

/// Flips bit 30 (an exponent bit: a leak would be glaring) of every
/// element of one interior PE's arena, one run per element, at the step
/// boundary after step 3 — one step past the cadence's checkpoint.  A
/// flip in the state live across the boundary must be detected and
/// replayed; one in dead state must cost nothing, because the next step
/// overwrites it before reading it.  Both must end bitwise equal to the
/// fault-free stream.
fn flips_across_the_live_dead_boundary(program: &StencilProgram) {
    let loaded = loaded(program);
    let baseline = state_of(&loaded, LINK);
    let mut engine = WseGridSim::with_options(loaded, LINK).expect("links");
    engine.enable_recovery(RecoveryOptions {
        checkpoint_every: 2,
        verify: true,
        ..RecoveryOptions::default()
    });
    let linked = engine.linked();
    let live = live_spans(linked);
    let pe = (linked.width + 1) as usize;

    for (id, _) in linked.field_ids.iter().zip(&linked.field_internal).filter(|(_, &i)| !i) {
        let start = linked.layouts[id.0 as usize].base + linked.z_halo as usize;
        let end = start + linked.z_dim as usize;
        assert!(
            live.iter().any(|&(s, e)| s <= start && end <= e),
            "observable interior {start}..{end} outside the live spans {live:?}"
        );
    }

    let flipped = |offset: usize| -> RecoveryStats {
        let mut sim = engine.clone();
        let flip = FaultKind::ArenaBitFlip { pe, offset, bit: 30 };
        sim.set_fault_plan(FaultPlan::from_events(vec![(2, flip)]));
        sim.run(None).expect("the run finishes");
        let state = sim.grid_state().expect("extracts");
        assert_bitwise(&format!("flip at {offset}"), &baseline, &state);
        let stats = *sim.recovery_stats().expect("recovery was enabled");
        assert_eq!(stats.faults.bit_flips, 1, "the flip at {offset} fired");
        stats
    };
    let (mut live_elems, mut dead_elems) = (0, 0);
    for offset in 0..linked.arena_len {
        let stats = flipped(offset);
        if live.iter().any(|&(s, e)| s <= offset && offset < e) {
            live_elems += 1;
            assert_eq!(stats.checksum_failures, 1, "live flip at {offset} detected: {stats:?}");
            assert_eq!(stats.rollbacks, 1, "live flip at {offset} rolled back: {stats:?}");
            assert_eq!(stats.steps_replayed, 1, "one step past the checkpoint: {stats:?}");
        } else {
            dead_elems += 1;
            assert_eq!(stats.checksum_failures, 0, "dead flip at {offset}: {stats:?}");
            assert_eq!(stats.rollbacks, 0, "dead flip at {offset}: {stats:?}");
        }
    }
    assert!(live_elems > 0 && dead_elems > 0, "{live_elems} live, {dead_elems} dead: {live:?}");
}

#[test]
fn jacobian_flips_in_dead_state_cost_nothing_and_live_ones_recover() {
    flips_across_the_live_dead_boundary(&jacobian(4, 4, 8, 6));
}

#[test]
fn uvkbe_flips_in_dead_state_cost_nothing_and_live_ones_recover() {
    flips_across_the_live_dead_boundary(&uvkbe(4, 4, 8, 6));
}

/// A self-updating producer feeding a consumer is fused by renaming its
/// store into an internal double buffer (`f0__dbuf0`): a field, but not
/// observable state.  Whether it is live is the dependence model's answer,
/// not the field list's (here each step writes it before reading it).
#[test]
fn double_buffer_flips_in_dead_state_cost_nothing_and_live_ones_recover() {
    let program = StencilProgram {
        name: "double_buffer".into(),
        frontend: Frontend::Csl,
        grid: GridSpec::new(4, 4, 8),
        fields: vec!["f0".into(), "f1".into()],
        equations: vec![
            StencilEquation::new(
                "f0",
                Expr::at("f0", 0, 0, -1).scale(0.4) + Expr::center("f0").scale(0.3),
            ),
            StencilEquation::new(
                "f1",
                Expr::center("f0").scale(0.3) + Expr::at("f1", 0, 0, 1).scale(0.2),
            ),
        ],
        timesteps: 6,
        source: String::new(),
    };
    program.validate().expect("valid program");
    assert_eq!(loaded(&program).internal_fields, ["f0__dbuf0"], "the self-update is renamed");
    flips_across_the_live_dead_boundary(&program);
}

#[test]
fn acoustic_flips_in_dead_state_cost_nothing_and_live_ones_recover() {
    flips_across_the_live_dead_boundary(&acoustic(4, 4, 8, 6));
}
