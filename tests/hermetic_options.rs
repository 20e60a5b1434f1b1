//! `WseGridSim::with_options` is hermetic: only `WseGridSim::new` reads the
//! process environment.  This binary holds a single test, so mutating the
//! real `WSE_SIM_*` variables cannot race with another engine constructor.

use wse_frontends::benchmarks::Benchmark;
use wse_lowering::{lower_program, PipelineOptions};
use wse_sim::{load_program, ExecErrorKind, FaultKind, FaultPlan, LinkOptions, WseGridSim};

/// One timestep with band 0 of kernel 0 stalled for 200 ms: far inside the
/// default 60 s watchdog, far outside a 1 ms one.
fn step_with_a_short_stall(mut sim: WseGridSim) -> Result<(), ExecErrorKind> {
    sim.set_fault_plan(FaultPlan::from_events(vec![(
        0,
        FaultKind::BandStall { kernel: 0, band: 0, millis: 200 },
    )]));
    sim.run_timestep().map_err(|e| e.kind)
}

#[test]
fn with_options_ignores_the_environment_that_new_reads() {
    let program = Benchmark::Jacobian.tiny_program();
    let lowered = lower_program(&program, &PipelineOptions::default()).expect("lowers");
    let loaded = load_program(&lowered.ctx, lowered.module).expect("loads");

    std::env::set_var("WSE_SIM_FAULTS", "garbage");
    std::env::set_var("WSE_SIM_WATCHDOG_MS", "1");

    // Explicit options: the malformed campaign is never parsed, and the
    // watchdog stays at its default, so the stall is simply waited out.
    let sim = WseGridSim::with_options(loaded.clone(), LinkOptions::default())
        .expect("with_options must not parse WSE_SIM_FAULTS");
    assert_eq!(step_with_a_short_stall(sim), Ok(()), "WSE_SIM_WATCHDOG_MS leaked in");

    // The environment constructor: a malformed campaign is a typed error...
    let error = WseGridSim::new(loaded.clone()).expect_err("new must parse WSE_SIM_FAULTS");
    assert_eq!(error.kind, ExecErrorKind::Invalid);
    assert!(error.message.contains("WSE_SIM_FAULTS"), "got: {}", error.message);

    // ...and, once it parses, the 1 ms watchdog is in force.
    std::env::remove_var("WSE_SIM_FAULTS");
    let sim = WseGridSim::new(loaded).expect("links");
    assert_eq!(step_with_a_short_stall(sim), Err(ExecErrorKind::Timeout));
}
