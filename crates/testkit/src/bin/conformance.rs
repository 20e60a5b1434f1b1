//! Differential conformance harness entry point.
//!
//! Runs `--cases N` seeded random programs (seeds `--seed .. --seed+N`)
//! through the full pipeline and all three executors.  Prints one summary
//! line per outcome class; on any non-conformant case it shrinks to a
//! minimal reproducer, prints it (with parseable stencil IR) and exits
//! with a non-zero status.
//!
//! Usage: `conformance [--cases N] [--seed S] [--stress] [--soak]
//! [--require-fusion] [--require-products] [--faults] [--verbose]`

use testkit::{
    case_fusion_evidence, case_product_evidence, has_product_term, has_self_updating_chain,
    install_quiet_panic_hook, reproducer, run_case_with_tolerance_via, run_fault_case,
    shape_tolerance, shrink_case, try_generate_case_with, FaultOutcome, GeneratorConfig, Verdict,
    TOLERANCE,
};

fn main() {
    let mut cases: u64 = 64;
    let mut base_seed: u64 = 0;
    let mut verbose = false;
    let mut per_shape_bounds = false;
    let mut require_fusion = false;
    let mut require_products = false;
    let mut through_service = false;
    let mut faults = false;
    let mut config = GeneratorConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--cases" => cases = parse_number(args.next(), "--cases"),
            "--seed" => base_seed = parse_number(args.next(), "--seed"),
            "--verbose" => verbose = true,
            // Compiles every case through a shared `CompileService`
            // (pooled IR contexts + artifact cache) instead of a fresh
            // per-case `Compiler`, so the differential evidence also
            // checks that the pool and the cache are transparent.
            "--service" => through_service = true,
            // Forces `enable_inlining` on for every case and requires the
            // dependence-aware fusion path (double-buffer renaming plus
            // the optimizer blocks it unlocks) to actually fire on at
            // least one self-updating chain, per `LinkedProgram::stats` —
            // a guard against silently regressing to the conservative
            // refusal, which would stay green on pure conformance.
            "--require-fusion" => require_fusion = true,
            // The nonlinear-biased profile: raises the generator's
            // product bias and requires the decompose-products lowering
            // (scratch `__prod` fields plus data×data multiplies in the
            // linked stream, per `LinkedProgram::stats`) to actually fire
            // on at least one conformant seed — a guard against silently
            // regressing degree-2 bodies to the rejection path, which
            // would stay green on pure conformance.
            "--require-products" => require_products = true,
            // The fault-injection campaign: every case runs three times
            // (fault-free baseline, recovery-enabled transparency check,
            // seeded fault plan with detect-and-rollback recovery).  A
            // faulted run must end bitwise-identical to the baseline or
            // surface a typed error — silent divergence fails the sweep,
            // and so does a campaign that never actually exercised the
            // recovery paths (see the aggregate assertions below).
            "--faults" => faults = true,
            // Wider workload space: larger grids/radii, more coupled
            // equations, longer runs.  Slower per case; used for deeper
            // local soaking, not the CI budget.
            "--stress" => config = GeneratorConfig::stress(),
            // The nightly soak profile: large grids, deep timestep counts,
            // and per-shape error bounds instead of the flat 1e-3.  Far
            // slower per case than the PR-gating profiles.
            "--soak" => {
                per_shape_bounds = true;
                config = GeneratorConfig {
                    max_grid_xy: 20,
                    max_grid_z: 40,
                    max_fields: 4,
                    max_equations: 4,
                    max_radius_xy: 4,
                    max_radius_z: 4,
                    max_timesteps: 8,
                    ..GeneratorConfig::default()
                };
            }
            other => {
                eprintln!("unknown argument {other:?}");
                eprintln!(
                    "usage: conformance [--cases N] [--seed S] [--stress] [--soak] \
                     [--require-fusion] [--require-products] [--service] [--faults] [--verbose]"
                );
                std::process::exit(2);
            }
        }
    }
    if require_products {
        config.nonlinear_bias = config.nonlinear_bias.max(0.6);
    }
    if faults {
        // Long horizons give checkpoints, rollbacks and replay room to
        // land; slightly smaller grids keep the three-runs-per-case
        // campaign within the CI budget.
        config.fault_bias = config.fault_bias.max(0.75);
        config.max_grid_xy = config.max_grid_xy.min(5);
        config.max_grid_z = config.max_grid_z.min(12);
        run_fault_sweep(cases, base_seed, verbose, &config);
        return;
    }

    install_quiet_panic_hook();
    let start = std::time::Instant::now();
    let (mut passed, mut rejected, mut failed) = (0u64, 0u64, 0u64);
    let mut rejection_classes: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    let mut worst_deviation = 0.0f32;
    let (mut chain_cases, mut chain_renamed, mut chain_unlocked) = (0u64, 0u64, 0u64);
    let (mut product_cases, mut product_decomposed) = (0u64, 0u64);

    for seed in base_seed..base_seed + cases {
        // A generator bug fails that seed, not the whole sweep.
        let mut case = match try_generate_case_with(seed, &config) {
            Ok(case) => case,
            Err(error) => {
                failed += 1;
                println!("seed {seed}: GENERATOR FAILURE: {error}");
                continue;
            }
        };
        if require_fusion {
            case.options.enable_inlining = true;
        }
        let tolerance = if per_shape_bounds { shape_tolerance(&case.program) } else { TOLERANCE };
        let verdict = run_case_with_tolerance_via(&case, tolerance, through_service);
        if require_fusion && verdict.is_conformant() && has_self_updating_chain(&case.program) {
            chain_cases += 1;
            if let Some(evidence) = case_fusion_evidence(&case) {
                if evidence.internal_fields > 0 {
                    chain_renamed += 1;
                    let stats = &evidence.stats;
                    if stats.copies_folded > 0
                        || stats.captures_elided > 0
                        || stats.dead_writes_elided > 0
                    {
                        chain_unlocked += 1;
                    }
                }
            }
        }
        if require_products
            && matches!(verdict, Verdict::Pass { .. })
            && has_product_term(&case.program)
        {
            product_cases += 1;
            if let Some(evidence) = case_product_evidence(&case) {
                if evidence.product_fields > 0 && evidence.stats.product_muls > 0 {
                    product_decomposed += 1;
                }
            }
        }
        match &verdict {
            Verdict::Pass { deviation } => {
                passed += 1;
                worst_deviation = worst_deviation.max(*deviation);
                if verbose {
                    println!("seed {seed}: pass (max |Δ| {deviation:.2e})");
                }
            }
            Verdict::Rejected { stage, message, code } => {
                rejected += 1;
                *rejection_classes
                    .entry(code.clone().unwrap_or_else(|| format!("untyped:{stage}")))
                    .or_default() += 1;
                if verbose {
                    println!("seed {seed}: rejected by {stage}: {message}");
                }
            }
            Verdict::Mismatch { .. } | Verdict::Panicked { .. } | Verdict::EngineFailure { .. } => {
                failed += 1;
                let (kind, detail) = match &verdict {
                    Verdict::Panicked { detail } => ("PANIC", detail.clone()),
                    Verdict::EngineFailure { stage, message } => {
                        ("ENGINE FAILURE", format!("{stage}: {message}"))
                    }
                    Verdict::Mismatch { detail } => ("MISMATCH", detail.clone()),
                    _ => unreachable!(),
                };
                println!("seed {seed}: {kind}: {detail}");
                println!("shrinking ...");
                let bound = |candidate: &testkit::ConformanceCase| {
                    if per_shape_bounds {
                        shape_tolerance(&candidate.program)
                    } else {
                        TOLERANCE
                    }
                };
                let shrunk = shrink_case(&case, &|candidate| {
                    !run_case_with_tolerance_via(candidate, bound(candidate), through_service)
                        .is_conformant()
                });
                println!("{}", reproducer(&shrunk));
                let verdict = run_case_with_tolerance_via(&shrunk, bound(&shrunk), through_service);
                println!("final verdict on shrunk case: {verdict:?}");
            }
        }
    }

    println!(
        "conformance: {passed} passed, {rejected} rejected (typed), {failed} failed \
         over {cases} cases in {:.1}s (worst pass deviation {worst_deviation:.2e})",
        start.elapsed().as_secs_f64()
    );
    if !rejection_classes.is_empty() {
        let classes: Vec<String> =
            rejection_classes.iter().map(|(code, n)| format!("{code} x{n}")).collect();
        println!("rejection classes: {}", classes.join(", "));
    }
    if failed > 0 {
        std::process::exit(1);
    }
    if require_fusion {
        println!(
            "require-fusion: {chain_cases} self-updating chains, {chain_renamed} double-buffered, \
             {chain_unlocked} with unlocked optimizer blocks (copy folding / snapshot or \
             dead-write elision)"
        );
        if chain_cases == 0 {
            println!("require-fusion: generator produced no self-updating chains — biasing lost");
            std::process::exit(1);
        }
        if chain_renamed == 0 || chain_unlocked == 0 {
            println!(
                "require-fusion: dependence-aware inlining never fired — the pass has \
                 regressed to the conservative refusal path"
            );
            std::process::exit(1);
        }
    }
    if require_products {
        println!(
            "require-products: {product_cases} conformant product cases, {product_decomposed} \
             with scratch-field decomposition evidence (loaded `__prod` fields + linked \
             data×data multiplies)"
        );
        if product_cases == 0 {
            println!("require-products: generator produced no product bodies — biasing lost");
            std::process::exit(1);
        }
        if product_decomposed == 0 {
            println!(
                "require-products: product decomposition never fired — degree-2 bodies have \
                 regressed to the rejection path"
            );
            std::process::exit(1);
        }
    }
    // A run where (almost) nothing compiles is a silent loss of
    // differential coverage, not a green result: only a small fraction of
    // generated programs (the deliberately nonlinear ones) should be
    // rejected.
    if passed < cases / 2 {
        println!(
            "conformance: only {passed}/{cases} cases compiled and ran — differential \
             coverage has collapsed; treating the run as failed"
        );
        std::process::exit(1);
    }
}

/// Per-step fault event probability for the `--faults` campaign.
const FAULT_RATE: f64 = 0.12;

/// The `--faults` sweep: every seed is run through
/// [`testkit::run_fault_case`]; the sweep fails on any silent
/// divergence, transparency break, panic or engine failure — and also
/// when the campaign never exercised the machinery it claims to cover
/// (zero injected faults of some class, zero rollbacks, zero detected
/// checksum failures or band timeouts would all make a green sweep
/// vacuous).
fn run_fault_sweep(cases: u64, base_seed: u64, verbose: bool, config: &GeneratorConfig) {
    install_quiet_panic_hook();
    let start = std::time::Instant::now();
    let (mut recovered, mut rejected, mut typed, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut typed_kinds: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    let mut injected = wse_sim::FaultCounts::default();
    let (mut rollbacks, mut steps_replayed) = (0u64, 0u64);
    let (mut checksum_failures, mut delivery_failures) = (0u64, 0u64);
    let (mut band_panics_detected, mut band_timeouts) = (0u64, 0u64);
    let (mut checkpoints_saved, mut pages_shared) = (0u64, 0u64);

    for seed in base_seed..base_seed + cases {
        let case = match try_generate_case_with(seed, config) {
            Ok(case) => case,
            Err(error) => {
                failed += 1;
                println!("seed {seed}: GENERATOR FAILURE: {error}");
                continue;
            }
        };
        // A fault seed decorrelated from the case seed, so re-running a
        // case seed under a different base does not replay the same plan.
        let fault_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xFA17;
        let report = run_fault_case(&case, fault_seed, FAULT_RATE);
        if let Some(stats) = &report.stats {
            injected.bit_flips += stats.faults.bit_flips;
            injected.drops += stats.faults.drops;
            injected.duplicates += stats.faults.duplicates;
            injected.band_panics += stats.faults.band_panics;
            injected.band_stalls += stats.faults.band_stalls;
            rollbacks += stats.rollbacks;
            steps_replayed += stats.steps_replayed;
            checksum_failures += stats.checksum_failures;
            delivery_failures += stats.delivery_failures;
            band_panics_detected += stats.band_panics;
            band_timeouts += stats.band_timeouts;
            checkpoints_saved += stats.checkpoints_saved;
            pages_shared += stats.checkpoint_pages_shared;
        }
        match &report.outcome {
            FaultOutcome::Recovered => {
                recovered += 1;
                if verbose {
                    println!("seed {seed}: recovered (fault seed {fault_seed:#x})");
                }
            }
            FaultOutcome::Rejected { code } => {
                rejected += 1;
                if verbose {
                    println!("seed {seed}: rejected ({code:?})");
                }
            }
            FaultOutcome::TypedError { kind } => {
                typed += 1;
                *typed_kinds.entry(format!("{kind:?}")).or_default() += 1;
                if verbose {
                    println!("seed {seed}: typed error {kind:?} (fault seed {fault_seed:#x})");
                }
            }
            FaultOutcome::SilentDivergence { detail } => {
                failed += 1;
                println!("seed {seed}: SILENT DIVERGENCE (fault seed {fault_seed:#x}): {detail}");
            }
            FaultOutcome::TransparencyBroken { detail } => {
                failed += 1;
                println!("seed {seed}: TRANSPARENCY BROKEN: {detail}");
            }
            FaultOutcome::Panicked { detail } => {
                failed += 1;
                println!("seed {seed}: PANIC: {detail}");
            }
            FaultOutcome::EngineFailure { detail } => {
                failed += 1;
                println!("seed {seed}: ENGINE FAILURE: {detail}");
            }
        }
    }

    println!(
        "faults: {recovered} recovered, {typed} typed errors, {rejected} rejected, \
         {failed} failed over {cases} cases in {:.1}s",
        start.elapsed().as_secs_f64()
    );
    println!(
        "injected: {} bit flips, {} drops, {} duplicates, {} band panics, {} band stalls",
        injected.bit_flips,
        injected.drops,
        injected.duplicates,
        injected.band_panics,
        injected.band_stalls
    );
    println!(
        "recovery: {rollbacks} rollbacks, {steps_replayed} steps replayed, \
         {checksum_failures} checksum failures, {delivery_failures} delivery failures, \
         {band_panics_detected} band panics, {band_timeouts} band timeouts, \
         {checkpoints_saved} checkpoints ({pages_shared} COW pages shared)"
    );
    if !typed_kinds.is_empty() {
        let kinds: Vec<String> = typed_kinds.iter().map(|(k, n)| format!("{k} x{n}")).collect();
        println!("typed error kinds: {}", kinds.join(", "));
    }
    if failed > 0 {
        std::process::exit(1);
    }
    // A green sweep that never injected or never recovered is vacuous.
    let mut vacuous = Vec::new();
    if injected.bit_flips == 0 {
        vacuous.push("no bit flips injected");
    }
    if injected.drops == 0 && injected.duplicates == 0 {
        vacuous.push("no delivery faults injected");
    }
    if injected.band_panics == 0 {
        vacuous.push("no band panics injected");
    }
    if injected.band_stalls == 0 {
        vacuous.push("no band stalls injected");
    }
    if rollbacks == 0 {
        vacuous.push("no rollbacks occurred");
    }
    if checksum_failures == 0 {
        vacuous.push("no checksum failures detected");
    }
    if band_timeouts == 0 {
        vacuous.push("no band timeouts detected");
    }
    if recovered == 0 {
        vacuous.push("no case recovered bitwise");
    }
    if !vacuous.is_empty() {
        println!("faults: campaign was vacuous — {}", vacuous.join("; "));
        std::process::exit(1);
    }
    if recovered < cases / 2 {
        println!(
            "faults: only {recovered}/{cases} cases recovered — coverage has collapsed; \
             treating the run as failed"
        );
        std::process::exit(1);
    }
}

fn parse_number(value: Option<String>, flag: &str) -> u64 {
    value.and_then(|v| v.parse().ok()).unwrap_or_else(|| {
        eprintln!("{flag} requires a non-negative integer");
        std::process::exit(2);
    })
}
