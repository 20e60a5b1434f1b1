//! Integration tests for the compile-as-a-service API: the pooled-context
//! and artifact-cache path must be observationally identical to the
//! classic per-compile facade, across the paper benchmarks and generated
//! conformance seeds.

use std::sync::Arc;

use testkit::{generate_case, run_case_with_tolerance_via, Verdict, TOLERANCE};
use wse_stencil::{benchmarks::Benchmark, CompileErrorKind, Compiler, WseTarget};

/// Every benchmark compiles to byte-identical sources through the service
/// (cold path) and through `Compiler::compile`.
#[test]
fn service_sources_match_classic_for_all_benchmarks() {
    let compiler = Compiler::new().num_chunks(2);
    let service = compiler.service();
    for benchmark in Benchmark::ALL {
        let program = benchmark.tiny_program();
        let classic = compiler.compile(&program).unwrap();
        let served = service.compile(&program).unwrap();
        assert_eq!(classic.sources().files.len(), served.sources().files.len());
        for file in &classic.sources().files {
            let other = served.sources().file(&file.name).expect("same file set");
            assert_eq!(
                file.content,
                other.content,
                "{}: {} differs between classic and service compile",
                benchmark.name(),
                file.name
            );
        }
        assert_eq!(classic.pass_names(), served.pass_names());
        assert_eq!(classic.loc_report(), served.loc_report());
        assert_eq!(classic.bytes_per_pe(), served.bytes_per_pe());
        assert_eq!(classic.fmac_count(), served.fmac_count());
    }
    // All benchmarks went through pooled contexts; nothing was a hit.
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 0);
    assert_eq!(stats.cache_misses, Benchmark::ALL.len() as u64);
}

/// Repeat requests are served from the cache as the same shared artifact;
/// distinct programs and distinct options are distinct entries.
#[test]
fn cache_is_keyed_by_structure_and_options() {
    let service = Compiler::new().num_chunks(2).service();
    let jacobian = Benchmark::Jacobian.tiny_program();
    let first = service.compile(&jacobian).unwrap();
    let again = service.compile(&jacobian).unwrap();
    assert!(Arc::ptr_eq(&first, &again));

    // A structurally different program misses.
    let diffusion = Benchmark::Diffusion.tiny_program();
    let other = service.compile(&diffusion).unwrap();
    assert!(!Arc::ptr_eq(&first, &other));

    // Same structure under different options misses too (different service).
    let wse2 = Compiler::new().num_chunks(2).target(WseTarget::Wse2).service();
    let wse2_artifact = wse2.compile(&jacobian).unwrap();
    assert_ne!(
        wse2_artifact.sources().file("stencil_comms.csl").unwrap().content,
        first.sources().file("stencil_comms.csl").unwrap().content,
        "WSE2 runtime library must differ from WSE3"
    );

    let stats = service.stats();
    assert_eq!((stats.cache_hits, stats.cache_misses, stats.cached_artifacts), (1, 2, 2));
}

/// Typed errors surface identically through the service, and an invalid
/// program does not poison the pool or the cache.
#[test]
fn service_errors_are_typed_and_recoverable() {
    let service = Compiler::new().num_chunks(2).service();
    let mut bad = Benchmark::Jacobian.tiny_program();
    bad.timesteps = 0;
    let err = service.compile(&bad).unwrap_err();
    assert_eq!(err.kind(), &CompileErrorKind::Emit);
    assert_eq!(err.code(), Some("emit-invalid-program"));
    // The same service still compiles a valid program afterwards.
    let good = service.compile(&Benchmark::Jacobian.tiny_program()).unwrap();
    assert!(good.sources().kernel_loc() > 0);

    let err = Compiler::new().num_chunks(0).service().compile(&bad).unwrap_err();
    assert!(matches!(err.kind(), CompileErrorKind::InvalidOptions { option: "num_chunks" }));
}

/// Generated conformance seeds give the same verdict through the service
/// path as through the classic compiler (spot-check; the conformance bin
/// runs the full sweep with `--service`).
#[test]
fn conformance_seeds_agree_between_paths() {
    let mut checked = 0;
    for seed in 0..24 {
        let case = generate_case(seed);
        let classic = run_case_with_tolerance_via(&case, TOLERANCE, false);
        let service = run_case_with_tolerance_via(&case, TOLERANCE, true);
        assert_eq!(classic, service, "seed {seed} diverged between compile paths");
        if matches!(classic, Verdict::Pass { .. }) {
            checked += 1;
        }
    }
    assert!(checked > 0, "no seed passed — the spot check lost its coverage");
}
