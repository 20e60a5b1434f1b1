//! The metric tables: what `BENCHMARK.json` declares and the runs print.

/// Workloads and why each exists.
pub const WORKLOAD_WHY: [(&str, &str); 6] = [
    (
        "steady_jacobian",
        "Fortran 6-pt Jacobian 48x48x96, one pinned thread: cache-resident, one fused sweep, so sim.kernels do almost all the work and compile/link/pool none",
    ),
    (
        "halo_star25",
        "radius-4 25-pt star 32x32x64, one pinned thread: 16 neighbour columns per PE and 25 fused terms, so snapshot capture, staging and sim.link elisions dominate",
    ),
    (
        "large_grid",
        "Jacobian 128x128x128 with automatic threads: above the parallel threshold and 16x L2, so the worker pool, barrier and memory traffic are what is measured",
    ),
    (
        "recovery_faults",
        "steady_jacobian's program under checkpoints, per-step checksums and seeded faults: the write/verify/rollback side of the same engine; the price of resilience",
    ),
    (
        "program_mix",
        "48 tiny programs (5 paper programs x 2 targets x 2 chunkings + 28 seeded generated): compile-bound, so front-ends, every lowering pass, csl, loader and link do the work",
    ),
    (
        "static_gate",
        "the 5 paper programs at 16x16x32, clean and with a broken link rewrite, validate:true: the verifier's time to a verdict, which nothing else in the suite touches",
    ),
];

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef { name, unit, better, bound }
}

/// End-to-end metrics, printed by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 9] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("sim_mpts", "MPts/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
    e2e("compile_ms", "ms", "lower", 0.25),
    e2e("service_per_s", "1/s", "higher", 0.25),
    e2e("validated_ms", "ms", "lower", 0.25),
    e2e("verdict_s", "s", "lower", 0.20),
    e2e("pe_bytes", "bytes", "lower", 0.001),
    e2e("model_err", "ratio", "lower", 0.001),
];

/// The twelve lowering passes, in pipeline order.
pub const PASSES: [&str; 12] = [
    "stencil-inlining",
    "convert-arith-to-varith",
    "varith-fuse-repeated-operands",
    "decompose-products",
    "distribute-stencil",
    "tensorize-z",
    "convert-stencil-to-csl-stencil",
    "wrap-in-csl-wrapper",
    "lower-csl-stencil-to-actors",
    "linalg-fuse-multiply-add",
    "convert-linalg-to-csl",
    "lower-csl-wrapper-to-csl",
];

/// Per-layer metrics besides the per-pass ones: (name, unit, better).
pub const LAYER_FIXED: &[(&str, &str, &str)] = &[
    ("frontends.build_us", "us", "lower"),
    ("frontends.emit_us", "us", "lower"),
    ("frontends.ops_emitted", "count", "lower"),
    ("lowering.passes_us", "us", "lower"),
    ("lowering.ops_final", "count", "lower"),
    ("ir.verify_each_us", "us", "lower"),
    ("csl.print_us", "us", "lower"),
    ("csl.bytes", "bytes", "lower"),
    ("csl.kernel_loc", "count", "lower"),
    ("core.compile_fresh_us", "us", "lower"),
    ("core.service_cold_us", "us", "lower"),
    ("core.service_hit_us", "us", "lower"),
    ("core.cache_hit_ratio", "ratio", "higher"),
    ("core.service_retries", "count", "lower"),
    ("core.estimate_us", "us", "lower"),
    ("sim.load_us", "us", "lower"),
    ("sim.link_us", "us", "lower"),
    ("sim.link_noopt_us", "us", "lower"),
    ("sim.plan_us", "us", "lower"),
    ("sim.exec.construct_ms", "ms", "lower"),
    ("sim.exec.first_step_us", "us", "lower"),
    ("sim.link.instrs_before", "count", "lower"),
    ("sim.link.instrs_after", "count", "lower"),
    ("sim.link.fused_chains", "count", "higher"),
    ("sim.link.fused_terms", "count", "higher"),
    ("sim.link.slots_elided", "count", "higher"),
    ("sim.link.captures_elided", "count", "higher"),
    ("sim.link.sweeps_merged", "count", "higher"),
    ("sim.link.skipped_total", "count", "lower"),
    ("sim.link.skipped_window_barrier", "count", "lower"),
    ("sim.link.arena_bytes_before", "bytes", "lower"),
    ("sim.link.arena_bytes_after", "bytes", "lower"),
    ("sim.plan.simd_planned", "count", "higher"),
    ("sim.plan.simd_fallback", "count", "lower"),
    ("sim.plan.scratch_elided", "count", "higher"),
    ("sim.exec.serial_mpts", "MPts/s", "higher"),
    ("sim.exec.pool_mpts", "MPts/s", "higher"),
    ("sim.exec.pool_efficiency", "ratio", "higher"),
    ("sim.exec.no_fuse_mpts", "MPts/s", "higher"),
    ("sim.exec.no_simd_mpts", "MPts/s", "higher"),
    ("sim.exec.step_p50_us", "us", "lower"),
    ("sim.exec.step_p99_us", "us", "lower"),
    ("sim.exec.extract_ms", "ms", "lower"),
    ("sim.exec.bitwise_mismatches", "count", "lower"),
    ("sim.kernels.flops_per_point", "count", "lower"),
    ("sim.kernels.bytes_per_point", "bytes", "lower"),
    ("sim.kernels.ops_per_byte", "ratio", "higher"),
    ("host.triad_gbs", "GB/s", "higher"),
    ("sim.kernels.bw_fraction", "ratio", "higher"),
    ("sim.checkpoint.capture_ms", "ms", "lower"),
    ("sim.checkpoint.restore_ms", "ms", "lower"),
    ("sim.checkpoint.pages", "count", "lower"),
    ("sim.checkpoint.shared_ratio", "ratio", "higher"),
    ("sim.checkpoint.row_checksums_ms", "ms", "lower"),
    ("sim.checkpoint.overhead", "ratio", "lower"),
    ("sim.checkpoint.verify_overhead", "ratio", "lower"),
    ("sim.recovery.faults_injected", "count", "lower"),
    ("sim.recovery.rollbacks", "count", "lower"),
    ("sim.recovery.steps_replayed", "count", "lower"),
    ("sim.recovery.replay_ratio", "ratio", "lower"),
    ("sim.recovery.silent_divergences", "count", "lower"),
    ("sim.reference_mpts", "MPts/s", "higher"),
    ("sim.ref_dev", "ratio", "lower"),
    ("sim.link_validated_ms", "ms", "lower"),
    ("sim.validate.summary_ms", "ms", "lower"),
    ("sim.link.validated_passes", "count", "higher"),
    ("sim.link.validator_rejections", "count", "lower"),
    ("analysis.lint_us", "us", "lower"),
    ("analysis.dag_us", "us", "lower"),
    ("analysis.race_us", "us", "lower"),
    ("analysis.dag_nodes", "count", "lower"),
    ("analysis.dag_edges", "count", "lower"),
    ("analysis.findings", "count", "lower"),
    ("sim.perf.estimate_us", "us", "lower"),
    ("sim.perf.wse3_gpts.jacobian", "GPts/s", "higher"),
    ("sim.perf.wse3_gpts.diffusion", "GPts/s", "higher"),
    ("sim.perf.wse3_gpts.seismic25", "GPts/s", "higher"),
    ("sim.perf.wse3_gpts.uvkbe", "GPts/s", "higher"),
    ("sim.perf.wse3_gpts.acoustic", "GPts/s", "higher"),
    ("sim.perf.wse3_over_wse2", "ratio", "higher"),
    ("sim.perf.a100_ratio", "ratio", "higher"),
    ("sim.perf.cpu_ratio", "ratio", "higher"),
    ("sim.perf.handwritten_speedup", "ratio", "higher"),
    ("bench.trace_overhead", "ratio", "lower"),
    ("bench.timer_ns", "ns", "lower"),
];

/// Every per-layer metric, in declaration order: (name, unit, better).
pub fn per_layer() -> Vec<(String, &'static str, &'static str)> {
    // The per-pass metrics sit where the pipeline puts the passes: after
    // the three front-end metrics.
    let mut out: Vec<(String, &'static str, &'static str)> = Vec::new();
    for (name, unit, better) in &LAYER_FIXED[..3] {
        out.push((name.to_string(), unit, better));
    }
    for pass in PASSES {
        out.push((format!("lowering.pass.{pass}_us"), "us", "lower"));
        out.push((format!("lowering.pass.{pass}_ops"), "count", "lower"));
    }
    for (name, unit, better) in &LAYER_FIXED[3..] {
        out.push((name.to_string(), unit, better));
    }
    out
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u32) -> String {
    let mut out = String::from("{\n");
    out.push_str(
        "  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"wse-perf/Cargo.toml\", \"--\"],\n",
    );
    out.push_str("  \"paths\": [\"wse-perf\"],\n");
    out.push_str(&format!("  \"run_seconds\": {run_seconds},\n"));
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOAD_WHY.iter().enumerate() {
        let comma = if i + 1 < WORKLOAD_WHY.len() { "," } else { "" };
        out.push_str(&format!("    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"));
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name, m.unit, m.better, m.bound
        ));
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    let layers = per_layer();
    for (i, (name, unit, better)) in layers.iter().enumerate() {
        let comma = if i + 1 < layers.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{comma}\n"
        ));
    }
    out.push_str("  ]\n}\n");
    out
}
