//! The traced run: per-layer metrics, measured from outside the layers.
//!
//! The run has three parts.  (1) The six end-to-end phases once with
//! tracing off and once with a span around every call into a layer; the
//! median traced/untraced ratio of the five timed end-to-end metrics is
//! `bench.trace_overhead`.  (2) Every layer
//! entry point timed on its own over the workload's programs (front-ends,
//! each lowering pass through `PassManager::statistics()`, CSL printing,
//! the compile service, loader, linker, planner, construction).  (3) The
//! variant engines that belong to the traced run only: forced-serial,
//! forced-pool, no-fuse, no-SIMD, checkpointed, verified, and the plain
//! single-threaded reference executor.  Spans stay in memory and are
//! written, with the layer table, beside the binary when the run ends.
//!
//! A metric that does not apply to a workload reads 0 there (no faults
//! injected, no pool used): the contract wants every per-layer metric from
//! every workload.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use wse_frontends::emit_stencil_ir;
use wse_lowering::{build_pass_manager, lower_module_in, lower_program, PipelineOptions};
use wse_sim::link::{FusedInit, LinkedInstr, LinkedProgram};
use wse_sim::{
    link_program_with, load_program, observable_summary, plan_program, row_checksums,
    run_reference, LinkOptions, RecoveryOptions,
};

use crate::measure::{self, median, Ops, Plan, Prepared};
use crate::metrics::{per_layer, PASSES};
use crate::trace::Tracer;
use crate::workloads::{Engine, Workload, RECOVERY};
use crate::{end_to_end, host, EndToEnd, Report, Reported};

/// Share of `--seconds` for each of the two end-to-end passes.
const E2E_SHARE: f64 = 0.15;
/// Budget of each variant engine series, as a share of `--seconds`.
const VARIANT_SHARE: f64 = 0.05;

/// Sums of per-program values, keyed by metric name.
#[derive(Default)]
struct Sums(BTreeMap<String, f64>);

impl Sums {
    fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_string()).or_insert(0.0) += value;
    }

    fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// Median seconds of `reps` timed calls, each recorded as a span.
fn timed_median<T>(
    tr: &mut Tracer,
    name: &'static str,
    request: u32,
    reps: usize,
    mut call: impl FnMut() -> T,
) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let (out, seconds) = tr.timed(name, request, &mut call);
            std::hint::black_box(out);
            seconds
        })
        .collect();
    median(&times)
}

/// Front-end, lowering, CSL, compile-service, loader, linker and planner
/// figures of one program, added into `sums`.
fn compile_side(p: &Prepared, id: u32, reps: usize, tr: &mut Tracer, sums: &mut Sums) {
    let compiler = p.case.compiler();
    let options: PipelineOptions = *compiler.options();
    let open = tr.begin("layers.compile_side", id);

    sums.add(
        "frontends.build_us",
        timed_median(tr, "frontends.build", id, reps, || p.case.build()) * 1e6,
    );
    sums.add(
        "frontends.emit_us",
        timed_median(tr, "frontends.emit", id, reps, || emit_stencil_ir(&p.program)) * 1e6,
    );
    let emitted = emit_stencil_ir(&p.program).expect("workload programs emit");
    sums.add("frontends.ops_emitted", emitted.ctx.num_live_ops() as f64);

    // Per pass: `PassManager::statistics()`, with a span per pass from the
    // `run_with` observer.
    let mut pass_seconds: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut pass_ops: BTreeMap<String, usize> = BTreeMap::new();
    let mut totals = Vec::new();
    let mut verified_totals = Vec::new();
    let mut ops_final = 0;
    for verify_each in [false, true] {
        for _ in 0..reps {
            let mut ir = emit_stencil_ir(&p.program).expect("workload programs emit");
            let mut pm =
                build_pass_manager(&p.program, &PipelineOptions { verify_each, ..options });
            let run = tr.begin("lowering.passes", id);
            let start = Instant::now();
            let mut pass_start = Instant::now();
            pm.run_with(&mut ir.ctx, ir.module, &mut |name, _, _| {
                if let Some(pass) = PASSES.iter().find(|known| **known == name) {
                    let begun = std::mem::replace(&mut pass_start, Instant::now());
                    tr.timed_from(pass, id, begun);
                }
                Ok(())
            })
            .expect("workload programs lower");
            let total = start.elapsed().as_secs_f64();
            tr.end(run);
            if verify_each {
                verified_totals.push(total);
                continue;
            }
            totals.push(total);
            for stat in pm.statistics() {
                pass_seconds.entry(stat.name.clone()).or_default().push(stat.seconds);
                pass_ops.insert(stat.name.clone(), stat.ops_after);
                ops_final = stat.ops_after;
            }
        }
    }
    for (name, seconds) in &pass_seconds {
        sums.add(&format!("lowering.pass.{name}_us"), median(seconds) * 1e6);
        sums.add(&format!("lowering.pass.{name}_ops"), pass_ops[name] as f64);
    }
    let passes = median(&totals);
    sums.add("lowering.passes_us", passes * 1e6);
    sums.add("lowering.ops_final", ops_final as f64);
    sums.add("ir.verify_each_us", (median(&verified_totals) - passes) * 1e6);

    // Printing is what `lower_module_in` does besides running the passes.
    let lower_total = {
        let times: Vec<f64> = (0..reps)
            .map(|_| {
                let mut ir = emit_stencil_ir(&p.program).expect("workload programs emit");
                tr.timed("lowering.lower_module", id, || {
                    lower_module_in(&mut ir.ctx, ir.module, &p.program, &options)
                        .expect("workload programs lower")
                })
                .1
            })
            .collect();
        median(&times)
    };
    sums.add("csl.print_us", (lower_total - passes) * 1e6);
    let lowered = lower_program(&p.program, &options).expect("workload programs lower");
    let bytes: usize = lowered.sources.files.iter().map(|f| f.content.len()).sum();
    sums.add("csl.bytes", bytes as f64);
    sums.add("csl.kernel_loc", lowered.sources.kernel_loc() as f64);

    sums.add(
        "core.compile_fresh_us",
        timed_median(tr, "core.compile", id, reps, || compiler.compile(&p.program)) * 1e6,
    );
    let cold = compiler.service().cache(false);
    sums.add(
        "core.service_cold_us",
        timed_median(tr, "core.service.cold", id, reps, || cold.compile(&p.program)) * 1e6,
    );
    let hot = compiler.service();
    let artifact = hot.compile(&p.program).expect("workload programs compile");
    sums.add(
        "core.service_hit_us",
        timed_median(tr, "core.service.hit", id, reps, || hot.compile(&p.program)) * 1e6,
    );
    sums.add(
        "core.estimate_us",
        timed_median(tr, "sim.perf.estimate", id, reps, || artifact.estimate()) * 1e6,
    );

    sums.add(
        "sim.load_us",
        timed_median(tr, "sim.loader.load", id, reps, || {
            load_program(&lowered.ctx, lowered.module)
        }) * 1e6,
    );
    let default = LinkOptions::default();
    sums.add(
        "sim.link_us",
        timed_median(tr, "sim.link", id, reps, || link_program_with(&p.loaded, &default)) * 1e6,
    );
    let unoptimized = LinkOptions { optimize: false, ..default };
    sums.add(
        "sim.link_noopt_us",
        timed_median(tr, "sim.link.noopt", id, reps, || link_program_with(&p.loaded, &unoptimized))
            * 1e6,
    );
    let linked = link_program_with(&p.loaded, &default).expect("workload programs link");
    sums.add("sim.plan_us", timed_median(tr, "sim.plan", id, reps, || plan_program(&linked)) * 1e6);

    let stats = linked.stats();
    for (name, count) in [
        ("instrs_before", stats.instrs_before),
        ("instrs_after", stats.instrs_after),
        ("fused_chains", stats.fused_chains),
        ("fused_terms", stats.fused_terms),
        ("slots_elided", stats.slots_elided),
        ("captures_elided", stats.captures_elided),
        ("sweeps_merged", stats.sweeps_merged),
        ("skipped_total", stats.skipped.total()),
        ("skipped_window_barrier", stats.skipped.window_barrier),
        ("arena_bytes_before", stats.arena_bytes_before),
        ("arena_bytes_after", stats.arena_bytes_after),
    ] {
        sums.add(&format!("sim.link.{name}"), count as f64);
    }
    let counts = plan_program(&linked).counts;
    sums.add("sim.plan.simd_planned", counts.simd_planned as f64);
    sums.add("sim.plan.simd_fallback", counts.simd_fallback as f64);
    sums.add("sim.plan.scratch_elided", counts.scratch_elided as f64);

    // Computed, not measured: bytes the linked stream moves per grid point
    // and step (every operand stream of every instruction, plus the
    // snapshot capture), ignoring cache reuse.
    sums.add("points", p.program.grid.points() as f64);
    sums.add("flops", (p.program.flops_per_point() * p.program.grid.points() as u64) as f64);
    sums.add("bytes", streamed_bytes_per_pe(&linked) * (linked.width * linked.height) as f64);

    let gate_linked =
        link_program_with(&p.gate_loaded, &measure::VALIDATED).expect("gate programs link");
    sums.add(
        "sim.validate.summary_ms",
        timed_median(tr, "sim.validate.summary", id, reps.min(5), || {
            observable_summary(&gate_linked)
        }) * 1e3,
    );
    tr.end(open);
}

/// Bytes one PE's instruction stream reads and writes per step.
fn streamed_bytes_per_pe(linked: &LinkedProgram) -> f64 {
    let instr_elems = |instr: &LinkedInstr| -> usize {
        match instr {
            LinkedInstr::Fill { dest, .. } => dest.len as usize,
            LinkedInstr::Copy { dest, .. } => 2 * dest.len as usize,
            LinkedInstr::Binary { dest, .. } | LinkedInstr::Macs { dest, .. } => {
                3 * dest.len as usize
            }
            LinkedInstr::FusedMacs { dest, init, terms } => {
                let init = usize::from(matches!(init, FusedInit::Acc(_)));
                (1 + init + terms.len()) * dest.len as usize
            }
        }
    };
    let mut elems = 0usize;
    for kernel in &linked.kernels {
        let chunks = kernel.comm.as_ref().map_or(1, |c| c.num_chunks.max(1));
        elems += kernel.pre.iter().map(instr_elems).sum::<usize>();
        elems += kernel.recv.iter().map(instr_elems).sum::<usize>() * chunks;
        elems += kernel.done.iter().map(instr_elems).sum::<usize>();
        elems += kernel.commit.iter().map(instr_elems).sum::<usize>();
        if let Some(comm) = kernel.comm.as_ref().filter(|c| c.capture) {
            elems += 2 * comm.snap_fields.iter().map(|f| f.copy_len).sum::<usize>();
        }
    }
    4.0 * elems as f64
}

/// Sustained single-thread triad bandwidth over three 256 MB arrays (at
/// least four times any last-level cache here), best of three passes.
fn triad_gbs(tr: &mut Tracer, smoke: bool) -> f64 {
    let n = if smoke { 1 << 20 } else { 64 << 20 };
    let open = tr.begin("host.triad", 0);
    let b = vec![1.0f32; n];
    let c = vec![2.0f32; n];
    let mut a = vec![0.0f32; n];
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let start = Instant::now();
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = b + 0.5 * c;
        }
        std::hint::black_box(&mut a);
        best = best.min(start.elapsed().as_secs_f64());
    }
    tr.end(open);
    (3 * n * 4) as f64 / best / 1e9
}

fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * pct).round() as usize]
}

pub fn traced_run(
    w: &Workload,
    prepared: &[Prepared],
    seed: u64,
    seconds: f64,
    plan: Plan,
    ops: &mut Ops,
) -> Report {
    // Many short series: a lower sample floor and shorter service epochs
    // than the end-to-end run.
    let plan = Plan {
        min_samples: plan.min_samples.min(3),
        warmups: plan.warmups.min(1),
        service_requests_per_program: plan.service_requests_per_program / 4.0,
        ..plan
    };
    let reps = if plan.smoke {
        1
    } else if prepared.len() > 8 {
        5
    } else {
        15
    };
    let mut sums = Sums::default();

    let timer = {
        let start = Instant::now();
        for _ in 0..100_000 {
            std::hint::black_box(Instant::now());
        }
        start.elapsed().as_secs_f64() / 100_000.0
    };
    sums.set("bench.timer_ns", timer * 1e9);

    // (1) The end-to-end phases, untraced then traced.
    let mut off = Tracer::new(false);
    let untraced = end_to_end(w, prepared, seed, seconds * E2E_SHARE, plan, &mut off, ops);
    let mut tr = Tracer::new(true);
    let root = tr.begin("workload", 0);
    let wall = Instant::now();
    let traced = end_to_end(w, prepared, seed, seconds * E2E_SHARE, plan, &mut tr, ops);
    let ratios: Vec<f64> = ["setup_s", "compile_ms", "validated_ms", "verdict_s"]
        .iter()
        .map(|m| traced.report[*m].value / untraced.report[*m].value)
        .chain([untraced.report["sim_mpts"].value / traced.report["sim_mpts"].value])
        .collect();
    sums.set("bench.trace_overhead", median(&ratios) - 1.0);

    // (2) Every layer entry point on its own.
    for (i, p) in prepared.iter().enumerate() {
        compile_side(p, i as u32, reps, &mut tr, &mut sums);
    }
    let engine = w.engine;
    let construct: f64 = prepared
        .iter()
        .enumerate()
        .map(|(i, p)| {
            timed_median(&mut tr, "sim.exec.construct", i as u32, reps, || {
                engine.construct(&p.loaded)
            })
        })
        .sum();
    sums.set("sim.exec.construct_ms", construct * 1e3);
    let first_step: f64 = prepared
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let times: Vec<f64> = (0..reps)
                .map(|_| {
                    let mut sim = engine.construct(&p.loaded);
                    tr.timed("sim.exec.first_step", i as u32, || sim.run(Some(1))).1
                })
                .collect();
            median(&times)
        })
        .sum();
    sums.set("sim.exec.first_step_us", first_step * 1e6);
    let extract: f64 = prepared
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let sim = engine.construct(&p.loaded);
            timed_median(&mut tr, "sim.exec.extract", i as u32, reps, || sim.grid_state())
        })
        .sum();
    sums.set("sim.exec.extract_ms", extract * 1e3);

    // (3) The variant engines.  Serial and pool run the workload's own
    // sample length, so they compare with `sim_mpts`; the slower variants
    // and their baseline run a quarter of it (still two checkpoint
    // intervals on the 512-step workloads).
    let budget = Duration::from_secs_f64(seconds * VARIANT_SHARE);
    let plain = Engine { recovery: None, faults: false, ..engine };
    let short =
        Engine { steps: if plain.steps > 0 { (plain.steps / 4).max(8) } else { 0 }, ..plain };
    let variant = |name: &'static str, engine: Engine, tr: &mut Tracer, ops: &mut Ops| {
        let open = tr.begin(name, 0);
        let outcome = measure::phase_sim(engine, prepared, seed, plan, budget, tr, ops);
        tr.end(open);
        outcome
    };
    let threads = host::nproc();
    let serial = variant("variant.serial", Engine { threads: Some(1), ..plain }, &mut tr, ops);
    let pool = variant("variant.pool", Engine { threads: Some(threads), ..plain }, &mut tr, ops);
    let no_fuse = LinkOptions { optimize: false, ..short.options };
    let no_fuse = variant("variant.no_fuse", Engine { options: no_fuse, ..short }, &mut tr, ops);
    let no_simd = LinkOptions { simd: false, ..short.options };
    let no_simd = variant("variant.no_simd", Engine { options: no_simd, ..short }, &mut tr, ops);
    let cadence = RecoveryOptions { verify: false, ..RECOVERY };
    let checkpointed =
        variant("variant.checkpointed", Engine { recovery: Some(cadence), ..short }, &mut tr, ops);
    let verified =
        variant("variant.verified", Engine { recovery: Some(RECOVERY), ..short }, &mut tr, ops);
    let base = variant("variant.plain", short, &mut tr, ops);

    let serial_mpts = serial.mpts(prepared);
    let pool_mpts = pool.mpts(prepared);
    sums.set("sim.exec.serial_mpts", serial_mpts);
    sums.set("sim.exec.pool_mpts", pool_mpts);
    sums.set("sim.exec.pool_efficiency", pool_mpts / serial_mpts / threads as f64);
    sums.set("sim.exec.no_fuse_mpts", no_fuse.mpts(prepared));
    sums.set("sim.exec.no_simd_mpts", no_simd.mpts(prepared));
    let base_mpts = base.mpts(prepared);
    sums.set("sim.checkpoint.overhead", base_mpts / checkpointed.mpts(prepared) - 1.0);
    sums.set("sim.checkpoint.verify_overhead", base_mpts / verified.mpts(prepared) - 1.0);
    let shared = checkpointed.recovery.map_or(0.0, |r| {
        r.checkpoint_pages_shared as f64 / (r.checkpoint_pages_total as f64).max(1.0)
    });
    sums.set("sim.checkpoint.shared_ratio", shared);
    // Every variant computes the same bits as the default engine run for
    // the same number of steps.
    let differing = |a: &measure::SimOutcome, b: &measure::SimOutcome| {
        a.checksums.iter().zip(&b.checksums).filter(|(a, b)| a != b).count() as u64
    };
    let mismatches = differing(&serial, &traced.sim)
        + differing(&pool, &traced.sim)
        + [&no_fuse, &no_simd, &checkpointed, &verified]
            .iter()
            .map(|v| differing(v, &base))
            .sum::<u64>()
        + measure::check_bitwise(prepared, &traced.sim, ops);
    ops.check(mismatches == 0, || format!("{mismatches} variant states differ bitwise"));
    sums.set("sim.exec.bitwise_mismatches", mismatches as f64);

    let mut steps: Vec<f64> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "sim.exec.step")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    steps.sort_by(f64::total_cmp);
    sums.set("sim.exec.step_p50_us", percentile(&steps, 0.5));
    sums.set("sim.exec.step_p99_us", percentile(&steps, 0.99));

    // Checkpoint primitives, on each program's own arenas.
    let (mut capture, mut restore, mut checksums, mut pages) = (0.0, 0.0, 0.0, 0usize);
    for (i, p) in prepared.iter().enumerate() {
        let id = i as u32;
        let mut sim = plain.construct(&p.loaded);
        capture += timed_median(&mut tr, "sim.checkpoint.capture", id, reps, || sim.checkpoint());
        let anchor = sim.checkpoint();
        restore +=
            timed_median(&mut tr, "sim.checkpoint.restore", id, reps, || sim.restore(&anchor));
        pages += anchor.page_count();
        let mut arenas = vec![0.0f32; anchor.len()];
        anchor.restore_into(&mut arenas);
        let row_stride = (sim.linked().width as usize * sim.linked().arena_len).max(1);
        checksums += timed_median(&mut tr, "sim.checkpoint.row_checksums", id, reps, || {
            row_checksums(&arenas, row_stride)
        });
    }
    sums.set("sim.checkpoint.capture_ms", capture * 1e3);
    sums.set("sim.checkpoint.restore_ms", restore * 1e3);
    sums.set("sim.checkpoint.row_checksums_ms", checksums * 1e3);
    sums.set("sim.checkpoint.pages", pages as f64);

    // Recovery counters of the (traced) end-to-end engine; zero where the
    // workload injects no faults.
    let recovery = traced.sim.recovery.filter(|_| engine.faults).unwrap_or_default();
    let useful: f64 = traced
        .sim
        .per_case
        .iter()
        .zip(&traced.sim.steps)
        .map(|(samples, steps)| (samples.len() as i64 * steps) as f64)
        .sum();
    sums.set("sim.recovery.faults_injected", recovery.faults.total() as f64);
    sums.set("sim.recovery.rollbacks", recovery.rollbacks as f64);
    sums.set("sim.recovery.steps_replayed", recovery.steps_replayed as f64);
    sums.set("sim.recovery.replay_ratio", recovery.steps_replayed as f64 / useful.max(1.0));
    sums.set("sim.recovery.silent_divergences", traced.sim.silent_divergences as f64);

    // The plain single-threaded baseline of the same problem.
    let reference_seconds: f64 = prepared
        .iter()
        .enumerate()
        .map(|(i, p)| {
            // One repetition where the reference takes a noticeable time.
            let work = p.program.grid.points() * p.program.timesteps;
            let reps = if work > 1_000_000 { 1 } else { reps.min(3) };
            timed_median(&mut tr, "sim.reference.run", i as u32, reps, || {
                run_reference(&p.program, None)
            })
        })
        .sum();
    let reference_points: f64 =
        prepared.iter().map(|p| (p.program.grid.points() * p.program.timesteps) as f64).sum();
    sums.set("sim.reference_mpts", reference_points / reference_seconds / 1e6);
    sums.set("sim.ref_dev", f64::from(traced.max_deviation));

    let triad = triad_gbs(&mut tr, plan.smoke);
    let (points, flops, bytes) = (sums.0["points"], sums.0["flops"], sums.0["bytes"]);
    sums.set("host.triad_gbs", triad);
    sums.set("sim.kernels.flops_per_point", flops / points);
    sums.set("sim.kernels.bytes_per_point", bytes / points);
    sums.set("sim.kernels.ops_per_byte", flops / bytes);
    let achieved_gbs = traced.report["sim_mpts"].value * 1e6 * (bytes / points) / 1e9;
    sums.set("sim.kernels.bw_fraction", achieved_gbs / triad);

    gate_and_model(&traced, &mut sums);
    let hits = traced.service.hits as f64;
    sums.set("core.cache_hit_ratio", hits / (hits + traced.service.misses as f64).max(1.0));
    sums.set("core.service_retries", traced.service.retries as f64);

    tr.end(root);
    let wall = wall.elapsed().as_secs_f64();
    ops.check(tr.nests(), || "trace: a child span lies outside its parent".to_string());
    let self_total: f64 = tr.self_times().values().map(|(_, s)| s).sum();
    ops.check((self_total - wall).abs() <= 0.05 * wall, || {
        format!("trace: self times sum to {self_total:.3} s, wall is {wall:.3} s")
    });

    let mut report = Report::new();
    for (name, unit, _) in per_layer() {
        if let Some(value) = sums.0.get(&name) {
            let note = if name.starts_with("sim.kernels.") && !name.ends_with("bw_fraction") {
                "computed"
            } else if name.starts_with("sim.perf.") {
                "simulated time; unvalidated except a100_ratio and cpu_ratio"
            } else {
                ""
            };
            report.insert(name, Reported { value: *value, unit, note: note.to_string() });
        }
    }
    if let Err(e) = write_results(w, seed, &tr, &report, &traced, wall) {
        eprintln!("could not write the trace files: {e}");
    }
    report
}

fn gate_and_model(traced: &EndToEnd, sums: &mut Sums) {
    let (passes, counts) = &traced.gate;
    let stage =
        |pick: fn(&measure::GatePass) -> f64| median(&passes.iter().map(pick).collect::<Vec<_>>());
    sums.set("sim.link_validated_ms", stage(|p| p.validated_link) * 1e3);
    sums.set("analysis.lint_us", stage(|p| p.lint) * 1e6);
    sums.set("analysis.dag_us", stage(|p| p.dag) * 1e6);
    sums.set("analysis.race_us", stage(|p| p.race) * 1e6);
    sums.set("analysis.dag_nodes", counts.dag_nodes as f64);
    sums.set("analysis.dag_edges", counts.dag_edges as f64);
    sums.set("analysis.findings", counts.findings as f64);
    sums.set("sim.link.validated_passes", counts.validated_passes as f64);
    sums.set("sim.link.validator_rejections", counts.validator_rejections as f64);

    let model = &traced.model;
    sums.set("sim.perf.estimate_us", model.estimate_us);
    for (name, gpts) in
        ["jacobian", "diffusion", "seismic25", "uvkbe", "acoustic"].iter().zip(model.wse3_gpts)
    {
        sums.set(&format!("sim.perf.wse3_gpts.{name}"), gpts);
    }
    sums.set("sim.perf.wse3_over_wse2", model.wse3_over_wse2);
    sums.set("sim.perf.a100_ratio", model.a100_ratio);
    sums.set("sim.perf.cpu_ratio", model.cpu_ratio);
    sums.set("sim.perf.handwritten_speedup", model.handwritten_speedup);
}

/// Writes `trace-<workload>.json` (Chrome-trace events) and
/// `layers-<workload>.json` (host block, per-layer metrics, self time per
/// span name) into `wse-perf-results/` beside the binary.
fn write_results(
    w: &Workload,
    seed: u64,
    tr: &Tracer,
    report: &Report,
    traced: &EndToEnd,
    wall: f64,
) -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    let dir = exe.parent().unwrap_or(std::path::Path::new(".")).join("wse-perf-results");
    std::fs::create_dir_all(&dir)?;
    let host = host::host_json(w.name, seed);
    std::fs::write(dir.join(format!("trace-{}.json", w.name)), tr.chrome_json(&host))?;

    let metric = |(name, m): (&String, &Reported)| {
        format!("    \"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.value, m.unit)
    };
    let layers: Vec<String> = report.iter().map(metric).collect();
    let end_to_end: Vec<String> = traced.report.iter().map(metric).collect();
    let self_times: Vec<String> = tr
        .self_times()
        .iter()
        .map(|(name, (count, seconds))| {
            format!("    \"{name}\": {{\"spans\": {count}, \"self_s\": {seconds}}}")
        })
        .collect();
    let text = format!(
        "{{\n  \"host\": {host},\n  \"wall_s\": {wall},\n  \"end_to_end_traced\": {{\n{}\n  }},\n  \
         \"per_layer\": {{\n{}\n  }},\n  \"self_time\": {{\n{}\n  }}\n}}\n",
        end_to_end.join(",\n"),
        layers.join(",\n"),
        self_times.join(",\n")
    );
    std::fs::write(dir.join(format!("layers-{}.json", w.name)), text)
}
