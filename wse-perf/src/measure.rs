//! The end-to-end phases every workload runs, their oracles, and the
//! failure accounting.
//!
//! Every workload runs the same six phases over its own program set, with
//! the share of `--seconds` its purpose calls for (see
//! [`crate::workloads::Shares`]): set-up, cold compile, the compile
//! service, source-to-validated-state, the static gate, and timed engine
//! runs.  Each timed series is preceded by two untimed warm-up repetitions
//! (first-run medians read high without them) and takes at least
//! [`Plan::min_samples`] samples.

use std::time::{Duration, Instant};

use wse_analysis::{has_errors, Analyzer};
use wse_frontends::ast::StencilProgram;
use wse_sim::{
    checksum_f32, link_program_with, max_abs_difference, run_reference, FaultKind, FaultPlan,
    GridState, LinkMutation, LinkOptions, LinkedProgram, LoadedProgram, WseGridSim,
};

use wse_stencil::CompileService;

use crate::trace::Tracer;
use crate::workloads::{
    aliasing_witness, paper_scale, Case, Engine, SplitMix64, Workload, RECOVERY,
};

/// Deviation from the reference executor above which a run counts as
/// failed.
pub const TOLERANCE: f32 = 1e-3;

/// Requests per service epoch and program (one epoch = a fresh service, so
/// the cold misses are inside the measurement): 20 000 for `program_mix`'s
/// 48 programs, and in proportion for fewer, so the cold share of an epoch
/// is alike on every workload.
const SERVICE_REQUESTS_PER_PROGRAM: f64 = 20_000.0 / 48.0;

/// Sample-count floor and warm-ups; `--smoke` shrinks both.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub smoke: bool,
    pub min_samples: usize,
    pub warmups: usize,
    pub service_requests_per_program: f64,
}

impl Plan {
    pub fn new(smoke: bool) -> Self {
        if smoke {
            Plan { smoke, min_samples: 1, warmups: 0, service_requests_per_program: 8.0 }
        } else {
            Plan {
                smoke,
                min_samples: 15,
                warmups: 2,
                service_requests_per_program: SERVICE_REQUESTS_PER_PROGRAM,
            }
        }
    }
}

/// Operations attempted and failed, with the reasons.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.reasons.len() < 20 {
                self.reasons.push(what());
            }
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile with at least ten samples beyond it, if any.
pub fn high_percentile(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n < 20 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pct = (100 * (n - 10) / n) as u32;
    Some((pct, sorted[n - 11]))
}

/// Runs `sample(timed, index)` for the warm-ups, then until both the sample
/// floor and the time budget are met; returns what the timed samples gave.  A series whose samples
/// are long gives up on the floor once it has three samples and has used
/// twice its budget, so a secondary phase cannot take over the run.
fn series<T>(plan: Plan, budget: Duration, mut sample: impl FnMut(bool, usize) -> T) -> Vec<T> {
    for i in 0..plan.warmups {
        sample(false, i);
    }
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(sample(true, out.len()));
        let used = start.elapsed();
        let floor_met = out.len() >= plan.min_samples
            || (out.len() >= 3.min(plan.min_samples) && used >= 2 * budget);
        if floor_met && used >= budget {
            return out;
        }
    }
}

/// Everything about one case that is computed once, untimed, before the
/// phases: the oracle's reference state and the static gate's inputs.
pub struct Prepared {
    pub case: Case,
    pub program: StencilProgram,
    pub loaded: LoadedProgram,
    pub bytes_per_pe: u64,
    pub reference: GridState,
    pub gate_program: StencilProgram,
    pub gate_loaded: LoadedProgram,
    /// What the dynamic oracle says about this program's mutant (see
    /// [`mutant_differs`]).
    pub mutant_differs: bool,
}

fn state_checksum(state: &GridState) -> u64 {
    state.fields.iter().fold(0u64, |acc, f| acc.rotate_left(7) ^ checksum_f32(&f.data))
}

fn all_normal(state: &GridState) -> bool {
    state.fields.iter().all(|f| f.data.iter().all(|v| v.is_normal() || *v == 0.0))
}

fn final_state(loaded: &LoadedProgram, options: LinkOptions, steps: Option<i64>) -> GridState {
    let mut sim = WseGridSim::with_options(loaded.clone(), options).expect("program links");
    sim.set_threads(1);
    sim.run(steps).expect("fault-free run succeeds");
    sim.grid_state().expect("state extracts")
}

const UNOPTIMIZED: LinkOptions =
    LinkOptions { optimize: false, simd: false, fast_fma: false, validate: false, mutate: None };

/// The dynamic oracle for the mutant: true when the mutated, unvalidated
/// stream computes different bits from the unoptimized one.
fn mutant_differs(loaded: &LoadedProgram) -> bool {
    let mutated = LinkOptions {
        validate: false,
        mutate: Some(LinkMutation::DropAliasingCheck),
        ..LinkOptions::default()
    };
    state_checksum(&final_state(loaded, mutated, None))
        != state_checksum(&final_state(loaded, UNOPTIMIZED, None))
}

pub fn prepare(workload: &Workload, ops: &mut Ops) -> Vec<Prepared> {
    workload
        .cases
        .iter()
        .map(|case| {
            let program = case.build();
            let artifact = case.compiler().compile(&program);
            ops.check(artifact.is_ok(), || format!("{}: compile failed", case.name));
            let artifact = artifact.expect("workload programs compile");
            let gate_program = case.build_at(case.gate_grid(), 3);
            let gate_artifact =
                case.compiler().compile(&gate_program).expect("gate programs compile");
            let gate_loaded = gate_artifact.loaded_program().clone();
            let mutant_differs = mutant_differs(&gate_loaded);
            Prepared {
                case: case.clone(),
                reference: run_reference(&program, None),
                loaded: artifact.loaded_program().clone(),
                bytes_per_pe: artifact.bytes_per_pe(),
                program,
                gate_program,
                gate_loaded,
                mutant_differs,
            }
        })
        .collect()
}

/// `setup_s`: fresh repetitions of source -> front-end -> compile -> load
/// -> link -> plan -> construct -> first step, over every case.
pub fn phase_setup(w: &Workload, plan: Plan, budget: Duration, tr: &mut Tracer) -> Vec<f64> {
    let engine = w.engine;
    series(plan, budget, |timed, rep| {
        let open = if timed { tr.begin("setup", rep as u32) } else { tr.begin("warmup", 0) };
        let start = Instant::now();
        for (i, case) in w.cases.iter().enumerate() {
            let i = i as u32;
            let (program, _) = tr.timed("frontends.build", i, || case.build());
            let (artifact, _) = tr.timed("core.compile", i, || case.compiler().compile(&program));
            let artifact = artifact.expect("workload programs compile");
            let (mut sim, _) =
                tr.timed("sim.exec.construct", i, || engine.construct(artifact.loaded_program()));
            // `run(1)` rather than `run_timestep()` so a recovering engine
            // takes its anchor checkpoint inside the measurement.
            let (stepped, _) = tr.timed("sim.exec.first_step", i, || sim.run(Some(1)));
            stepped.expect("first step succeeds");
            std::hint::black_box(&sim);
        }
        let seconds = start.elapsed().as_secs_f64();
        tr.end(open);
        seconds
    })
}

/// `compile_ms`: cold `Compiler::compile` of every case, per-case median.
pub fn phase_compile(
    prepared: &[Prepared],
    plan: Plan,
    budget: Duration,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> Vec<Vec<f64>> {
    let mut per_case: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    series(plan, budget, |timed, round| {
        let open = tr.begin(if timed { "compile.round" } else { "warmup" }, round as u32);
        for (i, p) in prepared.iter().enumerate() {
            let (artifact, seconds) =
                tr.timed("core.compile", i as u32, || p.case.compiler().compile(&p.program));
            if timed {
                ops.check(artifact.is_ok(), || format!("{}: compile failed", p.case.name));
                per_case[i].push(seconds);
            }
            std::hint::black_box(&artifact);
        }
        tr.end(open);
    });
    per_case
}

/// The seeded request order of one service epoch: Zipf(1) popularity over
/// the cases in their fixed order (so the work per epoch is the same for
/// every seed), drawn in a seeded sequence.
fn zipf_requests(cases: usize, count: usize, seed: u64) -> Vec<usize> {
    let weights: Vec<f64> = (0..cases).map(|rank| 1.0 / (rank + 1) as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut rng = SplitMix64::new(seed ^ 0x7a69_7066);
    (0..count)
        .map(|_| {
            let mut draw = rng.unit() * total;
            weights
                .iter()
                .position(|w| {
                    draw -= w;
                    draw < 0.0
                })
                .unwrap_or(cases - 1)
        })
        .collect()
}

/// What the compile service reported over the timed epochs.
#[derive(Debug, Default)]
pub struct ServiceOutcome {
    pub epoch_rates: Vec<f64>,
    pub requests_per_epoch: usize,
    pub hits: u64,
    pub misses: u64,
    pub retries: u64,
}

/// `service_per_s`: closed loop, one client; each epoch is a fresh
/// `CompileService` serving the request sequence.
pub fn phase_service(
    prepared: &[Prepared],
    seed: u64,
    plan: Plan,
    budget: Duration,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> ServiceOutcome {
    // Popularity rank -> case: a stride through the case list, so the
    // popular head mixes program sizes instead of following declaration
    // order (7 is coprime to every workload's case count: 1, 5 and 48).
    let order: Vec<usize> = (0..prepared.len()).map(|i| (i * 7) % prepared.len()).collect();
    let count = (plan.service_requests_per_program * prepared.len() as f64).ceil() as usize;
    let requests = zipf_requests(prepared.len(), count, seed);
    let mut outcome = ServiceOutcome::default();
    let rates = series(long_samples(plan), budget, |timed, epoch| {
        let open = tr.begin(if timed { "service.epoch" } else { "warmup" }, epoch as u32);
        // A service is built around one compiler configuration, so each
        // request goes to the service for its case's options.
        let mut services: Vec<CompileService> = Vec::new();
        let route: Vec<usize> = prepared
            .iter()
            .map(|p| {
                let compiler = p.case.compiler();
                let at = services.iter().position(|s| s.compiler().options() == compiler.options());
                at.unwrap_or_else(|| {
                    services.push(compiler.service());
                    services.len() - 1
                })
            })
            .collect();
        let start = Instant::now();
        let mut failed = 0u64;
        for (n, &rank) in requests.iter().enumerate() {
            let i = order[rank];
            let request = || services[route[i]].compile(&prepared[i].program);
            // Traced: a span for every 64th request keeps the trace small.
            let result = if tr.on() && n % 64 == 0 {
                tr.timed("core.service.request", i as u32, request).0
            } else {
                request()
            };
            failed += u64::from(result.is_err());
        }
        let seconds = start.elapsed().as_secs_f64();
        if timed {
            ops.check(failed == 0, || format!("service: {failed} requests failed"));
            for service in &services {
                let stats = service.stats();
                outcome.hits += stats.cache_hits;
                outcome.misses += stats.cache_misses;
                outcome.retries += stats.retries_spent;
            }
        }
        tr.end(open);
        requests.len() as f64 / seconds
    });
    outcome.epoch_rates = rates;
    outcome.requests_per_epoch = requests.len();
    outcome
}

/// Service epochs and gate passes can take tenths of a second each, so
/// their floor is five samples rather than fifteen.
fn long_samples(plan: Plan) -> Plan {
    Plan { min_samples: plan.min_samples.min(5), warmups: plan.warmups.min(1), ..plan }
}

/// Per-case timings of the validated path and the worst deviation seen.
pub struct ValidatedOutcome {
    pub per_case: Vec<Vec<f64>>,
    pub max_deviation: f32,
}

/// `validated_ms`: source -> compile -> construct -> `run(None)` ->
/// `grid_state` -> compare against the reference state (whose own run is
/// outside the timed region), per-case median.
pub fn phase_validated(
    w: &Workload,
    prepared: &[Prepared],
    plan: Plan,
    budget: Duration,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> ValidatedOutcome {
    let mut per_case: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut max_deviation = 0f32;
    let plain = Engine { recovery: None, faults: false, ..w.engine };
    series(plan, budget, |timed, round| {
        let open = tr.begin(if timed { "validated.round" } else { "warmup" }, round as u32);
        for (i, p) in prepared.iter().enumerate() {
            let id = i as u32;
            let case_open = tr.begin("validated.case", id);
            let start = Instant::now();
            let (program, _) = tr.timed("frontends.build", id, || p.case.build());
            let (artifact, _) =
                tr.timed("core.compile", id, || p.case.compiler().compile(&program));
            let artifact = artifact.expect("workload programs compile");
            let (mut sim, _) =
                tr.timed("sim.exec.construct", id, || plain.construct(artifact.loaded_program()));
            let (ran, _) = tr.timed("sim.exec.run", id, || sim.run(None));
            let (state, _) = tr.timed("sim.exec.extract", id, || sim.grid_state());
            let deviation = match (&ran, &state) {
                (Ok(()), Ok(state)) => {
                    tr.timed("sim.reference.compare", id, || {
                        max_abs_difference(state, &p.reference)
                    })
                    .0
                }
                _ => f32::INFINITY,
            };
            let seconds = start.elapsed().as_secs_f64();
            tr.end(case_open);
            if timed {
                ops.check(deviation <= TOLERANCE, || {
                    format!("{}: deviation {deviation:e} from run_reference", p.case.name)
                });
                per_case[i].push(seconds);
                max_deviation = max_deviation.max(deviation);
            }
        }
        tr.end(open);
    });
    ValidatedOutcome { per_case, max_deviation }
}

/// Counts the gate reports besides its time.
#[derive(Debug, Default, Clone, Copy)]
pub struct GateCounts {
    pub findings: u64,
    pub dag_nodes: u64,
    pub dag_edges: u64,
    pub validated_passes: u64,
    pub validator_rejections: u64,
}

/// Per-stage seconds of one gate pass, summed over the cases.
#[derive(Debug, Default, Clone, Copy)]
pub struct GatePass {
    pub total: f64,
    pub lint: f64,
    pub validated_link: f64,
    pub dag: f64,
    pub race: f64,
    pub mutant_link: f64,
}

pub const VALIDATED: LinkOptions =
    LinkOptions { optimize: true, simd: true, fast_fma: false, validate: true, mutate: None };

/// `verdict_s`: one full gate pass.  For every program: lint, validated
/// link, dependence DAG and race check of the clean program, then a
/// validated link of the `DropAliasingCheck` mutant; finally the known-bad
/// witness stream, clean and mutated.  Known answers: clean means no
/// `E`-code and no validator rejection; a mutant must be rejected whenever
/// the dynamic oracle says its bits differ.
pub fn phase_gate(
    prepared: &[Prepared],
    plan: Plan,
    budget: Duration,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> (Vec<GatePass>, GateCounts) {
    let analyzer = Analyzer::new();
    let mutant = LinkOptions { mutate: Some(LinkMutation::DropAliasingCheck), ..VALIDATED };
    let witness = aliasing_witness();
    let witness_differs = mutant_differs(&witness);
    ops.check(witness_differs, || "witness: the mutant must change the computed bits".to_string());
    let mut counts = GateCounts::default();
    let passes = series(long_samples(plan), budget, |timed, n| {
        let open = tr.begin(if timed { "gate.pass" } else { "warmup" }, n as u32);
        let mut pass = GatePass::default();
        let mut pass_counts = GateCounts::default();
        let start = Instant::now();
        for (i, p) in prepared.iter().enumerate() {
            let id = i as u32;
            let (lint, t) = tr.timed("analysis.lint", id, || analyzer.lint(&p.gate_program));
            pass.lint += t;
            let (linked, t) = tr
                .timed("sim.link.validated", id, || link_program_with(&p.gate_loaded, &VALIDATED));
            pass.validated_link += t;
            let linked = linked.expect("gate programs link");
            let (graph, t) =
                tr.timed("analysis.dag", id, || analyzer.dependence_graph(&linked).counts());
            pass.dag += t;
            let (race, t) = tr.timed("analysis.race", id, || analyzer.check_stream(&linked));
            pass.race += t;
            let (mutated, t) =
                tr.timed("sim.link.mutant", id, || link_program_with(&p.gate_loaded, &mutant));
            pass.mutant_link += t;
            let rejected = mutated.map_or(true, |m| m.stats().validator_rejections > 0);
            if timed {
                let name = &p.case.name;
                ops.check(!has_errors(&lint) && !has_errors(&race), || {
                    format!("{name}: gate reported an E-code on a clean program")
                });
                ops.check(linked.stats().validator_rejections == 0, || {
                    format!("{name}: validator rejected a clean link")
                });
                ops.check(rejected || !p.mutant_differs, || {
                    format!("{name}: divergent mutant passed the validator")
                });
            }
            pass_counts.findings += (lint.len() + race.len()) as u64;
            pass_counts.dag_nodes += graph.nodes as u64;
            pass_counts.dag_edges += graph.edges() as u64;
            pass_counts.validated_passes += linked.stats().validated_passes as u64;
            pass_counts.validator_rejections += linked.stats().validator_rejections as u64;
        }
        let (clean, t) =
            tr.timed("sim.link.validated", u32::MAX, || link_program_with(&witness, &VALIDATED));
        pass.validated_link += t;
        let (mutated, t) =
            tr.timed("sim.link.mutant", u32::MAX, || link_program_with(&witness, &mutant));
        pass.mutant_link += t;
        if timed {
            ops.check(clean.is_ok_and(|l| l.stats().validator_rejections == 0), || {
                "witness: validator rejected the clean link".to_string()
            });
            ops.check(mutated.map_or(true, |m| m.stats().validator_rejections > 0), || {
                "witness: divergent mutant passed the validator".to_string()
            });
        }
        pass.total = start.elapsed().as_secs_f64();
        tr.end(open);
        counts = pass_counts;
        pass
    });
    (passes, counts)
}

/// The fault schedule of sample `n`: exactly one transient fault (a rate of
/// 0.004 per step over 256 steps) of a seeded kind and place, in a seeded
/// checkpoint interval.  A fixed count per sample, rather than
/// `FaultOptions`' per-step coin, and a position inside the interval that
/// cycles with `n` (so the replay lengths of a run cover the interval
/// evenly) keep the replayed work alike across seeds.  Band stalls are left
/// out: each one ends in a watchdog quarantine that leaks the arenas by
/// design, so `peak_rss_mb` would measure how many stalls the seed drew.
fn fault_plan(linked: &LinkedProgram, steps: i64, seed: u64, n: usize) -> FaultPlan {
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9).wrapping_add(n as u64));
    let mut below = |n: usize| (rng.next_u64() % n.max(1) as u64) as usize;
    let n_pes = (linked.width * linked.height) as usize;
    let capturing: Vec<(usize, usize)> = linked
        .kernels
        .iter()
        .enumerate()
        .filter_map(|(k, kernel)| {
            let comm = kernel.comm.as_ref().filter(|c| c.capture && !c.snap_fields.is_empty())?;
            Some((k, comm.snap_fields.len()))
        })
        .collect();
    let every = RECOVERY.checkpoint_every;
    // 25 is coprime to the interval, so `n` walks through every position.
    let position = (n as i64 * 25 + (seed % 64) as i64) % every;
    let step = (below((steps / every).max(1) as usize) as i64 * every + position).min(steps - 1);
    let kind = match below(100) {
        roll if roll < 25 && !capturing.is_empty() => {
            let (kernel, fields) = capturing[below(capturing.len())];
            let (pe, field) = (below(n_pes), below(fields));
            if roll < 15 {
                FaultKind::DropDelivery { kernel, pe, field }
            } else {
                FaultKind::DuplicateDelivery { kernel, pe, field }
            }
        }
        roll if roll < 45 => {
            FaultKind::BandPanic { kernel: below(linked.kernels.len()), band: below(64) }
        }
        _ => FaultKind::ArenaBitFlip {
            pe: below(n_pes),
            offset: below(linked.arena_len),
            bit: below(32) as u32,
        },
    };
    FaultPlan::from_events(vec![(step, kind)])
}

/// What the timed engine runs produced.
pub struct SimOutcome {
    /// Seconds inside `run()` per sample, per case.
    pub per_case: Vec<Vec<f64>>,
    /// Useful steps per sample, per case.
    pub steps: Vec<i64>,
    /// Checksum of the final state, per case (identical across samples, or
    /// the run counted a failure).
    pub checksums: Vec<u64>,
    pub recovery: Option<wse_sim::RecoveryStats>,
    pub silent_divergences: u64,
}

impl SimOutcome {
    /// Useful grid points x steps / seconds inside `run()`, from the
    /// per-case median sample.
    pub fn mpts(&self, prepared: &[Prepared]) -> f64 {
        let points: f64 = prepared
            .iter()
            .zip(&self.steps)
            .map(|(p, steps)| p.program.grid.points() as f64 * *steps as f64)
            .sum();
        let seconds: f64 = self.per_case.iter().map(|s| median(s)).sum();
        points / seconds / 1e6
    }
}

/// `sim_mpts`: every sample restores the step-0 checkpoint (restore is
/// outside the timed region) and times `run(steps)`.  With faults on, each
/// sample draws its own fault from the seed; replays cost time, not points,
/// and the final state must still equal the fault-free one.
pub fn phase_sim(
    engine: Engine,
    prepared: &[Prepared],
    seed: u64,
    plan: Plan,
    budget: Duration,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> SimOutcome {
    let steps: Vec<i64> = prepared
        .iter()
        .map(|p| if engine.steps > 0 { engine.steps } else { p.program.timesteps })
        .collect();
    let mut sims: Vec<WseGridSim> = prepared.iter().map(|p| engine.construct(&p.loaded)).collect();
    let anchors: Vec<_> = sims.iter().map(WseGridSim::checkpoint).collect();
    let mut per_case: Vec<Vec<f64>> = vec![Vec::new(); prepared.len()];
    let mut checksums: Vec<Option<u64>> = vec![None; prepared.len()];
    let mut silent = 0u64;
    series(plan, budget, |timed, n| {
        let open = tr.begin(if timed { "sim.sample" } else { "warmup" }, n as u32);
        for (i, sim) in sims.iter_mut().enumerate() {
            let id = i as u32;
            tr.timed("sim.checkpoint.restore", id, || sim.restore(&anchors[i]))
                .0
                .expect("anchor restores");
            if engine.faults {
                sim.set_fault_plan(fault_plan(sim.linked(), steps[i], seed, n));
            }
            let (ran, seconds) = if tr.on() && engine.recovery.is_none() {
                // Traced: one span per step, so self time splits by step.
                let run_open = tr.begin("sim.exec.run", id);
                let start = Instant::now();
                let mut ran = Ok(());
                for _ in 0..steps[i] {
                    ran = tr.timed("sim.exec.step", id, || sim.run_timestep()).0;
                    if ran.is_err() {
                        break;
                    }
                }
                let seconds = start.elapsed().as_secs_f64();
                tr.end(run_open);
                (ran, seconds)
            } else {
                tr.timed("sim.exec.run", id, || sim.run(Some(steps[i])))
            };
            let sum = ran.as_ref().ok().and_then(|()| sim.grid_state().ok());
            let sum = sum.as_ref().map(state_checksum);
            let name = &prepared[i].case.name;
            if timed {
                ops.check(ran.is_ok(), || format!("{name}: run failed: {:?}", ran));
                let first = *checksums[i].get_or_insert(sum.unwrap_or(0));
                let same = sum == Some(first);
                ops.check(same, || format!("{name}: final state differs between samples"));
                silent += u64::from(engine.faults && !same);
                per_case[i].push(seconds);
            }
        }
        tr.end(open);
    });
    let recovery = sims.first().and_then(|s| s.recovery_stats().copied());
    SimOutcome {
        per_case,
        steps,
        checksums: checksums.into_iter().map(|c| c.unwrap_or(0)).collect(),
        recovery,
        silent_divergences: silent,
    }
}

/// The bitwise oracle: the optimized engine's final state after the
/// sampled step count must equal the `optimize:false, simd:false` stream's,
/// be finite and normal, and the 8-step state must sit within
/// [`TOLERANCE`] of the reference executor (checked in the validated
/// phase).  Runs after the timed phases so its second engine does not
/// count towards `peak_rss_mb`.
pub fn check_bitwise(prepared: &[Prepared], outcome: &SimOutcome, ops: &mut Ops) -> u64 {
    let mut mismatches = 0;
    for ((p, steps), checksum) in prepared.iter().zip(&outcome.steps).zip(&outcome.checksums) {
        let state = final_state(&p.loaded, UNOPTIMIZED, Some(*steps));
        let name = &p.case.name;
        let equal = state_checksum(&state) == *checksum;
        mismatches += u64::from(!equal);
        ops.check(equal, || format!("{name}: optimized state differs from the unoptimized stream"));
        ops.check(all_normal(&state), || {
            format!("{name}: non-finite or subnormal value after {steps} steps")
        });
    }
    mismatches
}

/// The `perf.rs` model against the two ratios the abstract publishes.
pub struct ModelCheck {
    pub a100_ratio: f64,
    pub cpu_ratio: f64,
    pub model_err: f64,
    /// WSE3 GPts/s of the five paper programs at paper scale, in
    /// [`paper_scale`] order.
    pub wse3_gpts: [f64; 5],
    pub wse3_over_wse2: f64,
    pub handwritten_speedup: f64,
    pub estimate_us: f64,
}

/// The abstract: WSE3 ~14x 128 A100s and ~20x 128 CPU nodes on acoustic.
const PAPER_A100_RATIO: f64 = 14.0;
const PAPER_CPU_RATIO: f64 = 20.0;

pub fn model_check(tr: &mut Tracer, ops: &mut Ops) -> ModelCheck {
    use wse_lowering::WseTarget;
    use wse_sim::baselines::{
        a100_cluster_acoustic_gpts, cpu_cluster_acoustic_gpts, handwritten_seismic_estimate,
    };
    let open = tr.begin("sim.perf", 0);
    let mut wse3_gpts = [0.0; 5];
    let mut wse2_gpts = [0.0; 5];
    let mut estimate_s = Vec::new();
    for (i, case) in paper_scale().iter().enumerate() {
        let program = case.build();
        for (target, out) in [(WseTarget::Wse3, &mut wse3_gpts), (WseTarget::Wse2, &mut wse2_gpts)]
        {
            let artifact =
                wse_stencil::Compiler::new().target(target).num_chunks(2).compile(&program);
            ops.check(artifact.is_ok(), || format!("{}: paper-scale compile failed", case.name));
            let artifact = artifact.expect("paper programs compile");
            let (estimate, seconds) =
                tr.timed("sim.perf.estimate", i as u32, || artifact.estimate());
            estimate_s.push(seconds);
            out[i] = estimate.gpts_per_sec;
        }
    }
    tr.end(open);
    let acoustic = wse3_gpts[4];
    let a100_ratio = acoustic / a100_cluster_acoustic_gpts();
    let cpu_ratio = acoustic / cpu_cluster_acoustic_gpts();
    let err = |model: f64, paper: f64| (model - paper).abs() / paper;
    let seismic = paper_scale()[2].build();
    let handwritten = handwritten_seismic_estimate(
        &wse_sim::WseGeneration::Wse2.machine(),
        (seismic.grid.x, seismic.grid.y, seismic.grid.z),
        seismic.timesteps,
        seismic.flops_per_point(),
    );
    ModelCheck {
        a100_ratio,
        cpu_ratio,
        model_err: err(a100_ratio, PAPER_A100_RATIO).max(err(cpu_ratio, PAPER_CPU_RATIO)),
        wse3_gpts,
        wse3_over_wse2: wse3_gpts[0] / wse2_gpts[0],
        handwritten_speedup: wse2_gpts[2] / handwritten.gpts_per_sec,
        estimate_us: median(&estimate_s) * 1e6,
    }
}
