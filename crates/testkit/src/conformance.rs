//! The differential conformance driver.
//!
//! A case passes when the full pipeline (with `verify_each` enabled)
//! either compiles the program and all executions agree — every stream of
//! the linked flat-memory engine ([`wse_sim::WseGridSim`]: optimizer on
//! and off, vector and scalar kernels, one row band and three), the
//! legacy string-keyed interpreter ([`wse_sim::InterpGridSim`]) and the
//! sequential reference executor ([`wse_sim::run_reference`]) — or
//! rejects it with a typed diagnostic.  Engine agreement is bitwise: the
//! interpreter executes the same loaded instruction stream, and the
//! optimizer (fused sweeps, copy folding, staging/snapshot elision), the
//! SIMD kernels and the band split are required to preserve results bit
//! for bit.  Every seed runs every stream — there is no per-process mode
//! and nothing in the environment selects one.  Reference agreement is
//! within a tolerance (instruction scheduling reassociates the float
//! reductions): the flat [`TOLERANCE`] by default, or a per-shape bound
//! ([`shape_tolerance`]) in the soak profile.
//!
//! Panics anywhere in the pipeline are caught and reported as
//! [`Verdict::Panicked`]: a panic is always a conformance failure, even
//! for invalid input — every rejection must be a typed error.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex, OnceLock};

use wse_frontends::ast::StencilProgram;
use wse_sim::{
    max_abs_difference, run_reference, ExecError, ExecErrorKind, FaultOptions, GridState,
    InterpGridSim, LinkOptions, LoadedProgram, OptStats, RecoveryOptions, RecoveryStats,
    WseGridSim, INJECTED_BAND_PANIC,
};
use wse_stencil::{CompileService, Compiler, CslArtifact, PipelineOptions};

use crate::generate::ConformanceCase;

/// Maximum absolute deviation tolerated between the simulated PE grid and
/// the sequential reference executor.
pub const TOLERANCE: f32 = 1e-3;

/// The outcome of one conformance case.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Compiled and all executors agreed.
    Pass {
        /// Maximum absolute deviation of the linked engine from the
        /// reference executor.
        deviation: f32,
    },
    /// The pipeline rejected the program with a typed diagnostic — an
    /// acceptable outcome (the diagnostic is carried for reporting).
    Rejected {
        /// Pipeline stage that rejected the program.
        stage: String,
        /// The diagnostic message.
        message: String,
        /// Stable machine-readable rejection code when the stage attached
        /// one (e.g. `"non-linear"`); harnesses classify on this instead
        /// of string-matching `message`.
        code: Option<String>,
    },
    /// Executors disagreed: the pipeline miscompiled the program.
    Mismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The compiler accepted the program but an executor then failed on
    /// the artifact (link, run, or state extraction).  Unlike
    /// [`Verdict::Rejected`] this is a conformance *failure*: a compiled
    /// artifact the pipeline's own simulators cannot execute is a
    /// pipeline defect, not a typed rejection of the input.
    EngineFailure {
        /// Which executor stage failed.
        stage: String,
        /// The executor's error message.
        message: String,
    },
    /// Something panicked — never acceptable.
    Panicked {
        /// The captured panic payload.
        detail: String,
    },
}

impl Verdict {
    /// True for outcomes that satisfy conformance (pass or typed reject).
    pub fn is_conformant(&self) -> bool {
        matches!(self, Verdict::Pass { .. } | Verdict::Rejected { .. })
    }
}

std::thread_local! {
    /// Whether the current thread is inside a `run_case` pipeline call.
    static CAPTURING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// The most recent panic payload captured on this thread.
    static LAST_PANIC: std::cell::RefCell<Option<String>> = const { std::cell::RefCell::new(None) };
}

/// Installs a panic hook that, *only while a [`run_case`] or
/// [`run_fault_case`] pipeline call is executing on the panicking thread*
/// (see `capture_panics`), records the panic message
/// (with location) instead of printing it.  Panics from anywhere else —
/// including failing test assertions in binaries that use this crate —
/// are forwarded to the previously installed hook, so normal diagnostics
/// stay visible.  Idempotent; [`run_case`] installs it automatically.
pub fn install_quiet_panic_hook() {
    use std::sync::Once;
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            // Deliberately injected faults (engine band panics, compile
            // service chaos panics) unwind on worker threads and are
            // caught by their respective isolation boundaries; they are
            // part of the fault campaign, not diagnostics worth printing.
            if message.contains(INJECTED_BAND_PANIC)
                || message.contains(wse_stencil::INJECTED_COMPILE_PANIC)
            {
                return;
            }
            if !CAPTURING.with(|c| c.get()) {
                previous(info);
                return;
            }
            let location = info.location().map(|l| format!(" at {l}")).unwrap_or_default();
            LAST_PANIC.with(|p| *p.borrow_mut() = Some(format!("{message}{location}")));
        }));
    });
}

/// Runs `body` with this thread's panics captured instead of printed:
/// `Err` carries the panic message (with its location when the hook saw
/// it).
fn capture_panics<T>(body: impl FnOnce() -> T) -> Result<T, String> {
    install_quiet_panic_hook();
    CAPTURING.with(|c| c.set(true));
    let result = catch_unwind(AssertUnwindSafe(body));
    CAPTURING.with(|c| c.set(false));
    result.map_err(|payload| {
        LAST_PANIC
            .with(|p| p.borrow_mut().take())
            .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".to_string())
    })
}

/// Runs one case through the full pipeline and all executions, with the
/// default flat [`TOLERANCE`] against the reference executor.
pub fn run_case(case: &ConformanceCase) -> Verdict {
    run_case_with_tolerance_via(case, TOLERANCE, false)
}

/// A per-shape error bound for the reference comparison, used by the soak
/// profile instead of the flat [`TOLERANCE`].
///
/// The simulated engines and the sequential reference reassociate the
/// same f32 linear combination, so the worst-case divergence grows with
/// the reduction width (terms per equation) and the number of timesteps
/// the rounding differences can compound over.  The bound scales with
/// `√terms · timesteps` on top of a couple of ulps of the O(1) field
/// values, floored well above the ~1e-7 worst case observed across 8000
/// default-profile seeds and capped at the flat CI tolerance.
pub fn shape_tolerance(program: &StencilProgram) -> f32 {
    let max_terms =
        program.equations.iter().map(|e| e.num_points().max(1)).max().unwrap_or(1) as f32;
    let steps = program.timesteps.max(1) as f32;
    (1e-6 * max_terms.sqrt() * steps).clamp(5e-6, TOLERANCE)
}

/// [`run_case`] with an explicit reference tolerance (the soak profile
/// passes [`shape_tolerance`] instead of the flat default), optionally
/// compiling through a shared [`CompileService`] (pooled contexts +
/// artifact cache) instead of a per-case [`Compiler`].  The conformance
/// bin's `--service` flag drives this: every verdict must be identical
/// through either path, which gates the service redesign on the same
/// differential evidence as the pipeline itself.
pub fn run_case_with_tolerance_via(
    case: &ConformanceCase,
    tolerance: f32,
    through_service: bool,
) -> Verdict {
    capture_panics(|| run_case_inner(case, tolerance, through_service))
        .unwrap_or_else(|detail| Verdict::Panicked { detail })
}

/// One shared [`CompileService`] per distinct option set, so `--service`
/// runs exercise the pooled-context and artifact-cache paths across many
/// cases the way a long-lived server would.
fn shared_service(compiler: &Compiler) -> Arc<CompileService> {
    static SERVICES: OnceLock<Mutex<HashMap<PipelineOptions, Arc<CompileService>>>> =
        OnceLock::new();
    let services = SERVICES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut services = services.lock().unwrap();
    Arc::clone(
        services.entry(*compiler.options()).or_insert_with(|| Arc::new((*compiler).service())),
    )
}

fn run_case_inner(case: &ConformanceCase, tolerance: f32, through_service: bool) -> Verdict {
    let compiler = Compiler::new()
        .target(case.options.target)
        .num_chunks(case.options.num_chunks)
        .fmac_fusion(case.options.enable_fmac_fusion)
        .inlining(case.options.enable_inlining)
        .coefficient_promotion(case.options.promote_coefficients)
        .verify_each(true);
    let compiled: Result<Arc<CslArtifact>, wse_stencil::CompileError> = if through_service {
        shared_service(&compiler).compile(&case.program)
    } else {
        compiler.compile(&case.program).map(Arc::new)
    };
    let artifact = match compiled {
        Ok(artifact) => artifact,
        Err(e) => {
            // The service isolates mid-pipeline panics into typed
            // `internal-panic` errors; for conformance purposes a panic is
            // still a panic, whichever compile path caught it.
            if e.code() == Some("internal-panic") {
                return Verdict::Panicked { detail: e.message().to_string() };
            }
            return Verdict::Rejected {
                stage: e.stage().to_string(),
                message: e.message().to_string(),
                code: e.code().map(str::to_string),
            };
        }
    };

    // From here on the compiler has accepted the program: any executor
    // failure on its own artifact is a conformance failure, not a typed
    // rejection of the input.

    // Front-end lint cross-check: the lint error codes (`E00x`) model
    // exactly the program classes the pipeline rejects, so a program the
    // compiler just *accepted* must carry no error-severity lint finding.
    // A divergence is an analyzer or pipeline bug, whichever side is
    // wrong.
    let lint = wse_analysis::Analyzer::new().lint(&case.program);
    if let Some(first) = lint.iter().find(|f| f.severity == wse_analysis::Severity::Error) {
        return Verdict::EngineFailure {
            stage: "lint-crosscheck".into(),
            message: format!("compiler accepted a program the linter rejects: {first}"),
        };
    }

    let loaded = artifact.loaded_program();
    let failure = |suffix: &str, (stage, error): StageError| Verdict::EngineFailure {
        stage: format!("{stage}{suffix}"),
        message: error.message,
    };

    // The primary stream: optimized, vector kernels, one row band, with the
    // translation validator on.  A validated stream with no rejection is
    // instruction for instruction the stream a release build links with
    // `LinkOptions::default()`, so the bits checked below are the users'.
    let base =
        LinkOptions { optimize: true, simd: true, fast_fma: false, validate: false, mutate: None };
    let mut linked = match link_stream(loaded, LinkOptions { validate: true, ..base }, Some(1)) {
        Ok(sim) => sim,
        Err(e) => return failure("", e),
    };

    // Static gates, before any execution.  A validator rejection means an
    // optimizer pass changed observable dataflow — the stream that runs is
    // the reverted (correct) one, but the pass itself is broken, and that
    // must fail the seed rather than be silently papered over.  Likewise
    // the static race detector must find no error-severity hazard in the
    // stream the optimizer produced.
    let stats = linked.linked().stats();
    if stats.validator_rejections > 0 {
        return Verdict::EngineFailure {
            stage: "validate-link".into(),
            message: format!(
                "translation validator rejected optimizer pass(es) {:?} (E201)",
                stats.rejected_passes
            ),
        };
    }
    let races: Vec<_> = wse_analysis::Analyzer::new()
        .check_stream(linked.linked())
        .into_iter()
        .filter(|f| f.severity == wse_analysis::Severity::Error)
        .collect();
    if let Some(first) = races.first() {
        return Verdict::EngineFailure {
            stage: "race-detect".into(),
            message: format!("{} static race finding(s); first: {first}", races.len()),
        };
    }
    let linked_state = match run_linked(&mut linked) {
        Ok(state) => state,
        Err(e) => return failure("", e),
    };

    // The link-time optimizer, the SIMD kernels and the banded commit
    // wavefront must each be bitwise-transparent, so every seed reruns the
    // same loaded program on every other exact stream and requires the
    // primary's bits.  (Generator grids sit below the engine's parallel
    // work threshold; three bands are forced to reach the pool.)
    let unoptimized = LinkOptions { optimize: false, ..base };
    let scalar = LinkOptions { simd: false, ..base };
    let cross_streams = [
        ("-unopt", "optimized vs unoptimized stream", unoptimized, 1),
        (
            "-unopt-scalar",
            "optimized vs unoptimized scalar stream",
            LinkOptions { simd: false, ..unoptimized },
            1,
        ),
        ("-scalar", "simd vs scalar kernel streams", scalar, 1),
        ("-simd", "simd serial vs scalar three-band kernel streams", scalar, 3),
        ("-bands", "simd serial vs simd three-band kernel streams", base, 3),
    ];
    for (suffix, what, options, threads) in cross_streams {
        match run_stream(loaded, options, Some(threads)) {
            Ok(state) => {
                if let Some(detail) = bitwise_difference(&linked_state, &state) {
                    return Verdict::Mismatch { detail: format!("{what} (bitwise): {detail}") };
                }
            }
            Err(e) => return failure(suffix, e),
        }
    }

    let mut interp = InterpGridSim::new(loaded.clone());
    if let Err(e) = interp.run(None) {
        return Verdict::EngineFailure { stage: "interp".into(), message: e.message };
    }
    if let Some(detail) = bitwise_difference(&linked_state, &interp.grid_state()) {
        return Verdict::Mismatch { detail: format!("linked vs interp (bitwise): {detail}") };
    }

    // The opt-in fast-FMA stream: contracted multiply-adds change rounding,
    // so it is validated through the reference *tolerance* path, never
    // bitwise.
    let fma_state = match run_stream(loaded, LinkOptions { fast_fma: true, ..base }, Some(1)) {
        Ok(state) => state,
        Err(e) => return failure("-fma", e),
    };
    let reference = run_reference(&case.program, None);
    let deviation = max_abs_difference(&linked_state, &reference);
    let fma_deviation = max_abs_difference(&fma_state, &reference);
    for (name, deviation) in [("linked", deviation), ("fast-FMA", fma_deviation)] {
        if !deviation.is_finite() || deviation > tolerance {
            return Verdict::Mismatch {
                detail: format!(
                    "{name} vs reference: max |Δ| = {deviation} (tolerance {tolerance})"
                ),
            };
        }
    }
    Verdict::Pass { deviation }
}

/// Which step of an engine stream failed (`"link"`, `"execute"` or
/// `"extract"`), and how.
type StageError = (&'static str, ExecError);

/// Links `loaded` into an engine; `threads` forces that many row bands
/// (`None` leaves the engine's own work-size choice).
fn link_stream(
    loaded: &LoadedProgram,
    options: LinkOptions,
    threads: Option<usize>,
) -> Result<WseGridSim, StageError> {
    let mut sim = WseGridSim::with_options(loaded.clone(), options).map_err(|e| ("link", e))?;
    if let Some(threads) = threads {
        sim.set_threads(threads);
    }
    Ok(sim)
}

/// Runs a linked engine for the program's timesteps and extracts its
/// final state.
fn run_linked(sim: &mut WseGridSim) -> Result<GridState, StageError> {
    sim.run(None).map_err(|e| ("execute", e))?;
    sim.grid_state().map_err(|e| ("extract", e))
}

/// One engine stream end to end: link, run, extract.
fn run_stream(
    loaded: &LoadedProgram,
    options: LinkOptions,
    threads: Option<usize>,
) -> Result<GridState, StageError> {
    run_linked(&mut link_stream(loaded, options, threads)?)
}

/// Evidence that the dependence-aware fusion path fired on a compiled
/// case: the double-buffer fields the inliner introduced plus the
/// link-time optimizer's report for the optimized stream.
#[derive(Debug, Clone)]
pub struct FusionEvidence {
    /// Internal double-buffer fields in the loaded program (non-zero iff
    /// the inliner renamed a hazarded field rather than refusing fusion).
    pub internal_fields: usize,
    /// The optimized stream's link-time report.
    pub stats: wse_sim::OptStats,
}

/// Compiles a case (with its own options) and returns the fusion
/// evidence, or `None` when the pipeline rejects the program.  Used by
/// the `--require-fusion` conformance variant to assert that inlining has
/// not silently regressed to the conservative refusal path.
pub fn case_fusion_evidence(case: &ConformanceCase) -> Option<FusionEvidence> {
    let compiler = Compiler::new()
        .target(case.options.target)
        .num_chunks(case.options.num_chunks)
        .fmac_fusion(case.options.enable_fmac_fusion)
        .inlining(case.options.enable_inlining)
        .coefficient_promotion(case.options.promote_coefficients);
    let artifact = compiler.compile(&case.program).ok()?;
    let loaded = artifact.loaded_program();
    let linked = wse_sim::link_program(loaded).ok()?;
    Some(FusionEvidence {
        internal_fields: loaded.internal_fields.len(),
        stats: linked.stats().clone(),
    })
}

/// Evidence that product decomposition fired on a compiled case: the
/// `__prod` scratch fields the `decompose-products` pass introduced plus
/// the link-time optimizer's report (whose `product_muls` counts the
/// data×data multiplies in the linked kernels).
#[derive(Debug, Clone)]
pub struct ProductEvidence {
    /// Internal `__prod` scratch fields in the loaded program (non-zero
    /// iff a degree-2 term was decomposed rather than rejected).
    pub product_fields: usize,
    /// The optimized stream's link-time report.
    pub stats: wse_sim::OptStats,
}

/// Compiles a case (with its own options) and returns the product
/// evidence, or `None` when the pipeline rejects the program.  Used by
/// the `--require-products` conformance variant to assert that nonlinear
/// lowering has not silently regressed to the rejection path.
pub fn case_product_evidence(case: &ConformanceCase) -> Option<ProductEvidence> {
    let compiler = Compiler::new()
        .target(case.options.target)
        .num_chunks(case.options.num_chunks)
        .fmac_fusion(case.options.enable_fmac_fusion)
        .inlining(case.options.enable_inlining)
        .coefficient_promotion(case.options.promote_coefficients);
    let artifact = compiler.compile(&case.program).ok()?;
    let loaded = artifact.loaded_program();
    let linked = wse_sim::link_program(loaded).ok()?;
    Some(ProductEvidence {
        product_fields: loaded
            .internal_fields
            .iter()
            .filter(|name| name.contains("__prod"))
            .count(),
        stats: linked.stats().clone(),
    })
}

/// Checks that the link optimizer is transparent on a loaded program —
/// hand-built ones included, which `run_case` cannot take — where release
/// users run it: the optimized stream with the translation validator
/// *off* ends bitwise equal to the unoptimized one, and with the validator
/// on no pass needs its revert.  Returns the validator-off stream's
/// optimizer report, or what diverged.
pub fn check_optimizer_transparent(loaded: &LoadedProgram) -> Result<OptStats, String> {
    let run = |optimize, validate| {
        let options = LinkOptions { optimize, validate, ..LinkOptions::default() };
        let mut sim = link_stream(loaded, options, Some(1)).map_err(|(_, e)| e.message)?;
        let state = run_linked(&mut sim).map_err(|(_, e)| e.message)?;
        Ok::<_, String>((state, sim.linked().stats().clone()))
    };
    let (reference, _) = run(false, false)?;
    let (optimized, stats) = run(true, false)?;
    if let Some(difference) = bitwise_difference(&reference, &optimized) {
        return Err(format!("optimized stream diverges: {difference}\n{stats:?}"));
    }
    let (_, validated) = run(true, true)?;
    match validated.rejected_passes.as_slice() {
        [] => Ok(stats),
        rejected => Err(format!("the validator reverted {rejected:?}")),
    }
}

/// Checks the translation validator's two shortcuts on `loaded`, clean and
/// under the `DropAliasingCheck` mutation, against the check they replace.
/// *Witness grid*: checking every pass unit on the program's own
/// `width × height` PEs and on the witness grid link the identical stream
/// with the identical report (rejections, blame, skip and fusion counts),
/// and the summary tells the unchecked optimized stream from the
/// unoptimized one on the witness exactly when it does on the full grid.
/// *Composition first*: the entry users call links that same stream and
/// report — or, the one licence it takes, accepts the unchecked stream
/// whole because it *is* equivalent to the unoptimized one on the full
/// grid, although a unit on its own was not (a later unit undid its
/// damage).  Returns whether that happened (`Ok(true)`: the composition
/// masked a unit the per-unit check blames), or what differed.
pub fn check_validator_shortcuts(loaded: &LoadedProgram) -> Result<bool, String> {
    use wse_sim::link::{link_per_unit, link_program_with, LinkMutation, LinkedProgram};
    use wse_sim::validate::{observable_summary, summary_on};
    let full_grid = |l: &LinkedProgram| summary_on(l, l.width, l.height);
    let link = |options| link_program_with(loaded, &options).map_err(|e| e.message);
    let unoptimized = link(LinkOptions { optimize: false, ..LinkOptions::default() })?;
    let (reference_on_full, reference_on_witness) =
        (full_grid(&unoptimized), observable_summary(&unoptimized));
    let (mut clean_unchecked, mut masked) = (None, false);
    for mutate in [None, Some(LinkMutation::DropAliasingCheck)] {
        let checked = LinkOptions { optimize: true, validate: true, mutate, ..Default::default() };
        let unchecked = link(LinkOptions { validate: false, ..checked })?;
        if clean_unchecked.as_ref() == Some(&unchecked) {
            continue; // the mutation found no aliasing chain to break: nothing new to check
        }
        let on_full = link_per_unit(loaded, &checked, full_grid).map_err(|e| e.message)?;
        let on_witness =
            link_per_unit(loaded, &checked, observable_summary).map_err(|e| e.message)?;
        if on_witness != on_full {
            return Err(format!(
                "{mutate:?}: per-unit verdicts differ, witness {:?} vs full grid {:?}",
                on_witness.stats, on_full.stats
            ));
        }
        let equal_on_full = reference_on_full == full_grid(&unchecked);
        let equal_on_witness = reference_on_witness == observable_summary(&unchecked);
        if equal_on_full != equal_on_witness {
            return Err(format!(
                "{mutate:?}: unchecked stream equals the unoptimized one on the full grid: \
                 {equal_on_full}, on the witness: {equal_on_witness}"
            ));
        }
        let composed = link(checked)?;
        if composed != on_witness {
            let mut whole = unchecked.clone();
            whole.stats.validated_passes = on_witness.stats.validated_passes;
            if !(equal_on_full && composed == whole) {
                return Err(format!(
                    "{mutate:?}: composition-first {:?} vs per-unit {:?}",
                    composed.stats, on_witness.stats
                ));
            }
            masked = true;
        }
        clean_unchecked.get_or_insert(unchecked);
    }
    Ok(masked)
}

/// Returns a description of the first bitwise difference between two grid
/// states, or `None` when they are bit-for-bit identical.
pub fn bitwise_difference(a: &GridState, b: &GridState) -> Option<String> {
    if a.names != b.names {
        return Some(format!("field sets differ: {:?} vs {:?}", a.names, b.names));
    }
    for (name, (fa, fb)) in a.names.iter().zip(a.fields.iter().zip(&b.fields)) {
        if fa.shape != fb.shape {
            return Some(format!("field {name}: shapes {:?} vs {:?}", fa.shape, fb.shape));
        }
        for (i, (x, y)) in fa.data.iter().zip(&fb.data).enumerate() {
            if x.to_bits() != y.to_bits() {
                return Some(format!(
                    "field {name}[{i}]: {x} ({:#010x}) vs {y} ({:#010x})",
                    x.to_bits(),
                    y.to_bits()
                ));
            }
        }
    }
    None
}

/// The outcome of one fault-injection conformance case.
///
/// The invariant under test: a faulted run must either finish
/// bitwise-identical to the fault-free stream (detect-and-rollback
/// recovery worked) or surface a *typed* error — silent corruption is
/// the one unacceptable outcome.  Additionally, with the recovery
/// machinery enabled but no faults injected, the run must be
/// bitwise-transparent (checksums and checkpoints must not perturb the
/// computation).
#[derive(Debug, Clone, PartialEq)]
pub enum FaultOutcome {
    /// The pipeline rejected the program with a typed diagnostic before
    /// any execution — acceptable, same as plain conformance.
    Rejected {
        /// The rejection's machine-readable code, when attached.
        code: Option<String>,
    },
    /// The faulted run recovered: it finished and its final state is
    /// bitwise-identical to the fault-free stream.
    Recovered,
    /// The faulted run gave up with a typed [`wse_sim::ExecError`]
    /// (e.g. rollback budget exhausted) — acceptable: the failure was
    /// surfaced, not silently absorbed.
    TypedError {
        /// The error's typed discriminant.
        kind: ExecErrorKind,
    },
    /// The faulted run "succeeded" but its final state differs from the
    /// fault-free stream: a fault escaped detection.  Never acceptable.
    SilentDivergence {
        /// First differing element.
        detail: String,
    },
    /// With recovery enabled and *no* faults injected, the run diverged
    /// from the plain stream or rolled back spuriously.  Never
    /// acceptable: the checksum/checkpoint machinery must be free of
    /// observable effect when nothing goes wrong.
    TransparencyBroken {
        /// What broke.
        detail: String,
    },
    /// Something panicked outside the engine's own isolation.
    Panicked {
        /// The captured panic payload.
        detail: String,
    },
    /// A baseline (fault-free, recovery-free) execution failed — a
    /// pipeline defect unrelated to the fault campaign.
    EngineFailure {
        /// What failed.
        detail: String,
    },
}

impl FaultOutcome {
    /// True for outcomes the fault campaign accepts: recovery, a typed
    /// error, or a typed rejection.
    pub fn is_conformant(&self) -> bool {
        matches!(
            self,
            FaultOutcome::Rejected { .. }
                | FaultOutcome::Recovered
                | FaultOutcome::TypedError { .. }
        )
    }
}

/// The report for one fault-injection case: the outcome plus the faulted
/// run's recovery counters (present whenever the faulted run was
/// reached), so sweeps can assert faults were actually injected and
/// recovery paths actually fired rather than vacuously passing.
#[derive(Debug, Clone)]
pub struct FaultCaseReport {
    /// What happened.
    pub outcome: FaultOutcome,
    /// The faulted engine's recovery counters.
    pub stats: Option<RecoveryStats>,
}

/// Runs one case through the fault-injection campaign: compile, run the
/// fault-free baseline, prove the recovery machinery bitwise-transparent
/// without faults, then run with a seeded [`FaultPlan`] injected and
/// require bitwise recovery or a typed error (see [`FaultOutcome`]).
///
/// `fault_seed` seeds the deterministic fault plan; `rate` is the
/// per-step event probability.
///
/// [`FaultPlan`]: wse_sim::FaultPlan
pub fn run_fault_case(case: &ConformanceCase, fault_seed: u64, rate: f64) -> FaultCaseReport {
    capture_panics(|| run_fault_case_inner(case, fault_seed, rate)).unwrap_or_else(|detail| {
        FaultCaseReport { outcome: FaultOutcome::Panicked { detail }, stats: None }
    })
}

fn run_fault_case_inner(case: &ConformanceCase, fault_seed: u64, rate: f64) -> FaultCaseReport {
    let fail = |outcome: FaultOutcome| FaultCaseReport { outcome, stats: None };
    // `verify_each` off: per-pass IR verification is plain conformance's
    // job; the fault campaign's subject is the execution engine.
    let compiler = Compiler::new()
        .target(case.options.target)
        .num_chunks(case.options.num_chunks)
        .fmac_fusion(case.options.enable_fmac_fusion)
        .inlining(case.options.enable_inlining)
        .coefficient_promotion(case.options.promote_coefficients);
    let artifact = match compiler.compile(&case.program) {
        Ok(artifact) => artifact,
        Err(e) => {
            if e.code() == Some("internal-panic") {
                return fail(FaultOutcome::Panicked { detail: e.message().to_string() });
            }
            return fail(FaultOutcome::Rejected { code: e.code().map(str::to_string) });
        }
    };
    let loaded = artifact.loaded_program();
    let options = LinkOptions::default();
    let engine_failure = |run: &str, (stage, e): StageError| {
        fail(FaultOutcome::EngineFailure { detail: format!("{run} {stage}: {}", e.message) })
    };
    let broken = |detail: String| fail(FaultOutcome::TransparencyBroken { detail });

    // 1. Fault-free, recovery-free baseline: the stream every other run
    //    must reproduce bit for bit.
    let baseline_state = match run_stream(loaded, options, None) {
        Ok(state) => state,
        Err(e) => return engine_failure("baseline", e),
    };

    // 2. Recovery enabled (strict fault-campaign configuration: per-step
    //    verification, tight checkpoint cadence), no faults: checksums
    //    refresh and checkpoints are taken every few steps, and none of
    //    it may be observable.
    let mut transparent = match link_stream(loaded, options, None) {
        Ok(sim) => sim,
        Err(e) => return engine_failure("recovery-enabled", e),
    };
    transparent.enable_recovery(RecoveryOptions {
        checkpoint_every: 4,
        verify: true,
        ..RecoveryOptions::default()
    });
    match run_linked(&mut transparent) {
        Ok(state) => {
            if let Some(detail) = bitwise_difference(&baseline_state, &state) {
                return broken(format!("recovery-enabled fault-free state diverged: {detail}"));
            }
        }
        Err((stage, e)) => {
            return broken(format!("recovery-enabled fault-free {stage} failed: {}", e.message))
        }
    }
    if let Some(stats) = transparent.recovery_stats() {
        if stats.rollbacks > 0 || stats.checksum_failures > 0 {
            return broken(format!(
                "spurious recovery without faults: {} rollbacks, {} checksum failures",
                stats.rollbacks, stats.checksum_failures
            ));
        }
    }

    // 3. The faulted run: a short watchdog keeps injected stalls cheap,
    //    and a generous rollback budget gives dense campaigns room to
    //    recover; exhausting it is still a *typed* outcome.  Linked with
    //    the optimizer *off* so halo captures survive (capture elision
    //    would remove the delivery-fault surface); the optimizer is
    //    bitwise-transparent, so the baseline comparison is unaffected.
    let mut faulted = match link_stream(loaded, LinkOptions { optimize: false, ..options }, None) {
        Ok(sim) => sim,
        Err(e) => return engine_failure("faulted", e),
    };
    faulted.inject_faults(FaultOptions { seed: fault_seed, rate });
    faulted.enable_recovery(RecoveryOptions {
        checkpoint_every: 2,
        verify: true,
        max_rollbacks: 64,
        watchdog_ms: 200,
    });
    let outcome = match run_linked(&mut faulted) {
        Err(("execute", e)) => FaultOutcome::TypedError { kind: e.kind },
        Err((_, e)) => FaultOutcome::EngineFailure {
            detail: format!("faulted extract after successful run: {}", e.message),
        },
        Ok(state) => match bitwise_difference(&baseline_state, &state) {
            None => FaultOutcome::Recovered,
            Some(detail) => FaultOutcome::SilentDivergence { detail },
        },
    };
    FaultCaseReport { outcome, stats: faulted.recovery_stats().copied() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_case;
    use wse_frontends::benchmarks::Benchmark;
    use wse_lowering::PipelineOptions;

    #[test]
    fn paper_benchmarks_are_conformant() {
        install_quiet_panic_hook();
        for benchmark in Benchmark::ALL {
            let case = ConformanceCase {
                seed: 0,
                program: benchmark.tiny_program(),
                options: PipelineOptions { num_chunks: 2, ..PipelineOptions::default() },
            };
            let verdict = run_case(&case);
            assert!(matches!(verdict, Verdict::Pass { .. }), "{}: {verdict:?}", benchmark.name());
        }
    }

    /// What a pass means must not drift with the set of streams a case
    /// runs: the reported deviation is the optimized vector stream's, and
    /// these are the values the paper benchmarks had when each process ran
    /// one engine mode.
    #[test]
    fn paper_benchmark_deviations_are_pinned() {
        let pinned = [3.7252903e-9f32, 7.450581e-9, 1.5832484e-8, 1.4901161e-8, 5.5879354e-9];
        for (benchmark, deviation) in Benchmark::ALL.into_iter().zip(pinned) {
            let case = ConformanceCase {
                seed: 0,
                program: benchmark.tiny_program(),
                options: PipelineOptions { num_chunks: 2, ..PipelineOptions::default() },
            };
            assert_eq!(run_case(&case), Verdict::Pass { deviation }, "{}", benchmark.name());
        }
    }

    #[test]
    fn invalid_program_is_a_typed_reject_not_a_panic() {
        install_quiet_panic_hook();
        let mut case = ConformanceCase {
            seed: 0,
            program: Benchmark::Jacobian.tiny_program(),
            options: PipelineOptions::default(),
        };
        case.program.timesteps = 0;
        match run_case(&case) {
            Verdict::Rejected { stage, message, .. } => {
                assert_eq!(stage, "emit-stencil-ir");
                assert!(message.contains("timesteps"), "got: {message}");
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn degree_two_products_lower_and_conform() {
        use wse_frontends::ast::{Expr, StencilEquation};
        install_quiet_panic_hook();
        // Burgers-style advection: the degree-2 body is decomposed onto a
        // scratch field, not rejected, and must agree with the reference
        // across all engine variants.
        let mut program = Benchmark::Jacobian.tiny_program();
        program.equations = vec![StencilEquation::new(
            "a",
            Expr::center("a")
                + (Expr::center("a") * (Expr::center("a") - Expr::at("a", -1, 0, 0))).scale(-0.2),
        )];
        let case = ConformanceCase { seed: 0, program, options: PipelineOptions::default() };
        match run_case(&case) {
            Verdict::Pass { .. } => {}
            other => panic!("expected the product body to pass, got {other:?}"),
        }
        let evidence = case_product_evidence(&case).expect("product case compiles");
        assert!(evidence.product_fields > 0, "decomposition introduced a scratch field");
        assert!(evidence.stats.product_muls > 0, "linked stream multiplies data by data");
    }

    #[test]
    fn degree_above_the_cap_rejects_with_a_machine_readable_code() {
        use wse_frontends::ast::{Expr, StencilEquation};
        install_quiet_panic_hook();
        let mut program = Benchmark::Jacobian.tiny_program();
        program.equations.push(StencilEquation::new(
            "a",
            Expr::center("a") * Expr::center("a") * Expr::center("a"),
        ));
        let case = ConformanceCase { seed: 0, program, options: PipelineOptions::default() };
        match run_case(&case) {
            Verdict::Rejected { code, .. } => {
                assert_eq!(
                    code.as_deref(),
                    Some("non-linear-degree"),
                    "classified without text-matching"
                );
            }
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn fault_campaign_on_a_benchmark_recovers_or_types() {
        install_quiet_panic_hook();
        let mut program = Benchmark::Jacobian.tiny_program();
        program.timesteps = 24;
        let case = ConformanceCase {
            seed: 0,
            program,
            options: PipelineOptions { num_chunks: 2, ..PipelineOptions::default() },
        };
        let report = run_fault_case(&case, 7, 0.5);
        assert!(report.outcome.is_conformant(), "outcome: {:?}", report.outcome);
        let stats = report.stats.expect("the faulted run was reached");
        assert!(stats.faults.total() > 0, "the campaign injected nothing: {stats:?}");
    }

    #[test]
    fn a_sample_of_generated_cases_is_conformant() {
        install_quiet_panic_hook();
        for seed in 0..16u64 {
            let case = generate_case(seed);
            let verdict = run_case(&case);
            assert!(verdict.is_conformant(), "seed {seed}: {verdict:?}");
        }
    }
}
