//! The compiler facade: compile a front-end stencil program to CSL, run it
//! on the simulator and estimate its wafer-scale performance.

use wse_frontends::StencilProgram;
use wse_lowering::{lower_program, LowerError, LoweredProgram, PipelineOptions, WseTarget};
use wse_sim::{
    estimate_performance, load_program, max_abs_difference, run_reference, LoadedProgram,
    PerfEstimate, TargetMachine, WseGridSim,
};

use crate::artifact::CslArtifact;
use crate::service::CompileService;

/// What went wrong during compilation, as a typed discriminant.
///
/// Every kind carries a stable machine-readable diagnostic code (see
/// [`CompileError::code`]) so tooling — e.g. the conformance driver's
/// per-code rejection breakdown — never has to sniff message strings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileErrorKind {
    /// Front-end emission rejected the program (validation failure).
    Emit,
    /// A lowering pass failed.
    Pass {
        /// Name of the failing pass (the `stage` of the diagnostic).
        pass: String,
        /// Stable code attached by the pass, when it classified the
        /// failure (e.g. `"non-linear"`).
        code: Option<String>,
    },
    /// Loading the generated CSL into the simulator failed.
    Load,
    /// Functional simulation of the artifact failed.
    Simulate,
    /// Builder options were out of range (caught before any IR exists).
    InvalidOptions {
        /// Which option was invalid (e.g. `"num_chunks"`).
        option: &'static str,
    },
}

impl CompileErrorKind {
    /// The pipeline stage this kind corresponds to (the historical
    /// `stage` string of the untyped error).
    pub fn stage(&self) -> &str {
        match self {
            CompileErrorKind::Emit => "emit-stencil-ir",
            CompileErrorKind::Pass { pass, .. } => pass,
            CompileErrorKind::Load => "load",
            CompileErrorKind::Simulate => "simulate",
            CompileErrorKind::InvalidOptions { .. } => "options",
        }
    }

    /// The stable diagnostic code.  Pass failures keep the code the pass
    /// attached (if any); every other kind has a fixed code.
    pub fn code(&self) -> Option<&str> {
        match self {
            CompileErrorKind::Emit => Some("emit-invalid-program"),
            CompileErrorKind::Pass { code, .. } => code.as_deref(),
            CompileErrorKind::Load => Some("load-failed"),
            CompileErrorKind::Simulate => Some("simulate-failed"),
            CompileErrorKind::InvalidOptions { .. } => Some("invalid-options"),
        }
    }
}

/// Errors produced by the compiler facade.
///
/// The `Display` output is `"{stage} failed: {message}"`, unchanged from
/// the pre-typed version of this API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    kind: CompileErrorKind,
    message: String,
}

impl CompileError {
    /// An emission (program validation) failure.
    pub fn emit(message: impl Into<String>) -> Self {
        Self { kind: CompileErrorKind::Emit, message: message.into() }
    }

    /// A pass failure.
    pub fn pass(pass: impl Into<String>, message: impl Into<String>, code: Option<String>) -> Self {
        Self { kind: CompileErrorKind::Pass { pass: pass.into(), code }, message: message.into() }
    }

    /// A simulator-load failure.
    pub fn load(message: impl Into<String>) -> Self {
        Self { kind: CompileErrorKind::Load, message: message.into() }
    }

    /// A simulation failure.
    pub fn simulate(message: impl Into<String>) -> Self {
        Self { kind: CompileErrorKind::Simulate, message: message.into() }
    }

    /// An out-of-range builder option.
    pub fn invalid_options(option: &'static str, message: impl Into<String>) -> Self {
        Self { kind: CompileErrorKind::InvalidOptions { option }, message: message.into() }
    }

    /// The typed discriminant.
    pub fn kind(&self) -> &CompileErrorKind {
        &self.kind
    }

    /// Which stage failed.
    pub fn stage(&self) -> &str {
        self.kind.stage()
    }

    /// Human-readable description.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// Stable machine-readable diagnostic code (see
    /// [`CompileErrorKind::code`]).
    pub fn code(&self) -> Option<&str> {
        self.kind.code()
    }
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} failed: {}", self.stage(), self.message)
    }
}

impl std::error::Error for CompileError {}

impl From<LowerError> for CompileError {
    fn from(e: LowerError) -> Self {
        match e {
            LowerError::Emit(message) => CompileError::emit(message),
            LowerError::Pass(p) => CompileError::pass(p.pass, p.message, p.code),
        }
    }
}

/// The compiler: a thin builder over the lowering pipeline options.
#[derive(Debug, Clone, Copy)]
pub struct Compiler {
    options: PipelineOptions,
}

impl Default for Compiler {
    fn default() -> Self {
        Self::new()
    }
}

impl Compiler {
    /// A compiler targeting the WSE3 with default optimizations.
    pub fn new() -> Self {
        Self { options: PipelineOptions::default() }
    }

    /// Selects the target WSE generation.
    pub fn target(mut self, target: WseTarget) -> Self {
        self.options.target = target;
        self
    }

    /// Sets the number of chunks per halo exchange.
    ///
    /// The value is recorded as given; out-of-range values (`< 1`) are
    /// reported as a typed [`CompileErrorKind::InvalidOptions`] error by
    /// [`Compiler::compile`] instead of being silently clamped.
    pub fn num_chunks(mut self, num_chunks: i64) -> Self {
        self.options.num_chunks = num_chunks;
        self
    }

    /// Enables or disables `@fmacs` fusion.
    pub fn fmac_fusion(mut self, enabled: bool) -> Self {
        self.options.enable_fmac_fusion = enabled;
        self
    }

    /// Enables or disables stencil inlining.
    pub fn inlining(mut self, enabled: bool) -> Self {
        self.options.enable_inlining = enabled;
        self
    }

    /// Enables or disables coefficient promotion into the receive path.
    pub fn coefficient_promotion(mut self, enabled: bool) -> Self {
        self.options.promote_coefficients = enabled;
        self
    }

    /// Enables IR verification after every pass.
    pub fn verify_each(mut self, enabled: bool) -> Self {
        self.options.verify_each = enabled;
        self
    }

    /// The underlying pipeline options.
    pub fn options(&self) -> &PipelineOptions {
        &self.options
    }

    /// Checks the builder options for out-of-range values.
    ///
    /// # Errors
    /// Returns [`CompileErrorKind::InvalidOptions`] naming the offending
    /// option.
    pub fn validate_options(&self) -> Result<(), CompileError> {
        if self.options.num_chunks < 1 {
            return Err(CompileError::invalid_options(
                "num_chunks",
                format!("num_chunks must be >= 1, got {}", self.options.num_chunks),
            ));
        }
        if let Some(width) = self.options.width {
            if width < 1 {
                return Err(CompileError::invalid_options(
                    "width",
                    format!("width must be >= 1, got {width}"),
                ));
            }
        }
        if let Some(height) = self.options.height {
            if height < 1 {
                return Err(CompileError::invalid_options(
                    "height",
                    format!("height must be >= 1, got {height}"),
                ));
            }
        }
        Ok(())
    }

    /// Compiles a program to CSL, returning the generated artifact.
    ///
    /// # Errors
    /// Returns a [`CompileError`] if the options are out of range or
    /// emission, any lowering pass, or the simulator load fails.
    pub fn compile(&self, program: &StencilProgram) -> Result<CslArtifact, CompileError> {
        self.validate_options()?;
        let lowered = lower_program(program, &self.options)?;
        let loaded = load_program(&lowered.ctx, lowered.module)
            .map_err(|e| CompileError::load(e.message))?;
        Ok(CslArtifact::with_ir(program.clone(), self.options, lowered, loaded))
    }

    /// Turns this compiler into a long-lived compile service with a
    /// context pool and an artifact cache (see [`CompileService`]).
    pub fn service(self) -> CompileService {
        CompileService::new(self)
    }

    /// The machine model corresponding to the selected target.
    pub fn machine(&self) -> wse_sim::WseMachine {
        self.options.target.machine()
    }
}

impl CslArtifact {
    /// Estimates the artifact's performance on the machine it was compiled
    /// for (Figures 4-6 of the paper).
    pub fn estimate(&self) -> PerfEstimate {
        let machine = self.options.target.machine();
        estimate_performance(
            &self.loaded,
            &machine,
            (self.program.grid.x, self.program.grid.y, self.program.grid.z),
            self.program.timesteps,
            self.program.flops_per_point(),
        )
    }

    /// Runs the compiled program functionally on the simulated PE grid and
    /// returns the maximum deviation from the sequential reference executor.
    ///
    /// Only sensible for small problem instances (the functional simulator
    /// allocates every PE's buffers).
    ///
    /// # Errors
    /// Returns a [`CompileError`] if the simulation itself fails.
    pub fn validate_against_reference(&self) -> Result<f32, CompileError> {
        let simulate = |e: wse_sim::ExecError| CompileError::simulate(e.message);
        let mut sim = WseGridSim::new(self.loaded.clone()).map_err(simulate)?;
        sim.run(None).map_err(simulate)?;
        let state = sim.grid_state().map_err(simulate)?;
        let reference = run_reference(&self.program, None);
        Ok(max_abs_difference(&state, &reference))
    }

    /// The executable per-PE program extracted from the generated CSL.
    pub fn loaded_program(&self) -> &LoadedProgram {
        &self.loaded
    }

    /// The lowered IR, when the artifact kept it (artifacts produced by
    /// [`Compiler::compile`] do; cache-served artifacts from a
    /// [`CompileService`] drop the IR so their pooled context can be
    /// reused).
    pub fn lowered(&self) -> Option<&LoweredProgram> {
        self.ir.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_frontends::benchmarks::Benchmark;

    #[test]
    fn compile_and_validate_quickstart() {
        let program = Benchmark::Jacobian.tiny_program();
        let artifact = Compiler::new().num_chunks(2).verify_each(true).compile(&program).unwrap();
        assert!(artifact.sources().kernel_loc() > 0);
        let error = artifact.validate_against_reference().unwrap();
        assert!(error < 1e-4, "deviation {error}");
        let estimate = artifact.estimate();
        assert!(estimate.gpts_per_sec > 0.0);
    }

    #[test]
    fn builder_options_are_applied() {
        let compiler = Compiler::new()
            .target(WseTarget::Wse2)
            .num_chunks(4)
            .fmac_fusion(false)
            .inlining(false)
            .coefficient_promotion(false);
        assert_eq!(compiler.options().target, WseTarget::Wse2);
        assert_eq!(compiler.options().num_chunks, 4);
        assert!(!compiler.options().enable_fmac_fusion);
        assert!(compiler.machine().self_transmit);
    }

    #[test]
    fn out_of_range_options_are_typed_errors() {
        // num_chunks(0) used to clamp silently to 1; it is now a typed
        // validation error surfaced before any IR is built.
        let program = Benchmark::Jacobian.tiny_program();
        let err = Compiler::new().num_chunks(0).compile(&program).unwrap_err();
        assert_eq!(err.kind(), &CompileErrorKind::InvalidOptions { option: "num_chunks" });
        assert_eq!(err.stage(), "options");
        assert_eq!(err.code(), Some("invalid-options"));
        assert!(err.to_string().contains("num_chunks"));
        let err = Compiler::new().num_chunks(-3).compile(&program).unwrap_err();
        assert_eq!(err.code(), Some("invalid-options"));
    }

    #[test]
    fn compile_error_reports_stage() {
        // An invalid program (zero timesteps) fails at emission.
        let mut program = Benchmark::Diffusion.tiny_program();
        program.timesteps = 0;
        let err = Compiler::new().compile(&program).unwrap_err();
        assert_eq!(err.stage(), "emit-stencil-ir");
        assert_eq!(err.kind(), &CompileErrorKind::Emit);
        assert_eq!(err.code(), Some("emit-invalid-program"));
        assert!(err.to_string().contains("emit-stencil-ir"));
    }
}
