//! # wse-stencil — an MLIR-style lowering pipeline for stencils at wafer scale
//!
//! Public API of the reproduction of *"An MLIR Lowering Pipeline for
//! Stencils at Wafer-Scale"* (ASPLOS '26): compile stencil programs written
//! against three miniature front-ends (Flang-like Fortran, Devito-like
//! symbolic Python, PSyclone-like kernels) into CSL for the Cerebras WSE,
//! execute them on a functional simulator, and reproduce the paper's
//! evaluation figures.
//!
//! ```
//! use wse_stencil::{Compiler, benchmarks::Benchmark};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = Benchmark::Jacobian.tiny_program();
//! let artifact = Compiler::new().num_chunks(2).compile(&program)?;
//! assert!(artifact.sources().file("pe_program.csl").is_some());
//! let deviation = artifact.validate_against_reference()?;
//! assert!(deviation < 1e-4);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod compiler;
pub mod experiments;
pub mod service;

pub use artifact::{CslArtifact, LocReport};
pub use compiler::{CompileError, CompileErrorKind, Compiler};
pub use service::{CompileService, ServiceStats};

// Re-export the crates a downstream user needs to drive the API.
pub use wse_frontends::{ast, benchmarks, devito, fortran, psyclone, StencilProgram};
pub use wse_lowering::{LowerError, PipelineOptions, WseTarget};
pub use wse_sim::{PerfEstimate, TargetMachine, WseGeneration, WseMachine};
