//! # wse-sim — a Wafer-Scale Engine simulator and performance model
//!
//! The paper's evaluation runs on Cerebras CS-2 and CS-3 systems; this
//! crate provides the substitute substrate used by the reproduction:
//!
//! * [`machine`] — WSE2/WSE3 machine models plus the comparison devices;
//! * [`loader`] — turns the final `csl` dialect program into an executable
//!   per-PE program;
//! * [`link`] — compiles the loaded program into a flat-memory form:
//!   interned buffer ids, one arena per PE, resolved instruction streams
//!   with all bounds validated up front, then optimized by eight pass
//!   units whose safety conditions are queries on [`deps`];
//! * [`deps`] — the dependence core: the single per-instruction operand
//!   match, the events of one program cycle, and the interval, liveness,
//!   reaching-write, chunk-carried and edge queries the optimizer, the
//!   planner and `wse-analysis` all consume;
//! * [`kernels`] — monomorphized SIMD kernels (AVX2/scalar, selected
//!   by runtime feature detection; one row-batched sweep family) with a
//!   bitwise-exact default mode and an opt-in `fast_fma` contraction mode;
//! * [`plan`] — the kernel-plan compiler: lowers linked instruction
//!   streams into flat plans of pre-specialized kernel calls, proving
//!   scratch round-trips away with link-time disjointness;
//! * [`exec`] — lock-step execution of the planned program over the PE
//!   grid, one sequence per kernel: capture (unoptimized streams only),
//!   op-major row bands, edge commits (used to validate generated code
//!   against the reference executor);
//! * [`fault`] — deterministic, seeded fault injection (arena bit-flips,
//!   dropped/duplicated halo deliveries, stalled or panicking bands);
//! * [`checkpoint`] — copy-on-write checkpoints, ABFT-style row
//!   checksums, and the recovery configuration behind the engine's
//!   detect-and-rollback loop;
//! * [`interp`] — the pre-refactor string-keyed interpreter, kept as the
//!   baseline for the engine-parity tests;
//! * [`reference`](mod@reference) — a sequential reference executor over dense 3-D grids;
//! * [`perf`] — the analytic cycle model (DSD throughput, fabric hops,
//!   task activation overheads, WSE2 self-transmit penalty);
//! * [`roofline`] — the roofline model of Figure 7;
//! * [`baselines`] — the hand-written seismic kernel and the GPU/CPU
//!   cluster baselines of Figures 5 and 6.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod baselines;
pub mod checkpoint;
pub mod deps;
pub mod exec;
pub mod fault;
pub mod interp;
pub mod kernels;
pub mod link;
pub mod loader;
pub mod machine;
pub mod perf;
pub mod plan;
pub mod reference;
pub mod roofline;
pub mod validate;

pub use checkpoint::{checksum_f32, row_checksums, Checkpoint, RecoveryOptions, RecoveryStats};
pub use exec::{ExecError, ExecErrorKind, WseGridSim};
pub use fault::{FaultCounts, FaultKind, FaultOptions, FaultPlan, INJECTED_BAND_PANIC};
pub use interp::InterpGridSim;
pub use kernels::Isa;
pub use link::{
    link_program, link_program_with, LinkMutation, LinkOptions, LinkedProgram, OptStats, SkipCounts,
};
pub use loader::{load_program, LoadError, LoadedProgram};
pub use machine::{TargetMachine, WseGeneration, WseMachine, A100, EPYC_7742_NODE};
pub use perf::{estimate_performance, CycleBreakdown, FabricProfile, PerfEstimate};
pub use plan::{plan_program, ProgramPlan};
pub use reference::{initial_state, max_abs_difference, run_reference, Field3D, GridState};
pub use validate::observable_summary;
