//! # testkit — generative stencil workloads + differential conformance
//!
//! The paper's pipeline claims generality over stencil programs; the five
//! fixed benchmarks exercise only a corner of it.  This crate provides
//! the safety net the rest of the workspace runs under:
//!
//! * [`generate`] — a seeded random [`wse_frontends::StencilProgram`]
//!   generator covering arbitrary radii, star/box (diagonal) shapes,
//!   coupled multi-equation systems, additive constants, odd grid/chunk
//!   combinations and both WSE generations;
//! * [`conformance`] — the differential driver: every generated program
//!   must either compile (with per-pass IR verification) and agree across
//!   the linked engine, the legacy interpreter and the sequential
//!   reference executor, or be rejected with a typed diagnostic.  Panics
//!   are conformance failures, full stop;
//! * [`shrink`] — greedy minimization of failing cases;
//! * [`report`] — reproducer rendering, including the program's stencil
//!   IR in the generic form [`wse_ir::parse_op`] accepts.
//!
//! The `conformance` binary drives N seeded cases and is wired into CI;
//! `cargo run --release -p testkit --bin conformance -- --cases 64`
//! reproduces the CI job locally, and
//! `--seed S --cases 1` replays one failing seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod conformance;
pub mod generate;
pub mod report;
pub mod rng;
pub mod shrink;

pub use conformance::{
    case_fusion_evidence, case_product_evidence, install_quiet_panic_hook, run_case,
    run_case_with_tolerance_via, run_fault_case, shape_tolerance, FaultCaseReport, FaultOutcome,
    FusionEvidence, ProductEvidence, Verdict, TOLERANCE,
};
pub use generate::{
    generate_case, generate_case_with, has_product_term, has_self_updating_chain,
    try_generate_case, try_generate_case_with, ConformanceCase, GenerateError, GeneratorConfig,
};
pub use report::reproducer;
pub use shrink::shrink_case;
