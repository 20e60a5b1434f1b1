//! # wse-analysis — static analysis over both ends of the pipeline
//!
//! The compiler's correctness story so far was dynamic: the conformance
//! harness executes generated programs and compares bits.  This crate adds
//! the static half, working on the two stable program representations:
//!
//! * the front-end [`StencilProgram`] AST, before any lowering — the
//!   [`lint`] pass walks equations and reports the `W0xx`/`E00x` codes
//!   (unused fields, dead stores, self-aliasing applies, out-of-bounds
//!   offsets, unsupported halo radii, degree caps);
//! * the linked instruction stream ([`LinkedProgram`]), after every
//!   optimizer rewrite — both stream passes sit on the dependence core in
//!   `wse_sim::deps`, the same events and interval queries the link-time
//!   optimizer decides from: [`dag`] is a labelled view of its events and
//!   RAW/WAR/WAW/snapshot/halo edges, and [`race`] states the cross-PE
//!   safety invariants the optimizer relies on (`E101`/`E102`/`W101`)
//!   over its transmitted intervals, without executing anything.
//!
//! All codes come from the single registry in [`wse_ir::diagnostics`];
//! the `wse-lint` binary fronts both passes and renders
//! `--explain <code>` from the same table.  The translation validator that
//! re-checks every link-time rewrite lives with the optimizer in
//! `wse_sim::validate` and shares nothing with the dependence core — it is
//! the independent oracle for it; this crate's race detector covers the
//! schedule-dependent hazards that validator deliberately models away.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dag;
pub mod ir;
pub mod lint;
pub mod race;

use std::fmt;

use wse_frontends::StencilProgram;
use wse_sim::LinkedProgram;

pub use dag::{DepEdge, DepGraph, DepNode, EdgeKind, NodeKind};
pub use wse_ir::Severity;

/// One analyzer finding, tagged with a registered diagnostic code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable code from the [`wse_ir::diagnostics`] registry.
    pub code: &'static str,
    /// Severity (always consistent with the registry entry).
    pub severity: Severity,
    /// Human-readable description of this occurrence.
    pub message: String,
    /// Where the finding anchors (equation index, kernel/block/instr).
    pub location: String,
}

impl Finding {
    /// Builds a finding, asserting the code is registered and pulling its
    /// severity from the registry so the two can never disagree.
    pub fn new(code: &'static str, location: String, message: String) -> Self {
        let info = wse_ir::lookup_diagnostic(code)
            .unwrap_or_else(|| panic!("finding uses unregistered code {code:?}"));
        Finding { code, severity: info.severity, message, location }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}: {}", self.severity, self.code, self.location, self.message)
    }
}

/// True when any finding in the slice is an [`Severity::Error`].
pub fn has_errors(findings: &[Finding]) -> bool {
    findings.iter().any(|f| f.severity == Severity::Error)
}

/// The static analyzer: one entry point per representation.
///
/// Stateless today; constructed explicitly so future options (lint
/// allow-lists, DAG depth limits) have a home that does not break
/// call sites.
#[derive(Debug, Clone, Copy, Default)]
pub struct Analyzer;

impl Analyzer {
    /// Creates an analyzer with default settings.
    pub fn new() -> Self {
        Analyzer
    }

    /// Lints a front-end stencil program (codes `W001`–`W004`,
    /// `E001`–`E003`).
    pub fn lint(&self, program: &StencilProgram) -> Vec<Finding> {
        lint::lint_program(program)
    }

    /// Statically checks a linked instruction stream for cross-PE races
    /// and broken optimizer invariants (codes `E101`, `E102`, `W101`).
    pub fn check_stream(&self, linked: &LinkedProgram) -> Vec<Finding> {
        race::check_stream(linked)
    }

    /// Builds the dependence DAG of a linked stream (every PE executes
    /// the same stream, so one graph describes the whole grid).
    pub fn dependence_graph(&self, linked: &LinkedProgram) -> DepGraph {
        DepGraph::build(linked)
    }

    /// Summarizes a stencil IR module through the dialect effect table
    /// and SSA def-use chains.
    pub fn ir_summary(&self, ctx: &wse_ir::Context, root: wse_ir::OpId) -> ir::IrSummary {
        ir::summarize(ctx, root)
    }
}
