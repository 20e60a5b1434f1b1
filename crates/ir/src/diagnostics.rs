//! The single registry of stable diagnostic codes.
//!
//! Every machine-readable code emitted anywhere in the pipeline — the
//! lowering analysis rejections (`non-linear-degree`), the link-time
//! validation classes (`link-*`), the static-analyzer lint and race codes
//! (`W0xx`/`E1xx`), and the translation-validator verdict (`E201`) — is
//! declared here exactly once, with a severity, a one-line summary, and a
//! rendered explanation.  Harnesses key on [`DiagnosticInfo::code`]
//! strings; the `wse-lint --explain <code>` path renders
//! [`render_explanation`].  A unit test enforces uniqueness and the
//! `W*`-is-warning / `E*`-is-error convention, so a new code cannot
//! silently collide with or shadow an existing one.

/// How severe a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Severity {
    /// The program is rejected, miscompiled-if-ignored, or provably racy.
    Error,
    /// The program is valid but suboptimal, dead, or suspicious.
    Warning,
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Severity::Error => write!(f, "error"),
            Severity::Warning => write!(f, "warning"),
        }
    }
}

/// One registered diagnostic code.
#[derive(Debug, Clone, Copy)]
pub struct DiagnosticInfo {
    /// The stable machine-readable code (`"W001"`, `"non-linear-degree"`).
    pub code: &'static str,
    /// Whether the code rejects or merely warns.
    pub severity: Severity,
    /// One-line summary, used as the finding headline.
    pub summary: &'static str,
    /// Rendered by `wse-lint --explain`.
    pub explanation: &'static str,
}

/// Every stable diagnostic code in the pipeline, in one table.
pub const REGISTRY: &[DiagnosticInfo] = &[
    // ---- Stencil-level lints (the `wse-lint` driver, `Analyzer::lint`).
    DiagnosticInfo {
        code: "W001",
        severity: Severity::Warning,
        summary: "field is declared but never used by any equation",
        explanation: "A field named in the program's field list is neither read nor written \
                      by any equation.  The loader still allocates an arena column per PE for \
                      it, so an unused field costs wafer memory for nothing.  Remove the \
                      declaration or reference the field.",
    },
    DiagnosticInfo {
        code: "W002",
        severity: Severity::Warning,
        summary: "stored field is overwritten before it is read",
        explanation: "An equation's output field is written again by a later equation before \
                      any equation (or the next timestep through an offset access) reads it, \
                      making the first store dead.  The simulator still executes the dead \
                      sweep every timestep.  Delete the shadowed equation or reorder reads.",
    },
    DiagnosticInfo {
        code: "W003",
        severity: Severity::Warning,
        summary: "equation reads its own output at a shifted offset",
        explanation: "An equation accesses the field it also writes, at a nonzero offset.  \
                      This self-aliasing apply forces the inliner's double-buffer renaming \
                      (extra arena columns plus a copy-back when the field is live-out) and \
                      defeats direct producer/consumer fusion.  If the dependence is not \
                      intentional (a Gauss-Seidel-style in-place update), stage the read \
                      through a separate field.",
    },
    DiagnosticInfo {
        code: "W004",
        severity: Severity::Warning,
        summary: "degree-2 product terms require scratch fields and full-column staging",
        explanation: "The equation multiplies two field accesses.  Products cannot reduce \
                      chunk-by-chunk, so each product term is decomposed onto an internal \
                      scratch field and remote factors are staged as full columns, which \
                      raises per-PE memory and halo traffic.  This is supported and \
                      conformance-checked — the warning only flags the cost.",
    },
    DiagnosticInfo {
        code: "E001",
        severity: Severity::Error,
        summary: "constant offset exceeds the grid extent",
        explanation: "An access applies a constant offset whose magnitude is at least the \
                      grid extent in that dimension, so every application would read outside \
                      the grid.  Frontend validation (`StencilProgram::validate`) rejects \
                      such programs before lowering.",
    },
    DiagnosticInfo {
        code: "E002",
        severity: Severity::Error,
        summary: "accessed halo extent exceeds the supported exchange radius",
        explanation: "The equations access neighbor cells beyond the largest halo the \
                      exchange patterns support (radius 4, the 25-point star).  The lowering \
                      pipeline has no pattern to transmit such a halo, so the program cannot \
                      be compiled for the wafer target.",
    },
    DiagnosticInfo {
        code: "E003",
        severity: Severity::Error,
        summary: "polynomial degree exceeds the supported cap",
        explanation: "The stencil body multiplies three or more field accesses together.  \
                      Lowering supports degree <= 2 (each product term is decomposed onto an \
                      internal scratch field); the compiler rejects higher degrees with the \
                      stable code `non-linear-degree` attached to the offending multiply.",
    },
    // ---- Link-stream race findings (the static race detector).
    DiagnosticInfo {
        code: "E101",
        severity: Severity::Error,
        summary: "sweep phase writes a transmitted buffer whose snapshot capture was elided",
        explanation: "A pre/recv/done instruction writes into the source range of a \
                      transmitted field while the kernel's snapshot capture is elided \
                      (`capture == false`).  On the elided path neighbors read the live \
                      arena column during the sweep, so a concurrent band (or a later row of \
                      the same serial sweep) would observe a torn, mid-update column — a \
                      cross-PE write/read race.  The snapshot-elision pass must not fire \
                      here; this finding means a rewrite broke its precondition.",
    },
    DiagnosticInfo {
        code: "E102",
        severity: Severity::Error,
        summary: "commit block reads a neighbor slot",
        explanation: "A deferred-commit instruction sources a receive slot.  Commits run \
                      after every band's sweep barrier, when neighbor arenas already hold \
                      post-step state, so a slot read here observes the *next* timestep's \
                      values — the deferral pass explicitly forbids moving slot reads into \
                      the commit window.  This finding means a rewrite broke that fence.",
    },
    DiagnosticInfo {
        code: "W101",
        severity: Severity::Warning,
        summary: "snapshot capture is retained but no sweep write touches a snapped column",
        explanation: "The kernel captures snapshots of its transmitted columns, yet no \
                      pre/recv/done instruction writes into any snapped source range — the \
                      live arena columns are stable for the whole sweep, so the capture \
                      (and its per-PE snapshot memory) could be elided.  Harmless, but the \
                      optimizer left per-step copy bandwidth on the table.",
    },
    // ---- Translation validation (link-time optimizer rewrites).
    DiagnosticInfo {
        code: "E201",
        severity: Severity::Error,
        summary: "optimizer rewrite changed the program's observable dataflow",
        explanation: "The translation validator abstractly executes the linked instruction \
                      stream before and after an optimizer pass and compares the symbolic \
                      value of every observable field element.  A mismatch means the rewrite \
                      dropped or reordered a dependence (for example by fusing through an \
                      aliasing write).  The offending pass is rejected and its rewrite \
                      reverted; the conformance driver surfaces the rejection.",
    },
    // ---- Lowering rejections (pre-existing codes).
    DiagnosticInfo {
        code: "non-linear",
        severity: Severity::Error,
        summary: "stencil body is not an affine combination of accesses",
        explanation: "The coefficient extractor found a shape it cannot express as \
                      sum(coeff * access) — for example dividing by a field.  Only affine \
                      bodies (plus degree-2 products, see `non-linear-degree`) lower to the \
                      Mul/Mac chains the target executes.",
    },
    DiagnosticInfo {
        code: "non-linear-degree",
        severity: Severity::Error,
        summary: "stencil body multiplies three or more accesses",
        explanation: "Degree-2 products are decomposed onto internal scratch fields, but \
                      degree >= 3 would need chained scratch products, which no target \
                      workload requires; the pipeline rejects the body with this code \
                      attached to the offending multiply.  The lint driver reports the same \
                      condition ahead of compilation as `E003`.",
    },
    DiagnosticInfo {
        code: "unsupported-op",
        severity: Severity::Error,
        summary: "IR contains an operation the lowering pipeline does not handle",
        explanation: "An operation outside the supported stencil/arith subset reached the \
                      lowering analysis.  This usually means a frontend emitted an op the \
                      pipeline has no rule for.",
    },
    DiagnosticInfo {
        code: "malformed-body",
        severity: Severity::Error,
        summary: "stencil apply body is structurally invalid",
        explanation: "The apply region violates a structural invariant (wrong terminator, \
                      missing block argument, dangling access) and cannot be analyzed.",
    },
    // ---- Link-time validation classes (`link.rs` rejection families).
    DiagnosticInfo {
        code: "link-grid",
        severity: Severity::Error,
        summary: "PE grid dimensions are invalid",
        explanation: "The loaded program declares a non-positive PE grid width or height; \
                      nothing can be linked onto an empty fabric.",
    },
    DiagnosticInfo {
        code: "link-geometry",
        severity: Severity::Error,
        summary: "column geometry (z_dim / z_halo) is invalid",
        explanation: "The per-PE column geometry is negative or a field column is shorter \
                      than its halo plus interior, so views into it cannot be laid out.",
    },
    DiagnosticInfo {
        code: "link-buffer-decl",
        severity: Severity::Error,
        summary: "buffer declaration is invalid",
        explanation: "A per-PE buffer is declared with a negative length or a duplicate \
                      name; the arena interner requires unique, sized declarations.",
    },
    DiagnosticInfo {
        code: "link-unknown-buffer",
        severity: Severity::Error,
        summary: "instruction or exchange references an undeclared buffer or field",
        explanation: "A view or exchange spec names a buffer that is not in the program's \
                      declaration list, so no arena range can be resolved for it.",
    },
    DiagnosticInfo {
        code: "link-view-bounds",
        severity: Severity::Error,
        summary: "view is negative or out of the buffer's bounds",
        explanation: "A static view has a negative offset/length or extends past the end of \
                      its buffer.  All bounds are validated at link time precisely so the \
                      execution phase never range-checks.",
    },
    DiagnosticInfo {
        code: "link-exchange",
        severity: Severity::Error,
        summary: "halo-exchange specification is malformed",
        explanation: "The communication spec is inconsistent: non-positive chunking, a \
                      missing `recv_buffer`, receive windows overflowing the receive \
                      buffer, or transmitted-field length mismatches between neighbors.",
    },
    DiagnosticInfo {
        code: "link-layout",
        severity: Severity::Error,
        summary: "arena layout is inconsistent",
        explanation: "Computed buffer layouts overlap each other or extend beyond the arena \
                      length.  Layouts are produced by the linker itself, so this class \
                      indicates an internal invariant violation rather than a bad program.",
    },
];

/// Looks up a registered code.
pub fn lookup(code: &str) -> Option<&'static DiagnosticInfo> {
    REGISTRY.iter().find(|d| d.code == code)
}

/// Renders the full `--explain` text for a code: headline, severity, and
/// the long-form explanation re-wrapped into a paragraph.
pub fn render_explanation(code: &str) -> Option<String> {
    let info = lookup(code)?;
    let mut text = format!("{}: {} — {}\n\n", info.code, info.severity, info.summary);
    // The table's explanation strings carry the source indentation of the
    // registry file; collapse runs of whitespace for terminal rendering.
    let mut words = info.explanation.split_whitespace();
    if let Some(first) = words.next() {
        text.push_str(first);
        for word in words {
            text.push(' ');
            text.push_str(word);
        }
    }
    text.push('\n');
    Some(text)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique() {
        let mut seen = crate::fxhash::FxHashSet::default();
        for d in REGISTRY {
            assert!(seen.insert(d.code), "duplicate diagnostic code {:?}", d.code);
        }
    }

    #[test]
    fn severity_matches_the_code_prefix() {
        for d in REGISTRY {
            if let Some(rest) = d.code.strip_prefix('W') {
                if rest.chars().all(|c| c.is_ascii_digit()) {
                    assert_eq!(d.severity, Severity::Warning, "{} must be a warning", d.code);
                }
            }
            if let Some(rest) = d.code.strip_prefix('E') {
                if rest.chars().all(|c| c.is_ascii_digit()) {
                    assert_eq!(d.severity, Severity::Error, "{} must be an error", d.code);
                }
            }
            // Legacy rejection classes are all hard errors.
            if d.code.contains('-') {
                assert_eq!(d.severity, Severity::Error, "{} must be an error", d.code);
            }
        }
    }

    #[test]
    fn legacy_compiler_codes_are_registered() {
        for code in ["non-linear", "non-linear-degree", "unsupported-op", "malformed-body"] {
            assert!(lookup(code).is_some(), "legacy code {code:?} missing from the registry");
        }
    }

    #[test]
    fn explanations_render() {
        for d in REGISTRY {
            let text = render_explanation(d.code).expect("registered code must render");
            assert!(text.starts_with(d.code), "{text}");
            assert!(!text.contains("  "), "wrapping must collapse indentation: {text:?}");
            assert!(!d.summary.ends_with('.'), "{}: summaries are headline-style", d.code);
        }
        assert!(render_explanation("E999").is_none());
    }
}
