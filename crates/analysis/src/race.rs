//! Static race detection over the linked instruction stream.
//!
//! The execution engine overlaps work three ways: worker bands sweep
//! disjoint row ranges concurrently, deferred commits lag the sweep
//! front, and neighbors read this PE's columns (directly, when the
//! snapshot capture was elided).  The link-time optimizer is what makes
//! those overlaps safe — and each elision has a precondition:
//!
//! * capture elision (`capture == false`) requires that *no* sweep-phase
//!   instruction writes a transmitted column: every such write must sit
//!   in the deferred [`commit`](wse_sim::link::LinkedKernel::commit)
//!   block, which runs only after the lagged barrier.  A violation means
//!   a concurrently-sweeping neighbor band can observe a torn column —
//!   finding **E101**.
//! * deferred commits run when neighbor arenas already hold post-step
//!   state, so a commit instruction must never source a receive slot —
//!   finding **E102**.
//! * the inverse is not a race but waste: a retained capture whose
//!   columns no sweep write ever touches could have been elided —
//!   finding **W101**.
//!
//! The detector re-derives these invariants from nothing but the stream
//! itself — no execution, no knowledge of which pass produced it — so it
//! cross-checks the optimizer the same way the translation validator
//! cross-checks dataflow: independently.  The conformance harness runs it
//! on every generated seed; the unit fixtures in `tests/static_analysis.rs`
//! pin hand-written racy and clean streams.

use wse_sim::link::{LinkedComm, LinkedInstr, LinkedProgram, SrcRef};

use crate::dag::overlaps;
use crate::Finding;

fn snapped_ranges(comm: &LinkedComm) -> Vec<(usize, usize)> {
    comm.snap_fields.iter().map(|f| (f.src_base, f.src_base + f.copy_len)).collect()
}

/// Runs every check over one linked stream.
pub fn check_stream(linked: &LinkedProgram) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (k, kernel) in linked.kernels.iter().enumerate() {
        let Some(comm) = &kernel.comm else { continue };
        let max_dyn = kernel.max_dyn();
        let snapped = snapped_ranges(comm);
        let sweep_blocks = [("pre", &kernel.pre), ("recv", &kernel.recv), ("done", &kernel.done)];

        // E101 / W101: sweep-phase writes vs. transmitted columns.
        let mut sweep_touches_snapped = false;
        for (phase, instrs) in sweep_blocks {
            for (i, instr) in instrs.iter().enumerate() {
                let w = instr.dest().span(max_dyn);
                let Some(range) = snapped.iter().find(|&&r| overlaps(w, r)) else { continue };
                sweep_touches_snapped = true;
                if !comm.capture {
                    findings.push(Finding::new(
                        "E101",
                        format!("kernel {k}, {phase}[{i}]"),
                        format!(
                            "writes arena [{}, {}) inside transmitted column [{}, {}) while \
                             the snapshot capture is elided: a neighbor band sweeping \
                             concurrently reads this live column",
                            w.0, w.1, range.0, range.1
                        ),
                    ));
                }
            }
        }
        if comm.capture && !sweep_touches_snapped {
            findings.push(Finding::new(
                "W101",
                format!("kernel {k}"),
                "snapshot capture retained although no sweep-phase instruction writes a \
                 transmitted column"
                    .to_string(),
            ));
        }

        // E102: slot reads inside the deferred-commit window.
        for (i, instr) in kernel.commit.iter().enumerate() {
            let LinkedInstr::FusedMacs { terms, .. } = instr else { continue };
            if terms.iter().any(|t| matches!(t.src, SrcRef::Slot { .. })) {
                findings.push(Finding::new(
                    "E102",
                    format!("kernel {k}, commit[{i}]"),
                    "commit instruction sources a receive slot; commits run after the \
                     sweep barrier, when the snapshot no longer reflects neighbor state"
                        .to_string(),
                ));
            }
        }
    }
    findings
}
