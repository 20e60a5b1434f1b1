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
//! The detector states these invariants as rules of its own over the
//! stream's events ([`wse_sim::deps::cycle_events`]: the transmitted
//! intervals, each instruction's write span, which instructions read a
//! slot) — no execution, no knowledge of which pass produced the stream.  The conformance harness runs it
//! on every generated seed; the unit fixtures in `tests/static_analysis.rs`
//! pin hand-written racy and clean streams.

use wse_sim::deps::{self, overlaps, Block, EventKind};
use wse_sim::link::LinkedProgram;

use crate::Finding;

/// Runs every check over one linked stream.
pub fn check_stream(linked: &LinkedProgram) -> Vec<Finding> {
    let mut findings = Vec::new();
    let events = deps::cycle_events(linked);
    for (k, kernel) in linked.kernels.iter().enumerate() {
        let Some(comm) = &kernel.comm else { continue };
        let mut of_kernel = events.iter().filter(|e| e.kernel == k);
        // The exchange's first event reads exactly the transmitted columns.
        let snapped = &of_kernel.next().expect("an exchange has a snapshot event").reads;
        let instrs = of_kernel.filter(|e| e.kind == EventKind::Instr);
        let (commits, sweeps): (Vec<_>, Vec<_>) = instrs.partition(|e| e.block == Block::Commit);

        // E101 / W101: sweep-phase writes vs. transmitted columns.
        let mut sweep_touches_snapped = false;
        for event in sweeps {
            let w = event.write.expect("instructions write");
            let Some(range) = snapped.iter().find(|&&r| overlaps(w, r)) else { continue };
            sweep_touches_snapped = true;
            if !comm.capture {
                findings.push(Finding::new(
                    "E101",
                    format!("kernel {k}, {}[{}]", event.block.name(), event.index),
                    format!(
                        "writes arena [{}, {}) inside transmitted column [{}, {}) while \
                         the snapshot capture is elided: a neighbor band sweeping \
                         concurrently reads this live column",
                        w.0, w.1, range.0, range.1
                    ),
                ));
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
        for event in commits.iter().filter(|e| e.halo) {
            findings.push(Finding::new(
                "E102",
                format!("kernel {k}, commit[{}]", event.index),
                "commit instruction sources a receive slot; commits run after the \
                 sweep barrier, when the snapshot no longer reflects neighbor state"
                    .to_string(),
            ));
        }
    }
    findings
}
