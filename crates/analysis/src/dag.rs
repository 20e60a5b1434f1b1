//! The dependence DAG of a linked instruction stream: a view over the
//! dependence core's events ([`wse_sim::deps`]).
//!
//! Every PE executes the same per-kernel blocks over its own arena, so
//! one graph describes the whole grid.  The core walks one program cycle
//! and computes the edges; this module selects the node set a reader of
//! the graph wants — per kernel the *retained* snapshot capture, the
//! staged receive copies and every instruction of the
//! `pre`/`recv`/`done`/`commit` blocks (an elided capture and the
//! always-live read of the observable fields are liveness bookkeeping,
//! not nodes) — labels the nodes and counts the edges by kind:
//!
//! * [`EdgeKind::Raw`] / [`EdgeKind::War`] / [`EdgeKind::Waw`] — a later
//!   event reads/writes a range an earlier event wrote/read;
//! * [`EdgeKind::Snapshot`] — an ordering against the pre-sweep snapshot
//!   capture (a sweep write into a captured column is only safe *because*
//!   the capture happened first);
//! * [`EdgeKind::Halo`] — cross-PE data motion: a staged copy or direct
//!   slot read sourcing a neighbor's captured column.
//!
//! Dynamic (chunk-shifted) views are widened to their full sweep span, so
//! the graph is conservative: a missing edge proves independence, a
//! present edge only suspects a dependence.  The link-time optimizer asks
//! the same events the same questions, so what `wse-lint` prints is what
//! the optimizer saw; the future DAG *scheduler* (ROADMAP) may only
//! reorder events with no path between them.

use wse_sim::deps;
use wse_sim::link::{LinkedInstr, LinkedProgram};

pub use wse_sim::deps::{Block, Edge as DepEdge, EdgeKind, EventKind as NodeKind};

/// One node of the graph: an event of the program cycle — its kind,
/// kernel, block, index and the arena intervals it may read and write, all
/// reachable through `Deref` — plus a display label.
#[derive(Debug, Clone)]
pub struct DepNode {
    /// The core's event.
    pub event: deps::Event,
    /// Short display label (`"k0/pre[2] FusedMacs"`).
    pub label: String,
}

impl std::ops::Deref for DepNode {
    type Target = deps::Event;

    fn deref(&self) -> &deps::Event {
        &self.event
    }
}

/// Edge totals by kind, for reports and the bench table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DagCounts {
    /// Number of nodes.
    pub nodes: usize,
    /// Read-after-write edges.
    pub raw: usize,
    /// Write-after-read edges.
    pub war: usize,
    /// Write-after-write edges.
    pub waw: usize,
    /// Snapshot-ordering edges.
    pub snapshot: usize,
    /// Halo data-motion edges.
    pub halo: usize,
}

impl DagCounts {
    /// Total edges of any kind.
    pub fn edges(&self) -> usize {
        self.raw + self.war + self.waw + self.snapshot + self.halo
    }
}

/// The dependence DAG of one program cycle.
#[derive(Debug, Clone, Default)]
pub struct DepGraph {
    /// Events in program order.
    pub nodes: Vec<DepNode>,
    /// Dependence edges (each `from < to`).
    pub edges: Vec<DepEdge>,
}

fn instr_name(instr: &LinkedInstr) -> &'static str {
    match instr {
        LinkedInstr::Fill { .. } => "Fill",
        LinkedInstr::Copy { .. } => "Copy",
        LinkedInstr::Binary { .. } => "Binary",
        LinkedInstr::Macs { .. } => "Macs",
        LinkedInstr::FusedMacs { .. } => "FusedMacs",
    }
}

impl DepGraph {
    /// Builds the dependence DAG of one cycle of `linked`.
    pub fn build(linked: &LinkedProgram) -> Self {
        let mut events = deps::cycle_events(linked);
        // A retained capture is a node; an elided one, like the trailing
        // read of the observable fields, is liveness bookkeeping.
        events.retain(|e| match e.kind {
            NodeKind::Snapshot => linked.kernels[e.kernel].comm.as_ref().is_some_and(|c| c.capture),
            NodeKind::Staging | NodeKind::Instr => true,
            NodeKind::Observe => false,
        });
        let edges = deps::edges(&events);
        let nodes = events
            .into_iter()
            .map(|event| {
                let (k, i) = (event.kernel, event.index);
                let kernel = &linked.kernels[k];
                let label = match (event.kind, event.block) {
                    (NodeKind::Staging, _) => {
                        let spec = &kernel.comm.as_ref().expect("staging has an exchange").slots[i];
                        format!("k{k}/stage[{i}] (dx {}, dy {})", spec.dx, spec.dy)
                    }
                    (NodeKind::Instr, block) => {
                        let instrs = match block {
                            Block::Pre => &kernel.pre,
                            Block::Recv => &kernel.recv,
                            Block::Done => &kernel.done,
                            _ => &kernel.commit,
                        };
                        format!("k{k}/{}[{i}] {}", block.name(), instr_name(&instrs[i]))
                    }
                    _ => format!("k{k}/snapshot"),
                };
                DepNode { event, label }
            })
            .collect();
        DepGraph { nodes, edges }
    }

    /// Edge totals by kind.
    pub fn counts(&self) -> DagCounts {
        let of = |kind| self.edges_of(kind).count();
        DagCounts {
            nodes: self.nodes.len(),
            raw: of(EdgeKind::Raw),
            war: of(EdgeKind::War),
            waw: of(EdgeKind::Waw),
            snapshot: of(EdgeKind::Snapshot),
            halo: of(EdgeKind::Halo),
        }
    }

    /// All edges of one kind.
    pub fn edges_of(&self, kind: EdgeKind) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }
}
