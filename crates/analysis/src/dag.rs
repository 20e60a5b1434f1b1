//! The dependence DAG of a linked instruction stream.
//!
//! Every PE executes the same per-kernel blocks over its own arena, so
//! one graph describes the whole grid: nodes are the events of one
//! program cycle — per kernel the snapshot capture, the staged receive
//! copies, then every instruction of the `pre`/`recv`/`done`/`commit`
//! blocks — and edges are the classic dependence kinds over arena
//! element intervals:
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
//! present edge only suspects a dependence.  This direction is what both
//! consumers need — the race detector ([`crate::race`]) rejects on
//! suspected cross-band conflicts, and the future DAG *scheduler* (the
//! ROADMAP item this substrate serves) may only reorder events with no
//! path between them.

use wse_sim::link::{FusedInit, LinkedInstr, LinkedProgram, SrcRef};

/// What a graph node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The pre-sweep capture of every transmitted column (one node per
    /// kernel with a retained capture).
    Snapshot,
    /// The staged copy of one receive slot's column window into the
    /// receive buffer (runs once per chunk; widened to the full window).
    Staging,
    /// One instruction of a kernel block.
    Instr,
}

/// Which phase of a kernel an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Block {
    /// The exchange machinery (snapshot capture, staged copies).
    Exchange,
    /// The kernel body (`pre`).
    Pre,
    /// The per-chunk receive block (`recv`).
    Recv,
    /// The once-per-kernel completion block (`done`).
    Done,
    /// The deferred write-back block (`commit`).
    Commit,
}

/// One event of the program cycle.
#[derive(Debug, Clone)]
pub struct DepNode {
    /// What the event is.
    pub kind: NodeKind,
    /// Kernel index in execution order.
    pub kernel: usize,
    /// Phase the event belongs to.
    pub block: Block,
    /// Instruction (or slot) index within the phase.
    pub index: usize,
    /// Arena intervals the event may read, as `[start, end)` pairs.
    pub reads: Vec<(usize, usize)>,
    /// Arena interval the event may write.
    pub write: Option<(usize, usize)>,
    /// Whether the event also reads cross-PE data (a neighbor's column).
    pub halo: bool,
    /// Short display label (`"k0/pre[2] FusedMacs"`).
    pub label: String,
}

/// The dependence kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Read-after-write: the later event reads what the earlier wrote.
    Raw,
    /// Write-after-read: the later event overwrites what the earlier read.
    War,
    /// Write-after-write: both events write an overlapping range.
    Waw,
    /// Ordering against the pre-sweep snapshot capture.
    Snapshot,
    /// Cross-PE halo data motion out of a captured column.
    Halo,
}

/// One dependence edge, `from` strictly before `to` in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    /// Earlier event (node index).
    pub from: usize,
    /// Later event (node index).
    pub to: usize,
    /// Dependence kind.
    pub kind: EdgeKind,
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

/// Whether two half-open arena intervals share an element.
pub(crate) fn overlaps(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.1 && b.0 < a.1
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

fn instr_node(
    kernel_idx: usize,
    block: Block,
    index: usize,
    instr: &LinkedInstr,
    max_dyn: usize,
) -> DepNode {
    let mut reads = Vec::new();
    let mut halo = false;
    let write;
    match instr {
        LinkedInstr::Fill { dest, .. } => write = Some(dest.span(max_dyn)),
        LinkedInstr::Copy { dest, src } => {
            reads.push(src.span(max_dyn));
            write = Some(dest.span(max_dyn));
        }
        LinkedInstr::Binary { dest, a, b, .. } => {
            reads.push(a.span(max_dyn));
            reads.push(b.span(max_dyn));
            write = Some(dest.span(max_dyn));
        }
        LinkedInstr::Macs { dest, acc, src, .. } => {
            reads.push(acc.span(max_dyn));
            reads.push(src.span(max_dyn));
            write = Some(dest.span(max_dyn));
        }
        LinkedInstr::FusedMacs { dest, init, terms } => {
            if let FusedInit::Acc(acc) = init {
                reads.push(acc.span(max_dyn));
            }
            for term in terms {
                match &term.src {
                    SrcRef::Arena(view) => reads.push(view.span(max_dyn)),
                    SrcRef::Slot { .. } => halo = true,
                }
            }
            write = Some(dest.span(max_dyn));
        }
    }
    let phase = match block {
        Block::Pre => "pre",
        Block::Recv => "recv",
        Block::Done => "done",
        Block::Commit => "commit",
        Block::Exchange => "exchange",
    };
    DepNode {
        kind: NodeKind::Instr,
        kernel: kernel_idx,
        block,
        index,
        reads,
        write,
        halo,
        label: format!("k{kernel_idx}/{phase}[{index}] {}", instr_name(instr)),
    }
}

impl DepGraph {
    /// Builds the dependence DAG of one cycle of `linked`.
    pub fn build(linked: &LinkedProgram) -> Self {
        let mut nodes: Vec<DepNode> = Vec::new();
        // Snapshot node index per kernel, for snapshot/halo edge anchors.
        let mut snapshot_of: Vec<Option<usize>> = Vec::new();
        let mut halo_edges: Vec<DepEdge> = Vec::new();

        for (k, kernel) in linked.kernels.iter().enumerate() {
            let max_dyn = kernel.max_dyn();
            let snap = kernel.comm.as_ref().filter(|c| c.capture).map(|comm| {
                let reads = comm
                    .snap_fields
                    .iter()
                    .map(|f| (f.src_base, f.src_base + f.copy_len))
                    .collect();
                nodes.push(DepNode {
                    kind: NodeKind::Snapshot,
                    kernel: k,
                    block: Block::Exchange,
                    index: 0,
                    reads,
                    write: None,
                    halo: false,
                    label: format!("k{k}/snapshot"),
                });
                nodes.len() - 1
            });
            snapshot_of.push(snap);
            if let Some(comm) = &kernel.comm {
                for (slot, spec) in comm.slots.iter().enumerate() {
                    if !spec.staged {
                        continue;
                    }
                    let start = comm.recv_base + slot * comm.chunk_size;
                    nodes.push(DepNode {
                        kind: NodeKind::Staging,
                        kernel: k,
                        block: Block::Exchange,
                        index: slot,
                        reads: Vec::new(),
                        write: Some((start, start + comm.chunk_size)),
                        halo: true,
                        label: format!("k{k}/stage[{slot}] (dx {}, dy {})", spec.dx, spec.dy),
                    });
                    // The staged data comes out of a neighbor's captured
                    // column: cross-PE motion, anchored on the capture
                    // when one is retained.
                    if let Some(s) = snap {
                        halo_edges.push(DepEdge {
                            from: s,
                            to: nodes.len() - 1,
                            kind: EdgeKind::Halo,
                        });
                    }
                }
            }
            let blocks = [
                (Block::Pre, &kernel.pre),
                (Block::Recv, &kernel.recv),
                (Block::Done, &kernel.done),
                (Block::Commit, &kernel.commit),
            ];
            for (block, instrs) in blocks {
                for (i, instr) in instrs.iter().enumerate() {
                    let node = instr_node(k, block, i, instr, max_dyn);
                    if node.halo {
                        // Direct slot reads (staging elided) source the
                        // neighbor snapshot without an arena interval.
                        if let Some(s) = snap {
                            halo_edges.push(DepEdge {
                                from: s,
                                to: nodes.len(),
                                kind: EdgeKind::Halo,
                            });
                        }
                    }
                    nodes.push(node);
                }
            }
        }

        // Interval-overlap dependences over the whole cycle, in program
        // order.  Streams are a few dozen events, so O(n^2) is fine — and
        // exact, which a scheduler substrate should be.
        let mut edges = Vec::new();
        for j in 1..nodes.len() {
            for i in 0..j {
                let (a, b) = (&nodes[i], &nodes[j]);
                let snapshotty = a.kind == NodeKind::Snapshot || b.kind == NodeKind::Snapshot;
                let kind_of = |base: EdgeKind| if snapshotty { EdgeKind::Snapshot } else { base };
                if let Some(w) = a.write {
                    if b.reads.iter().any(|&r| overlaps(w, r)) {
                        edges.push(DepEdge { from: i, to: j, kind: kind_of(EdgeKind::Raw) });
                    }
                    if let Some(wb) = b.write {
                        if overlaps(w, wb) {
                            edges.push(DepEdge { from: i, to: j, kind: kind_of(EdgeKind::Waw) });
                        }
                    }
                }
                if let Some(wb) = b.write {
                    if a.reads.iter().any(|&r| overlaps(wb, r)) {
                        edges.push(DepEdge { from: i, to: j, kind: kind_of(EdgeKind::War) });
                    }
                }
            }
        }
        edges.extend(halo_edges);
        DepGraph { nodes, edges }
    }

    /// Edge totals by kind.
    pub fn counts(&self) -> DagCounts {
        let mut c = DagCounts { nodes: self.nodes.len(), ..DagCounts::default() };
        for e in &self.edges {
            match e.kind {
                EdgeKind::Raw => c.raw += 1,
                EdgeKind::War => c.war += 1,
                EdgeKind::Waw => c.waw += 1,
                EdgeKind::Snapshot => c.snapshot += 1,
                EdgeKind::Halo => c.halo += 1,
            }
        }
        c
    }

    /// All edges of one kind.
    pub fn edges_of(&self, kind: EdgeKind) -> impl Iterator<Item = &DepEdge> {
        self.edges.iter().filter(move |e| e.kind == kind)
    }
}
