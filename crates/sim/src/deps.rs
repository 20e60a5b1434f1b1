//! The dependence core: the one place that turns a [`LinkedProgram`] into
//! dependence facts.
//!
//! Every PE runs the same stream over its own arena, so one model serves
//! the whole grid.  Three layers, each with a single spelling:
//!
//! * **operands** — [`LinkedInstr::operands`] is the only per-variant
//!   match that says what an instruction writes, which arena views it
//!   reads, and whether it also reads a receive slot;
//! * **events** — [`cycle_events`] walks one program cycle in the engine's
//!   per-PE order (per kernel: the transmitted-column reads, `pre`, the
//!   staged receive copies, `recv`, `done`, `commit`; then the observable
//!   fields) and records each step's read and write [`Span`]s.  Dynamic
//!   views are widened by the largest chunk offset inside `recv` and taken
//!   at offset 0 everywhere else, so the model is conservative: a missing
//!   overlap proves independence;
//! * **queries** — interval predicates ([`overlaps`], [`views_disjoint`]),
//!   liveness ([`dead_after`]), reaching definitions
//!   ([`reaching_writes`]), chunk-carried dependences ([`chunk_carried`])
//!   and the classic edge set ([`edges`]).
//!
//! The link-time optimizer ([`crate::link`]), the kernel planner
//! ([`crate::plan`]) and the static analyzer (`wse-analysis`: the
//! dependence-DAG view and the race detector) all ask this module.  The
//! translation validator ([`crate::validate`]) deliberately does not: it
//! re-derives dataflow by symbolic execution so that a mistake here is
//! caught by an oracle that shares none of it.

use crate::link::{FusedInit, LinkedInstr, LinkedProgram, LinkedView, SrcRef};

/// A half-open arena interval `[start, end)`.
pub type Span = (usize, usize);

/// Whether two spans share an element.
pub fn overlaps(a: Span, b: Span) -> bool {
    a.0 < b.1 && b.0 < a.1
}

/// True when the two views cannot touch a common arena element at any
/// chunk offset up to `max_dyn`.
pub fn views_disjoint(a: &LinkedView, b: &LinkedView, max_dyn: usize) -> bool {
    !overlaps(a.span(max_dyn), b.span(max_dyn))
}

/// What one instruction touches.
#[derive(Debug)]
pub struct Operands<'a> {
    /// The view written.
    pub dest: &'a LinkedView,
    /// The arena views read (an accumulator first, then sources in order).
    pub reads: Vec<&'a LinkedView>,
    /// Whether a term reads a receive slot — a neighbour's transmitted
    /// column, which is not an arena view of this PE.
    pub slot_src: bool,
}

impl LinkedInstr {
    /// The instruction's destination, arena reads and slot-source flag.
    pub fn operands(&self) -> Operands<'_> {
        let (reads, slot_src) = match self {
            LinkedInstr::Fill { .. } => (Vec::new(), false),
            LinkedInstr::Copy { src, .. } => (vec![src], false),
            LinkedInstr::Binary { a, b, .. } => (vec![a, b], false),
            LinkedInstr::Macs { acc, src, .. } => (vec![acc, src], false),
            LinkedInstr::FusedMacs { init, terms, .. } => {
                let mut reads = Vec::with_capacity(terms.len() + 1);
                if let FusedInit::Acc(acc) = init {
                    reads.push(acc);
                }
                reads.extend(terms.iter().filter_map(|t| match &t.src {
                    SrcRef::Arena(view) => Some(view),
                    SrcRef::Slot { .. } => None,
                }));
                (reads, terms.iter().any(|t| matches!(t.src, SrcRef::Slot { .. })))
            }
        };
        Operands { dest: self.dest(), reads, slot_src }
    }
}

/// Which phase of a kernel an event belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Block {
    /// The exchange machinery (transmitted-column reads, staged copies)
    /// and the observable-field read.
    #[default]
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

impl Block {
    /// The phase's name as diagnostics and graph labels spell it.
    pub fn name(self) -> &'static str {
        match self {
            Block::Exchange => "exchange",
            Block::Pre => "pre",
            Block::Recv => "recv",
            Block::Done => "done",
            Block::Commit => "commit",
        }
    }
}

/// What an event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EventKind {
    /// The point at which neighbours observe this PE's transmitted
    /// columns: the pre-sweep capture, or — with the capture elided — the
    /// live columns the capture would have copied.  One per exchange.
    Snapshot,
    /// The staged copy of one receive slot's window into the receive
    /// buffer (runs once per chunk).
    Staging,
    /// One instruction of a kernel block.
    Instr,
    /// The trailing read of every observable field interior: fields are
    /// visible between any two timesteps.  Internal double-buffer fields
    /// are not, so the explicit events describe their liveness fully.
    #[default]
    Observe,
}

/// One step of the program cycle.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Event {
    /// What the step is.
    pub kind: EventKind,
    /// Kernel index in execution order (`kernels.len()` for
    /// [`EventKind::Observe`]).
    pub kernel: usize,
    /// Phase the step belongs to.
    pub block: Block,
    /// Instruction (or slot) index within the phase.
    pub index: usize,
    /// Spans the step may read.
    pub reads: Vec<Span>,
    /// Span the step may write.
    pub write: Option<Span>,
    /// Whether the write fully covers its span on every execution
    /// (dynamic writes shift per chunk, so they never cover).
    pub covers: bool,
    /// Whether the step also reads cross-PE data (a neighbour's column).
    pub halo: bool,
    /// Whether the step runs once per chunk of a multi-chunk exchange
    /// (the staged copies and the `recv` block), i.e. inside a loop.
    pub repeats: bool,
}

/// Flattens `linked` into the events of one program cycle, in the order
/// each PE executes them.  The per-chunk part of a kernel — the staged
/// copies and `recv` — appears once, flagged [`Event::repeats`] when the
/// exchange has several chunks; the queries below follow that loop.
pub fn cycle_events(linked: &LinkedProgram) -> Vec<Event> {
    let mut events = Vec::new();
    for (k, kernel) in linked.kernels.iter().enumerate() {
        if let Some(comm) = &kernel.comm {
            let columns =
                comm.snap_fields.iter().map(|f| (f.src_base, f.src_base + f.copy_len)).collect();
            let kind = EventKind::Snapshot;
            events.push(Event { kind, kernel: k, reads: columns, ..Event::default() });
        }
        let repeats = kernel.comm.as_ref().is_some_and(|c| c.num_chunks > 1);
        // Without an exchange there is no chunk to receive: neither the
        // engine nor the validator ever runs such a kernel's `recv`.
        let recv: &[LinkedInstr] = if kernel.comm.is_some() { &kernel.recv } else { &[] };
        let blocks = [
            (Block::Pre, &kernel.pre[..], 0, false),
            (Block::Recv, recv, kernel.max_dyn(), repeats),
            (Block::Done, &kernel.done[..], 0, false),
            (Block::Commit, &kernel.commit[..], 0, false),
        ];
        for (block, instrs, max_dyn, repeats) in blocks {
            if let (Block::Recv, Some(comm)) = (block, &kernel.comm) {
                for (slot, _) in comm.slots.iter().enumerate().filter(|(_, s)| s.staged) {
                    let start = comm.recv_base + slot * comm.chunk_size;
                    events.push(Event {
                        kind: EventKind::Staging,
                        kernel: k,
                        index: slot,
                        write: Some((start, start + comm.chunk_size)),
                        covers: true,
                        halo: true,
                        repeats,
                        ..Event::default()
                    });
                }
            }
            for (i, instr) in instrs.iter().enumerate() {
                let ops = instr.operands();
                events.push(Event {
                    kind: EventKind::Instr,
                    kernel: k,
                    block,
                    index: i,
                    reads: ops.reads.iter().map(|v| v.span(max_dyn)).collect(),
                    write: Some(ops.dest.span(max_dyn)),
                    covers: !ops.dest.dynamic,
                    halo: ops.slot_src,
                    repeats,
                });
            }
        }
    }
    let observable = linked
        .field_ids
        .iter()
        .zip(&linked.field_internal)
        .filter(|&(_, &internal)| !internal)
        .map(|(id, _)| {
            let layout = &linked.layouts[id.0 as usize];
            let start = layout.base + (linked.z_halo as usize).min(layout.len);
            (start, (start + linked.z_dim as usize).min(layout.base + layout.len))
        })
        .collect();
    events.push(Event { kernel: linked.kernels.len(), reads: observable, ..Event::default() });
    events
}

/// The chunk loop `events[at]` runs in — its kernel's staged copies and
/// `recv` block, when they repeat — or an empty range.
fn chunk_loop(events: &[Event], at: usize) -> std::ops::Range<usize> {
    let inside = |e: &Event| e.repeats && e.kernel == events[at].kernel;
    let start = at - events[..at].iter().rev().take_while(|e| inside(e)).count();
    let end = at + events[at..].iter().take_while(|e| inside(e)).count();
    start..end
}

fn covered_by(event: &Event, range: Span) -> bool {
    event.covers && event.write.is_some_and(|w| w.0 <= range.0 && w.1 >= range.1)
}

/// True when a write to `range` issued by `events[after]` is never
/// observed: the range is fully overwritten before any overlapping read
/// on every way execution can continue — around the cycle and, from
/// inside a chunk loop, also into the next chunk (the rest of the loop
/// body, then the body again from its top).
pub fn dead_after(events: &[Event], after: usize, range: Span) -> bool {
    let read_first = |path: &mut dyn Iterator<Item = usize>| {
        for event in path.map(|pos| &events[pos]) {
            if event.reads.iter().any(|&r| overlaps(r, range)) {
                return true;
            }
            if covered_by(event, range) {
                return false;
            }
        }
        false
    };
    let (n, body) = (events.len(), chunk_loop(events, after));
    let mut next_chunk = (after + 1..body.end).chain(body.start..=after);
    let mut onward = (1..=n).map(|step| (after + step) % n);
    (body.is_empty() || !read_first(&mut next_chunk)) && !read_first(&mut onward)
}

/// The events whose write may reach a read of `range` issued by
/// `events[at]`: walking backwards — around the cycle and, from inside a
/// chunk loop, also through the previous chunk — every overlapping write
/// up to and including the first that covers the range.
pub fn reaching_writes(events: &[Event], at: usize, range: Span) -> Vec<usize> {
    let mut reaching = Vec::new();
    let mut walk = |path: &mut dyn Iterator<Item = usize>| {
        for pos in path {
            if events[pos].write.is_some_and(|w| overlaps(w, range)) && !reaching.contains(&pos) {
                reaching.push(pos);
            }
            if covered_by(&events[pos], range) {
                break;
            }
        }
    };
    let (n, body) = (events.len(), chunk_loop(events, at));
    walk(&mut (body.start..at).rev().chain((at..body.end).rev()));
    walk(&mut (1..=n).map(|step| (at + n - step) % n));
    reaching
}

/// Whether a dependence is carried between chunks of `kernel`'s `recv`
/// block: some `recv` write lands on the same elements in every chunk (a
/// static destination), or overlaps another `recv` operand placed
/// differently.  Equal spans that advance with the chunk address the same
/// window within each chunk; any other overlap means a chunk observes, or
/// clobbers, what a neighbouring chunk wrote.
pub fn chunk_carried(events: &[Event], kernel: usize) -> bool {
    let recv: Vec<&Event> = events
        .iter()
        .filter(|e| e.kernel == kernel && e.block == Block::Recv && e.kind == EventKind::Instr)
        .collect();
    recv.iter().any(|writer| {
        let Some(w) = writer.write else { return false };
        let operands = recv.iter().flat_map(|e| e.reads.iter().copied().chain(e.write));
        writer.covers || operands.into_iter().any(|operand| operand != w && overlaps(operand, w))
    })
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
    /// Ordering against the transmitted-column snapshot (a sweep write
    /// into a captured column is only safe *because* the capture happened
    /// first).
    Snapshot,
    /// Cross-PE halo data motion: a staged copy or direct slot read
    /// sourcing a neighbour's column.
    Halo,
}

/// One dependence edge, `from` strictly before `to` in program order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Earlier event (index into the event slice).
    pub from: usize,
    /// Later event.
    pub to: usize,
    /// Dependence kind.
    pub kind: EdgeKind,
}

/// The dependence edges among `events`: every overlapping write/read,
/// read/write and write/write pair in program order (tagged
/// [`EdgeKind::Snapshot`] when one end is a snapshot event), then one
/// [`EdgeKind::Halo`] edge from a kernel's snapshot event to each of its
/// events that read cross-PE data.  Exact over spans — a stream is a few
/// dozen events, so the quadratic scan is the simple choice.
pub fn edges(events: &[Event]) -> Vec<Edge> {
    let mut edges = Vec::new();
    let mut halo = Vec::new();
    let mut snapshot = None;
    for (j, b) in events.iter().enumerate() {
        if b.kind == EventKind::Snapshot {
            snapshot = Some(j);
        } else if let Some(s) = snapshot.filter(|&s| b.halo && events[s].kernel == b.kernel) {
            halo.push(Edge { from: s, to: j, kind: EdgeKind::Halo });
        }
        for (i, a) in events[..j].iter().enumerate() {
            let snapshotty = a.kind == EventKind::Snapshot || b.kind == EventKind::Snapshot;
            let mut edge = |base| {
                let kind = if snapshotty { EdgeKind::Snapshot } else { base };
                edges.push(Edge { from: i, to: j, kind });
            };
            if let Some(w) = a.write {
                if b.reads.iter().any(|&r| overlaps(w, r)) {
                    edge(EdgeKind::Raw);
                }
                if b.write.is_some_and(|wb| overlaps(w, wb)) {
                    edge(EdgeKind::Waw);
                }
            }
            if b.write.is_some_and(|wb| a.reads.iter().any(|&r| overlaps(wb, r))) {
                edge(EdgeKind::War);
            }
        }
    }
    edges.extend(halo);
    edges
}

#[cfg(test)]
mod tests {
    use super::*;

    fn instr(index: usize, reads: &[Span], write: Span, covers: bool) -> Event {
        let (kind, block) = (EventKind::Instr, Block::Recv);
        Event {
            kind,
            block,
            index,
            reads: reads.to_vec(),
            write: Some(write),
            covers,
            ..Event::default()
        }
    }

    #[test]
    fn liveness_and_reaching_definitions_walk_the_cycle() {
        let events = vec![
            instr(0, &[], (0, 4), true),        // covers [0, 4)
            instr(1, &[], (2, 6), false),       // partial, shifting write
            instr(2, &[(0, 4)], (8, 12), true), // reads [0, 4)
        ];
        // The read at 2 sees the partial write and the cover behind it.
        assert_eq!(reaching_writes(&events, 2, (0, 4)), vec![1, 0]);
        // Event 0's write is read at 2; event 2's write is never read and
        // is covered again by itself one cycle later.
        assert!(!dead_after(&events, 0, (0, 4)));
        assert!(dead_after(&events, 2, (8, 12)));
        // A shifting write never kills: [2, 6) stays live into the read.
        assert!(!dead_after(&events, 1, (2, 6)));
    }

    /// A kernel without an exchange never runs its `recv` block, so the
    /// block contributes no event — and a buffer only it names is dead:
    /// the optimizer drops it and the engine still runs the stream.
    #[test]
    fn recv_of_a_kernel_without_an_exchange_is_no_event() {
        use crate::link::{link_program_with, LinkOptions};
        use crate::loader::{BufferDecl, Instr, LoadedKernel, LoadedProgram, Src, ViewRef};
        let view =
            |buffer: &str| ViewRef { buffer: buffer.into(), offset: 0, dynamic: false, len: 4 };
        let fill = |buffer: &str, v| Instr::Movs { dest: view(buffer), src: Src::Scalar(v) };
        let program = LoadedProgram {
            width: 2,
            height: 1,
            z_dim: 4,
            z_halo: 0,
            timesteps: 1,
            buffers: ["a", "ghost"]
                .map(|name| BufferDecl { name: name.into(), len: 4, init: 0.0 })
                .to_vec(),
            field_buffers: vec!["a".into()],
            internal_fields: Vec::new(),
            kernels: vec![LoadedKernel {
                name: "seq_kernel0".into(),
                pre: vec![fill("a", 1.0)],
                comm: None,
                recv: vec![fill("ghost", 2.0), fill("a", 3.0)],
                done: Vec::new(),
            }],
        };
        let link = |optimize| {
            let options = LinkOptions { optimize, validate: true, ..LinkOptions::default() };
            link_program_with(&program, &options).unwrap()
        };
        let events = cycle_events(&link(false));
        let blocks: Vec<Block> =
            events.iter().filter(|e| e.kind == EventKind::Instr).map(|e| e.block).collect();
        assert_eq!(blocks, [Block::Pre], "{events:?}");

        let optimized = link(true);
        assert_eq!(optimized.stats.buffers_coalesced, 1, "{:?}", optimized.stats);
        assert!(optimized.stats.rejected_passes.is_empty(), "{:?}", optimized.stats);
        let mut sim = crate::WseGridSim::with_options(program.clone(), LinkOptions::default())
            .expect("links");
        sim.run(None).expect("runs");
        let state = sim.grid_state().expect("state");
        assert!(state.fields[0].data.iter().all(|&v| v == 1.0), "{state:?}");
    }

    #[test]
    fn chunk_carried_needs_a_static_write_or_a_shifted_overlap() {
        let same_base =
            vec![instr(0, &[(20, 28)], (0, 8), false), instr(1, &[(0, 8)], (10, 18), false)];
        assert!(!chunk_carried(&same_base, 0));
        let shifted =
            vec![instr(0, &[(20, 28)], (0, 8), false), instr(1, &[(1, 9)], (10, 18), false)];
        assert!(chunk_carried(&shifted, 0));
        assert!(!chunk_carried(&shifted, 1), "other kernels are not consulted");
        let accumulator = vec![instr(0, &[(0, 4), (20, 28)], (0, 4), true)];
        assert!(chunk_carried(&accumulator, 0), "a static destination carries its value");
    }
}
