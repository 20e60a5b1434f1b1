//! Translation validation for the link-time optimizer.
//!
//! Every optimizer rewrite claims to be bitwise-transparent.  Until now
//! the only check was *dynamic* — the conformance harness runs optimized
//! and unoptimized streams and compares bits.  This module adds a static,
//! machine-checkable argument: a symbolic abstract interpretation of the
//! [`LinkedProgram`] instruction stream in which every arena element holds
//! an opaque `u64` *value hash* instead of an `f32`.
//!
//! * A `Fill` writes `hash(CONST, bits(v))`; each field's interior starts
//!   from a unique `hash(FIELD, field, pe, z)` (matching the engine's
//!   per-element initial conditions) and every other element from its
//!   buffer's splat `init`.
//! * `Add` and `Mul` combine hashes *commutatively* — f32 addition and
//!   multiplication commute bitwise, and the optimizer exploits exactly
//!   that (operand swaps in the mul/add peephole) — while `Sub` is
//!   order-dependent.  No rewrite relies on associativity, so none is
//!   granted: `a + (b + c)` and `(a + b) + c` hash differently.
//! * `Copy`/`Binary`/`Macs` use the engine's scratch semantics (all reads
//!   happen before any write), while `FusedMacs` is modelled as the
//!   one-pass in-place sweep it really is — so a fused sweep whose source
//!   overlaps its destination produces a *different* hash than the chain
//!   it replaced, which is precisely how an unsafe fusion is caught.
//!
//! [`observable_summary`] runs a bounded number of grid cycles — virtual
//! snapshot capture, pre/staging/recv/done sweeps per PE, then the
//! deferred commits, exactly the engine's canonical order — and collects
//! the hash of every observable (non-internal) field interior element.
//! Two streams with equal summaries perform the same dataflow on every
//! observable element; [`link`](crate::link) compares the summary of the
//! optimized stream with the unoptimized one's and, when they differ,
//! replays the optimizer pass by pass, reverting any pass that changes it
//! (diagnostic `E201`, counted in
//! [`OptStats::validator_rejections`](crate::link::OptStats)).
//!
//! # The witness grid
//!
//! The summary does not execute the program's `width × height` PEs.  Every
//! PE runs the same stream on the same initial arena (its own field leaves
//! apart), and a kernel's cross-PE reads see its neighbours' columns as
//! they stood when the kernel *started*, so within one kernel a value
//! moves at most `r_k = max(|dx|, |dy|)` PEs (the maximum over the
//! kernel's receive slots, read or not) along either axis, and within the
//! whole summary at most the **reach**
//!
//! ```text
//! R = cycles · Σ_k r_k        (cycles = timesteps clamped to 1..=3)
//! ```
//!
//! — a sum over kernels, because kernel `k + 1` forwards what kernel `k`
//! fetched.  So the symbolic value of an element of PE `(x, y)` is a term
//! over the leaves of the PEs within `R` of it, with the zero halo where
//! that square leaves the grid; and what the term looks like depends on
//! `(x, y)` only through how much of the square is cut off, i.e. through
//! the class
//!
//! ```text
//! (min(x, R), min(w−1−x, R), min(y, R), min(h−1−y, R)).
//! ```
//!
//! Two PEs of one class — in the same grid or in grids of different size
//! — hold the same term up to the translation between them, which renames
//! leaves injectively; and two streams' terms are equal exactly when
//! their renamed terms are.  A grid of `min(w, 2R+1) × min(h, 2R+1)` PEs
//! contains every class of the `w × h` one (per axis: the `R` left-edge
//! distances, the `R` right-edge ones, and one interior PE with `R` on
//! both sides) and no other, so two streams' summaries are equal on it if
//! and only if they are equal on the full grid: the same verdict, at a
//! cost of `O((2R+1)² · z · cycles)` per summary instead of
//! `O(w · h · z · cycles)`.  A comm-less program is validated on one PE, a
//! radius-1 Jacobian on 7 × 7 whatever the wafer.  Both streams of one
//! link share the slot list, hence the witness; streams whose reach
//! differed would get summaries of different length, which compare
//! unequal — the safe side.
//!
//! Scope: the model is sequential per kernel (snapshot, sweeps, commits).
//! Schedule-dependent hazards — a sweep writing a column a neighbor band
//! is concurrently reading — do not change this model's verdict; they are
//! the static race detector's department (`crates/analysis`, diagnostics
//! `E101`/`E102`).

use crate::link::{FusedInit, LinkedComm, LinkedInstr, LinkedKernel, LinkedProgram, SrcRef};
use crate::loader::BinKind;

const TAG_CONST: u64 = 0x9e37_79b9_7f4a_7c15;
const TAG_FIELD: u64 = 0xc2b2_ae3d_27d4_eb4f;
const TAG_ADD: u64 = 0x165667b19e3779f9;
const TAG_MUL: u64 = 0x27d4eb2f165667c5;
const TAG_SUB: u64 = 0x9e3779b185ebca87;

/// SplitMix64 finalizer: the avalanche behind every combination below.
fn mix(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Ordered combination (used for `Sub` and structured seeds).
fn h(tag: u64, a: u64, b: u64) -> u64 {
    mix(tag ^ mix(a).wrapping_add(mix(b).rotate_left(17)))
}

/// Commutative combination: symmetric in `a` and `b`, still tag-separated
/// and avalanched (xor and sum of the mixed operands are both symmetric).
fn hc(tag: u64, a: u64, b: u64) -> u64 {
    let (ma, mb) = (mix(a), mix(b));
    mix(tag ^ (ma ^ mb)) ^ mix(tag ^ ma.wrapping_add(mb))
}

/// The hash of a splat constant (`Fill` values, buffer `init`s, scalar
/// coefficients, the zero halo).  Keyed on the f32 *bits* so `0.0` and
/// `-0.0` — which the engine distinguishes bitwise — hash apart.
fn const_val(bits: u32) -> u64 {
    h(TAG_CONST, bits as u64, 0)
}

/// The unique hash of one field element's initial condition.
fn field_val(field: usize, pe: usize, z: usize) -> u64 {
    h(TAG_FIELD, h(TAG_FIELD, field as u64, pe as u64), z as u64)
}

/// `acc + src · k` for a coefficient already hashed by [`const_val`].
fn mac(acc: u64, src: u64, k: u64) -> u64 {
    hc(TAG_ADD, acc, hc(TAG_MUL, src, k))
}

/// Where a fused term's element `j` comes from, resolved once per sweep.
#[derive(Clone, Copy)]
enum TermSrc {
    /// Element `start + j` of the PE's own arena.
    Arena(usize),
    /// Element `start + j` of the snapshot buffer (a neighbour's column).
    Snap(usize),
    /// The zero halo: the neighbour lies outside the grid.
    Zero,
}

/// The symbolic grid — one `u64` per arena element per PE — and the
/// interpreter's temporaries, allocated once per summary.
struct AbstractGrid {
    vals: Vec<u64>,
    arena_len: usize,
    width: i64,
    height: i64,
    /// The running kernel's snapshot: for each PE, each snapped field's
    /// full column (`copy_len` captured elements, zero-hash tail).
    snaps: Vec<u64>,
    /// Gather buffer of the scratch-semantics instructions.
    tmp: Vec<u64>,
    /// The running sweep's terms: hashed coefficient and resolved source.
    terms: Vec<(u64, TermSrc)>,
}

impl AbstractGrid {
    fn initial(linked: &LinkedProgram, width: i64, height: i64) -> Self {
        let n_pes = (width * height) as usize;
        let mut vals = vec![0u64; n_pes * linked.arena_len];
        for pe in 0..n_pes {
            let arena = &mut vals[pe * linked.arena_len..][..linked.arena_len];
            for layout in &linked.layouts {
                arena[layout.base..layout.base + layout.len].fill(const_val(layout.init.to_bits()));
            }
            for (fi, id) in linked.field_ids.iter().enumerate() {
                let layout = &linked.layouts[id.0 as usize];
                let start = (linked.z_halo as usize).min(layout.len);
                let len = (linked.z_dim as usize).min(layout.len - start);
                for z in 0..len {
                    arena[layout.base + start + z] = field_val(fi, pe, z);
                }
            }
        }
        let (snaps, tmp, terms) = (Vec::new(), Vec::new(), Vec::new());
        Self { vals, arena_len: linked.arena_len, width, height, snaps, tmp, terms }
    }

    fn n_pes(&self) -> usize {
        (self.width * self.height) as usize
    }

    fn pe(&self, pe: usize) -> &[u64] {
        &self.vals[pe * self.arena_len..][..self.arena_len]
    }

    /// Captures the kernel's snapshot from the arenas before any of its
    /// sweeps — the canonical semantics for both the real capture and the
    /// capture-elided deferred-commit path.
    fn capture_snapshots(&mut self, comm: &LinkedComm) {
        let stride = comm.snap_fields.len() * comm.col_len;
        self.snaps.clear();
        self.snaps.resize(self.n_pes() * stride, const_val(0.0f32.to_bits()));
        if stride == 0 {
            return;
        }
        for (arena, snap) in
            self.vals.chunks_exact(self.arena_len).zip(self.snaps.chunks_exact_mut(stride))
        {
            for (f, col) in comm.snap_fields.iter().zip(snap.chunks_exact_mut(comm.col_len)) {
                col[..f.copy_len].copy_from_slice(&arena[f.src_base..][..f.copy_len]);
            }
        }
    }

    /// Start of the column PE `pe` receives through `slot`, in
    /// [`Self::snaps`]; `None` when that neighbour lies outside the grid.
    fn slot_column(&self, comm: &LinkedComm, slot: usize, pe: usize) -> Option<usize> {
        let spec = &comm.slots[slot];
        let (x, y) = (pe as i64 % self.width, pe as i64 / self.width);
        let (nx, ny) = (x.checked_add(spec.dx)?, y.checked_add(spec.dy)?);
        if nx < 0 || ny < 0 || nx >= self.width || ny >= self.height {
            return None;
        }
        let neighbor = (ny * self.width + nx) as usize;
        Some((neighbor * comm.snap_fields.len() + spec.snap_index) * comm.col_len)
    }

    /// Staged slots: copies this chunk's window of each neighbour column
    /// into the PE's receive buffer.
    fn stage_chunk(&mut self, comm: &LinkedComm, pe: usize, chunk_offset: usize) {
        for (slot, _) in comm.slots.iter().enumerate().filter(|(_, s)| s.staged) {
            let start = pe * self.arena_len + comm.recv_base + slot * comm.chunk_size;
            let column = self.slot_column(comm, slot, pe);
            let window = &mut self.vals[start..start + comm.chunk_size];
            match column {
                Some(col) => window.copy_from_slice(
                    &self.snaps[col..col + comm.col_len][chunk_offset..][..comm.chunk_size],
                ),
                None => window.fill(const_val(0.0f32.to_bits())),
            }
        }
    }

    /// Runs one instruction block for one PE at the given chunk offset.
    fn run_block(
        &mut self,
        kernel: &LinkedKernel,
        pe: usize,
        instrs: &[LinkedInstr],
        chunk_offset: usize,
    ) {
        for instr in instrs {
            // Resolve a sweep's terms before borrowing the arena: element
            // `j` of a slot source is element `offset + chunk_offset + j`
            // of the neighbour's transmitted column.
            if let LinkedInstr::FusedMacs { terms, .. } = instr {
                self.terms.clear();
                for term in terms {
                    let src = match &term.src {
                        SrcRef::Arena(view) => TermSrc::Arena(view.range(chunk_offset).start),
                        SrcRef::Slot { slot, offset, len } => {
                            let comm =
                                kernel.comm.as_ref().expect("slot read requires an exchange");
                            let first = *offset as usize + chunk_offset;
                            assert!(
                                first + *len as usize <= comm.col_len,
                                "slot read past its column"
                            );
                            self.slot_column(comm, *slot as usize, pe)
                                .map_or(TermSrc::Zero, |col| TermSrc::Snap(col + first))
                        }
                    };
                    self.terms.push((const_val(term.coeff.to_bits()), src));
                }
            }
            let Self { vals, snaps, tmp, terms, .. } = self;
            let arena = &mut vals[pe * self.arena_len..][..self.arena_len];
            match instr {
                LinkedInstr::Fill { dest, value } => {
                    arena[dest.range(chunk_offset)].fill(const_val(value.to_bits()));
                }
                LinkedInstr::Copy { dest, src } => {
                    // memmove semantics.
                    arena.copy_within(src.range(chunk_offset), dest.range(chunk_offset).start);
                }
                // Scratch semantics: gather every result, then write.
                LinkedInstr::Binary { kind, dest, a, b } => {
                    let (ra, rb) = (a.range(chunk_offset), b.range(chunk_offset));
                    tmp.clear();
                    tmp.extend(arena[ra].iter().zip(&arena[rb]).map(|(&va, &vb)| match kind {
                        BinKind::Add => hc(TAG_ADD, va, vb),
                        BinKind::Mul => hc(TAG_MUL, va, vb),
                        BinKind::Sub => h(TAG_SUB, va, vb),
                    }));
                    arena[dest.range(chunk_offset)].copy_from_slice(tmp);
                }
                LinkedInstr::Macs { dest, acc, src, coeff } => {
                    let (racc, rsrc) = (acc.range(chunk_offset), src.range(chunk_offset));
                    let k = const_val(coeff.to_bits());
                    tmp.clear();
                    tmp.extend(
                        arena[racc].iter().zip(&arena[rsrc]).map(|(&va, &vs)| mac(va, vs, k)),
                    );
                    arena[dest.range(chunk_offset)].copy_from_slice(tmp);
                }
                LinkedInstr::FusedMacs { dest, init, .. } => {
                    // One-pass in-place sweep: element j is written before
                    // element j+1 is computed, so an (illegally) overlapping
                    // source observes the sweep's own writes — and the
                    // summary diverges from the unfused chain's.
                    let rd = dest.range(chunk_offset);
                    for j in 0..dest.len as usize {
                        let mut v = match init {
                            FusedInit::Fill(c) => const_val(c.to_bits()),
                            FusedInit::Acc(a) => arena[a.range(chunk_offset).start + j],
                        };
                        for &(k, src) in terms.iter() {
                            let s = match src {
                                TermSrc::Arena(start) => arena[start + j],
                                TermSrc::Snap(start) => snaps[start + j],
                                TermSrc::Zero => const_val(0.0f32.to_bits()),
                            };
                            v = mac(v, s, k);
                        }
                        arena[rd.start + j] = v;
                    }
                }
            }
        }
    }

    /// Runs one full grid cycle (every kernel, every PE, commits last —
    /// the engine's canonical order).
    fn run_cycle(&mut self, linked: &LinkedProgram) {
        for kernel in &linked.kernels {
            if let Some(comm) = &kernel.comm {
                self.capture_snapshots(comm);
            }
            for pe in 0..self.n_pes() {
                self.run_block(kernel, pe, &kernel.pre, 0);
                if let Some(comm) = &kernel.comm {
                    for chunk in 0..comm.num_chunks {
                        let chunk_offset = chunk * comm.chunk_size;
                        self.stage_chunk(comm, pe, chunk_offset);
                        self.run_block(kernel, pe, &kernel.recv, chunk_offset);
                    }
                }
                self.run_block(kernel, pe, &kernel.done, 0);
            }
            // Deferred commits: after every PE's sweep, before the next
            // kernel (the run phase lags them by rows or a barrier; the
            // observable end state is this).
            for pe in 0..self.n_pes() {
                self.run_block(kernel, pe, &kernel.commit, 0);
            }
        }
    }
}

/// How many cycles the summary executes: enough for hidden state written
/// in one cycle to flow into observables two cycles later, bounded so
/// validation stays a link-time cost.  The stream is identical every
/// cycle, so divergence that can reach an observable element at all
/// reaches one within this window.
fn cycles(linked: &LinkedProgram) -> usize {
    linked.timesteps.clamp(1, 3) as usize
}

/// The observable dataflow summary of a linked stream: the symbolic value
/// of every non-internal field interior element after a bounded number of
/// cycles, in (field, PE, z) order.  Keyed by field *index*, not arena
/// offset, so the summary is invariant under arena coalescing and buffer
/// renaming — two streams compare equal iff they compute the same values,
/// not iff they use the same layout.
///
/// Runs on the witness grid of the module header, not on
/// `linked.width × linked.height`: equality of two streams' summaries is
/// the same verdict on either, and the witness costs a neighbourhood.
pub fn observable_summary(linked: &LinkedProgram) -> Vec<u64> {
    let (width, height) = witness_dims(linked);
    summary_on(linked, width, height)
}

/// How far, in PEs along either axis, a value can travel within the
/// summary: `cycles · Σ_k r_k` with `r_k = max(|dx|, |dy|)` over kernel
/// `k`'s receive slots (read or not — an unread slot only widens the
/// witness).
fn reach(linked: &LinkedProgram) -> u64 {
    let per_cycle = linked.kernels.iter().filter_map(|k| k.comm.as_ref()).fold(0u64, |sum, c| {
        let r = c.slots.iter().map(|s| s.dx.unsigned_abs().max(s.dy.unsigned_abs())).max();
        sum.saturating_add(r.unwrap_or(0))
    });
    per_cycle.saturating_mul(cycles(linked) as u64)
}

/// The witness grid: `min(w, 2R+1) × min(h, 2R+1)` for reach `R`.
fn witness_dims(linked: &LinkedProgram) -> (i64, i64) {
    let side = i64::try_from(reach(linked).saturating_mul(2).saturating_add(1)).unwrap_or(i64::MAX);
    (linked.width.min(side), linked.height.min(side))
}

/// [`observable_summary`] on an explicit `width × height` PE grid.  Only
/// the witness-equivalence tests call this with anything but the witness
/// dims (they pass the program's own, the pre-witness behaviour).
#[doc(hidden)]
pub fn summary_on(linked: &LinkedProgram, width: i64, height: i64) -> Vec<u64> {
    let mut grid = AbstractGrid::initial(linked, width, height);
    for _ in 0..cycles(linked) {
        grid.run_cycle(linked);
    }
    let n_pes = grid.n_pes();
    let mut summary = Vec::new();
    for (fi, id) in linked.field_ids.iter().enumerate() {
        if linked.field_internal.get(fi).copied().unwrap_or(false) {
            continue;
        }
        let layout = &linked.layouts[id.0 as usize];
        let start = layout.base + (linked.z_halo as usize).min(layout.len);
        let len = (linked.z_dim as usize).min(layout.base + layout.len - start);
        for pe in 0..n_pes {
            summary.extend_from_slice(&grid.pe(pe)[start..start + len]);
        }
    }
    summary
}

/// True when two linked streams of the *same source program* compute the
/// same observable dataflow (equal summaries).  Exposed for the analysis
/// crate and the conformance driver.
pub fn streams_equivalent(a: &LinkedProgram, b: &LinkedProgram) -> bool {
    observable_summary(a) == observable_summary(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_algebra_matches_f32_bitwise_algebra() {
        let (a, b, c) = (field_val(0, 0, 0), field_val(0, 0, 1), field_val(1, 3, 2));
        // Commutative where f32 is commutative bitwise...
        assert_eq!(hc(TAG_ADD, a, b), hc(TAG_ADD, b, a));
        assert_eq!(hc(TAG_MUL, a, b), hc(TAG_MUL, b, a));
        // ...ordered where it is not...
        assert_ne!(h(TAG_SUB, a, b), h(TAG_SUB, b, a));
        // ...and never associative (f32 rounding is order-dependent).
        assert_ne!(
            hc(TAG_ADD, a, hc(TAG_ADD, b, c)),
            hc(TAG_ADD, hc(TAG_ADD, a, b), c),
            "associativity must not hold"
        );
        // Ops and operands separate.
        assert_ne!(hc(TAG_ADD, a, b), hc(TAG_MUL, a, b));
        assert_ne!(const_val(0.0f32.to_bits()), const_val((-0.0f32).to_bits()));
        assert_ne!(field_val(0, 0, 0), field_val(0, 1, 0));
    }

    #[test]
    fn optimized_and_unoptimized_streams_summarize_equal() {
        use crate::link::{link_program_with, LinkOptions};
        use crate::loader::{BufferDecl, Instr, LoadedKernel, LoadedProgram, Src, ViewRef};
        let view = |buffer: &str, offset: i64, len: i64| ViewRef {
            buffer: buffer.into(),
            offset,
            dynamic: false,
            len,
        };
        let program = LoadedProgram {
            width: 2,
            height: 2,
            z_dim: 4,
            z_halo: 1,
            timesteps: 2,
            buffers: vec![
                BufferDecl { name: "a".into(), len: 6, init: 0.0 },
                BufferDecl { name: "acc".into(), len: 4, init: 0.0 },
            ],
            field_buffers: vec!["a".into()],
            internal_fields: Vec::new(),
            kernels: vec![LoadedKernel {
                name: "seq_kernel0".into(),
                pre: vec![
                    Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.25) },
                    Instr::Macs {
                        dest: view("acc", 0, 4),
                        acc: view("acc", 0, 4),
                        src: view("a", 0, 4),
                        coeff: 0.5,
                    },
                    Instr::Macs {
                        dest: view("acc", 0, 4),
                        acc: view("acc", 0, 4),
                        src: view("a", 2, 4),
                        coeff: -1.0,
                    },
                    Instr::Movs { dest: view("a", 1, 4), src: Src::View(view("acc", 0, 4)) },
                ],
                comm: None,
                recv: Vec::new(),
                done: Vec::new(),
            }],
        };
        let unopt =
            link_program_with(&program, &LinkOptions { optimize: false, ..LinkOptions::default() })
                .unwrap();
        let opt = link_program_with(
            &program,
            &LinkOptions { optimize: true, validate: false, ..LinkOptions::default() },
        )
        .unwrap();
        assert!(opt.stats.fused_chains > 0, "the chain must actually fuse: {:?}", opt.stats);
        assert!(streams_equivalent(&unopt, &opt));
    }
}
