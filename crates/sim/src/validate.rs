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
//! [`observable_summary`] runs a bounded number of full grid cycles —
//! virtual snapshot capture, pre/staging/recv/done sweeps per PE, then
//! the deferred commits, exactly the engine's canonical order — and
//! collects the hash of every observable (non-internal) field interior
//! element.  Two streams with equal summaries perform the same dataflow
//! on every observable element; [`link`](crate::link) re-checks the
//! summary after every optimizer pass and reverts any pass that changes
//! it (diagnostic `E201`, counted in
//! [`OptStats::validator_rejections`](crate::link::OptStats)).
//!
//! Scope: the model is sequential per kernel (snapshot, sweeps, commits).
//! Schedule-dependent hazards — a sweep writing a column a neighbor band
//! is concurrently reading — do not change this model's verdict; they are
//! the static race detector's department (`crates/analysis`, diagnostics
//! `E101`/`E102`).

use crate::link::{FusedInit, LinkedInstr, LinkedKernel, LinkedProgram, SrcRef};
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

fn mac(acc: u64, src: u64, coeff: f32) -> u64 {
    hc(TAG_ADD, acc, hc(TAG_MUL, src, const_val(coeff.to_bits())))
}

/// The symbolic grid: one `u64` per arena element per PE.
struct AbstractGrid {
    vals: Vec<u64>,
    arena_len: usize,
    width: i64,
    height: i64,
}

impl AbstractGrid {
    fn initial(linked: &LinkedProgram) -> Self {
        let n_pes = (linked.width * linked.height) as usize;
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
        Self { vals, arena_len: linked.arena_len, width: linked.width, height: linked.height }
    }

    fn pe(&self, pe: usize) -> &[u64] {
        &self.vals[pe * self.arena_len..][..self.arena_len]
    }

    fn pe_mut(&mut self, pe: usize) -> &mut [u64] {
        &mut self.vals[pe * self.arena_len..][..self.arena_len]
    }
}

/// Per-kernel snapshot: for each PE, each snapped field's full column
/// (`copy_len` captured elements, zero-hash tail), captured from the
/// arenas before any sweep of the kernel — the canonical semantics for
/// both the real capture and the capture-elided deferred-commit path.
fn capture_snapshots(grid: &AbstractGrid, kernel: &LinkedKernel) -> Vec<Vec<Vec<u64>>> {
    let Some(comm) = &kernel.comm else { return Vec::new() };
    let n_pes = (grid.width * grid.height) as usize;
    let zero = const_val(0.0f32.to_bits());
    (0..n_pes)
        .map(|pe| {
            comm.snap_fields
                .iter()
                .map(|f| {
                    let mut col = vec![zero; comm.col_len];
                    col[..f.copy_len].copy_from_slice(&grid.pe(pe)[f.src_base..][..f.copy_len]);
                    col
                })
                .collect()
        })
        .collect()
}

/// Runs one instruction block for one PE at the given chunk offset.
fn run_block(
    grid: &mut AbstractGrid,
    snaps: &[Vec<Vec<u64>>],
    kernel: &LinkedKernel,
    x: i64,
    y: i64,
    instrs: &[LinkedInstr],
    chunk_offset: usize,
) {
    let pe = (y * grid.width + x) as usize;
    let zero = const_val(0.0f32.to_bits());
    // Resolves a fused term's slot source: element `i` of the neighbor's
    // transmitted column window (zero hashes outside the grid).
    let slot_elem = |grid: &AbstractGrid, slot: u32, offset: u32, i: usize| -> u64 {
        let comm = kernel.comm.as_ref().expect("slot read requires an exchange");
        let spec = &comm.slots[slot as usize];
        let (nx, ny) = (x + spec.dx, y + spec.dy);
        if nx < 0 || ny < 0 || nx >= grid.width || ny >= grid.height {
            return zero;
        }
        let neighbor = (ny * grid.width + nx) as usize;
        snaps[neighbor][spec.snap_index][offset as usize + chunk_offset + i]
    };
    for instr in instrs {
        match instr {
            LinkedInstr::Fill { dest, value } => {
                let v = const_val(value.to_bits());
                grid.pe_mut(pe)[dest.range(chunk_offset)].fill(v);
            }
            LinkedInstr::Copy { dest, src } => {
                // memmove semantics: gather, then write.
                let tmp: Vec<u64> = grid.pe(pe)[src.range(chunk_offset)].to_vec();
                grid.pe_mut(pe)[dest.range(chunk_offset)].copy_from_slice(&tmp);
            }
            LinkedInstr::Binary { kind, dest, a, b } => {
                let arena = grid.pe(pe);
                let (ra, rb) = (a.range(chunk_offset), b.range(chunk_offset));
                let tmp: Vec<u64> = (0..dest.len as usize)
                    .map(|i| {
                        let (va, vb) = (arena[ra.start + i], arena[rb.start + i]);
                        match kind {
                            BinKind::Add => hc(TAG_ADD, va, vb),
                            BinKind::Mul => hc(TAG_MUL, va, vb),
                            BinKind::Sub => h(TAG_SUB, va, vb),
                        }
                    })
                    .collect();
                grid.pe_mut(pe)[dest.range(chunk_offset)].copy_from_slice(&tmp);
            }
            LinkedInstr::Macs { dest, acc, src, coeff } => {
                let arena = grid.pe(pe);
                let (racc, rsrc) = (acc.range(chunk_offset), src.range(chunk_offset));
                let tmp: Vec<u64> = (0..dest.len as usize)
                    .map(|i| mac(arena[racc.start + i], arena[rsrc.start + i], *coeff))
                    .collect();
                grid.pe_mut(pe)[dest.range(chunk_offset)].copy_from_slice(&tmp);
            }
            LinkedInstr::FusedMacs { dest, init, terms } => {
                // One-pass in-place sweep: element j is written before
                // element j+1 is computed, so an (illegally) overlapping
                // source observes the sweep's own writes — and the
                // summary diverges from the unfused chain's.
                let rd = dest.range(chunk_offset);
                for j in 0..dest.len as usize {
                    let mut v = match init {
                        FusedInit::Fill(c) => const_val(c.to_bits()),
                        FusedInit::Acc(a) => grid.pe(pe)[a.range(chunk_offset).start + j],
                    };
                    for term in terms {
                        let s = match &term.src {
                            SrcRef::Arena(view) => grid.pe(pe)[view.range(chunk_offset).start + j],
                            SrcRef::Slot { slot, offset, .. } => slot_elem(grid, *slot, *offset, j),
                        };
                        v = mac(v, s, term.coeff);
                    }
                    grid.pe_mut(pe)[rd.start + j] = v;
                }
            }
        }
    }
}

/// Runs one full grid cycle (every kernel, every PE, commits last —
/// the engine's canonical order).
fn run_cycle(grid: &mut AbstractGrid, linked: &LinkedProgram) {
    let n_pes = (linked.width * linked.height) as usize;
    for kernel in &linked.kernels {
        let snaps = capture_snapshots(grid, kernel);
        for pe in 0..n_pes {
            let (x, y) = ((pe as i64) % linked.width, (pe as i64) / linked.width);
            run_block(grid, &snaps, kernel, x, y, &kernel.pre, 0);
            if let Some(comm) = &kernel.comm {
                for chunk in 0..comm.num_chunks {
                    let chunk_offset = chunk * comm.chunk_size;
                    // Staged slots: copy this chunk's window of the
                    // neighbor column into the receive buffer.
                    for (slot, spec) in comm.slots.iter().enumerate() {
                        if !spec.staged {
                            continue;
                        }
                        let window: Vec<u64> = (0..comm.chunk_size)
                            .map(|i| {
                                let (nx, ny) = (x + spec.dx, y + spec.dy);
                                if nx < 0 || ny < 0 || nx >= grid.width || ny >= grid.height {
                                    const_val(0.0f32.to_bits())
                                } else {
                                    let neighbor = (ny * grid.width + nx) as usize;
                                    snaps[neighbor][spec.snap_index][chunk_offset + i]
                                }
                            })
                            .collect();
                        let start = comm.recv_base + slot * comm.chunk_size;
                        grid.pe_mut(pe)[start..start + comm.chunk_size].copy_from_slice(&window);
                    }
                    run_block(grid, &snaps, kernel, x, y, &kernel.recv, chunk_offset);
                }
            }
            run_block(grid, &snaps, kernel, x, y, &kernel.done, 0);
        }
        // Deferred commits: after every PE's sweep, before the next
        // kernel (the run phase lags them by rows or a barrier; the
        // observable end state is this).
        for pe in 0..n_pes {
            let (x, y) = ((pe as i64) % linked.width, (pe as i64) / linked.width);
            run_block(grid, &snaps, kernel, x, y, &kernel.commit, 0);
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
pub fn observable_summary(linked: &LinkedProgram) -> Vec<u64> {
    let mut grid = AbstractGrid::initial(linked);
    for _ in 0..cycles(linked) {
        run_cycle(&mut grid, linked);
    }
    let n_pes = (linked.width * linked.height) as usize;
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
