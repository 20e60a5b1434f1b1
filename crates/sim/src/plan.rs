//! The kernel-plan compiler: lowers a [`LinkedProgram`]'s instruction
//! streams into flat per-block plans of monomorphized SIMD kernels from
//! [`crate::kernels`].
//!
//! Planning happens once, between link and run.  Each [`LinkedInstr`] is
//! resolved to a [`PlannedOp`] carrying a concrete kernel *function
//! pointer* — specialized per (operation, arity, init kind, instruction
//! set, FMA mode) — so the run phase dispatches a block with one match per
//! op and zero per-element decisions.  Three lowering rules do the work:
//!
//! - **Sweeps.** A [`LinkedInstr::FusedMacs`] of arity `≤`
//!   [`MAX_ARITY`] becomes a single [`SweepGroup`] whose row-batched
//!   kernel (the only sweep family — one call covers a run of PEs) is
//!   monomorphized for its exact arity and init kind.  Wider chains split
//!   into a head group (carrying the real init) followed by continuation
//!   groups that accumulate onto the destination (`AccSelf`), at most
//!   `MAX_ARITY` terms each — the per-element operation order is exactly
//!   that of the original chain, so results stay bitwise identical.
//! - **Scratch elision.** Unfused [`LinkedInstr::Binary`] /
//!   [`LinkedInstr::Macs`] ops historically computed into a scratch
//!   buffer and copied back, preserving read-all-then-write semantics for
//!   aliasing views.  The planner uses the dependence core's view arithmetic
//!   ([`views_disjoint`]) to prove, per source, that the view is either
//!   *exactly* the destination (elementwise in-place is then safe: element
//!   `j` reads only index `j`) or disjoint from it at every chunk offset —
//!   and marks the op [`direct`](PlannedOp::Binary::direct), skipping the
//!   round-trip.  Partially overlapping views keep the scratch path.
//! - **ISA selection.** The plan binds kernels from the widest instruction
//!   set the host supports ([`Isa::detect`]), or the scalar set when
//!   [`LinkedProgram::simd`] is off ([`crate::link::LinkOptions::simd`]).
//!   Either way the bits are identical; [`PlanCounts`] reports which path
//!   every op took so conformance and `wse-perf` can force and observe each.

use crate::deps::views_disjoint;
use crate::kernels::{kernel_set, Isa, KernelSet, MacsFn, MapFn, SweepRowFn, MAX_ARITY};
use crate::link::{FusedInit, FusedTerm, LinkedInstr, LinkedKernel, LinkedProgram, LinkedView};
use crate::loader::BinKind;

/// Observability counters of one planning run ([`ProgramPlan::counts`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Arithmetic ops bound to vector (AVX2) kernels.
    pub simd_planned: usize,
    /// Arithmetic ops bound to the portable scalar kernel set.
    pub simd_fallback: usize,
    /// `Binary`/`Macs` ops proven safe to run in place (no scratch
    /// round-trip).
    pub scratch_elided: usize,
}

/// The planned form of a whole program: phase 1.5 of the engine, between
/// [`crate::link`] and [`crate::exec`].
#[derive(Debug, Clone)]
pub struct ProgramPlan {
    /// The instruction set every kernel in the plan is compiled for.
    pub isa: Isa,
    /// Whether the plan uses contracted multiply-adds (tolerance-path
    /// only; see [`crate::link::LinkOptions::fast_fma`]).
    pub fast_fma: bool,
    /// One plan per linked kernel, in execution order.
    pub kernels: Vec<KernelPlan>,
    /// What the planner did.
    pub counts: PlanCounts,
}

/// The planned blocks of one kernel, parallel to [`LinkedKernel`]'s
/// `pre`/`recv`/`done`/`commit` instruction streams.
#[derive(Debug, Clone, Default)]
pub struct KernelPlan {
    /// Kernel body ops (chunk offset 0).
    pub pre: Vec<PlannedOp>,
    /// Receive-callback ops (run once per chunk at the chunk's offset).
    pub recv: Vec<PlannedOp>,
    /// Done-exchange ops (chunk offset 0).
    pub done: Vec<PlannedOp>,
    /// Deferred write-back ops (see [`LinkedKernel::commit`]).
    pub commit: Vec<PlannedOp>,
}

/// One planned operation: a resolved instruction plus the monomorphized
/// kernel that executes it.
#[derive(Debug, Clone)]
pub enum PlannedOp {
    /// `dest[i] = value` (memset; no kernel needed).
    Fill {
        /// Destination view.
        dest: LinkedView,
        /// Fill value.
        value: f32,
    },
    /// `dest[i] = src[i]` (memmove; overlap allowed, no kernel needed).
    Copy {
        /// Destination view.
        dest: LinkedView,
        /// Source view.
        src: LinkedView,
    },
    /// `dest[i] = a[i] <op> b[i]` through a [`MapFn`].
    Binary {
        /// The monomorphized elementwise kernel.
        kernel: MapFn,
        /// Destination view.
        dest: LinkedView,
        /// First source.
        a: LinkedView,
        /// Second source.
        b: LinkedView,
        /// Both sources proven exactly-equal-or-disjoint to `dest`: the
        /// kernel writes the destination directly instead of taking the
        /// scratch round-trip.
        direct: bool,
    },
    /// `dest[i] = acc[i] + src[i] * coeff` through a [`MacsFn`].
    Macs {
        /// The monomorphized multiply-accumulate kernel.
        kernel: MacsFn,
        /// Destination view.
        dest: LinkedView,
        /// Accumulator view.
        acc: LinkedView,
        /// Source view.
        src: LinkedView,
        /// Scalar coefficient.
        coeff: f32,
        /// Both sources proven exactly-equal-or-disjoint to `dest` (see
        /// [`PlannedOp::Binary::direct`]).
        direct: bool,
    },
    /// A fused reduction sweep: the head group carries the real init;
    /// continuation groups (arity > [`MAX_ARITY`] chains) accumulate onto
    /// the destination with unchanged per-element operation order.
    Sweep {
        /// Destination view.
        dest: LinkedView,
        /// Where element `j`'s running value starts.
        init: FusedInit,
        /// The monomorphized sweep calls, in chain order (never empty).
        groups: Box<[SweepGroup]>,
    },
}

/// One monomorphized sweep call of a planned [`PlannedOp::Sweep`].
#[derive(Debug, Clone)]
pub struct SweepGroup {
    /// The row-batched sweep kernel, specialized for this group's arity
    /// and init kind: the run phase calls it once per row segment where
    /// every source advances by a fixed per-PE stride, amortizing dispatch
    /// over the whole row.
    pub row_kernel: SweepRowFn,
    /// The multiply-accumulate terms this call applies (`len ≤
    /// MAX_ARITY`).
    pub terms: Box<[FusedTerm]>,
}

/// Lowers every kernel block of `linked` into planned SIMD ops.
pub fn plan_program(linked: &LinkedProgram) -> ProgramPlan {
    let isa = if linked.simd { Isa::detect() } else { Isa::Scalar };
    let set = kernel_set(isa, linked.fast_fma);
    let mut counts = PlanCounts::default();
    let kernels = linked.kernels.iter().map(|k| plan_kernel(k, set, &mut counts)).collect();
    ProgramPlan { isa: set.isa, fast_fma: set.fast_fma, kernels, counts }
}

fn plan_kernel(kernel: &LinkedKernel, set: &KernelSet, counts: &mut PlanCounts) -> KernelPlan {
    // Dynamic views only take a non-zero chunk offset in the receive
    // callback; pre/done/commit always run at offset 0, so their
    // disjointness proofs need no dynamic slack.
    let max_dyn = kernel.max_dyn();
    KernelPlan {
        pre: plan_block(&kernel.pre, 0, set, counts),
        recv: plan_block(&kernel.recv, max_dyn, set, counts),
        done: plan_block(&kernel.done, 0, set, counts),
        commit: plan_block(&kernel.commit, 0, set, counts),
    }
}

fn plan_block(
    instrs: &[LinkedInstr],
    max_dyn: usize,
    set: &KernelSet,
    counts: &mut PlanCounts,
) -> Vec<PlannedOp> {
    instrs.iter().map(|instr| plan_instr(instr, max_dyn, set, counts)).collect()
}

/// In-place execution is safe iff the source view is *exactly* the
/// destination (element `j` then reads only index `j`, which every kernel
/// reads before writing) or provably disjoint from it at every chunk
/// offset.  Partial overlap — possible after copy folding rewrites views —
/// keeps the read-all-then-write scratch path.
fn in_place_safe(src: &LinkedView, dest: &LinkedView, max_dyn: usize) -> bool {
    src == dest || views_disjoint(src, dest, max_dyn)
}

fn plan_instr(
    instr: &LinkedInstr,
    max_dyn: usize,
    set: &KernelSet,
    counts: &mut PlanCounts,
) -> PlannedOp {
    let count_op = |counts: &mut PlanCounts, n: usize| {
        if set.isa == Isa::Scalar {
            counts.simd_fallback += n;
        } else {
            counts.simd_planned += n;
        }
    };
    match instr {
        LinkedInstr::Fill { dest, value } => PlannedOp::Fill { dest: *dest, value: *value },
        LinkedInstr::Copy { dest, src } => PlannedOp::Copy { dest: *dest, src: *src },
        LinkedInstr::Binary { kind, dest, a, b } => {
            let direct = in_place_safe(a, dest, max_dyn) && in_place_safe(b, dest, max_dyn);
            counts.scratch_elided += usize::from(direct);
            count_op(counts, 1);
            let kernel = set.binary[match kind {
                BinKind::Add => 0,
                BinKind::Sub => 1,
                BinKind::Mul => 2,
            }];
            PlannedOp::Binary { kernel, dest: *dest, a: *a, b: *b, direct }
        }
        LinkedInstr::Macs { dest, acc, src, coeff } => {
            let direct = in_place_safe(acc, dest, max_dyn) && in_place_safe(src, dest, max_dyn);
            counts.scratch_elided += usize::from(direct);
            count_op(counts, 1);
            PlannedOp::Macs {
                kernel: set.macs,
                dest: *dest,
                acc: *acc,
                src: *src,
                coeff: *coeff,
                direct,
            }
        }
        LinkedInstr::FusedMacs { dest, init, terms } => {
            let mut groups = Vec::with_capacity(terms.len().div_ceil(MAX_ARITY).max(1));
            let head_acc = matches!(init, FusedInit::Acc(_));
            let mut chunks = terms.chunks(MAX_ARITY);
            // The head group carries the chain's real init; an empty chain
            // still needs one arity-0 call to apply it.
            let head: &[FusedTerm] = chunks.next().unwrap_or(&[]);
            groups.push(SweepGroup {
                row_kernel: set.sweep_row(head_acc, head.len()),
                terms: head.into(),
            });
            // Continuation groups accumulate onto the destination
            // (`AccSelf`): per element this is the same left-to-right
            // `(((init + s₀c₀) + …) + sₖcₖ)` chain, merely re-entered at
            // the value the head group stored.
            for chunk in chunks {
                groups.push(SweepGroup {
                    row_kernel: set.sweep_row(true, chunk.len()),
                    terms: chunk.into(),
                });
            }
            count_op(counts, groups.len());
            PlannedOp::Sweep { dest: *dest, init: *init, groups: groups.into_boxed_slice() }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::SrcRef;

    fn view(base: u32, len: u32) -> LinkedView {
        LinkedView { base, len, dynamic: false }
    }

    fn term(base: u32, len: u32, coeff: f32) -> FusedTerm {
        FusedTerm { src: SrcRef::Arena(view(base, len)), coeff }
    }

    fn plan_one(instr: LinkedInstr) -> (PlannedOp, PlanCounts) {
        let set = kernel_set(Isa::detect(), false);
        let mut counts = PlanCounts::default();
        let op = plan_instr(&instr, 0, set, &mut counts);
        (op, counts)
    }

    #[test]
    fn disjoint_binary_is_planned_direct_and_overlapping_is_not() {
        let (op, counts) = plan_one(LinkedInstr::Binary {
            kind: BinKind::Add,
            dest: view(0, 8),
            a: view(8, 8),
            b: view(16, 8),
        });
        assert!(matches!(op, PlannedOp::Binary { direct: true, .. }));
        assert_eq!(counts.scratch_elided, 1);

        // Exact self-aliasing is still direct (element j reads index j).
        let (op, _) = plan_one(LinkedInstr::Binary {
            kind: BinKind::Mul,
            dest: view(0, 8),
            a: view(0, 8),
            b: view(8, 8),
        });
        assert!(matches!(op, PlannedOp::Binary { direct: true, .. }));

        // Partial overlap keeps the scratch round-trip.
        let (op, counts) = plan_one(LinkedInstr::Binary {
            kind: BinKind::Sub,
            dest: view(0, 8),
            a: view(4, 8),
            b: view(16, 8),
        });
        assert!(matches!(op, PlannedOp::Binary { direct: false, .. }));
        assert_eq!(counts.scratch_elided, 0);
    }

    #[test]
    fn dynamic_views_account_for_the_chunk_offset_span() {
        let set = kernel_set(Isa::detect(), false);
        let mut counts = PlanCounts::default();
        // Static dest [0, 8); dynamic src starts at 8 but slides up to
        // max_dyn — with max_dyn = 0 they are disjoint...
        let instr = LinkedInstr::Macs {
            dest: view(0, 8),
            acc: view(0, 8),
            src: LinkedView { base: 8, len: 8, dynamic: true },
            coeff: 0.5,
        };
        let op = plan_instr(&instr, 0, set, &mut counts);
        assert!(matches!(op, PlannedOp::Macs { direct: true, .. }));
        // ...and with a dynamic dest the span check must keep them apart
        // conservatively: a sliding *destination* below a static source
        // can reach it.
        let instr = LinkedInstr::Macs {
            dest: LinkedView { base: 0, len: 8, dynamic: true },
            acc: LinkedView { base: 0, len: 8, dynamic: true },
            src: view(8, 8),
            coeff: 0.5,
        };
        let op = plan_instr(&instr, 16, set, &mut counts);
        assert!(matches!(op, PlannedOp::Macs { direct: false, .. }));
    }

    #[test]
    fn wide_sweeps_split_into_head_and_accself_continuations() {
        let terms: Vec<FusedTerm> =
            (0..15).map(|i| term(16 + 8 * i as u32, 8, 0.1 * i as f32)).collect();
        let (op, counts) = plan_one(LinkedInstr::FusedMacs {
            dest: view(0, 8),
            init: FusedInit::Fill(1.0),
            terms,
        });
        let PlannedOp::Sweep { groups, .. } = op else { panic!("expected a sweep") };
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0].terms.len(), 6);
        assert_eq!(groups[1].terms.len(), 6);
        assert_eq!(groups[2].terms.len(), 3);
        let total = counts.simd_planned + counts.simd_fallback;
        assert_eq!(total, 3, "one count per sweep call");
    }

    #[test]
    fn empty_chains_still_apply_their_init() {
        let (op, _) = plan_one(LinkedInstr::FusedMacs {
            dest: view(0, 8),
            init: FusedInit::Fill(2.0),
            terms: Vec::new(),
        });
        let PlannedOp::Sweep { groups, .. } = op else { panic!("expected a sweep") };
        assert_eq!(groups.len(), 1);
        assert!(groups[0].terms.is_empty());
    }

    #[test]
    fn scalar_isa_routes_every_op_to_the_fallback_counter() {
        let set = kernel_set(Isa::Scalar, false);
        let mut counts = PlanCounts::default();
        let instr = LinkedInstr::Binary {
            kind: BinKind::Add,
            dest: view(0, 8),
            a: view(8, 8),
            b: view(16, 8),
        };
        plan_instr(&instr, 0, set, &mut counts);
        assert_eq!((counts.simd_planned, counts.simd_fallback), (0, 1));
    }
}
