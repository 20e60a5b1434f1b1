//! Link phase of the two-phase simulator: resolves a [`LoadedProgram`]
//! into a flat-memory [`LinkedProgram`], then optimizes the instruction
//! stream.
//!
//! The loader produces a portable, string-keyed program (buffer names,
//! per-kernel instruction lists, a communication spec).  Executing that
//! form directly means hashing a buffer name on every operand of every
//! instruction of every PE — which dominates simulation time.  Linking
//! happens once, at load time:
//!
//! * every buffer name is interned into a dense [`BufferId`] and all of a
//!   PE's buffers are laid out back to back in one flat `f32` arena
//!   ([`BufferLayout`] records each buffer's base offset);
//! * every [`ViewRef`] becomes a [`LinkedView`] — an absolute arena offset
//!   plus a length and the dynamic-chunk-offset flag — and every
//!   [`Instr`] becomes a [`LinkedInstr`] with all operands resolved;
//! * the halo exchange is resolved into a [`LinkedComm`]: which interior
//!   columns must be snapshotted ([`SnapField`]) and which snapshot column
//!   each receive slot reads ([`LinkedSlot`]).
//!
//! All bounds are validated here (views inside their buffer even at the
//! maximum dynamic chunk offset, receive slots inside the receive buffer,
//! field buffers long enough for the interior), so the run phase in
//! [`crate::exec`] needs no per-instruction error paths.
//!
//! # The link-time optimizer
//!
//! After resolution, [`link_program`] rewrites each kernel's instruction
//! stream into fused superinstructions (disable with
//! [`LinkOptions::optimize`]).  Eight pass units run, in this order; when
//! [`LinkOptions::validate`] is on the translation validator checks their
//! composition, and on a mismatch each unit, reverting the ones at fault.
//! No unit decides a dependence from instruction shape: each states its
//! safety condition as a query on the dependence core ([`crate::deps`]),
//! named after *Asks*.
//!
//! 1. **`fuse-mul-add-pairs`** — `t = src · k; d = d + t` with `k` a
//!    never-written splat buffer becomes `Macs(d, d, src, k)`, the
//!    spelling the next unit fuses.  *Asks* `views_disjoint`: `src`, `t`, `d`
//!    pairwise; `dead_after`: the dropped write to `t`.
//! 2. **`fuse-block`** — a `Fill(d, c)` followed by a run of
//!    `Macs(d, d, srcᵢ, cᵢ)`, or a bare run, is one multi-pass reduction;
//!    it collapses into a single [`LinkedInstr::FusedMacs`] computing
//!    `d[j] = init(j) + Σ cᵢ · srcᵢ[j]` in one sweep.  The one-pass sweep
//!    must not observe its own writes; the only aliasing permitted is the
//!    initial accumulator being `d` itself, which reads each element
//!    before overwriting it.  Chains never cross an instruction that is
//!    not part of the pattern, nor a block boundary.  *Asks* `views_disjoint`:
//!    every source, and a distinct accumulator, against `d`, dynamic
//!    views widened by the largest chunk offset.
//! 3. **`elide-staging`** — a `recv` term reading a staged receive window
//!    reads the neighbour's column directly ([`SrcRef::Slot`]), and a slot
//!    nobody reads any more stops being staged.  *Asks* `reaching_writes`: the
//!    staged copy is the sole write reaching the read; `dead_after`: the
//!    staged copy itself.
//! 4. **`flatten-chunks`** — a multi-chunk exchange whose `recv` block
//!    advances every operand one chunk window per chunk runs as a single
//!    full-column chunk.  *Asks* `chunk_carried`: no `recv` write is static
//!    or overlaps a differently placed operand.
//! 5. **`merge-single-chunk-blocks`** — with one chunk and nothing staged,
//!    `pre`, `recv` and `done` run back to back, so they concatenate and
//!    adjacent sweeps over one destination merge.  *Asks* nothing: views
//!    must be the *same range*, and sources are already disjoint from it.
//! 6. **`fold-dead-writes`** — a write the rest of the cycle never reads
//!    goes.  A sweep or an unfused `Binary` (the product-kernel shape)
//!    whose result is immediately copied out retargets the output and the
//!    `Copy` disappears; a write to a compiler-internal double-buffer field
//!    that nothing reads is removed.  *Asks* `overlaps`: everything the
//!    folded instruction touches against the output; `dead_after`: the
//!    dropped write — walking the cyclic execution order, chunk loop
//!    included, with observable field interiors always live.
//! 7. **`defer-commits`** — when every write to a transmitted field is a
//!    trailing write-back, the write-backs move to [`LinkedKernel::commit`]
//!    and the snapshot capture is elided.  *Asks* `operands().slot_src`: a
//!    deferred instruction may not read a slot; destination buffers
//!    against the transmitted fields.
//! 8. **`coalesce-arena`** — buffers no instruction, receive slot or
//!    snapshot references are removed and the arena re-packed.
//!    *Asks* `cycle_events`: every span any step of the cycle touches.
//!
//! Every rewrite preserves *bitwise* results: fused sweeps perform the
//! identical sequence of f32 multiplies and adds per element as the
//! instructions they replace (see the shared-semantics note in
//! [`crate::interp`]), and [`crate::exec`] runs optimized and unoptimized
//! streams to identical bits.  The conformance harness enforces this by
//! running every case through both streams.  [`LinkedProgram::stats`]
//! reports what fired: instruction counts before/after, chain lengths,
//! folded copies, and arena bytes reclaimed.
//!
//! [`Instr`]: crate::loader::Instr
//! [`ViewRef`]: crate::loader::ViewRef

use std::collections::HashMap;

use crate::deps::{self, overlaps, views_disjoint, Block, Event, EventKind};
use crate::exec::ExecError;
use crate::loader::{BinKind, CommSpec, Instr, LoadedProgram, Src, ViewRef};

/// A link-time rejection: an [`ExecError`] carrying the stable
/// rejection-class `code` (one of the `link-*` entries of the
/// [`wse_ir::diagnostics`] registry; a unit test enforces that every code
/// used here is registered).
fn err(code: &'static str, message: impl Into<String>) -> ExecError {
    ExecError::invalid(message).with_code(code)
}

/// A deliberately broken rewrite, injectable through
/// [`LinkOptions::mutate`] to prove the translation validator catches
/// miscompilations *statically* rather than relying on the bitwise
/// conformance net alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkMutation {
    /// Drop the source/destination disjointness check in FMA-chain fusion
    /// (`fuse_block`): aliasing chains then fuse into one-pass sweeps
    /// that observe their own writes — a real miscompilation the
    /// validator must reject (diagnostic `E201`).
    DropAliasingCheck,
}

/// Options controlling the link phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkOptions {
    /// Run the link-time optimizer: the eight pass units of the module
    /// header, from `fuse-mul-add-pairs` to `coalesce-arena`.  Optimized
    /// and unoptimized streams produce bitwise identical results; the
    /// toggle exists so conformance can prove it.
    pub optimize: bool,
    /// Dispatch the planned kernels on the widest instruction set the host
    /// supports (see [`crate::kernels::Isa::detect`]).  SIMD-on and
    /// SIMD-off streams produce bitwise identical results — the vector
    /// kernels preserve the exact per-element f32 operation sequence — and
    /// the conformance harness runs both to prove it.
    pub simd: bool,
    /// Contract each multiply-then-add pair into a single-rounded fused
    /// multiply-add.  This *changes* results (one rounding instead of
    /// two per term), so it is off by default and fast-FMA streams are
    /// validated through the conformance tolerance path against the
    /// reference executor, never the bitwise path.
    pub fast_fma: bool,
    /// Run the optimizer under the translation validator: the observable
    /// dataflow of the instruction stream (see [`crate::validate`]) is
    /// summarized before optimization and compared with the fully
    /// optimized stream's; if they differ the pass units replay one at a
    /// time, and one that drops or reorders a dependence is rejected and
    /// its rewrite reverted, counted in
    /// [`OptStats::validator_rejections`] with the pass name recorded.
    /// Defaults to on in debug builds; the conformance driver turns it on
    /// for its primary stream on every seed.
    pub validate: bool,
    /// Deliberately break one rewrite (see [`LinkMutation`]) to exercise
    /// the validator.  Never set outside tests and benchmarks.
    pub mutate: Option<LinkMutation>,
}

impl Default for LinkOptions {
    fn default() -> Self {
        Self {
            optimize: true,
            simd: true,
            fast_fma: false,
            validate: cfg!(debug_assertions),
            mutate: None,
        }
    }
}

/// Dense handle of a PE-local buffer: an index into [`LinkedProgram::layouts`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(pub u32);

/// Placement of one buffer inside the per-PE arena.
#[derive(Debug, Clone, PartialEq)]
pub struct BufferLayout {
    /// Buffer symbol (kept for diagnostics and field extraction).
    pub name: String,
    /// First element of the buffer in the arena.
    pub base: usize,
    /// Length in elements.
    pub len: usize,
    /// Initial fill value.
    pub init: f32,
}

/// A fully resolved view: an absolute arena range instead of a buffer name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkedView {
    /// Arena offset of the first element (buffer base + static view offset).
    pub base: u32,
    /// Number of elements.
    pub len: u32,
    /// Whether the runtime chunk offset is added to `base`.
    pub dynamic: bool,
}

impl LinkedView {
    /// The arena element range addressed at the given chunk offset.
    #[inline]
    pub fn range(&self, chunk_offset: usize) -> std::ops::Range<usize> {
        let start = self.base as usize + if self.dynamic { chunk_offset } else { 0 };
        start..start + self.len as usize
    }

    /// Conservative arena interval `[start, end)` the view may touch at any
    /// chunk offset: dynamic views are extended by `max_dyn`, the largest
    /// runtime offset (see [`LinkedComm::max_dyn`]).
    pub fn span(&self, max_dyn: usize) -> (usize, usize) {
        let start = self.base as usize;
        (start, start + self.len as usize + if self.dynamic { max_dyn } else { 0 })
    }
}

/// One resolved instruction.  Compared with [`Instr`], scalar and view
/// moves are split so the run phase dispatches without inspecting a
/// nested [`Src`].
#[derive(Debug, Clone, PartialEq)]
pub enum LinkedInstr {
    /// `dest[i] = value` (a scalar `@fmovs`).
    Fill {
        /// Destination view.
        dest: LinkedView,
        /// Fill value.
        value: f32,
    },
    /// `dest[i] = src[i]` (a view `@fmovs`; overlap behaves like memmove).
    Copy {
        /// Destination view.
        dest: LinkedView,
        /// Source view.
        src: LinkedView,
    },
    /// `dest[i] = a[i] <op> b[i]`.
    Binary {
        /// Operation kind.
        kind: BinKind,
        /// Destination view.
        dest: LinkedView,
        /// First source.
        a: LinkedView,
        /// Second source.
        b: LinkedView,
    },
    /// `dest[i] = acc[i] + src[i] * coeff`.
    Macs {
        /// Destination view.
        dest: LinkedView,
        /// Accumulator view.
        acc: LinkedView,
        /// Source view.
        src: LinkedView,
        /// Scalar coefficient.
        coeff: f32,
    },
    /// A fused reduction sweep produced by the link-time optimizer:
    /// `dest[j] = init(j) + Σ_i terms[i].coeff · terms[i].src[j]`, computed
    /// left to right in a single pass over `dest` with exactly the same
    /// per-element f32 operation sequence as the `Fill`/`Macs` chain it
    /// replaced (bitwise identical results).  The linker guarantees every
    /// term source (and a distinct init accumulator) is disjoint from
    /// `dest`, so the one-pass sweep cannot observe its own writes.
    FusedMacs {
        /// Destination view.
        dest: LinkedView,
        /// Where element `j`'s running value starts.
        init: FusedInit,
        /// The fused multiply-accumulate terms, in chain order.
        terms: Vec<FusedTerm>,
    },
}

impl LinkedInstr {
    /// The view the instruction writes.
    pub fn dest(&self) -> &LinkedView {
        match self {
            LinkedInstr::Fill { dest, .. }
            | LinkedInstr::Copy { dest, .. }
            | LinkedInstr::Binary { dest, .. }
            | LinkedInstr::Macs { dest, .. }
            | LinkedInstr::FusedMacs { dest, .. } => dest,
        }
    }
}

/// The initial value of a [`LinkedInstr::FusedMacs`] sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedInit {
    /// A scalar constant (the chain began with a `Fill`).
    Fill(f32),
    /// An accumulator view read element-by-element.  May equal the
    /// destination view (each element is read before it is overwritten);
    /// any other view is disjoint from the destination by construction.
    Acc(LinkedView),
}

/// One multiply-accumulate term of a [`LinkedInstr::FusedMacs`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FusedTerm {
    /// Source (disjoint from the sweep destination).
    pub src: SrcRef,
    /// Scalar coefficient.
    pub coeff: f32,
}

/// Where a fused term reads from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SrcRef {
    /// A PE-local arena view.
    Arena(LinkedView),
    /// The neighbor snapshot column behind receive slot `slot`, read
    /// directly (staging elided): elements
    /// `[offset + chunk · chunk_size, offset + chunk · chunk_size + len)`
    /// of the transmitted column, zeros outside the PE grid.  Produced by
    /// the optimizer for receive-callback reads that lie entirely inside
    /// one receive slot — the staged copy in `recv_buffer` holds exactly
    /// these elements, so reading the snapshot is bitwise identical.
    Slot {
        /// Index into [`LinkedComm::slots`].
        slot: u32,
        /// Element offset inside the slot's chunk window.
        offset: u32,
        /// Number of elements.
        len: u32,
    },
}

/// One interior column captured by the pre-kernel snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapField {
    /// The field buffer the column is captured from.
    pub buffer: BufferId,
    /// Arena offset of the first interior element of the source buffer.
    pub src_base: usize,
    /// Elements copied from the buffer; the rest of the snapshot column is
    /// zero-filled (matching the zero halo of out-of-range reads).
    pub copy_len: usize,
}

/// One receive slot resolved against the snapshot layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkedSlot {
    /// Index into [`LinkedComm::snap_fields`].
    pub snap_index: usize,
    /// Neighbor offset in x.
    pub dx: i64,
    /// Neighbor offset in y.
    pub dy: i64,
    /// Whether the run phase must copy the slot's chunks into the receive
    /// buffer.  The optimizer clears this when every observation of the
    /// staged data was rewritten into a direct snapshot read
    /// ([`SrcRef::Slot`]).
    pub staged: bool,
}

/// The halo exchange of one kernel, resolved to arena and snapshot offsets.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedComm {
    /// Number of chunks.
    pub num_chunks: usize,
    /// Chunk size in elements.
    pub chunk_size: usize,
    /// Arena offset of the receive buffer.
    pub recv_base: usize,
    /// Receive slots in buffer order.
    pub slots: Vec<LinkedSlot>,
    /// Interior columns cross-PE reads observe (deduplicated fields).
    pub snap_fields: Vec<SnapField>,
    /// Snapshot column length per field per PE (`num_chunks * chunk_size`).
    pub col_len: usize,
    /// Whether the run phase must capture the columns into the snapshot
    /// buffer before the sweep.  The optimizer clears this when every
    /// write to a transmitted field sits in the kernel's deferred commit
    /// block ([`LinkedKernel::commit`]): cross-PE reads can then take the
    /// pre-kernel state straight from the neighbor arenas.
    pub capture: bool,
}

impl LinkedComm {
    /// Snapshot elements required per PE for this exchange (zero once the
    /// capture is elided).
    pub fn snap_len(&self) -> usize {
        if self.capture {
            self.snap_fields.len() * self.col_len
        } else {
            0
        }
    }

    /// The commit lag in rows: how many rows of sweeps may still read a
    /// row's pre-kernel state through the exchange.
    pub fn max_dy(&self) -> usize {
        self.slots.iter().map(|s| s.dy.unsigned_abs() as usize).max().unwrap_or(0)
    }

    /// The largest runtime chunk offset of a dynamic view: dynamic views
    /// only occur in the receive callback, and the final chunk shifts them
    /// furthest.  Saturating, so a malformed zero-chunk exchange reads as
    /// no shift.
    pub fn max_dyn(&self) -> usize {
        self.num_chunks.saturating_sub(1) * self.chunk_size
    }
}

/// One kernel with all callbacks resolved.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedKernel {
    /// Instructions of the kernel body itself.
    pub pre: Vec<LinkedInstr>,
    /// The halo exchange, if any.
    pub comm: Option<LinkedComm>,
    /// Receive-chunk instructions (run once per chunk).
    pub recv: Vec<LinkedInstr>,
    /// Done-exchange instructions (run once).
    pub done: Vec<LinkedInstr>,
    /// Deferred write-back instructions split off the end of `done` by the
    /// optimizer when it elides the snapshot capture: they run only after
    /// every sweep that may still read this PE's pre-kernel state has
    /// finished.  The run phase lags them [`LinkedComm::max_dy`] rows
    /// behind the sweep of the row band that owns the PE; only the rows
    /// within `max_dy` of a neighbouring band, which that band's sweep
    /// reads, wait for the barrier that ends the parallel dispatch.  Empty
    /// unless [`LinkedComm::capture`] is `false`.
    pub commit: Vec<LinkedInstr>,
    /// Elements processed per PE per kernel invocation (used to decide
    /// whether parallel execution is worthwhile).
    pub work_per_pe: usize,
}

impl LinkedKernel {
    /// [`LinkedComm::max_dyn`] of the kernel's exchange (0 without one).
    pub fn max_dyn(&self) -> usize {
        self.comm.as_ref().map(LinkedComm::max_dyn).unwrap_or(0)
    }
}

/// The executable flat-memory form of a program: phase 1 of the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkedProgram {
    /// PE-grid extent in x.
    pub width: i64,
    /// PE-grid extent in y.
    pub height: i64,
    /// Interior column length per PE.
    pub z_dim: i64,
    /// Halo cells at each end of a column buffer.
    pub z_halo: i64,
    /// Number of timesteps.
    pub timesteps: i64,
    /// Arena elements per PE (sum of all buffer lengths).
    pub arena_len: usize,
    /// Buffer placements, in declaration order.
    pub layouts: Vec<BufferLayout>,
    /// Field buffers in field order, as layout indices.
    pub field_ids: Vec<BufferId>,
    /// Parallel to [`LinkedProgram::field_ids`]: `true` for
    /// compiler-internal double-buffer fields.  Internal fields are not
    /// observable program state, so — unlike real fields — they are *not*
    /// kept always-live by the cyclic liveness scan: a write to one is
    /// dead once overwritten before its next read, which is what lets
    /// copy folding and dead-write elision fire on double-buffered
    /// (previously self-aliasing) shapes.
    pub field_internal: Vec<bool>,
    /// Kernels in execution order.
    pub kernels: Vec<LinkedKernel>,
    /// Largest view length of any instruction (sizes the scratch buffer).
    pub max_view_len: usize,
    /// Whether the kernel planner may use the host's vector instruction
    /// sets (from [`LinkOptions::simd`]; results are bitwise identical
    /// either way).
    pub simd: bool,
    /// Whether the planner contracts multiply-adds (from
    /// [`LinkOptions::fast_fma`]; tolerance-path only).
    pub fast_fma: bool,
    /// What the link-time optimizer did (all-zero when disabled).
    pub stats: OptStats,
}

impl LinkedProgram {
    /// The link-time optimizer's report for this program.
    pub fn stats(&self) -> &OptStats {
        &self.stats
    }
}

/// Observability report of the link-time optimizer (see module docs).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct OptStats {
    /// Whether the optimizer ran at all.
    pub optimized: bool,
    /// Instructions across all kernels before optimization.
    pub instrs_before: usize,
    /// Instructions across all kernels after optimization.
    pub instrs_after: usize,
    /// Number of fused chains (≥ 2 instructions collapsed into one).
    pub fused_chains: usize,
    /// Total multiply-accumulate terms absorbed into fused chains.
    pub fused_terms: usize,
    /// Length (in original instructions) of the longest fused chain.
    pub longest_chain: usize,
    /// `Copy` instructions folded into the preceding fused sweep.
    pub copies_folded: usize,
    /// Receive slots whose per-chunk staging copy was elided (fused terms
    /// read the neighbor snapshot column directly).
    pub slots_elided: usize,
    /// Exchanges whose snapshot capture was elided entirely by deferring
    /// the field write-back into a commit block.
    pub captures_elided: usize,
    /// Multi-chunk exchanges flattened into one full-column chunk.
    pub chunks_flattened: usize,
    /// Adjacent fused sweeps (or a `Fill` and its sweep) merged into one.
    pub sweeps_merged: usize,
    /// `Binary(Mul)`+`Binary(Add)` pairs (the `enable_fmac_fusion=false`
    /// spelling of a multiply-accumulate) rewritten into `Macs` because
    /// the multiplier is a constant-initialized, never-written buffer.
    pub binary_macs_fused: usize,
    /// Data×data `Binary(Mul)` instructions in the pre-optimization
    /// stream: both sources read written buffers rather than splat
    /// coefficient constants.  These are the elementwise products the
    /// `decompose-products` lowering emits for nonlinear stencil bodies,
    /// so a non-zero count is the link-level evidence that product
    /// decomposition fired for this program.
    pub product_muls: usize,
    /// Unfused `Binary` instructions whose result copy into the output
    /// field was folded away by retargeting the binary at the copy's
    /// destination (the product-kernel `mul` + write-back pair).
    pub binary_copies_folded: usize,
    /// Writes to internal double-buffer fields removed because the cyclic
    /// liveness scan proved them dead (fully overwritten before any read).
    pub dead_writes_elided: usize,
    /// Per-PE arena bytes before coalescing.
    pub arena_bytes_before: usize,
    /// Per-PE arena bytes after coalescing.
    pub arena_bytes_after: usize,
    /// Buffers removed from the arena by coalescing.
    pub buffers_coalesced: usize,
    /// Why candidate rewrites were *not* applied, at the optimizer's
    /// fixed point (each counter reflects one final scan, so rescan
    /// loops do not inflate it).  The static analyzer diffs these
    /// against its own dependence-DAG verdicts.
    pub skipped: SkipCounts,
    /// Optimizer pass units checked by the translation validator (zero
    /// when [`LinkOptions::validate`] is off).
    pub validated_passes: usize,
    /// Pass units the validator rejected: their rewrites changed the
    /// observable dataflow summary and were reverted (diagnostic `E201`).
    /// Always zero for a correct optimizer; non-zero only under an
    /// injected [`LinkMutation`] or a real optimizer bug.
    pub validator_rejections: usize,
    /// Names of the rejected pass units, in pass order.
    pub rejected_passes: Vec<&'static str>,
}

/// Counters for candidate rewrites the optimizer declined, by reason.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SkipCounts {
    /// A source/accumulator/scratch view overlaps the rewrite's
    /// destination, so the one-pass replacement would observe its own
    /// writes (FMA-chain fusion, copy folding, binary-copy folding).
    pub aliasing: usize,
    /// A fusable `Macs` chain was cut short by an unrelated interposed
    /// instruction even though more same-destination terms follow later
    /// in the block — the adjacency-window fusion barrier the ROADMAP's
    /// dependence-DAG scheduler item targets.
    pub window_barrier: usize,
    /// The eliminated scratch write is *not* dead: the cyclic liveness
    /// scan found another consumer, so the value has more than one
    /// result and the folding rewrite would drop an observable store.
    pub multi_result: usize,
    /// A `Binary(Mul)` whose operands both read written (data) buffers —
    /// a decomposed product term — cannot become a coefficient `Macs`;
    /// the fmac peephole fences these out.
    pub product_fence: usize,
}

impl SkipCounts {
    /// Total rewrites declined across all reasons.
    pub fn total(&self) -> usize {
        self.aliasing + self.window_barrier + self.multi_result + self.product_fence
    }
}

/// Checks that `layouts` tile the arena without overlap or overflow.
///
/// `link_program` lays buffers out back to back, so this can only fail on
/// a hand-constructed layout — it exists as a guard for future layout
/// strategies (and is exercised directly by tests).
pub fn validate_layouts(layouts: &[BufferLayout], arena_len: usize) -> Result<(), ExecError> {
    let mut sorted: Vec<&BufferLayout> = layouts.iter().collect();
    sorted.sort_by_key(|l| l.base);
    let mut end = 0usize;
    for layout in sorted {
        if layout.base < end {
            return Err(err(
                "link-layout",
                format!(
                    "buffer {} at [{}, {}) overlaps the previous buffer ending at {end}",
                    layout.name,
                    layout.base,
                    layout.base + layout.len
                ),
            ));
        }
        end = layout.base + layout.len;
    }
    if end > arena_len {
        return Err(err(
            "link-layout",
            format!("buffer layout ends at {end}, beyond the arena (len {arena_len})"),
        ));
    }
    Ok(())
}

/// Links a loaded program with [`LinkOptions::default`] (the link-time
/// optimizer runs).  See [`link_program_with`].
pub fn link_program(program: &LoadedProgram) -> Result<LinkedProgram, ExecError> {
    link_program_with(program, &LinkOptions::default())
}

/// Links a loaded program: interns buffer names, lays out the per-PE
/// arena, resolves every instruction and the communication spec, and
/// validates all bounds.  When `options.optimize` is set, the link-time
/// optimizer then rewrites the stream (see the module docs).
pub fn link_program_with(
    program: &LoadedProgram,
    options: &LinkOptions,
) -> Result<LinkedProgram, ExecError> {
    let summary: Summary = crate::validate::observable_summary;
    link_checked(program, options, options.validate.then_some(Check { summary, compose: true }))
}

/// [`link_program_with`] with every pass unit checked and reverted on its
/// own against `summary` — the loop the validated link falls back to when
/// the composed stream fails, entered directly.  For the tests that pin
/// the composition-first entry and the witness grid against it.
#[doc(hidden)]
pub fn link_per_unit(
    program: &LoadedProgram,
    options: &LinkOptions,
    summary: fn(&LinkedProgram) -> Vec<u64>,
) -> Result<LinkedProgram, ExecError> {
    link_checked(program, options, Some(Check { summary, compose: false }))
}

fn link_checked(
    program: &LoadedProgram,
    options: &LinkOptions,
    check: Option<Check>,
) -> Result<LinkedProgram, ExecError> {
    if program.width <= 0 || program.height <= 0 {
        return Err(err(
            "link-grid",
            format!("invalid PE grid {}x{}", program.width, program.height),
        ));
    }
    if program.z_dim < 0 || program.z_halo < 0 {
        return Err(err("link-geometry", "negative z_dim or z_halo"));
    }

    // Arena layout: buffers back to back in declaration order.
    let mut layouts = Vec::with_capacity(program.buffers.len());
    let mut by_name: HashMap<&str, BufferId> = HashMap::new();
    let mut arena_len = 0usize;
    for decl in &program.buffers {
        if decl.len < 0 {
            return Err(err(
                "link-buffer-decl",
                format!("buffer {} has negative length {}", decl.name, decl.len),
            ));
        }
        if by_name.insert(&decl.name, BufferId(layouts.len() as u32)).is_some() {
            return Err(err(
                "link-buffer-decl",
                format!("duplicate buffer {}: two buffers may not share one layout", decl.name),
            ));
        }
        layouts.push(BufferLayout {
            name: decl.name.clone(),
            base: arena_len,
            len: decl.len as usize,
            init: decl.init,
        });
        arena_len += decl.len as usize;
    }
    validate_layouts(&layouts, arena_len)?;

    // Field buffers must exist and hold the full interior column; a miss
    // here was previously a silent drop during state extraction.
    let mut field_ids = Vec::with_capacity(program.field_buffers.len());
    for field in &program.field_buffers {
        let id = *by_name
            .get(field.as_str())
            .ok_or_else(|| err("link-unknown-buffer", format!("unknown field buffer {field}")))?;
        let layout = &layouts[id.0 as usize];
        let needed = (program.z_halo + program.z_dim) as usize;
        if layout.len < needed {
            return Err(err(
                "link-geometry",
                format!(
                    "field buffer {field} (len {}) is shorter than halo + interior ({needed})",
                    layout.len
                ),
            ));
        }
        field_ids.push(id);
    }

    let mut kernels = Vec::with_capacity(program.kernels.len());
    let mut max_view_len = 0usize;
    for kernel in &program.kernels {
        let comm = kernel
            .comm
            .as_ref()
            .map(|c| {
                link_comm(c, &by_name, &layouts, &program.field_buffers, program.z_halo as usize)
            })
            .transpose()?;
        let max_dyn = comm.as_ref().map(LinkedComm::max_dyn).unwrap_or(0);
        let pre = link_block(&kernel.pre, &by_name, &layouts, 0, &mut max_view_len)?;
        let recv = link_block(&kernel.recv, &by_name, &layouts, max_dyn, &mut max_view_len)?;
        let done = link_block(&kernel.done, &by_name, &layouts, 0, &mut max_view_len)?;
        kernels.push(LinkedKernel { pre, comm, recv, done, commit: Vec::new(), work_per_pe: 0 });
    }

    let field_internal: Vec<bool> = program
        .field_buffers
        .iter()
        .map(|name| program.internal_fields.iter().any(|i| i == name))
        .collect();
    let mut linked = LinkedProgram {
        width: program.width,
        height: program.height,
        z_dim: program.z_dim,
        z_halo: program.z_halo,
        timesteps: program.timesteps,
        arena_len,
        layouts,
        field_ids,
        field_internal,
        kernels,
        max_view_len,
        simd: options.simd,
        fast_fma: options.fast_fma,
        stats: OptStats::default(),
    };
    linked.stats.instrs_before = instr_count(&linked);
    linked.stats.arena_bytes_before = linked.arena_len * 4;
    if options.optimize {
        optimize_program(&mut linked, options.mutate, check);
    }
    finalize(&mut linked);
    Ok(linked)
}

/// Total instructions across all kernels and blocks.
fn instr_count(linked: &LinkedProgram) -> usize {
    linked.kernels.iter().map(|k| k.pre.len() + k.recv.len() + k.done.len() + k.commit.len()).sum()
}

/// Recomputes the derived per-kernel work estimates and the report
/// counters after the instruction streams settled.
fn finalize(linked: &mut LinkedProgram) {
    linked.stats.instrs_after = instr_count(linked);
    linked.stats.arena_bytes_after = linked.arena_len * 4;
    for kernel in &mut linked.kernels {
        let elements =
            |instrs: &[LinkedInstr]| -> usize { instrs.iter().map(instr_elements).sum() };
        kernel.work_per_pe =
            elements(&kernel.pre) + elements(&kernel.done) + elements(&kernel.commit);
        if let Some(c) = &kernel.comm {
            let staged = c.slots.iter().filter(|s| s.staged).count();
            kernel.work_per_pe += c.num_chunks * (elements(&kernel.recv) + staged * c.chunk_size);
        }
    }
}

/// The buffer containing arena offset `offset`.  Layouts are laid out back
/// to back in base order, so a binary search on the base finds the owner;
/// every queried offset comes from a bounds-validated view.
fn buffer_at(layouts: &[BufferLayout], offset: u32) -> BufferId {
    let index = layouts.partition_point(|l| l.base <= offset as usize);
    BufferId(index.saturating_sub(1) as u32)
}

fn instr_elements(instr: &LinkedInstr) -> usize {
    match instr {
        LinkedInstr::Fill { dest, .. }
        | LinkedInstr::Copy { dest, .. }
        | LinkedInstr::Binary { dest, .. }
        | LinkedInstr::Macs { dest, .. } => dest.len as usize,
        // A fused sweep streams the destination once and each source once.
        LinkedInstr::FusedMacs { dest, terms, .. } => dest.len as usize * (1 + terms.len()),
    }
}

fn link_comm(
    comm: &CommSpec,
    by_name: &HashMap<&str, BufferId>,
    layouts: &[BufferLayout],
    field_buffers: &[String],
    z_halo: usize,
) -> Result<LinkedComm, ExecError> {
    if comm.num_chunks < 1 || comm.chunk_size < 0 {
        return Err(err(
            "link-exchange",
            format!("invalid exchange: {} chunks of {} elements", comm.num_chunks, comm.chunk_size),
        ));
    }
    let num_chunks = comm.num_chunks as usize;
    let chunk_size = comm.chunk_size as usize;
    let col_len = num_chunks * chunk_size;

    let recv =
        *by_name.get("recv_buffer").ok_or_else(|| err("link-exchange", "missing recv_buffer"))?;
    let recv_layout = &layouts[recv.0 as usize];
    if comm.slots.len() * chunk_size > recv_layout.len {
        return Err(err(
            "link-exchange",
            format!(
                "receive buffer overflow: {} slots of {chunk_size} elements exceed recv_buffer \
             (len {})",
                comm.slots.len(),
                recv_layout.len
            ),
        ));
    }

    let mut snap_fields = Vec::new();
    let mut snap_of: HashMap<&str, usize> = HashMap::new();
    let mut slots = Vec::with_capacity(comm.slots.len());
    for spec in &comm.slots {
        // Slots may only transmit declared field buffers — a slot naming
        // any other buffer (or an unknown one) is a malformed program.
        if !field_buffers.iter().any(|f| f == &spec.field) {
            return Err(err("link-unknown-buffer", format!("unknown field buffer {}", spec.field)));
        }
        let id = *by_name.get(spec.field.as_str()).ok_or_else(|| {
            err("link-unknown-buffer", format!("unknown field buffer {}", spec.field))
        })?;
        let layout = &layouts[id.0 as usize];
        let snap_index = match snap_of.get(spec.field.as_str()) {
            Some(&i) => i,
            None => {
                let start = z_halo.min(layout.len);
                snap_fields.push(SnapField {
                    buffer: id,
                    src_base: layout.base + start,
                    copy_len: col_len.min(layout.len - start),
                });
                snap_of.insert(&spec.field, snap_fields.len() - 1);
                snap_fields.len() - 1
            }
        };
        slots.push(LinkedSlot { snap_index, dx: spec.dx, dy: spec.dy, staged: true });
    }

    Ok(LinkedComm {
        num_chunks,
        chunk_size,
        recv_base: recv_layout.base,
        slots,
        snap_fields,
        col_len,
        capture: true,
    })
}

fn link_block(
    instrs: &[Instr],
    by_name: &HashMap<&str, BufferId>,
    layouts: &[BufferLayout],
    max_dyn: usize,
    max_view_len: &mut usize,
) -> Result<Vec<LinkedInstr>, ExecError> {
    let view = |v: &ViewRef| link_view(v, by_name, layouts, max_dyn);
    let mut out = Vec::with_capacity(instrs.len());
    for instr in instrs {
        let linked = match instr {
            Instr::Movs { dest, src } => {
                let dest = view(dest)?;
                match src {
                    Src::Scalar(value) => LinkedInstr::Fill { dest, value: *value },
                    Src::View(src) => {
                        let src = view(src)?;
                        require_same_len(dest, &[src])?;
                        LinkedInstr::Copy { dest, src }
                    }
                }
            }
            Instr::Binary { kind, dest, a, b } => {
                let (dest, a, b) = (view(dest)?, view(a)?, view(b)?);
                require_same_len(dest, &[a, b])?;
                LinkedInstr::Binary { kind: *kind, dest, a, b }
            }
            Instr::Macs { dest, acc, src, coeff } => {
                let (dest, acc, src) = (view(dest)?, view(acc)?, view(src)?);
                require_same_len(dest, &[acc, src])?;
                LinkedInstr::Macs { dest, acc, src, coeff: *coeff }
            }
        };
        *max_view_len = (*max_view_len).max(instr_elements(&linked));
        out.push(linked);
    }
    Ok(out)
}

fn require_same_len(dest: LinkedView, srcs: &[LinkedView]) -> Result<(), ExecError> {
    for src in srcs {
        if src.len != dest.len {
            return Err(err(
                "link-view-bounds",
                format!(
                    "operand length mismatch: destination has {} elements, source has {}",
                    dest.len, src.len
                ),
            ));
        }
    }
    Ok(())
}

fn link_view(
    view: &ViewRef,
    by_name: &HashMap<&str, BufferId>,
    layouts: &[BufferLayout],
    max_dyn: usize,
) -> Result<LinkedView, ExecError> {
    let id = *by_name
        .get(view.buffer.as_str())
        .ok_or_else(|| err("link-unknown-buffer", format!("unknown buffer {}", view.buffer)))?;
    let layout = &layouts[id.0 as usize];
    if view.offset < 0 || view.len < 0 {
        return Err(err(
            "link-view-bounds",
            format!(
                "negative view [offset {}, len {}] of buffer {}",
                view.offset, view.len, view.buffer
            ),
        ));
    }
    let (offset, len) = (view.offset as usize, view.len as usize);
    let reach = offset + if view.dynamic { max_dyn } else { 0 } + len;
    if reach > layout.len {
        return Err(err(
            "link-view-bounds",
            format!(
                "view [{offset}, {reach}) out of bounds for buffer {} (len {})",
                view.buffer, layout.len
            ),
        ));
    }
    Ok(LinkedView { base: (layout.base + offset) as u32, len: len as u32, dynamic: view.dynamic })
}

// ------------------------------------------------------------------------
// The link-time optimizer (see module docs for the pass units and the
// dependence query each one's safety argument rests on).
// ------------------------------------------------------------------------

/// An observable-dataflow summary function (see [`crate::validate`]).
type Summary = fn(&LinkedProgram) -> Vec<u64>;

/// How the translation validator checks the optimizer's pass units.
#[derive(Clone, Copy)]
struct Check {
    /// The summary two equivalent streams agree on.
    summary: Summary,
    /// Try the composition of all units before checking any one of them.
    compose: bool,
}

/// One optimizer pass unit: the name a rejection is blamed on, and the
/// rewrite.
type PassUnit<'a> = (&'static str, &'a dyn Fn(&mut LinkedProgram, &mut OptStats));

/// Runs the eight pass units over every kernel, under the translation
/// validator when `check` is set ([`LinkOptions::validate`]).
fn optimize_program(
    linked: &mut LinkedProgram,
    mutate: Option<LinkMutation>,
    check: Option<Check>,
) {
    let fuse_blocks = |linked: &mut LinkedProgram, stats: &mut OptStats| {
        for kernel in &mut linked.kernels {
            let max_dyn = kernel.max_dyn();
            // Dynamic views only take a non-zero offset in the receive
            // callback; pre/done always run at chunk offset 0.
            kernel.pre = fuse_block(&kernel.pre, 0, mutate, stats);
            kernel.recv = fuse_block(&kernel.recv, max_dyn, mutate, stats);
            kernel.done = fuse_block(&kernel.done, 0, mutate, stats);
        }
    };
    let units: [PassUnit<'_>; 8] = [
        // First normalize `Binary(Mul)`+`Binary(Add)` accumulate pairs into
        // `Macs` so streams lowered with `enable_fmac_fusion=false` feed the
        // same chain fusion as fmacs-lowered ones.
        ("fuse-mul-add-pairs", &fuse_mul_add_pairs),
        ("fuse-block", &fuse_blocks),
        ("elide-staging", &elide_staging),
        ("flatten-chunks", &flatten_chunks),
        ("merge-single-chunk-blocks", &merge_single_chunk_blocks),
        ("fold-dead-writes", &fold_dead_writes),
        ("defer-commits", &defer_commits),
        ("coalesce-arena", &coalesce_arena),
    ];
    let mut stats = std::mem::take(&mut linked.stats);
    stats.optimized = true;
    match check {
        Some(check) => run_units_checked(linked, &mut stats, &units, check),
        None => units.iter().for_each(|(_, unit)| unit(linked, &mut stats)),
    }
    linked.stats = stats;
}

/// Runs `units` so that the stream left in `linked` has the observable
/// dataflow summary (see [`crate::validate`]) it came in with — what
/// diagnostic `E201` guarantees — whatever a unit, or an injected
/// [`LinkMutation`], gets wrong.
///
/// *Compose, compare, bisect by replay.*  The guarantee is about the
/// emitted stream, so the composition is checked first: all units run
/// unchecked, and if the final stream summarizes like the original every
/// unit is accepted — two summaries and one saved stream instead of one
/// of each per unit.  Only a mismatch pays for blame: the saved stream
/// comes back and the units replay one at a time, each compared with the
/// baseline and *reverted* when it changed the summary — i.e. dropped or
/// reordered a dependence — counted in
/// [`OptStats::validator_rejections`] and named in
/// [`OptStats::rejected_passes`].  A unit runs on the same input in the
/// replay as it would have with no composed attempt, so whenever the
/// composition fails, blame and the reverted stream are those of checking
/// every unit from the start (`check.compose` off, [`link_per_unit`]).
/// The two differ in one case only: a unit changes the summary and a
/// later unit changes it back.  Unit by unit the first is blamed and
/// reverted; composed, the emitted stream is equivalent, so it is
/// accepted whole (seen under the injected mutation on hand-built
/// programs, never on a compiled one; pinned by
/// `a_defect_a_later_unit_undoes_is_accepted_with_the_composition`).
fn run_units_checked(
    linked: &mut LinkedProgram,
    stats: &mut OptStats,
    units: &[PassUnit<'_>],
    check: Check,
) {
    let baseline = (check.summary)(linked);
    if check.compose {
        let saved = (linked.clone(), stats.clone());
        units.iter().for_each(|(_, unit)| unit(linked, stats));
        if (check.summary)(linked) == baseline {
            stats.validated_passes += units.len();
            return;
        }
        (*linked, *stats) = saved;
    }
    for (name, unit) in units {
        let saved = (linked.clone(), stats.clone());
        unit(linked, stats);
        if (check.summary)(linked) != baseline {
            (*linked, *stats) = saved;
            stats.validator_rejections += 1;
            stats.rejected_passes.push(name);
        }
        stats.validated_passes += 1;
    }
}

/// One instruction as a peephole rule sees it.
struct Site<'a> {
    /// The instruction under the rule.
    instr: &'a LinkedInstr,
    /// Its successor in the same block.
    next: Option<&'a LinkedInstr>,
    /// Chunk slack of the block's dynamic views (zero outside `recv`).
    max_dyn: usize,
    /// The program cycle, for liveness questions.
    events: &'a [Event],
    /// Event index of `instr` (`next` is `pos + 1`).
    pos: usize,
}

impl Site<'_> {
    /// Whether the content of `view` is dead once `next` has run, so the
    /// pair's write to it may be dropped.
    fn dead_after_next(&self, view: &LinkedView) -> bool {
        deps::dead_after(self.events, self.pos + 1, view.span(self.max_dyn))
    }
}

/// Runs one peephole `rule` over every instruction of every sweep block
/// until it rewrites nothing.  A rule answers `Some((len, with))` to
/// replace the `len` instructions starting at the site by `with`, having
/// counted the rewrite in its own [`OptStats`] counter; each rewrite
/// restarts the scan over fresh events, because it moves every later
/// position — and takes the skip tally back to where the pass found it, so
/// only the scan that rewrites nothing (the fixed point) reports its skip
/// reasons.
fn rewrite_to_fixpoint(
    linked: &mut LinkedProgram,
    stats: &mut OptStats,
    rule: impl Fn(&Site<'_>, &mut OptStats) -> Option<(usize, Option<LinkedInstr>)>,
) {
    let skipped_before = stats.skipped;
    'rescan: loop {
        let events = deps::cycle_events(linked);
        for (pos, event) in events.iter().enumerate() {
            if event.kind != EventKind::Instr {
                continue;
            }
            let kernel = &mut linked.kernels[event.kernel];
            let max_dyn = if event.block == Block::Recv { kernel.max_dyn() } else { 0 };
            let block = match event.block {
                Block::Pre => &mut kernel.pre,
                Block::Recv => &mut kernel.recv,
                Block::Done => &mut kernel.done,
                Block::Commit => &mut kernel.commit,
                Block::Exchange => unreachable!("instruction events belong to instruction blocks"),
            };
            let i = event.index;
            let site =
                Site { instr: &block[i], next: block.get(i + 1), max_dyn, events: &events, pos };
            if let Some((len, with)) = rule(&site, stats) {
                block.splice(i..i + len, with);
                stats.skipped = skipped_before;
                continue 'rescan;
            }
        }
        return;
    }
}

/// Rewrites `t = src * coeffbuf; d = d + t` pairs into
/// `Macs { dest: d, acc: d, src, coeff }` — the two-instruction spelling a
/// pipeline with `enable_fmac_fusion=false` emits for every
/// multiply-accumulate.
///
/// The rewrite requires: the multiplier view reads a buffer that is never
/// written by any instruction or receive staging and is not a field (so
/// every element holds the buffer's `init` — the scalar coefficient); the
/// `Add` accumulates in place (`d = d + t` or `d = t + d`; f32 addition is
/// commutative bitwise); `src` and the scratch `t` are disjoint from `d`
/// and from each other (the one-pass `Macs` must observe the same values
/// as the two full sweeps); and the eliminated write to `t` is dead under
/// the cyclic liveness scan.  Per element the replacement performs the
/// identical multiply-then-add, so results are bitwise unchanged.  The
/// produced `Macs` then participates in FMA-chain fusion like any
/// loader-emitted one.
fn fuse_mul_add_pairs(linked: &mut LinkedProgram, stats: &mut OptStats) {
    let layouts = linked.layouts.clone();
    let mut written = vec![false; layouts.len()];
    for write in deps::cycle_events(linked).iter().filter_map(|e| e.write) {
        written[buffer_at(&layouts, write.0 as u32).0 as usize] = true;
    }
    // Field buffers carry per-element initial conditions, so a view of one
    // is not a splat of its `init` even when no instruction writes it.
    for id in &linked.field_ids {
        written[id.0 as usize] = true;
    }
    let constant_of = |v: &LinkedView| -> Option<f32> {
        let owner = buffer_at(&layouts, v.base);
        if written[owner.0 as usize] {
            return None;
        }
        Some(layouts[owner.0 as usize].init)
    };
    // Count the data×data multiplies (product-decomposition evidence)
    // before any rewriting; the coefficient muls below are excluded
    // because one side reads a splat constant buffer.
    for kernel in &linked.kernels {
        for instr in kernel.pre.iter().chain(&kernel.recv).chain(&kernel.done) {
            if let LinkedInstr::Binary { kind: BinKind::Mul, a, b, .. } = instr {
                if constant_of(a).is_none() && constant_of(b).is_none() {
                    stats.product_muls += 1;
                }
            }
        }
    }
    let rule = |site: &Site<'_>, stats: &mut OptStats| {
        let LinkedInstr::Binary { kind: BinKind::Mul, dest: t, a, b } = site.instr else {
            return None;
        };
        let Some(LinkedInstr::Binary { kind: BinKind::Add, dest: d, a: x, b: y }) = site.next
        else {
            return None;
        };
        // The add must accumulate the scratch into its own destination
        // (either operand order).
        if !((x == t && y == d) || (y == t && x == d)) {
            return None;
        }
        let (src, coeff) = match (constant_of(b), constant_of(a)) {
            (Some(c), _) => (*a, c),
            (_, Some(c)) => (*b, c),
            _ => {
                // Both operands read written (data) buffers: a decomposed
                // product term, fenced out.
                stats.skipped.product_fence += 1;
                return None;
            }
        };
        let disjoint = |p: &LinkedView, q: &LinkedView| views_disjoint(p, q, site.max_dyn);
        if !disjoint(&src, d) || !disjoint(t, d) || !disjoint(t, &src) {
            stats.skipped.aliasing += 1;
            return None;
        }
        if !site.dead_after_next(t) {
            stats.skipped.multi_result += 1;
            return None;
        }
        stats.binary_macs_fused += 1;
        Some((2, Some(LinkedInstr::Macs { dest: *d, acc: *d, src, coeff })))
    };
    rewrite_to_fixpoint(linked, stats, rule);
}

/// Drops writes the cyclic liveness scan ([`deps::dead_after`]) proves
/// dead, in two shapes:
///
/// * a fused sweep or an unfused `Binary` whose result `t` is immediately
///   copied out (`…; out = t`) is retargeted at `out` and the `Copy`
///   disappears (see [`folds_into_copy`]) — the accumulator write-back of
///   a sweep, and of a product kernel (`acc = a · b; out = acc`).  Per
///   element the retargeted instruction performs the identical operation,
///   so results are bitwise unchanged;
/// * a write to an internal double-buffer field that nothing reads is
///   removed — typically the producer's renamed store when every consumer
///   was substituted away during inlining.  Internal fields are excluded
///   from the always-live set (see [`LinkedProgram::field_internal`]);
///   writes to observable fields are never touched.
fn fold_dead_writes(linked: &mut LinkedProgram, stats: &mut OptStats) {
    let internal: Vec<BufferId> = linked
        .field_ids
        .iter()
        .zip(&linked.field_internal)
        .filter(|&(_, &internal)| internal)
        .map(|(&id, _)| id)
        .collect();
    let layouts = linked.layouts.clone();
    let rule = |site: &Site<'_>, stats: &mut OptStats| {
        let folded = match site.instr {
            LinkedInstr::FusedMacs { .. } => Some(&mut stats.copies_folded),
            LinkedInstr::Binary { .. } => Some(&mut stats.binary_copies_folded),
            _ => None,
        };
        if let Some(folded) = folded {
            if let Some(out) = folds_into_copy(site, &mut stats.skipped) {
                *folded += 1;
                let mut retargeted = site.instr.clone();
                *instr_views_mut(&mut retargeted)[0] = out;
                return Some((2, Some(retargeted)));
            }
        }
        let dest = site.instr.dest();
        let dead = internal.contains(&buffer_at(&layouts, dest.base))
            && deps::dead_after(site.events, site.pos, dest.span(site.max_dyn));
        stats.dead_writes_elided += usize::from(dead);
        dead.then_some((1, None))
    };
    rewrite_to_fixpoint(linked, stats, rule);
}

/// Collapses a multi-chunk exchange into a single full-column chunk when
/// the chunks are provably independent: every receive slot's staging was
/// elided, every receive-callback operand advances with the chunk offset
/// over a contiguous window (dynamic arena views and slot reads of exactly
/// one chunk, starting at the window base), and the dependence core finds
/// no dependence carried between chunks ([`deps::chunk_carried`]).
/// Executing chunk `c` then touches exactly elements
/// `[c·chunk, (c+1)·chunk)` of each view and never what another chunk
/// wrote, so running all chunks as one sweep performs the identical
/// per-element operation sequence — bitwise equal, with `num_chunks − 1`
/// fewer dispatches per PE.
fn flatten_chunks(linked: &mut LinkedProgram, stats: &mut OptStats) {
    let events = deps::cycle_events(linked);
    for (k, kernel) in linked.kernels.iter_mut().enumerate() {
        let Some(comm) = &mut kernel.comm else { continue };
        if comm.num_chunks <= 1 || comm.slots.iter().any(|s| s.staged) {
            continue;
        }
        let chunk = comm.chunk_size as u32;
        if chunk == 0 {
            continue;
        }
        // Only fused sweeps qualify: the scratch-semantics instructions
        // (`Copy`, `Binary`, `Macs`) read a whole chunk before writing it,
        // which a whole-column run does not reproduce.
        let flattenable = kernel.recv.iter().all(|instr| {
            let LinkedInstr::FusedMacs { init, terms, .. } = instr else { return false };
            let ops = instr.operands();
            std::iter::once(ops.dest).chain(ops.reads).all(|v| v.dynamic && v.len == chunk)
                // A `Fill` init is re-applied per chunk, not per column.
                && matches!(init, FusedInit::Acc(_))
                && terms.iter().all(|t| match t.src {
                    SrcRef::Arena(_) => true,
                    SrcRef::Slot { offset, len, .. } => offset == 0 && len == chunk,
                })
        });
        if !flattenable || deps::chunk_carried(&events, k) {
            continue;
        }
        let col = comm.col_len as u32;
        for instr in &mut kernel.recv {
            for view in instr_views_mut(instr) {
                view.len = col;
            }
            if let LinkedInstr::FusedMacs { terms, .. } = instr {
                for term in terms {
                    if let SrcRef::Slot { len, .. } = &mut term.src {
                        *len = col;
                    }
                }
            }
        }
        comm.chunk_size = comm.col_len;
        comm.num_chunks = 1;
        stats.chunks_flattened += 1;
    }
}

/// With a single chunk and no staging, a kernel's `pre`, `recv`, and
/// `done` blocks execute back to back per PE — the split is purely
/// structural.  Concatenating them exposes cross-block fusion: the
/// accumulator `Fill` merges into the first sweep's init, and adjacent
/// sweeps over the same destination merge into one wider sweep (both
/// rewrites preserve the per-element operation sequence exactly).
fn merge_single_chunk_blocks(linked: &mut LinkedProgram, stats: &mut OptStats) {
    for kernel in &mut linked.kernels {
        let Some(comm) = &kernel.comm else { continue };
        if comm.num_chunks != 1 || comm.slots.iter().any(|s| s.staged) {
            continue;
        }
        let mut merged = std::mem::take(&mut kernel.pre);
        merged.append(&mut kernel.recv);
        merged.append(&mut kernel.done);
        kernel.done = merge_fused_sweeps(merged, stats);
    }
}

/// True when the two views address the same range at chunk offset 0 (the
/// only offset a single-chunk kernel ever runs at — the dynamic flag is
/// immaterial there).
fn same_range(a: &LinkedView, b: &LinkedView) -> bool {
    a.base == b.base && a.len == b.len
}

/// The peephole behind [`merge_single_chunk_blocks`]: merges
/// `Fill(d, c); FusedMacs(d, Acc(d), T)` into `FusedMacs(d, Fill(c), T)`
/// and `FusedMacs(d, I, T1); FusedMacs(d, Acc(d), T2)` into
/// `FusedMacs(d, I, T1 ++ T2)` (sources are disjoint from `d`, so the
/// per-element chains concatenate unchanged).
fn merge_fused_sweeps(instrs: Vec<LinkedInstr>, stats: &mut OptStats) -> Vec<LinkedInstr> {
    let mut out: Vec<LinkedInstr> = Vec::with_capacity(instrs.len());
    for instr in instrs {
        match (out.pop(), instr) {
            (
                Some(LinkedInstr::Fill { dest: d, value }),
                LinkedInstr::FusedMacs { dest, init: FusedInit::Acc(a), terms },
            ) if same_range(&d, &dest) && same_range(&a, &dest) => {
                out.push(LinkedInstr::FusedMacs { dest, init: FusedInit::Fill(value), terms });
                stats.sweeps_merged += 1;
            }
            (
                Some(LinkedInstr::FusedMacs { dest: d, init, terms: mut t1 }),
                LinkedInstr::FusedMacs { dest, init: FusedInit::Acc(a), terms },
            ) if same_range(&d, &dest) && same_range(&a, &dest) => {
                t1.extend(terms);
                out.push(LinkedInstr::FusedMacs { dest: d, init, terms: t1 });
                stats.sweeps_merged += 1;
            }
            (prev, instr) => {
                if let Some(prev) = prev {
                    out.push(prev);
                }
                out.push(instr);
            }
        }
    }
    out
}

/// Elides the pre-kernel snapshot capture for kernels whose transmitted
/// fields are written only by a trailing write-back.
///
/// The snapshot exists so cross-PE reads observe the pre-kernel state.
/// When every write to a snapshotted buffer sits in a suffix of the
/// `done` block, that suffix can instead run as a *deferred commit*
/// ([`LinkedKernel::commit`]): the run phase executes all sweeps against
/// the live arenas — which still hold the pre-kernel state, because
/// nothing else writes those buffers — and applies the commits once no
/// sweep can observe them (lagging [`LinkedComm::max_dy`] rows behind the
/// sweep inside each row band; the few rows a neighbouring band reads,
/// after the barrier).  This
/// removes the snapshot copy entirely; direct slot reads
/// ([`SrcRef::Slot`]) then resolve to the neighbor's arena column.
///
/// Conditions: every snapshot column covers its full window
/// (`copy_len == col_len`, otherwise the capture's zero tail has no arena
/// backing), and no instruction outside the commit suffix writes any
/// snapshotted buffer.  Commit instructions only touch PE-local state, so
/// deferring them preserves each PE's own observation order — results
/// stay bitwise identical.
fn defer_commits(linked: &mut LinkedProgram, stats: &mut OptStats) {
    let layouts = linked.layouts.clone();
    for kernel in &mut linked.kernels {
        let Some(comm) = &kernel.comm else { continue };
        if !comm.capture || comm.snap_fields.iter().any(|f| f.copy_len != comm.col_len) {
            continue;
        }
        let snapped: Vec<BufferId> = comm.snap_fields.iter().map(|f| f.buffer).collect();
        let writes_snapped =
            |instr: &LinkedInstr| snapped.contains(&buffer_at(&layouts, instr.dest().base));
        // The commit suffix: trailing `done` instructions whose destination
        // is a snapshotted buffer.  Deferred commits run after the sweeps,
        // against the live arenas: a direct slot read ([`SrcRef::Slot`])
        // inside one would observe *post*-commit neighbor state (and the
        // run phase does not even resolve slot columns in the commit
        // pass), so such instructions can never be deferred.
        let mut split = kernel.done.len();
        while split > 0
            && writes_snapped(&kernel.done[split - 1])
            && !kernel.done[split - 1].operands().slot_src
        {
            split -= 1;
        }
        // Every other write to a snapshotted buffer blocks the deferral.
        let sweep_writes = kernel
            .pre
            .iter()
            .chain(&kernel.recv)
            .chain(kernel.done.iter().take(split))
            .any(writes_snapped);
        if sweep_writes {
            continue;
        }
        kernel.commit = kernel.done.split_off(split);
        let comm = kernel.comm.as_mut().expect("checked above");
        comm.capture = false;
        stats.captures_elided += 1;
    }
}

/// Rewrites receive-callback fused-term reads of staged slot data into
/// direct snapshot reads ([`SrcRef::Slot`]), then clears
/// [`LinkedSlot::staged`] for every slot whose staged copy is provably
/// never observed afterwards — the run phase skips those copies entirely.
///
/// The rewrite targets static views that lie fully inside one slot's chunk
/// window of the receive buffer, and only where the staged copy is the
/// sole write reaching the read ([`deps::reaching_writes`]): the window
/// then holds exactly the snapshot elements
/// `[offset + chunk · chunk_size, … + len)` of the slot's column (zeros
/// outside the grid), so the direct read is bitwise identical.  A `recv`
/// instruction that writes into the window ahead of the read makes the
/// window ordinary storage, and the read stays an arena read.  The staging
/// decision is the cyclic liveness scan ([`deps::dead_after`]): a slot
/// keeps its copy as long as any instruction still reads its window
/// before the next full overwrite — and whenever an instruction of its own
/// kernel writes the window, which makes it that kernel's scratch storage
/// rather than an exchange buffer this pass may retire.
fn elide_staging(linked: &mut LinkedProgram, stats: &mut OptStats) {
    let events = deps::cycle_events(linked);
    for (pos, event) in events.iter().enumerate() {
        if (event.kind, event.block) != (EventKind::Instr, Block::Recv) {
            continue;
        }
        let recv = &mut linked.kernels[event.kernel].recv;
        let LinkedInstr::FusedMacs { terms, .. } = &mut recv[event.index] else { continue };
        for term in terms {
            let SrcRef::Arena(v) = &term.src else { continue };
            if v.dynamic || v.len == 0 {
                continue;
            }
            let span = v.span(0);
            // One reaching write: this kernel's staged copy of a window
            // that holds the whole read (a read straddling two windows
            // sees two neighbors and cannot be redirected).
            let [w] = deps::reaching_writes(&events, pos, span)[..] else { continue };
            let (stage, Some(window)) = (&events[w], events[w].write) else { continue };
            if (stage.kind, stage.kernel) == (EventKind::Staging, event.kernel)
                && window.0 <= span.0
                && span.1 <= window.1
            {
                let (slot, offset) = (stage.index as u32, (span.0 - window.0) as u32);
                term.src = SrcRef::Slot { slot, offset, len: v.len };
            }
        }
    }
    let events = deps::cycle_events(linked);
    for (pos, event) in events.iter().enumerate() {
        let (EventKind::Staging, Some(window)) = (event.kind, event.write) else { continue };
        let scratch = events.iter().any(|e| {
            (e.kind, e.kernel) == (EventKind::Instr, event.kernel)
                && e.write.is_some_and(|w| overlaps(w, window))
        });
        if !scratch && deps::dead_after(&events, pos, window) {
            let comm = linked.kernels[event.kernel].comm.as_mut().expect("staging has an exchange");
            comm.slots[event.index].staged = false;
            stats.slots_elided += 1;
        }
    }
}

/// Collapses `Fill`/`Macs` chains into [`LinkedInstr::FusedMacs`] sweeps.
///
/// A chain is `[Fill(d, c)]? Macs(d, a₀, s₀, c₀) (Macs(d, d, sᵢ, cᵢ))*`
/// where the first accumulator `a₀` is either `d` itself (or the preceding
/// `Fill` value) or a distinct disjoint view, and every source `sᵢ` is
/// provably disjoint from `d`.  A single safe `Macs` also becomes an
/// arity-1 sweep: it drops the scratch double-buffer the generic path
/// needs for aliasing safety.
///
/// `mutate` injects [`LinkMutation::DropAliasingCheck`]: the
/// source/destination disjointness check is skipped, producing the broken
/// fusions the translation validator's mutation test must catch.
fn fuse_block(
    instrs: &[LinkedInstr],
    max_dyn: usize,
    mutate: Option<LinkMutation>,
    stats: &mut OptStats,
) -> Vec<LinkedInstr> {
    let ignore_aliasing = mutate == Some(LinkMutation::DropAliasingCheck);
    let mut out = Vec::with_capacity(instrs.len());
    let mut i = 0;
    while i < instrs.len() {
        let (mut init, dest, first_macs) = match &instrs[i] {
            LinkedInstr::Fill { dest, value } => (Some(FusedInit::Fill(*value)), *dest, i + 1),
            LinkedInstr::Macs { dest, .. } => (None, *dest, i),
            other => {
                out.push(other.clone());
                i += 1;
                continue;
            }
        };
        let mut terms: Vec<FusedTerm> = Vec::new();
        let mut j = first_macs;
        while j < instrs.len() {
            let LinkedInstr::Macs { dest: d, acc, src, coeff } = &instrs[j] else {
                // An unrelated instruction cut the chain; when more
                // fusable same-destination terms follow later in the
                // block, the adjacency window just cost a wider sweep —
                // the fusion barrier the ROADMAP's DAG scheduler targets.
                if !terms.is_empty()
                    && instrs[j + 1..].iter().any(|later| {
                        matches!(later, LinkedInstr::Macs { dest: d2, acc: a2, .. }
                            if *d2 == dest && *a2 == dest)
                    })
                {
                    stats.skipped.window_barrier += 1;
                }
                break;
            };
            if *d != dest {
                break;
            }
            if !ignore_aliasing && !views_disjoint(src, &dest, max_dyn) {
                stats.skipped.aliasing += 1;
                break;
            }
            if terms.is_empty() && init.is_none() {
                // The first term of a bare chain supplies the init: the
                // destination itself, or a distinct disjoint accumulator.
                if *acc == dest || views_disjoint(acc, &dest, max_dyn) {
                    init = Some(FusedInit::Acc(*acc));
                } else {
                    stats.skipped.aliasing += 1;
                    break;
                }
            } else if *acc != dest {
                break;
            }
            terms.push(FusedTerm { src: SrcRef::Arena(*src), coeff: *coeff });
            j += 1;
        }
        let absorbed = j - i;
        if terms.is_empty() {
            // No fusable Macs followed (a bare Fill, or an aliasing Macs).
            out.push(instrs[i].clone());
            i += 1;
            continue;
        }
        if absorbed >= 2 {
            stats.fused_chains += 1;
            stats.fused_terms += terms.len();
            stats.longest_chain = stats.longest_chain.max(absorbed);
        }
        out.push(LinkedInstr::FusedMacs { dest, init: init.expect("set with first term"), terms });
        i = j;
    }
    out
}

/// When a write folds into the copy after it: the instruction at the site
/// writes `t`, `next` copies `t` to `out`, nothing the instruction touches
/// — its sources, an accumulator init, `t` itself — overlaps `out` (slot
/// sources read the snapshot and cannot alias an arena view), and the
/// eliminated write to `t` is provably dead after the copy.  Returns `out`.
fn folds_into_copy(site: &Site<'_>, skipped: &mut SkipCounts) -> Option<LinkedView> {
    let t = site.instr.dest();
    let Some(LinkedInstr::Copy { dest: out, src }) = site.next else { return None };
    if src != t {
        return None;
    }
    let (event, out_span) = (&site.events[site.pos], out.span(site.max_dyn));
    if event.reads.iter().chain(&event.write).any(|&touched| overlaps(touched, out_span)) {
        skipped.aliasing += 1;
        return None;
    }
    if !site.dead_after_next(t) {
        skipped.multi_result += 1;
        return None;
    }
    Some(*out)
}

/// Every arena view of an instruction, mutably, destination first: the
/// `&mut` twin of [`LinkedInstr::operands`] (slot sources address the
/// snapshot, which neither coalescing nor flattening moves).
fn instr_views_mut(instr: &mut LinkedInstr) -> Vec<&mut LinkedView> {
    match instr {
        LinkedInstr::Fill { dest, .. } => vec![dest],
        LinkedInstr::Copy { dest, src } => vec![dest, src],
        LinkedInstr::Binary { dest, a, b, .. } => vec![dest, a, b],
        LinkedInstr::Macs { dest, acc, src, .. } => vec![dest, acc, src],
        LinkedInstr::FusedMacs { dest, init, terms } => {
            let mut views = vec![dest];
            if let FusedInit::Acc(a) = init {
                views.push(a);
            }
            views.extend(terms.iter_mut().filter_map(|t| match &mut t.src {
                SrcRef::Arena(v) => Some(v),
                SrcRef::Slot { .. } => None,
            }));
            views
        }
    }
}

/// Removes buffers no instruction, receive slot, or snapshot references,
/// re-packing the survivors back to back and remapping every view.
fn coalesce_arena(linked: &mut LinkedProgram, stats: &mut OptStats) {
    let old_layouts = linked.layouts.clone();
    if old_layouts.is_empty() {
        return;
    }
    let mut used = vec![false; old_layouts.len()];
    for id in &linked.field_ids {
        used[id.0 as usize] = true;
    }
    // Everything any step of the cycle touches (instruction operands and
    // the transmitted columns), plus every exchange's receive buffer.
    for event in deps::cycle_events(linked) {
        for span in event.reads.iter().chain(&event.write) {
            used[buffer_at(&old_layouts, span.0 as u32).0 as usize] = true;
        }
    }
    for comm in linked.kernels.iter().filter_map(|k| k.comm.as_ref()) {
        used[buffer_at(&old_layouts, comm.recv_base as u32).0 as usize] = true;
    }
    if used.iter().all(|&u| u) {
        return;
    }

    // Re-pack the surviving buffers and record each old buffer's offset
    // delta and new id.
    let mut new_layouts = Vec::new();
    let mut new_id = vec![BufferId(u32::MAX); old_layouts.len()];
    let mut delta = vec![0i64; old_layouts.len()];
    let mut base = 0usize;
    for (i, layout) in old_layouts.iter().enumerate() {
        if !used[i] {
            continue;
        }
        new_id[i] = BufferId(new_layouts.len() as u32);
        delta[i] = base as i64 - layout.base as i64;
        new_layouts.push(BufferLayout { base, ..layout.clone() });
        base += layout.len;
    }
    stats.buffers_coalesced += old_layouts.len() - new_layouts.len();

    for kernel in &mut linked.kernels {
        for instr in kernel
            .pre
            .iter_mut()
            .chain(&mut kernel.recv)
            .chain(&mut kernel.done)
            .chain(&mut kernel.commit)
        {
            for view in instr_views_mut(instr) {
                let owner = buffer_at(&old_layouts, view.base).0 as usize;
                view.base = (view.base as i64 + delta[owner]) as u32;
            }
        }
        if let Some(comm) = &mut kernel.comm {
            let owner = buffer_at(&old_layouts, comm.recv_base as u32).0 as usize;
            comm.recv_base = (comm.recv_base as i64 + delta[owner]) as usize;
            for field in &mut comm.snap_fields {
                let owner = field.buffer.0 as usize;
                field.src_base = (field.src_base as i64 + delta[owner]) as usize;
                field.buffer = new_id[owner];
            }
        }
    }
    for id in &mut linked.field_ids {
        *id = new_id[id.0 as usize];
    }
    linked.arena_len = base;
    linked.layouts = new_layouts;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::{BufferDecl, LoadedKernel};

    fn program_with(buffers: Vec<BufferDecl>, pre: Vec<Instr>) -> LoadedProgram {
        LoadedProgram {
            width: 2,
            height: 2,
            z_dim: 4,
            z_halo: 1,
            timesteps: 1,
            buffers,
            field_buffers: vec!["a".into()],
            internal_fields: Vec::new(),
            kernels: vec![LoadedKernel {
                name: "seq_kernel0".into(),
                pre,
                comm: None,
                recv: Vec::new(),
                done: Vec::new(),
            }],
        }
    }

    fn decl(name: &str, len: i64) -> BufferDecl {
        BufferDecl { name: name.into(), len, init: 0.0 }
    }

    fn view(buffer: &str, offset: i64, len: i64) -> ViewRef {
        ViewRef { buffer: buffer.into(), offset, dynamic: false, len }
    }

    #[test]
    fn links_a_minimal_program() {
        let program = program_with(
            vec![decl("a", 6), decl("b", 6)],
            vec![Instr::Movs { dest: view("b", 0, 6), src: Src::View(view("a", 0, 6)) }],
        );
        let linked = link_program(&program).unwrap();
        assert_eq!(linked.arena_len, 12);
        assert_eq!(linked.layouts[1].base, 6, "buffers are laid out back to back");
        assert_eq!(linked.field_ids, vec![BufferId(0)]);
        assert_eq!(linked.max_view_len, 6);
        assert_eq!(linked.kernels[0].work_per_pe, 6);
    }

    #[test]
    fn rejects_out_of_bounds_views() {
        let program = program_with(
            vec![decl("a", 6), decl("b", 6)],
            // Spills past the end of `a` into `b`'s arena region.
            vec![Instr::Movs { dest: view("a", 4, 4), src: Src::Scalar(1.0) }],
        );
        let message = link_program(&program).unwrap_err().message;
        assert!(message.contains("out of bounds"), "got: {message}");
    }

    #[test]
    fn rejects_unknown_buffers_and_fields() {
        let program = program_with(
            vec![decl("a", 6)],
            vec![Instr::Movs { dest: view("ghost", 0, 1), src: Src::Scalar(0.0) }],
        );
        assert!(link_program(&program).unwrap_err().message.contains("unknown buffer ghost"));

        let mut missing_field = program_with(vec![decl("a", 6)], Vec::new());
        missing_field.field_buffers = vec!["missing".into()];
        let message = link_program(&missing_field).unwrap_err().message;
        assert!(message.contains("unknown field buffer missing"), "got: {message}");
    }

    #[test]
    fn rejects_overlapping_layouts() {
        // Duplicate declarations would alias one arena region.
        let program = program_with(vec![decl("a", 6), decl("a", 6)], Vec::new());
        assert!(link_program(&program).unwrap_err().message.contains("duplicate buffer"));

        // The defensive layout validator catches overlap and overflow in
        // hand-built layouts.
        let overlapping = vec![
            BufferLayout { name: "a".into(), base: 0, len: 6, init: 0.0 },
            BufferLayout { name: "b".into(), base: 4, len: 6, init: 0.0 },
        ];
        assert!(validate_layouts(&overlapping, 10).unwrap_err().message.contains("overlaps"));
        let overflowing = vec![BufferLayout { name: "a".into(), base: 0, len: 8, init: 0.0 }];
        assert!(validate_layouts(&overflowing, 6).unwrap_err().message.contains("beyond"));
    }

    #[test]
    fn rejects_short_field_buffers_and_length_mismatches() {
        // Field buffer shorter than halo + interior.
        let short = program_with(vec![decl("a", 3)], Vec::new());
        assert!(link_program(&short).unwrap_err().message.contains("shorter than"));

        let mismatch = program_with(
            vec![decl("a", 6), decl("b", 6)],
            vec![Instr::Binary {
                kind: BinKind::Add,
                dest: view("b", 0, 4),
                a: view("a", 0, 4),
                b: view("a", 0, 3),
            }],
        );
        assert!(link_program(&mismatch).unwrap_err().message.contains("length mismatch"));
    }

    #[test]
    fn rejects_slots_over_non_field_buffers() {
        use crate::loader::SlotSpec;
        let mut program = program_with(vec![decl("a", 6), decl("recv_buffer", 8)], Vec::new());
        program.kernels[0].comm = Some(CommSpec {
            num_chunks: 1,
            chunk_size: 4,
            // recv_buffer exists but is not a declared field buffer.
            slots: vec![SlotSpec { field: "recv_buffer".into(), dx: 1, dy: 0 }],
            fields: vec!["a".into()],
            pattern: 1,
        });
        let message = link_program(&program).unwrap_err().message;
        assert!(message.contains("unknown field buffer recv_buffer"), "got: {message}");
    }

    /// Table-driven negative-path coverage: every rejection class of the
    /// linker must produce a typed [`ExecError`] whose message names the
    /// problem — no panics, no silent acceptance.  Classes marked (new)
    /// had no test before this table existed.
    #[test]
    fn every_rejection_class_is_a_typed_error() {
        use crate::loader::SlotSpec;
        type Mutate = fn(&mut LoadedProgram);
        let cases: [(&str, Mutate, &str); 9] = [
            ("zero-width PE grid (new)", |p| p.width = 0, "invalid PE grid"),
            ("negative grid height (new)", |p| p.height = -3, "invalid PE grid"),
            ("negative z dimension (new)", |p| p.z_dim = -1, "negative z_dim"),
            ("negative z halo (new)", |p| p.z_halo = -2, "negative z_dim or z_halo"),
            ("negative buffer length (new)", |p| p.buffers[0].len = -6, "negative length"),
            (
                "negative view offset (new)",
                |p| {
                    p.kernels[0].pre = vec![Instr::Movs {
                        dest: ViewRef { buffer: "a".into(), offset: -1, dynamic: false, len: 2 },
                        src: Src::Scalar(0.0),
                    }];
                },
                "negative view",
            ),
            (
                "zero-chunk exchange (new)",
                |p| {
                    p.buffers.push(BufferDecl { name: "recv_buffer".into(), len: 8, init: 0.0 });
                    p.kernels[0].comm = Some(CommSpec {
                        num_chunks: 0,
                        chunk_size: 4,
                        slots: vec![],
                        fields: vec!["a".into()],
                        pattern: 1,
                    });
                },
                "invalid exchange",
            ),
            (
                "receive buffer overflow (new)",
                |p| {
                    p.buffers.push(BufferDecl { name: "recv_buffer".into(), len: 4, init: 0.0 });
                    p.kernels[0].comm = Some(CommSpec {
                        num_chunks: 1,
                        chunk_size: 4,
                        slots: vec![
                            SlotSpec { field: "a".into(), dx: 1, dy: 0 },
                            SlotSpec { field: "a".into(), dx: -1, dy: 0 },
                        ],
                        fields: vec!["a".into()],
                        pattern: 1,
                    });
                },
                "receive buffer overflow",
            ),
            (
                "missing recv_buffer (new)",
                |p| {
                    p.kernels[0].comm = Some(CommSpec {
                        num_chunks: 1,
                        chunk_size: 4,
                        slots: vec![SlotSpec { field: "a".into(), dx: 1, dy: 0 }],
                        fields: vec!["a".into()],
                        pattern: 1,
                    });
                },
                "missing recv_buffer",
            ),
        ];
        for (label, mutate, needle) in cases {
            let mut program = program_with(vec![decl("a", 6)], Vec::new());
            mutate(&mut program);
            let error = link_program(&program)
                .expect_err(&format!("{label}: malformed program was accepted"));
            assert!(
                error.message.contains(needle),
                "{label}: diagnostic {:?} does not mention {needle:?}",
                error.message
            );
            let code = error
                .code()
                .unwrap_or_else(|| panic!("{label}: rejection carries no diagnostic code"));
            assert!(
                wse_ir::lookup_diagnostic(code).is_some(),
                "{label}: code {code:?} is not in the wse_ir::diagnostics registry"
            );
        }
    }

    #[test]
    fn mul_add_pairs_fuse_into_macs_without_fmac_lowering() {
        // The `enable_fmac_fusion=false` spelling of `acc += 0.5 * a`:
        // scratch = a * coeff_buffer; acc = acc + scratch.  The peephole
        // must rewrite it into a Macs (and then a fused sweep), because
        // the coefficient buffer is constant-initialized and unwritten.
        let program = LoadedProgram {
            width: 2,
            height: 2,
            z_dim: 4,
            z_halo: 1,
            timesteps: 1,
            buffers: vec![
                decl("a", 6),
                decl("acc", 4),
                decl("scratch", 4),
                BufferDecl { name: "coeff0".into(), len: 4, init: 0.5 },
                BufferDecl { name: "coeff1".into(), len: 4, init: -0.25 },
            ],
            field_buffers: vec!["a".into()],
            internal_fields: Vec::new(),
            kernels: vec![LoadedKernel {
                name: "seq_kernel0".into(),
                pre: vec![
                    Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.0) },
                    Instr::Binary {
                        kind: BinKind::Mul,
                        dest: view("scratch", 0, 4),
                        a: view("a", 1, 4),
                        b: view("coeff0", 0, 4),
                    },
                    Instr::Binary {
                        kind: BinKind::Add,
                        dest: view("acc", 0, 4),
                        a: view("acc", 0, 4),
                        b: view("scratch", 0, 4),
                    },
                    Instr::Binary {
                        kind: BinKind::Mul,
                        dest: view("scratch", 0, 4),
                        a: view("a", 0, 4),
                        b: view("coeff1", 0, 4),
                    },
                    Instr::Binary {
                        kind: BinKind::Add,
                        dest: view("acc", 0, 4),
                        a: view("acc", 0, 4),
                        b: view("scratch", 0, 4),
                    },
                    Instr::Movs { dest: view("a", 1, 4), src: Src::View(view("acc", 0, 4)) },
                ],
                comm: None,
                recv: Vec::new(),
                done: Vec::new(),
            }],
        };
        let linked =
            link_program_with(&program, &LinkOptions { optimize: true, ..LinkOptions::default() })
                .unwrap();
        assert_eq!(linked.stats.binary_macs_fused, 2, "both pairs become Macs");
        // The two Macs then chain into one fused sweep with two terms.
        let sweeps: Vec<&LinkedInstr> = linked.kernels[0]
            .pre
            .iter()
            .filter(|i| matches!(i, LinkedInstr::FusedMacs { .. }))
            .collect();
        assert_eq!(sweeps.len(), 1, "stream: {:?}", linked.kernels[0].pre);
        let LinkedInstr::FusedMacs { terms, .. } = sweeps[0] else { unreachable!() };
        assert_eq!(terms.len(), 2);
        assert_eq!(terms[0].coeff, 0.5);
        assert_eq!(terms[1].coeff, -0.25);
    }

    #[test]
    fn mul_add_peephole_respects_aliasing_and_written_coefficients() {
        // (1) The "coefficient" buffer is written elsewhere: not a
        // constant, the pair must survive untouched.
        let mut program = program_with(
            vec![decl("a", 6), decl("acc", 4), decl("scratch", 4), decl("k", 4)],
            vec![
                Instr::Movs { dest: view("k", 0, 4), src: Src::Scalar(2.0) },
                Instr::Binary {
                    kind: BinKind::Mul,
                    dest: view("scratch", 0, 4),
                    a: view("a", 0, 4),
                    b: view("k", 0, 4),
                },
                Instr::Binary {
                    kind: BinKind::Add,
                    dest: view("acc", 0, 4),
                    a: view("acc", 0, 4),
                    b: view("scratch", 0, 4),
                },
            ],
        );
        let linked =
            link_program_with(&program, &LinkOptions { optimize: true, ..LinkOptions::default() })
                .unwrap();
        assert_eq!(linked.stats.binary_macs_fused, 0, "written multiplier is not a constant");

        // (2) Source overlaps the accumulator: the two-sweep semantics are
        // observable, the pair must survive.
        program.buffers = vec![decl("a", 6), decl("scratch", 4), decl("c", 4)];
        program.buffers[2].init = 0.5;
        program.kernels[0].pre = vec![
            Instr::Binary {
                kind: BinKind::Mul,
                dest: view("scratch", 0, 4),
                a: view("a", 1, 4),
                b: view("c", 0, 4),
            },
            Instr::Binary {
                kind: BinKind::Add,
                dest: view("a", 0, 4),
                a: view("a", 0, 4),
                b: view("scratch", 0, 4),
            },
        ];
        let linked =
            link_program_with(&program, &LinkOptions { optimize: true, ..LinkOptions::default() })
                .unwrap();
        assert_eq!(linked.stats.binary_macs_fused, 0, "aliased src/dest must not fuse");
    }

    #[test]
    fn product_muls_are_counted_and_their_write_back_folds() {
        // The product-kernel stream a decomposed nonlinear body produces:
        // acc = b · b (both sources are data), then the write-back copy
        // into the output field.
        let mut program = program_with(
            vec![decl("a", 6), decl("b", 6), decl("acc", 4)],
            vec![
                Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.0) },
                Instr::Binary {
                    kind: BinKind::Mul,
                    dest: view("acc", 0, 4),
                    a: view("b", 1, 4),
                    b: view("b", 1, 4),
                },
                Instr::Movs { dest: view("a", 1, 4), src: Src::View(view("acc", 0, 4)) },
            ],
        );
        program.field_buffers = vec!["a".into(), "b".into()];
        let linked =
            link_program_with(&program, &LinkOptions { optimize: true, ..LinkOptions::default() })
                .unwrap();
        assert_eq!(linked.stats.product_muls, 1, "data×data mul is counted");
        assert_eq!(linked.stats.binary_macs_fused, 0, "a product is not a coefficient mac");
        assert_eq!(linked.stats.binary_copies_folded, 1, "write-back copy folds");
        // The multiply now writes the field window directly.
        let mul_dests: Vec<u32> = linked.kernels[0]
            .pre
            .iter()
            .filter_map(|i| match i {
                LinkedInstr::Binary { kind: BinKind::Mul, dest, .. } => Some(dest.base),
                _ => None,
            })
            .collect();
        let a_layout = linked.layouts.iter().find(|l| l.name == "a").unwrap();
        assert_eq!(mul_dests, vec![a_layout.base as u32 + 1]);
        assert!(!linked.kernels[0].pre.iter().any(|i| matches!(i, LinkedInstr::Copy { .. })));
    }

    #[test]
    fn binary_copy_folding_respects_aliasing_and_windows() {
        // (1) The write-back destination overlaps a multiply source
        // (`u = u · u` written back into `u`): must not fold.
        let mut program = program_with(
            vec![decl("a", 6), decl("acc", 4)],
            vec![
                Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.0) },
                Instr::Binary {
                    kind: BinKind::Mul,
                    dest: view("acc", 0, 4),
                    a: view("a", 1, 4),
                    b: view("a", 1, 4),
                },
                Instr::Movs { dest: view("a", 1, 4), src: Src::View(view("acc", 0, 4)) },
            ],
        );
        let linked =
            link_program_with(&program, &LinkOptions { optimize: true, ..LinkOptions::default() })
                .unwrap();
        assert_eq!(linked.stats.product_muls, 1);
        assert_eq!(linked.stats.binary_copies_folded, 0, "aliased write-back must not fold");

        // (2) The multiply writes a window of the accumulator but the copy
        // moves the whole buffer (z-shifted remote factor): must not fold.
        program.field_buffers = vec!["a".into(), "b".into()];
        program.buffers = vec![decl("a", 6), decl("b", 6), decl("acc", 4)];
        program.kernels[0].pre = vec![
            Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.0) },
            Instr::Binary {
                kind: BinKind::Mul,
                dest: view("acc", 1, 2),
                a: view("b", 1, 2),
                b: view("b", 2, 2),
            },
            Instr::Movs { dest: view("a", 1, 4), src: Src::View(view("acc", 0, 4)) },
        ];
        let linked =
            link_program_with(&program, &LinkOptions { optimize: true, ..LinkOptions::default() })
                .unwrap();
        assert_eq!(linked.stats.binary_copies_folded, 0, "windowed product must keep its copy");
    }

    #[test]
    fn dynamic_views_are_checked_at_the_last_chunk() {
        use crate::loader::SlotSpec;
        let mut program = program_with(vec![decl("a", 6), decl("recv_buffer", 8)], Vec::new());
        program.z_halo = 0;
        program.kernels[0].comm = Some(CommSpec {
            num_chunks: 2,
            chunk_size: 2,
            slots: vec![SlotSpec { field: "a".into(), dx: 1, dy: 0 }],
            fields: vec!["a".into()],
            pattern: 1,
        });
        // Reaches a[3 + 2 + 2) = a[..7) on the last chunk: out of bounds.
        program.kernels[0].recv = vec![Instr::Movs {
            dest: ViewRef { buffer: "a".into(), offset: 3, dynamic: true, len: 2 },
            src: Src::Scalar(0.0),
        }];
        let message = link_program(&program).unwrap_err().message;
        assert!(message.contains("out of bounds"), "got: {message}");

        // One element earlier fits exactly.
        program.kernels[0].recv = vec![Instr::Movs {
            dest: ViewRef { buffer: "a".into(), offset: 2, dynamic: true, len: 2 },
            src: Src::Scalar(0.0),
        }];
        let linked = link_program(&program).unwrap();
        let comm = linked.kernels[0].comm.as_ref().unwrap();
        assert_eq!(comm.col_len, 4);
        assert_eq!(comm.snap_fields.len(), 1);
        assert_eq!(comm.snap_fields[0].copy_len, 4);
    }

    /// A program whose `Fill`/`Macs` chain reads one element *behind* its
    /// own destination: safe under the generic scratch path, wrong under
    /// an in-place fused sweep.  The aliasing check must refuse the fusion
    /// — and with the check mutated away, the translation validator must
    /// catch the broken rewrite.
    fn aliasing_chain_program() -> LoadedProgram {
        let mut program = program_with(
            vec![decl("a", 6), BufferDecl { name: "acc".into(), len: 6, init: 1.5 }],
            vec![
                Instr::Movs { dest: view("acc", 1, 4), src: Src::Scalar(0.0) },
                Instr::Macs {
                    dest: view("acc", 1, 4),
                    acc: view("acc", 1, 4),
                    // Reads acc[0..4]: element j-1 of the sweep's own
                    // destination window acc[1..5].
                    src: view("acc", 0, 4),
                    coeff: 2.0,
                },
                // Make the damage observable: the field interior a[1..5].
                Instr::Movs { dest: view("a", 1, 4), src: Src::View(view("acc", 1, 4)) },
            ],
        );
        program.timesteps = 1;
        program
    }

    #[test]
    fn aliasing_chains_are_skipped_and_counted() {
        let program = aliasing_chain_program();
        let linked = link_program_with(
            &program,
            &LinkOptions { optimize: true, validate: false, ..LinkOptions::default() },
        )
        .unwrap();
        assert!(
            linked.stats.skipped.aliasing >= 1,
            "the aliasing break must be counted: {:?}",
            linked.stats.skipped
        );
        assert_eq!(linked.stats.fused_chains, 0, "nothing fusable here: {:?}", linked.stats);
    }

    #[test]
    fn window_barriers_are_counted() {
        let program = program_with(
            vec![decl("a", 6), decl("acc", 4), decl("b", 4), decl("x", 4), decl("y", 4)],
            vec![
                Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.0) },
                Instr::Macs {
                    dest: view("acc", 0, 4),
                    acc: view("acc", 0, 4),
                    src: view("b", 0, 4),
                    coeff: 2.0,
                },
                // Unrelated copy cuts the chain although a fusable term
                // follows: the adjacency-window fusion barrier.
                Instr::Movs { dest: view("x", 0, 4), src: Src::View(view("y", 0, 4)) },
                Instr::Macs {
                    dest: view("acc", 0, 4),
                    acc: view("acc", 0, 4),
                    src: view("b", 0, 4),
                    coeff: 3.0,
                },
            ],
        );
        let linked = link_program_with(
            &program,
            &LinkOptions { optimize: true, validate: true, ..LinkOptions::default() },
        )
        .unwrap();
        assert_eq!(linked.stats.skipped.window_barrier, 1, "stats: {:?}", linked.stats.skipped);
        assert_eq!(linked.stats.validator_rejections, 0, "stats: {:?}", linked.stats);
        assert_eq!(linked.stats.validated_passes, 8, "stats: {:?}", linked.stats);
    }

    #[test]
    fn validator_catches_a_dropped_aliasing_check() {
        let program = aliasing_chain_program();
        let reference =
            link_program_with(&program, &LinkOptions { optimize: false, ..LinkOptions::default() })
                .unwrap();

        // Without validation the mutated optimizer emits a broken in-place
        // sweep: the stream's dataflow diverges from the unoptimized one.
        let broken = link_program_with(
            &program,
            &LinkOptions {
                optimize: true,
                validate: false,
                mutate: Some(LinkMutation::DropAliasingCheck),
                ..LinkOptions::default()
            },
        )
        .unwrap();
        assert!(
            broken.stats.fused_chains >= 1,
            "mutation must force the fusion: {:?}",
            broken.stats
        );
        assert!(
            !crate::validate::streams_equivalent(&reference, &broken),
            "the dropped check must actually corrupt the stream"
        );

        // With validation on, the fuse-block pass is rejected and reverted:
        // the final stream is equivalent to the unoptimized one again.
        let guarded = link_program_with(
            &program,
            &LinkOptions {
                optimize: true,
                validate: true,
                mutate: Some(LinkMutation::DropAliasingCheck),
                ..LinkOptions::default()
            },
        )
        .unwrap();
        assert!(
            guarded.stats.validator_rejections >= 1,
            "the validator must reject the broken pass: {:?}",
            guarded.stats
        );
        assert!(
            guarded.stats.rejected_passes.contains(&"fuse-block"),
            "the rejected pass must be named: {:?}",
            guarded.stats.rejected_passes
        );
        assert!(
            crate::validate::streams_equivalent(&reference, &guarded),
            "the reverted stream must match the unoptimized dataflow"
        );
    }

    /// Two independently broken units — the mutated fusion and a
    /// hand-built one that drops the write-back — are both blamed, in pass
    /// order, and each reverted; trying the composition first changes
    /// neither the report nor the stream.
    #[test]
    fn two_broken_units_are_both_blamed_in_pass_order() {
        let unoptimized = LinkOptions { optimize: false, ..LinkOptions::default() };
        let resolved = link_program_with(&aliasing_chain_program(), &unoptimized).unwrap();
        let fuse = |linked: &mut LinkedProgram, stats: &mut OptStats| {
            let kernel = &mut linked.kernels[0];
            kernel.pre = fuse_block(&kernel.pre, 0, Some(LinkMutation::DropAliasingCheck), stats);
        };
        let drop_write_back = |linked: &mut LinkedProgram, _: &mut OptStats| {
            linked.kernels[0].pre.pop();
        };
        let units: [PassUnit<'_>; 4] = [
            ("fuse-mul-add-pairs", &fuse_mul_add_pairs),
            ("fuse-block", &fuse),
            ("drop-write-back", &drop_write_back),
            ("coalesce-arena", &coalesce_arena),
        ];
        let summary: Summary = crate::validate::observable_summary;
        let run = |compose| {
            let (mut linked, mut stats) = (resolved.clone(), OptStats::default());
            run_units_checked(&mut linked, &mut stats, &units, Check { summary, compose });
            (linked, stats)
        };
        let (linked, stats) = run(true);
        assert_eq!(stats.rejected_passes, ["fuse-block", "drop-write-back"], "{stats:?}");
        assert_eq!((stats.validated_passes, stats.validator_rejections), (4, 2), "{stats:?}");
        assert_eq!(stats.fused_chains, 0, "a reverted unit's counters go with it: {stats:?}");
        assert!(crate::validate::streams_equivalent(&resolved, &linked));
        assert_eq!(run(false), (linked, stats));
    }

    /// The one thing composition-first reports differently: the mutated
    /// fusion turns `t += c · t[-1]` into an in-place sweep that reads its
    /// own writes — wrong at that unit's boundary, and blamed there by the
    /// per-unit loop — but `fold-dead-writes` then retargets the sweep at `a`,
    /// off its source, and the *emitted* stream computes the original
    /// values again.  `E201` guarantees the emitted stream, so the
    /// composition is accepted whole; the engine agrees bit for bit.
    #[test]
    fn a_defect_a_later_unit_undoes_is_accepted_with_the_composition() {
        let program = program_with(
            vec![decl("a", 6), decl("t", 6)],
            vec![
                Instr::Movs { dest: view("t", 1, 4), src: Src::View(view("a", 1, 4)) },
                Instr::Macs {
                    dest: view("t", 1, 4),
                    acc: view("t", 1, 4),
                    src: view("t", 0, 4),
                    coeff: -0.25,
                },
                Instr::Movs { dest: view("a", 1, 4), src: Src::View(view("t", 1, 4)) },
            ],
        );
        let mutant = LinkOptions {
            optimize: true,
            validate: true,
            mutate: Some(LinkMutation::DropAliasingCheck),
            ..LinkOptions::default()
        };
        let reference =
            link_program_with(&program, &LinkOptions { optimize: false, ..mutant }).unwrap();

        let per_unit =
            link_per_unit(&program, &mutant, crate::validate::observable_summary).unwrap();
        assert_eq!(per_unit.stats.rejected_passes, ["fuse-block"], "{:?}", per_unit.stats);
        let composed = link_program_with(&program, &mutant).unwrap();
        assert!(composed.stats.rejected_passes.is_empty(), "{:?}", composed.stats);
        assert_eq!(composed.stats.copies_folded, 1, "{:?}", composed.stats);
        assert_eq!(composed.stats.validated_passes, 8, "{:?}", composed.stats);
        for emitted in [&per_unit, &composed] {
            assert!(crate::validate::streams_equivalent(&reference, emitted));
        }

        let state = |options| {
            let mut sim = crate::WseGridSim::with_options(program.clone(), options).unwrap();
            sim.run(None).unwrap();
            sim.grid_state().unwrap()
        };
        assert_eq!(state(mutant), state(LinkOptions { optimize: false, ..mutant }));
    }

    #[test]
    fn clean_optimization_passes_validation() {
        let program = program_with(
            vec![decl("a", 6), decl("acc", 4), decl("b", 4)],
            vec![
                Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.25) },
                Instr::Macs {
                    dest: view("acc", 0, 4),
                    acc: view("acc", 0, 4),
                    src: view("b", 0, 4),
                    coeff: 0.5,
                },
                Instr::Macs {
                    dest: view("acc", 0, 4),
                    acc: view("acc", 0, 4),
                    src: view("a", 0, 4),
                    coeff: -1.0,
                },
                Instr::Movs { dest: view("a", 1, 4), src: Src::View(view("acc", 0, 4)) },
            ],
        );
        let linked = link_program_with(
            &program,
            &LinkOptions { optimize: true, validate: true, ..LinkOptions::default() },
        )
        .unwrap();
        assert!(linked.stats.fused_chains >= 1, "stats: {:?}", linked.stats);
        assert_eq!(linked.stats.validator_rejections, 0, "stats: {:?}", linked.stats);
        assert!(linked.stats.rejected_passes.is_empty(), "stats: {:?}", linked.stats);
    }
}
