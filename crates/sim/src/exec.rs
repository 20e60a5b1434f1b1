//! Run phase of the two-phase simulator: executes a linked program on a
//! simulated PE grid.
//!
//! # Link, then run
//!
//! [`WseGridSim::new`] first *links* the loaded program (see
//! [`crate::link`]): buffer names become dense ids, each PE's buffers are
//! laid out in one flat `f32` arena, and every instruction is resolved to
//! absolute arena offsets with all bounds validated up front.  The run
//! phase then executes the resolved stream in place over slices — no
//! hashing, no string comparisons, and no per-instruction allocation (a
//! single reusable scratch buffer preserves the read-all-then-write
//! semantics of aliasing destination/source views).
//!
//! Execution proceeds in lock-step macro steps, matching the real machine.
//! Per timestep, every kernel runs the same single sequence
//! (`WseGridSim::run_kernel`):
//!
//! 1. **Capture** — only when [`LinkedComm::capture`] is set: the interior
//!    columns the halo exchange transmits are copied, for the whole grid,
//!    into the snapshot buffer, so cross-PE reads observe the pre-kernel
//!    state while PEs overwrite their fields.  The optimizer elides the
//!    capture for every compiled paper program (and for every generated
//!    program it fully optimizes), so this step is reached only by
//!    unoptimized streams — the bitwise oracle — and by streams where the
//!    translation validator reverted the elision.  It is deliberately
//!    untuned: one region sized to the largest kernel, recaptured in full.
//! 2. **Delivery check** — only under recovery with verification, for
//!    capturing kernels: the snapshot is checksummed on both sides of any
//!    planned delivery fault.
//! 3. **Bands** — the grid's rows are split into bands, and each band runs
//!    `KernelCtx::run_band`: row by row, op-major (every planned op sweeps
//!    all PEs of the row through a row-batched kernel before the next op
//!    runs), with staged receive windows copied in ahead of each chunk's
//!    receive ops.  Small kernels run one band spanning the grid on the
//!    calling thread; once a kernel's work exceeds
//!    `PARALLEL_WORK_THRESHOLD` the bands go to a persistent
//!    `WorkerPool` (created lazily, one dispatch and one acknowledgement
//!    barrier per kernel).
//! 4. **Edge commits** — see below.
//!
//! A cross-PE read observes only pre-kernel state: the snapshot, or — when
//! the capture is elided — the neighbor's live arena column, whose
//! write-back the kernel defers to a *commit* block that lags the sweep by
//! [`LinkedComm::max_dy`] rows.  Such a kernel runs as a *banded commit
//! wavefront*: each band sweeps its rows top to bottom and commits, right
//! behind the sweep, the rows no other band can read (those at least
//! `max_dy` rows from a neighbouring band); after the barrier the
//! dispatcher commits the at most `2 * max_dy * (bands - 1)` edge rows.
//! Each PE's arithmetic is identical regardless of the band split, so
//! results are deterministic and bitwise equal for any thread count.
//! Asynchrony affects timing only, which is handled by the analytic model
//! in [`crate::perf`].

use std::ops::Range;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::time::{Duration, Instant};

use crate::checkpoint::{
    checksum_f32, live_row_checksums, live_spans, Checkpoint, RecoveryOptions, RecoveryStats,
};
use crate::deps::Span;
use crate::fault::{FaultKind, FaultOptions, FaultPlan, INJECTED_BAND_PANIC};
use crate::kernels::{BatchTerm, MAX_ARITY};
use crate::link::{
    link_program_with, FusedInit, FusedTerm, LinkOptions, LinkedComm, LinkedKernel, LinkedProgram,
    LinkedSlot, LinkedView, SrcRef,
};
use crate::loader::LoadedProgram;
use crate::plan::{plan_program, KernelPlan, PlannedOp, ProgramPlan, SweepGroup};
use crate::reference::{initial_value, Field3D, GridState};

/// What class of failure an [`ExecError`] reports — the typed failure
/// paths the recovery loop dispatches on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum ExecErrorKind {
    /// Link-time or API validation failure (unknown buffers,
    /// out-of-bounds views, malformed exchanges, malformed options).
    Invalid,
    /// A worker band panicked mid-sweep; the panic was captured
    /// (`catch_unwind`) instead of wedging the barrier.  Grid state is
    /// partially written — roll back or restore before continuing.
    BandPanicked,
    /// Worker bands missed the watchdog deadline.  The wedged state was
    /// quarantined (leaked, never freed under the stalled worker);
    /// restore a checkpoint to continue.
    Timeout,
    /// An integrity checksum mismatched: per-row arena sums at a step
    /// boundary, or halo delivery sums inside a kernel (ABFT detection).
    Corruption,
    /// Recovery itself failed: the rollback budget was exhausted or no
    /// checkpoint existed to roll back to.
    RecoveryFailed,
    /// The engine state was lost to an earlier failure and has not been
    /// restored from a checkpoint since.
    Poisoned,
}

/// Execution error: link-time validation failures, plus the typed runtime
/// failure paths of the hardened engine (see [`ExecErrorKind`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Description.
    pub message: String,
    /// Failure class.
    pub kind: ExecErrorKind,
    /// Stable rejection-class code from the [`wse_ir::diagnostics`]
    /// registry (`link-*` for link-time validation failures), when the
    /// failure site assigned one.  Harnesses classify on this instead of
    /// parsing `message`.
    pub code: Option<&'static str>,
}

impl ExecError {
    /// An error of the given kind.
    pub fn new(kind: ExecErrorKind, message: impl Into<String>) -> Self {
        ExecError { message: message.into(), kind, code: None }
    }

    /// Attaches a stable rejection-class code (see
    /// [`wse_ir::diagnostics`]).
    pub fn with_code(mut self, code: &'static str) -> Self {
        self.code = Some(code);
        self
    }

    /// The stable rejection-class code, if one was assigned.
    pub fn code(&self) -> Option<&'static str> {
        self.code
    }

    /// A validation error ([`ExecErrorKind::Invalid`]), the pre-hardening
    /// default class.
    pub fn invalid(message: impl Into<String>) -> Self {
        Self::new(ExecErrorKind::Invalid, message)
    }
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "execution error: {}", self.message)
    }
}

impl std::error::Error for ExecError {}

fn err(message: impl Into<String>) -> ExecError {
    ExecError::invalid(message)
}

/// Minimum elements of per-kernel work across the grid
/// (`work_per_pe * n_pes`) before the sweep is split across threads: the
/// smallest measured size at which the pool is not slower than one thread.
/// Forced-serial against forced-pool `run()` throughput of the Fortran
/// Jacobian (2 chunks, `work_per_pe = 8 * z`), medians of 41 interleaved
/// samples, three sweeps, 2-core Xeon @ 2.1 GHz (4 MiB L2 per core) with
/// the banded commit wavefront in place:
///
/// | grid        | work   | serial MPts/s | pool MPts/s | pool / serial |
/// |-------------|--------|---------------|-------------|---------------|
/// | 48×48×96    |  1.77M | 1324–1379     | 1038–1209   | 0.75–0.88     |
/// | 64×64×96    |  3.15M | 1212–1346     | 1227–1474   | 1.01–1.13     |
/// | 80×80×96    |  4.92M | 1091–1178     | 1333–1723   | 1.22–1.46     |
/// | 96×96×96    |  7.08M |  997–1149     | 1336–1912   | 1.34–1.66     |
/// | 128×128×128 | 16.78M | 1005–1152     | 1515–2054   | 1.51–1.78     |
///
/// Below the threshold the two channel round-trips per kernel cost more
/// than half a cache-resident sweep saves.
const PARALLEL_WORK_THRESHOLD: usize = 64 * 64 * 768;

/// A functional simulation of a PE grid running a lowered program,
/// compiled to flat per-PE memory arenas at construction time.
#[derive(Debug)]
pub struct WseGridSim {
    program: LoadedProgram,
    /// Boxed so a watchdog quarantine can leak the old heap copy intact
    /// while a stalled worker may still read it (see `quarantine`).
    linked: Box<LinkedProgram>,
    /// The kernel plan: every linked instruction lowered to a
    /// monomorphized SIMD kernel call (see [`crate::plan`]).  Boxed for
    /// the same quarantine reason as `linked`.
    plan: Box<ProgramPlan>,
    /// All PE arenas back to back; PE `(x, y)` owns
    /// `[(y * width + x) * arena_len ..][.. arena_len]`.
    arenas: Vec<f32>,
    /// Snapshot of the running kernel's transmitted interior columns,
    /// sized to the largest capturing kernel and recaptured in full by
    /// each one: PE `pe`'s column `f` lives at
    /// `pe * comm.snap_len() + f * comm.col_len`.
    snapshot: Vec<f32>,
    /// Scratch for aliasing-safe elementwise instructions (serial path).
    scratch: Vec<f32>,
    /// Zero column backing direct slot reads outside the PE grid (sized to
    /// the largest exchange column).
    zero_col: Vec<f32>,
    /// Explicit thread count; `None` selects automatically per kernel.
    threads: Option<usize>,
    hw_threads: usize,
    /// Lazily created persistent worker pool (never cloned).
    pool: Option<WorkerPool>,
    /// Completed macro steps since construction or the last restore.
    step: i64,
    /// Fault configuration from [`WseGridSim::inject_faults`]; `run`
    /// re-materializes `fault` from it over each call's step range.
    fault_options: Option<FaultOptions>,
    /// The active fault schedule (events are consumed as they fire).
    fault: Option<FaultPlan>,
    /// Checkpoint/checksum recovery state; `None` runs the historical
    /// fast path with zero overhead.
    recovery: Option<RecoveryState>,
    /// Set when grid state was lost to a failure (band panic, watchdog
    /// quarantine, exhausted rollback budget) and not restored since.
    poisoned: bool,
}

/// Private recovery bookkeeping behind [`WseGridSim::enable_recovery`].
#[derive(Debug, Clone)]
struct RecoveryState {
    options: RecoveryOptions,
    /// The rollback anchor (the latest checkpoint).
    checkpoint: Option<Checkpoint>,
    /// The arena spans live across a step boundary (see
    /// [`live_spans`]): all the per-step checksums cover.
    live: Vec<Span>,
    /// Per-PE-row checksums of the live state last verified clean.
    row_sums: Vec<u64>,
    stats: RecoveryStats,
}

impl Clone for WseGridSim {
    fn clone(&self) -> Self {
        Self {
            program: self.program.clone(),
            linked: self.linked.clone(),
            plan: self.plan.clone(),
            arenas: self.arenas.clone(),
            snapshot: self.snapshot.clone(),
            scratch: self.scratch.clone(),
            zero_col: self.zero_col.clone(),
            threads: self.threads,
            hw_threads: self.hw_threads,
            // Worker pools hold OS threads; the clone creates its own on
            // first parallel kernel.
            pool: None,
            step: self.step,
            fault_options: self.fault_options,
            fault: self.fault.clone(),
            recovery: self.recovery.clone(),
            poisoned: self.poisoned,
        }
    }
}

impl WseGridSim {
    /// [`WseGridSim::with_options`] with [`LinkOptions::default`].
    ///
    /// # Errors
    /// See [`WseGridSim::with_options`].
    pub fn new(program: LoadedProgram) -> Result<Self, ExecError> {
        Self::with_options(program, LinkOptions::default())
    }

    /// Links the program with explicit [`LinkOptions`] and creates the
    /// grid, allocating every PE's arena and filling the field buffers
    /// with the shared initial condition.  The options, and the calls
    /// below ([`WseGridSim::set_threads`], [`WseGridSim::inject_faults`],
    /// [`WseGridSim::enable_recovery`]), are the engine's whole
    /// configuration: no environment variable is read.  Optimized and
    /// unoptimized streams produce bitwise identical results; the
    /// conformance harness runs both to prove it.
    ///
    /// # Errors
    /// Returns an [`ExecError`] when linking fails (unknown or duplicate
    /// buffers, out-of-bounds views, malformed exchanges); see
    /// [`crate::link`].
    pub fn with_options(program: LoadedProgram, options: LinkOptions) -> Result<Self, ExecError> {
        let linked = link_program_with(&program, &options)?;
        let plan = plan_program(&linked);
        let n_pes = (linked.width * linked.height) as usize;
        let mut arenas = vec![0.0f32; n_pes * linked.arena_len];
        for (pe, arena) in arenas.chunks_exact_mut(linked.arena_len.max(1)).enumerate() {
            let (x, y) = ((pe as i64) % linked.width, (pe as i64) / linked.width);
            for layout in &linked.layouts {
                arena[layout.base..layout.base + layout.len].fill(layout.init);
            }
            for (fi, id) in linked.field_ids.iter().enumerate() {
                let layout = &linked.layouts[id.0 as usize];
                let interior =
                    &mut arena[layout.base + linked.z_halo as usize..][..linked.z_dim as usize];
                for (z, value) in interior.iter_mut().enumerate() {
                    *value = initial_value(fi, x, y, z as i64);
                }
            }
        }
        let comms = || linked.kernels.iter().filter_map(|k| k.comm.as_ref());
        let snapshot = vec![0.0f32; n_pes * comms().map(LinkedComm::snap_len).max().unwrap_or(0)];
        let scratch = vec![0.0f32; linked.max_view_len];
        let zero_col = vec![0.0f32; comms().map(|c| c.col_len).max().unwrap_or(0)];
        let hw_threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Ok(Self {
            program,
            linked: Box::new(linked),
            plan: Box::new(plan),
            arenas,
            snapshot,
            scratch,
            zero_col,
            threads: None,
            hw_threads,
            pool: None,
            step: 0,
            fault_options: None,
            fault: None,
            recovery: None,
            poisoned: false,
        })
    }

    /// The loaded program.
    pub fn program(&self) -> &LoadedProgram {
        &self.program
    }

    /// The linked flat-memory form of the program.
    pub fn linked(&self) -> &LinkedProgram {
        &self.linked
    }

    /// The kernel plan the run phase dispatches (see [`crate::plan`]).
    pub fn plan(&self) -> &ProgramPlan {
        &self.plan
    }

    /// Forces the per-PE sweep onto exactly `threads` row bands (clamped
    /// to the grid height), bypassing the automatic work-size heuristic.
    /// Results are deterministic for any thread count.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = Some(threads.max(1));
    }

    /// Completed macro steps since construction or the last
    /// [`WseGridSim::restore`].
    pub fn steps_completed(&self) -> i64 {
        self.step
    }

    /// True when grid state was lost to a failure (band panic, watchdog
    /// quarantine, exhausted rollback budget) and not restored since.
    /// A poisoned engine refuses to run or extract state.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    /// Captures a bitwise-exact checkpoint of the current grid state and
    /// step counter (independent of the periodic recovery cadence).
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint::capture(&self.arenas, self.step, None)
    }

    /// Restores a checkpoint: arenas bitwise and step counter — the whole
    /// cross-kernel state (the snapshot is recaptured by every kernel that
    /// reads it), so a replay from the checkpoint is bitwise identical to
    /// an uninterrupted run.  Clears the poisoned flag.
    ///
    /// # Errors
    /// [`ExecErrorKind::Invalid`] when the checkpoint was captured from a
    /// different arena shape.
    pub fn restore(&mut self, checkpoint: &Checkpoint) -> Result<(), ExecError> {
        if checkpoint.len() != self.arenas.len() {
            return Err(err(format!(
                "checkpoint holds {} arena elements, this engine has {}",
                checkpoint.len(),
                self.arenas.len()
            )));
        }
        checkpoint.restore_into(&mut self.arenas);
        self.step = checkpoint.step();
        self.poisoned = false;
        if self.recovery.as_ref().is_some_and(|r| r.options.verify) {
            self.refresh_row_sums();
        }
        if let Some(recovery) = self.recovery.as_mut() {
            recovery.checkpoint = Some(checkpoint.clone());
        }
        Ok(())
    }

    /// Enables seeded fault injection.  The next [`WseGridSim::run`]
    /// materializes the fault schedule over its step range and, if
    /// recovery was not configured explicitly, auto-enables it with
    /// `RecoveryOptions { verify: true, ..Default::default() }`.
    pub fn inject_faults(&mut self, options: FaultOptions) {
        self.fault_options = Some(options);
        self.fault = None;
    }

    /// Installs an explicit fault schedule (see
    /// [`FaultPlan::from_events`]) — the test hook for precisely-placed
    /// faults.  Events fire in [`WseGridSim::run`] and
    /// [`WseGridSim::run_timestep`] and are consumed once.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(plan);
        self.fault_options = None;
    }

    /// Enables checkpoint/checksum recovery: periodic copy-on-write
    /// checkpoints, rollback-and-replay on any transient failure, and —
    /// with [`RecoveryOptions::verify`] on — per-row arena checksums
    /// verified at every step boundary plus halo delivery checksums
    /// inside capturing kernels (see the cost model on
    /// [`crate::checkpoint`]).  The row checksums cover only the state
    /// live across a step boundary, computed here once from the
    /// dependence model: a flip in dead state is overwritten before it is
    /// read, so it costs no rollback.  With faults disabled the machinery
    /// is bitwise-transparent (checksums and checkpoints never alter
    /// state).
    pub fn enable_recovery(&mut self, options: RecoveryOptions) {
        self.recovery = Some(RecoveryState {
            options,
            checkpoint: None,
            live: live_spans(&self.linked),
            row_sums: Vec::new(),
            stats: RecoveryStats::default(),
        });
    }

    /// What the recovery machinery did so far; `None` until recovery is
    /// enabled (explicitly or by a fault campaign).
    pub fn recovery_stats(&self) -> Option<&RecoveryStats> {
        self.recovery.as_ref().map(|r| &r.stats)
    }

    /// Runs the program for `timesteps` steps (defaults to the program's
    /// own timestep count).  With faults or recovery enabled, runs the
    /// detect-and-rollback loop; otherwise the historical zero-overhead
    /// path.
    ///
    /// # Errors
    /// [`ExecErrorKind::Poisoned`] when state was lost and not restored;
    /// typed failures ([`ExecErrorKind::BandPanicked`],
    /// [`ExecErrorKind::Timeout`], [`ExecErrorKind::Corruption`]) when a
    /// failure strikes without recovery enabled to absorb it;
    /// [`ExecErrorKind::RecoveryFailed`] when the rollback budget is
    /// exhausted.
    pub fn run(&mut self, timesteps: Option<i64>) -> Result<(), ExecError> {
        if self.poisoned {
            return Err(self.poisoned_error());
        }
        let steps = timesteps.unwrap_or(self.linked.timesteps).max(0);
        if let Some(options) = self.fault_options {
            // Per-step events are a pure function of (seed, step), so
            // re-materializing over each call's range is equivalent to one
            // plan over the whole campaign.
            let stall = (self.watchdog().as_millis() as u64).saturating_mul(2).max(1);
            self.fault = Some(FaultPlan::for_range(
                options,
                &self.linked,
                self.step,
                self.step + steps,
                stall,
            ));
        }
        if self.fault.as_ref().is_some_and(|f| !f.is_empty()) || self.recovery.is_some() {
            if self.recovery.is_none() {
                // Auto-enabled by a fault campaign: force full per-step
                // verification — injecting faults without it would invite
                // exactly the silent divergence recovery exists to prevent.
                self.enable_recovery(RecoveryOptions { verify: true, ..Default::default() });
            }
            return self.run_recovering(self.step + steps);
        }
        for _ in 0..steps {
            self.run_timestep()?;
        }
        Ok(())
    }

    /// Runs a single timestep.
    ///
    /// # Errors
    /// See [`WseGridSim::run`]; without injected faults this never fails
    /// after a successful link.
    pub fn run_timestep(&mut self) -> Result<(), ExecError> {
        if self.poisoned {
            return Err(self.poisoned_error());
        }
        for k in 0..self.linked.kernels.len() {
            self.run_kernel(k)?;
        }
        self.step += 1;
        Ok(())
    }

    /// Watchdog deadline for parallel sweeps.
    fn watchdog(&self) -> Duration {
        self.recovery.as_ref().map_or_else(RecoveryOptions::default, |r| r.options).watchdog()
    }

    fn poisoned_error(&self) -> ExecError {
        ExecError::new(
            ExecErrorKind::Poisoned,
            "engine state was lost to an unrecovered failure; restore a checkpoint to continue",
        )
    }

    /// The detect-and-rollback loop: verify per-row checksums at every
    /// step boundary, checkpoint on cadence, convert transient failures
    /// (band panics, watchdog timeouts, delivery corruption, arena
    /// corruption) into rollback-and-replay, and give up with a typed
    /// error once the rollback budget is spent.
    fn run_recovering(&mut self, target: i64) -> Result<(), ExecError> {
        {
            // Anchor checkpoint and baseline checksums of the entry state,
            // so even the first step can roll back.
            let recovery = self.recovery.as_mut().expect("recovery enabled");
            if recovery.checkpoint.is_none() {
                let ck = Checkpoint::capture(&self.arenas, self.step, None);
                recovery.stats.checkpoints_saved += 1;
                recovery.stats.checkpoint_pages_total += ck.page_count() as u64;
                recovery.checkpoint = Some(ck);
            }
            if recovery.options.verify && recovery.row_sums.is_empty() {
                self.refresh_row_sums();
            }
        }
        loop {
            // Integrity first, return second: corruption injected after
            // the final step is still caught before the run reports clean.
            if self.recovery.as_ref().expect("recovery enabled").options.verify {
                let sums = self.live_row_sums();
                let recovery = self.recovery.as_mut().expect("recovery enabled");
                if sums != recovery.row_sums {
                    recovery.stats.checksum_failures += 1;
                    self.rollback()?;
                    continue;
                }
            }
            if self.step >= target {
                return Ok(());
            }
            match self.run_timestep() {
                Ok(()) => {
                    if self.recovery.as_ref().expect("recovery enabled").options.verify {
                        self.refresh_row_sums();
                    }
                    let recovery = self.recovery.as_mut().expect("recovery enabled");
                    let due = match &recovery.checkpoint {
                        Some(ck) => self.step - ck.step() >= recovery.options.checkpoint_every,
                        None => true,
                    };
                    if due {
                        let ck = Checkpoint::capture(
                            &self.arenas,
                            self.step,
                            recovery.checkpoint.as_ref(),
                        );
                        recovery.stats.checkpoints_saved += 1;
                        recovery.stats.checkpoint_pages_total += ck.page_count() as u64;
                        if let Some(prev) = &recovery.checkpoint {
                            recovery.stats.checkpoint_pages_shared +=
                                ck.pages_shared_with(prev) as u64;
                        }
                        recovery.checkpoint = Some(ck);
                    }
                    // Transient bit-flips strike the boundary *after* the
                    // step's checksums and checkpoint, so the next loop
                    // iteration's integrity check detects them and rolls
                    // back to a clean anchor.
                    let flips = self
                        .fault
                        .as_mut()
                        .map(|f| f.take_boundary_flips(self.step - 1))
                        .unwrap_or_default();
                    for (pe, offset, bit) in flips {
                        let index = pe * self.linked.arena_len + offset;
                        if index < self.arenas.len() {
                            self.arenas[index] =
                                f32::from_bits(self.arenas[index].to_bits() ^ (1 << bit));
                            if let Some(recovery) = self.recovery.as_mut() {
                                recovery.stats.faults.bit_flips += 1;
                            }
                        }
                    }
                }
                Err(error) => {
                    let recovery = self.recovery.as_mut().expect("recovery enabled");
                    match error.kind {
                        ExecErrorKind::Corruption => recovery.stats.delivery_failures += 1,
                        ExecErrorKind::BandPanicked => recovery.stats.band_panics += 1,
                        ExecErrorKind::Timeout => recovery.stats.band_timeouts += 1,
                        // Anything else (validation, poisoning) is not a
                        // transient fault: propagate.
                        _ => return Err(error),
                    }
                    self.rollback()?;
                }
            }
        }
    }

    /// Per-PE-row checksums of the state live across a step boundary.
    fn live_row_sums(&self) -> Vec<u64> {
        let live = &self.recovery.as_ref().expect("recovery enabled").live;
        live_row_checksums(&self.arenas, self.linked.width as usize, self.linked.arena_len, live)
    }

    /// Stores the current state's [`WseGridSim::live_row_sums`] as the
    /// verified-clean reference.
    fn refresh_row_sums(&mut self) {
        let sums = self.live_row_sums();
        self.recovery.as_mut().expect("recovery enabled").row_sums = sums;
    }

    /// Restores the latest checkpoint, charging the rollback budget.
    fn rollback(&mut self) -> Result<(), ExecError> {
        let recovery = self.recovery.as_mut().expect("recovery enabled");
        recovery.stats.rollbacks += 1;
        if recovery.stats.rollbacks > u64::from(recovery.options.max_rollbacks) {
            self.poisoned = true;
            return Err(ExecError::new(
                ExecErrorKind::RecoveryFailed,
                format!(
                    "rollback budget exhausted after {} rollbacks — the fault is persistent, \
                     not transient",
                    recovery.options.max_rollbacks
                ),
            ));
        }
        let checkpoint = match recovery.checkpoint.clone() {
            Some(ck) => ck,
            None => {
                self.poisoned = true;
                return Err(ExecError::new(
                    ExecErrorKind::RecoveryFailed,
                    "no checkpoint to roll back to",
                ));
            }
        };
        let lost = (self.step - checkpoint.step()).max(0) as u64;
        self.restore(&checkpoint)?;
        self.recovery.as_mut().expect("recovery enabled").stats.steps_replayed += lost;
        Ok(())
    }

    /// Abandons state a wedged worker may still touch.  The only sound
    /// reclamation is none: the pool is detached without joining the
    /// stalled thread, and every allocation reachable from the leaked
    /// kernel context — arenas, snapshot, zero column, the linked program
    /// and plan — is leaked intact and replaced with a fresh copy, so the
    /// zombie's raw pointers stay valid forever while the engine itself
    /// becomes restorable.
    fn quarantine(&mut self) {
        if let Some(pool) = self.pool.take() {
            pool.abandon();
        }
        let arenas = vec![0.0f32; self.arenas.len()];
        std::mem::forget(std::mem::replace(&mut self.arenas, arenas));
        let snapshot = vec![0.0f32; self.snapshot.len()];
        std::mem::forget(std::mem::replace(&mut self.snapshot, snapshot));
        let zero_col = vec![0.0f32; self.zero_col.len()];
        std::mem::forget(std::mem::replace(&mut self.zero_col, zero_col));
        let linked = self.linked.clone();
        std::mem::forget(std::mem::replace(&mut self.linked, linked));
        let plan = self.plan.clone();
        std::mem::forget(std::mem::replace(&mut self.plan, plan));
        self.poisoned = true;
    }

    fn run_kernel(&mut self, kernel_index: usize) -> Result<(), ExecError> {
        let step = self.step;
        let kernel_fault =
            self.fault.as_mut().and_then(|f| f.take_kernel_event(step, kernel_index));
        let watchdog = self.watchdog();
        let linked = &*self.linked;
        let kernel = &linked.kernels[kernel_index];
        let kplan = &self.plan.kernels[kernel_index];
        let n_pes = (linked.width * linked.height) as usize;
        let height = linked.height as usize;
        let row_stride = linked.width as usize * linked.arena_len;
        if row_stride == 0 {
            return Ok(());
        }
        let bands = match self.threads {
            Some(n) => n.min(height).max(1),
            None if kernel.work_per_pe.saturating_mul(n_pes) < PARALLEL_WORK_THRESHOLD => 1,
            None => self.hw_threads.min(height).max(1),
        };
        let capturing = kernel.comm.as_ref().filter(|c| c.snap_len() > 0);

        // Capture: the whole grid's transmitted columns, before any PE
        // overwrites them.  Kernels whose capture the optimizer elided
        // (deferred commits) snapshot nothing at all.
        if let Some(comm) = capturing {
            capture_columns(comm, &self.arenas, linked.arena_len, &mut self.snapshot);
        }
        // ABFT delivery integrity: checksum the captured columns ("sent"),
        // let a planned delivery fault tamper with one, checksum again
        // ("received"), and refuse to sweep on a mismatch.  Active only
        // under recovery with verification.
        let verifying = self.recovery.as_ref().is_some_and(|r| r.options.verify);
        if let Some(comm) = capturing.filter(|_| verifying) {
            let captured = &mut self.snapshot[..n_pes * comm.snap_len()];
            let sent = checksum_f32(captured);
            let faults = self.recovery.as_mut().map(|r| &mut r.stats.faults);
            let column = |pe: usize, field: usize| {
                let start = pe * comm.snap_len() + field * comm.col_len;
                start..start + comm.col_len
            };
            match kernel_fault {
                Some(FaultKind::DropDelivery { pe, field, .. }) => {
                    captured[column(pe, field)].fill(0.0);
                    if let Some(faults) = faults {
                        faults.drops += 1;
                    }
                }
                Some(FaultKind::DuplicateDelivery { pe, field, .. }) => {
                    captured[column(pe, field)].rotate_right(1);
                    if let Some(faults) = faults {
                        faults.duplicates += 1;
                    }
                }
                _ => {}
            }
            if checksum_f32(captured) != sent {
                return Err(ExecError::new(
                    ExecErrorKind::Corruption,
                    format!("halo delivery checksum mismatch in kernel {kernel_index}"),
                ));
            }
        }
        let band_fault = match kernel_fault {
            Some(FaultKind::BandPanic { band, .. }) => {
                if let Some(recovery) = self.recovery.as_mut() {
                    recovery.stats.faults.band_panics += 1;
                }
                Some((band, BandFault::Panic))
            }
            Some(FaultKind::BandStall { band, millis, .. }) => {
                if let Some(recovery) = self.recovery.as_mut() {
                    recovery.stats.faults.band_stalls += 1;
                }
                Some((band, BandFault::Stall(millis)))
            }
            _ => None,
        };

        // SAFETY notes on `arenas_ptr`: slot reads of a capture-elided
        // kernel (staging copies and sweep sources alike) go to neighbor
        // arena columns through this pointer while the bands mutate arena
        // ranges.  Soundness rests on three invariants: (1) the pointer is
        // the *root* of every arena access of the kernel — the band slices,
        // on the calling thread and on the pool alike, and the edge-commit
        // rows are re-derived from it with `from_raw_parts_mut`, never from
        // a fresh `&mut self.arenas` borrow that would invalidate it;
        // (2) the byte ranges actually written by a sweep never overlap the
        // ranges read through the pointer — the linker proved no sweep
        // instruction writes a snapshotted buffer (see
        // `link::defer_commits`), and deferred commits only run once no
        // sweep can observe them; (3) across bands, a band's in-band
        // commits write transmitted columns only of rows inside its commit
        // window (see `commit_window`) — rows at least `max_dy` away from a
        // neighbouring band, which no other band's sweep can read — and lag
        // its own sweep by `max_dy` rows; the remaining edge rows are
        // committed by the dispatcher only after every band has
        // acknowledged.  A capturing kernel reads the snapshot instead and
        // never dereferences the pointer.
        let arenas_ptr = self.arenas.as_mut_ptr();
        let n_arena_elems = self.arenas.len();
        // Boxed so the watchdog path can leak it: a stalled worker keeps
        // reading the context past the timeout (see `quarantine`).
        let ctx = Box::new(KernelCtx::new(
            kernel,
            kplan,
            linked,
            &self.snapshot,
            &self.zero_col,
            arenas_ptr,
            n_arena_elems,
        ));
        // SAFETY: invariant (1) above; the slice spans exactly the
        // allocation.
        let all = unsafe { std::slice::from_raw_parts_mut(arenas_ptr, n_arena_elems) };
        // Band and delivery faults fire on the pool, so a planned event
        // forces a dispatch even for one band (bitwise identical to running
        // it on the calling thread).
        let rows_per_band = height.div_ceil(bands);
        if bands == 1 && kernel_fault.is_none() {
            ctx.run_band(all, 0, &mut self.scratch, None);
        } else {
            let (workers, scratch_len) = (self.hw_threads.max(1), linked.max_view_len);
            let pool = self.pool.get_or_insert_with(|| WorkerPool::new(workers, scratch_len));
            let band_elems = rows_per_band * row_stride;
            match pool.run_bands(&ctx, all, band_elems, rows_per_band, watchdog, band_fault) {
                Ok(()) => {}
                Err(BandError::Panicked(detail)) => {
                    // Every band acknowledged (the panic was caught), so no
                    // worker holds pointers into the engine — but the sweep
                    // is partially written.
                    self.poisoned = true;
                    return Err(ExecError::new(
                        ExecErrorKind::BandPanicked,
                        format!("worker band panicked in kernel {kernel_index}: {detail}"),
                    ));
                }
                Err(BandError::Timeout { missing }) => {
                    // A wedged worker may still hold pointers into the
                    // context and the engine's buffers: leak the context
                    // and quarantine everything it can reach.
                    let _ = Box::into_raw(ctx) as *const ();
                    self.quarantine();
                    return Err(ExecError::new(
                        ExecErrorKind::Timeout,
                        format!(
                            "{missing} worker band(s) missed the {}ms watchdog deadline in \
                             kernel {kernel_index}; wedged state quarantined",
                            watchdog.as_millis()
                        ),
                    ));
                }
            }
        }
        if !kernel.commit.is_empty() {
            // Edge pass: every band has completed, so the rows within
            // `max_dy` of a band boundary — the only ones the bands left
            // uncommitted (none at all for a single band) — can no longer
            // be observed mid-kernel.
            for first in (0..height).step_by(rows_per_band) {
                let end = height.min(first + rows_per_band);
                let window = commit_window(first..end, height, ctx.max_dy);
                for edge in [first..window.start, window.end..end] {
                    let rows = &mut all[edge.start * row_stride..edge.end * row_stride];
                    ctx.commit_rows(rows, edge.start, &mut self.scratch);
                }
            }
        }
        Ok(())
    }

    /// Extracts a field as a dense 3-D array (for comparison against the
    /// reference executor).
    ///
    /// # Errors
    /// Returns an [`ExecError`] when `name` is not a field buffer of the
    /// program (previously a silent `None`).
    pub fn field(&self, name: &str) -> Result<Field3D, ExecError> {
        if self.poisoned {
            return Err(self.poisoned_error());
        }
        let fi = self
            .program
            .field_buffers
            .iter()
            .position(|f| f == name)
            .ok_or_else(|| err(format!("{name} is not a field buffer of the program")))?;
        let linked = &self.linked;
        let layout = &linked.layouts[linked.field_ids[fi].0 as usize];
        let mut out = Field3D::zeros(linked.width, linked.height, linked.z_dim);
        for y in 0..linked.height {
            for x in 0..linked.width {
                let pe = (y * linked.width + x) as usize;
                let column = &self.arenas
                    [pe * linked.arena_len + layout.base + linked.z_halo as usize..]
                    [..linked.z_dim as usize];
                for (z, &value) in column.iter().enumerate() {
                    out.set(x, y, z as i64, value);
                }
            }
        }
        Ok(out)
    }

    /// Extracts every observable field as a [`GridState`].  Internal
    /// double-buffer fields (see
    /// [`LoadedProgram::internal_fields`]) are compiler
    /// temporaries, not program state, and are excluded — the state then
    /// matches the reference executor's field set exactly.
    ///
    /// # Errors
    /// Returns an [`ExecError`] when a field buffer cannot be extracted
    /// (previously such fields were silently dropped from the state).
    pub fn grid_state(&self) -> Result<GridState, ExecError> {
        let names: Vec<String> = self
            .program
            .field_buffers
            .iter()
            .filter(|n| !self.program.internal_fields.contains(n))
            .cloned()
            .collect();
        let fields = names.iter().map(|n| self.field(n)).collect::<Result<Vec<_>, _>>()?;
        Ok(GridState { names, fields })
    }
}

/// Copies every transmitted interior column of every PE into `snapshot`
/// (PE `pe`'s column `f` at `pe * comm.snap_len() + f * comm.col_len`),
/// zero-filling past the end of a short field buffer.
fn capture_columns(comm: &LinkedComm, arenas: &[f32], arena_len: usize, snapshot: &mut [f32]) {
    let captured = snapshot.chunks_exact_mut(comm.snap_len());
    for (arena, region) in arenas.chunks_exact(arena_len).zip(captured) {
        let cols = region.chunks_exact_mut(comm.col_len);
        for (field, col) in comm.snap_fields.iter().zip(cols) {
            col[..field.copy_len].copy_from_slice(&arena[field.src_base..][..field.copy_len]);
            col[field.copy_len..].fill(0.0);
        }
    }
}

/// Shared read-only context of one kernel sweep (one instance per
/// `run_kernel`, shared across band workers).
struct KernelCtx<'a> {
    kernel: &'a LinkedKernel,
    /// The kernel's planned blocks (what the sweep actually dispatches).
    plan: &'a KernelPlan,
    linked: &'a LinkedProgram,
    /// The captured columns (unread when the capture is elided).
    snapshot: &'a [f32],
    /// Zero column for slot reads outside the grid.
    zero_col: &'a [f32],
    /// Root pointer of the full arena allocation, for neighbor-column
    /// reads when the snapshot capture is elided (the mutable row/band
    /// slices are siblings derived from this same pointer).  See the
    /// SAFETY notes in `run_kernel`: the linker proved those columns are
    /// never written during the sweep.
    arenas_ptr: *mut f32,
    /// Total arena elements (bounds for the pointer reads).
    n_arena_elems: usize,
    /// Arena elements per row of PEs.
    row_stride: usize,
    /// The commit lag in rows ([`LinkedComm::max_dy`]; 0 without an
    /// exchange).
    max_dy: usize,
}

impl<'a> KernelCtx<'a> {
    /// Builds the context of one kernel sweep.  `arenas_ptr` is the root
    /// arena pointer and `n_arena_elems` its element count (see the SAFETY
    /// notes in `run_kernel`).
    fn new(
        kernel: &'a LinkedKernel,
        plan: &'a KernelPlan,
        linked: &'a LinkedProgram,
        snapshot: &'a [f32],
        zero_col: &'a [f32],
        arenas_ptr: *mut f32,
        n_arena_elems: usize,
    ) -> Self {
        Self {
            kernel,
            plan,
            linked,
            snapshot,
            zero_col,
            arenas_ptr,
            n_arena_elems,
            row_stride: linked.width as usize * linked.arena_len,
            max_dy: kernel.comm.as_ref().map(LinkedComm::max_dy).unwrap_or(0),
        }
    }

    /// The transmitted column behind receive slot `spec` as PE `(x, y)`
    /// sees it — the one place the zero-column / snapshot-column /
    /// neighbor-arena-column decision is made.  Returns the column's first
    /// element ([`LinkedComm::col_len`] readable) and the stride, in
    /// elements, to the same slot's column of PE `(x + 1, y)` while that
    /// PE's neighbor is in the grid too: outside the grid it is the shared
    /// zero column (stride 0, matching the zero-flux boundary of the
    /// reference executor); with a capture, the neighbor's snapshot column;
    /// with the capture elided, the neighbor's live arena column, which
    /// holds the pre-kernel state until the deferred commit runs.
    fn slot_col(
        &self,
        comm: &LinkedComm,
        spec: &LinkedSlot,
        x: i64,
        y: i64,
    ) -> (*const f32, usize) {
        let (nx, ny) = (x + spec.dx, y + spec.dy);
        if nx < 0 || ny < 0 || nx >= self.linked.width || ny >= self.linked.height {
            debug_assert!(comm.col_len <= self.zero_col.len());
            return (self.zero_col.as_ptr(), 0);
        }
        let neighbor = (ny * self.linked.width + nx) as usize;
        if comm.capture {
            let stride = comm.snap_len();
            let start = neighbor * stride + spec.snap_index * comm.col_len;
            debug_assert!(start + comm.col_len <= self.snapshot.len());
            // SAFETY: the snapshot holds `snap_len` elements per PE (sized
            // at construction, filled by `capture_columns`).
            (unsafe { self.snapshot.as_ptr().add(start) }, stride)
        } else {
            let stride = self.linked.arena_len;
            let start = neighbor * stride + comm.snap_fields[spec.snap_index].src_base;
            debug_assert!(start + comm.col_len <= self.n_arena_elems);
            // SAFETY: in bounds of the arena allocation by link-time
            // validation (`copy_len == col_len` is a deferral
            // precondition).
            (unsafe { self.arenas_ptr.add(start) as *const f32 }, stride)
        }
    }

    /// Runs the deferred commit ops on the rows of `rows` (a contiguous
    /// run of whole PE rows starting at grid row `first_row`).
    fn commit_rows(&self, rows: &mut [f32], first_row: usize, scratch: &mut [f32]) {
        for (r, row) in rows.chunks_exact_mut(self.row_stride).enumerate() {
            self.run_ops_row(row, &self.plan.commit, 0, (first_row + r) as i64, scratch);
        }
    }
}

/// The *commit window* of the band of rows `band` in a grid of `height`
/// rows: the rows at least `max_dy` away from a neighbouring band, whose
/// transmitted columns no other band's sweep can read, so the band commits
/// them itself behind its sweep.  The grid's top and bottom bands have no
/// neighbour on that side; a band narrower than `2 * max_dy` has an empty
/// window.  The rest of the band — `band.start..window.start` and
/// `window.end..band.end`, the *edge rows* — is committed by the
/// dispatcher after the barrier.
fn commit_window(band: Range<usize>, height: usize, max_dy: usize) -> Range<usize> {
    let top = if band.start == 0 { 0 } else { max_dy };
    let bottom = if band.end >= height { 0 } else { max_dy };
    let start = (band.start + top).min(band.end);
    let end = band.end.saturating_sub(bottom).max(start);
    debug_assert!(
        band.start <= start && start <= end && end <= band.end,
        "top edge, window {start}..{end} and bottom edge must partition band {band:?}"
    );
    start..end
}

/// An injected worker-band fault, attached to one job of one dispatch.
/// It fires halfway through the band's rows (see `KernelCtx::run_band`),
/// so a direct kernel's band dies with part of its window committed.
#[derive(Debug, Clone, Copy)]
enum BandFault {
    /// Panic (captured by the worker's `catch_unwind`).
    Panic,
    /// Sleep this many milliseconds — sized past the watchdog deadline to
    /// wedge the barrier — then finish the band.
    Stall(u64),
}

impl BandFault {
    fn fire(self) {
        match self {
            BandFault::Panic => panic!("{INJECTED_BAND_PANIC}"),
            BandFault::Stall(millis) => std::thread::sleep(Duration::from_millis(millis)),
        }
    }
}

/// Why a band dispatch failed.
enum BandError {
    /// At least one band panicked (all bands acknowledged; no worker
    /// still holds pointers into the engine).
    Panicked(String),
    /// The watchdog deadline expired with this many bands outstanding —
    /// the wedged workers may still hold pointers into the engine.
    Timeout {
        /// Bands that never acknowledged.
        missing: usize,
    },
}

/// One band dispatch: raw pointers into the dispatching thread's arena
/// slice and kernel context.  The dispatcher blocks until every job is
/// acknowledged (or the watchdog expires, after which the engine
/// quarantines everything the job references), so the pointers never
/// outlive their referents, and bands are disjoint `chunks_mut` slices so
/// no two jobs alias (a direct kernel's in-band commits stay inside the
/// band as well; see `commit_window`).
struct Job {
    ctx: *const (),
    band: *mut f32,
    band_len: usize,
    first_row: i64,
    /// Dispatch generation, echoed in the acknowledgement so a stale ack
    /// from a timed-out dispatch can never satisfy a later barrier.
    generation: u64,
    fault: Option<BandFault>,
}

// SAFETY: see the `Job` invariants above — the dispatcher owns the
// referenced data and blocks on the completion barrier before returning
// (quarantining the referents when the barrier times out).
unsafe impl Send for Job {}

/// One acknowledgement: the job's generation plus the captured panic
/// message, if the band panicked.
type BandAck = (u64, Result<(), String>);

/// A persistent pool of band workers, created lazily by [`WseGridSim`]
/// once a kernel's work crosses [`PARALLEL_WORK_THRESHOLD`] and reused for
/// every subsequent macro step (the previous engine spawned fresh threads
/// per kernel via `thread::scope`).  Hardened: every job body runs under
/// `catch_unwind`, the completion barrier has a watchdog deadline, and
/// `Drop` bounds its joins so a dead or wedged worker can never hang the
/// owner.
struct WorkerPool {
    senders: Vec<Sender<Job>>,
    done: Receiver<BandAck>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Bumped per dispatch; acks carrying an older generation are stale.
    generation: u64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool").field("workers", &self.senders.len()).finish()
    }
}

/// Extracts a readable message from a captured panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "worker band panicked with a non-string payload".to_string()
    }
}

impl WorkerPool {
    fn new(workers: usize, scratch_len: usize) -> Self {
        let (done_tx, done) = channel();
        let mut senders = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let (tx, rx) = channel::<Job>();
            let done_tx = done_tx.clone();
            handles.push(std::thread::spawn(move || {
                let mut scratch = vec![0.0f32; scratch_len];
                while let Ok(job) = rx.recv() {
                    // A panicking band must still acknowledge, or the
                    // barrier would wait for the watchdog on every panic:
                    // capture the unwind and ship the message instead.
                    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        // SAFETY: per the `Job` invariants, the context
                        // and the band slice are live for the duration
                        // of the job and the band does not alias any
                        // other job's band.
                        let ctx = unsafe { &*(job.ctx as *const KernelCtx<'static>) };
                        let band =
                            unsafe { std::slice::from_raw_parts_mut(job.band, job.band_len) };
                        ctx.run_band(band, job.first_row, &mut scratch, job.fault);
                    }));
                    let ack = result.map_err(panic_message);
                    if done_tx.send((job.generation, ack)).is_err() {
                        break;
                    }
                }
            }));
            senders.push(tx);
        }
        Self { senders, done, handles, generation: 0 }
    }

    /// Executes the kernel over row bands of `arenas` on the pool, blocking
    /// until every band completes (the barrier of the macro step) or the
    /// watchdog deadline expires.  `fault` attaches an injected fault to
    /// one band (the index is taken modulo the job count).
    fn run_bands(
        &mut self,
        ctx: &KernelCtx<'_>,
        arenas: &mut [f32],
        band_elems: usize,
        rows_per_band: usize,
        watchdog: Duration,
        fault: Option<(usize, BandFault)>,
    ) -> Result<(), BandError> {
        self.generation += 1;
        let generation = self.generation;
        let ctx_ptr = ctx as *const KernelCtx<'_> as *const ();
        // `run_kernel` returns before dispatch on an empty row.
        debug_assert!(band_elems > 0, "a row band holds at least one element");
        let njobs = arenas.len().div_ceil(band_elems);
        let fault = fault.map(|(band, kind)| (band % njobs.max(1), kind));
        let mut jobs = 0usize;
        for (b, band) in arenas.chunks_mut(band_elems).enumerate() {
            let job = Job {
                ctx: ctx_ptr,
                band: band.as_mut_ptr(),
                band_len: band.len(),
                first_row: (b * rows_per_band) as i64,
                generation,
                fault: fault.and_then(|(target, kind)| (target == b).then_some(kind)),
            };
            // More bands than workers queue up round-robin; workers drain
            // their queue sequentially, which stays deterministic because
            // bands are independent.
            self.senders[b % self.senders.len()].send(job).expect("worker thread alive");
            jobs += 1;
        }
        let deadline = Instant::now() + watchdog;
        let mut received = 0usize;
        let mut first_panic: Option<String> = None;
        while received < jobs {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.done.recv_timeout(remaining) {
                // Stale ack from a dispatch that timed out earlier: a
                // later barrier must never count it.
                Ok((g, _)) if g != generation => continue,
                Ok((_, Ok(()))) => received += 1,
                Ok((_, Err(detail))) => {
                    received += 1;
                    first_panic.get_or_insert(detail);
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    return Err(BandError::Timeout { missing: jobs - received });
                }
            }
        }
        match first_panic {
            Some(detail) => Err(BandError::Panicked(detail)),
            None => Ok(()),
        }
    }

    /// Detaches the pool without joining: closes the job channels (idle
    /// workers exit on their own) and drops the handles, leaving any
    /// wedged worker running against quarantined (leaked) memory.
    fn abandon(mut self) {
        self.senders.clear();
        self.handles.clear();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channels ends the worker loops.
        self.senders.clear();
        // Bound the join: a healthy worker exits promptly once its
        // channel closes, but a panicked-and-acknowledged or wedged one
        // must not hang Drop forever — poll briefly, then detach.
        let deadline = Instant::now() + Duration::from_secs(5);
        for handle in self.handles.drain(..) {
            while !handle.is_finished() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            if handle.is_finished() {
                let _ = handle.join();
            }
            // Not finished in time: detach (dropping the handle) rather
            // than hang — the engine quarantined anything it could touch.
        }
    }
}

impl KernelCtx<'_> {
    /// Executes the kernel on every PE of a horizontal band of rows.
    /// `band` is the contiguous arena slice of those rows.
    ///
    /// Deferred commits (capture-elided kernels) run as a wavefront inside
    /// the band: row `y - max_dy` of the band's [`commit_window`] is
    /// committed right after row `y` is swept, while it is still
    /// cache-hot, and the rest of the window once the band's sweep ends.
    /// The rows outside the window are left to the dispatcher.
    ///
    /// `fault` is an injected band fault; it fires halfway through the
    /// band's rows.
    fn run_band(
        &self,
        band: &mut [f32],
        first_row: i64,
        scratch: &mut [f32],
        fault: Option<BandFault>,
    ) {
        let row_stride = self.row_stride;
        let first = first_row as usize;
        let rows = band.len() / row_stride;
        let max_dy = self.max_dy;
        let window = if self.plan.commit.is_empty() {
            first..first
        } else {
            commit_window(first..first + rows, self.linked.height as usize, max_dy)
        };
        let mut next_commit = window.start;
        for r in 0..rows {
            if r == rows / 2 {
                if let Some(fault) = fault {
                    fault.fire();
                }
            }
            let y = first + r;
            self.run_row(&mut band[r * row_stride..][..row_stride], y as i64, scratch);
            // Row `y - max_dy` is settled once row `y` is swept: the band's
            // own sweep is past it, and no other band's reads the window.
            // After the band's last row the whole window is.
            let settled = if r + 1 == rows { y + 1 } else { (y + 1).saturating_sub(max_dy) };
            let settled = settled.min(window.end);
            if next_commit < settled {
                let pes = (next_commit - first) * row_stride..(settled - first) * row_stride;
                self.commit_rows(&mut band[pes], next_commit, scratch);
                next_commit = settled;
            }
        }
    }

    /// Executes the kernel's sweep phase on one row of PEs: the body, then
    /// per chunk the staged receive windows followed by the receive
    /// callback, then the done-exchange callback.
    ///
    /// Execution is *op-major*: each planned op (and each chunk's staging
    /// copy) sweeps all PEs of the row before the next one runs.  PEs are
    /// independent within a kernel — cross-PE reads observe only pre-kernel
    /// state (the snapshot, or live arenas whose transmitted columns no
    /// sweep writes), and staging writes only the PE's own receive buffer —
    /// so this preserves each PE's own operation order and is bitwise
    /// identical to running the PEs one after another, while dispatch
    /// (instruction match, slot resolution) amortizes over the whole row
    /// and the row's arenas stay cache-hot.
    fn run_row(&self, row: &mut [f32], y: i64, scratch: &mut [f32]) {
        self.run_ops_row(row, &self.plan.pre, 0, y, scratch);
        if let Some(comm) = &self.kernel.comm {
            for chunk in 0..comm.num_chunks {
                let chunk_offset = chunk * comm.chunk_size;
                self.stage_row(comm, row, chunk_offset, y);
                self.run_ops_row(row, &self.plan.recv, chunk_offset, y, scratch);
            }
        }
        self.run_ops_row(row, &self.plan.done, 0, y, scratch);
    }

    /// Fills every PE's receive buffer with the chunk at `chunk_offset` of
    /// each slot the optimizer could not elide (none, for a fully
    /// optimized stream).
    fn stage_row(&self, comm: &LinkedComm, row: &mut [f32], chunk_offset: usize, y: i64) {
        debug_assert!(chunk_offset + comm.chunk_size <= comm.col_len);
        for (slot, spec) in comm.slots.iter().enumerate().filter(|(_, s)| s.staged) {
            let window = comm.recv_base + slot * comm.chunk_size;
            for (x, pe) in row.chunks_exact_mut(self.linked.arena_len).enumerate() {
                let (col, _) = self.slot_col(comm, spec, x as i64, y);
                // SAFETY: the column holds `col_len` readable elements (see
                // `slot_col`) and lives in the snapshot, the zero column or
                // a transmitted field column no sweep writes (see
                // `run_kernel`) — never in this PE's receive buffer.
                let src =
                    unsafe { std::slice::from_raw_parts(col.add(chunk_offset), comm.chunk_size) };
                pe[window..][..comm.chunk_size].copy_from_slice(src);
            }
        }
    }

    /// Runs one planned block over every PE of a row, op-major (see
    /// `run_row`).  Sweeps take the row-batched kernel; the remaining op
    /// kinds never have cross-PE sources and run per PE.
    fn run_ops_row(
        &self,
        row: &mut [f32],
        ops: &[PlannedOp],
        chunk_offset: usize,
        y: i64,
        scratch: &mut [f32],
    ) {
        let arena_len = self.linked.arena_len;
        for op in ops {
            if let PlannedOp::Sweep { dest, init, groups } = op {
                self.run_sweep_row(row, dest, init, groups, chunk_offset, y);
            } else {
                for pe in row.chunks_exact_mut(arena_len) {
                    exec_op(pe, op, chunk_offset, scratch);
                }
            }
        }
    }

    /// Executes one planned reduction sweep over every PE of a row:
    /// `dest[j] = init(j) + Σ terms[i].coeff · terms[i].src[j]`, applied
    /// left to right per element — exactly the f32 operation sequence of
    /// the `Fill`/`Macs` chain the linker fused, so results are bitwise
    /// identical to the unoptimized stream.  Chains wider than
    /// [`MAX_ARITY`] run as the head group plus continuation groups
    /// accumulating onto the freshly written destination (same per-element
    /// order, re-entered at the stored running value).
    ///
    /// Between adjacent PEs, every pointer of the sweep advances by a fixed
    /// stride — arena views (and the destination) by `arena_len`, slot
    /// columns by the stride `slot_col` reports — except where a
    /// `dx`-offset neighbor falls outside the grid.  The row therefore
    /// splits into at most three segments: the interior (one batched call
    /// per group), and the left/right edge PEs whose out-of-grid sources
    /// rebind to the shared zero column (single-PE batched calls).
    /// `dy`-offset neighbors are out of grid for a whole row at a time,
    /// which stays uniform: the zero column with stride 0.
    fn run_sweep_row(
        &self,
        row: &mut [f32],
        dest: &LinkedView,
        init: &FusedInit,
        groups: &[SweepGroup],
        chunk_offset: usize,
        y: i64,
    ) {
        let arena_len = self.linked.arena_len;
        let width = self.linked.width;
        let dest_range = dest.range(chunk_offset);
        let len = dest_range.len();
        if len == 0 || arena_len == 0 {
            return;
        }
        debug_assert_eq!(row.len(), width as usize * arena_len);
        debug_assert!(dest_range.end <= arena_len);
        let base = row.as_mut_ptr();
        // SAFETY: per PE, link-time fusion guarantees every arena term
        // source view — and any init accumulator distinct from the
        // destination — is disjoint from the destination range at every
        // chunk offset, and all views were bounds-validated against the
        // arena by the linker.  The destination is therefore the only
        // mutable arena range, and the sole permitted aliasing (`init ==
        // dest`, or a continuation group's accumulate onto the destination)
        // reads each element before overwriting it — the kernels' contract.
        // Across PEs, a sweep writes only its own PE's destination, which
        // no other PE's sources can observe — arena sources live in their
        // own PE's arena, and slot sources read the snapshot, the zero
        // column or arena columns the linker proved no sweep writes (see
        // `run_kernel`).
        unsafe {
            // Resolves one term for the PE at column `x`: base pointer and
            // the per-PE stride it advances by within a batch segment.
            let resolve = |term: &FusedTerm, x: i64| -> BatchTerm {
                let (src, stride) = match &term.src {
                    SrcRef::Arena(v) => {
                        let r = v.range(chunk_offset);
                        debug_assert!(r.end <= arena_len);
                        (base.add(x as usize * arena_len + r.start) as *const f32, arena_len)
                    }
                    SrcRef::Slot { slot, offset, .. } => {
                        let comm =
                            self.kernel.comm.as_ref().expect("slot sources imply an exchange");
                        let o = *offset as usize + chunk_offset;
                        debug_assert!(o + len <= comm.col_len);
                        let (col, stride) = self.slot_col(comm, &comm.slots[*slot as usize], x, y);
                        (col.add(o), stride)
                    }
                };
                BatchTerm { src, stride, coeff: term.coeff }
            };
            let mut first = true;
            for group in groups {
                // Interior segment: every dx-offset neighbor in-grid.
                let mut lo = 0i64;
                let mut hi = width;
                if let Some(comm) = &self.kernel.comm {
                    for term in group.terms.iter() {
                        if let SrcRef::Slot { slot, .. } = &term.src {
                            let dx = comm.slots[*slot as usize].dx;
                            if dx < 0 {
                                lo = lo.max(-dx);
                            } else {
                                hi = hi.min(width - dx);
                            }
                        }
                    }
                }
                let lo = lo.min(width) as usize;
                let hi = (hi.max(0) as usize).clamp(lo, width as usize);
                let run_segment = |x0: usize, n_pes: usize| {
                    if n_pes == 0 {
                        return;
                    }
                    let d = base.add(x0 * arena_len + dest_range.start);
                    let (fill, acc): (f32, *const f32) = if first {
                        match init {
                            FusedInit::Fill(c) => (*c, std::ptr::null()),
                            FusedInit::Acc(a) if a == dest => (0.0, d as *const f32),
                            FusedInit::Acc(a) => {
                                let r = a.range(chunk_offset);
                                debug_assert!(r.end <= arena_len);
                                (0.0, base.add(x0 * arena_len + r.start) as *const f32)
                            }
                        }
                    } else {
                        // Continuation groups accumulate onto the running
                        // value the previous group stored.
                        (0.0, d as *const f32)
                    };
                    let mut terms = [BatchTerm::NULL; MAX_ARITY];
                    for (slot, term) in terms.iter_mut().zip(group.terms.iter()) {
                        *slot = resolve(term, x0 as i64);
                    }
                    (group.row_kernel)(d, len, fill, acc, terms.as_ptr(), n_pes, arena_len);
                };
                for x in 0..lo {
                    run_segment(x, 1);
                }
                run_segment(lo, hi - lo);
                for x in hi..width as usize {
                    run_segment(x, 1);
                }
                first = false;
            }
        }
    }
}

/// Executes one PE-local planned operation over a PE arena.  `Binary` /
/// `Macs` ops the planner could not prove in-place-safe compute into
/// `scratch` first (read-all-then-write semantics for partially
/// overlapping views); direct ops write the destination in one pass.
fn exec_op(pe: &mut [f32], op: &PlannedOp, chunk_offset: usize, scratch: &mut [f32]) {
    match op {
        PlannedOp::Fill { dest, value } => pe[dest.range(chunk_offset)].fill(*value),
        PlannedOp::Copy { dest, src } => {
            let dest_start = dest.range(chunk_offset).start;
            pe.copy_within(src.range(chunk_offset), dest_start);
        }
        PlannedOp::Binary { kernel, dest, a, b, direct } => {
            let dest_range = dest.range(chunk_offset);
            let len = dest_range.len();
            debug_assert!(dest_range.end <= pe.len() && len <= scratch.len());
            let _ = (&pe[a.range(chunk_offset)], &pe[b.range(chunk_offset)]); // bounds check
            let base = pe.as_mut_ptr();
            // SAFETY: all views were bounds-validated by the linker (and
            // re-checked above); `direct` ops were proven
            // exactly-equal-or-disjoint to the destination by the planner,
            // which is the kernel's aliasing contract, and the scratch
            // buffer is a separate allocation sized `>= max_view_len`.
            unsafe {
                let pa = base.add(a.range(chunk_offset).start) as *const f32;
                let pb = base.add(b.range(chunk_offset).start) as *const f32;
                if *direct {
                    kernel(base.add(dest_range.start), pa, pb, len);
                } else {
                    kernel(scratch.as_mut_ptr(), pa, pb, len);
                    pe[dest_range].copy_from_slice(&scratch[..len]);
                }
            }
        }
        PlannedOp::Macs { kernel, dest, acc, src, coeff, direct } => {
            let dest_range = dest.range(chunk_offset);
            let len = dest_range.len();
            debug_assert!(dest_range.end <= pe.len() && len <= scratch.len());
            let _ = (&pe[acc.range(chunk_offset)], &pe[src.range(chunk_offset)]); // bounds check
            let base = pe.as_mut_ptr();
            // SAFETY: as for `Binary` above.
            unsafe {
                let pa = base.add(acc.range(chunk_offset).start) as *const f32;
                let ps = base.add(src.range(chunk_offset).start) as *const f32;
                if *direct {
                    kernel(base.add(dest_range.start), pa, ps, *coeff, len);
                } else {
                    kernel(scratch.as_mut_ptr(), pa, ps, *coeff, len);
                    pe[dest_range].copy_from_slice(&scratch[..len]);
                }
            }
        }
        PlannedOp::Sweep { .. } => unreachable!("sweeps read across PEs: see `run_sweep_row`"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::InterpGridSim;
    use crate::loader::load_program;
    use crate::reference::{max_abs_difference, run_reference};
    use wse_frontends::benchmarks::Benchmark;
    use wse_lowering::{lower_program, PipelineOptions};

    fn simulate(benchmark: Benchmark, options: &PipelineOptions) -> (GridState, GridState) {
        let program = benchmark.tiny_program();
        let lowered = lower_program(&program, options).unwrap();
        let loaded = load_program(&lowered.ctx, lowered.module).unwrap();
        let mut sim = WseGridSim::new(loaded).unwrap();
        sim.run(None).unwrap();
        let reference = run_reference(&program, None);
        (sim.grid_state().unwrap(), reference)
    }

    #[test]
    fn jacobian_matches_reference() {
        let (simulated, reference) = simulate(Benchmark::Jacobian, &PipelineOptions::default());
        let diff = max_abs_difference(&simulated, &reference);
        assert!(diff < 1e-4, "simulated result diverges from reference by {diff}");
    }

    #[test]
    fn jacobian_matches_reference_with_chunking() {
        let options = PipelineOptions { num_chunks: 3, ..PipelineOptions::default() };
        let (simulated, reference) = simulate(Benchmark::Jacobian, &options);
        let diff = max_abs_difference(&simulated, &reference);
        assert!(diff < 1e-4, "chunked execution diverges by {diff}");
    }

    #[test]
    fn seismic_matches_reference() {
        let (simulated, reference) = simulate(Benchmark::Seismic25, &PipelineOptions::default());
        let diff = max_abs_difference(&simulated, &reference);
        assert!(diff < 1e-3, "seismic diverges by {diff}");
    }

    #[test]
    fn diffusion_matches_reference_without_fusion() {
        let options = PipelineOptions { enable_fmac_fusion: false, ..PipelineOptions::default() };
        let (simulated, reference) = simulate(Benchmark::Diffusion, &options);
        let diff = max_abs_difference(&simulated, &reference);
        assert!(diff < 1e-4, "unfused execution diverges by {diff}");
    }

    #[test]
    fn acoustic_two_field_chain_matches_reference() {
        let (simulated, reference) = simulate(Benchmark::Acoustic, &PipelineOptions::default());
        let diff = max_abs_difference(&simulated, &reference);
        assert!(diff < 1e-3, "acoustic diverges by {diff}");
    }

    #[test]
    fn uvkbe_fused_kernel_matches_reference() {
        let (simulated, reference) = simulate(Benchmark::Uvkbe, &PipelineOptions::default());
        let diff = max_abs_difference(&simulated, &reference);
        assert!(diff < 1e-4, "uvkbe diverges by {diff}");
    }

    #[test]
    fn linked_engine_is_bitwise_equal_to_legacy_interpreter() {
        for benchmark in [Benchmark::Jacobian, Benchmark::Acoustic, Benchmark::Seismic25] {
            let program = benchmark.tiny_program();
            let options = PipelineOptions { num_chunks: 2, ..PipelineOptions::default() };
            let lowered = lower_program(&program, &options).unwrap();
            let loaded = load_program(&lowered.ctx, lowered.module).unwrap();
            let mut linked = WseGridSim::new(loaded.clone()).unwrap();
            linked.run(None).unwrap();
            let mut interp = InterpGridSim::new(loaded);
            interp.run(None).unwrap();
            assert_eq!(
                linked.grid_state().unwrap(),
                interp.grid_state(),
                "{}: engines disagree",
                benchmark.name()
            );
        }
    }

    #[test]
    fn parallel_execution_is_bitwise_deterministic() {
        let program = Benchmark::Diffusion.tiny_program();
        let lowered = lower_program(&program, &PipelineOptions::default()).unwrap();
        let loaded = load_program(&lowered.ctx, lowered.module).unwrap();
        let mut serial = WseGridSim::new(loaded.clone()).unwrap();
        serial.set_threads(1);
        serial.run(None).unwrap();
        let mut parallel = WseGridSim::new(loaded).unwrap();
        parallel.set_threads(3);
        parallel.run(None).unwrap();
        assert_eq!(serial.grid_state().unwrap(), parallel.grid_state().unwrap());
    }

    #[test]
    fn optimizer_shrinks_instructions_and_arenas_on_every_benchmark() {
        for benchmark in Benchmark::ALL {
            let program = benchmark.tiny_program();
            let options = PipelineOptions { num_chunks: 2, ..PipelineOptions::default() };
            let lowered = lower_program(&program, &options).unwrap();
            let loaded = load_program(&lowered.ctx, lowered.module).unwrap();
            let sim = WseGridSim::with_options(
                loaded,
                crate::link::LinkOptions { optimize: true, ..LinkOptions::default() },
            )
            .unwrap();
            let stats = sim.linked().stats();
            assert!(stats.optimized);
            assert!(
                stats.instrs_after < stats.instrs_before,
                "{}: {} -> {} instructions",
                benchmark.name(),
                stats.instrs_before,
                stats.instrs_after
            );
            assert!(
                stats.arena_bytes_after < stats.arena_bytes_before,
                "{}: arena {} -> {} bytes",
                benchmark.name(),
                stats.arena_bytes_before,
                stats.arena_bytes_after
            );
            assert!(stats.fused_chains > 0, "{}: no chains fused", benchmark.name());
        }
    }

    #[test]
    fn z_shifted_groups_share_one_staged_column_and_still_shrink() {
        use wse_frontends::ast::{Expr, Frontend, GridSpec, StencilEquation, StencilProgram};
        // Three remote terms on one (field, dx, dy) neighbor column; the
        // lowering must stage it once (shared slot), and the link-time
        // optimizer must still find savings on top.
        let expr = Expr::at("a", 1, 0, 1).scale(0.2)
            + Expr::at("a", 1, 0, -1).scale(0.2)
            + Expr::at("a", 1, 0, 0).scale(0.2)
            + Expr::center("a").scale(0.2);
        let program = StencilProgram {
            name: "zshift".into(),
            frontend: Frontend::Csl,
            grid: GridSpec::new(3, 3, 6),
            fields: vec!["a".into()],
            equations: vec![StencilEquation::new("a", expr)],
            timesteps: 2,
            source: String::new(),
        };
        program.validate().unwrap();
        let options = PipelineOptions { num_chunks: 2, ..PipelineOptions::default() };
        let lowered = lower_program(&program, &options).unwrap();
        let loaded = load_program(&lowered.ctx, lowered.module).unwrap();
        let staged: Vec<&str> = loaded
            .buffers
            .iter()
            .map(|b| b.name.as_str())
            .filter(|n| n.starts_with("remote_col"))
            .collect();
        assert_eq!(staged, vec!["remote_col0_0"], "one shared staged column");
        let sim = WseGridSim::with_options(
            loaded,
            crate::link::LinkOptions { optimize: true, ..LinkOptions::default() },
        )
        .unwrap();
        let stats = sim.linked().stats();
        assert!(stats.arena_bytes_after < stats.arena_bytes_before);
        // The shifted reductions write different sub-ranges, so no chain
        // collapses here — but nothing may grow either.
        assert!(stats.instrs_after <= stats.instrs_before);
    }

    #[test]
    fn unknown_field_is_an_error_not_a_silent_drop() {
        let program = Benchmark::Jacobian.tiny_program();
        let lowered = lower_program(&program, &PipelineOptions::default()).unwrap();
        let loaded = load_program(&lowered.ctx, lowered.module).unwrap();
        let sim = WseGridSim::new(loaded).unwrap();
        let message = sim.field("missing").unwrap_err().message;
        assert!(message.contains("not a field buffer"), "got: {message}");
        assert!(sim.field("a").is_ok());
        assert_eq!(sim.grid_state().unwrap().names, vec!["a".to_string()]);
    }
}
