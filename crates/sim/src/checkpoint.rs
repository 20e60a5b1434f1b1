//! Copy-on-write checkpoints and ABFT-style integrity checksums.
//!
//! A [`Checkpoint`] is a bitwise-exact snapshot of the per-PE arenas plus
//! the step counter, stored as shared pages: saving a new checkpoint
//! against its predecessor reuses (via `Arc`) every 4096-element page
//! whose bits did not change, so the steady-state cost of a cadence of
//! checkpoints is proportional to the write set, not the grid.
//!
//! Corruption is detected ABFT-style: [`live_row_checksums`] folds the
//! state of each PE-grid row that is live across a step boundary (see
//! [`live_spans`]) into a 64-bit [`checksum_f32`]: sixteen `u32` lanes
//! that each add their elements' bits XORed with a per-block salt.  A
//! single flipped bit anywhere in the summed state changes its row's
//! checksum.  With [`RecoveryOptions::verify`] on, the engine verifies the
//! stored sums at every step boundary and recovers by rollback-and-replay
//! (see [`crate::exec::WseGridSim::enable_recovery`]) instead of silently
//! diverging.
//!
//! # Cost model
//!
//! Sums can only be compared against the exact state version they were
//! taken of, so a verified step pays two checksum passes (refresh after
//! the sweep, verify before the next).  Two things keep them cheap
//! (2-core Xeon, baseline x86-64 SSE2 code, 48×48×96 Jacobian):
//!
//! * the hash is lane-parallel integer adds with no cross-iteration
//!   dependence, which the compiler turns into SIMD code from portable
//!   Rust: 67 GB/s on L1-resident data and 38 GB/s over the 3.5 MB arena,
//!   against 15 GB/s for the scalar XOR-rotate fold it replaced, so
//!   `wse-perf`'s whole-arena `sim.checkpoint.row_checksums_ms` fell from
//!   0.32–0.39 to 0.09–0.12 ms (the range is host load);
//! * only the live state is summed: an element the next step overwrites
//!   before reading it cannot change any result, so a flip there needs no
//!   rollback.  For the Jacobian that is 194 of the 386 elements of each
//!   PE arena (the field and its accumulator; the receive buffer is
//!   dead), and a per-step pass costs 0.075 ms against a 0.115 ms step.
//!
//! Per-step verification still costs more than the fused sweep it guards
//! (`wse-perf`'s `sim.checkpoint.verify_overhead` is 1.4 on
//! `steady_jacobian`), so it is the *fault-campaign and forensics mode*,
//! the configuration the conformance `--faults` sweep runs, not the
//! production default.  The default posture keeps recovery overhead under
//! 5% of `jacobian_medium` throughput the way production HPC systems do:
//! periodic copy-on-write checkpoints on a long cadence (the Young/Daly
//! optimum for realistic MTBFs is thousands of steps at these step times;
//! the default is a conservative 256), halo delivery checksums inside
//! capturing kernels, and the worker-band watchdog/panic capture — with
//! per-step verification off.  Faulty state is then caught by the typed failure
//! paths (band panics, timeouts, delivery mismatches) and replayed from
//! the last checkpoint.
//!
//! The cadence, the watchdog deadline and the rollback budget are the
//! fields of [`RecoveryOptions`], handed to
//! [`crate::exec::WseGridSim::enable_recovery`]; nothing else configures
//! them.

use std::sync::Arc;

use crate::deps::{cycle_events, dead_after, overlaps, Span};
use crate::fault::FaultCounts;
use crate::link::LinkedProgram;

/// Elements per copy-on-write page.  4096 f32s = 16 KiB: small enough
/// that a localized write set shares most pages, large enough that the
/// per-page bookkeeping stays negligible.
const PAGE: usize = 4096;

/// A bitwise-exact snapshot of the engine's mutable state: the per-PE
/// arenas (as shared copy-on-write pages) plus the step counter.
#[derive(Debug, Clone)]
pub struct Checkpoint {
    pages: Vec<Arc<[f32]>>,
    len: usize,
    step: i64,
}

impl Checkpoint {
    /// Captures `arenas` at `step`.  When `prev` is given, every page
    /// whose bits match the previous checkpoint is shared instead of
    /// copied (copy-on-write across the checkpoint chain).
    pub fn capture(arenas: &[f32], step: i64, prev: Option<&Checkpoint>) -> Self {
        let reusable = prev.filter(|p| p.len == arenas.len());
        let mut pages = Vec::with_capacity(arenas.len().div_ceil(PAGE));
        for (index, chunk) in arenas.chunks(PAGE).enumerate() {
            let shared = reusable.and_then(|p| p.pages.get(index)).filter(|page| {
                page.len() == chunk.len()
                    && page.iter().zip(chunk).all(|(a, b)| a.to_bits() == b.to_bits())
            });
            match shared {
                Some(page) => pages.push(Arc::clone(page)),
                None => pages.push(Arc::from(chunk)),
            }
        }
        Checkpoint { pages, len: arenas.len(), step }
    }

    /// Restores the captured arena contents into `arenas`, which must
    /// have the length the checkpoint was captured from.
    pub fn restore_into(&self, arenas: &mut [f32]) {
        assert_eq!(arenas.len(), self.len, "checkpoint/arena length mismatch");
        for (chunk, page) in arenas.chunks_mut(PAGE).zip(&self.pages) {
            chunk.copy_from_slice(page);
        }
    }

    /// The step counter at capture time: the number of completed steps.
    pub fn step(&self) -> i64 {
        self.step
    }

    /// Arena elements captured.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for a checkpoint of an empty arena.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// How many of this checkpoint's pages are shared (pointer-identical)
    /// with `prev` — the copy-on-write evidence used by tests and stats.
    pub fn pages_shared_with(&self, prev: &Checkpoint) -> usize {
        self.pages.iter().zip(&prev.pages).filter(|(a, b)| Arc::ptr_eq(a, b)).count()
    }

    /// Total page count.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }
}

/// Configuration of the detect-and-rollback recovery loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryOptions {
    /// Steps between checkpoints (a checkpoint is always taken at step 0,
    /// before any sweep runs).  The default of 256 is deliberately long:
    /// a capture streams the whole arena, so short cadences show up
    /// directly in throughput (see the module-level cost model).
    pub checkpoint_every: i64,
    /// Verify per-row checksums of the live arena state at every step
    /// boundary — the fault-campaign mode, costing two checksum passes per
    /// step (see the module-level cost model; off by default).  With this off, only
    /// typed execution failures (band panics, watchdog timeouts, delivery
    /// checksum mismatches) trigger rollback.  Engines with a seeded
    /// [`crate::fault::FaultPlan`] but no explicit recovery configuration
    /// turn it on automatically — injecting faults without verification
    /// would be asking for the silent divergence this machinery exists to
    /// prevent.
    pub verify: bool,
    /// Rollback budget: after this many rollbacks the engine stops with
    /// [`crate::exec::ExecErrorKind::RecoveryFailed`] instead of looping
    /// forever on a persistent (non-transient) fault.
    pub max_rollbacks: u32,
    /// Worker-band watchdog deadline in milliseconds: a parallel sweep
    /// whose bands have not all reported within the deadline returns
    /// [`crate::exec::ExecErrorKind::Timeout`] instead of hanging the
    /// barrier forever.
    pub watchdog_ms: u64,
}

impl Default for RecoveryOptions {
    fn default() -> Self {
        RecoveryOptions {
            checkpoint_every: 256,
            verify: false,
            max_rollbacks: 32,
            watchdog_ms: 60_000,
        }
    }
}

impl RecoveryOptions {
    /// The watchdog deadline as a [`std::time::Duration`].
    pub fn watchdog(&self) -> std::time::Duration {
        std::time::Duration::from_millis(self.watchdog_ms.max(1))
    }
}

/// What the recovery machinery did during a run — the observable evidence
/// that checksums, checkpoints, and rollbacks actually fired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Checkpoints captured.
    pub checkpoints_saved: u64,
    /// Pages shared with the previous checkpoint (copy-on-write hits).
    pub checkpoint_pages_shared: u64,
    /// Total pages across all captured checkpoints.
    pub checkpoint_pages_total: u64,
    /// Rollbacks performed (each restores the latest checkpoint).
    pub rollbacks: u64,
    /// Steps re-executed due to rollback (lost work, in steps).
    pub steps_replayed: u64,
    /// Step boundaries where a row checksum mismatched the stored value.
    pub checksum_failures: u64,
    /// Halo delivery checksum mismatches detected inside kernels.
    pub delivery_failures: u64,
    /// Worker-band panics captured and converted to typed errors.
    pub band_panics: u64,
    /// Worker-band watchdog timeouts.
    pub band_timeouts: u64,
    /// Fault events injected by the active [`crate::fault::FaultPlan`].
    pub faults: FaultCounts,
}

/// Lanes of a checksum: one 64-byte block of sixteen `f32`s per step.
const LANES: usize = 16;

/// The salt's step per block: a Weyl sequence, distinct for 2^32
/// consecutive blocks.
const WEYL: u32 = 0x9E37_79B9;

/// The running state of [`checksum_f32`], for one sum over several slices.
#[derive(Default)]
struct Checksum {
    lanes: [u32; LANES],
    salt: u32,
    len: u64,
}

impl Checksum {
    fn feed(&mut self, data: &[f32]) {
        // Local lanes stay in vector registers across the blocks.
        let (mut lanes, mut salt) = (self.lanes, self.salt);
        let mut blocks = data.chunks_exact(LANES);
        for block in &mut blocks {
            fold(&mut lanes, block.try_into().expect("a whole block"), salt);
            salt = salt.wrapping_add(WEYL);
        }
        let tail = blocks.remainder();
        if !tail.is_empty() {
            let mut block = [0.0; LANES];
            block[..tail.len()].copy_from_slice(tail);
            fold(&mut lanes, &block, salt);
            salt = salt.wrapping_add(WEYL);
        }
        (self.lanes, self.salt) = (lanes, salt);
        self.len += data.len() as u64;
    }

    /// The lanes and the element count folded FNV-style (each step a
    /// bijection of the running value), then avalanched.
    fn finish(&self) -> u64 {
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &lane in &self.lanes {
            h = (h ^ u64::from(lane)).wrapping_mul(PRIME);
        }
        h = (h ^ self.len).wrapping_mul(PRIME);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^ (h >> 33)
    }
}

fn fold(lanes: &mut [u32; LANES], block: &[f32; LANES], salt: u32) {
    for (lane, v) in lanes.iter_mut().zip(block) {
        *lane = lane.wrapping_add(v.to_bits() ^ salt);
    }
}

/// Folds `data` into a 64-bit checksum that changes under any single-bit
/// flip.
///
/// Each element is added, as its bits XORed with a salt that changes per
/// 16-element block, into one of sixteen `u32` lanes (its position in the
/// block); a tail shorter than a block is folded once, zero-padded.  The
/// lanes are independent, so the compiler emits SIMD adds from this
/// portable code.  Flipping bit `k` of an element moves its lane by
/// exactly `±2^k`, and the final fold is injective in each lane, so any
/// single-bit flip changes the sum.  The salt makes it order-sensitive: a
/// delivery shifted by one element changes it too.
pub fn checksum_f32(data: &[f32]) -> u64 {
    let mut sum = Checksum::default();
    sum.feed(data);
    sum.finish()
}

/// Per-PE-grid-row checksums of the arenas: one 64-bit sum per
/// `row_stride` elements (the arenas of one row of PEs), ABFT-style.  A
/// mismatch localizes corruption to a row band.  A `row_stride` of zero
/// yields a single whole-arena sum.
pub fn row_checksums(arenas: &[f32], row_stride: usize) -> Vec<u64> {
    if row_stride == 0 {
        return vec![checksum_f32(arenas)];
    }
    arenas.chunks(row_stride).map(checksum_f32).collect()
}

/// The spans of one PE arena (every PE runs the same stream, so one list
/// serves the grid) whose values can reach a result from a step boundary:
/// the observable field interiors read there, and every element the next
/// program cycle reads before it overwrites it, as [`dead_after`] decides
/// from the boundary event of [`cycle_events`].  Sorted, disjoint and
/// merged where they touch.
///
/// The query runs once per interval between consecutive endpoints of the
/// events' spans: no span starts or ends inside such an interval, so each
/// of its elements gets the same answer.
pub fn live_spans(linked: &LinkedProgram) -> Vec<Span> {
    let events = cycle_events(linked);
    let boundary = events.len() - 1;
    let end = linked.arena_len;
    let mut cuts: Vec<usize> = events
        .iter()
        .flat_map(|e| e.reads.iter().chain(&e.write))
        .flat_map(|&(start, end)| [start, end])
        .chain([0, end])
        .map(|cut| cut.min(end))
        .collect();
    cuts.sort_unstable();
    cuts.dedup();
    let mut live: Vec<Span> = Vec::new();
    for interval in cuts.windows(2).map(|w| (w[0], w[1])) {
        let observed = events[boundary].reads.iter().any(|&r| overlaps(r, interval));
        if !observed && dead_after(&events, boundary, interval) {
            continue;
        }
        match live.last_mut() {
            Some(last) if last.1 == interval.0 => last.1 = interval.1,
            _ => live.push(interval),
        }
    }
    live
}

/// Per-PE-grid-row checksums of the `live` spans (offsets into each
/// `arena_len`-element PE arena, as [`live_spans`] returns them): one
/// [`checksum_f32`] lane state per row of `width` PEs, fed span by span,
/// PE by PE, and finished once.
pub fn live_row_checksums(
    arenas: &[f32],
    width: usize,
    arena_len: usize,
    live: &[Span],
) -> Vec<u64> {
    if width * arena_len == 0 {
        return Vec::new();
    }
    let row = |row: &[f32]| {
        let mut sum = Checksum::default();
        for arena in row.chunks_exact(arena_len) {
            for &(start, end) in live {
                sum.feed(&arena[start..end]);
            }
        }
        sum.finish()
    };
    arenas.chunks(width * arena_len).map(row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_and_restore_are_bitwise_exact() {
        let arenas: Vec<f32> = (0..10_000).map(|i| (i as f32).sin()).collect();
        let ck = Checkpoint::capture(&arenas, 7, None);
        assert_eq!(ck.step(), 7);
        let mut out = vec![0.0f32; arenas.len()];
        ck.restore_into(&mut out);
        for (a, b) in arenas.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn unchanged_pages_are_shared_not_copied() {
        let mut arenas: Vec<f32> = vec![1.5; PAGE * 4];
        let first = Checkpoint::capture(&arenas, 0, None);
        // Touch one element in the last page: three pages must be shared.
        arenas[PAGE * 3 + 17] = 2.5;
        let second = Checkpoint::capture(&arenas, 8, Some(&first));
        assert_eq!(second.pages_shared_with(&first), 3);
        assert_eq!(second.page_count(), 4);
        // And the shared-page checkpoint still restores the new bits.
        let mut out = vec![0.0f32; arenas.len()];
        second.restore_into(&mut out);
        assert_eq!(out[PAGE * 3 + 17], 2.5);
        assert_eq!(out[0], 1.5);
    }

    #[test]
    fn negative_zero_is_not_shared_with_positive_zero() {
        let arenas = vec![0.0f32; 8];
        let first = Checkpoint::capture(&arenas, 0, None);
        let negated = vec![-0.0f32; 8];
        let second = Checkpoint::capture(&negated, 1, Some(&first));
        assert_eq!(second.pages_shared_with(&first), 0, "sharing must compare bits, not values");
        let mut out = vec![1.0f32; 8];
        second.restore_into(&mut out);
        assert!(out.iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
    }

    /// Distinct, non-zero values, so every zero fill and every rotation
    /// changes the data.
    fn distinct(len: usize) -> Vec<f32> {
        (0..len).map(|i| (i as f32 + 1.0) * 0.37).collect()
    }

    /// Every length up to 100 covers the empty, partial and full tails of
    /// the 16-lane blocks.
    #[test]
    fn checksum_detects_any_single_bit_flip() {
        for len in 1..=100 {
            let data = distinct(len);
            let clean = checksum_f32(&data);
            for offset in 0..len {
                for bit in 0..32 {
                    let mut corrupt = data.clone();
                    corrupt[offset] = f32::from_bits(corrupt[offset].to_bits() ^ (1 << bit));
                    assert_ne!(checksum_f32(&corrupt), clean, "len {len}: elem {offset} bit {bit}");
                }
            }
        }
    }

    /// A dropped halo delivery reads as a zero-filled column.
    #[test]
    fn checksum_detects_zero_filled_ranges() {
        for len in 1..=100 {
            let data = distinct(len);
            let clean = checksum_f32(&data);
            for start in 0..len {
                for end in start + 1..=len {
                    let mut corrupt = data.clone();
                    corrupt[start..end].fill(0.0);
                    assert_ne!(checksum_f32(&corrupt), clean, "len {len}: zeroed {start}..{end}");
                }
            }
        }
    }

    /// A duplicated halo delivery shifts a column by one element.
    #[test]
    fn checksum_detects_windows_rotated_by_one() {
        for len in 2..=100 {
            let data = distinct(len);
            let clean = checksum_f32(&data);
            for start in 0..len {
                for end in start + 2..=len {
                    let mut corrupt = data.clone();
                    corrupt[start..end].rotate_right(1);
                    assert_ne!(checksum_f32(&corrupt), clean, "len {len}: rotated {start}..{end}");
                }
            }
        }
    }

    #[test]
    fn live_row_checksums_see_live_spans_only() {
        // Two rows of two PEs, 10-element arenas, live spans 1..4 and 6..9.
        let live = [(1, 4), (6, 9)];
        let mut arenas = distinct(40);
        let clean = live_row_checksums(&arenas, 2, 10, &live);
        assert_eq!(clean.len(), 2);
        arenas[10 + 5] = -1.0; // dead element of the second PE
        arenas[20] = -1.0; // dead element of the third PE
        assert_eq!(live_row_checksums(&arenas, 2, 10, &live), clean);
        arenas[30 + 8] = -1.0; // last live element of the fourth PE
        let dirty = live_row_checksums(&arenas, 2, 10, &live);
        assert_eq!(dirty[0], clean[0]);
        assert_ne!(dirty[1], clean[1]);
    }

    #[test]
    fn row_checksums_localize_corruption() {
        let mut arenas: Vec<f32> = (0..400).map(|i| i as f32).collect();
        let clean = row_checksums(&arenas, 100);
        assert_eq!(clean.len(), 4);
        arenas[250] = f32::from_bits(arenas[250].to_bits() ^ 1);
        let dirty = row_checksums(&arenas, 100);
        assert_eq!(clean[0], dirty[0]);
        assert_eq!(clean[1], dirty[1]);
        assert_ne!(clean[2], dirty[2]);
        assert_eq!(clean[3], dirty[3]);
    }
}
