//! Copy-on-write checkpoints and ABFT-style integrity checksums.
//!
//! A [`Checkpoint`] is a bitwise-exact snapshot of the per-PE arenas plus
//! the step counter, stored as shared pages: saving a new checkpoint
//! against its predecessor reuses (via `Arc`) every 4096-element page
//! whose bits did not change, so the steady-state cost of a cadence of
//! checkpoints is proportional to the write set, not the grid.
//!
//! Corruption is detected ABFT-style: [`row_checksums`] folds each
//! PE-grid row of the arenas into a 64-bit checksum (an 8-lane XOR-rotate
//! accumulator chosen so the compiler can vectorize it).  A single
//! flipped bit anywhere in a row changes its checksum.  With
//! [`RecoveryOptions::verify`] on, the engine verifies the stored sums at
//! every step boundary and recovers by rollback-and-replay (see
//! [`crate::exec::WseGridSim::enable_recovery`]) instead of silently
//! diverging.
//!
//! # Cost model
//!
//! Per-step verification is honest about its price: sums can only be
//! compared against the exact state version they were taken of, so every
//! step pays two full passes over the arenas (refresh after the sweep,
//! verify before the next) — memory-bound work comparable to the stencil
//! sweep itself on the fused engine.  It is the *fault-campaign and
//! forensics mode*, the configuration the conformance `--faults` sweep
//! runs, not the production default.  The default posture keeps recovery
//! overhead under 5% of `jacobian_medium` throughput the way production
//! HPC systems do: periodic copy-on-write checkpoints on a long cadence
//! (the Young/Daly optimum for realistic MTBFs is thousands of steps at
//! these step times; the default is a conservative 256), halo delivery
//! checksums inside capturing kernels, and the worker-band
//! watchdog/panic capture — with whole-arena verification off.  Faulty
//! state is then caught by the typed failure paths (band panics,
//! timeouts, delivery mismatches) and replayed from the last checkpoint.
//!
//! The cadence, the watchdog deadline and the rollback budget are the
//! fields of [`RecoveryOptions`], handed to
//! [`crate::exec::WseGridSim::enable_recovery`]; nothing else configures
//! them.

use std::sync::Arc;

use crate::fault::FaultCounts;

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
    /// Verify per-row arena checksums at every step boundary — the
    /// fault-campaign mode, costing two full arena passes per step (see
    /// the module-level cost model; off by default).  With this off, only
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

/// Folds `data` into a 64-bit checksum that changes under any single-bit
/// flip.  Eight independent XOR-rotate lanes (one per element of an
/// 8-wide block, rotation stepped per block) keep the loop free of
/// cross-iteration dependencies so the compiler can vectorize it; the
/// lanes are mixed FNV-style at the end.
pub fn checksum_f32(data: &[f32]) -> u64 {
    let mut lanes = [0u64; 8];
    let mut chunks = data.chunks_exact(8);
    let mut block = 0u32;
    for chunk in &mut chunks {
        for (j, v) in chunk.iter().enumerate() {
            lanes[j] ^= (v.to_bits() as u64).rotate_left(block & 63);
        }
        block = block.wrapping_add(1);
    }
    for (j, v) in chunks.remainder().iter().enumerate() {
        lanes[j] ^= (v.to_bits() as u64).rotate_left(block & 63);
    }
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (j, lane) in lanes.iter().enumerate() {
        h ^= lane.rotate_left((j * 8) as u32);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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

    #[test]
    fn checksum_detects_any_single_bit_flip() {
        let data: Vec<f32> = (0..100).map(|i| (i as f32) * 0.25 - 3.0).collect();
        let clean = checksum_f32(&data);
        for offset in [0usize, 1, 7, 8, 9, 63, 99] {
            for bit in [0u32, 11, 22, 31] {
                let mut corrupt = data.clone();
                corrupt[offset] = f32::from_bits(corrupt[offset].to_bits() ^ (1 << bit));
                assert_ne!(
                    checksum_f32(&corrupt),
                    clean,
                    "flip at elem {offset} bit {bit} must change the checksum"
                );
            }
        }
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
