//! Deterministic, seeded fault injection for the linked engine.
//!
//! Real wafer-scale runs last hours across ~850k PEs, where transient
//! bit-flips, dropped fabric deliveries, and wedged routers are an
//! operational fact.  This module gives the simulator the same failure
//! surface, deterministically: a [`FaultPlan`] is derived from a seed and
//! a per-step event rate, and injects faults at exec-phase boundaries —
//! arena bit-flips between steps, dropped or duplicated halo snapshot
//! deliveries inside a kernel's capture phase, and stalled or panicking
//! worker bands.
//!
//! Faults are *transient*: each planned event is consumed exactly once,
//! so a rollback-and-replay of the same step range (see
//! [`crate::checkpoint`]) runs clean, exactly like a transient hardware
//! fault that does not recur.  The plan is also *stateless per step*:
//! [`FaultPlan::for_range`] derives every step's events from `seed ^ step`
//! alone, so re-materializing a plan over a later range (as `run` does on
//! each call after [`crate::exec::WseGridSim::inject_faults`]) yields the
//! same events the full-range plan would have — e.g.
//! `FaultOptions { seed: 42, rate: 0.05 }` for one fault on ~5% of steps
//! under seed 42.

use crate::link::LinkedProgram;

/// Panic message of injected [`FaultKind::BandPanic`] events.  Test
/// harnesses match on it to silence the expected panic reports of a fault
/// campaign without hiding real panics.
pub const INJECTED_BAND_PANIC: &str = "injected band fault";

/// Configuration for deterministic fault injection: a seed for the fault
/// stream and a per-step probability that a fault event fires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultOptions {
    /// Seed of the fault event stream.  Two engines with the same seed,
    /// rate, and program inject identical faults.
    pub seed: u64,
    /// Per-step probability in `[0, 1]` that one fault event is injected
    /// at that step.
    pub rate: f64,
}

/// One planned fault event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip one bit of one arena word on one PE, at the boundary *after*
    /// the step completes (and after its checksums/checkpoint are taken,
    /// so the corruption is detected at the next step's integrity check).
    ArenaBitFlip {
        /// Flat PE index (`y * width + x`).
        pe: usize,
        /// Element offset within that PE's arena.
        offset: usize,
        /// Bit position in `0..32`.
        bit: u32,
    },
    /// Drop one PE's halo snapshot delivery for one field of one kernel's
    /// capture phase (the column reads as zero downstream).
    DropDelivery {
        /// Kernel index within the step.
        kernel: usize,
        /// Flat PE index whose column is lost.
        pe: usize,
        /// Index into the kernel's `snap_fields`.
        field: usize,
    },
    /// Duplicate an element within one PE's delivered halo column (a
    /// misrouted retransmission overwriting part of the column).
    DuplicateDelivery {
        /// Kernel index within the step.
        kernel: usize,
        /// Flat PE index whose column is corrupted.
        pe: usize,
        /// Index into the kernel's `snap_fields`.
        field: usize,
    },
    /// One worker band panics mid-sweep.
    BandPanic {
        /// Kernel index within the step.
        kernel: usize,
        /// Band index (taken modulo the job count at dispatch).
        band: usize,
    },
    /// One worker band stalls (sleeps past the watchdog deadline).
    BandStall {
        /// Kernel index within the step.
        kernel: usize,
        /// Band index (taken modulo the job count at dispatch).
        band: usize,
        /// Stall duration in milliseconds.
        millis: u64,
    },
}

/// How many events of each kind a plan injected so far, for assertions
/// that a fault campaign actually exercised every failure path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Arena bit-flips injected at step boundaries.
    pub bit_flips: u64,
    /// Halo deliveries dropped.
    pub drops: u64,
    /// Halo deliveries duplicated.
    pub duplicates: u64,
    /// Worker bands panicked.
    pub band_panics: u64,
    /// Worker bands stalled past the watchdog.
    pub band_stalls: u64,
}

impl FaultCounts {
    /// Total events across all kinds.
    pub fn total(&self) -> u64 {
        self.bit_flips + self.drops + self.duplicates + self.band_panics + self.band_stalls
    }
}

/// A deterministic schedule of fault events keyed by step, derived from
/// [`FaultOptions`] and the linked program's shape.  Events are consumed
/// exactly once (transient faults), so replay after rollback runs clean.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    events: Vec<(i64, FaultKind)>,
}

impl FaultPlan {
    /// Builds a plan for steps in `[start, end)`.  Per-step events are a
    /// pure function of `options.seed` and the step index, so plans built
    /// over different ranges agree on their overlap.  `stall_millis` is
    /// the sleep injected for [`FaultKind::BandStall`] events — callers
    /// size it past their watchdog deadline.
    pub fn for_range(
        options: FaultOptions,
        linked: &LinkedProgram,
        start: i64,
        end: i64,
        stall_millis: u64,
    ) -> Self {
        let n_pes = (linked.width * linked.height).max(0) as usize;
        let arena_elems = n_pes * linked.arena_len;
        // Delivery faults only make sense on kernels that actually capture
        // halo columns into the snapshot buffer.
        let capture_kernels: Vec<(usize, usize)> = linked
            .kernels
            .iter()
            .enumerate()
            .filter_map(|(k, kernel)| {
                let comm = kernel.comm.as_ref()?;
                (comm.capture && !comm.snap_fields.is_empty())
                    .then_some((k, comm.snap_fields.len()))
            })
            .collect();
        let n_kernels = linked.kernels.len();

        let mut events = Vec::new();
        for step in start..end {
            let mut rng = SplitMix::new(options.seed ^ (step as u64).wrapping_mul(GOLDEN));
            if rng.float() >= options.rate {
                continue;
            }
            let roll = rng.below(100);
            let kind = if roll < 25 && !capture_kernels.is_empty() && n_pes > 0 {
                let (kernel, n_fields) = capture_kernels[rng.below(capture_kernels.len() as u64)];
                let pe = rng.below(n_pes as u64);
                let field = rng.below(n_fields as u64);
                if roll < 15 {
                    FaultKind::DropDelivery { kernel, pe, field }
                } else {
                    FaultKind::DuplicateDelivery { kernel, pe, field }
                }
            } else if roll < 45 && n_kernels > 0 {
                let kernel = rng.below(n_kernels as u64);
                let band = rng.below(64);
                if roll < 40 {
                    FaultKind::BandPanic { kernel, band }
                } else {
                    FaultKind::BandStall { kernel, band, millis: stall_millis }
                }
            } else if arena_elems > 0 {
                FaultKind::ArenaBitFlip {
                    pe: rng.below(n_pes as u64),
                    offset: rng.below(linked.arena_len as u64),
                    bit: rng.below(32) as u32,
                }
            } else {
                continue;
            };
            events.push((step, kind));
        }
        FaultPlan { events }
    }

    /// Builds a plan from an explicit event list — the test hook for
    /// pinning one precisely-placed fault.
    pub fn from_events(events: Vec<(i64, FaultKind)>) -> Self {
        FaultPlan { events }
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events remaining.
    pub fn remaining(&self) -> usize {
        self.events.len()
    }

    /// Consumes and returns every [`FaultKind::ArenaBitFlip`] planned at
    /// the boundary after `step`, as `(pe, offset, bit)` triples.
    pub fn take_boundary_flips(&mut self, step: i64) -> Vec<(usize, usize, u32)> {
        let mut flips = Vec::new();
        self.events.retain(|(at, kind)| {
            if *at == step {
                if let FaultKind::ArenaBitFlip { pe, offset, bit } = kind {
                    flips.push((*pe, *offset, *bit));
                    return false;
                }
            }
            true
        });
        flips
    }

    /// Consumes and returns the event planned for `kernel` of `step`, if
    /// any (delivery faults and band faults fire inside the kernel).
    pub fn take_kernel_event(&mut self, step: i64, kernel: usize) -> Option<FaultKind> {
        let position = self.events.iter().position(|(at, kind)| {
            *at == step
                && match kind {
                    FaultKind::DropDelivery { kernel: k, .. }
                    | FaultKind::DuplicateDelivery { kernel: k, .. }
                    | FaultKind::BandPanic { kernel: k, .. }
                    | FaultKind::BandStall { kernel: k, .. } => *k == kernel,
                    FaultKind::ArenaBitFlip { .. } => false,
                }
        })?;
        Some(self.events.remove(position).1)
    }
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Private SplitMix64 stream — same construction as testkit's generator
/// RNG, duplicated here because `sim` sits below `testkit` in the crate
/// graph.
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        SplitMix { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, bound)`; `bound` must be nonzero.
    fn below(&mut self, bound: u64) -> usize {
        (self.next_u64() % bound) as usize
    }

    /// Uniform in `[0, 1)`.
    fn float(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_linked() -> LinkedProgram {
        use crate::link::{link_program_with, LinkOptions};
        use crate::loader::{BufferDecl, Instr, LoadedKernel, LoadedProgram, Src, ViewRef};
        let view = |offset, len| ViewRef { buffer: "u".into(), offset, dynamic: false, len };
        let program = LoadedProgram {
            width: 4,
            height: 4,
            z_dim: 8,
            z_halo: 1,
            timesteps: 4,
            buffers: vec![BufferDecl { name: "u".into(), len: 10, init: 1.0 }],
            field_buffers: vec!["u".into()],
            internal_fields: Vec::new(),
            kernels: vec![LoadedKernel {
                name: "seq_kernel0".into(),
                pre: vec![Instr::Movs { dest: view(1, 8), src: Src::View(view(1, 8)) }],
                comm: None,
                recv: Vec::new(),
                done: Vec::new(),
            }],
        };
        link_program_with(&program, &LinkOptions { optimize: false, ..LinkOptions::default() })
            .unwrap()
    }

    #[test]
    fn plans_are_deterministic_and_range_stable() {
        let linked = tiny_linked();
        let options = FaultOptions { seed: 9, rate: 0.5 };
        let full = FaultPlan::for_range(options, &linked, 0, 64, 100);
        let again = FaultPlan::for_range(options, &linked, 0, 64, 100);
        assert_eq!(full.events, again.events);
        assert!(full.remaining() > 0, "rate 0.5 over 64 steps must plan events");

        // A plan over a sub-range agrees with the full plan's overlap.
        let tail = FaultPlan::for_range(options, &linked, 32, 64, 100);
        let full_tail: Vec<_> =
            full.events.iter().filter(|(step, _)| *step >= 32).cloned().collect();
        assert_eq!(tail.events, full_tail);
    }

    #[test]
    fn events_are_consumed_exactly_once() {
        let mut plan = FaultPlan::from_events(vec![
            (3, FaultKind::ArenaBitFlip { pe: 1, offset: 2, bit: 7 }),
            (3, FaultKind::BandPanic { kernel: 0, band: 1 }),
            (5, FaultKind::DropDelivery { kernel: 0, pe: 0, field: 0 }),
        ]);
        assert_eq!(plan.take_boundary_flips(3), vec![(1, 2, 7)]);
        assert!(plan.take_boundary_flips(3).is_empty(), "flips are transient");
        assert_eq!(plan.take_kernel_event(3, 0), Some(FaultKind::BandPanic { kernel: 0, band: 1 }));
        assert_eq!(plan.take_kernel_event(3, 0), None, "band faults are transient");
        assert_eq!(plan.take_kernel_event(5, 1), None, "wrong kernel takes nothing");
        assert_eq!(
            plan.take_kernel_event(5, 0),
            Some(FaultKind::DropDelivery { kernel: 0, pe: 0, field: 0 })
        );
        assert!(plan.is_empty());
    }

    #[test]
    fn rate_zero_plans_nothing_and_rate_one_plans_every_step() {
        let linked = tiny_linked();
        let none = FaultPlan::for_range(FaultOptions { seed: 1, rate: 0.0 }, &linked, 0, 100, 100);
        assert!(none.is_empty());
        let all = FaultPlan::for_range(FaultOptions { seed: 1, rate: 1.0 }, &linked, 0, 100, 100);
        assert_eq!(all.remaining(), 100);
    }
}
