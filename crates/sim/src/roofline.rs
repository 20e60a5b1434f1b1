//! Roofline model (Figure 7 of the paper).
//!
//! For each benchmark two points are plotted on the WSE3 roofline: one
//! assuming all data accesses hit PE-local memory and one assuming all
//! accesses traverse the fabric.  The acoustic benchmark is additionally
//! placed on a single-A100 roofline, where it is memory bound.

use crate::machine::{ComparisonDevice, WseMachine};

/// Which bandwidth bounds a roofline point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Boundedness {
    /// Below the sloped (bandwidth) part of the roofline.
    MemoryBound,
    /// Below the flat (peak-compute) part of the roofline.
    ComputeBound,
}

/// One point on a roofline plot.
#[derive(Debug, Clone, PartialEq)]
pub struct RooflinePoint {
    /// Label, e.g. `"Seismic (memory)"`.
    pub label: String,
    /// Arithmetic intensity in FLOP/byte.
    pub arithmetic_intensity: f64,
    /// Achieved performance in FLOP/s.
    pub flops: f64,
    /// Attainable performance at this intensity in FLOP/s.
    pub attainable_flops: f64,
    /// Whether the point is memory or compute bound.
    pub boundedness: Boundedness,
}

/// A machine roofline: peak compute plus one or more bandwidth ceilings.
#[derive(Debug, Clone, PartialEq)]
pub struct Roofline {
    /// Machine name.
    pub name: String,
    /// Peak performance in FLOP/s.
    pub peak_flops: f64,
    /// Bandwidth in bytes/s used for the sloped ceiling.
    pub bandwidth: f64,
}

impl Roofline {
    /// Attainable FLOP/s at the given arithmetic intensity.
    pub fn attainable(&self, arithmetic_intensity: f64) -> f64 {
        (self.bandwidth * arithmetic_intensity).min(self.peak_flops)
    }

    /// Classifies a point at the given intensity.
    pub fn boundedness(&self, arithmetic_intensity: f64) -> Boundedness {
        if self.bandwidth * arithmetic_intensity < self.peak_flops {
            Boundedness::MemoryBound
        } else {
            Boundedness::ComputeBound
        }
    }

    /// Places a kernel on this roofline.
    pub fn place(&self, label: &str, arithmetic_intensity: f64, flops: f64) -> RooflinePoint {
        RooflinePoint {
            label: label.to_string(),
            arithmetic_intensity,
            flops,
            attainable_flops: self.attainable(arithmetic_intensity),
            boundedness: self.boundedness(arithmetic_intensity),
        }
    }
}

/// The WSE roofline using aggregate local-memory bandwidth.
pub fn wse_memory_roofline(machine: &WseMachine) -> Roofline {
    Roofline {
        name: format!("{} memory", machine.generation.name()),
        peak_flops: machine.peak_flops(),
        bandwidth: machine.memory_bandwidth_pbs * 1e15,
    }
}

/// The WSE roofline using aggregate fabric bandwidth.
pub fn wse_fabric_roofline(machine: &WseMachine) -> Roofline {
    Roofline {
        name: format!("{} fabric", machine.generation.name()),
        peak_flops: machine.peak_flops(),
        bandwidth: machine.fabric_bandwidth_pbs * 1e15,
    }
}

/// The roofline of a conventional device (A100, EPYC node).
pub fn device_roofline(device: &ComparisonDevice) -> Roofline {
    Roofline {
        name: device.name.to_string(),
        peak_flops: device.peak_tflops * 1e12,
        bandwidth: device.memory_bandwidth_tbs * 1e12,
    }
}

/// Arithmetic intensity of a stencil when every access hits local memory:
/// per point, `points_read` reads plus one write of 4-byte values.
pub fn memory_arithmetic_intensity(flops_per_point: u64, points_read: usize) -> f64 {
    flops_per_point as f64 / ((points_read as f64 + 1.0) * 4.0)
}

/// Arithmetic intensity when only the halo traffic goes over the fabric:
/// per point, `halo_values` values of 4 bytes cross the fabric.
pub fn fabric_arithmetic_intensity(flops_per_point: u64, halo_values_per_point: f64) -> f64 {
    flops_per_point as f64 / (halo_values_per_point.max(1e-9) * 4.0)
}

/// Arithmetic intensity of a stencil on a cache-based device, where each
/// point's data is ideally read and written once per sweep per field.
pub fn cache_arithmetic_intensity(flops_per_point: u64, fields: usize) -> f64 {
    flops_per_point as f64 / ((fields as f64 + 1.0) * 2.0 * 4.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{WseGeneration, A100};

    #[test]
    fn roofline_breaks_at_the_ridge_point() {
        let machine = WseGeneration::Wse3.machine();
        let roofline = wse_memory_roofline(&machine);
        let ridge = roofline.peak_flops / roofline.bandwidth;
        assert!(roofline.attainable(ridge * 0.5) < roofline.peak_flops);
        assert_eq!(roofline.attainable(ridge * 10.0), roofline.peak_flops);
        assert_eq!(roofline.boundedness(ridge * 0.5), Boundedness::MemoryBound);
        assert_eq!(roofline.boundedness(ridge * 10.0), Boundedness::ComputeBound);
    }

    #[test]
    fn wse_benchmarks_are_compute_bound_acoustic_on_a100_is_not() {
        let machine = WseGeneration::Wse3.machine();
        let memory = wse_memory_roofline(&machine);
        let fabric = wse_fabric_roofline(&machine);
        // Acoustic: 13-pt, 2 fields, ~30 flops/point; halo ≈ 8 values / z.
        let ai_memory = memory_arithmetic_intensity(30, 14);
        let ai_fabric = fabric_arithmetic_intensity(30, 8.0 / 604.0);
        assert_eq!(memory.boundedness(ai_memory), Boundedness::ComputeBound);
        assert_eq!(fabric.boundedness(ai_fabric), Boundedness::ComputeBound);
        // On a single A100 the same kernel is memory bound.
        let a100 = device_roofline(&A100);
        let ai_cache = cache_arithmetic_intensity(30, 2);
        assert_eq!(a100.boundedness(ai_cache), Boundedness::MemoryBound);
    }

    #[test]
    fn fabric_roofline_is_below_memory_roofline() {
        let machine = WseGeneration::Wse3.machine();
        let memory = wse_memory_roofline(&machine);
        let fabric = wse_fabric_roofline(&machine);
        assert!(fabric.bandwidth < memory.bandwidth);
        let point = fabric.place("Jacobian (fabric)", 0.5, 1e14);
        assert!(point.attainable_flops <= memory.attainable(0.5));
        assert_eq!(point.label, "Jacobian (fabric)");
    }
}
