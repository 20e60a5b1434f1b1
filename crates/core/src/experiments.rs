//! Regeneration of every table and figure in the paper's evaluation
//! (Section 6).  Each function returns structured rows; the `reproduce`
//! binary prints them.

use wse_frontends::benchmarks::{Benchmark, ProblemSize};
use wse_lowering::WseTarget;
use wse_sim::baselines::{
    a100_cluster_acoustic_gpts, cpu_cluster_acoustic_gpts, handwritten_seismic_estimate,
};
use wse_sim::roofline::{
    cache_arithmetic_intensity, device_roofline, fabric_arithmetic_intensity,
    memory_arithmetic_intensity, wse_fabric_roofline, wse_memory_roofline, Boundedness,
    RooflinePoint,
};
use wse_sim::{PerfEstimate, WseGeneration, A100};

use crate::compiler::{CompileError, Compiler};

/// Compiles and estimates one benchmark at one size on one target.
pub fn estimate_benchmark(
    benchmark: Benchmark,
    size: ProblemSize,
    target: WseTarget,
    num_chunks: i64,
) -> Result<PerfEstimate, CompileError> {
    let program = benchmark.program(size);
    let artifact = Compiler::new().target(target).num_chunks(num_chunks).compile(&program)?;
    Ok(artifact.estimate())
}

/// One row of Figure 4 (WSE2 vs WSE3, large problem size).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig4Row {
    /// Benchmark name.
    pub benchmark: String,
    /// GPts/s on the WSE2.
    pub wse2_gpts: f64,
    /// GPts/s on the WSE3.
    pub wse3_gpts: f64,
}

/// Figure 4: performance of Jacobian, Diffusion, Seismic and UVKBE on the
/// WSE2 and WSE3 at the large problem size.
pub fn fig4_wse2_vs_wse3() -> Result<Vec<Fig4Row>, CompileError> {
    let benchmarks =
        [Benchmark::Jacobian, Benchmark::Diffusion, Benchmark::Seismic25, Benchmark::Uvkbe];
    let mut rows = Vec::new();
    for benchmark in benchmarks {
        let wse2 = estimate_benchmark(benchmark, ProblemSize::Large, WseTarget::Wse2, 2)?;
        let wse3 = estimate_benchmark(benchmark, ProblemSize::Large, WseTarget::Wse3, 2)?;
        rows.push(Fig4Row {
            benchmark: benchmark.name().to_string(),
            wse2_gpts: wse2.gpts_per_sec,
            wse3_gpts: wse3.gpts_per_sec,
        });
    }
    Ok(rows)
}

/// One row of Figure 5 (seismic speedup over the hand-written kernel).
#[derive(Debug, Clone, PartialEq)]
pub struct Fig5Row {
    /// Problem size label.
    pub size: String,
    /// Hand-written kernel on the WSE2 in GPts/s (the baseline, speedup 1).
    pub handwritten_wse2_gpts: f64,
    /// Our generated code on the WSE2 in GPts/s.
    pub ours_wse2_gpts: f64,
    /// Our generated code on the WSE3 in GPts/s.
    pub ours_wse3_gpts: f64,
    /// Speedup of our WSE2 code over the hand-written kernel.
    pub speedup_wse2: f64,
    /// Speedup of our WSE3 code over the hand-written kernel.
    pub speedup_wse3: f64,
}

/// Figure 5: the 25-point seismic benchmark against the hand-written
/// Cerebras kernel across the three problem sizes.
pub fn fig5_handwritten_comparison() -> Result<Vec<Fig5Row>, CompileError> {
    let sizes = [ProblemSize::Small, ProblemSize::Medium, ProblemSize::Large];
    let mut rows = Vec::new();
    for size in sizes {
        let program = Benchmark::Seismic25.program(size);
        let flops = program.flops_per_point();
        let handwritten = handwritten_seismic_estimate(
            &WseGeneration::Wse2.machine(),
            (program.grid.x, program.grid.y, program.grid.z),
            program.timesteps,
            flops,
        );
        let ours_wse2 = estimate_benchmark(Benchmark::Seismic25, size, WseTarget::Wse2, 1)?;
        let ours_wse3 = estimate_benchmark(Benchmark::Seismic25, size, WseTarget::Wse3, 1)?;
        rows.push(Fig5Row {
            size: size.label(),
            handwritten_wse2_gpts: handwritten.gpts_per_sec,
            ours_wse2_gpts: ours_wse2.gpts_per_sec,
            ours_wse3_gpts: ours_wse3.gpts_per_sec,
            speedup_wse2: ours_wse2.gpts_per_sec / handwritten.gpts_per_sec,
            speedup_wse3: ours_wse3.gpts_per_sec / handwritten.gpts_per_sec,
        });
    }
    Ok(rows)
}

/// Figure 6: the acoustic benchmark on the WSE3 against 128 A100 GPUs and
/// 128 CPU nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6Result {
    /// WSE3 throughput in GPts/s.
    pub wse3_gpts: f64,
    /// 128×A100 throughput in GPts/s.
    pub a100_cluster_gpts: f64,
    /// 128-node EPYC throughput in GPts/s.
    pub cpu_cluster_gpts: f64,
    /// WSE3 speedup over the GPU cluster.
    pub speedup_vs_a100: f64,
    /// WSE3 speedup over the CPU cluster.
    pub speedup_vs_cpu: f64,
}

/// Figure 6 data.
pub fn fig6_cluster_comparison() -> Result<Fig6Result, CompileError> {
    let wse3 = estimate_benchmark(Benchmark::Acoustic, ProblemSize::Large, WseTarget::Wse3, 2)?;
    let a100 = a100_cluster_acoustic_gpts();
    let cpu = cpu_cluster_acoustic_gpts();
    Ok(Fig6Result {
        wse3_gpts: wse3.gpts_per_sec,
        a100_cluster_gpts: a100,
        cpu_cluster_gpts: cpu,
        speedup_vs_a100: wse3.gpts_per_sec / a100,
        speedup_vs_cpu: wse3.gpts_per_sec / cpu,
    })
}

/// Figure 7: roofline points for the five benchmarks on the WSE3 (memory
/// and fabric bandwidths) plus the acoustic benchmark on a single A100.
pub fn fig7_roofline() -> Result<Vec<RooflinePoint>, CompileError> {
    let machine = WseGeneration::Wse3.machine();
    let memory = wse_memory_roofline(&machine);
    let fabric = wse_fabric_roofline(&machine);
    let mut points = Vec::new();
    for benchmark in Benchmark::ALL {
        let program = benchmark.program(ProblemSize::Large);
        let estimate = estimate_benchmark(benchmark, ProblemSize::Large, WseTarget::Wse3, 2)?;
        let flops_per_point = program.flops_per_point();
        let achieved_flops = estimate.tflops * 1e12;
        let reads = program.max_points();
        let halo_values_per_point = (4 * program.xy_radius()) as f64
            * program.communicated_fields().len().max(1) as f64
            / program.grid.z as f64;
        points.push(memory.place(
            &format!("{} (memory)", benchmark.name()),
            memory_arithmetic_intensity(flops_per_point, reads),
            achieved_flops,
        ));
        points.push(fabric.place(
            &format!("{} (fabric)", benchmark.name()),
            fabric_arithmetic_intensity(flops_per_point, halo_values_per_point),
            achieved_flops,
        ));
    }
    // Acoustic on a single A100 (memory bound).
    let acoustic = Benchmark::Acoustic.program(ProblemSize::Large);
    let a100 = device_roofline(&A100);
    let ai = cache_arithmetic_intensity(acoustic.flops_per_point(), acoustic.fields.len());
    let achievable = a100.attainable(ai);
    points.push(a100.place("Acoustic (A100)", ai, achievable * 0.8));
    Ok(points)
}

/// One row of Table 1 (lines of code).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Generated CSL kernel lines.
    pub csl_kernel: usize,
    /// Entire generated CSL artifact lines.
    pub csl_entire: usize,
    /// DSL source lines written by the user.
    pub dsl: usize,
}

/// Table 1: lines-of-code comparison.
pub fn table1_loc() -> Result<Vec<Table1Row>, CompileError> {
    let mut rows = Vec::new();
    for benchmark in Benchmark::ALL {
        let program = benchmark.program(ProblemSize::Large);
        let artifact = Compiler::new().num_chunks(2).compile(&program)?;
        let report = artifact.loc_report();
        rows.push(Table1Row {
            benchmark: benchmark.name().to_string(),
            csl_kernel: report.csl_kernel,
            csl_entire: report.csl_entire,
            dsl: report.dsl,
        });
    }
    Ok(rows)
}

/// TFLOP/s summary quoted in Section 7 (Jacobian and Seismic on CS-2/CS-3).
#[derive(Debug, Clone, PartialEq)]
pub struct TflopsRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Sustained TFLOP/s on the WSE2.
    pub wse2_tflops: f64,
    /// Sustained TFLOP/s on the WSE3.
    pub wse3_tflops: f64,
}

/// Sustained TFLOP/s of the Jacobian and Seismic kernels on both machines.
pub fn tflops_summary() -> Result<Vec<TflopsRow>, CompileError> {
    let mut rows = Vec::new();
    for benchmark in [Benchmark::Jacobian, Benchmark::Seismic25] {
        let wse2 = estimate_benchmark(benchmark, ProblemSize::Large, WseTarget::Wse2, 2)?;
        let wse3 = estimate_benchmark(benchmark, ProblemSize::Large, WseTarget::Wse3, 2)?;
        rows.push(TflopsRow {
            benchmark: benchmark.name().to_string(),
            wse2_tflops: wse2.tflops,
            wse3_tflops: wse3.tflops,
        });
    }
    Ok(rows)
}

/// One row of the chunk-count ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkAblationRow {
    /// Number of chunks per exchange.
    pub num_chunks: i64,
    /// Throughput in GPts/s.
    pub gpts: f64,
    /// Per-PE memory footprint in bytes.
    pub bytes_per_pe: u64,
}

/// Ablation: how the chunk count trades memory footprint for overhead
/// (design choice of Section 4.1).
pub fn ablation_chunks(benchmark: Benchmark) -> Result<Vec<ChunkAblationRow>, CompileError> {
    let program = benchmark.program(ProblemSize::Medium);
    let mut rows = Vec::new();
    for num_chunks in [1, 2, 3, 5, 9] {
        if program.grid.z % num_chunks != 0 {
            continue;
        }
        let artifact = Compiler::new().num_chunks(num_chunks).compile(&program)?;
        let estimate = artifact.estimate();
        rows.push(ChunkAblationRow {
            num_chunks,
            gpts: estimate.gpts_per_sec,
            bytes_per_pe: artifact.bytes_per_pe(),
        });
    }
    Ok(rows)
}

/// One row of the FMA-fusion ablation.
#[derive(Debug, Clone, PartialEq)]
pub struct FusionAblationRow {
    /// Benchmark name.
    pub benchmark: String,
    /// Throughput with `@fmacs` fusion enabled.
    pub fused_gpts: f64,
    /// Throughput with fusion disabled.
    pub unfused_gpts: f64,
    /// Number of `@fmacs` builtins in the fused program.
    pub fmacs: usize,
}

/// Ablation: the effect of `linalg-fuse-multiply-add` (Section 5.7).
pub fn ablation_fusion() -> Result<Vec<FusionAblationRow>, CompileError> {
    let mut rows = Vec::new();
    for benchmark in [Benchmark::Seismic25, Benchmark::Diffusion] {
        let program = benchmark.program(ProblemSize::Medium);
        let fused = Compiler::new().compile(&program)?;
        let unfused = Compiler::new().fmac_fusion(false).compile(&program)?;
        rows.push(FusionAblationRow {
            benchmark: benchmark.name().to_string(),
            fused_gpts: fused.estimate().gpts_per_sec,
            unfused_gpts: unfused.estimate().gpts_per_sec,
            fmacs: fused.fmac_count(),
        });
    }
    Ok(rows)
}

/// Renders rows of strings as a plain-text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Convenience: is a roofline point compute bound?
pub fn is_compute_bound(point: &RooflinePoint) -> bool {
    point.boundedness == Boundedness::ComputeBound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shapes_hold() {
        let rows = fig4_wse2_vs_wse3().unwrap();
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.wse3_gpts > row.wse2_gpts, "{}: WSE3 must beat WSE2", row.benchmark);
            assert!(row.wse3_gpts / row.wse2_gpts < 2.5);
        }
    }

    #[test]
    fn fig5_shapes_hold() {
        let rows = fig5_handwritten_comparison().unwrap();
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert!(
                row.speedup_wse2 > 0.9,
                "{}: generated code must be competitive with hand-written ({:.2})",
                row.size,
                row.speedup_wse2
            );
            assert!(row.speedup_wse2 < 1.3, "{}: {:.2}", row.size, row.speedup_wse2);
            assert!(row.speedup_wse3 > row.speedup_wse2, "WSE3 adds further speedup");
        }
    }

    #[test]
    fn fig6_shapes_hold() {
        let result = fig6_cluster_comparison().unwrap();
        assert!(result.speedup_vs_a100 > 3.0, "vs A100: {:.1}", result.speedup_vs_a100);
        assert!(result.speedup_vs_cpu > result.speedup_vs_a100);
        assert!(result.speedup_vs_cpu < 100.0);
    }

    #[test]
    fn table1_shapes_hold() {
        let rows = table1_loc().unwrap();
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.dsl < row.csl_kernel, "{}: DSL must be far shorter", row.benchmark);
            assert!(row.csl_kernel < row.csl_entire);
            assert!(row.csl_entire > 200);
        }
    }

    #[test]
    fn render_table_aligns_columns() {
        let text = render_table(
            &["name", "value"],
            &[vec!["a".into(), "1".into()], vec!["longer".into(), "2".into()]],
        );
        assert!(text.contains("name"));
        assert!(text.lines().count() >= 4);
    }
}
