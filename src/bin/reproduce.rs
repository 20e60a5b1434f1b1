//! Prints every table and figure of the paper's evaluation.
//!
//! Usage: `cargo run --release --bin reproduce [-- fig4|fig5|fig6|fig7|table1|tflops|ablations|all]`

use wse_stencil::experiments as exp;

fn print_fig4() {
    let rows = exp::fig4_wse2_vs_wse3().expect("figure 4");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.0}", r.wse2_gpts),
                format!("{:.0}", r.wse3_gpts),
                format!("{:.2}x", r.wse3_gpts / r.wse2_gpts),
            ]
        })
        .collect();
    println!(
        "Figure 4 — WSE2 vs WSE3, large problem size\n{}",
        exp::render_table(&["benchmark", "WSE2 GPts/s", "WSE3 GPts/s", "WSE3/WSE2"], &table)
    );
}

fn print_fig5() {
    let rows = exp::fig5_handwritten_comparison().expect("figure 5");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.size.clone(),
                format!("{:.0}", r.handwritten_wse2_gpts),
                format!("{:.0}", r.ours_wse2_gpts),
                format!("{:.0}", r.ours_wse3_gpts),
                format!("{:.3}", r.speedup_wse2),
                format!("{:.3}", r.speedup_wse3),
            ]
        })
        .collect();
    println!(
        "Figure 5 — 25-pt seismic vs the hand-written WSE2 kernel\n{}",
        exp::render_table(
            &["size", "hand-written", "ours WSE2", "ours WSE3", "speedup WSE2", "speedup WSE3"],
            &table
        )
    );
}

fn print_fig6() {
    let r = exp::fig6_cluster_comparison().expect("figure 6");
    let table = vec![
        vec!["WSE3 (1 wafer)".to_string(), format!("{:.0}", r.wse3_gpts), "1.0".to_string()],
        vec![
            "128 x A100 (Tursa)".to_string(),
            format!("{:.0}", r.a100_cluster_gpts),
            format!("{:.1}x slower", r.speedup_vs_a100),
        ],
        vec![
            "128 x dual EPYC 7742 (ARCHER2)".to_string(),
            format!("{:.0}", r.cpu_cluster_gpts),
            format!("{:.1}x slower", r.speedup_vs_cpu),
        ],
    ];
    println!(
        "Figure 6 — Devito acoustic, WSE3 vs GPU/CPU clusters\n{}",
        exp::render_table(&["system", "GPts/s", "relative"], &table)
    );
}

fn print_fig7() {
    let points = exp::fig7_roofline().expect("figure 7");
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.label.clone(),
                format!("{:.3}", p.arithmetic_intensity),
                format!("{:.3e}", p.flops),
                format!("{:.3e}", p.attainable_flops),
                if exp::is_compute_bound(p) {
                    "compute-bound".into()
                } else {
                    "memory-bound".into()
                },
            ]
        })
        .collect();
    println!(
        "Figure 7 — roofline\n{}",
        exp::render_table(
            &["kernel", "AI [FLOP/B]", "achieved FLOP/s", "attainable FLOP/s", "bound"],
            &table
        )
    );
}

fn print_table1() {
    let rows = exp::table1_loc().expect("table 1");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                r.csl_kernel.to_string(),
                r.csl_entire.to_string(),
                r.dsl.to_string(),
            ]
        })
        .collect();
    println!(
        "Table 1 — lines of code\n{}",
        exp::render_table(
            &["benchmark", "CSL kernel only", "CSL entire", "DSL & our approach"],
            &table
        )
    );
}

fn print_tflops() {
    let rows = exp::tflops_summary().expect("tflops");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.0}", r.wse2_tflops),
                format!("{:.0}", r.wse3_tflops),
            ]
        })
        .collect();
    println!(
        "Sustained TFLOP/s (Section 7 discussion)\n{}",
        exp::render_table(&["benchmark", "CS-2 TFLOP/s", "CS-3 TFLOP/s"], &table)
    );
}

fn print_ablations() {
    for benchmark in [
        wse_stencil::benchmarks::Benchmark::Seismic25,
        wse_stencil::benchmarks::Benchmark::Diffusion,
    ] {
        let rows = exp::ablation_chunks(benchmark).expect("ablation");
        let table: Vec<Vec<String>> = rows
            .iter()
            .map(|r| {
                vec![r.num_chunks.to_string(), format!("{:.0}", r.gpts), r.bytes_per_pe.to_string()]
            })
            .collect();
        println!(
            "Ablation (chunk count) — {}\n{}",
            benchmark.name(),
            exp::render_table(&["num_chunks", "GPts/s", "bytes per PE"], &table)
        );
    }
    let rows = exp::ablation_fusion().expect("ablation");
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.0}", r.fused_gpts),
                format!("{:.0}", r.unfused_gpts),
                r.fmacs.to_string(),
            ]
        })
        .collect();
    println!(
        "Ablation (fmac fusion)\n{}",
        exp::render_table(&["benchmark", "fused GPts/s", "unfused GPts/s", "@fmacs"], &table)
    );
}

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "all".to_string());
    match which.as_str() {
        "fig4" => print_fig4(),
        "fig5" => print_fig5(),
        "fig6" => print_fig6(),
        "fig7" => print_fig7(),
        "table1" => print_table1(),
        "tflops" => print_tflops(),
        "ablations" => print_ablations(),
        "all" => {
            print_fig4();
            print_fig5();
            print_fig6();
            print_fig7();
            print_table1();
            print_tflops();
            print_ablations();
        }
        _ => {
            eprintln!("usage: reproduce [fig4|fig5|fig6|fig7|table1|tflops|ablations|all]");
            std::process::exit(2);
        }
    }
}
