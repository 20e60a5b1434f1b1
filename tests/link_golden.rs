//! Golden fixture for the link-time optimizer: what it does to every
//! stream the compiler emits, one line per program.
//!
//! The programs are generator seeds 0..512 (default profile; the seeds
//! that generate, lower and load) plus the five paper programs at every
//! chunking of {1, 2, 4}, with and without fmacs lowering.  Each is linked
//! with the validator off (`validate: false`), so a row is the raw
//! optimizer's report: instruction counts, every `OptStats` rewrite
//! counter, the four skip reasons, arena bytes, the plan counts and a hash
//! of the emitted kernels and layouts.  A change that links any compiled
//! program differently — or exactly which rows it moves — is one
//! `cargo test --test link_golden`.  The plan's vector/scalar split is the
//! host's ISA, not the optimizer's, so a row records the arithmetic ops
//! planned either way (`plan_ops`) and the scratch round-trips elided.
//!
//! To refresh the fixture after an intentional optimizer change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test link_golden
//! ```
//!
//! and commit the resulting diff under `tests/golden/`.

use std::path::PathBuf;

use testkit::{try_generate_case_with, GeneratorConfig};
use wse_frontends::{Benchmark, StencilProgram};
use wse_ir::fxhash::fx_hash_one;
use wse_lowering::{lower_program, PipelineOptions};
use wse_sim::loader::LoadedProgram;
use wse_sim::{link_program_with, load_program, plan_program, LinkOptions};

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/link_stats.txt")
}

/// Lowers and loads `program`; `None` when either stage rejects it.
fn load(program: &StencilProgram, options: &PipelineOptions) -> Option<LoadedProgram> {
    let lowered = lower_program(program, options).ok()?;
    load_program(&lowered.ctx, lowered.module).ok()
}

/// One fixture line: `label` followed by what the optimizer reported.
fn row(label: &str, loaded: &LoadedProgram) -> String {
    let options = LinkOptions { validate: false, ..LinkOptions::default() };
    let linked = link_program_with(loaded, &options)
        .unwrap_or_else(|e| panic!("{label}: a compiled program must link: {e}"));
    let s = linked.stats();
    let k = &s.skipped;
    let plan = plan_program(&linked).counts;
    format!(
        "{label}: instrs {}->{} macs_fused {} chains {} terms {} longest {} copies_folded {} \
         slots_elided {} captures_elided {} chunks_flattened {} sweeps_merged {} product_muls {} \
         binary_copies_folded {} dead_writes {} coalesced {} | skip aliasing {} window {} \
         multi_result {} product_fence {} | arena {}->{} | plan_ops {} scratch_elided {} | \
         kernels {:016x} layouts {:016x}",
        s.instrs_before,
        s.instrs_after,
        s.binary_macs_fused,
        s.fused_chains,
        s.fused_terms,
        s.longest_chain,
        s.copies_folded,
        s.slots_elided,
        s.captures_elided,
        s.chunks_flattened,
        s.sweeps_merged,
        s.product_muls,
        s.binary_copies_folded,
        s.dead_writes_elided,
        s.buffers_coalesced,
        k.aliasing,
        k.window_barrier,
        k.multi_result,
        k.product_fence,
        s.arena_bytes_before,
        s.arena_bytes_after,
        plan.simd_planned + plan.simd_fallback,
        plan.scratch_elided,
        fx_hash_one(&format!("{:?}", linked.kernels)),
        fx_hash_one(&format!("{:?}", linked.layouts)),
    )
}

fn rows() -> Vec<String> {
    let mut rows = Vec::new();
    for seed in 0..512 {
        let Ok(case) = try_generate_case_with(seed, &GeneratorConfig::default()) else { continue };
        if let Some(loaded) = load(&case.program, &case.options) {
            rows.push(row(&format!("seed {seed}"), &loaded));
        }
    }
    for benchmark in Benchmark::ALL {
        for num_chunks in [1, 2, 4] {
            for fmac in [true, false] {
                let options = PipelineOptions {
                    num_chunks,
                    enable_fmac_fusion: fmac,
                    ..PipelineOptions::default()
                };
                let label = format!("{} chunks {num_chunks} fmac {fmac}", benchmark.name());
                let loaded = load(&benchmark.tiny_program(), &options)
                    .unwrap_or_else(|| panic!("{label}: the paper program must compile"));
                rows.push(row(&label, &loaded));
            }
        }
    }
    rows
}

#[test]
fn compiled_streams_link_as_the_fixture_records() {
    let actual = rows();
    let path = fixture_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual.join("\n") + "\n").expect("write the link fixture");
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing link fixture {} ({e}); run UPDATE_GOLDEN=1 cargo test --test link_golden",
            path.display()
        )
    });
    let expected: Vec<&str> = golden.lines().collect();
    let moved: Vec<String> = expected
        .iter()
        .zip(&actual)
        .filter(|(e, a)| *e != a)
        .map(|(e, a)| format!("  golden: {e}\n  linked: {a}"))
        .collect();
    assert!(
        moved.is_empty() && expected.len() == actual.len(),
        "{} of {} rows moved ({} golden rows, {} linked); if intentional, refresh with \
         UPDATE_GOLDEN=1 cargo test --test link_golden\n{}",
        moved.len(),
        actual.len(),
        expected.len(),
        actual.len(),
        moved.join("\n"),
    );
}
