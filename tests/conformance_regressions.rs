//! Pinned reproducers for every miscompilation the differential
//! conformance harness (`crates/testkit`) has flushed out of the
//! pipeline.  Each test is the shrunk form of a failing generated seed;
//! together they pin six distinct bug classes that the five paper
//! benchmarks never exercised.

use testkit::{install_quiet_panic_hook, run_case, ConformanceCase, Verdict};
use wse_frontends::ast::{Expr, Frontend, GridSpec, StencilEquation, StencilProgram};
use wse_lowering::PipelineOptions;

fn program(
    grid: (i64, i64, i64),
    fields: &[&str],
    equations: Vec<StencilEquation>,
    timesteps: i64,
) -> StencilProgram {
    let program = StencilProgram {
        name: "regression".into(),
        frontend: Frontend::Csl,
        grid: GridSpec::new(grid.0, grid.1, grid.2),
        fields: fields.iter().map(|f| f.to_string()).collect(),
        equations,
        timesteps,
        source: String::new(),
    };
    program.validate().expect("regression programs are valid");
    program
}

fn assert_passes(program: StencilProgram, options: PipelineOptions) {
    install_quiet_panic_hook();
    let case = ConformanceCase { seed: 0, program, options };
    let verdict = run_case(&case);
    assert!(matches!(verdict, Verdict::Pass { .. }), "verdict: {verdict:?}");
}

/// Bug 1 (shrunk from generated seed 44): a remote term with a z-offset
/// (`f0[+1, 0, -2]`) had its z-shift silently dropped — the neighbor
/// chunk was accumulated as if `dz = 0`.  All five paper benchmarks are
/// star stencils whose remote terms live in the z = 0 plane, so this
/// path was never executed before the generator hit it.
#[test]
fn remote_terms_with_z_offsets_are_shifted() {
    let eq = StencilEquation::new("f0", Expr::at("f0", 1, 0, -2).scale(-0.1));
    assert_passes(program((2, 1, 3), &["f0"], vec![eq], 2), PipelineOptions::default());
}

/// Bug 1, diagonal variant: box-shaped stencils communicate along
/// diagonals with simultaneous z-shifts and multiple chunks.
#[test]
fn diagonal_remote_terms_with_z_offsets_and_chunks() {
    let eq = StencilEquation::new(
        "f0",
        Expr::at("f0", 1, -1, 2).scale(0.2) + Expr::at("f0", -2, 2, -1).scale(-0.3),
    );
    assert_passes(
        program((4, 4, 6), &["f0"], vec![eq], 2),
        PipelineOptions { num_chunks: 3, ..PipelineOptions::default() },
    );
}

/// Bug 2 (shrunk from generated seed 63): an equation whose right-hand
/// side is (or contains) an additive constant lost the constant — the
/// actor lowering always reset the accumulator to zero.
#[test]
fn additive_constants_survive_the_actor_lowering() {
    let constant_only = StencilEquation::new("f0", Expr::c(0.025));
    assert_passes(program((1, 1, 1), &["f0"], vec![constant_only], 1), PipelineOptions::default());
    let mixed = StencilEquation::new("f0", Expr::at("f0", 1, 0, 0).scale(0.25) + Expr::c(-0.05));
    assert_passes(
        program((3, 3, 4), &["f0"], vec![mixed], 2),
        PipelineOptions { num_chunks: 2, ..PipelineOptions::default() },
    );
}

/// Bug 3 (shrunk from generated seed 3): inlining a *self-updating*
/// producer (`f0 = 0.2 * f0[z-1]`) into a consumer reading `f0` freezes
/// the consumer's expression in pre-update values, but the sequential
/// kernel chain re-reads the live (already updated) buffer.  Such pairs
/// were first refused outright; they are now fused via double-buffer
/// renaming (see the `dependence_aware_inlining` module below), and this
/// shape must stay conformant either way.
#[test]
fn self_updating_producers_are_not_inlined_incorrectly() {
    let eqs = vec![
        StencilEquation::new("f0", Expr::at("f0", 0, 0, -1).scale(0.2)),
        StencilEquation::new("f0", Expr::center("f0").scale(0.3)),
    ];
    assert_passes(program((1, 1, 2), &["f0"], eqs, 2), PipelineOptions::default());
}

/// Bug 4 (shrunk from generated seed 115): splitting the column into
/// z_dim chunks of one element collided with the wrapper's "chunk size
/// not set" sentinel, which was also 1 — receive callbacks then read
/// slot k at `recv_buffer[k * z_dim]` while the engine staged it at
/// `recv_buffer[k]`.
#[test]
fn unit_chunk_sizes_are_not_conflated_with_the_default() {
    let eq = StencilEquation::new(
        "f2",
        Expr::at("f2", 0, 2, 0).scale(0.1) + Expr::at("f2", 0, -2, 0).scale(-0.1),
    );
    assert_passes(
        program((1, 3, 4), &["f2"], vec![eq], 1),
        // z = 4 with 4 chunks => chunk_size = 1.
        PipelineOptions { num_chunks: 4, ..PipelineOptions::default() },
    );
}

/// Bug 5 (shrunk from generated seed 23, stress profile): a fused
/// multi-output apply whose outputs are all PE-local skipped the
/// csl_stencil conversion entirely, and the actor lowering silently
/// executed only the first output.
#[test]
fn local_only_fused_applies_keep_every_output() {
    let eqs = vec![
        StencilEquation::new("f1", Expr::center("f0").scale(0.9)),
        StencilEquation::new("f1", Expr::center("f1").scale(0.0)),
    ];
    assert_passes(program((1, 1, 1), &["f0", "f1"], eqs, 1), PipelineOptions::default());
    // Cross-field chain variant (shrunk from stress seed 88).
    let eqs = vec![
        StencilEquation::new("f1", Expr::center("f2").scale(0.6)),
        StencilEquation::new("f2", Expr::center("f1").scale(0.5)),
    ];
    assert_passes(program((1, 1, 1), &["f1", "f2"], eqs, 2), PipelineOptions::default());
}

/// Bug 6 (shrunk from generated seed 1553): inlining dropped the
/// producer's additive constant — the consumer's combination kept only
/// the scaled terms, so `f2 = -0.1; f1 = 0.3 * f2` computed `f1` from
/// the stale initial value.
#[test]
fn inlining_propagates_the_producer_constant() {
    let eqs = vec![
        StencilEquation::new("f2", Expr::c(-0.1)),
        StencilEquation::new("f1", Expr::center("f2").scale(0.3)),
    ];
    assert_passes(program((1, 1, 1), &["f1", "f2"], eqs, 1), PipelineOptions::default());
}

/// Nonlinear bodies above the degree cap must come back as typed
/// diagnostics, never panics.  (Degree-2 bodies are *lowered* — see the
/// `nonlinear_products` module below.)
#[test]
fn degree_three_bodies_are_rejected_with_a_typed_diagnostic() {
    install_quiet_panic_hook();
    let eq = StencilEquation::new(
        "f0",
        // Nested under an add, so the diagnostic has to walk to the
        // offending multiply rather than blaming the whole body.
        Expr::center("f0").scale(0.2)
            + Expr::center("f0") * Expr::center("f0") * Expr::center("f0"),
    );
    let case = ConformanceCase {
        seed: 0,
        program: program((3, 3, 4), &["f0"], vec![eq], 1),
        options: PipelineOptions::default(),
    };
    match run_case(&case) {
        Verdict::Rejected { stage, code, .. } => {
            assert_eq!(stage, "distribute-stencil");
            // Classified by the machine-readable code the analysis error
            // carries, not by string-matching the diagnostic text.
            assert_eq!(code.as_deref(), Some("non-linear-degree"));
        }
        other => panic!("expected a typed rejection, got {other:?}"),
    }
}

// --------------------------------------------------------------------------
// Link-time optimizer fusion rules (PR 4).  One pinned regression per
// rewrite-safety rule: the optimized stream must stay bitwise identical
// to the unoptimized (`optimize: false`) stream even on the exact
// shapes where an unsound rewrite would diverge.
// --------------------------------------------------------------------------

mod fusion_rules {
    use wse_frontends::ast::{Expr, StencilEquation};
    use wse_lowering::PipelineOptions;
    use wse_sim::loader::{BufferDecl, Instr, LoadedKernel, LoadedProgram, Src, ViewRef};
    use wse_sim::{LinkOptions, WseGridSim};

    fn view(buffer: &str, offset: i64, len: i64) -> ViewRef {
        ViewRef { buffer: buffer.into(), offset, dynamic: false, len }
    }

    fn hand_built(pre: Vec<Instr>, buffers: Vec<BufferDecl>) -> LoadedProgram {
        LoadedProgram {
            width: 2,
            height: 2,
            z_dim: 4,
            z_halo: 0,
            timesteps: 2,
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

    /// Runs the program through both streams and requires bitwise equality.
    fn assert_bitwise_transparent(program: LoadedProgram) {
        let mut optimized = WseGridSim::with_options(
            program.clone(),
            LinkOptions { optimize: true, ..LinkOptions::default() },
        )
        .unwrap();
        optimized.run(None).unwrap();
        let mut unoptimized = WseGridSim::with_options(
            program,
            LinkOptions { optimize: false, ..LinkOptions::default() },
        )
        .unwrap();
        unoptimized.run(None).unwrap();
        let (a, b) = (optimized.grid_state().unwrap(), unoptimized.grid_state().unwrap());
        for ((name, fa), fb) in a.names.iter().zip(&a.fields).zip(&b.fields) {
            for (i, (x, y)) in fa.data.iter().zip(&fb.data).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{name}[{i}]: {x} vs {y}");
            }
        }
    }

    /// Rule 1: a `Macs` whose source aliases its destination must not fuse
    /// into a one-pass sweep — the multi-pass scratch semantics (read all,
    /// then write) are observable through the overlap.
    #[test]
    fn aliased_dest_and_src_are_not_fused() {
        let program = hand_built(
            vec![
                Instr::Movs { dest: view("a", 0, 4), src: Src::Scalar(1.0) },
                // dest a[0..3] overlaps src a[1..4]: one-pass execution
                // would read its own freshly written elements.
                Instr::Macs {
                    dest: view("a", 0, 3),
                    acc: view("a", 0, 3),
                    src: view("a", 1, 3),
                    coeff: 0.5,
                },
                Instr::Macs {
                    dest: view("a", 0, 3),
                    acc: view("a", 0, 3),
                    src: view("a", 1, 3),
                    coeff: -0.25,
                },
            ],
            vec![BufferDecl { name: "a".into(), len: 4, init: 0.0 }],
        );
        assert_bitwise_transparent(program);
    }

    /// Rule 2: an interleaved `Copy` that redefines a chain source is a
    /// fusion barrier, and folding the copy away must respect the read
    /// that follows it.
    #[test]
    fn interleaved_copy_breaks_the_chain() {
        let program = hand_built(
            vec![
                Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.25) },
                Instr::Macs {
                    dest: view("acc", 0, 4),
                    acc: view("acc", 0, 4),
                    src: view("a", 0, 4),
                    coeff: 0.5,
                },
                // Redefines `a` mid-chain; the next Macs must observe it.
                Instr::Movs { dest: view("a", 0, 4), src: Src::View(view("acc", 0, 4)) },
                Instr::Macs {
                    dest: view("acc", 0, 4),
                    acc: view("acc", 0, 4),
                    src: view("a", 0, 4),
                    coeff: -0.5,
                },
                Instr::Movs { dest: view("a", 0, 4), src: Src::View(view("acc", 0, 4)) },
            ],
            vec![
                BufferDecl { name: "a".into(), len: 4, init: 0.0 },
                BufferDecl { name: "acc".into(), len: 4, init: 0.0 },
            ],
        );
        assert_bitwise_transparent(program);
    }

    /// Rule 3 (found in review): a fused sweep that reads a receive slot
    /// directly and was retargeted at the transmitted field by copy
    /// folding must never move into the deferred-commit block — the run
    /// phase resolves no slot columns there, and by commit time the
    /// neighbor arenas may already hold post-kernel state.  Before the
    /// fix this exact shape panicked on the first macro step.
    #[test]
    fn folded_slot_sweeps_are_never_deferred() {
        use wse_sim::loader::{CommSpec, SlotSpec};
        let program = LoadedProgram {
            width: 3,
            height: 1,
            z_dim: 4,
            z_halo: 0,
            timesteps: 2,
            buffers: vec![
                BufferDecl { name: "a".into(), len: 4, init: 0.0 },
                BufferDecl { name: "acc".into(), len: 4, init: 0.0 },
                BufferDecl { name: "recv_buffer".into(), len: 4, init: 0.0 },
            ],
            field_buffers: vec!["a".into()],
            internal_fields: Vec::new(),
            kernels: vec![LoadedKernel {
                name: "seq_kernel0".into(),
                pre: vec![Instr::Movs { dest: view("acc", 0, 4), src: Src::Scalar(0.0) }],
                comm: Some(CommSpec {
                    num_chunks: 1,
                    chunk_size: 4,
                    slots: vec![SlotSpec { field: "a".into(), dx: 1, dy: 0 }],
                    fields: vec!["a".into()],
                    pattern: 1,
                }),
                recv: vec![Instr::Macs {
                    dest: view("acc", 0, 4),
                    acc: view("acc", 0, 4),
                    src: view("recv_buffer", 0, 4),
                    coeff: 0.5,
                }],
                done: vec![Instr::Movs {
                    dest: view("a", 0, 4),
                    src: Src::View(view("acc", 0, 4)),
                }],
            }],
        };
        assert_bitwise_transparent(program);
    }

    /// Optimizer-reach rule (new): with `enable_fmac_fusion=false` the
    /// loaded stream spells every multiply-accumulate as a
    /// `Binary(Mul)`+`Binary(Add)` pair over a constant coefficient
    /// buffer.  The link-time peephole must recover `Macs` (and then
    /// fused sweeps) from exactly that spelling, report it in
    /// `LinkedProgram::stats`, and stay bitwise identical to the
    /// unoptimized stream.
    #[test]
    fn mul_add_pairs_fuse_when_fmac_lowering_is_off() {
        use wse_stencil::{benchmarks::Benchmark, Compiler};
        let program = Benchmark::Jacobian.tiny_program();
        let artifact = Compiler::new()
            .fmac_fusion(false)
            .num_chunks(2)
            .verify_each(true)
            .compile(&program)
            .unwrap();
        let loaded = artifact.loaded_program().clone();
        assert_eq!(loaded.fmac_count(), 0, "no Macs reach the linker");
        let linked = WseGridSim::with_options(
            loaded.clone(),
            LinkOptions { optimize: true, ..LinkOptions::default() },
        )
        .unwrap();
        let stats = linked.linked().stats();
        assert!(stats.binary_macs_fused > 0, "peephole fired: {stats:?}");
        assert!(stats.fused_chains > 0, "recovered Macs feed chain fusion: {stats:?}");
        assert_bitwise_transparent(loaded);
    }

    /// Rule 3: a single-chunk exchange with z-shifted remote terms reads
    /// the receive buffer directly in the done callback (no staged
    /// column); the full pipeline must stay conformant through that path.
    #[test]
    fn single_chunk_z_shift_reads_recv_buffer_directly() {
        let eq = StencilEquation::new(
            "f0",
            Expr::at("f0", 1, 0, 1).scale(0.2)
                + Expr::at("f0", 1, 0, -2).scale(0.2)
                + Expr::at("f0", 1, 0, 0).scale(0.2),
        );
        super::assert_passes(
            super::program((3, 2, 5), &["f0"], vec![eq], 2),
            PipelineOptions { num_chunks: 1, ..PipelineOptions::default() },
        );
    }
}

// --------------------------------------------------------------------------
// Dependence-aware inlining (double-buffer renaming).  These pin the
// fusion paths the conservative pass used to refuse: self-updating
// producers, interleaved applies, renamed-buffer liveness, and copy-back
// elision — each both conformant *and* actually taking the new path.
// --------------------------------------------------------------------------

mod dependence_aware_inlining {
    use super::{assert_passes, program};
    use testkit::install_quiet_panic_hook;
    use wse_frontends::ast::{Expr, StencilEquation, StencilProgram};
    use wse_lowering::PipelineOptions;
    use wse_sim::{LinkOptions, OptStats, WseGridSim};
    use wse_stencil::Compiler;

    /// Compiles with inlining on and returns (loaded internal double-buffer
    /// fields, optimized-stream link stats, kernel count).
    fn compile_evidence(program: &StencilProgram) -> (Vec<String>, OptStats, usize) {
        let artifact = Compiler::new().verify_each(true).compile(program).expect("compiles");
        let loaded = artifact.loaded_program().clone();
        let kernels = loaded.kernels.len();
        let sim = WseGridSim::with_options(
            loaded.clone(),
            LinkOptions { optimize: true, ..LinkOptions::default() },
        )
        .expect("links");
        (loaded.internal_fields.clone(), sim.linked().stats().clone(), kernels)
    }

    /// A self-updating producer (`f0` reads and writes `f0`) feeding a
    /// centre-only consumer is fused by renaming the producer's store into
    /// a double buffer; the original field is live-out, so a copy-back
    /// kernel restores it.  The double buffer unblocks copy folding (the
    /// write-back no longer aliases its sources), and the extracted grid
    /// state must hide the internal field.
    #[test]
    fn self_updating_chain_is_fused_via_double_buffer() {
        install_quiet_panic_hook();
        let eqs = vec![
            StencilEquation::new(
                "f0",
                Expr::at("f0", 0, 0, -1).scale(0.4) + Expr::center("f0").scale(0.3),
            ),
            StencilEquation::new(
                "f1",
                Expr::center("f0").scale(0.3) + Expr::at("f1", 0, 0, 1).scale(0.2),
            ),
        ];
        let p = program((2, 2, 4), &["f0", "f1"], eqs, 3);
        assert_passes(p.clone(), PipelineOptions::default());

        let (internal, stats, kernels) = compile_evidence(&p);
        assert_eq!(internal, vec!["f0__dbuf0".to_string()], "the hazarded field is renamed");
        // Fused pair splits into two kernels plus the live-out copy-back.
        assert_eq!(kernels, 3, "producer + consumer + copy-back kernels");
        assert!(stats.copies_folded > 0, "double-buffering unblocks copy folding: {stats:?}");

        // The internal field is a real buffer but not observable state.
        let artifact = Compiler::new().compile(&p).unwrap();
        let mut sim = WseGridSim::new(artifact.loaded_program().clone()).unwrap();
        sim.run(None).unwrap();
        let state = sim.grid_state().unwrap();
        assert_eq!(state.names, vec!["f0".to_string(), "f1".to_string()]);
        assert!(sim.field("f0__dbuf0").is_ok(), "internal buffer still addressable by name");
    }

    /// When a later equation overwrites the renamed field, the copy-back
    /// is elided — the later store already produces the final generation —
    /// and the dead write to the double buffer (its only consumer was
    /// substituted away during fusion) is removed by the link-time
    /// optimizer's renamed-buffer liveness scan.
    #[test]
    fn copy_back_is_elided_when_the_field_is_overwritten_later() {
        install_quiet_panic_hook();
        let eqs = vec![
            StencilEquation::new("f0", Expr::at("f0", 0, 0, -1).scale(0.4)),
            StencilEquation::new("f1", Expr::center("f0").scale(0.3)),
            // Overwrites f0 without reading it: the dbuf generation is dead.
            StencilEquation::new("f0", Expr::at("f1", 0, 0, 1).scale(0.2)),
        ];
        let p = program((1, 1, 4), &["f0", "f1"], eqs, 2);
        assert_passes(p.clone(), PipelineOptions::default());

        let (internal, stats, kernels) = compile_evidence(&p);
        assert_eq!(internal.len(), 1, "the self-update is renamed");
        assert_eq!(kernels, 3, "no copy-back kernel: fused pair (2) + the overwriting equation");
        assert!(
            stats.dead_writes_elided > 0,
            "the unread double-buffer generation is elided: {stats:?}"
        );
    }

    /// An apply sandwiched between producer and consumer no longer blocks
    /// fusion when it touches neither the producer's inputs nor outputs.
    #[test]
    fn independent_interleaved_apply_no_longer_blocks_fusion() {
        install_quiet_panic_hook();
        let eqs = vec![
            StencilEquation::new("f1", Expr::at("f0", 1, 0, 0).scale(0.4)),
            // Unrelated middle equation over f2 only.
            StencilEquation::new("f2", Expr::at("f2", 0, 0, 1).scale(0.5)),
            StencilEquation::new("f0", Expr::center("f1").scale(0.3)),
        ];
        let p = program((3, 3, 4), &["f0", "f1", "f2"], eqs, 2);
        assert_passes(p.clone(), PipelineOptions::default());

        let (internal, _stats, kernels) = compile_evidence(&p);
        assert!(internal.is_empty(), "no hazard, no renaming");
        assert_eq!(kernels, 3, "pair fused across the middle apply: 2 split kernels + middle");
    }

    /// An interleaved apply that *writes a producer input* is handled by
    /// double-buffering the middle's store: the moved producer keeps
    /// reading the pre-middle generation.
    #[test]
    fn interleaved_writer_of_a_producer_input_is_double_buffered() {
        install_quiet_panic_hook();
        let eqs = vec![
            StencilEquation::new("f0", Expr::at("f1", 0, 0, -1).scale(0.4)),
            // Middle clobbers f1, which the producer reads.
            StencilEquation::new("f1", Expr::at("f1", 0, 0, 1).scale(0.5)),
            StencilEquation::new("f2", Expr::center("f0").scale(0.3)),
        ];
        let p = program((1, 1, 4), &["f0", "f1", "f2"], eqs, 2);
        assert_passes(p.clone(), PipelineOptions::default());

        let (internal, _stats, kernels) = compile_evidence(&p);
        assert_eq!(internal, vec!["f1__dbuf0".to_string()], "the middle's store is renamed");
        // Fused pair (2 kernels) + middle + f1 copy-back (live-out).
        assert_eq!(kernels, 4);
    }

    /// An interleaved apply that *reads the producer's output* needs the
    /// producer's value before the fused position computes it — that
    /// reorder has no double-buffer fix, so the pair stays unfused (and
    /// stays conformant).
    #[test]
    fn interleaved_reader_of_the_producer_output_still_refuses_fusion() {
        install_quiet_panic_hook();
        let eqs = vec![
            StencilEquation::new("f0", Expr::at("f1", 0, 0, -1).scale(0.4)),
            // Middle reads f0's fresh value at a remote offset.
            StencilEquation::new("f1", Expr::at("f0", 1, 0, 0).scale(0.5)),
            StencilEquation::new("f2", Expr::center("f0").scale(0.3)),
        ];
        let p = program((3, 3, 4), &["f0", "f1", "f2"], eqs, 2);
        assert_passes(p.clone(), PipelineOptions::default());

        let (internal, _stats, kernels) = compile_evidence(&p);
        assert!(internal.is_empty(), "no rename can fix a read of the producer's output");
        assert_eq!(kernels, 3, "all three equations stay separate kernels");
    }

    /// Shrunk from generated seed 1782 (found by the biased generator
    /// while this PR was developed): fusing a producer into an
    /// *already-fused* consumer substitutes producer-operand reads into
    /// every consumer combo — so an **earlier consumer result's store**
    /// of a field the producer reads (`f0` here) clobbers the generation
    /// before the later split kernels re-read it.  The non-final consumer
    /// store must be double-buffered too.
    #[test]
    fn earlier_consumer_store_of_a_producer_input_is_double_buffered() {
        install_quiet_panic_hook();
        let eqs = vec![
            StencilEquation::new(
                "f1",
                Expr::center("f1").scale(0.04) + Expr::at("f0", 0, 0, -1).scale(0.9),
            ),
            StencilEquation::new("f0", Expr::center("f1").scale(-0.83) + Expr::c(-0.026)),
            StencilEquation::new("f0", Expr::center("f0").scale(-0.62) + Expr::c(0.018)),
        ];
        let p = program((4, 1, 11), &["f0", "f1"], eqs, 3);
        assert_passes(p.clone(), PipelineOptions::default());
        let (internal, _stats, _kernels) = compile_evidence(&p);
        assert_eq!(internal.len(), 2, "both the self-update and the consumer store are renamed");
    }

    /// Self-updating chains with remote terms: the renamed producer no
    /// longer writes the field it transmits, so the snapshot capture is
    /// elided entirely (cross-PE reads take the neighbor arenas).
    #[test]
    fn double_buffering_unblocks_snapshot_elision_for_self_updates() {
        install_quiet_panic_hook();
        let eqs = vec![
            StencilEquation::new(
                "f0",
                Expr::at("f0", 1, 0, 0).scale(0.3) + Expr::center("f0").scale(0.3),
            ),
            StencilEquation::new("f1", Expr::center("f0").scale(0.4)),
        ];
        let p = program((3, 3, 4), &["f0", "f1"], eqs, 3);
        assert_passes(p.clone(), PipelineOptions::default());

        let (internal, stats, _kernels) = compile_evidence(&p);
        assert_eq!(internal.len(), 1);
        assert!(
            stats.captures_elided > 0,
            "renamed producer no longer writes its transmitted field: {stats:?}"
        );
    }
}

// --------------------------------------------------------------------------
// Nonlinear stencil bodies (decompose-products).  Degree-2 terms are
// split onto `__prod` scratch fields and executed as elementwise Mul
// kernels feeding the linear Mac accumulation; these pin the new path
// end to end.  `assert_passes` (via `run_case`) cross-checks every case
// bitwise across every stream variant — optimized vs unoptimized, vector
// vs scalar kernel sets — and against the reference executor.
// --------------------------------------------------------------------------

mod nonlinear_products {
    use super::{assert_passes, program};
    use testkit::install_quiet_panic_hook;
    use wse_frontends::ast::{Expr, StencilEquation, StencilProgram};
    use wse_lowering::PipelineOptions;
    use wse_sim::{LinkOptions, WseGridSim};
    use wse_stencil::Compiler;

    /// Burgers-style advection–diffusion: an upwind `u·(u - u[x-1])`
    /// product plus a linear diffusion term.
    fn burgers() -> StencilProgram {
        let eq = StencilEquation::new(
            "u",
            Expr::center("u")
                + (Expr::center("u") * (Expr::center("u") - Expr::at("u", -1, 0, 0))).scale(-0.2)
                + (Expr::at("u", 1, 0, 0) - Expr::center("u")).scale(0.05),
        );
        program((4, 4, 6), &["u"], vec![eq], 3)
    }

    /// The Burgers body is conformant through both chunked and
    /// single-chunk exchanges, and with the fmac peephole off (the
    /// spelling where an unguarded fuse would destructively square a
    /// live column through the `@fmuls` fallback).
    #[test]
    fn burgers_advection_is_conformant_across_stream_variants() {
        install_quiet_panic_hook();
        assert_passes(burgers(), PipelineOptions::default());
        assert_passes(burgers(), PipelineOptions { num_chunks: 2, ..PipelineOptions::default() });
        assert_passes(
            burgers(),
            PipelineOptions { enable_fmac_fusion: false, ..PipelineOptions::default() },
        );
    }

    /// Proof the decomposition actually fired (not a silent linear
    /// fallback): the loaded program carries a `__prod` scratch field
    /// excluded from observable state, and the linked stream multiplies
    /// data by data per `LinkedProgram::stats`.
    #[test]
    fn product_decomposition_fires_on_burgers() {
        install_quiet_panic_hook();
        let p = burgers();
        let artifact =
            Compiler::new().verify_each(true).num_chunks(2).compile(&p).expect("compiles");
        let loaded = artifact.loaded_program().clone();
        assert!(
            loaded.internal_fields.iter().any(|f| f.contains("__prod")),
            "scratch product field is internal: {:?}",
            loaded.internal_fields
        );
        let sim = WseGridSim::with_options(
            loaded.clone(),
            LinkOptions { optimize: true, ..LinkOptions::default() },
        )
        .expect("links");
        let stats = sim.linked().stats();
        assert!(stats.product_muls > 0, "linked stream multiplies data by data: {stats:?}");

        // Scratch products are not live-out state.
        let mut sim = WseGridSim::new(loaded).unwrap();
        sim.run(None).unwrap();
        assert_eq!(sim.grid_state().unwrap().names, vec!["u".to_string()]);
    }

    /// A product whose second factor is both remote (x+1) and z-shifted
    /// stages the neighbor's full column before multiplying; the window
    /// clamp must agree with the reference's zero halo.
    #[test]
    fn remote_z_shifted_product_factors_are_conformant() {
        install_quiet_panic_hook();
        let eq = StencilEquation::new(
            "u",
            Expr::center("u").scale(0.6) + (Expr::center("u") * Expr::at("u", 1, 0, -1)).scale(0.3),
        );
        assert_passes(
            program((3, 3, 5), &["u"], vec![eq], 2),
            PipelineOptions { num_chunks: 2, ..PipelineOptions::default() },
        );
        // Single chunk: the done callback reads the receive buffer
        // directly instead of a staged column.
        let eq = StencilEquation::new(
            "u",
            Expr::center("u").scale(0.6) + (Expr::center("u") * Expr::at("u", 1, 0, 1)).scale(0.3),
        );
        assert_passes(
            program((3, 3, 5), &["u"], vec![eq], 2),
            PipelineOptions { num_chunks: 1, ..PipelineOptions::default() },
        );
    }

    /// A product of two distinct fields placed first in the body, so it
    /// seeds the accumulator-init slot rather than a later Mac.
    #[test]
    fn distinct_field_products_in_acc_init_position_are_conformant() {
        install_quiet_panic_hook();
        let eqs = vec![
            StencilEquation::new(
                "u",
                (Expr::center("u") * Expr::center("v")).scale(0.3) + Expr::center("u").scale(0.5),
            ),
            StencilEquation::new("v", Expr::at("v", 0, 1, 0).scale(0.4)),
        ];
        assert_passes(
            program((3, 3, 4), &["u", "v"], eqs, 2),
            PipelineOptions { num_chunks: 2, ..PipelineOptions::default() },
        );
    }
}

/// SIMD engine pins: vector-width tails and tiny views.  `run_case`
/// cross-checks the optimized vector stream bitwise against the scalar
/// kernel set (see `testkit::conformance`), so each
/// case here pins the masked/scalar tail handling of the explicit SIMD
/// kernels: columns shorter than one vector, exact multiples, one-element
/// tails, and chunk sizes that are not a multiple of the 8-lane AVX2
/// width.  Zero-length spans are pinned directly against the kernel
/// tables (no valid grid produces them end to end).
mod simd_tails {
    use super::{assert_passes, program};
    use wse_frontends::ast::{Expr, StencilEquation};
    use wse_lowering::PipelineOptions;

    /// A stencil that exercises slot (neighbor), arena (z-shift), and
    /// center sources in one fused sweep.
    fn star(nz: i64) -> wse_frontends::ast::StencilProgram {
        let mut rhs = Expr::at("f0", 1, 0, 0).scale(0.2)
            + Expr::at("f0", -1, 0, 0).scale(0.2)
            + Expr::at("f0", 0, 1, 0).scale(0.15)
            + Expr::center("f0").scale(0.3);
        if nz > 1 {
            rhs = rhs + Expr::at("f0", 0, 0, 1).scale(0.1);
        }
        let eq = StencilEquation::new("f0", rhs);
        program((4, 3, nz), &["f0"], vec![eq], 2)
    }

    /// Column lengths around the vector width: 1 and 7 run entirely in
    /// the scalar tail, 8 exactly fills one AVX2 vector, 9 leaves a
    /// one-element tail.
    #[test]
    fn tail_lengths_around_the_vector_width_are_bitwise() {
        for nz in [1, 7, 8, 9] {
            assert_passes(star(nz), PipelineOptions::default());
        }
    }

    /// Chunked exchanges whose chunk size is not a multiple of the vector
    /// width: every chunk ends in a masked/scalar tail at a different
    /// offset.
    #[test]
    fn non_multiple_of_eight_chunk_sizes_are_bitwise() {
        assert_passes(star(9), PipelineOptions { num_chunks: 3, ..PipelineOptions::default() });
        assert_passes(star(14), PipelineOptions { num_chunks: 2, ..PipelineOptions::default() });
        assert_passes(star(21), PipelineOptions { num_chunks: 3, ..PipelineOptions::default() });
    }

    /// Zero-length sweeps are no-ops on every kernel set (no grid reaches
    /// this through the pipeline; the planner and kernels must still
    /// tolerate it).
    #[test]
    fn zero_length_sweeps_are_no_ops_on_every_isa() {
        use wse_sim::kernels::{kernel_set, BatchTerm, Isa, MAX_ARITY};
        let mut d = [7.0f32; 4];
        let batch = [BatchTerm::NULL; MAX_ARITY];
        for isa in [Isa::Scalar, Isa::detect()] {
            let set = kernel_set(isa, false);
            // SAFETY: len 0 (and 0 PEs) never dereferences any pointer.
            unsafe {
                set.sweep_row(false, MAX_ARITY)(
                    d.as_mut_ptr(),
                    0,
                    1.0,
                    std::ptr::null(),
                    batch.as_ptr(),
                    1,
                    0,
                );
                set.sweep_row(false, MAX_ARITY)(
                    d.as_mut_ptr(),
                    0,
                    1.0,
                    std::ptr::null(),
                    batch.as_ptr(),
                    2,
                    0,
                );
                set.sweep_row(true, 0)(d.as_mut_ptr(), 3, 0.0, d.as_ptr(), batch.as_ptr(), 0, 1);
            }
        }
        assert_eq!(d, [7.0f32; 4]);
    }
}

/// Hand-built `LoadedProgram`s (a supported entry point: `wse-perf` builds
/// its workloads this way) that the stencil generator cannot produce: the
/// receive callback writes into the receive window, or sweeps overlap at
/// shifted bases.  Two link rewrites used to decide from instruction shape
/// alone and silently miscompiled these with the validator off — the
/// release default.  Every case is pinned three ways: `validate: false`
/// is bitwise equal to the unoptimized stream, the rewrite counter shows
/// the pass declined (or, for the safe twin, still fired), and under
/// `validate: true` the un-mutated optimizer never needs a revert.
mod hand_built_dependences {
    use testkit::conformance::{check_optimizer_transparent, check_validator_shortcuts};
    use wse_sim::loader::{
        BufferDecl, CommSpec, Instr, LoadedKernel, LoadedProgram, SlotSpec, Src, ViewRef,
    };
    use wse_sim::OptStats;

    fn view(buffer: &str, offset: i64, len: i64, dynamic: bool) -> ViewRef {
        ViewRef { buffer: buffer.into(), offset, dynamic, len }
    }

    fn macs(dest: ViewRef, src: ViewRef, coeff: f32) -> Instr {
        Instr::Macs { acc: dest.clone(), dest, src, coeff }
    }

    /// A 2×1 grid of one kernel exchanging field `a` with the +x
    /// neighbour in `num_chunks` chunks of 4.
    fn program(
        buffers: &[(&str, i64)],
        num_chunks: i64,
        pre: Vec<Instr>,
        recv: Vec<Instr>,
        done: Vec<Instr>,
    ) -> LoadedProgram {
        LoadedProgram {
            width: 2,
            height: 1,
            z_dim: 4 * num_chunks,
            z_halo: 0,
            timesteps: 2,
            buffers: buffers
                .iter()
                .map(|&(name, len)| BufferDecl { name: name.into(), len, init: 0.0 })
                .collect(),
            field_buffers: vec!["a".into()],
            internal_fields: Vec::new(),
            kernels: vec![LoadedKernel {
                name: "seq_kernel0".into(),
                pre,
                comm: Some(CommSpec {
                    num_chunks,
                    chunk_size: 4,
                    slots: vec![SlotSpec { field: "a".into(), dx: 1, dy: 0 }],
                    fields: vec!["a".into()],
                    pattern: 1,
                }),
                recv,
                done,
            }],
        }
    }

    /// Asserts the three pins above — and that the validator's witness
    /// grid and composition-first entry report what the full-grid per-unit
    /// check does — and returns the optimizer's report.
    fn assert_transparent(loaded: &LoadedProgram) -> OptStats {
        // Nine PEs wide, so the witness (reach 2: five) is a real crop.
        let wide = LoadedProgram { width: 9, ..loaded.clone() };
        let masked = check_validator_shortcuts(&wide).unwrap_or_else(|e| panic!("{e}"));
        assert!(!masked, "the composition masked a unit the per-unit check reverts");
        check_optimizer_transparent(loaded).unwrap_or_else(|e| panic!("{e}"))
    }

    /// `elide-staging` redirected a read of the receive window to the
    /// neighbour's column although the callback had overwritten the window
    /// first: `a` came out as the neighbour's state instead of 1 + 0.5·7.
    #[test]
    fn staged_window_overwritten_before_its_read_is_not_redirected() {
        let window = || view("recv_buffer", 0, 4, false);
        let acc = || view("acc", 0, 4, false);
        let loaded = program(
            &[("a", 4), ("acc", 4), ("recv_buffer", 4)],
            1,
            vec![Instr::Movs { dest: acc(), src: Src::Scalar(1.0) }],
            vec![Instr::Movs { dest: window(), src: Src::Scalar(7.0) }, macs(acc(), window(), 0.5)],
            vec![Instr::Movs { dest: view("a", 0, 4, false), src: Src::View(acc()) }],
        );
        let stats = assert_transparent(&loaded);
        assert_eq!(stats.slots_elided, 0, "{stats:?}");
    }

    /// `flatten-chunks` merged two chunks although the second sweep reads
    /// `t` one element ahead of where the first writes it: chunk by chunk
    /// `t[4]` is still the previous step's value when chunk 0 reads it,
    /// flattened it is already this step's.
    #[test]
    fn chunk_carried_dependence_blocks_flattening() {
        let shifted_by = |shift| {
            program(
                &[("a", 8), ("t", 9), ("u", 8), ("recv_buffer", 4)],
                2,
                Vec::new(),
                vec![
                    macs(view("t", 0, 4, true), view("a", 0, 4, true), 0.5),
                    macs(view("u", 0, 4, true), view("t", shift, 4, true), 1.0),
                ],
                vec![Instr::Movs {
                    dest: view("a", 0, 8, false),
                    src: Src::View(view("u", 0, 8, false)),
                }],
            )
        };
        assert_eq!(assert_transparent(&shifted_by(1)).chunks_flattened, 0);
        // Same base: every chunk owns its window of `t`, flattening is safe.
        assert_eq!(assert_transparent(&shifted_by(0)).chunks_flattened, 1);
    }

    /// Found by the hand-built-program proptest (`tests/static_analysis.rs`):
    /// liveness walked `recv` once, so `acc` — rewritten by `done` — looked
    /// dead after the copy and `fold-copies` retargeted the sweep, although
    /// the next chunk's sweep reads what this chunk's accumulated.
    #[test]
    fn write_read_again_by_the_next_chunk_is_live() {
        let acc = || view("acc", 0, 4, false);
        let loaded = program(
            &[("a", 8), ("acc", 4), ("t", 8), ("recv_buffer", 4)],
            2,
            Vec::new(),
            vec![
                macs(acc(), view("a", 0, 4, true), 0.5),
                Instr::Movs { dest: view("t", 0, 4, true), src: Src::View(acc()) },
            ],
            vec![
                Instr::Movs { dest: acc(), src: Src::Scalar(0.0) },
                Instr::Movs {
                    dest: view("a", 0, 8, false),
                    src: Src::View(view("t", 0, 8, false)),
                },
            ],
        );
        assert_eq!(assert_transparent(&loaded).copies_folded, 0);
    }
}
