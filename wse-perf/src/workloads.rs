//! The six frozen workloads and every program they run.
//!
//! All programs are defined *here*, as frozen copies built through the
//! real front-ends, so the benchmark's inputs do not shift when
//! `wse_frontends::benchmarks` or `testkit::generate` change.  The
//! coefficients are chosen so every state stays finite and normal over the
//! sampled step counts (the harness checks this): `benchmarks::seismic_25pt`
//! as shipped amplifies ~2.2x per step and is all-NaN by step 128, so it is
//! not timed; [`Source::Star25`] is an eighth-order heat step of the same
//! 25-point shape instead.
//!
//! The seed changes only what must not matter for the work done: the
//! coefficient values of the generated programs, the order of the service
//! requests, and the fault schedule.  The *structure* of every program
//! (shape, radius, fields, equations) is fixed, so metrics compare across
//! seeds.

use wse_frontends::ast::{Expr, Frontend, GridSpec, StencilEquation, StencilProgram};
use wse_frontends::devito::{Eq, Function, Grid, Operator};
use wse_frontends::fortran::parse_fortran;
use wse_frontends::psyclone::{Algorithm, Kernel};
use wse_lowering::WseTarget;
use wse_sim::loader::{BufferDecl, Instr, LoadedKernel, Src, ViewRef};
use wse_sim::{LinkOptions, LoadedProgram, RecoveryOptions, WseGridSim};
use wse_stencil::Compiler;

/// The benchmark's own splitmix64, so seeded inputs never depend on an
/// RNG elsewhere in the tree.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Where a program's source comes from; each variant goes through the
/// front-end the paper used for it.
#[derive(Debug, Clone)]
pub enum Source {
    /// Fortran 6-point Jacobian (Flang front-end).
    Jacobian,
    /// Devito 13-point heat diffusion.
    Diffusion,
    /// Devito 13-point acoustic wave, two fields.
    Acoustic,
    /// Radius-4 25-point star (the Jacquelin et al. shape), written against
    /// the stencil dialect: `p + 0.05 * L8(p)` with the eighth-order
    /// Laplacian weights, stable for any step count.
    Star25,
    /// PSyclone UVKBE: four fields, two applies.
    Uvkbe,
    /// A generated program (see [`generated_specs`]).
    Generated(GenSpec),
}

/// Which front-end a generated program is rendered through.
#[derive(Debug, Clone, Copy)]
pub enum Via {
    Fortran,
    Devito,
    Psyclone,
}

/// One linear term `coeff * field(offset)`.
#[derive(Debug, Clone)]
pub struct GenTerm {
    pub field: usize,
    pub offset: [i64; 3],
    pub coeff: f32,
}

#[derive(Debug, Clone)]
pub struct GenEquation {
    pub output: usize,
    pub terms: Vec<GenTerm>,
    /// Optional degree-2 term `coeff * center(a) * b(offset)`.
    pub product: Option<(usize, usize, [i64; 3], f32)>,
}

#[derive(Debug, Clone)]
pub struct GenSpec {
    pub via: Via,
    pub fields: usize,
    pub equations: Vec<GenEquation>,
}

/// One program instance of a workload: its source, the grid the workload
/// runs it at, and how it is compiled.
#[derive(Debug, Clone)]
pub struct Case {
    pub name: String,
    pub source: Source,
    pub grid: GridSpec,
    pub timesteps: i64,
    pub target: WseTarget,
    pub chunks: i64,
}

impl Case {
    fn new(name: &str, source: Source, grid: (i64, i64, i64), timesteps: i64) -> Self {
        Case {
            name: name.to_string(),
            source,
            grid: GridSpec::new(grid.0, grid.1, grid.2),
            timesteps,
            target: WseTarget::Wse3,
            chunks: 2,
        }
    }

    /// Source text / DSL -> front-end -> [`StencilProgram`] at the
    /// workload's grid.
    pub fn build(&self) -> StencilProgram {
        self.build_at(self.grid, self.timesteps)
    }

    /// The same program on another grid (the static gate checks big
    /// programs on a small grid: the validator's cost is per grid point).
    pub fn build_at(&self, grid: GridSpec, timesteps: i64) -> StencilProgram {
        let (x, y, z) = (grid.x, grid.y, grid.z);
        match &self.source {
            Source::Jacobian => jacobian(x, y, z, timesteps),
            Source::Diffusion => diffusion(x, y, z, timesteps),
            Source::Acoustic => acoustic(x, y, z, timesteps),
            Source::Star25 => star25(x, y, z, timesteps),
            Source::Uvkbe => uvkbe(x, y, z, timesteps),
            Source::Generated(spec) => render(&self.name, spec, grid, timesteps),
        }
    }

    /// The grid the static gate checks this program on.
    pub fn gate_grid(&self) -> GridSpec {
        GridSpec::new(self.grid.x.min(16), self.grid.y.min(16), self.grid.z.min(32))
    }

    pub fn compiler(&self) -> Compiler {
        Compiler::new().target(self.target).num_chunks(self.chunks)
    }
}

fn jacobian(x: i64, y: i64, z: i64, timesteps: i64) -> StencilProgram {
    let source = format!(
        r"real :: a({z}, {y}, {x})
do step = 1, {timesteps}
  do i = 1, {x}
    do j = 1, {y}
      do k = 1, {z}
        a(k,j,i) = (a(k,j,i+1) + a(k,j,i-1) + a(k,j+1,i) + a(k,j-1,i) + a(k+1,j,i) + a(k-1,j,i)) * 0.16666
      enddo
    enddo
  enddo
enddo
"
    );
    parse_fortran("jacobian", &source).expect("frozen jacobian source parses")
}

fn diffusion(x: i64, y: i64, z: i64, timesteps: i64) -> StencilProgram {
    let u = Function::new("u", 4);
    let update = u.center() + u.laplace().scale(0.01);
    Operator::new(Grid::new(x, y, z), vec![u.clone()])
        .equation(Eq::new(&u, update))
        .timesteps(timesteps)
        .build("diffusion")
        .expect("frozen diffusion program is valid")
}

fn acoustic(x: i64, y: i64, z: i64, timesteps: i64) -> StencilProgram {
    let u = Function::new("u", 4);
    let u_prev = Function::new("u_prev", 4);
    let update = u.center() + u.center() - u_prev.center() + u.laplace().scale(0.0625);
    Operator::new(Grid::new(x, y, z), vec![u.clone(), u_prev.clone()])
        .equation(Eq::new(&u_prev, u.center()))
        .equation(Eq::new(&u, update))
        .timesteps(timesteps)
        .build("acoustic")
        .expect("frozen acoustic program is valid")
}

fn ring(field: &str, r: i64) -> Expr {
    Expr::sum(
        [(r, 0, 0), (-r, 0, 0), (0, r, 0), (0, -r, 0), (0, 0, r), (0, 0, -r)]
            .into_iter()
            .map(|(dx, dy, dz)| Expr::at(field, dx, dy, dz)),
    )
}

fn star25(x: i64, y: i64, z: i64, timesteps: i64) -> StencilProgram {
    // p + alpha * L8(p), alpha = 0.05, with the eighth-order second-
    // derivative weights (-205/72, 8/5, -1/5, 8/315, -1/560) per axis: the
    // symbol of L8 lies in [-19.6, 0], so the gain stays in (0, 1].
    const ALPHA: f32 = 0.05;
    let rings = [8.0 / 5.0, -1.0 / 5.0, 8.0 / 315.0, -1.0 / 560.0];
    let mut terms = vec![Expr::center("p").scale(1.0 - ALPHA * 3.0 * 205.0 / 72.0)];
    for (i, w) in rings.iter().enumerate() {
        terms.push(ring("p", i as i64 + 1).scale(ALPHA * w));
    }
    let program = StencilProgram {
        name: "star25".into(),
        frontend: Frontend::Csl,
        grid: GridSpec::new(x, y, z),
        fields: vec!["p".into()],
        equations: vec![StencilEquation::new("p", Expr::sum(terms))],
        timesteps,
        source: "# star25: p + 0.05 * L8(p), radius-4 star (Jacquelin et al. shape)\n\
                 update = p + 0.05 * sum(w[r] * ring(p, r) for r in range(0, 5))\n"
            .into(),
    };
    program.validate().expect("frozen star25 program is valid");
    program
}

fn star1(field: &str) -> Expr {
    Expr::center(field) + ring(field, 1)
}

fn uvkbe(x: i64, y: i64, z: i64, timesteps: i64) -> StencilProgram {
    Algorithm::new("uvkbe")
        .grid(x, y, z)
        .field("unew")
        .field("vnew")
        .field("uvel")
        .field("vvel")
        .invoke(Kernel::new(
            "compute_unew",
            "unew",
            star1("uvel").scale(0.25) + Expr::center("vvel").scale(0.5),
        ))
        .invoke(Kernel::new(
            "compute_vnew",
            "vnew",
            Expr::center("unew").scale(0.3)
                + star1("vvel").scale(0.125)
                + Expr::center("vnew").scale(0.1),
        ))
        .timesteps(timesteps)
        .build()
        .expect("frozen uvkbe program is valid")
}

/// The 28 generated programs of `program_mix`.  Structure is a fixed
/// enumeration (star radius 1-4 / box radius 1-2, 1-3 fields, 1-2 equations, every
/// fourth with a degree-2 product, front-ends in rotation); the seed draws
/// only the coefficient values, normalised so each equation is a
/// contraction (sum of |coeff| below one) and values stay bounded.
pub fn generated_specs(seed: u64) -> Vec<GenSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x6d69_785f_7072_6f67);
    (0..28usize)
        .map(|i| {
            let boxed = i % 2 == 1;
            // A radius-4 box has 80 in-plane neighbours and its validated
            // link alone costs 150 ms on an 8x8 grid, so boxes stop at 2.
            let radius = 1 + (i / 2) as i64 % 4;
            let radius = if boxed { (radius + 1) / 2 } else { radius };
            let fields = 1 + (i / 8) % 3;
            let n_eq = 1 + (i / 4) % 2;
            let via = [Via::Fortran, Via::Devito, Via::Psyclone][i % 3];
            let equations = (0..n_eq)
                .map(|e| {
                    let mut offsets = vec![[0, 0, 0]];
                    if boxed {
                        for dx in -radius..=radius {
                            for dy in -radius..=radius {
                                if (dx, dy) != (0, 0) {
                                    offsets.push([dx, dy, 0]);
                                }
                            }
                        }
                        offsets.extend([[0, 0, 1], [0, 0, -1]]);
                    } else {
                        for r in 1..=radius {
                            offsets.extend([
                                [r, 0, 0],
                                [-r, 0, 0],
                                [0, r, 0],
                                [0, -r, 0],
                                [0, 0, r],
                                [0, 0, -r],
                            ]);
                        }
                    }
                    let mut terms: Vec<GenTerm> = offsets
                        .iter()
                        .enumerate()
                        .map(|(t, &offset)| GenTerm {
                            field: (e + t) % fields,
                            offset,
                            coeff: (rng.unit() * 2.0 - 1.0) as f32,
                        })
                        .collect();
                    // The Fortran subset has no unary minus: lead with a
                    // positive coefficient.
                    terms[0].coeff = terms[0].coeff.abs().max(0.05);
                    let total: f32 = terms.iter().map(|t| t.coeff.abs()).sum();
                    for t in &mut terms {
                        t.coeff /= total * 1.05;
                    }
                    let product = (i % 4 == 3 && e == 0).then(|| {
                        let coeff = (rng.unit() * 0.6 - 0.3) as f32;
                        (0, (fields - 1).min(1), [0, 0, -1], coeff)
                    });
                    GenEquation { output: e % fields, terms, product }
                })
                .collect();
            GenSpec { via, fields, equations }
        })
        .collect()
}

fn field_name(i: usize) -> String {
    format!("f{i}")
}

fn render_expr(eq: &GenEquation) -> Expr {
    let mut terms: Vec<Expr> = eq
        .terms
        .iter()
        .map(|t| {
            Expr::at(&field_name(t.field), t.offset[0], t.offset[1], t.offset[2]).scale(t.coeff)
        })
        .collect();
    if let Some((a, b, o, coeff)) = &eq.product {
        let product = Expr::center(&field_name(*a)) * Expr::at(&field_name(*b), o[0], o[1], o[2]);
        terms.push(product.scale(*coeff));
    }
    Expr::sum(terms)
}

fn render_fortran_index(var: &str, d: i64) -> String {
    match d {
        0 => var.to_string(),
        d if d > 0 => format!("{var}+{d}"),
        d => format!("{var}-{}", -d),
    }
}

fn render_fortran_ref(field: usize, o: [i64; 3]) -> String {
    format!(
        "{}({},{},{})",
        field_name(field),
        render_fortran_index("k", o[2]),
        render_fortran_index("j", o[1]),
        render_fortran_index("i", o[0])
    )
}

fn render_fortran(spec: &GenSpec, grid: GridSpec, timesteps: i64) -> String {
    let (x, y, z) = (grid.x, grid.y, grid.z);
    let decls: Vec<String> =
        (0..spec.fields).map(|f| format!("{}({z}, {y}, {x})", field_name(f))).collect();
    let mut src = format!("real :: {}\ndo step = 1, {timesteps}\n", decls.join(", "));
    src.push_str(&format!("  do i = 1, {x}\n    do j = 1, {y}\n      do k = 1, {z}\n"));
    for eq in &spec.equations {
        let mut rhs = String::new();
        for (n, t) in eq.terms.iter().enumerate() {
            let sign = if t.coeff < 0.0 {
                " - "
            } else if n > 0 {
                " + "
            } else {
                ""
            };
            rhs.push_str(&format!(
                "{sign}{} * {}",
                render_fortran_ref(t.field, t.offset),
                t.coeff.abs()
            ));
        }
        if let Some((a, b, o, coeff)) = &eq.product {
            rhs.push_str(&format!(
                " {} {} * {} * {}",
                if *coeff < 0.0 { '-' } else { '+' },
                render_fortran_ref(*a, [0, 0, 0]),
                render_fortran_ref(*b, *o),
                coeff.abs()
            ));
        }
        src.push_str(&format!("        {} = {rhs}\n", render_fortran_ref(eq.output, [0, 0, 0])));
    }
    src.push_str("      enddo\n    enddo\n  enddo\nenddo\n");
    src
}

fn render(name: &str, spec: &GenSpec, grid: GridSpec, timesteps: i64) -> StencilProgram {
    match spec.via {
        Via::Fortran => parse_fortran(name, &render_fortran(spec, grid, timesteps))
            .expect("generated Fortran parses"),
        Via::Devito => {
            let functions: Vec<Function> =
                (0..spec.fields).map(|f| Function::new(&field_name(f), 2)).collect();
            let mut op = Operator::new(Grid::new(grid.x, grid.y, grid.z), functions.clone());
            for eq in &spec.equations {
                op = op.equation(Eq::new(&functions[eq.output], render_expr(eq)));
            }
            op.timesteps(timesteps).build(name).expect("generated Devito operator is valid")
        }
        Via::Psyclone => {
            let mut algorithm = Algorithm::new(name).grid(grid.x, grid.y, grid.z);
            for f in 0..spec.fields {
                algorithm = algorithm.field(&field_name(f));
            }
            for (n, eq) in spec.equations.iter().enumerate() {
                algorithm = algorithm.invoke(Kernel::new(
                    &format!("kernel{n}"),
                    &field_name(eq.output),
                    render_expr(eq),
                ));
            }
            algorithm.timesteps(timesteps).build().expect("generated PSyclone algorithm is valid")
        }
    }
}

/// A hand-built loaded program whose `Macs` reads one element *behind* its
/// own destination window: safe under the generic scratch path, wrong under
/// an in-place fused sweep.  No compiled program trips
/// `LinkMutation::DropAliasingCheck`, so this is the static gate's known-bad
/// input: with the check mutated away the validator must reject the link.
pub fn aliasing_witness() -> LoadedProgram {
    let view =
        |buffer: &str, offset| ViewRef { buffer: buffer.into(), offset, dynamic: false, len: 4 };
    LoadedProgram {
        width: 2,
        height: 2,
        z_dim: 4,
        z_halo: 1,
        timesteps: 1,
        buffers: vec![
            BufferDecl { name: "a".into(), len: 6, init: 0.0 },
            BufferDecl { name: "acc".into(), len: 6, init: 1.5 },
        ],
        field_buffers: vec!["a".into()],
        internal_fields: Vec::new(),
        kernels: vec![LoadedKernel {
            name: "seq_kernel0".into(),
            pre: vec![
                Instr::Movs { dest: view("acc", 1), src: Src::Scalar(0.0) },
                Instr::Macs {
                    dest: view("acc", 1),
                    acc: view("acc", 1),
                    src: view("acc", 0),
                    coeff: 2.0,
                },
                Instr::Movs { dest: view("a", 1), src: Src::View(view("acc", 1)) },
            ],
            comm: None,
            recv: Vec::new(),
            done: Vec::new(),
        }],
    }
}

/// The five paper programs at the tiny grids the functional simulator is
/// meant for, in the order of the paper's figures.
fn paper_tiny() -> [Case; 5] {
    [
        Case::new("jacobian", Source::Jacobian, (6, 6, 12), 3),
        Case::new("diffusion", Source::Diffusion, (7, 7, 12), 2),
        Case::new("star25", Source::Star25, (10, 10, 16), 2),
        Case::new("uvkbe", Source::Uvkbe, (6, 6, 10), 1),
        Case::new("acoustic", Source::Acoustic, (7, 7, 12), 2),
    ]
}

/// The five paper programs at paper scale (750x994 PEs, the paper's z
/// extents and iteration counts), for `estimate()` only.
pub fn paper_scale() -> [Case; 5] {
    [
        Case::new("jacobian", Source::Jacobian, (750, 994, 900), 100_000),
        Case::new("diffusion", Source::Diffusion, (750, 994, 704), 512),
        Case::new("seismic25", Source::Star25, (750, 994, 450), 100_000),
        Case::new("uvkbe", Source::Uvkbe, (750, 994, 600), 1),
        Case::new("acoustic", Source::Acoustic, (750, 994, 604), 512),
    ]
}

/// Recovery posture of `recovery_faults`.
pub const RECOVERY: RecoveryOptions =
    RecoveryOptions { checkpoint_every: 64, verify: true, max_rollbacks: 64, watchdog_ms: 25 };

/// How an engine is configured and driven: a workload's own way for the
/// end-to-end run, one field changed for each variant of the traced run.
#[derive(Debug, Clone, Copy)]
pub struct Engine {
    /// Steps per timed sample (each sample starts from a restored step-0
    /// checkpoint, so all samples compute identical values); 0 = each
    /// program's own timestep count.
    pub steps: i64,
    /// `Some(n)` forces `n` row bands; `None` leaves the engine's automatic
    /// choice, which is what users get.
    pub threads: Option<usize>,
    pub options: LinkOptions,
    pub recovery: Option<RecoveryOptions>,
    /// Draw a seeded fault for every sample.
    pub faults: bool,
}

impl Engine {
    /// Default link options, no recovery, no faults.
    fn plain(steps: i64, threads: Option<usize>) -> Engine {
        Engine { steps, threads, options: LinkOptions::default(), recovery: None, faults: false }
    }

    pub fn construct(&self, loaded: &LoadedProgram) -> WseGridSim {
        let mut sim =
            WseGridSim::with_options(loaded.clone(), self.options).expect("program links");
        if let Some(threads) = self.threads {
            sim.set_threads(threads);
        }
        if let Some(recovery) = self.recovery {
            sim.enable_recovery(recovery);
        }
        sim
    }
}

/// Shares of `--seconds` given to each timed phase (they sum to one).
#[derive(Debug, Clone, Copy)]
pub struct Shares {
    pub setup: f64,
    pub compile: f64,
    pub service: f64,
    pub validated: f64,
    pub gate: f64,
    pub sim: f64,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub cases: Vec<Case>,
    pub engine: Engine,
    pub shares: Shares,
}

/// A simulation workload spends most of its time in `run()`.
const SIM_SHARES: Shares =
    Shares { setup: 0.07, compile: 0.05, service: 0.05, validated: 0.10, gate: 0.08, sim: 0.65 };

/// Builds the named workload.  `smoke` shrinks every grid so the whole
/// harness runs in about a second.
pub fn workload(name: &str, seed: u64, smoke: bool) -> Option<Workload> {
    let pinned = |steps| Engine::plain(steps, Some(1));
    let grid = |full: (i64, i64, i64), tiny: (i64, i64, i64)| if smoke { tiny } else { full };
    let w = match name {
        "steady_jacobian" => Workload {
            name: "steady_jacobian",
            cases: vec![Case::new("jacobian", Source::Jacobian, grid((48, 48, 96), (8, 8, 16)), 8)],
            engine: pinned(if smoke { 16 } else { 512 }),
            shares: SIM_SHARES,
        },
        "halo_star25" => Workload {
            name: "halo_star25",
            cases: vec![Case::new("star25", Source::Star25, grid((32, 32, 64), (10, 10, 16)), 8)],
            engine: pinned(if smoke { 16 } else { 512 }),
            shares: SIM_SHARES,
        },
        "large_grid" => Workload {
            name: "large_grid",
            cases: vec![Case::new(
                "jacobian",
                Source::Jacobian,
                grid((128, 128, 128), (12, 12, 16)),
                8,
            )],
            engine: Engine::plain(if smoke { 8 } else { 32 }, None),
            // Its validated path (67 MB of fresh arenas, pool spawn) is the
            // noisiest series of the suite, so it gets more samples.
            shares: Shares { validated: 0.18, sim: 0.57, ..SIM_SHARES },
        },
        "recovery_faults" => Workload {
            name: "recovery_faults",
            cases: vec![Case::new("jacobian", Source::Jacobian, grid((48, 48, 96), (8, 8, 16)), 8)],
            engine: Engine {
                recovery: Some(RECOVERY),
                faults: true,
                ..pinned(if smoke { 64 } else { 256 })
            },
            shares: SIM_SHARES,
        },
        "program_mix" => {
            let mut cases = Vec::new();
            for paper in paper_tiny() {
                for target in [WseTarget::Wse2, WseTarget::Wse3] {
                    for chunks in [1, 2] {
                        let name = format!("{}_{}_c{chunks}", paper.name, target.name());
                        cases.push(Case { name, target, chunks, ..paper.clone() });
                    }
                }
            }
            for (i, spec) in generated_specs(seed).into_iter().enumerate() {
                let side = 6 + i as i64 % 3;
                let mut case = Case::new(
                    &format!("gen{i:02}"),
                    Source::Generated(spec),
                    (side, side, 8 + 4 * (i as i64 % 2)),
                    1 + i as i64 % 3,
                );
                case.target = if i % 2 == 0 { WseTarget::Wse3 } else { WseTarget::Wse2 };
                case.chunks = 1 + (i as i64 / 2) % 2;
                cases.push(case);
            }
            Workload {
                name: "program_mix",
                cases,
                engine: Engine::plain(0, None),
                shares: Shares {
                    setup: 0.07,
                    compile: 0.25,
                    service: 0.20,
                    validated: 0.26,
                    gate: 0.15,
                    sim: 0.07,
                },
            }
        }
        "static_gate" => Workload {
            name: "static_gate",
            cases: paper_tiny()
                .into_iter()
                .map(|case| Case {
                    grid: if smoke { case.grid } else { GridSpec::new(16, 16, 32) },
                    timesteps: 3,
                    ..case
                })
                .collect(),
            engine: Engine::plain(0, None),
            shares: Shares {
                setup: 0.05,
                compile: 0.05,
                service: 0.05,
                validated: 0.12,
                gate: 0.65,
                sim: 0.08,
            },
        },
        _ => return None,
    };
    Some(w)
}
