//! Seeded random stencil-workload generator.
//!
//! [`generate_case`] turns a seed into a [`ConformanceCase`]: a valid
//! [`StencilProgram`] (arbitrary grid extents, star/box stencil shapes,
//! asymmetric offsets, coupled multi-equation systems, optional additive
//! constants) plus a randomized compiler configuration (chunk counts,
//! optimization toggles, WSE2/WSE3 target).  The paper's five benchmarks
//! only exercise a thin slice of the lowering surface; the generator's
//! job is to cover the rest of it.
//!
//! Programs are contractive by construction: each equation's coefficients
//! are normalized so their absolute sum stays below one.  Iterating a
//! contraction keeps field values bounded, which keeps the differential
//! tolerance meaningful (a program whose values blow up to 1e6 would hide
//! real bugs inside float round-off).

use wse_frontends::ast::{Expr, Frontend, GridSpec, StencilEquation, StencilProgram};
use wse_lowering::{PipelineOptions, WseTarget};

use crate::rng::Rng;

/// Bounds on the generated workload space.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Maximum PE-grid extent per horizontal dimension.
    pub max_grid_xy: i64,
    /// Maximum PE-local column length.
    pub max_grid_z: i64,
    /// Maximum number of fields.
    pub max_fields: usize,
    /// Maximum number of equations per timestep.
    pub max_equations: usize,
    /// Maximum stencil radius in x/y (clamped below the grid extent).
    pub max_radius_xy: i64,
    /// Maximum stencil radius in z (clamped below the column length).
    pub max_radius_z: i64,
    /// Maximum number of timesteps.
    pub max_timesteps: i64,
    /// Per-equation probability of a degree-2 product term (the shapes
    /// `decompose-products` lowers).  The CI nonlinear profile raises
    /// this so most cases exercise the decomposition.
    pub nonlinear_bias: f64,
    /// Probability of a long-horizon case (≥ 32 timesteps instead of the
    /// usual 1–`max_timesteps`).  Zero by default: the fault-injection
    /// profile raises this so checkpoints, rollbacks and replay have
    /// enough steps to land in.  When zero, the draw is skipped entirely
    /// so existing seed streams are unchanged.
    pub fault_bias: f64,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        Self {
            max_grid_xy: 7,
            max_grid_z: 16,
            max_fields: 3,
            max_equations: 3,
            max_radius_xy: 3,
            max_radius_z: 3,
            max_timesteps: 3,
            nonlinear_bias: 0.12,
            fault_bias: 0.0,
        }
    }
}

impl GeneratorConfig {
    /// The wider workload space of the conformance bin's `--stress`:
    /// larger grids and radii, more coupled equations, longer runs.
    pub fn stress() -> Self {
        Self {
            max_grid_xy: 11,
            max_grid_z: 24,
            max_fields: 4,
            max_equations: 4,
            max_radius_xy: 4,
            max_radius_z: 4,
            max_timesteps: 4,
            ..Self::default()
        }
    }
}

/// One generated conformance case: the program and how to compile it.
#[derive(Debug, Clone)]
pub struct ConformanceCase {
    /// Seed the case was generated from (0 for hand-built cases).
    pub seed: u64,
    /// The generated program.
    pub program: StencilProgram,
    /// The compiler configuration to push it through.
    pub options: PipelineOptions,
}

/// The coefficient structure of one generated equation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Shape {
    /// Offsets only along the axes (like all five paper benchmarks).
    Star,
    /// Any offset in the `[-r, r]` cube, including diagonals.
    Box,
}

/// A seed produced a program that fails [`StencilProgram::validate`].
///
/// The sweep driver records this as a failure of *that seed* and keeps
/// going; a generator bug must not abort a whole conformance run (and
/// the shrinker must still get to run on any genuinely failing cases the
/// rest of the sweep finds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenerateError {
    /// The seed whose program failed validation.
    pub seed: u64,
    /// The validation error.
    pub message: String,
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "seed {} generated an invalid program: {}", self.seed, self.message)
    }
}

impl std::error::Error for GenerateError {}

/// Generates the conformance case for `seed` under the default bounds.
pub fn generate_case(seed: u64) -> ConformanceCase {
    generate_case_with(seed, &GeneratorConfig::default())
}

/// Fallible form of [`generate_case`].
pub fn try_generate_case(seed: u64) -> Result<ConformanceCase, GenerateError> {
    try_generate_case_with(seed, &GeneratorConfig::default())
}

/// True when the program contains the shape dependence-aware inlining
/// re-enables: an equation reading its own output field (a self-updating
/// producer), followed by a later equation whose accesses to that field
/// are all at the centre — the forwarded, fusable consumer.
pub fn has_self_updating_chain(program: &StencilProgram) -> bool {
    program.equations.iter().enumerate().any(|(i, eq)| {
        eq.expr.accesses().iter().any(|(f, _)| f == &eq.output)
            && program.equations[i + 1..].iter().any(|later| {
                let reads: Vec<[i64; 3]> = later
                    .expr
                    .accesses()
                    .iter()
                    .filter(|(f, _)| f == &eq.output)
                    .map(|(_, o)| *o)
                    .collect();
                !reads.is_empty() && reads.iter().all(|o| *o == [0, 0, 0])
            })
    })
}

/// True when any equation contains a data×data product — a `Mul` whose
/// operands are both non-constant, i.e. the nonlinear shape the
/// `decompose-products` pass lowers into scratch-field Mul kernels.
pub fn has_product_term(program: &StencilProgram) -> bool {
    fn is_data(e: &Expr) -> bool {
        !matches!(e, Expr::Const(_))
    }
    fn walk(e: &Expr) -> bool {
        match e {
            Expr::Mul(a, b) => (is_data(a) && is_data(b)) || walk(a) || walk(b),
            Expr::Add(a, b) | Expr::Sub(a, b) => walk(a) || walk(b),
            Expr::Const(_) | Expr::Access { .. } => false,
        }
    }
    program.equations.iter().any(|eq| walk(&eq.expr))
}

/// Generates the conformance case for `seed` under explicit bounds,
/// panicking if the seed produces an invalid program.  Sweeps over many
/// seeds should prefer [`try_generate_case_with`], which reports the bad
/// seed instead of aborting the whole run.
pub fn generate_case_with(seed: u64, config: &GeneratorConfig) -> ConformanceCase {
    try_generate_case_with(seed, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Generates the conformance case for `seed` under explicit bounds.
pub fn try_generate_case_with(
    seed: u64,
    config: &GeneratorConfig,
) -> Result<ConformanceCase, GenerateError> {
    let mut rng = Rng::new(seed);

    // Grid: occasionally degenerate (extent 1) to exercise local-only
    // paths, otherwise large enough for remote offsets.
    let nx = if rng.chance(0.08) { 1 } else { rng.int_in(2, config.max_grid_xy) };
    let ny = if rng.chance(0.08) { 1 } else { rng.int_in(2, config.max_grid_xy) };
    let nz = rng.int_in(4, config.max_grid_z);
    // Long-horizon draw first checks the bias so that `fault_bias: 0.0`
    // (the default) consumes no randomness and leaves every pre-existing
    // seed stream bit-identical.
    let timesteps = if config.fault_bias > 0.0 && rng.chance(config.fault_bias) {
        rng.int_in(32, 40)
    } else {
        rng.int_in(1, config.max_timesteps)
    };

    let num_fields = rng.int_in(1, config.max_fields as i64) as usize;
    let fields: Vec<String> = (0..num_fields).map(|i| format!("f{i}")).collect();
    let num_equations = rng.int_in(1, config.max_equations as i64) as usize;

    let mut equations = Vec::with_capacity(num_equations);
    for _ in 0..num_equations {
        let output = rng.pick(&fields).clone();
        equations.push(generate_equation(&mut rng, config, &fields, &output, nx, ny, nz));
    }

    // Bias toward the shapes dependence-aware inlining re-enables: a
    // self-updating producer whose output a later equation reads at the
    // centre only (the forwarded, fusable consumer), optionally with an
    // unrelated or clobbering apply sandwiched between the pair.  Uniform
    // term/output sampling reaches these shapes too rarely to keep the
    // double-buffer renaming paths under continuous differential test.
    if rng.chance(0.35) {
        equations.splice(0..0, generate_chain(&mut rng, &fields, nz));
    }

    let program = StencilProgram {
        name: format!("gen_{seed}"),
        frontend: Frontend::Csl,
        grid: GridSpec::new(nx, ny, nz),
        fields,
        equations,
        timesteps,
        source: format!("# generated stencil workload, seed {seed}"),
    };
    if let Err(message) = program.validate() {
        return Err(GenerateError { seed, message });
    }

    let options = PipelineOptions {
        target: if rng.chance(0.5) { WseTarget::Wse2 } else { WseTarget::Wse3 },
        width: None,
        height: None,
        // Indivisible chunk counts are deliberately allowed: the pipeline
        // must fall back to a single chunk, and the harness must agree
        // with the reference either way.
        num_chunks: rng.int_in(1, 4),
        enable_inlining: rng.chance(0.75),
        enable_varith: rng.chance(0.75),
        enable_fmac_fusion: rng.chance(0.75),
        promote_coefficients: rng.chance(0.75),
        verify_each: true,
    };

    Ok(ConformanceCase { seed, program, options })
}

/// Generates a self-updating producer → (optional sandwich) → centre-only
/// consumer chain.  Each equation is contractive on its own (coefficient
/// magnitudes sum below one).
fn generate_chain(rng: &mut Rng, fields: &[String], nz: i64) -> Vec<StencilEquation> {
    let producer_field = rng.pick(fields).clone();
    let consumer_field = rng.pick(fields).clone();
    let other = fields.iter().find(|f| **f != producer_field).cloned();
    let dz = if nz > 1 && rng.chance(0.6) { -1 } else { 0 };
    // Producer reads its own output (the self-update hazard), plus —
    // when a second field exists — an input the sandwich may clobber.
    let mut producer_terms = vec![
        Expr::at(&producer_field, 0, 0, dz).scale(rng.float_in(-0.3, 0.3)),
        Expr::center(&producer_field).scale(rng.float_in(-0.3, 0.3)),
    ];
    if let Some(other) = &other {
        if rng.chance(0.6) {
            producer_terms.push(Expr::center(other).scale(rng.float_in(-0.3, 0.3)));
        }
    }
    let producer = StencilEquation::new(&producer_field, Expr::sum(producer_terms));
    // Optional sandwich between producer and consumer: an equation over
    // the second field.  Writing it clobbers a producer input (the
    // rename-the-middle path); occasionally reading the producer's output
    // instead produces the unfusable shape, which must also stay refused
    // and conformant.
    let middle = other.filter(|_| rng.chance(0.5)).map(|other| {
        let read = if rng.chance(0.8) { other.clone() } else { producer_field.clone() };
        StencilEquation::new(
            &other,
            Expr::at(&read, 0, 0, 0).scale(rng.float_in(-0.45, 0.45))
                + Expr::c(rng.float_in(-0.05, 0.05)),
        )
    });
    // Consumer reads the producer's output at the centre only, so the
    // emitter forwards the producer's result and the pair is fusable.
    let mut consumer_terms = vec![Expr::center(&producer_field).scale(rng.float_in(-0.45, 0.45))];
    if consumer_field != producer_field && rng.chance(0.5) {
        consumer_terms.push(Expr::at(&consumer_field, 0, 0, 0).scale(rng.float_in(-0.4, 0.4)));
    }
    let consumer = StencilEquation::new(&consumer_field, Expr::sum(consumer_terms));
    let mut chain = vec![producer];
    chain.extend(middle);
    chain.push(consumer);
    chain
}

/// Generates one contractive linear-combination equation.
fn generate_equation(
    rng: &mut Rng,
    config: &GeneratorConfig,
    fields: &[String],
    output: &str,
    nx: i64,
    ny: i64,
    nz: i64,
) -> StencilEquation {
    let r_xy = config.max_radius_xy.min(nx - 1).min(ny - 1).max(0);
    let r_z = config.max_radius_z.min(nz - 1).max(0);
    let radius_xy = if r_xy > 0 { rng.int_in(0, r_xy) } else { 0 };
    let radius_z = if r_z > 0 { rng.int_in(0, r_z) } else { 0 };
    let shape = if rng.chance(0.35) { Shape::Box } else { Shape::Star };

    // Candidate offsets for the shape; each is kept with some probability
    // so the stencil can be sparse and asymmetric.
    let mut offsets: Vec<[i64; 3]> = Vec::new();
    match shape {
        Shape::Star => {
            for r in 1..=radius_xy {
                offsets.extend([[r, 0, 0], [-r, 0, 0], [0, r, 0], [0, -r, 0]]);
            }
            for r in 1..=radius_z {
                offsets.extend([[0, 0, r], [0, 0, -r]]);
            }
        }
        Shape::Box => {
            for dx in -radius_xy..=radius_xy {
                for dy in -radius_xy..=radius_xy {
                    for dz in -radius_z..=radius_z {
                        if (dx, dy, dz) != (0, 0, 0) {
                            offsets.push([dx, dy, dz]);
                        }
                    }
                }
            }
        }
    }

    let keep_probability = match shape {
        Shape::Star => 0.8,
        Shape::Box => 0.4,
    };
    let mut terms: Vec<(String, [i64; 3], f32)> = Vec::new();
    if rng.chance(0.9) {
        terms.push((rng.pick(fields).clone(), [0, 0, 0], rng.float_in(-1.0, 1.0)));
    }
    for offset in offsets {
        if rng.chance(keep_probability) {
            terms.push((rng.pick(fields).clone(), offset, rng.float_in(-1.0, 1.0)));
        }
    }

    // Normalize to a contraction: sum of |coeff| stays below 1.
    let total: f32 = terms.iter().map(|(_, _, c)| c.abs()).sum();
    if total > 1.0 {
        let scale = 1.0 / (total * 1.05);
        for (_, _, c) in &mut terms {
            *c *= scale;
        }
    }

    let mut expr_terms: Vec<Expr> =
        terms.iter().map(|(field, o, c)| Expr::at(field, o[0], o[1], o[2]).scale(*c)).collect();
    // Occasionally add a small additive constant — no paper benchmark has
    // one, which is exactly why the generator must.
    if expr_terms.is_empty() || rng.chance(0.15) {
        expr_terms.push(Expr::c(rng.float_in(-0.1, 0.1)));
    }
    // Degree-2 product terms (access · access) are *supported* shapes:
    // the decompose-products pass splits them onto scratch fields and the
    // rest of the pipeline executes them.  Cover the distinct kernel
    // shapes — a squared centre, a product of two (possibly distinct)
    // fields, a z-shifted factor, and an in-plane remote factor — and
    // sometimes place the product first so it lands in the
    // accumulator-init slot rather than a later Mac.  Initial field
    // values are O(0.1), so a modest coefficient keeps products tiny and
    // the iteration contractive.
    if rng.chance(config.nonlinear_bias) {
        let field = rng.pick(fields).clone();
        let coeff = rng.float_in(-0.4, 0.4);
        let other: String = rng.pick(fields).clone();
        let factor2 = match rng.int_in(0, 3) {
            0 => Expr::center(&field),
            1 => Expr::center(&other),
            2 if nz > 1 => Expr::at(&field, 0, 0, if rng.chance(0.5) { 1 } else { -1 }),
            _ if nx > 1 => {
                let dz = if nz > 1 && rng.chance(0.5) { -1 } else { 0 };
                Expr::at(&other, 1, 0, dz)
            }
            _ => Expr::center(&field),
        };
        let product = (Expr::center(&field) * factor2).scale(coeff);
        if rng.chance(0.4) {
            expr_terms.insert(0, product);
        } else {
            expr_terms.push(product);
        }
    }
    // Degree 3 stays above the cap: these programs must be *rejected
    // with the typed `non-linear-degree` diagnostic* — a panic anywhere
    // is a conformance failure.  Rare, to keep the rejection path under
    // continuous test without eating differential coverage.
    if rng.chance(0.01) {
        let field = rng.pick(fields).clone();
        expr_terms.push(Expr::center(&field) * Expr::center(&field) * Expr::center(&field));
    }
    StencilEquation::new(output, Expr::sum(expr_terms))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 17, 123_456_789] {
            let a = generate_case(seed);
            let b = generate_case(seed);
            assert_eq!(a.program, b.program, "seed {seed} is not reproducible");
            assert_eq!(a.options.num_chunks, b.options.num_chunks);
            assert_eq!(a.options.target, b.options.target);
        }
    }

    #[test]
    fn generated_programs_validate() {
        for seed in 0..256u64 {
            // A bad seed is a typed per-seed error, not a sweep abort.
            let case = try_generate_case(seed).unwrap_or_else(|e| panic!("{e}"));
            assert!(case.program.validate().is_ok());
            assert!(!case.program.equations.is_empty());
        }
    }

    #[test]
    fn generate_errors_carry_the_seed() {
        // No valid config reaches the error path (that is the point of
        // `generated_programs_validate`); pin the report format the sweep
        // driver prints when a generator bug does slip through.
        let err = GenerateError { seed: 42, message: "timesteps must be positive".into() };
        assert_eq!(
            err.to_string(),
            "seed 42 generated an invalid program: timesteps must be positive"
        );
    }

    #[test]
    fn generator_covers_the_shape_space() {
        // Across a modest seed range we must see multi-equation systems,
        // box stencils (diagonal offsets), radius > 1, constants, both
        // targets, and chunked exchanges.
        let cases: Vec<ConformanceCase> = (0..256).map(generate_case).collect();
        assert!(cases.iter().any(|c| c.program.equations.len() > 1));
        assert!(cases.iter().any(|c| c.program.fields.len() > 1));
        assert!(cases.iter().any(|c| c.program.xy_radius() > 1));
        assert!(cases.iter().any(|c| c.options.num_chunks > 1));
        assert!(cases.iter().any(|c| c.options.target == WseTarget::Wse2));
        assert!(cases.iter().any(|c| c.options.target == WseTarget::Wse3));
        let has_diagonal = cases.iter().any(|c| {
            c.program
                .equations
                .iter()
                .any(|eq| eq.expr.accesses().iter().any(|(_, o)| o[0] != 0 && o[1] != 0))
        });
        assert!(has_diagonal, "box stencils must appear");
        let has_constant = cases.iter().any(|c| {
            c.program.equations.iter().any(|eq| eq.expr.flops() == 0 || contains_const(&eq.expr))
        });
        assert!(has_constant);
    }

    #[test]
    fn generator_covers_the_product_shapes() {
        // Under a raised bias, a modest seed range must reach every
        // degree-2 product shape the decomposition lowers: squared
        // centres, products of two distinct fields, products with a
        // shifted (remote or z-offset) factor, and a product in the
        // accumulator-init (first-term) position — plus the rare degree-3
        // body that must stay rejected.
        let config = GeneratorConfig { nonlinear_bias: 0.6, ..GeneratorConfig::default() };
        let cases: Vec<ConformanceCase> =
            (0..512).map(|s| generate_case_with(s, &config)).collect();
        let products: Vec<(Expr, Expr, bool)> = cases
            .iter()
            .flat_map(|c| c.program.equations.iter())
            .flat_map(|eq| collect_products(&eq.expr))
            .collect();
        assert!(cases.iter().any(|c| has_product_term(&c.program)));
        assert!(products.iter().any(|(a, b, _)| a == b), "squared terms must appear");
        assert!(
            products.iter().any(
                |(a, b, _)| matches!((field_of(a), field_of(b)), (Some(x), Some(y)) if x != y)
            ),
            "distinct-field products must appear"
        );
        assert!(
            products
                .iter()
                .any(|(_, b, _)| matches!(b, Expr::Access { offset, .. } if *offset != [0, 0, 0])),
            "shifted product factors must appear"
        );
        assert!(products.iter().any(|(_, _, first)| *first), "acc-init products must appear");
        assert!(
            cases.iter().flat_map(|c| c.program.equations.iter()).any(|eq| degree(&eq.expr) > 2),
            "rare degree-3 bodies must appear (the rejection path)"
        );
    }

    #[test]
    fn fault_bias_reaches_long_horizons_without_perturbing_default_streams() {
        let config = GeneratorConfig { fault_bias: 0.75, ..GeneratorConfig::default() };
        let biased: Vec<ConformanceCase> =
            (0..64).map(|s| generate_case_with(s, &config)).collect();
        assert!(
            biased.iter().any(|c| c.program.timesteps >= 32),
            "fault_bias must produce long-horizon cases"
        );
        assert!(
            biased.iter().any(|c| c.program.timesteps < 32),
            "short cases must still appear under the bias"
        );
        // The zero-bias draw consumes no randomness, so an explicit 0.0
        // config generates exactly the default stream.
        let zero = GeneratorConfig { fault_bias: 0.0, ..GeneratorConfig::default() };
        for seed in 0..32u64 {
            assert_eq!(generate_case(seed).program, generate_case_with(seed, &zero).program);
        }
    }

    /// Collects (factor1, factor2, is_first_term) for every data×data
    /// product in a sum-of-terms expression.
    fn collect_products(expr: &Expr) -> Vec<(Expr, Expr, bool)> {
        fn product_of(term: &Expr) -> Option<(Expr, Expr)> {
            match term {
                Expr::Mul(a, b) => match (a.as_ref(), b.as_ref()) {
                    (Expr::Const(_), other) | (other, Expr::Const(_)) => product_of(other),
                    (a, b) => Some((a.clone(), b.clone())),
                },
                _ => None,
            }
        }
        fn terms(e: &Expr, out: &mut Vec<Expr>) {
            match e {
                Expr::Add(a, b) => {
                    terms(a, out);
                    terms(b, out);
                }
                other => out.push(other.clone()),
            }
        }
        let mut flat = Vec::new();
        terms(expr, &mut flat);
        flat.iter()
            .enumerate()
            .filter_map(|(i, t)| product_of(t).map(|(a, b)| (a, b, i == 0)))
            .collect()
    }

    fn field_of(e: &Expr) -> Option<&str> {
        match e {
            Expr::Access { field, .. } => Some(field),
            _ => None,
        }
    }

    fn degree(e: &Expr) -> usize {
        match e {
            Expr::Const(_) => 0,
            Expr::Access { .. } => 1,
            Expr::Add(a, b) | Expr::Sub(a, b) => degree(a).max(degree(b)),
            Expr::Mul(a, b) => degree(a) + degree(b),
        }
    }

    fn contains_const(e: &Expr) -> bool {
        match e {
            Expr::Const(c) => *c != 0.0,
            Expr::Access { .. } => false,
            Expr::Add(a, b) | Expr::Sub(a, b) => contains_const(a) || contains_const(b),
            // A `scale` multiplies an access by a constant; only count
            // additive constants (bare Const leaves under Add/Sub).
            Expr::Mul(_, _) => false,
        }
    }
}
