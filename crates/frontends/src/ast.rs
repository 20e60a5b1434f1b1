//! Front-end-agnostic description of a stencil program.
//!
//! All three mini front-ends (Flang-like Fortran, Devito-like symbolic
//! Python, PSyclone-like kernel metadata) produce a [`StencilProgram`],
//! which is then translated into the `stencil` dialect by
//! [`crate::to_stencil`].  The reference executor in `wse-sim` also
//! interprets this AST directly to produce ground-truth results.

use std::collections::BTreeSet;
use std::fmt;

/// Which front-end produced a program (Section 3 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Frontend {
    /// Fortran via the Flang stencil-extraction pass.
    Flang,
    /// The Devito symbolic DSL.
    Devito,
    /// The PSyclone climate/weather DSL.
    PSyclone,
    /// A kernel written directly against the stencil dialect (used for the
    /// 25-point seismic benchmark translated from Jacquelin et al.).
    Csl,
}

impl fmt::Display for Frontend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Frontend::Flang => write!(f, "Flang"),
            Frontend::Devito => write!(f, "Devito"),
            Frontend::PSyclone => write!(f, "PSyclone"),
            Frontend::Csl => write!(f, "Cerebras"),
        }
    }
}

/// The interior grid extents (x, y, z) of a stencil program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GridSpec {
    /// Extent in x (mapped across PE columns).
    pub x: i64,
    /// Extent in y (mapped across PE rows).
    pub y: i64,
    /// Extent in z (kept local to each PE).
    pub z: i64,
}

impl GridSpec {
    /// Creates a grid specification.
    pub fn new(x: i64, y: i64, z: i64) -> Self {
        Self { x, y, z }
    }

    /// Total number of interior grid points.
    pub fn points(&self) -> i64 {
        self.x * self.y * self.z
    }
}

/// A scalar stencil expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A floating point constant.
    Const(f32),
    /// An access to `field` at the given offset from the current cell.
    Access {
        /// Field name.
        field: String,
        /// Constant offset `(dx, dy, dz)`.
        offset: [i64; 3],
    },
    /// Addition.
    Add(Box<Expr>, Box<Expr>),
    /// Subtraction.
    Sub(Box<Expr>, Box<Expr>),
    /// Multiplication.
    Mul(Box<Expr>, Box<Expr>),
}

impl Expr {
    /// Constant helper.
    pub fn c(value: f32) -> Expr {
        Expr::Const(value)
    }

    /// Access helper.
    pub fn at(field: &str, dx: i64, dy: i64, dz: i64) -> Expr {
        Expr::Access { field: field.to_string(), offset: [dx, dy, dz] }
    }

    /// Centre access helper.
    pub fn center(field: &str) -> Expr {
        Expr::at(field, 0, 0, 0)
    }

    /// Sums an iterator of expressions (returns 0.0 for an empty iterator).
    pub fn sum(terms: impl IntoIterator<Item = Expr>) -> Expr {
        let mut iter = terms.into_iter();
        let Some(first) = iter.next() else {
            return Expr::Const(0.0);
        };
        iter.fold(first, |acc, e| Expr::Add(Box::new(acc), Box::new(e)))
    }

    /// Scales by a constant.
    pub fn scale(self, factor: f32) -> Expr {
        Expr::Mul(Box::new(self), Box::new(Expr::Const(factor)))
    }

    /// Every `(field, offset)` access in the expression.
    pub fn accesses(&self) -> Vec<(String, [i64; 3])> {
        let mut out = Vec::new();
        self.collect_accesses(&mut out);
        out
    }

    fn collect_accesses(&self, out: &mut Vec<(String, [i64; 3])>) {
        match self {
            Expr::Const(_) => {}
            Expr::Access { field, offset } => out.push((field.clone(), *offset)),
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => {
                a.collect_accesses(out);
                b.collect_accesses(out);
            }
        }
    }

    /// Number of floating-point operations per grid point.
    pub fn flops(&self) -> u64 {
        match self {
            Expr::Const(_) | Expr::Access { .. } => 0,
            Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) => 1 + a.flops() + b.flops(),
        }
    }

    /// Evaluates the expression given a resolver for field accesses.
    pub fn evaluate(&self, read: &impl Fn(&str, [i64; 3]) -> f32) -> f32 {
        match self {
            Expr::Const(c) => *c,
            Expr::Access { field, offset } => read(field, *offset),
            Expr::Add(a, b) => a.evaluate(read) + b.evaluate(read),
            Expr::Sub(a, b) => a.evaluate(read) - b.evaluate(read),
            Expr::Mul(a, b) => a.evaluate(read) * b.evaluate(read),
        }
    }
}

impl std::ops::Add for Expr {
    type Output = Expr;
    fn add(self, rhs: Expr) -> Expr {
        Expr::Add(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Sub for Expr {
    type Output = Expr;
    fn sub(self, rhs: Expr) -> Expr {
        Expr::Sub(Box::new(self), Box::new(rhs))
    }
}

impl std::ops::Mul for Expr {
    type Output = Expr;
    fn mul(self, rhs: Expr) -> Expr {
        Expr::Mul(Box::new(self), Box::new(rhs))
    }
}

/// One stencil update: `output(i,j,k) = expr` over the interior.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilEquation {
    /// Field written by this equation.
    pub output: String,
    /// Right-hand-side expression.
    pub expr: Expr,
}

impl StencilEquation {
    /// Creates an equation.
    pub fn new(output: &str, expr: Expr) -> Self {
        Self { output: output.to_string(), expr }
    }

    /// Stencil radius in the horizontal (x, y) dimensions — the halo width
    /// required from neighboring PEs after the z-column decomposition.
    pub fn xy_radius(&self) -> i64 {
        self.expr.accesses().iter().map(|(_, o)| o[0].abs().max(o[1].abs())).max().unwrap_or(0)
    }

    /// Stencil radius in the z dimension (kept PE-local).
    pub fn z_radius(&self) -> i64 {
        self.expr.accesses().iter().map(|(_, o)| o[2].abs()).max().unwrap_or(0)
    }

    /// Number of distinct stencil points touched (the "N-point" figure).
    pub fn num_points(&self) -> usize {
        let set: BTreeSet<[i64; 3]> = self.expr.accesses().into_iter().map(|(_, o)| o).collect();
        set.len()
    }

    /// Fields read by this equation.
    pub fn inputs(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        for (f, _) in self.expr.accesses() {
            set.insert(f);
        }
        set.into_iter().collect()
    }

    /// Fields whose non-zero x/y offsets require halo exchange.
    pub fn communicated_inputs(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        for (f, o) in self.expr.accesses() {
            if o[0] != 0 || o[1] != 0 {
                set.insert(f);
            }
        }
        set.into_iter().collect()
    }
}

/// A complete stencil program as described by a front-end.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilProgram {
    /// Benchmark / kernel name.
    pub name: String,
    /// Producing front-end.
    pub frontend: Frontend,
    /// Interior grid extents.
    pub grid: GridSpec,
    /// All fields, in declaration order.
    pub fields: Vec<String>,
    /// Equations, applied in order within one timestep.
    pub equations: Vec<StencilEquation>,
    /// Number of timesteps.
    pub timesteps: i64,
    /// The DSL source the user wrote (counted for Table 1).
    pub source: String,
}

impl StencilProgram {
    /// Lines of code of the DSL source (non-empty lines).
    pub fn source_loc(&self) -> usize {
        self.source.lines().filter(|l| !l.trim().is_empty()).count()
    }

    /// Floating point operations per grid point per timestep.
    pub fn flops_per_point(&self) -> u64 {
        self.equations.iter().map(|e| e.expr.flops()).sum()
    }

    /// The maximum horizontal stencil radius across equations.
    pub fn xy_radius(&self) -> i64 {
        self.equations.iter().map(StencilEquation::xy_radius).max().unwrap_or(0)
    }

    /// The maximum number of stencil points across equations.
    pub fn max_points(&self) -> usize {
        self.equations.iter().map(StencilEquation::num_points).max().unwrap_or(0)
    }

    /// Fields that must be exchanged between PEs each timestep.
    pub fn communicated_fields(&self) -> Vec<String> {
        let mut set = BTreeSet::new();
        for eq in &self.equations {
            for f in eq.communicated_inputs() {
                set.insert(f);
            }
        }
        set.into_iter().collect()
    }

    /// Validates internal consistency (fields referenced exist, grid sizes
    /// are positive, offsets stay within a reasonable halo).
    pub fn validate(&self) -> Result<(), String> {
        if self.grid.x <= 0 || self.grid.y <= 0 || self.grid.z <= 0 {
            return Err(format!("grid extents must be positive: {:?}", self.grid));
        }
        if self.timesteps <= 0 {
            return Err("timesteps must be positive".into());
        }
        if self.equations.is_empty() {
            return Err("a stencil program requires at least one equation".into());
        }
        for eq in &self.equations {
            if !self.fields.contains(&eq.output) {
                return Err(format!("equation writes unknown field '{}'", eq.output));
            }
            for (field, offset) in eq.expr.accesses() {
                if !self.fields.contains(&field) {
                    return Err(format!("equation reads unknown field '{field}'"));
                }
                for (d, &o) in offset.iter().enumerate() {
                    let extent = [self.grid.x, self.grid.y, self.grid.z][d];
                    if o.abs() >= extent {
                        return Err(format!(
                            "offset {o} in dimension {d} exceeds the grid extent {extent}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Builds a star-shaped sum of neighbor accesses of the given radius, the
/// building block of all five paper benchmarks.
pub fn star_sum(field: &str, radius: i64, include_center: bool) -> Expr {
    let mut terms = Vec::new();
    if include_center {
        terms.push(Expr::center(field));
    }
    for r in 1..=radius {
        for (dx, dy, dz) in [(r, 0, 0), (-r, 0, 0), (0, r, 0), (0, -r, 0), (0, 0, r), (0, 0, -r)] {
            terms.push(Expr::at(field, dx, dy, dz));
        }
    }
    Expr::sum(terms)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expr_analysis() {
        let e = (Expr::at("u", 1, 0, 0) + Expr::center("u")).scale(0.12345);
        assert_eq!(e.flops(), 2);
        assert_eq!(e.accesses().len(), 2);
        let eq = StencilEquation::new("u", e);
        assert_eq!(eq.xy_radius(), 1);
        assert_eq!(eq.z_radius(), 0);
        assert_eq!(eq.num_points(), 2);
        assert_eq!(eq.inputs(), vec!["u".to_string()]);
        assert_eq!(eq.communicated_inputs(), vec!["u".to_string()]);
    }

    #[test]
    fn star_shapes() {
        // Radius 1 star with centre = 7-point; radius 2 star = 13-point;
        // radius 2 star without centre has 12 points.
        assert_eq!(StencilEquation::new("u", star_sum("u", 1, true)).num_points(), 7);
        assert_eq!(StencilEquation::new("u", star_sum("u", 2, true)).num_points(), 13);
        assert_eq!(StencilEquation::new("u", star_sum("u", 2, false)).num_points(), 12);
        // 25-point = radius-4 star with centre (4*6 + 1).
        assert_eq!(StencilEquation::new("u", star_sum("u", 4, true)).num_points(), 25);
    }

    #[test]
    fn evaluation() {
        let e = (Expr::at("u", 1, 0, 0) + Expr::center("u")).scale(0.5);
        let value = e.evaluate(&|_, offset| if offset == [1, 0, 0] { 3.0 } else { 1.0 });
        assert!((value - 2.0).abs() < 1e-6);
    }

    #[test]
    fn program_validation() {
        let mut p = StencilProgram {
            name: "test".into(),
            frontend: Frontend::Flang,
            grid: GridSpec::new(8, 8, 16),
            fields: vec!["u".into()],
            equations: vec![StencilEquation::new("u", star_sum("u", 1, true).scale(0.1))],
            timesteps: 2,
            source: "do i\nenddo".into(),
        };
        assert!(p.validate().is_ok());
        assert_eq!(p.source_loc(), 2);
        assert_eq!(p.flops_per_point(), 7);
        assert_eq!(p.communicated_fields(), vec!["u".to_string()]);

        p.equations[0].output = "missing".into();
        assert!(p.validate().is_err());
        p.equations[0].output = "u".into();
        p.grid.z = 0;
        assert!(p.validate().is_err());
        p.grid.z = 16;
        p.timesteps = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn oversized_offset_rejected() {
        let p = StencilProgram {
            name: "bad".into(),
            frontend: Frontend::Devito,
            grid: GridSpec::new(4, 4, 4),
            fields: vec!["u".into()],
            equations: vec![StencilEquation::new("u", Expr::at("u", 5, 0, 0))],
            timesteps: 1,
            source: String::new(),
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn frontend_display() {
        assert_eq!(Frontend::Flang.to_string(), "Flang");
        assert_eq!(Frontend::Devito.to_string(), "Devito");
        assert_eq!(Frontend::PSyclone.to_string(), "PSyclone");
        assert_eq!(Frontend::Csl.to_string(), "Cerebras");
    }
}
