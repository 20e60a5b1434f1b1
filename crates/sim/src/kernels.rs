//! Explicit SIMD kernels for the linked engine's hot loops.
//!
//! The run phase does not interpret instructions element by element:
//! [`crate::plan`] lowers every linked block into a stream of planned
//! operations, each carrying a *monomorphized* kernel function pointer
//! from this module — one concrete function per (operation, arity ≤
//! [`MAX_ARITY`], init kind, instruction set, FMA mode) combination, so
//! the per-element loop bodies are straight-line vector code with no
//! per-element branching and no bounds checks.  There is one sweep
//! family: every reduction sweep is *row-batched* ([`SweepRowFn`]), one
//! call covering a run of consecutive PEs, and a single PE is the
//! `n_pes = 1` case of the same function.
//!
//! # Instruction sets
//!
//! [`Isa::detect`] picks the implementation at runtime: 8-lane AVX2
//! where the host has it, the portable scalar set everywhere else.
//! [`crate::link::LinkOptions::simd`]` = false` forces the scalar set so
//! conformance and `wse-perf` can pin the vector path against it.
//!
//! # The bitwise guarantee
//!
//! Every lane of every vector kernel performs *exactly* the per-element
//! f32 operation sequence of the scalar instruction stream it replaces:
//! multiplies and adds are issued as separate, individually rounded
//! operations (`mulps` + `addps`, never a contracted `vfmadd`), lanes
//! never reassociate across elements, and the loop tail (`len %
//! LANES`) runs the identical scalar sequence.  Results are therefore
//! bitwise identical across AVX2 and scalar execution — the
//! conformance harness runs SIMD-on and SIMD-off streams on every seed
//! and requires identical bits.
//!
//! The opt-in `fast_fma` mode
//! ([`crate::link::LinkOptions::fast_fma`]) replaces each mul-then-add
//! pair with a single-rounded fused multiply-add (`vfmadd`, or
//! `f32::mul_add` in the tail and scalar set).  That changes rounding, so
//! fast-FMA streams are validated through the conformance *tolerance*
//! path against the reference executor instead of the bitwise path.

/// Largest sweep arity with its own monomorphized kernel.  Wider fused
/// chains run as one head sweep plus `AccSelf` continuation sweeps of at
/// most this many terms each (the per-element operation order is
/// unchanged — see [`crate::plan`]).
pub const MAX_ARITY: usize = 6;

/// One source term of a row-batched sweep call: the source pointer for
/// the *first* PE of the segment, the per-PE pointer stride in elements
/// (0 for the shared zero column), and the coefficient.
#[derive(Debug, Clone, Copy)]
pub struct BatchTerm {
    /// First source element of the first PE.
    pub src: *const f32,
    /// Elements to advance per PE.
    pub stride: usize,
    /// Scalar coefficient.
    pub coeff: f32,
}

impl BatchTerm {
    /// A placeholder term (null source); never dereferenced because every
    /// kernel reads exactly its monomorphized arity.
    pub const NULL: BatchTerm = BatchTerm { src: std::ptr::null(), stride: 0, coeff: 0.0 };
}

/// A monomorphized, row-batched reduction sweep.  One call executes, on
/// each of `n_pes` consecutive PEs,
/// `d[j] = init(j) + Σ_{i<N} terms[i].coeff · terms[i].src[j]` for
/// `j < len`, applied left to right per element, advancing the destination
/// (and accumulator, for accumulator-init kernels) by `pe_stride` elements
/// per PE and each term source by its own [`BatchTerm::stride`].  `init(j)`
/// is `fill` when the kernel was selected with a fill init, else `acc[j]`
/// (`acc` may equal `d`; any distinct pointer must be disjoint).
/// Coefficient splats and term decoding are hoisted out of the per-PE
/// loop, so dispatch cost is paid once per row segment instead of once per
/// PE.
///
/// # Safety
/// For every PE `p < n_pes` at its strided offsets: `d` must be valid for
/// `len` writes, every term source (and `acc`, for accumulator-init
/// kernels) for `len` reads, and sources must not overlap `d` (except
/// `acc == d`) nor any other PE's destination span.  `terms` must hold at
/// least the kernel's arity, and the CPU must support the kernel's
/// instruction set.
pub type SweepRowFn = unsafe fn(
    d: *mut f32,
    len: usize,
    fill: f32,
    acc: *const f32,
    terms: *const BatchTerm,
    n_pes: usize,
    pe_stride: usize,
);

/// A monomorphized elementwise binary kernel: `d[j] = a[j] <op> b[j]`.
///
/// # Safety
/// `d` valid for `len` writes, `a`/`b` for `len` reads; each source is
/// either exactly `d` or disjoint from it (partial overlap is undefined);
/// the CPU must support the kernel's instruction set.
pub type MapFn = unsafe fn(d: *mut f32, a: *const f32, b: *const f32, len: usize);

/// A monomorphized multiply-accumulate kernel:
/// `d[j] = acc[j] + src[j] * coeff`.
///
/// # Safety
/// Same aliasing contract as [`MapFn`] (`acc`/`src` exactly `d` or
/// disjoint).
pub type MacsFn = unsafe fn(d: *mut f32, acc: *const f32, src: *const f32, coeff: f32, len: usize);

/// The instruction set a kernel set is compiled for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// Portable scalar fallback (1 lane).
    Scalar,
    /// AVX2 (8 lanes).
    Avx2,
}

impl Isa {
    /// The widest instruction set the host supports.  Pure hardware
    /// detection — [`crate::link::LinkOptions::simd`] is applied by the
    /// planner, not here.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Scalar
    }

    /// Human-readable name (for benchmark host records and test output).
    pub fn name(self) -> &'static str {
        match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        }
    }
}

/// One complete set of kernel pointers for an (ISA, FMA-mode) pair; the
/// plan compiler copies pointers out of this table once per program.
#[derive(Debug, Clone, Copy)]
pub struct KernelSet {
    /// The ISA the set is compiled for.
    pub isa: Isa,
    /// Whether mul-then-add pairs are contracted to fused multiply-adds
    /// (the tolerance-gated `fast_fma` mode).
    pub fast_fma: bool,
    /// `sweep_rows[acc][arity]`: sweep kernels with a fill init
    /// (`acc = 0`) or an accumulator init (`acc = 1`), arity
    /// `0..=MAX_ARITY`.
    pub sweep_rows: [[SweepRowFn; MAX_ARITY + 1]; 2],
    /// Elementwise binaries indexed by [`crate::loader::BinKind`] order:
    /// add, sub, mul.
    pub binary: [MapFn; 3],
    /// The multiply-accumulate kernel.
    pub macs: MacsFn,
}

impl KernelSet {
    /// The sweep kernel for the given init kind and arity (`arity ≤
    /// MAX_ARITY`).
    pub fn sweep_row(&self, acc_init: bool, arity: usize) -> SweepRowFn {
        self.sweep_rows[usize::from(acc_init)][arity]
    }
}

/// The kernel set for an instruction set and FMA mode.
pub fn kernel_set(isa: Isa, fast_fma: bool) -> &'static KernelSet {
    #[cfg(target_arch = "x86_64")]
    match (isa, fast_fma) {
        (Isa::Avx2, false) => &avx2::EXACT,
        (Isa::Avx2, true) => &avx2::FMA,
        (Isa::Scalar, false) => &scalar::EXACT,
        (Isa::Scalar, true) => &scalar::FMA,
    }
    #[cfg(not(target_arch = "x86_64"))]
    match (isa, fast_fma) {
        (_, false) => &scalar::EXACT,
        (_, true) => &scalar::FMA,
    }
}

// ------------------------------------------------------------------------
// Generic kernel bodies.  Each concrete ISA instantiates these through a
// `#[target_feature]` wrapper; the `#[inline(always)]` bodies are then
// compiled in the wrapper's feature context, so the `Vector` methods
// lower to the wrapper's instruction set.
// ------------------------------------------------------------------------

/// The vector backend a generic kernel body is monomorphized over.
///
/// # Safety
/// Implementations lower to ISA intrinsics; callers must only invoke
/// them (transitively, through the kernel wrappers) on hosts supporting
/// that ISA.
trait Vector: Copy {
    /// f32 lanes per vector.
    const LANES: usize;
    unsafe fn splat(x: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    /// `self * m + a` with a single rounding (the fast-FMA mode).
    unsafe fn mul_add(self, m: Self, a: Self) -> Self;
}

/// The innermost sweep loop over one PE's destination span: `N` is the
/// arity, `ACC` selects the init kind, `FMA` the contraction mode.  Lanes
/// compute the per-element chain `((init + s₀c₀) + s₁c₁) + …` exactly as
/// the scalar stream does; the tail loop repeats the identical scalar
/// sequence for `len % LANES` elements.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn sweep_span<W: Vector, const N: usize, const ACC: bool, const FMA: bool>(
    d: *mut f32,
    len: usize,
    fill: f32,
    fill_v: W,
    acc: *const f32,
    srcs: &[*const f32; N],
    cv: &[W; N],
    coeffs: &[f32; N],
) {
    let mut j = 0usize;
    while j + W::LANES <= len {
        let mut v = if ACC { W::load(acc.add(j)) } else { fill_v };
        for (s, c) in srcs.iter().zip(cv.iter()) {
            let s = W::load(s.add(j));
            v = if FMA { s.mul_add(*c, v) } else { v.add(s.mul(*c)) };
        }
        v.store(d.add(j));
        j += W::LANES;
    }
    while j < len {
        let mut x = if ACC { *acc.add(j) } else { fill };
        for (s, c) in srcs.iter().zip(coeffs.iter()) {
            let s = *s.add(j);
            x = if FMA { s.mul_add(*c, x) } else { x + s * *c };
        }
        *d.add(j) = x;
        j += 1;
    }
}

/// The sweep body: runs [`sweep_span`] once per PE with all term decoding
/// and coefficient splats hoisted out of the PE loop.  Pointers are
/// advanced by multiplication (never past the final PE's span), so no
/// pointer ever leaves its allocation.
#[inline(always)]
unsafe fn sweep_row_body<W: Vector, const N: usize, const ACC: bool, const FMA: bool>(
    d: *mut f32,
    len: usize,
    fill: f32,
    acc: *const f32,
    terms: *const BatchTerm,
    n_pes: usize,
    pe_stride: usize,
) {
    let mut srcs = [std::ptr::null::<f32>(); N];
    let mut strides = [0usize; N];
    let mut coeffs = [0.0f32; N];
    for (i, ((s, t), c)) in
        srcs.iter_mut().zip(strides.iter_mut()).zip(coeffs.iter_mut()).enumerate()
    {
        let term = *terms.add(i);
        *s = term.src;
        *t = term.stride;
        *c = term.coeff;
    }
    let mut cv = [W::splat(0.0); N];
    for (v, c) in cv.iter_mut().zip(coeffs.iter()) {
        *v = W::splat(*c);
    }
    let fill_v = W::splat(fill);
    for pe in 0..n_pes {
        let pd = d.add(pe * pe_stride);
        let pa = if ACC { acc.add(pe * pe_stride) } else { acc };
        let mut pe_srcs = srcs;
        for (s, t) in pe_srcs.iter_mut().zip(strides.iter()) {
            *s = s.add(pe * t);
        }
        sweep_span::<W, N, ACC, FMA>(pd, len, fill, fill_v, pa, &pe_srcs, &cv, &coeffs);
    }
}

/// Elementwise binary body; `OP` selects add (0), sub (1), mul (2).
#[inline(always)]
unsafe fn map_body<W: Vector, const OP: u8>(d: *mut f32, a: *const f32, b: *const f32, len: usize) {
    let mut j = 0usize;
    while j + W::LANES <= len {
        let (x, y) = (W::load(a.add(j)), W::load(b.add(j)));
        let v = match OP {
            0 => x.add(y),
            1 => x.sub(y),
            _ => x.mul(y),
        };
        v.store(d.add(j));
        j += W::LANES;
    }
    while j < len {
        let (x, y) = (*a.add(j), *b.add(j));
        *d.add(j) = match OP {
            0 => x + y,
            1 => x - y,
            _ => x * y,
        };
        j += 1;
    }
}

/// Multiply-accumulate body: `d[j] = acc[j] + src[j] * coeff`.
#[inline(always)]
unsafe fn macs_body<W: Vector, const FMA: bool>(
    d: *mut f32,
    acc: *const f32,
    src: *const f32,
    coeff: f32,
    len: usize,
) {
    let cv = W::splat(coeff);
    let mut j = 0usize;
    while j + W::LANES <= len {
        let a = W::load(acc.add(j));
        let s = W::load(src.add(j));
        let v = if FMA { s.mul_add(cv, a) } else { a.add(s.mul(cv)) };
        v.store(d.add(j));
        j += W::LANES;
    }
    while j < len {
        let (a, s) = (*acc.add(j), *src.add(j));
        *d.add(j) = if FMA { s.mul_add(coeff, a) } else { a + s * coeff };
        j += 1;
    }
}

/// Expands the full kernel set for one ISA: `$wrap` is a macro wrapping a
/// body call in that ISA's `#[target_feature]` context.
macro_rules! kernel_tables {
    ($isa:expr, $W:ty, $wrap:ident) => {
        $wrap!(row0_e, sweep_row_body, $W, 0, false, false);
        $wrap!(row1_e, sweep_row_body, $W, 1, false, false);
        $wrap!(row2_e, sweep_row_body, $W, 2, false, false);
        $wrap!(row3_e, sweep_row_body, $W, 3, false, false);
        $wrap!(row4_e, sweep_row_body, $W, 4, false, false);
        $wrap!(row5_e, sweep_row_body, $W, 5, false, false);
        $wrap!(row6_e, sweep_row_body, $W, 6, false, false);
        $wrap!(row0a_e, sweep_row_body, $W, 0, true, false);
        $wrap!(row1a_e, sweep_row_body, $W, 1, true, false);
        $wrap!(row2a_e, sweep_row_body, $W, 2, true, false);
        $wrap!(row3a_e, sweep_row_body, $W, 3, true, false);
        $wrap!(row4a_e, sweep_row_body, $W, 4, true, false);
        $wrap!(row5a_e, sweep_row_body, $W, 5, true, false);
        $wrap!(row6a_e, sweep_row_body, $W, 6, true, false);
        $wrap!(row0_f, sweep_row_body, $W, 0, false, true);
        $wrap!(row1_f, sweep_row_body, $W, 1, false, true);
        $wrap!(row2_f, sweep_row_body, $W, 2, false, true);
        $wrap!(row3_f, sweep_row_body, $W, 3, false, true);
        $wrap!(row4_f, sweep_row_body, $W, 4, false, true);
        $wrap!(row5_f, sweep_row_body, $W, 5, false, true);
        $wrap!(row6_f, sweep_row_body, $W, 6, false, true);
        $wrap!(row0a_f, sweep_row_body, $W, 0, true, true);
        $wrap!(row1a_f, sweep_row_body, $W, 1, true, true);
        $wrap!(row2a_f, sweep_row_body, $W, 2, true, true);
        $wrap!(row3a_f, sweep_row_body, $W, 3, true, true);
        $wrap!(row4a_f, sweep_row_body, $W, 4, true, true);
        $wrap!(row5a_f, sweep_row_body, $W, 5, true, true);
        $wrap!(row6a_f, sweep_row_body, $W, 6, true, true);
        $wrap!(map_add, map_body, $W, 0);
        $wrap!(map_sub, map_body, $W, 1);
        $wrap!(map_mul, map_body, $W, 2);
        $wrap!(macs_e, macs_body, $W, false);
        $wrap!(macs_f, macs_body, $W, true);

        /// The exact (bitwise-path) kernel set for this ISA.
        pub(super) static EXACT: super::KernelSet = super::KernelSet {
            isa: $isa,
            fast_fma: false,
            sweep_rows: [
                [row0_e, row1_e, row2_e, row3_e, row4_e, row5_e, row6_e],
                [row0a_e, row1a_e, row2a_e, row3a_e, row4a_e, row5a_e, row6a_e],
            ],
            binary: [map_add, map_sub, map_mul],
            macs: macs_e,
        };

        /// The fast-FMA (tolerance-path) kernel set for this ISA.
        pub(super) static FMA: super::KernelSet = super::KernelSet {
            isa: $isa,
            fast_fma: true,
            sweep_rows: [
                [row0_f, row1_f, row2_f, row3_f, row4_f, row5_f, row6_f],
                [row0a_f, row1a_f, row2a_f, row3a_f, row4a_f, row5a_f, row6a_f],
            ],
            binary: [map_add, map_sub, map_mul],
            macs: macs_f,
        };
    };
}

mod scalar {
    use super::{macs_body, map_body, sweep_row_body, BatchTerm, Vector};

    /// One f32 "vector": the portable fallback, and the reference the
    /// vector sets are pinned against.
    #[derive(Clone, Copy)]
    pub(super) struct W(f32);

    impl Vector for W {
        const LANES: usize = 1;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            W(x)
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            W(*p)
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            *p = self.0;
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            W(self.0 + o.0)
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            W(self.0 - o.0)
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            W(self.0 * o.0)
        }
        #[inline(always)]
        unsafe fn mul_add(self, m: Self, a: Self) -> Self {
            W(self.0.mul_add(m.0, a.0))
        }
    }

    /// Plain wrappers (no target feature needed for scalar code).
    macro_rules! wrap_scalar {
        ($name:ident, sweep_row_body, $W:ty, $n:expr, $acc:expr, $fma:expr) => {
            unsafe fn $name(
                d: *mut f32,
                len: usize,
                fill: f32,
                acc: *const f32,
                t: *const BatchTerm,
                n_pes: usize,
                pe_stride: usize,
            ) {
                sweep_row_body::<$W, $n, $acc, $fma>(d, len, fill, acc, t, n_pes, pe_stride)
            }
        };
        ($name:ident, map_body, $W:ty, $op:expr) => {
            unsafe fn $name(d: *mut f32, a: *const f32, b: *const f32, len: usize) {
                map_body::<$W, $op>(d, a, b, len)
            }
        };
        ($name:ident, macs_body, $W:ty, $fma:expr) => {
            unsafe fn $name(d: *mut f32, acc: *const f32, src: *const f32, c: f32, len: usize) {
                macs_body::<$W, $fma>(d, acc, src, c, len)
            }
        };
    }

    kernel_tables!(super::Isa::Scalar, W, wrap_scalar);
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::{macs_body, map_body, sweep_row_body, BatchTerm, Vector};
    use std::arch::x86_64::*;

    /// Eight f32 lanes (`__m256`).
    #[derive(Clone, Copy)]
    pub(super) struct W(__m256);

    impl Vector for W {
        const LANES: usize = 8;
        #[inline(always)]
        unsafe fn splat(x: f32) -> Self {
            W(_mm256_set1_ps(x))
        }
        #[inline(always)]
        unsafe fn load(p: *const f32) -> Self {
            W(_mm256_loadu_ps(p))
        }
        #[inline(always)]
        unsafe fn store(self, p: *mut f32) {
            _mm256_storeu_ps(p, self.0)
        }
        #[inline(always)]
        unsafe fn add(self, o: Self) -> Self {
            W(_mm256_add_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn sub(self, o: Self) -> Self {
            W(_mm256_sub_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul(self, o: Self) -> Self {
            W(_mm256_mul_ps(self.0, o.0))
        }
        #[inline(always)]
        unsafe fn mul_add(self, m: Self, a: Self) -> Self {
            W(_mm256_fmadd_ps(self.0, m.0, a.0))
        }
    }

    /// `#[target_feature(enable = "avx2,fma")]` wrappers: only installed
    /// in kernel sets selected after [`super::Isa::detect`] saw AVX2
    /// (every AVX2 part ships FMA; the exact-mode kernels never execute
    /// the `vfmadd` path anyway).
    macro_rules! wrap_avx2 {
        ($name:ident, sweep_row_body, $W:ty, $n:expr, $acc:expr, $fma:expr) => {
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $name(
                d: *mut f32,
                len: usize,
                fill: f32,
                acc: *const f32,
                t: *const BatchTerm,
                n_pes: usize,
                pe_stride: usize,
            ) {
                sweep_row_body::<$W, $n, $acc, $fma>(d, len, fill, acc, t, n_pes, pe_stride)
            }
        };
        ($name:ident, map_body, $W:ty, $op:expr) => {
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $name(d: *mut f32, a: *const f32, b: *const f32, len: usize) {
                map_body::<$W, $op>(d, a, b, len)
            }
        };
        ($name:ident, macs_body, $W:ty, $fma:expr) => {
            #[target_feature(enable = "avx2", enable = "fma")]
            unsafe fn $name(d: *mut f32, acc: *const f32, src: *const f32, c: f32, len: usize) {
                macs_body::<$W, $fma>(d, acc, src, c, len)
            }
        };
    }

    kernel_tables!(super::Isa::Avx2, W, wrap_avx2);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The ISAs executable on this host (scalar always; vector sets when
    /// detection allows).
    fn testable_isas() -> Vec<Isa> {
        let mut isas = vec![Isa::Scalar];
        if Isa::detect() == Isa::Avx2 {
            isas.push(Isa::Avx2);
        }
        isas
    }

    /// Deterministic, non-trivial test data (varied exponents and signs).
    fn data(len: usize, salt: u32) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let x = ((i as u32).wrapping_mul(2654435761).wrapping_add(salt) >> 8) as f32;
                (x / 65536.0 - 128.0) * 1.0001
            })
            .collect()
    }

    /// The exact per-element reference: the scalar operation sequence the
    /// kernels must reproduce bit for bit.
    fn reference_sweep(init: &[f32], srcs: &[Vec<f32>], coeffs: &[f32], len: usize) -> Vec<f32> {
        (0..len)
            .map(|j| {
                let mut x = init[j];
                for (s, c) in srcs.iter().zip(coeffs) {
                    x += s[j] * c;
                }
                x
            })
            .collect()
    }

    /// Single-PE terms (`n_pes = 1`, so the stride is never applied).
    fn single_pe_terms(srcs: &[Vec<f32>], coeffs: &[f32]) -> [BatchTerm; MAX_ARITY] {
        let mut terms = [BatchTerm::NULL; MAX_ARITY];
        for (t, (s, &coeff)) in terms.iter_mut().zip(srcs.iter().zip(coeffs)) {
            *t = BatchTerm { src: s.as_ptr(), stride: 0, coeff };
        }
        terms
    }

    /// Tails and tiny views: every arity × init × ISA must be bitwise
    /// equal to the scalar reference at lengths around the 8-lane
    /// boundaries and their halves, including 0 and 1.
    #[test]
    fn sweeps_are_bitwise_equal_to_scalar_at_all_tail_lengths() {
        for isa in testable_isas() {
            let set = kernel_set(isa, false);
            for &len in &[0usize, 1, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 96, 97] {
                for arity in 0..=MAX_ARITY {
                    let srcs: Vec<Vec<f32>> = (0..arity).map(|i| data(len, 7 + i as u32)).collect();
                    let coeffs: Vec<f32> = (0..arity).map(|i| 0.25 - 0.125 * i as f32).collect();
                    let acc_init = data(len, 999);
                    let terms = single_pe_terms(&srcs, &coeffs);
                    // Fill init.
                    let mut d = vec![0.0f32; len];
                    unsafe {
                        set.sweep_row(false, arity)(
                            d.as_mut_ptr(),
                            len,
                            1.5,
                            std::ptr::null(),
                            terms.as_ptr(),
                            1,
                            len,
                        )
                    };
                    let expect = reference_sweep(&vec![1.5; len], &srcs, &coeffs, len);
                    assert_eq!(
                        bits(&d),
                        bits(&expect),
                        "{}: fill init, arity {arity}, len {len}",
                        isa.name()
                    );
                    // Distinct accumulator init.
                    let mut d = vec![0.0f32; len];
                    unsafe {
                        set.sweep_row(true, arity)(
                            d.as_mut_ptr(),
                            len,
                            0.0,
                            acc_init.as_ptr(),
                            terms.as_ptr(),
                            1,
                            len,
                        )
                    };
                    let expect = reference_sweep(&acc_init, &srcs, &coeffs, len);
                    assert_eq!(
                        bits(&d),
                        bits(&expect),
                        "{}: acc init, arity {arity}, len {len}",
                        isa.name()
                    );
                    // Self accumulator (acc == d): reads each element
                    // before overwriting it.
                    let mut d = acc_init.clone();
                    let dp = d.as_mut_ptr();
                    unsafe { set.sweep_row(true, arity)(dp, len, 0.0, dp, terms.as_ptr(), 1, len) };
                    assert_eq!(
                        bits(&d),
                        bits(&expect),
                        "{}: self-acc init, arity {arity}, len {len}",
                        isa.name()
                    );
                }
            }
        }
    }

    #[test]
    fn binary_and_macs_kernels_match_scalar_and_allow_exact_aliasing() {
        for isa in testable_isas() {
            let set = kernel_set(isa, false);
            for &len in &[0usize, 1, 7, 8, 9, 17, 96] {
                let a = data(len, 1);
                let b = data(len, 2);
                for (op, f) in [(0usize, "+"), (1, "-"), (2, "*")] {
                    let mut d = vec![0.0f32; len];
                    unsafe { set.binary[op](d.as_mut_ptr(), a.as_ptr(), b.as_ptr(), len) };
                    for j in 0..len {
                        let e = match op {
                            0 => a[j] + b[j],
                            1 => a[j] - b[j],
                            _ => a[j] * b[j],
                        };
                        assert_eq!(d[j].to_bits(), e.to_bits(), "{}: {f} len {len}", isa.name());
                    }
                    // In-place (d == a): the planned direct path.
                    let mut d = a.clone();
                    unsafe { set.binary[op](d.as_mut_ptr(), d.as_ptr(), b.as_ptr(), len) };
                    for j in 0..len {
                        let e = match op {
                            0 => a[j] + b[j],
                            1 => a[j] - b[j],
                            _ => a[j] * b[j],
                        };
                        assert_eq!(d[j].to_bits(), e.to_bits(), "{}: {f} in place", isa.name());
                    }
                }
                let mut d = vec![0.0f32; len];
                unsafe { (set.macs)(d.as_mut_ptr(), a.as_ptr(), b.as_ptr(), 0.375, len) };
                for j in 0..len {
                    assert_eq!(d[j].to_bits(), (a[j] + b[j] * 0.375).to_bits(), "{}", isa.name());
                }
                // In-place accumulate (d == acc).
                let mut d = a.clone();
                unsafe { (set.macs)(d.as_mut_ptr(), d.as_ptr(), b.as_ptr(), 0.375, len) };
                for j in 0..len {
                    assert_eq!(d[j].to_bits(), (a[j] + b[j] * 0.375).to_bits(), "{}", isa.name());
                }
            }
        }
    }

    /// The fast-FMA sets stay within a tight tolerance of the exact sets
    /// (one rounding difference per term) and are internally consistent
    /// between vector body and scalar tail.
    #[test]
    fn fast_fma_kernels_track_the_exact_kernels_within_tolerance() {
        for isa in testable_isas() {
            let exact = kernel_set(isa, false);
            let fma = kernel_set(isa, true);
            assert!(fma.fast_fma && !exact.fast_fma);
            let len = 33usize;
            let srcs: Vec<Vec<f32>> = (0..3).map(|i| data(len, 40 + i)).collect();
            let terms = single_pe_terms(&srcs, &[0.3333; 3]);
            let mut de = vec![0.0f32; len];
            let mut df = vec![0.0f32; len];
            for (set, d) in [(exact, &mut de), (fma, &mut df)] {
                unsafe {
                    set.sweep_row(false, 3)(
                        d.as_mut_ptr(),
                        len,
                        2.0,
                        std::ptr::null(),
                        terms.as_ptr(),
                        1,
                        len,
                    )
                };
            }
            for j in 0..len {
                let delta = (de[j] - df[j]).abs();
                let scale = de[j].abs().max(1.0);
                assert!(delta / scale < 1e-5, "{}: [{j}] {} vs {}", isa.name(), de[j], df[j]);
            }
        }
    }

    #[test]
    fn detection_is_ordered_and_lanes_are_consistent() {
        // The table returns a set compiled for what we asked.
        for isa in [Isa::Scalar, Isa::Avx2] {
            // Construction is safe; only *calling* requires the feature.
            let set = kernel_set(isa, false);
            #[cfg(target_arch = "x86_64")]
            assert_eq!(set.isa, isa);
            #[cfg(not(target_arch = "x86_64"))]
            assert_eq!(set.isa, Isa::Scalar);
        }
    }

    /// One batched call over a row of PEs must be bitwise identical to the
    /// scalar reference applied per PE at each strided offset — including
    /// stride-0 (shared zero-column) terms and both init kinds.
    #[test]
    fn row_batched_sweeps_match_per_pe_sweeps_bitwise() {
        for isa in testable_isas() {
            let set = kernel_set(isa, false);
            for &len in &[1usize, 7, 9, 31] {
                for arity in 0..=MAX_ARITY {
                    let n_pes = 5usize;
                    let pe_stride = len + 3; // padded arenas
                    let total = n_pes * pe_stride;
                    // Per-term backing: even terms stride with the PEs,
                    // odd terms are shared (stride 0).
                    let srcs: Vec<Vec<f32>> =
                        (0..arity).map(|i| data(total, 100 + i as u32)).collect();
                    let strides: Vec<usize> =
                        (0..arity).map(|i| if i % 2 == 0 { pe_stride } else { 0 }).collect();
                    let coeffs: Vec<f32> = (0..arity).map(|i| 0.21 + 0.1 * i as f32).collect();
                    let acc0 = data(total, 7);
                    let mut batch = [BatchTerm::NULL; MAX_ARITY];
                    for (i, s) in srcs.iter().enumerate() {
                        batch[i] =
                            BatchTerm { src: s.as_ptr(), stride: strides[i], coeff: coeffs[i] };
                    }
                    for acc_init in [false, true] {
                        let mut expect = vec![0.0f32; total];
                        for p in 0..n_pes {
                            let pe_srcs: Vec<Vec<f32>> = srcs
                                .iter()
                                .zip(&strides)
                                .map(|(s, stride)| s[p * stride..][..len].to_vec())
                                .collect();
                            let init = if acc_init {
                                acc0[p * pe_stride..][..len].to_vec()
                            } else {
                                vec![1.25; len]
                            };
                            expect[p * pe_stride..][..len]
                                .copy_from_slice(&reference_sweep(&init, &pe_srcs, &coeffs, len));
                        }
                        let mut got = vec![0.0f32; total];
                        let acc = if acc_init { acc0.as_ptr() } else { std::ptr::null() };
                        unsafe {
                            set.sweep_row(acc_init, arity)(
                                got.as_mut_ptr(),
                                len,
                                1.25,
                                acc,
                                batch.as_ptr(),
                                n_pes,
                                pe_stride,
                            );
                        }
                        assert_eq!(
                            bits(&got),
                            bits(&expect),
                            "{}: len {len} arity {arity} acc {acc_init}",
                            isa.name()
                        );
                    }
                }
            }
        }
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }
}
