//! Type system for the IR.
//!
//! The type system mirrors the subset of MLIR's builtin types the stencil
//! pipeline needs (integers, floats, index, function, tensor and memref
//! types) plus an extensible [`DialectType`] escape hatch used by the
//! `stencil`, `dmp`, `csl_stencil` and `csl` dialects to define their own
//! parametric types (e.g. `!stencil.temp<...>` or `!csl.dsd`).

use std::fmt;

use crate::attributes::Attribute;

/// Floating point precision kinds supported by the pipeline.
///
/// The WSE natively operates on `f16` and `f32`; `f64` is supported by the
/// front-ends and reference executor but lowered code uses `f32` (all paper
/// benchmarks use single precision).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FloatKind {
    /// IEEE 754 half precision.
    F16,
    /// IEEE 754 single precision.
    F32,
    /// IEEE 754 double precision.
    F64,
}

impl FloatKind {
    /// Bit width of the format.
    pub fn bit_width(self) -> u32 {
        match self {
            FloatKind::F16 => 16,
            FloatKind::F32 => 32,
            FloatKind::F64 => 64,
        }
    }

    /// Size in bytes of one element.
    pub fn byte_width(self) -> u32 {
        self.bit_width() / 8
    }
}

impl fmt::Display for FloatKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FloatKind::F16 => write!(f, "f16"),
            FloatKind::F32 => write!(f, "f32"),
            FloatKind::F64 => write!(f, "f64"),
        }
    }
}

/// Integer signedness semantics, following MLIR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Signedness {
    /// Signless integers (`i32`), the default in MLIR arithmetic.
    Signless,
    /// Explicitly signed integers (`si16`).
    Signed,
    /// Explicitly unsigned integers (`ui16`).
    Unsigned,
}

/// A dialect-defined parametric type such as `!stencil.temp<...>`.
///
/// The IR core stores dialect types structurally: a dialect name, a type
/// name and an ordered list of attribute parameters.  Dialect crates provide
/// strongly-typed constructors and accessors on top of this representation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DialectType {
    /// Owning dialect, e.g. `"stencil"`.
    pub dialect: String,
    /// Type name within the dialect, e.g. `"temp"`.
    pub name: String,
    /// Ordered type parameters.
    pub params: Vec<Attribute>,
}

impl DialectType {
    /// Creates a new dialect type.
    pub fn new(
        dialect: impl Into<String>,
        name: impl Into<String>,
        params: Vec<Attribute>,
    ) -> Self {
        Self { dialect: dialect.into(), name: name.into(), params }
    }
}

/// An IR type.
///
/// Types are value types: they are freely cloneable and compared
/// structurally.  This matches how the pipeline uses them (types are small;
/// the deepest nesting is `memref<N x f32>` inside a dialect type).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Type {
    /// The absence of a value (used for functions with no results).
    #[default]
    None,
    /// An integer type with a width and signedness, e.g. `i16`, `ui16`.
    Integer {
        /// Bit width.
        width: u32,
        /// Signedness semantics.
        signedness: Signedness,
    },
    /// A floating point type.
    Float(FloatKind),
    /// The platform index type (used for loop induction variables, offsets).
    Index,
    /// A function type `(inputs) -> (results)`.
    Function {
        /// Argument types.
        inputs: Vec<Type>,
        /// Result types.
        results: Vec<Type>,
    },
    /// An immutable, value-semantics tensor `tensor<d0 x d1 x ... x elem>`.
    ///
    /// A dimension of `-1` (printed `?`) is dynamic.
    Tensor {
        /// Shape; `-1` encodes a dynamic dimension.
        shape: Vec<i64>,
        /// Element type.
        elem: Box<Type>,
    },
    /// A mutable, reference-semantics buffer `memref<d0 x ... x elem>`.
    MemRef {
        /// Shape; `-1` encodes a dynamic dimension.
        shape: Vec<i64>,
        /// Element type.
        elem: Box<Type>,
    },
    /// A dialect-defined type.
    Dialect(DialectType),
}

impl Type {
    /// Signless integer helper, e.g. `Type::int(16)` is `i16`.
    pub fn int(width: u32) -> Type {
        Type::Integer { width, signedness: Signedness::Signless }
    }

    /// The `i1` boolean type.
    pub fn bool() -> Type {
        Type::int(1)
    }

    /// Unsigned integer helper, e.g. `Type::uint(16)` is `ui16`.
    pub fn uint(width: u32) -> Type {
        Type::Integer { width, signedness: Signedness::Unsigned }
    }

    /// Signed integer helper.
    pub fn sint(width: u32) -> Type {
        Type::Integer { width, signedness: Signedness::Signed }
    }

    /// Single precision float type.
    pub fn f32() -> Type {
        Type::Float(FloatKind::F32)
    }

    /// Half precision float type.
    pub fn f16() -> Type {
        Type::Float(FloatKind::F16)
    }

    /// Double precision float type.
    pub fn f64() -> Type {
        Type::Float(FloatKind::F64)
    }

    /// Index type helper.
    pub fn index() -> Type {
        Type::Index
    }

    /// Ranked tensor type helper.
    pub fn tensor(shape: Vec<i64>, elem: Type) -> Type {
        Type::Tensor { shape, elem: Box::new(elem) }
    }

    /// Ranked memref type helper.
    pub fn memref(shape: Vec<i64>, elem: Type) -> Type {
        Type::MemRef { shape, elem: Box::new(elem) }
    }

    /// Function type helper.
    pub fn function(inputs: Vec<Type>, results: Vec<Type>) -> Type {
        Type::Function { inputs, results }
    }

    /// Dialect type helper.
    pub fn dialect(dialect: &str, name: &str, params: Vec<Attribute>) -> Type {
        Type::Dialect(DialectType::new(dialect, name, params))
    }

    /// Returns `true` for float types.
    pub fn is_float(&self) -> bool {
        matches!(self, Type::Float(_))
    }

    /// Returns `true` for tensor types.
    pub fn is_tensor(&self) -> bool {
        matches!(self, Type::Tensor { .. })
    }

    /// Returns `true` for memref types.
    pub fn is_memref(&self) -> bool {
        matches!(self, Type::MemRef { .. })
    }

    /// Returns the shape for tensor/memref types.
    pub fn shape(&self) -> Option<&[i64]> {
        match self {
            Type::Tensor { shape, .. } | Type::MemRef { shape, .. } => Some(shape),
            _ => None,
        }
    }

    /// Returns the element type for tensor/memref types.
    pub fn element_type(&self) -> Option<&Type> {
        match self {
            Type::Tensor { elem, .. } | Type::MemRef { elem, .. } => Some(elem),
            _ => None,
        }
    }

    /// Returns the dialect type payload if this is a dialect type.
    pub fn as_dialect(&self) -> Option<&DialectType> {
        match self {
            Type::Dialect(d) => Some(d),
            _ => None,
        }
    }

    /// Returns the dialect type payload if this is the named dialect type.
    pub fn as_dialect_named(&self, dialect: &str, name: &str) -> Option<&DialectType> {
        self.as_dialect().filter(|d| d.dialect == dialect && d.name == name)
    }

    /// Total number of elements for statically-shaped tensor/memref types.
    pub fn num_elements(&self) -> Option<i64> {
        let shape = self.shape()?;
        if shape.iter().any(|&d| d < 0) {
            return None;
        }
        Some(shape.iter().product::<i64>().max(1))
    }

    /// Size in bytes for statically shaped numeric tensor/memref/scalar types.
    pub fn byte_size(&self) -> Option<u64> {
        match self {
            Type::Float(k) => Some(u64::from(k.byte_width())),
            Type::Integer { width, .. } => Some(u64::from(width / 8).max(1)),
            Type::Index => Some(8),
            Type::Tensor { .. } | Type::MemRef { .. } => {
                let n = self.num_elements()? as u64;
                let e = self.element_type()?.byte_size()?;
                Some(n * e)
            }
            _ => None,
        }
    }

    /// Converts a tensor type to the equivalent memref type (used by
    /// bufferization).  Other types are returned unchanged.
    pub fn tensor_to_memref(&self) -> Type {
        match self {
            Type::Tensor { shape, elem } => {
                Type::MemRef { shape: shape.clone(), elem: Box::new(elem.tensor_to_memref()) }
            }
            Type::Dialect(d) => {
                let params =
                    d.params.iter().map(|p| p.map_types(&|t| t.tensor_to_memref())).collect();
                Type::Dialect(DialectType::new(d.dialect.clone(), d.name.clone(), params))
            }
            other => other.clone(),
        }
    }
}

impl fmt::Display for Type {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Type::None => write!(f, "none"),
            Type::Integer { width, signedness } => match signedness {
                Signedness::Signless => write!(f, "i{width}"),
                Signedness::Signed => write!(f, "si{width}"),
                Signedness::Unsigned => write!(f, "ui{width}"),
            },
            Type::Float(k) => write!(f, "{k}"),
            Type::Index => write!(f, "index"),
            Type::Function { inputs, results } => {
                write!(f, "(")?;
                for (i, t) in inputs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ") -> (")?;
                for (i, t) in results.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{t}")?;
                }
                write!(f, ")")
            }
            Type::Tensor { shape, elem } => {
                write!(f, "tensor<")?;
                for d in shape {
                    if *d < 0 {
                        write!(f, "?x")?;
                    } else {
                        write!(f, "{d}x")?;
                    }
                }
                write!(f, "{elem}>")
            }
            Type::MemRef { shape, elem } => {
                write!(f, "memref<")?;
                for d in shape {
                    if *d < 0 {
                        write!(f, "?x")?;
                    } else {
                        write!(f, "{d}x")?;
                    }
                }
                write!(f, "{elem}>")
            }
            Type::Dialect(d) => {
                write!(f, "!{}.{}", d.dialect, d.name)?;
                if !d.params.is_empty() {
                    write!(f, "<")?;
                    for (i, p) in d.params.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, ">")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_display() {
        assert_eq!(Type::int(16).to_string(), "i16");
        assert_eq!(Type::uint(16).to_string(), "ui16");
        assert_eq!(Type::sint(8).to_string(), "si8");
        assert_eq!(Type::f32().to_string(), "f32");
        assert_eq!(Type::index().to_string(), "index");
        assert_eq!(Type::None.to_string(), "none");
    }

    #[test]
    fn tensor_and_memref_display() {
        let t = Type::tensor(vec![510], Type::f32());
        assert_eq!(t.to_string(), "tensor<510xf32>");
        let m = Type::memref(vec![4, 255], Type::f32());
        assert_eq!(m.to_string(), "memref<4x255xf32>");
        let dynamic = Type::tensor(vec![-1, 3], Type::f32());
        assert_eq!(dynamic.to_string(), "tensor<?x3xf32>");
    }

    #[test]
    fn function_display() {
        let t = Type::function(vec![Type::f32(), Type::index()], vec![Type::f32()]);
        assert_eq!(t.to_string(), "(f32, index) -> (f32)");
    }

    #[test]
    fn dialect_type_display() {
        let t = Type::dialect("csl", "dsd", vec![Attribute::str("mem1d_dsd")]);
        assert_eq!(t.to_string(), "!csl.dsd<\"mem1d_dsd\">");
        let plain = Type::dialect("csl", "comptime_struct", vec![]);
        assert_eq!(plain.to_string(), "!csl.comptime_struct");
    }

    #[test]
    fn num_elements_and_bytes() {
        let t = Type::tensor(vec![512], Type::f32());
        assert_eq!(t.num_elements(), Some(512));
        assert_eq!(t.byte_size(), Some(2048));
        let d = Type::tensor(vec![-1], Type::f32());
        assert_eq!(d.num_elements(), None);
        assert_eq!(Type::f32().byte_size(), Some(4));
        assert_eq!(Type::f16().byte_size(), Some(2));
    }

    #[test]
    fn tensor_to_memref_conversion() {
        let t = Type::tensor(vec![510], Type::f32());
        assert_eq!(t.tensor_to_memref(), Type::memref(vec![510], Type::f32()));
        // Nested inside a dialect type parameter.
        let d = Type::dialect("stencil", "temp", vec![Attribute::Type(t)]);
        let converted = d.tensor_to_memref();
        let inner = converted.as_dialect().unwrap().params[0].clone();
        assert_eq!(inner, Attribute::Type(Type::memref(vec![510], Type::f32())));
    }

    #[test]
    fn element_type_accessors() {
        let t = Type::tensor(vec![2, 3], Type::f32());
        assert_eq!(t.shape(), Some(&[2, 3][..]));
        assert_eq!(t.element_type(), Some(&Type::f32()));
        assert!(t.is_tensor());
        assert!(!t.is_memref());
    }
}
