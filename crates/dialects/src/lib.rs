//! # wse-dialects — core and stencil dialects
//!
//! Rust re-implementations of the MLIR/xDSL dialect subsets the wafer-scale
//! stencil pipeline consumes:
//!
//! * architecture-agnostic dialects: [`builtin`], [`func`], [`arith`],
//!   [`scf`], [`tensor`], [`memref`], [`linalg`] and [`varith`];
//! * the stencil abstraction: [`stencil`] (Open Earth Compiler dialect) and
//!   [`dmp`] (distributed-memory halo exchanges).
//!
//! Each module provides operation-name constants, typed builder helpers,
//! accessors and verifiers.  [`register_all`] registers every verifier in a
//! [`DialectRegistry`] so the pass manager can verify IR after each pass.
//!
//! ```
//! use wse_dialects::{builtin, func, arith, register_all};
//! use wse_ir::{IrContext, OpBuilder, Type, verify};
//!
//! let mut ctx = IrContext::new();
//! let (module, body) = builtin::module(&mut ctx);
//! let (_f, entry) = func::build_func(&mut ctx, body, "main", vec![], vec![]);
//! let mut b = OpBuilder::at_end(&mut ctx, entry);
//! let c = arith::constant_f32(&mut b, 1.0, Type::f32());
//! func::build_return(&mut ctx, entry, vec![c]);
//! let registry = register_all();
//! assert!(verify(&ctx, module, &registry).is_empty());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arith;
pub mod builtin;
pub mod dmp;
pub mod func;
pub mod linalg;
pub mod memref;
pub mod scf;
pub mod stencil;
pub mod tensor;
pub mod varith;

use wse_ir::DialectRegistry;

/// Builds a [`DialectRegistry`] with every dialect of this crate registered.
pub fn register_all() -> DialectRegistry {
    let mut registry = DialectRegistry::new();
    register_into(&mut registry);
    registry
}

/// Registers every dialect of this crate into an existing registry.
pub fn register_into(registry: &mut DialectRegistry) {
    builtin::register(registry);
    func::register(registry);
    arith::register(registry);
    scf::register(registry);
    tensor::register(registry);
    memref::register(registry);
    linalg::register(registry);
    varith::register(registry);
    dmp::register(registry);
    stencil::register(registry);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_dialects_registered() {
        let registry = register_all();
        for dialect in [
            "builtin", "func", "arith", "scf", "tensor", "memref", "linalg", "varith", "dmp",
            "stencil",
        ] {
            assert!(registry.has_dialect(dialect), "missing dialect {dialect}");
        }
        assert_eq!(registry.dialect_names().len(), 10);
    }
}
