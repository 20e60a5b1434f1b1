//! Operation builder with an insertion point.
//!
//! [`OpBuilder`] wraps a mutable [`IrContext`] plus an insertion point and
//! offers convenience methods for creating operations in place.  Dialect
//! crates build their typed helpers (`arith::addf`, `stencil::apply`, ...)
//! on top of it.

use crate::attributes::{AttrMap, Attribute};
use crate::ir::{BlockId, IrContext, OpId, RegionId, ValueId};
use crate::types::Type;

/// Where newly-built operations are inserted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InsertPoint {
    /// Target block.
    pub block: BlockId,
    /// Index within the block at which the next op is inserted.
    pub index: usize,
}

/// A specification for building one operation.
#[derive(Debug, Clone, Default)]
pub struct OpSpec {
    /// Fully-qualified operation name.
    pub name: String,
    /// SSA operands.
    pub operands: Vec<ValueId>,
    /// Result types.
    pub result_types: Vec<Type>,
    /// Attributes.
    pub attrs: Vec<(String, Attribute)>,
    /// Number of (initially empty) regions to create.
    pub num_regions: usize,
}

impl OpSpec {
    /// Starts a spec for the given operation name.
    pub fn new(name: impl Into<String>) -> Self {
        Self { name: name.into(), ..Default::default() }
    }

    /// Adds operands.
    pub fn operands(mut self, operands: impl IntoIterator<Item = ValueId>) -> Self {
        self.operands.extend(operands);
        self
    }

    /// Adds result types.
    pub fn results(mut self, types: impl IntoIterator<Item = Type>) -> Self {
        self.result_types.extend(types);
        self
    }

    /// Adds one attribute.
    pub fn attr(mut self, name: impl Into<String>, attr: Attribute) -> Self {
        self.attrs.push((name.into(), attr));
        self
    }

    /// Requests `n` empty regions.
    pub fn regions(mut self, n: usize) -> Self {
        self.num_regions = n;
        self
    }
}

/// A builder that creates operations at an insertion point.
#[derive(Debug)]
pub struct OpBuilder<'ctx> {
    ctx: &'ctx mut IrContext,
    ip: Option<InsertPoint>,
}

impl<'ctx> OpBuilder<'ctx> {
    /// Creates a builder with no insertion point (ops are left detached).
    pub fn new(ctx: &'ctx mut IrContext) -> Self {
        Self { ctx, ip: None }
    }

    /// Creates a builder inserting at the end of `block`.
    pub fn at_end(ctx: &'ctx mut IrContext, block: BlockId) -> Self {
        let index = ctx.block_ops(block).len();
        Self { ctx, ip: Some(InsertPoint { block, index }) }
    }

    /// Creates a builder inserting at the start of `block`.
    pub fn at_start(ctx: &'ctx mut IrContext, block: BlockId) -> Self {
        Self { ctx, ip: Some(InsertPoint { block, index: 0 }) }
    }

    /// Creates a builder inserting right before `op`.
    pub fn before(ctx: &'ctx mut IrContext, op: OpId) -> Self {
        let block = ctx.parent_block(op).expect("op must be attached to a block");
        let index = ctx.op_index_in_block(op).expect("op must be in its block");
        Self { ctx, ip: Some(InsertPoint { block, index }) }
    }

    /// Creates a builder inserting right after `op`.
    pub fn after(ctx: &'ctx mut IrContext, op: OpId) -> Self {
        let block = ctx.parent_block(op).expect("op must be attached to a block");
        let index = ctx.op_index_in_block(op).expect("op must be in its block") + 1;
        Self { ctx, ip: Some(InsertPoint { block, index }) }
    }

    /// Underlying context.
    pub fn ctx(&mut self) -> &mut IrContext {
        self.ctx
    }

    /// Underlying context (shared).
    pub fn ctx_ref(&self) -> &IrContext {
        self.ctx
    }

    /// Builds and inserts an operation according to `spec`.
    pub fn insert(&mut self, spec: OpSpec) -> OpId {
        let mut attrs = AttrMap::new();
        for (k, v) in spec.attrs {
            attrs.insert(k, v);
        }
        let op = self.ctx.create_op(
            spec.name,
            spec.operands,
            spec.result_types,
            attrs,
            spec.num_regions,
        );
        if let Some(ip) = &mut self.ip {
            self.ctx.insert_op(ip.block, ip.index, op);
            ip.index += 1;
        }
        op
    }

    /// Builds an op and returns its only result value.
    ///
    /// # Panics
    /// Panics if the op does not produce exactly one result.
    pub fn insert_value(&mut self, spec: OpSpec) -> ValueId {
        let op = self.insert(spec);
        assert_eq!(
            self.ctx.results(op).len(),
            1,
            "insert_value requires exactly one result, op {} has {}",
            self.ctx.op_name(op),
            self.ctx.results(op).len()
        );
        self.ctx.result(op, 0)
    }

    /// Adds a block to a region and returns it.
    pub fn add_block(&mut self, region: RegionId, arg_types: Vec<Type>) -> BlockId {
        self.ctx.add_block(region, arg_types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_inserts_in_order() {
        let mut ctx = IrContext::new();
        let module = ctx.create_op("builtin.module", vec![], vec![], AttrMap::new(), 1);
        let body = ctx.add_block(ctx.op_region(module, 0), vec![]);
        let mut b = OpBuilder::at_end(&mut ctx, body);
        let c0 = b.insert(OpSpec::new("arith.constant").results([Type::f32()]));
        let c1 = b.insert(OpSpec::new("arith.constant").results([Type::f32()]));
        assert_eq!(ctx.block_ops(body), &[c0, c1]);
    }

    #[test]
    fn builder_before_and_after() {
        let mut ctx = IrContext::new();
        let module = ctx.create_op("builtin.module", vec![], vec![], AttrMap::new(), 1);
        let body = ctx.add_block(ctx.op_region(module, 0), vec![]);
        let mut b = OpBuilder::at_end(&mut ctx, body);
        let first = b.insert(OpSpec::new("t.first"));
        let last = b.insert(OpSpec::new("t.last"));
        let mut b = OpBuilder::before(&mut ctx, last);
        let mid = b.insert(OpSpec::new("t.mid"));
        assert_eq!(ctx.block_ops(body), &[first, mid, last]);
        let mut b = OpBuilder::after(&mut ctx, first);
        let second = b.insert(OpSpec::new("t.second"));
        assert_eq!(ctx.block_ops(body), &[first, second, mid, last]);
    }

    #[test]
    fn insert_value_returns_single_result() {
        let mut ctx = IrContext::new();
        let module = ctx.create_op("builtin.module", vec![], vec![], AttrMap::new(), 1);
        let body = ctx.add_block(ctx.op_region(module, 0), vec![]);
        let mut b = OpBuilder::at_end(&mut ctx, body);
        let v = b.insert_value(
            OpSpec::new("arith.constant").results([Type::f32()]).attr("value", Attribute::f32(1.0)),
        );
        assert_eq!(ctx.value_type(v), &Type::f32());
    }

    #[test]
    fn detached_builder_leaves_op_unattached() {
        let mut ctx = IrContext::new();
        let mut b = OpBuilder::new(&mut ctx);
        let op = b.insert(OpSpec::new("t.detached"));
        assert_eq!(ctx.parent_block(op), None);
    }

    #[test]
    fn spec_with_regions() {
        let mut ctx = IrContext::new();
        let mut b = OpBuilder::new(&mut ctx);
        let op = b.insert(OpSpec::new("scf.for").regions(1));
        assert_eq!(ctx.op_regions(op).len(), 1);
    }
}
