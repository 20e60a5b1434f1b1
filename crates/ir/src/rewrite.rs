//! Pattern rewriting: [`RewritePattern`] and a greedy rewrite driver.
//!
//! This mirrors MLIR's greedy pattern rewriter at the granularity the
//! pipeline needs: patterns match a root operation by name, perform an
//! arbitrary rewrite through the [`Rewriter`] facade and report whether
//! they changed anything.  The driver iterates to a fixed point (bounded to
//! protect against non-converging pattern sets).

use crate::builder::OpBuilder;
use crate::ir::{IrContext, IrError, IrResult, OpId, ValueId};

/// A rewrite pattern anchored on operations with a specific name.
pub trait RewritePattern {
    /// Human-readable pattern name (for debugging and statistics).
    fn name(&self) -> &str;

    /// Operation name this pattern anchors on, or `None` to try every op.
    fn root_op(&self) -> Option<&str> {
        None
    }

    /// Attempts to match and rewrite `op`.  Returns `Ok(true)` if the IR was
    /// changed, `Ok(false)` if the pattern did not apply.
    fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>, op: OpId) -> IrResult<bool>;
}

/// Mutation facade handed to patterns.
///
/// It wraps the [`IrContext`] and provides the common rewrite idioms
/// (replace an op with values, erase an op, build new ops before the root).
pub struct Rewriter<'a> {
    ctx: &'a mut IrContext,
}

impl<'a> Rewriter<'a> {
    /// Creates a rewriter over a context.
    pub fn new(ctx: &'a mut IrContext) -> Self {
        Self { ctx }
    }

    /// Shared access to the context.
    pub fn ctx(&self) -> &IrContext {
        self.ctx
    }

    /// Builder inserting immediately before `op`.
    pub fn builder_before(&mut self, op: OpId) -> OpBuilder<'_> {
        OpBuilder::before(self.ctx, op)
    }

    /// Replaces all uses of `op`'s results with `values` and erases `op`.
    ///
    /// # Errors
    /// Returns an error if the number of replacement values does not match
    /// the number of results.
    pub fn replace_op(&mut self, op: OpId, values: &[ValueId]) -> IrResult<()> {
        let results = self.ctx.results(op).to_vec();
        if results.len() != values.len() {
            return Err(IrError::new(format!(
                "replace_op: op {} has {} results but {} replacement values were given",
                self.ctx.op_name(op),
                results.len(),
                values.len()
            )));
        }
        for (old, new) in results.iter().zip(values) {
            self.ctx.replace_all_uses(*old, *new);
        }
        self.ctx.erase_op(op);
        Ok(())
    }

    /// Erases an op that has no remaining uses of its results.
    ///
    /// # Errors
    /// Returns an error if any result still has uses.
    pub fn erase_op(&mut self, op: OpId) -> IrResult<()> {
        for &r in self.ctx.results(op) {
            if self.ctx.has_uses(r) {
                return Err(IrError::new(format!(
                    "erase_op: result of {} still has uses",
                    self.ctx.op_name(op)
                )));
            }
        }
        self.ctx.erase_op(op);
        Ok(())
    }

    /// Replaces all uses of one value with another.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        self.ctx.replace_all_uses(old, new);
    }
}

/// Outcome of a greedy rewrite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RewriteOutcome {
    /// Number of successful pattern applications.
    pub applications: usize,
    /// Whether the driver reached a fixed point (true) or hit the iteration
    /// bound (false).
    pub converged: bool,
}

/// Maximum number of sweeps over the IR before giving up.
const MAX_ITERATIONS: usize = 64;

/// Applies `patterns` greedily to every op nested under `root` until no
/// pattern applies anymore.
pub fn apply_patterns_greedy(
    ctx: &mut IrContext,
    root: OpId,
    patterns: &[Box<dyn RewritePattern>],
) -> IrResult<RewriteOutcome> {
    let mut applications = 0;
    for _ in 0..MAX_ITERATIONS {
        let mut changed = false;
        let ops = ctx.walk(root);
        for op in ops {
            if !ctx.op_is_live(op) {
                continue;
            }
            for pattern in patterns {
                if let Some(anchor) = pattern.root_op() {
                    if ctx.op_name(op) != anchor {
                        continue;
                    }
                }
                if !ctx.op_is_live(op) {
                    break;
                }
                let mut rewriter = Rewriter::new(ctx);
                if pattern.match_and_rewrite(&mut rewriter, op)? {
                    applications += 1;
                    changed = true;
                    break;
                }
            }
        }
        if !changed {
            return Ok(RewriteOutcome { applications, converged: true });
        }
    }
    Ok(RewriteOutcome { applications, converged: false })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::{AttrMap, Attribute};
    use crate::builder::{OpBuilder, OpSpec};
    use crate::types::Type;

    /// Folds `arith.addf(x, x)` into `arith.mulf(x, 2.0)`.
    struct AddSelfToMul;

    impl RewritePattern for AddSelfToMul {
        fn name(&self) -> &str {
            "add-self-to-mul"
        }

        fn root_op(&self) -> Option<&str> {
            Some("arith.addf")
        }

        fn match_and_rewrite(&self, rewriter: &mut Rewriter<'_>, op: OpId) -> IrResult<bool> {
            let operands = rewriter.ctx().operands(op).to_vec();
            if operands.len() != 2 || operands[0] != operands[1] {
                return Ok(false);
            }
            let ty = rewriter.ctx().value_type(operands[0]).clone();
            let mut b = rewriter.builder_before(op);
            let two = b.insert_value(
                OpSpec::new("arith.constant")
                    .results([ty.clone()])
                    .attr("value", Attribute::f32(2.0)),
            );
            let mul = b
                .insert_value(OpSpec::new("arith.mulf").operands([operands[0], two]).results([ty]));
            rewriter.replace_op(op, &[mul])?;
            Ok(true)
        }
    }

    fn build_add_chain(ctx: &mut IrContext) -> OpId {
        let module = ctx.create_op("builtin.module", vec![], vec![], AttrMap::new(), 1);
        let body = ctx.add_block(ctx.op_region(module, 0), vec![]);
        let mut b = OpBuilder::at_end(ctx, body);
        let c = b.insert_value(OpSpec::new("arith.constant").results([Type::f32()]));
        let add = b.insert_value(OpSpec::new("arith.addf").operands([c, c]).results([Type::f32()]));
        b.insert(OpSpec::new("func.return").operands([add]));
        module
    }

    #[test]
    fn greedy_rewrite_applies_pattern() {
        let mut ctx = IrContext::new();
        let module = build_add_chain(&mut ctx);
        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(AddSelfToMul)];
        let outcome = apply_patterns_greedy(&mut ctx, module, &patterns).unwrap();
        assert_eq!(outcome.applications, 1);
        assert!(outcome.converged);
        assert!(ctx.walk_named(module, "arith.addf").is_empty());
        assert_eq!(ctx.walk_named(module, "arith.mulf").len(), 1);
    }

    #[test]
    fn rewrite_is_idempotent_after_convergence() {
        let mut ctx = IrContext::new();
        let module = build_add_chain(&mut ctx);
        let patterns: Vec<Box<dyn RewritePattern>> = vec![Box::new(AddSelfToMul)];
        apply_patterns_greedy(&mut ctx, module, &patterns).unwrap();
        let outcome = apply_patterns_greedy(&mut ctx, module, &patterns).unwrap();
        assert_eq!(outcome.applications, 0);
        assert!(outcome.converged);
    }

    #[test]
    fn replace_op_rejects_arity_mismatch() {
        let mut ctx = IrContext::new();
        let module = build_add_chain(&mut ctx);
        let add = ctx.walk_named(module, "arith.addf")[0];
        let mut rewriter = Rewriter::new(&mut ctx);
        assert!(rewriter.replace_op(add, &[]).is_err());
    }

    #[test]
    fn erase_op_rejects_live_uses() {
        let mut ctx = IrContext::new();
        let module = build_add_chain(&mut ctx);
        let constant = ctx.walk_named(module, "arith.constant")[0];
        let mut rewriter = Rewriter::new(&mut ctx);
        assert!(rewriter.erase_op(constant).is_err());
        // The return's operand (the add) keeps the add alive; the constant is
        // used by the add, so both must fail to erase.
        let add = ctx.walk_named(module, "arith.addf")[0];
        let mut rewriter = Rewriter::new(&mut ctx);
        assert!(rewriter.erase_op(add).is_err());
    }
}
