//! Group 1 transformations: decomposition and data dependencies
//! (Section 5.1 of the paper).
//!
//! * `decompose-products` rewrites degree-2 (product) terms of polynomial
//!   stencil bodies into explicit elementwise-product applies over fresh
//!   internal scratch fields, so every apply the rest of the pipeline sees
//!   is either linear or a bare two-factor product.
//! * `distribute-stencil` decomposes the x/y dimensions across the WSE's
//!   2-D grid of PEs and inserts `dmp.swap` operations describing the halo
//!   exchanges each `stencil.apply` requires.
//! * `tensorize-z` converts the three-dimensional grid of `f32` scalars
//!   into a two-dimensional grid of `tensor<z x f32>` columns, so that each
//!   stencil element (one column) maps to an individual PE.

use std::collections::HashMap;

use wse_dialects::dmp::{Exchange, Topology};
use wse_dialects::{arith, dmp, stencil, tensor};
use wse_ir::{Attribute, IrContext, OpBuilder, OpId, Pass, PassError, PassResult, Type, ValueId};

use crate::analysis::{analyze_apply, Factor, LinearCombination, Term};
use crate::opt_passes::{add_internal_field, emit_combination_body, enclosing_func};

/// Encodes polynomial combinations as an attribute so later passes can
/// reuse the analysis without re-deriving it from a rewritten body.  Each
/// term is `[input, offset, coeff]`, extended with `[input2, offset2]` for
/// degree-2 product terms (the shorter form stays valid for linear terms,
/// keeping the encoding backward compatible).
pub fn combinations_to_attr(combos: &[LinearCombination]) -> Attribute {
    Attribute::Array(
        combos
            .iter()
            .map(|combo| {
                Attribute::Array(
                    std::iter::once(Attribute::f32(combo.constant))
                        .chain(combo.terms.iter().map(|t| {
                            let mut parts = vec![
                                Attribute::int(t.input as i64),
                                Attribute::IndexArray(t.offset.clone()),
                                Attribute::f32(t.coeff),
                            ];
                            if let Some(f2) = &t.factor2 {
                                parts.push(Attribute::int(f2.input as i64));
                                parts.push(Attribute::IndexArray(f2.offset.clone()));
                            }
                            Attribute::Array(parts)
                        }))
                        .collect(),
                )
            })
            .collect(),
    )
}

/// Decodes polynomial combinations from their attribute form.
pub fn combinations_from_attr(attr: &Attribute) -> Option<Vec<LinearCombination>> {
    let combos = attr.as_array()?;
    let mut out = Vec::new();
    for combo in combos {
        let items = combo.as_array()?;
        let constant = items.first()?.as_float()? as f32;
        let mut terms = Vec::new();
        for item in &items[1..] {
            let parts = item.as_array()?;
            let factor2 = match parts.get(3) {
                Some(input2) => Some(Factor {
                    input: input2.as_int()? as usize,
                    offset: parts.get(4)?.as_index_array()?.to_vec(),
                }),
                None => None,
            };
            terms.push(crate::analysis::Term {
                input: parts.first()?.as_int()? as usize,
                offset: parts.get(1)?.as_index_array()?.to_vec(),
                coeff: parts.get(2)?.as_float()? as f32,
                factor2,
            });
        }
        out.push(LinearCombination { terms, constant });
    }
    Some(out)
}

/// Attribute key under which the analysis is cached on an apply.
pub const COMBINATIONS_ATTR: &str = "stencil_terms";

/// Computes the halo exchanges required by a set of combinations: one
/// exchange per cardinal direction whose width is the largest offset in
/// that direction.
pub fn exchanges_for(combos: &[LinearCombination]) -> Vec<Exchange> {
    let mut widths = [0i64; 4]; // +x, -x, +y, -y
    for combo in combos {
        for factor in combo.terms.iter().flat_map(crate::analysis::Term::factors) {
            let dx = factor.offset.first().copied().unwrap_or(0);
            let dy = factor.offset.get(1).copied().unwrap_or(0);
            if dx > 0 {
                widths[0] = widths[0].max(dx);
            }
            if dx < 0 {
                widths[1] = widths[1].max(-dx);
            }
            if dy > 0 {
                widths[2] = widths[2].max(dy);
            }
            if dy < 0 {
                widths[3] = widths[3].max(-dy);
            }
        }
    }
    let mut exchanges = Vec::new();
    // A PE needs data *from* the +x neighbor to evaluate a +x offset, so
    // the exchange descriptor records the neighbor the data comes from.
    if widths[0] > 0 {
        exchanges.push(Exchange::new(1, 0, widths[0]));
    }
    if widths[1] > 0 {
        exchanges.push(Exchange::new(-1, 0, widths[1]));
    }
    if widths[2] > 0 {
        exchanges.push(Exchange::new(0, 1, widths[2]));
    }
    if widths[3] > 0 {
        exchanges.push(Exchange::new(0, -1, widths[3]));
    }
    exchanges
}

// --------------------------------------------------------------------------
// decompose-products
// --------------------------------------------------------------------------

/// Rewrites polynomial stencil bodies into linear ones by hoisting every
/// degree-2 term `coeff · a[off_a] · b[off_b]` into its own *product
/// apply* — a bare `a[off_a] * b[off_b]` stored to a fresh internal
/// scratch field — and replacing the term with `coeff · product[0]` in the
/// consumer.  Downstream, the product apply lowers to an elementwise Mul
/// kernel and the consumer stays on the existing linear Mac path; the
/// scratch fields ride the `internal_fields` plumbing, so they are real PE
/// buffers but not observable program state.
///
/// Applies whose analysis *fails* (degree > 2, unsupported ops) are left
/// untouched: the error keeps surfacing at `distribute-stencil` with its
/// own stable code.  Applies that already *are* bare products pass through
/// unchanged — they need no scratch field.
#[derive(Debug, Default, Clone, Copy)]
pub struct DecomposeProducts;

/// True for the shape a product apply itself has: one result computing a
/// single unit-coefficient degree-2 term.  The actor lowering consumes
/// this shape directly as an elementwise-product kernel.
pub fn is_bare_product(combos: &[LinearCombination]) -> bool {
    combos.len() == 1
        && combos[0].constant == 0.0
        && combos[0].terms.len() == 1
        && combos[0].terms[0].coeff == 1.0
        && combos[0].terms[0].factor2.is_some()
}

impl Pass for DecomposeProducts {
    fn name(&self) -> &str {
        "decompose-products"
    }

    fn run(&self, ctx: &mut IrContext, module: OpId) -> PassResult {
        for apply in ctx.walk_named(module, stencil::APPLY) {
            let Ok(combos) = analyze_apply(ctx, apply) else { continue };
            if combos.iter().all(|c| c.degree() < 2) || is_bare_product(&combos) {
                continue;
            }
            decompose_apply(ctx, apply, &combos)
                .map_err(|m| PassError::new(self.name(), m).with_code("malformed-body"))?;
        }
        Ok(())
    }
}

/// The first `stencil.store` consuming one of the apply's results.
fn first_store_of(ctx: &IrContext, apply: OpId) -> Option<OpId> {
    ctx.results(apply)
        .iter()
        .flat_map(|&r| ctx.uses_of(r))
        .find(|(op, idx)| ctx.op_name(*op) == stencil::STORE && *idx == 0)
        .map(|(store, _)| store)
}

/// The `field_names` entry for a kernel entry-block argument.
fn field_arg_name(ctx: &IrContext, func_op: OpId, value: ValueId) -> Option<String> {
    let entry = wse_dialects::func::func_body(ctx, func_op)?;
    let idx = ctx.block_args(entry).iter().position(|&a| a == value)?;
    ctx.attr(func_op, "field_names")
        .and_then(Attribute::as_array)?
        .get(idx)?
        .as_str()
        .map(str::to_string)
}

/// Splits every degree-2 term of `apply` out into a product apply + scratch
/// store, then rebuilds `apply` with the now-linear combinations.
fn decompose_apply(
    ctx: &mut IrContext,
    apply: OpId,
    combos: &[LinearCombination],
) -> Result<(), String> {
    let func_op = enclosing_func(ctx, apply).ok_or("apply is not inside a kernel function")?;
    let operands = ctx.operands(apply).to_vec();
    let results = ctx.results(apply).to_vec();
    let consumer_store = first_store_of(ctx, apply);

    // Store bounds for the scratch fields: the consumer's own store when it
    // has one, else the bounds encoded in its result temp type.
    let bounds = consumer_store
        .and_then(|store| stencil::store_bounds(ctx, store))
        .or_else(|| stencil::type_bounds(ctx.value_type(results[0])))
        .ok_or("cannot derive store bounds for product scratch fields")?;
    let rank = bounds.rank();

    // Scratch fields clone the storage type (and base name) of the field
    // the consumer writes, falling back to a halo-free field over the
    // consumer bounds — the product is only ever read at offset zero.
    let store_target = consumer_store.map(|store| ctx.operand(store, 1));
    let scratch_ty = store_target
        .map(|f| ctx.value_type(f).clone())
        .unwrap_or_else(|| stencil::field_type(&bounds, Type::f32()));
    let base_name = store_target
        .and_then(|f| field_arg_name(ctx, func_op, f))
        .unwrap_or_else(|| "t".to_string());

    // A distinct factor pair: (input a, offset a, input b, offset b).
    type FactorPair = (usize, Vec<i64>, usize, Vec<i64>);
    let mut new_operands = operands.clone();
    let mut new_combos: Vec<LinearCombination> = Vec::new();
    // One scratch field per distinct factor pair of this apply.
    let mut made: Vec<(FactorPair, usize)> = Vec::new();
    for combo in combos {
        let mut terms = Vec::new();
        for term in &combo.terms {
            let Some(f2) = &term.factor2 else {
                terms.push(term.clone());
                continue;
            };
            let key = (term.input, term.offset.clone(), f2.input, f2.offset.clone());
            let pos = match made.iter().find(|(k, _)| *k == key) {
                Some((_, pos)) => *pos,
                None => {
                    let src_a = operands[term.input];
                    let src_b = operands[f2.input];
                    let (prod_operands, ia, ib) = if src_a == src_b {
                        (vec![src_a], 0, 0)
                    } else {
                        (vec![src_a, src_b], 0, 1)
                    };
                    let (scratch_arg, _) =
                        add_internal_field(ctx, func_op, scratch_ty.clone(), |n| {
                            format!("{base_name}__prod{n}")
                        })?;
                    let temp_ty = stencil::temp_type(&bounds, Type::f32());
                    let mut b = OpBuilder::before(ctx, apply);
                    let (prod, body) = stencil::build_apply(&mut b, prod_operands, vec![temp_ty]);
                    emit_combination_body(
                        ctx,
                        body,
                        &[LinearCombination {
                            terms: vec![Term {
                                input: ia,
                                offset: term.offset.clone(),
                                coeff: 1.0,
                                factor2: Some(Factor { input: ib, offset: f2.offset.clone() }),
                            }],
                            constant: 0.0,
                        }],
                    );
                    let result = ctx.result(prod, 0);
                    let mut b = OpBuilder::after(ctx, prod);
                    stencil::store(&mut b, result, scratch_arg, &bounds);
                    new_operands.push(result);
                    let pos = new_operands.len() - 1;
                    made.push((key, pos));
                    pos
                }
            };
            terms.push(Term {
                input: pos,
                offset: vec![0; rank],
                coeff: term.coeff,
                factor2: None,
            });
        }
        new_combos.push(LinearCombination { terms, constant: combo.constant }.simplified());
    }

    // Rebuild the consumer linearly over the extended operand list.
    let result_types: Vec<Type> = results.iter().map(|&r| ctx.value_type(r).clone()).collect();
    let mut b = OpBuilder::before(ctx, apply);
    let (new_apply, body) = stencil::build_apply(&mut b, new_operands, result_types);
    emit_combination_body(ctx, body, &new_combos);
    let new_results = ctx.results(new_apply).to_vec();
    for (&old, &new) in results.iter().zip(&new_results) {
        ctx.replace_all_uses(old, new);
    }
    ctx.erase_op(apply);
    Ok(())
}

// --------------------------------------------------------------------------
// distribute-stencil
// --------------------------------------------------------------------------

/// Inserts `dmp.swap` operations in front of every `stencil.apply` whose
/// body reads remote data, describing the decomposition across the PE grid.
#[derive(Debug, Clone, Copy)]
pub struct DistributeStencil {
    /// PE-grid extent in x.
    pub width: i64,
    /// PE-grid extent in y.
    pub height: i64,
}

impl Pass for DistributeStencil {
    fn name(&self) -> &str {
        "distribute-stencil"
    }

    fn run(&self, ctx: &mut IrContext, module: OpId) -> PassResult {
        let topology = Topology::new(self.width, self.height);
        for apply in ctx.walk_named(module, stencil::APPLY) {
            let combos = analyze_apply(ctx, apply).map_err(|e| e.into_pass_error(self.name()))?;
            ctx.set_attr(apply, COMBINATIONS_ATTR, combinations_to_attr(&combos));
            let exchanges = exchanges_for(&combos);
            if exchanges.is_empty() {
                continue;
            }
            // Operands that are accessed remotely get a dmp.swap.  An input
            // counts as remote when *any factor* reads it at a non-zero x/y
            // offset.
            let remote_inputs: Vec<usize> = {
                let mut v: Vec<usize> = combos
                    .iter()
                    .flat_map(|c| c.terms.iter().flat_map(crate::analysis::Term::factors))
                    .filter(|f| {
                        f.offset.first().copied().unwrap_or(0) != 0
                            || f.offset.get(1).copied().unwrap_or(0) != 0
                    })
                    .map(|f| f.input)
                    .collect();
                v.sort_unstable();
                v.dedup();
                v
            };
            let operands = ctx.operands(apply).to_vec();
            let mut new_operands = operands.clone();
            for input in remote_inputs {
                let mut b = OpBuilder::before(ctx, apply);
                let swapped = dmp::swap(&mut b, operands[input], topology, &exchanges);
                new_operands[input] = swapped;
            }
            ctx.set_operands(apply, new_operands);
        }
        Ok(())
    }
}

// --------------------------------------------------------------------------
// tensorize-z
// --------------------------------------------------------------------------

/// Converts the 3-D scalar stencil into a 2-D stencil over `tensor<z x f32>`
/// columns and regenerates apply bodies accordingly (Listing 3).
#[derive(Debug, Default, Clone, Copy)]
pub struct TensorizeZ;

impl TensorizeZ {
    fn tensorize_type(ty: &Type) -> Option<Type> {
        let bounds = stencil::type_bounds(ty)?;
        if bounds.rank() != 3 {
            return None;
        }
        let elem = stencil::type_element(ty)?;
        if !matches!(elem, Type::Float(_)) {
            return None;
        }
        let z_len = bounds.ub[2] - bounds.lb[2];
        let xy = bounds.take_dims(2);
        let column = Type::tensor(vec![z_len], elem);
        Some(if stencil::is_field_type(ty) {
            stencil::field_type(&xy, column)
        } else {
            stencil::temp_type(&xy, column)
        })
    }
}

impl Pass for TensorizeZ {
    fn name(&self) -> &str {
        "tensorize-z"
    }

    fn run(&self, ctx: &mut IrContext, module: OpId) -> PassResult {
        // 1. Analyze every apply first (bodies are still scalar 3-D).
        let applies = ctx.walk_named(module, stencil::APPLY);
        let mut all_combos: HashMap<OpId, Vec<LinearCombination>> = HashMap::new();
        for &apply in &applies {
            let combos = match ctx.attr(apply, COMBINATIONS_ATTR).and_then(combinations_from_attr) {
                Some(combos) => combos,
                None => analyze_apply(ctx, apply).map_err(|e| e.into_pass_error(self.name()))?,
            };
            all_combos.insert(apply, combos);
        }

        // 2. Rewrite every stencil-typed value in the module to its 2-D /
        //    tensorized counterpart.
        let mut z_interior: i64 = 0;
        let mut z_storage_lb: i64 = 0;
        for op in ctx.walk(module) {
            for value in ctx.results(op).to_vec().into_iter().chain(ctx.operands(op).to_vec()) {
                let ty = ctx.value_type(value).clone();
                if let Some(bounds) = stencil::type_bounds(&ty) {
                    if bounds.rank() == 3 {
                        if stencil::is_temp_type(&ty) && bounds.lb[2] == 0 {
                            z_interior = z_interior.max(bounds.ub[2]);
                        }
                        z_storage_lb = z_storage_lb.min(bounds.lb[2]);
                    }
                }
                if let Some(new_ty) = Self::tensorize_type(&ty) {
                    ctx.set_value_type(value, new_ty);
                }
            }
            for &region in ctx.op_regions(op).to_vec().iter() {
                for &block in ctx.region_blocks(region).to_vec().iter() {
                    for arg in ctx.block_args(block).to_vec() {
                        let ty = ctx.value_type(arg).clone();
                        if let Some(new_ty) = Self::tensorize_type(&ty) {
                            ctx.set_value_type(arg, new_ty);
                        }
                    }
                }
            }
        }
        // Also rewrite function signatures and store bounds.
        for func_op in ctx.walk_named(module, wse_dialects::func::FUNC) {
            if let Some(Type::Function { inputs, results }) =
                ctx.attr(func_op, "function_type").and_then(Attribute::as_type).cloned()
            {
                let inputs = inputs
                    .iter()
                    .map(|t| Self::tensorize_type(t).unwrap_or_else(|| t.clone()))
                    .collect();
                let results = results
                    .iter()
                    .map(|t| Self::tensorize_type(t).unwrap_or_else(|| t.clone()))
                    .collect();
                ctx.set_attr(
                    func_op,
                    "function_type",
                    Attribute::Type(Type::Function { inputs, results }),
                );
            }
        }
        for store in ctx.walk_named(module, stencil::STORE) {
            if let Some(bounds) = stencil::store_bounds(ctx, store) {
                if bounds.rank() == 3 {
                    let xy = bounds.take_dims(2);
                    ctx.set_attr(store, "lb", Attribute::IndexArray(xy.lb));
                    ctx.set_attr(store, "ub", Attribute::IndexArray(xy.ub));
                }
            }
        }

        let z_halo = -z_storage_lb;

        // 3. Regenerate every apply body in tensorized form.
        for &apply in &applies {
            let combos = &all_combos[&apply];
            let z_len = z_interior.max(1);
            regenerate_tensorized_body(ctx, apply, combos, z_len, z_halo);
            ctx.set_attr(apply, COMBINATIONS_ATTR, combinations_to_attr(combos));
            ctx.set_attr(apply, "z_interior", Attribute::int(z_len));
            ctx.set_attr(apply, "z_halo", Attribute::int(z_halo));
        }
        Ok(())
    }
}

/// Rebuilds an apply body as 2-D accesses over `tensor<z x f32>` columns:
/// every term becomes an access at `[dx, dy]`, an `extract_slice` selecting
/// the `dz`-shifted window and a multiply-accumulate chain.
fn regenerate_tensorized_body(
    ctx: &mut IrContext,
    apply: OpId,
    combos: &[LinearCombination],
    z_interior: i64,
    z_halo: i64,
) {
    let body = stencil::apply_body(ctx, apply).expect("apply body");
    // Erase the old scalar body.
    for op in ctx.block_ops(body).to_vec().into_iter().rev() {
        ctx.erase_op(op);
    }
    let args = ctx.block_args(body).to_vec();
    let column_ty = Type::tensor(vec![z_interior], Type::f32());
    let mut results = Vec::new();
    let mut b = OpBuilder::at_end(ctx, body);
    for combo in combos {
        let mut acc: Option<ValueId> = None;
        for term in &combo.terms {
            // One windowed read per factor; degree-2 terms multiply their
            // two windows before the coefficient is applied.
            let mut value: Option<ValueId> = None;
            for factor in term.factors() {
                let dx = factor.offset.first().copied().unwrap_or(0);
                let dy = factor.offset.get(1).copied().unwrap_or(0);
                let dz = factor.offset.get(2).copied().unwrap_or(0);
                let column_storage_ty = b.ctx_ref().value_type(args[factor.input]).clone();
                let storage_elem = stencil::type_element(&column_storage_ty)
                    .unwrap_or_else(|| Type::tensor(vec![z_interior + 2 * z_halo], Type::f32()));
                // The operand's own z halo (forwarded interior temps have none).
                let elem_len = storage_elem.shape().map(|s| s[0]).unwrap_or(z_interior);
                let own_halo = (elem_len - z_interior) / 2;
                let access = stencil::access(&mut b, args[factor.input], &[dx, dy], storage_elem);
                let window = tensor::extract_slice(&mut b, access, own_halo + dz, z_interior);
                value = Some(match value {
                    Some(prev) => arith::mulf(&mut b, prev, window),
                    None => window,
                });
            }
            let window = value.expect("term has at least one factor");
            let coeff = arith::constant_f32(&mut b, term.coeff, column_ty.clone());
            let scaled = arith::mulf(&mut b, window, coeff);
            acc = Some(match acc {
                Some(prev) => arith::addf(&mut b, prev, scaled),
                None => scaled,
            });
        }
        let value =
            acc.unwrap_or_else(|| arith::constant_f32(&mut b, combo.constant, column_ty.clone()));
        results.push(value);
    }
    stencil::build_return(ctx, body, results);
}

/// Convenience: reads the cached combination attribute of an apply.
pub fn apply_combinations(ctx: &IrContext, apply: OpId) -> Option<Vec<LinearCombination>> {
    ctx.attr(apply, COMBINATIONS_ATTR).and_then(combinations_from_attr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wse_frontends::{benchmarks::Benchmark, emit_stencil_ir};
    use wse_ir::verify;

    fn run_group1(benchmark: Benchmark) -> (IrContext, OpId) {
        let ir = emit_stencil_ir(&benchmark.tiny_program()).unwrap();
        let mut ctx = ir.ctx;
        let (x, y) = (benchmark.tiny_program().grid.x, benchmark.tiny_program().grid.y);
        DistributeStencil { width: x, height: y }.run(&mut ctx, ir.module).unwrap();
        TensorizeZ.run(&mut ctx, ir.module).unwrap();
        (ctx, ir.module)
    }

    #[test]
    fn combination_attr_roundtrip() {
        let combos = vec![LinearCombination {
            terms: vec![crate::analysis::Term {
                input: 1,
                offset: vec![1, 0, -2],
                coeff: 0.25,
                factor2: None,
            }],
            constant: 0.5,
        }];
        let attr = combinations_to_attr(&combos);
        assert_eq!(combinations_from_attr(&attr), Some(combos));
    }

    #[test]
    fn product_term_attr_roundtrip() {
        let combos = vec![LinearCombination {
            terms: vec![
                crate::analysis::Term {
                    input: 0,
                    offset: vec![0, 0, 0],
                    coeff: -0.5,
                    factor2: Some(Factor { input: 1, offset: vec![1, 0, -1] }),
                },
                crate::analysis::Term {
                    input: 1,
                    offset: vec![0, 1, 0],
                    coeff: 2.0,
                    factor2: None,
                },
            ],
            constant: 0.0,
        }];
        let attr = combinations_to_attr(&combos);
        assert_eq!(combinations_from_attr(&attr), Some(combos));
    }

    #[test]
    fn exchange_widths_follow_the_radius() {
        let ir = emit_stencil_ir(&Benchmark::Seismic25.tiny_program()).unwrap();
        let apply = ir.ctx.walk_named(ir.module, stencil::APPLY)[0];
        let combos = analyze_apply(&ir.ctx, apply).unwrap();
        let exchanges = exchanges_for(&combos);
        assert_eq!(exchanges.len(), 4);
        assert!(exchanges.iter().all(|e| e.width == 4), "25-pt stencil needs width-4 halos");
    }

    #[test]
    fn distribute_inserts_swaps() {
        let ir = emit_stencil_ir(&Benchmark::Jacobian.tiny_program()).unwrap();
        let mut ctx = ir.ctx;
        DistributeStencil { width: 6, height: 6 }.run(&mut ctx, ir.module).unwrap();
        let swaps = ctx.walk_named(ir.module, dmp::SWAP);
        assert_eq!(swaps.len(), 1);
        assert_eq!(dmp::swap_topology(&ctx, swaps[0]), Some(Topology::new(6, 6)));
        assert_eq!(dmp::swap_exchanges(&ctx, swaps[0]).len(), 4);
        // The apply now consumes the swap's result.
        let apply = ctx.walk_named(ir.module, stencil::APPLY)[0];
        assert_eq!(ctx.defining_op(ctx.operand(apply, 0)), Some(swaps[0]));
        assert!(verify(&ctx, ir.module, &wse_csl::register_all()).is_empty());
    }

    #[test]
    fn local_only_apply_gets_no_swap() {
        // The acoustic benchmark's first equation (u_prev = u) has no remote
        // accesses, so only the second apply gets a swap.
        let ir = emit_stencil_ir(&Benchmark::Acoustic.tiny_program()).unwrap();
        let mut ctx = ir.ctx;
        DistributeStencil { width: 7, height: 7 }.run(&mut ctx, ir.module).unwrap();
        assert_eq!(ctx.walk_named(ir.module, dmp::SWAP).len(), 1);
    }

    #[test]
    fn tensorize_rewrites_types_and_bodies() {
        let (ctx, module) = run_group1(Benchmark::Jacobian);
        let registry = wse_csl::register_all();
        let errors = verify(&ctx, module, &registry);
        assert!(errors.is_empty(), "verification failed: {errors:?}");
        let apply = ctx.walk_named(module, stencil::APPLY)[0];
        // Result is now a 2-D temp of tensors.
        let result_ty = ctx.value_type(ctx.result(apply, 0));
        let bounds = stencil::type_bounds(result_ty).unwrap();
        assert_eq!(bounds.rank(), 2);
        let elem = stencil::type_element(result_ty).unwrap();
        assert_eq!(elem, Type::tensor(vec![12], Type::f32()));
        // Accesses are now 2-D and z-offsets became extract_slices.
        for offset in stencil::collect_access_offsets(&ctx, apply) {
            assert_eq!(offset.len(), 2);
        }
        assert!(!ctx.walk_named(module, tensor::EXTRACT_SLICE).is_empty());
        // The cached combination analysis survives on the op.
        assert_eq!(apply_combinations(&ctx, apply).unwrap()[0].terms.len(), 6);
        assert_eq!(ctx.attr_int(apply, "z_interior"), Some(12));
        assert_eq!(ctx.attr_int(apply, "z_halo"), Some(1));
    }

    #[test]
    fn tensorize_all_benchmarks_verify() {
        for benchmark in Benchmark::ALL {
            let (ctx, module) = run_group1(benchmark);
            let errors = verify(&ctx, module, &wse_csl::register_all());
            assert!(errors.is_empty(), "{}: {errors:?}", benchmark.name());
        }
    }
}
