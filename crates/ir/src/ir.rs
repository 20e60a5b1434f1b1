//! The arena-based IR graph: operations, regions, blocks and values.
//!
//! All IR entities live inside an owning [`Context`] and are referred to
//! by lightweight copyable handles ([`OpRef`], [`BlockRef`], [`RegionRef`],
//! [`ValueRef`]).  The structure follows MLIR (and pliron's `Context`
//! design): an operation owns a list of regions, a region owns a list of
//! blocks, a block owns an ordered list of operations and a list of block
//! arguments, and every operation produces zero or more result values.
//!
//! # Ownership and handle invalidation
//!
//! The [`Context`] is the single owner of every IR entity; handles are
//! plain arena indices and never dangle in the memory-safety sense, but
//! they can refer to *erased* entities:
//!
//! * Handles are only meaningful for the context that produced them.
//!   Using a handle with a different context (or after
//!   [`Context::reset`]) yields an unrelated entity or an out-of-bounds
//!   panic.
//! * [`Context::erase_op`] marks the operation, its nested
//!   regions/blocks/ops and all produced values dead; the handles remain
//!   valid to *query liveness* ([`Context::op_is_live`],
//!   [`Context::value_is_live`]) but must not be used to navigate.
//! * [`Context::reset`] invalidates every op/block/region/value handle at
//!   once while keeping the interned type/attribute storage alive:
//!   [`TypeRef`]/[`AttrRef`] handles survive a reset, which is what makes
//!   long-lived pooled contexts (see `wse_stencil::CompileService`) cheap
//!   to reuse across compiles.
//! * Interned [`TypeRef`]/[`AttrRef`] handles are never invalidated for
//!   the lifetime of the context: interned storage is append-only.

use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::attributes::{AttrMap, Attribute};
use crate::fxhash::{FxHashMap, FxHasher};
use crate::types::Type;

/// Identifier of an operation within a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) u32);

/// Identifier of a block within a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub(crate) u32);

/// Identifier of a region within a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub(crate) u32);

/// Identifier of an SSA value within a [`Context`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub(crate) u32);

/// Canonical handle name for operations (alias of [`OpId`]).
pub type OpRef = OpId;

/// Canonical handle name for blocks (alias of [`BlockId`]).
pub type BlockRef = BlockId;

/// Canonical handle name for regions (alias of [`RegionId`]).
pub type RegionRef = RegionId;

/// Canonical handle name for SSA values (alias of [`ValueId`]).
pub type ValueRef = ValueId;

/// Handle of an interned [`Type`] inside a [`Context`].
///
/// Obtained from [`Context::intern_type`]; two types are structurally
/// equal if and only if their `TypeRef`s are equal (within one context).
/// Never invalidated — interned storage is append-only and survives
/// [`Context::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TypeRef(pub(crate) u32);

/// Handle of an interned [`Attribute`] inside a [`Context`].
///
/// Same canonicalization guarantee as [`TypeRef`]: structural equality of
/// attributes is handle equality within one context, and handles survive
/// [`Context::reset`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AttrRef(pub(crate) u32);

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// How an SSA value is defined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValueDef {
    /// The `index`-th result of operation `op`.
    OpResult {
        /// Defining operation.
        op: OpId,
        /// Result index.
        index: usize,
    },
    /// The `index`-th argument of block `block`.
    BlockArg {
        /// Owning block.
        block: BlockId,
        /// Argument index.
        index: usize,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct ValueData {
    pub ty: TypeRef,
    pub def: ValueDef,
    pub live: bool,
}

/// The payload of an operation.
#[derive(Debug, Clone)]
pub struct OpData {
    /// Fully qualified operation name, e.g. `"stencil.apply"`.
    pub name: String,
    /// SSA operands.
    pub operands: Vec<ValueId>,
    /// SSA results.
    pub results: Vec<ValueId>,
    /// Named attributes.
    pub attrs: AttrMap,
    /// Regions owned by this operation.
    pub regions: Vec<RegionId>,
    /// Parent block (None for detached / top-level ops).
    pub parent_block: Option<BlockId>,
    pub(crate) live: bool,
}

/// The payload of a block.
#[derive(Debug, Clone)]
pub struct BlockData {
    /// Block arguments.
    pub args: Vec<ValueId>,
    /// Ordered operations.
    pub ops: Vec<OpId>,
    /// Parent region.
    pub parent_region: Option<RegionId>,
    pub(crate) live: bool,
}

/// The payload of a region.
#[derive(Debug, Clone)]
pub struct RegionData {
    /// Ordered blocks (the first block is the entry block).
    pub blocks: Vec<BlockId>,
    /// Owning operation.
    pub parent_op: Option<OpId>,
    pub(crate) live: bool,
}

/// Error raised by IR manipulation helpers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IrError {
    /// Human-readable error message.
    pub message: String,
}

impl IrError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> Self {
        Self { message: message.into() }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ir error: {}", self.message)
    }
}

impl std::error::Error for IrError {}

/// Result alias used throughout the IR crate.
pub type IrResult<T> = Result<T, IrError>;

/// The arena owning every operation, region, block, value, and the
/// interned type/attribute storage.
///
/// See the [module documentation](self) for the ownership and
/// handle-invalidation rules.
#[derive(Debug, Default, Clone)]
pub struct Context {
    ops: Vec<OpData>,
    blocks: Vec<BlockData>,
    regions: Vec<RegionData>,
    values: Vec<ValueData>,
    /// Interned type storage (append-only; survives [`Context::reset`]).
    types: Vec<Type>,
    /// Storage uniquer for types: structural value → canonical handle.
    type_map: FxHashMap<Type, TypeRef>,
    /// Interned attribute storage (append-only; survives reset).
    attr_storage: Vec<Attribute>,
    /// Storage uniquer for attributes.
    attr_map: FxHashMap<Attribute, AttrRef>,
}

/// Backwards-compatible name of [`Context`] (the pre-interning API).
pub type IrContext = Context;

impl Context {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears every operation, region, block and value while *keeping* the
    /// interned type/attribute storage and all arena capacity.
    ///
    /// This is the primitive behind context pooling: a long-lived context
    /// can be reused across compiles without re-interning the (heavily
    /// shared) types and without reallocating the arenas.  Every
    /// [`OpRef`]/[`BlockRef`]/[`RegionRef`]/[`ValueRef`] handed out before
    /// the reset is invalidated; [`TypeRef`]/[`AttrRef`] handles survive.
    pub fn reset(&mut self) {
        self.ops.clear();
        self.blocks.clear();
        self.regions.clear();
        self.values.clear();
    }

    // ------------------------------------------------------------- interning

    /// Interns a type, returning its canonical handle.
    ///
    /// Structurally equal types always return the same handle, so handle
    /// equality is structural equality (the proptest
    /// `interning_is_canonical` pins this).  The first occurrence pays one
    /// hash + clone; later occurrences are a map hit.
    pub fn intern_type(&mut self, ty: Type) -> TypeRef {
        if let Some(&r) = self.type_map.get(&ty) {
            return r;
        }
        let r = TypeRef(self.types.len() as u32);
        self.types.push(ty.clone());
        self.type_map.insert(ty, r);
        r
    }

    /// The interned type behind a handle.
    pub fn type_of(&self, r: TypeRef) -> &Type {
        &self.types[r.0 as usize]
    }

    /// Number of distinct interned types.
    pub fn num_interned_types(&self) -> usize {
        self.types.len()
    }

    /// Interns an attribute, returning its canonical handle.
    ///
    /// Same canonicalization guarantee as [`Context::intern_type`].
    pub fn intern_attr(&mut self, attr: Attribute) -> AttrRef {
        if let Some(&r) = self.attr_map.get(&attr) {
            return r;
        }
        let r = AttrRef(self.attr_storage.len() as u32);
        self.attr_storage.push(attr.clone());
        self.attr_map.insert(attr, r);
        r
    }

    /// The interned attribute behind a handle.
    pub fn attr_of(&self, r: AttrRef) -> &Attribute {
        &self.attr_storage[r.0 as usize]
    }

    // ---------------------------------------------------------------- values

    pub(crate) fn new_value(&mut self, ty: Type, def: ValueDef) -> ValueId {
        let ty = self.intern_type(ty);
        self.new_value_of(ty, def)
    }

    pub(crate) fn new_value_of(&mut self, ty: TypeRef, def: ValueDef) -> ValueId {
        let id = ValueId(self.values.len() as u32);
        self.values.push(ValueData { ty, def, live: true });
        id
    }

    /// Type of a value.
    pub fn value_type(&self, v: ValueId) -> &Type {
        self.type_of(self.values[v.0 as usize].ty)
    }

    /// Interned type handle of a value.
    pub fn value_type_ref(&self, v: ValueId) -> TypeRef {
        self.values[v.0 as usize].ty
    }

    /// Overwrites the type of a value (used by type-conversion passes).
    pub fn set_value_type(&mut self, v: ValueId, ty: Type) {
        let ty = self.intern_type(ty);
        self.values[v.0 as usize].ty = ty;
    }

    /// How the value is defined.
    pub fn value_def(&self, v: ValueId) -> ValueDef {
        self.values[v.0 as usize].def
    }

    /// The operation defining this value, if it is an op result.
    pub fn defining_op(&self, v: ValueId) -> Option<OpId> {
        match self.value_def(v) {
            ValueDef::OpResult { op, .. } => Some(op),
            ValueDef::BlockArg { .. } => None,
        }
    }

    /// Returns true if the value has not been invalidated by an erase.
    pub fn value_is_live(&self, v: ValueId) -> bool {
        self.values.get(v.0 as usize).map(|d| d.live).unwrap_or(false)
    }

    // ------------------------------------------------------------------- ops

    /// Creates a detached operation (not yet inserted into a block).
    pub fn create_op(
        &mut self,
        name: impl Into<String>,
        operands: Vec<ValueId>,
        result_types: Vec<Type>,
        attrs: AttrMap,
        num_regions: usize,
    ) -> OpId {
        let result_types: Vec<TypeRef> =
            result_types.into_iter().map(|t| self.intern_type(t)).collect();
        self.create_op_of(name, operands, result_types, attrs, num_regions)
    }

    /// [`Context::create_op`] taking pre-interned result types — the
    /// allocation-free path used by cloning and type-preserving rewrites.
    pub fn create_op_of(
        &mut self,
        name: impl Into<String>,
        operands: Vec<ValueId>,
        result_types: Vec<TypeRef>,
        attrs: AttrMap,
        num_regions: usize,
    ) -> OpId {
        let id = OpId(self.ops.len() as u32);
        let mut results = Vec::with_capacity(result_types.len());
        self.ops.push(OpData {
            name: name.into(),
            operands,
            results: Vec::new(),
            attrs,
            regions: Vec::new(),
            parent_block: None,
            live: true,
        });
        for (index, ty) in result_types.into_iter().enumerate() {
            let v = self.new_value_of(ty, ValueDef::OpResult { op: id, index });
            results.push(v);
        }
        self.ops[id.0 as usize].results = results;
        for _ in 0..num_regions {
            let r = self.create_region(Some(id));
            self.ops[id.0 as usize].regions.push(r);
        }
        id
    }

    /// Read access to an operation.
    pub fn op(&self, op: OpId) -> &OpData {
        &self.ops[op.0 as usize]
    }

    /// Mutable access to an operation.
    pub fn op_mut(&mut self, op: OpId) -> &mut OpData {
        &mut self.ops[op.0 as usize]
    }

    /// The operation name (e.g. `"arith.addf"`).
    pub fn op_name(&self, op: OpId) -> &str {
        &self.op(op).name
    }

    /// Returns true if the operation is live (not erased).
    pub fn op_is_live(&self, op: OpId) -> bool {
        self.ops.get(op.0 as usize).map(|o| o.live).unwrap_or(false)
    }

    /// The `index`-th result of an operation.
    pub fn result(&self, op: OpId, index: usize) -> ValueId {
        self.op(op).results[index]
    }

    /// All results of an operation.
    pub fn results(&self, op: OpId) -> &[ValueId] {
        &self.op(op).results
    }

    /// The `index`-th operand of an operation.
    pub fn operand(&self, op: OpId, index: usize) -> ValueId {
        self.op(op).operands[index]
    }

    /// All operands of an operation.
    pub fn operands(&self, op: OpId) -> &[ValueId] {
        &self.op(op).operands
    }

    /// Replaces the operand list of an operation.
    pub fn set_operands(&mut self, op: OpId, operands: Vec<ValueId>) {
        self.op_mut(op).operands = operands;
    }

    /// Gets an attribute by name.
    pub fn attr(&self, op: OpId, name: &str) -> Option<&Attribute> {
        self.op(op).attrs.get(name)
    }

    /// Sets an attribute.
    pub fn set_attr(&mut self, op: OpId, name: impl Into<String>, attr: Attribute) {
        self.op_mut(op).attrs.insert(name.into(), attr);
    }

    /// Removes an attribute, returning it.
    pub fn remove_attr(&mut self, op: OpId, name: &str) -> Option<Attribute> {
        self.op_mut(op).attrs.remove(name)
    }

    /// Integer attribute convenience accessor.
    pub fn attr_int(&self, op: OpId, name: &str) -> Option<i64> {
        self.attr(op, name).and_then(Attribute::as_int)
    }

    /// String attribute convenience accessor.
    pub fn attr_str(&self, op: OpId, name: &str) -> Option<&str> {
        self.attr(op, name).and_then(Attribute::as_str)
    }

    /// Regions owned by an operation.
    pub fn op_regions(&self, op: OpId) -> &[RegionId] {
        &self.op(op).regions
    }

    /// The single region of an operation.
    ///
    /// # Panics
    /// Panics if the operation does not own exactly the requested region.
    pub fn op_region(&self, op: OpId, index: usize) -> RegionId {
        self.op(op).regions[index]
    }

    /// Adds an extra (empty) region to an operation and returns it.
    pub fn add_region(&mut self, op: OpId) -> RegionId {
        let r = self.create_region(Some(op));
        self.op_mut(op).regions.push(r);
        r
    }

    // --------------------------------------------------------------- regions

    pub(crate) fn create_region(&mut self, parent_op: Option<OpId>) -> RegionId {
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(RegionData { blocks: Vec::new(), parent_op, live: true });
        id
    }

    /// Read access to a region.
    pub fn region(&self, r: RegionId) -> &RegionData {
        &self.regions[r.0 as usize]
    }

    /// Blocks of a region.
    pub fn region_blocks(&self, r: RegionId) -> &[BlockId] {
        &self.region(r).blocks
    }

    /// Entry (first) block of a region, if any.
    pub fn entry_block(&self, r: RegionId) -> Option<BlockId> {
        self.region(r).blocks.first().copied()
    }

    // ---------------------------------------------------------------- blocks

    /// Appends a new block with the given argument types to a region.
    pub fn add_block(&mut self, region: RegionId, arg_types: Vec<Type>) -> BlockId {
        let arg_types: Vec<TypeRef> = arg_types.into_iter().map(|t| self.intern_type(t)).collect();
        self.add_block_of(region, arg_types)
    }

    /// [`Context::add_block`] taking pre-interned argument types.
    pub fn add_block_of(&mut self, region: RegionId, arg_types: Vec<TypeRef>) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(BlockData {
            args: Vec::new(),
            ops: Vec::new(),
            parent_region: Some(region),
            live: true,
        });
        let args: Vec<ValueId> = arg_types
            .into_iter()
            .enumerate()
            .map(|(index, ty)| self.new_value_of(ty, ValueDef::BlockArg { block: id, index }))
            .collect();
        self.blocks[id.0 as usize].args = args;
        self.regions[region.0 as usize].blocks.push(id);
        id
    }

    /// Read access to a block.
    pub fn block(&self, b: BlockId) -> &BlockData {
        &self.blocks[b.0 as usize]
    }

    /// Arguments of a block.
    pub fn block_args(&self, b: BlockId) -> &[ValueId] {
        &self.block(b).args
    }

    /// Adds an extra argument to a block, returning the new value.
    pub fn add_block_arg(&mut self, b: BlockId, ty: Type) -> ValueId {
        let index = self.block(b).args.len();
        let v = self.new_value(ty, ValueDef::BlockArg { block: b, index });
        self.blocks[b.0 as usize].args.push(v);
        v
    }

    /// Operations of a block, in order.
    pub fn block_ops(&self, b: BlockId) -> &[OpId] {
        &self.block(b).ops
    }

    /// Appends a detached operation to the end of a block.
    pub fn append_op(&mut self, block: BlockId, op: OpId) {
        self.insert_op(block, self.block(block).ops.len(), op);
    }

    /// Inserts a detached operation at `index` within a block.
    ///
    /// # Panics
    /// Panics if the operation is already attached to a block.
    pub fn insert_op(&mut self, block: BlockId, index: usize, op: OpId) {
        assert!(
            self.op(op).parent_block.is_none(),
            "operation {op} is already attached to a block"
        );
        self.blocks[block.0 as usize].ops.insert(index, op);
        self.op_mut(op).parent_block = Some(block);
    }

    /// Detaches an operation from its parent block (does not erase it).
    pub fn detach_op(&mut self, op: OpId) {
        if let Some(block) = self.op(op).parent_block {
            let ops = &mut self.blocks[block.0 as usize].ops;
            if let Some(pos) = ops.iter().position(|&o| o == op) {
                ops.remove(pos);
            }
            self.op_mut(op).parent_block = None;
        }
    }

    /// Position of an operation within its parent block.
    pub fn op_index_in_block(&self, op: OpId) -> Option<usize> {
        let block = self.op(op).parent_block?;
        self.block(block).ops.iter().position(|&o| o == op)
    }

    // ------------------------------------------------------------ navigation

    /// Parent block of an operation.
    pub fn parent_block(&self, op: OpId) -> Option<BlockId> {
        self.op(op).parent_block
    }

    /// Parent region of a block.
    pub fn parent_region(&self, block: BlockId) -> Option<RegionId> {
        self.block(block).parent_region
    }

    /// Operation owning a region.
    pub fn region_parent_op(&self, region: RegionId) -> Option<OpId> {
        self.region(region).parent_op
    }

    /// The operation enclosing `op` (the op owning the region containing
    /// `op`'s parent block).
    pub fn parent_op(&self, op: OpId) -> Option<OpId> {
        let block = self.parent_block(op)?;
        let region = self.parent_region(block)?;
        self.region_parent_op(region)
    }

    /// Walks up the parent chain until an op with the given name is found.
    pub fn ancestor_of_name(&self, op: OpId, name: &str) -> Option<OpId> {
        let mut cur = self.parent_op(op);
        while let Some(p) = cur {
            if self.op_name(p) == name {
                return Some(p);
            }
            cur = self.parent_op(p);
        }
        None
    }

    // --------------------------------------------------------------- walking

    /// Pre-order walk of `root` and every operation nested within it.
    pub fn walk(&self, root: OpId) -> Vec<OpId> {
        let mut out = Vec::new();
        self.walk_into(root, &mut out);
        out
    }

    fn walk_into(&self, op: OpId, out: &mut Vec<OpId>) {
        if !self.op_is_live(op) {
            return;
        }
        out.push(op);
        for &r in &self.op(op).regions {
            for &b in &self.region(r).blocks {
                for &nested in &self.block(b).ops {
                    self.walk_into(nested, out);
                }
            }
        }
    }

    /// All live operations nested in `root` (excluding `root`) whose name
    /// equals `name`, in pre-order.
    pub fn walk_named(&self, root: OpId, name: &str) -> Vec<OpId> {
        self.walk(root).into_iter().skip(1).filter(|&o| self.op_name(o) == name).collect()
    }

    /// All live operations (any nesting) in pre-order, including `root`.
    pub fn walk_filtered(&self, root: OpId, mut pred: impl FnMut(&str) -> bool) -> Vec<OpId> {
        self.walk(root).into_iter().filter(|&o| pred(self.op_name(o))).collect()
    }

    // ------------------------------------------------------------------ uses

    /// Every (operation, operand index) pair that uses `value`, across the
    /// whole context.
    pub fn uses_of(&self, value: ValueId) -> Vec<(OpId, usize)> {
        let mut out = Vec::new();
        for (i, op) in self.ops.iter().enumerate() {
            if !op.live {
                continue;
            }
            for (idx, &operand) in op.operands.iter().enumerate() {
                if operand == value {
                    out.push((OpId(i as u32), idx));
                }
            }
        }
        out
    }

    /// Returns true if a value has at least one use.
    pub fn has_uses(&self, value: ValueId) -> bool {
        self.ops.iter().any(|op| op.live && op.operands.contains(&value))
    }

    /// Replaces every use of `old` with `new`.
    pub fn replace_all_uses(&mut self, old: ValueId, new: ValueId) {
        for op in self.ops.iter_mut() {
            if !op.live {
                continue;
            }
            for operand in op.operands.iter_mut() {
                if *operand == old {
                    *operand = new;
                }
            }
        }
    }

    // --------------------------------------------------------------- erasure

    /// Erases an operation and (recursively) everything nested inside it.
    ///
    /// The operation's results become invalid; callers must have replaced
    /// their uses first (this is checked by the verifier, not here).
    pub fn erase_op(&mut self, op: OpId) {
        self.detach_op(op);
        self.erase_op_inner(op);
    }

    fn erase_op_inner(&mut self, op: OpId) {
        let regions = self.op(op).regions.clone();
        for r in regions {
            let blocks = self.region(r).blocks.clone();
            for b in blocks {
                let ops = self.block(b).ops.clone();
                for nested in ops {
                    self.erase_op_inner(nested);
                }
                for &arg in &self.blocks[b.0 as usize].args.clone() {
                    self.values[arg.0 as usize].live = false;
                }
                self.blocks[b.0 as usize].live = false;
            }
            self.regions[r.0 as usize].live = false;
        }
        for &res in &self.ops[op.0 as usize].results.clone() {
            self.values[res.0 as usize].live = false;
        }
        self.ops[op.0 as usize].live = false;
    }

    /// Number of live operations in the whole context.
    pub fn num_live_ops(&self) -> usize {
        self.ops.iter().filter(|o| o.live).count()
    }

    // --------------------------------------------------------------- cloning

    /// Clones operation `op` (with all nested regions) into a detached
    /// operation, remapping operands through `value_map`.  Newly created
    /// result values and block arguments are added to `value_map` so later
    /// clones observe them.
    pub fn clone_op(&mut self, op: OpId, value_map: &mut HashMap<ValueId, ValueId>) -> OpId {
        let data = self.op(op).clone();
        let operands: Vec<ValueId> =
            data.operands.iter().map(|v| *value_map.get(v).unwrap_or(v)).collect();
        // Result and block-argument types are copied as interned handles:
        // cloning never re-walks or re-allocates type structure.
        let result_types: Vec<TypeRef> =
            data.results.iter().map(|&v| self.value_type_ref(v)).collect();
        let new_op =
            self.create_op_of(data.name.clone(), operands, result_types, data.attrs.clone(), 0);
        for (old, new) in data.results.iter().zip(self.op(new_op).results.to_vec()) {
            value_map.insert(*old, new);
        }
        for &region in &data.regions {
            let new_region = self.add_region(new_op);
            let blocks = self.region(region).blocks.clone();
            for block in blocks {
                let arg_types: Vec<TypeRef> =
                    self.block(block).args.iter().map(|&a| self.value_type_ref(a)).collect();
                let new_block = self.add_block_of(new_region, arg_types);
                let old_args = self.block(block).args.to_vec();
                let new_args = self.block(new_block).args.to_vec();
                for (o, n) in old_args.iter().zip(new_args.iter()) {
                    value_map.insert(*o, *n);
                }
                let ops = self.block(block).ops.clone();
                for nested in ops {
                    let cloned = self.clone_op(nested, value_map);
                    self.append_op(new_block, cloned);
                }
            }
        }
        new_op
    }

    // -------------------------------------------------------------- movement

    /// Moves all ops of `src_block` (keeping their ids) to the end of
    /// `dst_block`.
    pub fn move_block_ops(&mut self, src_block: BlockId, dst_block: BlockId) {
        let ops = std::mem::take(&mut self.blocks[src_block.0 as usize].ops);
        for op in ops {
            self.op_mut(op).parent_block = Some(dst_block);
            self.blocks[dst_block.0 as usize].ops.push(op);
        }
    }

    // ----------------------------------------------------------- fingerprint

    /// A stable structural hash of the live IR rooted at `root`.
    ///
    /// The fingerprint depends only on structure — op names, attributes,
    /// value types, and the def/use wiring via a local pre-order value
    /// numbering — never on arena indices, so two contexts holding
    /// structurally identical modules produce the same fingerprint even
    /// when their handles differ (e.g. a pooled context after many
    /// [`Context::reset`] cycles).  This is the cache key of the compile
    /// service's artifact cache.
    pub fn fingerprint(&self, root: OpId) -> u64 {
        let mut hasher = FxHasher::default();
        let mut numbering: FxHashMap<ValueId, u32> = FxHashMap::default();
        self.fingerprint_op(root, &mut hasher, &mut numbering);
        hasher.finish()
    }

    fn fingerprint_op(
        &self,
        op: OpId,
        hasher: &mut FxHasher,
        numbering: &mut FxHashMap<ValueId, u32>,
    ) {
        if !self.op_is_live(op) {
            return;
        }
        let data = self.op(op);
        data.name.hash(hasher);
        for operand in &data.operands {
            // Values are numbered in definition (pre-order) order; an
            // operand defined outside `root` hashes as a sentinel.
            numbering.get(operand).copied().unwrap_or(u32::MAX).hash(hasher);
        }
        for &result in &data.results {
            let n = numbering.len() as u32;
            numbering.insert(result, n);
            self.value_type(result).hash(hasher);
        }
        data.attrs.hash(hasher);
        (data.regions.len() as u32).hash(hasher);
        for &r in &data.regions {
            let blocks = &self.region(r).blocks;
            (blocks.len() as u32).hash(hasher);
            for &b in blocks {
                let block = self.block(b);
                for &arg in &block.args {
                    let n = numbering.len() as u32;
                    numbering.insert(arg, n);
                    self.value_type(arg).hash(hasher);
                }
                for &nested in &block.ops {
                    self.fingerprint_op(nested, hasher, numbering);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_module(ctx: &mut IrContext) -> (OpId, BlockId) {
        let module = ctx.create_op("builtin.module", vec![], vec![], AttrMap::new(), 1);
        let body = ctx.add_block(ctx.op_region(module, 0), vec![]);
        (module, body)
    }

    #[test]
    fn create_and_navigate() {
        let mut ctx = IrContext::new();
        let (module, body) = small_module(&mut ctx);
        let c = ctx.create_op("arith.constant", vec![], vec![Type::f32()], AttrMap::new(), 0);
        ctx.append_op(body, c);
        let v = ctx.result(c, 0);
        let add = ctx.create_op("arith.addf", vec![v, v], vec![Type::f32()], AttrMap::new(), 0);
        ctx.append_op(body, add);

        assert_eq!(ctx.op_name(module), "builtin.module");
        assert_eq!(ctx.block_ops(body), &[c, add]);
        assert_eq!(ctx.parent_op(add), Some(module));
        assert_eq!(ctx.defining_op(v), Some(c));
        assert_eq!(ctx.value_type(v), &Type::f32());
        assert_eq!(ctx.walk(module), vec![module, c, add]);
        assert_eq!(ctx.walk_named(module, "arith.addf"), vec![add]);
        assert_eq!(ctx.op_index_in_block(add), Some(1));
    }

    #[test]
    fn uses_and_rauw() {
        let mut ctx = IrContext::new();
        let (_module, body) = small_module(&mut ctx);
        let a = ctx.create_op("arith.constant", vec![], vec![Type::f32()], AttrMap::new(), 0);
        let b = ctx.create_op("arith.constant", vec![], vec![Type::f32()], AttrMap::new(), 0);
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        let va = ctx.result(a, 0);
        let vb = ctx.result(b, 0);
        let add = ctx.create_op("arith.addf", vec![va, va], vec![Type::f32()], AttrMap::new(), 0);
        ctx.append_op(body, add);

        assert_eq!(ctx.uses_of(va).len(), 2);
        assert!(ctx.has_uses(va));
        assert!(!ctx.has_uses(vb));
        ctx.replace_all_uses(va, vb);
        assert!(!ctx.has_uses(va));
        assert_eq!(ctx.uses_of(vb).len(), 2);
        assert_eq!(ctx.operands(add), &[vb, vb]);
    }

    #[test]
    fn erase_recursively_invalidates() {
        let mut ctx = IrContext::new();
        let (module, body) = small_module(&mut ctx);
        let outer = ctx.create_op("scf.for", vec![], vec![], AttrMap::new(), 1);
        let inner_block = ctx.add_block(ctx.op_region(outer, 0), vec![Type::index()]);
        let inner = ctx.create_op("arith.constant", vec![], vec![Type::f32()], AttrMap::new(), 0);
        ctx.append_op(inner_block, inner);
        ctx.append_op(body, outer);

        assert_eq!(ctx.num_live_ops(), 3);
        ctx.erase_op(outer);
        assert_eq!(ctx.num_live_ops(), 1);
        assert!(!ctx.op_is_live(outer));
        assert!(!ctx.op_is_live(inner));
        assert!(ctx.op_is_live(module));
        assert!(ctx.block_ops(body).is_empty());
        assert!(!ctx.value_is_live(ctx.result(inner, 0)));
    }

    #[test]
    fn detach_and_reinsert() {
        let mut ctx = IrContext::new();
        let (_m, body) = small_module(&mut ctx);
        let a = ctx.create_op("a.a", vec![], vec![], AttrMap::new(), 0);
        let b = ctx.create_op("b.b", vec![], vec![], AttrMap::new(), 0);
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        ctx.detach_op(a);
        assert_eq!(ctx.block_ops(body), &[b]);
        ctx.insert_op(body, 1, a);
        assert_eq!(ctx.block_ops(body), &[b, a]);
    }

    #[test]
    fn clone_op_remaps_nested_values() {
        let mut ctx = IrContext::new();
        let (_m, body) = small_module(&mut ctx);
        // Build an op with a region that uses its block argument.
        let apply = ctx.create_op("stencil.apply", vec![], vec![Type::f32()], AttrMap::new(), 1);
        let region = ctx.op_region(apply, 0);
        let blk = ctx.add_block(region, vec![Type::f32()]);
        let arg = ctx.block_args(blk)[0];
        let add = ctx.create_op("arith.addf", vec![arg, arg], vec![Type::f32()], AttrMap::new(), 0);
        ctx.append_op(blk, add);
        ctx.append_op(body, apply);

        let mut map = HashMap::new();
        let cloned = ctx.clone_op(apply, &mut map);
        ctx.append_op(body, cloned);
        // The cloned add must reference the cloned block argument, not the
        // original one.
        let cloned_region = ctx.op_region(cloned, 0);
        let cloned_blk = ctx.entry_block(cloned_region).unwrap();
        let cloned_add = ctx.block_ops(cloned_blk)[0];
        let cloned_arg = ctx.block_args(cloned_blk)[0];
        assert_ne!(cloned_arg, arg);
        assert_eq!(ctx.operands(cloned_add), &[cloned_arg, cloned_arg]);
        // Original results map to the clone's results.
        assert_eq!(map.get(&ctx.result(apply, 0)), Some(&ctx.result(cloned, 0)));
    }

    #[test]
    fn attributes_roundtrip() {
        let mut ctx = IrContext::new();
        let op = ctx.create_op("test.op", vec![], vec![], AttrMap::new(), 0);
        ctx.set_attr(op, "num_chunks", Attribute::int(2));
        ctx.set_attr(op, "name", Attribute::str("kernel"));
        assert_eq!(ctx.attr_int(op, "num_chunks"), Some(2));
        assert_eq!(ctx.attr_str(op, "name"), Some("kernel"));
        assert_eq!(ctx.remove_attr(op, "num_chunks"), Some(Attribute::int(2)));
        assert_eq!(ctx.attr(op, "num_chunks"), None);
    }

    #[test]
    fn block_arguments() {
        let mut ctx = IrContext::new();
        let op = ctx.create_op("func.func", vec![], vec![], AttrMap::new(), 1);
        let block = ctx.add_block(ctx.op_region(op, 0), vec![Type::f32(), Type::index()]);
        assert_eq!(ctx.block_args(block).len(), 2);
        let extra = ctx.add_block_arg(block, Type::f32());
        assert_eq!(ctx.block_args(block).len(), 3);
        assert_eq!(ctx.value_def(extra), ValueDef::BlockArg { block, index: 2 });
    }

    #[test]
    fn interning_dedupes_structurally_equal_types_and_attrs() {
        let mut ctx = Context::new();
        let t1 = ctx.intern_type(Type::tensor(vec![4, 255], Type::f32()));
        let t2 = ctx.intern_type(Type::tensor(vec![4, 255], Type::f32()));
        let t3 = ctx.intern_type(Type::tensor(vec![4, 256], Type::f32()));
        assert_eq!(t1, t2, "structural equality is handle equality");
        assert_ne!(t1, t3);
        assert_eq!(ctx.type_of(t1), &Type::tensor(vec![4, 255], Type::f32()));
        let a1 = ctx.intern_attr(Attribute::IndexArray(vec![1, 0, 0]));
        let a2 = ctx.intern_attr(Attribute::IndexArray(vec![1, 0, 0]));
        assert_eq!(a1, a2);
        assert_eq!(ctx.attr_of(a1), &Attribute::IndexArray(vec![1, 0, 0]));
    }

    #[test]
    fn values_share_interned_types() {
        let mut ctx = Context::new();
        let (_m, body) = small_module(&mut ctx);
        let a = ctx.create_op("a.a", vec![], vec![Type::f32()], AttrMap::new(), 0);
        let b = ctx.create_op("b.b", vec![], vec![Type::f32()], AttrMap::new(), 0);
        ctx.append_op(body, a);
        ctx.append_op(body, b);
        assert_eq!(ctx.value_type_ref(ctx.result(a, 0)), ctx.value_type_ref(ctx.result(b, 0)));
    }

    #[test]
    fn reset_clears_ir_but_keeps_interned_storage() {
        let mut ctx = Context::new();
        let (_m, body) = small_module(&mut ctx);
        let c = ctx.create_op("arith.constant", vec![], vec![Type::f32()], AttrMap::new(), 0);
        ctx.append_op(body, c);
        let f32_ref = ctx.value_type_ref(ctx.result(c, 0));
        let interned = ctx.num_interned_types();
        assert!(ctx.num_live_ops() > 0);
        ctx.reset();
        assert_eq!(ctx.num_live_ops(), 0);
        assert_eq!(ctx.num_interned_types(), interned, "interner survives reset");
        assert_eq!(ctx.type_of(f32_ref), &Type::f32(), "type handles survive reset");
        assert_eq!(ctx.intern_type(Type::f32()), f32_ref, "uniquer still canonicalizes");
        // The context is reusable: building new IR starts from fresh ids.
        let (m2, _body2) = small_module(&mut ctx);
        assert_eq!(m2, OpId(0));
    }

    #[test]
    fn fingerprint_is_structural_not_positional() {
        let build = |ctx: &mut Context, pad_values: u32| {
            // Interning/arena churn before building must not affect the
            // fingerprint of the module built afterwards.
            for i in 0..pad_values {
                ctx.intern_type(Type::tensor(vec![i64::from(i) + 2], Type::f32()));
                let junk = ctx.create_op("junk.op", vec![], vec![Type::f32()], AttrMap::new(), 0);
                ctx.erase_op(junk);
            }
            let (module, body) = small_module(ctx);
            let c = ctx.create_op("arith.constant", vec![], vec![Type::f32()], AttrMap::new(), 0);
            ctx.set_attr(c, "value", Attribute::f32(0.5));
            ctx.append_op(body, c);
            let v = ctx.result(c, 0);
            let add = ctx.create_op("arith.addf", vec![v, v], vec![Type::f32()], AttrMap::new(), 0);
            ctx.append_op(body, add);
            ctx.fingerprint(module)
        };
        let mut ctx1 = Context::new();
        let mut ctx2 = Context::new();
        assert_eq!(build(&mut ctx1, 0), build(&mut ctx2, 7), "same structure, same hash");
        // A structural difference (attribute value) changes the hash.
        let mut ctx3 = Context::new();
        let (module, body) = small_module(&mut ctx3);
        let c = ctx3.create_op("arith.constant", vec![], vec![Type::f32()], AttrMap::new(), 0);
        ctx3.set_attr(c, "value", Attribute::f32(0.25));
        ctx3.append_op(body, c);
        let v = ctx3.result(c, 0);
        let add = ctx3.create_op("arith.addf", vec![v, v], vec![Type::f32()], AttrMap::new(), 0);
        ctx3.append_op(body, add);
        assert_ne!(ctx3.fingerprint(module), build(&mut Context::new(), 0));
    }

    #[test]
    fn move_block_ops_preserves_order() {
        let mut ctx = IrContext::new();
        let (_m, body) = small_module(&mut ctx);
        let holder = ctx.create_op("scf.execute_region", vec![], vec![], AttrMap::new(), 1);
        let src = ctx.add_block(ctx.op_region(holder, 0), vec![]);
        let a = ctx.create_op("a.a", vec![], vec![], AttrMap::new(), 0);
        let b = ctx.create_op("b.b", vec![], vec![], AttrMap::new(), 0);
        ctx.append_op(src, a);
        ctx.append_op(src, b);
        ctx.append_op(body, holder);
        ctx.move_block_ops(src, body);
        assert_eq!(ctx.block_ops(body), &[holder, a, b]);
        assert_eq!(ctx.parent_block(a), Some(body));
    }
}
