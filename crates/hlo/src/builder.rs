//! Append-only graph builder.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::verify::PairCheck;
use crate::{
    BinaryKind, DType, DotDims, InstrId, Instruction, Module, ModuleAnalysis, Op, PadDim,
    ReplicaGroups, Shape, UnaryKind, WireFormat,
};

/// Builds a [`Module`] one instruction at a time.
///
/// Every method appends an instruction whose operands were built earlier,
/// so the arena order is topological by construction. Shapes are inferred
/// eagerly; misuse panics with a descriptive message (the resulting module
/// is additionally re-checked by [`Module::verify`]).
///
/// Compiler passes construct transformed modules with a fresh builder,
/// copying unaffected instructions via [`Builder::copy_of`].
///
/// # Example
///
/// ```
/// use overlap_hlo::{Builder, DType, DotDims, Shape};
/// let mut b = Builder::new("axpy", 1);
/// let x = b.parameter(Shape::new(DType::F32, vec![16]), "x");
/// let y = b.parameter(Shape::new(DType::F32, vec![16]), "y");
/// let s = b.add(x, y, "sum");
/// let m = b.build(vec![s]);
/// assert_eq!(m.len(), 3);
/// ```
#[derive(Debug)]
pub struct Builder {
    module: Module,
    /// Names taken as given, each with the next suffix to probe as a
    /// base. Generated names are implied, not stored: `base.i` is taken
    /// for every `1 <= i < hint(base)`.
    names: HashMap<String, Cell<usize>>,
    tag: Option<Arc<str>>,
    next_param: usize,
    /// Users table maintained append-by-append, handed out through
    /// [`Builder::build_with_analysis`].
    users: Vec<Vec<InstrId>>,
    /// Checks each distinct permute pair list once.
    pair_check: PairCheck,
    /// Append-time value numbering (see
    /// [`Builder::enable_value_numbering`]): key of every appended pure
    /// instruction, mapping structural duplicates to their first
    /// occurrence.
    value_numbering: Option<HashMap<Vec<u64>, InstrId>>,
    /// Reused value-numbering lookup key; cloned only on insert.
    vn_key: Vec<u64>,
}

impl Builder {
    /// Creates a builder for a module named `name` compiled for
    /// `num_partitions` SPMD partitions.
    ///
    /// # Panics
    ///
    /// Panics if `num_partitions == 0`.
    #[must_use]
    pub fn new(name: impl Into<String>, num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "a module needs at least one partition");
        Builder {
            module: Module {
                name: name.into(),
                instrs: Vec::new(),
                outputs: Vec::new(),
                num_partitions,
                fusion_groups: Vec::new(),
            },
            names: HashMap::new(),
            tag: None,
            next_param: 0,
            users: Vec::new(),
            pair_check: PairCheck::default(),
            value_numbering: None,
            vn_key: Vec::new(),
        }
    }

    /// Merges structurally identical pure instructions at append time,
    /// exactly as a post-hoc [`crate::eliminate_common_subexpressions`]
    /// pass would: a pure append whose `(op, shape, operands)` was seen
    /// before returns the earlier id instead of growing the module. Name
    /// suffixes are still consumed for merged appends, so the built
    /// module is bit-identical — names included — to building without
    /// value numbering and running the CSE pass afterwards.
    pub fn enable_value_numbering(&mut self) {
        if self.value_numbering.is_none() {
            self.value_numbering = Some(HashMap::new());
        }
    }

    /// Number of SPMD partitions the module is compiled for.
    #[must_use]
    pub fn num_partitions(&self) -> usize {
        self.module.num_partitions
    }

    /// Number of instructions appended so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.module.instrs.len()
    }

    /// Whether no instructions have been appended.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.module.instrs.is_empty()
    }

    /// The shape of an already-appended instruction.
    #[must_use]
    pub fn shape_of(&self, id: InstrId) -> &Shape {
        self.module.instrs[id.index()].shape()
    }

    /// Sets the tag attached to subsequently appended instructions
    /// (`None` clears it). Passes use tags to mark emitted regions.
    /// Appended instructions share the tag's string.
    pub fn set_tag(&mut self, tag: Option<&str>) {
        if self.tag.as_deref() != tag {
            self.tag = tag.map(Arc::from);
        }
    }

    /// Whether `name` is a suffixed name generated for a stored base.
    fn is_generated(&self, name: &str) -> bool {
        let Some((base, suffix)) = name.rsplit_once('.') else { return false };
        // Generated suffixes are canonical decimals counting from 1.
        if suffix.starts_with('0') || !suffix.bytes().all(|c| c.is_ascii_digit()) {
            return false;
        }
        let Ok(i) = suffix.parse::<usize>() else { return false };
        self.names.get(base).is_some_and(|hint| i < hint.get())
    }

    fn unique_name(&mut self, base: &str) -> String {
        let stored = self.names.get(base);
        let mut i = match stored {
            Some(hint) => hint.get(),
            None if self.is_generated(base) => 1,
            None => {
                self.names.insert(base.to_string(), Cell::new(1));
                return base.to_string();
            }
        };
        let mut candidate = String::with_capacity(base.len() + 4);
        loop {
            candidate.clear();
            write!(candidate, "{base}.{i}").expect("writing to a String cannot fail");
            // At or past the hint, `base.i` can only be taken as given.
            if !self.names.contains_key(candidate.as_str()) {
                break;
            }
            i += 1;
        }
        match stored {
            Some(hint) => hint.set(i + 1),
            None => {
                self.names.insert(base.to_string(), Cell::new(i + 1));
            }
        }
        candidate
    }

    fn append(&mut self, op: Op, operands: Vec<InstrId>, shape: Shape, name: &str) -> InstrId {
        for &o in &operands {
            assert!(
                o.index() < self.module.instrs.len(),
                "operand {o} not yet built (use-after-def violation)"
            );
        }
        let mut numbered = false;
        if self.value_numbering.is_some() {
            self.vn_key.clear();
            if crate::transform::value_key_into(&op, &shape, &mut self.vn_key) {
                self.vn_key.extend(operands.iter().map(|o| o.index() as u64));
                let table = self.value_numbering.as_ref().expect("checked above");
                if let Some(&existing) = table.get(self.vn_key.as_slice()) {
                    // Consume the name this instruction would have taken so
                    // suffix numbering matches the build-then-CSE pipeline.
                    let _ = self.unique_name(name);
                    return existing;
                }
                numbered = true;
            }
        }
        let name = self.unique_name(name);
        let id = InstrId(self.module.instrs.len() as u32);
        // Maintain the users table as we go: same content and ordering as
        // a post-hoc `Module::users()` pass, since appends are in arena
        // order and operands are visited left to right.
        self.users.push(Vec::new());
        for &o in &operands {
            self.users[o.index()].push(id);
        }
        self.module.instrs.push(Instruction {
            name,
            shape,
            op,
            operands,
            tag: self.tag.clone(),
        });
        if numbered {
            let key = self.vn_key.clone();
            self.value_numbering.as_mut().expect("key only built when enabled").insert(key, id);
        }
        id
    }

    /// Appends an entry parameter with the next parameter index.
    pub fn parameter(&mut self, shape: Shape, name: &str) -> InstrId {
        let index = self.next_param;
        self.next_param += 1;
        self.append(Op::Parameter { index }, vec![], shape, name)
    }

    /// Appends a constant splatted to `shape`.
    pub fn constant(&mut self, shape: Shape, value: f64, name: &str) -> InstrId {
        self.append(Op::Constant { value }, vec![], shape, name)
    }

    /// Appends a dense tensor constant with explicit row-major values.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != shape.num_elements()`.
    pub fn constant_tensor(&mut self, shape: Shape, values: Vec<f64>, name: &str) -> InstrId {
        assert_eq!(
            values.len(),
            shape.num_elements(),
            "constant-tensor values do not match {shape}"
        );
        self.append(Op::ConstantTensor { values }, vec![], shape, name)
    }

    /// Appends a scalar `s32` constant.
    pub fn scalar_s32(&mut self, value: i64, name: &str) -> InstrId {
        self.constant(Shape::scalar(DType::S32), value as f64, name)
    }

    /// Appends an all-zeros tensor of the given shape.
    pub fn zeros(&mut self, shape: Shape, name: &str) -> InstrId {
        self.constant(shape, 0.0, name)
    }

    /// Appends an `Iota` of the given shape counting along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range for `shape`.
    pub fn iota(&mut self, shape: Shape, dim: usize, name: &str) -> InstrId {
        assert!(dim < shape.rank(), "iota dim {dim} out of range for {shape}");
        self.append(Op::Iota { dim }, vec![], shape, name)
    }

    /// Appends a broadcast of `x` into `out_shape`: operand dimension `i`
    /// maps to output dimension `operand_dims[i]`.
    ///
    /// # Panics
    ///
    /// Panics if the mapping is not strictly increasing, out of range, or
    /// maps dimensions of unequal size.
    pub fn broadcast(
        &mut self,
        x: InstrId,
        out_shape: Shape,
        operand_dims: Vec<usize>,
        name: &str,
    ) -> InstrId {
        let xs = self.shape_of(x).clone();
        assert_eq!(operand_dims.len(), xs.rank(), "broadcast mapping arity");
        for (i, &d) in operand_dims.iter().enumerate() {
            assert!(d < out_shape.rank(), "broadcast target dim {d} out of range");
            assert!(i == 0 || operand_dims[i - 1] < d, "broadcast dims must increase");
            assert_eq!(xs.dim(i), out_shape.dim(d), "broadcast size mismatch at dim {i}");
        }
        assert_eq!(xs.dtype(), out_shape.dtype(), "broadcast dtype mismatch");
        self.append(Op::Broadcast { operand_dims }, vec![x], out_shape, name)
    }

    /// Appends a reshape of `x` to `dims` (element count must match).
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&mut self, x: InstrId, dims: Vec<usize>, name: &str) -> InstrId {
        let xs = self.shape_of(x);
        let out = Shape::new(xs.dtype(), dims);
        assert_eq!(
            xs.num_elements(),
            out.num_elements(),
            "reshape element count mismatch: {xs} -> {out}"
        );
        self.append(Op::Reshape, vec![x], out, name)
    }

    /// Appends a transpose of `x`: output dim `i` is operand dim `perm[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `perm` is not a permutation of `0..rank`.
    pub fn transpose(&mut self, x: InstrId, perm: Vec<usize>, name: &str) -> InstrId {
        let xs = self.shape_of(x).clone();
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..xs.rank()).collect::<Vec<_>>(),
            "transpose perm must be a permutation of 0..{}",
            xs.rank()
        );
        let dims = perm.iter().map(|&p| xs.dim(p)).collect();
        self.append(Op::Transpose { perm }, vec![x], Shape::new(xs.dtype(), dims), name)
    }

    /// Appends a static slice `[starts, limits)` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if the bounds are malformed.
    pub fn slice(
        &mut self,
        x: InstrId,
        starts: Vec<usize>,
        limits: Vec<usize>,
        name: &str,
    ) -> InstrId {
        let xs = self.shape_of(x);
        assert_eq!(starts.len(), xs.rank(), "slice starts arity");
        assert_eq!(limits.len(), xs.rank(), "slice limits arity");
        let mut dims = Vec::with_capacity(xs.rank());
        for d in 0..xs.rank() {
            assert!(
                starts[d] <= limits[d] && limits[d] <= xs.dim(d),
                "slice bounds [{}, {}) invalid for dim {d} of {xs}",
                starts[d],
                limits[d]
            );
            dims.push(limits[d] - starts[d]);
        }
        let out = Shape::new(xs.dtype(), dims);
        self.append(Op::Slice { starts, limits }, vec![x], out, name)
    }

    /// Appends a dynamic slice of `x` with runtime start `indices` (scalar
    /// integer instructions, one per dimension) and extents `sizes`.
    ///
    /// # Panics
    ///
    /// Panics on arity mismatch, non-integer indices, or oversized extents.
    pub fn dynamic_slice(
        &mut self,
        x: InstrId,
        indices: &[InstrId],
        sizes: Vec<usize>,
        name: &str,
    ) -> InstrId {
        let xs = self.shape_of(x);
        assert_eq!(indices.len(), xs.rank(), "dynamic-slice index arity");
        assert_eq!(sizes.len(), xs.rank(), "dynamic-slice sizes arity");
        for (d, &size) in sizes.iter().enumerate() {
            assert!(size <= xs.dim(d), "dynamic-slice size {size} > dim {d} of {xs}");
        }
        for &i in indices {
            let s = self.shape_of(i);
            assert!(
                s.is_scalar() && s.dtype().is_integer(),
                "dynamic-slice index {i} must be an integer scalar, got {s}"
            );
        }
        let out = Shape::new(xs.dtype(), sizes.clone());
        let mut operands = vec![x];
        operands.extend_from_slice(indices);
        self.append(Op::DynamicSlice { sizes }, operands, out, name)
    }

    /// Appends a dynamic update of `update` into `x` at runtime `indices`.
    ///
    /// # Panics
    ///
    /// Panics on arity, dtype, or extent violations.
    pub fn dynamic_update_slice(
        &mut self,
        x: InstrId,
        update: InstrId,
        indices: &[InstrId],
        name: &str,
    ) -> InstrId {
        let xs = self.shape_of(x).clone();
        let us = self.shape_of(update);
        assert_eq!(indices.len(), xs.rank(), "dynamic-update-slice index arity");
        assert_eq!(us.rank(), xs.rank(), "update rank must match data rank");
        assert_eq!(us.dtype(), xs.dtype(), "update dtype must match data dtype");
        for d in 0..xs.rank() {
            assert!(us.dim(d) <= xs.dim(d), "update dim {d} exceeds data");
        }
        for &i in indices {
            let s = self.shape_of(i);
            assert!(
                s.is_scalar() && s.dtype().is_integer(),
                "dynamic-update-slice index {i} must be an integer scalar, got {s}"
            );
        }
        let mut operands = vec![x, update];
        operands.extend_from_slice(indices);
        self.append(Op::DynamicUpdateSlice, operands, xs, name)
    }

    /// Appends a concatenation of `xs` along `dim`.
    ///
    /// # Panics
    ///
    /// Panics if operands disagree off-`dim` or `xs` is empty.
    pub fn concatenate(&mut self, xs: &[InstrId], dim: usize, name: &str) -> InstrId {
        assert!(!xs.is_empty(), "concatenate needs at least one operand");
        let first = self.shape_of(xs[0]);
        assert!(dim < first.rank(), "concatenate dim {dim} out of range");
        let mut total = 0usize;
        for &x in xs {
            let s = self.shape_of(x);
            assert_eq!(s.rank(), first.rank(), "concatenate rank mismatch");
            assert_eq!(s.dtype(), first.dtype(), "concatenate dtype mismatch");
            for d in 0..first.rank() {
                if d != dim {
                    assert_eq!(s.dim(d), first.dim(d), "concatenate off-dim size mismatch");
                }
            }
            total += s.dim(dim);
        }
        let out = first.with_dim(dim, total);
        self.append(Op::Concatenate { dim }, xs.to_vec(), out, name)
    }

    /// Appends a pad of `x` with scalar `value` per `config`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not a scalar of the same dtype or `config` has
    /// the wrong arity.
    pub fn pad(&mut self, x: InstrId, value: InstrId, config: Vec<PadDim>, name: &str) -> InstrId {
        let xs = self.shape_of(x);
        let vs = self.shape_of(value);
        assert!(vs.is_scalar() && vs.dtype() == xs.dtype(), "pad value must be scalar of same dtype");
        assert_eq!(config.len(), xs.rank(), "pad config arity");
        let dims = xs
            .dims()
            .iter()
            .zip(&config)
            .map(|(&d, p)| d + p.low + p.high)
            .collect();
        let out = Shape::new(xs.dtype(), dims);
        self.append(Op::Pad { config }, vec![x, value], out, name)
    }

    /// Appends an elementwise binary op of the given kind (generic form
    /// of [`Builder::add`] and friends, for pass code that dispatches on
    /// [`BinaryKind`]).
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes differ.
    pub fn binary_op(&mut self, kind: BinaryKind, a: InstrId, b: InstrId, name: &str) -> InstrId {
        self.binary(kind, a, b, name)
    }

    /// Appends an elementwise unary op of the given kind.
    pub fn unary_op(&mut self, kind: UnaryKind, x: InstrId, name: &str) -> InstrId {
        let s = self.shape_of(x).clone();
        self.append(Op::Unary(kind), vec![x], s, name)
    }

    fn binary(&mut self, kind: BinaryKind, a: InstrId, b: InstrId, name: &str) -> InstrId {
        let sa = self.shape_of(a).clone();
        let sb = self.shape_of(b);
        assert_eq!(&sa, sb, "binary {} operand shapes differ: {sa} vs {sb}", kind.name());
        self.append(Op::Binary(kind), vec![a, b], sa, name)
    }

    /// Appends an elementwise addition.
    pub fn add(&mut self, a: InstrId, b: InstrId, name: &str) -> InstrId {
        self.binary(BinaryKind::Add, a, b, name)
    }

    /// Appends an elementwise subtraction.
    pub fn sub(&mut self, a: InstrId, b: InstrId, name: &str) -> InstrId {
        self.binary(BinaryKind::Sub, a, b, name)
    }

    /// Appends an elementwise multiplication.
    pub fn mul(&mut self, a: InstrId, b: InstrId, name: &str) -> InstrId {
        self.binary(BinaryKind::Mul, a, b, name)
    }

    /// Appends an elementwise division.
    pub fn div(&mut self, a: InstrId, b: InstrId, name: &str) -> InstrId {
        self.binary(BinaryKind::Div, a, b, name)
    }

    /// Appends an elementwise maximum.
    pub fn max(&mut self, a: InstrId, b: InstrId, name: &str) -> InstrId {
        self.binary(BinaryKind::Max, a, b, name)
    }

    /// Appends an elementwise minimum.
    pub fn min(&mut self, a: InstrId, b: InstrId, name: &str) -> InstrId {
        self.binary(BinaryKind::Min, a, b, name)
    }

    /// Appends an elementwise remainder (index arithmetic).
    pub fn rem(&mut self, a: InstrId, b: InstrId, name: &str) -> InstrId {
        self.binary(BinaryKind::Rem, a, b, name)
    }

    /// Appends an elementwise negation.
    pub fn neg(&mut self, x: InstrId, name: &str) -> InstrId {
        let s = self.shape_of(x).clone();
        self.append(Op::Unary(UnaryKind::Neg), vec![x], s, name)
    }

    /// Appends an elementwise ReLU.
    pub fn relu(&mut self, x: InstrId, name: &str) -> InstrId {
        let s = self.shape_of(x).clone();
        self.append(Op::Unary(UnaryKind::Relu), vec![x], s, name)
    }

    /// Appends an elementwise Heaviside step (`1.0` where positive).
    pub fn step(&mut self, x: InstrId, name: &str) -> InstrId {
        let s = self.shape_of(x).clone();
        self.append(Op::Unary(UnaryKind::Step), vec![x], s, name)
    }

    /// Appends an identity copy.
    pub fn copy(&mut self, x: InstrId, name: &str) -> InstrId {
        let s = self.shape_of(x).clone();
        self.append(Op::Copy, vec![x], s, name)
    }

    /// Appends an einsum of `lhs` and `rhs` with the given dimension
    /// numbers.
    ///
    /// # Panics
    ///
    /// Panics if the dimension numbers are inconsistent with the operand
    /// shapes.
    pub fn einsum(&mut self, lhs: InstrId, rhs: InstrId, dims: DotDims, name: &str) -> InstrId {
        let ls = self.shape_of(lhs);
        let rs = self.shape_of(rhs);
        let out = dims
            .output_shape(ls, rs)
            .unwrap_or_else(|e| panic!("einsum {name}: {e} (lhs {ls}, rhs {rs})"));
        self.append(Op::Einsum(dims), vec![lhs, rhs], out, name)
    }

    /// Appends an `AllGather` of `x` along `dim` over `groups`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range or the groups don't cover the
    /// module's partitions.
    pub fn all_gather(
        &mut self,
        x: InstrId,
        dim: usize,
        groups: ReplicaGroups,
        name: &str,
    ) -> InstrId {
        self.all_gather_wire(x, dim, groups, WireFormat::Lossless, name)
    }

    /// [`Builder::all_gather`] with an explicit wire encoding.
    ///
    /// # Panics
    ///
    /// Additionally panics if the wire format's parameters are invalid.
    pub fn all_gather_wire(
        &mut self,
        x: InstrId,
        dim: usize,
        groups: ReplicaGroups,
        wire: WireFormat,
        name: &str,
    ) -> InstrId {
        let xs = self.shape_of(x).clone();
        assert!(dim < xs.rank(), "all-gather dim {dim} out of range for {xs}");
        groups
            .validate(self.module.num_partitions)
            .unwrap_or_else(|e| panic!("all-gather {name}: {e}"));
        wire.validate().unwrap_or_else(|e| panic!("all-gather {name}: {e}"));
        let out = xs.with_dim_scaled(dim, groups.group_size());
        self.append(Op::AllGather { dim, groups, wire }, vec![x], out, name)
    }

    /// Appends a `ReduceScatter` of `x` along `dim` over `groups`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range, the scattered dimension is not
    /// divisible by the group size, or the groups are invalid.
    pub fn reduce_scatter(
        &mut self,
        x: InstrId,
        dim: usize,
        groups: ReplicaGroups,
        name: &str,
    ) -> InstrId {
        self.reduce_scatter_wire(x, dim, groups, WireFormat::Lossless, name)
    }

    /// [`Builder::reduce_scatter`] with an explicit wire encoding.
    ///
    /// # Panics
    ///
    /// Additionally panics if the wire format's parameters are invalid.
    pub fn reduce_scatter_wire(
        &mut self,
        x: InstrId,
        dim: usize,
        groups: ReplicaGroups,
        wire: WireFormat,
        name: &str,
    ) -> InstrId {
        let xs = self.shape_of(x).clone();
        assert!(dim < xs.rank(), "reduce-scatter dim {dim} out of range for {xs}");
        groups
            .validate(self.module.num_partitions)
            .unwrap_or_else(|e| panic!("reduce-scatter {name}: {e}"));
        wire.validate().unwrap_or_else(|e| panic!("reduce-scatter {name}: {e}"));
        let out = xs.with_dim_divided(dim, groups.group_size());
        self.append(Op::ReduceScatter { dim, groups, wire }, vec![x], out, name)
    }

    /// Appends an `AllReduce` of `x` over `groups`.
    ///
    /// # Panics
    ///
    /// Panics if the groups are invalid.
    pub fn all_reduce(&mut self, x: InstrId, groups: ReplicaGroups, name: &str) -> InstrId {
        self.all_reduce_wire(x, groups, WireFormat::Lossless, name)
    }

    /// [`Builder::all_reduce`] with an explicit wire encoding.
    ///
    /// # Panics
    ///
    /// Additionally panics if the wire format's parameters are invalid.
    pub fn all_reduce_wire(
        &mut self,
        x: InstrId,
        groups: ReplicaGroups,
        wire: WireFormat,
        name: &str,
    ) -> InstrId {
        let xs = self.shape_of(x).clone();
        groups
            .validate(self.module.num_partitions)
            .unwrap_or_else(|e| panic!("all-reduce {name}: {e}"));
        wire.validate().unwrap_or_else(|e| panic!("all-reduce {name}: {e}"));
        self.append(Op::AllReduce { groups, wire }, vec![x], xs, name)
    }

    /// Appends an `AllToAll` of `x` over `groups`.
    ///
    /// # Panics
    ///
    /// Panics if the split dimension is not divisible by the group size or
    /// the groups are invalid.
    pub fn all_to_all(
        &mut self,
        x: InstrId,
        split_dim: usize,
        concat_dim: usize,
        groups: ReplicaGroups,
        name: &str,
    ) -> InstrId {
        let xs = self.shape_of(x).clone();
        let g = groups.group_size();
        assert!(split_dim < xs.rank() && concat_dim < xs.rank(), "all-to-all dims out of range");
        assert!(xs.dim(split_dim).is_multiple_of(g), "all-to-all split dim not divisible by group");
        groups
            .validate(self.module.num_partitions)
            .unwrap_or_else(|e| panic!("all-to-all {name}: {e}"));
        let out = xs.with_dim_divided(split_dim, g).with_dim_scaled(concat_dim, g);
        self.append(Op::AllToAll { split_dim, concat_dim, groups }, vec![x], out, name)
    }

    fn check_pairs(&mut self, pairs: &Arc<[(u32, u32)]>, what: &str) {
        let n = self.module.num_partitions as u32;
        if let Err(problem) = self.pair_check.check(pairs, n) {
            panic!("{what}: {problem}");
        }
    }

    /// Appends a synchronous `CollectivePermute` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if a destination repeats or an id is out of range.
    pub fn collective_permute(
        &mut self,
        x: InstrId,
        pairs: impl Into<Arc<[(u32, u32)]>>,
        name: &str,
    ) -> InstrId {
        let pairs = pairs.into();
        self.check_pairs(&pairs, "collective-permute");
        let xs = self.shape_of(x).clone();
        self.append(Op::CollectivePermute { pairs, wire: WireFormat::Lossless }, vec![x], xs, name)
    }

    /// Appends an asynchronous `CollectivePermuteStart` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if a destination repeats or an id is out of range.
    pub fn collective_permute_start(
        &mut self,
        x: InstrId,
        pairs: impl Into<Arc<[(u32, u32)]>>,
        name: &str,
    ) -> InstrId {
        self.permute_start(x, pairs.into(), WireFormat::Lossless, name)
    }

    fn permute_start(
        &mut self,
        x: InstrId,
        pairs: Arc<[(u32, u32)]>,
        wire: WireFormat,
        name: &str,
    ) -> InstrId {
        self.check_pairs(&pairs, "collective-permute-start");
        wire.validate()
            .unwrap_or_else(|e| panic!("collective-permute-start {name}: {e}"));
        let xs = self.shape_of(x).clone();
        self.append(Op::CollectivePermuteStart { pairs, wire }, vec![x], xs, name)
    }

    /// Appends the §5.2 asynchronous form of a permute of `x`: the
    /// `CollectivePermuteStart`, then its `CollectivePermuteDone` named
    /// `<start>.done`, both under the current tag. Returns the done; the
    /// scheduler moves the pair apart to overlap the transfer.
    ///
    /// # Panics
    ///
    /// Panics if a destination repeats, an id is out of range, or the
    /// wire format's parameters are invalid.
    pub fn collective_permute_async(
        &mut self,
        x: InstrId,
        pairs: impl Into<Arc<[(u32, u32)]>>,
        wire: WireFormat,
        name: &str,
    ) -> InstrId {
        let start = self.permute_start(x, pairs.into(), wire, name);
        let done_name = format!("{}.done", self.module.instrs[start.index()].name);
        self.collective_permute_done(start, &done_name)
    }

    /// Appends the `CollectivePermuteDone` consuming `start`.
    ///
    /// # Panics
    ///
    /// Panics if `start` is not a `CollectivePermuteStart`.
    pub fn collective_permute_done(&mut self, start: InstrId, name: &str) -> InstrId {
        let is_start = matches!(
            self.module.instrs[start.index()].op(),
            Op::CollectivePermuteStart { .. }
        );
        assert!(is_start, "collective-permute-done operand must be a start");
        let s = self.shape_of(start).clone();
        self.append(Op::CollectivePermuteDone, vec![start], s, name)
    }

    /// Appends the executing partition id (`u32` scalar).
    pub fn partition_id(&mut self, name: &str) -> InstrId {
        self.append(Op::PartitionId, vec![], Shape::scalar(DType::U32), name)
    }

    /// Copies an instruction from another module, remapping its operands.
    ///
    /// The copied instruction keeps its op, shape, name and tag. The caller
    /// must have already copied (or replaced, with shape-identical values)
    /// all of its operands.
    ///
    /// # Panics
    ///
    /// Panics if a remapped operand's shape differs from the original
    /// operand's shape.
    pub fn copy_of(
        &mut self,
        src_module: &Module,
        src: InstrId,
        mapped_operands: Vec<InstrId>,
    ) -> InstrId {
        let ins = src_module.instr(src);
        assert_eq!(mapped_operands.len(), ins.operands().len(), "operand arity changed");
        for (i, (&orig, &new)) in ins.operands().iter().zip(&mapped_operands).enumerate() {
            assert_eq!(
                src_module.shape_of(orig),
                self.shape_of(new),
                "copy_of {}: operand {i} shape changed",
                ins.name()
            );
        }
        let saved_tag = self.tag.clone();
        self.tag = ins.tag.clone();
        let id = self.append(ins.op().clone(), mapped_operands, ins.shape().clone(), ins.name());
        if let Op::Parameter { index } = ins.op() {
            // Preserve the original parameter numbering.
            self.module.instrs[id.index()].op = Op::Parameter { index: *index };
            self.next_param = self.next_param.max(index + 1);
        }
        self.tag = saved_tag;
        id
    }

    /// Finalizes the module with the given entry outputs.
    ///
    /// # Panics
    ///
    /// Panics if an output id is out of range.
    #[must_use]
    pub fn build(mut self, outputs: Vec<InstrId>) -> Module {
        for &o in &outputs {
            assert!(o.index() < self.module.instrs.len(), "output {o} not built");
        }
        self.module.outputs = outputs;
        self.module
    }

    /// Finalizes the module and returns it together with a
    /// [`ModuleAnalysis`] whose users table was accumulated append-by-
    /// append (no whole-module recomputation). The analysis' verified
    /// watermark covers the whole module, because every append already
    /// enforced the per-instruction invariants eagerly; the pipeline's
    /// incremental verifier (see [`Module::verify_incremental`]) then only
    /// re-checks the cheap global invariants.
    ///
    /// # Panics
    ///
    /// Panics if an output id is out of range.
    #[must_use]
    pub fn build_with_analysis(mut self, outputs: Vec<InstrId>) -> (Module, ModuleAnalysis) {
        for &o in &outputs {
            assert!(o.index() < self.module.instrs.len(), "output {o} not built");
        }
        self.module.outputs = outputs;
        let live = self.module.live_set();
        let analysis = ModuleAnalysis::from_builder(self.users, live);
        (self.module, analysis)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f32s(dims: &[usize]) -> Shape {
        Shape::new(DType::F32, dims.to_vec())
    }

    #[test]
    fn names_are_uniquified() {
        let mut b = Builder::new("m", 1);
        let a = b.parameter(f32s(&[2]), "x");
        let c = b.parameter(f32s(&[2]), "x");
        let m = b.build(vec![a, c]);
        assert_eq!(m.instr(a).name(), "x");
        assert_eq!(m.instr(c).name(), "x.1");
    }

    #[test]
    fn generated_names_collide_with_names_given_later() {
        let mut b = Builder::new("m", 1);
        let given = ["x", "x", "x.1", "x.3", "x", "x", "x", "x.2", "x.01", "x.1", "x.1.1"];
        let ids: Vec<InstrId> = given.iter().map(|n| b.parameter(f32s(&[2]), n)).collect();
        let m = b.build(ids.clone());
        let names: Vec<&str> = ids.iter().map(|&id| m.instr(id).name()).collect();
        assert_eq!(
            names,
            ["x", "x.1", "x.1.1", "x.3", "x.2", "x.4", "x.5", "x.2.1", "x.01", "x.1.2", "x.1.1.1"]
        );
    }

    #[test]
    fn tags_apply_to_subsequent_instrs() {
        let mut b = Builder::new("m", 1);
        let a = b.parameter(f32s(&[2]), "x");
        b.set_tag(Some("lce"));
        let c = b.copy(a, "c");
        b.set_tag(None);
        let d = b.copy(c, "d");
        let m = b.build(vec![d]);
        assert_eq!(m.instr(a).tag(), None);
        assert_eq!(m.instr(c).tag(), Some("lce"));
        assert_eq!(m.instr(d).tag(), None);
    }

    #[test]
    fn collective_shapes() {
        let mut b = Builder::new("m", 4);
        let x = b.parameter(f32s(&[2, 8]), "x");
        let g = b.all_gather(x, 0, ReplicaGroups::full(4), "ag");
        assert_eq!(b.shape_of(g).dims(), &[8, 8]);
        let rs = b.reduce_scatter(g, 1, ReplicaGroups::full(4), "rs");
        assert_eq!(b.shape_of(rs).dims(), &[8, 2]);
        let ar = b.all_reduce(rs, ReplicaGroups::full(4), "ar");
        assert_eq!(b.shape_of(ar).dims(), &[8, 2]);
        let a2a = b.all_to_all(g, 0, 1, ReplicaGroups::full(4), "a2a");
        assert_eq!(b.shape_of(a2a).dims(), &[2, 32]);
        b.build(vec![a2a]).verify().unwrap();
    }

    #[test]
    fn permute_start_done() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        let s = b.collective_permute_start(x, vec![(0, 1), (1, 0)], "cps");
        let d = b.collective_permute_done(s, "cpd");
        let m = b.build(vec![d]);
        m.verify().unwrap();
        assert_eq!(m.shape_of(d).dims(), &[4]);
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn duplicate_destination_panics() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        b.collective_permute(x, vec![(0, 1), (1, 1)], "cp");
    }

    #[test]
    fn async_permute_appends_start_then_named_done_under_the_tag() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        b.set_tag(Some("lce.cp"));
        let first = b.collective_permute_async(x, vec![(0, 1), (1, 0)], WireFormat::Lossless, "cp");
        let second =
            b.collective_permute_async(first, vec![(0, 1), (1, 0)], WireFormat::Lossless, "cp");
        b.set_tag(None);
        let m = b.build(vec![second]);
        m.verify().unwrap();
        let names: Vec<&str> = m.iter().map(|(_, i)| i.name()).collect();
        assert_eq!(names, ["x", "cp", "cp.done", "cp.1", "cp.1.done"]);
        for (id, ins) in m.iter().skip(1) {
            assert_eq!(ins.tag(), Some("lce.cp"), "{id}");
        }
        assert!(matches!(m.instr(second).op(), Op::CollectivePermuteDone));
        assert_eq!(m.instr(second).operands(), &[InstrId(3)]);
    }

    #[test]
    fn a_shared_pair_list_is_kept_by_every_permute() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        let ring: Arc<[(u32, u32)]> = Arc::from(vec![(0, 1), (1, 0)]);
        let a = b.collective_permute(x, Arc::clone(&ring), "a");
        let c = b.collective_permute(a, Arc::clone(&ring), "c");
        let m = b.build(vec![c]);
        for id in [a, c] {
            let Op::CollectivePermute { pairs, .. } = m.instr(id).op() else { unreachable!() };
            assert!(Arc::ptr_eq(pairs, &ring));
        }
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn a_list_allocated_after_a_checked_one_is_dropped_is_still_checked() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        // The caller's handle to the checked list goes away here; the
        // builder's clone keeps its address from being reused below.
        let p = b.collective_permute(x, vec![(0, 1), (1, 0)], "p");
        b.collective_permute(p, vec![(0, 1), (1, 1)], "q");
    }

    #[test]
    #[should_panic(expected = "duplicate destination")]
    fn a_second_arc_of_a_rejected_list_is_rejected() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        let bad = vec![(0, 1), (1, 1)];
        let first: Arc<[(u32, u32)]> = Arc::from(bad.clone());
        let second: Arc<[(u32, u32)]> = Arc::from(bad);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            b.collective_permute(x, first, "p");
        }));
        assert!(caught.is_err(), "the first copy must be rejected");
        b.collective_permute(x, second, "q");
    }

    #[test]
    #[should_panic(expected = "must be a start")]
    fn done_requires_start() {
        let mut b = Builder::new("m", 2);
        let x = b.parameter(f32s(&[4]), "x");
        b.collective_permute_done(x, "cpd");
    }

    #[test]
    fn dynamic_slice_and_update() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[8, 4]), "x");
        let zero = b.scalar_s32(0, "zero");
        let two = b.scalar_s32(2, "two");
        let ds = b.dynamic_slice(x, &[two, zero], vec![2, 4], "ds");
        assert_eq!(b.shape_of(ds).dims(), &[2, 4]);
        let dus = b.dynamic_update_slice(x, ds, &[zero, zero], "dus");
        assert_eq!(b.shape_of(dus).dims(), &[8, 4]);
        b.build(vec![dus]).verify().unwrap();
    }

    #[test]
    fn pad_and_concat_and_max() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[2, 3]), "x");
        let y = b.parameter(f32s(&[2, 3]), "y");
        let v = b.constant(Shape::scalar(DType::F32), f64::NEG_INFINITY, "ninf");
        let px = b.pad(x, v, vec![PadDim::none(), PadDim::new(0, 3)], "px");
        let py = b.pad(y, v, vec![PadDim::none(), PadDim::new(3, 0)], "py");
        let m = b.max(px, py, "m");
        assert_eq!(b.shape_of(m).dims(), &[2, 6]);
        let c = b.concatenate(&[x, y], 1, "c");
        assert_eq!(b.shape_of(c).dims(), &[2, 6]);
        b.build(vec![m, c]).verify().unwrap();
    }

    #[test]
    fn copy_of_preserves_parameter_index() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[2]), "x");
        let y = b.parameter(f32s(&[2]), "y");
        let s = b.add(x, y, "s");
        let m = b.build(vec![s]);

        let mut b2 = Builder::new("m2", 1);
        // Copy in reverse parameter order; indexes must survive.
        let y2 = b2.copy_of(&m, y, vec![]);
        let x2 = b2.copy_of(&m, x, vec![]);
        let s2 = b2.copy_of(&m, s, vec![x2, y2]);
        let m2 = b2.build(vec![s2]);
        m2.verify().unwrap();
        assert_eq!(m2.parameters(), vec![x2, y2]);
    }

    #[test]
    fn transpose_and_broadcast() {
        let mut b = Builder::new("m", 1);
        let x = b.parameter(f32s(&[2, 3]), "x");
        let t = b.transpose(x, vec![1, 0], "t");
        assert_eq!(b.shape_of(t).dims(), &[3, 2]);
        let bc = b.broadcast(x, f32s(&[2, 5, 3]), vec![0, 2], "bc");
        assert_eq!(b.shape_of(bc).dims(), &[2, 5, 3]);
        b.build(vec![t, bc]).verify().unwrap();
    }
}
