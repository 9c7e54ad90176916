//! Concrete immutable arrays — the values that flow in and out of JIT'd
//! programs.
//!
//! Arrays are immutable (the JAX purity model): every operation produces a
//! new array, and in-place updates are expressed functionally
//! (`x.at[idx].set(v)` in JAX, [`crate::trace::Tracer::scatter_add`] here).
//! Buffer *donation* lets the JIT reuse an input allocation for an output,
//! which is how the paper's port recycles output-parameter memory.
//!
//! Because no array is ever written after it is built, storage is a shared
//! immutable buffer: cloning an array, reshaping it, passing it as a
//! program argument or returning a parameter as an output bumps a
//! reference count instead of copying elements.

use std::sync::Arc;

use crate::shape::Shape;

/// Element type of an array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 64-bit float (the paper enables JAX's 64-bit mode).
    F64,
    /// 64-bit signed integer (pixel indices, interval bounds).
    I64,
    /// Boolean (masks from comparisons).
    Bool,
}

impl DType {
    /// Bytes per element on the device.
    pub fn size(self) -> usize {
        match self {
            DType::F64 | DType::I64 => 8,
            DType::Bool => 1,
        }
    }
}

/// Type-erased dense storage, shared between the arrays that hold it.
#[derive(Debug, Clone, PartialEq)]
pub enum Data {
    F64(Arc<[f64]>),
    I64(Arc<[i64]>),
    Bool(Arc<[bool]>),
}

impl Data {
    /// Element count.
    pub fn len(&self) -> usize {
        match self {
            Data::F64(v) => v.len(),
            Data::I64(v) => v.len(),
            Data::Bool(v) => v.len(),
        }
    }

    /// True when no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The runtime dtype.
    pub fn dtype(&self) -> DType {
        match self {
            Data::F64(_) => DType::F64,
            Data::I64(_) => DType::I64,
            Data::Bool(_) => DType::Bool,
        }
    }
}

/// An immutable dense tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct Array {
    shape: Shape,
    data: Data,
}

impl Array {
    /// Build from a shape and matching storage.
    pub fn new(shape: impl Into<Shape>, data: Data) -> Self {
        let shape = shape.into();
        assert_eq!(
            shape.elements(),
            data.len(),
            "shape {shape} does not match {} elements",
            data.len()
        );
        Self { shape, data }
    }

    /// 1-D f64 array (from a `Vec` or a slice, copied once).
    pub fn from_f64(values: impl Into<Arc<[f64]>>) -> Self {
        let values = values.into();
        Self::new(vec![values.len()], Data::F64(values))
    }

    /// 1-D i64 array (from a `Vec` or a slice, copied once).
    pub fn from_i64(values: impl Into<Arc<[i64]>>) -> Self {
        let values = values.into();
        Self::new(vec![values.len()], Data::I64(values))
    }

    /// f64 array with an explicit shape.
    pub fn from_f64_shaped(shape: impl Into<Shape>, values: Vec<f64>) -> Self {
        Self::new(shape, Data::F64(values.into()))
    }

    /// i64 array with an explicit shape.
    pub fn from_i64_shaped(shape: impl Into<Shape>, values: Vec<i64>) -> Self {
        Self::new(shape, Data::I64(values.into()))
    }

    /// f64 scalar.
    pub fn scalar_f64(v: f64) -> Self {
        Self::new(Shape::scalar(), Data::F64(Arc::new([v])))
    }

    /// All-zero f64 array.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.elements();
        Self::new(shape, Data::F64(std::iter::repeat_n(0.0, n).collect()))
    }

    /// The shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// The dtype.
    pub fn dtype(&self) -> DType {
        self.data.dtype()
    }

    /// Element count.
    pub fn elements(&self) -> usize {
        self.data.len()
    }

    /// Size in bytes on the device.
    pub fn byte_size(&self) -> usize {
        self.elements() * self.dtype().size()
    }

    /// The raw storage.
    pub fn data(&self) -> &Data {
        &self.data
    }

    /// Flat f64 view; panics if not F64 (programming error in a kernel).
    pub fn as_f64(&self) -> &[f64] {
        match &self.data {
            Data::F64(v) => v,
            other => panic!("expected F64 array, found {:?}", other.dtype()),
        }
    }

    /// Flat i64 view; panics if not I64.
    pub fn as_i64(&self) -> &[i64] {
        match &self.data {
            Data::I64(v) => v,
            other => panic!("expected I64 array, found {:?}", other.dtype()),
        }
    }

    /// Flat bool view; panics if not Bool.
    pub fn as_bool(&self) -> &[bool] {
        match &self.data {
            Data::Bool(v) => v,
            other => panic!("expected Bool array, found {:?}", other.dtype()),
        }
    }

    /// Reinterpret with a new shape of equal element count (the storage is
    /// shared, not copied).
    pub fn reshaped(mut self, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(shape.elements(), self.elements(), "reshape size mismatch");
        self.shape = shape;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_views() {
        let a = Array::from_f64(vec![1.0, 2.0, 3.0]);
        assert_eq!(a.shape(), &Shape(vec![3]));
        assert_eq!(a.as_f64(), &[1.0, 2.0, 3.0]);
        assert_eq!(a.byte_size(), 24);

        let b = Array::from_i64_shaped(vec![2, 2], vec![1, 2, 3, 4]);
        assert_eq!(b.dtype(), DType::I64);
        assert_eq!(b.elements(), 4);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn shape_data_mismatch_panics() {
        Array::new(vec![2, 2], Data::F64(Arc::new([1.0])));
    }

    #[test]
    #[should_panic(expected = "expected F64")]
    fn wrong_view_panics() {
        Array::from_i64(vec![1]).as_f64();
    }

    #[test]
    fn reshape_preserves_data() {
        let a = Array::from_f64(vec![1.0, 2.0, 3.0, 4.0]).reshaped(vec![2, 2]);
        assert_eq!(a.shape(), &Shape(vec![2, 2]));
        assert_eq!(a.as_f64(), &[1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn scalars_have_rank_zero() {
        let s = Array::scalar_f64(7.5);
        assert_eq!(s.shape().rank(), 0);
        assert_eq!(s.elements(), 1);
    }
}
