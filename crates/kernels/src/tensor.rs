//! Dense f32 tensors in row-major NHWC layout.

use pimflow_ir::Shape;
use std::fmt;

/// A dense f32 tensor.
///
/// Data is stored row-major over the shape's dimensions, so a 4-D NHWC
/// tensor is laid out exactly as the paper's memory optimizer (§4.3.2)
/// assumes: slicing along H yields a contiguous sub-buffer.
///
/// # Examples
///
/// ```
/// use pimflow_kernels::Tensor;
/// use pimflow_ir::Shape;
///
/// let t = Tensor::from_fn(Shape::nhwc(1, 2, 2, 3), |i| i as f32);
/// assert_eq!(t.get(&[0, 1, 0, 2]), 8.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a zero-filled tensor.
    pub fn zeros(shape: Shape) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor from existing data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match `shape.numel()`.
    pub fn from_vec(shape: Shape, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            shape.numel(),
            "data length {} does not match shape {shape}",
            data.len()
        );
        Tensor { shape, data }
    }

    /// Creates a tensor by evaluating `f` at each linear index.
    pub fn from_fn(shape: Shape, f: impl FnMut(usize) -> f32) -> Self {
        let n = shape.numel();
        Tensor {
            shape,
            data: (0..n).map(f).collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Flat read-only view of the data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Flat mutable view of the data.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes the tensor and returns its backing buffer — the handoff
    /// point into the executor's arena, which recycles freed buffers
    /// instead of letting the allocator see them.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Resident size of the tensor's payload in bytes.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Linear index of a multi-dimensional coordinate.
    ///
    /// # Panics
    ///
    /// Panics if `idx` has the wrong rank or is out of bounds.
    pub fn offset(&self, idx: &[usize]) -> usize {
        assert_eq!(idx.len(), self.shape.rank(), "index rank mismatch");
        let mut off = 0;
        for (axis, &i) in idx.iter().enumerate() {
            let extent = self.shape.dim(axis);
            assert!(
                i < extent,
                "index {i} out of bounds for axis {axis} (extent {extent})"
            );
            off = off * extent + i;
        }
        off
    }

    /// Reads the element at a multi-dimensional coordinate.
    pub fn get(&self, idx: &[usize]) -> f32 {
        self.data[self.offset(idx)]
    }

    /// Writes the element at a multi-dimensional coordinate.
    pub fn set(&mut self, idx: &[usize], v: f32) {
        let off = self.offset(idx);
        self.data[off] = v;
    }

    /// Maximum absolute difference to another tensor.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Tensor) -> f32 {
        assert_eq!(self.shape, other.shape, "shape mismatch in comparison");
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }

    /// True if every element is within `tol` of `other`.
    pub fn allclose(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape && self.max_abs_diff(other) <= tol
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} ({} elements)", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_row_major() {
        let t = Tensor::from_fn(Shape::nhwc(1, 2, 3, 4), |i| i as f32);
        assert_eq!(t.offset(&[0, 0, 0, 0]), 0);
        assert_eq!(t.offset(&[0, 0, 0, 3]), 3);
        assert_eq!(t.offset(&[0, 0, 1, 0]), 4);
        assert_eq!(t.offset(&[0, 1, 0, 0]), 12);
    }

    #[test]
    fn h_slices_are_contiguous() {
        // The invariant the memory optimizer (§4.3.2) relies on.
        let t = Tensor::from_fn(Shape::nhwc(1, 4, 2, 3), |i| i as f32);
        let row_elems = 2 * 3;
        let start = t.offset(&[0, 2, 0, 0]);
        assert_eq!(start, 2 * row_elems);
        let slice = &t.data()[start..start + 2 * row_elems];
        assert_eq!(slice[0], (2 * row_elems) as f32);
        assert_eq!(slice.len(), 2 * row_elems);
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(Shape::rf(2, 3));
        t.set(&[1, 2], 7.5);
        assert_eq!(t.get(&[1, 2]), 7.5);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn oob_panics() {
        Tensor::zeros(Shape::rf(2, 3)).get(&[2, 0]);
    }

    #[test]
    fn into_data_and_size_bytes_round_trip() {
        let t = Tensor::from_fn(Shape::nhwc(1, 2, 2, 3), |i| i as f32);
        assert_eq!(t.size_bytes(), 12 * 4);
        let data = t.into_data();
        assert_eq!(data.len(), 12);
        assert_eq!(data[7], 7.0);
    }

    #[test]
    fn allclose_tolerates_small_diffs() {
        let a = Tensor::from_fn(Shape::rf(1, 4), |i| i as f32);
        let mut b = a.clone();
        b.data_mut()[2] += 1e-6;
        assert!(a.allclose(&b, 1e-5));
        assert!(!a.allclose(&b, 1e-8));
    }
}
