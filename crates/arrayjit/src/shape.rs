//! Static shapes and NumPy-style broadcasting.
//!
//! Like XLA, every value in an `arrayjit` program has a shape that is fully
//! known at trace time — the constraint that forced the paper's authors to
//! pad variable-length intervals to the maximum interval size (§ 2.3.2).

/// A static tensor shape (row-major / C order).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Shape(pub Vec<usize>);

impl Shape {
    /// A scalar (rank 0).
    pub fn scalar() -> Self {
        Shape(Vec::new())
    }

    /// Total number of elements.
    pub fn elements(&self) -> usize {
        self.0.iter().product()
    }

    /// Rank (number of axes).
    pub fn rank(&self) -> usize {
        self.0.len()
    }

    /// Dimension of axis `i`.
    pub fn dim(&self, i: usize) -> usize {
        self.0[i]
    }

    /// Row-major strides, in elements.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![0; self.0.len()];
        let mut acc = 1;
        for i in (0..self.0.len()).rev() {
            strides[i] = acc;
            acc *= self.0[i];
        }
        strides
    }

    /// NumPy broadcasting: align trailing axes; dimensions must match or be
    /// one. Returns the broadcast result shape or `None` if incompatible.
    // The index loop aligns trailing axes of two ranks at once.
    #[allow(clippy::needless_range_loop)]
    pub fn broadcast(&self, other: &Shape) -> Option<Shape> {
        let rank = self.rank().max(other.rank());
        let mut out = vec![0usize; rank];
        for i in 0..rank {
            let a = if i < rank - self.rank() {
                1
            } else {
                self.0[i - (rank - self.rank())]
            };
            let b = if i < rank - other.rank() {
                1
            } else {
                other.0[i - (rank - other.rank())]
            };
            out[i] = if a == b {
                a
            } else if a == 1 {
                b
            } else if b == 1 {
                a
            } else {
                return None;
            };
        }
        Some(Shape(out))
    }

    /// Whether `self` can broadcast *to* exactly `target`.
    pub fn broadcastable_to(&self, target: &Shape) -> bool {
        match self.broadcast(target) {
            Some(s) => &s == target,
            None => false,
        }
    }
}

impl From<Vec<usize>> for Shape {
    fn from(v: Vec<usize>) -> Self {
        Shape(v)
    }
}

impl From<&[usize]> for Shape {
    fn from(v: &[usize]) -> Self {
        Shape(v.to_vec())
    }
}

impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[")?;
        for (i, d) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elements_and_strides() {
        let s = Shape(vec![2, 3, 4]);
        assert_eq!(s.elements(), 24);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        assert_eq!(Shape::scalar().elements(), 1);
        assert_eq!(Shape::scalar().strides(), Vec::<usize>::new());
    }

    #[test]
    fn broadcasting_rules() {
        let a = Shape(vec![4, 1]);
        let b = Shape(vec![3]);
        assert_eq!(a.broadcast(&b), Some(Shape(vec![4, 3])));
        // Scalars broadcast with everything.
        assert_eq!(Shape::scalar().broadcast(&a), Some(a.clone()));
        // Mismatched non-1 dims fail.
        assert_eq!(Shape(vec![2]).broadcast(&Shape(vec![3])), None);
        // Equal shapes pass through.
        let c = Shape(vec![5, 6]);
        assert_eq!(c.broadcast(&c), Some(c.clone()));
    }

    #[test]
    fn broadcastable_to_is_directional() {
        assert!(Shape(vec![1, 3]).broadcastable_to(&Shape(vec![2, 3])));
        assert!(!Shape(vec![2, 3]).broadcastable_to(&Shape(vec![1, 3])));
        assert!(Shape::scalar().broadcastable_to(&Shape(vec![7, 7])));
    }
}
