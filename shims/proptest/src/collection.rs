//! Collection strategies (`proptest::collection::vec`).

use crate::strategy::Strategy;
use crate::TestRng;
use rand::Rng;
use std::ops::{Range, RangeInclusive};

/// Anything usable as the size argument of [`vec()`]: a fixed length or a
/// range of lengths.
pub trait SizeRange {
    /// Draw a concrete length.
    fn pick(&self, rng: &mut TestRng) -> usize;
}

impl SizeRange for usize {
    fn pick(&self, _rng: &mut TestRng) -> usize {
        *self
    }
}

impl SizeRange for Range<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

impl SizeRange for RangeInclusive<usize> {
    fn pick(&self, rng: &mut TestRng) -> usize {
        rng.gen_range(self.clone())
    }
}

/// Strategy for `Vec<S::Value>` with a length drawn from `size`.
#[derive(Debug, Clone)]
pub struct VecStrategy<S, Z> {
    element: S,
    size: Z,
}

impl<S: Strategy, Z: SizeRange> Strategy for VecStrategy<S, Z> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// A vector whose elements come from `element` and whose length comes from
/// `size` (a `usize` or a range of `usize`).
pub fn vec<S: Strategy, Z: SizeRange>(element: S, size: Z) -> VecStrategy<S, Z> {
    VecStrategy { element, size }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::__case_rng;

    #[test]
    fn vec_respects_size_range() {
        let mut rng = __case_rng("vec_sizes", 0);
        let s = vec(0u64..100, 3..7);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((3..7).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 100));
        }
    }

    #[test]
    fn vec_fixed_size() {
        let mut rng = __case_rng("vec_fixed", 0);
        assert_eq!(vec(0u64..10, 5usize).generate(&mut rng).len(), 5);
    }
}
