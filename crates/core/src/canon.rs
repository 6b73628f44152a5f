//! Mode canonicalization.
//!
//! Both [`crate::tucker::project`] and [`crate::parafac::mttkrp`] are
//! defined for an arbitrary target mode, but the distributed kernels are
//! written once for the canonical orientation: the target mode first, then
//! the remaining two modes in ascending original order. `canonicalize`
//! permutes a tensor into that orientation; the kernel outputs
//! (`Y(x₀, q, r)` / `M(x₀, r)`) are already in caller coordinates because
//! slot 0 *is* the target mode.

use haten2_tensor::CooTensor3;
use std::borrow::Cow;

/// Permute `t` so that `target` becomes mode 0 and the other two modes
/// follow in ascending original order. Returns the permuted tensor and the
/// permutation `perm` (canonical position → original mode). Target mode 0
/// moves nothing, so `t` itself is returned, borrowed.
pub fn canonicalize(t: &CooTensor3, target: usize) -> (Cow<'_, CooTensor3>, [usize; 3]) {
    assert!(target < 3, "target mode must be 0, 1 or 2");
    let others: Vec<usize> = (0..3).filter(|&m| m != target).collect();
    let perm = [target, others[0], others[1]];
    if perm == [0, 1, 2] {
        return (Cow::Borrowed(t), perm);
    }
    let canon = t.permute(perm).expect("permutation preserves bounds");
    (Cow::Owned(canon), perm)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haten2_tensor::Entry3;

    fn sample() -> CooTensor3 {
        CooTensor3::from_entries(
            [2, 3, 4],
            vec![Entry3::new(1, 2, 3, 5.0), Entry3::new(0, 1, 0, -1.0)],
        )
        .unwrap()
    }

    #[test]
    fn target_zero_is_identity() {
        let t = sample();
        let (c, perm) = canonicalize(&t, 0);
        assert_eq!(perm, [0, 1, 2]);
        assert!(matches!(c, Cow::Borrowed(_)), "the identity is not copied");
        assert_eq!(*c, t);
    }

    #[test]
    fn target_one_swaps() {
        let t = sample();
        let (c, perm) = canonicalize(&t, 1);
        assert_eq!(perm, [1, 0, 2]);
        assert_eq!(c.dims(), [3, 2, 4]);
        assert_eq!(c.get(2, 1, 3), 5.0);
        assert_eq!(c.get(1, 0, 0), -1.0);
    }

    #[test]
    fn target_two_rotates() {
        let t = sample();
        let (c, perm) = canonicalize(&t, 2);
        assert_eq!(perm, [2, 0, 1]);
        assert_eq!(c.dims(), [4, 2, 3]);
        assert_eq!(c.get(3, 1, 2), 5.0);
    }

    #[test]
    fn norm_preserved() {
        let t = sample();
        for m in 0..3 {
            let (c, _) = canonicalize(&t, m);
            assert!((c.fro_norm() - t.fro_norm()).abs() < 1e-12);
            assert_eq!(c.nnz(), t.nnz());
        }
    }
}
