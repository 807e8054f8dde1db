//! Distance measures used by the classifiers.

/// Manhattan (L1) distance between two equally sized vectors. For
/// normalized BBVs the result lies in [0, 2].
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| (x - y).abs()).sum()
}

/// Manhattan distance between the concatenation `head ++ tail` and `b`,
/// fused into one pass so the caller never materializes the concatenation.
///
/// This is the weighted-Manhattan comparison of the concatenated-vector
/// classifier (normalized BBV head, distance-weighted DDV tail): terms are
/// accumulated left to right exactly as [`manhattan`] over the materialized
/// concatenation would, so results are bit-identical to the two-step form.
#[inline]
pub fn manhattan_concat(head: &[f64], tail: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(head.len() + tail.len(), b.len());
    let (bh, bt) = b.split_at(head.len());
    let mut sum = 0.0;
    for (x, y) in head.iter().zip(bh) {
        sum += (x - y).abs();
    }
    for (x, y) in tail.iter().zip(bt) {
        sum += (x - y).abs();
    }
    sum
}

/// Relative difference between two non-negative scalars, in [0, 1]:
/// `|a - b| / max(a, b)`, with 0 when both are ~zero and NaN when either
/// is NaN (so a `< threshold` gate rejects it).
///
/// The paper requires "a DDS difference below \[a\] pre-set threshold" without
/// fixing the metric; a relative difference makes one threshold meaningful
/// across applications whose absolute DDS magnitudes differ by orders of
/// magnitude.
#[inline]
pub fn relative_diff(a: f64, b: f64) -> f64 {
    debug_assert!(!(a < 0.0 || b < 0.0));
    if a.is_nan() || b.is_nan() {
        return f64::NAN;
    }
    let m = a.max(b);
    if m <= f64::EPSILON {
        0.0
    } else {
        (a - b).abs() / m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_basics() {
        assert_eq!(manhattan(&[0.0, 1.0], &[0.0, 1.0]), 0.0);
        assert_eq!(manhattan(&[1.0, 0.0], &[0.0, 1.0]), 2.0);
        assert!((manhattan(&[0.5, 0.5], &[0.25, 0.75]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn manhattan_bounds_for_normalized_vectors() {
        // Two distributions: distance is at most 2 (disjoint support).
        let a = [0.2, 0.3, 0.5, 0.0];
        let b = [0.0, 0.0, 0.0, 1.0];
        let d = manhattan(&a, &b);
        assert!(d > 0.0 && d <= 2.0);
    }

    #[test]
    fn manhattan_concat_matches_materialized_concatenation() {
        let head = [0.2, 0.3, 0.5];
        let tail = [1.5, 0.0, 4.25, 0.125];
        let b = [0.1, 0.3, 0.7, 1.0, 0.5, 4.0, 0.0];
        let mut cat = head.to_vec();
        cat.extend_from_slice(&tail);
        // Bit-identical, not just approximately equal: same accumulation order.
        assert_eq!(manhattan_concat(&head, &tail, &b), manhattan(&cat, &b));
        assert_eq!(manhattan_concat(&head, &[], &head), 0.0);
        assert_eq!(manhattan_concat(&[], &tail, &tail), 0.0);
    }

    #[test]
    fn relative_diff_basics() {
        assert_eq!(relative_diff(0.0, 0.0), 0.0);
        assert_eq!(relative_diff(10.0, 10.0), 0.0);
        assert!((relative_diff(10.0, 5.0) - 0.5).abs() < 1e-12);
        assert!((relative_diff(5.0, 10.0) - 0.5).abs() < 1e-12);
        assert_eq!(relative_diff(0.0, 7.0), 1.0);
        assert!(relative_diff(f64::NAN, 0.0).is_nan());
        assert!(relative_diff(3.0, f64::NAN).is_nan());
    }

    #[test]
    fn relative_diff_is_symmetric_and_bounded() {
        for (a, b) in [(1.0, 3.0), (100.0, 0.5), (1e12, 1e-3)] {
            assert_eq!(relative_diff(a, b), relative_diff(b, a));
            let d = relative_diff(a, b);
            assert!((0.0..=1.0).contains(&d));
        }
    }
}
