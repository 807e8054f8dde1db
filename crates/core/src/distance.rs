//! Distance measures used by the classifiers.

/// Manhattan (L1) distance between two equally sized vectors. For
/// normalized BBVs the result lies in [0, 2]. Terms are summed left to
/// right from `+0.0`.
#[inline]
pub fn manhattan(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).fold(0.0, |sum, (x, y)| sum + (x - y).abs())
}

/// Rows [`manhattan_rows`] compares at once.
const LANES: usize = 8;

/// `out[l] = manhattan(a, rows[l])` for every row, [`LANES`] rows at a
/// time. Each lane sums its own terms left to right, exactly as
/// [`manhattan`] does, so every result is bit-identical to the one-row
/// form: the lanes only give the CPU independent add chains to overlap.
/// Rows left over after the last full group of lanes go through
/// [`manhattan`] itself. This is the batched distance the BBV sweeps pass
/// to [`crate::detector::TraceClassifier::sweep_proc`].
pub fn manhattan_rows(a: &[f64], rows: &[&[f64]], out: &mut [f64]) {
    assert_eq!(rows.len(), out.len());
    let mut groups = rows.chunks_exact(LANES);
    let mut outs = out.chunks_exact_mut(LANES);
    for (group, out) in (&mut groups).zip(&mut outs) {
        let group: [&[f64]; LANES] = std::array::from_fn(|l| {
            debug_assert_eq!(group[l].len(), a.len());
            &group[l][..a.len()]
        });
        let mut sum = [0.0; LANES];
        for (k, &x) in a.iter().enumerate() {
            for (s, row) in sum.iter_mut().zip(&group) {
                *s += (x - row[k]).abs();
            }
        }
        out.copy_from_slice(&sum);
    }
    for (row, o) in groups.remainder().iter().zip(outs.into_remainder()) {
        *o = manhattan(a, row);
    }
}

/// A one-pair distance in the batched form
/// [`crate::detector::TraceClassifier::sweep_proc`] takes:
/// `out[l] = distance(a, rows[l])` for every row.
pub fn rowwise<S: ?Sized>(
    distance: impl Fn(&S, &S) -> f64,
) -> impl FnMut(&S, &[&S], &mut [f64]) {
    move |a, rows, out| {
        for (o, row) in out.iter_mut().zip(rows) {
            *o = distance(a, row);
        }
    }
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
    fn every_lane_is_bit_identical_to_manhattan() {
        // Awkward values first, so short rows hit them too.
        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0, 1e-300];
        let value = |seed: usize| {
            special
                .get(seed % 11)
                .copied()
                .unwrap_or((seed * 37 % 101) as f64 / 64.0 - 0.5)
        };
        for len in 0..=40 {
            let a: Vec<f64> = (0..len).map(|k| value(k * 7 + len)).collect();
            let rows: Vec<Vec<f64>> = (0..2 * LANES + 3)
                .map(|r| (0..len).map(|k| value(k * 13 + r * 5 + 1)).collect())
                .collect();
            // Every row count up to two full groups plus a remainder.
            for n in 0..=rows.len() {
                let refs: Vec<&[f64]> = rows[..n].iter().map(Vec::as_slice).collect();
                let mut out = vec![f64::NAN; n];
                manhattan_rows(&a, &refs, &mut out);
                for (row, got) in refs.iter().zip(&out) {
                    let want = manhattan(&a, row);
                    assert_eq!(got.to_bits(), want.to_bits(), "len {len}, {n} rows");
                }
            }
        }
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
