//! Property tests for the harness's threshold generation.

use proptest::prelude::*;

use dsm_harness::sweep::log_spaced;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn log_spaced_is_monotone_and_hits_endpoints(
        n in 2usize..300,
        lo in 1e-6f64..0.1,
        span in 1.1f64..1000.0,
    ) {
        let hi = lo * span;
        let v = log_spaced(n, lo, hi);
        prop_assert_eq!(v.len(), n);
        prop_assert!((v[0] - lo).abs() / lo < 1e-9);
        prop_assert!((v[n - 1] - hi).abs() / hi < 1e-9);
        prop_assert!(v.windows(2).all(|w| w[1] > w[0]));
    }
}
