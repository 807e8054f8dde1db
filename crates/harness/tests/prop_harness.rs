//! Property tests for the harness: threshold generation and the experiment
//! engine's content-addressed cache keys.

use proptest::prelude::*;

use dsm_harness::parallel::cache_key;
use dsm_harness::sweep::log_spaced;
use dsm_harness::ExperimentConfig;
use dsm_workloads::{App, Scale};

fn arb_config() -> impl Strategy<Value = ExperimentConfig> {
    (
        prop::sample::select(App::EXTENDED.to_vec()),
        prop::sample::select(vec![2usize, 4, 8, 16, 32]),
        prop::sample::select(vec![Scale::Test, Scale::Scaled, Scale::Paper]),
        1_000u64..10_000_000,
    )
        .prop_map(|(app, n_procs, scale, interval_base)| ExperimentConfig {
            app,
            n_procs,
            scale,
            interval_base,
        })
}

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

    #[test]
    fn cache_key_is_a_pure_function_of_the_config(cfg in arb_config()) {
        prop_assert_eq!(cache_key(&cfg), cache_key(&cfg));
        // The key embeds the human-readable label for store inspection.
        prop_assert!(cache_key(&cfg).starts_with(&cfg.label()));
    }

    #[test]
    fn cache_key_agrees_with_config_equality(a in arb_config(), b in arb_config()) {
        prop_assert_eq!(a == b, cache_key(&a) == cache_key(&b),
            "configs {:?} vs {:?} disagree with their keys", a, b);
    }

    #[test]
    fn cache_key_changes_when_any_field_changes(cfg in arb_config(), bump in 1u64..100_000) {
        let k = cache_key(&cfg);
        let other_app = *App::EXTENDED.iter().find(|&&a| a != cfg.app).unwrap();
        let other_scale = [Scale::Test, Scale::Scaled, Scale::Paper]
            .into_iter()
            .find(|&s| s != cfg.scale)
            .unwrap();
        let variants = [
            ExperimentConfig { app: other_app, ..cfg },
            ExperimentConfig { n_procs: cfg.n_procs * 2, ..cfg },
            ExperimentConfig { scale: other_scale, ..cfg },
            ExperimentConfig { interval_base: cfg.interval_base + bump, ..cfg },
        ];
        for v in variants {
            prop_assert_ne!(&k, &cache_key(&v), "field change kept key for {:?}", v);
        }
    }
}
