//! System-level checks of the paper's DDV protocol (§III-B) on real
//! simulated runs: counter conservation, contention-vector dominance, and
//! the interval-scaling rule — plus the scheduler's deadlock diagnostic.

use dsm_phase_detection::prelude::*;
use dsm_phase_detection::sim::{Event, InstructionStream, NullObserver};

#[test]
fn fvec_conserves_committed_accesses() {
    for app in [App::Lu, App::Art] {
        let trace = capture(ExperimentConfig::test(app, 4));
        for (proc, records) in trace.records.iter().enumerate() {
            let counted: u64 =
                records.iter().flat_map(|r| r.fvec()).map(|&f| u64::from(f)).sum();
            let committed = trace.stats.procs[proc].mem_refs;
            // Every access in a closed interval is counted exactly once;
            // only the tail after the last interval boundary is uncounted.
            assert!(
                counted <= committed,
                "{} proc {proc}: counted {counted} > committed {committed}",
                app.name()
            );
            let tail_bound = committed / records.len().max(1) as u64 * 3;
            assert!(
                committed - counted <= tail_bound.max(2000),
                "{} proc {proc}: too many accesses missing from F ({counted} of {committed})",
                app.name()
            );
        }
    }
}

#[test]
fn contention_vector_dominates_own_frequency_vector() {
    // C[j] sums every node's accesses to home j over the requester's
    // window, so C >= F componentwise in every interval.
    let trace = capture(ExperimentConfig::test(App::Fmm, 8));
    for records in &trace.records {
        for r in records {
            for (c, f) in r.cvec().iter().zip(r.fvec()) {
                assert!(c >= f, "C must dominate F: C={:?} F={:?}", r.cvec(), r.fvec());
            }
        }
    }
}

#[test]
fn dds_matches_recorded_features() {
    // The recorded DDS equals the formula applied to the recorded F, D, C.
    let trace = capture(ExperimentConfig::test(App::Equake, 4));
    let ddv = DdvState::for_hypercube(4);
    for (proc, records) in trace.records.iter().enumerate() {
        for r in records {
            let expect = DdvState::dds_of(r.fvec(), ddv.dist_row(proc), r.cvec());
            assert!(
                (expect - r.dds).abs() <= expect.abs() * 1e-12,
                "DDS mismatch: {} vs {}",
                expect,
                r.dds
            );
        }
    }
}

#[test]
fn interval_length_follows_paper_scaling() {
    // "The interval size in each processor is [base] divided by the number
    // of processors" — so interval counts stay comparable as n scales.
    {
        let app = App::Lu;
        let t2 = capture(ExperimentConfig::test(app, 2));
        let t8 = capture(ExperimentConfig::test(app, 8));
        let len2 = t2.records[0][0].insns as f64;
        let len8 = t8.records[0][0].insns as f64;
        let ratio = len2 / len8;
        assert!(
            (3.0..6.0).contains(&ratio),
            "interval length must shrink ~4x from 2P to 8P, got {ratio}"
        );
    }
}

/// A malformed workload: processor 0 arrives at a barrier no other
/// processor ever reaches, then everyone else ends.
struct UnmatchedBarrier {
    emitted: Vec<usize>,
}

impl InstructionStream for UnmatchedBarrier {
    fn n_procs(&self) -> usize {
        self.emitted.len()
    }

    fn next(&mut self, proc: usize) -> Event {
        let step = self.emitted[proc];
        self.emitted[proc] += 1;
        match (proc, step) {
            (_, 0) => Event::Block { bb: 1, insns: 10, taken: false },
            (0, 1) => Event::Barrier { id: 7 },
            _ => Event::End,
        }
    }
}

#[test]
fn deadlock_diagnostic_fires_instead_of_hanging() {
    // Regression for the scheduler's #[cold] no-runnable-processor path: a
    // workload with an unmatched barrier must abort with a diagnostic
    // naming the blocked processors, not spin or hang forever.
    let run = |batched: bool| {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let cfg = dsm_phase_detection::sim::SystemConfig::paper(2);
            let stream = UnmatchedBarrier { emitted: vec![0; 2] };
            let system = System::new(cfg, stream, NullObserver);
            if batched {
                system.run()
            } else {
                system.run_unbatched()
            }
        }))
    };
    for batched in [true, false] {
        let err = run(batched).expect_err("unmatched barrier must not complete");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        assert!(
            msg.contains("deadlock") && msg.contains("[0]"),
            "batched={batched}: diagnostic must name the deadlock and the \
             blocked processor, got: {msg}"
        );
    }
}

#[test]
fn intervals_have_positive_cpi_and_expected_length() {
    let cfg = ExperimentConfig::test(App::Art, 4);
    let expected = cfg.system_config().interval_len();
    let trace = capture(cfg);
    for records in &trace.records {
        for r in records {
            assert!(r.insns >= expected, "interval shorter than configured");
            assert!(r.insns < expected * 3, "interval absurdly long: {}", r.insns);
            assert!(r.cpi() > 0.05 && r.cpi() < 1000.0, "CPI out of range: {}", r.cpi());
            assert!((r.normalized_bbv().iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }
}
