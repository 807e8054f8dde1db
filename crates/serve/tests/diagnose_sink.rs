//! Serve-side diagnosis integration:
//!
//! * the stalled-consumer regression — the sink observes at classification
//!   time, so output-buffer stalls must never desynchronize or skew the
//!   diagnosis window (this is the fix for the tick path losing the
//!   originating interval index when outputs stall);
//! * the `tenant_diagnosis` API surface and its
//!   `serve/tenant/<id>/diagnose/…` metrics;
//! * `ClassifierBank` isolation under mixed degraded/clean interleavings
//!   across tenants.

use dsm_diagnose::NodeTelemetry;
use dsm_phase::detector::{DetectorMode, Thresholds};
use dsm_phase::signature::{ClassifierBank, IntervalSignature};
use dsm_phase::ClassifiedInterval;
use dsm_serve::{Ingest, PhaseServer, ServeConfig, TenantConfig};

fn tcfg(n_procs: usize) -> TenantConfig {
    let mut c =
        TenantConfig::new(n_procs, DetectorMode::BbvDdv, Thresholds { bbv: 0.4, dds: 0.25 });
    c.bbv_entries = 4;
    c
}

fn sig(proc: usize, index: u64, flavor: u64, degraded: bool) -> IntervalSignature {
    let mut bbv = vec![0.0; 4];
    bbv[(flavor % 4) as usize] = 1.0;
    IntervalSignature {
        proc,
        index,
        insns: 1000,
        cycles: 2000 + flavor * 400,
        bbv,
        dds: 10.0 + flavor as f64,
        degraded,
    }
}

/// Per-proc round-robin feed: every proc gets the same number of intervals,
/// proc 1 running a divergent flavor sequence when `divergent` is set.
fn feed(srv: &mut PhaseServer, t: dsm_serve::TenantId, n_procs: usize, len: u64, divergent: bool) {
    for i in 0..len {
        for p in 0..n_procs {
            let flavor = if divergent && p == 1 { 1 + i % 3 } else { 0 };
            assert!(
                matches!(srv.offer(t, sig(p, i, flavor, false)).unwrap(), Ingest::Enqueued { .. }),
                "feed assumes queue capacity covers the stream"
            );
        }
    }
}

#[test]
fn stalled_consumer_never_skews_the_diagnosis_window() {
    // Same stream into two servers: one with an ample output buffer and an
    // eager consumer, one with a tiny buffer and a dribbling consumer that
    // forces repeated classification stalls.
    let smooth_cfg = ServeConfig { diagnose_window: 64, ..ServeConfig::default() };
    let stalled_cfg = ServeConfig {
        diagnose_window: 64,
        output_capacity: 2,
        batch_size: 16,
        queue_capacity: 64,
        ..ServeConfig::default()
    };
    let mut smooth = PhaseServer::new(smooth_cfg);
    let mut stalled = PhaseServer::new(stalled_cfg);
    let ts = smooth.admit(tcfg(2)).unwrap();
    let tt = stalled.admit(tcfg(2)).unwrap();
    feed(&mut smooth, ts, 2, 12, true);
    feed(&mut stalled, tt, 2, 12, true);

    while smooth.run_batch() > 0 {
        smooth.drain_output(ts, usize::MAX).unwrap();
    }
    loop {
        let n = stalled.run_batch();
        // Dribble one interval per batch: the output buffer stays pinned at
        // capacity, stalling classification over and over.
        stalled.drain_output(tt, 1).unwrap();
        if n == 0 && stalled.queue_depth(tt) == Some(0) {
            break;
        }
    }
    while !stalled.drain_output(tt, usize::MAX).unwrap().is_empty() {}

    let st = stalled.stats(tt).unwrap();
    assert!(st.output_stalls > 0, "scenario must actually exercise stalls");
    assert_eq!(st.classified, 24);

    let a = smooth.tenant_diagnosis(ts, None).unwrap().expect("diagnosis enabled");
    let b = stalled.tenant_diagnosis(tt, None).unwrap().expect("diagnosis enabled");
    assert_eq!(a.realigns, 0, "smooth path must stay index-aligned");
    assert_eq!(b.realigns, 0, "stalls must not break interval-index alignment");
    assert_eq!(a.observed, b.observed);
    assert_eq!(a.diagnosis, b.diagnosis, "stalling the consumer must not change the verdict");
    assert_eq!(a.diagnosis.outliers.len(), 1);
    assert_eq!(a.diagnosis.outliers[0].node, 1);
}

#[test]
fn tenant_diagnosis_surfaces_through_the_api_and_metrics() {
    let cfg =
        ServeConfig { diagnose_window: 32, per_tenant_metrics: true, ..ServeConfig::default() };
    let mut srv = PhaseServer::new(cfg);
    let t = srv.admit(tcfg(2)).unwrap();
    feed(&mut srv, t, 2, 8, true);
    while srv.run_batch() > 0 {
        srv.drain_output(t, usize::MAX).unwrap();
    }

    let telemetry =
        vec![NodeTelemetry::default(), NodeTelemetry { retries: 50, ..NodeTelemetry::default() }];
    let d = srv.tenant_diagnosis(t, Some(&telemetry)).unwrap().expect("enabled");
    assert_eq!(d.tenant, t);
    assert_eq!(d.window, 32);
    assert_eq!(d.observed, 16);
    assert_eq!(d.diagnosis.outliers[0].node, 1);
    assert!(!d.diagnosis.outliers[0].hints.is_empty(), "telemetry produces hints");

    let snap = srv.telemetry_snapshot();
    let get = |name: String| {
        snap.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("missing metric {name}"))
            .value
            .clone()
    };
    assert_eq!(
        get(format!("serve/tenant/{}/diagnose/observed", t.0)),
        dsm_telemetry::MetricValue::Counter(16)
    );
    assert_eq!(
        get(format!("serve/tenant/{}/diagnose/realigns", t.0)),
        dsm_telemetry::MetricValue::Gauge(0.0)
    );
    assert_eq!(
        get(format!("serve/tenant/{}/diagnose/outliers", t.0)),
        dsm_telemetry::MetricValue::Gauge(1.0)
    );
}

#[test]
fn diagnosis_disabled_by_default() {
    let mut srv = PhaseServer::new(ServeConfig::default());
    let t = srv.admit(tcfg(1)).unwrap();
    srv.offer(t, sig(0, 0, 0, false)).unwrap();
    srv.run_batch();
    assert_eq!(srv.tenant_diagnosis(t, None).unwrap(), None);
}

#[test]
fn classifier_bank_is_isolated_under_mixed_degraded_interleavings() {
    // Three tenants, each with its own degraded pattern, offered round-robin
    // so the server interleaves their batches. Each tenant's served output
    // must be bit-identical to a standalone ClassifierBank fed only that
    // tenant's sequence — degraded flags included.
    let mut srv = PhaseServer::new(ServeConfig { shards: 2, ..ServeConfig::default() });
    let cfgs = [tcfg(2), tcfg(2), tcfg(2)];
    let ids: Vec<_> = cfgs.iter().map(|c| srv.admit(*c).unwrap()).collect();
    // Tenant k degrades intervals where (i + k) % (k + 2) == 0 — three
    // different clean/degraded interleavings.
    let degraded_at = |k: usize, i: u64| (i + k as u64).is_multiple_of(k as u64 + 2);

    let mut sent: Vec<Vec<IntervalSignature>> = vec![Vec::new(); 3];
    for i in 0..10u64 {
        for (k, &t) in ids.iter().enumerate() {
            for p in 0..2 {
                let s = sig(p, i, (i + k as u64) % 3, degraded_at(k, i));
                sent[k].push(s.clone());
                assert!(matches!(srv.offer(t, s).unwrap(), Ingest::Enqueued { .. }));
            }
        }
    }
    while srv.run_batch() > 0 {}

    for (k, &t) in ids.iter().enumerate() {
        let served = srv.drain_output(t, usize::MAX).unwrap();
        let c = cfgs[k];
        let mut bank = ClassifierBank::new(c.n_procs, c.mode, c.thresholds, c.footprint_vectors);
        let expected: Vec<ClassifiedInterval> =
            sent[k].iter().map(|s| bank.classify_signature(s)).collect();
        assert_eq!(served, expected, "tenant {t} diverged from standalone bank");
        // The degraded flags came through exactly as offered.
        let flags: Vec<bool> = served.iter().map(|c| c.degraded).collect();
        let offered_flags: Vec<bool> = sent[k].iter().map(|s| s.degraded).collect();
        assert_eq!(flags, offered_flags);
    }
}
