//! Non-finite signatures at the ingest boundary.
//!
//! The footprint gate rejects NaN distances and DDS differences, so a
//! non-finite signature never matches a stored entry, and once stored it
//! captures no later query. It would still open a phase of its own and
//! evict a real entry, and no detector produces one. `PhaseServer::offer`
//! therefore refuses non-finite BBV entries and DDS values before they
//! reach a table, and a poisoned offer must not decide the classification
//! of the clean intervals after it. The same pass refuses negative values,
//! and an interval of zero instructions is refused too: neither comes from
//! a real detector, and a refused offer leaves the tenant's table and
//! counters exactly as they were.

use dsm_phase::detector::{DetectorMode, Thresholds};
use dsm_phase::signature::IntervalSignature;
use dsm_phase::ClassifiedInterval;
use dsm_serve::{Ingest, PhaseServer, ServeConfig, ServeError, TenantConfig, TenantId};

const BBV_ENTRIES: usize = 4;

fn server() -> (PhaseServer, TenantId) {
    let mut srv = PhaseServer::new(ServeConfig::default());
    let mut cfg = TenantConfig::new(1, DetectorMode::BbvDdv, Thresholds { bbv: 0.4, dds: 0.25 });
    cfg.bbv_entries = BBV_ENTRIES;
    let t = srv.admit(cfg).unwrap();
    (srv, t)
}

/// A clean signature: all weight on BBV bucket `bucket`.
fn sig(index: u64, bucket: usize, dds: f64) -> IntervalSignature {
    let mut bbv = vec![0.0; BBV_ENTRIES];
    bbv[bucket] = 1.0;
    IntervalSignature { proc: 0, index, insns: 1000, cycles: 2000, bbv, dds, degraded: false }
}

fn classify_one(srv: &mut PhaseServer, t: TenantId, s: IntervalSignature) -> ClassifiedInterval {
    assert!(matches!(srv.offer(t, s).unwrap(), Ingest::Enqueued { .. }));
    srv.run_batch();
    let mut out = srv.drain_output(t, usize::MAX).unwrap();
    assert_eq!(out.len(), 1);
    out.pop().unwrap()
}

/// The poisoned signatures: a NaN or infinite BBV entry, and a NaN or
/// infinite DDS.
fn poisoned() -> Vec<IntervalSignature> {
    let mut out = Vec::new();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut s = sig(0, 0, 10.0);
        s.bbv[1] = bad;
        out.push(s);
        out.push(sig(0, 0, bad));
    }
    out
}

#[test]
fn nan_signature_does_not_capture_later_queries() {
    for bad in poisoned() {
        let (mut srv, t) = server();
        // Whatever the server does with the poisoned offer, it must not
        // decide the classification of the clean intervals that follow.
        let _ = srv.offer(t, bad.clone());
        srv.run_batch();
        srv.drain_output(t, usize::MAX).unwrap();
        // Bucket 2 is far from bucket 0 under the BBV gate, and DDS 1e6 is
        // far from 10 under the DDS gate: both are a fresh phase.
        let far_bbv = classify_one(&mut srv, t, sig(1, 2, 10.0));
        assert!(far_bbv.is_new_phase, "{bad:?} captured a BBV-distinct interval");
        let far_dds = classify_one(&mut srv, t, sig(2, 0, 1e6));
        assert!(far_dds.is_new_phase, "{bad:?} captured a DDS-distinct interval");
    }
}

#[test]
fn non_finite_offer_is_rejected_before_it_is_counted() {
    for bad in poisoned() {
        let (mut srv, t) = server();
        let field = if bad.dds.is_finite() { "bbv" } else { "dds" };
        let before = srv.stats(t).unwrap();
        assert_eq!(
            srv.offer(t, bad),
            Err(ServeError::NonFinite { tenant: t, field })
        );
        // Nothing was counted or queued.
        assert_eq!(srv.stats(t).unwrap(), before);
        assert_eq!(srv.queue_depth(t), Some(0));
        assert_eq!(srv.run_batch(), 0);
        assert!(srv.drain_output(t, usize::MAX).unwrap().is_empty());
        // The table is still empty: the first clean interval opens phase 0.
        let first = classify_one(&mut srv, t, sig(0, 0, 10.0));
        assert!(first.is_new_phase);
        assert_eq!(first.phase_id, 0);
        let st = srv.stats(t).unwrap();
        assert_eq!((st.offered, st.accepted, st.rejected), (1, 1, 0));
    }
}

/// Malformed but finite signatures, with the error each must get: a
/// negative BBV entry, a negative DDS, and zero instructions. A NaN before
/// a negative entry reports the NaN.
type Expected = fn(TenantId) -> ServeError;

fn malformed() -> Vec<(IntervalSignature, Expected)> {
    let mut neg_bbv = sig(5, 0, 10.0);
    neg_bbv.bbv[3] = -0.25;
    let mut nan_first = neg_bbv.clone();
    nan_first.bbv[1] = f64::NAN;
    let mut zero = sig(5, 0, 10.0);
    zero.insns = 0;
    vec![
        (neg_bbv, |tenant| ServeError::Negative { tenant, field: "bbv" }),
        (sig(5, 0, -1.0), |tenant| ServeError::Negative { tenant, field: "dds" }),
        (sig(5, 0, f64::MIN), |tenant| ServeError::Negative { tenant, field: "dds" }),
        (nan_first, |tenant| ServeError::NonFinite { tenant, field: "bbv" }),
        (zero, |tenant| ServeError::ZeroInsns { tenant }),
    ]
}

#[test]
fn malformed_offer_leaves_table_and_counters_untouched() {
    for (bad, want) in malformed() {
        let (mut srv, t) = server();
        let want = want(t);
        // One resident entry first, so "untouched" covers a live table.
        let first = classify_one(&mut srv, t, sig(0, 0, 10.0));
        assert_eq!((first.phase_id, first.is_new_phase), (0, true));
        let before = srv.stats(t).unwrap();
        assert_eq!(srv.offer(t, bad.clone()), Err(want.clone()));
        assert_eq!(srv.stats(t).unwrap(), before, "{want:?} was counted");
        assert_eq!(srv.queue_depth(t), Some(0));
        assert_eq!(srv.run_batch(), 0);
        assert!(srv.drain_output(t, usize::MAX).unwrap().is_empty());
        // The resident entry still matches, and the next new phase is 1:
        // the refused offer neither evicted nor allocated anything.
        let again = classify_one(&mut srv, t, sig(1, 0, 10.0));
        assert_eq!((again.phase_id, again.is_new_phase), (0, false), "{want:?}");
        let far = classify_one(&mut srv, t, sig(2, 2, 10.0));
        assert_eq!((far.phase_id, far.is_new_phase), (1, true), "{want:?}");
        let st = srv.stats(t).unwrap();
        assert_eq!((st.offered, st.accepted, st.rejected), (3, 3, 0));
    }
}

#[test]
fn negative_zero_and_one_instruction_are_accepted() {
    let (mut srv, t) = server();
    let mut edge = sig(0, 0, -0.0);
    edge.bbv[1] = -0.0;
    edge.insns = 1;
    assert!(classify_one(&mut srv, t, edge).is_new_phase);
}
