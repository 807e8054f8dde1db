//! Property suite for the streaming phase server.
//!
//! Three invariants, over arbitrary tenant fleets and arrival schedules:
//!
//! 1. **Interleaving invariance** — per-tenant state is fully isolated, so
//!    any interleaving of N tenants' arrivals yields each tenant the exact
//!    classification stream a solo run yields.
//! 2. **Backpressure conservation** — `accepted + rejected == offered`,
//!    and every accepted signature is accounted for at eviction as
//!    classified-or-pending, every classification as delivered-or-
//!    undelivered. Nothing is ever dropped silently.
//! 3. **Determinism** — a fixed seed and schedule reproduce byte-identical
//!    outputs, reports, and latency percentiles.

use proptest::prelude::*;

use dsm_phase::detector::{DetectorMode, Thresholds};
use dsm_phase::ClassifiedInterval;
use dsm_serve::{Ingest, PhaseServer, ServeConfig, SynthStream, TenantConfig, TenantId};

const THR: Thresholds = Thresholds { bbv: 0.4, dds: 0.25 };

fn tenant_cfg() -> TenantConfig {
    TenantConfig::new(1, DetectorMode::BbvDdv, THR)
}

/// Admit one tenant per stream and feed signatures following `schedule`
/// (a sequence of tenant indices; each occurrence sends that tenant's next
/// signature, retrying through backpressure). Returns per-tenant outputs.
fn feed(
    cfg: ServeConfig,
    streams: &[(SynthStream, usize)],
    schedule: &[usize],
) -> (PhaseServer, Vec<TenantId>, Vec<Vec<ClassifiedInterval>>) {
    feed_threaded(cfg, streams, schedule, 1)
}

/// [`feed`], with batches run on up to `threads` host threads.
fn feed_threaded(
    cfg: ServeConfig,
    streams: &[(SynthStream, usize)],
    schedule: &[usize],
    threads: usize,
) -> (PhaseServer, Vec<TenantId>, Vec<Vec<ClassifiedInterval>>) {
    let mut srv = PhaseServer::new(cfg);
    let ids: Vec<TenantId> = streams.iter().map(|_| srv.admit(tenant_cfg()).unwrap()).collect();
    let mut out: Vec<Vec<ClassifiedInterval>> = vec![Vec::new(); streams.len()];
    let mut next = vec![0u64; streams.len()];

    let drain_all =
        |srv: &mut PhaseServer, out: &mut Vec<Vec<ClassifiedInterval>>, ids: &[TenantId]| {
            for (k, &id) in ids.iter().enumerate() {
                out[k].extend(srv.drain_output(id, usize::MAX).unwrap());
            }
        };

    // The schedule, then each tenant's leftovers in tenant order: every
    // signature is sent exactly once regardless of the schedule's shape.
    let full: Vec<usize> = schedule
        .iter()
        .copied()
        .chain((0..streams.len()).flat_map(|k| std::iter::repeat_n(k, streams[k].1)))
        .collect();
    for k in full {
        let (stream, len) = &streams[k];
        if next[k] as usize >= *len {
            continue;
        }
        let sig = stream.signature(0, next[k]);
        loop {
            match srv.offer(ids[k], sig.clone()).unwrap() {
                Ingest::Enqueued { .. } => break,
                Ingest::Busy => {
                    srv.run_batch_parallel(threads);
                    drain_all(&mut srv, &mut out, &ids);
                }
            }
        }
        next[k] += 1;
    }
    while srv.run_batch_parallel(threads) > 0 {
        drain_all(&mut srv, &mut out, &ids);
    }
    drain_all(&mut srv, &mut out, &ids);
    (srv, ids, out)
}

fn arb_fleet() -> impl Strategy<Value = Vec<(u64, usize)>> {
    prop::collection::vec((0u64..1_000, 1usize..40), 1..6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any arrival interleaving gives each tenant its solo classification.
    #[test]
    fn interleaving_invariance(
        fleet in arb_fleet(),
        schedule in prop::collection::vec(0usize..6, 0..120),
    ) {
        let streams: Vec<(SynthStream, usize)> = fleet
            .iter()
            .map(|&(seed, len)| (SynthStream::new(seed, 1, 32), len))
            .collect();
        let schedule: Vec<usize> = schedule.iter().map(|&s| s % streams.len()).collect();
        let cfg = ServeConfig { shards: 3, queue_capacity: 4, batch_size: 2, ..ServeConfig::default() };
        let (_, _, interleaved) = feed(cfg, &streams, &schedule);
        for (k, stream) in streams.iter().enumerate() {
            let (_, _, solo) = feed(ServeConfig::default(), std::slice::from_ref(stream), &[]);
            prop_assert_eq!(&interleaved[k], &solo[0], "tenant {} diverged from solo run", k);
        }
    }

    /// Offered = accepted + rejected; accepted = classified + pending;
    /// classified = delivered + undelivered. Checked mid-flight (without
    /// retries, Busy outcomes stay rejected) and at eviction.
    #[test]
    fn backpressure_conservation(
        fleet in arb_fleet(),
        queue_capacity in 1usize..5,
        batches_every in 1usize..8,
    ) {
        let cfg = ServeConfig {
            queue_capacity,
            output_capacity: 4,
            batch_size: 2,
            ..ServeConfig::default()
        };
        let mut srv = PhaseServer::new(cfg);
        let ids: Vec<TenantId> =
            fleet.iter().map(|_| srv.admit(tenant_cfg()).unwrap()).collect();
        let mut offered = vec![0u64; fleet.len()];
        let mut accepted = vec![0u64; fleet.len()];
        let mut rejected = vec![0u64; fleet.len()];
        let mut delivered = vec![0u64; fleet.len()];
        let mut sent = 0usize;
        for (k, &(seed, len)) in fleet.iter().enumerate() {
            let stream = SynthStream::new(seed, 1, 32);
            for i in 0..len as u64 {
                offered[k] += 1;
                match srv.offer(ids[k], stream.signature(0, i)).unwrap() {
                    Ingest::Enqueued { .. } => accepted[k] += 1,
                    Ingest::Busy => rejected[k] += 1, // caller drops it: still counted
                }
                sent += 1;
                if sent.is_multiple_of(batches_every) {
                    srv.run_batch();
                    // Drain only even tenants: odd ones model slow consumers.
                    for (j, &id) in ids.iter().enumerate().filter(|(j, _)| j % 2 == 0) {
                        delivered[j] += srv.drain_output(id, usize::MAX).unwrap().len() as u64;
                    }
                }
            }
        }
        let mut total_pending = 0u64;
        for (k, &id) in ids.iter().enumerate() {
            let s = srv.stats(id).unwrap();
            prop_assert_eq!(s.offered, offered[k]);
            prop_assert_eq!(s.accepted + s.rejected, s.offered, "conservation violated");
            prop_assert_eq!(s.accepted, accepted[k]);
            prop_assert_eq!(s.rejected, rejected[k]);
            prop_assert!(s.queue_high_water <= queue_capacity as u64);
            let summary = srv.evict(id).unwrap();
            // Every accepted signature is classified or explicitly pending;
            // every classification delivered or explicitly undelivered.
            prop_assert_eq!(summary.stats.classified + summary.pending, s.accepted);
            prop_assert_eq!(summary.stats.delivered + summary.undelivered, summary.stats.classified);
            prop_assert_eq!(summary.stats.delivered, delivered[k]);
            total_pending += summary.pending;
        }
        prop_assert_eq!(srv.live_tenants(), 0);
        prop_assert_eq!(srv.resident_footprint_vectors(), 0, "evicted state leaked");
        let totals = srv.totals();
        prop_assert_eq!(totals.offered, totals.accepted + totals.rejected);
        prop_assert_eq!(totals.classified + total_pending, totals.accepted);
    }

    /// Same seed, same schedule → byte-identical everything, at any shard
    /// parallelism.
    #[test]
    fn deterministic_under_fixed_seed(
        fleet in arb_fleet(),
        schedule in prop::collection::vec(0usize..6, 0..60),
        threads in 1usize..5,
    ) {
        let streams: Vec<(SynthStream, usize)> = fleet
            .iter()
            .map(|&(seed, len)| (SynthStream::new(seed, 1, 32), len))
            .collect();
        let schedule: Vec<usize> = schedule.iter().map(|&s| s % streams.len()).collect();
        let cfg = ServeConfig { shards: 4, queue_capacity: 3, batch_size: 2, ..ServeConfig::default() };
        let (srv_a, _, out_a) = feed(cfg, &streams, &schedule);
        let (srv_b, _, out_b) = feed(cfg, &streams, &schedule);
        prop_assert_eq!(&out_a, &out_b, "rerun diverged");
        prop_assert_eq!(srv_a.report(), srv_b.report());
        prop_assert_eq!(
            srv_a.latency_percentiles(&[0.5, 0.99, 0.999]),
            srv_b.latency_percentiles(&[0.5, 0.99, 0.999])
        );
        // Shard-parallel batches reproduce the serial run exactly —
        // outputs, report, and latency distribution.
        let (srv_p, _, out_p) = feed_threaded(cfg, &streams, &schedule, threads);
        prop_assert_eq!(&out_a, &out_p, "parallel batches diverged from serial");
        prop_assert_eq!(srv_a.report(), srv_p.report());
    }
}
