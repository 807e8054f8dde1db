//! Load/soak driver for the streaming phase server (`dsm-serve`).
//!
//! A [`ServeScenario`] describes a fleet: some tenants replay real
//! workload traces (captured through [`crate::trace::capture_cached`] and
//! converted to wire [`IntervalSignature`]s), the rest run deterministic
//! synthetic phase-structured streams ([`SynthStream`]) for scale beyond
//! the trace corpus. The driver admits the fleet, pumps offers/batches/
//! drains in deterministic rounds, applies seeded FaultPlan-style
//! *service* disturbances ([`DisturbPlan`]: tenant stalls, burst arrivals,
//! slow consumers) and tenant churn (admit/evict beyond the concurrency
//! cap), and reports:
//!
//! * deterministic outcome — accounting totals, queue/backpressure
//!   high-waters, tick-based latency percentiles — into byte-stable
//!   `serve.{json,txt}` artefacts (no wall-clock inside);
//! * wall-clock throughput (classifications/sec) separately, for the
//!   `phased` bin's output.
//!
//! Everything is a pure function of the scenario: same knobs, same bytes.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use dsm_phase::detector::DetectorMode;
use dsm_phase::signature::IntervalSignature;
use dsm_phase::stream::PhaseStream;
use dsm_phase::{ClassifiedInterval, Thresholds};
use dsm_serve::{Ingest, PhaseServer, ServeConfig, SynthStream, TenantConfig, TenantId};
use dsm_sim::util::splitmix64;
use dsm_workloads::App;

use crate::experiment::ExperimentConfig;
use crate::json::Json;

/// Seeded service-level disturbances, drawn per (tenant, round) exactly
/// like the simulator's fault fates — deterministic, order-independent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisturbPlan {
    pub seed: u64,
    /// Probability (ppm) a tenant stalls (stops offering) this round.
    pub stall_ppm: u32,
    /// Rounds a stalled tenant stays silent.
    pub stall_rounds: u64,
    /// Probability (ppm) a tenant's arrivals burst this round.
    pub burst_ppm: u32,
    /// Signatures offered in a burst round (vs 1 normally).
    pub burst_size: u32,
    /// Probability (ppm) a tenant skips draining its output this round
    /// (slow consumer).
    pub slow_ppm: u32,
}

impl DisturbPlan {
    /// No disturbances: steady arrivals, prompt consumers.
    pub fn none() -> Self {
        Self { seed: 0, stall_ppm: 0, stall_rounds: 0, burst_ppm: 0, burst_size: 1, slow_ppm: 0 }
    }

    /// The default mixed plan used by `phased`: occasional stalls and
    /// bursts, a fifth of drains skipped.
    pub fn mixed(seed: u64) -> Self {
        Self {
            seed,
            stall_ppm: 30_000,
            stall_rounds: 3,
            burst_ppm: 80_000,
            burst_size: 4,
            slow_ppm: 200_000,
        }
    }

    #[inline]
    fn draw(&self, what: u64, tenant: u64, round: u64, ppm: u32) -> bool {
        if ppm == 0 {
            return false;
        }
        let h = splitmix64(
            self.seed
                ^ what.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ (tenant + 1).rotate_left(24)
                ^ round.wrapping_mul(0xd134_2543_de82_ef95),
        );
        ((h % 1_000_000) as u32) < ppm
    }

    fn stalls(&self, tenant: u64, round: u64) -> bool {
        self.draw(1, tenant, round, self.stall_ppm)
    }

    fn bursts(&self, tenant: u64, round: u64) -> bool {
        self.draw(2, tenant, round, self.burst_ppm)
    }

    fn slow(&self, tenant: u64, round: u64) -> bool {
        self.draw(3, tenant, round, self.slow_ppm)
    }
}

/// What one tenant replays.
#[derive(Debug, Clone)]
enum Feed {
    /// A captured trace, flattened to wire signatures in deterministic
    /// processor-round-robin order.
    Trace(Arc<Vec<IntervalSignature>>),
    /// A synthetic phase-structured stream.
    Synth(SynthStream),
}

/// One tenant's script: its detector config and its signature source.
#[derive(Debug, Clone)]
pub struct TenantScript {
    cfg: TenantConfig,
    feed: Feed,
    len: usize,
}

impl TenantScript {
    fn sig(&self, i: usize) -> IntervalSignature {
        match &self.feed {
            Feed::Trace(sigs) => sigs[i].clone(),
            Feed::Synth(s) => s.signature(0, i as u64),
        }
    }
}

/// The load/soak scenario: fleet shape, server sizing, disturbances,
/// churn. Fully determines the run's deterministic outcome.
#[derive(Debug, Clone)]
pub struct ServeScenario {
    /// Total tenants admitted over the run (≥ `concurrent`; the surplus
    /// arrives through churn).
    pub tenants: usize,
    /// Live-tenant cap: the fleet size the server sustains at once.
    pub concurrent: usize,
    /// Of the scripts, how many replay real traces (cycled over the five
    /// paper workloads at 16P); the rest are synthetic.
    pub trace_tenants: usize,
    /// Signatures per synthetic tenant.
    pub intervals_per_tenant: usize,
    /// Evict the oldest live tenant (admitting a pending one) every this
    /// many rounds; 0 disables forced churn.
    pub churn_every: u64,
    /// Batch threads for `run_batch_parallel`.
    pub threads: usize,
    pub serve: ServeConfig,
    pub disturb: DisturbPlan,
    /// Seed for the synthetic streams.
    pub seed: u64,
}

impl ServeScenario {
    /// The `phased --smoke` scenario: `tenants` concurrent tenants (no
    /// surplus), short synthetic streams, mixed disturbances, no real
    /// traces (CI-fast).
    pub fn smoke(tenants: usize, seed: u64) -> Self {
        Self {
            tenants,
            concurrent: tenants,
            trace_tenants: 0,
            intervals_per_tenant: 24,
            churn_every: 0,
            threads: crate::parallel::jobs(),
            serve: ServeConfig {
                shards: 16,
                max_tenants: tenants.max(16),
                ..ServeConfig::default()
            },
            disturb: DisturbPlan::mixed(seed),
            seed,
        }
    }
}

/// Deterministic outcome of a scenario run (no wall-clock anywhere).
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOutcome {
    pub admitted: u64,
    pub evicted: u64,
    pub rounds: u64,
    /// Signatures offered / accepted / refused (`Busy`) across the fleet.
    pub offered: u64,
    pub accepted: u64,
    pub busy_events: u64,
    pub classified: u64,
    pub delivered: u64,
    /// Work explicitly abandoned by churn evictions (pending+undelivered).
    pub abandoned: u64,
    pub output_stalls: u64,
    /// Disturbance accounting.
    pub stall_rounds: u64,
    pub burst_offers: u64,
    pub skipped_drains: u64,
    /// Highest per-tenant ingest-queue depth ever seen.
    pub queue_high_water: u64,
    /// Peak footprint-table capacity resident at any round boundary.
    pub peak_resident_footprint: usize,
    /// Resident capacity after the final eviction sweep (0 = no leak).
    pub final_resident_footprint: usize,
    /// Ingest-to-classify latency percentiles in ticks (p50, p99, p999).
    pub latency_ticks: (u64, u64, u64),
}

/// Wall-clock measurements, reported separately so artefacts stay
/// byte-stable.
#[derive(Debug, Clone, Copy)]
pub struct ServeTiming {
    pub wall_secs: f64,
    pub classifications_per_sec: f64,
}

/// Build the fleet's scripts: `trace_tenants` replayed captures cycling
/// the five paper workloads at 16P, then synthetic streams.
pub fn build_scripts(sc: &ServeScenario) -> Vec<TenantScript> {
    let thr = Thresholds { bbv: 0.4, dds: 0.25 };
    let mut scripts = Vec::with_capacity(sc.tenants);
    if sc.trace_tenants > 0 {
        let apps = App::EXTENDED;
        let flattened: Vec<Arc<Vec<IntervalSignature>>> = apps
            .iter()
            .map(|&app| {
                let trace = crate::trace::capture_cached(ExperimentConfig::test(app, 16));
                // Deterministic processor-round-robin flattening.
                let mut sigs = Vec::new();
                let mut next = vec![0usize; trace.records.len()];
                loop {
                    let mut progressed = false;
                    for (p, recs) in trace.records.iter().enumerate() {
                        if next[p] < recs.len() {
                            sigs.push(IntervalSignature::from_record(&recs[next[p]]));
                            next[p] += 1;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                Arc::new(sigs)
            })
            .collect();
        for k in 0..sc.trace_tenants {
            let sigs = flattened[k % flattened.len()].clone();
            scripts.push(TenantScript {
                cfg: TenantConfig::new(16, DetectorMode::BbvDdv, thr),
                len: sigs.len(),
                feed: Feed::Trace(sigs),
            });
        }
    }
    for k in scripts.len()..sc.tenants {
        scripts.push(TenantScript {
            cfg: TenantConfig::new(1, DetectorMode::BbvDdv, thr),
            feed: Feed::Synth(SynthStream::new(
                sc.seed ^ (k as u64).wrapping_mul(0xa076_1d64_78bd_642f),
                1,
                dsm_phase::DEFAULT_BBV_ENTRIES,
            )),
            len: sc.intervals_per_tenant,
        });
    }
    scripts
}

struct Active {
    id: TenantId,
    script: usize,
    next: usize,
    stalled_until: u64,
}

/// Window kept per reassembled node stream (bounds soak memory; eviction
/// keeps the true interval indices, so contiguity stays checkable).
const STREAM_WINDOW: usize = 256;

/// Route one drain's worth of classified intervals into the tenant's
/// per-node [`PhaseStream`]s. The shared stream type enforces per-node
/// interval-index contiguity, so any batch/stall/churn path that dropped or
/// reordered an originating interval index would panic here instead of
/// silently skewing downstream consumers.
fn route_drained(
    streams: &mut HashMap<TenantId, Vec<PhaseStream>>,
    id: TenantId,
    drained: &[ClassifiedInterval],
) {
    let per_node = streams.get_mut(&id).expect("streams registered at admit");
    for c in drained {
        per_node[c.proc]
            .push(*c)
            .unwrap_or_else(|e| panic!("tenant {id}: delivery broke stream contiguity: {e:?}"));
        per_node[c.proc].truncate_front(STREAM_WINDOW);
    }
}

/// Run a scenario to completion: every admitted tenant either finishes its
/// script (offered, classified, drained) or is churned out with its
/// in-flight work accounted. Panics if the fleet stops making progress.
pub fn run_scenario(sc: &ServeScenario) -> (ServeOutcome, ServeTiming) {
    let scripts = build_scripts(sc);
    assert!(sc.concurrent > 0 && sc.concurrent <= sc.tenants);
    assert!(sc.serve.max_tenants >= sc.concurrent);

    let mut srv = PhaseServer::new(sc.serve);
    let mut out = ServeOutcome {
        admitted: 0,
        evicted: 0,
        rounds: 0,
        offered: 0,
        accepted: 0,
        busy_events: 0,
        classified: 0,
        delivered: 0,
        abandoned: 0,
        output_stalls: 0,
        stall_rounds: 0,
        burst_offers: 0,
        skipped_drains: 0,
        queue_high_water: 0,
        peak_resident_footprint: 0,
        final_resident_footprint: 0,
        latency_ticks: (0, 0, 0),
    };

    let mut active: Vec<Active> = Vec::new();
    let mut streams: HashMap<TenantId, Vec<PhaseStream>> = HashMap::new();
    let mut pending = 0usize; // next script to admit
    let admit = |srv: &mut PhaseServer,
                 active: &mut Vec<Active>,
                 streams: &mut HashMap<TenantId, Vec<PhaseStream>>,
                 pending: &mut usize| {
        let cfg = scripts[*pending].cfg;
        let id = srv.admit(cfg).expect("admission under max_tenants");
        streams.insert(id, (0..cfg.n_procs).map(PhaseStream::new).collect());
        active.push(Active { id, script: *pending, next: 0, stalled_until: 0 });
        *pending += 1;
    };
    while active.len() < sc.concurrent {
        admit(&mut srv, &mut active, &mut streams, &mut pending);
        out.admitted += 1;
    }

    let t0 = Instant::now();
    // Progress is guaranteed per-round only when some tenant is neither
    // stalled nor backpressured; the cap is a generous safety net against
    // livelock bugs, not a tuning knob.
    let max_rounds =
        (sc.intervals_per_tenant as u64 + 64) * 64 + sc.tenants as u64 * 4 + 1_000_000;
    loop {
        out.rounds += 1;
        let round = out.rounds;
        assert!(round < max_rounds, "serve scenario livelocked after {round} rounds");

        // Offers, under disturbances.
        for t in active.iter_mut() {
            let script = &scripts[t.script];
            if t.next >= script.len {
                continue;
            }
            if round < t.stalled_until {
                out.stall_rounds += 1;
                continue;
            }
            if sc.disturb.stalls(t.id.0, round) {
                t.stalled_until = round + sc.disturb.stall_rounds;
                out.stall_rounds += 1;
                continue;
            }
            let burst = if sc.disturb.bursts(t.id.0, round) {
                out.burst_offers += u64::from(sc.disturb.burst_size);
                sc.disturb.burst_size.max(1)
            } else {
                1
            };
            for _ in 0..burst {
                if t.next >= script.len {
                    break;
                }
                out.offered += 1;
                match srv.offer(t.id, script.sig(t.next)).expect("valid signature") {
                    Ingest::Enqueued { .. } => {
                        out.accepted += 1;
                        t.next += 1;
                    }
                    Ingest::Busy => {
                        out.busy_events += 1;
                        break; // retry next round
                    }
                }
            }
        }

        out.classified += srv.run_batch_parallel(sc.threads);

        // Drains, minus slow consumers.
        for t in active.iter() {
            if sc.disturb.slow(t.id.0, round) {
                out.skipped_drains += 1;
                continue;
            }
            let drained = srv.drain_output(t.id, usize::MAX).expect("drain");
            route_drained(&mut streams, t.id, &drained);
            out.delivered += drained.len() as u64;
        }

        out.peak_resident_footprint =
            out.peak_resident_footprint.max(srv.resident_footprint_vectors());

        // Retire tenants that finished and fully flushed.
        let mut i = 0;
        while i < active.len() {
            let done = {
                let t = &active[i];
                t.next >= scripts[t.script].len && srv.queue_depth(t.id) == Some(0)
            };
            if done {
                // Final drain: a slow-consumer draw must not strand output.
                let t = &active[i];
                let drained = srv.drain_output(t.id, usize::MAX).expect("drain");
                route_drained(&mut streams, t.id, &drained);
                out.delivered += drained.len() as u64;
                let summary = srv.evict(t.id).expect("evict live tenant");
                streams.remove(&t.id);
                out.abandoned += summary.pending + summary.undelivered;
                out.evicted += 1;
                active.remove(i);
                if pending < sc.tenants {
                    admit(&mut srv, &mut active, &mut streams, &mut pending);
                    out.admitted += 1;
                }
            } else {
                i += 1;
            }
        }

        // Forced churn: evict the oldest live tenant mid-script.
        if sc.churn_every > 0 && round.is_multiple_of(sc.churn_every) && pending < sc.tenants {
            if let Some(t) = active.first() {
                let summary = srv.evict(t.id).expect("evict live tenant");
                streams.remove(&t.id);
                out.abandoned += summary.pending + summary.undelivered;
                out.evicted += 1;
                active.remove(0);
                admit(&mut srv, &mut active, &mut streams, &mut pending);
                out.admitted += 1;
            }
        }

        if active.is_empty() && pending >= sc.tenants {
            break;
        }
    }
    let wall_secs = t0.elapsed().as_secs_f64();

    let totals = srv.totals();
    out.output_stalls = totals.output_stalls;
    out.queue_high_water = totals.queue_high_water;
    out.final_resident_footprint = srv.resident_footprint_vectors();
    let p = srv.latency_percentiles(&[0.50, 0.99, 0.999]);
    out.latency_ticks = (p[0], p[1], p[2]);

    // Cross-check the driver's books against the server's.
    assert_eq!(out.offered, totals.offered);
    assert_eq!(out.accepted, totals.accepted);
    assert_eq!(out.busy_events, totals.rejected);
    assert_eq!(out.classified, totals.classified);
    assert_eq!(out.delivered, totals.delivered);
    assert_eq!(
        out.classified + out.abandoned,
        out.accepted + (totals.classified - totals.delivered),
        "accepted work must be classified, delivered, or explicitly abandoned"
    );

    let timing = ServeTiming {
        wall_secs,
        classifications_per_sec: if wall_secs > 0.0 {
            out.classified as f64 / wall_secs
        } else {
            0.0
        },
    };
    (out, timing)
}

/// The deterministic `serve.json` payload (schema `dsm-serve-run/v1`).
/// Wall-clock timings are deliberately excluded: reruns must be
/// byte-identical.
pub fn outcome_json(sc: &ServeScenario, out: &ServeOutcome) -> Json {
    Json::obj()
        .field("schema", "dsm-serve-run/v1")
        .field(
            "scenario",
            Json::obj()
                .field("tenants", sc.tenants)
                .field("concurrent", sc.concurrent)
                .field("trace_tenants", sc.trace_tenants)
                .field("intervals_per_tenant", sc.intervals_per_tenant)
                .field("churn_every", sc.churn_every)
                .field("seed", sc.seed)
                .field(
                    "serve",
                    Json::obj()
                        .field("shards", sc.serve.shards)
                        .field("queue_capacity", sc.serve.queue_capacity)
                        .field("output_capacity", sc.serve.output_capacity)
                        .field("batch_size", sc.serve.batch_size)
                        .field("max_tenants", sc.serve.max_tenants),
                )
                .field(
                    "disturb",
                    Json::obj()
                        .field("seed", sc.disturb.seed)
                        .field("stall_ppm", sc.disturb.stall_ppm as u64)
                        .field("stall_rounds", sc.disturb.stall_rounds)
                        .field("burst_ppm", sc.disturb.burst_ppm as u64)
                        .field("burst_size", sc.disturb.burst_size as u64)
                        .field("slow_ppm", sc.disturb.slow_ppm as u64),
                ),
        )
        .field("admitted", out.admitted)
        .field("evicted", out.evicted)
        .field("rounds", out.rounds)
        .field("offered", out.offered)
        .field("accepted", out.accepted)
        .field("busy_events", out.busy_events)
        .field("classified", out.classified)
        .field("delivered", out.delivered)
        .field("abandoned", out.abandoned)
        .field("output_stalls", out.output_stalls)
        .field("stall_rounds", out.stall_rounds)
        .field("burst_offers", out.burst_offers)
        .field("skipped_drains", out.skipped_drains)
        .field("queue_high_water", out.queue_high_water)
        .field("peak_resident_footprint", out.peak_resident_footprint)
        .field("final_resident_footprint", out.final_resident_footprint)
        .field(
            "latency_ticks",
            Json::obj()
                .field("p50", out.latency_ticks.0)
                .field("p99", out.latency_ticks.1)
                .field("p999", out.latency_ticks.2),
        )
}

/// Human summary for `serve.txt` (deterministic, like the JSON).
pub fn outcome_text(sc: &ServeScenario, out: &ServeOutcome) -> String {
    let pairs: Vec<(String, String)> = vec![
        ("tenants (total/concurrent)".into(), format!("{}/{}", sc.tenants, sc.concurrent)),
        ("admitted/evicted".into(), format!("{}/{}", out.admitted, out.evicted)),
        ("rounds".into(), out.rounds.to_string()),
        ("offered".into(), out.offered.to_string()),
        ("accepted".into(), out.accepted.to_string()),
        ("busy (backpressure)".into(), out.busy_events.to_string()),
        ("classified".into(), out.classified.to_string()),
        ("delivered".into(), out.delivered.to_string()),
        ("abandoned by churn".into(), out.abandoned.to_string()),
        ("output stalls".into(), out.output_stalls.to_string()),
        ("stall rounds".into(), out.stall_rounds.to_string()),
        ("burst offers".into(), out.burst_offers.to_string()),
        ("skipped drains".into(), out.skipped_drains.to_string()),
        ("queue high-water".into(), out.queue_high_water.to_string()),
        ("peak resident fvecs".into(), out.peak_resident_footprint.to_string()),
        ("final resident fvecs".into(), out.final_resident_footprint.to_string()),
        (
            "latency ticks p50/p99/p999".into(),
            format!("{}/{}/{}", out.latency_ticks.0, out.latency_ticks.1, out.latency_ticks.2),
        ),
    ];
    dsm_analysis::Table::kv("phase server load/soak run", &pairs).render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ServeScenario {
        ServeScenario {
            tenants: 12,
            concurrent: 4,
            trace_tenants: 0,
            intervals_per_tenant: 10,
            churn_every: 5,
            threads: 1,
            serve: ServeConfig {
                shards: 2,
                queue_capacity: 4,
                output_capacity: 8,
                batch_size: 2,
                max_tenants: 8,
                per_tenant_metrics: false,
                diagnose_window: 0,
            },
            disturb: DisturbPlan::mixed(11),
            seed: 11,
        }
    }

    #[test]
    fn scenario_completes_and_conserves() {
        let sc = tiny();
        let (out, _) = run_scenario(&sc);
        assert_eq!(out.admitted, 12);
        assert_eq!(out.evicted, 12);
        assert_eq!(out.final_resident_footprint, 0, "all tenants evicted");
        assert!(out.busy_events > 0 || out.queue_high_water <= 4);
        assert_eq!(out.offered, out.accepted + out.busy_events);
        assert!(out.classified > 0);
        assert!(out.queue_high_water <= sc.serve.queue_capacity as u64);
    }

    #[test]
    fn scenario_is_deterministic() {
        let sc = tiny();
        let (a, _) = run_scenario(&sc);
        let (b, _) = run_scenario(&sc);
        assert_eq!(a, b);
        assert_eq!(
            outcome_json(&sc, &a).to_string(),
            outcome_json(&sc, &b).to_string()
        );
    }

    #[test]
    fn disturbances_do_something() {
        let mut quiet = tiny();
        quiet.disturb = DisturbPlan::none();
        let (q, _) = run_scenario(&quiet);
        assert_eq!(q.stall_rounds, 0);
        assert_eq!(q.skipped_drains, 0);
        let (noisy, _) = run_scenario(&tiny());
        assert!(noisy.stall_rounds > 0, "mixed plan must stall someone");
        assert!(noisy.skipped_drains > 0);
        assert!(noisy.rounds >= q.rounds);
    }
}
