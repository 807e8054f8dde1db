//! Differential equivalence suite for the route-aware network fabric.
//!
//! The fabric replaced the analytical latency model on the hottest message
//! path, so its default configuration — hypercube topology, link contention
//! off (infinite bandwidth) — must be **bit-identical** to the analytical
//! model it replaced: same `SystemStats`, same per-processor interval
//! records, same DDV traffic, for every workload at 2 and 16 processors,
//! fault-free and under an active fault plan.
//!
//! The analytical model's outputs are pinned as committed goldens in
//! `tests/goldens/fabric_equivalence.json` (generated from the pre-fabric
//! build after the duplicate-hop accounting fix). This gate is permanent:
//! any change to routing order, link accounting, or latency arithmetic that
//! perturbs observable behavior fails here first.
//!
//! Regenerating (only when an *intentional* behavior change is made):
//! `REGEN_FABRIC_GOLDENS=1 cargo test --test fabric_equivalence -- --ignored`

use std::collections::BTreeMap;
use std::path::PathBuf;

use dsm_phase_detection::harness::json::{self, Json};
use dsm_phase_detection::harness::trace::capture_with_faults;
use dsm_phase_detection::prelude::*;
use dsm_phase_detection::sim::FaultPlan;

/// Fixed fault seed: goldens are committed, so the faulty column must not
/// depend on the environment (CI's `FAULT_SEED` sweep does not apply here).
const GOLDEN_FAULT_SEED: u64 = 0xFAB;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/fabric_equivalence.json")
}

fn plans() -> [(&'static str, FaultPlan); 2] {
    [
        ("clean", FaultPlan::none()),
        ("faulty", FaultPlan::mixed(GOLDEN_FAULT_SEED, 0.02)),
    ]
}

fn fnv1a64(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// Canonical fingerprint of one captured run: the human-readable headline
/// counters plus two order-sensitive hashes covering every interval-record
/// field and every remaining `SystemStats` counter. `f64`s hash as raw bits,
/// so "identical" here means bit-identical.
fn fingerprint(trace: &SystemTrace) -> Json {
    let s = &trace.stats;
    let mut rec_hash = 0xcbf2_9ce4_8422_2325u64;
    for recs in &trace.records {
        fnv1a64(&mut rec_hash, recs.len() as u64);
        for r in recs {
            for v in [r.proc as u64, r.index, r.insns, r.cycles, r.branches] {
                fnv1a64(&mut rec_hash, v);
            }
            for x in r.normalized_bbv() {
                fnv1a64(&mut rec_hash, x.to_bits());
            }
            for &v in r.fvec().iter().chain(r.cvec()) {
                fnv1a64(&mut rec_hash, u64::from(v));
            }
            for v in r.ws_words() {
                fnv1a64(&mut rec_hash, v);
            }
            fnv1a64(&mut rec_hash, r.dds.to_bits());
        }
    }
    let mut stat_hash = 0xcbf2_9ce4_8422_2325u64;
    for p in &s.procs {
        for v in [
            p.cycles,
            p.insns,
            p.sync_ops,
            p.sync_wait_cycles,
            p.mem_refs,
            p.l1_misses,
            p.l2_misses,
            p.local_home_misses,
            p.remote_home_misses,
            p.mem_stall_cycles,
            p.contention_cycles,
            p.mispredicts,
            p.branches,
            p.intervals,
        ] {
            fnv1a64(&mut stat_hash, v);
        }
    }
    let d = &s.directory;
    for v in [d.reads, d.writes, d.owner_forwards, d.invalidations, d.upgrades, d.writebacks, d.nacks]
    {
        fnv1a64(&mut stat_hash, v);
    }
    let f = &s.faults;
    for v in [
        f.messages,
        f.drops,
        f.retries,
        f.forced_deliveries,
        f.duplicates,
        f.spikes,
        f.spike_cycles,
        f.timeout_wait_cycles,
        f.slowdown_events,
        f.slowdown_cycles,
    ] {
        fnv1a64(&mut stat_hash, v);
    }
    for m in &s.memctrls {
        fnv1a64(&mut stat_hash, m.requests);
        fnv1a64(&mut stat_hash, m.total_queue_delay);
    }
    Json::obj()
        .field("finish_cycle", s.finish_cycle)
        .field("total_insns", s.total_insns())
        .field("msgs", s.network.msgs)
        .field("payload_msgs", s.network.payload_msgs)
        .field("total_hops", s.network.total_hops)
        .field("link_wait_cycles", s.network.link_wait_cycles)
        .field("dir_reads", s.directory.reads)
        .field("dir_writes", s.directory.writes)
        .field("dir_nacks", s.directory.nacks)
        .field("drops", s.faults.drops)
        .field("duplicates", s.faults.duplicates)
        .field("ddv_vectors_exchanged", trace.ddv_vectors_exchanged)
        .field("records_hash", format!("{rec_hash:016x}"))
        .field("stats_hash", format!("{stat_hash:016x}"))
}

/// Every (workload, node count, plan) case in the matrix, with its stable
/// golden key.
fn capture_matrix() -> BTreeMap<String, Json> {
    let mut out = BTreeMap::new();
    for app in App::ALL {
        for n in [2usize, 16] {
            for (plan_name, plan) in plans() {
                let cfg = ExperimentConfig::test(app, n);
                let trace = capture_with_faults(cfg, plan);
                out.insert(format!("{}-{n}p-{plan_name}", app.name()), fingerprint(&trace));
            }
        }
    }
    out
}

fn load_goldens() -> BTreeMap<String, Json> {
    let text = std::fs::read_to_string(golden_path())
        .expect("tests/goldens/fabric_equivalence.json missing — run the regenerator");
    let root = json::parse(&text).expect("golden file parses");
    let cases = root.get("cases").and_then(Json::as_arr).expect("golden cases array");
    cases
        .iter()
        .map(|c| {
            let key = c.get("key").and_then(Json::as_str).expect("case key").to_string();
            (key, c.get("fingerprint").cloned().expect("case fingerprint"))
        })
        .collect()
}

/// The permanent gate: the fabric at its default configuration (hypercube,
/// infinite link bandwidth) reproduces the analytical model's committed
/// fingerprints for all five workloads x {2P, 16P} x {clean, faulty}.
#[test]
fn infinite_bandwidth_hypercube_matches_analytical_goldens() {
    let goldens = load_goldens();
    let live = capture_matrix();
    assert_eq!(
        goldens.keys().collect::<Vec<_>>(),
        live.keys().collect::<Vec<_>>(),
        "golden case set diverged from the capture matrix"
    );
    let mut failures = Vec::new();
    for (key, fp) in &live {
        let golden = &goldens[key];
        if golden.to_string() != fp.to_string() {
            failures.push(format!("{key}:\n  golden {golden}\n  got    {fp}"));
        }
    }
    assert!(
        failures.is_empty(),
        "fabric diverged from the analytical model on {} case(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

/// The faulty goldens must actually exercise the fault layer, or the faulty
/// half of the gate would be vacuous.
#[test]
fn faulty_goldens_exercise_the_fault_layer() {
    let goldens = load_goldens();
    for (key, fp) in &goldens {
        let drops = fp.get("drops").and_then(Json::as_f64).unwrap_or(0.0);
        let dups = fp.get("duplicates").and_then(Json::as_f64).unwrap_or(0.0);
        if key.ends_with("-faulty") && key.contains("16p") {
            assert!(
                drops > 0.0 || dups > 0.0,
                "{key}: faulty 16P golden recorded no injected faults"
            );
        }
        if key.ends_with("-clean") {
            assert_eq!(drops, 0.0, "{key}: clean golden recorded drops");
            assert_eq!(dups, 0.0, "{key}: clean golden recorded duplicates");
        }
    }
}

/// Regenerator (ignored by default; destructive to the committed goldens).
/// Run only when an intentional observable-behavior change is made, and
/// say so in the commit that updates the file.
#[test]
#[ignore = "rewrites the committed goldens; run explicitly with REGEN_FABRIC_GOLDENS=1"]
fn regenerate_goldens() {
    if std::env::var("REGEN_FABRIC_GOLDENS").is_err() {
        panic!("set REGEN_FABRIC_GOLDENS=1 to confirm rewriting the goldens");
    }
    let cases: Vec<Json> = capture_matrix()
        .into_iter()
        .map(|(key, fp)| Json::obj().field("key", key).field("fingerprint", fp))
        .collect();
    let root = Json::obj()
        .field("schema", "dsm-fabric-goldens/v1")
        .field("fault_seed", GOLDEN_FAULT_SEED)
        .field("cases", Json::Arr(cases));
    let path = golden_path();
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, format!("{root}\n")).unwrap();
    eprintln!("wrote {}", path.display());
}
