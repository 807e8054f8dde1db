//! `bench_sim` — records and checks the repo's simulator perf baseline.
//!
//! Modes:
//!
//! * (default) measure the current tree and rewrite `BENCH_SIM.json` at the
//!   repo root, preserving the recorded `baseline` section (first run uses
//!   the fresh measurement as the baseline too);
//! * `--reset-baseline` — overwrite the `baseline` section as well;
//! * `--check [path]` — parse the file and verify schema + full
//!   `bench_matrix()` coverage, without measuring anything (CI);
//! * `--compare [path]` — measure the current tree and print speedups
//!   against the file's `current` section (branch-vs-baseline workflow).
//!
//! All output numbers go through the harness's deterministic JSON writer,
//! so equal measurements always serialize to equal bytes.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dsm_bench::alloc_track::CountingAlloc;
use dsm_bench::compare::speedups;
use dsm_bench::simbench::{measure, point_key};
use dsm_bench::bench_matrix;
use dsm_harness::json::{parse, Json};
use dsm_harness::scale::{scale_sweep, SCALE_PROCS};
use dsm_workloads::App;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SCHEMA: &str = "dsm-bench-sim/v1";
const SAMPLES: usize = 7;
/// Timed runs per arm and point of the 16/64/128-processor scaling curve.
const SCALE_SAMPLES: usize = 7;

fn default_path() -> PathBuf {
    // crates/bench -> repo root.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_SIM.json")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let path_arg = |i: usize| -> PathBuf {
        args.get(i).map(PathBuf::from).unwrap_or_else(default_path)
    };
    match args.first().map(String::as_str) {
        Some("--check") => check(&path_arg(1)),
        Some("--compare") => compare(&path_arg(1)),
        Some("--reset-baseline") => update(&path_arg(1), true),
        None => update(&default_path(), false),
        Some(other) => {
            eprintln!("unknown mode {other}; use --check | --compare | --reset-baseline");
            ExitCode::FAILURE
        }
    }
}

fn read_json(path: &Path) -> Option<Json> {
    let text = std::fs::read_to_string(path).ok()?;
    match parse(&text) {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("warning: existing {} is unparsable ({e}); ignoring", path.display());
            None
        }
    }
}

/// The beyond-paper scaling curve (`current` only): Ocean — the most
/// interval-dense workload, i.e. the collection-bound regime the O(n)
/// aggregate DDV gather targets — at each of [`SCALE_PROCS`], the serial
/// core with the O(n²) reference gather vs the aggregate gather.
fn scaling_json(samples: usize) -> Json {
    let points = scale_sweep(App::Ocean, samples);
    Json::obj()
        .field("app", "Ocean")
        .field("samples", samples)
        .field(
            "points",
            Json::Arr(points.iter().map(|p| p.to_json()).collect()),
        )
}

fn update(path: &Path, reset_baseline: bool) -> ExitCode {
    eprintln!("measuring simulator throughput ({SAMPLES} samples per point)...");
    let m = measure(SAMPLES);
    eprintln!(
        "measuring the scaling curve (Ocean at {SCALE_PROCS:?} procs, {SCALE_SAMPLES} samples per arm)..."
    );
    let current = m.to_json("current").field("scaling", scaling_json(SCALE_SAMPLES));
    let baseline = if reset_baseline {
        None
    } else {
        read_json(path).and_then(|old| old.get("baseline").cloned())
    };
    let baseline = baseline.unwrap_or_else(|| {
        eprintln!("no recorded baseline; using this measurement as the baseline");
        m.to_json("baseline")
    });
    let doc = Json::obj()
        .field("schema", SCHEMA)
        .field("scale", "test")
        .field(
            "matrix",
            Json::Arr(
                bench_matrix()
                    .into_iter()
                    .map(|(a, n)| Json::Str(point_key(a, n)))
                    .collect(),
            ),
        )
        .field(
            "speedup_events_per_sec",
            speedups(&baseline, &current, "events_per_sec"),
        )
        .field("baseline", baseline)
        .field("current", current);
    if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
        eprintln!("cannot write {}: {e}", path.display());
        return ExitCode::FAILURE;
    }
    println!("wrote {}", path.display());
    print_summary(&doc);
    ExitCode::SUCCESS
}

fn print_summary(doc: &Json) {
    if let Some(s) = doc.get("speedup_events_per_sec") {
        println!("events/sec speedup vs baseline: {s}");
    }
    if let Some(a) = doc
        .get("current")
        .and_then(|c| c.get("allocs_per_interval"))
        .and_then(Json::as_f64)
    {
        println!("steady-state allocs per classified interval: {a}");
    }
    if let Some(ms) = doc
        .get("current")
        .and_then(|c| c.get("diagnose"))
        .and_then(|d| d.get("engine_ms"))
        .and_then(Json::as_f64)
    {
        println!("diagnosis engine pass: {ms} ms (16-node straggler fleet)");
    }
    if let Some(points) = doc
        .get("current")
        .and_then(|c| c.get("scaling"))
        .and_then(|s| s.get("points"))
        .and_then(Json::as_arr)
    {
        for p in points {
            if let (Some(n), Some(s)) = (
                p.get("n_procs").and_then(Json::as_f64),
                p.get("speedup").and_then(Json::as_f64),
            ) {
                println!("scaling: {n}P aggregate-vs-reference gather speedup {s}x");
            }
        }
    }
}

fn compare(path: &Path) -> ExitCode {
    let Some(doc) = read_json(path) else {
        eprintln!("cannot read {}", path.display());
        return ExitCode::FAILURE;
    };
    let Some(recorded) = doc.get("current") else {
        eprintln!("{} has no `current` section", path.display());
        return ExitCode::FAILURE;
    };
    eprintln!("measuring current tree for comparison...");
    let m = measure(SAMPLES);
    let now = m.to_json("working-tree");
    println!(
        "speedup (working tree / recorded current): {}",
        speedups(recorded, &now, "events_per_sec")
    );
    println!(
        "steady-state allocs per classified interval: {}",
        m.allocs_per_interval
    );
    // Whole-process allocation counters, served by the telemetry registry
    // (same counters the harness exporters dump as JSONL).
    let mut reg = dsm_telemetry::MetricsRegistry::new();
    dsm_bench::alloc_track::publish(&mut reg);
    println!(
        "process heap traffic: {} allocations, {} bytes",
        reg.counter_value("bench/alloc/allocations").unwrap_or(0),
        reg.counter_value("bench/alloc/bytes").unwrap_or(0)
    );
    ExitCode::SUCCESS
}

/// Validate the checked-in file: schema tag, both sections, and full
/// bench-matrix coverage in each `events_per_sec` map.
fn check(path: &Path) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("FAIL: cannot read {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let doc = match parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("FAIL: {} does not parse: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };
    let mut errors: Vec<String> = Vec::new();
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        errors.push(format!("schema tag must be {SCHEMA:?}"));
    }
    for section in ["baseline", "current"] {
        let Some(sec) = doc.get(section) else {
            errors.push(format!("missing `{section}` section"));
            continue;
        };
        for (app, n) in bench_matrix() {
            let key = point_key(app, n);
            let eps = sec.get("events_per_sec").and_then(|m| m.get(&key));
            match eps.and_then(Json::as_f64) {
                Some(v) if v > 0.0 => {}
                _ => errors.push(format!("`{section}.events_per_sec.{key}` missing or non-positive")),
            }
        }
        for app in App::ALL {
            let key = app.name().to_ascii_lowercase();
            if sec
                .get("pipeline_ms")
                .and_then(|m| m.get(&key))
                .and_then(Json::as_f64)
                .is_none()
            {
                errors.push(format!("`{section}.pipeline_ms.{key}` missing"));
            }
        }
        if sec.get("allocs_per_interval").and_then(Json::as_f64).is_none() {
            errors.push(format!("`{section}.allocs_per_interval` missing"));
        }
    }
    // The checkpoint-roundtrip group is required in `current` (baselines
    // recorded before the sampled-simulation subsystem may predate it).
    match doc.get("current").and_then(|c| c.get("checkpoint_roundtrip")) {
        Some(ck) => {
            for key in ["encode_ms", "decode_restore_ms", "bytes"] {
                match ck.get(key).and_then(Json::as_f64) {
                    Some(v) if v >= 0.0 => {}
                    _ => errors.push(format!(
                        "`current.checkpoint_roundtrip.{key}` missing or negative"
                    )),
                }
            }
        }
        None => errors.push("missing `current.checkpoint_roundtrip` group".into()),
    }
    // The diagnose group is required in `current` only (baselines recorded
    // before the diagnosis subsystem may predate it).
    match doc.get("current").and_then(|c| c.get("diagnose")) {
        Some(dg) => {
            for key in ["engine_ms", "n_streams", "intervals"] {
                match dg.get(key).and_then(Json::as_f64) {
                    Some(v) if v > 0.0 => {}
                    _ => errors.push(format!("`current.diagnose.{key}` missing or non-positive")),
                }
            }
        }
        None => errors.push("missing `current.diagnose` group".into()),
    }
    // The scaling curve is required in `current` only (baselines recorded
    // before the curve existed predate it): every SCALE_PROCS point,
    // positive rates in both arms, bit-identity asserted, CoV-of-CPI logged.
    match doc
        .get("current")
        .and_then(|c| c.get("scaling"))
        .and_then(|s| s.get("points"))
        .and_then(Json::as_arr)
    {
        Some(points) => {
            for n in SCALE_PROCS {
                let Some(p) = points
                    .iter()
                    .find(|p| p.get("n_procs").and_then(Json::as_f64) == Some(n as f64))
                else {
                    errors.push(format!("`current.scaling` missing the {n}-processor point"));
                    continue;
                };
                for key in ["reference_events_per_sec", "aggregate_events_per_sec", "speedup"] {
                    match p.get(key).and_then(Json::as_f64) {
                        Some(v) if v > 0.0 => {}
                        _ => errors.push(format!(
                            "`current.scaling` {n}P point: `{key}` missing or non-positive"
                        )),
                    }
                }
                if p.get("bit_identical") != Some(&Json::Bool(true)) {
                    errors.push(format!(
                        "`current.scaling` {n}P point did not assert aggregate/reference bit-identity"
                    ));
                }
                if p.get("cov_cpi").and_then(Json::as_f64).is_none() {
                    errors.push(format!("`current.scaling` {n}P point: `cov_cpi` missing"));
                }
            }
        }
        None => errors.push("missing `current.scaling.points` group".into()),
    }
    if doc.get("speedup_events_per_sec").is_none() {
        errors.push("missing `speedup_events_per_sec`".into());
    }
    if errors.is_empty() {
        println!(
            "OK: {} covers the full bench matrix ({} points)",
            path.display(),
            bench_matrix().len()
        );
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("FAIL: {e}");
        }
        ExitCode::FAILURE
    }
}

// The speedup-map unit tests (matrix growth → "new entry", matrix shrink →
// "removed entry", identical maps → ratios only) live with the shared
// implementation in `dsm_bench::compare`.
