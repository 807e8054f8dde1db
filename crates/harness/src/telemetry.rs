//! Harness-side telemetry: instrumented captures and artifact export.
//!
//! The simulator and the detector record into their own
//! [`dsm_telemetry`] facades (real when the `telemetry` feature is on,
//! zero-sized stubs otherwise); this module is the always-compiled layer
//! that collects their [`Snapshot`]s and turns them into the three
//! artifact forms every experiment binary can emit via
//! `--telemetry-out <dir>`:
//!
//! * `<label>.trace.json` — Chrome `trace_event` JSON; open it in
//!   `chrome://tracing` or Perfetto to see coherence transactions and
//!   sampling intervals per node on a shared cycle timeline;
//! * `<label>.metrics.jsonl` — one metric per line, sorted by name,
//!   written with the deterministic [`crate::json`] serializer so two
//!   identical runs dump byte-identical files;
//! * `<label>.summary.txt` — a plain-text table (via
//!   [`dsm_analysis::table::Table`]) for eyeballs and diffs.
//!
//! With the feature disabled the snapshots come back `enabled: false`
//! and empty; export still succeeds and the artifacts say so, so
//! scripts do not need to branch on the build flavour.

use std::io;
use std::path::{Path, PathBuf};

use dsm_phase::detector::{DetectorGeometry, TraceCollector};
use dsm_telemetry::{chrome, MetricSample, MetricValue, MetricsRegistry, Snapshot};
use dsm_workloads::{make_stream, App, Scale};

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::trace::{capture_system, SystemTrace};

/// A telemetry-instrumented capture: the usual trace plus the merged
/// snapshot (simulator probes, system stats, DDV traffic).
#[derive(Debug, Clone)]
pub struct TelemetryCapture {
    pub trace: SystemTrace,
    pub snapshot: Snapshot,
}

/// Run the simulation for `config` like [`crate::trace::capture`], but
/// keep the telemetry snapshot alongside the trace. The simulated run is
/// identical — telemetry never feeds back into timing.
pub fn capture_with_telemetry(config: ExperimentConfig) -> TelemetryCapture {
    let sys_cfg = config.system_config();
    assert_eq!(sys_cfg.n_procs, config.n_procs);
    let stream = make_stream(config.app, config.n_procs, config.scale);
    let system = capture_system(sys_cfg, stream, DetectorGeometry::default(), TraceCollector::new);
    let (stats, collector, mut snapshot) = system.run_telemetry();
    if snapshot.enabled {
        // Fold the detector-side DDV traffic into the same registry the
        // simulator published to, keeping one flat, sorted namespace.
        let mut reg = MetricsRegistry::new();
        reg.absorb(&snapshot.metrics);
        collector.ddv().publish_metrics("detector/ddv", &mut reg);
        snapshot.metrics = reg.samples();
    }
    TelemetryCapture { trace: SystemTrace::from_run(config, (stats, collector)), snapshot }
}

/// Serialize one metric sample as a deterministic JSON object.
fn sample_json(s: &MetricSample) -> Json {
    match &s.value {
        MetricValue::Counter(v) => Json::obj()
            .field("name", s.name.as_str())
            .field("type", "counter")
            .field("value", *v),
        MetricValue::Gauge(v) => Json::obj()
            .field("name", s.name.as_str())
            .field("type", "gauge")
            .field("value", *v),
        MetricValue::Histogram {
            count,
            sum,
            min,
            max,
            buckets,
        } => {
            let b: Vec<Json> = buckets
                .iter()
                .map(|&(i, c)| Json::Arr(vec![Json::from(i as u64), Json::from(c)]))
                .collect();
            Json::obj()
                .field("name", s.name.as_str())
                .field("type", "histogram")
                .field("count", *count)
                .field("sum", *sum)
                // An empty histogram's min is the u64::MAX sentinel; null
                // reads better than 1.8e19 in a dump.
                .field(
                    "min",
                    if *count == 0 { Json::Null } else { Json::from(*min) },
                )
                .field("max", *max)
                .field("buckets", Json::Arr(b))
        }
    }
}

/// The JSONL metrics dump: one object per line, already sorted by name
/// (snapshots are produced sorted). Deterministic byte-for-byte.
pub fn metrics_jsonl(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    for s in samples {
        out.push_str(&sample_json(s).to_string());
        out.push('\n');
    }
    out
}

/// Human-readable summary table for a snapshot: every metric, then span
/// accounting per track (recorded/dropped — truncation is never silent).
pub fn summary_text(label: &str, snapshot: &Snapshot) -> String {
    let mut rows: Vec<(String, String)> = Vec::new();
    rows.push(("telemetry".into(), if snapshot.enabled { "on" } else { "off" }.into()));
    for s in &snapshot.metrics {
        let v = match &s.value {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => format!("{v}"),
            MetricValue::Histogram {
                count, sum, min, max, ..
            } => {
                if *count == 0 {
                    "count=0".into()
                } else {
                    format!(
                        "count={count} mean={:.1} min={min} max={max}",
                        *sum as f64 / *count as f64
                    )
                }
            }
        };
        rows.push((s.name.clone(), v));
    }
    for t in &snapshot.tracks {
        rows.push((
            format!("spans[{}]", t.name),
            format!("{} recorded, {} dropped", t.spans.len(), t.dropped),
        ));
    }
    dsm_analysis::table::Table::kv(format!("telemetry summary: {label}"), &rows).render()
}

/// Export the three artifacts for one labeled snapshot into `dir`
/// (created on demand). Returns the written paths.
pub fn export_run(dir: &Path, label: &str, snapshot: &Snapshot) -> io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(3);
    let trace = dir.join(format!("{label}.trace.json"));
    std::fs::write(&trace, chrome::export(snapshot))?;
    paths.push(trace);
    let metrics = dir.join(format!("{label}.metrics.jsonl"));
    std::fs::write(&metrics, metrics_jsonl(&snapshot.metrics))?;
    paths.push(metrics);
    let summary = dir.join(format!("{label}.summary.txt"));
    std::fs::write(&summary, summary_text(label, snapshot))?;
    paths.push(summary);
    Ok(paths)
}

/// Export a metrics-only registry (no span tracks) — used by binaries to
/// dump harness-level counters such as the [`crate::parallel::RunReport`]
/// cache statistics.
pub fn export_registry(dir: &Path, label: &str, reg: &MetricsRegistry) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{label}.metrics.jsonl"));
    std::fs::write(&path, metrics_jsonl(&reg.samples()))?;
    Ok(path)
}

/// Capture every workload at `n_procs`/`scale` with telemetry and export
/// one artifact triple per workload into `dir`. Returns all written paths.
pub fn export_workloads(dir: &Path, scale: Scale, n_procs: usize) -> io::Result<Vec<PathBuf>> {
    let mut paths = Vec::new();
    for app in App::ALL {
        let config = crate::figures::config_at(app, n_procs, scale);
        let cap = capture_with_telemetry(config);
        paths.extend(export_run(dir, &config.label(), &cap.snapshot)?);
    }
    Ok(paths)
}

/// The figure binaries' `--telemetry-out DIR`: [`export_workloads`] at 2
/// nodes, then `run`'s deterministic counters as `<label>.metrics.jsonl`.
/// Returns all written paths.
pub fn export_figure(
    dir: &Path,
    scale: Scale,
    label: &str,
    run: &crate::parallel::RunReport,
) -> io::Result<Vec<PathBuf>> {
    let mut paths = export_workloads(dir, scale, 2)?;
    let mut reg = MetricsRegistry::new();
    run.publish(&mut reg);
    paths.push(export_registry(dir, label, &reg)?);
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut t = dsm_telemetry::Telemetry::with_capacity(1, 4);
        let c = t.counter("a/count");
        let h = t.histogram("a/lat");
        let n = t.intern("work");
        t.set_track_name(0, "node0");
        t.add(c, 3);
        t.record(h, 0);
        t.record(h, 9);
        t.span(0, n, 5, 10);
        t.snapshot()
    }

    #[test]
    fn jsonl_is_one_sorted_line_per_metric() {
        let snap = sample_snapshot();
        let dump = metrics_jsonl(&snap.metrics);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").unwrap().as_str(), Some("a/count"));
        assert_eq!(first.get("type").unwrap().as_str(), Some("counter"));
        assert_eq!(first.get("value").unwrap().as_f64(), Some(3.0));
        let second = crate::json::parse(lines[1]).unwrap();
        assert_eq!(second.get("type").unwrap().as_str(), Some("histogram"));
        assert_eq!(second.get("count").unwrap().as_f64(), Some(2.0));
        assert_eq!(second.get("min").unwrap().as_f64(), Some(0.0));
        assert_eq!(second.get("max").unwrap().as_f64(), Some(9.0));
        assert_eq!(second.get("buckets").unwrap().as_arr().unwrap().len(), 2);
    }

    #[test]
    fn empty_histogram_min_is_null() {
        let mut reg = MetricsRegistry::new();
        reg.histogram("empty");
        let dump = metrics_jsonl(&reg.samples());
        let v = crate::json::parse(dump.trim()).unwrap();
        assert_eq!(v.get("min"), Some(&Json::Null));
    }

    #[test]
    fn summary_lists_metrics_and_span_accounting() {
        let snap = sample_snapshot();
        let s = summary_text("demo", &snap);
        assert!(s.contains("telemetry summary: demo"));
        assert!(s.contains("a/count"));
        assert!(s.contains("spans[node0]"));
        assert!(s.contains("1 recorded, 0 dropped"));
    }

    #[test]
    fn export_writes_three_artifacts() {
        let dir = std::env::temp_dir().join(format!("dsm-telem-export-{}", std::process::id()));
        let snap = sample_snapshot();
        let paths = export_run(&dir, "t", &snap).unwrap();
        assert_eq!(paths.len(), 3);
        for p in &paths {
            assert!(p.exists(), "{p:?}");
        }
        // The chrome artifact parses as JSON.
        let trace = std::fs::read_to_string(&paths[0]).unwrap();
        assert!(crate::json::parse(&trace).is_ok());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn capture_with_telemetry_matches_plain_capture() {
        let config = ExperimentConfig::test(dsm_workloads::App::Lu, 2);
        let plain = crate::trace::capture(config);
        let cap = capture_with_telemetry(config);
        assert_eq!(cap.trace.stats, plain.stats);
        assert_eq!(cap.trace.records, plain.records);
        assert_eq!(cap.trace.ddv_vectors_exchanged, plain.ddv_vectors_exchanged);
        assert_eq!(cap.snapshot.enabled, cfg!(feature = "telemetry"));
        if cfg!(feature = "telemetry") {
            assert!(cap.snapshot.recorded_spans() > 0);
            // The detector-side DDV metrics were folded in.
            assert!(cap
                .snapshot
                .metrics
                .iter()
                .any(|m| m.name == "detector/ddv/vectors_exchanged"));
        } else {
            assert!(cap.snapshot.metrics.is_empty());
        }
    }
}
