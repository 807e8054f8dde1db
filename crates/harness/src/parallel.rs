//! The parallel experiment engine.
//!
//! The paper's methodology sweeps ~200 threshold values per detector over
//! every (application, node count) point; every simulation and every sweep
//! point is independent. This module provides the three layers that make
//! the matrix run at hardware speed while staying bit-reproducible:
//!
//! 1. **a worker pool** ([`par_map`]) — an index-queue over scoped OS
//!    threads with a process-wide `--jobs` knob. Results land in their
//!    input slot, so output order (and therefore every downstream artefact)
//!    is identical for any job count;
//! 2. **a content-addressed trace store** ([`TraceStore`]) — captured
//!    [`SystemTrace`]s persisted on disk keyed by a hash of
//!    `(app, n_procs, scale, interval_base, SystemConfig, DetectorGeometry)`,
//!    so re-running figures/sweeps/ablations skips simulation entirely.
//!    Entries use the `DSMTRC4` layout ([`encode_trace`]/[`decode_trace`]),
//!    written over `dsm_simpoint::wire`, the byte layer and shared
//!    structure encoders of the checkpoint codec; decoding is total and any
//!    error is a cache miss;
//! 3. **a run report** ([`RunReport`]) — per-experiment wall time and
//!    cache hit/miss counters, written as JSON next to the results.
//!
//! Simulations were already deterministic per configuration (workload RNGs
//! are seeded from fixed per-(app, proc, chunk) keys — see
//! `dsm-workloads`), so serial and parallel runs produce byte-identical
//! artefacts; `tests/determinism_parallel.rs` locks this down.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dsm_phase::detector::DetectorGeometry;
use dsm_sim::memctrl::MemCtrlStats;
use dsm_sim::network::NetworkStats;
use dsm_sim::stats::SystemStats;
use dsm_simpoint::wire::{
    get_app, get_directory_stats, get_fault_stats, get_proc_stats, get_reconfig_stats,
    get_record, get_scale, put_app, put_directory_stats, put_fault_stats, put_proc_stats,
    put_reconfig_stats, put_record, put_scale, PROC_STATS_BYTES, R, RECORD_MIN_BYTES, W,
};
use dsm_simpoint::CkptError;

use crate::experiment::ExperimentConfig;
use crate::json::Json;
use crate::trace::{self, SystemTrace};

// ---------------------------------------------------------------------------
// Jobs knob
// ---------------------------------------------------------------------------

/// 0 = unset (use available parallelism).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Hardware default for the worker count.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Set the process-wide worker count (0 resets to the hardware default).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => default_jobs(),
        n => n,
    }
}

/// Parse `--jobs N` from the command line (or `DSM_JOBS` from the
/// environment), set the process-wide knob, and return the result.
pub fn jobs_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let from_flag = args
        .iter()
        .position(|a| a == "--jobs" || a == "-j")
        .and_then(|i| args.get(i + 1))
        .and_then(|s| s.parse::<usize>().ok());
    let from_env = std::env::var("DSM_JOBS")
        .ok()
        .and_then(|s| s.parse::<usize>().ok());
    if let Some(n) = from_flag.or(from_env) {
        set_jobs(n.max(1));
    }
    jobs()
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

/// Map `f` over `items` on up to [`jobs`] worker threads. Results are
/// returned in input order regardless of scheduling, so parallel output is
/// byte-identical to serial output.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    par_map_jobs(jobs(), items, f)
}

/// [`par_map`] with an explicit worker count.
pub fn par_map_jobs<T, R, F>(n_jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n_jobs <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let items: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    std::thread::scope(|s| {
        for _ in 0..n_jobs.min(n) {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = items[i].lock().unwrap().take().expect("item taken twice");
                let r = f(item);
                *slots[i].lock().unwrap() = Some(r);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker skipped a slot"))
        .collect()
}

// ---------------------------------------------------------------------------
// Content-addressed trace store
// ---------------------------------------------------------------------------

/// FNV-1a 64-bit (stable across platforms and Rust versions, unlike
/// `DefaultHasher`).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Bump when the on-disk trace layout changes: old entries become misses
/// instead of decoding garbage.
const TRACE_FORMAT: &str = "dsm-trace-v2";

/// Content hash of everything that determines a captured trace: the
/// experiment point, the derived machine configuration, and the collector
/// geometry. Any field change (via `Debug` of the full structs) changes
/// the key.
pub fn cache_key(config: &ExperimentConfig) -> String {
    let desc = format!(
        "{TRACE_FORMAT}|{:?}|{}|{:?}|{}|{:?}|{:?}",
        config.app,
        config.n_procs,
        config.scale,
        config.interval_base,
        config.system_config(),
        DetectorGeometry::default(),
    );
    format!("{}-{:016x}", config.label(), fnv1a64(desc.as_bytes()))
}

/// Process-wide trace-store directory. Unset (the default) disables disk
/// persistence; binaries enable it, unit tests run memory-only.
static STORE_DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Enable the on-disk trace store at `dir` (`None` disables it).
pub fn set_trace_store_dir(dir: Option<PathBuf>) {
    *STORE_DIR.lock().unwrap() = dir;
}

/// The configured store, if persistence is enabled.
pub fn trace_store() -> Option<TraceStore> {
    STORE_DIR
        .lock()
        .unwrap()
        .as_ref()
        .map(|d| TraceStore { dir: d.clone() })
}

/// The default store location: `$DSM_TRACE_CACHE`, or
/// `.dsm-trace-cache/` under the working directory.
pub fn default_store_dir() -> PathBuf {
    std::env::var_os("DSM_TRACE_CACHE")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(".dsm-trace-cache"))
}

/// On-disk content-addressed store of captured traces.
#[derive(Debug, Clone)]
pub struct TraceStore {
    dir: PathBuf,
}

impl TraceStore {
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Self { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_for(&self, key: &str) -> PathBuf {
        self.dir.join(format!("{key}.trace"))
    }

    /// Load the trace stored under `key`, or `None` on absence or any
    /// decode failure (treated as a miss, never an error).
    pub fn load(&self, key: &str) -> Option<SystemTrace> {
        let bytes = std::fs::read(self.path_for(key)).ok()?;
        decode_trace(&bytes).ok()
    }

    /// Persist `trace` under `key` (atomic rename, so a concurrent reader
    /// never observes a torn file).
    pub fn store(&self, key: &str, trace: &SystemTrace) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(&self.dir)?;
        let final_path = self.path_for(key);
        let tmp = self.dir.join(format!(".{key}.tmp-{}", std::process::id()));
        std::fs::write(&tmp, encode_trace(trace))?;
        std::fs::rename(&tmp, &final_path)?;
        Ok(final_path)
    }

    /// Delete every stored trace (`--cold` runs).
    pub fn clear(&self) -> std::io::Result<()> {
        if let Ok(entries) = std::fs::read_dir(&self.dir) {
            for e in entries.flatten() {
                if e.path().extension().is_some_and(|x| x == "trace") {
                    std::fs::remove_file(e.path())?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Cache counters
// ---------------------------------------------------------------------------

static MEM_HITS: AtomicU64 = AtomicU64::new(0);
static DISK_HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);

/// Snapshot of the process-wide capture counters:
/// `(memory_hits, disk_hits, misses)`.
pub fn cache_counters() -> (u64, u64, u64) {
    (
        MEM_HITS.load(Ordering::Relaxed),
        DISK_HITS.load(Ordering::Relaxed),
        MISSES.load(Ordering::Relaxed),
    )
}

pub fn reset_cache_counters() {
    MEM_HITS.store(0, Ordering::Relaxed);
    DISK_HITS.store(0, Ordering::Relaxed);
    MISSES.store(0, Ordering::Relaxed);
}

// ---------------------------------------------------------------------------
// Run reports
// ---------------------------------------------------------------------------

/// Where a capture came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureSource {
    MemoryCache,
    DiskCache,
    Simulated,
}

impl CaptureSource {
    fn as_str(self) -> &'static str {
        match self {
            CaptureSource::MemoryCache => "memory",
            CaptureSource::DiskCache => "disk",
            CaptureSource::Simulated => "simulated",
        }
    }
}

/// One experiment's outcome inside a [`RunReport`].
#[derive(Debug, Clone)]
pub struct ExperimentRun {
    pub label: String,
    pub key: String,
    pub source: CaptureSource,
    pub wall_ms: f64,
    pub intervals: usize,
}

/// Structured record of one engine invocation: observability for long
/// sweeps, and the stable part doubles as a determinism witness.
#[derive(Debug, Clone)]
pub struct RunReport {
    pub name: String,
    pub jobs: usize,
    pub runs: Vec<ExperimentRun>,
    pub total_wall_ms: f64,
}

impl RunReport {
    pub fn mem_hits(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.source == CaptureSource::MemoryCache)
            .count()
    }

    pub fn disk_hits(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.source == CaptureSource::DiskCache)
            .count()
    }

    pub fn misses(&self) -> usize {
        self.runs
            .iter()
            .filter(|r| r.source == CaptureSource::Simulated)
            .count()
    }

    fn json_with(&self, timing: bool) -> Json {
        let runs: Vec<Json> = self
            .runs
            .iter()
            .map(|r| {
                let mut o = Json::obj()
                    .field("label", r.label.as_str())
                    .field("key", r.key.as_str())
                    .field("source", r.source.as_str())
                    .field("intervals", r.intervals);
                if timing {
                    o = o.field("wall_ms", r.wall_ms);
                }
                o
            })
            .collect();
        let mut o = Json::obj()
            .field("name", self.name.as_str())
            .field("jobs", self.jobs)
            .field("experiments", self.runs.len())
            .field("mem_hits", self.mem_hits())
            .field("disk_hits", self.disk_hits())
            .field("misses", self.misses());
        if timing {
            o = o.field("total_wall_ms", self.total_wall_ms);
        }
        o.field("runs", Json::Arr(runs))
    }

    /// Full JSON value, timing included.
    pub fn json_value(&self) -> Json {
        self.json_with(true)
    }

    /// Full JSON, timing included.
    pub fn to_json(&self) -> String {
        self.json_with(true).to_string()
    }

    /// Publish the deterministic run counters into a metrics registry
    /// (wall times are excluded so the published metrics stay byte-stable
    /// across reruns and job counts, like [`RunReport::stable_json`]).
    pub fn publish(&self, reg: &mut dsm_telemetry::MetricsRegistry) {
        reg.counter_add("harness/experiments", self.runs.len() as u64);
        reg.counter_add("harness/cache/mem_hits", self.mem_hits() as u64);
        reg.counter_add("harness/cache/disk_hits", self.disk_hits() as u64);
        reg.counter_add("harness/cache/misses", self.misses() as u64);
        reg.counter_add(
            "harness/intervals",
            self.runs.iter().map(|r| r.intervals as u64).sum(),
        );
    }

    /// JSON with wall-time fields elided — byte-identical across reruns
    /// and job counts (the determinism witness).
    pub fn stable_json(&self) -> String {
        self.json_with(false).to_string()
    }

    /// One-line human summary for stderr.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} experiments, jobs={}, cache {} mem + {} disk hits / {} simulated, {:.0} ms",
            self.name,
            self.runs.len(),
            self.jobs,
            self.mem_hits(),
            self.disk_hits(),
            self.misses(),
            self.total_wall_ms
        )
    }
}

// ---------------------------------------------------------------------------
// The engine
// ---------------------------------------------------------------------------

/// Capture every configuration in `configs` — memory cache, then disk
/// store, then simulation — running misses concurrently on the worker
/// pool. Returns traces in input order plus a [`RunReport`].
pub fn capture_matrix(
    name: &str,
    configs: &[ExperimentConfig],
) -> (Vec<Arc<SystemTrace>>, RunReport) {
    let t0 = Instant::now();
    let store = trace_store();
    let results = par_map(configs.to_vec(), |config| {
        let t = Instant::now();
        let key = cache_key(&config);
        let (trace, source) = if let Some(hit) = trace::memory_cache_get(&config.label()) {
            MEM_HITS.fetch_add(1, Ordering::Relaxed);
            (hit, CaptureSource::MemoryCache)
        } else if let Some(hit) = store.as_ref().and_then(|s| s.load(&key)) {
            DISK_HITS.fetch_add(1, Ordering::Relaxed);
            let arc = Arc::new(hit);
            trace::memory_cache_insert(config.label(), arc.clone());
            (arc, CaptureSource::DiskCache)
        } else {
            MISSES.fetch_add(1, Ordering::Relaxed);
            let fresh = Arc::new(trace::capture(config));
            if let Some(s) = &store {
                // Best-effort: a full disk never fails the experiment.
                let _ = s.store(&key, &fresh);
            }
            trace::memory_cache_insert(config.label(), fresh.clone());
            (fresh, CaptureSource::Simulated)
        };
        let run = ExperimentRun {
            label: config.label(),
            key,
            source,
            wall_ms: t.elapsed().as_secs_f64() * 1e3,
            intervals: trace.total_intervals(),
        };
        (trace, run)
    });
    let mut traces = Vec::with_capacity(results.len());
    let mut runs = Vec::with_capacity(results.len());
    for (trace, run) in results {
        traces.push(trace);
        runs.push(run);
    }
    let report = RunReport {
        name: name.to_string(),
        jobs: jobs(),
        runs,
        total_wall_ms: t0.elapsed().as_secs_f64() * 1e3,
    };
    (traces, report)
}

/// Standard binary preamble: parse `--jobs`/`-j N`, `--cold` (clear the
/// store first), and `--no-cache` (disable persistence); enable the disk
/// store otherwise. Returns the worker count.
pub fn init_from_args() -> usize {
    let args: Vec<String> = std::env::args().collect();
    let n = jobs_from_args();
    if args.iter().any(|a| a == "--no-cache") {
        set_trace_store_dir(None);
    } else {
        let dir = default_store_dir();
        set_trace_store_dir(Some(dir.clone()));
        if args.iter().any(|a| a == "--cold") {
            if let Ok(store) = TraceStore::open(&dir) {
                store.clear().expect("clear trace store");
            }
        }
    }
    n
}

// ---------------------------------------------------------------------------
// Binary trace codec
// ---------------------------------------------------------------------------

/// Trace-store entry magic. v2 added `DirectoryStats.nacks` and
/// `SystemStats.faults` (fault injection); v3 the route-aware fabric
/// (`NetworkStats.total_flit_hops` and per-link flit counters). Entries of
/// any other version decode as a cache miss, never a panic.
const TRACE_MAGIC: &[u8; 8] = b"DSMTRC4\n";

/// Encode `trace` as a `DSMTRC4` trace-store entry: the experiment point,
/// every interval record, then the run's statistics. Deterministic.
pub fn encode_trace(trace: &SystemTrace) -> Vec<u8> {
    let mut w = W::with_magic(TRACE_MAGIC);
    put_app(&mut w, trace.config.app);
    put_scale(&mut w, trace.config.scale);
    w.u64(trace.config.n_procs as u64);
    w.u64(trace.config.interval_base);
    w.u64(trace.records.len() as u64);
    for recs in &trace.records {
        w.u64(recs.len() as u64);
        for rec in recs {
            put_record(&mut w, rec);
        }
    }
    let s = &trace.stats;
    w.u64(s.procs.len() as u64);
    for p in &s.procs {
        put_proc_stats(&mut w, p);
    }
    put_directory_stats(&mut w, &s.directory);
    put_fault_stats(&mut w, &s.faults);
    let n = &s.network;
    for v in [n.msgs, n.payload_msgs, n.total_hops, n.link_wait_cycles, n.total_flit_hops] {
        w.u64(v);
    }
    w.vec_u64(&n.link_flits);
    w.u64(s.memctrls.len() as u64);
    for m in &s.memctrls {
        w.u64(m.requests);
        w.u64(m.total_queue_delay);
    }
    put_reconfig_stats(&mut w, &s.reconfig);
    w.u64(s.finish_cycle);
    w.u64(trace.ddv_vectors_exchanged);
    w.into_bytes()
}

/// Decode a `DSMTRC4` entry. Total: any input yields a trace or a typed
/// [`CkptError`]; it never panics and never reserves more than the input
/// could hold.
pub fn decode_trace(bytes: &[u8]) -> Result<SystemTrace, CkptError> {
    let mut r = R::new(bytes.strip_prefix(TRACE_MAGIC).ok_or(CkptError::BadMagic)?);
    let app = get_app(&mut r)?;
    let scale = get_scale(&mut r)?;
    let n_procs = r.usize_checked("n_procs")?;
    let interval_base = r.u64()?;
    let n = r.len(8)?;
    let records = (0..n)
        .map(|_| {
            let k = r.len(RECORD_MIN_BYTES)?;
            (0..k).map(|_| get_record(&mut r)).collect()
        })
        .collect::<Result<_, CkptError>>()?;
    let n = r.len(PROC_STATS_BYTES)?;
    let procs = (0..n).map(|_| get_proc_stats(&mut r)).collect::<Result<_, _>>()?;
    let directory = get_directory_stats(&mut r)?;
    let faults = get_fault_stats(&mut r)?;
    let network = NetworkStats {
        msgs: r.u64()?,
        payload_msgs: r.u64()?,
        total_hops: r.u64()?,
        link_wait_cycles: r.u64()?,
        total_flit_hops: r.u64()?,
        link_flits: r.vec_u64()?,
    };
    let n = r.len(16)?;
    let memctrls = (0..n)
        .map(|_| Ok(MemCtrlStats { requests: r.u64()?, total_queue_delay: r.u64()? }))
        .collect::<Result<_, CkptError>>()?;
    let reconfig = get_reconfig_stats(&mut r)?;
    let finish_cycle = r.u64()?;
    let ddv_vectors_exchanged = r.u64()?;
    r.finish()?;
    Ok(SystemTrace {
        config: ExperimentConfig { app, n_procs, scale, interval_base },
        records,
        stats: SystemStats { procs, directory, network, memctrls, faults, reconfig, finish_cycle },
        ddv_vectors_exchanged,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_workloads::App;

    #[test]
    fn par_map_preserves_order_for_any_job_count() {
        let items: Vec<usize> = (0..97).collect();
        let expect: Vec<usize> = items.iter().map(|x| x * 3).collect();
        for j in [1, 2, 4, 13] {
            assert_eq!(par_map_jobs(j, items.clone(), |x| x * 3), expect);
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        assert_eq!(par_map_jobs(4, Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map_jobs(4, vec![9], |x| x + 1), vec![10]);
    }

    #[test]
    fn run_report_publishes_cache_counters() {
        let report = RunReport {
            name: "t".into(),
            jobs: 2,
            runs: vec![
                ExperimentRun {
                    label: "a".into(),
                    key: "ka".into(),
                    source: CaptureSource::MemoryCache,
                    wall_ms: 1.0,
                    intervals: 5,
                },
                ExperimentRun {
                    label: "b".into(),
                    key: "kb".into(),
                    source: CaptureSource::Simulated,
                    wall_ms: 2.0,
                    intervals: 7,
                },
            ],
            total_wall_ms: 3.0,
        };
        let mut reg = dsm_telemetry::MetricsRegistry::new();
        report.publish(&mut reg);
        assert_eq!(reg.counter_value("harness/experiments"), Some(2));
        assert_eq!(reg.counter_value("harness/cache/mem_hits"), Some(1));
        assert_eq!(reg.counter_value("harness/cache/disk_hits"), Some(0));
        assert_eq!(reg.counter_value("harness/cache/misses"), Some(1));
        assert_eq!(reg.counter_value("harness/intervals"), Some(12));
        // No wall-time metric leaks in: the dump must stay deterministic.
        assert!(reg.gauge_value("harness/total_wall_ms").is_none());
    }

    #[test]
    fn fnv_is_stable() {
        // Known FNV-1a vectors — the cache key must never drift silently.
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn cache_key_separates_every_field() {
        let base = ExperimentConfig::test(App::Lu, 2);
        let variants = [
            ExperimentConfig {
                app: App::Fmm,
                ..base
            },
            ExperimentConfig { n_procs: 4, ..base },
            ExperimentConfig {
                scale: dsm_workloads::Scale::Scaled,
                ..base
            },
            ExperimentConfig {
                interval_base: base.interval_base + 1,
                ..base
            },
        ];
        let k0 = cache_key(&base);
        let same = ExperimentConfig { ..base };
        assert_eq!(k0, cache_key(&same));
        for v in variants {
            assert_ne!(k0, cache_key(&v), "{v:?}");
        }
    }

    #[test]
    fn trace_codec_roundtrips_exactly() {
        let trace = trace::capture(ExperimentConfig::test(App::Lu, 2));
        let store = TraceStore::open(
            std::env::temp_dir().join(format!("dsm-store-test-{}", std::process::id())),
        )
        .unwrap();
        let key = cache_key(&trace.config);
        store.store(&key, &trace).unwrap();
        let back = store.load(&key).expect("load stored trace");
        assert_eq!(back.config, trace.config);
        assert_eq!(back.records, trace.records);
        assert_eq!(back.stats, trace.stats);
        assert_eq!(back.ddv_vectors_exchanged, trace.ddv_vectors_exchanged);
        store.clear().unwrap();
        assert!(store.load(&key).is_none());
        let _ = std::fs::remove_dir_all(store.dir());
    }

    #[test]
    fn dsmtrc4_bytes_are_pinned() {
        // Any change to this digest is a DSMTRC4 layout change: bump the
        // magic and `TRACE_FORMAT` instead of editing the pin.
        let bytes = encode_trace(&trace::capture(ExperimentConfig::test(App::Lu, 2)));
        assert_eq!((bytes.len(), fnv1a64(&bytes)), (8522, 0xc3e10e93cdf9d771));
    }

    #[test]
    fn corrupt_store_entries_are_misses() {
        let dir = std::env::temp_dir().join(format!("dsm-store-corrupt-{}", std::process::id()));
        let store = TraceStore::open(&dir).unwrap();
        std::fs::write(store.dir().join("bad.trace"), b"DSMTRC2\n\x09garbage").unwrap();
        assert!(store.load("bad").is_none());
        let _ = std::fs::remove_dir_all(dir);
    }
}
