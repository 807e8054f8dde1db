//! Fault-injection robustness sweep: run every workload under increasing
//! fault rates and report CoV-of-CPI degradation against the fault-free
//! golden run, plus the conservation and termination evidence.
//!
//! Usage: `faults [seed] [--telemetry-out <dir>] [--checkpoint-every <n>]
//! [--resume <ckpt>]` (default seed 42).
//! Artefacts: `faults.txt` (table) and `faults.json` (schema in
//! EXPERIMENTS.md); with `--telemetry-out`, one Chrome-trace / metrics /
//! summary triple per workload (telemetry schema also in EXPERIMENTS.md).
//!
//! `--checkpoint-every <n>` replaces the sweep: every workload runs once
//! under the mixed fault plan at the given seed, writing a `DSMCKPT6`
//! checkpoint to `results/checkpoints/` at every `n`-th global interval
//! boundary. `--resume <ckpt>` restores one of those files, simulates it to
//! completion, and prints the resumed machine statistics.

use dsm_analysis::Table;
use dsm_harness::faults::{fault_sweep, DEFAULT_RATES};
use dsm_harness::json::Json;
use dsm_harness::simpoint::{capture_checkpoint_every, resume_to_end};
use dsm_harness::{report, telemetry, ExperimentConfig};
use dsm_sim::config::FaultPlan;
use dsm_simpoint::Checkpoint;
use dsm_workloads::{App, Scale};

/// `--resume <ckpt>`: restore the checkpoint, run to completion, report.
fn resume_mode(path: &str) {
    let bytes = std::fs::read(path).expect("read checkpoint file");
    let ck = Checkpoint::decode(&bytes).expect("decode checkpoint");
    let trace = resume_to_end(&bytes);
    let pairs = vec![
        ("app".to_string(), ck.meta.app.name().to_string()),
        ("n_procs".to_string(), ck.meta.n_procs.to_string()),
        ("resumed_at_interval".to_string(), ck.meta.interval_index.to_string()),
        ("fault_plan_active".to_string(), ck.meta.plan.is_active().to_string()),
        ("finish_cycle".to_string(), trace.stats.finish_cycle.to_string()),
        ("total_insns".to_string(), trace.stats.total_insns().to_string()),
        ("system_ipc".to_string(), format!("{:.4}", trace.stats.system_ipc())),
        ("intervals_recorded".to_string(), trace.total_intervals().to_string()),
    ];
    print!("{}", Table::kv(format!("resumed {path}"), &pairs).render());
}

/// `--checkpoint-every <n>`: checkpointed faulty runs for every workload.
fn checkpoint_mode(every: u64, seed: u64) {
    let dir = report::results_dir().expect("results dir").join("checkpoints");
    std::fs::create_dir_all(&dir).expect("create checkpoints dir");
    for app in App::ALL {
        let config = ExperimentConfig::test(app, 4);
        let plan = FaultPlan::mixed(seed, 0.02);
        let (ckpts, trace) = capture_checkpoint_every(config, plan, every);
        for (boundary, bytes) in &ckpts {
            let path = dir.join(format!("{}-i{boundary}.ckpt", config.label()));
            std::fs::write(&path, bytes).expect("write checkpoint");
            report::announce(&path);
        }
        println!(
            "{}: {} checkpoints (every {every} intervals, {} recorded); resume with \
             `faults --resume results/checkpoints/{}-i<N>.ckpt`",
            config.label(),
            ckpts.len(),
            trace.total_intervals(),
            config.label(),
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed: u64 = 42;
    let mut checkpoint_every: Option<u64> = None;
    let mut resume: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--telemetry-out" {
            i += 2; // flag plus its directory value
            continue;
        }
        if args[i] == "--checkpoint-every" {
            checkpoint_every =
                Some(args[i + 1].parse().expect("--checkpoint-every takes an interval count"));
            i += 2;
            continue;
        }
        if args[i] == "--resume" {
            resume = Some(args[i + 1].clone());
            i += 2;
            continue;
        }
        if !args[i].starts_with("--") {
            seed = args[i].parse().expect("seed must be an integer");
        }
        i += 1;
    }

    if let Some(path) = resume {
        resume_mode(&path);
        return;
    }
    if let Some(every) = checkpoint_every {
        checkpoint_mode(every, seed);
        return;
    }

    let mut out = String::new();
    let mut sweeps = Vec::new();
    for app in App::ALL {
        let s = fault_sweep(app, 4, seed, &DEFAULT_RATES);
        out.push_str(&s.render());
        out.push('\n');
        sweeps.push(s.to_json());
    }
    print!("{out}");

    report::announce(&report::write_text("faults.txt", &out).expect("write table"));
    let json = Json::obj()
        .field("experiment", "fault_sweep")
        .field("seed", seed)
        .field("sweeps", Json::Arr(sweeps));
    report::announce(&report::write_json("faults.json", &json).expect("write json"));

    if let Some(dir) = telemetry::telemetry_out_from_args() {
        // Instrumented fault-free captures at the sweep's node count; the
        // sweep itself is already summarized in faults.json.
        let paths =
            telemetry::export_workloads(&dir, Scale::Test, 4).expect("write telemetry artifacts");
        for p in &paths {
            report::announce(p);
        }
    }
}
