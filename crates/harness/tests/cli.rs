//! Every harness binary refuses a bad command line before any work: exit
//! status 2, the error and the binary's usage on stderr, and nothing
//! written to the results directory.

use std::path::PathBuf;
use std::process::Command;

const BINS: [(&str, &str); 15] = [
    ("ablation", env!("CARGO_BIN_EXE_ablation")),
    ("adapt", env!("CARGO_BIN_EXE_adapt")),
    ("baselines", env!("CARGO_BIN_EXE_baselines")),
    ("diagnose", env!("CARGO_BIN_EXE_diagnose")),
    ("faults", env!("CARGO_BIN_EXE_faults")),
    ("fig2", env!("CARGO_BIN_EXE_fig2")),
    ("fig4", env!("CARGO_BIN_EXE_fig4")),
    ("overhead", env!("CARGO_BIN_EXE_overhead")),
    ("phased", env!("CARGO_BIN_EXE_phased")),
    ("prediction", env!("CARGO_BIN_EXE_prediction")),
    ("scale", env!("CARGO_BIN_EXE_scale")),
    ("sensitivity", env!("CARGO_BIN_EXE_sensitivity")),
    ("simpoint", env!("CARGO_BIN_EXE_simpoint")),
    ("tables", env!("CARGO_BIN_EXE_tables")),
    ("topologies", env!("CARGO_BIN_EXE_topologies")),
];

/// The usage the binary's `//! Usage:` line quotes, joined onto one line.
fn doc_usage(name: &str) -> String {
    let path = format!("{}/src/bin/{name}.rs", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(path).expect("binary source");
    let doc: Vec<&str> = src.lines().filter_map(|l| l.strip_prefix("//!")).map(str::trim).collect();
    let doc = doc.join(" ");
    let tag = "Usage: `";
    let start = doc.find(tag).unwrap_or_else(|| panic!("{name} has no usage line")) + tag.len();
    let len = doc[start..].find('`').expect("usage closes");
    doc[start..start + len].to_string()
}

/// Run `name` with `args` in empty results and trace-store directories,
/// assert it refuses them, and return its stderr.
fn refused(name: &str, args: &[&str], case: usize) -> String {
    let exe = BINS.iter().find(|(n, _)| *n == name).expect("known binary").1;
    let scratch: PathBuf =
        std::env::temp_dir().join(format!("dsm-cli-{name}-{case}-{}", std::process::id()));
    let (results, store) = (scratch.join("results"), scratch.join("store"));
    std::fs::create_dir_all(&results).unwrap();
    let out = Command::new(exe)
        .args(args)
        .env("DSM_RESULTS_DIR", &results)
        .env("DSM_TRACE_CACHE", &store)
        .output()
        .expect("run binary");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "{name} {args:?}: {stderr}");
    let usage = format!("usage: {}", doc_usage(name));
    assert!(stderr.contains(&usage), "{name} {args:?}: {stderr:?} lacks {usage:?}");
    let written = std::fs::read_dir(&results).unwrap().count();
    assert_eq!(written, 0, "{name} {args:?} wrote into the results directory");
    assert!(!store.exists(), "{name} {args:?} opened the trace store");
    std::fs::remove_dir_all(&scratch).unwrap();
    stderr
}

#[test]
fn every_binary_refuses_an_unknown_flag() {
    for (case, (name, _)) in BINS.iter().enumerate() {
        let stderr = refused(name, &["--bogus"], case);
        assert!(stderr.contains("--bogus"), "{name}: {stderr}");
    }
}

#[test]
fn malformed_command_lines_are_refused() {
    let cases: [(&str, &[&str], &str); 7] = [
        ("scale", &["--samples"], "--samples needs a value"),
        ("topologies", &["--smoke"], "--smoke needs a value"),
        ("topologies", &["--smoke", "nosuch"], "bad --smoke \"nosuch\""),
        ("topologies", &["6"], "6 processors is not a power of two"),
        ("baselines", &["--procs", "3"], "3 processors is not a power of two"),
        ("adapt", &["3"], "3 processors is not a power of two"),
        ("diagnose", &["--smok"], "unknown flag --smok"),
    ];
    for (case, (name, args, says)) in cases.into_iter().enumerate() {
        let stderr = refused(name, args, 100 + case);
        assert!(stderr.contains(says), "{name} {args:?}: {stderr}");
    }
}

#[test]
fn faults_refuses_a_resume_file_it_cannot_restore() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let missing = dir.join(format!("dsm-cli-missing-{pid}.ckpt"));
    let text = dir.join(format!("dsm-cli-text-{pid}.ckpt"));
    std::fs::write(&text, "not a checkpoint\n").unwrap();
    let cases = [(&missing, "cannot read it"), (&text, "bad magic")];
    for (case, (path, says)) in cases.into_iter().enumerate() {
        let path = path.display().to_string();
        let stderr = refused("faults", &["--resume", &path], 200 + case);
        assert!(stderr.contains(&format!("bad --resume {path:?}")), "{stderr}");
        assert!(stderr.contains(says), "{path}: {stderr}");
    }
    std::fs::remove_file(&text).unwrap();
}
