//! Diagnose artefact byte-stability: two independent report builds must
//! write byte-identical `diagnose.json` files through the shared writer.
//!
//! This is the only test in this binary on purpose: it owns the
//! `DSM_RESULTS_DIR` environment variable for the process.

use dsm_harness::diagnose::{diagnose_app, reports_json, reports_text};
use dsm_harness::json::parse;
use dsm_harness::report;
use dsm_workloads::App;

#[test]
fn diagnose_json_is_byte_identical_across_reruns() {
    let tmp = std::env::temp_dir().join(format!("dsm-diagnose-artifacts-{}", std::process::id()));
    std::env::set_var("DSM_RESULTS_DIR", &tmp);

    // One app, all three columns — the full artefact shape, assembled the
    // way the `diagnose` binary does, twice, from independent captures.
    let build = || vec![diagnose_app(App::Lu, 16, true)];

    let a = build();
    let path_a = report::write_json("diagnose.json", &reports_json(&a)).expect("write first");
    let bytes_a = std::fs::read(&path_a).expect("read first");

    let b = build();
    let path_b = report::write_json("diagnose.json", &reports_json(&b)).expect("write second");
    let bytes_b = std::fs::read(&path_b).expect("read second");

    assert_eq!(path_a, path_b);
    assert_eq!(bytes_a, bytes_b, "diagnose.json must be byte-identical across reruns");
    assert_eq!(bytes_a, reports_json(&a).to_string().into_bytes());
    let back = parse(std::str::from_utf8(&bytes_b).unwrap()).expect("parse artefact");
    assert_eq!(back.get("schema").unwrap().as_str(), Some("dsm-diagnose/v1"));

    // The text rendering is deterministic too.
    assert_eq!(reports_text(&a), reports_text(&b));

    std::env::remove_var("DSM_RESULTS_DIR");
    let _ = std::fs::remove_dir_all(tmp);
}
