//! Each workload exercises what it was chosen for, read off the traced
//! counters of a short traced run:
//!
//! * `city-stream` never evicts, so the fixed-point engine should never
//!   rebuild. This check fails on the current code, which rebuilds on
//!   neighbour updates even without evictions; it stands as the target;
//! * `fleet-steady` evicts on every slide and runs no simulator;
//! * `lab-sweep` writes no streaming checkpoint.
//!
//! Every run must also pass its own exact checks. Needs the traced build:
//! `cargo test --release --features telemetry`.

#![cfg(feature = "telemetry")]

use std::process::Command;

use wsn_bench::json::JsonValue;

/// Runs one workload traced for a one-second budget and returns its
/// result line.
fn traced_run(workload: &str) -> JsonValue {
    let scratch = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(workload);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .current_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/.."))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1"])
        .args(["--fleet-rate", "140", "--scratch"])
        .arg(&scratch)
        .output()
        .expect("the benchmark binary runs");
    assert!(out.status.success(), "{workload}: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = JsonValue::parse(last).expect("the result line is JSON");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)), "{workload}: {last}");
    result
}

fn metric(result: &JsonValue, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("metric {name} is printed"))
}

#[test]
fn city_stream_stays_on_the_chain_fast_path() {
    let r = traced_run("city-stream");
    assert_eq!(metric(&r, "engine.desync_rebuilds"), 0.0);
    assert!(metric(&r, "engine.chain_fast") > 0.0);
    assert!(metric(&r, "sim.events_popped") > 0.0);
    assert!(metric(&r, "region.epochs") > 0.0);
    assert!(metric(&r, "persist.checkpoint_bytes") > 0.0);
}

#[test]
fn fleet_steady_evicts_and_runs_no_simulator() {
    let r = traced_run("fleet-steady");
    assert!(metric(&r, "engine.desync_rebuilds") > 0.0);
    assert_eq!(metric(&r, "sim.events_popped"), 0.0);
    assert_eq!(metric(&r, "netsim.packets"), 0.0);
    assert!(metric(&r, "fleet.snapshot_bytes") > 0.0);
}

#[test]
fn lab_sweep_writes_no_streaming_checkpoint() {
    let r = traced_run("lab-sweep");
    assert_eq!(metric(&r, "persist.checkpoint_bytes"), 0.0);
    assert_eq!(metric(&r, "region.epochs"), 0.0);
    assert!(metric(&r, "sim.events_popped") > 0.0);
    assert_eq!(metric(&r, "journal.rows"), 12.0);
}
