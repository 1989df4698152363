//! The metric catalogue, the result line, and the small statistics the
//! workloads share.

use std::collections::BTreeMap;
use std::time::Duration;

use wsn_obs::TelemetryReport;

/// End-to-end metrics, printed by every untraced run (and, prefixed with
/// `traced.`, by every traced run). Every workload fills every one.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sensor_slides_per_s", "1/s"),
    ("recovery_s", "s"),
    ("tx_mj_per_node_slide", "mJ"),
    ("points_per_node_slide", "count"),
    ("accuracy", "fraction"),
    ("success_frac", "fraction"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload does
/// not run reads 0 there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("data.deployment_s", "s"),
    ("data.trace_s", "s"),
    ("streaming.run_s", "s"),
    ("region.par_over_seq", "ratio"),
    ("region.epochs", "count"),
    ("region.outbox_routed", "count"),
    ("netsim.packets", "count"),
    ("netsim.bytes", "bytes"),
    ("sim.events_popped", "count"),
    ("persist.checkpoint_s", "s"),
    ("persist.checkpoint_bytes", "bytes"),
    ("detector.points_broadcast", "count"),
    ("engine.calls", "count"),
    ("engine.chain_fast", "count"),
    ("engine.fast_ratio", "ratio"),
    ("engine.desync_rebuilds", "count"),
    ("engine.desync_rescans_unrecorded", "count"),
    ("engine.desync_rescans_revision_gap", "count"),
    ("fixed_point.total_ms", "ms"),
    ("ledger.quiet_hit_ratio", "ratio"),
    ("fleet.ingest_ms", "ms"),
    ("fleet.step_ms_p50", "ms"),
    ("fleet.step_ckpt_ms_p50", "ms"),
    ("fleet.snapshot_bytes", "bytes"),
    ("fleet.backlog_max", "count"),
    ("fleet.slide_latency_p50_ms", "ms"),
    ("fleet.slide_latency_p90_ms", "ms"),
    ("fleet.slide_latency_p99_ms", "ms"),
    ("fleet.unattributed_ms", "ms"),
    ("fleet.resume_ms", "ms"),
    ("fleet.replay_ms", "ms"),
    ("sweep.cell_s.Centralized.w20", "s"),
    ("sweep.cell_s.Centralized.w40", "s"),
    ("sweep.cell_s.Global-NN.w20", "s"),
    ("sweep.cell_s.Global-NN.w40", "s"),
    ("sweep.cell_s.Global-KNN.w20", "s"),
    ("sweep.cell_s.Global-KNN.w40", "s"),
    ("pool.speedup", "ratio"),
    ("journal.rows", "count"),
    ("loadgen.late_ms_p99", "ms"),
    ("loadgen.samples", "count"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: slides, cells or tenant-slides.
    pub attempted: u64,
    /// Operations that errored, were lost, or failed an exact check.
    pub failed: u64,
    /// End-to-end values by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by name; absent names print as 0.
    pub layers: BTreeMap<String, f64>,
}

impl Report {
    /// Records one operation and whether it passed its checks.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "unknown end-to-end metric {name}");
        self.end_to_end.insert(name, value);
    }

    pub fn layer(&mut self, name: &str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.layers.insert(name.to_string(), value);
    }

    /// Fills the metrics every workload derives the same way.
    pub fn finish(&mut self) {
        let success = 1.0 - self.failed as f64 / self.attempted.max(1) as f64;
        self.e2e("success_frac", success);
        self.e2e("peak_rss_mb", peak_rss_mb());
    }

    /// The result line: every end-to-end metric (untraced) or every
    /// per-layer metric plus the traced run's own end-to-end numbers.
    pub fn json_line(&self, traced: bool) -> String {
        let mut metrics: Vec<(String, f64, &str)> = Vec::new();
        let e2e = |name: &str| -> f64 {
            *self.end_to_end.get(name).unwrap_or_else(|| panic!("workload left {name} unset"))
        };
        if traced {
            for (name, unit) in PER_LAYER {
                metrics.push((
                    name.to_string(),
                    self.layers.get(name).copied().unwrap_or(0.0),
                    unit,
                ));
            }
            for (name, unit) in END_TO_END {
                metrics.push((format!("traced.{name}"), e2e(name), unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                metrics.push((name.to_string(), e2e(name), unit));
            }
        }
        let body: Vec<String> = metrics
            .iter()
            .map(|(name, value, unit)| {
                assert!(value.is_finite(), "metric {name} is not finite: {value}");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }
}

/// Per-layer names of the traced counter metrics, read the same way on
/// every workload: over one fixed unit of work, so they repeat exactly for
/// a given seed.
pub fn telemetry_layers(report: &mut Report, t: &TelemetryReport) {
    for name in [
        "engine.calls",
        "engine.chain_fast",
        "engine.desync_rebuilds",
        "engine.desync_rescans_unrecorded",
        "engine.desync_rescans_revision_gap",
        "detector.points_broadcast",
        "sim.events_popped",
        "region.epochs",
        "region.outbox_routed",
        "fleet.snapshot_bytes",
    ] {
        report.layer(name, t.counter(name) as f64);
    }
    report.layer("persist.checkpoint_bytes", t.counter("persist.snapshot_bytes") as f64);
    report.layer(
        "engine.fast_ratio",
        ratio(t.counter("engine.chain_fast"), t.counter("engine.calls")),
    );
    report.layer(
        "ledger.quiet_hit_ratio",
        ratio(t.counter("ledger.quiet_hits"), t.counter("ledger.quiet_queries")),
    );
    let fixed_point_ns: u64 = t
        .spans
        .iter()
        .filter(|s| s.path == "fixed_point" || s.path.ends_with("/fixed_point"))
        .map(|s| s.total_ns)
        .sum();
    report.layer("fixed_point.total_ms", fixed_point_ns as f64 / 1e6);
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The `q`-quantile (0..=1) of `values`, interpolating linearly between
/// order statistics.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn the_result_line_names_every_metric_of_its_mode() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.e2e(name, 1.5);
        }
        r.op(true);
        r.op(false);
        let plain = r.json_line(false);
        assert!(plain.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
        assert!(END_TO_END.iter().all(|(n, _)| plain.contains(&format!("\"{n}\": {{"))));
        let traced = r.json_line(true);
        assert!(PER_LAYER.iter().all(|(n, _)| traced.contains(&format!("\"{n}\": {{"))));
        assert!(traced.contains("\"traced.setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
    }

    #[test]
    fn benchmark_json_declares_the_metrics_the_binary_prints() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
        let doc = wsn_bench::json::JsonValue::parse(&text).expect("BENCHMARK.json parses");
        let declared = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        let mut per_layer = owned(&PER_LAYER);
        per_layer.extend(END_TO_END.iter().map(|(n, u)| (format!("traced.{n}"), u.to_string())));
        assert_eq!(declared("per_layer"), per_layer);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        assert!(peak_rss_mb() > 0.0);
    }
}
