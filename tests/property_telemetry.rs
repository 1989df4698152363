//! Telemetry is observationally free: the `wsn-obs` instrumentation woven
//! through the simulator, the detectors and the streaming driver must never
//! change what an experiment computes — only record it.
//!
//! The suite compiles and passes in both feature modes. With the default
//! features the instrumentation is compiled out (`wsn_obs::compiled()` is
//! false) and the paired runs compare two identical uninstrumented
//! executions; with `--features telemetry` the same 256 seeded cases prove
//! bit-identical stats/accuracy/labels between collection on and off, the
//! merged span report is shown to be deterministic across the partitioned
//! backend's worker pool, and the steady-state regression gate on the
//! fixed-point engine's desync rebuilds becomes live.
//!
//! Telemetry state is process-global, so every test serialises on one lock
//! before toggling or reading it.

use std::sync::Mutex;

use in_network_outlier::detection::experiment::{
    run_experiment, AlgorithmConfig, ExperimentConfig, RankingChoice,
};
use in_network_outlier::prelude::*;
use wsn_data::synth::SyntheticTraceConfig;
use wsn_netsim::region::SimBackend;

/// Serialises the tests of this binary: the metric registry, the span sinks
/// and the enabled flag are process-wide.
static TELEMETRY_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TELEMETRY_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The seeded experiment space: algorithm × loss × missing-data × size ×
/// seeds, the same axes the partitioned-backend equality suite sweeps.
fn base_configs() -> Vec<ExperimentConfig> {
    let mut configs = Vec::new();
    for &algorithm in &[
        AlgorithmConfig::Global { ranking: RankingChoice::Nn },
        AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 },
    ] {
        for &loss in &[LossModel::Reliable, LossModel::bernoulli(0.1)] {
            for &missing in &[0.0, 0.05] {
                for &sensor_count in &[9, 16] {
                    for &(trace_seed, sim_seed) in &[(7, 1), (11, 2), (13, 3), (17, 5)] {
                        let mut config = ExperimentConfig::small().with_algorithm(algorithm);
                        config.loss = loss;
                        config.trace.missing_probability = missing;
                        config.sensor_count = sensor_count;
                        config.trace_seed = trace_seed;
                        config.sim_seed = sim_seed;
                        configs.push(config);
                    }
                }
            }
        }
    }
    configs
}

/// Satellite of the zero-cost contract, as a 256-run seeded property: every
/// configuration executed once with collection off and once with collection
/// on must produce bit-identical stats, accuracy grades and label reports.
/// Floats are compared with `==` deliberately — telemetry that perturbed any
/// accumulation would show up here.
#[test]
fn telemetry_on_and_off_runs_are_bit_identical_across_256_cases() {
    let _guard = lock();
    let mut runs = 0usize;
    for base in base_configs() {
        for backend in [SimBackend::Sequential, SimBackend::Partitioned { regions: 4 }] {
            let config = base.clone().with_backend(backend);

            wsn_obs::set_enabled(false);
            let off = run_experiment(&config).expect("uninstrumented run succeeds");
            runs += 1;

            wsn_obs::reset();
            wsn_obs::set_enabled(true);
            let on = run_experiment(&config).expect("instrumented run succeeds");
            wsn_obs::set_enabled(false);
            runs += 1;

            let ctx = format!(
                "{} loss={:?} missing={} sensors={} trace_seed={} sim_seed={} backend={backend:?}",
                off.label,
                base.loss,
                base.trace.missing_probability,
                base.sensor_count,
                base.trace_seed,
                base.sim_seed,
            );
            assert_eq!(off.stats, on.stats, "stats diverged: {ctx}");
            assert_eq!(off.accuracy, on.accuracy, "accuracy diverged: {ctx}");
            assert_eq!(off.labels, on.labels, "labels diverged: {ctx}");
            assert_eq!(
                off.all_estimates_agree, on.all_estimates_agree,
                "agreement diverged: {ctx}"
            );
            assert_eq!(off.quiescent, on.quiescent, "quiescence diverged: {ctx}");
            assert_eq!(
                off.data_points_sent, on.data_points_sent,
                "protocol traffic diverged: {ctx}"
            );
        }
    }
    assert_eq!(runs, 256, "the sweep is meant to cover exactly 256 runs");
}

/// A steady-state streaming run — the window is wider than the whole trace,
/// so nothing is ever evicted — and the regression gate it feeds: the
/// incremental fixed point must perform **zero** desync rebuilds when the
/// sync chain never breaks by eviction. A regression that re-introduced
/// full rebuilds on the hot path would trip this before it tripped a
/// benchmark.
#[test]
fn steady_state_streaming_performs_zero_desync_rebuilds() {
    let _guard = lock();
    let config = ExperimentConfig {
        sensor_count: 12,
        trace: SyntheticTraceConfig { rounds: 4, ..Default::default() },
        window_samples: 10, // > rounds: no sample ever leaves the window
        n: 4,
        transmission_range_m: 18.0,
        ..Default::default()
    }
    .with_algorithm(AlgorithmConfig::Global { ranking: RankingChoice::Nn });

    wsn_obs::reset();
    wsn_obs::set_enabled(true);
    let outcome = StreamingExperiment::new(config).run().expect("streaming run succeeds");
    wsn_obs::set_enabled(false);
    assert_eq!(outcome.slides.len(), 4, "all four slides must be observed");

    if wsn_obs::compiled() {
        let report = wsn_obs::report();
        assert!(
            report.counter("engine.calls") > 0,
            "the gate is vacuous unless the fixed-point engine actually ran"
        );
        assert_eq!(
            report.counter("engine.desync_rebuilds"),
            0,
            "steady-state streaming (no evictions) must never desync-rebuild; \
             report: {:?}",
            report.counters,
        );
    }
}

/// The same gate for the semi-global detector at `d = 1`, where every
/// neighbour's outgoing set is the hop-0 sufficient set `SS(P_i^{≤0}, ∅)`:
/// that set depends on the node's own samples alone, so it is computed
/// once per own-data change — at most one engine call per sensor per
/// sampling round, and never a rebuild. The `d = 2` run's re-scan and
/// rebuild counters are printed, not gated: its hop-1 engine still runs
/// one chain per neighbour.
#[test]
fn semiglobal_streaming_computes_hop_zero_once_per_sample_without_rebuilds() {
    let _guard = lock();
    const SENSORS: usize = 12;
    const ROUNDS: usize = 4;
    for hop_diameter in [1, 2] {
        let config = ExperimentConfig {
            sensor_count: SENSORS,
            trace: SyntheticTraceConfig { rounds: ROUNDS, ..Default::default() },
            window_samples: 10, // > rounds: no sample ever leaves the window
            n: 4,
            transmission_range_m: 18.0,
            ..Default::default()
        }
        .with_algorithm(AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter });

        wsn_obs::reset();
        wsn_obs::set_enabled(true);
        let outcome = StreamingExperiment::new(config).run().expect("streaming run succeeds");
        wsn_obs::set_enabled(false);
        assert_eq!(outcome.slides.len(), ROUNDS, "every slide must be observed");

        if !wsn_obs::compiled() {
            continue;
        }
        let report = wsn_obs::report();
        let (calls, rebuilds) =
            (report.counter("engine.calls"), report.counter("engine.desync_rebuilds"));
        if hop_diameter == 2 {
            println!(
                "semi-global d = 2: engine.calls {calls}, desync_rebuilds {rebuilds}, \
                 desync_rescans_unrecorded {}, desync_rescans_revision_gap {}, chain_fast {}",
                report.counter("engine.desync_rescans_unrecorded"),
                report.counter("engine.desync_rescans_revision_gap"),
                report.counter("engine.chain_fast"),
            );
            continue;
        }
        assert!(calls > 0, "the gate is vacuous unless the fixed-point engine actually ran");
        assert!(
            calls <= (SENSORS * ROUNDS) as u64,
            "{calls} engine calls for {SENSORS} sensors × {ROUNDS} rounds of own samples"
        );
        assert_eq!(rebuilds, 0, "d = 1 must never desync-rebuild; report: {:?}", report.counters);
    }
}

/// The fault-model counters: a churned, duty-cycled run must stay
/// bit-identical between collection on and off (the zero-cost contract
/// extends to the fault layer), and when telemetry is compiled in, the
/// counters must report exactly the plan's churn — every scheduled death and
/// join counted once — plus live evidence of duty-cycle sleep drops and
/// stale-neighbour pruning.
#[test]
fn fault_counters_report_the_plan_and_stay_observationally_free() {
    use wsn_netsim::fault::FaultAction;
    use wsn_workload::FaultProfile;

    let _guard = lock();
    let profile =
        FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: Some((2.0, 0.75)) };
    let mut config = ExperimentConfig::small()
        .with_algorithm(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
    config.sensor_count = 12;
    config.trace.rounds = 8;
    let deployment = wsn_data::lab::LabDeployment::with_sensor_count(
        config.sensor_count,
        config.deployment_seed,
    )
    .expect("deployment builds");
    let plan = profile.instantiate(
        deployment.sensors(),
        config.trace.sample_interval_secs,
        config.trace.rounds,
        3,
    );
    let deaths =
        plan.events().iter().filter(|e| matches!(e.action, FaultAction::Death(_))).count() as u64;
    let joins =
        plan.events().iter().filter(|e| matches!(e.action, FaultAction::Join { .. })).count()
            as u64;
    assert!(deaths > 0 && joins > 0, "the profile must schedule real churn");
    let timeout = 2.0 * config.trace.sample_interval_secs;
    let config = config.with_fault_plan(plan).with_liveness_timeout(timeout);

    wsn_obs::set_enabled(false);
    let off = run_experiment(&config).expect("uninstrumented faulted run succeeds");

    wsn_obs::reset();
    wsn_obs::set_enabled(true);
    let on = run_experiment(&config).expect("instrumented faulted run succeeds");
    wsn_obs::set_enabled(false);

    assert_eq!(off.stats, on.stats, "stats diverged under faults");
    assert_eq!(off.accuracy, on.accuracy, "accuracy diverged under faults");
    assert_eq!(off.labels, on.labels, "labels diverged under faults");
    assert_eq!(off.quiescent, on.quiescent, "quiescence diverged under faults");

    if wsn_obs::compiled() {
        let report = wsn_obs::report();
        assert_eq!(report.counter("sim.node_deaths"), deaths, "every scheduled death counted");
        assert_eq!(report.counter("sim.node_joins"), joins, "every scheduled join counted");
        assert_eq!(
            report.counter("sim.dropped_asleep"),
            on.stats.total_packets_dropped_asleep(),
            "the counter and the per-node statistics must agree on sleep drops"
        );
        assert!(
            report.counter("sim.dropped_asleep") > 0,
            "a 75%-awake network must have slept through some receptions"
        );
        assert!(
            report.counter("detector.stale_neighbors_pruned") > 0,
            "dead neighbours must age out through the liveness timeout; report: {:?}",
            report.counters,
        );
    }
}

/// The crash-safety layer under the zero-cost contract: checkpointing a
/// streaming run changes nothing about what it computes, telemetry
/// collection changes nothing about a checkpointed run, a resume from the
/// checkpoints reproduces the uninterrupted outcome bit for bit — and when
/// telemetry is compiled in, the `persist.*` counters and the
/// `slide/checkpoint` span report exactly the persistence work performed.
#[test]
fn checkpointing_is_observationally_free_and_counted() {
    let _guard = lock();
    let mut config = ExperimentConfig::small()
        .with_algorithm(AlgorithmConfig::Global { ranking: RankingChoice::Nn });
    config.trace.rounds = 6;
    let dir_off = std::env::temp_dir().join(format!("wsn-tel-ckpt-off-{}", std::process::id()));
    let dir_on = std::env::temp_dir().join(format!("wsn-tel-ckpt-on-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir_off);
    let _ = std::fs::remove_dir_all(&dir_on);

    wsn_obs::set_enabled(false);
    let plain = StreamingExperiment::new(config.clone()).run().expect("plain run succeeds");
    let off = StreamingExperiment::new(config.clone())
        .checkpoint_every_slides(2, &dir_off)
        .run()
        .expect("checkpointed uninstrumented run succeeds");

    wsn_obs::reset();
    wsn_obs::set_enabled(true);
    let on = StreamingExperiment::new(config.clone())
        .checkpoint_every_slides(2, &dir_on)
        .run()
        .expect("checkpointed instrumented run succeeds");
    let resumed = StreamingExperiment::new(config.clone())
        .resume_from(&dir_on)
        .run()
        .expect("instrumented resume succeeds");
    wsn_obs::set_enabled(false);

    assert_eq!(plain, off, "checkpointing must not change what the run computes");
    assert_eq!(off, on, "telemetry must not change what a checkpointed run computes");
    assert_eq!(resumed, plain, "a resumed run must reproduce the uninterrupted outcome");

    if wsn_obs::compiled() {
        let report = wsn_obs::report();
        assert_eq!(
            report.counter("persist.snapshots_written"),
            3,
            "6 slides at every=2 must write exactly 3 checkpoints; report: {:?}",
            report.counters,
        );
        assert!(
            report.counter("persist.snapshot_bytes") > 0,
            "written checkpoints must account their bytes"
        );
        let checkpoint_span =
            report.span("slide/checkpoint").expect("the checkpoint span must nest under slide");
        assert_eq!(checkpoint_span.count, 3, "one checkpoint span per checkpoint written");
        assert!(report.span("resume").is_some(), "the resume fast-forward must be spanned");
    }

    std::fs::remove_dir_all(&dir_off).expect("off-run checkpoint dir exists");
    std::fs::remove_dir_all(&dir_on).expect("on-run checkpoint dir exists");
}

/// The merged span report is deterministic: two identical instrumented runs
/// on the partitioned backend (which drains per-thread span buffers from
/// the worker pool) must agree on every counter value, every span path and
/// count, and every value-distribution histogram. Only wall-clock-valued
/// fields (span timings, `*_ns` histograms) may differ between runs.
#[test]
fn merged_span_reports_are_deterministic_across_the_worker_pool() {
    let _guard = lock();
    let mut config = ExperimentConfig::small()
        .with_algorithm(AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 1 })
        .with_backend(SimBackend::Partitioned { regions: 4 });
    config.sensor_count = 16;
    let experiment = StreamingExperiment::new(config);

    let observe = || {
        wsn_obs::reset();
        wsn_obs::set_enabled(true);
        experiment.run().expect("instrumented streaming run succeeds");
        wsn_obs::set_enabled(false);
        wsn_obs::report()
    };
    let first = observe();
    let second = observe();

    assert_eq!(first.counters, second.counters, "counter values must be deterministic");
    assert_eq!(first.gauges, second.gauges, "gauge values must be deterministic");

    let structure = |r: &wsn_obs::TelemetryReport| -> Vec<(String, u64)> {
        r.spans.iter().map(|s| (s.path.clone(), s.count)).collect()
    };
    assert_eq!(
        structure(&first),
        structure(&second),
        "span paths and counts must be deterministic"
    );

    // Histograms of *values* (queue depths, batch sizes, wire bytes) are
    // deterministic; histograms of *durations* are not and are skipped.
    let value_histograms = |r: &wsn_obs::TelemetryReport| {
        r.histograms.iter().filter(|h| !h.name.ends_with("_ns")).cloned().collect::<Vec<_>>()
    };
    assert_eq!(
        value_histograms(&first),
        value_histograms(&second),
        "value-distribution histograms must be deterministic"
    );

    if wsn_obs::compiled() {
        assert!(!first.counters.is_empty(), "an instrumented run must record counters");
        assert!(!first.spans.is_empty(), "an instrumented streaming run must record spans");
    }
}
