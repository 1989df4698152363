//! Bit-for-bit equality of the partitioned and sequential simulation
//! backends, as a seeded 256-case property suite.
//!
//! The partitioned engine's whole claim (see `wsn_netsim::region`) is that
//! spatial parallelism is **observationally free**: every outcome — packet
//! counters, energy floats, detector estimates, accuracy grades, quiescence —
//! is identical to the sequential oracle's, not merely statistically close.
//! This suite sweeps the experiment space (algorithm × loss × missing-data ×
//! deployment size × trace/sim seeds) crossed with region counts {1, 2, 4, 9}
//! and asserts exact equality of the full outcome on every one of the 256
//! cases. Floats are compared with `==` deliberately: the determinism recipe
//! promises identical accumulation order, and a tolerance would let a real
//! ordering bug hide inside it.

use in_network_outlier::detection::experiment::{
    run_experiment, AlgorithmConfig, ExperimentConfig, RankingChoice,
};
use in_network_outlier::prelude::*;
use wsn_netsim::region::SimBackend;

/// The region counts each base configuration is replayed under. One region
/// exercises the partitioned coordinator with zero parallelism (the epoch
/// loop must be harmless); nine on a 9-sensor deployment exercises the
/// region-count cap.
const REGION_COUNTS: [usize; 4] = [1, 2, 4, 9];

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

#[test]
fn partitioned_experiments_match_sequential_bit_for_bit_across_256_cases() {
    let mut cases = 0usize;
    for base in base_configs() {
        let sequential = run_experiment(&base).expect("sequential run succeeds");
        for regions in REGION_COUNTS {
            let partitioned =
                run_experiment(&base.clone().with_backend(SimBackend::Partitioned { regions }))
                    .expect("partitioned run succeeds");
            cases += 1;
            let ctx = format!(
                "case {cases}: {} loss={:?} missing={} sensors={} trace_seed={} sim_seed={} regions={regions}",
                sequential.label,
                base.loss,
                base.trace.missing_probability,
                base.sensor_count,
                base.trace_seed,
                base.sim_seed,
            );
            // Exact equality of every observable, floats included.
            assert_eq!(sequential.stats, partitioned.stats, "stats diverged: {ctx}");
            assert_eq!(sequential.accuracy, partitioned.accuracy, "accuracy diverged: {ctx}");
            assert_eq!(sequential.labels, partitioned.labels, "labels diverged: {ctx}");
            assert_eq!(
                sequential.all_estimates_agree, partitioned.all_estimates_agree,
                "agreement diverged: {ctx}"
            );
            assert_eq!(sequential.quiescent, partitioned.quiescent, "quiescence diverged: {ctx}");
            assert_eq!(
                sequential.data_points_sent, partitioned.data_points_sent,
                "protocol traffic diverged: {ctx}"
            );
        }
    }
    assert_eq!(cases, 256, "the sweep is meant to cover exactly 256 cases");
}

/// The streaming driver's slide boundary — collect, hop-scoped grading and
/// checkpoint digests — fans out over the partitioned engine's regions.
/// This is its oracle: a seeded grid of streaming runs where
/// `Partitioned { regions: 2 }` must equal `Sequential` slide for slide
/// (every `SlideReport`, the final statistics, the protocol traffic and the
/// convergence latency), with checkpoints off and on. With checkpoints on,
/// both backends must also write the same node digests and report state.
/// Algorithms: Global-NN, Semi-global NN at d ∈ {1, 2}, and Centralized;
/// fault plan off and on (the centralized baseline takes no fault plan, so
/// it runs fault-free only). 7 variants × 2 checkpoint modes × 4 seeds = 56
/// cases.
#[test]
fn streaming_partitioned_matches_sequential_slide_for_slide() {
    use in_network_outlier::detection::persist::{read_verified, JsonValue};
    use in_network_outlier::workload::FaultProfile;
    use wsn_data::lab::LabDeployment;
    use wsn_netsim::region::Partition;

    const SENSORS: usize = 16;
    // At the default small-config range of 20 m this deployment fits one
    // radio-range tile, and the partitioned engine would run one region.
    const RANGE_M: f64 = 15.0;
    let partitioned = SimBackend::Partitioned { regions: 2 };
    let deployment = LabDeployment::with_sensor_count(SENSORS, 0).expect("deployment builds");
    let topology = Topology::from_specs(deployment.sensors(), RANGE_M);
    assert_eq!(
        Partition::grid(&topology, 2).region_count(),
        2,
        "the deployment must really split, or the fan-out is never exercised"
    );
    let profile = FaultProfile { death_fraction: 0.25, rejoin_fraction: 0.5, duty_cycle: None };
    let algorithms = [
        AlgorithmConfig::Global { ranking: RankingChoice::Nn },
        AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 1 },
        AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 2 },
        AlgorithmConfig::Centralized { ranking: RankingChoice::Nn },
    ];
    let scratch = |tag: &str| {
        let dir = std::env::temp_dir()
            .join(format!("wsn-prop-stream-backends-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    };
    // A checkpoint's payload minus its configuration hash (which names the
    // backend, and so differs by design).
    let checkpoint_state = |dir: &std::path::Path| {
        let (_, payload) = read_verified(&dir.join("checkpoint.json")).expect("checkpoint reads");
        match payload {
            JsonValue::Object(pairs) => {
                pairs.into_iter().filter(|(key, _)| key != "config_hash").collect::<Vec<_>>()
            }
            other => panic!("checkpoint payload is not an object: {other:?}"),
        }
    };
    let mut cases = 0usize;
    for algorithm in algorithms {
        let fault_modes: &[bool] = if matches!(algorithm, AlgorithmConfig::Centralized { .. }) {
            &[false]
        } else {
            &[false, true]
        };
        for &faults in fault_modes {
            for checkpoints in [false, true] {
                for (trace_seed, sim_seed) in [(7, 1), (11, 2), (13, 3), (17, 5)] {
                    let mut config = ExperimentConfig::small().with_algorithm(algorithm);
                    config.sensor_count = SENSORS;
                    config.transmission_range_m = RANGE_M;
                    config.loss = LossModel::bernoulli(0.1);
                    config.trace.anomalies.spike_probability = 0.08;
                    config.trace_seed = trace_seed;
                    config.sim_seed = sim_seed;
                    if faults {
                        let plan = profile.instantiate(
                            deployment.sensors(),
                            config.trace.sample_interval_secs,
                            config.trace.rounds,
                            sim_seed,
                        );
                        let timeout = 2.0 * config.trace.sample_interval_secs;
                        config = config.with_fault_plan(plan).with_liveness_timeout(timeout);
                    }
                    let ctx = format!(
                        "case {cases}: {algorithm:?} faults={faults} checkpoints={checkpoints} \
                         trace_seed={trace_seed} sim_seed={sim_seed}"
                    );
                    let dirs = [scratch("seq"), scratch("par")];
                    let [sequential, partitioned] = [SimBackend::Sequential, partitioned]
                        .map(|backend| config.clone().with_backend(backend))
                        .iter()
                        .zip(&dirs)
                        .map(|(config, dir)| {
                            let mut experiment = StreamingExperiment::new(config.clone());
                            if checkpoints {
                                experiment = experiment.checkpoint_every_slides(2, dir);
                            }
                            experiment.run().unwrap_or_else(|e| panic!("run failed: {e}\n{ctx}"))
                        })
                        .collect::<Vec<_>>()
                        .try_into()
                        .expect("two backends");
                    assert_eq!(sequential.slides.len(), config.trace.rounds, "{ctx}");
                    for (seq, par) in sequential.slides.iter().zip(&partitioned.slides) {
                        assert_eq!(seq, par, "slide {} diverged: {ctx}", seq.slide);
                    }
                    assert_eq!(sequential.final_stats, partitioned.final_stats, "stats: {ctx}");
                    assert_eq!(
                        sequential.data_points_sent, partitioned.data_points_sent,
                        "protocol traffic diverged: {ctx}"
                    );
                    assert_eq!(
                        sequential.convergence_latency_slides,
                        partitioned.convergence_latency_slides,
                        "convergence latency diverged: {ctx}"
                    );
                    assert_eq!(sequential, partitioned, "outcome diverged: {ctx}");
                    if checkpoints {
                        assert_eq!(
                            checkpoint_state(&dirs[0]),
                            checkpoint_state(&dirs[1]),
                            "checkpoint digests or report state diverged: {ctx}"
                        );
                    }
                    for dir in &dirs {
                        let _ = std::fs::remove_dir_all(dir);
                    }
                    cases += 1;
                }
            }
        }
    }
    assert_eq!(cases, 56, "the streaming grid is meant to cover exactly 56 cases");
}
