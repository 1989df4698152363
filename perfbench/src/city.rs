//! `city-stream`: the simulator's heaviest path. A 2 000-sensor city
//! streams six sampling rounds of Semi-global NN (ε = 1, `w = 10`, `n = 4`)
//! on two partitioned regions, loss-free, checkpointing every 3 slides.
//! Six rounds never fill a 10-sample window, so no point is ever evicted
//! and the fleet does no work. The fixed-point engine was expected to stay
//! on its chain-fast path here; the traced counters show it does not (it
//! rebuilds on neighbour updates), and `tests/regimes.rs` keeps that
//! expectation as a failing check.

use std::path::Path;
use std::time::Instant;

use wsn_core::experiment::{AlgorithmConfig, ExperimentConfig, RankingChoice};
use wsn_core::streaming::{StreamingExperiment, StreamingOutcome};
use wsn_core::CoreError;
use wsn_data::lab::LabDeployment;
use wsn_data::stream::DeploymentTrace;
use wsn_data::synth::SyntheticTraceConfig;
use wsn_netsim::region::SimBackend;

use crate::measure::{median, telemetry_layers, Report};
use crate::Args;

const SENSORS: usize = 2_000;
const ROUNDS: usize = 6;
const REGIONS: usize = 2;
const CHECKPOINT_EVERY: usize = 3;
/// Deployment and trace generation take well under a millisecond. They are
/// repeated in blocks of this many, one before the warm-up run and one
/// before every timed run, so that their median spans the whole run: on a
/// shared machine their time swings by up to 1.7x between tenths of a
/// second.
const SETUP_BLOCK: usize = 300;
/// Streaming runs measured at least, whatever the budget.
const MIN_RUNS: usize = 3;

fn config(seed: u64, backend: SimBackend) -> ExperimentConfig {
    ExperimentConfig {
        sensor_count: SENSORS,
        deployment_seed: seed,
        trace_seed: seed,
        sim_seed: seed,
        window_samples: 10,
        n: 4,
        ..Default::default()
    }
    .with_algorithm(AlgorithmConfig::SemiGlobal { ranking: RankingChoice::Nn, hop_diameter: 1 })
    .with_backend(backend)
}

/// One streaming run, timed; checkpoints go to `checkpoints` when given.
fn stream(
    config: &ExperimentConfig,
    trace: &DeploymentTrace,
    checkpoints: Option<&Path>,
) -> (f64, Result<StreamingOutcome, CoreError>) {
    let mut experiment = StreamingExperiment::new(config.clone());
    if let Some(dir) = checkpoints {
        let _ = std::fs::remove_dir_all(dir);
        experiment = experiment.checkpoint_every_slides(CHECKPOINT_EVERY, dir);
    }
    let started = Instant::now();
    let outcome = experiment.run_on_trace(trace);
    (started.elapsed().as_secs_f64(), outcome)
}

/// Grades one run slide by slide: it must succeed with a quiescent tail and
/// one report per round, and every slide must equal the reference run's.
/// The first good run becomes the reference.
fn grade(
    report: &mut Report,
    reference: &mut Option<StreamingOutcome>,
    outcome: Result<StreamingOutcome, CoreError>,
) {
    let outcome = match outcome {
        Ok(o) if o.quiescent_tail && o.slides.len() == ROUNDS => o,
        Ok(o) => {
            eprintln!(
                "city-stream: run broke its contract (quiescent tail {}, {} of {ROUNDS} slides)",
                o.quiescent_tail,
                o.slides.len()
            );
            (0..ROUNDS).for_each(|_| report.op(false));
            return;
        }
        Err(e) => {
            eprintln!("city-stream: run failed: {e}");
            (0..ROUNDS).for_each(|_| report.op(false));
            return;
        }
    };
    let reference = reference.get_or_insert_with(|| outcome.clone());
    let whole_run_equal = outcome.final_stats == reference.final_stats
        && outcome.data_points_sent == reference.data_points_sent;
    for (slide, expected) in outcome.slides.iter().zip(&reference.slides) {
        report.op(whole_run_equal && slide == expected);
    }
}

/// Set-up times: deployment, trace generation, and the two together.
#[derive(Default)]
struct SetupTimes {
    deployment_s: Vec<f64>,
    trace_s: Vec<f64>,
    total_s: Vec<f64>,
}

/// One block of set-ups; returns the trace they all generate.
fn set_up(seed: u64, times: &mut SetupTimes) -> DeploymentTrace {
    let mut trace = None;
    for _ in 0..SETUP_BLOCK {
        let started = Instant::now();
        let deployment = LabDeployment::city(SENSORS, seed).expect("city deployment builds");
        let built = started.elapsed().as_secs_f64();
        let trace_config = SyntheticTraceConfig { rounds: ROUNDS, ..Default::default() };
        trace = Some(deployment.generate_trace(&trace_config, seed).expect("trace generates"));
        let total = started.elapsed().as_secs_f64();
        times.deployment_s.push(built);
        times.trace_s.push(total - built);
        times.total_s.push(total);
    }
    trace.expect("a block holds at least one set-up")
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();

    let mut setup = SetupTimes::default();
    let trace = set_up(args.seed, &mut setup);

    let partitioned = config(args.seed, SimBackend::Partitioned { regions: REGIONS });
    let checkpoints = args.scratch.join("city-checkpoints");
    let mut reference = None;
    let mut run_s = Vec::new();
    let started = Instant::now();
    // The first run warms the allocator and caches and is not timed; its
    // counters (one streaming run) repeat exactly for a seed.
    wsn_obs::reset();
    let (_, outcome) = stream(&partitioned, &trace, Some(&checkpoints));
    if args.traced {
        telemetry_layers(&mut report, &wsn_obs::report());
    }
    grade(&mut report, &mut reference, outcome);
    // Timed runs alternate with recoveries, so both see the same machine.
    // A recovery is a fresh run that resumes from the last checkpoint the
    // run before it wrote (slide 6), replays the simulation to it and
    // finishes; it must match the live run.
    let mut recovery_s = Vec::new();
    while run_s.len() < MIN_RUNS || started.elapsed() < args.budget {
        set_up(args.seed, &mut setup);
        let (secs, outcome) = stream(&partitioned, &trace, Some(&checkpoints));
        run_s.push(secs);
        grade(&mut report, &mut reference, outcome);
        let resumed = StreamingExperiment::new(partitioned.clone()).resume_from(&checkpoints);
        let resume_started = Instant::now();
        let outcome = resumed.run_on_trace(&trace);
        recovery_s.push(resume_started.elapsed().as_secs_f64());
        grade(&mut report, &mut reference, outcome);
    }
    report.e2e("recovery_s", median(&recovery_s));
    report.e2e("setup_s", median(&setup.total_s));
    report.layer("data.deployment_s", median(&setup.deployment_s));
    report.layer("data.trace_s", median(&setup.trace_s));

    let slides_per_run = (SENSORS * ROUNDS) as f64;
    let run_median = median(&run_s);
    report.e2e("sensor_slides_per_s", slides_per_run / run_median);
    report.layer("streaming.run_s", run_median);
    report.layer("loadgen.samples", run_s.len() as f64);
    if let Some(r) = &reference {
        report.e2e("tx_mj_per_node_slide", r.avg_tx_per_node_per_slide() * 1e3);
        report.e2e("points_per_node_slide", r.data_points_sent as f64 / slides_per_run);
        report.e2e("accuracy", r.mean_slide_accuracy());
        report.layer("netsim.packets", r.final_stats.total_packets_sent() as f64);
        report.layer("netsim.bytes", r.final_stats.total_bytes_sent() as f64);
    } else {
        for name in ["tx_mj_per_node_slide", "points_per_node_slide", "accuracy"] {
            report.e2e(name, 0.0);
        }
    }

    if args.traced {
        // Checkpoint cost: the same run with checkpoints off. Region
        // speed-up: that run against the sequential oracle backend. Both
        // must reproduce the reference run exactly.
        let (off_s, outcome) = stream(&partitioned, &trace, None);
        grade(&mut report, &mut reference, outcome);
        let sequential = config(args.seed, SimBackend::Sequential);
        let (seq_s, outcome) = stream(&sequential, &trace, None);
        grade(&mut report, &mut reference, outcome);
        report.layer("persist.checkpoint_s", run_median - off_s);
        report.layer("region.par_over_seq", off_s / seq_s);
    }
    println!(
        "city-stream: {} timed runs, median {:.1} ms (streaming.run_s includes the topology \
         and app build inside run_on_trace), recovery {:.1} ms",
        run_s.len(),
        run_median * 1e3,
        report.end_to_end["recovery_s"] * 1e3
    );
    report
}
