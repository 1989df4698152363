//! `lab-sweep`: the paper-reproduction path. The Figure 4/5 grid on the
//! 53-sensor lab (48 rounds): Centralized, Global-NN and Global-KNN at
//! `w ∈ {20, 40}`, each cell averaged over two consecutive archived seeds
//! (of 1–4) through `SweepJournal::run_averaged` into a fresh journal, the
//! two seeds of a cell in parallel on the pool. The batch `run_experiment`
//! path, the sequential simulator, the centralized sink, AODV routing and
//! KNN ranking do the work; no regions and no fleet run. Eviction is heavy
//! at `w = 20` and light at `w = 40`.
//!
//! Every row must equal, field for field, the row of the archived journal
//! `results/journal_fig4_fig5.jsonl` with the same `config_hash`. The
//! archive is only read.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use wsn_bench::journal::{JournalRow, SweepJournal};
use wsn_bench::json::JsonValue;
use wsn_bench::paper::{centralized, global_knn, global_nn, PAPER_N};
use wsn_bench::{AveragedOutcome, PaperScenario};
use wsn_core::experiment::{run_experiment, AlgorithmConfig, ExperimentConfig};
use wsn_core::persist::config_hash;

use crate::measure::{median, telemetry_layers, Report};
use crate::Args;

const ARCHIVE: &str = "results/journal_fig4_fig5.jsonl";
const WINDOWS: [u64; 2] = [20, 40];
const SEEDS_PER_CELL: u64 = 2;
/// Archived seeds run 1..=4; a cell runs `first..first + 2`.
const ARCHIVED_SEEDS: u64 = 4;
/// The archive pairs simulation seed `s` with trace seed `s + 6`.
const TRACE_SEED_OFFSET: u64 = 6;
/// Set-up takes well under a millisecond. It is repeated in blocks of this
/// many, one before the first sweep and one after every sweep, so that its
/// median spans the whole run: on a shared machine its time swings by up
/// to 1.7x between tenths of a second.
const SETUP_BLOCK: usize = 300;
const RECOVERIES_PER_SWEEP: usize = 3;

struct Cell {
    label: &'static str,
    w: u64,
    config: ExperimentConfig,
}

/// The grid for a workload seed. Each cell picks its own pair of seeds
/// from the workload seed and its position, so one sweep mixes the pairs
/// and its total cost depends little on which pairs were drawn.
fn cells(seed: u64) -> Vec<Cell> {
    let pairs = ARCHIVED_SEEDS - SEEDS_PER_CELL + 1;
    let series: [(&str, AlgorithmConfig); 3] =
        [("Centralized", centralized()), ("Global-NN", global_nn()), ("Global-KNN", global_knn())];
    let scenario = PaperScenario::Full;
    let mut cells = Vec::new();
    for (label, algorithm) in series {
        for w in WINDOWS {
            let first = 1 + (seed + cells.len() as u64) % pairs;
            let mut config = scenario.config(algorithm, w, PAPER_N);
            config.sim_seed = first;
            config.trace_seed = first + TRACE_SEED_OFFSET;
            cells.push(Cell { label, w, config });
        }
    }
    cells
}

/// The per-seed configurations of a cell, exactly as `run_averaged` runs
/// them.
fn seed_configs(cell: &Cell) -> Vec<ExperimentConfig> {
    (0..SEEDS_PER_CELL)
        .map(|s| {
            let mut c = cell.config.clone();
            c.sim_seed += s;
            c.trace_seed += s;
            c
        })
        .collect()
}

/// Reads the archive without opening it as a journal: it is never written.
fn read_archive(path: &Path) -> Result<BTreeMap<u64, JournalRow>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut rows = BTreeMap::new();
    for line in text.lines() {
        let value = JsonValue::parse(line).map_err(|e| format!("archive row: {e}"))?;
        let row = JournalRow::from_json(&value).map_err(|e| format!("archive row: {e}"))?;
        rows.insert(row.config_hash, row);
    }
    Ok(rows)
}

/// A fresh row matches its archived twin in every field but its position.
fn matches_archive(row: &JournalRow, archive: &BTreeMap<u64, JournalRow>) -> bool {
    archive.get(&row.config_hash).is_some_and(|a| {
        a.seed == row.seed
            && a.label == row.label
            && a.toolchain == row.toolchain
            && a.metrics == row.metrics
    })
}

/// One block of set-ups: read the archive, open a fresh journal, build the
/// grid. Returns the archive and the grid they all build.
fn set_up(args: &Args, setup_s: &mut Vec<f64>) -> (BTreeMap<u64, JournalRow>, Vec<Cell>) {
    let journal = args.scratch.join("setup.jsonl");
    let mut built = None;
    for _ in 0..SETUP_BLOCK {
        let _ = std::fs::remove_file(&journal);
        let started = Instant::now();
        let archive = read_archive(Path::new(ARCHIVE)).unwrap_or_else(|e| {
            eprintln!("lab-sweep: cannot read the archive: {e}");
            BTreeMap::new()
        });
        SweepJournal::open(&journal).expect("a fresh journal opens");
        let grid = cells(args.seed);
        setup_s.push(started.elapsed().as_secs_f64());
        built = Some((archive, grid));
    }
    built.expect("a block holds at least one set-up")
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();

    let mut setup_s = Vec::new();
    let (archive, grid) = set_up(args, &mut setup_s);

    // Recovery: resuming from a journal that lacks one cell (the grid's
    // first and cheapest). The other cells are read back, that one re-runs,
    // and the aggregates must equal the live ones bit for bit. It follows
    // every sweep, RECOVERIES_PER_SWEEP times, so that its samples spread
    // over the run like the sweeps' do.
    let lost: Vec<u64> = seed_configs(&grid[0]).iter().map(config_hash).collect();
    let mut sweep_s = Vec::new();
    let mut recovery_s = Vec::new();
    let mut live: Vec<Option<AveragedOutcome>> = Vec::new();
    let mut rows: Vec<JournalRow> = Vec::new();

    // A sweep with its recoveries takes seconds; another starts only if
    // at least half of it fits in the budget, so the run ends near it.
    let started = Instant::now();
    wsn_obs::reset();
    while sweep_s.is_empty()
        || started.elapsed().as_secs_f64() * (1.0 + 0.5 / sweep_s.len() as f64)
            < args.budget.as_secs_f64()
    {
        let journal_path = args.scratch.join(format!("sweep-{}.jsonl", sweep_s.len()));
        let sweep_started = Instant::now();
        let mut journal = SweepJournal::open(&journal_path).expect("a fresh journal opens");
        live.clear();
        for cell in &grid {
            let outcome = journal.run_averaged(&cell.config, SEEDS_PER_CELL);
            if let Err(e) = &outcome {
                eprintln!("lab-sweep: cell {} w={} failed: {e}", cell.label, cell.w);
            }
            live.push(outcome.ok());
        }
        sweep_s.push(sweep_started.elapsed().as_secs_f64());
        if sweep_s.len() == 1 && args.traced {
            // Counters over exactly one sweep repeat for a seed.
            telemetry_layers(&mut report, &wsn_obs::report());
        }
        rows = journal.rows().to_vec();
        for (cell, outcome) in grid.iter().zip(&live) {
            let hashes: Vec<u64> = seed_configs(cell).iter().map(config_hash).collect();
            let ok = outcome.is_some()
                && hashes.iter().all(|h| {
                    rows.iter().any(|r| r.config_hash == *h && matches_archive(r, &archive))
                });
            if !ok {
                eprintln!("lab-sweep: cell {} w={} differs from the archive", cell.label, cell.w);
            }
            report.op(ok);
        }

        let kept: String = rows
            .iter()
            .filter(|r| !lost.contains(&r.config_hash))
            .map(|r| r.to_json().to_compact_string() + "\n")
            .collect();
        let mut recovered = vec![true; grid.len()];
        for i in 0..RECOVERIES_PER_SWEEP {
            let path = args.scratch.join(format!("killed-{}-{i}.jsonl", sweep_s.len()));
            std::fs::write(&path, &kept).expect("the killed sweep's journal is written");
            let recovery_started = Instant::now();
            let mut journal =
                SweepJournal::open(&path).expect("the killed sweep's journal reopens");
            let again: Vec<Option<AveragedOutcome>> = grid
                .iter()
                .map(|cell| journal.run_averaged(&cell.config, SEEDS_PER_CELL).ok())
                .collect();
            recovery_s.push(recovery_started.elapsed().as_secs_f64());
            let journal_whole = journal.rows().len() == rows.len();
            for (ok, (a, b)) in recovered.iter_mut().zip(again.iter().zip(&live)) {
                *ok &= journal_whole && a.is_some() && a == b;
            }
        }
        recovered.into_iter().for_each(|ok| report.op(ok));
        set_up(args, &mut setup_s);
    }
    report.e2e("recovery_s", median(&recovery_s));
    report.e2e("setup_s", median(&setup_s));

    let sensor_rounds = (grid.len() as u64 * SEEDS_PER_CELL) as f64 * sensor_rounds_per_run();
    let sweep_median = median(&sweep_s);
    report.e2e("sensor_slides_per_s", sensor_rounds / sweep_median);
    report.layer("loadgen.samples", sweep_s.len() as f64);
    report.layer("journal.rows", rows.len() as f64);
    let per_row =
        |f: &dyn Fn(&JournalRow) -> f64| rows.iter().map(f).sum::<f64>() / rows.len().max(1) as f64;
    report.e2e("tx_mj_per_node_slide", per_row(&|r| r.metrics.tx_per_node_per_round * 1e3));
    report.e2e(
        "points_per_node_slide",
        per_row(&|r| r.metrics.data_points_sent as f64) / sensor_rounds_per_run(),
    );
    report.e2e("accuracy", per_row(&|r| r.metrics.accuracy));
    report.layer("netsim.packets", rows.iter().map(|r| r.metrics.packets_sent as f64).sum());

    if args.traced {
        // Each cell alone, its seeds one after the other: the cell's own
        // cost, and with the sweep's wall time the pool's speed-up.
        let mut total = 0.0;
        let mut bytes = 0u64;
        for cell in &grid {
            let cell_started = Instant::now();
            for config in seed_configs(cell) {
                match run_experiment(&config) {
                    Ok(outcome) => {
                        bytes += outcome.stats.total_bytes_sent();
                        let row =
                            JournalRow::of(0, config_hash(&config), config.sim_seed, &outcome);
                        report.op(matches_archive(&row, &archive));
                    }
                    Err(e) => {
                        eprintln!("lab-sweep: {} w={} alone failed: {e}", cell.label, cell.w);
                        report.op(false);
                    }
                }
            }
            let secs = cell_started.elapsed().as_secs_f64();
            total += secs;
            report.layer(&format!("sweep.cell_s.{}.w{}", cell.label, cell.w), secs);
        }
        report.layer("pool.speedup", total / sweep_median);
        report.layer("netsim.bytes", bytes as f64);
    }
    println!(
        "lab-sweep: {} sweeps, median {:.1} ms, {} rows, recovery {:.2} ms",
        sweep_s.len(),
        sweep_median * 1e3,
        rows.len(),
        report.end_to_end["recovery_s"] * 1e3
    );
    report
}

fn sensor_rounds_per_run() -> f64 {
    let scenario = PaperScenario::Full;
    (scenario.sensor_count() * scenario.rounds()) as f64
}
