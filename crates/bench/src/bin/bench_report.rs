//! Perf-trajectory harness for the parallel execution layer: times the
//! reduced 84-cell sim-smoke grid (7 algorithms × 4 workload families ×
//! 3 tree sizes) serial vs. parallel — median of `--runs` timed runs each —
//! verifies the two modes produce byte-identical results, and adds a
//! **shard-scaling section**: the sharded serving engine at S = 1/2/4/8
//! shards, 1 thread vs. all threads, requests/sec with the per-shard
//! fingerprint oracle checked against the serial run. The data point is
//! written as JSON.
//!
//! ```text
//! bench-report [--requests N] [--runs K] [--threads N|auto|serial] [--out PATH]
//! ```
//!
//! The committed `BENCH_PR*.json` files at the repository root are the data
//! points of this trajectory; rerun on any machine with
//! `cargo run --release -p satn-bench --bin bench-report`.

use satn_core::AlgorithmKind;
use satn_exec::Parallelism;
use satn_serve::{EngineReport, ReshardPolicy, ReshardSchedule, ShardedEngineConfig};
use satn_sim::{Checkpoints, ScenarioGrid, ScenarioResult, SimRunner};
use satn_sim::{Scenario, ShardRouter, ShardedScenario, WorkloadSpec};
use satn_tree::ElementId;
use std::process::ExitCode;
use std::time::Instant;

fn usage() -> ExitCode {
    eprintln!(
        "usage: bench-report [--requests N] [--runs K] [--threads N|auto|serial] [--out PATH]"
    );
    ExitCode::FAILURE
}

fn median_ms(samples: &mut [f64]) -> f64 {
    samples.sort_by(|a, b| a.total_cmp(b));
    let mid = samples.len() / 2;
    if samples.len() % 2 == 1 {
        samples[mid]
    } else {
        (samples[mid - 1] + samples[mid]) / 2.0
    }
}

fn time_grid(
    runner: &SimRunner,
    grid: &ScenarioGrid,
    runs: usize,
) -> (Vec<f64>, Vec<(Scenario, ScenarioResult)>) {
    let mut samples = Vec::with_capacity(runs);
    let mut last = Vec::new();
    for _ in 0..runs {
        let started = Instant::now();
        last = runner.run_grid(grid, false).unwrap_or_else(|failure| {
            panic!("scenario {} failed: {}", failure.0.name(), failure.1)
        });
        samples.push(started.elapsed().as_secs_f64() * 1_000.0);
    }
    (samples, last)
}

fn json_array(samples: &[f64]) -> String {
    let entries: Vec<String> = samples.iter().map(|ms| format!("{ms:.3}")).collect();
    format!("[{}]", entries.join(", "))
}

/// Times one sharded engine run over a pre-materialized request buffer;
/// returns the wall-clock milliseconds and the final report.
fn time_sharded(
    scenario: &ShardedScenario,
    requests: &[ElementId],
    parallelism: Parallelism,
) -> (f64, EngineReport) {
    let mut engine = ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .drain_threshold(4_096)
        .build()
        .expect("shard construction cannot fail on a valid scenario");
    let started = Instant::now();
    engine
        .submit_burst(requests)
        .and_then(|()| engine.finish())
        .map(|report| (started.elapsed().as_secs_f64() * 1_000.0, report))
        .unwrap_or_else(|error| panic!("sharded run {} failed: {error}", scenario.name()))
}

/// The shard-scaling sweep: S = 1/2/4/8 shards, serial vs. `threads`
/// workers, median of `runs` timed runs each, with the fingerprint oracle
/// (parallel per-shard reports byte-identical to serial). Returns the JSON
/// fragment, or `None` if the oracle fails.
fn shard_scaling_json(
    requests_per_run: usize,
    runs: usize,
    parallelism: Parallelism,
) -> Option<String> {
    let mut sections = Vec::new();
    for shards in [1u32, 2, 4, 8] {
        let scenario = ShardedScenario::new(
            AlgorithmKind::RotorPush,
            WorkloadSpec::Combined { a: 1.9, p: 0.75 },
            shards,
            8,
            requests_per_run,
            2022,
        );
        let requests: Vec<ElementId> = scenario.stream().collect();

        let mut serial_ms = Vec::with_capacity(runs);
        let mut parallel_ms = Vec::with_capacity(runs);
        let (_, serial_reference) = time_sharded(&scenario, &requests, Parallelism::Serial);
        for _ in 0..runs {
            let (elapsed, report) = time_sharded(&scenario, &requests, Parallelism::Serial);
            if report != serial_reference {
                eprintln!("FATAL: serial sharded replay diverged at S={shards}");
                return None;
            }
            serial_ms.push(elapsed);
            let (elapsed, report) = time_sharded(&scenario, &requests, parallelism);
            if report != serial_reference {
                eprintln!("FATAL: parallel sharded run diverged from serial at S={shards}");
                return None;
            }
            parallel_ms.push(elapsed);
        }
        let serial_median = median_ms(&mut serial_ms);
        let parallel_median = median_ms(&mut parallel_ms);
        let serial_rps = requests_per_run as f64 / (serial_median / 1_000.0);
        let parallel_rps = requests_per_run as f64 / (parallel_median / 1_000.0);
        println!(
            "# shards {shards}: serial {serial_median:.1} ms ({serial_rps:.0} req/s) | parallel {parallel_median:.1} ms ({parallel_rps:.0} req/s) | oracle ok"
        );
        sections.push(format!(
            "    {{ \"shards\": {shards}, \"router\": \"{}\", \"serial_median_ms\": {serial_median:.3}, \"parallel_median_ms\": {parallel_median:.3}, \"serial_requests_per_s\": {serial_rps:.0}, \"parallel_requests_per_s\": {parallel_rps:.0}, \"speedup\": {:.3}, \"deterministic\": true }}",
            ShardRouter::Hash,
            serial_median / parallel_median,
        ));
    }
    Some(format!("[\n{}\n  ]", sections.join(",\n")))
}

/// The largest per-shard share of the served requests: 1/S is perfectly
/// balanced, 1.0 is a single hot shard taking everything.
fn max_shard_share(report: &EngineReport) -> f64 {
    let total = report.requests.max(1) as f64;
    report
        .per_shard
        .iter()
        .map(|shard| shard.summary.requests() as f64 / total)
        .fold(0.0, f64::max)
}

/// The resharding section: a shifting hot-shard stream (every phase hammers
/// one shard; the hot shard moves between phases) served by the static
/// engine vs. the policy-resharded engine. Reports req/s, the max-shard
/// load share, and the migration cost — all in one run — and checks the
/// epoch-segmented fingerprint oracle on the resharded engine. Returns the
/// JSON fragment, or `None` if an oracle fails.
fn reshard_section_json(
    requests_per_run: usize,
    runs: usize,
    parallelism: Parallelism,
) -> Option<String> {
    let shards = 4u32;
    let phases = 12usize;
    let every = (requests_per_run / 40).max(1);
    let static_scenario = ShardedScenario::hot_shard(
        AlgorithmKind::RotorPush,
        shards,
        8,
        requests_per_run,
        2022,
        phases,
        1.9,
    );
    let mut resharded_scenario = static_scenario.clone();
    resharded_scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
        every,
        max_moves: 64,
    });

    let requests: Vec<ElementId> = static_scenario.stream().collect();
    let mut static_ms = Vec::with_capacity(runs);
    let mut resharded_ms = Vec::with_capacity(runs);
    let (_, static_reference) = time_sharded(&static_scenario, &requests, Parallelism::Serial);
    let (_, resharded_reference) =
        time_sharded(&resharded_scenario, &requests, Parallelism::Serial);
    for _ in 0..runs {
        let (elapsed, report) = time_sharded(&static_scenario, &requests, parallelism);
        if report != static_reference {
            eprintln!("FATAL: static hot-shard run diverged from its serial reference");
            return None;
        }
        static_ms.push(elapsed);
        let (elapsed, report) = time_sharded(&resharded_scenario, &requests, parallelism);
        if report != resharded_reference {
            eprintln!("FATAL: resharded run diverged from its serial reference");
            return None;
        }
        resharded_ms.push(elapsed);
    }

    // The epoch-segmented replay oracle: boundary fingerprints + ledger.
    let replay = resharded_scenario
        .epoch_replay(&SimRunner::new())
        .expect("the reference replay cannot fail on a valid scenario");
    if resharded_reference.accounting != replay.accounting
        || resharded_reference.boundaries != replay.boundaries
        || (0..replay.epochs()).any(|epoch| {
            (0..shards).any(|shard| {
                resharded_reference.epoch_fingerprints[epoch as usize][shard as usize]
                    != replay.fingerprint(epoch, shard)
            })
        })
    {
        eprintln!("FATAL: resharded engine diverged from the epoch-segmented replay");
        return None;
    }

    let static_median = median_ms(&mut static_ms);
    let resharded_median = median_ms(&mut resharded_ms);
    let static_rps = requests_per_run as f64 / (static_median / 1_000.0);
    let resharded_rps = requests_per_run as f64 / (resharded_median / 1_000.0);
    let static_share = max_shard_share(&static_reference);
    let resharded_share = max_shard_share(&resharded_reference);
    let migration = resharded_reference.migration;
    println!(
        "# resharding: static {static_rps:.0} req/s (max share {static_share:.3}) | resharded {resharded_rps:.0} req/s (max share {resharded_share:.3}, {} epochs, {} moved, {} migration units) | oracle ok",
        resharded_reference.epoch_fingerprints.len(),
        migration.moved,
        migration.total(),
    );
    Some(format!(
        "{{\n    \"workload\": \"{}\", \"shards\": {shards}, \"requests\": {requests_per_run}, \"reshard_every\": {every},\n    \"static\": {{ \"median_ms\": {static_median:.3}, \"requests_per_s\": {static_rps:.0}, \"max_shard_share\": {static_share:.4} }},\n    \"resharded\": {{ \"median_ms\": {resharded_median:.3}, \"requests_per_s\": {resharded_rps:.0}, \"max_shard_share\": {resharded_share:.4}, \"epochs\": {}, \"moved_elements\": {}, \"migration_cost_units\": {} }},\n    \"max_share_reduction\": {:.4},\n    \"deterministic\": true\n  }}",
        static_scenario.workload.label(),
        resharded_reference.epoch_fingerprints.len(),
        migration.moved,
        migration.total(),
        static_share - resharded_share,
    ))
}

fn main() -> ExitCode {
    let mut requests = 5_000usize;
    let mut runs = 5usize;
    let mut parallelism = Parallelism::Auto;
    let mut out = "BENCH_PR10.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(argument) = args.next() {
        match argument.as_str() {
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => requests = value,
                None => return usage(),
            },
            "--runs" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => runs = value,
                _ => return usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => parallelism = value,
                None => return usage(),
            },
            "--out" => match args.next() {
                Some(path) => out = path,
                None => return usage(),
            },
            "--help" | "-h" => {
                println!(
                    "usage: bench-report [--requests N] [--runs K] [--threads N|auto|serial] [--out PATH]"
                );
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let mut grid = ScenarioGrid::new(
        AlgorithmKind::ALL,
        WorkloadSpec::paper_families(),
        [5u32, 8, 10],
        requests,
        2022,
    );
    grid.checkpoints = Checkpoints::every(requests.div_ceil(4).max(1));
    let threads = parallelism.threads();
    println!(
        "# bench-report — {} cells, {} requests each, serial vs {} workers, median of {} runs",
        grid.len(),
        requests,
        threads,
        runs
    );

    let serial_runner = SimRunner::new().with_parallelism(Parallelism::Serial);
    let parallel_runner = SimRunner::new().with_parallelism(parallelism);

    // Warm-up (untimed) run per mode, then the timed runs.
    let _ = serial_runner.run_grid(&grid, false);
    let (mut serial_ms, serial_results) = time_grid(&serial_runner, &grid, runs);
    let _ = parallel_runner.run_grid(&grid, false);
    let (mut parallel_ms, parallel_results) = time_grid(&parallel_runner, &grid, runs);

    // The determinism oracle: parallel must reproduce serial bit for bit.
    if serial_results != parallel_results {
        eprintln!("FATAL: parallel grid diverged from the serial grid");
        return ExitCode::FAILURE;
    }
    println!("# determinism check passed: parallel fingerprints == serial fingerprints");

    let serial_median = median_ms(&mut serial_ms);
    let parallel_median = median_ms(&mut parallel_ms);
    let speedup = serial_median / parallel_median;
    println!(
        "# serial median {serial_median:.1} ms | parallel median {parallel_median:.1} ms | speedup {speedup:.2}x"
    );

    // Shard-scaling section: the serving engine at S = 1/2/4/8 shards,
    // serial vs. the configured worker budget, per-shard fingerprint oracle.
    let Some(sharded_json) = shard_scaling_json(40 * requests, runs, parallelism) else {
        return ExitCode::FAILURE;
    };

    // Resharding section: static vs. policy-resharded engine under a
    // shifting hot-shard stream, with the epoch-segmented replay oracle.
    let Some(reshard_json) = reshard_section_json(40 * requests, runs, parallelism) else {
        return ExitCode::FAILURE;
    };

    let json = format!(
        "{{\n  \"benchmark\": \"sim-smoke-grid\",\n  \"grid_cells\": {},\n  \"requests_per_cell\": {},\n  \"runs\": {},\n  \"available_threads\": {},\n  \"parallel_workers\": {},\n  \"serial_ms\": {},\n  \"parallel_ms\": {},\n  \"serial_median_ms\": {:.3},\n  \"parallel_median_ms\": {:.3},\n  \"speedup\": {:.3},\n  \"deterministic\": true,\n  \"shard_scaling\": {},\n  \"resharding\": {}\n}}\n",
        grid.len(),
        requests,
        runs,
        Parallelism::Auto.threads(),
        threads,
        json_array(&serial_ms),
        json_array(&parallel_ms),
        serial_median,
        parallel_median,
        speedup,
        sharded_json,
        reshard_json,
    );
    if let Err(error) = std::fs::write(&out, json) {
        eprintln!("failed to write {out}: {error}");
        return ExitCode::FAILURE;
    }
    println!("# wrote {out}");
    ExitCode::SUCCESS
}
