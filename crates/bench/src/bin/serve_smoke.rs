//! CI smoke test for the sharded serving engine: every `ShardRouter` policy
//! × a set of algorithms, fed through the channel-based ingestion layer and
//! drained concurrently on the `satn-exec` pool, then verified byte for byte
//! against the epoch-segmented serial reference replay (each epoch's
//! per-shard subsequences served standalone by `satn-sim`'s `SimRunner`,
//! chained through the deterministic handover). With `--reshard-every N` the
//! engines also reshard mid-stream under the load-adaptive `MoveHottest`
//! policy, so the full drain-fence → migrate → epoch-bump handover path is
//! exercised on every push (untouched shards keep their live trees, touched
//! shards carry rotor/recency state). Also runs
//! the ego-tree-per-source mode against a serial `SelfAdjustingNetwork`
//! replay. Exits non-zero on any divergence.
//!
//! ```text
//! serve-smoke [--shards N] [--threads N|auto|serial] [--requests N] [--seed S]
//!             [--reshard-every N]
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use satn_core::AlgorithmKind;
use satn_network::{Host, HostPair, SelfAdjustingNetwork};
use satn_serve::{
    ingest_channel_with_metrics, replay, Parallelism, ReshardPolicy, ReshardSchedule,
    ShardedEngineConfig, SourceShardedEngine,
};
use satn_sim::{ShardRouter, ShardedScenario, SimRunner, WorkloadSpec};
use satn_tree::ElementId;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

const USAGE: &str = "usage: serve-smoke [--shards N] [--threads N|auto|serial] [--requests N] \
                     [--seed S] [--reshard-every N]";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// Runs one sharded scenario through the queue-fed engine and verifies it
/// against the epoch-segmented serial reference replay. Returns the
/// wall-clock seconds of the engine run, or `None` on divergence.
fn run_and_verify(scenario: &ShardedScenario, parallelism: Parallelism) -> Option<f64> {
    let mut engine = match ShardedEngineConfig::from_scenario(scenario)
        .parallelism(parallelism)
        .drain_threshold(1_024)
        .build()
    {
        Ok(engine) => engine,
        Err(error) => {
            eprintln!("{}: construction FAILED: {error}", scenario.name());
            return None;
        }
    };
    let requests: Vec<ElementId> = scenario.stream().collect();
    let started = Instant::now();
    let (mut sender, queue) = ingest_channel_with_metrics(16, Arc::clone(engine.metrics()));
    let report = std::thread::scope(|scope| {
        scope.spawn(move || {
            // A closed queue only means the engine failed first; that error
            // is reported below.
            let _ = replay(&mut sender, requests, 512);
        });
        let result = engine.serve_queue(&queue).and_then(|()| engine.finish());
        if result.is_err() {
            // Unblock a producer stuck on the bounded channel so the scope
            // can join and the failure is reported instead of deadlocking.
            while queue.recv().is_some() {}
        }
        result
    });
    let elapsed = started.elapsed().as_secs_f64();
    let report = match report {
        Ok(report) => report,
        Err(error) => {
            eprintln!("{}: serving FAILED: {error}", scenario.name());
            return None;
        }
    };

    let reference = match scenario.epoch_replay(&SimRunner::new()) {
        Ok(reference) => reference,
        Err(error) => {
            eprintln!("{}: reference replay FAILED: {error}", scenario.name());
            return None;
        }
    };
    if let Err(divergence) = report.verify_against(&reference) {
        eprintln!("{}: {divergence}", scenario.name());
        return None;
    }
    Some(elapsed)
}

/// Verifies the ego-tree-per-source mode against a serial
/// `SelfAdjustingNetwork` replay of the same trace.
fn run_and_verify_ego(
    num_hosts: u32,
    shards: u32,
    parallelism: Parallelism,
    requests: usize,
    seed: u64,
) -> bool {
    let mut rng = StdRng::seed_from_u64(seed);
    let trace: Vec<HostPair> = (0..requests)
        .map(|_| loop {
            let source = rng.gen_range(0..num_hosts);
            let destination = rng.gen_range(0..num_hosts);
            if source != destination {
                return HostPair::from((source, destination));
            }
        })
        .collect();
    let kind = AlgorithmKind::RotorPush;
    let mut engine = match SourceShardedEngine::new(num_hosts, shards, kind, seed, parallelism) {
        Ok(engine) => engine,
        Err(error) => {
            eprintln!("ego engine construction FAILED: {error}");
            return false;
        }
    };
    if let Err(error) = engine.submit_trace(&trace) {
        eprintln!("ego engine serving FAILED: {error}");
        return false;
    }
    let report = match engine.finish() {
        Ok(report) => report,
        Err(error) => {
            eprintln!("ego engine finish FAILED: {error}");
            return false;
        }
    };
    let mut reference = SelfAdjustingNetwork::new(num_hosts, kind, seed).unwrap();
    reference.serve_trace(&trace).unwrap();
    if report.merged != *reference.total_cost() {
        eprintln!("ego mode MERGED SUMMARY DIVERGED from the serial network replay");
        return false;
    }
    for shard in 0..shards {
        let mut expected = satn_tree::CostSummary::new();
        for source in (shard..num_hosts).step_by(shards as usize) {
            expected.merge(reference.cost_of_source(Host::new(source)));
        }
        if report.per_shard[shard as usize].summary != expected {
            eprintln!("ego mode shard {shard} COST SUMMARY DIVERGED");
            return false;
        }
    }
    true
}

fn main() -> ExitCode {
    let mut shards = 4u32;
    let mut requests = 20_000usize;
    let mut seed = 2022u64;
    let mut parallelism = Parallelism::Auto;
    let mut reshard_every = 0usize;
    let mut args = std::env::args().skip(1);
    while let Some(argument) = args.next() {
        match argument.as_str() {
            "--shards" => match args.next().and_then(|v| v.parse::<u32>().ok()) {
                Some(value) if value > 0 => shards = value,
                _ => return usage(),
            },
            "--requests" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => requests = value,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => seed = value,
                None => return usage(),
            },
            "--threads" => match args.next().and_then(|v| v.parse().ok()) {
                Some(value) => parallelism = value,
                None => return usage(),
            },
            "--reshard-every" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(value) if value > 0 => reshard_every = value,
                _ => return usage(),
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }

    let algorithms = [
        AlgorithmKind::RotorPush,
        AlgorithmKind::MaxPush,
        AlgorithmKind::MoveHalf,
        AlgorithmKind::StaticOpt,
    ];
    println!(
        "# serve-smoke — {} routers × {} algorithms, {} shards, {} requests each, {} workers{}",
        ShardRouter::ALL.len(),
        algorithms.len(),
        shards,
        requests,
        parallelism.threads(),
        if reshard_every > 0 {
            format!(", resharding every {reshard_every}")
        } else {
            String::new()
        }
    );

    let mut verified = 0usize;
    for router in ShardRouter::ALL {
        for algorithm in algorithms {
            let mut scenario = ShardedScenario::new(
                algorithm,
                WorkloadSpec::Combined { a: 1.9, p: 0.75 },
                shards,
                6,
                requests,
                seed,
            );
            scenario.router = router;
            // Offline algorithms cannot be rebuilt mid-stream; they keep
            // exercising the static path next to the resharding runs.
            if reshard_every > 0 && algorithm != AlgorithmKind::StaticOpt {
                scenario.reshard = ReshardSchedule::Policy(ReshardPolicy::MoveHottest {
                    every: reshard_every,
                    max_moves: 16,
                });
            }
            let Some(elapsed) = run_and_verify(&scenario, parallelism) else {
                return ExitCode::FAILURE;
            };
            println!(
                "{:<60} {:>10.0} req/s  (oracle ok)",
                scenario.name(),
                requests as f64 / elapsed
            );
            verified += 1;
        }
    }

    if !run_and_verify_ego(32, shards, parallelism, requests.min(10_000), seed) {
        return ExitCode::FAILURE;
    }
    println!("ego-tree-per-source mode                                      (oracle ok)");

    println!(
        "# all {} sharded runs + ego mode matched their serial reference replays byte for byte",
        verified
    );
    ExitCode::SUCCESS
}
