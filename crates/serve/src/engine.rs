//! The sharded multi-tree serving engine.

use crate::error::ServeError;
use crate::ingest::{IngestMessage, IngestQueue};
use crate::snapshot::{EngineSnapshot, SnapshotHub, SnapshotReader};
use satn_core::{AlgorithmKind, SelfAdjustingTree};
use satn_exec::{for_each_ordered, Parallelism};
use satn_obs::{names, EngineMetrics, TraceKind, TraceRing, TraceStamp};
use satn_sim::{ReshardSchedule, ShardedScenario};
use satn_tree::{
    snapshot, CompleteTree, CostObserver, CostSummary, ElementId, MigrationCost, Occupancy,
    ShardedCostSummary, TreeSnapshot,
};
use satn_workloads::shard::{
    algorithm_seed, carry_remap, handover, shard_epoch_seed, touched_shards, EpochedPartition,
    HandoverMode, Partition, PolicyDriver, ReshardEvent, ReshardPlan,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Pending requests buffered across all shards before an automatic drain.
pub const DEFAULT_DRAIN_THRESHOLD: usize = 4_096;

/// Why an engine of an offline algorithm has no rebuild recipe.
const OFFLINE_REBUILD: &str = "offline algorithms cannot be rebuilt mid-stream";

/// One shard: its tree plus the batch of localized requests accumulated for
/// the next drain.
struct Shard {
    tree: Box<dyn SelfAdjustingTree + Send>,
    pending: Vec<ElementId>,
}

/// The batch-buffer bookkeeping of the engine: how many requests are
/// buffered across all shards, when the automatic drain fires, and the run's
/// submitted/drain counters. Every submit and every drain goes through it,
/// so the reshard drain fence sees exactly the buffer a threshold drain
/// would.
#[derive(Debug)]
struct DrainControl {
    threshold: usize,
    pending: usize,
    drains: u64,
    submitted: u64,
}

impl DrainControl {
    /// Creates a control with the given automatic-drain threshold.
    fn new(threshold: usize) -> Self {
        DrainControl {
            threshold,
            pending: 0,
            drains: 0,
            submitted: 0,
        }
    }

    /// Counts one buffered request; `true` when the buffered total has
    /// reached the threshold and the caller must drain.
    fn note_submitted(&mut self) -> bool {
        self.pending += 1;
        self.submitted += 1;
        self.pending >= self.threshold
    }

    /// Starts a drain: `false` (and no drain counted) when nothing is
    /// buffered, else the buffer empties and the drain is counted.
    fn begin_drain(&mut self) -> bool {
        if self.pending == 0 {
            return false;
        }
        self.pending = 0;
        self.drains += 1;
        true
    }
}

/// Mirrors the deterministic cost ledger into the engine's atomic metric
/// registry: batch summaries land in the served/cost counters as they merge
/// (in shard order, on the merge thread), epoch bumps land in the epoch
/// gauge and migration counter. Pure mirror — it never feeds back into the
/// ledger, so the oracle sees metrics equal to replay totals at every drain
/// boundary.
struct MetricsCostObserver<'a>(&'a EngineMetrics);

impl CostObserver for MetricsCostObserver<'_> {
    fn on_batch(&self, _shard: u32, batch: &CostSummary) {
        self.0.requests_served.add(batch.requests());
        self.0.access_cost.add(batch.total().access);
        self.0.adjustment_cost.add(batch.total().adjustment);
    }

    fn on_epoch(&self, epoch: u32, migration: MigrationCost) {
        self.0.reshard_epoch.set(epoch as u64);
        self.0.migration_units.add(migration.total());
    }
}

/// How the engine reshards on its own, mirroring
/// [`satn_sim::ReshardSchedule`] online.
enum OnlineSchedule {
    /// Only explicit [`ShardedEngine::reshard`] calls (or `Reshard` ingest
    /// frames) change the partition.
    External,
    /// Fire each event's plan at its stream position.
    Manual(VecDeque<ReshardEvent>),
    /// Let the policy observe the routed stream and fire at its cadence.
    Policy(PolicyDriver),
}

/// The sharded serving engine: `S` independent per-shard trees partitioning
/// the element universe, fed through an epoch-versioned [`Partition`]
/// router, drained concurrently on the `satn-exec` pool.
///
/// Requests enter via [`ShardedEngine::submit`] (or a whole
/// [`IngestQueue`] via [`ShardedEngine::serve_queue`]), are routed to their
/// owning shard under the **current epoch's** partition and buffered; once
/// the buffered total reaches the drain threshold, every shard's batch is
/// served through the allocation-free
/// [`SelfAdjustingTree::serve_batch`] fast path — one worker per shard batch,
/// results merged back **in shard order** via
/// [`satn_exec::for_each_ordered`], so per-shard cost totals, the merged
/// summary, and the per-shard occupancy fingerprints are bit-identical at
/// every thread count and every drain cadence.
///
/// ## Resharding
///
/// [`ShardedEngine::reshard`] performs the deterministic handover protocol:
///
/// 1. **drain fence** — every buffered batch is served under the closing
///    epoch, and the closing epoch's per-shard fingerprints are recorded;
/// 2. **migrate** — the moved elements are deleted from their source trees
///    and re-inserted into their destinations in canonical element order
///    ([`satn_workloads::shard::handover`]), each paying its access cost;
///    only the shards the plan touches are rebuilt from their post-handover
///    placement, each carrying its predecessor's rotor/recency/RNG state,
///    while every untouched shard keeps its live tree;
/// 3. **epoch bump** — the [`EpochedPartition`] log grows, and the
///    accounting opens a new epoch sub-summary carrying the migration cost.
///
/// The protocol is a pure function of (scenario, stream position), so the
/// epoch-segmented serial reference replay
/// ([`ShardedScenario::epoch_replay`]) reproduces the engine's per-epoch
/// cost summaries, migration costs, and boundary fingerprints byte for byte
/// at every thread count — determinism stays *derived*, not hand-kept.
///
/// ## The read phase
///
/// Lookups never enter the write path above. Call
/// [`ShardedEngine::snapshots`] to open the engine's **read side**: from
/// then on every batch-drain boundary (automatic, flush-forced, reshard
/// fence, or final) atomically publishes an immutable [`EngineSnapshot`] —
/// the epoch's partition plus one frozen [`TreeSnapshot`] per shard —
/// which any number of [`SnapshotReader`] handles serve lock-free, on any
/// thread, while the engine keeps draining. Reads never mutate, so the
/// determinism oracle is untouched; each snapshot is stamped with the
/// requests accounted when it was frozen, tying every answered lookup to
/// one point on the deterministic write timeline.
pub struct ShardedEngine {
    log: EpochedPartition,
    shards: Vec<Shard>,
    accounting: ShardedCostSummary,
    parallelism: Parallelism,
    control: DrainControl,
    /// The algorithm every post-handover tree is re-instantiated with and
    /// the base seed of its per-`(shard, epoch)` derived seeds; `None` only
    /// for offline algorithms, which cannot reshard.
    rebuild: Option<(AlgorithmKind, u64)>,
    schedule: OnlineSchedule,
    /// Per completed epoch, the per-shard fingerprints at its closing drain
    /// fence (the final epoch's fingerprints are appended by `finish`).
    epoch_fingerprints: Vec<Vec<String>>,
    /// Requests submitted before each epoch boundary, matching
    /// [`satn_sim::ShardedReplay::boundaries`].
    boundaries: Vec<usize>,
    /// The read side, opened by [`ShardedEngine::snapshots`]: `None` until
    /// a reader exists, so write-only runs pay nothing for the feature.
    hub: Option<Arc<SnapshotHub>>,
    /// The current epoch's partition, shared with published snapshots
    /// (re-cloned only when the epoch changes).
    partition_cache: Option<(u32, Arc<Partition>)>,
    /// The engine's atomic metric registry — always present (updating an
    /// atomic costs a few nanoseconds; gating it would cost a branch in the
    /// same places), shared with the ingest channel and the network layer.
    metrics: Arc<EngineMetrics>,
    /// The bounded drain/reshard/snapshot event tracer.
    tracer: Arc<TraceRing>,
}

impl ShardedEngine {
    /// The construction behind
    /// [`ShardedEngineConfig::build`](crate::ShardedEngineConfig::build),
    /// for a scenario whose geometry it already validated: the scenario's
    /// epoch-0 partition, with every shard tree instantiated exactly as the
    /// scenario's standalone per-shard reference scenarios build theirs
    /// (same levels, same derived seeds, same initial placement — that is
    /// what makes the serial replay a byte-exact oracle). The scenario's
    /// [`ReshardSchedule`] is applied online: manual events fire at their
    /// stream positions, a policy observes the routed stream at its cadence
    /// — both reproducing the schedule [`ShardedScenario::epoch_log`]
    /// derives offline.
    pub(crate) fn build_from_scenario(
        scenario: &ShardedScenario,
        parallelism: Parallelism,
        drain_threshold: usize,
    ) -> Result<Self, ServeError> {
        let offline = scenario.algorithm == AlgorithmKind::StaticOpt;
        let schedule = match &scenario.reshard {
            ReshardSchedule::Static => OnlineSchedule::External,
            _ if offline => {
                return Err(ServeError::ReshardUnsupported {
                    reason: OFFLINE_REBUILD,
                })
            }
            ReshardSchedule::Manual(events) => {
                OnlineSchedule::Manual(events.iter().cloned().collect())
            }
            ReshardSchedule::Policy(policy) => {
                OnlineSchedule::Policy(PolicyDriver::new(policy.clone(), scenario.universe()))
            }
        };
        let partition = scenario.partition();
        let mut shards = Vec::with_capacity(partition.shards() as usize);
        for (shard, shard_scenario) in scenario.shard_scenarios().iter().enumerate() {
            // `instantiate` hands offline algorithms their per-shard
            // sequence itself (the scenario's Fixed workload carries it).
            let tree = shard_scenario
                .instantiate()
                .map_err(|error| ServeError::Tree {
                    shard: shard as u32,
                    error,
                })?;
            shards.push(Shard {
                tree,
                pending: Vec::new(),
            });
        }
        Ok(ShardedEngine {
            accounting: ShardedCostSummary::new(partition.shards()),
            metrics: Arc::new(EngineMetrics::new(partition.shards())),
            log: EpochedPartition::from_partition(partition),
            shards,
            parallelism,
            control: DrainControl::new(drain_threshold),
            rebuild: (!offline).then_some((scenario.algorithm, scenario.seed)),
            schedule,
            epoch_fingerprints: Vec::new(),
            boundaries: Vec::new(),
            hub: None,
            partition_cache: None,
            tracer: Arc::new(TraceRing::with_default_capacity()),
        })
    }

    /// The engine's current element-to-shard assignment.
    pub fn partition(&self) -> &Partition {
        self.log.current()
    }

    /// The full epoch log (epoch 0 = the initial assignment).
    pub fn epoch_log(&self) -> &EpochedPartition {
        &self.log
    }

    /// The current epoch index.
    pub fn epoch(&self) -> u32 {
        self.log.current_epoch()
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.shards.len() as u32
    }

    /// The worker budget used for drains.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// Requests submitted so far (served or still buffered).
    pub fn submitted(&self) -> u64 {
        self.control.submitted
    }

    /// Drains triggered so far.
    pub fn drains(&self) -> u64 {
        self.control.drains
    }

    /// The epoch-versioned per-shard cost accounting of everything served so
    /// far (buffered requests are not yet included — call
    /// [`ShardedEngine::drain`] first).
    pub fn accounting(&self) -> &ShardedCostSummary {
        &self.accounting
    }

    /// The engine's atomic metric registry. Clone the `Arc` to poll from
    /// other threads (the ingest channel and the network front door do);
    /// counters mirroring the cost ledger equal serial-replay totals at
    /// every drain boundary, timing data is advisory.
    pub fn metrics(&self) -> &Arc<EngineMetrics> {
        &self.metrics
    }

    /// The engine's bounded event tracer: drain, snapshot-publish, and
    /// three-phase reshard-handover events, deterministically stamped.
    pub fn tracer(&self) -> &Arc<TraceRing> {
        &self.tracer
    }

    /// Opens the engine's read side and hands out a lock-free
    /// [`SnapshotReader`]. The first call freezes and publishes the current
    /// state; from then on every drain boundary publishes a fresh
    /// [`EngineSnapshot`] that all readers (this one and its clones, on any
    /// thread) observe via one atomic version check. Call before moving the
    /// engine to its serving thread; clone the reader per consumer.
    pub fn snapshots(&mut self) -> SnapshotReader {
        if self.hub.is_none() {
            let initial = self.freeze();
            self.hub = Some(Arc::new(SnapshotHub::new(
                initial,
                Arc::clone(&self.metrics),
            )));
            self.metrics.snapshot_publishes.inc();
            self.metrics.snapshot_version.set(1);
        }
        SnapshotReader::new(Arc::clone(self.hub.as_ref().expect("hub just installed")))
    }

    /// Freezes the engine's current served state (the most recent drain
    /// boundary: trees only change inside drains, so capturing between them
    /// is always consistent with the accounting).
    fn freeze(&mut self) -> EngineSnapshot {
        let epoch = self.log.current_epoch();
        let partition = match &self.partition_cache {
            Some((cached, arc)) if *cached == epoch => Arc::clone(arc),
            _ => {
                let arc = Arc::new(self.log.current().clone());
                self.partition_cache = Some((epoch, Arc::clone(&arc)));
                arc
            }
        };
        let shards = self
            .shards
            .iter()
            .map(|shard| TreeSnapshot::capture(shard.tree.occupancy()))
            .collect();
        EngineSnapshot::assemble(epoch, self.accounting.requests(), partition, shards)
    }

    /// Publishes the current state to the read side, if one is open. Called
    /// at every boundary where the served state advanced: after a drain,
    /// after a reshard's epoch bump, and at `finish`.
    fn publish_snapshot(&mut self) {
        if self.hub.is_none() {
            return;
        }
        let snapshot = self.freeze();
        let served = snapshot.served();
        let version = self.hub.as_ref().expect("checked above").publish(snapshot);
        self.metrics.snapshot_publishes.inc();
        self.metrics.snapshot_version.set(version);
        self.tracer.record(TraceStamp {
            kind: TraceKind::SnapshotPublish,
            epoch: self.log.current_epoch(),
            served,
            detail: version,
        });
    }

    /// Routes one request to its owning shard's batch under the current
    /// epoch's partition, firing any due scheduled reshard first and
    /// draining every shard once the buffered total reaches the threshold.
    ///
    /// # Errors
    ///
    /// [`ServeError::OutOfUniverse`] for foreign elements (nothing is
    /// enqueued), or a drain or reshard error.
    pub fn submit(&mut self, element: ElementId) -> Result<(), ServeError> {
        self.fire_due_manual_events(false)?;
        let (shard, local) =
            self.log
                .current()
                .localize(element)
                .ok_or_else(|| ServeError::OutOfUniverse {
                    element,
                    universe: self.log.current().universe(),
                })?;
        self.shards[shard as usize].pending.push(local);
        self.metrics.shard_buffered[shard as usize].inc();
        let should_drain = self.control.note_submitted();
        if let OnlineSchedule::Policy(driver) = &mut self.schedule {
            let plan = driver.observe(element, self.log.current());
            if let Some(plan) = plan {
                // The reshard's drain fence also covers the threshold.
                return self.reshard(plan);
            }
        }
        if should_drain {
            self.drain()?;
        }
        Ok(())
    }

    /// Submits a burst of requests in order.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShardedEngine::submit`], failing at the first
    /// offending request.
    pub fn submit_burst(&mut self, burst: &[ElementId]) -> Result<(), ServeError> {
        for &element in burst {
            self.submit(element)?;
        }
        Ok(())
    }

    /// Serves every pending per-shard batch concurrently on the pool: one
    /// worker per non-empty shard batch, each through
    /// [`SelfAdjustingTree::serve_batch`]; batch summaries are merged back
    /// in shard order as their prefix completes.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::Tree`] for the failing shard that comes first
    /// in shard order. Every shard's batch is still served (and accounted)
    /// up to its own failure point; the unserved tail of a failing batch is
    /// discarded, so [`EngineReport::requests`] reports what was actually
    /// accounted, not what was submitted.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        if !self.control.begin_drain() {
            return Ok(());
        }
        let before = self.accounting.requests();
        let started = Instant::now();
        let observer = MetricsCostObserver(&self.metrics);
        let accounting = &mut self.accounting;
        // Batch summaries stream back in shard order: each one reaches the
        // registry mirror just before it merges into the ledger (every
        // shard's served prefix is accounted, failed or not), and the error
        // kept is the lowest-indexed failing shard's, whatever order the
        // workers finish in.
        let mut failure = None;
        for_each_ordered(
            &mut self.shards,
            self.parallelism,
            |_, shard| {
                let mut delta = CostSummary::new();
                let outcome = if shard.pending.is_empty() {
                    Ok(())
                } else {
                    shard.tree.serve_batch(&shard.pending, &mut delta)
                };
                shard.pending.clear();
                (delta, outcome)
            },
            |index, (delta, outcome)| {
                let shard = index as u32;
                observer.on_batch(shard, &delta);
                accounting.merge_into_shard(shard, &delta);
                if let (Err(error), None) = (outcome, failure.as_ref()) {
                    failure = Some(ServeError::Tree { shard, error });
                }
            },
        );
        // Every pending buffer was consumed (cleared even on failure), and a
        // failed drain is still a counted drain — so the registry records the
        // drain before the error propagates, keeping it equal to the ledger.
        for gauge in self.metrics.shard_buffered.iter() {
            gauge.set(0);
        }
        self.metrics.batches_drained.inc();
        self.metrics.drain_latency.record(started.elapsed());
        let served = self.accounting.requests();
        self.tracer.record(TraceStamp {
            kind: TraceKind::Drain,
            epoch: self.log.current_epoch(),
            served,
            detail: served - before,
        });
        if let Some(error) = failure {
            return Err(error);
        }
        // The drain boundary is the read side's publication point.
        self.publish_snapshot();
        Ok(())
    }

    /// Reshards the engine with the deterministic handover protocol: drain
    /// fence (every buffered request is served under the closing epoch, and
    /// the closing epoch's fingerprints are recorded), element migration
    /// via the canonical delete/re-insert order of
    /// [`satn_workloads::shard::handover`], and the epoch bump (partition
    /// log + accounting).
    ///
    /// Only the shards the plan touches (move sources and destinations,
    /// [`satn_workloads::shard::touched_shards`]) are rebuilt — each
    /// re-instantiated warm, carrying its predecessor's rotor/recency/RNG
    /// state across the boundary ([`satn_core::WarmState`]) — while every
    /// untouched shard keeps its live tree verbatim, paying zero handover
    /// work. The rotor-walk determinism results of Angel & Holroyd make the
    /// carried trees exactly as deterministic as freshly seeded ones, so
    /// the serial reference replay ([`ShardedScenario::epoch_replay`])
    /// stays a byte-exact oracle.
    ///
    /// # Errors
    ///
    /// [`ServeError::ReshardUnsupported`] if the engine's algorithm is
    /// offline, [`ServeError::Reshard`] if the plan does not fit the
    /// partition (the engine is unchanged beyond the drain fence),
    /// [`ServeError::Handover`] if the handover produced a placement no
    /// shard tree can be rebuilt from, or a drain/rebuild error.
    pub fn reshard(&mut self, plan: ReshardPlan) -> Result<(), ServeError> {
        let Some((kind, base_seed)) = self.rebuild else {
            return Err(ServeError::ReshardUnsupported {
                reason: OFFLINE_REBUILD,
            });
        };
        let planned_moves = plan.moves().len() as u64;
        // 1. Drain fence: the closing epoch serves everything it buffered.
        self.drain()?;
        // The handover clock starts after the fence: it measures the
        // migration and rebuild work itself, not the backlog drained first.
        let started = Instant::now();
        let closing_epoch = self.log.current_epoch();
        let old = self.log.current().clone();
        let epoch = {
            let epoch = self.log.apply(plan).map_err(ServeError::Reshard)?;
            epoch.epoch()
        };
        let served = self.accounting.requests();
        self.tracer.record(TraceStamp {
            kind: TraceKind::ReshardFence,
            epoch: closing_epoch,
            served,
            detail: planned_moves,
        });
        // The fence state is the closing epoch's boundary fingerprint.
        self.capture_boundary_fingerprints();
        self.boundaries.push(self.control.submitted as usize);
        // 2. Migrate: canonical delete/re-insert, materializing (and
        // rebuilding from) only the touched shards' placements — an
        // untouched shard's empty entry means "keep the live tree".
        let touched = touched_shards(&old, self.log.current());
        let outcome = {
            let occupancies: Vec<&Occupancy> = self
                .shards
                .iter()
                .map(|shard| shard.tree.occupancy())
                .collect();
            handover(&old, self.log.current(), &occupancies, &touched)
        };
        let mut rebuilt_nodes = 0u64;
        for (shard, placement) in outcome.placements.into_iter().enumerate() {
            if !touched[shard] {
                continue;
            }
            let levels = (placement.len() + 1).trailing_zeros();
            let geometry =
                CompleteTree::with_levels(levels).map_err(|error| ServeError::Handover {
                    shard: shard as u32,
                    reason: format!("{} slots: {error}", placement.len()),
                })?;
            let occupancy = Occupancy::from_placement(geometry, placement).map_err(|error| {
                ServeError::Handover {
                    shard: shard as u32,
                    reason: error.to_string(),
                }
            })?;
            let seed = algorithm_seed(shard_epoch_seed(base_seed, shard as u32, epoch));
            let remap = carry_remap(&old, self.log.current(), shard as u32);
            let state = self.shards[shard]
                .tree
                .export_state()
                .carried_into(geometry, &remap);
            let tree = kind
                .instantiate_warm(occupancy, seed, &[], &state)
                .map_err(|error| ServeError::Tree {
                    shard: shard as u32,
                    error,
                })?;
            rebuilt_nodes += (1u64 << levels) - 1;
            self.shards[shard].tree = tree;
        }
        let touched_count = touched.iter().filter(|&&t| t).count() as u64;
        self.tracer.record(TraceStamp {
            kind: TraceKind::ReshardMigrate,
            epoch,
            served,
            detail: touched_count,
        });
        // 3. Epoch bump in the ledger, carrying the migration cost — and a
        // publication, so readers see the new epoch's placement immediately
        // rather than at the next drain.
        self.accounting.begin_epoch(outcome.migration);
        MetricsCostObserver(&self.metrics).on_epoch(epoch, outcome.migration);
        self.metrics
            .migration_touched_units
            .add(outcome.migration.total());
        self.metrics.migration_rebuilt_nodes.add(rebuilt_nodes);
        self.metrics.handover_latency.record(started.elapsed());
        self.tracer.record(TraceStamp {
            kind: TraceKind::ReshardEpochBump,
            epoch,
            served,
            detail: outcome.migration.moved,
        });
        self.publish_snapshot();
        Ok(())
    }

    /// [`ShardedEngine::reshard`], under the name callers that pass a
    /// [`HandoverMode`] use. Warm carry is the only handover, so the mode
    /// changes nothing.
    ///
    /// # Errors
    ///
    /// See [`ShardedEngine::reshard`].
    pub fn reshard_with(
        &mut self,
        plan: ReshardPlan,
        _mode: HandoverMode,
    ) -> Result<(), ServeError> {
        self.reshard(plan)
    }

    /// Fires every manual event that is due at the current stream position
    /// (all remaining ones when `all` is set, at the end of a run).
    fn fire_due_manual_events(&mut self, all: bool) -> Result<(), ServeError> {
        loop {
            let OnlineSchedule::Manual(events) = &mut self.schedule else {
                return Ok(());
            };
            let due = events
                .front()
                .is_some_and(|event| all || event.at as u64 <= self.control.submitted);
            if !due {
                return Ok(());
            }
            let plan = events.pop_front().expect("front checked").plan;
            self.reshard(plan)?;
        }
    }

    /// Consumes an ingestion queue to completion: bursts are submitted in
    /// arrival order (auto-draining at the threshold), flush messages force
    /// a drain, reshard frames run the full handover protocol, and sender
    /// shutdown triggers a final drain.
    ///
    /// A message naming an element outside the universe, a reshard plan
    /// naming a shard out of range, or any reshard sent to an engine of an
    /// offline algorithm (which has no rebuild recipe) comes from a
    /// misbehaving client, not from the engine: it is rejected whole — no
    /// prefix of a burst is applied — counted in the registry's
    /// `ingest_rejected`, and serving goes on.
    ///
    /// # Errors
    ///
    /// Propagates the first submit, drain, or reshard error of an admitted
    /// message.
    pub fn serve_queue(&mut self, queue: &IngestQueue) -> Result<(), ServeError> {
        while let Some(message) = queue.recv() {
            if !self.admits(&message) {
                self.metrics.ingest_rejected.inc();
                continue;
            }
            match message {
                IngestMessage::Request(element) => self.submit(element)?,
                IngestMessage::Burst(burst) => self.submit_burst(&burst)?,
                IngestMessage::Flush => self.drain()?,
                IngestMessage::Reshard(plan, _) => self.reshard(plan)?,
            }
        }
        self.drain()
    }

    /// Whether every element and shard `message` names exists, and, for a
    /// reshard, whether the engine can rebuild its trees at all (offline
    /// engines cannot). The universe and the shard count never change
    /// across epochs, so one check before the message is applied covers
    /// all of it.
    fn admits(&self, message: &IngestMessage) -> bool {
        let partition = self.log.current();
        let known = |element: &ElementId| element.index() < partition.universe();
        match message {
            IngestMessage::Request(element) => known(element),
            IngestMessage::Burst(burst) => burst.iter().all(known),
            IngestMessage::Flush => true,
            IngestMessage::Reshard(plan, _) => {
                self.rebuild.is_some()
                    && plan
                        .moves()
                        .iter()
                        .all(|(element, shard)| known(element) && *shard < partition.shards())
            }
        }
    }

    /// The replay fingerprint of one shard: its tree's occupancy snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the shard is out of range.
    pub fn fingerprint(&self, shard: u32) -> String {
        snapshot::occupancy_to_string(self.shards[shard as usize].tree.occupancy())
    }

    /// Records every shard's fingerprint as the closing epoch's boundary
    /// state (at a reshard's drain fence, and once more at `finish`).
    fn capture_boundary_fingerprints(&mut self) {
        self.epoch_fingerprints.push(
            (0..self.shards())
                .map(|shard| self.fingerprint(shard))
                .collect(),
        );
    }

    /// Drains any remaining batches, fires any remaining scheduled manual
    /// reshards (their epochs close empty, exactly as in the reference
    /// replay), and emits the final report.
    ///
    /// # Errors
    ///
    /// Propagates the final drain's (or reshard's) error.
    pub fn finish(mut self) -> Result<EngineReport, ServeError> {
        self.drain()?;
        self.fire_due_manual_events(true)?;
        // Readers outlive the engine: leave them the final state.
        self.publish_snapshot();
        self.capture_boundary_fingerprints();
        let per_shard = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, shard)| ShardReport {
                shard: index as u32,
                elements: self.log.current().owned(index as u32).len() as u32,
                summary: *self.accounting.shard(index as u32),
                fingerprint: snapshot::occupancy_to_string(shard.tree.occupancy()),
            })
            .collect();
        Ok(EngineReport {
            per_shard,
            merged: self.accounting.merged(),
            migration: self.accounting.migration_total(),
            drains: self.control.drains,
            requests: self.accounting.requests(),
            epoch_fingerprints: self.epoch_fingerprints,
            boundaries: self.boundaries,
            accounting: self.accounting,
        })
    }
}

impl fmt::Debug for ShardedEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedEngine")
            .field("shards", &self.shards())
            .field("universe", &self.log.current().universe())
            .field("router", &self.log.current().router())
            .field("epoch", &self.epoch())
            .field("parallelism", &self.parallelism)
            .field("submitted", &self.submitted())
            .field("drains", &self.drains())
            .finish_non_exhaustive()
    }
}

/// The final state of one shard after a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardReport {
    /// The shard index.
    pub shard: u32,
    /// Elements the shard owns (under the final epoch's partition).
    pub elements: u32,
    /// Everything this shard served, in per-request detail totals (across
    /// all epochs).
    pub summary: CostSummary,
    /// The shard's deterministic replay fingerprint (occupancy snapshot).
    pub fingerprint: String,
}

/// The outcome of a sharded serving run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineReport {
    /// Per-shard summaries and fingerprints, in shard order.
    pub per_shard: Vec<ShardReport>,
    /// The shard-order merge of every per-shard summary (serving cost only).
    pub merged: CostSummary,
    /// The accumulated handover cost of every reshard in the run.
    pub migration: MigrationCost,
    /// Number of drains the run used (cadence never affects results).
    pub drains: u64,
    /// Total requests served and accounted (equals the submitted count on a
    /// clean run; smaller if a drain failed and discarded a batch tail).
    pub requests: u64,
    /// Per epoch, the per-shard fingerprints at the epoch's closing drain
    /// fence (the last entry is the final state). Byte-identical to the
    /// epoch-segmented reference replay's per-epoch final snapshots.
    pub epoch_fingerprints: Vec<Vec<String>>,
    /// Requests submitted before each epoch boundary.
    pub boundaries: Vec<usize>,
    /// The full epoch-versioned ledger: per-epoch sub-summaries and
    /// migration costs.
    pub accounting: ShardedCostSummary,
}

impl EngineReport {
    /// Verifies this report byte for byte against the epoch-segmented
    /// serial reference replay of the same scenario — the determinism
    /// oracle shared by the `satnd --verify` mode, the `perfbench` rounds,
    /// and the engine and transport tests: epoch schedule and boundaries,
    /// the full epoch-versioned cost ledger, and every per-epoch per-shard
    /// boundary fingerprint must all match.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence.
    pub fn verify_against(&self, replay: &satn_sim::ShardedReplay) -> Result<(), String> {
        if self.epoch_fingerprints.len() as u32 != replay.epochs() {
            return Err(format!(
                "epoch count diverged: engine ran {} epochs, replay {}",
                self.epoch_fingerprints.len(),
                replay.epochs()
            ));
        }
        if self.boundaries != replay.boundaries {
            return Err(format!(
                "epoch boundaries diverged: engine {:?}, replay {:?}",
                self.boundaries, replay.boundaries
            ));
        }
        if self.accounting != replay.accounting {
            return Err("the epoch-versioned cost ledger diverged".to_owned());
        }
        for epoch in 0..replay.epochs() {
            let fingerprints = &self.epoch_fingerprints[epoch as usize];
            for shard in 0..fingerprints.len() as u32 {
                if fingerprints[shard as usize] != replay.fingerprint(epoch, shard) {
                    return Err(format!(
                        "epoch {epoch} shard {shard} boundary fingerprint diverged"
                    ));
                }
            }
        }
        Ok(())
    }

    /// The deterministic-metrics oracle: every counter the engine updates at
    /// drain boundaries must equal its total in this report exactly — the
    /// registry is an `AtomicU64` restatement of the ledger, not an
    /// approximation of it. Check it after the engine that filled `metrics`
    /// has finished; together with [`EngineReport::verify_against`] it
    /// makes every counter equal its serial-replay total.
    ///
    /// # Errors
    ///
    /// Names the first counter that disagrees, with both values.
    pub fn verify_metrics(&self, metrics: &EngineMetrics) -> Result<(), String> {
        let serving = self.merged.total();
        let epoch = (self.epoch_fingerprints.len() as u64).saturating_sub(1);
        let expectations = [
            (
                names::REQUESTS_SERVED,
                metrics.requests_served.get(),
                self.requests,
            ),
            (
                names::BATCHES_DRAINED,
                metrics.batches_drained.get(),
                self.drains,
            ),
            (
                names::ACCESS_COST,
                metrics.access_cost.get(),
                serving.access,
            ),
            (
                names::ADJUSTMENT_COST,
                metrics.adjustment_cost.get(),
                serving.adjustment,
            ),
            (
                names::MIGRATION_UNITS,
                metrics.migration_units.get(),
                self.migration.total(),
            ),
            (names::RESHARD_EPOCH, metrics.reshard_epoch.get(), epoch),
        ];
        for (name, got, want) in expectations {
            if got != want {
                return Err(format!(
                    "{name}: registry says {got}, the report says {want}"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShardedEngineConfig;
    use crate::ingest::ingest_channel_with_metrics;
    use satn_sim::{AlgorithmKind, ShardRouter, SimRunner, WorkloadSpec};

    fn scenario(algorithm: AlgorithmKind, router: ShardRouter) -> ShardedScenario {
        let mut s = ShardedScenario::new(
            algorithm,
            WorkloadSpec::Combined { a: 1.5, p: 0.6 },
            4,
            5,
            3_000,
            13,
        );
        s.router = router;
        s
    }

    fn engine(scenario: &ShardedScenario, parallelism: Parallelism) -> ShardedEngine {
        ShardedEngineConfig::from_scenario(scenario)
            .parallelism(parallelism)
            .build()
            .unwrap()
    }

    #[test]
    fn engine_matches_the_serial_reference_replay() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        let mut engine = ShardedEngineConfig::from_scenario(&sharded)
            .parallelism(Parallelism::Threads(3))
            .drain_threshold(257)
            .build()
            .unwrap();
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.requests, 3_000);
        assert!(report.drains >= 3_000 / 257);
        assert_eq!(report.migration, MigrationCost::ZERO);
        assert_eq!(report.epoch_fingerprints.len(), 1);

        let runner = SimRunner::new();
        for (shard, reference) in sharded.shard_scenarios().iter().enumerate() {
            let expected = runner.run(reference).unwrap();
            let got = &report.per_shard[shard];
            assert_eq!(got.summary, expected.summary, "shard {shard} costs");
            assert_eq!(
                got.fingerprint,
                expected.final_snapshot(),
                "shard {shard} fingerprint"
            );
        }
    }

    #[test]
    fn drain_cadence_and_thread_count_never_change_results() {
        let sharded = scenario(AlgorithmKind::MaxPush, ShardRouter::Range);
        let mut reports = Vec::new();
        for (threshold, parallelism) in [
            (1usize, Parallelism::Serial),
            (64, Parallelism::Threads(2)),
            (100_000, Parallelism::Threads(7)),
        ] {
            let mut engine = ShardedEngineConfig::from_scenario(&sharded)
                .parallelism(parallelism)
                .drain_threshold(threshold)
                .build()
                .unwrap();
            let requests: Vec<ElementId> = sharded.stream().collect();
            engine.submit_burst(&requests).unwrap();
            reports.push(engine.finish().unwrap());
        }
        assert_eq!(reports[0].per_shard, reports[1].per_shard);
        assert_eq!(reports[0].merged, reports[1].merged);
        assert_eq!(reports[1].per_shard, reports[2].per_shard);
        assert_eq!(reports[1].merged, reports[2].merged);
        // The full epoch ledger is cadence-invariant too.
        assert_eq!(reports[0].accounting, reports[1].accounting);
        assert_eq!(reports[1].accounting, reports[2].accounting);
    }

    #[test]
    fn queue_fed_runs_match_direct_submission() {
        let sharded = scenario(AlgorithmKind::MoveHalf, ShardRouter::SourceAffinity);

        let mut direct = engine(&sharded, Parallelism::Threads(2));
        for element in sharded.stream() {
            direct.submit(element).unwrap();
        }
        let direct_report = direct.finish().unwrap();

        let mut queued = engine(&sharded, Parallelism::Threads(2));
        let (sender, queue) = ingest_channel_with_metrics(8, Arc::clone(queued.metrics()));
        let requests: Vec<ElementId> = sharded.stream().collect();
        let producer = std::thread::spawn(move || {
            for chunk in requests.chunks(97) {
                sender.send_burst(chunk.to_vec()).unwrap();
            }
            sender.flush().unwrap();
        });
        queued.serve_queue(&queue).unwrap();
        producer.join().unwrap();
        let queued_report = queued.finish().unwrap();

        assert_eq!(direct_report, queued_report);
    }

    #[test]
    fn merged_summary_is_the_shard_order_merge() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        engine.drain().unwrap();
        let merged = engine.accounting().merged();
        let report = engine.finish().unwrap();
        let mut recombined = CostSummary::new();
        for shard in &report.per_shard {
            recombined.merge(&shard.summary);
        }
        assert_eq!(report.merged, recombined);
        assert_eq!(report.merged, merged);
        assert_eq!(report.merged.requests(), 3_000);
    }

    #[test]
    fn foreign_elements_are_rejected_without_side_effects() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        let mut engine = engine(&sharded, Parallelism::Serial);
        let universe = sharded.universe();
        let err = engine.submit(ElementId::new(universe)).unwrap_err();
        assert!(matches!(err, ServeError::OutOfUniverse { .. }));
        assert!(err.to_string().contains("outside"));
        let report = engine.finish().unwrap();
        assert_eq!(report.requests, 0);
        assert_eq!(report.drains, 0);
    }

    #[test]
    fn offline_scenario_engines_reject_explicit_reshards() {
        let sharded = scenario(AlgorithmKind::StaticOpt, ShardRouter::Hash);
        let mut engine = engine(&sharded, Parallelism::Serial);
        let err = engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
            .unwrap_err();
        assert!(matches!(err, ServeError::ReshardUnsupported { .. }));
        assert!(err.to_string().contains("cannot reshard"));
        let err = engine
            .reshard_with(ReshardPlan::empty(), HandoverMode::Warm)
            .unwrap_err();
        assert!(matches!(err, ServeError::ReshardUnsupported { .. }));
        assert_eq!(engine.epoch(), 0);

        // A `Reshard` frame mid-stream is a rejected message, not a fatal
        // engine error: the queue keeps serving the scenario to the end.
        let (sender, queue) = ingest_channel_with_metrics(8, Arc::clone(engine.metrics()));
        let requests: Vec<ElementId> = sharded.stream().collect();
        let producer = std::thread::spawn(move || {
            let (head, tail) = requests.split_at(1_500);
            sender.send_burst(head.to_vec()).unwrap();
            sender
                .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
                .unwrap();
            sender.send_burst(tail.to_vec()).unwrap();
        });
        engine.serve_queue(&queue).unwrap();
        producer.join().unwrap();
        assert_eq!(engine.metrics().ingest_rejected.get(), 1);
        assert_eq!(engine.epoch(), 0);
        let report = engine.finish().unwrap();
        assert_eq!(report.requests, 3_000);
        assert_eq!(report.epoch_fingerprints.len(), 1);
    }

    #[test]
    fn warm_handover_keeps_untouched_shard_trees_verbatim() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        engine.drain().unwrap();
        let addresses = |engine: &ShardedEngine| -> Vec<*const u8> {
            engine
                .shards
                .iter()
                .map(|shard| &*shard.tree as *const dyn SelfAdjustingTree as *const u8)
                .collect()
        };
        let before = addresses(&engine);
        // The plan touches shards 0 (source) and 1 (destination) only.
        engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
            .unwrap();
        let after = addresses(&engine);
        // Untouched shards keep the exact same live tree object — zero
        // per-shard handover work, not merely an equal rebuild.
        assert_eq!(
            before[2], after[2],
            "shard 2 was rebuilt despite being untouched"
        );
        assert_eq!(
            before[3], after[3],
            "shard 3 was rebuilt despite being untouched"
        );
        assert_eq!(engine.epoch(), 1);
        assert_eq!(engine.partition().shard_of(ElementId::new(0)), Some(1));
        // The engine still serves and finishes cleanly on the carried trees.
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.requests, 6_000);
    }

    #[test]
    fn warm_engines_match_the_warm_serial_reference_replay() {
        for algorithm in [
            AlgorithmKind::RotorPush,
            AlgorithmKind::MaxPush,
            AlgorithmKind::RandomPush,
        ] {
            let mut sharded = scenario(algorithm, ShardRouter::Hash);
            sharded.reshard = satn_sim::ReshardSchedule::Manual(vec![
                ReshardEvent {
                    at: 1_000,
                    plan: ReshardPlan::new([(ElementId::new(0), 1), (ElementId::new(5), 2)]),
                },
                ReshardEvent {
                    at: 2_000,
                    plan: ReshardPlan::new([(ElementId::new(0), 3)]),
                },
            ]);
            let replay = sharded.epoch_replay(&SimRunner::new()).unwrap();
            for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
                let mut engine = ShardedEngineConfig::from_scenario(&sharded)
                    .parallelism(parallelism)
                    .drain_threshold(313)
                    .build()
                    .unwrap();
                for element in sharded.stream() {
                    engine.submit(element).unwrap();
                }
                let report = engine.finish().unwrap();
                report.verify_against(&replay).unwrap_or_else(|divergence| {
                    panic!("{algorithm:?} at {parallelism:?}: {divergence}")
                });
            }
        }
    }

    #[test]
    fn migrate_trace_detail_counts_touched_shards() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 1)]))
            .unwrap();
        let migrate = engine
            .tracer()
            .stamps()
            .into_iter()
            .find(|stamp| stamp.kind == TraceKind::ReshardMigrate)
            .expect("a reshard records a migrate span");
        assert_eq!(
            migrate.detail, 2,
            "migrate detail must be the touched-shard count, not migration cost"
        );
    }

    #[test]
    fn invalid_plans_leave_the_engine_usable() {
        let sharded = scenario(AlgorithmKind::MaxPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        let err = engine
            .reshard(ReshardPlan::new([(ElementId::new(0), 99)]))
            .unwrap_err();
        assert!(matches!(err, ServeError::Reshard(_)));
        assert_eq!(engine.epoch(), 0);
        // The engine still serves normally afterwards.
        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        let report = engine.finish().unwrap();
        assert_eq!(report.requests, 3_000);
    }

    #[test]
    fn offline_algorithms_reject_reshard_schedules() {
        let mut sharded = scenario(AlgorithmKind::StaticOpt, ShardRouter::Range);
        sharded.reshard = satn_sim::ReshardSchedule::Manual(vec![ReshardEvent {
            at: 100,
            plan: ReshardPlan::new([(ElementId::new(0), 1)]),
        }]);
        let err = ShardedEngineConfig::from_scenario(&sharded)
            .parallelism(Parallelism::Serial)
            .build()
            .map(|_| ())
            .unwrap_err();
        assert!(matches!(err, ServeError::ReshardUnsupported { .. }));
    }

    #[test]
    fn snapshot_readers_track_drain_boundaries() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = ShardedEngineConfig::from_scenario(&sharded)
            .parallelism(Parallelism::Serial)
            .drain_threshold(500)
            .build()
            .unwrap();
        let mut reader = engine.snapshots();
        assert_eq!(reader.snapshot().served(), 0);
        assert_eq!(reader.lookup(ElementId::new(0)).unwrap().epoch, 0);

        for element in sharded.stream() {
            engine.submit(element).unwrap();
        }
        engine.drain().unwrap();
        let at_drain = std::sync::Arc::clone(reader.snapshot());
        assert_eq!(at_drain.served(), 3_000);
        for shard in 0..engine.shards() {
            assert_eq!(at_drain.fingerprint(shard), engine.fingerprint(shard));
        }

        let report = engine.finish().unwrap();
        let final_snap = std::sync::Arc::clone(reader.snapshot());
        for (shard, shard_report) in report.per_shard.iter().enumerate() {
            assert_eq!(
                final_snap.fingerprint(shard as u32),
                shard_report.fingerprint,
                "published snapshot diverged from the final report on shard {shard}"
            );
        }
    }

    #[test]
    fn snapshots_follow_reshards_to_the_new_epoch() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Range);
        let mut engine = engine(&sharded, Parallelism::Serial);
        let mut reader = engine.snapshots();
        let moved = ElementId::new(0);
        let before = reader.lookup(moved).unwrap();
        assert_eq!((before.epoch, before.shard), (0, 0));
        engine.reshard(ReshardPlan::new([(moved, 2)])).unwrap();
        let after = reader.lookup(moved).unwrap();
        assert_eq!(
            (after.epoch, after.shard),
            (1, 2),
            "the post-reshard publication must route under the new partition"
        );
    }

    #[test]
    fn debug_output_names_the_configuration() {
        let sharded = scenario(AlgorithmKind::RotorPush, ShardRouter::Hash);
        let engine = engine(&sharded, Parallelism::Serial);
        let rendered = format!("{engine:?}");
        assert!(rendered.contains("ShardedEngine"));
        assert!(rendered.contains("universe"));
        assert!(rendered.contains("epoch"));
    }
}
