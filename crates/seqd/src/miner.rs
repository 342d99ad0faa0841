//! The background mining pipeline: re-mining off the ingest hot path.
//!
//! Shard workers used to run the whole flush — bulk match stats, re-mine,
//! publish, WAL release — inline, pausing ingest for the duration and
//! serializing every shard on one engine-wide lock. This module moves that
//! work to a small pool of mining threads fed by a bounded job queue:
//!
//! * A worker hands off `(residue batch, match counts, WAL high-water mark)`
//!   as a [`MineJob`] and immediately resumes draining its queue, matching
//!   new records against the *currently published* sets until the miner
//!   publishes fresh ones through the [`PatternBoard`].
//! * The engine-wide lock is split into per-piece locks inside
//!   [`MiningEngine`]: planning (scan, parse, analyse — the expensive part)
//!   holds only the one service's pattern-set lock, and committing holds the
//!   store lock only for the transaction. Jobs for different services never
//!   serialize on the compute.
//! * A second submission for a shard whose job is still queued *coalesces*
//!   into the pending job (counted in `mine_coalesced`) instead of queueing
//!   a stale re-mine behind it, so the queue holds at most one job per
//!   shard.
//! * The queue is bounded by *records*, not jobs. When it is full a worker
//!   keeps accumulating residue past its batch size (counted per record in
//!   `mine_overflow`, never dropped) up to a hard cap, where it blocks —
//!   the same backpressure-not-loss policy as the ingest queues.
//! * WAL release happens in the miner's post-commit step: a record's log
//!   entry survives until its fate (mined, matched, or counted dropped) is
//!   decided, preserving the crash-safety contract end to end.
//!
//! `--miners 0` selects [`Miner::inline`], which runs every job on the
//! submitting worker thread — byte-for-byte the old synchronous behaviour,
//! kept as the observational-equivalence baseline for tests.

use crate::metrics::{stages, Ops};
use crate::shard::now_unix;
use crate::swap::PatternBoard;
use crate::wal::IngestWal;
use patterndb::{PatternStore, StoreError};
use sequence_core::{Analyzer, EvolveOptions, MatchScratch, PatternSet, Scanner};
use sequence_rtg::{
    commit_evolution, commit_service, evolve_plan, plan_service, CommitOutcome, EvolveCommit,
    EvolvePlan, LogRecord, RtgConfig, ServiceEvolver, ServicePlan,
};
use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a mining job turns residue into patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvolveMode {
    /// Re-analyse each residue batch from scratch with the batch trie
    /// (`analyze_by_service` semantics) — the equivalence baseline.
    #[default]
    Batch,
    /// Feed residue lines one at a time into a live per-service evolving
    /// trie that induces, splits and merges patterns incrementally and
    /// emits deltas instead of whole re-mines (see `DESIGN.md` §12).
    Online,
}

/// A drain signal that interrupts mining-retry backoff sleeps: once the
/// daemon starts draining, a commit-retry ladder must not hold `POST
/// /shutdown` for the full exponential backoff — remaining attempts run
/// back to back instead.
#[derive(Debug, Default)]
pub struct DrainSignal {
    tripped: AtomicBool,
    lock: Mutex<()>,
    wake: Condvar,
}

impl DrainSignal {
    /// A fresh, untripped signal.
    pub fn new() -> DrainSignal {
        DrainSignal::default()
    }

    /// Mark the drain as begun and wake every sleeper. Idempotent.
    pub fn trip(&self) {
        self.tripped.store(true, Ordering::SeqCst);
        let _guard = self.lock.lock().expect("drain lock");
        self.wake.notify_all();
    }

    /// Whether the drain has begun.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::SeqCst)
    }

    /// Sleep for `dur`, returning early (with `true`) if the drain begins —
    /// or began before the call. Returns `false` after a full sleep.
    pub fn sleep(&self, dur: Duration) -> bool {
        if self.is_tripped() {
            return true;
        }
        let guard = self.lock.lock().expect("drain lock");
        let (_guard, _timeout) = self
            .wake
            .wait_timeout_while(guard, dur, |_| !self.is_tripped())
            .expect("drain lock");
        self.is_tripped()
    }
}

/// One service's compiled set: the lock serializes the service's plan and
/// publish steps; the `Arc` inside is the one published on the board.
type SetCell = Arc<Mutex<Arc<PatternSet>>>;

/// The mining state shared between workers and miners, with the old
/// engine-wide lock split into the pieces that actually contend:
///
/// * `store` — one lock around the pattern store, held only for the brief
///   commit transactions and control-plane reads.
/// * `sets` — one lock *per service* around the service's compiled set,
///   held during that service's plan and publish steps. The registry map
///   itself is locked only to look a cell up. The cell holds the very
///   `Arc` the [`PatternBoard`] serves, so each service has one compiled
///   set in memory, not a private copy plus a published clone; a publish
///   builds the next set beside it and swaps both pointers.
///
/// Scanner, analyser and config are immutable and shared freely.
#[derive(Debug)]
pub struct MiningEngine {
    config: RtgConfig,
    scanner: Scanner,
    analyzer: Analyzer,
    evolve: EvolveMode,
    store: Mutex<PatternStore>,
    sets: Mutex<HashMap<String, SetCell>>,
    /// Per-service live evolution state ([`EvolveMode::Online`] only).
    /// Services are shard-affine, and per-shard jobs are serialized, so at
    /// most one job ever holds a given evolver's lock.
    evolvers: Mutex<HashMap<String, Arc<Mutex<ServiceEvolver>>>>,
}

impl MiningEngine {
    /// Build an engine over a pattern store, loading any persisted patterns.
    /// Returns the engine plus the loaded per-service sets for seeding the
    /// serving plane (the [`PatternBoard`]) — the same `Arc`s the engine
    /// holds, not copies.
    pub fn new(
        mut store: PatternStore,
        config: RtgConfig,
    ) -> Result<(MiningEngine, HashMap<String, Arc<PatternSet>>), StoreError> {
        let (loaded, _bad) = store.load_pattern_sets()?;
        let seed: HashMap<String, Arc<PatternSet>> = loaded
            .into_iter()
            .map(|(service, set)| (service, Arc::new(set)))
            .collect();
        let sets = seed
            .iter()
            .map(|(service, set)| (service.clone(), Arc::new(Mutex::new(Arc::clone(set)))))
            .collect();
        Ok((
            MiningEngine {
                config,
                scanner: Scanner::with_options(config.scanner),
                analyzer: Analyzer::with_options(config.analyzer),
                evolve: EvolveMode::Batch,
                store: Mutex::new(store),
                sets: Mutex::new(sets),
                evolvers: Mutex::new(HashMap::new()),
            },
            seed,
        ))
    }

    /// Select how mining jobs are executed (default [`EvolveMode::Batch`]).
    pub fn with_evolve(mut self, mode: EvolveMode) -> MiningEngine {
        self.evolve = mode;
        self
    }

    /// The active evolution mode.
    pub fn evolve_mode(&self) -> EvolveMode {
        self.evolve
    }

    /// An engine over a fresh in-memory store (tests).
    pub fn in_memory(config: RtgConfig) -> MiningEngine {
        MiningEngine::new(PatternStore::in_memory(), config)
            .expect("empty store loads")
            .0
    }

    /// The active configuration.
    pub fn config(&self) -> RtgConfig {
        self.config
    }

    /// The pattern store, for control-plane reads and the shutdown
    /// checkpoint. Mining holds this lock only across commit transactions.
    pub fn store(&self) -> &Mutex<PatternStore> {
        &self.store
    }

    /// The lock cell for one service's compiled set, created on first use.
    /// Cells are never removed, so the `Arc` stays valid across the whole
    /// daemon lifetime.
    fn service_set(&self, service: &str) -> SetCell {
        let mut sets = self.sets.lock().expect("sets lock");
        match sets.get(service) {
            Some(cell) => Arc::clone(cell),
            None => {
                let cell = Arc::new(Mutex::new(Arc::new(PatternSet::new())));
                sets.insert(service.to_string(), Arc::clone(&cell));
                cell
            }
        }
    }

    /// The lock cell for one service's live evolver, created (seeded from
    /// the service's current compiled set, so persisted patterns keep their
    /// store ids across a restart) on first use.
    fn service_evolver(&self, service: &str) -> Arc<Mutex<ServiceEvolver>> {
        let mut evolvers = self.evolvers.lock().expect("evolvers lock");
        match evolvers.get(service) {
            Some(cell) => Arc::clone(cell),
            None => {
                let opts = EvolveOptions {
                    analyzer: self.config.analyzer,
                    ..EvolveOptions::default()
                };
                let seed_cell = self.service_set(service);
                let seeded = {
                    let set = seed_cell.lock().expect("service set lock");
                    ServiceEvolver::seeded(opts, &set)
                };
                let cell = Arc::new(Mutex::new(seeded));
                evolvers.insert(service.to_string(), Arc::clone(&cell));
                cell
            }
        }
    }
}

/// One unit of handed-off mining work: a shard's residue snapshot plus the
/// ingest-time match counts accumulated alongside it.
#[derive(Debug)]
pub struct MineJob {
    /// The submitting shard (per-shard jobs are serialized, so one
    /// service's records are never mined out of order).
    pub shard_id: usize,
    /// Unmatched records to re-mine.
    pub batch: Vec<LogRecord>,
    /// Ingest-time matches to record in bulk, keyed by pattern id.
    pub counts: HashMap<String, u64>,
    /// Highest WAL sequence the shard has taken charge of; released after
    /// the job's fate is committed. Zero means nothing to release.
    pub release_up_to: u64,
    /// When the oldest records in this job were handed off (coalesced jobs
    /// keep the earlier stamp, so queue-wait reflects the worst record).
    pub enqueued: Instant,
}

impl MineJob {
    /// Fold a later submission for the same shard into this pending job.
    pub fn merge(&mut self, other: MineJob) {
        debug_assert_eq!(self.shard_id, other.shard_id);
        self.batch.extend(other.batch);
        for (id, n) in other.counts {
            *self.counts.entry(id).or_insert(0) += n;
        }
        self.release_up_to = self.release_up_to.max(other.release_up_to);
        self.enqueued = self.enqueued.min(other.enqueued);
    }

    fn is_trivial(&self) -> bool {
        self.batch.is_empty() && self.counts.is_empty() && self.release_up_to == 0
    }
}

/// Everything a mining run needs besides the job itself.
#[derive(Debug, Clone)]
pub struct MinerDeps {
    /// The split-lock mining state.
    pub engine: Arc<MiningEngine>,
    /// Where freshly compiled sets are published.
    pub board: Arc<PatternBoard>,
    /// Shared counters.
    pub ops: Arc<Ops>,
    /// The ingest WAL, released as jobs commit.
    pub wal: Option<Arc<IngestWal>>,
    /// Extra commit attempts after the first failure before dropping.
    pub retries: u32,
    /// Backoff before the first retry; doubles per subsequent attempt.
    pub backoff: Duration,
    /// Tripped when the daemon starts draining: pending retry backoffs are
    /// cut short so shutdown never waits out the full backoff ladder.
    pub drain: Arc<DrainSignal>,
}

/// Run one mining job to completion: plan each service under its set lock,
/// commit everything in one store transaction (retried with exponential
/// backoff up to the bounded budget, then abandoned and counted in
/// `Ops::dropped`), publish the affected services' new sets, and release
/// the job's records from the ingest WAL.
pub fn mine_job(deps: &MinerDeps, scratch: &mut MatchScratch, job: MineJob) {
    if job.is_trivial() {
        return;
    }
    if deps.engine.evolve == EvolveMode::Online {
        return evolve_job(deps, job);
    }
    let MineJob {
        shard_id,
        batch,
        counts,
        release_up_to,
        enqueued,
    } = job;
    stages::mine_queue_wait().record_ns(elapsed_ns(enqueued));
    let now = now_unix();
    let started = Instant::now();
    let counts: Vec<(String, u64)> = {
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_unstable(); // deterministic store write order
        v
    };
    let mut by_service: BTreeMap<&str, Vec<&LogRecord>> = BTreeMap::new();
    for r in &batch {
        by_service.entry(r.service.as_str()).or_default().push(r);
    }

    // The whole job still records as one `seqd.flush` — the name operators
    // (and the slow-ring tests) already watch for a re-mine.
    let mut flush_span = obs::span!("seqd.flush");
    flush_span.attr_u64("shard", shard_id as u64);
    flush_span.attr_u64("batch", batch.len() as u64);
    flush_span.attr_u64("match_counts", counts.len() as u64);
    flush_span.attr_u64("services", by_service.len() as u64);
    if let Some(first) = by_service.keys().next() {
        flush_span.attr_str("service", first);
    }

    // Plan phase: pure compute, one service-set lock at a time, store
    // untouched. Plans are reusable data, so a failed commit retries
    // without paying for the analysis again.
    let engine = &deps.engine;
    let plans: Vec<(&str, SetCell, ServicePlan)> = by_service
        .iter()
        .map(|(service, records)| {
            let cell = engine.service_set(service);
            let plan = {
                let set = cell.lock().expect("service set lock");
                plan_service(
                    &engine.scanner,
                    &engine.analyzer,
                    &engine.config,
                    Some(&set),
                    scratch,
                    records,
                )
            };
            (*service, cell, plan)
        })
        .collect();

    // Commit phase: store writes only, in the same order the single-lock
    // engine used (stats first, then the mined upserts in one transaction).
    let mut counts_done = counts.is_empty();
    let mut outcomes: Option<Vec<CommitOutcome>> = None;
    let mut attempt: u32 = 0;
    loop {
        {
            // The lock is scoped to one attempt: backoff sleeps must not
            // starve other jobs' commits.
            let mut store = engine.store.lock().expect("store lock");
            if !counts_done {
                match store.record_matches_bulk(&counts, now) {
                    Ok(()) => counts_done = true,
                    Err(e) => eprintln!(
                        "seqd[miner, shard {shard_id}]: recording match stats failed \
                         (attempt {attempt}): {e}"
                    ),
                }
            }
            if counts_done && outcomes.is_none() && !batch.is_empty() {
                match commit_plans(&mut store, &plans, now) {
                    Ok(committed) => outcomes = Some(committed),
                    Err(e) => eprintln!(
                        "seqd[miner, shard {shard_id}]: re-mining commit failed \
                         (attempt {attempt}): {e}"
                    ),
                }
            }
        }
        if counts_done && (outcomes.is_some() || batch.is_empty()) {
            break;
        }
        if attempt >= deps.retries {
            if outcomes.is_none() && !batch.is_empty() {
                // Abandon the batch: the transaction rolled back, so nothing
                // partial is in the store or the sets. Count the loss.
                Ops::add(&deps.ops.dropped, batch.len() as u64);
                eprintln!(
                    "seqd[miner, shard {shard_id}]: dropping {} residue records after {} attempts",
                    batch.len(),
                    attempt + 1
                );
            }
            if !counts_done {
                eprintln!(
                    "seqd[miner, shard {shard_id}]: abandoning match statistics for {} patterns",
                    counts.len()
                );
            }
            break;
        }
        // A drain begun mid-ladder cuts the backoff short: the remaining
        // attempts run back to back so shutdown is never held for it.
        deps.drain
            .sleep(deps.backoff * 2u32.saturating_pow(attempt));
        attempt += 1;
    }

    let core_ns = elapsed_ns(started);
    stages::mine().record_ns(core_ns);
    if !batch.is_empty() {
        // The miner *is* the analyse stage now; keep the rtg-level latency
        // series (and `/stats`'s analyze line) populated.
        obs::registry()
            .histogram(
                "rtg_analyze_seconds",
                "Time for one analyze_by_service batch (scan, mine, persist)",
            )
            .record_ns(core_ns);
    }

    // Publish phase: only a durable transaction mutates the in-memory sets,
    // so a rolled-back job leaves them exactly mirroring the store. Publish
    // *before* `record_remine` — pollers that watch `remine_runs` take the
    // bump to mean the new sets are visible.
    if let Some(outcomes) = outcomes {
        let mut publish_span = obs::span!("seqd.mine.publish");
        publish_span.attr_u64("shard", shard_id as u64);
        publish_span.attr_u64("services", plans.len() as u64);
        for ((service, cell, _plan), outcome) in plans.iter().zip(outcomes) {
            let published = {
                let mut set = cell.lock().expect("service set lock");
                if !outcome.inserted.is_empty() {
                    // Readers may still hold the current set, so the next
                    // one is built beside it; the old copy is freed when
                    // its last reader lets go.
                    let mut next = PatternSet::clone(&set);
                    next.extend(outcome.inserted);
                    *set = Arc::new(next);
                }
                Arc::clone(&set)
            };
            deps.board.publish(service, published);
            Ops::inc(&deps.ops.swaps);
        }
        deps.ops.record_remine(started.elapsed());
    }

    if release_up_to > 0 {
        if let Some(wal) = &deps.wal {
            let mut release_span = obs::span!("seqd.mine.wal_release");
            release_span.attr_u64("shard", shard_id as u64);
            release_span.attr_u64("up_to", release_up_to);
            if let Err(e) = wal.release(shard_id, release_up_to) {
                eprintln!("seqd[miner, shard {shard_id}]: wal release failed: {e}");
            }
        }
    }
}

/// Commit every plan in one transaction; rolled back wholesale on error so
/// retries start clean.
fn commit_plans(
    store: &mut PatternStore,
    plans: &[(&str, SetCell, ServicePlan)],
    now: u64,
) -> Result<Vec<CommitOutcome>, StoreError> {
    store.begin()?;
    let mut outcomes = Vec::with_capacity(plans.len());
    for (service, _cell, plan) in plans {
        match commit_service(store, service, plan, now) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => {
                store.rollback()?;
                return Err(e);
            }
        }
    }
    store.commit()?;
    Ok(outcomes)
}

/// Run one mining job through the *online* path: feed each service's
/// residue lines into its live [`ServiceEvolver`] (one line at a time, no
/// batch re-mine), then push the folded deltas through the same
/// commit-retry / publish / WAL-release machinery as the batch path.
///
/// The trie mutation happens once, in the plan phase; the folded
/// [`EvolvePlan`] is plain data, so commit retries never re-observe. If the
/// retry budget runs out the batch is dropped and counted exactly as in
/// batch mode — the evolver's internal state then runs slightly ahead of
/// the store until later traffic re-publishes the affected shapes.
fn evolve_job(deps: &MinerDeps, job: MineJob) {
    let MineJob {
        shard_id,
        batch,
        counts,
        release_up_to,
        enqueued,
    } = job;
    stages::mine_queue_wait().record_ns(elapsed_ns(enqueued));
    let now = now_unix();
    let started = Instant::now();
    let counts: Vec<(String, u64)> = {
        let mut v: Vec<_> = counts.into_iter().collect();
        v.sort_unstable();
        v
    };
    let mut by_service: BTreeMap<&str, Vec<&LogRecord>> = BTreeMap::new();
    for r in &batch {
        by_service.entry(r.service.as_str()).or_default().push(r);
    }

    let mut flush_span = obs::span!("seqd.flush");
    flush_span.attr_u64("shard", shard_id as u64);
    flush_span.attr_u64("batch", batch.len() as u64);
    flush_span.attr_u64("match_counts", counts.len() as u64);
    flush_span.attr_u64("services", by_service.len() as u64);
    flush_span.attr_str("mode", "evolve");
    if let Some(first) = by_service.keys().next() {
        flush_span.attr_str("service", first);
    }

    // Plan phase: one service-evolver lock at a time, store untouched. The
    // published-render → store-id map is captured with each plan so the
    // commit can attribute match counts without re-locking the evolver.
    let engine = &deps.engine;
    type EvolverPlans<'a> = Vec<(
        &'a str,
        Arc<Mutex<ServiceEvolver>>,
        EvolvePlan,
        HashMap<String, String>,
    )>;
    let plans: EvolverPlans = by_service
        .iter()
        .map(|(service, records)| {
            let cell = engine.service_evolver(service);
            let (plan, ids) = {
                let mut state = cell.lock().expect("service evolver lock");
                let plan = evolve_plan(&engine.scanner, &mut state, records);
                let ids = state.known_ids();
                (plan, ids)
            };
            (*service, cell, plan, ids)
        })
        .collect();

    // Commit phase: identical retry shape to the batch path — stats first,
    // then every service's deltas in one transaction.
    let mut counts_done = counts.is_empty();
    let mut outcomes: Option<Vec<EvolveCommit>> = None;
    let mut attempt: u32 = 0;
    loop {
        {
            let mut store = engine.store.lock().expect("store lock");
            if !counts_done {
                match store.record_matches_bulk(&counts, now) {
                    Ok(()) => counts_done = true,
                    Err(e) => eprintln!(
                        "seqd[miner, shard {shard_id}]: recording match stats failed \
                         (attempt {attempt}): {e}"
                    ),
                }
            }
            if counts_done && outcomes.is_none() && !batch.is_empty() {
                match commit_evolutions(&mut store, &plans, now) {
                    Ok(committed) => outcomes = Some(committed),
                    Err(e) => eprintln!(
                        "seqd[miner, shard {shard_id}]: evolution commit failed \
                         (attempt {attempt}): {e}"
                    ),
                }
            }
        }
        if counts_done && (outcomes.is_some() || batch.is_empty()) {
            break;
        }
        if attempt >= deps.retries {
            if outcomes.is_none() && !batch.is_empty() {
                Ops::add(&deps.ops.dropped, batch.len() as u64);
                eprintln!(
                    "seqd[miner, shard {shard_id}]: dropping {} residue records after {} attempts",
                    batch.len(),
                    attempt + 1
                );
            }
            if !counts_done {
                eprintln!(
                    "seqd[miner, shard {shard_id}]: abandoning match statistics for {} patterns",
                    counts.len()
                );
            }
            break;
        }
        deps.drain
            .sleep(deps.backoff * 2u32.saturating_pow(attempt));
        attempt += 1;
    }

    let core_ns = elapsed_ns(started);
    stages::mine().record_ns(core_ns);
    if !batch.is_empty() {
        obs::registry()
            .histogram(
                "rtg_analyze_seconds",
                "Time for one analyze_by_service batch (scan, mine, persist)",
            )
            .record_ns(core_ns);
    }

    // Publish phase: apply the committed deltas to the evolver's published
    // map, mirror the compiled set into the batch-path registry (so the
    // control plane and any later mode switch see one truth), and swap.
    if let Some(outcomes) = outcomes {
        let mut publish_span = obs::span!("seqd.mine.publish");
        publish_span.attr_u64("shard", shard_id as u64);
        publish_span.attr_u64("services", plans.len() as u64);
        for ((service, cell, plan, _ids), outcome) in plans.iter().zip(outcomes) {
            Ops::add(&deps.ops.evolve_added, plan.added.len() as u64);
            Ops::add(&deps.ops.evolve_removed, plan.removed.len() as u64);
            Ops::add(&deps.ops.evolve_evicted, plan.evicted);
            if outcome.uncredited > 0 {
                eprintln!(
                    "seqd[miner, shard {shard_id}]: {} lines uncredited for {service}",
                    outcome.uncredited
                );
            }
            let published = {
                let mut state = cell.lock().expect("service evolver lock");
                Arc::new(state.apply_commit(&plan.removed, &outcome))
            };
            let set_cell = engine.service_set(service);
            *set_cell.lock().expect("service set lock") = Arc::clone(&published);
            deps.board.publish(service, published);
            Ops::inc(&deps.ops.swaps);
        }
        if !batch.is_empty() {
            Ops::inc(&deps.ops.evolve_runs);
            deps.ops.record_remine(started.elapsed());
        }
    }

    if release_up_to > 0 {
        if let Some(wal) = &deps.wal {
            let mut release_span = obs::span!("seqd.mine.wal_release");
            release_span.attr_u64("shard", shard_id as u64);
            release_span.attr_u64("up_to", release_up_to);
            if let Err(e) = wal.release(shard_id, release_up_to) {
                eprintln!("seqd[miner, shard {shard_id}]: wal release failed: {e}");
            }
        }
    }
}

/// Commit every evolution plan in one transaction; rolled back wholesale on
/// error so retries start clean.
fn commit_evolutions(
    store: &mut PatternStore,
    plans: &[(
        &str,
        Arc<Mutex<ServiceEvolver>>,
        EvolvePlan,
        HashMap<String, String>,
    )],
    now: u64,
) -> Result<Vec<EvolveCommit>, StoreError> {
    store.begin()?;
    let mut outcomes = Vec::with_capacity(plans.len());
    for (service, _cell, plan, ids) in plans {
        match commit_evolution(store, service, plan, ids, now) {
            Ok(outcome) => outcomes.push(outcome),
            Err(e) => {
                store.rollback()?;
                return Err(e);
            }
        }
    }
    store.commit()?;
    Ok(outcomes)
}

fn elapsed_ns(since: Instant) -> u64 {
    since.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

/// What one pending-queue insertion did.
#[derive(Debug, PartialEq, Eq)]
enum Enqueued {
    /// Queued as a fresh job.
    Fresh,
    /// Merged into the shard's already-pending job.
    Coalesced,
}

/// The miner pool's shared queue state. At most one pending job per shard
/// (later submissions coalesce), and at most one *in-flight* job per shard
/// (`mining` gates pickup), so per-service mining order matches submission
/// order even with many threads.
#[derive(Debug, Default)]
struct PoolState {
    pending: HashMap<usize, MineJob>,
    /// Shard pickup order (FIFO by first submission).
    order: VecDeque<usize>,
    /// Shards whose job is currently being mined.
    mining: HashSet<usize>,
    /// Residue records across all pending jobs — the capacity unit.
    queued_records: usize,
    closed: bool,
}

impl PoolState {
    /// Try to queue or coalesce `job` within `capacity` residue records.
    /// An empty queue always accepts (a single oversized batch must still
    /// make progress). Gives the job back on `Err` so the caller can keep
    /// accumulating — backpressure, never loss.
    fn enqueue(&mut self, job: MineJob, capacity: usize) -> Result<Enqueued, MineJob> {
        let len = job.batch.len();
        if self.queued_records > 0 && self.queued_records + len > capacity {
            return Err(job);
        }
        self.queued_records += len;
        match self.pending.get_mut(&job.shard_id) {
            Some(pending) => {
                pending.merge(job);
                Ok(Enqueued::Coalesced)
            }
            None => {
                self.order.push_back(job.shard_id);
                self.pending.insert(job.shard_id, job);
                Ok(Enqueued::Fresh)
            }
        }
    }

    /// Pop the oldest pending job whose shard is not already being mined.
    fn pop_ready(&mut self) -> Option<MineJob> {
        let pos = self
            .order
            .iter()
            .position(|shard| !self.mining.contains(shard))?;
        let shard = self.order.remove(pos).expect("indexed position");
        let job = self.pending.remove(&shard).expect("ordered shard pending");
        self.mining.insert(shard);
        self.queued_records -= job.batch.len();
        Some(job)
    }
}

#[derive(Debug)]
struct PoolShared {
    deps: MinerDeps,
    state: Mutex<PoolState>,
    /// Signalled on enqueue, on a shard finishing (its next pending job
    /// becomes eligible), and on close.
    job_ready: Condvar,
    /// Signalled when records leave the queue, and on close.
    space: Condvar,
    capacity_records: usize,
}

/// The mining executor: either a background pool or the inline fallback
/// (`--miners 0`) that runs each job on the submitting thread.
#[derive(Debug)]
pub struct Miner(Mode);

#[derive(Debug)]
enum Mode {
    /// Run jobs synchronously on the caller — the old flush behaviour.
    Inline(MinerDeps),
    /// Run jobs on background mining threads.
    Pool {
        shared: Arc<PoolShared>,
        handles: Mutex<Vec<JoinHandle<()>>>,
    },
}

impl Miner {
    /// An inline miner: every submission mines on the calling thread.
    pub fn inline(deps: MinerDeps) -> Miner {
        Miner(Mode::Inline(deps))
    }

    /// A background pool of `threads` mining threads over a queue bounded
    /// at `capacity_records` residue records.
    pub fn background(deps: MinerDeps, threads: usize, capacity_records: usize) -> Miner {
        assert!(threads > 0, "a background pool needs at least one miner");
        let shared = Arc::new(PoolShared {
            deps,
            state: Mutex::new(PoolState::default()),
            job_ready: Condvar::new(),
            space: Condvar::new(),
            capacity_records: capacity_records.max(1),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("seqd-miner-{i}"))
                    .spawn(move || miner_thread(shared))
                    .expect("spawn miner thread")
            })
            .collect();
        Miner(Mode::Pool {
            shared,
            handles: Mutex::new(handles),
        })
    }

    /// Submit without blocking. `Err` returns the job untouched (queue at
    /// capacity) — the caller keeps its residue and tries again later.
    /// Inline miners and closed pools run the job on this thread instead,
    /// so a submission is never lost.
    ///
    /// The submitter-observed pause lands in `seqd_mine_stall_seconds`:
    /// queue admission (lock plus enqueue) for a pool, the whole mine for
    /// the inline paths. The wake of a pool thread is deliberately outside
    /// the measured window — it is asynchronous signalling, not admission,
    /// and on a single-core host the futex wake is a scheduler preemption
    /// point that would charge an arbitrary thread's timeslice to the
    /// handoff.
    pub fn try_submit(&self, job: MineJob) -> Result<(), MineJob> {
        if job.is_trivial() {
            return Ok(());
        }
        match &self.0 {
            Mode::Inline(deps) => {
                let stall = Instant::now();
                Ops::inc(&deps.ops.mine_jobs);
                mine_job(deps, &mut MatchScratch::default(), job);
                stages::mine_stall().record_ns(elapsed_ns(stall));
                Ok(())
            }
            Mode::Pool { shared, .. } => {
                let stall = Instant::now();
                let job = {
                    let mut state = shared.state.lock().expect("miner state lock");
                    if !state.closed {
                        let shard = job.shard_id;
                        match state.enqueue(job, shared.capacity_records) {
                            Ok(kind) => {
                                match kind {
                                    Enqueued::Fresh => Ops::inc(&shared.deps.ops.mine_jobs),
                                    Enqueued::Coalesced => {
                                        Ops::inc(&shared.deps.ops.mine_coalesced)
                                    }
                                }
                                stages::mine_stall().record_ns(elapsed_ns(stall));
                                // Wake a miner only when the job is
                                // actually eligible: a shard that is
                                // mining serialises behind its in-flight
                                // job, whose completion does its own wake.
                                if !state.mining.contains(&shard) {
                                    shared.job_ready.notify_one();
                                }
                                return Ok(());
                            }
                            Err(job) => {
                                stages::mine_stall().record_ns(elapsed_ns(stall));
                                return Err(job);
                            }
                        }
                    }
                    job
                };
                // Closed pool: the mining threads are exiting, so the
                // submitting (draining) worker mines inline.
                Ops::inc(&shared.deps.ops.mine_jobs);
                mine_job(&shared.deps, &mut MatchScratch::default(), job);
                stages::mine_stall().record_ns(elapsed_ns(stall));
                Ok(())
            }
        }
    }

    /// Submit, waiting for queue space if necessary. Never fails: a closed
    /// pool mines the job inline on this thread. The submitter's pause —
    /// including any wait for space, the backpressure ceiling in action —
    /// is recorded in `seqd_mine_stall_seconds`.
    pub fn submit_blocking(&self, job: MineJob) {
        if job.is_trivial() {
            return;
        }
        let stall = Instant::now();
        match &self.0 {
            Mode::Inline(deps) => {
                Ops::inc(&deps.ops.mine_jobs);
                mine_job(deps, &mut MatchScratch::default(), job);
                stages::mine_stall().record_ns(elapsed_ns(stall));
            }
            Mode::Pool { shared, .. } => {
                let mut job = job;
                {
                    let mut state = shared.state.lock().expect("miner state lock");
                    loop {
                        if state.closed {
                            break;
                        }
                        let shard = job.shard_id;
                        match state.enqueue(job, shared.capacity_records) {
                            Ok(kind) => {
                                match kind {
                                    Enqueued::Fresh => Ops::inc(&shared.deps.ops.mine_jobs),
                                    Enqueued::Coalesced => {
                                        Ops::inc(&shared.deps.ops.mine_coalesced)
                                    }
                                }
                                stages::mine_stall().record_ns(elapsed_ns(stall));
                                if !state.mining.contains(&shard) {
                                    shared.job_ready.notify_one();
                                }
                                return;
                            }
                            Err(back) => job = back,
                        }
                        state = shared.space.wait(state).expect("miner state lock");
                    }
                }
                Ops::inc(&shared.deps.ops.mine_jobs);
                mine_job(&shared.deps, &mut MatchScratch::default(), job);
                stages::mine_stall().record_ns(elapsed_ns(stall));
            }
        }
    }

    /// Pending jobs in the queue (0 for inline miners) — the
    /// `seqd_mine_queue_depth` gauge.
    pub fn queue_depth(&self) -> usize {
        match &self.0 {
            Mode::Inline(_) => 0,
            Mode::Pool { shared, .. } => {
                shared.state.lock().expect("miner state lock").pending.len()
            }
        }
    }

    /// Queued *plus* in-flight jobs (0 for inline miners): the whole
    /// mining backlog. `0` means the pool is quiescent — every handed-off
    /// batch has been mined, committed and WAL-released.
    pub fn backlog(&self) -> usize {
        match &self.0 {
            Mode::Inline(_) => 0,
            Mode::Pool { shared, .. } => {
                let state = shared.state.lock().expect("miner state lock");
                state.pending.len() + state.mining.len()
            }
        }
    }

    /// Stop accepting queued submissions. Pending jobs still run; later
    /// submissions mine inline on the submitting thread.
    pub fn close(&self) {
        if let Mode::Pool { shared, .. } = &self.0 {
            let mut state = shared.state.lock().expect("miner state lock");
            state.closed = true;
            shared.job_ready.notify_all();
            shared.space.notify_all();
        }
    }

    /// Wait for the mining threads to drain every pending job and exit.
    /// Call [`Miner::close`] first (after the shard workers have joined).
    pub fn join(&self) {
        if let Mode::Pool { handles, .. } = &self.0 {
            let handles: Vec<_> = handles
                .lock()
                .expect("miner handles lock")
                .drain(..)
                .collect();
            for h in handles {
                let _ = h.join();
            }
        }
    }
}

/// One mining thread: pick the oldest eligible job, mine it, repeat until
/// the pool is closed *and* drained. Per-shard eligibility (`mining`)
/// keeps one shard's jobs in submission order across the whole pool.
fn miner_thread(shared: Arc<PoolShared>) {
    let mut scratch = MatchScratch::default();
    loop {
        let job = {
            let mut state = shared.state.lock().expect("miner state lock");
            loop {
                if let Some(job) = state.pop_ready() {
                    shared.space.notify_all();
                    break job;
                }
                if state.closed && state.pending.is_empty() {
                    // Siblings may be parked here from when the queue still
                    // held jobs for in-flight shards; no further submission
                    // or completion will notify them, so chain the wake.
                    shared.job_ready.notify_all();
                    return;
                }
                state = shared.job_ready.wait(state).expect("miner state lock");
            }
        };
        let shard = job.shard_id;
        mine_job(&shared.deps, &mut scratch, job);
        let mut state = shared.state.lock().expect("miner state lock");
        state.mining.remove(&shard);
        if state.pending.contains_key(&shard) {
            // The shard queued another job while this one mined; it just
            // became eligible, so wake a (possibly waiting) thread for it.
            shared.job_ready.notify_one();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequence_core::Scanner;

    fn record(service: &str, message: &str) -> LogRecord {
        LogRecord::new(service, message)
    }

    fn sshd_batch() -> Vec<LogRecord> {
        ["alice", "bob", "carol"]
            .iter()
            .map(|u| record("sshd", &format!("session opened for user {u}")))
            .collect()
    }

    fn test_deps() -> MinerDeps {
        deps_for(MiningEngine::in_memory(RtgConfig::default()))
    }

    fn deps_for(engine: MiningEngine) -> MinerDeps {
        MinerDeps {
            engine: Arc::new(engine),
            board: Arc::new(PatternBoard::new()),
            ops: Arc::new(Ops::new()),
            wal: None,
            retries: 0,
            backoff: Duration::from_millis(1),
            drain: Arc::new(DrainSignal::new()),
        }
    }

    fn job(shard_id: usize, batch: Vec<LogRecord>) -> MineJob {
        MineJob {
            shard_id,
            batch,
            counts: HashMap::new(),
            release_up_to: 0,
            enqueued: Instant::now(),
        }
    }

    /// One compiled set per service: the engine's cell and the board serve
    /// the same `Arc`, after a store reload and after every publish.
    #[test]
    fn engine_cell_and_board_share_one_set() {
        let same = |deps: &MinerDeps, service: &str| {
            let cell = deps.engine.service_set(service);
            let held = Arc::clone(&cell.lock().unwrap());
            Arc::ptr_eq(&held, &deps.board.load(service).expect("published"))
        };
        let deps = test_deps();
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        assert!(same(&deps, "sshd"));
        // A job that mines nothing new republishes the same set, uncopied.
        let before = deps.board.load("sshd").unwrap();
        let mut counts = job(0, Vec::new());
        counts.counts.insert("some-id".into(), 3);
        miner.try_submit(counts).unwrap();
        assert!(Arc::ptr_eq(&before, &deps.board.load("sshd").unwrap()));
        miner
            .try_submit(job(0, vec![record("sshd", "disk full on sda")]))
            .unwrap();
        assert!(same(&deps, "sshd"));
        assert_eq!(deps.board.load("sshd").unwrap().len(), 2);

        // Restart: the sets the engine loads are the ones the board serves.
        let mut store = PatternStore::in_memory();
        let discovered = sequence_core::DiscoveredPattern {
            pattern: sequence_core::Pattern::parse("session opened for user %u%").unwrap(),
            match_count: 3,
            examples: vec!["session opened for user alice".into()],
            member_indices: Vec::new(),
        };
        store.upsert_discovered("sshd", &discovered, 0).unwrap();
        let (engine, seed) = MiningEngine::new(store, RtgConfig::default()).unwrap();
        let deps = deps_for(engine);
        deps.board.seed(seed);
        assert!(same(&deps, "sshd"));
    }

    #[test]
    fn inline_miner_mines_commits_and_publishes() {
        let deps = test_deps();
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let s = deps.ops.snapshot();
        assert_eq!(s.mine_jobs, 1);
        assert_eq!(s.remines, 1);
        assert_eq!(s.dropped, 0);
        assert!(s.swaps >= 1);
        let set = deps.board.load("sshd").expect("published set");
        let msg = Scanner::new().scan("session opened for user mallory");
        assert!(set.match_message(&msg).is_some());
        assert_eq!(
            deps.engine.store().lock().unwrap().pattern_count().unwrap(),
            1
        );
        assert_eq!(miner.queue_depth(), 0);
    }

    #[test]
    fn match_counts_commit_through_the_bulk_path() {
        let deps = test_deps();
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let id = deps
            .engine
            .store()
            .lock()
            .unwrap()
            .patterns(Some("sshd"))
            .unwrap()[0]
            .id
            .clone();
        let mut counts_only = job(0, Vec::new());
        counts_only.counts.insert(id.clone(), 5);
        miner.try_submit(counts_only).unwrap();
        let store = deps.engine.store();
        let p = &store.lock().unwrap().patterns(Some("sshd")).unwrap()[0];
        assert_eq!(p.count, 3 + 5);
        // A counts-only job is not a re-mine.
        assert_eq!(deps.ops.snapshot().remines, 1);
    }

    #[test]
    fn pool_state_coalesces_per_shard_and_bounds_by_records() {
        let mut state = PoolState::default();
        let early = Instant::now();
        let mut first = job(3, sshd_batch());
        first.enqueued = early;
        first.counts.insert("p1".into(), 2);
        first.release_up_to = 10;
        assert!(matches!(state.enqueue(first, 8), Ok(Enqueued::Fresh)));

        let mut second = job(3, vec![record("sshd", "another line here")]);
        second.counts.insert("p1".into(), 1);
        second.counts.insert("p2".into(), 4);
        second.release_up_to = 17;
        assert!(matches!(state.enqueue(second, 8), Ok(Enqueued::Coalesced)));
        assert_eq!(state.pending.len(), 1);
        assert_eq!(state.queued_records, 4);
        let merged = &state.pending[&3];
        assert_eq!(merged.batch.len(), 4);
        assert_eq!(merged.counts["p1"], 3);
        assert_eq!(merged.counts["p2"], 4);
        assert_eq!(merged.release_up_to, 17);
        assert_eq!(merged.enqueued, early, "coalescing keeps the oldest stamp");

        // A different shard over capacity bounces back intact…
        let rejected = state.enqueue(job(5, sshd_batch()), 6).unwrap_err();
        assert_eq!(rejected.shard_id, 5);
        assert_eq!(rejected.batch.len(), 3);
        // …and so does a further merge that would blow the record bound.
        assert!(state.enqueue(job(3, sshd_batch()), 6).is_err());
        // An empty queue accepts even an oversized batch (progress).
        let mut fresh = PoolState::default();
        assert!(matches!(
            fresh.enqueue(job(0, sshd_batch()), 1),
            Ok(Enqueued::Fresh)
        ));
    }

    #[test]
    fn pool_state_serializes_in_flight_shards() {
        let mut state = PoolState::default();
        state.enqueue(job(1, sshd_batch()), 100).unwrap();
        let first = state.pop_ready().expect("one ready job");
        assert_eq!(first.shard_id, 1);
        assert_eq!(state.queued_records, 0);
        // The same shard resubmits while in flight: queued but not ready.
        state.enqueue(job(1, sshd_batch()), 100).unwrap();
        assert!(state.pop_ready().is_none(), "shard 1 is still mining");
        // Another shard's job is picked around the blocked one.
        state.enqueue(job(2, sshd_batch()), 100).unwrap();
        assert_eq!(state.pop_ready().expect("shard 2 ready").shard_id, 2);
        // Finishing shard 1 makes its pending job eligible again.
        state.mining.remove(&1);
        assert_eq!(state.pop_ready().expect("shard 1 ready").shard_id, 1);
    }

    #[test]
    fn background_pool_drains_pending_jobs_on_join() {
        let deps = test_deps();
        let miner = Miner::background(deps.clone(), 2, 1_000);
        for shard in 0..4 {
            let batch = vec![
                record(&format!("svc-{shard}"), "connection reset by peer now"),
                record(&format!("svc-{shard}"), "connection reset by peer again"),
            ];
            miner.submit_blocking(job(shard, batch));
        }
        miner.close();
        miner.join();
        let s = deps.ops.snapshot();
        assert_eq!(s.mine_jobs + s.mine_coalesced, 4);
        assert_eq!(s.dropped, 0);
        for shard in 0..4 {
            assert!(
                deps.board.load(&format!("svc-{shard}")).is_some(),
                "svc-{shard} set published"
            );
        }
        assert_eq!(
            deps.engine.store().lock().unwrap().pattern_count().unwrap(),
            4
        );
    }

    #[test]
    fn closed_pool_mines_inline_instead_of_losing_the_job() {
        let deps = test_deps();
        let miner = Miner::background(deps.clone(), 1, 1_000);
        miner.close();
        miner.join();
        miner.submit_blocking(job(0, sshd_batch()));
        assert_eq!(deps.ops.snapshot().remines, 1);
        assert!(deps.board.load("sshd").is_some());
    }

    #[test]
    fn exhausted_retries_drop_and_count() {
        let mut store = PatternStore::in_memory();
        store.set_fault_hook(Some(Arc::new(|op: &str| op == "begin")));
        let (engine, _seed) = MiningEngine::new(store, RtgConfig::default()).unwrap();
        let mut deps = deps_for(engine);
        deps.retries = 2;
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let s = deps.ops.snapshot();
        assert_eq!(s.dropped, 3, "the abandoned batch must be counted");
        assert_eq!(s.remines, 0);
        assert!(deps.board.load("sshd").is_none(), "nothing published");
    }

    #[test]
    fn online_evolver_mines_commits_and_publishes() {
        let engine = MiningEngine::in_memory(RtgConfig::default()).with_evolve(EvolveMode::Online);
        assert_eq!(engine.evolve_mode(), EvolveMode::Online);
        let deps = deps_for(engine);
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let s = deps.ops.snapshot();
        assert_eq!(s.evolve_runs, 1);
        assert_eq!(s.remines, 1, "an evolve run still counts as a mine");
        assert!(s.evolve_added >= 1);
        assert_eq!(s.dropped, 0);
        assert!(s.swaps >= 1);
        let set = deps.board.load("sshd").expect("published set");
        let msg = Scanner::new().scan("session opened for user mallory");
        assert!(set.match_message(&msg).is_some());
        assert!(
            deps.engine.store().lock().unwrap().pattern_count().unwrap() >= 1,
            "evolution persists through the store"
        );
    }

    /// A reshaped pattern leaves the *published* set across two jobs (the
    /// delta path, which batch re-mining never exercises: it only inserts).
    #[test]
    fn online_evolver_retracts_superseded_patterns_across_jobs() {
        let engine = MiningEngine::in_memory(RtgConfig::default()).with_evolve(EvolveMode::Online);
        let deps = deps_for(engine);
        let miner = Miner::inline(deps.clone());
        miner
            .try_submit(job(0, vec![record("svc", "link up on alpha")]))
            .unwrap();
        let first = deps.board.load("svc").expect("published set");
        assert_eq!(first.len(), 1);
        miner
            .try_submit(job(0, vec![record("svc", "link up on beta")]))
            .unwrap();
        let second = deps.board.load("svc").expect("published set");
        assert_eq!(second.len(), 1, "singleton superseded, not accumulated");
        let s = deps.ops.snapshot();
        assert!(s.evolve_removed >= 1, "{s:?}");
        let msg = Scanner::new().scan("link up on gamma");
        assert!(second.match_message(&msg).is_some(), "merged to a variable");
    }

    /// The shutdown-stall regression: a draining daemon must not wait out
    /// the full exponential backoff ladder between commit retries.
    #[test]
    fn drain_signal_cuts_retry_backoff_short() {
        let mut store = PatternStore::in_memory();
        store.set_fault_hook(Some(Arc::new(|op: &str| op == "begin")));
        let (engine, _seed) = MiningEngine::new(store, RtgConfig::default()).unwrap();
        let mut deps = deps_for(engine);
        deps.retries = 3;
        // Untripped, the ladder would sleep 5 + 10 + 20 seconds.
        deps.backoff = Duration::from_secs(5);
        deps.drain.trip();
        let miner = Miner::inline(deps.clone());
        let started = Instant::now();
        miner.try_submit(job(0, sshd_batch())).unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "drain did not interrupt the backoff: {:?}",
            started.elapsed()
        );
        // The retry budget itself is preserved — attempts still happen and
        // the batch is dropped and counted, exactly as without a drain.
        assert_eq!(deps.ops.snapshot().dropped, 3);
    }

    /// The same interruption mid-sleep: trip from another thread while the
    /// first backoff is in progress.
    #[test]
    fn drain_signal_wakes_a_sleeper_mid_backoff() {
        let signal = Arc::new(DrainSignal::new());
        let tripper = Arc::clone(&signal);
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            tripper.trip();
        });
        let started = Instant::now();
        let interrupted = signal.sleep(Duration::from_secs(30));
        assert!(interrupted);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "sleeper not woken: {:?}",
            started.elapsed()
        );
        t.join().unwrap();
        // And a pre-tripped signal does not sleep at all.
        let started = Instant::now();
        assert!(signal.sleep(Duration::from_secs(30)));
        assert!(started.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn failed_commit_retries_reuse_the_plan() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut store = PatternStore::in_memory();
        let remaining = Arc::new(AtomicU32::new(2)); // first two write ops fail
        let gate = Arc::clone(&remaining);
        store.set_fault_hook(Some(Arc::new(move |_op: &str| {
            gate.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        })));
        let (engine, _seed) = MiningEngine::new(store, RtgConfig::default()).unwrap();
        let mut deps = deps_for(engine);
        deps.retries = 4;
        let miner = Miner::inline(deps.clone());
        miner.try_submit(job(0, sshd_batch())).unwrap();
        let s = deps.ops.snapshot();
        assert_eq!(s.dropped, 0, "retries must absorb transient failures");
        assert_eq!(s.remines, 1);
        assert_eq!(
            deps.engine.store().lock().unwrap().pattern_count().unwrap(),
            1
        );
    }
}
