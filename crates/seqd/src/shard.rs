//! Per-service-shard workers: the online half of `AnalyzeByService`.
//!
//! The acceptor routes each record to a shard by service hash, so one
//! service's records always land on one worker and per-service arrival order
//! is preserved (the property the paper's "no crossover with patterns
//! between different services" scale-out relies on). Each worker:
//!
//! 1. scans the message and matches it against the service's published
//!    [`PatternSet`] (an `Arc` loaded from the [`PatternBoard`] — never
//!    blocked by re-mining),
//! 2. accumulates unmatched records as *residue* and per-pattern match
//!    counts,
//! 3. when the residue reaches the configured batch size — or one idle
//!    tick passes with a partial batch in hand, or the drain begins —
//!    hands a [`MineJob`] to the background [`Miner`] and immediately
//!    resumes draining — re-mining, publishing, retries and WAL release
//!    all happen off the ingest hot path (see [`crate::miner`]).
//!
//! When the mining queue is full the worker keeps its residue and keeps
//! draining — counted per record in `mine_overflow`, never dropped — up to
//! a hard cap (`residue_cap`), where it blocks for queue space: the same
//! backpressure-not-loss policy as the ingest queues.

use crate::metrics::{stages, Ops};
use crate::miner::{MineJob, Miner};
use crate::queue::{BoundedQueue, PushError};
use crate::swap::PatternBoard;
use crate::wal::{Accepted, IngestWal};
use sequence_core::{MatchScratch, Scanner, TokenizedMessage};
use sequence_rtg::LogRecord;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime};

/// How long a worker holding a partial batch waits for more input before
/// handing what it has to the miner. Only in force while residue or match
/// counts are pending — an empty-handed worker parks with no tick at all.
const IDLE_HANDOFF: Duration = Duration::from_millis(50);

/// Seconds since the Unix epoch — the `now` fed to the pattern store.
pub fn now_unix() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// The shard a service hashes to among `shards` shards. Shared by the
/// router and WAL recovery, so replayed records land on the shard the
/// *current* layout assigns even if `--shards` changed across the restart.
///
/// FNV-1a rather than `DefaultHasher`: SipHash costs ~50 ns per call on
/// the per-line ingest path, and its keyed/DoS-resistant properties buy
/// nothing here — service names are short, the hash is recomputed from
/// scratch on replay (never persisted), and a pathological skew merely
/// unbalances shards.
pub fn shard_for(service: &str, shards: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in service.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h % shards.max(1) as u64) as usize
}

/// The ingest-side router: hashes a record's service to a shard queue and
/// pushes with the backpressure policy (block up to the timeout, then
/// reject and count). With a WAL attached, accepted records are logged
/// before the connection receipt can be written.
#[derive(Debug)]
pub struct Router {
    queues: Vec<Arc<BoundedQueue<Accepted>>>,
    ops: Arc<Ops>,
    enqueue_timeout: Duration,
    wal: Option<Arc<IngestWal>>,
}

impl Router {
    /// A router over `queues` (one per shard), without durability.
    pub fn new(
        queues: Vec<Arc<BoundedQueue<Accepted>>>,
        ops: Arc<Ops>,
        enqueue_timeout: Duration,
    ) -> Router {
        assert!(!queues.is_empty(), "at least one shard");
        Router {
            queues,
            ops,
            enqueue_timeout,
            wal: None,
        }
    }

    /// Attach (or detach) the ingest WAL.
    pub fn with_wal(mut self, wal: Option<Arc<IngestWal>>) -> Router {
        self.wal = wal;
        self
    }

    /// The shard a service hashes to.
    pub fn shard_of(&self, service: &str) -> usize {
        shard_for(service, self.queues.len())
    }

    /// Route one record. Returns `false` (and bumps `rejected`) when the
    /// shard queue stayed full past the timeout or the daemon is draining.
    /// Accepted records are appended to the WAL (when one is attached);
    /// rejected ones never are.
    pub fn route(&self, record: LogRecord) -> bool {
        let shard = self.shard_of(&record.service);
        let queue = &self.queues[shard];
        let pushed = match &self.wal {
            Some(wal) => wal.append_route(shard, record, queue, self.enqueue_timeout),
            None => queue.push_timeout(Accepted::untracked(record), self.enqueue_timeout),
        };
        match pushed {
            Ok(()) => true,
            Err(PushError::Full) | Err(PushError::Closed) => {
                Ops::inc(&self.ops.rejected);
                false
            }
        }
    }

    /// Route a batch of records that all hash to shard `shard` (the caller
    /// groups by [`Router::shard_of`]). One queue lock, one WAL append,
    /// one condvar wake for the whole batch. Returns how many records from
    /// the *front* were accepted; the rest are counted `rejected`.
    pub fn route_batch(&self, shard: usize, records: Vec<LogRecord>) -> usize {
        let total = records.len();
        if total == 0 {
            return 0;
        }
        let queue = &self.queues[shard];
        let accepted = match &self.wal {
            Some(wal) => wal.append_route_batch(shard, records, queue, self.enqueue_timeout),
            None => {
                let batch: Vec<Accepted> = records.into_iter().map(Accepted::untracked).collect();
                queue.push_batch(batch, self.enqueue_timeout)
            }
        };
        if accepted < total {
            Ops::add(&self.ops.rejected, (total - accepted) as u64);
        }
        accepted
    }

    /// Fsync the WAL (no-op without one): the receipt barrier.
    pub fn sync_wal(&self) -> std::io::Result<()> {
        match &self.wal {
            Some(wal) => wal.sync(),
            None => Ok(()),
        }
    }

    /// Close every shard queue for pushes (drain begins).
    pub fn close(&self) {
        for q in &self.queues {
            q.close();
        }
    }

    /// Per-shard queue depths, for `/metrics`.
    pub fn depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.depth()).collect()
    }
}

/// Everything one worker thread needs.
pub struct ShardWorker {
    /// Shard index (metrics labels, diagnostics).
    pub shard_id: usize,
    /// This shard's input queue.
    pub queue: Arc<BoundedQueue<Accepted>>,
    /// The mining executor residue is handed off to.
    pub miner: Arc<Miner>,
    /// The published pattern sets.
    pub board: Arc<PatternBoard>,
    /// Shared counters.
    pub ops: Arc<Ops>,
    /// Residue size that triggers a mining handoff.
    pub batch_size: usize,
    /// Residue size at which a full mining queue makes the worker *block*
    /// for space instead of accumulating further (backpressure ceiling).
    pub residue_cap: usize,
    /// Gauge of this shard's current residue length.
    pub residue_len: Arc<AtomicUsize>,
    /// Records recovered from the WAL, processed before the live queue.
    pub replay: Vec<Accepted>,
    /// The message tokenizer (built from the engine's scanner options).
    pub scanner: Scanner,
}

impl ShardWorker {
    /// Run until the queue is closed and drained; hands remaining residue
    /// to the miner in one final blocking submission before returning.
    /// WAL-recovered records are processed first (counted `ingested` and
    /// `replayed`), preserving per-service order ahead of any live traffic.
    pub fn run(mut self) {
        let mut scratch = MatchScratch::default();
        // Reused token buffer: after the first few records the scan itself
        // allocates nothing (tokens are stored inline up to the cap).
        let mut tokens = TokenizedMessage::default();
        let mut residue: Vec<LogRecord> = Vec::new();
        let mut match_counts: HashMap<String, u64> = HashMap::new();
        // Per-service histogram handles, cached so the hot loop skips the
        // registry lock that `stages::service_match` takes per call.
        let mut svc_hists: HashMap<String, Arc<obs::Histogram>> = HashMap::new();
        // Highest WAL sequence this worker has fully taken charge of; a
        // flush releases the log up to here.
        let mut max_seq: u64 = 0;

        for accepted in std::mem::take(&mut self.replay) {
            Ops::inc(&self.ops.ingested);
            Ops::inc(&self.ops.replayed);
            self.process(
                accepted,
                &mut scratch,
                &mut tokens,
                &mut svc_hists,
                &mut residue,
                &mut match_counts,
                &mut max_seq,
            );
            self.maybe_handoff(&mut residue, &mut match_counts, max_seq);
        }

        // Pop in batches: one queue lock per burst instead of per record.
        // Empty-handed, the worker parks on the queue's condvar — no
        // periodic re-check tick; a close wakes it immediately. With a
        // partial batch in hand it switches to a timed pop, so one quiet
        // tick hands the residue (and pending match counts, releasing
        // their WAL range) to the miner instead of sitting on them until
        // the next burst.
        let pop_cap = self.batch_size.clamp(1, 512);
        loop {
            let popped = if residue.is_empty() && match_counts.is_empty() {
                self.queue.pop_batch_blocking(pop_cap)
            } else {
                match self.queue.pop_batch(pop_cap, IDLE_HANDOFF) {
                    Ok(batch) if batch.is_empty() => {
                        self.handoff(&mut residue, &mut match_counts, max_seq, false);
                        continue;
                    }
                    other => other,
                }
            };
            match popped {
                Ok(batch) => {
                    for accepted in batch {
                        self.process(
                            accepted,
                            &mut scratch,
                            &mut tokens,
                            &mut svc_hists,
                            &mut residue,
                            &mut match_counts,
                            &mut max_seq,
                        );
                        self.maybe_handoff(&mut residue, &mut match_counts, max_seq);
                    }
                }
                Err(()) => {
                    // Closed and drained: hand over whatever is left. The
                    // blocking submit cannot lose it — a closed miner runs
                    // the job right here on this thread.
                    self.handoff(&mut residue, &mut match_counts, max_seq, true);
                    return;
                }
            }
        }
    }

    /// Match one accepted record, growing the residue or the match counts.
    #[allow(clippy::too_many_arguments)]
    fn process(
        &self,
        accepted: Accepted,
        scratch: &mut MatchScratch,
        tokens: &mut TokenizedMessage,
        svc_hists: &mut HashMap<String, Arc<obs::Histogram>>,
        residue: &mut Vec<LogRecord>,
        match_counts: &mut HashMap<String, u64>,
        max_seq: &mut u64,
    ) {
        let Accepted { seq, record } = accepted;
        *max_seq = (*max_seq).max(seq);
        let started = Instant::now();
        // Parse-only scan into the worker's reused token buffer: the raw
        // line is only needed again if the record joins the residue (it
        // keeps the LogRecord).
        self.scanner.scan_into(&record.message, tokens);
        let set = self.board.load(&record.service);
        let hit = set
            .as_deref()
            .and_then(|set| set.match_id_with(tokens, scratch));
        // Attribute construction is deferred behind the slow-ring's atomic
        // gate, so the per-record cost stays two atomic adds per histogram.
        let ns = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        stages::match_record().record_ns(ns);
        match svc_hists.get(record.service.as_str()) {
            Some(hist) => hist.record_ns(ns),
            None => {
                let hist = stages::service_match(&record.service);
                hist.record_ns(ns);
                svc_hists.insert(record.service.clone(), hist);
            }
        }
        let ring = obs::registry().slow();
        if ring.admits(ns) {
            ring.offer(
                "seqd.match",
                ns,
                vec![
                    ("shard", obs::AttrValue::U64(self.shard_id as u64)),
                    ("service", obs::AttrValue::Str(record.service.clone())),
                    ("tokens", obs::AttrValue::U64(tokens.tokens.len() as u64)),
                ],
            );
        }
        match hit {
            Some(id) => {
                Ops::inc(&self.ops.matched);
                match match_counts.get_mut(id) {
                    Some(n) => *n += 1,
                    None => {
                        match_counts.insert(id.to_string(), 1);
                    }
                }
            }
            None => {
                Ops::inc(&self.ops.unmatched);
                residue.push(record);
                self.residue_len.store(residue.len(), Ordering::Relaxed);
            }
        }
    }

    /// Hand off when the residue has reached the batch size. Below the
    /// backpressure ceiling a full mining queue just means "keep
    /// accumulating"; at the ceiling the worker blocks for space.
    fn maybe_handoff(
        &self,
        residue: &mut Vec<LogRecord>,
        match_counts: &mut HashMap<String, u64>,
        release_up_to: u64,
    ) {
        if residue.len() >= self.batch_size {
            let block = residue.len() >= self.residue_cap;
            self.handoff(residue, match_counts, release_up_to, block);
        }
    }

    /// Hand the accumulated residue and match counts to the miner as one
    /// [`MineJob`]. Non-blocking submissions that find the mining queue
    /// full give everything back untouched (counted in `mine_overflow`);
    /// blocking ones always succeed — a closed miner runs the job inline.
    /// The miner records the worker's pause in `seqd_mine_stall_seconds`.
    fn handoff(
        &self,
        residue: &mut Vec<LogRecord>,
        match_counts: &mut HashMap<String, u64>,
        release_up_to: u64,
        block: bool,
    ) {
        if residue.is_empty() && match_counts.is_empty() {
            return;
        }
        let job = MineJob {
            shard_id: self.shard_id,
            batch: std::mem::take(residue),
            counts: std::mem::take(match_counts),
            release_up_to,
            enqueued: Instant::now(),
        };
        let handed = if block {
            self.miner.submit_blocking(job);
            true
        } else {
            match self.miner.try_submit(job) {
                Ok(()) => true,
                Err(job) => {
                    // Queue full: take the records back and keep draining.
                    // One tick per record accumulated past the batch size.
                    *residue = job.batch;
                    *match_counts = job.counts;
                    Ops::inc(&self.ops.mine_overflow);
                    false
                }
            }
        };
        if handed {
            self.residue_len.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::miner::{MinerDeps, MiningEngine};
    use sequence_rtg::RtgConfig;

    fn record(service: &str, message: &str) -> LogRecord {
        LogRecord::new(service, message)
    }

    fn test_deps(
        engine: &Arc<MiningEngine>,
        board: &Arc<PatternBoard>,
        ops: &Arc<Ops>,
    ) -> MinerDeps {
        MinerDeps {
            engine: Arc::clone(engine),
            board: Arc::clone(board),
            ops: Arc::clone(ops),
            wal: None,
            retries: 0,
            backoff: Duration::from_millis(1),
            drain: Arc::new(crate::miner::DrainSignal::new()),
        }
    }

    fn test_worker(
        queue: &Arc<BoundedQueue<Accepted>>,
        miner: Arc<Miner>,
        board: &Arc<PatternBoard>,
        ops: &Arc<Ops>,
    ) -> ShardWorker {
        ShardWorker {
            shard_id: 0,
            queue: Arc::clone(queue),
            miner,
            board: Arc::clone(board),
            ops: Arc::clone(ops),
            batch_size: 1_000, // only the drain handoff fires
            residue_cap: 8_000,
            residue_len: Arc::new(AtomicUsize::new(0)),
            replay: Vec::new(),
            scanner: Scanner::with_options(RtgConfig::default().scanner),
        }
    }

    fn test_setup(
        queue_capacity: usize,
        shards: usize,
    ) -> (Router, Vec<Arc<BoundedQueue<Accepted>>>, Arc<Ops>) {
        let queues: Vec<_> = (0..shards)
            .map(|_| Arc::new(BoundedQueue::new(queue_capacity)))
            .collect();
        let ops = Arc::new(Ops::new());
        let router = Router::new(queues.clone(), Arc::clone(&ops), Duration::from_millis(10));
        (router, queues, ops)
    }

    /// The acceptance-criteria backpressure scenario: 1-slot queue, stalled
    /// shard (no worker running). Ingest gets a reject — no OOM, no panic —
    /// and the `rejected` counter increments.
    #[test]
    fn stalled_shard_rejects_and_counts() {
        let (router, queues, ops) = test_setup(1, 1);
        assert!(router.route(record("svc", "first fills the only slot")));
        assert!(!router.route(record("svc", "second must be rejected")));
        assert!(!router.route(record("svc", "third too")));
        assert_eq!(ops.snapshot().rejected, 2);
        // Bounded: the queue still holds exactly its one slot.
        assert_eq!(queues[0].depth(), 1);
        assert_eq!(router.depths(), vec![1]);
    }

    #[test]
    fn route_batch_counts_the_rejected_suffix() {
        let (router, queues, ops) = test_setup(2, 1);
        let records: Vec<LogRecord> = (0..5)
            .map(|i| record("svc", &format!("event {i}")))
            .collect();
        assert_eq!(router.route_batch(0, records), 2);
        assert_eq!(ops.snapshot().rejected, 3);
        assert_eq!(queues[0].depth(), 2);
        assert_eq!(router.route_batch(0, Vec::new()), 0);
    }

    #[test]
    fn closed_router_rejects_with_count() {
        let (router, _queues, ops) = test_setup(8, 2);
        router.close();
        assert!(!router.route(record("svc", "too late")));
        assert_eq!(ops.snapshot().rejected, 1);
    }

    #[test]
    fn same_service_always_routes_to_same_shard() {
        let (router, queues, _ops) = test_setup(64, 4);
        for i in 0..32 {
            assert!(router.route(record("sshd", &format!("event {i}"))));
        }
        let populated: Vec<usize> = queues.iter().map(|q| q.depth()).collect();
        assert_eq!(populated.iter().sum::<usize>(), 32);
        assert_eq!(
            populated.iter().filter(|&&d| d > 0).count(),
            1,
            "one service must land on exactly one shard: {populated:?}"
        );
        assert_eq!(router.shard_of("sshd"), router.shard_of("sshd"));
        assert_eq!(router.shard_of("sshd"), shard_for("sshd", 4));
    }

    /// Drive a worker end to end in-process: unmatched residue is mined on
    /// drain, the set is published, and a second pass matches against it.
    #[test]
    fn worker_mines_residue_and_publishes_on_drain() {
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let board = Arc::new(PatternBoard::new());
        let engine = Arc::new(MiningEngine::in_memory(RtgConfig::default()));
        let miner = Arc::new(Miner::inline(test_deps(&engine, &board, &ops)));
        let worker = test_worker(&queue, miner, &board, &ops);
        for user in ["alice", "bob", "carol"] {
            queue
                .push_timeout(
                    Accepted::untracked(record("sshd", &format!("session opened for user {user}"))),
                    Duration::from_millis(10),
                )
                .unwrap();
        }
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.unmatched, 3);
        assert_eq!(s.matched, 0);
        assert_eq!(s.remines, 1);
        assert_eq!(s.dropped, 0);
        assert!(s.swaps >= 1);
        let set = board.load("sshd").expect("published set");
        let msg = Scanner::new().scan("session opened for user mallory");
        assert!(set.match_message(&msg).is_some());
        // Store got the discovery too.
        let mut store = engine.store().lock().unwrap();
        assert_eq!(store.pattern_count().unwrap(), 1);
    }

    /// Matched records bump the store's statistics via the bulk path.
    #[test]
    fn worker_records_match_stats_in_bulk() {
        let engine = Arc::new(MiningEngine::in_memory(RtgConfig::default()));
        let board = Arc::new(PatternBoard::new());
        // Pre-mine one pattern and publish it, as a prior job would (its
        // own throwaway counters: the assertions below watch the live run).
        let pattern_id = {
            let seed_ops = Arc::new(Ops::new());
            let seeder = Miner::inline(test_deps(&engine, &board, &seed_ops));
            let batch: Vec<LogRecord> = ["alice", "bob", "carol"]
                .iter()
                .map(|u| record("sshd", &format!("session opened for user {u}")))
                .collect();
            seeder
                .try_submit(MineJob {
                    shard_id: 0,
                    batch,
                    counts: HashMap::new(),
                    release_up_to: 0,
                    enqueued: Instant::now(),
                })
                .unwrap();
            engine
                .store()
                .lock()
                .unwrap()
                .patterns(Some("sshd"))
                .unwrap()[0]
                .id
                .clone()
        };
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let miner = Arc::new(Miner::inline(test_deps(&engine, &board, &ops)));
        let worker = test_worker(&queue, miner, &board, &ops);
        for user in ["dave", "erin"] {
            queue
                .push_timeout(
                    Accepted::untracked(record("sshd", &format!("session opened for user {user}"))),
                    Duration::from_millis(10),
                )
                .unwrap();
        }
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.matched, 2);
        assert_eq!(s.unmatched, 0);
        let mut store = engine.store().lock().unwrap();
        let stored = &store.patterns(Some("sshd")).unwrap()[0];
        assert_eq!(stored.id, pattern_id);
        assert_eq!(stored.count, 3 + 2);
    }

    /// A transiently failing store is retried within the bounded budget and
    /// the batch survives; nothing is dropped.
    #[test]
    fn flush_retries_through_transient_store_failures() {
        use std::sync::atomic::AtomicU32;
        let mut store = patterndb::PatternStore::in_memory();
        let remaining = Arc::new(AtomicU32::new(2)); // first two write ops fail
        let gate = Arc::clone(&remaining);
        store.set_fault_hook(Some(Arc::new(move |_op: &str| {
            gate.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_ok()
        })));
        let (engine, _seed) = MiningEngine::new(store, RtgConfig::default()).unwrap();
        let engine = Arc::new(engine);
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let board = Arc::new(PatternBoard::new());
        let mut deps = test_deps(&engine, &board, &ops);
        deps.retries = 4;
        let miner = Arc::new(Miner::inline(deps));
        let worker = test_worker(&queue, miner, &board, &ops);
        for user in ["alice", "bob", "carol"] {
            queue
                .push_timeout(
                    Accepted::untracked(record("sshd", &format!("session opened for user {user}"))),
                    Duration::from_millis(10),
                )
                .unwrap();
        }
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.dropped, 0, "retries must absorb transient failures");
        assert_eq!(s.remines, 1);
        let mut store = engine.store().lock().unwrap();
        assert_eq!(store.pattern_count().unwrap(), 1);
    }

    /// A permanently failing store exhausts the budget: the batch is
    /// dropped *and counted* — the silent-drop bug this PR fixes.
    #[test]
    fn exhausted_flush_retries_count_dropped_records() {
        let mut store = patterndb::PatternStore::in_memory();
        store.set_fault_hook(Some(Arc::new(|op: &str| op == "begin")));
        let (engine, _seed) = MiningEngine::new(store, RtgConfig::default()).unwrap();
        let engine = Arc::new(engine);
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let board = Arc::new(PatternBoard::new());
        let mut deps = test_deps(&engine, &board, &ops);
        deps.retries = 2;
        let miner = Arc::new(Miner::inline(deps));
        let worker = test_worker(&queue, miner, &board, &ops);
        // The ingest path counts `ingested`; this test bypasses it.
        Ops::add(&ops.ingested, 3);
        for i in 0..3 {
            queue
                .push_timeout(
                    Accepted::untracked(record("svc", &format!("event {i}"))),
                    Duration::from_millis(10),
                )
                .unwrap();
        }
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.dropped, 3, "the abandoned batch must be counted");
        assert_eq!(s.unmatched, 3, "dropped is a subset of unmatched");
        assert!(s.reconciles(), "{s:?}");
        assert_eq!(s.remines, 0);
    }

    /// Replay records are processed before live-queue records and counted
    /// as both ingested and replayed, keeping the invariant across a
    /// recovery.
    #[test]
    fn worker_processes_replay_before_queue() {
        let queue = Arc::new(BoundedQueue::new(64));
        let ops = Arc::new(Ops::new());
        let board = Arc::new(PatternBoard::new());
        let engine = Arc::new(MiningEngine::in_memory(RtgConfig::default()));
        let miner = Arc::new(Miner::inline(test_deps(&engine, &board, &ops)));
        let mut worker = test_worker(&queue, miner, &board, &ops);
        worker.replay = (0..3)
            .map(|i| Accepted {
                seq: i + 1,
                record: record("sshd", &format!("recovered event {i}")),
            })
            .collect();
        // Live records are counted `ingested` by the ingest path, which
        // this test bypasses; mirror it for the pushed record.
        Ops::inc(&ops.ingested);
        queue
            .push_timeout(
                Accepted::untracked(record("sshd", "live event")),
                Duration::from_millis(10),
            )
            .unwrap();
        queue.close();
        worker.run();
        let s = ops.snapshot();
        assert_eq!(s.ingested, 4, "replayed records count as ingested here");
        assert_eq!(s.replayed, 3);
        assert!(s.reconciles(), "{s:?}");
    }
}
