//! Single-threaded layer replay: the benchmark calls each layer's public
//! functions on the workload's own input, in the order the daemon's
//! ingest path does, and times every call. It doubles as the
//! single-thread baseline, and it changes no layer's code.
//!
//! Per send unit (a tick or a chunk): parse each line with
//! `jsonlite::borrow::object_fields`, route by `shard_for`, append to the
//! ingest WAL (`IngestWal::append_route_batch`) and `sync`, pop the shard
//! queues, `Scanner::scan_into`, `PatternSet::match_message_with`; a
//! shard whose unmatched residue reaches the batch size is planned with
//! `plan_service` and committed with `commit_service`, as the miner does,
//! and what residue is left when the stream ends is mined the same way.

use crate::inputs::Input;
use crate::trace::{self, Span, Tracer};
use patterndb::PatternStore;
use seqd::queue::BoundedQueue;
use seqd::shard::shard_for;
use seqd::wal::{Accepted, IngestWal};
use sequence_core::{Analyzer, MatchScratch, PatternSet, Scanner, TokenizedMessage};
use sequence_rtg::{commit_service, plan_service, LogRecord, RtgConfig};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// How the replay is laid out for one workload.
pub struct Plan<'a> {
    pub input: &'a Input,
    /// Line ranges, one per send unit.
    pub units: &'a [(usize, usize)],
    /// Shards (the daemon's default) or 1 for the CLI's single batch.
    pub shards: usize,
    /// Residue size that triggers mining.
    pub batch_size: usize,
}

/// Work counts and span times of one replay.
#[derive(Debug, Default)]
pub struct Replay {
    pub wall_s: f64,
    pub lines: u64,
    pub tokens: u64,
    pub matched: u64,
    pub syncs: u64,
    pub analyzed: u64,
    pub discovered: u64,
    pub commits: u64,
    pub upserts: u64,
    pub spans: Vec<Span>,
}

impl Replay {
    /// Self time of span `name`, ns.
    pub fn self_ns(&self, name: &str) -> u64 {
        trace::self_times(&self.spans)
            .get(name)
            .copied()
            .unwrap_or(0)
    }
}

/// Copy a store directory (flat: the pattern database is a directory of
/// files).
pub fn copy_store(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        if entry.file_type()?.is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name()))?;
        }
    }
    Ok(())
}

/// Time `PatternStore::open` + `load_pattern_sets` on `store`; returns the
/// seconds taken and the patterns loaded.
pub fn time_load(store: &Path) -> Result<(f64, u64), String> {
    let t = Instant::now();
    let mut s = PatternStore::open(store).map_err(|e| format!("open: {e}"))?;
    let (sets, _bad) = s.load_pattern_sets().map_err(|e| format!("load: {e}"))?;
    let secs = t.elapsed().as_secs_f64();
    Ok((secs, sets.values().map(|s| s.len() as u64).sum()))
}

/// Run the replay over a private copy of `store` (or an empty store),
/// with a fresh WAL under `scratch`.
pub fn run(
    plan: &Plan,
    store: Option<&Path>,
    scratch: &Path,
    traced: bool,
) -> Result<Replay, String> {
    let _ = std::fs::remove_dir_all(scratch);
    let store_dir = scratch.join("store");
    match store {
        Some(src) => copy_store(src, &store_dir).map_err(|e| format!("copy store: {e}"))?,
        None => std::fs::create_dir_all(&store_dir).map_err(|e| format!("mkdir: {e}"))?,
    }
    let mut store = PatternStore::open(&store_dir).map_err(|e| format!("open: {e}"))?;
    let (mut sets, _bad) = store
        .load_pattern_sets()
        .map_err(|e| format!("load: {e}"))?;
    let (wal, _) =
        IngestWal::open(scratch.join("wal"), plan.shards, 256).map_err(|e| format!("wal: {e}"))?;
    // Each unit is popped in full before the next is appended, so one
    // unit's worth of slots never refuses a record.
    let widest = plan.units.iter().map(|(a, b)| b - a).max().unwrap_or(1);
    let queues: Vec<BoundedQueue<Accepted>> = (0..plan.shards)
        .map(|_| BoundedQueue::new(widest))
        .collect();
    let config = RtgConfig::default();
    let scanner = Scanner::with_options(config.scanner);
    let analyzer = Analyzer::with_options(config.analyzer);
    let mut scratch_match = MatchScratch::default();
    let mut tokens: Vec<TokenizedMessage> = Vec::new();
    let mut residue: Vec<Vec<LogRecord>> = vec![Vec::new(); plan.shards];
    let mut out = Replay::default();
    let mut t = Tracer::new(traced);

    let started = Instant::now();
    for (unit, &(from, to)) in plan.units.iter().enumerate() {
        let unit = unit as u64;
        let root = t.enter("replay.unit", unit);

        let s = t.enter("jsonlite.parse", unit);
        let mut records = Vec::with_capacity(to - from);
        for i in from..to {
            let line = plan.input.line(i);
            let [service, message] = jsonlite::borrow::object_fields(line, ["service", "message"])
                .map_err(|e| format!("line {i}: {e:?}"))?;
            records.push(LogRecord {
                service: service.ok_or("no service")?.into_owned(),
                message: message.ok_or("no message")?.into_owned(),
            });
        }
        t.exit(s);

        let s = t.enter("seqd.route", unit);
        let mut routed: Vec<Vec<LogRecord>> = vec![Vec::new(); plan.shards];
        for r in records {
            routed[shard_for(&r.service, plan.shards)].push(r);
        }
        t.exit(s);

        let s = t.enter("seqd.wal.append", unit);
        for (shard, recs) in routed.into_iter().enumerate() {
            let n = recs.len();
            if wal.append_route_batch(shard, recs, &queues[shard], Duration::ZERO) != n {
                return Err("replay queue refused a record".into());
            }
        }
        t.exit(s);

        let s = t.enter("seqd.wal.sync", unit);
        wal.sync().map_err(|e| format!("wal sync: {e}"))?;
        out.syncs += 1;
        t.exit(s);

        for shard in 0..plan.shards {
            let s = t.enter("seqd.queue.pop", unit);
            let popped = queues[shard]
                .pop_batch(usize::MAX, Duration::ZERO)
                .map_err(|_| "replay queue closed")?;
            t.exit(s);
            if tokens.len() < popped.len() {
                tokens.resize_with(popped.len(), TokenizedMessage::default);
            }

            let s = t.enter("core.scanner.scan", unit);
            for (a, tok) in popped.iter().zip(tokens.iter_mut()) {
                scanner.scan_into(&a.record.message, tok);
                out.tokens += tok.tokens.len() as u64;
            }
            t.exit(s);

            let s = t.enter("core.parser.match", unit);
            for (a, tok) in popped.into_iter().zip(tokens.iter()) {
                let hit = sets
                    .get(&a.record.service)
                    .and_then(|set| set.match_message_with(tok, &mut scratch_match));
                match hit {
                    Some(_) => out.matched += 1,
                    None => residue[shard].push(a.record),
                }
                out.lines += 1;
            }
            t.exit(s);

            if residue[shard].len() >= plan.batch_size {
                let batch = std::mem::take(&mut residue[shard]);
                mine(
                    &mut t,
                    unit,
                    &batch,
                    &scanner,
                    &analyzer,
                    &config,
                    &mut sets,
                    &mut store,
                    &mut scratch_match,
                    &mut out,
                )?;
            }
        }
        t.exit(root);
    }
    // The stream ends: each shard hands over what residue it still holds,
    // as the daemon's idle hand-off does once traffic pauses.
    let last = plan.units.len() as u64;
    for batch in residue.into_iter().filter(|r| !r.is_empty()) {
        let root = t.enter("replay.unit", last);
        mine(
            &mut t,
            last,
            &batch,
            &scanner,
            &analyzer,
            &config,
            &mut sets,
            &mut store,
            &mut scratch_match,
            &mut out,
        )?;
        t.exit(root);
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out.spans = t.spans().to_vec();
    Ok(out)
}

/// Plan and commit one residue batch per service, then publish the new
/// patterns into the replay's sets (the miner's job body).
#[allow(clippy::too_many_arguments)]
fn mine(
    t: &mut Tracer,
    unit: u64,
    batch: &[LogRecord],
    scanner: &Scanner,
    analyzer: &Analyzer,
    config: &RtgConfig,
    sets: &mut HashMap<String, PatternSet>,
    store: &mut PatternStore,
    scratch: &mut MatchScratch,
    out: &mut Replay,
) -> Result<(), String> {
    let mut by_service: HashMap<&str, Vec<&LogRecord>> = HashMap::new();
    for r in batch {
        by_service.entry(r.service.as_str()).or_default().push(r);
    }
    let mut services: Vec<&str> = by_service.keys().copied().collect();
    services.sort_unstable();
    let s = t.enter("rtg.analyze", unit);
    let plans: Vec<_> = services
        .iter()
        .map(|svc| {
            plan_service(
                scanner,
                analyzer,
                config,
                sets.get(*svc),
                scratch,
                &by_service[svc],
            )
        })
        .collect();
    t.exit(s);
    out.analyzed += batch.len() as u64;
    out.discovered += plans.iter().map(|p| p.discovered.len() as u64).sum::<u64>();

    let s = t.enter("patterndb.commit", unit);
    store.begin().map_err(|e| format!("begin: {e}"))?;
    let mut inserted = Vec::new();
    for (svc, plan) in services.iter().zip(&plans) {
        let outcome = commit_service(store, svc, plan, 0).map_err(|e| format!("commit: {e}"))?;
        out.upserts += outcome.new_patterns + outcome.updated_patterns;
        inserted.push((*svc, outcome.inserted));
    }
    store.commit().map_err(|e| format!("commit: {e}"))?;
    out.commits += 1;
    t.exit(s);

    for (svc, patterns) in inserted {
        let set = sets.entry(svc.to_string()).or_default();
        for (id, p) in patterns {
            set.insert(id, p);
        }
    }
    Ok(())
}

/// `analyze_by_service_parallel` on `records` from an empty in-memory
/// engine; returns the wall time.
pub fn time_parallel(records: &[LogRecord], threads: usize) -> Result<f64, String> {
    let mut rtg = sequence_rtg::SequenceRtg::in_memory(RtgConfig::default());
    let t = Instant::now();
    rtg.analyze_by_service_parallel(records, 0, threads)
        .map_err(|e| format!("parallel analysis: {e}"))?;
    Ok(t.elapsed().as_secs_f64())
}
