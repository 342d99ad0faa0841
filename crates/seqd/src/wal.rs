//! The ingest write-ahead log: crash safety for accepted-but-unmined records.
//!
//! Without it, a record the daemon has *receipted* lives only in a shard
//! queue or a worker's in-memory residue until the next flush — a `kill -9`
//! silently loses it and the paper's "production-ready" claim with it. The
//! WAL closes that window:
//!
//! * every accepted record is appended to its shard's log **before** the
//!   connection receipt goes out (the receipt path fsyncs the logs first,
//!   batched with [`IngestWal::sync`]);
//! * after a worker flush lands the records in the pattern store, the shard
//!   log is truncated down to what is still outstanding
//!   ([`IngestWal::release`], a write-temp-then-rename rewrite);
//! * on start, leftover logs are replayed: surviving records are re-routed
//!   (the shard count may have changed), re-logged, and handed to the
//!   workers as pre-queue residue, so
//!   `ingested = matched + unmatched + rejected + malformed` holds across
//!   the crash.
//!
//! The format is the ingest wire format itself: one
//! [`LogRecord::to_json_line`] per line. `to_json_line` escapes `\n`, so a
//! record can never span lines, and a crash mid-append leaves at most one
//! torn *final* line, which replay drops — exactly the semantics of the
//! receipt (an unreceipted record may be lost; a receipted one may not).
//!
//! Guarantee grade: **at-least-once**. A crash between the store commit and
//! the log release replays records that were already mined; re-mining them
//! bumps pattern match counts but converges to the same pattern *sets*.

use crate::queue::{BoundedQueue, PushError};
use crate::shard::shard_for;
use sequence_rtg::LogRecord;
use std::collections::VecDeque;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Duration;

/// A record accepted into a shard queue, tagged with its WAL sequence
/// number. Sequences are per-shard and start at 1; `0` marks a record
/// accepted while the WAL is disabled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Accepted {
    /// Per-shard WAL sequence (0 = untracked).
    pub seq: u64,
    /// The accepted record.
    pub record: LogRecord,
}

impl Accepted {
    /// A record accepted without durability tracking.
    pub fn untracked(record: LogRecord) -> Accepted {
        Accepted { seq: 0, record }
    }
}

/// One shard's log state, guarded by a mutex so the append+enqueue pair is
/// atomic with respect to [`IngestWal::release`] — a released sequence can
/// never race ahead of its queue entry.
///
/// The record bodies live only on disk: memory holds 16 bytes per pending
/// record (its sequence and where its line ends), so a deep backlog costs
/// the log file, not the heap. Offsets are *logical*: they count every byte
/// ever appended to this shard's log, and `base` is the logical offset of
/// the current file's first byte, so a release rewrite moves `base` instead
/// of renumbering the survivors.
#[derive(Debug)]
struct ShardWal {
    path: PathBuf,
    file: File,
    next_seq: u64,
    /// `(seq, end)` of each record still covered by the on-disk log, oldest
    /// first; `end` is the logical offset just past the record's newline.
    pending: VecDeque<(u64, u64)>,
    /// Logical offset of the file's first byte.
    base: u64,
    /// Logical offset of the file's end (the next append's start).
    end: u64,
    appends_since_sync: usize,
    dirty: bool,
}

impl ShardWal {
    fn append(&mut self, seq: u64, line: String, sync_every: usize) -> io::Result<()> {
        self.append_batch(seq, vec![line], sync_every)
    }

    /// Append a contiguous run of already-sequenced lines with a single
    /// `write_all` — one syscall per batch instead of two per record.
    fn append_batch(
        &mut self,
        base_seq: u64,
        lines: Vec<String>,
        sync_every: usize,
    ) -> io::Result<()> {
        let started = std::time::Instant::now();
        let total: usize = lines.iter().map(|l| l.len() + 1).sum();
        let mut buf = Vec::with_capacity(total);
        for line in &lines {
            buf.extend_from_slice(line.as_bytes());
            buf.push(b'\n');
        }
        if let Err(e) = self.file.write_all(&buf) {
            // Cut a partial write back off, so the next append does not
            // glue its first record onto a torn line.
            let len = self.end - self.base;
            let _ = self.file.set_len(len);
            let _ = self.file.seek(SeekFrom::Start(len));
            return Err(e);
        }
        crate::metrics::stages::wal_append().record(started.elapsed());
        for (i, line) in lines.iter().enumerate() {
            self.end += line.len() as u64 + 1;
            self.pending.push_back((base_seq + i as u64, self.end));
        }
        self.dirty = true;
        self.appends_since_sync += lines.len();
        if self.appends_since_sync >= sync_every {
            self.sync()?;
        }
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.dirty {
            let started = std::time::Instant::now();
            self.file.sync_data()?;
            crate::metrics::stages::wal_fsync().record(started.elapsed());
            self.dirty = false;
            self.appends_since_sync = 0;
        }
        Ok(())
    }

    /// Rewrite the log to its tail from logical offset `cut` (write temp,
    /// fsync, rename over), copying the surviving lines from the file
    /// itself. The temp name matches no recovery glob, so a crash
    /// mid-rewrite is recovered from the untouched original.
    fn rewrite_from(&mut self, cut: u64) -> io::Result<()> {
        let tmp = self.path.with_extension("rewrite");
        let mut file = File::create(&tmp)?;
        let mut tail = File::open(&self.path)?;
        tail.seek(SeekFrom::Start(cut - self.base))?;
        let copied = io::copy(&mut tail.take(self.end - cut), &mut file)?;
        if copied != self.end - cut {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "wal shorter than its pending records",
            ));
        }
        file.sync_data()?;
        fs::rename(&tmp, &self.path)?;
        // The renamed handle *is* the live log now; keep appending to it.
        self.file = file;
        self.base = cut;
        self.dirty = false;
        self.appends_since_sync = 0;
        Ok(())
    }
}

/// The per-shard ingest write-ahead log. One instance serves the whole
/// daemon; all methods take `&self` and lock only the touched shard.
#[derive(Debug)]
pub struct IngestWal {
    shards: Vec<Mutex<ShardWal>>,
    sync_every: usize,
}

impl IngestWal {
    /// Open (or create) the log directory for `shards` shards, replaying
    /// whatever a previous process left behind. Returns the WAL plus, per
    /// shard, the recovered records (already re-logged under fresh
    /// sequences) for the workers to process before their queues.
    ///
    /// Recovery is shard-count agnostic: leftover records are re-routed by
    /// the *current* `shard_for` hash, so a restart with a different
    /// `--shards` keeps per-service ordering intact.
    pub fn open(
        dir: impl AsRef<Path>,
        shards: usize,
        sync_every: usize,
    ) -> io::Result<(IngestWal, Vec<Vec<Accepted>>)> {
        let dir = dir.as_ref();
        let shards = shards.max(1);
        fs::create_dir_all(dir)?;
        // The whole recovery — read leftovers, stage, re-route, re-log —
        // is one replay observation; a slow one shows up in /debug/slow.
        let mut replay_span = obs::span!("seqd.wal_replay");

        // 1. Read every leftover log. `.wal` files are the previous run's
        // logs; `.staged` files are from a recovery that itself crashed
        // (duplicates possible — at-least-once, see the module docs).
        // Stray `.rewrite` temps are superseded by their `.wal` original.
        let mut leftovers: Vec<PathBuf> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if name.ends_with(".wal") || name.ends_with(".staged") {
                leftovers.push(path);
            } else if name.ends_with(".rewrite") {
                let _ = fs::remove_file(&path);
            }
        }
        leftovers.sort();
        let mut recovered: Vec<LogRecord> = Vec::new();
        for path in &leftovers {
            let bytes = fs::read(path)?;
            for line in complete_lines(&bytes) {
                if let Ok(record) = LogRecord::from_json_line(line) {
                    recovered.push(record);
                }
            }
        }

        // 2. Stage the leftovers out of the `.wal` namespace before writing
        // fresh logs: if we crash after this point, the staged copies are
        // still read by the next recovery, so nothing is lost (only
        // possibly duplicated).
        for (i, path) in leftovers.iter().enumerate() {
            if path.extension().and_then(|e| e.to_str()) == Some("wal") {
                fs::rename(path, dir.join(format!("recover-{i}.staged")))?;
            }
        }

        // 3. Re-route the survivors into fresh per-shard logs and pending
        // queues. Per-service order is preserved: a service's records sit
        // in one leftover file in arrival order and hash to one new shard.
        let mut shard_wals = Vec::with_capacity(shards);
        let mut replay: Vec<Vec<Accepted>> = (0..shards).map(|_| Vec::new()).collect();
        for shard in 0..shards {
            let path = dir.join(format!("shard-{shard}.wal"));
            let file = OpenOptions::new()
                .create(true)
                .write(true)
                .truncate(true)
                .open(&path)?;
            shard_wals.push(Mutex::new(ShardWal {
                path,
                file,
                next_seq: 1,
                pending: VecDeque::new(),
                base: 0,
                end: 0,
                appends_since_sync: 0,
                dirty: false,
            }));
        }
        let wal = IngestWal {
            shards: shard_wals,
            sync_every: sync_every.max(1),
        };
        for record in recovered {
            let shard = shard_for(&record.service, shards);
            let line = record.to_json_line();
            let mut sw = wal.shards[shard].lock().expect("wal lock");
            let seq = sw.next_seq;
            sw.next_seq += 1;
            sw.append(seq, line, usize::MAX)?;
            drop(sw);
            replay[shard].push(Accepted { seq, record });
        }
        for sw in &wal.shards {
            sw.lock().expect("wal lock").sync()?;
        }

        // 4. Only now, with the fresh logs durable, drop the staged copies.
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some("staged") {
                fs::remove_file(&path)?;
            }
        }
        let replayed: usize = replay.iter().map(|r| r.len()).sum();
        replay_span.attr_u64("replayed", replayed as u64);
        Ok((wal, replay))
    }

    /// Number of shards the log is laid out for.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Append `record` to shard `shard`'s log and enqueue it, atomically
    /// with respect to [`IngestWal::release`]. The queue push runs first:
    /// a rejected record must leave no log entry behind, or replay would
    /// resurrect a record the client was told was dropped.
    pub fn append_route(
        &self,
        shard: usize,
        record: LogRecord,
        queue: &BoundedQueue<Accepted>,
        timeout: Duration,
    ) -> Result<(), PushError> {
        let mut sw = self.shards[shard].lock().expect("wal lock");
        let line = record.to_json_line();
        let seq = sw.next_seq;
        queue.push_timeout(Accepted { seq, record }, timeout)?;
        sw.next_seq += 1;
        if let Err(e) = sw.append(seq, line, self.sync_every) {
            // The record is queued and will be processed; only its
            // durability copy is gone. Degrade loudly rather than reject a
            // record the queue already owns.
            eprintln!("seqd: wal append failed on shard {shard}: {e}");
        }
        Ok(())
    }

    /// Batch form of [`IngestWal::append_route`]: one shard lock, one
    /// queue batch push, and one log write for the whole batch — the
    /// event-loop wire path's group-append. Returns how many records from
    /// the *front* of `records` were accepted; the rest were rejected by
    /// the queue (backpressure or shutdown). The queue push still runs
    /// before the log write, so a rejected record leaves no log entry for
    /// replay to resurrect.
    pub fn append_route_batch(
        &self,
        shard: usize,
        records: Vec<LogRecord>,
        queue: &BoundedQueue<Accepted>,
        timeout: Duration,
    ) -> usize {
        if records.is_empty() {
            return 0;
        }
        let mut sw = self.shards[shard].lock().expect("wal lock");
        let mut lines: Vec<String> = records.iter().map(|r| r.to_json_line()).collect();
        let base = sw.next_seq;
        let batch: Vec<Accepted> = records
            .into_iter()
            .enumerate()
            .map(|(i, record)| Accepted {
                seq: base + i as u64,
                record,
            })
            .collect();
        let accepted = queue.push_batch(batch, timeout);
        sw.next_seq += accepted as u64;
        if accepted > 0 {
            lines.truncate(accepted);
            if let Err(e) = sw.append_batch(base, lines, self.sync_every) {
                // Same posture as the single-record path: the queue owns
                // the records now, so degrade loudly instead of rejecting.
                eprintln!("seqd: wal batch append failed on shard {shard}: {e}");
            }
        }
        accepted
    }

    /// Fsync every shard log with unsynced appends. Called on the receipt
    /// path: after `sync` returns, every receipted record is on disk.
    pub fn sync(&self) -> io::Result<()> {
        for sw in &self.shards {
            sw.lock().expect("wal lock").sync()?;
        }
        Ok(())
    }

    /// Drop shard `shard`'s log entries with sequence ≤ `up_to` (they are
    /// now in the pattern store, or accounted as dropped) and rewrite the
    /// log to the survivors.
    pub fn release(&self, shard: usize, up_to: u64) -> io::Result<()> {
        let mut sw = self.shards[shard].lock().expect("wal lock");
        let mut cut = None;
        while let Some(&(seq, end)) = sw.pending.front() {
            if seq > up_to {
                break;
            }
            cut = Some(end);
            sw.pending.pop_front();
        }
        match cut {
            Some(cut) => sw.rewrite_from(cut),
            None => Ok(()),
        }
    }

    /// Per-shard count of records still covered by the log.
    pub fn depths(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|sw| sw.lock().expect("wal lock").pending.len())
            .collect()
    }
}

/// The newline-terminated lines of `bytes`; a torn final line (no
/// terminator — a crash mid-append) is dropped, like minisql's WAL tail.
fn complete_lines(bytes: &[u8]) -> impl Iterator<Item = &str> {
    let end = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    bytes[..end]
        .split(|&b| b == b'\n')
        .filter(|l| !l.is_empty())
        .filter_map(|l| std::str::from_utf8(l).ok())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn scratch_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "seqd-wal-{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn record(service: &str, message: &str) -> LogRecord {
        LogRecord::new(service, message)
    }

    #[test]
    fn append_route_logs_accepted_records_only() {
        let dir = scratch_dir("accept");
        let (wal, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        assert!(replay.iter().all(|r| r.is_empty()));
        let queue = Arc::new(BoundedQueue::new(1));
        wal.append_route(0, record("svc", "fits"), &queue, Duration::from_millis(5))
            .unwrap();
        // Queue full: rejected, and crucially *not* logged.
        assert!(wal
            .append_route(
                0,
                record("svc", "rejected"),
                &queue,
                Duration::from_millis(5)
            )
            .is_err());
        assert_eq!(wal.depths(), vec![1]);
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        assert_eq!(replay[0].len(), 1);
        assert_eq!(replay[0][0].record.message, "fits");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_route_batch_logs_only_the_accepted_prefix() {
        let dir = scratch_dir("batch");
        let (wal, _) = IngestWal::open(&dir, 1, 2).unwrap();
        let queue = Arc::new(BoundedQueue::new(3));
        let records: Vec<LogRecord> = (0..5)
            .map(|i| record("svc", &format!("event {i}")))
            .collect();
        let accepted = wal.append_route_batch(0, records, &queue, Duration::from_millis(5));
        assert_eq!(accepted, 3);
        assert_eq!(wal.depths(), vec![3]);
        // Queue entries carry contiguous sequences starting at 1.
        let batch = queue.pop_batch(8, Duration::from_millis(5)).unwrap();
        assert_eq!(
            batch.iter().map(|a| a.seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        wal.sync().unwrap();
        drop(wal);
        // Replay recovers exactly the accepted prefix, in order.
        let (_, replay) = IngestWal::open(&dir, 1, 2).unwrap();
        let messages: Vec<&str> = replay[0]
            .iter()
            .map(|a| a.record.message.as_str())
            .collect();
        assert_eq!(messages, vec!["event 0", "event 1", "event 2"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn release_truncates_and_survives_reopen() {
        let dir = scratch_dir("release");
        let (wal, _) = IngestWal::open(&dir, 1, 1).unwrap();
        let queue = Arc::new(BoundedQueue::new(16));
        for i in 0..4 {
            wal.append_route(
                0,
                record("svc", &format!("event {i}")),
                &queue,
                Duration::from_millis(5),
            )
            .unwrap();
        }
        wal.release(0, 2).unwrap();
        assert_eq!(wal.depths(), vec![2]);
        // A post-release append lands after the rewrite.
        wal.append_route(
            0,
            record("svc", "event 4"),
            &queue,
            Duration::from_millis(5),
        )
        .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        let messages: Vec<&str> = replay[0]
            .iter()
            .map(|a| a.record.message.as_str())
            .collect();
        assert_eq!(messages, vec!["event 2", "event 3", "event 4"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Releases rewrite the log from its tail, keeping only offsets in
    /// memory: after several releases in the middle of the log (one a
    /// no-op, one mid-batch), a reopen replays exactly the unreleased
    /// suffix, in order, and appends after a rewrite land behind it.
    #[test]
    fn mid_log_releases_replay_exactly_the_unreleased_suffix() {
        let dir = scratch_dir("suffix");
        let (wal, _) = IngestWal::open(&dir, 1, 1000).unwrap();
        let queue = Arc::new(BoundedQueue::new(1024));
        let batch = |from: usize, to: usize| -> Vec<LogRecord> {
            (from..to)
                .map(|i| record("svc", &format!("event {i} {}", "x".repeat(i % 7))))
                .collect()
        };
        let wait = Duration::from_millis(5);
        assert_eq!(wal.append_route_batch(0, batch(0, 40), &queue, wait), 40);
        wal.release(0, 10).unwrap();
        wal.release(0, 10).unwrap(); // nothing left at or below 10
        assert_eq!(wal.append_route_batch(0, batch(40, 60), &queue, wait), 20);
        wal.release(0, 25).unwrap();
        assert_eq!(wal.append_route_batch(0, batch(60, 70), &queue, wait), 10);
        wal.release(0, 45).unwrap(); // inside the second batch
        assert_eq!(wal.depths(), vec![25]);
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = IngestWal::open(&dir, 1, 1000).unwrap();
        let messages: Vec<String> = replay[0].iter().map(|a| a.record.message.clone()).collect();
        let expected: Vec<String> = batch(45, 70).into_iter().map(|r| r.message).collect();
        assert_eq!(messages, expected);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_is_dropped_on_replay() {
        let dir = scratch_dir("torn");
        fs::create_dir_all(&dir).unwrap();
        let good = record("svc", "complete").to_json_line();
        let torn = &record("svc", "torn mid-append").to_json_line()[..10];
        fs::write(dir.join("shard-0.wal"), format!("{good}\n{torn}")).unwrap();
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        assert_eq!(replay[0].len(), 1);
        assert_eq!(replay[0][0].record.message, "complete");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_reroutes_across_shard_count_changes() {
        let dir = scratch_dir("reshard");
        let (wal, _) = IngestWal::open(&dir, 4, 1).unwrap();
        let services = ["auth", "db", "web", "cache", "mq"];
        let queues: Vec<_> = (0..4).map(|_| Arc::new(BoundedQueue::new(64))).collect();
        for i in 0..20 {
            let service = services[i % services.len()];
            let shard = shard_for(service, 4);
            wal.append_route(
                shard,
                record(service, &format!("{service} event {i}")),
                &queues[shard],
                Duration::from_millis(5),
            )
            .unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        let (wal2, replay) = IngestWal::open(&dir, 2, 1).unwrap();
        assert_eq!(wal2.shards(), 2);
        let all: Vec<&Accepted> = replay.iter().flatten().collect();
        assert_eq!(all.len(), 20);
        // Every record landed on the shard the *new* hash assigns, and
        // per-service order (the suffix index) is preserved.
        for (shard, records) in replay.iter().enumerate() {
            let mut last_index: std::collections::HashMap<&str, usize> = Default::default();
            for a in records {
                assert_eq!(shard_for(&a.record.service, 2), shard);
                let index: usize = a
                    .record
                    .message
                    .rsplit(' ')
                    .next()
                    .unwrap()
                    .parse()
                    .unwrap();
                if let Some(prev) = last_index.insert(a.record.service.as_str(), index) {
                    assert!(prev < index, "per-service order must survive re-routing");
                }
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn staged_files_from_a_crashed_recovery_are_still_replayed() {
        let dir = scratch_dir("staged");
        fs::create_dir_all(&dir).unwrap();
        // Simulate a recovery that staged the old log, wrote a fresh one,
        // and died before deleting the stage: both must be read.
        fs::write(
            dir.join("recover-0.staged"),
            format!("{}\n", record("svc", "from staged").to_json_line()),
        )
        .unwrap();
        fs::write(
            dir.join("shard-0.wal"),
            format!("{}\n", record("svc", "from wal").to_json_line()),
        )
        .unwrap();
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        let mut messages: Vec<&str> = replay[0]
            .iter()
            .map(|a| a.record.message.as_str())
            .collect();
        messages.sort_unstable();
        assert_eq!(messages, vec!["from staged", "from wal"]);
        // A clean recovery leaves no staged files behind.
        let leftover: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.path().extension().and_then(|x| x.to_str()) == Some("staged"))
            .collect();
        assert!(leftover.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiline_messages_cannot_span_wal_lines() {
        let dir = scratch_dir("multiline");
        let (wal, _) = IngestWal::open(&dir, 1, 1).unwrap();
        let queue = Arc::new(BoundedQueue::new(4));
        wal.append_route(
            0,
            record("app", "panic: oh no\n  at frame 1\n  at frame 2"),
            &queue,
            Duration::from_millis(5),
        )
        .unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_, replay) = IngestWal::open(&dir, 1, 1).unwrap();
        assert_eq!(replay[0].len(), 1);
        assert!(replay[0][0].record.message.contains('\n'));
        fs::remove_dir_all(&dir).unwrap();
    }
}
