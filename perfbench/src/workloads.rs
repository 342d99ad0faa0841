//! The three workloads. Each makes its inputs from the seed before its
//! timed window, drives the real binaries, checks their outputs and
//! reports every end-to-end metric (or, traced, every per-layer metric).

use crate::child::{run_cli, CliRun, Daemon, Stats};
use crate::inputs::{self, Input};
use crate::lag::{self, Sample, Unit};
use crate::prom;
use crate::replay::{self, Plan};
use crate::report::Report;
use crate::stats::{median, percentile, slope, tail_is_supported};
use loghub_synth::loghub2::LOGHUB2_FAMILIES;
use patterndb::PatternStore;
use seqd::IngestSummary;
use sequence_core::{MatchScratch, Pattern, PatternSet, Scanner};
use sequence_rtg::RtgConfig;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Set-ups per run (`setup_s` is their median): at least [`SETUPS`], and
/// more, up to [`MAX_SETUPS`], while they have taken under
/// [`SETUP_BUDGET`] in all, so a fast set-up is sampled more often.
const SETUPS: usize = 3;
const MAX_SETUPS: usize = 7;
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// `/stats` poll interval during a daemon window. Each poll costs the
/// daemon about 1 ms of CPU and a thread; polling faster disturbed the tail
/// lag it measures on a 2-core host. 17 ms does not divide the 10 ms tick,
/// so the poll phase averages out over a run.
const POLL: Duration = Duration::from_millis(17);
/// Lines per family the steady store is pre-mined on (all 14 families):
/// enough that ≈97% of stream lines match a stored pattern and no shard's
/// residue reaches the mining batch within a 20 s window, while the store
/// (≈3,300 patterns) still loads in about four seconds.
const STEADY_PREMINE_PER_FAMILY: usize = 5_000;
/// The steady rate, frozen at about half of `drift_flood`'s processed rate
/// on the 2-core reference host.
const STEADY_RATE: usize = 12_000;
/// Steady tick: one connection carries one tick's batch.
const TICK: Duration = Duration::from_millis(10);
/// The paced sender's longest sleep between receipt checks.
const SPIN: Duration = Duration::from_millis(1);
/// Lines per family the drift store is pre-mined on (7 of the 14
/// families).
const DRIFT_PREMINE_PER_FAMILY: usize = 3_000;
/// Records per drift wave, and per lag chunk within a wave.
const WAVE_LINES: usize = 100_000;
const CHUNK_LINES: usize = 200;
/// Waves per second of `--seconds`, frozen from the reference host so the
/// work per run is fixed (the window then lasts about `--seconds`).
const WAVES_PER_SECOND: f64 = 0.7;
/// The CLI workload: lines in its NDJSON file (about one full batch) and
/// its batch size.
const CLI_LINES: usize = 100_800;
const CLI_BATCH: usize = 100_000;
/// Daemon workloads score the served patterns on this many leading lines
/// of their stream (the CLI scores its whole input).
const SCORED_LINES: usize = 100_000;
/// The layer replay covers the leading units of a workload's stream, up to
/// this many lines.
const REPLAY_LINES: usize = 200_000;
/// Share of the replay's wall clock its span self-times must cover.
pub const SELF_TIME_TOLERANCE: f64 = 0.05;
/// The daemon histograms reported per layer.
const DAEMON_HISTS: [&str; 8] = [
    "seqd_queue_wait_seconds",
    "seqd_wal_fsync_seconds",
    "seqd_frame_split_seconds",
    "seqd_match_seconds",
    "seqd_mine_queue_wait_seconds",
    "seqd_mine_seconds",
    "seqd_mine_publish_seconds",
    "patterndb_txn_seconds",
];
const DAEMON_COUNTERS: [&str; 3] = [
    "seqd_mine_jobs_total",
    "seqd_mine_coalesced_total",
    "seqd_rejected_total",
];

/// The workloads this harness runs; `BENCHMARK.json` gates the last two
/// (see the README for why `steady_paced` is not gated).
pub const WORKLOADS: [&str; 3] = ["steady_paced", "drift_flood", "batch_cli"];

/// What a run needs from the command line.
pub struct Ctx {
    pub seqd: PathBuf,
    pub cli: PathBuf,
    /// Scratch directory of this run, removed when it ends.
    pub work: PathBuf,
    /// Where the traced run writes its spans.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub threads: usize,
}

impl Ctx {
    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

fn err<E: std::fmt::Display>(what: &str) -> impl FnOnce(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// Note how long the phase since `*mark` took, and restart the clock.
fn phase(report: &mut Report, name: &str, mark: &mut Instant) {
    report.note(format!(
        "phase {name}: {:.2} s",
        mark.elapsed().as_secs_f64()
    ));
    *mark = Instant::now();
}

/// The seed the daemon workloads' stores are pre-mined with: another seed
/// than any stream's, and the same for every run, as a production store is
/// one fixed artifact while the traffic varies.
const PREMINE_SEED: u64 = 0x5eed_5eed;

/// One `/stats` poll on the run clock.
#[derive(Debug, Clone)]
struct Poll {
    t_s: f64,
    stats: Stats,
}

/// Polls `/stats` every [`POLL`] into a shared log until stopped.
/// Dropping it without [`Poller::stop`] (an error path) still stops and
/// joins the thread.
struct Poller {
    log: Arc<Mutex<Vec<Poll>>>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl Poller {
    fn start(addr: SocketAddr, origin: Instant) -> Poller {
        let log = Arc::new(Mutex::new(Vec::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let (log, stop) = (Arc::clone(&log), Arc::clone(&stop));
            std::thread::spawn(move || -> io::Result<()> {
                let mut next = Instant::now();
                while !stop.load(Ordering::SeqCst) {
                    // The counters were read somewhere inside the request;
                    // stamp the sample at its midpoint.
                    let sent = origin.elapsed().as_secs_f64();
                    let body = seqd::loadgen::control_get(addr, "/stats")?;
                    let t_s = (sent + origin.elapsed().as_secs_f64()) / 2.0;
                    let stats = Stats::parse(&body)?;
                    log.lock().expect("poll log").push(Poll { t_s, stats });
                    next += POLL;
                    if let Some(wait) = next.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    } else {
                        next = Instant::now();
                    }
                }
                Ok(())
            })
        };
        Poller {
            log,
            stop,
            handle: Some(handle),
        }
    }

    /// Wait until a poll satisfies `done`, up to `timeout`.
    fn wait_for(&self, timeout: Duration, done: impl Fn(&Poll) -> bool) -> Option<Poll> {
        let start = Instant::now();
        let mut seen = 0;
        while start.elapsed() < timeout {
            {
                let log = self.log.lock().expect("poll log");
                if let Some(p) = log[seen..].iter().find(|p| done(p)) {
                    return Some(p.clone());
                }
                seen = log.len();
            }
            if self.handle.as_ref().is_none_or(|h| h.is_finished()) {
                return None;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        None
    }

    fn stop(mut self) -> Result<Vec<Poll>, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.handle
            .take()
            .expect("joined only here or on drop")
            .join()
            .map_err(|_| "poller panicked".to_string())?
            .map_err(err("poll /stats"))?;
        let log = self.log.lock().expect("poll log");
        Ok(log.clone())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Start the daemon [`SETUPS`] times on `store` (all but the last shut
/// down again) and return the live one plus every spawn → ready time.
fn start_daemon(ctx: &Ctx, store: &Path) -> Result<(Daemon, Vec<f64>), String> {
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    loop {
        let log = ctx.path(&format!("seqd-{}.log", setups.len()));
        let (daemon, secs) = Daemon::start(&ctx.seqd, store, &log).map_err(err("start seqd"))?;
        setups.push(secs);
        if !more_setups(&setups) {
            return Ok((daemon, setups));
        }
        daemon.shutdown().map_err(err("shut down seqd"))?;
    }
}

/// Whether another set-up fits the rule above.
fn more_setups(setups: &[f64]) -> bool {
    setups.len() < SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_BUDGET.as_secs_f64())
}

/// The pattern sets a store holds, as the CLI would load them on restart.
fn stored_sets(report: &mut Report, dir: &Path) -> Result<HashMap<String, PatternSet>, String> {
    let t = Instant::now();
    let mut store = PatternStore::open(dir).map_err(err("reopen store"))?;
    let (sets, _bad) = store.load_pattern_sets().map_err(err("load store"))?;
    report.note(format!(
        "score: reopened the store ({} patterns) in {:.2} s",
        sets.values().map(|s| s.len()).sum::<usize>(),
        t.elapsed().as_secs_f64()
    ));
    Ok(sets)
}

/// The pattern sets the daemon serves, from `/patterns?service=`.
fn served_sets(daemon: &Daemon, services: &[&str]) -> Result<HashMap<String, PatternSet>, String> {
    let mut sets = HashMap::new();
    for service in services {
        let body = daemon.patterns(service).map_err(err("GET /patterns"))?;
        let v = jsonlite::parse(&body).map_err(err("parse /patterns"))?;
        let mut set = PatternSet::new();
        for p in v
            .get("patterns")
            .and_then(|p| p.as_array())
            .ok_or("no patterns array")?
        {
            let id = p
                .get("id")
                .and_then(|x| x.as_str())
                .ok_or("pattern without id")?;
            let text = p
                .get("pattern")
                .and_then(|x| x.as_str())
                .ok_or("pattern without text")?;
            set.insert(
                id,
                Pattern::parse(text).map_err(|e| format!("served pattern {id}: {e:?}"))?,
            );
        }
        sets.insert(service.to_string(), set);
    }
    Ok(sets)
}

/// Grouping accuracy of the first `lines` lines of `input` under `sets`:
/// every line is matched against its service's patterns and the groups are
/// scored against the LogHub-2.0 event labels.
fn grouping_accuracy(
    report: &mut Report,
    sets: &HashMap<String, PatternSet>,
    input: &Input,
    lines: usize,
) {
    let lines = lines.min(input.len());
    let scanner = Scanner::with_options(RtgConfig::default().scanner);
    let mut scratch = MatchScratch::default();
    let mut predicted = Vec::with_capacity(lines);
    let mut truth = Vec::with_capacity(lines);
    for i in 0..lines {
        let r = input.record(i);
        let msg = scanner.scan_parse_only(&r.message);
        let id = sets
            .get(&r.service)
            .and_then(|s| s.match_message_with(&msg, &mut scratch))
            .map_or_else(
                || format!("unmatched-{i}"),
                |o| format!("{}/{}", r.service, o.pattern_id),
            );
        predicted.push(id);
        truth.push(input.truth(i));
    }
    let accuracy = evalharness::accuracy::group_accuracy(&predicted, &truth);
    report.metric("grouping_accuracy", "ratio", accuracy, lines);
}

/// Metrics and checks common to both daemon workloads, once the window is
/// over and every record has been processed.
struct DaemonWindow {
    setups: Vec<f64>,
    cpu_s: f64,
    peak_rss_mb: f64,
    before: Stats,
    after: Stats,
    polls: Vec<Poll>,
    metrics_before: Option<prom::Scrape>,
    metrics_after: Option<prom::Scrape>,
}

fn daemon_checks(
    report: &mut Report,
    w: &DaemonWindow,
    sent: u64,
    receipts: &[Option<IngestSummary>],
) {
    let a = &w.after;
    report.check(
        "ingested == matched + unmatched + rejected + malformed",
        a.ingested == a.matched + a.unmatched + a.rejected + a.malformed,
    );
    report.check("counter_drift == 0", a.counter_drift == 0);
    report.check("dropped == 0", a.dropped == 0);
    report.check(
        "every connection got a receipt",
        receipts.iter().all(Option::is_some),
    );
    let got: Vec<&IngestSummary> = receipts.iter().flatten().collect();
    let received: u64 = got.iter().map(|r| r.received).sum();
    let accepted: u64 = got.iter().map(|r| r.accepted).sum();
    report.check(
        format!("receipts count every record sent ({received} of {sent})"),
        received == sent,
    );
    report.check(
        format!(
            "summed receipt accepted == processed delta ({accepted} vs {})",
            a.processed() - w.before.processed()
        ),
        accepted == a.processed() - w.before.processed(),
    );
    report.check(
        "/stats counters never decrease",
        lag::samples_are_monotone(&samples(&w.polls, &w.before)),
    );
}

/// The `/stats` log as finished-record samples, relative to `before`.
fn samples(polls: &[Poll], before: &Stats) -> Vec<Sample> {
    polls
        .iter()
        .map(|p| Sample {
            t_s: p.t_s,
            done: p.stats.done().saturating_sub(before.done()),
        })
        .collect()
}

/// Per-unit lags in ms; a unit never covered fails the run.
fn lags_ms(report: &mut Report, units: &[Unit], samples: &[Sample]) -> Vec<f64> {
    let lags = lag::unit_lags(units, samples);
    report.check(
        "every send unit was processed",
        lags.iter().all(Option::is_some),
    );
    lags.into_iter().flatten().map(|s| s * 1e3).collect()
}

fn lag_metrics(report: &mut Report, lags: &[f64]) {
    report.check(
        format!(
            "p99 lag has at least ten samples beyond it ({} units)",
            lags.len()
        ),
        tail_is_supported(lags.len(), 0.99),
    );
    report.metric(
        "lag_p50_ms",
        "ms",
        percentile(lags, 0.5).unwrap_or(f64::NAN),
        lags.len(),
    );
    report.metric(
        "lag_p99_ms",
        "ms",
        percentile(lags, 0.99).unwrap_or(f64::NAN),
        lags.len(),
    );
}

fn common_end_to_end(report: &mut Report, setups: &[f64], rate: f64, delivered: f64, lines: u64) {
    report.metric(
        "setup_s",
        "s",
        median(setups).unwrap_or(f64::NAN),
        setups.len(),
    );
    report.metric("processed_lines_per_s", "1/s", rate, lines as usize);
    report.metric("delivered_ratio", "ratio", delivered, lines as usize);
    report.note(format!(
        "failed_ratio {:.6} (1 - delivered_ratio)",
        1.0 - delivered
    ));
}

fn resource_metrics(report: &mut Report, cpu_s: f64, processed: u64, peak_rss_mb: f64) {
    report.metric(
        "cpu_us_per_line",
        "us",
        cpu_s * 1e6 / processed.max(1) as f64,
        processed as usize,
    );
    report.metric("peak_rss_mb", "MB", peak_rss_mb, 1);
}

/// Daemon-side layer metrics from the `/metrics` deltas.
fn daemon_layer_metrics(report: &mut Report, w: Option<&DaemonWindow>) {
    let empty = prom::Scrape::default();
    let (before, after) = match w {
        Some(w) => (
            w.metrics_before.as_ref().unwrap_or(&empty),
            w.metrics_after.as_ref().unwrap_or(&empty),
        ),
        None => (&empty, &empty),
    };
    for name in DAEMON_HISTS {
        let d = prom::hist_delta(before, after, name);
        let short = name.trim_end_matches("_seconds");
        report.metric(format!("daemon.{short}.count"), "count", d.count as f64, 1);
        report.metric(
            format!("daemon.{short}.sum_ms"),
            "ms",
            d.sum_ms,
            d.count as usize,
        );
        report.metric(
            format!("daemon.{short}.p99_ms"),
            "ms",
            d.p99_ms,
            d.count as usize,
        );
    }
    for name in DAEMON_COUNTERS {
        report.metric(
            format!("daemon.{name}"),
            "count",
            prom::value_delta(before, after, name),
            1,
        );
    }
}

/// The leading send units that hold at most [`REPLAY_LINES`] lines.
fn replay_units(units: &[(usize, usize)]) -> &[(usize, usize)] {
    let n = units
        .iter()
        .take_while(|&&(_, b)| b <= REPLAY_LINES)
        .count();
    &units[..n.max(1)]
}

/// Replay-derived layer metrics, plus the daemon overhead estimate.
fn replay_layer_metrics(
    report: &mut Report,
    ctx: &Ctx,
    workload: &str,
    plan: &Plan,
    replay_store: Option<&Path>,
    load_store: &Path,
    cpu_us_per_line: Option<f64>,
) -> Result<(), String> {
    let scratch = ctx.path("replay");
    // The first pass warms the page cache and allocator; the untraced and
    // traced passes that follow are compared for tracing overhead.
    replay::run(plan, replay_store, &scratch, false)?;
    let plain = replay::run(plan, replay_store, &scratch, false)?;
    let traced = replay::run(plan, replay_store, &scratch, true)?;
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::write(
        ctx.out
            .join(format!("trace-{workload}-seed{}.json", ctx.seed)),
        crate::trace::to_json(&traced.spans),
    )
    .map_err(err("write spans"))?;

    let per_line = |ns: u64| ns as f64 / traced.lines.max(1) as f64;
    let self_sum: u64 = crate::trace::self_times(&traced.spans).values().sum();
    let coverage = self_sum as f64 / (traced.wall_s * 1e9);
    report.check(
        format!(
            "replay span self-times cover its wall clock within {:.0}% ({:.2}%)",
            SELF_TIME_TOLERANCE * 100.0,
            coverage * 100.0
        ),
        (coverage - 1.0).abs() <= SELF_TIME_TOLERANCE,
    );
    let replayed: usize = plan.units.iter().map(|(a, b)| b - a).sum();
    report.check(
        "replay saw every line",
        traced.lines == replayed as u64 && plain.lines == traced.lines,
    );

    let n = traced.lines as usize;
    let parse = per_line(traced.self_ns("jsonlite.parse"));
    let append = per_line(traced.self_ns("seqd.wal.append"));
    let sync_us = traced.self_ns("seqd.wal.sync") as f64 / 1e3 / traced.syncs.max(1) as f64;
    let scan = per_line(traced.self_ns("core.scanner.scan"));
    let matching = per_line(traced.self_ns("core.parser.match"));
    report.metric("jsonlite.parse_ns_per_line", "ns", parse, n);
    report.metric("seqd.wal.append_ns_per_line", "ns", append, n);
    report.metric("seqd.wal.sync_us", "us", sync_us, traced.syncs as usize);
    report.metric("core.scanner.scan_ns_per_line", "ns", scan, n);
    report.metric(
        "core.scanner.tokens_per_line",
        "count",
        traced.tokens as f64 / n.max(1) as f64,
        n,
    );
    report.metric("core.parser.match_ns_per_line", "ns", matching, n);
    report.metric(
        "core.parser.hit_ratio",
        "ratio",
        traced.matched as f64 / n.max(1) as f64,
        n,
    );
    report.metric(
        "rtg.analyze_ns_per_line",
        "ns",
        traced.self_ns("rtg.analyze") as f64 / traced.analyzed.max(1) as f64,
        traced.analyzed as usize,
    );
    report.metric(
        "rtg.patterns_per_kline",
        "count",
        traced.discovered as f64 * 1e3 / traced.analyzed.max(1) as f64,
        traced.analyzed as usize,
    );
    report.metric(
        "patterndb.commit_ms_per_batch",
        "ms",
        traced.self_ns("patterndb.commit") as f64 / 1e6 / traced.commits.max(1) as f64,
        traced.commits as usize,
    );
    report.metric(
        "patterndb.upserts_per_batch",
        "count",
        traced.upserts as f64 / traced.commits.max(1) as f64,
        traced.commits as usize,
    );
    report.metric("replay.wall_s", "s", plain.wall_s, n);
    report.metric(
        "replay.self_time_coverage",
        "ratio",
        coverage,
        traced.spans.len(),
    );
    report.metric(
        "replay.trace_overhead_s",
        "s",
        traced.wall_s - plain.wall_s,
        traced.spans.len(),
    );
    // Per-line CPU the daemon spends beyond the replayed layer calls:
    // threads, queue hand-offs, polling and control-plane work.
    let replayed_us = (parse + append + scan + matching) / 1e3
        + traced.self_ns("seqd.wal.sync") as f64 / 1e3 / n.max(1) as f64;
    report.metric(
        "seqd.overhead_us_per_line",
        "us",
        cpu_us_per_line.map_or(0.0, |c| c - replayed_us),
        n,
    );

    let (load_s, loaded) = replay::time_load(load_store)?;
    report.metric("patterndb.load_s", "s", load_s, 1);
    report.metric("patterndb.patterns_loaded", "count", loaded as f64, 1);

    let batch: Vec<_> = (0..plan.input.len().min(CLI_BATCH))
        .map(|i| plan.input.record(i))
        .collect();
    let one = replay::time_parallel(&batch, 1)?;
    let many = replay::time_parallel(&batch, ctx.threads)?;
    report.metric("rtg.parallel.batch_s", "s", many, batch.len());
    report.metric("rtg.parallel.speedup", "ratio", one / many, ctx.threads);
    Ok(())
}

// ---------------------------------------------------------------- steady

/// One paced tick's outcome.
struct TickResult {
    late_s: f64,
    ack_s: f64,
    receipt: Option<IngestSummary>,
}

/// Send unit `k` on its own connection at `start + k * TICK`, from one
/// thread. Receipts are collected as they arrive instead of being waited
/// for, so a slow receipt delays no later tick: the wait shows up as lag,
/// measured from the due time, not as a late generator.
fn paced_send(
    addr: SocketAddr,
    input: &Input,
    units: &[(usize, usize)],
    start: Instant,
) -> Vec<TickResult> {
    struct Pending {
        k: usize,
        stream: TcpStream,
        buf: Vec<u8>,
    }
    let due = |k: usize| start + TICK * k as u32;
    let mut results: Vec<TickResult> = (0..units.len())
        .map(|_| TickResult {
            late_s: 0.0,
            ack_s: f64::NAN,
            receipt: None,
        })
        .collect();
    let mut pending: Vec<Pending> = Vec::new();
    let collect = |pending: &mut Vec<Pending>, results: &mut [TickResult]| {
        pending.retain_mut(|p| {
            let mut chunk = [0u8; 512];
            loop {
                match p.stream.read(&mut chunk) {
                    Ok(n) if n > 0 && !chunk[..n].contains(&b'\n') => {
                        p.buf.extend_from_slice(&chunk[..n])
                    }
                    Ok(n) => {
                        p.buf.extend_from_slice(&chunk[..n]);
                        let r = &mut results[p.k];
                        r.ack_s = Instant::now().duration_since(due(p.k)).as_secs_f64();
                        r.receipt = IngestSummary::from_json_line(&String::from_utf8_lossy(&p.buf));
                        return false;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return true,
                    Err(_) => return false,
                }
            }
        });
    };
    let send = |bytes: &[u8]| -> io::Result<TcpStream> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(bytes)?;
        stream.shutdown(Shutdown::Write)?;
        stream.set_nonblocking(true)?;
        Ok(stream)
    };
    for (k, &(a, b)) in units.iter().enumerate() {
        loop {
            collect(&mut pending, &mut results);
            match due(k).checked_duration_since(Instant::now()) {
                Some(wait) => std::thread::sleep(wait.min(SPIN)),
                None => break,
            }
        }
        results[k].late_s = Instant::now().duration_since(due(k)).as_secs_f64();
        if let Ok(stream) = send(input.bytes(a, b)) {
            pending.push(Pending {
                k,
                stream,
                buf: Vec::new(),
            });
        }
    }
    let give_up = Instant::now() + Duration::from_secs(60);
    while !pending.is_empty() && Instant::now() < give_up {
        collect(&mut pending, &mut results);
        std::thread::sleep(SPIN);
    }
    results
}

pub fn steady_paced(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut mark = Instant::now();
    let store = ctx.path("store");
    let premine = inputs::stream(
        &LOGHUB2_FAMILIES,
        STEADY_PREMINE_PER_FAMILY * 14,
        PREMINE_SEED,
    );
    let patterns = inputs::premine(&store, &premine)?;
    drop(premine);
    let tick_lines = STEADY_RATE * TICK.as_millis() as usize / 1000;
    let ticks = (ctx.seconds as usize * 1000 / TICK.as_millis() as usize).max(1);
    let input = inputs::stream(&LOGHUB2_FAMILIES, ticks * tick_lines, ctx.seed);
    let units: Vec<(usize, usize)> = (0..ticks)
        .map(|k| (k * tick_lines, (k + 1) * tick_lines))
        .collect();
    report.note(format!(
        "steady_paced: open loop, {STEADY_RATE} lines/s in {ticks} ticks of {tick_lines} lines every {TICK:?}, \
         14 families, store pre-mined on 14 families ({patterns} patterns)"
    ));
    let replay_store = ctx.path("replay-store");
    if ctx.trace {
        replay::copy_store(&store, &replay_store).map_err(err("copy store"))?;
    }
    phase(report, "inputs and pre-mined store", &mut mark);

    let (daemon, setups) = start_daemon(ctx, &store)?;
    phase(report, "set-ups", &mut mark);
    let metrics_before = if ctx.trace {
        Some(prom::parse(&daemon.metrics().map_err(err("scrape"))?))
    } else {
        None
    };
    let before = daemon.stats().map_err(err("stats"))?;
    let cpu0 = daemon.thread_cpu().map_err(err("cpu"))?;
    let origin = Instant::now();
    let poller = Poller::start(daemon.addr, origin);
    let lead = Duration::from_millis(20);
    let addr = daemon.addr;
    let results = paced_send(addr, &input, &units, origin + lead);
    let sent = input.len() as u64;
    let base = before.clone();
    let last_due_s = (lead + TICK * (ticks as u32 - 1)).as_secs_f64();
    // Drained: every record processed, and after the last tick the shards
    // went idle, handed their residue to the miner, and it committed.
    let drained = poller.wait_for(Duration::from_secs(60), |p| {
        p.t_s >= last_due_s
            && p.stats.done() >= base.done() + sent
            && p.stats.residue == 0
            && p.stats.mine_backlog == 0
    });
    let polls = poller.stop()?;
    let cpu1 = daemon.thread_cpu().map_err(err("cpu"))?;
    let peak = daemon.peak_rss_mb().map_err(err("rss"))?;
    let after = daemon.stats().map_err(err("stats"))?;
    let metrics_after = if ctx.trace {
        Some(prom::parse(&daemon.metrics().map_err(err("scrape"))?))
    } else {
        None
    };
    let served = served_sets(&daemon, &LOGHUB2_FAMILIES)?;
    phase(report, "window", &mut mark);
    let shutdown = daemon.shutdown();
    phase(report, "shutdown", &mut mark);
    report.check("seqd shut down cleanly", shutdown.is_ok());
    report.check(
        "window drained (every record processed, residue mined)",
        drained.is_some(),
    );
    let Some(drained) = drained else {
        return Ok(());
    };

    let window = DaemonWindow {
        setups,
        cpu_s: crate::procfs::thread_cpu_delta(&cpu0, &cpu1),
        peak_rss_mb: peak,
        before,
        after,
        polls,
        metrics_before,
        metrics_after,
    };
    let receipts: Vec<Option<IngestSummary>> = results.iter().map(|r| r.receipt).collect();
    daemon_checks(report, &window, sent, &receipts);
    report.attempted = ticks as u64;
    report.failed = results.iter().filter(|r| r.receipt.is_none()).count() as u64;

    // Over capacity: the generator fell behind, or queues or the mining
    // backlog grew over the sending period.
    let lates: Vec<f64> = results.iter().map(|r| r.late_s * 1e3).collect();
    let late_p99 = percentile(&lates, 0.99).unwrap_or(0.0);
    let sending: Vec<&Poll> = window
        .polls
        .iter()
        .filter(|p| p.t_s <= last_due_s)
        .collect();
    let ts: Vec<f64> = sending.iter().map(|p| p.t_s).collect();
    let depth: Vec<f64> = sending.iter().map(|p| p.stats.queue_depth as f64).collect();
    let backlog: Vec<f64> = sending
        .iter()
        .map(|p| p.stats.mine_backlog as f64)
        .collect();
    let depth_growth = slope(&ts, &depth) * last_due_s;
    let backlog_growth = slope(&ts, &backlog) * last_due_s;
    report.note(format!(
        "steady_paced: generator late p99 {late_p99:.3} ms; queue depth grew {depth_growth:.0} records, \
         mining backlog {backlog_growth:.2} jobs over the sending period ({} polls)",
        sending.len()
    ));
    // A host hiccup can delay a handful of ticks; a generator that falls
    // behind is late on many of them.
    let late_p90 = percentile(&lates, 0.9).unwrap_or(0.0);
    report.check(
        format!("not over capacity: generator late p90 {late_p90:.2} ms <= one tick"),
        late_p90 <= TICK.as_secs_f64() * 1e3,
    );
    report.check(
        format!("not over capacity: queue depth grew {depth_growth:.0} <= two ticks of lines"),
        depth_growth <= 2.0 * tick_lines as f64,
    );
    report.check(
        format!("not over capacity: mining backlog grew {backlog_growth:.2} <= 1 job"),
        backlog_growth <= 1.0,
    );

    let processed = window.after.processed() - window.before.processed();
    let span_s = drained.t_s - lead.as_secs_f64();
    if ctx.trace {
        let acks: Vec<f64> = results.iter().map(|r| r.ack_s * 1e3).collect();
        report.metric(
            "seqd.wire.ack_lines_per_s",
            "1/s",
            sent as f64 / results.iter().map(|r| r.ack_s - r.late_s).sum::<f64>(),
            ticks,
        );
        report.metric(
            "seqd.wire.ack_p99_ms",
            "ms",
            percentile(&acks, 0.99).unwrap_or(f64::NAN),
            ticks,
        );
        report.metric(
            "loadgen.late_max_ms",
            "ms",
            lates.iter().copied().fold(0.0, f64::max),
            ticks,
        );
        report.metric("program.cpu_s", "s", window.cpu_s, 1);
        daemon_layer_metrics(report, Some(&window));
        let plan = Plan {
            input: &input,
            units: replay_units(&units),
            shards: seqd::SeqdConfig::default().shards,
            batch_size: seqd::SeqdConfig::default().batch_size,
        };
        let cpu_per_line = window.cpu_s * 1e6 / processed.max(1) as f64;
        phase(report, "checks", &mut mark);
        replay_layer_metrics(
            report,
            ctx,
            "steady_paced",
            &plan,
            Some(&replay_store),
            &replay_store,
            Some(cpu_per_line),
        )?;
        return Ok(());
    }

    let due: Vec<Unit> = (0..ticks)
        .map(|k| Unit {
            due_s: (lead + TICK * k as u32).as_secs_f64(),
            through: ((k + 1) * tick_lines) as u64,
        })
        .collect();
    let lags = lags_ms(report, &due, &samples(&window.polls, &window.before));
    common_end_to_end(
        report,
        &window.setups,
        processed as f64 / span_s,
        processed as f64 / sent as f64,
        sent,
    );
    lag_metrics(report, &lags);
    // When the stream pauses each shard hands its residue to the miner; the
    // lag is the mean, over those jobs, of last tick → job committed (a
    // drop in `mine_backlog`).
    let tail: Vec<&Poll> = window
        .polls
        .iter()
        .filter(|p| p.t_s >= last_due_s && p.t_s <= drained.t_s)
        .collect();
    let mut done_at = Vec::new();
    for w in tail.windows(2) {
        let finished = w[0]
            .stats
            .mine_backlog
            .saturating_sub(w[1].stats.mine_backlog);
        done_at.extend(std::iter::repeat_n(
            w[1].t_s - last_due_s,
            finished as usize,
        ));
    }
    if done_at.is_empty() {
        done_at.push(drained.t_s - last_due_s);
    }
    report.metric(
        "pattern_lag_s",
        "s",
        done_at.iter().sum::<f64>() / done_at.len() as f64,
        done_at.len(),
    );
    resource_metrics(report, window.cpu_s, processed, window.peak_rss_mb);
    grouping_accuracy(report, &served, &input, SCORED_LINES);
    phase(report, "checks and score", &mut mark);
    Ok(())
}

// ----------------------------------------------------------------- drift

/// One closed-loop wave's outcome.
struct WaveResult {
    /// First byte, receipt, and drained times on the run clock.
    start_s: f64,
    ack_s: f64,
    drained_s: f64,
    /// Completion time of each chunk's write.
    chunk_sent_s: Vec<f64>,
    receipt: Option<IngestSummary>,
}

/// Push one wave on one connection as fast as the socket takes it,
/// recording when each chunk's write completed, then read the receipt.
fn push_wave(
    addr: SocketAddr,
    input: &Input,
    from: usize,
    to: usize,
    origin: Instant,
) -> io::Result<(Vec<f64>, IngestSummary)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(120)))?;
    let mut sent = Vec::with_capacity((to - from).div_ceil(CHUNK_LINES));
    let mut a = from;
    while a < to {
        let b = (a + CHUNK_LINES).min(to);
        stream.write_all(input.bytes(a, b))?;
        sent.push(origin.elapsed().as_secs_f64());
        a = b;
    }
    stream.shutdown(Shutdown::Write)?;
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line)?;
    let receipt = IngestSummary::from_json_line(&line).ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidData, format!("bad receipt {line:?}"))
    })?;
    Ok((sent, receipt))
}

pub fn drift_flood(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let mut mark = Instant::now();
    let store = ctx.path("store");
    // Every other family is known to the store; the rest are novel.
    let known: Vec<&'static str> = LOGHUB2_FAMILIES.iter().step_by(2).copied().collect();
    let premine = inputs::stream(&known, DRIFT_PREMINE_PER_FAMILY * known.len(), PREMINE_SEED);
    let patterns = inputs::premine(&store, &premine)?;
    drop(premine);
    let waves = ((ctx.seconds as f64 * WAVES_PER_SECOND).round() as usize).max(2);
    let input = inputs::stream(&LOGHUB2_FAMILIES, waves * WAVE_LINES, ctx.seed);
    report.note(format!(
        "drift_flood: closed loop, 1 client, {waves} waves of {WAVE_LINES} lines, 14 families, \
         store pre-mined on {} families ({patterns} patterns)",
        known.len()
    ));
    let replay_store = ctx.path("replay-store");
    if ctx.trace {
        replay::copy_store(&store, &replay_store).map_err(err("copy store"))?;
    }
    phase(report, "inputs and pre-mined store", &mut mark);

    let (daemon, setups) = start_daemon(ctx, &store)?;
    phase(report, "set-ups", &mut mark);
    let metrics_before = if ctx.trace {
        Some(prom::parse(&daemon.metrics().map_err(err("scrape"))?))
    } else {
        None
    };
    let before = daemon.stats().map_err(err("stats"))?;
    let cpu0 = daemon.thread_cpu().map_err(err("cpu"))?;
    let origin = Instant::now();
    let poller = Poller::start(daemon.addr, origin);
    let mut results = Vec::with_capacity(waves);
    let mut accepted = 0u64;
    for w in 0..waves {
        let (from, to) = (w * WAVE_LINES, (w + 1) * WAVE_LINES);
        let start_s = origin.elapsed().as_secs_f64();
        let pushed = push_wave(daemon.addr, &input, from, to, origin);
        let ack_s = origin.elapsed().as_secs_f64();
        let (chunk_sent_s, receipt) = match pushed {
            Ok((sent, r)) => (sent, Some(r)),
            Err(e) => {
                report.note(format!("wave {w}: {e}"));
                (Vec::new(), None)
            }
        };
        accepted += receipt.as_ref().map_or(0, |r| r.accepted);
        let target = before.processed() + accepted;
        // Drained: every accepted record matched, or handed to the miner
        // and committed (no residue held back, no mining job pending).
        let drained = poller.wait_for(Duration::from_secs(90), |p| {
            p.t_s >= ack_s
                && p.stats.processed() >= target
                && p.stats.residue == 0
                && p.stats.mine_backlog == 0
        });
        let Some(drained) = drained else {
            report.check(format!("wave {w} drained"), false);
            break;
        };
        results.push(WaveResult {
            start_s,
            ack_s,
            drained_s: drained.t_s,
            chunk_sent_s,
            receipt,
        });
    }
    let all_families = LOGHUB2_FAMILIES.len() as u64;
    let published = poller.wait_for(Duration::from_secs(60), |p| {
        p.stats.published_services >= all_families
    });
    let polls = poller.stop()?;
    let cpu1 = daemon.thread_cpu().map_err(err("cpu"))?;
    let peak = daemon.peak_rss_mb().map_err(err("rss"))?;
    let after = daemon.stats().map_err(err("stats"))?;
    let metrics_after = if ctx.trace {
        Some(prom::parse(&daemon.metrics().map_err(err("scrape"))?))
    } else {
        None
    };
    let served = served_sets(&daemon, &LOGHUB2_FAMILIES)?;
    phase(report, "window", &mut mark);
    let shutdown = daemon.shutdown();
    phase(report, "shutdown", &mut mark);
    report.check("seqd shut down cleanly", shutdown.is_ok());
    report.check("every wave drained", results.len() == waves);
    report.check(
        "every family's patterns were published",
        published.is_some(),
    );
    if published.is_none() {
        return Ok(());
    }
    if results.len() != waves {
        return Ok(());
    }

    let window = DaemonWindow {
        setups,
        cpu_s: crate::procfs::thread_cpu_delta(&cpu0, &cpu1),
        peak_rss_mb: peak,
        before,
        after,
        polls,
        metrics_before,
        metrics_after,
    };
    let receipts: Vec<Option<IngestSummary>> = results.iter().map(|r| r.receipt).collect();
    let sent = input.len() as u64;
    daemon_checks(report, &window, sent, &receipts);
    report.attempted = waves as u64;
    report.failed = results.iter().filter(|r| r.receipt.is_none()).count() as u64;
    let a = &window.after;
    let b = &window.before;
    report.note(format!(
        "drift_flood: sent {sent}, processed {}, rejected {}, malformed {}",
        a.processed() - b.processed(),
        a.rejected - b.rejected,
        a.malformed - b.malformed
    ));

    let processed = a.processed() - b.processed();
    let busy_s: f64 = results.iter().map(|r| r.drained_s - r.start_s).sum();
    if ctx.trace {
        let ack_busy: f64 = results.iter().map(|r| r.ack_s - r.start_s).sum();
        let acks: Vec<f64> = results
            .iter()
            .map(|r| (r.ack_s - r.start_s) * 1e3)
            .collect();
        report.metric(
            "seqd.wire.ack_lines_per_s",
            "1/s",
            sent as f64 / ack_busy,
            waves,
        );
        report.metric(
            "seqd.wire.ack_p99_ms",
            "ms",
            percentile(&acks, 0.99).unwrap_or(f64::NAN),
            waves,
        );
        // A closed loop sends on no schedule, so it can never run late.
        report.metric("loadgen.late_max_ms", "ms", 0.0, waves);
        report.metric("program.cpu_s", "s", window.cpu_s, 1);
        daemon_layer_metrics(report, Some(&window));
        let units: Vec<(usize, usize)> = (0..input.len())
            .step_by(CHUNK_LINES)
            .map(|a| (a, (a + CHUNK_LINES).min(input.len())))
            .collect();
        let plan = Plan {
            input: &input,
            units: replay_units(&units),
            shards: seqd::SeqdConfig::default().shards,
            batch_size: seqd::SeqdConfig::default().batch_size,
        };
        let cpu_per_line = window.cpu_s * 1e6 / processed.max(1) as f64;
        phase(report, "checks", &mut mark);
        replay_layer_metrics(
            report,
            ctx,
            "drift_flood",
            &plan,
            Some(&replay_store),
            &replay_store,
            Some(cpu_per_line),
        )?;
        return Ok(());
    }

    // Lag per chunk, from its write completing to the daemon finishing
    // with its last record (processed or refused).
    let mut units = Vec::new();
    for (w, r) in results.iter().enumerate() {
        for (c, &t) in r.chunk_sent_s.iter().enumerate() {
            let through = (w * WAVE_LINES + ((c + 1) * CHUNK_LINES).min(WAVE_LINES)) as u64;
            units.push(Unit { due_s: t, through });
        }
    }
    let lags = lags_ms(report, &units, &samples(&window.polls, &window.before));
    common_end_to_end(
        report,
        &window.setups,
        processed as f64 / busy_s,
        processed as f64 / sent as f64,
        sent,
    );
    lag_metrics(report, &lags);
    // Mean over the novel families of first byte → the family is served.
    // Each family's time is bimodal (mid-wave when its shard's residue
    // crosses the mining batch, else at the wave's drain), so the last
    // family alone would swing between the two from run to run.
    let known_services = window.before.published_services;
    let first_byte = results[0].start_s;
    let publish_times: Vec<f64> = (known_services + 1..=all_families)
        .filter_map(|n| {
            window
                .polls
                .iter()
                .find(|p| p.stats.published_services >= n)
        })
        .map(|p| p.t_s - first_byte)
        .collect();
    report.check(
        format!(
            "a publication time for each novel family ({} of {})",
            publish_times.len(),
            all_families - known_services
        ),
        publish_times.len() as u64 == all_families - known_services,
    );
    report.metric(
        "pattern_lag_s",
        "s",
        publish_times.iter().sum::<f64>() / publish_times.len().max(1) as f64,
        publish_times.len(),
    );
    resource_metrics(report, window.cpu_s, processed, window.peak_rss_mb);
    grouping_accuracy(report, &served, &input, SCORED_LINES);
    phase(report, "checks and score", &mut mark);
    Ok(())
}

// ------------------------------------------------------------------- CLI

pub fn batch_cli(ctx: &Ctx, report: &mut Report) -> Result<(), String> {
    let input = inputs::stream(&LOGHUB2_FAMILIES, CLI_LINES, ctx.seed);
    let chunks: Vec<&[u8]> = (0..input.len())
        .step_by(CHUNK_LINES)
        .map(|a| input.bytes(a, (a + CHUNK_LINES).min(input.len())))
        .collect();
    report.note(format!(
        "batch_cli: sequence-rtg --threads {} --batch-size {CLI_BATCH} over {CLI_LINES} lines of 14 families \
         from an empty store, then restarted over its store with empty stdin",
        ctx.threads
    ));

    // Repeat the full run from an empty store until the window is used;
    // the last run's store is the one the restarts and the score use.
    let mut mark = Instant::now();
    let started = Instant::now();
    let mut runs: Vec<CliRun> = Vec::new();
    let db = ctx.path("db");
    while runs.is_empty() || started.elapsed().as_secs_f64() < ctx.seconds as f64 {
        let _ = std::fs::remove_dir_all(&db);
        let run = run_cli(&ctx.cli, &db, ctx.threads, CLI_BATCH, &chunks)
            .map_err(err("run sequence-rtg"))?;
        runs.push(run);
    }
    phase(report, "window", &mut mark);
    let mut setups = Vec::with_capacity(MAX_SETUPS);
    while setups.is_empty() || more_setups(&setups) {
        let restart = run_cli(&ctx.cli, &db, ctx.threads, CLI_BATCH, &[])
            .map_err(err("restart sequence-rtg"))?;
        report.check(
            format!("restart {} analysed nothing", setups.len()),
            restart.records == 0,
        );
        setups.push(restart.wall_s);
    }
    phase(report, "set-ups", &mut mark);
    report.attempted = (runs.len() + setups.len()) as u64;
    let sent = input.len() as u64;
    for (i, r) in runs.iter().enumerate() {
        report.check(
            format!("run {i}: records == lines sent ({} of {sent})", r.records),
            r.records == sent,
        );
        report.check(format!("run {i}: malformed == 0"), r.malformed == 0);
        report.check(
            format!("run {i}: batch reports cover every record"),
            r.reports.last().map(|&(_, n)| n) == Some(sent),
        );
    }

    if ctx.trace {
        let plain_runs: Vec<f64> = runs
            .iter()
            .map(|r| r.chunk_sent_s.last().copied().unwrap_or(f64::NAN))
            .collect();
        report.metric(
            "seqd.wire.ack_lines_per_s",
            "1/s",
            sent as f64 / median(&plain_runs).unwrap_or(f64::NAN),
            runs.len(),
        );
        let writes: Vec<f64> = runs
            .iter()
            .flat_map(|r| {
                let mut prev = 0.0;
                r.chunk_sent_s.iter().map(move |&t| {
                    let d = (t - prev) * 1e3;
                    prev = t;
                    d
                })
            })
            .collect();
        report.metric(
            "seqd.wire.ack_p99_ms",
            "ms",
            percentile(&writes, 0.99).unwrap_or(f64::NAN),
            writes.len(),
        );
        report.metric("loadgen.late_max_ms", "ms", 0.0, runs.len());
        report.metric(
            "program.cpu_s",
            "s",
            median(&runs.iter().map(|r| r.cpu_s).collect::<Vec<_>>()).unwrap_or(f64::NAN),
            runs.len(),
        );
        daemon_layer_metrics(report, None);
        let units: Vec<(usize, usize)> = (0..input.len())
            .step_by(CHUNK_LINES)
            .map(|a| (a, (a + CHUNK_LINES).min(input.len())))
            .collect();
        let plan = Plan {
            input: &input,
            units: replay_units(&units),
            shards: 1,
            batch_size: CLI_BATCH,
        };
        replay_layer_metrics(report, ctx, "batch_cli", &plan, None, &db, None)?;
        return Ok(());
    }

    let rates: Vec<f64> = runs.iter().map(|r| sent as f64 / r.wall_s).collect();
    let mut lags = Vec::new();
    for r in &runs {
        let reports: Vec<Sample> = r
            .reports
            .iter()
            .map(|&(t_s, done)| Sample { t_s, done })
            .collect();
        let units: Vec<Unit> = r
            .chunk_sent_s
            .iter()
            .enumerate()
            .map(|(c, &t)| Unit {
                due_s: t,
                through: ((c + 1) * CHUNK_LINES).min(input.len()) as u64,
            })
            .collect();
        lags.extend(lags_ms(report, &units, &reports));
    }
    let pattern_lags: Vec<f64> = runs
        .iter()
        .filter_map(|r| r.reports.first().map(|&(t, _)| t))
        .collect();
    let cpu: Vec<f64> = runs.iter().map(|r| r.cpu_s * 1e6 / sent as f64).collect();
    let rss = runs.iter().map(|r| r.peak_rss_mb).fold(0.0, f64::max);
    let delivered = runs.iter().map(|r| r.records - r.malformed).sum::<u64>() as f64
        / (sent * runs.len() as u64) as f64;

    report.metric(
        "setup_s",
        "s",
        median(&setups).unwrap_or(f64::NAN),
        setups.len(),
    );
    report.metric(
        "processed_lines_per_s",
        "1/s",
        median(&rates).unwrap_or(f64::NAN),
        runs.len(),
    );
    report.metric(
        "delivered_ratio",
        "ratio",
        delivered,
        runs.len() * input.len(),
    );
    lag_metrics(report, &lags);
    report.metric(
        "pattern_lag_s",
        "s",
        median(&pattern_lags).unwrap_or(f64::NAN),
        pattern_lags.len(),
    );
    report.metric(
        "cpu_us_per_line",
        "us",
        median(&cpu).unwrap_or(f64::NAN),
        runs.len(),
    );
    report.metric("peak_rss_mb", "MB", rss, runs.len());
    let sets = stored_sets(report, &db)?;
    grouping_accuracy(report, &sets, &input, input.len());
    phase(report, "score", &mut mark);
    Ok(())
}
