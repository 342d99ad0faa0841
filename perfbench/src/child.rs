//! The programs under test as child processes: `seqd` and `sequence-rtg`.

use crate::procfs;
use seqd::loadgen::{control_get, control_post};
use std::fs::File;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// How long a child may take to come up or to exit before the run fails.
const CHILD_DEADLINE: Duration = Duration::from_secs(60);
/// Readiness poll interval: the resolution of `setup_s`.
const READY_POLL: Duration = Duration::from_millis(1);

/// Kills and reaps a child that is still running when dropped, so no error
/// path leaves a process behind.
struct Reaped(Option<Child>);

impl Drop for Reaped {
    fn drop(&mut self) {
        if let Some(child) = self.0.as_mut() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Wait for `child` to exit, killing it after `deadline`.
fn wait_deadline(child: &mut Child, deadline: Duration) -> io::Result<std::process::ExitStatus> {
    let start = Instant::now();
    loop {
        if let Some(status) = child.try_wait()? {
            return Ok(status);
        }
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other("child did not exit in time; killed"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// A free loopback port (bound, then released for the child to take).
fn free_addr() -> io::Result<SocketAddr> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    listener.local_addr()
}

/// The `/stats` fields the benchmark reads.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    pub ingested: u64,
    pub matched: u64,
    pub unmatched: u64,
    pub rejected: u64,
    pub malformed: u64,
    pub dropped: u64,
    pub counter_drift: u64,
    pub mine_backlog: u64,
    pub residue: u64,
    pub queue_depth: u64,
    pub published_services: u64,
}

impl Stats {
    /// Records the daemon has finished with: processed or refused.
    pub fn done(&self) -> u64 {
        self.matched + self.unmatched + self.rejected + self.malformed
    }

    /// Records processed (matched, or handed to the residue).
    pub fn processed(&self) -> u64 {
        self.matched + self.unmatched
    }

    pub fn parse(body: &str) -> io::Result<Stats> {
        let v = jsonlite::parse(body).map_err(|e| io::Error::other(format!("bad /stats: {e}")))?;
        let field =
            |k: &str| -> u64 { v.get(k).and_then(|x| x.as_i64()).unwrap_or(0).max(0) as u64 };
        let queue_depth = match v.get("queue_depths") {
            Some(jsonlite::Value::Array(items)) => items
                .iter()
                .map(|x| x.as_i64().unwrap_or(0).max(0) as u64)
                .sum(),
            _ => 0,
        };
        Ok(Stats {
            ingested: field("ingested"),
            matched: field("matched"),
            unmatched: field("unmatched"),
            rejected: field("rejected"),
            malformed: field("malformed"),
            dropped: field("dropped"),
            counter_drift: field("counter_drift"),
            mine_backlog: field("mine_backlog"),
            residue: field("residue"),
            queue_depth,
            published_services: field("published_services"),
        })
    }
}

/// A running `seqd` with default settings over a persistent store.
pub struct Daemon {
    child: Reaped,
    pub addr: SocketAddr,
    pub pid: String,
}

impl Daemon {
    /// Spawn `seqd --store <store>` and wait for its first `200` on
    /// `/healthz`. Returns the daemon and the spawn → ready time.
    pub fn start(bin: &Path, store: &Path, log: &Path) -> io::Result<(Daemon, f64)> {
        let addr = free_addr()?;
        let log = File::create(log)?;
        let started = Instant::now();
        let child = Command::new(bin)
            .arg("--addr")
            .arg(addr.to_string())
            .arg("--store")
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::from(log))
            .spawn()?;
        let pid = child.id().to_string();
        let mut daemon = Daemon {
            child: Reaped(Some(child)),
            addr,
            pid,
        };
        loop {
            if control_get(addr, "/healthz").is_ok() {
                return Ok((daemon, started.elapsed().as_secs_f64()));
            }
            let child = daemon
                .child
                .0
                .as_mut()
                .expect("child present until shutdown");
            if let Some(status) = child.try_wait()? {
                return Err(io::Error::other(format!(
                    "seqd exited during start: {status}"
                )));
            }
            if started.elapsed() > CHILD_DEADLINE {
                return Err(io::Error::other("seqd did not become ready"));
            }
            std::thread::sleep(READY_POLL);
        }
    }

    pub fn stats(&self) -> io::Result<Stats> {
        Stats::parse(&control_get(self.addr, "/stats")?)
    }

    /// The patterns the daemon serves for `service` (JSON).
    pub fn patterns(&self, service: &str) -> io::Result<String> {
        control_get(self.addr, &format!("/patterns?service={service}"))
    }

    /// CPU seconds per live daemon thread, leaving out the per-request
    /// control-plane threads that serve the benchmark's own `/stats` polls.
    pub fn thread_cpu(&self) -> io::Result<std::collections::BTreeMap<u64, f64>> {
        procfs::thread_cpu(&self.pid, "seqd-ctl")
    }

    pub fn metrics(&self) -> io::Result<String> {
        control_get(self.addr, "/metrics")
    }

    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        procfs::vm_hwm_mb(&self.pid)
    }

    /// Drain via `POST /shutdown` and wait for a clean exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        control_post(self.addr, "/shutdown")?;
        let mut child = self.child.0.take().expect("child present until shutdown");
        let status = wait_deadline(&mut child, CHILD_DEADLINE)?;
        if !status.success() {
            return Err(io::Error::other(format!("seqd exited with {status}")));
        }
        Ok(())
    }
}

/// What one `sequence-rtg` run reported.
#[derive(Debug, Clone, Default)]
pub struct CliRun {
    /// Spawn → exit, seconds.
    pub wall_s: f64,
    /// Per stdin chunk: when its last byte was taken by the pipe (seconds
    /// from spawn).
    pub chunk_sent_s: Vec<f64>,
    /// Per batch report: when it appeared on stderr (seconds from spawn)
    /// and the cumulative records analysed through it.
    pub reports: Vec<(f64, u64)>,
    /// `records` and `malformed` from the final `stream done:` line.
    pub records: u64,
    pub malformed: u64,
    /// CPU time of the child (user + system), seconds.
    pub cpu_s: f64,
    /// Highest `VmHWM` sampled while it ran, MiB.
    pub peak_rss_mb: f64,
}

/// Value of `key=<n>` in a report line.
fn field(line: &str, key: &str) -> Option<u64> {
    line.split_whitespace()
        .find_map(|w| w.strip_prefix(key)?.strip_prefix('=')?.parse().ok())
}

/// Run `sequence-rtg --db <db> --threads <threads> --batch-size <batch>`,
/// writing `chunks` (consecutive slices of one NDJSON payload) to its stdin.
pub fn run_cli(
    bin: &Path,
    db: &Path,
    threads: usize,
    batch_size: usize,
    chunks: &[&[u8]],
) -> io::Result<CliRun> {
    let cpu_before = procfs::cpu_times("self")?.children_s;
    let started = Instant::now();
    let child = Command::new(bin)
        .arg("--db")
        .arg(db)
        .arg("--threads")
        .arg(threads.to_string())
        .arg("--batch-size")
        .arg(batch_size.to_string())
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut child = Reaped(Some(child));
    let proc = child.0.as_mut().expect("just spawned");
    let pid = proc.id().to_string();
    let mut stdin = proc.stdin.take().expect("piped stdin");
    let stderr = proc.stderr.take().expect("piped stderr");

    let exited = AtomicBool::new(false);
    let (sent, lines, status, peak) = std::thread::scope(|scope| {
        let writer = scope.spawn(move || -> io::Result<Vec<f64>> {
            let mut sent = Vec::with_capacity(chunks.len());
            for chunk in chunks {
                stdin.write_all(chunk)?;
                sent.push(started.elapsed().as_secs_f64());
            }
            Ok(sent)
        });
        let reader = scope.spawn(move || -> io::Result<Vec<(f64, String)>> {
            let mut lines = Vec::new();
            for line in BufReader::new(stderr).lines() {
                lines.push((started.elapsed().as_secs_f64(), line?));
            }
            Ok(lines)
        });
        let sampler = scope.spawn(|| {
            let mut peak = 0.0f64;
            while !exited.load(Ordering::SeqCst) {
                if let Ok(mb) = procfs::vm_hwm_mb(&pid) {
                    peak = peak.max(mb);
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            peak
        });
        let proc = child.0.as_mut().expect("running");
        let status = wait_deadline(proc, Duration::from_secs(150));
        exited.store(true, Ordering::SeqCst);
        let sent = writer.join().expect("writer thread");
        let lines = reader.join().expect("stderr thread");
        let peak = sampler.join().expect("sampler thread");
        (sent, lines, status, peak)
    });
    let wall_s = started.elapsed().as_secs_f64();
    child.0 = None;
    let status = status?;
    let lines = lines?;
    let chunk_sent_s = sent?;
    if !status.success() {
        let tail: Vec<&str> = lines
            .iter()
            .rev()
            .take(5)
            .map(|(_, l)| l.as_str())
            .collect();
        return Err(io::Error::other(format!(
            "sequence-rtg exited with {status}: {tail:?}"
        )));
    }
    let mut run = CliRun {
        wall_s,
        chunk_sent_s,
        cpu_s: procfs::cpu_times("self")?.children_s - cpu_before,
        peak_rss_mb: peak,
        ..CliRun::default()
    };
    let mut through = 0;
    for (t, line) in &lines {
        if line.starts_with("[batch ") || line.starts_with("[final batch ") {
            through += field(line, "received").unwrap_or(0);
            run.reports.push((*t, through));
        } else if line.starts_with("stream done:") {
            run.records = field(line, "records").unwrap_or(0);
            run.malformed = field(line, "malformed").unwrap_or(0);
        }
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_fields() {
        let line = "[batch 1] received=100000 matched=0 analyzed=100000 new_patterns=3 services=14";
        assert_eq!(field(line, "received"), Some(100_000));
        assert_eq!(field(line, "services"), Some(14));
        assert_eq!(field(line, "absent"), None);
        let done = "stream done: lines=7 records=6 malformed=1 empty=0 | known patterns=2";
        assert_eq!(field(done, "malformed"), Some(1));
        assert_eq!(field(done, "records"), Some(6));
    }

    #[test]
    fn stats_body() {
        let body = r#"{"ingested":10,"matched":6,"unmatched":2,"rejected":1,"malformed":1,"queue_depths":[3,4],"mine_backlog":5,"published_services":7,"counter_drift":0}"#;
        let s = Stats::parse(body).unwrap();
        assert_eq!((s.done(), s.processed(), s.queue_depth), (10, 8, 7));
        assert_eq!((s.mine_backlog, s.published_services), (5, 7));
        assert!(Stats::parse("not json").is_err());
    }
}
