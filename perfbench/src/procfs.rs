//! CPU time and peak memory of a process, read from `/proc`.

use std::collections::BTreeMap;
use std::io;

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which the
/// kernel fixes at 100 per second on every mainstream architecture
/// (independently of the scheduler's CONFIG_HZ).
pub const USER_HZ: f64 = 100.0;

/// CPU times from one `/proc/<pid>/stat` line, in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuTimes {
    /// The process's own user + system time.
    pub own_s: f64,
    /// User + system time of its waited-for children.
    pub children_s: f64,
}

/// Parse a `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself contain spaces and parentheses, so fields
/// are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // fields[0] is field 3 (state); utime is field 14, cstime field 17.
    let tick = |i: usize| -> Option<f64> { fields.get(i)?.parse::<u64>().ok().map(|v| v as f64) };
    let (utime, stime) = (tick(11)?, tick(12)?);
    let (cutime, cstime) = (tick(13)?, tick(14)?);
    Some(CpuTimes {
        own_s: (utime + stime) / USER_HZ,
        children_s: (cutime + cstime) / USER_HZ,
    })
}

/// The thread name (field 2, without its parentheses) of a stat line.
pub fn parse_comm(line: &str) -> Option<&str> {
    Some(&line[line.find('(')? + 1..line.rfind(')')?])
}

/// The peak resident set (`VmHWM`) in MiB from a `/proc/<pid>/status` body.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value: f64 = parts.next()?.parse().ok()?;
    match parts.next()? {
        "kB" => Some(value / 1024.0),
        _ => None,
    }
}

/// CPU times of a live process (`"self"` for this one).
pub fn cpu_times(pid: &str) -> io::Result<CpuTimes> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat(&text).ok_or_else(|| io::Error::other(format!("unparsable /proc/{pid}/stat")))
}

/// CPU seconds of each live thread of process `pid` whose name is not
/// `exclude`, keyed by thread id.
pub fn thread_cpu(pid: &str, exclude: &str) -> io::Result<BTreeMap<u64, f64>> {
    let mut out = BTreeMap::new();
    for entry in std::fs::read_dir(format!("/proc/{pid}/task"))? {
        let entry = entry?;
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<u64>().ok())
        else {
            continue;
        };
        // A thread may exit between the listing and the read.
        let Ok(line) = std::fs::read_to_string(entry.path().join("stat")) else {
            continue;
        };
        if parse_comm(&line) == Some(exclude) {
            continue;
        }
        if let Some(t) = parse_stat(&line) {
            out.insert(tid, t.own_s);
        }
    }
    Ok(out)
}

/// CPU seconds the threads in `after` used since `before` (threads born in
/// between count from zero).
pub fn thread_cpu_delta(before: &BTreeMap<u64, f64>, after: &BTreeMap<u64, f64>) -> f64 {
    after
        .iter()
        .map(|(tid, s)| s - before.get(tid).copied().unwrap_or(0.0))
        .sum()
}

/// Peak resident set of a live process, in MiB.
pub fn vm_hwm_mb(pid: &str) -> io::Result<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    parse_vm_hwm_mb(&text)
        .ok_or_else(|| io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        // A command name with a space and a ')' must not shift the fields.
        let line = "4242 (seqd (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 75 12 3 20 0 9 0 123 456789 1024 18446744073709551615";
        let t = parse_stat(line).unwrap();
        assert!((t.own_s - 3.25).abs() < 1e-12);
        assert!((t.children_s - 0.15).abs() < 1e-12);
        assert_eq!(parse_comm(line), Some("seqd (x) y"));
        assert_eq!(parse_stat("garbage"), None);
        assert_eq!(parse_stat("1 (x) S 1 2"), None);
    }

    #[test]
    fn vm_hwm_in_mib() {
        let status = "Name:\tseqd\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn thread_deltas_count_new_threads_from_zero() {
        let before = BTreeMap::from([(1, 1.0), (2, 0.5), (3, 4.0)]);
        // Thread 3 exited (its time is not counted), thread 4 is new.
        let after = BTreeMap::from([(1, 1.5), (2, 0.5), (4, 0.25)]);
        assert!((thread_cpu_delta(&before, &after) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn reads_this_process() {
        let threads = thread_cpu("self", "no-such-name").unwrap();
        assert!(!threads.is_empty());
        let t = cpu_times("self").unwrap();
        assert!(t.own_s >= 0.0);
        assert!(vm_hwm_mb("self").unwrap() > 0.0);
    }
}
