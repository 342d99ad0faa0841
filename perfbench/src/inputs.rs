//! Workload inputs, generated from the seed before any timed window.
//!
//! A stream interleaves LogHub-2.0 families (`loghub_synth::loghub2`, one
//! service per family): each line picks its family uniformly from a seeded
//! generator, then takes that family's next line. Messages are the
//! unmasked content, as a syslog relay would forward them once the header
//! is parsed off. Every line keeps its ground-truth event label for
//! scoring.

use loghub_synth::loghub2;
use patterndb::PatternStore;
use sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::path::Path;
use testkit::rng::Rng;

/// A generated NDJSON stream with its labels.
pub struct Input {
    /// Every line, each terminated by `\n`.
    pub payload: Vec<u8>,
    /// End offset (past the `\n`) of each line in `payload`.
    pub ends: Vec<usize>,
    /// Family index per line.
    pub family: Vec<u8>,
    /// Ground-truth event number per line (`E12` → 12), within its family.
    pub event: Vec<u16>,
}

impl Input {
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Byte range of lines `from..to`.
    pub fn bytes(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        let end = if to == 0 { 0 } else { self.ends[to - 1] };
        &self.payload[start..end]
    }

    /// Line `i` without its terminator.
    pub fn line(&self, i: usize) -> &str {
        let b = self.bytes(i, i + 1);
        std::str::from_utf8(&b[..b.len() - 1]).expect("generated lines are UTF-8")
    }

    /// Line `i` as a record.
    pub fn record(&self, i: usize) -> LogRecord {
        LogRecord::from_json_line(self.line(i)).expect("generated lines are records")
    }

    /// Ground-truth label of line `i`, unique across families.
    pub fn truth(&self, i: usize) -> u32 {
        (u32::from(self.family[i]) << 16) | u32::from(self.event[i])
    }
}

/// Generate `lines` lines drawn from `families` with `seed`.
pub fn stream(families: &[&'static str], lines: usize, seed: u64) -> Input {
    let mut pick = Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut streams: Vec<_> = families
        .iter()
        .map(|f| loghub2::stream(f, lines, seed))
        .collect();
    let mut input = Input {
        payload: Vec::with_capacity(lines * 128),
        ends: Vec::with_capacity(lines),
        family: Vec::with_capacity(lines),
        event: Vec::with_capacity(lines),
    };
    for _ in 0..lines {
        let f = pick.gen_range(0..families.len());
        let line = streams[f]
            .next()
            .expect("each family stream holds `lines` lines");
        let record = LogRecord::new(families[f], line.content);
        input
            .payload
            .extend_from_slice(record.to_json_line().as_bytes());
        input.payload.push(b'\n');
        input.ends.push(input.payload.len());
        input.family.push(f as u8);
        input.event.push(
            line.event
                .strip_prefix('E')
                .and_then(|n| n.parse().ok())
                .expect("LogHub-2.0 event ids are E<number>"),
        );
    }
    input
}

/// Mine `input` into a fresh persistent store at `dir` with the library's
/// default configuration (the same engine the CLI runs), and return the
/// number of stored patterns.
pub fn premine(dir: &Path, input: &Input) -> Result<u64, String> {
    let records: Vec<LogRecord> = (0..input.len()).map(|i| input.record(i)).collect();
    let store = PatternStore::open(dir).map_err(|e| format!("open store: {e}"))?;
    let mut rtg =
        SequenceRtg::new(store, RtgConfig::default()).map_err(|e| format!("load store: {e}"))?;
    rtg.analyze_by_service(&records, 0)
        .map_err(|e| format!("premine: {e}"))?;
    rtg.store_mut()
        .checkpoint()
        .map_err(|e| format!("checkpoint: {e}"))?;
    Ok(rtg.total_known_patterns() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let fams = ["HDFS", "Apache", "OpenSSH"];
        let a = stream(&fams, 300, 5);
        let b = stream(&fams, 300, 5);
        let c = stream(&fams, 300, 6);
        assert_eq!(a.payload, b.payload);
        assert_ne!(a.payload, c.payload);
        assert_eq!(a.len(), 300);
        for i in [0, 1, 299] {
            let r = a.record(i);
            assert_eq!(r.service, fams[a.family[i] as usize]);
            assert!(!r.message.is_empty());
        }
        assert_eq!(a.bytes(0, a.len()), &a.payload[..]);
        // Every family is drawn.
        assert!((0..3u8).all(|f| a.family.contains(&f)));
    }
}
