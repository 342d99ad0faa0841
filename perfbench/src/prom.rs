//! Deltas of the daemon's `/metrics` histograms and counters over a window.
//!
//! Only unlabelled series are read: the stage histograms and the `Ops`
//! counters the benchmark reports are all unlabelled.

use std::collections::BTreeMap;

/// One histogram as scraped: cumulative bucket counts by upper edge
/// (seconds; `+Inf` as `f64::INFINITY`), the sum in seconds and the count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Hist {
    pub buckets: Vec<(f64, u64)>,
    pub sum_s: f64,
    pub count: u64,
}

/// A parsed scrape.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    pub hists: BTreeMap<String, Hist>,
    pub values: BTreeMap<String, f64>,
}

/// The change of one histogram over a window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistDelta {
    pub count: u64,
    pub sum_ms: f64,
    /// Upper edge of the bucket holding the 99th percentile, in ms; `0`
    /// when nothing was recorded.
    pub p99_ms: f64,
}

/// Parse the Prometheus text exposition format.
pub fn parse(text: &str) -> Scrape {
    let mut out = Scrape::default();
    for line in text.lines() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((n, l)) => (n, l.trim_end_matches('}')),
            None => (series, ""),
        };
        if let Some(base) = name.strip_suffix("_bucket") {
            // Only unlabelled histograms: the sole label is `le`.
            let Some(le) = labels
                .strip_prefix("le=\"")
                .and_then(|l| l.strip_suffix('"'))
            else {
                continue;
            };
            let edge = if le == "+Inf" {
                f64::INFINITY
            } else {
                match le.parse() {
                    Ok(e) => e,
                    Err(_) => continue,
                }
            };
            let h = out.hists.entry(base.to_string()).or_default();
            h.buckets.push((edge, value as u64));
        } else if !labels.is_empty() {
            continue;
        } else if let Some(base) = name.strip_suffix("_sum") {
            out.hists.entry(base.to_string()).or_default().sum_s = value;
        } else if let Some(base) = name.strip_suffix("_count") {
            out.hists.entry(base.to_string()).or_default().count = value as u64;
        } else {
            out.values.insert(name.to_string(), value);
        }
    }
    // `_sum`/`_count` of a labelled family would have created an entry
    // without buckets; keep only real unlabelled histograms.
    out.hists.retain(|_, h| !h.buckets.is_empty());
    for h in out.hists.values_mut() {
        h.buckets.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    out
}

/// Cumulative count at or below `edge` (buckets the scrape left out are
/// empty, so the nearest lower edge carries the count).
fn cumulative_at(h: &Hist, edge: f64) -> u64 {
    h.buckets
        .iter()
        .take_while(|(e, _)| *e <= edge)
        .last()
        .map_or(0, |(_, c)| *c)
}

/// The change of histogram `name` from `before` to `after`.
pub fn hist_delta(before: &Scrape, after: &Scrape, name: &str) -> HistDelta {
    let empty = Hist::default();
    let a = after.hists.get(name).unwrap_or(&empty);
    let b = before.hists.get(name).unwrap_or(&empty);
    let count = a.count.saturating_sub(b.count);
    let sum_ms = ((a.sum_s - b.sum_s) * 1e3).max(0.0);
    let mut p99_ms = 0.0;
    if count > 0 {
        let target = (0.99 * count as f64).ceil() as u64;
        for &(edge, cum) in &a.buckets {
            if cum.saturating_sub(cumulative_at(b, edge)) >= target {
                p99_ms = edge * 1e3;
                break;
            }
        }
    }
    HistDelta {
        count,
        sum_ms,
        p99_ms,
    }
}

/// The change of an unlabelled counter or gauge.
pub fn value_delta(before: &Scrape, after: &Scrape, name: &str) -> f64 {
    after.values.get(name).copied().unwrap_or(0.0) - before.values.get(name).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "\
# HELP seqd_match_seconds Match time
# TYPE seqd_match_seconds histogram
seqd_match_seconds_bucket{le=\"0.000001\"} 5
seqd_match_seconds_bucket{le=\"+Inf\"} 5
seqd_match_seconds_sum 0.000004
seqd_match_seconds_count 5
seqd_rejected_total 7
seqd_queue_depth{shard=\"0\"} 3
seqd_service_match_seconds_sum{service=\"a\"} 1.0
seqd_service_match_seconds_count{service=\"a\"} 1
";

    const AFTER: &str = "\
seqd_match_seconds_bucket{le=\"0.000001\"} 15
seqd_match_seconds_bucket{le=\"0.002\"} 114
seqd_match_seconds_bucket{le=\"0.004\"} 115
seqd_match_seconds_bucket{le=\"+Inf\"} 115
seqd_match_seconds_sum 0.100004
seqd_match_seconds_count 115
seqd_rejected_total 19
";

    #[test]
    fn parses_unlabelled_series_only() {
        let s = parse(BEFORE);
        assert_eq!(s.hists.len(), 1, "{:?}", s.hists.keys());
        assert_eq!(s.hists["seqd_match_seconds"].count, 5);
        assert_eq!(s.values.get("seqd_rejected_total"), Some(&7.0));
        assert!(!s.values.contains_key("seqd_queue_depth"));
    }

    #[test]
    fn deltas_over_a_window() {
        let (b, a) = (parse(BEFORE), parse(AFTER));
        let d = hist_delta(&b, &a, "seqd_match_seconds");
        assert_eq!(d.count, 110);
        assert!((d.sum_ms - 100.0).abs() < 1e-9);
        // 10 new samples ≤ 1 µs, 99 in (1 µs, 2 ms], 1 above: the 99th
        // percentile (109th of 110) lands in the 2 ms bucket.
        assert!((d.p99_ms - 2.0).abs() < 1e-9);
        assert_eq!(value_delta(&b, &a, "seqd_rejected_total"), 12.0);
        let none = hist_delta(&b, &a, "absent_seconds");
        assert_eq!((none.count, none.p99_ms), (0, 0.0));
    }
}
