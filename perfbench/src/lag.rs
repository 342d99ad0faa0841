//! Ingest → processed lag from send times and polled counter samples.
//!
//! The program under test exposes only a running count of records it has
//! finished with (`/stats` for the daemon, batch reports for the CLI). A
//! send unit (a tick, a chunk of a wave) is finished when that count first
//! covers the unit's last record, counting records in send order. Between
//! two polls the crossing time is interpolated linearly, never earlier than
//! the unit was due.

/// One send unit: when it was due (seconds on the run clock) and the
/// cumulative record count through its last record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Unit {
    pub due_s: f64,
    pub through: u64,
}

/// One poll of the program's finished-record counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub t_s: f64,
    pub done: u64,
}

/// The time `done` first reached `target`, interpolated between the last
/// sample below it and the first at or above it, and never before
/// `not_before`. `None` if no sample reaches `target`.
pub fn crossing_time(samples: &[Sample], target: u64, not_before: f64) -> Option<f64> {
    let hit = samples.partition_point(|s| s.done < target);
    let at = samples.get(hit)?;
    let Some(prev) = hit.checked_sub(1).map(|i| samples[i]) else {
        return Some(at.t_s.max(not_before));
    };
    let t0 = prev.t_s.max(not_before);
    if at.t_s <= t0 {
        return Some(at.t_s.max(not_before));
    }
    let frac = (target - prev.done) as f64 / (at.done - prev.done) as f64;
    Some(t0 + (at.t_s - t0) * frac)
}

/// Per-unit lag in seconds, in unit order; `None` for a unit the counter
/// never covered. `samples` must be in time order with a non-decreasing
/// counter (a poll that reads a smaller value than an earlier one is a
/// broken program and is not smoothed over here).
pub fn unit_lags(units: &[Unit], samples: &[Sample]) -> Vec<Option<f64>> {
    units
        .iter()
        .map(|u| crossing_time(samples, u.through, u.due_s).map(|t| t - u.due_s))
        .collect()
}

/// Whether the counter samples are in time order and never decrease.
pub fn samples_are_monotone(samples: &[Sample]) -> bool {
    samples
        .windows(2)
        .all(|w| w[0].t_s <= w[1].t_s && w[0].done <= w[1].done)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(t_s: f64, done: u64) -> Sample {
        Sample { t_s, done }
    }

    #[test]
    fn interpolates_between_polls() {
        let samples = [s(0.0, 0), s(1.0, 100), s(2.0, 300)];
        // 200 is halfway from 100 to 300 → t = 1.5.
        let t = crossing_time(&samples, 200, 0.0).unwrap();
        assert!((t - 1.5).abs() < 1e-12);
        // Exactly on a sample.
        assert_eq!(crossing_time(&samples, 100, 0.0), Some(1.0));
        assert_eq!(crossing_time(&samples, 301, 0.0), None);
    }

    #[test]
    fn never_crosses_before_due() {
        // The unit was due at 1.8; the previous poll (1.0) predates it, so
        // interpolation runs from 1.8 to 2.0 instead of from 1.0.
        let samples = [s(0.0, 0), s(1.0, 100), s(2.0, 300)];
        let t = crossing_time(&samples, 200, 1.8).unwrap();
        assert!((t - 1.9).abs() < 1e-12);
        // Already covered at the first poll, which came before it was due.
        assert_eq!(crossing_time(&[s(0.5, 10)], 5, 1.0), Some(1.0));
    }

    #[test]
    fn lags_per_unit() {
        let units = [
            Unit {
                due_s: 0.0,
                through: 100,
            },
            Unit {
                due_s: 0.01,
                through: 200,
            },
            Unit {
                due_s: 0.02,
                through: 400,
            },
        ];
        let samples = [s(0.0, 0), s(0.005, 100), s(0.015, 200), s(0.030, 300)];
        let lags = unit_lags(&units, &samples);
        assert!((lags[0].unwrap() - 0.005).abs() < 1e-12);
        assert!((lags[1].unwrap() - 0.005).abs() < 1e-12);
        assert_eq!(lags[2], None);
    }

    #[test]
    fn monotone_check() {
        assert!(samples_are_monotone(&[s(0.0, 1), s(1.0, 1), s(2.0, 5)]));
        assert!(!samples_are_monotone(&[s(0.0, 2), s(1.0, 1)]));
        assert!(!samples_are_monotone(&[s(1.0, 1), s(0.5, 2)]));
    }
}
