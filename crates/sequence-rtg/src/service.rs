//! Per-service-scoped mining entry points: the `AnalyzeByService` workflow
//! split into a compute-only *plan* phase and a store-writing *commit* phase.
//!
//! [`SequenceRtg::analyze_by_service`] composes the two under its single
//! engine-wide borrow, exactly as before. The `seqd` background miner calls
//! them directly instead, with each phase under the narrowest lock it needs:
//! planning holds only the one service's pattern-set lock (so concurrent
//! mining jobs for *different* services never serialize on the expensive
//! part), and committing holds the store lock only for the brief transaction
//! that persists the results. A failed commit can be retried without
//! re-planning — the plan is pure data, computed once.
//!
//! [`SequenceRtg::analyze_by_service`]: crate::SequenceRtg::analyze_by_service

use crate::config::RtgConfig;
use crate::record::LogRecord;
use crate::semiconst;
use patterndb::{PatternStore, StoreError};
use sequence_core::{
    Analyzer, DiscoveredPattern, MatchScratch, Pattern, PatternSet, Scanner, TokenizedMessage,
};
use std::collections::HashMap;

/// The compute-only result of scanning, parsing and analysing one service's
/// slice of a batch. No store state is touched to build one; everything a
/// commit needs is captured by value.
#[derive(Debug, Clone, Default)]
pub struct ServicePlan {
    /// Matches against the known set, as `(pattern id, count)` sorted by id
    /// for a deterministic store write order.
    pub match_counts: Vec<(String, u64)>,
    /// Patterns mined from the unmatched messages (semi-constant split
    /// already applied when configured).
    pub discovered: Vec<DiscoveredPattern>,
    /// Records planned.
    pub received: u64,
    /// Messages matched to an already-known pattern.
    pub matched_known: u64,
    /// Messages sent to the analyser (unmatched, non-empty).
    pub analyzed: u64,
    /// Messages with embedded line breaks (truncated to their first line).
    pub multiline: u64,
    /// Messages that produced no tokens at all.
    pub empty_messages: u64,
}

/// What one committed plan did to the store. The in-memory pattern set is
/// *not* mutated by [`commit_service`]; the caller applies `inserted` after
/// the enclosing transaction commits, so a rollback leaves the set exactly
/// as the store: unchanged.
#[derive(Debug, Clone, Default)]
pub struct CommitOutcome {
    /// Patterns newly created, as `(store id, pattern)` to insert into the
    /// service's compiled set once the transaction is durable.
    pub inserted: Vec<(String, Pattern)>,
    /// Count of newly created patterns (`inserted.len()`, as u64).
    pub new_patterns: u64,
    /// Patterns that already existed and had their stats updated.
    pub updated_patterns: u64,
}

/// Plan one service's slice of a batch: scan, parse against `set`, analyse
/// the unmatched remainder. Pure compute — the only shared state read is the
/// pattern set snapshot, and nothing is written anywhere.
pub fn plan_service(
    scanner: &Scanner,
    analyzer: &Analyzer,
    config: &RtgConfig,
    set: Option<&PatternSet>,
    scratch: &mut MatchScratch,
    records: &[&LogRecord],
) -> ServicePlan {
    let mut plan = ServicePlan {
        received: records.len() as u64,
        ..ServicePlan::default()
    };
    let scanned: Vec<TokenizedMessage> = {
        let _scan_span = obs::span!("rtg.scan");
        records
            .iter()
            .map(|r| {
                let t = scanner.scan(&r.message);
                if t.truncated_multiline {
                    plan.multiline += 1;
                }
                if t.tokens.is_empty() {
                    plan.empty_messages += 1;
                }
                t
            })
            .collect()
    };
    // Parse step: match against the known set; the rest is analyser input.
    let mut unmatched: Vec<TokenizedMessage> = Vec::new();
    {
        let mut parse_span = obs::span!("rtg.parse");
        parse_span.attr_u64("messages", scanned.len() as u64);
        let mut match_counts: HashMap<String, u64> = HashMap::new();
        for msg in scanned {
            if msg.tokens.is_empty() {
                continue;
            }
            match set.and_then(|s| s.match_message_with(&msg, scratch)) {
                Some(outcome) => {
                    *match_counts.entry(outcome.pattern_id).or_insert(0) += 1;
                    plan.matched_known += 1;
                }
                None => unmatched.push(msg),
            }
        }
        plan.match_counts = match_counts.into_iter().collect();
        plan.match_counts.sort_unstable();
    }
    if unmatched.is_empty() {
        return plan;
    }
    plan.analyzed = unmatched.len() as u64;
    let mut discovered = analyzer.analyze(&unmatched);
    if config.semi_constant_split {
        discovered =
            semiconst::split_semi_constant(discovered, &unmatched, config.semi_constant_max_values);
    }
    plan.discovered = discovered;
    plan
}

/// Persist one plan: record the match statistics, then upsert the mined
/// patterns, in the same store write order the single-lock engine used. The
/// caller owns transaction boundaries (`begin`/`commit`/`rollback`) — a
/// batch spanning several services still commits atomically.
pub fn commit_service(
    store: &mut PatternStore,
    service: &str,
    plan: &ServicePlan,
    now: u64,
) -> Result<CommitOutcome, StoreError> {
    let mut outcome = CommitOutcome::default();
    for (id, n) in &plan.match_counts {
        store.record_matches(id, *n, now)?;
    }
    for d in &plan.discovered {
        let (id, inserted) = store.upsert_discovered(service, d, now)?;
        if inserted {
            outcome.new_patterns += 1;
            outcome.inserted.push((id, d.pattern.clone()));
        } else {
            outcome.updated_patterns += 1;
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records(msgs: &[&str]) -> Vec<LogRecord> {
        msgs.iter().map(|m| LogRecord::new("sshd", *m)).collect()
    }

    fn plan_over(set: Option<&PatternSet>, owned: &[LogRecord]) -> ServicePlan {
        let config = RtgConfig::default();
        let refs: Vec<&LogRecord> = owned.iter().collect();
        plan_service(
            &Scanner::with_options(config.scanner),
            &Analyzer::with_options(config.analyzer),
            &config,
            set,
            &mut MatchScratch::default(),
            &refs,
        )
    }

    #[test]
    fn plan_is_pure_and_commit_applies_it() {
        let owned = records(&[
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
            "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        ]);
        let plan = plan_over(None, &owned);
        assert_eq!(plan.received, 3);
        assert_eq!(plan.matched_known, 0);
        assert_eq!(plan.analyzed, 3);
        assert_eq!(plan.discovered.len(), 1);
        assert!(plan.match_counts.is_empty());

        let mut store = PatternStore::in_memory();
        store.begin().unwrap();
        let outcome = commit_service(&mut store, "sshd", &plan, 7).unwrap();
        store.commit().unwrap();
        assert_eq!(outcome.new_patterns, 1);
        assert_eq!(outcome.updated_patterns, 0);
        assert_eq!(outcome.inserted.len(), 1);
        assert_eq!(store.pattern_count().unwrap(), 1);

        // Apply the insertion to a set and the next plan parses against it.
        let mut set = PatternSet::default();
        for (id, p) in &outcome.inserted {
            set.insert(id.clone(), p.clone());
        }
        let next = records(&["Accepted password for eve from 203.0.113.7 port 999 ssh2"]);
        let plan2 = plan_over(Some(&set), &next);
        assert_eq!(plan2.matched_known, 1);
        assert_eq!(plan2.analyzed, 0);
        assert_eq!(plan2.match_counts.len(), 1);
        assert!(plan2.discovered.is_empty());

        // Committing the match-only plan bumps the stored statistics.
        store.begin().unwrap();
        let outcome2 = commit_service(&mut store, "sshd", &plan2, 9).unwrap();
        store.commit().unwrap();
        assert_eq!(outcome2.new_patterns + outcome2.updated_patterns, 0);
        let p = &store.patterns(Some("sshd")).unwrap()[0];
        assert_eq!(p.count, 4);
        assert_eq!(p.last_matched, 9);
    }

    #[test]
    fn failed_commit_leaves_no_set_mutation_to_undo() {
        let owned = records(&["one of a kind message here"]);
        let plan = plan_over(None, &owned);
        let mut store = PatternStore::in_memory();
        store.set_fault_hook(Some(std::sync::Arc::new(|op: &str| op == "upsert")));
        store.begin().unwrap();
        let err = commit_service(&mut store, "sshd", &plan, 1);
        assert!(err.is_err());
        store.rollback().unwrap();
        // The plan is reusable: clear the fault and the same plan commits.
        store.set_fault_hook(None);
        store.begin().unwrap();
        let outcome = commit_service(&mut store, "sshd", &plan, 1).unwrap();
        store.commit().unwrap();
        assert_eq!(outcome.new_patterns, 1);
    }

    #[test]
    fn empty_and_multiline_messages_are_counted() {
        let owned = vec![
            LogRecord::new("sshd", ""),
            LogRecord::new("sshd", "panic: oh no\n  at frame 1"),
        ];
        let plan = plan_over(None, &owned);
        assert_eq!(plan.empty_messages, 1);
        assert_eq!(plan.multiline, 1);
        assert_eq!(plan.analyzed, 1, "empty messages skip the analyser");
    }
}
