//! The `AnalyzeByService` workflow (paper §III, Fig. 2).
//!
//! "It performs a first partitioning of the data which groups the log records
//! into subsets by service and then scans the messages into token sets. These
//! scanned messages are then sent to the Sequence parser to see if they match
//! an already known pattern. If a match is found the last matched date and
//! the number of examples matched to this pattern are adjusted accordingly
//! and no further processing occurs for this message. Any message for which a
//! match is not found is sent on to the analyser to be mined for new
//! patterns. A second partitioning of these unmatched messages occurs based
//! on count of tokens in the set." (The second partitioning is performed
//! inside [`sequence_core::Analyzer::analyze`].)

use crate::config::RtgConfig;
use crate::record::LogRecord;
use crate::service::{commit_service, plan_service, CommitOutcome, ServicePlan};
use patterndb::{PatternStore, StoreError};
use sequence_core::{Analyzer, MatchScratch, PatternSet, Scanner};
use std::collections::HashMap;

/// Summary of one batch run, for operator visibility and the experiments.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchReport {
    /// Records received.
    pub received: u64,
    /// Messages matched to an already-known pattern during the parse step.
    pub matched_known: u64,
    /// Messages sent to the analyser (unmatched).
    pub analyzed: u64,
    /// Patterns newly created in the database by this batch.
    pub new_patterns: u64,
    /// Patterns that already existed and had their stats updated.
    pub updated_patterns: u64,
    /// Messages with embedded line breaks (truncated to their first line).
    pub multiline: u64,
    /// Messages that produced no tokens at all.
    pub empty_messages: u64,
    /// Distinct services seen in the batch.
    pub services: u64,
}

impl BatchReport {
    /// Fraction of received messages matched to a known pattern before
    /// analysis — the quantity tracked in the paper's Fig. 7.
    pub fn matched_ratio(&self) -> f64 {
        if self.received == 0 {
            return 0.0;
        }
        self.matched_known as f64 / self.received as f64
    }

    /// Merge another report into this one (used by the parallel driver).
    pub fn merge(&mut self, other: &BatchReport) {
        self.received += other.received;
        self.matched_known += other.matched_known;
        self.analyzed += other.analyzed;
        self.new_patterns += other.new_patterns;
        self.updated_patterns += other.updated_patterns;
        self.multiline += other.multiline;
        self.empty_messages += other.empty_messages;
        self.services += other.services;
    }
}

/// The Sequence-RTG engine: scanner + analyser + parser + pattern store,
/// kept consistent across batches.
#[derive(Debug)]
pub struct SequenceRtg {
    pub(crate) config: RtgConfig,
    pub(crate) scanner: Scanner,
    pub(crate) analyzer: Analyzer,
    pub(crate) store: PatternStore,
    /// In-memory per-service pattern sets, mirroring the store.
    pub(crate) sets: HashMap<String, PatternSet>,
    /// Reusable trie-walk buffers for the parse step (one engine, one
    /// thread): parsing a whole batch performs no per-message frontier
    /// allocations.
    scratch: MatchScratch,
}

impl SequenceRtg {
    /// Build an engine over a pattern store, loading any persisted patterns
    /// into the in-memory parser sets.
    pub fn new(mut store: PatternStore, config: RtgConfig) -> Result<SequenceRtg, StoreError> {
        let (sets, _bad) = store.load_pattern_sets()?;
        Ok(SequenceRtg {
            config,
            scanner: Scanner::with_options(config.scanner),
            analyzer: Analyzer::with_options(config.analyzer),
            store,
            sets,
            scratch: MatchScratch::default(),
        })
    }

    /// An engine over a fresh in-memory store (tests, experiments).
    pub fn in_memory(config: RtgConfig) -> SequenceRtg {
        SequenceRtg::new(PatternStore::in_memory(), config).expect("empty store loads")
    }

    /// The active configuration.
    pub fn config(&self) -> RtgConfig {
        self.config
    }

    /// The underlying store (e.g. for exporting patterns).
    pub fn store_mut(&mut self) -> &mut PatternStore {
        &mut self.store
    }

    /// Number of patterns currently loaded for a service.
    pub fn known_patterns(&self, service: &str) -> usize {
        self.sets.get(service).map_or(0, |s| s.len())
    }

    /// Total patterns across services.
    pub fn total_known_patterns(&self) -> usize {
        self.sets.values().map(|s| s.len()).sum()
    }

    /// The in-memory compiled pattern set for one service, if any pattern
    /// has been discovered or loaded for it. The daemon (`seqd`) clones this
    /// after a re-mine to publish a hot-swapped set to its matchers.
    pub fn pattern_set(&self, service: &str) -> Option<&PatternSet> {
        self.sets.get(service)
    }

    /// All in-memory compiled pattern sets, keyed by service (e.g. to seed a
    /// serving plane from a freshly loaded store).
    pub fn pattern_sets(&self) -> &HashMap<String, PatternSet> {
        &self.sets
    }

    /// The new Sequence-RTG entry point: partition by service, parse known
    /// messages first, analyse the rest per service, persist discoveries.
    pub fn analyze_by_service(
        &mut self,
        batch: &[LogRecord],
        now: u64,
    ) -> Result<BatchReport, StoreError> {
        let mut analyze_span = obs::span!("rtg.analyze");
        analyze_span.attr_u64("batch", batch.len() as u64);
        let mut report = BatchReport {
            received: batch.len() as u64,
            ..Default::default()
        };
        // First partitioning: group records by service.
        let mut by_service: HashMap<&str, Vec<&LogRecord>> = HashMap::new();
        for r in batch {
            by_service.entry(r.service.as_str()).or_default().push(r);
        }
        report.services = by_service.len() as u64;
        analyze_span.attr_u64("services", by_service.len() as u64);
        let mut services: Vec<&str> = by_service.keys().copied().collect();
        services.sort_unstable();
        let mut plans = Vec::with_capacity(services.len());
        for service in services {
            // Plan (pure compute) then commit (store writes) — the same
            // split the seqd background miner drives under per-piece locks.
            let plan = plan_service(
                &self.scanner,
                &self.analyzer,
                &self.config,
                self.sets.get(service),
                &mut self.scratch,
                &by_service[service],
            );
            plans.push((service, plan));
        }
        self.commit_batch(&plans, now, &mut report)?;
        Ok(report)
    }

    /// Persist one batch's per-service plans, given in service order, and
    /// fold them into `report`. One transaction per batch: a crash mid-batch
    /// must not leave a half-updated pattern database behind, and a failed
    /// commit leaves both the store and the in-memory sets unchanged.
    pub(crate) fn commit_batch(
        &mut self,
        plans: &[(&str, ServicePlan)],
        now: u64,
        report: &mut BatchReport,
    ) -> Result<(), StoreError> {
        self.store.begin()?;
        let mut committed: Vec<(&str, CommitOutcome)> = Vec::with_capacity(plans.len());
        for (service, plan) in plans {
            match commit_service(&mut self.store, service, plan, now) {
                Ok(outcome) => committed.push((service, outcome)),
                Err(e) => {
                    self.store.rollback()?;
                    return Err(e);
                }
            }
        }
        self.store.commit()?;
        for (_, plan) in plans {
            report.matched_known += plan.matched_known;
            report.analyzed += plan.analyzed;
            report.multiline += plan.multiline;
            report.empty_messages += plan.empty_messages;
        }
        // Only a durable transaction mutates the in-memory parser sets: a
        // rolled-back batch leaves them exactly mirroring the store.
        for (service, outcome) in committed {
            report.new_patterns += outcome.new_patterns;
            report.updated_patterns += outcome.updated_patterns;
            if outcome.inserted.is_empty() {
                continue;
            }
            let set = self.sets.entry(service.to_string()).or_default();
            for (id, pattern) in outcome.inserted {
                set.insert(id, pattern);
            }
        }
        if self.config.save_threshold > 0 {
            let pruned = self
                .store
                .prune_below_threshold(self.config.save_threshold)?;
            if pruned > 0 {
                // Keep the in-memory parser sets consistent with the store.
                let (sets, _bad) = self.store.load_pattern_sets()?;
                self.sets = sets;
            }
        }
        Ok(())
    }

    /// The seminal `Analyze` behaviour, for the Fig. 5 comparison: no service
    /// partitioning and no parse-first step — every record goes into the
    /// per-token-count analysis tries together, regardless of source. The
    /// discovered patterns are still persisted under each record's service
    /// (keyed by the *first* covering record's service, as a single mixed
    /// trie cannot do better — this is precisely the quality problem the
    /// paper's first partitioning step removes).
    pub fn analyze_all(
        &mut self,
        batch: &[LogRecord],
        now: u64,
    ) -> Result<BatchReport, StoreError> {
        let mut report = BatchReport {
            received: batch.len() as u64,
            ..Default::default()
        };
        let mut scanned = Vec::with_capacity(batch.len());
        for r in batch {
            let t = self.scanner.scan(&r.message);
            if t.truncated_multiline {
                report.multiline += 1;
            }
            if t.tokens.is_empty() {
                report.empty_messages += 1;
            }
            scanned.push(t);
        }
        let discovered = self.analyzer.analyze(&scanned);
        report.analyzed = report.received - report.empty_messages;
        for d in &discovered {
            let service = d
                .member_indices
                .first()
                .map(|&i| batch[i as usize].service.as_str())
                .unwrap_or("unknown");
            let (id, inserted) = self.store.upsert_discovered(service, d, now)?;
            if inserted {
                report.new_patterns += 1;
                self.sets
                    .entry(service.to_string())
                    .or_default()
                    .insert(id, d.pattern.clone());
            } else {
                report.updated_patterns += 1;
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sshd_batch() -> Vec<LogRecord> {
        [
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
            "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        ]
        .iter()
        .map(|m| LogRecord::new("sshd", *m))
        .collect()
    }

    #[test]
    fn batch_report_merge_sums_fields() {
        let a = BatchReport {
            received: 10,
            matched_known: 4,
            analyzed: 6,
            new_patterns: 2,
            updated_patterns: 1,
            multiline: 1,
            empty_messages: 0,
            services: 2,
        };
        let mut b = a.clone();
        b.merge(&a);
        assert_eq!(b.received, 20);
        assert_eq!(b.matched_known, 8);
        assert_eq!(b.new_patterns, 4);
        assert!((a.matched_ratio() - 0.4).abs() < 1e-12);
        assert_eq!(BatchReport::default().matched_ratio(), 0.0);
    }

    #[test]
    fn first_batch_discovers_second_batch_parses() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let r1 = rtg.analyze_by_service(&sshd_batch(), 100).unwrap();
        assert_eq!(r1.received, 3);
        assert_eq!(r1.matched_known, 0);
        assert_eq!(r1.analyzed, 3);
        assert_eq!(r1.new_patterns, 1);

        let batch2 = vec![LogRecord::new(
            "sshd",
            "Accepted password for eve from 203.0.113.7 port 999 ssh2",
        )];
        let r2 = rtg.analyze_by_service(&batch2, 200).unwrap();
        assert_eq!(r2.matched_known, 1);
        assert_eq!(r2.analyzed, 0);
        assert_eq!(r2.new_patterns, 0);
        assert!((r2.matched_ratio() - 1.0).abs() < 1e-12);

        // The store accumulated the match.
        let patterns = rtg.store_mut().patterns(Some("sshd")).unwrap();
        assert_eq!(patterns.len(), 1);
        assert_eq!(patterns[0].count, 4);
        assert_eq!(patterns[0].last_matched, 200);
    }

    #[test]
    fn services_are_isolated() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let mut batch = sshd_batch();
        // Same text under a different service must become its own pattern.
        batch.push(LogRecord::new("sshd-backup", &batch[0].message));
        let r = rtg.analyze_by_service(&batch, 1).unwrap();
        assert_eq!(r.services, 2);
        assert_eq!(rtg.known_patterns("sshd"), 1);
        assert_eq!(rtg.known_patterns("sshd-backup"), 1);
        // And parsing one service's message does not consult the other's set.
        assert_eq!(rtg.known_patterns("nginx"), 0);
    }

    #[test]
    fn multiline_counted_and_pattern_has_ignore_rest() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let batch = vec![
            LogRecord::new("app", "panic: oh no\n  at frame 1"),
            LogRecord::new("app", "panic: oh dear\n  at frame 2"),
            LogRecord::new("app", "panic: oh my\nstack"),
        ];
        let r = rtg.analyze_by_service(&batch, 1).unwrap();
        assert_eq!(r.multiline, 3);
        let p = &rtg.store_mut().patterns(Some("app")).unwrap()[0];
        assert!(p.pattern().unwrap().has_ignore_rest());
        // A later multi-line message with different continuation matches.
        let again = vec![LogRecord::new(
            "app",
            "panic: oh help\ncompletely different tail",
        )];
        let r2 = rtg.analyze_by_service(&again, 2).unwrap();
        assert_eq!(r2.matched_known, 1);
    }

    #[test]
    fn save_threshold_prunes_weak_patterns() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig {
            save_threshold: 2,
            ..RtgConfig::default()
        });
        let batch = vec![
            LogRecord::new("svc", "one of a kind message never repeated"),
            LogRecord::new("svc", "common event alpha"),
            LogRecord::new("svc", "common event beta"),
            LogRecord::new("svc", "common event gamma"),
        ];
        rtg.analyze_by_service(&batch, 1).unwrap();
        let patterns = rtg.store_mut().patterns(Some("svc")).unwrap();
        assert_eq!(patterns.len(), 1, "singleton pattern pruned: {patterns:?}");
        assert_eq!(patterns[0].count, 3);
    }

    #[test]
    fn analyze_all_mixes_services() {
        // The seminal path analyses everything together; messages with the
        // same shape from different services collapse into one pattern row.
        let mut rtg = SequenceRtg::in_memory(RtgConfig::seminal());
        let batch = vec![
            LogRecord::new("svc-a", "session opened for user alice"),
            LogRecord::new("svc-b", "session opened for user bob"),
            LogRecord::new("svc-c", "session opened for user carol"),
        ];
        let r = rtg.analyze_all(&batch, 1).unwrap();
        assert_eq!(r.new_patterns, 1);
        assert_eq!(rtg.store_mut().pattern_count().unwrap(), 1);
    }

    #[test]
    fn empty_messages_do_not_crash_or_pattern() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let batch = vec![LogRecord::new("svc", ""), LogRecord::new("svc", "   ")];
        let r = rtg.analyze_by_service(&batch, 1).unwrap();
        assert_eq!(r.empty_messages, 2);
        assert_eq!(r.analyzed, 0);
        assert_eq!(rtg.store_mut().pattern_count().unwrap(), 0);
    }

    #[test]
    fn repeated_batches_update_not_duplicate() {
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        rtg.analyze_by_service(&sshd_batch(), 1).unwrap();
        // Force the same discovery again by clearing in-memory sets (as if a
        // second instance shared the store).
        let mut rtg2 = SequenceRtg::new(
            std::mem::replace(rtg.store_mut(), PatternStore::in_memory()),
            RtgConfig::default(),
        )
        .unwrap();
        let r = rtg2.analyze_by_service(&sshd_batch(), 2).unwrap();
        // Patterns were reloaded from the store, so everything matches.
        assert_eq!(r.matched_known, 3);
        assert_eq!(rtg2.store_mut().pattern_count().unwrap(), 1);
    }
}
