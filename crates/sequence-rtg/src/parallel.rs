//! Parallel per-service analysis.
//!
//! The paper notes that "if the capacity of Sequence-RTG needed to be scaled
//! up, the messages could be divided simply by sending groups of services to
//! any number (of) instances of Sequence-RTG [...] as there is no crossover
//! with patterns between different services". This module implements that
//! scale-out *inside* one process: services are sharded across worker
//! threads (`std::thread::scope` over the shared, read-only pattern
//! sets); the compute-heavy plan phase (scan + parse + analyse) runs in
//! parallel and the coordinating thread then commits every plan in one
//! transaction, exactly as the sequential path does.

use crate::analyze_by_service::{BatchReport, SequenceRtg};
use crate::record::LogRecord;
use crate::service::{plan_service, ServicePlan};
use patterndb::StoreError;
use sequence_core::MatchScratch;
use std::collections::HashMap;

impl SequenceRtg {
    /// Parallel variant of
    /// [`analyze_by_service`](SequenceRtg::analyze_by_service): shards
    /// services across `threads` workers. Results are identical to the
    /// sequential method (the same per-service partitions are planned by
    /// the same code and committed in the same order, in one transaction);
    /// only wall-clock time differs.
    pub fn analyze_by_service_parallel(
        &mut self,
        batch: &[LogRecord],
        now: u64,
        threads: usize,
    ) -> Result<BatchReport, StoreError> {
        let threads = threads.max(1);
        let mut analyze_span = obs::span!("rtg.analyze");
        analyze_span.attr_u64("batch", batch.len() as u64);
        analyze_span.attr_u64("threads", threads as u64);
        let mut report = BatchReport {
            received: batch.len() as u64,
            ..Default::default()
        };
        let mut by_service: HashMap<&str, Vec<&LogRecord>> = HashMap::new();
        for r in batch {
            by_service.entry(r.service.as_str()).or_default().push(r);
        }
        report.services = by_service.len() as u64;
        let mut services: Vec<(&str, Vec<&LogRecord>)> = by_service.into_iter().collect();
        // Largest services first so shards balance.
        services.sort_by(|a, b| b.1.len().cmp(&a.1.len()).then(a.0.cmp(b.0)));
        let mut shards: Vec<Vec<(&str, Vec<&LogRecord>)>> =
            (0..threads).map(|_| Vec::new()).collect();
        let mut shard_load = vec![0usize; threads];
        for (svc, recs) in services {
            let lightest = (0..threads)
                .min_by_key(|&i| shard_load[i])
                .expect("threads >= 1");
            shard_load[lightest] += recs.len();
            shards[lightest].push((svc, recs));
        }

        let scanner = &self.scanner;
        let analyzer = &self.analyzer;
        let sets = &self.sets;
        let config = &self.config;

        let mut plans: Vec<(&str, ServicePlan)> = std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (shard_no, shard) in shards.iter().enumerate() {
                handles.push(scope.spawn(move || {
                    let mut chunk_span = obs::span!("rtg.parallel_chunk");
                    chunk_span.attr_u64("shard", shard_no as u64);
                    chunk_span.attr_u64("services", shard.len() as u64);
                    // One trie-walk scratch per worker thread, reused across
                    // every message the shard parses.
                    let mut scratch = MatchScratch::default();
                    shard
                        .iter()
                        .map(|(service, records)| {
                            let set = sets.get(*service);
                            let plan =
                                plan_service(scanner, analyzer, config, set, &mut scratch, records);
                            (*service, plan)
                        })
                        .collect::<Vec<_>>()
                }));
            }
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker panicked"))
                .collect()
        });
        // Commit in service order, as the sequential path does, so the
        // store's write order does not depend on the sharding.
        plans.sort_unstable_by(|a, b| a.0.cmp(b.0));
        self.commit_batch(&plans, now, &mut report)?;
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RtgConfig;

    fn multi_service_batch() -> Vec<LogRecord> {
        let mut batch = Vec::new();
        for svc in ["sshd", "nginx", "cron", "kernel", "postfix"] {
            for i in 0..20 {
                batch.push(LogRecord::new(
                    svc,
                    format!("{svc} event number {i} from host{} done", i % 4),
                ));
            }
        }
        batch
    }

    #[test]
    fn parallel_equals_sequential() {
        let batch = multi_service_batch();
        let mut seq = SequenceRtg::in_memory(RtgConfig::default());
        let r1 = seq.analyze_by_service(&batch, 7).unwrap();
        let mut par = SequenceRtg::in_memory(RtgConfig::default());
        let r2 = par.analyze_by_service_parallel(&batch, 7, 4).unwrap();

        assert_eq!(r1.received, r2.received);
        assert_eq!(r1.matched_known, r2.matched_known);
        assert_eq!(r1.analyzed, r2.analyzed);
        assert_eq!(r1.new_patterns, r2.new_patterns);
        assert_eq!(r1.services, r2.services);

        let mut p1: Vec<(String, String, u64)> = seq
            .store_mut()
            .patterns(None)
            .unwrap()
            .into_iter()
            .map(|p| (p.service, p.pattern_text, p.count))
            .collect();
        let mut p2: Vec<(String, String, u64)> = par
            .store_mut()
            .patterns(None)
            .unwrap()
            .into_iter()
            .map(|p| (p.service, p.pattern_text, p.count))
            .collect();
        p1.sort();
        p2.sort();
        assert_eq!(p1, p2);
    }

    #[test]
    fn parallel_second_batch_parses_against_first() {
        let batch = multi_service_batch();
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        rtg.analyze_by_service_parallel(&batch, 1, 3).unwrap();
        let r = rtg.analyze_by_service_parallel(&batch, 2, 3).unwrap();
        assert_eq!(r.matched_known, r.received);
        assert_eq!(r.new_patterns, 0);
    }

    /// Every in-memory set as `service -> ids in insertion order`.
    fn loaded_ids(rtg: &SequenceRtg) -> Vec<(String, Vec<String>)> {
        let mut v: Vec<(String, Vec<String>)> = rtg
            .pattern_sets()
            .iter()
            .map(|(s, set)| {
                let ids = set.iter_inserted().map(|(id, _)| id.to_string()).collect();
                (s.clone(), ids)
            })
            .collect();
        v.sort();
        v
    }

    #[test]
    fn failed_merge_leaves_store_and_sets_unchanged_and_retry_succeeds() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let batch = multi_service_batch();
        let mut clean = SequenceRtg::in_memory(RtgConfig::default());
        clean
            .analyze_by_service_parallel(&batch[..50], 1, 3)
            .unwrap();
        let expected = clean.analyze_by_service_parallel(&batch, 2, 3).unwrap();
        assert!(expected.matched_known > 0 && expected.new_patterns > 0);

        // A failing upsert lands mid-merge, after match statistics were
        // written; a failing commit lands after every write.
        for op in ["upsert", "commit"] {
            let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
            rtg.analyze_by_service_parallel(&batch[..50], 1, 3).unwrap();
            let stored = rtg.store_mut().patterns(None).unwrap();
            let loaded = loaded_ids(&rtg);
            let failing = Arc::new(AtomicBool::new(true));
            let flag = Arc::clone(&failing);
            rtg.store_mut()
                .set_fault_hook(Some(Arc::new(move |o: &str| {
                    o == op && flag.load(Ordering::Relaxed)
                })));
            match rtg.analyze_by_service_parallel(&batch, 2, 3) {
                Err(StoreError::Injected(o)) => assert_eq!(o, op),
                other => panic!("{op}: expected an injected failure, got {other:?}"),
            }
            assert_eq!(rtg.store_mut().patterns(None).unwrap(), stored, "{op}");
            assert_eq!(loaded_ids(&rtg), loaded, "{op}");

            failing.store(false, Ordering::Relaxed);
            let report = rtg.analyze_by_service_parallel(&batch, 2, 3).unwrap();
            assert_eq!(report, expected, "{op}");
            assert_eq!(
                rtg.store_mut().patterns(None).unwrap(),
                clean.store_mut().patterns(None).unwrap(),
                "{op}"
            );
            assert_eq!(loaded_ids(&rtg), loaded_ids(&clean), "{op}");
        }
    }

    #[test]
    fn single_thread_degenerate_case() {
        let batch = multi_service_batch();
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let r = rtg.analyze_by_service_parallel(&batch, 1, 1).unwrap();
        assert_eq!(r.received, 100);
    }

    #[test]
    fn more_threads_than_services() {
        let batch = vec![LogRecord::new("only", "one service here")];
        let mut rtg = SequenceRtg::in_memory(RtgConfig::default());
        let r = rtg.analyze_by_service_parallel(&batch, 1, 16).unwrap();
        assert_eq!(r.services, 1);
        assert_eq!(r.new_patterns, 1);
    }
}
