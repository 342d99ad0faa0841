//! End-to-end test of the `seqd` daemon: real sockets, a real on-disk
//! pattern store, and equivalence with the offline batch pipeline.
//!
//! The daemon is started with one shard and a batch size of 5 000, then fed
//! two 5 000-record loghub-synth corpora over TCP. With a single shard the
//! daemon's behaviour is deterministic and must equal the offline reference:
//!
//! * corpus A arrives against an empty store, so every record is unmatched
//!   residue and the 5 000th triggers a re-mine — exactly
//!   `analyze_by_service(A)`;
//! * corpus B (same services, fresh slot values) is matched against the
//!   published sets; only its unmatched residue is mined at the final
//!   drain flush — exactly `analyze_by_service(B-residue)` on the reference.
//!
//! Asserted: (a) `/patterns` equals the reference pattern sets, (b) the
//! `/metrics` counters reconcile, (c) after `POST /shutdown` the on-disk
//! store reopens with the reference pattern count.

use sequence_rtg_repro::patterndb::PatternStore;
use sequence_rtg_repro::seqd::loadgen;
use sequence_rtg_repro::seqd::server::{start, SeqdConfig};
use sequence_rtg_repro::sequence_core::{MatchScratch, Scanner};
use sequence_rtg_repro::sequence_rtg::{LogRecord, SequenceRtg};
use sequence_rtg_repro::{jsonlite, loghub_synth};
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

fn corpus(seed: u64, total: usize) -> Vec<LogRecord> {
    loghub_synth::generate_stream(loghub_synth::CorpusConfig {
        services: 6,
        total,
        seed,
    })
    .into_iter()
    .map(|item| LogRecord::new(item.service, item.message))
    .collect()
}

/// Poll `/stats` until the daemon has completed `n` re-mining runs.
fn wait_for_remines(addr: std::net::SocketAddr, n: i64, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        let stats = loadgen::control_get(addr, "/stats").expect("/stats");
        let v = jsonlite::parse(&stats).expect("stats json");
        if v.get("remine_runs").and_then(|x| x.as_i64()).unwrap_or(0) >= n {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "daemon never reached {n} re-mines; last stats: {stats}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// The published patterns as (service, rendered pattern) pairs, via HTTP.
fn served_patterns(addr: std::net::SocketAddr) -> BTreeSet<(String, String)> {
    let listing = loadgen::control_get(addr, "/patterns").expect("/patterns");
    let listing = jsonlite::parse(&listing).expect("listing json");
    let mut out = BTreeSet::new();
    for entry in listing.get("services").unwrap().as_array().unwrap() {
        let service = entry.get("service").unwrap().as_str().unwrap();
        let body = loadgen::control_get(addr, &format!("/patterns?service={service}"))
            .expect("/patterns?service=");
        let v = jsonlite::parse(&body).expect("patterns json");
        for p in v.get("patterns").unwrap().as_array().unwrap() {
            out.insert((
                service.to_string(),
                p.get("pattern").unwrap().as_str().unwrap().to_string(),
            ));
        }
    }
    out
}

#[test]
fn daemon_matches_batch_pipeline_and_survives_restart() {
    const BATCH: usize = 5_000;
    let corpus_a = corpus(101, BATCH);
    let corpus_b = corpus(202, BATCH);

    let dir = std::env::temp_dir().join(format!("seqd-e2e-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // One shard + queue wide enough for a whole corpus keeps the daemon's
    // processing order identical to the offline reference.
    let config = SeqdConfig {
        shards: 1,
        batch_size: BATCH,
        queue_capacity: 2 * BATCH,
        ..SeqdConfig::default()
    };
    let store = PatternStore::open(&dir).expect("open store");
    let handle = start(store, config.clone(), "127.0.0.1:0").expect("start daemon");
    let addr = handle.addr();

    // --- Corpus A: everything is novel; the 5 000th record triggers a
    // re-mine of the full corpus.
    let receipt = loadgen::replay_records(addr, &corpus_a).expect("replay A");
    assert_eq!(receipt.accepted, BATCH as u64, "receipt: {receipt:?}");
    assert_eq!(receipt.rejected + receipt.malformed, 0);
    wait_for_remines(addr, 1, Duration::from_secs(120));

    // --- Corpus B: matched against the published sets; the residue is
    // mined at the drain flush.
    let receipt = loadgen::replay_records(addr, &corpus_b).expect("replay B");
    assert_eq!(receipt.accepted, BATCH as u64);
    loadgen::wait_until_processed(addr, 2 * BATCH as u64, Duration::from_secs(120))
        .expect("drain corpus B");

    // (b) The /metrics counters reconcile once nothing is in flight.
    let metrics = loadgen::control_get(addr, "/metrics").expect("/metrics");
    let series = |name: &str| -> u64 {
        metrics
            .lines()
            .find(|l| l.starts_with(name) && !l.starts_with('#'))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("series {name} missing in:\n{metrics}"))
    };
    let ingested = series("seqd_ingested_total");
    assert_eq!(ingested, 2 * BATCH as u64);
    assert_eq!(
        ingested,
        series("seqd_matched_total")
            + series("seqd_unmatched_total")
            + series("seqd_rejected_total")
            + series("seqd_malformed_total"),
        "metrics must reconcile:\n{metrics}"
    );
    assert!(series("seqd_remine_runs_total") >= 1);

    // --- Offline reference: the same two corpora through the batch
    // pipeline with the same mining configuration.
    let mut reference = SequenceRtg::in_memory(config.rtg);
    reference
        .analyze_by_service(&corpus_a, 1)
        .expect("analyze A");
    let scanner = Scanner::with_options(config.rtg.scanner);
    let mut scratch = MatchScratch::default();
    let residue_b: Vec<LogRecord> = corpus_b
        .iter()
        .filter(|r| {
            let scanned = scanner.scan_parse_only(&r.message);
            reference
                .pattern_set(&r.service)
                .and_then(|set| set.match_message_with(&scanned, &mut scratch))
                .is_none()
        })
        .cloned()
        .collect();
    let matched_b = (corpus_b.len() - residue_b.len()) as u64;
    assert!(matched_b > 0, "corpus B should re-use corpus A's patterns");
    assert_eq!(series("seqd_matched_total"), matched_b);

    // The daemon mines its remaining residue on shutdown; mirror it.
    if !residue_b.is_empty() {
        reference
            .analyze_by_service(&residue_b, 2)
            .expect("analyze B residue");
    }

    // (a) The served patterns equal the reference pipeline's pattern sets.
    let expected: BTreeSet<(String, String)> = reference
        .pattern_sets()
        .iter()
        .flat_map(|(service, set)| set.iter().map(move |(_, p)| (service.clone(), p.render())))
        .collect();
    let reference_count = expected.len() as u64;

    // (c) POST /shutdown drains, flushes the residue, checkpoints.
    loadgen::control_post(addr, "/shutdown").expect("shutdown");
    let finals = handle.join().expect("join");
    assert!(finals.reconciles(), "{finals:?}");
    assert_eq!(finals.ingested, 2 * BATCH as u64);
    assert_eq!(finals.matched, matched_b);
    let expected_remines = if residue_b.is_empty() { 1 } else { 2 };
    assert_eq!(finals.remines, expected_remines);

    // Patterns served over HTTP before shutdown were corpus-A-only; the
    // full comparison needs the post-drain store. Reopen it.
    let store = PatternStore::open(&dir).expect("reopen store");
    let mut reloaded = SequenceRtg::new(store, config.rtg).expect("reload");
    let served: BTreeSet<(String, String)> = reloaded
        .pattern_sets()
        .iter()
        .flat_map(|(service, set)| set.iter().map(move |(_, p)| (service.clone(), p.render())))
        .collect();
    assert_eq!(served, expected, "daemon store must equal batch pipeline");
    assert_eq!(
        reloaded.store_mut().pattern_count().expect("count"),
        reference_count,
        "reopened store pattern count must match the reference"
    );

    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// The `/patterns` control endpoint serves the same sets the daemon matches
/// with, while it is running.
#[test]
fn served_patterns_match_reference_after_first_mine() {
    const BATCH: usize = 2_500;
    let corpus_a = corpus(77, BATCH);
    let config = SeqdConfig {
        shards: 1,
        batch_size: BATCH,
        queue_capacity: 2 * BATCH,
        ..SeqdConfig::default()
    };
    let handle = start(PatternStore::in_memory(), config.clone(), "127.0.0.1:0").expect("start");
    let addr = handle.addr();
    loadgen::replay_records(addr, &corpus_a).expect("replay");
    wait_for_remines(addr, 1, Duration::from_secs(120));

    let mut reference = SequenceRtg::in_memory(config.rtg);
    reference.analyze_by_service(&corpus_a, 1).expect("analyze");
    let expected: BTreeSet<(String, String)> = reference
        .pattern_sets()
        .iter()
        .flat_map(|(service, set)| set.iter().map(move |(_, p)| (service.clone(), p.render())))
        .collect();
    assert!(!expected.is_empty());
    assert_eq!(served_patterns(addr), expected);

    handle.initiate_shutdown();
    handle.join().expect("join");
}

/// A flood on one connection is taken whole: 20× the queue capacity sent
/// back to back is accepted without a reject, and every record is processed
/// exactly once. Before the shard queue woke its parked worker ahead of
/// waiting for space, each full queue slept out the whole enqueue timeout
/// and the rest of the burst was rejected.
#[test]
fn one_connection_flood_is_accepted_whole() {
    const CAPACITY: usize = 500;
    const LINES: usize = 20 * CAPACITY;
    let config = SeqdConfig {
        shards: 2,
        queue_capacity: CAPACITY,
        ..SeqdConfig::default()
    };
    let handle = start(PatternStore::in_memory(), config, "127.0.0.1:0").expect("start daemon");
    let addr = handle.addr();
    let records: Vec<LogRecord> = (0..LINES)
        .map(|i| {
            LogRecord::new(
                format!("svc-{}", i % 5),
                format!("request {i} served in {} ms by worker-{}", i % 97, i % 3),
            )
        })
        .collect();
    let receipt = loadgen::replay_records(addr, &records).expect("flood");
    assert_eq!(receipt.rejected, 0, "receipt: {receipt:?}");
    assert_eq!(receipt.accepted, LINES as u64, "receipt: {receipt:?}");
    loadgen::wait_until_processed(addr, LINES as u64, Duration::from_secs(120))
        .expect("drain the flood");
    let stats = loadgen::control_get(addr, "/stats").expect("/stats");
    let v = jsonlite::parse(&stats).expect("stats json");
    let field = |k: &str| v.get(k).and_then(|x| x.as_i64()).unwrap();
    assert_eq!(
        field("matched") + field("unmatched"),
        LINES as i64,
        "{stats}"
    );
    assert_eq!(field("counter_drift"), 0, "{stats}");
    loadgen::control_post(addr, "/shutdown").expect("shutdown");
    let finals = handle.join().expect("join");
    assert!(finals.reconciles(), "{finals:?}");
    assert_eq!(finals.ingested, LINES as u64);
    assert_eq!(finals.matched + finals.unmatched, LINES as u64);
    assert_eq!((finals.rejected, finals.dropped), (0, 0), "{finals:?}");
    assert_eq!(finals.counter_drift(), 0);
}
