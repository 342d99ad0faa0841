//! Micro-benchmark: pattern-store operations (the persistence layer added by
//! Sequence-RTG, limitation 2). Covers the hot path of a production batch:
//! id-indexed upserts, match-count updates and full set reloads, plus a
//! restart over an on-disk store of realistic size (`reopen_and_load`).

use loghub_synth::loghub2::{self, LOGHUB2_FAMILIES};
use patterndb::PatternStore;
use sequence_core::{Analyzer, Scanner};
use sequence_rtg::{LogRecord, RtgConfig, SequenceRtg};
use std::hint::black_box;
use std::path::Path;
use testkit::bench::{criterion_group, criterion_main, Criterion};

/// Lines mined per LogHub-2.0 family for the restart store: the same
/// 100.8k-line volume the deployed CLI path is benchmarked on.
const LINES_PER_FAMILY: usize = 7_200;

/// The restart store must be large enough for a per-pattern cost to show.
const MIN_RESTART_PATTERNS: u64 = 3_500;

fn discoveries(n: usize) -> Vec<sequence_core::analyzer::DiscoveredPattern> {
    let scanner = Scanner::new();
    let mut all = Vec::new();
    for k in 0..n {
        let msgs: Vec<_> = (0..3)
            .map(|i| scanner.scan(&format!("event kind {k} instance {i} from 10.0.0.{i} done")))
            .collect();
        all.extend(Analyzer::new().analyze(&msgs));
    }
    all
}

fn bench_store(c: &mut Criterion) {
    let ds = discoveries(200);
    let mut group = c.benchmark_group("patterndb");
    group.sample_size(20);

    group.bench_function("upsert_200_patterns", |b| {
        b.iter(|| {
            let mut store = PatternStore::in_memory();
            for d in &ds {
                store.upsert_discovered("svc", black_box(d), 1).unwrap();
            }
            store
        })
    });

    // Pre-populated store for update/read benchmarks.
    let mut store = PatternStore::in_memory();
    let ids: Vec<String> = ds
        .iter()
        .map(|d| store.upsert_discovered("svc", d, 1).unwrap().0)
        .collect();

    group.bench_function("record_matches_point_update", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % ids.len();
            store.record_matches(black_box(&ids[i]), 1, 2).unwrap();
        })
    });

    group.bench_function("load_pattern_sets", |b| {
        b.iter(|| {
            let (sets, _) = store.load_pattern_sets().unwrap();
            black_box(sets.len())
        })
    });

    // What a CLI or seqd restart pays before its first record: open a
    // checkpointed on-disk store and load its parser sets.
    let dir = std::env::temp_dir().join(format!("bench-patterndb-restart-{}", std::process::id()));
    let (patterns, examples) = restart_store(&dir);
    assert!(
        patterns >= MIN_RESTART_PATTERNS,
        "restart store holds {patterns} patterns, want >= {MIN_RESTART_PATTERNS}"
    );
    eprintln!("restart store: {patterns} patterns, {examples} examples");
    group.sample_size(10);
    group.bench_function("reopen_and_load", |b| {
        b.iter(|| {
            let mut store = PatternStore::open(black_box(&dir)).unwrap();
            let (sets, _) = store.load_pattern_sets().unwrap();
            black_box(sets.len())
        })
    });
    group.finish();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mine the 14 LogHub-2.0 families into a fresh on-disk store at `dir` and
/// checkpoint it; returns the pattern and example counts (the miner keeps
/// about two examples per pattern on this input).
fn restart_store(dir: &Path) -> (u64, i64) {
    let _ = std::fs::remove_dir_all(dir);
    let records: Vec<LogRecord> = LOGHUB2_FAMILIES
        .iter()
        .flat_map(|family| {
            loghub2::stream(family, LINES_PER_FAMILY, 20210906)
                .map(move |line| LogRecord::new(*family, line.content))
        })
        .collect();
    let store = PatternStore::open(dir).unwrap();
    let mut rtg = SequenceRtg::new(store, RtgConfig::default()).unwrap();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    rtg.analyze_by_service_parallel(&records, 1, threads)
        .unwrap();
    let store = rtg.store_mut();
    store.checkpoint().unwrap();
    let examples = store.db().query("SELECT COUNT(*) FROM examples").unwrap()[0][0]
        .as_integer()
        .unwrap();
    (store.pattern_count().unwrap(), examples)
}

criterion_group!(benches, bench_store);
criterion_main!(benches);
