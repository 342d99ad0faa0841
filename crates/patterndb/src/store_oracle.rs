//! The pattern store's original read path, kept as a test oracle: one
//! `examples` scan per pattern, and the set load built on top of it. The
//! property below generates stores and checks that the single-pass
//! [`PatternStore::patterns`] and the examples-free
//! [`PatternStore::load_pattern_sets`] return exactly what these did.

use crate::store::{PatternStore, StoreError, StoredPattern};
use sequence_core::{Analyzer, Pattern, PatternSet, Scanner};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use testkit::prop::{self, Config};
use testkit::rng::Rng;
use testkit::{prop_assert, prop_assert_eq};

/// `patterns()` as it was: the pattern rows, then one examples query each.
fn patterns_oracle(
    store: &mut PatternStore,
    service: Option<&str>,
) -> Result<Vec<StoredPattern>, StoreError> {
    let db = store.db();
    let rows = match service {
        Some(s) => db.query_with(
            "SELECT id, service, pattern, cnt, first_seen, last_matched, complexity, promoted
             FROM patterns WHERE service = ? ORDER BY cnt DESC, id",
            &[s.into()],
        )?,
        None => db.query(
            "SELECT id, service, pattern, cnt, first_seen, last_matched, complexity, promoted
             FROM patterns ORDER BY service, cnt DESC, id",
        )?,
    };
    let mut out = Vec::with_capacity(rows.len());
    for r in rows {
        let id = r[0].as_text().unwrap_or_default().to_string();
        let examples = db
            .query_with(
                "SELECT body FROM examples WHERE pattern_id = ? ORDER BY seq",
                &[id.as_str().into()],
            )?
            .into_iter()
            .map(|er| er[0].as_text().unwrap_or_default().to_string())
            .collect();
        out.push(StoredPattern {
            id,
            service: r[1].as_text().unwrap_or_default().to_string(),
            pattern_text: r[2].as_text().unwrap_or_default().to_string(),
            count: r[3].as_integer().unwrap_or(0) as u64,
            first_seen: r[4].as_integer().unwrap_or(0) as u64,
            last_matched: r[5].as_integer().unwrap_or(0) as u64,
            complexity: r[6].as_real().unwrap_or(0.0),
            examples,
            promoted: r[7].as_integer().unwrap_or(0) != 0,
        });
    }
    Ok(out)
}

/// `load_pattern_sets()` as it was: built on [`patterns_oracle`].
fn load_pattern_sets_oracle(
    store: &mut PatternStore,
) -> Result<(HashMap<String, PatternSet>, Vec<StoreError>), StoreError> {
    let mut sets: HashMap<String, PatternSet> = HashMap::new();
    let mut errors = Vec::new();
    for sp in patterns_oracle(store, None)? {
        match sp.pattern() {
            Ok(p) => sets
                .entry(sp.service.clone())
                .or_default()
                .insert(sp.id.clone(), p),
            Err(e) => errors.push(e),
        }
    }
    Ok((sets, errors))
}

/// A comparable view of loaded sets: per service (sorted), the
/// `(id, pattern)` pairs in insertion order.
type SetsView = Vec<(String, Vec<(String, Pattern)>)>;

/// A comparable view of the bad-pattern list: `(id, parse error)` in order.
type ErrorsView = Vec<(String, sequence_core::PatternParseError)>;

fn view(loaded: (HashMap<String, PatternSet>, Vec<StoreError>)) -> (SetsView, ErrorsView) {
    let (sets, errors) = loaded;
    let mut sets: SetsView = sets
        .into_iter()
        .map(|(service, set)| {
            let entries = set
                .iter_inserted()
                .map(|(id, p)| (id.to_string(), p.clone()))
                .collect();
            (service, entries)
        })
        .collect();
    sets.sort_by(|a, b| a.0.cmp(&b.0));
    let errors = errors
        .into_iter()
        .map(|e| match e {
            StoreError::BadPattern { id, err } => (id, err),
            other => panic!("load reported a non-parse error: {other}"),
        })
        .collect();
    (sets, errors)
}

/// Fill `store` from `seed`: several services whose mined patterns tie on
/// count, statistics bumped at random, examples added through
/// `add_example` interleaved across patterns and written straight to the
/// table with their `seq` out of order, orphan examples, and one stored
/// pattern per service that no longer parses.
fn populate(store: &mut PatternStore, seed: u64) -> Result<(), StoreError> {
    let mut rng = Rng::seed_from_u64(seed);
    let scanner = Scanner::new();
    let verbs = ["opened", "closed", "failed", "retried"];
    let mut ids = Vec::new();
    for s in 0..rng.gen_range(1usize..6) {
        let service = format!("svc{s}");
        let msgs: Vec<_> = (0..rng.gen_range(2usize..24))
            .map(|_| {
                let shape = rng.gen_range(0usize..6);
                let tail = (0..shape).map(|k| format!(" field{k}")).collect::<String>();
                scanner.scan(&format!(
                    "session {} for user{} from 10.0.{}.{}{tail}",
                    verbs[rng.gen_range(0..verbs.len())],
                    rng.gen_range(0u32..50),
                    rng.gen_range(0u32..4),
                    rng.gen_range(1u32..255),
                ))
            })
            .collect();
        for d in Analyzer::new().analyze(&msgs) {
            ids.push(store.upsert_discovered(&service, &d, 1)?.0);
        }
        let bad_id = format!("bad-{s}");
        store.db().execute_with(
            "INSERT INTO patterns (id, service, pattern, cnt) VALUES (?, ?, ?, ?)",
            &[
                bad_id.as_str().into(),
                service.as_str().into(),
                "cpu at 100% load, 5% idle".into(),
                (rng.gen_range(1u32..4) as i64).into(),
            ],
        )?;
        // Examples whose rows sit out of `seq` order in the table.
        for seq in [2i64, 0, 1] {
            store.db().execute_with(
                "INSERT INTO examples (pattern_id, seq, body) VALUES (?, ?, ?)",
                &[
                    bad_id.as_str().into(),
                    seq.into(),
                    format!("cpu example {seq}").into(),
                ],
            )?;
        }
    }
    for _ in 0..rng.gen_range(0usize..12) {
        if ids.is_empty() {
            break;
        }
        let id = &ids[rng.gen_range(0..ids.len())];
        store.record_matches(id, rng.gen_range(0u64..3), 2)?;
    }
    for k in 0..rng.gen_range(0usize..16) {
        let body = format!("extra example {k}\nwith a second line");
        match ids.get(rng.gen_range(0..ids.len() + 1)) {
            Some(id) => store.add_example(id, &body)?,
            None => store.add_example("no-such-pattern", &body)?,
        }
    }
    Ok(())
}

/// Check the single-pass read path against the oracle on `store`.
fn same_as_oracle(store: &mut PatternStore) -> Result<(), String> {
    let all = store.patterns(None).map_err(|e| e.to_string())?;
    let expected = patterns_oracle(store, None).map_err(|e| e.to_string())?;
    prop_assert_eq!(&all, &expected);
    let mut services: Vec<String> = all.iter().map(|p| p.service.clone()).collect();
    services.dedup();
    for s in services.iter().map(String::as_str).chain(["absent"]) {
        let got = store.patterns(Some(s)).map_err(|e| e.to_string())?;
        let want = patterns_oracle(store, Some(s)).map_err(|e| e.to_string())?;
        prop_assert_eq!(got, want, "service {}", s);
    }
    let loaded = view(store.load_pattern_sets().map_err(|e| e.to_string())?);
    let oracle = view(load_pattern_sets_oracle(store).map_err(|e| e.to_string())?);
    prop_assert!(!oracle.1.is_empty(), "every store holds a bad pattern");
    prop_assert_eq!(loaded, oracle);
    Ok(())
}

#[test]
fn single_pass_reads_match_the_per_pattern_oracle() {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let strategy = (prop::range(0u64..1 << 48), prop::boolean());
    prop::check(&Config::cases(48), &strategy, |&(seed, persistent)| {
        if !persistent {
            let mut store = PatternStore::in_memory();
            populate(&mut store, seed).map_err(|e| e.to_string())?;
            return same_as_oracle(&mut store);
        }
        let dir = std::env::temp_dir().join(format!(
            "patterndb-oracle-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = PatternStore::open(&dir).map_err(|e| e.to_string())?;
            populate(&mut store, seed).map_err(|e| e.to_string())?;
            if seed % 2 == 0 {
                store.checkpoint().map_err(|e| e.to_string())?;
            }
        }
        let mut reopened = PatternStore::open(&dir).map_err(|e| e.to_string())?;
        let verdict = same_as_oracle(&mut reopened);
        let _ = std::fs::remove_dir_all(&dir);
        verdict
    });
}
