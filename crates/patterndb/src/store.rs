//! The persistent pattern store.
//!
//! "Analysing system logs in a continuous way requires to be able to preserve
//! patterns between the processing of different message batches. To this end,
//! Sequence-RTG stores the patterns in a SQL database in a one-to-many
//! relationship with their related services. We also include up to three
//! unique examples for each pattern [...] we attach a set of statistics to
//! the messages matched to each pattern [...] the number of times that the
//! pattern has been matched since first discovered (count), how recently it
//! was last matched (last matched date) and a calculated complexity score."

use crate::sha1::pattern_id;
use minisql::{Database, SqlValue};
use sequence_core::analyzer::DiscoveredPattern;
use sequence_core::{Pattern, PatternSet};
use std::collections::HashMap;
use std::path::Path;

/// Errors from the pattern store.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying database error.
    Db(minisql::Error),
    /// A stored pattern string no longer parses (e.g. the documented `%`
    /// collision, see §IV "unknown tag error").
    BadPattern {
        /// The offending pattern id.
        id: String,
        /// Parse failure.
        err: sequence_core::PatternParseError,
    },
    /// A failure injected by the test fault hook (see
    /// [`PatternStore::set_fault_hook`]); never produced in production.
    Injected(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Db(e) => write!(f, "pattern store database error: {e}"),
            StoreError::BadPattern { id, err } => {
                write!(f, "stored pattern {id} no longer parses: {err}")
            }
            StoreError::Injected(op) => write!(f, "injected fault in store operation {op}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<minisql::Error> for StoreError {
    fn from(e: minisql::Error) -> Self {
        StoreError::Db(e)
    }
}

/// A pattern row with its statistics and examples.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredPattern {
    /// SHA1(pattern ‖ service).
    pub id: String,
    /// Originating service.
    pub service: String,
    /// The pattern's textual form.
    pub pattern_text: String,
    /// Match count since discovery.
    pub count: u64,
    /// Unix timestamp of first discovery.
    pub first_seen: u64,
    /// Unix timestamp of the most recent match.
    pub last_matched: u64,
    /// The pattern's complexity score (variable fraction; 1.0 = worst).
    pub complexity: f64,
    /// Up to three unique example messages.
    pub examples: Vec<String>,
    /// Whether an administrator review promoted this pattern to production
    /// (see [`crate::review`]).
    pub promoted: bool,
}

impl StoredPattern {
    /// Parse the stored pattern text back into a [`Pattern`].
    pub fn pattern(&self) -> Result<Pattern, StoreError> {
        Pattern::parse(&self.pattern_text).map_err(|err| StoreError::BadPattern {
            id: self.id.clone(),
            err,
        })
    }
}

/// The fault-hook shape: called with the operation name before each write
/// path; returning `true` injects [`StoreError::Injected`].
pub type FaultHook = std::sync::Arc<dyn Fn(&str) -> bool + Send + Sync>;

/// The store: a thin typed layer over the [`minisql`] database.
pub struct PatternStore {
    db: Database,
    fault_hook: Option<FaultHook>,
    /// Set by [`PatternStore::begin`]; its elapsed time is recorded into the
    /// `patterndb_txn_seconds` histogram at commit (cleared on rollback).
    txn_started: Option<std::time::Instant>,
}

impl std::fmt::Debug for PatternStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PatternStore")
            .field("db", &self.db)
            .field("fault_hook", &self.fault_hook.as_ref().map(|_| "…"))
            .finish()
    }
}

const SCHEMA: &[&str] = &[
    "CREATE TABLE IF NOT EXISTS patterns (
        id TEXT PRIMARY KEY,
        service TEXT NOT NULL,
        pattern TEXT NOT NULL,
        cnt INTEGER DEFAULT 0,
        first_seen INTEGER DEFAULT 0,
        last_matched INTEGER DEFAULT 0,
        complexity REAL DEFAULT 0.0,
        promoted INTEGER DEFAULT 0
    )",
    "CREATE TABLE IF NOT EXISTS examples (
        pattern_id TEXT NOT NULL,
        seq INTEGER NOT NULL,
        body TEXT NOT NULL
    )",
];

impl PatternStore {
    /// A volatile in-memory store.
    pub fn in_memory() -> PatternStore {
        let mut db = Database::in_memory();
        for stmt in SCHEMA {
            db.execute(stmt).expect("schema DDL is valid");
        }
        PatternStore {
            db,
            fault_hook: None,
            txn_started: None,
        }
    }

    /// Open (or create) a persistent store rooted at the directory `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<PatternStore, StoreError> {
        let mut db = Database::open(path)?;
        for stmt in SCHEMA {
            db.execute(stmt)?;
        }
        Ok(PatternStore {
            db,
            fault_hook: None,
            txn_started: None,
        })
    }

    /// Install (or clear) a fault-injection hook for tests. The hook runs
    /// before each write-path operation with its name (`"begin"`,
    /// `"commit"`, `"upsert"`, `"record_matches"`, `"checkpoint"`);
    /// returning `true` makes that call fail with [`StoreError::Injected`]
    /// instead of touching the database. Read paths are never hooked, so an
    /// injected store stays inspectable.
    pub fn set_fault_hook(&mut self, hook: Option<FaultHook>) {
        self.fault_hook = hook;
    }

    /// Whether the fault hook asks operation `op` to fail.
    fn fault_fires(&self, op: &str) -> bool {
        self.fault_hook.as_ref().is_some_and(|h| h(op))
    }

    /// Checkpoint the underlying database (compact snapshot + truncate WAL).
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        if self.fault_fires("checkpoint") {
            return Err(StoreError::Injected("checkpoint"));
        }
        let _span = obs::span!("patterndb.checkpoint");
        self.db.checkpoint()?;
        Ok(())
    }

    /// Open a transaction spanning a whole batch's worth of updates, so a
    /// crash mid-batch never leaves half the batch's statistics behind.
    pub fn begin(&mut self) -> Result<(), StoreError> {
        if self.fault_fires("begin") {
            return Err(StoreError::Injected("begin"));
        }
        self.db.execute("BEGIN")?;
        self.txn_started = Some(std::time::Instant::now());
        Ok(())
    }

    /// Commit the open batch transaction. On failure the transaction is
    /// torn down (rolled back), so the store stays usable for a retry.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        if self.fault_fires("commit") {
            self.txn_started = None;
            if self.db.in_transaction() {
                let _ = self.db.execute("ROLLBACK");
            }
            return Err(StoreError::Injected("commit"));
        }
        self.db.execute("COMMIT")?;
        if let Some(started) = self.txn_started.take() {
            obs::histogram!(
                "patterndb_txn_seconds",
                "Pattern store transaction time, begin to commit"
            )
            .record(started.elapsed());
        }
        Ok(())
    }

    /// Abandon the open batch transaction.
    pub fn rollback(&mut self) -> Result<(), StoreError> {
        self.txn_started = None;
        self.db.execute("ROLLBACK")?;
        Ok(())
    }

    /// Record a pattern discovered by an analysis run. Returns the pattern's
    /// reproducible id and whether a new row was created. If the pattern is
    /// already known for this service only its statistics are updated (the
    /// first discovery already stored up to three unique examples);
    /// otherwise a new row plus its examples are inserted.
    pub fn upsert_discovered(
        &mut self,
        service: &str,
        discovered: &DiscoveredPattern,
        now: u64,
    ) -> Result<(String, bool), StoreError> {
        if self.fault_fires("upsert") {
            return Err(StoreError::Injected("upsert"));
        }
        let text = discovered.pattern.render();
        let id = pattern_id(&text, service);
        let existing = self.db.query_with(
            "SELECT cnt FROM patterns WHERE id = ?",
            &[id.as_str().into()],
        )?;
        if existing.is_empty() {
            self.db.execute_with(
                "INSERT INTO patterns (id, service, pattern, cnt, first_seen, last_matched, complexity)
                 VALUES (?, ?, ?, ?, ?, ?, ?)",
                &[
                    id.as_str().into(),
                    service.into(),
                    text.as_str().into(),
                    (discovered.match_count as i64).into(),
                    (now as i64).into(),
                    (now as i64).into(),
                    discovered.pattern.complexity_score().into(),
                ],
            )?;
            // Freshly inserted: no examples can exist yet, insert directly.
            for (seq, ex) in discovered.examples.iter().take(3).enumerate() {
                self.db.execute_with(
                    "INSERT INTO examples (pattern_id, seq, body) VALUES (?, ?, ?)",
                    &[id.as_str().into(), (seq as i64).into(), ex.as_str().into()],
                )?;
            }
            Ok((id, true))
        } else {
            self.db.execute_with(
                "UPDATE patterns SET cnt = cnt + ?, last_matched = ? WHERE id = ?",
                &[
                    (discovered.match_count as i64).into(),
                    (now as i64).into(),
                    id.as_str().into(),
                ],
            )?;
            Ok((id, false))
        }
    }

    /// Add an example for a pattern, keeping at most three unique bodies.
    pub fn add_example(&mut self, id: &str, body: &str) -> Result<(), StoreError> {
        let existing = self.db.query_with(
            "SELECT body FROM examples WHERE pattern_id = ? ORDER BY seq",
            &[id.into()],
        )?;
        if existing.len() >= 3 || existing.iter().any(|r| r[0].as_text() == Some(body)) {
            return Ok(());
        }
        self.db.execute_with(
            "INSERT INTO examples (pattern_id, seq, body) VALUES (?, ?, ?)",
            &[id.into(), (existing.len() as i64).into(), body.into()],
        )?;
        Ok(())
    }

    /// Bump the match statistics of a pattern after the parser matched `n`
    /// messages against it.
    pub fn record_matches(&mut self, id: &str, n: u64, now: u64) -> Result<(), StoreError> {
        if self.fault_fires("record_matches") {
            return Err(StoreError::Injected("record_matches"));
        }
        self.db.execute_with(
            "UPDATE patterns SET cnt = cnt + ?, last_matched = ? WHERE id = ?",
            &[(n as i64).into(), (now as i64).into(), id.into()],
        )?;
        Ok(())
    }

    /// Bulk variant of [`PatternStore::record_matches`] for hot loops: all
    /// updates run inside one transaction, so a flush of N matched patterns
    /// costs one WAL commit instead of N. Must not be called while another
    /// transaction is open (it manages its own).
    pub fn record_matches_bulk(
        &mut self,
        counts: &[(String, u64)],
        now: u64,
    ) -> Result<(), StoreError> {
        if counts.is_empty() {
            return Ok(());
        }
        self.begin()?;
        for (id, n) in counts {
            if let Err(e) = self.record_matches(id, *n, now) {
                self.rollback()?;
                return Err(e);
            }
        }
        self.commit()
    }

    /// All stored patterns (optionally restricted to one service), weakest
    /// first by count — convenient for review. Examples are read in one
    /// pass over the `examples` table, not one scan per pattern.
    pub fn patterns(&mut self, service: Option<&str>) -> Result<Vec<StoredPattern>, StoreError> {
        let rows = match service {
            Some(s) => self.db.query_with(
                "SELECT id, service, pattern, cnt, first_seen, last_matched, complexity, promoted
                 FROM patterns WHERE service = ? ORDER BY cnt DESC, id",
                &[s.into()],
            )?,
            None => self.db.query(
                "SELECT id, service, pattern, cnt, first_seen, last_matched, complexity, promoted
                 FROM patterns ORDER BY service, cnt DESC, id",
            )?,
        };
        let mut examples: HashMap<String, Vec<String>> = HashMap::new();
        for er in self
            .db
            .query("SELECT pattern_id, body FROM examples ORDER BY pattern_id, seq")?
        {
            examples.entry(text(&er[0])).or_default().push(text(&er[1]));
        }
        Ok(rows
            .into_iter()
            .map(|r| {
                let id = text(&r[0]);
                StoredPattern {
                    examples: examples.remove(&id).unwrap_or_default(),
                    id,
                    service: text(&r[1]),
                    pattern_text: text(&r[2]),
                    count: r[3].as_integer().unwrap_or(0) as u64,
                    first_seen: r[4].as_integer().unwrap_or(0) as u64,
                    last_matched: r[5].as_integer().unwrap_or(0) as u64,
                    complexity: r[6].as_real().unwrap_or(0.0),
                    promoted: r[7].as_integer().unwrap_or(0) != 0,
                }
            })
            .collect())
    }

    /// Load every stored pattern into per-service [`PatternSet`]s for the
    /// parser. Patterns that no longer parse (the documented `%`-collision
    /// limitation) are skipped and reported. Reads only the `patterns`
    /// table; within a service, patterns are inserted by count descending,
    /// then id — the order that breaks specificity ties.
    pub fn load_pattern_sets(
        &mut self,
    ) -> Result<(HashMap<String, PatternSet>, Vec<StoreError>), StoreError> {
        let mut sets: HashMap<String, PatternSet> = HashMap::new();
        let mut errors = Vec::new();
        for r in self
            .db
            .query("SELECT id, service, pattern FROM patterns ORDER BY service, cnt DESC, id")?
        {
            let id = text(&r[0]);
            match Pattern::parse(r[2].as_text().unwrap_or_default()) {
                Ok(p) => sets.entry(text(&r[1])).or_default().insert(id, p),
                Err(err) => errors.push(StoreError::BadPattern { id, err }),
            }
        }
        Ok((sets, errors))
    }

    /// Flag a pattern as promoted to production.
    pub fn promote(&mut self, id: &str) -> Result<(), StoreError> {
        self.db.execute_with(
            "UPDATE patterns SET promoted = 1 WHERE id = ?",
            &[id.into()],
        )?;
        Ok(())
    }

    /// Discard a pattern outright (the losing side of a multi-match
    /// conflict, or an administrator rejection), removing its examples too.
    pub fn discard(&mut self, id: &str) -> Result<(), StoreError> {
        self.db
            .execute_with("DELETE FROM examples WHERE pattern_id = ?", &[id.into()])?;
        self.db
            .execute_with("DELETE FROM patterns WHERE id = ?", &[id.into()])?;
        Ok(())
    }

    /// Delete patterns whose match count is below the save threshold. "Any
    /// pattern whose count of matches is less than the threshold is
    /// considered useless and thus not saved." Returns how many were removed.
    pub fn prune_below_threshold(&mut self, threshold: u64) -> Result<usize, StoreError> {
        let weak = self.db.query_with(
            "SELECT id FROM patterns WHERE cnt < ?",
            &[(threshold as i64).into()],
        )?;
        for r in &weak {
            self.db
                .execute_with("DELETE FROM examples WHERE pattern_id = ?", &[r[0].clone()])?;
        }
        let n = self
            .db
            .execute_with(
                "DELETE FROM patterns WHERE cnt < ?",
                &[(threshold as i64).into()],
            )?
            .affected();
        Ok(n)
    }

    /// Per-service pattern counts, most patterns first.
    pub fn service_summary(&mut self) -> Result<Vec<(String, u64, u64)>, StoreError> {
        let rows = self.db.query(
            "SELECT service, COUNT(*) AS n, SUM(cnt) FROM patterns GROUP BY service ORDER BY n DESC, service",
        )?;
        Ok(rows
            .into_iter()
            .map(|r| {
                (
                    r[0].as_text().unwrap_or_default().to_string(),
                    r[1].as_integer().unwrap_or(0) as u64,
                    r[2].as_integer().unwrap_or(0) as u64,
                )
            })
            .collect())
    }

    /// Total number of stored patterns.
    pub fn pattern_count(&mut self) -> Result<u64, StoreError> {
        let rows = self.db.query("SELECT COUNT(*) FROM patterns")?;
        Ok(rows[0][0].as_integer().unwrap_or(0) as u64)
    }

    /// Direct access to the underlying database (for ad-hoc administrator
    /// queries, mirroring how operators inspect the production store).
    pub fn db(&mut self) -> &mut Database {
        &mut self.db
    }
}

/// A text column's value (empty for NULL or a non-text value).
fn text(v: &SqlValue) -> String {
    v.as_text().unwrap_or_default().to_string()
}

/// Convert [`SqlValue`] rows into displayable text (debug/CLI helper).
pub fn row_to_strings(row: &[SqlValue]) -> Vec<String> {
    row.iter().map(|v| v.to_string()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequence_core::{Analyzer, Scanner};

    fn discover(msgs: &[&str]) -> Vec<DiscoveredPattern> {
        let scanner = Scanner::new();
        let scanned: Vec<_> = msgs.iter().map(|m| scanner.scan(m)).collect();
        Analyzer::new().analyze(&scanned)
    }

    fn sshd_patterns() -> Vec<DiscoveredPattern> {
        discover(&[
            "Accepted password for root from 10.2.3.4 port 22 ssh2",
            "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
            "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
        ])
    }

    #[test]
    fn upsert_and_read_back() {
        let mut store = PatternStore::in_memory();
        let d = &sshd_patterns()[0];
        let (id, inserted) = store.upsert_discovered("sshd", d, 1000).unwrap();
        assert!(inserted);
        let all = store.patterns(Some("sshd")).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].id, id);
        assert_eq!(all[0].count, 3);
        assert_eq!(all[0].first_seen, 1000);
        assert_eq!(all[0].examples.len(), 3);
        assert!(all[0].complexity > 0.0 && all[0].complexity < 1.0);
        assert_eq!(all[0].pattern().unwrap(), d.pattern);
    }

    #[test]
    fn upsert_twice_accumulates() {
        let mut store = PatternStore::in_memory();
        let d = &sshd_patterns()[0];
        let (id1, ins1) = store.upsert_discovered("sshd", d, 1000).unwrap();
        let (id2, ins2) = store.upsert_discovered("sshd", d, 2000).unwrap();
        assert_eq!(id1, id2);
        assert!(ins1 && !ins2);
        let all = store.patterns(None).unwrap();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].count, 6);
        assert_eq!(all[0].first_seen, 1000);
        assert_eq!(all[0].last_matched, 2000);
        // Examples stay capped at three and unique.
        assert_eq!(all[0].examples.len(), 3);
    }

    #[test]
    fn same_pattern_different_service_distinct_rows() {
        let mut store = PatternStore::in_memory();
        let d = &sshd_patterns()[0];
        let (a, _) = store.upsert_discovered("sshd", d, 1).unwrap();
        let (b, _) = store.upsert_discovered("sshd-internal", d, 1).unwrap();
        assert_ne!(a, b);
        assert_eq!(store.pattern_count().unwrap(), 2);
    }

    #[test]
    fn record_matches_updates_stats() {
        let mut store = PatternStore::in_memory();
        let (id, _) = store
            .upsert_discovered("sshd", &sshd_patterns()[0], 100)
            .unwrap();
        store.record_matches(&id, 50, 999).unwrap();
        let p = &store.patterns(None).unwrap()[0];
        assert_eq!(p.count, 53);
        assert_eq!(p.last_matched, 999);
    }

    #[test]
    fn record_matches_bulk_updates_every_row_in_one_transaction() {
        let mut store = PatternStore::in_memory();
        let ds = discover(&["alpha one", "beta two", "gamma three"]);
        let mut ids = Vec::new();
        for d in &ds {
            ids.push(store.upsert_discovered("svc", d, 10).unwrap().0);
        }
        let counts: Vec<(String, u64)> = ids.iter().map(|id| (id.clone(), 7u64)).collect();
        store.record_matches_bulk(&counts, 99).unwrap();
        for p in store.patterns(Some("svc")).unwrap() {
            assert_eq!(p.count, 1 + 7);
            assert_eq!(p.last_matched, 99);
        }
        // Empty input is a no-op (and must not open a stray transaction).
        store.record_matches_bulk(&[], 100).unwrap();
        store.begin().unwrap();
        store.commit().unwrap();
    }

    #[test]
    fn fault_hook_injects_and_failed_commit_leaves_store_usable() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let mut store = PatternStore::in_memory();
        let (id, _) = store
            .upsert_discovered("sshd", &sshd_patterns()[0], 1)
            .unwrap();
        let failing = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&failing);
        store.set_fault_hook(Some(Arc::new(move |op: &str| {
            op == "commit" && flag.load(Ordering::Relaxed)
        })));
        let counts = vec![(id.clone(), 5u64)];
        match store.record_matches_bulk(&counts, 9) {
            Err(StoreError::Injected("commit")) => {}
            other => panic!("expected injected commit failure, got {other:?}"),
        }
        // The failed commit rolled back: statistics unchanged, and the
        // transaction is closed so a retry can succeed.
        assert_eq!(store.patterns(None).unwrap()[0].count, 3);
        failing.store(false, Ordering::Relaxed);
        store.record_matches_bulk(&counts, 9).unwrap();
        assert_eq!(store.patterns(None).unwrap()[0].count, 8);
    }

    #[test]
    fn load_pattern_sets_matches_messages() {
        let mut store = PatternStore::in_memory();
        store
            .upsert_discovered("sshd", &sshd_patterns()[0], 1)
            .unwrap();
        let (sets, errors) = store.load_pattern_sets().unwrap();
        assert!(errors.is_empty());
        let set = &sets["sshd"];
        let msg = Scanner::new().scan("Accepted password for eve from 203.0.113.9 port 4022 ssh2");
        assert!(set.match_message(&msg).is_some());
    }

    #[test]
    fn prune_below_threshold() {
        let mut store = PatternStore::in_memory();
        store
            .upsert_discovered("svc", &discover(&["rare event only once"])[0], 1)
            .unwrap();
        store
            .upsert_discovered("sshd", &sshd_patterns()[0], 1)
            .unwrap();
        let removed = store.prune_below_threshold(2).unwrap();
        assert_eq!(removed, 1);
        assert_eq!(store.pattern_count().unwrap(), 1);
        // The weak pattern's examples are gone too.
        let rows = store.db().query("SELECT COUNT(*) FROM examples").unwrap();
        assert_eq!(rows[0][0].as_integer().unwrap(), 3);
    }

    #[test]
    fn service_summary_orders_by_pattern_count() {
        let mut store = PatternStore::in_memory();
        store
            .upsert_discovered("sshd", &sshd_patterns()[0], 1)
            .unwrap();
        for d in &discover(&["a b", "c d e", "f g h i"]) {
            store.upsert_discovered("noisy", d, 1).unwrap();
        }
        let summary = store.service_summary().unwrap();
        assert_eq!(summary[0].0, "noisy");
        assert_eq!(summary[0].1, 3);
        assert_eq!(summary[1], ("sshd".to_string(), 1, 3));
    }

    #[test]
    fn persistence_round_trip() {
        let dir = std::env::temp_dir().join(format!("patterndb-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let id = {
            let mut store = PatternStore::open(&dir).unwrap();
            let (id, _) = store
                .upsert_discovered("sshd", &sshd_patterns()[0], 42)
                .unwrap();
            store.checkpoint().unwrap();
            id
        };
        {
            let mut store = PatternStore::open(&dir).unwrap();
            let all = store.patterns(None).unwrap();
            assert_eq!(all.len(), 1);
            assert_eq!(all[0].id, id);
            assert_eq!(all[0].examples.len(), 3);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiline_examples_survive_persistence() {
        let dir = std::env::temp_dir().join(format!("patterndb-ml-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut store = PatternStore::open(&dir).unwrap();
            let d = discover(&[
                "panic: oh no\n  at frame 1",
                "panic: oh dear\n  at frame 9",
                "panic: oh my\nstack",
            ]);
            store.upsert_discovered("app", &d[0], 1).unwrap();
        }
        {
            let mut store = PatternStore::open(&dir).unwrap();
            let all = store.patterns(None).unwrap();
            assert!(all[0].examples.iter().any(|e| e.contains('\n')));
            assert!(all[0].pattern().unwrap().has_ignore_rest());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
