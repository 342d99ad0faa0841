//! Crash atomicity of committed transactions: a `kill -9` can stop the WAL
//! append of a transaction at any byte. Whatever prefix of its group
//! reached the file, reopening must recover either the whole transaction
//! (only when the group is complete) or none of it, and the reopened
//! database must keep accepting appends that a later reopen replays.

use minisql::Database;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use testkit::prop::{self, Config};
use testkit::prop_assert_eq;
use testkit::rng::Rng;

fn scratch_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "minisql-atomicity-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&d);
    d
}

/// One mutation of the generated transaction: insert a row with a text
/// body (newlines and multi-byte characters included, so truncation lands
/// inside them too), or bump every row's counter.
#[derive(Debug, Clone)]
enum Op {
    Insert(String),
    Bump,
}

fn apply(db: &mut Database, key: usize, op: &Op) {
    match op {
        Op::Insert(body) => {
            db.execute_with(
                "INSERT INTO t (id, body, n) VALUES (?, ?, 0)",
                &[(key as i64).into(), body.as_str().into()],
            )
            .expect("insert");
        }
        Op::Bump => {
            db.execute("UPDATE t SET n = n + 1").expect("update");
        }
    }
}

fn open_dump(dir: &Path) -> Result<String, String> {
    let db = Database::open(dir).map_err(|e| format!("reopen: {e}"))?;
    Ok(db.dump())
}

fn gen_op(rng: &mut Rng) -> Op {
    if rng.gen_range(0u32..4) == 0 {
        return Op::Bump;
    }
    let words = ["alpha", "beta\ngamma", "δέλτα", "o'brien", "#12\n", "é"];
    let n = rng.gen_range(1usize..5);
    let body: Vec<&str> = (0..n)
        .map(|_| words[rng.gen_range(0..words.len())])
        .collect();
    Op::Insert(body.join(" "))
}

#[test]
fn truncating_the_last_group_anywhere_recovers_all_or_nothing() {
    let strategy = (
        prop::vec(prop::from_fn(gen_op), 0..3),
        prop::vec(prop::from_fn(gen_op), 1..6),
    );
    prop::check(&Config::cases(12), &strategy, |(earlier, txn)| {
        let dir = scratch_dir("src");
        let mut db = Database::open(&dir).map_err(|e| e.to_string())?;
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, body TEXT, n INTEGER)")
            .map_err(|e| e.to_string())?;
        db.checkpoint().map_err(|e| e.to_string())?;
        // Autocommit statements before the transaction: always recovered.
        for (k, op) in earlier.iter().enumerate() {
            apply(&mut db, k, op);
        }
        let before = db.dump();
        let group_start = fs::metadata(dir.join("wal.sql"))
            .map_err(|e| e.to_string())?
            .len() as usize;
        db.execute("BEGIN").map_err(|e| e.to_string())?;
        for (k, op) in txn.iter().enumerate() {
            apply(&mut db, 100 + k, op);
        }
        db.execute("COMMIT").map_err(|e| e.to_string())?;
        let after = db.dump();
        drop(db);

        let snapshot = fs::read(dir.join("snapshot.sql")).map_err(|e| e.to_string())?;
        let wal = fs::read(dir.join("wal.sql")).map_err(|e| e.to_string())?;
        for cut in group_start..=wal.len() {
            let copy = scratch_dir("cut");
            fs::create_dir_all(&copy).map_err(|e| e.to_string())?;
            fs::write(copy.join("snapshot.sql"), &snapshot).map_err(|e| e.to_string())?;
            fs::write(copy.join("wal.sql"), &wal[..cut]).map_err(|e| e.to_string())?;
            let expected = if cut == wal.len() { &after } else { &before };
            prop_assert_eq!(&open_dump(&copy)?, expected, "cut at byte {}", cut);
            // The torn tail is gone: a later transaction appends cleanly
            // and replays after the recovered state.
            let mut db = Database::open(&copy).map_err(|e| e.to_string())?;
            db.execute("BEGIN").map_err(|e| e.to_string())?;
            db.execute("INSERT INTO t (id, body, n) VALUES (999, 'later', 0)")
                .map_err(|e| e.to_string())?;
            db.execute("COMMIT").map_err(|e| e.to_string())?;
            let continued = db.dump();
            drop(db);
            prop_assert_eq!(&open_dump(&copy)?, &continued, "append after cut {}", cut);
            let _ = fs::remove_dir_all(&copy);
        }
        let _ = fs::remove_dir_all(&dir);
        Ok(())
    });
}
