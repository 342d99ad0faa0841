//! # minisql
//!
//! A small embedded SQL engine: lexer, recursive-descent parser, row-store
//! executor, and snapshot + write-ahead-log durability.
//!
//! Sequence-RTG "stores the patterns in a SQL database in a one-to-many
//! relationship with their related services". This crate is that database
//! substrate, built from scratch instead of binding to an external engine
//! (see DESIGN.md §2). The supported subset is what a pattern store needs:
//!
//! * `CREATE TABLE` (INTEGER / REAL / TEXT; PRIMARY KEY, NOT NULL, UNIQUE,
//!   DEFAULT), `DROP TABLE`
//! * `INSERT [OR REPLACE]` with `?` parameters and multi-row VALUES
//! * `SELECT` with WHERE, GROUP BY + aggregates (COUNT/SUM/AVG/MIN/MAX),
//!   ORDER BY, LIMIT/OFFSET, LIKE / IN / IS NULL, arithmetic and `||`
//! * `UPDATE` / `DELETE` with WHERE
//!
//! ```
//! use minisql::{Database, SqlValue};
//!
//! let mut db = Database::in_memory();
//! db.execute("CREATE TABLE patterns (id TEXT PRIMARY KEY, service TEXT, cnt INTEGER DEFAULT 0)").unwrap();
//! db.execute_with(
//!     "INSERT INTO patterns (id, service) VALUES (?, ?)",
//!     &["abc".into(), "sshd".into()],
//! ).unwrap();
//! db.execute("UPDATE patterns SET cnt = cnt + 1 WHERE id = 'abc'").unwrap();
//! let rows = db.query("SELECT cnt FROM patterns WHERE service = 'sshd'").unwrap();
//! assert_eq!(rows[0][0], SqlValue::Integer(1));
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod engine;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod table;
pub mod value;
pub mod wal;

pub use engine::{sql_literal, Database, ExecResult};
pub use error::Error;
pub use value::SqlValue;

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use std::fs;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("minisql-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn reopen_recovers_state() {
        let dir = tmpdir("reopen");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id TEXT PRIMARY KEY, n INTEGER)")
                .unwrap();
            db.execute_with("INSERT INTO t VALUES (?, ?)", &["a".into(), 1i64.into()])
                .unwrap();
            db.execute_with("INSERT INTO t VALUES (?, ?)", &["b".into(), 2i64.into()])
                .unwrap();
            db.execute("UPDATE t SET n = 10 WHERE id = 'a'").unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let rows = db.query("SELECT n FROM t ORDER BY id").unwrap();
            assert_eq!(
                rows,
                vec![vec![SqlValue::Integer(10)], vec![SqlValue::Integer(2)]]
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_compacts_and_preserves() {
        let dir = tmpdir("ckpt");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id TEXT PRIMARY KEY, n INTEGER)")
                .unwrap();
            for i in 0..50 {
                db.execute_with(
                    "INSERT INTO t VALUES (?, ?)",
                    &[format!("k{i}").into(), (i as i64).into()],
                )
                .unwrap();
            }
            // Lots of churn, then checkpoint.
            for _ in 0..5 {
                db.execute("UPDATE t SET n = n + 1").unwrap();
            }
            db.checkpoint().unwrap();
            db.execute("DELETE FROM t WHERE n < 10").unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let rows = db.query("SELECT COUNT(*), MIN(n) FROM t").unwrap();
            assert_eq!(rows[0][0], SqlValue::Integer(45));
            assert_eq!(rows[0][1], SqlValue::Integer(10));
            // The WAL was truncated at checkpoint; only the DELETE follows.
            let wal_size = fs::metadata(dir.join("wal.sql")).unwrap().len();
            assert!(
                wal_size < 200,
                "wal should be small after checkpoint, got {wal_size}"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rolled_back_statements_never_reach_the_wal() {
        let dir = tmpdir("txn");
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
                .unwrap();
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.execute("ROLLBACK").unwrap();
            db.execute("BEGIN").unwrap();
            db.execute("INSERT INTO t VALUES (2)").unwrap();
            db.execute("COMMIT").unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let rows = db.query("SELECT id FROM t").unwrap();
            assert_eq!(rows, vec![vec![SqlValue::Integer(2)]]);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[cfg(unix)]
    #[test]
    fn checkpoint_of_a_compact_store_writes_nothing() {
        use std::os::unix::fs::MetadataExt;
        let dir = tmpdir("ckpt-clean");
        let inode = || fs::metadata(dir.join("snapshot.sql")).unwrap().ino();
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
                .unwrap();
            db.checkpoint().unwrap();
        }
        let written = inode();
        {
            // Reopened with an empty WAL, a read-only session, a schema
            // statement that finds its table (as every store open runs) and
            // an empty transaction leave nothing to compact: no rewrite.
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE IF NOT EXISTS t (id INTEGER PRIMARY KEY)")
                .unwrap();
            db.query("SELECT id FROM t").unwrap();
            db.execute("BEGIN").unwrap();
            db.execute("COMMIT").unwrap();
            db.checkpoint().unwrap();
            assert_eq!(inode(), written);
            // A logged statement makes the next checkpoint write again.
            db.execute("INSERT INTO t VALUES (1)").unwrap();
            db.checkpoint().unwrap();
            assert_ne!(inode(), written);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_refused_inside_transaction() {
        let dir = tmpdir("txn-ckpt");
        let mut db = Database::open(&dir).unwrap();
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
            .unwrap();
        db.execute("BEGIN").unwrap();
        assert!(db.checkpoint().is_err());
        db.execute("COMMIT").unwrap();
        db.checkpoint().unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn multiline_text_survives_reopen() {
        let dir = tmpdir("multiline");
        let msg = "panic: boom\n  at a()\n  at b()";
        {
            let mut db = Database::open(&dir).unwrap();
            db.execute("CREATE TABLE ex (id INTEGER PRIMARY KEY, body TEXT)")
                .unwrap();
            db.execute_with("INSERT INTO ex VALUES (?, ?)", &[1i64.into(), msg.into()])
                .unwrap();
            db.checkpoint().unwrap();
        }
        {
            let mut db = Database::open(&dir).unwrap();
            let rows = db.query("SELECT body FROM ex").unwrap();
            assert_eq!(rows[0][0], SqlValue::Text(msg.into()));
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
