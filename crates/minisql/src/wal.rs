//! Durability: snapshot + write-ahead log.
//!
//! A persistent database is a directory holding two files:
//!
//! * `snapshot.sql` — the framed statement list of the last checkpoint;
//! * `wal.sql` — framed mutation statements appended since the checkpoint.
//!
//! Statements are framed as `#<byte-length>\n<statement-bytes>\n` so that
//! string literals containing newlines (log messages stored as pattern
//! examples frequently do) survive recovery byte-exactly.
//!
//! [`Wal::log`] renders bound parameters into the statement text before
//! appending, so the WAL is self-contained plain SQL. A committed
//! transaction is appended by [`Wal::log_group`] as one group — a `BEGIN`
//! marker frame, its statements, a `COMMIT` marker frame — in a single
//! write. Recovery replays the snapshot then the WAL in order, skipping the
//! markers (they are never executed) and dropping a trailing group that has
//! no `COMMIT` or a torn final frame, so a crash mid-append replays all of a
//! transaction or none of it. WAL files without markers replay frame by
//! frame. [`Wal::checkpoint`] atomically replaces the snapshot
//! (write-to-temp + rename) and truncates the WAL.

use crate::error::Error;
use crate::lexer::{lex, Tok};
use crate::value::SqlValue;
use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};

/// Frame that opens a transaction group in the WAL. No mutation renders to
/// this text (`BEGIN` itself is never logged), so it is unambiguous.
const GROUP_BEGIN: &str = "BEGIN";
/// Frame that closes a transaction group in the WAL.
const GROUP_COMMIT: &str = "COMMIT";

/// An open transaction's statements, rendered and framed as they execute,
/// so that [`Wal::log_group`] appends them with no further copy.
#[derive(Debug)]
pub struct WalGroup {
    /// The `BEGIN` marker frame, then one frame per statement.
    frames: Vec<u8>,
    pub(crate) statements: usize,
}

impl WalGroup {
    /// An empty group.
    pub fn new() -> WalGroup {
        let mut frames = Vec::new();
        push_frame(&mut frames, GROUP_BEGIN);
        WalGroup {
            frames,
            statements: 0,
        }
    }

    /// Add one mutation statement, with parameters rendered inline.
    pub fn push(&mut self, sql: &str, params: &[SqlValue]) -> Result<(), Error> {
        push_frame(&mut self.frames, &render_statement(sql, params)?);
        self.statements += 1;
        Ok(())
    }
}

impl Default for WalGroup {
    fn default() -> Self {
        WalGroup::new()
    }
}

/// Handle to a database directory's durability files.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    wal: File,
    /// Whether the files hold anything a checkpoint would compact: no
    /// snapshot yet, a non-empty WAL at open, or anything logged since.
    dirty: bool,
}

impl Wal {
    /// Open (creating if needed) the durability files under `dir` and
    /// recover them: returns the statements to replay, snapshot first. A
    /// torn tail of the WAL (a partial frame, or a transaction group cut
    /// before its `COMMIT`) is dropped and truncated away, so later appends
    /// follow the last complete record.
    pub fn open(dir: &Path) -> Result<(Wal, Vec<String>), Error> {
        fs::create_dir_all(dir)?;
        let snapshot = dir.join("snapshot.sql");
        let has_snapshot = snapshot.exists();
        let mut stmts = if has_snapshot {
            let data = fs::read(&snapshot)?;
            parse_frames(&data, &snapshot)?.0
        } else {
            Vec::new()
        };
        let path = dir.join("wal.sql");
        let mut wal = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        let mut data = Vec::new();
        wal.read_to_end(&mut data)?;
        let (logged, valid) = parse_frames(&data, &path)?;
        if valid < data.len() {
            wal.set_len(valid as u64)?;
        }
        stmts.extend(logged);
        let dir = dir.to_path_buf();
        let dirty = !has_snapshot || valid > 0;
        Ok((Wal { dir, wal, dirty }, stmts))
    }

    /// Whether a checkpoint would change anything on disk. `false` once a
    /// snapshot exists and nothing has been appended to the WAL since the
    /// last checkpoint or open.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }

    /// Append one mutation statement, with parameters rendered inline.
    pub fn log(&mut self, sql: &str, params: &[SqlValue]) -> Result<(), Error> {
        let rendered = render_statement(sql, params)?;
        let mut buf = Vec::new();
        push_frame(&mut buf, &rendered);
        self.append(&buf)
    }

    /// Make every later append fail, as a full or failing disk would: the
    /// log is reopened read-only, so writes error out and nothing lands.
    #[cfg(test)]
    pub(crate) fn fail_appends(&mut self) -> Result<(), Error> {
        self.wal = File::open(self.dir.join("wal.sql"))?;
        Ok(())
    }

    /// Append a committed transaction as one group (`BEGIN` marker,
    /// statements, `COMMIT` marker) in a single write. An empty transaction
    /// appends nothing.
    pub fn log_group(&mut self, mut group: WalGroup) -> Result<(), Error> {
        if group.statements == 0 {
            return Ok(());
        }
        push_frame(&mut group.frames, GROUP_COMMIT);
        self.append(&group.frames)
    }

    fn append(&mut self, bytes: &[u8]) -> Result<(), Error> {
        self.dirty = true;
        self.wal.write_all(bytes)?;
        self.wal.flush()?;
        Ok(())
    }

    /// Atomically replace the snapshot with `statements` and truncate the
    /// WAL.
    pub fn checkpoint(&mut self, statements: &[String]) -> Result<(), Error> {
        let tmp = self.dir.join("snapshot.sql.tmp");
        {
            let mut f = BufWriter::new(File::create(&tmp)?);
            let mut frame = Vec::new();
            for s in statements {
                frame.clear();
                push_frame(&mut frame, s);
                f.write_all(&frame)?;
            }
            f.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        }
        fs::rename(&tmp, self.dir.join("snapshot.sql"))?;
        // Truncate the WAL.
        self.wal = OpenOptions::new()
            .create(true)
            .write(true)
            .truncate(true)
            .open(self.dir.join("wal.sql"))?;
        self.dirty = false;
        Ok(())
    }
}

fn push_frame(buf: &mut Vec<u8>, stmt: &str) {
    buf.extend_from_slice(format!("#{}\n", stmt.len()).as_bytes());
    buf.extend_from_slice(stmt.as_bytes());
    buf.push(b'\n');
}

/// Decode a framed file into the statements to replay, plus the byte length
/// of its valid prefix. Reading stops at a torn final frame (a crash
/// mid-append); statements of a group still open at that point, or at the
/// end of the data, are dropped with it. Marker frames are consumed, never
/// returned.
fn parse_frames(data: &[u8], path: &Path) -> Result<(Vec<String>, usize), Error> {
    let mut out = Vec::new();
    let mut valid = 0usize;
    // Statements of the open group, if any.
    let mut group: Option<Vec<String>> = None;
    let mut i = 0usize;
    while i < data.len() {
        if data[i] != b'#' {
            return Err(Error::Corrupt(format!(
                "bad frame header at byte {i} of {path:?}"
            )));
        }
        let Some(nl) = data[i..].iter().position(|&b| b == b'\n').map(|p| i + p) else {
            break; // torn header
        };
        let len: usize = std::str::from_utf8(&data[i + 1..nl])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| Error::Corrupt(format!("bad frame length at byte {i} of {path:?}")))?;
        let start = nl + 1;
        let end = start.saturating_add(len);
        if end >= data.len() {
            break; // torn body or missing terminator
        }
        let stmt = std::str::from_utf8(&data[start..end])
            .map_err(|_| Error::Corrupt(format!("non-UTF-8 frame at byte {i} of {path:?}")))?;
        let at = i;
        i = end + 1; // skip trailing newline
        match (stmt, &mut group) {
            (GROUP_BEGIN, None) => group = Some(Vec::new()),
            (GROUP_COMMIT, Some(_)) => {
                out.extend(group.take().unwrap_or_default());
                valid = i;
            }
            (GROUP_BEGIN | GROUP_COMMIT, _) => {
                return Err(Error::Corrupt(format!(
                    "unbalanced {stmt} marker at byte {at} of {path:?}"
                )));
            }
            (_, Some(stmts)) => stmts.push(stmt.to_string()),
            (_, None) => {
                out.push(stmt.to_string());
                valid = i;
            }
        }
    }
    Ok((out, valid))
}

/// Render a parameterised statement into standalone SQL text: `?` tokens are
/// replaced by literals and everything is re-assembled from lexer tokens
/// (which also strips comments).
pub fn render_statement(sql: &str, params: &[SqlValue]) -> Result<String, Error> {
    let toks = lex(sql)?;
    let mut out = String::new();
    let mut param_idx = 0usize;
    for t in toks {
        if !out.is_empty() {
            out.push(' ');
        }
        match t {
            Tok::Ident(s) => out.push_str(&s),
            Tok::Str(s) => out.push_str(&format!("'{}'", s.replace('\'', "''"))),
            Tok::Int(v) => out.push_str(&v.to_string()),
            Tok::Float(v) => out.push_str(&format!("{v}")),
            Tok::Param => {
                let v = params.get(param_idx).ok_or(Error::ParamCount {
                    expected: param_idx + 1,
                    got: params.len(),
                })?;
                param_idx += 1;
                out.push_str(&crate::engine::sql_literal(v));
            }
            Tok::Punct(p) => out.push_str(p),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_inlines_params() {
        let s = render_statement(
            "INSERT INTO t VALUES (?, ?, ?)",
            &["a'b".into(), 5i64.into(), SqlValue::Null],
        )
        .unwrap();
        assert_eq!(s, "INSERT INTO t VALUES ( 'a''b' , 5 , NULL )");
    }

    #[test]
    fn render_rejects_missing_params() {
        assert!(render_statement("INSERT INTO t VALUES (?)", &[]).is_err());
    }

    #[test]
    fn frames_survive_newlines() {
        let dir = std::env::temp_dir().join(format!("minisql-wal-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.log("INSERT INTO t VALUES (?)", &["line1\nline2".into()])
                .unwrap();
            wal.log("DELETE FROM t", &[]).unwrap();
        }
        let (_, stmts) = Wal::open(&dir).unwrap();
        assert_eq!(stmts.len(), 2);
        assert!(stmts[0].contains("line1\nline2"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_frame_is_dropped() {
        let dir = std::env::temp_dir().join(format!("minisql-torn-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let (mut wal, _) = Wal::open(&dir).unwrap();
            wal.log("DELETE FROM a", &[]).unwrap();
        }
        // Simulate a crash mid-append.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join("wal.sql"))
            .unwrap();
        f.write_all(b"#100\nDELETE FROM").unwrap();
        drop(f);
        let (mut wal, stmts) = Wal::open(&dir).unwrap();
        assert_eq!(stmts.len(), 1);
        // The torn bytes were truncated away, so a later append is readable.
        wal.log("DELETE FROM b", &[]).unwrap();
        drop(wal);
        let (_, stmts) = Wal::open(&dir).unwrap();
        assert_eq!(stmts, vec!["DELETE FROM a", "DELETE FROM b"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn groups_replay_without_markers_and_open_group_is_dropped() {
        let path = Path::new("wal.sql");
        let mut data = Vec::new();
        push_frame(&mut data, "DELETE FROM a");
        push_frame(&mut data, GROUP_BEGIN);
        push_frame(&mut data, "DELETE FROM b");
        push_frame(&mut data, "DELETE FROM c");
        push_frame(&mut data, GROUP_COMMIT);
        let committed = data.len();
        assert_eq!(
            parse_frames(&data, path).unwrap(),
            (
                vec![
                    "DELETE FROM a".to_string(),
                    "DELETE FROM b".to_string(),
                    "DELETE FROM c".to_string()
                ],
                committed
            )
        );
        // A group cut before its COMMIT, even with every frame whole,
        // replays none of its statements.
        push_frame(&mut data, GROUP_BEGIN);
        push_frame(&mut data, "DELETE FROM d");
        assert_eq!(parse_frames(&data, path).unwrap().1, committed);
        assert_eq!(parse_frames(&data, path).unwrap().0.len(), 3);
        // Unbalanced markers are corruption, not a torn tail.
        let mut bad = Vec::new();
        push_frame(&mut bad, GROUP_COMMIT);
        push_frame(&mut bad, "DELETE FROM a");
        assert!(parse_frames(&bad, path).is_err());
    }

    #[test]
    fn only_a_dirty_wal_needs_a_checkpoint() {
        let dir = std::env::temp_dir().join(format!("minisql-dirty-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (mut wal, _) = Wal::open(&dir).unwrap();
        assert!(wal.is_dirty(), "no snapshot yet");
        wal.checkpoint(&["DELETE FROM a".to_string()]).unwrap();
        assert!(!wal.is_dirty());
        wal.log_group(WalGroup::new()).unwrap();
        assert!(!wal.is_dirty(), "an empty transaction logs nothing");
        let mut group = WalGroup::new();
        group.push("DELETE FROM b", &[]).unwrap();
        wal.log_group(group).unwrap();
        assert!(wal.is_dirty());
        drop(wal);
        let (mut wal, stmts) = Wal::open(&dir).unwrap();
        assert_eq!(stmts, vec!["DELETE FROM a", "DELETE FROM b"]);
        assert!(wal.is_dirty(), "the WAL was non-empty at open");
        wal.checkpoint(&stmts).unwrap();
        drop(wal);
        let (wal, _) = Wal::open(&dir).unwrap();
        assert!(!wal.is_dirty(), "snapshot present, WAL empty");
        fs::remove_dir_all(&dir).unwrap();
    }
}
