//! # patterndb
//!
//! The persistent pattern database of the Sequence-RTG reproduction
//! (limitation 2 of the paper: "to run a continuous analysis in production,
//! Sequence-RTG needs to collate the output of each execution into a summary
//! database").
//!
//! * [`store`] — patterns in a SQL database (the in-repo [`minisql`] engine),
//!   one-to-many with their services, with up to three unique examples each
//!   and per-pattern statistics: match count, last-matched date, and a
//!   complexity score.
//! * [`sha1`] — reproducible pattern ids: `SHA1(pattern ‖ service)`.
//! * [`export`] — `ExportPatterns` to syslog-ng patterndb XML (Fig. 3), YAML,
//!   and Logstash Grok (Fig. 4).
//!
//! ```
//! use patterndb::{PatternStore, export::{export_patterns, ExportFormat, ExportSelection}};
//! use sequence_core::{Analyzer, Scanner};
//!
//! let scanner = Scanner::new();
//! let batch: Vec<_> = [
//!     "Accepted password for root from 10.2.3.4 port 22 ssh2",
//!     "Accepted password for admin from 10.9.9.9 port 2200 ssh2",
//!     "Accepted password for guest from 172.16.0.5 port 22022 ssh2",
//! ].iter().map(|m| scanner.scan(m)).collect();
//!
//! let mut store = PatternStore::in_memory();
//! for d in Analyzer::new().analyze(&batch) {
//!     store.upsert_discovered("sshd", &d, 1_630_000_000).unwrap();
//! }
//! let grok = export_patterns(&mut store, ExportFormat::Grok, ExportSelection::default()).unwrap();
//! assert!(grok.contains("%{IP:srcip}"));
//! ```

#![warn(missing_docs)]

pub mod export;
pub mod review;
pub mod sha1;
pub mod store;
#[cfg(test)]
mod store_oracle;

pub use review::{find_conflicts, resolve_conflict, Conflict, ReviewItem, ReviewQueue};
pub use sha1::{pattern_id, sha1_hex};
pub use store::{PatternStore, StoreError, StoredPattern};
