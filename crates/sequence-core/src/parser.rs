//! The Sequence parser: matching new messages against known patterns.
//!
//! "Sequence has its own parser to match new messages against existing known
//! patterns. It follows a similar process as while learning the messages, by
//! first tokenising the messages, but instead of discovering patterns, it
//! attempts to match new messages to a known pattern." (paper §III)
//!
//! [`PatternSet`] compiles every inserted pattern into a discrimination trie
//! (see [`crate::matcher`]), so a lookup walks the message's tokens once
//! instead of scanning every same-length candidate. When several patterns
//! match, the one with the most literal elements wins — the most *specific*
//! pattern, which mirrors how syslog-ng's pattern database resolves
//! multi-matches during review ("the most correct pattern would be
//! promoted"); exact-length matches beat ignore-rest matches of equal
//! specificity, and insertion order breaks remaining ties. The winning
//! entry's id is cloned exactly once, and captures are materialised only for
//! the winner.

use crate::matcher::{MatchScratch, MatcherTrie};
use crate::pattern::{Captures, Pattern};
use crate::token::TokenizedMessage;
use std::collections::HashMap;

/// A pattern with the caller's identifier (e.g. the SHA1 id from the pattern
/// database).
#[derive(Debug, Clone)]
struct Entry {
    id: String,
    pattern: Pattern,
    literals: usize,
}

/// An indexed set of patterns for one stream of messages.
#[derive(Debug, Clone, Default)]
pub struct PatternSet {
    /// All patterns, in insertion order (the order is the final tie-break
    /// during specificity resolution).
    entries: Vec<Entry>,
    /// The compiled matcher index over `entries`.
    trie: MatcherTrie,
    /// Exact entries bucketed by fixed token count, insertion order within
    /// each bucket — the linear path's length index, so small sets only
    /// probe same-length candidates.
    by_len: HashMap<usize, Vec<u32>>,
    /// Ignore-rest entries in insertion order (their fixed prefix can end
    /// anywhere at or before the message length, so they bypass `by_len`).
    ignore_entries: Vec<u32>,
}

/// A successful parse.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseOutcome {
    /// The id the pattern was inserted under.
    pub pattern_id: String,
    /// Variable captures.
    pub captures: Captures,
}

impl PatternSet {
    /// An empty set.
    pub fn new() -> PatternSet {
        PatternSet::default()
    }

    /// Number of patterns in the set.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no patterns are present.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of nodes in the compiled matcher trie (diagnostics).
    pub fn index_node_count(&self) -> usize {
        self.trie.node_count()
    }

    /// Insert a batch of `(id, pattern)` pairs, growing the set's tables
    /// once and to fit rather than by doubling — the shape of a publish,
    /// which copies the set and then adds the newly mined patterns.
    pub fn extend(&mut self, patterns: Vec<(String, Pattern)>) {
        self.entries.reserve_exact(patterns.len());
        self.trie
            .reserve(patterns.iter().map(|(_, p)| p.elements().len()).sum());
        for (id, pattern) in patterns {
            self.insert(id, pattern);
        }
    }

    /// Insert a pattern under an id, compiling it into the matcher index.
    /// Duplicate ids are allowed (the caller — normally the pattern
    /// database — is responsible for dedup).
    pub fn insert(&mut self, id: impl Into<String>, pattern: Pattern) {
        let idx = self.entries.len() as u32;
        self.trie.insert(idx, &pattern);
        if pattern.has_ignore_rest() {
            self.ignore_entries.push(idx);
        } else {
            self.by_len
                .entry(pattern.fixed_token_count())
                .or_default()
                .push(idx);
        }
        self.entries.push(Entry {
            id: id.into(),
            literals: pattern.literal_count(),
            pattern,
        });
    }

    /// Match a tokenised message against the set. Returns the most specific
    /// match (most literal elements; exact-length matches beat ignore-rest
    /// matches of equal specificity).
    pub fn match_message(&self, msg: &TokenizedMessage) -> Option<ParseOutcome> {
        self.match_message_with(msg, &mut MatchScratch::default())
    }

    /// Below this size, a linear scan with early-exit element matching beats
    /// the trie walk (the walk costs O(tokens × frontier) even when only a
    /// handful of patterns exist); above it, the compiled index wins and the
    /// gap grows with the pattern count. Matching semantics are identical on
    /// both sides — the equivalence property test exercises sets straddling
    /// the cutoff.
    const LINEAR_CUTOFF: usize = 32;

    /// [`PatternSet::match_message`] with a caller-owned [`MatchScratch`],
    /// so tight loops over a stream reuse the trie-walk buffers instead of
    /// allocating per message. Dispatches between the linear scan (small
    /// sets) and the compiled index (everything else).
    pub fn match_message_with(
        &self,
        msg: &TokenizedMessage,
        scratch: &mut MatchScratch,
    ) -> Option<ParseOutcome> {
        self.best(msg, scratch)
            .map(|idx| self.outcome_for(idx, msg))
    }

    /// The id of the pattern [`PatternSet::match_message_with`] would
    /// return, without materialising captures or cloning the id — for
    /// callers that only count matches per pattern (the daemon's shard
    /// workers, the mining planner).
    pub fn match_id_with(
        &self,
        msg: &TokenizedMessage,
        scratch: &mut MatchScratch,
    ) -> Option<&str> {
        self.best(msg, scratch)
            .map(|idx| self.entries[idx as usize].id.as_str())
    }

    /// The winning entry, by the linear scan (small sets) or the compiled
    /// index (everything else).
    fn best(&self, msg: &TokenizedMessage, scratch: &mut MatchScratch) -> Option<u32> {
        // Sampled 1-in-16: this path runs at >1M msgs/s, so a full span per
        // call would dominate the work it measures.
        let _s = obs::sampled_span!("core.match", 4);
        if self.entries.len() <= Self::LINEAR_CUTOFF {
            self.best_linear(msg)
        } else {
            self.best_indexed(msg, scratch)
        }
    }

    /// Match through the compiled trie index unconditionally, bypassing the
    /// small-set linear dispatch. Public so the equivalence property test
    /// can compare the index against the linear reference at every set
    /// size; production callers want [`PatternSet::match_message_with`].
    pub fn match_message_indexed(
        &self,
        msg: &TokenizedMessage,
        scratch: &mut MatchScratch,
    ) -> Option<ParseOutcome> {
        self.best_indexed(msg, scratch)
            .map(|idx| self.outcome_for(idx, msg))
    }

    /// The winning entry among the trie's candidates: most literals, then
    /// exact before ignore-rest, then earliest insertion.
    fn best_indexed(&self, msg: &TokenizedMessage, scratch: &mut MatchScratch) -> Option<u32> {
        let mut best: Option<(usize, bool, u32)> = None;
        self.trie.walk(&msg.tokens, scratch, |idx, exact| {
            let literals = self.entries[idx as usize].literals;
            let better = match best {
                None => true,
                Some((bl, bex, bidx)) => {
                    (literals, exact) > (bl, bex) || ((literals, exact) == (bl, bex) && idx < bidx)
                }
            };
            if better {
                best = Some((literals, exact, idx));
            }
        });
        best.map(|(_, _, idx)| idx)
    }

    /// The winning entry by the linear scan's rules (see
    /// [`PatternSet::match_message_linear`]), checked without captures.
    fn best_linear(&self, msg: &TokenizedMessage) -> Option<u32> {
        let n = msg.token_count();
        let mut best: Option<(usize, bool, u32)> = None;
        let mut consider = |idx: u32, exact: bool| {
            let entry = &self.entries[idx as usize];
            let better = match best {
                None => true,
                Some((bl, bex, _)) => (entry.literals, exact) > (bl, bex),
            };
            if better && entry.pattern.matches_tokens(&msg.tokens) {
                best = Some((entry.literals, exact, idx));
            }
        };
        if let Some(bucket) = self.by_len.get(&n) {
            for &idx in bucket {
                consider(idx, true);
            }
        }
        for &idx in &self.ignore_entries {
            if self.entries[idx as usize].pattern.fixed_token_count() <= n {
                consider(idx, false);
            }
        }
        best.map(|(_, _, idx)| idx)
    }

    /// All patterns the message matches, not just the most specific one —
    /// the check syslog-ng's pattern database performs on its test cases
    /// ("all the example messages match their pattern, and no other in the
    /// whole pattern database"). Ordered most specific first.
    pub fn match_all(&self, msg: &TokenizedMessage) -> Vec<ParseOutcome> {
        let mut hits: Vec<u32> = Vec::new();
        self.trie
            .walk(&msg.tokens, &mut MatchScratch::default(), |idx, _| {
                hits.push(idx)
            });
        // Most literals first, then id; equal (literals, id) keep exact
        // entries before ignore-rest ones and insertion order within each —
        // the order the reference linear scan produces.
        hits.sort_by(|&a, &b| {
            let ea = &self.entries[a as usize];
            let eb = &self.entries[b as usize];
            eb.literals
                .cmp(&ea.literals)
                .then_with(|| ea.id.cmp(&eb.id))
                .then_with(|| {
                    ea.pattern
                        .has_ignore_rest()
                        .cmp(&eb.pattern.has_ignore_rest())
                })
                .then_with(|| a.cmp(&b))
        });
        hits.into_iter()
            .map(|idx| self.outcome_for(idx, msg))
            .collect()
    }

    /// Build the owned outcome for a trie-confirmed candidate: the single
    /// point where an id is cloned and captures are materialised.
    fn outcome_for(&self, idx: u32, msg: &TokenizedMessage) -> ParseOutcome {
        let entry = &self.entries[idx as usize];
        let captures = entry
            .pattern
            .match_tokens(&msg.tokens)
            .expect("trie candidates match by construction");
        ParseOutcome {
            pattern_id: entry.id.clone(),
            captures,
        }
    }

    /// Reference linear matcher, semantically identical to
    /// [`PatternSet::match_message`]: scan the same-length candidates in
    /// insertion order, then the ignore-rest candidates in insertion order,
    /// keeping the strictly-better match at each step. Kept for the
    /// `matcher_equivalence` property test and as executable documentation
    /// of the specificity rules; the trie walk must return bit-for-bit the
    /// same outcome.
    pub fn match_message_linear(&self, msg: &TokenizedMessage) -> Option<ParseOutcome> {
        let n = msg.token_count();
        let mut best: Option<(usize, bool, u32, Captures)> = None;
        let mut consider = |idx: u32, exact: bool, entry: &Entry| {
            let Some(captures) = entry.pattern.match_tokens(&msg.tokens) else {
                return;
            };
            let better = match &best {
                None => true,
                Some((bl, bex, _, _)) => (entry.literals, exact) > (*bl, *bex),
            };
            if better {
                best = Some((entry.literals, exact, idx, captures));
            }
        };
        if let Some(bucket) = self.by_len.get(&n) {
            for &idx in bucket {
                consider(idx, true, &self.entries[idx as usize]);
            }
        }
        for &idx in &self.ignore_entries {
            let e = &self.entries[idx as usize];
            if e.pattern.fixed_token_count() <= n {
                consider(idx, false, e);
            }
        }
        best.map(|(_, _, idx, captures)| ParseOutcome {
            pattern_id: self.entries[idx as usize].id.clone(),
            captures,
        })
    }

    /// Iterate over `(id, pattern)` pairs in insertion order — the order
    /// that breaks specificity ties between equally specific matches.
    pub fn iter_inserted(&self) -> impl Iterator<Item = (&str, &Pattern)> {
        self.entries.iter().map(|e| (e.id.as_str(), &e.pattern))
    }

    /// Iterate over `(id, pattern)` pairs, ordered by fixed token count and
    /// then insertion order — a deterministic order, so exports and golden
    /// snapshots are stable across runs.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Pattern)> {
        let mut order: Vec<u32> = (0..self.entries.len() as u32).collect();
        order.sort_by_key(|&i| (self.entries[i as usize].pattern.fixed_token_count(), i));
        order.into_iter().map(move |i| {
            let e = &self.entries[i as usize];
            (e.id.as_str(), &e.pattern)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::Scanner;

    fn set(patterns: &[(&str, &str)]) -> PatternSet {
        let mut s = PatternSet::new();
        for (id, p) in patterns {
            s.insert(*id, Pattern::parse(p).unwrap());
        }
        s
    }

    fn scan(m: &str) -> TokenizedMessage {
        Scanner::new().scan(m)
    }

    #[test]
    fn empty_set_matches_nothing() {
        let s = PatternSet::new();
        assert!(s.is_empty());
        assert!(s.match_message(&scan("anything")).is_none());
    }

    #[test]
    fn basic_match_with_captures() {
        let s = set(&[("p1", "%action% from %srcip:ipv4% port %srcport:integer%")]);
        let out = s
            .match_message(&scan("accepted from 10.0.0.1 port 22"))
            .unwrap();
        assert_eq!(out.pattern_id, "p1");
        assert_eq!(out.captures.get("srcip"), Some("10.0.0.1"));
    }

    #[test]
    fn length_index_prevents_cross_length_match() {
        let s = set(&[("p1", "a %x% c")]);
        assert!(s.match_message(&scan("a b c d")).is_none());
        assert!(s.match_message(&scan("a b")).is_none());
        assert!(s.match_message(&scan("a b c")).is_some());
    }

    #[test]
    fn most_specific_pattern_wins() {
        let s = set(&[
            ("generic", "%a% %b% %c%"),
            ("specific", "session %b% closed"),
        ]);
        let out = s.match_message(&scan("session xyz closed")).unwrap();
        assert_eq!(out.pattern_id, "specific");
    }

    #[test]
    fn exact_length_beats_ignore_rest_at_equal_specificity() {
        let s = set(&[
            ("ir", "session %b% closed %...%"),
            ("exact", "session %b% closed"),
        ]);
        let out = s.match_message(&scan("session xyz closed")).unwrap();
        assert_eq!(out.pattern_id, "exact");
    }

    #[test]
    fn ignore_rest_matches_longer_messages() {
        let s = set(&[("ir", "panic : %...%")]);
        assert!(s
            .match_message(&scan("panic: something terrible happened here"))
            .is_some());
        assert!(s.match_message(&scan("panic:")).is_some());
        assert!(s.match_message(&scan("panic")).is_none());
    }

    #[test]
    fn insertion_order_breaks_exact_ties() {
        // Structurally identical patterns under different ids: the first
        // inserted must win, exactly like the reference linear scan.
        let s = set(&[("first", "job %a% done"), ("second", "job %b% done")]);
        let msg = scan("job nightly done");
        let out = s.match_message(&msg).unwrap();
        assert_eq!(out.pattern_id, "first");
        assert_eq!(out.captures.get("a"), Some("nightly"));
        assert_eq!(s.match_message_linear(&msg).unwrap(), out);
    }

    #[test]
    fn trie_and_linear_agree_on_handpicked_cases() {
        let s = set(&[
            ("g", "%a% %b% %c%"),
            ("s", "session %b% closed"),
            ("ir", "session %b% %...%"),
            ("ir2", "%...%"),
            ("kv", "pid = %p:integer%"),
        ]);
        for m in [
            "session xyz closed",
            "session xyz opened wide",
            "pid = 123",
            "pid = abc",
            "one two three",
            "completely different and longer than the rest",
            "",
        ] {
            let msg = scan(m);
            assert_eq!(
                s.match_message(&msg),
                s.match_message_linear(&msg),
                "mismatch on {m:?}"
            );
        }
    }

    #[test]
    fn iter_yields_all_in_deterministic_order() {
        let s = set(&[
            ("long", "a b c d %v%"),
            ("b", "y %v% %...%"),
            ("a", "x %v%"),
            ("a2", "z %w%"),
        ]);
        let ids: Vec<&str> = s.iter().map(|(id, _)| id).collect();
        // Sorted by fixed token count, then insertion order ("b", "a" and
        // "a2" all have two fixed tokens; "b" was inserted first).
        assert_eq!(ids, vec!["b", "a", "a2", "long"]);
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn type_mismatch_rejected_by_all_candidates() {
        let s = set(&[("p", "count %n:integer% items")]);
        assert!(s.match_message(&scan("count 12 items")).is_some());
        assert!(s.match_message(&scan("count twelve items")).is_none());
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let s = set(&[("p", "%a% from %b:ipv4%"), ("q", "beat %...%")]);
        let mut scratch = MatchScratch::default();
        for m in ["x from 1.2.3.4", "beat it", "no match here at all"] {
            let msg = scan(m);
            assert_eq!(
                s.match_message_with(&msg, &mut scratch),
                s.match_message(&msg)
            );
        }
    }

    #[test]
    fn match_all_orders_most_specific_first() {
        let s = set(&[
            ("generic", "%a% %b% %c%"),
            ("specific", "session %b% closed"),
            ("ir", "session %b% %...%"),
        ]);
        let outs = s.match_all(&scan("session xyz closed"));
        let ids: Vec<&str> = outs.iter().map(|o| o.pattern_id.as_str()).collect();
        assert_eq!(ids, vec!["specific", "ir", "generic"]);
    }
}
