//! The compiled matcher index: a discrimination trie over pattern elements.
//!
//! [`crate::PatternSet`] compiles every inserted pattern into this trie so
//! that matching a message walks the trie once — O(token count × branching)
//! — instead of scanning every same-length candidate pattern. This is the
//! structure that keeps `match_message` fast at production pattern counts
//! (the paper's Fig. 6/7 deployment filters the *entire* log stream through
//! the pattern database).
//!
//! Layout: each node has
//!
//! * **literal edges**, keyed by exact token text (a literal pattern element
//!   matches on text alone, whatever the token's scan-time type — `port 22`
//!   mined as two literals matches the integer token `22`);
//! * **typed-variable edges**, a short list of `(type, child)` pairs —
//!   `%x:integer%` follows the `Integer` edge, the free-text `%x%` follows
//!   the `Literal` edge, and the analysis-time refinements
//!   `%x:email%`/`%x:host%` follow their edges *guarded* by the same text
//!   predicates the linear matcher applies ([`crate::analyzer::is_email`] /
//!   [`crate::analyzer::is_hostname`]);
//! * **terminals**: entry indices of patterns ending here, each flagged as
//!   exact (pattern consumed the whole message) or ignore-rest (pattern
//!   prefix consumed, the rest is discarded).
//!
//! The layout is sized for what mined sets look like: several nodes per
//! pattern, most with one child. A node is 56 bytes; one literal edge is
//! stored in the node itself, a few in a short list scanned in place, and
//! only a wide fan-out gets a hash table. Edge texts
//! live in one arena string per trie rather than one allocation per edge.
//! Typed edges and terminals are boxed slices that cost nothing when empty.
//!
//! A message token may legally follow several edges at once (the integer
//! token `22` follows both a `22` literal edge and an `Integer` variable
//! edge), so the walk keeps a small frontier of live nodes rather than a
//! single cursor. The frontier never holds duplicates: the trie is a tree
//! and each parent's edges lead to distinct children.
//!
//! The walk only *finds* candidates; specificity resolution (most literal
//! elements wins, exact beats ignore-rest, earliest insertion breaks
//! remaining ties) stays in [`crate::PatternSet`], which guarantees
//! bit-for-bit the same outcome as the reference linear scan — see the
//! `matcher_equivalence` property test.

use crate::analyzer::{is_email, is_hostname};
use crate::pattern::{Pattern, PatternElement};
use crate::token::{Token, TokenType};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A multiply-xor string hasher (the FxHash construction) for the literal
/// edge maps. The trie walk hashes a token's text once per live frontier
/// node, on every token of every message — with the default SipHash that
/// single operation dominated the whole walk at small pattern counts.
/// Hash-flooding resistance is irrelevant here (keys come from the mined
/// patterns, not the message stream), so the cheap hash is the right trade.
#[derive(Default)]
struct FxHasher {
    hash: u64,
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let word = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
            self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
        }
        let mut tail = 0u64;
        for &b in chunks.remainder() {
            tail = (tail << 8) | b as u64;
        }
        self.hash = (self.hash.rotate_left(5) ^ tail).wrapping_mul(SEED);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A literal edge whose text is `text[start..start + len]` in the owning
/// trie's arena.
#[derive(Debug, Clone, Copy)]
struct LitEdge {
    start: u32,
    len: u32,
    child: u32,
}

/// Past this many literal edges a node switches from a list scanned in
/// place to a hash table.
const FEW_LITERALS: usize = 8;

/// A node's literal edges, by fan-out.
#[derive(Debug, Clone, Default)]
enum Literals {
    #[default]
    None,
    One(LitEdge),
    Few(Box<[LitEdge]>),
    Many(Box<FxMap<Box<str>, u32>>),
}

/// A typed-variable edge.
#[derive(Debug, Clone, Copy)]
struct VarEdge {
    ty: TokenType,
    child: u32,
}

/// Terminal flag: the entry's pattern ends with an ignore-rest marker.
const IGNORE_REST: u32 = 1;

/// One node of the matcher trie.
#[derive(Debug, Clone, Default)]
struct MatchNode {
    literal: Literals,
    /// Typed-variable edges; at most one per [`TokenType`].
    var: Box<[VarEdge]>,
    /// Entries (indices into the owning set) whose pattern ends here, as
    /// `idx << 1 | IGNORE_REST` for an ignore-rest terminal.
    terminals: Box<[u32]>,
}

fn push_boxed<T>(slice: &mut Box<[T]>, item: T) {
    let mut v = std::mem::take(slice).into_vec();
    v.push(item);
    *slice = v.into_boxed_slice();
}

/// Reusable frontier buffers for [`MatcherTrie::walk`]. Hot loops should
/// hold one scratch per thread and pass it to
/// [`crate::PatternSet::match_message_with`] so matching a whole stream
/// performs no per-message frontier allocations.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    cur: Vec<u32>,
    next: Vec<u32>,
}

/// The compiled discrimination trie over a set's pattern elements.
#[derive(Debug, Clone)]
pub(crate) struct MatcherTrie {
    nodes: Vec<MatchNode>,
    /// Texts of the list-stored literal edges, back to back.
    text: String,
}

const ROOT: u32 = 0;

impl Default for MatcherTrie {
    fn default() -> Self {
        MatcherTrie::new()
    }
}

impl MatcherTrie {
    pub(crate) fn new() -> MatcherTrie {
        MatcherTrie {
            nodes: vec![MatchNode::default()],
            text: String::new(),
        }
    }

    /// Number of allocated trie nodes (diagnostics / memory accounting).
    pub(crate) fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Reserve room for `elements` more pattern elements (an upper bound on
    /// the nodes they add), so a batch of inserts grows the node table once
    /// and exactly instead of doubling it.
    pub(crate) fn reserve(&mut self, elements: usize) {
        self.nodes.reserve_exact(elements);
    }

    fn edge_text(&self, e: &LitEdge) -> &str {
        &self.text[e.start as usize..(e.start + e.len) as usize]
    }

    /// The child of node `at` along the literal edge `text`, if any.
    fn literal_child(&self, at: u32, text: &str) -> Option<u32> {
        match &self.nodes[at as usize].literal {
            Literals::None => None,
            Literals::One(e) => (self.edge_text(e) == text).then_some(e.child),
            Literals::Few(edges) => edges
                .iter()
                .find(|e| self.edge_text(e) == text)
                .map(|e| e.child),
            Literals::Many(map) => map.get(text).copied(),
        }
    }

    fn add_literal(&mut self, at: u32, text: &str, child: u32) {
        let literal = std::mem::take(&mut self.nodes[at as usize].literal);
        let literal = match literal {
            Literals::Few(edges) if edges.len() >= FEW_LITERALS => {
                let mut map: FxMap<Box<str>, u32> = edges
                    .iter()
                    .map(|e| (self.edge_text(e).into(), e.child))
                    .collect();
                map.insert(text.into(), child);
                Literals::Many(Box::new(map))
            }
            Literals::Many(mut map) => {
                map.insert(text.into(), child);
                Literals::Many(map)
            }
            small => {
                let edge = LitEdge {
                    start: self.text.len() as u32,
                    len: text.len() as u32,
                    child,
                };
                self.text.push_str(text);
                match small {
                    Literals::None => Literals::One(edge),
                    Literals::One(first) => Literals::Few(Box::new([first, edge])),
                    Literals::Few(mut edges) => {
                        push_boxed(&mut edges, edge);
                        Literals::Few(edges)
                    }
                    Literals::Many(_) => unreachable!("handled above"),
                }
            }
        };
        self.nodes[at as usize].literal = literal;
    }

    /// Compile one pattern into the trie as entry `entry_idx`.
    pub(crate) fn insert(&mut self, entry_idx: u32, pattern: &Pattern) {
        let mut at = ROOT;
        for el in pattern.elements() {
            at = match el {
                PatternElement::Literal { text, .. } => match self.literal_child(at, text) {
                    Some(next) => next,
                    None => {
                        let next = self.push_node();
                        self.add_literal(at, text, next);
                        next
                    }
                },
                PatternElement::Variable { ty, .. } => {
                    let node = &self.nodes[at as usize];
                    match node.var.iter().find(|v| v.ty == *ty) {
                        Some(v) => v.child,
                        None => {
                            let next = self.push_node();
                            let edge = VarEdge {
                                ty: *ty,
                                child: next,
                            };
                            push_boxed(&mut self.nodes[at as usize].var, edge);
                            next
                        }
                    }
                }
                PatternElement::IgnoreRest => break,
            };
        }
        let flag = if pattern.has_ignore_rest() {
            IGNORE_REST
        } else {
            0
        };
        push_boxed(
            &mut self.nodes[at as usize].terminals,
            entry_idx << 1 | flag,
        );
    }

    fn push_node(&mut self) -> u32 {
        let id = self.nodes.len() as u32;
        self.nodes.push(MatchNode::default());
        id
    }

    /// Report node `nid`'s ignore-rest terminals (`exact == false`) or its
    /// exact ones (`exact == true`).
    fn terminals<F: FnMut(u32, bool)>(&self, nid: u32, exact: bool, on_candidate: &mut F) {
        for &t in self.nodes[nid as usize].terminals.iter() {
            if (t & IGNORE_REST == 0) == exact {
                on_candidate(t >> 1, exact);
            }
        }
    }

    /// Walk the trie over `tokens`, reporting every candidate entry:
    /// `on_candidate(entry_idx, is_exact)`. Ignore-rest terminals fire at
    /// any consumed depth (their suffix matches whatever remains); exact
    /// terminals fire only when the whole token sequence was consumed.
    pub(crate) fn walk<F: FnMut(u32, bool)>(
        &self,
        tokens: &[Token],
        scratch: &mut MatchScratch,
        mut on_candidate: F,
    ) {
        scratch.cur.clear();
        scratch.cur.push(ROOT);
        self.terminals(ROOT, false, &mut on_candidate);
        for tok in tokens {
            scratch.next.clear();
            let text = tok.text.as_str();
            for &nid in &scratch.cur {
                scratch.next.extend(self.literal_child(nid, text));
                for v in self.nodes[nid as usize].var.iter() {
                    let follows = v.ty == tok.ty
                        || (tok.ty == TokenType::Literal
                            // Analysis-time refinements accept literal
                            // tokens whose text satisfies the predicate (the
                            // scanner itself never produces Email/Hostname
                            // tokens).
                            && match v.ty {
                                TokenType::Email => is_email(text),
                                TokenType::Hostname => is_hostname(text),
                                _ => false,
                            });
                    if follows {
                        scratch.next.push(v.child);
                    }
                }
            }
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
            if scratch.cur.is_empty() {
                return;
            }
            for &nid in &scratch.cur {
                self.terminals(nid, false, &mut on_candidate);
            }
        }
        for &nid in &scratch.cur {
            self.terminals(nid, true, &mut on_candidate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trie_with(patterns: &[&str]) -> MatcherTrie {
        let mut t = MatcherTrie::new();
        for (i, p) in patterns.iter().enumerate() {
            t.insert(i as u32, &Pattern::parse(p).unwrap());
        }
        t
    }

    fn candidates(t: &MatcherTrie, msg: &str) -> Vec<(u32, bool)> {
        let scanned = crate::scanner::Scanner::new().scan_parse_only(msg);
        let mut out = Vec::new();
        t.walk(&scanned.tokens, &mut MatchScratch::default(), |e, exact| {
            out.push((e, exact))
        });
        out
    }

    #[test]
    fn node_stays_small() {
        assert!(std::mem::size_of::<MatchNode>() <= 56);
    }

    #[test]
    fn literal_fan_out_moves_from_inline_to_list_to_table() {
        // Fan-outs 1 (inline), FEW_LITERALS (list) and beyond (table) all
        // keep every edge reachable.
        for width in [1, 2, FEW_LITERALS, FEW_LITERALS + 1, 40] {
            let patterns: Vec<String> = (0..width).map(|i| format!("w{i} tail")).collect();
            let refs: Vec<&str> = patterns.iter().map(String::as_str).collect();
            let t = trie_with(&refs);
            for i in 0..width {
                assert_eq!(
                    candidates(&t, &format!("w{i} tail")),
                    vec![(i as u32, true)]
                );
            }
            assert!(candidates(&t, "w tail").is_empty());
        }
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let t = trie_with(&["session %id:integer% opened", "session %id:integer% closed"]);
        // root + session + <integer> + {opened, closed}
        assert_eq!(t.node_count(), 5);
    }

    #[test]
    fn literal_edge_matches_typed_token() {
        // A literal `22` element must match the *integer* token `22`.
        let t = trie_with(&["port 22"]);
        assert_eq!(candidates(&t, "port 22"), vec![(0, true)]);
        assert!(candidates(&t, "port 23").is_empty());
    }

    #[test]
    fn frontier_follows_literal_and_var_edges_at_once() {
        let t = trie_with(&["port 22", "port %p:integer%"]);
        let mut c = candidates(&t, "port 22");
        c.sort_unstable();
        assert_eq!(c, vec![(0, true), (1, true)]);
        assert_eq!(candidates(&t, "port 8080"), vec![(1, true)]);
    }

    #[test]
    fn ignore_rest_fires_at_every_depth_including_root() {
        let t = trie_with(&["%...%", "panic %...%"]);
        let c = candidates(&t, "panic at the disco");
        assert!(c.contains(&(0, false)));
        assert!(c.contains(&(1, false)));
        // The bare ignore-rest matches even an empty token sequence.
        assert_eq!(candidates(&t, ""), vec![(0, false)]);
    }

    #[test]
    fn dead_frontier_short_circuits() {
        let t = trie_with(&["alpha beta gamma"]);
        assert!(candidates(&t, "zzz beta gamma").is_empty());
        assert!(candidates(&t, "alpha beta").is_empty());
        assert!(candidates(&t, "alpha beta gamma delta").is_empty());
    }

    #[test]
    fn email_and_hostname_edges_are_predicate_guarded() {
        let t = trie_with(&["from %e:email%", "from %h:host%", "from %w%"]);
        let ids = |msg: &str| {
            candidates(&t, msg)
                .iter()
                .map(|&(e, _)| e)
                .collect::<Vec<_>>()
        };
        let mut hit = ids("from alice@example.com");
        hit.sort_unstable();
        assert_eq!(hit, vec![0, 2]);
        let mut hit = ids("from node-1.example.org");
        hit.sort_unstable();
        assert_eq!(hit, vec![1, 2]);
        assert_eq!(ids("from plainword"), vec![2]);
    }
}
