//! Property test: the compiled discrimination-trie matcher behind
//! [`PatternSet::match_message`] returns bit-for-bit the same outcome —
//! winning pattern id *and* captures — as the naive linear reference scan
//! ([`PatternSet::match_message_linear`]), on randomly generated pattern
//! sets and messages. Coverage deliberately includes ignore-rest patterns,
//! predicate-guarded email/hostname variables, structural duplicates (exact
//! specificity ties resolved by insertion order) and messages that match
//! nothing.

use sequence_rtg_repro::sequence_core::{
    MatchScratch, Pattern, PatternSet, Scanner, TokenizedMessage,
};
use testkit::prop::{self, Config, Strategy};
use testkit::prop_assert_eq;
use testkit::rng::Rng;

const VOCAB: &[&str] = &[
    "session", "opened", "closed", "for", "from", "port", "worker", "panic", "alpha", "beta",
    "gamma", "failed", "retry", "22",
];

/// `(pattern_id, pattern_text)` pairs plus raw messages to match.
#[derive(Clone, Debug)]
struct Case {
    patterns: Vec<(String, String)>,
    messages: Vec<String>,
}

struct MatcherCase;

impl Strategy for MatcherCase {
    type Value = Case;

    fn generate(&self, rng: &mut Rng) -> Case {
        // Straddles PatternSet's small-set linear cutoff (32), so the
        // properties pin both dispatch arms.
        let n_patterns = rng.gen_range(1..60usize);
        let mut patterns: Vec<(String, String)> = Vec::with_capacity(n_patterns);
        for i in 0..n_patterns {
            // Structural duplicates force exact specificity ties, which the
            // trie must resolve by insertion order just like the linear scan.
            let text = if i > 0 && rng.gen_bool(0.2) {
                patterns[rng.gen_range(0..i)].1.clone()
            } else {
                gen_pattern(rng)
            };
            patterns.push((format!("p{i:02}"), text));
        }
        let n_messages = rng.gen_range(1..9usize);
        let messages = (0..n_messages)
            .map(|_| {
                if rng.gen_bool(0.7) {
                    let donor = &patterns[rng.gen_range(0..patterns.len())].1;
                    instantiate(rng, donor)
                } else {
                    gen_soup(rng)
                }
            })
            .collect();
        Case { patterns, messages }
    }

    fn shrink(&self, case: &Case) -> Vec<Case> {
        let mut out = Vec::new();
        if case.patterns.len() > 1 {
            for i in 0..case.patterns.len() {
                let mut c = case.clone();
                c.patterns.remove(i);
                out.push(c);
            }
        }
        if case.messages.len() > 1 {
            for i in 0..case.messages.len() {
                let mut c = case.clone();
                c.messages.remove(i);
                out.push(c);
            }
        }
        out
    }
}

fn gen_pattern(rng: &mut Rng) -> String {
    let n = rng.gen_range(1..6usize);
    let mut parts: Vec<String> = Vec::with_capacity(n + 1);
    for pos in 0..n {
        if rng.gen_bool(0.55) {
            parts.push(rng.choose(VOCAB).unwrap().to_string());
        } else {
            let ty = *rng
                .choose(&["", ":integer", ":float", ":ipv4", ":email", ":host", ":hex"])
                .unwrap();
            parts.push(format!("%v{pos}{ty}%"));
        }
    }
    if rng.gen_bool(0.25) {
        parts.push("%...%".to_string());
    }
    parts.join(" ")
}

/// A message built to satisfy `pattern` (modulo scanner quirks — near-misses
/// are fine, the property holds either way).
fn instantiate(rng: &mut Rng, pattern: &str) -> String {
    let mut words: Vec<String> = Vec::new();
    for part in pattern.split(' ') {
        words.push(match part {
            "%...%" => gen_soup(rng),
            v if v.starts_with('%') => {
                let text = if v.contains(":integer") {
                    format!("{}", rng.gen_range(0..100_000u32))
                } else if v.contains(":float") {
                    "3.25".to_string()
                } else if v.contains(":ipv4") {
                    format!(
                        "10.0.{}.{}",
                        rng.gen_range(0..256u32),
                        rng.gen_range(0..256u32)
                    )
                } else if v.contains(":email") {
                    "alice@example.com".to_string()
                } else if v.contains(":host") {
                    "node-1.example.org".to_string()
                } else if v.contains(":hex") {
                    "0xdeadbeef".to_string()
                } else {
                    // Free-text variable: any word that scans as a literal.
                    rng.choose(&["alice", "root", "eth0", "cron"])
                        .unwrap()
                        .to_string()
                };
                text
            }
            lit => lit.to_string(),
        });
    }
    words.retain(|w| !w.is_empty());
    words.join(" ")
}

fn gen_soup(rng: &mut Rng) -> String {
    let n = rng.gen_range(0..5usize);
    (0..n)
        .map(|_| rng.choose(VOCAB).unwrap().to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

fn build_set(case: &Case) -> (PatternSet, Vec<(String, Pattern)>) {
    let mut set = PatternSet::new();
    let mut parsed = Vec::new();
    for (id, text) in &case.patterns {
        let p = Pattern::parse(text).expect("generated patterns parse");
        set.insert(id.clone(), p.clone());
        parsed.push((id.clone(), p));
    }
    (set, parsed)
}

/// The compiled trie index (`match_message_indexed`, forced at every set
/// size) and the production dispatch (`match_message` /
/// `match_message_with`) all agree bit-for-bit with the naive linear
/// reference scan.
#[test]
fn trie_matches_linear_reference() {
    let scanner = Scanner::new();
    prop::check(&Config::cases(1200), &MatcherCase, |case| {
        let (set, _) = build_set(case);
        let mut scratch = MatchScratch::default();
        for m in &case.messages {
            let msg: TokenizedMessage = scanner.scan_parse_only(m);
            let linear = set.match_message_linear(&msg);
            prop_assert_eq!(
                &set.match_message_indexed(&msg, &mut scratch),
                &linear,
                "trie index on {:?}",
                m
            );
            prop_assert_eq!(&set.match_message(&msg), &linear, "message {:?}", m);
            prop_assert_eq!(
                &set.match_message_with(&msg, &mut scratch),
                &linear,
                "dispatch with scratch on {:?}",
                m
            );
        }
        Ok(())
    });
}

/// `match_all` returns exactly the linear set of matching patterns, in the
/// documented order: most literals first, then id, exact before ignore-rest,
/// then insertion order.
#[test]
fn match_all_matches_linear_reference() {
    let scanner = Scanner::new();
    prop::check(&Config::cases(600), &MatcherCase, |case| {
        let (set, parsed) = build_set(case);
        for m in &case.messages {
            let msg = scanner.scan_parse_only(m);
            let mut expected: Vec<(usize, &String)> = parsed
                .iter()
                .enumerate()
                .filter(|(_, (_, p))| p.match_tokens(&msg.tokens).is_some())
                .map(|(i, (id, _))| (i, id))
                .collect();
            expected.sort_by(|&(a, aid), &(b, bid)| {
                let pa = &parsed[a].1;
                let pb = &parsed[b].1;
                pb.literal_count()
                    .cmp(&pa.literal_count())
                    .then_with(|| aid.cmp(bid))
                    .then_with(|| pa.has_ignore_rest().cmp(&pb.has_ignore_rest()))
                    .then_with(|| a.cmp(&b))
            });
            let got: Vec<String> = set
                .match_all(&msg)
                .into_iter()
                .map(|o| o.pattern_id)
                .collect();
            let want: Vec<String> = expected.into_iter().map(|(_, id)| id.clone()).collect();
            prop_assert_eq!(&got, &want, "message {:?}", m);
        }
        Ok(())
    });
}

/// `match_id_with` (capture-free) names the same pattern as
/// `match_message_with` and as the linear reference, at every generated
/// set size — the sizes straddle the linear cutoff, so both the linear
/// and the trie dispatch arms are pinned.
#[test]
fn match_id_matches_full_match() {
    let scanner = Scanner::new();
    prop::check(&Config::cases(1200), &MatcherCase, |case| {
        let (set, _) = build_set(case);
        let mut scratch = MatchScratch::default();
        for m in &case.messages {
            let msg = scanner.scan_parse_only(m);
            let full = set.match_message_with(&msg, &mut scratch);
            let linear = set.match_message_linear(&msg);
            let id = set.match_id_with(&msg, &mut scratch);
            prop_assert_eq!(
                id,
                full.as_ref().map(|o| o.pattern_id.as_str()),
                "dispatch on {:?}",
                m
            );
            prop_assert_eq!(
                id,
                linear.as_ref().map(|o| o.pattern_id.as_str()),
                "linear reference on {:?}",
                m
            );
        }
        Ok(())
    });
}
