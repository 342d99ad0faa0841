//! Served patterns parse back: `Pattern::parse(&p.render()) == p` for every
//! pattern mined from every LogHub-2.0 family.
//!
//! The daemon stores and serves patterns in their rendered text, and every
//! reader (`/patterns` clients, a restart's `load_pattern_sets`) parses that
//! text again. A pattern whose literal text holds a `%` (Hadoop's
//! `map 100% reduce 50%`) used to render into something `parse` rejects as
//! an unknown tag; `render` now writes such a `%` as `%%`. The property runs
//! over the unmasked content (what the daemon benchmark streams), mined
//! whole and in small batches, and the raw lines with their headers, for
//! several corpus seeds.

use sequence_rtg_repro::loghub_synth::loghub2::{self, LOGHUB2_FAMILIES};
use sequence_rtg_repro::sequence_core::{
    Analyzer, MatchScratch, Pattern, PatternElement, PatternSet, Scanner,
};
use sequence_rtg_repro::sequence_rtg::{plan_service, LogRecord, RtgConfig};
use std::cell::Cell;
use testkit::prop::{self, Config};
use testkit::prop_assert_eq;

/// Lines mined per family and case: enough for every family to yield
/// dozens of patterns, small enough for a debug-build test run.
const LINES: usize = 1200;

/// The batch size of the small-batch pass.
const SMALL_BATCH: usize = 40;

/// Mine `messages` the way the daemon's miner does (scan, match against
/// nothing, analyse, semi-constant split) and return the patterns.
fn mine(messages: &[String]) -> Vec<Pattern> {
    let config = RtgConfig::default();
    let records: Vec<LogRecord> = messages.iter().map(|m| LogRecord::new("svc", m)).collect();
    let refs: Vec<&LogRecord> = records.iter().collect();
    let plan = plan_service(
        &Scanner::with_options(config.scanner),
        &Analyzer::with_options(config.analyzer),
        &config,
        None::<&PatternSet>,
        &mut MatchScratch::default(),
        &refs,
    );
    plan.discovered.into_iter().map(|d| d.pattern).collect()
}

fn has_literal_percent(p: &Pattern) -> bool {
    p.elements()
        .iter()
        .any(|el| matches!(el, PatternElement::Literal { text, .. } if text.contains('%')))
}

#[test]
fn every_mined_pattern_parses_back_from_its_render() {
    let with_percent = Cell::new(0usize);
    let total = Cell::new(0usize);
    prop::check(&Config::cases(3), &prop::range(0u64..1_000_000), |&seed| {
        for family in LOGHUB2_FAMILIES {
            let lines: Vec<_> = loghub2::stream(family, LINES, seed).collect();
            let content: Vec<String> = lines.iter().map(|l| l.content.clone()).collect();
            let raw: Vec<String> = lines.iter().map(|l| l.raw.clone()).collect();
            // Whole-stream batches generalise; small batches (a quiet
            // shard's residue) keep more literal text, `100%` included.
            let small = content.chunks(SMALL_BATCH).flat_map(mine);
            for pattern in mine(&content).into_iter().chain(mine(&raw)).chain(small) {
                total.set(total.get() + 1);
                with_percent.set(with_percent.get() + usize::from(has_literal_percent(&pattern)));
                let text = pattern.render();
                let parsed = Pattern::parse(&text);
                prop_assert_eq!(
                    parsed.as_ref(),
                    Ok(&pattern),
                    "{} seed {}: {:?}",
                    family,
                    seed,
                    text
                );
            }
        }
        Ok(())
    });
    let (total, with_percent) = (total.get(), with_percent.get());
    assert!(total > 0);
    // The property must cover the case it exists for.
    assert!(
        with_percent > 0,
        "no mined pattern holds a literal % ({total} patterns)"
    );
}
