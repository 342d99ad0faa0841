//! Hot-swappable compiled pattern sets.
//!
//! Re-mining runs for seconds; matching must never wait on it. Each service's
//! compiled [`PatternSet`] therefore lives behind a [`SwapCell`]: readers
//! clone an `Arc` under a read lock held for nanoseconds, writers build the
//! new set *outside* any lock and swap the pointer in one write-locked store.
//! A reader that loaded the old `Arc` keeps matching against a consistent
//! set until its next load — exactly the semantics of syslog-ng reloading a
//! pattern database file, minus the reload pause.

use sequence_core::PatternSet;
use std::collections::HashMap;
use std::sync::{Arc, RwLock};

/// One atomically-swappable slot (an `ArcSwap` over std primitives).
#[derive(Debug)]
pub struct SwapCell<T> {
    slot: RwLock<Arc<T>>,
}

impl<T> SwapCell<T> {
    /// A cell serving `value`.
    pub fn new(value: Arc<T>) -> SwapCell<T> {
        SwapCell {
            slot: RwLock::new(value),
        }
    }

    /// Clone the current `Arc` (wait-free in practice: the read lock is held
    /// only for the refcount bump).
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.slot.read().expect("swap lock"))
    }

    /// Publish a new value; readers switch on their next [`SwapCell::load`].
    pub fn store(&self, value: Arc<T>) {
        *self.slot.write().expect("swap lock") = value;
    }
}

/// The per-service registry of published pattern sets, shared between the
/// shard workers (writers, disjoint services) and the control plane
/// (reader).
#[derive(Debug, Default)]
pub struct PatternBoard {
    services: RwLock<HashMap<String, Arc<SwapCell<PatternSet>>>>,
}

impl PatternBoard {
    /// An empty board.
    pub fn new() -> PatternBoard {
        PatternBoard::default()
    }

    /// Seed the board from pre-existing per-service sets (store reload at
    /// daemon start). The board keeps the given `Arc`s, not copies.
    pub fn seed(&self, sets: HashMap<String, Arc<PatternSet>>) {
        let mut map = self.services.write().expect("board lock");
        for (service, set) in sets {
            map.insert(service, Arc::new(SwapCell::new(set)));
        }
    }

    /// The current set for `service`, if any pattern was ever published.
    pub fn load(&self, service: &str) -> Option<Arc<PatternSet>> {
        self.services
            .read()
            .expect("board lock")
            .get(service)
            .map(|cell| cell.load())
    }

    /// Publish a new compiled set for `service`, creating the slot on first
    /// publication. The board serves the given `Arc` itself, so a caller
    /// that keeps its own handle shares one copy with every reader. Returns
    /// the number of patterns published.
    pub fn publish(&self, service: &str, set: impl Into<Arc<PatternSet>>) -> usize {
        let set: Arc<PatternSet> = set.into();
        let n = set.len();
        {
            let map = self.services.read().expect("board lock");
            if let Some(cell) = map.get(service) {
                cell.store(set);
                return n;
            }
        }
        let mut map = self.services.write().expect("board lock");
        match map.get(service) {
            Some(cell) => cell.store(set),
            None => {
                map.insert(service.to_string(), Arc::new(SwapCell::new(set)));
            }
        }
        n
    }

    /// Services with a published set, sorted.
    pub fn services(&self) -> Vec<String> {
        let mut out: Vec<String> = self
            .services
            .read()
            .expect("board lock")
            .keys()
            .cloned()
            .collect();
        out.sort();
        out
    }

    /// Total published patterns across services.
    pub fn total_patterns(&self) -> usize {
        self.services
            .read()
            .expect("board lock")
            .values()
            .map(|cell| cell.load().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sequence_core::{Pattern, Scanner};

    fn one_pattern(text: &str) -> PatternSet {
        let mut set = PatternSet::new();
        set.insert("p1", Pattern::parse(text).unwrap());
        set
    }

    #[test]
    fn publish_then_load_round_trips() {
        let board = PatternBoard::new();
        assert!(board.load("sshd").is_none());
        board.publish("sshd", one_pattern("Accepted password for %user:string%"));
        let set = board.load("sshd").unwrap();
        let msg = Scanner::new().scan("Accepted password for root");
        assert!(set.match_message(&msg).is_some());
        assert_eq!(board.services(), vec!["sshd".to_string()]);
        assert_eq!(board.total_patterns(), 1);
    }

    #[test]
    fn old_readers_keep_a_consistent_set_across_a_swap() {
        let board = PatternBoard::new();
        board.publish("svc", one_pattern("alpha %x:integer%"));
        let old = board.load("svc").unwrap();
        board.publish("svc", one_pattern("beta %x:integer%"));
        // The pre-swap Arc still matches the old world…
        let scanner = Scanner::new();
        assert!(old.match_message(&scanner.scan("alpha 1")).is_some());
        assert!(old.match_message(&scanner.scan("beta 1")).is_none());
        // …while a fresh load sees the new one.
        let new = board.load("svc").unwrap();
        assert!(new.match_message(&scanner.scan("beta 1")).is_some());
    }

    #[test]
    fn seed_installs_initial_sets() {
        let board = PatternBoard::new();
        let mut sets = HashMap::new();
        sets.insert("a".to_string(), Arc::new(one_pattern("x %n:integer%")));
        sets.insert("b".to_string(), Arc::new(PatternSet::new()));
        board.seed(sets);
        assert_eq!(board.services(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(board.total_patterns(), 1);
    }

    #[test]
    fn concurrent_swap_and_load_do_not_block_each_other() {
        let board = Arc::new(PatternBoard::new());
        board.publish("svc", one_pattern("event %n:integer%"));
        let writer = {
            let board = Arc::clone(&board);
            std::thread::spawn(move || {
                for i in 0..200 {
                    board.publish("svc", one_pattern(&format!("event-{i} %n:integer%")));
                }
            })
        };
        // Interleave loads with the swaps; every observed set is complete.
        while !writer.is_finished() {
            let set = board.load("svc").unwrap();
            assert_eq!(set.len(), 1);
        }
        writer.join().unwrap();
        // After the last swap the final published set is visible.
        let set = board.load("svc").unwrap();
        let msg = Scanner::new().scan("event-199 7");
        assert!(set.match_message(&msg).is_some());
    }
}
