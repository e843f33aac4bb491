//! Tournament trees and replacement-selection.
//!
//! Replacement-selection is the classical run-generation algorithm
//! (Knuth, *Sorting and Searching*): a tournament of W records; the winner
//! is emitted, its slot refilled from input, and the path to the root
//! replayed. On random input the runs come out ≈2 W long, and "the
//! worst-case behavior is very close to its average behavior" (§4). The
//! paper *rejects* it for run formation because each replay walks a
//! pseudo-random leaf-to-root path with poor cache locality, and measures
//! QuickSort ~2.5× faster — but keeps a small tournament for the *merge*
//! phase where the tree fits in cache.
//!
//! [`LoserTree`] is that tournament, used both by [`ReplacementSelection`]
//! here and by the merge in [`crate::merge`].

use alphasort_dmgen::Record;

/// A tournament ("loser") tree over `k` external items.
///
/// The tree stores only leaf *indices*; the caller owns the items and
/// supplies a `less(a, b)` predicate over leaf indices. Exhausted leaves are
/// expressed by the predicate (an exhausted leaf must lose to everything).
///
/// After changing the winner's item, call [`LoserTree::replay`] — O(log k)
/// and touching only the root path, which is the cache-friendly property
/// the merge phase relies on.
pub struct LoserTree {
    /// Padded leaf count (power of two); leaves ≥ `k` are virtual +∞.
    cap: usize,
    k: usize,
    /// Internal nodes 1..cap: the loser of the match at that node.
    loser: Vec<u32>,
    winner: u32,
}

impl LoserTree {
    /// Build the tournament over `k` leaves with the given predicate.
    ///
    /// # Panics
    /// If `k == 0`.
    pub fn new<F: FnMut(usize, usize) -> bool>(k: usize, mut less: F) -> Self {
        assert!(k > 0, "tournament needs at least one leaf");
        let cap = k.next_power_of_two();
        let mut loser = vec![u32::MAX; cap.max(1)];
        // Bottom-up bracket: winners[i] for internal node i (1-based heap).
        let mut winners = vec![u32::MAX; 2 * cap];
        for leaf in 0..cap {
            winners[cap + leaf] = leaf as u32;
        }
        let mut beats = |a: u32, b: u32| -> bool {
            let (a, b) = (a as usize, b as usize);
            if a >= k {
                return false; // virtual +∞ never wins
            }
            if b >= k {
                return true;
            }
            less(a, b)
        };
        for i in (1..cap).rev() {
            let (a, b) = (winners[2 * i], winners[2 * i + 1]);
            if beats(a, b) {
                winners[i] = a;
                loser[i] = b;
            } else {
                winners[i] = b;
                loser[i] = a;
            }
        }
        let winner = if cap == 1 { 0 } else { winners[1] };
        LoserTree {
            cap,
            k,
            loser,
            winner,
        }
    }

    /// Number of real leaves.
    pub fn len(&self) -> usize {
        self.k
    }

    /// Always false (a tree has at least one leaf).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The current winning leaf. The caller decides whether its item is
    /// exhausted (the tree does not know).
    pub fn winner(&self) -> usize {
        self.winner as usize
    }

    /// Replay the winner's root path after its item changed.
    pub fn replay<F: FnMut(usize, usize) -> bool>(&mut self, mut less: F) {
        let mut beats = |a: u32, b: u32| -> bool {
            let (a, b) = (a as usize, b as usize);
            if a >= self.k {
                return false;
            }
            if b >= self.k {
                return true;
            }
            less(a, b)
        };
        let mut s = self.winner;
        let mut t = (self.cap + s as usize) / 2;
        while t >= 1 {
            if beats(self.loser[t], s) {
                core::mem::swap(&mut self.loser[t], &mut s);
            }
            if t == 1 {
                break;
            }
            t /= 2;
        }
        self.winner = s;
    }
}

/// One tournament slot: the record plus its run tag and arrival number.
#[derive(Clone, Copy)]
struct Slot {
    /// Run this record will be emitted into; `u64::MAX` marks exhausted.
    run: u64,
    /// Arrival sequence, for stable tie-breaking.
    seq: u64,
    record: Record,
}

/// Streaming replacement-selection over an iterator of records.
///
/// Yields `(run_id, record)` pairs; `run_id` is non-decreasing and records
/// within a run are key-ascending. Stable: equal keys keep arrival order.
pub struct ReplacementSelection<I: Iterator<Item = Record>> {
    input: I,
    slots: Vec<Slot>,
    tree: LoserTree,
    next_seq: u64,
    done: bool,
}

impl<I: Iterator<Item = Record>> ReplacementSelection<I> {
    /// Start with a tournament of `capacity` records (the "memory size").
    ///
    /// # Panics
    /// If `capacity == 0`.
    pub fn new(mut input: I, capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        let mut slots = Vec::with_capacity(capacity);
        let mut next_seq = 0u64;
        for _ in 0..capacity {
            match input.next() {
                Some(record) => {
                    slots.push(Slot {
                        run: 0,
                        seq: next_seq,
                        record,
                    });
                    next_seq += 1;
                }
                None => break,
            }
        }
        if slots.is_empty() {
            // Keep the tree well-formed with one exhausted slot.
            slots.push(Slot {
                run: u64::MAX,
                seq: 0,
                record: Record::ZERO,
            });
        }
        let tree = {
            let s = &slots;
            LoserTree::new(s.len(), |a, b| slot_less(&s[a], &s[b]))
        };
        ReplacementSelection {
            input,
            slots,
            tree,
            next_seq,
            done: false,
        }
    }
}

#[inline]
fn slot_less(a: &Slot, b: &Slot) -> bool {
    // Order by (run, key, arrival): the run tag dominates so the tournament
    // finishes the current run before starting the next.
    (a.run, &a.record.key, a.seq) < (b.run, &b.record.key, b.seq)
}

impl<I: Iterator<Item = Record>> Iterator for ReplacementSelection<I> {
    type Item = (u64, Record);

    fn next(&mut self) -> Option<(u64, Record)> {
        if self.done {
            return None;
        }
        let w = self.tree.winner();
        let out = self.slots[w];
        if out.run == u64::MAX {
            self.done = true;
            return None;
        }
        // Refill the winning slot from input.
        match self.input.next() {
            Some(record) => {
                // A replacement smaller than the record just emitted cannot
                // join the current run; tag it for the next one.
                let run = if record.key < out.record.key {
                    out.run + 1
                } else {
                    out.run
                };
                self.slots[w] = Slot {
                    run,
                    seq: self.next_seq,
                    record,
                };
                self.next_seq += 1;
            }
            None => {
                self.slots[w].run = u64::MAX;
            }
        }
        let slots = &self.slots;
        self.tree.replay(|a, b| slot_less(&slots[a], &slots[b]));
        Some((out.run, out.record))
    }
}

/// Batch helper: run replacement-selection over `input` with the given
/// tournament capacity and return the generated runs.
pub fn generate_runs(input: &[Record], capacity: usize) -> Vec<Vec<Record>> {
    let mut runs: Vec<Vec<Record>> = Vec::new();
    for (run, record) in ReplacementSelection::new(input.iter().copied(), capacity) {
        let run = run as usize;
        if run >= runs.len() {
            runs.resize_with(run + 1, Vec::new);
        }
        runs[run].push(record);
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate, records_of, GenConfig, KeyDistribution};

    #[test]
    fn loser_tree_emits_sorted_sequence() {
        // Merge by repeatedly taking the winner of a static value array,
        // marking taken values exhausted.
        let vals = [5u32, 1, 4, 1, 5, 9, 2, 6, 5, 3];
        let mut taken = vec![false; vals.len()];
        let mut tree = LoserTree::new(vals.len(), |a, b| match (taken[a], taken[b]) {
            (true, _) => false,
            (false, true) => true,
            (false, false) => (vals[a], a) < (vals[b], b),
        });
        let mut out = Vec::new();
        for _ in 0..vals.len() {
            let w = tree.winner();
            out.push(vals[w]);
            taken[w] = true;
            tree.replay(|a, b| match (taken[a], taken[b]) {
                (true, _) => false,
                (false, true) => true,
                (false, false) => (vals[a], a) < (vals[b], b),
            });
        }
        let mut expect = vals.to_vec();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn loser_tree_single_leaf() {
        let tree = LoserTree::new(1, |_, _| false);
        assert_eq!(tree.winner(), 0);
    }

    #[test]
    fn loser_tree_non_power_of_two() {
        for k in [2usize, 3, 5, 6, 7, 9, 13] {
            let vals: Vec<u32> = (0..k as u32).rev().collect();
            let mut taken = vec![false; k];
            let cmp = |taken: &Vec<bool>, a: usize, b: usize| match (taken[a], taken[b]) {
                (true, _) => false,
                (false, true) => true,
                (false, false) => vals[a] < vals[b],
            };
            let mut tree = LoserTree::new(k, |a, b| cmp(&taken, a, b));
            let mut out = Vec::new();
            for _ in 0..k {
                let w = tree.winner();
                out.push(vals[w]);
                taken[w] = true;
                tree.replay(|a, b| cmp(&taken, a, b));
            }
            assert!(out.windows(2).all(|w| w[0] < w[1]), "k={k}: {out:?}");
        }
    }

    fn records(n: u64, dist: KeyDistribution) -> Vec<Record> {
        let (data, _) = generate(GenConfig {
            records: n,
            seed: 777,
            dist,
        });
        records_of(&data).to_vec()
    }

    #[test]
    fn runs_are_sorted_and_cover_input() {
        let input = records(5_000, KeyDistribution::Random);
        let runs = generate_runs(&input, 100);
        let total: usize = runs.iter().map(|r| r.len()).sum();
        assert_eq!(total, 5_000);
        for run in &runs {
            assert!(run.windows(2).all(|w| w[0].key <= w[1].key));
        }
    }

    #[test]
    fn random_input_runs_average_twice_memory() {
        // Knuth's classic result, quoted in §4: replacement-selection
        // "generates runs twice as large as memory" on average.
        let input = records(20_000, KeyDistribution::Random);
        let capacity = 200;
        let runs = generate_runs(&input, capacity);
        let avg = 20_000.0 / runs.len() as f64;
        assert!(
            (avg / capacity as f64 - 2.0).abs() < 0.35,
            "avg run length {avg} vs capacity {capacity} ({} runs)",
            runs.len()
        );
    }

    #[test]
    fn sorted_input_yields_one_run() {
        let input = records(3_000, KeyDistribution::Sorted);
        let runs = generate_runs(&input, 50);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].len(), 3_000);
    }

    #[test]
    fn reverse_input_yields_memory_sized_runs() {
        // Worst case: every replacement starts a new run, so each run is
        // exactly the tournament size.
        let input = records(1_000, KeyDistribution::Reverse);
        let runs = generate_runs(&input, 50);
        assert_eq!(runs.len(), 20);
        assert!(runs.iter().all(|r| r.len() == 50));
    }

    #[test]
    fn stable_for_equal_keys() {
        let input = records(2_000, KeyDistribution::DupHeavy { cardinality: 3 });
        let runs = generate_runs(&input, 64);
        // Within each run, equal keys must appear in arrival order.
        for run in &runs {
            for w in run.windows(2) {
                if w[0].key == w[1].key {
                    assert!(w[0].seq() < w[1].seq(), "stability violated");
                }
            }
        }
    }

    #[test]
    fn capacity_larger_than_input_gives_single_sorted_run() {
        let input = records(100, KeyDistribution::Random);
        let runs = generate_runs(&input, 1_000);
        assert_eq!(runs.len(), 1);
        assert!(runs[0].windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn empty_input_yields_no_runs() {
        let runs = generate_runs(&[], 10);
        assert!(runs.is_empty());
    }
}
