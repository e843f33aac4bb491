//! The merge phase: a small tournament over the QuickSorted runs.
//!
//! "AlphaSort runs a tournament scanning the ten QuickSorted runs of the
//! (key-prefix, pointer) pairs in sequential order, picking the minimum
//! key-prefix among the runs. If there is a tie, it examines the full keys
//! in the records." (§7). Because the tree has one node per *run* — ten to
//! a hundred, not a million — it stays cache resident; the expensive part
//! is the gather that follows ([`crate::gather`]).
//!
//! Two mergers:
//! * [`RunMerger`] — merges in-memory [`SortedRun`]s, yielding (run, pos)
//!   pointer pairs for the gather (one-pass sort).
//! * [`StreamMerger`] — merges record *streams* (two-pass sort's second
//!   pass, where runs come back from scratch disks).

use alphasort_dmgen::Record;

use crate::entry::checked_run_len;
use crate::rs::LoserTree;
use crate::runform::SortedRun;

/// Merged pointer: run index and sorted position within that run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MergedPtr {
    /// Which run the record comes from.
    pub run: u32,
    /// Sorted position within the run.
    pub pos: u32,
}

/// K-way merger over in-memory sorted runs.
///
/// Yields [`MergedPtr`]s in global key order — the "sorted string of record
/// pointers" the workers gather from.
pub struct RunMerger<'a> {
    runs: &'a [SortedRun],
    pos: Vec<u32>,
    /// One-past-the-end sorted position per run; `run.len()` for a full
    /// merge, a partition cut for a range-restricted one.
    end: Vec<u32>,
    tree: LoserTree,
    remaining: usize,
}

impl<'a> RunMerger<'a> {
    /// Start merging `runs` (each already sorted).
    ///
    /// # Panics
    /// If `runs` is empty, or a run exceeds the
    /// [`crate::entry::MAX_RUN_RECORDS`] index ceiling (the bound arrays
    /// hold 32-bit positions; `r.len() as u32` used to wrap here silently).
    pub fn new(runs: &'a [SortedRun]) -> Self {
        let bounds: Vec<(u32, u32)> = runs
            .iter()
            .map(|r| (0, checked_run_len(r.len(), "RunMerger::new run")))
            .collect();
        Self::with_bounds(runs, &bounds)
    }

    /// Merge only `bounds[r] = [start, end)` of each run's sorted order —
    /// one range of a partitioned merge. Equal keys still tie-break by run
    /// index, so concatenating range merges planned by
    /// [`crate::pmerge`] reproduces [`new`](Self::new) byte for byte.
    ///
    /// # Panics
    /// If `runs` is empty, `bounds` and `runs` disagree in length, or a
    /// bound falls outside its run.
    pub fn with_bounds(runs: &'a [SortedRun], bounds: &[(u32, u32)]) -> Self {
        assert!(!runs.is_empty(), "need at least one run to merge");
        assert_eq!(bounds.len(), runs.len(), "one bound pair per run");
        let mut pos = Vec::with_capacity(runs.len());
        let mut end = Vec::with_capacity(runs.len());
        let mut remaining = 0usize;
        for (r, &(s, e)) in runs.iter().zip(bounds) {
            assert!(s <= e && e as usize <= r.len(), "bounds outside run");
            pos.push(s);
            end.push(e);
            remaining += (e - s) as usize;
        }
        let tree = LoserTree::new(runs.len(), |a, b| Self::leaf_less(runs, &pos, &end, a, b));
        RunMerger {
            runs,
            pos,
            end,
            tree,
            remaining,
        }
    }

    /// Compare run heads: prefix first (the cheap integer compare), full key
    /// on ties, run index last so the merge is deterministic and stable
    /// across runs.
    #[inline]
    fn leaf_less(runs: &[SortedRun], pos: &[u32], end: &[u32], a: usize, b: usize) -> bool {
        let (pa, pb) = (pos[a] as usize, pos[b] as usize);
        let a_live = pos[a] < end[a];
        let b_live = pos[b] < end[b];
        match (a_live, b_live) {
            (false, _) => false,
            (true, false) => true,
            (true, true) => {
                let ra = runs[a].record_at(pa);
                let rb = runs[b].record_at(pb);
                let (fa, fb) = (ra.prefix(), rb.prefix());
                if fa != fb {
                    return fa < fb;
                }
                if ra.key != rb.key {
                    return ra.key < rb.key;
                }
                a < b
            }
        }
    }
}

impl Iterator for RunMerger<'_> {
    type Item = MergedPtr;

    fn next(&mut self) -> Option<MergedPtr> {
        if self.remaining == 0 {
            return None;
        }
        let w = self.tree.winner();
        let out = MergedPtr {
            run: w as u32,
            pos: self.pos[w],
        };
        self.pos[w] += 1;
        self.remaining -= 1;
        let (runs, pos, end) = (self.runs, &self.pos, &self.end);
        self.tree
            .replay(|a, b| Self::leaf_less(runs, pos, end, a, b));
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

/// A stream of key-ascending records (one run coming back from disk).
pub trait RunStream {
    /// The record at the head of the stream, or `None` when exhausted.
    fn head(&self) -> Option<&Record>;
    /// Discard the head and expose the next record.
    ///
    /// IO-backed implementations surface read errors here.
    fn advance(&mut self) -> std::io::Result<()>;
}

/// A [`RunStream`] over an in-memory record slice (tests and small merges).
pub struct SliceStream<'a> {
    records: &'a [Record],
    pos: usize,
}

impl<'a> SliceStream<'a> {
    /// Stream over `records` (must be key-ascending).
    pub fn new(records: &'a [Record]) -> Self {
        SliceStream { records, pos: 0 }
    }
}

impl RunStream for SliceStream<'_> {
    fn head(&self) -> Option<&Record> {
        self.records.get(self.pos)
    }

    fn advance(&mut self) -> std::io::Result<()> {
        self.pos += 1;
        Ok(())
    }
}

/// K-way merger over record streams.
pub struct StreamMerger<S: RunStream> {
    streams: Vec<S>,
    tree: LoserTree,
}

impl<S: RunStream> StreamMerger<S> {
    /// Start merging `streams` (each key-ascending).
    ///
    /// # Panics
    /// If `streams` is empty.
    pub fn new(streams: Vec<S>) -> Self {
        assert!(!streams.is_empty(), "need at least one stream to merge");
        let tree = LoserTree::new(streams.len(), |a, b| Self::leaf_less(&streams, a, b));
        StreamMerger { streams, tree }
    }

    #[inline]
    fn leaf_less(streams: &[S], a: usize, b: usize) -> bool {
        match (streams[a].head(), streams[b].head()) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(ra), Some(rb)) => {
                let (fa, fb) = (ra.prefix(), rb.prefix());
                if fa != fb {
                    return fa < fb;
                }
                if ra.key != rb.key {
                    return ra.key < rb.key;
                }
                a < b
            }
        }
    }

    /// Pop the next record in global key order.
    pub fn next_record(&mut self) -> std::io::Result<Option<Record>> {
        let w = self.tree.winner();
        let out = match self.streams[w].head() {
            None => return Ok(None),
            Some(r) => *r,
        };
        self.streams[w].advance()?;
        let streams = &self.streams;
        self.tree.replay(|a, b| Self::leaf_less(streams, a, b));
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runform::{form_run, Representation};
    use alphasort_dmgen::{generate, records_of, GenConfig, KeyDistribution, RECORD_LEN};

    fn make_runs(n: u64, run_records: usize, dist: KeyDistribution) -> (Vec<u8>, Vec<SortedRun>) {
        let (data, _) = generate(GenConfig {
            records: n,
            seed: 4242,
            dist,
        });
        let runs = data
            .chunks(run_records * RECORD_LEN)
            .map(|c| form_run(c.to_vec(), Representation::KeyPrefix))
            .collect();
        (data, runs)
    }

    #[test]
    fn merge_produces_global_key_order() {
        let (_, runs) = make_runs(3_000, 250, KeyDistribution::Random);
        assert_eq!(runs.len(), 12);
        let merged: Vec<MergedPtr> = RunMerger::new(&runs).collect();
        assert_eq!(merged.len(), 3_000);
        let mut prev: Option<[u8; 10]> = None;
        for p in &merged {
            let k = runs[p.run as usize].record_at(p.pos as usize).key;
            if let Some(pk) = prev {
                assert!(pk <= k, "merge out of order");
            }
            prev = Some(k);
        }
    }

    #[test]
    fn merge_emits_each_pointer_once() {
        let (_, runs) = make_runs(1_000, 99, KeyDistribution::Random);
        let mut seen = std::collections::HashSet::new();
        for p in RunMerger::new(&runs) {
            assert!(seen.insert((p.run, p.pos)), "duplicate pointer {p:?}");
        }
        assert_eq!(seen.len(), 1_000);
    }

    #[test]
    fn merge_single_run_is_identity() {
        let (_, runs) = make_runs(500, 500, KeyDistribution::Random);
        assert_eq!(runs.len(), 1);
        let merged: Vec<MergedPtr> = RunMerger::new(&runs).collect();
        for (i, p) in merged.iter().enumerate() {
            assert_eq!((p.run, p.pos as usize), (0, i));
        }
    }

    #[test]
    fn merge_handles_duplicate_keys_with_run_stability() {
        let (_, runs) = make_runs(2_000, 100, KeyDistribution::DupHeavy { cardinality: 5 });
        let merged: Vec<MergedPtr> = RunMerger::new(&runs).collect();
        // On equal keys, lower run index must come first.
        for w in merged.windows(2) {
            let ka = runs[w[0].run as usize].record_at(w[0].pos as usize).key;
            let kb = runs[w[1].run as usize].record_at(w[1].pos as usize).key;
            if ka == kb && w[0].run != w[1].run {
                assert!(w[0].run < w[1].run, "tie broken against run order");
            }
        }
    }

    #[test]
    fn merge_uneven_run_lengths() {
        // 10 runs of wildly different sizes, including empty-ish tails.
        let (data, _) = generate(GenConfig::datamation(1_000, 5));
        let mut runs = Vec::new();
        let mut off = 0;
        for (i, size) in [1usize, 499, 10, 200, 90, 100, 50, 25, 20, 5]
            .iter()
            .enumerate()
        {
            let bytes = size * RECORD_LEN;
            runs.push(form_run(
                data[off..off + bytes].to_vec(),
                if i % 2 == 0 {
                    Representation::Record
                } else {
                    Representation::KeyPrefix
                },
            ));
            off += bytes;
        }
        let merged: Vec<MergedPtr> = RunMerger::new(&runs).collect();
        assert_eq!(merged.len(), 1_000);
        let keys: Vec<[u8; 10]> = merged
            .iter()
            .map(|p| runs[p.run as usize].record_at(p.pos as usize).key)
            .collect();
        assert!(keys.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn bounded_merges_concatenate_to_the_full_merge() {
        let (_, runs) = make_runs(2_000, 170, KeyDistribution::DupHeavy { cardinality: 9 });
        let full: Vec<MergedPtr> = RunMerger::new(&runs).collect();
        let plan = crate::pmerge::plan_mem_partitions(&runs, 4, 16);
        let mut cat = Vec::new();
        for row in &plan.bounds {
            let b: Vec<(u32, u32)> = row.iter().map(|&(s, e)| (s as u32, e as u32)).collect();
            cat.extend(RunMerger::with_bounds(&runs, &b));
        }
        // Pointer-for-pointer identical: the partition respects both key
        // order and the run-index tie-break.
        assert_eq!(cat, full);
    }

    #[test]
    fn empty_bounds_yield_nothing() {
        let (_, runs) = make_runs(300, 100, KeyDistribution::Random);
        let bounds: Vec<(u32, u32)> = runs.iter().map(|_| (0, 0)).collect();
        assert_eq!(RunMerger::with_bounds(&runs, &bounds).count(), 0);
    }

    #[test]
    fn stream_merger_matches_run_merger() {
        let (data, _) = generate(GenConfig::datamation(1_200, 6));
        let records = records_of(&data);
        let mut sorted_runs: Vec<Vec<Record>> = records
            .chunks(100)
            .map(|c| {
                let mut v = c.to_vec();
                v.sort_by_key(|a| a.key);
                v
            })
            .collect();
        sorted_runs.push(Vec::new()); // an empty stream must be harmless

        let streams: Vec<SliceStream> = sorted_runs.iter().map(|r| SliceStream::new(r)).collect();
        let mut m = StreamMerger::new(streams);
        let mut out = Vec::new();
        while let Some(r) = m.next_record().unwrap() {
            out.push(r);
        }
        assert_eq!(out.len(), 1_200);
        assert!(out.windows(2).all(|w| w[0].key <= w[1].key));
    }
}
