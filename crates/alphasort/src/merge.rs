//! The merge phase: a small tournament over the QuickSorted runs.
//!
//! "AlphaSort runs a tournament scanning the ten QuickSorted runs of the
//! (key-prefix, pointer) pairs in sequential order, picking the minimum
//! key-prefix among the runs. If there is a tie, it examines the full keys
//! in the records." (§7).
//!
//! The tree has one node per *run* (ten to a hundred, not a million), so
//! its nodes stay cache resident. The keys it compares do not: a run
//! head's key lives in its record, and the records sit in pseudo-random
//! order across megabytes of run buffers. [`RunMerger`] therefore keeps
//! each run head's 8-byte key prefix in a dense `heads` array and
//! compares those; records are read only when two prefixes tie. The
//! prefixes come in blocks of `HEAD_BLOCK` (64) per run: a refill reads
//! the next 64 records of the run's sorted order back to back, so their
//! cache misses overlap, where reading one head per advance would wait on
//! each miss in turn. DESIGN.md "Merge hot loop" has the measurements.
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

/// Upcoming key prefixes cached per run: 512 bytes a run.
const HEAD_BLOCK: usize = 64;

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
    /// Key prefix of each run's head record; `u64::MAX` once the run is
    /// exhausted (a live head with that prefix is told apart on the tie).
    heads: Vec<u64>,
    /// Sorted position of `blocks[r][0]`.
    base: Vec<u32>,
    /// Prefixes of positions `base[r]..` of run `r`, refilled when the
    /// head moves past the block.
    blocks: Vec<[u64; HEAD_BLOCK]>,
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
        let k = runs.len();
        let mut heads = vec![u64::MAX; k];
        let mut blocks = vec![[0; HEAD_BLOCK]; k];
        let mut remaining = 0usize;
        for (r, (run, &(s, e))) in runs.iter().zip(bounds).enumerate() {
            assert!(s <= e && e as usize <= run.len(), "bounds outside run");
            if s < e {
                fill_block(run, s, e, &mut blocks[r]);
                heads[r] = blocks[r][0];
            }
            remaining += (e - s) as usize;
        }
        let pos: Vec<u32> = bounds.iter().map(|&(s, _)| s).collect();
        let end: Vec<u32> = bounds.iter().map(|&(_, e)| e).collect();
        let tree = LoserTree::new(k, |a, b| Self::leaf_less(runs, &heads, &pos, &end, a, b));
        RunMerger {
            runs,
            base: pos.clone(),
            pos,
            end,
            heads,
            blocks,
            tree,
            remaining,
        }
    }

    /// Move run `r`'s head one record on and load its prefix, refilling
    /// the run's block when the head leaves it.
    #[inline]
    fn advance(&mut self, r: usize) {
        let p = self.pos[r] + 1;
        self.pos[r] = p;
        if p == self.end[r] {
            self.heads[r] = u64::MAX;
            return;
        }
        let mut slot = (p - self.base[r]) as usize;
        if slot == HEAD_BLOCK {
            fill_block(&self.runs[r], p, self.end[r], &mut self.blocks[r]);
            self.base[r] = p;
            slot = 0;
        }
        self.heads[r] = self.blocks[r][slot];
    }

    /// Compare run heads: cached prefix first (the cheap integer compare,
    /// no record read), then [`Self::tie_less`].
    #[inline]
    fn leaf_less(
        runs: &[SortedRun],
        heads: &[u64],
        pos: &[u32],
        end: &[u32],
        a: usize,
        b: usize,
    ) -> bool {
        let (ha, hb) = (heads[a], heads[b]);
        if ha != hb {
            return ha < hb;
        }
        Self::tie_less(runs, pos, end, a, b)
    }

    /// Equal prefixes: an exhausted run loses, then the full keys decide,
    /// then the run index, so the merge is deterministic and stable across
    /// runs.
    #[inline(never)]
    fn tie_less(runs: &[SortedRun], pos: &[u32], end: &[u32], a: usize, b: usize) -> bool {
        match (pos[a] < end[a], pos[b] < end[b]) {
            (false, _) => false,
            (true, false) => true,
            (true, true) => {
                let ka = &runs[a].record_at(pos[a] as usize).key;
                let kb = &runs[b].record_at(pos[b] as usize).key;
                if ka != kb {
                    return ka < kb;
                }
                a < b
            }
        }
    }
}

/// Load the prefixes of `run` at sorted positions `from..end`, at most
/// [`HEAD_BLOCK`] of them, into the front of `block`.
#[inline]
fn fill_block(run: &SortedRun, from: u32, end: u32, block: &mut [u64; HEAD_BLOCK]) {
    let n = ((end - from) as usize).min(HEAD_BLOCK);
    run.prefixes_into(from as usize, &mut block[..n]);
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
        self.advance(w);
        self.remaining -= 1;
        let (runs, heads, pos, end) = (self.runs, &self.heads, &self.pos, &self.end);
        self.tree
            .replay(|a, b| Self::leaf_less(runs, heads, pos, end, a, b));
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
