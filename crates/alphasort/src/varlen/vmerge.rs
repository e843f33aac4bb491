//! LCP/OVC-aware merging of variable-length runs.
//!
//! The var-len counterpart of [`crate::merge::RunMerger`], with the
//! offset-value coding of [`crate::ovc`] threaded through the loser tree:
//! every head carries `off[h]` = exact LCP of its key with the **last
//! emitted key** (the base). Since every live head is ≥ the base,
//!
//! * `off[a] > off[b]`  ⇒  `key_a < key_b` — no byte compares at all;
//! * equal offsets compare bytes only from the offset onward, so tree
//!   replay skips the common prefix instead of rescanning it.
//!
//! After emitting a winner, other heads re-code for free by the `min` rule
//! when their offset differs from the winner's old offset; equal-offset
//! heads extend by scanning from the offset. The winner's *successor*
//! codes against its in-run predecessor — exactly the record just emitted —
//! so its offset is the [`VarRun::lcp_with_prev`] table lookup computed at
//! run formation: O(1), no rescan.
//!
//! [`MergeMode::Naive`] runs the same tournament with whole-key compares;
//! [`MergeEffort`] counts both, so benchmarks can show the shared-prefix
//! corpora where OVC wins (and the random-key corpora where the paper
//! predicts it will not).

use crate::entry::checked_run_len;
use crate::merge::MergedPtr;
use crate::ovc::MergeEffort;
use crate::rs::LoserTree;
use crate::varlen::vrun::VarRun;

/// How head-to-head comparisons resolve.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum MergeMode {
    /// Offset-value coded: compare offsets, then only the key suffix.
    #[default]
    Ovc,
    /// Whole-key byte compares (the baseline OVC is judged against).
    Naive,
}

/// Compare two key suffixes from byte `from`, counting examined bytes.
/// Exhaustion order: a key that runs out first is the smaller (a strict
/// prefix sorts before its extensions); both out ⇒ equal.
#[inline]
fn suffix_less(
    ka: &[u8],
    kb: &[u8],
    from: usize,
    tie: bool,
    effort: &mut MergeEffort,
) -> bool {
    let mut i = from;
    loop {
        match (ka.get(i), kb.get(i)) {
            (None, None) => return tie,
            (None, Some(_)) => return true,
            (Some(_), None) => return false,
            (Some(&x), Some(&y)) => {
                effort.key_bytes += 2;
                if x != y {
                    return x < y;
                }
            }
        }
        i += 1;
    }
}

/// Head comparison shared by construction and replay. `tie` outcomes break
/// toward the lower leaf index, which is run order — the stability rule.
#[allow(clippy::too_many_arguments)]
#[inline]
fn leaf_less(
    runs: &[&VarRun],
    pos: &[u32],
    end: &[u32],
    off: &[u32],
    mode: MergeMode,
    effort: &mut MergeEffort,
    a: usize,
    b: usize,
) -> bool {
    let a_live = pos[a] < end[a];
    let b_live = pos[b] < end[b];
    match (a_live, b_live) {
        (false, _) => false,
        (true, false) => true,
        (true, true) => {
            effort.compares += 1;
            let ka = runs[a].key_at(pos[a] as usize);
            let kb = runs[b].key_at(pos[b] as usize);
            match mode {
                MergeMode::Naive => suffix_less(ka, kb, 0, a < b, effort),
                MergeMode::Ovc => {
                    let (oa, ob) = (off[a], off[b]);
                    if oa != ob {
                        // Deeper agreement with the base ⇒ smaller key.
                        return oa > ob;
                    }
                    suffix_less(ka, kb, oa as usize, a < b, effort)
                }
            }
        }
    }
}

/// K-way merger over in-memory [`VarRun`]s, yielding [`MergedPtr`]s in
/// global key order — the var-len [`crate::merge::RunMerger`].
pub struct VarRunMerger<'a> {
    runs: Vec<&'a VarRun>,
    pos: Vec<u32>,
    end: Vec<u32>,
    /// `off[h]` = exact LCP of head `h`'s key with the last emitted key.
    off: Vec<u32>,
    tree: LoserTree,
    mode: MergeMode,
    remaining: usize,
    /// Comparison-effort counters (built up across the whole merge).
    pub effort: MergeEffort,
}

impl<'a> VarRunMerger<'a> {
    /// Merge whole runs.
    ///
    /// # Panics
    /// If `runs` is empty or a run exceeds the 32-bit index ceiling.
    pub fn new(runs: Vec<&'a VarRun>, mode: MergeMode) -> Self {
        let bounds: Vec<(u32, u32)> = runs
            .iter()
            .map(|r| (0, checked_run_len(r.len(), "VarRunMerger::new run")))
            .collect();
        Self::with_bounds(runs, &bounds, mode)
    }

    /// Merge only `bounds[r] = [start, end)` of each run's sorted order —
    /// one range of a partitioned merge. Equal keys still tie-break by run
    /// index, so concatenating range merges planned by
    /// [`crate::pmerge::plan_partitions_with`] reproduces the serial
    /// merge byte for byte.
    pub fn with_bounds(runs: Vec<&'a VarRun>, bounds: &[(u32, u32)], mode: MergeMode) -> Self {
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
        // No base yet: lcp(anything, nothing) = 0 exactly, so equal-offset
        // comparisons scan from byte 0 — plain full-key compares until the
        // first record is emitted.
        let off = vec![0u32; runs.len()];
        let mut effort = MergeEffort::default();
        let tree = LoserTree::new(runs.len(), |a, b| {
            leaf_less(&runs, &pos, &end, &off, mode, &mut effort, a, b)
        });
        VarRunMerger {
            runs,
            pos,
            end,
            off,
            tree,
            mode,
            remaining,
            effort,
        }
    }
}

impl Iterator for VarRunMerger<'_> {
    type Item = MergedPtr;

    fn next(&mut self) -> Option<MergedPtr> {
        if self.remaining == 0 {
            return None;
        }
        let Self {
            runs,
            pos,
            end,
            off,
            tree,
            mode,
            remaining,
            effort,
        } = self;
        let w = tree.winner();
        let emitted = pos[w] as usize;
        let out = MergedPtr {
            run: w as u32,
            pos: pos[w],
        };
        let w_off = off[w] as usize;
        pos[w] += 1;
        *remaining -= 1;

        if *mode == MergeMode::Ovc {
            let base = runs[w].key_at(emitted);
            // Re-code every other live head against the new base: the min
            // rule is free; equal-offset heads extend by scanning from the
            // old shared offset (they agree with the new base at least that
            // far, since both agreed with the old base exactly that far).
            for h in 0..runs.len() {
                if h == w || pos[h] >= end[h] {
                    continue;
                }
                let o = off[h] as usize;
                if o != w_off {
                    off[h] = off[h].min(w_off as u32);
                } else {
                    let hk = runs[h].key_at(pos[h] as usize);
                    let n = hk.len().min(base.len());
                    let mut i = w_off;
                    while i < n {
                        effort.key_bytes += 1;
                        if hk[i] != base[i] {
                            break;
                        }
                        i += 1;
                    }
                    off[h] = i as u32;
                }
            }
            // The winner's successor codes against its in-run predecessor —
            // the record just emitted — which run formation precomputed.
            if pos[w] < end[w] {
                off[w] = runs[w].lcp_with_prev(pos[w] as usize) as u32;
            }
        }
        tree.replay(|a, b| leaf_less(runs, pos, end, off, *mode, effort, a, b));
        Some(out)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_dmgen::{generate_varlen, parse_var_record, var_records_of, TextCorpus, VarGenConfig};

    fn runs_of(corpus: TextCorpus, n: u64, per: usize, seed: u64) -> (Vec<u8>, Vec<VarRun>) {
        let buf = generate_varlen(VarGenConfig {
            records: n,
            seed,
            corpus,
        });
        let mut runs = Vec::new();
        let mut cur = Vec::new();
        let mut count = 0usize;
        let mut off = 0usize;
        while off < buf.len() {
            let r = parse_var_record(&buf[off..], off as u64).unwrap();
            cur.extend_from_slice(r.frame());
            off += r.len();
            count += 1;
            if count == per {
                runs.push(VarRun::from_frames(std::mem::take(&mut cur)).unwrap());
                count = 0;
            }
        }
        if !cur.is_empty() {
            runs.push(VarRun::from_frames(cur).unwrap());
        }
        (buf, runs)
    }

    fn stable_reference(buf: &[u8]) -> Vec<u8> {
        let recs = var_records_of(buf).unwrap();
        let mut idx: Vec<usize> = (0..recs.len()).collect();
        idx.sort_by(|&a, &b| recs[a].key().cmp(recs[b].key()));
        let mut out = Vec::with_capacity(buf.len());
        for i in idx {
            out.extend_from_slice(recs[i].frame());
        }
        out
    }

    fn merged_bytes(runs: &[VarRun], mode: MergeMode) -> (Vec<u8>, MergeEffort) {
        let mut m = VarRunMerger::new(runs.iter().collect(), mode);
        let mut out = Vec::new();
        for p in &mut m {
            // Cannot hold the borrow across iterations; re-resolve.
            out.push(p);
        }
        let mut bytes = Vec::new();
        for p in out {
            bytes.extend_from_slice(runs[p.run as usize].frame_at(p.pos as usize));
        }
        (bytes, m.effort)
    }

    #[test]
    fn ovc_merge_matches_stable_sort_on_every_corpus() {
        for corpus in TextCorpus::ALL {
            let (buf, runs) = runs_of(corpus, 600, 140, 0x3D);
            let (got, _) = merged_bytes(&runs, MergeMode::Ovc);
            assert_eq!(got, stable_reference(&buf), "{}", corpus.name());
            let (naive, _) = merged_bytes(&runs, MergeMode::Naive);
            assert_eq!(naive, got, "{} naive diverged", corpus.name());
        }
    }

    #[test]
    fn ovc_saves_bytes_on_shared_prefixes() {
        let (_, runs) = runs_of(
            TextCorpus::SharedMegaPrefix {
                prefix: 48,
                suffix: 8,
            },
            2_000,
            250,
            5,
        );
        let (_, ovc) = merged_bytes(&runs, MergeMode::Ovc);
        let (_, naive) = merged_bytes(&runs, MergeMode::Naive);
        assert!(
            ovc.key_bytes * 4 < naive.key_bytes,
            "ovc {} vs naive {}",
            ovc.key_bytes,
            naive.key_bytes
        );
    }

    #[test]
    fn bounded_merges_concatenate_to_the_full_merge() {
        let (_, runs) = runs_of(TextCorpus::ZipfianWords { max_words: 3 }, 900, 130, 2);
        let refs: Vec<&VarRun> = runs.iter().collect();
        let full: Vec<MergedPtr> =
            VarRunMerger::new(refs.clone(), MergeMode::Ovc).collect();
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        let plan = crate::pmerge::plan_partitions_with(&lens, 4, 16, |r, pos| {
            Ok::<_, std::convert::Infallible>(runs[r].key_at(pos as usize).to_vec())
        })
        .unwrap();
        let mut cat = Vec::new();
        for row in &plan.bounds {
            let b: Vec<(u32, u32)> = row.iter().map(|&(s, e)| (s as u32, e as u32)).collect();
            cat.extend(VarRunMerger::with_bounds(refs.clone(), &b, MergeMode::Ovc));
        }
        assert_eq!(cat, full);
    }

    #[test]
    fn single_run_and_empty_runs() {
        let (buf, runs) = runs_of(TextCorpus::Urls, 100, 100, 8);
        let (got, _) = merged_bytes(&runs, MergeMode::Ovc);
        assert_eq!(got, stable_reference(&buf));
        let empty = VarRun::from_frames(Vec::new()).unwrap();
        let with_empty = vec![&runs[0], &empty];
        let merged: Vec<MergedPtr> = VarRunMerger::new(with_empty, MergeMode::Ovc).collect();
        assert_eq!(merged.len(), 100);
    }
}
