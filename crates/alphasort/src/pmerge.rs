//! Partition planning for the parallel merge.
//!
//! The tournament merge is a single thread — the scaling ceiling once the
//! sort pool and striped IO are wide. Splitter-based range partitioning
//! (Rahn/Sanders/Singler's distributed external sort uses the same recipe)
//! turns it into P embarrassingly parallel merges: sample keys from the
//! sorted runs, pick `P - 1` quantile splitters, and binary-search every
//! run for the splitter boundaries. Range `j` holds exactly the records
//! whose key routes to `j` under [`crate::splitter::route`] — a pure
//! function of the key — so equal keys never straddle ranges, and each
//! per-range merge can keep the run-index tie-break. Concatenating the
//! range outputs in order is therefore *byte-identical* to the serial
//! merge (the oracle tests in `tests/oracle.rs` hold the drivers to that).
//!
//! Planning is generic over a `key_at(run, pos)` probe and the key type,
//! so the same code cuts in-memory runs of either layout ([`MemRun`]: free
//! probes) and scratch runs on striped disks (each probe reads the stride
//! holding the key).

use std::convert::Infallible;

use alphasort_dmgen::KEY_LEN;

use crate::memrun::MemRun;
use crate::splitter::splitters_from_keys;

/// Keys sampled per requested range when planning (the pool is
/// `ranges * SAMPLES_PER_RANGE`, spread over runs by record count).
pub const SAMPLES_PER_RANGE: usize = 32;

/// A partitioned-merge plan: P disjoint key ranges, each cutting every run.
/// `K` is the key type: fixed Datamation keys or var-len byte strings.
#[derive(Clone, Debug)]
pub struct MergePartition<K = [u8; KEY_LEN]> {
    /// The `ranges - 1` quantile splitter keys, ascending.
    pub splitters: Vec<K>,
    /// `bounds[j][r]` = record positions `[start, end)` of range `j`
    /// within sorted run `r`.
    pub bounds: Vec<Vec<(u64, u64)>>,
    /// Records each range holds (feeds the merge-skew stat).
    pub range_records: Vec<u64>,
}

impl<K> MergePartition<K> {
    /// Number of ranges planned.
    pub fn ranges(&self) -> usize {
        self.bounds.len()
    }
}

/// First position in sorted run `run` (length `len`) whose key is not
/// below `key` — the routing boundary, probed via `key_at`.
fn lower_bound<K: Ord, E>(
    run: usize,
    len: u64,
    key: &K,
    key_at: &mut impl FnMut(usize, u64) -> Result<K, E>,
) -> Result<u64, E> {
    let (mut lo, mut hi) = (0u64, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if key_at(run, mid)? < *key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// Plan `ranges` disjoint key ranges over sorted runs of the given
/// lengths, probing keys through `key_at(run, pos)` (`pos` in sorted
/// order). Duplicate splitters (dup-heavy keys) legitimately produce
/// empty ranges; the cover/disjointness invariants hold regardless.
pub fn plan_partitions_with<K: Ord + Clone + Default, E>(
    run_lens: &[u64],
    ranges: usize,
    samples_per_range: usize,
    mut key_at: impl FnMut(usize, u64) -> Result<K, E>,
) -> Result<MergePartition<K>, E> {
    assert!(ranges >= 1, "need at least one range");
    let total: u64 = run_lens.iter().sum();

    // ---- sample: every stride-th record across all runs -------------------
    // Runs are sampled proportionally to their length, so the pooled sample
    // approximates the global key distribution and its quantiles bound the
    // per-range record count (the skew bound in DESIGN.md).
    let mut pool = Vec::new();
    if total > 0 && ranges > 1 {
        let want = (ranges * samples_per_range.max(1)) as u64;
        let stride = (total / want).max(1);
        for (r, &len) in run_lens.iter().enumerate() {
            let mut pos = 0;
            while pos < len {
                pool.push(key_at(r, pos)?);
                pos += stride;
            }
        }
    }
    let splitters = splitters_from_keys(pool, ranges);

    // ---- cut every run at every splitter ----------------------------------
    // Range j = keys with exactly j splitters <= key, so the boundary
    // between ranges j-1 and j within a run is the count of records below
    // splitters[j-1] — a binary search per (run, splitter).
    let mut cuts: Vec<Vec<u64>> = Vec::with_capacity(ranges + 1);
    cuts.push(vec![0; run_lens.len()]);
    for s in &splitters {
        let mut row = Vec::with_capacity(run_lens.len());
        for (r, &len) in run_lens.iter().enumerate() {
            row.push(lower_bound(r, len, s, &mut key_at)?);
        }
        cuts.push(row);
    }
    cuts.push(run_lens.to_vec());

    let mut bounds = Vec::with_capacity(ranges);
    let mut range_records = Vec::with_capacity(ranges);
    for j in 0..ranges {
        let row: Vec<(u64, u64)> = cuts[j]
            .iter()
            .zip(&cuts[j + 1])
            .map(|(&s, &e)| (s, e))
            .collect();
        range_records.push(row.iter().map(|&(s, e)| e - s).sum());
        bounds.push(row);
    }
    Ok(MergePartition {
        splitters,
        bounds,
        range_records,
    })
}

/// Plan over in-memory sorted runs (the one-pass driver's case): probes
/// are free and cannot fail.
pub fn plan_mem_partitions<R: MemRun>(
    runs: &[R],
    ranges: usize,
    samples_per_range: usize,
) -> MergePartition<R::Key> {
    let lens: Vec<u64> = runs.iter().map(|r| r.run_len() as u64).collect();
    plan_partitions_with(&lens, ranges, samples_per_range, |r, pos| {
        Ok::<_, Infallible>(runs[r].sample_key(pos as usize))
    })
    .unwrap_or_else(|e| match e {})
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runform::{form_run, Representation, SortedRun};
    use alphasort_dmgen::{generate, GenConfig, KeyDistribution, RECORD_LEN};

    fn runs_of(n: u64, per_run: usize, dist: KeyDistribution, seed: u64) -> Vec<SortedRun> {
        let (data, _) = generate(GenConfig {
            records: n,
            seed,
            dist,
        });
        data.chunks(per_run * RECORD_LEN)
            .map(|c| form_run(c.to_vec(), Representation::KeyPrefix))
            .collect()
    }

    /// Disjointness + exact cover: within every run the range bounds abut
    /// and concatenate to the whole run.
    fn assert_covering(plan: &MergePartition, lens: &[u64]) {
        for (r, &len) in lens.iter().enumerate() {
            let mut pos = 0;
            for row in &plan.bounds {
                let (s, e) = row[r];
                assert_eq!(s, pos, "gap/overlap in run {r}");
                assert!(s <= e);
                pos = e;
            }
            assert_eq!(pos, len, "run {r} not fully covered");
        }
        let total: u64 = lens.iter().sum();
        assert_eq!(plan.range_records.iter().sum::<u64>(), total);
    }

    #[test]
    fn plan_covers_random_runs() {
        let runs = runs_of(4_000, 333, KeyDistribution::Random, 7);
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        for ranges in [1, 2, 4, 8] {
            let plan = plan_mem_partitions(&runs, ranges, SAMPLES_PER_RANGE);
            assert_eq!(plan.ranges(), ranges);
            assert_eq!(plan.splitters.len(), ranges - 1);
            assert_covering(&plan, &lens);
        }
    }

    #[test]
    fn quantile_splitters_bound_the_skew() {
        let runs = runs_of(20_000, 1_000, KeyDistribution::Random, 11);
        let plan = plan_mem_partitions(&runs, 8, 64);
        let ideal = 20_000.0 / 8.0;
        for &n in &plan.range_records {
            assert!((n as f64) < ideal * 1.6, "range holds {n}");
        }
    }

    #[test]
    fn all_equal_keys_collapse_to_one_nonempty_range() {
        let runs = runs_of(900, 300, KeyDistribution::DupHeavy { cardinality: 1 }, 3);
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        let plan = plan_mem_partitions(&runs, 4, 16);
        assert_covering(&plan, &lens);
        // Duplicate splitters make every range but the last empty: equal
        // keys route right of every equal splitter.
        assert_eq!(plan.range_records[..3], [0, 0, 0]);
        assert_eq!(plan.range_records[3], 900);
    }

    #[test]
    fn empty_and_single_record_runs_are_cut_correctly() {
        let mut runs = runs_of(500, 100, KeyDistribution::Random, 21);
        runs.push(form_run(Vec::new(), Representation::KeyPrefix));
        let one = runs_of(1, 1, KeyDistribution::Random, 22).remove(0);
        runs.push(one);
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        let plan = plan_mem_partitions(&runs, 4, 16);
        assert_covering(&plan, &lens);
    }

    #[test]
    fn zero_runs_plan_is_empty_but_well_formed() {
        let plan = plan_mem_partitions::<SortedRun>(&[], 4, 16);
        assert_eq!(plan.ranges(), 4);
        assert!(plan.bounds.iter().all(Vec::is_empty));
        assert_eq!(plan.range_records, vec![0, 0, 0, 0]);
    }

    #[test]
    fn var_plan_covers_text_runs() {
        use crate::varlen::VarRun;
        use alphasort_dmgen::{generate_varlen, parse_var_record, TextCorpus, VarGenConfig};
        let buf = generate_varlen(VarGenConfig {
            records: 2_000,
            seed: 13,
            corpus: TextCorpus::Urls,
        });
        let mut runs = Vec::new();
        let mut cur = Vec::new();
        let (mut off, mut count) = (0usize, 0usize);
        while off < buf.len() {
            let r = parse_var_record(&buf[off..], off as u64).unwrap();
            cur.extend_from_slice(r.frame());
            off += r.len();
            count += 1;
            if count == 311 {
                runs.push(VarRun::from_frames(std::mem::take(&mut cur)).unwrap());
                count = 0;
            }
        }
        runs.push(VarRun::from_frames(cur).unwrap());
        let lens: Vec<u64> = runs.iter().map(|r| r.len() as u64).collect();
        for ranges in [1, 2, 4, 8] {
            let plan = plan_mem_partitions(&runs, ranges, SAMPLES_PER_RANGE);
            assert_eq!(plan.ranges(), ranges);
            assert_eq!(plan.splitters.len(), ranges - 1);
            // Same cover/disjointness invariant as the fixed-layout plan.
            for (r, &len) in lens.iter().enumerate() {
                let mut pos = 0;
                for row in &plan.bounds {
                    let (s, e) = row[r];
                    assert_eq!(s, pos, "gap/overlap in run {r}");
                    pos = e;
                }
                assert_eq!(pos, len, "run {r} not fully covered");
            }
            assert_eq!(
                plan.range_records.iter().sum::<u64>(),
                lens.iter().sum::<u64>()
            );
        }
    }

    #[test]
    fn probe_errors_propagate() {
        let err = plan_partitions_with(&[10, 10], 4, 8, |_, _| Err::<[u8; 10], _>("probe failed"));
        assert_eq!(err.unwrap_err(), "probe failed");
    }
}
