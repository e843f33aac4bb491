//! The merge's head cache at its edges.
//!
//! `RunMerger` compares cached run-head key prefixes and refills them in
//! blocks of 64 per run, starting at each run's bound start. These cases
//! put block boundaries, bound starts and prefix ties exactly where a
//! cursor or refill slip would show:
//!
//! * run lengths 1, 63, 64, 65 and 129 (one short of, at, and past one and
//!   two blocks);
//! * bounds starting at 1, 63 and 64, so refills begin mid-run and a block
//!   boundary lands mid-block relative to position 0;
//! * keys sharing 8 or 9 bytes, where every prefix compare ties and the
//!   full key (or run index) must decide, plus duplicate-heavy and random
//!   keys.
//!
//! Every merge is checked pointer for pointer against a stable sort of the
//! same pointers by key, and the gathered bytes against a stable sort of
//! the input records.

use alphasort_core::gather::gather_into;
use alphasort_core::merge::{MergedPtr, RunMerger};
use alphasort_core::pmerge::{plan_mem_partitions, SAMPLES_PER_RANGE};
use alphasort_core::runform::{form_run, Representation, SortedRun};
use alphasort_dmgen::{generate, records_of, GenConfig, KeyDistribution, RECORD_LEN};

const LENGTHS: [usize; 5] = [1, 63, 64, 65, 129];

const DISTS: [KeyDistribution; 4] = [
    KeyDistribution::CommonPrefix { shared: 8 },
    KeyDistribution::CommonPrefix { shared: 9 },
    KeyDistribution::DupHeavy { cardinality: 3 },
    KeyDistribution::Random,
];

/// The run-length mixes: each edge length on its own (five runs of it),
/// then all of them together.
fn length_sets() -> Vec<Vec<usize>> {
    let mut sets: Vec<Vec<usize>> = LENGTHS.iter().map(|&l| vec![l; 5]).collect();
    sets.push(vec![129, 1, 64, 65, 63, 129, 64, 1]);
    sets
}

/// Generate `lens.iter().sum()` records and cut them into key-prefix runs
/// of the given lengths. Returns the input bytes too.
fn runs_of(lens: &[usize], dist: KeyDistribution, seed: u64) -> (Vec<u8>, Vec<SortedRun>) {
    runs_as(lens, dist, seed, Representation::KeyPrefix)
}

fn runs_as(
    lens: &[usize],
    dist: KeyDistribution,
    seed: u64,
    rep: Representation,
) -> (Vec<u8>, Vec<SortedRun>) {
    let (data, _) = generate(GenConfig {
        records: lens.iter().sum::<usize>() as u64,
        seed,
        dist,
    });
    let mut runs = Vec::with_capacity(lens.len());
    let mut off = 0;
    for &len in lens {
        let bytes = len * RECORD_LEN;
        runs.push(form_run(data[off..off + bytes].to_vec(), rep));
        off += bytes;
    }
    (data, runs)
}

/// The reference: every pointer inside `bounds`, in (run, pos) order,
/// stable-sorted by key. Runs are key-sorted and equal keys keep (run,
/// pos) order, which is exactly the merge's tie-break.
fn reference(runs: &[SortedRun], bounds: &[(u32, u32)]) -> Vec<MergedPtr> {
    let mut ptrs: Vec<MergedPtr> = bounds
        .iter()
        .enumerate()
        .flat_map(|(run, &(s, e))| {
            (s..e).map(move |pos| MergedPtr {
                run: run as u32,
                pos,
            })
        })
        .collect();
    ptrs.sort_by_key(|p| runs[p.run as usize].record_at(p.pos as usize).key);
    ptrs
}

fn full_bounds(runs: &[SortedRun]) -> Vec<(u32, u32)> {
    runs.iter().map(|r| (0, r.len() as u32)).collect()
}

fn gathered(runs: &[SortedRun], ptrs: &[MergedPtr]) -> Vec<u8> {
    let mut out = Vec::new();
    gather_into(runs, ptrs, &mut out);
    out
}

/// The input records stable-sorted by key: the bytes a full merge of
/// key-prefix runs must gather.
fn stable_sorted(data: &[u8]) -> Vec<u8> {
    let mut recs = records_of(data).to_vec();
    recs.sort_by_key(|r| r.key);
    recs.iter()
        .flat_map(|r| r.as_bytes().iter().copied())
        .collect()
}

#[test]
fn full_merge_matches_stable_sort_at_block_edges() {
    for (d, &dist) in DISTS.iter().enumerate() {
        for (i, lens) in length_sets().iter().enumerate() {
            let (data, runs) = runs_of(lens, dist, 0x4EAD + (d * 16 + i) as u64);
            let merged: Vec<MergedPtr> = RunMerger::new(&runs).collect();
            assert_eq!(
                merged,
                reference(&runs, &full_bounds(&runs)),
                "{dist:?} lens {lens:?}"
            );
            assert!(
                gathered(&runs, &merged) == stable_sorted(&data),
                "{dist:?} lens {lens:?}: gathered bytes differ"
            );
        }
    }
}

#[test]
fn bounded_merge_refills_from_the_bound_start() {
    for (d, &dist) in DISTS.iter().enumerate() {
        for (i, lens) in length_sets().iter().enumerate() {
            let (_, runs) = runs_of(lens, dist, 0xB0DE + (d * 16 + i) as u64);
            for start in [1u32, 63, 64] {
                // Each run from `start` (clamped) to its end, and to one
                // short of its end.
                for trim in [0u32, 1] {
                    let bounds: Vec<(u32, u32)> = runs
                        .iter()
                        .map(|r| {
                            let len = r.len() as u32;
                            let s = start.min(len);
                            (s, len.saturating_sub(trim).max(s))
                        })
                        .collect();
                    let merged: Vec<MergedPtr> = RunMerger::with_bounds(&runs, &bounds).collect();
                    let want = reference(&runs, &bounds);
                    assert_eq!(
                        merged, want,
                        "{dist:?} lens {lens:?} start {start} trim {trim}"
                    );
                    assert!(
                        gathered(&runs, &merged) == gathered(&runs, &want),
                        "{dist:?} lens {lens:?} start {start} trim {trim}: bytes differ"
                    );
                }
            }
        }
    }
}

#[test]
fn range_merges_concatenate_to_the_serial_merge() {
    for (d, &dist) in DISTS.iter().enumerate() {
        for (i, lens) in length_sets().iter().enumerate() {
            let (_, runs) = runs_of(lens, dist, 0xC0CA + (d * 16 + i) as u64);
            let serial: Vec<MergedPtr> = RunMerger::new(&runs).collect();
            for width in [1usize, 2, 4, 8] {
                let plan = plan_mem_partitions(&runs, width, SAMPLES_PER_RANGE);
                let cat: Vec<MergedPtr> = plan
                    .bounds
                    .iter()
                    .flat_map(|row| {
                        let b: Vec<(u32, u32)> =
                            row.iter().map(|&(s, e)| (s as u32, e as u32)).collect();
                        RunMerger::with_bounds(&runs, &b).collect::<Vec<_>>()
                    })
                    .collect();
                assert_eq!(cat, serial, "{dist:?} lens {lens:?} width {width}");
            }
        }
    }
}

/// Runs in physical record order (no permutation) take the other branch of
/// the prefix refill; the merge must still follow key order and run index.
#[test]
fn record_sorted_runs_refill_from_storage_order() {
    for (d, &dist) in DISTS.iter().enumerate() {
        let lens = [129, 1, 64, 65, 63];
        let (_, runs) = runs_as(&lens, dist, 0x5EC0 + d as u64, Representation::Record);
        let bounds: Vec<(u32, u32)> = runs
            .iter()
            .map(|r| ((r.len() as u32).min(63), r.len() as u32))
            .collect();
        assert_eq!(
            RunMerger::with_bounds(&runs, &bounds).collect::<Vec<_>>(),
            reference(&runs, &bounds),
            "{dist:?}"
        );
        assert_eq!(
            RunMerger::new(&runs).collect::<Vec<_>>(),
            reference(&runs, &full_bounds(&runs)),
            "{dist:?}"
        );
    }
}
