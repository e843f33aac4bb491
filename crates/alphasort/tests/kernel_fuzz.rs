//! Run-formation differential fuzz: production `KeyPrefix` run formation
//! (the top-byte radix scatter in front of the QuickSort) against the
//! paper's plain key-prefix QuickSort, at two levels.
//!
//! **Run level** — [`form_run`] must produce the *same permutation* as
//! [`key_prefix_order`]. The within-run order (prefix, then full key, then
//! input index) is a total order, so the correct permutation is unique and
//! the comparison can be exact, not merely "sorted".
//!
//! **End-to-end level** — the one-pass driver must emit the stable sort's
//! bytes.
//!
//! Inputs sweep the oracle's seven key distributions plus the degenerate
//! shapes the bucketing is most likely to get wrong: all-equal keys and a
//! shared 8-byte prefix (every entry in one bucket, with maximal prefix
//! ties), and inputs where all but one entry share a bucket.

use alphasort_core::driver::one_pass;
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::runform::{
    form_run, key_prefix_order, radix_prefix_order, Representation, SortedRun,
};
use alphasort_core::SortConfig;
use alphasort_dmgen::{
    generate, records_of, records_of_mut, GenConfig, KeyDistribution, RECORD_LEN,
};

/// The sweep: the seven oracle distributions, then the degenerate shapes.
fn distributions() -> Vec<(&'static str, KeyDistribution)> {
    vec![
        ("random", KeyDistribution::Random),
        ("printable", KeyDistribution::RandomPrintable),
        ("sorted", KeyDistribution::Sorted),
        ("reverse", KeyDistribution::Reverse),
        (
            "nearly-sorted",
            KeyDistribution::NearlySorted { permille: 50 },
        ),
        ("dup-heavy", KeyDistribution::DupHeavy { cardinality: 5 }),
        ("common-prefix", KeyDistribution::CommonPrefix { shared: 9 }),
        ("all-equal", KeyDistribution::DupHeavy { cardinality: 1 }),
        ("two-keys", KeyDistribution::DupHeavy { cardinality: 2 }),
        ("prefix-ties", KeyDistribution::CommonPrefix { shared: 8 }),
    ]
}

/// Render a formed run to its sorted byte string.
fn materialize(run: &SortedRun) -> Vec<u8> {
    let mut out = Vec::with_capacity(run.len() * RECORD_LEN);
    for r in run.iter_sorted() {
        out.extend_from_slice(r.as_bytes());
    }
    out
}

/// Assert that production run formation reproduces the QuickSort's
/// permutation on `data`. Every dmgen record carries a unique sequence
/// number, so equal bytes mean an equal permutation.
fn assert_matches_quicksort(data: &[u8], what: &str) {
    let want = key_prefix_order(data);
    assert_eq!(
        radix_prefix_order(data),
        want,
        "permutation diverged [{what}]"
    );
    let records = records_of(data);
    let want_bytes: Vec<u8> = want
        .iter()
        .flat_map(|&i| records[i as usize].as_bytes().iter().copied())
        .collect();
    // The reference itself must be sorted by full key — guard the guard.
    assert!(
        records_of(&want_bytes)
            .windows(2)
            .all(|w| w[0].key <= w[1].key),
        "reference unsorted [{what}]"
    );
    let run = form_run(data.to_vec(), Representation::KeyPrefix);
    assert_eq!(materialize(&run), want_bytes, "form_run diverged [{what}]");
}

/// Production KeyPrefix run formation must match the QuickSort across
/// every distribution and at sizes straddling the insertion cutoff and
/// radix bucket skew.
#[test]
fn run_formation_matches_quicksort_everywhere() {
    for (dist_name, dist) in distributions() {
        for records in [1u64, 2, 15, 16, 17, 100, 1_000, 4_096] {
            let (data, _) = generate(GenConfig {
                records,
                seed: 0xF0221 ^ records,
                dist,
            });
            assert_matches_quicksort(&data, &format!("{dist_name}, n={records}"));
        }
    }
}

/// The bucketing's degenerate edge: every entry in one bucket, and a
/// single entry in a second bucket — below, above, at either end or in
/// the middle of the input.
#[test]
fn run_formation_at_the_one_bucket_edge() {
    for records in [2u64, 17, 1_000] {
        let (shared, _) = generate(GenConfig {
            records,
            seed: 0xF0223 ^ records,
            dist: KeyDistribution::CommonPrefix { shared: 9 },
        });
        let top = records_of(&shared)[0].key[0];
        assert!(records_of(&shared).iter().all(|r| r.key[0] == top));
        assert_matches_quicksort(&shared, &format!("one bucket, n={records}"));
        let n = records as usize;
        for at in [0, n / 2, n - 1] {
            for odd in [top.wrapping_sub(1), top.wrapping_add(1)] {
                let mut data = shared.clone();
                records_of_mut(&mut data)[at].key[0] = odd;
                assert_matches_quicksort(
                    &data,
                    &format!("all but one bucketed, n={records}, odd {odd:#04x} at {at}"),
                );
            }
        }
    }
}

/// End-to-end: the one-pass driver (run formation + loser-tree merge +
/// gather) against the stable sort's bytes.
#[test]
fn one_pass_driver_matches_stable_sort() {
    for (dist_name, dist) in distributions() {
        let (data, _) = generate(GenConfig {
            records: 3_000,
            seed: 0xF0222,
            dist,
        });
        let cfg = SortConfig {
            run_records: 450, // 7 runs — a real merge, not a passthrough
            gather_batch: 128,
            workers: 2,
            ..Default::default()
        };
        let mut src = MemSource::new(data.clone(), 9_973);
        let mut sink = MemSink::new();
        one_pass(&mut src, &mut sink, &cfg).unwrap();
        let mut want = records_of(&data).to_vec();
        want.sort_by_key(|r| r.key); // stable
        let want: Vec<u8> = want
            .iter()
            .flat_map(|r| r.as_bytes().iter().copied())
            .collect();
        assert_eq!(sink.into_inner(), want, "one-pass diverged [{dist_name}]");
    }
}
