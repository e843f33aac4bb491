//! Differential sort oracle: every driver configuration must produce
//! **byte-identical** output for the same input.
//!
//! The ground truth is Rust's stable slice sort by full key. Because every
//! dmgen record embeds a unique sequence number in its payload, the stable
//! sort's output is *unique*: any two correct stable sorts agree on every
//! byte. Each case below therefore checks the shared-nothing baseline
//! (§2's partitioned sort), the one-pass AlphaSort pipeline (serial and
//! partitioned merge), and the two-pass driver (serial, partitioned,
//! cascade, and crash-resumed) against the same reference bytes — a
//! divergence anywhere, including equal-key order on dup-heavy inputs,
//! fails with the first differing record.
//!
//! The partitioned-merge worker counts default to 1, 2, 4 and 8 and can be
//! pinned from the outside (CI's merge matrix) via `ORACLE_MERGE_WORKERS`,
//! a comma-separated list.

use alphasort_core::baseline::{
    partition_sort, partition_sort_var, sort_var_bytes, PartitionSortConfig,
};
use alphasort_core::driver::{one_pass, two_pass, MemScratch, ScratchStore};
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{
    generate, generate_varlen, records_of, records_of_mut, var_records_of, GenConfig,
    KeyDistribution, TextCorpus, VarGenConfig, RECORD_LEN,
};

/// Ground truth: stable sort by full key, concatenated back to bytes.
fn stable_reference(data: &[u8]) -> Vec<u8> {
    let mut recs = records_of(data).to_vec();
    recs.sort_by_key(|r| r.key); // slice::sort_by_key is stable
    let mut out = Vec::with_capacity(data.len());
    for r in &recs {
        out.extend_from_slice(r.as_bytes());
    }
    out
}

/// Record layouts under test (overridable by CI's layout matrix): a
/// comma-separated `ORACLE_LAYOUT` list restricts the oracle to the named
/// layouts; unset runs everything.
fn layout_enabled(l: RecordLayout) -> bool {
    match std::env::var("ORACLE_LAYOUT") {
        Ok(v) => v.split(',').any(|p| {
            let p = p.trim();
            RecordLayout::from_name(p).expect("ORACLE_LAYOUT: unknown layout name") == l
        }),
        Err(_) => true,
    }
}

/// Merge-worker counts under test (overridable by CI's merge matrix).
fn merge_worker_counts() -> Vec<usize> {
    match std::env::var("ORACLE_MERGE_WORKERS") {
        Ok(v) => v
            .split(',')
            .map(|p| p.trim().parse().expect("ORACLE_MERGE_WORKERS: bad count"))
            .collect(),
        Err(_) => vec![1, 2, 4, 8],
    }
}

/// Index of the first differing record, for a readable failure.
fn assert_identical(got: &[u8], want: &[u8], what: &str) {
    if got == want {
        return;
    }
    assert_eq!(got.len(), want.len(), "{what}: output length diverged");
    let at = got
        .chunks(RECORD_LEN)
        .zip(want.chunks(RECORD_LEN))
        .position(|(g, w)| g != w)
        .expect("unequal outputs must differ somewhere");
    panic!(
        "{what}: first divergence at record {at}: got key {:?}, want key {:?}",
        &got[at * RECORD_LEN..at * RECORD_LEN + 10],
        &want[at * RECORD_LEN..at * RECORD_LEN + 10],
    );
}

fn run_one_pass(data: &[u8], cfg: &SortConfig) -> Vec<u8> {
    let mut source = MemSource::new(data.to_vec(), 9_973); // ragged chunks
    let mut sink = MemSink::new();
    one_pass(&mut source, &mut sink, cfg).unwrap();
    sink.into_inner()
}

fn run_two_pass(data: &[u8], cfg: &SortConfig, mut scratch: MemScratch) -> Vec<u8> {
    let mut source = MemSource::new(data.to_vec(), 9_973);
    let mut sink = MemSink::new();
    two_pass(&mut source, &mut sink, &mut scratch, cfg).unwrap();
    sink.into_inner()
}

/// A scratch pretending the middle run already survived a crash: the run
/// covering records `[run_records, 2*run_records)` is pre-formed (stable
/// sort — exactly what pass 1 would have spilled) and reported as
/// recovered, driving the resume path of the two-pass driver.
fn resumed_scratch(data: &[u8], run_records: usize) -> MemScratch {
    assert!(data.len() / RECORD_LEN >= 3 * run_records, "need 3+ runs");
    let mut middle =
        data[run_records * RECORD_LEN..2 * run_records * RECORD_LEN].to_vec();
    records_of_mut(&mut middle).sort_by_key(|r| r.key);
    MemScratch::with_recovered(vec![(run_records as u64, middle)], 40 * RECORD_LEN)
}

/// Run every driver configuration over one seeded input and compare all
/// outputs against the stable reference.
fn oracle_case(records: u64, seed: u64, dist: KeyDistribution) {
    if !layout_enabled(RecordLayout::Datamation) {
        return;
    }
    let what = format!("{records} records, seed {seed:#x}, {dist:?}");
    let (data, _) = generate(GenConfig {
        records,
        seed,
        dist,
    });
    let want = stable_reference(&data);

    // §2 baseline: splitter-partitioned shared-nothing sort.
    let (got, _) = partition_sort(&data, &PartitionSortConfig::default());
    assert_identical(&got, &want, &format!("baseline [{what}]"));

    let run_records = (records as usize / 7).max(1);
    let base = SortConfig {
        run_records,
        gather_batch: 128,
        workers: 2,
        ..Default::default()
    };

    // One-pass, serial tournament merge.
    let got = run_one_pass(&data, &base);
    assert_identical(&got, &want, &format!("one-pass serial [{what}]"));

    // One-pass, partitioned merge at every worker count.
    for p in merge_worker_counts() {
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = run_one_pass(&data, &cfg);
        assert_identical(&got, &want, &format!("one-pass P={p} [{what}]"));
    }

    // Two-pass, serial final merge.
    let got = run_two_pass(&data, &base, MemScratch::new(40 * RECORD_LEN));
    assert_identical(&got, &want, &format!("two-pass serial [{what}]"));

    // Two-pass, partitioned final merge at every worker count.
    for p in merge_worker_counts() {
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = run_two_pass(&data, &cfg, MemScratch::new(40 * RECORD_LEN));
        assert_identical(&got, &want, &format!("two-pass P={p} [{what}]"));

        // Same, with cascade levels forced in front of the final merge.
        let cascade = SortConfig {
            max_fanin: 3,
            ..cfg
        };
        let got = run_two_pass(&data, &cascade, MemScratch::new(40 * RECORD_LEN));
        assert_identical(&got, &want, &format!("two-pass cascade P={p} [{what}]"));

        // Same, resuming over a scratch with a surviving middle run.
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = run_two_pass(&data, &cfg, resumed_scratch(&data, run_records));
        assert_identical(&got, &want, &format!("two-pass resumed P={p} [{what}]"));
    }

    // Resumed two-pass with the serial merge, for completeness.
    let got = run_two_pass(&data, &base, resumed_scratch(&data, run_records));
    assert_identical(&got, &want, &format!("two-pass resumed serial [{what}]"));
}

#[test]
fn oracle_random_keys() {
    oracle_case(3_000, 0xAC1E1, KeyDistribution::Random);
}

#[test]
fn oracle_dup_heavy_stability() {
    // Few distinct keys: every driver must keep equal keys in input order
    // or the embedded sequence numbers diverge from the reference.
    oracle_case(3_000, 0xAC1E2, KeyDistribution::DupHeavy { cardinality: 5 });
}

#[test]
fn oracle_two_distinct_keys() {
    oracle_case(2_000, 0xAC1E3, KeyDistribution::DupHeavy { cardinality: 2 });
}

#[test]
fn oracle_presorted_input() {
    oracle_case(2_000, 0xAC1E4, KeyDistribution::Sorted);
}

#[test]
fn oracle_reversed_input() {
    oracle_case(2_000, 0xAC1E5, KeyDistribution::Reverse);
}

#[test]
fn oracle_common_prefix_keys() {
    oracle_case(2_000, 0xAC1E6, KeyDistribution::CommonPrefix { shared: 9 });
}

#[test]
fn oracle_nearly_sorted_input() {
    oracle_case(2_000, 0xAC1E7, KeyDistribution::NearlySorted { permille: 50 });
}

// ---------------------------------------------------------------------------
// Variable-length layout: the same oracle over string-keyed frames.
// ---------------------------------------------------------------------------

/// Ground truth for the var-len layout: stable sort of the parsed frames by
/// key bytes, concatenated back. Unique because every generated body embeds
/// a sequence number right after the key.
fn var_stable_reference(data: &[u8]) -> Vec<u8> {
    let recs = var_records_of(data).expect("generated corpus parses");
    let mut idx: Vec<usize> = (0..recs.len()).collect();
    idx.sort_by(|&a, &b| recs[a].key().cmp(recs[b].key()).then(a.cmp(&b)));
    let mut out = Vec::with_capacity(data.len());
    for i in idx {
        out.extend_from_slice(recs[i].frame());
    }
    out
}

/// First differing frame, for a readable var-len failure.
fn var_assert_identical(got: &[u8], want: &[u8], what: &str) {
    if got == want {
        return;
    }
    assert_eq!(got.len(), want.len(), "{what}: output length diverged");
    let g = var_records_of(got).expect("output parses");
    let w = var_records_of(want).expect("reference parses");
    let at = g
        .iter()
        .zip(&w)
        .position(|(a, b)| a.frame() != b.frame())
        .expect("unequal outputs must differ somewhere");
    panic!(
        "{what}: first divergence at record {at}: got key {:?} seq {:?}, \
         want key {:?} seq {:?}",
        g[at].key(),
        g[at].seq(),
        w[at].key(),
        w[at].seq(),
    );
}

fn run_one_pass_var(data: &[u8], cfg: &SortConfig) -> Vec<u8> {
    let mut source = MemSource::new(data.to_vec(), 997); // ragged, frame-straddling
    let mut sink = MemSink::new();
    one_pass(&mut source, &mut sink, cfg).unwrap();
    sink.into_inner()
}

/// Run every var-len driver configuration over one corpus and compare all
/// outputs against the stable reference — mirrors [`oracle_case`].
fn var_oracle_case(records: u64, seed: u64, corpus: TextCorpus) {
    if !layout_enabled(RecordLayout::VarLen) {
        return;
    }
    let what = format!("{records} records, seed {seed:#x}, {}", corpus.name());
    let data = generate_varlen(VarGenConfig {
        records,
        seed,
        corpus,
    });
    let want = var_stable_reference(&data);

    // In-memory baselines: single-partition sort and splitter-partitioned.
    let got = sort_var_bytes(&data).unwrap();
    var_assert_identical(&got, &want, &format!("sort_var_bytes [{what}]"));
    for parts in [2, 3, 5] {
        let got = partition_sort_var(&data, parts).unwrap();
        var_assert_identical(&got, &want, &format!("baseline parts={parts} [{what}]"));
    }

    let run_records = (records as usize / 7).max(1);
    let base = SortConfig {
        run_records,
        gather_batch: 128,
        workers: 2,
        layout: RecordLayout::VarLen,
        ..Default::default()
    };

    // One-pass, serial tournament merge (through the layout dispatch).
    let got = run_one_pass_var(&data, &base);
    var_assert_identical(&got, &want, &format!("one-pass serial [{what}]"));

    // One-pass, partitioned merge at every worker count.
    for p in merge_worker_counts() {
        let cfg = SortConfig {
            merge_workers: p,
            ..base.clone()
        };
        let got = run_one_pass_var(&data, &cfg);
        var_assert_identical(&got, &want, &format!("one-pass P={p} [{what}]"));
    }
}

#[test]
fn var_oracle_urls() {
    var_oracle_case(1_200, 0xB0, TextCorpus::Urls);
}

#[test]
fn var_oracle_log_lines() {
    var_oracle_case(1_200, 0xB1, TextCorpus::LogLines);
}

#[test]
fn var_oracle_zipfian_words() {
    var_oracle_case(1_200, 0xB2, TextCorpus::ZipfianWords { max_words: 5 });
}

#[test]
fn var_oracle_single_word_zipf() {
    // max_words = 1: shortest keys, maximal duplication.
    var_oracle_case(1_000, 0xB3, TextCorpus::ZipfianWords { max_words: 1 });
}

#[test]
fn var_oracle_random_bytes() {
    var_oracle_case(1_200, 0xB4, TextCorpus::RandomBytes { min_key: 0, max_key: 40 });
}

#[test]
fn var_oracle_short_random_bytes() {
    // Keys at or under the 8-byte prefix-entry width.
    var_oracle_case(1_000, 0xB5, TextCorpus::RandomBytes { min_key: 1, max_key: 8 });
}

#[test]
fn var_oracle_empty_keys() {
    var_oracle_case(1_000, 0xB6, TextCorpus::EmptyKey);
}

#[test]
fn var_oracle_all_equal_keys() {
    var_oracle_case(1_000, 0xB7, TextCorpus::AllEqualKey { key_len: 16 });
}

#[test]
fn var_oracle_shared_megaprefix() {
    var_oracle_case(1_000, 0xB8, TextCorpus::SharedMegaPrefix { prefix: 48, suffix: 8 });
}

#[test]
fn var_oracle_deep_shared_prefix() {
    // Prefix far beyond any cached entry width, near-tying suffixes.
    var_oracle_case(800, 0xB9, TextCorpus::SharedMegaPrefix { prefix: 200, suffix: 4 });
}

#[test]
fn var_oracle_prefix_chain() {
    var_oracle_case(1_000, 0xBA, TextCorpus::PrefixChain { max_len: 32 });
}

/// The trait-level range plumbing the partitioned merge relies on: windows
/// opened through [`ScratchStore::open_run_range`] reassemble each sealed
/// run exactly.
#[test]
fn oracle_scratch_windows_reassemble_runs() {
    let (data, _) = generate(GenConfig {
        records: 600,
        seed: 0xAC1E8,
        dist: KeyDistribution::Random,
    });
    let mut scratch = MemScratch::new(512);
    for chunk in data.chunks(200 * RECORD_LEN) {
        let mut w = scratch.create_run(chunk.len() as u64).unwrap();
        use alphasort_core::io::RecordSink;
        w.push(chunk).unwrap();
        scratch.seal_run(w).unwrap();
    }
    let lens = scratch.sealed_run_records().unwrap();
    assert_eq!(lens, vec![200, 200, 200]);
    for (run, &len) in lens.iter().enumerate() {
        let mut got = Vec::new();
        // Reassemble from three uneven windows.
        for (s, e) in [(0, len / 3), (len / 3, len / 2), (len / 2, len)] {
            use alphasort_core::io::RecordSource;
            let mut src = scratch.open_run_range(run, s, e - s).unwrap();
            while let Some(c) = src.next_chunk().unwrap() {
                got.extend_from_slice(&c);
            }
        }
        let lo = run * 200 * RECORD_LEN;
        assert_eq!(&got, &data[lo..lo + 200 * RECORD_LEN], "run {run}");
    }
}
