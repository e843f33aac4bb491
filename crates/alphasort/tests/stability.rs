//! Stability: with any detached representation, the full one-pass sort
//! keeps equal-keyed records in input order (run-local index tie-break +
//! the merge's run-number tie-break). §4 credits replacement-selection with
//! stability; this shows the QuickSort pipeline matches it — and that the
//! variable-length pipeline matches it too, across serial and partitioned
//! merges.

use alphasort_core::driver::one_pass;
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::runform::Representation;
use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{
    generate, generate_varlen, records_of, var_records_of, GenConfig, KeyDistribution, SplitMix64,
    TextCorpus, VarGenConfig,
};

fn assert_stable(rep: Representation, records: u64, run_records: usize, cardinality: u32) {
    let (data, _) = generate(GenConfig {
        records,
        seed: 0x57AB,
        dist: KeyDistribution::DupHeavy { cardinality },
    });
    let mut source = MemSource::new(data, 4_096);
    let mut sink = MemSink::new();
    let cfg = SortConfig {
        run_records,
        representation: rep,
        gather_batch: 128,
        workers: 2,
        ..Default::default()
    };
    one_pass(&mut source, &mut sink, &cfg).unwrap();
    let out = records_of(sink.data());
    for w in out.windows(2) {
        assert!(w[0].key <= w[1].key);
        if w[0].key == w[1].key {
            assert!(
                w[0].seq() < w[1].seq(),
                "equal keys out of arrival order: {} then {}",
                w[0].seq(),
                w[1].seq()
            );
        }
    }
}

#[test]
fn key_prefix_pipeline_is_stable() {
    assert_stable(Representation::KeyPrefix, 3_000, 250, 7);
}

#[test]
fn pointer_pipeline_is_stable() {
    assert_stable(Representation::Pointer, 2_000, 111, 3);
}

#[test]
fn key_pipeline_is_stable() {
    assert_stable(Representation::Key, 2_000, 400, 5);
}

#[test]
fn codeword_pipeline_is_stable() {
    assert_stable(Representation::Codeword, 2_000, 333, 4);
}

// ---------------------------------------------------------------------------
// Variable-length layout: equal string keys stay in arrival order.
// ---------------------------------------------------------------------------

/// Every record of `out` must carry a key ≤ its successor's, and equal keys
/// must keep ascending sequence numbers (arrival order).
fn assert_var_stable(out: &[u8], what: &str) {
    let recs = var_records_of(out).expect("output parses");
    for w in recs.windows(2) {
        assert!(w[0].key() <= w[1].key(), "{what}: keys out of order");
        if w[0].key() == w[1].key() {
            assert!(
                w[0].seq().unwrap() < w[1].seq().unwrap(),
                "{what}: equal keys out of arrival order: {:?} then {:?}",
                w[0].seq(),
                w[1].seq()
            );
        }
    }
}

/// Duplicate-heavy string corpora through one-pass serial and one-pass
/// partitioned (1/2/4/8 ranges) merges: arrival order of equal keys
/// survives every merge topology.
#[test]
fn varlen_pipeline_is_stable() {
    for corpus in [
        TextCorpus::EmptyKey,
        TextCorpus::AllEqualKey { key_len: 16 },
        TextCorpus::ZipfianWords { max_words: 2 },
    ] {
        let data = generate_varlen(VarGenConfig {
            records: 1_200,
            seed: 0x57A8,
            corpus,
        });
        let run_records = 170;
        let base = SortConfig {
            run_records,
            gather_batch: 96,
            workers: 2,
            layout: RecordLayout::VarLen,
            ..Default::default()
        };
        let name = corpus.name();

        // Serial merge.
        let mut source = MemSource::new(data.clone(), 1_003);
        let mut sink = MemSink::new();
        one_pass(&mut source, &mut sink, &base).unwrap();
        assert_var_stable(sink.data(), &format!("{name} serial"));

        for p in [1usize, 2, 4, 8] {
            // Partitioned merge at every worker count.
            let cfg = SortConfig {
                merge_workers: p,
                ..base.clone()
            };
            let mut source = MemSource::new(data.clone(), 1_003);
            let mut sink = MemSink::new();
            one_pass(&mut source, &mut sink, &cfg).unwrap();
            assert_var_stable(sink.data(), &format!("{name} P={p}"));
        }
    }
}

/// Stability holds across arbitrary run sizes and key cardinalities for
/// the stable representations.
#[test]
fn stability_holds_for_arbitrary_configs() {
    const STABLE_REPS: [Representation; 4] = [
        Representation::Pointer,
        Representation::Key,
        Representation::KeyPrefix,
        Representation::Codeword,
    ];
    let mut r = SplitMix64::new(0xD1);
    for _ in 0..32 {
        let records = 10 + r.next_below(790);
        let run_records = 1 + r.next_below(299) as usize;
        let cardinality = 1 + r.next_below(9) as u32;
        let rep = STABLE_REPS[r.next_below(4) as usize];
        assert_stable(rep, records, run_records, cardinality);
    }
}
