//! Observability parity: both record layouts run the same one-pass
//! pipeline, so a var-len sort records the same phase spans and the same
//! per-chore histograms as a Datamation sort. Alone in its own test binary
//! because the recorder is process-global.

use std::collections::{BTreeMap, BTreeSet};

use alphasort_core::driver::one_pass;
use alphasort_core::io::{MemSink, MemSource};
use alphasort_core::{RecordLayout, SortConfig};
use alphasort_dmgen::{generate, generate_varlen, GenConfig, TextCorpus, VarGenConfig};
use alphasort_obs as obs;

/// Span names and histogram sample counts of one sort.
fn record(layout: RecordLayout, input: Vec<u8>) -> (BTreeSet<&'static str>, BTreeMap<String, u64>) {
    let cfg = SortConfig {
        run_records: 500,
        gather_batch: 200,
        workers: 2,
        layout,
        ..Default::default()
    };
    obs::enable(obs::DEFAULT_CAPACITY);
    let mut source = MemSource::new(input, 16 * 1024);
    let mut sink = MemSink::new();
    one_pass(&mut source, &mut sink, &cfg).unwrap();
    obs::disable();
    let spans = obs::snapshot().events.iter().map(|e| e.name).collect();
    let hists = obs::metrics_snapshot().histograms;
    (
        spans,
        hists.into_iter().map(|(n, h)| (n, h.count())).collect(),
    )
}

#[test]
fn varlen_one_pass_records_the_datamation_spans_and_histograms() {
    let (data, _) = generate(GenConfig::datamation(4_000, 7));
    let (dm_spans, dm_hists) = record(RecordLayout::Datamation, data);
    let data = generate_varlen(VarGenConfig {
        records: 4_000,
        seed: 7,
        corpus: TextCorpus::Urls,
    });
    let (var_spans, var_hists) = record(RecordLayout::VarLen, data);

    use obs::phase::{GATHER, MERGE, ONE_PASS, READ, SORT, WRITE};
    let phases = BTreeSet::from([ONE_PASS, READ, SORT, MERGE, GATHER, WRITE]);
    assert!(
        phases.is_subset(&dm_spans),
        "datamation spans: {dm_spans:?}"
    );
    assert_eq!(var_spans, dm_spans);

    // 4,000 records in runs of 500: 8 sort chores. Gather batches of 200
    // records: 20 gather chores.
    assert_eq!(dm_hists["sort.run_us"], 8);
    assert_eq!(dm_hists["gather.batch_us"], 20);
    assert_eq!(var_hists, dm_hists);
}
