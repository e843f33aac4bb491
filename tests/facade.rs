//! The `ExternalSorter` facade: planning + execution in one call.

use alphasort_suite::dmgen::{generate, validate_records, GenConfig, RECORD_LEN};
use alphasort_suite::sort::driver::MemScratch;
use alphasort_suite::sort::io::{MemSink, MemSource};
use alphasort_suite::sort::planner::PassPlan;
use alphasort_suite::sort::{ExternalSorter, SortConfig};

fn sorter(memory_budget: u64) -> ExternalSorter {
    ExternalSorter::new(SortConfig {
        run_records: 500,
        gather_batch: 200,
        memory_budget,
        ..Default::default()
    })
}

#[test]
fn small_input_runs_one_pass() {
    let records = 2_000u64;
    let (data, cs) = generate(GenConfig::datamation(records, 1));
    let mut source = MemSource::new(data, 10_000);
    let mut sink = MemSink::new();
    let mut scratch = MemScratch::new(100 * RECORD_LEN);
    // Budget comfortably above the 200 KB input.
    let outcome = sorter(1 << 20)
        .sort(&mut source, &mut sink, &mut scratch)
        .unwrap();
    assert_eq!(outcome.plan, PassPlan::OnePass);
    assert!(outcome.stats.one_pass);
    validate_records(sink.data(), cs).unwrap();
}

#[test]
fn oversized_input_runs_two_passes() {
    let records = 3_000u64; // 300 KB
    let (data, cs) = generate(GenConfig::datamation(records, 2));
    let mut source = MemSource::new(data, 10_000);
    let mut sink = MemSink::new();
    let mut scratch = MemScratch::new(100 * RECORD_LEN);
    // Budget below the input: must spill.
    let outcome = sorter(100 << 10)
        .sort(&mut source, &mut sink, &mut scratch)
        .unwrap();
    assert_eq!(outcome.plan, PassPlan::TwoPass);
    assert!(!outcome.stats.one_pass);
    assert!(outcome.stats.runs > 1);
    validate_records(sink.data(), cs).unwrap();
}

#[test]
fn boundary_just_under_budget_is_one_pass() {
    // one_pass_capacity = budget / 1.10; put the input right below it.
    let budget = 1u64 << 20;
    let cap = (budget as f64 / 1.10) as u64;
    let records = cap / RECORD_LEN as u64 - 1;
    let (data, cs) = generate(GenConfig::datamation(records, 3));
    let mut source = MemSource::new(data, 64 * 1024);
    let mut sink = MemSink::new();
    let mut scratch = MemScratch::new(100 * RECORD_LEN);
    let outcome = sorter(budget)
        .sort(&mut source, &mut sink, &mut scratch)
        .unwrap();
    assert_eq!(outcome.plan, PassPlan::OnePass);
    validate_records(sink.data(), cs).unwrap();
}

/// A source that hides its size (a pipe): the facade must go conservative.
struct OpaqueSource(MemSource);

impl alphasort_suite::sort::io::RecordSource for OpaqueSource {
    fn next_chunk(&mut self) -> std::io::Result<Option<Vec<u8>>> {
        self.0.next_chunk()
    }
    fn size_hint(&self) -> Option<u64> {
        None
    }
}

#[test]
fn unknown_size_defaults_to_two_pass() {
    let (data, cs) = generate(GenConfig::datamation(1_000, 4));
    let mut source = OpaqueSource(MemSource::new(data, 10_000));
    let mut sink = MemSink::new();
    let mut scratch = MemScratch::new(100 * RECORD_LEN);
    let outcome = sorter(1 << 30)
        .sort(&mut source, &mut sink, &mut scratch)
        .unwrap();
    assert_eq!(outcome.plan, PassPlan::TwoPass);
    validate_records(sink.data(), cs).unwrap();
}

#[test]
fn varlen_input_over_budget_sorts_in_memory_and_reports_one_pass() {
    use alphasort_suite::dmgen::{generate_varlen, var_records_of, TextCorpus, VarGenConfig};
    use alphasort_suite::sort::RecordLayout;

    let data = generate_varlen(VarGenConfig {
        records: 6_000,
        seed: 5,
        corpus: TextCorpus::Urls,
    });
    let recs = var_records_of(&data).unwrap();
    let mut idx: Vec<usize> = (0..recs.len()).collect();
    idx.sort_by(|&a, &b| recs[a].key().cmp(recs[b].key()));
    let want: Vec<u8> = idx.iter().flat_map(|&i| recs[i].frame().to_vec()).collect();

    // A budget a tenth of the input: the planner says two passes, but
    // var-len runs cannot spill to scratch, so the sort runs in memory.
    let budget = data.len() as u64 / 10;
    let mut source = MemSource::new(data, 10_000);
    let mut sink = MemSink::new();
    let mut scratch = MemScratch::new(100 * RECORD_LEN);
    let sorter = ExternalSorter::new(SortConfig {
        run_records: 500,
        gather_batch: 200,
        memory_budget: budget,
        layout: RecordLayout::VarLen,
        ..Default::default()
    });
    let outcome = sorter.sort(&mut source, &mut sink, &mut scratch).unwrap();
    assert_eq!(outcome.plan, PassPlan::OnePass);
    assert!(outcome.stats.one_pass);
    assert_eq!(scratch.run_count(), 0);
    assert_eq!(sink.data(), &want[..]);
}
