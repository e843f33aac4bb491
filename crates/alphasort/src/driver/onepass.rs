//! The one-pass sort: AlphaSort's benchmark configuration, for every
//! record layout.
//!
//! §7's walk-through is the template: read the input through the striped
//! source, cutting it into runs of `run_records`; QuickSort each run's
//! entries *while the next run is still arriving* (sort chores overlap
//! input); then run the tournament merge, handing gather chores to workers
//! buffer-by-buffer while completed buffers stream to the striped sink.
//! The layout ([`MemRun`]) only decides how runs are cut, formed and
//! merged; this pipeline is the same for both.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use alphasort_obs as obs;

use crate::driver::{finish, SortConfig, SortOutcome};
use crate::entry::RecordLayout;
use crate::gather::take_ptrs;
use crate::io::{RecordSink, RecordSource};
use crate::memrun::{full_bounds, MemRun};
use crate::parallel::{gather_chore, merge_range_chore, sort_chore, OrderedPool};
use crate::planner::PassPlan;
use crate::pmerge::{plan_mem_partitions, SAMPLES_PER_RANGE};
use crate::runform::SortedRun;
use crate::stats::{timed_phase, SortStats};
use crate::varlen::VarRun;

/// How many gather batches may be in flight before the root drains one —
/// the output-side analogue of triple buffering.
const GATHER_PIPELINE: u64 = 3;

/// Sort `source` into `sink` entirely in memory (one pass over the data).
pub fn one_pass<Src, Snk>(
    source: &mut Src,
    sink: &mut Snk,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
    Src: RecordSource,
    Snk: RecordSink,
{
    match cfg.layout {
        RecordLayout::Datamation => sort_in_memory::<SortedRun, _, _>(source, sink, cfg),
        RecordLayout::VarLen => sort_in_memory::<VarRun, _, _>(source, sink, cfg),
    }
}

fn sort_in_memory<R, Src, Snk>(
    source: &mut Src,
    sink: &mut Snk,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
    R: MemRun,
    Src: RecordSource,
    Snk: RecordSink,
{
    assert!(cfg.run_records > 0 && cfg.gather_batch > 0);
    let mut top = obs::span(obs::phase::ONE_PASS);
    let t_start = Instant::now();
    let mut stats = SortStats {
        one_pass: true,
        ..Default::default()
    };

    // ---- input + run formation, overlapped --------------------------------
    let mut pool = OrderedPool::new(
        "sort-worker",
        cfg.workers,
        sort_chore::<R>(cfg.representation),
    );
    let mut cutter = R::cutter(cfg.run_records);
    loop {
        let mut rd = obs::span(obs::phase::READ);
        let t0 = Instant::now();
        let chunk = source.next_chunk();
        stats.read_wait += t0.elapsed();
        if let Ok(Some(c)) = &chunk {
            rd.attr("bytes", c.len() as u64);
        }
        drop(rd);
        let Some(chunk) = chunk? else { break };
        stats.bytes_sorted += chunk.len() as u64;
        cutter.push(&chunk, |buf| pool.submit(buf))?;
    }
    if let Some(buf) = cutter.finish()? {
        pool.submit(buf);
    }
    let mut runs = Vec::with_capacity(pool.in_flight() as usize);
    while let Some((run, d)) = pool.next_in_order() {
        let run = run?;
        stats.sort_time += d;
        stats.runs += 1;
        stats.records += run.run_len() as u64;
        stats.run_lengths.push(run.run_len() as u64);
        runs.push(run);
    }
    drop(pool);

    if stats.records == 0 {
        return finish(sink, stats, &mut top, t_start, PassPlan::OnePass);
    }

    // ---- merge + gather + output, overlapped ------------------------------
    let runs = Arc::new(runs);
    if cfg.merge_workers > 0 {
        // Partitioned parallel merge: sampled splitters cut every run into
        // P disjoint key ranges; each range's merge is fused with its
        // gather on a pool worker and the buffers stream out in range
        // order — byte-identical to the serial tournament below.
        let plan = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
            plan_mem_partitions(&runs, cfg.merge_workers, SAMPLES_PER_RANGE)
        });
        stats.merge_range_records = plan.range_records.clone();
        let chore = merge_range_chore(Arc::clone(&runs));
        let mut pool = OrderedPool::new("merge-worker", cfg.merge_workers, chore);
        for row in &plan.bounds {
            pool.submit(row.iter().map(|&(s, e)| (s as u32, e as u32)).collect());
        }
        while let Some((buf, d)) = pool.next_in_order() {
            stats.merge_time += d;
            stats.merge_range_time.push(d);
            timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.push(&buf))?;
        }
        return finish(sink, stats, &mut top, t_start, PassPlan::OnePass);
    }
    let mut merger = R::merger(&runs, &full_bounds(&runs));
    let mut gather = OrderedPool::new(
        "gather-worker",
        cfg.workers,
        gather_chore(Arc::clone(&runs)),
    );
    loop {
        let ptrs = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
            take_ptrs(&mut merger, cfg.gather_batch)
        });
        let done = ptrs.is_empty();
        if !done {
            gather.submit(ptrs);
        }
        // Keep GATHER_PIPELINE batches in flight; drain all at the end.
        let keep = if done { 0 } else { GATHER_PIPELINE };
        while gather.in_flight() > keep {
            let (buf, d) = gather.next_in_order().expect("in-flight batch vanished");
            stats.gather_time += d;
            timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.push(&buf))?;
        }
        if done {
            break;
        }
    }
    finish(sink, stats, &mut top, t_start, PassPlan::OnePass)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{MemSink, MemSource};
    use crate::runform::Representation;
    use alphasort_dmgen::{
        generate, generate_varlen, validate_records, var_records_of, GenConfig, KeyDistribution,
        TextCorpus, VarGenConfig, RECORD_LEN,
    };

    fn sort_mem(n: u64, dist: KeyDistribution, cfg: &SortConfig) {
        let (data, cs) = generate(GenConfig {
            records: n,
            seed: 0xBEEF,
            dist,
        });
        let mut source = MemSource::new(data, 64 * 1024); // ragged chunks on purpose
        let mut sink = MemSink::new();
        let outcome = one_pass(&mut source, &mut sink, cfg).unwrap();
        assert_eq!(outcome.bytes, n * RECORD_LEN as u64);
        assert_eq!(outcome.stats.records, n);
        let report = validate_records(sink.data(), cs).unwrap();
        assert_eq!(report.records, n);
    }

    #[test]
    fn sorts_uniprocessor_key_prefix() {
        let cfg = SortConfig {
            run_records: 1_000,
            gather_batch: 500,
            workers: 0,
            ..Default::default()
        };
        sort_mem(10_000, KeyDistribution::Random, &cfg);
    }

    #[test]
    fn sorts_with_workers() {
        let cfg = SortConfig {
            run_records: 777,
            gather_batch: 333,
            workers: 3,
            ..Default::default()
        };
        sort_mem(10_000, KeyDistribution::Random, &cfg);
    }

    #[test]
    fn sorts_every_representation() {
        for rep in Representation::ALL {
            let cfg = SortConfig {
                run_records: 500,
                gather_batch: 250,
                representation: rep,
                ..Default::default()
            };
            sort_mem(3_000, KeyDistribution::Random, &cfg);
        }
    }

    #[test]
    fn sorts_adversarial_distributions() {
        let cfg = SortConfig {
            run_records: 400,
            gather_batch: 100,
            workers: 2,
            ..Default::default()
        };
        for dist in [
            KeyDistribution::Sorted,
            KeyDistribution::Reverse,
            KeyDistribution::DupHeavy { cardinality: 3 },
            KeyDistribution::CommonPrefix { shared: 9 },
            KeyDistribution::NearlySorted { permille: 100 },
        ] {
            sort_mem(4_000, dist, &cfg);
        }
    }

    #[test]
    fn partitioned_merge_is_byte_identical_to_serial() {
        let (data, cs) = generate(GenConfig {
            records: 6_000,
            seed: 0xCAFE,
            dist: KeyDistribution::DupHeavy { cardinality: 7 },
        });
        let serial = {
            let mut source = MemSource::new(data.clone(), 10_000);
            let mut sink = MemSink::new();
            let cfg = SortConfig {
                run_records: 500,
                gather_batch: 200,
                ..Default::default()
            };
            one_pass(&mut source, &mut sink, &cfg).unwrap();
            sink.into_inner()
        };
        for merge_workers in [1, 2, 4, 8] {
            let mut source = MemSource::new(data.clone(), 10_000);
            let mut sink = MemSink::new();
            let cfg = SortConfig {
                run_records: 500,
                gather_batch: 200,
                workers: 2,
                merge_workers,
                ..Default::default()
            };
            let outcome = one_pass(&mut source, &mut sink, &cfg).unwrap();
            assert_eq!(
                outcome.stats.merge_range_records.len(),
                merge_workers,
                "one record count per range"
            );
            assert!(outcome.stats.merge_skew() >= 1.0);
            assert_eq!(sink.data(), &serial[..], "{merge_workers} ranges diverged");
            validate_records(sink.data(), cs).unwrap();
        }
    }

    #[test]
    fn single_run_input() {
        let cfg = SortConfig {
            run_records: 100_000,
            gather_batch: 1_000,
            ..Default::default()
        };
        sort_mem(2_000, KeyDistribution::Random, &cfg);
    }

    #[test]
    fn empty_input() {
        let mut source = MemSource::new(Vec::new(), 1024);
        let mut sink = MemSink::new();
        let outcome = one_pass(&mut source, &mut sink, &SortConfig::default()).unwrap();
        assert_eq!(outcome.bytes, 0);
        assert_eq!(outcome.stats.records, 0);
    }

    #[test]
    fn run_boundaries_land_where_configured() {
        let (data, _) = generate(GenConfig::datamation(1_050, 3));
        let mut source = MemSource::new(data, 10_000);
        let mut sink = MemSink::new();
        let cfg = SortConfig {
            run_records: 100,
            gather_batch: 100,
            ..Default::default()
        };
        let outcome = one_pass(&mut source, &mut sink, &cfg).unwrap();
        assert_eq!(outcome.stats.runs, 11);
        assert_eq!(outcome.stats.run_lengths[10], 50);
    }

    #[test]
    fn ragged_input_is_an_error() {
        let (mut data, _) = generate(GenConfig::datamation(10, 3));
        data.pop();
        let mut source = MemSource::new(data, 128);
        let mut sink = MemSink::new();
        let err = one_pass(&mut source, &mut sink, &SortConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    // ---- var-len layout: the same pipeline over `VarRun`s -----------------

    fn corpus_bytes(corpus: TextCorpus, n: u64, seed: u64) -> Vec<u8> {
        generate_varlen(VarGenConfig {
            records: n,
            seed,
            corpus,
        })
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

    fn var_cfg(cfg: SortConfig) -> SortConfig {
        SortConfig {
            layout: RecordLayout::VarLen,
            ..cfg
        }
    }

    fn var_one_pass(data: &[u8], cfg: &SortConfig) -> (Vec<u8>, SortOutcome) {
        let mut source = MemSource::new(data.to_vec(), 4_099); // ragged on purpose
        let mut sink = MemSink::new();
        let outcome = one_pass(&mut source, &mut sink, cfg).unwrap();
        (sink.into_inner(), outcome)
    }

    #[test]
    fn var_one_pass_matches_stable_sort_on_every_corpus() {
        let cfg = var_cfg(SortConfig {
            run_records: 150,
            gather_batch: 64,
            ..Default::default()
        });
        for corpus in TextCorpus::ALL {
            let data = corpus_bytes(corpus, 800, 0x51);
            let (got, outcome) = var_one_pass(&data, &cfg);
            assert_eq!(got, stable_reference(&data), "{}", corpus.name());
            assert_eq!(outcome.stats.records, 800);
            assert_eq!(outcome.bytes as usize, data.len());
        }
    }

    #[test]
    fn var_workers_and_partitioned_merge_are_byte_identical() {
        let data = corpus_bytes(TextCorpus::Urls, 3_000, 0x52);
        let base = var_cfg(SortConfig {
            run_records: 250,
            gather_batch: 100,
            ..Default::default()
        });
        let (serial, _) = var_one_pass(&data, &base);
        for (workers, merge_workers) in [(2, 0), (3, 1), (2, 2), (4, 4), (2, 8)] {
            let cfg = SortConfig {
                workers,
                merge_workers,
                ..base.clone()
            };
            let (got, outcome) = var_one_pass(&data, &cfg);
            assert_eq!(
                got, serial,
                "workers={workers} merge_workers={merge_workers}"
            );
            if merge_workers > 0 {
                assert_eq!(outcome.stats.merge_range_records.len(), merge_workers);
                assert_eq!(outcome.stats.merge_range_records.iter().sum::<u64>(), 3_000);
            }
        }
    }

    #[test]
    fn var_truncated_input_is_attributed() {
        let mut data = corpus_bytes(TextCorpus::LogLines, 50, 0x57);
        data.truncate(data.len() - 3);
        let mut source = MemSource::new(data, 512);
        let mut sink = MemSink::new();
        let err = one_pass(&mut source, &mut sink, &var_cfg(SortConfig::default())).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mid-record"), "{err}");
    }

    #[test]
    fn var_empty_input() {
        let mut source = MemSource::new(Vec::new(), 512);
        let mut sink = MemSink::new();
        let outcome = one_pass(&mut source, &mut sink, &var_cfg(SortConfig::default())).unwrap();
        assert_eq!(outcome.bytes, 0);
        assert_eq!(outcome.stats.records, 0);
    }
}
