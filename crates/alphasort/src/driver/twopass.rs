//! The two-pass sort: spill runs to scratch, merge them back.
//!
//! §6: "When should the QuickSorted intermediate runs be stored on disk? A
//! two-pass sort uses less memory, but uses twice the disk bandwidth."
//! Pass 1 reads the input in memory-sized chunks, QuickSorts each, and
//! streams the sorted run to a scratch file. Pass 2 opens every run and
//! merges the record streams through a tournament into the output sink.
//! Memory use is one run buffer in pass 1 and one read-ahead buffer per run
//! in pass 2, regardless of input size.

use std::collections::VecDeque;
use std::io;
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use alphasort_dmgen::RECORD_LEN;
use alphasort_obs as obs;

use crate::driver::scratch::{BufferedRunStream, RecoveredRun, ScratchStore};
use crate::driver::{finish, SortConfig, SortOutcome};
use crate::entry::RecordLayout;
use crate::io::{RecordSink, RecordSource};
use crate::merge::StreamMerger;
use crate::parallel::{sort_chore, OrderedPool};
use crate::planner::PassPlan;
use crate::pmerge::{plan_partitions_with, SAMPLES_PER_RANGE};
use crate::runform::SortedRun;
use crate::stats::{timed_phase, SortStats};

/// Sort `source` into `sink`, staging runs in `scratch`.
pub fn two_pass<Src, Snk, Scr>(
    source: &mut Src,
    sink: &mut Snk,
    scratch: &mut Scr,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
    Src: RecordSource,
    Snk: RecordSink,
    Scr: ScratchStore,
{
    // Scratch stores hold fixed-size records only (`key_at`, strides and
    // range windows are all `RECORD_LEN`-based), so a var-len input cannot
    // spill: refuse it before touching the source or the scratch.
    if cfg.layout != RecordLayout::Datamation {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "two-pass sort needs fixed-size records; {} input sorts in memory (one pass)",
                cfg.layout.name()
            ),
        ));
    }
    assert!(cfg.run_records > 0 && cfg.gather_batch > 0);
    let mut top = obs::span(obs::phase::TWO_PASS);
    let t_start = Instant::now();
    let mut stats = SortStats {
        one_pass: false,
        ..Default::default()
    };
    let run_bytes = cfg.run_records * RECORD_LEN;

    // ---- pass 1: run formation + spill, overlapped ------------------------
    // Workers QuickSort run buffers while the root keeps reading and spills
    // completed runs — the §5 chore decomposition applied to the spill pass
    // (runs must reach scratch in submission order, so the pool hands them
    // back in order).
    //
    // A resumed scratch reports the input ranges its surviving runs cover;
    // those bytes are read and discarded (the sorted records already sit in
    // scratch) and only the gaps are re-sorted and re-spilled.
    let mut pending: VecDeque<RecoveredRun> = {
        let mut spans = scratch.recovered_runs()?;
        spans.sort_by_key(|r| r.start_record);
        spans.into()
    };
    let resuming = !pending.is_empty();
    // Absolute byte position within the input.
    let mut abs: u64 = 0;
    let mut cur: Vec<u8> = Vec::with_capacity(run_bytes);
    let mut pool = OrderedPool::new(
        "sort-worker",
        cfg.workers,
        sort_chore::<SortedRun>(cfg.representation),
    );
    let spill = |run: &SortedRun, stats: &mut SortStats, scratch: &mut Scr| -> io::Result<()> {
        stats.runs += 1;
        stats.run_lengths.push(run.len() as u64);
        stats.records += run.len() as u64;
        if resuming {
            stats.runs_reformed += 1;
            obs::metrics::counter_add("run.reformed", 1);
        }
        timed_phase(
            obs::phase::SPILL,
            &mut stats.spill_time,
            || -> io::Result<()> {
                let mut writer = scratch.create_run((run.len() * RECORD_LEN) as u64)?;
                // Stream the run out in gather-batch sized pieces so the spill
                // writer's pipeline stays busy without a whole-run staging copy.
                let mut staging = Vec::with_capacity(cfg.gather_batch * RECORD_LEN);
                for rec in run.iter_sorted() {
                    staging.extend_from_slice(rec.as_bytes());
                    if staging.len() >= cfg.gather_batch * RECORD_LEN {
                        writer.push(&staging)?;
                        staging.clear();
                    }
                }
                if !staging.is_empty() {
                    writer.push(&staging)?;
                }
                scratch.seal_run(writer)
            },
        )
    };

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
        let mut off = 0;
        while off < chunk.len() {
            // Inside a recovered span: these records already sit in scratch,
            // sorted and checksummed. Account the run when its span is fully
            // passed; nothing is re-sorted.
            if let Some(r) = pending.front() {
                let span_start = r.start_record * RECORD_LEN as u64;
                let span_end = span_start + r.records * RECORD_LEN as u64;
                if abs >= span_start {
                    let skip = ((span_end - abs) as usize).min(chunk.len() - off);
                    off += skip;
                    abs += skip as u64;
                    if abs == span_end {
                        stats.runs += 1;
                        stats.run_lengths.push(r.records);
                        stats.records += r.records;
                        stats.runs_recovered += 1;
                        obs::metrics::counter_add("run.recovered", 1);
                        pending.pop_front();
                    }
                    continue;
                }
            }
            // Take at most up to the next recovered span: a gap run must
            // end exactly at the span boundary so the re-formed runs cover
            // precisely the records the recovered ones do not.
            let until_span = pending
                .front()
                .map(|r| r.start_record * RECORD_LEN as u64 - abs)
                .unwrap_or(u64::MAX);
            let take = (run_bytes - cur.len())
                .min(chunk.len() - off)
                .min(until_span.min(usize::MAX as u64) as usize);
            cur.extend_from_slice(&chunk[off..off + take]);
            off += take;
            abs += take as u64;
            let at_span_boundary = take as u64 == until_span;
            if cur.len() == run_bytes || (at_span_boundary && !cur.is_empty()) {
                let full = std::mem::replace(&mut cur, Vec::with_capacity(run_bytes));
                pool.submit(full);
            }
        }
        // Spill whatever the workers have finished, without stalling input.
        while let Some((run, d)) = pool.try_next() {
            stats.sort_time += d;
            spill(&run?, &mut stats, scratch)?;
        }
    }
    if !cur.is_empty() {
        if !cur.len().is_multiple_of(RECORD_LEN) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "input ends mid-record ({} trailing bytes)",
                    cur.len() % RECORD_LEN
                ),
            ));
        }
        pool.submit(std::mem::take(&mut cur));
    }
    while let Some((run, d)) = pool.next_in_order() {
        stats.sort_time += d;
        spill(&run?, &mut stats, scratch)?;
    }
    drop(pool); // joins worker threads (no runs remain)

    if let Some(r) = pending.front() {
        // The scratch thinks it holds runs past the end of the input: the
        // resume was pointed at a different (or truncated) input file.
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "recovered run covering records {}..{} extends past the input \
                 ({} bytes read); wrong or truncated input for this scratch manifest",
                r.start_record,
                r.start_record + r.records,
                abs,
            ),
        ));
    }

    if stats.records == 0 {
        return finish(sink, stats, &mut top, t_start, PassPlan::TwoPass);
    }

    // ---- intermediate cascade passes (runs > fan-in) -----------------------
    // Beyond the paper's regime: when inputs are thousands of times memory,
    // the run count exceeds a practical merge width, so groups of `fanin`
    // runs merge into longer scratch runs until one final merge remains
    // (Knuth's cascade merge). Each extra level costs one more full
    // read+write of the data — the same bandwidth arithmetic as §6.
    let fanin = cfg.max_fanin.max(2);
    while scratch.sealed_run_records()?.len() > fanin {
        stats.merge_passes += 1;
        let level = timed_phase(obs::phase::SPILL, &mut stats.spill_time, || {
            scratch.open_runs()
        })?;
        let mut level_iter = level.into_iter().peekable();
        while level_iter.peek().is_some() {
            let group: Vec<Scr::Source> = level_iter.by_ref().take(fanin).collect();
            // The merged run is as big as its inputs together; scratch
            // stores allocate extents from this hint.
            let group_bytes: u64 = group.iter().filter_map(|s| s.size_hint()).sum();
            let mut streams = Vec::with_capacity(group.len());
            for s in group {
                streams.push(BufferedRunStream::new(s)?);
            }
            let mut merger = StreamMerger::new(streams);
            timed_phase(
                obs::phase::SPILL,
                &mut stats.spill_time,
                || -> io::Result<()> {
                    let mut writer = scratch.create_run(group_bytes)?;
                    let mut staging = Vec::with_capacity(cfg.gather_batch * RECORD_LEN);
                    while let Some(r) = merger.next_record()? {
                        staging.extend_from_slice(r.as_bytes());
                        if staging.len() >= cfg.gather_batch * RECORD_LEN {
                            writer.push(&staging)?;
                            staging.clear();
                        }
                    }
                    if !staging.is_empty() {
                        writer.push(&staging)?;
                    }
                    scratch.seal_run(writer)
                },
            )?;
        }
    }

    // ---- final merge into the sink -----------------------------------------
    if cfg.merge_workers > 0 {
        partitioned_final_merge(sink, scratch, cfg, &mut stats)?;
        return finish(sink, stats, &mut top, t_start, PassPlan::TwoPass);
    }
    let sources = timed_phase(obs::phase::SPILL, &mut stats.spill_time, || {
        scratch.open_runs()
    })?;
    let mut streams = Vec::with_capacity(sources.len());
    for s in sources {
        streams.push(BufferedRunStream::new(s)?);
    }
    let mut merger = StreamMerger::new(streams);
    let mut staging = Vec::with_capacity(cfg.gather_batch * RECORD_LEN);
    let batch_bytes = cfg.gather_batch * RECORD_LEN;
    loop {
        // Merge a whole output batch per timing/span window: per-record
        // clock reads (and per-record spans) would dominate the merge
        // itself at 10M records.
        let done = timed_phase(
            obs::phase::MERGE,
            &mut stats.merge_time,
            || -> io::Result<bool> {
                while staging.len() < batch_bytes {
                    match merger.next_record()? {
                        Some(r) => staging.extend_from_slice(r.as_bytes()),
                        None => return Ok(true),
                    }
                }
                Ok(false)
            },
        )?;
        if !staging.is_empty() {
            timed_phase(obs::phase::WRITE, &mut stats.write_wait, || {
                sink.push(&staging)
            })?;
            staging.clear();
        }
        if done {
            break;
        }
    }
    finish(sink, stats, &mut top, t_start, PassPlan::TwoPass)
}

/// Partitioned final merge: sampled splitters (probed via
/// [`ScratchStore::key_at`]) cut every sealed run into `cfg.merge_workers`
/// disjoint key ranges; each range merges on its own thread reading
/// verified range windows of the runs, and the staged buffers stream to
/// the sink in range order. Splitter routing is a pure function of the key
/// and per-range merges keep the run-index tie-break, so the concatenated
/// ranges are byte-identical to the serial final merge.
fn partitioned_final_merge<Snk, Scr>(
    sink: &mut Snk,
    scratch: &mut Scr,
    cfg: &SortConfig,
    stats: &mut SortStats,
) -> io::Result<()>
where
    Snk: RecordSink,
    Scr: ScratchStore,
{
    let run_lens = scratch.sealed_run_records()?;
    let plan = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
        plan_partitions_with(&run_lens, cfg.merge_workers, SAMPLES_PER_RANGE, |r, pos| {
            scratch.key_at(r, pos)
        })
    })?;
    stats.merge_range_records = plan.range_records.clone();
    // Open every (range, run) window up front on the driver thread: the
    // scratch handle is `&mut`, but the sources it yields are `Send` and
    // move into the range workers. Empty cuts are skipped.
    let mut range_sources: Vec<Vec<Scr::Source>> = Vec::with_capacity(plan.ranges());
    for row in &plan.bounds {
        let mut srcs = Vec::new();
        for (run, &(s, e)) in row.iter().enumerate() {
            if e > s {
                srcs.push(scratch.open_run_range(run, s, e - s)?);
            }
        }
        range_sources.push(srcs);
    }

    let batch_bytes = cfg.gather_batch * RECORD_LEN;
    let track = obs::current_track();
    let durations = std::thread::scope(|scope| -> io::Result<Vec<Duration>> {
        let mut handles = Vec::with_capacity(range_sources.len());
        let mut rxs = Vec::with_capacity(range_sources.len());
        for (range, srcs) in range_sources.into_iter().enumerate() {
            // A short pipeline per range: workers stay a few batches ahead
            // of the sink without staging whole ranges in memory.
            let (tx, rx) = sync_channel::<Vec<u8>>(4);
            rxs.push(rx);
            let records = plan.range_records[range];
            let track = track.clone();
            handles.push(scope.spawn(move || -> io::Result<Duration> {
                obs::adopt_track(track);
                let mut g = obs::span(obs::phase::MERGE);
                g.attr("range", range as u64);
                g.attr("records", records);
                let t0 = Instant::now();
                if srcs.is_empty() {
                    return Ok(t0.elapsed());
                }
                let mut streams = Vec::with_capacity(srcs.len());
                for s in srcs {
                    streams.push(BufferedRunStream::new(s)?);
                }
                let mut merger = StreamMerger::new(streams);
                let mut staging = Vec::with_capacity(batch_bytes);
                'merge: loop {
                    let done = loop {
                        match merger.next_record()? {
                            Some(r) => {
                                staging.extend_from_slice(r.as_bytes());
                                if staging.len() >= batch_bytes {
                                    break false;
                                }
                            }
                            None => break true,
                        }
                    };
                    if !staging.is_empty() {
                        let full =
                            std::mem::replace(&mut staging, Vec::with_capacity(batch_bytes));
                        if tx.send(full).is_err() {
                            // The root stopped draining (sink error); there
                            // is nowhere for our output to go.
                            break 'merge;
                        }
                    }
                    if done {
                        break;
                    }
                }
                let d = t0.elapsed();
                obs::metrics::observe("merge.range_us", d.as_micros() as u64);
                Ok(d)
            }));
        }
        // Drain in range order: ranges cover ascending disjoint key
        // intervals, so this concatenation *is* the sorted output.
        let mut sink_err: Option<io::Error> = None;
        'drain: for rx in &rxs {
            while let Ok(buf) = rx.recv() {
                let pushed = timed_phase(obs::phase::WRITE, &mut stats.write_wait, || {
                    sink.push(&buf)
                });
                if let Err(e) = pushed {
                    sink_err = Some(e);
                    break 'drain;
                }
            }
        }
        drop(rxs); // unblocks any worker still sending after a sink error
        let mut durations = Vec::with_capacity(handles.len());
        let mut worker_err: Option<io::Error> = None;
        for h in handles {
            match h.join() {
                Ok(Ok(d)) => durations.push(d),
                Ok(Err(e)) => {
                    if worker_err.is_none() {
                        worker_err = Some(e);
                    }
                }
                Err(p) => std::panic::resume_unwind(p),
            }
        }
        // A failed range read outranks the sink error it may have induced.
        if let Some(e) = worker_err {
            return Err(e);
        }
        if let Some(e) = sink_err {
            return Err(e);
        }
        Ok(durations)
    })?;
    for d in durations {
        stats.merge_time += d;
        stats.merge_range_time.push(d);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::scratch::MemScratch;
    use crate::io::{MemSink, MemSource};
    use alphasort_dmgen::{generate, validate_records, GenConfig, KeyDistribution};

    fn sort_two_pass(n: u64, dist: KeyDistribution, cfg: &SortConfig) {
        let (data, cs) = generate(GenConfig {
            records: n,
            seed: 0xF00D,
            dist,
        });
        let mut source = MemSource::new(data, 12_345); // deliberately ragged
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(40 * RECORD_LEN);
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, cfg).unwrap();
        assert_eq!(outcome.stats.records, n);
        assert!(!outcome.stats.one_pass);
        let report = validate_records(sink.data(), cs).unwrap();
        assert_eq!(report.records, n);
    }

    #[test]
    fn sorts_with_many_runs() {
        let cfg = SortConfig {
            run_records: 250,
            gather_batch: 100,
            ..Default::default()
        };
        sort_two_pass(5_000, KeyDistribution::Random, &cfg); // 20 runs
    }

    #[test]
    fn sorts_with_workers_overlapping_spill() {
        let cfg = SortConfig {
            run_records: 200,
            gather_batch: 64,
            workers: 3,
            ..Default::default()
        };
        sort_two_pass(6_000, KeyDistribution::Random, &cfg); // 30 runs
    }

    #[test]
    fn sorts_with_single_run() {
        let cfg = SortConfig {
            run_records: 100_000,
            gather_batch: 100,
            ..Default::default()
        };
        sort_two_pass(1_000, KeyDistribution::Random, &cfg);
    }

    #[test]
    fn sorts_adversarial_distributions() {
        let cfg = SortConfig {
            run_records: 300,
            gather_batch: 64,
            ..Default::default()
        };
        for dist in [
            KeyDistribution::Sorted,
            KeyDistribution::Reverse,
            KeyDistribution::DupHeavy { cardinality: 2 },
            KeyDistribution::CommonPrefix { shared: 10 },
        ] {
            sort_two_pass(2_000, dist, &cfg);
        }
    }

    #[test]
    fn empty_input() {
        let mut source = MemSource::new(Vec::new(), 100);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(100 * RECORD_LEN);
        let outcome =
            two_pass(&mut source, &mut sink, &mut scratch, &SortConfig::default()).unwrap();
        assert_eq!(outcome.bytes, 0);
    }

    #[test]
    fn cascade_merge_handles_many_runs() {
        // 40 runs with fan-in 4: two intermediate levels (40 → 10 → 3),
        // then the final merge.
        let (data, cs) = generate(GenConfig::datamation(2_000, 21));
        let mut source = MemSource::new(data, 10_000);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(25 * RECORD_LEN);
        let cfg = SortConfig {
            run_records: 50, // 40 runs
            gather_batch: 32,
            max_fanin: 4,
            ..Default::default()
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.runs, 40);
        assert_eq!(outcome.stats.merge_passes, 2);
        let report = validate_records(sink.data(), cs).unwrap();
        assert_eq!(report.records, 2_000);
    }

    #[test]
    fn cascade_fanin_exactly_at_boundary_needs_no_extra_pass() {
        let (data, cs) = generate(GenConfig::datamation(1_000, 22));
        let mut source = MemSource::new(data, 10_000);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(25 * RECORD_LEN);
        let cfg = SortConfig {
            run_records: 125, // exactly 8 runs
            gather_batch: 32,
            max_fanin: 8,
            ..Default::default()
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.merge_passes, 0);
        validate_records(sink.data(), cs).unwrap();
    }

    /// Serial-reference sort of `data` with `cfg` (merge_workers forced 0).
    fn serial_reference(data: &[u8], cfg: &SortConfig) -> Vec<u8> {
        let mut source = MemSource::new(data.to_vec(), 12_345);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(40 * RECORD_LEN);
        let cfg = SortConfig {
            merge_workers: 0,
            ..cfg.clone()
        };
        two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        sink.into_inner()
    }

    #[test]
    fn partitioned_final_merge_is_byte_identical_to_serial() {
        let (data, cs) = generate(GenConfig {
            records: 4_000,
            seed: 0xD1CE,
            dist: KeyDistribution::DupHeavy { cardinality: 5 },
        });
        let base = SortConfig {
            run_records: 250,
            gather_batch: 100,
            workers: 2,
            ..Default::default()
        };
        let serial = serial_reference(&data, &base);
        for merge_workers in [1, 2, 4, 8] {
            let mut source = MemSource::new(data.clone(), 12_345);
            let mut sink = MemSink::new();
            let mut scratch = MemScratch::new(40 * RECORD_LEN);
            let cfg = SortConfig {
                merge_workers,
                ..base.clone()
            };
            let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
            assert_eq!(outcome.stats.merge_range_records.len(), merge_workers);
            assert_eq!(
                outcome.stats.merge_range_records.iter().sum::<u64>(),
                4_000
            );
            assert!(outcome.stats.merge_skew() >= 1.0);
            assert_eq!(sink.data(), &serial[..], "{merge_workers} ranges diverged");
            validate_records(sink.data(), cs).unwrap();
        }
    }

    #[test]
    fn partitioned_merge_after_cascade_levels() {
        let (data, cs) = generate(GenConfig::datamation(2_000, 33));
        let base = SortConfig {
            run_records: 50, // 40 runs
            gather_batch: 32,
            max_fanin: 4,
            ..Default::default()
        };
        let serial = serial_reference(&data, &base);
        let mut source = MemSource::new(data, 12_345);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(25 * RECORD_LEN);
        let cfg = SortConfig {
            merge_workers: 3,
            ..base
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.merge_passes, 2); // 40 → 10 → 3 runs
        assert_eq!(outcome.stats.merge_range_records.len(), 3);
        assert_eq!(sink.data(), &serial[..]);
        validate_records(sink.data(), cs).unwrap();
    }

    #[test]
    fn partitioned_merge_on_resumed_scratch() {
        use alphasort_dmgen::records_of_mut;
        // A previous attempt already formed the middle run (records
        // 300..600); the resumed sort re-forms only the flanks and the
        // partitioned merge must still concatenate to the serial output.
        let (data, cs) = generate(GenConfig {
            records: 1_200,
            seed: 0xAB5E,
            dist: KeyDistribution::Random,
        });
        let base = SortConfig {
            run_records: 300,
            gather_batch: 100,
            ..Default::default()
        };
        let serial = serial_reference(&data, &base);
        let mut middle = data[300 * RECORD_LEN..600 * RECORD_LEN].to_vec();
        records_of_mut(&mut middle).sort_by_key(|r| r.key);
        for merge_workers in [1, 3, 8] {
            let mut source = MemSource::new(data.clone(), 12_345);
            let mut sink = MemSink::new();
            let mut scratch =
                MemScratch::with_recovered(vec![(300, middle.clone())], 40 * RECORD_LEN);
            let cfg = SortConfig {
                merge_workers,
                ..base.clone()
            };
            let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
            assert_eq!(outcome.stats.runs, 4);
            assert_eq!(outcome.stats.runs_recovered, 1);
            assert_eq!(outcome.stats.merge_range_records.len(), merge_workers);
            assert_eq!(sink.data(), &serial[..], "{merge_workers} ranges diverged");
            validate_records(sink.data(), cs).unwrap();
        }
    }

    #[test]
    fn run_count_matches_input_over_memory() {
        let (data, _) = generate(GenConfig::datamation(1_000, 2));
        let mut source = MemSource::new(data, 64 * 1024);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(50 * RECORD_LEN);
        let cfg = SortConfig {
            run_records: 128,
            gather_batch: 64,
            ..Default::default()
        };
        let outcome = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
        assert_eq!(outcome.stats.runs, 8); // ceil(1000 / 128)
        assert_eq!(*outcome.stats.run_lengths.last().unwrap(), 1_000 % 128);
    }

    #[test]
    fn var_len_input_is_refused_before_any_run_is_created() {
        let data = alphasort_dmgen::generate_varlen(alphasort_dmgen::VarGenConfig {
            records: 500,
            seed: 0x5A,
            corpus: alphasort_dmgen::TextCorpus::Urls,
        });
        let mut source = MemSource::new(data, 4_096);
        let mut sink = MemSink::new();
        let mut scratch = MemScratch::new(40 * RECORD_LEN);
        let cfg = SortConfig {
            run_records: 50,
            layout: RecordLayout::VarLen,
            ..Default::default()
        };
        let err = two_pass(&mut source, &mut sink, &mut scratch, &cfg).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("varlen"), "{err}");
        assert_eq!(scratch.run_count(), 0);
        assert!(sink.data().is_empty());
    }
}
