//! One-pass and two-pass drivers for variable-length records.
//!
//! The same shapes as [`crate::driver`]'s fixed-layout drivers — overlapped
//! run formation, serial or splitter-partitioned final merges, resumable
//! pass 1 — with record boundaries coming from the length-prefixed framing
//! ([`VarFramer`]) instead of a fixed stride, and the merge running
//! LCP/OVC-aware ([`crate::varlen::vmerge`]).
//!
//! Differences from the fixed path, by design:
//!
//! * Runs are cut by *record count* (`cfg.run_records`), not bytes: a run's
//!   byte size varies with its records, exactly like real sort runs over
//!   text keys.
//! * Two-pass scratch is the in-memory [`MemVarScratch`] (striped var-len
//!   scratch with manifests is a roadmap item); the resume contract —
//!   recovered spans are skipped during pass 1 and gap runs pack around
//!   them in input order — matches [`crate::driver::MemScratch`] exactly,
//!   and there is no cascade level (in-memory merges take any fan-in).

use std::collections::VecDeque;
use std::io;
use std::sync::Mutex;
use std::time::Instant;

use alphasort_obs as obs;

use crate::driver::{RecoveredRun, SortConfig, SortOutcome};
use crate::gather::gather_var_into;
use crate::io::{RecordSink, RecordSource};
use crate::planner::PassPlan;
use crate::pmerge::{plan_var_mem_partitions, SAMPLES_PER_RANGE};
use crate::splitter::{byte_splitters_from_keys, route_bytes};
use crate::stats::{timed_phase, SortStats};
use crate::varlen::vmerge::{MergeMode, VarRunCursor, VarRunMerger, VarStreamMerger};
use crate::varlen::vrun::{VarFramer, VarRun};

/// Form `bufs` into sorted runs, in order, on up to `workers` threads
/// (serial when 0/1). Formation is the QuickSort + LCP-table step; each
/// buffer is independent, so a shared work queue keeps every thread busy
/// regardless of run-size skew.
fn form_runs(bufs: Vec<Vec<u8>>, workers: usize) -> io::Result<Vec<VarRun>> {
    let n = bufs.len();
    if workers <= 1 || n <= 1 {
        return bufs.into_iter().map(VarRun::from_frames).collect();
    }
    let queue: Mutex<Vec<(usize, Vec<u8>)>> =
        Mutex::new(bufs.into_iter().enumerate().rev().collect());
    let slots: Mutex<Vec<Option<io::Result<VarRun>>>> =
        Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..workers.min(n) {
            scope.spawn(|| loop {
                let job = queue.lock().expect("queue lock").pop();
                let Some((i, buf)) = job else { break };
                let run = VarRun::from_frames(buf);
                slots.lock().expect("slots lock")[i] = Some(run);
            });
        }
    });
    slots
        .into_inner()
        .expect("slots lock")
        .into_iter()
        .map(|s| s.expect("every submitted run is formed"))
        .collect()
}

/// Plan and run the partitioned merge + gather of `runs` (in input
/// order) into `cfg.merge_workers` key ranges, one range per scoped
/// thread, buffers written in range order. Range routing is a pure
/// function of the key and each range keeps the run-index tie-break, so
/// the concatenation is byte-identical to the serial merge.
fn partitioned_merge(
    runs: &[&VarRun],
    cfg: &SortConfig,
    stats: &mut SortStats,
    sink: &mut impl RecordSink,
) -> io::Result<()> {
    let plan = timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
        plan_var_mem_partitions(runs, cfg.merge_workers, SAMPLES_PER_RANGE)
    });
    stats.merge_range_records = plan.range_records.clone();
    let track = obs::current_track();
    let outputs = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(plan.ranges());
        for (range, row) in plan.bounds.iter().enumerate() {
            let records = plan.range_records[range];
            let track = track.clone();
            handles.push(scope.spawn(move || {
                obs::adopt_track(track);
                let mut g = obs::span(obs::phase::MERGE);
                g.attr("range", range as u64);
                g.attr("records", records);
                let t0 = Instant::now();
                let bounds: Vec<(u32, u32)> =
                    row.iter().map(|&(s, e)| (s as u32, e as u32)).collect();
                let mut out = Vec::new();
                for p in VarRunMerger::with_bounds(runs.to_vec(), &bounds, MergeMode::Ovc) {
                    out.extend_from_slice(runs[p.run as usize].frame_at(p.pos as usize));
                }
                (out, t0.elapsed())
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("range merge thread"))
            .collect::<Vec<_>>()
    });
    for (buf, d) in outputs {
        stats.merge_time += d;
        stats.merge_range_time.push(d);
        timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.push(&buf))?;
    }
    Ok(())
}

/// Sort var-len `source` into `sink` entirely in memory — the var-len
/// [`crate::driver::one_pass`].
pub fn one_pass_var<Src, Snk>(
    source: &mut Src,
    sink: &mut Snk,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
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

    // ---- input + framing: cut run buffers at record-count boundaries ------
    let mut framer = VarFramer::new();
    let mut run_bufs: Vec<Vec<u8>> = Vec::new();
    let mut cur: Vec<u8> = Vec::new();
    let mut cur_records = 0usize;
    loop {
        let t0 = Instant::now();
        let chunk = source.next_chunk();
        stats.read_wait += t0.elapsed();
        let Some(chunk) = chunk? else { break };
        stats.bytes_sorted += chunk.len() as u64;
        framer.push(&chunk, |frame: &[u8]| {
            cur.extend_from_slice(frame);
            cur_records += 1;
            if cur_records == cfg.run_records {
                run_bufs.push(std::mem::take(&mut cur));
                cur_records = 0;
            }
            Ok::<(), io::Error>(())
        })?;
    }
    framer.finish()?;
    if !cur.is_empty() {
        run_bufs.push(cur);
    }

    // ---- run formation ----------------------------------------------------
    let runs = timed_phase(obs::phase::SORT, &mut stats.sort_time, || {
        form_runs(run_bufs, cfg.workers)
    })?;
    for r in &runs {
        stats.runs += 1;
        stats.run_lengths.push(r.len() as u64);
        stats.records += r.len() as u64;
    }
    if stats.records == 0 {
        let bytes = timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.complete())?;
        stats.elapsed = t_start.elapsed();
        return Ok(SortOutcome {
            stats,
            bytes,
            plan: PassPlan::OnePass,
        });
    }

    // ---- merge + gather + output ------------------------------------------
    let refs: Vec<&VarRun> = runs.iter().collect();
    if cfg.merge_workers > 0 {
        partitioned_merge(&refs, cfg, &mut stats, sink)?;
    } else {
        let mut merger = VarRunMerger::new(refs, MergeMode::Ovc);
        let mut ptrs = Vec::with_capacity(cfg.gather_batch);
        loop {
            ptrs.clear();
            timed_phase(obs::phase::MERGE, &mut stats.merge_time, || {
                for _ in 0..cfg.gather_batch {
                    match merger.next() {
                        Some(p) => ptrs.push(p),
                        None => break,
                    }
                }
            });
            if ptrs.is_empty() {
                break;
            }
            let mut buf = Vec::new();
            timed_phase(obs::phase::GATHER, &mut stats.gather_time, || {
                gather_var_into(&runs, &ptrs, &mut buf)
            });
            timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.push(&buf))?;
        }
    }
    let bytes = timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.complete())?;
    stats.elapsed = t_start.elapsed();
    obs::metrics::counter_add("sort.records", stats.records);
    obs::metrics::counter_add("sort.bytes", stats.bytes_sorted);
    top.attr("records", stats.records);
    top.attr("bytes", stats.bytes_sorted);
    Ok(SortOutcome {
        stats,
        bytes,
        plan: PassPlan::OnePass,
    })
}

/// In-memory scratch for var-len two-pass sorts: sealed runs tagged with
/// the input record index they start at, recovered spans packed around by
/// the same cursor dance as [`crate::driver::MemScratch`].
#[derive(Default)]
pub struct MemVarScratch {
    runs: Vec<(u64, VarRun)>,
    cursor: u64,
    pending_spans: VecDeque<RecoveredRun>,
    recovered: Vec<RecoveredRun>,
}

impl MemVarScratch {
    /// Fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A scratch that pretends to have survived a crash: each entry is a
    /// sealed run payload (sorted var-len frames) tagged with the input
    /// record index it starts at. Payloads are re-validated on the way in
    /// ([`VarRun::presorted`]) — a corrupt "recovered" run is an error
    /// here, not a silent mis-merge later.
    pub fn with_recovered(runs: Vec<(u64, Vec<u8>)>) -> io::Result<Self> {
        let mut parsed = Vec::with_capacity(runs.len());
        for (start, data) in runs {
            parsed.push((start, VarRun::presorted(data)?));
        }
        let mut spans: Vec<RecoveredRun> = parsed
            .iter()
            .map(|(start, run)| RecoveredRun {
                start_record: *start,
                records: run.len() as u64,
            })
            .collect();
        spans.sort_by_key(|s| s.start_record);
        Ok(MemVarScratch {
            runs: parsed,
            cursor: 0,
            pending_spans: spans.iter().copied().collect(),
            recovered: spans,
        })
    }

    /// Number of sealed runs (recovered ones included).
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Spans surviving from a previous attempt, sorted by start.
    pub fn recovered_runs(&self) -> Vec<RecoveredRun> {
        self.recovered.clone()
    }

    /// Seal a freshly formed run: it starts where the cursor is, jumping
    /// over any recovered span the cursor has reached (that range is
    /// already covered).
    fn seal(&mut self, run: VarRun) {
        while let Some(s) = self.pending_spans.front() {
            if s.start_record == self.cursor {
                self.cursor += s.records;
                self.pending_spans.pop_front();
            } else {
                break;
            }
        }
        let records = run.len() as u64;
        self.runs.push((self.cursor, run));
        self.cursor += records;
    }

    /// The sealed runs in input order — what the merge tie-break needs (a
    /// resumed scratch seals re-formed runs after the recovered ones even
    /// though they interleave in the input).
    fn runs_in_input_order(&mut self) -> Vec<&VarRun> {
        self.runs.sort_by_key(|(start, _)| *start);
        self.runs.iter().map(|(_, r)| r).collect()
    }
}

/// Sort var-len `source` into `sink`, staging runs in `scratch` — the
/// var-len [`crate::driver::two_pass`]. A resumed scratch's recovered
/// spans are skipped during pass 1 (their records already sit in scratch,
/// sorted) and only the gaps are re-formed.
pub fn two_pass_var<Src, Snk>(
    source: &mut Src,
    sink: &mut Snk,
    scratch: &mut MemVarScratch,
    cfg: &SortConfig,
) -> io::Result<SortOutcome>
where
    Src: RecordSource,
    Snk: RecordSink,
{
    assert!(cfg.run_records > 0 && cfg.gather_batch > 0);
    let mut top = obs::span(obs::phase::TWO_PASS);
    let t_start = Instant::now();
    let mut stats = SortStats {
        one_pass: false,
        ..Default::default()
    };

    // ---- pass 1: frame, skip recovered spans, form + seal gap runs --------
    let mut pending: VecDeque<RecoveredRun> = {
        let mut spans = scratch.recovered_runs();
        spans.sort_by_key(|r| r.start_record);
        spans.into()
    };
    let resuming = !pending.is_empty();
    let mut framer = VarFramer::new();
    let mut cur: Vec<u8> = Vec::new();
    let mut cur_records = 0usize;
    // Absolute record index within the input.
    let mut abs_rec: u64 = 0;
    // Borrowed mutably by the closure below; drained into stats afterwards.
    let mut sort_time = std::time::Duration::ZERO;
    let mut seal_counters = (0u64, Vec::new()); // (runs_reformed, run_lengths)
    loop {
        let t0 = Instant::now();
        let chunk = source.next_chunk();
        stats.read_wait += t0.elapsed();
        let Some(chunk) = chunk? else { break };
        stats.bytes_sorted += chunk.len() as u64;
        framer.push(&chunk, |frame: &[u8]| -> io::Result<()> {
            // Inside a recovered span: the record already sits in scratch,
            // sorted. A gap run in progress must end exactly here.
            if let Some(s) = pending.front() {
                if abs_rec >= s.start_record {
                    if cur_records > 0 {
                        let run = timed_phase(obs::phase::SORT, &mut sort_time, || {
                            VarRun::from_frames(std::mem::take(&mut cur))
                        })?;
                        seal_counters.0 += 1;
                        seal_counters.1.push(run.len() as u64);
                        scratch.seal(run);
                        cur_records = 0;
                    }
                    abs_rec += 1;
                    if abs_rec == s.start_record + s.records {
                        pending.pop_front();
                    }
                    return Ok(());
                }
            }
            cur.extend_from_slice(frame);
            cur_records += 1;
            abs_rec += 1;
            let until_span = pending
                .front()
                .map(|s| s.start_record == abs_rec)
                .unwrap_or(false);
            if cur_records == cfg.run_records || until_span {
                let run = timed_phase(obs::phase::SORT, &mut sort_time, || {
                    VarRun::from_frames(std::mem::take(&mut cur))
                })?;
                seal_counters.0 += 1;
                seal_counters.1.push(run.len() as u64);
                scratch.seal(run);
                cur_records = 0;
            }
            Ok(())
        })?;
    }
    framer.finish()?;
    if cur_records > 0 {
        let run = timed_phase(obs::phase::SORT, &mut sort_time, || {
            VarRun::from_frames(std::mem::take(&mut cur))
        })?;
        seal_counters.0 += 1;
        seal_counters.1.push(run.len() as u64);
        scratch.seal(run);
    }
    stats.sort_time += sort_time;
    if resuming {
        stats.runs_reformed = seal_counters.0;
        obs::metrics::counter_add("run.reformed", seal_counters.0);
    }
    if let Some(s) = pending.front() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "recovered var-len run covering records {}..{} extends past the \
                 input ({abs_rec} records read); wrong or truncated input for \
                 this scratch",
                s.start_record,
                s.start_record + s.records,
            ),
        ));
    }
    for s in &scratch.recovered {
        stats.runs_recovered += 1;
        obs::metrics::counter_add("run.recovered", 1);
        seal_counters.1.push(s.records);
    }
    stats.runs = scratch.run_count() as u64;
    stats.records = seal_counters.1.iter().sum();
    stats.run_lengths = seal_counters.1;

    if stats.records == 0 {
        let bytes = timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.complete())?;
        stats.elapsed = t_start.elapsed();
        return Ok(SortOutcome {
            stats,
            bytes,
            plan: PassPlan::TwoPass,
        });
    }

    // ---- pass 2: final merge in input order -------------------------------
    let refs = scratch.runs_in_input_order();
    if cfg.merge_workers > 0 {
        partitioned_merge(&refs, cfg, &mut stats, sink)?;
    } else {
        // Serial: stream cursors supply formation-time LCP hints, so the
        // winner's successor offset is O(1) here too.
        let cursors: Vec<VarRunCursor> = refs.iter().map(|r| VarRunCursor::new(r)).collect();
        let mut merger = VarStreamMerger::new(cursors, MergeMode::Ovc);
        let mut staging: Vec<u8> = Vec::new();
        loop {
            let done = timed_phase(
                obs::phase::MERGE,
                &mut stats.merge_time,
                || -> io::Result<bool> {
                    for _ in 0..cfg.gather_batch {
                        if !merger.next_into(&mut staging)? {
                            return Ok(true);
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
    }
    let bytes = timed_phase(obs::phase::WRITE, &mut stats.write_wait, || sink.complete())?;
    stats.elapsed = t_start.elapsed();
    obs::metrics::counter_add("sort.records", stats.records);
    obs::metrics::counter_add("sort.bytes", stats.bytes_sorted);
    top.attr("records", stats.records);
    top.attr("bytes", stats.bytes_sorted);
    Ok(SortOutcome {
        stats,
        bytes,
        plan: PassPlan::TwoPass,
    })
}

/// Whole-buffer baseline: form one run, emit its sorted frames. The
/// differential oracle's cheapest var-len reference after `sort_by` itself.
pub fn sort_var_bytes(input: &[u8]) -> io::Result<Vec<u8>> {
    Ok(VarRun::from_frames(input.to_vec())?.sorted_bytes())
}

/// Shared-nothing partitioned baseline: sample byte-string splitters,
/// scatter frames by [`route_bytes`], sort each part independently, and
/// concatenate. Routing is pure in the key and scatter preserves arrival
/// order within a part, so the result is byte-identical to
/// [`sort_var_bytes`] for any `parts`.
pub fn partition_sort_var(input: &[u8], parts: usize) -> io::Result<Vec<u8>> {
    assert!(parts >= 1);
    let recs = alphasort_dmgen::var_records_of(input)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let n = recs.len();
    let mut pool = Vec::new();
    if parts > 1 && n > 0 {
        let count = (parts * SAMPLES_PER_RANGE).min(n);
        for i in 0..count {
            let idx = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) % n as u64;
            pool.push(recs[idx as usize].key().to_vec());
        }
    }
    let splitters = byte_splitters_from_keys(pool, parts);
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); parts];
    for r in &recs {
        outs[route_bytes(r.key(), &splitters)].extend_from_slice(r.frame());
    }
    let mut out = Vec::with_capacity(input.len());
    for part in outs {
        out.extend_from_slice(&VarRun::from_frames(part)?.sorted_bytes());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{MemSink, MemSource};
    use alphasort_dmgen::{generate_varlen, var_records_of, TextCorpus, VarGenConfig};

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

    fn one_pass_of(data: &[u8], cfg: &SortConfig) -> (Vec<u8>, SortOutcome) {
        let mut source = MemSource::new(data.to_vec(), 4_099); // ragged on purpose
        let mut sink = MemSink::new();
        let outcome = one_pass_var(&mut source, &mut sink, cfg).unwrap();
        (sink.into_inner(), outcome)
    }

    fn two_pass_of(data: &[u8], cfg: &SortConfig) -> (Vec<u8>, SortOutcome) {
        let mut source = MemSource::new(data.to_vec(), 4_099);
        let mut sink = MemSink::new();
        let mut scratch = MemVarScratch::new();
        let outcome = two_pass_var(&mut source, &mut sink, &mut scratch, cfg).unwrap();
        (sink.into_inner(), outcome)
    }

    #[test]
    fn one_pass_matches_stable_sort_on_every_corpus() {
        let cfg = SortConfig {
            run_records: 150,
            gather_batch: 64,
            ..Default::default()
        };
        for corpus in TextCorpus::ALL {
            let data = corpus_bytes(corpus, 800, 0x51);
            let (got, outcome) = one_pass_of(&data, &cfg);
            assert_eq!(got, stable_reference(&data), "{}", corpus.name());
            assert_eq!(outcome.stats.records, 800);
            assert_eq!(outcome.bytes as usize, data.len());
        }
    }

    #[test]
    fn workers_and_partitioned_merge_are_byte_identical() {
        let data = corpus_bytes(TextCorpus::Urls, 3_000, 0x52);
        let base = SortConfig {
            run_records: 250,
            gather_batch: 100,
            ..Default::default()
        };
        let (serial, _) = one_pass_of(&data, &base);
        for (workers, merge_workers) in [(2, 0), (3, 1), (2, 2), (4, 4), (2, 8)] {
            let cfg = SortConfig {
                workers,
                merge_workers,
                ..base.clone()
            };
            let (got, outcome) = one_pass_of(&data, &cfg);
            assert_eq!(got, serial, "workers={workers} merge_workers={merge_workers}");
            if merge_workers > 0 {
                assert_eq!(outcome.stats.merge_range_records.len(), merge_workers);
                assert_eq!(
                    outcome.stats.merge_range_records.iter().sum::<u64>(),
                    3_000
                );
            }
        }
    }

    #[test]
    fn two_pass_matches_one_pass() {
        let cfg = SortConfig {
            run_records: 120,
            gather_batch: 77,
            ..Default::default()
        };
        for corpus in [
            TextCorpus::LogLines,
            TextCorpus::ZipfianWords { max_words: 4 },
            TextCorpus::EmptyKey,
        ] {
            let data = corpus_bytes(corpus, 900, 0x53);
            let (one, _) = one_pass_of(&data, &cfg);
            let (two, outcome) = two_pass_of(&data, &cfg);
            assert_eq!(two, one, "{}", corpus.name());
            assert!(!outcome.stats.one_pass);
            assert_eq!(outcome.stats.runs, 900usize.div_ceil(120) as u64);
        }
    }

    #[test]
    fn two_pass_partitioned_is_byte_identical() {
        let data = corpus_bytes(
            TextCorpus::SharedMegaPrefix {
                prefix: 32,
                suffix: 6,
            },
            2_000,
            0x54,
        );
        let base = SortConfig {
            run_records: 170,
            gather_batch: 64,
            ..Default::default()
        };
        let (serial, _) = two_pass_of(&data, &base);
        for merge_workers in [1, 2, 4, 8] {
            let cfg = SortConfig {
                merge_workers,
                ..base.clone()
            };
            let (got, outcome) = two_pass_of(&data, &cfg);
            assert_eq!(got, serial, "{merge_workers} ranges diverged");
            assert_eq!(outcome.stats.merge_range_records.len(), merge_workers);
        }
    }

    #[test]
    fn resumed_two_pass_reuses_recovered_runs() {
        // A previous attempt formed the middle run (records 300..600): the
        // retry must skip that input range, re-form only the flanks, and
        // still produce the serial output byte for byte.
        let data = corpus_bytes(TextCorpus::Urls, 1_200, 0x55);
        let cfg = SortConfig {
            run_records: 300,
            gather_batch: 100,
            ..Default::default()
        };
        let (serial, _) = two_pass_of(&data, &cfg);
        let recs = var_records_of(&data).unwrap();
        let mut middle: Vec<u8> = Vec::new();
        let mut idx: Vec<usize> = (300..600).collect();
        idx.sort_by(|&a, &b| recs[a].key().cmp(recs[b].key()).then(a.cmp(&b)));
        for i in idx {
            middle.extend_from_slice(recs[i].frame());
        }
        for merge_workers in [0, 3] {
            let mut source = MemSource::new(data.clone(), 4_099);
            let mut sink = MemSink::new();
            let mut scratch = MemVarScratch::with_recovered(vec![(300, middle.clone())]).unwrap();
            let cfg = SortConfig {
                merge_workers,
                ..cfg.clone()
            };
            let outcome = two_pass_var(&mut source, &mut sink, &mut scratch, &cfg).unwrap();
            assert_eq!(outcome.stats.runs, 4);
            assert_eq!(outcome.stats.runs_recovered, 1);
            assert_eq!(outcome.stats.runs_reformed, 3);
            assert_eq!(sink.data(), &serial[..], "merge_workers={merge_workers}");
        }
    }

    #[test]
    fn recovered_span_past_input_is_an_error() {
        let data = corpus_bytes(TextCorpus::Urls, 100, 0x56);
        let sorted = stable_reference(&data);
        let mut source = MemSource::new(data, 4_099);
        let mut sink = MemSink::new();
        // Claims to cover records 500..600 of a 100-record input.
        let mut scratch = MemVarScratch::with_recovered(vec![(500, sorted)]).unwrap();
        let err = two_pass_var(&mut source, &mut sink, &mut scratch, &SortConfig::default())
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("extends past the input"), "{err}");
    }

    #[test]
    fn truncated_input_is_attributed() {
        let mut data = corpus_bytes(TextCorpus::LogLines, 50, 0x57);
        data.truncate(data.len() - 3);
        let mut source = MemSource::new(data, 512);
        let mut sink = MemSink::new();
        let err = one_pass_var(&mut source, &mut sink, &SortConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("mid-record"), "{err}");
    }

    #[test]
    fn empty_input() {
        let mut source = MemSource::new(Vec::new(), 512);
        let mut sink = MemSink::new();
        let outcome = one_pass_var(&mut source, &mut sink, &SortConfig::default()).unwrap();
        assert_eq!(outcome.bytes, 0);
        assert_eq!(outcome.stats.records, 0);
        let mut source = MemSource::new(Vec::new(), 512);
        let mut scratch = MemVarScratch::new();
        let outcome =
            two_pass_var(&mut source, &mut sink, &mut scratch, &SortConfig::default()).unwrap();
        assert_eq!(outcome.stats.records, 0);
    }

    #[test]
    fn partition_sort_matches_serial_baseline() {
        for corpus in TextCorpus::ALL {
            let data = corpus_bytes(corpus, 700, 0x58);
            let serial = sort_var_bytes(&data).unwrap();
            assert_eq!(serial, stable_reference(&data), "{}", corpus.name());
            for parts in [1, 2, 4, 8] {
                assert_eq!(
                    partition_sort_var(&data, parts).unwrap(),
                    serial,
                    "{} parts={parts}",
                    corpus.name()
                );
            }
        }
    }
}
