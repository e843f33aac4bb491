//! Shared-memory multiprocessor decomposition (§5).
//!
//! "The root process breaks up the sorting work into independent chores
//! that can be handled by the workers. Chores during the QuickSort phase
//! consist of QuickSorting a data run. … During the merge phase, the root
//! merges all the (key-prefix, pointer) pairs to produce a sorted string of
//! record pointers. Workers perform the memory-intensive chores of
//! gathering records into output buffers."
//!
//! [`SortPool`] is the QuickSort-chore pool; [`GatherPool`] the gather-chore
//! pool. Both degrade to inline execution with zero workers (the paper's
//! uniprocessor case, where the root does sorting "in its spare time").

use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alphasort_obs as obs;

use alphasort_dmgen::RECORD_LEN;

use crate::gather::gather_into;
use crate::merge::{MergedPtr, RunMerger};
use crate::runform::{form_run, Representation, SortedRun};
use crate::stats::SortStats;

/// Sort one run buffer under an obs span (whether on a worker or inline).
fn form_run_traced(id: usize, buf: Vec<u8>, rep: Representation) -> (SortedRun, Duration) {
    let mut g = obs::span(obs::phase::SORT);
    g.attr("run", id as u64);
    let t0 = Instant::now();
    let run = form_run(buf, rep);
    let d = t0.elapsed();
    g.attr("records", run.len() as u64);
    obs::metrics::observe("sort.run_us", d.as_micros() as u64);
    (run, d)
}

/// Gather one pointer batch under an obs span.
fn gather_traced(id: u64, runs: &[SortedRun], ptrs: &[MergedPtr]) -> (Vec<u8>, Duration) {
    let mut g = obs::span(obs::phase::GATHER);
    g.attr("batch", id);
    g.attr("records", ptrs.len() as u64);
    let t0 = Instant::now();
    let mut buf = Vec::new();
    gather_into(runs, ptrs, &mut buf);
    let d = t0.elapsed();
    obs::metrics::observe("gather.batch_us", d.as_micros() as u64);
    (buf, d)
}

/// Pool of workers QuickSorting run buffers as they arrive from input.
pub struct SortPool {
    rep: Representation,
    tx: Option<Sender<(usize, Vec<u8>)>>,
    rx: Receiver<(usize, SortedRun, Duration)>,
    handles: Vec<JoinHandle<()>>,
    /// Out-of-order completions parked until their turn.
    parked: BTreeMap<usize, (SortedRun, Duration)>,
    submitted: usize,
    delivered: usize,
}

impl SortPool {
    /// Create a pool with `workers` threads (0 = sort inline on submit).
    pub fn new(workers: usize, rep: Representation) -> Self {
        let (tx, work_rx) = channel::<(usize, Vec<u8>)>();
        // std mpsc receivers are single-consumer; workers share one behind a
        // mutex, holding the lock only while dequeuing (MPMC work queue).
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (res_tx, rx) = channel();
        // Workers inherit the submitting thread's trace track so per-node
        // traces (netsort) keep their pool spans on the right lane.
        let track = obs::current_track();
        let handles = (0..workers)
            .map(|w| {
                let work_rx = Arc::clone(&work_rx);
                let res_tx = res_tx.clone();
                let track = track.clone();
                std::thread::Builder::new()
                    .name(format!("sort-worker-{w}"))
                    .spawn(move || {
                        obs::adopt_track(track);
                        loop {
                            let msg = work_rx.lock().unwrap().recv();
                            let Ok((id, buf)) = msg else { break };
                            let (run, d) = form_run_traced(id, buf, rep);
                            let _ = res_tx.send((id, run, d));
                        }
                    })
                    .expect("failed to spawn sort worker")
            })
            .collect();
        SortPool {
            rep,
            tx: if workers > 0 { Some(tx) } else { None },
            rx,
            handles,
            parked: BTreeMap::new(),
            submitted: 0,
            delivered: 0,
        }
    }

    /// Submit one run buffer for sorting. With zero workers this sorts
    /// immediately on the caller's thread.
    pub fn submit(&mut self, buf: Vec<u8>) {
        let id = self.submitted;
        self.submitted += 1;
        match &self.tx {
            Some(tx) => tx.send((id, buf)).expect("sort workers gone"),
            None => {
                let (run, d) = form_run_traced(id, buf, self.rep);
                self.parked.insert(id, (run, d));
            }
        }
    }

    /// Runs submitted but not yet delivered.
    pub fn outstanding(&self) -> usize {
        self.submitted - self.delivered
    }

    /// Move everything already sitting in the result channel to `parked`.
    fn absorb_ready(&mut self) {
        while let Ok((id, run, d)) = self.rx.try_recv() {
            self.parked.insert(id, (run, d));
        }
    }

    /// The next run in submission order if it has already been sorted;
    /// never blocks. Use during input so spilling overlaps reading.
    pub fn try_next_in_order(&mut self) -> Option<(SortedRun, Duration)> {
        self.absorb_ready();
        let r = self.parked.remove(&self.delivered)?;
        self.delivered += 1;
        Some(r)
    }

    /// The next run in submission order, blocking until it is sorted.
    /// `None` once everything submitted has been delivered.
    pub fn next_in_order(&mut self) -> Option<(SortedRun, Duration)> {
        if self.delivered >= self.submitted {
            return None;
        }
        while !self.parked.contains_key(&self.delivered) {
            let (id, run, d) = self.rx.recv().expect("sort worker died");
            self.parked.insert(id, (run, d));
        }
        let r = self.parked.remove(&self.delivered).expect("present");
        self.delivered += 1;
        Some(r)
    }

    /// Wait for every submitted run. Returns the runs in submission order
    /// plus the pool's stats: per-run fragments (sort CPU, run counts and
    /// lengths) folded through [`SortStats::merge`].
    pub fn finish(mut self) -> (Vec<SortedRun>, SortStats) {
        drop(self.tx.take()); // close the queue so workers exit when drained
        let mut runs = Vec::with_capacity(self.outstanding());
        let mut stats = SortStats::neutral();
        while let Some((run, d)) = self.next_in_order() {
            let mut frag = SortStats::neutral();
            frag.sort_time = d;
            frag.runs = 1;
            frag.records = run.len() as u64;
            frag.run_lengths.push(run.len() as u64);
            stats.merge(&frag);
            runs.push(run);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
        (runs, stats)
    }
}

impl Drop for SortPool {
    /// Dropping without [`finish`](SortPool::finish) (e.g. on an IO error
    /// mid-sort) still closes the work queue and joins the workers, so no
    /// threads outlive the pool.
    fn drop(&mut self) {
        drop(self.tx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Pool of workers gathering records into output buffers from a merged
/// pointer string. The root submits pointer batches; completed buffers come
/// back **in submission order** so the writer can stream them out.
pub struct GatherPool {
    runs: Arc<Vec<SortedRun>>,
    tx: Option<Sender<(u64, Vec<MergedPtr>)>>,
    rx: Receiver<(u64, Vec<u8>, Duration)>,
    handles: Vec<JoinHandle<()>>,
    /// Out-of-order completions parked until their turn.
    parked: BTreeMap<u64, (Vec<u8>, Duration)>,
    next_submit: u64,
    next_deliver: u64,
    /// Per-batch fragments folded through [`SortStats::merge`].
    stats: SortStats,
}

impl GatherPool {
    /// Create a pool with `workers` threads (0 = gather inline).
    pub fn new(workers: usize, runs: Arc<Vec<SortedRun>>) -> Self {
        let (tx, work_rx) = channel::<(u64, Vec<MergedPtr>)>();
        // Shared single receiver behind a mutex, as in `SortPool::new`.
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (res_tx, rx) = channel();
        let track = obs::current_track();
        let handles = (0..workers)
            .map(|w| {
                let work_rx = Arc::clone(&work_rx);
                let res_tx = res_tx.clone();
                let runs = Arc::clone(&runs);
                let track = track.clone();
                std::thread::Builder::new()
                    .name(format!("gather-worker-{w}"))
                    .spawn(move || {
                        obs::adopt_track(track);
                        loop {
                            let msg = work_rx.lock().unwrap().recv();
                            let Ok((id, ptrs)) = msg else { break };
                            let (buf, d) = gather_traced(id, &runs, &ptrs);
                            let _ = res_tx.send((id, buf, d));
                        }
                    })
                    .expect("failed to spawn gather worker")
            })
            .collect();
        GatherPool {
            runs,
            tx: if workers > 0 { Some(tx) } else { None },
            rx,
            handles,
            parked: BTreeMap::new(),
            next_submit: 0,
            next_deliver: 0,
            stats: SortStats::neutral(),
        }
    }

    /// Submit the next pointer batch (batches are implicitly numbered).
    pub fn submit(&mut self, ptrs: Vec<MergedPtr>) {
        let id = self.next_submit;
        self.next_submit += 1;
        match &self.tx {
            Some(tx) => tx.send((id, ptrs)).expect("gather workers gone"),
            None => {
                let (buf, d) = gather_traced(id, &self.runs, &ptrs);
                self.parked.insert(id, (buf, d));
            }
        }
    }

    /// Stats accumulated so far (gather CPU across delivered batches).
    pub fn stats(&self) -> &SortStats {
        &self.stats
    }

    /// Number of batches submitted but not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.next_submit - self.next_deliver
    }

    /// Block for the next buffer in submission order. `None` once every
    /// submitted batch has been delivered.
    pub fn next_buffer(&mut self) -> Option<Vec<u8>> {
        if self.next_deliver >= self.next_submit {
            return None;
        }
        loop {
            if let Some((buf, d)) = self.parked.remove(&self.next_deliver) {
                self.next_deliver += 1;
                let mut frag = SortStats::neutral();
                frag.gather_time = d;
                self.stats.merge(&frag);
                return Some(buf);
            }
            let (id, buf, d) = self.rx.recv().expect("gather worker died");
            self.parked.insert(id, (buf, d));
        }
    }
}

impl Drop for GatherPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// Merge + gather one key range into a pre-sized buffer, under an obs span
/// on the worker's track (the Figure 7 report shows the ranges overlapping).
fn merge_range_traced(
    range: usize,
    runs: &[SortedRun],
    bounds: &[(u32, u32)],
) -> (Vec<u8>, Duration) {
    let mut g = obs::span(obs::phase::MERGE);
    g.attr("range", range as u64);
    let t0 = Instant::now();
    let records: usize = bounds.iter().map(|&(s, e)| (e - s) as usize).sum();
    let mut buf = Vec::with_capacity(records * RECORD_LEN);
    for p in RunMerger::with_bounds(runs, bounds) {
        buf.extend_from_slice(runs[p.run as usize].record_at(p.pos as usize).as_bytes());
    }
    let d = t0.elapsed();
    g.attr("records", records as u64);
    obs::metrics::observe("merge.range_us", d.as_micros() as u64);
    (buf, d)
}

/// A submitted range: its index plus the per-run `(start, end)` bounds.
type RangeJob = (usize, Vec<(u32, u32)>);

/// Pool of workers each running one key range's loser-tree merge (fused
/// with its gather) over a shared run set. The root submits the ranges of
/// a [`crate::pmerge::MergePartition`] and drains the output buffers **in
/// range order**, which concatenates to the serial merge's output.
pub struct MergePool {
    runs: Arc<Vec<SortedRun>>,
    tx: Option<Sender<RangeJob>>,
    rx: Receiver<(usize, Vec<u8>, Duration)>,
    handles: Vec<JoinHandle<()>>,
    /// Out-of-order completions parked until their turn.
    parked: BTreeMap<usize, (Vec<u8>, Duration)>,
    submitted: usize,
    delivered: usize,
}

impl MergePool {
    /// Create a pool with `workers` threads (0 = merge inline on submit).
    pub fn new(workers: usize, runs: Arc<Vec<SortedRun>>) -> Self {
        let (tx, work_rx) = channel::<RangeJob>();
        // Shared single receiver behind a mutex, as in `SortPool::new`.
        let work_rx = Arc::new(Mutex::new(work_rx));
        let (res_tx, rx) = channel();
        let track = obs::current_track();
        let handles = (0..workers)
            .map(|w| {
                let work_rx = Arc::clone(&work_rx);
                let res_tx = res_tx.clone();
                let runs = Arc::clone(&runs);
                let track = track.clone();
                std::thread::Builder::new()
                    .name(format!("merge-worker-{w}"))
                    .spawn(move || {
                        obs::adopt_track(track);
                        loop {
                            let msg = work_rx.lock().unwrap().recv();
                            let Ok((id, bounds)) = msg else { break };
                            let (buf, d) = merge_range_traced(id, &runs, &bounds);
                            let _ = res_tx.send((id, buf, d));
                        }
                    })
                    .expect("failed to spawn merge worker")
            })
            .collect();
        MergePool {
            runs,
            tx: if workers > 0 { Some(tx) } else { None },
            rx,
            handles,
            parked: BTreeMap::new(),
            submitted: 0,
            delivered: 0,
        }
    }

    /// Submit the next range's per-run bounds (ranges are implicitly
    /// numbered in submission order).
    pub fn submit(&mut self, bounds: Vec<(u32, u32)>) {
        let id = self.submitted;
        self.submitted += 1;
        match &self.tx {
            Some(tx) => tx.send((id, bounds)).expect("merge workers gone"),
            None => {
                let (buf, d) = merge_range_traced(id, &self.runs, &bounds);
                self.parked.insert(id, (buf, d));
            }
        }
    }

    /// Block for the next range's output buffer, in range order. `None`
    /// once every submitted range has been delivered.
    pub fn next_in_order(&mut self) -> Option<(Vec<u8>, Duration)> {
        if self.delivered >= self.submitted {
            return None;
        }
        while !self.parked.contains_key(&self.delivered) {
            let (id, buf, d) = self.rx.recv().expect("merge worker died");
            self.parked.insert(id, (buf, d));
        }
        let r = self.parked.remove(&self.delivered).expect("present");
        self.delivered += 1;
        Some(r)
    }
}

impl Drop for MergePool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::merge::RunMerger;
    use alphasort_dmgen::{generate, validate_records, GenConfig, RECORD_LEN};

    fn run_buffers(n: u64, per_run: usize) -> (alphasort_dmgen::Checksum, Vec<Vec<u8>>) {
        let (data, cs) = generate(GenConfig::datamation(n, 55));
        let bufs = data
            .chunks(per_run * RECORD_LEN)
            .map(|c| c.to_vec())
            .collect();
        (cs, bufs)
    }

    fn sort_with_pool(workers: usize) {
        let (cs, bufs) = run_buffers(3_000, 256);
        let mut pool = SortPool::new(workers, Representation::KeyPrefix);
        for b in bufs {
            pool.submit(b);
        }
        let (runs, pstats) = pool.finish();
        assert_eq!(runs.len(), 12);
        assert!(pstats.sort_time > Duration::ZERO);
        assert_eq!(pstats.runs, 12);
        assert_eq!(pstats.records, 3_000);

        let runs = Arc::new(runs);
        let mut merger = RunMerger::new(&runs);
        let mut gather = GatherPool::new(workers, Arc::clone(&runs));
        let mut out = Vec::new();
        loop {
            let ptrs = crate::gather::take_ptrs(&mut merger, 500);
            if ptrs.is_empty() {
                break;
            }
            gather.submit(ptrs);
            // Keep at most 3 batches in flight (triple buffering analogue).
            while gather.in_flight() > 3 {
                out.extend_from_slice(&gather.next_buffer().unwrap());
            }
        }
        while let Some(buf) = gather.next_buffer() {
            out.extend_from_slice(&buf);
        }
        let report = validate_records(&out, cs).unwrap();
        assert_eq!(report.records, 3_000);
    }

    #[test]
    fn inline_pools_sort_correctly() {
        sort_with_pool(0);
    }

    #[test]
    fn one_worker_pools_sort_correctly() {
        sort_with_pool(1);
    }

    #[test]
    fn many_worker_pools_sort_correctly() {
        sort_with_pool(4);
    }

    #[test]
    fn sort_pool_preserves_submission_order() {
        let (_, bufs) = run_buffers(1_000, 100);
        let firsts: Vec<u64> = bufs
            .iter()
            .map(|b| alphasort_dmgen::records_of(b)[0].seq())
            .collect();
        let mut pool = SortPool::new(3, Representation::Record);
        for b in bufs {
            pool.submit(b);
        }
        let (runs, _) = pool.finish();
        // Run i must still hold the records of chunk i (identified by the
        // sequence number stamped at generation).
        for (i, run) in runs.iter().enumerate() {
            let seqs: Vec<u64> = run.records().iter().map(|r| r.seq()).collect();
            let lo = firsts[i];
            assert!(
                seqs.iter().all(|&s| s / 100 == lo / 100),
                "run {i} shuffled"
            );
        }
    }

    #[test]
    fn pools_can_be_dropped_mid_stream_without_hanging() {
        // Submit work, deliver some of it, then drop both pools: Drop must
        // close queues and join workers (a hang here fails the test by
        // timeout).
        let (_, bufs) = run_buffers(1_000, 100);
        let mut pool = SortPool::new(2, Representation::KeyPrefix);
        for b in bufs {
            pool.submit(b);
        }
        let _ = pool.next_in_order();
        drop(pool);

        let (_, bufs) = run_buffers(500, 100);
        let mut sp = SortPool::new(1, Representation::KeyPrefix);
        for b in bufs {
            sp.submit(b);
        }
        let (runs, _) = sp.finish();
        let runs = Arc::new(runs);
        let mut merger = RunMerger::new(&runs);
        let mut gather = GatherPool::new(2, Arc::clone(&runs));
        gather.submit(crate::gather::take_ptrs(&mut merger, 100));
        gather.submit(crate::gather::take_ptrs(&mut merger, 100));
        let _ = gather.next_buffer();
        drop(gather); // one batch still parked/in flight
    }

    #[test]
    fn merge_pool_output_matches_serial_merge_gather() {
        let (cs, bufs) = run_buffers(4_000, 300);
        let mut pool = SortPool::new(2, Representation::KeyPrefix);
        for b in bufs {
            pool.submit(b);
        }
        let (runs, _) = pool.finish();
        let runs = Arc::new(runs);
        // Serial reference: full merge + gather.
        let serial = crate::gather::merge_gather_all(&runs);
        for workers in [0, 1, 3] {
            let plan = crate::pmerge::plan_mem_partitions(&runs, 4, 16);
            let mut mp = MergePool::new(workers, Arc::clone(&runs));
            for row in &plan.bounds {
                mp.submit(row.iter().map(|&(s, e)| (s as u32, e as u32)).collect());
            }
            let mut out = Vec::new();
            while let Some((buf, _)) = mp.next_in_order() {
                out.extend_from_slice(&buf);
            }
            assert_eq!(out, serial, "{workers} workers");
            validate_records(&out, cs).unwrap();
        }
    }

    #[test]
    fn gather_pool_delivers_in_order_despite_racing_workers() {
        let (_, bufs) = run_buffers(2_000, 200);
        let mut pool = SortPool::new(2, Representation::KeyPrefix);
        for b in bufs {
            pool.submit(b);
        }
        let (runs, _) = pool.finish();
        let runs = Arc::new(runs);
        let mut merger = RunMerger::new(&runs);
        let mut gather = GatherPool::new(4, Arc::clone(&runs));
        let mut batches = 0;
        loop {
            let ptrs = crate::gather::take_ptrs(&mut merger, 37);
            if ptrs.is_empty() {
                break;
            }
            gather.submit(ptrs);
            batches += 1;
        }
        let mut out = Vec::new();
        while let Some(buf) = gather.next_buffer() {
            out.extend_from_slice(&buf);
        }
        assert!(batches > 10);
        let recs = alphasort_dmgen::records_of(&out);
        assert_eq!(recs.len(), 2_000);
        assert!(recs.windows(2).all(|w| w[0].key <= w[1].key));
    }
}
