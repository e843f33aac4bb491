//! Shared-memory multiprocessor decomposition (§5).
//!
//! "The root process breaks up the sorting work into independent chores
//! that can be handled by the workers. Chores during the QuickSort phase
//! consist of QuickSorting a data run. … During the merge phase, the root
//! merges all the (key-prefix, pointer) pairs to produce a sorted string of
//! record pointers. Workers perform the memory-intensive chores of
//! gathering records into output buffers."
//!
//! One [`OrderedPool`] serves every chore: the root submits jobs, workers
//! run the chore, and results come back **in submission order** so runs
//! reach scratch and buffers reach the sink in the order the root cut
//! them. With zero workers the chore runs inline on submit (the paper's
//! uniprocessor case, where the root does the work "in its spare time").
//! The chores are [`sort_chore`] (QuickSort a run), [`gather_chore`] (copy
//! a pointer batch into an output buffer) and [`merge_range_chore`] (merge
//! and gather one key range of a partitioned merge).

use std::collections::BTreeMap;
use std::io;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use alphasort_obs as obs;

use crate::gather::gather_into;
use crate::memrun::MemRun;
use crate::merge::MergedPtr;
use crate::runform::Representation;

/// A chore: job number and job in, result out.
type Chore<J, R> = Arc<dyn Fn(u64, J) -> R + Send + Sync>;

/// Worker threads running one chore over submitted jobs, delivering the
/// results in submission order.
pub struct OrderedPool<J, R> {
    chore: Chore<J, R>,
    tx: Option<Sender<(u64, J)>>,
    rx: Receiver<(u64, R)>,
    handles: Vec<JoinHandle<()>>,
    /// Out-of-order completions parked until their turn.
    parked: BTreeMap<u64, R>,
    submitted: u64,
    delivered: u64,
}

impl<J: Send + 'static, R: Send + 'static> OrderedPool<J, R> {
    /// A pool of `workers` threads named `{name}-{i}` (0 = run the chore
    /// inline on submit).
    pub fn new(
        name: &str,
        workers: usize,
        chore: impl Fn(u64, J) -> R + Send + Sync + 'static,
    ) -> Self {
        let chore: Chore<J, R> = Arc::new(chore);
        let (tx, work_rx) = channel::<(u64, J)>();
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
                let chore = Arc::clone(&chore);
                let track = track.clone();
                std::thread::Builder::new()
                    .name(format!("{name}-{w}"))
                    .spawn(move || {
                        obs::adopt_track(track);
                        loop {
                            let msg = work_rx.lock().expect("work queue lock poisoned").recv();
                            let Ok((id, job)) = msg else { break };
                            let _ = res_tx.send((id, chore(id, job)));
                        }
                    })
                    .expect("failed to spawn pool worker")
            })
            .collect();
        OrderedPool {
            chore,
            tx: if workers > 0 { Some(tx) } else { None },
            rx,
            handles,
            parked: BTreeMap::new(),
            submitted: 0,
            delivered: 0,
        }
    }

    /// Submit the next job (jobs are implicitly numbered). With zero
    /// workers the chore runs immediately on the caller's thread.
    pub fn submit(&mut self, job: J) {
        let id = self.submitted;
        self.submitted += 1;
        match &self.tx {
            Some(tx) => tx.send((id, job)).expect("pool workers gone"),
            None => {
                let r = (self.chore)(id, job);
                self.parked.insert(id, r);
            }
        }
    }

    /// Jobs submitted but not yet delivered.
    pub fn in_flight(&self) -> u64 {
        self.submitted - self.delivered
    }

    /// The next result in submission order if it is already done; never
    /// blocks. Use during input so spilling overlaps reading.
    pub fn try_next(&mut self) -> Option<R> {
        while let Ok((id, r)) = self.rx.try_recv() {
            self.parked.insert(id, r);
        }
        let r = self.parked.remove(&self.delivered)?;
        self.delivered += 1;
        Some(r)
    }

    /// The next result in submission order, blocking until it is done.
    /// `None` once everything submitted has been delivered.
    pub fn next_in_order(&mut self) -> Option<R> {
        if self.delivered >= self.submitted {
            return None;
        }
        while !self.parked.contains_key(&self.delivered) {
            let (id, r) = self.rx.recv().expect("pool worker died");
            self.parked.insert(id, r);
        }
        let r = self.parked.remove(&self.delivered).expect("present");
        self.delivered += 1;
        Some(r)
    }
}

impl<J, R> Drop for OrderedPool<J, R> {
    /// Dropping mid-stream (e.g. on an IO error) still closes the work
    /// queue and joins the workers, so no threads outlive the pool.
    fn drop(&mut self) {
        drop(self.tx.take());
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A formed run and the time its QuickSort took.
pub type Formed<R> = (io::Result<R>, Duration);

/// QuickSort one run buffer under an obs `sort` span.
pub fn sort_chore<R: MemRun>(rep: Representation) -> impl Fn(u64, Vec<u8>) -> Formed<R> {
    move |id, buf| {
        let mut g = obs::span(obs::phase::SORT);
        g.attr("run", id);
        let t0 = Instant::now();
        let run = R::form(buf, rep);
        let d = t0.elapsed();
        if let Ok(run) = &run {
            g.attr("records", run.run_len() as u64);
        }
        obs::metrics::observe("sort.run_us", d.as_micros() as u64);
        (run, d)
    }
}

/// Gather one pointer batch into an output buffer under an obs `gather`
/// span.
pub fn gather_chore<R: MemRun>(
    runs: Arc<Vec<R>>,
) -> impl Fn(u64, Vec<MergedPtr>) -> (Vec<u8>, Duration) {
    move |id, ptrs| {
        let mut g = obs::span(obs::phase::GATHER);
        g.attr("batch", id);
        g.attr("records", ptrs.len() as u64);
        let t0 = Instant::now();
        let mut buf = Vec::new();
        gather_into(&runs, &ptrs, &mut buf);
        let d = t0.elapsed();
        obs::metrics::observe("gather.batch_us", d.as_micros() as u64);
        (buf, d)
    }
}

/// Merge and gather one key range (per-run `(start, end)` bounds of a
/// [`crate::pmerge::MergePartition`]) under an obs `merge` span on the
/// worker's track, so the Figure 7 report shows the ranges overlapping.
pub fn merge_range_chore<R: MemRun>(
    runs: Arc<Vec<R>>,
) -> impl Fn(u64, Vec<(u32, u32)>) -> (Vec<u8>, Duration) {
    move |range, bounds| {
        let mut g = obs::span(obs::phase::MERGE);
        g.attr("range", range);
        let t0 = Instant::now();
        let records: usize = bounds.iter().map(|&(s, e)| (e - s) as usize).sum();
        let mut buf = Vec::with_capacity(records * R::STRIDE);
        for p in R::merger(&runs, &bounds) {
            buf.extend_from_slice(runs[p.run as usize].frame(p.pos as usize));
        }
        let d = t0.elapsed();
        g.attr("records", records as u64);
        obs::metrics::observe("merge.range_us", d.as_micros() as u64);
        (buf, d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memrun::full_bounds;
    use crate::merge::RunMerger;
    use crate::runform::SortedRun;
    use alphasort_dmgen::{generate, validate_records, GenConfig, RECORD_LEN};

    fn run_buffers(n: u64, per_run: usize) -> (alphasort_dmgen::Checksum, Vec<Vec<u8>>) {
        let (data, cs) = generate(GenConfig::datamation(n, 55));
        let bufs = data
            .chunks(per_run * RECORD_LEN)
            .map(|c| c.to_vec())
            .collect();
        (cs, bufs)
    }

    fn sort_pool(workers: usize, rep: Representation) -> OrderedPool<Vec<u8>, Formed<SortedRun>> {
        OrderedPool::new("sort-worker", workers, sort_chore(rep))
    }

    /// Every run of `pool`, in order.
    fn finish(mut pool: OrderedPool<Vec<u8>, Formed<SortedRun>>) -> Vec<SortedRun> {
        std::iter::from_fn(|| pool.next_in_order())
            .map(|(run, _)| run.unwrap())
            .collect()
    }

    fn sorted_runs(bufs: Vec<Vec<u8>>, workers: usize) -> Arc<Vec<SortedRun>> {
        let mut pool = sort_pool(workers, Representation::KeyPrefix);
        for b in bufs {
            pool.submit(b);
        }
        Arc::new(finish(pool))
    }

    fn sort_with_pool(workers: usize) {
        let (cs, bufs) = run_buffers(3_000, 256);
        let mut pool = sort_pool(workers, Representation::KeyPrefix);
        for b in bufs {
            pool.submit(b);
        }
        let mut sort_time = Duration::ZERO;
        let mut runs = Vec::new();
        while let Some((run, d)) = pool.next_in_order() {
            sort_time += d;
            runs.push(run.unwrap());
        }
        assert_eq!(runs.len(), 12);
        assert!(sort_time > Duration::ZERO);
        assert_eq!(runs.iter().map(SortedRun::len).sum::<usize>(), 3_000);

        let runs = Arc::new(runs);
        let mut merger = RunMerger::new(&runs);
        let mut gather =
            OrderedPool::new("gather-worker", workers, gather_chore(Arc::clone(&runs)));
        let mut out = Vec::new();
        loop {
            let ptrs = crate::gather::take_ptrs(&mut merger, 500);
            if ptrs.is_empty() {
                break;
            }
            gather.submit(ptrs);
            // Keep at most 3 batches in flight (triple buffering analogue).
            while gather.in_flight() > 3 {
                out.extend_from_slice(&gather.next_in_order().unwrap().0);
            }
        }
        while let Some((buf, _)) = gather.next_in_order() {
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
        let mut pool = sort_pool(3, Representation::Record);
        for b in bufs {
            pool.submit(b);
        }
        let runs = finish(pool);
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
        let mut pool = sort_pool(2, Representation::KeyPrefix);
        for b in bufs {
            pool.submit(b);
        }
        let _ = pool.next_in_order();
        drop(pool);

        let (_, bufs) = run_buffers(500, 100);
        let runs = sorted_runs(bufs, 1);
        let mut merger = RunMerger::new(&runs);
        let mut gather = OrderedPool::new("gather-worker", 2, gather_chore(Arc::clone(&runs)));
        gather.submit(crate::gather::take_ptrs(&mut merger, 100));
        gather.submit(crate::gather::take_ptrs(&mut merger, 100));
        let _ = gather.next_in_order();
        drop(gather); // one batch still parked/in flight
    }

    #[test]
    fn merge_pool_output_matches_serial_merge_gather() {
        let (cs, bufs) = run_buffers(4_000, 300);
        let runs = sorted_runs(bufs, 2);
        // Serial reference: full merge + gather.
        let serial = crate::gather::merge_gather_all(&runs);
        for workers in [0, 1, 3] {
            let plan = crate::pmerge::plan_mem_partitions(&runs, 4, 16);
            let mut mp = OrderedPool::new(
                "merge-worker",
                workers,
                merge_range_chore(Arc::clone(&runs)),
            );
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
        // One range spanning every run is the serial merge too.
        let mut mp = OrderedPool::new("merge-worker", 1, merge_range_chore(Arc::clone(&runs)));
        mp.submit(full_bounds(&runs));
        assert_eq!(mp.next_in_order().unwrap().0, serial);
    }

    #[test]
    fn gather_pool_delivers_in_order_despite_racing_workers() {
        let (_, bufs) = run_buffers(2_000, 200);
        let runs = sorted_runs(bufs, 2);
        let mut merger = RunMerger::new(&runs);
        let mut gather = OrderedPool::new("gather-worker", 4, gather_chore(Arc::clone(&runs)));
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
        while let Some((buf, _)) = gather.next_in_order() {
            out.extend_from_slice(&buf);
        }
        assert!(batches > 10);
        let recs = alphasort_dmgen::records_of(&out);
        assert_eq!(recs.len(), 2_000);
        assert!(recs.windows(2).all(|w| w[0].key <= w[1].key));
    }

    #[test]
    fn try_next_never_blocks_and_keeps_order() {
        use std::sync::mpsc::{channel, Receiver};
        // Job 0 waits on a gate the test holds; jobs 1 and 2 finish first.
        let mut pool = OrderedPool::new("test-worker", 2, |id, gate: Option<Receiver<()>>| {
            if let Some(gate) = gate {
                gate.recv().expect("gate sender dropped");
            }
            id
        });
        let (open, gate) = channel();
        pool.submit(Some(gate));
        pool.submit(None);
        pool.submit(None);
        assert_eq!(pool.try_next(), None, "job 0 is still running");
        open.send(()).expect("job 0 waits on the gate");
        let got: Vec<u64> = std::iter::from_fn(|| pool.next_in_order()).collect();
        assert_eq!(got, [0, 1, 2]);
        assert_eq!(pool.in_flight(), 0);
    }
}
