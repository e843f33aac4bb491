//! Runs one admitted job through the existing AlphaSort drivers, under its
//! budget, on its own obs track.
//!
//! The executor is deliberately thin: everything hard — run formation,
//! spill, cascade merge, partitioned merge — lives in the drivers. What the
//! daemon adds is *containment*: the job's `mem_budget` becomes the
//! planner's budget (so the one-/two-pass decision is per job, not per
//! process), run length is derated from the same budget, and two-pass
//! scratch goes either to a private in-memory store or to a **namespaced**
//! slice of the daemon's shared striped volume so concurrent jobs cannot
//! collide on run file names.
//!
//! Two service-layer guards wrap the sort itself:
//!
//! * **Cooperative cancellation** — a [`CancelToken`] is checked on every
//!   source chunk and every sink push (both passes of a two-pass sort touch
//!   one or the other continuously), so the watchdog can stop a running job
//!   at IO granularity without unwinding a thread.
//! * **Durable scratch** — with a journal configured, a two-pass job's
//!   striped scratch carries a per-job run manifest (atomic tmp+rename,
//!   per-stride checksums). A daemon kill leaves the sealed runs on the
//!   volume; when the job's idempotency key is re-submitted, the executor
//!   resumes the manifest and the driver re-forms **only** the lost runs
//!   (`SortStats::runs_recovered` / `runs_reformed`). On any *completed*
//!   execution — success or typed failure — the scratch is disposed and the
//!   manifest removed: leaked extents exist only across a kill.

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Arc;

use alphasort_core::driver::{MemScratch, StripeScratch};
use alphasort_core::io::{RecordSink, RecordSource};
use alphasort_core::{ExternalSorter, MemSink, MemSource, PassPlan, SortConfig, SortStats};
use alphasort_dmgen::RECORD_LEN;
use alphasort_obs as obs;
use alphasort_stripefs::Volume;

use crate::job::JobSpec;

/// Where two-pass jobs spill their runs.
#[derive(Clone)]
pub enum ScratchBacking {
    /// Private in-memory scratch per job (tests, benchmarks).
    Memory,
    /// One striped volume shared by every job; per-job namespaces keep run
    /// files apart. The `u64` is the stripe chunk size.
    SharedVolume(Arc<Volume>, u64),
}

/// Why a job was cooperatively canceled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CancelReason {
    /// The job's `deadline_ms` elapsed.
    Deadline,
    /// The submitting connection died while the job waited or ran.
    ClientGone,
}

/// A shared cancel flag the watchdog sets and the executor polls. The
/// first cancel wins; later reasons are ignored so the error the client
/// sees matches the event that actually fired.
#[derive(Clone, Default)]
pub struct CancelToken(Arc<AtomicU8>);

impl CancelToken {
    /// A fresh, uncanceled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation for `reason` (first caller wins).
    pub fn cancel(&self, reason: CancelReason) {
        let v = match reason {
            CancelReason::Deadline => 1,
            CancelReason::ClientGone => 2,
        };
        let _ = self.0.compare_exchange(0, v, Ordering::AcqRel, Ordering::Acquire);
    }

    /// The reason this token was canceled with, if any.
    pub fn reason(&self) -> Option<CancelReason> {
        match self.0.load(Ordering::Acquire) {
            1 => Some(CancelReason::Deadline),
            2 => Some(CancelReason::ClientGone),
            _ => None,
        }
    }

    fn check(&self) -> io::Result<()> {
        match self.reason() {
            None => Ok(()),
            Some(r) => Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("job canceled cooperatively: {r:?}"),
            )),
        }
    }
}

/// Wraps a source/sink so every chunk boundary is a cancellation point.
struct Guarded<T> {
    inner: T,
    token: CancelToken,
}

impl<S: RecordSource> RecordSource for Guarded<S> {
    fn next_chunk(&mut self) -> io::Result<Option<Vec<u8>>> {
        self.token.check()?;
        self.inner.next_chunk()
    }

    fn size_hint(&self) -> Option<u64> {
        self.inner.size_hint()
    }
}

impl<K: RecordSink> RecordSink for Guarded<K> {
    fn push(&mut self, data: &[u8]) -> io::Result<()> {
        self.token.check()?;
        self.inner.push(data)
    }

    fn complete(&mut self) -> io::Result<u64> {
        self.inner.complete()
    }
}

/// Derive a per-job [`SortConfig`] from the manifest's budgets.
///
/// Run length is a quarter of the memory budget (the rest covers entry
/// arrays, merge buffers, and the planner's 10% slack), clamped to keep
/// tiny budgets sortable and huge ones from forming megaruns that starve
/// the merge of fan-in.
pub fn config_for(spec: &JobSpec) -> SortConfig {
    let run_records = (spec.mem_budget / 4 / RECORD_LEN as u64).clamp(256, 100_000) as usize;
    SortConfig {
        run_records,
        memory_budget: spec.mem_budget,
        merge_workers: spec.merge_workers,
        gather_batch: run_records.min(10_000),
        layout: spec.layout,
        ..SortConfig::default()
    }
}

/// Sort `input` under `spec`'s budgets. Returns the sorted bytes, the
/// phase stats, and the plan that ran.
///
/// `cancel` is polled at every source/sink chunk. `scratch_manifest`, when
/// set (journaling daemon, shared-volume backing), makes the job's striped
/// scratch durable at that path: if the file already exists the scratch is
/// **resumed** from it — surviving runs verified against their checksums
/// and reused, only the lost input ranges re-formed.
///
/// Observability lands on track `job-<id>` so concurrent jobs' spans and
/// metrics stay separable in the trace.
pub fn run_job(
    id: u64,
    spec: &JobSpec,
    input: Vec<u8>,
    backing: &ScratchBacking,
    cancel: &CancelToken,
    scratch_manifest: Option<&Path>,
) -> io::Result<(Vec<u8>, SortStats, PassPlan)> {
    obs::set_track(&format!("job-{id}"));
    let _job = obs::span(obs::phase::SORTD_JOB);

    let cfg = config_for(spec);
    let sorter = ExternalSorter::new(cfg.clone());
    let mut source = Guarded {
        inner: MemSource::new(input, cfg.gather_batch * RECORD_LEN),
        token: cancel.clone(),
    };
    let mut sink = Guarded {
        inner: MemSink::new(),
        token: cancel.clone(),
    };

    let outcome = {
        let _exec = obs::span(obs::phase::SORTD_EXEC);
        match backing {
            ScratchBacking::Memory => {
                let mut scratch = MemScratch::new(cfg.gather_batch * RECORD_LEN);
                sorter.sort(&mut source, &mut sink, &mut scratch)?
            }
            ScratchBacking::SharedVolume(volume, chunk) => {
                let mut scratch =
                    open_scratch(id, spec, &cfg, volume, *chunk, scratch_manifest)?;
                let outcome = sorter.sort(&mut source, &mut sink, &mut scratch);
                // Reclaim this job's extents on every *completed* execution,
                // success or failure — a typed failure is terminal, so its
                // runs are pure leak. Only a process kill skips this line,
                // and that is exactly the state the manifest exists for.
                scratch.dispose();
                if let Some(path) = scratch_manifest {
                    let _ = std::fs::remove_file(path);
                }
                outcome?
            }
        }
    };

    obs::metrics::counter_add("sortd.exec.bytes", outcome.bytes);
    Ok((sink.inner.into_inner(), outcome.stats, outcome.plan))
}

/// Open the job's namespaced striped scratch: resumed from a surviving
/// manifest when one exists, manifested fresh when the daemon journals,
/// plain when it does not.
fn open_scratch(
    id: u64,
    spec: &JobSpec,
    cfg: &SortConfig,
    volume: &Arc<Volume>,
    chunk: u64,
    manifest: Option<&Path>,
) -> io::Result<StripeScratch> {
    if let Some(path) = manifest {
        if path.exists() {
            match StripeScratch::resume(Arc::clone(volume), path) {
                // The manifest must describe *this* sort: same input, same
                // run geometry. A re-submitted key with a different spec
                // cannot reuse the old runs.
                Ok((s, report))
                    if report.input_bytes == spec.input_bytes
                        && report.run_records == cfg.run_records as u64 =>
                {
                    obs::metrics::counter_add("sortd.scratch.resumed", 1);
                    return Ok(s);
                }
                Ok((stale, _)) => {
                    obs::metrics::counter_add("sortd.scratch.stale", 1);
                    stale.dispose();
                }
                // Unreadable manifest: the runs it described are
                // unreachable anyway; start clean.
                Err(_) => obs::metrics::counter_add("sortd.scratch.stale", 1),
            }
        }
        let mut s = StripeScratch::new(Arc::clone(volume), chunk).named(format!("job{id}-run"));
        s.attach_manifest(path, spec.input_bytes, cfg.run_records as u64)?;
        return Ok(s);
    }
    Ok(StripeScratch::new(Arc::clone(volume), chunk).named(format!("job{id}-run")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use alphasort_core::driver::ScratchStore;
    use alphasort_dmgen::{generate, records_of_mut, GenConfig};
    use alphasort_iosim::{catalog, IoEngine, MemStorage, Pacing, SimDisk, Storage};
    use std::path::PathBuf;

    fn oracle(mut data: Vec<u8>) -> Vec<u8> {
        records_of_mut(&mut data).sort_by_key(|r| r.key);
        data
    }

    fn spec(input: u64, mem: u64, scratch: u64) -> JobSpec {
        JobSpec {
            name: "exec-test".into(),
            input_bytes: input,
            mem_budget: mem,
            scratch_budget: scratch,
            ..JobSpec::default()
        }
    }

    fn run(id: u64, s: &JobSpec, data: Vec<u8>, b: &ScratchBacking) -> io::Result<(Vec<u8>, SortStats, PassPlan)> {
        run_job(id, s, data, b, &CancelToken::new(), None)
    }

    fn striped_volume(storages: &[Arc<MemStorage>]) -> Arc<Volume> {
        let disks = storages
            .iter()
            .enumerate()
            .map(|(i, st)| {
                SimDisk::new(
                    format!("s{i}"),
                    catalog::uncapped(),
                    Arc::clone(st) as Arc<dyn Storage>,
                    Pacing::Modeled,
                    None,
                )
            })
            .collect();
        Arc::new(Volume::new(Arc::new(IoEngine::new(disks))))
    }

    fn tmp_manifest(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "sortd-exec-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .subsec_nanos()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d.join("job.scratch.json")
    }

    #[test]
    fn one_pass_job_matches_oracle() {
        let (data, _) = generate(GenConfig::datamation(2_000, 11));
        let s = spec(data.len() as u64, 4 << 20, 0);
        assert_eq!(s.plan(), PassPlan::OnePass);
        let (out, stats, plan) = run(1, &s, data.clone(), &ScratchBacking::Memory).unwrap();
        assert_eq!(plan, PassPlan::OnePass);
        assert_eq!(out, oracle(data));
        assert_eq!(stats.records, 2_000);
    }

    #[test]
    fn two_pass_job_under_tight_budget_matches_oracle() {
        let (data, _) = generate(GenConfig::datamation(4_000, 12));
        // Budget far under the input forces the two-pass plan.
        let s = spec(data.len() as u64, 128 << 10, data.len() as u64);
        assert_eq!(s.plan(), PassPlan::TwoPass);
        let (out, _, plan) = run(2, &s, data.clone(), &ScratchBacking::Memory).unwrap();
        assert_eq!(plan, PassPlan::TwoPass);
        assert_eq!(out, oracle(data));
    }

    #[test]
    fn parallel_merge_stays_byte_identical() {
        let (data, _) = generate(GenConfig::datamation(4_000, 13));
        let mut s = spec(data.len() as u64, 128 << 10, data.len() as u64);
        s.merge_workers = 3;
        let (out, _, _) = run(3, &s, data.clone(), &ScratchBacking::Memory).unwrap();
        assert_eq!(out, oracle(data));
    }

    #[test]
    fn varlen_job_sorts_string_keys_end_to_end() {
        use alphasort_core::RecordLayout;
        use alphasort_dmgen::{generate_varlen, var_records_of, TextCorpus, VarGenConfig};

        let data = generate_varlen(VarGenConfig {
            records: 2_000,
            seed: 16,
            corpus: TextCorpus::Urls,
        });
        let recs = var_records_of(&data).unwrap();
        let mut idx: Vec<usize> = (0..recs.len()).collect();
        idx.sort_by(|&a, &b| recs[a].key().cmp(recs[b].key()).then(a.cmp(&b)));
        let mut want = Vec::with_capacity(data.len());
        for i in idx {
            want.extend_from_slice(recs[i].frame());
        }

        let mut s = spec(data.len() as u64, 4 << 20, 0);
        s.layout = RecordLayout::VarLen;
        s.merge_workers = 2;
        s.validate(8 << 20, 32 << 20).unwrap();
        let (out, stats, _) = run(9, &s, data.clone(), &ScratchBacking::Memory).unwrap();
        assert_eq!(out, want);
        assert_eq!(stats.records, 2_000);
    }

    #[test]
    fn varlen_two_pass_plan_sorts_in_memory_and_leaves_the_volume_untouched() {
        use alphasort_core::RecordLayout;
        use alphasort_dmgen::{generate_varlen, var_records_of, TextCorpus, VarGenConfig};

        let data = generate_varlen(VarGenConfig {
            records: 4_000,
            seed: 17,
            corpus: TextCorpus::Urls,
        });
        let recs = var_records_of(&data).unwrap();
        let mut idx: Vec<usize> = (0..recs.len()).collect();
        idx.sort_by(|&a, &b| recs[a].key().cmp(recs[b].key()).then(a.cmp(&b)));
        let want: Vec<u8> = idx.iter().flat_map(|&i| recs[i].frame().to_vec()).collect();

        // Budget far under the input: admission plans two passes.
        let mut s = spec(data.len() as u64, 32 << 10, data.len() as u64);
        s.layout = RecordLayout::VarLen;
        assert_eq!(s.plan(), PassPlan::TwoPass);
        let storages: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
        let volume = striped_volume(&storages);
        let backing = ScratchBacking::SharedVolume(Arc::clone(&volume), 64 << 10);
        let path = tmp_manifest("varlen");
        let (out, stats, plan) =
            run_job(18, &s, data, &backing, &CancelToken::new(), Some(&path)).unwrap();
        assert_eq!(out, want);
        assert_eq!(plan, PassPlan::OnePass, "var-len sorts run in memory");
        assert!(stats.one_pass);
        assert!(
            storages.iter().all(|st| st.len() == 0),
            "no run reached the volume"
        );
        assert_eq!(volume.free_bytes(), 0, "no extent was ever allocated");
        assert!(!path.exists(), "manifest removed after completion");
    }

    #[test]
    fn pre_canceled_token_stops_the_job_at_the_first_chunk() {
        let (data, _) = generate(GenConfig::datamation(2_000, 14));
        let s = spec(data.len() as u64, 4 << 20, 0);
        let token = CancelToken::new();
        token.cancel(CancelReason::Deadline);
        // A later ClientGone must not overwrite the original reason.
        token.cancel(CancelReason::ClientGone);
        let err = run_job(4, &s, data, &ScratchBacking::Memory, &token, None).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(token.reason(), Some(CancelReason::Deadline));
    }

    #[test]
    fn manifested_job_resumes_surviving_runs_after_a_crash_shaped_stop() {
        let storages: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
        let path = tmp_manifest("resume");
        let (data, _) = generate(GenConfig::datamation(4_000, 15));
        let s = spec(data.len() as u64, 128 << 10, data.len() as u64);
        assert_eq!(s.plan(), PassPlan::TwoPass);

        // First attempt: form a couple of runs, then "crash" — the Guarded
        // source trips the cancel token partway through pass 1, and the
        // scratch is NOT disposed because run_job's disposal only runs on
        // sorter completion... it does run on error. So fabricate the crash
        // below run_job: drive the scratch directly like a killed daemon.
        {
            let volume = striped_volume(&storages);
            let cfg = config_for(&s);
            let mut scratch =
                StripeScratch::new(Arc::clone(&volume), 64 << 10).named("job9-run");
            scratch.attach_manifest(&path, s.input_bytes, cfg.run_records as u64).unwrap();
            let run_bytes = cfg.run_records * RECORD_LEN;
            let mut sorted_prefix = data[..run_bytes].to_vec();
            records_of_mut(&mut sorted_prefix).sort_by_key(|r| r.key);
            let mut w = scratch.create_run(run_bytes as u64).unwrap();
            use alphasort_core::io::RecordSink as _;
            w.push(&sorted_prefix).unwrap();
            scratch.seal_run(w).unwrap();
            // Dropped without dispose: the kill.
        }

        // Retry on a fresh volume over the surviving storages.
        let volume = striped_volume(&storages);
        let backing = ScratchBacking::SharedVolume(volume, 64 << 10);
        let (out, stats, plan) =
            run_job(10, &s, data.clone(), &backing, &CancelToken::new(), Some(&path)).unwrap();
        assert_eq!(plan, PassPlan::TwoPass);
        assert_eq!(out, oracle(data));
        assert_eq!(stats.runs_recovered, 1, "the sealed run must be reused");
        assert!(stats.runs_reformed >= 1, "lost ranges must be re-formed");
        assert!(!path.exists(), "manifest removed after completion");
    }

    #[test]
    fn stale_manifest_with_wrong_geometry_is_discarded_not_reused() {
        let storages: Vec<Arc<MemStorage>> = (0..2).map(|_| Arc::new(MemStorage::new())).collect();
        let path = tmp_manifest("stale");
        let (data, _) = generate(GenConfig::datamation(4_000, 16));
        let s = spec(data.len() as u64, 128 << 10, data.len() as u64);
        {
            // A manifest from a *different* sort (half the input).
            let volume = striped_volume(&storages);
            let mut scratch = StripeScratch::new(volume, 64 << 10).named("job11-run");
            scratch.attach_manifest(&path, s.input_bytes / 2, 99).unwrap();
        }
        let volume = striped_volume(&storages);
        let backing = ScratchBacking::SharedVolume(Arc::clone(&volume), 64 << 10);
        let (out, stats, _) =
            run_job(12, &s, data.clone(), &backing, &CancelToken::new(), Some(&path)).unwrap();
        assert_eq!(out, oracle(data));
        assert_eq!(stats.runs_recovered, 0, "stale runs must not be trusted");
    }
}
