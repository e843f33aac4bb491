//! The daemon: accept loop, per-connection request dispatch, admission
//! wiring, crash recovery, watchdog, and graceful drain.
//!
//! Threading model — one thread per connection, and the job *runs on the
//! connection thread that submitted it*. Admission is the concurrency
//! limiter: a job holds a thread while queued (parked on a channel, not
//! spinning) and while running. Pool *budget* is held only while running,
//! but a queued job is not free: its full input payload already sits in
//! daemon memory (the payload is read before the admission offer, so a
//! slow client can never stall the admission lock), and that residency is
//! outside pool accounting. Per job it is bounded by manifest validation
//! (an input can't exceed the larger pool total), so the worst case is
//! `queue_bound × max input size` — size `queue_bound` with that product
//! in mind, not just queue-depth taste.
//! The shared `Core` behind one mutex holds the admission state machine,
//! the job table, and the waiter channels; the sort itself never runs
//! under the lock.
//!
//! **Durability** (`journal` configured): every accepted job writes a
//! write-ahead record (see [`crate::journal`]) at each lifecycle
//! transition, keyed by its idempotency key (client-supplied, or a
//! synthetic `anon-job-<id>`). Restart replays the journal: terminal jobs
//! become the dedupe set (re-submitting their key answers from the record
//! without re-executing — at-most-once), non-terminal jobs are stamped
//! `interrupted` and, when their scratch manifest survived, wait in a
//! pending-recovery set. Re-submitting an interrupted key re-runs the job
//! with its scratch *resumed*, so only lost runs re-form; interrupted
//! scratch nobody reclaims within `recovered_grace` is disposed by the
//! watchdog (no surviving client).
//!
//! **Watchdog** — a single daemon thread that, each tick, (1) cancels jobs
//! past their `deadline_ms` (queued jobs fail immediately with the
//! non-retryable `deadline_exceeded` code; running jobs get a cooperative
//! [`CancelToken`] the executor polls at chunk granularity), (2) sweeps
//! jobs whose submitting connection died (queued: settled unrun, key
//! freed; running: cooperative cancel), and (3) disposes unreclaimed
//! recovered scratch after the grace period.
//!
//! Drain (`drain()` on the handle, or a `{"type":"drain"}` request):
//! 1. stop admitting — every queued job fails with the retryable
//!    `draining` error and its waiter wakes,
//! 2. running jobs finish normally,
//! 3. the accept loop stops and the listener closes (new connects are
//!    refused),
//! 4. drain returns once the pool is back to zero.

use std::collections::{BTreeMap, HashMap};
use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use alphasort_core::driver::StripeScratch;
use alphasort_minijson::Json;
use alphasort_netsort::AcceptLoop;
use alphasort_obs as obs;

use crate::admission::{Admission, AdmissionConfig, Offer};
use crate::executor::{run_job, CancelReason, CancelToken, ScratchBacking};
use crate::job::{JobSpec, JobState, SortdError};
use crate::journal::{Journal, JournalRecord};
use crate::pool::PoolConfig;
use crate::proto;
use crate::telemetry::Telemetry;

/// Daemon configuration.
#[derive(Clone)]
pub struct SortdConfig {
    /// Listen address; use port 0 to let the OS pick.
    pub listen: String,
    /// Resource pool capacities.
    pub pool: PoolConfig,
    /// Queue bound and aging limit.
    pub admission: AdmissionConfig,
    /// Where two-pass jobs spill.
    pub backing: ScratchBacking,
    /// Socket read timeout, so a stalled client cannot pin a connection
    /// thread forever mid-request.
    pub client_read_timeout: Duration,
    /// Socket write timeout, so a peer that stops *reading* cannot pin a
    /// connection thread mid-response (large result/stats writes block
    /// once the kernel send buffer fills).
    pub client_write_timeout: Duration,
    /// Write-ahead journal directory; `None` runs the daemon volatile
    /// (in-memory idempotency only, no crash recovery).
    pub journal: Option<PathBuf>,
    /// Watchdog tick interval (deadlines, dead-client sweep, scratch
    /// grace sweep).
    pub watchdog_interval: Duration,
    /// How long recovered (interrupted) scratch waits for its key to be
    /// re-submitted before the watchdog disposes it.
    pub recovered_grace: Duration,
}

impl Default for SortdConfig {
    fn default() -> Self {
        SortdConfig {
            listen: "127.0.0.1:0".into(),
            pool: PoolConfig::default(),
            admission: AdmissionConfig::default(),
            backing: ScratchBacking::Memory,
            client_read_timeout: Duration::from_secs(30),
            client_write_timeout: Duration::from_secs(30),
            journal: None,
            watchdog_interval: Duration::from_millis(25),
            recovered_grace: Duration::from_secs(60),
        }
    }
}

/// What a queued submitter is woken with.
enum Wake {
    /// Budget reserved; go run.
    Admitted,
    /// The job will never run (drain, cancel, deadline, dead client).
    Failed(SortdError),
}

/// Everything the service remembers about one job.
struct JobRecord {
    name: String,
    state: JobState,
    /// Error code, for status responses after failure. `"interrupted"`
    /// marks a journal-replayed job whose execution a kill cut short.
    error: Option<String>,
    /// Records sorted (terminal `done` jobs) — the duplicate answer.
    records: u64,
    /// The job's idempotency key (client or synthetic), when tracked.
    key: Option<String>,
}

/// Service counters, reported in the stats snapshot.
#[derive(Clone, Copy, Default)]
struct Counters {
    submitted: u64,
    done: u64,
    failed: u64,
    rejected: u64,
    canceled: u64,
    /// Submits answered from a terminal record without executing.
    duplicates: u64,
    /// Journaled jobs found non-terminal at restart.
    jobs_recovered: u64,
    /// Sealed pass-1 runs reused from recovered scratch.
    runs_recovered: u64,
    /// Input ranges re-formed because their runs did not survive.
    runs_reformed: u64,
    /// Recovered scratch volumes disposed unreclaimed (no surviving client).
    scratch_disposed: u64,
    /// Jobs the watchdog canceled past their deadline.
    deadline_kills: u64,
}

/// Watchdog-visible state of one live (queued or running) job.
struct JobWatch {
    /// Absolute deadline, when the manifest set `deadline_ms`. Cleared
    /// after the cancel fires so it is counted once.
    deadline: Option<Instant>,
    /// The manifest's `deadline_ms`, for the error the client sees.
    deadline_ms: u64,
    /// The submitting connection, registered after the ack write, so the
    /// watchdog can detect a dead client with a nonblocking peek. The
    /// submit thread never touches the socket while this is set (it is
    /// parked or sorting, and settle removes the watch under the lock
    /// before the result write), so the peek's nonblocking toggle cannot
    /// race a blocking write.
    conn: Option<TcpStream>,
    /// `Some` once the job is running — the cooperative cancel path.
    /// `None` while queued (queued jobs are killed via `cancel_queued`).
    token: Option<CancelToken>,
    /// The job's journal record, for terminal writes on watchdog kills.
    rec: Option<JournalRecord>,
}

/// Shared mutable state.
struct Core {
    admission: Admission,
    jobs: BTreeMap<u64, JobRecord>,
    next_id: u64,
    running: usize,
    /// Connection-handler threads currently alive; `wait_drained` holds
    /// the process open until responses (the drain ack included) flush.
    active_conns: usize,
    counters: Counters,
    waiters: HashMap<u64, Sender<Wake>>,
    /// Idempotency key → job id. A value of 0 is an in-flight
    /// reservation (ids start at 1): the key's submit is between its
    /// dedupe check and its id allocation.
    idem: HashMap<String, u64>,
    /// Live jobs the watchdog oversees.
    watch: HashMap<u64, JobWatch>,
    /// Interrupted keys with surviving scratch, waiting to be re-claimed;
    /// the value is when recovery saw them (grace-sweep clock).
    recovered: HashMap<String, Instant>,
    /// Always-on service telemetry: uptime + latency histograms.
    telemetry: Telemetry,
}

impl Core {
    /// Mark `promoted` jobs running and wake their parked submitters.
    fn wake_promoted(&mut self, promoted: Vec<u64>) {
        for id in promoted {
            if let Some(rec) = self.jobs.get_mut(&id) {
                rec.state = JobState::Running;
            }
            self.running += 1;
            if let Some(tx) = self.waiters.remove(&id) {
                let _ = tx.send(Wake::Admitted);
            }
        }
    }
}

/// Remove every live trace of a job that settled *without* an execution
/// outcome (load-shed, drain, client gone before a result): watchdog
/// watch, in-flight key, journal record. The key becomes immediately
/// reusable — at-most-once only pins keys whose jobs actually ran to a
/// terminal state.
fn forget_unrun(core: &mut Core, journal: &Option<Journal>, id: u64) {
    core.watch.remove(&id);
    let key = core.jobs.get(&id).and_then(|r| r.key.clone());
    if let Some(key) = key {
        if core.idem.get(&key) == Some(&id) {
            core.idem.remove(&key);
        }
        if let Some(j) = journal {
            let _ = j.remove(&key);
        }
    }
}

struct State {
    core: Mutex<Core>,
    /// Signaled when `running` drops — drain waits here.
    cv: Condvar,
    backing: ScratchBacking,
    read_timeout: Duration,
    write_timeout: Duration,
    /// The write-ahead journal, when durability is configured.
    journal: Option<Journal>,
    /// The acceptor, stoppable from drain on any thread.
    acceptor: Mutex<Option<AcceptLoop>>,
}

/// Handle to a running daemon.
pub struct Sortd {
    state: Arc<State>,
    addr: std::net::SocketAddr,
    shutdown: Arc<AtomicBool>,
    watchdog: Option<thread::JoinHandle<()>>,
}

impl Sortd {
    /// Bind, replay the journal (when configured), spawn the watchdog and
    /// the accept loop, and return the handle.
    pub fn start(cfg: SortdConfig) -> io::Result<Sortd> {
        let journal = match &cfg.journal {
            Some(dir) => Some(Journal::open(dir.clone())?),
            None => None,
        };
        let mut core = Core {
            admission: Admission::new(cfg.pool, cfg.admission),
            jobs: BTreeMap::new(),
            next_id: 1,
            running: 0,
            active_conns: 0,
            counters: Counters::default(),
            waiters: HashMap::new(),
            idem: HashMap::new(),
            watch: HashMap::new(),
            recovered: HashMap::new(),
            telemetry: Telemetry::new(),
        };
        if let Some(j) = &journal {
            replay_journal(j, &mut core)?;
        }
        let listener = TcpListener::bind(&cfg.listen)?;
        let state = Arc::new(State {
            core: Mutex::new(core),
            cv: Condvar::new(),
            backing: cfg.backing.clone(),
            read_timeout: cfg.client_read_timeout,
            write_timeout: cfg.client_write_timeout,
            journal,
            acceptor: Mutex::new(None),
        });
        let shutdown = Arc::new(AtomicBool::new(false));
        let wd_state = Arc::clone(&state);
        let wd_stop = Arc::clone(&shutdown);
        let (interval, grace) = (cfg.watchdog_interval, cfg.recovered_grace);
        let watchdog = thread::spawn(move || {
            while !wd_stop.load(Ordering::Relaxed) {
                thread::sleep(interval);
                if wd_stop.load(Ordering::Relaxed) {
                    break;
                }
                watchdog_pass(&wd_state, grace);
            }
        });
        let for_conns = Arc::clone(&state);
        let acceptor = AcceptLoop::spawn(listener, move |stream| {
            let st = Arc::clone(&for_conns);
            st.core.lock().unwrap().active_conns += 1;
            thread::spawn(move || {
                let _ = serve_connection(stream, &st);
                st.core.lock().unwrap().active_conns -= 1;
                st.cv.notify_all();
            });
        })?;
        let addr = acceptor.addr();
        *state.acceptor.lock().unwrap() = Some(acceptor);
        Ok(Sortd {
            state,
            addr,
            shutdown,
            watchdog: Some(watchdog),
        })
    }

    /// The bound address (resolved port when `listen` used port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Graceful drain; returns `(total_done, failed_queued)` once every
    /// running job has finished and the pool is idle. `total_done` is the
    /// daemon's *lifetime* completed-job count (not just jobs that
    /// finished during this drain); `failed_queued` is how many queued
    /// jobs this drain failed with the retryable `draining` error.
    pub fn drain(&self) -> (u64, u64) {
        drain_impl(&self.state)
    }

    /// Block until some client (or another thread on this handle) drains
    /// the daemon — the `serve` subcommand's main-thread park.
    pub fn wait_drained(&self) {
        let mut core = self.state.core.lock().unwrap();
        while !(core.admission.draining() && core.running == 0 && core.active_conns == 0) {
            core = self.state.cv.wait(core).unwrap();
        }
    }

    /// Whether the pool is fully released (post-drain invariant).
    pub fn pool_idle(&self) -> bool {
        let core = self.state.core.lock().unwrap();
        core.admission.pool().idle()
    }

    /// Stats snapshot (same document the wire `stats` request returns).
    pub fn stats(&self) -> Json {
        let core = self.state.core.lock().unwrap();
        stats_doc(&core)
    }

    /// Full metrics snapshot (same document the wire `metrics` request
    /// returns); see [`proto`] for the schema.
    pub fn metrics(&self) -> Json {
        let core = self.state.core.lock().unwrap();
        metrics_doc(&core)
    }
}

impl Drop for Sortd {
    fn drop(&mut self) {
        // Stop accepting; don't wait for jobs (drain() is the graceful path).
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(mut a) = self.state.acceptor.lock().unwrap().take() {
            a.stop();
        }
        if let Some(h) = self.watchdog.take() {
            let _ = h.join();
        }
    }
}

/// Rebuild the job table, dedupe map, and pending-recovery set from the
/// journal. Terminal records become the at-most-once dedupe set;
/// non-terminal records are stamped `interrupted` (counted in
/// `jobs_recovered`) and, when their scratch manifest survived the kill,
/// parked in the recovered set awaiting re-submission or the grace sweep.
fn replay_journal(journal: &Journal, core: &mut Core) -> io::Result<()> {
    let replay = journal.replay()?;
    if !replay.corrupt.is_empty() {
        obs::metrics::counter_add("sortd.journal.corrupt", replay.corrupt.len() as u64);
    }
    for mut rec in replay.records {
        core.next_id = core.next_id.max(rec.job_id + 1);
        let (jstate, error) = if rec.terminal() {
            let st = match rec.state.as_str() {
                "done" => JobState::Done,
                "canceled" => JobState::Canceled,
                _ => JobState::Failed,
            };
            (st, rec.error.clone())
        } else {
            core.counters.jobs_recovered += 1;
            rec.state = "interrupted".into();
            let _ = journal.record(&rec);
            if journal.scratch_manifest_path(&rec.key).exists() {
                core.recovered.insert(rec.key.clone(), Instant::now());
            }
            (JobState::Failed, Some("interrupted".to_string()))
        };
        core.jobs.insert(
            rec.job_id,
            JobRecord {
                name: rec.spec.name.clone(),
                state: jstate,
                error,
                records: rec.records,
                key: Some(rec.key.clone()),
            },
        );
        core.idem.insert(rec.key.clone(), rec.job_id);
    }
    Ok(())
}

fn drain_impl(state: &State) -> (u64, u64) {
    let mut core = state.core.lock().unwrap();
    let dumped = core.admission.drain();
    let mut failed_queued = 0u64;
    for id in dumped {
        if let Some(rec) = core.jobs.get_mut(&id) {
            rec.state = JobState::Failed;
            rec.error = Some(SortdError::Draining.code().to_string());
        }
        core.counters.failed += 1;
        failed_queued += 1;
        if let Some(tx) = core.waiters.remove(&id) {
            let _ = tx.send(Wake::Failed(SortdError::Draining));
        }
        // Draining is retryable: the key must stay reusable and the
        // journal must not replay this job as interrupted.
        forget_unrun(&mut core, &state.journal, id);
    }
    while core.running > 0 {
        core = state.cv.wait(core).unwrap();
    }
    let total_done = core.counters.done;
    drop(core);
    if let Some(mut a) = state.acceptor.lock().unwrap().take() {
        a.stop();
    }
    // Wake wait_drained() parkers (nothing else re-checks after the last
    // running job's own notify when the queue was already empty).
    state.cv.notify_all();
    obs::metrics::counter_add("sortd.drained", 1);
    (total_done, failed_queued)
}

/// One watchdog tick. Public within the crate's tests so deadline and
/// sweep behavior can be driven deterministically without sleeping.
fn watchdog_pass(state: &Arc<State>, grace: Duration) {
    let mut core = state.core.lock().unwrap();
    let now = Instant::now();

    // 1. Deadlines. Running jobs get a cooperative cancel (the executor
    // errors at its next chunk); queued jobs fail immediately.
    let expired: Vec<u64> = core
        .watch
        .iter()
        .filter(|(_, w)| w.deadline.is_some_and(|d| d <= now))
        .map(|(id, _)| *id)
        .collect();
    for id in expired {
        let token = core.watch.get(&id).and_then(|w| w.token.clone());
        if let Some(token) = token {
            token.cancel(CancelReason::Deadline);
            core.counters.deadline_kills += 1;
            if let Some(w) = core.watch.get_mut(&id) {
                w.deadline = None; // fire once; the executor surfaces it
            }
        } else if core.admission.cancel_queued(id) {
            core.counters.deadline_kills += 1;
            core.counters.failed += 1;
            let limit_ms = core.watch.get(&id).map(|w| w.deadline_ms).unwrap_or(0);
            let err = SortdError::DeadlineExceeded { limit_ms };
            if let Some(rec) = core.jobs.get_mut(&id) {
                rec.state = JobState::Failed;
                rec.error = Some(err.code().to_string());
            }
            if let Some(tx) = core.waiters.remove(&id) {
                let _ = tx.send(Wake::Failed(err));
            }
            if let Some(w) = core.watch.remove(&id) {
                if let (Some(mut rec), Some(j)) = (w.rec, &state.journal) {
                    rec.state = "failed".into();
                    rec.error = Some("deadline_exceeded".into());
                    let _ = j.record(&rec);
                }
            }
        }
        // else: promoted but its token not yet registered — next tick.
    }

    // 2. Dead submitters. The server never reads a submit connection
    // after its payload, so a readable EOF/reset on the peek means the
    // client hung up.
    let watched: Vec<u64> = core
        .watch
        .iter()
        .filter(|(_, w)| w.conn.is_some())
        .map(|(id, _)| *id)
        .collect();
    for id in watched {
        let dead = core
            .watch
            .get(&id)
            .and_then(|w| w.conn.as_ref())
            .map(conn_dead)
            .unwrap_or(false);
        if !dead {
            continue;
        }
        let token = core.watch.get(&id).and_then(|w| w.token.clone());
        if let Some(token) = token {
            token.cancel(CancelReason::ClientGone);
            if let Some(w) = core.watch.get_mut(&id) {
                w.conn = None;
            }
        } else if core.admission.cancel_queued(id) {
            core.counters.failed += 1;
            if let Some(rec) = core.jobs.get_mut(&id) {
                rec.state = JobState::Failed;
                rec.error = Some(SortdError::ClientGone.code().to_string());
            }
            if let Some(tx) = core.waiters.remove(&id) {
                let _ = tx.send(Wake::Failed(SortdError::ClientGone));
            }
            forget_unrun(&mut core, &state.journal, id);
        }
    }

    // 3. Recovered scratch nobody re-claimed within the grace period: the
    // submitting clients died with the old process, so dispose the runs
    // and free the key for a fresh submit.
    let due: Vec<String> = core
        .recovered
        .iter()
        .filter(|(_, since)| since.elapsed() >= grace)
        .map(|(k, _)| k.clone())
        .collect();
    for key in due {
        core.recovered.remove(&key);
        let Some(j) = &state.journal else { continue };
        let manifest = j.scratch_manifest_path(&key);
        match &state.backing {
            ScratchBacking::SharedVolume(volume, _) => {
                let _ = StripeScratch::dispose_at(volume, &manifest);
            }
            ScratchBacking::Memory => {
                let _ = std::fs::remove_file(&manifest);
            }
        }
        core.counters.scratch_disposed += 1;
        let _ = j.remove(&key);
        if let Some(id) = core.idem.remove(&key) {
            if let Some(rec) = core.jobs.get_mut(&id) {
                rec.error = Some("scratch_disposed".to_string());
            }
        }
    }
}

/// Nonblocking 1-byte peek on a submit connection the server has finished
/// reading: EOF or a hard error means the client is gone; `WouldBlock`
/// means it is still there, waiting for its response.
fn conn_dead(conn: &TcpStream) -> bool {
    if conn.set_nonblocking(true).is_err() {
        return true;
    }
    let mut b = [0u8; 1];
    let dead = match conn.peek(&mut b) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) if e.kind() == io::ErrorKind::WouldBlock => false,
        Err(_) => true,
    };
    let _ = conn.set_nonblocking(false);
    dead
}

/// Jobs in the table counted by lifecycle state (the `jobs` stats section).
fn job_state_counts(core: &Core) -> Json {
    let mut counts = [0u64; 5];
    for rec in core.jobs.values() {
        let slot = match rec.state {
            JobState::Queued => 0,
            JobState::Running => 1,
            JobState::Done => 2,
            JobState::Failed => 3,
            JobState::Canceled => 4,
        };
        counts[slot] += 1;
    }
    Json::Obj(vec![
        ("queued".into(), Json::from(counts[0])),
        ("running".into(), Json::from(counts[1])),
        ("done".into(), Json::from(counts[2])),
        ("failed".into(), Json::from(counts[3])),
        ("canceled".into(), Json::from(counts[4])),
    ])
}

fn stats_doc(core: &Core) -> Json {
    let pool = core.admission.pool();
    Json::Obj(vec![
        ("type".into(), Json::from("stats")),
        ("uptime_ms".into(), Json::from(core.telemetry.uptime_ms())),
        (
            "pool".into(),
            Json::Obj(vec![
                ("mem_total".into(), Json::from(pool.mem_total())),
                ("mem_in_use".into(), Json::from(pool.mem_used())),
                ("mem_hwm".into(), Json::from(pool.mem_hwm())),
                ("scratch_total".into(), Json::from(pool.scratch_total())),
                ("scratch_in_use".into(), Json::from(pool.scratch_used())),
                ("scratch_hwm".into(), Json::from(pool.scratch_hwm())),
            ]),
        ),
        (
            "queue".into(),
            Json::Obj(vec![
                ("depth".into(), Json::from(core.admission.queue_depth() as u64)),
                ("bound".into(), Json::from(core.admission.queue_bound() as u64)),
                ("bypasses".into(), Json::from(core.admission.bypasses)),
                ("aged_barriers".into(), Json::from(core.admission.aged_barriers)),
            ]),
        ),
        ("running".into(), Json::from(core.running as u64)),
        ("draining".into(), Json::Bool(core.admission.draining())),
        ("jobs".into(), job_state_counts(core)),
        (
            "counters".into(),
            Json::Obj(vec![
                ("submitted".into(), Json::from(core.counters.submitted)),
                ("done".into(), Json::from(core.counters.done)),
                ("failed".into(), Json::from(core.counters.failed)),
                ("rejected".into(), Json::from(core.counters.rejected)),
                ("canceled".into(), Json::from(core.counters.canceled)),
                ("duplicates".into(), Json::from(core.counters.duplicates)),
                ("jobs_recovered".into(), Json::from(core.counters.jobs_recovered)),
                ("runs_recovered".into(), Json::from(core.counters.runs_recovered)),
                ("runs_reformed".into(), Json::from(core.counters.runs_reformed)),
                ("scratch_disposed".into(), Json::from(core.counters.scratch_disposed)),
                ("deadline_kills".into(), Json::from(core.counters.deadline_kills)),
            ]),
        ),
        ("latency".into(), core.telemetry.summaries()),
    ])
}

/// The `metrics` wire doc: the whole service state as one
/// [`obs::MetricsSnapshot`] (counters/gauges/full-fidelity histograms)
/// under a `type`/`uptime_ms` envelope, so a client can decode it with
/// `MetricsSnapshot::from_json` and diff successive polls — `sortd top`'s
/// whole input. Field names are a stable wire contract; see [`proto`].
fn metrics_doc(core: &Core) -> Json {
    let pool = core.admission.pool();
    let mut snap = obs::MetricsSnapshot::default();
    for (name, v) in [
        ("sortd.jobs.submitted", core.counters.submitted),
        ("sortd.jobs.done", core.counters.done),
        ("sortd.jobs.failed", core.counters.failed),
        ("sortd.jobs.rejected", core.counters.rejected),
        ("sortd.jobs.canceled", core.counters.canceled),
        ("sortd.jobs.duplicates", core.counters.duplicates),
        ("sortd.recovery.jobs_recovered", core.counters.jobs_recovered),
        ("sortd.recovery.runs_recovered", core.counters.runs_recovered),
        ("sortd.recovery.runs_reformed", core.counters.runs_reformed),
        ("sortd.recovery.scratch_disposed", core.counters.scratch_disposed),
        ("sortd.deadline.kills", core.counters.deadline_kills),
        ("sortd.admission.bypasses", core.admission.bypasses),
        ("sortd.admission.aged_barriers", core.admission.aged_barriers),
    ] {
        snap.counters.insert(name.to_string(), v);
    }
    for (name, v) in [
        ("sortd.pool.mem_total", pool.mem_total() as i64),
        ("sortd.pool.mem_in_use", pool.mem_used() as i64),
        ("sortd.pool.mem_hwm", pool.mem_hwm() as i64),
        ("sortd.pool.scratch_total", pool.scratch_total() as i64),
        ("sortd.pool.scratch_in_use", pool.scratch_used() as i64),
        ("sortd.pool.scratch_hwm", pool.scratch_hwm() as i64),
        ("sortd.queue.depth", core.admission.queue_depth() as i64),
        ("sortd.queue.bound", core.admission.queue_bound() as i64),
        ("sortd.running", core.running as i64),
        ("sortd.draining", core.admission.draining() as i64),
        ("sortd.recovery.pending", core.recovered.len() as i64),
    ] {
        snap.gauges.insert(name.to_string(), v);
    }
    for (name, h) in core.telemetry.histograms() {
        snap.histograms.insert(name.to_string(), h.clone());
    }
    let mut fields = vec![
        ("type".into(), Json::from("metrics")),
        ("uptime_ms".into(), Json::from(core.telemetry.uptime_ms())),
    ];
    if let Json::Obj(inner) = snap.to_json() {
        fields.extend(inner);
    }
    Json::Obj(fields)
}

/// Dispatch one client connection: read the request document, route it.
fn serve_connection(mut stream: TcpStream, state: &Arc<State>) -> io::Result<()> {
    stream.set_read_timeout(Some(state.read_timeout))?;
    stream.set_write_timeout(Some(state.write_timeout))?;
    stream.set_nodelay(true).ok();
    let doc = proto::read_ctrl(&mut stream)?;
    match doc.field_str("type").map_err(|e| bad(&e.to_string()))? {
        "submit" => {
            let conn = stream.try_clone().ok();
            handle_submit(&mut stream, state, &doc, conn)
        }
        "status" => handle_status(&mut stream, state, &doc),
        "stats" => {
            let core = state.core.lock().unwrap();
            let out = stats_doc(&core);
            drop(core);
            proto::send_ctrl(&mut stream, &out)
        }
        "metrics" => {
            let core = state.core.lock().unwrap();
            let out = metrics_doc(&core);
            drop(core);
            proto::send_ctrl(&mut stream, &out)
        }
        "cancel" => handle_cancel(&mut stream, state, &doc),
        "drain" => {
            let (total_done, failed_queued) = drain_impl(state);
            proto::send_ctrl(
                &mut stream,
                &Json::Obj(vec![
                    ("type".into(), Json::from("drained")),
                    ("total_done".into(), Json::from(total_done)),
                    ("failed_queued".into(), Json::from(failed_queued)),
                ]),
            )
        }
        other => {
            let err = SortdError::BadManifest(format!("unknown request type {other:?}"));
            proto::send_ctrl(&mut stream, &proto::error_doc(None, &err))
        }
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// Answer a duplicate submit from the terminal record: a `done` original
/// replays as an ack + result (`duplicate: true`, no output payload — the
/// journal stores outcomes, not output bytes); a failed/canceled original
/// replays its error code, never retryable (retrying cannot change a
/// settled outcome).
fn send_duplicate(
    stream: &mut impl io::Write,
    id: u64,
    (dup_state, error, records): (JobState, Option<String>, u64),
) -> io::Result<()> {
    if dup_state == JobState::Done {
        send_ack(stream, id, "done", 0)?;
        proto::send_ctrl(
            stream,
            &Json::Obj(vec![
                ("type".into(), Json::from("result")),
                ("job_id".into(), Json::from(id)),
                ("state".into(), Json::from("done")),
                ("records".into(), Json::from(records)),
                ("output_bytes".into(), Json::from(0u64)),
                ("plan".into(), Json::from("cached")),
                ("duplicate".into(), Json::Bool(true)),
            ]),
        )?;
        return proto::send_payload(stream, &[]);
    }
    let code = error.unwrap_or_else(|| "exec_failed".into());
    proto::send_ctrl(
        stream,
        &Json::Obj(vec![
            ("type".into(), Json::from("error")),
            ("job_id".into(), Json::from(id)),
            ("code".into(), Json::from(code.as_str())),
            ("retryable".into(), Json::Bool(false)),
            (
                "message".into(),
                Json::from(format!("duplicate of settled job {id} ({code})").as_str()),
            ),
            ("duplicate".into(), Json::Bool(true)),
        ]),
    )
}

/// Register the submitter's socket for the watchdog's dead-client sweep —
/// only after the ack write succeeded, so the watchdog's nonblocking peek
/// can never race one of this thread's own blocking writes.
fn register_conn(state: &State, id: u64, conn: Option<TcpStream>) {
    if let Some(c) = conn {
        let mut core = state.core.lock().unwrap();
        if let Some(w) = core.watch.get_mut(&id) {
            w.conn = Some(c);
        }
    }
}

fn handle_submit(
    stream: &mut (impl io::Read + io::Write),
    state: &Arc<State>,
    doc: &Json,
    conn: Option<TcpStream>,
) -> io::Result<()> {
    let _span = obs::span(obs::phase::SORTD_JOB);
    // e2e clock: manifest parsed to result settled (telemetry's `e2e_us`).
    let submit_start = Instant::now();
    let spec = match JobSpec::from_json(doc) {
        Ok(s) => s,
        Err(e) => {
            let err = SortdError::BadManifest(e);
            let mut core = state.core.lock().unwrap();
            core.counters.rejected += 1;
            drop(core);
            // As for a manifest that fails validation below: drain the
            // payload under the fixed cap so the client reads the typed
            // error instead of a reset.
            let _ = proto::drain_payload(stream, proto::REJECT_DRAIN_CAP);
            return proto::send_ctrl(stream, &proto::error_doc(None, &err));
        }
    };

    // Validate against pool totals before touching the payload, so a
    // hopeless manifest is rejected without the input transfer counting
    // toward anything.
    {
        let mut core = state.core.lock().unwrap();
        let pool = core.admission.pool();
        if let Err(err) = spec.validate(pool.mem_total(), pool.scratch_total()) {
            core.counters.rejected += 1;
            drop(core);
            // Drain the payload the client is already streaming so its
            // writes don't die on a reset before it reads our error. The
            // manifest just failed validation, so its declared length is
            // untrusted: discard under a fixed cap, buffer nothing.
            let _ = proto::drain_payload(stream, proto::REJECT_DRAIN_CAP);
            return proto::send_ctrl(stream, &proto::error_doc(None, &err));
        }
    }

    // Idempotency gate, before the payload is buffered: a terminal key is
    // answered from its record (payload drained, never stored), a live key
    // is rejected, an interrupted key proceeds as a resume, and a fresh
    // key is reserved (value 0) so a concurrent same-key submit between
    // here and id allocation sees it in flight.
    if let Some(key) = spec.idem_key.clone() {
        let mut core = state.core.lock().unwrap();
        match core.idem.get(&key).copied() {
            None => {
                core.idem.insert(key.clone(), 0);
            }
            Some(prior) => {
                let snapshot = (prior != 0)
                    .then(|| core.jobs.get(&prior))
                    .flatten()
                    .map(|r| (r.state, r.error.clone(), r.records));
                let interrupted = matches!(&snapshot, Some((_, Some(e), _)) if e == "interrupted");
                let terminal = matches!(
                    snapshot,
                    Some((JobState::Done | JobState::Failed | JobState::Canceled, _, _))
                );
                if interrupted {
                    // The kill-interrupted original: re-run it, resuming
                    // whatever scratch survived. Its pending-recovery entry
                    // is claimed here so the grace sweep leaves it alone.
                    core.recovered.remove(&key);
                    core.idem.insert(key.clone(), 0);
                } else if terminal {
                    core.counters.duplicates += 1;
                    obs::metrics::counter_add("sortd.jobs.duplicates", 1);
                    let answer = snapshot.unwrap();
                    drop(core);
                    let _ = proto::drain_payload(stream, proto::REJECT_DRAIN_CAP);
                    return send_duplicate(stream, prior, answer);
                } else {
                    core.counters.rejected += 1;
                    drop(core);
                    let err = SortdError::BadManifest(format!(
                        "idem_key {key:?} is already in flight"
                    ));
                    let _ = proto::drain_payload(stream, proto::REJECT_DRAIN_CAP);
                    return proto::send_ctrl(stream, &proto::error_doc(None, &err));
                }
            }
        }
    }

    let input = match proto::read_payload(stream, spec.input_bytes) {
        Ok(v) => v,
        Err(e) => {
            // Un-reserve the key: the payload never arrived, nothing ran.
            if let Some(k) = &spec.idem_key {
                let mut core = state.core.lock().unwrap();
                if core.idem.get(k) == Some(&0) {
                    core.idem.remove(k);
                }
            }
            return Err(e);
        }
    };

    // Offer the job to admission.
    let deadline_at = (spec.deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(spec.deadline_ms));
    let (id, rx, token, mut jrec) = {
        let mut core = state.core.lock().unwrap();
        let id = core.next_id;
        core.next_id += 1;
        core.counters.submitted += 1;
        // The journaled key: the client's, or a synthetic one so keyless
        // jobs still journal (their scratch must be sweepable after a
        // kill — they just can't dedupe).
        let key = match (&spec.idem_key, &state.journal) {
            (Some(k), _) => Some(k.clone()),
            (None, Some(_)) => Some(format!("anon-job-{id}")),
            (None, None) => None,
        };
        core.jobs.insert(
            id,
            JobRecord {
                name: spec.name.clone(),
                state: JobState::Queued,
                error: None,
                records: 0,
                key: key.clone(),
            },
        );
        if let Some(k) = &spec.idem_key {
            core.idem.insert(k.clone(), id);
        }
        let jrec = key
            .filter(|_| state.journal.is_some())
            .map(|k| JournalRecord::accepted(k, id, spec.clone()));
        let token = CancelToken::new();
        let mut promoted = Vec::new();
        let offer = core
            .admission
            .offer(id, spec.mem_budget, spec.scratch_budget, &mut promoted);
        core.wake_promoted(promoted);
        match offer {
            Offer::Rejected(err) => {
                core.counters.rejected += 1;
                if let Some(rec) = core.jobs.get_mut(&id) {
                    rec.state = JobState::Failed;
                    rec.error = Some(err.code().to_string());
                }
                // Load-shedding must not poison the key: the client's
                // retry (same key) is a fresh job.
                if let Some(k) = &spec.idem_key {
                    if core.idem.get(k) == Some(&id) {
                        core.idem.remove(k);
                    }
                }
                drop(core);
                return proto::send_ctrl(stream, &proto::error_doc(Some(id), &err));
            }
            Offer::Admitted => {
                if let Some(rec) = core.jobs.get_mut(&id) {
                    rec.state = JobState::Running;
                }
                core.running += 1;
                core.watch.insert(
                    id,
                    JobWatch {
                        deadline: deadline_at,
                        deadline_ms: spec.deadline_ms,
                        conn: None,
                        token: Some(token.clone()),
                        rec: jrec.clone(),
                    },
                );
                drop(core);
                if let (Some(j), Some(rec)) = (&state.journal, &jrec) {
                    let _ = j.record(rec);
                }
                // Budget is reserved and `running` counted from here on:
                // if the ack cannot reach the client, the admission must
                // be unwound or drain() waits on a job that never runs.
                if let Err(e) = send_ack(stream, id, "running", 0) {
                    settle_never_ran(state, id, &spec);
                    return Err(e);
                }
                register_conn(state, id, conn);
                (id, None, token, jrec)
            }
            Offer::Queued { depth } => {
                let (tx, rx) = channel();
                core.waiters.insert(id, tx);
                core.watch.insert(
                    id,
                    JobWatch {
                        deadline: deadline_at,
                        deadline_ms: spec.deadline_ms,
                        conn: None,
                        token: None,
                        rec: jrec.clone(),
                    },
                );
                drop(core);
                if let (Some(j), Some(rec)) = (&state.journal, &jrec) {
                    let _ = j.record(rec);
                }
                if let Err(e) = send_ack(stream, id, "queued", depth) {
                    abort_queued(state, id, &spec, &rx);
                    return Err(e);
                }
                register_conn(state, id, conn);
                (id, Some(rx), token, jrec)
            }
        }
    };

    // Park until admitted (queued path). The channel never hangs: drain,
    // cancel, and the watchdog all wake it, and the sender lives in the
    // core's waiter map. Immediate admits record a true zero queue wait.
    let mut queue_wait = Duration::ZERO;
    if let Some(rx) = rx {
        let _q = obs::span(obs::phase::SORTD_QUEUE);
        let parked = Instant::now();
        let wake = rx.recv();
        queue_wait = parked.elapsed();
        match wake {
            Ok(Wake::Admitted) => {
                // Hand the watchdog the cooperative cancel path now that
                // the job is running.
                let mut core = state.core.lock().unwrap();
                if let Some(w) = core.watch.get_mut(&id) {
                    w.token = Some(token.clone());
                }
            }
            Ok(Wake::Failed(err)) => {
                // State and counters were updated by whoever failed us.
                return proto::send_ctrl(stream, &proto::error_doc(Some(id), &err));
            }
            Err(_) => {
                let err = SortdError::Exec("daemon shut down while job was queued".into());
                return proto::send_ctrl(stream, &proto::error_doc(Some(id), &err));
            }
        }
    }

    // Journal `running` with the scratch-manifest pointer: from here to
    // the terminal record, a kill leaves a resumable job.
    let manifest = jrec
        .as_ref()
        .and_then(|r| state.journal.as_ref().map(|j| j.scratch_manifest_path(&r.key)));
    if let (Some(j), Some(rec)) = (&state.journal, jrec.as_mut()) {
        rec.state = "running".into();
        rec.scratch_manifest = manifest.clone();
        let _ = j.record(rec);
    }

    // Run — no lock held.
    let exec_start = Instant::now();
    let result = run_job(id, &spec, input, &state.backing, &token, manifest.as_deref());
    let exec = exec_start.elapsed();

    // Release the budget, promote successors, settle the record.
    let mut core = state.core.lock().unwrap();
    let mut promoted = Vec::new();
    core.admission
        .release(spec.mem_budget, spec.scratch_budget, &mut promoted);
    core.wake_promoted(promoted);
    core.running -= 1;
    core.watch.remove(&id);
    let outcome = match &result {
        Ok((_, stats, _)) => {
            core.counters.done += 1;
            core.counters.runs_recovered += stats.runs_recovered;
            core.counters.runs_reformed += stats.runs_reformed;
            if let Some(rec) = core.jobs.get_mut(&id) {
                rec.state = JobState::Done;
                rec.records = stats.records;
            }
            Ok(())
        }
        Err(e) => {
            let err = match (e.kind(), token.reason()) {
                (io::ErrorKind::Interrupted, Some(CancelReason::Deadline)) => {
                    SortdError::DeadlineExceeded { limit_ms: spec.deadline_ms }
                }
                (io::ErrorKind::Interrupted, Some(CancelReason::ClientGone)) => {
                    SortdError::ClientGone
                }
                _ => SortdError::Exec(e.to_string()),
            };
            core.counters.failed += 1;
            if let Some(rec) = core.jobs.get_mut(&id) {
                rec.state = JobState::Failed;
                rec.error = Some(err.code().to_string());
            }
            // A client-gone abort produced no outcome: free the key (and
            // its journal record) so a surviving retry runs fresh.
            if matches!(err, SortdError::ClientGone) {
                forget_unrun(&mut core, &state.journal, id);
            }
            Err(err)
        }
    };
    // Every job that ran — success or exec failure — lands in the latency
    // histograms; jobs that never ran (reject/drain/cancel) do not.
    core.telemetry.record_job(queue_wait, exec, submit_start.elapsed());
    state.cv.notify_all();
    drop(core);

    // Journal the terminal state *before* answering: a kill between the
    // two still dedupes (the answer is re-sendable; the execution is not).
    if let (Some(j), Some(rec)) = (&state.journal, jrec.as_mut()) {
        match &outcome {
            Ok(()) => {
                if let Ok((_, stats, _)) = &result {
                    rec.state = "done".into();
                    rec.records = stats.records;
                    let _ = j.record(rec);
                }
            }
            // Already removed by forget_unrun under the lock.
            Err(SortdError::ClientGone) => {}
            Err(err) => {
                rec.state = "failed".into();
                rec.error = Some(err.code().to_string());
                let _ = j.record(rec);
            }
        }
    }

    match (result, outcome) {
        (Ok((sorted, stats, plan)), Ok(())) => {
            let result_doc = Json::Obj(vec![
                ("type".into(), Json::from("result")),
                ("job_id".into(), Json::from(id)),
                ("state".into(), Json::from("done")),
                ("records".into(), Json::from(stats.records)),
                ("output_bytes".into(), Json::from(sorted.len() as u64)),
                ("plan".into(), Json::from(format!("{plan:?}").as_str())),
            ]);
            proto::send_ctrl(stream, &result_doc)?;
            proto::send_payload(stream, &sorted)
        }
        (_, Err(err)) => proto::send_ctrl(stream, &proto::error_doc(Some(id), &err)),
        (Err(_), Ok(())) => unreachable!("error result recorded as success"),
    }
}

/// Unwind a job that was admitted (budget reserved, `running` counted)
/// but will never run because its client connection died: release the
/// budget, promote successors, record the failure, and wake drain.
fn settle_never_ran(state: &State, id: u64, spec: &JobSpec) {
    let mut core = state.core.lock().unwrap();
    let mut promoted = Vec::new();
    core.admission
        .release(spec.mem_budget, spec.scratch_budget, &mut promoted);
    core.wake_promoted(promoted);
    core.running -= 1;
    core.counters.failed += 1;
    if let Some(rec) = core.jobs.get_mut(&id) {
        rec.state = JobState::Failed;
        rec.error = Some(SortdError::ClientGone.code().to_string());
    }
    forget_unrun(&mut core, &state.journal, id);
    state.cv.notify_all();
}

/// Settle a job stranded in the admission queue by a failed ack write.
/// This races concurrent promotion, but both promotion and drain/cancel
/// wake the waiter *while holding the core lock* — so once we hold it,
/// the job is either still queued or its wake message is already in `rx`.
fn abort_queued(state: &State, id: u64, spec: &JobSpec, rx: &Receiver<Wake>) {
    let mut core = state.core.lock().unwrap();
    if core.admission.cancel_queued(id) {
        // Still queued: nothing reserved, just remove every trace.
        core.waiters.remove(&id);
        core.counters.failed += 1;
        if let Some(rec) = core.jobs.get_mut(&id) {
            rec.state = JobState::Failed;
            rec.error = Some(SortdError::ClientGone.code().to_string());
        }
        forget_unrun(&mut core, &state.journal, id);
        return;
    }
    drop(core);
    match rx.try_recv() {
        // Promoted while the ack write was failing: the promoter reserved
        // budget and counted us running — undo the admission.
        Ok(Wake::Admitted) => settle_never_ran(state, id, spec),
        // Drain or cancel already failed the job and settled its record;
        // nothing is held on its behalf.
        Ok(Wake::Failed(_)) | Err(_) => {}
    }
}

fn send_ack(stream: &mut impl io::Write, id: u64, st: &str, depth: usize) -> io::Result<()> {
    proto::send_ctrl(
        stream,
        &Json::Obj(vec![
            ("type".into(), Json::from("ack")),
            ("job_id".into(), Json::from(id)),
            ("state".into(), Json::from(st)),
            ("queue_depth".into(), Json::from(depth as u64)),
        ]),
    )
}

fn handle_status(stream: &mut TcpStream, state: &Arc<State>, doc: &Json) -> io::Result<()> {
    let id = doc.field_u64("job_id").map_err(|e| bad(&e.to_string()))?;
    let core = state.core.lock().unwrap();
    let out = match core.jobs.get(&id) {
        Some(rec) => {
            let mut fields = vec![
                ("type".into(), Json::from("status")),
                ("job_id".into(), Json::from(id)),
                ("name".into(), Json::from(rec.name.as_str())),
                ("state".into(), Json::from(rec.state.name())),
            ];
            if let Some(code) = &rec.error {
                fields.push(("error".into(), Json::from(code.as_str())));
            }
            Json::Obj(fields)
        }
        None => proto::error_doc(
            Some(id),
            &SortdError::BadManifest(format!("no job {id}")),
        ),
    };
    drop(core);
    proto::send_ctrl(stream, &out)
}

fn handle_cancel(stream: &mut TcpStream, state: &Arc<State>, doc: &Json) -> io::Result<()> {
    let id = doc.field_u64("job_id").map_err(|e| bad(&e.to_string()))?;
    let mut core = state.core.lock().unwrap();
    let out = if core.admission.cancel_queued(id) {
        if let Some(rec) = core.jobs.get_mut(&id) {
            rec.state = JobState::Canceled;
            rec.error = Some(SortdError::Canceled.code().to_string());
        }
        core.counters.canceled += 1;
        if let Some(tx) = core.waiters.remove(&id) {
            let _ = tx.send(Wake::Failed(SortdError::Canceled));
        }
        // A client cancel is a settled intent: journal it terminal so the
        // key dedupes to `canceled` even across a restart.
        if let Some(w) = core.watch.remove(&id) {
            if let (Some(mut rec), Some(j)) = (w.rec, &state.journal) {
                rec.state = "canceled".into();
                rec.error = Some(SortdError::Canceled.code().to_string());
                let _ = j.record(&rec);
            }
        }
        Json::Obj(vec![
            ("type".into(), Json::from("canceled")),
            ("job_id".into(), Json::from(id)),
        ])
    } else {
        // Running, finished, or unknown: cancel only reaches queued jobs.
        let st = core.jobs.get(&id).map(|r| r.state.name()).unwrap_or("unknown");
        Json::Obj(vec![
            ("type".into(), Json::from("cancel_refused")),
            ("job_id".into(), Json::from(id)),
            ("state".into(), Json::from(st)),
        ])
    };
    drop(core);
    proto::send_ctrl(stream, &out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::MIN_JOB_MEM;
    use alphasort_dmgen::RECORD_LEN;

    /// A client whose connection died: the request is readable, but every
    /// response write fails — the shape of a peer that hung up after
    /// streaming its payload.
    struct BrokenClient {
        input: io::Cursor<Vec<u8>>,
    }

    impl io::Read for BrokenClient {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            io::Read::read(&mut self.input, buf)
        }
    }

    impl io::Write for BrokenClient {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(io::Error::new(io::ErrorKind::BrokenPipe, "client gone"))
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A live loopback client: request in, responses collected.
    struct LoopClient {
        input: io::Cursor<Vec<u8>>,
        out: Vec<u8>,
    }

    impl io::Read for LoopClient {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            io::Read::read(&mut self.input, buf)
        }
    }

    impl io::Write for LoopClient {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn test_state(pool: PoolConfig) -> Arc<State> {
        Arc::new(State {
            core: Mutex::new(Core {
                admission: Admission::new(pool, AdmissionConfig::default()),
                jobs: BTreeMap::new(),
                next_id: 1,
                running: 0,
                active_conns: 0,
                counters: Counters::default(),
                waiters: HashMap::new(),
                idem: HashMap::new(),
                watch: HashMap::new(),
                recovered: HashMap::new(),
                telemetry: Telemetry::new(),
            }),
            cv: Condvar::new(),
            backing: ScratchBacking::Memory,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            journal: None,
            acceptor: Mutex::new(None),
        })
    }

    fn one_record_spec(mem: u64) -> JobSpec {
        JobSpec {
            name: "t".into(),
            input_bytes: RECORD_LEN as u64,
            mem_budget: mem,
            scratch_budget: 0,
            ..JobSpec::default()
        }
    }

    fn submit_via_broken_client(state: &Arc<State>, spec: &JobSpec) -> io::Result<()> {
        let mut wire = Vec::new();
        proto::send_payload(&mut wire, &vec![0u8; spec.input_bytes as usize]).unwrap();
        let mut client = BrokenClient {
            input: io::Cursor::new(wire),
        };
        handle_submit(&mut client, state, &spec.to_json(), None)
    }

    fn submit_via_loop_client(state: &Arc<State>, spec: &JobSpec) -> io::Result<Vec<u8>> {
        let mut wire = Vec::new();
        proto::send_payload(&mut wire, &vec![0u8; spec.input_bytes as usize]).unwrap();
        let mut client = LoopClient {
            input: io::Cursor::new(wire),
            out: Vec::new(),
        };
        handle_submit(&mut client, state, &spec.to_json(), None)?;
        Ok(client.out)
    }

    #[test]
    fn failed_ack_after_admission_releases_budget_and_running() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        let err = submit_via_broken_client(&state, &one_record_spec(MIN_JOB_MEM)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        let core = state.core.lock().unwrap();
        assert_eq!(core.running, 0, "running count must unwind");
        assert!(core.admission.pool().idle(), "budget must be released");
        assert!(core.waiters.is_empty());
        assert!(core.watch.is_empty(), "no stale watchdog entry");
        assert_eq!(core.counters.failed, 1);
        let rec = core.jobs.get(&1).expect("job recorded");
        assert_eq!(rec.state, JobState::Failed);
        assert_eq!(rec.error.as_deref(), Some("client_gone"));
    }

    #[test]
    fn failed_ack_of_a_queued_job_leaves_no_stranded_waiter() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        // A resident job holds the whole pool, so the submit must queue.
        {
            let mut core = state.core.lock().unwrap();
            let mut promoted = Vec::new();
            assert_eq!(
                core.admission.offer(999, 1 << 20, 0, &mut promoted),
                Offer::Admitted
            );
            core.running += 1;
        }
        let err = submit_via_broken_client(&state, &one_record_spec(MIN_JOB_MEM)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        {
            let core = state.core.lock().unwrap();
            assert_eq!(core.admission.queue_depth(), 0, "job removed from queue");
            assert!(core.waiters.is_empty(), "no orphaned waiter");
            assert_eq!(core.counters.failed, 1);
            let rec = core.jobs.get(&1).expect("job recorded");
            assert_eq!(rec.state, JobState::Failed);
            assert_eq!(rec.error.as_deref(), Some("client_gone"));
        }
        // The resident's release finds nothing to promote — the stranded
        // job is truly gone — and the pool zeroes out.
        let mut core = state.core.lock().unwrap();
        let mut promoted = Vec::new();
        core.admission.release(1 << 20, 0, &mut promoted);
        core.running -= 1;
        assert!(promoted.is_empty(), "no ghost promotion");
        assert!(core.admission.pool().idle());
    }

    #[test]
    fn duplicate_key_is_answered_from_the_record_without_rerunning() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        let spec = JobSpec {
            idem_key: Some("dup-1".into()),
            ..one_record_spec(MIN_JOB_MEM)
        };
        submit_via_loop_client(&state, &spec).unwrap();
        {
            let core = state.core.lock().unwrap();
            assert_eq!(core.counters.done, 1);
            assert_eq!(core.counters.duplicates, 0);
        }
        // Same key again: answered from the record, no second execution.
        let wire = submit_via_loop_client(&state, &spec).unwrap();
        let core = state.core.lock().unwrap();
        assert_eq!(core.counters.done, 1, "the sort must not run twice");
        assert_eq!(core.counters.duplicates, 1);
        assert_eq!(core.counters.submitted, 1, "duplicates are not submissions");
        assert!(core.admission.pool().idle());
        drop(core);
        // The duplicate's result doc says so on the wire.
        let mut r = io::Cursor::new(wire);
        let ack = proto::read_ctrl(&mut r).unwrap();
        assert_eq!(ack.field_str("state").unwrap(), "done");
        let result = proto::read_ctrl(&mut r).unwrap();
        assert_eq!(result.get("duplicate").and_then(Json::as_bool), Some(true));
        assert_eq!(result.field_u64("output_bytes").unwrap(), 0);
    }

    #[test]
    fn in_flight_key_is_rejected_and_reject_does_not_poison_the_key() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        let spec = JobSpec {
            idem_key: Some("live-1".into()),
            ..one_record_spec(MIN_JOB_MEM)
        };
        // Simulate an in-flight reservation (a concurrent submit between
        // its dedupe check and its id allocation).
        state.core.lock().unwrap().idem.insert("live-1".into(), 0);
        let wire = submit_via_loop_client(&state, &spec).unwrap();
        let mut r = io::Cursor::new(wire);
        let err = proto::read_ctrl(&mut r).unwrap();
        assert_eq!(err.field_str("type").unwrap(), "error");
        assert!(err.field_str("message").unwrap().contains("in flight"));
        // Clearing the reservation (as the owning submit's failure path
        // would) lets the key run.
        state.core.lock().unwrap().idem.remove("live-1");
        submit_via_loop_client(&state, &spec).unwrap();
        assert_eq!(state.core.lock().unwrap().counters.done, 1);
    }

    #[test]
    fn watchdog_kills_an_expired_queued_job() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        // A resident job holds the whole pool; queue a watched job whose
        // deadline has already passed.
        let (id, rx) = {
            let mut core = state.core.lock().unwrap();
            let mut promoted = Vec::new();
            assert_eq!(core.admission.offer(999, 1 << 20, 0, &mut promoted), Offer::Admitted);
            core.running += 1;
            let id = core.next_id;
            core.next_id += 1;
            core.jobs.insert(
                id,
                JobRecord {
                    name: "dl".into(),
                    state: JobState::Queued,
                    error: None,
                    records: 0,
                    key: None,
                },
            );
            assert!(matches!(
                core.admission.offer(id, MIN_JOB_MEM, 0, &mut promoted),
                Offer::Queued { .. }
            ));
            let (tx, rx) = channel();
            core.waiters.insert(id, tx);
            core.watch.insert(
                id,
                JobWatch {
                    deadline: Some(Instant::now()),
                    deadline_ms: 5,
                    conn: None,
                    token: None,
                    rec: None,
                },
            );
            (id, rx)
        };
        watchdog_pass(&state, Duration::from_secs(60));
        match rx.try_recv() {
            Ok(Wake::Failed(SortdError::DeadlineExceeded { limit_ms })) => {
                assert_eq!(limit_ms, 5)
            }
            other => panic!("expected deadline wake, got {:?}", other.is_ok()),
        }
        let core = state.core.lock().unwrap();
        assert_eq!(core.counters.deadline_kills, 1);
        assert_eq!(core.admission.queue_depth(), 0);
        assert!(core.watch.is_empty());
        assert_eq!(
            core.jobs.get(&id).unwrap().error.as_deref(),
            Some("deadline_exceeded")
        );
    }

    #[test]
    fn watchdog_deadline_on_a_running_job_fires_the_token_once() {
        let state = test_state(PoolConfig {
            mem_total: 1 << 20,
            scratch_total: 1 << 20,
        });
        let token = CancelToken::new();
        {
            let mut core = state.core.lock().unwrap();
            core.watch.insert(
                7,
                JobWatch {
                    deadline: Some(Instant::now()),
                    deadline_ms: 10,
                    conn: None,
                    token: Some(token.clone()),
                    rec: None,
                },
            );
        }
        watchdog_pass(&state, Duration::from_secs(60));
        watchdog_pass(&state, Duration::from_secs(60));
        assert_eq!(token.reason(), Some(CancelReason::Deadline));
        let core = state.core.lock().unwrap();
        assert_eq!(core.counters.deadline_kills, 1, "deadline counted once");
        assert!(core.watch.contains_key(&7), "running watch stays until settle");
    }
}
