//! The `sortd-mixed` workload: an in-process durable `Sortd` under a
//! closed loop of clients.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use alphasort_dmgen::{generate, GenConfig, SplitMix64};
use alphasort_iosim::{catalog, FileStorage, IoEngine, Pacing, SimDisk};
use alphasort_minijson::Json;
use alphasort_obs::{self as obs, phase, MetricsSnapshot};
use alphasort_sortd::{
    proto, Client, JobSpec, Journal, JournalRecord, PoolConfig, ScratchBacking, Sortd, SortdConfig,
};
use alphasort_stripefs::Volume;

use crate::alloc;
use crate::check::datamation_oracle;
use crate::cpu::process_cpu_seconds;
use crate::report::{median, quantile, tail_q, Metrics, Outcome};
use crate::trace::self_times;
use crate::{describe, Layers, Phase};

// The job mix and the daemon's sizing: 95% small and 5% large jobs from
// two closed-loop clients.

/// Records per small job (one pass under `SMALL_MEM`).
const SMALL_RECORDS: u64 = 3_000;
/// Records per large job (two passes under `LARGE_MEM`).
const LARGE_RECORDS: u64 = 100_000;
/// One large job in every block of this many submits, at a random place
/// in the block: the share is fixed, only the order varies with the seed.
const LARGE_EVERY: u64 = 20;
/// Distinct pre-generated small inputs.
const SMALL_INPUTS: u64 = 32;
/// Distinct pre-generated large inputs.
const LARGE_INPUTS: u64 = 2;
/// Memory budget of a small job.
const SMALL_MEM: u64 = 1 << 20;
/// Memory budget of a large job.
const LARGE_MEM: u64 = 4 << 20;
/// Pool memory: two small jobs fit together, a large job fits beside none.
const POOL_MEM: u64 = LARGE_MEM + SMALL_MEM / 2;
/// Closed-loop client threads, one connection each at a time.
const CLIENTS: usize = 2;
/// Settled records staged in the journal before each start.
const STAGED_SETTLED: u64 = 200;
/// Interrupted records staged in the journal before each start.
const STAGED_INTERRUPTED: u64 = 4;
/// Daemon restarts timed for `setup_s`.
const RESTARTS: usize = 9;

/// Stripe chunk of the daemon's scratch volume.
const SCRATCH_CHUNK: u64 = 64 * 1024;
/// Disk images in the daemon's scratch volume.
const SCRATCH_DISKS: usize = 2;
/// Retries of a retryable refusal before the job counts as failed.
const MAX_RETRIES: u64 = 1_000;

struct Job {
    spec: JobSpec,
    input: Vec<u8>,
    oracle: Vec<u8>,
    records: u64,
}

fn job(name: &str, records: u64, mem: u64, seed: u64) -> Job {
    let (input, _) = generate(GenConfig::datamation(records, seed));
    let bytes = input.len() as u64;
    Job {
        spec: JobSpec {
            name: name.into(),
            input_bytes: bytes,
            mem_budget: mem,
            scratch_budget: 2 * bytes,
            ..JobSpec::default()
        },
        oracle: datamation_oracle(&input),
        input,
        records,
    }
}

/// Pre-generated inputs with their oracles, and the submit order.
struct Jobs {
    jobs: Vec<Job>,
    order: Vec<usize>,
}

impl Jobs {
    fn new(seed: u64) -> Jobs {
        let mut rng = SplitMix64::new(seed);
        let mut jobs: Vec<Job> = (0..SMALL_INPUTS)
            .map(|_| job("small", SMALL_RECORDS, SMALL_MEM, rng.next_u64()))
            .collect();
        jobs.extend(
            (0..LARGE_INPUTS).map(|_| job("large", LARGE_RECORDS, LARGE_MEM, rng.next_u64())),
        );
        let mut order = Vec::new();
        for _ in 0..(1 << 16) / LARGE_EVERY {
            let large_at = rng.next_below(LARGE_EVERY);
            for i in 0..LARGE_EVERY {
                order.push(if i == large_at {
                    (SMALL_INPUTS + rng.next_below(LARGE_INPUTS)) as usize
                } else {
                    rng.next_below(SMALL_INPUTS) as usize
                });
            }
        }
        Jobs { jobs, order }
    }
}

struct Daemon {
    sortd: Sortd,
    disks: Vec<Arc<SimDisk>>,
    journal: PathBuf,
}

impl Daemon {
    fn stop(self) {
        self.sortd.drain();
        self.sortd.wait_drained();
    }
}

fn stage_journal(dir: &Path, jobs: &Jobs) -> io::Result<()> {
    let journal = Journal::open(dir)?;
    let small = &jobs.jobs[0];
    let large = &jobs.jobs[SMALL_INPUTS as usize];
    for i in 0..STAGED_SETTLED {
        journal.record(&JournalRecord {
            records: small.records,
            state: "done".into(),
            ..JournalRecord::accepted(format!("staged-done-{i}"), i + 1, small.spec.clone())
        })?;
    }
    for i in 0..STAGED_INTERRUPTED {
        let key = format!("staged-cut-{i}");
        let manifest = journal.scratch_manifest_path(&key);
        journal.record(&JournalRecord {
            state: "running".into(),
            scratch_manifest: Some(manifest),
            ..JournalRecord::accepted(key, STAGED_SETTLED + i + 1, large.spec.clone())
        })?;
    }
    Ok(())
}

/// Stage a journal and a fresh file-backed volume under `dir`, then time
/// `Sortd::start` until the first job's admission ack. The probe job runs
/// to completion afterwards; returns whether its output was right.
fn start(jobs: &Jobs, dir: &Path) -> io::Result<(Daemon, Duration, bool)> {
    if dir.exists() {
        fs::remove_dir_all(dir)?;
    }
    let journal = dir.join("journal");
    stage_journal(&journal, jobs)?;
    let images = dir.join("volume");
    fs::create_dir_all(&images)?;
    let disks = (0..SCRATCH_DISKS)
        .map(|i| {
            Ok(SimDisk::new(
                format!("scratch{i}"),
                catalog::uncapped(),
                Arc::new(FileStorage::create(images.join(format!("disk{i}.img")))?),
                Pacing::Modeled,
                None,
            ))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let volume = Arc::new(Volume::new(Arc::new(IoEngine::new(disks.clone()))));
    let cfg = SortdConfig {
        pool: PoolConfig {
            mem_total: POOL_MEM,
            scratch_total: 256 << 20,
        },
        backing: ScratchBacking::SharedVolume(volume, SCRATCH_CHUNK),
        journal: Some(journal.clone()),
        ..SortdConfig::default()
    };
    let probe = &jobs.jobs[0];
    let t = Instant::now();
    let sortd = Sortd::start(cfg)?;
    let mut s = TcpStream::connect(sortd.addr())?;
    proto::send_ctrl(&mut s, &probe.spec.to_json())?;
    proto::send_payload(&mut s, &probe.input)?;
    let ack = proto::read_ctrl(&mut s)?;
    let setup = t.elapsed();
    let daemon = Daemon {
        sortd,
        disks,
        journal,
    };
    let ok = ack.field_str("type").ok() != Some("error") && {
        let result = proto::read_ctrl(&mut s)?;
        let bytes = result.field_u64("output_bytes").map_err(io::Error::other)?;
        proto::read_payload(&mut s, bytes)? == probe.oracle
    };
    Ok((daemon, setup, ok))
}

/// One client-seen job.
struct Sample {
    latency: Duration,
    ok: bool,
    records: u64,
    bytes: u64,
    retries: u64,
}

/// What one closed-loop interval measured.
struct Interval {
    samples: Vec<Sample>,
    wall: Duration,
    cpu_s: f64,
    heap_peak: u64,
    allocs: alloc::AllocTotals,
    metrics: MetricsSnapshot,
}

impl Interval {
    fn ok_jobs(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.ok)
    }

    fn jobs_per_s(&self) -> f64 {
        self.ok_jobs().count() as f64 / self.wall.as_secs_f64()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.samples
            .iter()
            .map(|s| s.latency.as_secs_f64() * 1e3)
            .collect()
    }

    fn daemon_ms(&self, histogram: &str, q: f64) -> f64 {
        self.metrics
            .histograms
            .get(histogram)
            .and_then(|h| h.quantile(q))
            .unwrap_or(0.0)
            / 1e3
    }
}

fn metrics_of(client: &Client) -> io::Result<MetricsSnapshot> {
    let doc = client
        .metrics()
        .map_err(|e| io::Error::other(e.to_string()))?;
    MetricsSnapshot::from_json(&doc).map_err(io::Error::other)
}

/// Submit jobs from `CLIENTS` threads until `seconds` have passed.
fn closed_loop(d: &Daemon, jobs: &Jobs, next: &AtomicUsize, seconds: f64) -> io::Result<Interval> {
    let client = Client::new(d.sortd.addr());
    let before = metrics_of(&client)?;
    let heap0 = alloc::reset_peak();
    let allocs0 = alloc::totals();
    let cpu0 = process_cpu_seconds()?;
    let start = Instant::now();
    let samples: Vec<Sample> = thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while start.elapsed().as_secs_f64() < seconds {
                        let job =
                            &jobs.jobs[jobs.order[next.fetch_add(1, Relaxed) % jobs.order.len()]];
                        let t = Instant::now();
                        let mut retries = 0;
                        let result = loop {
                            match client.submit(&job.spec, &job.input) {
                                Err(e) if e.retryable() && retries < MAX_RETRIES => {
                                    retries += 1;
                                    thread::sleep(Duration::from_millis(1));
                                }
                                r => break r,
                            }
                        };
                        let latency = t.elapsed();
                        let ok = match result {
                            Ok(r) if r.output == job.oracle => true,
                            Ok(_) => {
                                eprintln!("sortd-mixed: WRONG OUTPUT for a {} job", job.spec.name);
                                false
                            }
                            Err(e) => {
                                eprintln!("sortd-mixed: {} job failed: {e}", job.spec.name);
                                false
                            }
                        };
                        out.push(Sample {
                            latency,
                            ok,
                            records: job.records,
                            bytes: job.input.len() as u64,
                            retries,
                        });
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let wall = start.elapsed();
    let cpu_s = process_cpu_seconds()? - cpu0;
    let heap_peak = alloc::peak().saturating_sub(heap0);
    let allocs = alloc::totals().since(allocs0);
    let metrics = metrics_of(&client)?.diff(&before);
    Ok(Interval {
        samples,
        wall,
        cpu_s,
        heap_peak,
        allocs,
        metrics,
    })
}

fn end_to_end(iv: &Interval, setups: &[f64]) -> Metrics {
    let ms = iv.latencies_ms();
    let records: u64 = iv.ok_jobs().map(|s| s.records).sum();
    let gb: f64 = iv.samples.iter().map(|s| s.bytes as f64).sum::<f64>() / 1e9;
    let mut m = Metrics::default();
    m.put(
        "records_per_s",
        records as f64 / iv.wall.as_secs_f64(),
        "records/s",
    );
    m.put("jobs_per_s", iv.jobs_per_s(), "jobs/s");
    m.put("job_p50_ms", median(&ms), "ms");
    m.put("job_p99_ms", quantile(&ms, tail_q(ms.len())), "ms");
    m.put("peak_heap_mb", iv.heap_peak as f64 / 1e6, "MB");
    m.put("cpu_s_per_gb", iv.cpu_s / gb, "CPU-s/GB");
    m.put("setup_s", median(setups), "s");
    m
}

fn per_layer(
    d: &Daemon,
    iv: &Interval,
    plain: &Interval,
    snap: &obs::TraceSnapshot,
) -> io::Result<Layers> {
    let spans = self_times(snap);
    let total = |name: &str| spans.get(name).map(|t| t.total).unwrap_or_default();
    let jobs = iv.samples.len().max(1) as f64;
    let mut l = Layers {
        phases: vec![
            Phase::new("driver.read_wait_s", total(phase::READ), None),
            Phase::new("runform.sort_s", total(phase::SORT), None),
            Phase::new("merge.merge_s", total(phase::MERGE), None),
            Phase::new("gather.gather_s", total(phase::GATHER), None),
            Phase::new(
                "driver.spill_s",
                total(phase::SPILL),
                Some((
                    "stripe.write + stripe.read",
                    total(phase::STRIPE_WRITE) + total(phase::STRIPE_READ),
                )),
            ),
            Phase::new("driver.write_wait_s", total(phase::WRITE), None),
        ],
        elapsed: total(phase::ONE_PASS) + total(phase::TWO_PASS),
        ..Layers::default()
    };
    // Runs formed, and those a two-pass job spilled, from the sort spans.
    let two_pass_tracks: BTreeSet<_> = snap
        .events
        .iter()
        .filter(|e| e.name == phase::TWO_PASS)
        .filter_map(|e| e.track.clone())
        .collect();
    let sorts = snap.events.iter().filter(|e| e.name == phase::SORT);
    let spilled = sorts
        .clone()
        .filter(|e| {
            e.track
                .as_ref()
                .is_some_and(|t| two_pass_tracks.contains(t))
        })
        .count();
    let disks = d.disks.iter().map(|d| d.stats());
    let (mut written, mut read, mut writes, mut reads, mut seeks) = (0, 0, 0, 0, 0);
    for s in disks {
        written += s.bytes_written;
        read += s.bytes_read;
        writes += s.writes;
        reads += s.reads;
        seeks += s.seeks;
    }
    let input: f64 = iv.samples.iter().map(|s| s.bytes as f64).sum();
    let stats = Client::new(d.sortd.addr())
        .stats()
        .map_err(|e| io::Error::other(e.to_string()))?;
    let hwm = stats
        .get("pool")
        .and_then(|p| p.get("mem_hwm"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let (files, bytes, records) = journal_usage(&d.journal)?;
    let job_p50 = median(&iv.latencies_ms());
    let e2e_p50 = iv.daemon_ms("sortd.e2e_us", 0.5);
    let v = &mut l.values;
    v.insert("driver.runs", sorts.count() as f64);
    v.insert(
        "scratch.write_busy_s",
        total(phase::STRIPE_WRITE).as_secs_f64(),
    );
    v.insert(
        "scratch.read_busy_s",
        total(phase::STRIPE_READ).as_secs_f64(),
    );
    v.insert("scratch.bytes_written", written as f64);
    v.insert("scratch.bytes_read", read as f64);
    v.insert("scratch.runs", spilled as f64);
    v.insert("scratch.write_amp", written as f64 / input);
    v.insert("iosim.writes", writes as f64);
    v.insert("iosim.reads", reads as f64);
    v.insert("iosim.bytes_written", written as f64);
    v.insert("iosim.seeks", seeks as f64);
    v.insert(
        "sortd.queue_wait_p99_ms",
        iv.daemon_ms("sortd.queue_wait_us", 0.99),
    );
    v.insert("sortd.exec_p50_ms", iv.daemon_ms("sortd.exec_us", 0.5));
    v.insert("sortd.exec_p99_ms", iv.daemon_ms("sortd.exec_us", 0.99));
    v.insert("sortd.e2e_p50_ms", e2e_p50);
    v.insert("sortd.e2e_p99_ms", iv.daemon_ms("sortd.e2e_us", 0.99));
    v.insert("sortd.unattributed_p50_ms", job_p50 - e2e_p50);
    v.insert(
        "sortd.backpressure_retries",
        iv.samples.iter().map(|s| s.retries).sum::<u64>() as f64,
    );
    v.insert("sortd.pool_mem_hwm_mb", hwm as f64 / 1e6);
    v.insert(
        "sortd.aged_barriers",
        iv.metrics
            .counters
            .get("sortd.admission.aged_barriers")
            .copied()
            .unwrap_or(0) as f64,
    );
    v.insert(
        "journal.bytes_per_job",
        bytes as f64 / records.max(1) as f64,
    );
    v.insert("journal.files", files as f64);
    v.insert("alloc.count", iv.allocs.count as f64 / jobs);
    v.insert("alloc.bytes", iv.allocs.bytes as f64 / jobs);
    let ratio = iv.jobs_per_s() / plain.jobs_per_s();
    v.insert("trace.rate_ratio", ratio);
    l.notes = vec![
        format!(
            "client job p50 {job_p50:.3} ms = daemon e2e p50 {e2e_p50:.3} ms + sortd.unattributed_p50_ms {:.3} ms",
            job_p50 - e2e_p50
        ),
        format!(
            "daemon: queue_wait p99 {:.3} ms, exec p50 {:.3} ms, exec p99 {:.3} ms over {} jobs",
            iv.daemon_ms("sortd.queue_wait_us", 0.99),
            iv.daemon_ms("sortd.exec_us", 0.5),
            iv.daemon_ms("sortd.exec_us", 0.99),
            iv.samples.len()
        ),
        format!(
            "tracing overhead: traced jobs/s / untraced jobs/s = {ratio:.4} ({} traced, {} untraced jobs)",
            iv.samples.len(),
            plain.samples.len()
        ),
    ];
    l.spans = spans;
    Ok(l)
}

/// `(files, bytes, job records)` in the journal directory.
fn journal_usage(dir: &Path) -> io::Result<(u64, u64, u64)> {
    let (mut files, mut bytes, mut records) = (0, 0, 0);
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        files += 1;
        bytes += entry.metadata()?.len();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".json") && !name.ends_with(".scratch.json") {
            records += 1;
        }
    }
    Ok((files, bytes, records))
}

/// Run the workload; see [`crate::run`].
pub fn run(seed: u64, seconds: f64, traced: bool, work: &Path) -> io::Result<Outcome> {
    let jobs = Jobs::new(seed);
    let mut outcome = Outcome::default();
    let mut setups = Vec::new();
    let mut daemon = None;
    for i in 0..RESTARTS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d);
        }
        let (d, setup, ok) = start(&jobs, &work.join(format!("daemon{i}")))?;
        setups.push(setup.as_secs_f64());
        outcome.attempted += 1;
        if !ok {
            outcome.failed += 1;
            eprintln!("sortd-mixed: WRONG OUTPUT for the admission probe");
        }
        daemon = Some(d);
    }
    let d = daemon.expect("at least one restart");
    let next = AtomicUsize::new(0);
    let mut intervals = Vec::new();
    if !traced {
        let iv = closed_loop(&d, &jobs, &next, seconds)?;
        outcome.metrics = end_to_end(&iv, &setups);
        eprint!("{}", describe("sortd-mixed", &outcome.metrics));
        let ms = iv.latencies_ms();
        let q = |p: f64| quantile(&ms, p);
        eprintln!(
            "  client-seen ms over {} jobs: p10 {:.2} p25 {:.2} p50 {:.2} p75 {:.2} p90 {:.2} p95 {:.2} p99 {:.2} max {:.2}",
            ms.len(), q(0.1), q(0.25), q(0.5), q(0.75), q(0.9), q(0.95), q(0.99), q(1.0)
        );
        intervals.push(iv);
    } else {
        let plain = closed_loop(&d, &jobs, &next, seconds / 2.0)?;
        for disk in &d.disks {
            disk.reset_stats();
        }
        obs::enable(obs::DEFAULT_CAPACITY);
        let iv = closed_loop(&d, &jobs, &next, seconds / 2.0);
        obs::disable();
        let iv = iv?;
        let layers = per_layer(&d, &iv, &plain, &obs::snapshot())?;
        eprint!("{}", layers.table("sortd-mixed"));
        outcome.metrics = layers.metrics();
        intervals.push(plain);
        intervals.push(iv);
    }
    Daemon::stop(d);
    for iv in &intervals {
        outcome.attempted += iv.samples.len() as u64;
        outcome.failed += iv.samples.iter().filter(|s| !s.ok).count() as u64;
    }
    Ok(outcome)
}
