//! `sortd` — the sort-as-a-service daemon and its command-line client.
//!
//! ```text
//! sortd serve  [--listen ADDR] [--pool-mem BYTES] [--pool-scratch BYTES]
//!              [--queue-bound N] [--bypass-limit N] [--scratch-dir DIR]
//!              [--journal DIR] [--trace-out TRACE.json] [--metrics-out METRICS.json]
//! sortd submit --addr ADDR (--in FILE | --gen RECORDS[:SEED]) [--out FILE]
//!              [--mem BYTES] [--scratch BYTES] [--merge-workers N] [--name NAME]
//!              [--idem-key KEY] [--deadline-ms N]
//! sortd fleet  --addr ADDR [--jobs N] [--threads N] [--records N] [--mem BYTES]
//!              [--retries N]
//! sortd stats  --addr ADDR
//! sortd top    --addr ADDR [--interval-ms N] [--iters N]
//! sortd status --addr ADDR --job ID
//! sortd cancel --addr ADDR --job ID
//! sortd drain  --addr ADDR
//! ```
//!
//! `serve` prints `sortd listening on ADDR` (with the resolved port) and
//! runs until a client sends `drain`. With `--scratch-dir`, two-pass jobs
//! spill to one shared striped volume of disk-image files in DIR, each
//! job under its own run-file namespace; without it, scratch lives in
//! memory. With `--journal DIR`, every job lifecycle transition is
//! journaled to DIR and a restarted daemon pointed at the same journal
//! (and scratch dir) recovers: settled jobs answer re-submitted
//! idempotency keys from the record, interrupted two-pass jobs reattach
//! their surviving scratch runs so only the lost tail re-forms.
//!
//! `submit` streams a file (or a freshly generated Datamation input) to
//! the daemon and writes the sorted bytes to `--out`. With `--gen` it
//! prints the input fingerprint as `checksum COUNT:SUM:XOR` — feed that to
//! `valsort --expect` to validate the output end to end.
//!
//! `fleet` is a synthetic client fleet for smoke tests: N generated jobs
//! over T client threads, every output checked against an in-process
//! stable sort; exits non-zero on any mismatch or non-retryable failure.
//!
//! `top` polls the daemon's `metrics` wire document and diffs successive
//! snapshots into interval rates: jobs/s by outcome, admission
//! bypass/aging rates, pool utilization, and live p50/p99 latencies from
//! the histogram delta. With `--iters 0` (the default) it refreshes the
//! terminal forever; a finite `--iters` prints that many plain blocks and
//! exits — the scriptable form CI uses.
//!
//! `serve --trace-out`/`--metrics-out` mirror sortcli and netsort: the
//! daemon runs with tracing enabled and writes a Chrome trace and/or an
//! obs metrics document when it drains.

use std::io::Write;
use std::net::{SocketAddr, ToSocketAddrs};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use alphasort_suite::dmgen::{generate, records_of_mut, GenConfig, RECORD_LEN};
use alphasort_suite::iosim::{catalog, FileStorage, IoEngine, Pacing, SimDisk, Storage};
use alphasort_suite::obs;
use alphasort_suite::obs::MetricsSnapshot;
use alphasort_suite::sortd::{
    AdmissionConfig, Client, JobSpec, PoolConfig, RetryPolicy, ScratchBacking, Sortd,
    SortdConfig,
};
use alphasort_suite::stripefs::Volume;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sortd serve  [--listen ADDR] [--pool-mem BYTES] [--pool-scratch BYTES]\n\
         \x20                [--queue-bound N] [--bypass-limit N] [--scratch-dir DIR]\n\
         \x20                [--journal DIR] [--trace-out TRACE.json] [--metrics-out METRICS.json]\n\
         \x20      sortd submit --addr ADDR (--in FILE | --gen RECORDS[:SEED]) [--out FILE]\n\
         \x20                [--mem BYTES] [--scratch BYTES] [--merge-workers N] [--name NAME]\n\
         \x20                [--idem-key KEY] [--deadline-ms N]\n\
         \x20      sortd fleet  --addr ADDR [--jobs N] [--threads N] [--records N] [--mem BYTES]\n\
         \x20                [--retries N]\n\
         \x20      sortd stats  --addr ADDR\n\
         \x20      sortd top    --addr ADDR [--interval-ms N] [--iters N]\n\
         \x20      sortd status --addr ADDR --job ID\n\
         \x20      sortd cancel --addr ADDR --job ID\n\
         \x20      sortd drain  --addr ADDR"
    );
    ExitCode::from(2)
}

/// Flag map: every `--flag value` pair after the subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Flags, ExitCode> {
        let mut flags = Vec::new();
        while let Some(a) = it.next() {
            if !a.starts_with("--") {
                eprintln!("unexpected argument {a}");
                return Err(usage());
            }
            let Some(v) = it.next() else {
                eprintln!("missing value for {a}");
                return Err(usage());
            };
            flags.push((a, v));
        }
        Ok(Flags(flags))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ExitCode> {
        match self.get(name) {
            Some(v) => v.parse().map_err(|_| {
                eprintln!("bad value for {name}: {v}");
                usage()
            }),
            None => Ok(default),
        }
    }

    fn addr(&self) -> Result<SocketAddr, ExitCode> {
        let Some(a) = self.get("--addr") else {
            eprintln!("--addr is required");
            return Err(usage());
        };
        a.to_socket_addrs()
            .ok()
            .and_then(|mut it| it.next())
            .ok_or_else(|| {
                eprintln!("cannot resolve {a}");
                usage()
            })
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        return usage();
    };
    let flags = match Flags::parse(args) {
        Ok(f) => f,
        Err(code) => return code,
    };
    let run = match cmd.as_str() {
        "serve" => cmd_serve(&flags),
        "submit" => cmd_submit(&flags),
        "fleet" => cmd_fleet(&flags),
        "stats" => cmd_stats(&flags),
        "top" => cmd_top(&flags),
        "status" => cmd_status(&flags),
        "cancel" => cmd_cancel(&flags),
        "drain" => cmd_drain(&flags),
        "--help" | "-h" | "help" => return usage(),
        other => {
            eprintln!("unknown subcommand {other}");
            return usage();
        }
    };
    match run {
        Ok(code) => code,
        Err(code) => code,
    }
}

/// Disk images striped to form the shared scratch volume.
const SCRATCH_DISKS: usize = 2;
const SCRATCH_CHUNK: u64 = 64 * 1024;

fn shared_volume(dir: &str) -> Result<Arc<Volume>, ExitCode> {
    std::fs::create_dir_all(dir).map_err(|e| {
        eprintln!("cannot create {dir}: {e}");
        ExitCode::FAILURE
    })?;
    let mut disks = Vec::new();
    for i in 0..SCRATCH_DISKS {
        let img = Path::new(dir).join(format!("disk{i}.img"));
        // Reopen an existing image rather than truncating it: a restarted
        // daemon must see the runs an interrupted two-pass job sealed, or
        // journal-driven scratch recovery has nothing to reattach.
        let opened = if img.exists() {
            FileStorage::open(&img)
        } else {
            FileStorage::create(&img)
        };
        let storage: Arc<dyn Storage> = Arc::new(opened.map_err(|e| {
            eprintln!("cannot open {}: {e}", img.display());
            ExitCode::FAILURE
        })?);
        disks.push(SimDisk::new(
            format!("scratch{i}"),
            catalog::uncapped(),
            storage,
            Pacing::Modeled,
            None,
        ));
    }
    Ok(Arc::new(Volume::new(Arc::new(IoEngine::new(disks)))))
}

fn cmd_serve(flags: &Flags) -> Result<ExitCode, ExitCode> {
    let pool = PoolConfig {
        mem_total: flags.num("--pool-mem", 256u64 << 20)?,
        scratch_total: flags.num("--pool-scratch", 1u64 << 30)?,
    };
    let admission = AdmissionConfig {
        queue_bound: flags.num("--queue-bound", 256usize)?,
        bypass_limit: flags.num("--bypass-limit", 8u32)?,
    };
    let backing = match flags.get("--scratch-dir") {
        Some(dir) => ScratchBacking::SharedVolume(shared_volume(dir)?, SCRATCH_CHUNK),
        None => ScratchBacking::Memory,
    };
    // Parity with sortcli/netsort: record the daemon's whole lifetime and
    // write the artifacts at drain. (Daemon latency *histograms* are
    // always on regardless; these flags add span traces + obs metrics.)
    let tracing = flags.get("--trace-out").is_some() || flags.get("--metrics-out").is_some();
    if tracing {
        obs::enable(obs::DEFAULT_CAPACITY);
    }
    let daemon = Sortd::start(SortdConfig {
        listen: flags.get("--listen").unwrap_or("127.0.0.1:0").to_string(),
        pool,
        admission,
        backing,
        client_read_timeout: Duration::from_secs(
            flags.num("--client-timeout-secs", 120u64)?,
        ),
        client_write_timeout: Duration::from_secs(
            flags.num("--client-write-timeout-secs", 30u64)?,
        ),
        journal: flags.get("--journal").map(Into::into),
        recovered_grace: Duration::from_millis(flags.num("--recovered-grace-ms", 60_000u64)?),
        ..SortdConfig::default()
    })
    .map_err(|e| {
        eprintln!("cannot start daemon: {e}");
        ExitCode::FAILURE
    })?;
    // The resolved-port line is the startup handshake scripts wait for.
    println!("sortd listening on {}", daemon.addr());
    std::io::stdout().flush().ok();
    // Serve until a client drains us. The handle blocks here; all work
    // happens on the daemon's connection threads.
    daemon.wait_drained();
    let stats = daemon.stats();
    eprintln!("sortd drained: {}", stats.dump());
    if tracing {
        obs::disable();
        let snap = obs::snapshot();
        if let Some(path) = flags.get("--trace-out") {
            let doc = obs::export::chrome_trace(&snap);
            if let Err(e) = std::fs::write(path, doc.dump()) {
                eprintln!("cannot write trace {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            eprintln!(
                "trace: {} events -> {path} (open in Perfetto / chrome://tracing)",
                snap.events.len()
            );
        }
        if let Some(path) = flags.get("--metrics-out") {
            let doc = obs::export::metrics_json(&obs::metrics_snapshot());
            if let Err(e) = std::fs::write(path, doc.dump_pretty()) {
                eprintln!("cannot write metrics {path}: {e}");
                return Ok(ExitCode::FAILURE);
            }
            eprintln!("metrics: -> {path}");
        }
    }
    if daemon.pool_idle() {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("pool accounting not zero after drain");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_submit(flags: &Flags) -> Result<ExitCode, ExitCode> {
    let addr = flags.addr()?;
    let (data, fingerprint) = match (flags.get("--in"), flags.get("--gen")) {
        (Some(path), None) => {
            let data = std::fs::read(path).map_err(|e| {
                eprintln!("cannot read {path}: {e}");
                ExitCode::FAILURE
            })?;
            (data, None)
        }
        (None, Some(spec)) => {
            let (n, seed) = match spec.split_once(':') {
                Some((n, s)) => (
                    n.parse().map_err(|_| usage())?,
                    s.parse().map_err(|_| usage())?,
                ),
                None => (spec.parse().map_err(|_| usage())?, 42u64),
            };
            let (data, checksum) = generate(GenConfig::datamation(n, seed));
            (data, Some(checksum))
        }
        _ => {
            eprintln!("exactly one of --in or --gen is required");
            return Err(usage());
        }
    };
    let spec = JobSpec {
        name: flags.get("--name").unwrap_or("cli").to_string(),
        input_bytes: data.len() as u64,
        mem_budget: flags.num("--mem", 64u64 << 20)?,
        scratch_budget: flags.num("--scratch", data.len() as u64 + RECORD_LEN as u64)?,
        merge_workers: flags.num("--merge-workers", 0usize)?,
        idem_key: flags.get("--idem-key").map(Into::into),
        deadline_ms: flags.num("--deadline-ms", 0u64)?,
        ..JobSpec::default()
    };
    let client = Client::new(addr).with_timeout(Duration::from_secs(600));
    let started = Instant::now();
    let res = client.submit(&spec, &data).map_err(|e| {
        eprintln!("submit failed: {e}");
        ExitCode::FAILURE
    })?;
    if res.duplicate {
        eprintln!(
            "job {}: duplicate of a settled job — {} records, answered from the journal",
            res.job_id, res.records
        );
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!(
        "job {} ({}): {} records sorted in {:.3} s ({}{})",
        res.job_id,
        res.plan,
        res.records,
        started.elapsed().as_secs_f64(),
        if res.queued { "queued, then ran" } else { "ran immediately" },
        if res.queued {
            format!(" at depth {}", res.queue_depth)
        } else {
            String::new()
        },
    );
    if let Some(path) = flags.get("--out") {
        std::fs::write(path, &res.output).map_err(|e| {
            eprintln!("cannot write {path}: {e}");
            ExitCode::FAILURE
        })?;
        eprintln!("wrote {} bytes to {path}", res.output.len());
    }
    if let Some(c) = fingerprint {
        // The line valsort --expect consumes.
        println!("checksum {}:{}:{}", c.count, c.sum, c.xor);
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_fleet(flags: &Flags) -> Result<ExitCode, ExitCode> {
    let addr = flags.addr()?;
    let jobs: u64 = flags.num("--jobs", 64)?;
    let threads: u64 = flags.num("--threads", 8)?;
    let records: u64 = flags.num("--records", 1_000)?;
    let mem: u64 = flags.num("--mem", 1u64 << 20)?;
    // --retries N switches the fleet to the client's bounded, idempotent
    // retry policy (N attempts, jittered linear backoff, one key per job).
    // Without it the fleet keeps its historical unbounded exponential loop.
    let retries: u32 = flags.num("--retries", 0)?;
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        handles.push(thread::spawn(move || -> Result<u64, String> {
            let client = Client::new(addr).with_timeout(Duration::from_secs(600));
            let mut ran = 0;
            for j in (t..jobs).step_by(threads.max(1) as usize) {
                let (data, _) = generate(GenConfig::datamation(records, 7_000 + j));
                let spec = JobSpec {
                    name: format!("fleet-{j}"),
                    input_bytes: data.len() as u64,
                    mem_budget: mem,
                    scratch_budget: data.len() as u64 + RECORD_LEN as u64,
                    merge_workers: 0,
                    idem_key: (retries > 0).then(|| format!("fleet-job-{j}")),
                    ..JobSpec::default()
                };
                let res = if retries > 0 {
                    let policy = RetryPolicy {
                        attempts: retries,
                        base_backoff: Duration::from_millis(5),
                        seed: 0xf1ee7 ^ j,
                    };
                    match client.submit_with_retry(&spec, &data, &policy) {
                        Ok(r) => r,
                        Err(e) => return Err(format!("fleet-{j}: {e}")),
                    }
                } else {
                    let mut delay = Duration::from_millis(5);
                    loop {
                        match client.submit(&spec, &data) {
                            Ok(r) => break r,
                            Err(e) if e.retryable() => {
                                thread::sleep(delay);
                                delay = (delay * 2).min(Duration::from_millis(250));
                            }
                            Err(e) => return Err(format!("fleet-{j}: {e}")),
                        }
                    }
                };
                if res.duplicate {
                    // A retry raced a completed first attempt; the bytes
                    // already reached that attempt, nothing to re-check.
                    ran += 1;
                    continue;
                }
                let mut want = data.clone();
                records_of_mut(&mut want).sort_by_key(|r| r.key);
                if res.output != want {
                    return Err(format!("fleet-{j}: output diverged from oracle"));
                }
                ran += 1;
            }
            Ok(ran)
        }));
    }
    let mut total = 0;
    let mut failures = Vec::new();
    for h in handles {
        match h.join().expect("fleet thread panicked") {
            Ok(n) => total += n,
            Err(e) => failures.push(e),
        }
    }
    for f in &failures {
        eprintln!("FAIL: {f}");
    }
    let secs = started.elapsed().as_secs_f64();
    eprintln!(
        "fleet: {total}/{jobs} jobs ok in {secs:.3} s ({:.1} jobs/s), all outputs oracle-checked",
        total as f64 / secs
    );
    if failures.is_empty() && total == jobs {
        Ok(ExitCode::SUCCESS)
    } else {
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_stats(flags: &Flags) -> Result<ExitCode, ExitCode> {
    let doc = Client::new(flags.addr()?).stats().map_err(|e| {
        eprintln!("stats failed: {e}");
        ExitCode::FAILURE
    })?;
    println!("{}", doc.dump_pretty());
    Ok(ExitCode::SUCCESS)
}

/// `sortd top`: poll the `metrics` wire doc, diff successive snapshots
/// into interval rates, render. Counter deltas over the *daemon's* uptime
/// delta (not local wall clock) so rates are immune to poll jitter;
/// latency quantiles come from the histogram diff, so they describe only
/// the jobs that finished in the interval.
fn cmd_top(flags: &Flags) -> Result<ExitCode, ExitCode> {
    let addr = flags.addr()?;
    let interval = Duration::from_millis(flags.num("--interval-ms", 1_000u64)?.max(10));
    let iters: u64 = flags.num("--iters", 0)?; // 0 = refresh forever
    let client = Client::new(addr).with_timeout(Duration::from_secs(30));
    let fetch = || -> Result<(MetricsSnapshot, u64), ExitCode> {
        let doc = client.metrics().map_err(|e| {
            eprintln!("metrics request failed: {e}");
            ExitCode::FAILURE
        })?;
        let uptime = doc.field_u64("uptime_ms").unwrap_or(0);
        let snap = MetricsSnapshot::from_json(&doc).map_err(|e| {
            eprintln!("cannot decode metrics doc: {e}");
            ExitCode::FAILURE
        })?;
        Ok((snap, uptime))
    };
    let (mut prev, mut prev_uptime) = fetch()?;
    let mut shown = 0u64;
    loop {
        thread::sleep(interval);
        let (cur, uptime) = fetch()?;
        let dt_s = uptime.saturating_sub(prev_uptime).max(1) as f64 / 1_000.0;
        let delta = cur.diff(&prev);
        if iters == 0 {
            // Clear screen + home: a live refreshing view.
            print!("\x1b[2J\x1b[H");
        }
        render_top(addr, &cur, &delta, dt_s, uptime);
        std::io::stdout().flush().ok();
        (prev, prev_uptime) = (cur, uptime);
        shown += 1;
        if iters > 0 && shown >= iters {
            return Ok(ExitCode::SUCCESS);
        }
    }
}

fn render_top(addr: SocketAddr, cur: &MetricsSnapshot, delta: &MetricsSnapshot, dt_s: f64, uptime_ms: u64) {
    let rate = |name: &str| delta.counters.get(name).copied().unwrap_or(0) as f64 / dt_s;
    let gauge = |name: &str| cur.gauges.get(name).copied().unwrap_or(0);
    let pct_of = |used: i64, total: i64| {
        if total > 0 { 100.0 * used as f64 / total as f64 } else { 0.0 }
    };
    let mb = |v: i64| v as f64 / (1 << 20) as f64;
    println!(
        "sortd top — {addr} · up {:.1} s · interval {dt_s:.1} s",
        uptime_ms as f64 / 1_000.0
    );
    println!(
        "jobs      {:.1} jobs/s done · {:.1}/s submitted · {:.1}/s failed · {:.1}/s rejected · {:.1}/s canceled",
        rate("sortd.jobs.done"),
        rate("sortd.jobs.submitted"),
        rate("sortd.jobs.failed"),
        rate("sortd.jobs.rejected"),
        rate("sortd.jobs.canceled"),
    );
    println!(
        "admission {:.1}/s bypasses · {:.1}/s aged barriers · queue {}/{} · running {} · draining {}",
        rate("sortd.admission.bypasses"),
        rate("sortd.admission.aged_barriers"),
        gauge("sortd.queue.depth"),
        gauge("sortd.queue.bound"),
        gauge("sortd.running"),
        if gauge("sortd.draining") != 0 { "yes" } else { "no" },
    );
    // Durability counters are lifetime totals, not rates: recovery happens
    // once at startup and deadline kills are rare, so totals read better.
    let total = |name: &str| cur.counters.get(name).copied().unwrap_or(0);
    println!(
        "recovery  {} jobs recovered · {} runs reattached · {} re-formed · {} scratch disposed · {} deadline kills · {} duplicates answered",
        total("sortd.recovery.jobs_recovered"),
        total("sortd.recovery.runs_recovered"),
        total("sortd.recovery.runs_reformed"),
        total("sortd.recovery.scratch_disposed"),
        total("sortd.deadline.kills"),
        total("sortd.jobs.duplicates"),
    );
    println!(
        "pool      mem {:.1}/{:.1} MB ({:.0}%) · scratch {:.1}/{:.1} MB ({:.0}%)",
        mb(gauge("sortd.pool.mem_in_use")),
        mb(gauge("sortd.pool.mem_total")),
        pct_of(gauge("sortd.pool.mem_in_use"), gauge("sortd.pool.mem_total")),
        mb(gauge("sortd.pool.scratch_in_use")),
        mb(gauge("sortd.pool.scratch_total")),
        pct_of(gauge("sortd.pool.scratch_in_use"), gauge("sortd.pool.scratch_total")),
    );
    // Interval quantiles: only jobs finished this interval. A quiet
    // interval has no samples, so show dashes rather than stale numbers.
    let q = |h: Option<&obs::Histogram>, p: f64| h.and_then(|h| h.quantile(p));
    let fmt_q = |v: Option<f64>| match v {
        Some(us) => format!("{us:.0} µs"),
        None => "-".to_string(),
    };
    let e2e = delta.histograms.get("sortd.e2e_us");
    let exec = delta.histograms.get("sortd.exec_us");
    let wait = delta.histograms.get("sortd.queue_wait_us");
    println!(
        "latency   e2e p50 {} · p99 {} · exec p50 {} · queue-wait p99 {} ({} jobs this interval)",
        fmt_q(q(e2e, 0.50)),
        fmt_q(q(e2e, 0.99)),
        fmt_q(q(exec, 0.50)),
        fmt_q(q(wait, 0.99)),
        e2e.map(|h| h.count()).unwrap_or(0),
    );
}

fn cmd_status(flags: &Flags) -> Result<ExitCode, ExitCode> {
    let job = flags.num("--job", u64::MAX)?;
    if job == u64::MAX {
        eprintln!("--job is required");
        return Err(usage());
    }
    let doc = Client::new(flags.addr()?).status(job).map_err(|e| {
        eprintln!("status failed: {e}");
        ExitCode::FAILURE
    })?;
    println!("{}", doc.dump_pretty());
    Ok(ExitCode::SUCCESS)
}

fn cmd_cancel(flags: &Flags) -> Result<ExitCode, ExitCode> {
    let job = flags.num("--job", u64::MAX)?;
    if job == u64::MAX {
        eprintln!("--job is required");
        return Err(usage());
    }
    let hit = Client::new(flags.addr()?).cancel(job).map_err(|e| {
        eprintln!("cancel failed: {e}");
        ExitCode::FAILURE
    })?;
    if hit {
        eprintln!("job {job} canceled");
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("job {job} was not queued (already running, done, or unknown)");
        Ok(ExitCode::FAILURE)
    }
}

fn cmd_drain(flags: &Flags) -> Result<ExitCode, ExitCode> {
    let doc = Client::new(flags.addr()?)
        .with_timeout(Duration::from_secs(600))
        .drain()
        .map_err(|e| {
            eprintln!("drain failed: {e}");
            ExitCode::FAILURE
        })?;
    println!("{}", doc.dump());
    Ok(ExitCode::SUCCESS)
}
