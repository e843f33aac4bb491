//! The repository's benchmark: four workloads, end-to-end metrics from
//! untraced runs and per-layer metrics from a separate traced run.
//!
//! The program is reached only through its public API: `ExternalSorter`,
//! the `RecordSource`/`RecordSink`/`ScratchStore` traits (wrapped here to
//! time each layer), `SimDisk::stats`, `VarRunMerger`, `Sortd::start` and
//! `Client`. See `README.md` for the workloads and every metric.

pub mod alloc;
pub mod check;
pub mod cpu;
pub mod filesort;
pub mod report;
pub mod service;
pub mod trace;
pub mod wrap;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Duration;

use report::{Metrics, Outcome};
use trace::SpanTotals;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: &[&str] = &["dm-onepass", "dm-twopass", "str-urls", "sortd-mixed"];

/// End-to-end metrics `(name, unit)`, printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("records_per_s", "records/s"),
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("cpu_s_per_gb", "CPU-s/GB"),
    ("setup_s", "s"),
];

/// Per-layer metrics `(name, unit)`, printed by every traced run. A layer
/// a workload does not use reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("runform.sort_s", "s"),
    ("merge.merge_s", "s"),
    ("gather.gather_s", "s"),
    ("driver.read_wait_s", "s"),
    ("driver.write_wait_s", "s"),
    ("driver.spill_s", "s"),
    ("driver.unattributed_s", "s"),
    ("driver.runs", "count"),
    ("driver.merge_passes", "count"),
    ("io_file.read_busy_s", "s"),
    ("io_file.write_busy_s", "s"),
    ("io_file.read_calls", "count"),
    ("io_file.write_calls", "count"),
    ("io_file.bytes_read", "bytes"),
    ("io_file.bytes_written", "bytes"),
    ("scratch.write_busy_s", "s"),
    ("scratch.read_busy_s", "s"),
    ("scratch.bytes_written", "bytes"),
    ("scratch.bytes_read", "bytes"),
    ("scratch.runs", "count"),
    ("scratch.write_amp", "ratio"),
    ("iosim.writes", "count"),
    ("iosim.reads", "count"),
    ("iosim.bytes_written", "bytes"),
    ("iosim.seeks", "count"),
    ("varlen.ovc_compares", "count"),
    ("varlen.ovc_key_bytes", "bytes"),
    ("sortd.queue_wait_p99_ms", "ms"),
    ("sortd.exec_p50_ms", "ms"),
    ("sortd.exec_p99_ms", "ms"),
    ("sortd.e2e_p50_ms", "ms"),
    ("sortd.e2e_p99_ms", "ms"),
    ("sortd.unattributed_p50_ms", "ms"),
    ("sortd.backpressure_retries", "count"),
    ("sortd.pool_mem_hwm_mb", "MB"),
    ("sortd.aged_barriers", "count"),
    ("journal.bytes_per_job", "bytes"),
    ("journal.files", "count"),
    ("alloc.count", "count"),
    ("alloc.bytes", "bytes"),
    ("trace.rate_ratio", "ratio"),
];

/// One row of the layer table: a phase on the critical path, with the
/// wrapped layer call it contains, if any.
#[derive(Clone, Debug)]
pub struct Phase {
    name: &'static str,
    time: Duration,
    inner: Option<(&'static str, Duration)>,
}

impl Phase {
    /// Row `name` taking `time`, containing `inner`.
    pub fn new(
        name: &'static str,
        time: Duration,
        inner: Option<(&'static str, Duration)>,
    ) -> Phase {
        Phase { name, time, inner }
    }
}

/// A traced run's per-layer findings.
#[derive(Clone, Debug, Default)]
pub struct Layers {
    /// Critical-path phases; with `driver.unattributed_s` they sum to
    /// `elapsed`.
    pub phases: Vec<Phase>,
    /// The time the phases account for.
    pub elapsed: Duration,
    /// Every other per-layer value by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Self times by span name.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Extra table lines (the service's latency split).
    pub notes: Vec<String>,
}

impl Layers {
    fn unattributed(&self) -> f64 {
        let phases: f64 = self.phases.iter().map(|p| p.time.as_secs_f64()).sum();
        self.elapsed.as_secs_f64() - phases
    }

    /// Every [`PER_LAYER`] metric, 0 where this workload has no value.
    pub fn metrics(&self) -> Metrics {
        let mut values = self.values.clone();
        for p in &self.phases {
            values.insert(p.name, p.time.as_secs_f64());
        }
        values.insert("driver.unattributed_s", self.unattributed());
        let mut m = Metrics::default();
        for &(name, unit) in PER_LAYER {
            m.put(name, values.get(name).copied().unwrap_or(0.0), unit);
        }
        m
    }

    /// The layer table: phases plus the residual add up to elapsed; then
    /// self time per span from the trace.
    pub fn table(&self, workload: &str) -> String {
        let total = self.elapsed.as_secs_f64();
        let pct = |s: f64| if total > 0.0 { 100.0 * s / total } else { 0.0 };
        let mut t = format!("{workload}: layer table (s, share of elapsed)\n");
        for p in &self.phases {
            let s = p.time.as_secs_f64();
            let _ = writeln!(t, "  {:<28} {s:>10.4} {:>6.1}%", p.name, pct(s));
            if let Some((name, d)) = p.inner {
                let _ = writeln!(t, "    {name:<26} {:>10.4}", d.as_secs_f64());
            }
        }
        let u = self.unattributed();
        let _ = writeln!(
            t,
            "  {:<28} {u:>10.4} {:>6.1}%",
            "driver.unattributed_s",
            pct(u)
        );
        let _ = writeln!(t, "  {:<28} {total:>10.4} {:>6.1}%", "= elapsed", 100.0);
        for n in &self.notes {
            let _ = writeln!(t, "  {n}");
        }
        if !self.spans.is_empty() {
            let _ = writeln!(
                t,
                "  self time by span (s): {:>10} {:>10} {:>8}",
                "total", "self", "count"
            );
            for (name, s) in &self.spans {
                let _ = writeln!(
                    t,
                    "    {name:<24} {:>12.4} {:>10.4} {:>8}",
                    s.total.as_secs_f64(),
                    s.self_time.as_secs_f64(),
                    s.count
                );
            }
        }
        t
    }
}

/// Run `workload` for about `seconds` with inputs from `seed` under `work`
/// (created here; the caller removes it). Untraced runs report
/// [`END_TO_END`]; traced runs spend half the time untraced and half
/// traced and report [`PER_LAYER`], including the traced-to-untraced rate
/// ratio.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> io::Result<Outcome> {
    std::fs::create_dir_all(work)?;
    match workload {
        "dm-onepass" => filesort::run(filesort::DM_ONEPASS, seed, seconds, traced, work),
        "dm-twopass" => filesort::run(filesort::DM_TWOPASS, seed, seconds, traced, work),
        "str-urls" => filesort::run(filesort::STR_URLS, seed, seconds, traced, work),
        "sortd-mixed" => service::run(seed, seconds, traced, work),
        other => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!(
                "unknown workload {other:?} (one of: {})",
                WORKLOADS.join(", ")
            ),
        )),
    }
}

/// Human-readable metric lines.
pub fn describe(workload: &str, m: &Metrics) -> String {
    let mut t = format!("{workload}:\n");
    for (name, v, unit) in m.iter() {
        let _ = writeln!(t, "  {name:<16} {v:>16.4} {unit}");
    }
    t
}
