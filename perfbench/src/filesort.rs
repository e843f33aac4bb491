//! The file workloads: host file → host file through `ExternalSorter`.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use alphasort_core::driver::{MemScratch, ScratchStore, StripeScratch};
use alphasort_core::io_file::{FileSink, FileSource};
use alphasort_core::ovc::MergeEffort;
use alphasort_core::varlen::{MergeMode, VarRun, VarRunMerger};
use alphasort_core::{ExternalSorter, RecordLayout, SortConfig, SortStats};
use alphasort_dmgen::{
    generate_varlen, parse_var_record, Checksum, GenConfig, Generator, TextCorpus, VarGenConfig,
    RECORD_LEN,
};
use alphasort_iosim::{catalog, DiskStats, FileStorage, IoEngine, Pacing, SimDisk};
use alphasort_obs as obs;
use alphasort_stripefs::Volume;

use crate::alloc::{self, AllocTotals};
use crate::check::{self, FramePrint};
use crate::cpu::process_cpu_seconds;
use crate::report::Outcome;
use crate::report::{median, median_index, quantile, tail_q, Metrics};
use crate::trace::{self_times, SpanTotals};
use crate::wrap::{span, Meter, MeterReading, TimedScratch, TimedSink, TimedSource};
use crate::{describe, Layers, Phase};

/// Generated input kind.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// Datamation records: 100 bytes, uniform random 10-byte keys.
    Datamation,
    /// Var-len records keyed by URLs from dmgen's `urls` corpus.
    Urls,
}

/// One file workload.
#[derive(Clone, Copy, Debug)]
pub struct FileSpec {
    /// Workload name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Records generated.
    pub records: u64,
    /// Input kind.
    pub input: Input,
    /// Planner memory budget in bytes.
    pub memory_budget: u64,
    /// Spill to a striped volume over file-backed disks (else in-memory
    /// scratch, which a one-pass plan never touches).
    pub striped_scratch: bool,
}

/// The paper's benchmark with sortcli's defaults: one pass.
pub const DM_ONEPASS: FileSpec = FileSpec {
    name: "dm-onepass",
    records: 2_000_000,
    input: Input::Datamation,
    memory_budget: 256 << 20,
    striped_scratch: false,
};

/// The same input with a budget of about a tenth of it: two passes over
/// striped file-backed scratch.
pub const DM_TWOPASS: FileSpec = FileSpec {
    name: "dm-twopass",
    records: 2_000_000,
    input: Input::Datamation,
    memory_budget: 20 << 20,
    striped_scratch: true,
};

/// Var-len URL-keyed records, one pass.
pub const STR_URLS: FileSpec = FileSpec {
    name: "str-urls",
    records: 1_000_000,
    input: Input::Urls,
    memory_budget: 256 << 20,
    striped_scratch: false,
};

/// Disk images striped into the scratch volume, as `sortcli --scratch-dir`.
const SCRATCH_DISKS: usize = 2;
/// Stripe chunk of the scratch volume, as `sortcli --scratch-dir`.
const SCRATCH_CHUNK: u64 = 64 * 1024;

impl FileSpec {
    /// sortcli's defaults with this workload's budget and layout.
    pub fn config(&self) -> SortConfig {
        SortConfig {
            memory_budget: self.memory_budget,
            layout: match self.input {
                Input::Datamation => RecordLayout::Datamation,
                Input::Urls => RecordLayout::VarLen,
            },
            ..SortConfig::default()
        }
    }
}

enum Oracle {
    Checksum(Checksum),
    Frames(FramePrint),
}

/// One timed sort and what it measured.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Source open to sink `complete()`.
    pub elapsed: Duration,
    /// Each set-up: sorter, scratch volume, source and sink.
    pub setups: Vec<Duration>,
    /// Process CPU seconds over set-ups and sort.
    pub cpu_s: f64,
    /// Live heap peak above the heap at the start of the sort, bytes.
    pub heap_peak: u64,
    /// Allocations during set-ups and sort.
    pub allocs: AllocTotals,
    /// The driver's own phase accounting.
    pub stats: SortStats,
    /// `FileSource` wrapper.
    pub file_read: MeterReading,
    /// `FileSink` wrapper.
    pub file_write: MeterReading,
    /// Scratch run writers, seals and creates.
    pub scratch_write: MeterReading,
    /// Scratch run sources, opens and probes.
    pub scratch_read: MeterReading,
    /// Scratch runs sealed.
    pub scratch_runs: u64,
    /// Summed over the scratch volume's simulated disks.
    pub disks: DiskStats,
    /// Self times by span name, when traced.
    pub spans: BTreeMap<&'static str, SpanTotals>,
    /// Records in a checked output, or why the output is wrong.
    pub check: Result<u64, String>,
}

impl Sample {
    /// Records sorted per second of `elapsed`.
    pub fn rate(&self) -> f64 {
        self.stats.records as f64 / self.elapsed.as_secs_f64()
    }
}

/// A workload with its input generated and its oracle computed.
pub struct FileBench {
    spec: FileSpec,
    input: PathBuf,
    output: PathBuf,
    scratch_dir: PathBuf,
    input_bytes: u64,
    oracle: Oracle,
    /// Delay added to every `FileSink::push`, inside the timed window.
    pub sink_delay: Duration,
}

impl FileBench {
    /// Generate `spec`'s input from `seed` into `dir`.
    pub fn prepare(spec: FileSpec, seed: u64, dir: &Path) -> io::Result<FileBench> {
        fs::create_dir_all(dir)?;
        let input = dir.join(format!("{}.in", spec.name));
        let oracle = match spec.input {
            Input::Datamation => {
                let mut gen = Generator::new(GenConfig::datamation(spec.records, seed));
                let mut w = BufWriter::new(File::create(&input)?);
                gen.generate_to(&mut w, 10_000)?;
                w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
                Oracle::Checksum(gen.checksum())
            }
            Input::Urls => {
                let data = generate_varlen(VarGenConfig {
                    records: spec.records,
                    seed,
                    corpus: TextCorpus::Urls,
                });
                let mut f = File::create(&input)?;
                f.write_all(&data)?;
                f.sync_all()?;
                Oracle::Frames(check::frame_print(&data).map_err(io::Error::other)?)
            }
        };
        Ok(FileBench {
            spec,
            input_bytes: fs::metadata(&input)?.len(),
            input,
            output: dir.join(format!("{}.out", spec.name)),
            scratch_dir: dir.join(format!("{}.scratch", spec.name)),
            oracle,
            sink_delay: Duration::ZERO,
        })
    }

    /// Input size in bytes.
    pub fn input_bytes(&self) -> u64 {
        self.input_bytes
    }

    /// Sort once and check the output. With `traced`, the recorder (already
    /// enabled by the caller) is cleared first and the sort's spans folded
    /// into self times afterwards.
    pub fn run(&self, traced: bool) -> io::Result<Sample> {
        if traced {
            obs::reset();
        }
        let mut sample = if self.spec.striped_scratch {
            let (sample, scratch) = self.sort(|| self.build_scratch())?;
            scratch.dispose();
            sample
        } else {
            let mem = || Ok((MemScratch::new(10_000 * RECORD_LEN), Vec::new()));
            self.sort(mem)?.0
        };
        if traced {
            sample.spans = self_times(&obs::snapshot());
        }
        sample.check = match &self.oracle {
            Oracle::Checksum(sum) => check::datamation_file(&self.output, *sum),
            Oracle::Frames(print) => fs::read(&self.output)
                .map_err(|e| e.to_string())
                .and_then(|out| check::varlen(&out, *print)),
        }
        .and_then(|n| {
            if n == self.spec.records {
                Ok(n)
            } else {
                Err(format!("output holds {n} of {} records", self.spec.records))
            }
        });
        self.clear()?;
        Ok(sample)
    }

    /// Remove the output and the scratch volume's images.
    fn clear(&self) -> io::Result<()> {
        fs::remove_file(&self.output)?;
        if self.scratch_dir.exists() {
            fs::remove_dir_all(&self.scratch_dir)?;
        }
        Ok(())
    }

    /// One set-up: the sorter, its scratch, the source and the sink.
    fn open<S>(
        &self,
        scratch: &impl Fn() -> io::Result<(S, Vec<Arc<SimDisk>>)>,
    ) -> io::Result<Opened<S>> {
        let t = Instant::now();
        let sorter = ExternalSorter::new(self.spec.config());
        let (scratch, disks) = scratch()?;
        let (read, write) = (Meter::shared(), Meter::shared());
        write.inject_delay(self.sink_delay);
        let opened = Instant::now();
        let source = FileSource::open(&self.input)?;
        let sink = FileSink::create(&self.output)?;
        Ok(Opened {
            sorter,
            scratch: TimedScratch::new(scratch),
            disks,
            source: TimedSource::new(source, Arc::clone(&read), span::FILE_READ),
            sink: TimedSink::new(sink, Arc::clone(&write), span::FILE_WRITE),
            read,
            write,
            opened,
            setup: t.elapsed(),
        })
    }

    /// Set up [`SETUP_REPS`] times, timing each, then sort through the
    /// last set-up. Returns the sample and the scratch store.
    fn sort<S: ScratchStore>(
        &self,
        scratch: impl Fn() -> io::Result<(S, Vec<Arc<SimDisk>>)>,
    ) -> io::Result<(Sample, S)> {
        let start = Start::now()?;
        let mut setups = Vec::with_capacity(SETUP_REPS);
        for _ in 1..SETUP_REPS {
            setups.push(self.open(&scratch)?.setup);
            self.clear()?;
        }
        let mut o = self.open(&scratch)?;
        setups.push(o.setup);
        let outcome = o.sorter.sort(&mut o.source, &mut o.sink, &mut o.scratch)?;
        let elapsed = o.opened.elapsed();
        let mut disks = DiskStats::default();
        for s in o.disks.iter().map(|d| d.stats()) {
            disks.reads += s.reads;
            disks.writes += s.writes;
            disks.bytes_read += s.bytes_read;
            disks.bytes_written += s.bytes_written;
            disks.seeks += s.seeks;
            disks.busy_ns += s.busy_ns;
        }
        let sample = Sample {
            elapsed,
            setups,
            cpu_s: process_cpu_seconds()? - start.cpu_s,
            heap_peak: alloc::peak().saturating_sub(start.heap),
            allocs: alloc::totals().since(start.allocs),
            stats: outcome.stats,
            file_read: o.read.reading(),
            file_write: o.write.reading(),
            scratch_write: o.scratch.write(),
            scratch_read: o.scratch.read(),
            scratch_runs: o.scratch.runs(),
            disks,
            spans: BTreeMap::new(),
            check: Ok(0),
        };
        Ok((sample, o.scratch.into_inner()))
    }

    /// `sortcli --two-pass --scratch-dir`'s volume: uncapped simulated
    /// disks over fresh image files, with a run manifest.
    fn build_scratch(&self) -> io::Result<(StripeScratch, Vec<Arc<SimDisk>>)> {
        fs::create_dir_all(&self.scratch_dir)?;
        let disks = (0..SCRATCH_DISKS)
            .map(|i| {
                let img = self.scratch_dir.join(format!("disk{i}.img"));
                Ok(SimDisk::new(
                    format!("scratch{i}"),
                    catalog::uncapped(),
                    Arc::new(FileStorage::create(&img)?),
                    Pacing::Modeled,
                    None,
                ))
            })
            .collect::<io::Result<Vec<_>>>()?;
        let volume = Arc::new(Volume::new(Arc::new(IoEngine::new(disks.clone()))));
        let scratch = StripeScratch::with_manifest(
            volume,
            SCRATCH_CHUNK,
            self.scratch_dir.join("scratch.manifest"),
            self.input_bytes,
            self.spec.config().run_records as u64,
        )?;
        Ok((scratch, disks))
    }

    /// Replay the var-len input's run boundaries through an OVC merge and
    /// return its comparison effort (exact for a given seed).
    pub fn replay_ovc(&self) -> io::Result<MergeEffort> {
        let data = fs::read(&self.input)?;
        let run_records = self.spec.config().run_records;
        let mut runs = Vec::new();
        let (mut start, mut off, mut n) = (0usize, 0usize, 0usize);
        while off < data.len() {
            let rec = parse_var_record(&data[off..], off as u64).map_err(io::Error::other)?;
            off += rec.len();
            n += 1;
            if n == run_records || off == data.len() {
                runs.push(VarRun::from_frames(data[start..off].to_vec())?);
                (start, n) = (off, 0);
            }
        }
        if runs.is_empty() {
            return Ok(MergeEffort::default());
        }
        let mut merger = VarRunMerger::new(runs.iter().collect(), MergeMode::Ovc);
        merger.by_ref().for_each(drop);
        Ok(merger.effort)
    }
}

/// Set-ups timed per sort. File opens take tens of microseconds and vary
/// by tens of percent, so `setup_s` is the median over every set-up of a
/// run, not over one per sort.
const SETUP_REPS: usize = 5;

/// Everything one set-up opened, ready to sort.
struct Opened<S> {
    sorter: ExternalSorter,
    scratch: TimedScratch<S>,
    disks: Vec<Arc<SimDisk>>,
    source: TimedSource<FileSource>,
    sink: TimedSink<FileSink>,
    read: Arc<Meter>,
    write: Arc<Meter>,
    /// When the source was opened: the start of the measured window.
    opened: Instant,
    setup: Duration,
}

/// The process counters when a sort's set-ups start.
struct Start {
    cpu_s: f64,
    heap: u64,
    allocs: AllocTotals,
}

impl Start {
    fn now() -> io::Result<Start> {
        Ok(Start {
            heap: alloc::reset_peak(),
            allocs: alloc::totals(),
            cpu_s: process_cpu_seconds()?,
        })
    }
}

/// Sort and check repeatedly for about `seconds` of wall time: at least
/// `min_runs` sorts, and no sort that the last one's duration says would
/// end past `seconds`.
pub fn repeat(
    bench: &FileBench,
    seconds: f64,
    min_runs: usize,
    traced: bool,
) -> io::Result<Vec<Sample>> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        let t = Instant::now();
        let s = bench.run(traced)?;
        let st = &s.stats;
        eprintln!(
            "  sort {:>2}: {:.4} s (read {:.3}, sort {:.3}, merge {:.3}, gather {:.3}, spill {:.3}, write {:.3}), cpu {:.2} s, set-up {:.1} us",
            out.len() + 1,
            s.elapsed.as_secs_f64(),
            st.read_wait.as_secs_f64(),
            st.sort_time.as_secs_f64(),
            st.merge_time.as_secs_f64(),
            st.gather_time.as_secs_f64(),
            st.spill_time.as_secs_f64(),
            st.write_wait.as_secs_f64(),
            s.cpu_s,
            s.setups[s.setups.len() - 1].as_secs_f64() * 1e6,
        );
        out.push(s);
        if out.len() >= min_runs && (start.elapsed() + t.elapsed()).as_secs_f64() > seconds {
            return Ok(out);
        }
    }
}

/// The end-to-end metrics over `samples`.
pub fn end_to_end(samples: &[Sample], input_bytes: u64) -> Metrics {
    let ms: Vec<f64> = samples
        .iter()
        .map(|s| s.elapsed.as_secs_f64() * 1e3)
        .collect();
    let rates: Vec<f64> = samples.iter().map(Sample::rate).collect();
    let per_s: Vec<f64> = ms.iter().map(|m| 1e3 / m).collect();
    let heap: Vec<f64> = samples.iter().map(|s| s.heap_peak as f64 / 1e6).collect();
    let setup: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.setups.iter().map(Duration::as_secs_f64))
        .collect();
    let cpu: f64 = samples.iter().map(|s| s.cpu_s).sum();
    let gb = (input_bytes as f64 * samples.len() as f64) / 1e9;
    let mut m = Metrics::default();
    m.put("records_per_s", median(&rates), "records/s");
    m.put("jobs_per_s", median(&per_s), "jobs/s");
    m.put("job_p50_ms", median(&ms), "ms");
    m.put("job_p99_ms", quantile(&ms, tail_q(ms.len())), "ms");
    m.put("peak_heap_mb", median(&heap), "MB");
    m.put("cpu_s_per_gb", cpu / gb, "CPU-s/GB");
    m.put("setup_s", median(&setup), "s");
    m
}

/// The per-layer metrics of the traced sample with the median elapsed
/// time, so its rows add up.
pub fn per_layer(traced: &[Sample], input_bytes: u64) -> Layers {
    let elapsed: Vec<f64> = traced.iter().map(|s| s.elapsed.as_secs_f64()).collect();
    let s = &traced[median_index(&elapsed)];
    let st = &s.stats;
    let phases = vec![
        Phase::new(
            "driver.read_wait_s",
            st.read_wait,
            Some(("io_file.read_busy_s", s.file_read.busy)),
        ),
        Phase::new("runform.sort_s", st.sort_time, None),
        Phase::new(
            "merge.merge_s",
            st.merge_time,
            Some(("scratch.read_busy_s", s.scratch_read.busy)),
        ),
        Phase::new("gather.gather_s", st.gather_time, None),
        Phase::new(
            "driver.spill_s",
            st.spill_time,
            Some(("scratch.write_busy_s", s.scratch_write.busy)),
        ),
        Phase::new(
            "driver.write_wait_s",
            st.write_wait,
            Some(("io_file.write_busy_s", s.file_write.busy)),
        ),
    ];
    let mut l = Layers {
        phases,
        elapsed: s.elapsed,
        spans: s.spans.clone(),
        ..Layers::default()
    };
    let m = &mut l.values;
    m.insert("driver.runs", st.runs as f64);
    m.insert("driver.merge_passes", f64::from(st.merge_passes));
    m.insert("io_file.read_busy_s", s.file_read.busy.as_secs_f64());
    m.insert("io_file.write_busy_s", s.file_write.busy.as_secs_f64());
    m.insert("io_file.read_calls", s.file_read.calls as f64);
    m.insert("io_file.write_calls", s.file_write.calls as f64);
    m.insert("io_file.bytes_read", s.file_read.bytes as f64);
    m.insert("io_file.bytes_written", s.file_write.bytes as f64);
    m.insert("scratch.write_busy_s", s.scratch_write.busy.as_secs_f64());
    m.insert("scratch.read_busy_s", s.scratch_read.busy.as_secs_f64());
    m.insert("scratch.bytes_written", s.scratch_write.bytes as f64);
    m.insert("scratch.bytes_read", s.scratch_read.bytes as f64);
    m.insert("scratch.runs", s.scratch_runs as f64);
    m.insert(
        "scratch.write_amp",
        s.scratch_write.bytes as f64 / input_bytes as f64,
    );
    m.insert("iosim.writes", s.disks.writes as f64);
    m.insert("iosim.reads", s.disks.reads as f64);
    m.insert("iosim.bytes_written", s.disks.bytes_written as f64);
    m.insert("iosim.seeks", s.disks.seeks as f64);
    m.insert("alloc.count", s.allocs.count as f64);
    m.insert("alloc.bytes", s.allocs.bytes as f64);
    l
}

/// Minimum timed sorts per measuring loop, so a median exists.
const MIN_SORTS: usize = 3;

/// Run a file workload; see [`crate::run`].
pub fn run(
    spec: FileSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    work: &Path,
) -> io::Result<Outcome> {
    let bench = FileBench::prepare(spec, seed, work)?;
    let mut samples = Vec::new();
    let mut outcome = Outcome::default();
    if !traced {
        let timed = repeat(&bench, seconds, MIN_SORTS, false)?;
        outcome.metrics = end_to_end(&timed, bench.input_bytes());
        eprint!("{}", describe(spec.name, &outcome.metrics));
        eprintln!(
            "  ({} sorts; job_p99_ms is their p{:.0})",
            timed.len(),
            100.0 * tail_q(timed.len())
        );
        samples.extend(timed);
    } else {
        let plain = repeat(&bench, seconds / 2.0, MIN_SORTS, false)?;
        obs::enable(obs::DEFAULT_CAPACITY);
        let traced_runs = repeat(&bench, seconds / 2.0, MIN_SORTS, true);
        obs::disable();
        let traced_runs = traced_runs?;
        let mut layers = per_layer(&traced_runs, bench.input_bytes());
        let rate = |s: &[Sample]| median(&s.iter().map(Sample::rate).collect::<Vec<_>>());
        let ratio = rate(&traced_runs) / rate(&plain);
        layers.values.insert("trace.rate_ratio", ratio);
        if spec.input == Input::Urls {
            let effort = bench.replay_ovc()?;
            layers
                .values
                .insert("varlen.ovc_compares", effort.compares as f64);
            layers
                .values
                .insert("varlen.ovc_key_bytes", effort.key_bytes as f64);
        }
        layers.notes.push(format!(
            "tracing overhead: traced rate / untraced rate = {ratio:.4} ({} traced, {} untraced sorts)",
            traced_runs.len(),
            plain.len()
        ));
        eprint!("{}", layers.table(spec.name));
        outcome.metrics = layers.metrics();
        samples.extend(plain);
        samples.extend(traced_runs);
    }
    for s in &samples {
        outcome.attempted += 1;
        if let Err(e) = &s.check {
            outcome.failed += 1;
            eprintln!("{}: WRONG OUTPUT: {e}", spec.name);
        }
    }
    Ok(outcome)
}
