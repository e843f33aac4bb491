//! `sortcli` — an industrial-strength command-line face for AlphaSort.
//!
//! The paper distinguishes benchmark specials from "street-legal" sorts
//! ("AlphaSort slowed down as it was productized in Rdb and in OSF/1
//! HyperSort"). This is the productized entry point: sort a file of
//! 100-byte records on the host file system, one- or two-pass, with worker
//! threads, and optionally verify the output.
//!
//! ```text
//! sortcli <input> <output> [--mem BYTES] [--workers N] [--run RECORDS]
//!         [--rep record|pointer|key|key-prefix|codeword]
//!         [--two-pass]
//!         [--layout datamation|varlen] [--corpus NAME]
//!         [--merge-workers N]
//!         [--scratch-dir DIR] [--resume] [--io-retries N] [--io-backoff-ms MS]
//!         [--gen RECORDS[:SEED]] [--verify]
//!         [--trace-out TRACE.json] [--metrics-out METRICS.json]
//! ```
//!
//! `--layout varlen` sorts length-prefixed records with string keys (the
//! runs merge on LCP/OVC codes) instead of fixed 100-byte Datamation
//! records; with `--gen` the input is drawn from a named text corpus
//! (`--corpus`, default `urls`; see `TextCorpus` for the registry) and
//! `--verify` checks the output is a sorted permutation of the input
//! frames. Var-len sorts run in memory: `--two-pass` with `--layout varlen`
//! is a usage error (exit 2).
//!
//! `--merge-workers N` cuts the final merge into `N` disjoint key ranges
//! by sampled splitters and merges them in parallel (0, the default, keeps
//! the classic serial tournament). Output is byte-identical either way;
//! the summary line reports the per-range record skew.
//!
//! `--gen` first writes a Datamation-style input file (and with `--verify`
//! checks the output is a sorted permutation of it). `--trace-out` records
//! spans across every pipeline layer and writes a Chrome `trace_event` file
//! (load it in Perfetto / `chrome://tracing`), printing the paper's
//! Figure 7 "where the time goes" table to stderr; `--metrics-out` writes
//! the counter/gauge/histogram snapshot as JSON.
//!
//! `--scratch-dir` puts two-pass scratch runs on a striped, checksummed
//! volume backed by disk-image files in DIR (instead of in memory), and
//! persists a run manifest there. After a crash, re-running with `--resume`
//! verifies the surviving runs against the manifest and re-forms only what
//! is missing or corrupt. `--io-retries` / `--io-backoff-ms` set the scratch
//! volume's transient-IO retry budget. Scratch runs hold fixed-size
//! records, so `--scratch-dir` applies to Datamation sorts only; var-len
//! sorts run in memory.

use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use alphasort_suite::dmgen::{
    generate_varlen, validate_reader, var_records_of, GenConfig, Generator, TextCorpus,
    VarGenConfig, RECORD_LEN,
};
use alphasort_suite::iosim::{catalog, FileStorage, IoEngine, Pacing, SimDisk, Storage};
use alphasort_suite::obs;
use alphasort_suite::sort::driver::{one_pass, two_pass, MemScratch, ResumeReport, StripeScratch};
use alphasort_suite::sort::io::RecordSink;
use alphasort_suite::sort::io_file::{FileSink, FileSource};
use alphasort_suite::sort::{RecordLayout, Representation, SortConfig};
use alphasort_suite::stripefs::{RetryPolicy, Volume};

struct Args {
    input: String,
    output: String,
    mem: u64,
    workers: usize,
    run_records: usize,
    rep: Representation,
    layout: RecordLayout,
    corpus: TextCorpus,
    two_pass: bool,
    merge_workers: usize,
    scratch_dir: Option<String>,
    resume: bool,
    io_retries: u32,
    io_backoff_ms: u64,
    gen: Option<(u64, u64)>,
    verify: bool,
    trace_out: Option<String>,
    metrics_out: Option<String>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sortcli <input> <output> [--mem BYTES] [--workers N] \
         [--run RECORDS] [--rep NAME] [--layout NAME] [--corpus NAME] \
         [--two-pass] [--merge-workers N] \
         [--scratch-dir DIR] [--resume] [--io-retries N] [--io-backoff-ms MS] \
         [--gen RECORDS[:SEED]] [--verify] \
         [--trace-out TRACE.json] [--metrics-out METRICS.json]"
    );
    ExitCode::from(2)
}

fn parse_args() -> Result<Args, ExitCode> {
    let mut pos = Vec::new();
    let mut args = Args {
        input: String::new(),
        output: String::new(),
        mem: 256 << 20,
        workers: 0,
        run_records: 100_000,
        rep: Representation::KeyPrefix,
        layout: RecordLayout::Datamation,
        corpus: TextCorpus::Urls,
        two_pass: false,
        merge_workers: 0,
        scratch_dir: None,
        resume: false,
        io_retries: 2,
        io_backoff_ms: 1,
        gen: None,
        verify: false,
        trace_out: None,
        metrics_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next().ok_or_else(|| {
                eprintln!("missing value for {name}");
                usage()
            })
        };
        match a.as_str() {
            "--mem" => args.mem = value("--mem")?.parse().map_err(|_| usage())?,
            "--workers" => args.workers = value("--workers")?.parse().map_err(|_| usage())?,
            "--run" => args.run_records = value("--run")?.parse().map_err(|_| usage())?,
            "--rep" => {
                let v = value("--rep")?;
                args.rep = Representation::ALL
                    .into_iter()
                    .find(|r| r.name() == v)
                    .ok_or_else(|| {
                        eprintln!("unknown representation {v}");
                        usage()
                    })?;
            }
            "--layout" => {
                let v = value("--layout")?;
                args.layout = RecordLayout::from_name(&v).ok_or_else(|| {
                    let names: Vec<&str> =
                        RecordLayout::ALL.into_iter().map(|l| l.name()).collect();
                    eprintln!("unknown layout {v} (one of: {})", names.join(", "));
                    usage()
                })?;
            }
            "--corpus" => {
                let v = value("--corpus")?;
                args.corpus = TextCorpus::from_name(&v).ok_or_else(|| {
                    let names: Vec<&str> = TextCorpus::ALL.into_iter().map(|c| c.name()).collect();
                    eprintln!("unknown corpus {v} (one of: {})", names.join(", "));
                    usage()
                })?;
            }
            "--two-pass" => args.two_pass = true,
            "--merge-workers" => {
                args.merge_workers = value("--merge-workers")?.parse().map_err(|_| usage())?
            }
            "--scratch-dir" => args.scratch_dir = Some(value("--scratch-dir")?),
            "--resume" => args.resume = true,
            "--io-retries" => {
                args.io_retries = value("--io-retries")?.parse().map_err(|_| usage())?
            }
            "--io-backoff-ms" => {
                args.io_backoff_ms = value("--io-backoff-ms")?.parse().map_err(|_| usage())?
            }
            "--verify" => args.verify = true,
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")?),
            "--gen" => {
                let v = value("--gen")?;
                let (n, seed) = match v.split_once(':') {
                    Some((n, s)) => (
                        n.parse().map_err(|_| usage())?,
                        s.parse().map_err(|_| usage())?,
                    ),
                    None => (v.parse().map_err(|_| usage())?, 42u64),
                };
                args.gen = Some((n, seed));
            }
            "--help" | "-h" => return Err(usage()),
            other if !other.starts_with('-') => pos.push(other.to_string()),
            other => {
                eprintln!("unknown flag {other}");
                return Err(usage());
            }
        }
    }
    if pos.len() != 2 {
        return Err(usage());
    }
    if args.scratch_dir.is_some() && !args.two_pass {
        eprintln!("--scratch-dir requires --two-pass");
        return Err(usage());
    }
    if args.resume && args.scratch_dir.is_none() {
        eprintln!("--resume requires --scratch-dir");
        return Err(usage());
    }
    if args.two_pass && args.layout == RecordLayout::VarLen {
        eprintln!(
            "--two-pass does not take --layout varlen: scratch runs hold fixed-size \
             records, so var-len sorts run in memory (one pass)"
        );
        return Err(usage());
    }
    args.input = pos.remove(0);
    args.output = pos.remove(0);
    Ok(args)
}

/// Number of disk images striped to form the scratch volume.
const SCRATCH_DISKS: usize = 2;
/// Stripe chunk: 64 KB per disk per stride, matching the paper's preference
/// for large transfers over seeks.
const SCRATCH_CHUNK: u64 = 64 * 1024;

/// Build (or re-open, when resuming) a striped scratch volume over disk-image
/// files in `dir` and attach the run manifest at `dir/scratch.manifest`.
fn build_striped_scratch(
    dir: &str,
    resume: bool,
    io_retries: u32,
    io_backoff_ms: u64,
    input_bytes: u64,
    run_records: u64,
) -> io::Result<(StripeScratch, Option<ResumeReport>)> {
    std::fs::create_dir_all(dir)?;
    let disks = (0..SCRATCH_DISKS)
        .map(|i| {
            let img = Path::new(dir).join(format!("disk{i}.img"));
            let storage: Arc<dyn Storage> = if resume {
                Arc::new(FileStorage::open(&img).map_err(|e| {
                    io::Error::new(e.kind(), format!("cannot reopen {}: {e}", img.display()))
                })?)
            } else {
                Arc::new(FileStorage::create(&img).map_err(|e| {
                    io::Error::new(e.kind(), format!("cannot create {}: {e}", img.display()))
                })?)
            };
            Ok(SimDisk::new(
                format!("scratch{i}"),
                catalog::uncapped(),
                storage,
                Pacing::Modeled,
                None,
            ))
        })
        .collect::<io::Result<Vec<_>>>()?;
    let mut volume = Volume::new(Arc::new(IoEngine::new(disks)));
    volume.set_retry_policy(RetryPolicy {
        max_attempts: io_retries + 1,
        backoff: Duration::from_millis(io_backoff_ms),
        ..RetryPolicy::default()
    });
    let volume = Arc::new(volume);
    let manifest = Path::new(dir).join("scratch.manifest");
    if resume {
        let (scratch, report) = StripeScratch::resume(volume, &manifest)?;
        if report.input_bytes != input_bytes {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "scratch manifest was written for a {}-byte input, but the \
                     input is {} bytes; refusing to resume",
                    report.input_bytes, input_bytes
                ),
            ));
        }
        if report.run_records != run_records {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "scratch manifest was written with --run {}, but this \
                     invocation uses --run {}; refusing to resume",
                    report.run_records, run_records
                ),
            ));
        }
        Ok((scratch, Some(report)))
    } else {
        let scratch = StripeScratch::with_manifest(
            volume,
            SCRATCH_CHUNK,
            &manifest,
            input_bytes,
            run_records,
        )?;
        Ok((scratch, None))
    }
}

/// Var-len verification: the output must parse, be key-ascending, and hold
/// exactly the input's frames (a sorted permutation, frame for frame).
fn verify_varlen(input: &str, output: &str) -> Result<u64, String> {
    let inp = std::fs::read(input).map_err(|e| format!("cannot reread {input}: {e}"))?;
    let out = std::fs::read(output).map_err(|e| format!("cannot reopen {output}: {e}"))?;
    let in_recs = var_records_of(&inp).map_err(|e| format!("input: {e}"))?;
    let out_recs = var_records_of(&out).map_err(|e| format!("output: {e}"))?;
    for (i, w) in out_recs.windows(2).enumerate() {
        if w[0].key() > w[1].key() {
            return Err(format!("keys out of order at record {}", i + 1));
        }
    }
    let mut a: Vec<&[u8]> = in_recs.iter().map(|r| r.frame()).collect();
    let mut b: Vec<&[u8]> = out_recs.iter().map(|r| r.frame()).collect();
    a.sort_unstable();
    b.sort_unstable();
    if a != b {
        return Err(format!(
            "output is not a permutation of the input ({} vs {} records)",
            out_recs.len(),
            in_recs.len()
        ));
    }
    Ok(out_recs.len() as u64)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(code) => return code,
    };

    // Optional input generation.
    let checksum = match args.gen {
        Some((records, seed)) if args.layout == RecordLayout::VarLen => {
            let data = generate_varlen(VarGenConfig {
                records,
                seed,
                corpus: args.corpus,
            });
            if let Err(e) = std::fs::write(&args.input, &data) {
                eprintln!("cannot write {}: {e}", args.input);
                return ExitCode::FAILURE;
            }
            eprintln!(
                "generated {} var-len records ({:.1} MB, corpus {}) into {}",
                records,
                data.len() as f64 / 1e6,
                args.corpus.name(),
                args.input
            );
            None
        }
        Some((records, seed)) => {
            let mut gen = Generator::new(GenConfig::datamation(records, seed));
            let mut sink = match FileSink::create(&args.input) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot create {}: {e}", args.input);
                    return ExitCode::FAILURE;
                }
            };
            let mut buf = vec![0u8; 10_000 * RECORD_LEN];
            loop {
                let n = gen.fill(&mut buf);
                if n == 0 {
                    break;
                }
                if let Err(e) = sink.push(&buf[..n]) {
                    eprintln!("write failed: {e}");
                    return ExitCode::FAILURE;
                }
            }
            if let Err(e) = sink.complete() {
                eprintln!("write failed: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "generated {} records ({:.1} MB) into {}",
                records,
                records as f64 * RECORD_LEN as f64 / 1e6,
                args.input
            );
            Some(gen.checksum())
        }
        None => None,
    };

    let cfg = SortConfig {
        run_records: args.run_records,
        representation: args.rep,
        workers: args.workers,
        gather_batch: 10_000,
        memory_budget: args.mem,
        max_fanin: 128,
        merge_workers: args.merge_workers,
        layout: args.layout,
    };

    // Start recording after generation so the trace covers only the sort.
    let tracing = args.trace_out.is_some() || args.metrics_out.is_some();
    if tracing {
        obs::enable(obs::DEFAULT_CAPACITY);
    }

    let mut source = match FileSource::open(&args.input) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot open {}: {e}", args.input);
            return ExitCode::FAILURE;
        }
    };
    let mut sink = match FileSink::create(&args.output) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot create {}: {e}", args.output);
            return ExitCode::FAILURE;
        }
    };

    let outcome = if args.two_pass {
        match &args.scratch_dir {
            Some(dir) => {
                let input_bytes = match std::fs::metadata(&args.input) {
                    Ok(m) => m.len(),
                    Err(e) => {
                        eprintln!("cannot stat {}: {e}", args.input);
                        return ExitCode::FAILURE;
                    }
                };
                let (mut scratch, report) = match build_striped_scratch(
                    dir,
                    args.resume,
                    args.io_retries,
                    args.io_backoff_ms,
                    input_bytes,
                    args.run_records as u64,
                ) {
                    Ok(pair) => pair,
                    Err(e) => {
                        eprintln!("scratch setup failed: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                if let Some(report) = &report {
                    eprintln!(
                        "resume: {} intact run(s) recovered, {} discarded as corrupt",
                        report.recovered.len(),
                        report.corrupt.len()
                    );
                    for reason in &report.corrupt {
                        eprintln!("resume: discarded {reason}");
                    }
                }
                two_pass(&mut source, &mut sink, &mut scratch, &cfg)
            }
            None => {
                let mut scratch = MemScratch::new(10_000 * RECORD_LEN);
                two_pass(&mut source, &mut sink, &mut scratch, &cfg)
            }
        }
    } else {
        one_pass(&mut source, &mut sink, &cfg)
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sort failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let st = &outcome.stats;
    if args.resume {
        eprintln!(
            "resume: reused {} recovered run(s), re-formed {}",
            st.runs_recovered, st.runs_reformed
        );
    }
    eprintln!(
        "sorted {} records in {:.3} s ({:.1} MB/s): {} runs, \
         quicksort {:.3} s, merge {:.3} s, gather {:.3} s, {} pass(es)",
        st.records,
        st.elapsed.as_secs_f64(),
        st.throughput_mbps(),
        st.runs,
        st.sort_time.as_secs_f64(),
        st.merge_time.as_secs_f64(),
        st.gather_time.as_secs_f64(),
        if st.one_pass { "one" } else { "two" },
    );
    if !st.merge_range_records.is_empty() {
        eprintln!(
            "partitioned merge: {} range(s), skew {:.2}x (largest range over ideal)",
            st.merge_range_records.len(),
            st.merge_skew(),
        );
    }

    if tracing {
        obs::disable();
        let snap = obs::snapshot();
        eprint!("{}", obs::figure7(&snap));
        if let Some(path) = &args.trace_out {
            let doc = obs::export::chrome_trace(&snap);
            if let Err(e) = std::fs::write(path, doc.dump()) {
                eprintln!("cannot write trace {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "trace: {} events -> {path} (open in Perfetto / chrome://tracing)",
                snap.events.len()
            );
        }
        if let Some(path) = &args.metrics_out {
            let doc = obs::export::metrics_json(&obs::metrics_snapshot());
            if let Err(e) = std::fs::write(path, doc.dump_pretty()) {
                eprintln!("cannot write metrics {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("metrics: -> {path}");
        }
    }

    if args.verify && args.layout == RecordLayout::VarLen {
        match verify_varlen(&args.input, &args.output) {
            Ok(records) => {
                eprintln!("verified: {records} var-len records, sorted permutation ✓")
            }
            Err(e) => {
                eprintln!("OUTPUT INVALID: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else if args.verify {
        let Some(checksum) = checksum else {
            eprintln!("--verify requires --gen (the input fingerprint)");
            return ExitCode::from(2);
        };
        let mut f = match std::fs::File::open(&args.output) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot reopen output: {e}");
                return ExitCode::FAILURE;
            }
        };
        match validate_reader(&mut f, checksum) {
            Ok(Ok(report)) => {
                eprintln!("verified: {} records, sorted permutation ✓", report.records)
            }
            Ok(Err(e)) => {
                eprintln!("OUTPUT INVALID: {e}");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("verify IO error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
