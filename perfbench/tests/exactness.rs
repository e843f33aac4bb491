//! Exact counters repeat bit for bit across two runs with the same seed.

use std::path::PathBuf;

use alphasort_perfbench::filesort::{FileBench, FileSpec, Sample, DM_TWOPASS, STR_URLS};

fn work(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("exact-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The counters the benchmark reports as exact.
fn exact(s: &Sample) -> Vec<(&'static str, u64)> {
    vec![
        ("io_file.bytes_read", s.file_read.bytes),
        ("io_file.bytes_written", s.file_write.bytes),
        ("io_file.read_calls", s.file_read.calls),
        ("io_file.write_calls", s.file_write.calls),
        ("scratch.bytes_written", s.scratch_write.bytes),
        ("scratch.bytes_read", s.scratch_read.bytes),
        ("scratch.runs", s.scratch_runs),
        ("iosim.writes", s.disks.writes),
        ("iosim.reads", s.disks.reads),
        ("iosim.bytes_written", s.disks.bytes_written),
        ("iosim.seeks", s.disks.seeks),
        ("driver.runs", s.stats.runs),
        ("driver.merge_passes", u64::from(s.stats.merge_passes)),
    ]
}

#[test]
fn two_pass_counters_repeat_across_runs_with_one_seed() {
    // dm-twopass scaled down: a tenth of the input as budget, 20 runs.
    let spec = FileSpec {
        records: 200_000,
        memory_budget: 2 << 20,
        ..DM_TWOPASS
    };
    let dir = work("twopass");
    let runs: Vec<Vec<(&str, u64)>> = (0..2)
        .map(|i| {
            let bench = FileBench::prepare(spec, 7, &dir.join(i.to_string())).unwrap();
            let s = bench.run(false).unwrap();
            assert_eq!(s.check, Ok(200_000));
            assert!(!s.stats.one_pass, "the scaled budget must force two passes");
            assert_eq!(s.file_read.bytes, bench.input_bytes());
            assert_eq!(s.file_write.bytes, bench.input_bytes());
            assert!(s.scratch_write.bytes >= bench.input_bytes());
            exact(&s)
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(runs[0], runs[1]);
}

#[test]
fn varlen_replay_counts_repeat_across_runs_with_one_seed() {
    let spec = FileSpec {
        records: 250_000,
        ..STR_URLS
    };
    let dir = work("urls");
    let efforts: Vec<_> = (0..2)
        .map(|i| {
            let bench = FileBench::prepare(spec, 7, &dir.join(i.to_string())).unwrap();
            let s = bench.run(false).unwrap();
            assert_eq!(s.check, Ok(250_000));
            assert_eq!(s.stats.runs, 3);
            let e = bench.replay_ovc().unwrap();
            assert!(e.compares > 0 && e.key_bytes > 0);
            (e, exact(&s))
        })
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(efforts[0], efforts[1]);
}
