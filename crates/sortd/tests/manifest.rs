//! Manifest hardening and compatibility over the wire:
//!
//! * a manifest whose `merge_workers` would spawn an unbounded number of
//!   threads is refused with `bad_manifest` before anything runs, and the
//!   daemon keeps serving with its pool accounting intact;
//! * manifests and journal records written by earlier daemons, which carry
//!   a `kernel` field naming one of the retired run-formation variants,
//!   still parse, replay and sort; an unknown kernel name is still refused.

use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use alphasort_dmgen::{generate, records_of_mut, GenConfig};
use alphasort_minijson::Json;
use alphasort_sortd::{
    proto, AdmissionConfig, Client, JobSpec, Journal, PoolConfig, ScratchBacking, Sortd,
    SortdConfig,
};

fn oracle(mut data: Vec<u8>) -> Vec<u8> {
    records_of_mut(&mut data).sort_by_key(|r| r.key);
    data
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "sortd-manifest-{tag}-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .subsec_nanos()
    ));
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn start(journal: Option<&Path>) -> Sortd {
    Sortd::start(SortdConfig {
        listen: "127.0.0.1:0".into(),
        pool: PoolConfig {
            mem_total: 16 << 20,
            scratch_total: 64 << 20,
        },
        admission: AdmissionConfig::default(),
        backing: ScratchBacking::Memory,
        journal: journal.map(Path::to_path_buf),
        ..SortdConfig::default()
    })
    .expect("daemon starts")
}

fn spec(input: u64) -> JobSpec {
    JobSpec {
        name: "m".into(),
        input_bytes: input,
        mem_budget: 4 << 20,
        ..JobSpec::default()
    }
}

fn pool_in_use(daemon: &Sortd) -> (u64, u64) {
    let s = daemon.stats();
    let pool = s.get("pool").unwrap();
    (
        pool.field_u64("mem_in_use").unwrap(),
        pool.field_u64("scratch_in_use").unwrap(),
    )
}

/// `spec`'s manifest with a `kernel` field, as an earlier client sent it.
fn legacy_manifest(spec: &JobSpec, kernel: &str) -> Json {
    let Json::Obj(mut fields) = spec.to_json() else {
        panic!("manifest is an object")
    };
    fields.push(("kernel".into(), Json::from(kernel)));
    Json::Obj(fields)
}

/// Submit a raw manifest document; returns the final ctrl document and
/// the sorted payload when the daemon accepted the job.
fn submit_raw(addr: std::net::SocketAddr, doc: &Json, input: &[u8]) -> (Json, Vec<u8>) {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    proto::send_ctrl(&mut s, doc).unwrap();
    proto::send_payload(&mut s, input).unwrap();
    let first = proto::read_ctrl(&mut s).unwrap();
    if first.field_str("type").unwrap() == "error" {
        return (first, Vec::new());
    }
    let result = proto::read_ctrl(&mut s).unwrap();
    let bytes = result.field_u64("output_bytes").unwrap();
    let output = proto::read_payload(&mut s, bytes).unwrap();
    (result, output)
}

#[test]
fn oversized_merge_workers_is_refused_and_the_daemon_keeps_serving() {
    let daemon = start(None);
    let client = Client::new(daemon.addr()).with_timeout(Duration::from_secs(60));
    let (data, _) = generate(GenConfig::datamation(2_000, 61));

    let hostile = JobSpec {
        merge_workers: 1_000_000,
        ..spec(data.len() as u64)
    };
    let err = client.submit(&hostile, &data).expect_err("must be refused");
    assert_eq!(err.code(), Some("bad_manifest"), "{err}");
    assert!(!err.retryable());
    assert_eq!(pool_in_use(&daemon), (0, 0));

    let ok = JobSpec {
        merge_workers: 4,
        ..spec(data.len() as u64)
    };
    let res = client.submit(&ok, &data).expect("daemon still serves");
    assert_eq!(res.output, oracle(data));

    daemon.drain();
    assert!(daemon.pool_idle(), "pool accounting did not return to zero");
    assert_eq!(pool_in_use(&daemon), (0, 0));
}

#[test]
fn legacy_kernel_field_parses_replays_and_sorts() {
    // Journal records in the earlier daemon's shape: a settled job, an
    // interrupted one, and one naming a kernel no daemon ever had.
    let journal_dir = tmp_dir("legacy-journal");
    let (data, _) = generate(GenConfig::datamation(1_500, 62));
    let input = data.len() as u64;
    let record = |key: &str, job_id: u64, state: &str, kernel: &str, records: u64| {
        format!(
            r#"{{"version": 1, "key": "{key}", "job_id": {job_id}, "state": "{state}",
  "spec": {{"type": "submit", "name": "m", "input_bytes": {input},
    "mem_budget": {mem}, "scratch_budget": 0, "merge_workers": 0, "kernel": "{kernel}"}},
  "records": {records}}}"#,
            mem = 4u64 << 20,
        )
    };
    let journal = Journal::open(&journal_dir).unwrap();
    for (key, id, state, kernel, records) in [
        ("legacy-done", 3, "done", "simd", 1_500),
        ("legacy-running", 4, "running", "radix", 0),
        ("legacy-bad", 5, "done", "warp-drive", 1_500),
    ] {
        std::fs::write(
            journal.record_path(key),
            record(key, id, state, kernel, records),
        )
        .unwrap();
    }
    let replay = journal.replay().unwrap();
    let keys: Vec<&str> = replay.records.iter().map(|r| r.key.as_str()).collect();
    assert_eq!(keys, ["legacy-done", "legacy-running"]);
    assert_eq!(replay.corrupt.len(), 1, "{:?}", replay.corrupt);
    assert!(
        replay.corrupt[0].contains("bad `spec`"),
        "{:?}",
        replay.corrupt
    );

    let daemon = start(Some(&journal_dir));
    let counters = daemon.stats();
    let counters = counters.get("counters").unwrap();
    assert_eq!(counters.field_u64("jobs_recovered").unwrap(), 1);
    let addr = daemon.addr();

    // The settled key answers from its record.
    let done = JobSpec {
        idem_key: Some("legacy-done".into()),
        ..spec(input)
    };
    let (res, out) = submit_raw(addr, &legacy_manifest(&done, "simd"), &data);
    assert_eq!(res.field_str("type").unwrap(), "result", "{}", res.dump());
    assert_eq!(res.get("duplicate").and_then(Json::as_bool), Some(true));
    assert!(out.is_empty());

    // The interrupted key re-runs and sorts.
    let running = JobSpec {
        idem_key: Some("legacy-running".into()),
        ..spec(input)
    };
    let (res, out) = submit_raw(addr, &legacy_manifest(&running, "branchless-tree"), &data);
    assert_eq!(res.field_str("type").unwrap(), "result", "{}", res.dump());
    assert_eq!(out, oracle(data.clone()));

    // A fresh manifest under every retired name sorts too.
    for kernel in ["scalar", "branchless-tree", "radix", "simd"] {
        let (res, out) = submit_raw(addr, &legacy_manifest(&spec(input), kernel), &data);
        assert_eq!(
            res.field_str("type").unwrap(),
            "result",
            "{kernel}: {}",
            res.dump()
        );
        assert_eq!(out, oracle(data.clone()), "{kernel}");
    }

    // An unknown kernel is still a manifest error.
    let (res, _) = submit_raw(addr, &legacy_manifest(&spec(input), "warp-drive"), &data);
    assert_eq!(
        res.field_str("code").unwrap(),
        "bad_manifest",
        "{}",
        res.dump()
    );
    assert!(res.field_str("message").unwrap().contains("unknown kernel"));

    daemon.drain();
    assert!(daemon.pool_idle(), "pool accounting did not return to zero");
}
