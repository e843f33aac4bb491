//! Graceful drain under load: a SIGTERM-style drain lands while a big job
//! is running and more are queued.
//!
//! The contract being pinned:
//! * the running job finishes normally and its client gets correct bytes,
//! * every queued job fails fast with the retryable `draining` error,
//! * new submits after drain are refused (connection or typed error),
//! * the pool returns to zero and the listener socket is closed.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use alphasort_dmgen::{generate, records_of_mut, GenConfig, RECORD_LEN};
use alphasort_sortd::{
    AdmissionConfig, Client, ClientError, JobSpec, PoolConfig, ScratchBacking, Sortd,
    SortdConfig,
};

fn oracle(mut data: Vec<u8>) -> Vec<u8> {
    records_of_mut(&mut data).sort_by_key(|r| r.key);
    data
}

fn spec(name: &str, input: u64, mem: u64, scratch: u64) -> JobSpec {
    JobSpec {
        name: name.into(),
        input_bytes: input,
        mem_budget: mem,
        scratch_budget: scratch,
        merge_workers: 0,
        ..JobSpec::default()
    }
}

#[test]
fn drain_mid_fleet_finishes_running_and_fails_queued_retryably() {
    let daemon = Sortd::start(SortdConfig {
        listen: "127.0.0.1:0".into(),
        pool: PoolConfig {
            mem_total: 3 << 20,
            scratch_total: 64 << 20,
        },
        admission: AdmissionConfig::default(),
        backing: ScratchBacking::Memory,
        client_read_timeout: Duration::from_secs(120),
        ..SortdConfig::default()
    })
    .expect("daemon starts");
    let addr = daemon.addr();

    // Job A: big two-pass sort that will be mid-flight when drain lands.
    let big = thread::spawn(move || {
        let (data, _) = generate(GenConfig::datamation(300_000, 31));
        let scratch = data.len() as u64 + RECORD_LEN as u64;
        let client = Client::new(addr).with_timeout(Duration::from_secs(120));
        let out = client
            .submit(&spec("big", data.len() as u64, 2 << 20, scratch), &data)
            .expect("the running job must complete through a drain");
        assert_eq!(out.output, oracle(data), "big job corrupted by drain");
    });
    wait(&daemon, |running, _| running >= 1);

    // Two more big jobs that cannot fit beside A: they queue.
    let drained_errors = Arc::new(AtomicU64::new(0));
    let mut queued = Vec::new();
    for j in 0..2u64 {
        let errs = Arc::clone(&drained_errors);
        queued.push(thread::spawn(move || {
            let (data, _) = generate(GenConfig::datamation(30_000, 40 + j));
            let scratch = data.len() as u64 + RECORD_LEN as u64;
            let client = Client::new(addr).with_timeout(Duration::from_secs(120));
            match client.submit(&spec("queued", data.len() as u64, 2 << 20, scratch), &data) {
                Ok(_) => panic!("queued job ran through a drain"),
                Err(e) => {
                    assert_eq!(e.code(), Some("draining"), "wrong failure: {e}");
                    assert!(e.retryable(), "drain failures must be retryable");
                    errs.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    wait(&daemon, |_, depth| depth >= 2);

    // Drain lands mid-fleet, over the wire like a supervisor would send it.
    let resp = Client::new(addr)
        .with_timeout(Duration::from_secs(120))
        .drain()
        .expect("drain request");
    assert_eq!(resp.field_str("type").unwrap(), "drained");
    assert_eq!(resp.field_u64("total_done").unwrap(), 1, "only the big job ran");
    assert_eq!(resp.field_u64("failed_queued").unwrap(), 2);

    big.join().expect("big job client panicked");
    for q in queued {
        q.join().expect("queued job client panicked");
    }
    assert_eq!(drained_errors.load(Ordering::Relaxed), 2);

    // Pool accounting is back to zero and the daemon refuses new work:
    // the acceptor is stopped, so the port no longer answers.
    assert!(daemon.pool_idle(), "pool accounting did not return to zero");
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener still accepting after drain"
    );
}

/// Poll running count and queue depth until `pred` holds (10 s cap).
fn wait(daemon: &Sortd, pred: impl Fn(u64, u64) -> bool) {
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let s = daemon.stats();
        let running = s.field_u64("running").unwrap();
        let depth = s.get("queue").unwrap().field_u64("depth").unwrap();
        if pred(running, depth) {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon never reached the expected state; last stats: {}",
            s.dump()
        );
        thread::sleep(Duration::from_millis(2));
    }
}

/// A second drain (idempotence) and post-drain submits are sane even when
/// the daemon drained while completely idle.
#[test]
fn drain_of_an_idle_daemon_is_immediate_and_idempotent() {
    let daemon = Sortd::start(SortdConfig::default()).expect("daemon starts");
    let addr = daemon.addr();
    let (total_done, failed) = daemon.drain();
    assert_eq!((total_done, failed), (0, 0));
    let (total_done, failed) = daemon.drain();
    assert_eq!((total_done, failed), (0, 0));
    assert!(daemon.pool_idle());
    assert!(TcpStream::connect(addr).is_err(), "listener survived drain");
}

/// A client that submits against a draining daemon gets the typed,
/// retryable error rather than a hang or a reset.
#[test]
fn submit_during_drain_is_refused_with_the_typed_error() {
    let daemon = Sortd::start(SortdConfig {
        listen: "127.0.0.1:0".into(),
        pool: PoolConfig {
            mem_total: 3 << 20,
            scratch_total: 64 << 20,
        },
        admission: AdmissionConfig::default(),
        backing: ScratchBacking::Memory,
        client_read_timeout: Duration::from_secs(120),
        ..SortdConfig::default()
    })
    .expect("daemon starts");
    let addr = daemon.addr();

    // Hold the daemon open with a long-running job, drain concurrently,
    // then race a submit in before the acceptor shuts.
    let big = thread::spawn(move || {
        let (data, _) = generate(GenConfig::datamation(300_000, 77));
        let scratch = data.len() as u64 + RECORD_LEN as u64;
        Client::new(addr)
            .with_timeout(Duration::from_secs(120))
            .submit(&spec("big", data.len() as u64, 2 << 20, scratch), &data)
            .expect("running job completes");
    });
    wait(&daemon, |running, _| running >= 1);

    let drainer = thread::spawn(move || {
        // In-process drain: blocks until the big job finishes.
        daemon.drain();
        daemon
    });
    // Submits racing the drain must either hit the typed draining error
    // (acceptor still up, admission refusing) or a connection error
    // (acceptor already gone) — never a hang and never a successful run.
    let (data, _) = generate(GenConfig::datamation(100, 9));
    let client = Client::new(addr).with_timeout(Duration::from_secs(10));
    loop {
        match client.submit(&spec("late", data.len() as u64, 1 << 20, 0), &data) {
            Err(ClientError::Remote { code, retryable, .. }) => {
                assert_eq!(code, "draining");
                assert!(retryable);
                break;
            }
            Err(ClientError::Io(_)) => break, // acceptor already stopped
            Ok(_) => {
                // Raced in before the drain flag was set; try again.
                thread::sleep(Duration::from_millis(1));
            }
        }
    }
    big.join().expect("big job client panicked");
    let daemon = drainer.join().expect("drain panicked");
    assert!(daemon.pool_idle());
}
