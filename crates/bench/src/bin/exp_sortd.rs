//! Service-level benchmark for the sortd daemon: a self-hosted client
//! fleet measuring throughput (jobs/s), submit-to-result latency (p50 and
//! p99), and pool utilization at its high-water mark.
//!
//! Usage: `exp_sortd [JOBS] [THREADS] [RECORDS] [--json OUT.json]`
//! (defaults: 200 jobs over 8 client threads, 5 000 records each, plus a
//! fixed pair of forced two-pass "elephant" jobs racing the fleet).
//!
//! Each job's output is checked byte-for-byte against a stable-sort
//! oracle, so the numbers only count *correct* sorts. `--json` writes the
//! service-level numbers as one JSON document.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use alphasort_dmgen::{generate, records_of_mut, GenConfig, RECORD_LEN};
use alphasort_minijson::Json;
use alphasort_sortd::{
    AdmissionConfig, Client, JobSpec, PoolConfig, ScratchBacking, Sortd, SortdConfig,
};

fn oracle(mut data: Vec<u8>) -> Vec<u8> {
    records_of_mut(&mut data).sort_by_key(|r| r.key);
    data
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut nums = args.iter().filter(|a| !a.starts_with("--"));
    let jobs: u64 = nums.next().and_then(|s| s.parse().ok()).unwrap_or(200);
    let threads: u64 = nums.next().and_then(|s| s.parse().ok()).unwrap_or(8);
    let records: u64 = nums.next().and_then(|s| s.parse().ok()).unwrap_or(5_000);
    let json_out = args
        .iter()
        .position(|a| a == "--json")
        .and_then(|i| args.get(i + 1))
        .cloned();

    const ELEPHANTS: u64 = 2;
    let pool = PoolConfig {
        mem_total: 8 << 20,
        scratch_total: 256 << 20,
    };
    let daemon = Sortd::start(SortdConfig {
        listen: "127.0.0.1:0".into(),
        pool,
        admission: AdmissionConfig {
            queue_bound: 1024,
            bypass_limit: 16,
        },
        backing: ScratchBacking::Memory,
        client_read_timeout: Duration::from_secs(300),
        ..SortdConfig::default()
    })
    .expect("daemon starts");
    let addr = daemon.addr();

    println!(
        "== sortd service benchmark: {jobs} x {records}-record jobs over {threads} client \
         threads, {ELEPHANTS} forced two-pass elephants, pool {} MB mem ==\n",
        pool.mem_total >> 20
    );

    let latencies = Arc::new(Mutex::new(Vec::<f64>::new()));
    let queued_count = Arc::new(Mutex::new(0u64));
    let started = Instant::now();
    let mut handles = Vec::new();

    // Elephants: 20 MB of input against a 2 MB budget, racing the fleet.
    for e in 0..ELEPHANTS {
        let lat = Arc::clone(&latencies);
        let qc = Arc::clone(&queued_count);
        handles.push(thread::spawn(move || {
            let (data, _) = generate(GenConfig::datamation(200_000, 9_000 + e));
            let spec = JobSpec {
                name: format!("elephant-{e}"),
                input_bytes: data.len() as u64,
                mem_budget: 2 << 20,
                scratch_budget: data.len() as u64 + RECORD_LEN as u64,
                merge_workers: 0,
                ..JobSpec::default()
            };
            let client = Client::new(addr).with_timeout(Duration::from_secs(300));
            let t0 = Instant::now();
            let res = client.submit(&spec, &data).expect("elephant failed");
            let dt = t0.elapsed().as_secs_f64();
            assert_eq!(res.output, oracle(data), "elephant-{e} wrong");
            lat.lock().unwrap().push(dt);
            if res.queued {
                *qc.lock().unwrap() += 1;
            }
        }));
    }
    for t in 0..threads {
        let lat = Arc::clone(&latencies);
        let qc = Arc::clone(&queued_count);
        handles.push(thread::spawn(move || {
            let client = Client::new(addr).with_timeout(Duration::from_secs(300));
            for j in (t..jobs).step_by(threads.max(1) as usize) {
                let (data, _) = generate(GenConfig::datamation(records, 10_000 + j));
                let spec = JobSpec {
                    name: format!("fleet-{j}"),
                    input_bytes: data.len() as u64,
                    mem_budget: 1 << 20,
                    scratch_budget: data.len() as u64 + RECORD_LEN as u64,
                    merge_workers: 0,
                    ..JobSpec::default()
                };
                let t0 = Instant::now();
                let mut delay = Duration::from_millis(2);
                let res = loop {
                    match client.submit(&spec, &data) {
                        Ok(r) => break r,
                        Err(e) if e.retryable() => {
                            thread::sleep(delay);
                            delay = (delay * 2).min(Duration::from_millis(100));
                        }
                        Err(e) => panic!("fleet-{j}: {e}"),
                    }
                };
                let dt = t0.elapsed().as_secs_f64();
                assert_eq!(res.output, oracle(data), "fleet-{j} wrong");
                lat.lock().unwrap().push(dt);
                if res.queued {
                    *qc.lock().unwrap() += 1;
                }
            }
        }));
    }
    for h in handles {
        h.join().expect("client thread panicked");
    }
    let wall = started.elapsed().as_secs_f64();

    let (total_done, failed_queued) = daemon.drain();
    assert_eq!(failed_queued, 0);
    assert!(daemon.pool_idle(), "pool accounting not zero after drain");

    let stats = daemon.stats();
    let pool_doc = stats.get("pool").unwrap();
    let queue_doc = stats.get("queue").unwrap();
    let mem_hwm = pool_doc.field_u64("mem_hwm").unwrap();
    let scratch_hwm = pool_doc.field_u64("scratch_hwm").unwrap();
    let bypasses = queue_doc.field_u64("bypasses").unwrap();
    let aged = queue_doc.field_u64("aged_barriers").unwrap();

    let mut lats = latencies.lock().unwrap().clone();
    lats.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let total_jobs = jobs + ELEPHANTS;
    let jobs_per_sec = total_jobs as f64 / wall;
    let p50 = percentile(&lats, 0.50);
    let p99 = percentile(&lats, 0.99);
    let mem_util = mem_hwm as f64 / pool.mem_total as f64;
    let queued = *queued_count.lock().unwrap();

    println!("jobs completed        {total_done} (all oracle-checked)");
    println!("wall clock            {wall:.3} s");
    println!("throughput            {jobs_per_sec:.1} jobs/s");
    println!("latency p50           {:.1} ms", p50 * 1e3);
    println!("latency p99           {:.1} ms", p99 * 1e3);
    println!(
        "pool mem hwm          {:.2} MB of {} MB ({:.0}% utilized)",
        mem_hwm as f64 / 1e6,
        pool.mem_total >> 20,
        mem_util * 100.0
    );
    println!("pool scratch hwm      {:.1} MB", scratch_hwm as f64 / 1e6);
    println!("jobs that queued      {queued}");
    println!("backfill bypasses     {bypasses} (aged into barriers: {aged})");

    if let Some(path) = json_out {
        let doc = Json::Obj(vec![
            ("benchmark".into(), Json::from("sortd service fleet")),
            ("jobs".into(), Json::from(total_jobs)),
            ("client_threads".into(), Json::from(threads)),
            ("records_per_small_job".into(), Json::from(records)),
            ("elephant_jobs".into(), Json::from(ELEPHANTS)),
            ("pool_mem_bytes".into(), Json::from(pool.mem_total)),
            ("pool_scratch_bytes".into(), Json::from(pool.scratch_total)),
            ("wall_seconds".into(), Json::from(wall)),
            ("jobs_per_sec".into(), Json::from(jobs_per_sec)),
            ("latency_p50_ms".into(), Json::from(p50 * 1e3)),
            ("latency_p99_ms".into(), Json::from(p99 * 1e3)),
            ("pool_mem_hwm_bytes".into(), Json::from(mem_hwm)),
            ("pool_mem_utilization".into(), Json::from(mem_util)),
            ("pool_scratch_hwm_bytes".into(), Json::from(scratch_hwm)),
            ("jobs_queued".into(), Json::from(queued)),
            ("admission_bypasses".into(), Json::from(bypasses)),
            ("admission_aged_barriers".into(), Json::from(aged)),
            ("all_outputs_oracle_checked".into(), Json::Bool(true)),
            ("pool_idle_after_drain".into(), Json::Bool(true)),
        ]);
        std::fs::write(&path, doc.dump_pretty()).expect("write json");
        println!("\nwrote {path}");
    }
}
