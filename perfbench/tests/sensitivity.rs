//! The sink wrapper's delay lands inside the measured window: a delay of
//! about a tenth of a dm-onepass sort lowers `records_per_s` by about that
//! share, and one sized past the bound `BENCHMARK.json` gives the metric
//! moves it past that bound.

use std::path::PathBuf;
use std::time::Duration;

use alphasort_minijson::Json;
use alphasort_perfbench::filesort::{FileBench, FileSpec, Sample, DM_ONEPASS};
use alphasort_perfbench::report::median;

fn records_per_s_bound() -> f64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.field_arr("end_to_end")
        .unwrap()
        .iter()
        .find(|m| m.field_str("name").ok() == Some("records_per_s"))
        .expect("records_per_s is an end-to-end metric")
        .field_f64("bound")
        .unwrap()
}

#[test]
fn sink_delay_moves_records_per_s_by_its_share() {
    let bound = records_per_s_bound();
    let spec = FileSpec {
        records: 500_000,
        ..DM_ONEPASS
    };
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("sensitivity");
    let mut bench = FileBench::prepare(spec, 5, &dir).unwrap();
    let probes: Vec<_> = (0..3).map(|_| bench.run(false).unwrap()).collect();
    let elapsed = median(
        &probes
            .iter()
            .map(|s| s.elapsed.as_secs_f64())
            .collect::<Vec<_>>(),
    );
    // A delay of share `f` of elapsed lowers the rate by f / (1 + f).
    let per_push =
        |f: f64| Duration::from_secs_f64(elapsed * f) / probes[0].file_write.calls as u32;
    let tenth = per_push(0.10);
    let past = per_push(bound / (1.0 - bound) + 0.10);

    // Alternate plain and slowed sorts so drift hits all three alike.
    let mut runs = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..9 {
        for (i, d) in [Duration::ZERO, tenth, past].into_iter().enumerate() {
            bench.sink_delay = d;
            let s = bench.run(false).unwrap();
            assert_eq!(s.check, Ok(500_000));
            runs[i].push(s);
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    let med = |i: usize, f: fn(&Sample) -> f64| median(&runs[i].iter().map(f).collect::<Vec<_>>());
    let drop = |i: usize| 1.0 - med(i, Sample::rate) / med(0, Sample::rate);
    // What the sleeps actually added to the sink's busy time, as a share
    // of the whole slowed sort: the drop the window must show.
    let busy = |s: &Sample| s.file_write.busy.as_secs_f64();
    let added = |i: usize| {
        let extra = med(i, busy) - med(0, busy);
        extra / (med(0, |s| s.elapsed.as_secs_f64()) + extra)
    };
    let (d_tenth, d_past) = (drop(1), drop(2));
    eprintln!(
        "added {:.3} -> drop {d_tenth:.3}; added {:.3} -> drop {d_past:.3}",
        added(1),
        added(2)
    );
    assert!(
        (added(1) - 0.06..added(1) + 0.06).contains(&d_tenth),
        "a sink delay adding {:.1}% moved records_per_s by {:.1}%",
        100.0 * added(1),
        100.0 * d_tenth
    );
    assert!(
        d_past > bound,
        "a sink delay adding {:.1}% moved records_per_s by only {:.1}% (bound {:.1}%)",
        100.0 * added(2),
        100.0 * d_past,
        100.0 * bound
    );
}
