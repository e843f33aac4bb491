//! `BENCHMARK.json` names exactly the workloads and metrics this package
//! runs and prints, with bounds in range.

use alphasort_minijson::Json;
use alphasort_perfbench::{END_TO_END, PER_LAYER, WORKLOADS};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
}

fn names(doc: &Json, key: &str) -> Vec<String> {
    doc.field_arr(key)
        .unwrap()
        .iter()
        .map(|m| m.field_str("name").unwrap().to_string())
        .collect()
}

fn units(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.field_arr(key)
        .unwrap()
        .iter()
        .map(|m| {
            (
                m.field_str("name").unwrap().to_string(),
                m.field_str("unit").unwrap().to_string(),
            )
        })
        .collect()
}

fn expected(list: &[(&str, &str)]) -> Vec<(String, String)> {
    list.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn manifest_matches_the_package() {
    let doc = manifest();
    assert_eq!(names(&doc, "workloads"), WORKLOADS);
    assert_eq!(units(&doc, "end_to_end"), expected(END_TO_END));
    assert_eq!(units(&doc, "per_layer"), expected(PER_LAYER));
    for m in doc.field_arr("end_to_end").unwrap() {
        let bound = m.field_f64("bound").unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("unknown");
    assert!(alphasort_perfbench::run("nope", 1, 1.0, false, &dir).is_err());
}
