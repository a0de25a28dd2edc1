//! The benchmark's own test: `perfbench --smoke` runs every workload briefly
//! in both modes; each run must be correct and emit exactly the metrics
//! `BENCHMARK.json` names, finite and with the units it gives.

use pathcost_server::json::{self, Json};
use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn metric_units(spec: &Json, list: &str) -> BTreeMap<String, String> {
    spec.get(list)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_workload_emits_every_metric() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec =
        json::parse(&std::fs::read(root.join("BENCHMARK.json")).expect("read BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
    let end_to_end = metric_units(&spec, "end_to_end");
    let per_layer = metric_units(&spec, "per_layer");

    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("--smoke")
        .current_dir(&root)
        .output()
        .expect("run perfbench --smoke");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let mut runs = 0;
    for line in stdout.lines() {
        let Some((label, report)) = line.split_once(": {") else {
            continue;
        };
        let report = json::parse(format!("{{{report}").as_bytes()).expect("result line parses");
        assert_eq!(
            report.get("correct").and_then(Json::as_bool),
            Some(true),
            "{line}"
        );
        let expected = if label.ends_with("trace 1") {
            &per_layer
        } else {
            &end_to_end
        };
        let Some(Json::Object(metrics)) = report.get("metrics") else {
            panic!("no metrics in {line}");
        };
        let got: BTreeMap<String, String> = metrics
            .iter()
            .map(|(name, m)| {
                let value = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(value.is_finite(), "{label}: {name} = {value}");
                let unit = m.get("unit").and_then(Json::as_str).expect("unit");
                (name.clone(), unit.to_string())
            })
            .collect();
        assert_eq!(
            &got, expected,
            "{label}: metrics differ from BENCHMARK.json"
        );
        runs += 1;
    }
    assert_eq!(runs, 6, "three workloads in two modes:\n{stdout}");
}
