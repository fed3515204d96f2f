//! A tiny-size run of every workload, untraced and traced, through the
//! benchmark binary: each prints exactly the end-to-end or the per-layer
//! metrics with their units, and `BENCHMARK.json` declares exactly these
//! metrics.

use std::collections::BTreeSet;
use std::process::Command;

use perfbench::metrics::{END_TO_END, PER_LAYER};

const WORKLOADS: [&str; 4] = ["mixed", "sssp", "handoff", "sharded"];

/// `(name, unit)` of every metric in the run's last output line.
fn printed(line: &str) -> BTreeSet<(String, String)> {
    let body = line.split_once("\"metrics\": {").expect("metrics object").1;
    body.split("}, ")
        .map(|entry| {
            let name = entry.trim_start_matches('"').split('"').next().unwrap();
            let unit = entry
                .split("\"unit\": \"")
                .nth(1)
                .expect("unit")
                .split('"')
                .next()
                .unwrap();
            (name.to_string(), unit.to_string())
        })
        .collect()
}

fn owned(v: &[(&str, &str)]) -> BTreeSet<(String, String)> {
    v.iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

/// Span files of the test named `test` go to their own directory, since
/// tests run in parallel.
fn out_dir(test: &str) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(test)
}

fn run(workload: &str, trace: &str, test: &str) -> String {
    let out_dir = out_dir(test);
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "11", "--seconds", "0.4"])
        .args(["--trace", trace, "--size", "tiny"])
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line").to_string();
    assert!(
        last.starts_with("{\"correct\": true, \"attempted\": "),
        "{last}"
    );
    assert!(last.contains("\"failed\": 0,"), "{last}");
    if trace == "1" {
        let spans = out_dir.join(format!("spans-{workload}-seed11.json"));
        let text = std::fs::read_to_string(&spans).expect("span file written");
        assert!(text.contains("\"name\": \"queue.insert\""));
        assert!(text.contains("\"name\": \"queue.extract\""));
    }
    last
}

/// The value of `name` in the run's last output line.
fn value(line: &str, name: &str) -> f64 {
    line.split(&format!("\"{name}\": {{\"value\": "))
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no value for {name} in {line}"))
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    for w in WORKLOADS {
        let line = run(w, "0", "e2e");
        assert_eq!(printed(&line), owned(END_TO_END), "{w}");
        for &(name, _) in END_TO_END {
            assert!(value(&line, name) > 0.0, "{w}: {name} is not positive");
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric() {
    for w in WORKLOADS {
        assert_eq!(printed(&run(w, "1", "layers")), owned(PER_LAYER), "{w}");
    }
}

#[test]
fn handoff_spans_share_item_sequence_numbers() {
    run("handoff", "1", "seq");
    let path = out_dir("seq").join("spans-handoff-seed11.json");
    let text = std::fs::read_to_string(path).expect("span file");
    let seqs = |name: &str| -> BTreeSet<String> {
        text.lines()
            .filter(|l| l.contains(&format!("\"name\": \"{name}\"")))
            .filter_map(|l| l.split("\"seq\": ").nth(1))
            .map(|s| s.trim_end_matches(&['}', ',', ']', '\n'][..]).to_string())
            .filter(|s| s != "null")
            .collect()
    };
    let (ins, ext) = (seqs("queue.insert"), seqs("queue.extract"));
    assert!(!ins.is_empty() && !ext.is_empty());
    // Both calls of an item carry its number; sampling is per call, so
    // some items are seen on both sides.
    assert!(ins.intersection(&ext).count() > 0);
}

/// The names and units `BENCHMARK.json` declares in one of its metric
/// lists.
fn declared(list: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text.find(&format!("\"{list}\"")).expect("metric list");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("list end")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|e| {
            let name = e.split('"').next().unwrap();
            let unit = e
                .split("\"unit\": \"")
                .nth(1)
                .unwrap()
                .split('"')
                .next()
                .unwrap();
            (name.to_string(), unit.to_string())
        })
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_printed_metrics() {
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
}
