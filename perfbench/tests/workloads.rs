//! A small-size run of every workload, untraced and traced: each prints
//! every listed metric with its unit, passes its own output checks, and
//! `BENCHMARK.json` lists exactly the metrics the code prints.

use std::path::PathBuf;

use perfbench::dist::artifact_mismatches;
use perfbench::{run, Better, Opts, END_TO_END, PER_LAYER, WORKLOADS};

fn opts(trace: bool, tag: &str) -> Opts {
    Opts {
        seed: 7,
        seconds: 0.5,
        trace,
        small: true,
        work_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
    }
}

fn assert_prints_all(line: &str, metrics: &[(&str, &str, Better)]) {
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    assert!(line.contains("\"failed\": 0, "), "{line}");
    for (name, unit, _) in metrics {
        let entry = format!("\"{name}\": {{\"value\": ");
        let at = line
            .find(&entry)
            .unwrap_or_else(|| panic!("{name} missing: {line}"));
        let rest = &line[at + entry.len()..];
        let value_end = rest.find(',').expect("value then unit");
        let value: f64 = rest[..value_end].parse().expect("numeric value");
        assert!(value.is_finite(), "{name} = {value}");
        assert!(
            rest[value_end..].starts_with(&format!(", \"unit\": \"{unit}\"}}")),
            "{name} unit: {line}"
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric_with_its_unit() {
    for workload in WORKLOADS {
        let report = run(workload, &opts(false, workload)).expect(workload);
        assert_eq!(report.failed, 0, "{workload}: {report:?}");
        assert_prints_all(&report.json_line(false), &END_TO_END);
        for (name, _, _) in END_TO_END {
            assert!(
                report.get(name).is_some(),
                "{workload}: {name} not measured"
            );
        }
        assert!(report.get("proc.peak_rss_mb").is_some_and(|v| v > 0.0));
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_when_traced() {
    for workload in WORKLOADS {
        let report = run(workload, &opts(true, &format!("{workload}-traced"))).expect(workload);
        assert_eq!(report.failed, 0, "{workload}: {report:?}");
        assert_prints_all(&report.json_line(true), PER_LAYER);
        for name in ["trace.coverage", "trace.overhead"] {
            assert!(
                report.get(name).is_some(),
                "{workload}: {name} not measured"
            );
        }
    }
}

#[test]
fn a_mismatched_dist_artifact_is_counted() {
    let row = |cost: u32| format!("{{\n          \"best_cost\": [{cost}]\n        }}");
    let timed = |s: &str| {
        s.replace(
            "\n        }",
            ",\n          \"wall_seconds\": 0.25\n        }",
        )
    };
    let reference = vec![row(1), row(2)];
    let emitted: Vec<String> = reference.iter().map(|s| timed(s)).collect();
    assert_eq!(artifact_mismatches(&emitted, &reference), 0);
    let mut corrupted = emitted.clone();
    corrupted[1] = timed(&row(3));
    assert_eq!(artifact_mismatches(&corrupted, &reference), 1);
    assert_eq!(artifact_mismatches(&emitted[..1], &reference), 1);
}

#[test]
fn benchmark_json_lists_exactly_the_printed_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
        let entry = format!(
            "{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{}\"",
            better.label()
        );
        assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        text.matches("{\"name\": ").count(),
        END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len(),
        "BENCHMARK.json lists metrics or workloads the code does not"
    );
    for workload in WORKLOADS {
        assert!(text.contains(&format!("{{\"name\": \"{workload}\", \"why\": ")));
    }
}
