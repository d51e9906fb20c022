//! Self-tests of the benchmark: short modes emit every metric with its
//! unit, wrong answers are counted instead of accepted, and the metric
//! catalogue matches `BENCHMARK.json`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use consensus_lab::json::{self, Value};
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{Query, Session};
use perfbench::check::{stripped, ReplyChecker};
use perfbench::metrics::{Report, END_TO_END, PER_LAYER};
use perfbench::{Args, Artifacts, Tamper, WORKLOADS};

fn short(workload: &str, trace: bool) -> Args {
    Args { workload: workload.into(), seed: 3, seconds: 0.3, trace, short: true }
}

fn run(args: &Args, tamper: Option<Tamper>) -> Report {
    let mut artifacts = match tamper {
        Some(t) => Artifacts::default().with_tamper(t),
        None => Artifacts::default(),
    };
    perfbench::run(args, &mut artifacts).unwrap_or_else(|e| panic!("{}: {e}", args.workload))
}

/// The result line's metrics as `(name, unit)`, and its `correct` flag.
fn emitted(report: &Report, trace: bool) -> (Vec<(String, String)>, bool) {
    let line = report.render(trace).expect("every metric measured");
    let value = json::parse(&line).expect("result line is JSON");
    let Some(Value::Obj(metrics)) = value.get("metrics") else {
        panic!("no metrics: {line}")
    };
    let pairs = metrics
        .iter()
        .map(|(name, m)| (name.clone(), m.get("unit").and_then(Value::as_str).unwrap().to_string()))
        .collect();
    (pairs, value.get("correct").and_then(Value::as_bool).expect("correct flag"))
}

#[test]
fn short_mode_of_every_workload_emits_every_metric_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, defs) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run(&short(workload, trace), None);
            let (pairs, correct) = emitted(&report, trace);
            let expected: Vec<(String, String)> =
                defs.iter().map(|(n, u, _)| (n.to_string(), u.to_string())).collect();
            assert_eq!(pairs, expected, "{workload} trace={trace}");
            assert!(
                correct,
                "{workload} trace={trace}: {} of {} failed",
                report.failed, report.attempted
            );
            if trace {
                assert_eq!(report.get("replay.failures"), Some(0.0), "{workload}");
                assert!(
                    report.get("ptgraph.run.runs").unwrap() > 0.0,
                    "{workload}: replay ran nothing"
                );
            }
        }
    }
}

#[test]
fn flipped_verdicts_are_counted_as_failures() {
    for workload in ["sweep-deep", "sweep-catalog", "cluster-sweep", "serve-mixed"] {
        let report = run(&short(workload, false), Some(Tamper::FlipVerdict));
        assert!(report.failed >= 1, "{workload}: a flipped verdict was accepted");
        let (_, correct) = emitted(&report, false);
        assert!(!correct, "{workload}: run reported correct despite a wrong answer");
    }
}

#[test]
fn tampered_certificates_are_rejected_by_verify() {
    let session = Session::new();
    for name in ["cgp-reduced-lossy-link", "message-loss-2-2"] {
        let query = Query::catalog(name, 3, AnalysisKind::Solvability).with_certificate();
        let record = session.check(&query).expect("catalog check");
        let genuine = record.to_json().to_string();
        let mut checker = ReplyChecker::default();
        checker
            .check(&query, 200, &genuine, &stripped(&record))
            .expect("genuine reply passes");

        let mut replies = vec![(query.clone(), 200, genuine)];
        let mut artifacts = Artifacts::default().with_tamper(Tamper::Certificate);
        artifacts.tamper_replies(&mut replies);
        let tampered = &replies[0].2;
        // Against the genuine answer the reply differs; against its own
        // (tampered) record only `certificate::verify` stands in the way.
        assert!(checker.check(&query, 200, tampered, &stripped(&record)).is_err(), "{name}");
        let self_reference = json::parse(tampered)
            .unwrap()
            .without_keys(consensus_lab::store::TIMING_FIELDS)
            .to_string();
        let fault = checker.check(&query, 200, tampered, &self_reference).unwrap_err();
        assert!(fault.contains("certificate rejected"), "{name}: {fault}");
    }
}

#[test]
fn catalogue_matches_benchmark_json() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let spec = json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> Vec<(String, String, String)> {
        let Some(Value::Arr(items)) = spec.get(key) else {
            panic!("{key} missing")
        };
        items
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let ours = |defs: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect()
    };
    assert_eq!(names("end_to_end"), ours(END_TO_END));
    assert_eq!(names("per_layer"), ours(PER_LAYER));
    let Some(Value::Arr(workloads)) = spec.get("workloads") else {
        panic!("workloads missing")
    };
    let listed: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).unwrap())
        .collect();
    assert_eq!(listed, WORKLOADS);
}
