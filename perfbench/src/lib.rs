//! The repository benchmark: four workloads that split the solvability
//! pipeline layer by layer. See `perfbench/README.md` for the workloads,
//! every metric, and which layer metric should move which end-to-end one.
//!
//! A run with `trace = false` measures the end-to-end metrics with the
//! program's tracer off; a run with `trace = true` repeats the workload
//! with the `obs` tracer on for alternate passes and then replays the
//! workload's inputs through each layer's public functions under
//! benchmark-side spans (see [`replay`]).

use std::path::PathBuf;

use consensus_lab::json::{self, Value};
use consensus_lab::session::Query;
use consensus_lab::store::ScenarioRecord;

pub mod check;
pub mod cluster;
pub mod lab_report;
pub mod metrics;
pub mod obs_harvest;
pub mod replay;
pub mod rng;
pub mod serve;
pub mod spans;
pub mod stats;
pub mod sweep;

use metrics::Report;
use obs_harvest::ObsHarvest;
use spans::Spans;

/// Every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["sweep-deep", "sweep-catalog", "serve-mixed", "cluster-sweep"];

/// One run's knobs.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name (one of [`WORKLOADS`]).
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Small grids and windows, for the self-tests.
    pub short: bool,
}

/// A deliberate corruption of answers before they are checked: the
/// self-tests use it to prove wrong answers are counted, not accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tamper {
    /// Flip one definitive verdict.
    FlipVerdict,
    /// Alter one returned certificate.
    Certificate,
}

/// Run-scoped outputs and hooks: span files, fault messages, tampering.
#[derive(Debug, Default)]
pub struct Artifacts {
    /// Where span files go (`None` writes nothing).
    pub out_dir: Option<PathBuf>,
    /// File-name stem of this run's span files.
    pub stem: String,
    tamper: Option<Tamper>,
    tampered: bool,
    /// The first few fault messages, for the log.
    pub faults: Vec<String>,
}

/// The verdict a flipped answer reports instead of `verdict`.
fn flipped(verdict: &str) -> Option<&'static str> {
    Some(match verdict {
        "solvable" => "unsolvable",
        "unsolvable" => "solvable",
        "separated" => "mixed",
        "mixed" => "separated",
        "passed" => "failed",
        "failed" => "passed",
        "broadcastable" => "obstructed",
        "obstructed" => "broadcastable",
        "undecided" => "solvable",
        _ => return None,
    })
}

impl Artifacts {
    /// Artifacts writing span files named `<stem>-*.jsonl` into `out_dir`.
    pub fn new(out_dir: Option<PathBuf>, stem: String) -> Self {
        Artifacts { out_dir, stem, ..Artifacts::default() }
    }

    /// Corrupt one answer with `tamper` before it is checked.
    #[must_use]
    pub fn with_tamper(mut self, tamper: Tamper) -> Self {
        self.tamper = Some(tamper);
        self
    }

    /// Apply [`Tamper::FlipVerdict`] to the first record it can flip.
    pub fn tamper(&mut self, records: &mut [ScenarioRecord]) {
        if self.tamper != Some(Tamper::FlipVerdict) || self.tampered {
            return;
        }
        if let Some(record) = records.iter_mut().find(|r| flipped(&r.outcome.verdict).is_some()) {
            record.outcome.verdict = flipped(&record.outcome.verdict).expect("checked").into();
            self.tampered = true;
        }
    }

    /// Apply the configured corruption to the first raw `/v1/check` reply
    /// it fits.
    pub fn tamper_replies(&mut self, replies: &mut [(Query, u16, String)]) {
        let Some(kind) = self.tamper.filter(|_| !self.tampered) else {
            return;
        };
        for (_, _, body) in replies.iter_mut() {
            let Ok(mut record) = json::parse(body) else {
                continue;
            };
            let changed = match (kind, &mut record) {
                (Tamper::FlipVerdict, record) => flip_verdict(record),
                (Tamper::Certificate, Value::Obj(fields)) => fields
                    .iter_mut()
                    .find(|(k, v)| k == "certificate" && *v != Value::Null)
                    .is_some_and(|(_, cert)| tamper_certificate(cert)),
                _ => false,
            };
            if changed {
                *body = record.to_string();
                self.tampered = true;
                return;
            }
        }
    }

    /// Keep the first few fault messages.
    pub fn note_faults(&mut self, faults: &[String]) {
        let room = 20usize.saturating_sub(self.faults.len());
        self.faults.extend(faults.iter().take(room).cloned());
    }

    /// Write the replay's spans and the harvested program spans.
    pub fn save_spans(&self, spans: &Spans, harvest: &ObsHarvest) {
        let Some(dir) = &self.out_dir else { return };
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| spans.write_jsonl(&dir.join(format!("{}-spans.jsonl", self.stem))))
            .and_then(|()| harvest.write_jsonl(&dir.join(format!("{}-obs.jsonl", self.stem))));
        if let Err(e) = written {
            eprintln!("perfbench: could not write span files to {}: {e}", dir.display());
        }
    }
}

/// Flip the `verdict` field of a record's JSON.
fn flip_verdict(record: &mut Value) -> bool {
    let Value::Obj(fields) = record else {
        return false;
    };
    for (key, value) in fields.iter_mut() {
        if let (true, Value::Str(v)) = (key == "verdict", &*value) {
            if let Some(f) = flipped(v) {
                *value = Value::Str(f.into());
                return true;
            }
        }
    }
    false
}

/// Corrupt a certificate's evidence: flip every decision of a solvable
/// one, drop the last chain run of an unsolvable one.
fn tamper_certificate(cert: &mut Value) -> bool {
    let Value::Obj(fields) = cert else {
        return false;
    };
    for (key, value) in fields.iter_mut() {
        match (key.as_str(), value) {
            ("decisions", Value::Arr(entries)) if !entries.is_empty() => {
                for entry in entries.iter_mut() {
                    if let Value::Obj(entry) = entry {
                        for (k, v) in entry.iter_mut() {
                            if let ("value", Value::Int(x)) = (k.as_str(), v) {
                                *x ^= 1;
                            }
                        }
                    }
                }
                return true;
            }
            ("runs", Value::Arr(runs)) if runs.len() > 1 => {
                runs.pop();
                return true;
            }
            _ => {}
        }
    }
    false
}

/// Run one workload.
///
/// # Errors
/// A message when the workload cannot run at all (unknown name, a server
/// that cannot bind, a replay that cannot build its inputs).
pub fn run(args: &Args, artifacts: &mut Artifacts) -> Result<Report, String> {
    match args.workload.as_str() {
        "sweep-deep" => sweep::run(args, &sweep::Shape::deep(args.short), artifacts),
        "sweep-catalog" => sweep::run(args, &sweep::Shape::catalog(args.short), artifacts),
        "serve-mixed" => serve::run(args, artifacts),
        "cluster-sweep" => cluster::run(args, artifacts),
        other => Err(format!("unknown workload {other:?}; expected one of {WORKLOADS:?}")),
    }
}
