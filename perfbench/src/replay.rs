//! The traced replay: a workload's inputs pushed through each layer's
//! public functions one call at a time, every call wrapped in a
//! benchmark-side span, so each layer gets its own count, self time and
//! failures.
//!
//! Each distinct `(adversary, depth)` cell is one operation:
//! `admissible_sequences` → `PrefixRun::compute` (into a fresh
//! `ViewTable`) → `expand` → `expand_with` (2 workers) → `Expansion::clone`
//! and `extend_with` of the depth − 1 expansion (timed apart) →
//! `PrefixSpace::from_expansion` → the workload's analyses → certificate
//! extraction and `certificate::verify`. The replay asserts that the run
//! and view counts of its own materialization equal `expand`'s, and that
//! the sharded and laddered expansions agree with the serial one, so it
//! measures the same work the workload does.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use adversary::enumerate::{self, admissible_sequences, expand, expand_with, BudgetExceeded};
use adversary::{DynMA, MessageAdversary};
use consensus_core::certificate::{self, Certificate};
use consensus_core::solvability::{SolvabilityChecker, SpaceSource, UnsolvableCert, Verdict};
use consensus_core::{analysis, broadcast, fair, PrefixSpace, UniversalAlgorithm};
use consensus_core::{AnalysisConfig, ExpandConfig};
use consensus_lab::runner::SWEEP_VALUES as VALUES;
use consensus_lab::scenario::{AdversarySpec, AnalysisKind};
use ptgraph::{all_inputs, PrefixRun, Value, ViewTable};
use simulator::algorithms::FloodMin;
use simulator::checker::{self, CheckConfig, CheckReport};

use crate::metrics::Report;
use crate::spans::Spans;

/// The run budget every workload runs under (the `Session` default).
pub const BUDGET: usize = 2_000_000;

/// One adversary to replay at depths `1..=max_depth`.
#[derive(Debug, Clone)]
pub struct Target {
    /// The adversary.
    pub spec: AdversarySpec,
    /// Deepest cell replayed.
    pub max_depth: usize,
    /// Analyses run on every cell.
    pub analyses: Vec<AnalysisKind>,
}

/// Work counted by the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Admissible sequences enumerated.
    pub seqs: usize,
    /// Runs materialized.
    pub runs: usize,
    /// Views interned.
    pub views: usize,
    /// ε-approximation components found.
    pub components: usize,
    /// Certificates `certificate::verify` rejected.
    pub rejected: usize,
}

/// Spaces the replay built, served to the solvability checker so its
/// depth sweep analyses them instead of expanding again.
#[derive(Default)]
struct ReplaySpaces(Mutex<HashMap<usize, Arc<PrefixSpace>>>);

impl ReplaySpaces {
    fn get(&self, depth: usize) -> Option<Arc<PrefixSpace>> {
        self.0.lock().expect("replay space map poisoned").get(&depth).cloned()
    }

    fn insert(&self, depth: usize, space: Arc<PrefixSpace>) {
        self.0.lock().expect("replay space map poisoned").insert(depth, space);
    }
}

impl SpaceSource for ReplaySpaces {
    fn space(
        &self,
        ma: &dyn MessageAdversary,
        values: &[Value],
        depth: usize,
        max_runs: usize,
    ) -> Result<Arc<PrefixSpace>, BudgetExceeded> {
        if let Some(space) = self.get(depth) {
            return Ok(space);
        }
        // Only depth 0 (which the replay does not build) lands here.
        let cfg = ExpandConfig::with_budget(max_runs);
        let space = Arc::new(PrefixSpace::expand_budgeted(ma, values, depth, &cfg)?);
        self.insert(depth, Arc::clone(&space));
        Ok(space)
    }
}

/// Merge targets that denote one adversary (catalog aliases share a
/// fingerprint), so each distinct cell is replayed once.
fn distinct(targets: &[Target]) -> Result<Vec<(Target, DynMA)>, String> {
    let mut out: Vec<(Target, DynMA)> = Vec::new();
    let mut index: HashMap<u64, usize> = HashMap::new();
    for target in targets {
        let ma = target.spec.build().map_err(|e| format!("{}: {e}", target.spec.label()))?;
        match index.get(&ma.fingerprint()) {
            Some(&i) => {
                let merged = &mut out[i].0;
                merged.max_depth = merged.max_depth.max(target.max_depth);
                for a in &target.analyses {
                    if !merged.analyses.contains(a) {
                        merged.analyses.push(*a);
                    }
                }
            }
            None => {
                index.insert(ma.fingerprint(), out.len());
                out.push((target.clone(), ma));
            }
        }
    }
    Ok(out)
}

/// Replay `targets` through every layer, recording spans into `spans`.
///
/// # Errors
/// A message when an adversary cannot be built or a cell exceeds the
/// budget — workloads are chosen so neither happens.
pub fn replay(targets: &[Target], spans: &mut Spans) -> Result<Counts, String> {
    let mut counts = Counts::default();
    for (target, ma) in distinct(targets)? {
        replay_one(&target, ma.as_ref(), spans, &mut counts)?;
    }
    Ok(counts)
}

fn replay_one(
    target: &Target,
    ma: &dyn MessageAdversary,
    spans: &mut Spans,
    counts: &mut Counts,
) -> Result<(), String> {
    let label = target.spec.label();
    let fingerprint = ma.fingerprint();
    let n = ma.n();
    let inputs = all_inputs(n, VALUES);
    let source = ReplaySpaces::default();
    let mut prev: Option<enumerate::Expansion> = None;
    for depth in 1..=target.max_depth {
        spans.begin_op();
        let root = spans.enter("replay.cell");
        let seqs = spans.time("adversary.arena", || admissible_sequences(ma, depth), |_| true);

        let run_span = spans.enter("ptgraph.run");
        let mut table = ViewTable::new(n);
        let mut runs = Vec::with_capacity(inputs.len() * seqs.len());
        for x in &inputs {
            for seq in &seqs {
                runs.push(PrefixRun::compute(x.clone(), seq, &mut table));
            }
        }
        spans.exit(run_span, true);
        let (run_count, view_count) = (std::hint::black_box(runs).len(), table.len());
        counts.seqs += seqs.len();
        counts.runs += run_count;
        counts.views += view_count;
        drop((seqs, table));

        let serial = spans.time(
            "adversary.enumerate.expand",
            || expand(ma, VALUES, depth, BUDGET),
            |r| {
                r.as_ref()
                    .is_ok_and(|e| e.runs.len() == run_count && e.table.len() == view_count)
            },
        );
        let serial = serial.map_err(|e| format!("{label}@{depth}: {e}"))?;
        let parallel = spans.time(
            "adversary.enumerate.expand_parallel",
            || expand_with(ma, VALUES, depth, BUDGET, 2),
            |r| r.as_ref().is_ok_and(|p| p.runs == serial.runs && p.table == serial.table),
        );
        if let Some(base) = prev.take() {
            let mut laddered = spans.time("adversary.enumerate.clone", || base.clone(), |_| true);
            let ladder = spans.enter("adversary.enumerate.ladder");
            let extended = laddered.extend_with(ma, BUDGET, 1);
            spans.exit(ladder, true);
            let agrees = extended.is_ok()
                && laddered.runs.len() == serial.runs.len()
                && laddered.table.len() == serial.table.len();
            if !agrees {
                spans.fail(ladder);
            }
        }
        prev = parallel.ok();

        let space = Arc::new(spans.time(
            "core.space.components",
            || PrefixSpace::from_expansion(serial),
            |_| true,
        ));
        counts.components += space.components().count();
        source.insert(depth, Arc::clone(&space));

        for &kind in &target.analyses {
            match kind {
                AnalysisKind::Solvability => {
                    let spec_ma = target.spec.build().map_err(|e| e.to_string())?;
                    let checker = SolvabilityChecker::with_config(
                        spec_ma,
                        AnalysisConfig::default().max_depth(depth),
                        ExpandConfig::with_budget(BUDGET),
                    );
                    let verdict = spans.time(
                        "core.analysis.solvability",
                        || checker.check_via(&source),
                        |_| true,
                    );
                    let extractable =
                        matches!(verdict, Verdict::Solvable(_) | Verdict::Unsolvable(_));
                    if extractable {
                        let cert = spans.time(
                            "core.certificate.extract",
                            || extract(&verdict, &source, &label, fingerprint, n),
                            Option::is_some,
                        );
                        if let Some(cert) = cert {
                            let verified = spans.time(
                                "core.certificate.verify",
                                || certificate::verify(&cert, ma),
                                Result::is_ok,
                            );
                            counts.rejected += usize::from(verified.is_err());
                        }
                    }
                }
                AnalysisKind::Bivalence => {
                    spans.time(
                        "core.analysis.bivalence",
                        || {
                            let separated = space.separation().is_separated();
                            (!separated).then(|| fair::valence_chain(&space, VALUES[0], VALUES[1]))
                        },
                        |_| true,
                    );
                }
                AnalysisKind::Broadcastability => {
                    spans.time(
                        "core.analysis.broadcastability",
                        || broadcast::broadcast_report(&space),
                        |_| true,
                    );
                }
                AnalysisKind::ComponentStats => {
                    spans.time(
                        "core.analysis.component-stats",
                        || analysis::report(&space),
                        |_| true,
                    );
                }
                AnalysisKind::SimCheck => {
                    let _report = spans.time(
                        "simulator.checker.sim-check",
                        || sim_check(&space, ma, depth),
                        Result::is_ok,
                    );
                }
            }
        }
        spans.exit(root, true);
    }
    Ok(())
}

/// The certificate the lab extracts beside a definitive verdict.
fn extract(
    verdict: &Verdict,
    source: &ReplaySpaces,
    label: &str,
    fingerprint: u64,
    n: usize,
) -> Option<Certificate> {
    match verdict {
        Verdict::Solvable(cert) => source
            .get(cert.depth)
            .and_then(|space| Certificate::from_solvable(cert, &space, label, fingerprint)),
        Verdict::Unsolvable(UnsolvableCert::ZeroChain(chain)) => {
            Certificate::from_unsolvable(chain, label, fingerprint, n, VALUES)
        }
        Verdict::Undecided(_) => None,
    }
}

/// The lab's sim-check: the universal algorithm on a separated space,
/// FloodMin's obstruction on a mixed one.
fn sim_check(
    space: &PrefixSpace,
    ma: &dyn MessageAdversary,
    depth: usize,
) -> Result<CheckReport, String> {
    let cfg = CheckConfig::at_depth(depth).max_runs(BUDGET);
    if space.separation().is_separated() {
        let alg = UniversalAlgorithm::synthesize(space).ok_or("separated space must synthesize")?;
        checker::check(&alg, ma, VALUES, &cfg).map_err(|e| e.to_string())
    } else {
        checker::check(&FloodMin::new(depth), ma, VALUES, &cfg).map_err(|e| e.to_string())
    }
}

/// Report the replay's per-layer metrics from its spans and counts.
pub fn report(spans: &Spans, counts: &Counts, r: &mut Report) {
    let totals = spans.totals();
    let self_ns = |name: &str| totals.get(name).map_or(0, |t| t.self_ns) as f64;
    let ms = |name: &str| self_ns(name) / 1e6;
    let per_call_us = |name: &str| {
        totals.get(name).map_or(0.0, |t| {
            if t.count == 0 {
                0.0
            } else {
                t.self_ns as f64 / 1e3 / t.count as f64
            }
        })
    };
    r.set("adversary.arena.seqs", counts.seqs as f64);
    r.set("adversary.arena.ms", ms("adversary.arena"));
    r.set("ptgraph.run.runs", counts.runs as f64);
    r.set("ptgraph.view.views", counts.views as f64);
    r.set("ptgraph.run.ms", ms("ptgraph.run"));
    r.set("ptgraph.run.ns_per_run", self_ns("ptgraph.run") / counts.runs.max(1) as f64);
    r.set("adversary.enumerate.expand_ms", ms("adversary.enumerate.expand"));
    r.set("adversary.enumerate.expand_parallel_ms", ms("adversary.enumerate.expand_parallel"));
    r.set(
        "adversary.enumerate.speedup_parallel",
        ms("adversary.enumerate.expand") / ms("adversary.enumerate.expand_parallel").max(1e-9),
    );
    r.set("adversary.enumerate.ladder_ms", ms("adversary.enumerate.ladder"));
    r.set("adversary.enumerate.clone_ms", ms("adversary.enumerate.clone"));
    r.set("core.space.components_ms", ms("core.space.components"));
    r.set("core.space.components", counts.components as f64);
    for kind in ["solvability", "bivalence", "broadcastability", "component-stats"] {
        r.set(&format!("core.analysis.{kind}_ms"), ms(&format!("core.analysis.{kind}")));
    }
    r.set("simulator.checker.sim-check_ms", ms("simulator.checker.sim-check"));
    r.set("core.certificate.extract_us", per_call_us("core.certificate.extract"));
    r.set("core.certificate.verify_us", per_call_us("core.certificate.verify"));
    r.set("core.certificate.rejected", counts.rejected as f64);
    r.set("replay.spans", spans.spans().len() as f64);
    r.set("replay.failures", totals.values().map(|t| t.failures).sum::<usize>() as f64);

    // Shares of one pass's work: expansion is sequence enumeration plus
    // run materialization (what `expand` does once per cell); the
    // replay's extra `expand`/`expand_with`/ladder calls are comparisons,
    // not part of the workload's own pass.
    let expansion = ms("adversary.arena") + ms("ptgraph.run");
    let rest: f64 = [
        "core.space.components",
        "core.analysis.solvability",
        "core.analysis.bivalence",
        "core.analysis.broadcastability",
        "core.analysis.component-stats",
        "simulator.checker.sim-check",
        "core.certificate.extract",
        "core.certificate.verify",
    ]
    .iter()
    .map(|name| ms(name))
    .sum();
    let whole = (expansion + rest).max(1e-9);
    r.set("replay.share.expansion", expansion / whole);
    r.set("replay.share.component-stats", ms("core.analysis.component-stats") / whole);
}
