//! Exhaustive consensus verification over an adversary's prefix space.
//!
//! [`check`] runs an algorithm on **every** admissible run of a message
//! adversary at a fixed depth (per a typed [`CheckConfig`]) and checks the
//! consensus properties of the paper's Definition 5.1:
//!
//! * **Termination** (within the horizon — for compact adversaries where the
//!   universal algorithm decides by a fixed round this is exact; for
//!   non-compact ones undecided runs are reported, not failed, unless
//!   [`CheckConfig::require_termination`] is set);
//! * **Agreement** — all decided processes agree;
//! * **Validity** — if all inputs are `v`, the only decision is `v`;
//! * **Irrevocability** — decisions never change.

use std::fmt;

use adversary::{enumerate, MessageAdversary};
use dyngraph::GraphSeq;
use ptgraph::{all_inputs, Value};

use crate::{engine, Algorithm};

/// A consensus property violation, with the offending run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two processes decided differently.
    Agreement {
        /// The inputs of the offending run.
        inputs: Vec<Value>,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
        /// The distinct decided values observed.
        values: Vec<Value>,
    },
    /// All processes started with `expected` but some process decided
    /// `decided`.
    Validity {
        /// The common input value.
        expected: Value,
        /// The offending decision.
        decided: Value,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
    },
    /// A process changed or withdrew its decision.
    Irrevocability {
        /// The inputs of the offending run.
        inputs: Vec<Value>,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
    },
    /// Strong validity: a process decided a value that is nobody's input
    /// (only reported when strong-validity checking is requested).
    StrongValidity {
        /// The inputs of the offending run.
        inputs: Vec<Value>,
        /// The offending decision.
        decided: Value,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
    },
    /// A process had not decided by the horizon and termination was
    /// required.
    Termination {
        /// The inputs of the offending run.
        inputs: Vec<Value>,
        /// The graph sequence of the offending run.
        seq: GraphSeq,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Agreement { inputs, seq, values } => {
                write!(f, "agreement violated: x={inputs:?} under {seq} decided {values:?}")
            }
            Violation::Validity { expected, decided, seq } => write!(
                f,
                "validity violated: all inputs {expected} but decided {decided} under {seq}"
            ),
            Violation::Irrevocability { inputs, seq } => {
                write!(f, "irrevocable decision violated: x={inputs:?} under {seq}")
            }
            Violation::StrongValidity { inputs, decided, seq } => write!(
                f,
                "strong validity violated: decided {decided} ∉ inputs {inputs:?} under {seq}"
            ),
            Violation::Termination { inputs, seq } => {
                write!(f, "termination violated: x={inputs:?} under {seq}")
            }
        }
    }
}

/// Typed configuration of an exhaustive consensus check.
///
/// ```
/// use simulator::checker::CheckConfig;
///
/// let cfg = CheckConfig::at_depth(3).strong_validity(true);
/// assert_eq!(cfg.depth, 3);
/// assert!(cfg.require_termination && cfg.strong_validity);
/// assert_eq!(cfg.max_runs, 2_000_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckConfig {
    /// The horizon: every admissible depth-`depth` run is executed.
    pub depth: usize,
    /// Budget on `inputs × sequences`.
    pub max_runs: usize,
    /// Fail runs in which some process has not decided by the horizon
    /// (exact for compact adversaries; report-only otherwise).
    pub require_termination: bool,
    /// Additionally require *strong validity*: every decided value is some
    /// process's input in the run.
    pub strong_validity: bool,
}

impl CheckConfig {
    /// A check at `depth` with the default 2·10⁶-run budget, required
    /// termination, and weak validity.
    pub fn at_depth(depth: usize) -> Self {
        CheckConfig {
            depth,
            max_runs: 2_000_000,
            require_termination: true,
            strong_validity: false,
        }
    }

    /// Set the run budget.
    pub fn max_runs(mut self, max_runs: usize) -> Self {
        self.max_runs = max_runs;
        self
    }

    /// Require (or stop requiring) termination within the horizon.
    pub fn require_termination(mut self, enable: bool) -> Self {
        self.require_termination = enable;
        self
    }

    /// Additionally check strong validity.
    pub fn strong_validity(mut self, enable: bool) -> Self {
        self.strong_validity = enable;
        self
    }
}

/// Summary of an exhaustive check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckReport {
    /// Total `(inputs, sequence)` pairs executed.
    pub runs_checked: usize,
    /// Runs in which some process had not decided by the horizon.
    pub undecided_runs: usize,
    /// Latest decision round observed across all runs and processes.
    pub max_decision_round: usize,
    /// All violations found (empty = the algorithm passed).
    pub violations: Vec<Violation>,
}

impl CheckReport {
    /// Whether no violation was found.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Exhaustively check `alg` against every admissible run of `ma` over the
/// input domain `values`, per `cfg` (depth, budget, validity flavor) —
/// the typed entry point of the checker.
///
/// ```
/// use simulator::algorithms::FloodMin;
/// use simulator::checker::{check, CheckConfig};
/// use adversary::GeneralMA;
/// use dyngraph::Digraph;
///
/// // Full exchange every round: flooding decides min correctly.
/// let ma = GeneralMA::oblivious(vec![Digraph::parse2("<->").unwrap()]);
/// let report = check(&FloodMin::new(1), &ma, &[0, 1], &CheckConfig::at_depth(1)).unwrap();
/// assert!(report.passed());
/// ```
///
/// # Errors
/// Returns [`enumerate::BudgetExceeded`] if the prefix space exceeds
/// `cfg.max_runs`.
pub fn check<A: Algorithm>(
    alg: &A,
    ma: &dyn MessageAdversary,
    values: &[Value],
    cfg: &CheckConfig,
) -> Result<CheckReport, enumerate::BudgetExceeded> {
    let seqs = {
        // Reuse the enumeration (budget applies to inputs × sequences).
        let inputs_count = values.len().pow(ma.n() as u32);
        let seqs = enumerate::admissible_sequences(ma, cfg.depth);
        if seqs.len() * inputs_count > cfg.max_runs {
            return Err(enumerate::BudgetExceeded {
                max_runs: cfg.max_runs,
                needed: seqs.len() * inputs_count,
            });
        }
        seqs
    };
    let inputs = all_inputs(ma.n(), values);
    let mut report = CheckReport {
        runs_checked: 0,
        undecided_runs: 0,
        max_decision_round: 0,
        violations: Vec::new(),
    };
    for x in &inputs {
        for seq in &seqs {
            check_one_run(alg, x, seq, cfg.require_termination, cfg.strong_validity, &mut report);
        }
    }
    Ok(report)
}

/// Parallel variant of [`check`]: the `(inputs, sequence)` grid is split
/// across `threads` scoped workers. Requires the algorithm to be [`Sync`]
/// (the synthesized universal algorithm is: its interner sits behind a
/// lock). The report is deterministic up to violation order (violations
/// are sorted for stability).
///
/// # Errors
/// Returns [`enumerate::BudgetExceeded`] as for [`check`].
pub fn check_parallel<A>(
    alg: &A,
    ma: &(dyn MessageAdversary + Sync),
    values: &[Value],
    cfg: &CheckConfig,
    threads: usize,
) -> Result<CheckReport, enumerate::BudgetExceeded>
where
    A: Algorithm + Sync,
{
    assert!(threads >= 1, "need at least one worker");
    let (require_termination, strong_validity) = (cfg.require_termination, cfg.strong_validity);
    let seqs = {
        let inputs_count = values.len().pow(ma.n() as u32);
        let seqs = enumerate::admissible_sequences(ma, cfg.depth);
        if seqs.len() * inputs_count > cfg.max_runs {
            return Err(enumerate::BudgetExceeded {
                max_runs: cfg.max_runs,
                needed: seqs.len() * inputs_count,
            });
        }
        seqs
    };
    let inputs = all_inputs(ma.n(), values);
    let grid: Vec<(&Vec<Value>, &GraphSeq)> =
        inputs.iter().flat_map(|x| seqs.iter().map(move |s| (x, s))).collect();

    let chunk = grid.len().div_ceil(threads).max(1);
    let partials: Vec<CheckReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = grid
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    let mut report = CheckReport {
                        runs_checked: 0,
                        undecided_runs: 0,
                        max_decision_round: 0,
                        violations: Vec::new(),
                    };
                    for &(x, seq) in part {
                        check_one_run(
                            alg,
                            x,
                            seq,
                            require_termination,
                            strong_validity,
                            &mut report,
                        );
                    }
                    report
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });

    let mut report = CheckReport {
        runs_checked: 0,
        undecided_runs: 0,
        max_decision_round: 0,
        violations: Vec::new(),
    };
    for p in partials {
        report.runs_checked += p.runs_checked;
        report.undecided_runs += p.undecided_runs;
        report.max_decision_round = report.max_decision_round.max(p.max_decision_round);
        report.violations.extend(p.violations);
    }
    report.violations.sort_by_key(|v| format!("{v}"));
    Ok(report)
}

/// Check one `(inputs, sequence)` cell; shared by the sequential and
/// parallel checkers.
fn check_one_run<A: Algorithm>(
    alg: &A,
    x: &[Value],
    seq: &GraphSeq,
    require_termination: bool,
    strong_validity: bool,
    report: &mut CheckReport,
) {
    let valent = x.iter().all(|&v| v == x[0]).then_some(x[0]);
    report.runs_checked += 1;
    let exec = engine::run(alg, x, seq);
    if exec.any_revoked() {
        report
            .violations
            .push(Violation::Irrevocability { inputs: x.to_vec(), seq: seq.clone() });
    }
    if !exec.agreement_holds() {
        let mut vals: Vec<Value> = (0..exec.n()).filter_map(|p| exec.value_of(p)).collect();
        vals.sort_unstable();
        vals.dedup();
        report.violations.push(Violation::Agreement {
            inputs: x.to_vec(),
            seq: seq.clone(),
            values: vals,
        });
    }
    if let Some(v) = valent {
        for p in 0..exec.n() {
            if exec.value_of(p).is_some_and(|d| d != v) {
                report.violations.push(Violation::Validity {
                    expected: v,
                    decided: exec.value_of(p).expect("checked"),
                    seq: seq.clone(),
                });
                break;
            }
        }
    }
    if strong_validity {
        for p in 0..exec.n() {
            if let Some(d) = exec.value_of(p) {
                if !x.contains(&d) {
                    report.violations.push(Violation::StrongValidity {
                        inputs: x.to_vec(),
                        decided: d,
                        seq: seq.clone(),
                    });
                    break;
                }
            }
        }
    }
    if exec.all_decided() {
        for p in 0..exec.n() {
            if let Some((r, _)) = exec.decision_of(p) {
                report.max_decision_round = report.max_decision_round.max(r);
            }
        }
    } else {
        report.undecided_runs += 1;
        if require_termination {
            report
                .violations
                .push(Violation::Termination { inputs: x.to_vec(), seq: seq.clone() });
        }
    }
}

/// Randomized deep-run checking: sample `samples` admissible runs of length
/// `depth` (uniform over extensions at each round, inputs uniform over
/// `values`) and check agreement, validity, and irrevocability. Termination
/// is required when `require_termination` is set.
///
/// Complements [`check`]: exhaustive checking is exact but bounded
/// by the exponential prefix space; sampling probes much deeper horizons.
pub fn check_consensus_sampled<A: Algorithm, R: rand::Rng + ?Sized>(
    alg: &A,
    ma: &dyn MessageAdversary,
    values: &[Value],
    depth: usize,
    samples: usize,
    require_termination: bool,
    rng: &mut R,
) -> CheckReport {
    let mut report = CheckReport {
        runs_checked: 0,
        undecided_runs: 0,
        max_decision_round: 0,
        violations: Vec::new(),
    };
    for _ in 0..samples {
        let seq = match adversary::sample::random_prefix(ma, rng, depth) {
            Some(seq) => seq,
            None => continue,
        };
        let x = adversary::sample::random_inputs(rng, ma.n(), values);
        let valent = x.iter().all(|&v| v == x[0]).then_some(x[0]);
        report.runs_checked += 1;
        let exec = engine::run(alg, &x, &seq);
        if exec.any_revoked() {
            report
                .violations
                .push(Violation::Irrevocability { inputs: x.clone(), seq: seq.clone() });
        }
        if !exec.agreement_holds() {
            let mut vals: Vec<Value> = (0..exec.n()).filter_map(|p| exec.value_of(p)).collect();
            vals.sort_unstable();
            vals.dedup();
            report.violations.push(Violation::Agreement {
                inputs: x.clone(),
                seq: seq.clone(),
                values: vals,
            });
        }
        if let Some(v) = valent {
            for p in 0..exec.n() {
                if exec.value_of(p).is_some_and(|d| d != v) {
                    report.violations.push(Violation::Validity {
                        expected: v,
                        decided: exec.value_of(p).expect("checked above"),
                        seq: seq.clone(),
                    });
                    break;
                }
            }
        }
        if exec.all_decided() {
            for p in 0..exec.n() {
                if let Some((r, _)) = exec.decision_of(p) {
                    report.max_decision_round = report.max_decision_round.max(r);
                }
            }
        } else {
            report.undecided_runs += 1;
            if require_termination {
                report.violations.push(Violation::Termination { inputs: x, seq });
            }
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{DirectionRule, FloodMin};
    use adversary::GeneralMA;
    use dyngraph::generators;
    use rand::SeedableRng;

    #[test]
    fn direction_rule_passes_reduced_lossy_link() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let cfg = CheckConfig::at_depth(3).max_runs(100_000);
        let report = check(&DirectionRule, &ma, &[0, 1], &cfg).unwrap();
        assert!(report.passed(), "violations: {:?}", report.violations);
        assert_eq!(report.undecided_runs, 0);
        assert_eq!(report.max_decision_round, 1);
        assert_eq!(report.runs_checked, 4 * 8);
    }

    #[test]
    fn direction_rule_fails_full_lossy_link() {
        // With ↔ in the pool the direction inference is wrong: both
        // processes receive and decide the other's input.
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let report =
            check(&DirectionRule, &ma, &[0, 1], &CheckConfig::at_depth(2).max_runs(100_000))
                .unwrap();
        assert!(!report.passed());
        assert!(report.violations.iter().any(|v| matches!(v, Violation::Agreement { .. })));
    }

    #[test]
    fn floodmin_fails_lossy_link() {
        // Santoro–Widmayer: no fixed-round flooding works under {←, ↔, →}.
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        for round in 1..4 {
            let cfg = CheckConfig::at_depth(round).max_runs(100_000);
            let report = check(&FloodMin::new(round), &ma, &[0, 1], &cfg).unwrap();
            assert!(!report.passed(), "FloodMin({round}) should fail");
        }
    }

    #[test]
    fn floodmin_passes_all_to_all() {
        let ma = GeneralMA::oblivious(vec![dyngraph::Digraph::complete(3)]);
        let report =
            check(&FloodMin::new(1), &ma, &[0, 1], &CheckConfig::at_depth(2).max_runs(100_000))
                .unwrap();
        assert!(report.passed());
    }

    #[test]
    fn budget_respected() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let err = check(&DirectionRule, &ma, &[0, 1], &CheckConfig::at_depth(10).max_runs(10))
            .unwrap_err();
        assert!(err.needed > 10);
    }

    #[test]
    fn parallel_checker_matches_sequential() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        for alg_round in [1usize, 2] {
            let alg = FloodMin::new(alg_round);
            let cfg = CheckConfig::at_depth(3).max_runs(100_000);
            let seq_report = check(&alg, &ma, &[0, 1], &cfg).unwrap();
            let par_report = check_parallel(&alg, &ma, &[0, 1], &cfg, 4).unwrap();
            assert_eq!(seq_report.runs_checked, par_report.runs_checked);
            assert_eq!(seq_report.undecided_runs, par_report.undecided_runs);
            assert_eq!(seq_report.max_decision_round, par_report.max_decision_round);
            assert_eq!(seq_report.passed(), par_report.passed());
            assert_eq!(seq_report.violations.len(), par_report.violations.len());
        }
    }

    #[test]
    fn parallel_checker_single_thread() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let cfg = CheckConfig::at_depth(3).max_runs(100_000);
        let report = check_parallel(&DirectionRule, &ma, &[0, 1], &cfg, 1).unwrap();
        assert!(report.passed());
        assert_eq!(report.runs_checked, 4 * 8);
    }

    #[test]
    fn sampled_checker_passes_direction_rule() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let report = check_consensus_sampled(&DirectionRule, &ma, &[0, 1], 20, 200, true, &mut rng);
        assert_eq!(report.runs_checked, 200);
        assert!(report.passed(), "violations: {:?}", report.violations);
    }

    #[test]
    fn sampled_checker_catches_floodmin() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let report =
            check_consensus_sampled(&FloodMin::new(2), &ma, &[0, 1], 6, 300, true, &mut rng);
        assert!(!report.passed(), "FloodMin should be caught by sampling");
    }

    #[test]
    fn violation_display() {
        let v = Violation::Agreement {
            inputs: vec![0, 1],
            seq: GraphSeq::parse2("->").unwrap(),
            values: vec![0, 1],
        };
        assert!(v.to_string().contains("agreement"));
    }
}
