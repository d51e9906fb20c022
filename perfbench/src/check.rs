//! Answer checks. Every workload counts each wrong answer as a failed
//! operation, so a fast but wrong program cannot pass.

use std::collections::HashMap;

use consensus_core::Certificate;
use consensus_lab::json::{self, Value};
use consensus_lab::runner::solvability_matches;
use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{verify_certificate, Query};
use consensus_lab::store::{ScenarioRecord, TIMING_FIELDS};

/// A record's JSON without its timing fields: two correct answers to one
/// query are byte-identical under this form.
pub fn stripped(record: &ScenarioRecord) -> String {
    record.to_json().without_keys(TIMING_FIELDS).to_string()
}

/// Why `record` is wrong on its own: an error or budget verdict, or a
/// solvability verdict that contradicts the catalog's ground truth
/// (re-derived from the verdict, not read from the record's own flag).
pub fn record_fault(record: &ScenarioRecord) -> Option<String> {
    let verdict = record.outcome.verdict.as_str();
    if matches!(verdict, "error" | "budget-exceeded") || record.budget_hit {
        return Some(format!("{}@{}: verdict {verdict}", record.adversary, record.depth));
    }
    if record.analysis == AnalysisKind::Solvability {
        if let Some(expected) = record.expected {
            if solvability_matches(expected, &record.outcome, record.budget_hit) == Some(false) {
                return Some(format!(
                    "{}@{}: verdict {verdict} contradicts the catalog",
                    record.adversary, record.depth
                ));
            }
        }
    }
    None
}

/// Checks successive result sets of one grid: each record on its own, and
/// byte-identity (modulo timing) against a reference set — the first
/// pass, unless one is given.
#[derive(Debug, Default)]
pub struct PassChecker {
    reference: Option<Vec<String>>,
}

impl PassChecker {
    /// A checker comparing against known-good records.
    pub fn with_reference(records: &[ScenarioRecord]) -> Self {
        PassChecker { reference: Some(records.iter().map(stripped).collect()) }
    }

    /// One message per wrong record of this pass (a length mismatch fails
    /// every expected record).
    pub fn check(&mut self, records: &[ScenarioRecord]) -> Vec<String> {
        let current: Vec<String> = records.iter().map(stripped).collect();
        let mut faults: Vec<String> = records.iter().filter_map(record_fault).collect();
        match &self.reference {
            None => self.reference = Some(current),
            Some(reference) if reference.len() != current.len() => {
                faults = vec![format!("{} records, expected {}", current.len(), reference.len())];
                faults.resize(reference.len().max(1), "missing record".into());
            }
            Some(reference) => {
                for (i, (a, b)) in reference.iter().zip(&current).enumerate() {
                    if a != b && record_fault(&records[i]).is_none() {
                        faults.push(format!("record {i} differs from the reference: {b}"));
                    }
                }
            }
        }
        faults
    }
}

/// Checks `/v1/check` replies against in-process answers and verifies
/// every certificate they carry (each distinct certificate once).
#[derive(Debug, Default)]
pub struct ReplyChecker {
    verified: HashMap<String, bool>,
}

impl ReplyChecker {
    /// `Ok` when the reply is a 200 whose record equals `reference` (the
    /// stripped in-process record for `query`) and whose certificate, if
    /// any, passes `certificate::verify`.
    ///
    /// # Errors
    /// A message naming the first fault.
    pub fn check(
        &mut self,
        query: &Query,
        status: u16,
        body: &str,
        reference: &str,
    ) -> Result<(), String> {
        if status != 200 {
            return Err(format!("{}: status {status}: {body}", query.label()));
        }
        let value = json::parse(body).map_err(|e| format!("{}: bad JSON: {e}", query.label()))?;
        if value.without_keys(TIMING_FIELDS).to_string() != reference {
            return Err(format!("{}: reply differs from Session::check: {body}", query.label()));
        }
        match value.get("certificate") {
            None | Some(Value::Null) => Ok(()),
            Some(cert) => self.verify(query, cert),
        }
    }

    fn verify(&mut self, query: &Query, cert: &Value) -> Result<(), String> {
        let key = format!("{}\u{0}{cert}", query.label());
        let ok = *self.verified.entry(key).or_insert_with(|| {
            Certificate::from_json(cert).is_ok_and(|c| verify_certificate(&c, query).is_ok())
        });
        if ok {
            Ok(())
        } else {
            Err(format!("{}: certificate rejected by certificate::verify", query.label()))
        }
    }
}
