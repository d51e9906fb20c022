//! The metric catalogue and the one-line JSON result.
//!
//! `END_TO_END` and `PER_LAYER` mirror `BENCHMARK.json` entry for entry
//! (name, unit, direction); a self-test keeps the two in step.

use std::collections::BTreeMap;

/// `(name, unit, better)` of one metric.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// Metrics a user of the system sees, measured with tracing off.
pub const END_TO_END: &[MetricDef] = &[
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p90_ms", "ms", "lower"),
    ("cold_latency_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
];

/// Program spans harvested from the `obs` tracer in the traced run; each
/// is reported as `obs.span.<name>_ms` (summed span duration).
pub const OBS_SPANS: &[&str] = &[
    "sweep",
    "expand",
    "shard",
    "absorb",
    "components",
    "cache.lookup",
    "analysis.solvability",
    "analysis.bivalence",
    "analysis.broadcastability",
    "analysis.component-stats",
    "analysis.sim-check",
    "cert.extract",
    "cert.verify",
    "http.request",
    "cluster.sweep",
    "cluster.shard",
    "cluster.spotcheck",
];

/// Metrics of single layers, from the traced run.
pub const PER_LAYER: &[MetricDef] = &[
    ("error_rate", "ratio", "lower"),
    ("adversary.arena.seqs", "count", "lower"),
    ("adversary.arena.ms", "ms", "lower"),
    ("ptgraph.run.runs", "count", "lower"),
    ("ptgraph.view.views", "count", "lower"),
    ("ptgraph.run.ms", "ms", "lower"),
    ("ptgraph.run.ns_per_run", "ns", "lower"),
    ("adversary.enumerate.expand_ms", "ms", "lower"),
    ("adversary.enumerate.expand_parallel_ms", "ms", "lower"),
    ("adversary.enumerate.speedup_parallel", "x", "higher"),
    ("adversary.enumerate.ladder_ms", "ms", "lower"),
    ("adversary.enumerate.clone_ms", "ms", "lower"),
    ("core.space.components_ms", "ms", "lower"),
    ("core.space.components", "count", "lower"),
    ("core.analysis.solvability_ms", "ms", "lower"),
    ("core.analysis.bivalence_ms", "ms", "lower"),
    ("core.analysis.broadcastability_ms", "ms", "lower"),
    ("core.analysis.component-stats_ms", "ms", "lower"),
    ("simulator.checker.sim-check_ms", "ms", "lower"),
    ("core.certificate.extract_us", "us", "lower"),
    ("core.certificate.verify_us", "us", "lower"),
    ("core.certificate.rejected", "count", "lower"),
    ("lab.cache.lookups", "count", "lower"),
    ("lab.cache.hits", "count", "higher"),
    ("lab.cache.builds", "count", "lower"),
    ("lab.cache.builds_spread", "count", "lower"),
    ("lab.cache.ladder_hits", "count", "lower"),
    ("lab.cache.ladder_hits_spread", "count", "lower"),
    ("lab.cache.duplicate_builds", "count", "lower"),
    ("lab.cache.duplicate_builds_spread", "count", "lower"),
    ("lab.cache.hit_ratio", "ratio", "higher"),
    ("lab.session.check_ms", "ms", "lower"),
    ("lab.store.encode_ms", "ms", "lower"),
    ("lab.store.bytes", "bytes", "lower"),
    ("json.parse_us", "us", "lower"),
    ("json.encode_us", "us", "lower"),
    ("serve.api.handle_ms", "ms", "lower"),
    ("serve.http.overhead_ms", "ms", "lower"),
    ("serve.client.reconnects", "count", "lower"),
    ("serve.client.timeouts", "count", "lower"),
    ("serve.cold_requests", "count", "higher"),
    ("serve.cold_expansions", "count", "lower"),
    ("serve.warm_expansions", "count", "lower"),
    ("serve.rss_growth_mb", "MiB", "lower"),
    ("cluster.coordinator.dispatches", "count", "lower"),
    ("cluster.coordinator.retries", "count", "lower"),
    ("cluster.coordinator.rebalances", "count", "lower"),
    ("cluster.ms", "ms", "lower"),
    ("cluster.serial_ms", "ms", "lower"),
    ("cluster.overhead_ratio", "x", "lower"),
    ("cluster.spotcheck.audits", "count", "higher"),
    ("cluster.spotcheck.failures", "count", "lower"),
    ("cluster.spotcheck.ms", "ms", "lower"),
    ("obs.trace_overhead_ratio", "x", "lower"),
    ("obs.spans", "count", "lower"),
    ("obs.dropped", "count", "lower"),
    ("obs.span.sweep_ms", "ms", "lower"),
    ("obs.span.expand_ms", "ms", "lower"),
    ("obs.span.shard_ms", "ms", "lower"),
    ("obs.span.absorb_ms", "ms", "lower"),
    ("obs.span.components_ms", "ms", "lower"),
    ("obs.span.cache.lookup_ms", "ms", "lower"),
    ("obs.span.analysis.solvability_ms", "ms", "lower"),
    ("obs.span.analysis.bivalence_ms", "ms", "lower"),
    ("obs.span.analysis.broadcastability_ms", "ms", "lower"),
    ("obs.span.analysis.component-stats_ms", "ms", "lower"),
    ("obs.span.analysis.sim-check_ms", "ms", "lower"),
    ("obs.span.cert.extract_ms", "ms", "lower"),
    ("obs.span.cert.verify_ms", "ms", "lower"),
    ("obs.span.http.request_ms", "ms", "lower"),
    ("obs.span.cluster.sweep_ms", "ms", "lower"),
    ("obs.span.cluster.shard_ms", "ms", "lower"),
    ("obs.span.cluster.spotcheck_ms", "ms", "lower"),
    ("replay.spans", "count", "lower"),
    ("replay.failures", "count", "lower"),
    ("replay.share.expansion", "ratio", "lower"),
    ("replay.share.component-stats", "ratio", "lower"),
];

/// One run's outcome: operation counts plus every metric measured.
#[derive(Debug, Default, Clone)]
pub struct Report {
    /// Operations attempted (scenarios, requests, merged records).
    pub attempted: u64,
    /// Operations that failed, were refused, or answered wrongly.
    pub failed: u64,
    values: BTreeMap<String, f64>,
}

impl Report {
    /// Record metric `name`.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// A recorded metric.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Count `attempted` operations of which `failed` went wrong.
    pub fn tally(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }

    /// Failed ÷ attempted.
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line: every end-to-end metric (`trace = false`) or every
    /// per-layer metric (`trace = true`). A per-layer metric the workload
    /// does not exercise reads 0.
    ///
    /// # Errors
    /// A message when an end-to-end metric is missing or any value is not
    /// finite.
    pub fn render(&self, trace: bool) -> Result<String, String> {
        let defs = if trace { PER_LAYER } else { END_TO_END };
        let mut fields = Vec::with_capacity(defs.len());
        for &(name, unit, _) in defs {
            let value = match (self.get(name), trace) {
                (Some(v), _) => v,
                (None, true) if name == "error_rate" => self.error_rate(),
                (None, true) => 0.0,
                (None, false) => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            fields.push(format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            fields.join(",")
        ))
    }

    /// A human-readable table of every recorded metric with its unit.
    pub fn summary(&self) -> String {
        let mut out = format!(
            "attempted {} failed {} error_rate {} ratio\n",
            self.attempted,
            self.failed,
            self.error_rate()
        );
        for &(name, unit, _) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(v) = self.get(name) {
                out.push_str(&format!("  {name:<42} {v:>16.4} {unit}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for &(name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(name), "duplicate metric {name}");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(better == "lower" || better == "higher");
        }
        for span in OBS_SPANS {
            let name = format!("obs.span.{span}_ms");
            assert!(PER_LAYER.iter().any(|d| d.0 == name), "{name} missing");
        }
    }

    #[test]
    fn render_requires_every_end_to_end_metric() {
        let mut r = Report::default();
        r.tally(3, 0);
        assert!(r.render(false).is_err());
        for &(name, _, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.render(false).unwrap();
        assert!(line.starts_with("{\"correct\":true,\"attempted\":3,\"failed\":0,"));
        assert!(line.contains("\"setup_s\":{\"value\":1.5,\"unit\":\"s\"}"));
        r.set("ops_per_s", f64::NAN);
        assert!(r.render(false).is_err());
        let traced = Report { attempted: 2, failed: 1, ..Report::default() }.render(true).unwrap();
        assert!(traced.contains("\"correct\":false"));
        assert!(traced.contains("\"error_rate\":{\"value\":0.5,\"unit\":\"ratio\"}"));
    }
}
