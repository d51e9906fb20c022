//! Per-layer reports of the lab layer shared by every workload: the
//! space cache's counters, and record and JSON encoding.

use consensus_lab::cache::CacheStats;
use consensus_lab::store::{ResultStore, ScenarioRecord};

use crate::metrics::Report;
use crate::stats::{median, median_secs, spread};

/// Per-pass cache counters, reported as medians with their spread
/// (`SpaceCache`'s fill race makes them vary between passes).
#[derive(Default)]
pub struct CacheTally {
    lookups: Vec<f64>,
    hits: Vec<f64>,
    builds: Vec<f64>,
    ladder_hits: Vec<f64>,
    duplicate_builds: Vec<f64>,
}

impl CacheTally {
    /// Add one pass's counters.
    pub fn add(&mut self, stats: CacheStats, duplicate_builds: usize) {
        self.lookups.push(stats.requests() as f64);
        self.hits.push(stats.hits as f64);
        self.builds.push(stats.builds as f64);
        self.ladder_hits.push(stats.ladder_hits as f64);
        self.duplicate_builds.push(duplicate_builds as f64);
    }

    /// Report `lab.cache.*`.
    pub fn report(&self, r: &mut Report) {
        r.set("lab.cache.lookups", median(&self.lookups));
        r.set("lab.cache.hits", median(&self.hits));
        r.set("lab.cache.builds", median(&self.builds));
        r.set("lab.cache.builds_spread", spread(&self.builds));
        r.set("lab.cache.ladder_hits", median(&self.ladder_hits));
        r.set("lab.cache.ladder_hits_spread", spread(&self.ladder_hits));
        r.set("lab.cache.duplicate_builds", median(&self.duplicate_builds));
        r.set("lab.cache.duplicate_builds_spread", spread(&self.duplicate_builds));
        let avoided = median(&self.hits) + median(&self.ladder_hits);
        r.set("lab.cache.hit_ratio", avoided / median(&self.lookups).max(1.0));
    }
}

/// Report `lab.store.*` and `json.*` over one result set: JSONL encoding
/// of the whole set, and per-record encode and parse times.
pub fn report_store(records: &[ScenarioRecord], r: &mut Report) {
    let store = ResultStore::new(records.to_vec());
    let mut text = String::new();
    let encode_s = median_secs(5, || {
        text = store.to_jsonl();
    });
    r.set("lab.store.encode_ms", encode_s * 1e3);
    r.set("lab.store.bytes", text.len() as f64);
    let count = records.len().max(1) as f64;
    let encode_each =
        median_secs(5, || records.iter().map(|rec| rec.to_json().to_string().len()).sum::<usize>());
    r.set("json.encode_us", encode_each * 1e6 / count);
    let parse_each =
        median_secs(5, || text.lines().filter(|l| consensus_lab::json::parse(l).is_ok()).count());
    r.set("json.parse_us", parse_each * 1e6 / count);
}
