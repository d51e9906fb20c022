//! `sweep-deep` and `sweep-catalog`: a cold `Session` with 2 scenario
//! workers answers the catalog grid, pass after pass.

use std::time::Instant;

use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{Query, Session};
use consensus_lab::SweepReport;

use crate::check::PassChecker;
use crate::lab_report::{report_store, CacheTally};
use crate::metrics::Report;
use crate::obs_harvest::ObsHarvest;
use crate::replay::{self, Target};
use crate::spans::Spans;
use crate::stats::{median, median_secs, ms, quantile, RssSampler};
use crate::{Args, Artifacts};

/// Scenario workers per sweep pass.
pub const WORKERS: usize = 2;

/// Set-up repetitions per block; one block runs before the warm-up pass
/// and one after every timed pass, and `setup_s` is the median over
/// blocks of each block's median.
const SETUP_REPS: usize = 201;

/// A sweep workload's grid: the catalog × depths `1..=max_depth` × analyses.
#[derive(Debug, Clone)]
pub struct Shape {
    /// Deepest resolution.
    pub max_depth: usize,
    /// Analyses per cell.
    pub analyses: Vec<AnalysisKind>,
}

impl Shape {
    /// `sweep-deep`: expansion-heavy (depth 7, no component-stats).
    pub fn deep(short: bool) -> Shape {
        Shape {
            max_depth: if short { 3 } else { 7 },
            analyses: vec![
                AnalysisKind::Solvability,
                AnalysisKind::Bivalence,
                AnalysisKind::Broadcastability,
                AnalysisKind::SimCheck,
            ],
        }
    }

    /// `sweep-catalog`: the default user sweep (depth 5, all analyses).
    pub fn catalog(short: bool) -> Shape {
        Shape { max_depth: if short { 3 } else { 5 }, analyses: AnalysisKind::ALL.to_vec() }
    }

    /// The grid in canonical sweep order.
    pub fn grid(&self) -> Vec<Query> {
        Query::catalog_grid(self.max_depth, &self.analyses)
    }

    /// The replay targets: every catalog entry over this shape.
    pub fn targets(&self) -> Vec<Target> {
        adversary::catalog::entries()
            .iter()
            .map(|e| Target {
                spec: consensus_lab::AdversarySpec::catalog(e.name),
                max_depth: self.max_depth,
                analyses: self.analyses.clone(),
            })
            .collect()
    }
}

/// One cold pass and what it left in its cache.
pub struct Pass {
    /// Wall time of `check_many`, in ms.
    pub wall_ms: f64,
    /// The answers, in grid order.
    pub report: SweepReport,
    /// Engine passes whose space another worker had already cached.
    pub duplicate_builds: usize,
}

/// Answer `grid` on a fresh session; the session is dropped after the
/// clock stops.
pub fn cold_pass(grid: &[Query]) -> Pass {
    let session = Session::new().workers(WORKERS);
    let start = Instant::now();
    let report = session.check_many(grid);
    let wall_ms = ms(start.elapsed());
    let cache = session.space_cache();
    let duplicate_builds = cache.expand_totals().passes.saturating_sub(cache.len());
    Pass { wall_ms, report, duplicate_builds }
}

/// Run a sweep workload.
///
/// # Errors
/// A message when the replay cannot run.
pub fn run(args: &Args, shape: &Shape, artifacts: &mut Artifacts) -> Result<Report, String> {
    let grid = shape.grid();
    let mut r = Report::default();
    // Set-up: what a caller builds before the first scenario — the session
    // and the grid.
    let setup = || median_secs(SETUP_REPS, || (Session::new().workers(WORKERS), shape.grid()));
    let mut setups = vec![setup()];
    let mut checker = PassChecker::default();
    // One untimed pass first: it fills the allocator and becomes the
    // answer key the timed passes are compared against. Its peak resident
    // memory is the workload's: one cold pass in a fresh process (later
    // passes also carry what the allocator kept from earlier ones).
    let rss = RssSampler::start();
    let warmup = cold_pass(&grid).report.store.into_records();
    r.set("peak_rss_mb", rss.finish());
    let faults = checker.check(&warmup);
    artifacts.note_faults(&faults);
    r.tally(grid.len(), faults.len());

    let mut cache = CacheTally::default();
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut rates = Vec::new();
    let mut harvest = ObsHarvest::start();
    let mut last_records = Vec::new();
    let mut measured = 0.0;
    // The traced run alternates untraced and traced passes, each on a
    // fresh session, so the tracing tax is measured cold against cold.
    let min_passes = if args.trace { 4 } else { 2 };
    while measured < args.seconds * 1e3 || walls.len() + traced_walls.len() < min_passes {
        let traced = args.trace && walls.len() > traced_walls.len();
        let pass = if traced {
            harvest.traced(|| cold_pass(&grid))
        } else {
            cold_pass(&grid)
        };
        measured += pass.wall_ms;
        let mut records = pass.report.store.into_records();
        artifacts.tamper(&mut records);
        setups.push(setup());
        let faults = checker.check(&records);
        artifacts.note_faults(&faults);
        r.tally(grid.len(), faults.len());
        cache.add(pass.report.cache, pass.duplicate_builds);
        if traced {
            traced_walls.push(pass.wall_ms);
        } else {
            walls.push(pass.wall_ms);
            rates.push((grid.len() - faults.len().min(grid.len())) as f64 / (pass.wall_ms / 1e3));
        }
        last_records = records;
    }

    r.set("setup_s", median(&setups));
    r.set("ops_per_s", median(&rates));
    r.set("latency_p50_ms", quantile(&walls, 0.5));
    r.set("latency_p90_ms", quantile(&walls, 0.9));
    // Every pass runs on a cold session, so every pass is a cold request.
    r.set("cold_latency_p50_ms", quantile(&walls, 0.5));
    cache.report(&mut r);

    if args.trace {
        r.set("obs.trace_overhead_ratio", median(&traced_walls) / median(&walls).max(1e-9));
        harvest.report(&mut r);
        report_store(&last_records, &mut r);
        let mut spans = Spans::default();
        let counts = replay::replay(&shape.targets(), &mut spans)?;
        replay::report(&spans, &counts, &mut r);
        let failures = r.get("replay.failures").unwrap_or(0.0) as usize;
        r.tally(spans.spans().len(), failures);
        artifacts.save_spans(&spans, &harvest);
    }
    eprintln!("perfbench: pass walls (ms) {walls:.0?}");
    Ok(r)
}
