//! `cluster-sweep`: `coordinator::run` over 2 in-process workers with 1
//! HTTP thread and 1 scenario thread each, on a fresh fleet every pass,
//! against the serial single-node sweep of the same grid on 2 threads.

use std::sync::Arc;
use std::time::{Duration, Instant};

use consensus_cluster::coordinator::{self, ClusterConfig, ClusterOutcome};
use consensus_cluster::spotcheck;
use consensus_lab::cache::CacheStats;
use consensus_lab::scenario::{AdversarySpec, AnalysisKind};
use consensus_lab::session::{Query, Session};
use consensus_serve::api::App;
use consensus_serve::server::{ServeConfig, Server};

use crate::check::PassChecker;
use crate::lab_report::{report_store, CacheTally};
use crate::metrics::Report;
use crate::obs_harvest::ObsHarvest;
use crate::replay::{self, Target};
use crate::spans::Spans;
use crate::stats::{median, ms, quantile, RssSampler};
use crate::{Args, Artifacts};

/// Workers in the fleet.
pub const WORKERS: usize = 2;
/// HTTP threads, and scenario threads, per worker.
pub const WORKER_THREADS: usize = 1;
/// Percentage of definitive verdicts audited by certificate replay.
pub const SPOT_CHECK_PCT: usize = 10;
/// The four analyses other than component-stats.
pub const ANALYSES: [AnalysisKind; 4] = [
    AnalysisKind::Solvability,
    AnalysisKind::Bivalence,
    AnalysisKind::Broadcastability,
    AnalysisKind::SimCheck,
];

/// A freshly booted fleet of in-process workers; [`Fleet::stop`] shuts it
/// down.
struct Fleet {
    servers: Vec<Server>,
}

impl Fleet {
    fn boot() -> Result<Fleet, String> {
        // One HTTP thread and one scenario thread per worker, so the fleet
        // computes on as many threads as the serial baseline.
        let cfg = ServeConfig { threads: WORKER_THREADS, ..ServeConfig::default() };
        let servers = (0..WORKERS)
            .map(|_| {
                let app = App::new(Session::new().workers(WORKER_THREADS));
                Server::bind(Arc::new(app), &cfg).map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Fleet { servers })
    }

    fn addrs(&self) -> Vec<String> {
        self.servers.iter().map(|s| s.local_addr().to_string()).collect()
    }

    /// Sum the workers' cache counters and their duplicate engine passes.
    fn cache(&self, tally: &mut CacheTally) {
        let mut total = CacheStats::default();
        let mut duplicates = 0;
        for server in &self.servers {
            let cache = server.app().session().space_cache();
            let s = cache.stats();
            total.hits += s.hits;
            total.builds += s.builds;
            total.ladder_hits += s.ladder_hits;
            total.budget_misses += s.budget_misses;
            duplicates += cache.expand_totals().passes.saturating_sub(cache.len());
        }
        tally.add(total, duplicates);
    }

    fn stop(self) {
        for server in self.servers {
            server.stop();
        }
    }
}

fn config(workers: Vec<String>, max_depth: usize) -> ClusterConfig {
    ClusterConfig {
        workers,
        max_depth,
        analyses: ANALYSES.to_vec(),
        spot_check_pct: SPOT_CHECK_PCT,
        ..ClusterConfig::default()
    }
}

/// One pass: boot a fleet (timed as set-up), run the coordinator (timed
/// as the pass), stop the fleet.
struct Pass {
    setup_s: f64,
    wall_ms: f64,
    outcome: Result<ClusterOutcome, String>,
}

fn pass(max_depth: usize, cache: &mut CacheTally) -> Result<Pass, String> {
    let start = Instant::now();
    let fleet = Fleet::boot()?;
    let setup_s = start.elapsed().as_secs_f64();
    let cfg = config(fleet.addrs(), max_depth);
    let start = Instant::now();
    let outcome = coordinator::run(&cfg);
    let wall_ms = ms(start.elapsed());
    fleet.cache(cache);
    fleet.stop();
    Ok(Pass { setup_s, wall_ms, outcome })
}

/// Run `cluster-sweep`.
///
/// # Errors
/// A message when a fleet cannot boot or the replay cannot run.
pub fn run(args: &Args, artifacts: &mut Artifacts) -> Result<Report, String> {
    let max_depth = if args.short { 3 } else { 6 };
    let grid = Query::catalog_grid(max_depth, &ANALYSES);
    let mut r = Report::default();

    // The serial single-node sweep of the same grid on as many threads as
    // the fleet: the answer key, and in the traced run the baseline the
    // cluster's overhead is measured against.
    let serial_sweep = || {
        let session = Session::new().workers(WORKERS * WORKER_THREADS);
        let start = Instant::now();
        let records = session.check_many(&grid).store.into_records();
        (ms(start.elapsed()), records)
    };
    let (_, serial) = serial_sweep();
    let mut serial_ms = Vec::new();
    let mut checker = PassChecker::with_reference(&serial);
    if let Some(fault) = serial.iter().find_map(crate::check::record_fault) {
        return Err(format!("serial reference is wrong: {fault}"));
    }

    let mut harvest = ObsHarvest::start();
    let mut cache = CacheTally::default();
    let (mut setups, mut walls, mut traced_walls, mut rates) = (vec![], vec![], vec![], vec![]);
    let (mut dispatches, mut retries, mut rebalances, mut audits, mut audit_failures) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut last_records = Vec::new();
    let mut measured = 0.0;
    // One untimed pass first, so the timed ones start from a process whose
    // allocator is already warm. Its peak resident memory is the
    // workload's: one cold pass on a fresh fleet (later passes also carry
    // what the allocator kept from earlier ones).
    let rss = RssSampler::start();
    let warmup = pass(max_depth, &mut CacheTally::default())?;
    r.set("peak_rss_mb", rss.finish());
    let warm_faults = match warmup.outcome {
        Ok(outcome) => checker.check(&outcome.records),
        Err(e) => vec![format!("coordinator failed: {e}"); grid.len()],
    };
    artifacts.note_faults(&warm_faults);
    r.tally(grid.len(), warm_faults.len().min(grid.len()));
    let min_passes = if args.trace { 4 } else { 2 };
    while measured < args.seconds * 1e3 || walls.len() + traced_walls.len() < min_passes {
        let traced = args.trace && walls.len() > traced_walls.len();
        let p = if traced {
            harvest.traced(|| pass(max_depth, &mut cache))?
        } else {
            pass(max_depth, &mut cache)?
        };
        measured += p.wall_ms;
        setups.push(p.setup_s);
        let faults = match p.outcome {
            Err(e) => vec![format!("coordinator failed: {e}"); grid.len()],
            Ok(mut outcome) => {
                artifacts.tamper(&mut outcome.records);
                let mut faults = checker.check(&outcome.records);
                faults
                    .extend(outcome.spot_check_failures.iter().map(|f| format!("spot-check: {f}")));
                let s = &outcome.stats;
                dispatches.push(s.dispatches as f64);
                retries.push(s.retries as f64);
                rebalances.push(s.rebalances as f64);
                audits.push(s.spot_checks as f64);
                audit_failures.push(s.spot_check_failures as f64);
                last_records = outcome.records;
                faults
            }
        };
        artifacts.note_faults(&faults);
        r.tally(grid.len(), faults.len().min(grid.len()));
        if traced {
            traced_walls.push(p.wall_ms);
        } else {
            walls.push(p.wall_ms);
            rates.push((grid.len() - faults.len().min(grid.len())) as f64 / (p.wall_ms / 1e3));
            // The traced run times the baseline beside each untraced pass,
            // so both see the same state of the host.
            if args.trace {
                serial_ms.push(serial_sweep().0);
            }
        }
    }

    r.set("setup_s", median(&setups));
    r.set("ops_per_s", median(&rates));
    r.set("latency_p50_ms", quantile(&walls, 0.5));
    r.set("latency_p90_ms", quantile(&walls, 0.9));
    // Every pass starts on a fresh fleet, so every pass is cold.
    r.set("cold_latency_p50_ms", quantile(&walls, 0.5));

    if args.trace {
        let cluster_ms = median(&walls);
        r.set("cluster.ms", cluster_ms);
        r.set("cluster.serial_ms", median(&serial_ms));
        r.set("cluster.overhead_ratio", cluster_ms / median(&serial_ms).max(1e-9));
        r.set("obs.trace_overhead_ratio", median(&traced_walls) / cluster_ms.max(1e-9));
        r.set("cluster.coordinator.dispatches", median(&dispatches));
        r.set("cluster.coordinator.retries", median(&retries));
        r.set("cluster.coordinator.rebalances", median(&rebalances));
        r.set("cluster.spotcheck.audits", median(&audits));
        r.set("cluster.spotcheck.failures", median(&audit_failures));
        harvest.report(&mut r);
        cache.report(&mut r);

        // The audit on its own, against a fresh fleet.
        let fleet = Fleet::boot()?;
        let start = Instant::now();
        let audit = spotcheck::spot_check(
            &last_records,
            &fleet.addrs(),
            SPOT_CHECK_PCT,
            Duration::from_secs(30),
        );
        r.set("cluster.spotcheck.ms", ms(start.elapsed()));
        fleet.stop();
        let audit_failed = audit.as_ref().map_or(1, |a| a.failures.len());
        r.tally(1, audit_failed.min(1));

        report_store(&last_records, &mut r);
        let targets: Vec<Target> = adversary::catalog::entries()
            .iter()
            .map(|e| Target {
                spec: AdversarySpec::catalog(e.name),
                max_depth,
                analyses: ANALYSES.to_vec(),
            })
            .collect();
        let mut spans = Spans::default();
        let counts = replay::replay(&targets, &mut spans)?;
        replay::report(&spans, &counts, &mut r);
        r.tally(spans.spans().len(), r.get("replay.failures").unwrap_or(0.0) as usize);
        artifacts.save_spans(&spans, &harvest);
    }
    eprintln!("perfbench: pass walls (ms) {walls:.0?}");
    Ok(r)
}
