//! `serve-mixed`: an in-process `Server` with 2 threads, driven in a closed
//! loop by 2 keep-alive `Client` connections — callers that wait for each
//! reply before sending the next.
//!
//! Nine requests in ten are warm `/v1/check`s over catalog × depths
//! `1..=4` × every analysis (prewarmed during set-up); one in ten is a
//! cold check of a seed-generated spec term no cache has seen. A share of
//! the solvability requests ask for a certificate ([`cert_share`]).
//! Latency is timed on the client, from send to full reply. The clients
//! only keep the replies; every reply is checked after the window.

use std::collections::{BTreeMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use consensus_cluster::coordinator::ClusterConfig;
use consensus_lab::cache::CacheStats;
use consensus_lab::json::Value;
use consensus_lab::scenario::{AdversarySpec, AnalysisKind};
use consensus_lab::session::{Query, Session};
use consensus_lab::store::ScenarioRecord;
use consensus_serve::api::App;
use consensus_serve::client::Client;
use consensus_serve::http::Request;
use consensus_serve::loadgen::LoadGenConfig;
use consensus_serve::server::{ServeConfig, Server};

use crate::check::{stripped, ReplyChecker};
use crate::lab_report::{report_store, CacheTally};
use crate::metrics::Report;
use crate::obs_harvest::ObsHarvest;
use crate::replay::{self, Target};
use crate::rng::Rng;
use crate::spans::Spans;
use crate::stats::{median, ms, quantile, rss_mb, RssSampler};
use crate::{Args, Artifacts};

/// Server worker threads.
pub const SERVER_THREADS: usize = 2;
/// Concurrent closed-loop clients.
pub const CLIENTS: usize = 2;
/// One request in this many carries a never-seen spec term.
pub const COLD_EVERY: usize = 10;
/// Times the server is booted and prewarmed for `setup_s`.
const SETUP_REPS: usize = 15;
/// Warm requests replayed in-process by the traced run.
const REPLAY_SAMPLE: usize = 300;
/// Cold terms whose layers the traced run replays.
const REPLAY_COLD: usize = 40;

/// Graph tokens the cold-term generator draws from (n = 2).
const GRAPHS: &[&str] = &["->", "<-", "<->", "."];

/// Share of solvability requests asking for a certificate: the share of
/// solvability verdicts the cluster coordinator audits by default. Its
/// spot-check is the only caller in the repository whose traffic asks
/// `/v1/check` for certificates.
pub fn cert_share() -> f64 {
    ClusterConfig::default().spot_check_pct as f64 / 100.0
}

/// The analyses requests ask for, each equally often: those of the
/// repository's own load generator (`serve-bench`), which walks every
/// analysis of its grid once per pass.
pub fn analyses() -> Vec<AnalysisKind> {
    LoadGenConfig::default().analyses
}

/// The warm query set: catalog × depths `1..=max_depth` × [`analyses`],
/// each solvability query directly preceded by its certificate form.
pub fn warm_queries(max_depth: usize) -> Vec<Query> {
    let mut out = Vec::new();
    for q in Query::catalog_grid(max_depth, &analyses()) {
        if q.analysis == AnalysisKind::Solvability {
            out.push(q.clone().with_certificate());
        }
        out.push(q);
    }
    out
}

/// The `/v1/check` body for `query`.
pub fn request_body(query: &Query) -> String {
    let label = query.spec.label();
    let field = if adversary::catalog::by_name(&label).is_some() {
        "adversary"
    } else {
        "spec"
    };
    Value::Obj(vec![
        (field.into(), Value::Str(label)),
        ("depth".into(), Value::Int(query.depth as i64)),
        ("analysis".into(), Value::Str(query.analysis.name().into())),
        ("certificate".into(), Value::Bool(query.certificate)),
    ])
    .to_string()
}

/// Seeded generator of cold queries: spec terms whose adversaries are
/// structurally new (no fingerprint repeats, none in the catalog).
pub struct ColdGen {
    rng: Rng,
    seen: HashSet<u64>,
    names: Vec<&'static str>,
    analyses: Vec<AnalysisKind>,
    max_depth: usize,
}

impl ColdGen {
    /// A generator for `seed`; queries go up to `max_depth`.
    pub fn new(seed: u64, max_depth: usize) -> Self {
        let entries = adversary::catalog::entries();
        let seen = entries.iter().map(|e| e.build().fingerprint()).collect();
        let names = entries.iter().filter(|e| e.build().n() == 2).map(|e| e.name).collect();
        ColdGen { rng: Rng::new(seed, 0xC01D), seen, names, analyses: analyses(), max_depth }
    }

    fn word(&mut self, max_len: usize) -> String {
        let len = 1 + self.rng.below(max_len);
        (0..len).map(|_| *self.rng.pick(GRAPHS)).collect::<Vec<_>>().join(" ")
    }

    fn pool(&mut self) -> Vec<&'static str> {
        loop {
            let pool: Vec<&str> = GRAPHS.iter().copied().filter(|_| self.rng.chance(0.5)).collect();
            if !pool.is_empty() {
                return pool;
            }
        }
    }

    fn liveness(&mut self) -> String {
        let pool = self.pool();
        if self.rng.chance(0.5) {
            let target = *self.rng.pick(&pool);
            let by = 1 + self.rng.below(4);
            format!("eventually({}, {target}, by={by})", pool.join(" "))
        } else {
            let window = 1 + self.rng.below(2);
            let by = window + self.rng.below(3);
            format!("window({}, {window}, by={by})", pool.join(" "))
        }
    }

    fn term(&mut self) -> String {
        match self.rng.below(3) {
            0 => {
                let name = *self.rng.pick(&self.names);
                format!("prefix({}, catalog({name}))", self.word(4))
            }
            1 => {
                let inner = self.liveness();
                format!("prefix({}, {inner})", self.word(4))
            }
            _ => self.liveness(),
        }
    }

    /// The next cold query.
    ///
    /// # Panics
    /// If no new adversary turns up in many draws (the term space holds
    /// far more than any run consumes).
    pub fn next_query(&mut self) -> Query {
        for _ in 0..10_000 {
            let term = self.term();
            let Ok(spec) = AdversarySpec::parse(&term) else {
                continue;
            };
            let Ok(ma) = spec.build() else { continue };
            if ma.n() != 2 || !self.seen.insert(ma.fingerprint()) {
                continue;
            }
            // Depths are as even as in the warm grid.
            let depth = 1 + self.rng.below(self.max_depth);
            let analysis = *self.rng.pick(&self.analyses);
            let query = Query::new(spec, depth, analysis);
            let certify = analysis == AnalysisKind::Solvability && self.rng.chance(cert_share());
            return if certify {
                query.with_certificate()
            } else {
                query
            };
        }
        panic!("cold-term generator exhausted")
    }
}

/// One client's request schedule: the warm grid in seeded shuffled rounds
/// (every grid query equally often, solvability in its certificate form
/// at [`cert_share`]), with one cold request at a seeded position in every
/// block of [`COLD_EVERY`] requests.
struct Mix {
    rng: Rng,
    /// Warm indices of each grid query: its plain form and, for
    /// solvability, its certificate form.
    order: Vec<(usize, Option<usize>)>,
    next: usize,
    sent: usize,
    cold_at: usize,
    cert_share: f64,
}

impl Mix {
    fn new(seed: u64, stream: u64, warm: &[(Query, String, String)]) -> Mix {
        let rng = Rng::new(seed, 1 + stream);
        let order: Vec<(usize, Option<usize>)> = (0..warm.len())
            .filter(|&i| !warm[i].0.certificate)
            .map(|i| (i, (i > 0 && warm[i - 1].0.certificate).then(|| i - 1)))
            .collect();
        let next = order.len();
        Mix { rng, order, next, sent: 0, cold_at: 0, cert_share: cert_share() }
    }

    /// The next warm query index, or `None` for a cold request.
    fn next_request(&mut self) -> Option<usize> {
        if self.sent.is_multiple_of(COLD_EVERY) {
            self.cold_at = self.sent + self.rng.below(COLD_EVERY);
        }
        self.sent += 1;
        if self.sent - 1 == self.cold_at {
            return None;
        }
        if self.next == self.order.len() {
            for i in (1..self.order.len()).rev() {
                self.order.swap(i, self.rng.below(i + 1));
            }
            self.next = 0;
        }
        self.next += 1;
        let (plain, cert) = self.order[self.next - 1];
        Some(match cert {
            Some(cert) if self.rng.chance(self.cert_share) => cert,
            _ => plain,
        })
    }
}

/// A booted, prewarmed server.
fn boot(warm: &[Query]) -> Result<Server, String> {
    let app = Arc::new(App::new(Session::new()));
    let cfg = ServeConfig { threads: SERVER_THREADS, ..ServeConfig::default() };
    let server = Server::bind(app, &cfg).map_err(|e| e.to_string())?;
    let report = server.app().session().check_many(warm);
    if report.store.records().iter().any(|r| crate::check::record_fault(r).is_some()) {
        return Err("prewarm produced a wrong answer".into());
    }
    Ok(server)
}

/// One request as the client saw it.
struct Sample {
    cold: bool,
    latency_ms: f64,
    /// The request got no reply.
    failed: bool,
    traced: bool,
    /// The one-second slice of the window the request was sent in
    /// (`None` for the unfinished last second).
    slice: Option<u64>,
}

/// What one closed-loop window produced.
#[derive(Default)]
struct Window {
    samples: Vec<Sample>,
    /// Warm query indices and their raw replies in send order (client 0
    /// first), checked after the window.
    warm: Vec<(usize, u16, String)>,
    /// Cold requests and their raw replies, checked after the window.
    cold: Vec<(Query, u16, String)>,
    reconnects: usize,
    timeouts: usize,
    wall_s: f64,
    faults: Vec<String>,
}

impl Window {
    /// Append another client's or slice's requests (wall times add up).
    fn absorb(&mut self, part: Window) {
        self.samples.extend(part.samples);
        self.warm.extend(part.warm);
        self.cold.extend(part.cold);
        self.reconnects += part.reconnects;
        self.timeouts += part.timeouts;
        self.wall_s += part.wall_s;
        self.faults.extend(part.faults);
    }
}

/// What every client of one run shares.
struct Shared<'a> {
    addr: String,
    warm: &'a [(Query, String, String)],
    cold: Mutex<ColdGen>,
    seed: u64,
}

/// Drive `CLIENTS` closed-loop clients for `seconds`: one part of the
/// window, whose samples are marked `traced` when the caller runs it with
/// the obs tracer on.
fn drive(shared: &Shared<'_>, seconds: f64, part: u64, traced: bool) -> Window {
    let clock = SliceClock::new(seconds, part);
    let start = clock.start;
    let parts: Vec<Window> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let clock = &clock;
                scope.spawn(move || client_loop(shared, c as u64 + part * 64, clock, traced))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let mut out = Window { wall_s: start.elapsed().as_secs_f64(), ..Window::default() };
    for part in parts {
        out.absorb(part);
    }
    out
}

/// Cuts one driven window into whole one-second slices (shorter windows
/// are one slice), numbered uniquely across the run's windows.
struct SliceClock {
    start: Instant,
    end: Instant,
    width: Duration,
    whole: u64,
    base: u64,
}

impl SliceClock {
    fn new(seconds: f64, part: u64) -> Self {
        let start = Instant::now();
        let width = Duration::from_secs_f64(seconds.min(1.0));
        let whole = (seconds / width.as_secs_f64()).floor() as u64;
        SliceClock {
            start,
            end: start + Duration::from_secs_f64(seconds),
            width,
            whole,
            base: part * 1_000_000,
        }
    }

    /// The slice a request sent at `at` falls in.
    fn slice(&self, at: Instant) -> Option<u64> {
        let i = (at - self.start).as_nanos() / self.width.as_nanos();
        (i < u128::from(self.whole)).then(|| self.base + i as u64)
    }
}

fn client_loop(shared: &Shared<'_>, stream: u64, clock: &SliceClock, traced: bool) -> Window {
    let end = clock.end;
    let mut out = Window::default();
    let mut mix = Mix::new(shared.seed, stream, shared.warm);
    let mut client = match Client::connect(&shared.addr) {
        Ok(c) => c,
        Err(e) => {
            out.faults.push(format!("connect: {e}"));
            out.samples.push(Sample {
                cold: false,
                latency_ms: 0.0,
                failed: true,
                traced,
                slice: clock.slice(Instant::now()),
            });
            return out;
        }
    };
    while Instant::now() < end {
        let warm_idx = mix.next_request();
        let cold = warm_idx.is_none();
        let (query, body) = match warm_idx {
            None => {
                let q = shared.cold.lock().expect("cold generator poisoned").next_query();
                let body = request_body(&q);
                (q, body)
            }
            Some(i) => (shared.warm[i].0.clone(), shared.warm[i].1.clone()),
        };
        let sent = Instant::now();
        let reply = client.post_json("/v1/check", &body);
        let latency_ms = ms(sent.elapsed());
        let failed = match (reply, warm_idx) {
            (Err(e), _) => {
                out.faults.push(format!("{}: {e}", query.label()));
                true
            }
            (Ok(reply), Some(i)) => {
                out.warm.push((i, reply.status, reply.body));
                false
            }
            (Ok(reply), None) => {
                out.cold.push((query, reply.status, reply.body));
                false
            }
        };
        out.samples
            .push(Sample { cold, latency_ms, failed, traced, slice: clock.slice(sent) });
    }
    out.reconnects = client.reconnects();
    out.timeouts = client.timeouts();
    out
}

/// Check the warm replies against the in-process answers; returns the
/// number of wrong ones.
fn check_warm(window: &mut Window, warm: &[(Query, String, String)]) -> usize {
    let mut checker = ReplyChecker::default();
    let mut wrong = 0;
    for (i, status, body) in &window.warm {
        let (query, _, reference) = &warm[*i];
        if let Err(fault) = checker.check(query, *status, body, reference) {
            window.faults.push(fault);
            wrong += 1;
        }
    }
    wrong
}

/// Check the cold replies against an in-process session; returns the
/// number of wrong ones.
fn check_cold(window: &mut Window, reference: &Session) -> usize {
    let entries: Vec<(usize, Query)> = window.cold.iter().map(|(q, _, _)| (0, q.clone())).collect();
    let records = reference.check_many_indexed(&entries).store.into_records();
    let mut checker = ReplyChecker::default();
    let mut wrong = 0;
    for ((query, status, body), record) in window.cold.iter().zip(&records) {
        if let Err(fault) = checker.check(query, *status, body, &stripped(record)) {
            window.faults.push(fault);
            wrong += 1;
        }
    }
    wrong
}

fn stats_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        builds: after.builds - before.builds,
        ladder_hits: after.ladder_hits - before.ladder_hits,
        disk_hits: after.disk_hits - before.disk_hits,
        budget_misses: after.budget_misses - before.budget_misses,
    }
}

fn expansions(session: &Session) -> usize {
    session.space_cache().expand_totals().passes
}

/// Run `serve-mixed`.
///
/// # Errors
/// A message when the server cannot boot or the replay cannot run.
pub fn run(args: &Args, artifacts: &mut Artifacts) -> Result<Report, String> {
    let max_depth = if args.short { 2 } else { 4 };
    let mut r = Report::default();

    let warm_grid: Vec<Query> = Query::catalog_grid(max_depth, &analyses());
    let mut setups = Vec::new();
    let mut server = None;
    for rep in 0..SETUP_REPS {
        // The first boot runs in a fresh process: its peak resident memory
        // is the prewarmed server's footprint.
        let rss = (rep == 0).then(RssSampler::start);
        let start = Instant::now();
        let booted = boot(&warm_grid)?;
        setups.push(start.elapsed().as_secs_f64());
        if let Some(rss) = rss {
            r.set("peak_rss_mb", rss.finish());
        }
        if let Some(old) = server.replace(booted) {
            Server::stop(old);
        }
    }
    r.set("setup_s", median(&setups));
    eprintln!(
        "perfbench: boot times (ms) {:.1?}",
        setups.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    );
    let server = server.expect("SETUP_REPS >= 1");

    // In-process answers for every warm query: the reference replies are
    // checked against, and the prewarmed app the traced run replays on.
    let reference = App::new(Session::new());
    let warm: Vec<(Query, String, String)> = warm_queries(max_depth)
        .into_iter()
        .map(|q| {
            let record =
                reference.session().check(&q).map_err(|e| format!("{}: {e}", q.label()))?;
            let body = request_body(&q);
            Ok((q, body, stripped(&record)))
        })
        .collect::<Result<_, String>>()?;

    let session = server.app().session();
    let shared = Shared {
        addr: server.local_addr().to_string(),
        warm: &warm,
        cold: Mutex::new(ColdGen::new(args.seed, max_depth)),
        seed: args.seed,
    };

    let parts = if args.trace { 4 } else { 1 };
    let mut harvest = ObsHarvest::start();
    let mut cache = CacheTally::default();
    let mut window = Window::default();
    let expansions_before = expansions(session);
    let rss_before = rss_mb();
    for part in 0..parts {
        let traced = part % 2 == 1;
        let seconds = args.seconds / parts as f64;
        let before = session.space_cache().stats();
        let passes_before = expansions(session);
        let len_before = session.space_cache().len();
        let part = if traced {
            harvest.traced(|| drive(&shared, seconds, part, true))
        } else {
            drive(&shared, seconds, part, false)
        };
        let cache_now = session.space_cache();
        let duplicates =
            (expansions(session) - passes_before).saturating_sub(cache_now.len() - len_before);
        cache.add(stats_delta(cache_now.stats(), before), duplicates);
        window.absorb(part);
    }
    let cold_expansions = expansions(session) - expansions_before;
    // The replies the clients kept for checking are not the server's.
    let kept: usize = window.warm.iter().map(|w| w.2.capacity()).sum::<usize>()
        + window.cold.iter().map(|c| c.2.capacity()).sum::<usize>();
    r.set("serve.rss_growth_mb", rss_mb() - rss_before - kept as f64 / (1u64 << 20) as f64);
    artifacts.tamper_replies(&mut window.cold);
    let wrong = check_warm(&mut window, &warm) + check_cold(&mut window, reference.session());
    let failed = window.samples.iter().filter(|s| s.failed).count() + wrong;
    r.tally(window.samples.len(), failed);
    artifacts.note_faults(&window.faults);

    // Every end-to-end figure is taken per one-second slice of the untraced
    // window and reported as the median over slices, so a burst of
    // contention from outside the process moves a few slices, not the run.
    let mut slices: BTreeMap<u64, Vec<&Sample>> = BTreeMap::new();
    for sample in window.samples.iter().filter(|s| !s.traced) {
        if let Some(slice) = sample.slice {
            slices.entry(slice).or_default().push(sample);
        }
    }
    let per_slice = |f: &dyn Fn(&[&Sample]) -> f64| -> f64 {
        median(&slices.values().map(|v| f(v)).collect::<Vec<f64>>())
    };
    let latency = |v: &[&Sample], cold_only: bool, q: f64| {
        let lat: Vec<f64> =
            v.iter().filter(|s| s.cold || !cold_only).map(|s| s.latency_ms).collect();
        quantile(&lat, q)
    };
    let width_s = (args.seconds / parts as f64).min(1.0);
    let correct_share = 1.0 - failed as f64 / window.samples.len().max(1) as f64;
    r.set("ops_per_s", per_slice(&|v| v.len() as f64 / width_s) * correct_share);
    r.set("latency_p50_ms", per_slice(&|v| latency(v, false, 0.5)));
    r.set("latency_p90_ms", per_slice(&|v| latency(v, false, 0.9)));
    r.set("cold_latency_p50_ms", per_slice(&|v| latency(v, true, 0.5)));

    if args.trace {
        let mean = |traced: bool| {
            let v: Vec<f64> = window
                .samples
                .iter()
                .filter(|s| s.traced == traced)
                .map(|s| s.latency_ms)
                .collect();
            v.iter().sum::<f64>() / v.len().max(1) as f64
        };
        r.set("obs.trace_overhead_ratio", mean(true) / mean(false).max(1e-9));
        harvest.report(&mut r);
        cache.report(&mut r);
        r.set("serve.client.reconnects", window.reconnects as f64);
        r.set("serve.client.timeouts", window.timeouts as f64);
        r.set("serve.cold_requests", window.samples.iter().filter(|s| s.cold).count() as f64);
        r.set("serve.cold_expansions", cold_expansions as f64);

        // Expansions come only from the cold share: re-sending every warm
        // query must expand nothing.
        let before = expansions(session);
        let mut client = Client::connect(&shared.addr).map_err(|e| e.to_string())?;
        let mut warm_failed = 0;
        for (q, body, reference) in &warm {
            let ok =
                client
                    .post_json("/v1/check", body)
                    .map_err(|e| e.to_string())
                    .and_then(|reply| {
                        ReplyChecker::default().check(q, reply.status, &reply.body, reference)
                    });
            warm_failed += usize::from(ok.is_err());
        }
        drop(client);
        r.tally(warm.len(), warm_failed);
        r.set("serve.warm_expansions", (expansions(session) - before) as f64);

        replay_serve(&window, &warm, &reference, &mut r, artifacts, &harvest)?;
    }
    drop(shared);
    server.stop();
    Ok(r)
}

/// The traced run's in-process replay: `App::handle`, `Session::check`,
/// record and JSON encoding on a sample of the warm requests, then every
/// layer on the catalog cells and a sample of the cold terms.
fn replay_serve(
    window: &Window,
    warm: &[(Query, String, String)],
    reference: &App,
    r: &mut Report,
    artifacts: &mut Artifacts,
    harvest: &ObsHarvest,
) -> Result<(), String> {
    let sample: Vec<usize> = window.warm.iter().map(|w| w.0).take(REPLAY_SAMPLE).collect();
    let mut handle_ms = Vec::with_capacity(sample.len());
    let mut check_ms = Vec::with_capacity(sample.len());
    let mut records: Vec<ScenarioRecord> = Vec::with_capacity(sample.len());
    for &i in &sample {
        let (query, body, _) = &warm[i];
        let request = Request {
            method: "POST".into(),
            target: "/v1/check".into(),
            headers: Vec::new(),
            body: body.clone().into_bytes(),
            keep_alive: true,
        };
        let start = Instant::now();
        let response = std::hint::black_box(reference.handle(&request));
        handle_ms.push(ms(start.elapsed()));
        if response.status != 200 {
            return Err(format!("replayed {} answered {}", query.label(), response.status));
        }
        let start = Instant::now();
        let record = reference.session().check(query).map_err(|e| e.to_string())?;
        check_ms.push(ms(start.elapsed()));
        records.push(record);
    }
    let handle = median(&handle_ms);
    r.set("serve.api.handle_ms", handle);
    r.set("lab.session.check_ms", median(&check_ms));
    let warm_rtt: Vec<f64> = window
        .samples
        .iter()
        .filter(|s| !s.cold && !s.traced)
        .map(|s| s.latency_ms)
        .collect();
    r.set("serve.http.overhead_ms", median(&warm_rtt) - handle);
    report_store(&records, r);

    let mut targets: Vec<Target> = adversary::catalog::entries()
        .iter()
        .map(|e| Target {
            spec: AdversarySpec::catalog(e.name),
            max_depth: warm.iter().map(|w| w.0.depth).max().unwrap_or(1),
            analyses: analyses(),
        })
        .collect();
    targets.extend(window.cold.iter().take(REPLAY_COLD).map(|(q, _, _)| Target {
        spec: q.spec.clone(),
        max_depth: q.depth,
        analyses: vec![q.analysis],
    }));
    let mut spans = Spans::default();
    let counts = replay::replay(&targets, &mut spans)?;
    replay::report(&spans, &counts, r);
    r.tally(spans.spans().len(), r.get("replay.failures").unwrap_or(0.0) as usize);
    artifacts.save_spans(&spans, harvest);
    Ok(())
}
