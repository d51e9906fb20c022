//! The built-in load generator behind `consensus-lab serve-bench`.
//!
//! Drives a server — an external one (`--addr`) or an in-process one it
//! spawns itself — through the full request mix:
//!
//! 1. `GET /healthz` + `GET /v1/catalog` (liveness, registry sanity),
//! 2. a **cold pass**: one connection walks a catalog × depth × analysis
//!    grid through `POST /v1/check`, populating the server's shared
//!    session cache (sequential, so the cache-counter deltas are exactly
//!    reproducible — the bench gate pins them to the digit),
//! 3. one `POST /v1/sweep` over the same grid (whose records the CI smoke
//!    job diffs byte-for-byte against a direct `consensus-lab sweep`),
//! 4. a **warm pass**: N connections × M requests in parallel against the
//!    now-warm session,
//!
//! reading `/metrics` between phases. The emitted datum
//! (`BENCH_serve.json`) carries the phase wall-clocks plus the cache
//! deltas; a warm pass that triggers any new prefix-space expansion is a
//! caching regression, surfaced as `warm_new_builds` and fatal under
//! `--assert-warm`.

use std::sync::Arc;
use std::time::Instant;

use consensus_obs::metrics::Histogram;

use consensus_lab::scenario::AnalysisKind;
use consensus_lab::session::{Query, Session};
use json::Value;

use crate::api::App;
use crate::client::Client;
use crate::server::{ServeConfig, Server};

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadGenConfig {
    /// Target server; `None` spawns an in-process server on an ephemeral
    /// port (the self-contained bench mode).
    pub addr: Option<String>,
    /// Worker threads for the in-process server (`0` = available
    /// parallelism; ignored with `addr`).
    pub server_threads: usize,
    /// Concurrent client connections of the warm pass.
    pub connections: usize,
    /// Requests per connection in the warm pass (`0` = one walk of the
    /// grid per connection).
    pub requests: usize,
    /// Grid depth ceiling (depths `1..=max_depth`).
    pub max_depth: usize,
    /// Grid analyses.
    pub analyses: Vec<AnalysisKind>,
    /// Fail if the warm pass triggered any new prefix-space expansion.
    pub assert_warm: bool,
}

impl Default for LoadGenConfig {
    fn default() -> Self {
        LoadGenConfig {
            addr: None,
            server_threads: 0,
            connections: 4,
            requests: 0,
            max_depth: 3,
            analyses: AnalysisKind::ALL.to_vec(),
            assert_warm: false,
        }
    }
}

/// What one load-generator run measured.
#[derive(Debug)]
pub struct LoadGenReport {
    /// The order-stable bench datum (the `BENCH_serve.json` payload).
    pub datum: Value,
    /// The `/v1/sweep` records as JSONL, byte-comparable (modulo timing
    /// fields) with a direct `consensus-lab sweep`'s `results.jsonl`.
    pub records_jsonl: String,
    /// Prefix-space expansions the warm pass triggered (0 on a healthy
    /// server).
    pub warm_new_builds: usize,
    /// One-paragraph human summary.
    pub summary: String,
}

/// The cache counters scraped from one `/metrics` read.
#[derive(Debug, Clone, Copy, Default)]
struct CacheSnapshot {
    builds: usize,
    ladder_hits: usize,
    requests_total: usize,
}

fn scrape(client: &mut Client) -> Result<CacheSnapshot, String> {
    let result = client.get("/metrics").map_err(|e| format!("GET /metrics: {e}"))?;
    if result.status != 200 {
        return Err(format!("GET /metrics answered {}: {}", result.status, result.body));
    }
    let metrics = result.json().map_err(|e| format!("GET /metrics: {e}"))?;
    let cache = metrics.get("cache").ok_or("metrics payload lacks \"cache\"")?;
    let snapshot = CacheSnapshot {
        builds: cache.get_usize("builds").ok_or("metrics cache lacks \"builds\"")?,
        ladder_hits: cache.get_usize("ladder_hits").ok_or("metrics cache lacks \"ladder_hits\"")?,
        requests_total: metrics
            .get("requests")
            .and_then(|r| r.get_usize("total"))
            .ok_or("metrics payload lacks \"requests\".\"total\"")?,
    };
    Ok(snapshot)
}

/// A latency quantile of `hist` (nanosecond samples) in rounded ms.
fn quantile_ms(hist: &Histogram, q: f64) -> f64 {
    crate::metrics::round3(hist.quantile(q) as f64 / 1e6)
}

fn check_body(query: &Query) -> Value {
    // Catalog terms go through the "adversary" alias (the hot production
    // shape); anything else is sent as its canonical spec string.
    let spec_field = match query.spec.term() {
        adversary::SpecTerm::Catalog(name) => ("adversary".to_string(), Value::Str(name.clone())),
        _ => ("spec".to_string(), Value::Str(query.spec.label())),
    };
    Value::Obj(vec![
        spec_field,
        ("depth".into(), Value::Int(query.depth as i64)),
        ("analysis".into(), Value::Str(query.analysis.name().into())),
    ])
}

fn expect_ok(
    label: &str,
    result: std::io::Result<crate::client::HttpResult>,
) -> Result<String, String> {
    let result = result.map_err(|e| format!("{label}: {e}"))?;
    if result.status != 200 {
        return Err(format!("{label} answered {}: {}", result.status, result.body));
    }
    Ok(result.body)
}

/// Run the load generator; see the module docs.
///
/// # Errors
/// Returns a description of the first failed phase: unreachable server,
/// non-200 answer, metrics drift, or (under
/// [`assert_warm`](LoadGenConfig::assert_warm)) a warm-pass expansion.
pub fn run(cfg: &LoadGenConfig) -> Result<LoadGenReport, String> {
    let connections = cfg.connections.max(1);
    // In-process server, unless aimed at an external one.
    let server = match &cfg.addr {
        Some(_) => None,
        None => {
            let serve_cfg = ServeConfig {
                // The bench drives `connections` warm clients plus its own
                // scrape connection; a smaller default pool would serialize
                // them behind idle keep-alive workers.
                threads: if cfg.server_threads > 0 {
                    cfg.server_threads
                } else {
                    connections + 1
                },
                ..ServeConfig::default()
            };
            Some(
                Server::bind(Arc::new(App::new(Session::new())), &serve_cfg)
                    .map_err(|e| format!("starting in-process server: {e}"))?,
            )
        }
    };
    let addr = match &cfg.addr {
        Some(addr) => addr.clone(),
        None => server.as_ref().expect("spawned above").local_addr().to_string(),
    };
    let finish = |report: Result<LoadGenReport, String>| {
        if let Some(server) = server {
            server.stop();
        }
        report
    };
    match drive(cfg, &addr, connections) {
        Ok(report) => finish(Ok(report)),
        Err(e) => finish(Err(e)),
    }
}

fn drive(cfg: &LoadGenConfig, addr: &str, connections: usize) -> Result<LoadGenReport, String> {
    let mut client = Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
    let health = expect_ok("GET /healthz", client.get("/healthz"))?;
    if !health.contains("\"ok\"") {
        return Err(format!("unhealthy server: {health}"));
    }
    expect_ok("GET /v1/catalog", client.get("/v1/catalog"))?;

    let grid = Query::catalog_grid(cfg.max_depth, &cfg.analyses);
    if grid.is_empty() {
        return Err("empty scenario grid (no analyses?)".to_string());
    }
    let bodies: Vec<String> = grid.iter().map(|q| check_body(q).to_string()).collect();

    // Cold pass: sequential, one connection → deterministic cache deltas.
    let before = scrape(&mut client)?;
    let t0 = Instant::now();
    for body in &bodies {
        expect_ok("POST /v1/check", client.post_json("/v1/check", body))?;
    }
    let cold_wall = t0.elapsed();
    let after_cold = scrape(&mut client)?;

    // One sweep over the same grid; its records are the smoke-test datum.
    let analyses_json =
        Value::Arr(cfg.analyses.iter().map(|k| Value::Str(k.name().into())).collect());
    let sweep_body = Value::Obj(vec![
        ("catalog".into(), Value::Bool(true)),
        ("max_depth".into(), Value::Int(cfg.max_depth as i64)),
        ("analyses".into(), analyses_json),
    ])
    .to_string();
    let t1 = Instant::now();
    let sweep = expect_ok("POST /v1/sweep", client.post_json("/v1/sweep", &sweep_body))?;
    let sweep_wall = t1.elapsed();
    let after_sweep = scrape(&mut client)?;
    let payload = json::parse(&sweep).map_err(|e| format!("POST /v1/sweep: {e}"))?;
    let Some(Value::Arr(records)) = payload.get("records") else {
        return Err("sweep payload lacks a \"records\" array".to_string());
    };
    if records.len() != grid.len() {
        return Err(format!(
            "sweep answered {} records for a {}-scenario grid",
            records.len(),
            grid.len()
        ));
    }
    let mut records_jsonl = String::new();
    for record in records {
        records_jsonl.push_str(&record.to_string());
        records_jsonl.push('\n');
    }

    // Warm pass: N connections × M requests against the warm session. The
    // scrape connection goes idle for the whole pass — release it so it
    // does not pin a server worker (the post-pass scrape re-dials).
    client.close();
    let per_connection = if cfg.requests > 0 {
        cfg.requests
    } else {
        bodies.len()
    };
    // Each connection buckets its own request latencies; the per-worker
    // histograms merge afterwards (the merge is associative, so the
    // combined quantiles see every request without any locking mid-pass).
    let warm_latency = Histogram::new();
    let t2 = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::with_capacity(connections);
        for connection in 0..connections {
            let bodies = &bodies;
            handles.push(scope.spawn(move || -> Result<Histogram, String> {
                let latency = Histogram::new();
                let mut client =
                    Client::connect(addr).map_err(|e| format!("connecting {addr}: {e}"))?;
                for k in 0..per_connection {
                    // Offset per connection so concurrent requests spread
                    // over the grid instead of marching in lockstep.
                    let body = &bodies[(connection + k) % bodies.len()];
                    let t = Instant::now();
                    expect_ok("POST /v1/check", client.post_json("/v1/check", body))?;
                    latency.record_duration(t.elapsed());
                }
                Ok(latency)
            }));
        }
        for handle in handles {
            warm_latency.merge_from(&handle.join().expect("warm-pass client panicked")?);
        }
        Ok(())
    })?;
    let warm_wall = t2.elapsed();
    let after_warm = scrape(&mut client)?;

    let warm_requests = connections * per_connection;
    let warm_new_builds = after_warm.builds - after_sweep.builds;
    if cfg.assert_warm && warm_new_builds > 0 {
        return Err(format!(
            "--assert-warm: {warm_new_builds} prefix-space expansion(s) on a warm server"
        ));
    }

    // Certificate phase (after the last pinned counter scrape, so it
    // cannot disturb the gated cache deltas): fetch one checkable answer
    // for a solvable catalog entry — the decision-table variant, the
    // heavier of the two to re-check — then re-verify it offline the way
    // `consensus-lab verify-cert` does. `cert_verify_ms` is the mean
    // offline verify latency over 1000 rounds, enough to be gateable.
    let cert_body = Value::Obj(vec![
        ("adversary".into(), Value::Str("cgp-reduced-lossy-link".into())),
        ("depth".into(), Value::Int(3)),
        ("analysis".into(), Value::Str("solvability".into())),
        ("certificate".into(), Value::Bool(true)),
    ])
    .to_string();
    let cert_response =
        expect_ok("POST /v1/check (certificate)", client.post_json("/v1/check", &cert_body))?;
    let cert_record = json::parse(&cert_response).map_err(|e| format!("certificate check: {e}"))?;
    let Some(cert_json) = cert_record.get("certificate") else {
        return Err("certificate-requesting check answered without a certificate".to_string());
    };
    let cert = consensus_core::Certificate::from_json(cert_json)
        .map_err(|e| format!("served certificate does not decode: {e}"))?;
    let ma = consensus_lab::session::certificate_adversary(cert.adversary())
        .map_err(|e| format!("served certificate names an unbuildable adversary: {e}"))?;
    const CERT_VERIFY_ROUNDS: u32 = 1000;
    let t3 = Instant::now();
    for _ in 0..CERT_VERIFY_ROUNDS {
        consensus_core::certificate::verify(&cert, ma.as_ref())
            .map_err(|e| format!("served certificate failed verification: {e}"))?;
    }
    let cert_verify_ms =
        crate::metrics::round3(t3.elapsed().as_secs_f64() * 1e3 / f64::from(CERT_VERIFY_ROUNDS));
    let ms = |d: std::time::Duration| crate::metrics::round3(d.as_secs_f64() * 1e3);
    let warm_rps = warm_requests as f64 / warm_wall.as_secs_f64().max(1e-9);
    let datum = Value::Obj(vec![
        ("bench".into(), Value::Str("serve".into())),
        ("scenarios".into(), Value::Int(grid.len() as i64)),
        ("connections".into(), Value::Int(connections as i64)),
        ("requests_warm".into(), Value::Int(warm_requests as i64)),
        ("builds_cold".into(), Value::Int((after_cold.builds - before.builds) as i64)),
        (
            "ladder_hits_cold".into(),
            Value::Int((after_cold.ladder_hits - before.ladder_hits) as i64),
        ),
        ("sweep_new_builds".into(), Value::Int((after_sweep.builds - after_cold.builds) as i64)),
        ("warm_new_builds".into(), Value::Int(warm_new_builds as i64)),
        ("cold_ms".into(), Value::Float(ms(cold_wall))),
        ("sweep_ms".into(), Value::Float(ms(sweep_wall))),
        ("warm_ms".into(), Value::Float(ms(warm_wall))),
        ("warm_p50_ms".into(), Value::Float(quantile_ms(&warm_latency, 0.5))),
        ("warm_p90_ms".into(), Value::Float(quantile_ms(&warm_latency, 0.9))),
        ("warm_p99_ms".into(), Value::Float(quantile_ms(&warm_latency, 0.99))),
        ("warm_rps".into(), Value::Float(crate::metrics::round3(warm_rps))),
        ("cert_verify_ms".into(), Value::Float(cert_verify_ms)),
    ]);
    let summary = format!(
        "{scenarios} scenarios against {addr}: cold pass {cold:.1?} \
         ({builds} expansions, {ladders} ladder extensions), sweep {sweep:.1?}, \
         warm pass {warm:.1?} ({connections} conns × {per_connection} reqs, \
         {warm_new_builds} new expansions, {rps:.0} req/s); \
         {total} requests served",
        scenarios = grid.len(),
        cold = cold_wall,
        builds = after_cold.builds - before.builds,
        ladders = after_cold.ladder_hits - before.ladder_hits,
        sweep = sweep_wall,
        warm = warm_wall,
        rps = warm_rps,
        total = after_warm.requests_total,
    );
    Ok(LoadGenReport { datum, records_jsonl, warm_new_builds, summary })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_contained_run_is_warm_after_cold() {
        let cfg = LoadGenConfig {
            connections: 2,
            requests: 3,
            max_depth: 2,
            analyses: vec![AnalysisKind::Solvability, AnalysisKind::ComponentStats],
            assert_warm: true,
            server_threads: 2,
            ..LoadGenConfig::default()
        };
        let report = run(&cfg).expect("self-contained bench run");
        assert_eq!(report.warm_new_builds, 0);
        assert_eq!(report.datum.get("bench").unwrap().as_str(), Some("serve"));
        let scenarios = report.datum.get_usize("scenarios").unwrap();
        assert_eq!(scenarios, report.records_jsonl.lines().count());
        assert_eq!(report.datum.get_usize("requests_warm"), Some(6));
        assert!(report.datum.get_usize("builds_cold").unwrap() > 0);
        assert_eq!(report.datum.get_usize("sweep_new_builds"), Some(0));
        assert_eq!(report.datum.get_usize("warm_new_builds"), Some(0));
        // The merged per-connection histograms yield ordered percentiles.
        let q = |key: &str| report.datum.get(key).and_then(Value::as_f64).unwrap();
        assert!(q("warm_p50_ms") > 0.0);
        assert!(q("warm_p50_ms") <= q("warm_p90_ms"));
        assert!(q("warm_p90_ms") <= q("warm_p99_ms"));
        // The served certificate decoded, verified offline, and timed in
        // well under the "milliseconds" budget the docs promise.
        assert!(q("cert_verify_ms") > 0.0);
        assert!(q("cert_verify_ms") < 100.0, "{}", q("cert_verify_ms"));
    }
}
