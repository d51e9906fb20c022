//! Harvest of the program's own `obs` spans during the traced run, so the
//! benchmark's layer names line up with what `/v1/stats` and
//! `--trace-out` show an operator.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use consensus_obs::trace::{tracer, SpanRecord};

use crate::metrics::{Report, OBS_SPANS};

/// Program spans collected over the traced passes of one run.
#[derive(Debug)]
pub struct ObsHarvest {
    /// Span count and summed duration (µs) per span name.
    totals: BTreeMap<&'static str, (u64, u64)>,
    lines: Vec<String>,
    dropped_at_start: u64,
}

impl ObsHarvest {
    /// Start with the tracer off and its ring empty.
    pub fn start() -> Self {
        let t = tracer();
        t.disable();
        let _ = t.drain();
        ObsHarvest { totals: BTreeMap::new(), lines: Vec::new(), dropped_at_start: t.dropped() }
    }

    /// Run `f` with the tracer on, then drain what it recorded.
    pub fn traced<T>(&mut self, f: impl FnOnce() -> T) -> T {
        tracer().enable();
        let out = f();
        tracer().disable();
        self.absorb(tracer().drain());
        out
    }

    fn absorb(&mut self, records: Vec<SpanRecord>) {
        for record in records {
            let entry = self.totals.entry(record.name).or_default();
            entry.0 += 1;
            entry.1 += record.dur_us;
            self.lines.push(record.to_jsonl());
        }
    }

    /// Summed duration of spans named `name`, in ms.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |t| t.1 as f64 / 1e3)
    }

    /// Report `obs.spans`, `obs.dropped` and `obs.span.<name>_ms`.
    pub fn report(&self, r: &mut Report) {
        r.set("obs.spans", self.totals.values().map(|t| t.0).sum::<u64>() as f64);
        r.set("obs.dropped", tracer().dropped().saturating_sub(self.dropped_at_start) as f64);
        for name in OBS_SPANS {
            r.set(&format!("obs.span.{name}_ms"), self.span_ms(name));
        }
    }

    /// Write every harvested span as one JSON line.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for line in &self.lines {
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}
