//! Benchmark-side spans: every call the traced replay makes into a layer
//! is wrapped in one. A span has a name, a start, an end and a parent;
//! spans of one operation share an operation id. They are kept in memory
//! and written out as JSONL when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct Span {
    /// The operation this span belongs to.
    pub op: u64,
    /// The layer call, e.g. `adversary.arena`.
    pub name: &'static str,
    /// Index of the enclosing span in the recorder.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created (`start_ns` while open).
    pub end_ns: u64,
    /// Whether the call failed or its result disagreed with the reference.
    pub failed: bool,
}

/// Per-layer totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded under the name.
    pub count: usize,
    /// Duration minus the time covered by child spans, in nanoseconds.
    pub self_ns: u64,
    /// Spans marked failed.
    pub failures: usize,
}

/// An in-memory span recorder with a stack of open spans.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), op: 0 }
    }
}

impl Spans {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start a new operation: spans opened from now on share its id.
    pub fn begin_op(&mut self) -> u64 {
        self.op += 1;
        self.op
    }

    /// Open a span under the innermost open one; returns its handle.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            failed: false,
        });
        self.open.push(id);
        id
    }

    /// Close span `id` (and any span left open inside it).
    pub fn exit(&mut self, id: usize, ok: bool) {
        let end_ns = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = end_ns;
            if top == id {
                break;
            }
        }
        self.spans[id].failed |= !ok;
    }

    /// Run `f` inside a span named `name`. `ok` judges the result after
    /// the span closes (so checking is not timed); a wrong result marks
    /// the span failed.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce() -> T,
        ok: impl FnOnce(&T) -> bool,
    ) -> T {
        let id = self.enter(name);
        let out = std::hint::black_box(f());
        self.exit(id, true);
        if !ok(&out) {
            self.fail(id);
        }
        out
    }

    /// Mark span `id` failed after the fact (a later cross-check failed).
    pub fn fail(&mut self, id: usize) {
        self.spans[id].failed = true;
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Count, self time and failures per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, LayerTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            let t = out.entry(span.name).or_default();
            t.count += 1;
            t.self_ns += (span.end_ns - span.start_ns).saturating_sub(child_ns[i]);
            t.failures += usize::from(span.failed);
        }
        out
    }

    /// Write every span as one JSON line to `path`.
    ///
    /// # Errors
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"failed\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.failed
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut spans = Spans::default();
        spans.begin_op();
        let root = spans.enter("root");
        let child = spans.enter("child");
        std::thread::sleep(std::time::Duration::from_millis(5));
        spans.exit(child, false);
        spans.exit(root, true);
        let totals = spans.totals();
        assert!(totals["child"].self_ns >= 5_000_000);
        assert!(totals["root"].self_ns < totals["child"].self_ns);
        assert_eq!(totals["child"].failures, 1);
        assert_eq!(spans.spans()[child].parent, Some(root));
        assert_eq!(spans.spans()[child].op, 1);
    }
}
