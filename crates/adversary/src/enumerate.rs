//! Exhaustive expansion of the depth-`t` prefix space.
//!
//! The paper's ε-approximation machinery (Definition 6.2, Theorem 6.6) is
//! computed on the finite set of *admissible runs at depth `t`*: every input
//! assignment crossed with every admissible graph-sequence prefix of length
//! `t`, with all process views interned in one shared [`ViewTable`]. This
//! module produces that set.
//!
//! # Engine shape
//!
//! Admissible sequences are enumerated into a [`SeqArena`]: one
//! `(parent, graph)` node per prefix, one `Arc`-shared level per depth.
//! Runs are never materialized one by one. Run `i` of an expansion is the
//! pair *(input index, frontier node)*, and a [`RunStore`] keeps the views
//! of all runs in one flat run-major matrix: `(depth + 1) × n` view ids per
//! run, so [`RunRef::view`] is a single indexed load.
//!
//! Views are interned **once per (input, prefix node)**, in level order:
//! the row of node `c` at depth `t` is interned from its parent's row at
//! depth `t − 1`, walking rows in (input, node) order. That is exactly the
//! order a one-round [`Expansion::extend`] uses, so a scratch build *is* a
//! ladder chain from depth 0 and both give byte-identical expansions — run
//! order, view ids and table contents.
//!
//! With `threads > 1` a level's rows are sharded: scoped worker threads
//! intern contiguous chunks of rows into private [`ShardTable`]s over the
//! shared base, and the shards are absorbed back **in chunk order**, which
//! reproduces the serial [`ViewId`] assignment (see [`ViewTable::absorb`]).
//! Output is byte-identical for every worker count, so fingerprint-keyed
//! caches and persisted verdicts never observe which engine produced a
//! space.
//!
//! Cloning an expansion copies `Arc`s, not runs: the arena levels, the
//! view table's chunks and per-time indexes, and the run matrix are all
//! shared. Extending a clone appends one arena level, one level of views
//! and a fresh matrix; everything below stays shared with the original.

use std::fmt;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use consensus_obs::metrics::{registry, Histogram};
use consensus_obs::trace::tracer;
use dyngraph::{GraphSeq, Pid, Round};
use ptgraph::{
    all_inputs, Inputs, LocalViews, RunViews, ShardTable, Value, ViewId, ViewInterner, ViewTable,
    MAX_VIEW_N,
};

use crate::arena::SeqArena;
use crate::MessageAdversary;

/// Contiguous chunks handed out per worker; more chunks than workers keeps
/// the pool busy when chunk costs skew.
const CHUNKS_PER_WORKER: usize = 4;

/// Telemetry of the engine pass that produced (or last extended) an
/// [`Expansion`] — surfaced through sweep reports.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExpandStats {
    /// Worker shards the widest interned level was cut into (1 = serial).
    pub shards: usize,
    /// Wall-clock milliseconds spent absorbing shard tables and remapping
    /// row views (zero for the serial path).
    pub merge_ms: f64,
    /// Approximate bytes held by the sequence arena.
    pub arena_bytes: usize,
}

/// The admissible runs of an expansion, stored flat; see the module docs.
///
/// With `k` admissible sequences, run `i` has input assignment `i / k`
/// (inputs in lexicographic order) and ends at frontier node `i % k` of
/// the arena.
#[derive(Clone, PartialEq)]
pub struct RunStore {
    n: usize,
    /// Frontier nodes of the arena: runs per input assignment.
    seqs: usize,
    /// Every input assignment, lexicographic.
    inputs: Arc<[Inputs]>,
    /// The admissible-prefix tree; its frontier is the expansion depth.
    arena: SeqArena,
    /// `views[(i * (depth + 1) + t) * n + p]` = view of `p` at time `t` in
    /// run `i`.
    views: Arc<Vec<ViewId>>,
}

impl RunStore {
    fn new(n: usize, inputs: Arc<[Inputs]>, arena: SeqArena, views: Vec<ViewId>) -> Self {
        let seqs = arena.level_len(arena.rounds());
        debug_assert_eq!(views.len(), inputs.len() * seqs * (arena.rounds() + 1) * n);
        RunStore { n, seqs, inputs, arena, views: Arc::new(views) }
    }

    /// Number of runs.
    pub fn len(&self) -> usize {
        self.inputs.len() * self.seqs
    }

    /// Whether there are no runs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The depth `t` of every run.
    fn depth(&self) -> usize {
        self.arena.rounds()
    }

    /// Run `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    pub fn get(&self, i: usize) -> RunRef<'_> {
        assert!(i < self.len(), "run {i} out of range");
        let rounds = self.depth();
        let stride = (rounds + 1) * self.n;
        RunRef {
            store: self,
            index: i,
            n: self.n,
            rounds,
            views: &self.views[i * stride..(i + 1) * stride],
        }
    }

    /// All runs, in order.
    pub fn iter(&self) -> Runs<'_> {
        Runs { store: self, range: 0..self.len() }
    }
}

impl<'a> IntoIterator for &'a RunStore {
    type Item = RunRef<'a>;
    type IntoIter = Runs<'a>;

    fn into_iter(self) -> Runs<'a> {
        self.iter()
    }
}

/// Iterator over the runs of a [`RunStore`], in order.
#[derive(Debug, Clone)]
pub struct Runs<'a> {
    store: &'a RunStore,
    range: Range<usize>,
}

impl<'a> Iterator for Runs<'a> {
    type Item = RunRef<'a>;

    fn next(&mut self) -> Option<RunRef<'a>> {
        self.range.next().map(|i| self.store.get(i))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl DoubleEndedIterator for Runs<'_> {
    fn next_back(&mut self) -> Option<Self::Item> {
        self.range.next_back().map(|i| self.store.get(i))
    }
}

impl ExactSizeIterator for Runs<'_> {}

impl fmt::Debug for RunStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RunStore")
            .field("runs", &self.len())
            .field("depth", &self.depth())
            .field("n", &self.n)
            .finish()
    }
}

/// One run of a [`RunStore`]: a cheap `Copy` handle onto its view rows.
#[derive(Clone, Copy)]
pub struct RunRef<'a> {
    store: &'a RunStore,
    index: usize,
    n: usize,
    rounds: usize,
    /// `(rounds + 1) × n` views, time-major.
    views: &'a [ViewId],
}

impl<'a> RunRef<'a> {
    /// The run's index in its store.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The input assignment.
    pub fn inputs(&self) -> &'a [Value] {
        &self.store.inputs[self.index / self.store.seqs]
    }

    /// The graph-sequence prefix, materialized from the arena.
    pub fn seq(&self) -> GraphSeq {
        self.store.arena.seq(self.rounds, self.index % self.store.seqs)
    }

    /// Number of processes.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of rounds `T` of the prefix.
    #[inline]
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// The interned view of `p` at time `t` (`0 ≤ t ≤ rounds()`).
    ///
    /// # Panics
    /// Panics if `p` or `t` is out of range.
    #[inline]
    pub fn view(&self, p: Pid, t: usize) -> ViewId {
        assert!(p < self.n, "process {p} out of range");
        self.views[t * self.n + p]
    }

    /// All views at time `t`, indexed by process.
    #[inline]
    pub fn views_at(&self, t: usize) -> &'a [ViewId] {
        &self.views[t * self.n..(t + 1) * self.n]
    }

    /// Whether this run is `v`-valent: every process starts with `v`.
    pub fn is_valent(&self, v: Value) -> bool {
        self.inputs().iter().all(|&x| x == v)
    }

    /// `p`'s broadcast completion time within the prefix (see
    /// [`RunViews::broadcast_complete`]).
    pub fn broadcast_complete(&self, p: Pid, table: &ViewTable) -> Option<Round> {
        RunViews::broadcast_complete(self, p, table)
    }
}

impl RunViews for RunRef<'_> {
    #[inline]
    fn n(&self) -> usize {
        self.n
    }

    #[inline]
    fn rounds(&self) -> usize {
        self.rounds
    }

    #[inline]
    fn view(&self, p: Pid, t: usize) -> ViewId {
        RunRef::view(self, p, t)
    }
}

impl fmt::Debug for RunRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Run(x={:?}, σ={})", self.inputs(), self.seq())
    }
}

/// The expanded prefix space at a fixed depth.
///
/// Cloning shares every level (arena, views, run matrix) behind `Arc`s, so
/// a caching layer can *ladder* a cached expansion to a deeper one without
/// copying the original.
#[derive(Debug, Clone)]
pub struct Expansion {
    /// All admissible runs: `inputs × admissible sequences`, in
    /// deterministic order (inputs lexicographic, sequences in expansion
    /// order).
    pub runs: RunStore,
    /// The shared view interner; run views reference it.
    pub table: ViewTable,
    /// The expansion depth `t` (every run has exactly `t` rounds).
    pub depth: usize,
    /// The input domain used.
    pub values: Vec<Value>,
    /// Engine telemetry of the pass that built or last extended this
    /// expansion.
    pub stats: ExpandStats,
}

impl Expansion {
    /// Number of admissible graph sequences (runs per input assignment).
    /// Saturates (to 0 sequences) when the input count itself overflows
    /// `usize` — wide domains must not panic here.
    pub fn sequence_count(&self) -> usize {
        let inputs = self.values.len().checked_pow(self.n() as u32).unwrap_or(usize::MAX);
        self.runs.len().checked_div(inputs).unwrap_or(0)
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.table.n()
    }

    /// Indices of the `v`-valent runs (all processes start with `v`).
    pub fn valent_runs(&self, v: Value) -> Vec<usize> {
        self.runs.iter().filter(|r| r.is_valent(v)).map(|r| r.index()).collect()
    }
}

/// Error: the expansion would exceed the run budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetExceeded {
    /// The budget that was exceeded.
    pub max_runs: usize,
    /// A lower bound on the number of runs the expansion would produce.
    pub needed: usize,
}

impl fmt::Display for BudgetExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "prefix-space expansion needs ≥ {} runs, budget is {}",
            self.needed, self.max_runs
        )
    }
}

impl std::error::Error for BudgetExceeded {}

/// All admissible graph-sequence prefixes of length `depth`.
pub fn admissible_sequences(ma: &dyn MessageAdversary, depth: usize) -> Vec<GraphSeq> {
    let mut arena = SeqArena::new();
    for _ in 0..depth {
        arena.grow(ma, None).expect("growth without a budget cannot fail");
    }
    arena.into_frontier_seqs()
}

/// The number of input assignments `|values|^n`, saturated — the budget
/// comparisons treat an overflowing count as "over any budget".
fn inputs_count(values: &[Value], n: usize) -> usize {
    values.len().checked_pow(n as u32).unwrap_or(usize::MAX)
}

/// Expand the full prefix space: every input assignment over `values`
/// crossed with every admissible depth-`depth` sequence. Serial engine —
/// see [`expand_with`] for the sharded one (identical output).
///
/// # Errors
/// Returns [`BudgetExceeded`] if more than `max_runs` runs would be
/// produced (the sequence tree is counted before any views are interned, so
/// failing is cheap).
///
/// # Panics
/// Panics if the adversary has more than [`MAX_VIEW_N`] processes.
pub fn expand(
    ma: &dyn MessageAdversary,
    values: &[Value],
    depth: usize,
    max_runs: usize,
) -> Result<Expansion, BudgetExceeded> {
    expand_with(ma, values, depth, max_runs, 1)
}

/// [`expand`] with each level's view interning sharded over `threads`
/// scoped workers (`≤ 1` = serial). The output — run order, interned view
/// ids, table contents — is **byte-identical** for every thread count; only
/// [`Expansion::stats`] records which engine ran.
///
/// # Errors
/// Returns [`BudgetExceeded`] exactly as [`expand`] would (the pre-count
/// runs before any views are interned).
///
/// # Panics
/// Panics if the adversary has more than [`MAX_VIEW_N`] processes, the
/// largest system views support.
pub fn expand_with(
    ma: &dyn MessageAdversary,
    values: &[Value],
    depth: usize,
    max_runs: usize,
    threads: usize,
) -> Result<Expansion, BudgetExceeded> {
    let n = ma.n();
    assert!(n <= MAX_VIEW_N, "prefix spaces support n ≤ {MAX_VIEW_N} processes, got {n}");
    let inputs_count = inputs_count(values, n);
    let mut arena = SeqArena::new();
    for _ in 0..depth {
        arena
            .grow(ma, Some((inputs_count, max_runs)))
            .map_err(|e| BudgetExceeded { max_runs, needed: e.needed })?;
    }
    let mut table = ViewTable::new(n);
    let inputs: Arc<[Inputs]> = all_inputs(n, values).into();
    let mut views: Vec<ViewId> = {
        let mut span = tracer().span("expand.level").with_attr("depth", 0usize);
        let row = inputs.iter().flat_map(|x| (0..n).map(|p| (p, x[p])));
        let views: Vec<ViewId> = row.map(|(p, x)| table.intern_initial(p, x)).collect();
        span.set_attr("rows", inputs.len());
        span.set_attr("views", table.len());
        views
    };
    let mut stats = ExpandStats { shards: 1, merge_ms: 0.0, arena_bytes: arena.approx_bytes() };
    for level in 1..=depth {
        views = intern_level(&mut table, &arena, level, inputs.len(), &views, threads, &mut stats);
    }
    let runs = RunStore::new(n, inputs, arena, views);
    Ok(Expansion { runs, table, depth, values: values.to_vec(), stats })
}

/// Convenience: binary inputs `{0, 1}`.
///
/// # Errors
/// See [`expand`].
pub fn expand_binary(
    ma: &dyn MessageAdversary,
    depth: usize,
    max_runs: usize,
) -> Result<Expansion, BudgetExceeded> {
    expand(ma, &[0, 1], depth, max_runs)
}

/// Intern depth `level` of the arena — one row per (input, node), in that
/// order — on top of `old`, the run matrix at depth `level − 1`, and return
/// the run matrix at depth `level`. With `threads > 1` the rows are cut
/// into contiguous chunks, each interned into a private [`ShardTable`] and
/// absorbed back in chunk order (see [`sharded_rows`]).
fn intern_level(
    table: &mut ViewTable,
    arena: &SeqArena,
    level: usize,
    input_count: usize,
    old: &[ViewId],
    threads: usize,
    stats: &mut ExpandStats,
) -> Vec<ViewId> {
    let mut span = tracer().span("expand.level").with_attr("depth", level);
    let start = Instant::now();
    let views_before = table.len();
    let rows = input_count * arena.level_len(level);
    let chunks = rows.min(threads.saturating_mul(CHUNKS_PER_WORKER));
    let views = if threads <= 1 || chunks < 2 {
        let mut views = Vec::with_capacity(rows * (level + 1) * table.n());
        fill_rows(table, arena, level, old, 0..rows, &mut views);
        views
    } else {
        sharded_rows(table, arena, level, old, rows, threads, chunks, stats)
    };
    stage_level().record_duration(start.elapsed());
    span.set_attr("rows", rows);
    span.set_attr("views", table.len() - views_before);
    views
}

/// Append the runs of rows `range` of depth `level` to `out`: each run is
/// its parent run's views (from `old`) plus one freshly interned row.
fn fill_rows<T: ViewInterner>(
    table: &mut T,
    arena: &SeqArena,
    level: usize,
    old: &[ViewId],
    range: Range<usize>,
    out: &mut Vec<ViewId>,
) {
    let n = table.n();
    let parent_stride = level * n;
    let (nodes, parent_nodes) = (arena.level_len(level), arena.level_len(level - 1));
    for row in range {
        let (xi, c) = (row / nodes, row % nodes);
        let parent = (xi * parent_nodes + arena.parent(level, c)) * parent_stride;
        out.extend_from_slice(&old[parent..parent + parent_stride]);
        let at = out.len();
        out.extend_from_within(at - n..at);
        let (done, fresh) = out.split_at_mut(at);
        table.intern_row(&done[at - n..], arena.graph(level, c), fresh);
    }
}

/// Registry histogram of interning one level of views (nanoseconds) —
/// the `expand.level` span's twin in `/v1/stats`.
fn stage_level() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("stage.expand.level"))
}

/// [`fill_rows`] over all `rows` of a level, cut into `chunk_count`
/// chunks of rows: scoped workers intern each chunk into a [`ShardTable`]
/// over `table`, and the shards are absorbed back in chunk order; see
/// [`intern_level`].
#[allow(clippy::too_many_arguments)]
fn sharded_rows(
    table: &mut ViewTable,
    arena: &SeqArena,
    level: usize,
    old: &[ViewId],
    rows: usize,
    threads: usize,
    chunk_count: usize,
    stats: &mut ExpandStats,
) -> Vec<ViewId> {
    type ChunkSlot = Mutex<Option<(Vec<ViewId>, LocalViews)>>;
    let slots: Vec<ChunkSlot> = (0..chunk_count).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Workers run on their own threads, so shard spans parent to the
    // caller's innermost span (`expand.level`) explicitly.
    let span_parent = tracer().current_id();
    let base: &ViewTable = table;
    let work = || loop {
        let c = next.fetch_add(1, Ordering::Relaxed);
        if c >= chunk_count {
            break;
        }
        let range = c * rows / chunk_count..(c + 1) * rows / chunk_count;
        let mut span = tracer().span_under("shard", span_parent);
        span.set_attr("chunk", c);
        span.set_attr("rows", range.len());
        let mut views = Vec::with_capacity(range.len() * (level + 1) * base.n());
        let mut shard = ShardTable::new(base);
        fill_rows(&mut shard, arena, level, old, range, &mut views);
        *slots[c].lock().expect("shard slot poisoned") = Some((views, shard.into_local()));
    };
    // The calling thread works too.
    std::thread::scope(|scope| {
        for _ in 1..threads.min(chunk_count) {
            scope.spawn(work);
        }
        work();
    });
    let start = Instant::now();
    let _span = tracer().span_under("absorb", span_parent).with_attr("shards", chunk_count);
    let mut all = Vec::with_capacity(rows * (level + 1) * table.n());
    for slot in slots {
        let done = slot.into_inner().expect("shard slot poisoned");
        let (mut views, local) = done.expect("every chunk was claimed by a worker");
        let remap = table.absorb(&local);
        local.remap(&mut views, &remap);
        all.append(&mut views);
    }
    stats.merge_ms += start.elapsed().as_secs_f64() * 1e3;
    stats.shards = stats.shards.max(chunk_count);
    all
}

impl Expansion {
    /// Extend the expansion by one round in place: every run is replaced by
    /// its admissible one-round extensions, reusing the interned views of
    /// the shorter runs (the incremental path of the checker's depth
    /// sweep — each view is interned exactly once across the whole sweep).
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] if the extended space would exceed
    /// `max_runs`; the expansion is left unchanged in that case.
    pub fn extend(
        &mut self,
        ma: &dyn MessageAdversary,
        max_runs: usize,
    ) -> Result<(), BudgetExceeded> {
        self.extend_with(ma, max_runs, 1)
    }

    /// [`extend`](Self::extend) with the new level's view interning sharded
    /// over `threads` scoped workers (`≤ 1` = serial); output is
    /// byte-identical for every thread count, and to a scratch
    /// [`expand_with`] at the deeper depth.
    ///
    /// The arena grows by one level (`ma.extensions` once per frontier
    /// node); the lower levels, views and the old run matrix are only read.
    ///
    /// # Errors
    /// Returns [`BudgetExceeded`] if the extension would exceed `max_runs`;
    /// the expansion is left unchanged in that case. Growth stops at the
    /// first new prefix that puts the level over the budget, and `needed`
    /// is the runs the prefixes found so far imply.
    pub fn extend_with(
        &mut self,
        ma: &dyn MessageAdversary,
        max_runs: usize,
        threads: usize,
    ) -> Result<(), BudgetExceeded> {
        let inputs = self.runs.inputs.len();
        let mut arena = self.runs.arena.clone();
        arena
            .grow(ma, Some((inputs, max_runs)))
            .map_err(|e| BudgetExceeded { max_runs, needed: e.needed })?;
        let level = arena.rounds();
        let mut stats = ExpandStats { shards: 1, merge_ms: 0.0, arena_bytes: arena.approx_bytes() };
        let views = intern_level(
            &mut self.table,
            &arena,
            level,
            inputs,
            &self.runs.views,
            threads,
            &mut stats,
        );
        self.runs = RunStore::new(self.runs.n, Arc::clone(&self.runs.inputs), arena, views);
        self.depth = level;
        self.stats = stats;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneralMA;
    use dyngraph::{generators, Digraph};

    #[test]
    fn oblivious_counts() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        for depth in 0..4 {
            let seqs = admissible_sequences(&ma, depth);
            assert_eq!(seqs.len(), 3usize.pow(depth as u32));
        }
        let e = expand_binary(&ma, 2, 10_000).unwrap();
        assert_eq!(e.runs.len(), 4 * 9);
        assert_eq!(e.sequence_count(), 9);
        assert_eq!(e.depth, 2);
    }

    #[test]
    fn expansion_runs_have_uniform_depth() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let e = expand_binary(&ma, 3, 10_000).unwrap();
        assert!(e.runs.iter().all(|r| r.rounds() == 3));
    }

    #[test]
    fn valent_runs_found() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let e = expand_binary(&ma, 2, 10_000).unwrap();
        let z0 = e.valent_runs(0);
        let z1 = e.valent_runs(1);
        assert_eq!(z0.len(), 4); // 2^2 sequences with inputs (0,0)
        assert_eq!(z1.len(), 4);
        assert!(e.runs.get(z0[0]).is_valent(0));
    }

    #[test]
    fn budget_enforced() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let err = expand_binary(&ma, 8, 100).unwrap_err();
        assert!(err.needed > 100);
        assert!(err.to_string().contains("budget"));
    }

    #[test]
    fn liveness_prunes_sequences() {
        // ↔ within 2 rounds: sequences of length 2 = those containing ↔.
        let ma = GeneralMA::eventually_graph(
            generators::lossy_link_full(),
            Digraph::parse2("<->").unwrap(),
            Some(2),
        );
        let seqs = admissible_sequences(&ma, 2);
        // 9 total over the pool; admissible: ↔ in round 1 (3) + ↔ in round 2
        // with round 1 ≠ ↔ (2) = 5.
        assert_eq!(seqs.len(), 5);
        for s in &seqs {
            assert!(s.iter().any(|g| g.arrow2() == Some("<->")));
        }
    }

    #[test]
    fn deadline_zero_depth() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let seqs = admissible_sequences(&ma, 0);
        assert_eq!(seqs.len(), 1);
        assert!(seqs[0].is_empty());
    }

    #[test]
    fn expansion_views_shared() {
        // Runs with identical prefixes share interned views.
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let e = expand_binary(&ma, 1, 1000).unwrap();
        // Find two runs with the same inputs and the same 1-round sequence:
        // they are the same run computed once each — views must coincide.
        let a = e.runs.get(0);
        let same: Vec<RunRef<'_>> = e
            .runs
            .iter()
            .filter(|r| r.inputs() == a.inputs() && r.seq() == a.seq())
            .collect();
        for r in same {
            assert_eq!(r.views_at(1), a.views_at(1));
        }
    }

    #[test]
    fn parallel_expand_byte_identical_to_serial() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let serial = expand(&ma, &[0, 1], 3, 1_000_000).unwrap();
        for threads in [2, 3, 8] {
            let par = expand_with(&ma, &[0, 1], 3, 1_000_000, threads).unwrap();
            assert_eq!(par.runs, serial.runs, "threads={threads}");
            assert_eq!(par.table, serial.table, "threads={threads}");
            assert!(par.stats.shards > 1, "threads={threads} must shard");
        }
    }

    #[test]
    fn parallel_extend_byte_identical_to_serial() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let mut serial = expand(&ma, &[0, 1], 1, 1_000_000).unwrap();
        let mut par = serial.clone();
        for _ in 0..3 {
            serial.extend(&ma, 1_000_000).unwrap();
            par.extend_with(&ma, 1_000_000, 4).unwrap();
            assert_eq!(par.runs, serial.runs);
            assert_eq!(par.table, serial.table);
        }
    }

    #[test]
    fn parallel_budget_error_matches_serial() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let a = expand(&ma, &[0, 1], 8, 100).unwrap_err();
        let b = expand_with(&ma, &[0, 1], 8, 100, 4).unwrap_err();
        assert_eq!(a, b);
        let mut space = expand(&ma, &[0, 1], 2, 1_000_000).unwrap();
        let c = space.clone().extend(&ma, 10).unwrap_err();
        let d = space.extend_with(&ma, 10, 4).unwrap_err();
        assert_eq!(c, d);
    }

    /// Counts `extensions` calls on the full lossy link.
    struct CountingMA {
        inner: GeneralMA,
        calls: AtomicUsize,
    }

    impl MessageAdversary for CountingMA {
        fn n(&self) -> usize {
            self.inner.n()
        }
        fn extensions(&self, prefix: &GraphSeq) -> Vec<Digraph> {
            self.calls.fetch_add(1, Ordering::Relaxed);
            self.inner.extensions(prefix)
        }
        fn admits_prefix(&self, prefix: &GraphSeq) -> bool {
            self.inner.admits_prefix(prefix)
        }
        fn admits_lasso(&self, lasso: &dyngraph::Lasso) -> Option<bool> {
            self.inner.admits_lasso(lasso)
        }
        fn is_compact(&self) -> bool {
            self.inner.is_compact()
        }
        fn describe(&self) -> String {
            self.inner.describe()
        }
    }

    #[test]
    fn ladder_over_budget_stops_growing_early() {
        let ma = CountingMA {
            inner: GeneralMA::oblivious(generators::lossy_link_full()),
            calls: AtomicUsize::new(0),
        };
        let mut space = expand(&ma, &[0, 1], 6, 1_000_000).unwrap();
        let before = space.clone();
        ma.calls.store(0, Ordering::Relaxed);
        // 3^6 frontier nodes; 4 inputs × 3 children each blow a budget of
        // 40 runs after four new prefixes.
        let err = space.extend(&ma, 40).unwrap_err();
        assert_eq!(err, BudgetExceeded { max_runs: 40, needed: 44 });
        assert_eq!(ma.calls.load(Ordering::Relaxed), 4, "growth must stop at the budget");
        assert_eq!(space.runs, before.runs);
        assert_eq!(space.table, before.table);
    }

    #[test]
    #[should_panic(expected = "prefix spaces support n ≤ 8")]
    fn oversized_systems_are_rejected_at_the_entry() {
        let ma = GeneralMA::oblivious(vec![Digraph::empty(9)]);
        let _ = expand_binary(&ma, 0, 10);
    }

    #[test]
    fn sequence_count_saturates_instead_of_panicking() {
        // A domain/process combination whose input count overflows usize:
        // 2^... — fabricate via a tiny expansion and a huge fake domain.
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let mut e = expand_binary(&ma, 1, 1000).unwrap();
        // 3 billion-ish values ^ 2 processes overflows on 32-bit, not 64 —
        // drive n instead: values^n with values.len()=2, n=2 is fine, so
        // patch the domain to a width that overflows: len 2^33 is not
        // constructible; instead check the checked path by direct call.
        e.values = vec![0; 1 << 17];
        // (2^17)^2 = 2^34 — fits in u64 but sequence_count must not panic
        // and must floor-divide to 0 sequences.
        assert_eq!(e.sequence_count(), 0);
    }
}
