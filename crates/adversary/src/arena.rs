//! Dense-ID arena for admissible graph-sequence prefixes.
//!
//! The expansion engine enumerates the tree of admissible prefixes round by
//! round. Instead of materializing every intermediate prefix as its own
//! [`GraphSeq`] (a full `Vec<Digraph>` clone per node per round), the arena
//! stores one `(parent, round graph)` pair per node, one level per depth.
//! Sequence identity becomes a dense index — the key property the flat run
//! store relies on: run `i` of an expansion is `(input, frontier node)`,
//! and extensions are computed **once per frontier node**, never by hashing
//! a `GraphSeq`.
//!
//! Levels sit behind `Arc`: growing a clone by one round shares every
//! existing level with the original, which is what lets a ladder rung keep
//! its ancestor's arena instead of copying it.

use std::ops::{ControlFlow, Range};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use consensus_obs::metrics::{registry, Histogram};
use consensus_obs::trace::tracer;
use dyngraph::{Digraph, GraphSeq};

use crate::MessageAdversary;

/// Registry histogram of one round of arena growth (nanoseconds) — the
/// `seq.enumerate` span's twin in `/v1/stats`.
fn stage_enumerate() -> &'static Arc<Histogram> {
    static HIST: OnceLock<Arc<Histogram>> = OnceLock::new();
    HIST.get_or_init(|| registry().histogram("stage.seq.enumerate"))
}

/// The nodes of one depth: node `i` extends node `parents[i]` of the
/// previous depth by `graphs[i]` (both empty for the root level).
#[derive(Debug, Default, PartialEq)]
struct SeqLevel {
    parents: Vec<u32>,
    graphs: Vec<Digraph>,
}

/// The admissible-prefix tree of one adversary, grown breadth-first.
///
/// Node 0 is the empty prefix; nodes of depth `r` occupy the contiguous id
/// range `round_range(r)`, in the order their parents were extended. Every
/// non-root node records its parent and the graph of its last round only.
#[derive(Debug, Clone, PartialEq)]
pub struct SeqArena {
    /// `levels[r]` holds the depth-`r` nodes; level 0 is the root alone.
    levels: Vec<Arc<SeqLevel>>,
    /// `round_offsets[r]` = first node id of depth `r`;
    /// `round_offsets[rounds() + 1]` = total node count.
    round_offsets: Vec<usize>,
}

/// Error: growing the arena one more round would exceed the run budget
/// (frontier size × input count, the same quantity the serial pre-count
/// checked).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaBudget {
    /// A lower bound on the runs the grown frontier implies.
    pub needed: usize,
}

impl SeqArena {
    /// The one-node arena holding only the empty prefix.
    pub fn new() -> Self {
        SeqArena { levels: vec![Arc::default()], round_offsets: vec![0, 1] }
    }

    /// Number of rounds grown so far (the depth of the frontier).
    pub fn rounds(&self) -> usize {
        self.levels.len() - 1
    }

    /// Total nodes, the root included.
    pub fn len(&self) -> usize {
        *self.round_offsets.last().expect("offsets nonempty")
    }

    /// Whether the arena holds only the root.
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// The id range of the depth-`r` nodes.
    ///
    /// # Panics
    /// Panics if `r > rounds()`.
    pub fn round_range(&self, r: usize) -> Range<usize> {
        self.round_offsets[r]..self.round_offsets[r + 1]
    }

    /// The id range of the deepest round.
    pub fn frontier(&self) -> Range<usize> {
        self.round_range(self.rounds())
    }

    /// Number of depth-`r` nodes.
    pub fn level_len(&self, r: usize) -> usize {
        self.round_range(r).len()
    }

    /// The parent of the `i`-th depth-`r` node, as an index into depth
    /// `r − 1`.
    ///
    /// # Panics
    /// Panics if `r == 0` or the node is out of range.
    pub fn parent(&self, r: usize, i: usize) -> usize {
        self.levels[r].parents[i] as usize
    }

    /// The last-round graph of the `i`-th depth-`r` node.
    ///
    /// # Panics
    /// Panics if `r == 0` or the node is out of range.
    pub fn graph(&self, r: usize, i: usize) -> &Digraph {
        &self.levels[r].graphs[i]
    }

    /// The sequence of the `i`-th depth-`r` node, walked up its parent
    /// chain.
    ///
    /// # Panics
    /// Panics if the node is out of range.
    pub fn seq(&self, r: usize, i: usize) -> GraphSeq {
        assert!(i < self.level_len(r), "node {i} of depth {r} out of range");
        let mut graphs: Vec<Digraph> = Vec::with_capacity(r);
        let mut i = i;
        for level in self.levels[1..=r].iter().rev() {
            graphs.push(level.graphs[i].clone());
            i = level.parents[i] as usize;
        }
        graphs.reverse();
        GraphSeq::from_graphs(graphs)
    }

    /// The materialized sequences of the frontier, in id order.
    pub fn frontier_seqs(&self) -> Vec<GraphSeq> {
        let mut out = Vec::with_capacity(self.level_len(self.rounds()));
        self.for_each_frontier_seq(|_, seq| {
            out.push(seq.clone());
            ControlFlow::Continue(())
        });
        out
    }

    /// Call `f(i, seq)` for every frontier node `i` in id order, until it
    /// breaks, with its sequence built in one rolling buffer: consecutive
    /// nodes share their common prefix, so only the rounds below the
    /// divergence are replaced.
    fn for_each_frontier_seq(&self, mut f: impl FnMut(usize, &GraphSeq) -> ControlFlow<()>) {
        let r = self.rounds();
        let mut seq = GraphSeq::new();
        // `path[l - 1]` = the depth-`l` ancestor held in `seq`.
        let mut path: Vec<usize> = Vec::with_capacity(r);
        let mut ancestors = vec![0usize; r];
        for i in 0..self.level_len(r) {
            let mut node = i;
            for l in (1..=r).rev() {
                ancestors[l - 1] = node;
                node = self.levels[l].parents[node] as usize;
            }
            let keep = path.iter().zip(&ancestors).take_while(|(a, b)| a == b).count();
            seq.truncate(keep);
            path.truncate(keep);
            for (l, &node) in ancestors.iter().enumerate().skip(keep) {
                seq.push(self.levels[l + 1].graphs[node].clone());
                path.push(node);
            }
            if f(i, &seq).is_break() {
                return;
            }
        }
    }

    /// Consume the arena, keeping only the materialized frontier.
    pub fn into_frontier_seqs(self) -> Vec<GraphSeq> {
        self.frontier_seqs()
    }

    /// Materialize the sequence of an arbitrary node id.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    pub fn materialize(&self, id: usize) -> GraphSeq {
        assert!(id < self.len(), "node {id} out of range");
        let r = self.round_offsets.partition_point(|&o| o <= id) - 1;
        self.seq(r, id - self.round_offsets[r])
    }

    /// Grow the frontier by one round: every frontier node is extended by
    /// its admissible extensions (asked of `ma` exactly once per node).
    ///
    /// With `budget = Some((inputs_count, max_runs))`, the growth aborts as
    /// soon as the partially-built next frontier already implies more than
    /// `max_runs` runs — the same early-abort pre-count the serial engine
    /// performs, reported with the same `needed` lower bound. On error the
    /// arena is left at the previous round.
    ///
    /// # Errors
    /// Returns [`ArenaBudget`] on budget exhaustion.
    pub fn grow(
        &mut self,
        ma: &dyn MessageAdversary,
        budget: Option<(usize, usize)>,
    ) -> Result<(), ArenaBudget> {
        let mut span = tracer().span("seq.enumerate").with_attr("depth", self.rounds() + 1);
        let start = Instant::now();
        let mut next = SeqLevel::default();
        let mut over: Option<ArenaBudget> = None;
        self.for_each_frontier_seq(|i, seq| {
            for g in ma.extensions(seq) {
                next.parents.push(u32::try_from(i).expect("arena overflow"));
                next.graphs.push(g);
                if let Some((inputs_count, max_runs)) = budget {
                    let needed = next.parents.len().saturating_mul(inputs_count);
                    if needed > max_runs {
                        over = Some(ArenaBudget { needed });
                        return ControlFlow::Break(());
                    }
                }
            }
            ControlFlow::Continue(())
        });
        if let Some(err) = over {
            return Err(err);
        }
        stage_enumerate().record_duration(start.elapsed());
        span.set_attr("nodes", next.parents.len());
        self.round_offsets.push(self.len() + next.parents.len());
        self.levels.push(Arc::new(next));
        Ok(())
    }

    /// A rough heap footprint in bytes (nodes and offsets) — telemetry for
    /// sweep reports, not an allocator measurement.
    pub fn approx_bytes(&self) -> usize {
        let node = std::mem::size_of::<u32>() + std::mem::size_of::<Digraph>();
        (self.len() - 1) * node + self.round_offsets.len() * std::mem::size_of::<usize>()
    }
}

impl Default for SeqArena {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GeneralMA;
    use dyngraph::generators;

    #[test]
    fn grows_like_the_naive_enumeration() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let mut arena = SeqArena::new();
        for depth in 0..4 {
            assert_eq!(arena.rounds(), depth);
            assert_eq!(arena.frontier().len(), 3usize.pow(depth as u32));
            // Frontier materializations agree with parent-chain walks.
            for (slot, id) in arena.frontier().enumerate() {
                assert_eq!(arena.materialize(id), arena.frontier_seqs()[slot]);
            }
            arena.grow(&ma, None).unwrap();
        }
        assert_eq!(arena.len(), 1 + 3 + 9 + 27 + 81);
    }

    #[test]
    fn round_ranges_partition_ids() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let mut arena = SeqArena::new();
        for _ in 0..3 {
            arena.grow(&ma, None).unwrap();
        }
        let mut seen = 0;
        for r in 0..=arena.rounds() {
            let range = arena.round_range(r);
            assert_eq!(range.start, seen);
            seen = range.end;
        }
        assert_eq!(seen, arena.len());
    }

    #[test]
    fn budget_aborts_and_rolls_back() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let mut arena = SeqArena::new();
        arena.grow(&ma, None).unwrap();
        let len_before = arena.len();
        let rounds_before = arena.rounds();
        // 9 next-frontier nodes × 4 inputs = 36 > 20.
        let err = arena.grow(&ma, Some((4, 20))).unwrap_err();
        assert!(err.needed > 20);
        assert_eq!(arena.len(), len_before);
        assert_eq!(arena.rounds(), rounds_before);
        // The arena still grows fine with a sufficient budget.
        arena.grow(&ma, Some((4, 100))).unwrap();
        assert_eq!(arena.frontier().len(), 9);
    }

    #[test]
    fn liveness_pruning_respected() {
        let ma = GeneralMA::eventually_graph(
            generators::lossy_link_full(),
            dyngraph::Digraph::parse2("<->").unwrap(),
            Some(2),
        );
        let mut arena = SeqArena::new();
        arena.grow(&ma, None).unwrap();
        arena.grow(&ma, None).unwrap();
        assert_eq!(arena.frontier().len(), 5);
    }
}
