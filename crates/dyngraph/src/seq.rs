//! Finite graph-sequence prefixes and ultimately periodic (lasso) sequences.

use std::fmt;

use crate::{influence::InfluenceTracker, Digraph, Round};

/// A finite prefix `(G_1, …, G_T)` of a communication-graph sequence.
///
/// Rounds are one-based as in the paper: `graph(1)` is the round-1 graph.
///
/// ```
/// use dyngraph::{Digraph, GraphSeq};
/// let seq = GraphSeq::parse2("-> -> <-").unwrap();
/// assert_eq!(seq.rounds(), 3);
/// assert_eq!(seq.graph(3).arrow2().unwrap(), "<-");
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphSeq {
    graphs: Vec<Digraph>,
}

impl GraphSeq {
    /// The empty (0-round) sequence.
    pub fn new() -> Self {
        GraphSeq { graphs: Vec::new() }
    }

    /// Build from a vector of per-round graphs.
    ///
    /// # Panics
    /// Panics if the graphs do not all have the same number of processes.
    pub fn from_graphs(graphs: Vec<Digraph>) -> Self {
        if let Some(first) = graphs.first() {
            assert!(
                graphs.iter().all(|g| g.n() == first.n()),
                "all graphs in a sequence must have the same n"
            );
        }
        GraphSeq { graphs }
    }

    /// Parse an `n = 2` arrow word, e.g. `"-> <-> <-"`.
    ///
    /// # Errors
    /// Propagates [`crate::notation::ParseArrowError`].
    pub fn parse2(word: &str) -> Result<Self, crate::notation::ParseArrowError> {
        Ok(Self::from_graphs(crate::notation::parse_arrows(word)?))
    }

    /// Number of rounds `T` in the prefix.
    pub fn rounds(&self) -> usize {
        self.graphs.len()
    }

    /// Whether the prefix is empty.
    pub fn is_empty(&self) -> bool {
        self.graphs.is_empty()
    }

    /// Number of processes, or `None` for the empty sequence.
    pub fn n(&self) -> Option<usize> {
        self.graphs.first().map(Digraph::n)
    }

    /// The graph of (one-based) round `t`.
    ///
    /// # Panics
    /// Panics if `t == 0` or `t > rounds()`.
    pub fn graph(&self, t: Round) -> &Digraph {
        assert!(t >= 1 && t <= self.graphs.len(), "round {t} out of range");
        &self.graphs[t - 1]
    }

    /// Iterate over the graphs in round order.
    pub fn iter(&self) -> std::slice::Iter<'_, Digraph> {
        self.graphs.iter()
    }

    /// Append a round.
    ///
    /// # Panics
    /// Panics if `g` has a different number of processes.
    pub fn push(&mut self, g: Digraph) {
        if let Some(n) = self.n() {
            assert_eq!(g.n(), n, "pushed graph has mismatched n");
        }
        self.graphs.push(g);
    }

    /// Keep only the first `rounds` rounds (no-op if already shorter).
    pub fn truncate(&mut self, rounds: usize) {
        self.graphs.truncate(rounds);
    }

    /// A copy extended by one round.
    pub fn extended(&self, g: Digraph) -> Self {
        let mut s = self.clone();
        s.push(g);
        s
    }

    /// The first `t` rounds as a new sequence.
    ///
    /// # Panics
    /// Panics if `t > rounds()`.
    pub fn prefix(&self, t: usize) -> Self {
        assert!(t <= self.graphs.len());
        GraphSeq { graphs: self.graphs[..t].to_vec() }
    }

    /// Whether `self` is a prefix of `other`.
    pub fn is_prefix_of(&self, other: &GraphSeq) -> bool {
        self.graphs.len() <= other.graphs.len()
            && self.graphs.iter().zip(other.graphs.iter()).all(|(a, b)| a == b)
    }

    /// The concatenation `self · other`.
    pub fn concat(&self, other: &GraphSeq) -> Self {
        let mut graphs = self.graphs.clone();
        graphs.extend(other.graphs.iter().cloned());
        Self::from_graphs(graphs)
    }

    /// `self` repeated `k` times.
    pub fn repeat(&self, k: usize) -> Self {
        let mut graphs = Vec::with_capacity(self.graphs.len() * k);
        for _ in 0..k {
            graphs.extend(self.graphs.iter().cloned());
        }
        GraphSeq { graphs }
    }

    /// The earliest round by which `p`'s initial state has reached **every**
    /// process through the sequence, or `None` if it never does within the
    /// prefix. `Some(0)` for `n = 1`.
    ///
    /// This is the per-process broadcast time `T(a)` of the paper's
    /// Definition 5.8 restricted to the prefix.
    pub fn broadcast_round(&self, p: crate::Pid) -> Option<Round> {
        let n = match self.n() {
            Some(n) => n,
            None => return Some(0), // empty sequence: vacuous only for n=1; treat as unknown
        };
        let mut tracker = InfluenceTracker::new(n);
        if tracker.has_broadcast(p) {
            return Some(0);
        }
        for (i, g) in self.graphs.iter().enumerate() {
            tracker.step(g);
            if tracker.has_broadcast(p) {
                return Some(i + 1);
            }
        }
        None
    }

    /// The *dynamic diameter* of the prefix: the earliest `t` such that every
    /// process has heard from every other by round `t`, or `None` if the
    /// prefix is too short.
    pub fn dynamic_diameter(&self) -> Option<Round> {
        let n = self.n()?;
        let mut tracker = InfluenceTracker::new(n);
        if tracker.all_heard_all() {
            return Some(0);
        }
        for (i, g) in self.graphs.iter().enumerate() {
            tracker.step(g);
            if tracker.all_heard_all() {
                return Some(i + 1);
            }
        }
        None
    }
}

impl Default for GraphSeq {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for GraphSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GraphSeq[{self}]")
    }
}

impl fmt::Display for GraphSeq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, g) in self.graphs.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{g}")?;
        }
        Ok(())
    }
}

impl FromIterator<Digraph> for GraphSeq {
    fn from_iter<I: IntoIterator<Item = Digraph>>(iter: I) -> Self {
        Self::from_graphs(iter.into_iter().collect())
    }
}

impl Extend<Digraph> for GraphSeq {
    fn extend<I: IntoIterator<Item = Digraph>>(&mut self, iter: I) {
        for g in iter {
            self.push(g);
        }
    }
}

/// An ultimately periodic infinite graph sequence `prefix · cycle^ω`.
///
/// Lassos are the fragment of infinite sequences on which the paper's limit
/// structure is *exactly* computable (DESIGN.md §3): the zero-distance test
/// `d_{p}(a, b) = 0` between two lassos is decidable via the contamination
/// calculus in the `ptgraph` crate.
///
/// ```
/// use dyngraph::{Digraph, GraphSeq, Lasso};
/// // → forever.
/// let l = Lasso::constant(Digraph::parse2("->").unwrap());
/// assert_eq!(l.graph_at(1), l.graph_at(100));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Lasso {
    prefix: GraphSeq,
    cycle: GraphSeq,
}

impl Lasso {
    /// Build `prefix · cycle^ω`.
    ///
    /// # Panics
    /// Panics if `cycle` is empty or the parts disagree on `n`.
    pub fn new(prefix: GraphSeq, cycle: GraphSeq) -> Self {
        assert!(!cycle.is_empty(), "lasso cycle must be nonempty");
        if let (Some(a), Some(b)) = (prefix.n(), cycle.n()) {
            assert_eq!(a, b, "prefix and cycle disagree on n");
        }
        Lasso { prefix, cycle }
    }

    /// The constant sequence `g^ω`.
    pub fn constant(g: Digraph) -> Self {
        Lasso { prefix: GraphSeq::new(), cycle: GraphSeq::from_graphs(vec![g]) }
    }

    /// Parse `"prefix | cycle"` in `n = 2` arrow notation, e.g.
    /// `"-> -> | <-"` for `→ → ←^ω`. An omitted `|` means no prefix.
    ///
    /// # Errors
    /// Propagates token errors from [`Digraph::parse2`].
    ///
    /// # Panics
    /// Panics if the cycle part is empty.
    pub fn parse2(word: &str) -> Result<Self, crate::notation::ParseArrowError> {
        let (pre, cyc) = match word.split_once('|') {
            Some((a, b)) => (a, b),
            None => ("", word),
        };
        Ok(Self::new(GraphSeq::parse2(pre)?, GraphSeq::parse2(cyc)?))
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.cycle.n().expect("cycle is nonempty")
    }

    /// Length of the non-periodic prefix.
    pub fn prefix_len(&self) -> usize {
        self.prefix.rounds()
    }

    /// Length of the repeating cycle.
    pub fn cycle_len(&self) -> usize {
        self.cycle.rounds()
    }

    /// The graph of (one-based) round `t`.
    ///
    /// # Panics
    /// Panics if `t == 0`.
    pub fn graph_at(&self, t: Round) -> &Digraph {
        assert!(t >= 1, "rounds are one-based");
        if t <= self.prefix.rounds() {
            self.prefix.graph(t)
        } else {
            let i = (t - self.prefix.rounds() - 1) % self.cycle.rounds();
            self.cycle.graph(i + 1)
        }
    }

    /// The finite unrolling `(G_1, …, G_T)`.
    pub fn unroll(&self, t: usize) -> GraphSeq {
        (1..=t).map(|r| self.graph_at(r).clone()).collect()
    }

    /// The earliest round by which `p` has broadcast to all, or `None` if it
    /// **never** does (decided exactly: influence growth saturates within
    /// `prefix_len + n · cycle_len` rounds).
    pub fn broadcast_round(&self, p: crate::Pid) -> Option<Round> {
        let n = self.n();
        let mut tracker = InfluenceTracker::new(n);
        if tracker.has_broadcast(p) {
            return Some(0);
        }
        // Influence masks are monotone with at most n·n bit flips; after the
        // prefix, one full cycle without progress means a fixpoint.
        let horizon = self.prefix_len() + (n * n + 1) * self.cycle_len();
        for t in 1..=horizon {
            tracker.step(self.graph_at(t));
            if tracker.has_broadcast(p) {
                return Some(t);
            }
        }
        None
    }

    /// A lasso equal to `self` but with the first `t` rounds replaced by
    /// `new_prefix` (used to build “deviate then rejoin” sequences).
    ///
    /// # Panics
    /// Panics if `new_prefix` disagrees on `n`.
    pub fn with_prefix(&self, new_prefix: GraphSeq) -> Self {
        Self::new(new_prefix, self.cycle.clone())
    }
}

impl fmt::Debug for Lasso {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lasso[{self}]")
    }
}

impl fmt::Display for Lasso {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.prefix.is_empty() {
            write!(f, "{} ", self.prefix)?;
        }
        write!(f, "({})^ω", self.cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn seq_basics() {
        let seq = GraphSeq::parse2("-> <- <->").unwrap();
        assert_eq!(seq.rounds(), 3);
        assert_eq!(seq.n(), Some(2));
        assert_eq!(seq.graph(1).arrow2().unwrap(), "->");
        assert_eq!(format!("{seq}"), "-> <- <->");
    }

    #[test]
    fn prefix_and_concat() {
        let seq = GraphSeq::parse2("-> <- <->").unwrap();
        let p = seq.prefix(2);
        assert!(p.is_prefix_of(&seq));
        assert!(!seq.is_prefix_of(&p));
        let c = p.concat(&GraphSeq::parse2("<->").unwrap());
        assert_eq!(c, seq);
    }

    #[test]
    fn repeat_length() {
        let seq = GraphSeq::parse2("->").unwrap().repeat(5);
        assert_eq!(seq.rounds(), 5);
    }

    #[test]
    fn broadcast_round_n2() {
        // → delivers 0's value to 1 in round 1; 1 never reaches 0.
        let seq = GraphSeq::parse2("-> -> ->").unwrap();
        assert_eq!(seq.broadcast_round(0), Some(1));
        assert_eq!(seq.broadcast_round(1), None);
    }

    #[test]
    fn broadcast_round_star() {
        let star = generators::star_out(4, 1);
        let seq = GraphSeq::from_graphs(vec![star]);
        assert_eq!(seq.broadcast_round(1), Some(1));
        assert_eq!(seq.broadcast_round(0), None);
    }

    #[test]
    fn dynamic_diameter_cycle() {
        // On the 3-cycle, info needs 2 rounds to reach everyone.
        let c = generators::cycle(3);
        let seq = GraphSeq::from_graphs(vec![c.clone(), c.clone(), c]);
        assert_eq!(seq.dynamic_diameter(), Some(2));
    }

    #[test]
    fn dynamic_diameter_too_short() {
        let c = generators::cycle(3);
        let seq = GraphSeq::from_graphs(vec![c]);
        assert_eq!(seq.dynamic_diameter(), None);
    }

    #[test]
    fn lasso_indexing() {
        let l = Lasso::parse2("-> -> | <- <->").unwrap();
        assert_eq!(l.prefix_len(), 2);
        assert_eq!(l.cycle_len(), 2);
        assert_eq!(l.graph_at(1).arrow2().unwrap(), "->");
        assert_eq!(l.graph_at(2).arrow2().unwrap(), "->");
        assert_eq!(l.graph_at(3).arrow2().unwrap(), "<-");
        assert_eq!(l.graph_at(4).arrow2().unwrap(), "<->");
        assert_eq!(l.graph_at(5).arrow2().unwrap(), "<-");
        assert_eq!(l.graph_at(7).arrow2().unwrap(), "<-");
    }

    #[test]
    fn lasso_unroll_matches_graph_at() {
        let l = Lasso::parse2("-> | <-").unwrap();
        let u = l.unroll(5);
        for t in 1..=5 {
            assert_eq!(u.graph(t), l.graph_at(t));
        }
    }

    #[test]
    fn lasso_broadcast_decided_exactly() {
        // →^ω: 0 broadcasts at round 1; 1 never broadcasts.
        let l = Lasso::constant(Digraph::parse2("->").unwrap());
        assert_eq!(l.broadcast_round(0), Some(1));
        assert_eq!(l.broadcast_round(1), None);
        // → then ←^ω: 1 broadcasts at round 2.
        let l = Lasso::parse2("-> | <-").unwrap();
        assert_eq!(l.broadcast_round(1), Some(2));
    }

    #[test]
    fn lasso_display() {
        let l = Lasso::parse2("-> | <-").unwrap();
        assert_eq!(format!("{l}"), "-> (<-)^ω");
        let c = Lasso::constant(Digraph::parse2("<->").unwrap());
        assert_eq!(format!("{c}"), "(<->)^ω");
    }

    #[test]
    #[should_panic(expected = "cycle must be nonempty")]
    fn lasso_rejects_empty_cycle() {
        let _ = Lasso::new(GraphSeq::new(), GraphSeq::new());
    }

    #[test]
    #[should_panic(expected = "mismatched n")]
    fn push_rejects_mismatched_n() {
        let mut s = GraphSeq::parse2("->").unwrap();
        s.push(Digraph::empty(3));
    }
}
