//! Causal influence tracking across rounds.
//!
//! [`InfluenceTracker`] maintains, per process `q`, the bitmask of processes
//! whose *initial* state is in `q`'s causal past — the reachability skeleton
//! of the paper's process-time graphs (§3). One [`InfluenceTracker::step`]
//! per round applies the reflexive closure of the round graph.

use crate::{mask, Digraph, Pid, PidMask};

/// Tracks which processes have (transitively) heard from which.
///
/// ```
/// use dyngraph::{influence::InfluenceTracker, Digraph};
/// let mut t = InfluenceTracker::new(3);
/// // Round 1: 0 → 1. Round 2: 1 → 2.
/// t.step(&Digraph::from_edges(3, &[(0, 1)]).unwrap());
/// t.step(&Digraph::from_edges(3, &[(1, 2)]).unwrap());
/// assert!(t.heard(2, 0)); // 2 heard from 0 via 1
/// assert!(!t.heard(0, 1));
/// assert!(t.has_broadcast(0)); // 0's initial state reached everyone
/// assert!(!t.has_broadcast(1)); // 1 never reached 0
/// assert_eq!(t.heard_mask(2), 0b111);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InfluenceTracker {
    n: usize,
    /// `heard[q]` = processes whose initial state reached `q`.
    heard: Vec<PidMask>,
    rounds: usize,
}

impl InfluenceTracker {
    /// A fresh tracker at time 0: everyone has heard only themselves.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > MAX_N`.
    pub fn new(n: usize) -> Self {
        assert!((1..=crate::MAX_N).contains(&n));
        InfluenceTracker { n, heard: (0..n).map(mask::singleton).collect(), rounds: 0 }
    }

    /// Number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of rounds applied so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Apply one communication round with graph `g`.
    ///
    /// # Panics
    /// Panics if `g.n() != self.n()`.
    pub fn step(&mut self, g: &Digraph) {
        assert_eq!(g.n(), self.n, "graph has mismatched n");
        let old = self.heard.clone();
        for q in 0..self.n {
            let mut m = old[q];
            for p in mask::iter(g.in_mask(q)) {
                m |= old[p];
            }
            self.heard[q] = m;
        }
        self.rounds += 1;
    }

    /// Whether `q` has heard from `p` (i.e. `p`'s initial state is in `q`'s
    /// causal past). Always true for `p == q`.
    pub fn heard(&self, q: Pid, p: Pid) -> bool {
        mask::contains(self.heard[q], p)
    }

    /// Bitmask of processes `q` has heard from.
    pub fn heard_mask(&self, q: Pid) -> PidMask {
        self.heard[q]
    }

    /// Bitmask of processes that have heard from `p`.
    pub fn reached_mask(&self, p: Pid) -> PidMask {
        mask::from_iter((0..self.n).filter(|&q| self.heard(q, p)))
    }

    /// Whether every process has heard from `p` — `p` has *broadcast*
    /// (paper Definition 5.8).
    pub fn has_broadcast(&self, p: Pid) -> bool {
        self.reached_mask(p) == mask::full(self.n)
    }

    /// Bitmask of processes that have broadcast.
    pub fn broadcasters(&self) -> PidMask {
        mask::from_iter((0..self.n).filter(|&p| self.has_broadcast(p)))
    }

    /// Whether every process has heard from every process.
    pub fn all_heard_all(&self) -> bool {
        let full = mask::full(self.n);
        self.heard.iter().all(|&m| m == full)
    }

    /// Whether the tracker is at a fixpoint for graph `g` (stepping with `g`
    /// would change nothing). Influence is monotone, so a fixpoint for every
    /// graph of a lasso's cycle means the infinite suffix adds nothing.
    pub fn is_fixpoint_for(&self, g: &Digraph) -> bool {
        let mut copy = self.clone();
        copy.step(g);
        copy.heard == self.heard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn initial_state() {
        let t = InfluenceTracker::new(3);
        for q in 0..3 {
            assert_eq!(t.heard_mask(q), mask::singleton(q));
            assert!(t.heard(q, q));
        }
        assert_eq!(t.broadcasters(), 0);
        assert_eq!(t.rounds(), 0);
    }

    #[test]
    fn single_process_broadcasts_immediately() {
        let t = InfluenceTracker::new(1);
        assert!(t.has_broadcast(0));
        assert!(t.all_heard_all());
    }

    #[test]
    fn star_broadcast_one_round() {
        let mut t = InfluenceTracker::new(4);
        t.step(&generators::star_out(4, 2));
        assert!(t.has_broadcast(2));
        assert_eq!(t.broadcasters(), mask::singleton(2));
    }

    #[test]
    fn influence_is_monotone() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut t = InfluenceTracker::new(5);
        let mut prev: Vec<PidMask> = (0..5).map(|q| t.heard_mask(q)).collect();
        for _ in 0..12 {
            let p_edge = rng.random_range(0.0..0.6);
            let g = generators::random_graph(&mut rng, 5, p_edge);
            t.step(&g);
            let cur: Vec<PidMask> = (0..5).map(|q| t.heard_mask(q)).collect();
            for (a, b) in prev.iter().zip(cur.iter()) {
                assert_eq!(a & b, *a, "influence must be monotone");
            }
            prev = cur;
        }
    }

    #[test]
    fn cycle_diameter() {
        let g = generators::cycle(4);
        let mut t = InfluenceTracker::new(4);
        for r in 1..=4 {
            t.step(&g);
            if r < 3 {
                assert!(!t.all_heard_all());
            }
        }
        assert!(t.all_heard_all());
    }

    #[test]
    fn fixpoint_detection() {
        let mut t = InfluenceTracker::new(2);
        let right = crate::Digraph::parse2("->").unwrap();
        assert!(!t.is_fixpoint_for(&right));
        t.step(&right);
        assert!(t.is_fixpoint_for(&right), "repeating → adds nothing after round 1");
        let left = crate::Digraph::parse2("<-").unwrap();
        assert!(!t.is_fixpoint_for(&left));
    }

    #[test]
    fn empty_graph_is_always_fixpoint() {
        let t = InfluenceTracker::new(3);
        assert!(t.is_fixpoint_for(&crate::Digraph::empty(3)));
    }

    #[test]
    fn reached_mask_transpose_of_heard() {
        let mut t = InfluenceTracker::new(3);
        t.step(&crate::Digraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap());
        for p in 0..3 {
            for q in 0..3 {
                assert_eq!(t.heard(q, p), mask::contains(t.reached_mask(p), q));
            }
        }
    }
}
