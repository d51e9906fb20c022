//! The [`Digraph`] communication-graph type.

use std::fmt;

use crate::{mask, Pid, PidMask};

/// Maximum supported number of processes.
///
/// Rows are stored as `u32` bitmasks, so the node set is limited to 32
/// processes. The consensus-solvability machinery is combinatorial and is
/// typically exercised with `n ≤ 6`; the limit is generous.
pub const MAX_N: usize = 32;

/// A directed communication graph `G = ([n], E)` (paper §2).
///
/// An edge `(p, q)` means process `q` receives process `p`'s message in the
/// round where this graph is in force. Self-loops are permitted in the edge
/// set (the paper allows `E ⊆ [n] × [n]`), but they carry no information:
/// every process always knows its own state. [`Digraph::normalized`] strips
/// them; all graphs produced by [`crate::generators`] are self-loop-free.
///
/// The representation is one out-neighbor bitmask per process, so graphs are
/// cheap to clone, hash, and compare — they are used as interned keys
/// throughout the prefix-space machinery.
///
/// ```
/// use dyngraph::Digraph;
/// let mut g = Digraph::empty(3);
/// g.add_edge(0, 1);
/// g.add_edge(1, 2);
/// assert!(g.has_edge(0, 1));
/// assert_eq!(g.out_degree(0), 1);
/// assert_eq!(g.in_neighbors(2).collect::<Vec<_>>(), vec![1]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Digraph {
    n: usize,
    /// `out[p]` holds the bitmask of receivers of `p`'s message.
    out: Vec<PidMask>,
}

/// Error returned when an edge endpoint is out of range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeError {
    /// The offending process id.
    pub pid: Pid,
    /// The graph's node count.
    pub n: usize,
}

impl fmt::Display for EdgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "process id {} out of range for n = {}", self.pid, self.n)
    }
}

impl std::error::Error for EdgeError {}

impl Digraph {
    /// The edgeless graph on `n` processes.
    ///
    /// # Panics
    /// Panics if `n == 0` or `n > MAX_N`.
    pub fn empty(n: usize) -> Self {
        assert!(n >= 1, "a communication graph needs at least one process");
        assert!(n <= MAX_N, "n = {n} exceeds MAX_N = {MAX_N}");
        Digraph { n, out: vec![0; n] }
    }

    /// The complete graph on `n` processes (all edges except self-loops).
    pub fn complete(n: usize) -> Self {
        let mut g = Self::empty(n);
        let full = mask::full(n);
        for p in 0..n {
            g.out[p] = full & !mask::singleton(p);
        }
        g
    }

    /// Build a graph from an explicit edge list.
    ///
    /// # Errors
    /// Returns [`EdgeError`] if any endpoint is `≥ n`.
    pub fn from_edges(n: usize, edges: &[(Pid, Pid)]) -> Result<Self, EdgeError> {
        let mut g = Self::empty(n);
        for &(p, q) in edges {
            g.try_add_edge(p, q)?;
        }
        Ok(g)
    }

    /// Decode a graph from its [`Digraph::code`] integer.
    ///
    /// Bit `p * n + q` of `code` is the edge `(p, q)`; self-loop bits are
    /// ignored. Inverse of [`Digraph::code`] for self-loop-free graphs.
    pub fn from_code(n: usize, code: u64) -> Self {
        let mut g = Self::empty(n);
        for p in 0..n {
            for q in 0..n {
                if p != q && code & (1u64 << (p * n + q)) != 0 {
                    g.add_edge(p, q);
                }
            }
        }
        g
    }

    /// A compact integer encoding of the (self-loop-free) edge set.
    ///
    /// Only meaningful for `n * n ≤ 64`, i.e. `n ≤ 8`.
    ///
    /// # Panics
    /// Panics if `n > 8`.
    pub fn code(&self) -> u64 {
        assert!(self.n <= 8, "code() requires n ≤ 8");
        let mut code = 0u64;
        for (p, q) in self.edges() {
            if p != q {
                code |= 1u64 << (p * self.n + q);
            }
        }
        code
    }

    /// Number of processes `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Whether edge `(p, q)` is present.
    ///
    /// # Panics
    /// Panics if `p ≥ n` or `q ≥ n`.
    #[inline]
    pub fn has_edge(&self, p: Pid, q: Pid) -> bool {
        assert!(q < self.n);
        mask::contains(self.out[p], q)
    }

    /// Insert edge `(p, q)`.
    ///
    /// # Panics
    /// Panics if an endpoint is out of range; see [`Digraph::try_add_edge`]
    /// for the fallible variant.
    #[inline]
    pub fn add_edge(&mut self, p: Pid, q: Pid) {
        self.try_add_edge(p, q).expect("edge endpoint out of range");
    }

    /// Insert edge `(p, q)`, rejecting out-of-range endpoints.
    ///
    /// # Errors
    /// Returns [`EdgeError`] if `p ≥ n` or `q ≥ n`.
    pub fn try_add_edge(&mut self, p: Pid, q: Pid) -> Result<(), EdgeError> {
        for pid in [p, q] {
            if pid >= self.n {
                return Err(EdgeError { pid, n: self.n });
            }
        }
        self.out[p] |= mask::singleton(q);
        Ok(())
    }

    /// Remove edge `(p, q)` (no-op if absent).
    ///
    /// # Panics
    /// Panics if an endpoint is out of range.
    #[inline]
    pub fn remove_edge(&mut self, p: Pid, q: Pid) {
        assert!(p < self.n && q < self.n);
        self.out[p] &= !mask::singleton(q);
    }

    /// The bitmask of receivers of `p`'s message (excluding any self-loop
    /// normalization — exactly the stored row).
    #[inline]
    pub fn out_mask(&self, p: Pid) -> PidMask {
        self.out[p]
    }

    /// The bitmask of processes whose message `q` receives.
    #[inline]
    pub fn in_mask(&self, q: Pid) -> PidMask {
        let mut m = 0;
        for p in 0..self.n {
            if mask::contains(self.out[p], q) {
                m |= mask::singleton(p);
            }
        }
        m
    }

    /// Iterator over `p`'s out-neighbors in increasing order.
    pub fn out_neighbors(&self, p: Pid) -> OutNeighbors {
        OutNeighbors { mask: self.out[p], n: self.n, next: 0 }
    }

    /// Iterator over `q`'s in-neighbors in increasing order.
    pub fn in_neighbors(&self, q: Pid) -> InNeighbors {
        InNeighbors { mask: self.in_mask(q), n: self.n, next: 0 }
    }

    /// Out-degree of `p`.
    #[inline]
    pub fn out_degree(&self, p: Pid) -> usize {
        self.out[p].count_ones() as usize
    }

    /// In-degree of `q`.
    #[inline]
    pub fn in_degree(&self, q: Pid) -> usize {
        self.in_mask(q).count_ones() as usize
    }

    /// Total number of edges (including self-loops, if any).
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// Iterator over all edges `(p, q)` in lexicographic order.
    pub fn edges(&self) -> Edges<'_> {
        Edges { graph: self, p: 0, inner: OutNeighbors { mask: self.out[0], n: self.n, next: 0 } }
    }

    /// A copy with all self-loops removed.
    ///
    /// Self-loops carry no information in the model: every process knows its
    /// own state regardless of the graph.
    pub fn normalized(&self) -> Self {
        let mut g = self.clone();
        for p in 0..self.n {
            g.out[p] &= !mask::singleton(p);
        }
        g
    }

    /// Whether the graph has no self-loops.
    pub fn is_normalized(&self) -> bool {
        (0..self.n).all(|p| !mask::contains(self.out[p], p))
    }

    /// The graph with every edge reversed.
    pub fn transpose(&self) -> Self {
        let mut g = Self::empty(self.n);
        for (p, q) in self.edges() {
            g.add_edge(q, p);
        }
        g
    }

    /// Union of the edge sets of `self` and `other`.
    ///
    /// # Panics
    /// Panics if the node counts differ.
    pub fn union(&self, other: &Digraph) -> Self {
        assert_eq!(self.n, other.n, "union requires equal n");
        let mut g = self.clone();
        for p in 0..self.n {
            g.out[p] |= other.out[p];
        }
        g
    }

    /// Composition `self ∘ other`: edge `(p, r)` iff there is `q` with
    /// `(p, q)` in `self` and `(q, r)` in `other`.
    ///
    /// With reflexive closure applied first on both operands this is the
    /// round-to-round propagation of causal influence; see
    /// [`crate::influence`].
    ///
    /// # Panics
    /// Panics if the node counts differ.
    pub fn compose(&self, other: &Digraph) -> Self {
        assert_eq!(self.n, other.n, "compose requires equal n");
        let mut g = Self::empty(self.n);
        for p in 0..self.n {
            let mut m = 0;
            for q in mask::iter(self.out[p]) {
                m |= other.out[q];
            }
            g.out[p] = m;
        }
        g
    }

    /// The reflexive closure (self-loop at every node).
    pub fn reflexive(&self) -> Self {
        let mut g = self.clone();
        for p in 0..self.n {
            g.out[p] |= mask::singleton(p);
        }
        g
    }

    /// Bitmask of all nodes reachable from `p` (including `p` itself) by a
    /// directed path of length ≥ 0.
    pub fn reach_mask(&self, p: Pid) -> PidMask {
        let mut reached = mask::singleton(p);
        loop {
            let mut next = reached;
            for q in mask::iter(reached) {
                next |= self.out[q];
            }
            if next == reached {
                return reached;
            }
            reached = next;
        }
    }

    /// The *kernel* `Ker(G) = {p : p reaches every process}`.
    ///
    /// Kernel members are exactly the potential broadcasters of a round
    /// (paper Theorem 5.11 characterizes consensus via broadcastability of
    /// connected components; for oblivious adversaries kernel intersections
    /// drive the Coulouma–Godard–Peters criterion \[8\]).
    pub fn kernel(&self) -> Vec<Pid> {
        mask::to_vec(self.kernel_mask())
    }

    /// [`Digraph::kernel`] as a bitmask.
    pub fn kernel_mask(&self) -> PidMask {
        let full = mask::full(self.n);
        mask::from_iter((0..self.n).filter(|&p| self.reach_mask(p) == full))
    }

    /// Whether some process reaches every other (`Ker(G) ≠ ∅`).
    ///
    /// Equivalently, the condensation has a unique source SCC that reaches
    /// all SCCs; see [`crate::scc::root_components`].
    pub fn is_rooted(&self) -> bool {
        self.kernel_mask() != 0
    }

    /// Whether the graph is strongly connected.
    pub fn is_strongly_connected(&self) -> bool {
        let full = mask::full(self.n);
        (0..self.n).all(|p| self.reach_mask(p) == full)
    }
}

impl fmt::Debug for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digraph(n={}, edges={:?})", self.n, self.edges().collect::<Vec<_>>())
    }
}

impl fmt::Display for Digraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::notation::fmt_graph(self, f)
    }
}

/// Iterator over out-neighbors; see [`Digraph::out_neighbors`].
#[derive(Debug, Clone)]
pub struct OutNeighbors {
    mask: PidMask,
    n: usize,
    next: usize,
}

impl Iterator for OutNeighbors {
    type Item = Pid;

    fn next(&mut self) -> Option<Pid> {
        while self.next < self.n {
            let p = self.next;
            self.next += 1;
            if mask::contains(self.mask, p) {
                return Some(p);
            }
        }
        None
    }
}

/// Iterator over in-neighbors; see [`Digraph::in_neighbors`].
#[derive(Debug, Clone)]
pub struct InNeighbors {
    mask: PidMask,
    n: usize,
    next: usize,
}

impl Iterator for InNeighbors {
    type Item = Pid;

    fn next(&mut self) -> Option<Pid> {
        while self.next < self.n {
            let p = self.next;
            self.next += 1;
            if mask::contains(self.mask, p) {
                return Some(p);
            }
        }
        None
    }
}

/// Iterator over all edges; see [`Digraph::edges`].
#[derive(Debug, Clone)]
pub struct Edges<'a> {
    graph: &'a Digraph,
    p: Pid,
    inner: OutNeighbors,
}

impl Iterator for Edges<'_> {
    type Item = (Pid, Pid);

    fn next(&mut self) -> Option<(Pid, Pid)> {
        loop {
            if let Some(q) = self.inner.next() {
                return Some((self.p, q));
            }
            self.p += 1;
            if self.p >= self.graph.n {
                return None;
            }
            self.inner = OutNeighbors { mask: self.graph.out[self.p], n: self.graph.n, next: 0 };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_complete() {
        let e = Digraph::empty(4);
        assert_eq!(e.edge_count(), 0);
        let k = Digraph::complete(4);
        assert_eq!(k.edge_count(), 12);
        assert!(k.is_strongly_connected());
        assert!(k.is_normalized());
    }

    #[test]
    fn edge_manipulation() {
        let mut g = Digraph::empty(3);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(2, 1);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(1), 2);
        g.remove_edge(0, 1);
        assert!(!g.has_edge(0, 1));
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Digraph::from_edges(2, &[(0, 5)]).unwrap_err();
        assert_eq!(err.pid, 5);
        assert_eq!(err.n, 2);
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn edges_iterator_lexicographic() {
        let g = Digraph::from_edges(3, &[(2, 0), (0, 2), (0, 1)]).unwrap();
        assert_eq!(g.edges().collect::<Vec<_>>(), vec![(0, 1), (0, 2), (2, 0)]);
    }

    #[test]
    fn code_roundtrip() {
        for code in 0..64u64 {
            let g = Digraph::from_code(3, code << 1); // arbitrary spread
            let back = Digraph::from_code(3, g.code());
            assert_eq!(g, back);
        }
        let g = Digraph::from_edges(2, &[(0, 1), (1, 0)]).unwrap();
        assert_eq!(Digraph::from_code(2, g.code()), g);
    }

    #[test]
    fn normalize_strips_self_loops() {
        let mut g = Digraph::empty(2);
        g.add_edge(0, 0);
        g.add_edge(0, 1);
        assert!(!g.is_normalized());
        let h = g.normalized();
        assert!(h.is_normalized());
        assert_eq!(h.edge_count(), 1);
    }

    #[test]
    fn transpose_involution() {
        let g = Digraph::from_edges(4, &[(0, 1), (1, 2), (3, 0), (2, 3)]).unwrap();
        assert_eq!(g.transpose().transpose(), g);
        assert!(g.transpose().has_edge(1, 0));
    }

    #[test]
    fn reachability_and_kernel() {
        // 0 → 1 → 2, 2 → 1: kernel = {0}.
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2), (2, 1)]).unwrap();
        assert_eq!(g.reach_mask(0), 0b111);
        assert_eq!(g.reach_mask(1), 0b110);
        assert_eq!(g.kernel(), vec![0]);
        assert!(g.is_rooted());
        assert!(!g.is_strongly_connected());
    }

    #[test]
    fn kernel_empty_for_disconnected() {
        let g = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(g.kernel().is_empty());
        assert!(!g.is_rooted());
    }

    #[test]
    fn cycle_strongly_connected() {
        let g = Digraph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).unwrap();
        assert!(g.is_strongly_connected());
        assert_eq!(g.kernel(), vec![0, 1, 2]);
    }

    #[test]
    fn compose_is_two_hop_paths() {
        let a = Digraph::from_edges(3, &[(0, 1)]).unwrap();
        let b = Digraph::from_edges(3, &[(1, 2)]).unwrap();
        let c = a.compose(&b);
        assert!(c.has_edge(0, 2));
        assert_eq!(c.edge_count(), 1);
    }

    #[test]
    fn union_merges_edges() {
        let a = Digraph::from_edges(2, &[(0, 1)]).unwrap();
        let b = Digraph::from_edges(2, &[(1, 0)]).unwrap();
        let u = a.union(&b);
        assert!(u.has_edge(0, 1) && u.has_edge(1, 0));
    }

    #[test]
    fn reflexive_adds_loops() {
        let g = Digraph::empty(2).reflexive();
        assert!(g.has_edge(0, 0) && g.has_edge(1, 1));
    }

    #[test]
    fn in_out_masks_consistent() {
        let g = Digraph::from_edges(4, &[(0, 3), (1, 3), (2, 0)]).unwrap();
        assert_eq!(g.in_mask(3), 0b0011);
        assert_eq!(g.out_mask(0), 0b1000);
        assert_eq!(g.in_neighbors(3).collect::<Vec<_>>(), vec![0, 1]);
    }

    #[test]
    fn single_process_graph() {
        let g = Digraph::empty(1);
        assert!(g.is_strongly_connected());
        assert_eq!(g.kernel(), vec![0]);
    }
}
