//! The paper's distance functions on runs (§4, Fig. 3).
//!
//! * `d_P(α, β) = 2^{−inf{t ≥ 0 : V_P(α^t) ≠ V_P(β^t)}}` — the
//!   `P`-pseudo-metric (§4.1, Theorem 4.3);
//! * `d_min(α, β) = min_{p ∈ [n]} d_{p}(α, β)` — the minimum
//!   pseudo-semi-metric (§4.2, Eq. 3);
//! * `d_max = d_{[n]}` — the classic common-prefix metric (Eq. 1).
//!
//! Distances are exact dyadic rationals represented by [`Distance`]:
//! `Finite(t)` means `2^{−t}`, and `Below(T)` means "the runs are
//! indistinguishable through the whole compared horizon `T`", i.e. the true
//! distance is `< 2^{−T}` (it is `0` iff the infinite extensions never
//! diverge — decidable for lassos via [`crate::contamination`]).
//!
//! Every function reads runs through [`RunViews`], so standalone
//! [`PrefixRun`]s and the run handles of an expansion share one
//! implementation.

use dyngraph::Pid;

use crate::{PrefixRun, RunViews, ViewTable};

/// An exact dyadic distance value; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distance {
    /// The views first differ at time `t`; the distance is exactly `2^{−t}`.
    Finite(usize),
    /// No difference within the compared horizon `T`; the distance is
    /// `< 2^{−T}`.
    Below(usize),
}

impl Distance {
    /// The distance as an `f64` (`Below(T)` maps to `2^{−(T+1)}` for
    /// display purposes only — the true value is merely bounded by it).
    pub fn as_f64(self) -> f64 {
        match self {
            Distance::Finite(t) => 0.5f64.powi(t as i32),
            Distance::Below(t) => 0.5f64.powi(t as i32 + 1),
        }
    }

    /// Whether the distance is known to be `< 2^{−t}`.
    pub fn lt_pow2(self, t: usize) -> bool {
        match self {
            Distance::Finite(s) => s > t,
            Distance::Below(s) => s >= t,
        }
    }

    /// The divergence time if finite.
    pub fn divergence_time(self) -> Option<usize> {
        match self {
            Distance::Finite(t) => Some(t),
            Distance::Below(_) => None,
        }
    }
}

impl PartialOrd for Distance {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Distance {
    /// Total order by the *bound* each value represents: `Finite(t)` as
    /// `2^{−t}`, `Below(T)` as the open bound `2^{−T}⁻`. A `Finite(t)` with
    /// `t > T` compares below `Below(T)` even though the true distance
    /// behind `Below(T)` is unknown beyond its bound — callers that need
    /// exact comparisons must extend the horizon first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Larger divergence time = smaller distance. Below(T) < Finite(t) for
        // all t ≤ T; Below(T) vs Below(S): smaller horizon = larger bound.
        use Distance::*;
        match (self, other) {
            (Finite(a), Finite(b)) => b.cmp(a),
            (Below(a), Below(b)) => b.cmp(a),
            (Finite(t), Below(s)) => {
                if *t > *s {
                    std::cmp::Ordering::Less // 2^-t < 2^-(s+?) — t beyond horizon s
                } else {
                    std::cmp::Ordering::Greater
                }
            }
            (Below(_), Finite(_)) => other.cmp(self).reverse(),
        }
    }
}

/// First time `t` at which `p`'s views in `a` and `b` differ, within the
/// common horizon; `None` if they agree throughout.
///
/// Views are cumulative, so agreement at time `t` implies agreement at all
/// earlier times; the scan exploits this by binary search.
///
/// # Panics
/// Panics if the runs disagree on `n`.
pub fn divergence_time_p<R: RunViews + ?Sized>(a: &R, b: &R, p: Pid) -> Option<usize> {
    assert_eq!(a.n(), b.n(), "runs must have the same number of processes");
    let horizon = a.rounds().min(b.rounds());
    if a.view(p, horizon) == b.view(p, horizon) {
        return None;
    }
    // Binary search for the first differing time (monotone predicate).
    let (mut lo, mut hi) = (0usize, horizon);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if a.view(p, mid) == b.view(p, mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// The pseudo-metric `d_{p}` for a single process.
pub fn d_p<R: RunViews + ?Sized>(a: &R, b: &R, p: Pid) -> Distance {
    let horizon = a.rounds().min(b.rounds());
    match divergence_time_p(a, b, p) {
        Some(t) => Distance::Finite(t),
        None => Distance::Below(horizon),
    }
}

/// The `P`-pseudo-metric `d_P = max_{p ∈ P} d_{p}` (Theorem 4.3:
/// monotonicity gives `d_P ≤ d_Q` for `P ⊆ Q`, and the max realizes the
/// first time *some* member of `P` distinguishes).
///
/// # Panics
/// Panics if `ps` is empty or contains an out-of-range pid.
pub fn d_set<R: RunViews + ?Sized>(a: &R, b: &R, ps: &[Pid]) -> Distance {
    assert!(!ps.is_empty(), "P must be nonempty");
    ps.iter().map(|&p| d_p(a, b, p)).max().expect("nonempty")
}

/// The common-prefix metric `d_max = d_{[n]}` (Eq. 1).
pub fn d_max<R: RunViews + ?Sized>(a: &R, b: &R) -> Distance {
    let all: Vec<Pid> = (0..a.n()).collect();
    d_set(a, b, &all)
}

/// The minimum pseudo-semi-metric `d_min = min_p d_{p}` (Eq. 3): the
/// distance seen by the process that is *last* to distinguish the runs.
pub fn d_min<R: RunViews + ?Sized>(a: &R, b: &R) -> Distance {
    (0..a.n()).map(|p| d_p(a, b, p)).min().expect("n ≥ 1")
}

/// The diameter `d_min(A) = sup {d_min(a,b) : a,b ∈ A}` of a set of runs
/// (paper Definition 5.7). Returns `None` for an empty or singleton set.
pub fn diameter_min<R: RunViews>(runs: &[R]) -> Option<Distance> {
    let mut best: Option<Distance> = None;
    for (i, a) in runs.iter().enumerate() {
        for b in &runs[i + 1..] {
            let d = d_min(a, b);
            best = Some(match best {
                None => d,
                Some(cur) => cur.max(d),
            });
        }
    }
    best
}

/// The set distance `d_min(A, B) = inf {d_min(a,b)}` (paper Definition
/// 5.12). Returns `None` if either set is empty.
pub fn set_distance_min<R: RunViews>(xs: &[R], ys: &[R]) -> Option<Distance> {
    let mut best: Option<Distance> = None;
    for a in xs {
        for b in ys {
            let d = d_min(a, b);
            best = Some(match best {
                None => d,
                Some(cur) => cur.min(d),
            });
        }
    }
    best
}

/// Reproduce the paper's **Figure 3** example: three processes, two runs
/// with `d_max = d_{2} = 1`, `d_{1} = 1/2`, `d_min = d_{0} = 1/4`
/// (zero-based process ids; the paper's processes 3, 2, 1).
///
/// Returns `(α, β, table)`.
pub fn fig3_example() -> (PrefixRun, PrefixRun, ViewTable) {
    use dyngraph::{Digraph, GraphSeq};
    let mut table = ViewTable::new(3);
    // Process 2 differs at time 0 (input), process 1 learns the difference
    // in round 1, process 0 only in round 2.
    // α: x = (0, 0, 0); β: x = (0, 0, 1).
    // Round 1: 2 → 1 (process 1 hears the differing input).
    // Round 2: 1 → 0 (process 0 hears it transitively).
    let g1 = Digraph::from_edges(3, &[(2, 1)]).unwrap();
    let g2 = Digraph::from_edges(3, &[(1, 0)]).unwrap();
    let seq = GraphSeq::from_graphs(vec![g1, g2, Digraph::empty(3)]);
    let alpha = PrefixRun::compute(vec![0, 0, 0], &seq, &mut table);
    let beta = PrefixRun::compute(vec![0, 0, 1], &seq, &mut table);
    (alpha, beta, table)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dyngraph::GraphSeq;

    fn runs2(word_a: &str, word_b: &str, xa: [u32; 2], xb: [u32; 2]) -> (PrefixRun, PrefixRun) {
        let mut t = ViewTable::new(2);
        let a = PrefixRun::compute(xa.to_vec(), &GraphSeq::parse2(word_a).unwrap(), &mut t);
        let b = PrefixRun::compute(xb.to_vec(), &GraphSeq::parse2(word_b).unwrap(), &mut t);
        (a, b)
    }

    #[test]
    fn identical_runs_below_horizon() {
        let (a, b) = runs2("-> <-", "-> <-", [0, 1], [0, 1]);
        assert_eq!(d_min(&a, &b), Distance::Below(2));
        assert_eq!(d_max(&a, &b), Distance::Below(2));
    }

    #[test]
    fn input_difference_is_distance_one() {
        let (a, b) = runs2("->", "->", [0, 1], [1, 1]);
        // p0's own input differs at time 0 → d_{0} = 1 = 2^0.
        assert_eq!(d_p(&a, &b, 0), Distance::Finite(0));
        // p1 learns x_0 in round 1 → d_{1} = 1/2.
        assert_eq!(d_p(&a, &b, 1), Distance::Finite(1));
        assert_eq!(d_max(&a, &b), Distance::Finite(0));
        assert_eq!(d_min(&a, &b), Distance::Finite(1));
    }

    #[test]
    fn unheard_difference_gives_below() {
        // →^3 with x_1 differing: p0 never hears p1.
        let (a, b) = runs2("-> -> ->", "-> -> ->", [0, 0], [0, 1]);
        assert_eq!(d_p(&a, &b, 0), Distance::Below(3));
        assert_eq!(d_p(&a, &b, 1), Distance::Finite(0));
        assert_eq!(d_min(&a, &b), Distance::Below(3));
        assert_eq!(d_max(&a, &b), Distance::Finite(0));
    }

    #[test]
    fn fig3_values() {
        let (alpha, beta, _) = fig3_example();
        // Process 2 (the paper's process 3): distance 1.
        assert_eq!(d_p(&alpha, &beta, 2), Distance::Finite(0));
        // Process 1 (paper's 2): distance 1/2.
        assert_eq!(d_p(&alpha, &beta, 1), Distance::Finite(1));
        // Process 0 (paper's 1): distance 1/4 = d_min.
        assert_eq!(d_p(&alpha, &beta, 0), Distance::Finite(2));
        assert_eq!(d_min(&alpha, &beta), Distance::Finite(2));
        assert_eq!(d_max(&alpha, &beta), Distance::Finite(0));
        assert!((d_min(&alpha, &beta).as_f64() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn symmetry() {
        let (a, b) = runs2("-> <-", "<- <-", [0, 1], [0, 1]);
        for p in 0..2 {
            assert_eq!(d_p(&a, &b, p), d_p(&b, &a, p));
        }
        assert_eq!(d_min(&a, &b), d_min(&b, &a));
    }

    #[test]
    fn triangle_inequality_dp() {
        // Theorem 4.3: d_P(α,γ) ≤ d_P(α,β) + d_P(β,γ). With exact dyadics,
        // verify on f64 with a horizon-consistent trio.
        let mut t = ViewTable::new(2);
        let s1 = GraphSeq::parse2("-> -> ->").unwrap();
        let s2 = GraphSeq::parse2("-> <- ->").unwrap();
        let s3 = GraphSeq::parse2("<- <- ->").unwrap();
        let a = PrefixRun::compute(vec![0, 1], &s1, &mut t);
        let b = PrefixRun::compute(vec![0, 1], &s2, &mut t);
        let c = PrefixRun::compute(vec![0, 1], &s3, &mut t);
        for p in 0..2 {
            let ab = d_p(&a, &b, p).as_f64();
            let bc = d_p(&b, &c, p).as_f64();
            let ac = d_p(&a, &c, p).as_f64();
            assert!(ac <= ab + bc + 1e-12, "triangle violated for p{p}");
        }
    }

    #[test]
    fn monotonicity_in_p() {
        // Theorem 4.3: P ⊆ Q ⟹ d_P ≤ d_Q.
        let (alpha, beta, _) = fig3_example();
        let d01 = d_set(&alpha, &beta, &[0, 1]);
        let d012 = d_set(&alpha, &beta, &[0, 1, 2]);
        assert!(d01 <= d012);
        let d0 = d_set(&alpha, &beta, &[0]);
        assert!(d0 <= d01);
    }

    #[test]
    fn dmax_equals_full_set() {
        let (alpha, beta, _) = fig3_example();
        assert_eq!(d_max(&alpha, &beta), d_set(&alpha, &beta, &[0, 1, 2]));
    }

    #[test]
    fn distance_ordering() {
        use Distance::*;
        assert!(Finite(0) > Finite(1));
        assert!(Finite(1) > Finite(5));
        assert!(Below(5) < Finite(5)); // < 2^-5 vs = 2^-5
        assert!(Below(3) > Finite(10)); // bound 2^-4-ish > 2^-10? Below(3) means < 2^-3…
        assert!(Finite(10) < Below(3));
        assert!(Below(5) < Below(3));
        assert!(Finite(2).lt_pow2(1));
        assert!(!Finite(2).lt_pow2(2));
        assert!(Below(2).lt_pow2(2));
    }

    #[test]
    fn diameter_and_set_distance() {
        let mut t = ViewTable::new(2);
        let s = GraphSeq::parse2("-> ->").unwrap();
        let a = PrefixRun::compute(vec![0, 0], &s, &mut t);
        let b = PrefixRun::compute(vec![0, 1], &s, &mut t);
        let c = PrefixRun::compute(vec![1, 1], &s, &mut t);
        let diam = diameter_min(&[&a, &b, &c]).unwrap();
        // d_min(a,c) = Finite(0) is the max: all processes differ at time 0.
        assert_eq!(diam, Distance::Finite(0));
        let d = set_distance_min(&[&a], &[&b, &c]).unwrap();
        // a—b share p0's view forever within horizon → Below(2).
        assert_eq!(d, Distance::Below(2));
        assert!(diameter_min::<&PrefixRun>(&[]).is_none());
        assert!(set_distance_min(&[], &[&a]).is_none());
    }
}
