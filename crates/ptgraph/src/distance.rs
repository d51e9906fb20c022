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

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use dyngraph::Pid;

use crate::{PrefixRun, RunViews, ViewId, ViewTable};

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

/// The set distance `d_min(A, B) = inf {d_min(a,b) : a ∈ A, b ∈ B}` (paper
/// Definition 5.12). Returns `None` if either set is empty.
///
/// The value equals the pairwise minimum of [`d_min`] under [`Distance`]'s
/// order, but no pair is compared:
///
/// * `d_min = min_p d_{p}`, so the set distance is
///   `min_p min_{a,b} d_{p}(a, b)`; each process is solved on its own.
/// * For one process `p`, let `agree(t)` say that some `a ∈ A` and `b ∈ B`,
///   both at least `t` rounds long, have equal `p`-views at time `t`. Views
///   are cumulative, so `agree` holds for every `t` up to some `T_p` and for
///   none after, and a binary search over `t ∈ [0, H]` finds `T_p`. Here
///   `H` is the smaller of the two sets' longest horizons; no pair is
///   longer. One probe interns `A`'s views at `t` in a hash map and looks
///   up `B`'s, in `O(|A| + |B|)`.
/// * The closest pair for `p` then gives `Finite(0)` if `agree(0)` fails;
///   `Finite(T_p + 1)` if some pair agreeing at `T_p` is longer than `T_p`
///   on both sides (it must diverge at `T_p + 1`); and `Below(T_p)`
///   otherwise, since every agreeing pair ends at its common horizon
///   `T_p`. Every other pair diverges, or ends, earlier.
///
/// Runs of different lengths are compared over their common horizon, as in
/// [`d_p`]. The cost is `O((|A| + |B|) · n · log H)` view reads, against
/// `O(|A| · |B| · n · log H)` for the pairwise definition.
///
/// # Panics
/// Panics if the two sets disagree on `n`.
pub fn set_distance_min<R: RunViews>(xs: &[R], ys: &[R]) -> Option<Distance> {
    // Intern the smaller set; the result is symmetric in the two sets.
    let (xs, ys) = if xs.len() <= ys.len() {
        (xs, ys)
    } else {
        (ys, xs)
    };
    let (Some(a), Some(b)) = (xs.first(), ys.first()) else {
        return None;
    };
    let n = a.n();
    assert_eq!(n, b.n(), "runs must have the same number of processes");
    let longest = |runs: &[R]| runs.iter().map(RunViews::rounds).max().unwrap_or(0);
    let horizon = longest(xs).min(longest(ys));
    let mut seen = ViewMap::default();
    (0..n).map(|p| closest_p(xs, ys, p, horizon, &mut seen)).min()
}

/// `min_{a,b} d_{p}(a, b)` over two nonempty sets in which no pair is more
/// than `horizon` rounds long on both sides; see [`set_distance_min`].
fn closest_p<R: RunViews>(
    xs: &[R],
    ys: &[R],
    p: Pid,
    horizon: usize,
    seen: &mut ViewMap,
) -> Distance {
    let Some(mut longer) = agree_at(xs, ys, p, 0, seen) else {
        return Distance::Finite(0);
    };
    // Invariant: `agree(lo)` holds (and `longer` is its probe), and
    // `agree(hi)` fails or `hi` is past the horizon.
    let (mut lo, mut hi) = (0, horizon + 1);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        match agree_at(xs, ys, p, mid, seen) {
            Some(l) => (lo, longer) = (mid, l),
            None => hi = mid,
        }
    }
    if longer {
        Distance::Finite(lo + 1)
    } else {
        Distance::Below(lo)
    }
}

/// One probe of [`set_distance_min`]'s search: whether some `a ∈ xs` and
/// `b ∈ ys`, both at least `t` rounds long, share `p`'s view at time `t`.
/// `Some(true)` if such a pair is longer than `t` on both sides,
/// `Some(false)` if every agreeing pair ends at `t`, `None` if no pair
/// agrees.
fn agree_at<R: RunViews>(xs: &[R], ys: &[R], p: Pid, t: usize, seen: &mut ViewMap) -> Option<bool> {
    // View at `t` → whether some run of `xs` with that view is longer.
    seen.clear();
    for a in xs.iter().filter(|a| a.rounds() >= t) {
        *seen.entry(a.view(p, t)).or_default() |= a.rounds() > t;
    }
    let mut agree = None;
    for b in ys.iter().filter(|b| b.rounds() >= t) {
        if let Some(&longer) = seen.get(&b.view(p, t)) {
            if longer && b.rounds() > t {
                return Some(true);
            }
            agree = Some(false);
        }
    }
    agree
}

/// View ids are dense table indices, so a single multiply spreads them
/// over the buckets of [`ViewMap`].
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, x: u32) {
        self.0 = (self.0.rotate_left(5) ^ u64::from(x)).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

type ViewMap = HashMap<ViewId, bool, BuildHasherDefault<IdHasher>>;

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

    /// The pairwise definition of [`set_distance_min`]: the oracle its
    /// linear-time method must match on every input.
    fn set_distance_pairwise<R: RunViews>(xs: &[R], ys: &[R]) -> Option<Distance> {
        xs.iter().flat_map(|a| ys.iter().map(move |b| d_min(a, b))).min()
    }

    fn assert_matches_oracle(xs: &[&PrefixRun], ys: &[&PrefixRun], at: &str) {
        assert_eq!(set_distance_min(xs, ys), set_distance_pairwise(xs, ys), "{at}");
        assert_eq!(set_distance_min(ys, xs), set_distance_pairwise(xs, ys), "{at} (swapped)");
    }

    /// Every run of the oblivious adversary over `pool` at `depth`, over
    /// binary inputs, on one table: the prefix space of a catalog entry.
    fn oblivious_space(pool: &[dyngraph::Digraph], n: usize, depth: usize) -> Vec<PrefixRun> {
        let mut table = ViewTable::new(n);
        let mut runs: Vec<PrefixRun> = crate::all_inputs(n, &[0, 1])
            .into_iter()
            .map(|x| PrefixRun::compute(x, &GraphSeq::new(), &mut table))
            .collect();
        for _ in 0..depth {
            runs = runs
                .iter()
                .flat_map(|r| {
                    pool.iter().map(|g| r.extended(g.clone(), &mut table)).collect::<Vec<_>>()
                })
                .collect();
        }
        runs
    }

    #[test]
    fn set_distance_edge_cases_match_oracle() {
        let (alpha, beta, _) = fig3_example();
        let none: [&PrefixRun; 0] = [];
        assert_eq!(set_distance_min(&none, &none), None);
        assert_eq!(set_distance_min(&[&alpha], &none), None);
        assert_matches_oracle(&[&alpha], &[&alpha], "singleton, A == B");
        assert_eq!(set_distance_min(&[&alpha], &[&alpha]), Some(Distance::Below(3)));
        assert_matches_oracle(&[&alpha], &[&beta], "singletons");
        assert_eq!(set_distance_min(&[&alpha], &[&beta]), Some(Distance::Finite(2)));
        assert_matches_oracle(&[&alpha, &beta], &[&alpha, &beta], "A == B");
    }

    #[test]
    fn set_distance_matches_oracle_on_catalog_spaces() {
        use dyngraph::generators::{
            all_out_stars, complete_minus_losses, lossy_link_full, lossy_link_reduced,
        };
        use rand::{Rng, SeedableRng};
        // The oblivious catalog adversaries: lossy link (= message-loss-2-1
        // = all-rooted-2), its reduced form, message-loss-2-0 and -2-2, and
        // rotating-star-3 (n = 3).
        let pools = [
            ("sw-lossy-link", lossy_link_full(), 2),
            ("cgp-reduced-lossy-link", lossy_link_reduced(), 2),
            ("message-loss-2-0", complete_minus_losses(2, 0), 2),
            ("message-loss-2-2", complete_minus_losses(2, 2), 2),
            ("rotating-star-3", all_out_stars(3), 3),
        ];
        let mut rng = rand::rngs::StdRng::seed_from_u64(15);
        for (name, pool, n) in &pools {
            for depth in 0..=5 {
                let space = oblivious_space(pool, *n, depth);
                let all: Vec<&PrefixRun> = space.iter().collect();
                if all.len() <= 256 {
                    assert_matches_oracle(&all, &all, &format!("{name}@{depth}: whole space"));
                }
                for trial in 0..24 {
                    // Random picks rarely agree for long; contiguous windows
                    // share input and sequence prefixes, so mix both.
                    let mut pick = |window: bool| -> Vec<&PrefixRun> {
                        let len = rng.random_range(1..=all.len().min(40));
                        if window {
                            let start = rng.random_range(0..=all.len() - len);
                            all[start..start + len].to_vec()
                        } else {
                            (0..len).map(|_| all[rng.random_range(0..all.len())]).collect()
                        }
                    };
                    let xs = pick(trial % 2 == 0);
                    let ys = pick(trial % 3 == 0);
                    let at = format!("{name}@{depth} trial {trial}");
                    assert_matches_oracle(&xs, &ys, &at);
                    assert_matches_oracle(&xs, &xs, &format!("{at}: A == B"));
                }
            }
        }
    }

    #[test]
    fn set_distance_matches_oracle_across_horizons() {
        use rand::{Rng, SeedableRng};
        // Standalone runs of 1–4 rounds on one table, so pairs compare over
        // different common horizons.
        let pool = dyngraph::generators::complete_minus_losses(2, 2);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let mut table = ViewTable::new(2);
        let runs: Vec<PrefixRun> = (0..200)
            .map(|_| {
                let len = rng.random_range(1..=4);
                let seq = GraphSeq::from_graphs(
                    (0..len).map(|_| pool[rng.random_range(0..pool.len())].clone()).collect(),
                );
                let inputs = (0..2).map(|_| rng.random_range(0..2)).collect();
                PrefixRun::compute(inputs, &seq, &mut table)
            })
            .collect();
        for trial in 0..300 {
            let mut pick = || -> Vec<&PrefixRun> {
                let len = rng.random_range(1..=8);
                (0..len).map(|_| &runs[rng.random_range(0..runs.len())]).collect()
            };
            let (xs, ys) = (pick(), pick());
            assert_matches_oracle(&xs, &ys, &format!("trial {trial}"));
        }
        let all: Vec<&PrefixRun> = runs.iter().collect();
        assert_matches_oracle(&all[..100], &all[100..], "halves");
        assert_matches_oracle(&all, &all, "A == B");
    }
}
