//! Property-style tests for the adversary machinery.
//!
//! Driven by a seeded deterministic generator (the offline stand-in for
//! proptest; see `crates/compat/README.md`): each test replays a fixed
//! number of pseudo-random cases, so failures are reproducible from the
//! printed case data alone.

use std::collections::BTreeSet;

use adversary::{enumerate, GeneralMA, Liveness, MessageAdversary};
use dyngraph::{Digraph, GraphSeq, Lasso};
use rand::{rngs::StdRng, Rng, SeedableRng};

const CASES: usize = 48;

/// A random nonempty pool of up to `max_graphs` normalized graphs on `n`
/// processes (distinct codes; normalization may merge some).
fn arb_pool(rng: &mut StdRng, n: usize, max_graphs: usize) -> Vec<Digraph> {
    let max_code: u64 = 1 << (n * n);
    let count = rng.random_range(1..=max_graphs);
    let mut codes = BTreeSet::new();
    while codes.len() < count {
        codes.insert(rng.random_range(0..max_code));
    }
    codes.into_iter().map(|c| Digraph::from_code(n, c).normalized()).collect()
}

fn arb_word(rng: &mut StdRng, max_index: usize, max_len: usize) -> Vec<usize> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| rng.random_range(0..max_index)).collect()
}

/// Oblivious adversaries: the sequence tree is the full |pool|^t product.
#[test]
fn oblivious_tree_is_product() {
    let mut rng = StdRng::seed_from_u64(0xAD01);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 3);
        let depth = rng.random_range(0..4usize);
        let distinct = {
            let mut p = pool.clone();
            p.sort();
            p.dedup();
            p.len()
        };
        let ma = GeneralMA::oblivious(pool);
        let seqs = enumerate::admissible_sequences(&ma, depth);
        assert_eq!(seqs.len(), distinct.pow(depth as u32));
    }
}

/// Extension contract: `extensions` returns exactly the pool graphs `g`
/// with `admits_prefix(prefix · g)`.
#[test]
fn extensions_match_admissibility() {
    let mut rng = StdRng::seed_from_u64(0xAD02);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 4);
        let word = arb_word(&mut rng, 4, 4);
        let deadline = rng.random_range(1..4usize);
        let target = pool[0].clone();
        let ma = GeneralMA::eventually_graph(pool.clone(), target, Some(deadline));
        // Build a prefix from pool indices (may be inadmissible).
        let prefix: GraphSeq = word.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        let exts = ma.extensions(&prefix);
        for g in &pool {
            let admitted = ma.admits_prefix(&prefix.extended(g.clone()));
            assert_eq!(exts.contains(&g.normalized()), admitted, "graph {g} after {prefix}");
        }
    }
}

/// Deadline monotonicity: admissibility under deadline R implies
/// admissibility under R + 1 (the compact approximations grow).
#[test]
fn deadline_monotone() {
    let mut rng = StdRng::seed_from_u64(0xAD03);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 3);
        let word = arb_word(&mut rng, 3, 5);
        let r = rng.random_range(1..4usize);
        let target = pool[0].clone();
        let ma_r = GeneralMA::eventually_graph(pool.clone(), target.clone(), Some(r));
        let ma_r1 = GeneralMA::eventually_graph(pool.clone(), target, Some(r + 1));
        let prefix: GraphSeq = word.iter().map(|&i| pool[i % pool.len()].clone()).collect();
        if ma_r.admits_prefix(&prefix) {
            assert!(ma_r1.admits_prefix(&prefix), "prefix {prefix} lost at R+1");
        }
    }
}

/// Lasso admissibility for the non-compact variant is implied by any
/// deadline variant (union of approximations).
#[test]
fn lasso_deadline_implies_eventual() {
    let mut rng = StdRng::seed_from_u64(0xAD04);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 3);
        let pre = arb_word(&mut rng, 3, 3);
        let cyc_len = rng.random_range(1..3usize);
        let cyc: Vec<usize> = (0..cyc_len).map(|_| rng.random_range(0..3usize)).collect();
        let r = rng.random_range(1..5usize);
        let target = pool[0].clone();
        let with_deadline = GeneralMA::eventually_graph(pool.clone(), target.clone(), Some(r));
        let eventual = GeneralMA::eventually_graph(pool.clone(), target, None);
        let pick = |idx: &Vec<usize>| -> GraphSeq {
            idx.iter().map(|&i| pool[i % pool.len()].clone()).collect()
        };
        let lasso = Lasso::new(pick(&pre), pick(&cyc));
        if with_deadline.admits_lasso(&lasso) == Some(true) {
            assert_eq!(eventual.admits_lasso(&lasso), Some(true));
        }
    }
}

/// Stable windows: whenever the liveness says satisfied, a literal scan
/// finds a window of identical rooted-source masks.
#[test]
fn stable_window_scan_agrees() {
    let mut rng = StdRng::seed_from_u64(0xAD05);
    for _ in 0..CASES {
        let word: Vec<u64> = {
            let len = rng.random_range(0..6usize);
            (0..len).map(|_| rng.random_range(0..16u64)).collect()
        };
        let window = rng.random_range(1..3usize);
        let seq: GraphSeq = word.iter().map(|&c| Digraph::from_code(2, c).normalized()).collect();
        let satisfied = Liveness::StableWindow { window }.satisfied(&seq);
        // Literal re-scan.
        let masks: Vec<Option<dyngraph::PidMask>> =
            seq.iter().map(dyngraph::scc::rooted_source).collect();
        let mut found = false;
        if masks.len() >= window {
            for s in 0..=(masks.len() - window) {
                if masks[s].is_some() && masks[s..s + window].iter().all(|m| *m == masks[s]) {
                    found = true;
                }
            }
        }
        assert_eq!(satisfied, found, "word {word:?}, window {window}");
    }
}

/// Enumerated prefix spaces have runs only over admissible sequences.
#[test]
fn expansion_runs_admissible() {
    let mut rng = StdRng::seed_from_u64(0xAD06);
    for _ in 0..CASES {
        let pool = arb_pool(&mut rng, 2, 3);
        let depth = rng.random_range(0..3usize);
        let ma = GeneralMA::oblivious(pool);
        let e = enumerate::expand_binary(&ma, depth, 100_000).unwrap();
        for run in &e.runs {
            assert!(ma.admits_prefix(&run.seq()));
        }
    }
}
