//! The flat run store's equivalence contract over the full catalog.
//!
//! Views are interned once per (input, prefix node) in level order, so a
//! from-scratch expansion and a ladder chain from depth 0 are the same
//! computation: runs, view ids, table contents and ε-component ids must
//! agree exactly, at every depth 0..=5 and every worker count. Every run
//! handle must also describe the same causal pasts as a standalone
//! `PrefixRun::compute` on a fresh table.
//!
//! The worker counts exercised default to {1, 2, 8}; CI narrows a job to
//! one count via the `EXPAND_THREADS` env var (e.g. `EXPAND_THREADS=2`).

use std::collections::HashMap;

use adversary::catalog;
use adversary::enumerate::expand_with;
use consensus_core::config::ExpandConfig;
use consensus_core::PrefixSpace;
use ptgraph::{PrefixRun, ViewId, ViewTable};

const BUDGET: usize = 2_000_000;
const VALUES: &[u32] = &[0, 1];
const MAX_DEPTH: usize = 5;

/// Worker counts under test: `EXPAND_THREADS` (comma-separated) or 1, 2, 8.
fn thread_counts() -> Vec<usize> {
    match std::env::var("EXPAND_THREADS") {
        Ok(list) => list
            .split(',')
            .map(|t| t.trim().parse().expect("EXPAND_THREADS must be comma-separated numbers"))
            .collect(),
        Err(_) => vec![1, 2, 8],
    }
}

#[test]
fn scratch_builds_equal_ladder_chains_across_catalog() {
    for entry in catalog::entries() {
        let ma = entry.build();
        for threads in thread_counts() {
            let cfg = ExpandConfig::with_budget(BUDGET).threads(threads);
            let mut ladder = PrefixSpace::expand(&ma, VALUES, 0, &cfg)
                .unwrap_or_else(|e| panic!("{}: depth-0 build failed: {e}", entry.name));
            for depth in 0..=MAX_DEPTH {
                if depth > 0 {
                    ladder = ladder
                        .extend_from(&ma, &cfg)
                        .unwrap_or_else(|e| panic!("{}@{depth}: ladder failed: {e}", entry.name));
                }
                let scratch = PrefixSpace::expand(&ma, VALUES, depth, &cfg)
                    .unwrap_or_else(|e| panic!("{}@{depth}: build failed: {e}", entry.name));
                let at = format!("{}@{depth} threads={threads}", entry.name);
                assert_eq!(ladder.runs(), scratch.runs(), "{at}: runs diverge");
                assert_eq!(ladder.table(), scratch.table(), "{at}: view tables diverge");
                assert_eq!(ladder.components(), scratch.components(), "{at}: components diverge");
            }
        }
    }
}

#[test]
fn run_views_match_standalone_runs_across_catalog() {
    for entry in catalog::entries() {
        let ma = entry.build();
        for depth in 0..=MAX_DEPTH {
            for threads in thread_counts() {
                let e = expand_with(&ma, VALUES, depth, BUDGET, threads)
                    .unwrap_or_else(|err| panic!("{}@{depth}: {err}", entry.name));
                let at = format!("{}@{depth} threads={threads}", entry.name);
                let mut fresh = ViewTable::new(e.n());
                // Store id → standalone id: a bijection, checked both ways.
                let mut to_fresh: HashMap<ViewId, ViewId> = HashMap::new();
                let mut to_store: HashMap<ViewId, ViewId> = HashMap::new();
                for run in e.runs.iter() {
                    let alone = PrefixRun::compute(run.inputs().to_vec(), &run.seq(), &mut fresh);
                    assert_eq!(run.rounds(), depth, "{at}");
                    for t in 0..=depth {
                        for p in 0..e.n() {
                            let (ours, theirs) = (run.view(p, t), alone.view(p, t));
                            if *to_fresh.entry(ours).or_insert(theirs) != theirs
                                || *to_store.entry(theirs).or_insert(ours) != ours
                            {
                                panic!(
                                    "{at}: run {} view of p{p}@{t} is not the same view",
                                    run.index()
                                );
                            }
                        }
                    }
                }
                assert_eq!(to_fresh.len(), e.table.len(), "{at}: every view is some run's");
                assert_eq!(fresh.len(), e.table.len(), "{at}: same number of distinct views");
                // Structural identity: the deepest views render their whole
                // causal past, so every view renders identically.
                for (&ours, &theirs) in &to_fresh {
                    if e.table.data(ours).time == depth {
                        assert_eq!(e.table.render(ours), fresh.render(theirs), "{at}");
                    }
                }
            }
        }
    }
}
