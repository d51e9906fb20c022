//! Golden pin of the component-stats analysis — the paper's Figure 4/5
//! data — over the whole catalog at depths 1..=6.
//!
//! Every row was produced by the pairwise definition of the class distance
//! `d_min(PS^ε(0), PS^ε(1)) = inf d_min(a, b)` (paper Definition 5.12),
//! which compared every pair of runs across the two decision classes. The
//! linear-time set distance must reproduce each row exactly: the exact
//! `Finite`/`Below` variant and its time, not just the variant.

use adversary::catalog;
use consensus_core::{analysis, config::ExpandConfig, PrefixSpace};
use ptgraph::distance::Distance::{self, Below, Finite};

const MAX_DEPTH: usize = 6;

/// `(entry, depth, separated, components, mixed components, largest
/// component, min_class_distance)`, in catalog order, depths ascending.
type Row = (&'static str, usize, bool, usize, usize, usize, Option<Distance>);

const GOLDEN: &[Row] = &[
    ("sw-lossy-link", 1, false, 1, 1, 12, Some(Below(1))),
    ("sw-lossy-link", 2, false, 1, 1, 36, Some(Below(2))),
    ("sw-lossy-link", 3, false, 1, 1, 108, Some(Below(3))),
    ("sw-lossy-link", 4, false, 1, 1, 324, Some(Below(4))),
    ("sw-lossy-link", 5, false, 1, 1, 972, Some(Below(5))),
    ("sw-lossy-link", 6, false, 1, 1, 2916, Some(Below(6))),
    ("cgp-reduced-lossy-link", 1, true, 4, 0, 2, Some(Finite(1))),
    ("cgp-reduced-lossy-link", 2, true, 12, 0, 2, Some(Finite(1))),
    ("cgp-reduced-lossy-link", 3, true, 28, 0, 2, Some(Finite(1))),
    ("cgp-reduced-lossy-link", 4, true, 60, 0, 2, Some(Finite(1))),
    ("cgp-reduced-lossy-link", 5, true, 124, 0, 2, Some(Finite(1))),
    ("cgp-reduced-lossy-link", 6, true, 252, 0, 2, Some(Finite(1))),
    ("message-loss-2-0", 1, true, 4, 0, 1, Some(Finite(0))),
    ("message-loss-2-0", 2, true, 4, 0, 1, Some(Finite(0))),
    ("message-loss-2-0", 3, true, 4, 0, 1, Some(Finite(0))),
    ("message-loss-2-0", 4, true, 4, 0, 1, Some(Finite(0))),
    ("message-loss-2-0", 5, true, 4, 0, 1, Some(Finite(0))),
    ("message-loss-2-0", 6, true, 4, 0, 1, Some(Finite(0))),
    ("message-loss-2-1", 1, false, 1, 1, 12, Some(Below(1))),
    ("message-loss-2-1", 2, false, 1, 1, 36, Some(Below(2))),
    ("message-loss-2-1", 3, false, 1, 1, 108, Some(Below(3))),
    ("message-loss-2-1", 4, false, 1, 1, 324, Some(Below(4))),
    ("message-loss-2-1", 5, false, 1, 1, 972, Some(Below(5))),
    ("message-loss-2-1", 6, false, 1, 1, 2916, Some(Below(6))),
    ("message-loss-2-2", 1, false, 1, 1, 16, Some(Below(1))),
    ("message-loss-2-2", 2, false, 1, 1, 64, Some(Below(2))),
    ("message-loss-2-2", 3, false, 1, 1, 256, Some(Below(3))),
    ("message-loss-2-2", 4, false, 1, 1, 1024, Some(Below(4))),
    ("message-loss-2-2", 5, false, 1, 1, 4096, Some(Below(5))),
    ("message-loss-2-2", 6, false, 1, 1, 16384, Some(Below(6))),
    ("rotating-star-3", 1, true, 6, 0, 4, Some(Finite(1))),
    ("rotating-star-3", 2, true, 30, 0, 4, Some(Finite(1))),
    ("rotating-star-3", 3, true, 126, 0, 4, Some(Finite(1))),
    ("rotating-star-3", 4, true, 462, 0, 4, Some(Finite(1))),
    ("rotating-star-3", 5, true, 1566, 0, 4, Some(Finite(1))),
    ("rotating-star-3", 6, true, 5070, 0, 4, Some(Finite(1))),
    ("all-rooted-2", 1, false, 1, 1, 12, Some(Below(1))),
    ("all-rooted-2", 2, false, 1, 1, 36, Some(Below(2))),
    ("all-rooted-2", 3, false, 1, 1, 108, Some(Below(3))),
    ("all-rooted-2", 4, false, 1, 1, 324, Some(Below(4))),
    ("all-rooted-2", 5, false, 1, 1, 972, Some(Below(5))),
    ("all-rooted-2", 6, false, 1, 1, 2916, Some(Below(6))),
    ("vssc-2-2-by-3", 1, false, 1, 1, 12, Some(Below(1))),
    ("vssc-2-2-by-3", 2, false, 1, 1, 36, Some(Below(2))),
    ("vssc-2-2-by-3", 3, true, 24, 0, 6, Some(Finite(1))),
    ("vssc-2-2-by-3", 4, true, 24, 0, 18, Some(Finite(1))),
    ("vssc-2-2-by-3", 5, true, 24, 0, 54, Some(Finite(1))),
    ("vssc-2-2-by-3", 6, true, 24, 0, 162, Some(Finite(1))),
    ("vssc-2-1-by-2", 1, false, 1, 1, 12, Some(Below(1))),
    ("vssc-2-1-by-2", 2, false, 1, 1, 36, Some(Below(2))),
    ("vssc-2-1-by-2", 3, false, 1, 1, 108, Some(Below(3))),
    ("vssc-2-1-by-2", 4, false, 1, 1, 324, Some(Below(4))),
    ("vssc-2-1-by-2", 5, false, 1, 1, 972, Some(Below(5))),
    ("vssc-2-1-by-2", 6, false, 1, 1, 2916, Some(Below(6))),
    ("eventually-bidirectional", 1, false, 1, 1, 12, Some(Below(1))),
    ("eventually-bidirectional", 2, false, 1, 1, 36, Some(Below(2))),
    ("eventually-bidirectional", 3, false, 1, 1, 108, Some(Below(3))),
    ("eventually-bidirectional", 4, false, 1, 1, 324, Some(Below(4))),
    ("eventually-bidirectional", 5, false, 1, 1, 972, Some(Below(5))),
    ("eventually-bidirectional", 6, false, 1, 1, 2916, Some(Below(6))),
    ("eventually-bidirectional-by-2", 1, false, 1, 1, 12, Some(Below(1))),
    ("eventually-bidirectional-by-2", 2, true, 12, 0, 3, Some(Finite(0))),
    ("eventually-bidirectional-by-2", 3, true, 12, 0, 9, Some(Finite(0))),
    ("eventually-bidirectional-by-2", 4, true, 12, 0, 27, Some(Finite(0))),
    ("eventually-bidirectional-by-2", 5, true, 12, 0, 81, Some(Finite(0))),
    ("eventually-bidirectional-by-2", 6, true, 12, 0, 243, Some(Finite(0))),
    ("forever-directional", 1, true, 4, 0, 2, Some(Finite(1))),
    ("forever-directional", 2, true, 4, 0, 2, Some(Finite(1))),
    ("forever-directional", 3, true, 4, 0, 2, Some(Finite(1))),
    ("forever-directional", 4, true, 4, 0, 2, Some(Finite(1))),
    ("forever-directional", 5, true, 4, 0, 2, Some(Finite(1))),
    ("forever-directional", 6, true, 4, 0, 2, Some(Finite(1))),
];

#[test]
fn component_stats_match_the_pairwise_golden_table() {
    let entries = catalog::entries();
    assert_eq!(GOLDEN.len(), entries.len() * MAX_DEPTH, "one row per entry and depth");
    let cfg = ExpandConfig::with_budget(2_000_000);
    let mut golden = GOLDEN.iter();
    for entry in &entries {
        let ma = entry.build();
        for depth in 1..=MAX_DEPTH {
            let space = PrefixSpace::expand(&ma, &[0, 1], depth, &cfg)
                .unwrap_or_else(|e| panic!("{}@{depth}: {e}", entry.name));
            let rep = analysis::report(&space);
            let largest = rep.components.iter().map(|c| c.size).max().unwrap_or(0);
            let got = (
                entry.name,
                depth,
                rep.separated,
                rep.components.len(),
                rep.mixed_count(),
                largest,
                rep.min_class_distance,
            );
            assert_eq!(&got, golden.next().expect("row"), "{}@{depth}", entry.name);
        }
    }
}
