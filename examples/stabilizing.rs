//! Non-compact, eventually-stabilizing adversaries (paper §6.3, [23]).
//!
//! The ◇stable(k) adversary over the lossy-link pool requires some window of
//! `k` consecutive rounds with a vertex-stable root component. Without a
//! deadline it is *non-compact*: the never-stabilizing limit sequences are
//! excluded. This example:
//!
//! * enumerates excluded limits with their convergence witnesses (Fig. 5);
//! * sweeps the compact approximations "stable window within R rounds" and
//!   runs the solvability checker on each (Theorem 6.6 applies to them);
//! * contrasts window lengths k = 1 (never solvable: the adversary degrades
//!   to the full oblivious pool) and k = 2 (solvable once the deadline
//!   forces the window early enough).
//!
//! ```text
//! cargo run -p examples-support --example stabilizing
//! ```

use adversary::{limit, GeneralMA, MessageAdversary};
use consensus_core::solvability::SolvabilityChecker;
use dyngraph::generators;
use examples_support::{section, verdict_line};

fn main() {
    section("◇stable(2) over {←, ↔, →}: excluded limits (Fig. 5)");
    let ma = GeneralMA::stabilizing(generators::lossy_link_full(), 2, None);
    println!("adversary: {} (non-compact: {})", ma.describe(), !ma.is_compact());
    let excluded = limit::excluded_limits(&ma, 0, 2, 3);
    println!("{} excluded limit lassos of shape (·)^ω with cycle 2:", excluded.len());
    for ex in excluded.iter().take(6) {
        let witness: Vec<String> = ex.witnesses.iter().map(|w| format!("{w}")).collect();
        println!("  limit {}   ← witnesses: {}", ex.limit, witness.join(", "));
    }

    section("Compact approximations: stable(k) within deadline R");
    for k in [1usize, 2] {
        for r in [2usize, 3] {
            if r < k {
                continue;
            }
            let ma = GeneralMA::stabilizing(generators::lossy_link_full(), k, Some(r));
            let verdict = SolvabilityChecker::new(ma).max_depth(r + 2).max_runs(4_000_000).check();
            println!("stable({k}) by round {r}: {}", verdict_line(&verdict));
        }
    }

    section("Interpretation");
    println!(
        "k = 1 degrades to the oblivious pool (every singleton round is a stable\n\
         window), so the valence classes stay mixed — consensus impossible, as for\n\
         the plain lossy link. k = 2 with a deadline forces two consecutive rounds\n\
         with one root component; the surviving prefixes separate the valences and\n\
         the universal algorithm of Theorem 5.5 is synthesized and verified."
    );
}
