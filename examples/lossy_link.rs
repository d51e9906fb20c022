//! The Santoro–Widmayer lossy link (paper §1, §6.1, [21]): consensus under
//! the oblivious adversary over {←, ↔, →} is impossible. This example shows
//! the topological reading of that impossibility:
//!
//! * the valence classes never separate — one ε-approximation component
//!   contains both `z_0` and `z_1` at every examined depth;
//! * a valence-connecting chain of runs (the finite shadow of the fair
//!   sequence, Definition 5.16) is extracted per depth, and grows;
//! * a classic bivalence-style obstruction run is constructed for a
//!   concrete would-be algorithm (§6.1).
//!
//! ```text
//! cargo run -p examples-support --example lossy_link
//! ```

use adversary::{GeneralMA, MessageAdversary};
use consensus_core::{analysis, bivalence, fair, space::PrefixSpace, ExpandConfig};
use dyngraph::generators;
use examples_support::section;
use simulator::algorithms::FloodMin;

fn main() {
    let ma = GeneralMA::oblivious(generators::lossy_link_full());
    println!("adversary: {} (Santoro–Widmayer lossy link)", ma.describe());

    section("Depth sweep: the valence classes never separate");
    for report in analysis::depth_sweep(&ma, &[0, 1], 4, 2_000_000) {
        println!(
            "depth {}: {:4} runs, {:3} components, {} mixed, separated: {}",
            report.depth,
            report.run_count,
            report.components.len(),
            report.mixed_count(),
            report.separated
        );
    }

    section("The fair-sequence shadow: valence-connecting chains per depth");
    for depth in 1..=4 {
        let space = PrefixSpace::expand(&ma, &[0, 1], depth, &ExpandConfig::default())
            .expect("within budget");
        let chain = fair::valence_chain(&space, 0, 1).expect("mixed component chains");
        assert!(fair::validate_epsilon_chain(&space, &chain));
        println!("depth {depth}: chain of {} links:", chain.links.len());
        let ids = chain.run_indices();
        for (k, &i) in ids.iter().enumerate() {
            let run = &space.runs().get(i);
            let via = if k == 0 {
                "start".to_string()
            } else {
                format!("shares p{}'s view", chain.links[k - 1].shared_view_of)
            };
            println!("    x={:?} under {}   ({via})", run.inputs(), run.seq());
        }
    }

    section("No exact distance-0 chain exists (rooted pool)");
    match fair::exact_zero_chain(&ma, 0, 1, 3) {
        None => println!(
            "confirmed: every admissible lasso (cycle ≤ 3) has a broadcaster — the\n\
             impossibility lives in the limit, exactly as Fig. 5 / §6.1 describe"
        ),
        Some(c) => panic!("unexpected exact chain: {c:?}"),
    }

    section("Bivalence-style obstruction for FloodMin(4) (§6.1)");
    let alg = FloodMin::new(4);
    let run = bivalence::bivalent_run(&alg, &ma, &[0, 1], 4, 2)
        .expect("obstructed run must exist on an unsolvable adversary");
    println!("obstructed initial inputs: {:?}", run.inputs);
    for (t, step) in run.steps.iter().enumerate() {
        println!(
            "round {}: extend with {}  (reachable outcomes {:?})",
            t + 1,
            step.graph,
            step.outcomes
        );
    }
    println!(
        "\nThe adversary extends the obstruction forever — the constructed run is\n\
         the common limit of executions from both decision sets (Def. 5.16)."
    );
}
