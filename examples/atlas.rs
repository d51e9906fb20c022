//! The n = 2 oblivious solvability atlas: every nonempty pool over the four
//! 2-process graphs {∅, ←, →, ↔}, with the checker's verdict, the kernel
//! criterion of [8], decision depths, and component counts — the complete
//! landscape the paper's §1/§6 examples are drawn from.
//!
//! ```text
//! cargo run -p examples-support --example atlas
//! ```

use adversary::GeneralMA;
use consensus_core::{baselines, solvability::SolvabilityChecker, solvability::Verdict};
use dyngraph::{generators, Digraph};
use examples_support::section;

fn main() {
    section("n = 2 oblivious solvability atlas");
    println!("{:<24} {:<34} {:<12} notes", "pool", "checker verdict", "kernel [8]");
    let all: Vec<Digraph> = generators::all_graphs(2).collect();
    let mut agree = 0;
    for bits in 1u32..16 {
        let pool: Vec<Digraph> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| bits & (1 << i) != 0)
            .map(|(_, g)| g.clone())
            .collect();
        let name =
            format!("{{{}}}", pool.iter().map(|g| g.to_string()).collect::<Vec<_>>().join(", "));
        let kernel = baselines::kernel_beta_solvable_n2(&pool);
        let verdict = SolvabilityChecker::new(GeneralMA::oblivious(pool)).max_depth(4).check();
        let (tag, note) = match &verdict {
            Verdict::Solvable(cert) => (
                format!("SOLVABLE (depth {})", cert.depth),
                format!(
                    "{} components, decides by round {}",
                    cert.component_count, cert.verification.max_decision_round
                ),
            ),
            Verdict::Unsolvable(_) => {
                ("UNSOLVABLE (exact chain)".to_string(), "distance-0 input-flip chain".to_string())
            }
            Verdict::Undecided(rep) => (
                format!("mixed through depth {}", rep.max_depth),
                format!("{} mixed components; limit-only impossibility", rep.mixed_components),
            ),
        };
        let checker_solvable = verdict.is_solvable();
        if checker_solvable == kernel {
            agree += 1;
        }
        println!(
            "{name:<24} {tag:<34} {:<12} {note}",
            if kernel { "solvable" } else { "unsolvable" }
        );
    }
    println!("\nchecker/kernel agreement: {agree}/15 pools");
    assert_eq!(agree, 15, "the topological checker must match [8] on n = 2");
}
