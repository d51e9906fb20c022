//! Quickstart: check solvability of a message adversary, synthesize the
//! universal algorithm, and run it.
//!
//! ```text
//! cargo run -p examples-support --example quickstart
//! ```

use adversary::{GeneralMA, MessageAdversary};
use consensus_core::solvability::{SolvabilityChecker, Verdict};
use dyngraph::{generators, GraphSeq};
use examples_support::{section, verdict_line};
use simulator::engine;

fn main() {
    section("The reduced lossy link {←, →} (paper §6.1, [8])");
    let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
    println!("adversary: {}", ma.describe());

    let verdict = SolvabilityChecker::new(ma).max_depth(4).check();
    println!("verdict:   {}", verdict_line(&verdict));

    let cert = match verdict {
        Verdict::Solvable(cert) => cert,
        other => panic!("expected solvable, got: {other:?}"),
    };

    section("Running the synthesized universal algorithm");
    let alg = &cert.algorithm;
    for word in ["-> <- -> <-", "<- <- -> ->"] {
        let seq = GraphSeq::parse2(word).expect("valid arrow word");
        for inputs in [[0u32, 1], [1, 0], [1, 1]] {
            let exec = engine::run(alg, &inputs, &seq);
            let decisions: Vec<String> = (0..2)
                .map(|p| match exec.decision_of(p) {
                    Some((r, v)) => format!("p{p} decides {v} in round {r}"),
                    None => format!("p{p} undecided"),
                })
                .collect();
            println!("x={inputs:?} under {word}:  {}", decisions.join(", "));
            assert!(exec.agreement_holds());
        }
    }

    section("Broadcastability of the components (Theorem 5.11)");
    for comp in &cert.broadcast.components {
        let who: Vec<String> =
            comp.broadcasters.iter().map(|(p, t)| format!("p{p} (by round {t})")).collect();
        println!(
            "component {} ({} runs): broadcastable by {}",
            comp.component,
            comp.size,
            who.join(", ")
        );
    }
    println!();
    println!("Done: {}", verdict_line(&Verdict::Solvable(cert)));
}
