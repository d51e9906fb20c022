//! Adversary lab: build custom message adversaries (catalog entries,
//! predicate-defined constraints, intersections) and put them through the
//! full pipeline — solvability check, boundary census, and an execution
//! transcript of the synthesized algorithm.
//!
//! ```text
//! cargo run -p examples-support --example adversary_lab
//! ```

use adversary::{
    catalog,
    predicate::{PredicateMA, PrefixStatus},
    GeneralMA, IntersectMA, MessageAdversary,
};
use consensus_core::{compactness, solvability::SolvabilityChecker, solvability::Verdict};
use dyngraph::{generators, GraphSeq};
use examples_support::{section, verdict_line};
use simulator::trace;

fn main() {
    section("Catalog adversaries through the checker");
    let entries: Vec<(&str, Box<dyn MessageAdversary>)> = vec![
        ("santoro_widmayer_lossy_link", Box::new(catalog::santoro_widmayer_lossy_link())),
        ("cgp_reduced_lossy_link", Box::new(catalog::cgp_reduced_lossy_link())),
        ("rotating_star(3)", Box::new(catalog::rotating_star(3))),
        ("message_loss(2, 2)", Box::new(catalog::message_loss(2, 2))),
        ("vssc(2, window=2, by 3)", Box::new(catalog::vssc(2, 2, Some(3)))),
    ];
    for (name, _ma) in &entries {
        // Rebuild concrete types for the checker (it takes ownership).
        let verdict = match *name {
            "santoro_widmayer_lossy_link" => {
                SolvabilityChecker::new(catalog::santoro_widmayer_lossy_link())
                    .max_depth(4)
                    .check()
            }
            "cgp_reduced_lossy_link" => {
                SolvabilityChecker::new(catalog::cgp_reduced_lossy_link()).max_depth(4).check()
            }
            "rotating_star(3)" => SolvabilityChecker::new(catalog::rotating_star(3))
                .max_depth(3)
                .max_runs(4_000_000)
                .check(),
            "message_loss(2, 2)" => {
                SolvabilityChecker::new(catalog::message_loss(2, 2)).max_depth(3).check()
            }
            _ => SolvabilityChecker::new(catalog::vssc(2, 2, Some(3)))
                .max_depth(5)
                .max_runs(4_000_000)
                .check(),
        };
        println!("{name:32} {}", verdict_line(&verdict));
    }

    section("A custom predicate adversary: 'no two consecutive ← rounds'");
    let no_double_left =
        PredicateMA::new(generators::lossy_link_full(), "no-double-left", |prefix: &GraphSeq| {
            let bad = (2..=prefix.rounds()).any(|t| {
                prefix.graph(t).arrow2() == Some("<-") && prefix.graph(t - 1).arrow2() == Some("<-")
            });
            if bad {
                PrefixStatus::Dead
            } else {
                PrefixStatus::Satisfied
            }
        });
    println!("adversary: {}", no_double_left.describe());
    let verdict = SolvabilityChecker::new(no_double_left).max_depth(4).check();
    println!("verdict:   {}", verdict_line(&verdict));

    section("Intersection: no-double-left ∩ (↔ within 2 rounds)");
    let a = PredicateMA::new(generators::lossy_link_full(), "no-double-left", |prefix| {
        let bad = (2..=prefix.rounds()).any(|t| {
            prefix.graph(t).arrow2() == Some("<-") && prefix.graph(t - 1).arrow2() == Some("<-")
        });
        if bad {
            PrefixStatus::Dead
        } else {
            PrefixStatus::Satisfied
        }
    });
    let b = GeneralMA::eventually_graph(
        generators::lossy_link_full(),
        dyngraph::Digraph::parse2("<->").unwrap(),
        Some(2),
    );
    let both = IntersectMA::new(vec![Box::new(a), Box::new(b)]);
    println!("adversary: {}", both.describe());
    println!("boundary census (pool-valid vs admissible prefixes):");
    for rep in compactness::boundary_sweep(&both, 3) {
        println!(
            "  depth {}: {} pool-valid, {} admissible, {} dead",
            rep.depth, rep.pool_valid, rep.admissible, rep.dead
        );
    }
    let verdict = SolvabilityChecker::new(both).max_depth(5).check();
    println!("verdict:   {}", verdict_line(&verdict));

    if let Verdict::Solvable(cert) = verdict {
        section("Transcript of the synthesized algorithm on one run");
        let seq = GraphSeq::parse2("-> <-> <- ->").unwrap();
        let exec = simulator::engine::run(&cert.algorithm, &[0, 1], &seq);
        print!("{}", trace::transcript(&cert.algorithm, &[0, 1], &seq, &exec, 48));
    }
}
