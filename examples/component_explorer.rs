//! Component explorer: print the Fig. 2 process-time graph, the Fig. 3
//! distance table, and Fig. 4/5-style component reports for a compact and a
//! non-compact adversary.
//!
//! ```text
//! cargo run -p examples-support --example component_explorer
//! ```

use adversary::GeneralMA;
use consensus_core::{analysis, space::PrefixSpace, ExpandConfig};
use dyngraph::generators;
use examples_support::section;
use ptgraph::{distance, fig2_example};

fn main() {
    section("Figure 2: a process-time graph (n = 3, x = (1, 0, 1), t = 2)");
    let pt = fig2_example();
    print!("{}", pt.render_ascii());
    println!("\nview of process 0 at time 2 (causal past):");
    for (p, t) in pt.causal_past(&[0], 2) {
        println!("  ({p}, {t})");
    }
    println!("\nGraphviz (with the view highlighted):");
    print!("{}", pt.to_dot("fig2", Some((&[0], 2))));

    section("Figure 3: d_max, d_P, d_min on one pair of executions");
    let (alpha, beta, _table) = distance::fig3_example();
    println!("α: x={:?} under {}", alpha.inputs(), alpha.seq());
    println!("β: x={:?} under {}", beta.inputs(), beta.seq());
    for p in 0..3 {
        println!("  d_{{{p}}}(α, β) = {}", distance::d_p(&alpha, &beta, p).as_f64());
    }
    println!("  d_max(α, β) = {}", distance::d_max(&alpha, &beta).as_f64());
    println!("  d_min(α, β) = {}", distance::d_min(&alpha, &beta).as_f64());

    section("Figure 4: compact adversary {←, →} — separated decision sets");
    let compact = GeneralMA::oblivious(generators::lossy_link_reduced());
    let space =
        PrefixSpace::expand(&compact, &[0, 1], 3, &ExpandConfig::default()).expect("budget");
    print!("{}", analysis::report(&space));

    section("Figure 5: non-compact ◇stable(2) — classes touch at every depth");
    let noncompact = GeneralMA::stabilizing(generators::lossy_link_full(), 2, None);
    for report in analysis::depth_sweep(&noncompact, &[0, 1], 3, 2_000_000) {
        println!(
            "depth {}: {} components, {} mixed, min class distance {}",
            report.depth,
            report.components.len(),
            report.mixed_count(),
            report
                .min_class_distance
                .map(|d| format!("{}", d.as_f64()))
                .unwrap_or_else(|| "n/a".into())
        );
    }
}
