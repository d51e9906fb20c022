//! F4 / T4 — Figure 4 and Theorem 6.6: compact adversaries' component
//! structure across ε-resolutions.
//!
//! Regenerates the Fig. 4 datum — for a solvable compact adversary the
//! decision classes are separated with positive distance; prints the first
//! separating ε (Theorem 6.6) — and measures the prefix-space expansion +
//! component computation as depth grows, and the component-stats report
//! built on top of it.

use adversary::GeneralMA;
use benches::{full_lossy_link, reduced_lossy_link, stars3};
use consensus_core::{analysis, space::PrefixSpace, ExpandConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dyngraph::generators;
use std::hint::black_box;

fn bench_fig4(c: &mut Criterion) {
    // Regenerate the figure's qualitative content once.
    println!("\n[F4] reduced lossy link {{←, →}} (solvable):");
    for rep in analysis::depth_sweep(&reduced_lossy_link(), &[0, 1], 4, 2_000_000) {
        println!(
            "[F4]   depth {}: {} components, separated: {}, class distance: {}",
            rep.depth,
            rep.components.len(),
            rep.separated,
            rep.min_class_distance.map(|d| d.as_f64()).unwrap_or(f64::NAN)
        );
    }
    println!("[F4] full lossy link {{←, ↔, →}} (unsolvable — classes never split):");
    for rep in analysis::depth_sweep(&full_lossy_link(), &[0, 1], 4, 2_000_000) {
        println!(
            "[F4]   depth {}: {} components, {} mixed",
            rep.depth,
            rep.components.len(),
            rep.mixed_count()
        );
    }
    println!();

    let mut group = c.benchmark_group("fig4/expand_and_components");
    group.sample_size(10);
    for depth in [2usize, 4, 6] {
        for (name, ma) in [("reduced", reduced_lossy_link()), ("full", full_lossy_link())] {
            group.bench_with_input(
                BenchmarkId::new(name, depth),
                &(ma, depth),
                |b, (ma, depth)| {
                    b.iter(|| {
                        let cfg = ExpandConfig::with_budget(10_000_000);
                        let space = PrefixSpace::expand(ma, &[0, 1], *depth, &cfg).unwrap();
                        black_box(space.components().count())
                    })
                },
            );
        }
    }
    group.finish();

    let mut group = c.benchmark_group("fig4/broadcast_report");
    group.sample_size(10);
    for depth in [2usize, 4] {
        let space =
            PrefixSpace::expand(&stars3(), &[0, 1], depth, &ExpandConfig::with_budget(10_000_000))
                .unwrap();
        group.bench_with_input(BenchmarkId::new("stars3", depth), &space, |b, space| {
            b.iter(|| black_box(consensus_core::broadcast::broadcast_report(space)))
        });
    }
    group.finish();

    // The component-stats report on prebuilt spaces: components, valences,
    // broadcasters and the class distance between PS^ε(0) and PS^ε(1). On
    // both adversaries every run sits in one mixed component, so each class
    // is the whole space: (4·3^d)² resp. (4·4^d)² run pairs at depth d.
    let mut group = c.benchmark_group("fig4/report");
    group.sample_size(10);
    let all_graphs_2 = GeneralMA::oblivious(generators::all_graphs(2).collect());
    for depth in [4usize, 6] {
        for (name, ma) in [("full", full_lossy_link()), ("all-graphs-2", all_graphs_2.clone())] {
            let space =
                PrefixSpace::expand(&ma, &[0, 1], depth, &ExpandConfig::with_budget(10_000_000))
                    .unwrap();
            group.bench_with_input(BenchmarkId::new(name, depth), &space, |b, space| {
                b.iter(|| black_box(analysis::report(space)))
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
