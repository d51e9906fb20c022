//! Component statistics and reports — the data behind the paper's Figures 4
//! and 5.
//!
//! Figure 4 depicts the decision sets of a *compact* adversary: closed
//! components at pairwise distance > 0. Figure 5 depicts a *non-compact*
//! adversary: components that come arbitrarily close, with their common
//! limit points excluded. [`SpaceReport`] quantifies exactly that for a
//! prefix space: per-component sizes, valences, broadcasters, and the
//! pairwise minimum distances between the valence classes across depths.

use std::collections::BTreeSet;
use std::fmt;

use adversary::enumerate::RunRef;
use adversary::MessageAdversary;
use ptgraph::{distance, Value};

use crate::{broadcast, space::PrefixSpace};

/// Statistics of one component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentStats {
    /// Component id.
    pub id: usize,
    /// Number of runs.
    pub size: usize,
    /// Valences of the valent runs inside (empty = unlabeled component).
    pub valences: BTreeSet<Value>,
    /// Broadcasters within the horizon, with worst-case completion rounds.
    pub broadcasters: Vec<(dyngraph::Pid, usize)>,
}

impl ComponentStats {
    /// Whether the component mixes valences.
    pub fn is_mixed(&self) -> bool {
        self.valences.len() >= 2
    }
}

/// A full report over a prefix space at one depth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpaceReport {
    /// The depth `t` (`ε = 2^{−t}`).
    pub depth: usize,
    /// Total admissible runs.
    pub run_count: usize,
    /// Distinct interned views.
    pub view_count: usize,
    /// Per-component statistics.
    pub components: Vec<ComponentStats>,
    /// The smallest `d_min` between the decision classes `PS^ε(v)` and
    /// `PS^ε(w)` (unions of components containing `v`- resp. `w`-valent
    /// runs), minimized over value pairs. `Below(depth)` when some
    /// component contains both valences (the classes touch at this
    /// resolution — the Fig. 5 situation); a positive `Finite(t)` when the
    /// classes are separated (Fig. 4); `None` when a class is missing.
    pub min_class_distance: Option<distance::Distance>,
    /// Whether the valence labeling is separated at this depth.
    pub separated: bool,
}

impl SpaceReport {
    /// Number of mixed components.
    pub fn mixed_count(&self) -> usize {
        self.components.iter().filter(|c| c.is_mixed()).count()
    }
}

impl fmt::Display for SpaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "depth {} (ε=2^-{}): {} runs, {} views, {} components, separated: {}",
            self.depth,
            self.depth,
            self.run_count,
            self.view_count,
            self.components.len(),
            self.separated
        )?;
        for c in &self.components {
            let val: Vec<String> = c.valences.iter().map(|v| format!("z{v}")).collect();
            let bc: Vec<String> = c.broadcasters.iter().map(|(p, t)| format!("p{p}@{t}")).collect();
            writeln!(
                f,
                "  component {}: {} runs, valences [{}], broadcasters [{}]{}",
                c.id,
                c.size,
                val.join(", "),
                bc.join(", "),
                if c.is_mixed() { "  ← MIXED" } else { "" }
            )?;
        }
        if let Some(d) = self.min_class_distance {
            writeln!(f, "  min distance between valence classes: {}", d.as_f64())?;
        }
        Ok(())
    }
}

/// Compute the report for a prefix space.
pub fn report(space: &PrefixSpace) -> SpaceReport {
    let bc = broadcast::broadcast_report(space);
    let comps = space.components();
    let labels = space.valence_labels();
    let mut components = Vec::with_capacity(comps.count());
    for c in 0..comps.count() {
        let members = comps.members(c);
        let mut valences = BTreeSet::new();
        for &i in members {
            if let Some(&v) = labels.get(&i) {
                valences.insert(v);
            }
        }
        components.push(ComponentStats {
            id: c,
            size: members.len(),
            valences,
            broadcasters: bc.components[c].broadcasters.clone(),
        });
    }

    // Distance between the decision classes PS^ε(v): the union of
    // components containing a v-valent run (Definition 6.2). Touching
    // classes (a mixed component) register as Below(depth).
    let classes = decision_classes(space, &components);
    let min_class_distance = classes
        .iter()
        .enumerate()
        .flat_map(|(i, vs)| {
            classes[i + 1..].iter().filter_map(move |ws| distance::set_distance_min(vs, ws))
        })
        .min();

    SpaceReport {
        depth: space.depth(),
        run_count: space.runs().len(),
        view_count: space.table().len(),
        // Corollary 5.6 at this resolution: no component mixes valences.
        separated: !components.iter().any(ComponentStats::is_mixed),
        components,
        min_class_distance,
    }
}

/// The runs of each decision class `PS^ε(v)`, in domain order: the runs of
/// every component whose valences include `v`.
fn decision_classes<'s>(
    space: &'s PrefixSpace,
    components: &[ComponentStats],
) -> Vec<Vec<RunRef<'s>>> {
    let comps = space.components();
    space
        .values()
        .iter()
        .map(|v| {
            let member: Vec<bool> = components.iter().map(|c| c.valences.contains(v)).collect();
            space.runs().iter().filter(|r| member[comps.component_of(r.index())]).collect()
        })
        .collect()
}

/// Reports across a depth sweep — the raw series for the Figure 4/5
/// comparison and the Theorem 6.6 ε-search.
///
/// Depths whose expansion exceeds `max_runs` are skipped (the sweep stops).
pub fn depth_sweep(
    ma: &dyn MessageAdversary,
    values: &[Value],
    max_depth: usize,
    max_runs: usize,
) -> Vec<SpaceReport> {
    let mut out = Vec::new();
    for depth in 0..=max_depth {
        let cfg = crate::config::ExpandConfig::with_budget(max_runs);
        match PrefixSpace::expand(ma, values, depth, &cfg) {
            Ok(space) => out.push(report(&space)),
            Err(_) => break,
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;

    use super::*;
    use adversary::{catalog, GeneralMA};
    use dyngraph::{generators, Digraph};
    use ptgraph::distance::Distance;
    use ptgraph::RunViews;

    use crate::config::ExpandConfig;

    const CFG: ExpandConfig = ExpandConfig { threads: 1, max_runs: 1_000_000 };

    #[test]
    fn report_reduced_lossy_link() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        let rep = report(&space);
        assert!(rep.separated);
        assert_eq!(rep.mixed_count(), 0);
        assert_eq!(rep.run_count, 16);
        // Fig. 4 behavior: valence classes at positive distance.
        match rep.min_class_distance.unwrap() {
            Distance::Finite(t) => assert!(t <= 2),
            Distance::Below(_) => panic!("classes should be separated at finite distance"),
        }
        let text = rep.to_string();
        assert!(text.contains("separated: true"));
    }

    #[test]
    fn report_full_lossy_link_mixed() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let space = PrefixSpace::expand(&ma, &[0, 1], 2, &CFG).unwrap();
        let rep = report(&space);
        assert!(!rep.separated);
        assert!(rep.mixed_count() >= 1);
        assert!(rep.to_string().contains("MIXED"));
    }

    #[test]
    fn depth_sweep_monotone_views() {
        let ma = GeneralMA::oblivious(generators::lossy_link_reduced());
        let sweep = depth_sweep(&ma, &[0, 1], 3, 1_000_000);
        assert_eq!(sweep.len(), 4);
        for w in sweep.windows(2) {
            assert!(w[1].view_count >= w[0].view_count);
            assert!(w[1].run_count >= w[0].run_count);
        }
    }

    #[test]
    fn fig5_distance_shrinks_for_noncompact() {
        // Non-compact ♦stable(2): the valence classes keep touching at
        // every depth (distance below resolution — their separation only
        // happens in the limit via excluded sequences).
        let ma = GeneralMA::stabilizing(generators::lossy_link_full(), 2, None);
        let sweep = depth_sweep(&ma, &[0, 1], 3, 1_000_000);
        for rep in &sweep {
            match rep.min_class_distance.unwrap() {
                Distance::Below(t) => assert_eq!(t, rep.depth),
                Distance::Finite(t) => {
                    panic!("expected touching classes, got distance 2^-{t}")
                }
            }
        }
    }

    #[test]
    fn depth_sweep_respects_budget() {
        let ma = GeneralMA::oblivious(generators::lossy_link_full());
        let sweep = depth_sweep(&ma, &[0, 1], 10, 500);
        assert!(sweep.len() < 11, "budget must cut the sweep");
    }

    /// A run handle that counts its view reads.
    struct Counted<'a> {
        run: RunRef<'a>,
        reads: &'a Cell<usize>,
    }

    impl RunViews for Counted<'_> {
        fn n(&self) -> usize {
            self.run.n()
        }

        fn rounds(&self) -> usize {
            self.run.rounds()
        }

        fn view(&self, p: dyngraph::Pid, t: usize) -> ptgraph::ViewId {
            self.reads.set(self.reads.get() + 1);
            self.run.view(p, t)
        }
    }

    #[test]
    fn class_distance_reads_each_run_a_bounded_number_of_times() {
        // message-loss-2-2 at depth 5 is one component, so both decision
        // classes are the whole space: the pairwise definition compares
        // 4096 × 4096 runs. The set distance must read each run's views at
        // most n · (T + 2) times instead.
        let space = PrefixSpace::expand(&catalog::message_loss(2, 2), &[0, 1], 5, &CFG).unwrap();
        let rep = report(&space);
        let classes = decision_classes(&space, &rep.components);
        let (zeros, ones) = (&classes[0], &classes[1]);
        assert_eq!((zeros.len(), ones.len()), (4096, 4096));
        let reads = Cell::new(0);
        fn count<'a>(class: &[RunRef<'a>], reads: &'a Cell<usize>) -> Vec<Counted<'a>> {
            class.iter().map(|&run| Counted { run, reads }).collect()
        }
        let d = distance::set_distance_min(&count(zeros, &reads), &count(ones, &reads));
        assert_eq!(d, rep.min_class_distance);
        assert_eq!(d, Some(Distance::Below(5)));
        let bound = (zeros.len() + ones.len()) * space.n() * (space.depth() + 2);
        assert!(reads.get() <= bound, "{} view reads, bound {bound}", reads.get());
        assert!(bound < zeros.len() * ones.len());
    }

    #[test]
    fn report_single_graph_pool() {
        let ma = GeneralMA::oblivious(vec![Digraph::parse2("<->").unwrap()]);
        let space = PrefixSpace::expand(&ma, &[0, 1], 1, &ExpandConfig::with_budget(1000)).unwrap();
        let rep = report(&space);
        assert!(rep.separated);
        assert_eq!(rep.run_count, 4);
        // Components: all four input pairs distinguishable after ↔.
        assert_eq!(rep.components.len(), 4);
    }
}
