//! Scenarios — the unit of sweep traffic.
//!
//! A [`Scenario`] is *(adversary spec, depth, analysis kind)* plus budgets:
//! exactly one question the paper's machinery can answer about one
//! adversary at one resolution. Grids of scenarios (a catalog × depths ×
//! analyses product) are what the [`runner`](crate::runner) fans out.

use std::fmt;

use adversary::{catalog, spec::SpecTerm, DynMA};
use consensus_core::error::{Error, SpecError};
use dyngraph::Digraph;

/// Which analysis to run on the scenario's `(adversary, depth)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AnalysisKind {
    /// The three-valued solvability checker (§5.1 meta-procedure; sweeps
    /// depths `0..=depth` internally).
    Solvability,
    /// Mixed-component census and valence-connecting ε-chain extraction at
    /// the scenario depth (the §6.1 bivalence reconstruction).
    Bivalence,
    /// Broadcastability of every component (Theorem 5.11 / 6.6).
    Broadcastability,
    /// Component statistics: sizes, valences, class distances (Fig. 4/5).
    ComponentStats,
    /// Simulator cross-check: synthesize the universal algorithm if the
    /// space separates and verify it exhaustively; otherwise exhibit a
    /// reference-algorithm violation.
    SimCheck,
}

impl AnalysisKind {
    /// All kinds, in stable grid order.
    pub const ALL: [AnalysisKind; 5] = [
        AnalysisKind::Solvability,
        AnalysisKind::Bivalence,
        AnalysisKind::Broadcastability,
        AnalysisKind::ComponentStats,
        AnalysisKind::SimCheck,
    ];

    /// The stable machine name (CLI and result-store key).
    pub fn name(self) -> &'static str {
        match self {
            AnalysisKind::Solvability => "solvability",
            AnalysisKind::Bivalence => "bivalence",
            AnalysisKind::Broadcastability => "broadcastability",
            AnalysisKind::ComponentStats => "component-stats",
            AnalysisKind::SimCheck => "sim-check",
        }
    }

    /// The valid machine names, in stable grid order.
    pub const NAMES: [&'static str; 5] =
        ["solvability", "bivalence", "broadcastability", "component-stats", "sim-check"];

    /// Parse a machine name.
    ///
    /// # Errors
    /// Returns [`Error::UnknownAnalysis`] naming the valid set.
    pub fn parse(name: &str) -> Result<Self, Error> {
        Self::ALL
            .into_iter()
            .find(|k| k.name() == name)
            .ok_or_else(|| Error::UnknownAnalysis { name: name.to_string(), valid: &Self::NAMES })
    }
}

impl fmt::Display for AnalysisKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How the scenario's adversary is obtained: a term of the compositional
/// spec language ([`adversary::spec`]).
///
/// Construct via [`AdversarySpec::parse`] (the shared string language used
/// by the CLI's `--spec`, the HTTP API's `"spec"` field, and
/// `/v1/catalog`'s canonical strings), or [`AdversarySpec::catalog`] /
/// [`AdversarySpec::pool`] for the two historical shapes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdversarySpec(SpecTerm);

impl AdversarySpec {
    /// Parse a spec string (`"catalog(sw-lossy-link)"`,
    /// `"union(pool(->), eventually(<->))"`, …) into its canonical term.
    ///
    /// # Errors
    /// Returns [`Error::Spec`] with [`SpecError::Parse`] locating the
    /// first malformed byte.
    pub fn parse(input: &str) -> Result<Self, Error> {
        Ok(AdversarySpec(SpecTerm::parse(input)?))
    }

    /// The spec selecting catalog entry `name` (checked at
    /// [`build`](Self::build) time, like every other term).
    pub fn catalog(name: impl Into<String>) -> Self {
        AdversarySpec(SpecTerm::Catalog(name.into()))
    }

    /// The historical pool shape as a term: an oblivious adversary over
    /// whitespace-separated arrow tokens, optionally with an
    /// eventually-occurs liveness — the lowering shared by the CLI's
    /// `--pool/--eventually/--by` flags and the HTTP API's compat aliases.
    /// A liveness target absent from the pool is rejected at
    /// [`build`](Self::build) time (the shared `eventually(pool, target)`
    /// rule) with a typed [`Error::Spec`] (HTTP 400).
    ///
    /// # Errors
    /// Returns [`Error::Spec`] for unparsable tokens or an empty word.
    pub fn pool(word: &str, eventually: Option<(&str, Option<usize>)>) -> Result<Self, Error> {
        let pool = parse_pool(word)?;
        let term = match eventually {
            None => SpecTerm::Pool(pool),
            Some((target, by)) => SpecTerm::Eventually { pool, target: parse_graph(target)?, by },
        };
        Ok(AdversarySpec(term.normalize()))
    }

    /// The spec as a term of the shared language.
    pub fn term(&self) -> &SpecTerm {
        &self.0
    }

    /// Construct the adversary.
    ///
    /// # Errors
    /// Returns [`Error::Spec`] for unknown catalog names and terms that
    /// lower to no valid adversary.
    pub fn build(&self) -> Result<DynMA, Error> {
        Ok(self.0.lower()?)
    }

    /// The display label used in result records: the catalog name for
    /// catalog specs (so sweep resume and report grouping stay stable),
    /// otherwise the canonical spec string.
    pub fn label(&self) -> String {
        match &self.0 {
            SpecTerm::Catalog(name) => name.clone(),
            term => term.to_string(),
        }
    }

    /// The ground-truth checker outcome, where known (catalog entries only).
    pub fn expected(&self) -> Option<catalog::ExpectedOutcome> {
        match &self.0 {
            SpecTerm::Catalog(name) => catalog::by_name(name).map(|e| e.expected),
            _ => None,
        }
    }
}

fn parse_graph(token: &str) -> Result<Digraph, Error> {
    Digraph::parse2(token).map_err(|e| {
        Error::Spec(SpecError::BadGraph { token: token.to_string(), reason: e.to_string() })
    })
}

fn parse_pool(word: &str) -> Result<Vec<Digraph>, Error> {
    let graphs: Result<Vec<Digraph>, Error> = word.split_whitespace().map(parse_graph).collect();
    let graphs = graphs?;
    if graphs.is_empty() {
        return Err(Error::Spec(SpecError::EmptyPool));
    }
    Ok(graphs)
}

/// One unit of sweep traffic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// The adversary.
    pub spec: AdversarySpec,
    /// The resolution depth `t` (`ε = 2^{−t}`).
    pub depth: usize,
    /// The analysis to run.
    pub analysis: AnalysisKind,
    /// Step budget: maximum admissible runs per expansion.
    pub max_runs: usize,
    /// Attach the checkable certificate to the record's JSON when the
    /// verdict is definitive (see [`crate::session::Query::with_certificate`]).
    pub certificate: bool,
}

impl Scenario {
    /// A human-readable one-liner.
    pub fn label(&self) -> String {
        format!("{}@{}/{}", self.spec.label(), self.depth, self.analysis)
    }
}

/// A deterministic `i/n` partition of the scenario grid, so one sweep fans
/// out across CI jobs or machines. Assignment is round-robin on the global
/// grid index (`index % count == shard.index`), which balances depths and
/// analyses across shards; the selected entries keep their global indices,
/// so shard outputs merge back into the unsharded report exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's position, `0 ≤ index < count`.
    pub index: usize,
    /// Total number of shards, ≥ 1.
    pub count: usize,
}

impl Shard {
    /// Parse the CLI form `"i/n"`.
    ///
    /// # Errors
    /// Returns [`Error::BadShard`] for malformed input, `n = 0`, and
    /// `i ≥ n`.
    pub fn parse(s: &str) -> Result<Shard, Error> {
        let bad = |reason: String| Error::BadShard { spec: s.to_string(), reason };
        let (i, n) = s
            .split_once('/')
            .ok_or_else(|| bad(format!("shard spec {s:?} is not of the form i/n")))?;
        let index: usize =
            i.trim().parse().map_err(|_| bad(format!("bad shard index in {s:?}")))?;
        let count: usize =
            n.trim().parse().map_err(|_| bad(format!("bad shard count in {s:?}")))?;
        if count == 0 {
            return Err(bad("shard count must be at least 1".to_string()));
        }
        if index >= count {
            return Err(bad(format!("shard index {index} out of range for {count} shards")));
        }
        Ok(Shard { index, count })
    }

    /// Whether this shard owns global grid index `index`.
    pub fn selects(&self, index: usize) -> bool {
        index % self.count == self.index
    }

    /// This shard's slice of an indexed grid.
    pub fn select<T: Clone>(&self, entries: &[(usize, T)]) -> Vec<(usize, T)> {
        entries.iter().filter(|(i, _)| self.selects(*i)).cloned().collect()
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// Deterministic scenario grids.
#[derive(Debug, Clone)]
pub struct GridBuilder {
    depths: Vec<usize>,
    analyses: Vec<AnalysisKind>,
    max_runs: usize,
}

impl GridBuilder {
    /// Depths `1..=max_depth`, all analyses, the given step budget.
    pub fn new(max_depth: usize, max_runs: usize) -> Self {
        GridBuilder {
            depths: (1..=max_depth).collect(),
            analyses: AnalysisKind::ALL.to_vec(),
            max_runs,
        }
    }

    /// Restrict the analyses (grid order follows [`AnalysisKind::ALL`]).
    pub fn analyses(mut self, kinds: &[AnalysisKind]) -> Self {
        self.analyses = AnalysisKind::ALL.into_iter().filter(|k| kinds.contains(k)).collect();
        self
    }

    /// The grid over the whole built-in catalog, in catalog × depth ×
    /// analysis order.
    pub fn over_catalog(&self) -> Vec<Scenario> {
        let specs: Vec<AdversarySpec> =
            catalog::entries().iter().map(|e| AdversarySpec::catalog(e.name)).collect();
        self.over_specs(&specs)
    }

    /// The grid over explicit specs, in spec × depth × analysis order.
    pub fn over_specs(&self, specs: &[AdversarySpec]) -> Vec<Scenario> {
        let mut out = Vec::with_capacity(specs.len() * self.depths.len() * self.analyses.len());
        for spec in specs {
            for &depth in &self.depths {
                for &analysis in &self.analyses {
                    out.push(Scenario {
                        spec: spec.clone(),
                        depth,
                        analysis,
                        max_runs: self.max_runs,
                        certificate: false,
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_names_roundtrip() {
        for (kind, name) in AnalysisKind::ALL.into_iter().zip(AnalysisKind::NAMES) {
            assert_eq!(kind.name(), name);
            assert_eq!(AnalysisKind::parse(kind.name()).unwrap(), kind);
        }
        // The error names the valid set, so a typo is self-explaining.
        let err = AnalysisKind::parse("nope").unwrap_err();
        assert!(matches!(err, Error::UnknownAnalysis { .. }));
        assert!(err.to_string().contains("solvability, bivalence"), "{err}");
    }

    #[test]
    fn catalog_spec_builds() {
        let spec = AdversarySpec::catalog("sw-lossy-link");
        let ma = spec.build().unwrap();
        assert_eq!(ma.n(), 2);
        assert_eq!(spec.expected(), Some(None));
        assert_eq!(spec.label(), "sw-lossy-link");
        assert!(AdversarySpec::catalog("missing").build().is_err());
    }

    #[test]
    fn pool_spec_builds() {
        let spec = AdversarySpec::pool("-> <-", None).unwrap();
        let ma = spec.build().unwrap();
        assert!(ma.is_compact());
        assert_eq!(ma.pool_hint().unwrap().len(), 2);
        // The label is the canonical (sorted) spec string.
        assert_eq!(spec.label(), "pool(<- ->)");

        let live = AdversarySpec::pool("-> <- <->", Some(("<->", Some(2)))).unwrap();
        assert!(live.build().unwrap().is_compact());
        let nc = AdversarySpec::pool("-> <- <->", Some(("<->", None))).unwrap();
        assert!(!nc.build().unwrap().is_compact());
        assert_eq!(nc.label(), "eventually(<- -> <->, <->)");
        // The pool shape and its spec string share one fingerprint.
        let term = AdversarySpec::parse("eventually(-> <- <->, <->)").unwrap().build().unwrap();
        assert_eq!(nc.build().unwrap().fingerprint(), term.fingerprint());
    }

    #[test]
    fn parse_is_the_shared_front_door() {
        let spec = AdversarySpec::parse("union(pool(->), pool(<-))").unwrap();
        assert_eq!(spec.label(), "union(pool(->), pool(<-))");
        assert!(spec.build().unwrap().is_compact());
        // Spellings converge on the same term, hence the same label.
        assert_eq!(AdversarySpec::parse("union(pool(<-), pool( -> ))").unwrap(), spec);
        // Parse errors surface as typed spec errors with an offset.
        let err = AdversarySpec::parse("pool(").unwrap_err();
        assert!(matches!(err, Error::Spec(SpecError::Parse { .. })), "{err}");
        assert!(err.to_string().contains("at byte"), "{err}");
    }

    #[test]
    fn pool_rejects_liveness_target_outside_the_pool() {
        // The shared lowering refuses a target the pool can never produce.
        let spec = AdversarySpec::pool("-> <-", Some(("<->", None))).unwrap();
        let err = match spec.build() {
            Err(e) => e,
            Ok(_) => panic!("a target outside the pool must not build"),
        };
        assert!(err.to_string().contains("not in the pool"), "{err}");
    }

    #[test]
    fn bad_pool_rejected() {
        for word in ["", "xx", "-> zz"] {
            assert!(AdversarySpec::pool(word, None).is_err(), "{word:?} should fail");
        }
    }

    #[test]
    fn grid_is_deterministic_and_ordered() {
        let grid = GridBuilder::new(3, 100_000).over_catalog();
        let again = GridBuilder::new(3, 100_000).over_catalog();
        assert_eq!(grid, again);
        let per_entry = 3 * AnalysisKind::ALL.len();
        assert_eq!(grid.len(), adversary::catalog::entries().len() * per_entry);
        // First block: first catalog entry, depth 1, analyses in ALL order.
        assert_eq!(grid[0].depth, 1);
        assert_eq!(grid[0].analysis, AnalysisKind::Solvability);
        assert_eq!(grid[1].analysis, AnalysisKind::Bivalence);
    }

    #[test]
    fn shard_parse_and_partition() {
        assert_eq!(Shard::parse("0/2").unwrap(), Shard { index: 0, count: 2 });
        assert_eq!(Shard::parse("2/3").unwrap().to_string(), "2/3");
        for bad in ["", "1", "2/2", "3/2", "a/2", "1/b", "1/0", "-1/2"] {
            let err = Shard::parse(bad).expect_err(bad);
            assert!(matches!(err, Error::BadShard { .. }), "{bad:?}: {err}");
        }
        // Every index lands in exactly one shard; union is the whole grid.
        let entries: Vec<(usize, char)> = ('a'..='j').enumerate().collect();
        let n = 3;
        let mut seen = Vec::new();
        for i in 0..n {
            let shard = Shard { index: i, count: n };
            for (idx, _) in shard.select(&entries) {
                assert!(shard.selects(idx));
                seen.push(idx);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..entries.len()).collect::<Vec<_>>());
    }

    #[test]
    fn grid_analysis_filter() {
        let grid = GridBuilder::new(2, 1000)
            .analyses(&[AnalysisKind::SimCheck, AnalysisKind::Solvability])
            .over_specs(&[AdversarySpec::catalog("cgp-reduced-lossy-link")]);
        assert_eq!(grid.len(), 4);
        // Canonical order, not the caller's order.
        assert_eq!(grid[0].analysis, AnalysisKind::Solvability);
        assert_eq!(grid[1].analysis, AnalysisKind::SimCheck);
    }
}
