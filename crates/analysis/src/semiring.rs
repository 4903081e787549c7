//! Static semiring support facts: what the generic provenance path
//! (`PreparedQuery::answers_in::<S>`) and the update simplifier's
//! certainty pruning can promise for a workload *before* it runs.
//!
//! The query engine interns each answer's condition as one conjunction
//! of literals, so every semiring in `pxml_events::semiring` is
//! evaluated **exactly** on pattern-query answers — there is no
//! approximation to certify. What remains static and useful:
//!
//! - a **lineage width bound**: an answer's [`Lineage`] set only ever
//!   mentions events some condition mentions, so the census'
//!   `num_relevant` bounds it (and a statically-empty query's answers
//!   have width 0);
//! - a **top-k exactness** fact: a single-conjunction condition carries
//!   exactly one proof, so [`TopKProofs`] is exact for any `k ≥ 1`
//!   (and needs zero proofs when the query is statically empty);
//! - which semirings make the update simplifier's certainty pruning a
//!   non-identity: only semirings with certain literals (probability,
//!   possibility) prune, and only when the tree actually carries
//!   π = 1 events.
//!
//! [`Lineage`]: pxml_events::Lineage
//! [`TopKProofs`]: pxml_events::TopKProofs

use crate::census::{WorldsAnalysis, WorldsLint};
use crate::query::QueryAnalysis;

/// The semiring instances the generic query/update paths accept, in the
/// order the machine lines list them.
pub const SUPPORTED_SEMIRINGS: &[&str] = &[
    "probability",
    "possibility",
    "counting",
    "lineage",
    "top_k_proofs",
];

/// Per-query semiring facts, derived from the query analysis and (when
/// a tree was supplied) the world census.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuerySemiringSupport {
    /// Upper bound on any answer's lineage set size. `None` means no
    /// tree was supplied, so no bound is known.
    pub lineage_width_bound: Option<usize>,
    /// Maximum number of proofs any answer needs: `0` for a statically
    /// empty query, `1` otherwise (answer conditions are single
    /// conjunctions).
    pub topk_proofs_needed: usize,
}

impl QuerySemiringSupport {
    /// `true` — `TopKProofs { k }` is exact whenever
    /// `k >= topk_proofs_needed.max(1)`, which every `k ≥ 1` satisfies.
    pub fn topk_exact(&self) -> bool {
        self.topk_proofs_needed <= 1
    }
}

/// Computes the per-query semiring facts.
pub fn query_semiring_support(
    query: &QueryAnalysis,
    worlds: Option<&WorldsAnalysis>,
) -> QuerySemiringSupport {
    if query.satisfiability.is_statically_empty() {
        return QuerySemiringSupport {
            lineage_width_bound: Some(0),
            topk_proofs_needed: 0,
        };
    }
    QuerySemiringSupport {
        lineage_width_bound: worlds.map(|w| w.num_relevant),
        topk_proofs_needed: 1,
    }
}

/// Script-side semiring facts: whether certainty pruning does anything.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScriptSemiringSupport {
    /// Number of π = 1 events the census found, or `None` when no tree
    /// was supplied.
    pub certain_events: Option<usize>,
}

impl ScriptSemiringSupport {
    /// The semirings with certain literals on this tree — the ones under
    /// which certainty pruning is not the identity:
    /// `probability,possibility` when certain events exist, `none` when
    /// provably none do, `unknown` without a tree. Counting and lineage
    /// never have certain literals. The update simplifier prunes under
    /// `probability`, whose certain literals are exactly possibility's.
    pub fn prune_semirings(&self) -> &'static str {
        match self.certain_events {
            Some(0) => "none",
            Some(_) => "probability,possibility",
            None => "unknown",
        }
    }
}

/// Computes the script-side semiring facts from the census.
pub fn script_semiring_support(worlds: Option<&WorldsAnalysis>) -> ScriptSemiringSupport {
    ScriptSemiringSupport {
        certain_events: worlds.map(|w| {
            w.lints
                .iter()
                .filter(|l| matches!(l, WorldsLint::PinnableEvent { .. }))
                .count()
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::census::analyze_worlds;
    use crate::StaticAnalyzer;
    use pxml_core::query::pattern::PatternQuery;
    use pxml_core::ProbTree;
    use pxml_events::{Condition, Literal};
    use pxml_workloads::paper::figure1;
    use pxml_workloads::warehouse::{services_with_endpoint_and_contact, warehouse_dtd};

    #[test]
    fn satisfiable_query_gets_census_lineage_bound_and_one_proof() {
        let tree = figure1();
        let query = services_with_endpoint_and_contact();
        let analyzer = StaticAnalyzer::new();
        let analysis = analyzer.analyze_pattern(&query);
        let worlds = analyzer.analyze_worlds(&tree);
        let support = query_semiring_support(&analysis, Some(&worlds));
        assert_eq!(support.lineage_width_bound, Some(worlds.num_relevant));
        assert_eq!(support.topk_proofs_needed, 1);
        assert!(support.topk_exact());
    }

    #[test]
    fn statically_empty_query_needs_no_proofs_and_no_lineage() {
        let analyzer = StaticAnalyzer::new().with_dtd(warehouse_dtd());
        let mut query = PatternQuery::new(Some("service"));
        query.add_child(query.root(), "service");
        let analysis = analyzer.analyze_pattern(&query);
        let support = query_semiring_support(&analysis, None);
        assert_eq!(support.lineage_width_bound, Some(0));
        assert_eq!(support.topk_proofs_needed, 0);
        assert!(support.topk_exact());
    }

    #[test]
    fn prune_semirings_track_certain_events() {
        let mut tree = ProbTree::new("A");
        let maybe = tree.events_mut().insert("maybe", 0.5);
        let root = tree.tree().root();
        tree.add_child(root, "B", Condition::of(Literal::pos(maybe)));
        let worlds = analyze_worlds(&tree, 16);
        assert_eq!(
            script_semiring_support(Some(&worlds)).prune_semirings(),
            "none"
        );

        tree.events_mut().insert("sure", 1.0);
        let worlds = analyze_worlds(&tree, 16);
        assert_eq!(
            script_semiring_support(Some(&worlds)).prune_semirings(),
            "probability,possibility"
        );
        assert_eq!(script_semiring_support(None).prune_semirings(), "unknown");
    }
}
