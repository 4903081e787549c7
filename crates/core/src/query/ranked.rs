//! Tests of ranked (top-k) query answers.
//!
//! The paper's conclusion lists "algorithms obtaining the most probable
//! results first" as a natural follow-up to the prob-tree model: since
//! every answer of a locally monotone query carries a probability
//! (Definition 8), answers can be ranked by that probability. The ranking
//! itself lives on [`PreparedQuery`]: `top_k` (bounded heap, canonical
//! tie-break), `above` (threshold slice) and `expected_matches` (the sum
//! of answer probabilities, by linearity of expectation under the
//! multiset semantics). This module checks those selections against the
//! possible-world semantics and against each other.

mod tests {
    use crate::probtree::{figure1_example, ProbTree};
    use crate::query::engine::{PreparedQuery, QueryEngine};
    use crate::query::pattern::PatternQuery;
    use crate::query::prob::ProbAnswer;
    use crate::semantics::possible_worlds;
    use pxml_events::{prob_eq, Condition, Literal};
    use pxml_tree::canon::{canonical_string, Semantics};

    /// Prepares `query` on `tree` with a default engine.
    fn prepare<'a>(tree: &'a ProbTree, query: &'a PatternQuery) -> PreparedQuery<'a> {
        QueryEngine::new().prepare(tree, query)
    }

    /// A root with three children of the same label but different
    /// probabilities, so ranking is non-trivial.
    fn catalog() -> ProbTree {
        let mut t = ProbTree::new("catalog");
        let high = t.events_mut().insert("high", 0.9);
        let mid = t.events_mut().insert("mid", 0.5);
        let low = t.events_mut().insert("low", 0.2);
        let root = t.tree().root();
        let a = t.add_child(root, "item", Condition::of(Literal::pos(high)));
        t.add_child(a, "sku_a", Condition::always());
        let b = t.add_child(root, "item", Condition::of(Literal::pos(mid)));
        t.add_child(b, "sku_b", Condition::always());
        let c = t.add_child(root, "item", Condition::of(Literal::pos(low)));
        t.add_child(c, "sku_c", Condition::always());
        t
    }

    #[test]
    fn top_k_orders_by_probability() {
        let t = catalog();
        let q = PatternQuery::new(Some("item"));
        let top = prepare(&t, &q).top_k(2);
        assert_eq!(top.len(), 2);
        assert!(prob_eq(top[0].probability, 0.9));
        assert!(prob_eq(top[1].probability, 0.5));
        let all = prepare(&t, &q).top_k(10);
        assert_eq!(all.len(), 3);
        assert!(prob_eq(all[2].probability, 0.2));
    }

    /// Regression test for deterministic tie handling: many
    /// equal-probability answers must come back in canonical-key order,
    /// identically across repeated calls, across `k` values at the tie
    /// boundary, and between the bounded-heap and full-sort paths.
    #[test]
    fn top_k_is_deterministic_under_ties() {
        let mut tie_tree = ProbTree::new("r");
        let root = tie_tree.tree().root();
        // Eight x-items, all with probability 0.5, pairwise distinct
        // shapes (leaf labels) so the canonical tie-break is total.
        for i in 0..8 {
            let w = tie_tree.events_mut().insert(format!("w{i}"), 0.5);
            let x = tie_tree.add_child(root, "x", Condition::of(Literal::pos(w)));
            tie_tree.add_child(x, format!("leaf{i}"), Condition::always());
        }
        let q = PatternQuery::new(Some("x"));
        let keys_of = |answers: &[ProbAnswer]| -> Vec<String> {
            answers
                .iter()
                .map(|a| canonical_string(&a.tree, Semantics::MultiSet))
                .collect()
        };
        let full = prepare(&tie_tree, &q).top_k(8);
        let keys = keys_of(&full);
        // Equal probabilities everywhere, so the order IS the sorted
        // canonical-key order.
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted, "ties must follow the canonical order");
        // Repeated calls (fresh engines) agree byte for byte.
        assert_eq!(keys_of(&prepare(&tie_tree, &q).top_k(8)), keys);
        // Every k slices the same ranking, even through the tie block.
        for k in 1..8 {
            assert_eq!(
                keys_of(&prepare(&tie_tree, &q).top_k(k)),
                keys[..k].to_vec()
            );
        }
        // The heap path agrees with the full-sort reference.
        let prepared = prepare(&tie_tree, &q);
        assert_eq!(keys_of(&prepared.ranked()), keys);
        assert_eq!(keys_of(&prepared.top_k(3)), keys[..3].to_vec());
    }

    #[test]
    fn zero_probability_answers_are_dropped() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(root, "C", Condition::of(Literal::neg(w)));
        // A query needing both B and C has an answer whose condition set is
        // inconsistent.
        let mut q = PatternQuery::anchored(Some("A"));
        q.add_child(q.root(), "B");
        q.add_child(q.root(), "C");
        assert!(prepare(&t, &q).top_k(10).is_empty());
        assert!(prepare(&t, &q).above(0.0).is_empty());
    }

    #[test]
    fn above_threshold_filters() {
        let t = catalog();
        let q = PatternQuery::new(Some("item"));
        assert_eq!(prepare(&t, &q).above(0.4).len(), 2);
        assert_eq!(prepare(&t, &q).above(0.95).len(), 0);
        assert_eq!(prepare(&t, &q).above(0.0).len(), 3);
    }

    #[test]
    fn expected_matches_agrees_with_world_expansion() {
        // Expected number of //C/D matches on Figure 1: only the 0.70 world
        // has one, so the expectation is 0.70.
        let t = figure1_example();
        let mut q = PatternQuery::new(Some("C"));
        q.add_child(q.root(), "D");
        let direct = prepare(&t, &q).expected_matches();
        // World-by-world expectation.
        use crate::query::Query as _;
        let mut via_worlds = 0.0;
        for (world, p) in possible_worlds(&t, 20).unwrap().normalized().iter() {
            via_worlds += p * q.evaluate(world).len() as f64;
        }
        assert!(prob_eq(direct, via_worlds));
        assert!(prob_eq(direct, 0.70));
    }

    #[test]
    fn expected_matches_counts_multiplicities() {
        let t = catalog();
        let q = PatternQuery::new(Some("item"));
        assert!(prob_eq(prepare(&t, &q).expected_matches(), 0.9 + 0.5 + 0.2));
    }
}
