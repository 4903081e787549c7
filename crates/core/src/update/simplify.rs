//! Post-update simplification of prob-trees.
//!
//! Deletions blow prob-trees up (Theorem 3); this pass claws back what is
//! recoverable without changing the (normalized) possible-world semantics,
//! by chaining three reductions until a fixpoint (or `MAX_PASSES`):
//!
//! 1. [`clean`](crate::clean::clean) — drop literals implied by ancestors, prune inconsistent
//!    branches (Section 3; preserves structural equivalence);
//! 2. **prune-certain** — drop literals on `π(w) = 1` events and prune the
//!    zero-probability branches they contradict (preserves the normalized
//!    semantics only);
//! 3. **sibling cover merging** — for each group of sibling copies whose
//!    subtrees are structurally identical (labels *and* conditions below
//!    the copy root) and whose root conditions are pairwise mutually
//!    exclusive, re-cover the disjunction of root conditions by a strictly
//!    smaller pairwise-disjoint DNF ([`Dnf::minimized_disjoint_cover`])
//!    and replace the copies. Because the old and new covers are
//!    count-equivalent (Definition 10) and the subtrees identical, every
//!    valuation produces the same multiset of child instances — this step
//!    preserves structural equivalence, which is exactly why the survivor
//!    copies a deletion scatters under one parent are its natural prey.
//!
//! Every pass rewrites the staged tree **in place**: conditions are
//! replaced, pruned branches and merged copies are detached, and merge
//! covers are appended as new copies. Nothing is compacted between
//! passes — iteration and the size measures skip detached nodes — so the
//! update engine compacts once per step, and that compaction's old → new
//! map is the step's node map.

use std::collections::{BTreeMap, HashMap};

use pxml_events::{Condition, Dnf};
use pxml_tree::{AnnotatedCanonInterner, NodeId};

use crate::clean::{clean_in_place, is_impossible, prune_certain};
use crate::probtree::ProbTree;

/// Upper bound on chained passes: merging children can make their
/// parents mergeable in turn.
const MAX_PASSES: usize = 4;

/// Cover merging is skipped for condition supports larger than this: the
/// Shannon expansion is exponential in the support in the worst case.
const MAX_MERGE_SUPPORT: usize = 20;

/// Cover merging is skipped for sibling groups larger than this: the
/// pairwise disjointness test is quadratic in the group.
const MAX_MERGE_GROUP: usize = 1024;

/// Runs the simplification chain on `tree` in place and returns the
/// number of sibling groups merged. The result has the same normalized
/// possible-world semantics as the input (and is structurally equivalent
/// to it whenever no `π(w) = 1` event exists). Removed nodes are detached,
/// not dropped: the caller compacts.
pub(crate) fn simplify(tree: &mut ProbTree) -> usize {
    let mut merged_groups = 0;
    for _ in 0..MAX_PASSES {
        let fingerprint = (tree.num_nodes(), tree.num_literals());
        clean_in_place(tree);
        prune_certain(tree);
        let merged = merge_sibling_covers(tree);
        merged_groups += merged;
        if merged == 0 && (tree.num_nodes(), tree.num_literals()) == fingerprint {
            break;
        }
    }
    merged_groups
}

/// One merging sweep over every parent node, in place; returns the number
/// of sibling groups replaced. Shared children are materialized first:
/// grouping and replacement address arena nodes.
///
/// Synthesized cover disjuncts get the prune-certain rewrite up front —
/// exactly what the next pass's prune-certain would do to them. After a
/// prune pass this is a no-op (no certain-event literal survives pruning,
/// and the Shannon expansion only branches on mentioned events).
fn merge_sibling_covers(tree: &mut ProbTree) -> usize {
    tree.expand_all();
    let mut merged_groups = 0usize;
    // Bare shape codes for every node of the pre-sweep tree, computed once
    // bottom-up; only pre-sweep nodes are ever grouped (copies introduced
    // by a merge are revisited by the next pass).
    let shapes = bare_shape_codes(tree);
    let parents: Vec<NodeId> = tree.tree().iter().collect();
    for parent in parents {
        // A parent may itself have been detached by a merge higher up the
        // list (its whole group was replaced by fresh copies).
        if !tree.tree().is_attached(parent) {
            continue;
        }
        // Group the children by the shape of everything *except* their own
        // root condition — label, structure and the conditions below.
        let children: Vec<NodeId> = tree.tree().children(parent).to_vec();
        if children.len() < 2 {
            continue;
        }
        let mut groups: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for &child in &children {
            groups.entry(shapes[&child]).or_default().push(child);
        }
        for group in groups.values() {
            if group.len() < 2 || group.len() > MAX_MERGE_GROUP {
                continue;
            }
            // Split the group into greedy cliques of pairwise mutually
            // exclusive root conditions (identical copies — e.g. two
            // equal-condition duplicates — are *not* disjoint and stay
            // untouched, as the multiset semantics requires).
            let conditions: Vec<Condition> = group.iter().map(|&c| tree.condition(c)).collect();
            let mut cliques: Vec<Vec<usize>> = Vec::new();
            for (i, cond) in conditions.iter().enumerate() {
                let home = cliques.iter_mut().find(|clique| {
                    clique
                        .iter()
                        .all(|&j| cond.is_disjoint_with(&conditions[j]))
                });
                match home {
                    Some(clique) => clique.push(i),
                    None => cliques.push(vec![i]),
                }
            }
            for clique in cliques {
                if clique.len() < 2 {
                    continue;
                }
                let dnf = Dnf::from_disjuncts(clique.iter().map(|&i| conditions[i].clone()));
                let Some(cover) = dnf.minimized_disjoint_cover(MAX_MERGE_SUPPORT) else {
                    continue;
                };
                // Replace the clique: fresh copies of the (identical)
                // subtree, one per cover disjunct, then drop the originals.
                // Disjuncts with an impossible literal are dropped and
                // certain literals stripped from the rest.
                let template = group[clique[0]];
                let events = tree.events();
                let disjuncts: Vec<Condition> = cover
                    .disjuncts()
                    .iter()
                    .filter(|d| !d.literals().iter().any(|&l| is_impossible(l, events)))
                    .map(|d| {
                        Condition::from_literals(
                            d.literals()
                                .iter()
                                .copied()
                                .filter(|&l| !is_impossible(l.negated(), events)),
                        )
                    })
                    .collect();
                for disjunct in disjuncts {
                    tree.duplicate_subtree(parent, template, disjunct);
                }
                for &i in &clique {
                    tree.detach(group[i]);
                }
                merged_groups += 1;
            }
        }
    }
    merged_groups
}

/// Bare shape codes for every reachable node, computed in one bottom-up
/// sweep over the shared [`AnnotatedCanonInterner`] of `pxml_tree` — the
/// same interner the hash-consed [`pxml_tree::NodeStore`] uses for its
/// canonical codes, so one annotation convention serves both: inner
/// nodes intern under `Some(γ)`, the node itself under `None` (the *bare*
/// variant). Two nodes share a full code iff their subtrees are identical
/// including every condition, and share a bare code iff they are
/// identical except for their own root condition — which is what the
/// merge rewrites, so children are grouped by bare code. Two children
/// with equal bare codes produce identical world contents whenever their
/// root conditions hold.
fn bare_shape_codes(tree: &ProbTree) -> HashMap<NodeId, u32> {
    let mut interner: AnnotatedCanonInterner<Condition> = AnnotatedCanonInterner::new();
    let mut full: HashMap<NodeId, u32> = HashMap::new();
    let mut bare: HashMap<NodeId, u32> = HashMap::new();
    // Reverse pre-order visits children before their parents.
    let order: Vec<NodeId> = tree.tree().iter().collect();
    for &node in order.iter().rev() {
        let child_codes: Vec<u32> = tree.tree().children(node).iter().map(|c| full[c]).collect();
        let label = tree.tree().label(node);
        let condition = tree.condition(node);
        full.insert(
            node,
            interner.intern(label, Some(&condition), child_codes.clone()),
        );
        bare.insert(node, interner.intern(label, None, child_codes));
    }
    bare
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::structural_equivalent_exhaustive;
    use crate::semantics::possible_worlds;
    use pxml_events::Literal;

    /// Simplifies a copy of `t` in place; returns it with the number of
    /// merged sibling groups.
    fn simplify_copy(t: &ProbTree) -> (ProbTree, usize) {
        let mut work = t.clone();
        let merged = simplify(&mut work);
        (work, merged)
    }

    /// A complementary sibling pair `X∧w` / `X∧¬w` merges into a single
    /// `X` copy.
    #[test]
    fn complementary_sibling_pair_merges() {
        let mut t = ProbTree::new("A");
        let x = t.events_mut().insert("x", 0.6);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b1 = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(x), Literal::pos(w)]),
        );
        t.add_child(b1, "D", Condition::of(Literal::pos(x)));
        let b2 = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(x), Literal::neg(w)]),
        );
        t.add_child(b2, "D", Condition::of(Literal::pos(x)));
        let (simplified, merged) = simplify_copy(&t);
        assert_eq!(merged, 1);
        assert!(simplified.size() < t.size());
        // One B copy left... whose D child then loses the x literal to
        // cleaning on the next pass (x is implied by the merged root).
        let b_count = simplified
            .tree()
            .iter()
            .filter(|&n| simplified.tree().label(n) == "B")
            .count();
        assert_eq!(b_count, 1);
        assert!(structural_equivalent_exhaustive(&t, &simplified, 20).unwrap());
    }

    /// Identical duplicates are a multiset feature, not a redundancy.
    #[test]
    fn equal_condition_duplicates_are_not_merged() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(root, "B", Condition::of(Literal::pos(w)));
        let (simplified, merged) = simplify_copy(&t);
        assert_eq!(merged, 0);
        assert_eq!(simplified.num_nodes(), 3);
    }

    /// Children with different subtrees never merge, even when their root
    /// conditions are complementary.
    #[test]
    fn different_subtrees_are_not_merged() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b1 = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(b1, "D", Condition::always());
        t.add_child(root, "B", Condition::of(Literal::neg(w)));
        let (simplified, merged) = simplify_copy(&t);
        assert_eq!(merged, 0);
        assert_eq!(simplified.num_nodes(), t.num_nodes());
    }

    /// Merging children can unlock a parent-level merge on the next pass.
    #[test]
    fn merging_cascades_to_parents_across_passes() {
        let mut t = ProbTree::new("A");
        let u = t.events_mut().insert("u", 0.5);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        // Two S siblings with complementary conditions; their subtrees
        // differ only by a child-level complementary pair that the first
        // pass collapses.
        for s_literal in [Literal::pos(u), Literal::neg(u)] {
            let s = t.add_child(root, "S", Condition::of(s_literal));
            t.add_child(s, "B", Condition::of(Literal::pos(w)));
            t.add_child(s, "B", Condition::of(Literal::neg(w)));
        }
        let (simplified, merged) = simplify_copy(&t);
        // The S subtrees are already identical, so the pre-order sweep
        // merges the S pair first (into one unconditioned S); pass 2 then
        // merges the B pair inside the surviving copy.
        assert_eq!(merged, 2);
        assert_eq!(simplified.num_nodes(), 3, "A → S → B");
        assert_eq!(simplified.num_literals(), 0);
        assert!(structural_equivalent_exhaustive(&t, &simplified, 20).unwrap());
    }

    /// The full chain preserves the normalized semantics in the presence
    /// of certain events (where structural equivalence is allowed to
    /// change).
    #[test]
    fn chain_preserves_normalized_semantics_with_certain_events() {
        let mut t = ProbTree::new("A");
        let sure = t.events_mut().insert("sure", 1.0);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(sure), Literal::pos(w)]),
        );
        t.add_child(root, "B", Condition::of(Literal::neg(w)));
        t.add_child(root, "C", Condition::of(Literal::neg(sure)));
        let before = possible_worlds(&t, 20).unwrap().normalized();
        let (simplified, _) = simplify_copy(&t);
        let after = possible_worlds(&simplified, 20).unwrap().normalized();
        assert!(before.isomorphic(&after));
        // `sure` dropped from B's condition, then the B pair merges; the
        // ¬sure branch is pruned.
        assert_eq!(simplified.num_nodes(), 2);
        assert_eq!(simplified.num_literals(), 0);
    }
}
