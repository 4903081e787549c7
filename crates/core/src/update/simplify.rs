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
//!
//! The chain pays only for rewrites that can fire:
//!
//! * a merge needs two children with disjoint root conditions, hence a
//!   literal on one whose negation another carries. The sweep gates each
//!   parent on that (one sort of its children's root literals) and skips
//!   the rest;
//! * shape codes are computed lazily, for the children of gated parents
//!   only, and full subtree codes are memoized for the sweep;
//! * the chain stops on change flags: cleaning and prune-certain report
//!   whether they dropped a literal or a node, and since both only
//!   remove, a pass with no change and no merge is a fixpoint — no
//!   whole-tree size walk is needed to notice it.

use std::collections::{BTreeMap, HashMap};

use pxml_events::{Condition, Dnf, Literal};
use pxml_tree::{CanonInterner, NodeId, Semantics};

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
        let cleaned = clean_in_place(tree);
        let pruned = prune_certain(tree);
        let merged = merge_sibling_covers(tree);
        merged_groups += merged;
        // Clean and prune only remove literals or nodes, so a pass that
        // reports no change left the tree exactly as it found it.
        if merged == 0 && !cleaned && !pruned {
            break;
        }
    }
    merged_groups
}

/// One merging sweep over every parent node, in place; returns the number
/// of sibling groups replaced. Grouping and replacement address arena
/// nodes: the sweep runs right after cleaning, which materialized every
/// shared child (prune-certain adds none).
///
/// Only parents passing [`has_complementary_literals`] are grouped, and
/// shape codes are computed for their children alone. Only pre-sweep
/// nodes are ever grouped (copies introduced by a merge are revisited by
/// the next pass), and a merge only rewrites the child list of a parent
/// the pre-order sweep has already left behind, so a code memoized early
/// in the sweep stays valid to its end.
fn merge_sibling_covers(tree: &mut ProbTree) -> usize {
    debug_assert!(!tree.has_shared(), "cleaning expands the tree");
    let mut merged_groups = 0usize;
    let mut codes = ShapeCodes::default();
    let parents: Vec<NodeId> = tree.tree().iter().collect();
    for parent in parents {
        let children = tree.tree().children(parent);
        if children.len() < 2 || !has_complementary_literals(tree, children) {
            continue;
        }
        // A parent may itself have been detached by a merge higher up the
        // list (its whole group was replaced by fresh copies).
        if !tree.tree().is_attached(parent) {
            continue;
        }
        // Group the children by the shape of everything *except* their own
        // root condition — label, structure and the conditions below.
        let children = children.to_vec();
        let mut groups: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
        for child in children {
            groups
                .entry(codes.bare(tree, child))
                .or_default()
                .push(child);
        }
        for group in groups.values() {
            merged_groups += merge_group(tree, parent, group);
        }
    }
    merged_groups
}

/// The merge gate: `true` when one child of the group carries a root
/// literal whose negation another one carries (or carries both itself).
/// Two root conditions are disjoint only through such a pair, so a parent
/// without one has no clique to merge. The sorted, deduplicated literals
/// put `w` right next to `¬w`.
fn has_complementary_literals(tree: &ProbTree, children: &[NodeId]) -> bool {
    let mut literals: Vec<Literal> = children
        .iter()
        .filter_map(|&c| tree.condition_ref(c))
        .flat_map(|c| c.literals().iter().copied())
        .collect();
    literals.sort_unstable();
    literals.dedup();
    literals.windows(2).any(|w| w[0].event == w[1].event)
}

/// Merges the cliques of one group of same-shape siblings under `parent`;
/// returns the number of cliques replaced.
///
/// Synthesized cover disjuncts get the prune-certain rewrite up front —
/// exactly what the next pass's prune-certain would do to them. After a
/// prune pass this is a no-op (no certain-event literal survives pruning,
/// and the Shannon expansion only branches on mentioned events).
fn merge_group(tree: &mut ProbTree, parent: NodeId, group: &[NodeId]) -> usize {
    if group.len() < 2 || group.len() > MAX_MERGE_GROUP {
        return 0;
    }
    // Split the group into greedy cliques of pairwise mutually exclusive
    // root conditions (identical copies — e.g. two equal-condition
    // duplicates — are *not* disjoint and stay untouched, as the multiset
    // semantics requires).
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
    let mut merged = 0;
    for clique in cliques {
        if clique.len() < 2 {
            continue;
        }
        let dnf = Dnf::from_disjuncts(clique.iter().map(|&i| conditions[i].clone()));
        let Some(cover) = dnf.minimized_disjoint_cover(MAX_MERGE_SUPPORT) else {
            continue;
        };
        // Replace the clique: fresh copies of the (identical) subtree, one
        // per cover disjunct, then drop the originals. Disjuncts with an
        // impossible literal are dropped and certain literals stripped
        // from the rest.
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
        merged += 1;
    }
    merged
}

/// Shape codes of one merge sweep, over the [`CanonInterner`] of
/// `pxml_tree` (the one [`pxml_tree::isomorphic`] uses) with conditions as
/// annotations, under the convention of the hash-consed
/// [`pxml_tree::NodeStore`]: inner nodes intern under `Some(γ)`, the node
/// itself under `None` (the *bare* variant). Two nodes
/// share a full code iff their subtrees are identical including every
/// condition, and share a bare code iff they are identical except for
/// their own root condition — which is what the merge rewrites, so
/// children are grouped by bare code. Two children with equal bare codes
/// produce identical world contents whenever their root conditions hold.
///
/// Codes are computed on demand: full codes are memoized per node, bare
/// codes are asked for once per child of a gated parent.
#[derive(Default)]
struct ShapeCodes {
    interner: CanonInterner<Condition>,
    full: HashMap<NodeId, u32>,
}

impl ShapeCodes {
    /// The bare code of `node`.
    fn bare(&mut self, tree: &ProbTree, node: NodeId) -> u32 {
        let child_codes: Vec<u32> = tree
            .tree()
            .children(node)
            .iter()
            .map(|&c| self.full(tree, c))
            .collect();
        self.interner.intern(
            tree.tree().label(node),
            None,
            child_codes,
            Semantics::MultiSet,
        )
    }

    /// The full code of `node`, interning its subtree bottom-up as far as
    /// no code is memoized yet.
    fn full(&mut self, tree: &ProbTree, node: NodeId) -> u32 {
        let mut stack = vec![(node, false)];
        while let Some((n, ready)) = stack.pop() {
            let children = tree.tree().children(n);
            if ready {
                let child_codes: Vec<u32> = children.iter().map(|c| self.full[c]).collect();
                let code = self.interner.intern(
                    tree.tree().label(n),
                    Some(&tree.condition(n)),
                    child_codes,
                    Semantics::MultiSet,
                );
                self.full.insert(n, code);
            } else if !self.full.contains_key(&n) {
                stack.push((n, true));
                stack.extend(children.iter().map(|&c| (c, false)));
            }
        }
        self.full[&node]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equivalence::structural_equivalent_exhaustive;
    use crate::semantics::possible_worlds;
    use pxml_events::{EventId, Literal};
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Simplifies a copy of `t` in place; returns it with the number of
    /// merged sibling groups.
    fn simplify_copy(t: &ProbTree) -> (ProbTree, usize) {
        let mut work = t.clone();
        let merged = simplify(&mut work);
        (work, merged)
    }

    /// Bare shape codes for every reachable node, computed in one
    /// bottom-up sweep: the whole-tree oracle of [`ShapeCodes`].
    fn bare_shape_codes(tree: &ProbTree) -> HashMap<NodeId, u32> {
        let mut interner: CanonInterner<Condition> = CanonInterner::new();
        let mut full: HashMap<NodeId, u32> = HashMap::new();
        let mut bare: HashMap<NodeId, u32> = HashMap::new();
        // Reverse pre-order visits children before their parents.
        let order: Vec<NodeId> = tree.tree().iter().collect();
        for &node in order.iter().rev() {
            let child_codes: Vec<u32> =
                tree.tree().children(node).iter().map(|c| full[c]).collect();
            let label = tree.tree().label(node);
            let condition = tree.condition(node);
            full.insert(
                node,
                interner.intern(
                    label,
                    Some(&condition),
                    child_codes.clone(),
                    Semantics::MultiSet,
                ),
            );
            bare.insert(
                node,
                interner.intern(label, None, child_codes, Semantics::MultiSet),
            );
        }
        bare
    }

    /// The ungated reference sweep: every parent's children are grouped
    /// by the whole-tree bare codes.
    fn merge_sibling_covers_ungated(tree: &mut ProbTree) -> usize {
        tree.expand_all();
        let shapes = bare_shape_codes(tree);
        let mut merged_groups = 0;
        let parents: Vec<NodeId> = tree.tree().iter().collect();
        for parent in parents {
            if !tree.tree().is_attached(parent) {
                continue;
            }
            let mut groups: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
            for &child in tree.tree().children(parent) {
                groups.entry(shapes[&child]).or_default().push(child);
            }
            for group in groups.values() {
                merged_groups += merge_group(tree, parent, group);
            }
        }
        merged_groups
    }

    /// The reference chain: the ungated sweep, stopped when a pass leaves
    /// the tree's node and literal counts unchanged.
    fn simplify_reference(tree: &mut ProbTree) -> usize {
        let mut merged_groups = 0;
        for _ in 0..MAX_PASSES {
            let fingerprint = (tree.num_nodes(), tree.num_literals());
            clean_in_place(tree);
            prune_certain(tree);
            let merged = merge_sibling_covers_ungated(tree);
            merged_groups += merged;
            if merged == 0 && (tree.num_nodes(), tree.num_literals()) == fingerprint {
                break;
            }
        }
        merged_groups
    }

    /// A random subtree shape: label, root literals and child shapes.
    struct Shape {
        label: &'static str,
        literals: Vec<Literal>,
        children: Vec<Shape>,
    }

    fn random_literal(rng: &mut StdRng, events: &[EventId]) -> Literal {
        let event = events[rng.gen_range(0..events.len())];
        if rng.gen_bool(0.5) {
            Literal::pos(event)
        } else {
            Literal::neg(event)
        }
    }

    /// Random child shapes: families of identical copies whose root
    /// conditions split on one or two events (so merges can fire, also
    /// nested), mixed with single children under random conditions.
    fn random_children(rng: &mut StdRng, events: &[EventId], depth: usize) -> Vec<Shape> {
        let mut out = Vec::new();
        if depth == 0 {
            return out;
        }
        for _ in 0..rng.gen_range(1..4usize) {
            let label = ["B", "C", "D"][rng.gen_range(0..3usize)];
            if rng.gen_bool(0.6) {
                let split: Vec<EventId> = (0..rng.gen_range(1..3usize))
                    .map(|_| events[rng.gen_range(0..events.len())])
                    .collect();
                let shared: Vec<Literal> = (0..rng.gen_range(0..2usize))
                    .map(|_| random_literal(rng, events))
                    .collect();
                let inner = rng.gen_range(0..depth);
                let seed = rng.next_u64();
                for assignment in 0..1usize << split.len() {
                    // Some cells of the split are left out.
                    if assignment > 0 && rng.gen_bool(0.2) {
                        continue;
                    }
                    let mut literals = shared.clone();
                    for (bit, &event) in split.iter().enumerate() {
                        literals.push(if assignment >> bit & 1 == 1 {
                            Literal::pos(event)
                        } else {
                            Literal::neg(event)
                        });
                    }
                    // The same seed regrows the same subtree for every copy.
                    let mut copy_rng = StdRng::seed_from_u64(seed);
                    let children = random_children(&mut copy_rng, events, inner);
                    out.push(Shape {
                        label,
                        literals,
                        children,
                    });
                }
            } else {
                let literals = (0..rng.gen_range(0..3usize))
                    .map(|_| random_literal(rng, events))
                    .collect();
                let children = random_children(rng, events, depth - 1);
                out.push(Shape {
                    label,
                    literals,
                    children,
                });
            }
        }
        out
    }

    fn grow(t: &mut ProbTree, parent: NodeId, shapes: &[Shape]) {
        for shape in shapes {
            let node = t.add_child(
                parent,
                shape.label,
                Condition::from_literals(shape.literals.iter().copied()),
            );
            grow(t, node, &shape.children);
        }
    }

    fn random_probtree(seed: u64) -> ProbTree {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = ProbTree::new("A");
        let mut events: Vec<EventId> = (0..4)
            .map(|i| t.events_mut().insert(format!("w{i}"), 0.3 + 0.1 * i as f64))
            .collect();
        // Now and then a certain event, for prune-certain to act on.
        if rng.gen_bool(0.3) {
            events.push(t.events_mut().insert("sure", 1.0));
        }
        let shapes = random_children(&mut rng, &events, 3);
        let root = t.tree().root();
        grow(&mut t, root, &shapes);
        t
    }

    /// The gated, lazily coded sweep with change-flag stops never loses
    /// a merge: on random trees where merges fire it merges as many
    /// groups as the ungated whole-tree reference, reaches the same size
    /// and keeps the normalized possible worlds; its lazy codes partition
    /// every gated parent's children exactly like the oracle codes.
    #[test]
    fn gated_sweep_matches_the_ungated_reference() {
        let mut total_merged = 0;
        for seed in 0..64 {
            let t = random_probtree(seed);
            let mut expanded = t.clone();
            expanded.expand_all();
            let oracle = bare_shape_codes(&expanded);
            let mut codes = ShapeCodes::default();
            for parent in expanded.tree().iter() {
                let children = expanded.tree().children(parent);
                if !has_complementary_literals(&expanded, children) {
                    continue;
                }
                let lazy: Vec<u32> = children.iter().map(|&c| codes.bare(&expanded, c)).collect();
                for (i, a) in children.iter().enumerate() {
                    for (j, b) in children.iter().enumerate() {
                        assert_eq!(lazy[i] == lazy[j], oracle[a] == oracle[b], "seed {seed}");
                    }
                }
            }

            let (gated, merged) = simplify_copy(&t);
            let mut reference = t.clone();
            let reference_merged = simplify_reference(&mut reference);
            assert_eq!(merged, reference_merged, "seed {seed}");
            assert_eq!(gated.num_nodes(), reference.num_nodes(), "seed {seed}");
            assert_eq!(
                gated.num_literals(),
                reference.num_literals(),
                "seed {seed}"
            );
            let worlds = |t: &ProbTree| possible_worlds(t, 20).unwrap().normalized();
            assert!(
                worlds(&gated).isomorphic(&worlds(&reference)),
                "seed {seed}"
            );
            assert!(worlds(&gated).isomorphic(&worlds(&t)), "seed {seed}");
            total_merged += merged;
        }
        assert!(total_merged >= 64, "merges fire: {total_merged}");
    }

    /// The gate is per parent: a root whose children carry no literal is
    /// skipped, while the complementary pairs below it still merge.
    #[test]
    fn gated_out_parent_still_merges_inner_pairs() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        for _ in 0..2 {
            let s = t.add_child(root, "S", Condition::always());
            t.add_child(s, "B", Condition::of(Literal::pos(w)));
            t.add_child(s, "B", Condition::of(Literal::neg(w)));
        }
        assert!(!has_complementary_literals(&t, t.tree().children(root)));
        let (simplified, merged) = simplify_copy(&t);
        assert_eq!(merged, 2);
        assert_eq!(simplified.num_nodes(), 5, "A → 2 × (S → B)");
        assert_eq!(simplified.num_literals(), 0);
        assert!(structural_equivalent_exhaustive(&t, &simplified, 20).unwrap());
    }

    /// Complementary literals open the gate, but siblings of different
    /// labels are never grouped together, so nothing merges.
    #[test]
    fn complementary_literals_on_different_labels_do_not_merge() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(root, "C", Condition::of(Literal::neg(w)));
        assert!(has_complementary_literals(&t, t.tree().children(root)));
        let (simplified, merged) = simplify_copy(&t);
        assert_eq!(merged, 0);
        assert_eq!(simplified.num_nodes(), 3);
        assert_eq!(simplified.num_literals(), 2);
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
