//! Cleaning of prob-trees (Section 3 of the paper).
//!
//! A prob-tree can be *cleaned* in linear time by
//!
//! 1. removing **superfluous** atomic conditions — literals already implied
//!    by a condition on an ancestor (a node is only present when all its
//!    ancestors are, so repeating an ancestor's literal is redundant); and
//! 2. pruning nodes with **inconsistent** conditions — conditions that are
//!    intrinsically contradictory (`w ∧ ¬w`) or that contradict a literal
//!    imposed by an ancestor.
//!
//! Cleaning preserves structural equivalence and is the first step of the
//! Figure 3 randomized equivalence algorithm. The update engine's
//! simplifier runs the same pass in place, next to an in-place pruning of
//! the branches that `π(w) = 1` events make impossible.
//!
//! The time is linear in the size of the tree (plus one table entry per
//! event): one top-down walk keeps the literals of the current root path
//! in a polarity table indexed by event. Each literal of a node is
//! checked against the table in O(1); the ones the node keeps (none of
//! which the path has yet) are added on the way down and removed on the
//! way back up, and a pruned branch is never entered.

use pxml_events::{Condition, EventTable, Literal};
use pxml_tree::NodeId;

use crate::probtree::ProbTree;

/// Returns a cleaned, compacted copy of `tree`.
pub fn clean(tree: &ProbTree) -> ProbTree {
    let mut work = tree.clone();
    clean_in_place(&mut work);
    work.compact().0
}

/// Cleans `tree` in place, in the one top-down walk of the module docs,
/// and returns whether anything changed (a literal dropped or a branch
/// pruned). Shared children are materialized first: cleaning rewrites
/// conditions, which the immutable stored shapes do not support. Pruned
/// nodes are detached, not dropped — they stay in the arena until the
/// caller's next [`ProbTree::compact`].
pub(crate) fn clean_in_place(tree: &mut ProbTree) -> bool {
    tree.expand_all();
    // `on_path[w]` is the polarity of the path literal on event `w`.
    let mut on_path: Vec<Option<bool>> = vec![None; tree.events().len()];
    let mut to_detach: Vec<NodeId> = Vec::new();
    let mut changed = false;
    // `(node, leaving)` frames: a node is entered once and, when it adds
    // literals to the path, left once its subtree is done.
    let root = tree.tree().root();
    let mut stack: Vec<(NodeId, bool)> = tree
        .tree()
        .children(root)
        .iter()
        .rev()
        .map(|&c| (c, false))
        .collect();
    while let Some((node, leaving)) = stack.pop() {
        let own = tree
            .condition_ref(node)
            .map_or(&[][..], Condition::literals);
        if leaving {
            for l in own {
                on_path[l.event.index()] = None;
            }
            continue;
        }
        let path = |l: Literal| on_path.get(l.event.index()).copied().flatten();
        // Inconsistent in itself (sorted literals put `w` next to `¬w`) or
        // contradicting the path: the node can never be present.
        if own.windows(2).any(|w| w[0].event == w[1].event)
            || own.iter().any(|&l| path(l) == Some(!l.positive))
        {
            to_detach.push(node);
            continue;
        }
        // Literals the path already carries are superfluous.
        if own.iter().any(|&l| path(l).is_some()) {
            let kept: Vec<Literal> = own.iter().copied().filter(|&l| path(l).is_none()).collect();
            enter(&mut on_path, &kept);
            if !kept.is_empty() {
                stack.push((node, true));
            }
            tree.set_condition(node, Condition::from_literals(kept));
            changed = true;
        } else if !own.is_empty() {
            enter(&mut on_path, own);
            stack.push((node, true));
        }
        stack.extend(tree.tree().children(node).iter().rev().map(|&c| (c, false)));
    }
    changed |= !to_detach.is_empty();
    detach_all(tree, to_detach);
    changed
}

/// Adds `literals`, none of which is on the path yet, to the path table.
fn enter(on_path: &mut Vec<Option<bool>>, literals: &[Literal]) {
    for l in literals {
        let i = l.event.index();
        if i >= on_path.len() {
            on_path.resize(i + 1, None);
        }
        on_path[i] = Some(l.positive);
    }
}

/// Prunes, in place, the branches a **certain** event makes impossible and
/// drops the literals it makes redundant: a positive literal on a
/// `π(w) = 1` event holds in every positive-probability world (removed
/// from its condition), while a negative literal on such an event can
/// never hold there (the node and its descendants are detached).
/// `π(w) = 0` cannot occur — the event table enforces `π ∈ (0, 1]`.
///
/// Unlike [`clean`], which preserves structural equivalence (Definition 9
/// quantifies over *all* valuations, including zero-probability ones),
/// this pass only preserves the **normalized possible-world semantics**:
/// it is part of the update engine's simplification chain, whose contract
/// is agreement with `apply_to_pw_set` up to normalization. Returns
/// whether anything changed.
pub(crate) fn prune_certain(tree: &mut ProbTree) -> bool {
    // Fresh confidence events are always < 1, so most trees have no
    // certain event at all — skip the scan and the expansion entirely.
    let events = tree.events();
    if events.iter().all(|e| events.prob(e) < 1.0) {
        return false;
    }
    tree.expand_all();
    let mut to_detach: Vec<NodeId> = Vec::new();
    let mut changed = false;
    let nodes: Vec<NodeId> = tree.tree().iter().collect();
    for node in nodes {
        if node == tree.tree().root() {
            continue;
        }
        let own = tree.condition(node);
        let mut kept: Vec<Literal> = Vec::new();
        let mut impossible = false;
        for &literal in own.literals() {
            if is_impossible(literal.negated(), tree.events()) {
                continue; // certainly true: superfluous
            }
            if is_impossible(literal, tree.events()) {
                impossible = true; // certainly false: dead branch
                break;
            }
            kept.push(literal);
        }
        if impossible {
            to_detach.push(node);
        } else if kept.len() != own.len() {
            tree.set_condition(node, Condition::from_literals(kept));
            changed = true;
        }
    }
    changed |= !to_detach.is_empty();
    detach_all(tree, to_detach);
    changed
}

/// `true` when `literal` holds in no positive-probability world — the
/// negation of a `π(w) = 1` event. Its negation is then certain.
pub(crate) fn is_impossible(literal: Literal, events: &EventTable) -> bool {
    literal.prob(events) == 0.0
}

/// Detaches every node of `nodes` still attached to its parent (a node
/// may already hang below a previously detached ancestor, where detaching
/// it again is pointless).
fn detach_all(tree: &mut ProbTree, nodes: Vec<NodeId>) {
    for node in nodes {
        if tree.tree().parent(node).is_some() {
            tree.detach(node);
        }
    }
}

/// `true` if `tree` is already clean: no node condition repeats or
/// contradicts an ancestor literal, and every condition is consistent.
pub fn is_clean(tree: &ProbTree) -> bool {
    let tree = tree.expanded();
    let tree = tree.as_ref();
    for node in tree.tree().iter() {
        if node == tree.tree().root() {
            continue;
        }
        let own = tree.condition(node);
        if !own.is_consistent() {
            return false;
        }
        let ancestor = tree.ancestor_condition(node);
        for &literal in own.literals() {
            if ancestor.literals().contains(&literal)
                || ancestor.literals().contains(&literal.negated())
            {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probtree::figure1_example;
    use crate::semantics::possible_worlds;
    use pxml_events::{Condition, Literal};

    #[test]
    fn figure1_is_already_clean() {
        let t = figure1_example();
        assert!(is_clean(&t));
        let cleaned = clean(&t);
        assert_eq!(cleaned.num_nodes(), t.num_nodes());
        assert_eq!(cleaned.num_literals(), t.num_literals());
    }

    #[test]
    fn superfluous_ancestor_literals_are_removed() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        // C repeats the ancestor's literal.
        t.add_child(b, "C", Condition::of(Literal::pos(w)));
        assert!(!is_clean(&t));
        let cleaned = clean(&t);
        assert!(is_clean(&cleaned));
        assert_eq!(cleaned.num_nodes(), 3);
        assert_eq!(cleaned.num_literals(), 1, "only B keeps its literal");
    }

    #[test]
    fn intrinsically_inconsistent_nodes_are_pruned() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(w), Literal::neg(w)]),
        );
        t.add_child(b, "C", Condition::always());
        let cleaned = clean(&t);
        assert_eq!(cleaned.num_nodes(), 1, "B and its descendant C are gone");
    }

    #[test]
    fn nodes_contradicting_ancestors_are_pruned() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(b, "C", Condition::of(Literal::neg(w)));
        let cleaned = clean(&t);
        assert_eq!(cleaned.num_nodes(), 2);
        assert!(is_clean(&cleaned));
    }

    #[test]
    fn cleaning_preserves_possible_world_semantics() {
        let mut t = ProbTree::new("A");
        let w1 = t.events_mut().insert("w1", 0.6);
        let w2 = t.events_mut().insert("w2", 0.3);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w1)));
        // Superfluous w1 plus a real w2 condition.
        t.add_child(
            b,
            "C",
            Condition::from_literals([Literal::pos(w1), Literal::pos(w2)]),
        );
        // An impossible node.
        t.add_child(
            root,
            "D",
            Condition::from_literals([Literal::pos(w2), Literal::neg(w2)]),
        );
        let before = possible_worlds(&t, 20).unwrap().normalized();
        let cleaned = clean(&t);
        let after = possible_worlds(&cleaned, 20).unwrap().normalized();
        assert!(before.isomorphic(&after));
        assert!(is_clean(&cleaned));
        assert!(cleaned.num_literals() < t.num_literals());
    }

    #[test]
    fn prune_certain_drops_certain_literals_and_dead_branches() {
        let mut t = ProbTree::new("A");
        let sure = t.events_mut().insert("sure", 1.0);
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        // `sure ∧ w` simplifies to `w`.
        let b = t.add_child(
            root,
            "B",
            Condition::from_literals([Literal::pos(sure), Literal::pos(w)]),
        );
        t.add_child(b, "C", Condition::always());
        // `¬sure` can never hold in a positive-probability world.
        let d = t.add_child(root, "D", Condition::of(Literal::neg(sure)));
        t.add_child(d, "E", Condition::always());
        let before = crate::semantics::possible_worlds(&t, 20)
            .unwrap()
            .normalized();
        let mut pruned = t.clone();
        prune_certain(&mut pruned);
        assert_eq!(pruned.num_nodes(), 3, "D and E are dead branches");
        assert_eq!(pruned.num_literals(), 1, "only B's w literal remains");
        let after = crate::semantics::possible_worlds(&pruned, 20)
            .unwrap()
            .normalized();
        assert!(before.isomorphic(&after));
    }

    #[test]
    fn prune_certain_is_identity_without_certain_events() {
        let t = figure1_example();
        let mut pruned = t.clone();
        prune_certain(&mut pruned);
        assert_eq!(pruned.num_nodes(), t.num_nodes());
        assert_eq!(pruned.num_literals(), t.num_literals());
    }

    #[test]
    fn cleaning_is_idempotent() {
        let mut t = ProbTree::new("A");
        let w = t.events_mut().insert("w", 0.5);
        let root = t.tree().root();
        let b = t.add_child(root, "B", Condition::of(Literal::pos(w)));
        t.add_child(b, "C", Condition::of(Literal::pos(w)));
        let mut once = t.clone();
        clean_in_place(&mut once);
        let mut twice = once.clone();
        clean_in_place(&mut twice);
        assert_eq!(once.num_nodes(), twice.num_nodes());
        assert_eq!(once.num_literals(), twice.num_literals());
    }
}
