//! DTD satisfiability and validity of prob-trees (Theorem 5 (1)–(2)).
//!
//! * *Satisfiability*: is there a possible world of the prob-tree that
//!   satisfies the DTD? NP-complete in the number of event variables (and
//!   linear in the number of nodes). The paper's NP algorithm is "guess a
//!   valuation and check"; we provide both the deterministic exponential
//!   sweep ([`satisfiable_bruteforce`]) — factorized per co-occurrence
//!   component, so it enumerates `Σ_c 2^{|C_i|}` shard states and then
//!   only crosses the condition-distinct classes — and a pruned
//!   backtracking search over the event variables
//!   ([`satisfiable_backtracking`]) that is usually much faster while
//!   remaining exponential in the worst case.
//! * *Validity*: do **all** possible worlds satisfy the DTD?
//!   co-NP-complete; decided by searching for a counterexample world.

use std::collections::HashMap;

use pxml_core::probtree::ProbTree;
use pxml_core::worlds::WorldEngine;
use pxml_events::valuation::TooManyValuations;
use pxml_events::{EventId, Valuation};
use pxml_tree::{DataTree, NodeId};

use crate::dtd::Dtd;
use crate::validate::validates;

/// Statistics of a backtracking run (reported by the E8 tables).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of branching decisions made.
    pub decisions: u64,
    /// Number of partial assignments pruned by the three-valued check.
    pub pruned: u64,
}

/// Deterministic exponential check: sweep every *world* of the prob-tree
/// (a DTD is a property of worlds, so valuations that give every condition
/// the same truth values are interchangeable) and test each against the
/// DTD. The sweep is factorized: each co-occurrence component is
/// enumerated independently into a shard (`Σ_c 2^{|C_i|}` states, no
/// zero-probability pruning — satisfiability quantifies over *all*
/// worlds), condition-equivalent assignments are merged per shard, and
/// only the deduplicated classes are crossed — with early exit on the
/// first witness. Returns the witness valuation if one exists.
pub fn satisfiable_bruteforce(
    tree: &ProbTree,
    dtd: &Dtd,
    max_events: usize,
) -> Result<Option<Valuation>, TooManyValuations> {
    find_world(tree, max_events, |world| validates(world, dtd))
}

/// Deterministic exponential validity check: every world must satisfy the
/// DTD. Runs the same factorized world sweep as
/// [`satisfiable_bruteforce`]; returns a counterexample valuation if one
/// exists (i.e. `Ok(None)` means *valid*).
pub fn valid_bruteforce(
    tree: &ProbTree,
    dtd: &Dtd,
    max_events: usize,
) -> Result<Option<Valuation>, TooManyValuations> {
    find_world(tree, max_events, |world| !validates(world, dtd))
}

/// The shared factorized sweep behind the brute-force checks: unpruned
/// per-component shards crossed into representative joint valuations, one
/// per distinct world, stopping at the first world `accept`s. The world
/// engine applies the `max_events` budget to the largest component, the
/// total shard work and the joint combine.
fn find_world(
    tree: &ProbTree,
    max_events: usize,
    accept: impl Fn(&DataTree) -> bool,
) -> Result<Option<Valuation>, TooManyValuations> {
    let factorized = WorldEngine::new(tree).factorize(false, max_events)?;
    let found = factorized
        .joint_valuations()?
        .map(|(valuation, _)| valuation)
        .find(|valuation| accept(&tree.value_in_world(valuation)));
    Ok(found)
}

/// Three-valued truth.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Maybe {
    False,
    True,
    Unknown,
}

/// Backtracking satisfiability search over the event variables with a
/// three-valued pruning rule: a partial assignment is abandoned as soon as
/// some constrained, definitely-present node already violates an upper
/// bound with its definitely-present children, or can no longer reach a
/// lower bound even if all undecided children materialize.
///
/// Returns `(witness, stats)`; the witness is `None` when unsatisfiable.
pub fn satisfiable_backtracking(tree: &ProbTree, dtd: &Dtd) -> (Option<Valuation>, SearchStats) {
    let num_events = tree.events().len();
    let mut assignment: Vec<Option<bool>> = vec![None; num_events];
    let mut stats = SearchStats::default();
    let found = search(tree, dtd, &mut assignment, 0, &mut stats);
    let witness = found.then(|| {
        Valuation::from_true_events(
            num_events,
            assignment
                .iter()
                .enumerate()
                .filter(|(_, v)| v.unwrap_or(false))
                .map(|(i, _)| EventId::from_index(i)),
        )
    });
    (witness, stats)
}

fn search(
    tree: &ProbTree,
    dtd: &Dtd,
    assignment: &mut Vec<Option<bool>>,
    next: usize,
    stats: &mut SearchStats,
) -> bool {
    if prune(tree, dtd, assignment) {
        stats.pruned += 1;
        return false;
    }
    if next == assignment.len() {
        // Fully assigned and not pruned: the pruning check is exact on
        // total assignments.
        return true;
    }
    stats.decisions += 1;
    for value in [true, false] {
        assignment[next] = Some(value);
        if search(tree, dtd, assignment, next + 1, stats) {
            return true;
        }
    }
    assignment[next] = None;
    false
}

/// Three-valued presence of every node under a partial assignment.
fn presences(tree: &ProbTree, assignment: &[Option<bool>]) -> HashMap<NodeId, Maybe> {
    let mut out: HashMap<NodeId, Maybe> = HashMap::new();
    for node in tree.tree().iter() {
        let parent = tree.tree().parent(node).map_or(Maybe::True, |p| out[&p]);
        let own = eval_condition3(tree, node, assignment);
        let combined = match (parent, own) {
            (Maybe::False, _) | (_, Maybe::False) => Maybe::False,
            (Maybe::True, Maybe::True) => Maybe::True,
            _ => Maybe::Unknown,
        };
        out.insert(node, combined);
    }
    out
}

fn eval_condition3(tree: &ProbTree, node: NodeId, assignment: &[Option<bool>]) -> Maybe {
    let mut unknown = false;
    for literal in tree.condition(node).literals() {
        match assignment[literal.event.index()] {
            Some(value) => {
                if value != literal.positive {
                    return Maybe::False;
                }
            }
            None => unknown = true,
        }
    }
    if unknown {
        Maybe::Unknown
    } else {
        Maybe::True
    }
}

/// `true` if the partial assignment can already be ruled out. On total
/// assignments this is exactly "the world violates the DTD".
fn prune(tree: &ProbTree, dtd: &Dtd, assignment: &[Option<bool>]) -> bool {
    let presence = presences(tree, assignment);
    for node in tree.tree().iter() {
        // Only definitely-present, constrained parents can already violate
        // the DTD.
        if presence[&node] != Maybe::True {
            continue;
        }
        let label = tree.tree().label(node);
        if !dtd.constrains(label) {
            continue;
        }
        // Count definite and potential children per label.
        let mut definite: HashMap<&str, usize> = HashMap::new();
        let mut potential: HashMap<&str, usize> = HashMap::new();
        for &child in tree.tree().children(node) {
            let child_label = tree.tree().label(child);
            match presence[&child] {
                Maybe::True => {
                    *definite.entry(child_label).or_insert(0) += 1;
                    *potential.entry(child_label).or_insert(0) += 1;
                }
                Maybe::Unknown => {
                    *potential.entry(child_label).or_insert(0) += 1;
                }
                Maybe::False => {}
            }
        }
        // Upper bounds (including forbidden labels) against definite
        // counts.
        for (child_label, count) in &definite {
            let constraint = dtd
                .constraint(label, child_label)
                .expect("parent is constrained");
            if let Some(max) = constraint.max {
                if *count > max {
                    return true;
                }
            }
        }
        // Lower bounds against potential counts.
        for (child_label, constraint) in dtd.child_rules(label) {
            let possible = potential.get(child_label).copied().unwrap_or(0);
            if possible < constraint.min {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtd::ChildConstraint;
    use pxml_core::probtree::figure1_example;
    use pxml_events::{Condition, Literal};

    fn at_most_one_b() -> Dtd {
        let mut dtd = Dtd::new();
        dtd.constrain("A", "B", ChildConstraint::between(0, 1))
            .constrain("A", "C", ChildConstraint::at_least(0))
            .constrain("C", "D", ChildConstraint::at_least(0));
        dtd
    }

    #[test]
    fn figure1_satisfies_a_permissive_dtd() {
        let t = figure1_example();
        let dtd = at_most_one_b();
        let brute = satisfiable_bruteforce(&t, &dtd, 20).unwrap();
        assert!(brute.is_some());
        let (bt, stats) = satisfiable_backtracking(&t, &dtd);
        assert!(bt.is_some());
        assert!(stats.decisions <= 4);
        // The witness really is a valid world.
        let world = t.value_in_world(&bt.unwrap());
        assert!(validates(&world, &dtd));
    }

    #[test]
    fn unsatisfiable_dtd_is_detected_by_both_algorithms() {
        // Require at least one "Z" child of A — never present.
        let t = figure1_example();
        let mut dtd = Dtd::new();
        dtd.constrain("A", "Z", ChildConstraint::at_least(1))
            .constrain("A", "B", ChildConstraint::at_least(0))
            .constrain("A", "C", ChildConstraint::at_least(0));
        assert!(satisfiable_bruteforce(&t, &dtd, 20).unwrap().is_none());
        let (witness, _) = satisfiable_backtracking(&t, &dtd);
        assert!(witness.is_none());
    }

    #[test]
    fn validity_detects_counterexamples() {
        // Require a D child under every C: the worlds where w2 is false
        // violate it.
        let t = figure1_example();
        let mut dtd = Dtd::new();
        dtd.constrain("C", "D", ChildConstraint::at_least(1));
        let counterexample = valid_bruteforce(&t, &dtd, 20).unwrap();
        assert!(counterexample.is_some());
        let world = t.value_in_world(&counterexample.unwrap());
        assert!(!validates(&world, &dtd));
        // The trivial DTD is always valid.
        assert!(valid_bruteforce(&t, &Dtd::new(), 20).unwrap().is_none());
    }

    #[test]
    fn backtracking_agrees_with_bruteforce_on_random_instances() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xD7D);
        for _ in 0..40 {
            // Random prob-tree: root R, children labeled L0/L1 with random
            // 1-literal conditions over 5 events.
            let mut t = ProbTree::new("R");
            let events: Vec<_> = (0..5).map(|_| t.events_mut().fresh(0.5)).collect();
            let root = t.tree().root();
            for _ in 0..rng.gen_range(2..6usize) {
                let label = ["L0", "L1"][rng.gen_range(0..2usize)];
                let lit = Literal {
                    event: events[rng.gen_range(0..events.len())],
                    positive: rng.gen_bool(0.5),
                };
                t.add_child(root, label, Condition::of(lit));
            }
            // Random DTD bounding both labels.
            let mut dtd = Dtd::new();
            dtd.constrain(
                "R",
                "L0",
                ChildConstraint::between(rng.gen_range(0..2), rng.gen_range(1..3)),
            )
            .constrain(
                "R",
                "L1",
                ChildConstraint::between(rng.gen_range(0..2), rng.gen_range(1..3)),
            );
            let brute = satisfiable_bruteforce(&t, &dtd, 20).unwrap().is_some();
            let (witness, _) = satisfiable_backtracking(&t, &dtd);
            assert_eq!(brute, witness.is_some(), "tree:\n{}", t.to_ascii());
            if let Some(w) = witness {
                assert!(validates(&t.value_in_world(&w), &dtd));
            }
        }
    }

    /// The factorized sweep handles trees whose relevant events exceed the
    /// old `2^{|relevant|}` guard, as long as the components are small and
    /// their condition-distinct classes stay within the joint budget: 20
    /// events in 5 components of 4, each component a single 4-literal
    /// condition, give `Σ 2^4 = 80` shard states and `2^5 = 32` joint
    /// classes under a `max_events = 16` budget that refuses `2^20`.
    #[test]
    fn factorized_sweep_handles_many_small_components() {
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        for _ in 0..5 {
            let w: Vec<_> = (0..4).map(|_| t.events_mut().fresh(0.5)).collect();
            t.add_child(
                root,
                "C",
                Condition::from_literals(w.iter().map(|&e| Literal::pos(e))),
            );
        }
        assert_eq!(t.events().len(), 20);
        // Exactly 3 C children is reachable (choose 3 of 5 conditions
        // true), so the DTD is satisfiable; more than 5 is not.
        let mut dtd = Dtd::new();
        dtd.constrain("A", "C", ChildConstraint::between(3, 3));
        let witness = satisfiable_bruteforce(&t, &dtd, 16).unwrap();
        assert!(witness.is_some());
        assert!(validates(&t.value_in_world(&witness.unwrap()), &dtd));
        let mut impossible = Dtd::new();
        impossible.constrain("A", "C", ChildConstraint::at_least(6));
        assert!(satisfiable_bruteforce(&t, &impossible, 16)
            .unwrap()
            .is_none());
        // Validity: not every world has ≥ 1 C child (all-false exists).
        let mut at_least_one = Dtd::new();
        at_least_one.constrain("A", "C", ChildConstraint::at_least(1));
        let counterexample = valid_bruteforce(&t, &at_least_one, 16).unwrap();
        assert!(counterexample.is_some());
        assert!(!validates(
            &t.value_in_world(&counterexample.unwrap()),
            &at_least_one
        ));
    }

    #[test]
    fn pruning_cuts_the_search_space() {
        // Root A constrained to have zero B children, but it has one
        // unconditioned B child: prune at depth 0 without exploring 2^10
        // assignments.
        let mut t = ProbTree::new("A");
        let root = t.tree().root();
        t.add_child(root, "B", Condition::always());
        for _ in 0..10 {
            let w = t.events_mut().fresh(0.5);
            t.add_child(root, "C", Condition::of(Literal::pos(w)));
        }
        let mut dtd = Dtd::new();
        dtd.constrain("A", "B", ChildConstraint::forbidden())
            .constrain("A", "C", ChildConstraint::at_least(0));
        let (witness, stats) = satisfiable_backtracking(&t, &dtd);
        assert!(witness.is_none());
        assert_eq!(stats.decisions, 0, "the root call should prune immediately");
    }
}
