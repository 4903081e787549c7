//! Commutative provenance semirings: one condition algebra, many
//! scenarios.
//!
//! The paper's tractability results all hinge on conditions being
//! evaluated by a single fold — multiply along a conjunction, sum over
//! disjoint worlds. That fold is not intrinsically about probability: it
//! works over any **commutative semiring** `(K, ⊕, ⊗, 0, 1)` whose
//! addition and multiplication are associative and commutative, with `0`
//! the `⊕`-identity and `⊗`-annihilator and `1` the `⊗`-identity (Green,
//! Karvounarakis & Tannen's provenance semirings, instantiated for the
//! prob-tree model).
//!
//! [`Semiring`] abstracts the fold; each instance is a new scenario for
//! free, evaluated over the **same** prepared match sets and shard plans:
//!
//! | instance | `K` | answers |
//! |---|---|---|
//! | [`Probability`] | `f64` | Definition 8's `eval` — the classic path |
//! | [`Possibility`] | `bool` | "is this answer possible at all?" (the possibility problem) |
//! | [`Counting`] | `u64` | model counts over the event universe (cross-checked against `pxml_sat`) |
//! | [`TopKProofs`] | proof sets | the `k` most probable literal conjunctions explaining an answer |
//! | [`Lineage`] | event-id sets | why-provenance: which base events the answer depends on |
//!
//! The probability path stays the specialized fast path: `Probability`'s
//! operations monomorphize to plain `f64` arithmetic in the exact
//! sequence the pre-semiring code used, so
//! [`Condition::probability`](crate::Condition::probability) is
//! bit-identical to its hand-rolled ancestor (property-tested in the
//! integration suite).

use std::collections::BTreeSet;
use std::fmt;

use crate::condition::Literal;
use crate::event::{EventId, EventTable};

/// A commutative semiring `(K, ⊕, ⊗, 0, 1)` interpreting condition
/// literals, plus the structural hooks the engines key on (zero tests for
/// pruning, certainty for the update simplifier, unmentioned-event factors
/// for counting-style instances).
///
/// Instances are **values**, not just types, so an instance can carry
/// parameters (e.g. [`TopKProofs`]'s bound `k`).
///
/// # Laws
///
/// For all `a`, `b`, `c` produced by `zero`/`one`/`literal` and closed
/// under `add`/`mul` (property-tested in `tests/tests/semirings.rs`):
///
/// * `add` and `mul` are associative and commutative;
/// * `add(a, zero()) = a`, `mul(a, one()) = a`, `mul(a, zero()) = zero()`;
/// * `mul(a, add(b, c)) = add(mul(a, b), mul(a, c))` whenever `b` and `c`
///   arise from **disjoint** events (the only shape of addition the
///   engines perform: sums over mutually exclusive worlds). Bounded
///   instances like [`TopKProofs`] distribute exactly in this disjoint
///   regime once the bound is large enough to hold both sides.
pub trait Semiring {
    /// The carrier `K`.
    type Value: Clone + PartialEq + fmt::Debug;

    /// The additive identity `0` (the value of an impossible condition).
    fn zero(&self) -> Self::Value;

    /// The multiplicative identity `1` (the value of the empty, always
    /// true condition).
    fn one(&self) -> Self::Value;

    /// Semiring addition `⊕`, combining values of mutually exclusive
    /// alternatives.
    fn add(&self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// Semiring multiplication `⊗`, combining values of independent
    /// conjuncts.
    fn mul(&self, a: Self::Value, b: Self::Value) -> Self::Value;

    /// The interpretation of one literal under the event distribution.
    fn literal(&self, literal: Literal, events: &EventTable) -> Self::Value;

    /// `true` iff `value` is the additive identity — the test pruning
    /// passes key on ("this branch contributes nothing").
    fn is_zero(&self, value: &Self::Value) -> bool;

    /// `true` when unmentioned events contribute a non-identity factor to
    /// a conjunction's value, i.e. [`Semiring::unmentioned`] must be
    /// folded in for every event the condition does not constrain.
    ///
    /// Defaults to `false`: for probability-like instances the two
    /// branches of an unconstrained event add up to `1` analytically, so
    /// the fold skips the whole event sweep (this keeps the `Probability`
    /// fast path `O(|literals|)` and bit-identical to the pre-semiring
    /// code — summing `π + (1 − π)` in floating point would not be).
    fn constrains_unmentioned(&self) -> bool {
        false
    }

    /// The factor an event **not mentioned** by the condition contributes
    /// to a conjunction fold (only consulted when
    /// [`Semiring::constrains_unmentioned`] is `true`). [`Counting`]
    /// returns `2`: both truth values of a free variable extend a model.
    fn unmentioned(&self, event: EventId, events: &EventTable) -> Self::Value {
        let _ = (event, events);
        self.one()
    }

    /// `true` iff the literal holds in every world of non-zero semiring
    /// mass — i.e. its negation annihilates. This is the semiring-generic
    /// notion of certainty: under [`Probability`], `literal_certain(w)`
    /// iff `π(w) = 1`, the literals the update simplifier's certainty
    /// pruning drops.
    fn literal_certain(&self, literal: Literal, events: &EventTable) -> bool {
        self.is_zero(&self.literal(literal.negated(), events))
    }

    /// `true` iff `value` is **additively absorbing**: `add(value, b) =
    /// value` for every `b` this instance can produce, so an `⊕`-fold that
    /// reaches it may stop early. Exponential DNF sweeps
    /// ([`crate::Dnf::eval_in`]) key on this to short-circuit: under
    /// [`Possibility`], `true` absorbs after the first satisfying world.
    ///
    /// Defaults to `false` — always sound, never early-exits. Instances
    /// must only return `true` for values no reachable `add` can change
    /// ([`Probability`] and [`Counting`] have no such value short of
    /// overflow; [`TopKProofs`] only at `k = 1` once the rank-minimal
    /// empty proof is held).
    fn is_absorbing(&self, value: &Self::Value) -> bool {
        let _ = value;
        false
    }

    /// Distinguishes differently-parameterized instances of the **same**
    /// semiring type for value caching (the prepared-query maintenance
    /// cache keys on `(TypeId, cache_token)`): two instances sharing a
    /// type and token must produce identical values for identical inputs.
    /// Parameter-free instances keep the default `0`; [`TopKProofs`]
    /// returns its bound `k`.
    fn cache_token(&self) -> u64 {
        0
    }
}

/// The probability semiring `([0, 1], +, ·, 0, 1)` — Definition 8's
/// `eval`, and the workspace's specialized fast path: every operation
/// monomorphizes to the exact `f64` arithmetic the pre-semiring folds
/// performed, in the same order, so results are bit-identical.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Probability;

impl Semiring for Probability {
    type Value = f64;

    fn zero(&self) -> f64 {
        0.0
    }

    fn one(&self) -> f64 {
        1.0
    }

    fn add(&self, a: f64, b: f64) -> f64 {
        a + b
    }

    fn mul(&self, a: f64, b: f64) -> f64 {
        a * b
    }

    fn literal(&self, literal: Literal, events: &EventTable) -> f64 {
        literal.prob(events)
    }

    fn is_zero(&self, value: &f64) -> bool {
        *value == 0.0
    }
}

/// The boolean semiring `({⊥, ⊤}, ∨, ∧, ⊥, ⊤)` — the *possibility
/// problem*: is there **any** positive-probability world where the
/// condition holds? A positive literal is always possible (the table
/// enforces `π > 0`); a negative literal is possible iff `π < 1`.
///
/// Bridge law (property-tested): `Possibility ≡ (Probability > 0)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Possibility;

impl Semiring for Possibility {
    type Value = bool;

    fn zero(&self) -> bool {
        false
    }

    fn one(&self) -> bool {
        true
    }

    fn add(&self, a: bool, b: bool) -> bool {
        a || b
    }

    fn mul(&self, a: bool, b: bool) -> bool {
        a && b
    }

    fn literal(&self, literal: Literal, events: &EventTable) -> bool {
        literal.prob(events) > 0.0
    }

    fn is_zero(&self, value: &bool) -> bool {
        !*value
    }

    fn is_absorbing(&self, value: &bool) -> bool {
        // `true ∨ b = true` for every `b`: one satisfying world settles
        // the possibility question.
        *value
    }
}

/// The counting semiring `(ℕ, +, ×, 0, 1)` over the **whole event
/// universe**: a consistent conjunction of `ℓ` literals over an `n`-event
/// table has `2^{n−ℓ}` models, so unmentioned events contribute a factor
/// of `2` each ([`Semiring::constrains_unmentioned`]).
///
/// Bridge law (property-tested): a condition's count equals
/// `pxml_sat::count_models_brute` of its unit-clause CNF encoding.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counting;

impl Semiring for Counting {
    type Value = u64;

    fn zero(&self) -> u64 {
        0
    }

    fn one(&self) -> u64 {
        1
    }

    fn add(&self, a: u64, b: u64) -> u64 {
        a + b
    }

    fn mul(&self, a: u64, b: u64) -> u64 {
        a * b
    }

    fn literal(&self, _literal: Literal, _events: &EventTable) -> u64 {
        1
    }

    fn is_zero(&self, value: &u64) -> bool {
        *value == 0
    }

    fn constrains_unmentioned(&self) -> bool {
        true
    }

    fn unmentioned(&self, _event: EventId, _events: &EventTable) -> u64 {
        2
    }
}

/// The lineage (why-provenance) semiring: which base events does a value
/// depend on at all? `None` is the annihilating `0` (impossible); a
/// possible value carries the set of events consulted. Both `⊕` and `⊗`
/// are set union on possible values — union is associative, commutative,
/// idempotent and self-distributive, so the laws hold with `⊕ = ⊗`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Lineage;

impl Semiring for Lineage {
    type Value = Option<BTreeSet<EventId>>;

    fn zero(&self) -> Self::Value {
        None
    }

    fn one(&self) -> Self::Value {
        Some(BTreeSet::new())
    }

    fn add(&self, a: Self::Value, b: Self::Value) -> Self::Value {
        match (a, b) {
            (None, x) | (x, None) => x,
            (Some(mut a), Some(b)) => {
                a.extend(b);
                Some(a)
            }
        }
    }

    fn mul(&self, a: Self::Value, b: Self::Value) -> Self::Value {
        match (a, b) {
            (None, _) | (_, None) => None,
            (Some(mut a), Some(b)) => {
                a.extend(b);
                Some(a)
            }
        }
    }

    fn literal(&self, literal: Literal, _events: &EventTable) -> Self::Value {
        Some(BTreeSet::from([literal.event]))
    }

    fn is_zero(&self, value: &Self::Value) -> bool {
        value.is_none()
    }
}

/// One proof inside a [`TopKProofs`] value: a consistent conjunction of
/// literals sufficient for the condition, with the per-literal
/// probability weights it was built from. Kept sorted by literal; the
/// proof's weight is the product of its literal weights.
#[derive(Clone, Debug, PartialEq)]
pub struct Proof {
    literals: Vec<(Literal, f64)>,
}

impl Proof {
    /// The empty proof (no literals, weight 1) — the `⊗`-identity.
    pub fn empty() -> Self {
        Proof {
            literals: Vec::new(),
        }
    }

    /// The literals of the proof, sorted.
    pub fn literals(&self) -> impl Iterator<Item = Literal> + '_ {
        self.literals.iter().map(|&(l, _)| l)
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// `true` for the empty proof.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }

    /// The probability weight of the proof: the product of its literal
    /// weights.
    pub fn weight(&self) -> f64 {
        self.literals.iter().map(|&(_, w)| w).product()
    }

    /// Merges two proofs into their conjunction: `None` if they are
    /// contradictory (one contains a literal the other negates),
    /// otherwise the sorted, deduplicated merge.
    fn conjoin(&self, other: &Proof) -> Option<Proof> {
        let (a, b) = (&self.literals, &other.literals);
        let mut literals = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    if a[i].0.event == b[j].0.event {
                        return None; // w ∧ ¬w
                    }
                    literals.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    if a[i].0.event == b[j].0.event {
                        return None; // w ∧ ¬w
                    }
                    literals.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    literals.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        literals.extend_from_slice(&a[i..]);
        literals.extend_from_slice(&b[j..]);
        Some(Proof { literals })
    }

    /// Total rank order: weight descending, then the literal list
    /// lexicographically (deterministic across runs).
    fn rank(&self, other: &Proof) -> std::cmp::Ordering {
        other.weight().total_cmp(&self.weight()).then_with(|| {
            self.literals
                .iter()
                .map(|&(l, _)| l)
                .cmp(other.literals.iter().map(|&(l, _)| l))
        })
    }
}

/// The bounded top-`k`-proofs semiring (a Viterbi-style instance): a value
/// is the set of the `k` most probable distinct proofs, kept sorted by
/// weight descending (ties broken by literal order, so values are
/// canonical). `⊕` merges two proof sets and keeps the best `k`; `⊗`
/// conjoins proofs pairwise, drops contradictions, and keeps the best
/// `k`.
///
/// Truncation makes distributivity hold only when the bound is large
/// enough to hold both sides — which it always is for the disjoint,
/// within-bound additions the engines perform (see the trait-level laws).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TopKProofs {
    /// Maximum number of proofs a value retains.
    pub k: usize,
}

impl TopKProofs {
    /// A top-`k`-proofs semiring retaining at most `k` proofs per value.
    pub fn new(k: usize) -> Self {
        TopKProofs { k: k.max(1) }
    }

    /// Sorts by rank, drops duplicates and zero-weight proofs, truncates
    /// to `k` — the canonical form every operation re-establishes.
    fn canonicalize(&self, mut proofs: Vec<Proof>) -> Vec<Proof> {
        proofs.retain(|p| p.weight() > 0.0);
        proofs.sort_by(Proof::rank);
        proofs.dedup_by(|a, b| a.literals == b.literals);
        proofs.truncate(self.k);
        proofs
    }
}

impl Semiring for TopKProofs {
    type Value = Vec<Proof>;

    fn zero(&self) -> Vec<Proof> {
        Vec::new()
    }

    fn one(&self) -> Vec<Proof> {
        vec![Proof::empty()]
    }

    fn add(&self, mut a: Vec<Proof>, b: Vec<Proof>) -> Vec<Proof> {
        a.extend(b);
        self.canonicalize(a)
    }

    fn mul(&self, a: Vec<Proof>, b: Vec<Proof>) -> Vec<Proof> {
        let mut out = Vec::with_capacity(a.len() * b.len());
        for pa in &a {
            for pb in &b {
                if let Some(conjoined) = pa.conjoin(pb) {
                    out.push(conjoined);
                }
            }
        }
        self.canonicalize(out)
    }

    fn literal(&self, literal: Literal, events: &EventTable) -> Vec<Proof> {
        let weight = literal.prob(events);
        if weight <= 0.0 {
            return Vec::new();
        }
        vec![Proof {
            literals: vec![(literal, weight)],
        }]
    }

    fn is_zero(&self, value: &Vec<Proof>) -> bool {
        value.is_empty()
    }

    fn is_absorbing(&self, value: &Vec<Proof>) -> bool {
        // Only `k = 1` admits an absorbing value: the empty proof has
        // weight 1 and is rank-minimal (ties on weight break toward the
        // lexicographically smaller literal list), so no merged proof can
        // displace it. For `k > 1` any value can still gain proofs.
        self.k == 1 && value.first().is_some_and(Proof::is_empty)
    }

    fn cache_token(&self) -> u64 {
        self.k as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> (EventTable, EventId, EventId, EventId) {
        let mut t = EventTable::new();
        let w1 = t.insert("w1", 0.8);
        let w2 = t.insert("w2", 0.7);
        let sure = t.insert("sure", 1.0);
        (t, w1, w2, sure)
    }

    #[test]
    fn probability_monomorphizes_to_plain_arithmetic() {
        let (t, w1, w2, _) = table();
        let s = Probability;
        assert_eq!(s.mul(s.one(), s.literal(Literal::pos(w1), &t)), 0.8);
        let v = s.mul(
            s.literal(Literal::pos(w1), &t),
            s.literal(Literal::neg(w2), &t),
        );
        assert_eq!(v.to_bits(), (0.8f64 * (1.0 - 0.7)).to_bits());
        assert!(s.is_zero(&0.0));
        assert!(!s.is_zero(&1e-300));
    }

    #[test]
    fn certainty_is_keyed_on_annihilating_negations() {
        let (t, w1, _, sure) = table();
        let s = &Probability as &dyn Semiring<Value = f64>;
        assert!(s.literal_certain(Literal::pos(sure), &t));
        assert!(!s.literal_certain(Literal::neg(sure), &t));
        assert!(!s.literal_certain(Literal::pos(w1), &t));
        assert!(Possibility.literal_certain(Literal::pos(sure), &t));
        assert!(!Possibility.literal_certain(Literal::pos(w1), &t));
        // Counting and Lineage ignore π: nothing is certain.
        assert!(!Counting.literal_certain(Literal::pos(sure), &t));
        assert!(!Lineage.literal_certain(Literal::pos(sure), &t));
    }

    #[test]
    fn possibility_tracks_positive_probability() {
        let (t, w1, _, sure) = table();
        assert!(Possibility.literal(Literal::pos(w1), &t));
        assert!(Possibility.literal(Literal::neg(w1), &t));
        assert!(Possibility.literal(Literal::pos(sure), &t));
        assert!(!Possibility.literal(Literal::neg(sure), &t));
    }

    #[test]
    fn counting_doubles_per_unmentioned_event() {
        let (t, w1, _, _) = table();
        assert!(Counting.constrains_unmentioned());
        assert_eq!(Counting.unmentioned(w1, &t), 2);
        assert_eq!(
            Counting.mul(Counting.one(), Counting.literal(Literal::pos(w1), &t)),
            1
        );
    }

    #[test]
    fn lineage_unions_and_annihilates() {
        let (t, w1, w2, _) = table();
        let s = Lineage;
        let a = s.literal(Literal::pos(w1), &t);
        let b = s.literal(Literal::neg(w2), &t);
        let ab = s.mul(a.clone(), b.clone());
        assert_eq!(ab, Some(BTreeSet::from([w1, w2])));
        assert_eq!(s.add(a.clone(), s.zero()), a);
        assert_eq!(s.mul(b, s.zero()), None);
        assert!(s.is_zero(&s.zero()));
        assert!(!s.is_zero(&s.one()));
    }

    #[test]
    fn absorbing_values_are_add_fixpoints() {
        let (t, w1, w2, _) = table();
        // Probability, Counting and Lineage have no absorbing values.
        assert!(!Probability.is_absorbing(&1.0));
        assert!(!Counting.is_absorbing(&u64::MAX));
        assert!(!Lineage.is_absorbing(&Lineage.one()));
        // Possibility: `true` absorbs, `false` does not.
        assert!(Possibility.is_absorbing(&true));
        assert!(!Possibility.is_absorbing(&false));
        // Top-1: only the rank-minimal empty proof absorbs — merging any
        // proof into it leaves it in place.
        let top1 = TopKProofs::new(1);
        assert!(top1.is_absorbing(&top1.one()));
        let single = top1.literal(Literal::pos(w1), &t);
        assert!(!top1.is_absorbing(&single));
        assert!(!top1.is_absorbing(&top1.zero()));
        assert_eq!(top1.add(top1.one(), single.clone()), top1.one());
        assert_eq!(
            top1.add(top1.one(), top1.literal(Literal::pos(w2), &t)),
            top1.one()
        );
        // Top-2 values can always gain a proof: nothing absorbs.
        let top2 = TopKProofs::new(2);
        assert!(!top2.is_absorbing(&top2.one()));
        // Cache tokens distinguish differently-bounded instances.
        assert_eq!(Probability.cache_token(), 0);
        assert_ne!(top1.cache_token(), top2.cache_token());
    }

    #[test]
    fn top_k_proofs_rank_merge_and_truncate() {
        let (t, w1, w2, sure) = table();
        let s = TopKProofs::new(2);
        let a = s.literal(Literal::pos(w1), &t); // weight 0.8
        let b = s.literal(Literal::pos(w2), &t); // weight 0.7
        let c = s.literal(Literal::neg(w2), &t); // weight 1 − 0.7
                                                 // add keeps the best k in rank order.
        let merged = s.add(s.add(a.clone(), b.clone()), c.clone());
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].weight(), 0.8);
        assert_eq!(merged[1].weight(), 0.7);
        // mul conjoins pairwise and drops contradictions.
        let bc = s.mul(s.add(b, c.clone()), c);
        assert_eq!(bc.len(), 1, "w2 ∧ ¬w2 dropped, ¬w2 ∧ ¬w2 deduplicated");
        assert_eq!(bc[0].weight(), 1.0 - 0.7);
        // Zero-weight literals are no proof at all.
        assert!(s.is_zero(&s.literal(Literal::neg(sure), &t)));
        // Identities.
        assert_eq!(s.mul(a.clone(), s.one()), a);
        assert_eq!(s.add(a.clone(), s.zero()), a);
        assert!(s.mul(a, s.zero()).is_empty());
    }
}
