//! The client lanes: closed-loop lanes over one process's
//! `Warehouse`, with answer verification outside the timed region.
//!
//! Lanes claim lifetimes in index order from a shared counter. A lifetime
//! runs in the warehouse of its *generation* (`index / plan.generation`):
//! the warehouse has no document removal, so each generation's warehouse
//! is dropped when its last lifetime ends, and the next generation starts
//! from an empty one. Every timed operation is a `Warehouse` call; the
//! checks that follow it — a fresh prepare of `Warehouse::snapshot` for a
//! view read, an independently built document for a branch diff, the hub
//! counter identities at the end of a lifetime — run with the lane's
//! clock paused.

use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use pxml_core::query::Query;
use pxml_core::update::{ProbabilisticUpdate, UpdateAction};
use pxml_core::{AnswerSet, Document, PatternQuery, ProbTree, QueryEngine, UpdateEngine};
use pxml_server::{BranchDiff, HubStats, ServerError, Warehouse};
use pxml_tree::Semantics;
use pxml_workloads::warehouse::services_with_endpoint_and_contact;

use crate::plan::{DocLife, Lives, Plan, ReadKind, WhatifLife, THRESHOLD, TOP_K};
use crate::trace::{self, DocMirror, Name, Tracer, ROOT};

/// When the lanes stop claiming lifetimes.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    /// Exactly lifetimes `0..n`.
    Lifetimes(usize),
    /// Lifetimes `0..min`, then more until each lane has been active for
    /// `seconds` (a lane finishes the lifetime it is in).
    Seconds { seconds: f64, min: usize },
}

/// What one lifetime produced (deterministic per lifetime index).
#[derive(Clone, Copy, Debug)]
pub struct LifeOut {
    pub index: usize,
    /// Sum of the lifetime's read results, in order.
    pub checksum: f64,
    /// Mean logical node count of the lifetime's documents after their
    /// full scripts.
    pub final_nodes: f64,
    pub hub: HubStats,
}

/// One lane's samples and outcome. Latencies are in nanoseconds.
#[derive(Default)]
pub struct Lane {
    pub commit: Vec<u64>,
    /// Commits of insertions (`[0]`) and deletions (`[1]`).
    pub commit_kind: [Vec<u64>; 2],
    pub read: Vec<u64>,
    /// View reads by [`ReadKind`] (document lifetimes only).
    pub read_kind: [Vec<u64>; 4],
    pub first_read: Vec<u64>,
    pub round: Vec<u64>,
    pub branch: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Lane time minus the paused verification time.
    pub active: Duration,
    pub lives: Vec<LifeOut>,
    pub tracer: Option<Tracer>,
    paused: Duration,
}

impl Lane {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(message);
        }
    }

    /// Records an operation's outcome; `Err` returns count as failures.
    fn op<T>(&mut self, what: &str, result: Result<T, ServerError>) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(value) => Some(value),
            Err(error) => {
                self.fail(format!("{what}: {error}"));
                None
            }
        }
    }

    /// Runs `f` with the lane clock paused.
    fn committed(&mut self, update: &ProbabilisticUpdate, dur: Duration) {
        let deletion = matches!(update.operation.action, UpdateAction::Delete { .. });
        self.commit.push(ns(dur));
        self.commit_kind[usize::from(deletion)].push(ns(dur));
    }

    fn paused<T>(&mut self, f: impl FnOnce(&mut Lane) -> T) -> T {
        let start = Instant::now();
        let out = f(self);
        self.paused += start.elapsed();
        out
    }

    pub fn ops(&self) -> u64 {
        (self.commit.len() + self.read.len() + self.branch.len()) as u64
    }
}

/// The result of a multi-lane run.
pub struct Outcome {
    pub lanes: Vec<Lane>,
}

impl Outcome {
    fn gather(&self, f: impl Fn(&Lane) -> &Vec<u64>) -> Vec<u64> {
        let mut all: Vec<u64> = self
            .lanes
            .iter()
            .flat_map(|l| f(l).iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    pub fn commits(&self) -> Vec<u64> {
        self.gather(|l| &l.commit)
    }

    pub fn reads(&self) -> Vec<u64> {
        self.gather(|l| &l.read)
    }

    pub fn commits_of(&self, deletions: bool) -> Vec<u64> {
        self.gather(|l| &l.commit_kind[usize::from(deletions)])
    }

    pub fn reads_of(&self, kind: ReadKind) -> Vec<u64> {
        self.gather(|l| &l.read_kind[kind as usize])
    }

    pub fn first_reads(&self) -> Vec<u64> {
        self.gather(|l| &l.first_read)
    }

    pub fn rounds(&self) -> Vec<u64> {
        self.gather(|l| &l.round)
    }

    pub fn branches(&self) -> Vec<u64> {
        self.gather(|l| &l.branch)
    }

    pub fn attempted(&self) -> u64 {
        self.lanes.iter().map(|l| l.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.lanes.iter().map(|l| l.failed).sum()
    }

    pub fn failures(&self) -> impl Iterator<Item = &String> {
        self.lanes.iter().flat_map(|l| &l.failures)
    }

    /// Completed operations per second of (unpaused) lane time.
    pub fn ops_per_s(&self) -> f64 {
        let ops: u64 = self.lanes.iter().map(Lane::ops).sum();
        let active: f64 = self
            .lanes
            .iter()
            .map(|l| l.active.as_secs_f64())
            .sum::<f64>()
            / self.lanes.len() as f64;
        ops as f64 / active
    }

    /// Every lifetime's outcome, in index order.
    pub fn lives(&self) -> Vec<LifeOut> {
        let mut lives: Vec<LifeOut> = self
            .lanes
            .iter()
            .flat_map(|l| l.lives.iter().copied())
            .collect();
        lives.sort_by_key(|l| l.index);
        lives
    }

    /// The checksums of lifetimes `0..n`, summed in index order.
    pub fn checksum(&self, n: usize) -> f64 {
        self.lives()
            .iter()
            .filter(|l| l.index < n)
            .map(|l| l.checksum)
            .sum()
    }

    /// Hub counters of lifetimes `0..n`.
    pub fn hub(&self, n: usize) -> HubStats {
        let mut hub = HubStats::default();
        for life in self.lives().iter().filter(|l| l.index < n) {
            hub += life.hub;
        }
        hub
    }

    pub fn tracers(&self) -> Vec<&Tracer> {
        self.lanes
            .iter()
            .filter_map(|l| l.tracer.as_ref())
            .collect()
    }
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn name_of(plan: &Plan, i: usize) -> String {
    match plan.lives {
        Lives::Doc { .. } => format!("d{i}"),
        Lives::Whatif { .. } => format!("t{i}"),
    }
}

/// Registers lifetime `i`'s document (and, for document lifetimes, its
/// four views) in `warehouse`.
fn register(
    plan: &Plan,
    query: &Arc<PatternQuery>,
    warehouse: &Warehouse,
    i: usize,
) -> Result<(), ServerError> {
    let name = name_of(plan, i);
    match &plan.lives {
        Lives::Doc { skeleton, .. } => {
            warehouse.register(&name, ProbTree::clone(skeleton))?;
            for kind in ReadKind::ALL {
                warehouse.register_view(&name, kind.view(), query.clone())?;
            }
        }
        Lives::Whatif { trunks, lives } => {
            let life = &lives[i % lives.len()];
            warehouse.register(&name, trunks[life.trunk].clone())?;
        }
    }
    Ok(())
}

/// The set-up half of a run: the first generation's warehouse with its
/// documents and views registered.
pub fn first_generation(plan: &Plan) -> Result<Warehouse, ServerError> {
    let warehouse = Warehouse::new();
    let query = Arc::new(services_with_endpoint_and_contact());
    for i in 0..plan.generation {
        register(plan, &query, &warehouse, i)?;
    }
    Ok(warehouse)
}

/// A view read's result, kept for verification.
enum ReadResult {
    Top(AnswerSet),
    Above(AnswerSet),
    Expected(f64),
    Possible(usize),
}

impl ReadResult {
    fn serve(warehouse: &Warehouse, doc: &str, kind: ReadKind) -> Result<ReadResult, ServerError> {
        let view = kind.view();
        Ok(match kind {
            ReadKind::TopK => ReadResult::Top(warehouse.top_k(doc, view, TOP_K)?),
            ReadKind::Above => ReadResult::Above(warehouse.above(doc, view, THRESHOLD)?),
            ReadKind::Expected => ReadResult::Expected(warehouse.expected_matches(doc, view)?),
            ReadKind::Possible => ReadResult::Possible(warehouse.possible_count(doc, view)?),
        })
    }

    /// The oracle: the same read from a fresh prepare.
    fn fresh(prepared: &pxml_core::PreparedQuery<'_>, kind: ReadKind) -> ReadResult {
        match kind {
            ReadKind::TopK => ReadResult::Top(prepared.top_k(TOP_K)),
            ReadKind::Above => ReadResult::Above(prepared.above(THRESHOLD)),
            ReadKind::Expected => ReadResult::Expected(prepared.expected_matches()),
            ReadKind::Possible => ReadResult::Possible(
                prepared
                    .answers_in(&pxml_events::Possibility)
                    .into_iter()
                    .filter(|(_, possible)| *possible)
                    .count(),
            ),
        }
    }

    /// The scalar the E16 checksum adds up.
    fn scalar(&self) -> f64 {
        match self {
            ReadResult::Top(set) => set.total_probability(),
            ReadResult::Above(set) => set.len() as f64,
            ReadResult::Expected(value) => *value,
            ReadResult::Possible(count) => *count as f64,
        }
    }

    fn agrees(&self, other: &ReadResult) -> bool {
        match (self, other) {
            (ReadResult::Top(a), ReadResult::Top(b))
            | (ReadResult::Above(a), ReadResult::Above(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b.iter())
                        .all(|(x, y)| x.subtree == y.subtree && close(x.probability, y.probability))
            }
            (ReadResult::Expected(a), ReadResult::Expected(b)) => close(*a, *b),
            (ReadResult::Possible(a), ReadResult::Possible(b)) => a == b,
            _ => false,
        }
    }
}

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

/// Canonical answer → expected multiplicity, as `Warehouse::diff` keys it.
fn canonical_answers(tree: &ProbTree, query: &dyn Query) -> BTreeMap<String, f64> {
    let prepared = QueryEngine::new().prepare(tree, query);
    let mut answers: BTreeMap<String, f64> = BTreeMap::new();
    for index in 0..prepared.len() {
        let canonical = prepared
            .subtree(index)
            .canonical_string(tree.tree(), Semantics::MultiSet);
        *answers.entry(canonical).or_default() += prepared.probability(index);
    }
    answers
}

/// `true` when `diff` is the difference between `left` and `right`.
fn diff_agrees(
    diff: &BranchDiff,
    left: &BTreeMap<String, f64>,
    right: &BTreeMap<String, f64>,
) -> bool {
    let mut only_left = Vec::new();
    let mut shifted = Vec::new();
    let mut unchanged = 0;
    for (canonical, &l) in left {
        match right.get(canonical) {
            None => only_left.push(canonical),
            Some(&r) if (l - r).abs() > 1e-12 => shifted.push((canonical, l, r)),
            Some(_) => unchanged += 1,
        }
    }
    let only_right: Vec<&String> = right.keys().filter(|c| !left.contains_key(*c)).collect();
    diff.unchanged == unchanged
        && diff.only_left.iter().eq(only_left)
        && diff.only_right.iter().eq(only_right)
        && diff.shifted.len() == shifted.len()
        && diff
            .shifted
            .iter()
            .zip(&shifted)
            .all(|((c, l, r), (c2, l2, r2))| c == *c2 && close(*l, *l2) && close(*r, *r2))
}

/// The scalar a diff adds to the checksum.
fn diff_scalar(diff: &BranchDiff) -> f64 {
    let sizes = diff.only_left.len() + diff.only_right.len() + diff.shifted.len() + diff.unchanged;
    sizes as f64 + diff.shifted.iter().map(|(_, _, right)| right).sum::<f64>()
}

/// A run in progress: the plan, the claim counter and the live
/// generations' warehouses with their outstanding lifetime counts.
struct Run<'p> {
    plan: &'p Plan,
    query: Arc<PatternQuery>,
    stop: Stop,
    trace: bool,
    base: Instant,
    next: AtomicUsize,
    generations: Mutex<BTreeMap<usize, (Arc<Warehouse>, usize)>>,
}

impl Run<'_> {
    fn acquire(&self, i: usize) -> Arc<Warehouse> {
        let generation = i / self.plan.generation;
        let mut live = self.generations.lock().expect("generation lock poisoned");
        let entry = live
            .entry(generation)
            .or_insert_with(|| (Arc::new(Warehouse::new()), self.plan.generation));
        Arc::clone(&entry.0)
    }

    fn release(&self, i: usize) {
        let generation = i / self.plan.generation;
        let retired = {
            let mut live = self.generations.lock().expect("generation lock poisoned");
            let entry = live.get_mut(&generation).expect("acquired generation");
            entry.1 -= 1;
            if entry.1 == 0 {
                live.remove(&generation)
            } else {
                None
            }
        };
        drop(retired);
    }

    fn lane(&self, lane_index: u32) -> Lane {
        let mut lane = Lane {
            tracer: self.trace.then(|| {
                let query: Arc<dyn Query> = self.query.clone();
                Tracer::new(self.base, lane_index, query)
            }),
            ..Lane::default()
        };
        let start = Instant::now();
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            let more = match self.stop {
                Stop::Lifetimes(n) => i < n,
                Stop::Seconds { seconds, min } => {
                    i < min || start.elapsed().saturating_sub(lane.paused).as_secs_f64() < seconds
                }
            };
            if !more {
                break;
            }
            let warehouse = self.acquire(i);
            let out = match &self.plan.lives {
                Lives::Doc { skeleton, lives } => {
                    self.doc_life(&mut lane, i, &warehouse, skeleton, &lives[i % lives.len()])
                }
                Lives::Whatif { trunks, lives } => {
                    let life = &lives[i % lives.len()];
                    self.whatif_life(&mut lane, i, &warehouse, &trunks[life.trunk], life)
                }
            };
            drop(warehouse);
            self.release(i);
            if let Some(out) = out {
                lane.lives.push(out);
            }
        }
        lane.active = start.elapsed().saturating_sub(lane.paused);
        lane
    }

    /// Registers lifetime `i` unless set-up already did (generation 0).
    fn register(&self, lane: &mut Lane, i: usize, warehouse: &Warehouse) -> Option<u32> {
        if i < self.plan.generation {
            return Some(ROOT);
        }
        let start = Instant::now();
        let result = register(self.plan, &self.query, warehouse, i);
        let dur = start.elapsed();
        lane.op("register", result)?;
        Some(match &mut lane.tracer {
            Some(t) => t.rec.server(Name::ServerRegister, start, dur),
            None => ROOT,
        })
    }

    fn doc_life(
        &self,
        lane: &mut Lane,
        i: usize,
        warehouse: &Warehouse,
        skeleton: &ProbTree,
        life: &DocLife,
    ) -> Option<LifeOut> {
        let name = name_of(self.plan, i);
        let registered = self.register(lane, i, warehouse)?;
        let mut mirror = lane
            .tracer
            .as_mut()
            .map(|t| DocMirror::new(t, registered, skeleton));
        let queries = QueryEngine::new();
        let query: &dyn Query = &*self.query;
        let before = lane.tracer.as_ref().map(|t| t.counters);
        let mut checksum = 0.0;
        let mut final_nodes = 0.0;
        for (round, update) in life.script.steps().iter().enumerate() {
            let start = Instant::now();
            let result = warehouse.commit(&name, update);
            let dur = start.elapsed();
            let delta = lane.op("commit", result)?;
            lane.committed(update, dur);
            let mut round_ns = ns(dur);
            if let (Some(t), Some(mirror)) = (&mut lane.tracer, &mut mirror) {
                let span = t.rec.server(Name::ServerCommit, start, dur);
                let replayed = mirror.commit(t, span, update);
                if !trace::same_delta(&delta, &replayed) {
                    lane.fail(format!(
                        "{name}: commit {round} counts differ from the replay"
                    ));
                }
            }
            // The oracle of this epoch: a fresh prepare of the pinned
            // snapshot, built on the first verified read.
            let snapshot = OnceCell::new();
            let fresh = OnceCell::new();
            let oracles: [OnceCell<ReadResult>; 4] = Default::default();
            for (r, &kind) in life.reads[round].iter().enumerate() {
                let start = Instant::now();
                let result = ReadResult::serve(warehouse, &name, kind);
                let dur = start.elapsed();
                let served = lane.op("read", result)?;
                lane.read.push(ns(dur));
                lane.read_kind[kind as usize].push(ns(dur));
                if r == 0 {
                    lane.first_read.push(ns(dur));
                }
                round_ns += ns(dur);
                checksum += served.scalar();
                if let (Some(t), Some(mirror)) = (&mut lane.tracer, &mut mirror) {
                    let span = t.rec.server(Name::ServerRead, start, dur);
                    mirror.read(t, span, kind);
                }
                let verified = lane.paused(|lane| {
                    if snapshot.get().is_none() {
                        let pinned = pin_snapshot(lane, warehouse, &name)?;
                        let _ = snapshot.set(pinned);
                    }
                    let pinned: &pxml_server::Snapshot = snapshot.get()?;
                    if pinned.epoch != round as u64 + 1 {
                        lane.fail(format!(
                            "{name}: snapshot at epoch {} after commit {round}",
                            pinned.epoch
                        ));
                    }
                    let fresh = fresh.get_or_init(|| queries.prepare(&pinned.tree, query));
                    let oracle =
                        oracles[kind as usize].get_or_init(|| ReadResult::fresh(fresh, kind));
                    Some(served.agrees(oracle))
                });
                if verified != Some(true) {
                    lane.fail(format!(
                        "{name}: {kind:?} read after commit {round} disagrees with a fresh prepare"
                    ));
                }
            }
            lane.round.push(round_ns);
        }
        let commits = life.script.len() as u64;
        let hub = lane.paused(|lane| {
            let final_snapshot = pin_snapshot(lane, warehouse, &name)?;
            final_nodes = final_snapshot.tree.num_nodes() as f64;
            let hub = hub_stats(lane, warehouse, &name)?;
            if hub.deltas_observed != commits
                || hub.flags_fanned != commits * ReadKind::ALL.len() as u64
            {
                lane.fail(format!("{name}: hub counted {hub:?} for {commits} commits"));
            }
            if let (Some(t), Some(mirror), Some(before)) = (&mut lane.tracer, &mirror, before) {
                mirror.finish(t);
                t.counters.hub += hub;
                let replayed = t.counters;
                if hub.windows_composed != replayed.windows_composed - before.windows_composed
                    || hub.view_maintains != replayed.maintain_calls - before.maintain_calls
                {
                    lane.fail(format!(
                        "{name}: hub {hub:?} disagrees with the replayed maintenance"
                    ));
                }
            }
            Some(hub)
        })?;
        Some(LifeOut {
            index: i,
            checksum,
            final_nodes,
            hub,
        })
    }

    fn whatif_life(
        &self,
        lane: &mut Lane,
        i: usize,
        warehouse: &Warehouse,
        trunk: &ProbTree,
        life: &WhatifLife,
    ) -> Option<LifeOut> {
        let name = name_of(self.plan, i);
        let registered = self.register(lane, i, warehouse)?;
        let query: &dyn Query = &*self.query;
        let updates = UpdateEngine::new();
        // The verification reference: the trunk as an independently
        // built document, and its canonical answers.
        let (reference, reference_answers) = lane.paused(|_| {
            let reference = Document::new(trunk.clone());
            let answers = canonical_answers(&reference.snapshot(), query);
            (reference, answers)
        });
        let mirror = lane
            .tracer
            .as_mut()
            .map(|t| trace::MirrorDoc::new(t, registered, trunk));
        let mut checksum = 0.0;
        let mut final_nodes = 0.0;
        let mut hub = HubStats::default();
        for (j, script) in life.scenarios.iter().enumerate() {
            let branch = format!("{name}.s{j}");
            let start = Instant::now();
            let result = warehouse.branch(&name, &branch);
            let dur = start.elapsed();
            lane.op("branch", result)?;
            lane.branch.push(ns(dur));
            let mut round_ns = ns(dur);
            let mut fork = None;
            if let (Some(t), Some(mirror)) = (&mut lane.tracer, &mirror) {
                let span = t.rec.server(Name::ServerBranch, start, dur);
                fork = Some(trace::replay_branch(t, span, &mirror.doc));
            }
            for update in script.steps() {
                let start = Instant::now();
                let result = warehouse.commit(&branch, update);
                let dur = start.elapsed();
                let delta = lane.op("commit", result)?;
                lane.committed(update, dur);
                round_ns += ns(dur);
                if let (Some(t), Some(fork)) = (&mut lane.tracer, &mut fork) {
                    let span = t.rec.server(Name::ServerCommit, start, dur);
                    let replayed = fork.commit(t, span, update, 0);
                    if !trace::same_delta(&delta, &replayed) {
                        lane.fail(format!("{branch}: commit counts differ from the replay"));
                    }
                }
            }
            let start = Instant::now();
            let result = warehouse.diff(&name, &branch, query);
            let dur = start.elapsed();
            let diff = lane.op("diff", result)?;
            lane.read.push(ns(dur));
            lane.first_read.push(ns(dur));
            round_ns += ns(dur);
            lane.round.push(round_ns);
            checksum += diff_scalar(&diff);
            if let (Some(t), Some(mirror), Some(fork)) = (&mut lane.tracer, &mirror, &fork) {
                let span = t.rec.server(Name::ServerDiff, start, dur);
                trace::replay_diff(t, span, &mirror.doc, &fork.doc);
            }
            let steps = script.len() as u64;
            let scenario_hub = lane.paused(|lane| {
                let mut independent = reference.fork();
                for update in script.steps() {
                    updates.apply_doc(&mut independent, update);
                }
                let answers = canonical_answers(&independent.snapshot(), query);
                if !diff_agrees(&diff, &reference_answers, &answers) {
                    lane.fail(format!(
                        "{branch}: diff disagrees with an independently built document"
                    ));
                }
                let pinned = pin_snapshot(lane, warehouse, &branch)?;
                if pinned.epoch != steps
                    || pinned.tree.num_nodes() != independent.tree().num_nodes()
                {
                    lane.fail(format!(
                        "{branch}: branch state disagrees with the independent document"
                    ));
                }
                final_nodes += pinned.tree.num_nodes() as f64;
                let hub = hub_stats(lane, warehouse, &branch)?;
                if hub.deltas_observed != steps || hub.flags_fanned != 0 {
                    lane.fail(format!("{branch}: hub counted {hub:?} for {steps} commits"));
                }
                if let (Some(t), Some(fork)) = (&mut lane.tracer, &fork) {
                    t.counters.final_doc(fork.doc.tree());
                    t.counters.hub += hub;
                }
                Some(hub)
            })?;
            hub += scenario_hub;
        }
        Some(LifeOut {
            index: i,
            checksum,
            final_nodes: final_nodes / life.scenarios.len() as f64,
            hub,
        })
    }
}

/// `Warehouse::snapshot` for verification, traced as a root span.
fn pin_snapshot(
    lane: &mut Lane,
    warehouse: &Warehouse,
    name: &str,
) -> Option<pxml_server::Snapshot> {
    let start = Instant::now();
    let result = warehouse.snapshot(name);
    let dur = start.elapsed();
    if let Some(t) = &mut lane.tracer {
        t.rec.server(Name::ServerSnapshot, start, dur);
    }
    result
        .map_err(|error| lane.fail(format!("snapshot: {error}")))
        .ok()
}

/// `Warehouse::hub_stats` for verification.
fn hub_stats(lane: &mut Lane, warehouse: &Warehouse, name: &str) -> Option<HubStats> {
    warehouse
        .hub_stats(name)
        .map_err(|error| lane.fail(format!("hub_stats: {error}")))
        .ok()
}

/// Runs `lanes` closed-loop lanes over `plan`, starting from the set-up
/// warehouse `first` (generation 0, already registered).
pub fn run(plan: &Plan, first: Warehouse, lanes: usize, stop: Stop, trace: bool) -> Outcome {
    let run = Run {
        plan,
        query: Arc::new(services_with_endpoint_and_contact()),
        stop,
        trace,
        base: Instant::now(),
        next: AtomicUsize::new(0),
        generations: Mutex::new(BTreeMap::from([(0, (Arc::new(first), plan.generation))])),
    };
    let lanes = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..lanes as u32)
            .map(|lane| {
                let run = &run;
                scope.spawn(move || run.lane(lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("lane panicked"))
            .collect()
    });
    Outcome { lanes }
}
