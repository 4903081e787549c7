//! The traced run: spans around every call into a layer, recorded from
//! the benchmark's own code.
//!
//! Each `Warehouse` operation of a lane is timed as a server span, then
//! replayed through the `pxml_core` calls the warehouse makes, on a
//! mirror document in the same lane: commits as
//! `UpdateEngine::stage_doc` → `Document::commit_staged`, view reads as
//! `Document::window_since` → `PreparedQuery::maintain_windowed` → the
//! selection, diffs as `QueryEngine::prepare` → `canonical_string`. Each
//! replayed call is a child span of its server span. Spans stay in memory
//! and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pxml_core::query::Query;
use pxml_core::update::ProbabilisticUpdate;
use pxml_core::{
    DeltaWindow, Document, Epoch, FallbackReason, MaintainOutcome, PreparedQuery, ProbTree,
    QueryEngine, UpdateDelta, UpdateEngine,
};
use pxml_events::Possibility;
use pxml_server::HubStats;
use pxml_tree::Semantics;

use crate::plan::{ReadKind, THRESHOLD, TOP_K};

/// The span names, one per layer boundary.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Name {
    ServerRegister,
    ServerCommit,
    ServerRead,
    ServerBranch,
    ServerDiff,
    ServerSnapshot,
    DocumentNew,
    DocumentFork,
    DocumentCommit,
    DocumentWindow,
    UpdateStage,
    QueryPrepare,
    QueryMaintain,
    SelectTopK,
    SelectAbove,
    SelectExpected,
    SelectPossible,
    TreeCanonical,
}

impl Name {
    pub fn label(self) -> &'static str {
        match self {
            Name::ServerRegister => "server.register",
            Name::ServerCommit => "server.commit",
            Name::ServerRead => "server.read",
            Name::ServerBranch => "server.branch",
            Name::ServerDiff => "server.diff",
            Name::ServerSnapshot => "server.snapshot",
            Name::DocumentNew => "document.new",
            Name::DocumentFork => "document.fork",
            Name::DocumentCommit => "document.commit",
            Name::DocumentWindow => "document.window",
            Name::UpdateStage => "update.stage",
            Name::QueryPrepare => "query.prepare",
            Name::QueryMaintain => "query.maintain",
            Name::SelectTopK => "query.select.top_k",
            Name::SelectAbove => "query.select.above",
            Name::SelectExpected => "query.select.expected",
            Name::SelectPossible => "query.select.possible",
            Name::TreeCanonical => "tree.canonical",
        }
    }

    /// A `Warehouse` call made by a lane's closed loop (the snapshot
    /// calls belong to answer verification, outside the loop).
    pub fn is_lane_op(self) -> bool {
        matches!(
            self,
            Name::ServerRegister
                | Name::ServerCommit
                | Name::ServerRead
                | Name::ServerBranch
                | Name::ServerDiff
        )
    }
}

/// No parent span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span. Spans of one server operation share `req`.
#[derive(Clone, Copy, Debug)]
pub struct SpanRec {
    pub name: Name,
    pub req: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The exact counters of a traced run, recorded at the same boundaries
/// as the spans. They depend only on the op log, so two traced runs of
/// one seed give equal counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    pub commits: u64,
    /// Commits times the views registered on the committed document.
    pub view_flags: u64,
    pub matches: u64,
    pub targets: u64,
    pub survivor_copies: u64,
    pub nodes_raw: u64,
    pub nodes_after: u64,
    pub nodes_inserted: u64,
    pub nodes_removed: u64,
    pub rewritten: u64,
    pub windows_composed: u64,
    pub maintain_calls: u64,
    pub maintain_patched: u64,
    /// Indexed like [`fallback_index`].
    pub fallbacks: [u64; 4],
    pub steps_patched: u64,
    pub answers_remapped: u64,
    pub unions_rebuilt: u64,
    pub unions_carried: u64,
    pub prepares: u64,
    pub answers: u64,
    pub distinct_conditions: u64,
    pub enumerated: u64,
    pub selected: u64,
    pub semiring_hits: u64,
    pub semiring_computed: u64,
    pub final_docs: u64,
    pub logical_nodes: u64,
    pub distinct_nodes: u64,
    /// The warehouse's own hub counters, summed over documents.
    pub hub: HubStats,
}

pub const FALLBACK_LABELS: [&str; 4] = [
    "spine_touched",
    "log_trimmed",
    "unbounded_footprint",
    "answer_displaced",
];

fn fallback_index(reason: FallbackReason) -> usize {
    match reason {
        FallbackReason::SpineTouched => 0,
        FallbackReason::LogTrimmed => 1,
        FallbackReason::UnboundedFootprint => 2,
        FallbackReason::AnswerDisplaced => 3,
    }
}

impl Counters {
    pub fn merge(&mut self, other: &Counters) {
        let Counters {
            commits,
            view_flags,
            matches,
            targets,
            survivor_copies,
            nodes_raw,
            nodes_after,
            nodes_inserted,
            nodes_removed,
            rewritten,
            windows_composed,
            maintain_calls,
            maintain_patched,
            fallbacks,
            steps_patched,
            answers_remapped,
            unions_rebuilt,
            unions_carried,
            prepares,
            answers,
            distinct_conditions,
            enumerated,
            selected,
            semiring_hits,
            semiring_computed,
            final_docs,
            logical_nodes,
            distinct_nodes,
            hub,
        } = *other;
        self.commits += commits;
        self.view_flags += view_flags;
        self.matches += matches;
        self.targets += targets;
        self.survivor_copies += survivor_copies;
        self.nodes_raw += nodes_raw;
        self.nodes_after += nodes_after;
        self.nodes_inserted += nodes_inserted;
        self.nodes_removed += nodes_removed;
        self.rewritten += rewritten;
        self.windows_composed += windows_composed;
        self.maintain_calls += maintain_calls;
        self.maintain_patched += maintain_patched;
        for (mine, theirs) in self.fallbacks.iter_mut().zip(fallbacks) {
            *mine += theirs;
        }
        self.steps_patched += steps_patched;
        self.answers_remapped += answers_remapped;
        self.unions_rebuilt += unions_rebuilt;
        self.unions_carried += unions_carried;
        self.prepares += prepares;
        self.answers += answers;
        self.distinct_conditions += distinct_conditions;
        self.enumerated += enumerated;
        self.selected += selected;
        self.semiring_hits += semiring_hits;
        self.semiring_computed += semiring_computed;
        self.final_docs += final_docs;
        self.logical_nodes += logical_nodes;
        self.distinct_nodes += distinct_nodes;
        self.hub += hub;
    }

    /// Counts a final document's representation cost.
    pub fn final_doc(&mut self, tree: &ProbTree) {
        let memory = tree.memory_stats();
        self.final_docs += 1;
        self.logical_nodes += memory.logical_nodes as u64;
        self.distinct_nodes += memory.distinct_nodes as u64;
    }
}

/// One lane's recorded spans.
pub struct Recorder {
    base: Instant,
    pub spans: Vec<SpanRec>,
    next_req: u32,
}

impl Recorder {
    fn push(&mut self, name: Name, req: u32, parent: u32, start: Instant, dur: Duration) -> u32 {
        self.spans.push(SpanRec {
            name,
            req,
            parent,
            start_ns: start.duration_since(self.base).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
        (self.spans.len() - 1) as u32
    }

    /// Records a timed `Warehouse` call as the root span of a new request.
    pub fn server(&mut self, name: Name, start: Instant, dur: Duration) -> u32 {
        let req = self.next_req;
        self.next_req += 1;
        self.push(name, req, ROOT, start, dur)
    }

    /// Times `f` as a child span of `parent` (or as the root span of a
    /// fresh request when `parent` is [`ROOT`]).
    pub fn child<T>(&mut self, parent: u32, name: Name, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let dur = start.elapsed();
        let req = if let Some(span) = self.spans.get(parent as usize) {
            span.req
        } else {
            self.next_req += 1;
            self.next_req - 1
        };
        self.push(name, req, parent, start, dur);
        out
    }
}

/// One lane's spans and counters, plus the engines the replay calls.
pub struct Tracer {
    pub lane: u32,
    pub rec: Recorder,
    pub counters: Counters,
    updates: UpdateEngine,
    queries: QueryEngine,
    query: Arc<dyn Query>,
}

impl Tracer {
    pub fn new(base: Instant, lane: u32, query: Arc<dyn Query>) -> Tracer {
        Tracer {
            lane,
            rec: Recorder {
                base,
                spans: Vec::new(),
                next_req: 0,
            },
            counters: Counters::default(),
            updates: UpdateEngine::new(),
            queries: QueryEngine::new(),
            query,
        }
    }

    fn prepare_counts(&mut self, prepared: &PreparedQuery<'_>) {
        self.counters.prepares += 1;
        self.counters.answers += prepared.len() as u64;
        self.counters.distinct_conditions += prepared.num_distinct_conditions() as u64;
    }
}

/// A mirror document: commits replayed through the staged engine path.
pub struct MirrorDoc {
    pub doc: Document,
}

impl MirrorDoc {
    pub fn new(t: &mut Tracer, parent: u32, tree: &ProbTree) -> MirrorDoc {
        let tree = tree.clone();
        MirrorDoc {
            doc: t
                .rec
                .child(parent, Name::DocumentNew, || Document::new(tree)),
        }
    }

    /// Replays `Warehouse::commit`: stage, then commit the staged step.
    pub fn commit(
        &mut self,
        t: &mut Tracer,
        parent: u32,
        update: &ProbabilisticUpdate,
        views: usize,
    ) -> Arc<UpdateDelta> {
        let staged = t.rec.child(parent, Name::UpdateStage, || {
            t.updates.stage_doc(&self.doc, update)
        });
        let doc = &mut self.doc;
        let delta = t
            .rec
            .child(parent, Name::DocumentCommit, || doc.commit_staged(staged))
            .expect("the mirror is staged and committed by one lane");
        let c = &mut t.counters;
        c.commits += 1;
        c.view_flags += views as u64;
        c.matches += delta.report.matches as u64;
        c.targets += delta.report.targets as u64;
        c.survivor_copies += delta.report.survivor_copies as u64;
        c.nodes_raw += delta.report.nodes_raw as u64;
        c.nodes_after += delta.report.nodes_after as u64;
        c.nodes_inserted += delta.nodes_inserted as u64;
        c.nodes_removed += delta.nodes_removed as u64;
        c.rewritten += delta.rewritten.len() as u64;
        delta
    }
}

/// `true` when two deltas of the same step agree on every count.
pub fn same_delta(a: &UpdateDelta, b: &UpdateDelta) -> bool {
    let (ra, rb) = (&a.report, &b.report);
    a.epoch == b.epoch
        && a.nodes_inserted == b.nodes_inserted
        && a.nodes_removed == b.nodes_removed
        && a.rewritten.len() == b.rewritten.len()
        && ra.matches == rb.matches
        && ra.targets == rb.targets
        && ra.survivor_copies == rb.survivor_copies
        && ra.nodes_raw == rb.nodes_raw
        && ra.nodes_after == rb.nodes_after
}

/// A mirror of one document with its four hub views, maintained the way
/// the warehouse's maintenance hub does it: lazily on read, through one
/// composed window per pending span.
pub struct DocMirror {
    pub doc: MirrorDoc,
    views: Vec<PreparedQuery<'static>>,
    window: Option<(Epoch, Epoch, Arc<DeltaWindow>)>,
}

impl DocMirror {
    pub fn new(t: &mut Tracer, parent: u32, skeleton: &ProbTree) -> DocMirror {
        let doc = MirrorDoc::new(t, parent, skeleton);
        let views = ReadKind::ALL
            .iter()
            .map(|_| {
                let query = Arc::clone(&t.query);
                let prepared = t.rec.child(parent, Name::QueryPrepare, || {
                    t.queries.prepare_doc_shared(&doc.doc, query)
                });
                t.prepare_counts(&prepared);
                prepared
            })
            .collect();
        DocMirror {
            doc,
            views,
            window: None,
        }
    }

    pub fn commit(
        &mut self,
        t: &mut Tracer,
        parent: u32,
        update: &ProbabilisticUpdate,
    ) -> Arc<UpdateDelta> {
        self.doc.commit(t, parent, update, self.views.len())
    }

    /// Replays one view read: bring the view current, then select.
    pub fn read(&mut self, t: &mut Tracer, parent: u32, kind: ReadKind) {
        let doc = &self.doc.doc;
        let prepared = &mut self.views[kind as usize];
        let (_, from) = prepared
            .document_stamp()
            .expect("mirror views are document-backed");
        if from != doc.epoch() {
            let to = doc.epoch();
            let cached = self
                .window
                .as_ref()
                .filter(|(f, e, _)| *f == from && *e == to)
                .map(|(_, _, window)| Arc::clone(window));
            let window = cached.or_else(|| {
                let composed = t
                    .rec
                    .child(parent, Name::DocumentWindow, || doc.window_since(from))?;
                let window = Arc::new(composed);
                t.counters.windows_composed += 1;
                self.window = Some((from, to, Arc::clone(&window)));
                Some(window)
            });
            let outcome = t
                .rec
                .child(parent, Name::QueryMaintain, || match &window {
                    Some(window) => prepared.maintain_windowed(doc, window),
                    None => prepared.maintain(doc),
                })
                .expect("mirror views are prepared against the mirror");
            t.counters.maintain_calls += 1;
            match outcome {
                MaintainOutcome::Patched { .. } => t.counters.maintain_patched += 1,
                MaintainOutcome::Fallback { reason } => {
                    t.counters.fallbacks[fallback_index(reason)] += 1;
                }
                MaintainOutcome::UpToDate => {}
            }
        }
        let prepared = &*prepared;
        let stats = match kind {
            ReadKind::TopK => Some(
                t.rec
                    .child(parent, Name::SelectTopK, || prepared.top_k(TOP_K))
                    .stats(),
            ),
            ReadKind::Above => Some(
                t.rec
                    .child(parent, Name::SelectAbove, || prepared.above(THRESHOLD))
                    .stats(),
            ),
            ReadKind::Expected => {
                std::hint::black_box(
                    t.rec
                        .child(parent, Name::SelectExpected, || prepared.expected_matches()),
                );
                None
            }
            ReadKind::Possible => {
                std::hint::black_box(t.rec.child(parent, Name::SelectPossible, || {
                    prepared
                        .answers_in_cached(&Possibility)
                        .into_iter()
                        .filter(|(_, possible)| *possible)
                        .count()
                }));
                None
            }
        };
        if let Some(stats) = stats {
            t.counters.enumerated += stats.enumerated;
            t.counters.selected += stats.selected as u64;
        }
    }

    /// Adds the views' cumulative maintenance and semiring-cache counters.
    pub fn finish(&self, t: &mut Tracer) {
        for view in &self.views {
            let maint = view.maintenance_stats();
            let c = &mut t.counters;
            c.steps_patched += maint.steps_patched as u64;
            c.answers_remapped += maint.answers_remapped as u64;
            c.unions_rebuilt += maint.unions_rebuilt as u64;
            c.unions_carried += maint.unions_carried as u64;
            let caches = view.semiring_cache_stats();
            c.semiring_hits += caches.hits;
            c.semiring_computed += caches.computed;
        }
        t.counters.final_doc(self.doc.doc.tree());
    }
}

/// Replays `Warehouse::diff`: a fresh prepare of each side, then the
/// canonical string of every answer.
pub fn replay_diff(t: &mut Tracer, parent: u32, left: &Document, right: &Document) {
    for doc in [left, right] {
        let snapshot = doc.snapshot();
        let query = Arc::clone(&t.query);
        let prepared = t.rec.child(parent, Name::QueryPrepare, || {
            t.queries.prepare(&snapshot, &*query)
        });
        t.prepare_counts(&prepared);
        let strings = t.rec.child(parent, Name::TreeCanonical, || {
            (0..prepared.len())
                .map(|index| {
                    prepared
                        .subtree(index)
                        .canonical_string(snapshot.tree(), Semantics::MultiSet)
                })
                .collect::<Vec<_>>()
        });
        std::hint::black_box(strings);
    }
}

/// Replays `Warehouse::branch`.
pub fn replay_branch(t: &mut Tracer, parent: u32, trunk: &Document) -> MirrorDoc {
    MirrorDoc {
        doc: t.rec.child(parent, Name::DocumentFork, || trunk.fork()),
    }
}

/// Busy time of one span name: total, call count and the median call.
#[derive(Clone, Copy, Debug, Default)]
pub struct Busy {
    pub total_ns: u64,
    pub calls: u64,
    pub p50_ns: u64,
}

/// Per-name busy times over the spans of every lane.
pub fn busy(tracers: &[&Tracer]) -> BTreeMap<Name, Busy> {
    let mut durations: BTreeMap<Name, Vec<u64>> = BTreeMap::new();
    for span in tracers.iter().flat_map(|t| &t.rec.spans) {
        durations.entry(span.name).or_default().push(span.dur_ns);
    }
    durations
        .into_iter()
        .map(|(name, mut ds)| {
            ds.sort_unstable();
            let busy = Busy {
                total_ns: ds.iter().sum(),
                calls: ds.len() as u64,
                p50_ns: crate::report::percentile(&ds, 50.0),
            };
            (name, busy)
        })
        .collect()
}

/// Time of the server spans of `name` minus their replayed children.
pub fn self_time_ns(tracers: &[&Tracer], name: Name) -> i64 {
    let mut total = 0i64;
    for t in tracers {
        for span in &t.rec.spans {
            if span.name == name {
                total += span.dur_ns as i64;
            } else if let Some(parent) = t.rec.spans.get(span.parent as usize) {
                if parent.name == name {
                    total -= span.dur_ns as i64;
                }
            }
        }
    }
    total
}

/// Writes every span as one tab-separated line:
/// `lane req span parent name start_ns dur_ns`.
pub fn write_spans(path: &std::path::Path, tracers: &[&Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "lane\treq\tspan\tparent\tname\tstart_ns\tdur_ns")?;
    for t in tracers {
        for (index, span) in t.rec.spans.iter().enumerate() {
            let parent = if span.parent == ROOT {
                "-".to_owned()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}\t{}",
                t.lane,
                span.req,
                index,
                parent,
                span.name.label(),
                span.start_ns,
                span.dur_ns
            )?;
        }
    }
    out.flush()
}
