//! The warehouse benchmark.
//!
//! Drives the `pxml_server::Warehouse` public API from one process with
//! two closed-loop client lanes: an extractor waits for its commit, an
//! application waits for its answer. Three workloads stress different
//! layers (see `design.json` for their shapes, why each was chosen, and
//! which layer metric should move which end-to-end metric):
//!
//! * `ingest` — wide, shallow documents; commit-dominated;
//! * `serve` — narrow, deep documents; read-dominated;
//! * `whatif` — `branch` → a mostly-retraction script → `diff`.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve --seed 1 --seconds 10 --trace 0
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --selftest
//! ```
//!
//! `--trace 0` measures for `--seconds` seconds of lane time (and at
//! least enough lifetimes for every reported percentile) and reports the
//! end-to-end metrics. `--trace 1` runs the counted block twice, untraced
//! and traced, and reports the per-layer breakdown and the tracing
//! overhead; its spans are written to `perfbench/traces/`. The last line
//! of standard output is the result as one JSON object. Every served
//! answer is verified outside the timed region; any failure makes the
//! command exit with status 1.

mod lanes;
mod plan;
mod report;
mod trace;

use std::process::ExitCode;
use std::time::Instant;

use lanes::{Outcome, Stop};
use plan::{Plan, Workload};
use report::{median, percentile, Metrics};
use trace::{Busy, Counters, Name, FALLBACK_LABELS};

/// Client lanes (the machine the benchmark was designed on has 2 cores).
const LANES: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: perfbench --workload <ingest|serve|whatif> --seed <n> --seconds <s> --trace <0|1>\n       perfbench --selftest".to_owned()
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        if flag == "--selftest" {
            return Ok(None);
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad(()))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad(()))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |what: &str| format!("missing {what}");
    Ok(Some(Args {
        workload: workload.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    }))
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            return if selftest() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(message) => {
            eprintln!("{message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let (metrics, attempted, failed) = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    println!("{}", metrics.table());
    let correct = failed == 0;
    println!("{}", metrics.result_line(correct, attempted, failed));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Builds the plan and the first generation `SETUP_REPS` times; returns
/// the median set-up time and the last set-up.
fn setup(workload: Workload, seed: u64) -> (f64, Plan, pxml_server::Warehouse) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let start = Instant::now();
        let plan = plan::build(workload, seed);
        let first =
            lanes::first_generation(&plan).expect("set-up registers into a fresh warehouse");
        times.push(start.elapsed().as_secs_f64());
        last = Some((plan, first));
    }
    let (plan, first) = last.expect("at least one set-up");
    (median(&mut times), plan, first)
}

/// One untimed lifetime per lane before measuring, so the heap is faulted
/// in and the cores are busy when the clock starts.
fn warm_up(plan: &Plan) {
    let first = lanes::first_generation(plan).expect("set-up registers into a fresh warehouse");
    lanes::run(plan, first, LANES, Stop::Lifetimes(LANES), false);
}

fn print_failures(outcome: &Outcome) {
    for failure in outcome.failures() {
        println!("FAILED: {failure}");
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn untraced(args: &Args) -> (Metrics, u64, u64) {
    // Warm up before timing the set-ups too: in a cold process the first
    // milliseconds run slower, and a set-up lasts only milliseconds.
    warm_up(&plan::build(args.workload, args.seed));
    let (setup_s, plan, first) = setup(args.workload, args.seed);
    let stop = Stop::Seconds {
        seconds: args.seconds,
        min: args.workload.min_lifetimes(),
    };
    let outcome = lanes::run(&plan, first, LANES, stop, false);
    let peak = report::peak_rss_mib().unwrap_or(0.0);
    let (commits, reads, first_reads, rounds) = (
        outcome.commits(),
        outcome.reads(),
        outcome.first_reads(),
        outcome.rounds(),
    );
    let lives = outcome.lives();
    let min = args.workload.min_lifetimes();
    let counted: Vec<f64> = lives
        .iter()
        .filter(|l| l.index < min)
        .map(|l| l.final_nodes)
        .collect();
    let final_nodes = counted.iter().sum::<f64>() / counted.len().max(1) as f64;

    println!(
        "workload {} seed {}: {} lanes, {} lifetimes, {} ops",
        args.workload.name(),
        args.seed,
        LANES,
        lives.len(),
        outcome.lanes.iter().map(lanes::Lane::ops).sum::<u64>()
    );
    for (class, samples) in [
        ("commit", &commits),
        ("read", &reads),
        ("first_read", &first_reads),
        ("round", &rounds),
        ("branch", &outcome.branches()),
    ] {
        println!("  samples {class:<10} {}", samples.len());
    }
    for (kind, deletions) in [("insert", false), ("delete", true)] {
        let commits = outcome.commits_of(deletions);
        println!(
            "  commit {kind:<12} n {:>7}  p50 {:>10.1} us  p99 {:>10.1} us",
            commits.len(),
            us(percentile(&commits, 50.0)),
            us(percentile(&commits, 99.0))
        );
    }
    for kind in plan::ReadKind::ALL {
        let reads = outcome.reads_of(kind);
        if !reads.is_empty() {
            println!(
                "  read {:<14} n {:>7}  p50 {:>10.1} us  p99 {:>10.1} us",
                kind.view(),
                reads.len(),
                us(percentile(&reads, 50.0)),
                us(percentile(&reads, 99.0))
            );
        }
    }
    print_failures(&outcome);

    let mut m = Metrics::default();
    m.put("setup_s", setup_s, "s");
    m.put("commit_p50_us", us(percentile(&commits, 50.0)), "us");
    m.put("commit_p99_us", us(percentile(&commits, 99.0)), "us");
    m.put("read_p50_us", us(percentile(&reads, 50.0)), "us");
    m.put("read_p99_us", us(percentile(&reads, 99.0)), "us");
    m.put(
        "first_read_p50_us",
        us(percentile(&first_reads, 50.0)),
        "us",
    );
    m.put("round_p50_us", us(percentile(&rounds, 50.0)), "us");
    m.put("round_p90_us", us(percentile(&rounds, 90.0)), "us");
    m.put("ops_per_s", outcome.ops_per_s(), "ops/s");
    m.put("peak_rss_mb", peak, "MiB");
    m.put("final_doc_nodes", final_nodes, "nodes");
    (m, outcome.attempted(), outcome.failed())
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

fn traced(args: &Args) -> (Metrics, u64, u64) {
    let block = args.workload.block();
    let plan = plan::build(args.workload, args.seed);
    let first = |plan: &Plan| {
        lanes::first_generation(plan).expect("set-up registers into a fresh warehouse")
    };
    warm_up(&plan);
    let plain = lanes::run(&plan, first(&plan), LANES, Stop::Lifetimes(block), false);
    let traced = lanes::run(&plan, first(&plan), LANES, Stop::Lifetimes(block), true);
    print_failures(&plain);
    print_failures(&traced);
    let mut failed = plain.failed() + traced.failed();

    let tracers = traced.tracers();
    let mut c = Counters::default();
    for t in &tracers {
        c.merge(&t.counters);
    }
    // The exact-counter identities.
    let checks = [
        (
            "hub.deltas_observed = commits",
            c.hub.deltas_observed == c.commits,
        ),
        (
            "hub.flags_fanned = commits x views",
            c.hub.flags_fanned == c.view_flags,
        ),
        (
            "hub.windows_composed = replayed windows",
            c.hub.windows_composed == c.windows_composed,
        ),
        (
            "hub.view_maintains = replayed maintains",
            c.hub.view_maintains == c.maintain_calls,
        ),
        (
            "traced checksum = untraced checksum",
            plain.checksum(block).to_bits() == traced.checksum(block).to_bits(),
        ),
    ];
    for (identity, holds) in checks {
        if !holds {
            println!("FAILED: {identity}");
            failed += 1;
        }
    }

    let busy = trace::busy(&tracers);
    let b = |name: Name| busy.get(&name).copied().unwrap_or_default();
    let lane_busy: u64 = busy
        .iter()
        .filter(|(n, _)| n.is_lane_op())
        .map(|(_, b)| b.total_ns)
        .sum();
    let total = |names: &[Name]| names.iter().map(|&n| b(n).total_ns).sum::<u64>() as f64;
    let share = |names: &[Name]| ratio(total(names), lane_busy as f64);
    let self_us = |name: Name| trace::self_time_ns(&tracers, name) as f64 / 1e3;
    let selections = [
        Name::SelectTopK,
        Name::SelectAbove,
        Name::SelectExpected,
        Name::SelectPossible,
    ];

    let mut m = Metrics::default();
    let busy_metrics = |m: &mut Metrics, prefix: &str, busy: Busy| {
        m.put(format!("{prefix}.busy_us"), us(busy.total_ns), "us");
        m.put(format!("{prefix}.p50_us"), us(busy.p50_ns), "us");
        m.put(format!("{prefix}.calls"), busy.calls as f64, "count");
    };
    m.put("lane.busy_us", us(lane_busy), "us");
    // server.warehouse
    m.put(
        "server.commit.busy_us",
        us(b(Name::ServerCommit).total_ns),
        "us",
    );
    m.put("server.commit.self_us", self_us(Name::ServerCommit), "us");
    m.put(
        "server.read.busy_us",
        us(b(Name::ServerRead).total_ns),
        "us",
    );
    m.put("server.read.self_us", self_us(Name::ServerRead), "us");
    m.put(
        "server.snapshot.p50_ns",
        b(Name::ServerSnapshot).p50_ns as f64,
        "ns",
    );
    m.put(
        "server.branch.p50_us",
        us(b(Name::ServerBranch).p50_ns),
        "us",
    );
    m.put(
        "server.diff.busy_us",
        us(b(Name::ServerDiff).total_ns),
        "us",
    );
    m.put("server.diff.self_us", self_us(Name::ServerDiff), "us");
    m.put(
        "server.register.busy_us",
        us(b(Name::ServerRegister).total_ns),
        "us",
    );
    // server.hub
    m.put("hub.deltas_observed", c.hub.deltas_observed as f64, "count");
    m.put("hub.flags_fanned", c.hub.flags_fanned as f64, "count");
    m.put(
        "hub.windows_composed",
        c.hub.windows_composed as f64,
        "count",
    );
    m.put("hub.view_maintains", c.hub.view_maintains as f64, "count");
    m.put(
        "hub.window_share",
        ratio(c.hub.view_maintains as f64, c.hub.windows_composed as f64),
        "ratio",
    );
    // core.update
    busy_metrics(&mut m, "update.stage", b(Name::UpdateStage));
    m.put("update.matches", c.matches as f64, "count");
    m.put("update.targets", c.targets as f64, "count");
    m.put("update.survivor_copies", c.survivor_copies as f64, "count");
    m.put("update.nodes_raw", c.nodes_raw as f64, "count");
    m.put("update.nodes_after", c.nodes_after as f64, "count");
    m.put(
        "update.simplify_savings",
        ratio(
            c.nodes_raw as f64 - c.nodes_after as f64,
            c.nodes_raw as f64,
        ),
        "ratio",
    );
    // core.document
    busy_metrics(&mut m, "document.commit", b(Name::DocumentCommit));
    m.put(
        "document.window.busy_us",
        us(b(Name::DocumentWindow).total_ns),
        "us",
    );
    m.put("document.nodes_inserted", c.nodes_inserted as f64, "count");
    m.put("document.nodes_removed", c.nodes_removed as f64, "count");
    m.put("document.rewritten", c.rewritten as f64, "count");
    m.put(
        "document.delta_fraction",
        ratio(
            (c.nodes_inserted + c.nodes_removed + c.rewritten) as f64,
            c.nodes_after as f64,
        ),
        "ratio",
    );
    // core.query maintenance
    busy_metrics(&mut m, "query.maintain", b(Name::QueryMaintain));
    m.put("query.steps_patched", c.steps_patched as f64, "count");
    for (label, count) in FALLBACK_LABELS.iter().zip(c.fallbacks) {
        m.put(format!("query.fallback.{label}"), count as f64, "count");
    }
    m.put("query.answers_remapped", c.answers_remapped as f64, "count");
    m.put("query.unions_rebuilt", c.unions_rebuilt as f64, "count");
    m.put("query.unions_carried", c.unions_carried as f64, "count");
    m.put(
        "query.maintain.patch_ratio",
        ratio(c.maintain_patched as f64, c.maintain_calls as f64),
        "ratio",
    );
    m.put(
        "query.union_carry_ratio",
        ratio(
            c.unions_carried as f64,
            (c.unions_carried + c.unions_rebuilt) as f64,
        ),
        "ratio",
    );
    // core.query prepare
    busy_metrics(&mut m, "query.prepare", b(Name::QueryPrepare));
    m.put("query.answers", c.answers as f64, "count");
    m.put(
        "query.distinct_conditions",
        c.distinct_conditions as f64,
        "count",
    );
    m.put(
        "query.conditions_per_answer",
        ratio(c.distinct_conditions as f64, c.answers as f64),
        "ratio",
    );
    // core.query selection
    for (name, label) in selections
        .iter()
        .zip(["top_k", "above", "expected", "possible"])
    {
        m.put(
            format!("query.select.{label}.busy_us"),
            us(b(*name).total_ns),
            "us",
        );
    }
    m.put(
        "query.select.calls",
        selections.iter().map(|&n| b(n).calls).sum::<u64>() as f64,
        "count",
    );
    m.put("query.select.enumerated", c.enumerated as f64, "count");
    m.put("query.select.selected", c.selected as f64, "count");
    m.put(
        "query.semiring_hit_ratio",
        ratio(
            c.semiring_hits as f64,
            (c.semiring_hits + c.semiring_computed) as f64,
        ),
        "ratio",
    );
    // tree
    busy_metrics(&mut m, "tree.canonical", b(Name::TreeCanonical));
    m.put(
        "tree.logical_nodes",
        ratio(c.logical_nodes as f64, c.final_docs as f64),
        "nodes",
    );
    m.put(
        "tree.distinct_nodes",
        ratio(c.distinct_nodes as f64, c.final_docs as f64),
        "nodes",
    );
    // Shares of lane busy time: the check that the workload stresses the
    // layer it was chosen for (design.json, shape_checks).
    let mut query_names = selections.to_vec();
    query_names.extend([Name::QueryMaintain, Name::QueryPrepare]);
    let update_document = share(&[Name::UpdateStage, Name::DocumentCommit]);
    let query = share(&query_names);
    let update = share(&[Name::UpdateStage]);
    let prepare_canonical = share(&[Name::QueryPrepare, Name::TreeCanonical]);
    println!(
        "shares of lane busy time: update+document {update_document:.3}, query {query:.3}, \
         update {update:.3}, prepare+canonical {prepare_canonical:.3}"
    );
    let (check, holds) = match args.workload {
        Workload::Ingest => ("update+document >= 0.70", update_document >= 0.70),
        Workload::Serve => ("query >= 0.50", query >= 0.50),
        Workload::Whatif => (
            "update >= 0.20 and prepare+canonical >= 0.20",
            update >= 0.20 && prepare_canonical >= 0.20,
        ),
    };
    println!(
        "shape check {check}: {}",
        if holds { "holds" } else { "MISSED" }
    );
    // Tracing overhead over the same block.
    m.put("trace.ops_per_s", traced.ops_per_s(), "ops/s");
    m.put("trace.untraced_ops_per_s", plain.ops_per_s(), "ops/s");
    m.put(
        "trace.overhead_ops_per_s",
        plain.ops_per_s() - traced.ops_per_s(),
        "ops/s",
    );

    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("traces")
        .join(format!("{}-seed{}.tsv", args.workload.name(), args.seed));
    match trace::write_spans(&path, &tracers) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(error) => println!("spans not written ({error})"),
    }
    (m, plain.attempted() + traced.attempted(), failed)
}

/// The self-test: E16 parity, op-log and checksum determinism, lane-count
/// independence, and exact counters across two traced runs.
fn selftest() -> bool {
    let mut ok = true;
    let mut check = |what: String, holds: bool| {
        println!("{} {what}", if holds { "ok  " } else { "FAIL" });
        ok &= holds;
    };

    let config = pxml_server::TrafficConfig::default();
    check(
        "E16 read parameters match the benchmark's".to_owned(),
        config.top_k == plan::TOP_K && config.threshold == plan::THRESHOLD,
    );
    let e16 = plan::e16();
    let tenants = config.tenants;
    let first = lanes::first_generation(&e16).expect("fresh warehouse");
    let ours = lanes::run(&e16, first, LANES, Stop::Lifetimes(tenants), false);
    let reference = pxml_server::run_traffic(&config);
    let checksum = ours.checksum(tenants);
    check(
        format!(
            "E16 parity: checksum {checksum:.6} = run_traffic {:.6} = 388.023727",
            reference.checksum
        ),
        checksum.to_bits() == reference.checksum.to_bits()
            && format!("{checksum:.6}") == "388.023727",
    );
    check(
        format!("E16 parity: HubStats {:?}", ours.hub(tenants)),
        ours.hub(tenants) == reference.hub && ours.failed() == 0,
    );

    for workload in Workload::ALL {
        let n = 2;
        let name = workload.name();
        let (a, b) = (plan::build(workload, 1), plan::build(workload, 1));
        let other = plan::build(workload, 2);
        check(
            format!(
                "{name}: same seed, same op-log hash {:016x}",
                a.op_log_hash(a.pool())
            ),
            a.op_log_hash(a.pool()) == b.op_log_hash(b.pool())
                && a.op_log_hash(a.pool()) != other.op_log_hash(other.pool()),
        );
        let run = |plan: &Plan, lanes: usize, trace: bool| {
            let first = lanes::first_generation(plan).expect("fresh warehouse");
            lanes::run(plan, first, lanes, Stop::Lifetimes(n), trace)
        };
        let (one, two, again) = (run(&a, 1, false), run(&a, 2, true), run(&b, 2, true));
        check(
            format!(
                "{name}: checksum {} equal across runs and 1 vs 2 lanes",
                two.checksum(n)
            ),
            one.checksum(n).to_bits() == two.checksum(n).to_bits()
                && two.checksum(n).to_bits() == again.checksum(n).to_bits(),
        );
        let counters = |outcome: &Outcome| {
            let mut c = Counters::default();
            for t in outcome.tracers() {
                c.merge(&t.counters);
            }
            c
        };
        check(
            format!("{name}: StepReport / UpdateDelta / hub counters repeat across traced runs"),
            counters(&two) == counters(&again) && counters(&two).commits > 0,
        );
        check(
            format!("{name}: no verification failures"),
            one.failed() + two.failed() + again.failed() == 0,
        );
    }
    ok
}
