//! Workloads and their seeded inputs.
//!
//! A run is a sequence of *lifetimes*, claimed in index order by the
//! lanes. Lifetime `i` uses entry `i % pool` of a pool generated from the
//! workload seed at set-up, so the op log depends only on the seed, and
//! the work of a lifetime does not depend on which lane runs it.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use pxml_core::update::UpdateScript;
use pxml_core::{ProbTree, UpdateEngine};
use pxml_workloads::warehouse::{scenario_script, skeleton, WarehouseConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Wide, shallow documents; commit-dominated.
    Ingest,
    /// Narrow, deep documents; read-dominated.
    Serve,
    /// Scenario branches of a pre-built trunk; retraction- and
    /// prepare-dominated.
    Whatif,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Ingest, Workload::Serve, Workload::Whatif];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::Serve => "serve",
            Workload::Whatif => "whatif",
        }
    }

    /// The lifetimes a traced run executes: the block whose counters
    /// repeat exactly per seed.
    pub fn block(self) -> usize {
        match self {
            Workload::Ingest => 16,
            Workload::Serve => 8,
            Workload::Whatif => 8,
        }
    }

    /// Lifetimes every untraced run completes however slow the machine:
    /// the block, and enough for 1000 commits and 1000 reads, so each
    /// reported percentile has at least ten samples beyond it. The
    /// `final_doc_nodes` metric is taken over exactly these.
    pub fn min_lifetimes(self) -> usize {
        let enough = match self {
            Workload::Ingest => 1000usize.div_ceil(INGEST_ROUNDS),
            Workload::Serve => 1000usize.div_ceil(SERVE_ROUNDS),
            Workload::Whatif => 1000usize.div_ceil(SCENARIOS_PER_TRUNK),
        };
        enough.max(self.block())
    }
}

/// The view reads of the E16 mix, one hub view each.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ReadKind {
    TopK,
    Above,
    Expected,
    Possible,
}

impl ReadKind {
    pub const ALL: [ReadKind; 4] = [
        ReadKind::TopK,
        ReadKind::Above,
        ReadKind::Expected,
        ReadKind::Possible,
    ];

    /// The name of the view serving this read (the E16 view names).
    pub fn view(self) -> &'static str {
        match self {
            ReadKind::TopK => "top",
            ReadKind::Above => "above",
            ReadKind::Expected => "expected",
            ReadKind::Possible => "possible",
        }
    }
}

/// `k` of the top-k read.
pub const TOP_K: usize = 3;
/// Threshold of the above-threshold read.
pub const THRESHOLD: f64 = 0.5;

/// One document lifetime: register a skeleton with the four views, then
/// commit the script, each commit followed by its round of reads.
pub struct DocLife {
    pub script: UpdateScript,
    /// `reads[round]`: the reads served after commit `round`.
    pub reads: Vec<Vec<ReadKind>>,
}

/// One what-if lifetime: register the trunk in a recycled warehouse, then
/// run one scenario per script (`branch` → commit the script → `diff`).
pub struct WhatifLife {
    pub trunk: usize,
    pub scenarios: Vec<UpdateScript>,
}

/// The generated inputs of a run.
pub enum Lives {
    Doc {
        skeleton: Box<ProbTree>,
        lives: Vec<DocLife>,
    },
    Whatif {
        trunks: Vec<ProbTree>,
        lives: Vec<WhatifLife>,
    },
}

/// Everything a run needs besides the program under test.
pub struct Plan {
    pub lives: Lives,
    /// Lifetimes sharing one warehouse before it is recycled (the
    /// warehouse has no document removal).
    pub generation: usize,
}

impl Plan {
    pub fn pool(&self) -> usize {
        match &self.lives {
            Lives::Doc { lives, .. } => lives.len(),
            Lives::Whatif { lives, .. } => lives.len(),
        }
    }

    /// A hash of the op log of lifetimes `0..lifetimes`: every update,
    /// read and trunk in order.
    pub fn op_log_hash(&self, lifetimes: usize) -> u64 {
        let mut hasher = DefaultHasher::new();
        for i in 0..lifetimes {
            match &self.lives {
                Lives::Doc { skeleton, lives } => {
                    skeleton.num_nodes().hash(&mut hasher);
                    let life = &lives[i % lives.len()];
                    for (update, reads) in life.script.steps().iter().zip(&life.reads) {
                        format!("{update:?}").hash(&mut hasher);
                        reads.hash(&mut hasher);
                    }
                }
                Lives::Whatif { trunks, lives } => {
                    let life = &lives[i % lives.len()];
                    let trunk = &trunks[life.trunk];
                    (trunk.num_nodes(), trunk.num_literals()).hash(&mut hasher);
                    for script in &life.scenarios {
                        for update in script.steps() {
                            format!("{update:?}").hash(&mut hasher);
                        }
                    }
                }
            }
        }
        hasher.finish()
    }
}

/// Lifetimes generated per run; lifetime `i` reuses entry `i % POOL`.
const POOL: usize = 64;

// Workload shapes (recorded in design.json).
const INGEST_SERVICES: usize = 128;
const INGEST_ROUNDS: usize = 32;
const SERVE_SERVICES: usize = 8;
const SERVE_ROUNDS: usize = 96;
const SERVE_READS: usize = 64;
const DOC_DELETION_RATIO: f64 = 0.25;
const TRUNK_SERVICES: usize = 32;
const TRUNK_ROUNDS: usize = 16;
const TRUNK_DELETION_RATIO: f64 = 0.1;
const TRUNKS: usize = 2;
/// The trunks are fixtures of the `whatif` shape, like the skeletons:
/// they come from this fixed seed (the workspace's bench seed), while the
/// run seed drives the scenario scripts. A trunk's answer count varies
/// with its script by a coefficient of variation of ~0.45, so seeded
/// trunks would make the workload's figures depend on which two trunks a
/// seed drew rather than on the program.
const TRUNK_SEED: u64 = 0x2007_0611;
const SCENARIOS_PER_TRUNK: usize = 16;
const SCENARIO_STEPS: usize = 3;
const SCENARIO_DELETION_RATIO: f64 = 0.8;

/// A well-mixed 64-bit stream seed for `(seed, stream, index)`
/// (splitmix64 finaliser), so neighbouring seeds share no inputs.
fn stream_seed(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB))
        .wrapping_add(0x2545_F491_4F6C_DD1D);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn script(services: usize, rounds: usize, deletion_ratio: f64, rng: &mut StdRng) -> UpdateScript {
    let config = WarehouseConfig {
        services,
        extraction_rounds: rounds,
        deletion_ratio,
    };
    scenario_script(&config, rng).0
}

/// The `serve` read round: first `expected`, then a weighted E16 mix
/// (top-k 40%, above / expected / possible 20% each).
fn serve_reads(rng: &mut StdRng) -> Vec<ReadKind> {
    let mut reads = Vec::with_capacity(SERVE_READS);
    reads.push(ReadKind::Expected);
    while reads.len() < SERVE_READS {
        reads.push(match rng.gen_range(0..5u32) {
            0 | 1 => ReadKind::TopK,
            2 => ReadKind::Above,
            3 => ReadKind::Expected,
            _ => ReadKind::Possible,
        });
    }
    reads
}

/// Builds the seeded inputs of `workload`.
pub fn build(workload: Workload, seed: u64) -> Plan {
    let stream = workload as u64;
    let rng = |i: usize| StdRng::seed_from_u64(stream_seed(seed, stream, i as u64));
    let lives = match workload {
        Workload::Ingest | Workload::Serve => {
            let (services, rounds) = match workload {
                Workload::Ingest => (INGEST_SERVICES, INGEST_ROUNDS),
                _ => (SERVE_SERVICES, SERVE_ROUNDS),
            };
            let lives = (0..POOL)
                .map(|i| {
                    let mut rng = rng(i);
                    let script = script(services, rounds, DOC_DELETION_RATIO, &mut rng);
                    let reads = (0..rounds)
                        .map(|_| match workload {
                            Workload::Ingest => vec![ReadKind::Expected],
                            _ => serve_reads(&mut rng),
                        })
                        .collect();
                    DocLife { script, reads }
                })
                .collect();
            Lives::Doc {
                skeleton: Box::new(skeleton(services)),
                lives,
            }
        }
        Workload::Whatif => {
            let engine = UpdateEngine::new();
            let trunks = (0..TRUNKS)
                .map(|t| {
                    let mut rng = StdRng::seed_from_u64(stream_seed(TRUNK_SEED, stream, t as u64));
                    let script =
                        script(TRUNK_SERVICES, TRUNK_ROUNDS, TRUNK_DELETION_RATIO, &mut rng);
                    engine.apply_script(&skeleton(TRUNK_SERVICES), &script).0
                })
                .collect();
            let lives = (0..POOL)
                .map(|i| {
                    let mut rng = rng(i);
                    WhatifLife {
                        trunk: i % TRUNKS,
                        scenarios: (0..SCENARIOS_PER_TRUNK)
                            .map(|_| {
                                script(
                                    TRUNK_SERVICES,
                                    SCENARIO_STEPS,
                                    SCENARIO_DELETION_RATIO,
                                    &mut rng,
                                )
                            })
                            .collect(),
                    }
                })
                .collect();
            Lives::Whatif { trunks, lives }
        }
    };
    Plan {
        lives,
        generation: 2,
    }
}

/// The E16 traffic mix of `pxml_server::TrafficConfig::default()`, as a
/// plan: tenant `t` is lifetime `t`, seeded `0x2007_0611 + t`, reading
/// kind `(t + round + read) % 4`. Used to prove the lanes
/// reproduce `run_traffic`.
pub fn e16() -> Plan {
    let config = pxml_server::TrafficConfig::default();
    let lives = (0..config.tenants)
        .map(|t| {
            let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(t as u64));
            let script = script(
                config.services,
                config.rounds,
                config.deletion_ratio,
                &mut rng,
            );
            let reads = (0..config.rounds)
                .map(|round| {
                    (0..config.reads_per_round)
                        .map(|read| ReadKind::ALL[(t + round + read) % ReadKind::ALL.len()])
                        .collect()
                })
                .collect();
            DocLife { script, reads }
        })
        .collect();
    Plan {
        lives: Lives::Doc {
            skeleton: Box::new(skeleton(config.services)),
            lives,
        },
        generation: config.tenants,
    }
}
