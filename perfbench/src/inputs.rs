//! Seeded inputs of the three workloads.
//!
//! Everything here is a pure function of the workload seed: the same seed
//! gives the same generator configurations, systems and edit scripts, and
//! the program only ever receives the generated systems.

use cpg::{ProcessId, SystemEdit};
use cpg_arch::{PeId, Time};
use cpg_gen::{paper_suite, ExecTimeDistribution, GeneratedSystem, GeneratorConfig};

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Section 6 mix, one fresh merge per op.
    Fig6Suite,
    /// Deep condition nests on a narrow architecture, one fresh merge per op.
    DeepNest,
    /// One edit plus a warm `MergeSession::merge` per op.
    EditLoop,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [Workload::Fig6Suite, Workload::DeepNest, Workload::EditLoop];

    /// The workload's name on the command line and in reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6Suite => "fig6_suite",
            Workload::DeepNest => "deep_nest",
            Workload::EditLoop => "edit_loop",
        }
    }

    /// The workload with the given name.
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Separates the workloads' random streams for equal seeds.
    fn stream(self) -> u64 {
        match self {
            Workload::Fig6Suite => 0xF166,
            Workload::DeepNest => 0xDEE9,
            Workload::EditLoop => 0xED17,
        }
    }
}

/// Systems per run of `fig6_suite`; a round over them takes about two
/// seconds at the default configuration on two cores.
pub const FIG6_SYSTEMS: usize = 600;
/// Graphs per node count of `fig6_suite` whose `paper_suite` index is below
/// this keep the paper suite's own seed, so every seed of the workload
/// measures the same fixed share of the suite, including the two systems
/// the known overlap defect was first found on.
pub const FIG6_FIXED_PER_SIZE: usize = 32;
/// Systems per run of `deep_nest`; a round takes about three seconds.
pub const DEEP_NEST_SYSTEMS: usize = 560;
/// Sessions per run of `edit_loop`; a round takes about three seconds.
pub const EDIT_SESSIONS: usize = 120;
/// Forward edits per session; each is undone again, in reverse order, so a
/// session's script is a closed cycle of twice this many ops.
pub const EDITS_PER_CYCLE: usize = 3;
/// Size of an execution-time edit, as in the repository's design-space
/// exploration example: a WCET tweak of two time units.
pub const EXEC_TIME_STEP: u64 = 2;

/// Path counts of `deep_nest`: the generator realises each with one
/// ordinary process per path.
const DEEP_NEST_PATHS: [usize; 7] = [32, 36, 40, 48, 54, 60, 64];
/// Path counts of the `edit_loop` systems (the same family, 16–32 paths).
const EDIT_LOOP_PATHS: [usize; 6] = [16, 18, 24, 27, 30, 32];
/// One forward edit in this many moves a process to another processor (when
/// the system has two); the rest change an execution time. An assumption:
/// no caller in the repository moves processes, so the share is a guess.
const MAPPING_EDIT_ONE_IN: usize = 5;

/// SplitMix64: a small seeded generator, so the inputs do not depend on the
/// program's own random-number code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream of `workload` under `seed`.
    #[must_use]
    pub fn new(seed: u64, workload: Workload) -> Self {
        Rng(seed ^ workload.stream().wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        assert!(n > 0, "empty range");
        (self.next_u64() % n as u64) as usize
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Generator configurations of a fresh-merge workload, in op order.
///
/// # Panics
///
/// Panics for [`Workload::EditLoop`], whose inputs are [`edit_sessions`].
#[must_use]
pub fn fresh_configs(workload: Workload, seed: u64) -> Vec<GeneratorConfig> {
    let mut rng = Rng::new(seed, workload);
    match workload {
        Workload::Fig6Suite => {
            // The paper suite's shapes (sizes × path counts × architectures ×
            // distributions), in seeded order. A fixed share keeps the
            // suite's own graphs; the rest get seeded ones.
            let per_size = FIG6_SYSTEMS / 3;
            let mut configs: Vec<GeneratorConfig> = paper_suite(per_size)
                .into_iter()
                .enumerate()
                .map(|(k, config)| {
                    let seed = rng.next_u64();
                    if k % per_size < FIG6_FIXED_PER_SIZE {
                        config
                    } else {
                        config.with_seed(seed)
                    }
                })
                .collect();
            rng.shuffle(&mut configs);
            configs
        }
        Workload::DeepNest => (0..DEEP_NEST_SYSTEMS)
            .map(|i| deep_nest_config(&mut rng, &DEEP_NEST_PATHS, i))
            .collect(),
        Workload::EditLoop => panic!("edit_loop has sessions, not fresh merges"),
    }
}

/// The `i`-th deep condition nest: 1–1.5 ordinary processes per path, one
/// or two processors, one bus. Like `paper_suite`, the shape (path count,
/// processor count, distribution, processes per path) cycles with `i`, so
/// every seed gets the same mix of shapes; the graph itself is seeded.
fn deep_nest_config(rng: &mut Rng, paths: &[usize], i: usize) -> GeneratorConfig {
    let shape = i / paths.len();
    let paths = paths[i % paths.len()];
    let distribution = if (shape / 2).is_multiple_of(2) {
        ExecTimeDistribution::Uniform { min: 2, max: 20 }
    } else {
        ExecTimeDistribution::Exponential { mean: 10.0 }
    };
    // 1, 1.125, 1.25, 1.375 or 1.5 ordinary processes per path.
    let nodes = paths + paths * (shape / 4 % 5) / 8;
    GeneratorConfig::new(nodes, paths)
        .with_processors(1 + shape % 2)
        .with_buses(1)
        .with_distribution(distribution)
        .with_seed(rng.next_u64())
}

/// One `edit_loop` session: its initial system and its cyclic edit script.
#[derive(Debug)]
pub struct EditSession {
    /// The system the session starts from (and returns to after a cycle).
    pub system: GeneratedSystem,
    /// The cycle: forward edits, then their reverses in reverse order.
    pub script: Vec<SystemEdit>,
}

/// The `edit_loop` sessions of a seed; `generate_system` materialises the
/// `i`-th generator configuration (the traced run times it).
#[must_use]
pub fn edit_sessions(
    seed: u64,
    mut generate_system: impl FnMut(usize, &GeneratorConfig) -> GeneratedSystem,
) -> Vec<EditSession> {
    let mut rng = Rng::new(seed, Workload::EditLoop);
    (0..EDIT_SESSIONS)
        .map(|i| {
            let system = generate_system(i, &deep_nest_config(&mut rng, &EDIT_LOOP_PATHS, i));
            let script = edit_cycle(&system, &mut rng);
            EditSession { system, script }
        })
        .collect()
}

/// A closed edit cycle over `system`: [`EDITS_PER_CYCLE`] forward edits on
/// uniformly drawn targets, then their reverses in reverse order.
///
/// A forward edit adds [`EXEC_TIME_STEP`] to the execution time of an
/// ordinary or communication process, or (one edit in
/// [`MAPPING_EDIT_ONE_IN`], on systems with two processors) moves an
/// ordinary process to the other processor; each reverse is an edit of the
/// same kind and size. Closing the cycle keeps the edited systems in the
/// generated family however long a run lasts (open-ended `+2` steps would
/// let execution times drift with the run length), and it makes every round
/// replay the same sequence of systems, so later rounds can be checked
/// against the fully checked first round.
fn edit_cycle(system: &GeneratedSystem, rng: &mut Rng) -> Vec<SystemEdit> {
    let mut cpg = system.cpg().clone();
    let processors: Vec<PeId> = system.arch().processors().collect();
    let movable: Vec<ProcessId> = cpg
        .ordinary_processes()
        .filter(|&p| cpg.mapping(p).is_some_and(|pe| processors.contains(&pe)))
        .collect();
    let timed: Vec<ProcessId> = cpg
        .ordinary_processes()
        .chain(cpg.communication_processes())
        .collect();
    let mut forward = Vec::with_capacity(2 * EDITS_PER_CYCLE);
    let mut undo = Vec::with_capacity(EDITS_PER_CYCLE);
    for _ in 0..EDITS_PER_CYCLE {
        let move_process = rng.below(MAPPING_EDIT_ONE_IN) == 0;
        let (edit, reverse) = if move_process && processors.len() >= 2 && !movable.is_empty() {
            let process = movable[rng.below(movable.len())];
            let from = cpg.mapping(process).expect("movable processes are mapped");
            let others: Vec<PeId> = processors
                .iter()
                .copied()
                .filter(|&pe| pe != from)
                .collect();
            let to = others[rng.below(others.len())];
            (
                SystemEdit::Mapping { process, pe: to },
                SystemEdit::Mapping { process, pe: from },
            )
        } else {
            let process = timed[rng.below(timed.len())];
            let old = cpg.exec_time(process);
            (
                SystemEdit::ExecTime {
                    process,
                    time: old + Time::new(EXEC_TIME_STEP),
                },
                SystemEdit::ExecTime { process, time: old },
            )
        };
        edit.apply(&mut cpg)
            .expect("generated processes accept edits");
        forward.push(edit);
        undo.push(reverse);
    }
    forward.extend(undo.into_iter().rev());
    forward
}

/// How to regenerate one input outside the benchmark.
#[must_use]
pub fn describe(config: &GeneratorConfig) -> String {
    format!(
        "GeneratorConfig::new({}, {}).with_processors({}).with_buses({}).with_distribution({:?}).with_seed({:#x})",
        config.nodes(),
        config.target_paths(),
        config.processors(),
        config.buses(),
        config.distribution(),
        config.seed()
    )
}
