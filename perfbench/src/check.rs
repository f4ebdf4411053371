//! Independent checks of a merge's output.
//!
//! Every check reads the output through the public API of another crate
//! than the one that produced it: the table's own requirement 1–3 verifier,
//! the run-time simulator (requirement 4, input arrival, exclusive
//! resources, simulated delay), and plain arithmetic on the delays.
//!
//! A failed check is classified. One defect of the merge is known and left
//! standing: a table that reports `MergeOutcome::Realizable` with
//! `lock_slips = 0` while the simulator finds two jobs overlapping on an
//! exclusive resource (mostly a programmable processor, now and then a bus).
//! A failure with exactly that signature and nothing else is
//! [`Failure::KnownOverlap`]; every other failure is
//! [`Failure::Unexpected`], and a run with one is not correct.

use std::fmt;
use std::hash::Hasher as _;

use cpg::{Cpg, FrontierHasher, TrackSet};
use cpg_arch::{Architecture, PeId, Time};
use cpg_merge::{MergeOutcome, MergeResult};
use cpg_path_sched::Job;
use cpg_sim::{SimViolation, SimulationReport, Simulator};
use cpg_table::ScheduleTable;

/// Why an op failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Failure {
    /// The known defect and nothing else: overlaps on exclusive resources
    /// in a table reported realizable with no lock slips.
    KnownOverlap(String),
    /// Any other failure: a verifier or simulator violation of another kind,
    /// a wrong delay, a divergence between results that must be equal, a
    /// repeat that differs, a panic or an error.
    Unexpected(String),
}

impl Failure {
    /// Whether the failure is the known defect.
    #[must_use]
    pub fn is_known(&self) -> bool {
        matches!(self, Failure::KnownOverlap(_))
    }
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::KnownOverlap(message) => write!(f, "known overlap defect: {message}"),
            Failure::Unexpected(message) => f.write_str(message),
        }
    }
}

impl From<String> for Failure {
    fn from(message: String) -> Self {
        Failure::Unexpected(message)
    }
}

/// The parts of a merge output the checks read.
#[derive(Debug, Clone, Copy)]
pub struct Output<'a> {
    /// The schedule table.
    pub table: &'a ScheduleTable,
    /// The alternative paths the table must serve.
    pub tracks: &'a TrackSet,
    /// Claimed lower bound `δ_M`.
    pub delta_m: Time,
    /// Claimed worst-case delay `δ_max`.
    pub delta_max: Time,
    /// Claimed realizability.
    pub outcome: MergeOutcome,
    /// Activation times the merge counted as unrealizable.
    pub lock_slips: usize,
}

impl<'a> Output<'a> {
    /// The output of a merge.
    #[must_use]
    pub fn of(result: &'a MergeResult) -> Self {
        Output {
            table: result.table(),
            tracks: result.tracks(),
            delta_m: result.delta_m(),
            delta_max: result.delta_max(),
            outcome: result.outcome(),
            lock_slips: result.stats().lock_slips,
        }
    }
}

/// The system an output belongs to.
#[derive(Debug, Clone, Copy)]
pub struct System<'a> {
    /// The (expanded) graph.
    pub cpg: &'a Cpg,
    /// The architecture.
    pub arch: &'a Architecture,
    /// Condition broadcast time `τ0`.
    pub broadcast_time: Time,
}

/// Requirements 1–3, by the table's own verifier. Returns the first
/// violation.
///
/// # Errors
///
/// Describes the first violation found.
pub fn check_table(system: System<'_>, out: Output<'_>) -> Result<(), String> {
    match out.table.verify(system.cpg, out.tracks) {
        Ok(()) => Ok(()),
        Err(violations) => Err(format!(
            "table verify: {} ({} violations)",
            violations[0],
            violations.len()
        )),
    }
}

/// Executes the table once per alternative path.
#[must_use]
pub fn simulate(system: System<'_>, out: Output<'_>) -> Vec<SimulationReport> {
    Simulator::new(system.cpg, system.arch, out.table, system.broadcast_time).run_all(out.tracks)
}

/// Requirement 4, input arrival and exclusive resources on every path, the
/// simulated worst-case delay against `δ_max`, and `δ_max ≥ δ_M`.
///
/// # Errors
///
/// Describes the first violation found, classified as in [`classify`].
pub fn check_simulation(
    system: System<'_>,
    out: Output<'_>,
    reports: &[SimulationReport],
) -> Result<(), Failure> {
    let simulated = reports
        .iter()
        .map(SimulationReport::delay)
        .max()
        .unwrap_or(Time::ZERO);
    let violations: Vec<(&SimViolation, String)> = reports
        .iter()
        .flat_map(|report| {
            report.violations().iter().map(move |violation| {
                let path = format!(
                    "path {} ({} violations on it)",
                    system.cpg.display_cube(&report.label()),
                    report.violations().len()
                );
                (violation, path)
            })
        })
        .collect();
    classify(system.arch, out, simulated, &violations)
}

/// Judges an output from what the simulator saw: its violations, each with
/// the path it occurred on, and the simulated worst-case delay.
///
/// # Errors
///
/// Overlaps on exclusive resources (programmable processors and buses), and
/// nothing else, in an output that claims to be realizable with no lock
/// slips are the known defect; any other violation, a simulated delay other
/// than `δ_max`, or `δ_max < δ_M` is unexpected.
pub fn classify(
    arch: &Architecture,
    out: Output<'_>,
    simulated: Time,
    violations: &[(&SimViolation, String)],
) -> Result<(), Failure> {
    let overlap = |violation: &SimViolation| {
        matches!(violation,
            SimViolation::ResourceOverlap { pe, .. } if arch.is_exclusive(*pe))
    };
    let describe =
        |(violation, path): &(&SimViolation, String)| format!("simulator on {path}: {violation}");
    if let Some(other) = violations.iter().find(|(v, _)| !overlap(v)) {
        return Err(Failure::Unexpected(describe(other)));
    }
    if simulated != out.delta_max {
        return Err(Failure::Unexpected(format!(
            "simulated worst-case delay {simulated} differs from δ_max {}",
            out.delta_max
        )));
    }
    if out.delta_max < out.delta_m {
        return Err(Failure::Unexpected(format!(
            "δ_max {} is below the lower bound δ_M {}",
            out.delta_max, out.delta_m
        )));
    }
    match violations.first() {
        None => Ok(()),
        Some(overlap) if out.outcome == MergeOutcome::Realizable && out.lock_slips == 0 => {
            Err(Failure::KnownOverlap(describe(overlap)))
        }
        Some(overlap) => Err(Failure::Unexpected(format!(
            "{}; outcome {:?}, lock_slips {}",
            describe(overlap),
            out.outcome,
            out.lock_slips
        ))),
    }
}

/// Every check, in order; returns the first violation.
///
/// # Errors
///
/// Describes the first violation found, classified as in
/// [`check_simulation`]; a verifier violation is unexpected.
pub fn check_output(system: System<'_>, out: Output<'_>) -> Result<(), Failure> {
    check_table(system, out)?;
    check_simulation(system, out, &simulate(system, out))
}

/// The worst of several verdicts: the first unexpected failure, else the
/// first known one, else success. A known failure never hides an
/// unexpected one.
///
/// # Errors
///
/// The worst failure among `verdicts`.
pub fn combine(verdicts: impl IntoIterator<Item = Result<(), Failure>>) -> Result<(), Failure> {
    let mut known = None;
    for verdict in verdicts {
        match verdict {
            Err(failure @ Failure::Unexpected(_)) => return Err(failure),
            Err(failure) => {
                known.get_or_insert(failure);
            }
            Ok(()) => {}
        }
    }
    known.map_or(Ok(()), Err)
}

/// Relative increase of `δ_max` over `δ_M` in percent (Fig. 5 of the
/// paper), computed from the two delays rather than taken from the program.
#[must_use]
pub fn overhead_pct(out: Output<'_>) -> f64 {
    let dm = out.delta_m.as_u64() as f64;
    if dm == 0.0 {
        return 0.0;
    }
    (out.delta_max.as_u64() as f64 - dm) / dm * 100.0
}

/// A fingerprint of everything a repeat of the same op must reproduce: the
/// table's columns and cells, both delays and the merge's work counters.
#[must_use]
pub fn fingerprint(result: &MergeResult) -> u64 {
    let mut hasher = FrontierHasher::new();
    let table = result.table();
    for column in table.columns() {
        hasher.write_u64(column.positive_mask());
        hasher.write_u64(column.negative_mask());
    }
    for (job, column, time, resource) in table.all_entries_on() {
        match job {
            Job::Process(p) => hasher.write_u64(p.index() as u64),
            Job::Broadcast(c) => hasher.write_u64(u64::MAX - c.index() as u64),
        }
        hasher.write_u64(column.positive_mask());
        hasher.write_u64(column.negative_mask());
        hasher.write_u64(time.as_u64());
        hasher.write_u64(resource.map_or(u64::MAX, |pe| pe.index() as u64));
    }
    hasher.write_u64(result.delta_m().as_u64());
    hasher.write_u64(result.delta_max().as_u64());
    let stats = result.stats();
    for count in [
        stats.tree_nodes,
        stats.adjustments,
        stats.conflicts_repaired,
        stats.unrepaired_conflicts,
        stats.slip_repairs,
        stats.lock_slips,
        stats.max_walk_depth,
        stats.repair_rounds,
    ] {
        hasher.write_u64(count as u64);
    }
    hasher.finish()
}

/// First difference between two merge results that must be identical,
/// ignoring `spec_discards` (scheduling-dependent by contract) and timings.
///
/// `cpg_fuzz::oracle::divergence` makes the same comparison, but depending
/// on `cpg-fuzz` would turn on `cpg-merge`'s `test-util` feature, which
/// compiles fault-injection switches into the walk this benchmark times.
#[must_use]
pub fn divergence(expected: &MergeResult, actual: &MergeResult) -> Option<&'static str> {
    if expected.table() != actual.table() {
        Some("schedule tables differ")
    } else if expected.tracks() != actual.tracks() {
        Some("track sets differ")
    } else if expected.path_schedules() != actual.path_schedules() {
        Some("path schedules differ")
    } else if expected.delta_m() != actual.delta_m() || expected.delta_max() != actual.delta_max() {
        Some("delays differ")
    } else if expected.stats() != actual.stats() {
        Some("work counters differ")
    } else {
        None
    }
}

/// A copy of the output's table with one activation moved onto the start
/// of another job that runs on the same exclusive resource on the same
/// path, so that path is guaranteed to break a run-time check. `None` when
/// no path has two such jobs.
#[must_use]
pub fn corrupt_onto_occupied(system: System<'_>, out: Output<'_>) -> Option<ScheduleTable> {
    for track in out.tracks.iter() {
        let label = track.label();
        let mut placed: Vec<(PeId, Time)> = Vec::new();
        for &process in track.processes() {
            let Some(pe) = system.cpg.mapping(process) else {
                continue;
            };
            if !system.arch.is_exclusive(pe) || system.cpg.exec_time(process).is_zero() {
                continue;
            }
            let job = Job::Process(process);
            let Some(time) = out.table.activation_on_track(job, &label) else {
                continue;
            };
            let occupied = placed
                .iter()
                .find(|&&(other_pe, other_time)| other_pe == pe && other_time != time);
            if let Some(&(_, other_time)) = occupied {
                let mut corrupted = out.table.clone();
                let moved: Vec<_> = out
                    .table
                    .entries_on(job)
                    .filter(|(column, _, _)| column.compatible(&label))
                    .collect();
                for (column, _, resource) in moved {
                    corrupted.set_on(job, column, other_time, resource);
                }
                return Some(corrupted);
            }
            placed.push((pe, time));
        }
    }
    None
}
