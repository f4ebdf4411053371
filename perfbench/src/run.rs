//! The measured runs of every workload.
//!
//! An op is the unit of work a user waits for: one fresh
//! `generate_schedule_table` on `fig6_suite` and `deep_nest`, one edit plus
//! `MergeSession::merge` on `edit_loop`. The untraced run times nothing but
//! the op; the traced run wraps spans around the op and around calls made
//! beside it, outside the op, so the layers the merge calls internally can
//! be timed on the same input.
//!
//! A run is a sequence of *rounds*, all driven by [`Ledger::round`]. A round
//! issues every input's op (every script step of every session, on
//! `edit_loop`) exactly once, in the same order each time. The first round
//! checks every output in full; later rounds must reproduce the first
//! round's outputs exactly. The quality, failure and counter metrics come
//! from the first round, so they repeat exactly for a seed; the latency
//! metrics come from every timed op.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cpg::{enumerate_tracks, SystemEdit};
use cpg_gen::{generate, GeneratedSystem};
use cpg_merge::{generate_schedule_table, MergeConfig, MergeResult, MergeSession};
use cpg_path_sched::{ListScheduler, PathSchedule};

use crate::calib::{self, PROBE_EVERY};
use crate::check::{self, Failure, Output, System};
use crate::inputs::{self, EditSession, Workload};
use crate::stats::{self, mean, median, min_samples_for_tail};
use crate::trace::Tracer;
use crate::{in_catalog_order, Metric, END_TO_END, PER_LAYER};

/// Percentile reported as the latency tail.
pub const TAIL_PCT: usize = 95;
/// Fewest rounds an untraced run makes, however long each takes.
pub const MIN_ROUNDS: usize = 3;
/// Untraced rounds a traced run makes after its traced round, as the
/// baseline of the tracing overhead.
const UNTRACED_ROUNDS: usize = 2;
/// Times the untraced run repeats its set-up; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 11;
/// Probes taken before the first set-up, between two set-ups and after the
/// last; each set-up is calibrated by the median of the probes on both
/// sides of it.
const SETUP_PROBES: usize = 3;
/// Inputs merged once, untimed, at the end of set-up.
const WARM_UP_OPS: usize = 16;
/// Ops of one `edit_loop` session per round: the forward edits and their
/// reverses.
const CYCLE: usize = 2 * inputs::EDITS_PER_CYCLE;

/// What a run measured and checked.
///
/// `attempted` and `failed` count inputs, not issued ops: every round
/// re-issues the same op for each input, so an input's verdict is the same
/// however many rounds the run's length allowed, and both counts depend on
/// the seed alone.
#[derive(Debug)]
pub struct Outcome {
    /// Ops issued, over every round.
    pub ops: usize,
    /// Inputs whose op was issued: the ops of one round.
    pub attempted: usize,
    /// Inputs whose op panicked or whose output failed a check, in any
    /// round.
    pub failed: usize,
    /// Whether the run is correct: the checker caught a deliberately
    /// corrupted table, and every failed op is the known overlap defect.
    pub correct: bool,
    /// Whether the checker caught the deliberately corrupted table.
    pub checker_sound: bool,
    /// Failures that are not the known overlap defect.
    pub unexpected: usize,
    /// Ops of the first round, and how many of them failed.
    pub first_pass: (usize, usize),
    /// The metrics, in catalog order.
    pub metrics: Vec<Metric>,
    /// Span dump of a traced run (tab-separated), empty otherwise.
    pub spans_tsv: String,
    /// Per-layer self time in ms, summed over the run (traced run only).
    pub self_ms: Vec<(&'static str, f64)>,
}

/// Runs one workload; `trace` selects the traced run.
#[must_use]
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Outcome {
    match (workload, trace) {
        (Workload::EditLoop, false) => edit_untraced(seed, seconds),
        (Workload::EditLoop, true) => edit_traced(seed),
        (_, false) => fresh_untraced(workload, seed, seconds),
        (_, true) => fresh_traced(workload, seed),
    }
}

/// The merge configuration every op uses: the default, with only the
/// system's broadcast time filled in.
fn default_config(system: &GeneratedSystem) -> MergeConfig {
    MergeConfig::new(system.broadcast_time())
}

fn view(system: &GeneratedSystem) -> System<'_> {
    System {
        cpg: system.cpg(),
        arch: system.arch(),
        broadcast_time: system.broadcast_time(),
    }
}

/// Runs `body`, turning a panic into its message.
fn guarded<R>(body: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(body)).map_err(|payload| {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_owned());
        format!("panicked: {message}")
    })
}

/// Times `body` in milliseconds.
fn timed<R>(body: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let value = std::hint::black_box(body());
    (start.elapsed().as_secs_f64() * 1e3, value)
}

/// Median set-up wall time in seconds, as measured and calibrated.
#[derive(Debug, Clone, Copy)]
struct SetupTime {
    raw_s: f64,
    calibrated_s: f64,
}

/// Runs `setup` [`SETUP_REPEATS`] times with [`SETUP_PROBES`] probes around
/// each; returns the median wall time, raw and with each set-up calibrated
/// by the probes on both sides of it (see [`calib`]), and the last result.
fn repeated_setup<T>(mut setup: impl FnMut() -> T) -> (SetupTime, T) {
    let threads = MergeConfig::default().effective_threads();
    let probes = || -> Vec<f64> {
        (0..SETUP_PROBES)
            .map(|_| calib::probe_ms(threads))
            .collect()
    };
    let mut raw = Vec::with_capacity(SETUP_REPEATS);
    let mut calibrated = Vec::with_capacity(SETUP_REPEATS);
    let mut before = probes();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let (ms, value) = timed(&mut setup);
        last = Some(value);
        let after = probes();
        let around: Vec<f64> = before.iter().chain(&after).copied().collect();
        raw.push(ms / 1e3);
        calibrated.push(ms / 1e3 * calib::NOMINAL_PROBE_MS / median(&around));
        before = after;
    }
    let time = SetupTime {
        raw_s: median(&raw),
        calibrated_s: median(&calibrated),
    };
    (time, last.expect("at least one set-up"))
}

/// One issued op: its latency, its output, and the verdict of the checks
/// the op ran on its output (only on the slot's first visit).
struct Issued {
    ms: f64,
    result: Result<MergeResult, String>,
    checked: Result<(), Failure>,
}

/// What the first visit of an op slot produced.
#[derive(Debug, Clone, Copy)]
enum Slot {
    Unvisited,
    Panicked,
    Done {
        fingerprint: u64,
        /// `None` when the output passed its checks; otherwise whether the
        /// failure was the known defect.
        failed_known: Option<bool>,
    },
}

/// Op accounting shared by every run: latencies, failures, the first-round
/// verdict of every op slot, and the Fig. 5 overhead of first-round outputs.
struct Ledger {
    latencies_ms: Vec<f64>,
    busy_ms: f64,
    /// Ops issued, over every round.
    ops: usize,
    /// Slots that failed in any round.
    failed: usize,
    /// Failures that are not the known defect, over every op.
    unexpected: usize,
    first_failed: usize,
    slots: Vec<Slot>,
    /// Whether each slot has failed in some round.
    slot_failed: Vec<bool>,
    overheads: Vec<f64>,
    /// Failures to print: the slot and the reason.
    failures: Vec<(usize, Failure)>,
    /// Threads each probe runs on: the merge's default thread count.
    threads: usize,
    /// Probe times in ms; probe `k` ran just before op `k * PROBE_EVERY`.
    probes: Vec<f64>,
}

impl Ledger {
    fn new(slots: usize) -> Self {
        Ledger {
            latencies_ms: Vec::new(),
            busy_ms: 0.0,
            ops: 0,
            failed: 0,
            unexpected: 0,
            first_failed: 0,
            slots: vec![Slot::Unvisited; slots],
            slot_failed: vec![false; slots],
            overheads: Vec::with_capacity(slots),
            failures: Vec::new(),
            threads: MergeConfig::default().effective_threads(),
            probes: Vec::new(),
        }
    }

    /// Issues one round: `op(slot, first)` for every slot in order, where
    /// `first` says the slot has not been visited and its output must be
    /// checked in full.
    fn round(&mut self, mut op: impl FnMut(usize, bool) -> Issued) {
        for slot in 0..self.slots.len() {
            if self.ops.is_multiple_of(PROBE_EVERY) {
                self.probes.push(calib::probe_ms(self.threads));
            }
            let first = matches!(self.slots[slot], Slot::Unvisited);
            let issued = op(slot, first);
            self.settle(slot, issued);
        }
    }

    /// The untraced loop stops at the end of a round, once `seconds` of op
    /// time and at least [`MIN_ROUNDS`] rounds have been measured.
    fn done(&self, seconds: f64) -> bool {
        self.ops / self.slots.len() >= MIN_ROUNDS && self.busy_ms >= seconds * 1e3
    }

    /// Records one op of slot `slot`. On the slot's first visit the op's
    /// own verdict stands; a repeat must reproduce the first output.
    fn settle(&mut self, slot: usize, issued: Issued) {
        let Issued {
            ms,
            result,
            checked,
        } = issued;
        self.latencies_ms.push(ms);
        self.busy_ms += ms;
        self.ops += 1;
        let unexpected = |message: String| Some(Failure::Unexpected(message));
        // A failure not seen before in this slot; a repeat of a first-round
        // failure is not reported again, and the slot counts once.
        let fresh = match (&result, self.slots[slot]) {
            (Err(message), Slot::Unvisited) => {
                self.slots[slot] = Slot::Panicked;
                unexpected(message.clone())
            }
            (Err(message), _) => unexpected(format!("repeat {message}")),
            (Ok(result), Slot::Unvisited) => {
                self.overheads.push(check::overhead_pct(Output::of(result)));
                self.slots[slot] = Slot::Done {
                    fingerprint: check::fingerprint(result),
                    failed_known: checked.as_ref().err().map(Failure::is_known),
                };
                checked.err()
            }
            (Ok(_), Slot::Panicked) => {
                unexpected("repeat returned where the first op panicked".to_owned())
            }
            (
                Ok(result),
                Slot::Done {
                    fingerprint,
                    failed_known,
                },
            ) => {
                if check::fingerprint(result) != fingerprint {
                    unexpected("repeat output differs from the first-round output".to_owned())
                } else {
                    if let Some(known) = failed_known {
                        self.count_failure(slot, known);
                    }
                    None
                }
            }
        };
        if let Some(failure) = fresh {
            self.count_failure(slot, failure.is_known());
            if self.ops <= self.slots.len() {
                self.first_failed += 1;
            }
            self.failures.push((slot, failure));
        }
    }

    fn count_failure(&mut self, slot: usize, known: bool) {
        if !std::mem::replace(&mut self.slot_failed[slot], true) {
            self.failed += 1;
        }
        if !known {
            self.unexpected += 1;
        }
    }

    /// Ops of the first round.
    fn first_ops(&self) -> usize {
        self.ops.min(self.slots.len())
    }

    fn failed_frac(&self) -> f64 {
        self.first_failed as f64 / self.first_ops().max(1) as f64
    }

    /// Prints one `FAIL` line per failure; `describe(slot)` says how to
    /// rebuild the slot's input.
    fn print_failures(&self, workload: Workload, seed: u64, describe: impl Fn(usize) -> String) {
        for (slot, failure) in &self.failures {
            println!(
                "FAIL workload={} seed={seed} input={slot} {failure} | replay: --replay {slot}; {}",
                workload.name(),
                describe(*slot)
            );
        }
    }

    /// The end-to-end metrics: latencies calibrated to the nominal host
    /// speed (see [`calib`]) over every timed op, the quality of the
    /// first-round outputs, the calibrated set-up time and the peak memory.
    ///
    /// The tail is taken over inputs: each input's median latency over the
    /// rounds, then the 95th percentile of those. A host stall that hits an
    /// input in a minority of rounds leaves its median alone, while an
    /// input that is slow in most rounds, for whatever reason, lands in the
    /// tail. The median and the throughput pool every op.
    fn end_to_end(&self, setup: SetupTime) -> Vec<(&'static str, f64)> {
        let mut raw = self.latencies_ms.clone();
        raw.sort_by(f64::total_cmp);
        println!(
            "# raw (uncalibrated): op_ms_p50={} op_ms_p95={} ops_per_s={} setup_s={} probe_ms_p50={}",
            stats::percentile(&raw, 50),
            stats::percentile(&raw, TAIL_PCT),
            self.ops as f64 / (self.busy_ms / 1e3),
            setup.raw_s,
            median(&self.probes)
        );
        let calibrated = calib::calibrated(&self.latencies_ms, &self.probes);
        let slots = self.slots.len();
        assert!(
            slots >= min_samples_for_tail(TAIL_PCT),
            "{slots} inputs leave fewer than ten beyond p{TAIL_PCT}"
        );
        let mut input_medians: Vec<f64> = (0..slots)
            .map(|slot| {
                let rounds: Vec<f64> = calibrated
                    .iter()
                    .skip(slot)
                    .step_by(slots)
                    .copied()
                    .collect();
                median(&rounds)
            })
            .collect();
        input_medians.sort_by(f64::total_cmp);
        let mut sorted = calibrated;
        sorted.sort_by(f64::total_cmp);
        vec![
            ("op_ms_p50", stats::percentile(&sorted, 50)),
            ("op_ms_p95", stats::percentile(&input_medians, TAIL_PCT)),
            (
                "ops_per_s",
                self.ops as f64 / (sorted.iter().sum::<f64>() / 1e3),
            ),
            ("delta_ratio", 1.0 + mean(&self.overheads) / 100.0),
            ("setup_s", setup.calibrated_s),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }

    fn outcome(self, checker_sound: bool, metrics: Vec<Metric>) -> Outcome {
        Outcome {
            ops: self.ops,
            attempted: self.first_ops(),
            failed: self.failed,
            correct: checker_sound && self.unexpected == 0,
            checker_sound,
            unexpected: self.unexpected,
            first_pass: (self.first_ops(), self.first_failed),
            metrics,
            spans_tsv: String::new(),
            self_ms: Vec::new(),
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Whether the checker rejects a deliberately corrupted table: one
/// activation of the first suitable output moved onto an interval another
/// job occupies on the same exclusive resource.
#[must_use]
pub fn checker_catches_corruption(systems: &[&GeneratedSystem]) -> bool {
    for system in systems {
        let result = generate_schedule_table(system.cpg(), system.arch(), &default_config(system));
        let out = Output::of(&result);
        if let Some(corrupted) = check::corrupt_onto_occupied(view(system), out) {
            let corrupted = Output {
                table: &corrupted,
                ..out
            };
            return check::check_output(view(system), corrupted).is_err();
        }
    }
    false
}

/// Merges the first inputs once so lazy set-up is paid before timing.
fn warm_up(systems: &[GeneratedSystem]) {
    for system in systems.iter().take(WARM_UP_OPS) {
        std::hint::black_box(generate_schedule_table(
            system.cpg(),
            system.arch(),
            &default_config(system),
        ));
    }
}

/// The op of a fresh-merge workload: one `generate_schedule_table` of the
/// slot's system, checked in full on the first visit.
fn fresh_op(systems: &[GeneratedSystem]) -> impl FnMut(usize, bool) -> Issued + '_ {
    move |slot, first| {
        let system = &systems[slot];
        let config = default_config(system);
        let (ms, result) =
            timed(|| guarded(|| generate_schedule_table(system.cpg(), system.arch(), &config)));
        let checked = match &result {
            Ok(r) if first => check::check_output(view(system), Output::of(r)),
            _ => Ok(()),
        };
        Issued {
            ms,
            result,
            checked,
        }
    }
}

fn fresh_untraced(workload: Workload, seed: u64, seconds: f64) -> Outcome {
    let configs = inputs::fresh_configs(workload, seed);
    let (setup, systems) = repeated_setup(|| {
        let systems: Vec<GeneratedSystem> = configs.iter().map(generate).collect();
        warm_up(&systems);
        systems
    });
    let mut ledger = Ledger::new(systems.len());
    let mut op = fresh_op(&systems);
    while !ledger.done(seconds) {
        ledger.round(&mut op);
    }
    ledger.print_failures(workload, seed, |slot| inputs::describe(&configs[slot]));
    let sound = checker_catches_corruption(&systems.iter().collect::<Vec<_>>());
    let metrics = in_catalog_order(&END_TO_END, &ledger.end_to_end(setup));
    ledger.outcome(sound, metrics)
}

/// Builds each session and runs its initial merge.
fn open_sessions(inputs: &[EditSession]) -> Vec<MergeSession> {
    inputs
        .iter()
        .map(|input| {
            let mut session = MergeSession::new(
                input.system.cpg(),
                input.system.arch(),
                &default_config(&input.system),
            );
            std::hint::black_box(session.merge());
            session
        })
        .collect()
}

/// Applies `edit` to the session and re-merges.
fn apply_and_merge(session: &mut MergeSession, edit: &SystemEdit) -> Result<MergeResult, String> {
    guarded(|| {
        session
            .apply_edit(edit)
            .map_err(|e| format!("apply_edit failed: {e}"))?;
        Ok(session.merge())
    })
    .and_then(|r| r)
}

fn describe_step(input: &EditSession, step: usize) -> String {
    format!(
        "script step {step} ({:?}) of {}",
        input.script[step],
        inputs::describe(input.system.config())
    )
}

fn describe_edit_slot(inputs: &[EditSession]) -> impl Fn(usize) -> String + '_ {
    |slot| describe_step(&inputs[slot / CYCLE], slot % CYCLE)
}

/// Whether step `step` ends a half of the cycle: the most-edited state and
/// the return to the initial system. The untraced run compares the warm
/// result against a cold merge there.
fn cold_checked_step(step: usize) -> bool {
    step + 1 == inputs::EDITS_PER_CYCLE || step + 1 == CYCLE
}

/// The system a session holds now, after its edits.
fn session_view<'a>(session: &'a MergeSession, input: &EditSession) -> System<'a> {
    System {
        cpg: session.cpg(),
        arch: session.arch(),
        broadcast_time: input.system.broadcast_time(),
    }
}

/// Checks a warm session result: the full output check, plus equality with
/// a cold merge of the edited graph when `cold` is set.
fn check_warm(
    session: &MergeSession,
    input: &EditSession,
    result: &MergeResult,
    cold: bool,
) -> Result<(), Failure> {
    let system = session_view(session, input);
    let output = check::check_output(system, Output::of(result));
    let cold = if cold {
        let merged = generate_schedule_table(system.cpg, system.arch, session.config());
        match check::divergence(&merged, result) {
            Some(difference) => Err(Failure::Unexpected(format!(
                "warm result differs from a cold merge: {difference}"
            ))),
            None => Ok(()),
        }
    } else {
        Ok(())
    };
    check::combine([output, cold])
}

/// The op of `edit_loop`: the slot's script step applied to its session,
/// then a warm merge, checked in full on the first visit.
fn edit_op<'a>(
    inputs: &'a [EditSession],
    sessions: &'a mut [MergeSession],
) -> impl FnMut(usize, bool) -> Issued + 'a {
    move |slot, first| {
        let (index, step) = (slot / CYCLE, slot % CYCLE);
        let (input, session) = (&inputs[index], &mut sessions[index]);
        let (ms, result) = timed(|| apply_and_merge(session, &input.script[step]));
        let checked = match &result {
            Ok(r) if first => check_warm(session, input, r, cold_checked_step(step)),
            _ => Ok(()),
        };
        Issued {
            ms,
            result,
            checked,
        }
    }
}

fn edit_untraced(seed: u64, seconds: f64) -> Outcome {
    let (setup, (inputs, mut sessions)) = repeated_setup(|| {
        let inputs = inputs::edit_sessions(seed, |_, config| generate(config));
        let sessions = open_sessions(&inputs);
        (inputs, sessions)
    });
    let mut ledger = Ledger::new(inputs.len() * CYCLE);
    let mut op = edit_op(&inputs, &mut sessions);
    while !ledger.done(seconds) {
        ledger.round(&mut op);
    }
    ledger.print_failures(Workload::EditLoop, seed, describe_edit_slot(&inputs));
    let bases: Vec<&GeneratedSystem> = inputs.iter().map(|input| &input.system).collect();
    let sound = checker_catches_corruption(&bases);
    let metrics = in_catalog_order(&END_TO_END, &ledger.end_to_end(setup));
    ledger.outcome(sound, metrics)
}

/// Per-op counters of a traced round.
#[derive(Default)]
struct LayerTotals {
    tracks: Vec<f64>,
    jobs: Vec<f64>,
    tree_nodes: Vec<f64>,
    adjustments: Vec<f64>,
    conflicts_repaired: Vec<f64>,
    repair_rounds: Vec<f64>,
    slip_repairs: Vec<f64>,
    lock_slips: Vec<f64>,
    unrepaired_conflicts: Vec<f64>,
    max_walk_depth: Vec<f64>,
    spec_discards: Vec<f64>,
    columns: Vec<f64>,
    entries: Vec<f64>,
    sim_violations: usize,
    residual_ms: Vec<f64>,
    chains_replayed: Vec<f64>,
    chains_recorded: Vec<f64>,
    segments_replayed: Vec<f64>,
    segments_recorded: Vec<f64>,
}

impl LayerTotals {
    fn record_result(&mut self, result: &MergeResult, schedules: &[PathSchedule]) {
        let stats = result.stats();
        self.tracks.push(result.tracks().len() as f64);
        self.jobs
            .push(schedules.iter().map(PathSchedule::len).sum::<usize>() as f64);
        self.tree_nodes.push(stats.tree_nodes as f64);
        self.adjustments.push(stats.adjustments as f64);
        self.conflicts_repaired
            .push(stats.conflicts_repaired as f64);
        self.repair_rounds.push(stats.repair_rounds as f64);
        self.slip_repairs.push(stats.slip_repairs as f64);
        self.lock_slips.push(stats.lock_slips as f64);
        self.unrepaired_conflicts
            .push(stats.unrepaired_conflicts as f64);
        self.max_walk_depth.push(stats.max_walk_depth as f64);
        self.spec_discards.push(result.spec_discards() as f64);
        self.columns.push(result.table().num_columns() as f64);
        self.entries.push(result.table().num_entries() as f64);
    }
}

/// Traces the layers beside one op: track enumeration, the per-path list
/// schedules, the serial merge, `δ_max` and the output checks, on the input
/// `merged` came from. `merge_ms` is the merge time the residual is taken
/// from. Returns the verdict of every check, the worst first.
fn trace_beside(
    tracer: &mut Tracer,
    op: u64,
    system: System<'_>,
    config: &MergeConfig,
    merged: &MergeResult,
    merge_ms: f64,
    totals: &mut LayerTotals,
) -> Result<(), Failure> {
    let tracks = tracer.span("cpg.enumerate_tracks", op, |_| enumerate_tracks(system.cpg));
    let schedules = tracer.span("pathsched.schedule_all", op, |_| {
        ListScheduler::new(system.cpg, system.arch, system.broadcast_time).schedule_all(&tracks)
    });
    let serial = tracer.span("fj.serial_merge", op, |_| {
        guarded(|| generate_schedule_table(system.cpg, system.arch, &config.with_threads(1)))
    });
    let wcd = tracer.span("table.worst_case_delay", op, |_| {
        merged.table().worst_case_delay(system.cpg, merged.tracks())
    });
    let enumerate_ms = last_ms(tracer, "cpg.enumerate_tracks");
    let schedule_ms = last_ms(tracer, "pathsched.schedule_all");
    totals
        .residual_ms
        .push(merge_ms - enumerate_ms - schedule_ms);
    totals.record_result(merged, &schedules);

    let out = Output::of(merged);
    let output = tracer.span("check", op, |t| {
        t.span("table.verify", op, |_| check::check_table(system, out))?;
        let reports = t.span("sim.run_all", op, |_| check::simulate(system, out));
        totals.sim_violations += reports.iter().map(|r| r.violations().len()).sum::<usize>();
        check::check_simulation(system, out, &reports)
    });
    let table_wcd = if wcd == merged.delta_max() {
        Ok(())
    } else {
        Err(Failure::Unexpected(format!(
            "table worst-case delay {wcd} differs from δ_max {}",
            merged.delta_max()
        )))
    };
    let longest = schedules.iter().map(PathSchedule::delay).max();
    let lower_bound = if longest == Some(merged.delta_m()) {
        Ok(())
    } else {
        Err(Failure::Unexpected(format!(
            "longest list-scheduled path {longest:?} differs from δ_M {}",
            merged.delta_m()
        )))
    };
    let threads = match serial {
        Err(message) => Err(Failure::Unexpected(format!(
            "with_threads(1) merge {message}"
        ))),
        Ok(serial) => match check::divergence(&serial, merged) {
            Some(d) => Err(Failure::Unexpected(format!(
                "default vs with_threads(1): {d}"
            ))),
            None => Ok(()),
        },
    };
    check::combine([output, table_wcd, lower_bound, threads])
}

fn last_ms(tracer: &Tracer, name: &str) -> f64 {
    let span = tracer
        .spans()
        .iter()
        .rev()
        .find(|s| s.name == name)
        .expect("the span was just recorded");
    span.duration_ns() as f64 / 1e6
}

/// Calibrated latency medians of the traced round and of the untraced
/// rounds after it.
fn round_medians(ledger: &Ledger) -> (f64, f64) {
    let calibrated = calib::calibrated(&ledger.latencies_ms, &ledger.probes);
    let (traced, untraced) = calibrated.split_at(ledger.slots.len());
    (median(traced), median(untraced))
}

fn fresh_traced(workload: Workload, seed: u64) -> Outcome {
    let configs = inputs::fresh_configs(workload, seed);
    let mut tracer = Tracer::new();
    let systems: Vec<GeneratedSystem> = configs
        .iter()
        .enumerate()
        .map(|(i, config)| tracer.span("gen.generate", i as u64, |_| generate(config)))
        .collect();
    warm_up(&systems);

    let mut ledger = Ledger::new(systems.len());
    let mut totals = LayerTotals::default();
    ledger.round(|slot, _| {
        let system = &systems[slot];
        let op = slot as u64;
        let config = default_config(system);
        let result = tracer.span("op", op, |t| {
            t.span("merge.generate_schedule_table", op, |_| {
                guarded(|| generate_schedule_table(system.cpg(), system.arch(), &config))
            })
        });
        let ms = last_ms(&tracer, "op");
        let merge_ms = last_ms(&tracer, "merge.generate_schedule_table");
        let checked = match &result {
            Ok(r) => trace_beside(
                &mut tracer,
                op,
                view(system),
                &config,
                r,
                merge_ms,
                &mut totals,
            ),
            Err(_) => Ok(()),
        };
        Issued {
            ms,
            result,
            checked,
        }
    });
    let mut op = fresh_op(&systems);
    for _ in 0..UNTRACED_ROUNDS {
        ledger.round(&mut op);
    }
    ledger.print_failures(workload, seed, |slot| inputs::describe(&configs[slot]));
    let sound = checker_catches_corruption(&systems.iter().collect::<Vec<_>>());
    let merge_ms = tracer.durations_ms("merge.generate_schedule_table");
    let serial_ms = tracer.durations_ms("fj.serial_merge");
    let values = per_layer_values(&tracer, &totals, &ledger, &merge_ms, &serial_ms, None);
    traced_outcome(tracer, ledger, sound, &values)
}

fn per_layer_values(
    tracer: &Tracer,
    totals: &LayerTotals,
    ledger: &Ledger,
    merge_ms: &[f64],
    serial_ms: &[f64],
    session: Option<Vec<(&'static str, f64)>>,
) -> Vec<(&'static str, f64)> {
    let sum = |name: &str| tracer.durations_ms(name).iter().sum::<f64>();
    let med = |name: &str| median(&tracer.durations_ms(name));
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let default_p50 = median(merge_ms);
    let serial_p50 = median(serial_ms);
    let (traced_p50, untraced_p50) = round_medians(ledger);
    let mut values = vec![
        ("gen.generate_ms", med("gen.generate")),
        ("cpg.enumerate_tracks_us", med("cpg.enumerate_tracks") * 1e3),
        ("cpg.tracks", mean(&totals.tracks)),
        ("pathsched.schedule_all_ms", med("pathsched.schedule_all")),
        ("pathsched.jobs", mean(&totals.jobs)),
        (
            "merge.sched_equiv",
            ratio(merge_ms.iter().sum(), sum("pathsched.schedule_all")),
        ),
        ("merge.residual_ms", median(&totals.residual_ms)),
        ("merge.tree_nodes", mean(&totals.tree_nodes)),
        ("merge.adjustments", mean(&totals.adjustments)),
        ("merge.conflicts_repaired", mean(&totals.conflicts_repaired)),
        ("merge.repair_rounds", mean(&totals.repair_rounds)),
        ("merge.slip_repairs", mean(&totals.slip_repairs)),
        ("merge.lock_slips", mean(&totals.lock_slips)),
        (
            "merge.unrepaired_conflicts",
            mean(&totals.unrepaired_conflicts),
        ),
        ("merge.max_walk_depth", mean(&totals.max_walk_depth)),
        (
            "fj.threads",
            MergeConfig::default().effective_threads() as f64,
        ),
        ("fj.serial_ms_p50", serial_p50),
        ("fj.par_speedup", ratio(serial_p50, default_p50)),
        ("merge.spec_discards", mean(&totals.spec_discards)),
        (
            "merge.spec_discard_ratio",
            ratio(
                totals.spec_discards.iter().sum(),
                totals.adjustments.iter().sum(),
            ),
        ),
        ("table.columns", mean(&totals.columns)),
        ("table.entries", mean(&totals.entries)),
        (
            "table.worst_case_delay_us",
            med("table.worst_case_delay") * 1e3,
        ),
        ("table.verify_ms", med("table.verify")),
        ("sim.run_all_ms", med("sim.run_all")),
        ("sim.violations", totals.sim_violations as f64),
        (
            "trace.overhead_pct",
            (ratio(traced_p50, untraced_p50) - 1.0) * 100.0,
        ),
        ("delta_overhead_pct", mean(&ledger.overheads)),
        ("failed_frac", ledger.failed_frac()),
    ];
    values.extend(session.unwrap_or_else(|| {
        vec![
            ("session.apply_edit_us", 0.0),
            ("session.merge_ms", 0.0),
            ("session.chains_replayed", 0.0),
            ("session.chains_recorded", 0.0),
            ("session.segments_replayed", 0.0),
            ("session.segments_recorded", 0.0),
            ("session.replay_ratio", 0.0),
            ("session.cold_ms", 0.0),
            ("session.warm_speedup", 0.0),
        ]
    }));
    values
}

fn traced_outcome(
    tracer: Tracer,
    ledger: Ledger,
    checker_sound: bool,
    values: &[(&'static str, f64)],
) -> Outcome {
    let metrics = in_catalog_order(&PER_LAYER, values);
    let self_ms = tracer.self_ms_by_name().into_iter().collect();
    let spans_tsv = tracer.to_tsv();
    Outcome {
        spans_tsv,
        self_ms,
        ..ledger.outcome(checker_sound, metrics)
    }
}

fn edit_traced(seed: u64) -> Outcome {
    let mut tracer = Tracer::new();
    let inputs = inputs::edit_sessions(seed, |i, config| {
        tracer.span("gen.generate", i as u64, |_| generate(config))
    });
    let mut sessions = open_sessions(&inputs);

    let mut ledger = Ledger::new(inputs.len() * CYCLE);
    let mut totals = LayerTotals::default();
    ledger.round(|slot, _| {
        let op = slot as u64;
        let (index, step) = (slot / CYCLE, slot % CYCLE);
        let (input, warm) = (&inputs[index], &mut sessions[index]);
        let edit = &input.script[step];
        let result = tracer.span("op", op, |t| {
            let applied = t.span("session.apply_edit", op, |_| {
                guarded(|| warm.apply_edit(edit))
            });
            match applied {
                Ok(Ok(_)) => t.span("session.merge", op, |_| guarded(|| warm.merge())),
                Ok(Err(e)) => Err(format!("apply_edit failed: {e}")),
                Err(message) => Err(message),
            }
        });
        let ms = last_ms(&tracer, "op");
        let reuse = warm.reuse_stats();
        totals.chains_replayed.push(reuse.chains_replayed as f64);
        totals.chains_recorded.push(reuse.chains_recorded as f64);
        totals
            .segments_replayed
            .push(reuse.segments_replayed as f64);
        totals
            .segments_recorded
            .push(reuse.segments_recorded as f64);

        let system = session_view(warm, input);
        let config = *warm.config();
        let cold = tracer.span("session.cold_merge", op, |_| {
            guarded(|| generate_schedule_table(system.cpg, system.arch, &config))
        });
        let cold_ms = last_ms(&tracer, "session.cold_merge");
        let checked = match (&result, &cold) {
            (Ok(warm_result), Ok(cold_result)) => {
                let beside = trace_beside(
                    &mut tracer,
                    op,
                    system,
                    &config,
                    cold_result,
                    cold_ms,
                    &mut totals,
                );
                let equal = match check::divergence(cold_result, warm_result) {
                    Some(d) => Err(Failure::Unexpected(format!(
                        "warm result differs from a cold merge: {d}"
                    ))),
                    None => Ok(()),
                };
                check::combine([beside, equal])
            }
            (Ok(_), Err(message)) => Err(Failure::Unexpected(format!("cold merge {message}"))),
            (Err(_), _) => Ok(()),
        };
        Issued {
            ms,
            result,
            checked,
        }
    });
    let mut op = edit_op(&inputs, &mut sessions);
    for _ in 0..UNTRACED_ROUNDS {
        ledger.round(&mut op);
    }
    ledger.print_failures(Workload::EditLoop, seed, describe_edit_slot(&inputs));
    let bases: Vec<&GeneratedSystem> = inputs.iter().map(|input| &input.system).collect();
    let sound = checker_catches_corruption(&bases);

    let warm_ms = tracer.durations_ms("session.merge");
    let cold_ms = tracer.durations_ms("session.cold_merge");
    let serial_ms = tracer.durations_ms("fj.serial_merge");
    let replayed: f64 = totals.chains_replayed.iter().sum();
    let recorded: f64 = totals.chains_recorded.iter().sum();
    let session = vec![
        (
            "session.apply_edit_us",
            median(&tracer.durations_ms("session.apply_edit")) * 1e3,
        ),
        ("session.merge_ms", median(&warm_ms)),
        ("session.chains_replayed", mean(&totals.chains_replayed)),
        ("session.chains_recorded", mean(&totals.chains_recorded)),
        ("session.segments_replayed", mean(&totals.segments_replayed)),
        ("session.segments_recorded", mean(&totals.segments_recorded)),
        (
            "session.replay_ratio",
            if replayed + recorded > 0.0 {
                replayed / (replayed + recorded)
            } else {
                0.0
            },
        ),
        ("session.cold_ms", median(&cold_ms)),
        ("session.warm_speedup", median(&cold_ms) / median(&warm_ms)),
    ];
    let values = per_layer_values(
        &tracer,
        &totals,
        &ledger,
        &cold_ms,
        &serial_ms,
        Some(session),
    );
    traced_outcome(tracer, ledger, sound, &values)
}

/// Runs one input (one session's script, on `edit_loop`) once, checks its
/// outputs, and prints every violation found.
#[must_use]
pub fn replay(workload: Workload, seed: u64, input: usize) -> bool {
    if workload == Workload::EditLoop {
        let Some(session) = inputs::edit_sessions(seed, |_, config| generate(config))
            .into_iter()
            .nth(input / CYCLE)
        else {
            println!("input {input} out of range");
            return false;
        };
        println!("{}", inputs::describe(session.system.config()));
        let inputs = [session];
        let mut sessions = open_sessions(&inputs);
        let mut ok = true;
        for (step, edit) in inputs[0].script.iter().enumerate() {
            let verdict = apply_and_merge(&mut sessions[0], edit)
                .map_err(Failure::Unexpected)
                .and_then(|r| check_warm(&sessions[0], &inputs[0], &r, true));
            println!("step {step}: {edit:?} -> {verdict:?}");
            ok &= verdict.is_ok();
        }
        return ok;
    }
    let configs = inputs::fresh_configs(workload, seed);
    let Some(config) = configs.get(input) else {
        println!("input {input} out of range");
        return false;
    };
    println!("{}", inputs::describe(config));
    let system = generate(config);
    let result = generate_schedule_table(system.cpg(), system.arch(), &default_config(&system));
    println!(
        "δ_M {} δ_max {} outcome {:?} stats {:?}",
        result.delta_m(),
        result.delta_max(),
        result.outcome(),
        result.stats()
    );
    let out = Output::of(&result);
    let mut ok = true;
    if let Err(violations) = result.table().verify(system.cpg(), result.tracks()) {
        ok = false;
        for v in violations {
            println!("table verify: {v}");
        }
    }
    for report in check::simulate(view(&system), out) {
        for v in report.violations() {
            ok = false;
            println!(
                "simulator on path {}: {v}",
                system.cpg().display_cube(&report.label())
            );
        }
    }
    let verdict = check::check_output(view(&system), out);
    println!("check: {verdict:?}");
    ok && verdict.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpg_arch::Time;
    use cpg_path_sched::Job;
    use cpg_sim::SimViolation;

    /// The first fresh input of `workload` whose output passes every check
    /// and admits the corruption, with its result.
    fn clean_input(workload: Workload) -> (GeneratedSystem, MergeResult) {
        inputs::fresh_configs(workload, 7)
            .iter()
            .map(generate)
            .find_map(|system| {
                let result =
                    generate_schedule_table(system.cpg(), system.arch(), &default_config(&system));
                let out = Output::of(&result);
                let usable = check::check_output(view(&system), out).is_ok()
                    && check::corrupt_onto_occupied(view(&system), out).is_some();
                usable.then_some((system, result))
            })
            .expect("some input passes its checks")
    }

    fn issued(
        ms: f64,
        result: Result<MergeResult, String>,
        checked: Result<(), Failure>,
    ) -> Issued {
        Issued {
            ms,
            result,
            checked,
        }
    }

    #[test]
    fn a_corrupted_table_counts_as_a_failed_op() {
        for workload in [Workload::Fig6Suite, Workload::DeepNest] {
            let (system, result) = clean_input(workload);
            let out = Output::of(&result);
            let corrupted = check::corrupt_onto_occupied(view(&system), out).expect("corruptible");
            assert_ne!(&corrupted, result.table());
            let bad = Output {
                table: &corrupted,
                ..out
            };

            let mut ledger = Ledger::new(2);
            ledger.round(|slot, first| {
                assert!(first);
                let checked = if slot == 0 {
                    check::check_output(view(&system), out)
                } else {
                    check::check_output(view(&system), bad)
                };
                issued(1.0, Ok(result.clone()), checked)
            });
            assert_eq!((ledger.failed, ledger.first_failed), (1, 1));
            assert_eq!(ledger.failures[0].0, 1, "the clean table passes");
            assert!((ledger.failed_frac() - 0.5).abs() < 1e-12);
            // A repeat of the failing slot fails again, without a second
            // report, a second first-round failure or a second failed input.
            ledger.round(|_, first| {
                assert!(!first, "repeats are not re-checked");
                issued(1.0, Ok(result.clone()), Ok(()))
            });
            assert_eq!(
                (
                    ledger.failed,
                    ledger.first_failed,
                    ledger.failures.len(),
                    ledger.unexpected
                ),
                (1, 1, 1, 2)
            );
            let outcome = ledger.outcome(true, Vec::new());
            assert_eq!((outcome.ops, outcome.attempted, outcome.failed), (4, 2, 1));
            assert!(checker_catches_corruption(&[&system]));
        }
    }

    #[test]
    fn only_the_known_overlap_leaves_a_run_correct() {
        let (system, result) = clean_input(Workload::DeepNest);
        let out = Output::of(&result);
        let arch = system.arch();
        let processor = arch.processors().next().expect("a processor");
        let bus = arch.buses().next().expect("a bus");
        let mut processes = system.cpg().ordinary_processes().map(Job::Process);
        let (first, second) = (processes.next().unwrap(), processes.next().unwrap());
        let overlap = |pe| SimViolation::ResourceOverlap { pe, first, second };
        let on_processor = overlap(processor);
        let judge = |out: Output<'_>, violation: &SimViolation| {
            check::classify(
                arch,
                out,
                out.delta_max,
                &[(violation, "path p".to_owned())],
            )
        };
        assert_eq!(
            judge(out, &on_processor).map_err(|f| f.is_known()),
            Err(true)
        );
        // So is one on a bus.
        assert_eq!(
            judge(out, &overlap(bus)).map_err(|f| f.is_known()),
            Err(true)
        );
        // Not the known defect: the merge counted slips, another kind of
        // violation, or a wrong delay beside the overlap.
        let slipped = Output {
            lock_slips: 1,
            ..out
        };
        assert_eq!(
            judge(slipped, &on_processor).map_err(|f| f.is_known()),
            Err(false)
        );
        let late = SimViolation::InputNotArrived {
            job: second,
            predecessor: first,
            activation: Time::new(1),
            arrives: Time::new(2),
        };
        assert_eq!(judge(out, &late).map_err(|f| f.is_known()), Err(false));
        let wrong_delay = check::classify(
            arch,
            out,
            out.delta_max + Time::new(1),
            &[(&on_processor, "path p".to_owned())],
        );
        assert_eq!(wrong_delay.map_err(|f| f.is_known()), Err(false));
        assert_eq!(check::classify(arch, out, out.delta_max, &[]), Ok(()));

        let known = judge(out, &on_processor).unwrap_err();
        let mut ledger = Ledger::new(1);
        ledger.round(|_, _| issued(1.0, Ok(result.clone()), Err(known.clone())));
        assert_eq!((ledger.failed, ledger.unexpected), (1, 0));
        assert!(ledger.outcome(true, Vec::new()).correct);
        assert!(!Ledger::new(1).outcome(false, Vec::new()).correct);

        let mut ledger = Ledger::new(1);
        ledger.round(|_, _| issued(1.0, Err("panicked: boom".to_owned()), Ok(())));
        assert_eq!((ledger.failed, ledger.unexpected), (1, 1));
        assert!(!ledger.outcome(true, Vec::new()).correct);
    }

    #[test]
    fn combine_lets_no_known_failure_hide_an_unexpected_one() {
        let known = || Err(Failure::KnownOverlap("k".to_owned()));
        let unexpected = || Err(Failure::Unexpected("u".to_owned()));
        assert_eq!(check::combine([Ok(()), Ok(())]), Ok(()));
        assert_eq!(check::combine([Ok(()), known()]), known());
        assert_eq!(check::combine([known(), unexpected()]), unexpected());
        assert_eq!(check::combine([unexpected(), known()]), unexpected());
    }

    #[test]
    fn a_repeat_with_a_different_output_fails() {
        let (_, result) = clean_input(Workload::Fig6Suite);
        let other = inputs::fresh_configs(Workload::Fig6Suite, 8)
            .iter()
            .map(generate)
            .map(|s| generate_schedule_table(s.cpg(), s.arch(), &default_config(&s)))
            .find(|r| check::fingerprint(r) != check::fingerprint(&result))
            .expect("another input merges differently");
        let mut ledger = Ledger::new(1);
        let mut outputs = vec![Err("panicked: boom".to_owned()), Ok(other), Ok(result)];
        for _ in 0..3 {
            ledger.round(|_, _| issued(1.0, outputs.pop().expect("three rounds"), Ok(())));
        }
        assert_eq!(
            (
                ledger.ops,
                ledger.failed,
                ledger.unexpected,
                ledger.first_failed
            ),
            (3, 1, 2, 0)
        );
        let outcome = ledger.outcome(true, Vec::new());
        assert_eq!((outcome.attempted, outcome.failed), (1, 1));
        assert!(!outcome.correct);
    }

    #[test]
    fn latency_metrics_come_from_every_timed_op() {
        let mut ledger = Ledger::new(200);
        let err = || Err("panicked: x".to_owned());
        for round in 0..3 {
            // 600 ops of 1..=600 ms; round 2 holds the slowest two hundred.
            ledger.round(|slot, _| issued((round * 200 + slot + 1) as f64, err(), Ok(())));
        }
        assert_eq!(ledger.probes.len(), 600 / PROBE_EVERY);
        let setup = SetupTime {
            raw_s: 1.0,
            calibrated_s: 0.5,
        };
        // A host at nominal speed leaves the latencies as measured.
        ledger.probes.fill(calib::NOMINAL_PROBE_MS);
        let metrics = ledger.end_to_end(setup);
        let value = |name| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(value("op_ms_p50"), 300.0);
        // Input k takes k, 200 + k and 400 + k ms: its median is 200 + k.
        assert_eq!(value("op_ms_p95"), 390.0);
        let total_s = (600.0 * 601.0 / 2.0) / 1e3;
        assert!((value("ops_per_s") - 600.0 / total_s).abs() < 1e-9);
        assert_eq!(value("setup_s"), 0.5);
        // A host at half speed halves them.
        ledger.probes.fill(2.0 * calib::NOMINAL_PROBE_MS);
        let metrics = ledger.end_to_end(setup);
        let value = |name| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert_eq!(value("op_ms_p50"), 150.0);
        assert_eq!(value("op_ms_p95"), 195.0);
        assert!((value("ops_per_s") - 1200.0 / total_s).abs() < 1e-9);
    }

    /// `op_ms_p95` of three rounds over 200 inputs, where `slow(round,
    /// slot)` ops take 50 ms and the others 1 ms.
    fn tail_of(slow: impl Fn(usize, usize) -> bool) -> f64 {
        let mut ledger = Ledger::new(200);
        let err = || Err("panicked: x".to_owned());
        for round in 0..3 {
            ledger.round(|slot, _| {
                let ms = if slow(round, slot) { 50.0 } else { 1.0 };
                issued(ms, err(), Ok(()))
            });
        }
        ledger.probes.fill(calib::NOMINAL_PROBE_MS);
        let setup = SetupTime {
            raw_s: 0.5,
            calibrated_s: 0.5,
        };
        let metrics = ledger.end_to_end(setup);
        metrics.iter().find(|(n, _)| *n == "op_ms_p95").unwrap().1
    }

    #[test]
    fn the_tail_takes_each_inputs_median_over_the_rounds() {
        // A stall that hits a quarter of the middle round, a twelfth of
        // all ops, slows no input in most rounds: the tail stays at 1 ms.
        assert_eq!(
            tail_of(|round, slot| round == 1 && slot.is_multiple_of(4)),
            1.0
        );
        // A tenth of the inputs slow in two rounds of three is the tail.
        assert_eq!(
            tail_of(|round, slot| round != 1 && slot.is_multiple_of(10)),
            50.0
        );
    }

    #[test]
    fn the_untraced_loop_stops_after_whole_rounds_and_the_seconds() {
        let mut ledger = Ledger::new(200);
        let err = || Err("panicked: x".to_owned());
        for round in 0..MIN_ROUNDS {
            assert!(!ledger.done(0.1), "only {round} rounds");
            ledger.round(|_, _| issued(1.0, err(), Ok(())));
        }
        assert!(ledger.done(0.5));
        assert!(!ledger.done(1.0), "only 0.6 s of op time");
    }
}
