//! End-to-end and per-layer benchmark of schedule-table generation.
//!
//! A single-process, closed-loop benchmark: one caller, the next op issued
//! when the previous one returns. Inputs come from a workload seed; every
//! op calls the public API at the default [`cpg_merge::MergeConfig`]; every
//! output is checked outside the timed region. See `README.md` beside this
//! crate for the workloads, the metrics and how to replay a failing input.

pub mod calib;
pub mod check;
pub mod inputs;
pub mod run;
pub mod stats;
pub mod trace;

/// A measured value with its unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Unit of the value.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

/// End-to-end metrics, reported by the untraced run: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("op_ms_p50", "ms"),
    ("op_ms_p95", "ms"),
    ("ops_per_s", "ops/s"),
    ("delta_ratio", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run: `(name, unit)`. Metrics
/// of a layer a workload does not exercise read 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("gen.generate_ms", "ms"),
    ("cpg.enumerate_tracks_us", "us"),
    ("cpg.tracks", "count"),
    ("pathsched.schedule_all_ms", "ms"),
    ("pathsched.jobs", "count"),
    ("merge.sched_equiv", "ratio"),
    ("merge.residual_ms", "ms"),
    ("merge.tree_nodes", "count"),
    ("merge.adjustments", "count"),
    ("merge.conflicts_repaired", "count"),
    ("merge.repair_rounds", "count"),
    ("merge.slip_repairs", "count"),
    ("merge.lock_slips", "count"),
    ("merge.unrepaired_conflicts", "count"),
    ("merge.max_walk_depth", "count"),
    ("fj.threads", "count"),
    ("fj.serial_ms_p50", "ms"),
    ("fj.par_speedup", "ratio"),
    ("merge.spec_discards", "count"),
    ("merge.spec_discard_ratio", "ratio"),
    ("table.columns", "count"),
    ("table.entries", "count"),
    ("table.worst_case_delay_us", "us"),
    ("table.verify_ms", "ms"),
    ("session.apply_edit_us", "us"),
    ("session.merge_ms", "ms"),
    ("session.chains_replayed", "count"),
    ("session.chains_recorded", "count"),
    ("session.segments_replayed", "count"),
    ("session.segments_recorded", "count"),
    ("session.replay_ratio", "ratio"),
    ("session.cold_ms", "ms"),
    ("session.warm_speedup", "ratio"),
    ("sim.run_all_ms", "ms"),
    ("sim.violations", "count"),
    ("trace.overhead_pct", "%"),
    ("delta_overhead_pct", "%"),
    ("failed_frac", "fraction"),
];

/// The metrics of `catalog`, in catalog order, taking each value from
/// `values` by name.
///
/// # Panics
///
/// Panics when a catalog metric has no value, or a value is not finite.
#[must_use]
pub fn in_catalog_order(
    catalog: &[(&'static str, &'static str)],
    values: &[(&str, f64)],
) -> Vec<Metric> {
    catalog
        .iter()
        .map(|&(name, unit)| {
            let value = values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("metric {name} was not measured"))
                .1;
            assert!(value.is_finite(), "metric {name} is {value}");
            Metric { name, unit, value }
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`.
#[must_use]
pub fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn result_line_is_json_with_every_digit() {
        let metrics = [Metric {
            name: "op_ms_p50",
            unit: "ms",
            value: 1.203_456_789,
        }];
        assert_eq!(
            result_json(true, 3, 1, &metrics),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": {\"op_ms_p50\": {\"value\": 1.203456789, \"unit\": \"ms\"}}}"
        );
    }
}
