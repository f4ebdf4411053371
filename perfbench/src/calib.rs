//! Host-speed calibration of the latency metrics.
//!
//! The merge fans out over every core at the default configuration, so it
//! stalls whenever the host takes any core away from it. On a shared or
//! virtual machine that happens in bursts and in longer spells, and a run's
//! raw op latencies then measure the host as much as the program: on the
//! two-vCPU virtual machine this benchmark was built on, the median op
//! latency of one input set moved by up to 2× between runs minutes apart.
//!
//! A *probe* is a fixed piece of integer work that does not call the
//! program, run as [`PROBE_FORKS`] short fork-joins over the same number of
//! threads as the merge. At the default configuration the merge spends much
//! of its time forking scoped threads and joining them (it runs at about
//! half the speed of the one-thread merge on two cores), so a slow host
//! reaches it mostly through thread wake-up latency; a probe made of many
//! short fork-joins is exposed the same way. Over 80-op windows within a run,
//! the probe's slowdown correlated with the ops' slowdown at 0.80–0.88, where
//! one long fork-join managed 0.57–0.77.
//!
//! The round loop times one probe before every [`PROBE_EVERY`]-th op. Each
//! op's latency is then scaled by [`NOMINAL_PROBE_MS`] over the median of
//! the [`PROBE_WINDOW`] probes nearest to it: a calibrated latency is the
//! latency the op would have had on a host that runs the probe in its
//! nominal time. A change to the program moves the op and not the probe, so
//! it moves the calibrated latency by the same share as the raw one.

use std::hint::black_box;
use std::time::Instant;

use crate::stats::median;

/// Ops between two probes.
pub const PROBE_EVERY: usize = 8;
/// Probes whose median calibrates one op: the op's own probe and the one on
/// either side. Wider windows track short spells of a slow host less well
/// and gained nothing in steadiness.
pub const PROBE_WINDOW: usize = 3;
/// The probe's duration on the quiet host the benchmark was built on (two
/// vCPUs, two threads), in milliseconds. Calibrated latencies are latencies
/// at that host speed.
pub const NOMINAL_PROBE_MS: f64 = 0.7;
/// Fork-joins per probe.
pub const PROBE_FORKS: usize = 16;
/// Steps of each thread's work in one fork-join.
const PROBE_STEPS: usize = 2000;

/// One thread's share of a fork-join: xorshift steps.
fn probe_work(seed: u64) -> u64 {
    let mut x = seed | 1;
    let mut sum = 0u64;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        sum = sum.wrapping_add(x);
    }
    sum
}

/// Times one probe over `threads` threads, in milliseconds: [`PROBE_FORKS`]
/// fork-joins, each of the caller and `threads - 1` scoped workers, as the
/// merge's fan-out forks and joins.
#[must_use]
pub fn probe_ms(threads: usize) -> f64 {
    let start = Instant::now();
    let mut folded = 0u64;
    for fork in 0..PROBE_FORKS as u64 {
        folded ^= std::thread::scope(|scope| {
            let workers: Vec<_> = (1..threads.max(1) as u64)
                .map(|t| scope.spawn(move || probe_work(black_box(fork + t))))
                .collect();
            let own = probe_work(black_box(fork));
            workers.into_iter().fold(own, |acc, w| {
                acc ^ w.join().expect("probe workers do not panic")
            })
        });
    }
    black_box(folded);
    start.elapsed().as_secs_f64() * 1e3
}

/// Host-speed factor of the op at index `op`: [`NOMINAL_PROBE_MS`] over the
/// median of the probes in its window. `probes[k]` was taken just before op
/// `k * PROBE_EVERY`.
///
/// # Panics
///
/// Panics when there are no probes.
#[must_use]
pub fn factor(probes: &[f64], op: usize) -> f64 {
    assert!(!probes.is_empty(), "no probes to calibrate with");
    let own = (op / PROBE_EVERY).min(probes.len() - 1);
    let half = PROBE_WINDOW / 2;
    let window = &probes[own.saturating_sub(half)..(own + half + 1).min(probes.len())];
    NOMINAL_PROBE_MS / median(window)
}

/// Every latency scaled by its op's host-speed [`factor`].
#[must_use]
pub fn calibrated(latencies_ms: &[f64], probes: &[f64]) -> Vec<f64> {
    latencies_ms
        .iter()
        .enumerate()
        .map(|(op, ms)| ms * factor(probes, op))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_op_takes_the_median_of_the_probes_around_it() {
        // Probes at ops 0, 8, 16, ...: the host halves its speed from the
        // sixth probe on, with one stray slow probe before that.
        let mut probes = vec![NOMINAL_PROBE_MS; 12];
        probes[2] = 10.0 * NOMINAL_PROBE_MS;
        for p in &mut probes[6..] {
            *p = 2.0 * NOMINAL_PROBE_MS;
        }
        // Op 8 * 2 sees probes 1..=3 (one stray): nominal speed.
        assert_eq!(factor(&probes, 8 * 2 + 5), 1.0);
        // Op 0 sees probes 0..=1, and the lower of the two.
        assert_eq!(factor(&probes, 0), 1.0);
        // Op 8 * 11 sees probes 10..=11: half speed.
        assert_eq!(factor(&probes, 8 * 11), 0.5);
        // Past the last probe, the last window applies.
        assert_eq!(factor(&probes, 8 * 40), 0.5);
        let scaled = calibrated(&[2.0, 2.0], &[2.0 * NOMINAL_PROBE_MS]);
        assert_eq!(scaled, vec![1.0, 1.0]);
    }

    #[test]
    fn a_probe_takes_measurable_time() {
        assert!(probe_ms(1) > 0.0);
        assert!(probe_ms(2) > 0.0);
    }
}
