//! Sample statistics and process measurements.

use std::time::Instant;

/// Median of `v` (mean of the middle pair for an even count); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 0.5)
}

/// Linear-interpolated quantile `p ∈ [0, 1]` of `v`; 0 when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut sorted = v.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The highest of p90/p99/p99.9 with at least ten samples beyond it.
pub fn highest_supported(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|p| (n as f64) * (1.0 - p) >= 10.0 - 1e-9)
}

/// Nominal duration of [`kernel_ms`] on an unloaded host, in ms.
pub const KERNEL_NOMINAL_MS: f64 = 5.0;

/// The calibration kernel: allocation-heavy std-only work (format 20k
/// strings, sort them, build a `BTreeMap`), in ms. The host this
/// benchmark was tuned on alternates between phases in which such code
/// runs up to 1.7x slower; the kernel slows down with the operations it
/// brackets, so their ratio holds steady.
pub fn kernel_ms() -> f64 {
    let t = Instant::now();
    let mut keys: Vec<String> = (0..20_000u32)
        .map(|i| format!("key{}", i.wrapping_mul(7919) % 20_000))
        .collect();
    keys.sort();
    let map: std::collections::BTreeMap<String, usize> =
        keys.into_iter().enumerate().map(|(i, k)| (k, i)).collect();
    std::hint::black_box(map.len());
    t.elapsed().as_secs_f64() * 1e3
}

/// Scale factor for an op run between two kernel runs taking `before`
/// and `after` ms: `KERNEL_NOMINAL_MS / min(before, after)`. The host's
/// speed can change within a tenth of a second, so only kernels run right
/// beside an op track it; interference only slows the kernel down, so
/// the faster of the two readings is the better estimate of the speed.
pub fn calibration_factor(before: f64, after: f64) -> f64 {
    KERNEL_NOMINAL_MS / before.min(after)
}

/// Calibrated duration of a job made of steps, such as a set-up: each
/// step (lap) is scaled by [`calibration_factor`] of the kernel runs on
/// either side of it; the kernel runs themselves are not counted. A job
/// of a second outlasts the host's speed phases, so one factor for the
/// whole of it would not track them.
#[derive(Debug)]
pub struct Laps {
    kernel: f64,
    start: Instant,
    total_ms: f64,
}

impl Laps {
    /// Run the kernel, then start the first step.
    pub fn start() -> Laps {
        let kernel = kernel_ms();
        Laps {
            kernel,
            start: Instant::now(),
            total_ms: 0.0,
        }
    }

    /// End the current step and start the next; returns the step's raw
    /// and calibrated ms.
    pub fn lap(&mut self) -> (f64, f64) {
        self.lap_of(self.start.elapsed().as_secs_f64() * 1e3)
    }

    /// [`Laps::lap`] for a step whose own work took `raw_ms`: the rest of
    /// the time since the last lap (such as checking the step's output)
    /// is not counted.
    pub fn lap_of(&mut self, raw_ms: f64) -> (f64, f64) {
        let after = kernel_ms();
        let calibrated = raw_ms * calibration_factor(self.kernel, after);
        self.total_ms += calibrated;
        self.kernel = after;
        self.start = Instant::now();
        (raw_ms, calibrated)
    }

    /// End the last step; returns the calibrated total in seconds.
    pub fn finish(mut self) -> f64 {
        self.lap();
        self.total_ms / 1e3
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(1000), Some(0.99));
    }

    #[test]
    fn factor_uses_the_faster_kernel_reading() {
        assert_eq!(calibration_factor(5.0, 10.0), 1.0);
        assert_eq!(calibration_factor(10.0, 12.5), 0.5);
    }
}
