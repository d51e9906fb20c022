//! Small statistics and process helpers shared by every workload.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Milliseconds, unrounded.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; `0.0` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `max − min` of `values` (`0.0` for an empty sample).
pub fn spread(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    if values.is_empty() {
        0.0
    } else {
        max - min
    }
}

/// Time `reps` runs of `f` and return the median in seconds; each run's
/// result is dropped outside the timed interval.
pub fn median_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let out = std::hint::black_box(f());
        samples.push(start.elapsed().as_secs_f64());
        drop(out);
    }
    median(&samples)
}

/// A `kB` field of `/proc/self/status`, in KiB; `None` where `/proc` is
/// unavailable.
fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|line| line.strip_prefix(field))?;
    line.trim_start_matches(':').trim().trim_end_matches("kB").trim().parse().ok()
}

/// Resident set size of this process now, in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_kib("VmRSS").map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// Samples this process's resident set every few milliseconds on a helper
/// thread while one pass runs, keeping the maximum: the pass's peak.
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    peak_kib: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl RssSampler {
    /// Start sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak_kib = Arc::new(AtomicU64::new(status_kib("VmRSS").unwrap_or(0)));
        let handle = std::thread::spawn({
            let (stop, peak_kib) = (Arc::clone(&stop), Arc::clone(&peak_kib));
            move || {
                while !stop.load(Ordering::SeqCst) {
                    peak_kib.fetch_max(status_kib("VmRSS").unwrap_or(0), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(5));
                }
            }
        });
        RssSampler { stop, peak_kib, handle }
    }

    /// Stop sampling; the peak resident set seen, in MiB.
    pub fn finish(self) -> f64 {
        self.peak_kib.fetch_max(status_kib("VmRSS").unwrap_or(0), Ordering::Relaxed);
        self.stop.store(true, Ordering::SeqCst);
        self.handle.join().expect("RSS sampler panicked");
        self.peak_kib.load(Ordering::Relaxed) as f64 / 1024.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(spread(&v), 3.0);
        assert_eq!(median(&[]), 0.0);
    }
}
