//! Peak resident memory over a measured window, sampled from procfs.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

const PERIOD: Duration = Duration::from_millis(20);

/// Current resident set size in bytes (`VmRSS` of this process).
pub fn current_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// A background thread sampling RSS until [`RssSampler::finish`].
pub struct RssSampler {
    stop: Arc<AtomicBool>,
    /// Highest sample since the last [`RssSampler::take_peak`], bytes.
    peak: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl RssSampler {
    /// Starts sampling every 20 ms.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(current_bytes().unwrap_or(0)));
        let (flag, high) = (Arc::clone(&stop), Arc::clone(&peak));
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(PERIOD);
                high.fetch_max(current_bytes().unwrap_or(0), Ordering::Relaxed);
            }
        });
        Self { stop, peak, handle }
    }

    /// The peak since the previous call (or the start) in MB (10^6
    /// bytes); the next interval starts from the current RSS.
    pub fn take_peak(&self) -> f64 {
        let now = current_bytes().unwrap_or(0);
        self.peak.swap(now, Ordering::Relaxed).max(now) as f64 / 1e6
    }

    /// Stops sampling and returns the peak since the last
    /// [`RssSampler::take_peak`], in MB.
    pub fn finish(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        let peak = self.take_peak();
        self.handle.join().expect("RSS sampler thread panicked");
        peak
    }
}
