//! Sample statistics, the answer digest and the process-memory probe.

use flexer::serve::IngestReport;
use flexer::types::{MatchTarget, ResolveResponse};

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// Harrell–Davis estimate of the median: a mean of all order statistics
/// weighted by the Beta((n+1)/2, (n+1)/2) mass over each one's share of
/// `[0, 1]`. Over few samples spread along a trend, such as one episode's
/// ingest batches while the index grows, it moves far less with one
/// sample's jitter than the sample at the middle rank does. 0 when there
/// are none.
pub fn hd_median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n == 0 {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    // Unnormalised Beta(a, a) density, a >= 1; each order statistic's mass
    // by Simpson's rule over its interval, then normalised.
    let a = (n + 1) as f64 / 2.0;
    let density = |x: f64| (x * (1.0 - x)).powf(a - 1.0);
    const STEPS: usize = 32;
    let weights: Vec<f64> = (0..n)
        .map(|i| {
            let (lo, h) = (i as f64 / n as f64, 1.0 / (n * STEPS) as f64);
            (0..=STEPS)
                .map(|k| {
                    let c = if k == 0 || k == STEPS { 1.0 } else { [4.0, 2.0][(k + 1) % 2] };
                    c * density(lo + k as f64 * h)
                })
                .sum::<f64>()
        })
        .collect();
    let total: f64 = weights.iter().sum();
    sorted.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The percentile ladder the tail is read from, highest first.
const TAIL_LADDER: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// The tail of a latency sample: the highest ladder percentile that still
/// has at least ten samples above it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub quantile: f64,
    pub value: f64,
}

pub fn tail(samples: &[f64]) -> Tail {
    let n = samples.len();
    let quantile = TAIL_LADDER
        .into_iter()
        .find(|&q| n as f64 * (1.0 - q) >= 10.0)
        .unwrap_or(TAIL_LADDER[TAIL_LADDER.len() - 1]);
    Tail { quantile, value: percentile(samples, quantile) }
}

impl Tail {
    pub fn label(&self) -> String {
        format!("p{}", self.quantile * 100.0)
    }
}

/// FNV-1a over a canonical encoding of every answer and ingest report, in
/// the order they were produced.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn response(&mut self, r: &ResolveResponse) {
        self.word(r.intent as u64);
        self.word(r.matches.len() as u64);
        for m in &r.matches {
            let target = match m.target {
                MatchTarget::Record(id) => id as u64,
                MatchTarget::Pair(id) => (1 << 62) | id as u64,
                MatchTarget::AdHoc => u64::MAX,
            };
            self.word(target);
            self.bytes(&m.score.to_bits().to_le_bytes());
            self.bytes(&[u8::from(m.matched)]);
        }
    }

    pub fn error(&mut self, message: &str) {
        self.word(u64::MAX - 1);
        self.bytes(message.as_bytes());
    }

    pub fn ingest(&mut self, r: &IngestReport) {
        for v in [r.record, r.first_pair, r.n_pairs, r.n_suppressed] {
            self.word(v as u64);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Peak resident set (`VmHWM`) of a process in MiB, from procfs; 0 where
/// procfs is unavailable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    let Ok(status) = std::fs::read_to_string(format!("/proc/{pid}/status")) else { return 0.0 };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set to its current one, so a later
/// [`peak_rss_mb`] reads the peak since this call; false where the kernel
/// refuses (then it reads the peak since the start).
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Cumulative (total, steal) CPU ticks of the machine, from procfs;
/// zeros where procfs is unavailable. Stolen time is CPU the hypervisor
/// gave to other guests: it slows every timing without any change in the
/// program, so each run reports its share.
pub fn cpu_ticks() -> (u64, u64) {
    let Ok(stat) = std::fs::read_to_string("/proc/stat") else { return (0, 0) };
    let Some(line) = stat.lines().next().and_then(|l| l.strip_prefix("cpu ")) else {
        return (0, 0);
    };
    let ticks: Vec<u64> = line.split_whitespace().filter_map(|t| t.parse().ok()).collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// Attempted / failed counts of one op type.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpCount {
    pub attempted: u64,
    pub failed: u64,
}

impl OpCount {
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    pub fn merge(&mut self, other: OpCount) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn hd_median_is_central_and_smooth() {
        assert_eq!(hd_median(&[]), 0.0);
        assert_eq!(hd_median(&[7.0]), 7.0);
        // Symmetric samples: the estimate is their centre.
        let xs: Vec<f64> = (1..=16).map(f64::from).collect();
        assert!((hd_median(&xs) - 8.5).abs() < 1e-9);
        // One middle sample moving by 8 moves the estimate by far less.
        let mut ys = xs.clone();
        ys[8] += 8.0;
        let moved = hd_median(&ys) - hd_median(&xs);
        assert!(moved > 0.0 && moved < 2.0, "moved {moved}");
    }

    #[test]
    fn tail_keeps_ten_samples_above() {
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.quantile, 0.99);
        assert_eq!(tail(&xs[..150]).quantile, 0.9);
        assert_eq!(tail(&xs[..5]).quantile, 0.5);
    }
}
