//! Seeded generators and order statistics.

/// SplitMix64: a small, fully deterministic generator.  Every input the
/// benchmark generates comes from one of these, seeded from `--seed`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for one named purpose, so adding a draw for one purpose
    /// never shifts the inputs of another.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate` per
    /// second, in nanoseconds.
    pub fn exp_gap_ns(&mut self, rate: f64) -> u64 {
        (-self.unit().ln() / rate * 1e9) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Zipf(s = 1) over `n` ranks: rank `r` (0-based) has weight `1 / (r + 1)`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|rank| {
                total += 1.0 / (rank as f64 + 1.0);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let total = *self
            .cumulative
            .last()
            .expect("a Zipf over at least one rank");
        let ticket = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c < ticket)
            .min(self.cumulative.len() - 1)
    }
}

/// Nearest-rank percentile `p` in `[0, 1]` of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 0.5)
}

/// Length of the slices a window is cut into for [`Latencies::sliced`].
const SLICE_S: f64 = 1.0;

/// Latency samples in µs, each with the time it was taken (seconds into
/// the window).  A failure is recorded as an infinite latency: it misses
/// every latency limit.
#[derive(Default, Clone)]
pub struct Latencies {
    samples: Vec<(f64, f64)>,
}

impl Latencies {
    pub fn push(&mut self, at_s: f64, us: f64) {
        self.samples.push((at_s, us));
    }

    pub fn push_failure(&mut self, at_s: f64) {
        self.samples.push((at_s, f64::INFINITY));
    }

    pub fn merge(&mut self, other: &Latencies) {
        self.samples.extend_from_slice(&other.samples);
    }

    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Percentile over successes and failures together, a failure ranking
    /// above every success at `penalty_us`.
    pub fn percentile(&self, p: f64, penalty_us: f64) -> f64 {
        let mut all: Vec<f64> = self
            .samples
            .iter()
            .map(|&(_, us)| us.min(penalty_us))
            .collect();
        all.sort_by(f64::total_cmp);
        percentile(&all, p)
    }

    /// The window's whole [`SLICE_S`] slices, each slice's samples in the
    /// order they were pushed.  A window shorter than one slice is one
    /// slice.
    fn slices(&self, window_s: f64) -> Vec<Vec<f64>> {
        let count = ((window_s / SLICE_S) as usize).max(1);
        let mut slices = vec![Vec::new(); count];
        for &(at_s, us) in &self.samples {
            let slice = (at_s / SLICE_S).max(0.0) as usize;
            if let Some(slice) = slices.get_mut(slice) {
                slice.push(us);
            }
        }
        slices
    }

    /// Median over the window's slices of each slice's percentile `p`
    /// (failures at `penalty_us`).  The machine's speed swings from second
    /// to second; a whole-run percentile follows the share of the run spent
    /// slow, the median slice follows the typical second.
    pub fn sliced(&self, p: f64, penalty_us: f64, window_s: f64) -> f64 {
        let per_slice: Vec<f64> = self
            .slices(window_s)
            .into_iter()
            .filter(|slice| !slice.is_empty())
            .map(|slice| {
                let mut slice: Vec<f64> = slice.into_iter().map(|us| us.min(penalty_us)).collect();
                slice.sort_by(f64::total_cmp);
                percentile(&slice, p)
            })
            .collect();
        median(&per_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_draws() {
        let zipf = Zipf::new(100);
        let draws = |seed| {
            let mut rng = Rng::new(seed);
            (0..50).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draws(7), draws(7));
        assert_ne!(draws(7), draws(8));
    }

    #[test]
    fn zipf_favours_low_ranks() {
        let zipf = Zipf::new(1000);
        let mut rng = Rng::new(1);
        let head = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        // H(10) / H(1000) ≈ 0.39.
        assert!((3_400..4_400).contains(&head), "head draws {head}");
    }

    #[test]
    fn failures_rank_above_successes() {
        let mut lat = Latencies::default();
        for us in [1.0, 2.0, 3.0] {
            lat.push(0.0, us);
        }
        lat.push_failure(0.0);
        assert_eq!(lat.percentile(1.0, 1e9), 1e9);
        assert_eq!(lat.percentile(0.0, 1e9), 1.0);
    }

    #[test]
    fn slices_take_the_median_second() {
        let mut lat = Latencies::default();
        // Two fast seconds and one slow one; a sample past the window is
        // left out.
        for (at_s, us) in [
            (0.1, 10.0),
            (0.5, 20.0),
            (1.2, 12.0),
            (1.9, 14.0),
            (2.5, 900.0),
            (3.5, 1.0),
        ] {
            lat.push(at_s, us);
        }
        lat.push_failure(2.7);
        assert_eq!(lat.sliced(1.0, 1e9, 3.0), 20.0);
    }
}
