//! Seeded input generation: a SplitMix64 stream per (seed, purpose),
//! so every workload input is a pure function of `--seed`.

/// A SplitMix64 generator.
pub struct Rng(u64);

impl Rng {
    /// The generator for one purpose (`stream`) of one seed; distinct
    /// streams of a seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
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

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p
    }

    pub fn pick<T: Copy>(&mut self, xs: &[T]) -> T {
        xs[self.below(xs.len())]
    }

    /// `k` distinct elements of `xs`, kept in their order in `xs`.
    pub fn subset<T: Copy>(&mut self, xs: &[T], k: usize) -> Vec<T> {
        let mut idx: Vec<usize> = (0..xs.len()).collect();
        for i in 0..k {
            let j = i + self.below(xs.len() - i);
            idx.swap(i, j);
        }
        let mut chosen = idx[..k].to_vec();
        chosen.sort_unstable();
        chosen.into_iter().map(|i| xs[i]).collect()
    }

    /// Shuffles `xs` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }

    /// Between `lo` and `hi` distinct elements of `xs`, in `xs` order.
    pub fn some<T: Copy>(&mut self, xs: &[T], lo: usize, hi: usize) -> Vec<T> {
        let k = self.range(lo, hi);
        self.subset(xs, k)
    }

    /// An index drawn from cumulative weights `cdf` (ascending, last
    /// entry the total).
    pub fn weighted(&mut self, cdf: &[f64]) -> usize {
        let total = *cdf.last().expect("non-empty weights");
        let x = self.unit() * total;
        cdf.partition_point(|&c| c <= x).min(cdf.len() - 1)
    }
}
