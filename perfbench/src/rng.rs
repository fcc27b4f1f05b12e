//! SplitMix64: the benchmark's own seeded generator, so its inputs do
//! not depend on any library's random-number stream.

/// A SplitMix64 stream.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (modulo bias is below 2^-50 for the small `n`
    /// used here).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Exponential with the given mean, at least 1.
    pub fn exponential_ns(&mut self, mean_ns: f64) -> u64 {
        let sample = -(1.0 - self.unit()).ln() * mean_ns;
        (sample as u64).max(1)
    }
}

/// A seed for sub-stream `stream` of `seed`.
pub fn derive(seed: u64, stream: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93)).next_u64()
}
