//! The benchmark's input generator: splitmix64, so a seed fixes every
//! generated input without depending on any crate under test.

/// A splitmix64 stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so each workload
    /// part draws independently of how many values another part took.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.next_u64() % u64::from(hi - lo + 1)) as u32
    }

    /// Shuffles `v` (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }

    /// `center` moved by at most `pct` percent either way: inputs vary
    /// with the seed while every seed keeps the same work mix.
    pub fn jitter(&mut self, center: u32, pct: u32) -> u32 {
        let d = center * pct / 100;
        self.range(center - d, center + d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_bounds_hold() {
        let a: Vec<u64> = (0..8).map(|_| Rng::new(5, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(5, 2);
        assert_ne!(r.next_u64(), Rng::new(5, 1).next_u64());
        for _ in 0..1000 {
            let v = r.jitter(1000, 10);
            assert!((900..=1100).contains(&v));
        }
    }
}
