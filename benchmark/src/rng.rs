//! The benchmark's own seeded generator. The program under test never
//! sees the seed, only the inputs generated from it.

/// SplitMix64: tiny, well mixed for any seed including zero, and with no
/// dependency that could change the generated inputs under the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of a run, so that drawing
    /// more values for one purpose never shifts another's.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`. The modulo bias is below 2^-40 for every `n`
    /// the benchmark uses.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over the labels of an operation list, each terminated so that
/// concatenations cannot collide. Two runs that print the same hash
/// issued the same operations in the same order.
pub fn hash_labels<'a>(labels: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for label in labels {
        for &b in label.as_bytes().iter().chain(&[0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence_other_seed_other_sequence() {
        let draw = |seed, stream| {
            let mut rng = Rng::new(seed, stream);
            (0..8).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let shuffled = |seed| {
            let mut v: Vec<usize> = (0..50).collect();
            Rng::new(seed, 0).shuffle(&mut v);
            v
        };
        let a = shuffled(3);
        assert_eq!(a, shuffled(3));
        assert_ne!(a, shuffled(4));
        let mut back = a.clone();
        back.sort_unstable();
        assert_eq!(back, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = Rng::new(0, 0);
        assert!((0..1000).all(|_| rng.below(7) < 7));
    }

    #[test]
    fn label_hash_depends_on_order_and_boundaries() {
        assert_eq!(hash_labels(["a", "b"]), hash_labels(["a", "b"]));
        assert_ne!(hash_labels(["a", "b"]), hash_labels(["b", "a"]));
        assert_ne!(hash_labels(["ab"]), hash_labels(["a", "b"]));
    }
}
