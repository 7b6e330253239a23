//! Vertex-label scrambling.
//!
//! Raw Kronecker/R-MAT output is heavily biased toward low vertex IDs
//! (vertex 0 is the hub). The Graph500 specification therefore applies a
//! pseudorandom permutation to vertex labels before the edge list is
//! emitted, so implementations cannot exploit label order. [`Scrambler`]
//! is an invertible mixing permutation on `SCALE`-bit integers built from
//! odd-constant multiplications and xor-shifts (each step is a bijection
//! mod `2^SCALE`, so the whole pipeline is a bijection).

/// An invertible pseudorandom permutation over `[0, 2^scale)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scrambler {
    scale: u32,
    mask: u64,
    mul1: u64,
    mul2: u64,
    xor1: u64,
    xor2: u64,
}

impl Scrambler {
    /// A permutation on `scale`-bit labels parameterized by `seed`.
    ///
    /// # Panics
    /// Panics unless `1 <= scale <= 32`.
    pub fn new(scale: u32, seed: u64) -> Self {
        assert!((1..=32).contains(&scale), "scale must be in 1..=32");
        let mask = (1u64 << scale) - 1;
        // Odd multipliers are invertible mod 2^scale.
        let mul1 = (crate::rng::splitmix64(seed, 1) | 1) & mask | 1;
        let mul2 = (crate::rng::splitmix64(seed, 2) | 1) & mask | 1;
        let xor1 = crate::rng::splitmix64(seed, 3) & mask;
        let xor2 = crate::rng::splitmix64(seed, 4) & mask;
        Self {
            scale,
            mask,
            mul1,
            mul2,
            xor1,
            xor2,
        }
    }

    /// Number of label bits.
    pub fn scale(&self) -> u32 {
        self.scale
    }

    /// Permute label `v` (must be `< 2^scale`).
    #[inline]
    pub fn apply(&self, v: u64) -> u64 {
        debug_assert!(v <= self.mask);
        let mut x = v;
        x = x.wrapping_mul(self.mul1) & self.mask;
        x ^= self.xor1;
        x = self.xorshift(x);
        x = x.wrapping_mul(self.mul2) & self.mask;
        x ^= self.xor2;
        x
    }

    /// Invert [`apply`](Self::apply).
    #[inline]
    pub fn invert(&self, v: u64) -> u64 {
        debug_assert!(v <= self.mask);
        let mut x = v;
        x ^= self.xor2;
        x = x.wrapping_mul(Self::mod_inverse(self.mul2)) & self.mask;
        x = self.xorshift_invert(x);
        x ^= self.xor1;
        x = x.wrapping_mul(Self::mod_inverse(self.mul1)) & self.mask;
        x
    }

    /// `x ^= x >> (scale/2)` — a bijection on scale-bit values.
    #[inline]
    fn xorshift(&self, x: u64) -> u64 {
        let sh = (self.scale / 2).max(1);
        (x ^ (x >> sh)) & self.mask
    }

    /// Invert the xorshift by repeated re-application.
    #[inline]
    fn xorshift_invert(&self, x: u64) -> u64 {
        let sh = (self.scale / 2).max(1);
        let mut y = x;
        let mut shift = sh;
        while shift < 64 {
            y = (x ^ (y >> sh)) & self.mask;
            shift += sh;
        }
        y
    }

    /// Multiplicative inverse of an odd number mod 2^64 (Newton's method),
    /// masked to the scale on use.
    fn mod_inverse(a: u64) -> u64 {
        debug_assert!(a & 1 == 1);
        let mut x = a; // correct to 3 bits
        for _ in 0..5 {
            x = x.wrapping_mul(2u64.wrapping_sub(a.wrapping_mul(x)));
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_a_bijection_small_scales() {
        for scale in 1..=12u32 {
            let s = Scrambler::new(scale, 12345);
            let n = 1u64 << scale;
            let mut seen = vec![false; n as usize];
            for v in 0..n {
                let p = s.apply(v);
                assert!(p < n, "scale {scale}: {p} out of range");
                assert!(!seen[p as usize], "scale {scale}: collision at {p}");
                seen[p as usize] = true;
            }
        }
    }

    #[test]
    fn invert_undoes_apply() {
        for scale in [1u32, 5, 16, 27, 32] {
            let s = Scrambler::new(scale, 777);
            let n = 1u64 << scale;
            for v in [0u64, 1, 2, n / 3, n / 2, n - 1] {
                if v >= n {
                    continue;
                }
                assert_eq!(s.invert(s.apply(v)), v, "scale {scale}, v {v}");
                assert_eq!(s.apply(s.invert(v)), v, "scale {scale}, v {v}");
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Scrambler::new(20, 1);
        let b = Scrambler::new(20, 2);
        let distinct = (0..1000u64).filter(|&v| a.apply(v) != b.apply(v)).count();
        assert!(distinct > 900);
    }

    #[test]
    fn scramble_breaks_low_id_bias() {
        // Low input labels should scatter across the full range.
        let s = Scrambler::new(24, 42);
        let n = 1u64 << 24;
        let mut high_half = 0;
        for v in 0..1000u64 {
            if s.apply(v) >= n / 2 {
                high_half += 1;
            }
        }
        assert!(
            (350..=650).contains(&high_half),
            "poor scatter: {high_half}/1000"
        );
    }

    #[test]
    fn mod_inverse_is_inverse() {
        for a in [1u64, 3, 5, 0xDEAD_BEEF | 1, u64::MAX] {
            assert_eq!(a.wrapping_mul(Scrambler::mod_inverse(a)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "scale must be")]
    fn zero_scale_rejected() {
        Scrambler::new(0, 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// apply∘invert is the identity for arbitrary labels/scales/seeds.
            #[test]
            fn roundtrip(scale in 1u32..=32, seed: u64, v: u64) {
                let s = Scrambler::new(scale, seed);
                let mask = (1u128 << scale) - 1;
                let v = (v as u128 & mask) as u64;
                prop_assert_eq!(s.invert(s.apply(v)), v);
            }
        }
    }
}
