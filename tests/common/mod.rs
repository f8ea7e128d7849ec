//! Deterministic input generator for the repository's property tests.
//!
//! The offline build has no `proptest`, so the property tests sample their
//! inputs explicitly from a seeded [`StdRng`]: the same coverage style
//! (hundreds of randomized cases per invariant), fully reproducible, with
//! no shrinking. Each helper mirrors a character-class strategy the old
//! proptest version used.

// Shared between independently compiled test binaries; each binary uses
// its own subset of the helpers.
#![allow(dead_code)]

pub mod conformance;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The fault-schedule seed: `UNIDM_FAULT_SEED` when set (the CI matrix
/// runs two), 7 otherwise.
pub fn fault_seed() -> u64 {
    std::env::var("UNIDM_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

/// Character pool approximating proptest's `.` (any char) strategy:
/// printable ASCII plus a few multi-byte code points to exercise UTF-8
/// handling.
pub const ANY: &str = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 \
                       .,:;'\"!?/-_()[]{}@#$%&*+=\n\téüñ日本語";

/// Seeded input generator.
pub struct Gen {
    rng: StdRng,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Gen {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// A mutable handle on the underlying RNG.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.rng
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn usize(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        self.rng.gen_range(lo..hi)
    }

    /// Uniform u64 over the full range.
    pub fn u64(&mut self) -> u64 {
        self.rng.gen_range(0..u64::MAX)
    }

    /// Uniform bool.
    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool(0.5)
    }

    /// A string of `len` chars drawn from `pool`.
    pub fn chars_from(&mut self, pool: &str, len: usize) -> String {
        let chars: Vec<char> = pool.chars().collect();
        (0..len)
            .map(|_| *chars.choose(&mut self.rng).expect("non-empty pool"))
            .collect()
    }

    /// A string of `0..=max` chars drawn from `pool`.
    pub fn string(&mut self, pool: &str, max: usize) -> String {
        let len = self.usize(0, max + 1);
        self.chars_from(pool, len)
    }

    /// Mirrors the `[a-z][a-z_]{0,10}` attribute-name strategy.
    pub fn attr(&mut self) -> String {
        let mut s = self.chars_from("abcdefghijklmnopqrstuvwxyz", 1);
        s.push_str(&self.string("abcdefghijklmnopqrstuvwxyz_", 10));
        s
    }

    /// Mirrors the filtered `[A-Za-z0-9][A-Za-z0-9 .,'/-]{0,24}` value
    /// strategy: trimmed, non-empty, free of the protocol's reserved
    /// separators.
    pub fn value(&mut self) -> String {
        const FIRST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789";
        const REST: &str = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 .,'/-";
        loop {
            let mut s = self.chars_from(FIRST, 1);
            s.push_str(&self.string(REST, 24));
            let s = s.trim().to_string();
            if !s.is_empty() && !s.contains("; ") && !s.contains(": ") && !s.contains(" and ") {
                return s;
            }
        }
    }
}
