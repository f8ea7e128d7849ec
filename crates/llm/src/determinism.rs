//! Deterministic pseudo-randomness for the simulated model.
//!
//! Every stochastic decision ("did the model read this fact correctly?") is
//! a pure function of `(seed, context string, tag)`, so the same prompt to
//! the same model always behaves identically — a property the real systems
//! lack but reproducible experiments need.

use std::fmt::{self, Write as _};

/// A deterministic dice: hashes its inputs to uniform samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dice {
    seed: u64,
}

/// Folds `bytes` into the running draw state, one byte per step.
#[inline]
fn absorb(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    h
}

impl Dice {
    /// Creates a dice with a model-level seed.
    pub fn new(seed: u64) -> Self {
        Dice { seed }
    }

    /// Absorbs `context` once, so any number of tagged draws over it cost
    /// only their tag bytes: `dice.context(c).uniform(t)` is
    /// [`Dice::uniform`]`(c, t)` **to the bit**, for every seed, context
    /// and tag.
    ///
    /// A draw is one byte-serial chain over `context ‖ 0xff ‖ tag`; the
    /// whole effect of `seed`, `context` and the separator on it is the
    /// 8-byte state the chain holds after the `0xff`. The split sits at
    /// that separator because it is the one point of the chain that every
    /// tag of a context shares: a caller that draws many times over one
    /// long context (a fault schedule slot per attempt of a prompt, a route
    /// and a backoff per retry) keeps the returned state and never reads
    /// the context's bytes again.
    ///
    /// The context is anything that displays as its text, absorbed as it
    /// is rendered, as a [`DiceContext`] tag is: a numbered context needs
    /// no `String` in between.
    ///
    /// ```
    /// use unidm_llm::Dice;
    ///
    /// let dice = Dice::new(7);
    /// let (text, i) = ("city: Florence", 3);
    /// assert_eq!(
    ///     dice.context(format_args!("{text}#{i}")),
    ///     dice.context(&format!("{text}#{i}")),
    /// );
    /// ```
    pub fn context(&self, context: impl fmt::Display) -> DiceContext {
        let mut sink = TagSink(self.start());
        write!(sink, "{context}").expect("the sink never fails");
        DiceContext {
            state: absorb(sink.0, &[0xff]),
        }
    }

    /// The chain's state before any context byte.
    fn start(&self) -> u64 {
        self.seed ^ 0x9e37_79b9_7f4a_7c15
    }

    /// A uniform sample in `[0, 1)` for the given decision context.
    pub fn uniform(&self, context: &str, tag: &str) -> f64 {
        self.context(context).uniform(tag)
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&self, context: &str, tag: &str, p: f64) -> bool {
        self.context(context).chance(tag, p)
    }

    /// A deterministic pick of an index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn pick(&self, context: &str, tag: &str, n: usize) -> usize {
        self.context(context).pick(tag, n)
    }
}

/// A [`Dice`] with its context already absorbed (see [`Dice::context`]):
/// eight bytes, `Copy`, and every draw from it is bit-identical to the
/// same draw spelled `Dice::{uniform, chance, pick}(context, tag)`.
///
/// A tag is anything that displays as the tag text. A plain `&str` is the
/// usual case; a numbered tag is `format_args!("fault-{attempt}")`, whose
/// rendered bytes are fed to the draw as they are produced — the same
/// bytes `format!` would have collected, with no `String` in between.
///
/// ```
/// use unidm_llm::Dice;
///
/// let dice = Dice::new(7);
/// let ctx = dice.context("a long prompt, read once");
/// assert_eq!(ctx.uniform("status"), dice.uniform("a long prompt, read once", "status"));
/// let attempt = 3;
/// assert_eq!(
///     ctx.uniform(format_args!("fault-{attempt}")),
///     dice.uniform("a long prompt, read once", &format!("fault-{attempt}")),
/// );
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiceContext {
    state: u64,
}

/// The draw chain as a formatting sink: tag text is absorbed as it is
/// rendered.
struct TagSink(u64);

impl fmt::Write for TagSink {
    #[inline]
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 = absorb(self.0, s.as_bytes());
        Ok(())
    }
}

impl DiceContext {
    /// A uniform sample in `[0, 1)` for decision `tag` of this context.
    pub fn uniform(&self, tag: impl fmt::Display) -> f64 {
        let mut sink = TagSink(self.state);
        write!(sink, "{tag}").expect("the sink never fails");
        let mut h = sink.0.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 32;
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&self, tag: impl fmt::Display, p: f64) -> bool {
        self.uniform(tag) < p.clamp(0.0, 1.0)
    }

    /// A deterministic pick of an index in `0..n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn pick(&self, tag: impl fmt::Display, n: usize) -> usize {
        assert!(n > 0, "cannot pick from an empty range");
        (self.uniform(tag) * n as f64) as usize % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let d = Dice::new(7);
        assert_eq!(d.uniform("ctx", "t"), d.uniform("ctx", "t"));
        assert_eq!(d.chance("a", "b", 0.5), d.chance("a", "b", 0.5));
    }

    #[test]
    fn different_tags_decorrelate() {
        let d = Dice::new(7);
        let a = d.uniform("ctx", "one");
        let b = d.uniform("ctx", "two");
        assert_ne!(a, b);
    }

    #[test]
    fn uniform_in_range_and_spread() {
        let d = Dice::new(3);
        let mut sum = 0.0;
        let n = 2000;
        for i in 0..n {
            let u = d.uniform(&format!("c{i}"), "t");
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / f64::from(n);
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn chance_extremes() {
        let d = Dice::new(3);
        assert!(d.chance("x", "t", 1.0));
        assert!(!d.chance("x", "t", 0.0));
        assert!(d.chance("x", "t", 2.0), "clamped to 1");
    }

    #[test]
    fn pick_in_range() {
        let d = Dice::new(3);
        for i in 0..100 {
            let p = d.pick(&format!("c{i}"), "t", 7);
            assert!(p < 7);
        }
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn pick_zero_panics() {
        Dice::new(1).pick("a", "b", 0);
    }
}
