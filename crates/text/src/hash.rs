//! The workspace's hashes, in three roles — one for memory, one for bytes
//! written to disk, one for digests committed in ledgers — and the map
//! keyed by whole prompts.
//!
//! [`content_hash`] is the **memory** hash: a word-at-a-time multiply-fold
//! hash, 32 bytes per step as four little-endian words on two independent
//! lanes, each lane folding a 64×64→128-bit product back to 64 bits, with
//! the text length mixed into the seed and the tail zero-padded (so `"a"`
//! and `"a\0"` differ). It is deterministic and **unkeyed** — the same text
//! hashes the same in every process and on every platform — and it lives
//! **in memory only**: nothing persists it, so its constants may change.
//! Being unkeyed, texts can in principle be constructed to share a 64-bit
//! hash; they would then share a probe chain, which costs lookup time only
//! — every map that uses it still compares the full text.
//!
//! [`checksum64`] is the **persisted checksum**: the same fold under its
//! own frozen constant set, so it runs at the content hash's speed (about
//! 0.07 ns a byte against FNV-1a's 1.3) while the content hash stays free to
//! change. The cache store seals every `UDMCACHE2` frame with it; golden
//! values pin it, and changing it means a new store version.
//!
//! [`fnv1a64`] is the **digest** hash: byte-serial 64-bit FNV-1a, committed
//! in ledgers (trace and answer digests), so it must never change.
//!
//! [`PromptMap`] is a `HashMap<String, V>` whose hasher spends one
//! [`content_hash`] per key instead of a byte-serial SipHash: the layers
//! that keep per-prompt state (the fault injector's schedule slots, the
//! dispatcher's prompt table) key it by prompts of a kilobyte or two,
//! where the hash *is* the lookup. It is for whole-prompt keys only —
//! `String`, or an `Arc<str>` the map shares with another holder — a key
//! whose `Hash` makes many small writes pays one padded block per write
//! and is slower than SipHash.
//!
//! ```
//! use unidm_text::hash::{checksum64, content_hash, PromptMap};
//!
//! assert_ne!(content_hash("a"), content_hash("a\0"));
//! assert_ne!(checksum64(b"a"), content_hash("a"));
//!
//! let mut attempts: PromptMap<u32> = PromptMap::default();
//! *attempts.entry("which attributes help?".to_string()).or_default() += 1;
//! assert_eq!(attempts.get("which attributes help?"), Some(&1));
//! ```

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Multipliers of the content hash: the first 256 fractional bits of π.
const HASH_KEYS: [u64; 4] = [
    0x243f_6a88_85a3_08d3,
    0x1319_8a2e_0370_7344,
    0xa409_3822_299f_31d0,
    0x082e_fa98_ec4e_6c89,
];

/// Multipliers of the persisted checksum: the next 256 fractional bits of
/// π. Frozen — every `UDMCACHE2` frame on disk is sealed under them.
const CHECKSUM_KEYS: [u64; 4] = [
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6c,
    0xc0ac_29b7_c97c_50dd,
    0x3f84_d5b5_b547_0917,
];

/// The 64×64→128-bit product of `a` and `b`, folded back to 64 bits.
#[inline]
fn folded_multiply(a: u64, b: u64) -> u64 {
    let wide = u128::from(a) * u128::from(b);
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// One 32-byte step of the fold under `keys`: two independent lanes, each
/// folding 16 bytes (two little-endian words) into its running state.
#[inline]
fn hash_block(keys: &[u64; 4], lanes: (u64, u64), block: &[u8; 32]) -> (u64, u64) {
    let word = |at: usize| {
        let mut le = [0u8; 8];
        le.copy_from_slice(&block[at..at + 8]);
        u64::from_le_bytes(le)
    };
    (
        folded_multiply(word(0) ^ lanes.0, word(8) ^ keys[2]),
        folded_multiply(word(16) ^ lanes.1, word(24) ^ keys[3]),
    )
}

/// The word-at-a-time fold of `bytes` under `keys`: [`content_hash`]
/// under [`HASH_KEYS`] (and what a [`Hasher`] is handed), [`checksum64`]
/// under [`CHECKSUM_KEYS`].
#[inline]
fn fold(keys: &[u64; 4], bytes: &[u8]) -> u64 {
    let len = bytes.len() as u64;
    let mut lanes = (keys[0] ^ len, keys[1]);
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        lanes = hash_block(keys, lanes, block.try_into().expect("chunks_exact(32)"));
    }
    // The tail is zero-padded to one block; the length in the seed keeps
    // a text apart from the same text with trailing NULs.
    let rest = blocks.remainder();
    let mut tail = [0u8; 32];
    tail[..rest.len()].copy_from_slice(rest);
    lanes = hash_block(keys, lanes, &tail);
    folded_multiply(lanes.0 ^ keys[1], lanes.1 ^ len)
}

/// The content hash of `text` (see the [module docs](self)): word at a
/// time, deterministic, unkeyed, never persisted.
#[inline]
pub fn content_hash(text: &str) -> u64 {
    fold(&HASH_KEYS, text.as_bytes())
}

/// The persisted checksum of `bytes` (see the [module docs](self)): the
/// content hash's fold under a frozen constant set of its own.
///
/// ```
/// use unidm_text::hash::checksum64;
///
/// assert_eq!(checksum64(b"hello world"), 0xf0e5_f28a_1ca8_c95b);
/// assert_ne!(checksum64(b"a"), checksum64(b"a\0"));
/// ```
#[inline]
pub fn checksum64(bytes: &[u8]) -> u64 {
    fold(&CHECKSUM_KEYS, bytes)
}

/// The FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a of `bytes`: the digest hash for everything committed in
/// a ledger (see the [module docs](self)).
///
/// ```
/// use unidm_text::hash::{fnv1a64, fnv1a64_extend};
///
/// assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
/// assert_eq!(fnv1a64_extend(fnv1a64(b"ab"), b"c"), fnv1a64(b"abc"));
/// ```
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an [`fnv1a64`] digest: pieces digest as their concatenation.
#[inline]
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// The [`Hasher`] behind [`PromptMap`]: every `write` is one
/// [`content_hash`] of the bytes written, folded into the running state.
///
/// A `str` hashes as its bytes followed by a one-byte `0xff` terminator;
/// the single-byte write is mixed in directly instead of paying a padded
/// block.
#[derive(Debug, Default, Clone, Copy)]
pub struct PromptHasher(u64);

impl Hasher for PromptHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0 = self.0.rotate_left(32) ^ fold(&HASH_KEYS, bytes);
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by whole prompt texts, hashed with [`content_hash`].
/// Lookups borrow (`map.get(prompt: &str)`); equality still compares the
/// full text. Build one with `PromptMap::default()`.
pub type PromptMap<V, K = String> = HashMap<K, V, BuildHasherDefault<PromptHasher>>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_sees_every_byte_and_the_length() {
        // A zero-padded tail is told apart by the length in the seed.
        assert_ne!(content_hash("a"), content_hash("a\0"));
        assert_ne!(content_hash(""), content_hash("\0"));
        // One changed byte at every position of a text spanning several
        // 32-byte steps, and every prefix length.
        let text = "0123456789abcdefghijklmnopqrstuvwxyz".repeat(3);
        let hash = content_hash(&text);
        for at in 0..text.len() {
            let mut changed = text.clone().into_bytes();
            changed[at] ^= 1;
            let changed = String::from_utf8(changed).expect("ascii");
            assert_ne!(content_hash(&changed), hash, "byte {at} ignored");
            assert_ne!(content_hash(&text[..at]), hash, "prefix {at} collides");
        }
    }

    #[test]
    fn checksum64_is_pinned_and_sees_every_bit() {
        // Persisted: these values seal every `UDMCACHE2` frame on disk.
        let long = "0123456789abcdefghijklmnopqrstuvwxyz".repeat(5);
        let golden: [(&[u8], u64); 5] = [
            (b"", 0xadb9_abd8_ee60_6148),
            (b"a", 0x85ec_83dc_8b40_a532),
            (b"a\0", 0x7f68_6ca1_92d6_71d8),
            (b"hello world", 0xf0e5_f28a_1ca8_c95b),
            (long.as_bytes(), 0xde63_3247_a505_30d8),
        ];
        for (bytes, want) in golden {
            assert_eq!(checksum64(bytes), want, "checksum64 of {bytes:?}");
            assert_ne!(want, fold(&HASH_KEYS, bytes), "its own constants");
        }
        // One flipped bit anywhere in a text spanning several 32-byte steps.
        let sum = checksum64(long.as_bytes());
        for at in 0..long.len() * 8 {
            let mut flipped = long.clone().into_bytes();
            flipped[at / 8] ^= 1 << (at % 8);
            assert_ne!(checksum64(&flipped), sum, "bit {at} ignored");
        }
    }

    #[test]
    fn prompt_map_finds_string_keys_by_str_and_reads_the_last_byte() {
        let mut map: PromptMap<usize> = PromptMap::default();
        // Two prompts equal in their first 4 kB, different in the last byte.
        let stem = "Claim: the record's timezone is __. ".repeat(120);
        assert!(stem.len() > 4096);
        let (a, b) = (format!("{stem}a"), format!("{stem}b"));
        map.insert(a.clone(), 1);
        map.insert(b.clone(), 2);
        map.insert(String::new(), 3);
        assert_eq!(map.len(), 3, "a last-byte difference is a distinct key");
        assert_eq!(map.get(a.as_str()), Some(&1));
        assert_eq!(map.get(b.as_str()), Some(&2));
        assert_eq!(map.get(""), Some(&3));
        assert_eq!(map.get(stem.as_str()), None);
        *map.get_mut(b.as_str()).expect("found by &str") += 40;
        assert_eq!(map[b.as_str()], 42);
    }
}
