//! The tier-0 prompt cache: a sharded, canonicalizing, single-flight
//! prompt → completion memo layered over any [`LanguageModel`].
//!
//! Tasks on the same table issue near-identical retrieval (`p_rm`,
//! `p_ri`) and parsing (`p_dp`) prompts; a prompt-level memo turns that
//! redundancy into saved tokens and throughput. The cache composes:
//!
//! * **Canonical keys** ([`crate::canon`]) — prompts are keyed by their
//!   canonical text, so whitespace variants and (at
//!   [`CanonLevel::TableStem`]) per-row retrieval preambles share entries.
//!   Every resident key is canonical at the cache's level and
//!   canonicalization is idempotent, so a prompt equal to a resident key is
//!   served before anything canonicalizes it; other prompts go through
//!   [`CanonicalPrompt::canonicalize`], which borrows already-canonical
//!   prompts — a warm hit on a canonical prompt allocates nothing.
//! * **A fold memo** — at a level that folds lists, each shard also maps a
//!   rewritten raw prompt to the resident canonical key, the completion
//!   the answer came from and the answer, so a repeat is served without
//!   canonicalizing or adapting again, allocation-free.
//! * **One content hash per text** ([`unidm_text::hash::content_hash`]:
//!   word-at-a-time, deterministic, in memory only) — it selects the shard
//!   and rides in every key, so the maps hash those 8 bytes instead of the
//!   text and compare the full text only on a probe.
//! * **Shared tails** — a key is its first line plus a tail (the text
//!   after the first `\n`; a `p_ri` pool's prompts differ only in their
//!   query line). A miss copies once, into the `Arc<str>` its in-flight key
//!   and its resident entry share: only the first line when the cache's
//!   tail table holds the tail, otherwise the whole text, whose tail joins
//!   the table. A tail leaves it with the last key that holds it.
//! * **Sharding** — N independently locked maps (8 unless
//!   [`PromptCache::with_shards`] says otherwise).
//! * **Single-flight coalescing** — each shard keeps the set of keys being
//!   completed: the first lookup leads, and a duplicate arriving meanwhile
//!   in a window of [`crate::BatchRunner::with_pipeline`] is counted
//!   [`CacheStats::coalesced`] and submitted to the [`crate::RoutedBackend`]
//!   below, which attaches it to the leader's request. Nothing waits: a
//!   blocking [`LanguageModel::complete`] that finds its key in flight on
//!   another thread fetches the key itself (see [`CacheStats::misses`]).
//! * **Persistence** — [`PromptCache::with_store`] attaches a
//!   [`CacheStore`]: tier-0 misses probe the file under the same content
//!   hash before the model, and fresh completions are appended to it, so a
//!   second run over the same file answers without any model call.
//!
//! [`LanguageModel::complete`] is `lookup` (everything up to the fetch),
//! the fetch below, and `fill` (tier-0 insert, store offer, replay
//! adaptation, fold memo); the pipelined runner calls the halves itself.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use unidm_llm::{Completion, LanguageModel, LlmError, Usage};
use unidm_text::hash::{content_hash, PromptHasher};

use crate::canon::{CanonLevel, CanonicalPrompt, ReplayFold};
use crate::store::{CacheStore, StoreStats};

/// Hit/miss/saving statistics of a [`PromptCache`].
///
/// A hit is counted whatever a parser later makes of the reply: the cache
/// memoizes the model's text, so a reply the pipeline rejects (a `p_ri`
/// reply in which `read_pri` finds no score, so the run keeps no row) is
/// stored like any other, and a repeat of its prompt is a hit with no
/// second model call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Completions served from the cache.
    pub hits: usize,
    /// Tier-0 misses that fetched from below — the disk tier or the model:
    /// each key's leader, and a blocking [`LanguageModel::complete`] that
    /// found its key in flight on another thread. Nothing waits for a
    /// leader, so such a lookup fetches the key itself and inserts nothing.
    /// `misses` equals the fetches below under every interleaving (a
    /// coalesced lookup fetches nothing of its own); it equals the unique
    /// canonical keys completed only in serial and pipelined runs, where no
    /// two threads race on one key.
    pub misses: usize,
    /// Lookups of a pipelined window ([`crate::BatchRunner::with_pipeline`])
    /// that found their canonical key already in flight: the dispatcher
    /// below attaches each to the leader's request instead of issuing an
    /// endpoint call of its own. Always zero without a pipeline.
    pub coalesced: usize,
    /// Entries evicted to stay within capacity.
    pub evictions: usize,
    /// Tokens (prompt + completion) the model did not have to process
    /// because a hit or a coalesced lookup short-circuited the call; exact
    /// under every interleaving, since a lookup that fetched its key itself
    /// saves nothing.
    pub tokens_saved: usize,
}

impl CacheStats {
    /// Hit rate in `[0, 1]` (zero when nothing was looked up). Coalesced
    /// lookups count toward the numerator: they were served without an
    /// endpoint call of their own.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.coalesced + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.coalesced) as f64 / total as f64
        }
    }

    /// Total lookups accounted (hits, coalesced lookups, and misses).
    pub fn lookups(&self) -> usize {
        self.hits + self.coalesced + self.misses
    }

    /// Adds another stats snapshot into this one (used to aggregate
    /// per-shard statistics).
    pub fn merge(&mut self, other: CacheStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.coalesced += other.coalesced;
        self.evictions += other.evictions;
        self.tokens_saved += other.tokens_saved;
    }
}

/// One memoized completion: the shared payload plus its recency bit.
#[derive(Debug)]
struct CacheEntry {
    completion: Arc<Completion>,
    /// Second-chance bit: set on every hit, cleared when the clock hand
    /// sweeps past. An entry is evicted only if the hand finds the bit
    /// clear — i.e. it was not used for a whole revolution.
    referenced: bool,
}

/// What a probe needs of a key: a content hash and the text it hashes.
/// The maps are keyed by [`Key`] and probed through `&dyn KeyView`, so a
/// lookup borrows its [`CanonicalPrompt`] — or a `(hash, text)` pair: the
/// raw prompt, or the disk tier's index text — instead of building an
/// owned key. The text comes in two parts, read one after the other: a
/// resident key's first line and its shared tail, or a whole text and `""`.
pub(crate) trait KeyView {
    fn hash64(&self) -> u64;
    fn parts(&self) -> (&str, &str);
}

impl KeyView for CanonicalPrompt<'_> {
    fn hash64(&self) -> u64 {
        CanonicalPrompt::hash64(self)
    }

    fn parts(&self) -> (&str, &str) {
        (CanonicalPrompt::text(self), "")
    }
}

/// A text with its already-computed [`unidm_text::hash::content_hash`].
impl KeyView for (u64, &str) {
    fn hash64(&self) -> u64 {
        self.0
    }

    fn parts(&self) -> (&str, &str) {
        (self.1, "")
    }
}

/// Whether two texts given in parts ([`KeyView::parts`]) are equal: one
/// `memcmp` for two whole texts, at most three otherwise.
fn same_text(a: (&str, &str), b: (&str, &str)) -> bool {
    if a.1.is_empty() && b.1.is_empty() {
        return a.0 == b.0;
    }
    // `a` has the shorter head, so its tail opens with the rest of `b`'s.
    if a.0.len() > b.0.len() {
        return same_text(b, a);
    }
    let (b_head, b_rest) = b.0.as_bytes().split_at(a.0.len());
    let a_tail = a.1.as_bytes();
    a.0.len() + a.1.len() == b.0.len() + b.1.len()
        && a.0.as_bytes() == b_head
        && a_tail.starts_with(b_rest)
        && a_tail[b_rest.len()..] == *b.1.as_bytes()
}

/// Hashing a key writes only the precomputed content hash — the text is
/// never hashed again after canonicalization.
impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

/// Key equality is always decided by the full text; the hash comparison
/// in front of it only skips the `memcmp` for chain neighbours, and the
/// pointer comparison skips it for two clones of one key.
impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.parts(), other.parts());
        self.hash64() == other.hash64()
            && ((std::ptr::eq(a.0, b.0) && std::ptr::eq(a.1, b.1)) || same_text(a, b))
    }
}

impl Eq for dyn KeyView + '_ {}

/// The tail of `text`: what follows its first `\n`, when anything does.
fn tail_of(text: &str) -> Option<&str> {
    let at = text.find('\n')? + 1;
    (at < text.len()).then(|| &text[at..])
}

/// An owned whole-text key: the canonical text, shared (`Arc<str>`)
/// between the disk tier's index, FIFO queue and compaction order, or the
/// raw prompt the fold memo is keyed by, plus its content hash.
#[derive(Clone)]
pub(crate) struct Key {
    hash: u64,
    pub(crate) text: Arc<str>,
}

impl Key {
    /// The one copy of `text` an owned key makes; `hash` is its content
    /// hash.
    pub(crate) fn new(hash: u64, text: &str) -> Key {
        Key {
            hash,
            text: Arc::from(text),
        }
    }
}

impl KeyView for Key {
    fn hash64(&self) -> u64 {
        self.hash
    }

    fn parts(&self) -> (&str, &str) {
        (&self.text, "")
    }
}

/// A tier-0 key, shared (by `Arc`) between the resident entry, its
/// eviction-ring slot, the in-flight key that preceded them and the fold
/// memo: its content hash and its text, as a first line and a tail. It
/// holds its whole text when it registered its tail in the tail table (or
/// has none), and only its first line, plus the registering key's copy,
/// when another key had ([`PromptCache::key_of`]).
#[derive(Clone)]
pub(crate) struct SharedKey {
    hash: u64,
    /// The content hash of the tail, when the key has one.
    tail_hash: u64,
    /// The key's one copy: its whole text, or its first line when `tail`
    /// holds the rest.
    own: Arc<str>,
    /// The whole copy of the key that registered this key's tail: the
    /// tail is what follows that copy's first line.
    tail: Option<Arc<str>>,
}

impl SharedKey {
    /// The text after the first line, when anything follows it.
    fn tail(&self) -> Option<&str> {
        tail_of(self.tail.as_deref().unwrap_or(&self.own))
    }

    /// The text, joined.
    fn to_text(&self) -> String {
        let (head, tail) = self.parts();
        [head, tail].concat()
    }

    /// The disk tier's key for this text: the same copy when this key
    /// holds its whole text.
    fn whole(&self) -> Key {
        let text = match self.tail {
            None => self.own.clone(),
            Some(_) => Arc::from(self.to_text()),
        };
        Key {
            hash: self.hash,
            text,
        }
    }
}

impl KeyView for SharedKey {
    fn hash64(&self) -> u64 {
        self.hash
    }

    fn parts(&self) -> (&str, &str) {
        match &self.tail {
            Some(copy) => (&self.own, tail_of(copy).unwrap_or_default()),
            // Empty, but at one address for every clone of the key.
            None => (&self.own, &self.own[self.own.len()..]),
        }
    }
}

/// A tail-table key: the whole copy of the key that registered a tail —
/// the tail is what follows its first line — under the tail's content
/// hash.
struct TailKey {
    hash: u64,
    copy: Arc<str>,
}

impl KeyView for TailKey {
    fn hash64(&self) -> u64 {
        self.hash
    }

    fn parts(&self) -> (&str, &str) {
        (tail_of(&self.copy).unwrap_or_default(), "")
    }
}

/// `Borrow` requires an owned key to hash and compare exactly like its
/// borrowed view.
macro_rules! owned_key {
    ($key:ty) => {
        impl<'a> Borrow<dyn KeyView + 'a> for $key {
            fn borrow(&self) -> &(dyn KeyView + 'a) {
                self
            }
        }

        impl Hash for $key {
            fn hash<H: Hasher>(&self, state: &mut H) {
                (self as &dyn KeyView).hash(state);
            }
        }

        impl PartialEq for $key {
            fn eq(&self, other: &Self) -> bool {
                (self as &dyn KeyView) == (other as &dyn KeyView)
            }
        }

        impl Eq for $key {}
    };
}

owned_key!(Key);
owned_key!(SharedKey);
owned_key!(TailKey);

/// Each tail of a tier-0 key, once, with the number of keys — in flight or
/// resident — that hold it. The table is not sharded, so it hashes the
/// tail's content hash with a plain fold instead of a keyed `RandomState`.
type Tails = HashMap<TailKey, Cell<u32>, BuildHasherDefault<PromptHasher>>;

/// What one rewritten raw prompt canonicalized to, kept by the fold memo:
/// the resident canonical key, the canonical completion the answer came
/// from, and the answer — the fold's adaptation of it, or the completion
/// itself when nothing was reordered.
#[derive(Clone)]
struct Folded {
    canonical: SharedKey,
    from: Arc<Completion>,
    answer: Arc<Completion>,
}

#[derive(Default)]
struct CacheInner {
    /// canonical key → memoized completion. Probed through a borrowed
    /// [`KeyView`], so a warm hit allocates nothing.
    entries: HashMap<SharedKey, CacheEntry>,
    /// Second-chance eviction ring: every resident key, in insertion
    /// order, with `hand` pointing at the next eviction candidate. An
    /// evicted slot is reused in place by the entry that displaced it, so
    /// the ring never reallocates once the shard is full. An unbounded
    /// shard never evicts, and keeps it empty.
    ring: Vec<SharedKey>,
    hand: usize,
    /// Canonical keys a leader is completing.
    inflight: HashSet<SharedKey>,
    /// The fold memo, at a level that folds lists: raw prompt (its own
    /// content hash, compared in full) → what canonicalization that
    /// rewrote it produced. The shard is picked by the raw text's hash,
    /// not the canonical one's. Cleared when it reaches the shard's
    /// capacity.
    folds: HashMap<Key, Folded>,
    stats: CacheStats,
}

impl CacheInner {
    /// Serves `key` from the resident entries: refreshes its recency bit
    /// in place, accounts the hit and bumps the stored completion's
    /// reference count.
    fn hit(&mut self, key: &dyn KeyView) -> Option<Arc<Completion>> {
        self.hit_if(key, |_| true)
    }

    /// [`CacheInner::hit`] on an entry whose completion passes `holds`;
    /// an entry that fails it is left as it is, and nothing is counted.
    fn hit_if(
        &mut self,
        key: &dyn KeyView,
        holds: impl FnOnce(&Arc<Completion>) -> bool,
    ) -> Option<Arc<Completion>> {
        let entry = self.entries.get_mut(key).filter(|e| holds(&e.completion))?;
        entry.referenced = true;
        let completion = entry.completion.clone();
        self.stats.hits += 1;
        self.stats.tokens_saved += completion.usage.total();
        Some(completion)
    }

    /// Inserts `key`, evicting one entry by second-chance
    /// when the shard is at `capacity`; returns the evicted key.
    ///
    /// Eviction is O(1) amortized: the clock hand sweeps the ring,
    /// clearing reference bits until it finds an entry not used since the
    /// last revolution — each resident entry is touched at most once per
    /// revolution, however full the shard is. The hit path refreshes
    /// recency by setting the reference bit in place — no ordered index,
    /// no allocation.
    ///
    /// Victim choice is deterministic for a deterministic operation
    /// order: the hand position and every reference bit are pure
    /// functions of the insert/hit sequence. `stats.evictions` stays
    /// exact — exactly one eviction per insert beyond capacity.
    fn insert(
        &mut self,
        key: SharedKey,
        completion: Arc<Completion>,
        capacity: usize,
    ) -> Option<SharedKey> {
        // Only a key's leader inserts it, and only after a miss.
        debug_assert!(!self.entries.contains_key(&key), "one leader per key");
        let entry = CacheEntry {
            completion,
            // A fresh entry starts unreferenced: it earns its second
            // chance on first re-use, so a one-pass scan of cold keys
            // cannot flush the referenced working set.
            referenced: false,
        };
        let evicted = if self.entries.len() >= capacity {
            let slot = self.evict_one();
            Some(std::mem::replace(&mut self.ring[slot], key.clone()))
        } else {
            if capacity != usize::MAX {
                self.ring.push(key.clone());
            }
            None
        };
        self.entries.insert(key, entry);
        evicted
    }

    /// Runs the clock hand until it claims a victim; removes the victim
    /// from the map and returns its (now free) ring slot.
    fn evict_one(&mut self) -> usize {
        debug_assert!(!self.ring.is_empty(), "eviction needs a resident entry");
        loop {
            if self.hand >= self.ring.len() {
                self.hand = 0;
            }
            let key = self.ring[self.hand].clone();
            let entry = self
                .entries
                .get_mut(&key)
                .expect("every ring key is resident");
            if entry.referenced {
                entry.referenced = false;
                self.hand += 1;
            } else {
                let slot = self.hand;
                self.entries.remove(&key);
                self.stats.evictions += 1;
                self.hand += 1;
                return slot;
            }
        }
    }
}

/// A concurrent prompt → completion memo layered over any
/// [`LanguageModel`] (the [module docs](self) describe its mechanisms).
///
/// The cache is itself a `LanguageModel`, so it slots transparently under
/// [`crate::UniDm`] or [`crate::BatchRunner`]: repeated prompts —
/// retrieval and parsing calls shared by tasks on the same table,
/// duplicate final claims — are answered from memory without consuming
/// model tokens.
///
/// # Keying, allocation and accounting
///
/// Lookups are keyed by [`CanonicalPrompt::canonicalize`] at the cache's
/// [`CanonLevel`] (default [`CanonLevel::Verbatim`], i.e. exact
/// memoization), fixed before the cache serves. A miss completes the
/// *canonical* text rather than the raw variant, so the memo is a pure
/// function of the canonical key: whichever run fills an entry, serial
/// and pipelined batches stay bit-for-bit equal.
///
/// A warm hit on a canonical prompt, or on a rewritten prompt the fold
/// memo holds, allocates nothing (the bench suite asserts it with a
/// counting allocator); a first-seen rewrite pays its buffers and one
/// memo entry, and a bounded cache clears a memo shard at the shard's
/// entry capacity. [`PromptCache::len`] never counts memo entries.
///
/// Statistics are counted per shard under its lock and aggregated by
/// [`PromptCache::stats`]. A served completion reports the usage of the
/// call that filled its entry — the canonical text's — so per-run usage is
/// identical with and without the cache at [`CanonLevel::Verbatim`], and
/// off by a few tokens per rewritten prompt above it. The inner model's
/// counter only grows on misses; the difference is
/// [`CacheStats::tokens_saved`].
///
/// # Examples
///
/// ```
/// use unidm::{CanonLevel, PromptCache};
/// use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
/// use unidm_world::World;
///
/// let world = World::generate(42);
/// let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
/// let cache = PromptCache::unbounded(&llm)
///     .with_shards(4)
///     .with_canonicalization(CanonLevel::Whitespace);
///
/// let a = cache.complete("The quick  brown fox").unwrap();
/// let b = cache.complete("The quick brown fox").unwrap(); // whitespace variant: hit
/// assert_eq!(a, b);
/// assert_eq!(cache.stats().hits, 1);
/// assert_eq!(cache.stats().tokens_saved, a.usage.total());
/// ```
pub struct PromptCache<'a> {
    inner: &'a dyn LanguageModel,
    capacity: usize,
    shard_capacity: usize,
    level: CanonLevel,
    shards: Box<[Mutex<CacheInner>]>,
    /// Optional disk tier ([`CacheStore`]): tier-0 misses probe it before
    /// reaching the model, and fresh completions are offered back through
    /// its admission filter. The tier-0 hit path never touches it, so the
    /// zero-allocation warm hit is unchanged.
    store: Option<CacheStore>,
    /// The tail table, one for all shards: the keys of one candidate pool
    /// spread over every shard. Locked after a shard's lock, never before.
    tails: Mutex<Tails>,
}

impl std::fmt::Debug for PromptCache<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PromptCache")
            .field("inner", &self.inner.name())
            .field("capacity", &self.capacity)
            .field("shards", &self.shards.len())
            .field("level", &self.level)
            .field("stats", &self.stats())
            .field("store", &self.store.as_ref().map(|s| s.path()))
            .finish()
    }
}

/// The shard count [`PromptCache::new`] starts with. A batch runs on one
/// thread, so shards rarely contend; the count stays because per-shard
/// capacity decides which entries a bounded cache evicts.
const DEFAULT_SHARDS: usize = 8;

fn build_shards(n: usize) -> Box<[Mutex<CacheInner>]> {
    (0..n).map(|_| Mutex::new(CacheInner::default())).collect()
}

impl<'a> PromptCache<'a> {
    /// Creates a cache holding at most `capacity` completions
    /// (second-chance eviction), split across 8 shards.
    ///
    /// The capacity budget is divided evenly across shards (each shard
    /// gets at least one slot), so with very small capacities the
    /// effective bound is `shards × 1`; use [`PromptCache::with_shards`]
    /// to control the split.
    pub fn new(inner: &'a dyn LanguageModel, capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut cache = PromptCache {
            inner,
            capacity,
            shard_capacity: 0,
            level: CanonLevel::Verbatim,
            shards: build_shards(DEFAULT_SHARDS),
            store: None,
            tails: Mutex::default(),
        };
        cache.shard_capacity = cache.capacity_per_shard();
        cache
    }

    /// Creates a cache that never evicts.
    pub fn unbounded(inner: &'a dyn LanguageModel) -> Self {
        Self::new(inner, usize::MAX)
    }

    /// Sets the shard count (rounded up to a power of two, minimum 1).
    /// Builder-style, on an empty cache: entries are not migrated.
    ///
    /// # Panics
    ///
    /// If the cache already holds an entry.
    pub fn with_shards(mut self, shards: usize) -> Self {
        assert!(self.is_empty(), "configure a PromptCache before it serves");
        self.shards = build_shards(shards.max(1).next_power_of_two());
        self.shard_capacity = self.capacity_per_shard();
        self
    }

    /// Sets the canonicalization level. Builder-style, on an empty cache:
    /// entries are not re-keyed, and a lookup trusts that every resident
    /// key is canonical at the cache's level.
    ///
    /// # Panics
    ///
    /// If the cache already holds an entry.
    pub fn with_canonicalization(mut self, level: CanonLevel) -> Self {
        assert!(self.is_empty(), "configure a PromptCache before it serves");
        self.level = level;
        self
    }

    /// Attaches a disk tier ([`CacheStore`]) beneath the in-memory shards.
    /// Builder-style; intended at construction time.
    ///
    /// Tier-0 misses probe the store before reaching the model (a disk hit
    /// populates tier 0 and never calls the model), and fresh completions
    /// are offered back to the store through its TinyLFU admission filter.
    /// Tier-0 hits never touch the store, so the zero-allocation warm hit
    /// is unchanged. Disk-tier traffic is accounted in [`StoreStats`]
    /// (via [`PromptCache::store_stats`]), not [`CacheStats`]: the two
    /// tiers keep independent exact counters, and a disk hit counts as a
    /// tier-0 miss exactly like any other completion the cache had to
    /// fetch from below.
    pub fn with_store(mut self, store: CacheStore) -> Self {
        self.store = Some(store);
        self
    }

    /// The attached disk tier, if any.
    pub fn store(&self) -> Option<&CacheStore> {
        self.store.as_ref()
    }

    /// A snapshot of the disk tier's counters, if a store is attached.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store.as_ref().map(|s| s.stats())
    }

    /// The canonicalization level lookups run at.
    pub fn level(&self) -> CanonLevel {
        self.level
    }

    /// The number of independently locked shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The total completion capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn capacity_per_shard(&self) -> usize {
        if self.capacity == usize::MAX {
            usize::MAX
        } else {
            self.capacity.div_ceil(self.shards.len()).max(1)
        }
    }

    fn shard_for_hash(&self, hash: u64) -> &Mutex<CacheInner> {
        // Shard count is a power of two, so masking the content hash
        // picks a shard uniformly. The maps inside a shard re-hash it under
        // a keyed `RandomState`, so bucket choice does not reuse these bits.
        let index = (hash as usize) & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Locks a shard, recovering from poison: the shard state is a plain
    /// map plus counters, valid at every instruction boundary, so a caller
    /// that panicked while holding the lock cannot leave it corrupt — and
    /// must not wedge every other caller of the cache.
    fn lock_shard<'s>(&self, shard: &'s Mutex<CacheInner>) -> MutexGuard<'s, CacheInner> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Locks the tail table, recovering from poison like a shard.
    fn lock_tails(&self) -> MutexGuard<'_, Tails> {
        self.tails.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The leader's one copy of `canonical`'s text: its first line alone
    /// when a key already holds its tail in the tail table, otherwise the
    /// whole text, whose tail — if any — joins the table as a slice of
    /// that copy. One hash of the tail and one probe either way.
    fn key_of(&self, canonical: &CanonicalPrompt<'_>) -> SharedKey {
        let (hash, text) = (canonical.hash64(), canonical.text());
        let key = |tail_hash, own, tail| SharedKey {
            hash,
            tail_hash,
            own,
            tail,
        };
        let Some(tail) = tail_of(text) else {
            return key(0, Arc::from(text), None);
        };
        let tail_hash = content_hash(tail);
        let mut tails = self.lock_tails();
        if let Some((shared, holders)) = tails.get_key_value(&(tail_hash, tail) as &dyn KeyView) {
            holders.set(holders.get() + 1);
            let head = Arc::from(&text[..text.len() - tail.len()]);
            return key(tail_hash, head, Some(shared.copy.clone()));
        }
        let copy: Arc<str> = Arc::from(text);
        let shared = TailKey {
            hash: tail_hash,
            copy: copy.clone(),
        };
        tails.insert(shared, Cell::new(1));
        key(tail_hash, copy, None)
    }

    /// Drops the hold a key made by [`PromptCache::key_of`] has on its
    /// tail, once the key leaves tier 0 (evicted, or its fetch failed): the
    /// tail leaves the table with its last holder.
    fn release(&self, key: &SharedKey) {
        if let Some(tail) = key.tail() {
            let mut tails = self.lock_tails();
            let held = tails.remove_entry(&(key.tail_hash, tail) as &dyn KeyView);
            if let Some((shared, holders)) = held.filter(|(_, holders)| holders.get() > 1) {
                holders.set(holders.get() - 1);
                tails.insert(shared, holders);
            }
        }
    }

    /// A snapshot of the aggregated hit/miss/eviction statistics.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            total.merge(self.lock_shard(shard).stats);
        }
        total
    }

    /// The canonical prompt texts currently memoized, sorted — the keys a
    /// warm lookup hits verbatim. Deterministic for a deterministic
    /// workload, whatever the shard layout.
    pub fn canonical_prompts(&self) -> Vec<String> {
        let mut texts: Vec<String> = self
            .shards
            .iter()
            .flat_map(|shard| {
                self.lock_shard(shard)
                    .entries
                    .keys()
                    .map(SharedKey::to_text)
                    .collect::<Vec<_>>()
            })
            .collect();
        texts.sort();
        texts
    }

    /// Number of completions currently held across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| self.lock_shard(shard).entries.len())
            .sum()
    }

    /// Whether the cache holds no completions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl LanguageModel for PromptCache<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        match self.lookup(prompt, false) {
            Lookup::Hit(answer) => Ok(answer),
            // The canonical text is completed below without holding any
            // lock, by the leader or by a lookup that lost the race to it.
            Lookup::Miss(miss, canonical) => {
                let result = self.inner.complete(canonical.text());
                self.fill(miss, result)
            }
        }
    }

    fn usage(&self) -> Usage {
        // Tokens the inner model actually processed; cache hits do not
        // appear here. Per-run attribution happens in `UniDm::run`.
        self.inner.usage()
    }

    fn reset_usage(&self) {
        self.inner.reset_usage();
    }

    fn context_window(&self) -> usize {
        self.inner.context_window()
    }
}

impl PromptCache<'_> {
    /// Serves `prompt` (raw content hash `hash`) without canonicalizing
    /// it, counting the hit exactly as the canonicalizing path would:
    ///
    /// * a prompt equal to a resident key is served from that entry. Every
    ///   resident key is canonical at the cache's level and
    ///   canonicalization is idempotent, so such a prompt is its own
    ///   canonical form, and its raw hash is the key's;
    /// * otherwise, a rewritten prompt in the fold memo is served while the
    ///   canonical entry it maps to is resident and still holds the
    ///   completion its memoized answer came from.
    ///
    /// The raw hash's shard is probed for both, then the entry's shard is
    /// locked for the second, one after the other. `None` (nothing
    /// counted) sends the lookup down the canonicalizing path, which
    /// memoizes a rewritten prompt afresh.
    fn serve_warm(&self, hash: u64, prompt: &str) -> Option<Arc<Completion>> {
        let memo = {
            let raw = (hash, prompt);
            let mut shard = self.lock_shard(self.shard_for_hash(hash));
            if let Some(completion) = shard.hit(&raw) {
                return Some(completion);
            }
            shard.folds.get(&raw as &dyn KeyView)?.clone()
        };
        // `memo.from` keeps its allocation alive, so a refilled entry can
        // never hold a completion at the same address.
        self.lock_shard(self.shard_for_hash(memo.canonical.hash))
            .hit_if(&memo.canonical, |held| Arc::ptr_eq(held, &memo.from))?;
        Some(memo.answer)
    }

    /// Looks `prompt` up without waiting: served from tier 0, the fold
    /// memo or the disk tier, or a [`Miss`]. A miss leads its key (it put
    /// the key in flight and counts a miss) or found the key already in
    /// flight: with `coalesce` (a pipelined window, whose dispatcher
    /// attaches it to the leader's request) it counts coalesced, otherwise
    /// it counts a miss and fetches the key itself. Complete the miss's
    /// canonical text below and hand the result to [`PromptCache::fill`].
    #[inline]
    pub(crate) fn lookup<'p>(&self, prompt: &'p str, coalesce: bool) -> Lookup<'_, 'p> {
        // The one hash of the raw text: a warm prompt is served by it
        // alone, and a borrowed canonical text reuses it.
        let hash = content_hash(prompt);
        match self.serve_warm(hash, prompt) {
            Some(served) => Lookup::Hit(served),
            None => self.lookup_canonical(hash, prompt, coalesce),
        }
    }

    /// [`PromptCache::lookup`] past the raw probe: canonicalization, tier
    /// 0, the in-flight table and the disk tier.
    fn lookup_canonical<'p>(&self, hash: u64, prompt: &'p str, coalesce: bool) -> Lookup<'_, 'p> {
        let mut canonical = CanonicalPrompt::canonicalize_hashed(prompt, self.level, hash);
        // A rewrite at a level that folds lists is memoized by its raw text.
        let memoized = !canonical.is_borrowed() && self.level.folds_lists();
        let shard = self.shard_for_hash(canonical.hash64());
        let mut state = self.lock_shard(shard);
        if let Some(completion) = state.hit(&canonical) {
            // The memo shares the resident entry's key, so it never copies
            // the canonical text.
            let resident = memoized
                .then(|| state.entries.get_key_value(&canonical as &dyn KeyView))
                .flatten()
                .map(|(key, _)| key.clone());
            drop(state);
            let answer = adapt(canonical.replay(), &completion);
            if let Some(key) = resident {
                let raw = (hash, prompt);
                self.memoize(&raw, || Key::new(hash, prompt), key, completion, &answer);
            }
            return Lookup::Hit(answer);
        }
        let (key, leads) = match state.inflight.get(&canonical as &dyn KeyView).cloned() {
            Some(key) => (key, false),
            None => {
                // The miss's one copy of the text: the in-flight set holds
                // it now, the resident entry later.
                let key = self.key_of(&canonical);
                state.inflight.insert(key.clone());
                (key, true)
            }
        };
        let coalesced = !leads && coalesce;
        if coalesced {
            state.stats.coalesced += 1;
        } else {
            state.stats.misses += 1;
        }
        drop(state);
        let miss = Miss {
            cache: self,
            replay: canonical.take_replay(),
            // A lookup that fetches a key in flight inserts nothing, not
            // even into the fold memo.
            raw: (memoized && (leads || coalesced)).then(|| Key::new(hash, prompt)),
            key,
            leads,
            coalesced,
        };
        if let (true, Some(store)) = (leads, &self.store) {
            // The disk tier, probed under the canonicalizer's hash: a hit
            // there fills tier 0 without reaching below.
            if let Some(completion) = store.get_hashed(miss.key.hash, canonical.text()) {
                return Lookup::Hit(
                    self.settle(miss, Ok(completion), false)
                        .expect("a hit is Ok"),
                );
            }
        }
        Lookup::Miss(miss, canonical)
    }

    /// Settles `miss` with `result`, the completion of its canonical text
    /// from below: a leader inserts a success into tier 0 and the disk tier
    /// and clears its in-flight key (an error is not memoized: the next
    /// lookup retries), and a coalesced lookup counts its success saved.
    /// Returns the answer in the prompt's own element order.
    pub(crate) fn fill(
        &self,
        miss: Miss<'_>,
        result: Result<Arc<Completion>, LlmError>,
    ) -> Result<Arc<Completion>, LlmError> {
        self.settle(miss, result, true)
    }

    /// [`PromptCache::fill`]; `fetched` says whether `result` came from
    /// the model (and is offered to the disk tier) rather than the store.
    fn settle(
        &self,
        mut miss: Miss<'_>,
        result: Result<Arc<Completion>, LlmError>,
        fetched: bool,
    ) -> Result<Arc<Completion>, LlmError> {
        let resident = {
            let mut state = self.lock_shard(self.shard_for_hash(miss.key.hash));
            if miss.leads {
                // An evicted key leaves tier 0, or this one, never resident.
                let leaves = match &result {
                    Ok(completion) => {
                        state.insert(miss.key.clone(), completion.clone(), self.shard_capacity)
                    }
                    Err(_) => Some(miss.key.clone()),
                };
                if let Some(key) = leaves {
                    self.release(&key);
                }
                state.inflight.remove(&miss.key);
            } else if let (true, Ok(completion)) = (miss.coalesced, &result) {
                // The leader's endpoint call covered this lookup too:
                // account the share like a hit's saving.
                state.stats.tokens_saved += completion.usage.total();
            }
            miss.raw.is_some() && state.entries.contains_key(&miss.key)
        };
        if std::mem::take(&mut miss.leads) {
            if let (true, Some(store), Ok(completion)) = (fetched, &self.store, &result) {
                store.offer_with(&miss.key, || miss.key.whole(), completion);
            }
        }
        let completion = result?;
        let answer = adapt(miss.replay.as_ref(), &completion);
        if let (true, Some(raw)) = (resident, miss.raw.take()) {
            let key = miss.key.clone();
            self.memoize(&raw, || raw.clone(), key, completion, &answer);
        }
        Ok(answer)
    }

    /// Records that the raw prompt `raw` was rewritten to the resident key
    /// `canonical`, whose completion `from` answered it as `answer`;
    /// `owned` builds the memo's own key when `raw` is new to it. A memo
    /// shard already holding a shard's capacity of entries is cleared first.
    fn memoize(
        &self,
        raw: &dyn KeyView,
        owned: impl FnOnce() -> Key,
        canonical: SharedKey,
        from: Arc<Completion>,
        answer: &Arc<Completion>,
    ) {
        let folded = Folded {
            canonical,
            from,
            answer: answer.clone(),
        };
        let mut memo = self.lock_shard(self.shard_for_hash(raw.hash64()));
        if let Some(slot) = memo.folds.get_mut(raw) {
            *slot = folded;
            return;
        }
        if memo.folds.len() >= self.shard_capacity {
            memo.folds.clear();
        }
        memo.folds.insert(owned(), folded);
    }
}

/// A completion of the canonical text as the prompt asked for it: a v2
/// fold that reordered the prompt replays it permutation-corrected into
/// the prompt's own element order.
fn adapt(replay: Option<&ReplayFold>, completion: &Arc<Completion>) -> Arc<Completion> {
    match replay {
        Some(fold) => Arc::new(fold.adapt(completion)),
        None => completion.clone(),
    }
}

/// What [`PromptCache::lookup`] found.
pub(crate) enum Lookup<'c, 'p> {
    /// The answer, served without reaching below the cache.
    Hit(Arc<Completion>),
    /// A tier-0 miss: complete the canonical prompt's text below — the
    /// lookup's own, not a copy — then fill the miss.
    Miss(Miss<'c>, CanonicalPrompt<'p>),
}

/// A tier-0 miss between [`PromptCache::lookup`] and [`PromptCache::fill`].
/// A leader dropped unfilled (its fetch unwound) clears its in-flight key
/// and its hold on the key's tail, so the next lookup of the key leads
/// afresh.
pub(crate) struct Miss<'c> {
    cache: &'c PromptCache<'c>,
    /// The canonical key.
    key: SharedKey,
    replay: Option<ReplayFold>,
    /// The raw prompt under its own hash, when the fold memo learns it.
    raw: Option<Key>,
    /// Whether this lookup put the key in flight and has yet to clear it.
    leads: bool,
    /// Whether it found the key in flight and coalesced onto the leader.
    coalesced: bool,
}

impl Drop for Miss<'_> {
    fn drop(&mut self) {
        if self.leads {
            let cache = self.cache;
            (cache.lock_shard(cache.shard_for_hash(self.key.hash)))
                .inflight
                .remove(&self.key);
            cache.release(&self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_world::World;

    fn setup() -> (World, MockLlm) {
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt4_turbo(), 1);
        (world, llm)
    }

    /// The mock, but for `p_ri` prompts, which it answers with text no
    /// parser reads; it counts its calls.
    struct GarbledScores<'a> {
        inner: &'a MockLlm,
        calls: std::sync::atomic::AtomicUsize,
        pri_calls: std::sync::atomic::AtomicUsize,
    }

    impl LanguageModel for GarbledScores<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
            use std::sync::atomic::Ordering::Relaxed;
            self.calls.fetch_add(1, Relaxed);
            if unidm_llm::protocol::PriPrompt::read(prompt).is_some() {
                self.pri_calls.fetch_add(1, Relaxed);
                return Ok(Completion::shared(
                    "no scores here".into(),
                    Usage::default(),
                ));
            }
            self.inner.complete(prompt)
        }

        fn usage(&self) -> Usage {
            self.inner.usage()
        }

        fn reset_usage(&self) {
            self.inner.reset_usage();
        }
    }

    #[test]
    fn a_reply_the_pipeline_rejects_is_memoized_like_any_other() {
        use std::sync::atomic::Ordering::Relaxed;
        let (world, llm) = setup();
        let model = GarbledScores {
            inner: &llm,
            calls: Default::default(),
            pri_calls: Default::default(),
        };
        let cache = PromptCache::unbounded(&model);
        let ds = unidm_synthdata::imputation::restaurant(&world, 3, 4);
        let lake: unidm_tablestore::DataLake = [ds.table.clone()].into_iter().collect();
        let task = crate::Task::imputation(ds.table.name(), ds.targets[0].row, "city", "name");
        let config = crate::PipelineConfig::paper_default();
        let first = crate::UniDm::new(&cache, config).run(&lake, &task).unwrap();
        assert_eq!(model.pri_calls.load(Relaxed), 1);
        assert!(
            first.trace.context_records.is_empty(),
            "read_pri's fallback: no score read, no row kept"
        );
        let (calls, before) = (model.calls.load(Relaxed), cache.stats());
        let second = crate::UniDm::new(&cache, config).run(&lake, &task).unwrap();
        assert_eq!(second, first);
        assert_eq!(
            model.calls.load(Relaxed),
            calls,
            "the repeat made no model call, the rejected p_ri reply included"
        );
        let after = cache.stats();
        assert_eq!(
            (after.hits - before.hits, after.misses),
            (calls, before.misses),
            "every prompt of the repeat hit"
        );
    }

    #[test]
    fn cache_hits_repeated_prompts_and_saves_tokens() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm);
        let a = cache.complete("The quick brown fox").unwrap();
        assert_eq!(
            cache.stats(),
            CacheStats {
                misses: 1,
                ..CacheStats::default()
            }
        );
        let b = cache.complete("The quick brown fox").unwrap();
        assert_eq!(a, b, "hit must return the memoized completion verbatim");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(stats.tokens_saved, a.usage.total());
        // The inner model processed the prompt exactly once.
        assert_eq!(llm.usage(), a.usage);
    }

    #[test]
    fn disk_tier_serves_cold_process_without_model_calls() {
        use crate::store::{CacheStore, StoreConfig};
        let dir = std::env::temp_dir().join(format!("udm-exec-tier-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.udmstore");
        let _ = std::fs::remove_file(&path);
        let (_, llm) = setup();

        // First process: misses go to the model and are offered to the
        // disk tier (admit-all below capacity).
        let warm = {
            let store = CacheStore::open(&path, llm.name(), StoreConfig::default()).unwrap();
            let cache = PromptCache::unbounded(&llm).with_store(store);
            let a = cache.complete("The quick brown fox").unwrap();
            let b = cache.complete("The quick brown fox").unwrap();
            assert_eq!(a, b);
            let stats = cache.store_stats().unwrap();
            assert_eq!(
                (stats.hits, stats.misses, stats.admitted),
                (0, 1, 1),
                "tier-0 hit must not touch the store"
            );
            a
        };
        let calls_after_first = llm.usage();

        // Second process (fresh tier 0, same file): the disk tier answers
        // and the model is never called.
        let store = CacheStore::open(&path, llm.name(), StoreConfig::default()).unwrap();
        let cache = PromptCache::unbounded(&llm).with_store(store);
        let replay = cache.complete("The quick brown fox").unwrap();
        assert_eq!(replay.text, warm.text);
        assert_eq!(replay.usage, warm.usage, "disk hit replays original usage");
        assert_eq!(
            llm.usage(),
            calls_after_first,
            "warm replay from disk uses zero model calls"
        );
        let stats = cache.stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 1),
            "a disk hit is a tier-0 miss: CacheStats stays tier-0-exact"
        );
        assert_eq!(cache.store_stats().unwrap().hits, 1);
        // The disk hit populated tier 0: the next lookup is a warm hit.
        let again = cache.complete("The quick brown fox").unwrap();
        assert_eq!(again, replay);
        assert_eq!(cache.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_evicts_least_recently_used() {
        let (_, llm) = setup();
        // One shard so the LRU policy is global and observable.
        let cache = PromptCache::new(&llm, 2).with_shards(1);
        cache.complete("prompt one").unwrap();
        cache.complete("prompt two").unwrap();
        // Touch "prompt one" so "prompt two" becomes the LRU victim.
        cache.complete("prompt one").unwrap();
        cache.complete("prompt three").unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // "one" and "three" hit; "two" was evicted and misses again.
        let before = cache.stats();
        cache.complete("prompt one").unwrap();
        cache.complete("prompt three").unwrap();
        cache.complete("prompt two").unwrap();
        let after = cache.stats();
        assert_eq!(after.hits - before.hits, 2);
        assert_eq!(after.misses - before.misses, 1);
    }

    #[test]
    fn eviction_is_second_chance_exact_and_deterministic() {
        let (_, llm) = setup();
        // One shard, capacity 4: the clock hand's sweep is observable.
        let cache = PromptCache::new(&llm, 4).with_shards(1);
        for p in ["alpha", "beta", "gamma", "delta"] {
            cache.complete(p).unwrap();
        }
        // Touch alpha: its reference bit buys one revolution of survival.
        cache.complete("alpha").unwrap();
        cache.complete("epsilon").unwrap();
        // Hand: alpha referenced (bit spent), beta unreferenced -> victim.
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(
            cache.canonical_prompts(),
            vec!["alpha", "delta", "epsilon", "gamma"],
            "beta is the second-chance victim"
        );
        // Touch gamma, insert another: hand clears gamma, claims delta.
        cache.complete("gamma").unwrap();
        cache.complete("zeta").unwrap();
        assert_eq!(cache.stats().evictions, 2);
        assert_eq!(
            cache.canonical_prompts(),
            vec!["alpha", "epsilon", "gamma", "zeta"],
            "delta is the next victim; referenced gamma survives"
        );

        // Exactness under a distinct-key scan: one eviction per insert
        // beyond capacity, the occupancy pinned at capacity — however
        // long the scan runs (the hand is O(1) amortized).
        let scan = PromptCache::new(&llm, 4).with_shards(1);
        for i in 0..100 {
            scan.complete(&format!("scan key {i}")).unwrap();
        }
        assert_eq!(scan.len(), 4);
        assert_eq!(scan.stats().evictions, 96, "exactly inserts - capacity");

        // Determinism: the victim sequence is a pure function of the
        // operation order.
        let replay = || {
            let cache = PromptCache::new(&llm, 4).with_shards(1);
            for i in 0..40 {
                cache.complete(&format!("det key {}", i % 11)).unwrap();
                if i % 3 == 0 {
                    cache
                        .complete(&format!("det key {}", (i + 1) % 11))
                        .unwrap();
                }
            }
            (cache.canonical_prompts(), cache.stats().evictions)
        };
        assert_eq!(replay(), replay(), "same ops, same survivors");
    }

    /// The tail table's tails, sorted.
    fn table_tails(cache: &PromptCache<'_>) -> Vec<String> {
        let tails = cache.lock_tails();
        let mut held: Vec<String> = tails.keys().map(|k| k.parts().0.to_string()).collect();
        held.sort();
        held
    }

    /// The distinct tails of the resident keys, sorted.
    fn resident_tails(cache: &PromptCache<'_>) -> Vec<String> {
        let mut tails: Vec<String> = (cache.shards.iter())
            .flat_map(|shard| {
                let state = cache.lock_shard(shard);
                let keys = state.entries.keys();
                keys.filter_map(|k| k.tail().map(str::to_string))
                    .collect::<Vec<_>>()
            })
            .collect();
        tails.sort();
        tails.dedup();
        tails
    }

    #[test]
    fn a_bounded_cache_keeps_only_the_tails_of_its_resident_keys() {
        let (_, llm) = setup();
        let cache = PromptCache::new(&llm, 4).with_shards(1);
        // Three pools of four queries over one body each: twelve keys, three
        // tails, each key displacing an older one.
        let pools: Vec<String> = (0..3)
            .flat_map(|pool| {
                (0..4).map(move |q| format!("query {q} of pool {pool}\nrow a {pool}\nrow b {pool}"))
            })
            .collect();
        for prompt in &pools {
            cache.complete(prompt).unwrap();
            assert_eq!(table_tails(&cache), resident_tails(&cache));
        }
        assert_eq!(table_tails(&cache), ["row a 2\nrow b 2"]);
        assert_eq!(cache.canonical_prompts(), pools[8..]);
        {
            let state = cache.lock_shard(&cache.shards[0]);
            let sharing = state.entries.keys().filter(|k| k.tail.is_some()).count();
            assert_eq!(sharing, 3, "one key copies the body, three share it");
        }
        // A failed fetch lets go of the tail it registered.
        assert!(cache.complete(" \n ").is_err());
        assert_eq!(table_tails(&cache), resident_tails(&cache));
        // Single-line keys displace every key that holds a tail.
        for i in 0..4 {
            cache.complete(&format!("single-line prompt {i}")).unwrap();
        }
        assert_eq!(cache.stats().evictions, 12);
        assert!(resident_tails(&cache).is_empty());
        assert!(table_tails(&cache).is_empty(), "the table is bounded too");
    }

    #[test]
    fn cache_propagates_model_errors() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm);
        assert!(cache.complete("  ").is_err());
        assert_eq!(cache.len(), 0, "errors must not be memoized");
        // The in-flight key is cleared, so a retry reaches the model
        // again rather than caching the error.
        assert!(cache.complete("  ").is_err());
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn sharded_cache_distributes_entries_and_aggregates_stats() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm).with_shards(4);
        assert_eq!(cache.shards(), 4);
        for i in 0..32 {
            cache
                .complete(&format!("distinct prompt number {i}"))
                .unwrap();
        }
        for i in 0..32 {
            cache
                .complete(&format!("distinct prompt number {i}"))
                .unwrap();
        }
        let per_shard: Vec<usize> = cache
            .shards
            .iter()
            .map(|shard| cache.lock_shard(shard).entries.len())
            .collect();
        assert!(
            per_shard.iter().filter(|&&n| n > 0).count() >= 2,
            "32 distinct prompts should spread over several shards: {per_shard:?}"
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (32, 32));
        assert_eq!(stats.lookups(), 64);
        assert_eq!(cache.len(), 32);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let (_, llm) = setup();
        assert_eq!(PromptCache::unbounded(&llm).with_shards(3).shards(), 4);
        assert_eq!(PromptCache::unbounded(&llm).with_shards(1).shards(), 1);
        assert_eq!(PromptCache::unbounded(&llm).with_shards(0).shards(), 1);
        // The default is a constant, whatever the machine.
        assert_eq!(PromptCache::unbounded(&llm).shards(), 8);
        assert_eq!(PromptCache::new(&llm, 100).shards(), 8);
    }

    #[test]
    fn the_fold_memo_keeps_one_entry_per_reordered_prompt_within_the_shard_capacity() {
        use unidm_llm::protocol::{render_pdp, SerializedRecord};
        let (_, llm) = setup();
        let record = |city: String| SerializedRecord::new(vec![("city".into(), city)]);
        // Ten two-record blocks, each sent in reverse order so it folds.
        let reversed: Vec<String> = (0..10)
            .map(|i| render_pdp(&[record(format!("Zagreb {i}")), record(format!("Aachen {i}"))]))
            .collect();
        let memo_sizes = |cache: &PromptCache<'_>| -> Vec<usize> {
            let shards = cache.shards.iter();
            shards.map(|s| cache.lock_shard(s).folds.len()).collect()
        };
        let unbounded = PromptCache::unbounded(&llm).with_canonicalization(CanonLevel::Semantic);
        for prompt in reversed.iter().chain(&reversed) {
            unbounded.complete(prompt).unwrap();
        }
        assert_eq!(memo_sizes(&unbounded).iter().sum::<usize>(), 10);
        assert_eq!(unbounded.len(), 10, "memo keys are not entries");
        let stats = unbounded.stats();
        assert_eq!((stats.hits, stats.misses), (10, 10));

        let bounded = PromptCache::new(&llm, 2)
            .with_shards(1)
            .with_canonicalization(CanonLevel::Semantic);
        for prompt in &reversed {
            bounded.complete(prompt).unwrap();
            assert!(
                memo_sizes(&bounded)[0] <= 2,
                "a memo shard holds its capacity"
            );
        }
        assert_eq!(bounded.len(), 2);
    }

    #[test]
    #[should_panic(expected = "configure a PromptCache before it serves")]
    fn re_leveling_a_cache_that_has_served_panics() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm);
        cache.complete("The quick brown fox").unwrap();
        // Its resident key would not be canonical at the new level.
        let _ = cache.with_canonicalization(CanonLevel::Whitespace);
    }

    #[test]
    #[should_panic(expected = "configure a PromptCache before it serves")]
    fn re_sharding_a_cache_that_has_served_panics() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm);
        cache.complete("The quick brown fox").unwrap();
        let _ = cache.with_shards(2);
    }

    #[test]
    fn canonicalized_cache_folds_whitespace_variants() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm).with_canonicalization(CanonLevel::Whitespace);
        let a = cache.complete("The quick  brown fox").unwrap();
        let b = cache.complete(" The quick brown fox ").unwrap();
        assert_eq!(a, b);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }
}
