//! The tier-0 prompt cache: a sharded, canonicalizing, single-flight
//! prompt → completion memo layered over any [`LanguageModel`].
//!
//! Tasks on the same table issue near-identical retrieval (`p_rm`,
//! `p_ri`) and parsing (`p_dp`) prompts; a prompt-level memo turns that
//! redundancy into saved tokens and throughput. The cache composes four
//! mechanisms:
//!
//! * **Canonical keys** ([`crate::canon`]) — prompts are keyed by their
//!   canonical text, so whitespace variants and (at
//!   [`CanonLevel::TableStem`]) per-row retrieval preambles share entries.
//!   The lookup path runs [`CanonicalPrompt::canonicalize`], which borrows
//!   already-canonical prompts instead of copying them — a warm hit
//!   performs **zero heap allocations**.
//! * **One content hash per lookup** — the canonicalizer hashes the
//!   canonical text once ([`CanonicalPrompt::hash64`]: word-at-a-time,
//!   deterministic, unkeyed, in memory only) and everything here reuses
//!   it: the shard is selected by it, and the resident, eviction-ring and
//!   in-flight keys carry it, so the maps hash those 8 bytes (under std's
//!   keyed `RandomState`) instead of the text. A hit is one normality
//!   pass, one hash pass, one 8-byte table hash and one text compare; a
//!   miss additionally copies the text once, into the `Arc<str>` its
//!   in-flight slot and its resident entry share. Texts with equal
//!   content hashes share a probe chain — every probe compares the full
//!   text, so answers stay right and only lookup time degrades.
//! * **Sharding** — the memo is split across N independently locked maps
//!   selected by key hash, so concurrent [`crate::BatchRunner`] workers
//!   contend on 1/N of the lock traffic.
//! * **Single-flight coalescing** — each shard keeps an in-flight table of
//!   canonical keys currently being completed. Concurrent duplicate
//!   lookups issue exactly **one** endpoint call: the first arrival leads,
//!   the rest block on the slot and share the leader's completion
//!   ([`CacheStats::coalesced`] counts them). Because misses complete the
//!   canonical text against a deterministic substrate, coalesced answers
//!   are bit-identical to what each caller would have fetched itself. (A
//!   worker seated at a [`crate::Dispatcher`] never waits: see below.)
//! * **Persistence** — [`PromptCache::with_store`] attaches a
//!   [`CacheStore`] beneath the shards: tier-0 misses probe the file —
//!   under the same content hash, which the store does not recompute —
//!   before the model and fresh completions are appended to it, so a
//!   second run over the same file answers without any model call.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use unidm_llm::{Completion, LanguageModel, LlmError, Usage};

use crate::canon::{CanonLevel, CanonicalPrompt};
use crate::dispatch;
use crate::store::{CacheStore, StoreStats};

/// Hit/miss/saving statistics of a [`PromptCache`] (or of one shard).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Completions served from the cache.
    pub hits: usize,
    /// Completions that had to go to the model. With single-flight
    /// coalescing this counts **leaders only**, so for a fixed workload it
    /// equals the number of unique canonical keys completed — exactly,
    /// under every interleaving.
    pub misses: usize,
    /// Lookups that arrived while the same canonical key was already in
    /// flight and shared the leader's completion instead of issuing their
    /// own endpoint call. In a serial run this is always zero; under
    /// parallelism, `hits + coalesced` is exact while the split between
    /// the two depends on timing.
    pub coalesced: usize,
    /// Entries evicted to stay within capacity.
    pub evictions: usize,
    /// Tokens (prompt + completion) the model did not have to process
    /// because a hit — or a coalesced wait — short-circuited the call.
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

    /// Total lookups accounted (hits, coalesced waits, and misses).
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

/// State of a single-flight slot.
enum SlotState {
    /// The leader is still completing the canonical text.
    Pending,
    /// The leader finished; every waiter shares this result.
    Done(Result<Arc<Completion>, LlmError>),
    /// The leader panicked before filling the slot; waiters must retry
    /// (and one of them becomes the new leader).
    Abandoned,
}

/// A single-flight slot: the rendezvous between the leader completing a
/// canonical key and the coalesced waiters blocked on it.
struct InFlight {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl InFlight {
    fn new() -> Arc<InFlight> {
        Arc::new(InFlight {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        })
    }

    /// Publishes the leader's result and wakes every waiter.
    fn fill(&self, result: Result<Arc<Completion>, LlmError>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = SlotState::Done(result);
        drop(state);
        self.ready.notify_all();
    }

    /// Marks the slot abandoned (leader panicked) and wakes every waiter.
    fn abandon(&self) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        *state = SlotState::Abandoned;
        drop(state);
        self.ready.notify_all();
    }

    /// Blocks until the leader publishes; `None` means the slot was
    /// abandoned and the caller should retry its lookup.
    fn wait(&self) -> Option<Result<Arc<Completion>, LlmError>> {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            match &*state {
                SlotState::Pending => {
                    state = self
                        .ready
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                SlotState::Done(result) => return Some(result.clone()),
                SlotState::Abandoned => return None,
            }
        }
    }
}

/// What a probe needs of a key: the content hash the canonicalizer
/// computed and the canonical text. The maps are keyed by [`Key`] and
/// probed through `&dyn KeyView`, so a lookup borrows its
/// [`CanonicalPrompt`] — or, in the disk tier's index, a `(hash, text)`
/// pair — instead of building an owned key.
pub(crate) trait KeyView {
    fn hash64(&self) -> u64;
    fn text(&self) -> &str;
}

impl KeyView for CanonicalPrompt<'_> {
    fn hash64(&self) -> u64 {
        CanonicalPrompt::hash64(self)
    }

    fn text(&self) -> &str {
        CanonicalPrompt::text(self)
    }
}

/// A text with its already-computed [`unidm_text::hash::content_hash`].
impl KeyView for (u64, &str) {
    fn hash64(&self) -> u64 {
        self.0
    }

    fn text(&self) -> &str {
        self.1
    }
}

/// Hashing a key writes only the precomputed content hash — the text is
/// never hashed again after canonicalization.
impl Hash for dyn KeyView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

/// Key equality is always decided by the full canonical text; the hash
/// comparison in front of it only skips the `memcmp` for chain neighbours.
impl PartialEq for dyn KeyView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.hash64() == other.hash64() && self.text() == other.text()
    }
}

impl Eq for dyn KeyView + '_ {}

/// An owned map key: the canonical text, shared (`Arc<str>`) between the
/// resident entry, its eviction-ring slot and the in-flight slot that
/// preceded them — or between the disk tier's index, FIFO queue and
/// compaction order — plus its content hash.
#[derive(Clone)]
pub(crate) struct Key {
    hash: u64,
    text: Arc<str>,
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

    /// The one copy of the canonical text a miss makes.
    fn of(canonical: &CanonicalPrompt<'_>) -> Key {
        Key::new(canonical.hash64(), canonical.text())
    }
}

impl KeyView for Key {
    fn hash64(&self) -> u64 {
        self.hash
    }

    fn text(&self) -> &str {
        &self.text
    }
}

impl<'a> Borrow<dyn KeyView + 'a> for Key {
    fn borrow(&self) -> &(dyn KeyView + 'a) {
        self
    }
}

// `Borrow` requires the owned key to hash and compare exactly like its
// borrowed view.
impl Hash for Key {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self as &dyn KeyView).hash(state);
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Self) -> bool {
        (self as &dyn KeyView) == (other as &dyn KeyView)
    }
}

impl Eq for Key {}

#[derive(Default)]
struct CacheInner {
    /// canonical key → memoized completion. Probed through a borrowed
    /// [`KeyView`], so a warm hit allocates nothing.
    entries: HashMap<Key, CacheEntry>,
    /// Second-chance eviction ring: every resident key, in insertion
    /// order, with `hand` pointing at the next eviction candidate. An
    /// evicted slot is reused in place by the entry that displaced it, so
    /// the ring never reallocates once the shard is full.
    ring: Vec<Key>,
    hand: usize,
    /// canonical key → single-flight slot for keys currently being
    /// completed by a leader.
    inflight: HashMap<Key, Arc<InFlight>>,
    stats: CacheStats,
}

impl CacheInner {
    /// Serves `key` from the resident entries: refreshes its recency bit
    /// in place, accounts the hit and bumps the stored completion's
    /// reference count.
    fn hit(&mut self, key: &dyn KeyView) -> Option<Arc<Completion>> {
        let entry = self.entries.get_mut(key)?;
        entry.referenced = true;
        let completion = entry.completion.clone();
        self.stats.hits += 1;
        self.stats.tokens_saved += completion.usage.total();
        Some(completion)
    }

    /// Inserts (or refreshes) `key`, evicting one entry by second-chance
    /// when the shard is at `capacity`.
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
    fn insert(&mut self, key: Key, completion: Arc<Completion>, capacity: usize) {
        if let Some(entry) = self.entries.get_mut(&key) {
            // Refresh in place (re-admission or a racing co-leader): the
            // key keeps its ring slot.
            entry.completion = completion;
            entry.referenced = true;
            return;
        }
        let entry = CacheEntry {
            completion,
            // A fresh entry starts unreferenced: it earns its second
            // chance on first re-use, so a one-pass scan of cold keys
            // cannot flush the referenced working set.
            referenced: false,
        };
        if self.entries.len() >= capacity {
            let slot = self.evict_one();
            self.ring[slot] = key.clone();
        } else {
            self.ring.push(key.clone());
        }
        self.entries.insert(key, entry);
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
/// [`LanguageModel`].
///
/// The cache is itself a `LanguageModel`, so it slots transparently under
/// [`crate::UniDm`] or [`crate::BatchRunner`]: repeated prompts —
/// retrieval and parsing calls shared by tasks on the same table,
/// duplicate final claims — are answered from memory without consuming
/// model tokens.
///
/// # Keying and canonicalization
///
/// Lookups go through [`CanonicalPrompt::canonicalize`] at the cache's
/// [`CanonLevel`] (default [`CanonLevel::Verbatim`], i.e. exact
/// memoization). At higher levels a miss completes the *canonical* prompt
/// text rather than the raw variant, which makes the memo a pure function
/// of the canonical key: whichever worker populates an entry, the stored
/// completion is identical, so serial and parallel batches stay
/// bit-for-bit equal even when many raw prompts fold into one entry.
///
/// # The warm hit path allocates nothing
///
/// An already-canonical prompt (every re-lookup of a canonical text, and
/// every rendered prompt that needs no rewriting) is borrowed by the
/// canonicalizer and hashed once; the shard map is probed with that hash
/// and the borrowed text (compared in full against the resident key), the
/// entry is refreshed by setting its reference bit in place, and the
/// lookup is answered by bumping the reference count of the stored
/// [`Arc<Completion>`]. No `String`, no node, no clone — zero heap
/// allocations end to end at every [`CanonLevel`], which the bench suite
/// asserts with a counting allocator.
///
/// # Sharding and single-flight coalescing
///
/// Entries are distributed over [`PromptCache::shards`] independently
/// locked maps by key hash, cutting lock contention under
/// [`crate::BatchRunner`] parallelism. Each shard also keeps an **in-flight
/// table**: when a miss is already being completed by another worker,
/// later arrivals of the same canonical key do not issue a second endpoint
/// call — they block on the leader's slot and share its completion
/// ([`CacheStats::coalesced`]). Statistics are counted per shard (exactly
/// — every counter update happens under its shard's lock) and aggregated
/// by [`PromptCache::stats`]; [`PromptCache::shard_stats`] exposes the
/// per-shard breakdown. Lookups never block on the underlying model except
/// when coalescing onto the same key: the shard lock is released while a
/// miss is being completed.
///
/// A thread seated at a [`crate::Dispatcher`] ([`crate::Dispatcher::register`]
/// — every worker of [`crate::BatchRunner::with_pipeline`]) never waits in
/// a slot: the reactor advances only once every seated thread is parked
/// inside it, so waiting up here on a leader parked down there would stall
/// both. After a tier-0 miss it completes below as a co-leader and the
/// dispatcher coalesces instead, so endpoint calls still equal unique
/// canonical keys; [`CacheStats::misses`] then counts every co-leader of a
/// key, and the exact count is [`crate::BackendStats`]'s.
///
/// # Persistence
///
/// [`PromptCache::with_store`] attaches a [`CacheStore`] — a versioned,
/// checksummed, append-only `UDMCACHE2` file — beneath the shards; it is
/// the only way a completion outlives the process. Tier-0 misses probe
/// the store before reaching the model (a disk hit populates tier 0 and
/// costs zero model calls), and fresh completions are offered back
/// through the store's TinyLFU admission filter, so a sequential scan
/// cannot flush the disk-resident hot set. Tier-0 hits never touch the
/// store, preserving the zero-allocation warm-hit path, and disk traffic
/// is accounted separately in [`StoreStats`] so [`CacheStats`] exactness
/// is unaffected.
///
/// # Determinism and accounting
///
/// The deterministic substrate returns the same completion for the same
/// prompt, so serving a memoized (or coalesced) completion changes nothing
/// about answers or per-run usage — only about what the *inner* model
/// actually processed. Cached completions report the usage of the original
/// call, which keeps per-run accounting via [`unidm_llm::UsageMeter`]
/// identical with and without the cache; the inner model's own counter
/// only grows on leader misses, and the difference is tracked as
/// [`CacheStats::tokens_saved`]. For a fixed workload,
/// [`CacheStats::misses`] equals the number of unique canonical keys
/// completed — exactly, under every interleaving — because the in-flight
/// table guarantees one leader per key.
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

/// Default shard count: enough to keep eight batch workers off each
/// other's locks without fragmenting small caches.
const DEFAULT_SHARDS: usize = 8;

/// The shard count new caches start with: the `UNIDM_SHARDS` environment
/// variable when set to a positive integer (rounded up to a power of two —
/// this is how CI exercises shard-count sensitivity across the whole
/// suite) is authoritative; otherwise the count self-tunes to the machine,
/// [`std::thread::available_parallelism`] rounded up to a power of two and
/// clamped to `[`[`DEFAULT_SHARDS`]`, 64]` — wide boxes get proportionally
/// more locks, small caches never fragment below the historical default.
fn default_shards() -> usize {
    std::env::var("UNIDM_SHARDS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|n| *n > 0)
        .map(usize::next_power_of_two)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get().next_power_of_two())
                .unwrap_or(DEFAULT_SHARDS)
                .clamp(DEFAULT_SHARDS, 64)
        })
}

fn build_shards(n: usize) -> Box<[Mutex<CacheInner>]> {
    (0..n).map(|_| Mutex::new(CacheInner::default())).collect()
}

/// Disarms the in-flight slot if the leader unwinds before filling it, so
/// a panicking worker cannot wedge every thread coalesced onto its key.
struct LeaderGuard<'c> {
    shard: &'c Mutex<CacheInner>,
    slot: &'c Arc<InFlight>,
    key: &'c Key,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut state = self.shard.lock().unwrap_or_else(PoisonError::into_inner);
        state.inflight.remove(self.key);
        drop(state);
        self.slot.abandon();
    }
}

impl<'a> PromptCache<'a> {
    /// Creates a cache holding at most `capacity` completions (LRU
    /// eviction), split across the default shard count (the
    /// `UNIDM_SHARDS` environment variable when set; otherwise
    /// self-tuned from [`std::thread::available_parallelism`], at least
    /// 8).
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
            shards: build_shards(default_shards()),
            store: None,
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
    pub fn with_shards(mut self, shards: usize) -> Self {
        debug_assert!(self.is_empty(), "configure a PromptCache before it serves");
        self.shards = build_shards(shards.max(1).next_power_of_two());
        self.shard_capacity = self.capacity_per_shard();
        self
    }

    /// Sets the canonicalization level. Builder-style, on an empty cache:
    /// entries are not re-keyed.
    pub fn with_canonicalization(mut self, level: CanonLevel) -> Self {
        debug_assert!(self.is_empty(), "configure a PromptCache before it serves");
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

    /// Resolves a tier-0 miss from the layers below: the disk tier first
    /// (a hit there never calls the model), then the inner model, offering
    /// a fresh completion back to the store's admission filter. The store
    /// reuses the canonicalizer's content hash instead of hashing the text
    /// again. Runs without any shard lock held.
    fn fetch_below(&self, canonical: &CanonicalPrompt<'_>) -> Result<Arc<Completion>, LlmError> {
        let (hash, text) = (canonical.hash64(), canonical.text());
        if let Some(store) = &self.store {
            if let Some(completion) = store.get_hashed(hash, text) {
                return Ok(completion);
            }
        }
        let result = self.inner.complete(text);
        if let (Some(store), Ok(completion)) = (&self.store, &result) {
            store.offer_hashed(hash, text, completion);
        }
        result
    }

    fn shard_for_hash(&self, hash: u64) -> &Mutex<CacheInner> {
        // Shard count is a power of two, so masking the content hash
        // picks a shard uniformly. The maps inside a shard re-hash it under
        // a keyed `RandomState`, so bucket choice does not reuse these bits.
        let index = (hash as usize) & (self.shards.len() - 1);
        &self.shards[index]
    }

    /// Locks a shard, recovering from poison: the shard state is a plain
    /// map plus counters, valid at every instruction boundary, so a worker
    /// that panicked while holding the lock cannot leave it corrupt — and
    /// must not wedge every other worker of the batch.
    fn lock_shard<'s>(&self, shard: &'s Mutex<CacheInner>) -> MutexGuard<'s, CacheInner> {
        shard.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A snapshot of the aggregated hit/miss/eviction statistics.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards.iter() {
            total.merge(self.lock_shard(shard).stats);
        }
        total
    }

    /// Per-shard statistics, in shard order.
    pub fn shard_stats(&self) -> Vec<CacheStats> {
        self.shards
            .iter()
            .map(|shard| self.lock_shard(shard).stats)
            .collect()
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
                    .map(|key| key.text.to_string())
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
        let canonical = CanonicalPrompt::canonicalize(prompt, self.level);
        let completion = self.complete_canonical(&canonical)?;
        // A v2 fold that reordered this request replays the canonical
        // completion permutation-corrected into the request's own element
        // order (identity-ordered requests — every canonical prompt, so
        // the whole warm fast path — skip this branch entirely).
        Ok(match canonical.replay() {
            None => completion,
            Some(fold) => Arc::new(fold.adapt(&completion)),
        })
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
    /// Completes the canonical text of `canonical` through the tiered
    /// cache: tier-0 hit, single-flight coalescing, disk-tier probe, and
    /// finally the model. The memoized entry is always the canonical
    /// completion — replay adaptation happens in
    /// [`LanguageModel::complete`] above, outside every lock.
    fn complete_canonical(
        &self,
        canonical: &CanonicalPrompt<'_>,
    ) -> Result<Arc<Completion>, LlmError> {
        let shard = self.shard_for_hash(canonical.hash64());
        let (key, slot) = loop {
            // One locked section decides hit / coalesce / lead; everything
            // slow (waiting, completing) happens outside it.
            let waiting = {
                let mut state = self.lock_shard(shard);
                if let Some(completion) = state.hit(canonical) {
                    return Ok(completion);
                }
                if dispatch::seated() {
                    // Co-leader: no in-flight slot taken, none waited on.
                    state.stats.misses += 1;
                    drop(state);
                    let result = self.fetch_below(canonical);
                    if let Ok(completion) = &result {
                        let key = Key::of(canonical);
                        self.lock_shard(shard)
                            .insert(key, completion.clone(), self.shard_capacity);
                    }
                    return result;
                }
                match state.inflight.get(canonical as &dyn KeyView) {
                    Some(slot) => {
                        let slot = slot.clone();
                        state.stats.coalesced += 1;
                        slot
                    }
                    None => {
                        // The miss's one copy of the text: the in-flight
                        // slot holds it now, the resident entry later.
                        let key = Key::of(canonical);
                        let slot = InFlight::new();
                        state.inflight.insert(key.clone(), slot.clone());
                        state.stats.misses += 1;
                        break (key, slot);
                    }
                }
            };
            match waiting.wait() {
                Some(Ok(completion)) => {
                    // The leader's endpoint call covered this lookup too:
                    // account the share like a hit's saving.
                    self.lock_shard(shard).stats.tokens_saved += completion.usage.total();
                    return Ok(completion);
                }
                Some(Err(e)) => return Err(e),
                // Leader panicked before publishing: retry the lookup (one
                // of the waiters becomes the new leader).
                None => continue,
            }
        };
        // Leader: complete the canonical text without holding any lock —
        // concurrent workers on *other* keys must not serialize on the
        // model. The guard un-wedges waiters if this unwinds.
        let mut guard = LeaderGuard {
            shard,
            slot: &slot,
            key: &key,
            armed: true,
        };
        let result = self.fetch_below(canonical);
        {
            let mut state = self.lock_shard(shard);
            if let Ok(completion) = &result {
                state.insert(key.clone(), completion.clone(), self.shard_capacity);
            }
            // Errors are not memoized: clearing the slot lets the next
            // lookup retry the model.
            state.inflight.remove(&key);
        }
        guard.armed = false;
        slot.fill(result.clone());
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BackendConfig, Dispatcher};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_world::World;

    fn setup() -> (World, MockLlm) {
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt4_turbo(), 1);
        (world, llm)
    }

    fn pipelined(llm: &MockLlm) -> Dispatcher<'_> {
        Dispatcher::new(llm, BackendConfig::resilient(1).with_pipelined())
    }

    #[test]
    fn cache_without_single_flight_still_hits_and_skips_memoizing_errors() {
        let (_, llm) = setup();
        // The lookups run from a thread holding a dispatcher seat, which
        // is what takes the cache's co-leader path.
        let dispatcher = pipelined(&llm);
        let _seat = dispatcher.register();
        assert!(dispatch::seated());
        let cache = PromptCache::unbounded(&llm);
        let a = cache.complete("The quick brown fox").unwrap();
        let b = cache.complete("The quick brown fox").unwrap();
        assert_eq!(a, b, "hit must return the memoized completion verbatim");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(llm.usage(), a.usage, "inner model completed exactly once");
        assert!(cache.complete("  ").is_err());
        assert!(cache.complete("  ").is_err(), "errors are not memoized");
        assert_eq!(cache.stats().misses, 3);
    }

    /// Holds its first caller inside `complete` until the test lets go.
    struct HeldLeader<'a> {
        inner: &'a MockLlm,
        first: AtomicBool,
        entered: Barrier,
        release: Barrier,
    }

    impl LanguageModel for HeldLeader<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
            if self.first.swap(false, Ordering::SeqCst) {
                self.entered.wait();
                self.release.wait();
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
    fn seated_thread_does_not_wait_on_an_unseated_leader() {
        let (_, llm) = setup();
        let held = HeldLeader {
            inner: &llm,
            first: AtomicBool::new(true),
            entered: Barrier::new(2),
            release: Barrier::new(2),
        };
        let cache = PromptCache::unbounded(&held);
        let dispatcher = pipelined(&llm);
        std::thread::scope(|scope| {
            // Unseated: leads the key and is held below with its in-flight
            // slot still open.
            let leader = scope.spawn(|| cache.complete("The quick brown fox").unwrap());
            held.entered.wait();
            // Seated, arriving meanwhile: returns before the leader is
            // released, having waited in no slot.
            let seat = dispatcher.register();
            let arrived = cache.complete("The quick brown fox").unwrap();
            drop(seat);
            let stats = cache.stats();
            assert_eq!((stats.misses, stats.coalesced), (2, 0));
            held.release.wait();
            assert_eq!(leader.join().unwrap(), arrived);
        });
        assert_eq!(cache.len(), 1);
        // Unseated again, the thread is served from the entry they both
        // wrote.
        cache.complete("The quick brown fox").unwrap();
        assert_eq!(cache.stats().hits, 1);
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

    #[test]
    fn cache_propagates_model_errors() {
        let (_, llm) = setup();
        let cache = PromptCache::unbounded(&llm);
        assert!(cache.complete("  ").is_err());
        assert_eq!(cache.len(), 0, "errors must not be memoized");
        // The in-flight slot is cleared, so a retry reaches the model
        // again rather than deadlocking or caching the error.
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
        let per_shard = cache.shard_stats();
        assert_eq!(per_shard.len(), 4);
        assert!(
            per_shard.iter().filter(|s| s.misses > 0).count() >= 2,
            "32 distinct prompts should spread over several shards: {per_shard:?}"
        );
        let mut folded = CacheStats::default();
        for s in &per_shard {
            folded.merge(*s);
        }
        assert_eq!(folded, cache.stats(), "aggregate must equal shard sum");
        assert_eq!((folded.hits, folded.misses), (32, 32));
        assert_eq!(cache.len(), 32);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let (_, llm) = setup();
        assert_eq!(PromptCache::unbounded(&llm).with_shards(3).shards(), 4);
        assert_eq!(PromptCache::unbounded(&llm).with_shards(1).shards(), 1);
        assert_eq!(PromptCache::unbounded(&llm).with_shards(0).shards(), 1);
        // The startup default honors UNIDM_SHARDS (the CI matrix sets it).
        assert_eq!(PromptCache::unbounded(&llm).shards(), default_shards());
        assert!(default_shards().is_power_of_two());
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
