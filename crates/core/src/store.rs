//! Tiered prompt-cache store: a versioned, append-only disk segment
//! beneath a [`crate::PromptCache`] — with TinyLFU admission control so a
//! table scan cannot flush the hot working set.
//!
//! The official UniDM repo persists every completion in a single sqlite
//! cache. [`CacheStore`] is this reproduction's one persistence path: a
//! `UDMCACHE2` file guarded by the model name it was written over.
//!
//! ```text
//! lookup ──▶ tier 0: sharded in-memory PromptCache (zero-alloc warm hit)
//!               │ miss
//!               ▼
//!            tier 1: CacheStore index probe ──▶ one pread of the frame
//!               │ miss                           (hit: 0 model calls)
//!               ▼
//!            model call ──▶ TinyLFU admission ──▶ append frame | reject
//! ```
//!
//! # File format (`UDMCACHE2`)
//!
//! The layout reuses the `tablestore::segment` writer/reader idiom:
//! little-endian primitives, length-prefixed strings, a magic/version
//! header — but record-framed instead of directory-indexed, because the
//! store is append-only:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "UDMCACHE" · u32 version (2) · str model               │
//! │ frame 0 │ frame 1 │ ...                                      │
//! └──────────────────────────────────────────────────────────────┘
//! frame := u32 payload_len · payload · u64 checksum64(payload)
//! payload := u64 generation · str canonical prompt · str completion
//!            · u32 prompt_tokens · u32 completion_tokens
//! ```
//!
//! Version 2 changed the checksum only: `UDMCACHE1` sealed each frame with
//! byte-serial FNV-1a, version 2 with [`unidm_text::hash::checksum64`] —
//! the content hash's word-at-a-time fold under its own frozen constants,
//! same width, same layout. A version-1 file fails the open with
//! [`StoreError::Version`] and is left as it is.
//!
//! A truncated or garbled tail, a wrong version, or a wrong model name
//! fails the open with a clean [`StoreError`] and **no mutation of the
//! file**, so callers can fall back to a cold cache and leave the evidence
//! intact.
//!
//! # One hash and one key copy per prompt
//!
//! Opening a store scans every frame once to build an in-memory index
//! (canonical prompt → file offset). The index holds one shared `Arc<str>`
//! per live prompt, beside its content hash; the FIFO victim queue and
//! compaction's sorted order hold the same allocation. Every store call
//! hashes its prompt once — [`crate::PromptCache`] hands down the hash its
//! canonicalizer already computed — and that hash both probes the index
//! and feeds the admission filter. A disk hit is one positioned read
//! (`pread`) of exactly the indexed frame into a buffer the store reuses;
//! the stored prompt is compared in place, so a hit copies out only the
//! completion — paged access without holding completions resident.
//!
//! # Admission control (TinyLFU)
//!
//! Appends are gated by a TinyLFU-style filter: a **doorkeeper** bloom
//! filter in front of a **4-bit count-min sketch**, integer-only, seeded,
//! and fully deterministic. While the store is below capacity every
//! completion is admitted (a paper-scale workload persists wholesale, so
//! a warm replay needs zero model calls). At capacity, a candidate must
//! show evidence of a *prior* access (estimated frequency ≥ 3 — more
//! than its own probe-plus-offer can contribute, even through a
//! doorkeeper collision) to displace the oldest resident entry — so the
//! 10^5 one-touch prompts of a sequential scan are all rejected and the
//! hot set stays resident. Sketch counters halve periodically (aging),
//! keeping estimates fresh without floats or wall-clock time.
//!
//! # Compaction and max-age
//!
//! Displaced and expired entries stay physically in the file (append-only
//! writes are what keep the hot path one `write` call) until
//! [`CacheStore::compact`] rewrites the live frames — sorted by canonical
//! prompt, so the compacted file is deterministic for a deterministic
//! history. Compaction streams: one frame at a time is read back, resealed
//! with its refreshed generation and written through a buffered writer to
//! a sibling temp file, which is then renamed over the store — it holds one
//! frame in memory, not the file. Entries untouched for more than `max_age`
//! generations (one generation per open) are dropped when the store is
//! opened; the generation is fixed for the life of an open, so nothing
//! expires within one.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use unidm_llm::{Completion, Usage};
use unidm_text::hash::{checksum64, content_hash, FNV_PRIME};

use crate::cache::{Key, KeyView};

/// Leading magic of every `UDMCACHE2` store file.
pub const STORE_MAGIC: &[u8; 8] = b"UDMCACHE";
/// Current store format version (the `2` of `UDMCACHE2`).
pub const STORE_VERSION: u32 = 2;

// ── Little-endian primitives (the `tablestore::segment` idiom) ──────────

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A cursor over a decoded byte buffer.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| StoreError::format("truncated store payload"))?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed byte string, borrowed from the buffer.
    fn bytes(&mut self) -> Result<&'a [u8], StoreError> {
        let len = self.u32()? as usize;
        self.take(len)
    }
}

/// `bytes` as text, or the format error a garbled string is.
fn utf8(bytes: &[u8]) -> Result<&str, StoreError> {
    std::str::from_utf8(bytes).map_err(|_| StoreError::format("invalid utf-8 in store"))
}

/// Why a [`CacheStore`] could not be opened, read, or written.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the store file failed.
    Io(std::io::Error),
    /// The file is not a well-formed `UDMCACHE2` document (bad magic,
    /// truncated frame, checksum mismatch, garbled payload).
    Format(String),
    /// The file carries an unsupported format version.
    Version {
        /// The version recorded in the file.
        found: u32,
    },
    /// The store was written over a different model, so its completions
    /// would be wrong for this one.
    ModelMismatch {
        /// The model this store was opened for.
        expected: String,
        /// The model recorded in the file.
        found: String,
    },
}

impl StoreError {
    fn format(msg: impl Into<String>) -> StoreError {
        StoreError::Format(msg.into())
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store I/O error: {e}"),
            StoreError::Format(msg) => write!(f, "store format error: {msg}"),
            StoreError::Version { found } => write!(
                f,
                "store version {found} is not supported (expected {STORE_VERSION})"
            ),
            StoreError::ModelMismatch { expected, found } => write!(
                f,
                "store model mismatch: opened for {expected:?} but file was written over {found:?}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Exact counters of one [`CacheStore`] (or one tier's view of it).
///
/// Every field is a plain sum, so [`StoreStats::merge`] is exact and
/// commutative — the same contract as `BackendStats::merge` and
/// [`crate::CacheStats::merge`]: folding per-tier (or per-run) snapshots
/// in any order yields the same aggregate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups answered from the disk tier (no model call).
    pub hits: usize,
    /// Lookups the disk tier could not answer.
    pub misses: usize,
    /// Completions the admission filter accepted and appended.
    pub admitted: usize,
    /// Completions the admission filter rejected (one-touch candidates at
    /// capacity — the scan-resistance counter).
    pub rejected: usize,
    /// Resident entries displaced by an admitted candidate.
    pub evicted: usize,
    /// Entries dropped because their age exceeded the max-age policy.
    pub expired: usize,
    /// Compaction passes performed.
    pub compactions: usize,
    /// Dead frames dropped by compaction (displaced, expired, or
    /// superseded duplicates).
    pub compacted_frames: usize,
}

impl StoreStats {
    /// Disk-tier hit rate in `[0, 1]` (zero when nothing was probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Adds another stats snapshot into this one. Pure field-wise sums:
    /// exact and commutative, so tier and run aggregates are
    /// order-independent.
    pub fn merge(&mut self, other: StoreStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.evicted += other.evicted;
        self.expired += other.expired;
        self.compactions += other.compactions;
        self.compacted_frames += other.compacted_frames;
    }
}

/// Tuning knobs of a [`CacheStore`] (see [`CacheStore::open`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum live entries; beyond it the admission filter gates every
    /// append. `usize::MAX` never gates (and never evicts).
    pub max_entries: usize,
    /// Entries untouched for more than this many generations (one
    /// generation per [`CacheStore::open`]) are dropped when the store is
    /// opened — the generation is fixed for the life of an open, so nothing
    /// expires within one. `u64::MAX` disables the policy.
    pub max_age: u64,
    /// Seed of the admission filter's hash family. Fixed seed → fully
    /// deterministic admission decisions for a deterministic history.
    pub seed: u64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_entries: usize::MAX,
            max_age: u64::MAX,
            seed: 0x5eed_cafe,
        }
    }
}

impl StoreConfig {
    /// Bounds the store to `max_entries` live completions.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries.max(1);
        self
    }

    /// Sets the max-age policy, in generations (opens).
    pub fn with_max_age(mut self, max_age: u64) -> Self {
        self.max_age = max_age;
        self
    }

    /// Sets the admission filter seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

// ── TinyLFU admission filter ────────────────────────────────────────────

/// Sketch width in 4-bit counters. Power of two so indexing is a mask;
/// 64Ki counters = 32 KiB — enough resolution for ~10^5-key scans.
const SKETCH_COUNTERS: usize = 1 << 16;
/// Doorkeeper bits (one u64 word per 64 bits). Sized with the sketch.
const DOORKEEPER_BITS: usize = 1 << 16;
/// Upper bound on touches between aging passes (halve every counter,
/// reset the doorkeeper). A capacity-bounded filter ages every
/// `10 × capacity` touches instead — the classic TinyLFU sample window —
/// so a long one-touch scan cannot saturate the doorkeeper into false
/// "frequent" estimates. Deterministic: a pure function of touch count.
const AGING_PERIOD: u64 = 10 * SKETCH_COUNTERS as u64;
/// 4-bit counters saturate here.
const COUNTER_MAX: u8 = 15;

/// TinyLFU frequency filter: doorkeeper bloom filter + 4-bit count-min
/// sketch. Integer-only, seeded, deterministic — admission decisions are
/// a pure function of the key-touch history.
struct TinyLfu {
    /// Packed 4-bit counters, two per byte.
    sketch: Vec<u8>,
    doorkeeper: Vec<u64>,
    seed: u64,
    touches: u64,
    /// Touches per aging pass: `10 × capacity` for a bounded store
    /// (clamped into `[64, AGING_PERIOD]`), `AGING_PERIOD` otherwise.
    sample_window: u64,
}

impl TinyLfu {
    fn new(seed: u64, max_entries: usize) -> TinyLfu {
        let sample_window = if max_entries == usize::MAX {
            AGING_PERIOD
        } else {
            (max_entries as u64)
                .saturating_mul(10)
                .clamp(64, AGING_PERIOD)
        };
        TinyLfu {
            sketch: vec![0u8; SKETCH_COUNTERS / 2],
            doorkeeper: vec![0u64; DOORKEEPER_BITS / 64],
            seed,
            touches: 0,
            sample_window,
        }
    }

    /// The i-th member of the seeded hash family for `hash`.
    #[inline]
    fn index(&self, hash: u64, i: u64) -> usize {
        // One multiply-xor round per family member over the key's content
        // hash; the seed decorrelates the family from the shard mask.
        let mixed = (hash ^ self.seed.wrapping_mul(i.wrapping_add(1)))
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(31)
            .wrapping_mul(FNV_PRIME);
        (mixed as usize) & (SKETCH_COUNTERS - 1)
    }

    #[inline]
    fn counter(&self, slot: usize) -> u8 {
        let byte = self.sketch[slot / 2];
        if slot.is_multiple_of(2) {
            byte & 0x0f
        } else {
            byte >> 4
        }
    }

    #[inline]
    fn bump_counter(&mut self, slot: usize) {
        let byte = &mut self.sketch[slot / 2];
        if slot.is_multiple_of(2) {
            let lo = *byte & 0x0f;
            if lo < COUNTER_MAX {
                *byte = (*byte & 0xf0) | (lo + 1);
            }
        } else {
            let hi = *byte >> 4;
            if hi < COUNTER_MAX {
                *byte = (*byte & 0x0f) | ((hi + 1) << 4);
            }
        }
    }

    /// Records one sighting of `hash`.
    fn touch(&mut self, hash: u64) {
        let door = self.index(hash, 0) % DOORKEEPER_BITS;
        let (word, bit) = (door / 64, door % 64);
        if self.doorkeeper[word] & (1 << bit) == 0 {
            // First sighting since the last aging pass: the doorkeeper
            // absorbs it, keeping one-touch keys out of the sketch.
            self.doorkeeper[word] |= 1 << bit;
        } else {
            for i in 1..=3 {
                let slot = self.index(hash, i);
                self.bump_counter(slot);
            }
        }
        self.touches += 1;
        if self.touches.is_multiple_of(self.sample_window) {
            self.age();
        }
    }

    /// Estimated frequency of `hash`: doorkeeper sighting counts 1, plus
    /// the count-min over the sketch family.
    fn estimate(&self, hash: u64) -> u32 {
        let door = self.index(hash, 0) % DOORKEEPER_BITS;
        let seen = u32::from(self.doorkeeper[door / 64] & (1 << (door % 64)) != 0);
        let mut min = u32::from(COUNTER_MAX);
        for i in 1..=3 {
            min = min.min(u32::from(self.counter(self.index(hash, i))));
        }
        seen + min
    }

    /// Aging: halve every counter and reset the doorkeeper, so stale
    /// popularity decays and the filter tracks the current mix.
    fn age(&mut self) {
        for byte in &mut self.sketch {
            *byte = (*byte >> 1) & 0x77;
        }
        for word in &mut self.doorkeeper {
            *word = 0;
        }
    }
}

/// Where one live entry sits in the file.
#[derive(Debug, Clone, Copy)]
struct IndexEntry {
    /// Offset of the frame's payload-length prefix.
    offset: u64,
    /// Whole frame length (prefix + payload + checksum), for the bounded
    /// read.
    frame_len: usize,
    /// Generation of the last touch (admission or disk hit); compaction
    /// persists it.
    generation: u64,
}

struct StoreState {
    file: File,
    /// Length of the file: where the next frame is appended.
    end: u64,
    /// Live prompt → its frame, keyed by the prompt's one shared copy and
    /// probed by `(content hash, &str)`.
    index: HashMap<Key, IndexEntry>,
    /// Admission order of resident keys: the deterministic FIFO victim
    /// queue. Displaced keys are removed lazily (the index is
    /// authoritative).
    queue: VecDeque<Key>,
    filter: TinyLfu,
    /// Frames physically in the file, live or dead — compaction trigger.
    frames: usize,
    /// The one frame being read or written; reused by every call.
    buf: Vec<u8>,
    stats: StoreStats,
}

impl StoreState {
    fn new(file: File, end: u64, config: &StoreConfig) -> StoreState {
        StoreState {
            file,
            end,
            index: HashMap::new(),
            queue: VecDeque::new(),
            filter: TinyLfu::new(config.seed, config.max_entries),
            frames: 0,
            buf: Vec::new(),
            stats: StoreStats::default(),
        }
    }
}

/// A tiered prompt-cache store handle: cheap to clone, safe to share —
/// every clone talks to the same file, index, and admission filter.
///
/// See the [module docs](self) for the format and policies. The intended
/// composition is [`crate::PromptCache::with_store`]: the in-memory cache
/// stays tier 0 (zero-allocation warm hits, single-flight), and only its
/// misses probe the disk tier before reaching the model.
///
/// # Examples
///
/// ```
/// use unidm::store::{CacheStore, StoreConfig};
/// use unidm_llm::{Completion, Usage};
/// use std::sync::Arc;
///
/// let dir = std::env::temp_dir().join(format!("udm-store-doc-{}", std::process::id()));
/// std::fs::create_dir_all(&dir).unwrap();
/// let path = dir.join("cache.udmstore");
/// let store = CacheStore::open(&path, "mock-model", StoreConfig::default()).unwrap();
/// let completion = Arc::new(Completion { text: "Rome".into(), usage: Usage::default() });
/// store.offer("capital of Italy?", &completion);
/// assert_eq!(store.get("capital of Italy?").unwrap().text, "Rome");
///
/// // Reopening the same file serves the entry without any model.
/// drop(store);
/// let reopened = CacheStore::open(&path, "mock-model", StoreConfig::default()).unwrap();
/// assert_eq!(reopened.get("capital of Italy?").unwrap().text, "Rome");
/// # let _ = std::fs::remove_dir_all(&dir);
/// ```
#[derive(Clone)]
pub struct CacheStore {
    inner: Arc<StoreInner>,
}

struct StoreInner {
    path: PathBuf,
    model: String,
    config: StoreConfig,
    generation: u64,
    state: Mutex<StoreState>,
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStore")
            .field("path", &self.inner.path)
            .field("model", &self.inner.model)
            .field("generation", &self.inner.generation)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Encodes one frame (length prefix + payload + checksum) into `out`.
fn encode_frame(out: &mut Vec<u8>, generation: u64, prompt: &str, completion: &Completion) {
    out.clear();
    put_u32(out, 0); // the payload length, known once it is written
    put_u64(out, generation);
    put_str(out, prompt);
    put_str(out, &completion.text);
    put_u32(out, completion.usage.prompt_tokens as u32);
    put_u32(out, completion.usage.completion_tokens as u32);
    let payload_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&payload_len.to_le_bytes());
    seal(out);
}

/// Appends the checksum of `frame`'s payload (everything after its length
/// prefix) to `frame`.
fn seal(frame: &mut Vec<u8>) {
    let checksum = checksum64(&frame[4..]);
    put_u64(frame, checksum);
}

/// One frame's payload, borrowed from the bytes it was read into. The
/// strings stay bytes: a hit compares the prompt in place and copies only
/// the completion, so each caller validates what it keeps.
struct Payload<'a> {
    generation: u64,
    prompt: &'a [u8],
    text: &'a [u8],
    usage: Usage,
}

impl Payload<'_> {
    /// The stored completion, copied out of the frame.
    fn completion(&self) -> Option<Completion> {
        Some(Completion {
            text: std::str::from_utf8(self.text).ok()?.to_owned(),
            usage: self.usage,
        })
    }
}

/// Verifies one whole frame — its length prefix against its length, then
/// its checksum — and splits its payload.
fn parse_frame(frame: &[u8]) -> Result<Payload<'_>, StoreError> {
    let mut cur = Cursor::new(frame);
    let payload_len = cur.u32()? as usize;
    let payload = cur.take(payload_len)?;
    let checksum = cur.u64()?;
    if cur.pos != frame.len() {
        return Err(StoreError::format("frame length prefix mismatch"));
    }
    if checksum64(payload) != checksum {
        return Err(StoreError::format("checksum mismatch"));
    }
    let mut cur = Cursor::new(payload);
    let generation = cur.u64()?;
    let prompt = cur.bytes()?;
    let text = cur.bytes()?;
    let prompt_tokens = cur.u32()? as usize;
    let completion_tokens = cur.u32()? as usize;
    if cur.pos != payload.len() {
        return Err(StoreError::format("trailing bytes in store frame"));
    }
    Ok(Payload {
        generation,
        prompt,
        text,
        usage: Usage {
            prompt_tokens,
            completion_tokens,
        },
    })
}

/// Reads the `frame_len`-byte frame at `offset` into `buf` with one
/// positioned read, and verifies it.
fn read_frame<'b>(
    file: &File,
    offset: u64,
    frame_len: usize,
    buf: &'b mut Vec<u8>,
) -> Result<Payload<'b>, StoreError> {
    buf.clear();
    buf.resize(frame_len, 0);
    file.read_exact_at(buf, offset)?;
    parse_frame(buf)
}

fn encode_header(model: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + model.len());
    out.extend_from_slice(STORE_MAGIC);
    put_u32(&mut out, STORE_VERSION);
    put_str(&mut out, model);
    out
}

impl CacheStore {
    /// Opens (or creates) the store at `path` for `model`.
    ///
    /// A fresh path is initialized with the `UDMCACHE2` header. An
    /// existing file is validated — magic, version, model name, then
    /// every frame's length and checksum — and scanned once to build the
    /// in-memory index; entries whose age exceeds
    /// [`StoreConfig::max_age`] are dropped from the index (and reclaimed
    /// by the next compaction). The admission filter is re-warmed from
    /// the live entries in deterministic (file) order, so a reopened
    /// store makes the same decisions a never-closed one would.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] for truncated/garbled files,
    /// [`StoreError::Version`] (a `UDMCACHE1` file among them) and
    /// [`StoreError::ModelMismatch`] for mismatched headers,
    /// [`StoreError::Io`] for filesystem failures. On error the file is
    /// **not modified** — a caller can fall back to a cold cache and leave
    /// the evidence intact.
    pub fn open(
        path: impl AsRef<Path>,
        model: &str,
        config: StoreConfig,
    ) -> Result<CacheStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let (generation, state) = if path.exists() {
            // Validate and index the existing file without mutating it.
            let bytes = std::fs::read(&path)?;
            let scan = scan_store(&bytes, model)?;
            let generation = scan.max_generation + 1;
            let file = OpenOptions::new().read(true).append(true).open(&path)?;
            let mut state = StoreState::new(file, bytes.len() as u64, &config);
            state.index = scan.index;
            state.frames = scan.frames;
            for key in scan.order {
                // Age = generations since last touch; `max_age`
                // generations of silence expire an entry at open (none
                // can exceed `u64::MAX`, the disabled policy).
                let touched = state.index[&key].generation;
                if generation.saturating_sub(touched) > config.max_age {
                    state.index.remove(&key);
                    state.stats.expired += 1;
                    continue;
                }
                state.filter.touch(key.hash64());
                state.queue.push_back(key);
            }
            (generation, state)
        } else {
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)?;
                }
            }
            let mut file = OpenOptions::new()
                .create_new(true)
                .read(true)
                .append(true)
                .open(&path)?;
            let header = encode_header(model);
            file.write_all(&header)?;
            (1, StoreState::new(file, header.len() as u64, &config))
        };
        Ok(CacheStore {
            inner: Arc::new(StoreInner {
                path,
                model: model.to_string(),
                config,
                generation,
                state: Mutex::new(state),
            }),
        })
    }

    fn lock(&self) -> MutexGuard<'_, StoreState> {
        self.inner
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The file this store persists to.
    pub fn path(&self) -> &Path {
        &self.inner.path
    }

    /// The model name this store is guarded by.
    pub fn model(&self) -> &str {
        &self.inner.model
    }

    /// The session generation of this open (1 for a fresh store).
    pub fn generation(&self) -> u64 {
        self.inner.generation
    }

    /// Live entries in the index.
    pub fn len(&self) -> usize {
        self.lock().index.len()
    }

    /// Whether the store holds no live entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the store's exact counters.
    pub fn stats(&self) -> StoreStats {
        self.lock().stats
    }

    /// Probes the disk tier for `prompt` (the canonical text): a hit reads
    /// exactly the indexed frame with one positioned read, verifies its
    /// checksum, compares the stored prompt in place and returns the
    /// completion — no model call, no resident payload cache. The entry's
    /// generation is refreshed, so live use keeps it out of max-age reach.
    ///
    /// Corrupt frames discovered at read time (the file changed under
    /// us) drop the entry and miss, never panic.
    pub fn get(&self, prompt: &str) -> Option<Arc<Completion>> {
        self.get_hashed(content_hash(prompt), prompt)
    }

    /// [`CacheStore::get`] for a prompt whose content hash the caller
    /// already holds.
    pub(crate) fn get_hashed(&self, hash: u64, prompt: &str) -> Option<Arc<Completion>> {
        let mut guard = self.lock();
        let state = &mut *guard;
        let probe = (hash, prompt);
        let Some(entry) = state.index.get_mut(&probe as &dyn KeyView) else {
            state.stats.misses += 1;
            // Missed probes still teach the filter: the second sighting
            // of a key is what earns it admission at capacity.
            state.filter.touch(hash);
            return None;
        };
        let stored = read_frame(&state.file, entry.offset, entry.frame_len, &mut state.buf)
            .ok()
            .filter(|payload| payload.prompt == prompt.as_bytes())
            .and_then(|payload| payload.completion());
        match stored {
            Some(completion) => {
                state.stats.hits += 1;
                entry.generation = self.inner.generation;
                state.filter.touch(hash);
                Some(Arc::new(completion))
            }
            None => {
                // The indexed frame no longer matches (external
                // truncation/rewrite): drop it and miss cleanly.
                state.index.remove(&probe as &dyn KeyView);
                state.stats.misses += 1;
                None
            }
        }
    }

    /// Offers a fresh completion for admission, returning whether it was
    /// appended.
    ///
    /// Below [`StoreConfig::max_entries`] every offer is admitted. At
    /// capacity the TinyLFU filter gates: the candidate must have an
    /// estimated frequency ≥ 3 — evidence of a *prior* access, beyond
    /// what the current access alone can contribute (its probe sets the
    /// doorkeeper, and on a doorkeeper collision that same probe bumps
    /// the sketch once, for an estimate of at most 2). A genuinely
    /// re-accessed key reaches 3 on its second access; the one-touch
    /// keys of a sequential scan cannot self-admit even when they
    /// collide in the doorkeeper, which is what keeps the hot set
    /// resident. The displaced victim is the oldest resident entry
    /// (FIFO, deterministic).
    ///
    /// Append failures are recorded as rejections (the store is an
    /// optimization, never a correctness dependency).
    pub fn offer(&self, prompt: &str, completion: &Arc<Completion>) -> bool {
        self.offer_hashed(content_hash(prompt), prompt, completion)
    }

    /// [`CacheStore::offer`] for a prompt whose content hash the caller
    /// already holds.
    pub(crate) fn offer_hashed(&self, hash: u64, prompt: &str, completion: &Completion) -> bool {
        let mut guard = self.lock();
        let state = &mut *guard;
        if state.index.contains_key(&(hash, prompt) as &dyn KeyView) {
            // Already resident (a racing co-leader or a re-admission):
            // refresh the touch, keep the existing frame.
            state.filter.touch(hash);
            return false;
        }
        let at_capacity = state.index.len() >= self.inner.config.max_entries;
        if at_capacity {
            let frequent = state.filter.estimate(hash) >= 3;
            state.filter.touch(hash);
            if !frequent {
                state.stats.rejected += 1;
                return false;
            }
            // Deterministic FIFO victim: the oldest still-live admission.
            // (Stale queue entries — already displaced — are skipped.)
            while let Some(victim) = state.queue.pop_front() {
                if state.index.remove(&victim).is_some() {
                    state.stats.evicted += 1;
                    break;
                }
            }
        } else {
            state.filter.touch(hash);
        }
        match self.append_frame(state, hash, prompt, completion) {
            Ok(()) => {
                state.stats.admitted += 1;
                true
            }
            Err(_) => {
                state.stats.rejected += 1;
                false
            }
        }
    }

    fn append_frame(
        &self,
        state: &mut StoreState,
        hash: u64,
        prompt: &str,
        completion: &Completion,
    ) -> Result<(), StoreError> {
        let generation = self.inner.generation;
        encode_frame(&mut state.buf, generation, prompt, completion);
        if let Err(e) = state.file.write_all(&state.buf) {
            // A short write may have left a torn tail; the next frame is
            // appended after whatever reached the file.
            state.end = state.file.metadata().map_or(state.end, |m| m.len());
            return Err(e.into());
        }
        let entry = IndexEntry {
            offset: state.end,
            frame_len: state.buf.len(),
            generation,
        };
        state.end += state.buf.len() as u64;
        state.frames += 1;
        let key = Key::new(hash, prompt);
        state.index.insert(key.clone(), entry);
        state.queue.push_back(key);
        Ok(())
    }

    /// Rewrites the file with only the live frames, sorted by canonical
    /// prompt — deterministic for a deterministic history — and refreshed
    /// generations from the index. Returns how many dead frames were
    /// reclaimed.
    ///
    /// The frames stream one at a time through a buffered writer into the
    /// sibling `<name>.compact-tmp` file, which is then renamed over the
    /// store, so a crash mid-compaction leaves either the old file or the
    /// new one, never a torn store.
    ///
    /// # Errors
    ///
    /// Any I/O failure, or a live frame that no longer verifies. The temp
    /// file is removed, and the store file and index are left as they
    /// were: every entry is still served.
    pub fn compact(&self) -> Result<usize, StoreError> {
        let mut guard = self.lock();
        let state = &mut *guard;
        let mut live: Vec<(Key, IndexEntry)> =
            state.index.iter().map(|(k, v)| (k.clone(), *v)).collect();
        live.sort_unstable_by(|a, b| a.0.text().cmp(b.0.text()));
        let dropped = state.frames - live.len();

        let path = &self.inner.path;
        let tmp = path.with_extension("compact-tmp");
        let written = write_compacted(&tmp, &self.inner.model, state, &mut live).and_then(|end| {
            std::fs::rename(&tmp, path)?;
            Ok(end)
        });
        let end = match written {
            Ok(end) => end,
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                return Err(e);
            }
        };
        state.file = OpenOptions::new().read(true).append(true).open(path)?;
        state.end = end;
        for (key, moved) in &live {
            if let Some(entry) = state.index.get_mut(key) {
                *entry = *moved;
            }
        }
        state.queue.clear();
        state.queue.extend(live.into_iter().map(|(key, _)| key));
        state.frames = state.queue.len();
        state.stats.compactions += 1;
        state.stats.compacted_frames += dropped;
        Ok(dropped)
    }

    /// Dead frames currently in the file (displaced or superseded) — the
    /// compaction trigger a caller can poll.
    pub fn dead_frames(&self) -> usize {
        let state = self.lock();
        state.frames - state.index.len()
    }

    /// The live canonical prompts, sorted (diagnostics and tests).
    pub fn canonical_prompts(&self) -> Vec<String> {
        let state = self.lock();
        let mut prompts: Vec<String> = state.index.keys().map(|k| k.text().to_string()).collect();
        prompts.sort();
        prompts
    }
}

/// Streams the `live` frames, in order, from the store file into a fresh
/// `tmp` file, each resealed with its entry's generation, and points every
/// entry at its new offset. Returns the new file's length.
fn write_compacted(
    tmp: &Path,
    model: &str,
    state: &mut StoreState,
    live: &mut [(Key, IndexEntry)],
) -> Result<u64, StoreError> {
    let mut out = BufWriter::new(File::create(tmp)?);
    let header = encode_header(model);
    out.write_all(&header)?;
    let mut end = header.len() as u64;
    let buf = &mut state.buf;
    for (key, entry) in live.iter_mut() {
        let payload = read_frame(&state.file, entry.offset, entry.frame_len, buf)?;
        if payload.prompt != key.text().as_bytes() {
            return Err(StoreError::format("index out of sync during compaction"));
        }
        // Persist the refreshed generation: patch it, then reseal.
        buf[4..12].copy_from_slice(&entry.generation.to_le_bytes());
        buf.truncate(buf.len() - 8);
        seal(buf);
        out.write_all(buf)?;
        entry.offset = end;
        end += buf.len() as u64;
    }
    out.flush()?;
    Ok(end)
}

/// What scanning an existing store file yields.
struct StoreScan {
    /// Last-wins live entries.
    index: HashMap<Key, IndexEntry>,
    /// The index's keys in file order of their first frame.
    order: Vec<Key>,
    /// Total frames physically present (live + superseded).
    frames: usize,
    max_generation: u64,
}

/// Validates `bytes` as a `UDMCACHE2` document for `model` and extracts
/// the live entry index. Pure — never touches the filesystem.
fn scan_store(bytes: &[u8], model: &str) -> Result<StoreScan, StoreError> {
    if bytes.len() < STORE_MAGIC.len() || &bytes[..STORE_MAGIC.len()] != STORE_MAGIC {
        return Err(StoreError::format("missing UDMCACHE magic"));
    }
    let mut cur = Cursor::new(bytes);
    cur.pos = STORE_MAGIC.len();
    let version = cur.u32()?;
    if version != STORE_VERSION {
        return Err(StoreError::Version { found: version });
    }
    let found = utf8(cur.bytes()?)?;
    if found != model {
        return Err(StoreError::ModelMismatch {
            expected: model.to_string(),
            found: found.to_string(),
        });
    }
    let mut scan = StoreScan {
        index: HashMap::new(),
        order: Vec::new(),
        frames: 0,
        max_generation: 0,
    };
    while cur.pos < bytes.len() {
        let offset = cur.pos;
        let payload_len = cur.u32()? as usize;
        cur.take(payload_len + 8)?;
        let payload = parse_frame(&bytes[offset..cur.pos]).map_err(|e| match e {
            StoreError::Format(msg) => StoreError::Format(format!("{msg} at offset {offset}")),
            e => e,
        })?;
        let prompt = utf8(payload.prompt)?;
        utf8(payload.text)?;
        scan.frames += 1;
        scan.max_generation = scan.max_generation.max(payload.generation);
        let entry = IndexEntry {
            offset: offset as u64,
            frame_len: cur.pos - offset,
            generation: payload.generation,
        };
        // Last frame for a prompt wins (a re-admission after displacement
        // appends a fresh frame).
        let hash = content_hash(prompt);
        match scan.index.get_mut(&(hash, prompt) as &dyn KeyView) {
            Some(slot) => *slot = entry,
            None => {
                let key = Key::new(hash, prompt);
                scan.order.push(key.clone());
                scan.index.insert(key, entry);
            }
        }
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("udm-store-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join("cache.udmstore")
    }

    fn cleanup(path: &Path) {
        if let Some(dir) = path.parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn completion(text: &str, tokens: usize) -> Arc<Completion> {
        Arc::new(Completion {
            text: text.to_string(),
            usage: Usage {
                prompt_tokens: tokens,
                completion_tokens: tokens / 2,
            },
        })
    }

    #[test]
    fn roundtrip_and_reopen() {
        let path = temp_path("roundtrip");
        let store = CacheStore::open(&path, "m", StoreConfig::default()).unwrap();
        assert!(store.is_empty());
        assert!(store.offer("alpha", &completion("A", 10)));
        assert!(store.offer("beta\nmultiline", &completion("B", 20)));
        assert_eq!(store.get("alpha").unwrap().text, "A");
        assert_eq!(store.get("beta\nmultiline").unwrap().text, "B");
        assert!(store.get("gamma").is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.admitted), (2, 1, 2));

        drop(store);
        let reopened = CacheStore::open(&path, "m", StoreConfig::default()).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.generation(), 2, "each open bumps the generation");
        let b = reopened.get("beta\nmultiline").unwrap();
        assert_eq!(b.text, "B");
        assert_eq!(b.usage.prompt_tokens, 20);
        cleanup(&path);
    }

    #[test]
    fn wrong_model_and_wrong_version_fail_cleanly() {
        let path = temp_path("guards");
        let store = CacheStore::open(&path, "model-a", StoreConfig::default()).unwrap();
        store.offer("p", &completion("c", 1));
        drop(store);
        let before = std::fs::read(&path).unwrap();
        assert!(matches!(
            CacheStore::open(&path, "model-b", StoreConfig::default()),
            Err(StoreError::ModelMismatch { .. })
        ));
        // Version tampering: bump the version field in place.
        let mut tampered = before.clone();
        tampered[8] = 9;
        std::fs::write(&path, &tampered).unwrap();
        assert!(matches!(
            CacheStore::open(&path, "model-a", StoreConfig::default()),
            Err(StoreError::Version { found: 9 })
        ));
        assert_eq!(
            std::fs::read(&path).unwrap(),
            tampered,
            "failed opens must not modify the file"
        );
        cleanup(&path);
    }

    #[test]
    fn admission_gates_one_touch_keys_at_capacity() {
        let path = temp_path("admission");
        let config = StoreConfig::default().with_max_entries(4);
        let store = CacheStore::open(&path, "m", config).unwrap();
        for i in 0..4 {
            assert!(store.offer(&format!("hot {i}"), &completion("h", 1)));
        }
        // A scan of one-touch keys at capacity: every offer rejected.
        for i in 0..50 {
            assert!(
                !store.offer(&format!("scan {i}"), &completion("s", 1)),
                "one-touch scan key {i} must be rejected at capacity"
            );
        }
        assert_eq!(store.len(), 4);
        let stats = store.stats();
        assert_eq!(stats.rejected, 50);
        assert_eq!(stats.evicted, 0);
        for i in 0..4 {
            assert!(store.get(&format!("hot {i}")).is_some(), "hot set resident");
        }
        // A key with a prior access earns admission and displaces the
        // FIFO victim. Three probes = doorkeeper + two sketch bumps =
        // estimate 3; the tiered cache reaches the same estimate on a
        // key's second probe-plus-offer access.
        let _ = store.get("promoted");
        let _ = store.get("promoted");
        let _ = store.get("promoted");
        assert!(store.offer("promoted", &completion("p", 1)));
        assert_eq!(store.stats().evicted, 1);
        assert!(store.get("hot 0").is_none(), "FIFO victim displaced");
        cleanup(&path);
    }

    #[test]
    fn compaction_reclaims_dead_frames_and_roundtrips() {
        let path = temp_path("compact");
        let config = StoreConfig::default().with_max_entries(2);
        let store = CacheStore::open(&path, "m", config).unwrap();
        store.offer("a", &completion("A", 1));
        store.offer("b", &completion("B", 1));
        // Promote two newcomers through repeated sightings (estimate 3).
        for key in ["c", "d"] {
            let _ = store.get(key);
            let _ = store.get(key);
            let _ = store.get(key);
            assert!(store.offer(key, &completion(&key.to_uppercase(), 1)));
        }
        assert_eq!(store.dead_frames(), 2);
        let size_before = std::fs::metadata(&path).unwrap().len();
        let dropped = store.compact().unwrap();
        assert_eq!(dropped, 2);
        assert!(std::fs::metadata(&path).unwrap().len() < size_before);
        assert_eq!(store.dead_frames(), 0);
        assert_eq!(store.stats().compactions, 1);
        assert_eq!(store.stats().compacted_frames, 2);
        assert_eq!(store.get("c").unwrap().text, "C");
        assert_eq!(store.get("d").unwrap().text, "D");
        assert!(store.get("a").is_none());

        // The compacted file reopens clean.
        drop(store);
        let reopened = CacheStore::open(&path, "m", config).unwrap();
        assert_eq!(reopened.canonical_prompts(), vec!["c", "d"]);
        cleanup(&path);
    }

    #[test]
    fn max_age_expires_untouched_entries_across_opens() {
        let path = temp_path("maxage");
        let config = StoreConfig::default().with_max_age(1);
        let store = CacheStore::open(&path, "m", config).unwrap();
        store.offer("old", &completion("O", 1));
        store.offer("fresh", &completion("F", 1));
        drop(store);
        // Open 2: touch only "fresh"; compaction persists the refreshed
        // generation (touches refresh the in-memory index, the file
        // itself is append-only).
        let store = CacheStore::open(&path, "m", config).unwrap();
        assert!(store.get("fresh").is_some());
        store.compact().unwrap();
        drop(store);
        // Open 3: "old" was last touched at generation 1 → age 2 > 1.
        let store = CacheStore::open(&path, "m", config).unwrap();
        assert!(store.get("old").is_none(), "untouched entry expired");
        assert!(store.get("fresh").is_some(), "touched entry survives");
        assert_eq!(store.stats().expired, 1);
        cleanup(&path);
    }

    #[test]
    fn truncation_at_every_byte_fails_clean_or_drops_tail() {
        let path = temp_path("trunc");
        let store = CacheStore::open(&path, "m", StoreConfig::default()).unwrap();
        store.offer("alpha", &completion("A", 3));
        store.offer("beta", &completion("B", 4));
        drop(store);
        let full = std::fs::read(&path).unwrap();
        for cut in 0..full.len() {
            let result = scan_store(&full[..cut], "m");
            match result {
                Ok(scan) => {
                    // A cut exactly on a frame boundary is a valid shorter
                    // store; anything else must error.
                    assert!(
                        scan.frames <= 2,
                        "truncated scan cannot see more frames than written"
                    );
                }
                Err(
                    StoreError::Format(_)
                    | StoreError::Version { .. }
                    | StoreError::ModelMismatch { .. },
                ) => {}
                Err(other) => panic!("unexpected error class at cut {cut}: {other}"),
            }
        }
        cleanup(&path);
    }

    #[test]
    fn store_stats_merge_is_commutative_and_exact() {
        let a = StoreStats {
            hits: 3,
            misses: 5,
            admitted: 2,
            rejected: 7,
            evicted: 1,
            expired: 4,
            compactions: 1,
            compacted_frames: 9,
        };
        let b = StoreStats {
            hits: 11,
            misses: 13,
            admitted: 17,
            rejected: 19,
            evicted: 23,
            expired: 29,
            compactions: 31,
            compacted_frames: 37,
        };
        let mut ab = a;
        ab.merge(b);
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba);
        assert_eq!(ab.hits, 14);
        assert_eq!(ab.compacted_frames, 46);
    }

    #[test]
    fn tinylfu_is_deterministic_and_scan_resistant() {
        let mut f1 = TinyLfu::new(42, 64);
        let mut f2 = TinyLfu::new(42, 64);
        for i in 0..10_000u64 {
            let h = content_hash(&format!("key {}", i % 64));
            f1.touch(h);
            f2.touch(h);
        }
        for i in 0..64u64 {
            let h = content_hash(&format!("key {i}"));
            assert_eq!(f1.estimate(h), f2.estimate(h), "same history, same filter");
            assert!(f1.estimate(h) >= 2, "hot keys estimate as repeats");
        }
        // A never-seen key estimates below the admission bar.
        assert!(f1.estimate(content_hash("cold key")) < 2);
        // A long one-touch scan must not promote its keys to "frequent":
        // aging every 10 × capacity touches keeps the doorkeeper sparse,
        // so first-sighting estimates stay below the admission bar.
        let mut false_frequent = 0usize;
        for k in 0..100_000u64 {
            let h = content_hash(&format!("scan key {k}"));
            if f1.estimate(h) >= 2 {
                false_frequent += 1;
            }
            f1.touch(h);
        }
        assert_eq!(
            false_frequent, 0,
            "one-touch scan keys must never estimate as frequent"
        );
    }
}
