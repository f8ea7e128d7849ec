//! Tiered prompt-cache store: a versioned, append-only disk segment
//! beneath a [`crate::PromptCache`] — with TinyLFU admission control so a
//! table scan cannot flush the hot working set.
//!
//! The official UniDM repo persists every completion in a single sqlite
//! cache. [`CacheStore`] is this reproduction's one persistence path: a
//! `UDMCACHE3` file guarded by the model name it was written over.
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
//! # File format (`UDMCACHE3`)
//!
//! The layout is written and read with [`unidm_tablestore::codec`], the
//! segment format's codec: little-endian primitives, length-prefixed
//! strings, a magic/version header — but record-framed instead of
//! directory-indexed, because the store is append-only:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic "UDMCACHE" · u32 version (3) · str model               │
//! │ frame 0 │ frame 1 │ ...                                      │
//! └──────────────────────────────────────────────────────────────┘
//! frame := u32 payload_len · payload · u64 checksum64(payload)
//! payload := str canonical prompt · str completion
//!            · u32 prompt_tokens · u32 completion_tokens
//! ```
//!
//! A frame is immutable once appended. Each frame is sealed with
//! [`unidm_text::hash::checksum64`], the content hash's word-at-a-time fold
//! under its own frozen constants. A file of an earlier version —
//! `UDMCACHE1` (byte-serial FNV-1a) or `UDMCACHE2` (a leading `u64` in
//! every payload) — fails the open with [`StoreError::Version`] and is
//! left as it is.
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
//! filter in front of a **4-bit count-min sketch**, integer-only, under a
//! fixed seed, and fully deterministic. While the store is below capacity
//! every completion is admitted (a paper-scale workload persists
//! wholesale, so a warm replay needs zero model calls). At capacity, a
//! candidate must show evidence of a *prior* access (estimated frequency
//! ≥ 3 — more than its own probe-plus-offer can contribute, even through a
//! doorkeeper collision) to displace the oldest resident entry — so the
//! 10^5 one-touch prompts of a sequential scan are all rejected and the
//! hot set stays resident. Sketch counters halve periodically (aging),
//! keeping estimates fresh without floats or wall-clock time.
//!
//! # Compaction
//!
//! Displaced entries stay physically in the file (append-only writes are
//! what keep the hot path one `write` call) until [`CacheStore::compact`]
//! copies the live frames — sorted by canonical prompt, so the compacted
//! file is deterministic for a deterministic history. Compaction streams:
//! one frame at a time is read back, verified and copied byte for byte
//! through a buffered writer to a sibling temp file, which is then renamed
//! over the store — it holds one frame in memory, not the file.

use std::collections::{HashMap, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use unidm_llm::{Completion, Usage};
use unidm_tablestore::codec::{put_str, put_u32, put_u64, Cursor, Truncated};
use unidm_text::hash::{checksum64, content_hash, FNV_PRIME};

use crate::cache::{Key, KeyView};

/// Leading magic of every `UDMCACHE3` store file.
pub const STORE_MAGIC: &[u8; 8] = b"UDMCACHE";
/// Current store format version (the `3` of `UDMCACHE3`).
pub const STORE_VERSION: u32 = 3;

/// `bytes` as text, or the format error a garbled string is.
fn utf8(bytes: &[u8]) -> Result<&str, StoreError> {
    std::str::from_utf8(bytes).map_err(|_| StoreError::format("invalid utf-8 in store"))
}

/// Why a [`CacheStore`] could not be opened, read, or written.
#[derive(Debug)]
pub enum StoreError {
    /// Reading or writing the store file failed.
    Io(std::io::Error),
    /// The file is not a well-formed `UDMCACHE3` document (bad magic,
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

impl From<Truncated> for StoreError {
    fn from(_: Truncated) -> Self {
        StoreError::format("truncated store payload")
    }
}

/// Exact counters of one [`CacheStore`] (or one tier's view of it).
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
    /// Compaction passes performed.
    pub compactions: usize,
    /// Dead frames dropped by compaction (displaced or superseded
    /// duplicates).
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
}

/// Tuning knobs of a [`CacheStore`] (see [`CacheStore::open`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Maximum live entries; beyond it the admission filter gates every
    /// append. `usize::MAX` never gates (and never evicts).
    pub max_entries: usize,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            max_entries: usize::MAX,
        }
    }
}

impl StoreConfig {
    /// Bounds the store to `max_entries` live completions.
    pub fn with_max_entries(mut self, max_entries: usize) -> Self {
        self.max_entries = max_entries.max(1);
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
/// Seed of the filter's hash family. Every admission decision depends on
/// it, so changing it changes which completions a bounded store keeps.
const FILTER_SEED: u64 = 0x5eed_cafe;

/// TinyLFU frequency filter: doorkeeper bloom filter + 4-bit count-min
/// sketch. Integer-only, deterministic — admission decisions are a pure
/// function of the key-touch history.
struct TinyLfu {
    /// Packed 4-bit counters, two per byte.
    sketch: Vec<u8>,
    doorkeeper: Vec<u64>,
    touches: u64,
    /// Touches per aging pass: `10 × capacity` for a bounded store
    /// (clamped into `[64, AGING_PERIOD]`), `AGING_PERIOD` otherwise.
    sample_window: u64,
}

impl TinyLfu {
    fn new(max_entries: usize) -> TinyLfu {
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
            touches: 0,
            sample_window,
        }
    }

    /// The i-th member of the seeded hash family for `hash`.
    #[inline]
    fn index(&self, hash: u64, i: u64) -> usize {
        // One multiply-xor round per family member over the key's content
        // hash; the seed decorrelates the family from the shard mask.
        let mixed = (hash ^ FILTER_SEED.wrapping_mul(i.wrapping_add(1)))
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
            filter: TinyLfu::new(config.max_entries),
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
    state: Mutex<StoreState>,
}

impl std::fmt::Debug for CacheStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheStore")
            .field("path", &self.inner.path)
            .field("model", &self.inner.model)
            .field("len", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

/// Encodes one frame (length prefix + payload + checksum) into `out`; the
/// prompt comes in the two parts of a [`KeyView`].
fn encode_frame(out: &mut Vec<u8>, (head, tail): (&str, &str), completion: &Completion) {
    out.clear();
    put_u32(out, 0); // the payload length, known once it is written
    put_u32(out, (head.len() + tail.len()) as u32);
    out.extend_from_slice(head.as_bytes());
    out.extend_from_slice(tail.as_bytes());
    put_str(out, &completion.text);
    put_u32(out, completion.usage.prompt_tokens as u32);
    put_u32(out, completion.usage.completion_tokens as u32);
    let payload_len = (out.len() - 4) as u32;
    out[..4].copy_from_slice(&payload_len.to_le_bytes());
    let checksum = checksum64(&out[4..]);
    put_u64(out, checksum);
}

/// One frame's payload, borrowed from the bytes it was read into. The
/// strings stay bytes: a hit compares the prompt in place and copies only
/// the completion, so each caller validates what it keeps.
struct Payload<'a> {
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
    if cur.remaining() != 0 {
        return Err(StoreError::format("frame length prefix mismatch"));
    }
    if checksum64(payload) != checksum {
        return Err(StoreError::format("checksum mismatch"));
    }
    let mut cur = Cursor::new(payload);
    let prompt = cur.bytes()?;
    let text = cur.bytes()?;
    let prompt_tokens = cur.u32()? as usize;
    let completion_tokens = cur.u32()? as usize;
    if cur.remaining() != 0 {
        return Err(StoreError::format("trailing bytes in store frame"));
    }
    Ok(Payload {
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
    /// A fresh path is initialized with the `UDMCACHE3` header. An
    /// existing file is validated — magic, version, model name, then
    /// every frame's length and checksum — and scanned once to build the
    /// in-memory index. The admission filter is re-warmed from the live
    /// entries in deterministic (file) order, so a reopened store makes
    /// the same decisions a never-closed one would.
    ///
    /// # Errors
    ///
    /// [`StoreError::Format`] for truncated/garbled files,
    /// [`StoreError::Version`] (a `UDMCACHE1` or `UDMCACHE2` file among
    /// them) and [`StoreError::ModelMismatch`] for mismatched headers,
    /// [`StoreError::Io`] for filesystem failures. On error the file is
    /// **not modified** — a caller can fall back to a cold cache and leave
    /// the evidence intact.
    pub fn open(
        path: impl AsRef<Path>,
        model: &str,
        config: StoreConfig,
    ) -> Result<CacheStore, StoreError> {
        let path = path.as_ref().to_path_buf();
        let state = if path.exists() {
            // Validate and index the existing file without mutating it.
            let bytes = std::fs::read(&path)?;
            let scan = scan_store(&bytes, model)?;
            let file = OpenOptions::new().read(true).append(true).open(&path)?;
            let mut state = StoreState::new(file, bytes.len() as u64, &config);
            state.index = scan.index;
            state.frames = scan.frames;
            for key in scan.order {
                state.filter.touch(key.hash64());
                state.queue.push_back(key);
            }
            state
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
            StoreState::new(file, header.len() as u64, &config)
        };
        Ok(CacheStore {
            inner: Arc::new(StoreInner {
                path,
                model: model.to_string(),
                config,
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
    /// completion — no model call, no resident payload cache.
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
        let Some(&entry) = state.index.get(&probe as &dyn KeyView) else {
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
    /// (FIFO, deterministic), displaced only once the candidate's frame
    /// is written.
    ///
    /// Append failures are recorded as rejections (the store is an
    /// optimization, never a correctness dependency).
    pub fn offer(&self, prompt: &str, completion: &Arc<Completion>) -> bool {
        let hash = content_hash(prompt);
        self.offer_with(&(hash, prompt), || Key::new(hash, prompt), completion)
    }

    /// [`CacheStore::offer`] of `prompt`, a view of tier 0's key or a
    /// plain text; `owned` makes the index's key when the frame is
    /// appended.
    pub(crate) fn offer_with(
        &self,
        prompt: &dyn KeyView,
        owned: impl FnOnce() -> Key,
        completion: &Completion,
    ) -> bool {
        let hash = prompt.hash64();
        let mut guard = self.lock();
        let state = &mut *guard;
        if state.index.contains_key(prompt) {
            // Already resident (a re-admission): refresh the touch, keep
            // the existing frame.
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
            // Drop stale queue entries (already displaced), so the front
            // is the FIFO victim: the oldest still-live admission.
            while state
                .queue
                .front()
                .is_some_and(|key| !state.index.contains_key(key))
            {
                state.queue.pop_front();
            }
        } else {
            state.filter.touch(hash);
        }
        if self
            .append_frame(state, prompt.parts(), owned, completion)
            .is_err()
        {
            state.stats.rejected += 1;
            return false;
        }
        // The candidate joined the back of the queue: the front is still
        // the victim.
        if at_capacity {
            if let Some(victim) = state.queue.pop_front() {
                state.index.remove(&victim);
                state.stats.evicted += 1;
            }
        }
        state.stats.admitted += 1;
        true
    }

    fn append_frame(
        &self,
        state: &mut StoreState,
        prompt: (&str, &str),
        owned: impl FnOnce() -> Key,
        completion: &Completion,
    ) -> Result<(), StoreError> {
        encode_frame(&mut state.buf, prompt, completion);
        if let Err(e) = state.file.write_all(&state.buf) {
            // A short write may have left a torn tail; the next frame is
            // appended after whatever reached the file.
            state.end = state.file.metadata().map_or(state.end, |m| m.len());
            return Err(e.into());
        }
        let entry = IndexEntry {
            offset: state.end,
            frame_len: state.buf.len(),
        };
        state.end += state.buf.len() as u64;
        state.frames += 1;
        let key = owned();
        state.index.insert(key.clone(), entry);
        state.queue.push_back(key);
        Ok(())
    }

    /// Rewrites the file with only the live frames, sorted by canonical
    /// prompt — deterministic for a deterministic history — each copied
    /// byte for byte. Returns how many dead frames were reclaimed.
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
        live.sort_unstable_by(|a, b| a.0.text.cmp(&b.0.text));
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
        let mut prompts: Vec<String> = state.index.keys().map(|k| k.text.to_string()).collect();
        prompts.sort();
        prompts
    }
}

/// Streams the `live` frames, in order, from the store file into a fresh
/// `tmp` file — each verified, then copied as it is — and points every
/// entry at its new offset. The file is synced before the caller renames it
/// over the store, so a crash cannot leave a renamed but unwritten file.
/// Returns the new file's length.
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
        if payload.prompt != key.text.as_bytes() {
            return Err(StoreError::format("index out of sync during compaction"));
        }
        out.write_all(buf)?;
        entry.offset = end;
        end += buf.len() as u64;
    }
    out.flush()?;
    out.get_ref().sync_data()?;
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
}

/// Validates `bytes` as a `UDMCACHE3` document for `model` and extracts
/// the live entry index. Pure — never touches the filesystem.
fn scan_store(bytes: &[u8], model: &str) -> Result<StoreScan, StoreError> {
    let mut cur = Cursor::new(bytes);
    if cur.take(STORE_MAGIC.len()).ok() != Some(&STORE_MAGIC[..]) {
        return Err(StoreError::format("missing UDMCACHE magic"));
    }
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
    };
    while cur.remaining() > 0 {
        let offset = cur.pos();
        let payload_len = cur.u32()? as usize;
        cur.take(payload_len + 8)?;
        let payload = parse_frame(&bytes[offset..cur.pos()]).map_err(|e| match e {
            StoreError::Format(msg) => StoreError::Format(format!("{msg} at offset {offset}")),
            e => e,
        })?;
        let prompt = utf8(payload.prompt)?;
        utf8(payload.text)?;
        scan.frames += 1;
        let entry = IndexEntry {
            offset: offset as u64,
            frame_len: cur.pos() - offset,
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
    fn a_failed_append_at_capacity_keeps_the_victim() {
        let path = temp_path("append-fail");
        let config = StoreConfig::default().with_max_entries(2);
        let store = CacheStore::open(&path, "m", config).unwrap();
        store.offer("a", &completion("A", 1));
        store.offer("b", &completion("B", 1));
        // Three sightings make "c" frequent enough to displace "a".
        for _ in 0..3 {
            assert!(store.get("c").is_none());
        }
        // A read-only handle on the same file: the append cannot write.
        store.lock().file = File::open(&path).unwrap();
        assert!(!store.offer("c", &completion("C", 1)));
        let stats = store.stats();
        assert_eq!((stats.evicted, stats.rejected), (0, 1));
        assert_eq!(store.len(), 2, "no live entry is lost");
        assert_eq!(store.get("a").unwrap().text, "A", "the victim still serves");
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
    fn tinylfu_is_deterministic_and_scan_resistant() {
        let mut f1 = TinyLfu::new(64);
        let mut f2 = TinyLfu::new(64);
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
