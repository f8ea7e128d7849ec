//! Prompt canonicalization: the cache-key layer of the prompting subsystem.
//!
//! The paper's pipeline prompts are highly redundant across the rows of one
//! table — every imputation run renders the same `p_rm` preamble, the same
//! `p_cq` demonstration block, and near-identical `p_dp` record lists — but
//! a verbatim prompt → completion memo only deduplicates byte-identical
//! strings. On the imputation workload that yields ~2% hit rates, because
//! the meta-wise retrieval prompt embeds the per-row target key even though
//! the model's answer ("which attributes help?") is a property of the
//! *table*, not the row.
//!
//! [`CanonicalPrompt::canonicalize`] closes that gap. It normalizes
//! whitespace, and at [`CanonLevel::TableStem`] it additionally rewrites
//! the per-row part of a `p_rm` retrieval query to its table-level form
//! (`"Copenhagen, timezone"` → `"*, timezone"`), so every row of a table
//! shares one `p_rm` cache entry; at [`CanonLevel::Semantic`] it also
//! sorts the list bodies of `p_ri` and `p_dp` prompts. A canonical prompt
//! is three things: the canonical text, its content hash, and — when a
//! list was reordered — how to map a completion back ([`ReplayFold`]).
//!
//! Correctness under canonicalization is preserved by construction: the
//! cache completes the *canonical* prompt text on a miss (never the raw
//! variant), so the memo is a pure function of the canonical key.
//! Whichever thread populates an entry, the stored completion is identical
//! — serial and parallel batches stay bit-for-bit equal.
//!
//! # The allocation-free hot path
//!
//! Canonicalization sits on the dispatch hot path: every cache lookup
//! that is not served by its raw text alone runs it (the cache serves a
//! prompt equal to a resident key, or one its fold memo has seen, before
//! canonicalizing, because canonicalization is idempotent and every
//! resident key is canonical). [`CanonicalPrompt::canonicalize`] is the
//! hot-path entry point: it borrows the input (`Cow::Borrowed`) whenever
//! the prompt is **already canonical** — whitespace-normal, and (at
//! [`CanonLevel::TableStem`]) with its retrieval query already in
//! table-level form, and (at [`CanonLevel::Semantic`]) with its list body
//! already sorted. Such a prompt costs two passes over its bytes and no
//! allocation: one branch-free normality pass over adjacent byte pairs
//! (compiled to vector compares) and one pass of the content hash below;
//! the shape tests between them are prefix checks and substring searches.
//! The only allocations happen when a prompt genuinely needs rewriting,
//! and the folds discover "already sorted" by streaming comparison before
//! they allocate anything.
//!
//! # The content hash
//!
//! [`CanonicalPrompt::hash64`] is [`unidm_text::hash::content_hash`] of
//! the canonical text — the workspace's one word-at-a-time content hash —
//! computed **once** per canonicalization, and not at all by the cache
//! when the canonical text is the prompt it already hashed. It is deterministic and
//! **unkeyed** — the same text hashes the same in every process and on
//! every platform, which keeps shard placement, and so per-shard eviction,
//! reproducible — and it lives **in memory only**: the cache selects a
//! shard and keys its maps by it, nothing persists it (the disk tier
//! stores canonical text under its own checksum). Being unkeyed, texts can
//! in principle be constructed to share a 64-bit hash; they would then
//! share a probe chain, which costs lookup time only — every probe still
//! compares the full text.
//!
//! # Examples
//!
//! Two rows of the same table fold to one key at table-stem level:
//!
//! ```
//! use unidm::{CanonLevel, CanonicalPrompt};
//! use unidm_llm::protocol::{render_prm, TaskKind};
//!
//! let candidates = vec!["country".to_string(), "population".to_string()];
//! let row_a = render_prm(TaskKind::Imputation, "Copenhagen, timezone", &candidates);
//! let row_b = render_prm(TaskKind::Imputation, "Florence, timezone", &candidates);
//! assert_ne!(row_a, row_b, "verbatim prompts differ per row");
//!
//! let key_a = CanonicalPrompt::canonicalize(&row_a, CanonLevel::TableStem);
//! let key_b = CanonicalPrompt::canonicalize(&row_b, CanonLevel::TableStem);
//! assert_eq!(key_a.text(), key_b.text(), "canonical keys fold the per-row target key");
//! assert_eq!(key_a.hash64(), key_b.hash64());
//! assert!(key_a.text().contains("[*, timezone]"));
//! ```
//!
//! An already-canonical prompt is borrowed, not copied:
//!
//! ```
//! use unidm::{CanonLevel, CanonicalPrompt};
//!
//! let canon = CanonicalPrompt::canonicalize("already canonical", CanonLevel::TableStem);
//! assert!(canon.is_borrowed());
//! ```

use std::borrow::Cow;

use unidm_llm::protocol::{parse_prm, render_prm, TaskKind};
use unidm_llm::Completion;
use unidm_text::format::push_decimal;
use unidm_text::hash::content_hash;

/// How aggressively [`CanonicalPrompt::canonicalize`] normalizes a prompt
/// before it is used as a cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CanonLevel {
    /// The key is the verbatim prompt: byte-identical prompts share an
    /// entry, nothing else. This is exact memoization — cached and
    /// uncached execution are indistinguishable down to token counts.
    #[default]
    Verbatim,
    /// Whitespace is normalized (runs of blanks collapse, line edges trim)
    /// but no per-row content is rewritten. Prompts differing only in
    /// insignificant whitespace share an entry.
    Whitespace,
    /// Everything `Whitespace` does, plus per-row retrieval queries are
    /// rewritten to their table-level form: the `p_rm` query of an
    /// imputation run drops its row key, and an error-detection query
    /// drops its cell value. All rows of a table then share the same
    /// meta-retrieval entry, which is what lifts imputation hit rates
    /// from ~2% to ≥20%.
    TableStem,
    /// Canonicalization v2: everything `TableStem` does, plus
    /// order-insensitive folding of list-shaped prompt bodies. `p_dp`
    /// record blocks that differ only in row order sort to one canonical
    /// block (retrieval over the same rows produces the same parsing
    /// prompt whatever order scoring returned them in), and `p_ri`
    /// instance lists sort and renumber, so reorderings of one sampled
    /// instance set share an entry.
    ///
    /// Folded completions are **permutation-corrected on replay**: the
    /// fold records how the request's elements moved into canonical
    /// order ([`ReplayFold`]), and the cache maps the canonical
    /// completion's index-keyed scores (`p_ri`) or per-record lines
    /// (`p_dp`) back into the request's own index space. Replay is
    /// deterministic, but unlike the lower levels it is **semantic, not
    /// exact**: the model never sees the request's exact ordering, so
    /// per-index capability noise can differ from a direct call. The
    /// answer drift this induces is bounded and measured against
    /// uncached runs in the eval suite (see `tests/canon_v2.rs`);
    /// workloads that need exact replay stay at
    /// [`CanonLevel::TableStem`].
    Semantic,
}

impl CanonLevel {
    /// Short lowercase name, used in logs and bench output.
    pub fn as_str(&self) -> &'static str {
        match self {
            CanonLevel::Verbatim => "verbatim",
            CanonLevel::Whitespace => "whitespace",
            CanonLevel::TableStem => "table-stem",
            CanonLevel::Semantic => "semantic",
        }
    }

    /// Whether this level rewrites per-row retrieval queries to their
    /// table-level form ([`CanonLevel::TableStem`] and above).
    pub fn generalizes_queries(&self) -> bool {
        matches!(self, CanonLevel::TableStem | CanonLevel::Semantic)
    }

    /// Whether this level folds order-insensitive list bodies (`p_dp`
    /// record blocks, `p_ri` instance lists) — canonicalization v2.
    pub fn folds_lists(&self) -> bool {
        matches!(self, CanonLevel::Semantic)
    }
}

impl std::fmt::Display for CanonLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How a completion of the canonical (sorted) form of a folded prompt is
/// adapted back into the index space of the request that produced this
/// canonicalization — the replay half of the v2 folds.
///
/// Both variants carry the fold's permutation: `perm[canonical_pos] =
/// original_pos` (0-based). Element `j` of the canonical completion
/// belongs to element `perm[j]` of the request, so [`ReplayFold::adapt`]
/// scatters the canonical elements back to their requested positions.
/// Adaptation is total and never fails: a completion that is not in the
/// expected per-element shape (free-form text, wrong element count) is
/// returned unchanged — the caller gets exactly what v1 replay gave it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayFold {
    /// A folded `p_ri` instance list: the completion is index-keyed
    /// relevance scores (`"1:2, 2:0, …"`) whose indices are remapped.
    PriScores(Vec<usize>),
    /// A folded `p_dp` record block: the completion is one line per
    /// record, reordered back to the request's record order.
    PdpLines(Vec<usize>),
}

impl ReplayFold {
    /// Maps `canonical` — the completion of the canonical (sorted)
    /// prompt — into the request's original element order. Token usage is
    /// carried over unchanged (the canonical call is the one that paid).
    pub fn adapt(&self, canonical: &Completion) -> Completion {
        let text = match self {
            ReplayFold::PriScores(perm) => remap_pri_scores(&canonical.text, perm),
            ReplayFold::PdpLines(perm) => remap_lines(&canonical.text, perm),
        };
        match text {
            Some(text) => Completion {
                text,
                usage: canonical.usage,
            },
            None => canonical.clone(),
        }
    }

    /// The fold's permutation (`perm[canonical_pos] = original_pos`).
    pub fn permutation(&self) -> &[usize] {
        match self {
            ReplayFold::PriScores(perm) | ReplayFold::PdpLines(perm) => perm,
        }
    }
}

/// Remaps an index-keyed `p_ri` score list (`"1:s, 2:s, …"`) through
/// `perm`. `None` when the text is not exactly a full, in-order score
/// list for `perm.len()` instances.
fn remap_pri_scores(text: &str, perm: &[usize]) -> Option<String> {
    let mut scores: Vec<&str> = vec![""; perm.len()];
    let mut seen = 0usize;
    for (j, part) in text.split(',').enumerate() {
        let (index, score) = part.trim().split_once(':')?;
        if index.parse::<usize>().ok()? != j + 1 {
            return None;
        }
        let slot = *perm.get(j)?;
        scores[slot] = score;
        seen += 1;
    }
    if seen != perm.len() {
        return None;
    }
    // The indices are the same 1..n at the same positions, so the
    // remapped list is exactly as long as the canonical one.
    let mut out = String::with_capacity(text.len());
    for (k, score) in scores.iter().enumerate() {
        if k > 0 {
            out.push_str(", ");
        }
        push_decimal(&mut out, k + 1);
        out.push(':');
        out.push_str(score);
    }
    Some(out)
}

/// Reorders the lines of a per-record completion through `perm`. `None`
/// when the line count does not match the fold's element count.
fn remap_lines(text: &str, perm: &[usize]) -> Option<String> {
    if text.split('\n').count() != perm.len() {
        return None;
    }
    let mut out: Vec<&str> = vec![""; perm.len()];
    for (line, &slot) in text.split('\n').zip(perm) {
        out[slot] = line;
    }
    Some(out.join("\n"))
}

/// A canonical prompt: the canonical text (borrowed from the input
/// whenever no rewrite was needed), its content hash — computed once,
/// here, and reused by everything downstream — and the replay of a fold.
///
/// This is what the prompt cache keys its lookups on: a hit needs only the
/// hash (for shard selection and the map probe) and the canonical text
/// (for the equality check), neither of which allocates when the incoming
/// prompt is already canonical.
///
/// # Examples
///
/// A `p_cq` prompt leads with its task's demonstrations, the same in
/// every cloze-construction prompt of that task; what makes two of them
/// one entry is that task, context and query coincide, never a rewrite:
///
/// ```
/// use unidm::{CanonLevel, CanonicalPrompt};
/// use unidm_llm::protocol::{render_pcq, Claim, TaskKind};
///
/// let claim = Claim {
///     task: TaskKind::Imputation,
///     context: "Florence belongs to the country Italy.".into(),
///     query: "city: Copenhagen; country: ?".into(),
/// };
/// let prompt = render_pcq(&claim);
/// let spaced = prompt.replace("Claim: ", "Claim:   ");
/// let canon = CanonicalPrompt::canonicalize(&spaced, CanonLevel::Semantic);
/// assert_eq!(canon.text(), prompt, "only the whitespace is normalized");
/// assert!(canon.replay().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct CanonicalPrompt<'a> {
    /// The canonical prompt text.
    text: Cow<'a, str>,
    /// Content hash of the canonical text.
    hash: u64,
    /// How completions of the canonical text are adapted back into this
    /// request's element order (`None` when no v2 fold reordered it).
    replay: Option<ReplayFold>,
}

impl<'a> CanonicalPrompt<'a> {
    /// Canonicalizes `prompt` at `level`, borrowing the input whenever it
    /// is already canonical.
    ///
    /// The borrowed fast path covers: [`CanonLevel::Verbatim`] always;
    /// whitespace-normal prompts at [`CanonLevel::Whitespace`]; and
    /// whitespace-normal prompts whose retrieval query is already in
    /// table-level form at [`CanonLevel::TableStem`]. Everything else
    /// falls back to the allocating rewrite.
    ///
    /// Canonicalization is idempotent: canonicalizing
    /// [`CanonicalPrompt::text`] again at the same level borrows it back
    /// unchanged.
    pub fn canonicalize(prompt: &'a str, level: CanonLevel) -> CanonicalPrompt<'a> {
        let (text, replay) = canonical_form(prompt, level);
        CanonicalPrompt {
            hash: content_hash(&text),
            text,
            replay,
        }
    }

    /// [`CanonicalPrompt::canonicalize`] for a caller that has already
    /// hashed `prompt`: `prompt_hash` is its content hash, and it becomes
    /// the canonical hash whenever the text is borrowed — a borrowed
    /// canonical text is always the whole prompt — so only a rewritten
    /// text is hashed here.
    pub(crate) fn canonicalize_hashed(
        prompt: &'a str,
        level: CanonLevel,
        prompt_hash: u64,
    ) -> CanonicalPrompt<'a> {
        let (text, replay) = canonical_form(prompt, level);
        let hash = match &text {
            Cow::Borrowed(_) => prompt_hash,
            Cow::Owned(rewritten) => content_hash(rewritten),
        };
        CanonicalPrompt { text, hash, replay }
    }

    /// The canonical prompt text — what a canonicalizing cache completes
    /// on a miss.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// The content hash of the canonical text (see the module docs): what
    /// the cache selects a shard and keys its maps by. Equal canonical
    /// texts always hash equal.
    ///
    /// Stable across runs and platforms (it hashes the canonical text's
    /// bytes, not `Hasher` state), so a bounded cache — which evicts per
    /// shard — behaves the same everywhere. It is never persisted: the
    /// disk tier stores canonical text under its own checksum, and a
    /// reopened store's entries are re-hashed when they are read back into
    /// memory.
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// Whether canonicalization borrowed the input (the zero-allocation
    /// fast path) rather than rewriting it.
    pub fn is_borrowed(&self) -> bool {
        matches!(self.text, Cow::Borrowed(_))
    }

    /// How completions of the canonical text must be adapted back into
    /// this request's element order — `Some` only when a v2 fold
    /// actually reordered the request (see [`ReplayFold`]).
    pub fn replay(&self) -> Option<&ReplayFold> {
        self.replay.as_ref()
    }

    /// Takes the replay out (see [`CanonicalPrompt::replay`]).
    pub(crate) fn take_replay(&mut self) -> Option<ReplayFold> {
        self.replay.take()
    }

    /// Takes ownership of the canonical text (allocating only when it was
    /// still borrowed).
    pub fn into_text(self) -> String {
        self.text.into_owned()
    }
}

/// The canonical text of `prompt` at `level` — borrowed (the whole
/// prompt) when no rewrite is needed — and the replay of a fold that
/// reordered it. [`CanonicalPrompt::canonicalize`] documents the rules.
fn canonical_form(prompt: &str, level: CanonLevel) -> (Cow<'_, str>, Option<ReplayFold>) {
    if level == CanonLevel::Verbatim {
        return (Cow::Borrowed(prompt), None);
    }
    let norm = normalize_whitespace(prompt);
    // p_rm — the per-row part is the query. The borrowed scanner
    // accepts only prompts in the renderer's exact shape, so splicing
    // at its query range is provably identical to a parse + re-render.
    if let Some(scan) = scan_prm_exact(&norm) {
        let (query_start, query_end) = scan.query;
        let query = &norm[query_start..query_end];
        if level.generalizes_queries() {
            if let Some(general) = generalize_query(scan.task, query) {
                let parts = [
                    &norm[..query_start],
                    general[0],
                    general[1],
                    &norm[query_end..],
                ];
                return (Cow::Owned(parts.concat()), None);
            }
        }
        return (norm, None);
    }
    // Oddly spaced p_rm variants the exact scanner refused: re-render
    // around the (possibly generalized) query so the key is
    // independent of how the original prompt was spaced.
    if let Some(req) = parse_prm(&norm) {
        let general = (level.generalizes_queries())
            .then(|| generalize_query(req.task, &req.query))
            .flatten();
        let query = general.map_or_else(|| req.query.clone(), |g| g.concat());
        let rendered = render_prm(req.task, &query, &req.candidates);
        return (Cow::Owned(rendered), None);
    }
    if !level.folds_lists() {
        return (norm, None);
    }
    // p_ri — reorderings of one instance list fold: lines sort and
    // renumber to one canonical list (a no-op — hence borrowed — when
    // the list is already sorted). A prompt in this shape is not
    // looked at again, whether or not its list folds.
    if norm.contains("Score the relevance") && norm.contains("The target query is") {
        return match fold_pri_instances(&norm) {
            Some((folded, perm)) => (Cow::Owned(folded), Some(ReplayFold::PriScores(perm))),
            None => (norm, None),
        };
    }
    // p_dp — record blocks that differ only in row order fold: the
    // record lines between the marker and the closing bracket sort to
    // one canonical block (order-insensitive record digest — a no-op,
    // hence borrowed, when already sorted). The one-byte tail check
    // runs first: most prompts that are not `p_dp` skip the searches
    // over their whole text. A cloze-construction prompt (`p_cq`) is
    // never a record block, whatever its claim ends with.
    if norm.ends_with(']') && !is_pcq(&norm) {
        if let Some(pos) = norm.find(PDP_MARKER) {
            if let Some((text, perm)) = fold_pdp_records(&norm, pos + PDP_MARKER.len()) {
                return (Cow::Owned(text), Some(ReplayFold::PdpLines(perm)));
            }
        }
    }
    // Target prompts (cloze questions, flat claims), claims to rewrite
    // and anything unrecognized: the normalized text is the key.
    (norm, None)
}

const PDP_MARKER: &str = "logical order: [";

/// Whether a whitespace-normal prompt is in the shape of `render_pcq`.
fn is_pcq(norm: &str) -> bool {
    norm.starts_with("Write the claim as a cloze question.") && norm.contains("\nClaim:")
}

/// Whether `prompt` is already in whitespace-normal form: no tabs or
/// carriage returns (the normalizer treats both as blanks, so its output
/// never contains them — which is what makes it a fixpoint), no double
/// blanks, no blanks or blank lines at line edges or the prompt's ends.
///
/// With blank = space or newline, that is: the ends are not blank, no byte
/// is a tab or CR, and no two adjacent bytes are both blank unless both
/// are `\n` (an interior empty line survives normalization).
fn is_whitespace_normal(prompt: &str) -> bool {
    let bytes = prompt.as_bytes();
    let (Some(&first), Some(&last)) = (bytes.first(), bytes.last()) else {
        return true;
    };
    if matches!(first, b' ' | b'\n' | b'\t' | b'\r') || matches!(last, b' ' | b'\n') {
        return false;
    }
    // Every adjacent pair `(bytes[i], bytes[i + 1])`, a fixed block at a
    // time. Inside a block there is no branch and no early exit, so the
    // loop compiles to vector compares; an abnormal prompt stops the scan
    // at a block boundary.
    const BLOCK: usize = 64;
    let block_is_normal = |(prev, next): (&[u8], &[u8])| {
        let abnormal = prev.iter().zip(next).fold(0u8, |bad, (&p, &n)| {
            let blank_p = (p == b' ') | (p == b'\n');
            let blank_n = (n == b' ') | (n == b'\n');
            let a_space = (p == b' ') | (n == b' ');
            bad | u8::from((n == b'\t') | (n == b'\r') | (blank_p & blank_n & a_space))
        });
        abnormal == 0
    };
    let (prevs, nexts) = (&bytes[..bytes.len() - 1], &bytes[1..]);
    let (prev_blocks, next_blocks) = (prevs.chunks_exact(BLOCK), nexts.chunks_exact(BLOCK));
    block_is_normal((prev_blocks.remainder(), next_blocks.remainder()))
        && prev_blocks.zip(next_blocks).all(block_is_normal)
}

/// Collapses runs of blanks (spaces, tabs, stray carriage returns),
/// trims line edges and the prompt's ends, and normalizes line endings
/// to `\n` — borrowing the input untouched when it is already normal
/// (the hot path: rendered prompts are born normal). The output is a
/// fixpoint: normalizing it again returns it borrowed.
fn normalize_whitespace(prompt: &str) -> Cow<'_, str> {
    if is_whitespace_normal(prompt) {
        return Cow::Borrowed(prompt);
    }
    let mut out = String::with_capacity(prompt.len());
    for line in prompt.lines() {
        let mut pending_space = false;
        let start = out.len();
        for ch in line.chars() {
            // '\r' counts as a blank (a lone one is stray line-ending
            // junk): folding it here keeps the output '\r'-free, so
            // normalization is a fixpoint — it can never manufacture an
            // "\r\n" pair that a second pass would strip differently.
            if ch == ' ' || ch == '\t' || ch == '\r' {
                pending_space = out.len() > start;
                continue;
            }
            if pending_space {
                out.push(' ');
                pending_space = false;
            }
            out.push(ch);
        }
        out.push('\n');
    }
    while out.ends_with('\n') {
        out.pop();
    }
    let trimmed_start = out.trim_start_matches('\n').len();
    Cow::Owned(out.split_off(out.len() - trimmed_start))
}

/// The order that sorts `items` byte-wise, ties by position
/// (`perm[sorted_pos] = original_pos`): what a stable sort gives, without
/// its scratch buffer. Exact, deterministic, locale-free.
fn sorted_order(items: &[&str]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..items.len()).collect();
    order.sort_unstable_by(|&a, &b| items[a].cmp(items[b]).then(a.cmp(&b)));
    order
}

/// Rebuilds a whitespace-normal `p_dp` prompt (record block at
/// `norm[block..len - 1]`) with its record lines sorted — the v2 fold
/// that makes the key insensitive to row order — plus the fold's
/// permutation. `None` when the lines are already in sorted order: the
/// borrowed fast path, found by streaming comparison before anything is
/// allocated.
fn fold_pdp_records(norm: &str, block: usize) -> Option<(String, Vec<usize>)> {
    let records = || norm[block..norm.len() - 1].split('\n');
    let (mut count, mut sorted, mut prev) = (0usize, true, "");
    for line in records() {
        count += 1;
        sorted &= prev <= line;
        prev = line;
    }
    if sorted {
        return None;
    }
    let mut lines: Vec<&str> = Vec::with_capacity(count);
    lines.extend(records());
    let order = sorted_order(&lines);
    let mut text = String::with_capacity(norm.len());
    text.push_str(&norm[..block]);
    for (i, &slot) in order.iter().enumerate() {
        if i > 0 {
            text.push('\n');
        }
        text.push_str(lines[slot]);
    }
    text.push(']');
    Some((text, order))
}

/// Rebuilds a whitespace-normal `p_ri` prompt with its numbered instance
/// list sorted by instance text and renumbered `1..n` — the v2 fold that
/// makes the key order-insensitive over the sampled instance set — plus
/// the fold's permutation (`perm[sorted_pos] = original_pos`, stable for
/// equal instances).
///
/// Returns `None` when no rewrite is needed (list already sorted and
/// numbered sequentially — the borrowed fast path) or when the prompt's
/// instance block is not in the renderer's `"{i}. {instance}"` shape
/// (fold refused; the unfolded v1 split still applies, so unrecognized
/// variants lose nothing). Either is found by a streaming pass before
/// anything is allocated.
fn fold_pri_instances(norm: &str) -> Option<(String, Vec<usize>)> {
    let (header, rest) = norm.split_once('\n')?;
    let (mut count, mut sorted, mut prev) = (0usize, true, "");
    for line in rest.split('\n') {
        let (number, body) = split_numbered(line)?;
        count += 1;
        if number.parse::<usize>().ok()? != count {
            return None;
        }
        sorted &= prev <= body;
        prev = body;
    }
    if sorted {
        return None;
    }
    let mut bodies: Vec<&str> = Vec::with_capacity(count);
    bodies.extend(rest.split('\n').map(|line| {
        let (_, body) = split_numbered(line).expect("shape checked above");
        body
    }));
    let order = sorted_order(&bodies);
    // Renumbering permutes the same 1..n, so the folded prompt is exactly
    // as long as the request.
    let mut out = String::with_capacity(norm.len());
    out.push_str(header);
    for (i, &slot) in order.iter().enumerate() {
        out.push('\n');
        push_decimal(&mut out, i + 1);
        out.push_str(". ");
        out.push_str(bodies[slot]);
    }
    Some((out, order))
}

/// `line.split_once(". ")` for a numbered list line, `"{number}. {body}"`:
/// the separator sits a digit or two in, so a byte scan finds it before a
/// string searcher is even built.
fn split_numbered(line: &str) -> Option<(&str, &str)> {
    let at = line.as_bytes().windows(2).position(|pair| pair == b". ")?;
    Some((&line[..at], &line[at + 2..]))
}

/// A borrowed scan of a `p_rm` prompt in the renderer's exact shape.
struct PrmScan {
    task: TaskKind,
    /// Byte range of the query inside the scanned text.
    query: (usize, usize),
}

/// Finds the depth-matched content of the bracket opening at `text[at]`
/// (which must be `[`), returning the byte range of the content.
fn bracket_content(text: &str, at: usize) -> Option<(usize, usize)> {
    let mut depth = 0usize;
    for (i, c) in text[at..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth = depth.checked_sub(1)?;
                if depth == 0 {
                    return Some((at + 1, at + i));
                }
            }
            _ => {}
        }
    }
    None
}

/// Accepts `text` only if it is byte-for-byte what
/// [`render_prm`] produces for some `(task, query, candidates)` — in which
/// case splitting at the scanned query range is provably identical to a
/// parse + re-render, and no allocation is needed. Returns `None` for
/// anything else (oddly spaced variants fall back to the allocating
/// parse-and-render path).
fn scan_prm_exact(text: &str) -> Option<PrmScan> {
    const P1: &str = "The task is [";
    const P2: &str = "]. The target query is [";
    const P3: &str = "]. The candidate attributes are [";
    const P4: &str = "]. Which attributes are helpful for the task and the query?";
    let rest = text.strip_prefix(P1)?;
    // Task description: exact match against the static descriptions (the
    // parser lowercases; exactness requires the rendered form verbatim).
    let task_end = rest.find(']')?;
    let task = task_from_exact_description(&rest[..task_end])?;
    let after_task = P1.len() + task_end;
    if !text[after_task..].starts_with(P2) {
        return None;
    }
    let query_open = after_task + P2.len() - 1;
    let (query_start, query_end) = bracket_content(text, query_open)?;
    if !text[query_end..].starts_with(P3) {
        return None;
    }
    let cand_open = query_end + P3.len() - 1;
    let (cand_start, cand_end) = bracket_content(text, cand_open)?;
    // The remainder must be exactly the closing question.
    if &text[cand_end..] != P4 {
        return None;
    }
    // Candidate list exactness: parse_prm splits on ", ", trims each item
    // and drops empties; re-rendering joins with ", ". That round-trips
    // byte-for-byte iff every item is non-empty and trim-stable.
    let candidates = &text[cand_start..cand_end];
    if candidates
        .split(", ")
        .any(|item| item.is_empty() || item != item.trim() || item.contains(['[', ']']))
    {
        return None;
    }
    Some(PrmScan {
        task,
        query: (query_start, query_end),
    })
}

/// Maps a task description to its kind only on an exact (already
/// lowercase, untrimmed) match — the non-allocating counterpart of
/// [`TaskKind::from_description`].
fn task_from_exact_description(desc: &str) -> Option<TaskKind> {
    TaskKind::ALL.into_iter().find(|t| t.description() == desc)
}

/// Rewrites a per-row retrieval query to its table-level form, as the two
/// borrowed pieces it is written from, or `None` when the query stands
/// (already-general queries, task kinds whose query genuinely determines
/// the answer).
///
/// Meta-wise retrieval asks which attributes help a *task* — the answer
/// depends on the table schema and the target attribute, not on which row
/// is being repaired. Imputation queries (`"<key>, <attr>"`) drop the row
/// key; error-detection queries (`"<attr>: <value>?"`) drop the cell
/// value. Other task kinds (table QA questions, entity pairs) keep their
/// query.
fn generalize_query(task: TaskKind, query: &str) -> Option<[&str; 2]> {
    match task {
        TaskKind::Imputation => {
            let (head, tail) = query.rsplit_once(',')?;
            let target = tail.trim();
            // The query stands iff it is already exactly "*, <target>".
            let general = head == "*" && tail.strip_prefix(' ') == Some(target);
            (!general).then_some(["*, ", target])
        }
        TaskKind::ErrorDetection => {
            let (attr, value) = query.split_once(':')?;
            let general = attr == attr.trim() && value == " *?";
            (value.trim_end().ends_with('?') && !general).then_some([attr.trim(), ": *?"])
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::protocol::{render_pcq, render_pdp, render_pri, Claim, SerializedRecord};

    fn recs() -> Vec<SerializedRecord> {
        vec![
            SerializedRecord::new(vec![
                ("city".into(), "Alicante".into()),
                ("country".into(), "Spain".into()),
            ]),
            SerializedRecord::new(vec![
                ("city".into(), "Florence".into()),
                ("country".into(), "Italy".into()),
            ]),
        ]
    }

    /// What the cache keys an entry by: the canonical text and its hash.
    fn key(prompt: &str, level: CanonLevel) -> (String, u64) {
        let canon = CanonicalPrompt::canonicalize(prompt, level);
        (canon.text().to_string(), canon.hash64())
    }

    #[test]
    fn verbatim_is_identity() {
        let canon = CanonicalPrompt::canonicalize("  spaced   out  ", CanonLevel::Verbatim);
        assert_eq!(canon.text(), "  spaced   out  ");
        assert!(canon.is_borrowed());
    }

    #[test]
    fn whitespace_normalization_folds_variants() {
        let a = key("The quick  brown fox \n jumps", CanonLevel::Whitespace);
        let b = key("The quick brown fox\njumps\n", CanonLevel::Whitespace);
        assert_eq!(a, b);
        assert_eq!(a.0, "The quick brown fox\njumps");
    }

    /// Below `TableStem` the per-row query is found but kept.
    #[test]
    fn prm_splits_query_into_suffix() {
        let candidates = vec!["country".to_string(), "population".to_string()];
        let p = render_prm(TaskKind::Imputation, "Copenhagen, timezone", &candidates);
        let canon = CanonicalPrompt::canonicalize(&p, CanonLevel::Whitespace);
        assert!(canon.text().contains("[Copenhagen, timezone]"));
        assert_eq!(canon.text(), p, "whitespace level must not rewrite content");
        assert!(canon.is_borrowed());
    }

    #[test]
    fn table_stem_folds_prm_rows() {
        let candidates = vec!["country".to_string(), "population".to_string()];
        let a = render_prm(TaskKind::Imputation, "Copenhagen, timezone", &candidates);
        let b = render_prm(TaskKind::Imputation, "Florence, timezone", &candidates);
        let ka = key(&a, CanonLevel::TableStem);
        assert_eq!(ka, key(&b, CanonLevel::TableStem));
        assert!(ka.0.contains("[*, timezone]"));
        // The canonical text is still a well-formed p_rm prompt.
        let req = parse_prm(&ka.0).expect("canonical p_rm parses");
        assert_eq!(req.query, "*, timezone");
        assert_eq!(req.candidates, candidates);
    }

    #[test]
    fn table_stem_keeps_prompts_with_distinct_targets_apart() {
        let candidates = vec!["country".to_string()];
        let a = render_prm(TaskKind::Imputation, "Copenhagen, timezone", &candidates);
        let b = render_prm(TaskKind::Imputation, "Copenhagen, population", &candidates);
        assert_ne!(
            key(&a, CanonLevel::TableStem),
            key(&b, CanonLevel::TableStem),
            "different target attributes must not share an entry"
        );
    }

    #[test]
    fn table_stem_generalizes_error_detection_value() {
        let candidates = vec!["addr".to_string()];
        let a = render_prm(TaskKind::ErrorDetection, "city: sheffxeld?", &candidates);
        let b = render_prm(TaskKind::ErrorDetection, "city: chicago?", &candidates);
        let ka = key(&a, CanonLevel::TableStem);
        assert_eq!(ka, key(&b, CanonLevel::TableStem));
        assert!(ka.0.contains("[city: *?]"));
    }

    #[test]
    fn table_stem_leaves_tableqa_questions_alone() {
        let candidates = vec!["gold".to_string()];
        let q = "Which nation won the most gold medals?";
        let p = render_prm(TaskKind::TableQa, q, &candidates);
        let canon = CanonicalPrompt::canonicalize(&p, CanonLevel::TableStem);
        assert_eq!(canon.text(), p, "questions determine the answer");
    }

    #[test]
    fn pri_query_and_instances_are_per_row() {
        let p = render_pri(TaskKind::Imputation, "Copenhagen, timezone", &recs());
        let canon = CanonicalPrompt::canonicalize(&p, CanonLevel::TableStem);
        assert!(canon.text().contains("[Copenhagen, timezone]"));
        assert!(canon.text().contains("Florence"));
        assert_eq!(canon.text(), p, "relevance is judged against the row");
    }

    /// Below `Semantic` a record block keys in the order it came in.
    #[test]
    fn pdp_record_block_is_the_suffix() {
        let p = render_pdp(&reversed_recs());
        for level in [CanonLevel::Whitespace, CanonLevel::TableStem] {
            let canon = CanonicalPrompt::canonicalize(&p, level);
            assert_eq!(canon.text(), p, "{level}");
            assert!(canon.is_borrowed() && canon.replay().is_none(), "{level}");
        }
    }

    /// Demonstrations and claim alike: no level rewrites a `p_cq`, whether
    /// it shows its task's one demonstration or, for a task the paper
    /// gives none, all four.
    #[test]
    fn pcq_demonstrations_land_in_the_stem() {
        for (task, demos) in [(TaskKind::Imputation, 1), (TaskKind::TableQa, 4)] {
            let claim = Claim {
                task,
                context: "Florence belongs to the country Italy.".into(),
                query: "city: Copenhagen; country: ?".into(),
            };
            let p = render_pcq(&claim);
            assert_eq!(p.matches("Cloze question: ").count(), demos, "{task:?}");
            assert!(p.contains("Wenham, Marysville") && p.contains("Copenhagen"));
            // Not even one whose claim ends like a record block.
            let bracketed = format!("{p} logical order: [b\na]");
            for level in [CanonLevel::TableStem, CanonLevel::Semantic] {
                for prompt in [&p, &bracketed] {
                    let canon = CanonicalPrompt::canonicalize(prompt, level);
                    assert_eq!(canon.text(), prompt.as_str(), "{level} {task:?}");
                    assert!(canon.is_borrowed() && canon.replay().is_none(), "{level}");
                }
            }
        }
    }

    #[test]
    fn canonicalization_is_idempotent() {
        let candidates = vec!["country".to_string(), "population".to_string()];
        let prompts = vec![
            render_prm(TaskKind::Imputation, "Copenhagen, timezone", &candidates),
            render_prm(TaskKind::ErrorDetection, "city: sheffxeld?", &candidates),
            render_pri(TaskKind::Imputation, "Copenhagen, timezone", &recs()),
            render_pdp(&recs()),
            "  an   unstructured\n\n prompt ".to_string(),
        ];
        for level in [
            CanonLevel::Whitespace,
            CanonLevel::TableStem,
            CanonLevel::Semantic,
        ] {
            for p in &prompts {
                let once = key(p, level);
                let twice = key(&once.0, level);
                assert_eq!(once, twice, "idempotence failed at {level} for {p:?}");
            }
        }
    }

    #[test]
    fn canonical_prompts_are_borrowed_not_copied() {
        // Rendered prompts are born whitespace-normal, so re-canonicalizing
        // a canonical text must take the borrowed fast path at every level.
        let candidates = vec!["country".to_string(), "population".to_string()];
        let prompts = vec![
            render_prm(TaskKind::Imputation, "Copenhagen, timezone", &candidates),
            render_prm(TaskKind::ErrorDetection, "city: sheffxeld?", &candidates),
            render_prm(TaskKind::TableQa, "Which nation won?", &candidates),
            render_pri(TaskKind::Imputation, "Copenhagen, timezone", &recs()),
            render_pdp(&recs()),
            "a plain prompt".to_string(),
        ];
        for level in [
            CanonLevel::Verbatim,
            CanonLevel::Whitespace,
            CanonLevel::TableStem,
            CanonLevel::Semantic,
        ] {
            for p in &prompts {
                let canonical = CanonicalPrompt::canonicalize(p, level).into_text();
                let again = CanonicalPrompt::canonicalize(&canonical, level);
                assert!(
                    again.is_borrowed(),
                    "canonical text must be borrowed at {level}: {canonical:?}"
                );
                assert_eq!(again.text(), canonical);
            }
        }
    }

    fn reversed_recs() -> Vec<SerializedRecord> {
        let mut r = recs();
        r.reverse();
        r
    }

    #[test]
    fn semantic_folds_pdp_row_order() {
        let a = render_pdp(&recs());
        let b = render_pdp(&reversed_recs());
        assert_ne!(a, b, "reordered records render differently");
        assert_ne!(
            key(&a, CanonLevel::TableStem),
            key(&b, CanonLevel::TableStem),
            "v1 levels keep row orderings apart"
        );
        let ka = key(&a, CanonLevel::Semantic);
        let kb = key(&b, CanonLevel::Semantic);
        assert_eq!(ka, kb, "v2 folds record blocks differing only in row order");
        // The canonical block is the sorted one, still a well-formed p_dp.
        assert_eq!(ka.0, a, "recs() renders in sorted order already");
        let (_, block) = ka.0.split_once(PDP_MARKER).expect("still a p_dp");
        let sorted_lines: Vec<&str> = block.trim_end_matches(']').split('\n').collect();
        assert_eq!(sorted_lines.len(), 2);
        assert!(sorted_lines.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn semantic_folds_pri_instance_order_and_renumbers() {
        let a = render_pri(TaskKind::Imputation, "Copenhagen, timezone", &recs());
        let b = render_pri(
            TaskKind::Imputation,
            "Copenhagen, timezone",
            &reversed_recs(),
        );
        assert_ne!(
            key(&a, CanonLevel::TableStem),
            key(&b, CanonLevel::TableStem)
        );
        let ka = key(&a, CanonLevel::Semantic);
        let kb = key(&b, CanonLevel::Semantic);
        assert_eq!(ka, kb, "v2 folds instance-list reorderings");
        // The canonical list is sorted and renumbered 1..n.
        for (i, line) in ka.0.lines().skip(1).enumerate() {
            assert!(
                line.starts_with(&format!("{}. ", i + 1)),
                "renumbered sequentially: {line:?}"
            );
        }
        // Distinct instance sets must not fold together.
        let other = render_pri(TaskKind::Imputation, "Copenhagen, timezone", &recs()[..1]);
        assert_ne!(ka, key(&other, CanonLevel::Semantic));
    }

    #[test]
    fn semantic_fold_refuses_malformed_instance_blocks() {
        // Numbering that is not 1..n: the fold is refused and the prompt
        // keys as it stands.
        let odd = "The task is [x]. The target query is [q]. Score the relevance (range from 0 \
                   to 3) of the given instances based on the task and the query:\n7. zeta\n1. \
                   alpha";
        let canon = CanonicalPrompt::canonicalize(odd, CanonLevel::Semantic);
        assert!(canon.text().contains("7. zeta\n1. alpha"), "order kept");
        assert_eq!(canon.text(), odd);
        assert!(canon.replay().is_none());
    }

    #[test]
    fn already_general_queries_take_the_borrowed_path() {
        assert_eq!(generalize_query(TaskKind::Imputation, "*, timezone"), None);
        assert_eq!(
            generalize_query(TaskKind::Imputation, "Copenhagen, timezone"),
            Some(["*, ", "timezone"])
        );
        assert_eq!(generalize_query(TaskKind::ErrorDetection, "city: *?"), None);
        assert_eq!(
            generalize_query(TaskKind::ErrorDetection, "city: chicago?"),
            Some(["city", ": *?"])
        );
        // Queries with nothing to rewrite stand as they are.
        assert_eq!(generalize_query(TaskKind::Imputation, "no comma"), None);
        assert_eq!(
            generalize_query(TaskKind::TableQa, "Which nation won?"),
            None
        );
    }

    #[test]
    fn hash_is_stable_and_separates_keys() {
        let hash = |p| CanonicalPrompt::canonicalize(p, CanonLevel::Whitespace).hash64();
        assert_eq!(hash("hello world"), hash("hello world"));
        assert_ne!(hash("hello world"), hash("hello worlds"));
        // The hash is a pure function of the canonical text: the borrowed
        // and the rewriting paths must agree.
        assert_eq!(
            hash("  hello   world "),
            hash("hello world"),
            "whitespace variants fold to the same canonical hash"
        );
    }

    /// `is_whitespace_normal` as it was before the pair scan: one byte at
    /// a time, a branch per byte. Kept as the oracle.
    fn is_whitespace_normal_reference(prompt: &str) -> bool {
        let bytes = prompt.as_bytes();
        if bytes.is_empty() {
            return true;
        }
        if bytes[0] == b' ' || bytes[0] == b'\n' {
            return false;
        }
        let last = bytes[bytes.len() - 1];
        if last == b' ' || last == b'\n' {
            return false;
        }
        let mut prev = 0u8;
        for &b in bytes {
            match b {
                b'\t' | b'\r' => return false,
                b' ' if prev == b' ' || prev == b'\n' => return false,
                b'\n' if prev == b' ' => return false,
                _ => {}
            }
            prev = b;
        }
        true
    }

    #[test]
    fn whitespace_normality_scan_matches_the_byte_serial_reference() {
        // Every string of length 0–3 over the bytes the check tells apart.
        let mut patterns = vec![String::new()];
        for len in 0..3 {
            let longer: Vec<String> = patterns
                .iter()
                .filter(|p| p.len() == len)
                .flat_map(|p| [' ', '\n', '\t', '\r', 'a'].map(|c| format!("{p}{c}")))
                .collect();
            patterns.extend(longer);
        }
        assert_eq!(patterns.len(), 1 + 5 + 25 + 125);
        // A normal prompt long enough to span three scan blocks, with
        // single spaces, line breaks and an empty line around the planted
        // patterns.
        let long = ["The quick brown fox", "jumps over", "", "the lazy dog,"]
            .join("\n")
            .repeat(5);
        assert!(long.len() > 200 && is_whitespace_normal_reference(&long));
        let check = |case: &str| {
            assert_eq!(
                is_whitespace_normal(case),
                is_whitespace_normal_reference(case),
                "pair scan disagrees with the byte-serial reference on {case:?}"
            );
        };
        check(&long);
        for pattern in &patterns {
            check(pattern);
            // Straddling the scan's block boundaries (pairs 63|64, 127|128).
            for offset in (62..=66).chain(126..=130) {
                let mut planted = long.clone();
                planted.replace_range(offset..offset + pattern.len(), pattern);
                check(&planted);
            }
        }
    }

    #[test]
    fn whitespace_normality_check_matches_the_normalizer() {
        let cases = [
            "plain",
            "two\nlines",
            " leading",
            "trailing ",
            "double  space",
            "tab\there",
            "line \nedge",
            "\nleading newline",
            "trailing newline\n",
            "interior\n\nblank line",
            "lone\rcarriage return",
            "trailing lone carriage return\r",
            "crlf line\r\nending",
            // Regression: trimming the blank between '\r' and '\n' must
            // not manufacture a "\r\n" the next pass would strip — the
            // normalizer folds '\r' as a blank, so output is '\r'-free.
            "ab\r \ncd",
            "",
        ];
        for case in cases {
            let normalized = normalize_whitespace(case);
            assert_eq!(
                is_whitespace_normal(case),
                normalized.as_ref() == case,
                "normality check disagrees with the normalizer on {case:?}"
            );
            assert!(
                is_whitespace_normal(normalized.as_ref()),
                "normalized output must be normal: {case:?} -> {normalized:?}"
            );
        }
    }
}
