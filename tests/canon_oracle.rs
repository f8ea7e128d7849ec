//! Oracle tests for the canonicalizer's hot-path rewrite: the
//! canonicalizer as it was before the word-at-a-time hash, the pair-scan
//! normality check, the streaming folds and the no-alloc decimal push is
//! kept below as [`reference`], and the shipped one must agree with it
//! byte for byte — canonical text, borrowedness, fold permutation and
//! replayed completion — on every prompt the seven task kinds send and on
//! seeded random and whitespace-mangled prompts, at all four levels.
//! The reference keeps every shape test of the old canonicalizer, in its
//! order — that order decides which odd prompts fold — but no longer
//! records the stem / suffix splice point those tests also yielded.

mod common;

use std::collections::BTreeSet;
use std::sync::Arc;

use common::{task_mix, Gen, PromptLog};
use unidm::{BatchRunner, CanonLevel, CanonicalPrompt, PipelineConfig, ReplayFold};
use unidm_llm::protocol::{
    render_pcq, render_pdp, render_pri, render_prm, Claim, SerializedRecord, TaskKind,
};
use unidm_llm::{Completion, LanguageModel, LlmProfile, MockLlm, Usage};
use unidm_world::World;

/// `unidm::canon` as of PR 16, minus the hash and the owned key type:
/// byte-serial normality check, folds that collect before they look,
/// `to_string` per index.
mod reference {
    use std::borrow::Cow;

    use unidm::{CanonLevel, ReplayFold};
    use unidm_llm::protocol::{parse_prm, render_prm, TaskKind};
    use unidm_llm::Completion;

    const QUERY_MARKER: &str = "The target query is [";
    const PDP_MARKER: &str = "logical order: [";

    /// What the old `CanonicalPrompt` held, hash aside.
    pub struct Reference<'a> {
        pub text: Cow<'a, str>,
        pub replay: Option<ReplayFold>,
    }

    /// The old `ReplayFold::adapt`.
    pub fn adapt(fold: &ReplayFold, canonical: &Completion) -> Completion {
        let text = match fold {
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
        let mut out = String::with_capacity(text.len());
        for (k, score) in scores.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            out.push_str(&(k + 1).to_string());
            out.push(':');
            out.push_str(score);
        }
        Some(out)
    }

    /// Reorders the lines of a per-record completion through `perm`. `None`
    /// when the line count does not match the fold's element count.
    fn remap_lines(text: &str, perm: &[usize]) -> Option<String> {
        let lines: Vec<&str> = text.split('\n').collect();
        if lines.len() != perm.len() {
            return None;
        }
        let mut out: Vec<&str> = vec![""; perm.len()];
        for (j, line) in lines.iter().enumerate() {
            out[perm[j]] = line;
        }
        Some(out.join("\n"))
    }

    pub fn canonicalize(prompt: &str, level: CanonLevel) -> Reference<'_> {
        if level == CanonLevel::Verbatim {
            return Reference {
                text: Cow::Borrowed(prompt),
                replay: None,
            };
        }
        let norm = normalize_whitespace(prompt);
        // p_rm — the query is the suffix, spliced mid-stem. The borrowed
        // scanner accepts only prompts in the renderer's exact shape, so
        // taking its split is provably identical to a parse + re-render.
        if let Some(scan) = scan_prm_exact(&norm) {
            let (query_start, query_end) = scan.query;
            let query = &norm[query_start..query_end];
            let rewritten = if level.generalizes_queries() {
                generalize_query(scan.task, query)
            } else {
                Cow::Borrowed(query)
            };
            return match rewritten {
                Cow::Borrowed(_) => Reference {
                    text: norm,
                    replay: None,
                },
                Cow::Owned(general) => {
                    let mut text = String::with_capacity(norm.len() - query.len() + general.len());
                    text.push_str(&norm[..query_start]);
                    text.push_str(&general);
                    text.push_str(&norm[query_end..]);
                    Reference {
                        text: Cow::Owned(text),
                        replay: None,
                    }
                }
            };
        }
        // Oddly spaced p_rm variants the exact scanner refused: re-render
        // around the (possibly generalized) query so the key is
        // independent of how the original prompt was spaced.
        if let Some(req) = parse_prm(&norm) {
            let query = if level.generalizes_queries() {
                generalize_query(req.task, &req.query).into_owned()
            } else {
                req.query.clone()
            };
            let rendered = render_prm(req.task, &query, &req.candidates);
            if rendered.contains(QUERY_MARKER) {
                return Reference {
                    text: Cow::Owned(rendered),
                    replay: None,
                };
            }
        }
        // p_ri — the task header is the stem; query and candidate
        // instances are per-row. At Semantic, reorderings of one instance
        // list fold: lines sort and renumber to one canonical list (a
        // no-op — hence borrowed — when the list is already sorted).
        if norm.contains("Score the relevance") && norm.contains("The target query is") {
            if level.folds_lists() {
                if let Some((folded, perm)) = fold_pri_instances(&norm) {
                    return Reference {
                        text: Cow::Owned(folded),
                        replay: Some(ReplayFold::PriScores(perm)),
                    };
                }
            }
            return Reference {
                text: norm,
                replay: None,
            };
        }
        // p_cq — instruction and demonstration block are the stem; the
        // final claim is per-row.
        if norm.starts_with("Write the claim as a cloze question.") && norm.contains("\nClaim:") {
            return Reference {
                text: norm,
                replay: None,
            };
        }
        // p_dp — the parsing instruction is the stem; the bracketed record
        // block is per-retrieval (the closing bracket stays in the stem).
        // At Semantic, record blocks that differ only in row order fold:
        // the record lines sort to one canonical block (order-insensitive
        // record digest — a no-op, hence borrowed, when already sorted).
        if let Some(pos) = norm.find(PDP_MARKER) {
            if norm.ends_with(']') {
                let splice = pos + PDP_MARKER.len();
                if level.folds_lists() {
                    let body = &norm[splice..norm.len() - 1];
                    if let Some((sorted, perm)) = sort_lines(body) {
                        let mut text = String::with_capacity(norm.len());
                        text.push_str(&norm[..splice]);
                        text.push_str(&sorted);
                        text.push(']');
                        return Reference {
                            text: Cow::Owned(text),
                            replay: Some(ReplayFold::PdpLines(perm)),
                        };
                    }
                }
                return Reference {
                    text: norm,
                    replay: None,
                };
            }
        }
        // Target prompts (cloze questions, flat claims) and anything
        // unrecognized: wholly per-row.
        Reference {
            text: norm,
            replay: None,
        }
    }

    /// Whether `prompt` is already in whitespace-normal form: no tabs or
    /// carriage returns (the normalizer treats both as blanks, so its output
    /// never contains them — which is what makes it a fixpoint), no double
    /// blanks, no blanks or blank lines at line edges or the prompt's ends.
    fn is_whitespace_normal(prompt: &str) -> bool {
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

    /// Returns the lines of `body` sorted (joined by `\n`) plus the fold's
    /// permutation (`perm[sorted_pos] = original_pos`) when a rewrite is
    /// needed, `None` when the lines are already in sorted order — the
    /// borrowed fast path of the v2 `p_dp` fold. Byte-wise ordering, stable
    /// for equal lines: exact, deterministic, locale-free.
    fn sort_lines(body: &str) -> Option<(String, Vec<usize>)> {
        let lines: Vec<&str> = body.split('\n').collect();
        if lines.windows(2).all(|w| w[0] <= w[1]) {
            return None;
        }
        let mut order: Vec<usize> = (0..lines.len()).collect();
        order.sort_by_key(|&i| lines[i]);
        let sorted: Vec<&str> = order.iter().map(|&i| lines[i]).collect();
        Some((sorted.join("\n"), order))
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
    /// variants lose nothing).
    fn fold_pri_instances(norm: &str) -> Option<(String, Vec<usize>)> {
        let (header, rest) = norm.split_once('\n')?;
        let mut bodies: Vec<&str> = Vec::new();
        let mut sorted = true;
        for (i, line) in rest.split('\n').enumerate() {
            let (number, body) = line.split_once(". ")?;
            if number.parse::<usize>().ok()? != i + 1 {
                return None;
            }
            if let Some(prev) = bodies.last() {
                if *prev > body {
                    sorted = false;
                }
            }
            bodies.push(body);
        }
        if bodies.is_empty() || sorted {
            return None;
        }
        let mut order: Vec<usize> = (0..bodies.len()).collect();
        order.sort_by_key(|&i| bodies[i]);
        let mut out = String::with_capacity(norm.len());
        out.push_str(header);
        for (i, &slot) in order.iter().enumerate() {
            out.push('\n');
            out.push_str(&(i + 1).to_string());
            out.push_str(". ");
            out.push_str(bodies[slot]);
        }
        Some((out, order))
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
    /// `render_prm` produces for some `(task, query, candidates)` — in which
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
    /// `TaskKind::from_description`.
    fn task_from_exact_description(desc: &str) -> Option<TaskKind> {
        TaskKind::ALL.into_iter().find(|t| t.description() == desc)
    }

    /// Rewrites a per-row retrieval query to its table-level form, borrowing
    /// the input when no rewrite is needed (already-general queries, task
    /// kinds whose query genuinely determines the answer).
    ///
    /// Meta-wise retrieval asks which attributes help a *task* — the answer
    /// depends on the table schema and the target attribute, not on which row
    /// is being repaired. Imputation queries (`"<key>, <attr>"`) drop the row
    /// key; error-detection queries (`"<attr>: <value>?"`) drop the cell
    /// value. Other task kinds (table QA questions, entity pairs) keep their
    /// query.
    fn generalize_query(task: TaskKind, query: &str) -> Cow<'_, str> {
        match task {
            TaskKind::Imputation => match query.rsplit_once(',') {
                Some((head, tail)) => {
                    let target = tail.trim();
                    // Identity iff the query is already exactly "*, <target>".
                    if head == "*" && tail.strip_prefix(' ') == Some(target) {
                        Cow::Borrowed(query)
                    } else {
                        Cow::Owned(format!("*, {target}"))
                    }
                }
                None => Cow::Borrowed(query),
            },
            TaskKind::ErrorDetection => match query.split_once(':') {
                Some((attr, value)) if value.trim_end().ends_with('?') => {
                    if attr == attr.trim() && value == " *?" {
                        Cow::Borrowed(query)
                    } else {
                        Cow::Owned(format!("{}: *?", attr.trim()))
                    }
                }
                _ => Cow::Borrowed(query),
            },
            _ => Cow::Borrowed(query),
        }
    }
}

const LEVELS: [CanonLevel; 4] = [
    CanonLevel::Verbatim,
    CanonLevel::Whitespace,
    CanonLevel::TableStem,
    CanonLevel::Semantic,
];

fn completion(text: String) -> Arc<Completion> {
    Arc::new(Completion {
        text,
        usage: Usage::default(),
    })
}

/// Completions to replay through a fold over `n` elements: the model's own
/// answer to the canonical prompt, well-formed synthetic ones, and the
/// shapes adaptation must hand back unchanged (wrong element count, loose
/// spacing and zero-padded indices, free text).
fn completions(n: usize, canonical: &str, model: &dyn LanguageModel) -> Vec<Arc<Completion>> {
    let scores = |count: usize, sep: &str| {
        let parts: Vec<String> = (1..=count).map(|i| format!("{i}:{}", i % 4)).collect();
        completion(parts.join(sep))
    };
    let lines = |count: usize| {
        let parts: Vec<String> = (0..count).map(|i| format!("Sentence {i}.")).collect();
        completion(parts.join("\n"))
    };
    let mut out = vec![
        scores(n, ", "),
        scores(n, " ,  "),
        scores(n + 1, ", "),
        scores(n - 1, ", "),
        completion(format!("01:3, {}", scores(n, ", ").text)),
        lines(n),
        lines(n + 1),
        completion("no structure at all".into()),
        completion(String::new()),
    ];
    out.extend(model.complete(canonical).ok());
    out
}

/// Asserts old == new on `prompt` at every level; returns the kinds of
/// fold the prompt exercised at `Semantic`.
fn assert_matches_reference(prompt: &str, model: &dyn LanguageModel) -> Option<&'static str> {
    let mut folded = None;
    for level in LEVELS {
        let new = CanonicalPrompt::canonicalize(prompt, level);
        let old = reference::canonicalize(prompt, level);
        assert_eq!(new.text(), old.text.as_ref(), "text at {level}: {prompt:?}");
        assert_eq!(
            new.is_borrowed(),
            matches!(old.text, std::borrow::Cow::Borrowed(_)),
            "borrowedness at {level}: {prompt:?}"
        );
        assert_eq!(
            new.replay(),
            old.replay.as_ref(),
            "fold at {level}: {prompt:?}"
        );
        let Some(fold) = new.replay() else { continue };
        folded = Some(match fold {
            ReplayFold::PriScores(_) => "p_ri",
            ReplayFold::PdpLines(_) => "p_dp",
        });
        for canonical in completions(fold.permutation().len(), new.text(), model) {
            assert_eq!(
                fold.adapt(&canonical),
                reference::adapt(fold, &canonical),
                "replay of {:?} through {fold:?}",
                canonical.text
            );
        }
    }
    folded
}

fn model() -> MockLlm {
    MockLlm::new(&World::generate(42), LlmProfile::gpt3_175b(), 42)
}

#[test]
fn every_prompt_the_task_kinds_send_canonicalizes_as_before() {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let (lake, tasks) = task_mix(&world, 42, 8);
    let log = PromptLog::new(&llm);
    let results = BatchRunner::new(&log, PipelineConfig::paper_default().with_seed(42))
        .with_workers(1)
        .run(&lake, &tasks);
    assert!(results.iter().all(Result::is_ok), "the mix runs clean");
    let prompts: BTreeSet<String> = log.prompts().into_iter().collect();
    // All four pipeline prompt shapes plus the target prompts are there…
    for marker in [
        "Which attributes are helpful",
        "Score the relevance",
        "logical order: [",
        "Write the claim as a cloze question.",
    ] {
        assert!(prompts.iter().any(|p| p.contains(marker)), "no {marker:?}");
    }
    // …and the instance lists retrieval sends arrive unsorted, so the
    // comparison covers the fold and its replay, not just the fast path.
    let folds: BTreeSet<_> = prompts
        .iter()
        .filter_map(|p| assert_matches_reference(p, &llm))
        .collect();
    assert!(folds.contains("p_ri"), "no task prompt folded: {folds:?}");
}

#[test]
fn random_and_whitespace_mangled_prompts_canonicalize_as_before() {
    let llm = model();
    let mut g = Gen::new(0xca06);
    for _ in 0..256 {
        let prompt = common::random_prompt(&mut g);
        assert_matches_reference(&prompt, &llm);
        let mangled = common::mangle_whitespace(&mut g, &prompt);
        assert_matches_reference(&mangled, &llm);
    }
}

/// A record list of 1–24 records drawn from a small pool, so orderings
/// vary and duplicates (the sort's tie-break) occur.
fn shuffled_records(g: &mut Gen) -> Vec<SerializedRecord> {
    let pool: Vec<SerializedRecord> = (0..6)
        .map(|_| {
            SerializedRecord::new(vec![
                ("city".into(), g.value()),
                ("country".into(), g.value()),
            ])
        })
        .collect();
    (0..g.usize(1, 25))
        .map(|_| pool[g.usize(0, pool.len())].clone())
        .collect()
}

#[test]
fn shuffled_lists_with_duplicates_fold_and_replay_as_before() {
    let llm = model();
    let mut g = Gen::new(0xca07);
    let mut folds = BTreeSet::new();
    for _ in 0..128 {
        let records = shuffled_records(&mut g);
        let pri = render_pri(TaskKind::Imputation, &g.value(), &records);
        let pdp = render_pdp(&records);
        for prompt in [pri, pdp] {
            folds.extend(assert_matches_reference(&prompt, &llm));
            let mangled = common::mangle_whitespace(&mut g, &prompt);
            folds.extend(assert_matches_reference(&mangled, &llm));
        }
    }
    assert_eq!(folds.len(), 2, "both folds exercised: {folds:?}");
    // The shapes the fold refuses or passes through: numbering that is
    // not 1..n, a sign or zero padding `parse` accepts, a one-line list.
    for odd in [
        "The task is [x]. The target query is [q]. Score the relevance:\n2. b\n1. a",
        "The task is [x]. The target query is [q]. Score the relevance:\n+1. b\n02. a",
        "The task is [x]. The target query is [q]. Score the relevance:\n1. b\n2 a",
        "The task is [x]. The target query is [q]. Score the relevance:\n1. only",
        "The task is [x]. The target query is [q]. Score the relevance:",
        "Put in a logical order: []",
        "Put in a logical order: [b\na\nb\n\na]",
        "Put in a logical order: [b\na] trailing",
        // A shape tested earlier shields the record-block fold, whether
        // or not its own fold applies.
        "Write the claim as a cloze question.\nClaim: x. Put in a logical order: [b\na]",
        "Write the claim as a cloze question. No claim. Put in a logical order: [b\na]",
        "The target query is [q]. Score the relevance:\n2. b\n1. a in a logical order: [b\na]",
        "The target query is [q]. Score the relevance of a logical order: [b\na]",
    ] {
        assert_matches_reference(odd, &llm);
    }
    // A claim and a retrieval preamble never fold, whatever the level.
    let claim = render_pcq(&Claim {
        task: TaskKind::Imputation,
        context: "Florence belongs to the country Italy.".into(),
        query: "city: Copenhagen; country: ?".into(),
    });
    let prm = render_prm(
        TaskKind::ErrorDetection,
        "city: sheffxeld?",
        &["addr".to_string(), "zip".to_string()],
    );
    for prompt in [claim, prm] {
        assert_eq!(assert_matches_reference(&prompt, &llm), None);
    }
}
