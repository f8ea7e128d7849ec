//! `MockLlm`'s `p_ri` and `p_dp` answers against the parsers and skills
//! they replace.
//!
//! The model answers both prompts off the prompt's own record lines: one
//! reused reader over borrowed pairs, a line that is its own render scored
//! in place, dice drawn over formatted arguments, Jaccard similarity over
//! reused scratch. The reference below is the code it replaces, copied: a
//! prompt parsed into owned records (`parse_pri`, `parse_pdp`, with the
//! record parser and renderer they called), then `score_instances` and
//! `parse_context` over them (with the sentence builder
//! `naturalize_record` and its clause table), and tokens counted a
//! character at a time.
//!
//! `p_ri` is sent in header form (the attribute names once, then a row of
//! values per candidate), and the model reads each row back as the
//! `attr: value` line the per-instance form sent; the reference reads it
//! back the same way, line by line into owned strings, and then scores
//! the line exactly as the replaced code did.
//!
//! Inputs are every `p_ri` and `p_dp` prompt the quick Table 1 and Table 3
//! drivers send (their UniDM rows; the other rows send neither), plus
//! seeded prompts: for `p_dp`, record lines with blank values, spaces
//! around `:` and `"; "` inside a value; for `p_ri`, headers and rows with
//! empty, padded, missing and extra fields and `|` inside a value; both
//! with repeated and mixed-case attributes, non-ASCII words, lines without
//! `". "`, queries without `?`, every task. Under every zoo profile the
//! completion's text and usage must be byte-equal to the reference's. The
//! seeds derive from `UNIDM_FAULT_SEED` (the CI matrix runs 7 and 1337; 7
//! otherwise).

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unidm::PipelineConfig;
use unidm_eval::{errors, imputation};
use unidm_llm::protocol::{parse_prm, SerializedRecord, TaskKind};
use unidm_llm::{
    Completion, Dice, KnowledgeBase, LanguageModel, LlmError, LlmProfile, MockLlm, Usage,
};
use unidm_text::tokenize::words;
use unidm_world::World;

/// The seed the generated prompts derive from.
fn fault_seed() -> u64 {
    std::env::var("UNIDM_FAULT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(7)
}

// ---------------------------------------------------------------------
// The reference: the answers as they were computed from owned records.
// ---------------------------------------------------------------------

/// `SerializedRecord::parse`, as it was.
fn parse_record(line: &str) -> Option<SerializedRecord> {
    let mut pairs = Vec::new();
    for chunk in line.split("; ") {
        let (attr, value) = chunk.split_once(':')?;
        pairs.push((attr.trim().to_string(), value.trim().to_string()));
    }
    if pairs.is_empty() {
        None
    } else {
        Some(SerializedRecord { pairs })
    }
}

/// `SerializedRecord::render`, as it was.
fn render(rec: &SerializedRecord) -> String {
    let mut out = String::new();
    let mut first = true;
    for (attr, value) in rec.pairs.iter().filter(|(_, v)| !v.is_empty()) {
        if !first {
            out.push_str("; ");
        }
        first = false;
        out.push_str(attr);
        out.push_str(": ");
        out.push_str(value);
    }
    out
}

/// `protocol::bracketed_after`.
fn bracketed_after<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
    let start = text.find(marker)? + marker.len();
    let rest = &text[start..];
    let open = rest.find('[')?;
    let mut depth = 0usize;
    for (i, c) in rest[open..].char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[open + 1..open + i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// `PriRequest`.
struct PriRequest {
    task: TaskKind,
    query: String,
    instances: Vec<SerializedRecord>,
}

/// `parse_pri`, reading the header form: the header is what follows
/// `"based on the task and the query:"` on the first line, split at `|`;
/// each later line past its first `". "` is a row of `|`-split fields,
/// and a row is the record its line used to be — each header name beside
/// its field, both trimmed, an empty field left out — read by the parser
/// as it was.
fn parse_pri(prompt: &str) -> Option<PriRequest> {
    if !prompt.contains("Score the relevance") {
        return None;
    }
    let task = TaskKind::from_description(bracketed_after(prompt, "The task is")?)?;
    let query = bracketed_after(prompt, "The target query is")?.to_string();
    let first = prompt.lines().next().unwrap_or("");
    let header = first
        .split_once("based on the task and the query:")
        .map_or("", |(_, header)| header.trim());
    let names: Vec<&str> = if header.is_empty() {
        Vec::new()
    } else {
        header.split('|').map(str::trim).collect()
    };
    let mut instances = Vec::new();
    for line in prompt.lines().skip(1) {
        let Some((_num, row)) = line.split_once(". ") else {
            continue;
        };
        let pairs: Vec<String> = (names.iter())
            .zip(row.split('|').map(str::trim))
            .filter(|(_, value)| !value.is_empty())
            .map(|(name, value)| format!("{name}: {value}"))
            .collect();
        if let Some(rec) = parse_record(&pairs.join("; ")) {
            instances.push(rec);
        }
    }
    Some(PriRequest {
        task,
        query,
        instances,
    })
}

/// `skills::street_base`.
fn street_base(addr: &str) -> String {
    addr.split_whitespace()
        .skip_while(|w| w.chars().all(|c| c.is_ascii_digit()))
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase()
}

/// `skills::area_code`, as it was.
fn area_code(phone: &str) -> Option<String> {
    let code: String = phone.chars().take_while(|c| c.is_ascii_digit()).collect();
    (code.len() >= 3).then_some(code)
}

/// A text's distinct lowercase words, as `WordSet` holds them.
fn word_set(text: &str) -> BTreeSet<String> {
    words(text).into_iter().collect()
}

/// `WordSet::jaccard`, as it was defined: `|A ∩ B| / |A ∪ B|`, two empty
/// sets `1.0`.
fn jaccard(a: &BTreeSet<String>, b: &BTreeSet<String>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    a.intersection(b).count() as f64 / a.union(b).count() as f64
}

/// `score_instances`, as it was.
fn score_instances(req: &PriRequest, profile: &LlmProfile, dice: &Dice) -> String {
    let query_rec = parse_record(&req.query);
    let missing_attr: Option<&str> = query_rec
        .as_ref()
        .and_then(|r| r.pairs.iter().find(|(_, v)| v == "?"))
        .map(|(a, _)| a.as_str());
    let query_words = word_set(&req.query);
    let rendered: Vec<String> = req.instances.iter().map(render).collect();
    let mut sims: Vec<f64> = Vec::with_capacity(req.instances.len());
    for (inst, text) in req.instances.iter().zip(&rendered) {
        let mut sim = jaccard(&query_words, &word_set(text));
        if query_rec
            .as_ref()
            .is_some_and(|q| shares_linked_value(q, inst, req.task))
        {
            sim = (sim + 0.6).min(1.0);
        }
        if let Some(attr) = missing_attr {
            if inst.get(attr).is_none() {
                sim *= 0.15;
            }
        }
        sims.push(sim);
    }
    let max_sim = sims.iter().copied().fold(0.0f64, f64::max).max(1e-9);
    let mut out: Vec<String> = Vec::with_capacity(req.instances.len());
    for (i, (text, sim)) in rendered.iter().zip(&sims).enumerate() {
        let rel = sim / max_sim;
        let noise_span = (1.0 - profile.effective_instruction()) * 1.5;
        let noisy = rel + noise_span * (dice.uniform(&format!("{text}#{i}"), "pri-noise") - 0.5);
        let score = (noisy * 3.4).floor().clamp(0.0, 3.0) as u8;
        out.push(format!("{}:{}", i + 1, score));
    }
    out.join(", ")
}

/// `shares_linked_value`, as it was.
fn shares_linked_value(query: &SerializedRecord, inst: &SerializedRecord, task: TaskKind) -> bool {
    if task != TaskKind::Imputation && task != TaskKind::ErrorDetection {
        return false;
    }
    for (attr, qv) in &query.pairs {
        if qv.is_empty() || qv == "?" {
            continue;
        }
        let Some(iv) = inst.get(attr) else { continue };
        let a = attr.to_lowercase();
        let matched = if a.contains("addr") || a.contains("address") {
            let base = street_base(qv);
            !base.is_empty() && street_base(iv) == base
        } else if a.contains("phone") {
            area_code(qv).is_some() && area_code(qv) == area_code(iv)
        } else if a.contains("name") || a.contains("title") {
            let qb = qv.split_whitespace().next().unwrap_or("");
            let ib = iv.split_whitespace().next().unwrap_or("");
            qb.len() >= 3 && qb.eq_ignore_ascii_case(ib)
        } else {
            false
        };
        if matched {
            return true;
        }
    }
    false
}

/// `parse_pdp`, as it was.
fn parse_pdp(prompt: &str) -> Option<Vec<SerializedRecord>> {
    if !prompt.contains("convert the items into a textual format") {
        return None;
    }
    let body = bracketed_after(prompt, "logical order:")?;
    Some(body.lines().filter_map(parse_record).collect())
}

/// The clause templates, as they were: keyed by an attribute-name
/// keyword, first match wins.
const CLAUSES: &[(&str, &str)] = &[
    ("after", "can be transformed to"),
    ("country", "belongs to the country"),
    ("timezone", "is in the timezone"),
    ("city", "is located in the city of"),
    ("addr", "is located at"),
    ("address", "is located at"),
    ("phone", "has phone number"),
    ("cuisine", "serves cuisine"),
    ("type", "serves cuisine"),
    ("manufacturer", "is manufactured by"),
    ("brand", "is branded"),
    ("modelno", "has model number"),
    ("model_code", "has model number"),
    ("description", "is described as"),
    ("price", "is priced at"),
    ("artist", "is performed by"),
    ("album", "appears on the album"),
    ("song", "is the song"),
    ("brewery", "is brewed by"),
    ("style", "is of style"),
    ("abv", "has alcohol content"),
    ("county", "is in the county"),
    ("state", "is in the state"),
    ("zip", "has zip code"),
    ("postal", "has postal code"),
    ("population", "has a population of"),
    ("measure_code", "reports the measure"),
    ("iso", "has the ISO code"),
    ("height", "has height"),
    ("position", "plays the position"),
    ("college", "attended the college"),
    ("gold", "won gold medals numbering"),
    ("silver", "won silver medals numbering"),
    ("bronze", "won bronze medals numbering"),
    ("total", "has a medal total of"),
    ("rank", "is ranked"),
    ("time", "has duration"),
    ("hours_per_week", "works weekly hours of"),
    ("education", "has education level"),
    ("workclass", "has work class"),
    ("occupation", "has occupation"),
    ("marital_status", "has marital status"),
    ("sex", "has sex"),
    ("income", "has income bracket"),
    ("age", "is aged"),
];

/// `clause_for`, as it was.
fn clause_for(attr: &str) -> Option<&'static str> {
    // Schema names are ASCII, which matches in place; anything else is
    // lowercased first because a few non-ASCII letters lowercase *to* ASCII.
    let lowered;
    let key = if attr.is_ascii() {
        attr.as_bytes()
    } else {
        lowered = attr.to_lowercase();
        lowered.as_bytes()
    };
    CLAUSES
        .iter()
        .find(|(k, _)| {
            key.windows(k.len())
                .any(|w| w.eq_ignore_ascii_case(k.as_bytes()))
        })
        .map(|(_, c)| *c)
}

/// `naturalize_record`, as it was.
fn naturalize_record(rec: &SerializedRecord) -> String {
    // `SerializedRecord::subject`, as it was: the first non-empty value.
    let subject = rec
        .pairs
        .iter()
        .map(|(_, v)| v.as_str())
        .find(|v| !v.is_empty());
    let Some(subject) = subject else {
        return String::new();
    };
    let mut out = String::with_capacity(128);
    out.push_str(subject);
    let mut subject_seen = false;
    let mut joiner = " ";
    for (attr, value) in &rec.pairs {
        if value.is_empty() {
            continue;
        }
        if !subject_seen && value == subject {
            subject_seen = true;
            continue;
        }
        out.push_str(joiner);
        joiner = " and ";
        match clause_for(attr) {
            Some(clause) => out.push_str(clause),
            None => {
                out.push_str("has ");
                out.push_str(attr);
            }
        }
        out.push(' ');
        out.push_str(value);
    }
    out.push('.');
    out
}

/// `parse_context`, as it was.
fn parse_context(records: &[SerializedRecord], profile: &LlmProfile, dice: &Dice) -> String {
    let mut out = Vec::with_capacity(records.len());
    for (i, rec) in records.iter().enumerate() {
        let rendered = render(rec);
        let keep_all = dice.chance(
            &format!("{rendered}#{i}"),
            "pdp-complete",
            profile.effective_instruction(),
        );
        let rec = if keep_all || rec.pairs.len() <= 2 {
            rec.clone()
        } else {
            let drop = dice.pick(&rendered, "pdp-drop", rec.pairs.len() - 1) + 1;
            SerializedRecord::new(
                rec.pairs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != drop)
                    .map(|(_, p)| p.clone())
                    .collect(),
            )
        };
        out.push(naturalize_record(&rec));
    }
    out.join("\n")
}

/// `count_tokens`, as it was: a character at a time.
fn count_tokens(text: &str) -> usize {
    let mut tokens = 0usize;
    let mut word = 0usize;
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            word += 1;
        } else {
            tokens += word.div_ceil(4) + usize::from(!ch.is_whitespace());
            word = 0;
        }
    }
    tokens + word.div_ceil(4)
}

/// A prompt as the reference parsed it: `MockLlm` dispatched `p_rm` first,
/// then `p_ri`, then `p_dp`.
enum Parsed {
    Pri(PriRequest),
    Pdp(Vec<SerializedRecord>),
}

impl Parsed {
    /// `None` for a prompt that is neither `p_ri` nor `p_dp`.
    fn of(prompt: &str) -> Option<Parsed> {
        if parse_prm(prompt).is_some() {
            return None;
        }
        match parse_pri(prompt) {
            Some(req) => Some(Parsed::Pri(req)),
            None => parse_pdp(prompt).map(Parsed::Pdp),
        }
    }

    /// The reference completion of `prompt`, which parsed as `self`, for
    /// one model.
    fn complete(
        &self,
        prompt: &str,
        profile: &LlmProfile,
        dice: &Dice,
    ) -> Result<Completion, LlmError> {
        let text = match self {
            Parsed::Pri(req) => score_instances(req, profile, dice),
            Parsed::Pdp(records) => parse_context(records, profile, dice),
        };
        let prompt_tokens = count_tokens(prompt);
        if prompt_tokens > profile.context_window {
            return Err(LlmError::PromptTooLong {
                tokens: prompt_tokens,
                limit: profile.context_window,
            });
        }
        let usage = Usage {
            prompt_tokens,
            completion_tokens: count_tokens(&text),
        };
        Ok(Completion { text, usage })
    }
}

/// Asks each of `profiles`, at `seed`, every one of `prompts` and holds
/// the text and usage to the reference's. Returns how many answers were
/// compared.
fn assert_matches_reference(prompts: &[String], profiles: &[LlmProfile], seed: u64) -> usize {
    let kb = KnowledgeBase::empty();
    let models: Vec<MockLlm> = (profiles.iter())
        .map(|profile| MockLlm::with_kb(profile.clone(), kb.clone(), seed))
        .collect();
    let dice = Dice::new(seed);
    let mut compared = 0;
    for prompt in prompts {
        let Some(parsed) = Parsed::of(prompt) else {
            continue;
        };
        for (profile, model) in profiles.iter().zip(&models) {
            let want = parsed.complete(prompt, profile, &dice);
            let got = model.complete(prompt).map(|c| (*c).clone());
            assert_eq!(got, want, "{} at seed {seed}: {prompt:?}", profile.name);
            compared += 1;
        }
    }
    compared
}

// ---------------------------------------------------------------------
// The drivers' prompts.
// ---------------------------------------------------------------------

/// A pass-through that keeps every `p_ri` and `p_dp` prompt it forwards,
/// each once.
struct Capture<'a> {
    inner: &'a dyn LanguageModel,
    seen: std::sync::Mutex<(std::collections::HashSet<String>, Vec<String>)>,
}

impl<'a> Capture<'a> {
    fn new(inner: &'a dyn LanguageModel) -> Self {
        Capture {
            inner,
            seen: Default::default(),
        }
    }

    fn into_prompts(self) -> Vec<String> {
        self.seen.into_inner().expect("capture lock poisoned").1
    }
}

impl LanguageModel for Capture<'_> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, prompt: &str) -> Result<std::sync::Arc<Completion>, LlmError> {
        if parse_pri(prompt).is_some() || parse_pdp(prompt).is_some() {
            let mut seen = self.seen.lock().expect("capture lock poisoned");
            if seen.0.insert(prompt.to_string()) {
                seen.1.push(prompt.to_string());
            }
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

/// The quick configuration's seed and query count (`ExperimentConfig::quick`).
const QUICK_SEED: u64 = 42;
const QUICK_QUERIES: usize = 30;

#[test]
fn table1_prompts_answer_as_the_parsers_did() {
    let world = World::generate(QUICK_SEED);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), QUICK_SEED);
    let capture = Capture::new(&llm);
    for ds in [
        unidm_synthdata::imputation::restaurant(&world, QUICK_SEED, QUICK_QUERIES),
        unidm_synthdata::imputation::buy(&world, QUICK_SEED, QUICK_QUERIES),
    ] {
        for pipeline in [
            PipelineConfig::random_context(),
            PipelineConfig::paper_default(),
        ] {
            let pipeline = pipeline.with_seed(QUICK_SEED);
            imputation::unidm_accuracy(&capture, &ds, pipeline, QUICK_QUERIES);
        }
    }
    let prompts = capture.into_prompts();
    assert!(prompts.len() > 100, "{} prompts", prompts.len());
    let zoo = LlmProfile::zoo();
    assert_eq!(
        assert_matches_reference(&prompts, &zoo, QUICK_SEED),
        prompts.len() * zoo.len()
    );
}

/// Every `p_ri` and `p_dp` prompt of quick Table 3's UniDM row, captured
/// once for both halves of the zoo.
fn table3_prompts() -> &'static [String] {
    static PROMPTS: std::sync::OnceLock<Vec<String>> = std::sync::OnceLock::new();
    PROMPTS.get_or_init(|| {
        let world = World::generate(QUICK_SEED);
        let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), QUICK_SEED);
        let capture = Capture::new(&llm);
        // Table 3 evaluates ten cells per query, and at least 400.
        let cells = (QUICK_QUERIES * 10).max(400);
        for ds in [
            unidm_synthdata::errors::hospital(&world, QUICK_SEED, 0.05),
            unidm_synthdata::errors::adult(&world, QUICK_SEED, 250, 0.05),
        ] {
            let pipeline = PipelineConfig::paper_default().with_seed(QUICK_SEED);
            errors::unidm_f1(&capture, &ds, pipeline, cells);
        }
        capture.into_prompts()
    })
}

/// Table 3's prompts under half of the zoo (`half` 0 or 1).
fn table3_half(half: usize) {
    let prompts = table3_prompts();
    assert!(prompts.len() > 500, "{} prompts", prompts.len());
    let zoo = LlmProfile::zoo();
    let profiles = &zoo[half * zoo.len() / 2..(half + 1) * zoo.len() / 2];
    assert_eq!(
        assert_matches_reference(prompts, profiles, QUICK_SEED),
        prompts.len() * profiles.len()
    );
}

#[test]
fn table3_prompts_answer_as_the_parsers_did_first_half_of_the_zoo() {
    table3_half(0);
}

#[test]
fn table3_prompts_answer_as_the_parsers_did_second_half_of_the_zoo() {
    table3_half(1);
}

// ---------------------------------------------------------------------
// Seeded prompts, written line by line.
// ---------------------------------------------------------------------

/// Attribute spellings: repeated, mixed-case, the linked kinds (address,
/// phone, name, title), blank-adjacent and non-ASCII.
const ATTRS: &[&str] = &[
    "name",
    "Name",
    "NAME",
    "addr",
    "Address",
    "phone",
    "PHONE",
    "title",
    "city",
    "City",
    "country",
    "zip",
    "type",
    "brand",
    "manufacturer",
    "price",
    "Stra\u{df}e",
    "ran\u{212a}",
    "a",
    "",
];

/// Value spellings: blank, `?`, padded, with a `:` or a `"; "` inside,
/// street addresses, phones, brands, non-ASCII words.
const VALUES: &[&str] = &[
    "",
    " ",
    "?",
    "Florence",
    "florence",
    "Z\u{fc}rich",
    "\u{130}stanbul",
    "\u{3a3}\u{3af}\u{3c3}\u{3c5}\u{3c6}\u{3bf}\u{3c2}",
    "caf\u{e9} na\u{ef}ve",
    "100 Pico Blvd",
    "10668 Pico Blvd",
    "12 main st",
    "12 Main St.",
    "99 Elm St",
    "  42  ",
    "310/859-8744",
    "310/555-0000",
    "31/55",
    "Border Grill",
    "border grill house",
    "Ab Cd",
    "Sony Bravia 46",
    "sony",
    "a: b",
    "x; y: z",
    "tail; ",
    "10:30",
    "A\u{2028}B",
    "one\u{a0}two",
];

/// Between an attribute and its value: the canonical `": "` and others
/// that parse the same or not at all.
const COLONS: &[&str] = &[": ", ": ", ": ", ":", " : ", ":  ", "\t: ", ""];

/// Between pairs: the canonical `"; "` and near misses.
const SEMIS: &[&str] = &["; ", "; ", "; ", ";", " ; ", ";  "];

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// One record line of one to six pairs: half of the lines spelled as
/// `SerializedRecord::render` spells them (a blank value among them makes
/// the line no render of itself), half from every spelling above.
fn record_line(rng: &mut StdRng) -> String {
    let canonical = rng.gen_bool(0.5);
    let pairs = rng.gen_range(1..7);
    let mut line = String::new();
    for i in 0..pairs {
        let (semi, colon, value) = if canonical {
            let value = loop {
                let value = pick(rng, VALUES);
                if value.trim() == value && !value.contains("; ") {
                    break value;
                }
            };
            ("; ", ": ", value)
        } else {
            (pick(rng, SEMIS), pick(rng, COLONS), pick(rng, VALUES))
        };
        if i > 0 {
            line.push_str(semi);
        }
        line.push_str(pick(rng, ATTRS).trim());
        line.push_str(colon);
        line.push_str(value);
    }
    line
}

/// A target query: record-shaped with or without a `?`, the plain
/// `"subject, attribute"` form, or nested brackets.
fn query(rng: &mut StdRng) -> String {
    match rng.gen_range(0..5) {
        0 => format!("{}; city: ?", record_line(rng)),
        1 => format!(
            "name: {}; addr: {}; phone: ?",
            pick(rng, VALUES),
            pick(rng, VALUES)
        ),
        2 => format!("{}, {}", pick(rng, VALUES), pick(rng, ATTRS)),
        3 => record_line(rng),
        _ => format!("[{}] {}", pick(rng, VALUES), record_line(rng)),
    }
}

/// A header-form `p_ri` prompt for any task: a header of one to six
/// attribute spellings (or none), its rows numbered, unnumbered, blank or
/// not rows at all, and a row's fields from every value spelling, with a
/// `|` inside some, fewer or more of them than the header names, and odd
/// spacing around the separators.
fn pri_prompt(rng: &mut StdRng) -> String {
    const BARS: &[&str] = &[" | ", " | ", "|", " |", "|  ", "\t| "];
    let task = TaskKind::ALL[rng.gen_range(0..TaskKind::ALL.len())];
    let mut prompt = format!(
        "The task is [{}]. The target query is [{}]. Score the relevance (range from 0 to 3) \
         of the given instances based on the task and the query:",
        task.description(),
        query(rng)
    );
    let names = if rng.gen_bool(0.1) {
        0
    } else {
        rng.gen_range(1..7)
    };
    for i in 0..names {
        prompt.push_str(if i == 0 { " " } else { pick(rng, BARS) });
        prompt.push_str(pick(rng, ATTRS));
    }
    for n in 1..=rng.gen_range(0..9) {
        prompt.push('\n');
        let fields = match rng.gen_range(0..4) {
            0 => rng.gen_range(0..names + 3),
            _ => names,
        };
        let mut row = String::new();
        for i in 0..fields {
            if i > 0 {
                row.push_str(pick(rng, BARS));
            }
            let value = pick(rng, VALUES);
            if rng.gen_bool(0.05) {
                row.push_str(&format!("{value}|{value}"));
            } else {
                row.push_str(value);
            }
        }
        match rng.gen_range(0..12) {
            0 => prompt.push_str(&row),
            1 => prompt.push_str(&format!("{n}.{row}")),
            2 => {}
            3 => prompt.push_str(&format!("{n}. no pairs here")),
            4 => prompt.push_str(&format!("{n}. {row}\r")),
            _ => prompt.push_str(&format!("{n}. {row}")),
        }
    }
    prompt
}

/// A `p_dp` prompt: record lines, blank lines and lines that are not
/// records.
fn pdp_prompt(rng: &mut StdRng) -> String {
    let mut prompt = String::from(
        "Given the data, convert the items into a textual format that encompasses all \
         relevant information in a logical order: [",
    );
    for i in 0..rng.gen_range(0..7) {
        if i > 0 {
            prompt.push('\n');
        }
        match rng.gen_range(0..10) {
            0 => {}
            1 => prompt.push_str("not a record"),
            _ => prompt.push_str(&record_line(rng)),
        }
    }
    prompt.push(']');
    prompt
}

/// What the seeded lines exercise, counted with the reference parser.
#[derive(Default, Debug)]
struct Coverage {
    canonical: usize,
    other: usize,
    blank_value: usize,
    non_ascii: usize,
}

impl Coverage {
    fn line(&mut self, line: &str) {
        let Some(rec) = parse_record(line) else {
            return;
        };
        if render(&rec) == line {
            self.canonical += 1;
        } else {
            self.other += 1;
        }
        self.blank_value += usize::from(rec.pairs.iter().any(|(_, v)| v.is_empty()));
        self.non_ascii += usize::from(!line.is_ascii());
    }
}

/// What the seeded header-form rows exercise, counted with the reference
/// parser.
#[derive(Default, Debug)]
struct RowCoverage {
    records: usize,
    misaligned: usize,
    empty_field: usize,
    non_ascii: usize,
}

#[test]
fn seeded_pri_prompts_answer_as_the_parsers_did() {
    let seed = fault_seed();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x70e1);
    let prompts: Vec<String> = (0..5_000).map(|_| pri_prompt(&mut rng)).collect();
    let mut coverage = RowCoverage::default();
    for prompt in &prompts {
        let header = prompt.lines().next().unwrap_or("");
        let names = header.split('|').count();
        coverage.records += parse_pri(prompt).map_or(0, |req| req.instances.len());
        for row in prompt
            .lines()
            .skip(1)
            .filter_map(|line| line.split_once(". "))
        {
            let fields: Vec<&str> = row.1.split('|').map(str::trim).collect();
            coverage.misaligned += usize::from(fields.len() != names);
            coverage.empty_field += usize::from(fields.contains(&""));
            coverage.non_ascii += usize::from(!row.1.is_ascii());
        }
    }
    assert!(
        coverage.records > 2_000 && coverage.misaligned > 2_000,
        "{coverage:?}"
    );
    assert!(
        coverage.empty_field > 1_000 && coverage.non_ascii > 1_000,
        "{coverage:?}"
    );
    let zoo = LlmProfile::zoo();
    assert_eq!(
        assert_matches_reference(&prompts, &zoo, seed),
        prompts.len() * zoo.len()
    );
}

#[test]
fn seeded_pdp_prompts_answer_as_the_parsers_did() {
    let seed = fault_seed();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd0d0);
    let prompts: Vec<String> = (0..5_000).map(|_| pdp_prompt(&mut rng)).collect();
    let mut coverage = Coverage::default();
    for prompt in &prompts {
        let body = bracketed_after(prompt, "logical order:").unwrap_or("");
        body.lines().for_each(|line| coverage.line(line));
    }
    assert!(
        coverage.canonical > 2_000 && coverage.other > 2_000,
        "{coverage:?}"
    );
    assert!(
        coverage.blank_value > 1_000 && coverage.non_ascii > 1_000,
        "{coverage:?}"
    );
    let zoo = LlmProfile::zoo();
    assert_eq!(
        assert_matches_reference(&prompts, &zoo, seed),
        prompts.len() * zoo.len()
    );
}
