//! The final-answer skill: completing cloze questions (and their simple /
//! few-shot variants).
//!
//! The answering mechanism is the paper's thesis made executable. For every
//! task the model tries, in order:
//!
//! 1. **read the context** — facts present in the prompt, read correctly
//!    with a probability that depends on the context representation
//!    (natural text > serialized pairs > raw dumps) and the prompt form
//!    (cloze > few-shot > flat concatenation);
//! 2. **recall pretraining memory** — knowledge-base lookups, bounded by
//!    coverage;
//! 3. **reason** — multi-hop chains, analogies over shared street / area
//!    code / brand tokens, arithmetic — each hop gated by the reasoning
//!    capability;
//! 4. **guess** — fall back on the context mode or fail.
//!
//! Better context and better prompts mechanically raise the probability
//! that step 1 or 3 succeeds; that is where UniDM's gains come from.

use unidm_text::distance::{jaccard, jaro_winkler};
use unidm_world::Predicate;

use crate::kb::KnowledgeBase;
use crate::profile::LlmProfile;
use crate::protocol::{
    parse_natural_sentence, AnswerPayload, AnswerRequest, ContextKind, SerializedRecord,
};
use crate::skills::{context_kind_factor, prompt_form_factor};
use crate::Dice;

use super::induce;

/// One fact the model managed to read out of the prompt context.
#[derive(Debug, Clone, PartialEq)]
struct ContextFact {
    subject: String,
    attr: String,
    value: String,
}

/// Answers a parsed final-answer request.
pub fn answer(
    req: &AnswerRequest,
    profile: &LlmProfile,
    dice: &Dice,
    kb: &KnowledgeBase,
) -> String {
    let form = prompt_form_factor(req.form);
    let read_p = profile.context_fidelity * context_kind_factor(req.context_kind) * form;
    let reason_p = profile.effective_reasoning() * form;
    let facts = read_context(req, read_p, dice);
    match &req.payload {
        AnswerPayload::Imputation {
            subject,
            attr,
            record,
        } => impute(subject, attr, record, &facts, reason_p, profile, dice, kb),
        AnswerPayload::Transformation { examples, input } => {
            // Naturalized example lines are easier to induce from than raw
            // serialized pairs — the transformation side of the parsing
            // ablation (Table 10).
            transform(
                examples,
                input,
                reason_p * context_kind_factor(req.context_kind),
                dice,
                kb,
            )
        }
        AnswerPayload::ErrorDetection { attr, value } => {
            detect_error(attr, value, &facts, reason_p, profile, dice, kb)
        }
        AnswerPayload::EntityResolution { a, b } => {
            resolve_entities(a, b, req, reason_p, profile, dice, kb)
        }
        AnswerPayload::TableQa { question } => table_qa(question, &facts, reason_p, dice),
        AnswerPayload::Join {
            left_values,
            right_values,
            ..
        } => join_discovery(left_values, right_values, &facts, reason_p, dice, kb),
        AnswerPayload::Extraction { attr } => extract(attr, &req.context_lines, read_p, dice, kb),
    }
}

/// Reads facts out of the context lines, dropping each with the read
/// failure probability.
fn read_context(req: &AnswerRequest, read_p: f64, dice: &Dice) -> Vec<ContextFact> {
    let mut out = Vec::new();
    for (li, line) in req.context_lines.iter().enumerate() {
        let rec = match req.context_kind {
            ContextKind::Serialized => SerializedRecord::parse(line),
            _ => parse_natural_sentence(line).or_else(|| SerializedRecord::parse(line)),
        };
        let Some(rec) = rec else { continue };
        let subject = rec
            .get("@subject")
            .or_else(|| rec.subject())
            .unwrap_or("")
            .to_string();
        for (attr, value) in &rec.pairs {
            if attr == "@subject" || value.is_empty() {
                continue;
            }
            if dice.chance(&format!("{line}#{li}#{attr}"), "ctx-read", read_p) {
                out.push(ContextFact {
                    subject: subject.clone(),
                    attr: attr.to_lowercase(),
                    value: value.clone(),
                });
            }
        }
    }
    out
}

fn attr_matches(fact_attr: &str, target: &str) -> bool {
    let t = target.to_lowercase();
    fact_attr == t || fact_attr.contains(&t) || t.contains(fact_attr)
}

/// Knowledge-base predicates that answer "the {attr} of {subject}".
fn predicates_for_attr(attr: &str) -> Vec<Predicate> {
    let a = attr.to_lowercase();
    let mut out = Vec::new();
    if a.contains("timezone") {
        out.extend([Predicate::CityTimezone, Predicate::CountryTimezone]);
    }
    if a.contains("country") {
        out.push(Predicate::CityCountry);
    }
    if a.contains("city") {
        out.extend([
            Predicate::RestaurantCity,
            Predicate::HospitalCity,
            Predicate::AreaCodeCity,
        ]);
    }
    if a.contains("manufacturer") {
        out.extend([Predicate::ProductManufacturer, Predicate::BrandManufacturer]);
    }
    if a.contains("county") {
        out.push(Predicate::HospitalCounty);
    }
    if a.contains("artist") {
        out.push(Predicate::SongArtist);
    }
    if a.contains("genre") {
        out.push(Predicate::ArtistGenre);
    }
    if a.contains("brewery") {
        out.push(Predicate::BeerBrewery);
    }
    if a.contains("college") {
        out.push(Predicate::PlayerCollege);
    }
    if a.contains("height") {
        out.push(Predicate::PlayerHeight);
    }
    if a.contains("position") {
        out.push(Predicate::PlayerPosition);
    }
    if a.contains("postal") {
        out.push(Predicate::CityPostal);
    }
    if a.contains("iso") {
        out.push(Predicate::CountryIso);
    }
    if a.contains("continent") {
        out.push(Predicate::CountryContinent);
    }
    if a.contains("cuisine") || a.contains("type") {
        out.push(Predicate::RestaurantCuisine);
    }
    out
}

/// The street part of an address ("224 S. Beverly Dr." → "s. beverly dr.").
fn street_base(addr: &str) -> String {
    addr.split_whitespace()
        .skip_while(|w| w.chars().all(|c| c.is_ascii_digit()))
        .collect::<Vec<_>>()
        .join(" ")
        .to_lowercase()
}

/// The leading area code of a phone number ("310/859-8744" → "310").
fn area_code(phone: &str) -> Option<String> {
    let code: String = phone.chars().take_while(|c| c.is_ascii_digit()).collect();
    (code.len() >= 3).then_some(code)
}

#[allow(clippy::too_many_arguments)]
fn impute(
    subject: &str,
    attr: &str,
    record: &SerializedRecord,
    facts: &[ContextFact],
    reason_p: f64,
    profile: &LlmProfile,
    dice: &Dice,
    kb: &KnowledgeBase,
) -> String {
    let tag = format!("{subject}|{attr}");
    let a = attr.to_lowercase();

    // 1. Direct context hit: some read fact names this subject and attribute.
    //    (Reading was already gated per fact; no second gate.)
    if let Some(f) = facts
        .iter()
        .find(|f| attr_matches(&f.attr, attr) && f.subject.eq_ignore_ascii_case(subject))
    {
        return f.value.clone();
    }

    // 2. Record-internal evidence: a description mentioning "by {maker}".
    if a.contains("manufacturer") {
        if let Some(desc) = record.get("description") {
            if let Some((_, maker)) = desc.split_once(" by ") {
                if dice.chance(&tag, "desc-read", profile.context_fidelity) {
                    return maker.trim().to_string();
                }
            }
        }
    }

    // 3. Analogical reasoning over the context: one reasoning attempt that,
    //    when it succeeds, exploits whichever analogy the context supports
    //    (shared street, shared area code, shared brand, attribute chain).
    //    A single gate models "the model either makes the inference or
    //    doesn't" — repeated retries would overstate weak models.
    if dice.chance(&tag, "analogy", reason_p) {
        if a.contains("city") {
            if let Some(addr) = record.get("addr").or_else(|| record.get("address")) {
                let base = street_base(addr);
                if !base.is_empty() {
                    if let Some(f) = facts.iter().find(|f| {
                        attr_matches(&f.attr, "city")
                            && facts.iter().any(|g| {
                                g.subject == f.subject
                                    && attr_matches(&g.attr, "addr")
                                    && street_base(&g.value) == base
                            })
                    }) {
                        return f.value.clone();
                    }
                }
            }
            if let Some(phone) = record.get("phone") {
                if let Some(code) = area_code(phone) {
                    if let Some(f) = facts.iter().find(|f| {
                        attr_matches(&f.attr, "city")
                            && facts.iter().any(|g| {
                                g.subject == f.subject
                                    && attr_matches(&g.attr, "phone")
                                    && area_code(&g.value).as_deref() == Some(code.as_str())
                            })
                    }) {
                        return f.value.clone();
                    }
                }
            }
        }
        if a.contains("manufacturer") {
            let brand = subject.split_whitespace().next().unwrap_or("");
            if !brand.is_empty() {
                if let Some(f) = facts.iter().find(|f| {
                    attr_matches(&f.attr, "manufacturer")
                        && f.subject
                            .split_whitespace()
                            .next()
                            .is_some_and(|b| b.eq_ignore_ascii_case(brand))
                }) {
                    return f.value.clone();
                }
            }
        }
        if a.contains("timezone") {
            // Two-hop chain: subject → country → timezone, using context
            // records of analogous rows.
            let country = record
                .get("country")
                .map(str::to_string)
                .or_else(|| {
                    facts
                        .iter()
                        .find(|f| {
                            f.subject.eq_ignore_ascii_case(subject)
                                && attr_matches(&f.attr, "country")
                        })
                        .map(|f| f.value.clone())
                })
                .or_else(|| {
                    kb.lookup(subject, Predicate::CityCountry)
                        .map(str::to_string)
                });
            if let Some(country) = country {
                if let Some(f) = facts.iter().find(|f| {
                    attr_matches(&f.attr, "timezone")
                        && facts.iter().any(|g| {
                            g.subject == f.subject
                                && attr_matches(&g.attr, "country")
                                && g.value.eq_ignore_ascii_case(&country)
                        })
                }) {
                    return f.value.clone();
                }
                if let Some(tz) = kb.lookup(&country, Predicate::CountryTimezone) {
                    return tz.to_string();
                }
            }
        }
    }

    // 4. Pretraining recall: one recall attempt over whatever the model's
    //    memory holds about the subject or its identifying tokens.
    if dice.chance(&tag, "kb-recall", reason_p) {
        if let Some((_, v)) = kb.lookup_any(subject, &predicates_for_attr(attr)) {
            return v.to_string();
        }
        if a.contains("city") {
            if let Some(addr) = record.get("addr").or_else(|| record.get("address")) {
                let base = street_base(addr);
                if let Some(city) = kb.lookup(
                    &unidm_world::names::capitalize(&base),
                    Predicate::StreetCity,
                ) {
                    return city.to_string();
                }
            }
            if let Some(code) = record.get("phone").and_then(area_code) {
                if let Some(city) = kb.lookup(&code, Predicate::AreaCodeCity) {
                    return city.to_string();
                }
            }
        }
        if a.contains("manufacturer") {
            let brand = subject.split_whitespace().next().unwrap_or("");
            if let Some(m) = kb.lookup(brand, Predicate::BrandManufacturer) {
                return m.to_string();
            }
        }
    }

    // 5. Desperate guess: the most common context value for the attribute.
    // Ties break lexicographically, never by HashMap iteration order —
    // the same prompt must produce the same completion in every process
    // (the prompt-cache store replays completions across runs).
    let mut counts: std::collections::HashMap<&str, usize> = std::collections::HashMap::new();
    for f in facts.iter().filter(|f| attr_matches(&f.attr, attr)) {
        *counts.entry(f.value.as_str()).or_insert(0) += 1;
    }
    let mut counts: Vec<(&str, usize)> = counts.into_iter().collect();
    counts.sort_unstable();
    counts
        .into_iter()
        .max_by_key(|(v, c)| (*c, std::cmp::Reverse(v.len())))
        .map(|(v, _)| v.to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn transform(
    examples: &[(String, String)],
    input: &str,
    reason_p: f64,
    dice: &Dice,
    kb: &KnowledgeBase,
) -> String {
    let tag = format!("tf|{input}");
    // Induction is a reasoning act; a weak model garbles it.
    if !dice.chance(&tag, "tf-reason", reason_p) {
        return input.to_string();
    }
    match induce::induce(examples, kb).and_then(|p| p.apply(input, kb)) {
        Some(out) => out,
        None => input.to_string(),
    }
}

/// The attribute → valid-token-domain mapping the model uses when judging
/// values.
fn domain_for_attr(attr: &str) -> Option<&'static str> {
    let a = attr.to_lowercase();
    for (key, dom) in [
        ("city", "city"),
        ("county", "county"),
        ("country", "country"),
        ("measure", "measure code"),
        ("education", "education"),
        ("workclass", "workclass"),
        ("occupation", "occupation"),
        ("marital", "marital status"),
        ("relationship", "relationship"),
        ("race", "race"),
        ("sex", "sex"),
        ("income", "income"),
        ("position", "position"),
        ("college", "college"),
    ] {
        if a.contains(key) {
            return Some(dom);
        }
    }
    None
}

/// Plausible numeric ranges the model knows for common attributes.
fn plausible_range(attr: &str) -> Option<(f64, f64)> {
    let a = attr.to_lowercase();
    if a.contains("age") || a.contains("hours") {
        Some((0.0, 120.0))
    } else if a.contains("abv") {
        Some((0.0, 70.0))
    } else {
        None
    }
}

#[allow(clippy::too_many_arguments)]
fn detect_error(
    attr: &str,
    value: &str,
    facts: &[ContextFact],
    reason_p: f64,
    profile: &LlmProfile,
    dice: &Dice,
    kb: &KnowledgeBase,
) -> String {
    let tag = format!("ed|{attr}|{value}");
    let verdict_error = |is_err: bool| if is_err { "Yes" } else { "No" };

    // Numeric plausibility. A failed reasoning check defaults to "normal":
    // models under-report errors rather than hallucinate them.
    if let Ok(n) = value.trim().parse::<f64>() {
        if let Some((lo, hi)) = plausible_range(attr) {
            let out_of_range = n < lo || n > hi;
            if dice.chance(&tag, "ed-range", reason_p) {
                return verdict_error(out_of_range).to_string();
            }
            return "No".to_string();
        }
    }

    // Context vote: does the exact value occur among retrieved records?
    let in_context = facts
        .iter()
        .any(|f| attr_matches(&f.attr, attr) && f.value.eq_ignore_ascii_case(value));
    if in_context {
        // Seen in the column's distribution ⇒ almost surely valid.
        if dice.chance(&tag, "ed-ctx", profile.context_fidelity) {
            return "No".to_string();
        }
    }

    // Positive vocabulary evidence: a known valid token of the attribute's
    // domain is clean regardless of anything else.
    if let Some(domain) = domain_for_attr(attr) {
        if kb.knows_domain(domain)
            && kb.is_valid_token(domain, value)
            && dice.chance(&tag, "ed-domain", profile.effective_instruction())
        {
            return "No".to_string();
        }
    }

    // Word-level familiarity: a typo'd word is one the model has never seen
    // anywhere in pretraining; any unknown word inside an otherwise ordinary
    // value is suspicious. This token-recognition judgement is what lets a
    // plain few-shot prompt (FM) reach high error-detection F1 too.
    let familiarity = kb.token_familiarity(value);
    let suspicious = familiarity < 0.99;
    if dice.chance(&tag, "ed-famil", reason_p) {
        verdict_error(suspicious && !in_context).to_string()
    } else {
        "No".to_string()
    }
}

/// Alignment-aware textual similarity between two entity descriptions,
/// including initial-expansion ("P." matches "Punch").
fn entity_similarity(a: &str, b: &str) -> f64 {
    let ja = jaccard(a, b);
    let jw = jaro_winkler(&a.to_lowercase(), &b.to_lowercase());
    let mut sim = 0.6 * ja + 0.4 * jw;
    // Abbreviation expansion: leading initial matching the other's first word.
    let fa = a.split_whitespace().next().unwrap_or("");
    let fb = b.split_whitespace().next().unwrap_or("");
    let initial = |x: &str, y: &str| {
        x.len() <= 2
            && x.ends_with('.')
            && y.chars().next().is_some_and(|c| {
                x.chars()
                    .next()
                    .is_some_and(|xc| xc.eq_ignore_ascii_case(&c))
            })
    };
    if initial(fa, fb) || initial(fb, fa) {
        sim = (sim + 0.18).min(1.0);
    }
    // Shared rare alphanumeric model codes are strong evidence.
    let code = |s: &str| {
        s.split_whitespace()
            .map(|w| {
                w.trim_matches(|c: char| !c.is_alphanumeric())
                    .to_lowercase()
            })
            .filter(|w| {
                w.len() >= 4
                    && w.chars().any(|c| c.is_ascii_digit())
                    && w.chars().any(|c| c.is_alphabetic())
            })
            .collect::<std::collections::BTreeSet<_>>()
    };
    let ca = code(a);
    let cb = code(b);
    if !ca.is_empty() && !cb.is_empty() {
        if ca.intersection(&cb).next().is_some() {
            sim = (sim + 0.25).min(1.0);
        } else {
            sim = (sim - 0.2).max(0.0);
        }
    }
    sim
}

/// Agreement of two field values in `[0, 1]`: relative closeness for
/// numbers, graded string similarity otherwise.
fn value_agreement(x: &str, y: &str) -> f64 {
    let num = |s: &str| -> Option<f64> {
        let cleaned: String = s
            .chars()
            .filter(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
            .collect();
        cleaned.parse().ok()
    };
    if let (Some(a), Some(b)) = (num(x), num(y)) {
        if x.chars().any(|c| c.is_ascii_digit()) && y.chars().any(|c| c.is_ascii_digit()) {
            let denom = a.abs().max(b.abs()).max(1e-9);
            // Numbers that disagree are weak evidence against a match —
            // prices and durations drift across catalogues.
            return if (a - b).abs() / denom < 0.15 {
                1.0
            } else {
                0.25
            };
        }
    }
    let xl = x.to_lowercase();
    let yl = y.to_lowercase();
    if xl == yl {
        return 1.0;
    }
    0.5 * jaro_winkler(&xl, &yl) + 0.5 * jaccard(&xl, &yl)
}

/// Field-wise agreement of two entity descriptions, when both parse into at
/// least two shared fields. This is the "compare attribute by attribute"
/// reading a capable model applies to structured entity descriptions.
fn field_agreement(a: &str, b: &str) -> Option<f64> {
    let parse = |s: &str| {
        SerializedRecord::parse(s)
            .filter(|r| r.pairs.len() >= 2)
            .or_else(|| parse_natural_sentence(s))
    };
    let ra = parse(a)?;
    let rb = parse(b)?;
    let mut shared = 0usize;
    let mut agree = 0.0;
    let mut strong_disagreements = 0u32;
    for (attr, va) in &ra.pairs {
        if va.is_empty() {
            continue;
        }
        let key = if attr == "@subject" {
            "@subject"
        } else {
            attr.as_str()
        };
        let Some(vb) = rb
            .get(key)
            .or_else(|| (key == "@subject").then(|| rb.get("@subject")).flatten())
        else {
            continue;
        };
        shared += 1;
        let va_num = va.chars().any(|c| c.is_ascii_digit());
        let agreement = value_agreement(va, vb);
        // A flatly different textual field (another brewery, another
        // artist) is near-conclusive evidence of distinct entities.
        if agreement < 0.3 && !va_num {
            strong_disagreements += 1;
        }
        agree += agreement;
    }
    (shared >= 2).then(|| (agree / shared as f64) * 0.55f64.powi(strong_disagreements as i32))
}

#[allow(clippy::too_many_arguments)]
fn resolve_entities(
    a: &str,
    b: &str,
    req: &AnswerRequest,
    _reason_p: f64,
    profile: &LlmProfile,
    dice: &Dice,
    kb: &KnowledgeBase,
) -> String {
    // A model with a mis-calibrated yes/no boundary rambles or refuses; the
    // caller reads anything that is not "Yes" as a non-match. This is what
    // collapses raw GPT-J-6B (and zero-shot LLaMA2-7B) in Table 5, and what
    // fine-tuning repairs.
    if !dice.chance(
        &format!("{a}||{b}"),
        "er-follow",
        profile.effective_calibration(),
    ) {
        return "No".to_string();
    }
    let text_sim = entity_similarity(a, b);
    // Field-by-field comparison dominates when the descriptions expose
    // structure — raw text similarity over naturalized sentences is
    // inflated by the shared template words ("is brewed by", "is of
    // style"), which a model comparing *entities* discounts.
    let sim = match field_agreement(a, b) {
        Some(fa) => 0.2 * text_sim + 0.8 * fa,
        None => text_sim,
    };
    // Cloze phrasing and naturalized entity descriptions sharpen the
    // judgement relative to flat few-shot serialization — UniDM's edge
    // over FM on entity resolution.
    let form = crate::skills::prompt_form_factor(req.form);
    let form_quality = form * form * crate::skills::context_kind_factor(req.context_kind).max(0.9);
    let sigma_scale = 1.0 / form_quality.max(0.5);
    // Domain-specific jargon the model has never seen makes its judgement
    // noisier (the paper's Amazon-Google explanation).
    let familiarity = kb.token_familiarity(&format!("{a} {b}"));
    let base_noise = 1.0 - profile.effective_calibration();
    let mut sigma = 0.10 + 0.45 * base_noise + 0.25 * (1.0 - familiarity);
    // In-context demonstrations calibrate the decision boundary — the more
    // similar they are to the query pair, the better the calibration. This
    // is why FM (manual) beats FM (random) in Table 4.
    if !req.context_lines.is_empty() {
        let relevance = req
            .context_lines
            .iter()
            .map(|l| jaccard(l, &format!("{a} {b}")))
            .fold(0.0f64, f64::max);
        sigma *= 0.85 - 0.45 * relevance.min(1.0);
    }
    // Fine-tuning sharpens it further.
    sigma *= 1.0 - 0.75 * profile.domain_adaptation;
    let noise = sigma * sigma_scale * (dice.uniform(&format!("{a}||{b}"), "er-noise") - 0.5) * 2.0;
    let threshold = 0.47;
    let same = sim + noise > threshold;
    if same {
        "Yes".to_string()
    } else {
        "No".to_string()
    }
}

fn table_qa(question: &str, facts: &[ContextFact], reason_p: f64, dice: &Dice) -> String {
    let tag = format!("qa|{question}");
    let q = question.to_lowercase();
    // Aggregate questions: "how many {key} ... total?" — the word after
    // "many" names the quantity column.
    if q.starts_with("how many") {
        let words: Vec<&str> = q.split_whitespace().collect();
        let key = words
            .iter()
            .position(|w| *w == "many")
            .and_then(|i| words.get(i + 1))
            .copied()
            .unwrap_or("");
        let mut total = 0f64;
        let mut matched = 0usize;
        for f in facts {
            if !key.is_empty()
                && q.contains(&f.subject.to_lowercase())
                && f.attr.to_lowercase().contains(key)
            {
                if let Ok(n) = f.value.trim().parse::<f64>() {
                    total += n;
                    matched += 1;
                }
            }
        }
        if matched > 0 && dice.chance(&tag, "qa-sum", reason_p) {
            return if total.fract() == 0.0 {
                format!("{}", total as i64)
            } else {
                format!("{total}")
            };
        }
    }
    // Lookup questions: return the value whose subject appears in the question.
    if let Some(f) = facts.iter().find(|f| q.contains(&f.subject.to_lowercase())) {
        if dice.chance(&tag, "qa-lookup", reason_p) {
            return f.value.clone();
        }
    }
    "unknown".to_string()
}

fn join_discovery(
    left_values: &[String],
    right_values: &[String],
    _facts: &[ContextFact],
    reason_p: f64,
    dice: &Dice,
    kb: &KnowledgeBase,
) -> String {
    let canon = |v: &String| v.trim().to_lowercase();
    let left: std::collections::BTreeSet<String> = left_values.iter().map(canon).collect();
    let right: std::collections::BTreeSet<String> = right_values.iter().map(canon).collect();
    if left.is_empty() || right.is_empty() {
        return "No (joinability: 5%)".to_string();
    }
    let direct = left.intersection(&right).count();
    // Semantic containment: left values mapping onto right values through a
    // known relation (country ↔ ISO code and friends).
    let rels = [
        Predicate::CountryIso,
        Predicate::CityCountry,
        Predicate::CountryContinent,
        Predicate::BrandManufacturer,
    ];
    let semantic = left
        .iter()
        .filter(|v| {
            rels.iter().any(|&p| {
                kb.lookup(v, p)
                    .map(str::to_lowercase)
                    .is_some_and(|o| right.contains(&o))
                    || kb
                        .lookup_reverse(v, p)
                        .map(str::to_lowercase)
                        .is_some_and(|o| right.contains(&o))
            })
        })
        .count();
    let containment = (direct.max(semantic)) as f64 / left.len().min(right.len()) as f64;
    // Verbalized confidence follows the usual LLM calibration curve: the
    // model rounds decisive evidence up ("16 of 20 samples match — clearly
    // joinable") and weak evidence down. A logistic link captures that.
    let confidence = 1.0 / (1.0 + (-12.0 * (containment - 0.45)).exp());
    // Reasoning noise perturbs the judged containment slightly.
    let noise =
        (1.0 - reason_p) * 0.4 * (dice.uniform(&format!("{left:?}|{right:?}"), "join") - 0.5);
    let score = (confidence + noise).clamp(0.0, 1.0);
    let verdict = if score >= 0.5 { "Yes" } else { "No" };
    format!("{verdict} (joinability: {:.0}%)", score * 100.0)
}

fn extract(
    attr: &str,
    context_lines: &[String],
    read_p: f64,
    dice: &Dice,
    kb: &KnowledgeBase,
) -> String {
    let text = context_lines.join(" ");
    let tag = format!("ex|{attr}|{}", text.len());
    if !dice.chance(&tag, "ex-read", read_p) {
        return "unknown".to_string();
    }
    let a = attr.to_lowercase();
    if a == "height" {
        // Pattern: "<d> ft <d> in".
        let words: Vec<&str> = text.split_whitespace().collect();
        for w in words.windows(4) {
            if w[1] == "ft" && w[3].starts_with("in") && w[0].parse::<u8>().is_ok() {
                return format!("{} ft {} in", w[0], w[2]);
            }
        }
        return "unknown".to_string();
    }
    if a == "position" || a == "college" {
        // Longest known vocabulary token appearing in the text.
        let domain = if a == "position" {
            "position"
        } else {
            "college"
        };
        let mut best: Option<String> = None;
        for candidate in candidate_spans(&text) {
            if kb.is_valid_token(domain, &candidate)
                && best.as_ref().is_none_or(|b| candidate.len() > b.len())
            {
                best = Some(candidate);
            }
        }
        if let Some(b) = best {
            return b;
        }
        if a == "college" && text.contains("NA") {
            return "NA".to_string();
        }
        return "unknown".to_string();
    }
    if a == "player" || a == "name" {
        // The page title / heading: first capitalized bigram.
        for w in text.split_whitespace().collect::<Vec<_>>().windows(2) {
            let first_ok = w[0].chars().next().is_some_and(|c| c.is_uppercase())
                && w[0].chars().all(|c| c.is_alphabetic());
            let second_ok = w[1].chars().next().is_some_and(|c| c.is_uppercase())
                && w[1].chars().all(|c| c.is_alphabetic());
            if first_ok && second_ok {
                return format!("{} {}", w[0], w[1]);
            }
        }
        return "unknown".to_string();
    }
    "unknown".to_string()
}

/// Word spans of length 1–4 from the text, for vocabulary matching.
fn candidate_spans(text: &str) -> Vec<String> {
    let words: Vec<String> = text
        .split_whitespace()
        .map(|w| {
            w.trim_matches(|c: char| !c.is_alphanumeric() && c != '/')
                .to_string()
        })
        .filter(|w| !w.is_empty())
        .collect();
    let mut out = Vec::new();
    for len in 1..=4usize {
        for win in words.windows(len) {
            out.push(win.join(" "));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{AnswerRequest, ContextKind, PromptForm};
    use unidm_world::World;

    fn kb() -> KnowledgeBase {
        KnowledgeBase::from_world(&World::generate(7), 1.0, 1)
    }

    fn imputation_req(ctx: Vec<String>, kind: ContextKind) -> AnswerRequest {
        AnswerRequest {
            task: crate::protocol::TaskKind::Imputation,
            form: PromptForm::Cloze,
            context_kind: kind,
            context_lines: ctx,
            payload: AnswerPayload::Imputation {
                subject: "Copenhagen".into(),
                attr: "timezone".into(),
                record: SerializedRecord::new(vec![
                    ("city".into(), "Copenhagen".into()),
                    ("country".into(), "Denmark".into()),
                ]),
            },
        }
    }

    #[test]
    fn imputes_timezone_via_context_chain() {
        let req = imputation_req(
            vec![
                "Alicante belongs to the country Spain and is in the timezone Central European Time."
                    .into(),
            ],
            ContextKind::Natural,
        );
        // Even with an empty KB the chain Denmark→CET cannot complete from
        // context (context says Spain→CET); but the KB chain can.
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert_eq!(out, "Central European Time");
    }

    #[test]
    fn imputes_from_direct_context_fact() {
        let req = imputation_req(
            vec!["Copenhagen is in the timezone Central European Time.".into()],
            ContextKind::Natural,
        );
        let out = answer(
            &req,
            &LlmProfile::gpt4_turbo(),
            &Dice::new(1),
            &KnowledgeBase::empty(),
        );
        assert_eq!(out, "Central European Time");
    }

    #[test]
    fn empty_kb_and_context_fails() {
        let req = imputation_req(vec![], ContextKind::Empty);
        let out = answer(
            &req,
            &LlmProfile::gpt4_turbo(),
            &Dice::new(1),
            &KnowledgeBase::empty(),
        );
        assert_eq!(out, "unknown");
    }

    #[test]
    fn street_analogy_resolves_city() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::Imputation,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Natural,
            context_lines: vec![
                "Belvedere is located at 9882 Little Santa Monica Blvd and is located in the \
                 city of Beverly Hills."
                    .into(),
            ],
            payload: AnswerPayload::Imputation {
                subject: "Ruth's Chris Steak House".into(),
                attr: "city".into(),
                record: SerializedRecord::new(vec![
                    ("name".into(), "Ruth's Chris Steak House".into()),
                    ("addr".into(), "224 Little Santa Monica Blvd".into()),
                ]),
            },
        };
        let out = answer(
            &req,
            &LlmProfile::gpt4_turbo(),
            &Dice::new(1),
            &KnowledgeBase::empty(),
        );
        assert_eq!(out, "Beverly Hills");
    }

    #[test]
    fn transformation_by_example() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::Transformation,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Natural,
            context_lines: vec![],
            payload: AnswerPayload::Transformation {
                examples: vec![
                    ("20000101".into(), "2000-01-01".into()),
                    ("19991231".into(), "1999-12-31".into()),
                ],
                input: "20210315".into(),
            },
        };
        // The reasoning gate is stochastic per seed; a strong model should
        // succeed on the large majority of seeds.
        let kb = kb();
        let ok = (0..20)
            .filter(|&s| {
                answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(s), &kb) == "2021-03-15"
            })
            .count();
        assert!(ok >= 16, "success on {ok}/20 seeds");
    }

    #[test]
    fn error_detection_typo_flagged() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::ErrorDetection,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Empty,
            context_lines: vec![],
            payload: AnswerPayload::ErrorDetection {
                attr: "city".into(),
                value: "Copxnhagen".into(),
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert_eq!(out, "Yes");
    }

    #[test]
    fn error_detection_valid_value_passes() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::ErrorDetection,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Empty,
            context_lines: vec![],
            payload: AnswerPayload::ErrorDetection {
                attr: "city".into(),
                value: "Copenhagen".into(),
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert_eq!(out, "No");
    }

    #[test]
    fn error_detection_numeric_outlier() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::ErrorDetection,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Empty,
            context_lines: vec![],
            payload: AnswerPayload::ErrorDetection {
                attr: "age".into(),
                value: "382".into(),
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert_eq!(out, "Yes");
    }

    #[test]
    fn er_same_entity_yes() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::EntityResolution,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Empty,
            context_lines: vec![],
            payload: AnswerPayload::EntityResolution {
                a: "Kelvar Studio Pro KX-4510 is priced at $199.99".into(),
                b: "Kelvar Studio Pro KX-4510 is priced at $201.50".into(),
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert_eq!(out, "Yes");
    }

    #[test]
    fn er_different_entity_no() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::EntityResolution,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Empty,
            context_lines: vec![],
            payload: AnswerPayload::EntityResolution {
                a: "Kelvar Studio Pro KX-4510".into(),
                b: "Tornet Office Max TZ-9981".into(),
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert_eq!(out, "No");
    }

    #[test]
    fn tableqa_sums_medals() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::TableQa,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Natural,
            context_lines: vec![
                "Australia won gold medals numbering 2.".into(),
                "Switzerland won gold medals numbering 0.".into(),
            ],
            payload: AnswerPayload::TableQa {
                question: "how many gold medals did Australia and Switzerland total?".into(),
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert_eq!(out, "2");
    }

    #[test]
    fn join_direct_overlap_yes() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::JoinDiscovery,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Empty,
            context_lines: vec![],
            payload: AnswerPayload::Join {
                left: "a.x".into(),
                right: "b.x".into(),
                left_values: vec!["GER".into(), "ITA".into(), "FRA".into()],
                right_values: vec!["ita".into(), "ger".into(), "fra".into(), "esp".into()],
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert!(out.starts_with("Yes"), "{out}");
    }

    #[test]
    fn join_semantic_abbreviation_yes() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::JoinDiscovery,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Empty,
            context_lines: vec![],
            payload: AnswerPayload::Join {
                left: "fifa.country_full".into(),
                right: "geo.ISO".into(),
                left_values: vec!["Germany".into(), "Italy".into(), "France".into()],
                right_values: vec!["GER".into(), "ITA".into(), "FRA".into()],
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert!(out.starts_with("Yes"), "{out}");
    }

    #[test]
    fn join_disjoint_no() {
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::JoinDiscovery,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Empty,
            context_lines: vec![],
            payload: AnswerPayload::Join {
                left: "a.x".into(),
                right: "b.y".into(),
                left_values: vec!["alpha".into(), "beta".into()],
                right_values: vec!["gamma".into(), "delta".into()],
            },
        };
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1), &kb());
        assert!(out.starts_with("No"), "{out}");
    }

    #[test]
    fn extraction_height_and_position() {
        let kb = kb();
        let lines = vec![
            "Kevin Durant is an American professional basketball player standing 6 ft 10 in \
             tall, he plays the Small forward position at Texas."
                .to_string(),
        ];
        let req = AnswerRequest {
            task: crate::protocol::TaskKind::Extraction,
            form: PromptForm::Cloze,
            context_kind: ContextKind::Tabular,
            context_lines: lines.clone(),
            payload: AnswerPayload::Extraction {
                attr: "height".into(),
            },
        };
        // The read gate is stochastic per seed; count successes.
        let heights = (0..20)
            .filter(|&s| {
                answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(s), &kb) == "6 ft 10 in"
            })
            .count();
        assert!(heights >= 14, "height read on {heights}/20 seeds");
        let req = AnswerRequest {
            payload: AnswerPayload::Extraction {
                attr: "position".into(),
            },
            ..req
        };
        let positions = (0..20)
            .filter(|&s| {
                answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(s), &kb) == "Small forward"
            })
            .count();
        assert!(positions >= 14, "position read on {positions}/20 seeds");
    }
}
