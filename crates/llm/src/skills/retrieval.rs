//! Retrieval skills: answering `p_rm` (attribute selection) and `p_ri`
//! (instance relevance scoring).

use unidm_text::distance::{WordScratch, WordSet};
use unidm_text::format::push_decimal;
use unidm_text::Embedder;

use super::{area_code, street_base};
use crate::kb::KnowledgeBase;
use crate::profile::LlmProfile;
use crate::protocol::{PriPrompt, PrmRequest, RecordReader, TaskKind};
use crate::Dice;

/// Attribute pairs a pretrained model "knows" to be semantically linked —
/// the internal knowledge `p_rm` elicits (target keyword, helpful keyword,
/// strength).
const ATTRIBUTE_AFFINITY: &[(&str, &str, f64)] = &[
    ("timezone", "country", 1.0),
    ("timezone", "city", 0.9),
    ("country", "city", 1.0),
    ("country", "iso", 0.9),
    ("country", "postal", 0.5),
    ("city", "addr", 0.95),
    ("city", "phone", 0.85),
    ("city", "county", 0.6),
    ("city", "zip", 0.7),
    ("city", "state", 0.55),
    ("manufacturer", "name", 1.0),
    ("manufacturer", "description", 0.9),
    ("manufacturer", "brand", 0.95),
    ("artist", "song", 0.9),
    ("artist", "album", 0.85),
    ("artist", "genre", 0.7),
    ("brewery", "name", 0.9),
    ("college", "player", 0.9),
    ("population", "city", 0.6),
    ("income", "education", 0.7),
    ("income", "occupation", 0.6),
    ("nation", "gold", 0.8),
    ("gold", "nation", 0.9),
    ("silver", "nation", 0.9),
    ("bronze", "nation", 0.9),
];

/// How strongly a pretrained model links `candidate` to `target`.
fn affinity(target: &str, candidate: &str) -> f64 {
    let t = target.to_lowercase();
    let c = candidate.to_lowercase();
    let table_hit = ATTRIBUTE_AFFINITY
        .iter()
        .filter(|(a, b, _)| t.contains(a) && c.contains(b))
        .map(|(_, _, s)| *s)
        .fold(0.0, f64::max);
    // An attribute literally named in the query (e.g. "gold" in "how many
    // gold medals…") is evidently relevant.
    let named = t
        .split(|ch: char| !ch.is_alphanumeric())
        .any(|w| !w.is_empty() && w == c);
    if named {
        table_hit.max(0.95)
    } else {
        table_hit
    }
}

/// Answers `p_rm`: ranks candidate attributes by semantic affinity with the
/// target, with capability noise, and returns the best ones (comma list).
pub fn select_attributes(
    req: &PrmRequest,
    profile: &LlmProfile,
    dice: &Dice,
    _kb: &KnowledgeBase,
) -> String {
    // The target attribute is the last comma-element of the query
    // ("Copenhagen, timezone" → "timezone").
    let target = req
        .query
        .rsplit(',')
        .next()
        .unwrap_or(&req.query)
        .trim()
        .to_string();
    let embedder = Embedder::default();
    let target_emb = embedder.embed(&target);
    let mut scored: Vec<(f64, &String)> = req
        .candidates
        .iter()
        .map(|c| {
            let known = affinity(&target, c);
            // Fall back on name similarity when no explicit link is known.
            let fallback = 0.3 * f64::from(target_emb.cosine(&embedder.embed(c)));
            let mut score = known.max(fallback);
            // Capability noise: weaker models mis-rank attributes.
            let noise_span = 1.0 - profile.effective_instruction();
            score += noise_span * (dice.uniform(&format!("{}|{c}", req.query), "prm-noise") - 0.5);
            (score, c)
        })
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
    // Emit every clearly helpful attribute (capped at three); always at
    // least the top one. The paper's imputation default ends up with one
    // attribute, its TableQA example with two ("Nation" and "Gold").
    let mut picked: Vec<&str> = Vec::new();
    for (score, attr) in &scored {
        if picked.is_empty() || (*score >= 0.6 && picked.len() < 3) {
            picked.push(attr);
        }
    }
    picked.join(", ")
}

/// Answers `p_ri`: scores each instance 0–3 for relevance to the query.
///
/// Relevance is lexical-semantic similarity between the instance and the
/// query — what an LLM actually computes when asked this — with per-instance
/// capability noise.
///
/// The reply is a function of the prompt's bytes only. Each header-form
/// row is read back as the `attr: value` line the per-instance form showed
/// ([`PriPrompt::lines_into`], every row into one buffer), and that line is
/// scored exactly as such a line was: read where it stands
/// ([`RecordReader`]) and scored on its
/// [`SerializedRecord::render`](crate::protocol::SerializedRecord::render),
/// with the same Jaccard text and the same `pri-noise` draw. So each reply
/// is the one the per-instance form got. Nothing about the query is
/// recomputed per candidate, and a candidate costs no allocation of its
/// own.
pub fn score_instances(
    prompt: &PriPrompt<'_>,
    profile: &LlmProfile,
    dice: &Dice,
    _kb: &KnowledgeBase,
) -> String {
    let mut query = RecordReader::default();
    let query = query.read(prompt.query).then_some(query);
    // The attribute the query marks as missing ("city: ?"): an instance
    // that lacks it cannot demonstrate anything, however similar it looks.
    let missing_attr = (query.iter())
        .find_map(|q| q.pairs().iter().find(|&&(_, v)| v == "?"))
        .map(|&(a, _)| a);
    let links: Vec<Link<'_>> = match &query {
        Some(q) if matches!(prompt.task, TaskKind::Imputation | TaskKind::ErrorDetection) => q
            .pairs()
            .iter()
            .filter_map(|&pair| Link::of(pair))
            .collect(),
        _ => Vec::new(),
    };
    let query_words = WordSet::new(prompt.query);
    let mut lines = String::new();
    let rows = prompt.lines_into(&mut lines);
    let mut inst = RecordReader::default();
    let mut words = WordScratch::default();
    let mut rendered = String::new();
    let mut street = String::new();
    // (similarity, noise draw) per candidate: the draw does not depend on
    // the other candidates, so one pass over the lines takes both.
    let mut scored: Vec<(f64, f64)> = Vec::with_capacity(rows);
    for line in lines.split_terminator('\n') {
        if !inst.read(line) {
            continue;
        }
        let text = inst.rendered(&mut rendered);
        let mut sim = query_words.jaccard_text(text, &mut words);
        // Semantic bonus: instances sharing a KB-linked value with the query
        // (e.g. same street, same brand) are more relevant than raw token
        // overlap suggests.
        if links.iter().any(|link| link.holds(&inst, &mut street)) {
            sim = (sim + 0.6).min(1.0);
        }
        if let Some(attr) = missing_attr {
            if inst.get(attr).is_none() {
                sim *= 0.15;
            }
        }
        let i = scored.len();
        let draw = dice
            .context(format_args!("{text}#{i}"))
            .uniform("pri-noise");
        scored.push((sim, draw));
    }
    // Relevance is judged relative to the best candidate, like a model
    // ranking instances against each other rather than on an absolute scale.
    let max_sim = scored
        .iter()
        .map(|&(sim, _)| sim)
        .fold(0.0f64, f64::max)
        .max(1e-9);
    let noise_span = (1.0 - profile.effective_instruction()) * 1.5;
    let mut out = String::with_capacity(scored.len() * 6);
    for (i, &(sim, draw)) in scored.iter().enumerate() {
        let rel = sim / max_sim;
        let noisy = rel + noise_span * (draw - 0.5);
        let score = (noisy * 3.4).floor().clamp(0.0, 3.0) as u8;
        if i > 0 {
            out.push_str(", ");
        }
        push_decimal(&mut out, i + 1);
        out.push(':');
        push_decimal(&mut out, usize::from(score));
    }
    out
}

/// A discriminative value of the query that an instance can share — same
/// street, same phone area code, same leading brand token — read off the
/// query once per prompt. Venue-type words like "Cafe" are deliberately
/// not enough: relevance is judged per attribute, the way a model reading
/// both records attribute-by-attribute would. Only imputation and error
/// detection queries have links.
enum Link<'a> {
    /// An address attribute and the query's street ([`street_base`]).
    Street(&'a str, String),
    /// A phone attribute and the query's area code.
    AreaCode(&'a str, &'a str),
    /// A name or title attribute and the query's leading token (3+ bytes).
    Brand(&'a str, &'a str),
}

impl<'a> Link<'a> {
    /// The link a query pair offers, if any instance could ever share it.
    fn of((attr, value): (&'a str, &'a str)) -> Option<Self> {
        if value.is_empty() || value == "?" {
            return None;
        }
        let a = attr.to_lowercase();
        if a.contains("addr") {
            let base = street_base(value, &mut String::new());
            (!base.is_empty()).then_some(Link::Street(attr, base))
        } else if a.contains("phone") {
            area_code(value).map(|code| Link::AreaCode(attr, code))
        } else if a.contains("name") || a.contains("title") {
            // Shared leading brand/venue token, if it is not the last word
            // (avoids matching on generic suffixes).
            let brand = value.split_whitespace().next().unwrap_or("");
            (brand.len() >= 3).then_some(Link::Brand(attr, brand))
        } else {
            None
        }
    }

    /// True when `inst` has a non-empty value for the link's attribute and
    /// it shares the link's value. `words` is [`street_base`]'s scratch.
    fn holds(&self, inst: &RecordReader<'_>, words: &mut String) -> bool {
        match *self {
            Link::Street(attr, ref base) => inst
                .get(attr)
                .is_some_and(|v| street_base(v, words) == *base),
            Link::AreaCode(attr, code) => {
                inst.get(attr).is_some_and(|v| area_code(v) == Some(code))
            }
            Link::Brand(attr, brand) => inst.get(attr).is_some_and(|v| {
                brand.eq_ignore_ascii_case(v.split_whitespace().next().unwrap_or(""))
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{render_pri, SerializedRecord};

    use unidm_world::World;

    fn setup() -> (LlmProfile, Dice, KnowledgeBase) {
        let world = World::generate(7);
        (
            LlmProfile::gpt3_175b(),
            Dice::new(1),
            KnowledgeBase::from_world(&world, 0.9, 1),
        )
    }

    #[test]
    fn affinity_country_for_timezone() {
        assert!(affinity("timezone", "country") > affinity("timezone", "population"));
    }

    #[test]
    fn selects_country_for_timezone_imputation() {
        let (p, d, kb) = setup();
        let req = PrmRequest {
            task: TaskKind::Imputation,
            query: "Copenhagen, timezone".into(),
            candidates: vec!["country".into(), "population".into(), "postalcode".into()],
        };
        let out = select_attributes(&req, &p, &d, &kb);
        assert!(out.contains("country"), "got {out}");
    }

    #[test]
    fn weak_model_noisier_selection() {
        let (_, d, kb) = setup();
        let strong = LlmProfile::gpt4_turbo();
        let weak = LlmProfile::gptj_6b();
        let mut strong_hits = 0;
        let mut weak_hits = 0;
        for i in 0..60 {
            let req = PrmRequest {
                task: TaskKind::Imputation,
                query: format!("City{i}, timezone"),
                candidates: vec!["country".into(), "population".into(), "phone".into()],
            };
            if select_attributes(&req, &strong, &d, &kb).contains("country") {
                strong_hits += 1;
            }
            if select_attributes(&req, &weak, &d, &kb).contains("country") {
                weak_hits += 1;
            }
        }
        assert!(strong_hits >= weak_hits, "{strong_hits} vs {weak_hits}");
    }

    #[test]
    fn scores_relevant_instance_higher() {
        let (p, d, kb) = setup();
        let relevant = SerializedRecord::new(vec![
            ("name".into(), "Jack's Grill".into()),
            ("addr".into(), "10668 Pico Blvd".into()),
        ]);
        let irrelevant = SerializedRecord::new(vec![
            ("name".into(), "Tofu Palace".into()),
            ("addr".into(), "99 Elm St".into()),
        ]);
        let prompt = render_pri(
            TaskKind::Imputation,
            "Border Grill, 100 Pico Blvd, city",
            &[relevant, irrelevant],
        );
        let out = score_instances(&PriPrompt::read(&prompt).unwrap(), &p, &d, &kb);
        let scores = crate::protocol::parse_pri_response(&out);
        assert_eq!(scores.len(), 2);
        assert!(scores[0].1 >= scores[1].1, "{out}");
    }

    #[test]
    fn score_output_parseable() {
        let (p, d, kb) = setup();
        let instances = vec![SerializedRecord::new(vec![("a".into(), "b".into())]); 5];
        let prompt = render_pri(TaskKind::Imputation, "x, y", &instances);
        let out = score_instances(&PriPrompt::read(&prompt).unwrap(), &p, &d, &kb);
        assert_eq!(crate::protocol::parse_pri_response(&out).len(), 5);
    }
}
