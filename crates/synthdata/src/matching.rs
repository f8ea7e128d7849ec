//! Entity-resolution benchmarks in the Magellan style: Beer, Amazon-Google,
//! iTunes-Amazon and Walmart-Amazon.
//!
//! Each dataset consists of candidate record pairs from two structured
//! tables of the same schema, labelled matched / not matched. Matched pairs
//! are perturbed duplicates (abbreviations, reorderings, typos, field
//! drops); unmatched pairs include hard negatives (same brand, different
//! model). A per-dataset `domain_specificity` encodes how alien the
//! vocabulary is to a general-purpose LLM — the mechanism the paper invokes
//! to explain UniDM trailing Ditto on Amazon-Google.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use unidm_tablestore::{Record, Schema, Value};
use unidm_text::distance::WordSet;
use unidm_world::World;

/// One candidate pair of records.
#[derive(Debug, Clone, PartialEq)]
pub struct EntityPair {
    /// Record from table A.
    pub a: Record,
    /// Record from table B.
    pub b: Record,
    /// Ground-truth label: do they denote the same real-world entity?
    pub is_match: bool,
}

/// An entity-resolution benchmark.
#[derive(Debug, Clone)]
pub struct MatchingDataset {
    /// Dataset name (e.g. "Walmart-Amazon").
    pub name: String,
    /// Shared schema of both record sides.
    pub schema: Schema,
    /// Evaluation pairs.
    pub pairs: Vec<EntityPair>,
    /// Training pairs (for Ditto / Magellan / fine-tuning).
    pub train: Vec<EntityPair>,
    /// In `[0, 1]`: how much of the vocabulary is domain-specific jargon a
    /// general LLM would not know. Drives the simulated LLM's error rate.
    pub domain_specificity: f64,
}

impl MatchingDataset {
    /// Number of evaluation pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True if there are no evaluation pairs.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// Fraction of evaluation pairs labelled as matches.
    pub fn positive_rate(&self) -> f64 {
        if self.pairs.is_empty() {
            return 0.0;
        }
        self.pairs.iter().filter(|p| p.is_match).count() as f64 / self.pairs.len() as f64
    }
}

/// Perturbation intensity knobs per dataset.
#[derive(Debug, Clone, Copy)]
struct Hardness {
    /// Probability of abbreviating the leading brand/artist token.
    abbreviate: f64,
    /// Probability of dropping a non-key field to null.
    drop_field: f64,
    /// Probability of injecting a character typo into the name.
    typo: f64,
    /// Relative price/number jitter.
    jitter: f64,
    /// Probability of dropping model-code-like tokens from text fields —
    /// the "title soup" that makes Amazon-Google hard.
    drop_code: f64,
    /// Probability that a negative pair is adversarial (most-similar
    /// same-brand record) rather than a random one.
    hard_negative: f64,
    /// Per-token dropout on the title beyond its first token — the
    /// free-text rewording that makes Amazon-Google titles so noisy.
    word_dropout: f64,
}

/// Builds the Beer ER benchmark (small and easy; FM-manual reaches 100 F1).
pub fn beer(world: &World, seed: u64) -> MatchingDataset {
    let schema = Schema::from_names(["name", "brewery", "style", "abv"]).expect("unique");
    let recs: Vec<Record> = world
        .beer
        .beers
        .iter()
        .map(|b| {
            Record::new(vec![
                Value::text(&b.name),
                Value::text(&b.brewery),
                Value::text(&b.style),
                Value::Float(b.abv),
            ])
        })
        .collect();
    build(
        "Beer",
        schema,
        recs,
        seed,
        90,
        30,
        Hardness {
            abbreviate: 0.1,
            drop_field: 0.1,
            typo: 0.1,
            jitter: 0.02,
            drop_code: 0.0,
            hard_negative: 0.1,
            word_dropout: 0.0,
        },
        0.05,
    )
}

/// Builds the Amazon-Google software benchmark (hard: heavy abbreviation,
/// version soup, jargon-dense names).
pub fn amazon_google(world: &World, seed: u64) -> MatchingDataset {
    let schema = Schema::from_names(["title", "manufacturer", "price"]).expect("unique");
    let recs: Vec<Record> = world
        .products
        .products
        .iter()
        .filter(|p| p.category == "software" || p.price < 300.0)
        .map(|p| {
            let m = world.products.manufacturer_of(p);
            Record::new(vec![
                Value::text(&p.name),
                Value::text(&m.name),
                Value::Float(p.price),
            ])
        })
        .collect();
    build(
        "Amazon-Google",
        schema,
        recs,
        seed,
        200,
        120,
        Hardness {
            abbreviate: 0.55,
            drop_field: 0.35,
            typo: 0.25,
            jitter: 0.35,
            drop_code: 0.45,
            hard_negative: 0.7,
            word_dropout: 0.35,
        },
        0.55,
    )
}

/// Builds the iTunes-Amazon song benchmark (moderately easy).
pub fn itunes_amazon(world: &World, seed: u64) -> MatchingDataset {
    let schema = Schema::from_names(["song", "artist", "album", "time", "price"]).expect("unique");
    let recs: Vec<Record> = world
        .music
        .songs
        .iter()
        .map(|s| {
            let a = world.music.artist_of(s);
            Record::new(vec![
                Value::text(&s.title),
                Value::text(&a.name),
                Value::text(&s.album),
                Value::text(format!("{}:{:02}", s.seconds / 60, s.seconds % 60)),
                Value::Float(s.price),
            ])
        })
        .collect();
    build(
        "iTunes-Amazon",
        schema,
        recs,
        seed,
        150,
        60,
        Hardness {
            abbreviate: 0.15,
            drop_field: 0.15,
            typo: 0.1,
            jitter: 0.05,
            drop_code: 0.0,
            hard_negative: 0.4,
            word_dropout: 0.0,
        },
        0.1,
    )
}

/// Builds the Walmart-Amazon electronics benchmark (medium; ships the large
/// training split the paper fine-tunes on — 6144 tuples in the original).
pub fn walmart_amazon(world: &World, seed: u64) -> MatchingDataset {
    let schema = Schema::from_names(["title", "brand", "modelno", "price"]).expect("unique");
    let recs: Vec<Record> = world
        .products
        .products
        .iter()
        .map(|p| {
            let m = world.products.manufacturer_of(p);
            Record::new(vec![
                Value::text(&p.name),
                Value::text(&m.brand),
                Value::text(&p.model_code),
                Value::Float(p.price),
            ])
        })
        .collect();
    build(
        "Walmart-Amazon",
        schema,
        recs,
        seed,
        250,
        768,
        Hardness {
            abbreviate: 0.3,
            drop_field: 0.25,
            typo: 0.15,
            jitter: 0.15,
            drop_code: 0.2,
            hard_negative: 0.55,
            word_dropout: 0.1,
        },
        0.3,
    )
}

#[allow(clippy::too_many_arguments)]
fn build(
    name: &str,
    schema: Schema,
    records: Vec<Record>,
    seed: u64,
    n_eval: usize,
    n_train: usize,
    hardness: Hardness,
    domain_specificity: f64,
) -> MatchingDataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let total = n_eval + n_train;
    let firsts: Vec<String> = records.iter().map(first_token).collect();
    let mut pairs = Vec::with_capacity(total);
    for i in 0..total {
        // Keep roughly 40% positives: candidate-pair sets in Magellan
        // benchmarks are blocked, so positives are not rare.
        let positive = i % 5 < 2;
        let idx = rng.gen_range(0..records.len());
        let a = records[idx].clone();
        let (b, is_match) = if positive {
            (perturb(&mut rng, &a, hardness), true)
        } else {
            // Hard negative: prefer the *most similar* different record
            // sharing the first token (same brand / same artist, and when
            // possible the same product line) — the adversarial candidates
            // blocking produces in the real Magellan benchmarks.
            let first = &firsts[idx];
            let anchor = WordSet::new(&a.text_blob());
            let hard: Option<usize> = records
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != idx && firsts[j] == *first)
                .map(|(j, r)| (j, anchor.jaccard(&WordSet::new(&r.text_blob()))))
                .max_by(|(_, sx), (_, sy)| sx.partial_cmp(sy).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(j, _)| j);
            let j = match hard {
                Some(j) if rng.gen_bool(hardness.hard_negative) => j,
                _ => loop {
                    let j = rng.gen_range(0..records.len());
                    if j != idx {
                        break j;
                    }
                },
            };
            (perturb(&mut rng, &records[j], hardness), false)
        };
        pairs.push(EntityPair { a, b, is_match });
    }
    let train = pairs.split_off(n_eval);
    MatchingDataset {
        name: name.to_string(),
        schema,
        pairs,
        train,
        domain_specificity,
    }
}

fn first_token(r: &Record) -> String {
    r.values()
        .first()
        .map(|v| {
            v.to_string()
                .split_whitespace()
                .next()
                .unwrap_or("")
                .to_lowercase()
        })
        .unwrap_or_default()
}

/// Produces the "other catalogue's" version of a record.
fn perturb<R: Rng>(rng: &mut R, rec: &Record, h: Hardness) -> Record {
    let mut values: Vec<Value> = rec.values().to_vec();
    for (i, v) in values.iter_mut().enumerate() {
        match v {
            Value::Text(s) => {
                let mut out = s.clone();
                if i == 0 && rng.gen_bool(h.abbreviate) {
                    out = abbreviate(&out);
                }
                if h.drop_code > 0.0 && rng.gen_bool(h.drop_code) {
                    out = drop_model_codes(&out);
                }
                if i == 0 && h.word_dropout > 0.0 {
                    let kept: Vec<&str> = out
                        .split_whitespace()
                        .enumerate()
                        .filter(|(j, _)| *j == 0 || !rng.gen_bool(h.word_dropout))
                        .map(|(_, w)| w)
                        .collect();
                    if !kept.is_empty() {
                        out = kept.join(" ");
                    }
                }
                if rng.gen_bool(h.typo) {
                    out = unidm_world::names::typo(rng, &out);
                }
                if i > 0 && rng.gen_bool(h.drop_field) {
                    *v = Value::Null;
                    continue;
                }
                *v = Value::Text(out);
            }
            Value::Float(x) if h.jitter > 0.0 => {
                let f = 1.0 + rng.gen_range(-h.jitter..h.jitter);
                *v = Value::Float((*x * f * 100.0).round() / 100.0);
            }
            _ => {}
        }
    }
    Record::new(values)
}

/// Abbreviates the first word to its initial ("Punch Software X" → "P. Software X")
/// and shuffles word order slightly — the classic catalogue mangling.
/// Removes model-code-like tokens (alphanumeric with digits) from a text.
fn drop_model_codes(s: &str) -> String {
    let kept: Vec<&str> = s
        .split_whitespace()
        .filter(|w| {
            !(w.chars().any(|c| c.is_ascii_digit()) && w.chars().any(|c| c.is_alphabetic()))
        })
        .collect();
    if kept.is_empty() {
        s.to_string()
    } else {
        kept.join(" ")
    }
}

fn abbreviate(s: &str) -> String {
    let words: Vec<&str> = s.split_whitespace().collect();
    if words.len() < 2 {
        return s.to_string();
    }
    let mut out: Vec<String> = Vec::with_capacity(words.len());
    let first_initial = words[0]
        .chars()
        .next()
        .map(|c| format!("{c}."))
        .unwrap_or_default();
    out.push(first_initial);
    for w in &words[1..] {
        out.push((*w).to_string());
    }
    out.join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(7)
    }

    #[test]
    fn all_datasets_build() {
        let w = world();
        for ds in [
            beer(&w, 1),
            amazon_google(&w, 1),
            itunes_amazon(&w, 1),
            walmart_amazon(&w, 1),
        ] {
            assert!(!ds.is_empty());
            assert!(ds.positive_rate() > 0.25 && ds.positive_rate() < 0.55);
            for p in &ds.pairs {
                assert_eq!(p.a.len(), ds.schema.len());
                assert_eq!(p.b.len(), ds.schema.len());
            }
        }
    }

    #[test]
    fn walmart_has_large_train_split() {
        let ds = walmart_amazon(&world(), 1);
        assert!(ds.train.len() >= 500);
    }

    #[test]
    fn hardness_ordering() {
        // Positive pairs in Amazon-Google should be lexically farther apart
        // than in Beer.
        let w = world();
        let avg_sim = |ds: &MatchingDataset| {
            let mut s = 0.0;
            let mut n = 0;
            for p in &ds.pairs {
                if p.is_match {
                    s += unidm_text::distance::jaccard(&p.a.text_blob(), &p.b.text_blob());
                    n += 1;
                }
            }
            s / f64::from(n.max(1))
        };
        let easy = avg_sim(&beer(&w, 2));
        let hard = avg_sim(&amazon_google(&w, 2));
        assert!(easy > hard, "beer {easy} vs amazon-google {hard}");
    }

    #[test]
    fn deterministic() {
        let w = world();
        let a = itunes_amazon(&w, 5);
        let b = itunes_amazon(&w, 5);
        assert_eq!(a.pairs.len(), b.pairs.len());
        assert_eq!(a.pairs[0], b.pairs[0]);
    }

    #[test]
    fn abbreviate_shapes() {
        assert_eq!(abbreviate("Punch Software Suite"), "P. Software Suite");
        assert_eq!(abbreviate("Single"), "Single");
    }

    #[test]
    fn negatives_include_same_brand() {
        let ds = walmart_amazon(&world(), 3);
        let hard_negs = ds
            .pairs
            .iter()
            .filter(|p| {
                !p.is_match
                    && first_token(&p.a) == first_token(&p.b)
                    && !first_token(&p.a).is_empty()
            })
            .count();
        assert!(hard_negs > 0, "hard negatives expected");
    }
}
