//! Record serialization and naturalization.
//!
//! `serialize()` (paper §4.3) turns a tabular record into `attr: value`
//! pairs; context data parsing turns those pairs into fluent text. Both
//! directions live here so the pipeline (rendering) and the simulated model
//! (parsing) agree on the grammar.

use std::fmt::{self, Write};

use unidm_text::format::formatted_len;

/// A record serialized as ordered `attr: value` pairs.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct SerializedRecord {
    /// Ordered (attribute, value) pairs; nulls are omitted at render time.
    pub pairs: Vec<(String, String)>,
}

impl SerializedRecord {
    /// Creates a serialized record from pairs.
    pub fn new(pairs: Vec<(String, String)>) -> Self {
        SerializedRecord { pairs }
    }

    /// The value of `attr`, if present and non-empty.
    pub fn get(&self, attr: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(attr))
            .map(|(_, v)| v.as_str())
            .filter(|v| !v.is_empty())
    }

    /// The subject of the record: the first non-empty value.
    pub fn subject(&self) -> Option<&str> {
        self.pairs
            .iter()
            .map(|(_, v)| v.as_str())
            .find(|v| !v.is_empty())
    }

    /// Renders as `attr: value; attr: value` (empty values skipped).
    ///
    /// The `; ` separator (rather than the paper's `, `) keeps values that
    /// contain commas unambiguous; an LLM is indifferent, a parser is not.
    pub fn render(&self) -> String {
        render_pairs(self.borrowed(), None)
    }

    /// Appends [`SerializedRecord::render`]'s text to `out`.
    pub fn render_into(&self, out: &mut String) {
        render_pairs_into(self.borrowed(), None, out);
    }

    /// The pairs, borrowed.
    pub(crate) fn borrowed(&self) -> impl Iterator<Item = (&str, &str)> + Clone {
        self.pairs.iter().map(|(a, v)| (a.as_str(), v.as_str()))
    }

    /// Parses a `attr: value; attr: value` line.
    ///
    /// Returns `None` when no pair can be extracted.
    pub fn parse(line: &str) -> Option<SerializedRecord> {
        let mut pairs = Vec::new();
        let read = read_pairs(line, |attr, value, _| {
            pairs.push((attr.to_string(), value.to_string()));
        });
        read.then_some(SerializedRecord { pairs })
    }
}

/// The one pair formatter: `attr: value; attr: value` over borrowed
/// pairs, a pair whose value displays as nothing skipped, then `ask: ?`
/// when `ask` is given (an imputation query, see
/// [`claim_query_imputation`](super::claim_query_imputation)). A value need
/// only display, so a table cell is written where it lies instead of
/// becoming a `String` first. The text is measured before it is written:
/// one allocation, exactly sized.
///
/// ```
/// use unidm_llm::protocol::{render_pairs, SerializedRecord};
///
/// let cells = [("name", "Cork"), ("note", ""), ("pop", "210853")];
/// assert_eq!(render_pairs(cells.into_iter(), None), "name: Cork; pop: 210853");
/// assert_eq!(render_pairs([("pop", 210853)].into_iter(), Some("country")), "pop: 210853; country: ?");
/// let record = SerializedRecord::new(vec![("name".into(), "Cork".into())]);
/// assert_eq!(record.render(), "name: Cork");
/// ```
pub fn render_pairs<'a, V: fmt::Display>(
    pairs: impl Iterator<Item = (&'a str, V)> + Clone,
    ask: Option<&str>,
) -> String {
    let shown = pairs.clone().map(
        |(attr, value)| match formatted_len(format_args!("{value}")) {
            0 => 0,
            n => attr.len() + n + 4,
        },
    );
    // Each shown pair counts the separator after it, which the last one
    // takes only before an ask.
    let body = shown.sum::<usize>();
    let mut out = String::with_capacity(ask.map_or(body.saturating_sub(2), |a| body + a.len() + 3));
    render_pairs_into(pairs, ask, &mut out);
    out
}

/// Appends [`render_pairs`]'s text to `out`.
pub(crate) fn render_pairs_into<'a, V: fmt::Display>(
    pairs: impl Iterator<Item = (&'a str, V)>,
    ask: Option<&str>,
    out: &mut String,
) {
    let start = out.len();
    for (attr, value) in pairs {
        if formatted_len(format_args!("{value}")) == 0 {
            continue;
        }
        if out.len() > start {
            out.push_str("; ");
        }
        out.push_str(attr);
        out.push_str(": ");
        // Writing into a `String` cannot fail.
        let _ = write!(out, "{value}");
    }
    if let Some(attr) = ask {
        if out.len() > start {
            out.push_str("; ");
        }
        out.push_str(attr);
        out.push_str(": ?");
    }
}

/// Reads `attr: value; attr: value` lines where they stand: the pairs
/// [`SerializedRecord::parse`] would own, borrowed from the line and kept
/// in storage that the next line reuses.
///
/// The grammar is [`SerializedRecord::parse`]'s (both read through one
/// function): chunks split at `"; "`, each chunk split at its first `:`,
/// both sides trimmed, and no record when a chunk has no `:`. A line whose
/// every chunk already reads `attr: value` with nothing to trim and a
/// non-empty value is its own [`SerializedRecord::render`], so
/// [`RecordReader::rendered`] hands back the line itself and renders only
/// the others.
///
/// ```
/// use unidm_llm::protocol::{RecordReader, SerializedRecord};
///
/// let line = "city: Florence; country : Italy";
/// let mut reader = RecordReader::default();
/// assert!(reader.read(line));
/// assert_eq!(reader.get("COUNTRY"), Some("Italy"));
/// let mut scratch = String::new();
/// let rendered = reader.rendered(&mut scratch);
/// assert_eq!(rendered, SerializedRecord::parse(line).unwrap().render());
/// assert!(!reader.read("no pairs here"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecordReader<'a> {
    line: &'a str,
    pairs: Vec<(&'a str, &'a str)>,
    canonical: bool,
}

impl<'a> RecordReader<'a> {
    /// Reads `line`, in one pass, in place of the line read before; false
    /// (and no pairs) exactly when [`SerializedRecord::parse`] is `None`.
    pub fn read(&mut self, line: &'a str) -> bool {
        self.line = line;
        self.pairs.clear();
        self.canonical = true;
        let (pairs, canonical) = (&mut self.pairs, &mut self.canonical);
        let read = read_pairs(line, |attr, value, verbatim| {
            pairs.push((attr, value));
            *canonical &= verbatim;
        });
        if !read {
            self.pairs.clear();
        }
        read
    }

    /// The trimmed `(attribute, value)` pairs in order, blank values
    /// included, as [`SerializedRecord::parse`] would hold them.
    pub fn pairs(&self) -> &[(&'a str, &'a str)] {
        &self.pairs
    }

    /// [`SerializedRecord::get`] over the line: the value of the first pair
    /// whose attribute is `attr` (ASCII case-insensitively), if non-empty.
    pub fn get(&self, attr: &str) -> Option<&'a str> {
        let (_, value) = self
            .pairs
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(attr))?;
        Some(*value).filter(|v| !v.is_empty())
    }

    /// The line's [`SerializedRecord::render`]: the line itself when it is
    /// canonical, else the render written into `scratch` (cleared first).
    pub fn rendered<'s>(&self, scratch: &'s mut String) -> &'s str
    where
        'a: 's,
    {
        if self.canonical {
            return self.line;
        }
        scratch.clear();
        render_pairs_into(self.pairs.iter().copied(), None, scratch);
        scratch
    }
}

/// The record grammar: hands each trimmed `(attribute, value)` pair of
/// `line` to `pair`, with whether the chunk was spelled as
/// [`SerializedRecord::render`] spells it, and returns false at the first
/// chunk without a `:` (the line is no record).
fn read_pairs<'a>(line: &'a str, mut pair: impl FnMut(&'a str, &'a str, bool)) -> bool {
    for chunk in line.split("; ") {
        let Some((raw_attr, raw_value)) = chunk.split_once(':') else {
            return false;
        };
        let (attr, value) = (raw_attr.trim(), raw_value.trim());
        // `attr: value`, verbatim: nothing trimmed off the attribute,
        // exactly one space before a value that is not blank.
        let verbatim = !value.is_empty()
            && attr.len() == raw_attr.len()
            && raw_value.len() == value.len() + 1
            && raw_value.starts_with(' ');
        pair(attr, value, verbatim);
    }
    true
}

/// Clause templates, keyed by an attribute-name keyword. Order matters:
/// first matching keyword wins.
const CLAUSES: &[(&str, &str)] = &[
    ("after", "can be transformed to"),
    ("country", "belongs to the country"),
    ("timezone", "is in the timezone"),
    ("city", "is located in the city of"),
    ("addr", "is located at"),
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

fn clause_for(attr: &str) -> Option<&'static str> {
    // Schema names are ASCII, which matches in place; anything else is
    // lowercased first because a few non-ASCII letters lowercase *to* ASCII.
    // Lowercasing every name instead put `mix_batch` `allocs_per_op` up
    // from 33.33 to 34.72 (+4.2 %).
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

/// Converts a serialized record into one fluent sentence — the context data
/// parsing step's target representation.
///
/// The first non-empty value becomes the sentence subject; each remaining
/// pair becomes a clause ("Florence belongs to the country Italy and is in
/// the timezone Central European Time").
pub fn naturalize_record(rec: &SerializedRecord) -> String {
    let mut out = String::with_capacity(128);
    naturalize_pairs_into(
        rec.pairs.iter().map(|(a, v)| (a.as_str(), v.as_str())),
        &mut out,
    );
    out
}

/// Appends [`naturalize_record`]'s sentence for the record made of `pairs`
/// to `out` (nothing for a record without a non-empty value).
pub(crate) fn naturalize_pairs_into<'a, I>(pairs: I, out: &mut String)
where
    I: Iterator<Item = (&'a str, &'a str)> + Clone,
{
    let Some(subject) = pairs.clone().map(|(_, v)| v).find(|v| !v.is_empty()) else {
        return;
    };
    out.push_str(subject);
    let mut subject_seen = false;
    let mut joiner = " ";
    for (attr, value) in pairs {
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
}

/// Where a naturalized sentence's subject ends: at the earliest
/// `" {template} "` or `" has "`, i.e. the first space followed by a clause
/// template and another space.
fn subject_end(text: &str) -> Option<usize> {
    let opens_clause = |rest: &str| {
        CLAUSES
            .iter()
            .map(|(_, template)| *template)
            .chain(["has"])
            .any(|t| {
                rest.strip_prefix(t)
                    .is_some_and(|after| after.starts_with(' '))
            })
    };
    text.match_indices(' ')
        .map(|(pos, _)| pos)
        .find(|&pos| opens_clause(&text[pos + 1..]))
}

/// Parses a sentence produced by [`naturalize_record`] back into pairs.
///
/// The subject is returned under the pseudo-attribute `"@subject"`; clause
/// attributes are recovered from their templates. Unknown clauses fall back
/// to the generic `has {attr} {value}` pattern.
pub fn parse_natural_sentence(sentence: &str) -> Option<SerializedRecord> {
    let text = sentence.trim().trim_end_matches('.');
    if text.is_empty() {
        return None;
    }
    let Some(split) = subject_end(text) else {
        return Some(SerializedRecord::new(vec![(
            "@subject".to_string(),
            text.to_string(),
        )]));
    };
    let subject = text[..split].trim().to_string();
    let mut pairs = vec![("@subject".to_string(), subject)];
    for clause in text[split..].split(" and ") {
        let clause = clause.trim();
        if clause.is_empty() {
            continue;
        }
        let mut matched = false;
        for (attr, template) in CLAUSES {
            if let Some(value) = clause.strip_prefix(template) {
                pairs.push(((*attr).to_string(), value.trim().to_string()));
                matched = true;
                break;
            }
        }
        if !matched {
            if let Some(rest) = clause.strip_prefix("has ") {
                if let Some((attr, value)) = rest.split_once(' ') {
                    pairs.push((attr.to_string(), value.trim().to_string()));
                }
            }
        }
    }
    Some(SerializedRecord::new(pairs))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city_record() -> SerializedRecord {
        SerializedRecord::new(vec![
            ("city".into(), "Florence".into()),
            ("country".into(), "Italy".into()),
            ("timezone".into(), "Central European Time".into()),
        ])
    }

    #[test]
    fn render_parse_roundtrip() {
        let r = city_record();
        let s = r.render();
        assert_eq!(
            s,
            "city: Florence; country: Italy; timezone: Central European Time"
        );
        assert_eq!(SerializedRecord::parse(&s), Some(r));
    }

    #[test]
    fn render_skips_empty() {
        let r = SerializedRecord::new(vec![("a".into(), "x".into()), ("b".into(), String::new())]);
        assert_eq!(r.render(), "a: x");
    }

    #[test]
    fn get_and_subject() {
        let r = city_record();
        assert_eq!(r.get("country"), Some("Italy"));
        assert_eq!(r.get("COUNTRY"), Some("Italy"));
        assert_eq!(r.get("nope"), None);
        assert_eq!(r.subject(), Some("Florence"));
    }

    #[test]
    fn naturalize_city() {
        let text = naturalize_record(&city_record());
        assert_eq!(
            text,
            "Florence belongs to the country Italy and is in the timezone Central European Time."
        );
    }

    #[test]
    fn naturalize_parse_roundtrip_values() {
        let r = city_record();
        let text = naturalize_record(&r);
        let back = parse_natural_sentence(&text).unwrap();
        assert_eq!(back.get("@subject"), Some("Florence"));
        assert_eq!(back.get("country"), Some("Italy"));
        assert_eq!(back.get("timezone"), Some("Central European Time"));
    }

    #[test]
    fn naturalize_restaurant_roundtrip() {
        let r = SerializedRecord::new(vec![
            ("name".into(), "Ruth's Chris Steak House".into()),
            ("addr".into(), "224 S. Beverly Dr.".into()),
            ("phone".into(), "310/859-8744".into()),
            ("type".into(), "steakhouses".into()),
        ]);
        let text = naturalize_record(&r);
        let back = parse_natural_sentence(&text).unwrap();
        assert_eq!(back.get("@subject"), Some("Ruth's Chris Steak House"));
        assert_eq!(back.get("addr"), Some("224 S. Beverly Dr."));
        assert_eq!(back.get("phone"), Some("310/859-8744"));
    }

    #[test]
    fn naturalize_generic_attr() {
        let r = SerializedRecord::new(vec![
            ("name".into(), "Widget".into()),
            ("color".into(), "blue".into()),
        ]);
        let text = naturalize_record(&r);
        assert!(text.contains("has color blue"));
        let back = parse_natural_sentence(&text).unwrap();
        assert_eq!(back.get("color"), Some("blue"));
    }

    /// `naturalize_record` as it was when every pair allocated a lowercased
    /// attribute name and a formatted clause: the oracle for the rewrite.
    fn naturalize_reference(rec: &SerializedRecord) -> String {
        let clause_for = |attr: &str| {
            let key = attr.to_lowercase();
            CLAUSES
                .iter()
                .find(|(k, _)| key.contains(k))
                .map(|(_, c)| *c)
        };
        let Some(subject) = rec.subject() else {
            return String::new();
        };
        let mut clauses = Vec::new();
        let mut subject_seen = false;
        for (attr, value) in &rec.pairs {
            if value.is_empty() {
                continue;
            }
            if !subject_seen && value == subject {
                subject_seen = true;
                continue;
            }
            clauses.push(
                clause_for(attr)
                    .map(|c| format!("{c} {value}"))
                    .unwrap_or_else(|| format!("has {attr} {value}")),
            );
        }
        if clauses.is_empty() {
            format!("{subject}.")
        } else {
            format!("{subject} {}.", clauses.join(" and "))
        }
    }

    #[test]
    fn naturalize_matches_reference_over_every_synthdata_schema() {
        use unidm_synthdata::{errors, extraction, imputation, joins, matching, tableqa};
        let world = unidm_world::World::generate(7);
        let mut names: Vec<String> = Vec::new();
        let mut schema = |s: &unidm_tablestore::Schema| names.extend(s.names().map(String::from));
        schema(imputation::restaurant_table(&world).schema());
        schema(imputation::buy_table(&world).schema());
        schema(errors::hospital(&world, 3, 0.05).table.schema());
        schema(errors::adult(&world, 3, 40, 0.05).table.schema());
        schema(tableqa::medals(&world, 3, 8, 2).table.schema());
        schema(&unidm_synthdata::ScaleSpec::schema());
        for ds in [
            matching::beer(&world, 3),
            matching::amazon_google(&world, 3),
            matching::itunes_amazon(&world, 3),
            matching::walmart_amazon(&world, 3),
        ] {
            schema(&ds.schema);
        }
        names.extend(extraction::nba_players(&world, 3).attrs);
        for pair in joins::nextiajd(&world, 3, 12).pairs {
            names.extend([pair.left_name, pair.right_name]);
        }
        // The pipeline's own pseudo-attributes, then spellings no schema
        // uses today: other cases, and letters that lowercase to ASCII.
        names.extend(["before", "after", "entities", "label"].map(String::from));
        let mut variants = names.clone();
        variants.extend(names.iter().map(|n| n.to_uppercase()));
        variants.extend(names.iter().map(|n| format!("Src_{n}_2")));
        variants.extend(["ran\u{212A}", "C\u{130}ty", "pri\u{e7}e", ""].map(String::from));
        assert!(variants.len() > 150, "{} names", variants.len());
        // The Kelvin sign lowercases to `k`: still the `rank` template.
        assert_eq!(clause_for("ran\u{212A}"), Some("is ranked"));

        let pairs_of = |attr: &String| (attr.clone(), format!("value of {attr}"));
        for attr in &variants {
            let rec = SerializedRecord::new(vec![
                ("name".to_string(), "Subject".to_string()),
                pairs_of(attr),
                ("gap".to_string(), String::new()),
            ]);
            assert_eq!(
                naturalize_record(&rec),
                naturalize_reference(&rec),
                "{attr}"
            );
        }
        let all = SerializedRecord::new(variants.iter().map(pairs_of).collect());
        assert_eq!(naturalize_record(&all), naturalize_reference(&all));
        let lone = SerializedRecord::new(vec![("name".to_string(), "Only".to_string())]);
        assert_eq!(naturalize_record(&lone), naturalize_reference(&lone));
    }

    /// [`subject_end`] as it was when every template was formatted into a
    /// `" {template} "` needle and searched for separately.
    fn subject_end_reference(text: &str) -> Option<usize> {
        let mut first: Option<usize> = None;
        for (_, template) in CLAUSES {
            if let Some(pos) = text.find(&format!(" {template} ")) {
                if first.is_none_or(|p| pos < p) {
                    first = Some(pos);
                }
            }
        }
        if let Some(pos) = text.find(" has ") {
            if first.is_none_or(|p| pos < p) {
                first = Some(pos);
            }
        }
        first
    }

    #[test]
    fn subject_end_matches_reference() {
        let mut sentences: Vec<String> = [
            "",
            "Copenhagen",
            "has color blue",
            "Widget has has color blue",
            "Widget  has color",
            "Widget has",
            "Widgethas color",
            "A is ranked",
            "A is ranked 3 and is located at 1 Main St",
            "İ has x and is located in the city of Ærø",
            "The is of style is of style IPA",
            "Alpha belongs to the country X has y",
        ]
        .map(String::from)
        .to_vec();
        let values = ["Florence", "has", "is ranked", "a b", "é"];
        for (i, (attr, _)) in CLAUSES.iter().enumerate() {
            let value = values[i % values.len()];
            let rec = SerializedRecord::new(vec![
                ("name".into(), format!("Subject {value}")),
                ((*attr).into(), value.into()),
                ("color".into(), value.into()),
            ]);
            let text = naturalize_record(&rec);
            sentences.push(text.trim_end_matches('.').to_string());
        }
        for text in &sentences {
            assert_eq!(subject_end(text), subject_end_reference(text), "{text:?}");
        }
    }

    #[test]
    fn naturalize_empty() {
        assert_eq!(naturalize_record(&SerializedRecord::default()), "");
        assert!(parse_natural_sentence("").is_none());
    }

    #[test]
    fn parse_subject_only_sentence() {
        let back = parse_natural_sentence("Copenhagen.").unwrap();
        assert_eq!(back.get("@subject"), Some("Copenhagen"));
        assert_eq!(back.pairs.len(), 1);
    }

    #[test]
    fn parse_record_line_rejects_garbage() {
        assert!(SerializedRecord::parse("no pairs here").is_none());
    }
}
