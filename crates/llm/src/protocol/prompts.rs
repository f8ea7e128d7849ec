//! The pipeline prompts: `p_rm`, `p_ri`, `p_dp`, `p_cq`.

use std::fmt::Write as _;

use super::record::SerializedRecord;
use super::{bracketed_after, TaskKind};

/// A parsed meta-wise retrieval request (`p_rm`).
#[derive(Debug, Clone, PartialEq)]
pub struct PrmRequest {
    /// The task.
    pub task: TaskKind,
    /// The target query.
    pub query: String,
    /// The candidate attribute names.
    pub candidates: Vec<String>,
}

/// Renders `p_rm` (paper §4.2):
///
/// > The task is \[T\]. The target query is \[Q\]. The candidate attributes
/// > are \[s1, s2, ..., sn\]. Which attributes are helpful for the task and
/// > the query?
pub fn render_prm(task: TaskKind, query: &str, candidates: &[String]) -> String {
    format!(
        "The task is [{}]. The target query is [{}]. The candidate attributes are [{}]. \
         Which attributes are helpful for the task and the query?",
        task.description(),
        query,
        candidates.join(", ")
    )
}

/// Parses a `p_rm` prompt.
pub fn parse_prm(prompt: &str) -> Option<PrmRequest> {
    if !prompt.contains("Which attributes are helpful") {
        return None;
    }
    let task = TaskKind::from_description(bracketed_after(prompt, "The task is")?)?;
    let query = bracketed_after(prompt, "The target query is")?.to_string();
    let candidates = bracketed_after(prompt, "The candidate attributes are")?
        .split(", ")
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    Some(PrmRequest {
        task,
        query,
        candidates,
    })
}

/// A parsed instance-wise retrieval request (`p_ri`).
#[derive(Debug, Clone, PartialEq)]
pub struct PriRequest {
    /// The task.
    pub task: TaskKind,
    /// The target query.
    pub query: String,
    /// The candidate instances, projected on the task-relevant attributes.
    pub instances: Vec<SerializedRecord>,
}

/// Renders `p_ri` (paper §4.2): the relevance-scoring prompt over numbered
/// candidate instances.
pub fn render_pri(task: TaskKind, query: &str, instances: &[SerializedRecord]) -> String {
    // Every instance goes into one scratch buffer; the lines are its slices.
    let mut scratch = String::new();
    let mut ends = Vec::with_capacity(instances.len());
    for inst in instances {
        inst.render_into(&mut scratch);
        ends.push(scratch.len());
    }
    let lines = ends.iter().scan(0, |start, &end| {
        let line = &scratch[*start..end];
        *start = end;
        Some(line)
    });
    render_pri_lines(task, query, lines)
}

/// [`render_pri`] over instances that are already rendered
/// ([`SerializedRecord::render`]), spliced into one pre-sized buffer.
pub fn render_pri_lines<'a, I>(task: TaskKind, query: &str, lines: I) -> String
where
    I: IntoIterator<Item = &'a str>,
    I::IntoIter: Clone,
{
    const HEAD: &str = "The task is [";
    const MID: &str = "]. The target query is [";
    const TAIL: &str = "]. Score the relevance (range from 0 to 3) of the given instances \
                        based on the task and the query:";
    let lines = lines.into_iter();
    let task = task.description();
    // "\n<number>. " is at most 8 bytes for any realistic candidate count.
    let body: usize = lines.clone().map(|line| line.len() + 8).sum();
    let mut out = String::with_capacity(
        HEAD.len() + task.len() + MID.len() + query.len() + TAIL.len() + body,
    );
    out.extend([HEAD, task, MID, query, TAIL]);
    for (i, line) in lines.enumerate() {
        let _ = write!(out, "\n{}. ", i + 1);
        out.push_str(line);
    }
    out
}

/// Parses a `p_ri` prompt.
pub fn parse_pri(prompt: &str) -> Option<PriRequest> {
    if !prompt.contains("Score the relevance") {
        return None;
    }
    let task = TaskKind::from_description(bracketed_after(prompt, "The task is")?)?;
    let query = bracketed_after(prompt, "The target query is")?.to_string();
    let mut instances = Vec::new();
    for line in prompt.lines().skip(1) {
        let Some((_num, rest)) = line.split_once(". ") else {
            continue;
        };
        if let Some(rec) = SerializedRecord::parse(rest) {
            instances.push(rec);
        }
    }
    Some(PriRequest {
        task,
        query,
        instances,
    })
}

/// Parses the `p_ri` *response*: `"1:3, 2:0, ..."` → 0-based `(index, score)`.
///
/// An entry is `index:score` between commas, blanks allowed around either
/// number and a leading `+` on it; scores clamp to 3. Entries that are not
/// that — no colon, no digits, index 0, a number out of range — are skipped.
pub fn parse_pri_response(text: &str) -> Vec<(usize, u8)> {
    // Sized for the reply the model is asked for, `"1:3, 2:0, ..."`: five
    // bytes an entry or more.
    let mut out = Vec::with_capacity(text.len() / 5 + 1);
    // From the start of the entry being read to the end of the text.
    let mut rest = text.as_bytes();
    loop {
        let (entry, after) = match scan_pri_entry(rest) {
            Some((entry, after)) => (Some(entry), after),
            None => {
                // Only Unicode blanks make an entry the byte scan refuses
                // readable: those go the long way round, `trim` and `parse`.
                let start = text.len() - rest.len();
                let len = rest.iter().position(|&b| b == b',').unwrap_or(rest.len());
                let chunk = &text[start..start + len];
                let entry = if chunk.is_ascii() {
                    None
                } else {
                    chunk.trim().split_once(':').and_then(|(index, score)| {
                        Some((index.trim().parse().ok()?, score.trim().parse().ok()?))
                    })
                };
                (entry, &rest[len..])
            }
        };
        if let Some((index @ 1.., score)) = entry {
            out.push((index - 1, u8::min(score, 3)));
        }
        match after {
            [_comma, next @ ..] => rest = next,
            [] => return out,
        }
    }
}

/// Scans one ASCII `index:score` entry off the front of `bytes`, up to the
/// comma that ends it or the end of the text; returns the entry and the
/// bytes from there on. `None` for anything else.
fn scan_pri_entry(bytes: &[u8]) -> Option<((usize, u8), &[u8])> {
    let (index, bytes) = scan_number(bytes)?;
    let [b':', bytes @ ..] = bytes else {
        return None;
    };
    let (score, bytes) = scan_number(bytes)?;
    let score = u8::try_from(score).ok()?;
    matches!(bytes, [] | [b',', ..]).then_some(((index, score), bytes))
}

/// Scans `blank* [+] digit+ blank*` off the front of `bytes`, reading ASCII
/// as `str::trim` and `usize::from_str` do: `None` without a digit or past
/// `usize::MAX`.
fn scan_number(bytes: &[u8]) -> Option<(usize, &[u8])> {
    fn skip_blanks(mut bytes: &[u8]) -> &[u8] {
        while let [b'\t'..=b'\r' | b' ', rest @ ..] = bytes {
            bytes = rest;
        }
        bytes
    }
    let mut bytes = skip_blanks(bytes);
    if let [b'+', rest @ ..] = bytes {
        bytes = rest;
    }
    let [b'0'..=b'9', ..] = bytes else {
        return None;
    };
    let mut value = 0usize;
    while let [digit @ b'0'..=b'9', rest @ ..] = bytes {
        value = value
            .checked_mul(10)?
            .checked_add(usize::from(digit - b'0'))?;
        bytes = rest;
    }
    Some((value, skip_blanks(bytes)))
}

/// A parsed context-data-parsing request (`p_dp`).
#[derive(Debug, Clone, PartialEq)]
pub struct PdpRequest {
    /// The serialized records to naturalize.
    pub records: Vec<SerializedRecord>,
}

/// Renders `p_dp` (paper §4.3):
///
/// > Given the data, convert the items into a textual format that
/// > encompasses all relevant information in a logical order: \[V\]
pub fn render_pdp(records: &[SerializedRecord]) -> String {
    let lines: Vec<String> = records.iter().map(SerializedRecord::render).collect();
    render_pdp_lines(lines.iter().map(String::as_str))
}

/// [`render_pdp`] over records that are already rendered
/// ([`SerializedRecord::render`]), spliced into one pre-sized buffer. A
/// record without a non-empty value is an empty line, as in `render_pdp`.
pub fn render_pdp_lines<'a, I>(lines: I) -> String
where
    I: IntoIterator<Item = &'a str>,
    I::IntoIter: Clone,
{
    const HEAD: &str = "Given the data, convert the items into a textual format that \
                        encompasses all relevant information in a logical order: [";
    let lines = lines.into_iter();
    let body: usize = lines.clone().map(|line| line.len() + 1).sum();
    let mut out = String::with_capacity(HEAD.len() + body + 1);
    out.push_str(HEAD);
    for (i, line) in lines.enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(line);
    }
    out.push(']');
    out
}

/// Parses a `p_dp` prompt.
pub fn parse_pdp(prompt: &str) -> Option<PdpRequest> {
    if !prompt.contains("convert the items into a textual format") {
        return None;
    }
    let body = bracketed_after(prompt, "logical order:")?;
    let records = body
        .lines()
        .filter_map(SerializedRecord::parse)
        .collect::<Vec<_>>();
    Some(PdpRequest { records })
}

/// The claim fed to the cloze-question generator: task, parsed context, and
/// target query.
#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    /// The task.
    pub task: TaskKind,
    /// Parsed context `C'` (natural text, possibly multi-line).
    pub context: String,
    /// The target query `Q`.
    pub query: String,
}

/// The in-context demonstrations of `p_cq` (paper appendix A), shared by
/// every render so the prompt cost is realistic.
const PCQ_DEMONSTRATIONS: &str = "\
Claim: The task is [data imputation]. The context is [Wenham, Marysville, and Westmont are \
cities in the United States, identified by the ISO3 code USA]. The target query is [city: New \
Cassel; iso3: USA; country: ?].
Cloze question: Wenham, Marysville, and Westmont are cities in the United States, identified \
by the ISO3 code USA. New Cassel belongs to the country __.
Claim: The task is [data transformation]. The context is [data before transformation: 20000101 \
data after transformation: 2000-01-01]. The target query is [19990415: ?].
Cloze question: 20000101 can be transformed to 2000-01-01, and 19990415 can be transformed \
to __.
Claim: The task is [error detection]. The context is [the address of 2505 u s highway 431 \
north is not an error, the county name of mxrshxll is an error]. The target query is [city: \
sheffxeld?].
Cloze question: The address 2505 u s highway 431 north has no error, whereas the county name \
mxrshxll contains an error. Is there an error in the city sheffxeld? Yes or No: __.
Claim: The task is [entity resolution]. The context is [A is the Punch! Home Design \
Architectural Series 4000 v10, priced at $199.99. B is the Punch Software 41100 Punch! Home \
Design Architectural Series 18, priced at $18.99]. The target query is [are A and B the \
same?].
Cloze question: Entity A is the Punch! Home Design Architectural Series 4000 v10 priced at \
$199.99. Entity B is the Punch Software 41100 Punch! Home Design Architectural Series 18 \
priced at $18.99. Are entity A and entity B the same? Yes or No: __.";

/// Renders `p_cq` (paper §4.4): demonstrations plus the claim to rewrite.
pub fn render_pcq(claim: &Claim) -> String {
    format!(
        "Write the claim as a cloze question.\n{demos}\nClaim: The task is [{task}]. The \
         context is [{context}]. The target query is [{query}].\nCloze question:",
        demos = PCQ_DEMONSTRATIONS,
        task = claim.task.description(),
        context = claim.context,
        query = claim.query,
    )
}

/// Parses a `p_cq` prompt back into the final claim (ignoring the
/// demonstrations, which are fixed).
pub fn parse_pcq(prompt: &str) -> Option<Claim> {
    if !prompt.starts_with("Write the claim as a cloze question.") {
        return None;
    }
    // The final claim follows the last "Claim:" marker.
    let last = prompt.rfind("Claim:")?;
    let tail = &prompt[last..];
    let task = TaskKind::from_description(bracketed_after(tail, "The task is")?)?;
    let context = bracketed_after(tail, "The context is")?.to_string();
    let query = bracketed_after(tail, "The target query is")?.to_string();
    Some(Claim {
        task,
        context,
        query,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn prm_roundtrip() {
        let p = render_prm(
            TaskKind::Imputation,
            "Copenhagen, timezone",
            &["country".into(), "population".into(), "postalcode".into()],
        );
        let req = parse_prm(&p).unwrap();
        assert_eq!(req.task, TaskKind::Imputation);
        assert_eq!(req.query, "Copenhagen, timezone");
        assert_eq!(req.candidates, vec!["country", "population", "postalcode"]);
    }

    #[test]
    fn pri_roundtrip() {
        let p = render_pri(TaskKind::Imputation, "Copenhagen, timezone", &recs());
        let req = parse_pri(&p).unwrap();
        assert_eq!(req.instances.len(), 2);
        assert_eq!(req.instances[1].get("city"), Some("Florence"));
    }

    #[test]
    fn pri_text_is_pinned_and_lines_variant_agrees() {
        let p = render_pri(TaskKind::Imputation, "Copenhagen, timezone", &recs());
        assert_eq!(
            p,
            "The task is [data imputation]. The target query is [Copenhagen, timezone]. Score \
             the relevance (range from 0 to 3) of the given instances based on the task and the \
             query:\n1. city: Alicante; country: Spain\n2. city: Florence; country: Italy"
        );
        let lines: Vec<String> = recs().iter().map(SerializedRecord::render).collect();
        let spliced = render_pri_lines(
            TaskKind::Imputation,
            "Copenhagen, timezone",
            lines.iter().map(String::as_str),
        );
        assert_eq!(spliced, p);
        assert!(
            spliced.capacity() <= p.len() + 8 * lines.len(),
            "one pre-sized buffer, never regrown"
        );
    }

    #[test]
    fn pri_response_parsing() {
        let scores = parse_pri_response("1:3, 2:0, 3:2");
        assert_eq!(scores, vec![(0, 3), (1, 0), (2, 2)]);
        assert_eq!(parse_pri_response("garbage"), vec![]);
        // Scores clamp to 3; indices below 1 are dropped.
        assert_eq!(parse_pri_response("1:9, 0:2"), vec![(0, 3)]);
    }

    #[test]
    fn pdp_roundtrip() {
        let p = render_pdp(&recs());
        let req = parse_pdp(&p).unwrap();
        assert_eq!(req.records, recs());
    }

    #[test]
    fn pcq_roundtrip() {
        let claim = Claim {
            task: TaskKind::Imputation,
            context: "Florence belongs to the country Italy.".to_string(),
            query: "city: Copenhagen; country: Denmark; timezone: ?".to_string(),
        };
        let p = render_pcq(&claim);
        assert!(p.contains("Punch! Home Design"), "demonstrations included");
        let back = parse_pcq(&p).unwrap();
        assert_eq!(back, claim);
    }

    #[test]
    fn parsers_reject_other_prompts() {
        assert!(parse_prm("hello").is_none());
        assert!(parse_pri("hello").is_none());
        assert!(parse_pdp("hello").is_none());
        assert!(parse_pcq("hello").is_none());
    }

    #[test]
    fn pcq_final_claim_wins_over_demos() {
        let claim = Claim {
            task: TaskKind::ErrorDetection,
            context: "ctx".to_string(),
            query: "city: sheffxeld?".to_string(),
        };
        let back = parse_pcq(&render_pcq(&claim)).unwrap();
        assert_eq!(back.task, TaskKind::ErrorDetection);
    }
}
