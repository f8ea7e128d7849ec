//! The pipeline prompts: `p_rm`, `p_ri`, `p_dp`, `p_cq`.

use unidm_text::format::push_decimal;

use super::record::{render_pairs_into, SerializedRecord};
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
    render_prm_names(task, query, candidates.iter().map(String::as_str))
}

/// [`render_prm`] over borrowed candidate names (a table's schema, say),
/// written into one buffer sized exactly in advance.
pub fn render_prm_names<'a, I>(task: TaskKind, query: &str, candidates: I) -> String
where
    I: IntoIterator<Item = &'a str>,
    I::IntoIter: Clone,
{
    const TAIL: &str = "]. Which attributes are helpful for the task and the query?";
    let head = [
        "The task is [",
        task.description(),
        "]. The target query is [",
        query,
        "]. The candidate attributes are [",
    ];
    let candidates = candidates.into_iter();
    let names = candidates.clone().map(|c| c.len() + 2).sum::<usize>();
    let head_len = head.iter().map(|p| p.len()).sum::<usize>();
    let mut out = String::with_capacity(head_len + names.saturating_sub(2) + TAIL.len());
    out.extend(head);
    for (i, name) in candidates.enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(name);
    }
    out.push_str(TAIL);
    out
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

/// Where `p_ri`'s instruction ends and its header begins.
const PRI_HEADER_AFTER: &str = "based on the task and the query:";

/// Renders `p_ri` (paper §4.2): the relevance-scoring prompt over numbered
/// candidate instances, in header form — unlike the paper's `attr: value`
/// pairs per instance, the attributes are named once, after the
/// instruction on the first line (`city | country`), in order of first
/// appearance, and each instance is one numbered row of its values
/// ([`pri_row`]), a missing value an empty field.
pub fn render_pri(task: TaskKind, query: &str, instances: &[SerializedRecord]) -> String {
    let mut header: Vec<&str> = Vec::new();
    for (attr, _) in instances.iter().flat_map(|inst| &inst.pairs) {
        if !header.contains(&attr.as_str()) {
            header.push(attr);
        }
    }
    // Every row goes into one scratch buffer; the rows are its slices.
    let mut scratch = String::new();
    let mut ends = Vec::with_capacity(instances.len());
    for inst in instances {
        let value = |name: &&str| inst.pairs.iter().find(|(a, _)| a == name);
        let fields = header.iter().map(|name| value(name).map_or("", |(_, v)| v));
        scratch.extend(pri_row(fields));
        ends.push(scratch.len());
    }
    let rows = ends.iter().scan(0, |start, &end| {
        let row = &scratch[*start..end];
        *start = end;
        Some(row)
    });
    render_pri_rows(task, query, header.iter().copied(), rows)
}

/// [`render_pri`] over candidates whose value rows are already written
/// ([`pri_row`]) under `header`, spliced into one exactly sized buffer.
pub fn render_pri_rows<'h, 'r, H, I>(task: TaskKind, query: &str, header: H, rows: I) -> String
where
    H: IntoIterator<Item = &'h str>,
    H::IntoIter: Clone,
    I: IntoIterator<Item = &'r str>,
    I::IntoIter: Clone,
{
    const HEAD: &str = "The task is [";
    const MID: &str = "]. The target query is [";
    const TAIL: &str = "]. Score the relevance (range from 0 to 3) of the given instances \
                        based on the task and the query:";
    let (header, rows) = (header.into_iter(), rows.into_iter());
    let task = task.description();
    // " a | b | c" after the instruction, "\n<number>. " before each row.
    let names = header.clone().map(|name| name.len() + 3).sum::<usize>();
    let numbered = rows.clone().enumerate();
    let body: usize = numbered
        .map(|(i, row)| (i + 1).ilog10() as usize + 4 + row.len())
        .sum();
    let head = HEAD.len() + task.len() + MID.len() + query.len() + TAIL.len();
    let mut out = String::with_capacity(head + names.saturating_sub(2) + body);
    out.extend([HEAD, task, MID, query, TAIL]);
    for (i, name) in header.enumerate() {
        out.push_str(if i == 0 { " " } else { " | " });
        out.push_str(name);
    }
    for (i, row) in rows.enumerate() {
        out.push('\n');
        push_decimal(&mut out, i + 1);
        out.push_str(". ");
        out.push_str(row);
    }
    out
}

/// The pieces of one `p_ri` value row, in order: the fields, ` | `
/// between two non-empty ones and a bare `|` beside an empty one (`A | B`,
/// `A || C`, `| B`, `A |`). A row of whitespace-normal fields is
/// whitespace-normal as written, so canonicalization borrows its prompt;
/// a reader splits it at `|` and trims each field ([`PriPrompt::fields`]).
pub fn pri_row<'a, I>(fields: I) -> impl Iterator<Item = &'a str> + Clone
where
    I: Iterator<Item = &'a str> + Clone,
{
    let mut before: Option<bool> = None;
    fields.flat_map(move |field| {
        let full = !field.is_empty();
        let separator = match (before, full) {
            (None, _) => "",
            (Some(true), true) => " | ",
            (Some(true), false) => " |",
            (Some(false), true) => "| ",
            (Some(false), false) => "|",
        };
        before = Some(full);
        [separator, field]
    })
}

/// A `p_ri` prompt read where it stands: the task, the query, the header
/// and the candidate rows, borrowed from the prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PriPrompt<'a> {
    /// The task.
    pub task: TaskKind,
    /// The target query.
    pub query: &'a str,
    /// The header's text: what follows the instruction on its line.
    header: &'a str,
    /// The lines after the header's.
    rows: &'a str,
}

impl<'a> PriPrompt<'a> {
    /// Reads a `p_ri` prompt: `None` unless it asks to score relevance
    /// and names a known task and a bracketed query. A prompt whose
    /// instruction line carries no header reads with an empty one.
    pub fn read(prompt: &'a str) -> Option<Self> {
        if !prompt.contains("Score the relevance") {
            return None;
        }
        let task = TaskKind::from_description(bracketed_after(prompt, "The task is")?)?;
        let query = bracketed_after(prompt, "The target query is")?;
        let query_end = query.as_ptr() as usize - prompt.as_ptr() as usize + query.len();
        let rest = &prompt[query_end..];
        let (first, rows) = rest.split_once('\n').unwrap_or((rest, ""));
        let header = (first.find(PRI_HEADER_AFTER))
            .map_or("", |at| first[at + PRI_HEADER_AFTER.len()..].trim());
        Some(PriPrompt {
            task,
            query,
            header,
            rows,
        })
    }

    /// The attribute names of the header, in order (none for a blank
    /// header).
    pub fn header(&self) -> impl Iterator<Item = &'a str> + Clone {
        let names = (!self.header.is_empty()).then_some(self.header);
        names.into_iter().flat_map(Self::fields)
    }

    /// The candidate rows in order: each line after the header's, past its
    /// first `". "`. A line without one takes no position.
    pub fn rows(&self) -> impl Iterator<Item = &'a str> {
        (self.rows.lines()).filter_map(|line| Some(line.split_once(". ")?.1))
    }

    /// The fields of a row (or of the header): its text split at `|`, each
    /// piece trimmed.
    pub fn fields(row: &str) -> impl Iterator<Item = &str> + Clone {
        row.split('|').map(str::trim)
    }

    /// Writes every row back into `out` as the `attr: value` line a record
    /// renders to ([`SerializedRecord::render`]), a line each, each ended
    /// by `\n`: the header's names beside the row's fields, in order, an
    /// empty field skipped. A field past the header is dropped, and a
    /// missing one is empty. Returns how many rows there were; `out` grows
    /// once at most.
    pub fn lines_into(&self, out: &mut String) -> usize {
        let names = self.header();
        let per_row = names.clone().map(|name| name.len() + 4).sum::<usize>() + 1;
        let (rows, bytes) = (self.rows()).fold((0, 0), |(n, b), row| (n + 1, b + row.len()));
        out.reserve(bytes + rows * per_row);
        for row in self.rows() {
            render_pairs_into(names.clone().zip(Self::fields(row)), None, out);
            out.push('\n');
        }
        rows
    }
}

/// Parses the `p_ri` *response*: `"1:3, 2:0, ..."` → 0-based `(index, score)`.
///
/// An entry is `index:score` between commas, blanks allowed around either
/// number and a leading `+` on it; scores clamp to 3. Entries that are not
/// that — no colon, no digits, index 0, a number out of range — are skipped.
pub fn parse_pri_response(text: &str) -> Vec<(usize, u8)> {
    // Sized for the reply the model is asked for, `"1:3, 2:0, ..."`: five
    // bytes an entry or more. A collected `Vec` grows by doubling and
    // raises `mix_batch`'s `allocs_per_op`.
    let mut out = Vec::with_capacity(text.len() / 5 + 1);
    for chunk in text.split(',') {
        let Some((index, score)) = chunk.split_once(':') else {
            continue;
        };
        if let (Ok(index @ 1..), Ok(score)) =
            (index.trim().parse::<usize>(), score.trim().parse::<u8>())
        {
            out.push((index - 1, score.min(3)));
        }
    }
    out
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

/// A `p_dp` prompt read where it stands: the bracketed record lines,
/// borrowed from the prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PdpPrompt<'a> {
    body: &'a str,
}

impl<'a> PdpPrompt<'a> {
    /// Reads a `p_dp` prompt: `None` unless it asks to convert items and
    /// brackets its data.
    pub fn read(prompt: &'a str) -> Option<Self> {
        if !prompt.contains("convert the items into a textual format") {
            return None;
        }
        let body = bracketed_after(prompt, "logical order:")?;
        Some(PdpPrompt { body })
    }

    /// The lines of the bracketed body in order. A record is a line that
    /// reads as one ([`super::RecordReader::read`]); the others take no
    /// position.
    pub fn lines(&self) -> impl Iterator<Item = &'a str> {
        self.body.lines()
    }
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

/// Defines each `p_cq` demonstration of paper appendix A as a `&'static
/// str` ending in a newline, and [`PCQ_EVERY_DEMONSTRATION`] as all of
/// them in order.
macro_rules! pcq_demonstrations {
    ($($name:ident = $text:literal;)*) => {
        $(const $name: &str = $text;)*
        /// Every demonstration, in appendix order.
        const PCQ_EVERY_DEMONSTRATION: &str = concat!($($text),*);
    };
}

pcq_demonstrations! {
    PCQ_IMPUTATION = "\
Claim: The task is [data imputation]. The context is [Wenham, Marysville, and Westmont are \
cities in the United States, identified by the ISO3 code USA]. The target query is [city: New \
Cassel; iso3: USA; country: ?].
Cloze question: Wenham, Marysville, and Westmont are cities in the United States, identified \
by the ISO3 code USA. New Cassel belongs to the country __.
";
    PCQ_TRANSFORMATION = "\
Claim: The task is [data transformation]. The context is [data before transformation: 20000101 \
data after transformation: 2000-01-01]. The target query is [19990415: ?].
Cloze question: 20000101 can be transformed to 2000-01-01, and 19990415 can be transformed \
to __.
";
    PCQ_ERROR_DETECTION = "\
Claim: The task is [error detection]. The context is [the address of 2505 u s highway 431 \
north is not an error, the county name of mxrshxll is an error]. The target query is [city: \
sheffxeld?].
Cloze question: The address 2505 u s highway 431 north has no error, whereas the county name \
mxrshxll contains an error. Is there an error in the city sheffxeld? Yes or No: __.
";
    PCQ_ENTITY_RESOLUTION = "\
Claim: The task is [entity resolution]. The context is [A is the Punch! Home Design \
Architectural Series 4000 v10, priced at $199.99. B is the Punch Software 41100 Punch! Home \
Design Architectural Series 18, priced at $18.99]. The target query is [are A and B the \
same?].
Cloze question: Entity A is the Punch! Home Design Architectural Series 4000 v10 priced at \
$199.99. Entity B is the Punch Software 41100 Punch! Home Design Architectural Series 18 \
priced at $18.99. Are entity A and entity B the same? Yes or No: __.
";
}

/// The demonstrations `p_cq` shows a claim of `task` (see [`render_pcq`]).
fn pcq_demonstrations_for(task: TaskKind) -> &'static str {
    match task {
        TaskKind::Imputation => PCQ_IMPUTATION,
        TaskKind::Transformation => PCQ_TRANSFORMATION,
        TaskKind::ErrorDetection => PCQ_ERROR_DETECTION,
        TaskKind::EntityResolution => PCQ_ENTITY_RESOLUTION,
        TaskKind::TableQa | TaskKind::JoinDiscovery | TaskKind::Extraction => {
            PCQ_EVERY_DEMONSTRATION
        }
    }
}

const PCQ_INSTRUCTION: &str = "Write the claim as a cloze question.\n";
const PCQ_TASK: &str = "Claim: The task is [";
const PCQ_CONTEXT: &str = "]. The context is [";
const PCQ_QUERY: &str = "]. The target query is [";
const PCQ_TAIL: &str = "].\nCloze question:";

/// Renders `p_cq` (paper §4.4) into one buffer sized exactly in advance:
/// the instruction, the appendix A demonstration of the claim's task, and
/// the claim to rewrite. Table QA, join discovery and extraction have no
/// demonstration in the paper, and a demonstration is paper text that is
/// not invented here, so their claims are shown all four, in appendix order.
pub fn render_pcq(claim: &Claim) -> String {
    [
        PCQ_INSTRUCTION,
        pcq_demonstrations_for(claim.task),
        PCQ_TASK,
        claim.task.description(),
        PCQ_CONTEXT,
        &claim.context,
        PCQ_QUERY,
        &claim.query,
        PCQ_TAIL,
    ]
    .concat()
}

/// Parses a `p_cq` prompt back into the claim [`render_pcq`] wrote: the
/// one after the instruction and its task's demonstrations, whatever its
/// context and query hold (`Claim:` or `The task is [` included), up to
/// the one ambiguity the form has: the context ends at the claim's first
/// `]. The target query is [`. `None` unless the prompt is the
/// instruction, a task's demonstrations, that task's claim and the
/// closing cue.
pub fn parse_pcq(prompt: &str) -> Option<Claim> {
    let rest = prompt.strip_prefix(PCQ_INSTRUCTION)?;
    TaskKind::ALL.into_iter().find_map(|task| {
        let claim = rest
            .strip_prefix(pcq_demonstrations_for(task))?
            .strip_prefix(PCQ_TASK)?
            .strip_prefix(task.description())?
            .strip_prefix(PCQ_CONTEXT)?
            .strip_suffix(PCQ_TAIL)?;
        let (context, query) = claim.split_once(PCQ_QUERY)?;
        Some(Claim {
            task,
            context: context.to_string(),
            query: query.to_string(),
        })
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
        let read = PriPrompt::read(&p).unwrap();
        assert_eq!(read.task, TaskKind::Imputation);
        assert_eq!(read.query, "Copenhagen, timezone");
        assert_eq!(read.header().collect::<Vec<_>>(), ["city", "country"]);
        let mut lines = String::new();
        assert_eq!(read.lines_into(&mut lines), 2);
        let instances: Vec<_> = lines.lines().filter_map(SerializedRecord::parse).collect();
        assert_eq!(instances, recs());
    }

    #[test]
    fn pri_text_is_pinned_and_lines_variant_agrees() {
        let p = render_pri(TaskKind::Imputation, "Copenhagen, timezone", &recs());
        assert_eq!(
            p,
            "The task is [data imputation]. The target query is [Copenhagen, timezone]. Score \
             the relevance (range from 0 to 3) of the given instances based on the task and the \
             query: city | country\n1. Alicante | Spain\n2. Florence | Italy"
        );
        assert_eq!(p.capacity(), p.len(), "one exactly sized buffer");
        let rows = ["Alicante | Spain", "Florence | Italy"];
        let spliced = render_pri_rows(
            TaskKind::Imputation,
            "Copenhagen, timezone",
            ["city", "country"],
            rows,
        );
        assert_eq!(spliced, p);
        assert_eq!(spliced.capacity(), p.len(), "one exactly sized buffer");
    }

    #[test]
    fn pri_rows_leave_an_empty_field_for_a_missing_value() {
        let rec = |pairs: &[(&str, &str)]| {
            SerializedRecord::new(pairs.iter().map(|&(a, v)| (a.into(), v.into())).collect())
        };
        let instances = [
            rec(&[("a", "A"), ("b", ""), ("c", "C")]),
            rec(&[("b", "B")]),
            rec(&[("a", "A"), ("b", "B")]),
            rec(&[("c", "")]),
        ];
        let p = render_pri(TaskKind::Imputation, "q", &instances);
        let (first, rows) = p.split_once('\n').unwrap();
        assert!(first.ends_with("the query: a | b | c"), "{first}");
        assert_eq!(rows, "1. A || C\n2. | B |\n3. A | B |\n4. ||");
        assert_eq!(p.capacity(), p.len());
        // Read back, each row is its record's line.
        let mut lines = String::new();
        PriPrompt::read(&p).unwrap().lines_into(&mut lines);
        let rendered: Vec<String> = instances.iter().map(SerializedRecord::render).collect();
        assert_eq!(lines.lines().collect::<Vec<_>>(), rendered);
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
        let read = PdpPrompt::read(&p).unwrap();
        let records: Vec<_> = read.lines().filter_map(SerializedRecord::parse).collect();
        assert_eq!(records, recs());
    }

    #[test]
    fn pcq_roundtrip() {
        let claim = Claim {
            task: TaskKind::Imputation,
            context: "Florence belongs to the country Italy.".to_string(),
            query: "city: Copenhagen; country: Denmark; timezone: ?".to_string(),
        };
        let p = render_pcq(&claim);
        assert!(p.contains("Wenham, Marysville"), "its own demonstration");
        assert!(!p.contains("Punch! Home Design"), "no other task's");
        assert_eq!(
            p.matches("Claim:").count(),
            2,
            "one demonstration, one claim"
        );
        let back = parse_pcq(&p).unwrap();
        assert_eq!(back, claim);
    }

    /// The four appendix A demonstrations as one block, as every `p_cq`
    /// showed them before each task got its own.
    const FOUR_DEMONSTRATIONS: &str = "\
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

    #[test]
    fn pcq_shows_its_task_demonstration_or_all_four_where_the_task_has_none() {
        let demos: Vec<&str> = FOUR_DEMONSTRATIONS
            .split_inclusive("__.\n")
            .map(|d| d.trim_end())
            .collect();
        assert_eq!(demos.len(), 4);
        for (i, task) in TaskKind::ALL.into_iter().enumerate() {
            let claim = Claim {
                task,
                context: "ctx".to_string(),
                query: "q".to_string(),
            };
            let p = render_pcq(&claim);
            let shown = if i < 4 { demos[i] } else { FOUR_DEMONSTRATIONS };
            let want = format!(
                "Write the claim as a cloze question.\n{shown}\nClaim: The task is [{}]. The \
                 context is [ctx]. The target query is [q].\nCloze question:",
                task.description()
            );
            assert_eq!(p, want, "{task:?}");
            assert_eq!(p.capacity(), p.len(), "{task:?}: one exactly sized buffer");
            // A demonstration is shown for its own task only.
            for (j, demo) in demos.iter().enumerate() {
                assert_eq!(
                    p.contains(demo),
                    i == j || i >= 4,
                    "{task:?} shows demo {j}"
                );
            }
        }
    }

    /// A claim whose context or query holds the form's own markers reads
    /// back as itself, for every task kind.
    #[test]
    fn pcq_reads_back_claims_that_hold_its_markers() {
        let texts = [
            "Claim: the seller says so.",
            "see [Claim: x]",
            "The task is [data imputation]. The context is [",
            "The task is [table question answering]",
            "Write the claim as a cloze question.\nClaim: a\nCloze question: b __.",
            "unbalanced ] and [ brackets",
            "]. The context is [",
            "ends in a bracket]",
            "",
        ];
        for task in TaskKind::ALL {
            for context in texts {
                for query in texts {
                    let claim = Claim {
                        task,
                        context: context.to_string(),
                        query: query.to_string(),
                    };
                    let p = render_pcq(&claim);
                    assert_eq!(parse_pcq(&p).as_ref(), Some(&claim), "{p}");
                }
            }
        }
    }

    #[test]
    fn parsers_reject_other_prompts() {
        assert!(parse_prm("hello").is_none());
        assert!(PriPrompt::read("hello").is_none());
        assert!(PdpPrompt::read("hello").is_none());
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
