//! Cloze questions (`p_as`) and their parsing into answer requests.
//!
//! The target-prompt-construction step rewrites a claim into a cloze
//! question; the model then completes the blank. This module renders the
//! canonical cloze for every task and parses any final-answer prompt —
//! cloze or the ablation's "simple concatenation" — into a structured
//! [`AnswerRequest`] the answering skill consumes.

use super::prompts::Claim;
use super::record::{naturalize_record, parse_natural_sentence, SerializedRecord};
use super::TaskKind;

/// The shape of a final-answer prompt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromptForm {
    /// A cloze question produced by target prompt construction.
    Cloze,
    /// The ablation's direct concatenation of task, context and query.
    Simple,
    /// A few-shot demonstration prompt (the FM baseline's style).
    FewShot,
}

/// How the context portion of a prompt is represented.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextKind {
    /// Fluent natural-language sentences (after context data parsing).
    Natural,
    /// `attr: value; ...` pair lines (serialization only).
    Serialized,
    /// Anything else (raw tabular dumps).
    Tabular,
    /// No context at all.
    Empty,
}

/// The task-specific payload of an answer prompt.
#[derive(Debug, Clone, PartialEq)]
pub enum AnswerPayload {
    /// Fill the missing `attr` of `subject`.
    Imputation {
        /// The record's primary-key value.
        subject: String,
        /// The attribute to fill.
        attr: String,
        /// The known attributes of the target record.
        record: SerializedRecord,
    },
    /// Transform `input` following `examples`.
    Transformation {
        /// Demonstration pairs.
        examples: Vec<(String, String)>,
        /// The value to transform.
        input: String,
    },
    /// Judge whether `value` is a valid `attr`.
    ErrorDetection {
        /// The attribute name.
        attr: String,
        /// The value under judgement.
        value: String,
    },
    /// Judge whether two entity descriptions co-refer.
    EntityResolution {
        /// Description of entity A.
        a: String,
        /// Description of entity B.
        b: String,
    },
    /// Answer a question over the context.
    TableQa {
        /// The question.
        question: String,
    },
    /// Judge whether two columns are joinable.
    Join {
        /// Qualified left column name.
        left: String,
        /// Qualified right column name.
        right: String,
        /// Sampled left values.
        left_values: Vec<String>,
        /// Sampled right values.
        right_values: Vec<String>,
    },
    /// Extract `attr` from the document in the context.
    Extraction {
        /// The attribute to extract.
        attr: String,
    },
}

/// A fully parsed final-answer prompt.
#[derive(Debug, Clone, PartialEq)]
pub struct AnswerRequest {
    /// The task being solved.
    pub task: TaskKind,
    /// The prompt's form.
    pub form: PromptForm,
    /// The context representation.
    pub context_kind: ContextKind,
    /// The context lines (without task/payload lines).
    pub context_lines: Vec<String>,
    /// The task payload.
    pub payload: AnswerPayload,
}

/// Renders the canonical cloze question for `claim`.
///
/// The claim's `query` must use the task's query encoding (see
/// `claim_query_*` helpers below); `claim.context` holds the parsed context
/// `C'`, one sentence per line.
pub fn render_cloze(claim: &Claim) -> String {
    let context = claim.context.trim();
    let mut lines: Vec<String> = Vec::new();
    match claim.task {
        TaskKind::Imputation => {
            lines.push("The task is to impute the missing value.".to_string());
            push_context(&mut lines, context);
            let (subject, attr, record) = split_imputation_query(&claim.query);
            let known = SerializedRecord::new(
                record
                    .pairs
                    .iter()
                    .filter(|(a, v)| !a.eq_ignore_ascii_case(&attr) && v != "?")
                    .cloned()
                    .collect(),
            );
            if known.pairs.len() > 1 {
                lines.push(naturalize_record(&known));
            }
            lines.push(format!("The {attr} of {subject} is __."));
        }
        TaskKind::Transformation => {
            push_context(&mut lines, context);
            let input = claim.query.trim_end_matches(": ?").trim_end_matches(":?");
            lines.push(format!("{input} can be transformed to __."));
        }
        TaskKind::ErrorDetection => {
            lines.push("The task is to detect data errors.".to_string());
            push_context(&mut lines, context);
            let (attr, value) = claim
                .query
                .trim_end_matches('?')
                .split_once(':')
                .map(|(a, v)| (a.trim().to_string(), v.trim().to_string()))
                .unwrap_or_else(|| ("value".to_string(), claim.query.clone()));
            lines.push(format!(
                "Is there an error in the {attr} value \"{value}\"? Yes or No: __."
            ));
        }
        TaskKind::EntityResolution => {
            lines.push("The task is to resolve entities.".to_string());
            push_context(&mut lines, context);
            let (a, b) = split_er_query(&claim.query);
            lines.push(format!("Entity A is {a}."));
            lines.push(format!("Entity B is {b}."));
            lines.push("Are entity A and entity B the same? Yes or No: __.".to_string());
        }
        TaskKind::TableQa => {
            lines.push("The task is to answer a question from the context.".to_string());
            push_context(&mut lines, context);
            lines.push(format!("Question: {}", claim.query));
            lines.push("The answer is __.".to_string());
        }
        TaskKind::JoinDiscovery => {
            lines.push("The task is to discover joinable columns.".to_string());
            push_context(&mut lines, context);
            lines.push("Are the two columns joinable? Yes or No: __.".to_string());
        }
        TaskKind::Extraction => {
            lines.push("The task is to extract information.".to_string());
            push_context(&mut lines, context);
            lines.push(format!("The {} is __.", claim.query));
        }
    }
    lines.join("\n")
}

/// Renders the ablation's simple target prompt: direct concatenation with no
/// cloze rewriting.
pub fn render_simple(claim: &Claim) -> String {
    format!(
        "Task: {}. Context: [{}]. Target: [{}]. Answer:",
        claim.task.description(),
        claim.context.replace('\n', " | "),
        claim.query
    )
}

fn push_context(lines: &mut Vec<String>, context: &str) {
    for l in context.lines() {
        let l = l.trim();
        if !l.is_empty() {
            lines.push(l.to_string());
        }
    }
}

/// Encodes an imputation query: the target record with `attr: ?`.
pub fn claim_query_imputation(record: &SerializedRecord, attr: &str) -> String {
    let known = || {
        let pairs = record.pairs.iter();
        pairs.filter(|(a, v)| !a.eq_ignore_ascii_case(attr) && !v.is_empty())
    };
    let len: usize = known().map(|(a, v)| a.len() + v.len() + 4).sum();
    let mut out = String::with_capacity(len + attr.len() + 3);
    for (a, v) in known() {
        out.extend([a.as_str(), ": ", v.as_str(), "; "]);
    }
    out.extend([attr, ": ?"]);
    out
}

/// Encodes an entity-resolution query from two descriptions.
pub fn claim_query_er(a: &str, b: &str) -> String {
    format!("Entity A is [{a}]; Entity B is [{b}]; are A and B the same?")
}

fn split_imputation_query(query: &str) -> (String, String, SerializedRecord) {
    let record = SerializedRecord::parse(query).unwrap_or_default();
    let attr = record
        .pairs
        .iter()
        .find(|(_, v)| v == "?")
        .map(|(a, _)| a.clone())
        .unwrap_or_else(|| "value".to_string());
    let subject = record
        .pairs
        .iter()
        .find(|(_, v)| v != "?" && !v.is_empty())
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| query.to_string());
    (subject, attr, record)
}

fn split_er_query(query: &str) -> (String, String) {
    let a = super::bracketed_after(query, "Entity A is")
        .unwrap_or("")
        .to_string();
    let rest = query
        .split_once("Entity B is")
        .map(|(_, r)| r)
        .unwrap_or("");
    let b = super::bracketed_after(&format!("x{rest}"), "x")
        .unwrap_or("")
        .to_string();
    (a, b)
}

/// Classifies context lines into a [`ContextKind`].
pub fn classify_context(lines: &[String]) -> ContextKind {
    if lines.is_empty() {
        return ContextKind::Empty;
    }
    let mut natural = 0usize;
    let mut serialized = 0usize;
    for l in lines {
        if SerializedRecord::parse(l).is_some_and(|r| r.pairs.len() >= 2) {
            serialized += 1;
        } else if parse_natural_sentence(l).is_some_and(|r| r.pairs.len() >= 2) {
            natural += 1;
        }
    }
    if natural * 2 >= lines.len() {
        ContextKind::Natural
    } else if serialized * 2 >= lines.len() {
        ContextKind::Serialized
    } else {
        ContextKind::Tabular
    }
}

/// Extracts the two `Column "name" contains v1; v2.` lines from a set of
/// lines, returning the join payload and the remaining context lines.
fn parse_join_lines(lines: &[String]) -> Option<(AnswerPayload, Vec<String>)> {
    let mut columns: Vec<(String, Vec<String>)> = Vec::new();
    let mut context_lines = Vec::new();
    for l in lines {
        if let Some(rest) = l.trim().strip_prefix("Column \"") {
            if let Some((name, values)) = rest.split_once("\" contains ") {
                let vals = values
                    .trim_end_matches('.')
                    .split("; ")
                    .map(|v| v.trim().to_string())
                    .filter(|v| !v.is_empty())
                    .collect();
                columns.push((name.to_string(), vals));
                continue;
            }
        }
        context_lines.push(l.clone());
    }
    if columns.len() < 2 {
        return None;
    }
    let (right, right_values) = columns.pop()?;
    let (left, left_values) = columns.pop()?;
    Some((
        AnswerPayload::Join {
            left,
            right,
            left_values,
            right_values,
        },
        context_lines,
    ))
}

/// Parses any final-answer prompt (cloze or simple) into an
/// [`AnswerRequest`]. Returns `None` when the prompt is not a final-answer
/// prompt.
pub fn parse_answer_request(prompt: &str) -> Option<AnswerRequest> {
    let lines: Vec<String> = prompt.lines().map(|l| l.trim().to_string()).collect();
    let last = lines.last()?;

    // Simple form: single-line "Task: ... Answer:".
    if prompt.starts_with("Task: ") && prompt.trim_end().ends_with("Answer:") {
        return parse_simple(prompt);
    }

    if !last.contains("__") {
        return None;
    }
    let first = lines.first()?.as_str();
    let body = &lines[..lines.len() - 1];

    if first == "The task is to impute the missing value." {
        let tail = last.strip_prefix("The ")?.strip_suffix(" is __.")?;
        let (attr, subject) = tail.split_once(" of ")?;
        let (record, context_end) = match body.len() {
            0 | 1 => (SerializedRecord::default(), body.len()),
            n => {
                let candidate = parse_natural_sentence(&body[n - 1]);
                match candidate {
                    Some(rec) if rec.get("@subject") == Some(subject) => (rec, n - 1),
                    _ => (SerializedRecord::default(), n),
                }
            }
        };
        let context_lines: Vec<String> = body[1..context_end].to_vec();
        return Some(AnswerRequest {
            task: TaskKind::Imputation,
            form: PromptForm::Cloze,
            context_kind: classify_context(&context_lines),
            context_lines,
            payload: AnswerPayload::Imputation {
                subject: subject.to_string(),
                attr: attr.to_string(),
                record,
            },
        });
    }

    if last.ends_with("can be transformed to __.") {
        let mut examples = Vec::new();
        let mut natural = false;
        for l in body {
            if let Some((i, o)) = l
                .trim_end_matches('.')
                .split_once(" can be transformed to ")
            {
                examples.push((i.trim().to_string(), o.trim().to_string()));
                natural = true;
            } else if let Some(rec) = SerializedRecord::parse(l) {
                // Unparsed serialized examples: "before: X; after: Y".
                if let (Some(i), Some(o)) = (rec.get("before"), rec.get("after")) {
                    examples.push((i.to_string(), o.to_string()));
                }
            }
        }
        let input = last
            .strip_suffix(" can be transformed to __.")?
            .trim()
            .to_string();
        return Some(AnswerRequest {
            task: TaskKind::Transformation,
            form: PromptForm::Cloze,
            context_kind: if examples.is_empty() {
                ContextKind::Empty
            } else if natural {
                ContextKind::Natural
            } else {
                ContextKind::Serialized
            },
            context_lines: Vec::new(),
            payload: AnswerPayload::Transformation { examples, input },
        });
    }

    if first == "The task is to detect data errors." {
        let q = last.strip_prefix("Is there an error in the ")?;
        let (attr, rest) = q.split_once(" value \"")?;
        let value = rest.split_once('"')?.0;
        let context_lines: Vec<String> = body[1..].to_vec();
        return Some(AnswerRequest {
            task: TaskKind::ErrorDetection,
            form: PromptForm::Cloze,
            context_kind: classify_context(&context_lines),
            context_lines,
            payload: AnswerPayload::ErrorDetection {
                attr: attr.to_string(),
                value: value.to_string(),
            },
        });
    }

    if first == "The task is to resolve entities." {
        let a_line = body.iter().rev().find(|l| l.starts_with("Entity A is "))?;
        let b_line = body.iter().rev().find(|l| l.starts_with("Entity B is "))?;
        let a = a_line
            .strip_prefix("Entity A is ")?
            .trim_end_matches('.')
            .to_string();
        let b = b_line
            .strip_prefix("Entity B is ")?
            .trim_end_matches('.')
            .to_string();
        let context_lines: Vec<String> = body[1..]
            .iter()
            .filter(|l| !l.starts_with("Entity A is ") && !l.starts_with("Entity B is "))
            .cloned()
            .collect();
        return Some(AnswerRequest {
            task: TaskKind::EntityResolution,
            form: PromptForm::Cloze,
            context_kind: classify_context(&context_lines),
            context_lines,
            payload: AnswerPayload::EntityResolution { a, b },
        });
    }

    if first == "The task is to answer a question from the context." {
        let question = body
            .iter()
            .rev()
            .find_map(|l| l.strip_prefix("Question: "))?
            .to_string();
        let context_lines: Vec<String> = body[1..]
            .iter()
            .filter(|l| !l.starts_with("Question: "))
            .cloned()
            .collect();
        return Some(AnswerRequest {
            task: TaskKind::TableQa,
            form: PromptForm::Cloze,
            context_kind: classify_context(&context_lines),
            context_lines,
            payload: AnswerPayload::TableQa { question },
        });
    }

    if first == "The task is to discover joinable columns." {
        let (payload, context_lines) = parse_join_lines(&body[1..])?;
        return Some(AnswerRequest {
            task: TaskKind::JoinDiscovery,
            form: PromptForm::Cloze,
            context_kind: classify_context(&context_lines),
            context_lines,
            payload,
        });
    }

    if first == "The task is to extract information." {
        let attr = last.strip_prefix("The ")?.strip_suffix(" is __.")?;
        let context_lines: Vec<String> = body[1..].to_vec();
        return Some(AnswerRequest {
            task: TaskKind::Extraction,
            form: PromptForm::Cloze,
            context_kind: if context_lines.is_empty() {
                ContextKind::Empty
            } else {
                ContextKind::Tabular
            },
            context_lines,
            payload: AnswerPayload::Extraction {
                attr: attr.to_string(),
            },
        });
    }

    None
}

fn parse_simple(prompt: &str) -> Option<AnswerRequest> {
    let task_desc = prompt.strip_prefix("Task: ")?.split('.').next()?;
    let task = TaskKind::from_description(task_desc)?;
    let context = super::bracketed_after(prompt, "Context:")?;
    let query = super::bracketed_after(prompt, "Target:")?;
    let context_lines: Vec<String> = context
        .split(" | ")
        .map(|s| s.trim().to_string())
        .filter(|s| s.len() > 1)
        .collect();
    let payload = match task {
        TaskKind::Imputation => {
            let (subject, attr, record) = split_imputation_query(query);
            AnswerPayload::Imputation {
                subject,
                attr,
                record,
            }
        }
        TaskKind::Transformation => {
            let mut examples = Vec::new();
            for l in &context_lines {
                if let Some((i, o)) = l
                    .trim_end_matches('.')
                    .split_once(" can be transformed to ")
                {
                    examples.push((i.trim().to_string(), o.trim().to_string()));
                } else if let Some(rec) = SerializedRecord::parse(l) {
                    if let (Some(i), Some(o)) = (rec.get("before"), rec.get("after")) {
                        examples.push((i.to_string(), o.to_string()));
                    }
                }
            }
            AnswerPayload::Transformation {
                examples,
                input: query.trim_end_matches(": ?").to_string(),
            }
        }
        TaskKind::ErrorDetection => {
            let (attr, value) = query
                .trim_end_matches('?')
                .split_once(':')
                .map(|(a, v)| (a.trim().to_string(), v.trim().to_string()))
                .unwrap_or(("value".to_string(), query.to_string()));
            AnswerPayload::ErrorDetection { attr, value }
        }
        TaskKind::EntityResolution => {
            let (a, b) = split_er_query(query);
            AnswerPayload::EntityResolution { a, b }
        }
        TaskKind::TableQa => AnswerPayload::TableQa {
            question: query.to_string(),
        },
        TaskKind::JoinDiscovery => {
            let (payload, _) = parse_join_lines(&context_lines)?;
            payload
        }
        TaskKind::Extraction => AnswerPayload::Extraction {
            attr: query.to_string(),
        },
    };
    Some(AnswerRequest {
        task,
        form: PromptForm::Simple,
        context_kind: classify_context(&context_lines),
        context_lines,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn imputation_claim() -> Claim {
        Claim {
            task: TaskKind::Imputation,
            context: "Florence belongs to the country Italy and is in the timezone Central \
                      European Time."
                .to_string(),
            query: claim_query_imputation(
                &SerializedRecord::new(vec![
                    ("city".into(), "Copenhagen".into()),
                    ("country".into(), "Denmark".into()),
                ]),
                "timezone",
            ),
        }
    }

    #[test]
    fn imputation_cloze_roundtrip() {
        let cloze = render_cloze(&imputation_claim());
        assert!(cloze.ends_with("The timezone of Copenhagen is __."));
        let req = parse_answer_request(&cloze).unwrap();
        assert_eq!(req.task, TaskKind::Imputation);
        assert_eq!(req.form, PromptForm::Cloze);
        assert_eq!(req.context_kind, ContextKind::Natural);
        match req.payload {
            AnswerPayload::Imputation {
                subject,
                attr,
                record,
            } => {
                assert_eq!(subject, "Copenhagen");
                assert_eq!(attr, "timezone");
                assert_eq!(record.get("country"), Some("Denmark"));
            }
            p => panic!("wrong payload {p:?}"),
        }
        assert_eq!(req.context_lines.len(), 1);
    }

    #[test]
    fn transformation_cloze_roundtrip() {
        let claim = Claim {
            task: TaskKind::Transformation,
            context: "20000101 can be transformed to 2000-01-01.\n19991231 can be transformed \
                      to 1999-12-31."
                .to_string(),
            query: "20210315: ?".to_string(),
        };
        let cloze = render_cloze(&claim);
        let req = parse_answer_request(&cloze).unwrap();
        match req.payload {
            AnswerPayload::Transformation { examples, input } => {
                assert_eq!(examples.len(), 2);
                assert_eq!(
                    examples[0],
                    ("20000101".to_string(), "2000-01-01".to_string())
                );
                assert_eq!(input, "20210315");
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn error_detection_cloze_roundtrip() {
        let claim = Claim {
            task: TaskKind::ErrorDetection,
            context: "Marshall is a valid county.".to_string(),
            query: "city: sheffxeld?".to_string(),
        };
        let cloze = render_cloze(&claim);
        let req = parse_answer_request(&cloze).unwrap();
        match req.payload {
            AnswerPayload::ErrorDetection { attr, value } => {
                assert_eq!(attr, "city");
                assert_eq!(value, "sheffxeld");
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn er_cloze_roundtrip() {
        let claim = Claim {
            task: TaskKind::EntityResolution,
            context: String::new(),
            query: claim_query_er(
                "Punch Design 4000 priced at $199.99",
                "P. Design 4000 priced at $199.99",
            ),
        };
        let cloze = render_cloze(&claim);
        let req = parse_answer_request(&cloze).unwrap();
        match req.payload {
            AnswerPayload::EntityResolution { a, b } => {
                assert!(a.contains("Punch Design 4000"));
                assert!(b.starts_with("P. Design"));
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn tableqa_cloze_roundtrip() {
        let claim = Claim {
            task: TaskKind::TableQa,
            context: "Australia won gold medals numbering 2.\nSwitzerland won gold medals \
                      numbering 0."
                .to_string(),
            query: "how many gold medals did Australia and Switzerland total?".to_string(),
        };
        let cloze = render_cloze(&claim);
        let req = parse_answer_request(&cloze).unwrap();
        match req.payload {
            AnswerPayload::TableQa { question } => {
                assert!(question.starts_with("how many gold"));
            }
            p => panic!("wrong payload {p:?}"),
        }
        assert_eq!(req.context_lines.len(), 2);
    }

    #[test]
    fn join_cloze_roundtrip() {
        let claim = Claim {
            task: TaskKind::JoinDiscovery,
            context: "Germany is abbreviated as GER.\nColumn \"fifa.country_abrv\" contains \
                      GER; ITA.\nColumn \"geo.ISO\" contains ALB; IND."
                .to_string(),
            query: "fifa.country_abrv VERSUS geo.ISO".to_string(),
        };
        let cloze = render_cloze(&claim);
        let req = parse_answer_request(&cloze).unwrap();
        match req.payload {
            AnswerPayload::Join {
                left,
                right,
                left_values,
                right_values,
            } => {
                assert_eq!(left, "fifa.country_abrv");
                assert_eq!(right, "geo.ISO");
                assert_eq!(left_values, vec!["GER", "ITA"]);
                assert_eq!(right_values, vec!["ALB", "IND"]);
            }
            p => panic!("wrong payload {p:?}"),
        }
        assert_eq!(req.context_lines.len(), 1);
    }

    #[test]
    fn extraction_cloze_roundtrip() {
        let claim = Claim {
            task: TaskKind::Extraction,
            context: "Kevin Durant is an American professional basketball player.".to_string(),
            query: "player".to_string(),
        };
        let cloze = render_cloze(&claim);
        let req = parse_answer_request(&cloze).unwrap();
        match req.payload {
            AnswerPayload::Extraction { attr } => assert_eq!(attr, "player"),
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn simple_form_roundtrip() {
        let claim = imputation_claim();
        let simple = render_simple(&claim);
        let req = parse_answer_request(&simple).unwrap();
        assert_eq!(req.form, PromptForm::Simple);
        match req.payload {
            AnswerPayload::Imputation { subject, attr, .. } => {
                assert_eq!(subject, "Copenhagen");
                assert_eq!(attr, "timezone");
            }
            p => panic!("wrong payload {p:?}"),
        }
    }

    #[test]
    fn classify_context_kinds() {
        assert_eq!(classify_context(&[]), ContextKind::Empty);
        assert_eq!(
            classify_context(&["city: A; country: B".to_string()]),
            ContextKind::Serialized
        );
        assert_eq!(
            classify_context(&["A belongs to the country B.".to_string()]),
            ContextKind::Natural
        );
        assert_eq!(
            classify_context(&["| A | B | C |".to_string()]),
            ContextKind::Tabular
        );
    }

    #[test]
    fn non_answer_prompts_rejected() {
        assert!(parse_answer_request("What a lovely day").is_none());
        assert!(parse_answer_request("").is_none());
    }
}
