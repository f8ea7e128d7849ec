//! The prompt protocol: every template the paper prints, as a
//! renderer/parser pair.
//!
//! The UniDM pipeline (and the FM baseline) *render* prompts; the simulated
//! model *parses* them back. Keeping both directions in one module — with
//! round-trip tests — is what lets a text-in/text-out interface stay honest:
//! the pipeline can only communicate through strings a real LLM could also
//! have received.
//!
//! The simulated model reads `p_ri` and `p_dp` through [`PriPrompt`] and
//! [`PdpPrompt`], whose record lines a [`RecordReader`] reads where they
//! stand in the prompt instead of building owned records; a caller that
//! wants owned records maps the lines through [`SerializedRecord::parse`].
//!
//! `p_ri` departs from the paper's per-instance `attr: value`
//! serialization: it is in **header form**, the attribute names once after
//! the instruction on its first line and one numbered row of values per
//! candidate ([`pri_row`]). [`PriPrompt::lines_into`] reads each row back
//! as the `attr: value` line the paper's form shows.
//!
//! `p_cq` shows a claim only its own task's appendix A demonstration;
//! table QA, join discovery and extraction, which have none in the paper,
//! are shown all four ([`render_pcq`]).
//!
//! | Paper object | Renderer | Parser |
//! |---|---|---|
//! | `p_rm` (meta-wise retrieval) | [`render_prm`] | [`parse_prm`] |
//! | `p_ri` (instance-wise retrieval), header form | [`render_pri`], [`render_pri_rows`] | [`PriPrompt`] |
//! | `p_dp` (context data parsing) | [`render_pdp`] | [`PdpPrompt`] |
//! | `p_cq` (cloze-question generation) | [`render_pcq`] | [`parse_pcq`] |
//! | cloze questions / `p_as` | [`render_cloze`] | [`parse_answer_request`] |
//! | FM-style prompts | [`render_fm_imputation`] and friends | [`parse_fm`] |

mod cloze;
mod fm;
mod prompts;
mod record;

pub use cloze::{
    claim_query_er, claim_query_imputation, classify_context, parse_answer_request, render_cloze,
    render_simple, AnswerPayload, AnswerRequest, ContextKind, PromptForm,
};
pub use fm::{
    parse_fm, render_fm_entity_resolution, render_fm_error_detection, render_fm_imputation,
    render_fm_transformation,
};
pub use prompts::{
    parse_pcq, parse_pri_response, parse_prm, pri_row, render_pcq, render_pdp, render_pdp_lines,
    render_pri, render_pri_rows, render_prm, render_prm_names, Claim, PdpPrompt, PriPrompt,
    PrmRequest,
};
pub(crate) use record::naturalize_pairs_into;
pub use record::{
    naturalize_record, parse_natural_sentence, render_pairs, RecordReader, SerializedRecord,
};

/// The data manipulation tasks the unified framework covers (Section 3 plus
/// the appendix extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskKind {
    /// Fill a missing attribute value.
    Imputation,
    /// Convert a value to another format by example.
    Transformation,
    /// Judge whether an attribute value is erroneous.
    ErrorDetection,
    /// Judge whether two records denote the same entity.
    EntityResolution,
    /// Answer a question over a table (appendix C).
    TableQa,
    /// Judge whether two columns are joinable (appendix D).
    JoinDiscovery,
    /// Extract an attribute from a semi-structured document (appendix E).
    Extraction,
}

impl TaskKind {
    /// Every task kind, in declaration order — the single source for
    /// exhaustive scans (description parsing, prompt-shape recognition).
    pub const ALL: [TaskKind; 7] = [
        TaskKind::Imputation,
        TaskKind::Transformation,
        TaskKind::ErrorDetection,
        TaskKind::EntityResolution,
        TaskKind::TableQa,
        TaskKind::JoinDiscovery,
        TaskKind::Extraction,
    ];

    /// The task description used inside prompts ("data imputation").
    pub fn description(&self) -> &'static str {
        match self {
            TaskKind::Imputation => "data imputation",
            TaskKind::Transformation => "data transformation",
            TaskKind::ErrorDetection => "error detection",
            TaskKind::EntityResolution => "entity resolution",
            TaskKind::TableQa => "table question answering",
            TaskKind::JoinDiscovery => "join discovery",
            TaskKind::Extraction => "information extraction",
        }
    }

    /// Parses a description back to the task kind.
    pub fn from_description(s: &str) -> Option<TaskKind> {
        let key = s.trim().to_lowercase();
        Self::ALL.into_iter().find(|t| t.description() == key)
    }
}

/// Extracts the text between the first `[` after `marker` and its matching
/// closing `]` (tolerating nested brackets in the payload).
pub(crate) fn bracketed_after<'a>(text: &'a str, marker: &str) -> Option<&'a str> {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_descriptions_roundtrip() {
        for t in [
            TaskKind::Imputation,
            TaskKind::Transformation,
            TaskKind::ErrorDetection,
            TaskKind::EntityResolution,
            TaskKind::TableQa,
            TaskKind::JoinDiscovery,
            TaskKind::Extraction,
        ] {
            assert_eq!(TaskKind::from_description(t.description()), Some(t));
        }
        assert_eq!(TaskKind::from_description("poetry"), None);
    }

    #[test]
    fn bracketed_extraction() {
        assert_eq!(
            bracketed_after("task is [data imputation].", "task is"),
            Some("data imputation")
        );
        assert_eq!(bracketed_after("x [a [b] c] y", "x"), Some("a [b] c"));
        assert_eq!(bracketed_after("no brackets", "no"), None);
    }
}
