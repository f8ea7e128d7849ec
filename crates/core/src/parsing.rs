//! Step 2 — context data parsing (paper §4.3).
//!
//! `serialize()` losslessly flattens the tabular context into `attr: value`
//! pairs; when parsing is enabled, prompt `p_dp` asks the LLM to rewrite
//! the pairs as fluent sentences `C'`.

use unidm_llm::protocol::{render_pdp_lines, SerializedRecord};
use unidm_llm::LanguageModel;

use crate::{PipelineConfig, UniDmError};

/// Serializes records to the pair text `V` (one record per line).
pub fn serialize(records: &[SerializedRecord]) -> String {
    join_lines(&rendered(records))
}

fn rendered(records: &[SerializedRecord]) -> Vec<String> {
    records.iter().map(SerializedRecord::render).collect()
}

/// `V` from rendered records: a record without a value has no line.
pub(crate) fn join_lines(lines: &[String]) -> String {
    let stated = lines
        .iter()
        .map(String::as_str)
        .filter(|line| !line.is_empty());
    stated.collect::<Vec<_>>().join("\n")
}

/// Produces the context text: `C'` via `p_dp` when parsing is enabled, the
/// raw serialization `V` otherwise.
///
/// # Errors
///
/// Propagates LLM failures.
pub fn parse_context(
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    records: &[SerializedRecord],
) -> Result<String, UniDmError> {
    let lines = rendered(records);
    match pdp_prompt(config, &lines) {
        Some(prompt) => Ok(llm.complete(&prompt)?.text.clone()),
        None => Ok(join_lines(&lines)),
    }
}

/// Context parsing's render half over rendered records: the `p_dp`
/// prompt, or `None` when the context is `V` itself ([`join_lines`]) —
/// there are no records, or parsing is off. The reply is `C'`.
pub(crate) fn pdp_prompt(config: &PipelineConfig, lines: &[String]) -> Option<String> {
    let asks = config.context_parsing && !lines.is_empty();
    asks.then(|| render_pdp_lines(lines.iter().map(String::as_str)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_world::World;

    fn records() -> Vec<SerializedRecord> {
        vec![
            SerializedRecord::new(vec![
                ("city".into(), "Florence".into()),
                ("country".into(), "Italy".into()),
            ]),
            SerializedRecord::new(vec![
                ("city".into(), "Alicante".into()),
                ("country".into(), "Spain".into()),
            ]),
        ]
    }

    fn llm() -> MockLlm {
        MockLlm::new(&World::generate(7), LlmProfile::gpt4_turbo(), 1)
    }

    #[test]
    fn serialize_joins_lines() {
        let v = serialize(&records());
        assert_eq!(v.lines().count(), 2);
        assert!(v.contains("city: Florence; country: Italy"));
    }

    #[test]
    fn parsing_enabled_yields_sentences() {
        let c = parse_context(&llm(), &PipelineConfig::paper_default(), &records()).unwrap();
        assert!(c.contains("Florence belongs to the country Italy"), "{c}");
    }

    #[test]
    fn parsing_disabled_yields_pairs() {
        let cfg = PipelineConfig {
            context_parsing: false,
            ..PipelineConfig::paper_default()
        };
        let c = parse_context(&llm(), &cfg, &records()).unwrap();
        assert!(c.starts_with("city: Florence"));
    }

    #[test]
    fn empty_records_empty_context() {
        let c = parse_context(&llm(), &PipelineConfig::paper_default(), &[]).unwrap();
        assert!(c.is_empty());
    }
}
