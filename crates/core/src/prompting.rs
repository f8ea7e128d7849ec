//! Step 3 — target prompt construction (paper §4.4).
//!
//! With prompt construction enabled, the claim `(T, C', Q)` goes through
//! `p_cq` and the LLM emits a cloze question `p_as`; otherwise the claim is
//! concatenated directly. Either way the resulting target prompt is fed
//! back to the LLM for the final answer.
//!
//! Caching note: the `p_cq` prompt is dominated by a fixed demonstration
//! block (paper appendix A); only the final claim varies, and
//! [`crate::canon`] never rewrites it. Two runs share one
//! cloze-construction entry under a [`crate::PromptCache`] exactly when
//! their context and query coincide.

use unidm_llm::protocol::{render_pcq, render_simple, Claim};
use unidm_llm::LanguageModel;

use crate::{PipelineConfig, UniDmError};

/// Builds the final target prompt for `claim`.
///
/// # Errors
///
/// Propagates LLM failures from the `p_cq` call.
pub fn build_target_prompt(
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    claim: &Claim,
) -> Result<String, UniDmError> {
    if !config.prompt_construction {
        return Ok(render_simple(claim));
    }
    let prompt = render_pcq(claim);
    let reply = llm.complete(&prompt)?;
    Ok(reply.text.clone())
}

/// Feeds the target prompt to the LLM and returns the raw answer text.
///
/// # Errors
///
/// Propagates LLM failures.
pub fn answer(llm: &dyn LanguageModel, target_prompt: &str) -> Result<String, UniDmError> {
    Ok(llm.complete(target_prompt)?.text.clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::protocol::{claim_query_imputation, SerializedRecord, TaskKind};
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_world::World;

    fn llm() -> MockLlm {
        MockLlm::new(&World::generate(7), LlmProfile::gpt4_turbo(), 1)
    }

    fn claim() -> Claim {
        Claim {
            task: TaskKind::Imputation,
            context: "Florence belongs to the country Italy and is in the timezone Central \
                      European Time."
                .into(),
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
    fn constructed_prompt_is_cloze() {
        let p = build_target_prompt(&llm(), &PipelineConfig::paper_default(), &claim()).unwrap();
        assert!(p.contains("__"), "{p}");
    }

    #[test]
    fn disabled_prompt_is_flat() {
        let cfg = PipelineConfig {
            prompt_construction: false,
            ..PipelineConfig::paper_default()
        };
        let p = build_target_prompt(&llm(), &cfg, &claim()).unwrap();
        assert!(p.starts_with("Task: "));
    }

    #[test]
    fn answer_completes_cloze() {
        let m = llm();
        let p = build_target_prompt(&m, &PipelineConfig::paper_default(), &claim()).unwrap();
        let y = answer(&m, &p).unwrap();
        assert_eq!(y, "Central European Time");
    }
}
