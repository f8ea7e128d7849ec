//! Step 3 — target prompt construction (paper §4.4).
//!
//! With prompt construction enabled, the claim `(T, C', Q)` goes through
//! `p_cq` and the LLM emits a cloze question `p_as`; otherwise the claim is
//! concatenated directly. Either way the resulting target prompt is fed
//! back to the LLM for the final answer.
//!
//! Caching note: the `p_cq` prompt leads with its task's demonstration
//! (paper appendix A), or all four for a task the paper gives none, the
//! same text in every prompt of that task; only the final claim varies,
//! and [`crate::canon`] never rewrites it. Two runs share one
//! cloze-construction entry under a [`crate::PromptCache`] exactly when
//! their task, context and query coincide.

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
    match pcq_prompt(config, claim) {
        Some(prompt) => Ok(llm.complete(&prompt)?.text.clone()),
        None => Ok(render_simple(claim)),
    }
}

/// Target prompt construction's render half: the `p_cq` prompt, or `None`
/// when construction is off and the claim is concatenated directly
/// ([`render_simple`]). The reply is the target prompt.
pub(crate) fn pcq_prompt(config: &PipelineConfig, claim: &Claim) -> Option<String> {
    config.prompt_construction.then(|| render_pcq(claim))
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
