//! `MockLlm`: the deterministic simulated language model.

use std::sync::{Arc, Mutex};

use unidm_text::count_tokens;
use unidm_world::World;

use crate::kb::KnowledgeBase;
use crate::model::{Completion, LanguageModel, Usage};
use crate::profile::LlmProfile;
use crate::protocol;
use crate::skills;
use crate::{Dice, LlmError};

/// A deterministic simulated LLM.
///
/// Dispatches incoming prompts to the skill matching their shape (retrieval
/// scoring, context parsing, cloze generation, final answering) and accounts
/// tokens on every call. The same prompt always yields the same completion.
///
/// A completion is a function of the prompt's bytes only: the model holds
/// no state a call could change but its usage total. `p_ri` and `p_dp` are
/// answered off the prompt's own record lines
/// ([`PriPrompt`](crate::protocol::PriPrompt),
/// [`PdpPrompt`](crate::protocol::PdpPrompt)); a line that is not its own
/// [`render`](crate::protocol::SerializedRecord::render) is scored on its
/// render, so two prompts that spell one record differently get the answer
/// the canonical spelling gets.
///
/// # Examples
///
/// ```
/// use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
/// use unidm_world::World;
///
/// # fn main() -> Result<(), unidm_llm::LlmError> {
/// let world = World::generate(42);
/// let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
/// let reply = llm.complete(
///     "The task is [data imputation]. The target query is [Copenhagen, timezone]. \
///      The candidate attributes are [country, population]. Which attributes are \
///      helpful for the task and the query?",
/// )?;
/// assert!(reply.text.contains("country"));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct MockLlm {
    profile: LlmProfile,
    kb: KnowledgeBase,
    dice: Dice,
    usage: Mutex<Usage>,
}

impl MockLlm {
    /// Creates a model whose pretraining memory is sampled from `world` at
    /// the profile's knowledge coverage.
    pub fn new(world: &World, profile: LlmProfile, seed: u64) -> Self {
        let kb = KnowledgeBase::from_world(world, profile.knowledge, seed);
        Self::with_kb(profile, kb, seed)
    }

    /// Creates a model with an explicit knowledge base (e.g. empty, for
    /// testing pure in-context behaviour).
    pub fn with_kb(profile: LlmProfile, kb: KnowledgeBase, seed: u64) -> Self {
        MockLlm {
            profile,
            kb,
            dice: Dice::new(seed),
            usage: Mutex::new(Usage::default()),
        }
    }

    /// The model's capability profile.
    pub fn profile(&self) -> &LlmProfile {
        &self.profile
    }

    /// The model's pretraining memory.
    pub fn kb(&self) -> &KnowledgeBase {
        &self.kb
    }

    /// A copy of this model with a different profile but the same memory
    /// and seed (used by the fine-tuning harness).
    pub fn with_profile(&self, profile: LlmProfile) -> MockLlm {
        MockLlm {
            profile,
            kb: self.kb.clone(),
            dice: self.dice,
            usage: Mutex::new(Usage::default()),
        }
    }

    fn respond(&self, prompt: &str) -> String {
        if let Some(req) = protocol::parse_prm(prompt) {
            return skills::retrieval::select_attributes(&req, &self.profile, &self.dice, &self.kb);
        }
        if let Some(read) = protocol::PriPrompt::read(prompt) {
            return skills::retrieval::score_instances(&read, &self.profile, &self.dice, &self.kb);
        }
        if let Some(read) = protocol::PdpPrompt::read(prompt) {
            return skills::parsing::parse_context(&read, &self.profile, &self.dice);
        }
        if let Some(claim) = protocol::parse_pcq(prompt) {
            return skills::cloze_gen::generate_cloze(&claim, &self.profile, &self.dice);
        }
        if let Some(req) = protocol::parse_answer_request(prompt) {
            return skills::answer::answer(&req, &self.profile, &self.dice, &self.kb);
        }
        if let Some(req) = protocol::parse_fm(prompt) {
            return skills::answer::answer(&req, &self.profile, &self.dice, &self.kb);
        }
        // A prompt the model does not understand still gets a reply.
        "I'm not sure.".to_string()
    }
}

impl LanguageModel for MockLlm {
    fn name(&self) -> &str {
        &self.profile.name
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        if prompt.trim().is_empty() {
            return Err(LlmError::EmptyPrompt);
        }
        let prompt_tokens = count_tokens(prompt);
        if prompt_tokens > self.profile.context_window {
            return Err(LlmError::PromptTooLong {
                tokens: prompt_tokens,
                limit: self.profile.context_window,
            });
        }
        let text = self.respond(prompt);
        let usage = Usage {
            prompt_tokens,
            completion_tokens: count_tokens(&text),
        };
        self.usage.lock().expect("usage lock poisoned").add(usage);
        Ok(Completion::shared(text, usage))
    }

    fn usage(&self) -> Usage {
        *self.usage.lock().expect("usage lock poisoned")
    }

    fn reset_usage(&self) {
        *self.usage.lock().expect("usage lock poisoned") = Usage::default();
    }

    fn context_window(&self) -> usize {
        self.profile.context_window
    }

    fn latency_profile(&self) -> crate::LatencyProfile {
        self.profile.latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{render_pdp, render_pri, SerializedRecord, TaskKind};

    fn llm() -> MockLlm {
        MockLlm::new(&World::generate(7), LlmProfile::gpt3_175b(), 1)
    }

    #[test]
    fn empty_prompt_rejected() {
        assert_eq!(llm().complete("  "), Err(LlmError::EmptyPrompt));
    }

    #[test]
    fn too_long_prompt_rejected() {
        let m = MockLlm::with_kb(
            LlmProfile {
                context_window: 10,
                ..LlmProfile::gpt3_175b()
            },
            KnowledgeBase::empty(),
            1,
        );
        let long = "word ".repeat(100);
        assert!(matches!(
            m.complete(&long),
            Err(LlmError::PromptTooLong { .. })
        ));
    }

    #[test]
    fn usage_accumulates_and_resets() {
        let m = llm();
        m.complete("hello there, model").unwrap();
        m.complete("second prompt").unwrap();
        let u = m.usage();
        assert!(u.prompt_tokens > 0);
        assert!(u.completion_tokens > 0);
        m.reset_usage();
        assert_eq!(m.usage().total(), 0);
    }

    #[test]
    fn dispatches_pri() {
        let m = llm();
        let prompt = render_pri(
            TaskKind::Imputation,
            "Copenhagen, timezone",
            &[SerializedRecord::new(vec![(
                "city".into(),
                "Florence".into(),
            )])],
        );
        let reply = m.complete(&prompt).unwrap();
        assert!(!crate::protocol::parse_pri_response(&reply.text).is_empty());
    }

    #[test]
    fn dispatches_pdp() {
        let m = llm();
        let prompt = render_pdp(&[SerializedRecord::new(vec![
            ("city".into(), "Florence".into()),
            ("country".into(), "Italy".into()),
        ])]);
        let reply = m.complete(&prompt).unwrap();
        assert!(reply.text.contains("Florence"));
        assert!(reply.text.contains("Italy"));
    }

    #[test]
    fn unknown_prompt_gets_fallback() {
        let m = llm();
        let reply = m.complete("Sing me a song about crabs").unwrap();
        assert_eq!(reply.text, "I'm not sure.");
    }

    #[test]
    fn deterministic_completions() {
        let a = llm().complete("Sing me a song about crabs").unwrap();
        let b = llm().complete("Sing me a song about crabs").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn name_reports_profile() {
        assert_eq!(llm().name(), "GPT-3-175B");
    }
}
