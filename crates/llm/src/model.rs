//! The `LanguageModel` trait and token accounting.

use std::sync::Arc;

use crate::profile::LatencyProfile;
use crate::LlmError;

/// Token usage of one or more completions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Usage {
    /// Tokens in prompts.
    pub prompt_tokens: usize,
    /// Tokens in completions.
    pub completion_tokens: usize,
}

impl Usage {
    /// Total tokens (prompt + completion).
    pub fn total(&self) -> usize {
        self.prompt_tokens + self.completion_tokens
    }

    /// Adds another usage into this one.
    pub fn add(&mut self, other: Usage) {
        self.prompt_tokens += other.prompt_tokens;
        self.completion_tokens += other.completion_tokens;
    }
}

/// One completion returned by a model.
///
/// Completions travel the stack as `Arc<Completion>`: a memoizing layer
/// (`unidm::PromptCache`) can serve the same completion to many callers by
/// bumping a reference count instead of cloning the payload text, which is
/// what keeps its warm hit path allocation-free.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Completion {
    /// The completed text.
    pub text: String,
    /// Tokens consumed by this call.
    pub usage: Usage,
}

impl Completion {
    /// Wraps a completion for the trait's shared return shape.
    pub fn shared(text: String, usage: Usage) -> Arc<Completion> {
        Arc::new(Completion { text, usage })
    }
}

/// A text-in / text-out language model.
///
/// The UniDM pipeline, the FM baseline and the fine-tuning harness are all
/// written against this trait; [`crate::MockLlm`] is the offline
/// implementation. The trait is object-safe so pipelines can hold
/// `&dyn LanguageModel`.
///
/// Implementations must be `Send + Sync`: the batch execution engine fans
/// pipeline runs out across worker threads that share one model reference,
/// so any interior mutability (usage counters, caches) must be
/// thread-safe. Per-call token cost is reported inside each
/// [`Completion`]; the cumulative [`LanguageModel::usage`] counter is a
/// convenience for whole-process accounting and must never be diffed to
/// attribute cost to an individual run (concurrent runs interleave).
pub trait LanguageModel: Send + Sync {
    /// A human-readable model name ("GPT-3-175B").
    fn name(&self) -> &str;

    /// Completes `prompt`.
    ///
    /// The completion is returned behind an [`Arc`] so caching layers can
    /// hand the same payload to any number of callers without cloning it;
    /// producing models wrap each fresh completion once at creation.
    ///
    /// # Errors
    ///
    /// Returns [`LlmError::EmptyPrompt`] for an empty prompt and
    /// [`LlmError::PromptTooLong`] when the prompt exceeds the context
    /// window.
    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError>;

    /// Cumulative token usage since construction or the last reset.
    fn usage(&self) -> Usage;

    /// Resets the cumulative usage counter.
    fn reset_usage(&self);

    /// The model's context window in tokens. Callers should keep prompts
    /// under this bound; [`LanguageModel::complete`] rejects longer ones.
    fn context_window(&self) -> usize {
        usize::MAX
    }

    /// The serving-latency shape of this endpoint, used by event-driven
    /// schedulers (`unidm::dispatch`) to place completion deadlines when no
    /// fault plan supplies latencies. Pass-through layers (caches,
    /// backends) should forward their inner model's profile; producing
    /// models override it (see [`crate::LlmProfile::latency`]). The default
    /// is a generic hosted-endpoint shape.
    fn latency_profile(&self) -> LatencyProfile {
        LatencyProfile::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_totals() {
        let mut u = Usage {
            prompt_tokens: 10,
            completion_tokens: 5,
        };
        assert_eq!(u.total(), 15);
        u.add(Usage {
            prompt_tokens: 1,
            completion_tokens: 2,
        });
        assert_eq!(u.prompt_tokens, 11);
        assert_eq!(u.completion_tokens, 7);
    }

    #[test]
    fn trait_is_object_safe() {
        fn _takes(_m: &dyn LanguageModel) {}
    }

    #[test]
    fn models_are_send_sync() {
        fn assert_send_sync<T: Send + Sync + ?Sized>() {}
        assert_send_sync::<dyn LanguageModel>();
    }
}
