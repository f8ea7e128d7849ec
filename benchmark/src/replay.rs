//! The benchmark-owned endpoint: record once against `MockLlm`, replay
//! from a map while measuring.
//!
//! `MockLlm` stands in for the hosted model and costs about nine tenths of
//! a live task, so timing it would measure the stand-in. During set-up
//! every workload drives its inputs once through the program under test
//! against a [`Recorder`]; measured passes then run the same program
//! against the [`ReplayEndpoint`] built from it. Because recording uses
//! the commit under test, a change that legitimately alters prompts still
//! replays; a prompt the recording never saw is a *fall-through*, counted
//! here and failing the run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use unidm_llm::{Completion, LanguageModel, LatencyProfile, LlmError, Usage};

type Recorded = Result<Arc<Completion>, LlmError>;

/// The `LanguageModel` methods a wrapper around `self.inner` passes
/// straight through; the wrapper writes `complete` itself.
macro_rules! forward_to_inner {
    () => {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn usage(&self) -> unidm_llm::Usage {
            self.inner.usage()
        }

        fn reset_usage(&self) {
            self.inner.reset_usage();
        }

        fn context_window(&self) -> usize {
            self.inner.context_window()
        }

        fn latency_profile(&self) -> unidm_llm::LatencyProfile {
            self.inner.latency_profile()
        }
    };
}
pub(crate) use forward_to_inner;

/// A pass-through that remembers every `(prompt, result)` it forwards.
pub struct Recorder<'a> {
    inner: &'a dyn LanguageModel,
    seen: Mutex<HashMap<String, Recorded>>,
}

impl<'a> Recorder<'a> {
    /// Records everything forwarded to `inner`.
    pub fn new(inner: &'a dyn LanguageModel) -> Self {
        Recorder {
            inner,
            seen: Mutex::new(HashMap::new()),
        }
    }

    /// Freezes the recording into an endpoint that answers from it and
    /// carries the recorded model's name, window and latency profile.
    pub fn into_replay(self) -> ReplayEndpoint {
        ReplayEndpoint {
            name: self.inner.name().to_string(),
            context_window: self.inner.context_window(),
            latency: self.inner.latency_profile(),
            map: self.seen.into_inner().expect("recorder lock poisoned"),
            fallback: Completion::shared(FALLTHROUGH_TEXT.to_string(), Usage::default()),
            calls: AtomicU64::new(0),
            fallthrough: AtomicU64::new(0),
            prompt_tokens: AtomicU64::new(0),
            completion_tokens: AtomicU64::new(0),
        }
    }
}

impl LanguageModel for Recorder<'_> {
    forward_to_inner!();

    fn complete(&self, prompt: &str) -> Recorded {
        let result = self.inner.complete(prompt);
        let mut seen = self.seen.lock().expect("recorder lock poisoned");
        if !seen.contains_key(prompt) {
            seen.insert(prompt.to_string(), result.clone());
        }
        result
    }
}

/// What a fall-through answers, so a pass can finish and report how many
/// it had instead of unwinding at the first.
pub const FALLTHROUGH_TEXT: &str = "<replay fall-through>";

/// What reached the endpoint since the last [`ReplayEndpoint::reset`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EndpointCounts {
    /// Completions requested, fall-throughs included.
    pub calls: u64,
    /// Requests for a prompt the recording never saw.
    pub fallthrough: u64,
    /// Prompt + completion tokens of the completions served.
    pub tokens: u64,
}

/// A prompt → recorded-result map behind the `LanguageModel` trait.
pub struct ReplayEndpoint {
    name: String,
    context_window: usize,
    latency: LatencyProfile,
    map: HashMap<String, Recorded>,
    fallback: Arc<Completion>,
    calls: AtomicU64,
    fallthrough: AtomicU64,
    prompt_tokens: AtomicU64,
    completion_tokens: AtomicU64,
}

impl ReplayEndpoint {
    /// The prompts the endpoint can answer, sorted (so probes that walk
    /// them do the same work on every run).
    pub fn prompts(&self) -> Vec<&str> {
        let mut prompts: Vec<&str> = self.map.keys().map(String::as_str).collect();
        prompts.sort_unstable();
        prompts
    }

    /// The recorded result for `prompt`, if any, without counting a call.
    pub fn recorded(&self, prompt: &str) -> Option<&Recorded> {
        self.map.get(prompt)
    }

    /// Counters since construction or the last reset.
    pub fn counts(&self) -> EndpointCounts {
        EndpointCounts {
            calls: self.calls.load(Ordering::Relaxed),
            fallthrough: self.fallthrough.load(Ordering::Relaxed),
            tokens: self.prompt_tokens.load(Ordering::Relaxed)
                + self.completion_tokens.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter (between passes, outside the timed region).
    pub fn reset(&self) {
        for counter in [
            &self.calls,
            &self.fallthrough,
            &self.prompt_tokens,
            &self.completion_tokens,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

impl LanguageModel for ReplayEndpoint {
    fn name(&self) -> &str {
        &self.name
    }

    fn complete(&self, prompt: &str) -> Recorded {
        self.calls.fetch_add(1, Ordering::Relaxed);
        match self.map.get(prompt) {
            Some(recorded) => {
                if let Ok(completion) = recorded {
                    self.prompt_tokens
                        .fetch_add(completion.usage.prompt_tokens as u64, Ordering::Relaxed);
                    self.completion_tokens
                        .fetch_add(completion.usage.completion_tokens as u64, Ordering::Relaxed);
                }
                recorded.clone()
            }
            None => {
                self.fallthrough.fetch_add(1, Ordering::Relaxed);
                Ok(self.fallback.clone())
            }
        }
    }

    fn usage(&self) -> Usage {
        Usage {
            prompt_tokens: self.prompt_tokens.load(Ordering::Relaxed) as usize,
            completion_tokens: self.completion_tokens.load(Ordering::Relaxed) as usize,
        }
    }

    fn reset_usage(&self) {
        self.prompt_tokens.store(0, Ordering::Relaxed);
        self.completion_tokens.store(0, Ordering::Relaxed);
    }

    fn context_window(&self) -> usize {
        self.context_window
    }

    fn latency_profile(&self) -> LatencyProfile {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl LanguageModel for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn complete(&self, prompt: &str) -> Recorded {
            if prompt.is_empty() {
                return Err(LlmError::EmptyPrompt);
            }
            Ok(Completion::shared(
                prompt.to_uppercase(),
                Usage {
                    prompt_tokens: prompt.len(),
                    completion_tokens: 1,
                },
            ))
        }

        fn usage(&self) -> Usage {
            Usage::default()
        }

        fn reset_usage(&self) {}

        fn context_window(&self) -> usize {
            77
        }
    }

    #[test]
    fn replay_serves_recorded_results_and_counts_fall_through() {
        let echo = Echo;
        let recorder = Recorder::new(&echo);
        recorder.complete("abc").unwrap();
        recorder.complete("abc").unwrap();
        assert!(recorder.complete("").is_err());

        let replay = recorder.into_replay();
        assert_eq!(replay.name(), "echo");
        assert_eq!(replay.context_window(), 77);
        assert_eq!(replay.complete("abc").unwrap().text, "ABC");
        assert_eq!(replay.complete(""), Err(LlmError::EmptyPrompt));
        assert_eq!(
            replay.counts(),
            EndpointCounts {
                calls: 2,
                fallthrough: 0,
                tokens: 4
            }
        );

        // Two prompts the recording never saw: answered, and counted.
        assert_eq!(
            replay.complete("never seen").unwrap().text,
            FALLTHROUGH_TEXT
        );
        replay.complete("nor this").unwrap();
        assert_eq!(replay.counts().fallthrough, 2);
        assert_eq!(replay.counts().calls, 4);
        assert_eq!(replay.counts().tokens, 4, "fall-throughs bill nothing");

        replay.reset();
        assert_eq!(replay.counts(), EndpointCounts::default());
        assert_eq!(replay.usage(), Usage::default());
        assert_eq!(replay.prompts(), vec!["", "abc"]);
    }
}
