//! Simulated large-language-model substrate for the UniDM reproduction.
//!
//! The paper drives every pipeline step through a hosted LLM (GPT-3-175B by
//! default). Offline, we replace the hosted model with [`MockLlm`]: a
//! deterministic simulator that preserves the *mechanism* the paper relies
//! on — answers come either from facts present in the prompt context or from
//! the model's own (incomplete) pretraining memory — while exposing the same
//! text-in/text-out interface ([`LanguageModel`]).
//!
//! # Architecture
//!
//! * [`protocol`] — the prompt grammar: renderers (used by the UniDM
//!   pipeline and the FM baseline) and parsers (used by the mock model).
//!   Every template the paper prints (`p_rm`, `p_ri`, `p_dp`, `p_cq`, cloze
//!   questions, FM-style prompts) has a renderer/parser pair with round-trip
//!   tests.
//! * [`kb`] — the model's pretraining memory: a coverage-limited sample of
//!   the synthetic world's facts. What the model "knows" is a strict subset
//!   of what is true.
//! * [`profile`] — capability profiles for the model zoo (GPT-3-175B,
//!   GPT-4-Turbo, Claude2, LLaMA2-7B/70B, Qwen-7B, GPT-J-6B): knowledge
//!   coverage, context-reading fidelity, reasoning, instruction following.
//! * [`skills`] — one module per prompt shape: attribute selection,
//!   instance scoring, context parsing, cloze generation, final answering,
//!   by-example transformation induction.
//! * [`finetune`] — lightweight fine-tuning simulation (Table 5): training
//!   pairs raise task-specific competence with diminishing returns.
//! * Token accounting on every call (Table 7) via [`Usage`].
//! * [`clock`] / [`sim`] — the simulated serving layer: a deterministic
//!   [`VirtualClock`] and [`SimBackend`], a seeded fault injector
//!   (timeouts, 429s, transient 5xx errors, latency spikes) that wraps any
//!   model, so the resilient backend substrate in `unidm::backend` is
//!   testable without a network.
//!
//! # Determinism
//!
//! All randomness is derived by hashing `(model seed, prompt, decision tag)`
//! — the same prompt to the same model always yields the same completion,
//! and there is no hidden mutable RNG state. That purity is what makes the
//! execution substrates in `unidm::exec` sound: a prompt cache can memoize
//! (and even persist) completions, and a batch pool can replay them on any
//! thread, without changing a single answer.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
mod determinism;
mod error;
pub mod finetune;
pub mod kb;
mod mock;
mod model;
pub mod profile;
pub mod protocol;
pub mod sim;
pub mod skills;

pub use clock::{Clock, SystemClock, TimerWheel, VirtualClock};
pub use determinism::{Dice, DiceContext};
pub use error::LlmError;
pub use kb::KnowledgeBase;
pub use mock::MockLlm;
pub use model::{Completion, LanguageModel, Usage, UsageMeter};
pub use profile::{LatencyProfile, LlmProfile};
pub use sim::{AttemptSample, FaultPlan, FaultStats, SimBackend, StackPrompt};
