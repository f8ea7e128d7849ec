//! Capability profiles: the model zoo of Tables 5 and 6.
//!
//! Each hosted model the paper evaluates is represented by a handful of
//! capability probabilities. The values are calibrated so that *relative*
//! behaviour matches the paper (GPT-4 > GPT-3 > Claude2 > LLaMA2-70B >
//! LLaMA2-7B ≈ Qwen-7B ≫ GPT-J-6B; fine-tuned 7B ≈ 175B); absolute numbers
//! carry no meaning beyond that ordering.

use crate::model::Usage;

/// Serving-latency profile of a model endpoint, in integer microseconds.
///
/// Where [`LlmProfile`] describes what a model *answers*, `LatencyProfile`
/// describes how long an attempt *takes*: a fixed per-request overhead plus
/// linear per-token terms (prompt tokens are prefill, completion tokens are
/// decode — decode dominates, as it does on real endpoints). Integer fields
/// keep the profile `Eq`/`Hash` and virtual timelines exactly reproducible.
///
/// The serving reactor (`unidm::dispatch`) uses this to schedule a
/// completion deadline for endpoints that have no [`crate::FaultPlan`]
/// attached; absolute values are illustrative, only the ordering across the
/// zoo is meaningful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LatencyProfile {
    /// Fixed per-attempt overhead (queueing, network), microseconds.
    pub base_us: u64,
    /// Prefill cost per prompt token, microseconds.
    pub per_prompt_token_us: u64,
    /// Decode cost per completion token, microseconds.
    pub per_completion_token_us: u64,
}

impl LatencyProfile {
    /// The virtual latency of one attempt with the given token usage.
    pub fn latency_us(&self, usage: Usage) -> u64 {
        self.base_us
            + self.per_prompt_token_us * usage.prompt_tokens as u64
            + self.per_completion_token_us * usage.completion_tokens as u64
    }
}

impl Default for LatencyProfile {
    /// A generic hosted-endpoint shape: 20ms overhead, cheap prefill,
    /// 10ms/token decode.
    fn default() -> Self {
        LatencyProfile {
            base_us: 20_000,
            per_prompt_token_us: 50,
            per_completion_token_us: 10_000,
        }
    }
}

/// Capability profile of a simulated model.
#[derive(Debug, Clone, PartialEq)]
pub struct LlmProfile {
    /// Display name.
    pub name: String,
    /// Parameter count in billions (reported, not used mechanically).
    pub params_b: f64,
    /// Fraction of world facts present in pretraining memory, `[0, 1]`.
    pub knowledge: f64,
    /// Probability of correctly reading a fact that is present in prompt
    /// context rendered as natural text.
    pub context_fidelity: f64,
    /// Probability of performing a multi-hop / arithmetic / induction step
    /// correctly.
    pub reasoning: f64,
    /// Probability of following a meta-instruction (scoring, selection,
    /// format rewriting) correctly.
    pub instruction: f64,
    /// Quality of the model's yes/no decision boundary on binary
    /// classification prompts. Small chat models are notoriously
    /// mis-calibrated here even when they follow other instructions well —
    /// the paper's LLaMA2-7B scores 40.6 zero-shot ER F1 while managing 86%
    /// imputation accuracy.
    pub calibration: f64,
    /// Task competence added by fine-tuning, `[0, 1]`; `0` when not tuned.
    pub domain_adaptation: f64,
    /// Context window in tokens.
    pub context_window: usize,
}

impl LlmProfile {
    /// GPT-3-175B (`text-davinci-003`), the paper's default model.
    pub fn gpt3_175b() -> Self {
        LlmProfile {
            name: "GPT-3-175B".into(),
            params_b: 175.0,
            knowledge: 0.88,
            context_fidelity: 0.965,
            reasoning: 0.94,
            instruction: 0.93,
            calibration: 0.95,
            domain_adaptation: 0.0,
            context_window: 16_384,
        }
    }

    /// GPT-4-Turbo.
    pub fn gpt4_turbo() -> Self {
        LlmProfile {
            name: "GPT-4-Turbo".into(),
            params_b: 1000.0,
            knowledge: 0.95,
            context_fidelity: 0.99,
            reasoning: 0.97,
            instruction: 0.98,
            calibration: 0.97,
            domain_adaptation: 0.0,
            context_window: 128_000,
        }
    }

    /// Claude2 (about 100B per the paper).
    pub fn claude2() -> Self {
        LlmProfile {
            name: "Claude2".into(),
            params_b: 100.0,
            knowledge: 0.84,
            context_fidelity: 0.95,
            reasoning: 0.91,
            instruction: 0.93,
            calibration: 0.90,
            domain_adaptation: 0.0,
            context_window: 100_000,
        }
    }

    /// LLaMA2-7B.
    pub fn llama2_7b() -> Self {
        LlmProfile {
            name: "LLaMA2-7B".into(),
            params_b: 7.0,
            knowledge: 0.78,
            context_fidelity: 0.92,
            reasoning: 0.80,
            instruction: 0.84,
            calibration: 0.35,
            domain_adaptation: 0.0,
            context_window: 4_096,
        }
    }

    /// LLaMA2-70B.
    pub fn llama2_70b() -> Self {
        LlmProfile {
            name: "LLaMA2-70B".into(),
            params_b: 70.0,
            knowledge: 0.83,
            context_fidelity: 0.94,
            reasoning: 0.86,
            instruction: 0.89,
            calibration: 0.75,
            domain_adaptation: 0.0,
            context_window: 4_096,
        }
    }

    /// Qwen-7B.
    pub fn qwen_7b() -> Self {
        LlmProfile {
            name: "Qwen-7B".into(),
            params_b: 7.0,
            knowledge: 0.76,
            context_fidelity: 0.91,
            reasoning: 0.80,
            instruction: 0.83,
            calibration: 0.45,
            domain_adaptation: 0.0,
            context_window: 8_192,
        }
    }

    /// GPT-J-6B — an older base model with weak instruction following,
    /// which is why its zero-shot ER F1 collapses in Table 5.
    pub fn gptj_6b() -> Self {
        LlmProfile {
            name: "GPT-J-6B".into(),
            params_b: 6.0,
            knowledge: 0.55,
            context_fidelity: 0.75,
            reasoning: 0.55,
            instruction: 0.18,
            calibration: 0.15,
            domain_adaptation: 0.0,
            context_window: 2_048,
        }
    }

    /// The full zoo evaluated in Table 6, in the paper's row order.
    pub fn zoo() -> Vec<LlmProfile> {
        vec![
            Self::gpt3_175b(),
            Self::gpt4_turbo(),
            Self::claude2(),
            Self::llama2_7b(),
            Self::llama2_70b(),
            Self::qwen_7b(),
        ]
    }

    /// Effective instruction-following after fine-tuning.
    pub fn effective_instruction(&self) -> f64 {
        (self.instruction + self.domain_adaptation * (1.0 - self.instruction)).min(0.99)
    }

    /// Effective binary-decision calibration after fine-tuning. Training a
    /// head on labelled pairs is precisely what repairs a mis-calibrated
    /// decision boundary, so fine-tuning moves this the most.
    pub fn effective_calibration(&self) -> f64 {
        (self.calibration + self.domain_adaptation * (1.0 - self.calibration)).min(0.99)
    }

    /// Effective reasoning after fine-tuning.
    pub fn effective_reasoning(&self) -> f64 {
        (self.reasoning + 0.8 * self.domain_adaptation * (1.0 - self.reasoning)).min(0.99)
    }

    /// The serving-latency profile implied by this model's size: bigger
    /// models pay more per decoded token. Derived deterministically from
    /// `params_b` so the mapping stays `Eq`-stable across runs.
    pub fn latency(&self) -> LatencyProfile {
        // ~6ms/token for a 7B-class model up to ~25ms/token at 1T-class,
        // on a log-ish scale: decode_us = 5ms + 20us * sqrt(params_b * 1e3).
        let scaled = (self.params_b.max(1.0) * 1000.0).sqrt() as u64;
        LatencyProfile {
            base_us: 15_000,
            per_prompt_token_us: 40,
            per_completion_token_us: 5_000 + 20 * scaled,
        }
    }

    /// Billing cost per token in integer micro-units, derived
    /// deterministically from model size: `20 + 2 * params_b`. Absolute
    /// values carry no meaning, only the ratio across the zoo — a
    /// 175B-class model bills ~11× a 7B-class one, matching the order of
    /// magnitude real per-token price sheets show. Integer output keeps
    /// cascade cost accounting exact.
    pub fn cost_micro_per_token(&self) -> u64 {
        20 + (self.params_b.max(0.0) * 2.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zoo_ordering() {
        let gpt4 = LlmProfile::gpt4_turbo();
        let gpt3 = LlmProfile::gpt3_175b();
        let l7 = LlmProfile::llama2_7b();
        let l70 = LlmProfile::llama2_70b();
        assert!(gpt4.knowledge > gpt3.knowledge);
        assert!(gpt3.knowledge > l70.knowledge);
        assert!(l70.knowledge > l7.knowledge);
    }

    #[test]
    fn gptj_weak_instructions() {
        assert!(LlmProfile::gptj_6b().instruction < 0.5);
    }

    #[test]
    fn fine_tuning_lifts_effective_capabilities() {
        let mut p = LlmProfile::gptj_6b();
        let before = p.effective_instruction();
        p.domain_adaptation = 0.9;
        assert!(p.effective_instruction() > before);
        assert!(p.effective_instruction() <= 0.99);
    }

    #[test]
    fn zoo_has_six_models() {
        assert_eq!(LlmProfile::zoo().len(), 6);
    }

    #[test]
    fn latency_profiles_order_by_model_size() {
        let small = LlmProfile::llama2_7b().latency();
        let big = LlmProfile::gpt4_turbo().latency();
        assert!(big.per_completion_token_us > small.per_completion_token_us);
        // Same profile, same latency — the mapping is a pure function.
        assert_eq!(small, LlmProfile::llama2_7b().latency());
    }

    #[test]
    fn token_costs_order_by_model_size_and_stay_exact() {
        let small = LlmProfile::llama2_7b().cost_micro_per_token();
        let large = LlmProfile::gpt3_175b().cost_micro_per_token();
        assert_eq!(small, 34);
        assert_eq!(large, 370);
        assert!(
            large > small * 10,
            "large must bill an order of magnitude above small"
        );
        // Pure function of the profile: identical across calls.
        assert_eq!(large, LlmProfile::gpt3_175b().cost_micro_per_token());
    }

    #[test]
    fn latency_is_linear_in_tokens() {
        let p = LatencyProfile {
            base_us: 1_000,
            per_prompt_token_us: 10,
            per_completion_token_us: 100,
        };
        let usage = Usage {
            prompt_tokens: 20,
            completion_tokens: 5,
        };
        assert_eq!(p.latency_us(usage), 1_000 + 200 + 500);
        assert_eq!(p.latency_us(Usage::default()), 1_000);
    }
}
