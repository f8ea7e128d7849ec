//! Acceptance tests for the small→large model cascade
//! (`unidm::route::CascadeBackend`).
//!
//! The contract (ISSUE 7): escalation fires *exactly* on unparseable or
//! low-confidence cheap answers (counts pinned, independently recomputed
//! and reproduced on rerun); on the escalated subset the cascade serves
//! byte-identical large-model answers; and on the eval workload the
//! cascade's large-tier token consumption and billed cost are strictly
//! below a large-model-only run.
//!
//! Token accounting note: the cheap tier sees every prompt, so the
//! cascade's *raw* token total (cheap + large) necessarily exceeds the
//! large-only total. The meaningful comparison — and the one the paper's
//! cost argument rests on — is large-model tokens avoided and billed
//! cost (`LlmProfile::cost_micro_per_token`-weighted tokens), both
//! asserted strictly here.

mod common;

use common::PromptLog;
use unidm::route::{answer_confidence_permille, CascadeBackend, CascadePolicy};
use unidm::{BatchRunner, PipelineConfig, Task};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::imputation;
use unidm_tablestore::DataLake;
use unidm_world::World;

const WORKLOAD: usize = 30;

/// The eval workload's prompt stream: every unique prompt a serial
/// paper-default imputation batch issues to the large model.
fn eval_prompts(world: &World, large: &MockLlm) -> Vec<String> {
    let ds = imputation::restaurant(world, 42, WORKLOAD);
    let lake: DataLake = [ds.table.clone()].into_iter().collect();
    let tasks: Vec<Task> = ds
        .targets
        .iter()
        .map(|t| {
            Task::imputation(
                ds.table.name(),
                t.row,
                ds.target_attr.clone(),
                ds.key_attr.clone(),
            )
        })
        .collect();
    let log = PromptLog::new(large);
    BatchRunner::new(&log, PipelineConfig::paper_default().with_seed(42))
        .with_workers(1)
        .answers(&lake, &tasks);
    // Deduplicated in first-seen order.
    let mut prompts: Vec<String> = Vec::new();
    for prompt in log.prompts() {
        if !prompts.contains(&prompt) {
            prompts.push(prompt);
        }
    }
    assert!(
        prompts.len() > 50,
        "the eval workload must produce a real prompt stream: {}",
        prompts.len()
    );
    prompts
}

fn models() -> (World, MockLlm, MockLlm) {
    let world = World::generate(42);
    let cheap = MockLlm::new(&world, LlmProfile::gptj_6b(), 42);
    let large = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    (world, cheap, large)
}

/// The gate used throughout this suite. The mock zoo answers final cloze
/// prompts tersely and confidently even when wrong, so the discriminating
/// signal on this workload is hedging *structure* (question marks in
/// cloze rewrites, rambling outputs); 600 puts the gate above that
/// stratum and below clean answers.
const GATE: CascadePolicy = CascadePolicy { gate_permille: 600 };

fn cascade<'a>(cheap: &'a MockLlm, large: &'a MockLlm) -> CascadeBackend<'a> {
    CascadeBackend::new(cheap, large)
        .with_policy(GATE)
        .with_costs_of(&LlmProfile::gptj_6b(), &LlmProfile::gpt3_175b())
}

/// Escalation fires exactly when the cheap answer is unparseable or
/// below the confidence gate — the count matches an independent replay
/// of the gate, decomposes exactly, and reproduces on rerun.
#[test]
fn escalations_fire_exactly_on_unparseable_or_low_confidence_answers() {
    let (world, cheap, large) = models();
    let prompts = eval_prompts(&world, &large);
    let gate = GATE.gate_permille;

    // Independent expectation: ask the cheap model directly and apply the
    // gate by hand.
    let mut expected_escalations = 0u64;
    let mut expected_unparseable = 0u64;
    for p in &prompts {
        let confidence = answer_confidence_permille(&cheap.complete(p).unwrap().text);
        if confidence < gate {
            expected_escalations += 1;
            if confidence == 0 {
                expected_unparseable += 1;
            }
        }
    }
    assert!(
        expected_escalations > 0,
        "the small model must trip the gate somewhere on this workload"
    );
    assert!(
        expected_escalations < prompts.len() as u64,
        "the small model must also clear the gate somewhere"
    );

    let run = || {
        let cascade = cascade(&cheap, &large);
        for p in &prompts {
            cascade.complete(p).unwrap();
        }
        cascade.stats()
    };
    let stats = run();
    assert_eq!(stats.calls, prompts.len() as u64);
    assert_eq!(stats.escalations, expected_escalations, "gate exactness");
    // Pinned: the restaurant-30 workload at seed 42 under GPT-J-6B trips
    // the 600-permille gate on exactly these many prompts. A change here
    // means the pipeline's prompt stream or the gate function moved.
    assert_eq!(stats.escalations, 24, "pinned escalation count");
    assert_eq!(stats.unparseable, expected_unparseable);
    assert_eq!(
        stats.escalations,
        stats.unparseable + stats.low_confidence + stats.error_escalations,
        "escalation causes decompose exactly"
    );
    assert_eq!(stats.error_escalations, 0, "no errors on this workload");
    assert_eq!(stats.endpoints[0].calls, prompts.len() as u64);
    assert_eq!(stats.endpoints[1].calls, stats.escalations);
    assert_eq!(run(), stats, "a rerun reproduces every cascade counter");
}

/// On the escalated subset the cascade's answers are byte-identical to a
/// large-model-only run; on the rest it serves the cheap answer.
#[test]
fn cascade_matches_large_only_answers_on_the_escalated_subset() {
    let (world, cheap, large) = models();
    let prompts = eval_prompts(&world, &large);
    let cascade = cascade(&cheap, &large);
    let gate = cascade.policy().gate_permille;
    let mut escalated = 0usize;
    for p in &prompts {
        let cheap_answer = cheap.complete(p).unwrap();
        let served = cascade.complete(p).unwrap();
        if answer_confidence_permille(&cheap_answer.text) < gate {
            escalated += 1;
            assert_eq!(
                served,
                large.complete(p).unwrap(),
                "escalated prompt must serve the large model's bytes: {p:?}"
            );
        } else {
            assert_eq!(
                served, cheap_answer,
                "confident prompt must serve the cheap model's bytes: {p:?}"
            );
        }
    }
    assert_eq!(cascade.stats().escalations, escalated as u64);
}

/// On the eval workload the cascade consumes strictly fewer large-model
/// tokens — and strictly less billed cost — than a large-model-only run.
#[test]
fn cascade_beats_large_only_on_tokens_and_billed_cost() {
    let (world, cheap, large) = models();
    let prompts = eval_prompts(&world, &large);
    let large_cost = LlmProfile::gpt3_175b().cost_micro_per_token();

    let large_only_tokens: u64 = prompts
        .iter()
        .map(|p| large.complete(p).unwrap().usage.total() as u64)
        .sum();
    let large_only_billed = large_only_tokens * large_cost;

    let cascade = cascade(&cheap, &large);
    for p in &prompts {
        cascade.complete(p).unwrap();
    }
    let stats = cascade.stats();
    assert!(
        stats.endpoints[1].tokens() < large_only_tokens,
        "large-tier tokens {} must be strictly below large-only {}",
        stats.endpoints[1].tokens(),
        large_only_tokens
    );
    assert!(
        stats.billed_micro() < large_only_billed,
        "cascade billed {} must be strictly below large-only {}",
        stats.billed_micro(),
        large_only_billed
    );
    assert_eq!(stats.answers, prompts.len() as u64);
    assert!(
        stats.tokens_per_answer_milli() > 0,
        "tokens-per-answer is reported"
    );
    // The headline ratio: billed cost per answer, cascade vs large-only.
    let large_only_per_answer = large_only_billed / prompts.len() as u64;
    assert!(
        stats.billed_per_answer_micro() < large_only_per_answer,
        "cascade must be cheaper per answer: {} vs {}",
        stats.billed_per_answer_micro(),
        large_only_per_answer
    );
}
