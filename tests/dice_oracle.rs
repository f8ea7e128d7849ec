//! Oracle tests for the absorbed draw context: `Dice::uniform` as it was
//! before the split at the `0xff` separator is kept below as
//! [`reference_uniform`], and every draw the program now makes through a
//! `DiceContext` — plain tags, numbered tags rendered without a
//! `String`, and the whole fault schedule of a [`SimBackend`] — must equal
//! what the one-loop version yields, to the bit.
//!
//! The fault-schedule seed honors `UNIDM_FAULT_SEED` (the CI matrix runs
//! two).

mod common;

use std::sync::Arc;

use common::{fault_seed, Gen, ANY};
use unidm_llm::{Completion, Dice, FaultPlan, LanguageModel, LlmError, SimBackend, Usage};

/// `Dice::uniform` as of PR 18: one chain over `context ‖ 0xff ‖ tag`.
fn reference_uniform(seed: u64, context: &str, tag: &str) -> f64 {
    let mut h = seed ^ 0x9e37_79b9_7f4a_7c15;
    for b in context.bytes().chain([0xff]).chain(tag.bytes()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
        h ^= h >> 29;
    }
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 32;
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// PR 18's `pick` over [`reference_uniform`].
fn reference_pick(seed: u64, context: &str, tag: &str, n: usize) -> usize {
    (reference_uniform(seed, context, tag) * n as f64) as usize % n
}

/// Contexts the draws must agree on: empty, short, multi-byte, and long
/// enough (4 kB) that a word-sized shortcut would show.
fn contexts(g: &mut Gen) -> Vec<String> {
    let mut contexts = vec![
        String::new(),
        "ctx".to_string(),
        "日本語 é ü ñ".to_string(),
        "\u{ff}".to_string(),
        "x".repeat(4096),
    ];
    for _ in 0..40 {
        contexts.push(g.string(ANY, 200));
    }
    for _ in 0..4 {
        contexts.push(g.chars_from(ANY, 4096));
    }
    contexts
}

#[test]
fn absorbed_context_draws_equal_the_one_loop_draw_to_the_bit() {
    let mut g = Gen::new(0xd1ce);
    let contexts = contexts(&mut g);
    for case in 0..400 {
        let seed = if case % 7 == 0 { 0 } else { g.u64() };
        let context = &contexts[case % contexts.len()];
        let tag = match case % 5 {
            0 => String::new(),
            1 => "日本語".to_string(),
            _ => g.string(ANY, 24),
        };
        let dice = Dice::new(seed);
        let draws = dice.context(context);
        let want = reference_uniform(seed, context, &tag);
        assert_eq!(draws.uniform(&tag).to_bits(), want.to_bits(), "case {case}");
        assert_eq!(
            dice.uniform(context, &tag).to_bits(),
            want.to_bits(),
            "case {case}"
        );

        let p = g.f64(-0.2, 1.2);
        let chance = want < p.clamp(0.0, 1.0);
        assert_eq!(draws.chance(&tag, p), chance, "case {case}");
        assert_eq!(dice.chance(context, &tag, p), chance, "case {case}");

        let n = g.usize(1, 1 << 17);
        let pick = reference_pick(seed, context, &tag, n);
        assert_eq!(draws.pick(&tag, n), pick, "case {case}");
        assert_eq!(dice.pick(context, &tag, n), pick, "case {case}");
    }
}

#[test]
fn numbered_tags_draw_as_their_formatted_text() {
    // The tags the stacks number: rendered straight into the draw, they
    // must read as the `String` that `format!` used to build.
    let mut g = Gen::new(0x7a65);
    let numbers = [0, 9, 10, 99, u64::from(u32::MAX), u64::MAX];
    let endpoints = [0, 7, u64::MAX];
    for context in contexts(&mut g).iter().take(12) {
        let seed = g.u64();
        let draws = Dice::new(seed).context(context);
        let want = |tag: String| reference_uniform(seed, context, &tag).to_bits();
        for n in numbers {
            assert_eq!(
                draws.uniform(format_args!("fault-{n}")).to_bits(),
                want(format!("fault-{n}"))
            );
            assert_eq!(
                draws.uniform(format_args!("route-{n}")).to_bits(),
                want(format!("route-{n}"))
            );
            assert_eq!(
                draws.uniform(format_args!("backoff-{n}")).to_bits(),
                want(format!("backoff-{n}"))
            );
            for id in endpoints {
                assert_eq!(
                    draws.uniform(format_args!("e{id}-fault-{n}")).to_bits(),
                    want(format!("e{id}-fault-{n}"))
                );
            }
        }
        for id in endpoints {
            assert_eq!(
                draws.pick(format_args!("e{id}-status"), 3),
                reference_pick(seed, context, &format!("e{id}-status"), 3)
            );
        }
    }
}

/// Answers every prompt with its length; never fails.
struct LengthModel;

impl LanguageModel for LengthModel {
    fn name(&self) -> &str {
        "length"
    }

    fn complete(&self, prompt: &str) -> Result<Arc<Completion>, LlmError> {
        Ok(Completion::shared(
            prompt.len().to_string(),
            Usage::default(),
        ))
    }

    fn usage(&self) -> Usage {
        Usage::default()
    }

    fn reset_usage(&self) {}
}

/// What one attempt did: its virtual latency and its answer or error.
type Attempt = (u64, Result<String, LlmError>);

/// The first `attempts` attempts of `prompt` under `plan`, re-derived from
/// the one-loop draw and `format!`-built tags: PR 18's `next_outcome` and
/// `sample_attempt`, consecutive-fault cap included.
fn reference_schedule(
    plan: &FaultPlan,
    endpoint: Option<u64>,
    prompt: &str,
    attempts: u64,
) -> Vec<Attempt> {
    let clean = |latency_us| (latency_us, Ok(prompt.len().to_string()));
    let mut consecutive = 0u32;
    (0..attempts)
        .map(|attempt| {
            if consecutive >= plan.max_consecutive_faults {
                consecutive = 0;
                return clean(plan.base_latency_us);
            }
            let (fault_tag, status_tag) = match endpoint {
                Some(id) => (format!("e{id}-fault-{attempt}"), format!("e{id}-status")),
                None => (format!("fault-{attempt}"), "status".to_string()),
            };
            let roll = (reference_uniform(plan.seed, prompt, &fault_tag) * 1000.0) as u32;
            let timeout = plan.timeout_permille;
            let rate_limit = timeout + plan.rate_limit_permille;
            let transient = rate_limit + plan.transient_permille;
            let slow = transient + plan.slow_permille;
            if roll >= transient {
                consecutive = 0;
                return clean(if roll < slow {
                    plan.slow_latency_us
                } else {
                    plan.base_latency_us
                });
            }
            consecutive += 1;
            if roll < timeout {
                let elapsed_us = plan.timeout_latency_us;
                (elapsed_us, Err(LlmError::Timeout { elapsed_us }))
            } else if roll < rate_limit {
                let retry_after_us = plan.retry_after_us;
                (
                    plan.base_latency_us,
                    Err(LlmError::RateLimited { retry_after_us }),
                )
            } else {
                let status = [500u16, 502, 503][reference_pick(plan.seed, prompt, &status_tag, 3)];
                (plan.base_latency_us, Err(LlmError::Transient { status }))
            }
        })
        .collect()
}

fn sample(sim: &SimBackend<'_>, prompt: &str) -> Attempt {
    let sample = sim.sample_attempt(prompt);
    (sample.latency_us, sample.result.map(|c| c.text.clone()))
}

#[test]
fn sim_backend_schedules_equal_their_rederivation_in_any_interleaving() {
    const ATTEMPTS: u64 = 64;
    let mut g = Gen::new(fault_seed());
    // Stream-sized prompts (a kilobyte or two) beside short ones.
    let prompts: Vec<String> = (0..50)
        .map(|i| {
            let len = if i % 2 == 0 { 1500 + i * 20 } else { 10 + i };
            format!("{i}: {}", g.chars_from(ANY, len))
        })
        .collect();
    let model = LengthModel;
    let mut faults = 0;
    for plan in [
        FaultPlan::moderate(fault_seed()),
        FaultPlan::heavy_tail(fault_seed()),
    ] {
        for endpoint in [None, Some(3)] {
            let build = || {
                let sim = SimBackend::new(&model, plan);
                match endpoint {
                    Some(id) => sim.with_endpoint(id),
                    None => sim,
                }
            };
            let want: Vec<Vec<Attempt>> = prompts
                .iter()
                .map(|p| reference_schedule(&plan, endpoint, p, ATTEMPTS))
                .collect();
            faults += want.iter().flatten().filter(|a| a.1.is_err()).count();

            // Prompt by prompt…
            let sim = build();
            for (prompt, want) in prompts.iter().zip(&want) {
                let got: Vec<Attempt> = (0..ATTEMPTS).map(|_| sample(&sim, prompt)).collect();
                assert_eq!(&got, want, "{plan:?} endpoint {endpoint:?}");
            }
            // …and round-robin over the prompts: no prompt's sequence
            // depends on what was asked between its attempts.
            let sim = build();
            let mut got: Vec<Vec<Attempt>> = vec![Vec::new(); prompts.len()];
            for _ in 0..ATTEMPTS {
                for (prompt, got) in prompts.iter().zip(&mut got) {
                    got.push(sample(&sim, prompt));
                }
            }
            assert_eq!(got, want, "interleaved, {plan:?} endpoint {endpoint:?}");
        }
    }
    assert!(faults > 500, "the moderate plan must fault: {faults}");
}
