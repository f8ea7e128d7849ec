//! Table 5 — fine-tuning experiments on Walmart-Amazon.
//!
//! Fine-tuning produces a *different model* at every training budget, and
//! a prompt → completion memo is only valid for the exact model that
//! produced it — so this driver attaches one cache **per variant**, with
//! the variant's model name embedded in the scenario (the same pattern
//! the Table 6 model zoo uses). Store files stay model-guarded (see
//! [`unidm::StoreError::ModelMismatch`]), and because `fine_tune`
//! renames its output, a tuned variant can never be served the base
//! model's completions.

use unidm::PipelineConfig;
use unidm_baselines::fm;
use unidm_llm::finetune::fine_tune;
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_synthdata::matching;
use unidm_world::World;

use crate::matching::{fm_f1, unidm_f1};
use crate::report::TableReport;
use crate::ExperimentConfig;

/// The paper's fine-tuning budget: the Walmart-Amazon training split of
/// 6144 tuples for 30 epochs.
pub const PAPER_EXAMPLES: usize = 6144;
/// Paper epochs.
pub const PAPER_EPOCHS: usize = 30;

/// Runs Table 5: zero-shot and fine-tuned GPT-J-6B / LLaMA2-7B against
/// GPT-3-175B, for FM and UniDM, on Walmart-Amazon.
///
/// The paper reports no FM number for LLaMA2-7B (NA); those cells hold
/// `f64::NAN`.
pub fn table5(config: ExperimentConfig) -> TableReport {
    let world = World::generate(config.seed);
    let ds = matching::walmart_amazon(&world, config.seed);
    let q = config.queries.max(60);
    let mut report = TableReport::new(
        "Table 5. Fine-tuning: F1-score (%) on entity resolution (Walmart-Amazon).",
        vec!["FM".into(), "UniDM".into()],
    );

    // Every variant runs behind the full backend + cache stack when the
    // config enables them. Caching is per-variant: the scenario name
    // embeds the variant's model name, so each model gets its own memo
    // (and its own model-guarded store file) — sharing one cache across
    // variants would serve one model's completions to another.
    let eval_pair = |llm: &MockLlm| -> (f64, f64) {
        let backend = config.backend.wrap(llm);
        let cached = config.cache.attach(
            &format!("table5-{}-seed{}", llm.name(), config.seed),
            backend.model(),
        );
        let llm = cached.model();
        let fm_score = fm_f1(llm, &ds, fm::ContextStrategy::Manual, q, config.seed).f1() * 100.0;
        let unidm_score = unidm_f1(
            llm,
            &ds,
            PipelineConfig::paper_default().with_seed(config.seed),
            q,
        )
        .f1()
            * 100.0;
        (fm_score, unidm_score)
    };

    let gptj = MockLlm::new(&world, LlmProfile::gptj_6b(), config.seed);
    let (f, u) = eval_pair(&gptj);
    report.push("GPT-J-6B", vec![f, u]);

    let (gptj_ft, _) = fine_tune(&gptj, PAPER_EXAMPLES, PAPER_EPOCHS);
    let (f, u) = eval_pair(&gptj_ft);
    report.push("GPT-J-6B (fine-tune)", vec![f, u]);

    let llama = MockLlm::new(&world, LlmProfile::llama2_7b(), config.seed);
    let (_, u) = eval_pair(&llama);
    report.push("LLaMA2-7B", vec![f64::NAN, u]);

    let (llama_ft, _) = fine_tune(&llama, PAPER_EXAMPLES, PAPER_EPOCHS);
    let (_, u) = eval_pair(&llama_ft);
    report.push("LLaMA2-7B (fine-tune)", vec![f64::NAN, u]);

    let gpt3 = MockLlm::new(&world, LlmProfile::gpt3_175b(), config.seed);
    let (f, u) = eval_pair(&gpt3);
    report.push("GPT-3-175B", vec![f, u]);

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_cached_run_matches_uncached() {
        use crate::CacheConfig;
        // The per-variant cache path must not change any cell: each
        // variant's memo is keyed to its own model, so answers are
        // bit-identical with caching on.
        let plain = table5(ExperimentConfig::quick());
        let cached = table5(ExperimentConfig::quick().with_cache(CacheConfig::enabled()));
        for row in [
            "GPT-J-6B",
            "GPT-J-6B (fine-tune)",
            "LLaMA2-7B (fine-tune)",
            "GPT-3-175B",
        ] {
            let a = plain.cell(row, "UniDM").unwrap();
            let b = cached.cell(row, "UniDM").unwrap();
            assert_eq!(a, b, "cached {row} diverged: {a} vs {b}");
        }
    }
}
