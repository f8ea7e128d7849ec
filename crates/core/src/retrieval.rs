//! Step 1 — automatic context retrieval (paper §4.2).
//!
//! Meta-wise retrieval asks the LLM which candidate attributes help the
//! task (`p_rm`); instance-wise retrieval asks it to score sampled records
//! 0–3 for relevance (`p_ri`). The top-k records projected on the selected
//! attributes form the tabular context `C`. With retrieval disabled, both
//! choices fall back to uniform sampling — the ablation baseline.
//!
//! Caching note: although `p_rm` embeds a per-row query, which attributes
//! help is a property of the *table* (schema + target attribute), so
//! [`crate::canon`] generalizes these queries at
//! [`crate::CanonLevel::TableStem`] and every row of a table shares one
//! `p_rm` cache entry. `p_ri` is genuinely per-row — relevance is judged
//! against the target record — and is never folded.
//!
//! What *is* shared under `p_ri` is its raw material: the candidates'
//! serialization comes from the pipeline's record frame (`frame.rs`).

use std::borrow::Borrow;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_llm::protocol::{
    parse_pri_response, render_pri_lines, render_prm, SerializedRecord, TaskKind,
};
use unidm_llm::LanguageModel;
use unidm_tablestore::Table;

use crate::frame::{FrameRow, Frames};
use crate::{PipelineConfig, UniDmError};

/// The retrieved tabular context `C`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Context {
    /// Attributes selected meta-wise (the paper's `S_m`).
    pub attrs: Vec<String>,
    /// Retrieved records projected on those attributes (the paper's
    /// `R_m[S_m]`), already serialized.
    pub records: Vec<SerializedRecord>,
}

/// Runs meta-wise retrieval over the table's other attributes.
///
/// Returns the selected helper attributes (at least one; falls back to a
/// seeded random pick when disabled or when the model returns nothing
/// usable).
///
/// # Errors
///
/// Propagates LLM failures.
pub fn meta_wise(
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    task: TaskKind,
    query: &str,
    table: &Table,
    target_attr: &str,
) -> Result<Vec<String>, UniDmError> {
    let candidates: Vec<String> = table
        .schema()
        .names()
        .filter(|n| !n.eq_ignore_ascii_case(target_attr))
        .map(str::to_string)
        .collect();
    if candidates.is_empty() {
        return Ok(Vec::new());
    }
    if !config.meta_retrieval {
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x5e7a);
        let mut pool = candidates;
        pool.shuffle(&mut rng);
        pool.truncate(1);
        return Ok(pool);
    }
    let prompt = render_prm(task, query, &candidates);
    let reply = llm.complete(&prompt)?;
    // The schema's spelling, each attribute once, in order of first mention:
    // the picks name columns from here on, whatever the model wrote.
    let mut picked: Vec<String> = Vec::new();
    for mention in reply.text.split(',') {
        let mention = mention.trim();
        if let Some(name) = candidates.iter().find(|c| c.eq_ignore_ascii_case(mention)) {
            if !picked.contains(name) {
                picked.push(name.clone());
            }
        }
    }
    if picked.is_empty() {
        picked.push(candidates[0].clone());
    }
    Ok(picked)
}

/// Runs instance-wise retrieval: samples `config.sample_size` candidate
/// rows, asks the LLM for relevance scores, and keeps the top
/// `config.top_k`.
///
/// The returned records are projected on `key ∪ attrs ∪ target` so that
/// the context both identifies its subjects and exhibits target values.
///
/// This free function serializes its candidates into a record frame it
/// throws away; [`crate::UniDm::run`] is the same code over the frame the
/// pipeline keeps across tasks.
///
/// # Errors
///
/// Propagates LLM failures and invalid attribute references.
#[allow(clippy::too_many_arguments)]
pub fn instance_wise(
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    task: TaskKind,
    query: &str,
    table: &Table,
    exclude_row: Option<usize>,
    attrs: &[String],
    target_attr: &str,
    key_attr: &str,
) -> Result<Context, UniDmError> {
    // The one place a kept row is copied out of its frame: the public
    // `Context` owns its records.
    let records = instance_wise_in(
        &Frames::default(),
        llm,
        config,
        task,
        query,
        table,
        exclude_row,
        attrs,
        target_attr,
        key_attr,
        |row| row.record.clone(),
    )?;
    Ok(Context {
        attrs: attrs.to_vec(),
        records,
    })
}

/// [`instance_wise`] with the candidates' serialization read from (and
/// left in) `frames`: what `keep` takes of each kept row, best first.
#[allow(clippy::too_many_arguments)]
pub(crate) fn instance_wise_in<T>(
    frames: &Frames,
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    task: TaskKind,
    query: &str,
    table: &Table,
    exclude_row: Option<usize>,
    attrs: &[String],
    target_attr: &str,
    key_attr: &str,
    keep: impl Fn(&FrameRow) -> T,
) -> Result<Vec<T>, UniDmError> {
    // Projection: the key (subject), the helper attrs and the target, each
    // once, presented in schema order — the table's own column order is the
    // natural "logical order" the parsing step expects.
    let mut cols: Vec<usize> = Vec::with_capacity(attrs.len() + 2);
    let wanted = [key_attr]
        .into_iter()
        .chain(attrs.iter().map(String::as_str))
        .chain([target_attr]);
    for attr in wanted {
        let col = table
            .schema()
            .names()
            .position(|n| n.eq_ignore_ascii_case(attr));
        if let Some(col) = col.filter(|col| !cols.contains(col)) {
            cols.push(col);
        }
    }
    cols.sort_unstable();

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1457);
    let mut sampled = table.sample_rows(&mut rng, config.sample_size, exclude_row.as_slice());
    if sampled.is_empty() {
        return Ok(Vec::new());
    }
    if !config.instance_retrieval {
        sampled.truncate(config.top_k);
    }
    // The candidates keep what the sample walk read: scoring never goes
    // back to the table, which would re-fault evicted chunks.
    frames.with_rows(table, &cols, &sampled, |candidates| {
        let kept = if config.instance_retrieval {
            score_candidates(llm, config, task, query, candidates)?
        } else {
            (0..candidates.len()).collect()
        };
        Ok(kept.into_iter().map(|at| keep(candidates[at])).collect())
    })?
}

/// Scores `candidates` against `query` with `p_ri` and returns the
/// positions of the top `config.top_k`, best first — shared by table rows
/// and entity-resolution demonstrations.
pub(crate) fn score_candidates<R: Borrow<FrameRow>>(
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    task: TaskKind,
    query: &str,
    candidates: &[R],
) -> Result<Vec<usize>, UniDmError> {
    // Keep the scoring prompt inside the model's context window: drop
    // trailing candidates when the window is small (e.g. GPT-J's 2k).
    let budget = llm.context_window().saturating_sub(256);
    let mut used = unidm_text::count_tokens(query) + 64;
    let mut fit = 0usize;
    for candidate in candidates {
        let cost = candidate.borrow().tokens + 4;
        if used + cost > budget {
            break;
        }
        used += cost;
        fit += 1;
    }
    let shown = fit.max(1).min(candidates.len());
    let lines = candidates[..shown].iter().map(|c| c.borrow().line.as_str());
    let reply = llm.complete(&render_pri_lines(task, query, lines))?;
    let mut scores = parse_pri_response(&reply.text);
    // Best score first, earliest candidate first among equals. Equal keys
    // are equal entries, so selecting the top k and sorting those alone is
    // the head of the whole list sorted.
    let rank = |&(i, s): &(usize, u8)| (std::cmp::Reverse(s), i);
    if config.top_k < scores.len() {
        scores.select_nth_unstable_by_key(config.top_k, rank);
        scores.truncate(config.top_k);
    }
    scores.sort_unstable_by_key(rank);
    let kept = scores.into_iter().map(|(i, _)| i);
    Ok(kept.filter(|&i| i < shown).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use unidm_llm::{LlmProfile, MockLlm};
    use unidm_synthdata::imputation;
    use unidm_world::World;

    fn setup() -> (World, MockLlm) {
        let world = World::generate(7);
        let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 1);
        (world, llm)
    }

    #[test]
    fn meta_wise_selects_informative_attr() {
        let (world, llm) = setup();
        let table = imputation::restaurant_table(&world);
        let picked = meta_wise(
            &llm,
            &PipelineConfig::paper_default(),
            TaskKind::Imputation,
            "Some Grill, city",
            &table,
            "city",
        )
        .unwrap();
        assert!(!picked.is_empty());
        assert!(
            picked.iter().any(|a| a == "addr" || a == "phone"),
            "informative attribute expected, got {picked:?}"
        );
    }

    /// A model that answers every prompt with one fixed text.
    struct Says(&'static str);

    impl LanguageModel for Says {
        fn name(&self) -> &str {
            "says"
        }

        fn complete(
            &self,
            _prompt: &str,
        ) -> Result<std::sync::Arc<unidm_llm::Completion>, unidm_llm::LlmError> {
            let usage = unidm_llm::Usage::default();
            Ok(unidm_llm::Completion::shared(self.0.to_string(), usage))
        }

        fn usage(&self) -> unidm_llm::Usage {
            unidm_llm::Usage::default()
        }

        fn reset_usage(&self) {}
    }

    #[test]
    fn meta_wise_picks_are_schema_names_each_once() {
        let table = imputation::restaurant_table(&World::generate(7));
        let config = PipelineConfig::paper_default();
        let pick = |reply| {
            meta_wise(
                &Says(reply),
                &config,
                TaskKind::Imputation,
                "q",
                &table,
                "city",
            )
        };
        assert_eq!(
            pick("ADDR, addr , Phone,addr, city, zip").unwrap(),
            ["addr", "phone"]
        );
        assert_eq!(pick("nothing usable").unwrap(), ["name"], "first candidate");
    }

    #[test]
    fn meta_wise_disabled_is_random_but_valid() {
        let (world, llm) = setup();
        let table = imputation::restaurant_table(&world);
        let picked = meta_wise(
            &llm,
            &PipelineConfig::all_off(),
            TaskKind::Imputation,
            "Some Grill, city",
            &table,
            "city",
        )
        .unwrap();
        assert_eq!(picked.len(), 1);
        assert!(table.schema().contains(&picked[0]));
        assert_ne!(picked[0], "city");
    }

    #[test]
    fn instance_wise_returns_top_k_with_projection() {
        let (world, llm) = setup();
        let table = imputation::restaurant_table(&world);
        let target_rec = table.row_at(0).unwrap();
        let addr = target_rec
            .field(table.schema(), "addr")
            .unwrap()
            .to_string();
        let query = format!("name: X; addr: {addr}; city: ?");
        let ctx = instance_wise(
            &llm,
            &PipelineConfig::paper_default(),
            TaskKind::Imputation,
            &query,
            &table,
            Some(0),
            &["addr".to_string()],
            "city",
            "name",
        )
        .unwrap();
        assert_eq!(ctx.records.len(), 3);
        for r in &ctx.records {
            assert!(r.get("name").is_some());
            assert!(r.get("city").is_some());
        }
    }

    #[test]
    fn disabled_instance_retrieval_still_yields_k() {
        let (world, llm) = setup();
        let table = imputation::restaurant_table(&world);
        let ctx = instance_wise(
            &llm,
            &PipelineConfig::all_off(),
            TaskKind::Imputation,
            "q",
            &table,
            None,
            &["addr".to_string()],
            "city",
            "name",
        )
        .unwrap();
        assert_eq!(ctx.records.len(), 3);
    }

    #[test]
    fn retrieval_prefers_shared_street_records() {
        // Build a table where row 0's street reappears in row 1 only; the
        // scored retrieval should keep that neighbour.
        let (_, llm) = setup();
        let mut t = Table::builder("r")
            .columns(["name", "addr", "city"])
            .build();
        t.push_row(vec![
            "Target Grill".into(),
            "100 Pico Blvd".into(),
            unidm_tablestore::Value::Null,
        ])
        .unwrap();
        t.push_row(vec![
            "Neighbour".into(),
            "200 Pico Blvd".into(),
            "Los Angeles".into(),
        ])
        .unwrap();
        for i in 0..20 {
            t.push_row(vec![
                format!("Other{i}").into(),
                format!("{i} Elm St").into(),
                "Springfield".into(),
            ])
            .unwrap();
        }
        let ctx = instance_wise(
            &llm,
            &PipelineConfig::paper_default(),
            TaskKind::Imputation,
            "name: Target Grill; addr: 100 Pico Blvd; city: ?",
            &t,
            Some(0),
            &["addr".to_string()],
            "city",
            "name",
        )
        .unwrap();
        assert!(
            ctx.records
                .iter()
                .any(|r| r.get("name") == Some("Neighbour")),
            "neighbour on the same street should be retrieved: {:?}",
            ctx.records
        );
    }
}
