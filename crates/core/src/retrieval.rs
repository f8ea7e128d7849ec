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

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use unidm_llm::protocol::{parse_pri_response, render_pri, render_prm, SerializedRecord, TaskKind};
use unidm_llm::LanguageModel;
use unidm_tablestore::Table;

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
    let mut picked: Vec<String> = reply
        .text
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| candidates.iter().any(|c| c.eq_ignore_ascii_case(s)))
        .collect();
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
    // Projection: key first (subject), then helper attrs, then the target.
    let mut proj: Vec<String> = Vec::new();
    let push_unique = |p: &mut Vec<String>, a: &str| {
        if !p.iter().any(|x| x.eq_ignore_ascii_case(a)) {
            if let Some(name) = table.schema().names().find(|n| n.eq_ignore_ascii_case(a)) {
                p.push(name.to_string());
            }
        }
    };
    push_unique(&mut proj, key_attr);
    for a in attrs {
        push_unique(&mut proj, a);
    }
    push_unique(&mut proj, target_attr);
    // Present attributes in schema order: the table's own column order is
    // the natural "logical order" the parsing step expects.
    proj.sort_by_key(|a| table.schema().index_of(a).unwrap_or(usize::MAX));

    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x1457);
    let exclude: Vec<usize> = exclude_row.into_iter().collect();
    let sampled = table.sample_rows(&mut rng, config.sample_size, &exclude);
    if sampled.is_empty() {
        return Ok(Context {
            attrs: attrs.to_vec(),
            records: Vec::new(),
        });
    }

    let serialize_row = |row: usize| -> Result<SerializedRecord, UniDmError> {
        let mut pairs = Vec::with_capacity(proj.len());
        for attr in &proj {
            let v = table.cell_value(row, attr)?;
            pairs.push(((*attr).to_string(), v.to_string()));
        }
        Ok(SerializedRecord::new(pairs))
    };

    let records: Vec<SerializedRecord> = if config.instance_retrieval {
        let mut instances = Vec::with_capacity(sampled.len());
        for &row in &sampled {
            instances.push(serialize_row(row)?);
        }
        // Keep the scoring prompt inside the model's context window: drop
        // trailing candidates when the window is small (e.g. GPT-J's 2k).
        let budget = llm.context_window().saturating_sub(256);
        let mut used = unidm_text::count_tokens(query) + 64;
        let mut fit = 0usize;
        for inst in &instances {
            let cost = unidm_text::count_tokens(&inst.render()) + 4;
            if used + cost > budget {
                break;
            }
            used += cost;
            fit += 1;
        }
        let instances = &instances[..fit.max(1).min(instances.len())];
        let prompt = render_pri(task, query, instances);
        let reply = llm.complete(&prompt)?;
        let mut scores = parse_pri_response(&reply.text);
        scores.sort_by_key(|&(i, s)| (std::cmp::Reverse(s), i));
        // `instances[i]` is already row `sampled[i]` serialized: reading the
        // table again would re-fault chunks the sample walk just evicted.
        scores
            .into_iter()
            .take(config.top_k)
            .filter_map(|(i, _)| instances.get(i).cloned())
            .collect()
    } else {
        sampled
            .into_iter()
            .take(config.top_k)
            .map(serialize_row)
            .collect::<Result<_, _>>()?
    };
    Ok(Context {
        attrs: attrs.to_vec(),
        records,
    })
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
        let target_rec = table.row(0).unwrap();
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
