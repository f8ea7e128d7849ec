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
use unidm_tablestore::{Table, TableError};

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
    match prm_prompt(config, task, query, table, target_attr) {
        (Some(prompt), candidates) => Ok(read_prm(&candidates, &llm.complete(&prompt)?.text)),
        (None, picks) => Ok(picks),
    }
}

/// Meta-wise retrieval's render half: the `p_rm` prompt with the
/// attributes it chooses among (all but the target), or no prompt with the
/// picks made without the model — none of no candidates, one seeded random
/// pick when meta-wise retrieval is off.
pub(crate) fn prm_prompt(
    config: &PipelineConfig,
    task: TaskKind,
    query: &str,
    table: &Table,
    target_attr: &str,
) -> (Option<String>, Vec<String>) {
    let names = table.schema().names();
    let others = names.filter(|n| !n.eq_ignore_ascii_case(target_attr));
    let mut candidates: Vec<String> = others.map(str::to_string).collect();
    if config.meta_retrieval && !candidates.is_empty() {
        return (Some(render_prm(task, query, &candidates)), candidates);
    }
    candidates.shuffle(&mut StdRng::seed_from_u64(config.seed ^ 0x5e7a));
    candidates.truncate(1);
    (None, candidates)
}

/// Meta-wise retrieval's read half: the schema's spelling, each attribute
/// once, in order of first mention — the picks name columns from here on,
/// whatever the model wrote — or the first candidate when the reply names
/// none.
pub(crate) fn read_prm(candidates: &[String], reply: &str) -> Vec<String> {
    let mut picked: Vec<String> = Vec::new();
    for mention in reply.split(',') {
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
    picked
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
    let frames = Frames::default();
    let sample = Sample::draw(config, table, exclude_row, attrs, target_attr, key_attr);
    let window = llm.context_window();
    let records = match sample.prompt(&frames, window, config, task, query)? {
        Some((prompt, shown)) => {
            let kept = read_pri(config, &llm.complete(&prompt)?.text, shown);
            sample.keep(&frames, kept.iter().copied(), |row| row.record.clone())?
        }
        None => sample.keep(&frames, 0..sample.len(), |row| row.record.clone())?,
    };
    Ok(Context {
        attrs: attrs.to_vec(),
        records,
    })
}

/// The rows instance-wise retrieval draws from a table: their projection
/// and their indices, in the order the model sees them.
pub(crate) struct Sample<'t> {
    table: &'t Table,
    cols: Vec<usize>,
    rows: Vec<usize>,
}

impl<'t> Sample<'t> {
    /// Projects on the key (subject), the helper attrs and the target,
    /// each once, in schema order — the table's own column order is the
    /// natural "logical order" the parsing step expects — and draws
    /// `config.sample_size` seeded rows other than `exclude_row`; only
    /// `config.top_k` of them when instance-wise retrieval is off.
    pub(crate) fn draw(
        config: &PipelineConfig,
        table: &'t Table,
        exclude_row: Option<usize>,
        attrs: &[String],
        target_attr: &str,
        key_attr: &str,
    ) -> Self {
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
        let mut rows = table.sample_rows(&mut rng, config.sample_size, exclude_row.as_slice());
        if !config.instance_retrieval {
            rows.truncate(config.top_k);
        }
        Sample { table, cols, rows }
    }

    /// How many rows were drawn.
    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// Instance-wise retrieval's render half: the `p_ri` prompt over the
    /// sample and how many rows it shows, or `None` when every row drawn is
    /// kept as drawn (none was, or instance-wise retrieval is off).
    pub(crate) fn prompt(
        &self,
        frames: &Frames,
        window: usize,
        config: &PipelineConfig,
        task: TaskKind,
        query: &str,
    ) -> Result<Option<(String, usize)>, TableError> {
        if self.rows.is_empty() || !config.instance_retrieval {
            return Ok(None);
        }
        // The candidates keep what the sample walk read: scoring never
        // goes back to the table, which would re-fault evicted chunks.
        let rows = self.rows.iter().copied();
        frames.with_frame(self.table, &self.cols, rows, |frame| {
            let candidates: Vec<&FrameRow> = self.rows.iter().map(|row| &frame[row]).collect();
            Some(pri_prompt(window, task, query, &candidates))
        })
    }

    /// What `keep` takes of the rows at sample positions `kept`, in that
    /// order.
    pub(crate) fn keep<T>(
        &self,
        frames: &Frames,
        kept: impl Iterator<Item = usize> + Clone,
        keep: impl Fn(&FrameRow) -> T,
    ) -> Result<Vec<T>, TableError> {
        if self.rows.is_empty() {
            return Ok(Vec::new());
        }
        let rows = kept.map(|at| self.rows[at]);
        frames.with_frame(self.table, &self.cols, rows.clone(), |frame| {
            rows.map(|row| keep(&frame[&row])).collect()
        })
    }
}

/// Instance-wise retrieval's render half over `candidates`: the `p_ri`
/// prompt scoring them against `query`, and how many it shows — trailing
/// candidates are dropped to keep the prompt inside a `window`-token
/// context (e.g. GPT-J's 2k). Shared by table rows and entity-resolution
/// demonstrations.
pub(crate) fn pri_prompt<R: Borrow<FrameRow>>(
    window: usize,
    task: TaskKind,
    query: &str,
    candidates: &[R],
) -> (String, usize) {
    let budget = window.saturating_sub(256);
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
    (render_pri_lines(task, query, lines), shown)
}

/// Instance-wise retrieval's read half: the positions of the top
/// `config.top_k` of the `shown` candidates, best first. A position the
/// reply names twice keeps its first entry, and a position past `shown`
/// takes no place in the ranking.
pub(crate) fn read_pri(config: &PipelineConfig, reply: &str, shown: usize) -> Vec<usize> {
    let mut scores = parse_pri_response(reply);
    // Compact in place: an entry stays when its position is shown and no
    // kept entry names it yet.
    let mut kept = 0;
    for j in 0..scores.len() {
        let i = scores[j].0;
        if i < shown && !scores[..kept].iter().any(|s| s.0 == i) {
            scores[kept] = scores[j];
            kept += 1;
        }
    }
    scores.truncate(kept);
    // Best score first, earliest candidate first among equals. Equal keys
    // are equal entries, so selecting the top k and sorting those alone is
    // the head of the whole list sorted.
    let rank = |&(i, s): &(usize, u8)| (std::cmp::Reverse(s), i);
    if config.top_k < scores.len() {
        scores.select_nth_unstable_by_key(config.top_k, rank);
        scores.truncate(config.top_k);
    }
    scores.sort_unstable_by_key(rank);
    scores.into_iter().map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
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

    /// A model that keeps every prompt it forwards.
    struct Capture<'a> {
        inner: &'a dyn LanguageModel,
        prompts: std::sync::Mutex<Vec<String>>,
    }

    impl LanguageModel for Capture<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn complete(
            &self,
            prompt: &str,
        ) -> Result<std::sync::Arc<unidm_llm::Completion>, unidm_llm::LlmError> {
            self.prompts.lock().unwrap().push(prompt.to_string());
            self.inner.complete(prompt)
        }

        fn usage(&self) -> unidm_llm::Usage {
            self.inner.usage()
        }

        fn reset_usage(&self) {}
    }

    /// `text` with one seeded mutation: truncated, a span deleted, a line
    /// duplicated or renumbered, uppercased, or `[`, `]`, `: `, `; ` or a
    /// newline injected. Cuts fall on character boundaries.
    fn mutate(text: &str, rng: &mut StdRng) -> String {
        let cuts: Vec<usize> = (text.char_indices().map(|(i, _)| i))
            .chain([text.len()])
            .collect();
        let mut cut = || cuts[rng.gen_range(0..cuts.len())];
        let (a, b) = (cut(), cut());
        let (from, to) = (a.min(b), a.max(b));
        let lines: Vec<&str> = text.split('\n').collect();
        let line = rng.gen_range(0..lines.len());
        match rng.gen_range(0..7) {
            0 => text[..from].to_string(),
            1 => format!("{}{}", &text[..from], &text[to..]),
            2 => {
                let mut lines = lines.clone();
                lines.insert(line, lines[line]);
                lines.join("\n")
            }
            3 => {
                let number = ["0", "1", "7", "48", "-1", "99999999999999999999999"];
                let rest = lines[line].trim_start_matches(|c: char| c.is_ascii_digit());
                let mut lines = lines.clone();
                let renumbered = format!("{}{rest}", number[rng.gen_range(0..number.len())]);
                lines[line] = &renumbered;
                lines.join("\n")
            }
            4 => format!(
                "{}{}{}",
                &text[..from],
                text[from..to].to_uppercase(),
                &text[to..]
            ),
            _ => {
                let inject = ["[", "]", ": ", "; ", "\n"][rng.gen_range(0..5)];
                format!("{}{inject}{}", &text[..from], &text[from..])
            }
        }
    }

    /// The pipeline's config for the mutant runs: a small candidate sample
    /// keeps each `p_ri` prompt short.
    fn mutant_config() -> PipelineConfig {
        PipelineConfig {
            sample_size: 6,
            ..PipelineConfig::paper_default()
        }
    }

    /// Every prompt the pipeline sends for an imputation and an
    /// error-detection run, by class: `p_rm`, `p_ri`, `p_dp`, `p_cq`,
    /// answer. Captured once for the five mutant tests.
    fn prompts_by_class() -> &'static [Vec<String>; 5] {
        use unidm_llm::protocol::{parse_pcq, parse_prm, PdpPrompt, PriPrompt};
        use unidm_synthdata::errors;
        use unidm_tablestore::DataLake;

        static CLASSES: std::sync::OnceLock<[Vec<String>; 5]> = std::sync::OnceLock::new();
        CLASSES.get_or_init(|| {
            let (world, llm) = setup();
            let capture = Capture {
                inner: &llm,
                prompts: Default::default(),
            };
            let unidm = crate::UniDm::new(&capture, mutant_config());
            let restaurant = imputation::restaurant(&world, 7, 2);
            let lake: DataLake = [restaurant.table.clone()].into_iter().collect();
            for target in &restaurant.targets {
                let task = crate::Task::imputation(
                    restaurant.table.name(),
                    target.row,
                    restaurant.target_attr.clone(),
                    restaurant.key_attr.clone(),
                );
                unidm.run(&lake, &task).unwrap();
            }
            let hospital = errors::hospital(&world, 7, 0.05);
            let lake: DataLake = [hospital.table.clone()].into_iter().collect();
            for cell in hospital.cells.iter().take(2) {
                let task =
                    crate::Task::error_detection(hospital.table.name(), cell.row, &cell.attr);
                unidm.run(&lake, &task).unwrap();
            }
            let mut classes: [Vec<String>; 5] = Default::default();
            for prompt in capture.prompts.into_inner().unwrap() {
                let class = if parse_prm(&prompt).is_some() {
                    0
                } else if PriPrompt::read(&prompt).is_some() {
                    1
                } else if PdpPrompt::read(&prompt).is_some() {
                    2
                } else if parse_pcq(&prompt).is_some() {
                    3
                } else {
                    4
                };
                classes[class].push(prompt);
            }
            classes
        })
    }

    /// 10^4 seeded mutants of the class's prompts through the model, and
    /// each reply, a mutant of it and the mutant prompt itself through
    /// `read_prm`, `read_pri`, `parse_pri_response` and
    /// `answer_confidence_permille`: none may panic, and the confidence
    /// stays at most 1000.
    fn mutants_never_panic(class: usize) {
        let prompts = &prompts_by_class()[class];
        assert!(!prompts.is_empty(), "no prompt of class {class}");
        let (_, llm) = setup();
        let config = mutant_config();
        let candidates: Vec<String> = ["name", "addr", "city", "phone"].map(String::from).into();
        let mut rng = StdRng::seed_from_u64(0x6d75_7461 + class as u64);
        for k in 0..10_000 {
            let mut mutant = prompts[k % prompts.len()].clone();
            for _ in 0..rng.gen_range(1..4) {
                mutant = mutate(&mutant, &mut rng);
            }
            let reply = llm.complete(&mutant).map(|c| c.text.clone());
            let reply = reply.as_deref().unwrap_or("");
            let mutated_reply = mutate(reply, &mut rng);
            for text in [reply, &mutated_reply, &mutant] {
                read_prm(&candidates, text);
                read_pri(&config, text, config.sample_size);
                parse_pri_response(text);
                let confidence = crate::route::answer_confidence_permille(text);
                assert!(confidence <= 1000, "{text:?}: {confidence}");
            }
        }
    }

    #[test]
    fn mutated_prm_prompts_and_replies_never_panic() {
        mutants_never_panic(0);
    }

    #[test]
    fn mutated_pri_prompts_and_replies_never_panic() {
        mutants_never_panic(1);
    }

    #[test]
    fn mutated_pdp_prompts_and_replies_never_panic() {
        mutants_never_panic(2);
    }

    #[test]
    fn mutated_pcq_prompts_and_replies_never_panic() {
        mutants_never_panic(3);
    }

    #[test]
    fn mutated_answer_prompts_and_replies_never_panic() {
        mutants_never_panic(4);
    }

    #[test]
    fn read_pri_keeps_a_repeated_position_once_at_its_first_entry() {
        let config = PipelineConfig::paper_default();
        assert_eq!(config.top_k, 3);
        assert_eq!(read_pri(&config, "1:3, 1:3, 1:3", 5), [0]);
        // The first entry decides the rank: candidate 2's later 3 is not
        // read, so candidate 3's 2 outranks it.
        assert_eq!(read_pri(&config, "2:0, 1:1, 2:3, 3:2", 5), [2, 0, 1]);
        // A position past the shown candidates takes no top-k place.
        assert_eq!(read_pri(&config, "9:3, 9:3, 1:1, 2:0, 3:0", 5), [0, 1, 2]);
        assert_eq!(read_pri(&config, "", 5), Vec::<usize>::new());
        assert_eq!(read_pri(&config, "1:3", 0), Vec::<usize>::new());
        // Past 256 candidates the bits move to the heap.
        assert_eq!(
            read_pri(&config, "300:3, 300:3, 2:1, 299:2", 300),
            [299, 298, 1]
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
