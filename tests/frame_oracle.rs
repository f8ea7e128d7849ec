//! Oracle tests for the finished record frame: the functions PR 20
//! rewrote are kept below as they were at its parent, and the rewrites
//! must agree with them on every input.
//!
//! * [`reference_parse_pri_response`] / [`reference_claim_query_imputation`]
//!   — the parent's bodies, against the byte scanner and the renderer that
//!   no longer clones the record.
//! * [`by_hand`] — Algorithm 1 composed from the *public* step functions
//!   (`retrieval`, `parsing`, `prompting`), records cloned and rendered as
//!   the parent's `UniDm::run` did, against `UniDm::run` over the frame.
//! * The dedup planner hashes a fingerprint of a task and compares whole
//!   tasks: two entity-resolution tasks that differ in one cell of their
//!   pools share a fingerprint and must both run.

mod common;

use common::{task_mix, Gen, PromptLog};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use unidm::{parsing, prompting, retrieval, BatchRunner, PipelineConfig};
use unidm::{RunOutput, Task, Trace, UniDm, UniDmError};
use unidm_llm::protocol::{
    claim_query_er, claim_query_imputation, naturalize_record, parse_pri_response, render_pdp,
    render_pdp_lines, render_pri, Claim, SerializedRecord, TaskKind,
};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm, UsageMeter};
use unidm_tablestore::{DataLake, Table};
use unidm_world::World;

const SEED: u64 = 42;

/// `parse_pri_response` as of PR 19.
fn reference_parse_pri_response(text: &str) -> Vec<(usize, u8)> {
    let mut out = Vec::new();
    for chunk in text.split(',') {
        let Some((i, s)) = chunk.trim().split_once(':') else {
            continue;
        };
        if let (Ok(i), Ok(s)) = (i.trim().parse::<usize>(), s.trim().parse::<u8>()) {
            if i >= 1 {
                out.push((i - 1, s.min(3)));
            }
        }
    }
    out
}

/// `claim_query_imputation` as of PR 19.
fn reference_claim_query_imputation(record: &SerializedRecord, attr: &str) -> String {
    let mut pairs: Vec<(String, String)> = record
        .pairs
        .iter()
        .filter(|(a, v)| !a.eq_ignore_ascii_case(attr) && !v.is_empty())
        .cloned()
        .collect();
    pairs.push((attr.to_string(), "?".to_string()));
    SerializedRecord::new(pairs).render()
}

#[test]
fn byte_scanner_reads_every_reply_as_trim_and_parse_did() {
    let pinned = [
        ("", vec![]),
        ("garbage", vec![]),
        ("1:3, 2:0, 3:2", vec![(0, 3), (1, 0), (2, 2)]),
        // Blanks of every ASCII kind, `+`, leading zeros.
        (
            " \t1 : 3\r\n,\x0b+2:\x0c+0 ,0003:002",
            vec![(0, 3), (1, 0), (2, 2)],
        ),
        // Clamped above 3, skipped above 255, index 0 skipped.
        ("1:9, 2:255, 3:256, 0:2, 4:1", vec![(0, 3), (1, 3), (3, 1)]),
        // Out of `usize`, signs, stray colons, empty chunks.
        (
            "18446744073709551615:1, 18446744073709551616:1",
            vec![(usize::MAX - 1, 1)],
        ),
        ("-1:2, 1:-2, 1:2:3, :2, 1:, +:1, ,, 5:1,", vec![(4, 1)]),
        ("1:+, + 1:2, 1 2:3, 1:2 3, 7:3", vec![(6, 3)]),
        // Unicode blanks trim; other non-ASCII does not parse.
        (
            "\u{a0}1\u{2003}:\u{3000}2\u{85}, é:1, 2:１, 3:1é, \u{2028}4:0",
            vec![(0, 2), (3, 0)],
        ),
    ];
    for (text, want) in pinned {
        assert_eq!(reference_parse_pri_response(text), want, "{text:?}");
        assert_eq!(parse_pri_response(text), want, "{text:?}");
    }

    // Replies as the stand-in model renders them, at every candidate count.
    for n in 0..120usize {
        let reply: Vec<String> = (1..=n)
            .map(|i| format!("{i}:{}", (i * 7 + n) % 4))
            .collect();
        for separator in [", ", ",", " ,\n"] {
            let text = reply.join(separator);
            assert_eq!(
                parse_pri_response(&text),
                reference_parse_pri_response(&text)
            );
        }
    }

    // Seeded token soup: everything an entry can be made of or broken by.
    const TOKENS: [&str; 30] = [
        "0",
        "1",
        "2",
        "3",
        "7",
        "12",
        "50",
        "007",
        "255",
        "256",
        "300",
        "99999999999",
        "18446744073709551615",
        "18446744073709551616",
        ":",
        ":",
        ":",
        ",",
        ",",
        ",",
        ", ",
        " ",
        "\t",
        "\u{b}",
        "+",
        "-",
        "\u{a0}",
        "\u{2003}",
        "x",
        "é",
    ];
    let mut g = Gen::new(0x20_5c0e);
    for case in 0..20_000 {
        let text: String = (0..g.usize(0, 24))
            .map(|_| TOKENS[g.usize(0, TOKENS.len())])
            .collect();
        assert_eq!(
            parse_pri_response(&text),
            reference_parse_pri_response(&text),
            "case {case}: {text:?}"
        );
    }
}

#[test]
fn claim_query_is_the_record_rendered_with_the_target_asked() {
    let record = |pairs: &[(&str, &str)]| {
        SerializedRecord::new(
            pairs
                .iter()
                .map(|(a, v)| (a.to_string(), v.to_string()))
                .collect(),
        )
    };
    let pinned = [
        (
            record(&[("city", "Copenhagen"), ("country", "Denmark")]),
            "timezone",
            "city: Copenhagen; country: Denmark; timezone: ?",
        ),
        // Empty values are not stated; the target is asked once, in the
        // caller's spelling, wherever the record had it.
        (
            record(&[("name", ""), ("City", "Oslo"), ("zip", "0150")]),
            "city",
            "zip: 0150; city: ?",
        ),
        // A record that is only the target, an empty one, an empty target.
        (record(&[("CITY", "Oslo")]), "city", "city: ?"),
        (record(&[]), "city", "city: ?"),
        (record(&[("a", "1")]), "", "a: 1; : ?"),
    ];
    for (record, attr, want) in &pinned {
        assert_eq!(reference_claim_query_imputation(record, attr), *want);
        assert_eq!(claim_query_imputation(record, attr), *want);
    }

    let mut g = Gen::new(0x20_c1a1);
    for case in 0..4_000 {
        let target = g.attr();
        let pairs = (0..g.usize(0, 9)).map(|_| {
            let attr = match g.usize(0, 4) {
                0 => target.to_uppercase(),
                1 => target.clone(),
                _ => g.attr(),
            };
            let value = if g.usize(0, 4) == 0 {
                String::new()
            } else {
                g.value()
            };
            (attr, value)
        });
        let record = SerializedRecord::new(pairs.collect());
        assert_eq!(
            claim_query_imputation(&record, &target),
            reference_claim_query_imputation(&record, &target),
            "case {case}: {record:?} / {target}"
        );
    }
}

#[test]
fn pdp_spliced_from_lines_is_pdp_rendered_from_records() {
    let record = |pairs: &[(&str, &str)]| {
        SerializedRecord::new(
            pairs
                .iter()
                .map(|(a, v)| (a.to_string(), v.to_string()))
                .collect(),
        )
    };
    let records = vec![
        record(&[("city", "Alicante"), ("country", "Spain")]),
        // Nothing stated: an empty line, kept.
        record(&[("city", ""), ("country", "")]),
        record(&[("city", "Florence"), ("country", ""), ("zip", "50100")]),
    ];
    for shown in 0..=records.len() {
        let records = &records[..shown];
        let lines: Vec<String> = records.iter().map(SerializedRecord::render).collect();
        let spliced = render_pdp_lines(lines.iter().map(String::as_str));
        assert_eq!(spliced, render_pdp(records));
        assert!(
            spliced.capacity() <= spliced.len() + 1,
            "one pre-sized buffer, never regrown"
        );
    }
    assert_eq!(
        render_pdp(&records),
        "Given the data, convert the items into a textual format that encompasses all relevant \
         information in a logical order: [city: Alicante; country: Spain\n\ncity: Florence; zip: \
         50100]"
    );
}

/// An entity as a sentence fragment, as `task.rs` naturalizes it.
fn naturalized(record: &SerializedRecord) -> String {
    let mut text = naturalize_record(record);
    text.truncate(text.trim_end_matches('.').len());
    text
}

/// The target record of an imputation claim: every non-empty cell of the
/// row but the attribute asked for, each cell cloned and formatted.
fn target_record(table: &Table, row: usize, attr: &str) -> Result<SerializedRecord, UniDmError> {
    let record = table.row_at(row)?;
    let mut pairs = Vec::new();
    for (i, name) in table.schema().names().enumerate() {
        let value = record.get(i).map(|v| v.to_string()).unwrap_or_default();
        if name.eq_ignore_ascii_case(attr) || value.is_empty() {
            continue;
        }
        pairs.push((name.to_string(), value));
    }
    Ok(SerializedRecord::new(pairs))
}

/// PR 19's `score_candidates`: the window fit, `p_ri` over the records,
/// the stable sort, the kept records cloned out.
fn score_by_hand(
    llm: &dyn LanguageModel,
    config: &PipelineConfig,
    query: &str,
    candidates: &[SerializedRecord],
) -> Result<Vec<SerializedRecord>, UniDmError> {
    let budget = llm.context_window().saturating_sub(256);
    let mut used = unidm_text::count_tokens(query) + 64;
    let mut fit = 0usize;
    for candidate in candidates {
        let cost = unidm_text::count_tokens(&candidate.render()) + 4;
        if used + cost > budget {
            break;
        }
        used += cost;
        fit += 1;
    }
    let candidates = &candidates[..fit.max(1).min(candidates.len())];
    let prompt = render_pri(TaskKind::EntityResolution, query, candidates);
    let mut scores = reference_parse_pri_response(&llm.complete(&prompt)?.text);
    scores.sort_by_key(|&(i, s)| (std::cmp::Reverse(s), i));
    let top = scores.into_iter().take(config.top_k);
    Ok(top
        .filter_map(|(i, _)| candidates.get(i))
        .cloned()
        .collect())
}

/// Algorithm 1 for `task`, composed from the public step functions the way
/// PR 19's `UniDm::run` composed them: context records are owned
/// `SerializedRecord`s, rendered for `p_dp` and again for the trace.
fn by_hand(
    model: &dyn LanguageModel,
    config: &PipelineConfig,
    lake: &DataLake,
    task: &Task,
) -> Result<RunOutput, UniDmError> {
    let meter = UsageMeter::new(model);
    let llm: &dyn LanguageModel = &meter;
    let kind = task.kind();
    let over_table = |table: &Table,
                      meta_query: &str,
                      query: &str,
                      row,
                      roles: Option<(&str, &str)>| {
        let target = roles.map_or("", |(target, _)| target);
        let attrs = retrieval::meta_wise(llm, config, kind, meta_query, table, target)?;
        let picks = attrs.last().zip(attrs.first());
        let (target, key) = roles
            .or(picks.map(|(last, first)| (last.as_str(), first.as_str())))
            .ok_or_else(|| UniDmError::InvalidTask("no attributes selected for table QA".into()))?;
        let context =
            retrieval::instance_wise(llm, config, kind, query, table, row, &attrs, target, key)?;
        assert_eq!(context.attrs, attrs);
        Ok::<_, UniDmError>((attrs, context.records))
    };
    let (query, selected_attrs, records, brought) = match task {
        Task::Imputation {
            table,
            row,
            attr,
            key_attr,
        } => {
            let table = lake.require(table)?;
            table.schema().require(attr)?;
            let record = target_record(table, *row, attr)?;
            let key = record.get(key_attr).unwrap_or_default();
            let query = reference_claim_query_imputation(&record, attr);
            let roles = Some((attr.as_str(), key_attr.as_str()));
            let (attrs, records) =
                over_table(table, &format!("{key}, {attr}"), &query, Some(*row), roles)?;
            (query, attrs, records, None)
        }
        Task::ErrorDetection { table, row, attr } => {
            let table = lake.require(table)?;
            let query = format!("{attr}: {}?", table.cell_value(*row, attr)?);
            let key = table.schema().names().next().unwrap_or(attr);
            let (attrs, records) = over_table(
                table,
                &query,
                &query,
                Some(*row),
                Some((attr.as_str(), key)),
            )?;
            (query, attrs, records, None)
        }
        Task::TableQa { table, question } => {
            let (attrs, records) =
                over_table(lake.require(table)?, question, question, None, None)?;
            (question.clone(), attrs, records, None)
        }
        Task::Transformation { examples, input } => {
            let pair = |(before, after): &(String, String)| {
                SerializedRecord::new(vec![
                    ("before".to_string(), before.clone()),
                    ("after".to_string(), after.clone()),
                ])
            };
            let records = examples.iter().map(pair).collect();
            (format!("{input}: ?"), Vec::new(), records, None)
        }
        Task::EntityResolution { a, b, pool } => {
            let (a, b) = (naturalized(a), naturalized(b));
            let mut demos: Vec<SerializedRecord> = pool
                .iter()
                .map(|(a, b, same)| {
                    let entities = format!("{} versus {}", naturalized(a), naturalized(b));
                    let label = if *same { "the same" } else { "different" };
                    SerializedRecord::new(vec![
                        ("entities".to_string(), entities),
                        ("label".to_string(), label.to_string()),
                    ])
                })
                .collect();
            demos.shuffle(&mut StdRng::seed_from_u64(config.seed ^ 0xE12));
            let records = if demos.is_empty() {
                Vec::new()
            } else if config.instance_retrieval {
                let sampled = &demos[..config.sample_size.min(demos.len())];
                score_by_hand(llm, config, &format!("{a} versus {b}"), sampled)?
            } else {
                demos.into_iter().take(config.top_k).collect()
            };
            (claim_query_er(&a, &b), Vec::new(), records, None)
        }
        Task::JoinDiscovery {
            left_name,
            left_values,
            right_name,
            right_values,
        } => {
            let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7014);
            let mut sample = |values: &[String]| {
                let mut values = values.to_vec();
                values.shuffle(&mut rng);
                values.truncate(20);
                values.join("; ")
            };
            let (left, right) = (sample(left_values), sample(right_values));
            let text = format!(
                "Column \"{left_name}\" contains {left}.\nColumn \"{right_name}\" contains {right}."
            );
            (
                format!("{left_name} VERSUS {right_name}"),
                Vec::new(),
                Vec::new(),
                Some(text),
            )
        }
        Task::Extraction { document, attr } => {
            let text = unidm::html::strip_tags(document);
            (attr.clone(), Vec::new(), Vec::new(), Some(text))
        }
    };
    let context = match brought {
        Some(text) => text,
        None => parsing::parse_context(llm, config, &records)?,
    };
    let claim = Claim {
        task: kind,
        context,
        query,
    };
    let target_prompt = prompting::build_target_prompt(llm, config, &claim)?;
    let answer = prompting::answer(llm, &target_prompt)?;
    Ok(RunOutput {
        answer,
        usage: meter.used(),
        trace: Trace {
            selected_attrs,
            context_records: records.iter().map(SerializedRecord::render).collect(),
            context_text: claim.context,
            target_prompt,
        },
    })
}

#[test]
fn run_over_the_frame_equals_the_step_functions_composed_by_hand() {
    let world = World::generate(SEED);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), SEED);
    let (lake, tasks) = task_mix(&world, SEED, 6);
    let on = PipelineConfig::paper_default().with_seed(SEED);
    let configs = [
        on,
        PipelineConfig::all_off().with_seed(SEED),
        PipelineConfig {
            meta_retrieval: false,
            ..on
        },
        PipelineConfig {
            instance_retrieval: false,
            ..on
        },
        PipelineConfig {
            context_parsing: false,
            ..on
        },
        PipelineConfig {
            prompt_construction: false,
            ..on
        },
    ];
    for config in configs {
        // One pipeline for the whole mix: later tasks read warm frames.
        let unidm = UniDm::new(&llm, config);
        let mut kept = 0usize;
        for task in &tasks {
            let (whole_log, hand_log) = (PromptLog::new(&llm), PromptLog::new(&llm));
            let want = by_hand(&hand_log, &config, &lake, task).expect("the mix runs clean");
            let got = unidm.run(&lake, task).expect("the mix runs clean");
            assert_eq!(got, want, "{:?} under {config:?}", task.kind());
            // The same prompts in the same order, from a fresh pipeline too.
            let fresh = UniDm::new(&whole_log, config).run(&lake, task);
            assert_eq!(fresh.as_ref(), Ok(&want));
            assert_eq!(whole_log.prompts(), hand_log.prompts());
            kept += got.trace.context_records.len();
        }
        assert!(
            kept >= tasks.len() / 2,
            "the mix keeps context records: {kept}"
        );
    }
}

/// Two entity-resolution tasks over `pool` and over `pool` with one cell
/// of one labelled pair changed.
fn near_duplicates(world: &World) -> (Task, Task) {
    let (_, tasks) = task_mix(world, SEED, 2);
    let task = tasks
        .into_iter()
        .find(|t| t.kind() == TaskKind::EntityResolution)
        .expect("the mix has entity resolution");
    let mut other = task.clone();
    let Task::EntityResolution { pool, .. } = &mut other else {
        unreachable!("filtered by kind");
    };
    let cell = &mut pool.last_mut().expect("a labelled pool").0.pairs[0].1;
    cell.push_str(" (reissue)");
    (task, other)
}

#[test]
fn planner_tells_tasks_apart_that_share_a_fingerprint() {
    let world = World::generate(SEED);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), SEED);
    let (task, other) = near_duplicates(&world);
    assert_ne!(task, other);
    let lake = DataLake::new();
    let config = PipelineConfig::paper_default().with_seed(SEED);
    let tasks = [
        task.clone(),
        other.clone(),
        task.clone(),
        other.clone(),
        task.clone(),
    ];
    let serial: Vec<_> = tasks
        .iter()
        .map(|t| UniDm::new(&llm, config).run(&lake, t))
        .collect();

    let log = PromptLog::new(&llm);
    let runner = BatchRunner::new(&log, config).with_workers(1);
    let report = runner.run_report(&lake, &tasks);
    assert_eq!((report.unique_tasks, report.coalesced_tasks), (2, 3));
    assert_eq!(report.results, serial);
    // Both representatives ran: the changed cell is in one `p_ri` only.
    let mut scored: Vec<String> = log.prompts();
    scored.retain(|p| p.contains("Score the relevance"));
    assert_eq!(scored.len(), 2);
    assert_eq!(scored.iter().filter(|p| p.contains("(reissue)")).count(), 1);

    // The streaming memo keys tasks the same way, across partitions.
    for partition in [1, 2, 8] {
        let mut streamed = Vec::new();
        let report = runner.with_partition_tasks(partition).run_streaming(
            &lake,
            tasks.iter().cloned(),
            |_, result| streamed.push(result),
        );
        assert_eq!(
            (report.unique_tasks, report.coalesced_tasks),
            (2, 3),
            "{partition}"
        );
        assert_eq!(streamed, serial, "{partition}");
    }

    // Byte-identical tasks still fold to one run.
    let twins = [task.clone(), task];
    let report = runner.run_report(&lake, &twins);
    assert_eq!((report.unique_tasks, report.coalesced_tasks), (1, 1));
}
