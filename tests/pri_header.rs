//! `p_ri` in header form: the attribute names once on the instruction
//! line, then one numbered row of values per candidate.
//!
//! * The prompts the pipeline builds from its record frames are
//!   whitespace-normal as written, nulls included (an all-null row, a
//!   leading, an interior and a trailing null), so canonicalization
//!   borrows them at `Whitespace` and at `TableStem`.
//! * Each row of an unmutated prompt reads back as the `attr: value` line
//!   the per-instance form showed.
//! * 10^4 seeded mutants — missing and extra fields, `|` inside a value,
//!   a blank, duplicated or absent header, empty rows, cut and spliced
//!   text — go through `PriPrompt`'s header and row readers, the
//!   stand-in model and the Semantic fold: nothing panics, each row reads
//!   back as its header names beside its fields, and the model scores
//!   each row that reads as a record, once, in order.

mod common;

use common::PromptLog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use unidm::{CanonLevel, CanonicalPrompt, PipelineConfig, Task, UniDm};
use unidm_llm::protocol::{parse_pri_response, render_pri, PriPrompt, SerializedRecord, TaskKind};
use unidm_llm::{LanguageModel, LlmProfile, MockLlm};
use unidm_tablestore::{DataLake, Table, Value};
use unidm_world::World;

/// A restaurant table whose rows put nulls at every place a row can hold
/// one, and the lake holding it.
fn table_with_nulls() -> (Table, DataLake) {
    let mut table = Table::builder("diners")
        .columns(["name", "addr", "city"])
        .build();
    let null = || Value::Null;
    let rows: [[Value; 3]; 8] = [
        ["Target Grill".into(), "100 Pico Blvd".into(), null()],
        [null(), null(), null()],
        [null(), "200 Pico Blvd".into(), "Los Angeles".into()],
        ["Corner Cafe".into(), "12 Elm St".into(), null()],
        ["Noodle Bar".into(), null(), "Springfield".into()],
        [
            "Taco Stand".into(),
            "300 Pico Blvd".into(),
            "Los Angeles".into(),
        ],
        [
            "Bagel Shop".into(),
            "9 Oak Ave".into(),
            "Shelbyville".into(),
        ],
        [
            "Pizza Place".into(),
            "4 Elm St".into(),
            "Springfield".into(),
        ],
    ];
    for row in rows {
        table.push_row(row.to_vec()).unwrap();
    }
    let lake = [table.clone()].into_iter().collect();
    (table, lake)
}

/// The `p_ri` prompts the pipeline sends imputing every null city of
/// [`table_with_nulls`].
fn frame_prompts() -> Vec<String> {
    let world = World::generate(7);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
    let log = PromptLog::new(&llm);
    let (_, lake) = table_with_nulls();
    let unidm = UniDm::new(&log, PipelineConfig::paper_default());
    for row in [0, 1, 3] {
        unidm
            .run(&lake, &Task::imputation("diners", row, "city", "name"))
            .unwrap();
    }
    let prompts = log.prompts().into_iter();
    prompts.filter(|p| PriPrompt::read(p).is_some()).collect()
}

/// The lines `prompt`'s rows read back as, one per row.
fn read_back(prompt: &PriPrompt<'_>) -> Vec<String> {
    let mut lines = String::new();
    let rows = prompt.lines_into(&mut lines);
    assert_eq!(lines.matches('\n').count(), rows, "a line per row");
    lines.lines().map(str::to_string).collect()
}

#[test]
fn frame_built_pri_prompts_are_whitespace_normal_and_read_back_as_their_lines() {
    let prompts = frame_prompts();
    assert_eq!(prompts.len(), 3, "one p_ri prompt per task");
    let (table, _) = table_with_nulls();
    let names = table.schema().names().collect::<Vec<_>>();
    let lines: Vec<String> = (0..table.row_count())
        .map(|row| {
            let record = table.row_at(row).unwrap();
            let pairs = names.iter().zip(record.values());
            let pairs = pairs.map(|(name, value)| (name.to_string(), value.to_string()));
            SerializedRecord::new(pairs.collect()).render()
        })
        .collect();
    let mut shown: Vec<String> = Vec::new();
    for prompt in &prompts {
        for level in [CanonLevel::Whitespace, CanonLevel::TableStem] {
            let canon = CanonicalPrompt::canonicalize(prompt, level);
            assert!(canon.is_borrowed(), "{level}: {prompt}");
        }
        let read = PriPrompt::read(prompt).unwrap();
        assert_eq!(read.header().collect::<Vec<_>>(), names);
        let rows = read.rows().count();
        shown.extend(read.rows().map(str::to_string));
        // Each row is the line the per-instance form showed for one table
        // row: the record frame's `attr: value` render.
        let back = read_back(&read);
        assert_eq!(back.len(), rows);
        for line in &back {
            assert!(lines.contains(line), "{line:?} is no table row's line");
        }
    }
    // An all-null row, a leading, an interior and a trailing null.
    for row in [
        "||",
        "| 200 Pico Blvd | Los Angeles",
        "Noodle Bar || Springfield",
        "Corner Cafe | 12 Elm St |",
    ] {
        assert!(shown.iter().any(|shown| shown == row), "no row {row:?}");
    }
}

/// Records of one schema, some values missing, as `render_pri` takes them.
fn records(rng: &mut StdRng) -> Vec<SerializedRecord> {
    const NAMES: [&str; 4] = ["name", "addr", "city", "phone"];
    const VALUES: [&str; 8] = [
        "",
        "Florence",
        "100 Pico Blvd",
        "Z\u{fc}rich",
        "310/859-8744",
        "a: b",
        "x; y",
        "Border Grill",
    ];
    let width = rng.gen_range(1..=NAMES.len());
    (0..rng.gen_range(0..8))
        .map(|_| {
            let mut value = |_| VALUES[rng.gen_range(0..VALUES.len())].to_string();
            let pairs = NAMES[..width]
                .iter()
                .map(|name| (name.to_string(), value(())));
            SerializedRecord::new(pairs.collect())
        })
        .collect()
}

#[test]
fn rendered_rows_read_back_as_the_records_lines() {
    let mut rng = StdRng::seed_from_u64(0x9e11);
    for _ in 0..500 {
        let records = records(&mut rng);
        let prompt = render_pri(TaskKind::Imputation, "name: X; city: ?", &records);
        let read = PriPrompt::read(&prompt).unwrap();
        let lines: Vec<String> = records.iter().map(SerializedRecord::render).collect();
        assert_eq!(read_back(&read), lines, "{prompt}");
    }
}

/// A seeded mutant of a header-form `p_ri` prompt.
fn mutate(prompt: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = prompt.split('\n').map(str::to_string).collect();
    let row = rng.gen_range(1..lines.len().max(2)).min(lines.len() - 1);
    let (first, header) = match lines[0].split_once("the query:") {
        Some((instruction, header)) => (format!("{instruction}the query:"), header.to_string()),
        None => (lines[0].clone(), String::new()),
    };
    match rng.gen_range(0..10) {
        // A missing field.
        0 => {
            if let Some(at) = lines[row].rfind('|') {
                lines[row].truncate(at);
            }
        }
        // An extra field.
        1 => lines[row].push_str(" | extra"),
        // `|` inside a value.
        2 => {
            let cuts: Vec<usize> = lines[row].char_indices().map(|(i, _)| i).collect();
            if let Some(&at) = cuts.get(rng.gen_range(0..cuts.len().max(1))) {
                lines[row].insert(at, '|');
            }
        }
        // A blank header.
        3 => lines[0] = first,
        // A duplicated header: on its line, or as a line of its own.
        4 => lines[0] = format!("{first}{header} |{header}"),
        5 => lines.insert(1, lines[0].clone()),
        // Empty rows.
        6 => lines[row] = format!("{row}. "),
        7 => lines.insert(row, String::new()),
        // No header and no instruction end: the line is cut short.
        8 => lines[0] = first.replace("based on the task and the query:", "."),
        // Spliced text: another line's tail, or a cut.
        _ => {
            let cut = lines[row].len() / 2;
            let cut = (0..=cut).rev().find(|&i| lines[row].is_char_boundary(i));
            lines[row].truncate(cut.unwrap_or(0));
        }
    }
    lines.join("\n")
}

#[test]
fn ten_thousand_header_form_mutants_read_without_panic() {
    let world = World::generate(7);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 7);
    let mut rng = StdRng::seed_from_u64(0x6d75_7461_0050);
    let mut seeds = frame_prompts();
    for _ in 0..20 {
        let records = records(&mut rng);
        seeds.push(render_pri(
            TaskKind::ErrorDetection,
            "city: Cork?",
            &records,
        ));
    }
    let mut answered = 0;
    for k in 0..10_000 {
        let mut mutant = seeds[k % seeds.len()].clone();
        for _ in 0..rng.gen_range(1..4) {
            mutant = mutate(&mutant, &mut rng);
        }
        let Some(read) = PriPrompt::read(&mutant) else {
            continue;
        };
        let header: Vec<&str> = read.header().collect();
        assert!(header.iter().all(|name| !name.contains('|')), "{mutant:?}");
        let rows = read.rows().count();
        let back = read_back(&read);
        assert_eq!(back.len(), rows, "{mutant:?}");
        // Each row reads back as its header names beside its fields, an
        // empty field left out, a field past the header dropped.
        for (line, row) in back.iter().zip(read.rows()) {
            let fields = row.split('|').map(str::trim);
            let pairs: Vec<String> = (header.iter().zip(fields))
                .filter(|(_, field)| !field.is_empty())
                .map(|(name, field)| format!("{name}: {field}"))
                .collect();
            assert_eq!(*line, pairs.join("; "), "{row:?} under {header:?}");
        }
        CanonicalPrompt::canonicalize(&mutant, CanonLevel::Semantic);
        // The model scores each row that reads back as a record, once, in
        // order.
        if let Ok(reply) = llm.complete(&mutant) {
            let records = back
                .iter()
                .filter(|line| SerializedRecord::parse(line).is_some());
            let scored = parse_pri_response(&reply.text)
                .into_iter()
                .map(|(at, _)| at);
            let want: Vec<usize> = (0..records.count()).collect();
            assert_eq!(scored.collect::<Vec<_>>(), want, "{mutant:?}");
            answered += 1;
        }
    }
    assert!(answered > 8_000, "{answered} mutants answered");
}
