//! Goldens recorded on the commit *before* Algorithm 1 was written once
//! (the seven per-kind `run_*` functions of PR 17's `pipeline.rs`): the
//! single lowering must send the same prompts in the same order, return
//! the same [`RunOutput`]s and fail with the same [`UniDmError`]s.
//! `tests/batch_exec.rs` compares two runs of the same code, so it cannot
//! see a lowering that changes a prompt; this file can.
//!
//! To re-record after an intended change of prompts: run the test, copy
//! the `actual` table its failure prints over [`DIGESTS`].

mod common;

use common::{task_mix, PromptLog};
use unidm::{PipelineConfig, RunOutput, Task, UniDm, UniDmError};
use unidm_llm::protocol::TaskKind;
use unidm_llm::{LlmProfile, MockLlm};
use unidm_tablestore::{DataLake, Table, TableError, Value};
use unidm_world::World;

const SEED: u64 = 42;
const PER_KIND: usize = 8;

/// FNV-1a over length-framed fields.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn field(&mut self, text: &str) {
        self.bytes(&(text.len() as u64).to_le_bytes());
        self.bytes(text.as_bytes());
    }

    fn list(&mut self, items: &[String]) {
        self.bytes(&(items.len() as u64).to_le_bytes());
        items.iter().for_each(|item| self.field(item));
    }

    fn output(&mut self, out: &RunOutput) {
        self.field(&out.answer);
        self.bytes(&(out.usage.prompt_tokens as u64).to_le_bytes());
        self.bytes(&(out.usage.completion_tokens as u64).to_le_bytes());
        self.list(&out.trace.selected_attrs);
        self.list(&out.trace.context_records);
        self.field(&out.trace.context_text);
        self.field(&out.trace.target_prompt);
    }
}

/// The four pipeline prompts a model call can be, by the text only that
/// prompt carries, in the order of the `PipelineConfig` switches that
/// turn them off; target prompts (`p_as`) match none.
const SHAPES: [(&str, &str); 4] = [
    ("p_rm", "Which attributes are helpful"),
    ("p_ri", "Score the relevance"),
    ("p_dp", "logical order: ["),
    ("p_cq", "Write the claim as a cloze question."),
];

/// Which steps run per kind: `p_rm` / `p_ri` / `p_dp` / `p_cq` prompts per
/// task with every switch on. Tasks over a lake table retrieve meta-wise
/// and instance-wise; entity resolution scores its labelled pool;
/// transformation parses the examples it brought; join discovery and
/// extraction bring their context as text and only build the target
/// prompt.
const PROMPTS_PER_TASK: [(TaskKind, [usize; 4]); 7] = [
    (TaskKind::Imputation, [1, 1, 1, 1]),
    (TaskKind::Transformation, [0, 0, 1, 1]),
    (TaskKind::ErrorDetection, [1, 1, 1, 1]),
    (TaskKind::EntityResolution, [0, 1, 1, 1]),
    (TaskKind::TableQa, [1, 1, 1, 1]),
    (TaskKind::JoinDiscovery, [0, 0, 0, 1]),
    (TaskKind::Extraction, [0, 0, 0, 1]),
];

/// `(prompt-sequence digest, RunOutput digest)` of the task mix under
/// each combination of the four switches; bit `i` of the index is the
/// switch of `SHAPES[i]`.
const DIGESTS: [(u64, u64); 16] = [
    (0xa59c76ab618658e8, 0xcc6fae39e8ca7b92),
    (0x30beea320b3cec70, 0x6ea960f96c123d65),
    (0xae10976da9328d2f, 0x8b0fda0233efdfc2),
    (0xea975eaef5f107df, 0x77f5f37826c622fe),
    (0xf1af5455671829eb, 0xf9c9458a3dc98b53),
    (0x0202508e1e337ac8, 0x669c54b993b52494),
    (0x52cd82d9a72902de, 0x5e8968abb6973932),
    (0x455146fda34c2dae, 0x4baed4a5db45dc64),
    (0xa84af68661804dfb, 0x3fd5f4a6ce1c6b82),
    (0xb2a99cbcdb7eebf5, 0x2dcf983a97942a57),
    (0x3bf2eec6923276d8, 0x0ac3a8f951a49b5b),
    (0xfeeb749c60cc25a2, 0x1c642f8a7bc107fc),
    (0xa429099e4043afb9, 0xc8733cbceb355ddd),
    (0xf9e789605e1de2ac, 0x63133d0645406397),
    (0x2de037418426a940, 0x92a6cc41d3a5a6c9),
    (0x8e26bf5434c585de, 0xeea0716b79859d29),
];

#[test]
fn task_mix_sends_the_recorded_prompts_under_every_switch_combination() {
    let world = World::generate(SEED);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), SEED);
    let (lake, tasks) = task_mix(&world, SEED, PER_KIND);
    assert_eq!(tasks.len(), 8 * PER_KIND, "seven kinds, ER twice");

    let mut actual = Vec::new();
    for bits in 0..16usize {
        let on = [0, 1, 2, 3].map(|bit| bits >> bit & 1 == 1);
        let config = PipelineConfig {
            meta_retrieval: on[0],
            instance_retrieval: on[1],
            context_parsing: on[2],
            prompt_construction: on[3],
            ..PipelineConfig::paper_default().with_seed(SEED)
        };
        let log = PromptLog::new(&llm);
        let unidm = UniDm::new(&log, config);
        let (mut prompt_fnv, mut output_fnv) = (Fnv::new(), Fnv::new());
        let mut seen = 0usize;
        for task in &tasks {
            let out = unidm.run(&lake, task).expect("the mix runs clean");
            output_fnv.output(&out);
            let prompts = log.prompts();
            let sent = &prompts[seen..];
            seen = prompts.len();
            sent.iter().for_each(|p| prompt_fnv.field(p));
            assert_eq!(
                sent.last(),
                Some(&out.trace.target_prompt),
                "a run ends on its target prompt"
            );
            // A switch turned off removes its prompt; nothing else moves.
            let (_, per_task) = PROMPTS_PER_TASK
                .iter()
                .find(|(kind, _)| *kind == task.kind())
                .expect("every kind listed");
            let mut expected = 1;
            for (i, (name, marker)) in SHAPES.iter().enumerate() {
                let count = sent.iter().filter(|p| p.contains(marker)).count();
                let want = if on[i] { per_task[i] } else { 0 };
                assert_eq!(count, want, "{name} of {:?} at {bits:#06b}", task.kind());
                expected += want;
            }
            assert_eq!(sent.len(), expected, "{:?} at {bits:#06b}", task.kind());
        }
        actual.push((prompt_fnv.0, output_fnv.0));
    }
    let table: Vec<String> = actual
        .iter()
        .map(|(p, o)| format!("    ({p:#018x}, {o:#018x}),"))
        .collect();
    assert!(
        actual == DIGESTS,
        "prompts or outputs moved; actual:\n{}",
        table.join("\n")
    );
}

fn restaurants() -> DataLake {
    let mut table = Table::builder("restaurants")
        .columns(["name", "addr", "city"])
        .build();
    for (name, addr, city) in [
        ("Blue Bottle", "300 Webster St", "Oakland"),
        ("Ritual", "1026 Valencia St", "San Francisco"),
    ] {
        let row = [name, addr, city].map(Value::text);
        table.push_row(row.to_vec()).expect("arity 3");
    }
    let bare = Table::builder("bare").columns([] as [&str; 0]).build();
    [table, bare].into_iter().collect()
}

#[test]
fn invalid_tasks_fail_with_the_recorded_errors() {
    let llm = MockLlm::new(&World::generate(SEED), LlmProfile::gpt3_175b(), SEED);
    let lake = restaurants();
    let unknown = |attr: &str| UniDmError::Table(TableError::UnknownAttribute(attr.into()));
    let out_of_bounds = UniDmError::Table(TableError::RowOutOfBounds { index: 9, len: 2 });
    let cases = [
        (
            Task::imputation("nope", 0, "city", "name"),
            UniDmError::Table(TableError::UnknownTable("nope".into())),
        ),
        (
            Task::imputation("restaurants", 0, "zip", "name"),
            unknown("zip"),
        ),
        (
            Task::imputation("restaurants", 9, "city", "name"),
            out_of_bounds.clone(),
        ),
        // The attribute is validated before the row is read.
        (
            Task::imputation("restaurants", 9, "zip", "name"),
            unknown("zip"),
        ),
        (
            Task::error_detection("restaurants", 0, "zip"),
            unknown("zip"),
        ),
        (
            Task::error_detection("restaurants", 9, "city"),
            out_of_bounds,
        ),
        (
            Task::error_detection("nope", 0, "city"),
            UniDmError::Table(TableError::UnknownTable("nope".into())),
        ),
        (
            Task::TableQa {
                table: "bare".into(),
                question: "How many rows?".into(),
            },
            UniDmError::InvalidTask("no attributes selected for table QA".into()),
        ),
        (
            Task::TableQa {
                table: "nope".into(),
                question: "How many rows?".into(),
            },
            UniDmError::Table(TableError::UnknownTable("nope".into())),
        ),
    ];
    for config in [PipelineConfig::paper_default(), PipelineConfig::all_off()] {
        let unidm = UniDm::new(&llm, config);
        for (task, want) in &cases {
            assert_eq!(unidm.run(&lake, task).as_ref(), Err(want), "{task:?}");
        }
        // An unknown key attribute is not an error: the key reads empty.
        let keyless = Task::imputation("restaurants", 0, "city", "zip");
        assert!(unidm.run(&lake, &keyless).is_ok());
    }
}
