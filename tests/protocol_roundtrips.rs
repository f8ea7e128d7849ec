//! Property tests: the prompt protocol must round-trip arbitrary content.
//!
//! Renderers and parsers live on opposite sides of the text-only interface;
//! these properties guarantee no pipeline state is lost in transit. Inputs
//! are sampled deterministically (see `common::Gen`) — 128 randomized cases
//! per property, reproducible from the fixed seed — and `parse_pcq` is
//! also held to what it returns over 10^4 seeded mutants of rendered
//! prompts.

mod common;

use common::Gen;

use unidm_llm::protocol::{
    claim_query_imputation, parse_answer_request, parse_natural_sentence, parse_pcq,
    parse_pri_response, parse_prm, render_cloze, render_pcq, render_pdp, render_pri, render_prm,
    AnswerPayload, Claim, PdpPrompt, PriPrompt, SerializedRecord, TaskKind,
};

const CASES: usize = 128;

fn record(g: &mut Gen) -> SerializedRecord {
    let n = g.usize(1, 5);
    let mut pairs: Vec<(String, String)> = (0..n).map(|_| (g.attr(), g.value())).collect();
    // Attribute names must be unique within a record.
    pairs.sort_by(|a, b| a.0.cmp(&b.0));
    pairs.dedup_by(|a, b| a.0 == b.0);
    SerializedRecord::new(pairs)
}

#[test]
fn serialized_record_roundtrips() {
    let mut g = Gen::new(0x5EC0);
    for _ in 0..CASES {
        let rec = record(&mut g);
        let rendered = rec.render();
        let parsed = SerializedRecord::parse(&rendered).expect("parseable");
        assert_eq!(rec, parsed);
    }
}

#[test]
fn prm_roundtrips() {
    let mut g = Gen::new(0x93a1);
    for _ in 0..CASES {
        let query = g.value();
        let n = g.usize(1, 6);
        let mut unique: Vec<String> = (0..n).map(|_| g.attr()).collect();
        unique.sort();
        unique.dedup();
        let prompt = render_prm(TaskKind::Imputation, &query, &unique);
        let req = parse_prm(&prompt).expect("parseable");
        assert_eq!(req.query, query);
        assert_eq!(req.candidates, unique);
    }
}

#[test]
fn pri_roundtrips() {
    let mut g = Gen::new(0x9714);
    for _ in 0..CASES {
        let query = g.value();
        let n = g.usize(1, 6);
        let recs: Vec<SerializedRecord> = (0..n).map(|_| record(&mut g)).collect();
        let prompt = render_pri(TaskKind::ErrorDetection, &query, &recs);
        let read = PriPrompt::read(&prompt).expect("parseable");
        assert_eq!(read.query, query);
        // The header names every attribute once; each row reads back as
        // its record's pairs, in header order.
        let header: Vec<&str> = read.header().collect();
        let mut lines = String::new();
        assert_eq!(read.lines_into(&mut lines), recs.len());
        for (line, rec) in lines.lines().zip(&recs) {
            let mut back = SerializedRecord::parse(line).expect("a record").pairs;
            let at = |attr: &str| header.iter().position(|h| *h == attr);
            assert!(back.iter().all(|(a, _)| at(a).is_some()), "{back:?}");
            assert!(
                back.is_sorted_by_key(|(a, _)| at(a)),
                "{header:?}: {back:?}"
            );
            back.sort();
            assert_eq!(back, rec.pairs);
        }
    }
}

#[test]
fn pri_response_indices_in_range() {
    let mut g = Gen::new(0x9155);
    for _ in 0..CASES {
        let n = g.usize(1, 20);
        let scores: Vec<u8> = (0..n).map(|_| g.usize(0, 4) as u8).collect();
        let text = scores
            .iter()
            .enumerate()
            .map(|(i, s)| format!("{}:{}", i + 1, s))
            .collect::<Vec<_>>()
            .join(", ");
        let parsed = parse_pri_response(&text);
        assert_eq!(parsed.len(), scores.len());
        for (k, ((i, s), expected)) in parsed.iter().zip(&scores).enumerate() {
            assert_eq!(*i, k);
            assert_eq!(s, expected);
        }
    }
}

#[test]
fn pdp_roundtrips() {
    let mut g = Gen::new(0x9d9);
    for _ in 0..CASES {
        let n = g.usize(1, 5);
        let recs: Vec<SerializedRecord> = (0..n).map(|_| record(&mut g)).collect();
        let prompt = render_pdp(&recs);
        let read = PdpPrompt::read(&prompt).expect("parseable");
        let records: Vec<_> = read.lines().filter_map(SerializedRecord::parse).collect();
        assert_eq!(records, recs);
    }
}

#[test]
fn naturalize_preserves_values() {
    let mut g = Gen::new(0x0a70);
    for _ in 0..CASES {
        let rec = record(&mut g);
        let sentence = unidm_llm::protocol::naturalize_record(&rec);
        if let Some(back) = parse_natural_sentence(&sentence) {
            // Every original value must still be present somewhere.
            for (_, v) in &rec.pairs {
                let found = back
                    .pairs
                    .iter()
                    .any(|(_, bv)| bv.contains(v.as_str()) || v.contains(bv.as_str()));
                assert!(found, "value {v:?} lost in {sentence:?} -> {back:?}");
            }
        }
    }
}

#[test]
fn pcq_roundtrips() {
    let mut g = Gen::new(0x9c0);
    for i in 0..CASES {
        let claim = Claim {
            task: TaskKind::ALL[i % TaskKind::ALL.len()],
            context: g.value(),
            query: g.value(),
        };
        let back = parse_pcq(&render_pcq(&claim)).expect("parseable");
        assert_eq!(back, claim);
    }
}

/// Text a `p_cq` mutant splices in: the form's own markers, and others.
const PCQ_SPLICES: [&str; 10] = [
    "Claim: ",
    "The task is [",
    "]. The context is [",
    "]. The target query is [",
    "].\nCloze question:",
    "Write the claim as a cloze question.\n",
    "[data imputation]",
    "]",
    "\n",
    "  ",
];

/// A claim for a mutant's seed: values, and now and then a form marker in
/// its context or its query.
fn pcq_claim(g: &mut Gen, task: TaskKind) -> Claim {
    let mut text = || match g.usize(0, 4) {
        0 => format!("{}{}", PCQ_SPLICES[g.usize(0, 3)], g.value()),
        _ => g.value(),
    };
    Claim {
        task,
        context: text(),
        query: text(),
    }
}

/// A seeded mutant of a rendered `p_cq` prompt.
fn mutate_pcq(g: &mut Gen, prompt: &str) -> String {
    // Half the cuts fall in the claim's end, where a mutant can still parse.
    let from = if g.bool() {
        prompt.len().saturating_sub(80)
    } else {
        0
    };
    let cuts: Vec<usize> = (from..=prompt.len())
        .filter(|&i| prompt.is_char_boundary(i))
        .collect();
    let at = cuts[g.usize(0, cuts.len())];
    let (head, tail) = prompt.split_at(at);
    match g.usize(0, 8) {
        // A marker spliced in anywhere, the front included.
        0 | 1 => format!("{head}{}{tail}", PCQ_SPLICES[g.usize(0, PCQ_SPLICES.len())]),
        // A cut: the head alone, the tail alone, or a span dropped.
        2 => head.to_string(),
        3 => tail.to_string(),
        4 => {
            let to = cuts[g.usize(0, cuts.len())].max(at);
            format!("{head}{}", &prompt[to..])
        }
        // A task description, anywhere it stands, swapped for another
        // task's or for its own in capitals.
        5 => {
            let descriptions = TaskKind::ALL.map(|t| t.description());
            let found: Vec<(usize, &str)> = (descriptions.iter())
                .flat_map(|d| prompt.match_indices(d))
                .collect();
            let Some(&(pos, d)) = found.get(g.usize(0, found.len().max(1))) else {
                return prompt.to_string();
            };
            let other = match g.usize(0, 4) {
                0 => d.to_uppercase(),
                _ => descriptions[g.usize(0, descriptions.len())].to_string(),
            };
            format!("{}{other}{}", &prompt[..pos], &prompt[pos + d.len()..])
        }
        // The tail in capitals, or a span doubled.
        6 => format!("{head}{}", tail.to_uppercase()),
        _ => format!("{head}{head}{tail}"),
    }
}

#[test]
fn ten_thousand_pcq_mutants_parse_to_what_they_hold() {
    const INSTRUCTION: &str = "Write the claim as a cloze question.";
    let mut g = Gen::new(0x0051_9c0d);
    let (mut parsed, mut rejected) = (0usize, 0usize);
    for k in 0..10_000 {
        let claim = pcq_claim(&mut g, TaskKind::ALL[k % TaskKind::ALL.len()]);
        let prompt = render_pcq(&claim);
        // An unmutated render reads back as exactly its claim.
        assert_eq!(parse_pcq(&prompt).as_ref(), Some(&claim), "{prompt:?}");
        let mut mutant = prompt;
        for _ in 0..g.usize(1, 3) {
            mutant = mutate_pcq(&mut g, &mutant);
        }
        let Some(back) = parse_pcq(&mutant) else {
            rejected += 1;
            continue;
        };
        parsed += 1;
        assert!(mutant.starts_with(INSTRUCTION), "{mutant:?}");
        let bracketed = format!("[{}]", back.task.description());
        assert!(mutant.contains(&bracketed), "{bracketed} in {mutant:?}");
        assert!(mutant.contains(&back.context), "{back:?} in {mutant:?}");
        assert!(mutant.contains(&back.query), "{back:?} in {mutant:?}");
        // Whatever parses is a render: of the claim it parsed to.
        assert_eq!(render_pcq(&back), mutant);
    }
    // The mutants reach both sides of the parser.
    assert!(parsed > 1_000 && rejected > 1_000, "{parsed} / {rejected}");
}

#[test]
fn imputation_cloze_preserves_subject_and_attr() {
    let mut g = Gen::new(0xc102e);
    let mut checked = 0usize;
    while checked < CASES {
        let rec = record(&mut g);
        let attr = g.attr();
        if rec.pairs.iter().any(|(a, _)| a.eq_ignore_ascii_case(&attr)) {
            continue;
        }
        // The cloze tail pattern parses attr/subject via " of " and
        // " is __."; exclude subjects that would be ambiguous under that
        // grammar (as a real LLM prompt would phrase such records
        // differently too).
        let subject = rec.subject().unwrap_or("").to_string();
        if subject.contains(" of ") || subject.contains(" is ") || attr.contains("after") {
            continue;
        }
        let claim = Claim {
            task: TaskKind::Imputation,
            context: String::new(),
            query: claim_query_imputation(&rec, &attr),
        };
        let cloze = render_cloze(&claim);
        let req = parse_answer_request(&cloze).expect("parseable");
        match req.payload {
            AnswerPayload::Imputation {
                subject: s,
                attr: a,
                ..
            } => {
                assert_eq!(a, attr);
                assert_eq!(s, subject);
            }
            p => panic!("wrong payload {p:?}"),
        }
        checked += 1;
    }
}
