//! Property tests: the prompt protocol must round-trip arbitrary content.
//!
//! Renderers and parsers live on opposite sides of the text-only interface;
//! these properties guarantee no pipeline state is lost in transit. Inputs
//! are sampled deterministically (see `common::Gen`) — 128 randomized cases
//! per property, reproducible from the fixed seed.

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
    for _ in 0..CASES {
        let claim = Claim {
            task: TaskKind::ErrorDetection,
            context: g.value(),
            query: g.value(),
        };
        let back = parse_pcq(&render_pcq(&claim)).expect("parseable");
        assert_eq!(back, claim);
    }
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
