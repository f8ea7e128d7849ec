//! Context-data-parsing skill: answering `p_dp`.
//!
//! Converting `attr: value` pairs into fluent text is, as the paper notes,
//! "an easy job for LLMs": the relations are common and fixed. Strong models
//! do it near-perfectly; weak models occasionally drop a clause, which later
//! costs them at answer time.

use crate::profile::LlmProfile;
use crate::protocol::{naturalize_pairs_into, PdpPrompt, RecordReader};
use crate::Dice;

/// Answers `p_dp`: one natural sentence per record, newline separated.
///
/// The reply is a function of the prompt's bytes only. Each record line is
/// read where it stands ([`RecordReader`]) and its dice are drawn over its
/// [`SerializedRecord::render`](crate::protocol::SerializedRecord::render):
/// a line that is its own render is used in place, any other line is
/// rendered once into a reused buffer.
pub fn parse_context(prompt: &PdpPrompt<'_>, profile: &LlmProfile, dice: &Dice) -> String {
    let mut out = String::new();
    let mut rec = RecordReader::default();
    let mut rendered = String::new();
    let mut i = 0;
    for line in prompt.lines() {
        if !rec.read(line) {
            continue;
        }
        let text = rec.rendered(&mut rendered);
        // A weak model sometimes drops a clause while rewriting.
        let keep_all = dice
            .context(format_args!("{text}#{i}"))
            .chance("pdp-complete", profile.effective_instruction());
        let pairs = rec.pairs();
        let drop = if keep_all || pairs.len() <= 2 {
            None
        } else {
            Some(dice.pick(text, "pdp-drop", pairs.len() - 1) + 1)
        };
        if i > 0 {
            out.push('\n');
        }
        let kept = pairs.iter().enumerate().filter(|&(j, _)| Some(j) != drop);
        naturalize_pairs_into(kept.map(|(_, &pair)| pair), &mut out);
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_natural_sentence, render_pdp, SerializedRecord};

    /// The skill's answer to the `p_dp` prompt over `records`.
    fn answer(records: &[SerializedRecord], profile: &LlmProfile, dice: &Dice) -> String {
        let prompt = render_pdp(records);
        parse_context(&PdpPrompt::read(&prompt).unwrap(), profile, dice)
    }

    fn record() -> SerializedRecord {
        SerializedRecord::new(vec![
            ("city".into(), "Florence".into()),
            ("country".into(), "Italy".into()),
            ("timezone".into(), "Central European Time".into()),
        ])
    }

    #[test]
    fn strong_model_keeps_all_clauses() {
        let req = vec![record()];
        let out = answer(&req, &LlmProfile::gpt4_turbo(), &Dice::new(1));
        let back = parse_natural_sentence(&out).unwrap();
        assert_eq!(back.get("country"), Some("Italy"));
        assert_eq!(back.get("timezone"), Some("Central European Time"));
    }

    #[test]
    fn one_sentence_per_record() {
        let req = vec![record(), record(), record()];
        let out = answer(&req, &LlmProfile::gpt3_175b(), &Dice::new(1));
        assert_eq!(out.lines().count(), 3);
    }

    #[test]
    fn weak_model_drops_clauses_sometimes() {
        let mut dropped = 0;
        let profile = LlmProfile::gptj_6b();
        for i in 0..50 {
            let mut rec = record();
            rec.pairs[0].1 = format!("City{i}");
            let req = vec![rec];
            let out = answer(&req, &profile, &Dice::new(9));
            let back = parse_natural_sentence(&out).unwrap();
            if back.pairs.len() < 3 {
                dropped += 1;
            }
        }
        assert!(dropped > 5, "weak model should degrade: {dropped}/50");
    }

    #[test]
    fn deterministic() {
        let req = vec![record()];
        let a = answer(&req, &LlmProfile::gpt3_175b(), &Dice::new(4));
        let b = answer(&req, &LlmProfile::gpt3_175b(), &Dice::new(4));
        assert_eq!(a, b);
    }
}
