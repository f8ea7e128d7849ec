//! Skill modules of the simulated model, one per prompt shape.
//!
//! Each skill is a pure function of `(knowledge base, capability profile,
//! deterministic dice, parsed request)`. The capability profile gates
//! success probabilities; the knowledge base bounds what can be recalled;
//! the prompt content bounds what can be read. Nothing here consults ground
//! truth.

pub mod answer;
pub mod cloze_gen;
pub mod induce;
pub mod parsing;
pub mod retrieval;

use crate::protocol::ContextKind;
use crate::protocol::PromptForm;

/// Multiplier on context-reading fidelity for each context representation.
///
/// These three constants *are* the paper's context-data-parsing ablation:
/// natural text is easier for the model to use than bare `attr: value`
/// pairs, which are easier than raw dumps (§4.3).
pub fn context_kind_factor(kind: ContextKind) -> f64 {
    match kind {
        ContextKind::Natural => 1.0,
        ContextKind::Serialized => 0.93,
        ContextKind::Tabular => 0.85,
        ContextKind::Empty => 1.0,
    }
}

/// Multiplier on all capabilities for each prompt form.
///
/// Cloze questions (target prompt construction, §4.4) phrase the task the
/// way the model's training corpus does; direct concatenation does not.
pub fn prompt_form_factor(form: PromptForm) -> f64 {
    match form {
        PromptForm::Cloze => 1.0,
        PromptForm::FewShot => 0.90,
        PromptForm::Simple => 0.87,
    }
}

/// The street part of an address ("224 S. Beverly Dr." → "s. beverly dr."):
/// its words past the house number, joined by single spaces in `words`
/// (cleared first), lowercased as a whole so that a final sigma reads its
/// context. One allocation once `words` is warm.
pub(crate) fn street_base(addr: &str, words: &mut String) -> String {
    words.clear();
    let street = addr.split_whitespace();
    for word in street.skip_while(|w| w.chars().all(|c| c.is_ascii_digit())) {
        if !words.is_empty() {
            words.push(' ');
        }
        words.push_str(word);
    }
    words.to_lowercase()
}

/// The leading area code of a phone number ("310/859-8744" → "310").
pub(crate) fn area_code(phone: &str) -> Option<&str> {
    let digits = phone.bytes().take_while(u8::is_ascii_digit).count();
    (digits >= 3).then(|| &phone[..digits])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn natural_beats_serialized_beats_tabular() {
        assert!(
            context_kind_factor(ContextKind::Natural)
                > context_kind_factor(ContextKind::Serialized)
        );
        assert!(
            context_kind_factor(ContextKind::Serialized)
                > context_kind_factor(ContextKind::Tabular)
        );
    }

    #[test]
    fn street_base_joins_then_lowercases_as_a_whole() {
        let oracle = |addr: &str| {
            (addr.split_whitespace())
                .skip_while(|w| w.chars().all(|c| c.is_ascii_digit()))
                .collect::<Vec<_>>()
                .join(" ")
                .to_lowercase()
        };
        let mut words = String::new();
        for addr in [
            "224 S. Beverly Dr.",
            "  12\t 7  Main\t\tSt  ",
            "12 34",
            "",
            "9 ΟΔΟΣ ΣΟΦΟΚΛΕΟΥΣ",
            "Rue de l'Église",
        ] {
            assert_eq!(street_base(addr, &mut words), oracle(addr), "{addr:?}");
        }
        assert_eq!(street_base("9 ΟΔΟΣ ΑΣ", &mut words), "οδος ας");
    }

    #[test]
    fn cloze_beats_simple() {
        assert!(prompt_form_factor(PromptForm::Cloze) > prompt_form_factor(PromptForm::Simple));
    }
}
