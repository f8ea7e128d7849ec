//! Table question answering (paper appendix C, Figure 3): "how many gold
//! medals did Australia and Switzerland total?"
//!
//! ```text
//! cargo run --example table_qa
//! ```

use unidm::{PipelineConfig, Task, UniDm};
use unidm_llm::{LlmProfile, MockLlm};
use unidm_synthdata::tableqa;
use unidm_tablestore::DataLake;
use unidm_world::World;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let world = World::generate(42);
    let llm = MockLlm::new(&world, LlmProfile::gpt3_175b(), 42);
    let ds = tableqa::medals(&world, 42, 8, 10);
    let lake: DataLake = [ds.table.clone()].into_iter().collect();
    let unidm = UniDm::new(&llm, PipelineConfig::paper_default());

    println!("== Table question answering (Figure 3) ==\n");
    println!("Medals table ({} nations):", ds.table.row_count());
    for row in 0..ds.table.row_count().min(4) {
        let nation = ds.table.cell_value(row, "nation")?;
        let gold = ds.table.cell_value(row, "gold")?;
        let total = ds.table.cell_value(row, "total")?;
        println!("  {nation}: {gold} gold, {total} total");
    }
    println!("  ...\n");

    let mut correct = 0;
    for q in &ds.questions {
        let task = Task::TableQa {
            table: "medals".into(),
            question: q.question.clone(),
        };
        let out = unidm.run(&lake, &task)?;
        let ok = out.answer == q.answer.to_string();
        if ok {
            correct += 1;
        }
        println!(
            "Q: {}\n   -> {} (truth {}){}",
            q.question,
            out.answer,
            q.answer,
            if ok { "" } else { "  [wrong]" }
        );
    }
    println!(
        "\n{correct}/{} questions answered correctly",
        ds.questions.len()
    );

    // Show one full trace, matching the paper's walkthrough.
    let q = &ds.questions[0];
    let out = unidm.run(
        &lake,
        &Task::TableQa {
            table: "medals".into(),
            question: q.question.clone(),
        },
    )?;
    println!("\nWalkthrough for the first question:");
    println!("  Selected attributes: {:?}", out.trace.selected_attrs);
    println!(
        "  Parsed context:\n{}",
        out.trace
            .context_text
            .lines()
            .map(|l| format!("    {l}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    Ok(())
}
