//! The metric registry: every name the benchmark prints, with its unit,
//! direction, bound and — for layer metrics — the end-to-end metric and
//! workload it is expected to move. `BENCHMARK.json` must list exactly
//! these (a test compares the two).

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// One layer metric.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Metric name, prefixed by the module it measures.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Workloads whose traced run measures it (0 elsewhere: the layer is
    /// not driven there).
    pub hosts: &'static str,
    /// The end-to-end metric, and workload, it should move.
    pub moves: &'static str,
}

use Better::{Higher, Lower};

/// The five workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = [
    "mix_batch",
    "lake_stream",
    "replay_warm",
    "store_churn",
    "serve_fleet",
];

/// Metrics every workload reports with `--trace 0`.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "op/s",
        better: Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us/op",
        better: Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_live_bytes",
        unit: "B",
        better: Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "allocs_per_op",
        unit: "count/op",
        better: Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "accuracy_permille",
        unit: "permille",
        better: Higher,
        bound: 0.05,
    },
];

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    hosts: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        hosts,
        moves,
    }
}

const TS: &str = "lake_stream";
const TS_MOVES: &str = "lake_stream/ops_per_s, cpu_us_per_op";
const MIX: &str = "mix_batch";
const MIX_OPS: &str = "mix_batch/ops_per_s";
const PIPE: &str = "mix_batch, lake_stream";
const PIPE_MOVES: &str = "mix_batch/ops_per_s, allocs_per_op; lake_stream/ops_per_s";
const TOKENS: &str = "cost.tokens_per_answer on mix_batch, lake_stream";
const WARM: &str = "replay_warm";
const CHURN: &str = "store_churn";
const CHURN_MOVES: &str = "store_churn/ops_per_s, cost.endpoint_calls_per_op";
const FLEET: &str = "serve_fleet";
const FLEET_CPU: &str = "serve_fleet/ops_per_s, cpu_us_per_op";
const FLEET_VIRT: &str = "serve.virt_p99_us, serve.slo_attainment_permille on serve_fleet";
const FLEET_COST: &str = "cost.endpoint_calls_per_op, cost.billed_micro_per_answer on serve_fleet";
const ALL: &str = "all";

/// Metrics every workload reports with `--trace 1`.
pub const PER_LAYER: [PerLayer; 105] = [
    // Workload-level costs the program computes on some workloads only;
    // listed here because an end-to-end metric must exist on all five.
    layer(
        "cost.endpoint_calls_per_op",
        "call/op",
        Lower,
        "all but replay_warm",
        "itself; moved by cache hit rate, hedging, retries",
    ),
    layer(
        "cost.tokens_per_answer",
        "tok/answer",
        Lower,
        "all but replay_warm",
        "itself; the paper's cost metric (Table 7)",
    ),
    layer(
        "cost.billed_micro_per_answer",
        "micro/answer",
        Lower,
        FLEET,
        "itself; moved by cascade escalations",
    ),
    layer(
        "serve.virt_p99_us",
        "us",
        Lower,
        FLEET,
        "itself; moved by hedging, retries, AIMD",
    ),
    layer(
        "serve.slo_attainment_permille",
        "permille",
        Higher,
        FLEET,
        "itself; failed or refused requests miss",
    ),
    // tablestore
    layer("tablestore.sample_rows.paged_us", "us", Lower, TS, TS_MOVES),
    layer(
        "tablestore.sample_rows.resident_us",
        "us",
        Lower,
        MIX,
        MIX_OPS,
    ),
    layer("tablestore.cell_value.paged_us", "us", Lower, TS, TS_MOVES),
    layer("tablestore.row_at.paged_us", "us", Lower, TS, TS_MOVES),
    layer("tablestore.row_at.resident_ns", "ns", Lower, MIX, MIX_OPS),
    layer("tablestore.read_chunk.us", "us", Lower, TS, TS_MOVES),
    layer("tablestore.pager.hit_ns", "ns", Lower, TS, TS_MOVES),
    layer(
        "tablestore.find.paged_ms",
        "ms",
        Lower,
        TS,
        "none end to end (no workload calls find); guards Table::find",
    ),
    layer(
        "tablestore.ingest.rows_per_s",
        "rows/s",
        Higher,
        TS,
        "lake_stream/setup_s",
    ),
    layer(
        "tablestore.open_segment.ms",
        "ms",
        Lower,
        TS,
        "lake_stream/setup_s",
    ),
    layer(
        "tablestore.segment_bytes_per_row",
        "B/row",
        Lower,
        TS,
        "lake_stream/setup_s, ops_per_s (bytes decoded per fault)",
    ),
    layer(
        "tablestore.peak_resident_chunks",
        "count",
        Lower,
        TS,
        "lake_stream/peak_live_bytes",
    ),
    // text, llm.protocol
    layer("text.count_tokens.ns_per_kb", "ns/kB", Lower, MIX, MIX_OPS),
    layer("protocol.render_pri.us", "us", Lower, MIX, MIX_OPS),
    layer("protocol.parse_pri_response.us", "us", Lower, MIX, MIX_OPS),
    layer("protocol.render_pdp.us", "us", Lower, MIX, MIX_OPS),
    layer("protocol.render_pcq.us", "us", Lower, MIX, MIX_OPS),
    // retrieval, parsing, prompting, pipeline
    layer(
        "retrieval.meta_wise.self_us_per_task",
        "us/task",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer(
        "retrieval.instance_wise.self_us_per_task",
        "us/task",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer(
        "retrieval.instance_wise.p99_us",
        "us",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer(
        "retrieval.rows_examined_per_record_kept",
        "rows/record",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer(
        "retrieval.p_ri.prompt_tokens_per_task",
        "tok/task",
        Lower,
        PIPE,
        TOKENS,
    ),
    layer(
        "parsing.parse_context.self_us_per_task",
        "us/task",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer(
        "prompting.build_target_prompt.self_us_per_task",
        "us/task",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer(
        "prompting.answer.self_us_per_task",
        "us/task",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer(
        "pipeline.run.p50_us.imputation",
        "us",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer("pipeline.run.p50_us.errors", "us", Lower, MIX, MIX_OPS),
    layer(
        "pipeline.run.p50_us.transformation",
        "us",
        Lower,
        MIX,
        MIX_OPS,
    ),
    layer("pipeline.run.p50_us.matching", "us", Lower, MIX, MIX_OPS),
    layer("pipeline.run.p50_us.tableqa", "us", Lower, MIX, MIX_OPS),
    layer("pipeline.run.p50_us.joins", "us", Lower, MIX, MIX_OPS),
    layer("pipeline.run.p50_us.extraction", "us", Lower, MIX, MIX_OPS),
    layer(
        "pipeline.run.p99_us.imputation",
        "us",
        Lower,
        PIPE,
        PIPE_MOVES,
    ),
    layer("pipeline.run.p99_us.matching", "us", Lower, MIX, MIX_OPS),
    layer(
        "pipeline.allocs_per_task.imputation",
        "count/task",
        Lower,
        PIPE,
        "mix_batch/allocs_per_op, lake_stream/allocs_per_op",
    ),
    layer(
        "pipeline.tokens_per_task.p_rm",
        "tok/task",
        Lower,
        PIPE,
        TOKENS,
    ),
    layer(
        "pipeline.tokens_per_task.p_ri",
        "tok/task",
        Lower,
        PIPE,
        TOKENS,
    ),
    layer(
        "pipeline.tokens_per_task.p_dp",
        "tok/task",
        Lower,
        PIPE,
        TOKENS,
    ),
    layer(
        "pipeline.tokens_per_task.p_cq",
        "tok/task",
        Lower,
        PIPE,
        TOKENS,
    ),
    layer(
        "pipeline.tokens_per_task.p_as",
        "tok/task",
        Lower,
        PIPE,
        TOKENS,
    ),
    // canon
    layer(
        "canon.ns_per_prompt.whitespace",
        "ns",
        Lower,
        WARM,
        "replay_warm/ops_per_s",
    ),
    layer(
        "canon.ns_per_prompt.tablestem",
        "ns",
        Lower,
        WARM,
        "mix_batch/ops_per_s, store_churn/ops_per_s",
    ),
    layer(
        "canon.ns_per_prompt.semantic",
        "ns",
        Lower,
        WARM,
        "replay_warm/ops_per_s, cpu_us_per_op",
    ),
    layer(
        "canon.borrowed_share",
        "share",
        Higher,
        WARM,
        "replay_warm/allocs_per_op",
    ),
    layer(
        "canon.fold_share.semantic",
        "share",
        Higher,
        WARM,
        "cost.endpoint_calls_per_op on mix_batch; replay_warm/accuracy_permille",
    ),
    layer(
        "canon.bytes_per_prompt",
        "B",
        Lower,
        WARM,
        "replay_warm/ops_per_s (work scales with prompt bytes)",
    ),
    // exec
    layer(
        "exec.cache.hit_ns",
        "ns",
        Lower,
        WARM,
        "replay_warm/ops_per_s",
    ),
    layer(
        "exec.cache.hit_allocs",
        "count/op",
        Lower,
        WARM,
        "replay_warm/allocs_per_op",
    ),
    layer(
        "exec.cache.replay_fold_ns",
        "ns",
        Lower,
        WARM,
        "replay_warm/ops_per_s",
    ),
    layer("exec.cache.miss_insert_self_ns", "ns", Lower, MIX, MIX_OPS),
    layer(
        "exec.cache.hit_rate.cold_pass",
        "share",
        Higher,
        MIX,
        "mix_batch/ops_per_s; cost.endpoint_calls_per_op, cost.tokens_per_answer on mix_batch",
    ),
    layer(
        "exec.cache.bounded_hit_rate",
        "share",
        Higher,
        CHURN,
        CHURN_MOVES,
    ),
    layer("exec.cache.evictions", "count", Lower, CHURN, CHURN_MOVES),
    layer(
        "exec.runner.overhead_us_per_task",
        "us/task",
        Lower,
        MIX,
        MIX_OPS,
    ),
    layer(
        "exec.runner.planner_coalesced",
        "count",
        Lower,
        MIX,
        "none: must stay 0 (no two tasks byte-identical)",
    ),
    layer(
        "exec.runner.steals",
        "count",
        Lower,
        MIX,
        "none at one worker; context for speedup_2w",
    ),
    layer(
        "exec.runner.speedup_2w_permille",
        "permille",
        Higher,
        MIX,
        "none at one worker; what a second worker buys here",
    ),
    layer(
        "exec.stream.partitions",
        "count",
        Lower,
        TS,
        "lake_stream/peak_live_bytes",
    ),
    layer(
        "exec.stream.overhead_us_per_task",
        "us/task",
        Lower,
        TS,
        TS_MOVES,
    ),
    // store
    layer("store.get_hit_us", "us", Lower, CHURN, CHURN_MOVES),
    layer("store.get_miss_ns", "ns", Lower, CHURN, CHURN_MOVES),
    layer("store.offer_ns", "ns", Lower, CHURN, CHURN_MOVES),
    layer(
        "store.open_ms_per_k_entries",
        "ms/k",
        Lower,
        CHURN,
        "store_churn/ops_per_s, setup_s",
    ),
    layer(
        "store.compact_ms_per_k_entries",
        "ms/k",
        Lower,
        CHURN,
        "store_churn/ops_per_s, setup_s",
    ),
    layer(
        "store.hit_rate_permille",
        "permille",
        Higher,
        CHURN,
        CHURN_MOVES,
    ),
    layer("store.admitted", "count", Higher, CHURN, CHURN_MOVES),
    layer("store.rejected", "count", Lower, CHURN, CHURN_MOVES),
    layer("store.evicted", "count", Lower, CHURN, CHURN_MOVES),
    layer(
        "store.scan_hot_rate_permille",
        "permille",
        Higher,
        CHURN,
        "cost.endpoint_calls_per_op on store_churn (scan resistance)",
    ),
    layer(
        "store.file_bytes_per_payload_byte",
        "share",
        Lower,
        CHURN,
        "store_churn/setup_s; space side of the read/write/space trade",
    ),
    // backend, dispatch, route, serve
    layer("backend.call_overhead_ns", "ns", Lower, FLEET, FLEET_CPU),
    layer(
        "backend.attempts_per_call",
        "share",
        Lower,
        FLEET,
        FLEET_COST,
    ),
    layer("backend.virt_makespan_us", "us", Lower, FLEET, FLEET_VIRT),
    layer("backend.virt_p99_us", "us", Lower, FLEET, FLEET_VIRT),
    layer("dispatch.call_overhead_ns", "ns", Lower, FLEET, FLEET_CPU),
    layer("dispatch.virt_makespan_us", "us", Lower, FLEET, FLEET_VIRT),
    layer("dispatch.virt_p99_us", "us", Lower, FLEET, FLEET_VIRT),
    layer("dispatch.hedges_issued", "count", Lower, FLEET, FLEET_COST),
    layer("dispatch.hedges_won", "count", Higher, FLEET, FLEET_VIRT),
    layer("dispatch.endpoint_calls", "count", Lower, FLEET, FLEET_COST),
    layer("route.call_overhead_ns", "ns", Lower, FLEET, FLEET_CPU),
    layer("route.virt_makespan_us", "us", Lower, FLEET, FLEET_VIRT),
    layer("route.attempts", "count", Lower, FLEET, FLEET_COST),
    layer("route.rate_limited", "count", Lower, FLEET, FLEET_VIRT),
    layer("route.breaker_trips", "count", Lower, FLEET, FLEET_VIRT),
    layer(
        "route.endpoint_call_skew_permille",
        "permille",
        Lower,
        FLEET,
        FLEET_VIRT,
    ),
    layer(
        "route.cascade.escalation_permille",
        "permille",
        Lower,
        FLEET,
        FLEET_COST,
    ),
    layer(
        "route.cascade.large_tier_token_share_permille",
        "permille",
        Lower,
        FLEET,
        FLEET_COST,
    ),
    layer(
        "serve.sim_requests_per_s",
        "req/s",
        Higher,
        FLEET,
        FLEET_CPU,
    ),
    layer("serve.virt_p50_us", "us", Lower, FLEET, FLEET_VIRT),
    layer("serve.virt_p999_us", "us", Lower, FLEET, FLEET_VIRT),
    layer(
        "serve.goodput_per_ks",
        "answer/ks",
        Higher,
        FLEET,
        FLEET_VIRT,
    ),
    layer(
        "serve.slo_permille.rate_x05",
        "permille",
        Higher,
        FLEET,
        FLEET_VIRT,
    ),
    layer(
        "serve.slo_permille.rate_x1",
        "permille",
        Higher,
        FLEET,
        FLEET_VIRT,
    ),
    layer(
        "serve.slo_permille.rate_x2",
        "permille",
        Higher,
        FLEET,
        FLEET_VIRT,
    ),
    layer(
        "serve.generator_lag_us_max",
        "us",
        Lower,
        FLEET,
        "none: the schedule is virtual, so the generator can never run late",
    ),
    // stub and tracer
    layer(
        "endpoint.busy_us_per_op",
        "us/op",
        Lower,
        ALL,
        "every ops_per_s: the stub's share of a pass, to be kept small",
    ),
    layer(
        "endpoint.replay_fallthrough",
        "count",
        Lower,
        ALL,
        "none: any value above 0 fails the run",
    ),
    layer(
        "trace.overhead_share",
        "share",
        Lower,
        ALL,
        "none: traced pass / untraced first-decile pass - 1",
    ),
    layer(
        "trace.accounted_share",
        "share",
        Higher,
        ALL,
        "none: sum of span self times / traced pass time",
    ),
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.chars().next().unwrap().is_ascii_alphanumeric()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let mut seen = HashSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.name, m.unit))
            .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
            .chain(WORKLOADS.iter().map(|w| (*w, "s")))
        {
            assert!(name_ok(name), "{name}");
            assert!(unit_ok(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` is hand-written; this keeps it and the registry
    /// from drifting apart.
    #[test]
    fn benchmark_json_lists_exactly_the_registry() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let mut expected = String::new();
        for m in END_TO_END {
            expected.push_str(&format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}\n",
                m.name,
                m.unit,
                m.better.as_str(),
                m.bound
            ));
        }
        for m in PER_LAYER {
            expected.push_str(&format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}\n",
                m.name,
                m.unit,
                m.better.as_str()
            ));
        }
        let listed: String = text
            .lines()
            .map(|l| l.trim().trim_end_matches(','))
            .filter(|l| l.starts_with("{\"name\"") && l.contains("\"unit\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(listed, expected);
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("{{\"name\": \"{w}\", \"why\"")),
                "{w}"
            );
        }
    }
}
