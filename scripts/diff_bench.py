#!/usr/bin/env python3
"""Diff committed BENCH_*.json ledgers, each against the next.

Usage: diff_bench.py OLDEST.json ... NEWEST.json

Given two files it diffs them; given more it diffs every consecutive
pair, in the order given, and fails if any pair moved — CI passes the
committed ledgers in PR order, so a PR joins the gate by committing its
file.

A ledger (written by `throughput`, `BENCH_21.json` on) holds only exact
counters: every leaf is an integer or a name, and a pure function of the
source tree. So there is one rule, applied to every path present in both
files: **the leaf must be equal**. List elements are matched by their
`name` when they have one (regimes, serving tenants), by position
otherwise; a path only one file has is not compared, so a ledger can add
or drop a regime without breaking the diff.

Two short tables qualify the rule. `MAY_FALL` names the leaves a PR may
improve — heap-allocation counts and the out-of-core peak — which must
not rise. `PINNED_FROM` names paths whose value a PR moved on purpose,
with the PR that did: they are compared only between ledgers at or past
it. A PR that changes behaviour adds its paths there, in the same diff
that changes the number.
"""

import json
import sys

# Identifies the file, not the tree.
SKIP = {"pr"}

# Leaf names that may fall between ledgers, never rise.
MAY_FALL = {
    "allocs_per_task",
    "allocs_per_request",
    "allocations",
    "bytes",
    "semantic_warm_allocs_per_lookup",
    "semantic_fold_allocs_per_lookup",
    "peak_live_bytes",
}

# Path -> the PR whose ledger first carries its current value. Both
# pipelined makespans depended on OS thread start order until PR 21 seated
# every worker before the reactor ran. The allocation counts pinned at 46
# rose because the stand-in model's street link builds `street_base` (three
# allocations) for every address candidate of a `p_ri` prompt, now that the
# ASCII word-by-word compare beside it is deleted.
PINNED_FROM = {
    "pipelined_heavy_tail.pipelined.makespan_us": 21,
    "pipelined_heavy_tail.hedged.makespan_us": 21,
    "regimes[serial].allocs_per_task": 46,
    "regimes[cold cache].allocs_per_task": 46,
    "regimes[dup serial].allocs_per_task": 46,
    "regimes[dup planner].allocs_per_task": 46,
    "regimes[cold store].allocs_per_task": 46,
    "regimes[sync heavy-tail].allocs_per_task": 46,
    "serving.allocs_per_request": 46,
}

# From ledger 50 on, `p_ri` is in header form: the attribute names once,
# then one row of values per candidate. Every token count below falls with
# it. The fault draws are keyed by prompt bytes, so the heavy-tail, routed
# and serving schedules draw anew: makespans, attempts, hedges and SLO
# counts move while every answer stays. The routed regime also runs
# through a window of 16 runs now. The out-of-core peak rises 0.5 %,
# because a record-frame row holds the value row beside the `attr: value`
# line.
PINNED_FROM.update({
    "regimes[serial].model_tokens": 50,
    "regimes[cold cache].model_tokens": 50,
    "regimes[warm cache].tokens_saved": 50,
    "regimes[dup serial].model_tokens": 50,
    "regimes[dup serial].tokens_saved": 50,
    "regimes[dup planner].model_tokens": 50,
    "regimes[cold store].model_tokens": 50,
    "regimes[sync heavy-tail].model_tokens": 50,
    "regimes[pipelined heavy-tail].model_tokens": 50,
    "regimes[pipelined hedged].model_tokens": 50,
    "regimes[pipelined hedged].model_calls": 50,
    "pipelined_heavy_tail.sync.makespan_us": 50,
    "pipelined_heavy_tail.pipelined.makespan_us": 50,
    "pipelined_heavy_tail.hedged.makespan_us": 50,
    "pipelined_heavy_tail.hedged.endpoint_calls": 50,
    "pipelined_heavy_tail.hedged.hedges_issued": 50,
    "pipelined_heavy_tail.hedged.hedges_cancelled": 50,
    "routed.single_endpoint[0].makespan_us": 50,
    "routed.single_endpoint[0].attempts": 50,
    "routed.single_endpoint[0].rate_limited": 50,
    "routed.single_endpoint[0].tokens_per_answer_milli": 50,
    "routed.single_endpoint[1].makespan_us": 50,
    "routed.single_endpoint[1].attempts": 50,
    "routed.single_endpoint[1].rate_limited": 50,
    "routed.single_endpoint[1].tokens_per_answer_milli": 50,
    "routed.fleet[0].makespan_us": 50,
    "routed.fleet[0].breaker_trips": 50,
    "routed.fleet[0].tokens_per_answer_milli": 50,
    "routed.fleet[0].endpoint_calls[0]": 50,
    "routed.fleet[0].endpoint_calls[1]": 50,
    "routed.fleet[0].endpoint_calls[2]": 50,
    "routed.fleet[1].makespan_us": 50,
    "routed.fleet[1].attempts": 50,
    "routed.fleet[1].rate_limited": 50,
    "routed.fleet[1].tokens_per_answer_milli": 50,
    "routed.fleet[1].endpoint_calls[0]": 50,
    "routed.fleet[1].endpoint_calls[1]": 50,
    "routed.fleet[1].endpoint_calls[2]": 50,
    "cascade.large_only_tokens": 50,
    "cascade.cascade_billed_micro": 50,
    "cascade.large_only_billed_micro": 50,
    "cascade.billed_per_answer_micro": 50,
    "cascade.large_only_billed_per_answer_micro": 50,
    "cascade.tokens_per_answer_milli": 50,
    "scale.peak_live_bytes": 50,
    "serving.slo_met": 50,
    "serving.attainment_permille": 50,
    "serving.goodput_per_ks": 50,
    "serving.trace_fnv": 50,
    "serving.tenants[table1-imputation].slo_met": 50,
    "serving.tenants[table1-imputation].attainment_permille": 50,
    "serving.tenants[table1-imputation].goodput_per_ks": 50,
    "serving.tenants[table3-errors].p99_us": 50,
    "serving.tenants[table3-errors].p999_us": 50,
    "serving.tenants[table3-errors].max_us": 50,
    "serving.tenants[table4-matching].slo_met": 50,
    "serving.tenants[table4-matching].attainment_permille": 50,
    "serving.tenants[table4-matching].goodput_per_ks": 50,
    "serving.tenants[table5-finetune].slo_met": 50,
    "serving.tenants[table5-finetune].attainment_permille": 50,
    "serving.tenants[table5-finetune].goodput_per_ks": 50,
    "serving.tenants[table5-finetune].p99_us": 50,
    "serving.tenants[table5-finetune].p999_us": 50,
    "serving.tenants[table5-finetune].max_us": 50,
    "serving.tenants[table7-tokens].slo_met": 50,
    "serving.tenants[table7-tokens].attainment_permille": 50,
    "serving.tenants[table7-tokens].goodput_per_ks": 50,
})

# From ledger 51 on, `p_cq` shows only its own task's demonstration (all
# four for table QA, join discovery and extraction, which have none of
# their own). Every token and billed count below falls with it. The fault
# draws are keyed by prompt bytes, so the heavy-tail, routed, cascade and
# serving schedules draw anew: makespans, attempts, hedges, throttle waits
# and SLO counts move while every answer stays.
PINNED_FROM.update({
    "regimes[serial].model_tokens": 51,
    "regimes[cold cache].model_tokens": 51,
    "regimes[warm cache].tokens_saved": 51,
    "regimes[dup serial].model_tokens": 51,
    "regimes[dup serial].tokens_saved": 51,
    "regimes[dup planner].model_tokens": 51,
    "regimes[cold store].model_tokens": 51,
    "regimes[sync heavy-tail].model_tokens": 51,
    "regimes[pipelined heavy-tail].model_tokens": 51,
    "regimes[pipelined hedged].model_tokens": 51,
    "regimes[pipelined hedged].model_calls": 51,
    "pipelined_heavy_tail.sync.makespan_us": 51,
    "pipelined_heavy_tail.hedged.endpoint_calls": 51,
    "pipelined_heavy_tail.hedged.hedges_issued": 51,
    "pipelined_heavy_tail.hedged.hedges_won": 51,
    "pipelined_heavy_tail.hedged.hedges_cancelled": 51,
    "routed.single_endpoint[0].makespan_us": 51,
    "routed.single_endpoint[0].attempts": 51,
    "routed.single_endpoint[0].rate_limited": 51,
    "routed.single_endpoint[0].tokens_per_answer_milli": 51,
    "routed.single_endpoint[0].throttle_wait_us": 51,
    "routed.single_endpoint[1].makespan_us": 51,
    "routed.single_endpoint[1].attempts": 51,
    "routed.single_endpoint[1].rate_limited": 51,
    "routed.single_endpoint[1].tokens_per_answer_milli": 51,
    "routed.single_endpoint[1].throttle_wait_us": 51,
    "routed.fleet[0].makespan_us": 51,
    "routed.fleet[0].attempts": 51,
    "routed.fleet[0].rate_limited": 51,
    "routed.fleet[0].tokens_per_answer_milli": 51,
    "routed.fleet[0].throttle_wait_us": 51,
    "routed.fleet[0].endpoint_calls[0]": 51,
    "routed.fleet[0].endpoint_calls[1]": 51,
    "routed.fleet[0].endpoint_calls[2]": 51,
    "routed.fleet[1].makespan_us": 51,
    "routed.fleet[1].attempts": 51,
    "routed.fleet[1].rate_limited": 51,
    "routed.fleet[1].tokens_per_answer_milli": 51,
    "routed.fleet[1].throttle_wait_us": 51,
    "routed.fleet[1].endpoint_calls[0]": 51,
    "routed.fleet[1].endpoint_calls[1]": 51,
    "routed.fleet[1].endpoint_calls[2]": 51,
    "cascade.large_tier_tokens": 51,
    "cascade.large_only_tokens": 51,
    "cascade.cascade_billed_micro": 51,
    "cascade.large_only_billed_micro": 51,
    "cascade.billed_per_answer_micro": 51,
    "cascade.large_only_billed_per_answer_micro": 51,
    "cascade.tokens_per_answer_milli": 51,
    "serving.slo_met": 51,
    "serving.attainment_permille": 51,
    "serving.goodput_per_ks": 51,
    "serving.trace_fnv": 51,
    "serving.tenants[table1-imputation].slo_met": 51,
    "serving.tenants[table1-imputation].attainment_permille": 51,
    "serving.tenants[table1-imputation].goodput_per_ks": 51,
    "serving.tenants[table1-imputation].p99_us": 51,
    "serving.tenants[table1-imputation].p999_us": 51,
    "serving.tenants[table1-imputation].max_us": 51,
    "serving.tenants[table2-transformation].slo_met": 51,
    "serving.tenants[table2-transformation].attainment_permille": 51,
    "serving.tenants[table2-transformation].goodput_per_ks": 51,
    "serving.tenants[table2-transformation].p99_us": 51,
    "serving.tenants[table2-transformation].p999_us": 51,
    "serving.tenants[table2-transformation].max_us": 51,
    "serving.tenants[table4-matching].slo_met": 51,
    "serving.tenants[table4-matching].attainment_permille": 51,
    "serving.tenants[table4-matching].goodput_per_ks": 51,
    "serving.tenants[table4-matching].p999_us": 51,
    "serving.tenants[table4-matching].max_us": 51,
    "serving.tenants[table5-finetune].slo_met": 51,
    "serving.tenants[table5-finetune].attainment_permille": 51,
    "serving.tenants[table5-finetune].goodput_per_ks": 51,
    "serving.tenants[table6-zoo].p999_us": 51,
    "serving.tenants[table6-zoo].max_us": 51,
    "serving.tenants[table7-tokens].slo_met": 51,
    "serving.tenants[table7-tokens].attainment_permille": 51,
    "serving.tenants[table7-tokens].goodput_per_ks": 51,
    "serving.tenants[table7-tokens].p99_us": 51,
    "serving.tenants[table7-tokens].p999_us": 51,
    "serving.tenants[table7-tokens].max_us": 51,
    "serving.tenants[table8-10-ablation].slo_met": 51,
    "serving.tenants[table8-10-ablation].attainment_permille": 51,
    "serving.tenants[table8-10-ablation].goodput_per_ks": 51,
    "serving.tenants[table8-10-ablation].p99_us": 51,
    "serving.tenants[table8-10-ablation].p999_us": 51,
    "serving.tenants[table8-10-ablation].max_us": 51,
})


def leaves(node, path=""):
    """Yields (path, leaf name, value) for every leaf under `node`."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for index, value in enumerate(node):
            named = isinstance(value, dict) and "name" in value
            yield from leaves(value, f"{path}[{value['name'] if named else index}]")
    else:
        yield path, path.rsplit(".", 1)[-1], node


def diff_pair(old_path, new_path):
    """Diffs one ledger against the next; returns the paths that moved."""
    with open(old_path) as f:
        old = json.load(f)
    with open(new_path) as f:
        new = {path: value for path, _, value in leaves(json.load(f))}
    moved, compared = [], 0
    for path, name, was in leaves(old):
        if path not in new or name in SKIP or old["pr"] < PINNED_FROM.get(path, 0):
            continue
        compared += 1
        now = new[path]
        if name in MAY_FALL and now < was:
            print(f"  improved  {path}: {was} -> {now}")
        elif now != was:
            moved.append(f"{path}: {was} -> {now}")
    print(f"{old_path} -> {new_path}: {compared} shared leaves, {len(moved)} moved.")
    for line in moved:
        print(f"  MOVED {line}", file=sys.stderr)
    return moved


def main(argv):
    paths = argv[1:]
    if len(paths) < 2:
        print("usage: diff_bench.py OLDEST.json ... NEWEST.json", file=sys.stderr)
        return 2
    moved = [pair for pair in zip(paths, paths[1:]) if diff_pair(*pair)]
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
