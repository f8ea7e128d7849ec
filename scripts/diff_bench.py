#!/usr/bin/env python3
"""Diff committed BENCH_*.json perf baselines, each against the next.

Usage: diff_bench.py [--allow-workload-change] OLDEST.json ... NEWEST.json

Given two files it diffs them; given more it diffs every consecutive
pair, in the order given, and fails if any pair regresses — CI passes the
committed baselines in PR order, so a PR adds its baseline to the gate by
committing the file.

The throughput bench emits two kinds of numbers:

* **Exact counters** — model calls, cache misses, tokens saved, endpoint
  calls, warm-path and folded-lookup allocations, cascade billing. The whole stack is
  deterministic, so for an unchanged workload these must not regress
  between consecutive baselines: a new PR may make them better, never
  worse. Any regression fails this script (exit 1).
* **Times** — wall seconds, tasks/sec, virtual-time makespans and
  quantiles. These depend on the machine and on scheduling; they are
  printed for information and never fail the diff.

The hit/coalesced split of a cached regime is timing-dependent under
parallelism (a lookup that races the leader coalesces; one that arrives
later hits), so the script compares their *sum* — lookups served without
an endpoint call — which is exact.

Only regimes present in both files are compared, so baselines can add new
regimes without breaking the diff. If the two files describe different
workloads (task count, seed or model), nothing is comparable and the
script **fails** — a silent workload change would disable the perf gate
while appearing green. Re-baselining on purpose requires the explicit
`--allow-workload-change` flag, which downgrades the mismatch to a
notice.
"""

import json
import sys


# Fields that vary with machine or scheduling: printed, never compared.
INFORMATIONAL = ("wall_s", "tasks_per_s", "makespan_us", "p99_us", "virtual_us")


def load(path):
    with open(path) as f:
        return json.load(f)


def main(argv):
    args = list(argv[1:])
    allow_workload_change = "--allow-workload-change" in args
    paths = [a for a in args if a != "--allow-workload-change"]
    if len(paths) < 2:
        print(
            "usage: diff_bench.py [--allow-workload-change] "
            "OLDEST.json ... NEWEST.json",
            file=sys.stderr,
        )
        return 2
    regressed = [
        f"{old_path} -> {new_path}"
        for old_path, new_path in zip(paths, paths[1:])
        if diff_pair(old_path, new_path, allow_workload_change) != 0
    ]
    if len(paths) > 2:
        print(f"\n{len(paths) - 1} pairs diffed, {len(regressed)} regressed.")
        for pair in regressed:
            print(f"  REGRESSED {pair}", file=sys.stderr)
    return 1 if regressed else 0


def diff_pair(old_path, new_path, allow_workload_change):
    """Diffs one baseline against the next; 0 when no counter regressed."""
    old, new = load(old_path), load(new_path)

    workload = ("tasks", "seed", "model")
    if any(old.get(k) != new.get(k) for k in workload):
        detail = {k: (old.get(k), new.get(k)) for k in workload}
        if allow_workload_change:
            print(
                f"workload mismatch between {old_path} and {new_path} "
                f"({detail}); re-baselining as requested, nothing compared."
            )
            return 0
        print(
            f"REGRESSED workload mismatch between {old_path} and {new_path} "
            f"({detail}): the perf gate has nothing to compare. If the "
            "workload change is intentional, re-run with "
            "--allow-workload-change to re-baseline.",
            file=sys.stderr,
        )
        return 1

    failures = []

    def must_not_increase(scope, key, o, n):
        if key in o and key in n:
            if n[key] > o[key]:
                failures.append(f"{scope}: {key} regressed {o[key]} -> {n[key]}")
            elif n[key] < o[key]:
                print(f"  improved  {scope}: {key} {o[key]} -> {n[key]}")

    def must_not_decrease(scope, key_label, o_val, n_val):
        if n_val < o_val:
            failures.append(f"{scope}: {key_label} regressed {o_val} -> {n_val}")
        elif n_val > o_val:
            print(f"  improved  {scope}: {key_label} {o_val} -> {n_val}")

    old_regimes = {r["name"]: r for r in old.get("regimes", [])}
    new_regimes = {r["name"]: r for r in new.get("regimes", [])}
    shared = [name for name in old_regimes if name in new_regimes]
    print(f"comparing {len(shared)} shared regimes of {old_path} vs {new_path}:")
    for name in shared:
        o, n = old_regimes[name], new_regimes[name]
        scope = f"regime '{name}'"
        # allocs_per_task (PR 16+, one-worker regimes only) is exact like
        # scale's: a PR that serializes per task again fails here.
        for key in ("model_calls", "model_tokens", "cache_misses", "allocs_per_task"):
            must_not_increase(scope, key, o, n)
        if "cache_hits" in o and "cache_hits" in n:
            must_not_decrease(
                scope,
                "cache_hits+cache_coalesced",
                o.get("cache_hits", 0) + o.get("cache_coalesced", 0),
                n.get("cache_hits", 0) + n.get("cache_coalesced", 0),
            )
        if "tokens_saved" in o and "tokens_saved" in n:
            must_not_decrease(scope, "tokens_saved", o["tokens_saved"], n["tokens_saved"])
        times = ", ".join(
            f"{k} {o.get(k)} -> {n.get(k)}" for k in INFORMATIONAL if k in o and k in n
        )
        if times:
            print(f"  info      {scope}: {times}")

    o_dup, n_dup = old.get("duplicate_heavy"), new.get("duplicate_heavy")
    if o_dup and n_dup:
        for key in ("unique_canonical_keys", "endpoint_calls"):
            must_not_increase("duplicate_heavy", key, o_dup, n_dup)
        must_not_decrease(
            "duplicate_heavy",
            "planner_coalesced_tasks",
            o_dup.get("planner_coalesced_tasks", 0),
            n_dup.get("planner_coalesced_tasks", 0),
        )

    o_warm, n_warm = old.get("warm_lookups"), new.get("warm_lookups")
    if o_warm and n_warm:
        for key in ("allocations", "bytes"):
            must_not_increase("warm_lookups", key, o_warm, n_warm)

    # Routed-fleet section (PR 7+): virtual-time goodput is deterministic
    # but the fault plan is part of the regime's definition, so makespans
    # and goodput are informational; the binary itself asserts the fleet
    # beats every single endpoint.
    o_routed, n_routed = old.get("routed"), new.get("routed")
    if o_routed and n_routed:
        for kind in ("single_endpoint", "fleet"):
            for o_run, n_run in zip(o_routed.get(kind, []), n_routed.get(kind, [])):
                print(
                    f"  info      routed {kind} seed {n_run.get('fault_seed')}: "
                    f"makespan_us {o_run.get('makespan_us')} -> {n_run.get('makespan_us')}, "
                    f"goodput {o_run.get('goodput_answers_per_vs')} -> "
                    f"{n_run.get('goodput_answers_per_vs')}"
                )

    # Cascade section (PR 7+): billed cost and large-tier token counters
    # are deterministic and exact — a new PR may cut the cascade's cost,
    # never raise it.
    o_cascade, n_cascade = old.get("cascade"), new.get("cascade")
    if o_cascade and n_cascade:
        for key in (
            "large_tier_tokens",
            "cascade_billed_micro",
            "billed_per_answer_micro",
            "tokens_per_answer_milli",
        ):
            must_not_increase("cascade", key, o_cascade, n_cascade)
        print(
            f"  info      cascade: escalations "
            f"{o_cascade.get('escalations')} -> {n_cascade.get('escalations')}"
        )

    # Open-loop serving section (PR 8+): the simulator is deterministic
    # end to end, so its SLO counters are exact — a new PR may complete
    # more requests within SLO, never fewer — and so is its allocation
    # count on one worker. Latency quantiles and
    # goodput depend on the regime definition and are informational; the
    # trace digest changes whenever any timing changes, so it is printed,
    # not compared.
    o_serve, n_serve = old.get("serving"), new.get("serving")
    if o_serve and n_serve:
        if o_serve.get("requests") != n_serve.get("requests"):
            detail = (o_serve.get("requests"), n_serve.get("requests"))
            if allow_workload_change:
                print(f"  notice    serving: request count changed {detail}")
            else:
                failures.append(
                    f"serving: request count changed {detail[0]} -> {detail[1]} "
                    "(workload change; pass --allow-workload-change to re-baseline)"
                )
        else:
            must_not_increase("serving", "errors", o_serve, n_serve)
            must_not_increase("serving", "replay_mismatches", o_serve, n_serve)
            # Heap allocations per request of the 1-worker run (PR 19+),
            # model included: exact like scale's allocs_per_task — a PR
            # that copies or formats a prompt per attempt again fails here.
            must_not_increase("serving", "allocs_per_request", o_serve, n_serve)
            must_not_decrease(
                "serving",
                "slo_met",
                o_serve.get("slo_met", 0),
                n_serve.get("slo_met", 0),
            )
            o_tenants = {t["name"]: t for t in o_serve.get("tenants", [])}
            n_tenants = {t["name"]: t for t in n_serve.get("tenants", [])}
            for name in o_tenants:
                if name not in n_tenants:
                    continue
                o_t, n_t = o_tenants[name], n_tenants[name]
                scope = f"serving tenant '{name}'"
                must_not_increase(scope, "errors", o_t, n_t)
                must_not_decrease(
                    scope,
                    "attainment_permille",
                    o_t.get("attainment_permille", 0),
                    n_t.get("attainment_permille", 0),
                )
                print(
                    f"  info      {scope}: p50_us {o_t.get('p50_us')} -> {n_t.get('p50_us')}, "
                    f"p99_us {o_t.get('p99_us')} -> {n_t.get('p99_us')}, "
                    f"p999_us {o_t.get('p999_us')} -> {n_t.get('p999_us')}, "
                    f"goodput_per_ks {o_t.get('goodput_per_ks')} -> {n_t.get('goodput_per_ks')}"
                )
            print(
                f"  info      serving: trace_fnv {o_serve.get('trace_fnv')} -> "
                f"{n_serve.get('trace_fnv')}, makespan_us "
                f"{o_serve.get('makespan_us')} -> {n_serve.get('makespan_us')}"
            )
    elif n_serve and not o_serve:
        print("  notice    serving: new section (no old baseline to compare)")

    # Out-of-core scale section (PR 9+): the streaming run is deterministic
    # end to end, so its counters — tasks, partitions, dedup accounting,
    # answers, model calls, and the FNV digest of the answer stream — are
    # pinned exactly: any drift means the streaming executor changed
    # behaviour. Peak live bytes depend on allocator layout and are
    # informational here (the bench binary itself asserts the hard budget);
    # wall time is informational as everywhere else.
    o_scale, n_scale = old.get("scale"), new.get("scale")
    if o_scale and n_scale:
        scale_workload = ("rows", "chunk_rows", "page_budget", "partition_tasks")
        if any(o_scale.get(k) != n_scale.get(k) for k in scale_workload):
            detail = {k: (o_scale.get(k), n_scale.get(k)) for k in scale_workload}
            if allow_workload_change:
                print(f"  notice    scale: workload changed {detail}")
            else:
                failures.append(
                    f"scale: workload changed {detail} (pass "
                    "--allow-workload-change to re-baseline)"
                )
        else:
            for key in (
                "tasks",
                "partitions",
                "unique_tasks",
                "coalesced_tasks",
                "answers",
                "errors",
                "model_calls",
                "answer_fnv",
            ):
                if o_scale.get(key) != n_scale.get(key):
                    failures.append(
                        f"scale: {key} drifted {o_scale.get(key)} -> "
                        f"{n_scale.get(key)} (exact-pinned counter)"
                    )
            # Heap allocations per streamed task (PR 15+), from the
            # counting allocator: exact for a given build, may fall, never
            # rise.
            must_not_increase("scale", "allocs_per_task", o_scale, n_scale)
            print(
                f"  info      scale: peak_live_bytes "
                f"{o_scale.get('peak_live_bytes')} -> {n_scale.get('peak_live_bytes')} "
                f"(budget {n_scale.get('peak_budget_bytes')}), wall_s "
                f"{o_scale.get('wall_s')} -> {n_scale.get('wall_s')}"
            )
    elif n_scale and not o_scale:
        print("  notice    scale: new section (no old baseline to compare)")

    # Tiered-store section (PR 10+): the store is deterministic — admission
    # is a pure function of the key-touch history — so every counter is
    # pinned exactly. Two invariants of the *new* baseline are also hard
    # gates on their own: a warm replay must use zero model calls, and the
    # warm lookup path must stay allocation-free.
    o_store, n_store = old.get("store"), new.get("store")
    if n_store:
        if n_store.get("warm_model_calls", 0) != 0:
            failures.append(
                f"store: warm replay made {n_store['warm_model_calls']} model "
                "calls (must be 0)"
            )
        if n_store.get("warm_lookups", {}).get("allocations", 0) != 0:
            failures.append(
                f"store: warm lookups allocated "
                f"{n_store['warm_lookups']['allocations']} times (must be 0)"
            )
        scan = n_store.get("scan", {})
        if scan.get("hot_hit_rate_permille", 0) < 950:
            failures.append(
                f"store: post-scan hot-set hit rate "
                f"{scan.get('hot_hit_rate_permille')}‰ fell below the 950‰ floor"
            )
    if o_store and n_store:
        store_workload = [
            ("scan", "hot_set"),
            ("scan", "scan_keys"),
            ("compaction", "capacity"),
        ]
        changed = {
            f"{sec}.{key}": (o_store.get(sec, {}).get(key), n_store.get(sec, {}).get(key))
            for sec, key in store_workload
            if o_store.get(sec, {}).get(key) != n_store.get(sec, {}).get(key)
        }
        if changed:
            if allow_workload_change:
                print(f"  notice    store: workload changed {changed}")
            else:
                failures.append(
                    f"store: workload changed {changed} (pass "
                    "--allow-workload-change to re-baseline)"
                )
        else:
            for sub in ("cold", "warm", "scan", "compaction"):
                o_sub, n_sub = o_store.get(sub, {}), n_store.get(sub, {})
                for key in sorted(o_sub):
                    if key in n_sub and o_sub[key] != n_sub[key]:
                        failures.append(
                            f"store {sub}: {key} drifted {o_sub[key]} -> "
                            f"{n_sub[key]} (exact-pinned counter)"
                        )
    elif n_store and not o_store:
        print("  notice    store: new section (no old baseline to compare)")

    # Canon v2 section (PR 10+): on the same recorded duplicate stream the
    # Semantic fold must keep beating TableStem, and fold hits may only
    # grow between baselines. From BENCH_17 on it also carries two exact
    # allocation counters: warm Semantic lookups must stay at zero (a hard
    # gate of the new baseline, like the store's), and allocations per
    # folded lookup are gated like allocs_per_task — a PR that brings back
    # a `to_string` per list index or a `Vec` built before the sortedness
    # check fails here, not just in a timing run.
    o_canon, n_canon = old.get("canon_v2"), new.get("canon_v2")
    if n_canon:
        if n_canon.get("semantic_warm_allocs_per_lookup", 0) != 0:
            failures.append(
                f"canon_v2: warm Semantic lookups allocated "
                f"{n_canon['semantic_warm_allocs_per_lookup']} times each (must be 0)"
            )
        sem_hits = n_canon.get("semantic", {}).get("hits", 0)
        stem_hits = n_canon.get("tablestem", {}).get("hits", 0)
        if sem_hits <= stem_hits:
            failures.append(
                f"canon_v2: semantic hits {sem_hits} must exceed tablestem "
                f"hits {stem_hits} on the reordered-duplicate stream"
            )
    if o_canon and n_canon:
        if o_canon.get("foldable_prompts") != n_canon.get("foldable_prompts"):
            detail = (o_canon.get("foldable_prompts"), n_canon.get("foldable_prompts"))
            if allow_workload_change:
                print(f"  notice    canon_v2: foldable stream changed {detail}")
            else:
                failures.append(
                    f"canon_v2: foldable stream changed {detail[0]} -> {detail[1]} "
                    "(pass --allow-workload-change to re-baseline)"
                )
        else:
            must_not_decrease(
                "canon_v2",
                "semantic hits",
                o_canon.get("semantic", {}).get("hits", 0),
                n_canon.get("semantic", {}).get("hits", 0),
            )
            must_not_increase(
                "canon_v2 semantic",
                "misses",
                o_canon.get("semantic", {}),
                n_canon.get("semantic", {}),
            )
            for key in ("semantic_warm_allocs_per_lookup", "semantic_fold_allocs_per_lookup"):
                must_not_increase("canon_v2", key, o_canon, n_canon)
    elif n_canon and not o_canon:
        print("  notice    canon_v2: new section (no old baseline to compare)")

    if failures:
        print(f"\n{len(failures)} counter regression(s):", file=sys.stderr)
        for failure in failures:
            print(f"  REGRESSED {failure}", file=sys.stderr)
        return 1
    print("\nno counter regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
