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
# every worker before the reactor ran.
PINNED_FROM = {
    "pipelined_heavy_tail.pipelined.makespan_us": 21,
    "pipelined_heavy_tail.hedged.makespan_us": 21,
}


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
