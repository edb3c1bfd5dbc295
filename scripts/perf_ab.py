#!/usr/bin/env python3
"""A/B the benchmark in one command: a base commit against the working tree.

Builds `perfbench` twice under the git-ignored `.bench_build/` — once from
`git archive` of the base commit, once from the working tree, whose
`perfbench/Cargo.lock` it restores afterwards — then runs
N pairs per workload of `BENCHMARK.json`, each pair one base run and one
change run at the declared `run_seconds`, with the pair number as the
workload seed (counted from `--first-seed`, so that a claim can be
checked again on seeds no earlier run used). Pairs alternate which side runs first, so a drift of the
host's speed falls on both sides.

For every metric it prints each side's median and quartiles, the number
of pairs the change wins, and a verdict:

- regression: the change's median is worse than the base's by more than
  the metric's bound (end-to-end metrics only);
- unresolved: either side's interquartile range exceeds the bound
  (relative to its median), and not every change run beats every base
  run;
- gain: the change wins at least 90 % of the pairs, and the medians
  differ by more than the base's interquartile range;
- neutral: none of the above.

Each side's `correct` runs and `failed` rows are printed per workload; an
incorrect change run, or a larger share of failed rows than the base's,
is a regression too. Exit code 0 means no regression, 1 a
regression or a failed row, 2 a usage or build error.

    python3 scripts/perf_ab.py                      # base: HEAD, or HEAD~1 on a clean tree
    python3 scripts/perf_ab.py --base main --pairs 10
    python3 scripts/perf_ab.py --workloads corpus-cold --trace   # per-layer metrics too
"""

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"


def git(*args):
    return subprocess.run(
        ["git", "-C", str(ROOT), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def default_base():
    """HEAD while the working tree has changes, else HEAD's parent."""
    dirty = git("status", "--porcelain", "--untracked-files=no")
    return "HEAD" if dirty else "HEAD~1"


def build(side, source):
    """Builds `perfbench` from `source` in release and returns its path."""
    target = BUILD / f"target-{side}"
    subprocess.run(
        [
            "cargo", "build", "--release", "--quiet", "--offline",
            "--manifest-path", str(source / "perfbench" / "Cargo.toml"),
            "--target-dir", str(target),
        ],
        check=True,
    )
    return target / "release" / "perfbench"


def build_working_tree():
    """Builds the working tree's `perfbench` and restores its lock file.

    Cargo rewrites a stale `perfbench/Cargo.lock` while it builds. Left
    rewritten, the lock would dirty the tree, and the next run's default
    base would be HEAD: the change compared with itself.
    """
    lock = ROOT / "perfbench" / "Cargo.lock"
    saved = lock.read_bytes()
    try:
        return build("change", ROOT)
    finally:
        lock.write_bytes(saved)


def extract(rev):
    """Extracts `rev` with `git archive` into `.bench_build/base-src`."""
    dest = BUILD / "base-src"
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", "--format=tar", rev],
        check=True, capture_output=True,
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return dest


def run(binary, workload, seed, seconds, trace):
    """One perfbench run; returns its last-line JSON object."""
    out = subprocess.run(
        [
            str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0",
        ],
        capture_output=True, text=True,
    )
    lines = out.stdout.strip().splitlines()
    if out.returncode not in (0, 1) or not lines:
        sys.exit(f"perfbench {workload} seed {seed} failed:\n{out.stderr}")
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def fmt(value):
    """Counts in full, everything else to four significant digits."""
    return f"{value:.0f}" if float(value).is_integer() and abs(value) < 1e12 else f"{value:.4g}"


def relative(spread, median):
    return spread / abs(median) if median else (0.0 if spread == 0 else float("inf"))


def verdict(base, change, better, bound):
    """The verdict on one metric: its samples per side, pair by pair."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    if bound is not None and sign * (cmed - bmed) < -bound * abs(bmed):
        return wins, "regression"
    all_beat = min(sign * c for c in change) > max(sign * b for b in base)
    spread = max(relative(bq3 - bq1, bmed), relative(cq3 - cq1, cmed))
    if bound is not None and spread > bound and not all_beat:
        return wins, "unresolved"
    if wins >= 0.9 * len(base) and sign * (cmed - bmed) > bq3 - bq1:
        return wins, "gain"
    return wins, "neutral"


def report(workload, results, spec):
    """Prints one workload's table; returns whether it regressed."""
    base, change = results["base"], results["change"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    present = [n for n in names if all(n in r["metrics"] for r in base + change)]
    print(f"\n## {workload} ({len(base)} pairs)\n")
    share = {}
    for side, runs in (("base", base), ("change", change)):
        correct = sum(bool(r["correct"]) for r in runs)
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        share[side] = failed / attempted if attempted else 0.0
        print(
            f"{side}: {correct} of {len(runs)} runs correct; "
            f"{failed} of {attempted} rows failed"
        )
    print()
    print("| metric | base median [q1, q3] | change median [q1, q3] | change | wins | verdict |")
    print("|---|---|---|---|---|---|")
    regressed = not all(r["correct"] for r in change) or share["change"] > share["base"]
    for name in present:
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bound = bounds[name]["bound"] if name in bounds else None
        wins, word = verdict(b, c, better[name], bound)
        regressed |= word == "regression"
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        delta = f"{100 * (cmed - bmed) / bmed:+.1f} %" if bmed else "n/a"
        print(
            f"| {name} | {fmt(bmed)} [{fmt(bq1)}, {fmt(bq3)}] "
            f"| {fmt(cmed)} [{fmt(cq1)}, {fmt(cq3)}] | {delta} | {wins}/{len(b)} | {word} |"
        )
    return regressed


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="commit to compare against (default: HEAD on a dirty tree, else HEAD~1)")
    parser.add_argument("--pairs", type=int, default=10, help="pairs per workload (default 10)")
    parser.add_argument("--first-seed", type=int, default=1, help="seed of the first pair (default 1)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="seconds per run (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]), help="comma-separated workloads (default: all)")
    parser.add_argument("--trace", action="store_true", help="traced runs: per-layer metrics too")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    workloads = args.workloads.split(",")
    base_rev = args.base or default_base()
    try:
        sha = git("rev-parse", "--short", base_rev)
        print(f"base: {base_rev} ({sha}); change: the working tree", flush=True)
        binaries = {
            "base": build("base", extract(base_rev)),
            "change": build_working_tree(),
        }
    except subprocess.CalledProcessError as e:
        print(f"perf_ab: {e}", file=sys.stderr)
        return 2

    results = {w: {"base": [], "change": []} for w in workloads}
    started = time.time()
    for pair in range(1, args.pairs + 1):
        for workload in workloads:
            sides = ("base", "change") if pair % 2 else ("change", "base")
            for side in sides:
                seed = args.first_seed + pair - 1
                out = run(binaries[side], workload, seed, args.seconds, args.trace)
                results[workload][side].append(out)
        print(f"pair {pair}/{args.pairs} done after {time.time() - started:.0f} s", flush=True)
    regressed = False
    for workload in workloads:
        regressed |= report(workload, results[workload], spec)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
