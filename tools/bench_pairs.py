"""Alternating benchmark pairs: a parent revision against the working tree.

Extracts the parent revision's src/, perfbench/ and BENCHMARK.json with
`git archive` into a temporary directory outside the repository, then runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once from the parent tree and once from the working tree for each of
--pairs consecutive seeds, swapping which side runs first on every pair so
that a slow spell of the machine weighs on both. Each side runs its own
perfbench/ against its own src/. For every workload and every end-to-end
metric of BENCHMARK.json it prints each side's median and quartiles, the
number of pairs the working tree won (ties count for neither side), whether
the gain rule holds (at least nine in ten pairs won and a median gap larger
than the parent's interquartile range), and whether the working tree's
median is worse than the parent's by more than the metric's bound. It also
prints failed operations per side and the pairs whose output digests
differ. Example, from the root of a checkout:

    python tools/bench_pairs.py --parent HEAD~1 --workloads dfo_race \\
        --pairs 10 --first-seed 401 --seconds 35

It reads only BENCHMARK.json and perfbench/ (and writes only what
perfbench itself writes, under each tree's perfbench/out/).
"""
from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def extract(rev: str, dest: Path) -> None:
    """The parent's benchmark inputs, unpacked under dest."""
    proc = subprocess.Popen(["git", "archive", "--format=tar", rev, "src", "perfbench",
                             "BENCHMARK.json"], cwd=ROOT, stdout=subprocess.PIPE)
    with tarfile.open(fileobj=proc.stdout, mode="r|") as tar:
        tar.extractall(dest, filter="data")
    if proc.wait() != 0:
        raise SystemExit(f"bench_pairs: git archive {rev} failed")


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One perfbench run from tree: its summary line plus the output digests."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise SystemExit(f"bench_pairs: {workload} seed {seed} in {tree} printed no "
                         f"result (exit {proc.returncode}):\n{proc.stderr}")
    summary = json.loads(lines[-1])
    summary["digests"] = json.loads(lines[-2])["record"]["child"]["digests"]
    return summary


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def report(workload: str, spec: list[dict], runs: list[tuple[int, dict, dict]]) -> None:
    pairs = len(runs)
    print(f"\n== {workload}: {pairs} pairs, seeds {runs[0][0]}-{runs[-1][0]}")
    for seed, old, new in runs:
        values = " ".join(f"{m['name']} {old['metrics'][m['name']]['value']:.4g}/"
                          f"{new['metrics'][m['name']]['value']:.4g}" for m in spec)
        same = "same bytes" if old["digests"] == new["digests"] else "DIGESTS DIFFER"
        print(f"  seed {seed} (parent/change): {values}; {same}")
    print(f"  failed ops: parent {sum(o['failed'] for _, o, _ in runs)}, "
          f"change {sum(n['failed'] for _, _, n in runs)}")
    for m in spec:
        name, lower = m["name"], m["better"] == "lower"
        old = [o["metrics"][name]["value"] for _, o, _ in runs]
        new = [n["metrics"][name]["value"] for _, _, n in runs]
        (o1, om, o3), (n1, nm, n3) = quartiles(old), quartiles(new)
        wins = sum((b < a) if lower else (b > a) for a, b in zip(old, new))
        gap = (om - nm) if lower else (nm - om)
        gain = wins >= math.ceil(0.9 * pairs) and gap > o3 - o1
        worse = (0.0 - gap) / abs(om) if om else (math.inf if gap < 0 else 0.0)
        print(f"  {name:12s} parent {om:.4g} [{o1:.4g}, {o3:.4g}]  "
              f"change {nm:.4g} [{n1:.4g}, {n3:.4g}]  {worse:+.1%} worse  "
              f"won {wins}/{pairs}  gain rule {'holds' if gain else 'fails'}  "
              f"bound {m['bound']:.0%}: {'EXCEEDED' if worse > m['bound'] else 'ok'}")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision to compare against (default %(default)s)")
    parser.add_argument("--workloads", default=",".join(names),
                        help="comma-separated workloads (default all)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    workloads = [w for w in args.workloads.split(",") if w]
    unknown = sorted(set(workloads) - set(names))
    if unknown or args.pairs < 1:
        parser.error(f"unknown workloads {unknown}" if unknown else "--pairs must be positive")

    tmp = Path(tempfile.mkdtemp(prefix="bench_pairs_"))
    try:
        extract(args.parent, tmp)
        for workload in workloads:
            runs = []
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = [("parent", tmp), ("change", ROOT)]
                if i % 2:
                    order.reverse()
                got = {side: run_once(tree, workload, seed, args.seconds)
                       for side, tree in order}
                runs.append((seed, got["parent"], got["change"]))
                print(f"{workload} seed {seed} done ({order[0][0]} first)",
                      file=sys.stderr, flush=True)
            report(workload, spec["end_to_end"], runs)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
