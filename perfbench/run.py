"""gradest benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The program is imported from the
checkout's own src/ (it need not be installed). Each workload runs in fresh
child processes, so set-up time and peak memory belong to that workload:

  * SETUP_PROBES short processes, half before and half after the main
    child, only import gradest and build the workload's inputs; setup_s is
    the median of them and of the main child;
  * dfo_race first computes its fixed solve targets in a child of its own;
  * the main child repeats the workload's fixed input until --seconds have
    passed and checks the outputs.

With --trace 0 the last line of stdout carries the end-to-end metrics of
BENCHMARK.json, with --trace 1 the per-layer ones (one traced repetition
after each untraced one). The line before it is the full record: machine,
versions, commit, seed and every repetition's raw values; records are also
appended to perfbench/out/runs.jsonl. The exit code is 0 only when every
output check passed.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
OUT = HERE / "out"

SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


def _child(mode: str, args, workdir: Path, deadline: float, *extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, str(CHILD), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"benchmark child ({mode}) exited {proc.returncode}")
    result = json.loads(lines[-1])
    if Path(result["gradest"]).resolve().parent.parent != SRC.resolve():
        raise RuntimeError(f"imported gradest from {result['gradest']}, not {SRC}")
    return result


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "gradest").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit() -> str | None:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() or None


def _metrics(spec: list[dict], values: dict[str, float]) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def _per_layer(child: dict) -> dict[str, float]:
    """Medians over traced repetitions; counts repeat exactly at one seed."""
    samples = child["layers"]
    values = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    wall = statistics.median(child["traced_walls"])
    evals = values.get("optimizer.evals", 0)
    values["optimizer.ls_evals_frac"] = values["optimizer.ls_evals"] / evals if evals else 0.0
    values["trace.wall_s"] = wall
    # each traced repetition directly follows an untraced one; pairing them
    # keeps the host's slow spells out of the difference
    values["trace.overhead_s"] = statistics.median(
        t - u for u, t in zip(child["walls"], child["traced_walls"]))
    values["trace.unattributed_s"] = statistics.median(
        t - s["self_s_total"] for t, s in zip(child["traced_walls"], samples))
    return values


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "gradest" / "__init__.py").is_file():
        print(f"perfbench: no gradest package under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        def probes(count: int) -> list[float]:
            if args.trace:
                return []
            return [_child("setup", args, workdir, deadline)["setup_s"] for _ in range(count)]

        probes(1)  # warms the bytecode and file caches
        setups = probes(SETUP_PROBES // 2)
        extra = []
        if args.workload == "dfo_race":
            refs = _child("refs", args, workdir, deadline)["refs"]
            extra = ["--refs", json.dumps(refs)]
        child = _child("run", args, workdir, deadline, *extra)
        # probes on both sides of the timed run, so a slow spell of the
        # machine weighs on setup_s about as it does on wall_s
        setups += probes(SETUP_PROBES - SETUP_PROBES // 2)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(child["setup_s"])
    if not child["walls"] or not child.get("traced_walls", True):
        print(f"perfbench: no repetition finished: {child['reasons']}", file=sys.stderr)
        return 1

    if args.trace:
        values = _per_layer(child)
        metrics = _metrics(spec["per_layer"], values)
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(child["walls"]),
                  "peak_rss_mb": child["peak_rss_mb"],
                  # solver metrics are fixed at 1 on workloads without solver runs
                  "solved_frac": 1.0, "solve_cost": 1.0}
        values.update(child.get("e2e", {}))
        metrics = _metrics(spec["end_to_end"], values)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": child["numpy"], "commit": _commit(), "src_sha256": _source_digest(),
        "setup_s_samples": setups, "repetitions": len(child["walls"]),
        "child": child, "metrics": metrics,
    }
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"record": record}))
    if child["failed"]:
        for reason in child["reasons"]:
            print(f"perfbench: check failed: {reason}", file=sys.stderr)
    correct = child["failed"] == 0 and child["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
