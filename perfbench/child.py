"""One benchmark process: a workload in a fresh interpreter.

Modes (see run.py, which starts this file with src/ on PYTHONPATH):
  setup  import gradest and build the workload's inputs; print setup_s
  refs   print the dfo_race reference minima
  run    set up, then repeat the workload until --seconds have passed and
         print one JSON line with the raw per-repetition values
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _digest(arts: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(arts.items())}


class Outcome:
    """Checked repetitions: ops counted per repetition, the first
    repetition's outputs checked in full, later ones compared byte for byte
    with it (same seed, so the CSV text must be identical)."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.first = None
        self.first_check = None
        self.result = None

    def add(self, out) -> None:
        arts = self.wl.artifacts(out)
        digest = _digest(arts)
        if self.first is None:
            self.first, self.result = digest, out
            self.first_check = self.wl.check(out, arts)
            self._count(self.first_check.attempted, self.first_check.failed,
                        self.first_check.reasons)
        elif digest == self.first:
            self._count(self.first_check.attempted, self.first_check.failed, [])
        else:
            differ = sorted(k for k in set(digest) | set(self.first)
                            if digest.get(k) != self.first.get(k))
            self._count(self.wl.ops_per_rep, self.wl.ops_per_rep,
                        [f"same-seed repetition wrote different bytes: {differ}"])

    def crashed(self) -> None:
        traceback.print_exc(file=sys.stderr)
        self._count(self.wl.ops_per_rep, self.wl.ops_per_rep,
                    [traceback.format_exc(limit=3).strip().splitlines()[-1]])

    def _count(self, attempted: int, failed: int, reasons: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.reasons += reasons[: max(0, 20 - len(self.reasons))]


def _timed(wl):
    gc.collect()
    t0 = time.perf_counter()
    out = wl.rep()
    return out, time.perf_counter() - t0


def run(args, wl) -> dict:
    outcome = Outcome(wl)
    walls, traced_walls, layers = [], [], []
    peak_rss_mb = None
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
    start = time.perf_counter()
    # at least two repetitions: the byte-identity check needs a pair
    while len(walls) < 2 or time.perf_counter() - start < args.seconds:
        try:
            out, wall = _timed(wl)
        except Exception:
            outcome.crashed()
            break
        walls.append(wall)
        if len(walls) == 1:
            # one pass over the fixed input; later passes only add allocator
            # fragmentation, which depends on how many fit in --seconds
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outcome.add(out)
        if tracer is None:
            continue
        tracer.reset()
        tracer.install()
        try:
            out, wall = _timed(wl)
        except Exception:
            outcome.crashed()
            break
        finally:
            tracer.uninstall()
        traced_walls.append(wall)
        sample = tracer.summary()
        if hasattr(wl, "layer_counts"):
            sample.update(wl.layer_counts(out))
        layers.append(sample)
        outcome.add(out)

    if peak_rss_mb is None:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"walls": walls, "attempted": outcome.attempted, "failed": outcome.failed,
              "reasons": outcome.reasons, "digests": outcome.first}
    if tracer is not None:
        result.update(traced_walls=traced_walls, layers=layers, absent=tracer.absent)
    else:
        result["peak_rss_mb"] = peak_rss_mb
        if hasattr(wl, "e2e") and outcome.result is not None:
            result["e2e"] = wl.e2e(outcome.result)
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "refs", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--refs", type=json.loads, default=None)
    args = parser.parse_args()

    t0 = time.perf_counter()
    import workloads  # imports gradest: part of set-up
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir, args.refs)
    setup_s = time.perf_counter() - t0

    import gradest
    import numpy
    result = {"setup_s": setup_s, "gradest": gradest.__file__,
              "numpy": numpy.__version__}
    if args.mode == "refs":
        result["refs"] = workloads.reference_minima()
    elif args.mode == "run":
        result.update(run(args, wl))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
