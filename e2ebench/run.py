"""Run one workload of the end-to-end benchmark and print its metrics.

    python3 e2ebench/run.py --workload faster-cold --seed 0 --seconds 36 --trace 0

Each pass is a fresh ``child.py`` process (cold per-process memos, empty
result cache).  Passes repeat until the next one would end after
``--seconds``, with at least two untraced passes or one traced pair, and
every metric is the median over passes.  With ``--trace 0`` the metrics are
the end-to-end ones (``setup_s`` also samples set-up-only processes, so it
always has at least seven samples); with ``--trace 1`` each iteration is an
untraced pass followed by a traced one, and the metrics are the per-layer
ones.  ``wall_s`` and ``setup_s`` are scaled to a reference host speed
(``hostspeed.py``); the unscaled medians are printed after the metrics.
The last line of standard output is one JSON object; the exit code is 0 only
when every run passed the correctness check.  README.md lists every metric
and workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A run must exit within 180 s; leave room to report.
DEADLINE_S = 170.0
SETUP_SAMPLES = 7

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


class Runner:
    """Spawns child passes under one overall deadline."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()

    def spawn(self, mode: str) -> dict:
        """Run one ``child.py`` process to completion and return its report."""
        spawned_at = time.monotonic()
        remaining = DEADLINE_S - (spawned_at - self.started)
        if remaining <= 0:
            raise SystemExit("e2ebench: out of time before the run finished")
        cmd = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--spawned-at", repr(spawned_at),
        ]
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired:
            raise SystemExit(f"e2ebench: {mode} pass did not finish in time") from None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"e2ebench: {mode} pass exited with {proc.returncode}")
        return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    """Entry point; see the module docstring."""
    sys.path.insert(0, str(ROOT))
    from e2ebench.hostspeed import NOMINAL_S
    from e2ebench.workloads import WORKLOADS  # imports no repro module

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"e2ebench: no repro sources under {ROOT / 'src'}\n")
        return 2

    runner = Runner(args.workload, args.seed)
    iterations: List[List[dict]] = []
    modes = ("cold", "traced") if args.trace else ("cold",)
    min_iterations = 1 if args.trace else 2
    while True:
        iterations.append([runner.spawn(mode) for mode in modes])
        elapsed = time.monotonic() - runner.started
        per_iteration = elapsed / len(iterations)
        if len(iterations) >= min_iterations and elapsed + per_iteration > args.seconds:
            break

    passes = [p for it in iterations for p in it]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    reasons = sorted({r for p in passes for r in p["reasons"]})
    if args.trace:
        for untraced, traced in iterations:
            if traced["digest"] != untraced["digest"]:
                failed += traced["attempted"] - len(traced["failed"])
                reasons.append("traced records differ from untraced records")

    notes: List[str] = []
    metrics: Dict[str, float]
    if args.trace:
        layers = iterations[0][1]["layers"]
        metrics = {n: statistics.median([t["layers"][n][0] for _, t in iterations]) for n in layers}
        metrics["trace.overhead_s"] = statistics.median(
            [t["layers"]["trace.wall_s"][0] - u["wall_s"] for u, t in iterations]
        )
        units = {n: unit for n, (_, unit) in layers.items()}
        units["trace.overhead_s"] = "s"
    else:
        setups = list(passes)
        while len(setups) < SETUP_SAMPLES:
            setups.append(runner.spawn("setup"))
        # Times are scaled to the reference host speed (hostspeed.py) by the
        # kernel sampled right after set-up (setup_s) and by the mean of the
        # samples before and after the pass (wall_s).
        metrics = {
            "wall_s": statistics.median(
                p["wall_s"] * NOMINAL_S / ((p["kernel_before_s"] + p["kernel_after_s"]) / 2)
                for p in passes
            ),
            "setup_s": statistics.median(
                p["setup_s"] * NOMINAL_S / p["kernel_before_s"] for p in setups
            ),
            "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
            "ok_ratio": 1 - failed / attempted,
        }
        units = END_TO_END_UNITS
        notes.append(
            f"unscaled medians: wall {statistics.median(p['wall_s'] for p in passes):.4f} s "
            f"over {len(passes)} passes, setup "
            f"{statistics.median(p['setup_s'] for p in setups):.4f} s over {len(setups)} "
            f"processes; host kernel "
            f"{statistics.median(p['kernel_before_s'] for p in setups) * 1e3:.2f} ms, "
            f"reference {NOMINAL_S * 1e3:.2f} ms"
        )

    print(f"e2ebench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(iterations)} iteration(s), {attempted} runs attempted, {failed} failed")
    for reason in reasons:
        print(f"  FAILED: {reason}")
    for name, value in metrics.items():
        print(f"  {name:28s} {value:>16.6f} {units[name]}")
    for note in notes:
        print(f"  {note}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
