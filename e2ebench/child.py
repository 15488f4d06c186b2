"""One cold benchmark process: set up, run one workload pass, check it, report.

``run.py`` starts a fresh interpreter per pass, so the per-process memos
(``practical_plan``'s ``lru_cache``, the graph memo) start cold, as they do
for a CLI user.  The pass pushes the workload's specs through
``repro.runtime.execute`` with the default serial executor and engine
against an empty ``ResultCache``, then runs a warm pass against the same
cache.  The last line of standard output is one JSON object.

Modes: ``setup`` stops before the first ``execute`` call; ``cold`` runs the
pass untraced; ``traced`` runs it with every layer wrapped (see
``tracing.py``) and adds the per-layer metrics.  The host-speed kernel
(``hostspeed.py``) is sampled after set-up and after the pass, outside both
timed intervals; times are reported raw.

    python3 e2ebench/child.py --workload faster-cold --seed 0 --mode cold \
        --spawned-at <time.monotonic() of the parent at spawn>
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".e2ebench-work"


def run_pass(runtime, specs, cache, tracer=None):
    """Cold then warm ``execute`` over ``specs``; returns ``(cold, warm, wall_s)``.

    ``runtime`` is the ``repro.runtime`` module: ``execute`` is looked up on
    it at call time, so a traced pass goes through the tracing wrapper.
    """
    if tracer is not None:
        tracer.pass_label = "cold"
    t0 = time.perf_counter()
    cold = runtime.execute(specs, cache=cache)
    wall_s = time.perf_counter() - t0
    if tracer is not None:
        tracer.pass_label = "warm"
    warm = runtime.execute(specs, cache=cache)
    return cold, warm, wall_s


def layer_metrics(tracer, warm, cache_bytes: int) -> Dict[str, Tuple[float, str]]:
    """``{name: (value, unit)}`` of one traced pass (``trace.overhead_s`` aside)."""
    from repro.runtime import graph_cache
    from repro.uxs.generators import practical_plan
    from e2ebench.tracing import rollup

    cold_layers = rollup(tracer.spans, "cold")
    warm_layers = rollup(tracer.spans, "warm")

    def layer(name: str, key: str = "self_s", layers=cold_layers) -> float:
        return layers.get(name, {}).get(key, 0)

    (wall_s,) = [s.duration for s in tracer.spans
                 if s.name == "runtime.execute" and s.run == "cold"]
    total = sum(entry["self_s"] for entry in cold_layers.values())
    if abs(total - wall_s) > 1e-6:
        raise RuntimeError(f"layer self times add up to {total} s, not {wall_s} s")
    memo = graph_cache.cache_info()
    rounds = layer("sim", "rounds")
    executed = layer("sim", "rounds_executed")
    s, count, ratio = "s", "count", "ratio"
    return {
        "uxs.certify.s": (layer("uxs.certify"), s),
        "uxs.certify.performed": (practical_plan.cache_info().misses, count),
        "uxs.verify.calls": (layer("uxs.verify", "calls"), count),
        "uxs.verify.s": (layer("uxs.verify"), s),
        "sim.s": (layer("sim"), s),
        "sim.rounds": (rounds, count),
        "sim.rounds_executed": (executed, count),
        "sim.moves": (layer("sim", "moves"), count),
        "sim.jump_ratio": (1 - executed / rounds, ratio),
        "sim.us_per_executed_round": (1e6 * layer("sim") / executed, "us"),
        "graphs.s": (layer("graphs"), s),
        "graphs.memo_hit_ratio": (memo["hits"] / (memo["hits"] + memo["misses"]), ratio),
        "placement.s": (layer("placement"), s),
        "record.s": (layer("record"), s),
        "cache.put.calls": (layer("cache.put", "calls"), count),
        "cache.put.s": (layer("cache.put"), s),
        "cache.put.bytes": (cache_bytes, "bytes"),
        "cache.get.cold_s": (layer("cache.get"), s),
        "cache.get.s": (layer("cache.get", layers=warm_layers), s),
        "cache.hit_ratio": (warm.stats.cache_hits / warm.stats.total, ratio),
        "runtime.self_s": (layer("runtime.execute") + layer("runtime.spec"), s),
        "trace.wall_s": (wall_s, s),
    }


def main(argv: Optional[list] = None) -> int:
    """Entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "cold", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from e2ebench import checks, hostspeed, workloads
    import repro.runtime as runtime

    if not Path(runtime.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"repro imported from {runtime.__file__}, not from {ROOT / 'src'}")
    specs = workloads.build_specs(args.workload, args.seed)
    WORK_DIR.mkdir(exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(dir=WORK_DIR))
    try:
        cache = runtime.ResultCache(cache_dir)
        setup_s = time.monotonic() - args.spawned_at
        out: Dict[str, object] = {"setup_s": setup_s, "kernel_before_s": hostspeed.sample()}
        if args.mode != "setup":
            tracer = uninstall = None
            if args.mode == "traced":
                from e2ebench.tracing import Tracer, install

                tracer = Tracer()
                uninstall = install(tracer)
            cold, warm, wall_s = run_pass(runtime, specs, cache, tracer)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            out["kernel_after_s"] = hostspeed.sample()
            expected = None
            if args.seed == workloads.DEFAULT_SEED:
                expected = checks.expected_digest(args.workload)
            failed = checks.failed_runs(cold, warm, expected)
            ok = all(o.ok for o in cold.outcomes)
            out.update(
                wall_s=wall_s,
                peak_rss_mb=peak_rss_mb,
                attempted=len(specs),
                failed=sorted(failed),
                reasons=sorted(set(failed.values())),
                digest=checks.records_digest(o.run for o in cold.outcomes) if ok else None,
            )
            if tracer is not None:
                uninstall()
                cache_bytes = sum(p.stat().st_size for p in cache_dir.rglob("*.json"))
                out["layers"] = layer_metrics(tracer, warm, cache_bytes)
                spans_file = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
                with spans_file.open("w") as fh:
                    for span in tracer.spans:
                        fh.write(json.dumps(dataclasses.asdict(span)) + "\n")
    finally:
        shutil.rmtree(cache_dir)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
