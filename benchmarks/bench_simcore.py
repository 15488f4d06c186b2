"""Simulation-kernel benchmark: the fast path vs the seed scheduler.

Measures **rounds/sec** and **traverses/sec** of the scheduler hot loop on
three topologies (ring, torus, random-regular) at ``n ∈ {64, 256, 1024}``,
for both the optimized :class:`repro.sim.scheduler.Scheduler` and the seed
:class:`repro.sim.reference.ReferenceScheduler`, and writes the results —
including the measured speedups — to ``BENCH_simcore.json``.  The fast
path's "≥ 2× on the n=1024 random-regular workload" claim is this file's
output, not an assertion in prose (see ``docs/PERF.md``).

The workload is a *kernel* benchmark: every robot runs a lean rotor walk
(exit through ``entry_port + 1``, with pre-built :class:`Action` objects so
per-step allocation in the robot program does not drown the scheduler under
measurement).  Every robot moves every round — the worst case for
occupancy bookkeeping, since every round changes the position set.
Before timing, each (topology, n) cell is run once under both schedulers
and their final positions and metrics are asserted equal, so the numbers
always describe two implementations of the same semantics.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_simcore.py            # full grid
    PYTHONPATH=src python benchmarks/bench_simcore.py --quick    # CI smoke

or through pytest-benchmark via ``bench_simulator_throughput.py`` (group
``simcore-kernel``).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from typing import Callable, Dict, List

from repro.graphs import generators as gg
from repro.graphs.port_graph import PortGraph
from repro.sim.actions import Action
from repro.sim.reference import ReferenceScheduler
from repro.sim.robot import RobotSpec
from repro.sim.scheduler import Scheduler

__all__ = [
    "TOPOLOGIES",
    "kernel_specs",
    "lean_rotor_program",
    "measure_cell",
    "run_suite",
    "main",
]


def lean_rotor_program(rounds: int):
    """Deterministic rotor walk: leave through ``(entry_port + 1) % degree``.

    Pre-builds one :class:`Action` per port and a port-increment lookup so
    the program contributes as little per-step work as possible — the point
    is to measure the scheduler, not the robot.  (Reusing Action objects is
    legal: the scheduler treats actions as read-only.)  The benchmark
    topologies are all regular, so the tables built from the first
    observation's degree cover every node the walk can reach.
    """

    def factory(ctx):
        def program():
            obs = yield
            deg = obs.degree
            table = [Action.move(p) for p in range(deg)]
            nxt = [(p + 1) % deg for p in range(deg)]
            port = ctx.label % deg
            for _ in range(rounds):
                obs = yield table[port]
                port = nxt[obs.entry_port]
            yield Action.terminate()

        return program()

    return factory


def _torus_side(n: int) -> int:
    side = round(n ** 0.5)
    if side * side != n or side < 3:
        raise ValueError(f"torus sizes must be perfect squares >= 9, got {n}")
    return side


TOPOLOGIES: Dict[str, Callable[[int], PortGraph]] = {
    "ring": lambda n: gg.ring(n),
    "torus": lambda n: gg.torus(_torus_side(n), _torus_side(n)),
    "random_regular": lambda n: gg.random_regular(n, d=3, seed=7),
}


def kernel_specs(graph: PortGraph, k: int, rounds: int) -> List[RobotSpec]:
    """``k`` rotor-walk robots scattered deterministically over the graph."""
    n = graph.n
    return [
        RobotSpec(label=i + 1, start=(i * 37) % n, factory=lean_rotor_program(rounds))
        for i in range(k)
    ]


def _one_run(cls, graph: PortGraph, k: int, rounds: int):
    sched = cls(graph, kernel_specs(graph, k, rounds))
    t0 = time.perf_counter()
    sched.run(max_rounds=rounds + 10)
    return time.perf_counter() - t0, sched


def measure_cell(
    topology: str,
    n: int,
    rounds: int,
    repeats: int = 5,
    k: int | None = None,
) -> Dict[str, object]:
    """Benchmark one (topology, n) cell under both schedulers.

    Returns a JSON-ready dict with best-of-``repeats`` timings.  Also
    asserts that the fast path and the seed scheduler produce identical
    positions and metrics on this workload (the cheap in-benchmark
    differential; the exhaustive one lives in
    ``tests/test_fastpath_differential.py``).
    """
    graph = TOPOLOGIES[topology](n)
    if k is None:
        k = max(4, n // 16)

    # correctness gate before timing
    _, fast_s = _one_run(Scheduler, graph, k, rounds)
    _, ref_s = _one_run(ReferenceScheduler, graph, k, rounds)
    if fast_s.positions() != ref_s.positions():
        raise AssertionError(f"{topology} n={n}: fast/seed positions diverge")
    if fast_s.metrics.as_dict() != ref_s.metrics.as_dict():
        raise AssertionError(f"{topology} n={n}: fast/seed metrics diverge")

    fast_dt = min(_one_run(Scheduler, graph, k, rounds)[0] for _ in range(repeats))
    ref_dt = min(_one_run(ReferenceScheduler, graph, k, rounds)[0] for _ in range(repeats))

    executed = fast_s.metrics.rounds_executed
    traverses = fast_s.metrics.total_moves
    return {
        "topology": topology,
        "n": n,
        "k": k,
        "rounds_executed": executed,
        "traverses": traverses,
        "fast_seconds": fast_dt,
        "seed_seconds": ref_dt,
        "fast_rounds_per_sec": executed / fast_dt,
        "seed_rounds_per_sec": executed / ref_dt,
        "fast_traverses_per_sec": traverses / fast_dt,
        "seed_traverses_per_sec": traverses / ref_dt,
        "speedup": ref_dt / fast_dt,
    }


def run_suite(
    sizes=(64, 256, 1024), rounds: int = 400, repeats: int = 5
) -> Dict[str, object]:
    """The full grid; returns the ``BENCH_simcore.json`` payload."""
    workloads = []
    for topology in TOPOLOGIES:
        for n in sizes:
            workloads.append(measure_cell(topology, n, rounds, repeats))
    headline = next(
        (
            w
            for w in workloads
            if w["topology"] == "random_regular" and w["n"] == max(sizes)
        ),
        workloads[-1],
    )
    return {
        "benchmark": "simcore-kernel",
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "rounds": rounds,
        "repeats": repeats,
        "workloads": workloads,
        "summary": {
            "headline_workload": f"{headline['topology']} n={headline['n']}",
            "headline_speedup": headline["speedup"],
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 256, 1024])
    parser.add_argument("--rounds", type=int, default=400)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", default="BENCH_simcore.json")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny CI smoke: n=64 only, few rounds",
    )
    args = parser.parse_args(argv)
    if args.quick:
        args.sizes, args.rounds, args.repeats = [64], 60, 2

    payload = run_suite(tuple(args.sizes), args.rounds, args.repeats)

    from repro.analysis.tables import render_table

    rows = [
        {
            "topology": w["topology"],
            "n": w["n"],
            "k": w["k"],
            "fast rounds/s": f"{w['fast_rounds_per_sec']:.0f}",
            "seed rounds/s": f"{w['seed_rounds_per_sec']:.0f}",
            "fast trav/s": f"{w['fast_traverses_per_sec']:.0f}",
            "speedup": f"{w['speedup']:.2f}x",
        }
        for w in payload["workloads"]
    ]
    print(render_table(rows, title="simulation kernel: fast path vs seed scheduler"))

    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
    print(f"\nwrote {args.out} (headline: {payload['summary']['headline_speedup']:.2f}x "
          f"on {payload['summary']['headline_workload']})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
