"""The benchmark's three workloads, as fixed lists of ``RunSpec``s.

Every workload runs on the same three topology families, ring, torus with
four rows, and 3-regular random graphs with a pinned graph seed, so the
per-process graph memo behaves the same for every workload seed.  The
workload seed reaches the specs only through
:func:`repro.runtime.executor.assign_seeds`, which fills the spec-level seed
that placement and labels resolve.

Why each workload exists is written down in README.md; in short:

* ``faster-cold``: Faster-Gathering, dominated by UXS plan certification.
* ``uxs-general``: UXS-Gathering and the TZ baseline, dominated by the
  scheduler's general (follower) path.
* ``undispersed-seeds``: many short Undispersed-Gathering runs that never
  touch a UXS plan, stressing graph memo, placement, records and cache writes.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Workload seed whose records must match ``digests.json``.
DEFAULT_SEED = 0

#: Pinned seed of the random-regular topology (never the workload seed).
GRAPH_SEED = 7

WORKLOADS = ("faster-cold", "uxs-general", "undispersed-seeds")


def _graph(family: str, n: int) -> Dict[str, Any]:
    if family == "ring":
        return {"n": n}
    if family == "torus":
        return {"rows": 4, "cols": n // 4}
    return {"n": n, "d": 3, "seed": GRAPH_SEED}


FAMILIES = ("ring", "torus", "random_regular")


def build_specs(workload: str, seed: int, reduced: bool = False) -> List:
    """The workload's specs with placement and label seeds drawn from ``seed``.

    ``reduced`` keeps one cell per family at the smallest size with one seed
    per cell, for the benchmark's own tests.
    """
    from repro.core.bounds import faster_gathering_boundaries
    from repro.runtime import RunSpec, assign_seeds
    from repro.sim.world import DEFAULT_MAX_ROUNDS

    def cells(ns, ks, reps, max_rounds=lambda n: None, **fields) -> List:
        if reduced:
            ns, ks, reps = ns[:1], ks[:1], 1
        return [
            RunSpec(
                family=family, graph=_graph(family, n), k=k, max_rounds=max_rounds(n), **fields
            )
            for family in FAMILIES
            for n in ns
            for k in ks
            for _ in range(reps)
        ]

    if workload == "faster-cold":
        # Faster-Gathering's 4-hop step ends after 626M rounds at n=64 and its
        # 5-hop step after 980M at n=32, past the default cap of 500M rounds:
        # a correct run whose closest pair starts 4 or more hops apart would
        # end in SimulationTimeout.  The cap here is the default one, counted
        # from the start of the UXS fallback (step 7).
        specs = cells(
            (16, 32, 64),
            (8,),
            2,
            max_rounds=lambda n: faster_gathering_boundaries(n)[-1] + DEFAULT_MAX_ROUNDS,
            algorithm="faster",
            placement="dispersed",
        )
    elif workload == "uxs-general":
        specs = cells((16,), (4, 8), 2, algorithm="uxs", placement="dispersed")
        if not reduced:
            # ring n=32 k=4 is the reference cell for a general-path speedup
            specs.append(
                RunSpec("uxs", "ring", {"n": 32}, placement="dispersed", k=4)
            )
            # The TZ baseline's first-gather time is heavy-tailed in the
            # placement and labels (47k to 286k executed rounds over five
            # workload seeds, against ~700k for the rest of the workload), so
            # these runs keep the seeds the default workload seed gives them.
            tz = [
                RunSpec(
                    "tz",
                    family,
                    _graph(family, n),
                    placement="dispersed",
                    k=8,
                    stop_on_gather=True,
                )
                for family in ("ring", "torus")
                for n in (16, 32)
            ]
            specs += assign_seeds(specs + tz, DEFAULT_SEED)[len(specs):]
    elif workload == "undispersed-seeds":
        specs = cells(
            (16, 32),
            (4, 8),
            16,
            algorithm="undispersed",
            placement="undispersed",
            uses_uxs=False,
        )
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    return assign_seeds(specs, seed)
