"""Tests of the benchmark itself: workloads, correctness check and tracing.

    python -m pytest e2ebench -q
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.runtime as runtime
from e2ebench import checks, tracing, workloads
from e2ebench.child import run_pass


def _run(workload, tmp_path, tracer=None):
    specs = workloads.build_specs(workload, workloads.DEFAULT_SEED, reduced=True)
    return run_pass(runtime, specs, runtime.ResultCache(tmp_path), tracer)


@pytest.mark.parametrize(
    "workload, runs", [("faster-cold", 18), ("uxs-general", 17), ("undispersed-seeds", 192)]
)
def test_workload_sizes_and_fixed_topologies(workload, runs):
    a = workloads.build_specs(workload, 0)
    b = workloads.build_specs(workload, 1)
    assert len(a) == len(b) == runs
    assert [(s.family, s.graph) for s in a] == [(s.family, s.graph) for s in b]
    assert [s.seed for s in a] != [s.seed for s in b]
    assert len({s.seed for s in a}) == runs


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reduced_workload_passes_the_check(workload, tmp_path):
    cold, warm, wall_s = _run(workload, tmp_path)
    assert wall_s > 0
    assert checks.failed_runs(cold, warm, None) == {}


def test_tampered_record_is_caught(tmp_path):
    cold, warm, _ = _run("undispersed-seeds", tmp_path)
    expected = checks.records_digest(o.run for o in cold.outcomes)
    assert checks.failed_runs(cold, warm, expected) == {}

    def tamper(index, **changes):
        outcomes = list(cold.outcomes)
        run = dataclasses.replace(outcomes[index].run, **changes)
        outcomes[index] = dataclasses.replace(outcomes[index], run=run)
        return dataclasses.replace(cold, outcomes=outcomes)

    assert checks.failed_runs(tamper(1, gathered=False), warm, expected) == {1: "not gathered"}
    assert checks.failed_runs(tamper(2, detected=False), warm, None) == {
        2: "gathered without detection"
    }
    rounds = cold.outcomes[0].run.rounds + 1
    failed = checks.failed_runs(tamper(0, rounds=rounds), warm, expected)
    assert sorted(failed) == list(range(len(cold.outcomes)))
    missed = dataclasses.replace(warm.outcomes[0], cached=False)
    warm_missed = dataclasses.replace(warm, outcomes=[missed] + warm.outcomes[1:])
    assert checks.failed_runs(cold, warm_missed, expected) == {
        0: "warm pass missed the cache"
    }


def test_self_time_rollup_on_a_hand_built_tree():
    S = tracing.Span
    spans = [
        S("runtime.execute", 0.0, 10.0, None, "cold"),
        S("runtime.spec", 1.0, 9.0, 0, "cold/0"),
        S("uxs.verify", 1.5, 4.5, 1, "cold/0"),
        S("uxs.certify", 2.0, 4.0, 2, "cold/0"),
        S("sim", 5.0, 8.0, 1, "cold/0", {"rounds": 7}),
        S("cache.put", 9.0, 9.5, 0, "cold"),
        S("runtime.execute", 11.0, 12.0, None, "warm"),
        S("cache.get", 11.0, 11.25, 6, "warm"),
    ]
    assert tracing.self_times(spans) == [1.5, 2.0, 1.0, 2.0, 3.0, 0.5, 0.75, 0.25]
    cold = tracing.rollup(spans, "cold")
    assert {name: layer["self_s"] for name, layer in cold.items()} == {
        "runtime.execute": 1.5,
        "runtime.spec": 2.0,
        "uxs.verify": 1.0,
        "uxs.certify": 2.0,
        "sim": 3.0,
        "cache.put": 0.5,
    }
    assert sum(layer["self_s"] for layer in cold.values()) == spans[0].duration
    assert cold["sim"]["rounds"] == 7
    assert tracing.rollup(spans, "warm")["cache.get"] == {"self_s": 0.25, "calls": 1}


def _traced_targets():
    from repro.analysis import experiments
    from repro.core import uxs_gathering
    from repro.runtime import executor, spec
    from repro.runtime.cache import ResultCache
    from repro.sim.world import World

    return {
        "execute": runtime.execute,
        "execute_spec": executor.execute_spec,
        "graph_for": spec.graph_for,
        "assign_labels": spec.assign_labels,
        "placement": dict(spec.PLACEMENT_BUILDERS),
        "verify": experiments.verify_uxs_for_graph,
        "certify": experiments.practical_plan,
        "program_plan": uxs_gathering.practical_plan,
        "record": experiments.record_from_result,
        "sim": World.run,
        "put": ResultCache.put,
        "get": ResultCache.get,
    }


def test_traced_run_matches_and_wrappers_do_not_leak(tmp_path):
    before = _traced_targets()
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert _traced_targets()["execute"] is not before["execute"]
        cold_traced, _, _ = _run("uxs-general", tmp_path / "traced", tracer)
    finally:
        uninstall()
    names = {span.name for span in tracer.spans}
    assert {"runtime.execute", "runtime.spec", "graphs", "placement", "uxs.verify",
            "uxs.certify", "sim", "record", "cache.put", "cache.get"} <= names
    spans = len(tracer.spans)

    assert _traced_targets() == before
    cold, _, _ = _run("uxs-general", tmp_path / "untraced")
    assert len(tracer.spans) == spans
    assert checks.records_digest(o.run for o in cold_traced.outcomes) == checks.records_digest(
        o.run for o in cold.outcomes
    )
