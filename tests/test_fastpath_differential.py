"""The fast path is bit-identical to the seed scheduler.

:mod:`repro.sim.scheduler` rewrote the round hot loop (struct-of-arrays
state, inline move application, iterative follow resolution, single-pass
cascade, a precomputed wake schedule).  This module runs the optimized
:class:`~repro.sim.scheduler.Scheduler` and the seed
:class:`~repro.sim.reference.ReferenceScheduler` side by side and asserts
**exact** equality of

* the full trace event list (every kind, every payload, every order),
* final positions and per-robot statuses,
* every :class:`~repro.sim.metrics.RunMetrics` field,

over the real algorithms on the integration-matrix graph instances, over
hand-built follow/cascade/jump scenarios that target the rewritten
machinery specifically, and over hypothesis-generated robot scripts.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.placement import (
    assign_labels,
    dispersed_random,
    undispersed_placement,
)
from repro.core.faster_gathering import faster_gathering_program
from repro.core.undispersed import undispersed_gathering_program
from repro.core.uxs_gathering import uxs_gathering_program
from repro.ext.faults import FaultPlan
from repro.graphs import generators as gg
from repro.runtime.spec import materialize
from repro.scenarios import get_scenario, scenario_names
from repro.sim.activation import build_activation
from repro.sim.actions import Action
from repro.sim.errors import ProtocolViolation
from repro.sim.reference import ReferenceScheduler
from repro.sim.robot import RobotSpec
from repro.sim.scheduler import Scheduler
from repro.sim.trace import TraceRecorder
from tests.conftest import (
    activation_strategy,
    fault_plan_strategy,
    follow_scripts,
    scaled_examples,
    script_strategy,
    scripted_factory,
)
from tests.test_integration_matrix import FAMILY_INSTANCES


# ---------------------------------------------------------------------------
# Harness
# ---------------------------------------------------------------------------


def _metrics_dict(sched):
    m = sched.metrics
    return {
        **m.as_dict(),
        "moves_by_robot": m.moves_by_robot,
        "active_rounds_by_robot": m.active_rounds_by_robot,
        "max_card_bits": m.max_card_bits,
    }


class ReferenceWithActivation(ReferenceScheduler):
    """The seed scheduler plus the activation hook, for scenario parity.

    The seed predates activation models, so its ``_step`` never consults
    one; this test-only subclass inserts the same post-wake filter the
    fast path applies, letting activation scenarios run differentially.
    """

    def _wake_due(self):
        active = super()._wake_due()
        if self.activation is not None and active:
            selected = self.activation.select(active, self.round)
            if not selected:
                raise ProtocolViolation(
                    f"activation model {self.activation.describe()!r} selected "
                    f"no robot at round {self.round} with {len(active)} due"
                )
            return selected
        return active


def _state_digest(sched):
    return (
        sched.positions(),
        sched.round,
        {r.label: r.status for r in sched.robots},
        _metrics_dict(sched),
    )


def run_both(graph, make_specs, max_rounds=200_000, stop_on_gather=False, strict=False):
    """Run fast and seed schedulers on identical specs; assert bit-identity.

    Returns the fast scheduler for scenario-specific extra assertions.
    """
    results = []
    for cls in (Scheduler, ReferenceScheduler):
        trace = TraceRecorder()
        sched = cls(graph, make_specs(), trace=trace, strict=strict)
        sched.run(max_rounds=max_rounds, stop_on_gather=stop_on_gather)
        results.append((sched, trace))
    (fast, fast_trace), (ref, ref_trace) = results

    assert fast_trace.events == ref_trace.events, "trace divergence"
    assert fast.positions() == ref.positions(), "position divergence"
    assert fast.round == ref.round, "round-counter divergence"
    assert {r.label: r.status for r in fast.robots} == {
        r.label: r.status for r in ref.robots
    }, "status divergence"
    assert _metrics_dict(fast) == _metrics_dict(ref), "metrics divergence"
    return fast


def run_both_untraced(
    graph,
    make_specs,
    max_rounds=200_000,
    stop_on_gather=False,
    strict=False,
    activation="sync",
    activation_args=None,
):
    """Differential run with ``trace=None``.

    Untraced rounds track movers only when followers or meet-sleepers need
    them, so this is a different sweep from :func:`run_both`'s; this
    variant compares everything *except* traces (positions, round counter,
    statuses, full metrics).  Activation models are stateful, so each
    scheduler gets a fresh one.
    """
    digests = []
    for cls in (Scheduler, ReferenceWithActivation):
        model = build_activation(activation, dict(activation_args or {}))
        sched = cls(graph, make_specs(), strict=strict, activation=model)
        sched.run(max_rounds=max_rounds, stop_on_gather=stop_on_gather)
        digests.append((_state_digest(sched), sched))
    (fast_digest, fast), (ref_digest, _) = digests
    assert fast_digest == ref_digest, "untraced state divergence"
    return fast


# ---------------------------------------------------------------------------
# Real algorithms on the full integration matrix
# ---------------------------------------------------------------------------

IDS = [name for name, _ in FAMILY_INSTANCES]


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_undispersed(name, graph):
    starts = undispersed_placement(graph, 4, seed=42)
    labels = assign_labels(4, graph.n, seed=42)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=undispersed_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both(graph, make_specs)
    assert fast.all_terminated(), name


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_uxs(name, graph):
    starts = dispersed_random(graph, 3, seed=43)
    labels = assign_labels(3, graph.n, seed=43)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=uxs_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both(graph, make_specs)
    assert fast.all_terminated(), name


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_faster(name, graph):
    k = graph.n // 2 + 1
    starts = dispersed_random(graph, k, seed=44)
    labels = assign_labels(k, graph.n, seed=44)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=faster_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both(graph, make_specs)
    assert fast.all_terminated(), name


# ---------------------------------------------------------------------------
# Targeted scenarios for the rewritten machinery
# ---------------------------------------------------------------------------


def _spec(label, start, gen_fn):
    return RobotSpec(label=label, start=start, factory=gen_fn)


def test_follow_chain_and_branching_cascade():
    """Deep follow chain + branches; leader terminates -> ordered cascade.

    Labels are deliberately arranged so the cascade's iterated label-order
    passes differ from naive BFS order (follower with a *smaller* label
    than its leader joins a later pass) — pinning the single-pass rewrite
    to the seed's exact trace order.
    """
    g = gg.ring(8)

    def leader(ctx):
        obs = yield
        obs = yield Action.move(0)
        obs = yield Action.move(0)
        yield Action.terminate()

    def follower(target):
        def prog(ctx):
            obs = yield
            yield Action.follow(target, on_leader_terminate="terminate")
            return

        return prog

    def waker(target):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow(target, on_leader_terminate="wake")
            yield Action.terminate()

        return prog

    def make_specs():
        return [
            _spec(5, 0, leader),
            _spec(7, 0, follower(5)),   # larger label than leader: pass 1
            _spec(3, 0, follower(5)),   # smaller label than leader: pass 2
            _spec(2, 0, follower(7)),   # chain through 7
            _spec(6, 0, waker(3)),      # wake-mode: blocks propagation
            _spec(1, 0, follower(6)),   # leader never terminates by cascade
        ]

    fast = run_both(g, make_specs)
    assert fast.all_terminated()


def test_follow_cycle_and_once_chains():
    g = gg.path(4)

    def mover(ctx):
        obs = yield
        obs = yield Action.move(0)
        yield Action.terminate()

    def once(target):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow_once(target)
            yield Action.terminate()

        return prog

    def cyclic(target):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow_once(target)
            yield Action.terminate()

        return prog

    def make_specs():
        return [
            _spec(4, 1, mover),
            _spec(2, 1, once(4)),     # mirrors the mover
            _spec(1, 1, once(2)),     # chain: once -> once -> mover
            _spec(5, 2, cyclic(6)),   # 5 <-> 6 cycle: both stay
            _spec(6, 2, cyclic(5)),
        ]

    run_both(g, make_specs)


def test_wake_on_meet_and_jump_interleaving():
    """Sleepers (meet-wakeable and not) + a fast-forward jump + arrivals."""
    g = gg.path(5)

    def sleeper_meet(ctx):
        obs = yield
        obs = yield Action.sleep(None, wake_on_meet=True)
        yield Action.terminate()

    def sleeper_deep(ctx):
        obs = yield
        obs = yield Action.sleep(60)
        yield Action.terminate()

    def visitor(ctx):
        obs = yield
        obs = yield Action.sleep(40)
        obs = yield Action.move(0)  # arrives next to the meet-sleeper? no: onto it
        yield Action.terminate()

    def make_specs():
        return [
            _spec(1, 1, sleeper_meet),
            _spec(2, 4, sleeper_deep),
            _spec(3, 2, visitor),  # port 0 from node 2 leads to node 1
        ]

    run_both(g, make_specs)


def test_card_publication_timing_with_cache():
    """Co-located publishers: later robots must see start-of-round cards."""
    g = gg.star(5)

    def publisher(ctx):
        obs = yield
        for i in range(4):
            obs = yield Action.stay(card={"v": i})
        yield Action.terminate()

    def mover_publisher(ctx):
        obs = yield
        obs = yield Action.stay(card={"w": "a"})
        obs = yield Action.move(0, card={"w": "b"})
        obs = yield Action.stay(card={"w": "c"})
        obs = yield Action.stay()
        yield Action.terminate()

    def reader(ctx):
        obs = yield
        for _ in range(4):
            obs = yield Action.stay(card={"seen": sorted(
                (c.get("id"), c.get("v"), c.get("w")) for c in obs.cards
            )})
        yield Action.terminate()

    def make_specs():
        return [
            _spec(1, 0, publisher),
            _spec(2, 0, mover_publisher),
            _spec(3, 0, reader),
            _spec(4, 1, reader),
        ]

    run_both(g, make_specs)


def test_remote_follower_invalid_inherited_port_raises_like_seed():
    """Non-strict mode lets a follower track a non-co-located leader; if it
    inherits a port its own node lacks, both schedulers must raise
    PortGraphError (not walk another node's CSR slots, not IndexError)."""
    from repro.graphs.port_graph import PortGraphError

    g = gg.path(4)

    def leader(ctx):
        obs = yield
        obs = yield Action.move(1)  # node 1 has degree 2; port 1 exists
        yield Action.terminate()

    def follower(ctx):
        obs = yield
        obs = yield Action.follow_once(2)  # at node 0: degree 1, port 1 invalid
        yield Action.terminate()

    outcomes = []
    for cls in (Scheduler, ReferenceScheduler):
        trace = TraceRecorder()
        sched = cls(g, [_spec(2, 1, leader), _spec(1, 0, follower)], trace=trace)
        with pytest.raises(PortGraphError) as exc:
            sched.run(max_rounds=50)
        # the leader's move applies before the follower's raises, in both
        outcomes.append((str(exc.value), sched.positions(), trace.events))
    assert outcomes[0] == outcomes[1]
    message, positions, events = outcomes[0]
    assert "degree 1" in message and "port 1" in message
    assert positions == {1: 0, 2: 2}
    assert [e.kind for e in events] == ["move"]  # the leader's applied move


def test_stop_on_gather_runs_match():
    g = gg.ring(6)

    def walker(ctx):
        obs = yield
        obs = yield Action.move(0)
        while True:
            # rotor: keep moving around the ring instead of bouncing back
            obs = yield Action.move((obs.entry_port + 1) % obs.degree)

    def sitter(ctx):
        obs = yield
        while True:
            obs = yield Action.stay()

    def make_specs():
        return [_spec(1, 0, walker), _spec(2, 3, sitter)]

    fast = run_both(g, make_specs, max_rounds=100, stop_on_gather=True)
    assert fast.metrics.first_gather_round is not None


# ---------------------------------------------------------------------------
# Hypothesis: random scripted robots, both schedulers, exact trace equality
# (``step_strategy``/``script_strategy``/``scripted_factory`` are the shared
# generators from repro.testing.strategies, re-exported by conftest)
# ---------------------------------------------------------------------------


def _traced_outcome(cls, graph, specs, activation, activation_args, max_rounds):
    """One traced run: its final state, or the exception it raised."""
    trace = TraceRecorder()
    model = build_activation(activation, dict(activation_args))
    sched = cls(graph, specs, trace=trace, activation=model)
    try:
        sched.run(max_rounds=max_rounds)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc), trace.events)
    return ("finished", _state_digest(sched), trace.events)


@given(
    st.integers(0, 3),
    st.lists(script_strategy, min_size=1, max_size=4),
    activation_strategy(),
    st.data(),
)
@settings(max_examples=scaled_examples(100), deadline=None)
def test_scripted_robots_bit_identical(graph_pick, scripts, activation, data):
    """Scripted sleeps, meet-sleeps and cards under every activation model,
    traced: both schedulers finish identically (trace, positions, statuses,
    metrics) or raise the same exception after the same trace."""
    graph = [gg.ring(6), gg.path(5), gg.star(6), gg.erdos_renyi(7, seed=3)][graph_pick]
    starts = [
        data.draw(st.integers(0, graph.n - 1), label=f"start{i}")
        for i in range(len(scripts))
    ]

    def make_specs():
        return [
            RobotSpec(label=i + 1, start=s, factory=scripted_factory(sc))
            for i, (s, sc) in enumerate(zip(starts, scripts))
        ]

    name, options = activation
    fast, ref = (
        _traced_outcome(cls, graph, make_specs(), name, options, 10_000)
        for cls in (Scheduler, ReferenceWithActivation)
    )
    assert fast == ref


# ---------------------------------------------------------------------------
# Untraced differential: the round loop without a trace on real algorithms
# ---------------------------------------------------------------------------
# A trace turns on mover tracking for every round, so the matrix tests above
# never run the untracked sweep; these repeat representative workloads with
# trace=None and compare positions/statuses/round/metrics.


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_faster_untraced_soa(name, graph):
    k = graph.n // 2 + 1
    starts = dispersed_random(graph, k, seed=44)
    labels = assign_labels(k, graph.n, seed=44)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=faster_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both_untraced(graph, make_specs)
    assert fast.all_terminated(), name


@pytest.mark.parametrize("name,graph", FAMILY_INSTANCES, ids=IDS)
def test_matrix_uxs_untraced_soa(name, graph):
    starts = dispersed_random(graph, 3, seed=43)
    labels = assign_labels(3, graph.n, seed=43)

    def make_specs():
        return [
            RobotSpec(label=l, start=s, factory=uxs_gathering_program())
            for l, s in zip(labels, starts)
        ]

    fast = run_both_untraced(graph, make_specs)
    assert fast.all_terminated(), name


def test_follow_cascade_untraced_soa():
    """The cold paths: follow mid-sweep (mover reconstruction), cascade,
    woken-early bookkeeping — without a trace tracking every mover."""
    g = gg.ring(8)

    def leader(ctx):
        obs = yield
        obs = yield Action.move(0)
        obs = yield Action.move(0)
        yield Action.terminate()

    def follower(target):
        def prog(ctx):
            obs = yield
            yield Action.follow(target, on_leader_terminate="terminate")
            return

        return prog

    def waker(target):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow(target, on_leader_terminate="wake")
            yield Action.terminate()

        return prog

    def make_specs():
        return [
            RobotSpec(label=5, start=0, factory=leader),
            RobotSpec(label=7, start=0, factory=follower(5)),
            RobotSpec(label=3, start=0, factory=follower(5)),
            RobotSpec(label=2, start=0, factory=follower(7)),
            RobotSpec(label=6, start=0, factory=waker(3)),
            RobotSpec(label=1, start=0, factory=follower(6)),
        ]

    fast = run_both_untraced(g, make_specs)
    assert fast.all_terminated()


def test_meet_sleep_mid_sweep_untraced_soa():
    """A wake_on_meet sleep appearing mid-SoA-round must reconstruct this
    round's earlier inline movers for arrival detection."""
    g = gg.path(5)

    def early_mover(ctx):  # label 1: moves before the sleeper acts
        obs = yield
        obs = yield Action.move(0)  # node 2 -> node 1
        obs = yield Action.stay()
        yield Action.terminate()

    def meet_sleeper(ctx):  # label 2 at node 1: sleeps this same round
        obs = yield
        obs = yield Action.sleep(None, wake_on_meet=True)
        yield Action.terminate()

    def make_specs():
        return [
            RobotSpec(label=1, start=2, factory=early_mover),
            RobotSpec(label=2, start=1, factory=meet_sleeper),
        ]

    fast = run_both_untraced(g, make_specs)
    assert fast.all_terminated()


# ---------------------------------------------------------------------------
# The scenario registry, differentially (all 9 curated entries)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario_name", scenario_names())
def test_scenario_registry_differential(scenario_name):
    """Every compiled spec of every registered scenario runs bit-identical
    (positions, statuses, round counter, metrics) on the SoA engine vs the
    seed scheduler — activation models via the test shim, fault plans via
    the same program wrappers both schedulers consume."""
    scenario = get_scenario(scenario_name)
    for spec in scenario.specs:
        graph, starts, labels, factory_for = materialize(spec)
        plan = spec.fault_plan()
        factory = factory_for()

        def make_specs():
            return [
                RobotSpec(
                    label=l,
                    start=s,
                    factory=plan.wrap(i, factory) if plan is not None else factory,
                    knowledge=dict(spec.knowledge),
                )
                for i, (l, s) in enumerate(zip(labels, starts))
            ]

        from repro.sim.world import DEFAULT_MAX_ROUNDS

        fast = run_both_untraced(
            graph,
            make_specs,
            max_rounds=spec.max_rounds if spec.max_rounds is not None else DEFAULT_MAX_ROUNDS,
            stop_on_gather=spec.stop_on_gather,
            strict=spec.strict,
            activation=spec.activation,
            activation_args=dict(spec.activation_args),
        )
        assert fast is not None


# ---------------------------------------------------------------------------
# Hypothesis: random fault plans over scripted robots, bit-identical
# ---------------------------------------------------------------------------

@given(
    st.integers(0, 3),
    st.lists(script_strategy, min_size=2, max_size=4),
    fault_plan_strategy,
    st.data(),
)
@settings(max_examples=scaled_examples(60), deadline=None)
def test_fault_plans_bit_identical(graph_pick, scripts, plan_dict, data):
    """Crash/delay campaigns (program-level wrappers) stay bit-identical
    across both schedulers — traced and untraced."""
    graph = [gg.ring(6), gg.path(5), gg.star(6), gg.erdos_renyi(7, seed=3)][graph_pick]
    k = len(scripts)
    plan = FaultPlan.from_dict(
        {
            kind: {i: v for i, v in table.items() if i < k}
            for kind, table in plan_dict.items()
        }
    )
    starts = [
        data.draw(st.integers(0, graph.n - 1), label=f"start{i}")
        for i in range(k)
    ]

    def make_specs():
        return [
            RobotSpec(
                label=i + 1,
                start=s,
                factory=plan.wrap(i, scripted_factory(sc)),
            )
            for i, (s, sc) in enumerate(zip(starts, scripts))
        ]

    run_both(graph, make_specs, max_rounds=10_000)
    run_both_untraced(graph, make_specs, max_rounds=10_000)


# ---------------------------------------------------------------------------
# Follow groups: riders carried by their root (Scheduler._regroup)
# ---------------------------------------------------------------------------
# Each hand-built case runs traced and untraced under strict=True, the mode
# every runtime path uses; the hypothesis test below adds strict=False.


def run_both_modes(graph, make_specs, max_rounds=10_000):
    """Traced and untraced differential runs under ``strict=True``."""
    run_both(graph, make_specs, max_rounds=max_rounds, strict=True)
    return run_both_untraced(graph, make_specs, max_rounds=max_rounds, strict=True)


def _walker(steps):
    """Rotor walk of ``steps`` moves (never bouncing back), then terminate."""

    def prog(ctx):
        obs = yield
        obs = yield Action.move(0)
        for _ in range(steps - 1):
            obs = yield Action.move((obs.entry_port + 1) % obs.degree)
        yield Action.terminate()

    return prog


def _noted(obs):
    """The observed cards as a trace note: (id, v) pairs in card order."""
    return repr([(c["id"], c.get("v")) for c in obs.cards])


@pytest.mark.parametrize("leader,follower", [(2, 5), (5, 2)], ids=["leader-below", "leader-above"])
def test_group_attach_in_the_round_the_leader_moves(leader, follower):
    """The follower attaches while its leader moves in the same sweep —
    before it (smaller label) or after it — and must move along that very
    round, rebuilt from round-start positions."""
    g = gg.ring(7)

    def attach(ctx):
        obs = yield
        yield Action.follow(leader, on_leader_terminate="terminate")

    def make_specs():
        return [
            _spec(leader, 0, _walker(4)),
            _spec(follower, 0, attach),
            _spec(9, 3, _walker(2)),  # a bystander the group meets
        ]

    fast = run_both_modes(g, make_specs)
    assert fast.all_terminated()
    assert fast.positions()[follower] == fast.positions()[leader]


def test_grouped_root_card_is_seen_next_round():
    """A root with a rider publishes a card; the root's own next
    observation (its cached group tuple) and a robot arriving later both
    see it.  A rider-less robot's publish refreshes its own group-card
    slot in place, which it reads back the next round."""
    g = gg.ring(6)
    meet, back = g.traverse(0, 1)  # ``back`` leads from ``meet`` to node 0

    def root(ctx):
        obs = yield
        obs = yield Action.stay()  # the rider attaches this round
        obs = yield Action.stay(card={"v": 1})
        for _ in range(4):  # alone for three rounds, then the visitor
            obs = yield Action.stay(note=_noted(obs))
        obs = yield Action.move(0, card={"v": 2})
        obs = yield Action.stay(note=_noted(obs))
        yield Action.terminate()

    def rider(ctx):
        obs = yield
        yield Action.follow(4, on_leader_terminate="terminate")

    def visitor(ctx):
        obs = yield
        obs = yield Action.stay()
        obs = yield Action.stay()
        obs = yield Action.stay(card={"v": 7})  # no root publishes nearby
        obs = yield Action.stay(note=_noted(obs))  # its own fresh card
        obs = yield Action.move(back)
        obs = yield Action.stay(note=_noted(obs))
        # branch on what it saw, so an untraced run diverges too
        if any(c.get("v") == 1 for c in obs.cards):
            obs = yield Action.move(0)
        yield Action.terminate()

    def make_specs():
        return [_spec(4, 0, root), _spec(1, 0, rider), _spec(3, meet, visitor)]

    fast = run_both_modes(g, make_specs)
    assert fast.all_terminated()


def test_two_groups_meet_and_reroot():
    """Two groups meet on one node; the lower root then follows the higher
    one, so its rider is re-rooted and all four robots ride together until
    the last root terminates (one wake-mode rider outlives it)."""
    g = gg.ring(8)
    meet = g.traverse(g.traverse(0, 0)[0], 1)[0]

    def root_low(ctx):
        obs = yield
        obs = yield Action.stay()
        obs = yield Action.move(0)
        obs = yield Action.move((obs.entry_port + 1) % obs.degree)
        # now co-located with the other group: join its root
        yield Action.follow(6, on_leader_terminate="terminate")

    def root_high(ctx):
        obs = yield
        for _ in range(4):
            obs = yield Action.stay(note=_noted(obs))
        obs = yield Action.move(0, note=_noted(obs))
        for _ in range(3):
            obs = yield Action.move((obs.entry_port + 1) % obs.degree)
        yield Action.terminate()

    def rider(leader, mode):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow(leader, on_leader_terminate=mode)
            obs = yield Action.move(0)
            yield Action.terminate()

        return prog

    def make_specs():
        return [
            _spec(4, 0, root_low),
            _spec(1, 0, rider(4, "terminate")),
            _spec(6, meet, root_high),
            _spec(2, meet, rider(6, "wake")),
        ]

    fast = run_both_modes(g, make_specs)
    assert fast.all_terminated()
    assert fast.positions()[1] == fast.positions()[4] == fast.positions()[6]
    assert fast.metrics.moves_by_robot[1] == fast.metrics.moves_by_robot[4]


def test_wake_mode_detach_at_until_round_and_on_leader_termination():
    g = gg.ring(7)

    def root(ctx):
        obs = yield
        obs = yield Action.stay()
        for _ in range(4):
            obs = yield Action.move(0 if obs.entry_port is None else (obs.entry_port + 1) % obs.degree)
        yield Action.terminate()

    def timed(ctx):  # detaches at round 3, mid-walk
        obs = yield
        obs = yield Action.follow(5, until_round=3, on_leader_terminate="wake")
        obs = yield Action.move(0, note=_noted(obs))
        yield Action.terminate()

    def until_leader_ends(ctx):  # wakes the round after the root terminates
        obs = yield
        obs = yield Action.follow(5, on_leader_terminate="wake")
        obs = yield Action.stay(note=_noted(obs))
        obs = yield Action.move(0)
        yield Action.terminate()

    def make_specs():
        return [_spec(5, 0, root), _spec(2, 0, timed), _spec(7, 0, until_leader_ends)]

    fast = run_both_modes(g, make_specs)
    assert fast.all_terminated()
    assert fast.metrics.moves_by_robot[7] == fast.metrics.moves_by_robot[5] + 1


def test_strict_follow_cycle_then_groups_resume():
    """Co-located robots follow each other in a cycle (no root: the generic
    resolver, nobody in it moves) with a third riding into the cycle; once
    the cycle breaks on a timed wake, the rider has a root again."""
    g = gg.ring(6)

    def cyc(target, until, moves):
        def prog(ctx):
            obs = yield
            obs = yield Action.follow(target, until_round=until, on_leader_terminate="wake")
            for _ in range(moves):
                obs = yield Action.move(0 if obs.entry_port is None else (obs.entry_port + 1) % obs.degree)
            yield Action.terminate()

        return prog

    def hanger(ctx):
        obs = yield
        yield Action.follow(1, on_leader_terminate="terminate")

    def watcher(ctx):  # shares the cycle's node: must see all four cards
        obs = yield
        for _ in range(6):
            obs = yield Action.stay(note=_noted(obs))
        yield Action.terminate()

    def make_specs():
        return [
            _spec(1, 0, cyc(2, 4, 3)),
            _spec(2, 0, cyc(1, 9, 1)),
            _spec(3, 0, hanger),
            _spec(5, 0, watcher),
            _spec(4, 3, _walker(10)),  # keeps rounds executing
        ]

    fast = run_both_modes(g, make_specs)
    assert fast.all_terminated()
    assert fast.metrics.moves_by_robot[3] == fast.metrics.moves_by_robot[1] == 3


def _follow_outcome(cls, graph, specs, strict, traced):
    """One run: its final state (and trace), or the exception it raised."""
    trace = TraceRecorder() if traced else None
    sched = cls(graph, specs, trace=trace, strict=strict)
    events = trace.events if traced else None
    try:
        sched.run(max_rounds=10_000)
    except Exception as exc:
        return ("raised", type(exc).__name__, str(exc), events)
    return ("finished", _state_digest(sched), events)


@given(
    st.integers(0, 3),
    st.lists(follow_scripts(), min_size=2, max_size=4),
    st.data(),
)
@settings(max_examples=scaled_examples(100), deadline=None)
def test_follow_scripts_bit_identical(graph_pick, scripts, data):
    """Scripted persistent follows (both leader-termination modes, timed
    and untimed), one-round follows, moves, sleeps and cards: identical to
    the seed scheduler under strict and non-strict, traced and untraced —
    the same final state, or the same exception type and message."""
    graph = [gg.ring(6), gg.path(5), gg.star(6), gg.erdos_renyi(7, seed=3)][graph_pick]
    # starts from a few nodes, so robots share nodes and groups form
    starts = [
        data.draw(st.integers(0, 2), label=f"start{i}") for i in range(len(scripts))
    ]

    def make_specs():
        return [
            RobotSpec(label=i + 1, start=s, factory=scripted_factory(sc))
            for i, (s, sc) in enumerate(zip(starts, scripts))
        ]

    for strict in (True, False):
        for traced in (True, False):
            fast, ref = (
                _follow_outcome(cls, graph, make_specs(), strict, traced)
                for cls in (Scheduler, ReferenceScheduler)
            )
            assert fast == ref, (strict, traced)
