"""The synchronous round scheduler.

Executes the Face-to-Face model round by round:

1. **Wake-ups** — sleepers whose wake round arrived (or who were woken early
   by an arrival) and persistent followers whose ``until_round`` arrived
   become active.
2. **Fast-forward** — if *no* robot is active, nothing can change until the
   earliest scheduled wake round; simulated time jumps there in one step.
   (Followers of sleeping leaders cannot move either, so the jump is safe.)
3. **Observation & compute** — each active robot receives an
   :class:`~repro.sim.actions.Observation` (cards of co-located robots as of
   the start of the round) and yields an :class:`~repro.sim.actions.Action`.
   Robots are processed in increasing label order; determinism is total.
4. **Move resolution** — explicit moves are taken as-is; follows resolve
   transitively to the leader's move this round (cycles resolve to "stay",
   which cannot happen for the algorithms in this library but keeps the
   scheduler total).
5. **Simultaneous application** — all moves happen at once; entry ports are
   recorded; sleeping robots with ``wake_on_meet`` on nodes that received an
   arrival are flagged to wake next round.
6. **Terminations** — terminate actions are applied, then cascaded to
   persistent followers with ``on_leader_terminate="terminate"``
   (transitively, the paper's Lemma 4).

The scheduler never exposes node identities to programs.

Implementation notes (the *fast path*; semantics are pinned bit-for-bit
against :class:`repro.sim.reference.ReferenceScheduler` by
``tests/test_fastpath_differential.py``, and the invariants are documented
in ``docs/PERF.md``):

The engine is **struct-of-arrays**: per-robot hot state lives in parallel
flat lists indexed by ``rid`` (robots sorted by label, so rid order ==
label order everywhere) — ``_pos``, ``_entry``, ``_moves``, ``_ar`` (active
rounds),
``_own`` (the robot's single-occupant card tuple), ``_sends`` (pre-bound
generator ``send``), and ``_obs`` (one reusable Observation per robot,
mutated in place — see the reuse contract in :mod:`repro.sim.actions`).
Plain lists are deliberately chosen over ``array``/numpy: indexing an
``array('l')`` boxes a fresh int per read, and numpy cannot help a loop
that must call a Python generator per element (see ``docs/PERF.md``).

One round loop (:meth:`_step_soa`) executes every round.  It applies
moves *inline* during the observation sweep (legal because an observation
depends on other robots only through start-of-round occupancy, which is
read from pre-round state), detects co-location with one C-level
``set(pos)`` per round instead of per-move occupancy bookkeeping, and
resolves the dominant "one shared node" case with a closed-form duplicate
extraction (``sum(pos) - sum(prev_pos_set)``).  Everything beyond plain
moves and stays is paid for only when present:

* rare action kinds (sleep/follow/terminate/cards/notes) drop into the
  cold helper :meth:`_soa_cold`, which also records their trace events;
* ``wake_on_meet`` sleepers and tracing switch on *mover tracking* for the
  whole round — the ``(rid, port)`` list that the meet wake-up scan and
  the ``move`` trace events read.  Without them the sweep records nothing,
  and a follow or meet-sleep appearing mid-sweep reconstructs the movers
  so far from the pre-round positions;
* persistent followers form **follow groups**: each co-located follower
  *rides* its *root* (the first non-following robot up its leader chain).
  The round snapshot counts groups rather than robots, so one group per
  node is an O(1) test that serves each root its cached group card tuple,
  and after the sweep every root whose position changed carries its
  riders along.  The group state is rebuilt (:meth:`_regroup`) only after
  a follow attach, an unfollow, or a card published by a root with
  riders.  ``follow_once`` rounds, follow cycles and non-co-located
  followers (``strict=False`` only) use the generic resolver
  :meth:`_soa_resolve_follows`, which reads tracked movers.

``RobotState`` position attributes (node, entry port, moves, active rounds)
are copied from the arrays only at run boundaries and on request
(:meth:`_sync_states`, the "facade at the trace boundary"); statuses, wake
rounds and leaders live on the facades throughout.
Wake-ups are driven by a precomputed **wake schedule** — a min-heap of
``(wake_round, rid)`` pushed at sleep/follow time — so rounds where nobody
is due skip the per-robot wake scan entirely, and fast-forward jumps read
the next wake round from the heap top.

Activation models (:mod:`repro.sim.activation`) weaken the synchronous
discipline: when one is installed, the due-robot list is filtered through
``model.select`` before observation.  ``activation=None`` (the default)
skips the policy entirely, preserving the pinned synchronous semantics.
Models receive the due robots' facades and select by ``label``/``rid``;
the facades' position attributes are not current mid-run.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Dict, List, Optional, Tuple

from repro.graphs.port_graph import PortGraph, PortGraphError
from repro.sim import robot as rb
from repro.sim.actions import (
    Action,
    Observation,
    STAY,
    MOVE,
    SLEEP,
    FOLLOW,
    FOLLOW_ONCE,
    TERMINATE,
)
from repro.sim.errors import ProtocolViolation, SimulationDeadlock, SimulationTimeout
from repro.sim.metrics import RunMetrics, card_bits
from repro.sim.robot import ACTIVE, FOLLOWING, SLEEPING, TERMINATED, RobotSpec, RobotState
from repro.sim.trace import TraceRecorder

__all__ = ["Scheduler"]

#: The round snapshot's shared-node card map when every node holds one
#: group.  Never mutated: the sweep only reads it.
_NOTHING_SHARED: Dict[int, Tuple[dict, ...]] = {}


class _FollowGroups:
    """A scheduler's follow-group state, rebuilt by ``Scheduler._regroup``.

    One record instead of five scheduler attributes: CPython keeps
    instance attributes in compact shared-key storage only below 30 of
    them, and past that every ``self.x`` load in the round loop gets
    slower.  The scheduler sits just below the limit.
    """

    __slots__ = ("riders", "gown", "units", "generic", "dirty")

    def __init__(self, own: List[Tuple[dict, ...]], nrob: int):
        #: root rid -> label-ordered rids of its riders
        self.riders: Dict[int, List[int]] = {}
        #: per rid: the card tuple its group shows when alone on its node
        #: (riders' slots unused); the scheduler's ``_own`` list itself
        #: while nobody rides
        self.gown = own
        #: groups on the graph (a robot without riders is one):
        #: occupied == units <=> one group a node
        self.units = nrob
        #: some persistent follower is not a rider (a follow cycle, or a
        #: non-co-located follower under ``strict=False``): rounds use the
        #: generic resolver and re-check the groups every round
        self.generic = False
        #: a follow attach, an unfollow or a root's card changed the groups
        self.dirty = False


class Scheduler:
    """Drives a set of robot programs on a port graph until all terminate."""

    #: Subclasses that keep :class:`RobotState` attributes authoritative for
    #: the whole run (the seed :class:`~repro.sim.reference.ReferenceScheduler`)
    #: set this to ``False``; the arrays then exist but are never trusted.
    _uses_soa = True

    def __init__(
        self,
        graph: PortGraph,
        specs: List[RobotSpec],
        trace: Optional[TraceRecorder] = None,
        strict: bool = False,
        replay=None,
        activation=None,
    ):
        labels = [s.label for s in specs]
        if len(set(labels)) != len(labels):
            raise ValueError("robot labels must be unique")
        if any(l < 1 for l in labels):
            raise ValueError("robot labels must be >= 1 (the paper's ID range starts at 1)")
        for s in specs:
            if not (0 <= s.start < graph.n):
                raise ValueError(f"start node {s.start} outside graph")

        self.graph = graph
        self.trace = trace
        self.strict = strict
        self.replay = replay
        # Optional ActivationModel (repro.sim.activation). None keeps the
        # native synchronous hot path: no per-round policy call at all.
        self.activation = activation
        # Robots sorted by label: processing order == label order everywhere.
        self.robots: List[RobotState] = [
            RobotState(rid, spec, graph.n)
            for rid, spec in enumerate(sorted(specs, key=lambda s: s.label))
        ]
        self.by_label: Dict[int, RobotState] = {r.label: r for r in self.robots}
        self.round = 0
        self.metrics = RunMetrics()

        # --- status bookkeeping (invariants in docs/PERF.md) -----------
        self._csr = graph.csr
        # reverse index: leader label -> persistent followers (label-sorted
        # is not required; cascade/propagation order is label-sorted where
        # it matters)
        self._followers_of: Dict[int, List[RobotState]] = {}
        # robots currently SLEEPING with wake_on_meet; while zero, the round
        # loop skips arrival tracking entirely
        self._meet_sleepers = 0
        self._alive = len(self.robots)

        # --- struct-of-arrays state -----------------------------------
        nrob = len(self.robots)
        self._nrob = nrob
        self._labels = [r.label for r in self.robots]
        self._pos: List[int] = [r.node for r in self.robots]
        self._entry: List[Optional[int]] = [None] * nrob
        self._moves: List[int] = [0] * nrob
        self._ar: List[int] = [0] * nrob
        self._own: List[Tuple[dict, ...]] = [(r.card,) for r in self.robots]
        self._sends = [r.send for r in self.robots]
        self._obs = [Observation(0, 0, None, ()) for _ in self.robots]
        self._posset = set(self._pos)
        self._occupied = len(self._posset)  # nodes holding >= 1 robot
        # label-ordered rids of currently ACTIVE robots (rid order == label
        # order); every status change maintains it
        self._active: List[int] = list(range(nrob))
        # active-round increments owed to every rid in _active (SoA rounds
        # defer the per-robot += 1 until the active set changes)
        self._ar_pending = 0
        # the wake schedule: min-heap of (wake_round, rid), pushed at
        # sleep/follow time; stale entries are skipped lazily on pop
        self._wake_heap: List[Tuple[int, int]] = []
        # rids flagged woken_early (meet arrivals, leader-terminated wakes)
        # since the last wake processing
        self._woken: List[int] = []

        self._groups = _FollowGroups(self._own, nrob)

        self._prime()

    # ------------------------------------------------------------------
    def _prime(self) -> None:
        """Advance every program to its bootstrap ``yield``."""
        for r in self.robots:
            first = next(r.gen)
            if first is not None:
                raise ProtocolViolation(
                    f"robot {r.label}: program must start with a bare 'yield' "
                    f"(got {first!r} before any observation)"
                )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def positions(self) -> Dict[int, int]:
        """label -> node, for every robot (terminated included).

        Derived straight from the position array — one C-level ``zip``
        instead of a per-robot attribute walk (replay snapshots call this
        every round).
        """
        if self._uses_soa:
            return dict(zip(self._labels, self._pos))
        return {r.label: r.node for r in self.robots}

    def all_terminated(self) -> bool:
        """O(1) counter check: has every robot terminated?"""
        return self._alive == 0

    def all_gathered(self) -> bool:
        """O(1) counter check: are all robots on one node?"""
        # _occupied is committed every round; == 1 iff co-located
        return self._occupied == 1

    # ------------------------------------------------------------------
    # Deferred counters and array -> facade synchronization
    # ------------------------------------------------------------------
    def _flush_ar(self) -> None:
        """Apply the deferred active-round increments to the ar array."""
        pending = self._ar_pending
        if pending:
            ar = self._ar
            for i in self._active:
                ar[i] += pending
            self._ar_pending = 0

    def _sync_states(self) -> None:
        """Copy array state onto the RobotState facades (arrays stay valid)."""
        self._flush_ar()
        pos = self._pos
        entry = self._entry
        moves = self._moves
        ar = self._ar
        for i, r in enumerate(self.robots):
            r.node = pos[i]
            r.entry_port = entry[i]
            r.moves = moves[i]
            r.active_rounds = ar[i]

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def run(self, max_rounds: int, stop_on_gather: bool = False) -> RunMetrics:
        """Run until every robot terminates (or ``max_rounds`` elapses).

        ``stop_on_gather=True`` additionally stops as soon as all robots are
        co-located — the measurement hook for detection-free baselines, which
        otherwise never halt.
        """
        while not self.all_terminated():
            if stop_on_gather and self.metrics.first_gather_round is not None:
                break
            if self.round > max_rounds:
                raise SimulationTimeout(
                    self.round,
                    detail="; ".join(
                        f"{r.label}:{rb.STATUS_NAMES[r.status]}" for r in self.robots
                    ),
                )
            self._step()
        return self._finalize()

    def _finalize(self) -> RunMetrics:
        """Sync facades and fill the end-of-run metrics.  ``run`` calls this
        once its loop exits; the stepwise engine protocol and the
        replica-major batch write-back (:mod:`repro.sim.batch2d`) call it
        directly — one code path, identical metrics either way."""
        if self._uses_soa:
            self._sync_states()
        self.metrics.rounds = self.round
        self.metrics.gathered_at_end = self.all_gathered()
        self.metrics.moves_by_robot = {r.label: r.moves for r in self.robots}
        self.metrics.active_rounds_by_robot = {
            r.label: r.active_rounds for r in self.robots
        }
        self.metrics.total_moves = sum(r.moves for r in self.robots)
        self.metrics.max_moves = max((r.moves for r in self.robots), default=0)
        terms = [r.terminated_round for r in self.robots if r.terminated_round is not None]
        self.metrics.last_termination_round = max(terms) if terms else None
        return self.metrics

    # ------------------------------------------------------------------
    # Wake machinery (the precomputed wake schedule)
    # ------------------------------------------------------------------
    def _wake_due(self) -> List[int]:
        """Apply due wake-ups; return the label-ordered active rid list.

        Driven by the wake-schedule heap plus the woken-early list instead
        of a per-robot scan: a round with nothing due returns the
        maintained ``_active`` list after two O(1) checks.
        """
        rnd = self.round
        heap = self._wake_heap
        woken = self._woken
        if not woken and (not heap or heap[0][0] > rnd):
            return self._active
        robots = self.robots
        due_from_heap = set()
        while heap and heap[0][0] <= rnd:
            _, rid = heapq.heappop(heap)
            r = robots[rid]
            status = r.status
            if (
                (status == SLEEPING or status == FOLLOWING)
                and r.wake_round is not None
                and r.wake_round <= rnd
            ):
                due_from_heap.add(rid)
        due = due_from_heap
        if woken:
            for rid in woken:
                status = robots[rid].status
                if status == SLEEPING or status == FOLLOWING:
                    due.add(rid)
            self._woken = []
        if not due:
            return self._active
        self._flush_ar()
        trace = self.trace
        active = self._active
        for rid in sorted(due):
            r = robots[rid]
            if r.status == SLEEPING:
                was_due = r.wake_round is not None and rnd >= r.wake_round
                if r.wake_on_meet:
                    self._meet_sleepers -= 1
                r.status = ACTIVE
                r.woken_early = False
                r.wake_round = None
                r.wake_on_meet = False
                if trace is not None:
                    trace.record(rnd, "wake", r.label, "due" if was_due else "meet")
                insort(active, rid)
            else:  # FOLLOWING: timer or leader-terminated ("wake" mode)
                self._unfollow(r)
                r.status = ACTIVE
                r.leader_label = None
                r.woken_early = False
                r.wake_round = None
                insort(active, rid)
        return active

    def _next_wake_round(self) -> Optional[int]:
        """Earliest scheduled wake round, from the wake-schedule heap."""
        heap = self._wake_heap
        robots = self.robots
        while heap:
            wr, rid = heap[0]
            r = robots[rid]
            if (r.status == SLEEPING or r.status == FOLLOWING) and r.wake_round == wr:
                return wr
            heapq.heappop(heap)  # stale entry (woken early / re-slept)
        return None

    # ------------------------------------------------------------------
    def _step(self) -> None:
        active_rids = self._wake_due()

        if not active_rids:
            nxt = self._next_wake_round()
            if nxt is None:
                statuses = ", ".join(
                    f"{r.label}:{rb.STATUS_NAMES[r.status]}" for r in self.robots
                )
                raise SimulationDeadlock(
                    f"round {self.round}: no robot can ever act again ({statuses})"
                )
            if self.trace is not None:
                self.trace.record(self.round, "jump", None, nxt)
            self.round = max(self.round + 1, nxt)
            return
        self._step_soa(active_rids)

    # ------------------------------------------------------------------
    # The round loop
    # ------------------------------------------------------------------
    def _step_soa(self, active: List[int]) -> None:
        rnd = self.round
        activation = self.activation
        if activation is None:
            self._ar_pending += 1
        else:
            # Weaker-than-synchronous models act here; robots not selected
            # stay awake and unobserved until a later round.  A model that
            # selects nobody while robots are due would stall the run
            # forever, so that contract violation is rejected loudly.
            robots = self.robots
            selected = activation.select([robots[i] for i in active], rnd)
            if not selected:
                raise ProtocolViolation(
                    f"activation model {activation.describe()!r} selected "
                    f"no robot at round {rnd} with {len(active)} due"
                )
            active = [r.rid for r in selected]
            ar = self._ar
            for rid in active:
                ar[rid] += 1
        csr = self._csr
        row = csr.row_offsets
        nbr = csr.neighbor
        ent = csr.entry_port
        deg = csr.degree
        pos = self._pos
        entry = self._entry
        mvs = self._moves
        own = self._own
        sends = self._sends
        obs_l = self._obs
        nrob = self._nrob

        # --- start-of-round co-location snapshot ----------------------
        # ``shared`` maps each node holding more than one group to the card
        # tuple of every robot on it; every other robot observes its group
        # card tuple (groups.gown is _own without groups).  Occupancy is
        # counted in units (groups; a robot without riders is one), not
        # robots.  occupied == units: every node holds one group, nothing
        # is shared.  occupied == k - 1 (only possible without groups):
        # exactly one node holds exactly two robots; extract it in closed
        # form from the previous round's position set (no per-node
        # bookkeeping).  Otherwise build the map with one O(k log k) sweep.
        groups = self._groups
        if groups.dirty:
            self._regroup(pos)
        occupied = self._occupied
        cards_of = groups.gown
        if occupied == groups.units:
            shared = _NOTHING_SHARED
        elif occupied == nrob - 1:
            dup = sum(pos) - sum(self._posset)
            i1 = pos.index(dup)
            i2 = pos.index(dup, i1 + 1)
            shared = {dup: (own[i1][0], own[i2][0])}
        else:
            # find the k - occupied duplicated slots from a C-sorted copy, then
            # recover each shared node's label-ordered rids with C index
            # scans — O(k log k) in C plus O(shared) in Python, instead of
            # a per-robot Python dict build
            sp = sorted(pos)
            shared = {}
            remaining = nrob - occupied
            t = 0
            last = nrob - 1
            while remaining:
                if sp[t] == sp[t + 1]:
                    node = sp[t]
                    rids = [pos.index(node)]
                    while t < last and sp[t + 1] == node:
                        rids.append(pos.index(node, rids[-1] + 1))
                        t += 1
                        remaining -= 1
                    shared[node] = tuple(own[j][0] for j in rids)
                t += 1

        # Meet-sleepers, the trace and the generic follow resolver need
        # this round's movers.  Without them the inline sweep records
        # none, and a cold action that starts needing them reconstructs
        # them from the pre-round positions (see _soa_reconstruct_movers).
        # Riders need no movers: a root whose position changed has moved.
        prev_pos = pos[:]
        trace = self.trace
        track = trace is not None or self._meet_sleepers > 0 or groups.generic
        movers_i: List[int] = []
        movers_p: List[int] = []
        terminators: List[int] = []
        followers_once: List[int] = []
        # rids leaving the active set this round (sleep/follow); removal is
        # deferred because the loop iterates self._active itself
        deactivated: List[int] = []

        for i in active:
            node = pos[i]
            ob = obs_l[i]
            ob.round = rnd
            ob.degree = dg = deg[node]
            ob.entry_port = entry[i]
            ob.cards = shared[node] if node in shared else cards_of[i]
            try:
                a = sends[i](ob)
            except StopIteration:
                raise ProtocolViolation(
                    f"robot {self._labels[i]}: program returned without terminating"
                ) from None
            try:
                kind = a.hot_kind
            except AttributeError:
                if a is None:
                    raise ProtocolViolation(
                        f"robot {self._labels[i]}: yielded None instead of an Action"
                    ) from None
                raise
            if kind == MOVE:
                p = a.port
                try:
                    ok = 0 <= p < dg
                except TypeError:  # port is None
                    ok = False
                if not ok:
                    raise ProtocolViolation(
                        f"robot {self._labels[i]}: invalid port {p} on a degree-"
                        f"{dg} node"
                    )
                j = row[node] + p
                pos[i] = nbr[j]
                entry[i] = ent[j]
                mvs[i] += 1
                if track:
                    movers_i.append(i)
                    movers_p.append(p)
            elif kind != STAY:
                track = self._soa_cold(
                    i, a, rnd, track,
                    movers_i, movers_p, terminators, followers_once,
                    deactivated, prev_pos,
                )

        if deactivated:
            for rid in deactivated:
                self._active.remove(rid)

        # movers' trace events precede their followers' (seed order)
        if trace is not None:
            labels = self._labels
            for i, p in zip(movers_i, movers_p):
                trace.record(rnd, "move", labels[i], (p, entry[i]))

        # --- resolve follows -------------------------------------------
        # Riders follow their moved roots.  Groups are rebuilt against the
        # round-start positions when this round's sweep changed them (an
        # attach, a root's card).  Anything groups cannot express goes to
        # the generic resolver; an attach turned mover tracking on, so it
        # has the movers it reads.
        if followers_once:
            self._soa_resolve_follows(movers_i, movers_p, followers_once)
        elif groups.dirty or groups.riders:
            if groups.dirty:
                self._regroup(prev_pos)
            if groups.generic:
                self._soa_resolve_follows(movers_i, movers_p, followers_once)
            elif trace is not None:
                self._ride_traced(prev_pos, movers_i, movers_p)
            else:
                # a root whose position changed has moved (no self-loops)
                for root, fs in groups.riders.items():
                    node = pos[root]
                    if node != prev_pos[root]:
                        e = entry[root]
                        for f in fs:
                            pos[f] = node
                            entry[f] = e
                            mvs[f] += 1

        # --- commit occupancy ------------------------------------------
        ps = set(pos)
        self._posset = ps
        self._occupied = len(ps)

        # --- wake meet-sleepers on arrivals ----------------------------
        if self._meet_sleepers and movers_i:
            arrivals = {pos[j] for j in movers_i}
            woken = self._woken
            for rid, r in enumerate(self.robots):
                if r.status == SLEEPING and r.wake_on_meet and pos[rid] in arrivals:
                    r.woken_early = True
                    woken.append(rid)

        # --- terminations + cascade ------------------------------------
        if terminators:
            self._flush_ar()
            for rid in terminators:
                self._terminate(self.robots[rid])
            self._cascade_terminations()

        # --- bookkeeping ------------------------------------------------
        metrics = self.metrics
        if metrics.first_gather_round is None and self._occupied == 1:
            metrics.first_gather_round = rnd
        if self.replay is not None:
            self.replay.snapshot(rnd, self.positions())
        metrics.rounds_executed += 1
        self.round = rnd + 1

    # -- follow groups ----------------------------------------------------
    def _regroup(self, ref: List[int]) -> None:
        """Rebuild the follow-group state from the leader chains.

        A persistent follower is a *rider* of its *root* — the first
        non-``FOLLOWING`` robot up its leader chain — when ``ref`` (the
        round-start positions) puts the two on one node; under
        ``strict=True`` every persistent follower is one.  A root that
        moves carries its riders along (the end of :meth:`_step_soa`), so
        the state stays valid until a follow attach, an unfollow, or a card
        published by a root with riders marks it dirty.  If some follower
        is not a rider (a follow cycle, or a non-co-located follower),
        groups are off: rounds use :meth:`_soa_resolve_follows` and the
        state stays dirty, so every round re-checks.
        """
        groups = self._groups
        groups.dirty = groups.generic = False
        riders: Dict[int, List[int]] = {}
        nrob = self._nrob
        followers_of = self._followers_of
        if followers_of:
            robots = self.robots
            by_label = self.by_label
            for fid in sorted(f.rid for fs in followers_of.values() for f in fs):
                root = robots[fid]
                hops = 0
                while root.status == FOLLOWING and hops < nrob:
                    root = by_label[root.leader_label]
                    hops += 1
                if root.status == FOLLOWING or ref[root.rid] != ref[fid]:
                    riders = {}
                    groups.generic = groups.dirty = True
                    break
                riders.setdefault(root.rid, []).append(fid)
        groups.riders = riders
        own = self._own
        if not riders:
            groups.gown = own
            groups.units = nrob
            return
        gown = own[:]
        n_riders = 0
        for root, fs in riders.items():
            n_riders += len(fs)
            members = fs[:]
            insort(members, root)
            gown[root] = tuple(own[j][0] for j in members)
        groups.gown = gown
        groups.units = nrob - n_riders

    def _ride_traced(
        self, prev_pos: List[int], movers_i: List[int], movers_p: List[int]
    ) -> None:
        """The round loop's rider step, with ``move`` trace events.

        Every root whose position changed carries its riders: same node,
        same entry port.  Each rider's event takes its root's port and
        follows the movers' events in rid order — the seed scheduler's
        order.
        """
        pos = self._pos
        entry = self._entry
        mvs = self._moves
        trace = self.trace
        port_of = dict(zip(movers_i, movers_p))
        rode: List[Tuple[int, int]] = []
        for root, fs in self._groups.riders.items():
            node = pos[root]
            if node != prev_pos[root]:
                e = entry[root]
                p = port_of[root]
                for f in fs:
                    pos[f] = node
                    entry[f] = e
                    mvs[f] += 1
                    rode.append((f, p))
        rode.sort()
        rnd = self.round
        labels = self._labels
        for f, p in rode:
            trace.record(rnd, "move", labels[f], (p, entry[f]))

    # -- SoA cold paths -------------------------------------------------
    def _soa_publish(self, i: int, action: Action) -> None:
        """Card publication from the hot loop: facade + own-tuple update.

        Cards are "as of the start of the round" without any invalidation:
        the publisher's own observation already happened, any co-located
        robot's card tuple was snapshotted at round start, and next round
        rebuilds from the new ``own`` tuple.  A root with riders marks the
        groups dirty (its group tuple changed); any other publisher only
        refreshes its own group-card slot.
        """
        r = self.robots[i]
        self._apply_card(r, action)
        self._own[i] = own = (r.card,)
        groups = self._groups
        if i in groups.riders:
            groups.dirty = True
        else:
            groups.gown[i] = own

    def _soa_reconstruct_movers(
        self, prev_pos: List[int]
    ) -> Tuple[List[int], List[int]]:
        """Recover (rid, port) for every robot that has moved this round.

        Only called when a follow/meet-sleep action appears mid-sweep of an
        untracked round.  ``pos != prev_pos`` is exactly "moved" because the
        :class:`~repro.graphs.port_graph.PortGraph` constructor refuses
        self-loops, and (destination, entry port) identifies the edge
        uniquely, hence the departure port.
        """
        movers_i: List[int] = []
        movers_p: List[int] = []
        pos = self._pos
        entry = self._entry
        row = self._csr.row_offsets
        nbr = self._csr.neighbor
        ent = self._csr.entry_port
        for j in range(self._nrob):
            old = prev_pos[j]
            new = pos[j]
            if new != old:
                e = entry[j]
                base = row[old]
                for slot in range(base, row[old + 1]):
                    if nbr[slot] == new and ent[slot] == e:
                        movers_i.append(j)
                        movers_p.append(slot - base)
                        break
        return movers_i, movers_p

    def _soa_cold(
        self,
        i: int,
        action: Action,
        rnd: int,
        track: bool,
        movers_i: List[int],
        movers_p: List[int],
        terminators: List[int],
        followers_once: List[int],
        deactivated: List[int],
        prev_pos: List[int],
    ) -> bool:
        """Everything the hot loop's one-comparison dispatch does not cover:
        card/note-carrying moves and stays, sleeps, follows, terminates.

        Returns the (possibly enabled) mover-tracking flag: follow and
        meet-sleep actions need this round's movers, so on their first
        appearance the movers applied so far are reconstructed and tracking
        stays on for the rest of the sweep.  (A persistent follow needs
        them when the attach leaves a follower that cannot ride a root.)
        Note, sleep and follow trace events are recorded here, in sweep
        order.
        """
        r = self.robots[i]
        if action.card is not None:
            self._soa_publish(i, action)
        trace = self.trace
        if action.note and trace is not None:
            trace.record(rnd, "note", r.label, action.note)
        kind = action.kind
        if kind == MOVE:
            p = action.port
            pos = self._pos
            node = pos[i]
            deg = self._csr.degree
            try:
                ok = 0 <= p < deg[node]
            except TypeError:  # port is None
                ok = False
            if not ok:
                raise ProtocolViolation(
                    f"robot {r.label}: invalid port {p} on a degree-"
                    f"{deg[node]} node"
                )
            row = self._csr.row_offsets
            j = row[node] + p
            pos[i] = self._csr.neighbor[j]
            self._entry[i] = self._csr.entry_port[j]
            self._moves[i] += 1
            if track:
                movers_i.append(i)
                movers_p.append(p)
        elif kind == STAY:
            pass
        elif kind == SLEEP:
            if action.wake_round is not None and action.wake_round <= rnd:
                raise ProtocolViolation(
                    f"robot {r.label}: sleep until round {action.wake_round} "
                    f"is not in the future (now {rnd})"
                )
            if action.wake_round is None and not action.wake_on_meet:
                raise ProtocolViolation(f"robot {r.label}: unwakeable forever-sleep")
            self._flush_ar()
            r.status = SLEEPING
            r.wake_round = action.wake_round
            r.wake_on_meet = action.wake_on_meet
            deactivated.append(i)
            if action.wake_round is not None:
                heapq.heappush(self._wake_heap, (action.wake_round, i))
            if trace is not None:
                trace.record(rnd, "sleep", r.label, action.wake_round)
            if action.wake_on_meet:
                self._meet_sleepers += 1
                if not track:
                    mi, mp = self._soa_reconstruct_movers(prev_pos)
                    movers_i[:] = mi
                    movers_p[:] = mp
                    track = True
        elif kind == FOLLOW:
            self._soa_check_follow_target(i, action.target, prev_pos)
            self._flush_ar()
            r.status = FOLLOWING
            r.leader_label = action.target
            r.wake_round = action.wake_round
            r.on_leader_terminate = action.on_leader_terminate
            deactivated.append(i)
            if action.wake_round is not None:
                heapq.heappush(self._wake_heap, (action.wake_round, i))
            self._followers_of.setdefault(action.target, []).append(r)
            self._groups.dirty = True
            if trace is not None:
                trace.record(rnd, "follow", r.label, action.target)
            if not track:
                mi, mp = self._soa_reconstruct_movers(prev_pos)
                movers_i[:] = mi
                movers_p[:] = mp
                track = True
        elif kind == FOLLOW_ONCE:
            self._soa_check_follow_target(i, action.target, prev_pos)
            r.leader_label = action.target
            followers_once.append(i)
            if not track:
                mi, mp = self._soa_reconstruct_movers(prev_pos)
                movers_i[:] = mi
                movers_p[:] = mp
                track = True
        elif kind == TERMINATE:
            terminators.append(i)
        else:  # pragma: no cover - factory methods make this unreachable
            raise ProtocolViolation(f"robot {r.label}: unknown action kind {kind}")
        return track

    def _soa_check_follow_target(
        self, rid: int, target: Optional[int], prev_pos: List[int]
    ) -> None:
        # strict co-location is judged on start-of-round positions (moves
        # apply "at the end of the round"); inline application means the
        # leader may already sit on its new node, so compare pre-round state
        label = self._labels[rid]
        if target is None or target not in self.by_label:
            raise ProtocolViolation(f"robot {label}: follow target {target} unknown")
        if target == label:
            raise ProtocolViolation(f"robot {label}: cannot follow itself")
        if self.strict and prev_pos[self.by_label[target].rid] != prev_pos[rid]:
            raise ProtocolViolation(
                f"robot {label}: follow target {target} is not co-located"
            )

    def _soa_resolve_follows(
        self,
        movers_i: List[int],
        movers_p: List[int],
        followers_once: List[int],
    ) -> None:
        """Generic follow resolution + application.

        The round loop uses it only where follow groups do not apply:
        ``follow_once`` rounds, follow cycles and non-co-located followers.
        Iterative forward propagation from this round's movers over the
        reverse leader->followers index: a follower chain ending in a mover
        inherits its port; chains ending anywhere else (stay, sleep,
        terminate, cycle) stay put, so they never need visiting.  Follower
        moves apply after the (already-applied) movers, in label order —
        the reference scheduler's application order — each validated (and
        traced) as it applies: a non-co-located follower (possible in
        non-strict mode) can inherit a port its own node lacks, and raising
        mid-application leaves the same partially-applied state and error
        as the seed scheduler's ``graph.traverse``.
        """
        robots = self.robots
        followers_of = self._followers_of
        once_by_leader: Dict[int, List[int]] = {}
        for fid in followers_once:
            once_by_leader.setdefault(robots[fid].leader_label, []).append(fid)
        assigned: List[Tuple[int, int]] = []
        stack = [(robots[i].label, p) for i, p in zip(movers_i, movers_p)]
        while stack:
            label, port = stack.pop()
            fs = followers_of.get(label)
            if fs:
                for f in fs:
                    assigned.append((f.rid, port))
                    stack.append((f.label, port))
            fids = once_by_leader.get(label)
            if fids:
                for fid in fids:
                    assigned.append((fid, port))
                    stack.append((robots[fid].label, port))
        for fid in followers_once:
            robots[fid].leader_label = None
        if not assigned:
            return
        assigned.sort()  # rid order == label order
        pos = self._pos
        entry = self._entry
        mvs = self._moves
        row = self._csr.row_offsets
        nbr = self._csr.neighbor
        ent = self._csr.entry_port
        deg = self._csr.degree
        trace = self.trace
        for fid, port in assigned:
            node = pos[fid]
            if not 0 <= port < deg[node]:
                raise PortGraphError(
                    f"node {node} has degree {deg[node]}; port {port} is invalid"
                )
            slot = row[node] + port
            pos[fid] = nbr[slot]
            entry[fid] = ent[slot]
            mvs[fid] += 1
            movers_i.append(fid)
            movers_p.append(port)
            if trace is not None:
                trace.record(self.round, "move", robots[fid].label, (port, ent[slot]))

    # ------------------------------------------------------------------
    def _apply_card(self, r: RobotState, action: Action) -> None:
        if action.card is not None:
            card = dict(action.card)
            card["id"] = r.label  # the label is not forgeable
            r.card = card
            bits = card_bits(card)
            if bits > self.metrics.max_card_bits:
                self.metrics.max_card_bits = bits

    def _check_follow_target(self, r: RobotState, target: Optional[int]) -> None:
        if target is None or target not in self.by_label:
            raise ProtocolViolation(f"robot {r.label}: follow target {target} unknown")
        if target == r.label:
            raise ProtocolViolation(f"robot {r.label}: cannot follow itself")
        if self.strict and self.by_label[target].node != r.node:
            raise ProtocolViolation(
                f"robot {r.label}: follow target {target} is not co-located"
            )

    def _unfollow(self, r: RobotState) -> None:
        """Drop ``r`` from the reverse leader->followers index."""
        self._groups.dirty = True
        lst = self._followers_of.get(r.leader_label)
        if lst is not None:
            try:
                lst.remove(r)
            except ValueError:  # pragma: no cover - defensive
                pass
            if not lst:
                del self._followers_of[r.leader_label]

    def _terminate(self, r: RobotState) -> None:
        if r.status == TERMINATED:
            return
        if r.status == FOLLOWING:
            self._unfollow(r)
        elif r.status == ACTIVE:
            self._active.remove(r.rid)
        r.status = TERMINATED
        r.terminated_round = self.round
        self._alive -= 1
        # terminations run after the round commits _occupied, so the O(1)
        # counter answers "all gathered" without scanning robots
        if self._occupied != 1:
            self.metrics.terminations_all_gathered = False
        if self.trace is not None:
            self.trace.record(self.round, "terminate", r.label, None)
        try:
            r.gen.close()
        except RuntimeError:  # pragma: no cover - generator refusing to close
            pass

    def _cascade_terminations(self) -> None:
        """Followers whose (transitive) leader terminated react per their mode.

        Single pass over the reverse leader->followers index: every affected
        follower is visited exactly once.  Processing order replicates the
        reference scheduler's iterated label-order fixpoint — conceptually,
        "pass ``p``" contains followers whose enabling termination happened
        in pass ``p-1`` at a *larger* label (they would have been reached
        later in the same scan) join pass ``p-1`` instead — by ordering the
        queue on ``(pass, label)``.
        """
        followers_of = self._followers_of
        if not followers_of:
            return
        by_label = self.by_label
        heap: List[Tuple[int, int, RobotState]] = []
        # Seed with followers of every already-terminated leader (pass 1).
        for llabel, flist in list(followers_of.items()):
            if by_label[llabel].status == TERMINATED:
                for f in flist:
                    heap.append((1, f.label, f))
        heapq.heapify(heap)
        while heap:
            pss, flabel, f = heapq.heappop(heap)
            if f.status != FOLLOWING:  # pragma: no cover - defensive
                continue
            if f.on_leader_terminate == "terminate":
                self._terminate(f)
                flist = followers_of.get(flabel)
                if flist:
                    for g in flist:
                        gpass = pss if g.label > flabel else pss + 1
                        heapq.heappush(heap, (gpass, g.label, g))
            else:  # "wake"
                f.woken_early = True
                self._woken.append(f.rid)

