"""Tests for universal exploration sequences (construction + verification)."""

import pathlib

import pytest

from repro.graphs import generators as gg
from repro.graphs.enumeration import all_port_graphs
from repro.graphs.port_graph import PortGraph
from repro.uxs import table
from repro.uxs.generators import (
    certification_battery,
    certify_plan,
    exhaustive_plan,
    practical_plan,
    splitmix_offsets,
    tabled_length,
)
from repro.uxs.sequence import UxsPlan, exploration_walk, next_port
from repro.uxs.verify import (
    cover_step,
    covers,
    covers_all_starts,
    max_cover_step_all_starts,
)


class TestStepRule:
    def test_next_port_wraps(self):
        assert next_port(1, 3, 2) == 0
        assert next_port(0, 0, 5) == 0
        assert next_port(2, 2, 3) == 1

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            next_port(0, 0, 0)

    def test_walk_length(self):
        g = gg.ring(6)
        visited = exploration_walk(g, (1, 1, 1), 0)
        assert len(visited) == 4
        assert visited[0] == 0

    def test_walk_deterministic(self):
        g = gg.erdos_renyi(8, seed=1)
        offsets = splitmix_offsets(8, 50)
        assert exploration_walk(g, offsets, 3) == exploration_walk(g, offsets, 3)


class TestSplitmix:
    def test_deterministic_in_n(self):
        assert splitmix_offsets(10, 100) == splitmix_offsets(10, 100)

    def test_different_n_different_streams(self):
        assert splitmix_offsets(10, 100) != splitmix_offsets(11, 100)

    def test_streams_differ(self):
        assert splitmix_offsets(10, 100, stream=0) != splitmix_offsets(10, 100, stream=1)

    def test_prefix_stability(self):
        # a longer request extends the same stream
        assert splitmix_offsets(9, 200)[:50] == splitmix_offsets(9, 50)

    def test_range(self):
        assert all(0 <= s < 12 for s in splitmix_offsets(12, 500))


def _scalar_splitmix_offsets(n, length, stream=0):
    """The scalar splitmix64 loop ``splitmix_offsets`` once was: the oracle
    its vectorized form must match bit for bit."""
    mask = 0xFFFFFFFFFFFFFFFF
    out = []
    state = (0xA076_1D64_78BD_642F ^ (n * 0x9E37_79B9)) ^ (stream * 0xC2B2_AE35)
    for _ in range(length):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        z = z ^ (z >> 31)
        out.append(z % max(n, 2))
    return tuple(out)


class TestSplitmixBitExact:
    @pytest.mark.parametrize("stream", [0, 1, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 64, 255, 256, 1000])
    def test_matches_scalar_oracle(self, n, stream):
        for length in (0, 1, 5, 4096):
            fast = splitmix_offsets(n, length, stream=stream)
            assert fast == _scalar_splitmix_offsets(n, length, stream)
            assert all(type(s) is int for s in fast)

    @pytest.mark.parametrize("n, T", [(2, 1), (3, 3), (4, 27)])
    def test_exhaustive_plan_offsets_unchanged(self, n, T):
        plan = exhaustive_plan(n)
        assert plan.T == T
        assert plan.offsets == _scalar_splitmix_offsets(n, T, stream=7)


class TestCertifiedTable:
    """The committed table must be exactly what ``certify_plan`` computes;
    ``python -m repro.uxs.table --check`` re-certifies every entry."""

    @pytest.mark.parametrize("n", range(1, 33))
    def test_table_backed_plan_equals_live_certification(self, n):
        live = certify_plan(n)
        plan = practical_plan(n)
        assert tabled_length(n) == live.T
        assert plan.T == live.T
        assert plan.offsets == live.offsets
        assert plan.provenance == live.provenance == "practical"

    def test_table_covers_every_n_up_to_128(self):
        assert sorted(table.CERTIFIED_T) == list(range(1, table.TABLE_MAX_N + 1))

    def test_committed_source_is_what_the_regenerator_writes(self):
        source = pathlib.Path(table.__file__).read_text()
        regenerated = table._BLOCK.sub(
            lambda m: m.group(1) + table.render(table.CERTIFIED_T) + m.group(3), source
        )
        assert regenerated == source

    def test_untabled_arguments_certify_live(self):
        assert tabled_length(8, safety=3) is None
        assert tabled_length(8, stream=1) is None
        assert tabled_length(table.TABLE_MAX_N + 1) is None
        plan = practical_plan(8, safety=3)
        assert plan.offsets == certify_plan(8, safety=3).offsets
        assert plan.T != practical_plan(8).T

    def test_check_passes_on_the_committed_table(self, capsys):
        assert table.main(["--check", "--max-n", "6"]) == 0
        assert "checked 6 tabled n: 0 mismatch(es)" in capsys.readouterr().out

    def test_check_fails_on_a_drifted_entry(self, monkeypatch, capsys):
        monkeypatch.setitem(table.CERTIFIED_T, 5, table.CERTIFIED_T[5] + 1)
        assert table.main(["--check", "--max-n", "6"]) == 1
        assert "n=5: table says" in capsys.readouterr().out


class TestVerify:
    def test_cover_step_ring(self):
        g = gg.ring(5)
        # always turn "advance by 1 from entry": entry+1 mod 2 alternates...
        # use a known covering sequence: all 1s walks around the ring
        visited = exploration_walk(g, (1,) * 10, 0)
        assert set(visited) == set(range(5))
        step = cover_step(g, (1,) * 10, 0)
        assert step is not None and step <= 10

    def test_cover_step_none_when_too_short(self):
        g = gg.ring(8)
        assert cover_step(g, (1,), 0) is None

    def test_single_node_graph(self):
        g = PortGraph(1, [])
        assert cover_step(g, (), 0) == 0
        assert covers(g, (), 0)

    def test_covers_all_starts_consistency(self):
        g = gg.erdos_renyi(7, seed=5)
        plan = practical_plan(7)
        assert covers_all_starts(g, plan.offsets)
        worst = max_cover_step_all_starts(g, plan.offsets)
        assert worst is not None and worst <= plan.T

    def test_max_cover_none_on_failure(self):
        g = gg.ring(9)
        assert max_cover_step_all_starts(g, (0, 0)) is None


class TestPracticalPlan:
    def test_plan_is_cached_and_deterministic(self):
        a = practical_plan(8)
        b = practical_plan(8)
        assert a is b  # lru_cache
        assert a.provenance == "practical"
        assert a.n == 8

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16])
    def test_plan_covers_battery(self, n):
        plan = practical_plan(n)
        for g in certification_battery(n):
            assert covers_all_starts(g, plan.offsets), f"battery graph {g} uncovered"

    def test_plan_covers_unseen_family_instances(self):
        """The point of certification: graphs outside the battery (same n)
        should be covered too; the harness still double-checks per run."""
        plan = practical_plan(10)
        for g in [
            gg.grid(2, 5),
            gg.star(10),
            gg.caterpillar(10),
            gg.cycle_with_chords(10),
            gg.random_tree(10, seed=77),
            gg.erdos_renyi(10, seed=123, numbering="random"),
        ]:
            assert covers_all_starts(g, plan.offsets)

    def test_n1_plan_empty(self):
        assert practical_plan(1).T == 0

    def test_trim_keeps_worst_cover(self):
        plan = practical_plan(9)
        worst = 0
        for g in certification_battery(9):
            s = max_cover_step_all_starts(g, plan.offsets)
            assert s is not None
            worst = max(worst, s)
        assert worst <= plan.T

    def test_length_grows_reasonably(self):
        # sanity: T should be at most the initial doubling length
        import math

        for n in (6, 10, 14):
            plan = practical_plan(n)
            assert plan.T <= 8 * n * n * max(1, math.ceil(math.log2(n)))


class TestExhaustivePlan:
    @pytest.mark.parametrize("n", [2, 3])
    def test_truly_universal_tiny(self, n):
        plan = exhaustive_plan(n)
        for size in range(2, n + 1):
            for g in all_port_graphs(size):
                assert covers_all_starts(g, plan.offsets)

    @pytest.mark.slow
    def test_truly_universal_n4(self):
        plan = exhaustive_plan(4)
        for size in range(2, 5):
            for g in all_port_graphs(size):
                assert covers_all_starts(g, plan.offsets)

    def test_guard(self):
        with pytest.raises(ValueError):
            exhaustive_plan(5)

    def test_plan_metadata(self):
        plan = exhaustive_plan(3)
        assert plan.provenance == "exhaustive"
        assert len(plan) == plan.T


class TestUxsPlanType:
    def test_frozen(self):
        plan = UxsPlan(3, (1, 2, 3))
        with pytest.raises(AttributeError):
            plan.n = 4  # type: ignore[misc]

    def test_t_property(self):
        assert UxsPlan(3, (1, 2)).T == 2
