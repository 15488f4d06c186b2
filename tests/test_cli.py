"""Tests for the command-line interface."""

import pytest

from repro.cli import main


class TestInformational:
    def test_families(self, capsys):
        assert main(["families"]) == 0
        out = capsys.readouterr().out
        assert "ring" in out and "lollipop" in out

    def test_bounds(self, capsys):
        assert main(["bounds", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "R1(n)" in out and "Faster-Gathering E6" in out

    def test_bounds_with_delta(self, capsys):
        assert main(["bounds", "--n", "10", "--max-degree", "3"]) == 0
        assert "Δ=3" in capsys.readouterr().out

    def test_plan(self, capsys):
        assert main(["plan", "--n", "8"]) == 0
        out = capsys.readouterr().out
        assert "length T" in out and "certified" in out
        assert "source = certified table" in out

    def test_plan_reports_live_certification_outside_the_table(self, capsys, monkeypatch):
        from repro.uxs import table

        monkeypatch.delitem(table.CERTIFIED_T, 8)
        assert main(["plan", "--n", "8"]) == 0
        assert "source = live certification" in capsys.readouterr().out


class TestRun:
    def test_run_faster_default(self, capsys):
        rc = main(["run", "--family", "ring", "--n", "10", "--k", "6",
                   "--placement", "scatter"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "gathered" in out and "regime" in out

    def test_run_undispersed(self, capsys):
        rc = main(["run", "--family", "erdos_renyi", "--n", "9", "--k", "3",
                   "--algorithm", "undispersed", "--placement", "undispersed"])
        assert rc == 0

    def test_run_undispersed_defaults_to_undispersed_placement(self, capsys):
        """Theorem 8 assumes an undispersed start; without --placement the
        run must not silently start dispersed and report no gathering."""
        rc = main(["run", "--algorithm", "undispersed", "--family", "ring",
                   "--n", "16", "--k", "4"])
        assert rc == 0
        row = next(l for l in capsys.readouterr().out.splitlines()
                   if l.startswith("undispersed |"))
        cells = [c.strip() for c in row.split("|")]
        assert cells[7:9] == ["yes", "yes"]  # gathered, detected

    def test_run_tz_reports_first_gather(self, capsys):
        rc = main(["run", "--family", "ring", "--n", "8", "--k", "2",
                   "--algorithm", "tz"])
        assert rc == 0
        assert "no detection" in capsys.readouterr().out

    def test_run_with_knowledge(self, capsys):
        rc = main(["run", "--family", "ring", "--n", "10", "--k", "2",
                   "--placement", "pair-distance", "--pair-distance", "2",
                   "--max-degree", "2", "--hop-distance", "2"])
        assert rc == 0

    def test_pair_distance_requires_value(self):
        with pytest.raises(SystemExit):
            main(["run", "--placement", "pair-distance"])


class TestSweep:
    def test_sweep_prints_slope(self, capsys):
        rc = main(["sweep", "--family", "ring", "--algorithm", "undispersed",
                   "--placement", "undispersed", "--k", "3",
                   "--ns", "8", "12"])
        assert rc == 0
        assert "log-log slope" in capsys.readouterr().out


class TestReplicaFlags:
    def test_sweep_replicas_aggregates_rows(self, capsys):
        rc = main(["sweep", "--ns", "8", "12", "--replicas", "3",
                   "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "rounds_mean" in out and "× 3 replicas" in out
        assert "log-log slope" in out

    def test_sweep_batch_routes_through_engine(self, capsys):
        rc = main(["sweep", "--ns", "8", "--replicas", "3",
                   "--engine", "batch-numpy", "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        # replicas 1.. group and batch; replica 0 keeps its pinned seeds
        assert "(2 batched)" in out and "engine=batch-numpy" in out

    def test_sweep_batched_rows_equal_scalar_rows(self, capsys):
        argv = ["sweep", "--ns", "8", "12", "--replicas", "3"]
        assert main(argv) == 0
        scalar_out = capsys.readouterr().out.splitlines()
        assert main(argv + ["--engine", "batch-numpy"]) == 0
        batched_out = capsys.readouterr().out.splitlines()
        # the table is identical; only the (optional) runtime line differs
        table = [l for l in scalar_out if "|" in l or "slope" in l]
        table_b = [l for l in batched_out if "|" in l or "slope" in l]
        assert table == table_b

    def test_scenarios_run_replicas(self, capsys):
        rc = main(["scenarios", "run", "clean-sync", "--replicas", "2",
                   "--engine", "batch-numpy", "--workers", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replica" in out  # the per-row replica column appears

    def test_sweep_scenario_honors_replica_flags(self, capsys):
        rc = main(["sweep", "--scenario", "clean-sync", "--replicas", "2",
                   "--engine", "batch-numpy"])
        assert rc == 0
        assert "replica" in capsys.readouterr().out

    def test_sweep_scenario_still_rejects_shape_flags(self):
        with pytest.raises(SystemExit, match="ignored"):
            main(["sweep", "--scenario", "clean-sync", "--k", "5"])


class TestEngineFlag:
    def test_sweep_scalar_engines_match_default(self, capsys):
        def table(lines):
            return [l for l in lines if "|" in l or "slope" in l]

        argv = ["sweep", "--ns", "8", "12", "--workers", "1"]
        assert main(argv) == 0
        default_table = table(capsys.readouterr().out.splitlines())
        for name in ("reference", "soa"):
            assert main(argv + ["--engine", name]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert table(lines) == default_table, name
            assert any(f"engine={name}" in l for l in lines), name

    def test_unknown_engine_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--ns", "8", "--engine", "warp-drive"])

    def test_retired_batch_flag_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit):
            main(["sweep", "--ns", "8", "--batch"])

    def test_scenarios_run_engine_flag(self, capsys):
        rc = main(["scenarios", "run", "clean-sync", "--replicas", "2",
                   "--engine", "batch-list", "--workers", "1"])
        assert rc == 0
        assert "replica" in capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--algorithm", "bogus"])
