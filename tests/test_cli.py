"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scale_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--scale", "huge", "demo"])

    def test_defaults(self):
        args = build_parser().parse_args(["demo"])
        assert args.scale == "small"
        assert args.runs == 3

    def test_dynamic_options(self):
        args = build_parser().parse_args(
            ["dynamic", "--epochs", "3", "--drift-every", "1"]
        )
        assert args.epochs == 3
        assert args.drift_every == 1


class TestCommands:
    def test_demo(self, capsys):
        rc = main(["--scale", "tiny", "--requests", "100", "demo"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "proposed" in out and "remote" in out

    def test_table1(self, capsys):
        rc = main(["--scale", "tiny", "table1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Table 1" in out

    def test_fig1(self, capsys):
        rc = main(
            ["--scale", "tiny", "--runs", "1", "--requests", "100", "fig1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 1" in out

    def test_fig1_streams_full_storage_is_baseline(self, capsys):
        """Every capacity point keeps the k=3 topology, so the 100%
        storage tick is the unconstrained k=3 baseline itself."""
        rc = main(["--scale", "tiny", "--runs", "1", "--streams", "3", "fig1"])
        out = capsys.readouterr().out
        assert rc == 0
        row = next(ln for ln in out.splitlines() if ln.startswith("| 100%"))
        assert row.split("|")[2].strip() == "+0.0%"

    def test_fig1_shards_reach_the_sweep(self, capsys, tmp_path):
        """``--shards`` is the one sharding switch: the sweep's policy
        solves run on exactly that many shards."""
        target = tmp_path / "m.json"
        rc = main(
            [
                "--shards",
                "1",
                "--scale",
                "tiny",
                "--runs",
                "1",
                "--metrics-out",
                str(target),
                "fig1",
            ]
        )
        assert rc == 0
        capsys.readouterr()
        doc = json.loads(target.read_text())
        assert doc["run"]["shards"] == 1
        assert doc["gauges"]["shard.count"] == 1.0

    def test_fig2(self, capsys):
        rc = main(
            ["--scale", "tiny", "--runs", "1", "--requests", "100", "fig2"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 2" in out

    def test_fig3(self, capsys):
        rc = main(
            ["--scale", "tiny", "--runs", "1", "--requests", "100", "fig3"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Figure 3" in out

    def test_claims(self, capsys):
        rc = main(
            ["--scale", "tiny", "--runs", "1", "--requests", "100", "claims"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "headline claims" in out

    def test_dynamic(self, capsys):
        rc = main(["--scale", "tiny", "dynamic", "--epochs", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Extension E1" in out


    def test_analyze(self, capsys):
        rc = main(["--scale", "tiny", "analyze"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Allocation summary" in out

    def test_linkspeed(self, capsys):
        rc = main(
            ["--scale", "tiny", "--runs", "1", "--requests", "80", "linkspeed"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Extension E2" in out

    def test_ksweep(self, capsys):
        rc = main(
            [
                "--scale",
                "tiny",
                "--runs",
                "1",
                "--requests",
                "80",
                "ksweep",
                "--max-streams",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "Extension E4" in out

    def test_streams_flag_runs_mesh_analyze(self, capsys):
        rc = main(["--scale", "tiny", "--streams", "3", "analyze"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Allocation summary" in out

    def test_streams_flag_rejects_bad_values(self, capsys):
        with pytest.raises(SystemExit):
            main(["--scale", "tiny", "--streams", "0", "analyze"])
        assert "--streams" in capsys.readouterr().err

    def test_streams_flag_rejects_sharded_kernel(self, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "--scale",
                    "tiny",
                    "--streams",
                    "3",
                    "--shards",
                    "2",
                    "analyze",
                ]
            )
        assert "sharded" in capsys.readouterr().err
