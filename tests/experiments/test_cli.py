"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.experiments import figures


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_list_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_sweep_options(self):
        args = build_parser().parse_args(["sweep", "--pes", "2,4", "--dynamic"])
        assert args.pes == "2,4"
        assert args.dynamic


class TestCommands:
    def test_list_prints_every_figure(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for figure in figures.FIGURES:
            assert figure.id in out

    def test_unknown_figure_fails(self, capsys):
        assert main(["figure", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_sec44_runs(self, capsys):
        assert main(["figure", "sec44"]) == 0
        out = capsys.readouterr().out
        assert "rerouted" in out
        assert "gain" in out

    def test_failing_claim_exits_1(self, capsys, monkeypatch):
        stub = figures.Figure(
            "stub_fig", "Fig. 0", "stub", "a claim that fails",
            run=lambda smoke, obs: {"value": 1.0},
            render=lambda m: f"value {m['value']}",
            claims=(
                figures.Claim("value is positive", lambda m: m["value"] > 0),
                figures.Claim("value exceeds 2", lambda m: m["value"] > 2),
            ),
        )
        monkeypatch.setattr(figures, "FIGURES", (stub,))
        assert main(["figure", "stub_fig"]) == 1
        out = capsys.readouterr().out
        assert "PASS stub_fig: value is positive" in out
        assert "FAIL stub_fig: value exceeds 2" in out

    @pytest.mark.slow
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "allocation weights over time" in out
