"""Tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert not args.paper

    def test_fig_cov_variant(self):
        args = build_parser().parse_args(["fig-cov", "--variant", "cpu"])
        assert args.variant == "cpu"

    def test_fig_error_options(self):
        args = build_parser().parse_args(
            ["fig-error", "--services", "48", "--include-caps"])
        assert args.services == 48
        assert args.include_caps

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestMainSmoke:
    """End-to-end CLI runs at tiny scale (hosts/instances overridden)."""

    def test_fig_cov_writes_outputs(self, tmp_path, capsys):
        rc = main([
            "--workers", "1", "--output", str(tmp_path),
            "fig-cov", "--services", "16", "--hosts", "8",
            "--instances", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Min-yield difference" in out
        files = os.listdir(tmp_path)
        assert any(f.endswith(".txt") for f in files)
        assert any(f.endswith(".csv") for f in files)

    def test_fig_error_runs(self, tmp_path, capsys):
        rc = main([
            "--workers", "1", "--output", str(tmp_path),
            "fig-error", "--services", "16", "--hosts", "8",
            "--instances", "1",
        ])
        assert rc == 0
        assert "Min actual yield" in capsys.readouterr().out

    def test_table2_runs(self, capsys):
        # Tiny custom instance count keeps the smoke run fast; quick grid
        # host/service sizes are already modest.
        rc = main(["--workers", "1", "table2", "--instances", "1"])
        assert rc == 0
        assert "Mean run time" in capsys.readouterr().out

    def test_dynamic_runs(self, capsys):
        rc = main(["--workers", "1", "dynamic", "--hosts", "6",
                   "--horizon", "8", "--periods", "2", "8"])
        assert rc == 0
        assert "Dynamic hosting" in capsys.readouterr().out

    def test_rank_strategies_runs(self, capsys):
        rc = main(["--workers", "1", "rank-strategies", "--services", "10",
                   "--hosts", "4", "--instances", "2", "--top", "5"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Top 5 of 253" in out
        assert "LIGHT members" in out

    def test_table1_heavy_tailed_workload(self, capsys):
        """A non-default workload flows through the same spec pipeline."""
        rc = main(["--workers", "1",
                   "--workload", "heavy-tailed:cpu_tail_index=1.4",
                   "table1", "--instances", "1",
                   "--algorithms", "METAGREEDY"])
        assert rc == 0
        assert "services" in capsys.readouterr().out

    def test_fig_cov_trace_workload(self, tmp_path, capsys):
        from repro.workloads import GoogleWorkloadModel, dump_trace
        trace = str(tmp_path / "services.csv")
        dump_trace(GoogleWorkloadModel().generate_services(40, rng=3), trace)
        rc = main(["--workers", "1", "--workload", f"trace:path={trace}",
                   "fig-cov", "--services", "16", "--hosts", "8",
                   "--instances", "1"])
        assert rc == 0
        assert "Min-yield difference" in capsys.readouterr().out

    def test_unknown_workload_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["--workload", "bogus", "table1"])
        assert "unknown workload" in capsys.readouterr().err


def test_python_dash_m_repro_help():
    """``python -m repro`` runs the CLI, like the ``repro`` script."""
    import subprocess
    import sys

    root = os.path.join(os.path.dirname(__file__), "..", "..")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    proc = subprocess.run([sys.executable, "-m", "repro", "--help"],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout
