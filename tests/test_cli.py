"""Tests for the ``python -m repro`` command-line interface."""

import pytest

from repro.cli import STRATEGIES, build_parser, main


class TestParser:
    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.matrix == "poisson2d"
        assert args.nprocs == 8
        assert args.solver == "cg"

    def test_invalid_strategy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--strategy", "magic"])


class TestInfoAndStrategies:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "SCCS-703" in out
        assert "t_startup" in out

    def test_strategies_lists_all(self, capsys):
        assert main(["strategies"]) == 0
        out = capsys.readouterr().out
        for name in STRATEGIES:
            assert name in out


class TestSolve:
    @pytest.mark.parametrize("solver", ["cg", "pcg", "bicgstab", "gmres"])
    def test_solvers_run(self, solver, capsys):
        rc = main([
            "solve", "--matrix", "poisson2d", "--n", "64", "--nprocs", "4",
            "--solver", solver, "--rtol", "1e-6",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged : True" in out
        assert "comm" in out

    def test_every_matrix_family(self, capsys):
        for family in ("poisson1d", "truss", "circuit", "nas_cg", "powerlaw"):
            rc = main([
                "solve", "--matrix", family, "--n", "48", "--nprocs", "4",
                "--rtol", "1e-6",
            ])
            assert rc == 0, family
            assert "converged : True" in capsys.readouterr().out

    def test_topology_option(self, capsys):
        rc = main([
            "solve", "--n", "36", "--nprocs", "3", "--topology", "ring",
            "--rtol", "1e-6",
        ])
        assert rc == 0
        assert "3 procs, ring" in capsys.readouterr().out

    def test_nonconvergence_exit_code(self, capsys):
        rc = main([
            "solve", "--n", "100", "--nprocs", "4", "--rtol", "1e-14",
            "--maxiter", "2",
        ])
        assert rc == 1
        assert "converged : False" in capsys.readouterr().out


class TestGantt:
    def test_gantt_output_shape(self, capsys):
        rc = main([
            "gantt", "--n", "64", "--nprocs", "4",
            "--strategy", "csc_serial", "--width", "30",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        lines = [l for l in out.splitlines() if l.startswith("rank")]
        assert len(lines) == 4
        assert all(len(l.split("|")[1]) == 30 for l in lines)
        assert "utilization" in out


class TestModuleEntryPoint:
    def test_python_dash_m_repro(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "info"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "SCCS-703" in proc.stdout


class TestSolveKnobs:
    """One flag check covers both scenarios of ``repro solve``."""

    @pytest.mark.parametrize("argv", [
        ["--scenario", "stencil27", "--policy", "rebalance",
         "--timeout", "0.001"],
        ["--scenario", "stencil27", "--timeout", "5"],
        ["--scenario", "stencil27", "--straggler-deadline", "1.0"],
        ["--scenario", "stencil27", "--heartbeat-interval", "0.1"],
        ["--scenario", "stencil27", "--policy", "shrink"],
        ["--timeout", "5"],
    ])
    def test_process_knobs_rejected_on_the_simulator(self, argv, capsys):
        assert main(["solve", "--shape", "4", "-p", "2", *argv]) == 2
        assert "need --backend process" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["solve", "--backend", "process"],
        ["submit", "--backend", "simulated"],
    ])
    def test_stencil27_refuses_rebalance_alike(self, command, capsys):
        argv = [*command, "--scenario", "stencil27", "--shape", "4",
                "-p", "2", "--policy", "rebalance"]
        assert main(argv) == 2
        assert ("error: stencil27 jobs support --policy respawn|shrink"
                in capsys.readouterr().err)

    def test_stencil27_process_honours_recovery_knobs(self, capsys):
        from repro.backend import process_backend_support

        ok, detail = process_backend_support()
        if not ok:
            pytest.skip(f"process backend unavailable: {detail}")
        rc = main([
            "solve", "--scenario", "stencil27", "--backend", "process",
            "--shape", "6", "-p", "2", "--precond", "jacobi",
            "--policy", "shrink", "--straggler-deadline", "5",
            "--heartbeat-interval", "0.1", "--timeout", "60",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged : True" in out
        assert "recovery  : policy=shrink attempts=1 final ranks=2" in out
