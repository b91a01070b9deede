"""Command line surface: subcommands, env seed override, exit codes."""

import csv
import io
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from beamsim import cli
from beamsim.cli import main
from beamsim.configio import CSV_COLUMNS

GOOD = """
[experiment]
name = cli_demo
k = 2
m = 2
rho_db = 20.0
trials = 4
master_seed = 3

[channel]
kind = rayleigh
n_t = 8
n_r = 8

[scheme]
kind = svd_phase
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(GOOD)
    return path


def cli_env():
    """The environment of a ``python -m beamsim.cli`` process that imports
    the beamsim under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def read_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestRun:
    def test_stdout_csv(self, config_file, capsys):
        assert main(["run", str(config_file)]) == 0
        rows = read_rows(capsys.readouterr().out)
        assert len(rows) == 1
        assert list(rows[0]) == list(CSV_COLUMNS)
        assert rows[0]["experiment"] == "cli_demo"
        assert float(rows[0]["mean_rate"]) > 0

    # beyond the documented range, 3080 dB overflows rho * p * gains and
    # -3200 dB overflows 1 / (rho g); the config refuses both up front
    @pytest.mark.parametrize("rho_db", ["3080", "-3200", "300.5", "-300.5"])
    def test_rho_db_outside_documented_range_exits_2(self, rho_db, tmp_path, capsys):
        path = tmp_path / "extreme.ini"
        path.write_text(GOOD.replace("rho_db = 20.0", f"rho_db = {rho_db}"))
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"rho_db = {rho_db} is out of range" in err and "[-300, 300] dB" in err

    def test_out_file(self, config_file, tmp_path):
        out = tmp_path / "res.csv"
        assert main(["run", str(config_file), "--out", str(out)]) == 0
        assert out.read_text().startswith(",".join(CSV_COLUMNS))

    def test_embedded_sweep_expands(self, tmp_path, capsys):
        path = tmp_path / "sweep.ini"
        path.write_text(GOOD + "\n[sweep]\nparam = n\nvalues = 8, 16\n")
        assert main(["run", str(path)]) == 0
        rows = read_rows(capsys.readouterr().out)
        assert [r["n_t"] for r in rows] == ["8", "16"]
        assert [r["sweep_param"] for r in rows] == ["n", "n"]

    def test_env_seed_override(self, config_file, capsys, monkeypatch):
        main(["run", str(config_file)])
        base = read_rows(capsys.readouterr().out)[0]["mean_rate"]
        monkeypatch.setenv("BEAMSIM_SEED", "31337")
        main(["run", str(config_file)])
        overridden = read_rows(capsys.readouterr().out)[0]["mean_rate"]
        assert overridden != base

    def test_bad_env_seed_is_config_error(self, config_file, monkeypatch, capsys):
        monkeypatch.setenv("BEAMSIM_SEED", "not-a-number")
        assert main(["run", str(config_file)]) == 2


class TestSweep:
    def test_param_values(self, config_file, capsys):
        code = main(["sweep", str(config_file), "--param", "rho_db", "--values", "0,10,20"])
        assert code == 0
        rows = read_rows(capsys.readouterr().out)
        assert [r["rho_db"] for r in rows] == ["0", "10", "20"]
        assert [r["sweep_value"] for r in rows] == ["0", "10", "20"]

    def test_env_seed_override(self, config_file, capsys, monkeypatch):
        argv = ["sweep", str(config_file), "--param", "rho_db", "--values", "20"]
        main(argv)
        base = read_rows(capsys.readouterr().out)[0]["mean_rate"]
        monkeypatch.setenv("BEAMSIM_SEED", "31337")
        main(argv)
        overridden = read_rows(capsys.readouterr().out)[0]["mean_rate"]
        assert overridden != base

    def test_bad_values_exit_2(self, config_file):
        assert main(["sweep", str(config_file), "--param", "rho_db", "--values", "a,b"]) == 2

    def test_bad_param_exit_2(self, config_file):
        assert main(["sweep", str(config_file), "--param", "nope", "--values", "1"]) == 2


class TestProgress:
    def test_finished_line_reports_time(self, config_file, capsys):
        assert main(["run", str(config_file)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert err[0] == "running cli_demo (4 trials)"
        assert re.fullmatch(
            r"finished cli_demo in \d+\.\d\d s \(\d+\.\d trials/s, 0 excluded\)", err[1]
        )

    def test_interrupted_sweep_keeps_finished_rows(self, config_file, tmp_path, monkeypatch):
        run = cli.run_experiment
        calls = []

        def interrupt_third(config, workers):
            calls.append(config.name)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return run(config, workers=workers)

        monkeypatch.setattr(cli, "run_experiment", interrupt_third)
        out = tmp_path / "res.csv"
        argv = ["sweep", str(config_file), "--param", "n", "--values", "8,16,32,64"]
        assert main([*argv, "--out", str(out)]) == cli.EXIT_INTERRUPTED
        rows = list(csv.DictReader(out.open()))
        assert [r["n_t"] for r in rows] == ["8", "16"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.ini", "res.csv"]


class TestPooledInterrupt:
    """A pooled sweep interrupted mid-point exits with 130 within a bound
    and keeps the rows of the points that finished."""

    BOUND_S = 30.0

    @pytest.fixture()
    def sweep(self, tmp_path):
        """A 1000-trial n = 8/64/64 sweep on 2 workers, in its own session
        (so its process group is its own); killed at teardown if still up."""
        path = tmp_path / "exp.ini"
        path.write_text(GOOD.replace("trials = 4", "trials = 1000"))
        out = tmp_path / "f.csv"
        argv = ["sweep", str(path), "--param", "n", "--values", "8,64,64"]
        argv += ["--workers", "2", "--out", str(out)]
        proc = subprocess.Popen(
            [sys.executable, "-m", "beamsim.cli", *argv],
            stderr=subprocess.PIPE,
            text=True,
            env=cli_env(),
            start_new_session=True,
        )
        yield proc, out
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()

    def wait_for_finished_line(self, proc) -> list[str]:
        lines = []
        deadline = time.monotonic() + self.BOUND_S
        while not any(line.startswith("finished") for line in lines):
            ready, _, _ = select.select([proc.stderr], [], [], deadline - time.monotonic())
            line = proc.stderr.readline() if ready else ""
            assert line, f"no finished line before exit or timeout: {lines}"
            lines.append(line)
        return lines

    def finish(self, proc, out, lines):
        try:
            rest = proc.communicate(timeout=self.BOUND_S)[1]
        except subprocess.TimeoutExpired:
            pytest.fail(f"still running {self.BOUND_S} s after SIGINT")
        err = [*lines, *rest.splitlines(keepends=True)]
        finished = [line for line in err if line.startswith("finished")]
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == len(finished) >= 1
        assert err[-1].strip() == "interrupted"
        return proc.returncode

    def test_sigint_to_process_group_exits_130(self, sweep):
        proc, out = sweep
        lines = self.wait_for_finished_line(proc)
        os.killpg(proc.pid, signal.SIGINT)  # what Ctrl-C sends
        assert self.finish(proc, out, lines) == cli.EXIT_INTERRUPTED

    def test_two_sigints_to_parent_exit_in_bound(self, sweep):
        proc, out = sweep
        lines = self.wait_for_finished_line(proc)
        # as `timeout -s INT` delivers it: to the command, then again to its group
        os.kill(proc.pid, signal.SIGINT)
        os.kill(proc.pid, signal.SIGINT)
        assert self.finish(proc, out, lines) == cli.EXIT_INTERRUPTED


class TestSweepDomainErrors:
    @pytest.mark.parametrize(
        "text, param, values, bad",
        [
            (GOOD.replace("kind = rayleigh", "kind = geometric\nl_paths = 2"), "l_paths", "2,20", "20"),
            (GOOD.replace("kind = svd_phase", "kind = quantized\nbits = 2"), "bits", "2,40", "40"),
            (GOOD.replace("kind = svd_phase", "kind = quantized\nbits = 2"), "beta_percent", "10", "10"),
            (GOOD, "rho_db", "30,4000", "4000"),
            (GOOD, "rho_db", "30,-4000", "-4000"),
        ],
        ids=["l_paths_above_n", "bits_above_16", "beta_on_quantized", "rho_overflows", "rho_underflows"],
    )
    def test_out_of_domain_value_exits_2(self, tmp_path, capsys, text, param, values, bad):
        path = tmp_path / "exp.ini"
        path.write_text(text)
        assert main(["sweep", str(path), "--param", param, "--values", values]) == 2
        assert f"{param} = {bad}" in capsys.readouterr().err

    def test_run_with_rho_db_out_of_range_exits_2(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text(GOOD.replace("rho_db = 20.0", "rho_db = 4000"))
        assert main(["run", str(path)]) == 2
        assert "rho_db = 4000" in capsys.readouterr().err

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exits_2(self, config_file, workers):
        assert main(["run", str(config_file), "--workers", workers]) == 2


class TestFigure:
    def test_fig2_writes_csv(self, tmp_path, capsys):
        assert main(["figure", "fig2", "--trials", "2", "--out", str(tmp_path)]) == 0
        out = tmp_path / "fig2.csv"
        assert out.exists()
        rows = list(csv.DictReader(out.open()))
        assert [r["n_t"] for r in rows] == ["16", "64"]

    def test_explicit_seed_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BEAMSIM_SEED", "1")
        main(["figure", "fig2", "--trials", "2", "--seed", "2", "--out", str(tmp_path / "a")])
        monkeypatch.delenv("BEAMSIM_SEED")
        main(["figure", "fig2", "--trials", "2", "--seed", "2", "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "fig2.csv").read_text() == (tmp_path / "b" / "fig2.csv").read_text()

    def test_several_ids_match_single_runs(self, tmp_path):
        opts = ["--trials", "2", "--seed", "5", "--out"]
        assert main(["figure", "fig2", "fig7", *opts, str(tmp_path / "both")]) == 0
        for fig_id in ("fig2", "fig7"):
            assert main(["figure", fig_id, *opts, str(tmp_path / fig_id)]) == 0
            single = (tmp_path / fig_id / f"{fig_id}.csv").read_bytes()
            assert (tmp_path / "both" / f"{fig_id}.csv").read_bytes() == single


class TestExitCodes:
    def test_config_error_is_2(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[experiment]\nname = x\n")
        assert main(["run", str(bad)]) == 2

    def test_undecodable_config_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_bytes(b"\xff\xfe[experiment]\n")
        assert main(["run", str(bad)]) == 2
        assert str(bad) in capsys.readouterr().err

    def test_spacing_with_an_infinite_steering_phase_is_2(self, tmp_path):
        # 2 pi d n overflows at d = 1e308, n = 16: the channel refuses it as
        # a config error before any draw, and the process prints no traceback
        path = tmp_path / "wide.ini"
        geometric = "kind = geometric\nn_t = 16\nn_r = 16\nl_paths = 5\nspacing_over_wavelength = 1e308\n"
        path.write_text(GOOD.replace("kind = rayleigh\nn_t = 8\nn_r = 8\n", geometric))
        proc = subprocess.run(
            [sys.executable, "-m", "beamsim.cli", "run", str(path)],
            capture_output=True,
            text=True,
            env=cli_env(),
        )
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: channel: spacing_over_wavelength")
        assert "Traceback" not in proc.stderr

    def test_missing_file_is_3(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.ini")]) == 3

    def test_unwritable_output_is_3(self, config_file, tmp_path):
        target = tmp_path / "no_such_dir" / "res.csv"
        assert main(["run", str(config_file), "--out", str(target)]) == 3
