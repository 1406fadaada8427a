import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import pairpulse
from pairpulse import cli, validate
from pairpulse.cli import main


def run_cli(argv):
    return main(argv)


def read_csv(path):
    comments = []
    with open(path, newline="") as fh:
        rows = []
        for line in fh:
            if line.startswith("#"):
                comments.append(line)
            else:
                rows.append(line.rstrip("\n"))
    header = rows[0].split(",")
    data = [r.split(",") for r in rows[1:]]
    return comments, header, data


class TestModesCommand:
    def test_reference_frequencies_in_output(self, tmp_path):
        out = tmp_path / "modes.csv"
        assert run_cli(["modes", "--omega0", "3", "--lambda", "0.375", "--out", str(out)]) == 0
        comments, header, data = read_csv(out)
        row = dict(zip(header, data[0]))
        assert float(row["omega2"]) == 1.5
        assert float(row["omega_e"]) == pytest.approx(2.372, abs=1e-3)
        assert float(row["omega_w"]) == pytest.approx(2.121, abs=1e-3)
        assert float(row["omega_d"]) == pytest.approx(2.0, abs=1e-12)
        assert float(row["omega1"]) == 3.0
        assert any("pairpulse" in c for c in comments)

    def test_stdout_default(self, capsys):
        assert run_cli(["modes"]) == 0
        captured = capsys.readouterr().out
        assert "omega_d" in captured

    def test_json_format(self, tmp_path):
        out = tmp_path / "modes.json"
        assert run_cli(["modes", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["columns"][0] == "omega0"
        assert len(payload["rows"]) == 1


class TestStaticCommand:
    def test_spectrum_table(self, tmp_path):
        out = tmp_path / "static.csv"
        assert run_cli(["static", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        assert header == ["k", "occupation"]
        occ = {row[0]: float(row[1]) for row in data}
        assert occ["0"] == pytest.approx(0.9705627484771405, abs=1e-12)
        assert "S_vN" in occ and occ["S_vN"] > 0


class TestEvolveCommand:
    def test_trajectory_export(self, tmp_path):
        out = tmp_path / "evolve.csv"
        assert run_cli(["evolve", "--beta", "3", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        assert header == ["omega", "t", "B", "Bdot", "gamma"]
        arr = np.array(data, dtype=float)
        assert set(np.unique(arr[:, 0])) == {1.5, 3.0}
        first = arr[arr[:, 0] == 3.0][0]
        assert first[2] == pytest.approx(1.0, abs=1e-10)
        assert first[3] == pytest.approx(0.0, abs=1e-10)

    def test_bytes_do_not_depend_on_blas_kernel(self):
        # the integrator makes no BLAS call, so OpenBLAS's kernel choice (FMA
        # or not) cannot reach the output; a numpy on another BLAS ignores
        # the variable and the two runs match trivially
        outputs = []
        for env in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            proc = subprocess.run([sys.executable, "-m", "pairpulse.cli", "evolve"],
                                  env={**_fresh_env(), **env}, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]


class TestShiftCommand:
    def test_report_row(self, tmp_path):
        out = tmp_path / "shift.csv"
        assert run_cli(["shift", "--beta", "3", "--Lambda", "0.222222222", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        # the report's fields in order, with lam under its CLI name
        assert header == ["omega0", "lambda", "Lambda", "beta", "shift_mode1", "shift_mode2",
                          "exact", "hf", "ks", "natural"]
        modes = pairpulse.derive_modes(pairpulse.ModelParams(3.0, 0.375))
        report = pairpulse.energy_shift_report(modes, pairpulse.Pulse(0.222222222, 3.0, 3.0))
        assert [float(v) for v in data[0]] == list(report)
        row = dict(zip(header, data[0]))
        exact = float(row["exact"])
        assert exact == pytest.approx(
            float(row["shift_mode1"]) + float(row["shift_mode2"]), rel=1e-12
        )
        assert float(row["hf"]) < float(row["natural"]) < float(row["ks"])


class TestSweepCommand:
    def test_custom_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            ["sweep", "--beta-min", "1", "--beta-max", "4", "--beta-points", "7",
             "--out", str(out)]
        )
        assert code == 0
        _, header, data = read_csv(out)
        assert header == ["beta", "exact", "hf", "ks", "natural"]
        betas = [float(r[0]) for r in data]
        assert len(betas) == 7
        assert betas[0] == 1.0 and betas[-1] == 4.0
        np.testing.assert_allclose(np.diff(np.log(betas)), np.log(betas[1] / betas[0]), rtol=1e-9)

    def test_bad_grid_rejected(self, tmp_path):
        code = run_cli(["sweep", "--beta-min", "4", "--beta-max", "1", "--out", "x.csv"])
        assert code == 2

    def test_infinite_grid_edge_rejected_without_warning(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli(["sweep", "--beta-points", "2", "--beta-max", "inf", "--out", str(out)])
        assert code == 2
        assert "bad beta grid: [0.25, inf] with 2 points" in capsys.readouterr().err
        assert not out.exists()


class TestFigureCommands:
    def test_figure1_grid_and_columns(self, tmp_path):
        out = tmp_path / "fig1.csv"
        assert run_cli(["figure", "1", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        assert header == ["beta", "exact", "hf", "ks", "natural"]
        assert len(data) == 256
        assert float(data[0][0]) == 0.25
        assert float(data[-1][0]) == 10.0

    def test_exact_ks_crossing_near_reference_rate(self, tmp_path):
        for which in ("1", "2"):
            out = tmp_path / f"fig{which}.csv"
            assert run_cli(["figure", which, "--out", str(out)]) == 0
            _, _, data = read_csv(out)
            arr = np.array(data, dtype=float)
            diff = arr[:, 1] - arr[:, 3]
            flips = np.nonzero(np.sign(diff[:-1]) != np.sign(diff[1:]))[0]
            assert len(flips) == 1
            lo, hi = arr[flips[0], 0], arr[flips[0] + 1, 0]
            assert 2.81 <= lo <= hi <= 2.91

    @pytest.mark.parametrize("omega0, v_zero", [("24", "4"), ("36", "6")])
    def test_figure3_shift_zero_rejected(self, tmp_path, capsys, omega0, v_zero):
        # 1 + (2/9) omega0^2 / v^2 = 9 lands on the velocity grid
        out = tmp_path / "fig3.csv"
        assert run_cli(["figure", "3", "--omega0", omega0, "--out", str(out)]) == 2
        assert f"v = {v_zero}:" in capsys.readouterr().err
        assert not out.exists()

    def test_figure3_ratio_window(self, tmp_path):
        out = tmp_path / "fig3.csv"
        assert run_cli(["figure", "3", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        assert header == ["v", "ratio"]
        arr = np.array(data, dtype=float)
        assert arr[0, 0] == 4.0 and arr[-1, 0] == 12.0
        assert np.all(arr[:, 1] > 0)
        assert np.all(np.diff(arr[:, 1]) < 0)


def _rejects_config(argv, cfg, capsys):
    """``argv`` exits 2 on ``--config cfg`` as an unknown flag, before reading ``cfg``."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: --config {cfg}\n")


class TestConfigPrecedence:
    # settings are defaults, then flags: a settings file is no way in, whatever it holds
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        out = tmp_path / "shift.csv"
        for text in ("omega_nought = 3", "grid_points = 512", "beta 5"):
            cfg.write_text(text + "\n")
            _rejects_config(["shift", "--config", str(cfg), "--out", str(out)], cfg, capsys)
            assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.cfg"]
        with pytest.raises(SystemExit) as exc:
            run_cli(["shift", "--grid-points", "512"])
        assert exc.value.code == 2

    def test_missing_file_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "absent.cfg"
        _rejects_config(["shift", "--config", str(cfg), "--out", str(tmp_path / "x.csv")],
                        cfg, capsys)
        assert list(tmp_path.iterdir()) == []


# The settings each command reads; validate reads none and takes no options.
_MODEL_OUT = {"omega0", "lambda", "out", "format"}
READS = {
    "modes": _MODEL_OUT,
    "static": _MODEL_OUT,
    "figure": _MODEL_OUT,
    "shift": _MODEL_OUT | {"Lambda", "beta"},
    "sweep": _MODEL_OUT | {"Lambda", "beta_min", "beta_max", "beta_points"},
    "evolve": _MODEL_OUT | {"Lambda", "beta", "rtol", "atol"},
    "validate": set(),
}
VALUES = {"omega0": "2.5", "lambda": "0.3", "Lambda": "0.1", "beta": "2", "beta_min": "1",
          "beta_max": "4", "beta_points": "8", "rtol": "1e-9", "atol": "1e-11",
          "out": "x.csv", "format": "json", "config": "run.cfg"}
UNREAD = [(command, key) for command, reads in READS.items() for key in VALUES
          if key not in reads]


def _command_argv(command):
    return ["figure", "1"] if command == "figure" else [command]


def _flags(settings):
    return [word for key, value in settings.items() for word in ("--" + key.replace("_", "-"), value)]


def _header(path, fmt):
    """The provenance header's settings, by name."""
    if fmt == "json":
        lines = json.loads(path.read_text())["provenance"]
    else:
        lines = [line[2:] for line in path.read_text().splitlines() if line.startswith("# ")]
    return dict(line.split(" = ") for line in lines[1:])


def _seeded_settings(command, rng):
    """Non-default values, as flag strings, for the model, drive and grid settings
    ``command`` reads; the drive stays inside (0.9 of) its bound 1 - 2 lambda."""
    lam = 0.05 + 0.4 * rng.random()
    drawn = {
        "omega0": 1.0 + 4.0 * rng.random(),
        "lambda": lam,
        "Lambda": rng.choice((1.0, -1.0)) * 0.9 * rng.random() * (1.0 - 2.0 * lam),
        "beta": 1.0 + 4.0 * rng.random(),
        "beta_min": 0.5 + rng.random(),
        "beta_max": 4.0 + 4.0 * rng.random(),
        "beta_points": rng.randrange(2, 64),
        "rtol": 10.0 ** rng.uniform(-11.0, -9.0),
        "atol": 10.0 ** rng.uniform(-13.0, -11.0),
    }
    return {key: str(drawn[key]) for key in cli.COMMANDS[command][1] if key in drawn}


class TestSettingsContract:
    @pytest.mark.parametrize("command, key", UNREAD)
    def test_unread_flag_rejected(self, command, key, tmp_path, monkeypatch):
        # config names no setting: a settings file is no way in either
        monkeypatch.chdir(tmp_path)
        argv = _command_argv(command) + _flags({key: VALUES[key]})
        if command != "validate":
            argv += ["--out", "x.csv"]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, key", [(command, key) for command, key in UNREAD
                                              if command != "validate" and key != "config"])
    def test_unread_config_key_rejected(self, command, key, tmp_path, capsys):
        # an unread setting written in a settings file does not reach the command either
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lambda = 0.3\n{key} = {VALUES[key]}\n")
        out = tmp_path / "x.csv"
        _rejects_config(_command_argv(command) + ["--config", str(cfg), "--out", str(out)],
                        cfg, capsys)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("command", [c for c in READS if c != "validate"])
    def test_read_settings_accepted_and_echoed(self, command, tmp_path):
        out = tmp_path / "x.json"
        settings = {key: VALUES[key] for key in READS[command]}
        assert run_cli(_command_argv(command) + _flags({**settings, "out": str(out)})) == 0
        echo = _header(out, "json")
        for key in READS[command] - {"out", "format"}:
            assert float(echo[key]) == float(VALUES[key])
        assert echo["format"] == "json"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [["modes"], ["static"], ["shift"], ["sweep"], ["evolve"],
                                      ["figure", "1"], ["figure", "2"], ["figure", "3"]])
    def test_header_given_back_as_flags_reproduces_the_artifact(self, argv, fmt, tmp_path):
        # the settings the command reads, echoed at 17 digits, are all its input
        command = argv[0]
        rng = random.Random(f"{' '.join(argv)} {fmt}")
        first, second = tmp_path / "first", tmp_path / "second"
        flags = _flags({**_seeded_settings(command, rng), "format": fmt})
        assert run_cli(argv + flags + ["--out", str(first)]) == 0
        echo = _header(first, fmt)
        given_back = {key: echo[key] for key in cli.COMMANDS[command][1] if key != "out"}
        assert run_cli(argv + _flags(given_back) + ["--out", str(second)]) == 0
        assert second.read_bytes() == first.read_bytes()

    def test_modes_header_at_defaults(self, tmp_path):
        out = tmp_path / "modes.csv"
        assert run_cli(["modes", "--out", str(out)]) == 0
        comments, _, _ = read_csv(out)
        assert comments == [
            f"# pairpulse {pairpulse.__version__} modes\n",
            "# omega0 = 3\n",
            "# lambda = 0.375\n",
            "# Lambda = 0.22222222222222221\n",
            "# beta = 3\n",
            "# beta_min = 0.25\n",
            "# beta_max = 10\n",
            "# beta_points = 256\n",
            "# rtol = 1e-10\n",
            "# atol = 9.9999999999999998e-13\n",
            "# format = csv\n",
        ]

    def test_bad_format_value_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(["modes", "--format", "xml", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, error", [
        (["shift", "--beta", "abc"], "argument --beta: invalid float value: 'abc'"),
        (["sweep", "--beta-points", "1e3"], "argument --beta-points: invalid int value: '1e3'"),
    ], ids=["shift-beta", "sweep-beta_points"])
    def test_unparsable_value_rejected(self, argv, error, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv + ["--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: {error}\n")
        assert list(tmp_path.iterdir()) == []


class TestErrorPaths:
    def test_inadmissible_drive_diagnostic(self, tmp_path, capsys):
        code = run_cli(["shift", "--Lambda", "-0.3", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "ionization" in err
        assert not (tmp_path / "x.csv").exists()

    def test_unbound_coupling_diagnostic(self, tmp_path):
        assert run_cli(["modes", "--lambda", "0.6", "--out", str(tmp_path / "x.csv")]) == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--rtol", "--atol"])
    def test_nan_tolerance_rejected(self, tmp_path, capsys, flag):
        out = tmp_path / "x.csv"
        assert run_cli(["evolve", flag, "nan", "--out", str(out)]) == 2
        assert "must be finite and > 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unwritable_output(self, tmp_path):
        assert run_cli(["modes", "--out", "/nonexistent-dir/m.csv"]) == 2
        # the final rename onto a directory fails, and the partial file goes
        out = tmp_path / "m.csv"
        out.mkdir()
        assert run_cli(["modes", "--out", str(out)]) == 2
        assert list(tmp_path.iterdir()) == [out] and list(out.iterdir()) == []

    def test_integration_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        from pairpulse import dynamics

        def fail(*args, **kwargs):
            raise RuntimeError("forced failure")

        monkeypatch.setattr(dynamics, "integrate_mode", fail)
        out = tmp_path / "x.csv"
        assert run_cli(["evolve", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "pairpulse: integration failure: forced failure\n"
        assert not out.exists()

    def test_validate_error_exits_2(self, capsys, monkeypatch):
        def fail():
            raise ValueError("forced failure")

        monkeypatch.setattr(validate, "run_validation", fail)
        assert run_cli(["validate"]) == 2
        assert capsys.readouterr() == ("", "pairpulse: forced failure\n")

    @pytest.mark.parametrize("Lambda", ["0.2", "-0.2"])
    @pytest.mark.parametrize("beta", ["1e-170", "1e-300", "1e300"])
    def test_extreme_beta_underflows_to_zero_shift(self, beta, Lambda, capsys):
        # beta**2 under- or overflows here; R underflows to 0 for every mode
        assert run_cli(["shift", "--beta", beta, "--Lambda", Lambda]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        header, row = [line.split(",") for line in captured.out.splitlines()
                       if not line.startswith("#")]
        assert [float(v) for v in row[header.index("shift_mode1"):]] == [0.0] * 6

    @pytest.mark.parametrize("argv", [
        ["modes", "--omega0", "1e200"], ["modes", "--omega0", "1e160"],
        ["static", "--omega0", "1e200"], ["shift", "--omega0", "1e200"],
        ["figure", "1", "--omega0", "1e160"], ["modes", "--omega0", "1e-320"],
        ["modes", "--omega0", "1e-160"],
    ])
    def test_omega0_outside_float_range_rejected(self, argv, capsys):
        # omega0**2 overflowed (a traceback) or underflowed (omega_d = 0 printed)
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("pairpulse: omega0 must lie in")


def _validate_rows(out):
    names = [name for name, _ in validate.CHECKS]
    width = max(len(name) for name in names)
    lines = out.splitlines()
    assert [line[:width].rstrip() for line in lines[:-1]] == names
    return [line[width:].split()[0] for line in lines[:-1]], lines[-1]


class TestValidateCommand:
    def test_fresh_checkout_passes(self, capsys, monkeypatch):
        drives = []
        real = validate.integrate_mode

        def counting(mode_frequency, pulse, **kw):
            drives.append((mode_frequency, pulse.Lambda, pulse.beta))
            return real(mode_frequency, pulse, **kw)

        monkeypatch.setattr(validate, "integrate_mode", counting)
        assert run_cli(["validate"]) == 0
        statuses, summary = _validate_rows(capsys.readouterr().out)
        assert statuses == ["PASS"] * 14
        assert summary == "14/14 checks passed"
        # the reference pair once, -2/9 at beta = 1, and the shift zero
        assert drives == [
            (3.0, 2.0 / 9.0, 3.0),
            (1.5, 2.0 / 9.0, 3.0),
            (1.5, -2.0 / 9.0, 1.0),
            (3.0, 2.0 / 9.0, 0.5),
        ]

    def test_failing_check_fails_the_run(self, capsys, monkeypatch):
        # the shift-zero row integrates its own trajectory; replacing it
        # keeps this run the cheapest full pass over the other thirteen
        checks = list(validate.CHECKS)
        index = [name for name, _ in checks].index("shift zero")
        checks[index] = ("shift zero", lambda m, pair: (False, "forced failure"))
        monkeypatch.setattr(validate, "CHECKS", tuple(checks))
        assert run_cli(["validate"]) == 1
        statuses, summary = _validate_rows(capsys.readouterr().out)
        assert statuses == ["PASS"] * index + ["FAIL"] + ["PASS"] * (13 - index)
        assert summary == "13/14 checks passed"

    def test_stdout_does_not_depend_on_blas_kernel(self):
        # the printed sums are einsum loops, not BLAS (the spectral oracle's
        # eigvalsh is LAPACK's); a numpy on another BLAS ignores the variable
        outputs = []
        for env in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
            proc = subprocess.run([sys.executable, "-m", "pairpulse.cli", "validate"],
                                  env={**_fresh_env(), **env}, capture_output=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]

    def test_library_run_under_default_blas_threading(self):
        # tier-1 and the CLI run numpy on one OpenBLAS thread; a library caller
        # that leaves the variable unset gets OpenBLAS's own pool, and the same rows
        code = ("import os\n"
                "from pairpulse.validate import run_validation\n"
                "print(repr(run_validation()))\n"
                "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(["OPENBLAS_NUM_THREADS"]),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"{validate.run_validation()!r}\nNone\n"

    @pytest.mark.parametrize("flags", [["--omega0", "5"], ["--out", "v.json"]])
    def test_rejects_scenario_flags(self, flags, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run_cli(["validate", *flags])
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []


class TestDeterministicFormatting:
    def test_seventeen_significant_digits(self, tmp_path):
        out = tmp_path / "shift.csv"
        assert run_cli(["shift", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
        row = dict(zip(header, data[0]))
        val = row["exact"]
        assert float(val) == float(format(float(val), ".17g"))
        # round-trips exactly through the printed representation
        assert format(float(val), ".17g") == val

    def test_percent_template_formats_as_fmt(self):
        # csv rows of floats use "%.17g" in place of _fmt's format(v, ".17g"):
        # the same digits for the signed zeros and infinities, nan, the
        # extremes and random bit patterns, a tenth of them subnormal
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2**64, size=4000, dtype=np.uint64)
        bits[::10] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 5e-324, -5e-324,
                  2.225073858507201e-308, sys.float_info.min, 1.7976931348623157e308,
                  -1.7976931348623157e308, 0.1, 1.0 / 3.0, *bits.view(np.float64).tolist()]
        assert sum(v != 0.0 and abs(v) < sys.float_info.min for v in values) > 400
        assert ["%.17g" % v for v in values] == [cli._fmt(v) for v in values]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [["evolve"], ["sweep"], ["figure", "1"], ["figure", "3"],
                                      ["modes"], ["shift"], ["static"]])
    def test_rows_format_as_fmt_join(self, argv, fmt, tmp_path, monkeypatch):
        # every cell is a float but static's first, an int k or a label; the
        # csv template _emit builds from the first row's cells is then the
        # _fmt join of every row
        emitted = []
        emit = cli._emit
        monkeypatch.setattr(cli, "_emit", lambda *args, **kw: emitted.append(args) or emit(*args, **kw))
        out = tmp_path / f"out.{fmt}"
        assert run_cli([*argv, "--format", fmt, "--out", str(out)]) == 0
        [(_, _, columns, rows)] = emitted
        floats = [argv != ["static"]] + [True] * (len(columns) - 1)
        assert [[isinstance(v, float) for v in row] for row in rows] == [floats] * len(rows)
        template = ",".join("%.17g" if f else "%s" for f in floats) + "\n"
        joined = [",".join(map(cli._fmt, row)) + "\n" for row in rows]
        assert [template % row for row in rows] == joined
        if fmt == "csv":
            lines = out.read_text().splitlines(keepends=True)
            assert lines[-len(rows):] == joined and lines[-len(rows) - 1] == ",".join(columns) + "\n"
        else:
            assert json.loads(out.read_text())["rows"] == [list(row) for row in rows]


class TestGrids:
    """The pure-Python grids against numpy's, which they replace."""

    @staticmethod
    def _random_grids(seed, n_grids=300):
        rng = np.random.default_rng(seed)
        for _ in range(n_grids):
            lo = float(rng.uniform(-50.0, 50.0)) * 10.0 ** float(rng.uniform(-3, 3))
            hi = lo + float(rng.uniform(1e-3, 100.0)) * 10.0 ** float(rng.uniform(-3, 3))
            yield lo, hi, int(rng.integers(2, 2000))

    def test_linspace_is_np_linspace(self):
        grids = [(cli.FIGURE3_V_MIN, cli.FIGURE3_V_MAX, cli.FIGURE3_V_POINTS),
                 *self._random_grids(20261018)]
        for lo, hi, n in grids:
            assert cli._linspace(lo, hi, n) == np.linspace(lo, hi, n).tolist(), (lo, hi, n)

    @pytest.mark.parametrize("n", [cli.FIGURE_BETA_POINTS, 1024])
    def test_beta_grid_within_an_ulp_of_np_geomspace(self, n):
        # the figure grid and the benchmark's sweep grid; libm pow is correctly
        # rounded wherever it differs from np.power
        mpmath = pytest.importorskip("mpmath")
        lo, hi = cli.FIGURE_BETA_MIN, cli.FIGURE_BETA_MAX
        grid, ref = cli._beta_grid(lo, hi, n), np.geomspace(lo, hi, n)
        assert grid[0] == lo and grid[-1] == hi
        np.testing.assert_array_max_ulp(np.array(grid), ref, maxulp=1)
        ys = cli._linspace(math.log10(lo), math.log10(hi), n)
        differ = [i for i in range(n) if grid[i] != ref[i]]
        assert differ
        with mpmath.workdps(40):
            assert [grid[i] for i in differ] == [float(mpmath.mpf(10) ** ys[i]) for i in differ]


# The import contracts, checked in fresh interpreters: this test process has already
# imported numpy, and conftest blocks scipy.  The probe loads the package and the
# closed-form exports, then runs the CLI commands given as its arguments, each
# one argument with its words joined by tabs, and records after each one
# whether numpy and json are loaded, which scipy modules are, and the
# OPENBLAS_NUM_THREADS that main leaves.  The last command is the first that
# may integrate, so nothing else has loaded numpy before it.  The probe itself
# imports json only after its own checks.
_PROBE_COMMANDS = """
import contextlib, io, os, sys
import __future__, math, operator, typing  # what closed_form itself imports
before = set(sys.modules)
import pairpulse
numpy_loaded = {"import pairpulse": "numpy" in sys.modules}
import pairpulse.closed_form as cf
m = cf.derive_modes(cf.ModelParams(3.0, 0.375))
p = cf.Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
cf.energy_shift_report(m, p), cf.overlap(m, p, "ks"), cf.sign_effect_rows(m, 2.0 / 9.0, [4.0, 8.0])
closed_form_modules = sorted(set(sys.modules) - before)
from pairpulse import ModelParams, Pulse, derive_modes, energy_shift_report
energy_shift_report(derive_modes(ModelParams(3.0, 0.375)), Pulse(2.0 / 9.0, 3.0, 3.0))
numpy_loaded["closed-form exports"] = "numpy" in sys.modules
from pairpulse.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

codes, json_loaded, scipy_loaded, inspect_loaded, blas_threads = {}, {}, {}, {}, {}
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        codes[command] = main(command.split("\\t"))
    numpy_loaded[command] = "numpy" in sys.modules
    json_loaded[command] = "json" in sys.modules
    scipy_loaded[command] = scipy_modules()
    inspect_loaded[command] = [m for m in ("dataclasses", "inspect") if m in sys.modules]
    blas_threads[command] = os.environ.get("OPENBLAS_NUM_THREADS")
report = {"codes": codes, "numpy": numpy_loaded, "json": json_loaded, "scipy": scipy_loaded,
          "inspect": inspect_loaded, "blas_threads": blas_threads,
          "closed_form_modules": closed_form_modules}
"""

# After the commands: the integrator, and validate, which must not load scipy.
_PROBE_INTEGRATOR = """
from pairpulse import analytic_reflection, extract_reflection, integrate_mode
report["cached"] = [n for n in ("Pulse", "analytic_reflection")
                    if vars(pairpulse).get(n) is getattr(cf, n)]
pulse = Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
traj = integrate_mode(2.0, pulse)
report["R_ode"] = extract_reflection(traj).R
scipy_loaded["integrate_mode"] = scipy_modules()
report["numpy_ma"] = "numpy.ma" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    codes["validate"] = main(["validate"])
scipy_loaded["validate"] = scipy_modules()
report["B_start"] = float(traj.state_at(traj.t_start)[0])
report["R_analytic"] = analytic_reflection(2.0, pulse).R
"""

_PROBE_REPORT = """
import json
print(json.dumps(report))
"""

NUMPY_FREE_COMMANDS = [["modes"], ["shift"], ["figure", "1"], ["figure", "2"], ["figure", "3"], ["sweep"],
                       ["static"]]


def _fresh_env(unset=()):
    """The environment of a fresh interpreter that imports this checkout's
    package, without the variables named in ``unset``."""
    src = str(Path(pairpulse.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for name in unset:
        env.pop(name, None)
    return env


def _probe(commands, integrator=False, unset=()):
    """Run the probe on ``commands`` (argv lists) in a fresh interpreter; its report."""
    code = _PROBE_COMMANDS + (_PROBE_INTEGRATOR if integrator else "") + _PROBE_REPORT
    proc = subprocess.run([sys.executable, "-c", code, *("\t".join(argv) for argv in commands)],
                          env=_fresh_env(unset), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """One fresh interpreter: the closed-form commands (figure 1 written to a
    file), csv then json output, evolve to a file, then the integrator and
    validate.  Its report, the two files, and the command names it ran."""
    tmp = tmp_path_factory.mktemp("import_probe")
    out, fig = tmp / "evolve.csv", tmp / "fig1.csv"
    free = [argv + ["--out", str(fig)] if argv == ["figure", "1"] else argv
            for argv in NUMPY_FREE_COMMANDS]
    commands = [*free, ["modes", "--format", "json"], ["evolve", "--out", str(out)]]
    names = ["\t".join(argv) for argv in commands]
    return _probe(commands, integrator=True), out, fig, names


@pytest.fixture(scope="module")
def validate_probe():
    """validate alone, in its own fresh interpreter, with OPENBLAS_NUM_THREADS
    unset, so that main sets it."""
    return _probe([["validate"]], unset=["OPENBLAS_NUM_THREADS"])


class TestImportCost:
    def test_closed_form_commands_do_not_load_scipy(self, import_probe):
        res, _, fig, names = import_probe
        figure1 = names[2]  # NUMPY_FREE_COMMANDS[2], written to fig
        assert res["codes"][figure1] == 0 and fig.exists()
        assert res["scipy"][figure1] == []

    def test_runtime_does_not_load_scipy(self, import_probe):
        res, out, _, names = import_probe
        figure1, evolve = names[2], names[-1]
        assert [res["codes"][name] for name in (figure1, evolve, "validate")] == [0, 0, 0]
        assert out.exists()
        assert [res["scipy"][name] for name in (figure1, "integrate_mode", evolve, "validate")] \
            == [[], [], [], []]
        assert res["B_start"] == pytest.approx(1.0, abs=1e-12)
        assert res["R_ode"] == pytest.approx(res["R_analytic"], abs=1e-8)

    def test_closed_form_imports_math_only(self, import_probe):
        # after the kernel runs, closed_form has added only the package to the
        # standard modules it imports; figure 3 and sweep then load no numpy,
        # and a resolved package export is stored in the package
        res, _, _, _ = import_probe
        assert res["closed_form_modules"] == ["pairpulse", "pairpulse.closed_form"]
        assert [res["codes"]["figure\t3"], res["codes"]["sweep"]] == [0, 0]
        assert res["numpy"]["figure\t3"] is res["numpy"]["sweep"] is False
        assert res["cached"] == ["Pulse", "analytic_reflection"]

    def test_integrator_does_not_load_numpy_ma(self, import_probe):
        # numpy.ma (pulled in by np.unique and np.union1d) costs ~1.2 MiB of
        # resident memory; neither figure 1 nor evolve, integrate_mode and
        # extract_reflection may load it
        res, _, _, _ = import_probe
        assert res["numpy_ma"] is False


class TestNumpyImport:
    def test_closed_form_commands_do_not_load_numpy(self, import_probe):
        res, _, _, names = import_probe
        steps = ["import pairpulse", "closed-form exports", *names[:len(NUMPY_FREE_COMMANDS)]]
        assert {res["codes"][name] for name in steps[2:]} == {0}
        assert [res["numpy"][step] for step in steps] == [False] * len(steps)

    def test_closed_form_commands_do_not_load_dataclasses(self, import_probe):
        # dataclasses imports inspect (with ast, dis and tokenize), ~10 ms of a
        # cold start; evolve loads numpy, which imports inspect itself
        res, _, _, names = import_probe
        free = names[:len(NUMPY_FREE_COMMANDS) + 1]  # and the json one
        assert [res["inspect"][name] for name in free] == [[]] * len(free)

    def test_from_import_of_a_submodule_loads_no_numpy(self):
        # `from pairpulse import cli` probes the package for the name first;
        # that probe imports the named submodule alone; a missing dunder, as
        # inspect.unwrap asks for, imports nothing
        code = ("import sys\n"
                "from pairpulse import cli, closed_form\n"
                "import pairpulse.cli, pairpulse.closed_form\n"
                "assert (cli, closed_form) == (pairpulse.cli, pairpulse.closed_form)\n"
                "assert not hasattr(pairpulse, '__wrapped__')\n"
                "print(sorted(m for m in ('numpy', 'dataclasses', 'inspect') if m in sys.modules))\n")
        proc = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("command", ["evolve", "validate"])
    def test_integrating_commands_load_numpy(self, command, import_probe, validate_probe):
        # evolve is the probe's first command that may load numpy, validate
        # the only command of its own probe
        res, name = (import_probe[0], import_probe[3][-1]) if command == "evolve" else (
            validate_probe, "validate")
        before = [key for key in res["numpy"] if key != name]
        assert res["codes"][name] == 0
        assert res["numpy"] == {**dict.fromkeys(before, False), name: True}
        # numpy loaded on one BLAS thread: main sets it in the validate probe,
        # which starts without the variable, and keeps the count evolve's inherits
        pinned = "1" if command == "validate" else os.environ.get("OPENBLAS_NUM_THREADS", "1")
        assert res["blas_threads"][name] == pinned

    def test_blas_thread_pin_spares_a_loaded_numpy_and_a_set_value(self, monkeypatch):
        # numpy is loaded in this process, so main leaves the environment alone
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert run_cli(["modes"]) == 0
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        # before numpy loads, main keeps a count the caller set
        monkeypatch.delitem(sys.modules, "numpy")
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert run_cli(["modes"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


class TestJsonImport:
    def test_csv_command_does_not_load_json(self, import_probe):
        # every closed-form command writes csv; the json one after them loads json
        res, _, _, names = import_probe
        free, json_command = names[:len(NUMPY_FREE_COMMANDS)], names[len(NUMPY_FREE_COMMANDS)]
        assert [(res["codes"][name], res["json"][name]) for name in [*free, json_command]] \
            == [(0, False)] * len(free) + [(0, True)]
