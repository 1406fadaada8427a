import json
import math
import os
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


class TestShiftCommand:
    def test_report_row(self, tmp_path):
        out = tmp_path / "shift.csv"
        assert run_cli(["shift", "--beta", "3", "--Lambda", "0.222222222", "--out", str(out)]) == 0
        _, header, data = read_csv(out)
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

    def test_figure1_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run_cli(["figure", "1", "--out", str(a)]) == 0
        assert run_cli(["figure", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

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


class TestConfigPrecedence:
    def test_file_overrides_defaults_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("lambda = 0.2\nbeta = 5.0  # comment\n")
        out = tmp_path / "shift.csv"
        code = run_cli(
            ["shift", "--config", str(cfg), "--beta", "2.0", "--out", str(out)]
        )
        assert code == 0
        _, header, data = read_csv(out)
        row = dict(zip(header, data[0]))
        assert float(row["lambda"]) == 0.2  # from file
        assert float(row["beta"]) == 2.0  # flag wins

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        for text in ("omega_nought = 3\n", "grid_points = 512\n"):
            cfg.write_text(text)
            assert run_cli(["shift", "--config", str(cfg)]) == 2
        with pytest.raises(SystemExit) as exc:
            run_cli(["shift", "--grid-points", "512"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command, line", [("shift", "beta = abc"),
                                               ("sweep", "beta_points = 1e3")])
    def test_unparsable_value_names_file_line_and_key(self, tmp_path, capsys, command, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# one setting\n{line}\n")
        assert run_cli([command, "--config", str(cfg)]) == 2
        key = line.split("=")[0].strip()
        assert f"pairpulse: {cfg}:2: {key}: " in capsys.readouterr().err

    def test_missing_file_rejected(self, tmp_path):
        assert run_cli(["shift", "--config", str(tmp_path / "absent.cfg")]) == 2


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
          "out": "x.csv", "format": "json"}
UNREAD = [(command, key) for command, reads in READS.items() for key in VALUES
          if key not in reads]


def _command_argv(command):
    return ["figure", "1"] if command == "figure" else [command]


class TestSettingsContract:
    @pytest.mark.parametrize("command, key", UNREAD)
    def test_unread_flag_rejected(self, command, key, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        argv = _command_argv(command) + ["--" + key.replace("_", "-"), VALUES[key]]
        if command != "validate":
            argv += ["--out", "x.csv"]
        with pytest.raises(SystemExit) as exc:
            run_cli(argv)
        assert exc.value.code == 2
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, key",
                             [pair for pair in UNREAD if pair[0] != "validate"])
    def test_unread_config_key_rejected(self, command, key, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"lambda = 0.3\n{key} = {VALUES[key]}\n")
        out = tmp_path / "x.csv"
        assert run_cli(_command_argv(command) + ["--config", str(cfg), "--out", str(out)]) == 2
        assert f"{cfg}:2: {command} does not read '{key}'" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    @pytest.mark.parametrize("command", [c for c in READS if c != "validate"])
    def test_read_settings_accepted_and_echoed(self, command, tmp_path):
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "x.json"
        cfg.write_text("".join(f"{key} = {VALUES[key]}\n" for key in READS[command]
                               if key != "out"))
        assert run_cli(_command_argv(command) + ["--config", str(cfg), "--out", str(out)]) == 0
        echo = dict(line.split(" = ") for line in json.loads(out.read_text())["provenance"][1:])
        for key in READS[command] - {"out", "format"}:
            assert float(echo[key]) == float(VALUES[key])
        assert echo["format"] == "json"

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
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format = xml\n")
        assert run_cli(["modes", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 2
        with pytest.raises(SystemExit) as exc:
            run_cli(["modes", "--format", "xml"])
        assert exc.value.code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]


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

    def test_unwritable_output(self):
        assert run_cli(["modes", "--out", "/nonexistent-dir/m.csv"]) == 2

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
        assert statuses == ["PASS"] * 13
        assert summary == "13/13 checks passed"
        # the reference pair once, -2/9 at beta = 1, and the shift zero
        assert drives == [
            (3.0, 2.0 / 9.0, 3.0),
            (1.5, 2.0 / 9.0, 3.0),
            (1.5, -2.0 / 9.0, 1.0),
            (3.0, 2.0 / 9.0, 0.5),
        ]

    def test_failing_check_fails_the_run(self, capsys, monkeypatch):
        # the shift-zero row integrates its own trajectory; replacing it
        # keeps this run the cheapest full pass over the other twelve
        checks = list(validate.CHECKS)
        index = [name for name, _ in checks].index("shift zero")
        checks[index] = ("shift zero", lambda m, pair: (False, "forced failure"))
        monkeypatch.setattr(validate, "CHECKS", tuple(checks))
        assert run_cli(["validate"]) == 1
        statuses, summary = _validate_rows(capsys.readouterr().out)
        assert statuses == ["PASS"] * index + ["FAIL"] + ["PASS"] * (12 - index)
        assert summary == "12/13 checks passed"

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


# Run in a fresh interpreter: this test process has already imported scipy.
_IMPORT_PROBE = """
import contextlib, io, json, sys
import __future__, dataclasses, math, operator  # what closed_form itself imports
before = set(sys.modules)
import pairpulse.closed_form as cf
m = cf.derive_modes(cf.ModelParams(3.0, 0.375))
p = cf.Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
cf.energy_shift_report(m, p), cf.overlap(m, p, "ks"), cf.sign_effect_rows(m, 2.0 / 9.0, [4.0, 8.0])
closed_form_modules = sorted(set(sys.modules) - before)
from pairpulse.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    closed_form_codes = [main(["figure", "3"]), main(["sweep"])]
closed_form_numpy = "numpy" in sys.modules
import pairpulse
from pairpulse import Pulse, analytic_reflection, extract_reflection, integrate_mode
cached = [n for n in ("Pulse", "analytic_reflection") if vars(pairpulse).get(n) is getattr(cf, n)]

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

loaded, codes = {}, []
codes.append(main(["figure", "1", "--out", sys.argv[2]]))
loaded["figure 1"] = scipy_modules()
pulse = Pulse(Lambda=2.0 / 9.0, beta=3.0, omega0=3.0)
traj = integrate_mode(2.0, pulse)
R_ode = extract_reflection(traj).R
loaded["integrate_mode"] = scipy_modules()
numpy_ma = "numpy.ma" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    for name, argv in (("evolve", ["evolve", "--out", sys.argv[1]]), ("validate", ["validate"])):
        codes.append(main(argv))
        loaded[name] = scipy_modules()
print(json.dumps({
    "codes": codes,
    "loaded": loaded,
    "B_start": float(traj.state_at(traj.t_start)[0]),
    "R_ode": R_ode,
    "numpy_ma": numpy_ma,
    "R_analytic": analytic_reflection(2.0, pulse).R,
    "closed_form_modules": closed_form_modules,
    "closed_form_codes": closed_form_codes,
    "closed_form_numpy": closed_form_numpy,
    "cached": cached,
}))
"""


def _fresh_env():
    """The environment of a fresh interpreter that imports this checkout's package."""
    src = str(Path(pairpulse.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """Run _IMPORT_PROBE once in a fresh interpreter; its parsed report."""
    tmp = tmp_path_factory.mktemp("import_probe")
    out, fig = tmp / "evolve.csv", tmp / "fig1.csv"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(out), str(fig)],
        env=_fresh_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout), out, fig


class TestImportCost:
    def test_closed_form_commands_do_not_load_scipy(self, import_probe):
        res, _, fig = import_probe
        assert res["codes"][0] == 0 and fig.exists()
        assert res["loaded"]["figure 1"] == []

    def test_runtime_does_not_load_scipy(self, import_probe):
        res, out, _ = import_probe
        assert res["codes"] == [0, 0, 0] and out.exists()
        assert res["loaded"] == {"figure 1": [], "integrate_mode": [], "evolve": [],
                                 "validate": []}
        assert res["B_start"] == pytest.approx(1.0, abs=1e-12)
        assert res["R_ode"] == pytest.approx(res["R_analytic"], abs=1e-8)

    def test_closed_form_imports_math_only(self, import_probe):
        # after the kernel runs, closed_form has added only the package to the
        # standard modules it imports; figure 3 and sweep then load no numpy,
        # and a resolved package export is stored in the package
        res, _, _ = import_probe
        assert res["closed_form_modules"] == ["pairpulse", "pairpulse.closed_form"]
        assert res["closed_form_codes"] == [0, 0] and res["closed_form_numpy"] is False
        assert res["cached"] == ["Pulse", "analytic_reflection"]

    def test_integrator_does_not_load_numpy_ma(self, import_probe):
        # numpy.ma (pulled in by np.unique and np.union1d) costs ~1.2 MiB of
        # resident memory; neither figure 1 nor integrate_mode and
        # extract_reflection may load it
        res, _, _ = import_probe
        assert res["numpy_ma"] is False


# The commands that need only the closed form, which must not load numpy,
# and the two that integrate, which do; the closed-form package exports load
# no numpy either.
_NUMPY_PROBE = """
import contextlib, io, json, sys
import pairpulse
loaded = {"import pairpulse": "numpy" in sys.modules}
from pairpulse import ModelParams, Pulse, derive_modes, energy_shift_report
energy_shift_report(derive_modes(ModelParams(3.0, 0.375)), Pulse(2.0 / 9.0, 3.0, 3.0))
loaded["closed-form exports"] = "numpy" in sys.modules
from pairpulse.cli import main
codes = {}
for argv in json.loads(sys.argv[1]):
    name = " ".join(argv)
    with contextlib.redirect_stdout(io.StringIO()):
        codes[name] = main(argv)
    loaded[name] = "numpy" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
NUMPY_FREE_COMMANDS = [["modes"], ["shift"], ["figure", "1"], ["figure", "2"], ["figure", "3"], ["sweep"]]


def _numpy_probe(commands):
    proc = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, json.dumps(commands)],
                          env=_fresh_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestNumpyImport:
    def test_closed_form_commands_do_not_load_numpy(self):
        res = _numpy_probe(NUMPY_FREE_COMMANDS)
        assert set(res["codes"].values()) == {0}
        assert res["loaded"] == dict.fromkeys(["import pairpulse", "closed-form exports",
                                               *(" ".join(argv) for argv in NUMPY_FREE_COMMANDS)], False)

    @pytest.mark.parametrize("command", ["evolve", "validate"])
    def test_integrating_commands_load_numpy(self, command):
        res = _numpy_probe([[command]])
        assert res == {"codes": {command: 0},
                       "loaded": {"import pairpulse": False, "closed-form exports": False, command: True}}
