"""Command-line runner: scenario configuration and bit-stable data emission.

Subcommands
-----------
modes     derived frequency table for one model
static    occupation spectrum and entropies
evolve    dense mode trajectories (t, B, Bdot, gamma)
shift     energy-shift report for one pulse
sweep     shift totals over a custom log-spaced beta grid
figure    fixed data tables: 1 and 2 are shift totals vs beta at
          Lambda = +2/9 and -2/9; 3 is the sign-effect ratio vs velocity
validate  run the invariant registry (no options); print a pass/fail table

SETTINGS lists every setting once and COMMANDS the settings each command
reads; the parser, the provenance header and the dispatch all come from
these two tables.  Each setting is its default unless its flag is given.  A
command takes a flag only for a setting it reads; any other flag is an error
(exit 2) and nothing is written.  The provenance header echoes every setting
but `out`, so its lines for the settings a command reads, given back as
flags, reproduce the artifact.  Output is CSV (default) or JSON with fixed
17-significant-digit formatting, so identical settings reproduce
byte-identical artifacts, whichever BLAS kernel numpy picks: no command's
printed arithmetic calls BLAS but validate's spectral oracle, a LAPACK
eigvalsh whose printed residue is the same under the Haswell and Prescott
kernels.  That call runs on one BLAS thread: unless numpy is already loaded,
``main`` sets ``OPENBLAS_NUM_THREADS=1`` where the variable is unset,
because starting OpenBLAS's thread pool now and then stalled the call by ~1 s.
One ``%``-template formats every CSV row of a table.

modes, static, shift, sweep and figure need only ``closed_form`` and never
import numpy, which is most of a cold start, nor ``dataclasses`` and
``inspect``; their grids are pure Python.  evolve and validate import the
numpy modules inside their handlers.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import NamedTuple

from . import __version__
from .closed_form import (
    IonizationRegimeError,
    ModelParams,
    Pulse,
    check_admissible,
    derive_modes,
    energy_shift_report,
    entropies,
    occupation_spectrum,
    sign_effect_rows,
)

FIGURE_BETA_MIN = 0.25
FIGURE_BETA_MAX = 10.0
FIGURE_BETA_POINTS = 256
FIGURE_LAMBDA = 2.0 / 9.0
FIGURE3_V_MIN = 4.0
FIGURE3_V_MAX = 12.0
FIGURE3_V_POINTS = 81


class Setting(NamedTuple):
    type: type
    default: object
    help: str
    choices: tuple | None = None


# The one list of settings, in provenance-echo order.  Each key, with '_'
# written '-', is the flag name.
SETTINGS = {
    "omega0": Setting(float, 3.0, "confinement frequency"),
    "lambda": Setting(float, 0.375, "coupling strength in [0, 0.5)"),
    "Lambda": Setting(float, 2.0 / 9.0, "signed pulse strength"),
    "beta": Setting(float, 3.0, "inverse pulse transition time"),
    "beta_min": Setting(float, FIGURE_BETA_MIN, "sweep grid lower edge"),
    "beta_max": Setting(float, FIGURE_BETA_MAX, "sweep grid upper edge"),
    "beta_points": Setting(int, FIGURE_BETA_POINTS, "sweep grid size"),
    "rtol": Setting(float, 1e-10, "summed with atol into the bound on each "
                    "integrator step's scaled half-step difference"),
    "atol": Setting(float, 1e-12, "summed with rtol into the bound on each "
                    "integrator step's scaled half-step difference"),
    "out": Setting(str, None, "output path (default: stdout)"),
    "format": Setting(str, "csv", "output format", ("csv", "json")),
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _config_echo(cfg: dict, command: str) -> list[str]:
    # every setting but the destination, so content does not depend on it
    return [f"pairpulse {__version__} {command}"] + [
        f"{key} = {_fmt(cfg[key])}" for key in SETTINGS if key != "out"
    ]


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    tmp = path + ".part"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: dict, command: str, columns: list[str], rows) -> None:
    """Write ``rows`` (tuples, at least one) under the provenance header.  One
    ``%``-template formats each csv row; it is built from the first row by
    ``_fmt``'s rule: ``%.17g`` for a float cell, ``%s`` for any other."""
    comments = _config_echo(cfg, command)
    if cfg["format"] == "csv":
        parts = [f"# {line}\n" for line in comments]
        parts.append(",".join(columns) + "\n")
        # "%.17g" % v is format(v, ".17g") and "%s" % v is str(v)
        template = ",".join(["%.17g" if isinstance(v, float) else "%s" for v in rows[0]]) + "\n"
        parts += [template % row for row in rows]
        _write_text(cfg["out"], "".join(parts))
    else:
        import json  # only here: a csv command does not pay for its import

        # json writes tuples, NamedTuples included, as lists
        payload = {"provenance": comments, "columns": columns, "rows": rows}
        _write_text(cfg["out"], json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _model(cfg: dict):
    return derive_modes(ModelParams(cfg["omega0"], cfg["lambda"]))


def _pulse(cfg: dict, beta: float | None = None) -> Pulse:
    return Pulse(
        Lambda=cfg["Lambda"],
        beta=cfg["beta"] if beta is None else beta,
        omega0=cfg["omega0"],
    )


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """n evenly spaced points from start to stop: start + i*step, the last one stop.

    The arithmetic of ``np.linspace``, so the points are the same floats.
    """
    step = (stop - start) / (n - 1)
    points = [start + i * step for i in range(n)]
    points[-1] = stop
    return points


def _beta_grid(lo: float, hi: float, n: int) -> list[float]:
    """n log-spaced points from lo to hi: ``10.0 ** y`` over the linspace of
    the decimal logs, with the ends set to lo and hi.

    The arithmetic of ``np.geomspace``, but with libm ``pow`` in place of
    ``np.power``; on the figure grids the two differ by at most 1 ulp, and
    ``pow`` is the correctly rounded one where they do.
    """
    if not (0 < lo < hi < math.inf and n >= 2):
        raise ValueError(f"bad beta grid: [{lo}, {hi}] with {n} points")
    points = [10.0 ** y for y in _linspace(math.log10(lo), math.log10(hi), n)]
    points[0], points[-1] = lo, hi
    return points


def _cmd_modes(cfg: dict) -> None:
    m = _model(cfg)
    columns = ["omega0", "lambda", "omega1", "omega2", "omega_e", "omega_w", "omega_d",
               "D", "Z", "E0", "C1"]
    row = (m.params.omega0, m.params.lam, m.omega1, m.omega2, m.omega_e, m.omega_w,
           m.omega_d, m.D, m.Z, m.E0, m.C1)
    _emit(cfg, "modes", columns, [row])


def _cmd_static(cfg: dict) -> None:
    m = _model(cfg)
    k_max = 40
    spec = occupation_spectrum(m, k_max)
    ent = entropies(spec, renyi_orders=(2.0,))
    columns = ["k", "occupation"]
    rows = list(enumerate(spec.weights))
    rows.append(("tail", spec.tail_mass))
    rows.append(("S_vN", ent.von_neumann))
    rows.append(("S_2", ent.renyi[0]))
    _emit(cfg, "static", columns, rows)


def _cmd_evolve(cfg: dict) -> None:
    from .dynamics import integrate_mode, trajectory_table

    m = _model(cfg)
    pulse = _pulse(cfg)
    check_admissible(m, pulse)
    columns = ["omega", "t", "B", "Bdot", "gamma"]
    rows = []
    for om in (m.omega1, m.omega2):
        traj = integrate_mode(om, pulse, rtol=cfg["rtol"], atol=cfg["atol"])
        rows += [(om, *row) for row in trajectory_table(traj, n=2001).tolist()]
    _emit(cfg, "evolve", columns, rows)


def _cmd_shift(cfg: dict) -> None:
    m = _model(cfg)
    rep = energy_shift_report(m, _pulse(cfg))
    columns = ["lambda" if f == "lam" else f for f in rep._fields]
    _emit(cfg, "shift", columns, [rep])


def _sweep_common(cfg: dict, command: str, Lambda: float, grid: list[float]) -> None:
    cfg = {**cfg, "Lambda": Lambda}  # echo the strength actually swept
    modes = _model(cfg)
    rows = []
    for beta in grid:
        rep = energy_shift_report(modes, _pulse(cfg, beta=beta))
        rows.append((rep.beta, rep.exact, rep.hf, rep.ks, rep.natural))
    _emit(cfg, command, ["beta", "exact", "hf", "ks", "natural"], rows)


def _cmd_sweep(cfg: dict) -> None:
    grid = _beta_grid(cfg["beta_min"], cfg["beta_max"], cfg["beta_points"])
    _sweep_common(cfg, "sweep", cfg["Lambda"], grid)


def _cmd_figure(cfg: dict, which: int) -> None:
    if which in (1, 2):
        grid = _beta_grid(FIGURE_BETA_MIN, FIGURE_BETA_MAX, FIGURE_BETA_POINTS)
        Lambda = FIGURE_LAMBDA if which == 1 else -FIGURE_LAMBDA
        _sweep_common(cfg, f"figure{which}", Lambda, grid)
        return
    cfg = {**cfg, "Lambda": FIGURE_LAMBDA}  # drive magnitude, applied both-signed
    modes = _model(cfg)
    v_grid = _linspace(FIGURE3_V_MIN, FIGURE3_V_MAX, FIGURE3_V_POINTS)
    rows = sign_effect_rows(modes, FIGURE_LAMBDA, v_grid)
    zeros = [v for v, ratio in rows if math.isnan(ratio)]
    if zeros:
        raise ValueError(
            f"sign-effect ratio undefined at v = {', '.join(_fmt(v) for v in zeros)}: "
            "the +|Lambda| shift vanishes there (shift zero)"
        )
    _emit(cfg, "figure3", ["v", "ratio"], rows)


def _cmd_validate(cfg: dict) -> int:
    # the registry runs on the reference model; validate reads no settings
    from .validate import run_validation

    results = run_validation()
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


_MODEL = ("omega0", "lambda")
_OUTPUT = ("out", "format")

# command: (handler, settings it reads, help).  Each handler takes every
# setting and returns an exit code or None (for 0).  A command that reads no
# settings takes no options.
COMMANDS = {
    "modes": (_cmd_modes, _MODEL + _OUTPUT, "derived frequency table"),
    "static": (_cmd_static, _MODEL + _OUTPUT, "occupation spectrum and entropies"),
    "evolve": (_cmd_evolve, _MODEL + ("Lambda", "beta", "rtol", "atol") + _OUTPUT,
               "dense mode trajectories"),
    "shift": (_cmd_shift, _MODEL + ("Lambda", "beta") + _OUTPUT, "energy-shift report"),
    "sweep": (_cmd_sweep, _MODEL + ("Lambda", "beta_min", "beta_max", "beta_points") + _OUTPUT,
              "shift totals over a beta grid"),
    "figure": (_cmd_figure, _MODEL + _OUTPUT, "fixed figure data tables"),
    "validate": (_cmd_validate, (), "run the invariant registry (no options)"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pairpulse",
        description="Driven correlated two-particle trap model: data tables and validation",
    )
    parser.add_argument("--version", action="version", version=f"pairpulse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, reads, help_text) in COMMANDS.items():
        cmd = sub.add_parser(command, help=help_text)
        for key in reads:
            setting = SETTINGS[key]
            cmd.add_argument("--" + key.replace("_", "-"), type=setting.type,
                             default=setting.default, choices=setting.choices,
                             help=setting.help)
    sub.choices["figure"].add_argument("which", type=int, choices=(1, 2, 3), help="figure number")
    return parser


def main(argv=None) -> int:
    if "numpy" not in sys.modules:  # OpenBLAS reads it once, when numpy loads
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = vars(_build_parser().parse_args(argv))
    handler = COMMANDS[args.pop("command")][0]
    # the settings the command reads come from its flags, the rest are echoed
    # at their defaults; what is left of args is figure's `which`
    cfg = {key: args.pop(key, setting.default) for key, setting in SETTINGS.items()}
    try:
        return handler(cfg, **args) or 0
    except IonizationRegimeError as exc:
        print(f"pairpulse: inadmissible drive: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"pairpulse: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"pairpulse: integration failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
