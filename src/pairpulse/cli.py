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

Configuration comes from defaults, then an optional flat key=value file
(--config), then command-line flags; flags win.  Output is CSV (default)
or JSON with fixed 17-significant-digit formatting, so identical configs
reproduce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .collision import sign_effect_ratio
from .dynamics import (
    IonizationRegimeError,
    Pulse,
    check_admissible,
    integrate_mode,
    trajectory_table,
)
from .model import ModelParams, derive_modes, entropies, occupation_spectrum
from .observables import energy_shift_report
from .validate import run_validation

FIGURE_BETA_MIN = 0.25
FIGURE_BETA_MAX = 10.0
FIGURE_BETA_POINTS = 256
FIGURE_LAMBDA = 2.0 / 9.0
FIGURE3_V_MIN = 4.0
FIGURE3_V_MAX = 12.0
FIGURE3_V_POINTS = 81


@dataclass(frozen=True)
class ScenarioConfig:
    """Flat run configuration; field names double as config-file keys."""

    omega0: float = 3.0
    lam: float = 0.375
    Lambda: float = 2.0 / 9.0
    beta: float = 3.0
    beta_min: float = FIGURE_BETA_MIN
    beta_max: float = FIGURE_BETA_MAX
    beta_points: int = FIGURE_BETA_POINTS
    rtol: float = 1e-10
    atol: float = 1e-12
    out: str | None = None
    format: str = "csv"


_CONFIG_KEYS = {
    "omega0": ("omega0", float),
    "lambda": ("lam", float),
    "Lambda": ("Lambda", float),
    "beta": ("beta", float),
    "beta_min": ("beta_min", float),
    "beta_max": ("beta_max", float),
    "beta_points": ("beta_points", int),
    "rtol": ("rtol", float),
    "atol": ("atol", float),
    "out": ("out", str),
    "format": ("format", str),
}


def _load_config_file(path: str) -> dict:
    updates = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            field_name, cast = _CONFIG_KEYS[key]
            updates[field_name] = cast(value)
    return updates


def _merge_config(args: argparse.Namespace) -> ScenarioConfig:
    cfg = ScenarioConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **_load_config_file(args.config))
    overrides = {}
    for key, (field_name, _) in _CONFIG_KEYS.items():
        val = getattr(args, field_name, None)
        if val is not None:
            overrides[field_name] = val
    if overrides:
        cfg = replace(cfg, **overrides)
    if cfg.format not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {cfg.format!r}")
    return cfg


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


_FIELD_TO_KEY = {field_name: key for key, (field_name, _) in _CONFIG_KEYS.items()}


def _config_echo(cfg: ScenarioConfig, command: str) -> list[str]:
    lines = [f"pairpulse {__version__} {command}"]
    for f in fields(cfg):
        if f.name == "out":  # content must not depend on the destination
            continue
        lines.append(f"{_FIELD_TO_KEY[f.name]} = {_fmt(getattr(cfg, f.name))}")
    return lines


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


def _emit(cfg: ScenarioConfig, command: str, columns: list[str], rows) -> None:
    comments = _config_echo(cfg, command)
    if cfg.format == "csv":
        parts = [f"# {line}\n" for line in comments]
        parts.append(",".join(columns) + "\n")
        for row in rows:
            parts.append(",".join(_fmt(v) for v in row) + "\n")
        _write_text(cfg.out, "".join(parts))
    else:
        payload = {
            "provenance": comments,
            "columns": columns,
            "rows": [[v for v in row] for row in rows],
        }
        _write_text(cfg.out, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _model(cfg: ScenarioConfig):
    return derive_modes(ModelParams(cfg.omega0, cfg.lam))


def _pulse(cfg: ScenarioConfig, beta: float | None = None) -> Pulse:
    return Pulse(
        Lambda=cfg.Lambda,
        beta=cfg.beta if beta is None else beta,
        omega0=cfg.omega0,
    )


def _beta_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not (lo > 0 and hi > lo and n >= 2):
        raise ValueError(f"bad beta grid: [{lo}, {hi}] with {n} points")
    return np.geomspace(lo, hi, n)


def _cmd_modes(cfg: ScenarioConfig) -> None:
    m = _model(cfg)
    columns = ["omega0", "lambda", "omega1", "omega2", "omega_e", "omega_w", "omega_d",
               "D", "Z", "E0", "C1"]
    row = (m.params.omega0, m.params.lam, m.omega1, m.omega2, m.omega_e, m.omega_w,
           m.omega_d, m.D, m.Z, m.E0, m.C1)
    _emit(cfg, "modes", columns, [row])


def _cmd_static(cfg: ScenarioConfig) -> None:
    m = _model(cfg)
    k_max = 40
    spec = occupation_spectrum(m, k_max)
    ent = entropies(spec, renyi_orders=(2.0,))
    columns = ["k", "occupation"]
    rows = [(int(k), float(p)) for k, p in enumerate(spec.weights)]
    rows.append(("tail", spec.tail_mass))
    rows.append(("S_vN", ent.von_neumann))
    rows.append(("S_2", ent.renyi[0]))
    _emit(cfg, "static", columns, rows)


def _cmd_evolve(cfg: ScenarioConfig) -> None:
    m = _model(cfg)
    pulse = _pulse(cfg)
    check_admissible(m, pulse)
    columns = ["omega", "t", "B", "Bdot", "gamma"]
    rows = []
    for om in (m.omega1, m.omega2):
        traj = integrate_mode(om, pulse, rtol=cfg.rtol, atol=cfg.atol)
        for t, B, Bdot, gamma in trajectory_table(traj, n=2001):
            rows.append((om, t, B, Bdot, gamma))
    _emit(cfg, "evolve", columns, rows)


def _cmd_shift(cfg: ScenarioConfig) -> None:
    m = _model(cfg)
    rep = energy_shift_report(m, _pulse(cfg))
    record = rep.as_record()
    _emit(cfg, "shift", list(record.keys()), [tuple(record.values())])


def _sweep_common(cfg: ScenarioConfig, command: str, Lambda: float, grid: np.ndarray) -> None:
    cfg = replace(cfg, Lambda=Lambda)  # echo the strength actually swept
    modes = _model(cfg)
    rows = []
    for beta in grid:
        rep = energy_shift_report(modes, _pulse(cfg, beta=float(beta)))
        rows.append((rep.beta, rep.exact, rep.hf, rep.ks, rep.natural))
    _emit(cfg, command, ["beta", "exact", "hf", "ks", "natural"], rows)


def _cmd_sweep(cfg: ScenarioConfig) -> None:
    grid = _beta_grid(cfg.beta_min, cfg.beta_max, cfg.beta_points)
    _sweep_common(cfg, "sweep", cfg.Lambda, grid)


def _cmd_figure(cfg: ScenarioConfig, which: int) -> None:
    if which in (1, 2):
        grid = _beta_grid(FIGURE_BETA_MIN, FIGURE_BETA_MAX, FIGURE_BETA_POINTS)
        Lambda = FIGURE_LAMBDA if which == 1 else -FIGURE_LAMBDA
        _sweep_common(cfg, f"figure{which}", Lambda, grid)
        return
    cfg = replace(cfg, Lambda=FIGURE_LAMBDA)  # drive magnitude, applied both-signed
    modes = _model(cfg)
    v_grid = np.linspace(FIGURE3_V_MIN, FIGURE3_V_MAX, FIGURE3_V_POINTS)
    table = sign_effect_ratio(modes, FIGURE_LAMBDA, v_grid)
    zeros = table[np.isnan(table[:, 1]), 0]
    if zeros.size:
        raise ValueError(
            f"sign-effect ratio undefined at v = {', '.join(_fmt(float(v)) for v in zeros)}: "
            "the +|Lambda| shift vanishes there (shift zero)"
        )
    _emit(cfg, "figure3", ["v", "ratio"], [tuple(row) for row in table])


def _cmd_validate() -> int:
    results = run_validation()
    width = max(len(name) for name, _, _ in results)
    for name, ok, detail in results:
        print(f"{name:<{width}}  {'PASS' if ok else 'FAIL'}  {detail}")
    passed = sum(ok for _, ok, _ in results)
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value configuration file")
    common.add_argument("--omega0", type=float, dest="omega0", help="confinement frequency")
    common.add_argument("--lambda", type=float, dest="lam", help="coupling strength in [0, 0.5)")
    common.add_argument("--Lambda", type=float, dest="Lambda", help="signed pulse strength")
    common.add_argument("--beta", type=float, dest="beta", help="inverse pulse transition time")
    common.add_argument("--beta-min", type=float, dest="beta_min", help="sweep grid lower edge")
    common.add_argument("--beta-max", type=float, dest="beta_max", help="sweep grid upper edge")
    common.add_argument("--beta-points", type=int, dest="beta_points", help="sweep grid size")
    common.add_argument("--rtol", type=float, dest="rtol", help="integrator relative tolerance")
    common.add_argument("--atol", type=float, dest="atol", help="integrator absolute tolerance")
    common.add_argument("--out", dest="out", help="output path (default: stdout)")
    common.add_argument("--format", dest="format", choices=("csv", "json"), help="output format")

    parser = argparse.ArgumentParser(
        prog="pairpulse",
        description="Driven correlated two-particle trap model: data tables and validation",
    )
    parser.add_argument("--version", action="version", version=f"pairpulse {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("modes", parents=[common], help="derived frequency table")
    sub.add_parser("static", parents=[common], help="occupation spectrum and entropies")
    sub.add_parser("evolve", parents=[common], help="dense mode trajectories")
    sub.add_parser("shift", parents=[common], help="energy-shift report")
    sub.add_parser("sweep", parents=[common], help="shift totals over a beta grid")
    fig = sub.add_parser("figure", parents=[common], help="fixed figure data tables")
    fig.add_argument("which", type=int, choices=(1, 2, 3), help="figure number")
    sub.add_parser("validate", help="run the invariant registry (no options)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return _cmd_validate()
        cfg = _merge_config(args)
        if args.command == "modes":
            _cmd_modes(cfg)
        elif args.command == "static":
            _cmd_static(cfg)
        elif args.command == "evolve":
            _cmd_evolve(cfg)
        elif args.command == "shift":
            _cmd_shift(cfg)
        elif args.command == "sweep":
            _cmd_sweep(cfg)
        elif args.command == "figure":
            _cmd_figure(cfg, args.which)
        else:  # pragma: no cover - argparse enforces the choices
            raise ValueError(f"unknown command {args.command!r}")
    except IonizationRegimeError as exc:
        print(f"pairpulse: inadmissible drive: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"pairpulse: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"pairpulse: integration failure: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
