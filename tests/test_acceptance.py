"""Acceptance suite: the invariant registry of ``pairpulse.validate`` at
its quick inputs, then one test per release criterion at its stated
tolerance, each printing one PASS/FAIL line (run with -s to see them on a
green suite).  Criteria 01, 02, 06, 07, 08, 09 and 12 call the registry's
check functions on larger inputs and keep their own timing gates."""

import math
import time

import numpy as np
import pytest

from pairpulse import ModelParams, Pulse, derive_modes, total_shift
from pairpulse.cli import main as cli_main
from pairpulse.dynamics import integrate_mode
from pairpulse.collision import sign_effect_ratio
from pairpulse.validate import (
    CHECKS,
    check_berry_limits,
    check_continuity,
    check_frequency_table,
    check_reflection_agreement,
    check_shift_zero,
    check_spectral_oracle,
    check_weight_ladder,
)

from conftest import BETA_GRID, LAM, LAMBDA, MODE_GRID, OMEGA0

FIGURE_BETAS = np.geomspace(0.25, 10.0, 256)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def modes():
    return derive_modes(ModelParams(OMEGA0, LAM))


@pytest.fixture(scope="module")
def reflection_grid():
    """ODE trajectories over the 50-point grid, with wall time."""
    start = time.perf_counter()
    trajs = []
    for sign in (1.0, -1.0):
        for beta in BETA_GRID:
            pulse = Pulse(Lambda=sign * LAMBDA, beta=beta, omega0=OMEGA0)
            trajs.extend(integrate_mode(om, pulse) for om in MODE_GRID)
    return trajs, time.perf_counter() - start


@pytest.mark.parametrize("name, check", CHECKS, ids=[name for name, _ in CHECKS])
def test_validate_registry(name, check, modes_ref, traj_pair_ref):
    ok, detail = check(modes_ref, lambda: traj_pair_ref)
    print(f"VALIDATE {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_01_frequency_table():
    derive_modes(ModelParams(OMEGA0, LAM))  # warm-up
    start = time.perf_counter()
    m = derive_modes(ModelParams(OMEGA0, LAM))
    elapsed = time.perf_counter() - start
    ok, detail = check_frequency_table(m)
    _report(1, "frequency table", ok and elapsed < 1e-3, f"{detail} in {elapsed * 1e6:.0f} us")


def test_criterion_02_analytic_vs_ode_reflection(reflection_grid):
    trajs, elapsed = reflection_grid
    start = time.perf_counter()
    ok, detail = check_reflection_agreement(trajs)
    elapsed += time.perf_counter() - start
    _report(
        2,
        "analytic vs ODE reflection",
        ok and elapsed < 30.0,
        f"{detail} over {len(trajs)} points in {elapsed:.1f} s",
    )


def test_criterion_03_model_ordering(modes):
    ok = True
    for sign in (1.0, -1.0):
        for beta in FIGURE_BETAS:
            pulse = Pulse(Lambda=sign * LAMBDA, beta=float(beta), omega0=OMEGA0)
            hf = total_shift(modes, pulse, "hf")
            nat = total_shift(modes, pulse, "natural")
            ks = total_shift(modes, pulse, "ks")
            if not (hf < nat < ks):
                ok = False
                break
    _report(3, "reference-model ordering", ok, "hf < natural < ks on both figure grids")


def test_criterion_04_crossing(modes):
    brackets = []
    for sign in (1.0, -1.0):
        diffs = []
        for beta in FIGURE_BETAS:
            pulse = Pulse(Lambda=sign * LAMBDA, beta=float(beta), omega0=OMEGA0)
            diffs.append(total_shift(modes, pulse, "exact") - total_shift(modes, pulse, "ks"))
        diffs = np.asarray(diffs)
        flips = np.nonzero(np.sign(diffs[:-1]) != np.sign(diffs[1:]))[0]
        if len(flips) != 1:
            _report(4, "exact/ks crossing", False, f"{len(flips)} sign changes")
        lo, hi = FIGURE_BETAS[flips[0]], FIGURE_BETAS[flips[0] + 1]
        brackets.append((lo, hi))
    ok = all(2.81 <= lo and hi <= 2.91 for lo, hi in brackets)
    detail = ", ".join(f"[{lo:.3f}, {hi:.3f}]" for lo, hi in brackets)
    _report(4, "exact/ks crossing", ok, f"brackets {detail} for both drive signs")


def test_criterion_05_sudden_asymptotics(modes):
    rels = []
    for beta in (20.0, 50.0, 100.0):
        pulse = Pulse(Lambda=LAMBDA, beta=beta, omega0=OMEGA0)
        exact = total_shift(modes, pulse, "exact")
        ks = total_shift(modes, pulse, "ks")
        rels.append(abs(exact - ks) / exact)
    ok = rels[0] > rels[1] > rels[2] and rels[2] < 1e-3
    _report(
        5,
        "asymptotic exact/ks equality",
        ok,
        "rel = " + ", ".join(f"{r:.2e}" for r in rels) + " at beta = 20, 50, 100",
    )


def test_criterion_06_interpretation_equivalence():
    ok, detail = check_weight_ladder((0.01, 0.3, 0.8))
    _report(6, "weight-ladder equivalence", ok, detail)


def test_criterion_07_spectral_oracle():
    start = time.perf_counter()
    ok, detail = check_spectral_oracle(
        [derive_modes(ModelParams(OMEGA0, lam)) for lam in (0.1, LAM, 0.45)]
    )
    elapsed = time.perf_counter() - start
    _report(7, "spectral oracle", ok and elapsed < 10.0, f"{detail} in {elapsed:.2f} s")


def test_criterion_08_continuity_equation(modes_ref, traj_pair_ref):
    ok, detail = check_continuity(modes_ref, *traj_pair_ref, np.linspace(-0.5, 8.5, 10))
    _report(8, "continuity equation", ok, f"{detail} at 10 times")


def test_criterion_09_berry_connection_limits(traj_pair_ref):
    ok, detail = check_berry_limits(traj_pair_ref)
    _report(9, "Berry connection limits", ok, f"{detail} for both modes")


def test_criterion_10_sign_effect_figure(modes):
    v_grid = np.linspace(4.0, 12.0, 81)
    table = sign_effect_ratio(modes, LAMBDA, v_grid)
    ratio = table[:, 1]
    low_band = ratio[(v_grid >= 4.0) & (v_grid <= 5.0)]
    ok = (
        bool(np.all(ratio > 0))
        and bool(np.all(np.diff(ratio) < 0))
        and bool(np.all((low_band >= 0.05) & (low_band <= 0.20)))
        and ratio[-1] < 0.02
    )
    _report(
        10,
        "sign-effect ratio figure",
        ok,
        f"ratio(4) = {ratio[0]:.3f}, ratio(5) = {ratio[10]:.3f}, ratio(12) = {ratio[-1]:.4f}",
    )


def test_criterion_11_born_sign_blindness(modes):
    # evaluated on the velocity(= beta) grid of the ratio figure; at larger
    # drive-to-rate ratios the first-order sign term Lambda*omega0^2/beta^2
    # dominates by construction, see the decisions ledger
    table = sign_effect_ratio(modes, 1e-4, np.linspace(4.0, 12.0, 81))
    worst = float(np.max(np.abs(table[:, 1])))
    ok = worst < 1e-3
    _report(11, "Born sign blindness", ok, f"max |dE asymmetry| = {worst:.2e} at |Lambda| = 1e-4")


def test_criterion_12_shift_zeros():
    trajs = []
    for n in (1, 2):
        beta = math.sqrt(LAMBDA * OMEGA0**2 / ((2 * n + 1) ** 2 - 1))
        pulse = Pulse(Lambda=LAMBDA, beta=beta, omega0=OMEGA0)
        trajs.extend(integrate_mode(om, pulse) for om in (OMEGA0, 1.5))
    ok, detail = check_shift_zero(trajs)
    _report(12, "reflection zeros", ok, detail)


def test_criterion_13_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1 = cli_main(["figure", "1", "--out", str(a)])
    rc2 = cli_main(["figure", "1", "--out", str(b)])
    ok = rc1 == 0 and rc2 == 0 and a.read_bytes() == b.read_bytes()
    _report(13, "byte-identical reruns", ok, f"{a.stat().st_size} bytes each")
