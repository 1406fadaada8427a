"""The four benchmark workloads.

Each workload makes a fixed list of ops from the seed (one "pass"), sets
up what the ops need, runs one op, and checks its output.  The runner
repeats whole passes, so every run of one seed does the same work in the
same proportions, and the list's hash proves it.

Why these four:

* ``cli_cold``: what a user waits for.  Interpreter start and imports are
  most of each op, so import-time work shows here and nowhere else.
* ``closed_form``: the per-call cost of the closed-form path (reflection,
  shifts, ladder, spectrum), warm and in-process; bypasses the ODE.
* ``ode_reflect``: the integrator, whose step count grows like 1/beta;
  bypasses the dense-read helpers except the 512 reads of the fit.
* ``onematrix_dense``: dense reads of already integrated trajectories
  (snapshot series, tables, residuals); integration is in set-up only.

``tail_percentile`` is the highest step of the runner's ladder that left
well over ten samples beyond it in a 25-second run when it was chosen; a
run with fewer samples steps down the ladder and reports the step used.
"""

from __future__ import annotations

import hashlib
import math
import random
import subprocess
import sys
import types

CLI_COMMANDS = ("modes", "shift", "figure1", "figure2", "figure3", "sweep", "evolve", "validate")

# Data rows each command prints (validate prints a table and a summary).
CLI_ROWS = {
    "modes": 1,
    "shift": 1,
    "figure1": 256,
    "figure2": 256,
    "figure3": 81,
    "sweep": 1024,
    "evolve": 2 * 2001,
}

SHIFT_KINDS = ("exact", "hf", "ks", "natural")

# Figure-shaped grids: figures 1/2 sweep beta, figure 3 sweeps velocity.
FIGURE_BETAS = (0.25, 10.0, 256)
FIGURE3_VELOCITIES = (4.0, 12.0, 81)


# The public pairpulse functions the library workloads call, by module.
LIBRARY_FUNCTIONS = {
    "model": ("derive_modes", "occupation_spectrum", "entropies"),
    "observables": ("energy_shift_report", "total_shift", "overlap", "born_shift",
                    "sudden_shift", "transition_weights", "statistical_shift",
                    "berry_connection"),
    "collision": ("sign_effect_ratio",),
    "dynamics": ("analytic_reflection", "integrate_mode", "extract_reflection",
                 "snapshot_series", "trajectory_table", "continuity_residual",
                 "energy_expectation_ks", "effective_potential"),
}


class CheckFailed(Exception):
    """An op's output broke the workload's correctness check."""


class _Library:
    """A workload that calls the package in this process."""

    in_process = True

    def bind(self, tracer):
        """The functions the ops call, each wrapped by ``tracer`` as ``<module>.<name>``."""
        import importlib

        return types.SimpleNamespace(**{
            fn: tracer.wrap(f"{layer}.{fn}", getattr(importlib.import_module(f"pairpulse.{layer}"), fn))
            for layer, names in LIBRARY_FUNCTIONS.items()
            for fn in names
        })

    def pass_counts(self, counts) -> dict:
        return {}


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"pairpulse-bench/{name}/{seed}")


def _strata(rng: random.Random, n: int) -> list:
    """n uniform draws on [0, 1), one per stratum, in shuffled order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _bound(lam: float) -> float:
    """Admissible |Lambda| bound (omega2/omega0)^2 of a model."""
    return 1.0 - 2.0 * lam


class ClosedForm(_Library):
    """One op: every closed-form observable at one seeded model point."""

    name = "closed_form"
    tail_percentile = 95.0
    ops_per_pass = 16
    oracle_samples = 8

    def generate(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        n = self.ops_per_pass
        ops = []
        for w, l, m, s, b in zip(*(_strata(rng, n) for _ in range(5))):
            lam = 0.02 + 0.43 * l
            omega0 = 1.5 + 2.5 * w
            oracle = [
                (rng.randrange(5), rng.choice((-1.0, 1.0)), _log_uniform(rng.random(), 0.25, 10.0))
                for _ in range(self.oracle_samples)
            ]
            ops.append({
                "omega0": omega0,
                "lam": lam,
                "Lambda_mag": (0.1 + 0.8 * m) * _bound(lam),
                "sign": 1.0 if s < 0.5 else -1.0,
                "beta": _log_uniform(b, 0.25, 10.0),
                "oracle": oracle,
            })
        return ops

    def setup(self, ops):
        import numpy as np

        from pairpulse import ModelParams, Pulse

        betas = np.geomspace(*FIGURE_BETAS)
        self.velocities = np.linspace(*FIGURE3_VELOCITIES)
        prepared = []
        for op in ops:
            w0, mag = op["omega0"], op["Lambda_mag"]
            prepared.append({
                "params": ModelParams(w0, op["lam"]),
                "sweep": [Pulse(Lambda=s * mag, beta=float(b), omega0=w0)
                          for s in (1.0, -1.0) for b in betas],
                "Lambda_mag": mag,
                "pulse": Pulse(Lambda=op["sign"] * mag, beta=op["beta"], omega0=w0),
                "oracle": [(k, Pulse(Lambda=s * mag, beta=b, omega0=w0)) for k, s, b in op["oracle"]],
            })
        return prepared

    def run(self, op):
        api = self.api
        modes = api.derive_modes(op["params"])
        freqs = (modes.omega1, modes.omega2)
        pulse = op["pulse"]
        reflections = [api.analytic_reflection(om, pulse).R for om in freqs]
        ladders = [api.statistical_shift(api.transition_weights(R), om)
                   for R, om in zip(reflections, freqs)]
        spectrum = api.occupation_spectrum(modes, 40)
        all_freqs = (modes.omega1, modes.omega2, modes.omega_e, modes.omega_d, modes.omega_w)
        return {
            "modes": modes,
            "sweep": [api.energy_shift_report(modes, p) for p in op["sweep"]],
            "ratio": api.sign_effect_ratio(modes, op["Lambda_mag"], self.velocities),
            "totals": [api.total_shift(modes, pulse, kind) for kind in SHIFT_KINDS],
            "overlaps": [api.overlap(modes, pulse, kind) for kind in ("exact", "ks")],
            "born": [api.born_shift(om, pulse) for om in freqs],
            "sudden": [api.sudden_shift(om, pulse) for om in freqs],
            "reflections": reflections,
            "ladders": ladders,
            "entropies": api.entropies(spectrum, (2.0,)),
            "oracle": [(all_freqs[k], p, api.analytic_reflection(all_freqs[k], p).R)
                       for k, p in op["oracle"]],
        }

    def check(self, op, out) -> dict:
        for R, om, ladder in zip(out["reflections"], (out["modes"].omega1, out["modes"].omega2),
                                 out["ladders"]):
            if not 0.0 <= R < 1.0:
                raise CheckFailed(f"R = {R} outside [0, 1)")
            if abs(ladder / om - R / (1.0 - R)) >= 1e-10:
                raise CheckFailed(f"ladder sum {ladder / om} != R/(1-R) = {R / (1.0 - R)}")
        # Closed-form shifts, and the sudden expansion where it claims validity.
        # The ladder sum is a truncated series checked above against R/(1-R);
        # for R near 1e-17 its "sum - 1/2" cancels to about -2e-16.
        shifts = {f"total_shift({k})": v for k, v in zip(SHIFT_KINDS, out["totals"])}
        shifts.update({f"born_shift(mode {i + 1})": v for i, v in enumerate(out["born"])})
        shifts.update({f"sudden_shift(mode {i + 1})": s.value
                       for i, s in enumerate(out["sudden"]) if s.valid})
        for j, rep in enumerate(out["sweep"]):
            for field in ("shift_mode1", "shift_mode2", "exact", "hf", "ks", "natural"):
                shifts[f"sweep[{j}].{field}"] = getattr(rep, field)
        negative = {k: v for k, v in shifts.items() if not v >= 0.0}
        if negative:
            raise CheckFailed(f"negative energy shift: {negative}")
        if not all(0.0 < o <= 1.0 for o in out["overlaps"]):
            raise CheckFailed(f"overlap outside (0, 1]: {out['overlaps']}")
        if out["ratio"].shape != (FIGURE3_VELOCITIES[2], 2) or not all(
            math.isfinite(float(v)) for v in out["ratio"].ravel()
        ):
            raise CheckFailed("sign-effect table has the wrong shape or non-finite values")
        ent = out["entropies"]
        if not (ent.von_neumann >= 0.0 and all(math.isfinite(r) for r in ent.renyi)):
            raise CheckFailed("entropies out of range")
        for om, pulse, R in out["oracle"]:
            exact = _sech2_reflection(om, pulse)
            if abs(R - exact) >= 1e-13:
                raise CheckFailed(f"|R - R_mpmath| = {abs(R - exact):.3e} at Omega={om}, {pulse}")
        return {}


def _sech2_reflection(om: float, pulse) -> float:
    """Closed-form sech^2 reflection coefficient at 50 digits.

    rho = cos^2[(pi/2) sqrt(1 + Lambda omega0^2 / beta^2)] / sinh^2[(pi/2) Omega/beta],
    R = rho / (1 + rho); a negative radicand turns cos into cosh.
    """
    import mpmath

    with mpmath.workdps(50):
        radicand = 1 + mpmath.mpf(pulse.Lambda) * mpmath.mpf(pulse.omega0) ** 2 / mpmath.mpf(pulse.beta) ** 2
        c = mpmath.cos(mpmath.pi / 2 * mpmath.sqrt(radicand))
        rho = abs(c) ** 2 / mpmath.sinh(mpmath.pi / 2 * mpmath.mpf(om) / mpmath.mpf(pulse.beta)) ** 2
        return float(rho / (1 + rho))


class OdeReflect(_Library):
    """One op: integrate one mode under one pulse and extract R."""

    name = "ode_reflect"
    tail_percentile = 90.0
    # The op cost grows like Omega/beta over two decades of beta, so random
    # beta draws move a pass's cost and median by 10-20% from one seed to
    # the next.  Beta therefore sits on the midpoints of equal log strata
    # of [0.1, 10], and every node runs both modes of the reference model
    # (omega0 = 3, lam = 0.375: Omega = 3 and 1.5, |Lambda| < 1/4) under
    # both signs.  The seed draws each pulse's strength.
    beta_nodes = 12
    omega0 = 3.0
    modes = (3.0, 1.5)
    Lambda_bound = 0.25

    def generate(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        # Largest beta first: the first op is the warm-up, and a cheap one.
        return [
            {
                "Omega": om,
                "omega0": self.omega0,
                "Lambda": sign * 0.9 * self.Lambda_bound * (1.0 - rng.random()),
                "beta": _log_uniform((i + 0.5) / self.beta_nodes, 0.1, 10.0),
            }
            for i in reversed(range(self.beta_nodes))
            for om in self.modes
            for sign in (1.0, -1.0)
        ]

    def setup(self, ops):
        from pairpulse import Pulse, analytic_reflection

        prepared = []
        for op in ops:
            pulse = Pulse(Lambda=op["Lambda"], beta=op["beta"], omega0=op["omega0"])
            # Reference values, outside any timed op.
            prepared.append((op["Omega"], pulse, analytic_reflection(op["Omega"], pulse).R))
        return prepared

    def run(self, op):
        om, pulse, _ = op
        traj = self.api.integrate_mode(om, pulse)
        return len(traj.t), self.api.extract_reflection(traj).R

    def check(self, op, out) -> dict:
        steps, R = out
        dR = abs(R - op[2])
        if not dR < 1e-6:
            raise CheckFailed(f"|R_ode - R_analytic| = {dR:.3e} at Omega={op[0]}, {op[1]}")
        return {"steps": steps, "dR": dR}

    def pass_counts(self, counts) -> dict:
        return {
            "dynamics.integrate_mode.steps": sum(c["steps"] for c in counts),
            "dynamics.extract_reflection.max_abs_dR": max(c["dR"] for c in counts),
        }


class OneMatrixDense(_Library):
    """One op: dense reads of one integrated trajectory pair."""

    name = "onematrix_dense"
    tail_percentile = 90.0
    pairs = 4
    snapshots = 1201
    probe_times = 4
    probe_candidates = 16
    # The tolerances at which the program's own continuity criterion holds
    # (acceptance criterion 08 and `validate` integrate with these).
    tolerances = {"rtol": 1e-11, "atol": 1e-13}
    # Time step of continuity_residual's 5-point d_t n.  Its truncation error
    # grows like dt^4 and reached 2e-6 at the default 5e-3 under strong, fast
    # pulses; the cost does not depend on it.
    residual_dt = 2.5e-3

    def generate(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        n = self.pairs
        ops = []
        # Beta sets the trajectory length and with it the cost of a dense read,
        # so it sits on the midpoints of equal log strata of [0.5, 4], as in
        # ode_reflect; the seed draws the model, the strength and the times.
        for k, (w, l, m) in enumerate(zip(*(_strata(rng, n) for _ in range(3)))):
            lam = 0.05 + 0.35 * l
            ops.append({
                "omega0": 1.5 + 2.0 * w,
                "lam": lam,
                "Lambda": (1.0 if k % 2 == 0 else -1.0) * (0.1 + 0.8 * m) * _bound(lam),
                "beta": _log_uniform((k + 0.5) / n, 0.5, 4.0),
                "window": rng.random(),
                "probes": [rng.random() for _ in range(self.probe_candidates)],
            })
        return ops

    def setup(self, ops):
        import numpy as np

        from pairpulse import ModelParams, Pulse, derive_modes, integrate_mode

        prepared = []
        for op in ops:
            modes = derive_modes(ModelParams(op["omega0"], op["lam"]))
            pulse = Pulse(Lambda=op["Lambda"], beta=op["beta"], omega0=op["omega0"])
            t1 = integrate_mode(modes.omega1, pulse, **self.tolerances)
            t2 = integrate_mode(modes.omega2, pulse, **self.tolerances)
            # The window holds a fixed number of snapshots at the default
            # spacing; the seed places it so that it overlaps the pulse.
            spacing = min(0.01 / modes.omega1, 0.02 / pulse.beta)
            length = (self.snapshots - 1) * spacing
            lo, hi = max(t1.t_start, t2.t_start) + 0.05, min(t1.t_end, t2.t_end) - 0.05 - length
            t_min = min(hi, max(lo, pulse.t0 - length * (0.25 + 0.5 * op["window"])))
            idx = [2 + int(u * (self.snapshots - 4)) for u in op["probes"][:self.probe_times]]
            probes = self.probes(modes, pulse, t1, t2, op["probes"])
            width = 8.0 / math.sqrt(modes.omega_d)
            prepared.append({
                "modes": modes,
                "pulse": pulse,
                "trajs": (t1, t2),
                "window": (t_min, t_min + (self.snapshots - 0.5) * spacing),
                "probes": probes,
                "idx": idx,
                "x": np.linspace(-width, width, 256),
            })
        return prepared

    def probes(self, modes, pulse, t1, t2, candidates) -> list:
        """Continuity and Berry probe times: the best conditioned of the candidates.

        Candidates sit inside the pulse, |t - t0| < 1/beta, where the density
        moves.  ``continuity_residual`` divides by max |d_t n|, which vanishes
        wherever omega_d(t) is stationary: before the pulse and at its turning
        points inside it.  There the relative residual is rounding and
        integration error over almost nothing, so the probes are the
        candidates where |d omega_d/dt| is largest.
        """
        from pairpulse.dynamics import onematrix_snapshot

        def rate(t, h=1e-4):
            ahead, behind = (onematrix_snapshot(modes, t1, t2, t + s).omega_d_t for s in (h, -h))
            return abs(ahead - behind) / (2.0 * h)

        times = [pulse.t0 + (2.0 * u - 1.0) / pulse.beta for u in candidates]
        return sorted(times, key=rate, reverse=True)[:self.probe_times]

    def run(self, op):
        api = self.api
        modes, pulse, (t1, t2), x = op["modes"], op["pulse"], op["trajs"], op["x"]
        series = api.snapshot_series(modes, t1, t2, *op["window"])
        at = [float(series.times[i]) for i in op["idx"]]
        return {
            "series": series,
            "tables": [api.trajectory_table(tr, n=2001) for tr in (t1, t2)],
            "residuals": [api.continuity_residual(modes, t1, t2, t, x, dt=self.residual_dt)
                          for t in op["probes"]],
            "energies": [api.energy_expectation_ks(series, t) for t in at],
            "potentials": [api.effective_potential(series, x, t, variant)
                           for t in at for variant in ("inverted", "preoptimized")],
            "berry": [api.berry_connection(tr, pulse, t) for tr in (t1, t2) for t in op["probes"]],
        }

    def check(self, op, out) -> dict:
        import numpy as np

        snaps = out["series"].snapshots
        if len(snaps) != self.snapshots:
            raise CheckFailed(f"{len(snaps)} snapshots, expected {self.snapshots}")
        for s in snaps:
            if not (s.D_t >= 0.0 and 0.0 <= s.Z_t < 1.0):
                raise CheckFailed(f"D_t = {s.D_t}, Z_t = {s.Z_t} at t = {s.t}")
        worst = max(out["residuals"])
        if not worst < 1e-6:
            raise CheckFailed(f"continuity residual {worst:.3e} >= 1e-6")
        for table in out["tables"]:
            if table.shape != (2001, 4) or not np.all(np.isfinite(table)):
                raise CheckFailed("trajectory table has the wrong shape or non-finite values")
        values = out["energies"] + out["berry"]
        if not all(math.isfinite(v) and v > 0.0 for v in values):
            raise CheckFailed("non-finite or non-positive energy or Berry connection")
        if not all(np.all(np.isfinite(v)) for v in out["potentials"]):
            raise CheckFailed("non-finite effective potential")
        return {}


class CliCold:
    """One op: one cold ``python -m pairpulse.cli <cmd>`` subprocess."""

    name = "cli_cold"
    # A run holds only a few cycles of the 8 commands: too few samples for
    # any tail above the median.
    tail_percentile = 50.0
    in_process = False

    def generate(self, seed: int) -> list:
        rng = _rng(self.name, seed)
        lam = 0.05 + 0.3 * rng.random()
        model = ["--omega0", repr(1.5 + 2.0 * rng.random()), "--lambda", repr(lam)]

        def strength():
            mag = (0.1 + 0.8 * rng.random()) * _bound(lam)
            return ["--Lambda", repr(rng.choice((-1.0, 1.0)) * mag)]

        shift = strength() + ["--beta", repr(_log_uniform(rng.random(), 0.25, 10.0))]
        sweep = strength()
        evolve = strength() + ["--beta", repr(_log_uniform(rng.random(), 0.5, 4.0))]
        return [
            ["modes"] + model,
            ["shift"] + model + shift,
            ["figure", "1"] + model,
            ["figure", "2"] + model,
            ["figure", "3"] + model,
            ["sweep", "--beta-points", "1024"] + model + sweep,
            ["evolve"] + model + evolve,
            ["validate"],
        ]

    def bind(self, tracer):
        return tracer

    def setup(self, ops):
        self.digests = {}
        return [(name, argv) for name, argv in zip(CLI_COMMANDS, ops)]

    def spawn(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "pairpulse.cli", *argv],
            capture_output=True, timeout=120,
        )

    def run(self, op):
        name, argv = op
        return self.api.call(f"cli.{name}.cold", self.spawn, argv)

    def check(self, op, proc) -> dict:
        name, _ = op
        if proc.returncode != 0:
            raise CheckFailed(f"{name} exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
        lines = proc.stdout.decode().splitlines()
        if name == "validate":
            passed, total = lines[-1].split()[0].split("/")
            if passed != total:
                raise CheckFailed(f"validate: {lines[-1]}")
        else:
            rows = [ln for ln in lines if not ln.startswith("#")][1:]
            if len(rows) != CLI_ROWS[name]:
                raise CheckFailed(f"{name}: {len(rows)} rows, expected {CLI_ROWS[name]}")
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if self.digests.setdefault(name, digest) != digest:
            raise CheckFailed(f"{name}: output differs from an earlier run with the same arguments")
        return {"bytes_out": len(proc.stdout), "command": name}

    def pass_counts(self, counts) -> dict:
        return {f"cli.{c['command']}.bytes_out": c["bytes_out"] for c in counts}

    def warm_times(self, ops, repeats: int = 3) -> dict:
        """Median in-process ``pairpulse.cli.main`` time per command, after one warm-up call.

        The in-process output must match the cold subprocess output byte for byte.
        """
        import contextlib
        import io
        import statistics
        import time

        from pairpulse import cli

        out = {}
        for name, argv in ops:
            times = []
            for k in range(repeats + 1):
                sink = io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(sink):
                    code = cli.main(argv)
                elapsed = time.perf_counter() - start
                if code != 0:
                    raise CheckFailed(f"in-process {name} returned {code}")
                if hashlib.sha256(sink.getvalue().encode()).hexdigest() != self.digests.get(name):
                    raise CheckFailed(f"in-process {name} output differs from the subprocess output")
                if k:
                    times.append(elapsed)
            out[f"cli.{name}.warm_s"] = statistics.median(times)
        return out
