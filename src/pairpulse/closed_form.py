"""The closed-form chain, from the model's two mode frequencies to the shifts.

The Hamiltonian separates into a center-of-mass mode at ``omega1 = omega0``
and a relative mode at ``omega2 = omega0*sqrt(1-2*lam)``.  Under a sech^2
pulse each mode reflects with a closed-form coefficient ``R``, and every
asymptotic shift, total and overlap follows from the two ``R`` values.  This
module holds that chain: the model constants, the pulse, the reflection,
the shift totals and the sign-effect rows.  It imports ``math`` alone, so
the commands that only need the closed form start without numpy; the array
code (one-matrix, spectra, integrator) lives in ``model``, ``dynamics``,
``observables`` and ``collision``, which re-export these names.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields
from operator import attrgetter

__all__ = [
    "KINDS",
    "LAMBDA_MAX",
    "ModelParams",
    "ModeSet",
    "derive_modes",
    "mode_frequencies",
    "IonizationRegimeError",
    "Pulse",
    "ReflectionResult",
    "check_admissible",
    "analytic_reflection",
    "EnergyShiftReport",
    "SuddenShift",
    "energy_shift",
    "total_shift",
    "energy_shift_report",
    "born_shift",
    "sudden_shift",
    "overlap",
    "sign_effect_rows",
]

# Coupling strengths lam >= 0.5 make the relative mode unbound.
LAMBDA_MAX = 0.5

# omega0**2, the scale of every frequency squared and of the drive, must be a
# finite normal float: outside this range it overflows, or it and the
# derived frequencies lose their digits or underflow to 0.
_OMEGA0_MIN = math.sqrt(sys.float_info.min)
_OMEGA0_MAX = math.sqrt(sys.float_info.max)

# The exact two-mode model and its three independent-particle references,
# each with the ModeSet fields of its two mode frequencies.
_MODE_FREQUENCIES = {
    "exact": attrgetter("omega1", "omega2"),
    "hf": attrgetter("omega_e", "omega_e"),
    "ks": attrgetter("omega_d", "omega_d"),
    "natural": attrgetter("omega_w", "omega_w"),
}
KINDS = tuple(_MODE_FREQUENCIES)

# Relative rounding error of the closed-form reflection's cosine argument
# (pi/2) sqrt(radicand), with a factor 2 of margin: the coupling, the
# radicand, its square root and the pi/2 product leave up to about 4 eps.
# Near a zero of the cosine that error passes one-to-one into its value.
ZERO_COS_RTOL = 8.0 * 2.0**-52

# A pulse slower than the float range of coupling / beta**2 has
# log rho <= -pi * gap + 2 ln 2, with gap = (Omega0 - sqrt(max(-coupling, 0))) / beta,
# so R underflows to 0 for gap above this value and tends to 1 below its negative.
_SLOW_GAP = 240.0

_R_NEAR_ONE = "reflection coefficient approaches 1: pulse outside the admissible range"

_LN2 = math.log(2.0)


def _check_omega0(omega0: float) -> None:
    if not _OMEGA0_MIN <= omega0 <= _OMEGA0_MAX:  # NaN fails
        raise ValueError(
            f"omega0 must lie in [{_OMEGA0_MIN:.17g}, {_OMEGA0_MAX:.17g}], where omega0**2 "
            f"is a finite normal float, got {omega0}"
        )


@dataclass(frozen=True)
class ModelParams:
    """Physical inputs of the correlated pair.

    Attributes
    ----------
    omega0 : float
        Confinement frequency (atomic units), > 0, with ``omega0**2`` a
        finite normal float (about 1.5e-154 to 1.3e154).
    lam : float
        Dimensionless repulsive coupling strength, 0 <= lam < 0.5.
    """

    omega0: float
    lam: float

    def __post_init__(self):
        _check_omega0(self.omega0)
        if not (0.0 <= self.lam < LAMBDA_MAX):
            raise ValueError(
                "lam must lie in [0, 0.5); at lam >= 0.5 the pair is unbound "
                f"(got {self.lam})"
            )


@dataclass(frozen=True)
class ModeSet:
    """All derived frequencies, kernel coefficients, and energies.

    ``omega1``/``omega2`` are the center-of-mass and relative mode
    frequencies.  ``omega_e`` (energy-optimal), ``omega_d`` (density-optimal)
    and ``omega_w`` (wavefunction-optimal) define the three
    independent-particle models.  ``D`` is the Gaussian pair-difference
    exponent of the one-matrix, ``Z`` the geometric ratio of its occupation
    spectrum, ``E0`` the two-particle ground-state energy, and ``C1`` the
    constant offset that completes the density-optimal potential.
    """

    params: ModelParams
    omega1: float
    omega2: float
    omega_e: float
    omega_d: float
    omega_w: float
    D: float
    Z: float
    E0: float
    C1: float


def derive_modes(params: ModelParams) -> ModeSet:
    """Compute all derived frequencies and kernel constants for one model.

    Parameters
    ----------
    params : ModelParams
        Validated physical inputs.

    Returns
    -------
    ModeSet
        With ``omega2 <= omega_d <= omega_w <= omega_e <= omega1`` (all
        strict for lam > 0).
    """
    w0, lam = params.omega0, params.lam
    w1 = w0
    w2 = w0 * math.sqrt(1.0 - 2.0 * lam)
    we = w0 * math.sqrt(1.0 - lam)
    wd = 2.0 * w1 * w2 / (w1 + w2)
    ww = math.sqrt(w1 * w2)
    D = 0.25 * (w1 - w2) ** 2 / (w1 + w2)
    Z = ((math.sqrt(w1) - math.sqrt(w2)) / (math.sqrt(w1) + math.sqrt(w2))) ** 2
    E0 = 0.5 * (w1 + w2)
    # Offset fixing the density-optimal single-particle Hamiltonian against
    # the exact ground-state energy: (E0 - 2*(omega_d/2)) / 2 per particle.
    C1 = 0.25 * (w0 + w2) - 0.5 * wd
    return ModeSet(
        params=params,
        omega1=w1,
        omega2=w2,
        omega_e=we,
        omega_d=wd,
        omega_w=ww,
        D=D,
        Z=Z,
        E0=E0,
        C1=C1,
    )


def mode_frequencies(modes: ModeSet, kind: str) -> tuple[float, float]:
    """The two mode frequencies of the exact model or one reference model.

    ``exact`` has the center-of-mass and relative modes (omega1, omega2);
    ``hf``, ``ks`` and ``natural`` put both particles at omega_e, omega_d
    and omega_w respectively.
    """
    frequencies = _MODE_FREQUENCIES.get(kind)
    if frequencies is None:
        raise ValueError(f"kind must be one of {KINDS}, got {kind!r}")
    return frequencies(modes)


class IonizationRegimeError(ValueError):
    """Drive strong enough to invert the confinement at pulse maximum."""


@dataclass(frozen=True)
class Pulse:
    """Finite-duration confinement drive.

    Attributes
    ----------
    Lambda : float
        Signed dimensionless strength; admissible magnitudes satisfy
        ``|Lambda| < (omega2/omega0)**2`` of the owning model.
    beta : float
        Inverse transition time, > 0.
    omega0 : float
        Confinement frequency of the owning model; sets the coupling
        scale ``Lambda * omega0**2``.  Same range as ``ModelParams.omega0``.
    t0 : float
        Envelope center (F is maximal at t = t0).
    """

    Lambda: float
    beta: float
    omega0: float
    t0: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError(f"beta must be finite and > 0, got {self.beta}")
        if not math.isfinite(self.Lambda):
            raise ValueError(f"Lambda must be finite, got {self.Lambda}")
        _check_omega0(self.omega0)
        if not math.isfinite(self.t0):
            raise ValueError(f"t0 must be finite, got {self.t0}")

    @property
    def coupling(self) -> float:
        """Signed drive amplitude Lambda * omega0**2."""
        return self.Lambda * self.omega0**2

    def envelope(self, t):
        """F(t) = sech^2(2 beta (t - t0)); F(t0) = 1, F(+-inf) = 0."""
        import numpy as np  # the closed form never calls this; keep numpy out of its import

        x = np.abs(2.0 * self.beta * (np.asarray(t, dtype=float) - self.t0))
        s = np.exp(-x)
        return 4.0 * s * s / np.square(1.0 + s * s)


def check_admissible(modes: ModeSet, pulse: Pulse) -> None:
    """Reject pulses outside |Lambda| < (omega2/omega0)^2 or with a
    coupling scale inconsistent with the model."""
    if not math.isclose(pulse.omega0, modes.omega1, rel_tol=1e-12):
        raise ValueError(
            f"pulse coupling scale omega0={pulse.omega0} does not match the "
            f"model confinement frequency {modes.omega1}"
        )
    bound = (modes.omega2 / modes.omega1) ** 2
    if abs(pulse.Lambda) >= bound:
        raise IonizationRegimeError(
            f"|Lambda| = {abs(pulse.Lambda)} >= (omega2/omega0)^2 = {bound}: "
            "ionization-like regime is excluded"
        )


def _check_mode_frequency(mode_frequency: float) -> None:
    """Reject a mode frequency that is not finite and > 0."""
    if not (math.isfinite(mode_frequency) and mode_frequency > 0):
        raise ValueError(f"mode frequency must be > 0, got {mode_frequency}")


@dataclass(frozen=True)
class ReflectionResult:
    """Reflection coefficient R of the associated scattering problem."""

    R: float

    def __post_init__(self):
        if not (0.0 <= self.R < 1.0):
            raise ValueError(f"reflection coefficient must lie in [0, 1), got {self.R}")


def _log_sinh(x: float) -> float:
    return x - _LN2 + math.log1p(-math.exp(-2.0 * x))


def _log_cosh(x: float) -> float:
    return x - _LN2 + math.log1p(math.exp(-2.0 * x))


def analytic_reflection(mode_frequency: float, pulse: Pulse) -> ReflectionResult:
    """Closed-form reflection coefficient for the sech^2 envelope.

    rho = cos^2[(pi/2) sqrt(1 + Lambda omega0^2/beta^2)] /
          sinh^2[(pi/2) Omega0/beta]

    with cos -> cosh of the real root when the radicand is negative, and
    R = rho / (1 + rho).  Evaluated in log space so that extreme adiabatic
    or sudden parameters neither overflow nor lose the tiny result.

    At a zero of the cosine, ``sqrt(radicand)`` an odd integer, the
    computed cosine is rounding residue of its argument (cos(3 pi/2)
    evaluates to -1.8e-16), so any |cos| at or below ZERO_COS_RTOL times
    the argument counts as an exact zero and gives R = 0.

    Where ``beta**2`` overflows the radicand is taken as
    ``coupling / beta / beta``.  A pulse so slow that the radicand leaves
    the float range gets R = 0 when ``(Omega0 - sqrt(max(-coupling, 0))) /
    beta`` exceeds 240, which bounds rho below the smallest float; nearer
    that gap it is rejected with a ValueError that names beta.

    Every observable takes R from here; ``extract_reflection`` of an
    integrated trajectory is its ODE oracle.
    """
    _check_mode_frequency(mode_frequency)
    if pulse.coupling == 0.0:
        return ReflectionResult(R=0.0)
    try:
        radicand = 1.0 + pulse.coupling / pulse.beta**2
    except OverflowError:
        radicand = 1.0 + pulse.coupling / pulse.beta / pulse.beta
    except ZeroDivisionError:
        return _slow_reflection(mode_frequency, pulse)
    v = 0.5 * math.pi * mode_frequency / pulse.beta
    if radicand >= 0.0:
        arg = 0.5 * math.pi * math.sqrt(radicand)
        try:
            c = abs(math.cos(arg))
        except ValueError:  # an infinite radicand
            return _slow_reflection(mode_frequency, pulse)
        if c <= ZERO_COS_RTOL * arg:
            return ReflectionResult(R=0.0)
        log_rho = 2.0 * math.log(c) - 2.0 * _log_sinh(v)
    else:
        u = 0.5 * math.pi * math.sqrt(-radicand)
        log_rho = 2.0 * (_log_cosh(u) - _log_sinh(v))
    if not log_rho <= 700.0:  # NaN too
        if not math.isfinite(radicand):
            return _slow_reflection(mode_frequency, pulse)
        raise IonizationRegimeError(_R_NEAR_ONE)
    rho = math.exp(log_rho)
    return ReflectionResult(R=rho / (1.0 + rho))


def _slow_reflection(mode_frequency: float, pulse: Pulse) -> ReflectionResult:
    """R of a pulse too slow for ``coupling / beta**2`` to be a float."""
    gap = (mode_frequency - math.sqrt(max(-pulse.coupling, 0.0))) / pulse.beta
    if gap > _SLOW_GAP:
        return ReflectionResult(R=0.0)
    if gap < -_SLOW_GAP:
        raise IonizationRegimeError(_R_NEAR_ONE)
    raise ValueError(
        f"beta = {pulse.beta} is too small to evaluate the reflection at Omega0 = "
        f"{mode_frequency}, coupling = {pulse.coupling}: coupling / beta**2 leaves "
        "the float range"
    )


def energy_shift(mode_frequency: float, R: float) -> float:
    """One-mode time-independent energy shift Omega0 * R / (1 - R)."""
    if not (0.0 <= R < 1.0):
        raise ValueError(f"reflection coefficient must lie in [0, 1), got {R}")
    return mode_frequency * R / (1.0 - R)


def _reflections(f1: float, f2: float, pulse: Pulse) -> tuple[float, float]:
    """(R1, R2) of two modes at frequencies f1 and f2; a repeated frequency
    is reflected once."""
    R1 = analytic_reflection(f1, pulse).R
    R2 = R1 if f2 == f1 else analytic_reflection(f2, pulse).R
    return R1, R2


def _two_mode_shifts(f1: float, f2: float, pulse: Pulse) -> tuple[float, float, float]:
    """(d1, d2, d1 + d2) for two modes at frequencies f1 and f2."""
    R1, R2 = _reflections(f1, f2, pulse)
    d1 = energy_shift(f1, R1)
    d2 = energy_shift(f2, R2)
    return d1, d2, d1 + d2


def total_shift(modes: ModeSet, pulse: Pulse, kind: str) -> float:
    """Two-particle total energy shift for the exact model or a reference.

    ``exact`` sums the shifts of the two independent modes; the reference
    kinds count one independent-particle frequency twice, reflected once.
    """
    check_admissible(modes, pulse)
    return _two_mode_shifts(*mode_frequencies(modes, kind), pulse)[2]


@dataclass(frozen=True)
class EnergyShiftReport:
    """Per-mode shifts, exact total, and the three model totals."""

    omega0: float
    lam: float
    Lambda: float
    beta: float
    shift_mode1: float
    shift_mode2: float
    exact: float
    hf: float
    ks: float
    natural: float

    def as_record(self) -> dict:
        """The fields in order, with ``lam`` under its CLI name ``lambda``."""
        return {
            "lambda" if f.name == "lam" else f.name: getattr(self, f.name)
            for f in fields(self)
        }


def energy_shift_report(modes: ModeSet, pulse: Pulse) -> EnergyShiftReport:
    """All shift observables for one (model, pulse) combination.

    Every total is the ``total_shift`` of its kind.
    """
    check_admissible(modes, pulse)
    d1, d2, exact = _two_mode_shifts(modes.omega1, modes.omega2, pulse)
    hf, ks, natural = [_two_mode_shifts(*mode_frequencies(modes, k), pulse)[2] for k in KINDS[1:]]
    return EnergyShiftReport(
        omega0=modes.params.omega0,
        lam=modes.params.lam,
        Lambda=pulse.Lambda,
        beta=pulse.beta,
        shift_mode1=d1,
        shift_mode2=d2,
        exact=exact,
        hf=hf,
        ks=ks,
        natural=natural,
    )


def born_shift(mode_frequency: float, pulse: Pulse) -> float:
    """First-order shift (Lambda*omega0^2*pi / 4 beta^2)^2 * Omega0 / sinh^2.

    Quadratic in the drive, hence blind to its sign.  Evaluated from the
    logarithms of its factors, so that no power of beta overflows or
    underflows; a shift beyond the float range raises a ValueError that
    names beta.
    """
    _check_mode_frequency(mode_frequency)
    if pulse.coupling == 0.0:
        return 0.0
    v = 0.5 * math.pi * mode_frequency / pulse.beta
    if v >= 1.0:
        log_sinh = _log_sinh(v)
    elif v >= 1e-8:
        log_sinh = math.log(math.sinh(v))
    else:  # sinh(v) = v to double precision, and v itself may underflow
        log_sinh = math.log(0.5 * math.pi * mode_frequency) - math.log(pulse.beta)
    log_shift = (
        2.0 * math.log(abs(pulse.coupling) * math.pi / 4.0)
        - 4.0 * math.log(pulse.beta)
        + math.log(mode_frequency)
        - 2.0 * log_sinh
    )
    try:
        return math.exp(log_shift)
    except OverflowError:
        raise ValueError(
            f"born_shift at beta = {pulse.beta}, Omega0 = {mode_frequency} exceeds the float range"
        ) from None


@dataclass(frozen=True)
class SuddenShift:
    """Fast-drive expansion value with its validity flag."""

    value: float
    valid: bool


def sudden_shift(mode_frequency: float, pulse: Pulse) -> SuddenShift:
    """Sudden-limit expansion of the one-mode shift.

    Keeps the leading sign-carrying factor (1 - Lambda*omega0^2 / 2 beta^2).
    ``valid`` is a coarse asymptotic check (beta well above the mode
    frequency and the drive scale).  A value beyond the float range (a very
    slow pulse, far outside that check) raises a ValueError that names beta.
    """
    _check_mode_frequency(mode_frequency)
    om, beta = mode_frequency, pulse.beta
    coupling = pulse.coupling
    # om (coupling / 2 beta om)^2 (1 - (pi om / 2 beta)^2 / 3) (1 - coupling / 2 beta^2),
    # from ratios, so that no power of beta leaves the float range first
    r = 0.5 * coupling / beta / om
    x = 0.5 * math.pi * om / beta
    value = om * r * r * (1.0 - x * x / 3.0) * (1.0 - 0.5 * coupling / beta / beta)
    if not math.isfinite(value):
        raise ValueError(
            f"sudden_shift at beta = {beta}, Omega0 = {om} exceeds the float range"
        )
    valid = beta >= 3.0 * om and beta * beta >= 3.0 * abs(coupling)
    return SuddenShift(value=value, valid=valid)


def overlap(modes: ModeSet, pulse: Pulse, kind: str) -> float:
    """Squared overlap of the long-time state with the initial ground state.

    A product of per-mode factors sqrt(1-R) over
    ``mode_frequencies(modes, kind)``: (omega1, omega2) for ``exact``, and
    omega_d twice for the density-optimal ``ks``, reflected once.
    """
    if kind not in ("exact", "ks"):
        raise ValueError(f"kind must be 'exact' or 'ks', got {kind!r}")
    check_admissible(modes, pulse)
    f1, f2 = mode_frequencies(modes, kind)
    R1, R2 = _reflections(f1, f2, pulse)
    return math.sqrt(1.0 - R1) * math.sqrt(1.0 - R2)


def sign_effect_rows(modes: ModeSet, Lambda_mag: float, v_grid) -> list[tuple[float, float]]:
    """Sign-effect rows (v, shift ratio - 1) with beta = v; see
    ``collision.sign_effect_ratio``, which returns them as an array."""
    if Lambda_mag < 0:
        raise ValueError(f"Lambda magnitude must be >= 0, got {Lambda_mag}")
    omega0 = modes.params.omega0
    rows = []
    for v in map(float, v_grid):
        # Built before the zero-drive shortcut so that Pulse validates every v.
        pulses = [Pulse(Lambda=sign * Lambda_mag, beta=v, omega0=omega0)
                  for sign in (-1.0, 1.0)]
        if Lambda_mag == 0.0:
            rows.append((v, 0.0))
            continue
        minus, plus = (total_shift(modes, p, "exact") for p in pulses)
        rows.append((v, minus / plus - 1.0 if plus != 0.0 else math.nan))
    return rows
