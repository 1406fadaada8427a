"""The closed-form chain, from the model's two mode frequencies to the shifts.

The Hamiltonian separates into a center-of-mass mode at ``omega1 = omega0``
and a relative mode at ``omega2 = omega0*sqrt(1-2*lam)``.  Under a sech^2
pulse each mode reflects with a closed-form coefficient ``R``, and every
asymptotic shift, total and overlap follows from the two ``R`` values.  This
module holds that chain: the model constants, the pulse, the reflection,
the shift totals and the sign-effect rows.  It imports ``math``, ``sys``,
``operator`` and ``typing`` and nothing else, so the commands that only need
the closed form start without numpy, and without ``dataclasses``, whose
``inspect`` import costs more than the module's own code; ``ModelParams`` and
``Pulse`` are written out by hand.  So are the two sweeps behind the
figures, ``energy_shift_report`` and ``sign_effect_rows``: they name each
frequency and shift around one kernel call, as generic getters and maps
cost a quarter of a report.  The array code (one-matrix, spectra,
integrator) lives in ``model``, ``dynamics``, ``observables`` and
``collision``.
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter
from typing import NamedTuple

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
_MODE_FIELDS = {
    "exact": ("omega1", "omega2"),
    "hf": ("omega_e", "omega_e"),
    "ks": ("omega_d", "omega_d"),
    "natural": ("omega_w", "omega_w"),
}
KINDS = tuple(_MODE_FIELDS)
_MODE_FREQUENCIES = {kind: attrgetter(*pair) for kind, pair in _MODE_FIELDS.items()}

# Relative rounding error of the closed-form reflection's sine argument
# arg = (pi/2) t, t = sqrt(1 + e) - 1, e = Lambda (omega0/beta)**2, with a
# factor 4 of margin: e leaves up to 4 units of roundoff (2**-53), which pass
# into t at most one-to-one; t is otherwise good to about 1 unit, and the
# reduction of arg by a multiple of pi is exact.  That is about 2 * 2**-52
# of arg, and near a zero of the sine it passes one-to-one into its value.
ZERO_COS_RTOL = 8.0 * 2.0**-52

# A pulse too slow for e = Lambda (omega0/beta)**2 to be a float has
# log rho <= -pi * gap + 2 ln 2, with gap = (Omega0 - omega0 sqrt(max(-Lambda, 0))) / beta,
# so R underflows to 0 for gap above this value and tends to 1 below its negative.
_SLOW_GAP = 240.0

_R_NEAR_ONE = "reflection coefficient approaches 1: pulse outside the admissible range"

_LN2 = math.log(2.0)
_HALF_PI = 0.5 * math.pi
# cosh and sinh overflow above this argument.
_COSH_MAX = math.acosh(sys.float_info.max)


def _check_omega0(omega0: float) -> None:
    if not _OMEGA0_MIN <= omega0 <= _OMEGA0_MAX:  # NaN fails
        raise ValueError(
            f"omega0 must lie in [{_OMEGA0_MIN:.17g}, {_OMEGA0_MAX:.17g}], where omega0**2 "
            f"is a finite normal float, got {omega0}"
        )


class _Frozen:
    """Base of the two validated inputs, ``ModelParams`` and ``Pulse``.

    A subclass names its fields in ``__slots__`` and sets each one in
    ``__init__`` after its checks; they then stay fixed.  Unpickling and
    ``copy`` call the class with the field values (``__reduce__``), so they
    validate too.  An instance compares equal to one of its own class with
    the same fields, and hashes the tuple of its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._values = attrgetter(*cls.__slots__)  # a tuple: each subclass has two or more fields

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(map("{}={!r}".format, self.__slots__, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == self._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))


_set_field = object.__setattr__


class ModelParams(_Frozen):
    """Physical inputs of the correlated pair.

    Attributes
    ----------
    omega0 : float
        Confinement frequency (atomic units), > 0, with ``omega0**2`` a
        finite normal float (about 1.5e-154 to 1.3e154).
    lam : float
        Dimensionless repulsive coupling strength, 0 <= lam < 0.5.
    """

    __slots__ = ("omega0", "lam")
    omega0: float
    lam: float

    def __init__(self, omega0: float, lam: float):
        _check_omega0(omega0)
        if not (0.0 <= lam < LAMBDA_MAX):
            raise ValueError(
                "lam must lie in [0, 0.5); at lam >= 0.5 the pair is unbound "
                f"(got {lam})"
            )
        _set_field(self, "omega0", omega0)
        _set_field(self, "lam", lam)


class ModeSet(NamedTuple):
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
        With ``omega2 < omega_d < omega_w < omega_e < omega1`` for
        lam >= 1e-7.  Below that, ``omega_d``, ``omega_w`` and ``omega_e``
        lie within about lam**2 omega0 / 4 of each other, which the rounding
        of these formulas can exceed, and neighbours may come out of order
        by one ulp: at lam = 0, where all five are omega0, ``omega_d`` can
        exceed ``omega1``, and at tiny lam ``omega_e`` can fall below
        ``omega_w`` (measured on omega0 in [1e-3, 1e3] at lam = 0 and
        1e-18 to 1e-6).
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


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta > 0):
        raise ValueError(f"beta must be finite and > 0, got {beta}")


def _check_Lambda(Lambda: float) -> None:
    if not math.isfinite(Lambda):
        raise ValueError(f"Lambda must be finite, got {Lambda}")


class IonizationRegimeError(ValueError):
    """Drive strong enough to invert the confinement at pulse maximum."""


class Pulse(_Frozen):
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
        Envelope center, the class constant 0.0 (F is maximal at t = 0).
    """

    __slots__ = ("Lambda", "beta", "omega0")
    Lambda: float
    beta: float
    omega0: float
    t0 = 0.0

    def __init__(self, Lambda: float, beta: float, omega0: float):
        _check_beta(beta)
        _check_Lambda(Lambda)
        _check_omega0(omega0)
        _set_field(self, "Lambda", Lambda)
        _set_field(self, "beta", beta)
        _set_field(self, "omega0", omega0)

    @property
    def coupling(self) -> float:
        """Signed drive amplitude Lambda * omega0**2."""
        return self.Lambda * self.omega0**2


def check_admissible(modes: ModeSet, pulse: Pulse) -> None:
    """Reject pulses outside |Lambda| < (omega2/omega0)^2 or with a
    coupling scale inconsistent with the model."""
    if not math.isclose(pulse.omega0, modes.omega1, rel_tol=1e-12):
        raise ValueError(
            f"pulse coupling scale omega0={pulse.omega0} does not match the "
            f"model confinement frequency {modes.omega1}"
        )
    _check_bound(modes, pulse.Lambda)


def _check_bound(modes: ModeSet, Lambda: float) -> None:
    bound = (modes.omega2 / modes.omega1) ** 2
    if abs(Lambda) >= bound:
        raise IonizationRegimeError(
            f"|Lambda| = {abs(Lambda)} >= (omega2/omega0)^2 = {bound}: "
            "ionization-like regime is excluded"
        )


def _check_mode_frequency(mode_frequency: float) -> None:
    """Reject a mode frequency that is not finite and > 0."""
    if not (math.isfinite(mode_frequency) and mode_frequency > 0):
        raise ValueError(f"mode frequency must be > 0, got {mode_frequency}")


class ReflectionResult(NamedTuple):
    """Reflection coefficient R of the associated scattering problem, in [0, 1)."""

    R: float


def _reflection(rho: float) -> float:
    """R = rho / (1 + rho); rejects a rho so large that R rounds to 1."""
    R = rho / (1.0 + rho)
    if R == 1.0:
        raise IonizationRegimeError(_R_NEAR_ONE)
    return R


def _log_sinh(v: float) -> float:
    """log sinh v for v > 0, also where sinh v overflows."""
    return v - _LN2 if v > 20.0 else math.log(math.sinh(v))  # exp(-2v) < 5e-18 above 20


def _log_cosh(x: float) -> float:
    return x - _LN2 + math.log1p(math.exp(-2.0 * x))


def _rhos(Lambda: float, beta: float, omega0: float, frequencies) -> list[float]:
    """rho = R / (1 - R) at each mode frequency under one sech^2 pulse.

    The kernel of every closed-form observable (the formula is in
    ``analytic_reflection``).  The numerator depends on the pulse alone and
    is evaluated once; each frequency adds one sinh, and a frequency equal
    to the one before it adds nothing.  ``Lambda``, ``beta`` and ``omega0``
    must have passed the ``Pulse`` checks; the frequencies are checked here.
    The numerator c is 0 where rho vanishes at every frequency and NaN for a
    pulse too slow for e to be a float.  Wherever ``(c / sinh v)**2`` is not
    a finite float, NaN c included, ``_fallback_rho`` takes over, so the
    common path computes no logarithm and makes no call it does not need.
    """
    u = 0.0
    if Lambda == 0.0:  # also where omega0 / beta overflows
        c = 0.0
    else:
        # omega0/beta first, as Lambda*omega0**2 may underflow, and rounded once:
        # its square would double its rounding error.
        r = omega0 / beta
        e = Lambda * r * omega0 / beta
        if math.isinf(e):
            c = math.nan
        elif e >= -1.0:
            # |cos((pi/2) (1 + t))| = |sin((pi/2) t)|, t = sqrt(1 + e) - 1, with the
            # angle reduced exactly by the nearest multiple of pi
            t = _sqrt1pm1(e)
            arg = _HALF_PI * t
            c = abs(math.sin(_HALF_PI * (t - 2.0 * round(0.5 * t))))
            if c <= ZERO_COS_RTOL * arg:  # e == 0 too
                c = 0.0
        else:
            u = _HALF_PI * math.sqrt(-1.0 - e)
            c = math.cosh(u) if u < _COSH_MAX else math.inf
    rhos, last = [], None
    for f in frequencies:
        if not 0.0 < f < math.inf:  # NaN fails
            _check_mode_frequency(f)
        if f != last:  # a repeated frequency is reflected once
            last = f
            v = _HALF_PI * f / beta
            try:
                q = c / math.sinh(v)
            except (OverflowError, ZeroDivisionError):  # sinh v overflows, or v is 0
                q = math.nan
            rho = q * q  # correctly rounded, unlike libm pow's square
            if not rho < math.inf:  # NaN too
                rho = _fallback_rho(f, v, Lambda, beta, omega0, c, u)
        rhos.append(rho)
    return rhos


def _fallback_rho(f: float, v: float, Lambda: float, beta: float, omega0: float, c: float,
                  u: float) -> float:
    """rho at frequency f where ``(c / sinh v)**2`` is not a finite float.

    c is NaN for a pulse too slow for e to be a float (``_slow_rho``), and
    0.0 where rho vanishes at every frequency.  Otherwise v = 0 (f / beta
    underflows) makes rho = (c / v)**2 infinite, and a factor or rho beyond
    the float range is taken from logarithms, log c from the cosh argument u
    where 1 + e < 0 (u > 0).
    """
    if c != c:
        return _slow_rho(f, Lambda, beta, omega0)
    if c == 0.0:
        return 0.0
    if v == 0.0:
        raise IonizationRegimeError(_R_NEAR_ONE)
    return _log_space_rho(_log_cosh(u) if u else math.log(c), v)


def _sqrt1pm1(e: float) -> float:
    """sqrt(1 + e) - 1 for e >= -1, to within the rounding of e itself.

    Up to e = 3 as e / (1 + sqrt(1 + e)), free of cancellation.  Above, as
    s - 1 (exact there) plus one Newton step ((1 + e) - s**2) / 2s, whose
    residual is exact: s**2 = p + p_err by Dekker's product (Veltkamp split).
    """
    s = math.sqrt(1.0 + e)
    if e <= 3.0:
        return e / (1.0 + s)
    h = 134217729.0 * s  # 2**27 + 1
    hi = h - (h - s)
    lo = s - hi
    p = s * s
    p_err = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    return (s - 1.0) + ((e - (p - 1.0)) - p_err) / (2.0 * s)


def _log_space_rho(log_c: float, v: float) -> float:
    """rho = (c / sinh v)**2 from log c, where a factor or rho leaves the float range."""
    try:
        return math.exp(2.0 * (log_c - _log_sinh(v)))
    except OverflowError:
        raise IonizationRegimeError(_R_NEAR_ONE) from None


def _slow_rho(mode_frequency: float, Lambda: float, beta: float, omega0: float) -> float:
    """rho of a pulse too slow for ``Lambda (omega0/beta)**2`` to be a float."""
    gap = (mode_frequency - omega0 * math.sqrt(max(-Lambda, 0.0))) / beta
    if gap > _SLOW_GAP:
        return 0.0
    if gap < -_SLOW_GAP:
        raise IonizationRegimeError(_R_NEAR_ONE)
    raise ValueError(
        f"beta = {beta} is too small to evaluate the reflection at Omega0 = "
        f"{mode_frequency}, Lambda = {Lambda}, omega0 = {omega0}: Lambda (omega0/beta)**2 "
        "leaves the float range"
    )


def analytic_reflection(mode_frequency: float, pulse: Pulse) -> ReflectionResult:
    """Closed-form reflection coefficient for the sech^2 envelope.

    rho = cos^2[(pi/2) sqrt(1 + e)] / sinh^2[(pi/2) Omega0/beta],
    e = Lambda (omega0/beta)^2,

    with cos -> cosh of the real root when 1 + e < 0, and R = rho / (1 + rho).
    The drive ratio e is formed from ``omega0/beta`` first, so a small
    ``Lambda*omega0**2`` that underflows on its own still counts.  For
    e >= -1 the cosine is evaluated as the sine of a small angle,

        |cos((pi/2) sqrt(1 + e))| = |sin(arg)|,  arg = (pi/2) e / (1 + sqrt(1 + e)),

    which keeps every digit of a sudden pulse (e -> 0), where the cosine's
    argument sits next to pi/2; for e > 3 the angle is reduced exactly by the
    nearest multiple of pi first.  rho is the ratio (c / sinh v)**2 where
    that is a float, and is taken from logarithms only where a factor leaves
    the float range.

    At a zero of the sine, ``sqrt(1 + e)`` an odd integer, the computed sine
    is rounding residue of its argument, so |sin(arg)| <= ZERO_COS_RTOL * arg
    counts as an exact zero and gives R = 0.  The bound scales with arg
    itself, so a tiny drive (arg ~ (pi/4) e) is never taken for a zero.

    A pulse so slow that e leaves the float range gets R = 0 when
    ``(Omega0 - omega0 sqrt(max(-Lambda, 0))) / beta`` exceeds 240, which
    bounds rho below the smallest float; nearer that gap it is rejected with
    a ValueError that names beta.

    Every observable takes rho from the same kernel; ``extract_reflection``
    of an integrated trajectory is its ODE oracle.
    """
    (rho,) = _rhos(pulse.Lambda, pulse.beta, pulse.omega0, (mode_frequency,))
    return ReflectionResult(R=_reflection(rho))


def _two_mode_total(f1: float, f2: float, Lambda: float, beta: float, omega0: float) -> float:
    """Omega1 rho1 + Omega2 rho2, the two-mode shift total."""
    rho1, rho2 = _rhos(Lambda, beta, omega0, (f1, f2))
    return f1 * rho1 + f2 * rho2


def total_shift(modes: ModeSet, pulse: Pulse, kind: str) -> float:
    """Two-particle total energy shift for the exact model or a reference.

    ``exact`` sums the shifts Omega * rho of the two independent modes; the
    reference kinds count one independent-particle frequency twice,
    reflected once.
    """
    check_admissible(modes, pulse)
    return _two_mode_total(*mode_frequencies(modes, kind), pulse.Lambda, pulse.beta, pulse.omega0)


class EnergyShiftReport(NamedTuple):
    """Per-mode shifts, exact total, and the three model totals.

    A ``NamedTuple``: it unpacks, and compares equal to the tuple of its fields.
    """

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


def energy_shift_report(modes: ModeSet, pulse: Pulse) -> EnergyShiftReport:
    """All shift observables for one (model, pulse) combination.

    One kernel call reflects the five mode frequencies under the pulse.  The
    shifts Omega * rho are summed as ``_two_mode_total`` sums them, so every
    total equals the ``total_shift`` of its kind to the last bit.
    """
    check_admissible(modes, pulse)
    f1, f2, fe, fd, fw = modes.omega1, modes.omega2, modes.omega_e, modes.omega_d, modes.omega_w
    r1, r2, re, rd, rw = _rhos(pulse.Lambda, pulse.beta, pulse.omega0, (f1, f2, fe, fd, fw))
    s1, s2, se, sd, sw = f1 * r1, f2 * r2, fe * re, fd * rd, fw * rw
    params = modes.params
    return EnergyShiftReport(
        params.omega0, params.lam, pulse.Lambda, pulse.beta, s1, s2,
        s1 + s2, se + se, sd + sd, sw + sw,
    )


def born_shift(mode_frequency: float, pulse: Pulse) -> float:
    """First-order shift (pi e / 4)^2 * Omega0 / sinh^2, e = Lambda (omega0/beta)^2.

    Quadratic in the drive, hence blind to its sign.  Evaluated from the
    logarithms of its factors, with ``Lambda`` and ``omega0/beta`` apart, so
    that no power of beta and no ``Lambda*omega0**2`` overflows or
    underflows; a shift beyond the float range raises a ValueError that
    names beta.
    """
    _check_mode_frequency(mode_frequency)
    if pulse.Lambda == 0.0:
        return 0.0
    r = pulse.omega0 / pulse.beta
    if sys.float_info.min <= r < math.inf:
        log_r = math.log(r)
    else:
        log_r = math.log(pulse.omega0) - math.log(pulse.beta)
    v = 0.5 * math.pi * mode_frequency / pulse.beta
    if v >= 1e-8:
        log_sinh = _log_sinh(v)
    else:  # sinh(v) = v to double precision, and v itself may underflow
        log_sinh = math.log(0.5 * math.pi * mode_frequency) - math.log(pulse.beta)
    log_shift = (
        2.0 * math.log(abs(pulse.Lambda) * math.pi / 4.0)
        + 4.0 * log_r
        + math.log(mode_frequency)
        - 2.0 * log_sinh
    )
    try:
        return math.exp(log_shift)
    except OverflowError:
        raise ValueError(
            f"born_shift at beta = {pulse.beta}, Omega0 = {mode_frequency} exceeds the float range"
        ) from None


class SuddenShift(NamedTuple):
    """Fast-drive expansion value with its validity flag."""

    value: float
    valid: bool


def sudden_shift(mode_frequency: float, pulse: Pulse) -> SuddenShift:
    """Sudden-limit expansion of the one-mode shift.

    Keeps the leading sign-carrying factor (1 - e/2), e = Lambda (omega0/beta)^2.
    ``valid`` is a coarse asymptotic check (beta well above the mode
    frequency and the drive scale).  A value beyond the float range (a very
    slow pulse, far outside that check) raises a ValueError that names beta.
    """
    _check_mode_frequency(mode_frequency)
    om, beta, Lambda, omega0 = mode_frequency, pulse.beta, pulse.Lambda, pulse.omega0
    # om (e beta / 2 om)^2 (1 - (pi om / 2 beta)^2 / 3) (1 - e / 2), from the ratios
    # omega0/beta and omega0/om, so that neither a power of beta nor
    # Lambda*omega0**2 leaves the float range first
    q = omega0 / beta
    e = Lambda * q * q
    r = 0.5 * Lambda * q * (omega0 / om)
    x = 0.5 * math.pi * om / beta
    value = om * r * r * (1.0 - x * x / 3.0) * (1.0 - 0.5 * e)
    if not math.isfinite(value):
        raise ValueError(
            f"sudden_shift at beta = {beta}, Omega0 = {om} exceeds the float range"
        )
    valid = beta >= 3.0 * om and 3.0 * abs(e) <= 1.0
    return SuddenShift(value=value, valid=valid)


def overlap(modes: ModeSet, pulse: Pulse, kind: str) -> float:
    """Squared overlap of the long-time state with the initial ground state.

    A product of per-mode factors sqrt(1-R), R = rho / (1 + rho), over
    ``mode_frequencies(modes, kind)``: (omega1, omega2) for ``exact``, and
    omega_d twice for the density-optimal ``ks``, reflected once.
    """
    if kind not in ("exact", "ks"):
        raise ValueError(f"kind must be 'exact' or 'ks', got {kind!r}")
    check_admissible(modes, pulse)
    frequencies = mode_frequencies(modes, kind)
    R1, R2 = map(_reflection, _rhos(pulse.Lambda, pulse.beta, pulse.omega0, frequencies))
    return math.sqrt(1.0 - R1) * math.sqrt(1.0 - R2)


def sign_effect_rows(modes: ModeSet, Lambda_mag: float, v_grid) -> list[tuple[float, float]]:
    """Sign-effect rows (v, shift ratio - 1) with beta = v; see
    ``collision.sign_effect_ratio``, which returns them as an array."""
    if Lambda_mag < 0:
        raise ValueError(f"Lambda magnitude must be >= 0, got {Lambda_mag}")
    _check_Lambda(Lambda_mag)
    _check_bound(modes, Lambda_mag)
    f1, f2, omega0 = modes.omega1, modes.omega2, modes.params.omega0
    rows = []
    for v in map(float, v_grid):
        _check_beta(v)
        if Lambda_mag == 0.0:
            rows.append((v, 0.0))
            continue
        minus = _two_mode_total(f1, f2, -Lambda_mag, v, omega0)
        plus = _two_mode_total(f1, f2, Lambda_mag, v, omega0)
        rows.append((v, minus / plus - 1.0 if plus != 0.0 else math.nan))
    return rows
