import os
import sys

# One OpenBLAS thread unless the caller chose a count, as the CLI pins it:
# the default pool's first eigvalsh can stall for ~1 s.  OpenBLAS reads the
# variable once, when numpy loads, so this comes first.  Subprocesses inherit
# it; test_cli's library-threading and validate-probe tests unset it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
# No test needs scipy: an import of it, by src/ or a test, raises ImportError.
sys.modules["scipy"] = None

import tempfile  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import configuration  # noqa: E402

from pairpulse import ModelParams, Pulse, derive_modes, integrate_mode

# Reference parameter point used throughout: omega0 = 3, lam = 3/8,
# attractive pulse Lambda = 2/9 at beta = 3.
OMEGA0 = 3.0
LAM = 0.375
LAMBDA = 2.0 / 9.0
BETA = 3.0

# The acceptance grid of mode frequencies and pulse rates (times +-LAMBDA).
MODE_GRID = (1.5, 2.0, 2.121, 2.372, 3.0)
BETA_GRID = (0.5, 1.0, 2.0, 4.0, 8.0)


def mp_rho(mpmath, mode_frequency, Lambda, beta, omega0):
    """rho = R / (1 - R) of the sech^2 closed form in mpmath's working precision.

    cos^2[(pi/2) sqrt(1 + e)] / sinh^2[(pi/2) Omega0 / beta], e = Lambda (omega0/beta)^2,
    from the exact values of the float inputs; cos of an imaginary root is cosh.
    The cosine is taken as -sin((pi/2) t), t = sqrt(1 + e) - 1 = e / (1 + sqrt(1 + e)),
    which keeps its relative precision at any e, however small.
    """
    om, Lam, b, w0 = map(mpmath.mpf, (mode_frequency, Lambda, beta, omega0))
    e = Lam * (w0 / b) ** 2
    c = mpmath.sin(mpmath.pi / 2 * e / (1 + mpmath.sqrt(1 + e)))
    return abs(c) ** 2 / mpmath.sinh(mpmath.pi / 2 * om / b) ** 2


def pytest_configure(config):
    # Hypothesis caches the constants of the code under test under its home
    # directory, ./.hypothesis by default, while pytest collects, even with
    # no example database; a temporary home keeps the checkout clean.
    home = tempfile.TemporaryDirectory(prefix="hypothesis-")
    config.add_cleanup(home.cleanup)
    configuration.set_hypothesis_home_dir(home.name)


@pytest.fixture(scope="session")
def modes_ref():
    return derive_modes(ModelParams(OMEGA0, LAM))


@pytest.fixture(scope="session")
def pulse_ref():
    return Pulse(Lambda=LAMBDA, beta=BETA, omega0=OMEGA0)


@pytest.fixture(scope="session")
def traj_pair_ref(modes_ref, pulse_ref):
    """Both mode trajectories at tight tolerance, shared across tests."""
    t1 = integrate_mode(modes_ref.omega1, pulse_ref, rtol=1e-11, atol=1e-13)
    t2 = integrate_mode(modes_ref.omega2, pulse_ref, rtol=1e-11, atol=1e-13)
    return t1, t2


@pytest.fixture(scope="session")
def x_grid_ref(modes_ref):
    half = 8.0 / np.sqrt(modes_ref.omega_d)
    return np.linspace(-half, half, 256)
