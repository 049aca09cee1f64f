"""Each special-function side against a 30-digit mpmath evaluation.

mpmath is a test-only dependency; without it this module is skipped.
"""

import math
import random

import pytest

from gl3voronoi.cli import BESSEL_GRID
from gl3voronoi.special import bessel_k, fourier_bessel_lhs, log_gamma

mpmath = pytest.importorskip("mpmath")

STRIP = [
    complex(re, im)
    for re in (0.0, 0.4, 0.6, 3.2, 19.5)
    for im in (-50.0, -3.7, 0.1, 12.0, 50.0)
]
BESSEL_X = (0.5, 1.0, 2 * math.pi, 5 * math.pi)
ORDERS = (0, 0.5, 1.3, 3.7, 9.5, -2.2, 0.3 + 0.5j, -0.2 + 0.7j, -0.7 - 0.3j, 2 - 1j)


@pytest.fixture(autouse=True)
def thirty_digits():
    with mpmath.workdps(30):
        yield


def test_log_gamma_against_mpmath_on_strip():
    # the strip of the recurrence test; an absolute error in log Gamma is
    # the relative error in Gamma, and it also pins the principal branch
    for z in STRIP:
        assert abs(log_gamma(z) - complex(mpmath.loggamma(mpmath.mpc(z)))) < 1e-12, z


def test_bessel_k_against_mpmath():
    for nu in ORDERS:
        for x in BESSEL_X:
            ref = complex(mpmath.besselk(mpmath.mpc(nu), x))
            assert abs(bessel_k(nu, x) - ref) < 1e-10 * abs(ref), (nu, x)


def test_bessel_k_complex_order_with_small_imaginary_part():
    # Im K is 0.019 beside Re K = -0.46: the error must stay within
    # 1e-10 of |K| as a whole, and no QuadratureError may be raised
    ref = complex(mpmath.besselk(mpmath.mpc(1.2 - 2j), 0.5))
    assert abs(bessel_k(1.2 - 2j, 0.5) - ref) < 1e-10 * abs(ref)


def test_bessel_k_seeded_complex_order_grid():
    # the whole contract region with complex orders: no point may raise,
    # and every value is within 1e-10 of |K|
    rng = random.Random(2024)
    for _ in range(120):
        nu = complex(rng.uniform(-10, 10), rng.uniform(-8, 8))
        x = rng.uniform(0.1, 5 * math.pi)
        ref = complex(mpmath.besselk(mpmath.mpc(nu), x))
        assert abs(bessel_k(nu, x) - ref) < 1e-10 * abs(ref), (nu, x)


@pytest.mark.parametrize("s, k, y", BESSEL_GRID)
def test_fourier_bessel_lhs_against_mpmath_closed_form(s, k, y):
    # the quadrature side alone: the closed form is evaluated in mpmath
    sm = mpmath.mpf(s)
    ref = (1j * (1 if y > 0 else -1)) ** k * complex(
        2
        * mpmath.pi**sm
        * mpmath.mpf(abs(y)) ** (sm - 0.5)
        / mpmath.gamma(sm)
        * mpmath.besselk(sm - 0.5 - k, 2 * mpmath.pi * abs(y))
    )
    # at |y| = 2.5 the integral is about 1e-6 of its integrand's size, so
    # roundoff weighs more there than at |y| = 1
    bound = 1e-11 if abs(y) == 1.0 else 1e-9
    assert abs(fourier_bessel_lhs(s, k, y) - ref) < bound * abs(ref)
