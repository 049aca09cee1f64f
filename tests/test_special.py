import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gl3voronoi.characters import enumerate_characters, gauss_sum
from gl3voronoi.special import (
    GammaData,
    PoleError,
    QuadratureError,
    _quad,
    bessel_k,
    fourier_bessel_identity_residual,
    fourier_bessel_lhs,
    fourier_bessel_rhs,
    log_gamma,
    xi_factor,
)


def test_log_gamma_classical_values():
    assert log_gamma(1) == 0
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) < 1e-14
    assert abs(cmath.exp(log_gamma(5.0)) - 24.0) < 1e-12
    # |Gamma(1/2 + it)|^2 = pi / cosh(pi t): a shift of log Gamma that keeps
    # its conjugation symmetry, which gamma-unitarity cannot see, moves this
    for t in (0, 1, 2.3, 10, 50):
        closed = 0.5 * math.log(math.pi / math.cosh(math.pi * t))
        assert abs(log_gamma(0.5 + 1j * t).real - closed) < 1e-13, t


def test_log_gamma_reflection():
    z = 0.3 + 2j
    val = (
        cmath.exp(log_gamma(z))
        * cmath.exp(log_gamma(1 - z))
        * cmath.sin(math.pi * z)
        / math.pi
    )
    assert abs(val - 1) < 1e-12


def test_log_gamma_recurrence_on_strip():
    # Gamma(z+1) = z Gamma(z), checked multiplicatively across the strip
    for re in (0.0, 0.4, 0.6, 3.2, 19.5):
        for im in (-50.0, -3.7, 0.1, 12.0, 50.0):
            z = complex(re, im)
            ratio = cmath.exp(log_gamma(z + 1) - log_gamma(z)) / z
            assert abs(ratio - 1) < 1e-12, z


def test_log_gamma_poles():
    for z in (0, -1, -7, -20, -1e12):
        with pytest.raises(PoleError):
            log_gamma(z)


def test_log_gamma_refuses_the_left_half_plane():
    # past the pole test, any Re z < 0 is refused at once, where an upward
    # shift would take one log per unit of -Re z
    for z in (-1e12 + 0.5, -1e12 + 0.5 - 3j, -0.5 + 2j, complex(-1e-9, 0)):
        with pytest.raises(ValueError, match="Re z >= 0"):
            log_gamma(z)


def k0_series_oracle(x, terms=40):
    # K_0 = -(log(x/2) + gamma_E) I_0(x) + sum_k (x^2/4)^k / (k!)^2 H_k
    gamma_e = 0.5772156649015328606
    quarter = x * x / 4.0
    i0 = 1.0
    corr = 0.0
    term = 1.0
    h = 0.0
    for k in range(1, terms):
        term *= quarter / (k * k)
        h += 1.0 / k
        i0 += term
        corr += term * h
    return -(math.log(x / 2.0) + gamma_e) * i0 + corr


def test_bessel_half_integer_closed_form():
    x = 2 * math.pi
    closed = math.sqrt(math.pi / (2 * x)) * math.exp(-x)
    assert abs(bessel_k(0.5, x) - closed) / closed < 1e-10
    # K_{3/2}(x) = sqrt(pi/2x) e^-x (1 + 1/x); at x = 30 a cut where e^(-x cosh t)
    # falls below e^-42 would end the sum early, and at x = 400 the integrand
    # is a spike that h = 0.05 would not resolve
    for x in (0.5, 1.0, 3.0, 30.0, 400.0):
        closed = math.sqrt(math.pi / (2 * x)) * math.exp(-x) * (1 + 1 / x)
        assert abs(bessel_k(1.5, x) - closed) / closed < 1e-10


def test_bessel_evenness():
    for nu in (0.3, 1.25 + 0.5j, 2 - 1j):
        for x in (0.3, 1.0, 4.0):
            assert abs(bessel_k(nu, x) - bessel_k(-nu, x)) < 1e-10


def test_bessel_series_oracle():
    for x in (0.5, 1.0, 2.0):
        assert abs(bessel_k(0, x).real - k0_series_oracle(x)) < 1e-10
    assert abs(bessel_k(0, 1.0).real - 0.4210244382) < 1e-9


def test_bessel_domain():
    with pytest.raises(ValueError):
        bessel_k(0.5, 0.0)
    with pytest.raises(ValueError):
        bessel_k(11.0, 1.0)
    # past |Im nu| = 8 roundoff, eps e^(pi |Im nu| / 2), would exceed 1e-10
    for nu in (1 + 12j, -16j):
        with pytest.raises(ValueError, match="Im nu"):
            bessel_k(nu, 1.0)


def test_fourier_bessel_spot_value():
    spot = math.pi * math.exp(-2 * math.pi)
    assert abs(fourier_bessel_lhs(1.0, 0, 1.0) - spot) < 1e-8
    assert abs(fourier_bessel_rhs(1.0, 0, 1.0) - spot) < 1e-8
    # |y| = 2.5: the integral is 1e-6 of its integrand, the grid's worst cancellation
    closed = math.pi * math.exp(-5 * math.pi)
    for y in (2.5, -2.5):
        assert abs(fourier_bessel_lhs(1.0, 0, y) - closed) < 1e-9 * closed, y


def test_quad_raises_when_its_last_term_is_not_negligible():
    assert _quad(iter((1.0, 1e-13))) == 1.0 + 1e-13
    with pytest.raises(QuadratureError):
        _quad(iter((1.0, 1e-11)))


def test_fourier_bessel_grid():
    for s in (0.8, 1.0, 1.7):
        for k in (0, 1):
            if k == 1 and s <= 1.0:
                continue
            for y in (1.0, -1.0, 2.5, -2.5):
                assert fourier_bessel_identity_residual(s, k, y) < 1e-6, (s, k, y)


def test_fourier_bessel_parity():
    a = fourier_bessel_lhs(1.7, 1, 2.5)
    b = fourier_bessel_lhs(1.7, 1, -2.5)
    assert abs(a + b) < 1e-9 * abs(a)
    c = fourier_bessel_rhs(1.7, 1, 2.5)
    d = fourier_bessel_rhs(1.7, 1, -2.5)
    assert abs(c + d) < 1e-12 * abs(c)


def test_fourier_bessel_domain():
    with pytest.raises(ValueError):
        fourier_bessel_lhs(0.4, 0, 1.0)
    with pytest.raises(ValueError):
        fourier_bessel_lhs(1.0, 1, 1.0)  # k = 1 needs Re s > 1
    with pytest.raises(ValueError):
        fourier_bessel_lhs(1.7, 1, 0.0)


def test_gamma_data_exact_triple():
    import random

    rng = random.Random(0)
    for _ in range(100):
        g = GammaData(
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
            complex(rng.uniform(-2, 2), rng.uniform(-2, 2)),
        )
        assert (g.alpha + g.beta) + g.gamma == 0  # exact, no tolerance


def test_gamma_data_refuses_an_infinite_nu_under_python_O():
    # the triple (-inf, -inf, inf) sums to NaN; the guard must hold when
    # assertions are compiled out
    script = (
        "from gl3voronoi.special import GammaData\n"
        "try:\n"
        "    GammaData(complex('inf'), 0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('no ValueError')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "does not sum to 0" in proc.stdout


def test_gamma_factor_symmetric_collapse():
    # nu1 = nu2 = 1/3 gives alpha = beta = gamma = 0; with unit twist data
    # Xi(s) = pi^(3(s-1/2)) (Gamma((1-s)/2) / Gamma(s/2))^3
    g = GammaData(1 / 3, 1 / 3)
    assert max(abs(a) for a in g.triple) < 1e-15
    s = 0.6 + 1.1j
    cube = cmath.exp(log_gamma((1 - s) / 2) - log_gamma(s / 2)) ** 3
    expected = math.pi ** (3 * (s - 0.5)) * cube
    assert abs(xi_factor(s, g, 0, 1.0, 1.0, 1) - expected) < 1e-12 * abs(expected)


def test_gamma_factor_conjugate_symmetry():
    g = GammaData(0.17, 0.41)
    # the real triple (0.01, 0.24, -0.25) keeps every log Gamma argument
    # in Re z >= 0 for 0.25 <= Re s <= 0.75
    for s in (0.3 + 2.2j, 0.6 - 0.8j):
        v1 = xi_factor(s.conjugate(), g, 0, 1.0, 1.0, 1)
        v2 = xi_factor(s, g, 0, 1.0, 1.0, 1).conjugate()
        assert abs(v1 - v2) < 1e-12 * abs(v1)


def test_xi_unitarity_on_critical_line():
    g = GammaData(1 / 3 + 0.3j, 1 / 3 + 0.7j)  # purely imaginary triple
    assert max(abs(a.real) for a in g.triple) < 1e-12
    for chi in enumerate_characters(5):
        if not chi.is_primitive:
            continue
        tau = gauss_sum(chi)
        kappa = 0 if chi.parity == 1 else 1
        for t in (0.0, 1.0, 2.3):
            val = xi_factor(0.5 + 1j * t, g, kappa, tau, tau, 5)
            assert abs(abs(val) - 1) < 1e-8


def test_xi_c_scaling():
    g = GammaData(0.2, 0.3)
    s = 0.4 + 0.9j
    v1 = xi_factor(s, g, 0, 1.0, 1.0, 2)
    v2 = xi_factor(s, g, 0, 1.0, 1.0, 4)
    # doubling c multiplies by 2^-3s exactly when the tau inputs are fixed
    assert abs(v2 / v1 - cmath.exp(-3 * s * math.log(2))) < 1e-12
