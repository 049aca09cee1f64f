"""Gamma and Bessel factors.

Complex log-gamma, the modified Bessel function of complex order through
its defining integral, the Fourier transform identity

    int e(u y) (u^2+1)^(-s) u^k du
        = (i sign y)^k 2 pi^s |y|^(s-1/2) / Gamma(s) K_{s-1/2-k}(2 pi |y|),

and the completed twist factor Xi, a gamma ratio built on the derived
parameter triple (alpha, beta, gamma) of a spectral pair (nu1, nu2).

All gamma ratios are assembled in log space with a single final
exponentiation; direct Gamma quotients overflow well before |Im s| = 30.
Quadrature error is budgeted separately from algebraic error: identity
checks driven by quadrature carry 1e-6 tolerances, algebraic ones 1e-8
through 1e-12.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

__all__ = [
    "PoleError",
    "QuadratureError",
    "GammaData",
    "log_gamma",
    "bessel_k",
    "fourier_bessel_lhs",
    "fourier_bessel_rhs",
    "fourier_bessel_identity_residual",
    "xi_factor",
]


class PoleError(ArithmeticError):
    """A gamma argument landed on a nonpositive integer."""


class QuadratureError(ArithmeticError):
    """Adaptive refinement budget exhausted without convergence."""


def log_gamma(z: complex) -> complex:
    """Principal branch of log Gamma.

    Relative accuracy is 1e-12 or better on |Re z| <= 20, |Im z| <= 50.
    Raises PoleError at nonpositive integers.
    """
    import scipy.special  # here, not at the top: most checks never need scipy

    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"log_gamma pole at {z}")
    return complex(scipy.special.loggamma(z))


def _quad(f, a, b, **kw) -> tuple[float, float, str | None]:
    """QUADPACK's value, error estimate and warning (None if it converged)."""
    import scipy.integrate  # here, not at the top: most checks never need scipy

    out = scipy.integrate.quad(f, a, b, full_output=1, **kw)
    return out[0], out[1], out[3] if len(out) > 3 else None


def bessel_k(nu: complex, x: float) -> complex:
    """K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt.

    Adaptive quadrature on [0, T] with T chosen so the integrand's
    envelope is below 1e-18.  Contract: x > 0, |Re nu| <= 10; relative
    accuracy 1e-10 for x >= 0.1.  QUADPACK judges the real and the
    imaginary part each against itself, and the smaller part can report
    roundoff long before it matters to |K|, so QuadratureError is raised
    only when a part warns and the two error estimates together exceed
    1e-10 |K|.
    """
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    nu = complex(nu)
    if abs(nu.real) > 10:
        raise ValueError(f"|Re nu| <= 10 required, got {nu}")
    a = nu.real
    t = 1.0
    while x * math.cosh(t) - abs(a) * t - math.log(2.0) < 42.0:
        t += 0.5
    kw = dict(limit=400, epsabs=1e-16, epsrel=1e-13)

    def integrand_re(u: float) -> float:
        return math.exp(-x * math.cosh(u)) * math.cosh(a * u) * math.cos(nu.imag * u)

    def integrand_im(u: float) -> float:
        return math.exp(-x * math.cosh(u)) * math.sinh(a * u) * math.sin(nu.imag * u)

    re, re_err, re_warn = _quad(integrand_re, 0.0, t, **kw)
    im, im_err, im_warn = (
        _quad(integrand_im, 0.0, t, **kw) if nu.imag != 0 or a != 0 else (0.0, 0.0, None)
    )
    value = complex(re, im)
    if (re_warn or im_warn) and re_err + im_err > 1e-10 * abs(value):
        raise QuadratureError(re_warn or im_warn)
    return value


def fourier_bessel_lhs(s: complex, k: int, y: float) -> complex:
    """int_R e(u y) (u^2+1)^(-s) u^k du by oscillatory quadrature.

    The integral over the half line is taken against a cos / sin weight
    (cycle-length panels with series extrapolation), which is what keeps
    slowly decaying envelopes like Re s = 0.8 convergent.  Any QUADPACK
    warning raises QuadratureError.
    """
    s = complex(s)
    if k not in (0, 1):
        raise ValueError("k must be 0 or 1")
    if y == 0:
        raise ValueError("y must be nonzero")
    if k == 0 and s.real <= 0.5:
        raise ValueError("k = 0 requires Re s > 1/2")
    if k == 1 and s.real <= 1.0:
        raise ValueError("k = 1 requires Re s > 1")
    weight = "sin" if k else "cos"
    kw = dict(weight=weight, wvar=2 * math.pi * abs(y), limit=600, epsabs=1e-12, epsrel=1e-10)
    re, _, re_warn = _quad(lambda u: (u**k * (u * u + 1) ** (-s)).real, 0, math.inf, **kw)
    im, _, im_warn = (
        _quad(lambda u: (u**k * (u * u + 1) ** (-s)).imag, 0, math.inf, **kw)
        if s.imag
        else (0.0, 0.0, None)
    )
    if re_warn or im_warn:
        raise QuadratureError(re_warn or im_warn)
    return 2 * (1j * (1 if y > 0 else -1)) ** k * complex(re, im)


def fourier_bessel_rhs(s: complex, k: int, y: float) -> complex:
    """(i sign y)^k 2 pi^s |y|^(s-1/2) / Gamma(s) K_{s-1/2-k}(2 pi |y|)."""
    s = complex(s)
    sgn = 1 if y > 0 else -1
    return (
        (1j * sgn) ** k
        * 2
        * math.pi**s
        * abs(y) ** (s - 0.5)
        / cmath.exp(log_gamma(s))
        * bessel_k(s - 0.5 - k, 2 * math.pi * abs(y))
    )


def fourier_bessel_identity_residual(s: complex, k: int, y: float) -> float:
    """Relative difference between the quadrature side and the closed form."""
    lhs = fourier_bessel_lhs(s, k, y)
    rhs = fourier_bessel_rhs(s, k, y)
    return abs(lhs - rhs) / abs(rhs)


@dataclass(frozen=True)
class GammaData:
    """Spectral pair (nu1, nu2) with its derived triple.

    alpha = 1 - nu1 - 2 nu2 and beta = nu2 - nu1 are taken literally;
    gamma is stored as -(alpha + beta), which equals 2 nu1 + nu2 - 1 and
    makes alpha + beta + gamma vanish exactly in floating point (checked
    with no tolerance at construction).
    """

    nu1: complex
    nu2: complex
    alpha: complex = field(init=False)
    beta: complex = field(init=False)
    gamma: complex = field(init=False)

    def __post_init__(self):
        alpha = 1 - self.nu1 - 2 * self.nu2
        beta = self.nu2 - self.nu1
        gamma = -(alpha + beta)
        object.__setattr__(self, "alpha", complex(alpha))
        object.__setattr__(self, "beta", complex(beta))
        object.__setattr__(self, "gamma", complex(gamma))
        assert (self.alpha + self.beta) + self.gamma == 0
        direct = 2 * self.nu1 + self.nu2 - 1
        assert abs(self.gamma - direct) <= 1e-12 * (1 + abs(direct))

    @property
    def triple(self) -> tuple[complex, complex, complex]:
        return (self.alpha, self.beta, self.gamma)


def _gamma_ratio(g: GammaData, num_shift: complex, den_shift: complex) -> complex:
    """prod_j Gamma((num_shift + a_j)/2) / Gamma((den_shift - a_j)/2) in log space."""
    acc = 0j
    for a in g.triple:
        acc += log_gamma((num_shift + a) / 2) - log_gamma((den_shift - a) / 2)
    return cmath.exp(acc)


def xi_factor(
    s: complex,
    g: GammaData,
    kappa: int,
    tau_psichi: complex,
    tau_chi: complex,
    c: int,
) -> complex:
    """Completed twist factor

    Xi(s) = tau(psi chi) tau(chi)^2 c^(-3s) i^kappa pi^(3(s-1/2))
            * prod_j Gamma((1-s+kappa+a_j)/2) / Gamma((s+kappa-a_j)/2),

    kappa = 0 when (psi chi)(-1) = 1 and kappa = 1 otherwise.
    """
    if kappa not in (0, 1):
        raise ValueError("kappa must be 0 or 1")
    return (
        tau_psichi
        * tau_chi**2
        * cmath.exp(-3 * s * math.log(c))
        * 1j**kappa
        * math.pi ** (3 * (s - 0.5))
        * _gamma_ratio(g, 1 - s + kappa, s + kappa)
    )
