"""Gamma and Bessel factors, on `math` and `cmath` alone.

Complex log-gamma on the half plane Re z >= 0, where every gamma factor
of the checks lies, K_nu of complex order through its defining integral,
the Fourier transform identity

    int e(u y) (u^2+1)^(-s) u^k du
        = (i sign y)^k 2 pi^s |y|^(s-1/2) / Gamma(s) K_{s-1/2-k}(2 pi |y|),

and the completed twist factor Xi, a gamma ratio built on the derived
parameter triple (alpha, beta, gamma) of a spectral pair (nu1, nu2).
Both integrals are fixed-step rules summed by `_quad`.  Gamma ratios are
summed in log space: direct quotients overflow before |Im s| = 30.
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
    """A fixed-step rule's last term is not negligible next to its sum."""


# B_2k / (2k (2k - 1)) for k = 1..8: the coefficients of Stirling's series
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)
_STIRLING = tuple(b / (2 * k * (2 * k - 1)) for k, b in enumerate(_BERNOULLI, 1))


def log_gamma(z: complex) -> complex:
    """Principal log Gamma on the half plane Re z >= 0: Re z in [0, 15) lifted to
    15 by log Gamma(z) = log Gamma(z + n) - sum_{k<n} log(z + k), principal logs,
    then Stirling's series to B_16, which omits < 2e-21 there.  Roundoff leaves
    1e-13 absolute on Re z <= 20, |Im z| <= 50.  PoleError at 0 and the negative
    integers; ValueError, in constant time, at any other Re z < 0."""
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise PoleError(f"log_gamma pole at {z}")
    if z.real < 0:
        raise ValueError(f"log_gamma needs Re z >= 0, got {z}")
    n = int(15 - z.real) + 1 if z.real < 15 else 0
    shift = sum(cmath.log(z + k) for k in range(n))
    z += n
    series = sum(c / z ** (2 * i + 1) for i, c in enumerate(_STIRLING))
    return (z - 0.5) * cmath.log(z) - z + 0.5 * math.log(2 * math.pi) + series - shift


def _quad(terms) -> complex:
    """Sum of a rule's terms; QuadratureError if the last, at the end where they
    fall double exponentially, exceeds 1e-12 of the sum: the cut was too short."""
    total = term = 0j
    for term in terms:
        total += term
    if abs(term) > 1e-12 * abs(total):
        raise QuadratureError(f"last term {abs(term):.3g} of sum {abs(total):.3g}")
    return total


def bessel_k(nu: complex, x: float) -> complex:
    """K_nu(x) = int_0^inf exp(-x cosh t) cosh(nu t) dt for x > 0, |Re nu| <= 10, |Im nu| <= 8,
    by the trapezoid rule e^-x h (1/2 + sum_{j=1..n} g(jh)), g = exp(-x (cosh t - 1)) cosh(nu t),
    cut at nh ~ T, the first half-integer T >= 1 past which |g| < e^-42.  At h = min(0.05, 0.5 /
    sqrt x), Thm 5.1 of Trefethen and Weideman (SIAM Rev. 56, 2014) on |Im t| <= min(pi/3,
    2 pi / hx) bounds the discretization error by about e^-79 2^|Re nu| e^(5 pi |Im nu| / 6)
    relative; roundoff, eps e^(pi |Im nu| / 2), leaves 1e-10 for |Im nu| <= 8 and grows past
    it (3e-5 at Im nu = 20), so a larger |Im nu| is a ValueError."""
    if x <= 0:
        raise ValueError(f"argument must be positive, got {x}")
    nu = complex(nu)
    if abs(nu.real) > 10 or abs(nu.imag) > 8:
        raise ValueError(f"|Re nu| <= 10 and |Im nu| <= 8 required, got {nu}")
    t = 1.0
    while x * (math.cosh(t) - 1) - abs(nu.real) * t - math.log(2.0) < 42.0:
        t += 0.5
    h = min(0.05, 0.5 / math.sqrt(x))
    n = round(t / h)
    g = (math.exp(-x * (math.cosh(j * h) - 1)) * cmath.cosh(nu * j * h) for j in range(1, 1 + n))
    return math.exp(-x) * h * (0.5 + _quad(g))


def fourier_bessel_lhs(s: complex, k: int, y: float) -> complex:
    """int_R e(u y) (u^2+1)^(-s) u^k du = 2 (i sign y)^k I by the Ooura-Mori rule.

    I = int_0^inf f trig(w u) du, f = u^k (u^2+1)^(-s), w = 2 pi |y|, trig = cos or
    sin for k = 0 or 1, is -w^-2 int_0^inf f'' trig(w u) du (by parts twice), whose
    terms cancel w^2 less.  u = M phi(t) / w, phi(t) = t / (1 - exp(-2t - a (1 - e^-t)
    - b (e^t - 1))), b = 1/4, a = b / sqrt(1 + M log(1 + M) / 4 pi), M h = pi, nodes jh
    (sin) or (j + 1/2) h (cos) (J. Comput. Appl. Math. 38, 1991).  h = 0.1, j in [-100,
    100): in 30 digits the rule is within 1e-16 of the closed form at h <= 0.12
    (1.6e-12 at 0.15); the end terms underflow (a e^10 > 1700, b e^10 > 5000); what is
    left is roundoff, eps times a term's phase M phi through the cancellation: 1e-11
    relative at |y| = 2.5, where I is 1e-4 of the sum of |terms| (1e-7 before parts).
    """
    s = complex(s)
    if k not in (0, 1) or y == 0:
        raise ValueError(f"k must be 0 or 1 and y nonzero, got k = {k}, y = {y}")
    if s.real <= (1 + k) / 2:
        raise ValueError(f"k = {k} requires Re s > {(1 + k) / 2}")
    w, h, b = 2 * math.pi * abs(y), 0.1, 0.25
    m = math.pi / h
    a = b / math.sqrt(1 + m * math.log(1 + m) / (4 * math.pi))
    def term(j: int) -> complex:
        t = (j + 0.5 - 0.5 * k) * h
        if t == 0:  # the limits phi(0) and phi'(0)
            phi, dphi = 1 / (2 + a + b), 0.5 - (b - a) / (2 * (2 + a + b) ** 2)
        else:
            e = 2 * t - a * math.expm1(-t) + b * math.expm1(t)
            de = 2 + a * math.exp(-t) + b * math.exp(t)
            r, d = math.exp(-abs(e)), -math.expm1(-abs(e))  # exp(-e) overflows as t falls
            if e > 0:
                phi, dphi = t / d, (d - t * r * de) / (d * d)
            else:
                phi, dphi = -t * r / d, -r * (d + t * de) / (d * d)
        u = m * phi / w
        f2 = 2 * s * u**k * (u * u + 1) ** (-s - 2) * ((2 * s + 1 - 2 * k) * u * u - 1 - 2 * k)
        return f2 * (math.sin if k else math.cos)(m * phi) * dphi

    total = _quad(map(term, range(99, -101, -1)))  # the slower tail, t -> -inf (a < b), last
    return -2 * (1j * (1 if y > 0 else -1)) ** k * m * h / w**3 * total


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
        direct = 2 * self.nu1 + self.nu2 - 1
        if (self.alpha + self.beta) + self.gamma != 0 or not (
            abs(self.gamma - direct) <= 1e-12 * (1 + abs(direct))
        ):
            raise ValueError(f"triple of nu = ({self.nu1}, {self.nu2}) does not sum to 0")

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
