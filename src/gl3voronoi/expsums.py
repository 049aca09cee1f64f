"""Kloosterman sums and character-average collapses.

S(a, b; c) = sum over units x mod c of e((a x + b x~)/c), with x~ the
inverse of x mod c.  S(a, b; 1) = 1 (empty modulus).
kloosterman_matrix(c) gives every S(a, b; c) at once from the units and
inverses of characters._units_and_inverses, each phase read from the
root table characters._exp_table(c) at its angle reduced mod c.

The sweeps verify, by full enumeration on both sides:

- char_kloosterman_reduction_sweep: the collapse of a
  character-averaged Kloosterman sum into a product of Gauss sums,
      sum_{(a,c)=1} chibar(a) S(a m, m2; c m / m1)
          = g(chibar*, c, m1) * g(chibar*, c m / m1, m2),
  where chibar* is the primitive character inducing chibar and a
  negative modulus c m / m1 transfers its sign onto the shift m2.  For
  primitive chi the right side vanishes whenever m1 does not divide m,
  which is the familiar two-branch form of the identity.

- additive_collapse_sweep: the additive collapse
      sum_{(a,c)=1} (psi chi)bar(a) e(-n a~ / c)
          = (-1)^kappa tau(psi chi) (psi chi)bar(n)
  for psi chi primitive mod c, kappa = 0 or 1 according to the parity
  of psi chi.

- kloosterman_basic_sweep: S(a, b; c) real and symmetric in (a, b),
  and the Weil bound |S(a, b; p)| <= 2 sqrt p for (ab, p) = 1, a
  classical sanity oracle external to the verified identities;
  reality_symmetry_sweep and weil_bound_sweep read its parts.

The sweeps return residuals; thresholding happens in the harness so
tolerances stay centrally configured.
"""

from __future__ import annotations

import math

import numpy as np

from .arith import divisors, primes_up_to, worse
from .characters import (
    DirichletCharacter,
    _exp_table,
    _gauss_sums,
    _units_and_inverses,
    enumerate_characters,
    gauss_sum,
    primitive_characters,
    primitive_part,
)

__all__ = [
    "kloosterman_matrix",
    "char_kloosterman_reduction_sweep",
    "additive_collapse_sweep",
    "kloosterman_basic_sweep",
    "reality_symmetry_sweep",
    "weil_bound_sweep",
]


def kloosterman_matrix(c: int) -> np.ndarray:
    """All S(a, b; c) for a, b mod c at once, as a c x c complex matrix:
    one product of two root-table gathers over the units mod c."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    units, invs = _units_and_inverses(c)
    roots = np.array(_exp_table(c))
    j = np.arange(c)
    return roots[np.outer(j, units) % c] @ roots[np.outer(j, invs) % c].T


# -- character-averaged collapse --------------------------------------------


def char_kloosterman_reduction_sweep(
    c_max: int, m_set: tuple[int, ...], m2_max: int
) -> tuple[float, int]:
    """Max collapse residual over c <= c_max, all chi mod c, m in m_set,
    all m1 | c m, |m2| <= m2_max.  Returns (max residual, case count).

    Vectorized over characters and m2; spot tuples are cross-checked
    against a scalar oracle in the test suite.  The Gauss sums
    g(chibar*, C, m2) depend on (c, m, m1) only through chibar* and
    C = |c m| / m1, so each row is built once per (chibar*, C), with
    sign +1: since m2s is symmetric and each column of the kernel is
    computed on its own, the sign -1 block is the +1 block reversed.
    C's phases e(m2 u~ / C) are built once too, and all of it is dropped
    after the last c that reads C.  g(chibar*, c, m1) comes from one
    kernel call per c over the columns m1 mod c that it reads.
    """
    m2s = np.arange(-m2_max, m2_max + 1)
    last = {  # C -> the last c that reads it
        abs(c * m) // m1: c for c in range(1, c_max + 1) for m in m_set for m1 in divisors(c * m)
    }
    shared: dict[int, tuple] = {}  # C -> (roots, units, phase block, {chibar*: g2 row})
    worst = 0.0
    cases = 0
    for c in range(1, c_max + 1):
        units_c = np.array(_units_and_inverses(c)[0])
        chars = enumerate_characters(c)
        xbar = np.array(
            [[ch.values()[a % c] for a in units_c] for ch in chars]
        ).conjugate()
        prim = [primitive_part(ch.conjugate()) for ch in chars]
        tuples = [(m, m1, abs(c * m) // m1) for m in m_set for m1 in divisors(c * m)]
        cols = sorted({m1 % c for _, m1, _ in tuples})
        g1 = dict(zip(cols, _gauss_sums(prim, c, cols).T))
        g2_blocks = {}
        for big_c in sorted({big_c for _, _, big_c in tuples}):
            if big_c not in shared:
                units_big, invs_big = _units_and_inverses(big_c)
                roots = np.array(_exp_table(big_c))
                shared[big_c] = roots, units_big, roots[np.outer(m2s, invs_big) % big_c], {}
            rows = shared[big_c][3]
            new = [ps for ps in prim if ps not in rows]
            rows.update(zip(new, _gauss_sums(new, big_c, m2s)))
            g2_blocks[big_c] = np.array([rows[ps] for ps in prim])
        for m, m1, big_c in tuples:
            g2 = g2_blocks[big_c] if m > 0 else g2_blocks[big_c][:, ::-1]
            roots, units_big, phase, _ = shared[big_c]
            lhs = xbar @ (roots[np.outer(units_c * m, units_big) % big_c] @ phase.T)
            worst = worse(worst, float(np.abs(lhs - g1[m1 % c][:, None] * g2).max()))
            cases += len(chars) * len(m2s)
        shared = {big_c: data for big_c, data in shared.items() if last[big_c] > c}
    return worst, cases


# -- additive collapse -------------------------------------------------------


def _collapse_residuals(theta: DirichletCharacter) -> list[float]:
    """The additive-collapse residual at each shift n mod c, c the modulus
    of theta; it depends on n only mod c."""
    c = theta.modulus
    roots = _exp_table(c)
    tbar = theta.conjugate().values()
    units, invs = _units_and_inverses(c)
    sign_tau = theta.parity * gauss_sum(theta)  # (-1)^kappa tau(theta)
    residuals = []
    for n in range(c):
        lhs = sum(tbar[a % c] * roots[(-n * abar) % c] for a, abar in zip(units, invs))
        residuals.append(abs(lhs - sign_tau * tbar[n]))
    return residuals


def additive_collapse_sweep(c_max: int) -> tuple[float, int]:
    """Max additive-collapse residual over c <= c_max, every level N | c,
    every psi mod N and chi mod c with psi*chi primitive, and all n mod c.

    The residual depends on (psi, chi) only through theta = psi*chi, so
    each primitive theta mod c is evaluated once.  The count is that of
    the (N, psi, chi, n) cases: theta comes from exactly one chi = theta
    psibar for each psi mod N, and sum_{N | c} phi(N) = c, so each
    primitive theta stands for c * c cases.
    """
    worst = 0.0
    cases = 0
    for c in range(1, c_max + 1):
        prim = primitive_characters(c)
        for theta in prim:
            worst = worse(worst, *_collapse_residuals(theta))
        cases += c * c * len(prim)
    return worst, cases


# -- bulk sanity sweeps ------------------------------------------------------


def kloosterman_basic_sweep(c_max: int) -> tuple[float, float, float]:
    """(*reality_symmetry_sweep(c_max), weil_bound_sweep(c_max)) bit for bit,
    from one kloosterman_matrix(c) per c <= c_max, dropped after its step."""
    primes = set(primes_up_to(c_max))
    max_im = max_asym = weil = 0.0
    for c in range(1, c_max + 1):
        s = kloosterman_matrix(c)
        max_im = worse(max_im, float(np.abs(s.imag).max()))
        max_asym = worse(max_asym, float(np.abs(s - s.T).max()))
        if c in primes:  # unit rows/columns only
            weil = worse(weil, float(np.abs(s[1:, 1:]).max()) / (2 * math.sqrt(c)))
    return max_im, max_asym, weil


def reality_symmetry_sweep(c_max: int) -> tuple[float, float]:
    """(max |Im S|, max |S(a,b;c) - S(b,a;c)|) over all a, b mod c, c <= c_max."""
    return kloosterman_basic_sweep(c_max)[:2]


def weil_bound_sweep(p_max: int) -> float:
    """Max of |S(a,b;p)| / (2 sqrt p) over primes p <= p_max, (ab, p) = 1.

    Classical sanity oracle, external to the verified identities.
    """
    return kloosterman_basic_sweep(p_max)[2]
