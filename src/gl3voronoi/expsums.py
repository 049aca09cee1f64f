"""Kloosterman sums and character-average collapses.

S(a, b; c) = sum over units x mod c of e((a x + b x~)/c), with x~ the
inverse of x mod c.  S(a, b; 1) = 1 (empty modulus).
kloosterman_matrix(c) gives every S(a, b; c) at once from the units and
inverses of characters._units_and_inverses, each phase read from the
root array characters._root_array(c) at its angle reduced mod c; its
second factor is the first with its columns permuted from u to u~.

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
    KERNEL_MAX_MODULUS,
    _gauss_sums,
    _root_array,
    _times,
    _unit_sums,
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
    the product of the root-table gather e(j u / c) over the units u mod
    c with its column permutation e(j u~ / c)."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    units, invs = _units_and_inverses(c)
    a = _root_array(c)[np.outer(np.arange(c), units) % c]
    # for c = 1 the one inverse is 0, which also lands on column 0
    return a @ np.take(a, np.searchsorted(units, invs), axis=1).T


# -- character-averaged collapse --------------------------------------------


def char_kloosterman_reduction_sweep(
    c_max: int, m_set: tuple[int, ...], m2_max: int
) -> tuple[float, int]:
    """Max collapse residual over c <= c_max, all chi mod c, m in m_set,
    all m1 | c m, |m2| <= m2_max.  Returns (max residual, case count).

    Vectorized over characters and m2; spot tuples are cross-checked
    against a scalar oracle in the test suite.  The Gauss sums
    g(chibar*, C, m2) depend on (c, m, m1) only through chibar* and
    C = |c m| / m1, with sign +1: since m2s is symmetric and each column
    of the kernel is computed on its own, the sign -1 block is the +1
    block reversed.  A first pass over c keeps each c's units, xbar,
    primitive parts and g(chibar*, c, m1), from one kernel call per c
    over the columns m1 mod c that it reads.  Then each C is visited
    once: one row per primitive character mod every divisor of every c
    that reads C is built, in as few kernel calls as KERNEL_MAX_MODULUS**2
    entries per call allow, and C's phases e(m2 u~ / C) once; the tuples
    (m, m1) of each c that reads C are checked as one batch, from one
    stacked gather e(a m u / C), one stacked product with the phases,
    one product with xbar and one residual array, whose per-tuple
    maxima are folded in tuple order.  Each stacked product is one
    matrix product per tuple, the same as the tuple's own.  C's data is
    dropped before the next C, so one C is held at a time.
    """
    m2s = np.arange(-m2_max, m2_max + 1)
    per_c = {}  # c -> (units, xbar, primitive parts, {m1 mod c: g1 column})
    by_big_c: dict[int, dict[int, list]] = {}  # C -> {c: its (m, m1) that read C}
    for c in range(1, c_max + 1):
        units_c = np.array(_units_and_inverses(c)[0])
        chars = enumerate_characters(c)
        xbar = np.ascontiguousarray(
            np.array([ch.values() for ch in chars])[:, units_c % c]
        ).conjugate()
        prim = [primitive_part(ch.conjugate()) for ch in chars]
        tuples = [(m, m1) for m in m_set for m1 in divisors(c * m)]
        cols = sorted({m1 % c for _, m1 in tuples})
        per_c[c] = units_c, xbar, prim, dict(zip(cols, _gauss_sums(prim, c, cols).T))
        for m, m1 in tuples:
            by_big_c.setdefault(abs(c * m) // m1, {}).setdefault(c, []).append((m, m1))
    worst = 0.0
    cases = 0
    for big_c, readers in sorted(by_big_c.items()):
        roots, units_big, phase, rows = _reduction_rows(big_c, set(readers), m2s)
        for c, tuples in readers.items():
            units_c, xbar, prim, g1 = per_c[c]
            g2_block = np.array([rows[ps] for ps in prim])
            ms = np.array([m for m, _ in tuples])
            index = ms[:, None, None] * np.outer(units_c, units_big) % big_c
            lhs = xbar @ (roots[index] @ phase.T)
            g1s = np.array([g1[m1 % c] for _, m1 in tuples])[:, :, None]
            g2s = np.array([g2_block if m > 0 else g2_block[:, ::-1] for m in ms])
            worst = worse(worst, *np.abs(lhs - g1s * g2s).max(axis=(1, 2)).tolist())
            cases += len(tuples) * len(prim) * len(m2s)
    return worst, cases


def _reduction_rows(big_c: int, readers: set[int], m2s: np.ndarray) -> tuple:
    """What the reduction sweep reads at C: its roots, units, phases
    e(m2 u~ / C), and the row g(chibar*, C, m2s) of every primitive
    character chibar* mod every divisor of every c in readers."""
    units_big, invs_big = _units_and_inverses(big_c)
    roots = _root_array(big_c)
    phase = roots[np.outer(m2s, invs_big) % big_c]
    chis = [
        chi for d in sorted({d for c in readers for d in divisors(c)})
        for chi in primitive_characters(d)
    ]
    per_call = max(1, KERNEL_MAX_MODULUS**2 // (len(units_big) * len(m2s)))
    rows = np.concatenate(
        [_gauss_sums(chis[i : i + per_call], big_c, m2s) for i in range(0, len(chis), per_call)]
    )
    return roots, units_big, phase, dict(zip(chis, rows))


# -- additive collapse -------------------------------------------------------


def additive_collapse_sweep(c_max: int) -> tuple[float, int]:
    """Max additive-collapse residual over c <= c_max, every level N | c,
    every psi mod N and chi mod c with psi*chi primitive, and all n mod c.

    The residual depends on (psi, chi) only through theta = psi*chi, and
    on n only mod c, so each primitive theta mod c is evaluated once at
    each n mod c: one _unit_sums call per c gives every left side, over
    the units a with w[a, theta] = thetabar(a) and e[a, n] = e(-n a~ / c),
    and each residual |lhs - (-1)^kappa tau(theta) thetabar(n)| is folded
    on its own.  The count is that of the (N, psi, chi, n) cases: theta
    comes from exactly one chi = theta psibar for each psi mod N, and
    sum_{N | c} phi(N) = c, so each primitive theta stands for c * c cases.
    """
    worst = 0.0
    cases = 0
    for c in range(1, c_max + 1):
        prim = primitive_characters(c)
        if not prim:
            continue
        units, invs = _units_and_inverses(c)
        tbar = np.array([theta.conjugate().values() for theta in prim])
        roots, ns = _root_array(c), np.arange(c)
        lhs = _unit_sums(
            tbar[:, np.array(units) % c].T, lambda s: roots[np.outer(invs, -ns[s]) % c], c
        )
        # (-1)^kappa tau(theta), as Python's int-by-complex product
        sign_tau = np.array([theta.parity * gauss_sum(theta) for theta in prim])[:, None]
        rhs_re, rhs_im = _times(sign_tau.real, sign_tau.imag, tbar.real, tbar.imag)
        worst = worse(worst, *np.hypot(lhs.real - rhs_re, lhs.imag - rhs_im).ravel().tolist())
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
