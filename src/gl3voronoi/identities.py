"""Builders and residual verifiers for the double-Dirichlet-series identities.

Each identity gets its own operation with its own enumeration-bound
derivation documented inline; there is no generic identity checker that
would hide the completeness reasoning.  All verifiers return residuals
(max absolute coefficient discrepancy); thresholds live in the harness.

Conventions shared by every builder here:

- Monomial keys follow the ``formal`` module: coeff * X^(-w) * Y^(-s),
  so n^-(2w-s) contributes (X, Y) = (n^2, 1/n), d^-s contributes Y = d,
  l^-(2w-2s+1) contributes X = l^2, Y = 1/l^2 and a coefficient 1/l,
  and cstar^-3s contributes Y = cstar^3.

- H(q, l, chi*, s) denotes the twisted coefficient series
      sum_n A(q, n) g(chibar*, l cstar, n) n^-s (l)^(2s-1),
  an s-only series whose n-th term sits at Y = n / l^2 with coefficient
  A(q, n) g(chibar*, l cstar, n) / l.

- G(q, l, chi*, s) denotes its dual, built WITHOUT the transcendental
  archimedean factor: that factor occurs to exactly the first power in
  every term on both sides of the rearrangement identity, is treated as
  an uninterpreted unit symbol, and is cancelled structurally.
  Tolerances: end-to-end identity runs are exact up to floating
  roundoff, budgeted at 1e-8 for the windowed sweeps.

- The shell's builders ``_add_H`` and ``_add_G`` add their terms
  straight into the shell's terms.  They take a ``shift``, which moves
  every term from Y to shift * Y before the window is applied, and
  splits (d1, l, scale), whose ``scale`` is the first factor of every
  coefficient of its cell.  build_H and build_G are their one-cell,
  unshifted and unscaled cases.  Given a list for the ratios of the
  weights it skips, ``_add_G`` skips the weights that the Ramanujan
  lemma makes exactly zero (see its docstring); build_G passes none, so
  it walks every d.

- _add_H, _add_G and the left sides of the Z expansion and the
  rearrangement enumerate through one key grid, ``_keys``: for a fixed
  K their terms sit at Y = K/n (_add_H and the Z left side: 1/Y =
  K/n), and ``_keys`` lists exactly the in-window keys with the one
  index n that lands on each, so no index whose term falls outside the
  window is touched.  It returns the grid as three int64 columns (nums,
  dens, ns), walked with zip, since the grids stay cached for the life
  of the process and a tuple per key took nearly four times the memory.
  The Z left side's pairs (n, l) are the cells of ``_dirichlet_cells``,
  the same cells as its right side's (X, d1, l).

- The right sides of the Z expansion, the rearranged dual expansion and
  the Moebius assembly share one shell, built by ``_shell``:

      sum_{d2|Q} sum_{(X, d1, l)} psi(d2) chi*(d1 d2) d2^-s inner(Q d1/d2, l, s)

  with inner = H or G placed at X, d2 | Q the outer loop, and each
  inner term added with shift d2 and scale psi(d2) chi*(d1 d2).  The
  cells of one X and one k = d1 l go to the inner builder as one group,
  in ascending d1: ``_add_H`` walks each cell's key grid in turn,
  ``_add_G`` folds them and walks each key grid once per (d2, k, d), not
  once per cell.
"""

from __future__ import annotations

import math
from array import array
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from .arith import divisors, euler_phi, mobius, worse
from .characters import (
    KERNEL_BLOCK_TERMS,
    DirichletCharacter,
    _gauss_sums,
    _root_array,
    _times,
    _unit_sums,
    _units_and_inverses,
    enumerate_characters,
    gauss_sum,
    gauss_sum_table,
    primitive_characters,
)
from .formal import PRUNE_EPS, FormalSeries, Window, compare
from .heckemodel import HeckeCoefficientModel

__all__ = [
    "ramanujan_lemma_residual",
    "ramanujan_lemma_sweep",
    "build_H",
    "build_G",
    "verify_Z_expansion",
    "verify_fe_rearrangement",
    "fe_rearrangement_sensitivity",
    "verify_moebius_assembly",
    "verify_orthogonality_equivalence",
]


def _check_case(model: HeckeCoefficientModel, chi_star: DirichletCharacter, q: int) -> None:
    """Enforce what every windowed verifier below assumes: chi* is
    primitive, and q and cstar are coprime to the level."""
    n = model.level
    if not chi_star.is_primitive:
        raise ValueError("chi* must be primitive")
    if math.gcd(q, n) != 1:
        raise ValueError(f"q={q} must be coprime to the level {n}")
    if math.gcd(chi_star.modulus, n) != 1:
        raise ValueError("the conductor of chi* must be coprime to the level")


def ramanujan_lemma_residual(
    chi_star: DirichletCharacter, cstar: int, m: int, level: int, ell_max: int
) -> float:
    """Coefficientized generating identity for nonprimitive Gauss sums.

    The Dirichlet series sum_{(l,N)=1} g(chi*, l cstar, m) l^-s equals
    tau(chi*) m^(1-s) sigma_{s-1}(m, chibar*; N) / L^(N)(s, chi*).
    Multiplying through by L^(N)(s, chi*) and matching coefficients at
    each l coprime to N gives the finite form verified here:

        sum_{l1 l2 = l} g(chi*, l1 cstar, m) chi*(l2)
            = [l | m] tau(chi*) chibar*(m/l) l.

    Returns the max discrepancy over l <= ell_max with (l, N) = 1.
    """
    if chi_star.modulus != cstar or not chi_star.is_primitive:
        raise ValueError("chi* must be primitive modulo cstar")
    if math.gcd(cstar, level) != 1:
        raise ValueError("cstar must be coprime to the level")
    if m < 1:
        raise ValueError("m must be a positive integer")
    chibar = chi_star.conjugate()
    tau = gauss_sum(chi_star)
    worst = 0.0
    for ell in range(1, ell_max + 1):
        if math.gcd(ell, level) != 1:
            continue
        lhs = 0j
        for l1 in divisors(ell):
            cmod = l1 * cstar
            lhs += gauss_sum_table(chi_star, cmod)[m % cmod] * chi_star(ell // l1)
        rhs = tau * chibar(m // ell) * ell if m % ell == 0 else 0j
        worst = worse(worst, abs(lhs - rhs))
    return worst


def ramanujan_lemma_sweep(cstar: int, levels: tuple, m_max: int, ell_max: int) -> list[float]:
    """ramanujan_lemma_residual(chi*, cstar, m, level, ell_max) bit for bit, for
    each level coprime to cstar, primitive chi* mod cstar and m <= m_max in
    turn, from one batched kernel call per modulus l1 cstar (l1 <= ell_max)
    that builds the columns m = 1..m_max for every chi* and is dropped on return."""
    levels = [n for n in levels if math.gcd(cstar, n) == 1]
    chis = primitive_characters(cstar)
    if not (levels and chis and m_max >= 1):
        return []
    ms = range(1, m_max + 1)
    g = [None] + [_gauss_sums(chis, l1 * cstar, ms).tolist() for l1 in range(1, ell_max + 1)]
    out = []
    for level in levels:
        ells = [(ell, divisors(ell)) for ell in range(1, ell_max + 1) if math.gcd(ell, level) == 1]
        for i, chi in enumerate(chis):
            vals, bar = chi.values(), chi.conjugate().values()
            for m in ms:
                worst = 0.0
                for ell, l1s in ells:
                    lhs = 0j
                    for l1 in l1s:
                        lhs += g[l1][i][m - 1] * vals[ell // l1 % cstar]
                    # tau(chi*) is the l1 = 1, m = 1 entry
                    rhs = g[1][i][0] * bar[m // ell % cstar] * ell if m % ell == 0 else 0j
                    worst = worse(worst, abs(lhs - rhs))
                out.append(worst)
    return out


def build_H(
    q: int, ell: int, chi_star: DirichletCharacter, model: HeckeCoefficientModel, window: Window
) -> FormalSeries:
    """Twisted coefficient series H(q, l, chi*, s) at modulus c = l cstar.

    s-only (X = 1).  This is the one-cell case of the shell's builder
    ``_add_H``; every key's reduced denominator divides l^2, and the
    numerators are unbounded, so the series holds its in-window keys,
    not a whole X-slice.
    """
    terms: dict[tuple[int, int, int], complex] = {}
    _add_H(terms, 1, q, [(1, ell, 1)], chi_star, model, window, 1)
    return FormalSeries(terms, window)


@lru_cache(maxsize=None)
def _keys(k_num: int, k_den: int, p_max: int, q_max: int) -> tuple[Sequence[int], ...]:
    """Every (num, den, n) with num/den = K/n in lowest terms, num <= p_max,
    den <= q_max and n >= 1, where K = k_num/k_den is in lowest terms, as
    three columns (nums, dens, ns): walk it as zip(*_keys(...)).

    Complete: num k_den n = den k_num with (num, den) = 1 forces
    num | k_num, and (k_num, k_den) = 1 forces k_den | den.  So num runs
    over the divisors of k_num up to p_max and den over the multiples of
    k_den up to q_max coprime to num; conversely each such pair is hit by
    exactly one index, n = (k_num / num) (den / k_den), since K/n is
    injective in n.

    The grids stay cached for the life of the process, so each column is
    an int64 array (a grid's three take about a quarter of the memory of
    a tuple of triples); a grid with an index past 2**63 - 1 keeps tuple
    columns instead.
    """
    nums: list[int] = []
    dens: list[int] = []
    ns: list[int] = []
    for num in divisors(k_num):
        if num > p_max:
            break
        step = k_num // num
        for den in range(k_den, q_max + 1, k_den):
            if math.gcd(num, den) == 1:
                nums.append(num)
                dens.append(den)
                ns.append(step * (den // k_den))
    try:
        return array("q", nums), array("q", dens), array("q", ns)
    except OverflowError:
        return tuple(nums), tuple(dens), tuple(ns)


def build_G(
    q: int,
    ell: int,
    chi_star: DirichletCharacter,
    model: HeckeCoefficientModel,
    window: Window,
    contragredient: HeckeCoefficientModel,
) -> FormalSeries:
    """Dual twisted series G(q, l, chi*, s) at c = l cstar, stripped of
    the archimedean unit factor.

    Term (d, n), with d running over divisors of q*l (the multiples of
    cstar dividing q*c) and n >= 1:

        chi*(-N) psi(q c) cstar
            * A~(d, n) g(chi*, c, d) g(chi*, q c / d, n) / (d n)

    at Y = q l cstar^3 / (d^2 n), X = 1, with A~ read from
    contragredient, the model's dual.  This is the one-cell case of the
    shell's grouped builder ``_add_G``, which enumerates the terms of
    each d through ``_keys``; every d is walked, as the Ramanujan lemma
    that lets the shell skip weights needs all the splits of k.  The
    support is unbounded past the window, so the series holds its
    in-window keys, not a whole X-slice.
    """
    terms: dict[tuple[int, int, int], complex] = {}
    _add_G(terms, 1, q, [(1, ell, 1)], chi_star, model, window, 1, contragredient)
    return FormalSeries(terms, window)


def _add_G(
    terms, x, q0, splits, chi_star, model, window, shift, contragredient, zeros=None
) -> None:
    """Add at X = x the sum over the splits (d1, l, scale) of one k = d1 l
    of scale * G(q0 d1, l, chi*, s) at the given shift.

    With q = q0 d1 and c = l cstar, every split has q l = q0 k, so all
    share the divisors d of q0 k, the key grid of K = shift q0 k cstar^3
    / d^2, the Gauss table of modulus q0 k cstar / d and psi(q0 k cstar).
    They differ only in scale g(chi*, l cstar, d), so by distributivity
    those are summed into one weight w(d) and each key grid is walked
    once, adding

        chi*(-N) psi(q0 k cstar) cstar w(d) A~(d, n) g(chi*, q0 k cstar / d, n) / (d n).

    The scales must be one common factor times chi*(d1), as ``_shell``
    gives them, so w(d) is that factor times the sum over the splits of
    chi*(d1) g(chi*, l cstar, d).  Over all the splits of k, as in the
    shell, the Ramanujan lemma (check ramanujan-lemma) makes that sum
    [k | d] tau(chi*) chibar*(d/k) k: it is exactly zero when k does not
    divide d or chi*(d/k) = 0, and then the key grid of d is not walked.
    That skip is made only when zeros is a list, and each skipped
    weight's |w(d)| over the sum of the absolute values of its terms
    (each split's |scale| times the phi(l cstar) unit terms of its Gauss
    sum) is appended to it: roundoff, unless a Gauss table is wrong or a
    split of k is missing, and the caller folds it into its residual.
    With zeros None, as in build_G's one cell, where the lemma does not
    hold, every d is walked.  Every other weight is used as its float.
    The group's sum at each key is pruned as a built series is.
    """
    cstar = chi_star.modulus
    d1, ell, _ = splits[0]
    k = d1 * ell
    qk = q0 * k
    pref = chi_star(-model.level) * model.psi(qk * cstar) * cstar
    if not pref:
        return
    tabs = [(scale, gauss_sum_table(chi_star, l * cstar), l * cstar) for _, l, scale in splits]
    bulk = sum(abs(scale) * euler_phi(c) for scale, _, c in tabs)
    knum = shift * qk * cstar**3
    coefficient = contragredient.coefficient
    part: dict[tuple[int, int], complex] = {}
    for d in divisors(qk):
        w = sum(scale * gtab[d % c] for scale, gtab, c in tabs)
        if zeros is not None and (d % k or not chi_star(d // k)):
            zeros.append(abs(w) / bulk)
            continue
        wd = pref * w / d
        mod2 = qk * cstar // d
        gtab2 = gauss_sum_table(chi_star, mod2)
        g = math.gcd(knum, d * d)
        for num, den, n in zip(*_keys(knum // g, d * d // g, window.p_max, window.q_max)):
            g2 = gtab2[n % mod2]
            if not g2:
                continue
            coeff = wd * coefficient(d, n) * g2 / n
            if coeff:
                part[num, den] = part.get((num, den), 0j) + coeff
    for (num, den), coeff in part.items():
        if not abs(coeff) < PRUNE_EPS:
            terms[x, num, den] = terms.get((x, num, den), 0j) + coeff


def _shell(terms, inner, model, chi_star, big_q, cells, window, scale, shift=1, **kw):
    """Add scale * shift^-s * the shell (see the module docstring) over
    the cells (X, d1, l) into terms.  For each d2 and each group of cells
    with one X and one k = d1 l, inner (``_add_H`` or ``_add_G``, kw
    passed on) gets the splits (d1, l, psi(d2) chi*(d1 d2) scale) in the
    cells' order (ascending d1), so each key is summed in d2, d1 order."""
    psi = model.psi
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for x, d1, ell in cells:
        groups.setdefault((x, d1 * ell), []).append((d1, ell))
    for d2 in divisors(big_q):
        for (x, _), splits in groups.items():
            group = []
            for d1, ell in splits:
                pref = scale * psi(d2) * chi_star(d1 * d2)
                if pref:
                    group.append((d1, ell, pref))
            if group:
                inner(terms, x, big_q // d2, group, chi_star, model, window, shift * d2, **kw)
    return terms


def _add_H(terms, x, q0, splits, chi_star, model, window, shift) -> None:
    """Add at X = x the sum over the splits (d1, l, scale) of
    scale * H(q0 d1, l, chi*, s) at the given shift, split by split.

    The n-th term of H(q0 d1, l) lands at Y = shift n / l^2, so
    1/Y = (l^2 / shift) / n and the in-window keys with their indices
    come from ``_keys`` with the roles of num and den swapped.  Each term
    is pruned on its own, as a built series prunes it.
    """
    chibar = chi_star.conjugate()
    cstar = chi_star.modulus
    coefficient = model.coefficient
    for d1, ell, scale in splits:
        q = q0 * d1
        c = ell * cstar
        gtab = gauss_sum_table(chibar, c)
        ell2 = ell * ell
        g = math.gcd(ell2, shift)
        for den, num, n in zip(*_keys(ell2 // g, shift // g, window.q_max, window.p_max)):
            gv = gtab[n % c]
            if not gv:
                continue
            coeff = scale * coefficient(q, n) * gv / ell
            if not abs(coeff) < PRUNE_EPS:
                terms[x, num, den] = terms.get((x, num, den), 0j) + coeff


def _dirichlet_cells(x_max: int, level: int) -> list[tuple[int, int, int]]:
    """(X, d1, l) = ((d1 l)^2, d1, l) for d1, l coprime to the level with
    (d1 l)^2 <= x_max: the d1^-2w l^-2w carriers of the Z expansion."""
    root = math.isqrt(x_max)
    return [
        ((d1 * ell) ** 2, d1, ell)
        for d1 in range(1, root + 1)
        if math.gcd(d1, level) == 1
        for ell in range(1, root // d1 + 1)
        if math.gcd(ell, level) == 1
    ]


def verify_Z_expansion(
    model: HeckeCoefficientModel,
    q: int,
    chi_star: DirichletCharacter,
    window: Window,
) -> float:
    """Expansion of Z(s,w) through the shifted twisted series.

    Left side: the quotient L_q^(N)(2w-s, F) / L^(N)(2w-2s+1, chibar*)
    times L(s, F x chi*).  The quotient's term of the pair (n, l) sits at
    (X, 1, D) = ((n l)^2, 1, n l^2), and its key names the pair, so the
    quotient sums nothing; each key of the left side is summed in the
    order of the pairs:

        Z(s,w) = L_q^(N)(2w-s, F) * L(s, F x chi*) / L^(N)(2w-2s+1, chibar*)

    Right side, from the bilinear coefficient relation and the
    generating identity for nonprimitive Gauss sums:

        sum_{(d1,N)=1} d1^-2w tau(chibar*)^-1 sum_{d2|q} sum_{(l,N)=1}
            psi(d2) chi*(d1 d2) l^-2w d2^-s H(q d1/d2, l, chi*, s)

    Enumeration bounds: the quotient's pairs, n and l coprime to the
    level with X = (n l)^2 <= x_max, are the cells (X, n, l) of
    ``_dirichlet_cells``, in its order, and each term lies in the window,
    at 1/Y = n l^2 <= (n l)^2 <= x_max.  Its term (X, 1, D) meets m at
    1/Y = D/m, so ``_keys`` lists the m that land.  On the right, d1,
    l are bounded through X = (d1 l)^2 <= x_max; the inner index n by
    _add_H's key grid, whose keys d2 n / l^2 have num <= p_max and
    den | l^2, den <= q_max.  Returns the windowed compare residual.
    """
    _check_case(model, chi_star, q)
    level = model.level
    chibar = chi_star.conjugate()
    cells = _dirichlet_cells(window.x_max, level)

    # the quotient's term A(q, n) mu(l) chibar*(l) / l at (X, 1, n l^2),
    # times L(s, F x chi*) = sum_m A(1, m) chi*(m) m^-s
    lterms: dict[tuple[int, int, int], complex] = {}
    for x, n, ell in cells:
        mu_chi = mobius(ell) * chibar(ell)
        if not mu_chi:
            continue
        ca = complex(model.coefficient(q, n)) * (complex(mu_chi) / ell)
        if abs(ca) < PRUNE_EPS:
            continue
        for den, num, m in zip(*_keys(n * ell * ell, 1, window.q_max, window.p_max)):
            chi = chi_star(m)
            if not chi:
                continue
            key = (x, num, den)
            lterms[key] = lterms.get(key, 0j) + ca * (model.coefficient(1, m) * chi)
    lhs = FormalSeries(lterms, window)

    terms = _shell({}, _add_H, model, chi_star, q, cells, window, 1 / gauss_sum(chibar))
    rhs = FormalSeries(terms, window)
    return compare(lhs, rhs)


def verify_fe_rearrangement(
    model: HeckeCoefficientModel,
    q: int,
    chi_star: DirichletCharacter,
    window: Window,
    dual: HeckeCoefficientModel | None = None,
    zero_weights: list[float] | None = None,
) -> float:
    """Rearranged dual expansion of Z(s,w), archimedean factor stripped.

    Left side (dual coefficients through the contragredient relation and
    the bilinear relation, conductor powers kept as Y carriers):

        psi(cstar) chi*(N) tau(chi*)^3 sum_{(n,N)=1} sum_{d1|q} sum_{d0}
            A~(n d1, q d0/d1) psi(n q) chibar*(d0 d1)
            n^-(2w-s) (d0 d1)^-(1-s) cstar^-3s

    Right side: the same double-series shell as verify_Z_expansion with
    H replaced by the stripped dual series G.

    Both sides carry the archimedean unit symbol to exactly the first
    power in every term, so cancelling it is structural.
    The two normalizations are linked by tau(chi*) tau(chibar*) =
    chi*(-1) cstar, which is asserted numerically before comparing.

    Enumeration bounds: left side n^2 <= x_max and, for fixed (n, d1),
    the terms at Y = (cstar^3 / (n d1)) / d0 through ``_keys``; right
    side as in build_G.

    Both sides are linear in the dual coefficient family, so the
    identity holds for arbitrary dual values and perturbing a dual
    coefficient cannot break it; use fe_rearrangement_sensitivity for
    the verifier's own fault probe.

    The right side skips each weight of ``_add_G`` that the Ramanujan
    lemma makes exactly zero; the largest ratio that it reports for them,
    roundoff unless a Gauss table is wrong or the skip is, is folded into
    the returned residual and, if zero_weights is a list, appended to it.
    """
    _check_case(model, chi_star, q)
    if dual is None:
        dual = model.contragredient()
    residual, zero = _fe_residual(model, q, chi_star, window, dual, dual)
    if zero_weights is not None:
        zero_weights.append(zero)
    return residual


def fe_rearrangement_sensitivity(
    model: HeckeCoefficientModel,
    q: int,
    chi_star: DirichletCharacter,
    window: Window,
    delta: complex = 1e-3,
) -> float:
    """Fault probe for the rearrangement verifier.

    The rearrangement identity is valid for every dual coefficient
    family, so corrupting the dual on both sides leaves it intact; to
    show the comparison itself is not vacuous, this probe corrupts the
    dual on ONE side only and returns the resulting residual, which must
    be of the order of the injected delta.
    """
    dual = model.contragredient()
    return _fe_residual(model, q, chi_star, window, dual, dual.corrupted((1, 2), delta))[0]


def _fe_residual(model, q, chi_star, window, dual, rhs_dual) -> tuple[float, float]:
    """Rearrangement residual, dual coefficients from dual on the left
    side and from rhs_dual on the right (the G-shell), with the largest
    ratio of the G-shell's exactly zero weights folded in; and that
    ratio."""
    tau = gauss_sum(chi_star)
    tau_bar = gauss_sum(chi_star.conjugate())
    cstar = chi_star.modulus
    if not abs(tau * tau_bar - chi_star(-1) * cstar) < 1e-9 * cstar:
        raise ValueError(f"tau(chi*) tau(chibar*) = {tau * tau_bar} is not chi*(-1) cstar")
    lhs = _fe_lhs_series(model, q, chi_star, window, dual, tau)
    cells = _dirichlet_cells(window.x_max, model.level)
    zeros: list[float] = []
    rterms = _shell(
        {}, _add_G, model, chi_star, q, cells, window, 1 / tau_bar, contragredient=rhs_dual,
        zeros=zeros
    )
    zero = worse(0.0, *zeros)
    return worse(compare(lhs, FormalSeries(rterms, window)), zero), zero


def _fe_lhs_series(model, q, chi_star, window, dual, tau) -> FormalSeries:
    level = model.level
    psi = model.psi
    chibar = chi_star.conjugate()
    cstar = chi_star.modulus
    x_max, p_max, q_max = window.x_max, window.p_max, window.q_max
    c3 = cstar**3
    pref = psi(cstar) * chi_star(level) * tau**3
    lterms: dict[tuple[int, int, int], complex] = {}
    for n in range(1, math.isqrt(x_max) + 1):
        if math.gcd(n, level) != 1:
            continue
        x = n * n
        for d1 in divisors(q):
            psn = pref * psi(n * q)
            g = math.gcd(c3, n * d1)
            for num, den, d0 in zip(*_keys(c3 // g, n * d1 // g, p_max, q_max)):
                cb = chibar(d0 * d1)
                if not cb:
                    continue
                coeff = psn * dual.coefficient(n * d1, (q // d1) * d0) * cb / (d0 * d1)
                key = (x, num, den)
                lterms[key] = lterms.get(key, 0j) + coeff
    return FormalSeries(lterms, window)


def verify_moebius_assembly(
    model: HeckeCoefficientModel,
    q: int,
    m: int,
    chi_star: DirichletCharacter,
    window: Window,
) -> float:
    """Moebius disassembly of H into its convolution shell.

    Checks, as s-only series,

        H(q, m, chi*, s) = sum_{e0|m} sum_{e1|q e0}
            mu(e0) mu(e1) chi*(e0 e1) psi(e1) e1^-s
            BoldH(q e0/e1, m/e0, chi*, s)

    with BoldH(Q, M, chi*, s) = sum_{d2|Q} sum_{d1 l = M}
    psi(d2) chi*(d1 d2) d2^-s H(Q d1/d2, l, chi*, s).  At m = 1 this
    reduces to one-dimensional Moebius inversion over e1 | q.  Both sides
    are linear in the coefficients and Gauss sums, so this guards the
    shell's Moebius bookkeeping, not those values.

    Enumeration bound: each inner term lands at Y = e1 d2 n / l^2, so
    _add_H's key grid (num <= p_max, den | l^2, den <= q_max) holds
    every index that reaches the window.
    """
    _check_case(model, chi_star, q)
    level = model.level
    if math.gcd(m, level) != 1:
        raise ValueError(f"m={m} must be coprime to the level {level}")
    psi = model.psi
    s_window = Window(1, window.p_max, window.q_max)
    lhs = build_H(q, m, chi_star, model, s_window)

    terms: dict[tuple[int, int, int], complex] = {}
    for e0 in divisors(m):
        mu0 = mobius(e0)
        if not mu0:
            continue
        for e1 in divisors(q * e0):
            mu1 = mobius(e1)
            if not mu1:
                continue
            outer = mu0 * mu1 * chi_star(e0 * e1) * psi(e1)
            if not outer:
                continue
            big_m = m // e0
            cells = [(1, d1, big_m // d1) for d1 in divisors(big_m)]
            _shell(terms, _add_H, model, chi_star, q * e0 // e1, cells, window, outer, e1)
    rhs = FormalSeries(terms, s_window)
    return compare(lhs, rhs)


def verify_orthogonality_equivalence(
    model: HeckeCoefficientModel, c: int, q: int, n_max: int
) -> float:
    """Character decomposition of additive twists against the H family.

    For each unit a mod c and each n, the character sums

        sum_{chi mod c} chibar(a) [A(q, n) g(chibar, c, n)]

    must reconstruct phi(c) A(q, n) e(a~ n / c): summing the
    character-twisted coefficients recovers the additively twisted one.
    Returns the max residual over units a and n <= n_max.  A(q, n)
    multiplies both sides, so this guards only the Gauss and character layer.
    """
    level = model.level
    if math.gcd(c, level) != 1:
        raise ValueError(f"c={c} must be coprime to the level {level}")
    if math.gcd(q, level) != 1:
        raise ValueError(f"q={q} must be coprime to the level {level}")
    chars = enumerate_characters(c)
    # column n mod c, for each n <= n_max: g(chibar_i, c, n)
    cols = sorted({n % c for n in range(1, min(n_max, c) + 1)})
    tabs = _gauss_sums([ch.conjugate() for ch in chars], c, cols)
    units, invs = _units_and_inverses(c)
    # chibar_i(a) on the (characters x units) grid
    xbar = np.array([ch.values() for ch in chars])[:, np.array(units) % c].conjugate()
    ns = np.arange(1, n_max + 1)
    col = np.searchsorted(cols, ns % c)
    a_qn = [model.coefficient(q, n) for n in range(1, n_max + 1)]
    coeffs = np.array(a_qn, dtype=complex)
    scaled = np.array([len(units) * a for a in a_qn], dtype=complex)  # phi(c) A(q, n)
    roots = _root_array(c)
    # lhs[a, n] = sum over i of (chibar_i(a) A(q, n)) g(chibar_i, c, n), in
    # blocks of n whose (characters x units x n) terms one kernel block holds
    step = max(1, KERNEL_BLOCK_TERMS // xbar.size)
    worst = 0.0
    for j in range(0, n_max, step):
        block = slice(j, j + step)
        g = tabs[:, col[block]]
        lhs = _unit_sums(xbar, lambda s: g[:, s], g.shape[1], coeffs[block])
        phases = roots[np.outer(invs, ns[block]) % c]
        rhs_re, rhs_im = _times(scaled[block].real, scaled[block].imag, phases.real, phases.imag)
        worst = worse(worst, *np.hypot(lhs.real - rhs_re, lhs.imag - rhs_im).ravel().tolist())
    return worst
