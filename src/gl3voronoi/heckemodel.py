"""Relation-satisfying GL(3) coefficient families with nebentypus.

A model produces coefficients A(m1, m2) for nonzero integers m1, m2 with
(m1, N) = 1, normalized by A(1, 1) = 1, satisfying:

- multiplicativity: A(m1 m1', m2 m2') = A(m1, m2) A(m1', m2') for
  coprime index pairs;
- the bilinear divisor-sum relations
      A(n,1) A(n2,n1) = sum_{abc=n, a|n1, b|n2} psi(ab) A(c n2/b, b n1/a)
      A(1,m) A(n2,n1) = sum_{abc=m, b|n1, c|n2} psi(c)  A(b n2/c, a n1/b)
  (first: (n, N) = 1; second: (n1 n2, N) = 1, m arbitrary);
- the adjoint relation A(n,1) = psi(n) conj(A(1,n));
- the sign rule A(+-m1, (-1)^k m2) = psi(-1)^k A(m1, m2).

Construction: at each prime p not dividing N draw alpha, beta on the
unit circle and set gamma = psi(p)/(alpha beta), so alpha beta gamma =
psi(p).  The local values are Schur polynomials,

    A(p^k1, p^k2) = s_{(k1+k2, k1, 0)}(alpha, beta, gamma),

evaluated through the Jacobi-Trudi determinant h_{k1+k2} h_{k1} -
h_{k1+k2+1} h_{k1-1} with the complete homogeneous h_j generated by the
three-term recursion.  The partition carries k1 (not k2) in its second
row: that is the orientation forced by the divisor-sum relations above
once the psi(ab) / psi(c) weights are in place, and it makes
A(1, p^k) = h_k, hence the local generating function

    sum_k A(1, p^k) T^k = (1 - A(1,p) T + A(p,1) T^2 - psi(p) T^3)^(-1).

At primes p | N the second-index values A(1, p^k) are free parameters
c_{p,k} drawn from the closed unit disc.
Coefficients with (m1, N) > 1 are a domain error, not zero.

All draws are keyed by (seed, role, p, k) through independently seeded
generators, so models are deterministic and order-independent.  A model
is immutable after construction; its caches are idempotent: per prime,
the local triple (_satake) and the complete homogeneous values h_j
(_h), from which coefficient forms each local value inline, two products
and a subtraction, growing the list through _hvals only when it is too
short; per (p, k) the free ramified values (_ramified).  coefficient(m1,
m2) memoizes its final value (sign factor and any injected corruption
included) per instance under the key (m1, m2) (_memo), since the
verifiers ask for the same index pairs many times.  Its misses read the
factorizations of |m1| and |m2| from one module-level cache of tuples
(_factors), shared by every model and bounded at 4096 integers, since
the misses of one sweep factor the same few thousand integers over and
over; an unbounded cache would hold every index of a hecke-relations
run up to its prime bound.
corrupted and contragredient return copies with empty caches, so a twin
never sees its parent's cached values.  Corruptions stack: a
corrupted twin of a corrupted model carries both deltas, added in the
order they were injected.  A corrupted dual keeps the dual's values;
the dual of a corrupted model drops every corruption.

The relation verifiers treat the model as untrusted input and read it
only through coefficient, so any alternative coefficient source can be
plugged in.  hecke_relation_residual_1 and _2 enumerate the divisor sums
of any (n, n1, n2) in full.  relation_residuals, which the
hecke-relations check calls, takes one prime p at a time: every index is
then p^x, or p^x q^J at a prime q of the level, so both sums follow from
the exponents alone.  One exponent plan per power bound lists each term's
psi exponent and table cell, in the order of the divisor loops; each
(model, p) reads one table A(p^x, p^y), one list psi(p^k) and, per q^J
with 1 <= J <= max(2, power_bound), one table A(p^x, q^J p^y), and
replays the plan over them, so that every residual equals the generic
one by repr and nothing is factorized but the table indices, once each.
"""

from __future__ import annotations

import cmath
import copy
import functools
import itertools
import math
import random

from .arith import divisors, factorize, worse
from .characters import DirichletCharacter, principal_character

__all__ = [
    "HeckeCoefficientModel",
    "new_model",
    "CoefficientDomainError",
    "hecke_relation_residual_1",
    "hecke_relation_residual_2",
    "relation_residuals",
    "euler_product_residual",
]


@functools.lru_cache(maxsize=4096)
def _factors(n: int) -> tuple[tuple[int, int], ...]:
    """factorize(n) as a tuple, shared by every model's coefficient misses."""
    return tuple(factorize(n))


class CoefficientDomainError(ValueError):
    """First index shares a factor with the level: coefficient undefined."""


def _unit(rng: random.Random) -> complex:
    return cmath.exp(2j * math.pi * rng.random())


class HeckeCoefficientModel:
    def __init__(self, level: int, psi: DirichletCharacter, seed: int):
        if psi.modulus != level:
            raise ValueError("nebentypus modulus must equal the level")
        self.level = level
        self.psi = psi
        self._seed_key = str(seed)
        # a contragredient inverts its parent's local triples
        self._parent: HeckeCoefficientModel | None = None
        # ((m1, m2), delta) corrections, in the order they were injected
        self._corruption: tuple[tuple[tuple[int, int], complex], ...] = ()
        self._clear_caches()

    def _clear_caches(self) -> None:
        self._satake: dict[int, tuple[complex, complex, complex]] = {}
        self._ramified: dict[tuple[int, int], complex] = {}
        self._h: dict[int, list[complex]] = {}
        self._memo: dict[tuple[int, int], complex] = {}

    def _twin(self, **changes) -> "HeckeCoefficientModel":
        """Copy with empty caches and the given attributes set."""
        twin = copy.copy(self)
        twin._clear_caches()
        for name, value in changes.items():
            setattr(twin, name, value)
        return twin

    # -- local data ----------------------------------------------------------

    def satake(self, p: int) -> tuple[complex, complex, complex]:
        """Local triple (alpha, beta, gamma) at p, whose product is psi(p)
        (requires p coprime to the level)."""
        if self.level % p == 0:
            raise CoefficientDomainError(f"prime {p} divides the level {self.level}")
        cached = self._satake.get(p)
        if cached is not None:
            return cached
        if self._parent is not None:
            triple = tuple(1 / t for t in self._parent.satake(p))
        else:
            rng = random.Random(f"{self._seed_key}|satake|{p}")
            alpha, beta = _unit(rng), _unit(rng)
            triple = (alpha, beta, self.psi(p) / (alpha * beta))
        alpha, beta, gamma = triple
        if not abs(alpha * beta * gamma - self.psi(p)) < 1e-12:
            raise ValueError(f"Satake triple at {p} has product {alpha * beta * gamma} != psi(p)")
        self._satake[p] = triple
        return triple

    def ramified(self, p: int, k: int) -> complex:
        """Free second-index value A(1, p^k) at p | N; k = 0 gives 1."""
        if k == 0:
            return 1 + 0j
        key = (p, k)
        val = self._ramified.get(key)
        if val is None:
            rng = random.Random(f"{self._seed_key}|ramified|{p}|{k}")
            val = math.sqrt(rng.random()) * _unit(rng)  # uniform on the disc
            self._ramified[key] = val
        return val

    def _hvals(self, p: int, upto: int) -> list[complex]:
        """Complete homogeneous h_0..h_upto of the local triple at p."""
        h = self._h.get(p)
        if h is None:
            h = [1 + 0j]
            self._h[p] = h
        if len(h) > upto:
            return h
        alpha, beta, gamma = self.satake(p)
        e1 = alpha + beta + gamma
        e2 = alpha * beta + beta * gamma + gamma * alpha
        e3 = alpha * beta * gamma
        while len(h) <= upto:
            k = len(h)
            h.append(
                e1 * h[k - 1]
                - e2 * (h[k - 2] if k >= 2 else 0)
                + e3 * (h[k - 3] if k >= 3 else 0)
            )
        return h

    # -- public surface --------------------------------------------------------

    def coefficient(self, m1: int, m2: int) -> complex:
        """A(m1, m2) for nonzero integers; (|m1|, N) = 1 required."""
        val = self._memo.get((m1, m2))
        if val is not None:
            return val
        if m1 == 0 or m2 == 0:
            raise ValueError("coefficient indices must be nonzero")
        a1, a2 = abs(m1), abs(m2)
        if math.gcd(a1, self.level) != 1:
            raise CoefficientDomainError(
                f"first index {m1} shares a factor with the level {self.level}"
            )
        level, hs = self.level, self._h
        val = 1 + 0j
        ps = dict(_factors(a1))
        # A(p^k1, p^k2) = s_{(k1+k2, k1, 0)} by Jacobi-Trudi, from h_0..h_(k1+k2+1)
        for p, k2 in _factors(a2):
            if level % p == 0:
                val *= self.ramified(p, k2)
                continue
            k1 = ps.pop(p, 0)
            k = k1 + k2
            h = hs.get(p)
            if h is None or len(h) <= k + 1:
                h = self._hvals(p, k + 1)
            val *= h[k] * h[k1] - h[k + 1] * h[k1 - 1] if k1 else h[k] * h[0]
        for p, k1 in ps.items():
            h = hs.get(p)
            if h is None or len(h) <= k1 + 1:
                h = self._hvals(p, k1 + 1)
            val *= h[k1] * h[k1] - h[k1 + 1] * h[k1 - 1]
        if m2 < 0:
            val *= self.psi.parity
        for index, delta in self._corruption:
            if index == (m1, m2):
                val += delta
        self._memo[(m1, m2)] = val
        return val

    def contragredient(self) -> "HeckeCoefficientModel":
        """Dual model: A~(m1,m2) = psibar(m1 m2) A(m2, m1) off the level.

        Local triples are inverted; the ramified sequence is an
        independent fresh draw (the dual is not pinned at p | N), and the
        parent's corruption is not carried over.
        """
        return self._twin(
            psi=self.psi.conjugate(),
            _seed_key=self._seed_key + "|contra",
            _parent=self,
            _corruption=(),
        )

    def corrupted(self, index: tuple[int, int], delta: complex) -> "HeckeCoefficientModel":
        """Copy of the model with delta added to the coefficient A(index),
        on top of any corruption the model already carries.

        Fault-injection helper: a verifier unable to detect this is broken.
        """
        return self._twin(_corruption=self._corruption + ((index, delta),))


def new_model(
    level: int, psi: DirichletCharacter | None = None, seed: int = 0
) -> HeckeCoefficientModel:
    """Seeded model; psi defaults to the principal character mod level."""
    if psi is None:
        psi = principal_character(level)
    return HeckeCoefficientModel(level, psi, seed)


# -- relation verifiers -------------------------------------------------------


def hecke_relation_residual_1(
    model: HeckeCoefficientModel, n: int, n1: int, n2: int
) -> float:
    """|A(n,1) A(n2,n1) - sum_{abc=n, a|n1, b|n2} psi(ab) A(c n2/b, b n1/a)|.

    Requires (n, N) = 1 and (n2, N) = 1 so every first index is defined.
    """
    level = model.level
    if math.gcd(n, level) != 1:
        raise CoefficientDomainError(f"n={n} must be coprime to the level")
    if math.gcd(n2, level) != 1:
        raise CoefficientDomainError(f"n2={n2} must be coprime to the level")
    psi = model.psi
    lhs = model.coefficient(n, 1) * model.coefficient(n2, n1)
    rhs = 0j
    for a in divisors(n):
        if n1 % a:
            continue
        for b in divisors(n // a):
            if n2 % b:
                continue
            c = n // (a * b)
            rhs += psi(a * b) * model.coefficient(c * n2 // b, b * n1 // a)
    return abs(lhs - rhs)


def hecke_relation_residual_2(
    model: HeckeCoefficientModel, m: int, n1: int, n2: int
) -> float:
    """|A(1,m) A(n2,n1) - sum_{abc=m, b|n1, c|n2} psi(c) A(b n2/c, a n1/b)|.

    Requires (n1 n2, N) = 1; m may contain level primes, whose part is
    forced through the free ramified values because psi kills the other
    decompositions.
    """
    level = model.level
    if math.gcd(n1 * n2, level) != 1:
        raise CoefficientDomainError("n1, n2 must be coprime to the level")
    psi = model.psi
    lhs = model.coefficient(1, m) * model.coefficient(n2, n1)
    rhs = 0j
    for a in divisors(m):
        for b in divisors(m // a):
            if n1 % b:
                continue
            c = m // (a * b)
            if n2 % c:
                continue
            rhs += psi(c) * model.coefficient(b * n2 // c, a * n1 // b)
    return abs(lhs - rhs)


def _terms_1(i: int, j: int, k: int) -> list[tuple[int, tuple[int, int]]]:
    """(psi exponent, (x, y)) of each term psi(ab) A(c n2/b, b n1/a) of the
    first relation at n = p^i, n1 = p^j, n2 = p^k, with a = p^al | n1 and
    b = p^be | n2, in the order of hecke_relation_residual_1's loops."""
    return [
        (al + be, (i - al - 2 * be + k, be + j - al))
        for al in range(min(i, j) + 1)
        for be in range(min(i - al, k) + 1)
    ]


def _terms_2(i: int, j: int, k: int) -> list[tuple[int, tuple[int, int]]]:
    """(psi exponent, (x, y)) of each term psi(c) A(b n2/c, a n1/b) of the
    second relation at m = p^i, n1 = p^j, n2 = p^k, with a = p^al,
    b = p^be | n1 and c = p^(i - al - be) | n2, in the order of
    hecke_relation_residual_2's loops."""
    return [
        (i - al - be, (2 * be + al + k - i, al + j - be))
        for al in range(i + 1)
        for be in range(min(i - al, j) + 1)
        if i - al - be <= k
    ]


@functools.lru_cache(maxsize=None)
def _exponent_plan(power_bound: int):
    """(pure cells, cofactor cells, pure relations, mixed relations).

    A cell (x, y) of the pure table is A(p^x, p^y), one of a cofactor
    table A(p^x, q^J p^y); a relation (left, right, terms) has the
    residual |L[left] P[right] - sum psi(p^e) L[t] over (e, t) in terms|,
    with P the pure table and L the pure table or a cofactor table, each
    index a slot of the table's cell list.  The pure relations are the
    first then the second relation at each (i, j, k) with 1 <= i <=
    power_bound and j, k <= power_bound, the mixed ones the second
    relation at m = q^J p^i, n1 = p^j, n2 = p^k with i, j <= 2, k <= 1
    (1 <= J <= max(2, power_bound), one cofactor table per q^J):
    only a = q^J p^al survives there, so its terms are those at m = p^i
    with q^J on each second index.
    """
    pure_cells: dict[tuple[int, int], int] = {}
    cofactor_cells: dict[tuple[int, int], int] = {}

    def relation(left, right, terms, cells):
        return (
            cells.setdefault(left, len(cells)),
            pure_cells.setdefault(right, len(pure_cells)),
            tuple((e, cells.setdefault(cell, len(cells))) for e, cell in terms),
        )

    exps = range(power_bound + 1)
    pure = []
    for i, j, k in itertools.product(exps[1:], exps, exps):
        pure.append(relation((i, 0), (k, j), _terms_1(i, j, k), pure_cells))
        pure.append(relation((0, i), (k, j), _terms_2(i, j, k), pure_cells))
    mixed = [
        relation((0, i), (k, j), _terms_2(i, j, k), cofactor_cells)
        for i, j, k in itertools.product(range(3), range(3), range(2))
    ]
    return tuple(pure_cells), tuple(cofactor_cells), tuple(pure), tuple(mixed)


def _replay(relations, table, pure, psi) -> list[float]:
    out = []
    for left, right, terms in relations:
        rhs = 0j
        for e, t in terms:
            rhs += psi[e] * table[t]
        out.append(abs(table[left] * pure[right] - rhs))
    return out


def relation_residuals(
    model: HeckeCoefficientModel, p: int, power_bound: int, level_primes: list[int]
) -> list[float]:
    """Both relations' residuals at one prime p coprime to the level.

    First hecke_relation_residual_1 and _2 at (p^i, p^j, p^k) for each
    1 <= i <= power_bound and j, k <= power_bound, in turn; then, for each
    q in level_primes (primes other than p) and 1 <= J <= max(2,
    power_bound), hecke_relation_residual_2 at (q^J p^i, p^j, p^k) for
    i, j <= 2, k <= 1, so every free value A(1, q^J) with J <= power_bound
    is read; each equal to the generic residual by repr, in
    itertools.product order.  Every coefficient is read through
    model.coefficient, once per table cell.
    """
    pure_cells, cofactor_cells, pure, mixed = _exponent_plan(power_bound)
    psi = [model.psi(p**e) for e in range(power_bound + 1)]
    table = [model.coefficient(p**x, p**y) for x, y in pure_cells]
    out = _replay(pure, table, table, psi)
    for q, J in itertools.product(level_primes, range(1, max(2, power_bound) + 1)):
        cofactor = [model.coefficient(p**x, q**J * p**y) for x, y in cofactor_cells]
        out += _replay(mixed, cofactor, table, psi)
    return out


def euler_product_residual(
    model: HeckeCoefficientModel,
    chi: DirichletCharacter,
    s: complex,
    n_max: int,
) -> float:
    """Coefficientwise residual of the degree-3 Euler product.

    Compares A(1,n) chi(n) against the expansion of
        prod_{p not dividing N}
            (1 - A(1,p) chi(p) p^-s + B_p p^-2s - psi(p) chi(p)^3 p^-3s)^(-1)
    over n <= n_max with (n, N) = 1, as finite Dirichlet polynomials,
    where B_p = A(p,1) chi(p)^2: the divisor-sum relations put psi(p) on
    the cubic term only.  The comparison is exact in the coefficients;
    s only fixes the stated convergence domain (Re s >= 2 enforced).
    """
    if complex(s).real < 2:
        raise ValueError("stated convergence domain requires Re s >= 2")
    level = model.level
    psi = model.psi
    ucache: dict[int, list[complex]] = {}

    def useq(p: int, upto: int) -> list[complex]:
        u = ucache.get(p)
        if u is None:
            u = [1 + 0j]
            ucache[p] = u
        cp = chi(p)
        a = model.coefficient(1, p) * cp
        b = model.coefficient(p, 1) * cp * cp
        c = psi(p) * cp**3
        while len(u) <= upto:
            k = len(u)
            u.append(
                a * u[k - 1]
                - b * (u[k - 2] if k >= 2 else 0)
                + c * (u[k - 3] if k >= 3 else 0)
            )
        return u

    worst = 0.0
    for n in range(1, n_max + 1):
        if math.gcd(n, level) != 1:
            continue
        lhs = model.coefficient(1, n) * chi(n)
        rhs = 1 + 0j
        for p, e in factorize(n):
            rhs *= useq(p, e)[e]
        worst = worse(worst, abs(lhs - rhs))
    return worst
