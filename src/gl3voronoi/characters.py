"""Dirichlet characters in generator-exponent form.

A character mod q is stored as one integer exponent per generator of
(Z/qZ)^x: if g has order r and the stored exponent is e, the character
sends g^k to e(e*k/r), with e(x) = exp(2*pi*i*x).  The discrete-log
table is built once per modulus and the value table, q entries, once per
distinct character, so all phi(q) characters of q hold about q phi(q)
values, each a pointer to a complex root that the tables share: `chars
list --modulus 4093` peaks at 160 MiB resident (ru_maxrss, CPython
3.11), and `chars list` refuses moduli above 4096.

Integer angles.  With L = lcm of the generator orders (the exponent of
the group) and weights L/r_i, chi(n) = e(a(n)/L) for the integer
numerator a(n) = sum_i e_i k_i (L/r_i) mod L, where k is the discrete
log of n.  Value tables, parity, conductor, multiply and primitive_part
work on these numerators alone; angle(n) = Fraction(a(n), L) is the
exact public form of the same data.

Rounding contract.  Each value chi(n) is one complex exponential of an
exact angle: a(n)/L is reduced to lowest terms and exponentiated once,
so its floating error is O(1) ulp.  That exponential is entry a(n) of
_root_table(L), the one root table of the group exponent L, and chi(n)
reads the value table, which holds exactly these values.  Every root of
unity e(k/c) of the Gauss and Kloosterman kernels (here and in expsums)
is the entry _exp_table(c)[k mod c], one exponential of the angle
reduced mod c, and their sums run over the units of
_units_and_inverses(c), the one unit list.  Every Gauss sum
sum_u chi(u) e(u m/c) comes from one numpy kernel, batched over
characters: each term is the product of two table values (chi(u) and
e(j/c)), rounded as Python's complex product, and each character's
terms are added in ascending order of u.  A unit kept for another
character of the batch adds a signed zero to the row of a character
that vanishes there, which changes no partial sum: every row equals the
one-character call bit for bit, signs of zeros included, and each
column m, summed on its own, equals entry m mod c of gauss_sum_table.
So the kernel may sum columns in blocks, and each check builds only the
columns it reads, for all its characters at once.
Modulus 1 is supported (the trivial character is 1 everywhere).

Characters are frozen, hashable values (modulus, exponents): equal
characters share one value table, and the conductor is computed once per
distinct character.
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from dataclasses import dataclass, field
from functools import cache, lru_cache

import numpy as np

from .arith import divisors, euler_phi, mod_inverse, unit_group_generators

__all__ = [
    "DirichletCharacter",
    "enumerate_characters",
    "primitive_characters",
    "principal_character",
    "primitive_part",
    "multiply",
    "gauss_sum",
    "gauss_sum_table",
]


# a kernel at modulus c holds ~c phi(c) roots: at c = 2039, one
# gauss_sum_table peaks at ~160 MiB and one kloosterman_matrix at ~225 MiB
KERNEL_MAX_MODULUS = 2048


def _root_of_unity(num: int, den: int) -> complex:
    return cmath.exp(2j * math.pi * num / den)


@lru_cache(maxsize=None)
def _structure(q: int):
    """(generators, dlog, exponent, weights) for modulus q.

    dlog maps each unit residue (reduced mod q, so 0 for q = 1) to its
    exponent vector against the canonical generators; exponent is the
    group exponent L = lcm of the generator orders r_i, and weights
    holds L // r_i.
    """
    gens = unit_group_generators(q)
    orders = [r for _, r in gens]
    pow_tables = [[pow(g, k, q) for k in range(r)] for g, r in gens]
    dlog: dict[int, tuple[int, ...]] = {}
    for combo in itertools.product(*[range(r) for r in orders]):
        n = 1 % q
        for table, k in zip(pow_tables, combo):
            n = n * table[k] % q
        dlog[n] = combo
    if len(dlog) != euler_phi(q):
        raise ValueError(f"generators of (Z/{q}Z)^x reach {len(dlog)} of {euler_phi(q)} units")
    exponent = math.lcm(*orders)
    return gens, dlog, exponent, tuple(exponent // r for r in orders)


@lru_cache(maxsize=None)
def _log_vectors(q: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The units n mod q in dlog order, their discrete logs weighted as
    k_i (L / r_i), whose product with the exponents mod L is a(n), and L."""
    _, dlog, exponent, weights = _structure(q)
    logs = np.array(list(dlog.values()), dtype=np.int64) * np.array(weights, dtype=np.int64)
    return np.array(list(dlog)), logs, exponent


@lru_cache(maxsize=None)
def _root_table(L: int) -> np.ndarray:
    """e(a/L) for a = 0..L-1 in lowest terms, then 0 at index L, as Python
    complex objects that the value tables share."""
    gs = [math.gcd(a, L) for a in range(L)]
    return np.array([_root_of_unity(a // g, L // g) for a, g in enumerate(gs)] + [0j], object)


@lru_cache(maxsize=None)
def _exp_table(c: int) -> tuple[complex, ...]:
    """e(j/c) for j = 0..c-1."""
    return tuple(_root_of_unity(j, c) for j in range(c))


@lru_cache(maxsize=None)
def _units_and_inverses(c: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The units u of 1..c prime to c in ascending order, and their
    inverses mod c."""
    units = tuple(a for a in range(1, c + 1) if math.gcd(a, c) == 1)
    return units, tuple(mod_inverse(a, c) for a in units)


@lru_cache(maxsize=None)
def _value_table(q: int, exponents: tuple[int, ...]) -> tuple[complex, ...]:
    """chi(0), ..., chi(q-1) for the character (q, exponents): one table
    per distinct character, each value one exponential of a(n)/L in
    lowest terms."""
    units, logs, exponent = _log_vectors(q)
    index = np.full(q, exponent)
    index[units] = logs @ np.array(exponents, dtype=np.int64) % exponent
    return tuple(_root_table(exponent)[index].tolist())


@dataclass(frozen=True, slots=True)
class DirichletCharacter:
    """A Dirichlet character mod q, the value (modulus, exponents).

    Exponents are reduced mod their generator orders at construction,
    which also stores the character's value table (shared by every equal
    character) in the one derived slot; the conductor is cached per
    distinct character.
    """

    modulus: int
    exponents: tuple[int, ...] = ()
    _values: tuple[complex, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be positive, got {self.modulus}")
        gens = _structure(self.modulus)[0]
        if len(self.exponents) != len(gens):
            raise ValueError(
                f"expected {len(gens)} exponents for modulus {self.modulus}, "
                f"got {len(self.exponents)}"
            )
        exponents = tuple(e % r for e, (_, r) in zip(self.exponents, gens))
        object.__setattr__(self, "exponents", exponents)
        object.__setattr__(self, "_values", _value_table(self.modulus, exponents))

    # -- evaluation --------------------------------------------------------

    def _numerator(self, n: int) -> int | None:
        """a(n) in [0, L) with chi(n) = e(a(n) / L), L the group exponent;
        None if chi(n) = 0."""
        _, dlog, exponent, weights = _structure(self.modulus)
        combo = dlog.get(n % self.modulus)
        if combo is None:
            return None
        return sum(e * k * w for e, k, w in zip(self.exponents, combo, weights)) % exponent

    def angle(self, n: int) -> Fraction | None:
        """Exact angle of chi(n) as a fraction of a full turn, None if chi(n)=0."""
        a = self._numerator(n)
        return None if a is None else Fraction(a, _structure(self.modulus)[2])

    def __call__(self, n: int) -> complex:
        return self._values[n % self.modulus]

    def values(self) -> tuple[complex, ...]:
        """Value table chi(0), ..., chi(q-1)."""
        return self._values

    # -- structure ---------------------------------------------------------

    @property
    def parity(self) -> int:
        """chi(-1), which is +1 or -1."""
        a, exponent = self._numerator(-1), _structure(self.modulus)[2]
        if 2 * a % exponent:
            raise ValueError(f"chi(-1) = e({a}/{exponent}) is not +1 or -1")
        return 1 if a == 0 else -1

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    @property
    def is_primitive(self) -> bool:
        return self.conductor == self.modulus

    @property
    @cache
    def conductor(self) -> int:
        """Smallest d | q with chi(a) = 1 for all units a = 1 (mod d)."""
        q = self.modulus
        for d in divisors(q):
            if all(self._numerator(a) == 0 for a in range(1, q + 1, d) if math.gcd(a, q) == 1):
                return d

    def conjugate(self) -> "DirichletCharacter":
        return DirichletCharacter(self.modulus, tuple(-e for e in self.exponents))


def principal_character(q: int) -> DirichletCharacter:
    return DirichletCharacter(q, (0,) * len(_structure(q)[0]))


def enumerate_characters(q: int) -> list[DirichletCharacter]:
    """All euler_phi(q) characters mod q, principal first."""
    gens = _structure(q)[0]
    return [
        DirichletCharacter(q, combo)
        for combo in itertools.product(*[range(r) for _, r in gens])
    ]


@lru_cache(maxsize=None)
def primitive_characters(q: int) -> tuple[DirichletCharacter, ...]:
    """The primitive characters mod q in enumeration order; none if q = 2 mod 4."""
    return tuple(chi for chi in enumerate_characters(q) if chi.is_primitive)


def _order_exponent(chi: DirichletCharacter, n: int, r: int) -> int:
    """k with chi(n) = e(k / r); chi(n) must be an r-th root of unity."""
    k, rem = divmod(chi._numerator(n) * r, _structure(chi.modulus)[2])
    if rem:
        raise ValueError(f"chi({n}) is not e(k/{r}) for any integer k")
    return k


def primitive_part(chi: DirichletCharacter) -> DirichletCharacter:
    """The primitive character mod conductor(chi) that induces chi."""
    d = chi.conductor
    q = chi.modulus
    exps = []
    for h, r in _structure(d)[0]:
        hq = h
        while math.gcd(hq, q) != 1:
            hq += d  # some unit of q in the class h mod d exists below q
        exps.append(_order_exponent(chi, hq, r))
    return DirichletCharacter(d, tuple(exps))


def multiply(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product character mod lcm of the two moduli."""
    q = math.lcm(chi1.modulus, chi2.modulus)
    exps = [
        _order_exponent(chi1, g, r) + _order_exponent(chi2, g, r)
        for g, r in _structure(q)[0]
    ]
    return DirichletCharacter(q, tuple(exps))


def _gauss_sums(chis, c: int, ms) -> np.ndarray:
    """sum over units u mod c of chi(u) e(u m / c), for each chi in chis
    (rows) and each m in ms (columns).

    Direct summation for any c >= 1: each chi is read as a function on
    Z, so units of c that share a factor with its modulus contribute 0;
    units on which every chi vanishes are skipped.  Real and imaginary
    parts of each product are formed by separate float operations (a - b
    as a + (-b), which is exact), so that every term rounds as Python's
    complex product does (numpy's complex multiply may fuse them), and the
    terms are accumulated in ascending order of u (a plain sum over one
    column would be pairwise).
    """
    out = np.empty((len(chis), len(ms)), dtype=complex)
    if not out.size:
        return out
    u = np.array(_units_and_inverses(c)[0])
    w = np.array([np.array(chi.values())[u % chi.modulus] for chi in chis])
    keep = (w != 0).any(axis=0)
    u, w = u[keep], w[:, keep]
    wr, wi = w.real[:, :, None], w.imag[:, :, None]
    step = max(1, KERNEL_MAX_MODULUS**2 // w.size)
    for j in range(0, len(ms), step):
        e = np.array(_exp_table(c))[np.outer(u, ms[j : j + step]) % c]  # e(u m / c)
        for part, x, y in ((out.real, e.real, -e.imag), (out.imag, e.imag, e.real)):
            terms = wr * x
            terms += wi * y
            part[:, j : j + step] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


@lru_cache(maxsize=None)
def gauss_sum_table(chi_star: DirichletCharacter, c: int) -> tuple[complex, ...]:
    """g(chi*, c, m) for m = 0..c-1, as one cached table per (chi*, c)."""
    if c < 1:
        raise ValueError(f"modulus must be positive, got {c}")
    return tuple(_gauss_sums((chi_star,), c, np.arange(c))[0].tolist())


def gauss_sum(chi: DirichletCharacter) -> complex:
    """tau(chi) = sum over u mod q of chi(u) e(u/q), by direct summation."""
    q = chi.modulus
    return gauss_sum_table(chi, q)[1 % q]


def _gauss_sum_any_modulus(chi_star: DirichletCharacter, c: int, m: int) -> complex:
    """sum over units u mod c of e(u m / c) chi*(u), for any positive c.

    chi* is evaluated as the function on Z attached to its (primitive)
    exponent data, so units of c sharing a factor with the conductor
    contribute 0.  This is the exact unit-sum behind the collapse
    identities, where the modulus need not be a conductor multiple.
    """
    return gauss_sum_table(chi_star, c)[m % c]
