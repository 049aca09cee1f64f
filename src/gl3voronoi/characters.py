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
log of n.  Value tables, parity and multiply work on these numerators
alone; angle(n) = Fraction(a(n), L) is the exact public form of the same
data.

Rounding contract.  Each value chi(n) is one complex exponential of an
exact angle: a(n)/L is reduced to lowest terms and exponentiated once,
so its floating error is O(1) ulp.  That exponential is entry a(n) of
_root_table(L), the one root table of the group exponent L, and chi(n)
reads the value table, which holds exactly these values.  Every root of
unity e(k/c) of the Gauss and Kloosterman kernels (here and in expsums)
is entry k mod c of _root_array(c), the one cached root array of c,
each entry one exponential of the angle reduced mod c (the scalar sums
read the same values through its tolist()), and their sums run over the
units of _units_and_inverses(c), the one unit list.

One exact unit-sum kernel.  _unit_sums(w, e, n) is the one kernel for
the sums sum_u w[u, i] e[u, j] that must equal the scalar loop over u
bit for bit: each term is a product of table values rounded as Python's
complex product, and the terms are added in ascending order of u,
wherever the column blocks of KERNEL_BLOCK_TERMS terms fall (its
docstring says how).  Its readers: _gauss_sums (every Gauss sum
sum_u chi(u) e(u m/c), batched over characters; gauss_sum_table is its
one-character form), the additive collapse of expsums (every primitive
theta mod c at once) and the orthogonality check of identities (a sum
over the characters mod c, with the coefficient as a scale).  In a
Gauss batch a unit kept for another character adds a signed zero to the
row of a character that vanishes there, which changes no partial sum:
every row equals the one-character call bit for bit, signs of zeros
included, and each column m, summed on its own, equals entry m mod c of
gauss_sum_table.  So each check builds only the columns it reads, for
all its characters at once.

Modulus 1 is supported (the trivial character is 1 everywhere).
Exact zero tests of Gauss sums, in integers, are the tests' oracle
(tests/exact_sums.py): no check reads one.

Characters are frozen, hashable values (modulus, exponents): equal
characters share one value table.  Conductors and primitive parts are
closed forms in the exponents and the prime power of q that each
generator generates (Iwaniec-Kowalski, Analytic Number Theory, 3.3).
"""

from __future__ import annotations

import cmath
import itertools
import math
from fractions import Fraction
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .arith import euler_phi, factorize, mod_inverse, unit_group_generators

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


# a Kloosterman kernel at modulus c holds ~c phi(c) roots: at c = 2039, one
# kloosterman_matrix peaks at ~225 MiB, where one gauss_sum_table, summed in
# column blocks, adds ~1.8 MiB
KERNEL_MAX_MODULUS = 2048
# the Gauss kernel's terms per column block: 128 KiB per float temporary
KERNEL_BLOCK_TERMS = 2**14


def _root_of_unity(num: int, den: int) -> complex:
    return cmath.exp(2j * math.pi * num / den)


@lru_cache(maxsize=None)
def _structure(q: int):
    """(generators, dlog, exponent, weights, layout) for modulus q.

    dlog maps each unit residue (reduced mod q, so 0 for q = 1) to its
    exponent vector against the canonical generators; exponent is the
    group exponent L = lcm of the generator orders r_i, and weights
    holds L // r_i.  layout holds (p, e, neg) per generator g: the one
    p^e || q with g != 1 (mod p^e), which g generates (the CRT lift makes
    g = 1 mod the rest of q), and whether g = -1 there (p = 2, g = 3 mod 4).
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
    layout = []
    for g, _ in gens:
        ((p, e),) = [(p, e) for p, e in factorize(q) if (g - 1) % p**e]
        layout.append((p, e, p == 2 and g % 4 == 3))
    return gens, dlog, exponent, tuple(exponent // r for r in orders), tuple(layout)


@lru_cache(maxsize=None)
def _log_vectors(q: int) -> tuple[np.ndarray, np.ndarray, int]:
    """The units n mod q in dlog order, their discrete logs weighted as
    k_i (L / r_i), whose product with the exponents mod L is a(n), and L."""
    _, dlog, exponent, weights, _ = _structure(q)
    logs = np.array(list(dlog.values()), dtype=np.int64) * np.array(weights, dtype=np.int64)
    return np.array(list(dlog)), logs, exponent


@lru_cache(maxsize=None)
def _root_table(L: int) -> np.ndarray:
    """e(a/L) for a = 0..L-1 in lowest terms, then 0 at index L, as Python
    complex objects that the value tables share."""
    gs = [math.gcd(a, L) for a in range(L)]
    return np.array([_root_of_unity(a // g, L // g) for a, g in enumerate(gs)] + [0j], object)


@lru_cache(maxsize=None)
def _root_array(c: int) -> np.ndarray:
    """e(j/c) for j = 0..c-1, as one read-only complex array."""
    roots = np.array([_root_of_unity(j, c) for j in range(c)])
    roots.flags.writeable = False
    return roots


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
    character) in the one derived slot.
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
        _, dlog, exponent, weights, _ = _structure(self.modulus)
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
    def conductor(self) -> int:
        """Smallest d | q with chi(a) = 1 for all units a = 1 (mod d): the lcm
        over generators with k != 0 of 4 at -1 mod 2^e, else p^e / gcd(k, p^(e-1))."""
        return math.lcm(*(
            4 if neg else p**e // math.gcd(k, p ** (e - 1))
            for k, (p, e, neg) in zip(self.exponents, _structure(self.modulus)[4])
            if k
        ))

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
    """The primitive character mod d = conductor(chi) that induces chi.

    The generators of d are those of q reduced mod d, in order: each with
    k != 0 keeps chi(g), at exponent k / gcd(k, p^(e-1)) unless it is -1
    mod 2^e, which stays, with k = 0 too, whenever 4 | d.
    """
    d = chi.conductor
    exps = tuple(
        k if neg else k // math.gcd(k, p ** (e - 1))
        for k, (p, e, neg) in zip(chi.exponents, _structure(chi.modulus)[4])
        if k or (neg and d % 4 == 0)
    )
    return DirichletCharacter(d, exps)


def multiply(chi1: DirichletCharacter, chi2: DirichletCharacter) -> DirichletCharacter:
    """Pointwise product character mod lcm of the two moduli."""
    q = math.lcm(chi1.modulus, chi2.modulus)
    exps = [
        _order_exponent(chi1, g, r) + _order_exponent(chi2, g, r)
        for g, r in _structure(q)[0]
    ]
    return DirichletCharacter(q, tuple(exps))


def _times(ar, ai, br, bi) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of (ar + i ai)(br + i bi), each part formed
    by separate float operations, so that it rounds as Python's complex
    product does (numpy's complex multiply may fuse them)."""
    re = ar * br
    re -= ai * bi
    im = ar * bi
    im += ai * br
    return re, im


def _unit_sums(w: np.ndarray, e, n: int, scale: np.ndarray | None = None) -> np.ndarray:
    """sum over u of w[u, i] e[u, j], or of (w[u, i] scale[j]) e[u, j] given
    a scale, for each column i of w (rows of the result) and each of the n
    columns j of e, where e(s) returns the columns s (a slice) of e.

    Every product rounds as Python's complex product (_times); the real
    and imaginary parts of the last one are formed as _times forms them
    (a - b as a + (-b), which is exact) but one at a time, so one part's
    terms are held at once.  The terms, laid out in C order as (u, i, j),
    are reduced over u, which adds them row by row in ascending order of
    u, in blocks of as many columns j as KERNEL_BLOCK_TERMS terms hold
    (one at least).  That reduce would sum pairwise the terms of a block
    of one i and one j, which are accumulated instead, and terms whose
    contiguous axis is u, so w and each block of e are made C-contiguous
    first (a gather along the second axis returns them F-ordered).  w
    must not be empty.
    """
    out = np.empty((w.shape[1], n), dtype=complex)
    w = np.ascontiguousarray(w)
    wr, wi = w.real[:, :, None], w.imag[:, :, None]
    step = max(1, KERNEL_BLOCK_TERMS // w.size)
    for j in range(0, n, step):
        s = slice(j, j + step)
        x = np.ascontiguousarray(e(s))[:, None, :]
        ar, ai = (wr, wi) if scale is None else _times(wr, wi, scale[s].real, scale[s].imag)
        for part, y, z in ((out.real, x.real, -x.imag), (out.imag, x.imag, x.real)):
            terms = ar * y
            terms += ai * z
            if terms.shape[1:] == (1, 1):
                part[:, s] = np.add.accumulate(terms, axis=0)[-1]
            else:
                part[:, s] = np.add.reduce(terms, axis=0)
    return out


def _gauss_sums(chis, c: int, ms) -> np.ndarray:
    """sum over units u mod c of chi(u) e(u m / c), for each chi in chis
    (rows) and each m in ms (columns).

    Direct summation for any c >= 1: each chi is read as a function on
    Z, so units of c that share a factor with its modulus contribute 0;
    units on which every chi vanishes are skipped.  The values of each
    modulus in chis are gathered at once, and each root e(u m / c) is
    read from _root_array(c), one column block at a time; _unit_sums
    adds the terms.
    """
    if not (len(chis) and len(ms)):
        return np.empty((len(chis), len(ms)), dtype=complex)
    u = np.array(_units_and_inverses(c)[0])
    by_modulus: dict[int, list[int]] = {}
    for i, chi in enumerate(chis):
        by_modulus.setdefault(chi.modulus, []).append(i)
    w = np.empty((len(u), len(chis)), dtype=complex)  # chi(u): units x characters
    for q, rows in by_modulus.items():
        w[:, rows] = np.array([chis[i].values() for i in rows])[:, u % q].T
    keep = (w != 0).any(axis=1)
    u, w = u[keep], w[keep]
    roots = _root_array(c)
    return _unit_sums(w, lambda s: roots[np.outer(u, ms[s]) % c], len(ms))


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

