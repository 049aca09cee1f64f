"""Exact sums of roots of unity, the integer oracle of the tests.

Every term chi(u) e(u m/c) of a Gauss sum is e(e/M) for an integer e,
at any M that both L (the exponent of chi's group) and c divide;
_gauss_exponents lists those e.  An integer combination of such terms
is held as the count of each e mod M, and _sums_to_zero decides whether
it vanishes, in Python ints: exactly when Phi_M divides the polynomial
of the counts.  No float is read, so these decide which sums are
exactly zero, where the float tables can only say small.
"""

import math

from gl3voronoi.arith import factorize
from gl3voronoi.characters import DirichletCharacter, _structure, _units_and_inverses


def _sums_to_zero(counts: dict[int, int], M: int) -> bool:
    """Whether sum_e counts[e] e(e/M) = 0, in Python ints.

    The sum vanishes exactly when Phi_M divides sum_e counts[e] x^e.
    That is decided by the structure of Q(zeta_M) rather than by long
    division, since Phi_M has degree phi(M) and M reaches about 10^6 (at
    cstar = 1021, k = 2).  With r = rad(M) and s = M / r, the powers
    zeta_M^j (j < s) are a basis of Q(zeta_M) over Q(zeta_r), zeta_r =
    zeta_M^s, as Phi_M(x) = Phi_r(x^s): so the sum vanishes exactly when
    the part of each class e = j mod s vanishes in Q(zeta_r), read at
    index e // s.  That is ``_vanishes_mod``'s test."""
    primes = tuple(p for p, _ in factorize(M))
    r = math.prod(primes)
    parts: dict[int, dict[int, int]] = {}
    for e, n in counts.items():
        part = parts.setdefault(e % (M // r), {})
        part[e // (M // r)] = part.get(e // (M // r), 0) + n
    return all(_vanishes_mod(part, primes, r) for part in parts.values())


def _vanishes_mod(f: dict[int, int], primes: tuple[int, ...], r: int) -> bool:
    """Whether sum_i f[i] e(i/r) = 0, for r squarefree, the product of
    primes.

    For r = p r', Q(zeta_r) is the sum over a = 1..p-1 of zeta_p^a
    Q(zeta_r'), and zeta_p^0 = 1 is minus the sum of the other p-th roots
    of unity; by CRT, index i sits in class a = i mod p at index i mod r'
    (up to a unit factor of each, which no zero test sees).  So the sum
    vanishes exactly when the parts of the p classes are equal in
    Q(zeta_r'): each is 0 if a class is empty, else each differs from
    class 0 by 0."""
    if r == 1:
        return sum(f.values()) == 0
    p, rest = primes[0], r // primes[0]
    parts: dict[int, dict[int, int]] = {}
    for i, n in f.items():
        part = parts.setdefault(i % p, {})
        part[i % rest] = part.get(i % rest, 0) + n
    if len(parts) < p:
        return all(_vanishes_mod(part, primes[1:], rest) for part in parts.values())
    base = parts[0]
    for a in range(1, p):
        diff = dict(parts[a])
        for i, n in base.items():
            diff[i] = diff.get(i, 0) - n
        if not _vanishes_mod(diff, primes[1:], rest):
            return False
    return True


def _gauss_exponents(chi: DirichletCharacter, c: int, m: int, M: int) -> list[int]:
    """The e with chi(u) e(u m/c) = e(e/M) for each term of g(chi, c, m),
    over the units u of c with chi(u) != 0; the group exponent L of chi's
    modulus and c must divide M."""
    by_angle, by_root = M // _structure(chi.modulus)[2], M // c
    out = []
    for u in _units_and_inverses(c)[0]:
        a = chi._numerator(u)
        if a is not None:
            out.append((a * by_angle + u * m % c * by_root) % M)
    return out
