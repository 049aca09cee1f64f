import cmath
import math
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3voronoi import characters
from gl3voronoi.arith import divisors, euler_phi, mobius
from gl3voronoi.characters import (
    DirichletCharacter,
    _gauss_sum_any_modulus,
    _gauss_sums,
    _structure,
    _unit_sums,
    enumerate_characters,
    gauss_sum,
    gauss_sum_table,
    multiply,
    primitive_characters,
    primitive_part,
    principal_character,
)
from gl3voronoi.identities import ramanujan_lemma_residual

from exact_sums import _gauss_exponents, _sums_to_zero


def root_of_unity(angle):
    """e(angle) from an exact fraction of a full turn."""
    a = angle % 1
    return cmath.exp(2j * math.pi * a.numerator / a.denominator)


def quadratic_mod(p):
    (chi,) = [
        c for c in enumerate_characters(p) if not c.is_principal and c == c.conjugate()
    ]
    return chi


def test_enumeration_counts():
    assert len(enumerate_characters(1)) == 1
    chars5 = enumerate_characters(5)
    assert len(chars5) == 4
    assert sum(1 for c in chars5 if c.is_primitive) == 3
    assert len(enumerate_characters(8)) == 4
    for q in range(1, 61):
        assert len(set(enumerate_characters(q))) == euler_phi(q)


def test_evaluation_examples():
    principal6 = principal_character(6)
    assert principal6(5) == 1
    for q in (2, 5, 12):
        for chi in enumerate_characters(q):
            assert chi(q) == 0
    chi3 = quadratic_mod(3)
    assert abs(chi3(2) + 1) < 1e-15


def test_complete_multiplicativity():
    for q in (5, 8, 12, 15):
        for chi in enumerate_characters(q):
            vals = chi.values()
            for a in range(q):
                for b in range(q):
                    assert abs(vals[a * b % q] - vals[a] * vals[b]) < 1e-12


def test_orthogonality_both_ways():
    for q in range(1, 61):
        chars = enumerate_characters(q)
        for a in range(2, q):
            if math.gcd(a, q) != 1 or a % q == 1:
                continue
            total = sum(chi(a) for chi in chars)
            assert abs(total) < 1e-9, (q, a)
        for chi in chars:
            if chi.is_principal:
                continue
            total = sum(chi(a) for a in range(q) if math.gcd(a, q) == 1)
            assert abs(total) < 1e-9, (q, chi)


def test_conductor_examples():
    assert principal_character(12).conductor == 1
    chi3 = quadratic_mod(3)
    chi6 = multiply(chi3, principal_character(6))
    assert chi6.conductor == 3
    for p in (3, 5, 7, 11):
        for chi in enumerate_characters(p):
            if not chi.is_principal:
                assert chi.conductor == p


def test_primitive_part():
    chi3 = quadratic_mod(3)
    chi6 = multiply(chi3, principal_character(6))
    assert primitive_part(chi6) == chi3
    # evaluation match on the units of 6
    for n in (1, 5):
        assert abs(chi6(n) - chi3(n)) < 1e-15
    assert primitive_part(principal_character(12)).modulus == 1
    for q in (8, 12, 45):
        for chi in enumerate_characters(q):
            star = primitive_part(chi)
            assert star.is_primitive
            assert primitive_part(star) == star  # idempotent
            assert star.conductor == chi.conductor
            for n in range(q):
                if math.gcd(n, q) == 1:
                    assert abs(chi(n) - star(n)) < 1e-12


def test_primitive_characters():
    for q in range(1, 61):
        prim = primitive_characters(q)
        assert isinstance(prim, tuple)
        assert prim == tuple(c for c in enumerate_characters(q) if c.is_primitive)
        assert primitive_characters(q) is prim
        assert (not prim) == (q % 4 == 2)
        assert len(prim) == sum(mobius(q // d) * euler_phi(d) for d in divisors(q))


def test_multiply():
    chi3 = quadratic_mod(3)
    chi4 = quadratic_mod(4)
    prod = multiply(chi3, chi4)
    assert prod.modulus == 12
    assert abs(prod(5) + 1) < 1e-14
    for q in (5, 8):
        for chi in enumerate_characters(q):
            assert multiply(chi, principal_character(q)) == chi
            assert multiply(chi, chi.conjugate()) == principal_character(q)


def test_parity():
    chi3 = quadratic_mod(3)
    assert chi3.parity == -1
    assert principal_character(1).parity == 1
    for q in (5, 8, 12):
        for chi in enumerate_characters(q):
            assert abs(chi(-1) - chi.parity) < 1e-14


def test_gauss_sum_examples():
    assert gauss_sum(principal_character(1)) == 1
    chi3 = quadratic_mod(3)
    assert abs(gauss_sum(chi3) - cmath.sqrt(-3)) < 1e-13  # e(1/3) - e(2/3) = i sqrt 3
    chi5 = quadratic_mod(5)
    assert abs(gauss_sum(chi5) - math.sqrt(5)) < 1e-13


def test_gauss_modulus_primitive():
    for c in range(1, 51):
        for chi in enumerate_characters(c):
            if chi.is_primitive:
                assert abs(abs(gauss_sum(chi)) - math.sqrt(c)) < 1e-9


def test_generalized_gauss_sum_examples():
    # g(chi*, c, m) at multiples c of the conductor, read from the table
    chi3 = quadratic_mod(3)
    assert abs(gauss_sum_table(chi3, 3)[1] - gauss_sum(chi3)) < 1e-14
    assert abs(gauss_sum_table(chi3, 3)[0]) < 1e-14
    chi5 = quadratic_mod(5)
    # four-term enumeration oracle, computed independently
    units10 = [u for u in range(1, 11) if math.gcd(u, 10) == 1]
    oracle = sum(cmath.exp(2j * math.pi * u / 10) * chi5(u) for u in units10)
    val = gauss_sum_table(chi5, 10)[1]
    assert abs(val - oracle) < 1e-13
    assert abs(val - (-chi5(2) * gauss_sum(chi5))) < 1e-12
    # negative shifts reduce mod c
    assert _gauss_sum_any_modulus(chi3, 6, -1) == gauss_sum_table(chi3, 6)[5]


def test_primitive_evaluation_formula():
    # g(chibar, c, m2) = tau(chibar) chi(m2) for primitive chi mod c
    for c in range(2, 41):
        for chi in enumerate_characters(c):
            if not chi.is_primitive:
                continue
            chibar = chi.conjugate()
            tau = gauss_sum(chibar)
            tab = gauss_sum_table(chibar, c)
            for m2 in range(c):
                expected = tau * chi(m2)
                assert abs(tab[m2] - expected) < 1e-9, (c, chi, m2)


def _exact_gauss_sum(chi, c, m):
    """sum over units u mod c of chi(u) e(u m / c), one exact angle per term."""
    total = 0j
    for u in range(1, c + 1):
        a = chi.angle(u)
        if math.gcd(u, c) == 1 and a is not None:
            total += root_of_unity(a + Fraction(u * m, c))
    return total


def test_gauss_sum_table_matches_pointwise():
    multiples = [(5, 5), (5, 20), (8, 8), (8, 24), (7, 14)]
    non_multiples = [(5, 6), (5, 12), (4, 6), (8, 12), (7, 9)]
    for q, c in multiples + non_multiples + [(5, 1), (1, 1)]:
        for chi in enumerate_characters(q):
            tab = gauss_sum_table(chi, c)
            assert len(tab) == c
            for m in range(c):
                exact = _exact_gauss_sum(chi, c, m)
                assert abs(tab[m] - exact) < 1e-12, (q, c, chi, m)
                assert _gauss_sum_any_modulus(chi, c, m - c) == tab[m]
            if c == q:
                assert gauss_sum(chi) == tab[1 % c]


def test_exact_angles():
    chi8 = [c for c in enumerate_characters(8) if c.is_primitive][0]
    for n in range(1, 8, 2):
        a = chi8.angle(n)
        assert a is not None and a.denominator in (1, 2)
    assert chi8.angle(2) is None
    assert principal_character(1).angle(0) == Fraction(0)


def test_modulus_one_character():
    one = principal_character(1)
    for n in (-5, 0, 1, 7):
        assert one(n) == 1


def test_integer_exponent_algebra_matches_fraction_oracle():
    # the oracle works on angle(), the exact Fraction form of the numerators
    for q in range(1, 61):
        units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
        chars = enumerate_characters(q)
        for chi in chars:
            vals = chi.values()
            for n in range(q):
                a = chi.angle(n)
                assert vals[n] == (0 if a is None else root_of_unity(a)), (chi, n)
            conductor = min(
                d
                for d in divisors(q)
                if all(chi.angle(a) == 0 for a in units if (a - 1) % d == 0)
            )
            assert chi.conductor == conductor
            assert chi.parity == (1 if chi.angle(-1) == 0 else -1)
            star = primitive_part(chi)
            assert star.modulus == conductor
            assert all(star.angle(a) == chi.angle(a) for a in units)
            for other in (chars[-1], chi.conjugate(), chi):
                prod = multiply(chi, other)
                assert prod.modulus == q
                assert all(
                    prod.angle(a) == (chi.angle(a) + other.angle(a)) % 1 for a in units
                )
    for q1 in range(1, 13):
        for q2 in range(1, 13):
            q = math.lcm(q1, q2)
            units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
            for chi1 in enumerate_characters(q1):
                for chi2 in enumerate_characters(q2):
                    prod = multiply(chi1, chi2)
                    assert prod.modulus == q
                    assert all(
                        prod.angle(a) == (chi1.angle(a) + chi2.angle(a)) % 1 for a in units
                    )


def test_value_tables_hold_one_exponential_per_numerator():
    # gathered from the root table of the group exponent L, each value is,
    # by repr, the exponential of its numerator a(n) / L in lowest terms
    for q in range(1, 121):
        exponent = characters._structure(q)[2]
        for chi in enumerate_characters(q):
            want = [0j] * q
            for n in range(q):
                a = chi._numerator(n)
                if a is not None:
                    g = math.gcd(a, exponent)
                    want[n] = characters._root_of_unity(a // g, exponent // g)
            assert repr(chi.values()) == repr(tuple(want)), chi


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal values and equal signs of zeros."""
    return (
        np.array_equal(a, b)
        and np.array_equal(np.signbit(a.real), np.signbit(b.real))
        and np.array_equal(np.signbit(a.imag), np.signbit(b.imag))
    )


def test_batched_gauss_sums_rows_equal_one_character_calls():
    ms = np.arange(-7, 8)
    batches = [
        (enumerate_characters(5), [5, 20, 6, 12, 1]),
        (enumerate_characters(8), [8, 24, 12, 1]),
        (enumerate_characters(12), [12, 36, 30, 1]),
        # mixed moduli, as in the Kloosterman-reduction sweep
        ([primitive_part(ch.conjugate()) for ch in enumerate_characters(24)], [24, 48, 10, 1]),
    ]
    for chis, moduli in batches:
        for c in moduli:
            for cols in (ms, ms[7:8]):  # one column is not summed pairwise
                batch = _gauss_sums(chis, c, cols)
                assert batch.shape == (len(chis), len(cols))
                for row, chi in zip(batch, chis):
                    assert _same_bits(row, _gauss_sums((chi,), c, cols)[0]), (chi, c)
    chi = enumerate_characters(7)[3]
    assert list(_gauss_sums((chi,), 14, np.arange(14))[0]) == list(gauss_sum_table(chi, 14))


def test_gauss_sums_in_column_blocks_equal_one_block(monkeypatch):
    chis, cols = enumerate_characters(12), np.arange(-7, 8)
    whole = _gauss_sums(chis, 24, cols)
    # 4 characters x 8 units: blocks of 2 columns, the last one short
    monkeypatch.setattr(characters, "KERNEL_BLOCK_TERMS", 64)
    assert _same_bits(_gauss_sums(chis, 24, cols), whole)


def test_gauss_sums_with_no_characters_or_no_columns():
    assert _gauss_sums(enumerate_characters(5), 5, []).shape == (4, 0)
    assert _gauss_sums([], 5, [1, 2]).shape == (0, 2)


def gauss_sums_accumulated(chis, c, ms):
    """The Gauss kernel as one accumulate over the units, characters x
    units x columns: the oracle of the (units, characters, columns) reduce."""
    out = np.empty((len(chis), len(ms)), dtype=complex)
    if not out.size:
        return out
    u = np.array(characters._units_and_inverses(c)[0])
    w = np.array([np.array(chi.values())[u % chi.modulus] for chi in chis])
    keep = (w != 0).any(axis=0)
    u, w = u[keep], w[:, keep]
    wr, wi = w.real[:, :, None], w.imag[:, :, None]
    step = max(1, characters.KERNEL_BLOCK_TERMS // w.size)
    for j in range(0, len(ms), step):
        e = characters._root_array(c)[np.outer(u, ms[j : j + step]) % c]
        for part, x, y in ((out.real, e.real, -e.imag), (out.imag, e.imag, e.real)):
            terms = wr * x
            terms += wi * y
            part[:, j : j + step] = np.add.accumulate(terms, axis=1)[:, -1]
    return out


def _same_kernel(chis, c, ms):
    want = gauss_sums_accumulated(chis, c, ms)
    got = _gauss_sums(chis, c, ms)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def test_gauss_kernel_equals_the_accumulated_oracle_on_random_batches(monkeypatch):
    rng = random.Random(27)
    pool = [chi for q in range(1, 49) for chi in enumerate_characters(q)]
    for trial in range(600):
        chis = [rng.choice(pool) for _ in range(rng.choice([1, 2, 3, 6, 17]))]
        c = rng.randint(1, 120)
        ms = np.array([rng.randint(-2 * c, 2 * c) for _ in range(rng.choice([1, 2, 5, 31]))])
        ms = np.concatenate([ms, ms[: rng.randint(0, len(ms))]])  # repeated columns
        if trial % 3 == 0:  # column blocks of a few columns, the last one short
            monkeypatch.setattr(characters, "KERNEL_BLOCK_TERMS", rng.randint(1, 24) ** 2)
        assert _same_kernel(chis, c, ms), (chis, c, ms)
        monkeypatch.undo()
    assert _same_kernel(enumerate_characters(5), 5, np.array([], dtype=int))
    assert _same_kernel([], 5, np.array([1, 2]))


def test_gauss_kernel_accumulates_a_lone_entry(monkeypatch):
    # one character x one column over 9 or more units on which the
    # character does not vanish: a plain reduce would sum them pairwise
    for q in (1, 5, 7, 13):
        for chi in enumerate_characters(q):
            for c in (17, 21, 97):
                for m in (-5, 1, 3):
                    assert _same_kernel([chi], c, np.array([m])), (chi, c, m)
    # 96 units: blocks of one column each
    monkeypatch.setattr(characters, "KERNEL_BLOCK_TERMS", 100)
    assert _same_kernel([enumerate_characters(13)[5]], 97, np.arange(-9, 10))


def unit_sums_by_loop(w, e, scale=None):
    """_unit_sums as a scalar loop: per (i, j), one Python complex product
    per term (w[u, i] scale[j] first, given a scale), added in ascending
    u as Python's sum adds them, from 0, or from the first term where the
    kernel's block holds one i and one j."""
    units, rows = w.shape
    n = e.shape[1]
    step = max(1, characters.KERNEL_BLOCK_TERMS // w.size)
    out = np.empty((rows, n), dtype=complex)
    for j in range(n):
        lone = rows == 1 and min(step, n - j // step * step) == 1
        for i in range(rows):
            terms = []
            for u in range(units):
                a = complex(w[u, i]) if scale is None else complex(w[u, i]) * complex(scale[j])
                terms.append(a * complex(e[u, j]))
            out[i, j] = sum(terms[1:], terms[0]) if lone else sum(terms)
    return out


# signed zeros and exact values, drawn among random ones
SUMMANDS = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0), 1 + 0j, -1j, 0.1 + 0.7j)


def _random_grid(rng, rows, cols):
    return np.array(
        [[rng.choice(SUMMANDS) if rng.random() < 0.3 else complex(rng.gauss(0, 1), rng.gauss(0, 1))
          for _ in range(cols)] for _ in range(rows)]
    )


@pytest.mark.parametrize(
    "units, rows, n, block_terms",
    [
        (1, 1, 1, None),
        (20, 1, 1, None),  # one i and one j over 9 or more units: accumulated
        (20, 1, 7, None),
        (20, 7, 1, None),
        (20, 1, 7, 40),  # blocks of 2, 2, 2 and 1 columns, the last one accumulated
        (12, 5, 9, 120),  # blocks of 2 columns, the last one short
        (3, 4, 5, 1),  # one column per block
    ],
)
@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("order", ["C", "F"])
def test_unit_sums_equal_the_scalar_loop_bit_for_bit(
    monkeypatch, units, rows, n, block_terms, scaled, order
):
    # F-ordered w and e hold u as their contiguous axis, as a gather along
    # the second axis returns them
    if block_terms is not None:
        monkeypatch.setattr(characters, "KERNEL_BLOCK_TERMS", block_terms)
    rng = random.Random(units * 1000 + rows * 100 + n)
    w, e = _random_grid(rng, units, rows), _random_grid(rng, units, n)
    scale = _random_grid(rng, 1, n)[0] if scaled else None
    if units > 2:
        w[1] = 0  # a unit on which every row vanishes
    want = unit_sums_by_loop(w, e, scale)
    w, e = np.asarray(w, order=order), np.asarray(e, order=order)
    assert _same_bits(_unit_sums(w, lambda s: e[:, s], n, scale), want)


def test_unit_sums_keep_the_sign_of_a_sum_of_negative_zeros():
    # every term's real part is -0.0: Python's sum from 0 gives +0.0,
    # as the reduce does, and the lone-entry accumulate keeps -0.0
    w = np.full((12, 1), complex(-0.0, 0.0))
    e = np.full((12, 3), 0.5 + 0.5j)
    got = _unit_sums(w, lambda s: e[:, s], 3)
    assert not np.signbit(got.real).any() and _same_bits(got, unit_sums_by_loop(w, e))
    e = e[:, :1]
    lone = _unit_sums(w, lambda s: e[:, s], 1)
    assert np.signbit(lone.real).all() and _same_bits(lone, unit_sums_by_loop(w, e))


def conductor_by_definition(chi):
    """Smallest d | q with a(u) = 0 at every unit u = 1 (mod d)."""
    q = chi.modulus
    for d in divisors(q):
        if all(chi._numerator(a) == 0 for a in range(1, q + 1, d) if math.gcd(a, q) == 1):
            return d


def test_conductor_table_matches_the_definition():
    for q in [*range(1, 301), 1024, 2048, 4093]:
        for chi in enumerate_characters(q):
            assert chi.conductor == conductor_by_definition(chi), chi


@pytest.mark.parametrize("q", [8, 16, 32, 64, 128, 256, 512, 243, 625, 343, 840, 864, 900])
def test_primitive_part_matches_the_definition(q):
    # 2^e whose characters are -1 only (conductor 4), 5 only or both, odd
    # prime powers whose exponents lose a factor p or more, and mixtures
    units = [a for a in range(1, q + 1) if math.gcd(a, q) == 1]
    for chi in enumerate_characters(q):
        star = primitive_part(chi)
        assert star.conductor == star.modulus == conductor_by_definition(chi), chi
        assert all(star.angle(a) == chi.angle(a) for a in units), chi


def test_chars_list_4093_peak_rss():
    # the 4092 value tables alone peak at 159.7-160.0 MiB, so the bound
    # leaves 5% for allocator noise; conductors, read off the exponents,
    # add no array
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import resource, subprocess, sys\n"
        "cmd = [sys.executable, '-m', 'gl3voronoi.cli', 'chars', 'list', '--modulus', '4093']\n"
        "subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 <= 168


def test_gauss_sum_table_2039_adds_little_rss():
    # column blocks of KERNEL_BLOCK_TERMS terms add 1.8 MiB over the RSS
    # after import (ru_maxrss, CPython 3.11); one block of all 2039
    # columns added 159 MiB
    script = (
        "import resource\n"
        "from gl3voronoi.characters import DirichletCharacter, gauss_sum_table\n"
        "base = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "gauss_sum_table(DirichletCharacter(2039, (5,)), 2039)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - base)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 <= 16


def test_reading_conductors_keeps_no_character_alive():
    # in a fresh interpreter, so that no other test has cached an equal
    # character mod 97 first
    script = (
        "import gc\n"
        "from gl3voronoi.characters import DirichletCharacter, enumerate_characters\n"
        "def live():\n"
        "    return sum(type(o) is DirichletCharacter for o in gc.get_objects())\n"
        "chars = enumerate_characters(97)\n"
        "assert sum(chi.conductor == 97 for chi in chars) == 95\n"
        "assert live() == 96\n"
        "del chars\n"
        "gc.collect()\n"
        "print(live())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0\n"


def test_order_exponent_raises_under_python_O():
    # chi mod 5 with chi(2) = i: chi(2) is not e(k/2) for any k, and the
    # guard must hold when assertions are compiled out
    script = (
        "from gl3voronoi.characters import _order_exponent, enumerate_characters\n"
        "chi = enumerate_characters(5)[1]\n"
        "assert _order_exponent(chi, 2, 4) == 1\n"
        "try:\n"
        "    _order_exponent(chi, 2, 2)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
        "else:\n"
        "    raise SystemExit('no ValueError')\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "chi(2) is not e(k/2) for any integer k" in proc.stdout


def test_one_value_table_per_distinct_character():
    for q in range(1, 31):
        first, second = enumerate_characters(q), enumerate_characters(q)
        for chi, again in zip(first, second):
            assert chi.values() is chi.conjugate().conjugate().values(), chi
            assert again is not chi and again.values() is chi.values(), chi
            star = primitive_part(chi)
            (match,) = [p for p in primitive_characters(star.modulus) if p == star]
            assert star.values() is match.values(), chi


def test_character_value_surface():
    chi = DirichletCharacter(15, (0, 3))
    assert repr(chi) == "DirichletCharacter(modulus=15, exponents=(0, 3))"
    assert DirichletCharacter(5, (5,)) == DirichletCharacter(5, (1,))
    assert hash(DirichletCharacter(5, (5,))) == hash(DirichletCharacter(5, (1,)))
    assert DirichletCharacter(5, (1,)) != DirichletCharacter(5, (2,))
    assert DirichletCharacter(5, (1,)) != (5, (1,))
    with pytest.raises(ValueError, match="^modulus must be positive, got 0$"):
        DirichletCharacter(0)
    with pytest.raises(ValueError, match="^expected 2 exponents for modulus 15, got 1$"):
        DirichletCharacter(15, (1,))


def test_structure_guard_raises_on_generators_that_miss_units(monkeypatch):
    # 4 has order 3 mod 7, so it reaches only 3 of the 6 units
    monkeypatch.setattr(characters, "unit_group_generators", lambda q: [(4, 3)])
    with pytest.raises(ValueError, match="reach 3 of 6 units"):
        characters._structure.__wrapped__(7)


def test_parity_guard_raises_when_chi_of_minus_one_is_not_a_sign(monkeypatch):
    chi = enumerate_characters(7)[1]
    monkeypatch.setattr(DirichletCharacter, "_numerator", lambda self, n: 1)
    with pytest.raises(ValueError, match="is not \\+1 or -1"):
        DirichletCharacter.parity.fget(chi)


# -- exact cyclotomic sums ------------------------------------------------------


def _cyclotomic_polynomial(M):
    """Phi_M, constant term first: the product of (x^d - 1)^mu(M/d) over
    d | M, multiplied out, then divided out, in Python ints."""
    poly = [1]
    for d in divisors(M):
        if mobius(M // d) == 1:
            poly = [-a for a in poly] + [0] * d
            for i, a in enumerate(poly[:-d]):
                poly[i + d] -= a
    for d in divisors(M):
        if mobius(M // d) == -1:
            quot = []  # p = (x^d - 1) q: q_i = q_(i-d) - p_i
            for i in range(len(poly) - d):
                quot.append((quot[i - d] if i >= d else 0) - poly[i])
            poly = quot
    return poly


def _divisible_by_phi(counts, M):
    """Whether Phi_M divides sum_e counts[e] x^e, by long division."""
    phi = _cyclotomic_polynomial(M)
    deg = len(phi) - 1
    rem = [0] * M
    for e, n in counts.items():
        rem[e] += n
    for i in range(M - 1, deg - 1, -1):
        for j, a in enumerate(phi[:deg]):
            rem[i - deg + j] -= rem[i] * a
    return not any(rem[:deg])


def test_cyclotomic_polynomials_of_small_order():
    assert _cyclotomic_polynomial(1) == [-1, 1]
    assert _cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]
    assert _cyclotomic_polynomial(105)[7] == -2  # the first coefficient off {-1, 0, 1}


@given(st.integers(1, 120), st.data())
@settings(max_examples=300, deadline=None)
def test_sums_to_zero_is_divisibility_by_phi(M, data):
    # a random sum of rotated prime orbits (each a zero sum) plus at most
    # one stray term: the structural test agrees with long division by Phi_M
    primes = [p for p in range(2, M + 1) if M % p == 0 and mobius(p) == -1]
    counts = Counter()
    for _ in range(data.draw(st.integers(0, 4)) if primes else 0):
        p = data.draw(st.sampled_from(primes))
        j, n = data.draw(st.integers(0, M - 1)), data.draw(st.integers(-3, 3))
        for t in range(p):
            counts[(j + t * M // p) % M] += n
    if data.draw(st.booleans()):
        counts[data.draw(st.integers(0, M - 1))] += data.draw(st.integers(-2, 2))
    assert _sums_to_zero(counts, M) == _divisible_by_phi(counts, M)


def test_sums_to_zero_at_a_large_order():
    # M = 4 * 3 * 5 * 17 * 1021, the order of fe-rearrangement's weights at
    # cstar = 1021: the orbit of 1021 cancels, one term less does not
    M = 1041420
    orbit = Counter((7 + t * (M // 1021)) % M for t in range(1021))
    assert _sums_to_zero(orbit, M)
    orbit[7] -= 1
    assert not _sums_to_zero(orbit, M)


def _value(exponents, M):
    return sum(cmath.exp(2j * math.pi * e / M) for e in exponents)


@pytest.mark.parametrize("c", range(1, 25))
def test_gauss_sum_norm_is_exact(c):
    # tau(chi) tau(chibar) = chi(-1) c in Z[zeta_M], for every primitive chi
    # mod c; one unit more is exactly nonzero; the exponents give the float
    # table's tau within 1e-12
    M = math.lcm(_structure(c)[2], c)
    for chi in primitive_characters(c):
        tau = _gauss_exponents(chi, c, 1, M)
        tau_bar = _gauss_exponents(chi.conjugate(), c, 1, M)
        counts = Counter((e1 + e2) % M for e1 in tau for e2 in tau_bar)
        counts[0] -= chi.parity * c
        assert _sums_to_zero(counts, M)
        counts[0] += 1
        assert not _sums_to_zero(counts, M)
        assert abs(_value(tau, M) - gauss_sum(chi)) < 1e-12
        assert abs(_value(tau_bar, M) - gauss_sum(chi.conjugate())) < 1e-12


@pytest.mark.parametrize("cstar", [3, 4, 5, 7, 8])
def test_ramanujan_lemma_is_exact(cstar):
    # sum_{l1 l2 = l} g(chi*, l1 cstar, m) chi*(l2) = [l | m] tau(chi*)
    # chibar*(m/l) l in Z[zeta_M], M = lcm(L, l cstar), for l <= 12 and
    # m <= 24; each Gauss sum's exponents give its float table entry
    # within 1e-12, and the float lemma holds within 1e-12
    L = _structure(cstar)[2]
    for chi in primitive_characters(cstar):
        for m in range(1, 25):
            for ell in range(1, 13):
                M = math.lcm(L, ell * cstar)
                counts = Counter()
                for l1 in divisors(ell):
                    c = l1 * cstar
                    g = _gauss_exponents(chi, c, m, M)
                    assert abs(_value(g, M) - gauss_sum_table(chi, c)[m % c]) < 1e-12
                    a = chi._numerator(ell // l1)
                    if a is not None:
                        counts.update((e + a * (M // L)) % M for e in g)
                a = chi._numerator(m // ell) if m % ell == 0 else None
                if a is not None:  # chibar*(m/l) = e(-a/L)
                    for e in _gauss_exponents(chi, cstar, 1, M):
                        counts[(e - a * (M // L)) % M] -= ell
                assert _sums_to_zero(counts, M), (chi, m, ell)
            assert ramanujan_lemma_residual(chi, cstar, m, 1, 12) < 1e-12
