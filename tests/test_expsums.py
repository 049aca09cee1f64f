import cmath
import math
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from gl3voronoi import expsums
from gl3voronoi.arith import divisors, euler_phi, mobius, mod_inverse, worse
from gl3voronoi.characters import (
    _gauss_sum_any_modulus,
    _gauss_sums,
    _root_array,
    _units_and_inverses,
    enumerate_characters,
    gauss_sum,
    gauss_sum_table,
    multiply,
    primitive_characters,
    primitive_part,
    principal_character,
)
from gl3voronoi.cli import SuiteConfig
from gl3voronoi.expsums import (
    additive_collapse_sweep,
    char_kloosterman_reduction_sweep,
    kloosterman_basic_sweep,
    kloosterman_matrix,
    reality_symmetry_sweep,
    weil_bound_sweep,
)


def quadratic_mod(p):
    (chi,) = [
        c for c in enumerate_characters(p) if not c.is_principal and c == c.conjugate()
    ]
    return chi


def kloosterman(a, b, c):
    """S(a, b; c) by direct enumeration over units mod c, c >= 1."""
    units, invs = _units_and_inverses(c)
    roots = _root_array(c).tolist()
    return sum(roots[(a * x + b * xbar) % c] for x, xbar in zip(units, invs))


def char_kloosterman_reduction_residual(chi, c, m, m1, m2):
    """Residual of the Gauss-product collapse for one tuple, the scalar
    path: chi mod c, m != 0 and m1 | c m.

    Left side: sum over units a mod c of chibar(a) S(a m, m2; |c m| / m1).
    Right side: g(chibar*, c, m1) * g(chibar*, |c m|/m1, sign(m) m2).
    """
    big_c = abs(c * m) // m1
    chibar = chi.conjugate()
    chibar_vals = chibar.values()
    lhs = 0j
    for a in _units_and_inverses(c)[0]:
        lhs += chibar_vals[a % c] * kloosterman(a * m, m2, big_c)
    ps = primitive_part(chibar)
    rhs = _gauss_sum_any_modulus(ps, c, m1) * _gauss_sum_any_modulus(
        ps, big_c, (1 if m > 0 else -1) * m2
    )
    return abs(lhs - rhs)


def test_kloosterman_examples():
    assert kloosterman(1, 1, 1) == 1
    assert abs(kloosterman(1, 1, 3) - (-1)) < 1e-14  # e(2/3) + e(4/3)
    assert abs(kloosterman(2, 1, 3) - 2) < 1e-14  # e(1) + e(2)


def test_kloosterman_matrix_matches_scalar():
    for c in (1, 2, 7, 12):
        mat = kloosterman_matrix(c)
        for a in range(c):
            for b in range(c):
                assert abs(mat[a, b] - kloosterman(a, b, c)) < 1e-11


def test_kloosterman_matrix_matches_two_exponential_construction():
    # the product of two gathers from the root table e(k/c), k = 0..c-1,
    # at the angles reduced mod c, bit for bit; at c = 1 it is [[1+0j]]
    for c in range(1, 61):
        units, invs = _units_and_inverses(c)
        j = np.arange(c)
        roots = _root_array(c)
        v = roots[np.outer(j, units) % c]
        w = roots[np.outer(j, invs) % c]
        assert np.array_equal(kloosterman_matrix(c).view(float), (v @ w.T).view(float)), c
    assert repr(kloosterman_matrix(1)) == repr(np.ones((1, 1), dtype=complex))


def test_reality_symmetry_weil():
    max_im, max_asym = reality_symmetry_sweep(60)
    assert max_im < 1e-9 and max_asym < 1e-9
    assert weil_bound_sweep(60) <= 1.0


@pytest.mark.parametrize("c_max", [2, 3, 30, 61])
def test_kloosterman_basic_single_pass_bit_for_bit(c_max):
    # one matrix per modulus, folded into both results, gives what a
    # reality/symmetry pass over every c and a Weil pass over the primes give
    max_im = max_asym = 0.0
    for c in range(1, c_max + 1):
        s = kloosterman_matrix(c)
        max_im = worse(max_im, float(np.abs(s.imag).max()))
        max_asym = worse(max_asym, float(np.abs(s - s.T).max()))
    two_pass = (max_im, max_asym, weil_bound_sweep(c_max))
    assert repr(kloosterman_basic_sweep(c_max)) == repr(two_pass)
    assert repr((*reality_symmetry_sweep(c_max), weil_bound_sweep(c_max))) == repr(two_pass)


def twisted_multiplicativity_residual(a, b, c1, c2):
    """|S(a,b;c1 c2) - S(a c2~, b c2~; c1) S(a c1~, b c1~; c2)| for (c1,c2)=1."""
    c2_inv = mod_inverse(c2, c1)
    c1_inv = mod_inverse(c1, c2)
    lhs = kloosterman(a, b, c1 * c2)
    rhs = kloosterman(a * c2_inv, b * c2_inv, c1) * kloosterman(a * c1_inv, b * c1_inv, c2)
    return abs(lhs - rhs)


def test_twisted_multiplicativity_oracle():
    for c1, c2 in ((2, 3), (3, 4), (4, 9), (5, 8)):
        for a in (1, 2, 5):
            for b in (1, 3):
                assert twisted_multiplicativity_residual(a, b, c1, c2) < 1e-10


def test_ramanujan_sum():
    # the Ramanujan sum, sum over units u mod c of e(u m / c), is the
    # Gauss-sum kernel's entry for the character mod 1 at moduli c that
    # are not its conductor
    def ramanujan_sum(c, m):
        return gauss_sum_table(principal_character(1), c)[m % c]

    assert abs(ramanujan_sum(5, 0) - 4) < 1e-14
    assert abs(ramanujan_sum(5, 1) - (-1)) < 1e-14  # mobius(5)
    assert abs(ramanujan_sum(4, 2) - (-2)) < 1e-14  # e(1/2) + e(3/2)
    # moebius closed form oracle
    for c in range(1, 40):
        for m in range(-6, 13):
            closed = sum(d * mobius(c // d) for d in divisors(c) if m % d == 0)
            assert abs(ramanujan_sum(c, m) - closed) < 1e-10


def test_reduction_worked_example():
    # c=3, m=1, m1=1, m2=1, quadratic character: both sides equal -3
    chi3 = quadratic_mod(3)
    lhs = chi3(1) * kloosterman(1, 1, 3) + chi3(2).conjugate() * kloosterman(2, 1, 3)
    assert abs(lhs - (-3)) < 1e-13
    tau = gauss_sum(chi3)
    assert abs(tau * tau - (-3)) < 1e-13
    assert char_kloosterman_reduction_residual(chi3, 3, 1, 1, 1) < 1e-12


def test_reduction_zero_branch_primitive():
    # for primitive chi with m1 not dividing m the product side vanishes
    chi4 = quadratic_mod(4)
    assert char_kloosterman_reduction_residual(chi4, 4, 1, 2, 1) < 1e-12
    lhs = sum(
        chi4(a).conjugate() * kloosterman(a, 1, 2) for a in (1, 3)
    )
    assert abs(lhs) < 1e-13


def test_reduction_principal_full_m1():
    # m1 = c m forces modulus 1; both sides equal phi(c) for principal chi
    for c in (2, 3, 4, 6):
        chi = principal_character(c)
        assert char_kloosterman_reduction_residual(chi, c, 1, c, 5) < 1e-12


def test_reduction_negative_m():
    chi3 = quadratic_mod(3)
    for m in (-1, -2, -6):
        for m1 in divisors(3 * m):
            for m2 in (-2, 0, 1, 7):
                r = char_kloosterman_reduction_residual(chi3, 3, m, m1, m2)
                assert r < 1e-10, (m, m1, m2, r)


def test_reduction_sweep_cross_check():
    worst, cases = char_kloosterman_reduction_sweep(10, (1, -2), 4)
    assert worst < 1e-10 and cases > 0
    # scalar path agrees with the vectorized sweep on spot tuples
    for c in (4, 6, 9):
        for chi in enumerate_characters(c):
            for m in (1, -2):
                for m1 in divisors(c * m):
                    for m2 in (-4, 1, 3):
                        r = char_kloosterman_reduction_residual(chi, c, m, m1, m2)
                        assert r < 1e-10, (c, chi, m, m1, m2)


def reduction_sweep_per_tuple(c_max, m_set, m2_max):
    """The sweep with every block rebuilt for each (c, m, m1)."""
    m2s = np.arange(-m2_max, m2_max + 1)
    worst = 0.0
    cases = 0
    for c in range(1, c_max + 1):
        units_c = np.array([a for a in range(1, c + 1) if math.gcd(a, c) == 1])
        chars = enumerate_characters(c)
        xbar = np.array(
            [[ch.values()[a % c] for a in units_c] for ch in chars]
        ).conjugate()
        prim = [primitive_part(ch.conjugate()) for ch in chars]
        for m in m_set:
            sgn = 1 if m > 0 else -1
            for m1 in divisors(c * m):
                big_c = abs(c * m) // m1
                units_big, invs_big = _units_and_inverses(big_c)
                roots = _root_array(big_c)
                phase1 = roots[np.outer(units_c * m, units_big) % big_c]
                phase2 = roots[np.outer(m2s, invs_big) % big_c]
                lhs = xbar @ (phase1 @ phase2.T)
                g1 = np.array([gauss_sum_table(ps, c)[m1 % c] for ps in prim])
                g2 = _gauss_sums(prim, big_c, sgn * m2s)
                resid = float(np.abs(lhs - g1[:, None] * g2).max())
                worst = worse(worst, resid)
                cases += len(chars) * len(m2s)
    return worst, cases


@pytest.mark.parametrize(
    "m_set",
    [(1, -1, 2, -2), (3, -5), (1, -1, 2, -2, 6, -6)],
    ids=["paired", "unpaired", "default"],
)
@pytest.mark.parametrize("m2_max", [0, 4])
def test_reduction_sweep_shares_blocks_bit_for_bit(m_set, m2_max):
    # g2 rows once per (chibar*, C) and phases once per C, reused across c,
    # g1 from one kernel call per c and the sign -1 block read reversed
    # give the per-(m, m1) sweep's result exactly
    for c_max in (1, 6, 12, 24):
        shared = char_kloosterman_reduction_sweep(c_max, m_set, m2_max)
        assert repr(shared) == repr(reduction_sweep_per_tuple(c_max, m_set, m2_max))


def test_reduction_sweep_builds_no_table_and_no_larger_kernel_block(monkeypatch):
    c_max, m_set, m2_max = 40, (1, -1, 2, -2, 6, -6), 12
    blocks = []

    def spy(chis, c, ms):
        blocks.append(len(chis) * len(_units_and_inverses(c)[0]) * len(ms))
        return _gauss_sums(chis, c, ms)

    monkeypatch.setattr(expsums, "_gauss_sums", spy)
    info = gauss_sum_table.cache_info()
    char_kloosterman_reduction_sweep(c_max, m_set, m2_max)
    assert gauss_sum_table.cache_info() == info
    # characters x units x columns of the largest block of a layout that
    # builds g(chibar*, C, m2s) for every character mod c at every (c, C)
    per_c = max(
        euler_phi(c) * euler_phi(abs(c * m) // m1) * (2 * m2_max + 1)
        for c in range(1, c_max + 1)
        for m in m_set
        for m1 in divisors(c * m)
    )
    assert blocks and max(blocks) <= per_c


def test_reduction_sweep_builds_the_rows_of_each_C_in_one_call(monkeypatch):
    c_max, m_set, m2_max = 40, (1, -1, 2, -2, 6, -6), 12
    calls = []

    def spy(chis, c, ms):
        calls.append(c)
        return _gauss_sums(chis, c, ms)

    monkeypatch.setattr(expsums, "_gauss_sums", spy)
    char_kloosterman_reduction_sweep(c_max, m_set, m2_max)
    moduli = {
        abs(c * m) // m1 for c in range(1, c_max + 1) for m in m_set for m1 in divisors(c * m)
    }
    # one g1 call per c and one g2 call per C
    assert len(calls) == c_max + len(moduli) == 140


@pytest.mark.parametrize("cap", [2, 5, 9])
def test_reduction_sweep_rows_in_smaller_calls_bit_for_bit(monkeypatch, cap):
    # caps of 2, 5 and 9 give calls of one to three rows of 25 columns
    want = repr(char_kloosterman_reduction_sweep(24, (1, -1, 2, -2, 6, -6), 12))
    monkeypatch.setattr(expsums, "KERNEL_MAX_MODULUS", cap)
    assert repr(char_kloosterman_reduction_sweep(24, (1, -1, 2, -2, 6, -6), 12)) == want


def test_reduction_sweep_holds_one_C_at_a_time(monkeypatch):
    # each C's phases and g2 rows are dropped before the next C is built;
    # only the loop's names still hold the previous C's data
    alive = []
    build = expsums._reduction_rows

    def spy(big_c, readers, m2s):
        assert sum(ref() is not None for ref in alive) <= 1, big_c
        data = build(big_c, readers, m2s)
        alive.append(weakref.ref(data[2]))
        return data

    monkeypatch.setattr(expsums, "_reduction_rows", spy)
    char_kloosterman_reduction_sweep(40, (1, -1, 2, -2, 6, -6), 12)
    assert len(alive) == 100


def test_reduction_sweep_c_max_120_peak_rss():
    # 45.9 MiB for the whole run (ru_maxrss, CPython 3.11), where holding
    # every C's data until the last c that reads it peaked at 68.5 MiB
    src = str(Path(__file__).resolve().parents[1] / "src")
    script = (
        "import resource, subprocess, sys\n"
        "cmd = [sys.executable, '-m', 'gl3voronoi.cli', 'verify', 'kloosterman-reduction',\n"
        "       '--c-max', '120']\n"
        "subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)\n"
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) / 1024 <= 56


def test_reduction_sweep_default_residual_floor():
    # every phase is a root-table entry at its angle reduced mod C (2.3e-13
    # here); phases exponentiated at unreduced angles read 8.4e-12
    worst, cases = char_kloosterman_reduction_sweep(40, (1, -1, 2, -2, 6, -6), 12)
    assert worst < 1e-12 and cases == 520700


def test_additive_collapse_worked_example():
    # c=3, N=1: sum is e(-1/3) - e(-2/3) = -i sqrt 3 = (-1)^kappa tau chi(1)
    chi3 = quadratic_mod(3)
    lhs = cmath.exp(-2j * math.pi / 3) - cmath.exp(-4j * math.pi / 3)
    assert abs(lhs - (-1j * math.sqrt(3))) < 1e-13
    assert _collapse_residual_at(multiply(principal_character(1), chi3), 1) < 1e-13


def test_additive_collapse_nonunit_shift():
    chi3 = quadratic_mod(3)
    assert _collapse_residual_at(multiply(principal_character(1), chi3), 3) < 1e-13
    assert _collapse_residual_at(multiply(principal_character(1), chi3), 0) < 1e-13


def test_additive_collapse_level_equals_modulus():
    # N = c = 5: psi primitive, chi principal, psi*chi primitive
    psi = [c for c in enumerate_characters(5) if c.is_primitive][0]
    chi = principal_character(5)
    for n in range(5):
        assert _collapse_residual_at(multiply(psi, chi), n) < 1e-12


def test_additive_collapse_sweep_small():
    worst, cases = additive_collapse_sweep(12)
    assert worst < 1e-9 and cases > 0


def _collapse_residual_at(theta, n):
    """The additive-collapse residual of primitive theta mod c at shift n,
    one n at a time."""
    c = theta.modulus
    tbar = theta.conjugate().values()
    units, invs = _units_and_inverses(c)
    roots = [cmath.exp(2j * math.pi * j / c) for j in range(c)]
    lhs = sum(tbar[a % c] * roots[(-n * abar) % c] for a, abar in zip(units, invs))
    kappa = 0 if theta.parity == 1 else 1
    return abs(lhs - (-1) ** kappa * gauss_sum(theta) * tbar[n % c])


def additive_collapse_per_triple(c_max):
    """The sweep as a loop over every level N | c, psi mod N and chi mod c,
    with each distinct product psi*chi evaluated once at every n mod c."""
    worst = 0.0
    cases = 0
    for c in range(1, c_max + 1):
        seen = {}
        for level in divisors(c):
            for psi in enumerate_characters(level):
                for chi in enumerate_characters(c):
                    theta = multiply(psi, chi)
                    if theta not in seen:
                        seen[theta] = (
                            worse(0.0, *(_collapse_residual_at(theta, n) for n in range(c)))
                            if theta.is_primitive
                            else None
                        )
                    if seen[theta] is not None:
                        worst = worse(worst, seen[theta])
                        cases += c
    return worst, cases


@pytest.mark.parametrize("c_max", [1, 2, 4, 10, 12, 20, 24])
def test_additive_collapse_sweep_matches_the_per_triple_loop(c_max):
    assert repr(additive_collapse_sweep(c_max)) == repr(additive_collapse_per_triple(c_max))


def test_additive_collapse_folds_every_scalar_residual_by_repr(monkeypatch):
    # each (theta, n) residual of one kernel call per c, at the default
    # collapse_c_max, equals the one-n-at-a-time oracle's, in fold order
    folded = []

    def keep(worst, *values):
        folded.extend(values)
        return worse(worst, *values)

    monkeypatch.setattr(expsums, "worse", keep)
    c_max = SuiteConfig().collapse_c_max
    additive_collapse_sweep(c_max)
    want = [
        _collapse_residual_at(theta, n)
        for c in range(1, c_max + 1)
        for theta in primitive_characters(c)
        for n in range(c)
    ]
    assert len(want) == 5515
    assert list(map(repr, folded)) == list(map(repr, want))


def test_intro_sign_variant_is_relabeling():
    # the twist e(+n abar/c) is the stated check at -n: relabeling a -> -a
    chi3 = quadratic_mod(3)
    theta = multiply(principal_character(1), chi3)
    c = 3
    for n in range(3):
        plus = sum(
            theta(a).conjugate() * cmath.exp(2j * math.pi * n * mod_inverse(a, c) / c)
            for a in (1, 2)
        )
        minus = sum(
            theta(a).conjugate()
            * cmath.exp(-2j * math.pi * (-n) * mod_inverse(a, c) / c)
            for a in (1, 2)
        )
        assert abs(plus - minus) < 1e-14


@pytest.mark.parametrize("c", [0, -3])
@pytest.mark.parametrize(
    "entry",
    [
        lambda c: gauss_sum_table(principal_character(1), c),
        kloosterman_matrix,
        lambda c: _gauss_sum_any_modulus(principal_character(1), c, 1),
    ],
    ids=["gauss_sum_table", "kloosterman_matrix", "_gauss_sum_any_modulus"],
)
def test_nonpositive_modulus_is_a_value_error(entry, c):
    with pytest.raises(ValueError, match=f"^modulus must be positive, got {c}$"):
        entry(c)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or (os.cpu_count() or 1) < 2,
    reason="counts /proc/self/task; on one core OpenBLAS starts no worker anyway",
)
def test_the_package_computes_on_one_thread_whatever_openblas_is_told():
    # importing gl3voronoi pins OpenBLAS before numpy loads: no worker
    # thread starts, and the kernels' matmul bytes are the one-thread
    # bytes; with two threads c = 131, 157 and 199 round differently
    script = (
        "import os\n"
        "import gl3voronoi.cli\n"
        "from gl3voronoi import expsums\n"
        "expsums.kloosterman_matrix(199)\n"
        "print(len(os.listdir('/proc/self/task')))\n"
        "for c in (131, 157, 199):\n"
        "    print(expsums.kloosterman_matrix(c).tobytes().hex())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    outputs = {}
    for threads in (None, "2", "1"):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if threads is not None:
            env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        count, *kernels = proc.stdout.split()
        assert int(count) == 1, f"OPENBLAS_NUM_THREADS={threads}: {count} threads"
        outputs[threads] = kernels
    assert outputs[None] == outputs["2"] == outputs["1"]
