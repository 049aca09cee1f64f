import cmath
import inspect
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl3voronoi.arith import divisors, worse
from gl3voronoi.characters import (
    _exp_table,
    enumerate_characters,
    gauss_sum,
    gauss_sum_table,
    primitive_characters,
    primitive_part,
)
from gl3voronoi import identities
from gl3voronoi.formal import (
    CompletenessError,
    FormalSeries,
    Window,
    compare,
    series_mul,
)
from gl3voronoi.heckemodel import HeckeCoefficientModel, new_model
from gl3voronoi.identities import (
    _fe_lhs_series,
    _keys,
    build_G,
    build_H,
    fe_rearrangement_sensitivity,
    ramanujan_lemma_residual,
    ramanujan_lemma_sweep,
    verify_Z_expansion,
    verify_fe_rearrangement,
    verify_moebius_assembly,
    verify_orthogonality_equivalence,
)

WINDOW = Window(144, 48, 48)
SMALL = Window(36, 24, 24)


def primitive_mod(c, index=0):
    return [ch for ch in enumerate_characters(c) if ch.is_primitive][index]


def quadratic_mod(p):
    (chi,) = [
        c for c in enumerate_characters(p) if not c.is_principal and c == c.conjugate()
    ]
    return chi


def test_identity_case_enforces_coprimality():
    psi = quadratic_mod(3)
    model = new_model(3, psi, seed=0)
    with pytest.raises(ValueError, match="q=3 must be coprime"):
        verify_Z_expansion(model, 3, primitive_mod(5), SMALL)  # q shares a factor with N
    with pytest.raises(ValueError, match="conductor of chi"):
        verify_Z_expansion(model, 1, primitive_mod(3), SMALL)  # cstar shares a factor with N
    with pytest.raises(ValueError, match="primitive"):
        verify_Z_expansion(model, 1, enumerate_characters(5)[0], SMALL)  # principal chi*


# -- generating identity for nonprimitive Gauss sums -------------------------


def test_ramanujan_single_term_case():
    # l = 1 and (m, cstar) = 1: g(chi*, cstar, m) = tau chibar*(m)
    chi = primitive_mod(5)
    tau = gauss_sum(chi)
    for m in (1, 2, 3, 4, 6):
        lhs = gauss_sum_table(chi, 5)[m % 5]
        assert abs(lhs - tau * chi.conjugate()(m)) < 1e-12
        assert ramanujan_lemma_residual(chi, 5, m, 1, 1) < 1e-12


def test_ramanujan_two_term_cancellation():
    # quadratic mod 5, m=1, l=2: g(chi, 10, 1) + chi(2) tau = 0
    chi = quadratic_mod(5)
    val = gauss_sum_table(chi, 10)[1] + chi(2) * gauss_sum(chi)
    assert abs(val) < 1e-13
    assert ramanujan_lemma_residual(chi, 5, 1, 1, 2) < 1e-13


def test_ramanujan_full_enumeration_case():
    chi = quadratic_mod(3)
    assert ramanujan_lemma_residual(chi, 3, 6, 1, 6) < 1e-13


def test_ramanujan_sweep():
    for cstar in (3, 4, 5):
        for idx in range(len([c for c in enumerate_characters(cstar) if c.is_primitive])):
            chi = primitive_mod(cstar, idx)
            for level in (1, 2):
                if math.gcd(cstar, level) > 1:
                    continue
                for m in range(1, 16):
                    assert ramanujan_lemma_residual(chi, cstar, m, level, 24) < 1e-10


def test_ramanujan_sweep_equals_scalar_path_bit_for_bit():
    # one batched kernel call per modulus l1 cstar gives every
    # (level, chi*, m) residual of the one-character table path exactly
    for cstar in (3, 4, 5, 7, 8):
        scalar = [
            ramanujan_lemma_residual(chi, cstar, m, level, 24)
            for level in (1, 2, 3)
            if math.gcd(cstar, level) == 1
            for chi in primitive_characters(cstar)
            for m in range(1, 25)
        ]
        batched = ramanujan_lemma_sweep(cstar, (1, 2, 3), 24, 24)
        assert list(map(repr, batched)) == list(map(repr, scalar)), cstar


def test_ramanujan_domain():
    with pytest.raises(ValueError):
        ramanujan_lemma_residual(primitive_mod(3), 3, 1, 3, 6)  # gcd(cstar, N) > 1


# -- H and G builders ---------------------------------------------------------


def test_build_H_first_term():
    chi = primitive_mod(3)
    model = new_model(1, seed=0)
    ell = 2
    h = build_H(1, ell, chi, model, Window(1, 24, 24))
    expected = (
        model.coefficient(1, 1)
        * gauss_sum_table(chi.conjugate(), ell * 3)[1]
        / ell
    )
    assert abs(h.terms[(1, 1, ell * ell)] - expected) < 1e-14


def test_build_H_independent_loop_order():
    # reverse enumeration: walk the window key grid and invert n = a l^2 / b
    chi = primitive_mod(5, 1)
    model = new_model(2, seed=3)
    ell = 3
    w = Window(1, 24, 24)
    h = build_H(1, ell, chi, model, w)
    gtab = gauss_sum_table(chi.conjugate(), ell * 5)
    terms = {}
    for a in range(1, w.p_max + 1):
        for b in range(1, w.q_max + 1):
            if math.gcd(a, b) != 1 or (a * ell * ell) % b:
                continue
            n = a * ell * ell // b
            gv = gtab[n % (ell * 5)]
            coeff = model.coefficient(1, n) * gv / ell
            if abs(coeff) > 0:
                terms[(1, a, b)] = coeff
    other = FormalSeries(terms, w)
    assert compare(h, other) < 1e-13


def _build_H_by_index_scan(q, ell, chi, model, window, shift, scale):
    """build_H as a scan of every index n <= p_max l^2, each kept when its
    key shift n / l^2 lands in the window."""
    c = ell * chi.modulus
    gtab = gauss_sum_table(chi.conjugate(), c)
    ell2 = ell * ell
    terms = {}
    for n in range(1, window.p_max * ell2 + 1):
        gv = gtab[n % c]
        if not gv:
            continue
        g = math.gcd(shift * n, ell2)
        num, den = shift * n // g, ell2 // g
        if num > window.p_max or den > window.q_max:
            continue
        coeff = scale * model.coefficient(q, n) * gv / ell
        if coeff:
            terms[(1, num, den)] = coeff
    return FormalSeries(terms, window)


@pytest.mark.parametrize(
    "level, q, ell, shift, window",
    [
        (1, 1, 1, 1, Window(1, 24, 24)),
        (2, 3, 3, 1, Window(1, 24, 24)),
        (1, 2, 4, 5, Window(1, 24, 24)),  # shift > 1, coprime to l
        (1, 6, 6, 4, Window(1, 24, 24)),  # shift shares 2 with l
        (1, 1, 6, 9, Window(1, 20, 12)),  # q_max < l^2, shift shares 3 with l
        (2, 1, 5, 3, Window(1, 30, 10)),  # q_max < l^2 = 25
    ],
)
def test_build_H_key_grid_matches_index_scan(level, q, ell, shift, window):
    # one shifted, scaled cell through the shell's builder, and build_H as
    # its unshifted, unscaled case
    chi = primitive_mod(5, 1)
    model = new_model(level, seed=3)
    scale = 0.5 - 0.25j
    terms = {}
    identities._add_H(terms, 1, q, [(1, ell, scale)], chi, model, window, shift)
    scan = _build_H_by_index_scan(q, ell, chi, model, window, shift, scale)
    assert terms
    assert {k: repr(v) for k, v in terms.items()} == {
        k: repr(v) for k, v in scan.terms.items()
    }
    h = build_H(q, ell, chi, model, window)
    scan = _build_H_by_index_scan(q, ell, chi, model, window, 1, 1)
    assert h.terms
    assert {k: repr(v) for k, v in h.terms.items()} == {
        k: repr(v) for k, v in scan.terms.items()
    }
    assert all(ell * ell % den == 0 for _, _, den in h.terms)


@given(
    st.integers(1, 400), st.integers(1, 40), st.integers(1, 40), st.integers(1, 40)
)
@settings(max_examples=100, deadline=None)
def test_keys_match_an_index_scan(k_num, k_den, p_max, q_max):
    g = math.gcd(k_num, k_den)
    k_num, k_den = k_num // g, k_den // g
    keys = list(zip(*_keys(k_num, k_den, p_max, q_max)))
    scan = set()
    for n in range(1, k_num * q_max // k_den + 2):
        g = math.gcd(k_num, k_den * n)
        num, den = k_num // g, k_den * n // g
        if num <= p_max and den <= q_max:
            scan.add((num, den, n))
    assert len(set(keys)) == len(keys)
    assert set(keys) == scan


def test_keys_hold_an_index_past_int64():
    # K = 3 * 2**61: the keys num / den with num = 1 and 2 <= den <= 5 sit
    # at n = K den > 2**63 - 1.  A landing n is a multiple of K / num with
    # num | K, num <= 4, so of K / 12, and the scan walks those multiples
    k_num, p_max, q_max = 3 * 2**61, 4, 5
    nums, dens, ns = _keys(k_num, 1, p_max, q_max)
    keys = list(zip(nums, dens, ns))
    step = k_num // 12
    scan = set()
    for n in range(step, k_num * q_max + 1, step):
        g = math.gcd(k_num, n)
        num, den = k_num // g, n // g
        if num <= p_max and den <= q_max:
            scan.add((num, den, n))
    assert max(ns) > 2**63 - 1
    assert keys == sorted(keys)  # num, then den, ascending
    assert set(keys) == scan and len(keys) == len(scan)
    # a grid whose indices fit keeps int64 columns
    assert all(col.typecode == "q" for col in _keys(12, 1, 4, 5))


def test_key_grids_of_an_identity_window_fe_sweep_stay_small():
    # the fe-rearrangement sweep of the identity-window benchmark: the
    # grids that _keys builds, and keeps for the life of the process, hold
    # under 2.5 MiB (a tuple of (num, den, n) per key held 4.2 MiB)
    lines, first = inspect.getsourcelines(_keys.__wrapped__)
    body = range(first, first + len(lines))
    window = Window(288, 64, 64)
    identities._keys.cache_clear()
    tracemalloc.start()
    try:
        for q in (1, 6):
            for cstar in (3, 4):
                model = new_model(1, enumerate_characters(1)[0], seed=1729)
                dual = model.contragredient()
                assert verify_fe_rearrangement(model, q, primitive_mod(cstar), window, dual) < 1e-8
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    grids = sum(
        trace.size
        for trace in snapshot.traces
        if trace.traceback[0].filename == identities.__file__
        and trace.traceback[0].lineno in body
    )
    assert identities._keys.cache_info().currsize > 200
    assert 0 < grids < 2.5 * 2**20


def _build_G_by_index_scan(q, ell, chi, model, window, contragredient, shift, scale):
    """build_G as a scan, for each d | q l, of every index n up to
    K q_max + 1, each kept when its key K / n lands in the window; each
    term is multiplied out in build_G's order, its one-cell weight
    scale g(chi*, c, d) first."""
    cstar = chi.modulus
    c = ell * cstar
    pref = chi(-model.level) * model.psi(q * c) * cstar
    gtab_c = gauss_sum_table(chi, c)
    terms = {}
    for d in divisors(q * ell):
        w = scale * gtab_c[d % c]
        if not w:
            continue
        wd = pref * w / d
        mod2 = q * c // d
        gtab2 = gauss_sum_table(chi, mod2)
        knum, kden = shift * q * ell * cstar**3, d * d
        g = math.gcd(knum, kden)
        knum, kden = knum // g, kden // g
        for n in range(1, knum * window.q_max // kden + 2):
            g = math.gcd(knum, kden * n)
            num, den = knum // g, kden * n // g
            if num > window.p_max or den > window.q_max:
                continue
            g2 = gtab2[n % mod2]
            if not g2:
                continue
            coeff = wd * contragredient.coefficient(d, n) * g2 / n
            if coeff:
                terms[(1, num, den)] = terms.get((1, num, den), 0j) + coeff
    return FormalSeries(terms, window)


@pytest.mark.parametrize(
    "level, q, ell, shift, window",
    [
        (1, 1, 1, 1, Window(1, 48, 48)),
        (1, 2, 3, 1, Window(1, 48, 24)),
        (1, 1, 2, 4, Window(1, 60, 12)),  # shift > 1
        (1, 6, 1, 2, Window(1, 60, 24)),  # q > 1, shift shares 2 with q
        (1, 1, 6, 2, Window(1, 30, 20)),  # q_max < l^2
        (2, 3, 3, 5, Window(1, 40, 20)),  # level 2, q_max < l^2
    ],
)
def test_build_G_key_grid_matches_index_scan(level, q, ell, shift, window):
    chi = primitive_mod(3)
    model = new_model(level, seed=3)
    dual = model.contragredient()
    scale = 0.5 - 0.25j
    terms = {}
    identities._add_G(terms, 1, q, [(1, ell, scale)], chi, model, window, shift, dual)
    scan = _build_G_by_index_scan(q, ell, chi, model, window, dual, shift, scale)
    assert terms
    assert {k: repr(v) for k, v in terms.items()} == {
        k: repr(v) for k, v in scan.terms.items()
    }
    got = build_G(q, ell, chi, model, window, dual)
    scan = _build_G_by_index_scan(q, ell, chi, model, window, dual, 1, 1)
    assert got.terms
    assert {k: repr(v) for k, v in got.terms.items()} == {
        k: repr(v) for k, v in scan.terms.items()
    }


def test_build_G_divisor_collapse():
    # q = 1, l = 1: the d-sum collapses to d = 1
    chi = primitive_mod(3)
    model = new_model(1, seed=0)
    g = build_G(1, 1, chi, model, Window(1, 48, 48), model.contragredient())
    tau = gauss_sum(chi)
    # term d=1, n=1: chi(-1) psi(3) cstar * A~(1,1) g(chi,3,1)^2 at Y = 27
    expected = chi(-1) * 3 * tau * tau
    assert abs(g.terms[(1, 27, 1)] - expected) < 1e-12


# -- Z expansion --------------------------------------------------------------


def test_z_expansion_x1_slice():
    # window X <= 1, q = 1: the slice is A(1,m) chi*(m) against the H-shell
    chi = primitive_mod(3)
    model = new_model(1, seed=2)
    assert verify_Z_expansion(model, 1, chi, Window(1, 24, 24)) < 1e-12


def test_z_expansion_example_windows():
    model = new_model(1, seed=0)
    assert verify_Z_expansion(model, 1, primitive_mod(3), SMALL) < 1e-12
    assert verify_Z_expansion(model, 6, primitive_mod(5), SMALL) < 1e-8


def test_z_expansion_nontrivial_level():
    psi = quadratic_mod(3)
    model = new_model(3, psi, seed=1)
    assert verify_Z_expansion(model, 2, primitive_mod(5, 2), WINDOW) < 1e-8


def test_z_expansion_nonempty_on_window():
    model = new_model(1, seed=0)
    # guard against a vacuous pass: the compared series must have terms
    from gl3voronoi import identities as idn

    captured = {}
    orig = idn.compare

    def spy(a, b):
        captured["sizes"] = (len(a), len(b))
        return orig(a, b)

    idn.compare = spy
    try:
        assert verify_Z_expansion(model, 2, primitive_mod(4), WINDOW) < 1e-8
    finally:
        idn.compare = orig
    assert min(captured["sizes"]) > 50


def _z_product_and_lhs(monkeypatch, model, q, chi, window):
    """The product p1 = L_q(2w-s, F) / L(2w-2s+1, chibar*) and the left
    side that verify_Z_expansion builds from it, caught in flight."""
    seen = {}

    def mul(a, b, w):
        seen["p1"] = series_mul(a, b, w)
        return seen["p1"]

    def spy(a, b):
        seen["lhs"] = a
        return compare(a, b)

    monkeypatch.setattr(identities, "series_mul", mul)
    monkeypatch.setattr(identities, "compare", spy)
    verify_Z_expansion(model, q, chi, window)
    return seen["p1"], seen["lhs"]


@pytest.mark.parametrize(
    "level, q, cstar, window, corrupt",
    [
        (1, 1, 3, Window(48, 24, 24), False),
        (1, 6, 5, Window(48, 24, 24), False),
        (2, 1, 3, Window(48, 24, 24), False),
        (1, 6, 4, WINDOW, False),
        (2, 1, 5, WINDOW, False),
        (1, 6, 5, Window(144, 60, 20), False),  # p_max != q_max
        (1, 1, 4, Window(144, 20, 60), False),
        (1, 1, 5, Window(288, 64, 64), False),
        (1, 6, 3, Window(288, 64, 64), False),
        (2, 1, 3, Window(288, 64, 64), False),
        (1, 1, 3, Window(288, 64, 64), True),  # the fault probe's model
    ],
)
def test_z_lhs_key_grid_matches_series_mul(monkeypatch, level, q, cstar, window, corrupt):
    # oracle: for each term (X, 1, D) of p1 in turn, every m up to p_max D
    # (a reduced numerator m / (m, D) <= p_max needs no more), each kept
    # when its key m / D lands in the window
    chi = primitive_mod(cstar)
    model = new_model(level, seed=4)
    if corrupt:
        model = model.corrupted((1, 2), 1e-3)
    p1, lhs = _z_product_and_lhs(monkeypatch, model, q, chi, window)
    oracle = {}
    for (x, _, big_d), ca in p1.terms.items():
        for m in range(1, window.p_max * big_d + 1):
            g = math.gcd(m, big_d)
            key = (x, m // g, big_d // g)
            if not window.contains(*key) or not chi(m):
                continue
            oracle[key] = oracle.get(key, 0j) + ca * (model.coefficient(1, m) * chi(m))
    oracle = FormalSeries(oracle, window)
    assert lhs.terms
    assert {(k, repr(v)) for k, v in lhs.terms.items()} == {
        (k, repr(v)) for k, v in oracle.terms.items()
    }


def test_z_refuses_a_quotient_window_too_narrow(monkeypatch):
    # the quotient's terms reach 1/Y = x_max, past a window of half that
    def narrow(a, b, w):
        return series_mul(a, b, Window(w.x_max, 1, w.q_max // 2))

    monkeypatch.setattr(identities, "series_mul", narrow)
    with pytest.raises(CompletenessError, match="outside Window"):
        verify_Z_expansion(new_model(1, seed=0), 1, primitive_mod(3), SMALL)


# -- rearranged dual expansion -------------------------------------------------


def test_fe_rearrangement_example_windows():
    model = new_model(1, seed=0)
    assert verify_fe_rearrangement(model, 1, primitive_mod(3), SMALL) < 1e-12
    psi = quadratic_mod(3)
    model3 = new_model(3, psi, seed=0)
    assert verify_fe_rearrangement(model3, 2, primitive_mod(5, 1), WINDOW) < 1e-8


def test_fe_rearrangement_q1_collapse():
    # q = 1 forces d1 = 1 on the left side; identity still holds windowed
    model = new_model(2, seed=4)
    assert verify_fe_rearrangement(model, 1, primitive_mod(5), WINDOW) < 1e-8


def test_fe_rearrangement_nonempty():
    model = new_model(1, seed=0)
    from gl3voronoi import identities as idn

    captured = {}
    orig = idn.compare

    def spy(a, b):
        captured["sizes"] = (len(a), len(b))
        return orig(a, b)

    idn.compare = spy
    try:
        assert verify_fe_rearrangement(model, 2, primitive_mod(5), WINDOW) < 1e-8
    finally:
        idn.compare = orig
    assert min(captured["sizes"]) > 20


def test_fe_rearrangement_coefficient_universal():
    # the identity is linear in the dual family: corrupting the dual on
    # both sides must NOT break it
    model = new_model(1, seed=0)
    chi = primitive_mod(3)
    bad_dual = model.contragredient().corrupted((1, 2), 0.25)
    r = verify_fe_rearrangement(model, 1, chi, WINDOW, dual=bad_dual)
    assert r < 1e-12


def test_fe_rearrangement_sensitivity_probe():
    # one-sided corruption must be caught at the injected scale
    model = new_model(1, seed=0)
    chi = primitive_mod(3)
    r1 = fe_rearrangement_sensitivity(model, 1, chi, WINDOW, 1e-3)
    assert r1 > 1e-5
    r2 = fe_rearrangement_sensitivity(model, 1, chi, WINDOW, 2e-3)
    assert 1.9 < r2 / r1 < 2.1  # linear in the injected fault


def test_fe_rearrangement_refuses_a_wrong_gauss_sum_normalization(monkeypatch):
    # tau(chi*) tau(chibar*) = chi*(-1) cstar links the two sides; a Gauss
    # sum off by a factor must raise, not compare
    good = identities.gauss_sum
    monkeypatch.setattr(identities, "gauss_sum", lambda chi: 1.01 * good(chi))
    with pytest.raises(ValueError, match="is not chi"):
        verify_fe_rearrangement(new_model(1, seed=0), 1, primitive_mod(3), SMALL)


def _fe_lhs_by_d0_scan(model, q, chi_star, window, dual, tau):
    """The rearrangement's left side as a scan of d0 up to
    q_max cstar^3 / (n d1), each kept when its reduced key lands in the
    window."""
    psi = model.psi
    chibar = chi_star.conjugate()
    c3 = chi_star.modulus**3
    pref = psi(chi_star.modulus) * chi_star(model.level) * tau**3
    terms = {}
    for n in range(1, math.isqrt(window.x_max) + 1):
        if math.gcd(n, model.level) != 1:
            continue
        for d1 in divisors(q):
            psn = pref * psi(n * q)
            for d0 in range(1, window.q_max * c3 // (n * d1) + 1):
                cb = chibar(d0 * d1)
                if not cb:
                    continue
                g = math.gcd(c3, n * d0 * d1)
                num, den = c3 // g, n * d0 * d1 // g
                if num > window.p_max or den > window.q_max:
                    continue
                coeff = psn * dual.coefficient(n * d1, (q // d1) * d0) * cb / (d0 * d1)
                key = (n * n, num, den)
                terms[key] = terms.get(key, 0j) + coeff
    return terms


@pytest.mark.parametrize(
    "level, q, cstar, window",
    [
        (1, 1, 3, WINDOW),
        (1, 6, 5, Window(36, 130, 24)),
        (2, 3, 5, Window(100, 40, 30)),
        (1, 4, 4, Window(64, 70, 20)),
    ],
)
def test_fe_lhs_key_grid_matches_d0_scan(level, q, cstar, window):
    chi = primitive_mod(cstar)
    model = new_model(level, seed=5)
    dual = model.contragredient()
    tau = gauss_sum(chi)
    got = _fe_lhs_series(model, q, chi, window, dual, tau).terms
    scan = _fe_lhs_by_d0_scan(model, q, chi, window, dual, tau)
    assert got
    assert {k: repr(v) for k, v in got.items()} == {k: repr(v) for k, v in scan.items()}


def _g_shell_cell_by_cell(model, q, chi_star, window, dual, scale):
    """The rearrangement's right side built cell by cell, the construction
    that the fold regroups: one one-split _add_G per (d2, cell), pruned on
    its own, its keys placed at X = (d1 l)^2 in (d2, cell) order."""
    s_window = Window(1, window.p_max, window.q_max)
    terms = {}
    for d2 in divisors(q):
        for x, d1, ell in identities._dirichlet_cells(window.x_max, model.level):
            pref = scale * model.psi(d2) * chi_star(d1 * d2)
            if not pref:
                continue
            cell = {}
            identities._add_G(
                cell, 1, q * d1 // d2, [(1, ell, pref)], chi_star, model, s_window, d2, dual
            )
            for (_, num, den), coeff in cell.items():
                terms[(x, num, den)] = terms.get((x, num, den), 0j) + coeff
    return FormalSeries(terms, window)


@pytest.mark.parametrize(
    "level, q, cstar, window, corrupt",
    [
        (1, 1, 3, Window(48, 24, 24), False),
        (1, 6, 3, Window(48, 24, 24), False),
        (2, 3, 3, Window(48, 24, 24), False),
        (1, 6, 4, WINDOW, False),
        (2, 1, 5, WINDOW, False),
        (2, 3, 5, WINDOW, False),
        (1, 6, 5, Window(144, 60, 20), False),  # p_max != q_max
        (1, 1, 4, Window(288, 64, 64), False),
        (1, 6, 3, Window(288, 64, 64), False),
        (2, 1, 3, Window(288, 64, 64), False),
        (1, 1, 3, Window(288, 64, 64), True),  # the sensitivity probe's dual
    ],
)
def test_g_shell_fold_matches_cell_by_cell(level, q, cstar, window, corrupt):
    chi = primitive_mod(cstar)
    model = new_model(level, seed=6)
    dual = model.contragredient()
    if corrupt:
        dual = dual.corrupted((1, 2), 1e-3)
    scale = 1 / gauss_sum(chi.conjugate())
    cells = identities._dirichlet_cells(window.x_max, level)
    folded = FormalSeries(
        identities._shell(
            {}, identities._add_G, model, chi, q, cells, window, scale, contragredient=dual
        ),
        window,
    ).terms
    oracle = _g_shell_cell_by_cell(model, q, chi, window, dual, scale).terms
    top = max(map(abs, oracle.values()))
    assert top > 1  # not a shell of roundoff alone
    # a key on one side only must sit at the 1e-15 prune
    for key in folded.keys() ^ oracle.keys():
        assert abs(folded.get(key, oracle.get(key))) < 1e-14
    diff = max(abs(folded.get(k, 0j) - oracle.get(k, 0j)) for k in folded.keys() | oracle.keys())
    assert diff <= 1e-13 * top


def _h_shell_cell_by_cell(model, q, chi_star, window, scale):
    """The Z expansion's right side built cell by cell from the index scan:
    one scanned H per (d2, cell), pruned on its own, its keys placed at
    X = (d1 l)^2 in (d2, cell) order."""
    s_window = Window(1, window.p_max, window.q_max)
    terms = {}
    for d2 in divisors(q):
        for x, d1, ell in identities._dirichlet_cells(window.x_max, model.level):
            pref = scale * model.psi(d2) * chi_star(d1 * d2)
            if not pref:
                continue
            cell = _build_H_by_index_scan(q * d1 // d2, ell, chi_star, model, s_window, d2, pref)
            for (_, num, den), coeff in cell.terms.items():
                terms[(x, num, den)] = terms.get((x, num, den), 0j) + coeff
    return FormalSeries(terms, window)


@pytest.mark.parametrize(
    "level, q, cstar, window, corrupt",
    [
        (1, 1, 3, Window(48, 24, 24), False),
        (1, 6, 3, Window(48, 24, 24), False),
        (2, 3, 3, Window(48, 24, 24), False),
        (1, 6, 4, WINDOW, False),
        (2, 1, 5, WINDOW, False),
        (2, 3, 5, WINDOW, False),
        (1, 6, 5, Window(144, 60, 20), False),  # p_max != q_max
        (1, 1, 4, Window(288, 64, 64), False),
        (1, 6, 3, Window(288, 64, 64), False),
        (2, 1, 3, Window(288, 64, 64), False),
        (1, 1, 3, Window(288, 64, 64), True),  # the Z probe's model
    ],
)
def test_h_shell_matches_cell_by_cell(level, q, cstar, window, corrupt):
    # H is not folded: each key is summed in the same (d2, d1) order, so
    # the shell equals the cell-by-cell build exactly
    chi = primitive_mod(cstar)
    model = new_model(level, seed=6)
    if corrupt:
        model = model.corrupted((1, 2), 1e-3)
    scale = 1 / gauss_sum(chi.conjugate())
    cells = identities._dirichlet_cells(window.x_max, level)
    shell = FormalSeries(
        identities._shell({}, identities._add_H, model, chi, q, cells, window, scale), window
    ).terms
    oracle = _h_shell_cell_by_cell(model, q, chi, window, scale).terms
    assert max(map(abs, oracle.values())) > 1  # not a shell of roundoff alone
    assert {k: repr(v) for k, v in shell.items()} == {k: repr(v) for k, v in oracle.items()}


# -- fault injection and invariances ------------------------------------------


def test_z_expansion_fault_injection_linearity():
    chi = primitive_mod(3)
    model = new_model(1, seed=0)
    r1 = verify_Z_expansion(model.corrupted((1, 2), 1e-3), 1, chi, SMALL)
    r2 = verify_Z_expansion(model.corrupted((1, 2), 2e-3), 1, chi, SMALL)
    assert r1 > 1e-5
    assert 1.9 < r2 / r1 < 2.1


def test_ramified_unit_rescale_invariance():
    u = cmath.exp(1.1j)

    class Rescaled(HeckeCoefficientModel):
        """Every free ramified value c_{p,k}, k >= 1, times the unit u."""

        def ramified(self, p, k):
            val = super().ramified(p, k)
            return val * u if k else val

    psi = quadratic_mod(3)
    model = new_model(3, psi, seed=0)
    scaled = Rescaled(3, psi, 0)
    chi = primitive_mod(5, 1)
    assert scaled.coefficient(1, 3) == model.coefficient(1, 3) * u
    r1 = verify_Z_expansion(model, 2, chi, WINDOW)
    r2 = verify_Z_expansion(scaled, 2, chi, WINDOW)
    assert abs(r1 - r2) < 1e-12
    r3 = verify_fe_rearrangement(model, 2, chi, WINDOW)
    r4 = verify_fe_rearrangement(scaled, 2, chi, WINDOW)
    assert abs(r3 - r4) < 1e-12


def test_determinism_of_verifiers():
    chi = primitive_mod(5)
    a = verify_Z_expansion(new_model(1, seed=11), 3, chi, SMALL)
    b = verify_Z_expansion(new_model(1, seed=11), 3, chi, SMALL)
    assert a == b


# -- Moebius assembly ----------------------------------------------------------


def test_moebius_assembly_m1_is_inversion():
    model = new_model(1, seed=0)
    chi = primitive_mod(3)
    w = Window(1, 24, 24)
    assert verify_moebius_assembly(model, 1, 1, chi, w) < 1e-13
    assert verify_moebius_assembly(model, 4, 1, chi, w) < 1e-12


def test_moebius_assembly_examples():
    model = new_model(1, seed=0)
    assert verify_moebius_assembly(model, 2, 3, primitive_mod(5), SMALL) < 1e-10
    assert verify_moebius_assembly(model, 6, 12, primitive_mod(5, 1), SMALL) < 1e-10


def test_moebius_assembly_nontrivial_level():
    psi = quadratic_mod(3)
    model = new_model(3, psi, seed=2)
    assert verify_moebius_assembly(model, 2, 4, primitive_mod(5), SMALL) < 1e-10
    with pytest.raises(ValueError):
        verify_moebius_assembly(model, 2, 3, primitive_mod(5), SMALL)  # 3 | level


# -- orthogonality -------------------------------------------------------------


def test_orthogonality_examples():
    model = new_model(1, seed=0)
    assert verify_orthogonality_equivalence(model, 1, 1, n_max=24) < 1e-13
    assert verify_orthogonality_equivalence(model, 3, 1, n_max=24) < 1e-12
    assert verify_orthogonality_equivalence(model, 8, 3, n_max=24) < 1e-9


def orthogonality_per_table(model, c, q, n_max):
    """verify_orthogonality_equivalence from one gauss_sum_table per character."""
    chars = enumerate_characters(c)
    tabs = [gauss_sum_table(primitive_part(ch.conjugate()), c) for ch in chars]
    units = [a for a in range(1, c + 1) if math.gcd(a, c) == 1]
    worst = 0.0
    for n in range(1, n_max + 1):
        a_qn = model.coefficient(q, n)
        for a in units:
            lhs = sum(
                ch.values()[a % c].conjugate() * a_qn * tab[n % c]
                for ch, tab in zip(chars, tabs)
            )
            rhs = len(units) * a_qn * _exp_table(c)[pow(a, -1, c) * n % c]
            worst = worse(worst, abs(lhs - rhs))
    return worst


def test_orthogonality_reads_kernel_columns_bit_for_bit():
    # the columns n mod c of one kernel call give the per-table residual
    # exactly, and no gauss_sum_table is built or read
    model = new_model(1, seed=0)
    for c, n_max in ((1, 5), (5, 0), (7, 3), (12, 30), (30, 40)):
        info = gauss_sum_table.cache_info()
        got = verify_orthogonality_equivalence(model, c, 1, n_max)
        assert gauss_sum_table.cache_info() == info
        assert repr(got) == repr(orthogonality_per_table(model, c, 1, n_max)), c


def test_orthogonality_reads_each_conjugate_itself(monkeypatch):
    # g(chibar, c, n) of chibar itself: no primitive part is formed, since
    # on the units of c both hold the same values bit for bit
    calls = []

    def spy(chi):
        calls.append(chi)
        return primitive_part(chi)

    monkeypatch.setattr("gl3voronoi.characters.primitive_part", spy)
    monkeypatch.setattr(identities, "primitive_part", spy, raising=False)
    model = new_model(1, seed=0)
    for c in (1, 8, 12, 30):
        verify_orthogonality_equivalence(model, c, 1, 24)
    assert calls == []


def test_orthogonality_respects_level():
    psi = quadratic_mod(3)
    model = new_model(3, psi, seed=0)
    assert verify_orthogonality_equivalence(model, 8, 2, n_max=24) < 1e-9
    with pytest.raises(ValueError):
        verify_orthogonality_equivalence(model, 6, 1, n_max=24)
