"""Sparse exact algebra of formal double Dirichlet monomials.

A monomial is coeff * X^(-w) * Y^(-s) with X a positive integer and Y a
positive rational in lowest terms.  A term n^-(aw + bs + t) of a double
Dirichlet series maps to X = n^a, Y = n^b, coefficient coeff * n^-t, so
identities between such series become finite coefficient maps: exact,
windowed, and checkable key by key.  Convergence plays no role here;
identities are never verified by numerically summing a series.

Y is kept as a reduced numerator/denominator pair rather than a float
so distinct indices can never collide.  Series keys are (X, num, den).

A Window(x_max, p_max, q_max) bounds X, the Y numerator, and the Y
denominator.  A FormalSeries records the window on which it is complete
(it contains every monomial of its underlying infinite series whose key
lies inside), plus optional proven bounds on the numerators and
denominators of the underlying series restricted to X <= x_max.  Those
bounds are what make series_mul's completeness guard structural: a
factor's dropped monomial can only re-enter the product window through
a partner denominator (or numerator), so

    A.window.p_max >= window.p_max * B.den_bound
    A.window.q_max >= window.q_max * B.num_bound

suffice whenever A may have dropped anything, and a builder that cannot
certify the needed bound is a hard CompletenessError, never a silent
truncation.

Series are immutable once built; builders are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .arith import worse

__all__ = [
    "PRUNE_EPS",
    "Window",
    "FormalSeries",
    "CompletenessError",
    "series_mul",
    "build_lseries",
    "compare",
]

PRUNE_EPS = 1e-15


class CompletenessError(ValueError):
    """A window cannot be filled completely from the given data."""


@dataclass(frozen=True)
class Window:
    """Bounds for X, the Y numerator, and the Y denominator (all >= 1)."""

    x_max: int
    p_max: int
    q_max: int

    def __post_init__(self):
        if min(self.x_max, self.p_max, self.q_max) < 1:
            raise ValueError(f"window bounds must be >= 1, got {self}")

    def contains(self, x: int, num: int, den: int) -> bool:
        return x <= self.x_max and num <= self.p_max and den <= self.q_max


class FormalSeries:
    """Sparse windowed sum of monomials, keyed by (X, num, den)."""

    __slots__ = ("terms", "window", "num_bound", "den_bound")

    def __init__(
        self,
        terms: dict[tuple[int, int, int], complex],
        window: Window,
        num_bound: Optional[int] = None,
        den_bound: Optional[int] = None,
    ):
        kept = {}
        for key, coeff in terms.items():
            x, num, den = key
            if not window.contains(x, num, den):
                raise ValueError(f"key {key} outside window {window}")
            if not abs(coeff) < PRUNE_EPS:  # NaN is kept, never pruned
                kept[key] = coeff
        self.terms = kept
        self.window = window
        self.num_bound = num_bound
        self.den_bound = den_bound

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"FormalSeries({len(self.terms)} terms, window={self.window})"


def _require_cover(a: FormalSeries, b: FormalSeries, window: Window, side: str):
    """Nothing dropped from `a` may re-enter `window` through `b`."""
    if a.window.x_max < window.x_max:
        raise CompletenessError(
            f"{side} factor complete only to X <= {a.window.x_max}, "
            f"product window needs X <= {window.x_max}"
        )
    num_dropped = a.num_bound is None or a.num_bound > a.window.p_max
    if num_dropped:
        if b.den_bound is None:
            raise CompletenessError(
                f"{side} factor may lack large-numerator monomials and the "
                "partner's denominators are unbounded"
            )
        if a.window.p_max < window.p_max * b.den_bound:
            raise CompletenessError(
                f"{side} factor numerator window {a.window.p_max} cannot cover "
                f"{window.p_max} * partner den_bound {b.den_bound}"
            )
    den_dropped = a.den_bound is None or a.den_bound > a.window.q_max
    if den_dropped:
        if b.num_bound is None:
            raise CompletenessError(
                f"{side} factor may lack large-denominator monomials and the "
                "partner's numerators are unbounded"
            )
        if a.window.q_max < window.q_max * b.num_bound:
            raise CompletenessError(
                f"{side} factor denominator window {a.window.q_max} cannot cover "
                f"{window.q_max} * partner num_bound {b.num_bound}"
            )


def series_mul(a: FormalSeries, b: FormalSeries, window: Window) -> FormalSeries:
    """Product of two series, pruned to the window.

    Pairs are visited term by term of a, and for each a-term its
    partners in b's order, so every key's sum is formed in one fixed
    order.  A pair whose X lies in the window but whose Y does not is
    dropped; when nothing was dropped anywhere, the product's actual
    extents are recorded as its bounds.

    Raises CompletenessError when the factor windows provably cannot
    fill the requested window.
    """
    _require_cover(a, b, window, "left")
    _require_cover(b, a, window, "right")
    acc: dict[tuple[int, int, int], complex] = {}
    x_max, p_max, q_max = window.x_max, window.p_max, window.q_max
    gcd = math.gcd
    dropped_y = False
    for (xa, na, da), ca in a.terms.items():
        if xa > x_max:
            continue
        for (xb, nb, db), cb in b.terms.items():
            x = xa * xb
            if x > x_max:
                continue
            nn = na * nb
            dd = da * db
            if nn > p_max * dd or dd > q_max * nn:
                dropped_y = True  # reduced num >= nn/dd, reduced den >= dd/nn
                continue
            g = gcd(nn, dd)
            nn //= g
            dd //= g
            if nn > p_max or dd > q_max:
                dropped_y = True
                continue
            key = (x, nn, dd)
            acc[key] = acc.get(key, 0j) + ca * cb
    if not dropped_y and _no_drops(a) and _no_drops(b):
        # nothing with X <= x_max was lost anywhere, so the stored keys
        # are the full slice and their actual extents are valid bounds
        num_bound: Optional[int] = max((k[1] for k in acc), default=1)
        den_bound: Optional[int] = max((k[2] for k in acc), default=1)
    else:
        num_bound = (
            a.num_bound * b.num_bound
            if a.num_bound is not None and b.num_bound is not None
            else None
        )
        den_bound = (
            a.den_bound * b.den_bound
            if a.den_bound is not None and b.den_bound is not None
            else None
        )
    return FormalSeries(acc, window, num_bound, den_bound)


def _no_drops(s: FormalSeries) -> bool:
    """True when the series provably equals its full slice X <= x_max."""
    return (
        s.num_bound is not None
        and s.num_bound <= s.window.p_max
        and s.den_bound is not None
        and s.den_bound <= s.window.q_max
    )


def _int_root(x: int, k: int) -> int:
    """floor(x ** (1/k)) for positive integers."""
    if k == 1:
        return x
    r = round(x ** (1.0 / k))
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def build_lseries(
    coeff_fn: Callable[[int], complex],
    w_mult: int,
    s_mult: int,
    shift: int,
    restriction: Optional[Callable[[int], bool]],
    window: Window,
) -> FormalSeries:
    """Series sum_n coeff_fn(n) n^-(w_mult*w + s_mult*s + shift).

    Index n maps to X = n^w_mult, Y = n^s_mult, coefficient
    coeff_fn(n) * n^-shift.  Enumeration covers every index whose
    monomial lands in the window: the bound comes from x_max when
    w_mult > 0, from p_max when s_mult > 0, from q_max when s_mult < 0.
    With w_mult = 0 = s_mult no carrier bounds the index and the builder
    refuses.
    """
    if w_mult < 0:
        raise ValueError("w_mult must be nonnegative")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    if w_mult > 0:
        n_max = _int_root(window.x_max, w_mult)
    elif s_mult > 0:
        n_max = _int_root(window.p_max, s_mult)
    elif s_mult < 0:
        n_max = _int_root(window.q_max, -s_mult)
    else:
        raise CompletenessError(
            "w_mult = 0 and s_mult = 0: no carrier bounds the index"
        )
    terms: dict[tuple[int, int, int], complex] = {}
    max_num = 1
    max_den = 1
    for n in range(1, n_max + 1):
        if restriction is not None and not restriction(n):
            continue
        x = n**w_mult
        if s_mult >= 0:
            num, den = n**s_mult, 1
        else:
            num, den = 1, n ** (-s_mult)
        max_num = max(max_num, num)
        max_den = max(max_den, den)
        if not window.contains(x, num, den):
            continue
        coeff = complex(coeff_fn(n)) / n**shift
        key = (x, num, den)
        terms[key] = terms.get(key, 0j) + coeff
    if w_mult > 0:
        # the X carrier bounds the index, so the slice X <= x_max was
        # enumerated exhaustively and its Y support is provably bounded
        num_bound: Optional[int] = max_num
        den_bound: Optional[int] = max_den
    elif s_mult > 0:
        num_bound, den_bound = None, 1
    else:
        num_bound, den_bound = 1, None
    return FormalSeries(terms, window, num_bound, den_bound)


def compare(a: FormalSeries, b: FormalSeries) -> float:
    """Max absolute coefficient discrepancy of two series complete on one
    window; CompletenessError if their windows differ."""
    if a.window != b.window:
        raise CompletenessError(f"left window {a.window} is not right window {b.window}")
    worst = 0.0
    for key in a.terms.keys() | b.terms.keys():
        worst = worse(worst, abs(a.terms.get(key, 0j) - b.terms.get(key, 0j)))
    return worst
