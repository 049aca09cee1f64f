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
denominator.  A FormalSeries holds every monomial of its series whose
key lies in its window.  build_lseries and series_mul build whole
X-slices, every monomial with X <= x_max, and raise CompletenessError
where they would have to drop one, never truncating silently: a factor
cut in Y could lose a term that re-enters the product through its partner.
No check uses them: they are the tests' oracle for the Z expansion's
left side, and stay while the bench tracer binds them by name.

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

    __slots__ = ("terms", "window")

    def __init__(self, terms: dict[tuple[int, int, int], complex], window: Window):
        kept = {}
        for key, coeff in terms.items():
            x, num, den = key
            if not window.contains(x, num, den):
                raise ValueError(f"key {key} outside window {window}")
            if not abs(coeff) < PRUNE_EPS:  # NaN is kept, never pruned
                kept[key] = coeff
        self.terms = kept
        self.window = window

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"FormalSeries({len(self.terms)} terms, window={self.window})"


def series_mul(a: FormalSeries, b: FormalSeries, window: Window) -> FormalSeries:
    """Product of two whole slices: the whole slice X <= window.x_max.

    Pairs are visited term by term of a, and for each a-term its
    partners in b's order, so every key's sum is formed in one fixed
    order.  Raises CompletenessError when a factor holds its slice only
    below window.x_max, or when a pair with X in the window has its
    reduced Y outside it.
    """
    for side, f in (("left", a), ("right", b)):
        if f.window.x_max < window.x_max:
            raise CompletenessError(
                f"{side} factor complete only to X <= {f.window.x_max}, "
                f"product window needs X <= {window.x_max}"
            )
    acc: dict[tuple[int, int, int], complex] = {}
    x_max, p_max, q_max = window.x_max, window.p_max, window.q_max
    gcd = math.gcd
    for (xa, na, da), ca in a.terms.items():
        if xa > x_max:
            continue
        for (xb, nb, db), cb in b.terms.items():
            x = xa * xb
            if x > x_max:
                continue
            nn = na * nb
            dd = da * db
            g = gcd(nn, dd)
            nn //= g
            dd //= g
            if nn > p_max or dd > q_max:
                raise CompletenessError(f"product term ({x}, {nn}, {dd}) outside {window}")
            key = (x, nn, dd)
            acc[key] = acc.get(key, 0j) + ca * cb
    return FormalSeries(acc, window)


def build_lseries(
    coeff_fn: Callable[[int], complex],
    w_mult: int,
    s_mult: int,
    shift: int,
    restriction: Optional[Callable[[int], bool]],
    window: Window,
) -> FormalSeries:
    """Series sum_n coeff_fn(n) n^-(w_mult*w + s_mult*s + shift), whole on
    X <= x_max.

    Index n maps to X = n^w_mult, Y = n^s_mult, coefficient
    coeff_fn(n) * n^-shift.  X bounds the index, so w_mult >= 1 and the
    indices n <= x_max^(1/w_mult) are the whole slice; CompletenessError
    when w_mult < 1 or when an index's Y falls outside the window.
    """
    if w_mult < 1:
        raise CompletenessError(f"w_mult = {w_mult}: X does not bound the index")
    if shift < 0:
        raise ValueError("shift must be nonnegative")
    terms: dict[tuple[int, int, int], complex] = {}
    n = 0
    while (n + 1) ** w_mult <= window.x_max:
        n += 1
        if restriction is not None and not restriction(n):
            continue
        if s_mult >= 0:
            num, den = n**s_mult, 1
        else:
            num, den = 1, n ** (-s_mult)
        if num > window.p_max or den > window.q_max:
            raise CompletenessError(f"index {n} has Y = {num}/{den} outside {window}")
        key = (n**w_mult, num, den)
        terms[key] = terms.get(key, 0j) + complex(coeff_fn(n)) / n**shift
    return FormalSeries(terms, window)


def compare(a: FormalSeries, b: FormalSeries) -> float:
    """Max absolute coefficient discrepancy of two series complete on one
    window; CompletenessError if their windows differ."""
    if a.window != b.window:
        raise CompletenessError(f"left window {a.window} is not right window {b.window}")
    worst = 0.0
    for key in a.terms.keys() | b.terms.keys():
        worst = worse(worst, abs(a.terms.get(key, 0j) - b.terms.get(key, 0j)))
    return worst
