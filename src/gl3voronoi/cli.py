"""Verification harness and command line entry point.

One subcommand per verified identity, named after the identity, plus two
module-sanity checks (gauss-modulus, kloosterman-basic) and the suite
runner ``verify all``.  A new check is one ``@_check(name, tolerance,
**fields)`` body: the decorator registers it in CHECKS and its tolerance
in DEFAULT_TOLERANCES, and each report parameter named in fields echoes
that SuiteConfig field, so the body folds its residuals and returns only
the parameters it computed.  Every report is formed by ``_Fold.report``,
which alone times a report, looks up its tolerance and applies the
no-case rule below.  Reports are deterministic given (seed, config):
randomness enters only through the seeded coefficient draws, checks are
collected in name order, and runtime_ms is excluded from the determinism
contract.

Exit codes: 0 when every check passes and every fault probe (a report
whose parameters say ``expected: fail``) fails, 1 otherwise, 2 on usage
errors, which include every invalid configuration and a report file that
cannot be written (the reports are on stdout first).  A check that raises
becomes one failing report named after it, so the others still run, and
a check that evaluates no case FAILs: an empty sweep proves nothing.

Configuration is SuiteConfig alone: each of its fields is both a
``--flag-with-dashes`` of ``verify`` and a ``key_with_underscores`` of
the ``--config`` file, with one parser per field derived from the
field's type.  Checks run serially, and no environment variable is read.
The package pins OpenBLAS to one thread before numpy loads (see
``gl3voronoi.__init__``): otherwise a BLAS worker thread spins on a
second core beside the serial checks, and the Kloosterman kernels'
matmuls round by core count.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
import time
import typing
from dataclasses import dataclass, field, replace

from . import __version__
from .arith import _MAX_N, euler_phi, factorize, primes_up_to, worse
from .characters import (
    KERNEL_MAX_MODULUS,
    _gauss_sums,
    enumerate_characters,
    gauss_sum,
    primitive_characters,
)
from .expsums import (
    additive_collapse_sweep,
    char_kloosterman_reduction_sweep,
    kloosterman_basic_sweep,
)
from .formal import Window
from .heckemodel import euler_product_residual, new_model, relation_residuals
from .identities import (
    fe_rearrangement_sensitivity,
    ramanujan_lemma_sweep,
    verify_Z_expansion,
    verify_fe_rearrangement,
    verify_moebius_assembly,
    verify_orthogonality_equivalence,
)
from .special import (
    GammaData,
    fourier_bessel_identity_residual,
    fourier_bessel_lhs,
    xi_factor,
)

DEFAULT_SEED = 1729

# the tolerance of each check; @_check adds those of the checks it registers
DEFAULT_TOLERANCES = {"bessel-identity": 1e-6, "bessel-identity-spot": 1e-8}


@dataclass(frozen=True)
class VerificationReport:
    """One named check: parameters, max residual, tolerance, verdict."""

    check_name: str
    parameters: dict[str, str]
    max_residual: float
    tolerance: float
    passed: bool
    runtime_ms: int

    @classmethod
    def make(cls, name, parameters, max_residual, tolerance, runtime_ms):
        return cls(
            check_name=name,
            parameters={k: str(v) for k, v in parameters.items()},
            max_residual=float(max_residual),
            tolerance=float(tolerance),
            passed=bool(max_residual <= tolerance),
            runtime_ms=int(runtime_ms),
        )

    def to_dict(self) -> dict:
        return {
            "check_name": self.check_name,
            "parameters": dict(sorted(self.parameters.items())),
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
            "runtime_ms": self.runtime_ms,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VerificationReport":
        return cls(
            check_name=d["check_name"],
            parameters=dict(d["parameters"]),
            max_residual=float(d["max_residual"]),
            tolerance=float(d["tolerance"]),
            passed=bool(d["pass"]),
            runtime_ms=int(d["runtime_ms"]),
        )

    def text_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict}  {self.check_name:28s} residual={self.max_residual:.3e}  "
            f"tol={self.tolerance:.1e}  {self.runtime_ms} ms"
        )


CHARS_LIST_MAX_MODULUS = 4096  # phi(q) tables of q pointers: 160 MiB peak at q = 4093
WINDOW_MAX_PQ = 1024  # key grids grow with P, Q: fe-rearrangement 6.5 s, 62 MiB at the cap
ORTHOGONALITY_MAX_C = 256  # a value table per character mod c <= c_max: 11 s, 91 MiB
# a sieve of prime_bound bytes, then each prime's relations: hecke-relations
# takes 0.3 s at the cap with one model, level 1 and power_bound 1
PRIME_BOUND_MAX = 2**16
# the number of models or cases a check runs, each cap timed with every
# other field at its default, as WINDOW_MAX_PQ, on one 2-core AMD EPYC host
TRIALS_MAX = 2**11  # models per hecke level: hecke-relations 20.2 s, 30 MiB
SEEDS_PER_CASE_MAX = 2**7  # models per level: fe-rearrangement 5.0 s, z-expansion 11.1 s
EULER_N_MAX = 2**17  # terms of each Euler product: euler-product 13.5 s, 64 MiB
ORTHOGONALITY_N_MAX = 2**16  # n per (c, q): orthogonality 15.7 s, 56 MiB
MOEBIUS_Q_MAX = 2**9  # q per (cstar, m): moebius-assembly 25.7 s, 121 MiB


@dataclass(frozen=True)
class SuiteConfig:
    """Sweep bounds, seed, tolerance overrides, and output destination.

    Defaults reproduce the acceptance suite exactly.
    """

    seed: int = DEFAULT_SEED
    tolerances: dict = field(default_factory=dict)
    window: tuple[int, int, int] = (144, 48, 48)
    levels: tuple[int, ...] = (1, 2)  # identity sweeps
    hecke_levels: tuple[int, ...] = (1, 2, 3, 5)
    q_list: tuple[int, ...] = (1, 2, 3, 6)
    cstar_list: tuple[int, ...] = (3, 4, 5)
    seeds_per_case: int = 5
    c_max: int = 40  # kloosterman reduction
    m_set: tuple[int, ...] = (1, -1, 2, -2, 6, -6)
    m2_max: int = 12
    collapse_c_max: int = 36
    kloosterman_c_max: int = 200
    gauss_c_max: int = 50
    prime_bound: int = 13
    power_bound: int = 4
    trials: int = 50
    euler_n_max: int = 300
    euler_levels: tuple[int, ...] = (1, 3)
    euler_chi_modulus: int = 5
    ramanujan_cstar: tuple[int, ...] = (3, 4, 5, 7, 8)
    ramanujan_levels: tuple[int, ...] = (1, 2, 3)
    ramanujan_m_max: int = 24
    ramanujan_ell_max: int = 48
    moebius_q_max: int = 6
    moebius_m_max: int = 12
    moebius_cstar: tuple[int, ...] = (3, 5)
    orthogonality_c_max: int = 12
    orthogonality_n_max: int = 24
    nu1: complex = complex(1 / 3, 0.3)
    nu2: complex = complex(1 / 3, 0.7)
    fault_injection: bool = False
    output: str | None = None

    def tolerance(self, check: str) -> float:
        return float(self.tolerances.get(check, DEFAULT_TOLERANCES[check]))

    def window_obj(self) -> Window:
        return Window(*self.window)

    def validate(self) -> None:
        """Raise ValueError for any value that a check cannot run on.

        Int fields but the seed are bounds >= 1 (m2_max >= 0, as |m2|
        <= m2_max; kloosterman_c_max >= 2, as Weil's bound needs a prime);
        int tuples but m_set hold positive levels, moduli or q's; m_set
        has no zero; all of these, and the window, are <= 2**63-1 in
        absolute value, as factorize needs; each entry of levels,
        hecke_levels, euler_levels and euler_chi_modulus enumerates the
        characters of one modulus, so is <= CHARS_LIST_MAX_MODULUS, as in
        chars list, and so is every cstar, which also has a primitive
        character; no kernel is built at a modulus above
        KERNEL_MAX_MODULUS (see kernel_moduli below) nor a batched Gauss
        block of more than KERNEL_MAX_MODULUS**2 entries (see blocks); the
        window's P and Q are <= WINDOW_MAX_PQ, orthogonality_c_max <=
        ORTHOGONALITY_MAX_C, prime_bound <= PRIME_BOUND_MAX, and each of
        trials, seeds_per_case, euler_n_max, orthogonality_n_max and
        moebius_q_max is at most its cap (TRIALS_MAX and so on); every
        index that hecke-relations reads, pure or mixed, fits factorize;
        the triple of (nu1, nu2) is purely imaginary, as unitarity on the
        critical line needs; every tolerance override names a check and is
        finite and > 0; under fault injection the window holds both
        probes' corrupted terms.
        """
        if min(self.window) < 1:
            raise ValueError("window fields must be positive")
        x_max, p_max, q_max = self.window
        if self.fault_injection and (x_max < 4 or p_max < 27 or q_max < 2):
            # the Z probe's A(1, 2) enters the Z expansion only through the
            # X = 2^2 carriers; the rearrangement probe's A~(1, 2) sits at
            # Y = 3^3/2: outside the window, a probe is blind
            raise ValueError("window: fault injection needs X >= 4, P >= 27 and Q >= 2")
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            low = {"m2_max": 0, "kloosterman_c_max": 2}.get(name, 1)
            if kind is int and name != "seed" and not low <= value <= _MAX_N:
                raise ValueError(f"{name} must be >= {low} and <= 2**63-1")
            if kind == tuple[int, ...] and name != "m_set" and min(value, default=1) < 1:
                raise ValueError(f"{name} entries must be >= 1")
            if typing.get_origin(kind) is tuple and max(map(abs, value), default=0) > _MAX_N:
                raise ValueError(f"{name} entries must be <= 2**63-1 in absolute value")
        cstars = ("cstar_list", "moebius_cstar", "ramanujan_cstar")
        for name in ("levels", "hecke_levels", "euler_levels", "euler_chi_modulus", *cstars):
            value = getattr(self, name)
            entries = value if isinstance(value, tuple) else (value,)
            if max(entries, default=1) > CHARS_LIST_MAX_MODULUS:
                raise ValueError(f"{name} must be <= {CHARS_LIST_MAX_MODULUS}, got {value}")
        if 0 in self.m_set:
            raise ValueError("m_set must not contain 0")
        for name in cstars:
            if any(cstar % 4 == 2 for cstar in getattr(self, name)):
                raise ValueError(f"{name}: a cstar = 2 mod 4 has no primitive character")
        # the largest modulus of a Gauss or Kloosterman kernel, by the
        # fields that set it: fe-rearrangement's G side reaches q k cstar
        # with k <= isqrt(X), above the Z expansion's l cstar, and both
        # fault probes run at q = 1, cstar = 3
        root, top = math.isqrt(x_max), functools.partial(max, default=1)
        kernel_moduli = {
            "window, q_list, cstar_list": root * top(self.q_list) * top(self.cstar_list),
            "window, fault_injection": 3 * root if self.fault_injection else 1,
            "moebius_m_max, moebius_cstar": self.moebius_m_max * top(self.moebius_cstar),
            "ramanujan_ell_max, ramanujan_cstar": self.ramanujan_ell_max
            * top(self.ramanujan_cstar),
            "c_max, m_set": self.c_max * top(map(abs, self.m_set)),
            "kloosterman_c_max": self.kloosterman_c_max,
            "gauss_c_max": self.gauss_c_max,
            "collapse_c_max": self.collapse_c_max,
            "orthogonality_c_max": self.orthogonality_c_max,
        }
        for names, modulus in kernel_moduli.items():
            if modulus > KERNEL_MAX_MODULUS:
                raise ValueError(
                    f"{names}: a kernel at modulus {modulus}, above {KERNEL_MAX_MODULUS}"
                )
        # no batched Gauss block (characters x units x columns) outgrows a
        # table at the modulus cap; by phi(a b) <= a phi(b), kloosterman-
        # reduction has phi(c) characters and phi(C) <= c phi(|m|) units at
        # C | c m, ramanujan-lemma phi(c*) and phi(l1 c*) <= l1 phi(c*)
        phi_m = top(euler_phi(abs(m)) for m in self.m_set)
        phi_cstar = top(map(euler_phi, self.ramanujan_cstar))
        blocks = {
            "c_max, m_set, m2_max": self.c_max**2 * phi_m * (2 * self.m2_max + 1),
            "ramanujan_cstar, ramanujan_ell_max, ramanujan_m_max": phi_cstar**2
            * (self.ramanujan_ell_max * self.ramanujan_m_max),
        }
        limit = KERNEL_MAX_MODULUS**2
        for names, size in blocks.items():
            if size > limit:
                raise ValueError(f"{names}: a Gauss block of {size} entries, above {limit}")
        for name, value, cap in (
            ("window P", p_max, WINDOW_MAX_PQ),
            ("window Q", q_max, WINDOW_MAX_PQ),
            ("orthogonality_c_max", self.orthogonality_c_max, ORTHOGONALITY_MAX_C),
            ("prime_bound", self.prime_bound, PRIME_BOUND_MAX),
            ("trials", self.trials, TRIALS_MAX),
            ("seeds_per_case", self.seeds_per_case, SEEDS_PER_CASE_MAX),
            ("euler_n_max", self.euler_n_max, EULER_N_MAX),
            ("orthogonality_n_max", self.orthogonality_n_max, ORTHOGONALITY_N_MAX),
            ("moebius_q_max", self.moebius_q_max, MOEBIUS_Q_MAX),
        ):
            if value > cap:
                raise ValueError(f"{name} must be <= {cap}, got {value}")
        # coefficient factorizes every index that hecke-relations reads: up
        # to p^(2 power_bound) and, at a level whose largest prime is q,
        # q^J p^4 with J = max(2, power_bound), with p the largest prime <=
        # prime_bound off the level; as 2^64 > 2**63 already, each exponent
        # is capped at 64
        primes = primes_up_to(self.prime_bound)
        for level in self.hecke_levels:
            p = next((p for p in reversed(primes) if level % p), None)
            if p is None:
                continue
            indices = {f"{p}^{2 * self.power_bound}": p ** min(2 * self.power_bound, 64)}
            if level > 1:
                q = factorize(level)[-1][0]
                j = max(2, self.power_bound)
                indices[f"{q}^{j}*{p}^4"] = q ** min(j, 64) * p**4
            for text, index in indices.items():
                if index > _MAX_N:
                    raise ValueError(
                        f"prime_bound, power_bound, hecke_levels: hecke-relations reads "
                        f"A(m1, m2) at an index {text}, above 2**63-1"
                    )
        finite = cmath.isfinite(self.nu1) and cmath.isfinite(self.nu2)
        triple = GammaData(self.nu1, self.nu2).triple if finite else ()
        if not finite or max(abs(a.real) for a in triple) >= 1e-12:
            raise ValueError("nu1, nu2: unitarity needs Re nu1 = Re nu2 = 1/3")
        for check, tol in self.tolerances.items():
            if check not in DEFAULT_TOLERANCES:
                raise ValueError(f"tolerance override for unknown check {check!r}")
            # NaN or <= 0 fails every finite residual, inf passes all of them
            if not (math.isfinite(tol) and tol > 0):
                raise ValueError(f"tolerance for {check} must be finite and > 0, got {tol}")


_FIELD_TYPES = typing.get_type_hints(SuiteConfig)


# -- individual checks -------------------------------------------------------


class _Fold:
    """The worst residual of a report, its case count, and its clock."""

    def __init__(self):
        self.worst = 0.0
        self.cases = 0
        self.t0 = time.perf_counter()

    def add(self, *residuals, cases=None) -> None:
        """Fold residuals in as `cases` cases (default: one per residual)."""
        self.worst = worse(self.worst, *residuals)
        self.cases += len(residuals) if cases is None else cases

    def report(self, config, name, parameters, tolerance_of=None) -> VerificationReport:
        """The report of what was folded, timed since the fold was made; with
        no case the check proved nothing, so it FAILs with residual NaN and
        an ``error`` parameter, unless the parameters carry one."""
        worst = self.worst if self.cases else math.nan
        if not self.cases:
            parameters = {"error": "no cases evaluated", **parameters}
        tolerance = config.tolerance(tolerance_of or name)
        ms = round((time.perf_counter() - self.t0) * 1000)
        return VerificationReport.make(name, parameters, worst, tolerance, ms)


CHECKS: dict[str, typing.Callable[[SuiteConfig], list[VerificationReport]]] = {}


def _check(name: str, tolerance: float, **fields: str):
    """Register body(config, fold) -> parameters as CHECKS[name], and its
    tolerance as DEFAULT_TOLERANCES[name]: the registered check_x(config)
    -> [report], under the body's own name, hands the body a fresh fold
    and returns its report.  fields maps a report parameter to the
    SuiteConfig field it echoes, as _text writes it; the body returns
    only the parameters it computed."""
    DEFAULT_TOLERANCES[name] = tolerance

    def register(body):
        @functools.wraps(body)
        def check(config: SuiteConfig) -> list[VerificationReport]:
            fold = _Fold()
            echoed = {param: _text(f, getattr(config, f)) for param, f in fields.items()}
            return [fold.report(config, name, {**echoed, **body(config, fold)})]

        CHECKS[name] = check
        return check

    return register


@_check("gauss-modulus", 1e-9, c_max="gauss_c_max")
def check_gauss_modulus(config: SuiteConfig, fold: _Fold) -> dict:
    for c in range(1, config.gauss_c_max + 1):
        prim = primitive_characters(c)
        if not prim:
            continue
        # one batched kernel call: row i is tau(prim[i]) bit for bit
        for tau in _gauss_sums(prim, c, [1 % c])[:, 0].tolist():
            fold.add(abs(abs(tau) - math.sqrt(c)))
    return {"primitive_count": fold.cases}


@_check("kloosterman-basic", 1e-9, c_max="kloosterman_c_max")
def check_kloosterman_basic(config: SuiteConfig, fold: _Fold) -> dict:
    max_im, max_asym, weil = kloosterman_basic_sweep(config.kloosterman_c_max)
    # one reality and symmetry residual per modulus
    fold.add(max_im, max_asym, weil - 1.0, cases=config.kloosterman_c_max)
    return {
        "max_imag": f"{max_im:.3e}",
        "max_asymmetry": f"{max_asym:.3e}",
        "weil_ratio": f"{weil:.6f}",
    }


@_check("kloosterman-reduction", 1e-8, c_max="c_max", m_set="m_set", m2_max="m2_max")
def check_kloosterman_reduction(config: SuiteConfig, fold: _Fold) -> dict:
    worst, cases = char_kloosterman_reduction_sweep(config.c_max, config.m_set, config.m2_max)
    fold.add(worst, cases=cases)
    return {"cases": fold.cases}


@_check("additive-collapse", 1e-9, c_max="collapse_c_max")
def check_additive_collapse(config: SuiteConfig, fold: _Fold) -> dict:
    worst, cases = additive_collapse_sweep(config.collapse_c_max)
    fold.add(worst, cases=cases)
    return {"cases": fold.cases}


def _models(config: SuiteConfig, level: int, count: int):
    """(i, model i) for i < count, the one seeding rule of the checks:
    nebentypus enumerate_characters(level)[i mod phi(level)], seed
    config.seed + i."""
    psis = enumerate_characters(level)
    for i in range(count):
        yield i, new_model(level, psis[i % len(psis)], seed=config.seed + i)


@_check("hecke-relations", 1e-10, levels="hecke_levels", prime_bound="prime_bound",
        power_bound="power_bound", seed="seed")
def check_hecke_relations(config: SuiteConfig, fold: _Fold) -> dict:
    primes = primes_up_to(config.prime_bound)
    models = 0
    for level in config.hecke_levels:
        level_primes = [q for q, _ in factorize(level)]
        unramified = [p for p in primes if level % p]
        for _, model in _models(config, level, config.trials):
            models += 1
            for p in unramified:
                fold.add(*relation_residuals(model, p, config.power_bound, level_primes))
    return {"models": models}


@_check("euler-product", 1e-9, n_max="euler_n_max", levels="euler_levels",
        chi_modulus="euler_chi_modulus")
def check_euler_product(config: SuiteConfig, fold: _Fold) -> dict:
    for level in config.euler_levels:
        for _, model in _models(config, level, euler_phi(level)):
            for chi in enumerate_characters(config.euler_chi_modulus):
                fold.add(euler_product_residual(model, chi, 2.5, config.euler_n_max))
    return {}


@_check("ramanujan-lemma", 1e-9, cstar_list="ramanujan_cstar", levels="ramanujan_levels",
        m_max="ramanujan_m_max", ell_max="ramanujan_ell_max")
def check_ramanujan_lemma(config: SuiteConfig, fold: _Fold) -> dict:
    bounds = config.ramanujan_levels, config.ramanujan_m_max, config.ramanujan_ell_max
    for cstar in config.ramanujan_cstar:
        fold.add(*ramanujan_lemma_sweep(cstar, *bounds))
    return {"cases": fold.cases}


def _identity_sweep(config: SuiteConfig, fold: _Fold, verify, per_model=lambda model: {}) -> dict:
    """Windowed identity sweep: model i of a level serves every (q, chi*)
    case, chi* the i-th primitive character mod cstar (cyclically); the
    keyword arguments per_model(model) go to each of its cases."""
    window = config.window_obj()
    for level in config.levels:
        pairs = [
            (q, cstar)
            for q in config.q_list
            for cstar in config.cstar_list
            if math.gcd(q * cstar, level) == 1
        ]
        for i, model in _models(config, level, config.seeds_per_case):
            kw = per_model(model)
            for q, cstar in pairs:
                prim = primitive_characters(cstar)
                fold.add(verify(model, q, prim[i % len(prim)], window, **kw))
    return {"runs": fold.cases}


# the fields that both identity sweeps echo
_SWEEP_FIELDS = dict(window="window", levels="levels", q_list="q_list", cstar_list="cstar_list",
                     seeds="seeds_per_case", seed="seed")


@_check("z-expansion", 1e-8, **_SWEEP_FIELDS)
def check_z_expansion(config: SuiteConfig, fold: _Fold) -> dict:
    return _identity_sweep(config, fold, verify_Z_expansion)


@_check("fe-rearrangement", 1e-8, **_SWEEP_FIELDS)
def check_fe_rearrangement(config: SuiteConfig, fold: _Fold) -> dict:
    # one contragredient per model, shared by all of its cases; the largest
    # ratio of an exactly zero weight, already folded into each residual
    zeros: list[float] = []
    params = _identity_sweep(
        config,
        fold,
        verify_fe_rearrangement,
        lambda model: {"dual": model.contragredient(), "zero_weights": zeros},
    )
    return {**params, "max_zero_weight": f"{worse(0.0, *zeros):.3e}"}


@_check("moebius-assembly", 1e-10, q_max="moebius_q_max", m_max="moebius_m_max",
        cstar_list="moebius_cstar", seed="seed")
def check_moebius_assembly(config: SuiteConfig, fold: _Fold) -> dict:
    _, p_max, q_max = config.window
    window = Window(1, p_max, q_max)
    model = new_model(1, seed=config.seed)
    for cstar in config.moebius_cstar:
        chi = primitive_characters(cstar)[0]
        for q in range(1, config.moebius_q_max + 1):
            for m in range(1, config.moebius_m_max + 1):
                fold.add(verify_moebius_assembly(model, q, m, chi, window))
    return {"runs": fold.cases}


@_check("orthogonality", 1e-9, c_max="orthogonality_c_max", n_max="orthogonality_n_max",
        seed="seed")
def check_orthogonality(config: SuiteConfig, fold: _Fold) -> dict:
    model = new_model(1, seed=config.seed)
    for c in range(1, config.orthogonality_c_max + 1):
        for q in (1, 3):
            fold.add(verify_orthogonality_equivalence(model, c, q, config.orthogonality_n_max))
    return {"runs": fold.cases}


BESSEL_GRID = tuple(
    (s, k, y)
    for s in (0.8, 1.0, 1.7)
    for k in (0, 1)
    for y in (1.0, -1.0, 2.5, -2.5)
    if not (k == 1 and s <= 1.0)
)


def check_bessel_identity(config: SuiteConfig) -> list[VerificationReport]:
    """The one check with two reports, each under its own tolerance."""
    grid = _Fold()
    for s, k, y in BESSEL_GRID:
        grid.add(fourier_bessel_identity_residual(s, k, y))
    grid_report = grid.report(config, "bessel-identity", {"grid_points": len(BESSEL_GRID)})
    spot = _Fold()
    spot.add(abs(fourier_bessel_lhs(1.0, 0, 1.0) - math.pi * math.exp(-2 * math.pi)))
    params = {"s": 1.0, "k": 0, "y": 1.0, "closed_form": "pi*exp(-2*pi)"}
    return [grid_report, spot.report(config, "bessel-identity-spot", params)]


CHECKS["bessel-identity"] = check_bessel_identity


@_check("gamma-unitarity", 1e-8, nu1="nu1", nu2="nu2")
def check_gamma_unitarity(config: SuiteConfig, fold: _Fold) -> dict:
    """|Xi(1/2 + it)| = 1 guards the conjugation symmetry of log Gamma, not its values."""
    g = GammaData(config.nu1, config.nu2)
    for chi in primitive_characters(5):
        tau = gauss_sum(chi)
        kappa = 0 if chi.parity == 1 else 1
        for t in (0.0, 1.0, 2.3):
            val = xi_factor(0.5 + 1j * t, g, kappa, tau, tau, 5)
            fold.add(abs(abs(val) - 1.0))
    return {"unitarity_applicable": True, "t_grid": "0,1,2.3", "chi_modulus": 5}


def check_fault_injection(config: SuiteConfig) -> list[VerificationReport]:
    """Deliberately injected faults; these reports are expected to FAIL.

    The Z expansion constrains the model's own coefficients, so a
    corrupted model must blow its residual.  The rearrangement identity
    is valid for arbitrary dual coefficients, so its probe corrupts the
    dual on one side only (verifier sensitivity, not identity failure).
    """
    window = config.window_obj()
    chi = primitive_characters(3)[0]
    model = new_model(1, seed=config.seed)
    z = _Fold()
    z.add(verify_Z_expansion(model.corrupted((1, 2), 1e-3), 1, chi, window))
    params = {"corruption": "A(1,2) += 1e-3", "expected": "fail"}
    z_probe = z.report(config, "z-expansion-fault-injected", params, "z-expansion")
    fe = _Fold()
    fe.add(fe_rearrangement_sensitivity(model, 1, chi, window, 1e-3))
    params = {"corruption": "one-sided dual A(1,2) += 1e-3", "expected": "fail"}
    return [z_probe, fe.report(config, "fe-rearrangement-sensitivity", params, "fe-rearrangement")]


def run_suite(config: SuiteConfig, names: list[str] | None = None) -> list[VerificationReport]:
    """Run the named checks (all by default); deterministic given seed.

    Individual check failures are recorded in their reports and never
    abort the suite: a check that raises gives one FAIL report under its
    name, with a NaN residual and the exception as its ``error``
    parameter, as does a check that evaluates no case; ``_Fold.report``
    forms it, as every report, from a fold made before the call.  The
    fault probes are not isolated, since they are meant to FAIL and a
    crash there must stay loud.  Reports come back sorted by check name.
    """
    config.validate()
    selected = sorted(names) if names else sorted(CHECKS)
    for name in selected:
        if name not in CHECKS:
            raise ValueError(f"unknown check {name!r}")
    reports: list[VerificationReport] = []
    for name in selected:
        fold = _Fold()  # folds nothing: it times and forms the report of a raise
        try:
            reports.extend(CHECKS[name](config))
        except Exception as exc:
            reports.append(fold.report(config, name, {"error": f"{type(exc).__name__}: {exc}"}))
    if config.fault_injection:
        reports.extend(check_fault_injection(config))
    return sorted(reports, key=lambda r: r.check_name)


def emit_report(
    reports: list[VerificationReport],
    fmt: str,
    path: str | None,
    seed: int = DEFAULT_SEED,
) -> str:
    """Serialize reports as JSON or text, write them to stdout and then to
    path, if one is given, and return them; a failed write to path raises
    OSError after stdout has them."""
    if fmt == "json":
        payload = {
            "suite_version": __version__,
            "seed": seed,
            "reports": [r.to_dict() for r in reports],
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif fmt == "text":
        text = "".join(r.text_line() + "\n" for r in reports)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    sys.stdout.write(text)
    if path:
        try:
            with open(path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise OSError(f"cannot write report to {path}: {exc}") from exc
    return text


# -- command line ------------------------------------------------------------


def _parse_int_list(text: str) -> tuple[int, ...]:
    if not text.strip():
        return ()
    return tuple(int(x) for x in text.split(","))


def _parse_window(text: str) -> tuple[int, int, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("window must be X:P:Q")
    return tuple(int(x) for x in parts)  # type: ignore[return-value]


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes"):
        return True
    if word in ("0", "false", "no"):
        return False
    raise ValueError(f"expected true/false, yes/no or 1/0, got {text!r}")


_PARSER_BY_TYPE = {
    tuple[int, int, int]: _parse_window,
    tuple[int, ...]: _parse_int_list,
    int: int,
    complex: complex,
    bool: _parse_bool,
    str | None: str,
}

# str -> value per SuiteConfig field; tolerances are set by tol.<check>
# keys and --tol instead
CONFIG_PARSERS = {
    name: _PARSER_BY_TYPE[kind] for name, kind in _FIELD_TYPES.items() if name != "tolerances"
}


def _text(name: str, value) -> str:
    """A field value in the syntax its parser reads."""
    if isinstance(value, tuple):
        return (":" if name == "window" else ",").join(map(str, value))
    return str(value)


def load_config_file(path: str) -> dict:
    """Flat key = value file: the keys are SuiteConfig field names, and
    tolerance overrides use 'tol.<check>' keys; a key may appear once.
    '#' starts a comment at the start of a line or after whitespace;
    elsewhere it is part of the value.  Errors name file:line."""
    overrides: dict = {}
    tolerances: dict[str, float] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            if "=" not in line:
                raise ValueError(f"{where}: expected key = value")
            key, value = (x.strip() for x in line.split("=", 1))
            if key.startswith("tol."):
                target, name, parse = tolerances, key[4:], float
                if name not in DEFAULT_TOLERANCES:
                    raise ValueError(f"{where}: no check named {name!r}")
            elif key in CONFIG_PARSERS:
                target, name, parse = overrides, key, CONFIG_PARSERS[key]
            else:
                hint = "; use tol.<check> keys" if key == "tolerances" else ""
                raise ValueError(f"{where}: unknown key {key!r}{hint}")
            if name in target:
                raise ValueError(f"{where}: duplicate key {key!r}")
            try:
                target[name] = parse(value)
            except ValueError as exc:
                raise ValueError(f"{where}: bad value for {key}: {exc}") from None
    if tolerances:
        overrides["tolerances"] = tolerances
    return overrides


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gl3voronoi",
        description="Verify the finite and special-function identities behind "
        "the twisted GL(3) summation formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    chars = sub.add_parser("chars", help="character utilities")
    chars_sub = chars.add_subparsers(dest="chars_command", required=True)
    chars_list = chars_sub.add_parser("list", help="list characters of a modulus")
    chars_list.add_argument("--modulus", type=int, required=True)
    chars_list.add_argument("--primitive-only", action="store_true")

    verify = sub.add_parser("verify", help="run verification checks")
    verify.add_argument(
        "check",
        help="check name or 'all'",
        choices=sorted(CHECKS) + ["all"],
    )
    verify.add_argument("--config", help="flat key = value config file")
    verify.add_argument("--tol", type=float, help="tolerance override for this check")
    verify.add_argument("--format", choices=("json", "text"), default="text")
    for name, parse in CONFIG_PARSERS.items():
        flag = "--" + name.replace("_", "-")
        if parse is _parse_bool:
            verify.add_argument(flag, action="store_true", default=None)
        else:
            default = _text(name, getattr(SuiteConfig, name))
            verify.add_argument(flag, type=parse, help=f"default {default}")
    return parser


def _config_from_args(args) -> SuiteConfig:
    overrides: dict = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    for name in CONFIG_PARSERS:
        value = getattr(args, name)
        if value is not None:
            overrides[name] = value
    if args.tol is not None:
        if args.check == "all":
            raise ValueError("--tol applies to a single named check")
        tols = dict(overrides.get("tolerances", {}))
        tols[args.check] = args.tol
        if args.check == "bessel-identity":
            tols.setdefault("bessel-identity-spot", args.tol)
        overrides["tolerances"] = tols
    return replace(SuiteConfig(), **overrides)


def _cmd_chars_list(args) -> int:
    if not 1 <= args.modulus <= CHARS_LIST_MAX_MODULUS:
        msg = f"--modulus must be >= 1 and <= {CHARS_LIST_MAX_MODULUS}, got {args.modulus}"
        print(f"error: {msg}", file=sys.stderr)
        return 2
    chars = primitive_characters if args.primitive_only else enumerate_characters
    for chi in chars(args.modulus):
        tags = []
        if chi.is_principal:
            tags.append("principal")
        if chi.is_primitive:
            tags.append("primitive")
        print(
            f"modulus={chi.modulus} exponents={list(chi.exponents)} "
            f"conductor={chi.conductor} parity={chi.parity:+d}"
            + (f"  [{', '.join(tags)}]" if tags else "")
        )
    return 0


def _cmd_verify(args) -> int:
    try:
        config = _config_from_args(args)
        config.validate()
        if config.output:
            try:
                open(config.output, "a").close()
            except OSError as exc:
                raise OSError(f"cannot write report to {config.output}: {exc}") from exc
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = None if args.check == "all" else [args.check]
    reports = run_suite(config, names)
    try:
        emit_report(reports, args.format, config.output, seed=config.seed)
    except OSError as exc:
        # a late failure (a full disk) that the up-front open cannot see
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a check must PASS and a fault probe (expected: fail) must FAIL
    ok = all(r.passed != (r.parameters.get("expected") == "fail") for r in reports)
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "chars":
        return _cmd_chars_list(args)
    return _cmd_verify(args)


if __name__ == "__main__":
    sys.exit(main())
