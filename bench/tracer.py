"""Tracer for the benchmark's traced run, installed from outside src/.

Wraps the public functions of each gl3voronoi module and rebinds the
wrapper everywhere the original is bound: in its own module, in every
module that imported it by name, in ``cli.CHECKS`` and, for methods, on
the class.  lru-cached functions keep their cache behind the wrapper;
hits and misses are read from ``cache_info()`` at the end.

Every timed call is a span.  A span's self time is its duration minus
the time covered by its child spans; work a wrapper does for its own
counters after the call is charged to neither side.  Spans at coarse
layer boundaries (checks, model construction, series operations,
identity verifiers, sweeps, kernels) are kept in memory with name,
start, end and parent.  Per-element functions run millions of times
(coefficient, factorize, character calls, Gauss-sum lookups), so their
spans are folded into per-function calls, total and self time instead
of being stored one by one.  ``dump`` writes all of it as JSON.
"""

from __future__ import annotations

import itertools
import json
import math
import time
import weakref
from collections import Counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.counts: Counter = Counter()
        self.stack: list[float] = []  # child-covered time of each open span
        self.records: list = []  # (name index, start, end, parent record)
        self.open_records: list[int] = []
        self.gauss_sum_table = None  # the lru-cached original
        self.coeff_keys_done = 0
        self.coeff_keys: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.build_g_keys: set = set()
        self.serials: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self.next_serial = itertools.count()
        self.checks: dict[str, str] = {}
        self.t_origin = time.perf_counter()

    # -- wrappers ------------------------------------------------------------

    def _slot(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def counted(self, fn, name: str):
        """Count calls only; the time stays with the calling span."""
        i = self._slot(name)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[i] += 1
            return fn(*args, **kwargs)

        return wrapper

    def timed(self, fn, name: str):
        """An aggregated span per call."""
        i = self._slot(name)
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self_time[i] += dt - stack.pop()
                total[i] += dt
                calls[i] += 1
                if stack:
                    stack[-1] += dt

        return wrapper

    def recorded(self, fn, name: str, after=None):
        """A span per call, kept as a record; after(args, kwargs, result) counts."""
        i = self._slot(name)
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self.stack
        records, open_records = self.records, self.open_records
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            r = len(records)
            records.append(None)
            parent = open_records[-1] if open_records else -1
            open_records.append(r)
            stack.append(0.0)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                dt = t1 - t0
                self_time[i] += dt - stack.pop()
                total[i] += dt
                calls[i] += 1
                records[r] = (i, t0, t1, parent)
                open_records.pop()
                if after is not None:
                    after(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - t0

        return wrapper

    # -- per-function counters -----------------------------------------------

    def _serial(self, obj) -> int:
        """A number per live object that, unlike id(), is never reused."""
        s = self.serials.get(obj)
        if s is None:
            s = self.serials[obj] = next(self.next_serial)
        return s

    def _coefficient(self, fn):
        """coefficient span that also counts distinct (model, m1, m2) keys."""
        i = self._slot("heckemodel.coefficient")
        calls, total, self_time, stack = self.calls, self.total, self.self_time, self.stack
        clock = time.perf_counter
        per_model = self.coeff_keys
        last = [None, None]

        def fold(keys: set) -> None:
            self.coeff_keys_done += len(keys)

        def wrapper(model, m1, m2):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(model, m1, m2)
            finally:
                dt = clock() - t0
                self_time[i] += dt - stack.pop()
                total[i] += dt
                calls[i] += 1
                if model is last[0]:
                    keys = last[1]
                else:
                    keys = per_model.get(model)
                    if keys is None:
                        keys = per_model[model] = set()
                        weakref.finalize(model, fold, keys)
                    last[0], last[1] = model, keys
                keys.add((m1, m2))
                if stack:
                    stack[-1] += clock() - t0

        return wrapper

    def _after_build_lseries(self, args, kwargs, result) -> None:
        if result is not None:
            self.counts["formal.build_lseries.terms"] += len(result.terms)

    def _after_series_mul(self, args, kwargs, result) -> None:
        a, b = args[0], args[1]
        self.counts["formal.series_mul.pairs"] += len(a.terms) * len(b.terms)
        if result is not None:
            self.counts["formal.series_mul.out_terms"] += len(result.terms)

    def _after_compare(self, args, kwargs, result) -> None:
        a, b = args[0].terms, args[1].terms
        self.counts["formal.compare.keys"] += len(a) + sum(1 for k in b if k not in a)

    def _after_build_g(self, args, kwargs, result) -> None:
        # keyed per (Q, l) of one case, the key a G cache would use; the
        # requested window varies with d2 and is left out
        q, ell, chi_star, model = args[:4]
        dual = args[5] if len(args) > 5 else kwargs.get("contragredient")
        key = (q, ell, chi_star, self._serial(model), dual and self._serial(dual))
        self.build_g_keys.add(key)

    def _after_kloosterman_matrix(self, args, kwargs, result) -> None:
        c = args[0]
        if c > 1:
            # (c x phi(c)) @ (phi(c) x c) complex product: 8 real flops per term
            phi = sum(1 for a in range(1, c + 1) if math.gcd(a, c) == 1)
            self.counts["expsums.kernel_flops_computed"] += 8 * c * c * phi

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        import gl3voronoi.arith as arith
        import gl3voronoi.characters as characters
        import gl3voronoi.cli as cli
        import gl3voronoi.expsums as expsums
        import gl3voronoi.formal as formal
        import gl3voronoi.heckemodel as heckemodel
        import gl3voronoi.identities as identities
        import gl3voronoi.special as special

        modules = (arith, characters, expsums, heckemodel, formal, identities, special, cli)

        def rebind(original, wrapper) -> None:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
            for name, value in list(cli.CHECKS.items()):
                if value is original:
                    cli.CHECKS[name] = wrapper

        def wrap(mod, attr, kind, name=None, after=None) -> None:
            original = getattr(mod, attr)
            name = name or f"{mod.__name__.rsplit('.', 1)[1]}.{attr}"
            if kind == "count":
                wrapper = self.counted(original, name)
            elif kind == "time":
                wrapper = self.timed(original, name)
            else:
                wrapper = self.recorded(original, name, after)
            rebind(original, wrapper)

        # cli: the suite root and one span per check function
        wrap(cli, "run_suite", "record")
        for check, fn in list(cli.CHECKS.items()):
            self.checks[check] = "cli." + fn.__name__
            wrap(cli, fn.__name__, "record")
        wrap(cli, "check_fault_injection", "record")

        # heckemodel
        wrap(heckemodel, "new_model", "record")
        wrap(heckemodel, "hecke_relation_residual_1", "time")
        wrap(heckemodel, "hecke_relation_residual_2", "time")
        wrap(heckemodel, "euler_product_residual", "time")
        model_cls = heckemodel.HeckeCoefficientModel
        model_cls.coefficient = self._coefficient(model_cls.coefficient)

        # characters
        chi_cls = characters.DirichletCharacter
        chi_cls.__call__ = self.timed(chi_cls.__call__, "characters.chi_call")
        chi_cls.angle = self.counted(chi_cls.angle, "characters.angle")
        chi_cls.values = self.timed(chi_cls.values, "characters.values")
        chi_cls.conductor = property(
            self.timed(chi_cls.conductor.fget, "characters.conductor")
        )
        self.gauss_sum_table = characters.gauss_sum_table
        wrap(characters, "gauss_sum_table", "time")
        wrap(characters, "gauss_sum", "time")
        wrap(characters, "_gauss_sum_any_modulus", "time")
        wrap(characters, "enumerate_characters", "time")
        wrap(characters, "multiply", "count")
        wrap(characters, "primitive_part", "count")

        # arith
        wrap(arith, "factorize", "time")
        wrap(arith, "divisors", "time")

        # expsums
        wrap(expsums, "kloosterman_matrix", "record", after=self._after_kloosterman_matrix)
        for fn in (
            "reality_symmetry_sweep",
            "weil_bound_sweep",
            "char_kloosterman_reduction_sweep",
            "additive_collapse_sweep",
        ):
            wrap(expsums, fn, "record")

        # formal
        wrap(formal, "build_lseries", "record", after=self._after_build_lseries)
        wrap(formal, "series_mul", "record", after=self._after_series_mul)
        wrap(formal, "compare", "record", after=self._after_compare)

        # identities
        wrap(identities, "build_G", "record", after=self._after_build_g)
        wrap(identities, "build_H", "time")
        for fn in (
            "verify_Z_expansion",
            "verify_fe_rearrangement",
            "fe_rearrangement_sensitivity",
            "verify_moebius_assembly",
            "verify_orthogonality_equivalence",
            "ramanujan_lemma_residual",
        ):
            wrap(identities, fn, "record")

        # special
        wrap(special, "_quad", "time", name="special.quad")
        wrap(special, "bessel_k", "time")
        wrap(special, "fourier_bessel_lhs", "time")
        wrap(special, "fourier_bessel_identity_residual", "time")
        wrap(special, "xi_factor", "time")

    # -- output ----------------------------------------------------------------

    def dump(self, path: str) -> None:
        live = sum(len(keys) for keys in self.coeff_keys.values())
        counts = dict(self.counts)
        counts["heckemodel.coefficient.distinct"] = self.coeff_keys_done + live
        counts["identities.build_G.distinct"] = len(self.build_g_keys)
        info = self.gauss_sum_table.cache_info()
        counts["characters.gauss_sum_table.hits"] = info.hits
        counts["characters.gauss_sum_table.misses"] = info.misses
        functions = {
            name: {
                "calls": self.calls[i],
                "total_s": self.total[i],
                "self_s": self.self_time[i],
            }
            for i, name in enumerate(self.names)
        }
        spans = [
            [self.names[i], t0 - self.t_origin, t1 - self.t_origin, parent]
            for i, t0, t1, parent in self.records
        ]
        payload = {
            "checks": self.checks,
            "functions": functions,
            "counts": counts,
            "spans": spans,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh)
