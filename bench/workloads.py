"""The benchmark's workloads: what one child process runs.

Each workload enters the verifier only through its public entry points:
``cli.main`` (exactly what ``gl3voronoi verify ...`` runs) or
``cli.run_suite`` with a ``SuiteConfig``.  The workload seed is
``SuiteConfig.seed``; every other input is fixed here.

The full sizes are smaller than the defaults so that one child takes a
few seconds and a run measures several children (see README.md,
Budget).  ``tiny`` holds SuiteConfig overrides that shrink a workload to a
seconds-long run with the same checks and report names; the self-test
uses it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # None: the command line's `verify all`; otherwise cli.run_suite(names)
    checks: tuple[str, ...] | None
    overrides: dict = field(default_factory=dict)
    tiny: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="suite-default",
            why="`gl3voronoi verify all` at a reduced config: what users run, all 13 checks "
            "and every layer, led by character angles and Gauss-sum tables, then coefficient "
            "and factorize",
            checks=None,
            overrides={
                "window": (48, 24, 24),
                "q_list": (1, 2, 3),
                "seeds_per_case": 1,
                "trials": 3,
                "collapse_c_max": 20,
                "kloosterman_c_max": 100,
                "ramanujan_ell_max": 20,
                "moebius_m_max": 4,
            },
            tiny={
                "window": (48, 12, 12),
                "levels": (1,),
                "hecke_levels": (1, 2),
                "q_list": (1, 2),
                "cstar_list": (3,),
                "seeds_per_case": 1,
                "c_max": 10,
                "m2_max": 4,
                "collapse_c_max": 10,
                "kloosterman_c_max": 30,
                "gauss_c_max": 12,
                "trials": 2,
                "euler_n_max": 50,
                "ramanujan_m_max": 6,
                "ramanujan_ell_max": 8,
                "moebius_q_max": 2,
                "moebius_m_max": 3,
                "orthogonality_c_max": 4,
                "orthogonality_n_max": 6,
            },
        ),
        Workload(
            name="identity-window",
            why="double-series identities at window 288:64:64 plus both fault probes: "
            "large per-model working set, stresses formal, build_G and row builds",
            checks=("z-expansion", "fe-rearrangement", "moebius-assembly"),
            overrides={
                "window": (288, 64, 64),
                "levels": (1,),
                "q_list": (1, 6),
                "cstar_list": (3, 4),
                "seeds_per_case": 1,
                "moebius_q_max": 3,
                "moebius_m_max": 6,
                "fault_injection": True,
            },
            tiny={
                "window": (36, 32, 32),
                "levels": (1,),
                "q_list": (1, 2),
                "cstar_list": (3, 4),
                "seeds_per_case": 1,
                "moebius_q_max": 2,
                "moebius_m_max": 3,
                "fault_injection": True,
            },
        ),
        Workload(
            name="moduli-sweep",
            why="many distinct moduli: cold Gauss-sum tables, character algebra and "
            "numpy Kloosterman kernels, with almost no coefficients or series",
            checks=(
                "gauss-modulus",
                "kloosterman-basic",
                "kloosterman-reduction",
                "additive-collapse",
                "ramanujan-lemma",
                "orthogonality",
            ),
            overrides={
                "gauss_c_max": 60,
                "kloosterman_c_max": 200,
                "c_max": 40,
                "collapse_c_max": 24,
                "ramanujan_ell_max": 30,
                "orthogonality_c_max": 16,
            },
            tiny={
                "gauss_c_max": 20,
                "kloosterman_c_max": 40,
                "c_max": 10,
                "m2_max": 4,
                "collapse_c_max": 12,
                "ramanujan_m_max": 6,
                "ramanujan_ell_max": 8,
                "orthogonality_c_max": 6,
            },
        ),
    )
}


def config_lines(overrides: dict) -> str:
    """SuiteConfig overrides in the flat `key = value` config-file syntax."""
    lines = []
    for key, value in overrides.items():
        if key == "window":
            text = ":".join(map(str, value))
        elif isinstance(value, tuple):
            text = ",".join(map(str, value))
        else:
            text = str(value)
        lines.append(f"{key} = {text}\n")
    return "".join(lines)
