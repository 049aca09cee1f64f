"""Arithmetic verification suite for twisted GL(3) summation formulas.

Submodules:

- ``arith``       exact integer utilities (factorization, divisors, Moebius,
                  modular inverses, unit-group structure)
- ``characters``  Dirichlet characters, conductors, Gauss sums
- ``expsums``     Kloosterman sums, character-average collapses
- ``heckemodel``  relation-satisfying GL(3) coefficient families
- ``formal``      sparse exact algebra of double Dirichlet monomials
- ``identities``  per-identity builders and residual verifiers
- ``special``     log-gamma, K-Bessel, gamma-factor evaluators
- ``cli``         verification harness, reports, command line entry point
"""

__version__ = "0.1.0"
