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

The package computes on one thread.  Importing it sets
OPENBLAS_NUM_THREADS=1, whatever its value was, before any submodule
imports numpy, since OpenBLAS reads the variable once, when numpy loads
it.  Otherwise OpenBLAS starts a worker thread per core, which spins
beside the serial checks for most of the run, and splits the complex
matmuls of the Kloosterman kernels by core count, so their last bits
would vary with the host.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.2.0"
