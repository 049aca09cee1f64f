"""Loaded by pytest before any test module: importing gl3voronoi here pins
OpenBLAS to one thread before a test module's own numpy import loads it,
so a test file run alone computes as the package does."""

import gl3voronoi  # noqa: F401
