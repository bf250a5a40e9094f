"""Reproducible random-number streams for path ensembles.

Splitting rule (shared by every Monte Carlo op in the package): the root
seed is fed to ``numpy.random.SeedSequence`` and path ``k`` of an ensemble
of ``n`` draws its generator from ``SeedSequence(root).spawn(n)[k]``.
Paths are therefore statistically independent, and a (root seed, n, k)
triple always reproduces the same path regardless of how many paths run
or in what order.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 20260809


def spawn_rngs(root_seed, n):
    """Independent generators for an ensemble of ``n`` paths."""
    children = np.random.SeedSequence(root_seed).spawn(n)
    return [np.random.default_rng(c) for c in children]


def standard_error(samples):
    """Standard error of the mean of a path ensemble (0 for one path)."""
    return float(np.std(samples, ddof=1) / np.sqrt(len(samples))) if len(samples) > 1 else 0.0
