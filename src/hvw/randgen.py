"""Seeded random models with small exact weights.

Weights are built from integer counts: each context draws an integer mass, and
each non-null context splits a shared small total T over its (outcome tuple[,
hidden state]) cells. Every conditional probability therefore has denominator
dividing T, which keeps downstream constructions (least common multiples of
conditional denominators) desk-sized. The same seed and shape always produce
the same model, byte for byte.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

from .errors import InputError, check_positive_int, check_size
from .models import DEFAULT_GUARD, EmpiricalModel, HiddenVariableModel, Site, site_tuple

_CELL_TOTALS = (4, 6, 8, 12)
_MAX_CONTEXT_MASS = 4


def grid_sites(n_sites: int, n_measurements: int, n_outcomes: int) -> tuple[Site, ...]:
    """Homogeneous sites s1..sn sharing measurement and outcome labels."""
    for what, count in (("site", n_sites), ("measurement", n_measurements), ("outcome", n_outcomes)):
        check_positive_int(f"the {what} count", count)
    measurements = tuple(f"M{i + 1}" for i in range(n_measurements))
    outcomes = tuple(f"o{i + 1}" for i in range(n_outcomes))
    return tuple(Site(f"s{i + 1}", measurements, outcomes) for i in range(n_sites))


def generate_random_model(
    seed: int,
    sites: Sequence[Site],
    lambda_size: int | None = None,
    guard: int = DEFAULT_GUARD,
) -> EmpiricalModel | HiddenVariableModel:
    """Deterministic random model for a given seed and site shape.

    With `lambda_size=None` the result is an empirical model; otherwise a
    hidden-variable model over that many hidden states. Some contexts may be
    null; weights are exact rationals summing to 1.
    """
    sites = site_tuple(sites, "generate_random_model")
    if not sites:
        raise InputError("at least one site is required")
    if lambda_size is not None:
        check_positive_int("lambda_size", lambda_size)
    n_contexts = math.prod(len(site.measurements) for site in sites)
    n_cells = math.prod(len(site.outcomes) for site in sites) * (lambda_size or 1)
    check_size("random model weight table", n_contexts * n_cells, guard)

    rng = random.Random(seed)
    cell_total = rng.choice(_CELL_TOTALS)
    contexts = list(itertools.product(*(site.measurements for site in sites)))
    masses = [rng.randint(0, _MAX_CONTEXT_MASS) for _ in contexts]
    if not any(masses):
        masses[0] = 1
    total_mass = sum(masses)

    hidden = None if lambda_size is None else tuple(f"l{i}" for i in range(lambda_size))
    # A cell is an outcome tuple and the hidden state its key ends with, if any.
    states = [()] if hidden is None else [(lam,) for lam in hidden]
    cells = list(itertools.product(itertools.product(*(site.outcomes for site in sites)), states))

    weights: dict = {}
    for context, mass in zip(contexts, masses):
        if mass == 0:
            continue
        alloc = [0] * len(cells)
        for _ in range(cell_total):
            alloc[rng.randrange(len(cells))] += 1
        context_weight = Fraction(mass, total_mass)
        for (outcome, state), count in zip(cells, alloc):
            if count:
                weights[(outcome, context, *state)] = context_weight * Fraction(count, cell_total)

    if hidden is None:
        return EmpiricalModel(sites, weights)
    return HiddenVariableModel(sites, hidden, weights)
