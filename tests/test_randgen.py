"""Random model generator: determinism, exactness, denominator discipline."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from fractions import Fraction
from typing import Sequence

import pytest

from hvw import (
    EmpiricalModel,
    HiddenVariableModel,
    InputError,
    Site,
    SizeGuardError,
    generate_random_model,
    grid_sites,
    serialize_model,
)
from hvw.errors import check_positive_int, check_size
from hvw.models import DEFAULT_GUARD, _BaseModel, site_tuple
from hvw.randgen import _CELL_TOTALS, _MAX_CONTEXT_MASS

# The corpus shapes, two larger grids, and sites of 2, 3 and 4 outcomes.
PINNED_SITES = (
    *(
        grid_sites(*shape)
        for shape in (
            (1, 1, 2), (1, 3, 3), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2),
            (3, 4, 2), (4, 4, 2),
        )
    ),
    (Site("a", ("x", "y"), ("0", "1")), Site("b", ("u",), ("p", "q", "r")), Site("c", ("v", "w", "z"), ("+", "-", "0", "1"))),
)
# sha256 over the serialized models of seeds 0-49, for each of PINNED_SITES
# with lambda_size None, 1 and 3, recorded from the generator that built
# every weight as a Fraction and handed the table to the public constructor.
PINNED_DIGEST = "0c95154bdc7a41d58ed9b065454a3107470b5fd6e16dcb31348990dd6642e5b5"


def _fraction_reference(
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


def test_grid_sites_shape():
    sites = grid_sites(2, 3, 2)
    assert [s.name for s in sites] == ["s1", "s2"]
    assert sites[0].measurements == ("M1", "M2", "M3")
    assert sites[1].outcomes == ("o1", "o2")


def test_grid_sites_rejects_bad_counts():
    with pytest.raises(InputError):
        grid_sites(0, 1, 2)
    with pytest.raises(InputError):
        grid_sites(1, 0, 2)
    with pytest.raises(InputError):
        grid_sites(1, 1, 0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: grid_sites("a", 1, 1), "the site count must be a positive int, not 'a'"),
        (lambda: grid_sites(2.5, 1, 1), "the site count must be a positive int, not 2.5"),
        (lambda: grid_sites(True, 1, 1), "the site count must be a positive int, not True"),
        (lambda: grid_sites(1, None, 1), "the measurement count must be a positive int, not None"),
        (lambda: grid_sites(1, 1, -2), "the outcome count must be a positive int, not -2"),
        (lambda: generate_random_model(0, grid_sites(2, 2, 2), lambda_size="x"), "lambda_size must be a positive int, not 'x'"),
        (lambda: generate_random_model(0, grid_sites(2, 2, 2), lambda_size=1.5), "lambda_size must be a positive int, not 1.5"),
        (lambda: generate_random_model(0, grid_sites(2, 2, 2), lambda_size=False), "lambda_size must be a positive int, not False"),
        (lambda: generate_random_model(0, grid_sites(2, 2, 2), lambda_size=0), "lambda_size must be a positive int, not 0"),
    ],
)
def test_shape_counts_and_lambda_size_are_positive_ints(call, message):
    """The guard's rule, `errors.check_positive_int`, checks every count."""
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


def test_same_seed_same_bytes():
    sites = grid_sites(2, 2, 2)
    first = serialize_model(generate_random_model(5, sites, lambda_size=2))
    second = serialize_model(generate_random_model(5, sites, lambda_size=2))
    assert first == second


def test_different_seeds_differ():
    sites = grid_sites(2, 2, 2)
    seen = {serialize_model(generate_random_model(seed, sites)) for seed in range(1, 11)}
    assert len(seen) == 10


def test_weights_sum_to_one_exactly():
    for seed in range(30):
        model = generate_random_model(seed, grid_sites(2, 3, 3))
        assert sum(model.weights.values(), Fraction(0)) == 1


def test_lambda_size_controls_model_kind():
    sites = grid_sites(1, 2, 2)
    empirical = generate_random_model(0, sites)
    hidden = generate_random_model(0, sites, lambda_size=3)
    assert isinstance(empirical, EmpiricalModel)
    assert isinstance(hidden, HiddenVariableModel)
    assert hidden.lambda_set == ("l0", "l1", "l2")


def test_conditional_denominators_stay_small():
    """Conditional denominators divide one of the supported cell totals."""
    for seed in range(30):
        model = generate_random_model(seed, grid_sites(2, 2, 3), lambda_size=2)
        for context in model.context_weights():
            denominators = [
                p.denominator for p in model.outcome_distribution(context).values()
            ]
            assert math.lcm(*denominators) <= 12


def test_at_least_one_context_is_non_null():
    for seed in range(20):
        model = generate_random_model(seed, grid_sites(1, 3, 2))
        assert model.context_weights()


def test_guard_on_oversized_tables():
    with pytest.raises(SizeGuardError):
        generate_random_model(0, grid_sites(4, 6, 6), guard=10_000)


def test_at_least_one_site_is_required():
    with pytest.raises(InputError, match="^at least one site is required$"):
        generate_random_model(0, ())


def test_lambda_size_must_be_positive():
    with pytest.raises(InputError):
        generate_random_model(0, grid_sites(1, 1, 2), lambda_size=0)


def test_the_generator_keeps_its_bytes():
    """Every model of seeds 0-49 over PINNED_SITES serializes to the bytes
    recorded before the generator built its int table directly."""
    digest = hashlib.sha256()
    for sites in PINNED_SITES:
        for lambda_size in (None, 1, 3):
            for seed in range(50):
                digest.update(serialize_model(generate_random_model(seed, sites, lambda_size)).encode())
    assert digest.hexdigest() == PINNED_DIGEST


def test_the_int_table_matches_the_fraction_reference():
    """The stored table, key order included, and its denominator equal those
    the constructor made from the Fraction weights, null contexts too."""
    null_contexts = 0
    for sites in PINNED_SITES:
        n_contexts = math.prod(len(site.measurements) for site in sites)
        for lambda_size in (None, 1, 2, 3):
            for seed in range(10):
                model = generate_random_model(seed, sites, lambda_size)
                reference = _fraction_reference(seed, sites, lambda_size)
                assert type(model) is type(reference)
                assert list(model._weights.items()) == list(reference._weights.items())
                assert model._denominator == reference._denominator
                assert getattr(model, "lambda_set", None) == getattr(reference, "lambda_set", None)
                null_contexts += len(model.context_weights()) < n_contexts
    assert null_contexts >= 300, null_contexts


def _two_sites_named_a():
    return [Site("a", ("m",), ("0", "1")), Site("a", tuple("pqrstuvw"), tuple("0123456789"))]


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: generate_random_model(0, [grid_sites(1, 1, 2)[0], "x"]), InputError, "expected a Site, got 'x'"),
        (lambda: generate_random_model(0, []), InputError, "at least one site is required"),
        (lambda: generate_random_model(0, _two_sites_named_a()), InputError, "duplicate site names: ['a', 'a']"),
        (
            lambda: generate_random_model(0, grid_sites(1, 1, 2), lambda_size=0),
            InputError,
            "lambda_size must be a positive int, not 0",
        ),
        (
            lambda: generate_random_model(0, grid_sites(4, 6, 6), guard=10_000),
            SizeGuardError,
            "random model weight table would enumerate 1679616 items, over the guard of 10000",
        ),
        (
            lambda: generate_random_model(0, _two_sites_named_a(), guard=100),
            SizeGuardError,
            "random model weight table would enumerate 160 items, over the guard of 100",
        ),
    ],
    ids=["not-a-site", "no-sites", "duplicate-names", "lambda-size-0", "over-guard", "duplicate-names-over-guard"],
)
def test_validation_keeps_its_errors(call, kind, message):
    """Each fault raises the type and message it did when the constructor
    checked every weight; with two faults the guard still wins."""
    with pytest.raises(kind) as exc:
        call()
    assert type(exc.value) is kind
    assert str(exc.value) == message


def test_the_generator_ranks_at_most_one_key(monkeypatch):
    """The generated table is keyed from the sites' own labels, so at most
    one key (the one-weight model that checks the sites) goes through the
    constructor's key rule."""
    calls = []
    ranked_key = _BaseModel._ranked_key

    def counted(self, key, rank):
        calls.append(key)
        return ranked_key(self, key, rank)

    monkeypatch.setattr(_BaseModel, "_ranked_key", counted)
    model = generate_random_model(0, grid_sites(4, 4, 2))
    assert len(model._weights) > 1_000
    assert len(calls) <= 1
