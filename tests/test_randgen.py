"""Random model generator: determinism, exactness, denominator discipline."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from hvw import (
    EmpiricalModel,
    HiddenVariableModel,
    InputError,
    SizeGuardError,
    generate_random_model,
    grid_sites,
    serialize_model,
)


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
