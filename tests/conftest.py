"""Shared fixtures: small models, the two polytope controls, a CLI runner,
a dense reference for the membership system, and the half-noise blend."""

from __future__ import annotations

import contextlib
import io
from fractions import Fraction

import pytest

from hvw import (
    EmpiricalModel,
    HiddenVariableModel,
    Site,
    bell_model,
    enumerate_deterministic_strategies,
    epr_model,
    feasible_point,
    generate_random_model,
    grid_sites,
    project_to_empirical,
    random_strategy_mixture,
)
from hvw.cli import main


def fr(text: str) -> Fraction:
    return Fraction(text)


@pytest.fixture
def cli():
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""

    def run(*args: str) -> tuple[int, str, str]:
        out = io.StringIO()
        err = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(args))
        return code, out.getvalue(), err.getvalue()

    return run


def outcome_of(strategy: tuple[tuple[str, ...], ...], sites, context) -> tuple[str, ...]:
    """The outcome tuple that an enumerated strategy, `strategy[i][k]` the
    answer to measurement k of site i, gives in `context`."""
    return tuple(responses[site.measurements.index(m)] for responses, site, m in zip(strategy, sites, context))


def full_membership_system(model: EmpiricalModel) -> tuple[list[list[int]], list[Fraction]]:
    """The membership system over every strategy, before any presolve, as
    the dense 0/1 int rows and the b that `feasible_point`, `verify_solution`
    and `verify_farkas` read. Built here from the public pieces, apart from
    the code under test: one row per non-null context (in canonical order)
    and outcome tuple, with a 1 where the enumerated strategy answers that
    outcome (`outcome_of`) and b its `context_distributions()` entry; then
    the normalization row."""
    strategies = enumerate_deterministic_strategies(model.sites)
    distributions = model.context_distributions()
    rows = []
    rhs = []
    for context in sorted(distributions, key=model.context_sort_key):
        answers = [outcome_of(strategy, model.sites, context) for strategy in strategies]
        for outcome in model.outcome_tuples():
            rows.append([int(answer == outcome) for answer in answers])
            rhs.append(distributions[context].get(outcome, Fraction(0)))
    rows.append([1] * len(strategies))
    rhs.append(Fraction(1))
    return rows, rhs


def kept_membership_system(model: EmpiricalModel) -> tuple[list[int], list[list[int]], list[Fraction]]:
    """The reference system restricted as the presolve restricts it: the
    strategies whose column has a 1 in no row with b = 0, in order, and the
    rows with b != 0 over those strategies alone, with their b."""
    rows, rhs = full_membership_system(model)
    zero = [row for row, bi in zip(rows, rhs) if not bi]
    kept = [j for j in range(len(rows[0])) if not any(row[j] for row in zero)]
    live = [([row[j] for j in kept], bi) for row, bi in zip(rows, rhs) if bi]
    return kept, [row for row, _ in live], [bi for _, bi in live]


def half_noise(model: EmpiricalModel) -> EmpiricalModel:
    """Half the model and half the uniform table on the same contexts: every
    cell of a non-null context is positive, so no strategy is dropped."""
    outcomes = list(model.outcome_tuples())
    weights = {}
    for context, mass in model.context_weights().items():
        row = model.outcome_distribution(context)
        for outcome in outcomes:
            weights[(outcome, context)] = mass * (row.get(outcome, 0) + Fraction(1, len(outcomes))) / 2
    return EmpiricalModel(model.sites, weights)


def unpresolved_feasible(model: EmpiricalModel) -> bool:
    """The simplex's verdict on the full membership system."""
    return feasible_point(*full_membership_system(model))[0] is not None


def two_site_sites() -> tuple[Site, Site]:
    return (
        Site("X", ("M1", "M2"), ("0", "1")),
        Site("Y", ("M1", "M2"), ("0", "1")),
    )


@pytest.fixture
def uniform_quarter() -> EmpiricalModel:
    """Bell-shaped model with every conditional equal to 1/4.

    This is the behavior of two independent fair coins, so it must be inside
    the deterministic-mixture polytope.
    """
    sites = bell_model().sites
    weights = {}
    for i in "123":
        for j in "123":
            for a in "+-":
                for b in "+-":
                    weights[((a, b), (i, j))] = Fraction(1, 36)
    return EmpiricalModel(sites, weights)


@pytest.fixture
def all_pairs_anticorrelation() -> EmpiricalModel:
    """Bell-shaped model that anti-correlates on every context pair.

    Realized by flipping one coin to decide which site answers + everywhere,
    so it must be inside the deterministic-mixture polytope.
    """
    sites = bell_model().sites
    weights = {}
    for i in "123":
        for j in "123":
            weights[(("+", "-"), (i, j))] = Fraction(1, 18)
            weights[(("-", "+"), (i, j))] = Fraction(1, 18)
    return EmpiricalModel(sites, weights)


def point_mass_model() -> EmpiricalModel:
    """Single context, single certain outcome."""
    sites = (Site("X", ("M",), ("u", "v")), Site("Y", ("N",), ("u", "v")))
    return EmpiricalModel(sites, {(("u", "v"), ("M", "N")): Fraction(1)})


def uniform_one_site(k: int) -> EmpiricalModel:
    """One site, one measurement, k equally likely outcomes: every cell is
    positive, and each strategy alone answers its outcome's row."""
    site = Site("X", ("M",), tuple(f"o{i}" for i in range(k)))
    return EmpiricalModel((site,), {((outcome,), ("M",)): Fraction(1, k) for outcome in site.outcomes})


def small_membership_sweep() -> list[EmpiricalModel]:
    """Bell, EPR, then seeds 0-11 of a random table and a projected
    strategy mixture on six shapes: 146 models."""
    models = [bell_model(), epr_model()]
    for shape in ((1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (1, 3, 3)):
        sites = grid_sites(*shape)
        for seed in range(12):
            models += [generate_random_model(seed, sites), project_to_empirical(random_strategy_mixture(seed, sites))]
    return models


def mixture_membership_sweep() -> list[EmpiricalModel]:
    """Seeds 0-149 of projected strategy mixtures on eight shapes, then the
    uniform one-site tables over k outcomes: 1,206 models."""
    models = [
        project_to_empirical(random_strategy_mixture(seed, grid_sites(*shape)))
        for shape in ((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 4, 2), (3, 3, 2), (2, 2, 3), (1, 3, 3), (4, 2, 2))
        for seed in range(150)
    ]
    return models + [uniform_one_site(k) for k in (1, 2, 3, 7, 50, 500)]


def single_site_third_model() -> EmpiricalModel:
    """One site, one measurement, outcome weights 1/3 and 2/3."""
    site = Site("X", ("A",), ("a1", "a2"))
    return EmpiricalModel(
        (site,), {(("a1",), ("A",)): Fraction(1, 3), (("a2",), ("A",)): Fraction(2, 3)}
    )


def pi_violating_hvm() -> HiddenVariableModel:
    """Two sites, one hidden state; X's marginal shifts with Y's setting."""
    sites = (Site("X", ("M",), ("0", "1")), Site("Y", ("N1", "N2"), ("0", "1")))
    weights = {
        (("0", "0"), ("M", "N1"), "l"): Fraction(1, 2),
        (("0", "0"), ("M", "N2"), "l"): Fraction(1, 4),
        (("1", "0"), ("M", "N2"), "l"): Fraction(1, 4),
    }
    return HiddenVariableModel(sites, ("l",), weights)
