"""Invariants checked over generated inputs with Hypothesis: the LP recheck,
the implications between the hidden-variable properties, the completions'
guarantees, round trips through the model and verdict formats, Fine's
theorem for the membership LP, the CHSH inequalities on three measurements a
site, with I3322 the facets of that local polytope, the membership verdict
under relabelling, and the presolve against the full simplex."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import half_noise, outcome_of, unpresolved_feasible

from hvw import (
    EMPIRICAL_MODEL_PROPERTIES,
    ConstructionMethod,
    EmpiricalModel,
    HiddenVariableModel,
    PropertyId,
    Site,
    bell_model,
    check_lambda_independence,
    check_locality,
    check_non_contextuality,
    check_outcome_independence,
    check_parameter_independence,
    check_property,
    check_single_valuedness,
    check_strong_determinism,
    check_weak_determinism,
    construct,
    enumerate_deterministic_strategies,
    equivalent_models,
    feasible_point,
    generate_random_model,
    grid_sites,
    local_polytope_feasibility,
    parse_model,
    project_to_empirical,
    random_strategy_mixture,
    serialize_model,
    verify_farkas,
    verify_solution,
)
from hvw import local


@st.composite
def small_integer_systems(draw):
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 5))
    entry = st.integers(-3, 3).map(Fraction)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    rhs = draw(st.lists(entry, min_size=m, max_size=m))
    return rows, rhs


@settings(derandomize=True, deadline=None)
@given(small_integer_systems())
def test_every_lp_answer_passes_its_recheck(system):
    rows, rhs = system
    x, y = feasible_point(rows, rhs)
    if x is not None:
        assert y is None
        assert verify_solution(rows, rhs, x)
    else:
        assert verify_farkas(rows, rhs, y)


# ---------------------------------------------------------------------------
# The theorems the classification rests on, over generated hidden models

_SHAPES = ((1, 2, 2), (1, 3, 3), (2, 2, 2), (2, 3, 2), (2, 2, 3), (3, 2, 2))
_CODES = {
    "SV": check_single_valuedness,
    "LI": check_lambda_independence,
    "SD": check_strong_determinism,
    "WD": check_weak_determinism,
    "OI": check_outcome_independence,
    "PI": check_parameter_independence,
    "LOC": check_locality,
}
# What each completion guarantees.
_GUARANTEES = {
    ConstructionMethod.E1_STRONG_DETERMINISTIC: ("SD",),
    ConstructionMethod.E2_WEAK_DET_LAMBDA_INDEP: ("WD", "LI"),
    ConstructionMethod.SV_SINGLE_VALUED: ("SV", "LI"),
}


@st.composite
def hidden_models(draw):
    """A seeded random hidden model with 1-3 states, or a strategy mixture."""
    sites = grid_sites(*draw(st.sampled_from(_SHAPES)))
    seed = draw(st.integers(0, 10**6))
    states = draw(st.integers(0, 3))
    if states == 0:
        return random_strategy_mixture(seed, sites)
    return generate_random_model(seed, sites, lambda_size=states)


def _verdicts(model: HiddenVariableModel) -> dict[str, bool]:
    return {code: check(model).holds for code, check in _CODES.items()}


def _assert_theorems(v: dict[str, bool]) -> None:
    assert not v["SV"] or v["LI"]
    assert not v["SD"] or v["WD"]
    assert not v["SD"] or v["PI"]
    assert not v["WD"] or v["OI"]
    assert v["LOC"] == (v["PI"] and v["OI"])  # Jarrett
    assert not (v["WD"] and v["PI"]) or v["SD"]


@settings(derandomize=True, deadline=None, max_examples=150)
@given(hidden_models())
def test_implications_hold_on_models_and_their_completions(model):
    _assert_theorems(_verdicts(model))
    empirical = project_to_empirical(model)
    for method, guaranteed in _GUARANTEES.items():
        completion = construct(empirical, method)
        verdicts = _verdicts(completion)
        _assert_theorems(verdicts)
        assert all(verdicts[code] for code in guaranteed), (method, verdicts)
        assert equivalent_models(empirical, completion).holds
        assert equivalent_models(model, completion).holds


# ---------------------------------------------------------------------------
# Round trips through the model file format and the verdict dicts


@st.composite
def any_models(draw):
    """A seeded random empirical or hidden model (1-3 sites, 1-3 states), or
    an e1/e2/sv completion of a random empirical model."""
    sites = grid_sites(*draw(st.sampled_from(_SHAPES)))
    seed = draw(st.integers(0, 10**6))
    kind = draw(st.sampled_from(("empirical", "hidden", *ConstructionMethod)))
    if kind == "empirical":
        return generate_random_model(seed, sites)
    if kind == "hidden":
        return generate_random_model(seed, sites, lambda_size=draw(st.integers(1, 3)))
    return construct(generate_random_model(seed, sites), kind)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(any_models())
def test_models_and_verdicts_round_trip(model):
    text = serialize_model(model)
    parsed = parse_model(text)
    assert type(parsed) is type(model) and parsed == model
    assert serialize_model(parsed) == text
    hidden = isinstance(model, HiddenVariableModel)
    for prop in PropertyId if hidden else EMPIRICAL_MODEL_PROPERTIES:
        verdict = check_property(model, prop)
        assert type(verdict).from_dict(json.loads(json.dumps(verdict.to_dict()))) == verdict


# ---------------------------------------------------------------------------
# Fine's theorem as an oracle for the membership LP

_CHSH_SITES = grid_sites(2, 2, 2)
_SIGN = {"o1": 1, "o2": -1}


def _pr_box(context: tuple[str, str], outcome: tuple[str, str]) -> Fraction:
    x, y = (m == "M2" for m in context)
    a, b = (o == "o2" for o in outcome)
    return Fraction(1, 2) if (a != b) == (x and y) else Fraction(0)


def _mixture(pr: int, noise: int, strategies: list[tuple[int, int]]) -> EmpiricalModel:
    """pr parts of the PR box, noise parts of white noise and the given parts
    of deterministic strategies, with every context weighted 1/4."""
    total = pr + noise + sum(part for _, part in strategies)
    all_strategies = enumerate_deterministic_strategies(_CHSH_SITES)
    weights: dict = {}
    for context in itertools.product(("M1", "M2"), repeat=2):
        for outcome in itertools.product(("o1", "o2"), repeat=2):
            p = pr * _pr_box(context, outcome) + Fraction(noise, 4)
            for index, part in strategies:
                if outcome_of(all_strategies[index], _CHSH_SITES, context) == outcome:
                    p += part
            if p:
                weights[(outcome, context)] = p / (4 * total)
    return EmpiricalModel(_CHSH_SITES, weights)


def _chsh_holds(model: EmpiricalModel) -> bool:
    """All 8 CHSH inequalities: |sum of the four correlators, one negated| <= 2."""
    rows = model.context_distributions()
    correlator = {
        context: sum(_SIGN[a] * _SIGN[b] * p for (a, b), p in rows[context].items())
        for context in itertools.product(("M1", "M2"), repeat=2)
    }
    for negated in correlator:
        value = sum(-e if context == negated else e for context, e in correlator.items())
        if abs(value) > 2:
            return False
    return True


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.lists(st.tuples(st.integers(0, 15), st.integers(1, 8)), max_size=3),
)
@example(1, 0, [])  # the PR box: CHSH value 4
@example(1, 1, [])  # PR box and noise, 1/2 each: CHSH value exactly 2, local
@example(1001, 999, [])  # just over the boundary: CHSH value 2.004
@example(0, 0, [(5, 1)])  # one deterministic strategy
def test_membership_lp_agrees_with_fines_theorem(pr, noise, strategies):
    if pr + noise + len(strategies) == 0:
        pr = 1
    model = _mixture(pr, noise, strategies)
    assert check_non_contextuality(model).holds  # no signalling
    assert local_polytope_feasibility(model).feasible == _chsh_holds(model)


_SITES_232 = grid_sites(2, 3, 2)
_MEASUREMENTS_232 = _SITES_232[0].measurements
_STRATEGIES_232 = enumerate_deterministic_strategies(_SITES_232)
_CELLS_232 = [
    (outcome, context)
    for context in itertools.product(_MEASUREMENTS_232, repeat=2)
    for outcome in itertools.product(("o1", "o2"), repeat=2)
]


def _chsh_vectors() -> set[tuple[int, ...]]:
    """Every CHSH inequality on (2,3,2) as its coefficient vector c over
    `_CELLS_232`, with c.p <= 2 on every local table: a pair of measurements
    at each site, the one correlator of the four that is negated, and a
    sign."""
    vectors = set()
    for xs, ys in itertools.product(itertools.combinations(_MEASUREMENTS_232, 2), repeat=2):
        square = list(itertools.product(xs, ys))
        for negated, sign in itertools.product(square, (1, -1)):
            vectors.add(
                tuple(
                    sign * (-1 if context == negated else 1) * _SIGN[a] * _SIGN[b] if context in square else 0
                    for (a, b), context in _CELLS_232
                )
            )
    return vectors


_CHSH_232 = _chsh_vectors()


def _mixture_232(boxes: list[tuple[int, int]], noise: int, strategies: list[tuple[int, int]]) -> EmpiricalModel:
    """The given parts of boxes, noise parts of white noise and the given
    parts of deterministic strategies on (2,3,2), with every context
    weighted 1/9. Box f answers a xor b = f(x, y), uniformly, where
    f(M(i+1), M(k+1)) is bit 3i + k of f."""
    total = sum(part for _, part in boxes) + noise + sum(part for _, part in strategies)
    weights: dict = {}
    for (i, x), (k, y) in itertools.product(enumerate(_MEASUREMENTS_232), repeat=2):
        for outcome in itertools.product(("o1", "o2"), repeat=2):
            differ = outcome[0] != outcome[1]
            p = Fraction(noise, 4) + sum(Fraction(part, 2) for f, part in boxes if (f >> (3 * i + k)) & 1 == differ)
            for index, part in strategies:
                if outcome_of(_STRATEGIES_232[index], _SITES_232, (x, y)) == outcome:
                    p += part
            if p:
                weights[(outcome, (x, y))] = p / (9 * total)
    return EmpiricalModel(_SITES_232, weights)


def _table_232(model: EmpiricalModel) -> tuple[list[int], int]:
    """The table over `_CELLS_232` as ints over one denominator."""
    rows = model.context_distributions()
    table = [rows[context].get(outcome, Fraction(0)) for outcome, context in _CELLS_232]
    scale = math.lcm(*(p.denominator for p in table))
    return [p.numerator * (scale // p.denominator) for p in table], scale


def _violates_chsh_232(model: EmpiricalModel) -> bool:
    table, scale = _table_232(model)
    return any(sum(c * p for c, p in zip(vector, table)) > 2 * scale for vector in _CHSH_232)


def test_membership_lp_refuses_every_table_past_a_chsh_inequality_on_three_measurements(monkeypatch):
    """On (2,3,2) the CHSH inequalities are facets of the local polytope,
    though not its only ones (I3322 is another), so a violation must be
    infeasible and nothing is asserted of a table that violates none. Over no-signalling
    mixtures of boxes, noise and strategies, both verdicts are met, and every
    table with noise, which has no zero cell, reaches `feasible_point`."""
    assert len(_CHSH_232) == 72
    solve = local.feasible_point
    verdicts = Counter()

    def counted(*args):
        verdicts["simplex"] += 1
        return solve(*args)

    monkeypatch.setattr(local, "feasible_point", counted)

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.lists(st.tuples(st.integers(0, 511), st.integers(1, 8)), max_size=2),
        st.integers(0, 8),
        st.lists(st.tuples(st.integers(0, 63), st.integers(1, 8)), max_size=3),
    )
    @example([(16, 1)], 0, [])  # a PR box on M1, M2 at each site: CHSH value 4
    @example([(16, 1001)], 999, [])  # just over the boundary: CHSH value 2.002
    @example([], 1, [])  # white noise
    @example([], 0, [(5, 1)])  # one deterministic strategy
    def sweep(boxes, noise, strategies):
        if not (boxes or noise or strategies):
            noise = 1
        model = _mixture_232(boxes, noise, strategies)
        assert check_non_contextuality(model).holds  # no signalling
        runs = verdicts["simplex"]
        feasible = local_polytope_feasibility(model).feasible
        if noise:
            assert verdicts["simplex"] == runs + 1
        violated = _violates_chsh_232(model)
        if violated:
            assert not feasible
        verdicts[feasible, violated, noise > 0] += 1

    sweep()
    # Both verdicts are met, each on tables with noise, which the simplex answered.
    assert verdicts[False, True, True] >= 5 and verdicts[True, False, True] >= 20, verdicts


# I3322 in the Collins-Gisin form, with pA(x) and pB(y) the chance of o1 at
# each site and p(x, y) that of (o1, o1): sum J[x][y] p(x, y) + sum A[x] pA(x)
# + sum B[y] pB(y) <= 0 on every local table.
_I3322_JOINT = ((1, 1, 1), (1, 1, -1), (1, -1, 0))
_I3322_A = (-2, -1, 0)
_I3322_B = (-1, 0, 0)
# The box of `_mixture_232` whose outcomes differ exactly where J[x][y] < 1
# (bits 5, 7 and 8): I3322 = 1 on it.
_I3322_BOX = 416


def _i3322_vector(relabel) -> tuple[int, ...]:
    """I3322, times 3, as a coefficient vector c over `_CELLS_232` with
    c.p <= 0 on every local table, after `relabel` maps each cell (a, b, x,
    y), with a, b the indices of the outcomes and x, y of the measurements.
    A marginal is read as the mean over the other site's three measurements,
    hence the 3."""
    vector = []
    for (oa, ob), (mx, my) in _CELLS_232:
        a, b, x, y = relabel(oa == "o2", ob == "o2", _MEASUREMENTS_232.index(mx), _MEASUREMENTS_232.index(my))
        vector.append(3 * _I3322_JOINT[x][y] * (not a and not b) + _I3322_A[x] * (not a) + _I3322_B[y] * (not b))
    return tuple(vector)


# The cells that each deterministic strategy of (2,3,2) answers, by index.
_ANSWERS_232 = [
    [k for k, (outcome, context) in enumerate(_CELLS_232) if outcome_of(strategy, _SITES_232, context) == outcome]
    for strategy in _STRATEGIES_232
]


def _strategy_scores(vector: tuple[int, ...]) -> tuple[int, ...]:
    """c.p on the table of each deterministic strategy of (2,3,2)."""
    return tuple(sum(vector[k] for k in cells) for cells in _ANSWERS_232)


@functools.cache
def _i3322_vectors() -> tuple[tuple[int, ...], ...]:
    """Every relabelling of I3322: a permutation of each site's measurements,
    an outcome swap on any measurement and a swap of the sites. Two vectors
    that score every deterministic strategy alike agree on the affine hull of
    the local polytope, every no-signalling table, so only one is kept."""
    kept = {}
    orders = list(itertools.permutations(range(3)))
    swaps = list(itertools.product((False, True), repeat=3))
    for px, py, fx, fy, sites in itertools.product(orders, orders, swaps, swaps, (False, True)):

        def relabel(a, b, x, y):
            if sites:
                a, b, x, y = b, a, y, x
            return a ^ fx[x], b ^ fy[y], px[x], py[y]

        vector = _i3322_vector(relabel)
        kept.setdefault(_strategy_scores(vector), vector)
    return tuple(kept.values())


def test_membership_lp_agrees_with_the_facets_of_the_232_local_polytope():
    """A no-signalling (2,3,2) table is local exactly when every cell is >= 0
    and every relabelled CHSH and I3322 inequality holds (C. Śliwa, Phys.
    Lett. A 317, 165, 2003; D. Collins and N. Gisin, J. Phys. A 37, 1775,
    2004). That closed form shares no code with the LP, and the LP must give
    its verdict on every table of the sweep. The sweep meets both verdicts,
    and tables that only I3322 refuses: the uniform mixture of the 20
    strategies on which I3322 is tight, with ε of a box that scores 1."""
    vectors = _i3322_vectors()
    assert len(vectors) == 576
    assert all(max(_strategy_scores(vector)) == 0 for vector in vectors)
    base = _i3322_vector(lambda *cell: cell)
    tight = [j for j, score in enumerate(_strategy_scores(base)) if score == 0]
    assert len(tight) == 20
    box, scale = _table_232(_mixture_232([(_I3322_BOX, 1)], 0, []))
    assert sum(c * p for c, p in zip(base, box)) == 3 * scale
    verdicts = Counter()

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(
        st.lists(st.tuples(st.integers(0, 511), st.integers(1, 8)), max_size=2),
        st.integers(0, 8),
        st.lists(st.tuples(st.integers(0, 63), st.integers(1, 8)), max_size=3),
    )
    @example([(_I3322_BOX, 20)], 0, [(j, 9) for j in tight])  # ε = 1/10
    @example([(_I3322_BOX, 20)], 0, [(j, 49) for j in tight])  # ε = 1/50
    @example([(_I3322_BOX, 1)], 0, [])  # the box alone: I3322 = 1
    @example([(16, 1)], 0, [])  # a PR box: CHSH value 4
    @example([], 1, [])  # white noise
    def sweep(boxes, noise, strategies):
        if not (boxes or noise or strategies):
            noise = 1
        model = _mixture_232(boxes, noise, strategies)
        assert check_non_contextuality(model).holds  # no signalling
        table, _ = _table_232(model)
        chsh = not _violates_chsh_232(model)
        i3322 = all(sum(c * p for c, p in zip(vector, table)) <= 0 for vector in vectors)
        local = min(table) >= 0 and chsh and i3322
        assert local_polytope_feasibility(model).feasible == local
        verdicts[local] += 1
        verdicts["I3322 only"] += chsh and not i3322

    sweep()
    assert verdicts[True] >= 20 and verdicts[False] >= 5 and verdicts["I3322 only"] >= 2, verdicts


def _relabelled(model: EmpiricalModel, seed: int) -> EmpiricalModel:
    """The model with its sites in a seeded random order, each site's
    measurements permuted, and the outcomes of each (site, measurement)
    permuted: the same table under other names, local exactly when the
    model is."""
    rng = random.Random(seed)
    order = rng.sample(range(model.n_sites), model.n_sites)
    measurement = [dict(zip(site.measurements, rng.sample(site.measurements, len(site.measurements)))) for site in model.sites]
    outcome = [
        {m: dict(zip(site.outcomes, rng.sample(site.outcomes, len(site.outcomes)))) for m in site.measurements}
        for site in model.sites
    ]
    weights = {
        (tuple(outcome[i][c[i]][o[i]] for i in order), tuple(measurement[i][c[i]] for i in order)): p
        for (o, c), p in model.weights.items()
    }
    return EmpiricalModel(tuple(model.sites[i] for i in order), weights)


def _i3322_tight_box() -> EmpiricalModel:
    """The uniform mixture of the 20 strategies on which I3322 is tight, with
    1/10 of a box that scores 1: refused by I3322 alone."""
    base = _i3322_vector(lambda *cell: cell)
    tight = [j for j, score in enumerate(_strategy_scores(base)) if score == 0]
    return _mixture_232([(_I3322_BOX, 20)], 0, [(j, 9) for j in tight])


# Sites whose measurement and outcome counts differ from site to site.
_UNEVEN_SITES = (Site("a", ("A", "B"), ("0", "1", "2")), Site("b", ("C", "D", "E"), ("x", "y")))
_RELABEL_SITES = st.sampled_from((grid_sites(2, 2, 2), grid_sites(3, 2, 2), grid_sites(2, 2, 3), _UNEVEN_SITES))
_SEEDS = st.integers(0, 10_000)
_RELABEL_TABLES = st.one_of(
    st.builds(
        _mixture_232,
        st.lists(st.tuples(st.integers(0, 511), st.integers(1, 8)), min_size=1, max_size=2),
        st.integers(0, 8),
        st.lists(st.tuples(st.integers(0, 63), st.integers(1, 8)), max_size=3),
    ),
    st.builds(lambda seed, sites: project_to_empirical(random_strategy_mixture(seed, sites)), _SEEDS, _RELABEL_SITES),
    st.builds(lambda seed, sites: half_noise(project_to_empirical(random_strategy_mixture(seed, sites))), _SEEDS, _RELABEL_SITES),
    st.builds(generate_random_model, _SEEDS, _RELABEL_SITES),
)


def test_the_membership_verdict_survives_relabelling():
    """Permuting the sites, each site's measurements and the outcomes of
    each (site, measurement) renames the table and leaves it as local as it
    was: the verdict stays. The tables are CHSH mixtures of boxes, noise
    and strategies on (2,3,2), strategy mixtures with and without half
    noise, and seeded random tables, which signal; both verdicts are met."""
    verdicts = Counter()

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(_RELABEL_TABLES, _SEEDS)
    @example(bell_model(), 0)
    @example(half_noise(project_to_empirical(random_strategy_mixture(0, grid_sites(2, 3, 2)))), 0)
    @example(_i3322_tight_box(), 0)
    def sweep(model, seed):
        feasible = local_polytope_feasibility(model).feasible
        assert local_polytope_feasibility(_relabelled(model, seed)).feasible == feasible
        verdicts[feasible] += 1

    sweep()
    assert verdicts[True] >= 50 and verdicts[False] >= 50, verdicts


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    st.integers(0, 8),
    st.integers(0, 8),
    st.lists(st.tuples(st.integers(0, 15), st.integers(1, 8)), max_size=3),
    st.sampled_from(((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3))),
    st.integers(0, 10_000),
)
def test_presolved_membership_matches_the_full_simplex(pr, noise, strategies, shape, seed):
    """The presolve answers as the simplex on the unpresolved system does: on
    a no-signalling CHSH mixture, a seeded table and a strategy mixture."""
    if pr + noise + len(strategies) == 0:
        pr = 1
    sites = grid_sites(*shape)
    models = (
        _mixture(pr, noise, strategies),
        generate_random_model(seed, sites),
        project_to_empirical(random_strategy_mixture(seed, sites)),
    )
    for model in models:
        assert local_polytope_feasibility(model).feasible == unpresolved_feasible(model)
