"""No-go verifiers: canonical models, both impossibility routes per argument."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    fr,
    full_membership_system,
    half_noise,
    kept_membership_system,
    mixture_membership_sweep,
    outcome_of,
    small_membership_sweep,
    uniform_one_site,
    unpresolved_feasible,
)

from hvw import (
    BellCertificate,
    BellReport,
    EmpiricalModel,
    EprReport,
    Event,
    HiddenVariableModel,
    InputError,
    KsColoring,
    KsParityReport,
    KsReport,
    KsTable,
    PolytopeResult,
    SizeGuardError,
    Site,
    bell_certificate,
    bell_model,
    bell_pi_escape,
    canonical_model,
    check_lambda_independence,
    check_locality,
    check_non_contextuality,
    construct_e1,
    construct_e2,
    count_deterministic_strategies,
    enumerate_deterministic_strategies,
    epr_model,
    equivalent_empirical,
    feasible_point,
    generate_random_model,
    grid_sites,
    ks_coloring_candidates,
    ks_model,
    ks_parity_certificate,
    ks_search_colorings,
    ks_table,
    local_polytope_feasibility,
    project_to_empirical,
    random_strategy_mixture,
    serialize_model,
    verify_bell,
    verify_epr,
    verify_farkas,
    verify_ks,
    verify_solution,
)
from hvw import local, nogo
from hvw.local import _Scenario, _System, _certifies, _digits, _kept_strategies, _peeled_weights, _presolved_answer, _scenario, _witness
from hvw.properties import first_signal

ONE = Fraction(1)


def json_round_trip(report, cls):
    data = json.loads(json.dumps(report.to_dict()))
    return cls.from_dict(data)


# ---------------------------------------------------------------------------
# Canonical models


def test_epr_model_predictions():
    e = epr_model()
    given = Event(measurements={"a": "A", "b": "B"})
    assert e.cond_prob(Event(outcomes={"a": "+_a"}), given) == fr("1/2")
    pinned = Event(measurements={"a": "A", "b": "B"}, outcomes={"b": "+_b"})
    assert e.cond_prob(Event(outcomes={"a": "+_a"}), pinned) == 0
    assert e.context_weights() == {("A", "B"): ONE}


def test_bell_model_predictions():
    e = bell_model()
    assert len(e.context_weights()) == 9
    assert set(e.context_weights().values()) == {fr("1/9")}
    same = Event(measurements={"A": "2", "B": "2"})
    assert e.cond_prob(Event(outcomes={"A": "+", "B": "+"}), same) == 0
    crossed = Event(measurements={"A": "1", "B": "3"})
    assert e.cond_prob(Event(outcomes={"A": "-", "B": "-"}), crossed) == fr("3/8")


def test_ks_model_structure():
    e = ks_model()
    weights = e.context_weights()
    assert len(weights) == 216
    assert set(weights.values()) == {fr("1/216")}
    dist = e.outcome_distribution(("E1", "E2", "E3", "E4"))
    assert dist == {("1", "0", "0", "0"): ONE}
    for context, mass in weights.items():
        d = e.outcome_distribution(context)
        ((outcome, p),) = d.items()
        assert p == ONE
        assert sum(1 for a in outcome if a == "1") == 1


def test_canonical_model_lookup():
    assert canonical_model("epr").weights == epr_model().weights
    assert canonical_model("bell").weights == bell_model().weights
    with pytest.raises(InputError):
        canonical_model("chsh")


_LONG_NAME = "x" * 200_000
_LONG_SHOWN = "'" + "x" * 99 + "..."  # errors.show_value of _LONG_NAME


@pytest.mark.parametrize(
    "call, message",
    [
        (canonical_model, "unknown canonical model "),
        (lambda name: verify_bell(method=name), "unknown bell method "),
        (lambda name: verify_ks(method=name), "unknown ks method "),
    ],
    ids=("canonical_model", "verify_bell", "verify_ks"),
)
def test_a_long_unknown_name_is_echoed_in_part(call, message):
    with pytest.raises(InputError) as short:
        call("chsh")
    assert str(short.value).startswith(f"{message}'chsh'; expected ")
    with pytest.raises(InputError) as long:
        call(_LONG_NAME)
    assert str(long.value).startswith(message + _LONG_SHOWN + "; expected ")
    assert len(str(long.value)) < 200


# ---------------------------------------------------------------------------
# Deterministic strategies


def test_strategy_counts():
    assert count_deterministic_strategies(bell_model().sites) == 64
    assert count_deterministic_strategies(grid_sites(1, 1, 2)) == 2
    assert count_deterministic_strategies(grid_sites(2, 2, 2)) == 16


def test_strategy_enumeration_order_and_responses():
    sites = bell_model().sites
    strategies = enumerate_deterministic_strategies(sites)
    assert len(strategies) == 64
    assert strategies[0] == (("+", "+", "+"), ("+", "+", "+"))
    assert strategies[-1] == (("-", "-", "-"), ("-", "-", "-"))
    assert len(set(strategies)) == 64


def test_strategy_enumeration_guard():
    with pytest.raises(SizeGuardError):
        enumerate_deterministic_strategies(ks_model().sites)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: enumerate_deterministic_strategies(5), "enumerate_deterministic_strategies needs a sequence of sites, not 5", id="enumerate-int"),
        pytest.param(lambda: count_deterministic_strategies(5), "count_deterministic_strategies needs a sequence of sites, not 5", id="count-int"),
        pytest.param(lambda: random_strategy_mixture(0, 5), "random_strategy_mixture needs a sequence of sites, not 5", id="mixture-int"),
        pytest.param(lambda: enumerate_deterministic_strategies("ab"), "expected a Site, got 'a'", id="enumerate-string"),
        pytest.param(lambda: generate_random_model(0, 5), "generate_random_model needs a sequence of sites, not 5", id="random-int"),
        pytest.param(lambda: generate_random_model(0, "ab"), "expected a Site, got 'a'", id="random-string"),
    ],
)
def test_strategy_functions_check_their_site_list(call, message):
    with pytest.raises(InputError) as exc:
        call()
    assert str(exc.value) == message


GUARDED_CALLS = {
    "local_polytope_feasibility": lambda guard: local_polytope_feasibility(bell_model(), guard=guard),
    "construct_e1": lambda guard: construct_e1(bell_model(), guard=guard),
    "construct_e2": lambda guard: construct_e2(bell_model(), guard=guard),
    "generate_random_model": lambda guard: generate_random_model(0, grid_sites(2, 2, 2), guard=guard),
    "ks_search_colorings": lambda guard: ks_search_colorings(ks_table(), guard=guard),
    "random_strategy_mixture": lambda guard: random_strategy_mixture(0, grid_sites(2, 2, 2), guard=guard),
}


@pytest.mark.parametrize("call", GUARDED_CALLS.values(), ids=GUARDED_CALLS)
@pytest.mark.parametrize("guard", ["x", None, True, False, 0, -1, 1.5, 1e7], ids=repr)
def test_a_guard_that_is_not_a_positive_int_is_an_input_error(call, guard):
    with pytest.raises(InputError) as exc:
        call(guard)
    assert str(exc.value) == f"the guard must be a positive int, not {guard!r}"


@pytest.mark.parametrize("call", GUARDED_CALLS.values(), ids=GUARDED_CALLS)
def test_a_guard_of_one_keeps_its_message(call):
    with pytest.raises(SizeGuardError) as exc:
        call(1)
    assert str(exc.value).endswith(" items, over the guard of 1")
    assert exc.value.guard == 1


def test_the_membership_guard_holds_at_its_boundary():
    """Bell's two sites of three two-outcome measurements have 8 * 8 strategies."""
    assert local_polytope_feasibility(bell_model(), guard=64).strategy_count == 64
    with pytest.raises(SizeGuardError) as exc:
        local_polytope_feasibility(bell_model(), guard=63)
    assert str(exc.value) == "deterministic strategy enumeration would enumerate 64 items, over the guard of 63"


# ---------------------------------------------------------------------------
# Local polytope membership


# Sites whose measurement and outcome counts differ from site to site.
MIXED_SITES = (
    (Site("a", ("A", "B", "C"), ("0", "1")),),
    (Site("a", ("A", "B"), ("0", "1", "2")), Site("b", ("C",), ("x", "y"))),
    (
        Site("a", ("A",), ("0", "1")),
        Site("b", ("C", "D", "E"), ("x", "y")),
        Site("c", ("F", "G"), ("p", "q", "r")),
    ),
)


@pytest.mark.parametrize(
    "sites",
    (*MIXED_SITES, grid_sites(1, 2, 3), grid_sites(2, 2, 3), grid_sites(3, 2, 2)),
    ids=lambda sites: "-".join(f"{len(site.measurements)}x{len(site.outcomes)}" for site in sites),
)
def test_a_decoded_strategy_is_the_enumerated_one(sites):
    strategies = enumerate_deterministic_strategies(sites)
    assert len(strategies) == count_deterministic_strategies(sites)
    decoded = [
        tuple(tuple(site.outcomes[d] for d in digits) for site, digits in zip(sites, _digits(sites, j)))
        for j in range(len(strategies))
    ]
    assert decoded == strategies


@pytest.mark.parametrize("sites", MIXED_SITES, ids=lambda sites: f"{len(sites)}-sites")
def test_membership_rows_match_their_definition(sites):
    """In the c-th non-null context, strategy j answers row c * (outcome
    tuples) + (index of its outcome), and every strategy answers the last,
    normalization, row, so the columns, each (start, offsets) pair made the
    rows start + offsets[j] and that one included, expand to the reference
    rows. `common` is the lcm of the context masses over the
    model's denominator, and rhs[r] / common is the reference b of each row.
    The answer's `row_labels` name those rows, in order."""
    strategies = enumerate_deterministic_strategies(sites)
    verdicts = set()
    for seed in range(4):
        for model in (generate_random_model(seed, sites), project_to_empirical(random_strategy_mixture(seed, sites))):
            system = _System(model)
            contexts = sorted(model.context_weights(), key=model.context_sort_key)
            outcomes = list(model.outcome_tuples())
            assert system.contexts == contexts and system.width == len(outcomes)
            assert len(system.hits) == len(contexts) + 1
            columns = [[start + v for v in column] for start, column in system.hits]
            for c, (context, column) in enumerate(zip(contexts, columns)):
                assert column == [
                    c * len(outcomes) + outcomes.index(outcome_of(strategy, sites, context)) for strategy in strategies
                ]
            rows, rhs = full_membership_system(model)
            assert columns[-1] == [len(rhs) - 1] * len(strategies)
            expanded = [[0] * len(strategies) for _ in rhs]
            for column in columns:
                for j, r in enumerate(column):
                    expanded[r][j] = 1
            assert expanded == rows
            weights = model.context_weights()
            masses = [weights[context] * model._denominator for context in contexts]
            assert all(mass.denominator == 1 for mass in masses)
            assert system.common == math.lcm(*(mass.numerator for mass in masses))
            assert all(type(v) is int for v in system.rhs) and system.rhs[-1] == system.common
            assert [Fraction(v, system.common) for v in system.rhs] == rhs
            expected = []
            for context in contexts:
                given = ", ".join(f"{site.name}={m}" for site, m in zip(sites, context))
                for outcome in outcomes:
                    shown = ", ".join(f"{site.name}={o}" for site, o in zip(sites, outcome))
                    expected.append(f"p({shown} | {given})")
            result = local_polytope_feasibility(model)
            assert result.row_labels == (*expected, "total probability")
            assert result.feasible == (feasible_point(rows, rhs)[0] is not None)
            verdicts.add(result.feasible)
    # Any table of one site is a mixture of strategies.
    assert verdicts == ({True} if len(sites) == 1 else {True, False})


def test_bell_is_outside_the_polytope():
    result = local_polytope_feasibility(bell_model())
    assert not result.feasible
    assert result.strategy_count == 64
    assert len(result.row_labels) == 9 * 4 + 1
    assert result.row_labels[-1] == "total probability"
    assert result.row_labels[0] == "p(A=+, B=+ | A=1, B=1)"
    assert result.certificate is not None and len(result.certificate) == 37
    assert result.strategy_weights is None and result.hvm is None


def test_bell_farkas_certificate_rechecked_from_scratch():
    """Rebuild the equation system from public pieces and recheck the certificate."""
    from hvw import verify_farkas

    model = bell_model()
    result = local_polytope_feasibility(model)
    rows, rhs = full_membership_system(model)
    assert len(rows) == len(result.row_labels)
    assert verify_farkas(rows, rhs, list(result.certificate))


def test_uniform_quarter_is_inside(uniform_quarter):
    result = local_polytope_feasibility(uniform_quarter)
    assert result.feasible
    assert result.hvm is not None
    total = sum((w for _, w in result.strategy_weights), Fraction(0))
    assert total == 1
    assert check_lambda_independence(result.hvm).holds
    assert check_locality(result.hvm).holds
    assert equivalent_empirical(uniform_quarter, result.hvm).holds


def test_all_pairs_anticorrelation_is_inside(all_pairs_anticorrelation):
    result = local_polytope_feasibility(all_pairs_anticorrelation)
    assert result.feasible
    assert check_lambda_independence(result.hvm).holds
    assert check_locality(result.hvm).holds
    assert equivalent_empirical(all_pairs_anticorrelation, result.hvm).holds


def test_feasible_point_satisfies_rebuilt_system(uniform_quarter):
    from hvw import verify_solution

    result = local_polytope_feasibility(uniform_quarter)
    rows, rhs = full_membership_system(uniform_quarter)
    x = [Fraction(0)] * len(rows[0])
    for index, weight in result.strategy_weights:
        x[index] = weight
    assert verify_solution(rows, rhs, x)


def test_epr_anticorrelation_alone_is_inside():
    result = local_polytope_feasibility(epr_model())
    assert result.feasible
    assert equivalent_empirical(epr_model(), result.hvm).holds


def test_strategy_mixtures_project_inside():
    for seed in range(12):
        hidden = random_strategy_mixture(seed, grid_sites(2, 2, 2))
        assert local_polytope_feasibility(project_to_empirical(hidden)).feasible
    for seed in range(3):
        hidden = random_strategy_mixture(seed, bell_model().sites)
        assert local_polytope_feasibility(project_to_empirical(hidden)).feasible


def test_strategy_mixture_weight_table_is_held_to_the_guard():
    # One strategy (one outcome per site), so only the weight table grows:
    # one row per context, 2**14 of them.
    with pytest.raises(SizeGuardError) as exc:
        random_strategy_mixture(0, grid_sites(14, 2, 1), guard=10)
    assert str(exc.value) == "strategy mixture weight table would enumerate 16384 items, over the guard of 10"
    assert (exc.value.size, exc.value.guard) == (16384, 10)
    with pytest.raises(SizeGuardError):
        random_strategy_mixture(0, grid_sites(2, 2, 1), guard=3)
    assert len(random_strategy_mixture(0, grid_sites(2, 2, 1), guard=4).weights) == 4


def test_strategy_mixture_serialization_is_pinned():
    """Seeded strategy mixtures serialize to pinned bytes: one sha256 over
    seeds 0-49 on four shapes."""
    digest = hashlib.sha256()
    for shape in ((2, 2, 2), (2, 3, 2), (3, 2, 2), (3, 3, 2)):
        for seed in range(50):
            digest.update(serialize_model(random_strategy_mixture(seed, grid_sites(*shape))).encode())
    assert digest.hexdigest() == "ff678a23f8e2ca68a5bf0410276d1efec3ca6dfb4891d63928f7079c04ee476f"


def test_polytope_result_round_trips(uniform_quarter):
    infeasible = local_polytope_feasibility(bell_model())
    assert json_round_trip(infeasible, PolytopeResult) == infeasible
    feasible = local_polytope_feasibility(uniform_quarter)
    assert json_round_trip(feasible, PolytopeResult) == feasible


def test_polytope_rejects_hidden_models():
    from hvw import epr_escape_hvm

    with pytest.raises(InputError):
        local_polytope_feasibility(epr_escape_hvm())


# ---------------------------------------------------------------------------
# The presolve in front of the simplex


def pr_box():
    """Two sites of two two-outcome measurements: the outcomes differ exactly
    when both sites measure M2. No signalling, and no strategy fits."""
    sites = grid_sites(2, 2, 2)
    weights = {}
    for context in itertools.product(("M1", "M2"), repeat=2):
        for outcome in itertools.product(("o1", "o2"), repeat=2):
            if (outcome[0] != outcome[1]) == (context == ("M2", "M2")):
                weights[(outcome, context)] = Fraction(1, 8)
    return EmpiricalModel(sites, weights)


PRESOLVE_SHAPES = ((1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (1, 3, 3))


def presolve_sweep():
    """Seeded tables, strategy mixtures and their half-noise blends on seven
    shapes, with Bell, EPR and the PR box."""
    models = [bell_model(), epr_model(), pr_box()]
    for sites in (*map(lambda shape: grid_sites(*shape), PRESOLVE_SHAPES), MIXED_SITES[2]):
        for seed in range(8):
            mixture = project_to_empirical(random_strategy_mixture(seed, sites))
            models += [generate_random_model(seed, sites), mixture, half_noise(mixture)]
    return models


def test_presolved_verdicts_match_the_full_simplex():
    """Every route of the presolve gives the verdict of the simplex on the
    full system, over the presolve sweep."""
    models = presolve_sweep()
    routes = {"signalling": 0, "feasible": 0, "certificate": 0}
    for model in models:
        feasible = local_polytope_feasibility(model).feasible
        assert feasible == unpresolved_feasible(model)
        route = "feasible" if feasible else "certificate" if first_signal(model) is None else "signalling"
        routes[route] += 1
    assert len(models) == 171
    assert min(routes.values()) >= 2, routes


def null_direction(sites, strategies):
    """d with A d = 0 over the membership columns, or None: +1 on s00 and
    s11 and -1 on s01 and s10, where s_ab is the first strategy with the
    first site that has two measurements and two outcomes answering its
    first measurement with outcome a and its second with outcome b. Each
    context reads only one of the two answers, so every row sums to 0."""
    i = next((i for i, site in enumerate(sites) if len(site.measurements) > 1 and len(site.outcomes) > 1), None)
    if i is None:
        return None
    index = {strategy: j for j, strategy in enumerate(strategies)}
    base = strategies[0]
    o = sites[i].outcomes

    def variant(a, b):
        return index[(*base[:i], (o[a], o[b], *base[i][2:]), *base[i + 1 :])]

    return {variant(0, 0): 1, variant(1, 1): 1, variant(0, 1): -1, variant(1, 0): -1}


def test_the_column_rechecks_agree_with_the_dense_ones():
    """Over the presolve sweep, `_witness` on the mixture and `_certifies` on
    the model, and `verify_solution` on the dense x built from the mixture
    and `verify_farkas` on the reference rows, accept every returned answer
    and both refuse each corruption of it: for x, a weight moved to a
    strategy with another column, negative weights that still solve
    A x = b, and every weight doubled, which most witnesses would pass if
    models were compared by their numerators alone, without D; for y, a
    wrong length, -y, one entry lowered until some
    y.A_j < 0 while y.b stays negative, and a lone negative entry in a
    context block where y is otherwise zero, which `_certifies` skips
    before the corruption. `_witness` also refuses a mixture out of its
    form: an index equal to n, a repeated index, a zero weight, and two
    pairs out of order."""
    counted = Counter()
    for model in presolve_sweep():
        strategies = enumerate_deterministic_strategies(model.sites)
        n = len(strategies)
        rows, rhs = full_membership_system(model)
        result = local_polytope_feasibility(model)
        if result.feasible:

            def dense(mixture):
                x = [Fraction(0)] * n
                for j, w in mixture:
                    x[j] += w
                return x

            def verdicts(mixture):
                return _witness(model, n, mixture) is not None, verify_solution(rows, rhs, dense(mixture))

            mixture = list(result.strategy_weights)
            assert verdicts(mixture) == (True, True)
            (j, w), rest = mixture[0], mixture[1:]
            k = next(k for k in range(n) if any(row[k] != row[j] for row in rows))
            moved = dict(rest)
            moved[k] = moved.get(k, 0) + w
            corrupted = [sorted(moved.items()), [(d, 2 * v) for d, v in mixture]]
            direction = null_direction(model.sites, strategies)
            if direction is not None:
                x = dense(mixture)
                t = 1 + max(x[d] for d, sign in direction.items() if sign < 0)
                negative = [v + t * direction.get(d, 0) for d, v in enumerate(x)]
                assert min(negative) < 0
                assert all(sum(v for a, v in zip(row, negative) if a) == bi for row, bi in zip(rows, rhs))
                corrupted.append([(d, v) for d, v in enumerate(negative) if v])
                counted["negative"] += 1
            unused = next(z for z in range(n) if z not in dict(mixture))
            malformed = [
                [*mixture[:-1], (n, mixture[-1][1])],
                [(j, w / 2), (j, w / 2), *rest],
                sorted([*mixture, (unused, Fraction(0))]),
            ]
            if rest:
                malformed.append([rest[0], (j, w), *rest[1:]])
                counted["out of order"] += 1
            for pairs in malformed:
                assert _witness(model, n, pairs) is None, pairs
        else:

            def verdicts(y):
                return _certifies(model, n, y), verify_farkas(rows, rhs, y)

            y = list(result.certificate)
            assert verdicts(y) == (True, True)
            corrupted = [y[:-1], [*y, Fraction(0)], [-v for v in y]]
            combination = [sum(v for row, v in zip(rows, y) if row[j]) for j in range(n)]
            for r in (len(rows) - 1, next(i for i, row in enumerate(rows) if row[0])):
                lowered = list(y)
                lowered[r] -= 1 + min(c for c, a in zip(combination, rows[r]) if a)
                assert sum(v * bi for v, bi in zip(lowered, rhs)) < 0
                corrupted.append(lowered)
            width = model.n_outcome_tuples()
            blank = next((r for r in range(0, len(rows) - 1, width) if not any(y[r : r + width])), None)
            if blank is not None:
                lone = list(y)
                lone[blank] = -1 - min(c for c, a in zip(combination, rows[blank]) if a)
                corrupted.append(lone)
                counted["lone"] += 1
        counted[result.feasible] += 1
        for answer in corrupted:
            assert verdicts(answer) == (False, False)
    assert counted[True] >= 40 and counted[False] >= 40, counted
    assert counted["negative"] >= 40 and counted["out of order"] >= 40, counted
    assert counted["lone"] >= 30, counted


def test_the_mixture_recheck_reads_no_column(monkeypatch):
    """`_witness` decodes each strategy from its index and compares the
    witness's projection with the model, so a fault in the column build
    cannot pass it. The table is a point mass on strategy 0, which
    answers "0" to both measurements; with the offsets of
    strategies 0 and 2 swapped in context M1's column, the presolve keeps
    strategy 2, which truly answers "1" there, the columns accept that
    mixture, and the recheck refuses it."""
    site = Site("X", ("M1", "M2"), ("0", "1"))
    half = Fraction(1, 2)
    model = EmpiricalModel((site,), {(("0",), ("M1",)): half, (("0",), ("M2",)): half})

    class Swapped(_Scenario):
        def __missing__(self, context):
            column, labels = super().__missing__(context)
            if context == ("M1",):
                offsets = list(column)
                offsets[0], offsets[2] = offsets[2], offsets[0]
                self[context] = bytes(offsets), labels
            return self[context]

    monkeypatch.setattr(local, "_scenario", Swapped)
    system = _System(model)
    mixture, _ = _presolved_answer(model, system)
    assert mixture == [(2, ONE)]
    sums = [0] * len(system.rhs)
    for start, column in system.hits:
        sums[start + column[2]] += 1
    assert sums == [system.rhs[r] // system.common for r in range(len(sums))]
    with pytest.raises(AssertionError, match="^solver returned an answer that fails direct recheck$"):
        local_polytope_feasibility(model)


def test_the_certificate_recheck_reads_no_column(monkeypatch):
    """`_certifies` forms each strategy's answers from the sites' response
    functions, so a fault in the column build cannot pass it. With each
    site's stride divided by the first site's outcome count, the columns of
    sites with 3 and 2 outcomes put every strategy on the first row of each
    block, the solver finds no mixture for the seed-0 control, and the
    recheck refuses its certificate."""
    model = project_to_empirical(random_strategy_mixture(0, MIXED_SITES[1]))

    class Squeezed(_Scenario):
        def __missing__(self, context):
            _, labels = super().__missing__(context)
            first, offsets, stride = len(self.sites[0].outcomes), [0], len(self.outcomes)
            for site, m in zip(self.sites, context):
                base, k = len(site.outcomes), site.measurements.index(m)
                stride //= base
                responses = list(itertools.product(range(base), repeat=len(site.measurements)))
                offsets = [v + stride // first * r[k] for v in offsets for r in responses]
            self[context] = bytes(offsets), labels
            return self[context]

    monkeypatch.setattr(local, "_scenario", Squeezed)
    mixture, y = _presolved_answer(model, _System(model))
    assert mixture is None and y is not None
    with pytest.raises(AssertionError, match="^solver returned an answer that fails direct recheck$"):
        local_polytope_feasibility(model)


def test_a_witness_with_a_moved_weight_is_refused(monkeypatch):
    """The witness handed back is the one rechecked: a `_mixture_hvm` that
    moves one weight to another outcome of its context and hidden state
    still builds a valid model, and the recheck refuses it."""
    model = project_to_empirical(random_strategy_mixture(0, grid_sites(2, 2, 2)))
    build = local._mixture_hvm

    def moved(model, mixture):
        hvm = build(model, mixture)
        weights = dict(hvm.weights)
        (outcome, context, lam), w = next(iter(weights.items()))
        other = next(o for o in model.outcome_tuples() if o != outcome)
        del weights[(outcome, context, lam)]
        weights[(other, context, lam)] = weights.get((other, context, lam), 0) + w
        return HiddenVariableModel(hvm.sites, hvm.lambda_set, weights)

    monkeypatch.setattr(local, "_mixture_hvm", moved)
    with pytest.raises(AssertionError, match="^solver returned an answer that fails direct recheck$"):
        local_polytope_feasibility(model)


def test_a_signalling_certificate_is_plus_and_minus_one_on_two_marginals():
    """The certificate of a signalling table is +-1 on the rows of one
    outcome's marginal in two contexts, and 0 elsewhere."""
    checked = 0
    for shape in PRESOLVE_SHAPES:
        sites = grid_sites(*shape)
        for seed in range(10):
            model = generate_random_model(seed, sites)
            signal = first_signal(model)
            if signal is None:
                continue
            i, _, first, other, a, _, _ = signal
            result = local_polytope_feasibility(model)
            share = sum(outcome[i] == a for outcome in model.outcome_tuples())
            nonzero = [(label, v) for label, v in zip(result.row_labels, result.certificate) if v]
            assert len(nonzero) == 2 * share
            assert {v for _, v in nonzero} == {1, -1}
            given = {f"| {', '.join(f'{s.name}={m}' for s, m in zip(sites, c))})" for c in (first, other)}
            assert {label[label.index("|") :] for label, _ in nonzero} == given
            checked += 1
    assert checked >= 30


def test_the_presolve_keeps_the_strategies_that_answer_no_zero_row():
    """The kept strategies are exactly those whose reference column hits no
    row with b = 0, in order, over the PR box and the presolve sweep."""
    kinds = Counter()
    for model in [pr_box(), *presolve_sweep()]:
        kept = list(_kept_strategies(_System(model)))
        assert kept == kept_membership_system(model)[0]
        n = count_deterministic_strategies(model.sites)
        kinds["none" if not kept else "all" if len(kept) == n else "some"] += 1
    assert min(kinds.values()) >= 5, kinds


def test_a_lifted_certificate_puts_each_deficit_on_the_first_zero_row(monkeypatch):
    """On a table that does not signal and has no mixture, the certificate is
    the reduced system's y, on the rows with b != 0, lifted over the
    reference rows: each strategy j in order with y.A_j < 0 has -y.A_j added
    on the first row with b = 0 that it answers."""
    reduced = []
    solve = local.feasible_point

    def recording(table, b):
        answer = solve(table, b)
        reduced.append(answer[1])
        return answer

    monkeypatch.setattr(local, "feasible_point", recording)
    counted = Counter()
    for model in [pr_box(), *presolve_sweep()]:
        reduced.clear()
        result = local_polytope_feasibility(model)
        if result.feasible or first_signal(model) is not None:
            continue
        rows, rhs = full_membership_system(model)
        y = [Fraction(0)] * len(rhs)
        (certificate,) = reduced
        for i, v in zip([i for i, bi in enumerate(rhs) if bi], certificate):
            y[i] = v
        for j in range(len(rows[0])):
            deficit = -sum(v for row, v in zip(rows, y) if row[j])
            if deficit > 0:
                y[next(i for i, (row, bi) in enumerate(zip(rows, rhs)) if row[j] and not bi)] += deficit
                counted["repaired"] += 1
        assert list(result.certificate) == y
        counted["lifted"] += 1
    assert counted["lifted"] >= 2 and counted["repaired"] >= 10, counted


def per_strategy_lift(system, live, certificate):
    """The lift of `_lifted_certificate` as it was before it summed y.A by
    columns, kept as the reference: one generator per strategy, over the
    columns made absolute rows."""
    hits, rhs = [[start + v for v in column] for start, column in system.hits], system.rhs
    scale = math.lcm(*(v.denominator for v in certificate))
    y = [0] * len(rhs)
    for i, v in zip(live, certificate):
        y[i] = v.numerator * (scale // v.denominator)
    for j in range(len(hits[0])):
        deficit = -sum(y[column[j]] for column in hits)
        if deficit > 0:
            y[next(column[j] for column in hits if not rhs[column[j]])] += deficit
    return [Fraction(v, scale) for v in y]


def chained_boxes():
    """Chained PR boxes on two sites of m = 2, 3 two-outcome measurements:
    equal outcomes on (M_i, M_i) and (M_i+1, M_i), different ones on
    (M_1, M_m), uniform elsewhere; then the box at 7/8 blended with the
    table of one of its first 12 strategies at 1/8. None signals, and none
    is a mixture of strategies: the chain's 2m correlations, the last one
    negated, sum to 2m in the box, to at least -2m and at most 2m - 2 in a
    strategy, and so to more than 2m - 2 in a blend."""
    for m in (2, 3):
        sites = grid_sites(2, m, 2)
        rows = {}
        for i, j in itertools.product(range(m), repeat=2):
            context = (sites[0].measurements[i], sites[1].measurements[j])
            chained = i in (j, j + 1) or (i, j) == (0, m - 1)
            for outcome in itertools.product(("o1", "o2"), repeat=2):
                if not chained:
                    rows[(outcome, context)] = Fraction(1, 4 * m * m)
                elif (outcome[0] == outcome[1]) != ((i, j) == (0, m - 1)):
                    rows[(outcome, context)] = Fraction(1, 2 * m * m)
        box = EmpiricalModel(sites, rows)
        yield box
        for strategy in enumerate_deterministic_strategies(sites)[:12]:
            blend = Counter({key: v * 7 / 8 for key, v in rows.items()})
            for context in box.context_weights():
                blend[(outcome_of(strategy, sites, context), context)] += Fraction(1, 8 * m * m)
            yield EmpiricalModel(sites, dict(blend))


def test_the_column_lift_gives_the_y_of_the_per_strategy_lift(monkeypatch):
    """On every table whose certificate is lifted, the lift gives exactly
    the y of the per-strategy reference. The tables are both membership
    sweeps, where only Bell is infeasible and does not signal, the PR box
    and the chained boxes; on each of them some strategy has a deficit."""
    lifted = []
    lift = local._lifted_certificate

    def compared(system, live, certificate):
        y = lift(system, live, certificate)
        assert y == per_strategy_lift(system, live, certificate)
        padded = [Fraction(0)] * len(system.rhs)
        for i, v in zip(live, certificate):
            padded[i] = v
        lifted.append(y != padded)
        return y

    monkeypatch.setattr(local, "_lifted_certificate", compared)
    models = [*small_membership_sweep(), *mixture_membership_sweep(), pr_box(), *chained_boxes()]
    results = [local_polytope_feasibility(model) for model in models]
    assert not results[0].feasible and lifted[0], "Bell"
    assert all(not result.feasible for result in results[-27:])
    assert len(lifted) == 28 and sum(lifted) == 28, lifted


def scenario_sweep():
    """Bell, then seeds 0-2 of a random table, a projected strategy mixture
    and that mixture with some contexts made null, on six scenarios in
    turn, each model on sites built afresh."""
    yield bell_model()
    for seed in range(3):
        for shape in ((1, 2, 2), (2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (1, 3, 3)):
            yield generate_random_model(seed, grid_sites(*shape))
            mixture = project_to_empirical(random_strategy_mixture(seed, grid_sites(*shape)))
            yield mixture
            weights = mixture.context_weights()
            kept = list(weights)[seed % 2 :: 2]
            total = sum(weights[c] for c in kept)
            yield EmpiricalModel(
                grid_sites(*shape),
                {(o, c): weights[c] / total * p for c in kept for o, p in mixture.outcome_distribution(c).items()},
            )


def test_a_cold_scenario_cache_gives_the_answers_of_a_warm_one():
    """The sweep gives the same answers, byte for byte, with the scenario
    cache cleared before every solve and never cleared, where six scenarios
    in turn also evict one another from the four kept."""

    def answers(cold):
        texts = []
        for model in scenario_sweep():
            if cold:
                _scenario.cache_clear()
            texts.append(json.dumps(local_polytope_feasibility(model).to_dict(), sort_keys=True))
        return texts

    _scenario.cache_clear()
    warm = answers(cold=False)
    assert _scenario.cache_info().misses > 7
    assert warm == answers(cold=True)
    models = list(scenario_sweep())
    assert sum(len(m.context_weights()) < m.n_context_tuples() for m in models) >= 18
    assert {True, False} <= {json.loads(text)["feasible"] for text in warm}


def test_a_sweep_of_one_scenario_builds_it_once():
    """Twenty tables on sites built afresh each time share one scenario."""
    _scenario.cache_clear()
    for seed in range(10):
        local_polytope_feasibility(generate_random_model(seed, grid_sites(2, 3, 2)))
        local_polytope_feasibility(project_to_empirical(random_strategy_mixture(seed, grid_sites(2, 3, 2))))
    assert _scenario.cache_info().misses == 1


def test_a_table_builds_only_the_contexts_it_reads():
    """A point mass on one of the 64 contexts of (3, 4, 2) builds that
    context alone in its scenario."""
    sites = grid_sites(3, 4, 2)
    cell = (tuple(site.outcomes[0] for site in sites), tuple(site.measurements[0] for site in sites))
    model = EmpiricalModel(sites, {cell: 1})
    _scenario.cache_clear()
    result = local_polytope_feasibility(model)
    assert result.feasible and result.strategy_count == 4096 and len(result.row_labels) == 9
    assert list(_scenario(model.sites)) == [cell[1]]


def test_the_system_shares_the_scenario_columns():
    """`_System` copies no column and builds no list of N: each `hits[c]` is
    (c * width, the very offsets the scenario keeps for context c), and the
    last is (the normalization row, the scenario's one row of N zeros). On
    Bell, a (2,3,2) strategy mixture and that mixture with every other
    context made null; a second solve of an equal table adds no scenario
    miss."""

    def tables():
        yield bell_model()
        sites = grid_sites(2, 3, 2)
        mixture = project_to_empirical(random_strategy_mixture(0, sites))
        yield mixture
        weights = mixture.context_weights()
        kept = list(weights)[::2]
        total = sum(weights[c] for c in kept)
        yield EmpiricalModel(
            sites, {(o, c): weights[c] / total * p for c in kept for o, p in mixture.outcome_distribution(c).items()}
        )

    nulls = []
    for model, equal in zip(tables(), tables()):
        _scenario.cache_clear()
        system = _System(model)
        scenario = _scenario(model.sites)
        assert system.scenario is scenario
        *blocks, (last, zeros) = system.hits
        assert len(blocks) == len(system.contexts)
        for c, (context, (start, offsets)) in enumerate(zip(system.contexts, blocks)):
            assert start == c * system.width and offsets is scenario[context][0]
        assert last == len(system.rhs) - 1 and zeros is scenario.zeros
        assert zeros == bytes(count_deterministic_strategies(model.sites))
        nulls.append(model.n_context_tuples() - len(system.contexts))
        local_polytope_feasibility(model)
        misses = _scenario.cache_info().misses
        assert equal == model
        assert local_polytope_feasibility(equal) == local_polytope_feasibility(model)
        assert _scenario.cache_info().misses == misses
    assert nulls == [0, 0, 4]


def test_a_scenario_column_holds_one_compact_int_per_strategy():
    """A column is `bytes` while a block has at most 256 rows, above that
    an array of 2-byte ints, and above 2**16 rows one of 4-byte or wider
    ints. On one site with one measurement, strategy j answers row j."""
    for width, form in ((2, "bytes"), (256, "bytes"), (257, "H"), (1 << 16, "H"), ((1 << 16) + 1, "L")):
        site = Site("X", ("M",), tuple(f"o{k}" for k in range(width)))
        column = _Scenario((site,))[("M",)][0]
        assert (column.typecode if form != "bytes" else type(column).__name__) == form
        assert list(column) == list(range(width))


def test_the_pr_box_drops_every_strategy_and_lifts_its_certificate():
    model = pr_box()
    rows, rhs = full_membership_system(model)
    assert first_signal(model) is None
    assert not _kept_strategies(_System(model))
    result = local_polytope_feasibility(model)
    assert not result.feasible
    assert len(result.certificate) == len(rows) == len(result.row_labels)
    assert verify_farkas(rows, rhs, list(result.certificate))
    assert not unpresolved_feasible(model)


def test_membership_lists_no_strategy(monkeypatch):
    """The LP path and the mixture controls count and decode strategies:
    `hvw.local` has no enumeration to call, and with the one in `hvw.nogo`
    made to raise, they give the same answers."""
    sites = grid_sites(2, 3, 2)
    models = [bell_model(), project_to_empirical(random_strategy_mixture(3, sites)), generate_random_model(3, sites)]
    expected = [local_polytope_feasibility(model) for model in models]
    mixture = random_strategy_mixture(5, sites)

    def listed(*args, **kwargs):
        raise AssertionError("a strategy object was used")

    assert not hasattr(local, "enumerate_deterministic_strategies")
    monkeypatch.setattr(nogo, "enumerate_deterministic_strategies", listed)
    assert [local_polytope_feasibility(model) for model in models] == expected
    assert [result.feasible for result in expected] == [False, True, False]
    assert random_strategy_mixture(5, sites) == mixture


def test_a_signalling_table_is_answered_without_reading_a_column(monkeypatch):
    """The presolve answers a signalling table before it builds any column:
    with every column build made to raise, `local_polytope_feasibility`
    gives the same answer, row labels included. Bell, which does not
    signal, still builds them."""
    signalling = generate_random_model(0, grid_sites(2, 2, 2))
    assert first_signal(signalling) is not None and first_signal(bell_model()) is None

    class Reached(Exception):
        pass

    class Unbuilt(_Scenario):
        def __missing__(self, context):
            raise Reached

    _scenario.cache_clear()
    expected = local_polytope_feasibility(signalling)
    assert not expected.feasible
    monkeypatch.setattr(local, "_scenario", Unbuilt)
    assert local_polytope_feasibility(signalling) == expected
    with pytest.raises(Reached):
        local_polytope_feasibility(bell_model())


def peeled(model):
    """`_peeled_weights` on the model's kept strategies, divided by
    `common`, or None."""
    system = _System(model)
    weights = _peeled_weights(system, _kept_strategies(system))
    return None if weights is None else [Fraction(w, system.common) for w in weights]


PEEL_SHAPES = ((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 4, 2), (3, 3, 2), (4, 2, 2))


def test_a_peeled_mixture_is_the_point_of_the_simplex():
    """Over seeded strategy mixtures on six shapes, whenever the peel
    answers, its x is the one `feasible_point` returns on the same kept
    system, and the mixture returned is that x lifted by zeros."""
    answered = Counter()
    for shape in PEEL_SHAPES:
        for seed in range(8):
            model = project_to_empirical(random_strategy_mixture(seed, grid_sites(*shape)))
            x = peeled(model)
            answered[x is not None] += 1
            if x is None:
                continue
            kept, rows, rhs = kept_membership_system(model)
            assert feasible_point(rows, rhs) == (x, None)
            lifted = tuple((j, v) for j, v in zip(kept, x) if v)
            assert local_polytope_feasibility(model).strategy_weights == lifted
    assert answered[True] >= 30 and answered[False] >= 5, answered


def signed_mixture(terms):
    """The (2,2,2) table of sum_j c_j (strategy j's 0/1 table), contexts
    equally likely, for (j, c_j) in `terms` with coefficients summing to 1.
    Some c_j < 0, so it need not be a mixture, but like every sum of
    strategies it does not signal."""
    sites = grid_sites(2, 2, 2)
    strategies = enumerate_deterministic_strategies(sites)
    weights = Counter()
    for context in itertools.product(*(site.measurements for site in sites)):
        for j, c in terms:
            weights[(outcome_of(strategies[j], sites, context), context)] += c / 4
    assert min(weights.values()) >= 0
    return EmpiricalModel(sites, {key: v for key, v in weights.items() if v})


# name: (the table, whether some kept row has one kept strategy, sha256 of
# the answer's `to_dict()` as recorded before the peel came in)
FALL_THROUGH = {
    # Every row has two or more of Bell's eight kept strategies.
    "bell": (bell_model, False, "be0f82169db3af8dd6b1a8acf5aba71c5f6c99548f0847f0deaa98e508715287"),
    # Both kept strategies are fixed, and a residual is left over.
    "residual": (
        lambda: signed_mixture([(3, fr("1/2")), (6, fr("3/10")), (7, fr("-3/10")), (13, fr("1/2"))]),
        True,
        "04a6eff440f50f6b4d1351a2646bfa2b7ebfc3d64bd21467c0ffa0932f64471f",
    ),
    # The second weight the peel fixes is negative.
    "negative": (
        lambda: signed_mixture([(5, fr("1/10")), (1, fr("-1/10")), (3, fr("2/5")), (8, fr("1/5")), (13, fr("2/5"))]),
        True,
        "487d36350fcfc4f27b4b98a65edddf303d5900d998b54be0a182c5881ab08d92",
    ),
    # Every cell is positive, and each row has 16 of the 64 strategies.
    "half-noise": (
        lambda: half_noise(project_to_empirical(random_strategy_mixture(0, grid_sites(2, 3, 2)))),
        False,
        "c4a6aa1dbf2d0a3211b9068f6d628b20a850e7f103ee359e89edda101d7c759b",
    ),
}


@pytest.mark.parametrize("name", FALL_THROUGH)
def test_a_table_the_peel_cannot_finish_keeps_its_answer(monkeypatch, name):
    """Where the peel stalls, leaves a residual or meets a negative weight,
    the simplex answers, and the answer is the one recorded before."""
    build, singleton, digest = FALL_THROUGH[name]
    model = build()
    _, rows, _ = kept_membership_system(model)
    assert any(sum(row) == 1 for row in rows[:-1]) == singleton
    assert first_signal(model) is None
    assert peeled(model) is None
    solves = []
    solve = local.feasible_point

    def recording(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(local, "feasible_point", recording)
    result = local_polytope_feasibility(model)
    assert len(solves) == 1
    assert result.feasible == (name == "half-noise")
    assert hashlib.sha256(json.dumps(result.to_dict(), sort_keys=True).encode()).hexdigest() == digest


def test_a_peeled_answer_needs_no_simplex_and_is_rechecked(monkeypatch):
    """With `feasible_point` made to raise, the uniform one-site tables and
    the (3,3,2) seed-0 control are still answered, and `_witness` rechecks
    each answer over every strategy; the `hvm` returned is the witness it
    rechecked."""
    models = [uniform_one_site(k) for k in (1, 7, 50)]
    models.append(project_to_empirical(random_strategy_mixture(0, grid_sites(3, 3, 2))))
    expected = [local_polytope_feasibility(model) for model in models]
    rechecked = []
    witness = local._witness

    def recording(model, n, x):
        hvm = witness(model, n, x)
        rechecked.append((n, hvm))
        return hvm

    def unreached(*args):
        raise AssertionError("the simplex ran")

    monkeypatch.setattr(local, "feasible_point", unreached)
    monkeypatch.setattr(local, "_witness", recording)
    results = [local_polytope_feasibility(model) for model in models]
    assert results == expected
    assert [n for n, _ in rechecked] == [1, 7, 50, 512]
    assert all(result.hvm is hvm for result, (_, hvm) in zip(results, rechecked))
    for k, result in zip((1, 7, 50), expected):
        assert result.strategy_weights == tuple((j, Fraction(1, k)) for j in range(k))
    assert equivalent_empirical(models[-1], expected[-1].hvm).holds


def test_a_measurement_in_no_non_null_context_is_passed_over():
    """Measurement N of site a and M of site b appear only in null contexts;
    the scan skips them, and the verdicts are the simplex's."""
    sites = (Site("a", ("N", "A"), ("0", "1")), Site("b", ("C", "D", "M"), ("0", "1")))
    half = Fraction(1, 2)
    signalling = EmpiricalModel(sites, {(("0", "0"), ("A", "C")): half, (("1", "1"), ("A", "D")): half})
    product = EmpiricalModel(
        sites, {(("0", b), ("A", m)): Fraction(1, 4) for b in ("0", "1") for m in ("C", "D")}
    )
    assert first_signal(signalling)[:2] == (0, "A")
    assert check_non_contextuality(signalling).witness.where == ("a", "A")
    assert first_signal(product) is None
    for model, feasible in ((signalling, False), (product, True)):
        assert local_polytope_feasibility(model).feasible == feasible == unpresolved_feasible(model)


# ---------------------------------------------------------------------------
# The anti-correlation argument


def test_verify_epr_reproduces_the_conflict():
    report = verify_epr()
    assert report.marginal == fr("1/2")
    assert report.pinned_by_partner == ONE
    assert not report.oi_single_state.holds
    assert report.escape_sd.holds
    assert report.escape_li.holds
    assert report.escape_oi.holds
    assert report.escape_equivalent.holds
    assert report.confirmed


def test_epr_report_round_trips():
    report = verify_epr()
    assert json_round_trip(report, EprReport) == report


def test_epr_report_is_deterministic():
    assert verify_epr() == verify_epr()


# ---------------------------------------------------------------------------
# The three-direction argument


def test_bell_certificate_equations():
    cert = bell_certificate()
    by_pair = {(eq.i, eq.j): eq for eq in cert.equations}
    assert set(by_pair) == {(1, 2), (2, 3), (3, 1)}
    assert by_pair[(1, 2)].atoms == (4, 8, 2, 6)
    assert by_pair[(2, 3)].atoms == (5, 6, 3, 4)
    assert by_pair[(3, 1)].atoms == (2, 3, 5, 8)
    for eq in cert.equations:
        assert eq.plus_plus == fr("3/8")
        assert eq.minus_minus == fr("3/8")
        assert eq.rhs == fr("3/4")


def test_bell_certificate_aggregate():
    cert = bell_certificate()
    assert cert.atoms_counted_twice
    assert cert.aggregate_atoms == (2, 3, 4, 5, 6, 8)
    assert cert.aggregate_value == fr("9/8")
    assert cert.impossible


def test_bell_certificate_is_deterministic():
    assert bell_certificate() == bell_certificate()
    assert json_round_trip(bell_certificate(), BellCertificate) == bell_certificate()


def test_bell_escape_keeps_pi_but_not_oi():
    escape = bell_pi_escape()
    assert escape.li.holds
    assert escape.pi.holds
    assert not escape.oi.holds
    assert escape.conditional_with_partner == ONE
    assert escape.conditional_alone == fr("1/2")
    assert escape.confirmed


def test_verify_bell_routes():
    cert_only = verify_bell("certificate")
    assert cert_only.certificate is not None and cert_only.polytope is None
    assert cert_only.confirmed

    poly_only = verify_bell("polytope")
    assert poly_only.certificate is None and poly_only.polytope is not None
    assert not poly_only.polytope.feasible
    assert poly_only.confirmed

    both = verify_bell("both")
    assert both.certificate is not None and both.polytope is not None
    assert both.confirmed

    with pytest.raises(InputError):
        verify_bell("chsh")


def test_bell_report_round_trips():
    report = verify_bell("both")
    assert json_round_trip(report, BellReport) == report


# ---------------------------------------------------------------------------
# The orthogonality-table argument


def test_ks_table_shape():
    table = ks_table()
    assert len(table.columns) == 9
    assert table.height == 4
    assert len(table.labels()) == 18
    assert all(count == 2 for _, count in table.label_counts())


def test_ks_table_validation():
    with pytest.raises(InputError):
        KsTable(())
    with pytest.raises(InputError):
        KsTable((("a", "b"), ("c",)))
    with pytest.raises(InputError):
        KsTable((("a", "a"),))
    with pytest.raises(InputError):
        KsTable((("a", ""),))
    with pytest.raises(InputError, match="not the string 'AB'"):
        KsTable(("AB", "BA"))


@pytest.mark.parametrize(
    "columns, message",
    [
        (5, "a table must be a sequence of columns, not 5"),
        ((5,), "column 0 must be a sequence of labels, not 5"),
        ((("a", "b"), None), "column 1 must be a sequence of labels, not None"),
    ],
    ids=["table", "column-0", "column-1"],
)
def test_ks_table_rejects_a_non_iterable_column_list(columns, message):
    with pytest.raises(InputError) as exc:
        KsTable(columns)
    assert str(exc.value) == message


@pytest.mark.parametrize("search", [ks_search_colorings, ks_parity_certificate])
def test_ks_searches_need_a_ks_table(search):
    with pytest.raises(InputError, match=f"^{search.__name__} expects a KsTable$"):
        search((("a", "b"),))


def test_full_table_admits_no_coloring():
    table = ks_table()
    assert ks_coloring_candidates(table) == 4**9 == 262_144
    assert ks_search_colorings(table) == []


def test_single_column_has_height_many_colorings():
    table = KsTable((("a", "b", "c", "d"),))
    found = ks_search_colorings(table)
    assert len(found) == 4
    for coloring in found:
        assert coloring.is_valid_for(table)
        assert sum(coloring.as_dict().values()) == 1


def test_two_overlapping_columns_match_brute_force():
    table = KsTable((("a", "b", "c", "d"), ("a", "e", "f", "g")))
    found = ks_search_colorings(table)
    labels = table.labels()
    brute = 0
    for bits in itertools.product((0, 1), repeat=len(labels)):
        values = dict(zip(labels, bits))
        if all(sum(values[l] for l in column) == 1 for column in table.columns):
            brute += 1
    assert brute == 10
    assert len(found) == brute
    assert len({c.assignment for c in found}) == brute
    for coloring in found:
        assert coloring.is_valid_for(table)


def test_coloring_validity_checks():
    table = KsTable((("a", "b"),))
    good = KsColoring((("a", 1), ("b", 0)))
    bad = KsColoring((("a", 0), ("b", 0)))
    missing = KsColoring((("a", 1),))
    assert good.is_valid_for(table)
    assert not bad.is_valid_for(table)
    assert not missing.is_valid_for(table)


def test_coloring_search_guards():
    with pytest.raises(SizeGuardError, match="coloring candidate enumeration"):
        ks_search_colorings(ks_table(), guard=1000)
    wide = KsTable((tuple(f"x{i}" for i in range(31)),))
    assert len(ks_search_colorings(wide)) == 31


def colorings_by_enumeration(table):
    """Reference search: every winner pattern as a bitmask, in
    `itertools.product` order, kept when each column's labels meet the winner
    set in exactly that column's winner.

    The search under test must return exactly the same list in the same order.
    """
    labels = table.labels()
    bit = {label: 1 << k for k, label in enumerate(labels)}
    column_masks = [sum(bit[label] for label in column) for column in table.columns]
    winner_masks = [tuple(bit[label] for label in column) for column in table.columns]
    found = []
    for choice in itertools.product(*winner_masks):
        union = 0
        for winner in choice:
            union |= winner
        if all(mask & union == winner for mask, winner in zip(column_masks, choice)):
            found.append(KsColoring(tuple((label, 1 if bit[label] & union else 0) for label in labels)))
    return found


def random_ks_tables(count, seed):
    """Seeded tables of height 1-4 with 1-6 columns drawn from pools of up to
    10 labels."""
    rng = random.Random(seed)
    for _ in range(count):
        height = rng.randint(1, 4)
        pool = [f"v{i}" for i in range(rng.randint(height, 10))]
        yield KsTable(tuple(tuple(rng.sample(pool, height)) for _ in range(rng.randint(1, 6))))


def test_search_matches_enumeration():
    """Same colorings in the same order as the winner-pattern enumeration:
    on the canonical table, its first k columns, and seeded random tables."""
    canonical = ks_table()
    tables = [canonical] + [KsTable(canonical.columns[:k]) for k in range(1, 10)]
    tables += random_ks_tables(600, seed=9)
    counts = []
    for table in tables:
        found = ks_search_colorings(table)
        assert found == colorings_by_enumeration(table), table.columns
        counts.append(len(found))
    assert counts[0] == 0
    assert sum(count == 0 for count in counts) >= 10
    assert sum(count > 1 for count in counts) >= 300


def test_search_does_not_recurse_per_column():
    table = KsTable(tuple((f"x{i}",) for i in range(3000)))
    assert ks_search_colorings(table) == [KsColoring(tuple((f"x{i}", 1) for i in range(3000)))]


def test_parity_certificate_on_the_full_table():
    report = ks_parity_certificate(ks_table())
    assert report.all_counts_even
    assert report.column_count == 9
    assert report.column_count_odd
    assert report.verdict == "impossible"
    assert report.conclusive


def test_parity_certificate_undecided_cases():
    odd_occurrence = ks_parity_certificate(KsTable((("a", "b"),)))
    assert not odd_occurrence.all_counts_even
    assert odd_occurrence.verdict == "undecided"
    assert not odd_occurrence.conclusive

    even_columns = ks_parity_certificate(KsTable((("a", "b"), ("a", "b"))))
    assert even_columns.all_counts_even
    assert not even_columns.column_count_odd
    assert even_columns.verdict == "undecided"


def test_verify_ks_routes():
    both = verify_ks("both")
    assert both.exchangeability.holds
    assert both.winner_pattern_ok
    assert not both.non_contextuality.holds
    assert both.non_contextuality.witness.where == ("A", "E2")
    assert both.coloring_candidates == 262_144
    assert both.coloring_count == 0
    assert both.parity is not None and both.parity.conclusive
    assert both.confirmed

    coloring_only = verify_ks("coloring")
    assert coloring_only.parity is None
    assert coloring_only.coloring_count == 0
    assert coloring_only.confirmed

    parity_only = verify_ks("parity")
    assert parity_only.coloring_candidates is None
    assert parity_only.parity.conclusive
    assert parity_only.confirmed

    with pytest.raises(InputError):
        verify_ks("graph")


def test_ks_report_round_trips():
    report = verify_ks("both")
    assert json_round_trip(report, KsReport) == report
    parity = ks_parity_certificate(ks_table())
    assert json_round_trip(parity, KsParityReport) == parity
