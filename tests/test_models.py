"""Model core: validation, event probabilities, projection, equivalence."""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import UserString
from decimal import Decimal
from fractions import Fraction

import pytest

from hvw import (
    ConstructionMethod,
    EmpiricalModel,
    Event,
    HiddenVariableModel,
    InputError,
    ModelFormatError,
    NegativeWeightError,
    NullConditioningError,
    PropertyVerdict,
    SignatureMismatchError,
    Site,
    UnknownLabelError,
    WeightSumError,
    Witness,
    bell_model,
    construct_e1,
    construct_e2,
    construct_sv,
    epr_escape_hvm,
    epr_model,
    equivalent_empirical,
    equivalent_hvm,
    equivalent_models,
    generate_random_model,
    grid_sites,
    check_locality,
    check_non_contextuality,
    check_property,
    classify_all,
    local_polytope_feasibility,
    merge_events,
    parse_model,
    project_to_empirical,
    reconstruct_hvm,
    serialize_model,
)
from hvw.models import as_empirical, describe, first_unequal, require
from hvw.nogo import random_strategy_mixture

from conftest import point_mass_model


def test_site_rejects_empty_and_duplicate_labels():
    with pytest.raises(InputError):
        Site("X", (), ("a",))
    with pytest.raises(InputError):
        Site("X", ("M", "M"), ("a", "b"))
    with pytest.raises(InputError):
        Site("", ("M",), ("a",))


def test_empirical_model_validation_errors():
    site = Site("X", ("A",), ("a1", "a2"))
    with pytest.raises(ModelFormatError):
        EmpiricalModel((site,), {(("a1",),): Fraction(1)})
    with pytest.raises(UnknownLabelError):
        EmpiricalModel((site,), {(("zz",), ("A",)): Fraction(1)})
    with pytest.raises(UnknownLabelError):
        EmpiricalModel((site,), {(("a1",), ("B",)): Fraction(1)})
    with pytest.raises(NegativeWeightError):
        EmpiricalModel(
            (site,),
            {(("a1",), ("A",)): Fraction(3, 2), (("a2",), ("A",)): Fraction(-1, 2)},
        )


def test_weight_sum_error_names_the_deficit():
    site = Site("X", ("A",), ("a1", "a2"))
    with pytest.raises(WeightSumError) as exc:
        EmpiricalModel((site,), {(("a1",), ("A",)): Fraction(35, 36)})
    assert "35/36" in str(exc.value)
    assert "short by 1/36" in str(exc.value)


def test_weight_sum_error_names_the_excess():
    site = Site("X", ("A",), ("a1", "a2"))
    with pytest.raises(WeightSumError) as exc:
        EmpiricalModel(
            (site,), {(("a1",), ("A",)): Fraction(1), (("a2",), ("A",)): Fraction(1, 4)}
        )
    assert "over by 1/4" in str(exc.value)


def test_floats_are_rejected_outright():
    site = Site("X", ("A",), ("a1", "a2"))
    with pytest.raises(InputError):
        EmpiricalModel((site,), {(("a1",), ("A",)): 0.5, (("a2",), ("A",)): 0.5})


def test_string_weights_refuse_a_huge_exponent_before_building_it():
    site = Site("X", ("A",), ("a1", "a2"))
    started = time.monotonic()
    for bad in ("1e999999999", "1E+1001", "5e-1_001", "1e" + "9" * 5000):
        with pytest.raises(ModelFormatError, match=r"exponent in .* is beyond ±1000"):
            EmpiricalModel((site,), {(("a1",), ("A",)): bad, (("a2",), ("A",)): "0"})
    assert time.monotonic() - started < 0.5
    within = EmpiricalModel((site,), {(("a1",), ("A",)): "1e-1000", (("a2",), ("A",)): f"{10**1000 - 1}e-1000"})
    assert within.weights[(("a1",), ("A",))] == Fraction(1, 10**1000)


def test_zero_weights_are_dropped_from_support():
    site = Site("X", ("A",), ("a1", "a2"))
    e = EmpiricalModel(
        (site,), {(("a1",), ("A",)): Fraction(1), (("a2",), ("A",)): Fraction(0)}
    )
    assert (("a2",), ("A",)) not in e.weights


def test_duplicate_site_names_rejected():
    site = Site("X", ("A",), ("a1", "a2"))
    with pytest.raises(InputError):
        EmpiricalModel((site, site), {})


def test_event_prob_oracles():
    epr = epr_model()
    assert epr.event_prob(Event(measurements={"a": "A", "b": "B"})) == 1
    assert epr.event_prob(Event()) == 1
    bell = bell_model()
    assert bell.event_prob(Event(measurements={"A": "1", "B": "2"})) == Fraction(1, 9)


def test_event_prob_additive_over_disjoint_outcomes():
    epr = epr_model()
    plus = epr.event_prob(Event(outcomes={"a": "+_a"}))
    minus = epr.event_prob(Event(outcomes={"a": "-_a"}))
    assert plus + minus == 1


def test_event_prob_rejects_unknown_labels():
    epr = epr_model()
    with pytest.raises(UnknownLabelError):
        epr.event_prob(Event(outcomes={"a": "oops"}))
    with pytest.raises(UnknownLabelError):
        epr.event_prob(Event(measurements={"nowhere": "A"}))


def test_empirical_event_prob_rejects_hidden_constraint():
    epr = epr_model()
    assert not hasattr(epr, "lambda_set")
    for call in (
        lambda: epr.event_prob(Event(hidden="l0")),
        lambda: epr.cond_prob(Event(), Event(hidden="l0")),
        lambda: epr.cond_prob(Event(hidden="l0"), Event()),
    ):
        with pytest.raises(InputError, match="^empirical models have no hidden states to condition on$"):
            call()


def test_cond_prob_oracles():
    epr = epr_model()
    given = Event(measurements={"a": "A", "b": "B"})
    assert epr.cond_prob(Event(outcomes={"a": "+_a", "b": "-_b"}), given) == Fraction(1, 2)
    assert epr.cond_prob(Event(outcomes={"a": "+_a", "b": "+_b"}), given) == 0
    bell = bell_model()
    assert bell.cond_prob(
        Event(outcomes={"A": "+", "B": "+"}), Event(measurements={"A": "1", "B": "2"})
    ) == Fraction(3, 8)
    assert (
        bell.cond_prob(
            Event(outcomes={"A": "+", "B": "+"}), Event(measurements={"A": "2", "B": "2"})
        )
        == 0
    )


def test_cond_prob_point_mass():
    e = point_mass_model()
    assert e.cond_prob(
        Event(outcomes={"X": "u", "Y": "v"}), Event(measurements={"X": "M", "Y": "N"})
    ) == 1


def test_cond_prob_null_conditioning_raises():
    e = point_mass_model()
    with pytest.raises(NullConditioningError):
        e.cond_prob(Event(outcomes={"X": "u"}), Event(outcomes={"Y": "u"}))


def test_outcome_distribution_null_context_raises():
    sites = grid_sites(1, 2, 2)
    e = EmpiricalModel(sites, {(("o1",), ("M1",)): Fraction(1)})
    with pytest.raises(NullConditioningError):
        e.outcome_distribution(("M2",))


@pytest.mark.parametrize("size", [1, 200_000])
def test_null_conditioning_echoes_a_long_label_in_part(size):
    label = "N" * size
    h = HiddenVariableModel((Site("a", ("M", label), ("0",)),), ("l",), {(("0",), ("M",), "l"): 1})
    calls = [
        (lambda: h.outcome_distribution((label,)), f"conditioning event {(label,)} has probability 0"),
        (lambda: h.outcome_distribution((label,), "l"), f"conditioning event {((label,), 'l')} has probability 0"),
        (lambda: h.lambda_distribution((label,)), f"context {(label,)} has probability 0"),
        (
            lambda: h.cond_prob(Event(), Event(measurements={"a": label})),
            f"conditioning event has probability 0: {Event(measurements={'a': label})}",
        ),
    ]
    for call, unbounded in calls:
        with pytest.raises(NullConditioningError) as exc:
            call()
        if size == 1:
            assert str(exc.value) == unbounded
        else:
            assert len(str(exc.value).encode()) < 200 < len(unbounded)


def test_contradictory_target_gives_zero_not_error():
    epr = epr_model()
    target = Event(outcomes={"a": "+_a"})
    given = Event(outcomes={"a": "-_a"}, measurements={"a": "A", "b": "B"})
    assert epr.cond_prob(target, given) == 0


def test_merge_events():
    first = Event(outcomes={"a": "+_a"})
    second = Event(measurements={"a": "A"}, hidden="l0")
    merged = merge_events(first, second)
    assert merged == Event(outcomes={"a": "+_a"}, measurements={"a": "A"}, hidden="l0")
    assert merge_events(first, Event(outcomes={"a": "-_a"})) is None
    assert merge_events(second, Event(hidden="l1")) is None


def test_contradicting_measurements_merge_to_nothing():
    first, second = Event(measurements={"A": "1"}), Event(measurements={"A": "2"})
    assert merge_events(first, second) is None
    assert bell_model().cond_prob(first, second) == 0


def test_equal_events_hash_equal():
    first = Event(outcomes={"a": "+_a", "b": "-_b"}, measurements={"a": "A"}, hidden="l0")
    second = Event(outcomes={"b": "-_b", "a": "+_a"}, measurements={"a": "A"}, hidden="l0")
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second, Event()}) == 2


@pytest.mark.parametrize(
    "parts, message",
    [
        ({"outcomes": 5}, "event outcomes must be a mapping, not 5"),
        ({"measurements": "ab"}, "event measurements must be a mapping, not 'ab'"),
    ],
    ids=["outcomes-an-int", "measurements-a-string"],
)
def test_event_rejects_parts_that_are_not_mappings(parts, message):
    with pytest.raises(InputError) as exc:
        Event(**parts)
    assert str(exc.value) == message


def test_total_probability_identity_over_hidden_states():
    for seed in range(10):
        h = generate_random_model(seed, grid_sites(2, 2, 2), lambda_size=3)
        for context in h.context_weights():
            ctx_event = Event(
                measurements={s.name: m for s, m in zip(h.sites, context)}
            )
            for outcome, q in h.outcome_distribution(context).items():
                out_event = Event(outcomes={s.name: a for s, a in zip(h.sites, outcome)})
                total = Fraction(0)
                for lam, lam_p in h.lambda_distribution(context).items():
                    pinned = Event(
                        measurements=dict(ctx_event.measurements), hidden=lam
                    )
                    total += h.cond_prob(out_event, pinned) * lam_p
                assert total == q


def test_lambda_distribution_matches_conditional_probability():
    seeded = [
        generate_random_model(seed, grid_sites(*shape), lambda_size=lam)
        for seed in range(5)
        for shape, lam in (((2, 2, 2), 3), ((3, 2, 2), 2), ((1, 3, 2), 4))
    ]
    completions = [
        construct_e2(generate_random_model(seed, grid_sites(*shape)))
        for seed in range(5)
        for shape in ((2, 2, 2), (2, 3, 2))
    ]
    for h in seeded + completions:
        for context in h.context_weights():
            given = Event(measurements={s.name: m for s, m in zip(h.sites, context)})
            expected = {}
            for lam in h.lambda_set:
                p = h.cond_prob(Event(hidden=lam), given)
                if p:
                    expected[lam] = p
            assert h.lambda_distribution(context) == expected


def test_hidden_model_validation():
    sites = (Site("X", ("M",), ("0", "1")),)
    with pytest.raises(UnknownLabelError):
        HiddenVariableModel(sites, ("l0",), {(("0",), ("M",), "l9"): Fraction(1)})
    with pytest.raises(ModelFormatError):
        HiddenVariableModel(sites, ("l0",), {(("0",), ("M",)): Fraction(1)})
    with pytest.raises(InputError):
        HiddenVariableModel(sites, (), {})


def test_projection_of_escape_model_is_the_anticorrelated_pair():
    assert project_to_empirical(epr_escape_hvm()) == epr_model()


def test_projection_of_singleton_model_drops_hidden_state():
    e = bell_model()
    assert project_to_empirical(construct_sv(e)) == e


def test_projection_is_equivalent_to_the_model_it_came_from():
    for seed in range(100):
        shape = grid_sites(1 + seed % 2, 1 + seed % 3, 2 + seed % 2)
        h = generate_random_model(seed, shape, lambda_size=1 + seed % 4)
        assert equivalent_empirical(project_to_empirical(h), h).holds


def test_equivalence_oracles():
    epr = epr_model()
    assert equivalent_empirical(epr, epr_escape_hvm()).holds
    assert equivalent_empirical(epr, construct_sv(epr)).holds


def test_equivalence_catches_a_skewed_copy():
    epr = epr_model()
    skewed = HiddenVariableModel(
        epr.sites,
        ("l0",),
        {
            (("+_a", "-_b"), ("A", "B"), "l0"): Fraction(1, 3),
            (("-_a", "+_b"), ("A", "B"), "l0"): Fraction(2, 3),
        },
    )
    verdict = equivalent_empirical(epr, skewed)
    assert not verdict.holds
    witness = verdict.witness
    assert witness.lhs == Fraction(1, 2)
    assert witness.rhs == Fraction(1, 3)
    assert witness.where == ("A", "B", "+_a", "-_b")


def test_equivalence_catches_nullness_mismatch():
    sites = grid_sites(1, 2, 2)
    left = EmpiricalModel(sites, {(("o1",), ("M1",)): Fraction(1)})
    right = EmpiricalModel(
        sites,
        {(("o1",), ("M1",)): Fraction(1, 2), (("o1",), ("M2",)): Fraction(1, 2)},
    )
    verdict = equivalent_models(left, right)
    assert not verdict.holds
    assert verdict.witness.where == ("M2",)


def test_equivalent_hvm_relation_properties():
    e = bell_model()
    completions = [construct_sv(e), construct_e1(e), construct_e2(e)]
    for h in completions:
        assert equivalent_hvm(h, h).holds
    for first in completions:
        for second in completions:
            assert equivalent_hvm(first, second).holds == equivalent_hvm(second, first).holds
            assert equivalent_hvm(first, second).holds


def test_equivalence_signature_mismatch():
    with pytest.raises(SignatureMismatchError):
        equivalent_models(epr_model(), bell_model())


def test_equivalence_type_guards():
    epr = epr_model()
    with pytest.raises(InputError):
        equivalent_empirical(construct_sv(epr), epr)
    with pytest.raises(InputError):
        equivalent_hvm(epr, construct_sv(epr))


def test_witness_requires_disagreement():
    with pytest.raises(ValueError):
        Witness("p(x)", "p(y)", Fraction(1, 2), Fraction(1, 2))


def test_verdict_requires_witness_exactly_on_failure():
    witness = Witness("p(x)", "p(y)", Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        PropertyVerdict(True, witness)
    with pytest.raises(ValueError):
        PropertyVerdict(False, None)
    assert PropertyVerdict(False, witness).describe().startswith("fails: ")
    assert PropertyVerdict(True).describe() == "holds"


def test_verdict_round_trips_through_dict():
    witness = Witness("p(x)", "p(y)", Fraction(1, 3), Fraction(2, 3), where=("c",))
    for verdict in (PropertyVerdict(True), PropertyVerdict(False, witness)):
        assert PropertyVerdict.from_dict(verdict.to_dict()) == verdict


def test_lambda_distribution_and_masses():
    h = epr_escape_hvm()
    dist = h.lambda_distribution(("A", "B"))
    assert dist == {"l1": Fraction(1, 2), "l2": Fraction(1, 2)}


# ---------------------------------------------------------------------------
# Both model kinds validate their weight tables alike

KINDS = ("empirical", "hidden")


def build(kind: str, weights: dict, sites=None, lambda_set=("l0",)):
    """A model of the given kind; hidden tuple keys gain the state "l0"."""
    if sites is None:
        sites = (Site("X", ("A", "B"), ("0", "1")), Site("Y", ("C",), ("0", "1")))
    if kind == "empirical":
        return EmpiricalModel(sites, weights)
    if isinstance(weights, dict):
        weights = {key + ("l0",) if isinstance(key, tuple) else key: value for key, value in weights.items()}
    return HiddenVariableModel(sites, lambda_set, weights)


# Each case: weights, the error, its exact message (or one per kind) and,
# optionally, the sites in place of the default two. In a message, {lam}
# stands for the hidden state a hidden-kind key gains (", 'l0'") and {shape}
# for the key shape the kind expects.
_RATIONALS = 'exact rationals are ints, Fractions and strings like "3/8"'
VALIDATION_CASES = {
    "key-too-short": (
        {(("0", "1"),): 1},
        ModelFormatError,
        {
            "empirical": "weight key (('0', '1'),) is not an {shape}",
            "hidden": "weight key (('0', '1'), 'l0') is not an {shape}",
        },
    ),
    "key-too-long": (
        {(("0", "1"), ("A", "C"), "x"): 1},
        ModelFormatError,
        "weight key (('0', '1'), ('A', 'C'), 'x'{lam}) is not an {shape}",
    ),
    "key-not-a-tuple": ({5: 1}, ModelFormatError, "weight key 5 is not an {shape}"),
    "key-endless": ({itertools.repeat("0"): 1}, ModelFormatError, "weight key repeat('0') is not an {shape}"),
    "outcome-length": ({(("0",), ("A", "C")): 1}, ModelFormatError, "('0',) does not have one outcome per site"),
    "context-length": (
        {(("0", "1"), ("A",)): 1},
        ModelFormatError,
        "('A',) does not have one measurement per site",
    ),
    "unknown-outcome": ({(("0", "9"), ("A", "C")): 1}, UnknownLabelError, "unknown outcome '9' at site 'Y'"),
    "unknown-measurement": (
        {(("0", "1"), ("Z", "C")): 1},
        UnknownLabelError,
        "unknown measurement 'Z' at site 'X'",
    ),
    "non-string-outcome": ({(("0", 1), ("A", "C")): 1}, UnknownLabelError, "unknown outcome 1 at site 'Y'"),
    "string-like-outcome": (
        {(("0", UserString("1")), ("A", "C")): 1},
        UnknownLabelError,
        "unknown outcome '1' at site 'Y'",
    ),
    "string-outcome": (
        {("01", ("A", "C")): 1},
        ModelFormatError,
        "'01' is a string, not a sequence of outcomes, one per site",
    ),
    "string-context": (
        {(("0", "1"), "AC"): 1},
        ModelFormatError,
        "'AC' is a string, not a sequence of measurements, one per site",
    ),
    "non-iterable-outcome": (
        {(5, ("A", "C")): 1},
        ModelFormatError,
        "5 is not a sequence of outcomes, one per site",
    ),
    "non-iterable-context": (
        {(("0", "1"), 5): 1},
        ModelFormatError,
        "5 is not a sequence of measurements, one per site",
    ),
    "negative-weight": (
        {(("0", "0"), ("A", "C")): Fraction(3, 2), (("0", "1"), ("A", "C")): Fraction(-1, 2)},
        NegativeWeightError,
        "negative weight -1/2 at (('0', '1'), ('A', 'C'){lam})",
    ),
    "sum-short": (
        {(("0", "0"), ("A", "C")): Fraction(35, 36)},
        WeightSumError,
        "weights sum to 35/36, not 1 (short by 1/36)",
    ),
    "sum-over": (
        {(("0", "0"), ("A", "C")): 1, (("1", "1"), ("B", "C")): Fraction(1, 4)},
        WeightSumError,
        "weights sum to 5/4, not 1 (over by 1/4)",
    ),
    "float-weight": (
        {(("0", "0"), ("A", "C")): 0.5, (("1", "1"), ("A", "C")): 0.5},
        InputError,
        f"weight at (('0', '0'), ('A', 'C'){{lam}}) is not a finite rational: 0.5; {_RATIONALS}",
    ),
    "not-a-rational": (
        {(("0", "0"), ("A", "C")): "half"},
        ModelFormatError,
        "weight at (('0', '0'), ('A', 'C'){lam}) is not a finite rational: 'half'",
    ),
    "bool-weight": (
        {(("0", "0"), ("A", "C")): True},
        ModelFormatError,
        f"weight at (('0', '0'), ('A', 'C'){{lam}}) is not a finite rational: True; {_RATIONALS}",
    ),
    "decimal-weight": (
        {(("0", "0"), ("A", "C")): Decimal("0.5"), (("1", "1"), ("A", "C")): Decimal("0.5")},
        ModelFormatError,
        f"weight at (('0', '0'), ('A', 'C'){{lam}}) is not a finite rational: Decimal('0.5'); {_RATIONALS}",
    ),
    "huge-decimal-weight": (
        {(("0", "0"), ("A", "C")): Decimal("1e999999999")},
        ModelFormatError,
        f"weight at (('0', '0'), ('A', 'C'){{lam}}) is not a finite rational: Decimal('1E+999999999'); {_RATIONALS}",
    ),
    "weights-not-a-mapping": (5, InputError, "a model needs a mapping of weights, not 5"),
    "weights-a-list": ([1], InputError, "a model needs a mapping of weights, not [1]"),
    "sites-not-a-sequence": ({}, InputError, "a model needs a sequence of sites, not 5", 5),
}
_SHAPES = {"empirical": "(outcome, context) pair", "hidden": "(outcome, context, hidden) triple"}


@pytest.mark.parametrize("case", sorted(VALIDATION_CASES))
@pytest.mark.parametrize("kind", KINDS)
def test_weight_table_validation_for_both_kinds(kind, case):
    weights, error, message, *sites = VALIDATION_CASES[case]
    with pytest.raises(error) as exc:
        build(kind, weights, *sites)
    if isinstance(message, dict):
        message = message[kind]
    lam = ", 'l0'" if kind == "hidden" else ""
    assert str(exc.value) == message.format(lam=lam, shape=_SHAPES[kind])


@pytest.mark.parametrize("kind", KINDS)
def test_site_list_validation_for_both_kinds(kind):
    site = Site("X", ("A",), ("0", "1"))
    with pytest.raises(InputError, match="at least one site"):
        build(kind, {}, sites=())
    with pytest.raises(InputError, match="expected a Site"):
        build(kind, {}, sites=("X",))
    with pytest.raises(InputError, match="duplicate site names"):
        build(kind, {}, sites=(site, site))


@pytest.mark.parametrize("kind", KINDS)
def test_negative_weight_error_names_the_cell(kind):
    with pytest.raises(NegativeWeightError) as exc:
        build(kind, VALIDATION_CASES["negative-weight"][0])
    expected = (("0", "1"), ("A", "C")) + (("l0",) if kind == "hidden" else ())
    assert exc.value.key == expected
    assert exc.value.value == Fraction(-1, 2)


@pytest.mark.parametrize("kind", KINDS)
def test_lists_are_accepted_as_outcomes_and_contexts(kind):
    model = build(kind, {(("0", "1"), ("A", "C")): 1})
    assert model.check_outcome_tuple(["0", "1"]) == ("0", "1")
    assert model.check_context(["A", "C"]) == ("A", "C")
    assert model.outcome_distribution(["A", "C"]) == {("0", "1"): 1}


@pytest.mark.parametrize("kind", KINDS)
def test_outcome_distribution_rejects_a_string_context(kind):
    model = build(kind, {(("0", "1"), ("A", "C")): 1})
    assert model.outcome_distribution(("A", "C")) == {("0", "1"): 1}
    with pytest.raises(ModelFormatError, match="'AC'"):
        model.outcome_distribution("AC")


def test_site_rejects_strings_as_label_lists():
    with pytest.raises(InputError, match="'MN'"):
        Site("x", "MN", ("0", "1"))
    with pytest.raises(InputError, match="'01'"):
        Site("x", ("M", "N"), "01")
    assert Site("x", ["M", "N"], ["0", "1"]).measurements == ("M", "N")


def test_hidden_model_rejects_a_string_as_its_state_set():
    sites = (Site("X", ("M",), ("0", "1")),)
    with pytest.raises(InputError, match="'lm'"):
        HiddenVariableModel(sites, "lm", {(("0",), ("M",), "l"): 1})
    assert HiddenVariableModel(sites, ["l", "m"], {(("0",), ("M",), "l"): 1}).lambda_set == ("l", "m")


@pytest.mark.parametrize("kind", KINDS)
def test_lookups_reject_a_non_iterable_label_list(kind):
    model = build(kind, {(("0", "1"), ("A", "C")): 1})
    calls = [model.check_context, model.outcome_distribution]
    if kind == "hidden":
        calls += [model.lambda_distribution, lambda context: model.outcome_distribution(context, "l0")]
    for call in calls:
        with pytest.raises(ModelFormatError) as exc:
            call(5)
        assert str(exc.value) == "5 is not a sequence of measurements, one per site"
    with pytest.raises(ModelFormatError) as exc:
        model.check_outcome_tuple(5)
    assert str(exc.value) == "5 is not a sequence of outcomes, one per site"


@pytest.mark.parametrize(
    "declare, message",
    [
        (lambda: Site("x", 5, ("0",)), "site x: measurements must be a sequence of labels, not 5"),
        (lambda: Site("x", ("M",), None), "site x: outcomes must be a sequence of labels, not None"),
        (
            lambda: HiddenVariableModel((Site("X", ("M",), ("0",)),), 5, {}),
            "hidden state set must be a sequence of labels, not 5",
        ),
    ],
    ids=["site-measurements", "site-outcomes", "hidden-state-set"],
)
def test_declarations_reject_a_non_iterable_label_list(declare, message):
    with pytest.raises(InputError) as exc:
        declare()
    assert str(exc.value) == message


@pytest.mark.parametrize("kind", KINDS)
def test_a_valid_tuple_key_is_stored_as_given_and_ranked_canonically(kind):
    sites = (Site("X", ("B", "A"), ("1", "0")), Site("Y", ("C",), ("0", "1")))
    keys = [(("0", "1"), ("A", "C")), (("1", "1"), ("B", "C")), (("0", "0"), ("B", "C")), (("1", "0"), ("A", "C"))]
    if kind == "empirical":
        model = EmpiricalModel(sites, {key: Fraction(1, 4) for key in keys})
    else:
        keys = [key + ("l0",) for key in keys]
        model = HiddenVariableModel(sites, ("l0",), {key: Fraction(1, 4) for key in keys})
    # Declared order is B before A and 1 before 0: by context, then outcome.
    order = [keys[1], keys[2], keys[3], keys[0]]
    assert list(model.weights) == order
    assert all(stored is given for stored, given in zip(model.weights, order))
    assert model.check_context(keys[0][1]) is keys[0][1]
    assert model.check_outcome_tuple(keys[0][0]) is keys[0][0]


def test_hidden_outcome_distribution_given_a_state():
    h = epr_escape_hvm()
    assert h.outcome_distribution(["A", "B"], "l1") == h.outcome_distribution(("A", "B"), "l1")
    with pytest.raises(ModelFormatError):
        h.outcome_distribution("AB", "l1")
    with pytest.raises(UnknownLabelError):
        h.outcome_distribution(("A", "B"), "l9")
    with pytest.raises(UnknownLabelError):
        h.outcome_distribution(("A", "B"), ["l1"])


def test_model_kinds_are_siblings():
    e = epr_model()
    h = construct_sv(e)
    assert not isinstance(e, HiddenVariableModel)
    assert not isinstance(h, EmpiricalModel)
    assert e != h and h != e
    assert h == construct_sv(epr_model())
    with pytest.raises(TypeError):
        hash(e)
    with pytest.raises(TypeError):
        hash(h)


# ---------------------------------------------------------------------------
# Canonical order: storage and every view, whatever order the weights came in

ORDER_SITES = (Site("b", ("Y", "X"), ("1", "0")), Site("a", ("Q", "P", "R"), ("-", "+")))
ORDER_STATES = ("z", "y", "x")


def _rank(labels, values) -> tuple[int, ...]:
    return tuple(declared.index(v) for declared, v in zip(labels, values))


def _context_rank(context) -> tuple[int, ...]:
    return _rank([s.measurements for s in ORDER_SITES], context)


def _outcome_rank(outcome) -> tuple[int, ...]:
    return _rank([s.outcomes for s in ORDER_SITES], outcome)


def _shuffled_weights(seed: int, hidden: bool) -> dict:
    """Random positive weights on about two thirds of the cells, inserted in a
    shuffled order."""
    rng = random.Random(seed)
    cells = [
        (outcome, context) + ((lam,) if hidden else ())
        for outcome in itertools.product(*(s.outcomes for s in ORDER_SITES))
        for context in itertools.product(*(s.measurements for s in ORDER_SITES))
        for lam in (ORDER_STATES if hidden else ("",))
    ]
    counts = {cell: rng.randint(1, 5) for cell in cells if rng.random() < 0.66}
    total = sum(counts.values())
    keys = list(counts)
    rng.shuffle(keys)
    return {key: Fraction(counts[key], total) for key in keys}


def _in_order(keys, rank) -> bool:
    keys = list(keys)
    return keys == sorted(keys, key=rank)


@pytest.mark.parametrize("seed", range(6))
def test_weights_and_views_iterate_in_canonical_order(seed):
    e = EmpiricalModel(ORDER_SITES, _shuffled_weights(seed, hidden=False))
    assert _in_order(e.weights, lambda key: (_context_rank(key[1]), _outcome_rank(key[0])))
    assert _in_order(e.context_weights(), _context_rank)
    for context in e.context_weights():
        assert _in_order(e.outcome_distribution(context), _outcome_rank)
    assert _in_order(e.context_distributions(), _context_rank)
    for row in e.context_distributions().values():
        assert _in_order(row, _outcome_rank)

    h = HiddenVariableModel(ORDER_SITES, ORDER_STATES, _shuffled_weights(seed, hidden=True))
    lam_rank = ORDER_STATES.index
    assert _in_order(
        h.weights, lambda key: (_context_rank(key[1]), _outcome_rank(key[0]), lam_rank(key[2]))
    )
    assert _in_order(h.context_weights(), _context_rank)
    assert _in_order(h.context_lambda_weights(), lambda key: (_context_rank(key[0]), lam_rank(key[1])))
    for context in h.context_weights():
        assert _in_order(h.outcome_distribution(context), _outcome_rank)
        assert _in_order(h.lambda_distribution(context), lam_rank)
    for context, lam in h.context_lambda_weights():
        assert _in_order(h.outcome_distribution(context, lam), _outcome_rank)
    assert _in_order(h.context_distributions(), _context_rank)
    for row in h.context_distributions().values():
        assert _in_order(row, _outcome_rank)
    assert _in_order(
        h.context_lambda_distributions(), lambda key: (_context_rank(key[0]), lam_rank(key[1]))
    )
    for row in h.context_lambda_distributions().values():
        assert _in_order(row, _outcome_rank)
    responses = h.site_responses()
    assert _in_order(
        responses, lambda key: (key[0], ORDER_SITES[key[0]].measurements.index(key[1]), lam_rank(key[2]))
    )
    for (i, _, _), response in responses.items():
        assert _in_order(response, ORDER_SITES[i].outcomes.index)

    # Every route that makes a model stores it in canonical order, so its
    # context table lists contexts, and each row its outcomes, canonically:
    # the equivalence scan reads two tables with equal keys as stored.
    data = json.loads(serialize_model(h))
    random.Random(seed).shuffle(data["weights"])
    r = generate_random_model(seed, ORDER_SITES)
    made = [parse_model(json.dumps(data)), project_to_empirical(h), r, generate_random_model(seed, ORDER_SITES, 3)]
    made += [construct_e1(r), construct_e2(r), construct_sv(r)]
    made.append(local_polytope_feasibility(project_to_empirical(random_strategy_mixture(seed, ORDER_SITES))).hvm)
    assert made[0] == h
    for model in made:
        table = model._context_table()
        assert _in_order(table, _context_rank)
        for _, row in table.values():
            assert _in_order(row, _outcome_rank)


def _row_view_models() -> list:
    """Seeded random models of both kinds, strategy mixtures and the e1, e2
    and sv completions of the empirical ones."""
    found = []
    for seed in range(4):
        for shape in ((1, 2, 2), (2, 2, 2), (2, 2, 3)):
            sites = grid_sites(*shape)
            e = generate_random_model(seed, sites)
            found += [e, generate_random_model(seed, sites, lambda_size=3), random_strategy_mixture(seed, sites)]
            found += [construct_e1(e), construct_e2(e), construct_sv(e)]
    return found


def _given(model, context, lam=None) -> Event:
    return Event(measurements={s.name: m for s, m in zip(model.sites, context)}, hidden=lam)


def _cond_prob_row(model, context, lam=None) -> dict:
    """p(o | context[, λ]) of every positive outcome tuple, by `cond_prob`."""
    given = _given(model, context, lam)
    row = {}
    for outcome in model.outcome_tuples():
        p = model.cond_prob(Event(outcomes={s.name: a for s, a in zip(model.sites, outcome)}), given)
        if p:
            row[outcome] = p
    return row


def test_row_views_match_conditional_probability():
    for model in _row_view_models():
        rows = model.context_distributions()
        assert list(rows) == [c for c in model.context_tuples() if model.event_prob(_given(model, c))]
        for context, row in rows.items():
            assert dict(row) == _cond_prob_row(model, context)
            assert row == model.outcome_distribution(context)
        if isinstance(model, HiddenVariableModel):
            rows = model.context_lambda_distributions()
            assert list(rows) == [
                (c, lam)
                for c in model.context_tuples()
                for lam in model.lambda_set
                if model.event_prob(_given(model, c, lam))
            ]
            for (context, lam), row in rows.items():
                assert dict(row) == _cond_prob_row(model, context, lam)
                assert row == model.outcome_distribution(context, lam)


@pytest.mark.parametrize("kind", KINDS)
def test_row_views_are_read_only(kind):
    model = epr_model() if kind == "empirical" else epr_escape_hvm()
    views = [model.context_distributions()]
    if kind == "hidden":
        views.append(model.context_lambda_distributions())
    for view in views:
        key, row = next(iter(view.items()))
        with pytest.raises(TypeError):
            view[key] = {}
        with pytest.raises(TypeError):
            row[next(iter(row))] = Fraction(0)
        with pytest.raises(TypeError):
            del view[key]


def test_site_responses_are_the_own_measurement_conditionals():
    h = HiddenVariableModel(ORDER_SITES, ORDER_STATES, _shuffled_weights(7, hidden=True))
    responses = h.site_responses()
    for i, site in enumerate(ORDER_SITES):
        for m in site.measurements:
            for lam in ORDER_STATES:
                given = Event(measurements={site.name: m}, hidden=lam)
                if h.event_prob(given) == 0:
                    assert (i, m, lam) not in responses
                    continue
                expected = {
                    a: p
                    for a in site.outcomes
                    if (p := h.cond_prob(Event(outcomes={site.name: a}), given))
                }
                assert dict(responses[(i, m, lam)]) == expected


def test_site_responses_list_outcomes_in_declared_order():
    """Storage order sorts by the first site's outcome before the second's,
    so the second site meets "o2" before "o1"; its response still lists
    them as declared."""
    sites = (Site("X", ("A",), ("x0", "x1")), Site("Y", ("B",), ("o1", "o2")))
    half = Fraction(1, 2)
    weights = {(("x1", "o1"), ("A", "B"), "l"): half, (("x0", "o2"), ("A", "B"), "l"): half}
    h = HiddenVariableModel(sites, ("l",), weights)
    assert [outcome[1] for outcome, _, _ in h.weights] == ["o2", "o1"]
    responses = h.site_responses()
    assert list(responses) == [(0, "A", "l"), (1, "B", "l")]
    assert list(responses[(0, "A", "l")].items()) == [("x0", half), ("x1", half)]
    assert list(responses[(1, "B", "l")].items()) == [("o1", half), ("o2", half)]


# ---------------------------------------------------------------------------
# The one-pass table build and the stored-order equivalence scan, against
# the forms they replaced


def _reference_totalled(rows):
    return {key: (sum(row.values()), row) for key, row in rows.items()}


def _reference_declared(row, index):
    return row if len(row) == 1 else {a: row[a] for a in sorted(row, key=index.__getitem__)}


def _reference_build_tables(self) -> None:
    """`HiddenVariableModel._build_tables` before the one-pass build: a
    (site, measurement, state) key for each site of every weight, then one
    sort of every response key."""
    rows: dict = {}
    by_context: dict = {}
    responses: dict = {}
    for (outcome, context, lam), n in self._weights.items():
        row = rows.setdefault(context, {})
        row[outcome] = row.get(outcome, 0) + n
        by_context.setdefault(context, {}).setdefault(lam, {})[outcome] = n
        for i, m in enumerate(context):
            response = responses.setdefault((i, m, lam), {})
            response[outcome[i]] = response.get(outcome[i], 0) + n
    # Storage order sorts the contexts, not the hidden states within one
    # nor the outcomes of one site; a row sorts only its own outcomes.
    rank = self._lambda_index.__getitem__
    self._ctx_table = _reference_totalled(rows)
    self._lambda_rows = _reference_totalled(
        {(c, lam): by_lambda[lam] for c, by_lambda in by_context.items() for lam in sorted(by_lambda, key=rank)}
    )
    order = sorted(responses, key=lambda k: (k[0], self._meas_index[k[0]][k[1]], rank(k[2])))
    self._responses = _reference_totalled({k: _reference_declared(responses[k], self._out_index[k[0]]) for k in order})


def _layout(table) -> list:
    """A count table as nested lists, so that equal layouts mean equal keys
    in the same order, and equal rows listing their items in the same order."""
    return [(key, mass, list(row.items())) for key, (mass, row) in table.items()]


def _with_null_contexts(model):
    """`model` with every second context in canonical order made null, the
    rest renormalized: a model of the same kind whose first null context is
    not its first."""
    weights = model.weights
    contexts = {key[1] for key in weights}
    kept = [c for c in model.context_tuples() if c in contexts][::2]
    total = sum(p for key, p in weights.items() if key[1] in kept)
    kept_weights = {key: p / total for key, p in weights.items() if key[1] in kept}
    if isinstance(model, HiddenVariableModel):
        return HiddenVariableModel(model.sites, model.lambda_set, kept_weights)
    return EmpiricalModel(model.sites, kept_weights)


def _states_out_of_rank() -> HiddenVariableModel:
    """Storage order puts outcome "a" first, so in each context state "l1"
    is met before "l0", and in each response slot too."""
    site = Site("X", ("x", "y"), ("a", "b"))
    quarter = Fraction(1, 4)
    weights = {
        (("a",), ("x",), "l1"): quarter,
        (("b",), ("x",), "l0"): quarter,
        (("a",), ("y",), "l1"): quarter,
        (("b",), ("y",), "l0"): quarter,
    }
    return HiddenVariableModel((site,), ("l0", "l1"), weights)


CORPUS_SHAPES = ((1, 1, 2), (1, 3, 3), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2))


def _table_build_models() -> list[HiddenVariableModel]:
    found = []
    for seed in range(2):
        for shape in CORPUS_SHAPES:
            sites = grid_sites(*shape)
            e = generate_random_model(seed, sites)
            found += [generate_random_model(seed, sites, lambda_size=size) for size in (2, 3)]
            found += [construct_e1(e), construct_e2(e), construct_sv(e)]
    for seed in range(3):
        for shape in ((2, 2, 2), (2, 3, 2), (3, 2, 2)):
            control = project_to_empirical(random_strategy_mixture(seed, grid_sites(*shape)))
            found.append(local_polytope_feasibility(control).hvm)
    found.append(_with_null_contexts(generate_random_model(0, grid_sites(2, 3, 2), lambda_size=3)))
    found.append(_states_out_of_rank())
    return found


def test_the_one_pass_table_build_matches_the_reference():
    """The context, (context, state) and response tables equal those of the
    earlier build in keys, key order, row contents and row order."""
    models = _table_build_models()
    assert sum(m.n_context_tuples() > len(m.context_weights()) for m in models) >= 1
    for model in models:
        reference = HiddenVariableModel.__new__(HiddenVariableModel)
        reference.__dict__.update(model.__dict__)
        _reference_build_tables(reference)
        model._context_table()
        for name in ("_ctx_table", "_lambda_rows", "_responses"):
            assert _layout(getattr(model, name)) == _layout(getattr(reference, name)), (model, name)
    out_of_rank = models[-1]
    assert [key[2] for key in out_of_rank.weights] == ["l1", "l0", "l1", "l0"]
    assert list(out_of_rank.site_responses()) == [(0, "x", "l0"), (0, "x", "l1"), (0, "y", "l0"), (0, "y", "l1")]


def _reference_agreement(left, right) -> PropertyVerdict:
    """`_prediction_agreement` before the stored-order scan: contexts, then
    each context's outcomes, always as the sorted union of both sides."""
    left_table, right_table = left._context_table(), right._context_table()
    for context in sorted(set(left_table) | set(right_table), key=left.context_sort_key):
        left_mass, left_row = left_table.get(context, (0, {}))
        right_mass, right_row = right_table.get(context, (0, {}))
        if not left_mass or not right_mass:
            ctx_desc = describe(left.sites, context)
            return PropertyVerdict(
                False,
                Witness(
                    lhs_desc=f"left p({ctx_desc})",
                    rhs_desc=f"right p({ctx_desc})",
                    lhs=Fraction(left_mass, left._denominator),
                    rhs=Fraction(right_mass, right._denominator),
                    where=tuple(context),
                ),
            )
        outcomes = sorted(set(left_row) | set(right_row), key=left.outcome_sort_key)
        found = first_unequal(outcomes, left_row, left_mass, right_row, right_mass)
        if found:
            outcome, lhs, rhs = found
            desc = f"p({describe(left.sites, outcome)} | {describe(left.sites, context)})"
            return PropertyVerdict(
                False,
                Witness(
                    lhs_desc=f"left {desc}",
                    rhs_desc=f"right {desc}",
                    lhs=lhs,
                    rhs=rhs,
                    where=tuple(context) + tuple(outcome),
                ),
            )
    return PropertyVerdict(True)


def _full_support_table(moves=()) -> EmpiricalModel:
    """Every cell of ORDER_SITES positive, with distinct counts; each
    (context, from, to) of `moves` shifts one count between two outcomes of
    that context, and a count of 0 drops the cell."""
    counts = {
        (o, c): 1 + k
        for k, (o, c) in enumerate(
            itertools.product(
                itertools.product(*(s.outcomes for s in ORDER_SITES)),
                itertools.product(*(s.measurements for s in ORDER_SITES)),
            )
        )
    }
    for context, source, target, n in moves:
        counts[(source, context)] -= n
        counts[(target, context)] += n
    total = sum(counts.values())
    return EmpiricalModel(ORDER_SITES, {key: Fraction(n, total) for key, n in counts.items()})


def test_the_stored_order_scan_gives_the_sorted_union_verdicts():
    """Equal key sets (holding, then failing on a value), different context
    sets with a null context after the first stored, and different outcome
    supports: both scans give the same verdict and witness, either way
    round and through each `equivalent_*`."""
    base = _full_support_table()
    contexts, outcomes = list(base.context_weights()), list(base.outcome_tuples())
    later = contexts[2]
    value = _full_support_table([(later, outcomes[1], outcomes[2], 1)])
    support = _full_support_table([(later, outcomes[1], outcomes[2], base._weights[(outcomes[1], later)])])
    null = _with_null_contexts(base)
    assert list(null.context_weights()) == contexts[::2] and contexts[1] not in null.context_weights()
    assert set(support.context_distributions()[later]) < set(outcomes)
    pairs = [(base, construct_sv(base)), (base, value), (base, null), (base, support), (null, construct_e1(base))]
    holds = []
    for left, right in pairs:
        for a, b in ((left, right), (right, left)):
            expected = _reference_agreement(a, b)
            verdict = equivalent_models(a, b)
            assert verdict.holds == expected.holds
            assert (verdict.witness and verdict.witness.to_dict()) == (expected.witness and expected.witness.to_dict())
            if isinstance(a, HiddenVariableModel) and isinstance(b, HiddenVariableModel):
                assert equivalent_hvm(a, b) == verdict
            elif isinstance(b, HiddenVariableModel):
                assert equivalent_empirical(a, b) == verdict
            holds.append(verdict.holds)
    assert holds == [True, True] + [False] * 8


# ---------------------------------------------------------------------------
# Unhashable labels are input errors, not raw TypeErrors


class _Pairs(list):
    """A weight table given as (key, weight) pairs, so a key need not be hashable."""

    def items(self):
        return iter(self)


def test_check_context_rejects_an_unhashable_label():
    with pytest.raises(UnknownLabelError, match=r"\['A'\]"):
        epr_model().check_context([["A"], "B"])


def test_outcome_distribution_rejects_an_unhashable_label():
    with pytest.raises(UnknownLabelError, match=r"\['A'\]"):
        epr_model().outcome_distribution([["A"], "B"])
    with pytest.raises(UnknownLabelError):
        epr_escape_hvm().outcome_distribution([["A"], "B"], "l1")


def test_event_prob_rejects_an_unhashable_label():
    with pytest.raises(UnknownLabelError, match=r"\['x'\]"):
        epr_model().event_prob(Event(outcomes={"a": ["x"]}))
    with pytest.raises(UnknownLabelError):
        epr_model().event_prob(Event(measurements={"a": ["A"]}))
    with pytest.raises(UnknownLabelError):
        epr_model().site_index(["a"])


@pytest.mark.parametrize("kind", KINDS)
def test_weight_keys_given_as_lists_or_string_subclasses_are_stored_as_tuples(kind):
    class Label(str):
        pass

    e = epr_model()
    key = (["+_a", Label("-_b")], ["A", "B"])
    if kind == "empirical":
        model = EmpiricalModel(e.sites, _Pairs([(key, 1)]))
    else:
        model = HiddenVariableModel(e.sites, ("l",), _Pairs([(key + ("l",), 1)]))
    (stored,) = model.weights
    assert stored[:2] == (("+_a", "-_b"), ("A", "B"))
    assert all(type(part) is tuple for part in stored[:2])


@pytest.mark.parametrize("kind", KINDS)
def test_weight_key_with_unhashable_labels_is_rejected(kind):
    e = epr_model()
    key = ((["+_a"], "-_b"), ("A", "B"))
    with pytest.raises(UnknownLabelError):
        if kind == "empirical":
            EmpiricalModel(e.sites, _Pairs([(key, 1)]))
        else:
            HiddenVariableModel(e.sites, ("l",), _Pairs([(key + ("l",), 1)]))


# ---------------------------------------------------------------------------
# One gate for every operation that takes one model kind


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: check_locality(epr_model()), "locality needs a hidden-variable model, not an empirical model"),
        (lambda: check_property(epr_model(), "locality"), "locality needs a hidden-variable model"),
        (lambda: check_non_contextuality(epr_escape_hvm()), "non-contextuality needs an empirical model"),
        (lambda: check_property("x", "exchangeability"), "exchangeability needs an empirical model, not a str"),
        (lambda: construct_e1(epr_escape_hvm()), "construct_e1 needs an empirical model, not a hidden-variable"),
        (lambda: reconstruct_hvm(epr_model(), ConstructionMethod("sv")), "reconstruct_hvm needs a hidden"),
        (lambda: local_polytope_feasibility(epr_escape_hvm()), "local_polytope_feasibility needs an empirical"),
        (lambda: project_to_empirical(epr_model()), "project_to_empirical needs a hidden-variable model"),
        (lambda: equivalent_empirical(epr_escape_hvm(), epr_escape_hvm()), "equivalent_empirical needs an"),
        (lambda: equivalent_hvm(epr_escape_hvm(), epr_model()), "equivalent_hvm needs a hidden-variable model"),
        (lambda: equivalent_models(epr_model(), None), "equivalent_models needs a model, not a NoneType"),
        (lambda: check_property(5, "exchangeability"), "exchangeability needs an empirical model, not an int$"),
        (lambda: classify_all(sample=5), "classify_all needs an empirical model, not an int$"),
    ],
)
def test_a_wrong_model_kind_gets_one_wording(call, message):
    with pytest.raises(InputError, match=f"^{message}"):
        call()


def test_as_empirical_projects_a_hidden_model():
    h = epr_escape_hvm()
    assert as_empirical(h, "op") == project_to_empirical(h)
    e = epr_model()
    assert as_empirical(e, "op") is e
    assert require(e, EmpiricalModel, "op") is e
