"""The three completions: sizes, guaranteed properties, equivalence."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import fr, point_mass_model, single_site_third_model

from hvw import (
    ConstructionMethod,
    EmpiricalModel,
    HiddenVariableModel,
    InputError,
    Site,
    SizeGuardError,
    bell_model,
    check_lambda_independence,
    check_outcome_independence,
    check_parameter_independence,
    check_single_valuedness,
    check_strong_determinism,
    check_weak_determinism,
    construct,
    construct_e1,
    construct_e2,
    construct_sv,
    epr_escape_hvm,
    epr_model,
    equivalent_empirical,
    equivalent_hvm,
    generate_random_model,
    grid_sites,
    ks_model,
    local_polytope_feasibility,
    project_to_empirical,
    reconstruct_hvm,
    serialize_model,
)
from hvw.models import _BaseModel
from hvw.nogo import random_strategy_mixture


def lcm_of_conditionals(model) -> int:
    denominators = [1]
    for context in model.context_weights():
        denominators.extend(p.denominator for p in model.outcome_distribution(context).values())
    return math.lcm(*denominators)


# ---------------------------------------------------------------------------
# e1: one hidden state per cell of the prediction grid


def test_e1_epr_states_and_distribution():
    hidden = construct_e1(epr_model())
    assert len(hidden.lambda_set) == 4
    dist = hidden.lambda_distribution(("A", "B"))
    assert dist == {"+_a,-_b|A,B": fr("1/2"), "-_a,+_b|A,B": fr("1/2")}


def test_e1_pins_its_cell():
    hidden = construct_e1(epr_model())
    dist = hidden.outcome_distribution(("A", "B"), "+_a,-_b|A,B")
    assert dist == {("+_a", "-_b"): Fraction(1)}


def test_e1_is_strongly_deterministic_and_equivalent():
    for base in (epr_model(), bell_model(), point_mass_model()):
        hidden = construct_e1(base)
        assert check_strong_determinism(hidden).holds
        assert equivalent_empirical(base, hidden).holds


def test_e1_bell_state_count():
    assert len(construct_e1(bell_model()).lambda_set) == 36


def test_e1_guard_blocks_large_grids():
    """18 measurements on four sites make a grid past the default guard."""
    with pytest.raises(SizeGuardError) as exc:
        construct_e1(ks_model())
    assert exc.value.size == 16 * 18**4


def test_e1_rejects_hidden_input():
    with pytest.raises(InputError):
        construct_e1(epr_escape_hvm())


# ---------------------------------------------------------------------------
# e2: uniform hidden states sized by the conditional denominators


def test_e2_single_site_thirds():
    base = single_site_third_model()
    hidden = construct_e2(base)
    assert hidden.lambda_set == ("0", "1", "2")
    assert hidden.lambda_distribution(("A",)) == {
        "0": fr("1/3"),
        "1": fr("1/3"),
        "2": fr("1/3"),
    }
    assert hidden.outcome_distribution(("A",), "0") == {("a1",): Fraction(1)}
    assert hidden.outcome_distribution(("A",), "1") == {("a2",): Fraction(1)}
    assert project_to_empirical(hidden).weights == base.weights


def test_e2_epr_matches_the_escape_model():
    hidden = construct_e2(epr_model())
    assert len(hidden.lambda_set) == 2
    assert equivalent_hvm(hidden, epr_escape_hvm()).holds


def test_e2_bell_properties():
    hidden = construct_e2(bell_model())
    assert len(hidden.lambda_set) == 8
    assert check_weak_determinism(hidden).holds
    assert check_lambda_independence(hidden).holds
    assert check_outcome_independence(hidden).holds
    assert not check_parameter_independence(hidden).holds
    assert equivalent_empirical(bell_model(), hidden).holds


def test_e2_size_is_the_conditional_lcm():
    for seed in range(20):
        base = generate_random_model(seed, grid_sites(2, 2, 3))
        hidden = construct_e2(base)
        assert len(hidden.lambda_set) == lcm_of_conditionals(base)
        assert equivalent_empirical(base, hidden).holds
        assert check_weak_determinism(hidden).holds
        assert check_lambda_independence(hidden).holds


def test_e2_guard():
    with pytest.raises(SizeGuardError):
        construct_e2(bell_model(), guard=7)


# ---------------------------------------------------------------------------
# sv: a single hidden state


def test_sv_is_single_valued_and_equivalent():
    for base in (epr_model(), bell_model(), single_site_third_model()):
        hidden = construct_sv(base)
        assert hidden.lambda_set == ("l0",)
        assert check_single_valuedness(hidden).holds
        assert check_lambda_independence(hidden).holds
        assert equivalent_empirical(base, hidden).holds


def test_sv_preserves_weights_verbatim():
    base = bell_model()
    hidden = construct_sv(base)
    assert project_to_empirical(hidden).weights == base.weights


# ---------------------------------------------------------------------------
# Dispatch and reconstruction


def test_construct_dispatch_matches_direct_calls():
    base = bell_model()
    by_method = {
        ConstructionMethod.E1_STRONG_DETERMINISTIC: construct_e1,
        ConstructionMethod.E2_WEAK_DET_LAMBDA_INDEP: construct_e2,
        ConstructionMethod.SV_SINGLE_VALUED: construct_sv,
    }
    for method, direct in by_method.items():
        assert construct(base, method).weights == direct(base).weights


def test_construct_rejects_unknown_method():
    with pytest.raises(InputError, match="^unknown construction method: 'e1'$"):
        construct(epr_model(), "e1")  # type: ignore[arg-type]
    with pytest.raises(InputError) as long:
        construct(epr_model(), "x" * 200_000)  # type: ignore[arg-type]
    assert str(long.value) == "unknown construction method: '" + "x" * 99 + "..."


def test_reconstruct_hvm_swaps_completions():
    rebuilt = reconstruct_hvm(epr_escape_hvm(), ConstructionMethod.E1_STRONG_DETERMINISTIC)
    assert check_strong_determinism(rebuilt).holds
    assert equivalent_hvm(rebuilt, epr_escape_hvm()).holds

    collapsed = reconstruct_hvm(
        construct_e1(bell_model()), ConstructionMethod.SV_SINGLE_VALUED
    )
    assert collapsed.lambda_set == ("l0",)
    assert equivalent_empirical(bell_model(), collapsed).holds

    widened = reconstruct_hvm(construct_sv(bell_model()), ConstructionMethod.E2_WEAK_DET_LAMBDA_INDEP)
    assert check_weak_determinism(widened).holds
    assert check_lambda_independence(widened).holds


def test_reconstruct_hvm_rejects_empirical_input():
    with pytest.raises(InputError):
        reconstruct_hvm(epr_model(), ConstructionMethod.SV_SINGLE_VALUED)  # type: ignore[arg-type]


def test_constructions_keep_null_contexts_null():
    from hvw import EmpiricalModel, Site

    site = Site("X", ("M1", "M2"), ("0", "1"))
    base = EmpiricalModel(
        (site,), {(("0",), ("M1",)): fr("1/3"), (("1",), ("M1",)): fr("2/3")}
    )
    assert ("M2",) not in base.context_weights()
    for method in ConstructionMethod:
        hidden = construct(base, method)
        projected = project_to_empirical(hidden)
        assert ("M2",) not in projected.context_weights()
        assert equivalent_empirical(base, hidden).holds


# ---------------------------------------------------------------------------
# Derived models: completions and projections skip the label rule


def _rebuilt(model):
    """`model` built again through the public, validating constructor."""
    if isinstance(model, HiddenVariableModel):
        return HiddenVariableModel(model.sites, model.lambda_set, model.weights)
    return EmpiricalModel(model.sites, model.weights)


def test_derived_models_skip_the_label_rule(monkeypatch):
    base = generate_random_model(3, grid_sites(2, 3, 2))
    local = project_to_empirical(random_strategy_mixture(1, grid_sites(2, 2, 2)))
    hidden = generate_random_model(4, grid_sites(2, 2, 2), lambda_size=3)

    def refuse(*args):
        raise AssertionError("the label rule ran again")

    monkeypatch.setattr(_BaseModel, "_labels", refuse)
    with pytest.raises(AssertionError, match="label rule"):
        _rebuilt(base)
    for construct_one in (construct_e1, construct_e2, construct_sv):
        assert isinstance(construct_one(base), HiddenVariableModel)
    assert isinstance(project_to_empirical(hidden), EmpiricalModel)
    result = local_polytope_feasibility(local)
    assert result.feasible and result.hvm is not None


CORPUS_SHAPES = ((1, 1, 2), (1, 3, 3), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3), (3, 2, 2), (3, 3, 2))


def test_derived_models_match_their_public_rebuilds():
    derived = []
    for shape in CORPUS_SHAPES:
        sites = grid_sites(*shape)
        for seed in range(3):
            base = generate_random_model(seed, sites)
            completions = [construct_e1(base), construct_e2(base), construct_sv(base)]
            hidden = generate_random_model(seed, sites, lambda_size=3)
            derived += completions + [project_to_empirical(h) for h in completions + [hidden]]
    for seed in range(3):
        mixture = random_strategy_mixture(seed, grid_sites(2, 2, 2))
        found = local_polytope_feasibility(project_to_empirical(mixture)).hvm
        derived += [mixture, found, project_to_empirical(mixture)]
    for model in derived:
        public = _rebuilt(model)
        assert model == public
        assert repr(model) == repr(public)
        assert serialize_model(model) == serialize_model(public)
        assert model._denominator == public._denominator


def test_e1_completes_a_model_whose_labels_hold_separators():
    # Joined without escapes, ("a,b", "c") and ("a", "b,c") both read "a,b,c".
    sites = (Site("X", ("A",), ("a,b", "a")), Site("Y", ("B",), ("c", "b,c")))
    base = EmpiricalModel(sites, {(("a,b", "c"), ("A", "B")): 1})
    hidden = construct_e1(base)
    assert hidden.lambda_set == ("a\\,b,c|A,B", "a\\,b,b\\,c|A,B", "a,c|A,B", "a,b\\,c|A,B")
    assert check_strong_determinism(hidden).holds
    assert equivalent_empirical(base, hidden).holds


def read_state(state: str) -> tuple[tuple[str, ...], ...]:
    """An e1 state label read back into (outcome tuple, context)."""
    parts, labels, label = [], [], ""
    chars = iter(state)
    for char in chars:
        if char == "\\":
            label += next(chars)
        elif char in ",|":
            labels.append(label)
            label = ""
            if char == "|":
                parts.append(tuple(labels))
                labels = []
        else:
            label += char
    labels.append(label)
    return (*parts, tuple(labels))


def test_e1_gives_distinct_cells_distinct_states():
    alphabet = ("a", ",", "|", "\\")
    for seed in range(40):
        rng = random.Random(seed)

        def labels(count):
            out = set()
            while len(out) < count:
                out.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, 3))))
            return tuple(sorted(out))

        sites = tuple(Site(f"s{i}", labels(2), labels(rng.randint(2, 3))) for i in range(rng.randint(2, 3)))
        base = generate_random_model(seed, sites)
        hidden = construct_e1(base)
        cells = itertools.product(base.outcome_tuples(), base.context_tuples())
        assert [read_state(state) for state in hidden.lambda_set] == list(cells)
        assert len(set(hidden.lambda_set)) == len(hidden.lambda_set)
        assert HiddenVariableModel(sites, hidden.lambda_set, hidden.weights) == hidden
        assert equivalent_empirical(base, hidden).holds


def test_guard_message_stays_short_for_huge_sizes():
    p = 10**3000 + 1
    site = Site("a", ("M",), ("o1", "o2"))
    base = EmpiricalModel((site,), {(("o1",), ("M",)): Fraction(1, p), (("o2",), ("M",)): Fraction(p - 1, p)})
    with pytest.raises(SizeGuardError) as exc:
        construct_e2(base)
    assert str(exc.value) == (
        f"e2 hidden state set would enumerate at least 2^{p.bit_length() - 1} items, over the guard of 1000000"
    )
    assert exc.value.size == p
    with pytest.raises(SizeGuardError, match="^e2 hidden state set would enumerate 8 items, over the guard of 7$"):
        construct_e2(bell_model(), guard=7)
