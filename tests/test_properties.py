"""Property checkers against hand-computed verdicts and witnesses."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    fr,
    pi_violating_hvm,
    point_mass_model,
    single_site_third_model,
    two_site_sites,
)

from hvw import (
    EMPIRICAL_MODEL_PROPERTIES,
    HIDDEN_MODEL_PROPERTIES,
    EmpiricalModel,
    HiddenVariableModel,
    InputError,
    Permutation,
    PropertyId,
    PropertyVerdict,
    Site,
    Witness,
    bell_model,
    check_exchangeability,
    check_lambda_independence,
    check_locality,
    check_non_contextuality,
    check_outcome_independence,
    check_parameter_independence,
    check_property,
    check_single_valuedness,
    check_strong_determinism,
    check_weak_determinism,
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
    ks_model,
    random_strategy_mixture,
)

ONE = Fraction(1)


def _site_masses(h: HiddenVariableModel) -> tuple[dict, dict]:
    """Masses straight from the weight table: (site, measurement, hidden state)
    and (site, measurement, outcome, hidden state), other sites summed out."""
    meas_mass: dict[tuple[int, str, str], Fraction] = {}
    out_mass: dict[tuple[int, str, str, str], Fraction] = {}
    for (outcome, context, lam), weight in h.weights.items():
        for i, m in enumerate(context):
            meas_mass[(i, m, lam)] = meas_mass.get((i, m, lam), 0) + weight
            out_mass[(i, m, outcome[i], lam)] = out_mass.get((i, m, outcome[i], lam), 0) + weight
    return meas_mass, out_mass


def _sorted_rows(h: HiddenVariableModel) -> list[tuple[tuple[str, ...], str]]:
    """Non-null (context, hidden state) pairs, sorted into canonical order here."""
    lambda_rank = {lam: i for i, lam in enumerate(h.lambda_set)}
    return sorted(
        h.context_lambda_weights(), key=lambda key: (h.context_sort_key(key[0]), lambda_rank[key[1]])
    )


def test_the_hidden_model_checks_are_the_seven_that_read_hidden_states():
    assert {p.value for p in HIDDEN_MODEL_PROPERTIES} == {
        "single-valuedness",
        "lambda-independence",
        "strong-determinism",
        "weak-determinism",
        "outcome-independence",
        "parameter-independence",
        "locality",
    }
    assert HIDDEN_MODEL_PROPERTIES | EMPIRICAL_MODEL_PROPERTIES == set(PropertyId)
    assert not HIDDEN_MODEL_PROPERTIES & EMPIRICAL_MODEL_PROPERTIES


# ---------------------------------------------------------------------------
# Single-valuedness


def test_sv_holds_on_single_state_model():
    assert check_single_valuedness(construct_sv(epr_model())).holds


def test_sv_fails_on_two_state_model():
    verdict = check_single_valuedness(epr_escape_hvm())
    assert not verdict.holds
    assert verdict.witness is not None
    assert verdict.witness.lhs == 2
    assert verdict.witness.rhs == 1
    assert verdict.witness.where == ("l1", "l2")


def test_sv_fails_on_e1_of_epr_with_four_states():
    hidden = construct_e1(epr_model())
    assert len(hidden.lambda_set) == 4
    verdict = check_single_valuedness(hidden)
    assert not verdict.holds
    assert verdict.witness.lhs == 4


# ---------------------------------------------------------------------------
# Lambda independence


def test_lambda_independence_holds_on_escape():
    assert check_lambda_independence(epr_escape_hvm()).holds


def test_lambda_independence_holds_on_e2_of_bell():
    assert check_lambda_independence(construct_e2(bell_model())).holds


def test_lambda_independence_fails_on_e1_of_bell():
    verdict = check_lambda_independence(construct_e1(bell_model()))
    assert not verdict.holds
    witness = verdict.witness
    assert witness is not None
    assert len(witness.where) == 1
    assert witness.lhs != witness.rhs


def test_lambda_independence_single_context_is_vacuous():
    assert check_lambda_independence(construct_e1(epr_model())).holds


# ---------------------------------------------------------------------------
# Strong and weak determinism


def test_strong_determinism_holds_on_e1():
    assert check_strong_determinism(construct_e1(epr_model())).holds
    assert check_strong_determinism(construct_e1(bell_model())).holds


def test_strong_determinism_fails_on_sv_of_epr():
    verdict = check_strong_determinism(construct_sv(epr_model()))
    assert not verdict.holds
    witness = verdict.witness
    assert witness.lhs == fr("1/2")
    assert witness.rhs == ONE
    assert witness.where == ("a", "A", "l0")


def test_strong_determinism_holds_on_point_mass():
    assert check_strong_determinism(construct_sv(point_mass_model())).holds


def test_weak_determinism_holds_on_e2():
    assert check_weak_determinism(construct_e2(bell_model())).holds


def test_weak_determinism_fails_on_sv_of_epr():
    verdict = check_weak_determinism(construct_sv(epr_model()))
    assert not verdict.holds
    witness = verdict.witness
    assert witness.lhs == fr("1/2")
    assert witness.rhs == ONE
    assert witness.where == ("l0",)


def test_weak_without_strong_determinism():
    """e2 on a correlated model pins joint outcomes without pinning per-site responses."""
    hidden = construct_e2(bell_model())
    assert check_weak_determinism(hidden).holds
    assert not check_strong_determinism(hidden).holds


# ---------------------------------------------------------------------------
# Outcome independence


def test_outcome_independence_fails_on_sv_of_epr():
    verdict = check_outcome_independence(construct_sv(epr_model()))
    assert not verdict.holds
    witness = verdict.witness
    assert witness.lhs == 0
    assert witness.rhs == fr("1/2")
    assert witness.where == ("a", "l0")


def test_outcome_independence_holds_on_escape():
    assert check_outcome_independence(epr_escape_hvm()).holds


def test_outcome_independence_holds_on_e1():
    assert check_outcome_independence(construct_e1(bell_model())).holds


def test_outcome_independence_single_site_is_vacuous():
    assert check_outcome_independence(construct_sv(single_site_third_model())).holds


def oi_product_form_holds(h: HiddenVariableModel) -> bool:
    """Reference form of outcome independence: on every non-null (context,
    hidden state) pair, each outcome tuple's probability is the product of its
    per-site marginals."""
    for context, lam in h.context_lambda_weights():
        dist = h.outcome_distribution(context, lam)
        marginals: list[dict[str, Fraction]] = [{} for _ in h.sites]
        for outcome, p in dist.items():
            for i, a in enumerate(outcome):
                marginals[i][a] = marginals[i].get(a, 0) + p
        for outcome in itertools.product(*(site.outcomes for site in h.sites)):
            product = ONE
            for i, a in enumerate(outcome):
                product *= marginals[i].get(a, 0)
            if dist.get(outcome, 0) != product:
                return False
    return True


def test_outcome_independence_matches_product_form(uniform_quarter, all_pairs_anticorrelation):
    cases: list[HiddenVariableModel] = [
        epr_escape_hvm(),
        pi_violating_hvm(),
        construct_sv(point_mass_model()),
        construct_sv(single_site_third_model()),
        construct_sv(uniform_quarter),
        construct_sv(all_pairs_anticorrelation),
    ]
    for seed in range(12):
        cases.append(generate_random_model(seed, grid_sites(2, 2, 2), lambda_size=1 + seed % 3))
        cases.append(generate_random_model(seed, grid_sites(3, 2, 2), lambda_size=2))
        empirical = generate_random_model(seed, grid_sites(2, 2, 2 + seed % 2))
        cases.extend(construct(empirical) for construct in (construct_e1, construct_e2, construct_sv))
    verdicts = [check_outcome_independence(hidden).holds for hidden in cases]
    assert verdicts == [oi_product_form_holds(hidden) for hidden in cases]
    assert True in verdicts and False in verdicts


# ---------------------------------------------------------------------------
# Parameter independence


def test_parameter_independence_holds_on_sv_of_bell():
    """Every context leaves each site's marginal at 1/2, so sv stays parameter independent."""
    assert check_parameter_independence(construct_sv(bell_model())).holds


def test_parameter_independence_holds_on_e1():
    assert check_parameter_independence(construct_e1(bell_model())).holds


def test_parameter_independence_fails_with_known_witness():
    verdict = check_parameter_independence(pi_violating_hvm())
    assert not verdict.holds
    witness = verdict.witness
    assert witness.lhs == ONE
    assert witness.rhs == fr("3/4")
    assert witness.where == ("X", "l")


# ---------------------------------------------------------------------------
# Reference forms of the checks that read per-site responses


def strong_determinism_by_scan(h: HiddenVariableModel) -> PropertyVerdict:
    """Reference form of strong determinism: scan every site, measurement and
    declared hidden state in order, with masses taken from the weight table."""
    meas_mass, out_mass = _site_masses(h)
    for i, site in enumerate(h.sites):
        for m in site.measurements:
            for lam in h.lambda_set:
                total = meas_mass.get((i, m, lam), 0)
                values = [out_mass.get((i, m, a, lam), 0) for a in site.outcomes]
                if total == 0 or total in values:
                    continue
                a, value = next((a, v) for a, v in zip(site.outcomes, values) if v)
                return PropertyVerdict(
                    False,
                    Witness(
                        lhs_desc=f"p({site.name}={a} | {site.name}={m}, λ={lam})",
                        rhs_desc="the point mass required by strong determinism",
                        lhs=value / total,
                        rhs=ONE,
                        where=(site.name, m, lam),
                    ),
                )
    return PropertyVerdict(True)


def parameter_independence_by_scan(h: HiddenVariableModel) -> PropertyVerdict:
    """Reference form of parameter independence: compare each row's site
    marginal with the own-measurement response from the weight table."""
    meas_mass, out_mass = _site_masses(h)
    for context, lam in _sorted_rows(h):
        dist = h.outcome_distribution(context, lam)
        ctx = ", ".join(f"{s.name}={m}" for s, m in zip(h.sites, context))
        for i, (site, m) in enumerate(zip(h.sites, context)):
            for a in site.outcomes:
                left = sum((p for o, p in dist.items() if o[i] == a), Fraction(0))
                right = out_mass.get((i, m, a, lam), 0) / meas_mass[(i, m, lam)]
                if left != right:
                    return PropertyVerdict(
                        False,
                        Witness(
                            lhs_desc=f"p({site.name}={a} | {ctx}, λ={lam})",
                            rhs_desc=f"p({site.name}={a} | {site.name}={m}, λ={lam})",
                            lhs=left,
                            rhs=right,
                            where=(site.name, lam),
                        ),
                    )
    return PropertyVerdict(True)


def _response_check_cases(uniform_quarter, all_pairs_anticorrelation) -> list[HiddenVariableModel]:
    cases: list[HiddenVariableModel] = [
        epr_escape_hvm(),
        pi_violating_hvm(),
        construct_sv(point_mass_model()),
        construct_sv(single_site_third_model()),
        construct_sv(uniform_quarter),
        construct_sv(all_pairs_anticorrelation),
        construct_e1(bell_model()),
        construct_e2(bell_model()),
    ]
    for seed in range(40):
        for shape in ((2, 2, 2), (2, 2, 3), (3, 2, 2), (1, 2, 3)):
            cases.append(generate_random_model(seed, grid_sites(*shape), lambda_size=1 + seed % 3))
        cases.append(random_strategy_mixture(seed, grid_sites(2, 2, 2)))
    for seed in range(12):
        empirical = generate_random_model(seed, grid_sites(2, 2, 2 + seed % 2))
        cases.extend(construct(empirical) for construct in (construct_e1, construct_e2, construct_sv))
    return cases


def test_strong_determinism_matches_scan(uniform_quarter, all_pairs_anticorrelation):
    cases = _response_check_cases(uniform_quarter, all_pairs_anticorrelation)
    verdicts = [check_strong_determinism(hidden) for hidden in cases]
    assert verdicts == [strong_determinism_by_scan(hidden) for hidden in cases]
    assert sum(v.holds for v in verdicts) >= 40
    assert sum(not v.holds for v in verdicts) >= 40


def test_parameter_independence_matches_scan(uniform_quarter, all_pairs_anticorrelation):
    cases = _response_check_cases(uniform_quarter, all_pairs_anticorrelation)
    verdicts = [check_parameter_independence(hidden) for hidden in cases]
    assert verdicts == [parameter_independence_by_scan(hidden) for hidden in cases]
    assert sum(v.holds for v in verdicts) >= 40
    assert sum(not v.holds for v in verdicts) >= 40


# ---------------------------------------------------------------------------
# Locality


def test_locality_holds_on_escape():
    assert check_locality(epr_escape_hvm()).holds


def test_locality_fails_on_sv_of_epr():
    verdict = check_locality(construct_sv(epr_model()))
    assert not verdict.holds
    witness = verdict.witness
    assert witness.lhs == 0
    assert witness.rhs == fr("1/4")
    assert witness.where == ("l0",)


def test_locality_agrees_with_oi_and_pi():
    """Locality must coincide with the conjunction of its two factor properties."""
    cases: list[HiddenVariableModel] = [
        epr_escape_hvm(),
        pi_violating_hvm(),
        construct_sv(epr_model()),
        construct_sv(bell_model()),
        construct_e1(bell_model()),
        construct_e2(epr_model()),
    ]
    for seed in range(24):
        cases.append(generate_random_model(seed, grid_sites(2, 2, 2), lambda_size=2))
    for hidden in cases:
        local = check_locality(hidden).holds
        oi = check_outcome_independence(hidden).holds
        pi = check_parameter_independence(hidden).holds
        assert local == (oi and pi)


def locality_by_dense_scan(h: HiddenVariableModel) -> PropertyVerdict:
    """Reference form of locality: scan the full outcome product of every
    non-null (context, hidden state) row in canonical order, comparing each
    probability with the product of its per-site responses."""
    meas_mass, out_mass = _site_masses(h)
    for context, lam in _sorted_rows(h):
        dist = h.outcome_distribution(context, lam)
        factors = [
            {a: out_mass.get((i, m, a, lam), 0) / meas_mass[(i, m, lam)] for a in site.outcomes}
            for i, (site, m) in enumerate(zip(h.sites, context))
        ]
        for outcome in itertools.product(*(site.outcomes for site in h.sites)):
            left = dist.get(outcome, Fraction(0))
            right = ONE
            for i, a in enumerate(outcome):
                right *= factors[i][a]
            if left != right:
                ctx = ", ".join(f"{s.name}={m}" for s, m in zip(h.sites, context))
                out = ", ".join(f"{s.name}={a}" for s, a in zip(h.sites, outcome))
                return PropertyVerdict(
                    False,
                    Witness(
                        lhs_desc=f"p({out} | {ctx}, λ={lam})",
                        rhs_desc="the product of per-site responses to own measurements",
                        lhs=left,
                        rhs=right,
                        where=(lam,),
                    ),
                )
    return PropertyVerdict(True)


def test_locality_matches_dense_scan(uniform_quarter, all_pairs_anticorrelation):
    cases = _response_check_cases(uniform_quarter, all_pairs_anticorrelation)
    verdicts = [check_locality(hidden) for hidden in cases]
    assert verdicts == [locality_by_dense_scan(hidden) for hidden in cases]
    assert sum(v.holds for v in verdicts) >= 40
    assert sum(not v.holds for v in verdicts) >= 40


# ---------------------------------------------------------------------------
# Non-contextuality


def test_non_contextuality_holds_on_bell():
    assert check_non_contextuality(bell_model()).holds


def test_non_contextuality_single_context_is_vacuous():
    assert check_non_contextuality(point_mass_model()).holds


def test_non_contextuality_fails_on_orthogonality_table():
    verdict = check_non_contextuality(ks_model())
    assert not verdict.holds
    witness = verdict.witness
    assert witness.where == ("A", "E2")
    assert witness.lhs == ONE
    assert witness.rhs == 0


def test_non_contextuality_detects_marginal_shift():
    sites = two_site_sites()
    weights = {
        (("0", "0"), ("M1", "M1")): fr("1/2"),
        (("0", "1"), ("M1", "M2")): fr("1/4"),
        (("1", "0"), ("M1", "M2")): fr("1/4"),
    }
    verdict = check_non_contextuality(EmpiricalModel(sites, weights))
    assert not verdict.holds
    assert verdict.witness.where == ("X", "M1")
    assert verdict.witness.lhs == ONE
    assert verdict.witness.rhs == fr("1/2")


# ---------------------------------------------------------------------------
# Exchangeability


def test_exchangeability_holds_on_bell():
    assert check_exchangeability(bell_model()).holds


def test_exchangeability_holds_on_orthogonality_table():
    assert check_exchangeability(ks_model()).holds


def test_exchangeability_rejects_heterogeneous_sites():
    with pytest.raises(InputError):
        check_exchangeability(epr_model())


def test_exchangeability_echoes_long_site_names_in_part():
    long = "x" * 200_000
    sites = (Site(long, ("M",), ("0",)), Site("b", ("N",), ("0",)))
    with pytest.raises(InputError) as exc:
        check_exchangeability(EmpiricalModel(sites, {(("0", "0"), ("M", "N")): ONE}))
    message = str(exc.value)
    assert message.endswith(f"'b' differs from '{'x' * 99}...")
    assert len(message.encode()) < 400


def test_exchangeability_fails_on_asymmetric_outcomes():
    sites = two_site_sites()
    model = EmpiricalModel(sites, {(("0", "1"), ("M1", "M1")): ONE})
    verdict = check_exchangeability(model)
    assert not verdict.holds
    witness = verdict.witness
    assert witness.lhs == ONE
    assert witness.rhs == 0
    assert witness.where == ("(1 0)",)


def test_exchangeability_fails_on_null_context_mismatch():
    sites = two_site_sites()
    model = EmpiricalModel(sites, {(("0", "0"), ("M1", "M2")): ONE})
    verdict = check_exchangeability(model)
    assert not verdict.holds
    witness = verdict.witness
    assert "after permuting sites" in witness.rhs_desc
    assert witness.rhs == 0


def test_exchangeability_single_site_is_vacuous():
    assert check_exchangeability(single_site_third_model()).holds


def exchangeable_by_brute_force(model: EmpiricalModel) -> bool:
    """Reference verdict: try every one of the n! site permutations."""
    ctx_weights = model.context_weights()
    for image in itertools.permutations(range(model.n_sites)):
        perm = Permutation(image)
        for context in ctx_weights:
            moved_ctx = perm.apply(context)
            if moved_ctx not in ctx_weights:
                return False
            moved_dist = model.outcome_distribution(moved_ctx)
            for outcome, q in model.outcome_distribution(context).items():
                if moved_dist.get(perm.apply(outcome), 0) != q:
                    return False
    return True


SWAP = "swap"
CYCLE = "cycle"


def generator_image(kind: str, n: int) -> tuple[int, ...]:
    if kind == SWAP:
        return (1, 0) + tuple(range(2, n))
    return tuple(range(1, n)) + (0,)


def orbit_model(seed: int, n: int, generators: tuple[str, ...]) -> EmpiricalModel:
    """Seeded model on grid_sites(n, 2, 2) whose joint weights are constant on
    the orbits of the group the named generators span, so it is invariant
    under that group (and, for a generic seed, under nothing larger)."""
    images = [generator_image(kind, n) for kind in generators if n >= 2]
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for h in images:
            gh = tuple(h[g[i]] for i in range(n))
            if gh not in group:
                group.add(gh)
                frontier.append(gh)
    perms = [Permutation(g) for g in sorted(group)]
    sites = grid_sites(n, 2, 2)
    rng = random.Random(seed)
    weight: dict[tuple, int] = {}
    for context in itertools.product(*(site.measurements for site in sites)):
        for outcome in itertools.product(*(site.outcomes for site in sites)):
            if (outcome, context) not in weight:
                drawn = rng.randint(0, 3)
                for p in perms:
                    weight[(p.apply(outcome), p.apply(context))] = drawn
    raw = {key: w for key, w in weight.items() if w}
    if not raw:
        raw[(("o1",) * n, ("M1",) * n)] = 1
    total = sum(raw.values())
    return EmpiricalModel(sites, {key: Fraction(v, total) for key, v in raw.items()})


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exchangeability_matches_brute_force(n):
    verdicts: dict[str, list[bool]] = {}
    for seed in range(3):
        cases = {
            "symmetric": orbit_model(seed, n, (SWAP, CYCLE)),
            "cycle-only": orbit_model(seed, n, (CYCLE,)),
            "swap-only": orbit_model(seed, n, (SWAP,)),
            "random": generate_random_model(seed, grid_sites(n, 2, 2)),
        }
        for name, model in cases.items():
            verdict = check_exchangeability(model)
            assert verdict.holds == exchangeable_by_brute_force(model), (name, seed)
            verdicts.setdefault(name, []).append(verdict.holds)
            if verdict.holds:
                continue
            swap = Permutation(generator_image(SWAP, n)).describe()
            cycle = Permutation(generator_image(CYCLE, n)).describe()
            # The swap is tried first; a model invariant under it fails on the cycle.
            expected = cycle if name == "swap-only" else swap
            if name == "random":
                assert verdict.witness.where[0] in (swap, cycle)
            else:
                assert verdict.witness.where == (expected,), (name, seed)
    assert all(verdicts["symmetric"])
    if n >= 3:
        # Each one-generator family really exercises the other generator.
        assert not any(verdicts["cycle-only"]) and not any(verdicts["swap-only"])
    if n >= 2:
        assert not any(verdicts["random"])


def test_exchangeability_witness_on_three_sites_is_the_failing_generator():
    # Invariant under the swap (1 0 2), so the n-cycle (1 2 0) is the witness.
    sites = grid_sites(3, 1, 2)
    model = EmpiricalModel(sites, {(("o1", "o1", "o2"), ("M1", "M1", "M1")): ONE})
    verdict = check_exchangeability(model)
    assert not verdict.holds
    witness = verdict.witness
    assert witness.where == ("(1 2 0)",)
    assert witness.lhs == ONE
    assert witness.rhs == 0
    assert witness.rhs_desc.startswith("q(s1=o2, s2=o1, s3=o1 | ")


# ---------------------------------------------------------------------------
# Dispatch


def test_holding_verdicts_build_no_witness_text(monkeypatch):
    """Witness text is written only once a violation is found: with
    `describe` raising wherever it is looked up, every check and equivalence
    that holds still returns, and failing ones reach it."""
    import hvw.local
    import hvw.models
    import hvw.properties

    class Described(Exception):
        pass

    def describe(*args):
        raise Described

    for module in (hvw.models, hvw.properties, hvw.local):
        monkeypatch.setattr(module, "describe", describe)
    holding = [(check_exchangeability, ks_model()), (check_exchangeability, bell_model())]
    for seed in range(6):
        sites = grid_sites(2 + seed % 2, 2, 2 + seed // 4)
        m = generate_random_model(seed, sites)
        e1, e2, sv = construct_e1(m), construct_e2(m), construct_sv(m)
        mixture = random_strategy_mixture(seed, sites)
        holding += [
            (check_single_valuedness, sv),
            (check_lambda_independence, e2),
            (check_lambda_independence, mixture),
            (check_strong_determinism, e1),
            (check_weak_determinism, e2),
            (check_outcome_independence, e1),
            (check_parameter_independence, e1),
            (check_locality, e1),
            (check_locality, mixture),
            (lambda h: check_property(h, "non-contextuality"), mixture),
            (lambda h, m=m: equivalent_empirical(m, h), e2),
            (lambda h, e1=e1: equivalent_hvm(e1, h), e2),
            (lambda h, m=m: equivalent_models(m, h), sv),
        ]
    for check, model in holding:
        assert check(model).holds
    with pytest.raises(Described):
        check_non_contextuality(ks_model())
    with pytest.raises(Described):
        check_parameter_independence(pi_violating_hvm())
    m = generate_random_model(0, grid_sites(2, 2, 2))
    with pytest.raises(Described):
        equivalent_empirical(m, construct_e2(generate_random_model(1, grid_sites(2, 2, 2))))


def test_check_property_accepts_names_and_ids():
    escape = epr_escape_hvm()
    by_name = check_property(escape, "locality")
    by_id = check_property(escape, PropertyId.LOCALITY)
    assert by_name.holds and by_id.holds


def test_check_property_rejects_unknown_name():
    with pytest.raises(InputError) as exc:
        check_property(epr_model(), "determinism")
    assert "single-valuedness" in str(exc.value)
    assert "exchangeability" in str(exc.value)


def test_check_property_echoes_a_long_unknown_name_in_part():
    with pytest.raises(InputError) as exc:
        check_property(epr_model(), "x" * 200_000)
    assert str(exc.value).startswith(f"unknown property '{'x' * 99}...; expected one of: ")
    assert len(str(exc.value).encode()) < 400


def test_check_property_guards_hidden_properties():
    with pytest.raises(InputError):
        check_property(epr_model(), "locality")
    with pytest.raises(InputError):
        check_property(bell_model(), PropertyId.SINGLE_VALUEDNESS)


def test_check_property_projects_hidden_models_for_empirical_properties():
    assert check_property(epr_escape_hvm(), "non-contextuality").holds
    verdict = check_property(construct_sv(ks_model()), "non-contextuality")
    assert not verdict.holds
    assert verdict.witness.where == ("A", "E2")


# ---------------------------------------------------------------------------
# Permutations


def test_permutation_rejects_non_bijections():
    with pytest.raises(InputError):
        Permutation((0, 0))
    with pytest.raises(InputError):
        Permutation((1, 2))


@pytest.mark.parametrize(
    "image, message",
    [
        (5, "not a permutation of site indices: 5"),
        ((0, "x"), "not a permutation of 0..1: (0, 'x')"),
    ],
    ids=["not-a-sequence", "entries-that-do-not-compare"],
)
def test_permutation_rejects_malformed_images(image, message):
    with pytest.raises(InputError) as exc:
        Permutation(image)
    assert str(exc.value) == message


def test_permutation_echoes_long_values_in_part():
    with pytest.raises(InputError) as exc:
        Permutation((1, 0)).apply(("x" * 200_000,))
    assert str(exc.value) == f"cannot apply a 2-site permutation to ('{'x' * 98}..."
    with pytest.raises(InputError, match=r"^not a permutation of 0\.\.1: \(1, 2\)$"):
        Permutation((1, 2))


def test_permutation_apply_and_describe():
    perm = Permutation((1, 0, 2))
    assert perm.apply(("x", "y", "z")) == ("y", "x", "z")
    assert perm.describe() == "(1 0 2)"
    with pytest.raises(InputError):
        perm.apply(("x", "y"))


# ---------------------------------------------------------------------------
# Implication spot checks


def test_implications_on_assorted_models():
    cases: list[HiddenVariableModel] = [
        epr_escape_hvm(),
        construct_sv(epr_model()),
        construct_e1(bell_model()),
        construct_e2(bell_model()),
        pi_violating_hvm(),
    ]
    for seed in range(20):
        cases.append(generate_random_model(seed, grid_sites(2, 2, 2), lambda_size=seed % 3 + 1))
    for hidden in cases:
        sv = check_single_valuedness(hidden).holds
        li = check_lambda_independence(hidden).holds
        sd = check_strong_determinism(hidden).holds
        wd = check_weak_determinism(hidden).holds
        oi = check_outcome_independence(hidden).holds
        pi = check_parameter_independence(hidden).holds
        assert not sv or li
        assert not sd or wd
        assert not wd or oi
        assert not sd or pi


def test_strategy_mixtures_satisfy_the_local_bundle():
    """Mixtures of deterministic strategies are the textbook local models."""
    sites = grid_sites(2, 2, 2)
    for seed in range(10):
        hidden = random_strategy_mixture(seed, sites)
        assert check_strong_determinism(hidden).holds
        assert check_lambda_independence(hidden).holds
        assert check_locality(hidden).holds
        assert check_weak_determinism(hidden).holds
        assert check_outcome_independence(hidden).holds
        assert check_parameter_independence(hidden).holds
