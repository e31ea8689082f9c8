"""Property checks for finite models.

Seven checks apply to hidden-variable models:

* single-valuedness: exactly one hidden state.
* lambda-independence: the hidden state's conditional distribution is the
  same on every non-null context.
* strong determinism: given the hidden state, each site's outcome is a
  deterministic function of that site's own measurement.
* weak determinism: given the hidden state and the full context, the joint
  outcome tuple is deterministic.
* outcome independence: given context and hidden state, each site's outcome
  is conditionally independent of the other sites' outcomes, checked by
  conditioning on every assignment of the partner outcomes.
* parameter independence: given the hidden state, a site's outcome
  distribution depends only on that site's own measurement, not on the rest
  of the context.
* locality: given context and hidden state, the joint outcome distribution
  factors into per-site response distributions that depend only on each
  site's own measurement.

Two apply to empirical models:

* non-contextuality: a site's observed marginal for a measurement is the
  same in every non-null context containing it.
* exchangeability: permuting the sites (all sites must share identical
  measurement and outcome label lists) leaves every prediction unchanged.
  Only two permutations are tried, the swap of sites 0 and 1 and the cycle
  sending site i to i+1 (mod n): they generate all n! permutations, so a
  failing check names the first of the two that changes a prediction.

Each check returns a `PropertyVerdict`; a failing verdict carries the first
violation found in a fixed canonical scan order, with exact values on both
sides.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import InputError
from .models import (
    ONE,
    ZERO,
    EmpiricalModel,
    HiddenVariableModel,
    PropertyVerdict,
    Site,
    Witness,
    as_empirical,
    describe_context,
    describe_outcome,
    require,
)


class PropertyId(Enum):
    """Stable names for every checkable property."""

    SINGLE_VALUEDNESS = "single-valuedness"
    LAMBDA_INDEPENDENCE = "lambda-independence"
    STRONG_DETERMINISM = "strong-determinism"
    WEAK_DETERMINISM = "weak-determinism"
    OUTCOME_INDEPENDENCE = "outcome-independence"
    PARAMETER_INDEPENDENCE = "parameter-independence"
    LOCALITY = "locality"
    NON_CONTEXTUALITY = "non-contextuality"
    EXCHANGEABILITY = "exchangeability"


HIDDEN_MODEL_PROPERTIES = frozenset(
    {
        PropertyId.SINGLE_VALUEDNESS,
        PropertyId.LAMBDA_INDEPENDENCE,
        PropertyId.STRONG_DETERMINISM,
        PropertyId.WEAK_DETERMINISM,
        PropertyId.OUTCOME_INDEPENDENCE,
        PropertyId.PARAMETER_INDEPENDENCE,
        PropertyId.LOCALITY,
    }
)

EMPIRICAL_MODEL_PROPERTIES = frozenset(
    {PropertyId.NON_CONTEXTUALITY, PropertyId.EXCHANGEABILITY}
)


@dataclass(frozen=True)
class Permutation:
    """A bijection on site indices; image[i] is where site i is sent."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        if sorted(self.image) != list(range(len(self.image))):
            raise InputError(f"not a permutation of 0..{len(self.image) - 1}: {self.image}")

    def apply(self, values: Sequence[str]) -> tuple[str, ...]:
        """Reorder a per-site tuple: entry i moves to position image[i]."""
        if len(values) != len(self.image):
            raise InputError(f"cannot apply a {len(self.image)}-site permutation to {values!r}")
        moved: list[str | None] = [None] * len(self.image)
        for i, j in enumerate(self.image):
            moved[j] = values[i]
        return tuple(moved)  # type: ignore[arg-type]

    def describe(self) -> str:
        return "(" + " ".join(str(j) for j in self.image) + ")"


def check_single_valuedness(model: HiddenVariableModel) -> PropertyVerdict:
    """Exactly one hidden state."""
    h = require(model, HiddenVariableModel, "single-valuedness")
    if len(h.lambda_set) == 1:
        return PropertyVerdict(True)
    return PropertyVerdict(
        False,
        Witness(
            lhs_desc="number of hidden states",
            rhs_desc="number allowed by single-valuedness",
            lhs=Fraction(len(h.lambda_set)),
            rhs=ONE,
            where=h.lambda_set[:2],
        ),
    )


def check_lambda_independence(model: HiddenVariableModel) -> PropertyVerdict:
    """The hidden state's distribution is the same on every non-null context."""
    h = require(model, HiddenVariableModel, "lambda-independence")
    masses = h.context_weights()
    joint = h.context_lambda_weights()
    first, *contexts = masses
    for context in contexts:
        for lam in h.lambda_set:
            left = joint.get((first, lam), ZERO)
            right = joint.get((context, lam), ZERO)
            # left / mass(first) != right / mass(context), without the divisions.
            if left * masses[context] != right * masses[first]:
                return PropertyVerdict(
                    False,
                    Witness(
                        lhs_desc=f"p(λ={lam} | {describe_context(h.sites, first)})",
                        rhs_desc=f"p(λ={lam} | {describe_context(h.sites, context)})",
                        lhs=left / masses[first],
                        rhs=right / masses[context],
                        where=(lam,),
                    ),
                )
    return PropertyVerdict(True)


def check_strong_determinism(model: HiddenVariableModel) -> PropertyVerdict:
    """Given the hidden state, each site responds to its own measurement deterministically."""
    h = require(model, HiddenVariableModel, "strong-determinism")
    for (i, m, lam), response in h.site_responses().items():
        if len(response) == 1:
            continue
        name = h.sites[i].name
        a, p = next(iter(response.items()))
        return PropertyVerdict(
            False,
            Witness(
                lhs_desc=f"p({name}={a} | {name}={m}, λ={lam})",
                rhs_desc="the point mass required by strong determinism",
                lhs=p,
                rhs=ONE,
                where=(name, m, lam),
            ),
        )
    return PropertyVerdict(True)


def check_weak_determinism(model: HiddenVariableModel) -> PropertyVerdict:
    """Given context and hidden state, the whole outcome tuple is determined."""
    h = require(model, HiddenVariableModel, "weak-determinism")
    for (context, lam), dist in h.context_lambda_distributions().items():
        if len(dist) == 1:
            continue
        outcome, p = next(iter(dist.items()))
        return PropertyVerdict(
            False,
            Witness(
                lhs_desc=(
                    f"p({describe_outcome(h.sites, outcome)} | "
                    f"{describe_context(h.sites, context)}, λ={lam})"
                ),
                rhs_desc="the point mass required by weak determinism",
                lhs=p,
                rhs=ONE,
                where=(lam,),
            ),
        )
    return PropertyVerdict(True)


def _site_marginals(
    sites: tuple[Site, ...], dist: dict | object
) -> list[dict[str, Fraction]]:
    marginals: list[dict[str, Fraction]] = [dict() for _ in sites]
    for outcome, p in dist.items():  # type: ignore[union-attr]
        for i, a in enumerate(outcome):
            marginals[i][a] = marginals[i].get(a, ZERO) + p
    return marginals


def check_outcome_independence(model: HiddenVariableModel) -> PropertyVerdict:
    """Given context and hidden state, sites' outcomes are independent.

    Compares each site's outcome distribution conditioned on every assignment
    of the partner outcomes with its unconditioned one. A point-mass row is a
    product distribution, so only rows with two or more outcome tuples are
    scanned.
    """
    h = require(model, HiddenVariableModel, "outcome-independence")
    # Per site: the other sites and the rank of each of their outcomes.
    partners = []
    for i in range(h.n_sites):
        others = h.sites[:i] + h.sites[i + 1 :]
        partners.append((others, [{a: k for k, a in enumerate(s.outcomes)} for s in others]))
    for (context, lam), dist in h.context_lambda_distributions().items():
        if len(dist) == 1:
            continue
        marginals = _site_marginals(h.sites, dist)
        for i, site in enumerate(h.sites):
            others, ranks = partners[i]
            rest_mass: dict[tuple[str, ...], Fraction] = {}
            for outcome, p in dist.items():
                rest = outcome[:i] + outcome[i + 1 :]
                rest_mass[rest] = rest_mass.get(rest, ZERO) + p
            for rest in sorted(
                rest_mass, key=lambda r: tuple(idx[b] for idx, b in zip(ranks, r))
            ):
                mass = rest_mass[rest]
                for a in site.outcomes:
                    joint = dist.get(rest[:i] + (a,) + rest[i:], ZERO)
                    right = marginals[i].get(a, ZERO)
                    # joint / mass != right, without the division: mass > 0.
                    if joint != right * mass:
                        ctx_desc = describe_context(h.sites, context)
                        rest_desc = ", ".join(f"{s.name}={b}" for s, b in zip(others, rest))
                        return PropertyVerdict(
                            False,
                            Witness(
                                lhs_desc=f"p({site.name}={a} | {ctx_desc}, {rest_desc}, λ={lam})",
                                rhs_desc=f"p({site.name}={a} | {ctx_desc}, λ={lam})",
                                lhs=joint / mass,
                                rhs=right,
                                where=(site.name, lam),
                            ),
                        )
    return PropertyVerdict(True)


def check_parameter_independence(model: HiddenVariableModel) -> PropertyVerdict:
    """A site's response given the hidden state ignores the partners' measurements."""
    h = require(model, HiddenVariableModel, "parameter-independence")
    responses = h.site_responses()
    for (context, lam), dist in h.context_lambda_distributions().items():
        ctx_desc = describe_context(h.sites, context)
        marginals = _site_marginals(h.sites, dist)
        for i, site in enumerate(h.sites):
            m = context[i]
            response = responses[(i, m, lam)]
            for a in site.outcomes:
                left = marginals[i].get(a, ZERO)
                right = response.get(a, ZERO)
                if left != right:
                    return PropertyVerdict(
                        False,
                        Witness(
                            lhs_desc=f"p({site.name}={a} | {ctx_desc}, λ={lam})",
                            rhs_desc=f"p({site.name}={a} | {site.name}={m}, λ={lam})",
                            lhs=left,
                            rhs=right,
                            where=(site.name, lam),
                        ),
                    )
    return PropertyVerdict(True)


def _factor_product(factors: list[Mapping[str, Fraction]], outcome: tuple[str, ...]) -> Fraction:
    right = ONE
    for i, a in enumerate(outcome):
        right *= factors[i].get(a, ZERO)
    return right


def check_locality(model: HiddenVariableModel) -> PropertyVerdict:
    """Joint outcomes factor into per-site responses to own measurements.

    Decided on the support of each (context, hidden state) row. An outcome
    tuple off the support breaks the factorisation exactly when all of its
    per-site factors are positive, and the first such tuple is found by
    walking the product of the positive factors in canonical order, which
    stops within |support| + 1 steps. The witness is the canonically first
    failing outcome tuple, as in a scan of the full outcome product.
    """
    h = require(model, HiddenVariableModel, "locality")
    responses = h.site_responses()
    for (context, lam), dist in h.context_lambda_distributions().items():
        # Per site, the positive factors p(a | own measurement, λ).
        factors = [responses[(i, m, lam)] for i, m in enumerate(context)]
        failing = [o for o, p in dist.items() if p != _factor_product(factors, o)]
        missing = next((o for o in itertools.product(*factors) if o not in dist), None)
        if missing is not None:
            failing.append(missing)
        if failing:
            outcome = min(failing, key=h.outcome_sort_key)
            return PropertyVerdict(
                False,
                Witness(
                    lhs_desc=(
                        f"p({describe_outcome(h.sites, outcome)} | "
                        f"{describe_context(h.sites, context)}, λ={lam})"
                    ),
                    rhs_desc="the product of per-site responses to own measurements",
                    lhs=dist.get(outcome, ZERO),
                    rhs=_factor_product(factors, outcome),
                    where=(lam,),
                ),
            )
    return PropertyVerdict(True)


def check_non_contextuality(model: EmpiricalModel) -> PropertyVerdict:
    """A measurement's observed marginal is the same in every context containing it."""
    e = require(model, EmpiricalModel, "non-contextuality")
    rows = e.context_distributions()
    marginal_cache: dict[tuple[str, ...], list[dict[str, Fraction]]] = {}

    def marginals(context: tuple[str, ...]) -> list[dict[str, Fraction]]:
        got = marginal_cache.get(context)
        if got is None:
            got = _site_marginals(e.sites, rows[context])
            marginal_cache[context] = got
        return got

    for i, site in enumerate(e.sites):
        for m in site.measurements:
            relevant = [c for c in rows if c[i] == m]
            for other in relevant[1:]:
                left_marg = marginals(relevant[0])[i]
                right_marg = marginals(other)[i]
                for a in site.outcomes:
                    left = left_marg.get(a, ZERO)
                    right = right_marg.get(a, ZERO)
                    if left != right:
                        return PropertyVerdict(
                            False,
                            Witness(
                                lhs_desc=(
                                    f"q({site.name}={a} | "
                                    f"{describe_context(e.sites, relevant[0])})"
                                ),
                                rhs_desc=(
                                    f"q({site.name}={a} | "
                                    f"{describe_context(e.sites, other)})"
                                ),
                                lhs=left,
                                rhs=right,
                                where=(site.name, m),
                            ),
                        )
    return PropertyVerdict(True)


def check_exchangeability(model: EmpiricalModel) -> PropertyVerdict:
    """Permuting the sites leaves every prediction unchanged.

    Requires homogeneous sites: every site must declare the same measurement
    list and the same outcome list, otherwise the permuted predictions are not
    even comparable and an input error is raised.
    """
    e = require(model, EmpiricalModel, "exchangeability")
    first = e.sites[0]
    for site in e.sites[1:]:
        if site.measurements != first.measurements or site.outcomes != first.outcomes:
            raise InputError(
                "exchangeability requires all sites to share identical measurement "
                f"and outcome label lists; {site.name!r} differs from {first.name!r}"
            )
    # The swap of sites 0 and 1 and the n-cycle generate the symmetric group,
    # and the permutations that leave the model unchanged form a group, so
    # checking the two generators decides invariance under all n! of them.
    n = e.n_sites
    generators = []
    if n >= 2:
        generators.append(Permutation((1, 0) + tuple(range(2, n))))
    if n >= 3:
        generators.append(Permutation(tuple(range(1, n)) + (0,)))
    rows = e.context_distributions()
    for perm in generators:
        for context, dist in rows.items():
            moved_ctx = perm.apply(context)
            ctx_desc = describe_context(e.sites, context)
            moved_ctx_desc = describe_context(e.sites, moved_ctx)
            if moved_ctx not in rows:
                return PropertyVerdict(
                    False,
                    Witness(
                        lhs_desc=f"q({ctx_desc})",
                        rhs_desc=f"q({moved_ctx_desc}) after permuting sites by {perm.describe()}",
                        lhs=e.context_weights()[context],
                        rhs=ZERO,
                        where=(perm.describe(),),
                    ),
                )
            moved_dist = rows[moved_ctx]
            for outcome, left in dist.items():
                moved_outcome = perm.apply(outcome)
                right = moved_dist.get(moved_outcome, ZERO)
                if left != right:
                    return PropertyVerdict(
                        False,
                        Witness(
                            lhs_desc=(
                                f"q({describe_outcome(e.sites, outcome)} | {ctx_desc})"
                            ),
                            rhs_desc=(
                                f"q({describe_outcome(e.sites, moved_outcome)} | "
                                f"{moved_ctx_desc}) after permuting sites by {perm.describe()}"
                            ),
                            lhs=left,
                            rhs=right,
                            where=(perm.describe(),),
                        ),
                    )
    return PropertyVerdict(True)


_CHECKERS: dict[PropertyId, Callable] = {
    PropertyId.SINGLE_VALUEDNESS: check_single_valuedness,
    PropertyId.LAMBDA_INDEPENDENCE: check_lambda_independence,
    PropertyId.STRONG_DETERMINISM: check_strong_determinism,
    PropertyId.WEAK_DETERMINISM: check_weak_determinism,
    PropertyId.OUTCOME_INDEPENDENCE: check_outcome_independence,
    PropertyId.PARAMETER_INDEPENDENCE: check_parameter_independence,
    PropertyId.LOCALITY: check_locality,
    PropertyId.NON_CONTEXTUALITY: check_non_contextuality,
    PropertyId.EXCHANGEABILITY: check_exchangeability,
}


def check_property(
    model: EmpiricalModel | HiddenVariableModel, prop: PropertyId | str
) -> PropertyVerdict:
    """Dispatch a property check by id or by its string name.

    Hidden-model properties require a hidden-variable model. The two
    empirical properties accept either kind; a hidden-variable model is
    checked through its observable projection.
    """
    if isinstance(prop, str):
        try:
            prop = PropertyId(prop)
        except ValueError:
            names = ", ".join(p.value for p in PropertyId)
            raise InputError(f"unknown property {prop!r}; expected one of: {names}") from None
    if prop in EMPIRICAL_MODEL_PROPERTIES:
        model = as_empirical(model, prop.value)
    return _CHECKERS[prop](model)
