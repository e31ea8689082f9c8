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

Each check reads the model's integer tables: determinism is decided on
supports alone, and every other comparison of two ratios cross-multiplies.
Outcome and parameter independence, non-contextuality and exchangeability
(like model equivalence) compare two count rows through the one shared
`models.first_unequal`; lambda independence compares masses and locality a
row against a product of responses. Each check returns a `PropertyVerdict`;
a failing verdict carries the first violation found in a fixed canonical
scan order, with exact values on both sides. Witness text, built by
`models.describe`, is written only once a violation is found, so a holding
verdict builds none.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .errors import InputError, show_value
from .models import (
    ONE,
    ZERO,
    EmpiricalModel,
    HiddenVariableModel,
    PropertyVerdict,
    Witness,
    as_empirical,
    describe,
    first_unequal,
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


EMPIRICAL_MODEL_PROPERTIES = frozenset(
    {PropertyId.NON_CONTEXTUALITY, PropertyId.EXCHANGEABILITY}
)

HIDDEN_MODEL_PROPERTIES = frozenset(PropertyId) - EMPIRICAL_MODEL_PROPERTIES


@dataclass(frozen=True)
class Permutation:
    """A bijection on site indices; image[i] is where site i is sent."""

    image: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            valid = sorted(self.image) == list(range(len(self.image)))
        except TypeError:  # not a sequence, or entries that do not compare, such as 0 and "x"
            valid = False
        if not valid:
            indices = f"0..{len(self.image) - 1}" if hasattr(self.image, "__len__") else "site indices"
            raise InputError(f"not a permutation of {indices}: {show_value(self.image)}")

    def source(self) -> tuple[int, ...]:
        """Entry j of a moved tuple is entry source()[j] of the original."""
        return tuple(sorted(range(len(self.image)), key=self.image.__getitem__))

    def apply(self, values: Sequence[str]) -> tuple[str, ...]:
        """Reorder a per-site tuple: entry i moves to position image[i]."""
        if len(values) != len(self.image):
            raise InputError(f"cannot apply a {len(self.image)}-site permutation to {show_value(values)}")
        return tuple(values[i] for i in self.source())

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
    contexts = h._context_table()
    joint = h._lambda_table()
    (first, (first_mass, _)), *rest = contexts.items()
    for context, (mass, _) in rest:
        for lam in h.lambda_set:
            left = joint.get((first, lam), (0,))[0]
            right = joint.get((context, lam), (0,))[0]
            # left / first_mass != right / mass, without the divisions.
            if left * mass != right * first_mass:
                return PropertyVerdict(
                    False,
                    Witness(
                        lhs_desc=f"p(λ={lam} | {describe(h.sites, first)})",
                        rhs_desc=f"p(λ={lam} | {describe(h.sites, context)})",
                        lhs=Fraction(left, first_mass),
                        rhs=Fraction(right, mass),
                        where=(lam,),
                    ),
                )
    return PropertyVerdict(True)


def check_strong_determinism(model: HiddenVariableModel) -> PropertyVerdict:
    """Given the hidden state, each site responds to its own measurement deterministically."""
    h = require(model, HiddenVariableModel, "strong-determinism")
    for (i, m, lam), (total, response) in h._response_table().items():
        if len(response) == 1:
            continue
        name = h.sites[i].name
        a, n = next(iter(response.items()))
        return PropertyVerdict(
            False,
            Witness(
                lhs_desc=f"p({name}={a} | {name}={m}, λ={lam})",
                rhs_desc="the point mass required by strong determinism",
                lhs=Fraction(n, total),
                rhs=ONE,
                where=(name, m, lam),
            ),
        )
    return PropertyVerdict(True)


def check_weak_determinism(model: HiddenVariableModel) -> PropertyVerdict:
    """Given context and hidden state, the whole outcome tuple is determined."""
    h = require(model, HiddenVariableModel, "weak-determinism")
    for (context, lam), (mass, row) in h._lambda_table().items():
        if len(row) == 1:
            continue
        outcome, n = next(iter(row.items()))
        return PropertyVerdict(
            False,
            Witness(
                lhs_desc=f"p({describe(h.sites, outcome)} | {describe(h.sites, context)}, λ={lam})",
                rhs_desc="the point mass required by weak determinism",
                lhs=Fraction(n, mass),
                rhs=ONE,
                where=(lam,),
            ),
        )
    return PropertyVerdict(True)


def _site_marginals(n_sites: int, row: Mapping[tuple[str, ...], int]) -> list[dict[str, int]]:
    """Each site's outcome counts in one row of int numerators."""
    marginals: list[dict[str, int]] = [{} for _ in range(n_sites)]
    for outcome, n in row.items():
        for marginal, a in zip(marginals, outcome):
            marginal[a] = marginal.get(a, 0) + n
    return marginals


def check_outcome_independence(model: HiddenVariableModel) -> PropertyVerdict:
    """Given context and hidden state, sites' outcomes are independent.

    Compares each site's outcome distribution conditioned on every assignment
    of the partner outcomes with its unconditioned one. A point-mass row is a
    product distribution, so only rows with two or more outcome tuples are
    scanned.
    """
    h = require(model, HiddenVariableModel, "outcome-independence")
    for (context, lam), (mass, row) in h._lambda_table().items():
        if len(row) == 1:
            continue
        marginals = _site_marginals(h.n_sites, row)
        for i, site in enumerate(h.sites):
            # Site i's outcome counts per partner assignment, keyed by the
            # outcome tuple with site i's entry fixed to its first outcome,
            # so the keys sort in canonical partner order.
            fill = site.outcomes[:1]
            given: dict[tuple[str, ...], dict[str, int]] = {}
            for outcome, n in row.items():
                given.setdefault(outcome[:i] + fill + outcome[i + 1 :], {})[outcome[i]] = n
            for key in sorted(given, key=h.outcome_sort_key):
                counts = given[key]
                found = first_unequal(site.outcomes, counts, sum(counts.values()), marginals[i], mass)
                if found:
                    a, lhs, rhs = found
                    ctx_desc = describe(h.sites, context)
                    rest_desc = describe(h.sites[:i] + h.sites[i + 1 :], key[:i] + key[i + 1 :])
                    return PropertyVerdict(
                        False,
                        Witness(
                            lhs_desc=f"p({site.name}={a} | {ctx_desc}, {rest_desc}, λ={lam})",
                            rhs_desc=f"p({site.name}={a} | {ctx_desc}, λ={lam})",
                            lhs=lhs,
                            rhs=rhs,
                            where=(site.name, lam),
                        ),
                    )
    return PropertyVerdict(True)


def check_parameter_independence(model: HiddenVariableModel) -> PropertyVerdict:
    """A site's response given the hidden state ignores the partners' measurements."""
    h = require(model, HiddenVariableModel, "parameter-independence")
    responses = h._response_table()
    for (context, lam), (mass, row) in h._lambda_table().items():
        marginals = _site_marginals(h.n_sites, row)
        for i, (site, m) in enumerate(zip(h.sites, context)):
            total, response = responses[(i, m, lam)]
            found = first_unequal(site.outcomes, marginals[i], mass, response, total)
            if found:
                a, lhs, rhs = found
                return PropertyVerdict(
                    False,
                    Witness(
                        lhs_desc=f"p({site.name}={a} | {describe(h.sites, context)}, λ={lam})",
                        rhs_desc=f"p({site.name}={a} | {site.name}={m}, λ={lam})",
                        lhs=lhs,
                        rhs=rhs,
                        where=(site.name, lam),
                    ),
                )
    return PropertyVerdict(True)


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
    responses = h._response_table()
    for (context, lam), (mass, row) in h._lambda_table().items():
        # Per site, the positive factors p(a | own measurement, λ) as counts
        # over their totals. Every outcome of a row has all its factors.
        entries = [responses[(i, m, lam)] for i, m in enumerate(context)]
        scale = math.prod(total for total, _ in entries)
        factors = [counts for _, counts in entries]
        # n / mass != product / scale, without the divisions.
        failing = [o for o, n in row.items() if n * scale != math.prod(map(dict.__getitem__, factors, o)) * mass]
        missing = next((o for o in itertools.product(*factors) if o not in row), None)
        if missing is not None:
            failing.append(missing)
        if failing:
            outcome = min(failing, key=h.outcome_sort_key)
            return PropertyVerdict(
                False,
                Witness(
                    lhs_desc=f"p({describe(h.sites, outcome)} | {describe(h.sites, context)}, λ={lam})",
                    rhs_desc="the product of per-site responses to own measurements",
                    lhs=Fraction(row.get(outcome, 0), mass),
                    rhs=Fraction(math.prod(map(dict.__getitem__, factors, outcome)), scale),
                    where=(lam,),
                ),
            )
    return PropertyVerdict(True)


def first_signal(
    e: EmpiricalModel,
) -> tuple[int, str, tuple[str, ...], tuple[str, ...], str, Fraction, Fraction] | None:
    """The first measurement whose observed marginal moves with its context,
    in canonical scan order: (site i, measurement m, first context c holding
    m, later context c' holding it, outcome a, q(a | c), q(a | c')) with the
    two values unequal, or None when every marginal is context-free. A
    measurement in no non-null context has no marginal and is passed over.
    The non-contextuality check and the membership presolve in `nogo` both
    read this one scan."""
    table = e._context_table()
    marginal_cache: dict[tuple[str, ...], list[dict[str, int]]] = {}

    def marginals(context: tuple[str, ...]) -> list[dict[str, int]]:
        got = marginal_cache.get(context)
        if got is None:
            got = marginal_cache[context] = _site_marginals(e.n_sites, table[context][1])
        return got

    for i, site in enumerate(e.sites):
        for m in site.measurements:
            relevant = [c for c in table if c[i] == m]
            for other in relevant[1:]:
                first = relevant[0]
                found = first_unequal(
                    site.outcomes, marginals(first)[i], table[first][0], marginals(other)[i], table[other][0]
                )
                if found:
                    a, lhs, rhs = found
                    return i, m, first, other, a, lhs, rhs
    return None


def check_non_contextuality(model: EmpiricalModel) -> PropertyVerdict:
    """A measurement's observed marginal is the same in every context containing it."""
    e = require(model, EmpiricalModel, "non-contextuality")
    found = first_signal(e)
    if found is None:
        return PropertyVerdict(True)
    i, m, first, other, a, lhs, rhs = found
    site = e.sites[i]
    return PropertyVerdict(
        False,
        Witness(
            lhs_desc=f"q({site.name}={a} | {describe(e.sites, first)})",
            rhs_desc=f"q({site.name}={a} | {describe(e.sites, other)})",
            lhs=lhs,
            rhs=rhs,
            where=(site.name, m),
        ),
    )


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
                f"and outcome label lists; {show_value(site.name)} differs from {show_value(first.name)}"
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
    table = e._context_table()
    for perm in generators:
        move = operator.itemgetter(*perm.source())  # n >= 2, so it returns tuples
        for context, (mass, row) in table.items():
            moved_ctx = move(context)
            if moved_ctx not in table:
                found = None, e.context_weights()[context], ZERO
            else:
                # Both rows sum to 1, so equal ratios on this row's support
                # leave no mass elsewhere in the moved row.
                moved_mass, moved_row = table[moved_ctx]
                moved = {o: moved_row.get(move(o), 0) for o in row}
                found = first_unequal(row, row, mass, moved, moved_mass)
            if found:
                outcome, lhs, rhs = found
                lhs_desc, rhs_desc = describe(e.sites, context), describe(e.sites, moved_ctx)
                if outcome is not None:
                    lhs_desc = f"{describe(e.sites, outcome)} | {lhs_desc}"
                    rhs_desc = f"{describe(e.sites, move(outcome))} | {rhs_desc}"
                return PropertyVerdict(
                    False,
                    Witness(
                        lhs_desc=f"q({lhs_desc})",
                        rhs_desc=f"q({rhs_desc}) after permuting sites by {perm.describe()}",
                        lhs=lhs,
                        rhs=rhs,
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
            raise InputError(f"unknown property {show_value(prop)}; expected one of: {names}") from None
    if prop in EMPIRICAL_MODEL_PROPERTIES:
        model = as_empirical(model, prop.value)
    return _CHECKERS[prop](model)
