"""Finite probability models over measurement scenarios, with exact weights.

Two model kinds share one vocabulary. An *empirical model* assigns an exact
rational weight to each pair (outcome tuple, context), where a context picks
one measurement per site and an outcome tuple picks one outcome per site. A
*hidden-variable model* additionally carries a finite set of hidden states and
weights triples (outcome tuple, context, hidden state). All weights are
nonnegative `fractions.Fraction` values summing to exactly 1; nothing in this
package ever rounds.

Canonical order sorts contexts, outcome tuples and hidden states by the
index of each label in its declared list, position by position. A model
stores its weight table in canonical order: by context, then outcome tuple,
then hidden state. So `weights` and every aggregate view (context marginals,
per-context and per-(context, hidden state) outcome rows, hidden-state
distributions, per-site responses) iterate in canonical order, and a check
that scans them in turn finds the canonically first violation.

The two row views take no arguments: `context_distributions()` maps each
non-null context to p(o | context), `context_lambda_distributions()` each
positive (context, hidden state) pair to p(o | context, λ). The lookups
`outcome_distribution` and `lambda_distribution` validate their arguments.

Events are partial assignments (some sites' outcomes, some sites'
measurements, optionally a hidden state). `event_prob` and `cond_prob` give
exact unconditional and conditional probabilities, and the module-level
`equivalent_*` functions decide whether two models make identical predictions:
the same non-null contexts and the same conditional outcome distributions on
each of them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, TypeVar

from .codec import Codec, fraction_text, read_rational
from .errors import (
    InputError,
    ModelFormatError,
    NegativeWeightError,
    NullConditioningError,
    SignatureMismatchError,
    UnknownLabelError,
    WeightSumError,
    show_text,
    show_value,
)

OutcomeTuple = tuple[str, ...]
Context = tuple[str, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# Ceiling on enumerations (deterministic strategies, coloring candidates,
# constructed hidden-state sets). Overridable per call and via the CLI.
DEFAULT_GUARD = 10**6


def _unique_labels(labels: Sequence[str], what: str) -> tuple[str, ...]:
    if isinstance(labels, str):
        raise InputError(f"{what} must be a sequence of labels, not the string {show_value(labels)}")
    out = tuple(labels)
    if not out:
        raise InputError(f"{what} must not be empty")
    for label in out:
        if not isinstance(label, str) or not label:
            raise InputError(f"{what} contains a non-string or empty label: {show_value(label)}")
    if len(set(out)) != len(out):
        raise InputError(f"{what} contains duplicate labels: {show_value(out)}")
    return out


@dataclass(frozen=True)
class Site:
    """One party in a scenario: a name, its measurements, its outcomes."""

    name: str
    measurements: tuple[str, ...]
    outcomes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise InputError(f"site name must be a nonempty string, got {show_value(self.name)}")
        where = f"site {show_text(self.name)}"
        object.__setattr__(self, "measurements", _unique_labels(self.measurements, f"{where}: measurements"))
        object.__setattr__(self, "outcomes", _unique_labels(self.outcomes, f"{where}: outcomes"))


@dataclass(frozen=True)
class Event:
    """A partial assignment: outcomes and measurements by site name.

    `outcomes` and `measurements` map site names to labels; `hidden` pins the
    hidden state (hidden-variable models only). Empty event = sure event.
    """

    outcomes: Mapping[str, str] = field(default_factory=dict)
    measurements: Mapping[str, str] = field(default_factory=dict)
    hidden: str | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "outcomes", dict(self.outcomes))
        object.__setattr__(self, "measurements", dict(self.measurements))

    def __hash__(self) -> int:
        return hash(
            (tuple(sorted(self.outcomes.items())), tuple(sorted(self.measurements.items())), self.hidden)
        )


def merge_events(first: Event, second: Event) -> Event | None:
    """Conjunction of two events, or None if they contradict each other."""
    outcomes = dict(second.outcomes)
    for name, label in first.outcomes.items():
        if outcomes.get(name, label) != label:
            return None
        outcomes[name] = label
    measurements = dict(second.measurements)
    for name, label in first.measurements.items():
        if measurements.get(name, label) != label:
            return None
        measurements[name] = label
    hidden = first.hidden
    if hidden is None:
        hidden = second.hidden
    elif second.hidden is not None and second.hidden != hidden:
        return None
    return Event(outcomes=outcomes, measurements=measurements, hidden=hidden)


@dataclass(frozen=True)
class Witness(Codec):
    """Two event descriptions whose probabilities disagree."""

    lhs_desc: str
    rhs_desc: str
    lhs: Fraction
    rhs: Fraction
    where: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.lhs == self.rhs:
            raise ValueError("witness values must genuinely differ")

    def describe(self) -> str:
        return (
            f"{self.lhs_desc} = {fraction_text(self.lhs)} but {self.rhs_desc} = {fraction_text(self.rhs)}"
        )


@dataclass(frozen=True)
class PropertyVerdict(Codec):
    """Outcome of one property check: holds, or fails with a witness."""

    holds: bool
    witness: Witness | None = None

    def __post_init__(self) -> None:
        if self.holds and self.witness is not None:
            raise ValueError("a holding verdict must not carry a witness")
        if not self.holds and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")

    def describe(self) -> str:
        if self.holds:
            return "holds"
        assert self.witness is not None
        return f"fails: {self.witness.describe()}"


def describe_context(sites: Sequence[Site], context: Context) -> str:
    return ", ".join(f"{s.name}={m}" for s, m in zip(sites, context))


def describe_outcome(sites: Sequence[Site], outcome: OutcomeTuple) -> str:
    return ", ".join(f"{s.name}={a}" for s, a in zip(sites, outcome))


class _BaseModel:
    """The weight table both model kinds share.

    Every key starts with (outcome tuple, context); a subclass's `_check_key`
    validates the rest of its key shape and its `_rank` gives the key's
    position in canonical order: the label indices of its context, then of its
    outcome tuple, then of its hidden state. Validation, the support, event
    probabilities and the per-context outcome table live here.
    """

    def __init__(self, sites: Sequence[Site], weights: Mapping[tuple, object]) -> None:
        sites = tuple(sites)
        if not sites:
            raise InputError("a model needs at least one site")
        for site in sites:
            if not isinstance(site, Site):
                raise InputError(f"expected a Site, got {show_value(site)}")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate site names: {show_value(names)}")
        self.sites: tuple[Site, ...] = sites
        self._site_index = {site.name: i for i, site in enumerate(sites)}
        self._meas_index = tuple({m: i for i, m in enumerate(site.measurements)} for site in sites)
        self._out_index = tuple({a: i for i, a in enumerate(site.outcomes)} for site in sites)
        cleaned: dict[tuple, Fraction] = {}
        total = ZERO
        for raw_key, raw in weights.items():
            key = self._check_key(raw_key)
            value = raw if type(raw) is Fraction else Fraction(read_rational(raw, f"weight at {show_value(raw_key)}"))
            if value < 0:
                raise NegativeWeightError(key, value)
            total += value
            if value:
                cleaned[key] = value
        if total != 1:
            raise WeightSumError(total)
        self._weights = {key: cleaned[key] for key in sorted(cleaned, key=self._rank)}
        # Aggregate tables, built on first use. Every cache attribute is assigned
        # in __init__, so instances keep sharing one dict key layout.
        self._ctx_mass: dict[Context, Fraction] | None = None
        self._ctx_rows: dict[Context, Mapping[OutcomeTuple, Fraction]] | None = None

    def _check_key(self, key: tuple) -> tuple:  # pragma: no cover - abstract
        raise NotImplementedError

    def _rank(self, key: tuple) -> tuple[int, ...]:  # pragma: no cover - abstract
        raise NotImplementedError

    def check_lambda(self, lam: str) -> str:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def weights(self) -> Mapping[tuple, Fraction]:
        """Read-only support of the joint weight table (zero entries omitted)."""
        return MappingProxyType(self._weights)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.sites == other.sites and self._weights == other._weights

    __hash__ = None  # type: ignore[assignment]

    @property
    def n_sites(self) -> int:
        return len(self.sites)

    def site_index(self, name: str) -> int:
        index = self._site_index.get(name) if isinstance(name, str) else None
        if index is None:
            raise UnknownLabelError(f"unknown site name: {show_value(name)}")
        return index

    def context_tuples(self) -> Iterator[Context]:
        """All contexts in canonical (declared-label lexicographic) order."""
        return itertools.product(*(site.measurements for site in self.sites))

    def outcome_tuples(self) -> Iterator[OutcomeTuple]:
        """All outcome tuples in canonical order."""
        return itertools.product(*(site.outcomes for site in self.sites))

    def n_context_tuples(self) -> int:
        return math.prod(len(site.measurements) for site in self.sites)

    def n_outcome_tuples(self) -> int:
        return math.prod(len(site.outcomes) for site in self.sites)

    def context_sort_key(self, context: Context) -> tuple[int, ...]:
        return tuple(map(dict.__getitem__, self._meas_index, context))

    def outcome_sort_key(self, outcome: OutcomeTuple) -> tuple[int, ...]:
        return tuple(map(dict.__getitem__, self._out_index, outcome))

    def _check_labels(
        self, labels: Iterable[tuple[int, object]], index: tuple[dict[str, int], ...], what: str
    ) -> None:
        """The label rule: each (site index, label) pair names a `str` label
        declared at that site, a measurement or an outcome as `what` says."""
        for i, label in labels:
            if not isinstance(label, str) or label not in index[i]:
                site = show_value(self.sites[i].name)
                raise UnknownLabelError(f"unknown {what} {show_value(label)} at site {site}")

    def _site_tuple(self, labels: Sequence[str], index: tuple[dict[str, int], ...], what: str) -> tuple[str, ...]:
        """One declared label per site, as a tuple."""
        if isinstance(labels, str):
            raise ModelFormatError(f"{show_value(labels)} is a string, not a sequence of {what}s, one per site")
        labels = tuple(labels)
        if len(labels) != self.n_sites:
            raise ModelFormatError(f"{show_value(labels)} does not have one {what} per site")
        self._check_labels(enumerate(labels), index, what)
        return labels

    def check_context(self, context: Sequence[str]) -> Context:
        """Validate and canonicalize a context, one measurement per site."""
        return self._site_tuple(context, self._meas_index, "measurement")

    def check_outcome_tuple(self, outcome: Sequence[str]) -> OutcomeTuple:
        """Validate and canonicalize an outcome tuple, one outcome per site."""
        return self._site_tuple(outcome, self._out_index, "outcome")

    def event_prob(self, event: Event) -> Fraction:
        """Exact probability that every constraint in `event` is realized."""
        hidden = None if event.hidden is None else self.check_lambda(event.hidden)
        outcome_by_index = {self.site_index(name): a for name, a in event.outcomes.items()}
        self._check_labels(outcome_by_index.items(), self._out_index, "outcome")
        measurement_by_index = {self.site_index(name): m for name, m in event.measurements.items()}
        self._check_labels(measurement_by_index.items(), self._meas_index, "measurement")
        total = ZERO
        for key, weight in self._weights.items():
            outcome, context = key[0], key[1]
            if (
                (hidden is None or key[2] == hidden)
                and all(outcome[i] == a for i, a in outcome_by_index.items())
                and all(context[i] == m for i, m in measurement_by_index.items())
            ):
                total += weight
        return total

    def cond_prob(self, target: Event, given: Event) -> Fraction:
        """Exact conditional probability of `target` given `given`."""
        denominator = self.event_prob(given)
        if denominator == 0:
            raise NullConditioningError(f"conditioning event has probability 0: {given}")
        merged = merge_events(target, given)
        numerator = ZERO if merged is None else self.event_prob(merged)
        return numerator / denominator

    def context_distributions(self) -> Mapping[Context, Mapping[OutcomeTuple, Fraction]]:
        """Row p(o | context) of each non-null context, hidden states summed
        out: a read-only view in canonical order, built with `context_weights`
        in one pass over the weight table."""
        if self._ctx_rows is None:
            masses: dict[Context, Fraction] = {}
            sums: dict[Context, dict[OutcomeTuple, Fraction]] = {}
            for key, weight in self._weights.items():
                outcome, context = key[0], key[1]
                masses[context] = masses.get(context, ZERO) + weight
                row = sums.setdefault(context, {})
                # A cell seen once keeps its weight object: no new Fraction.
                row[outcome] = row[outcome] + weight if outcome in row else weight
            self._ctx_mass = masses
            self._ctx_rows = {
                context: MappingProxyType({o: w / masses[context] for o, w in row.items()})
                for context, row in sums.items()
            }
        return MappingProxyType(self._ctx_rows)

    def context_weights(self) -> Mapping[Context, Fraction]:
        """Marginal weight of each non-null context (hidden states summed out)."""
        self.context_distributions()
        return MappingProxyType(self._ctx_mass)

    def outcome_distribution(self, context: Sequence[str]) -> Mapping[OutcomeTuple, Fraction]:
        """Conditional outcome distribution on a non-null context (sparse)."""
        return _row(self.context_distributions(), self.check_context(context))


def _row(rows: Mapping, key: tuple) -> Mapping[OutcomeTuple, Fraction]:
    """`rows[key]`, or the null-conditioning error for a key with no row."""
    row = rows.get(key)
    if row is None:
        raise NullConditioningError(f"conditioning event {key} has probability 0")
    return row


class EmpiricalModel(_BaseModel):
    """A weight for every (outcome tuple, context) pair, summing to 1.

    Treat instances as immutable; aggregate views are cached on first use.
    """

    def _check_key(self, key: tuple) -> tuple[OutcomeTuple, Context]:
        try:
            outcome, context = key
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(f"weight key {show_value(key)} is not an (outcome, context) pair") from exc
        return self.check_outcome_tuple(outcome), self.check_context(context)

    def _rank(self, key: tuple[OutcomeTuple, Context]) -> tuple[int, ...]:
        return (
            *map(dict.__getitem__, self._meas_index, key[1]),
            *map(dict.__getitem__, self._out_index, key[0]),
        )

    def check_lambda(self, lam: str) -> str:
        raise InputError("empirical models have no hidden states to condition on")

    def __repr__(self) -> str:
        return f"EmpiricalModel({len(self.sites)} sites, support {len(self._weights)})"


class HiddenVariableModel(_BaseModel):
    """A weight for every (outcome tuple, context, hidden state), summing to 1.

    Treat instances as immutable; aggregate views are cached on first use.
    """

    def __init__(
        self,
        sites: Sequence[Site],
        lambda_set: Sequence[str],
        weights: Mapping[tuple[Sequence[str], Sequence[str], str], object],
    ) -> None:
        self.lambda_set: tuple[str, ...] = _unique_labels(lambda_set, "hidden state set")
        self._lambda_index = {lam: i for i, lam in enumerate(self.lambda_set)}
        super().__init__(sites, weights)
        self._ctx_lam_mass: dict[tuple[Context, str], Fraction] | None = None
        self._lambda_mass: dict[Context, dict[str, Fraction]] | None = None
        self._ctx_lam_rows: dict[tuple[Context, str], Mapping[OutcomeTuple, Fraction]] | None = None
        self._responses: dict[tuple[int, str, str], Mapping[str, Fraction]] | None = None

    def _check_key(self, key: tuple) -> tuple[OutcomeTuple, Context, str]:
        try:
            outcome, context, lam = key
        except (TypeError, ValueError) as exc:
            raise ModelFormatError(
                f"weight key {show_value(key)} is not an (outcome, context, hidden) triple"
            ) from exc
        return self.check_outcome_tuple(outcome), self.check_context(context), self.check_lambda(lam)

    def _rank(self, key: tuple[OutcomeTuple, Context, str]) -> tuple[int, ...]:
        return (
            *map(dict.__getitem__, self._meas_index, key[1]),
            *map(dict.__getitem__, self._out_index, key[0]),
            self._lambda_index[key[2]],
        )

    def check_lambda(self, lam: str) -> str:
        if not isinstance(lam, str) or lam not in self._lambda_index:
            raise UnknownLabelError(f"unknown hidden state {show_value(lam)}")
        return lam

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HiddenVariableModel):
            return NotImplemented
        return self.lambda_set == other.lambda_set and super().__eq__(other)

    def __repr__(self) -> str:
        return (
            f"HiddenVariableModel({len(self.sites)} sites, "
            f"{len(self.lambda_set)} hidden states, support {len(self._weights)})"
        )

    def context_lambda_distributions(self) -> Mapping[tuple[Context, str], Mapping[OutcomeTuple, Fraction]]:
        """Row p(o | context, λ) of each positive (context, hidden state) pair:
        a read-only view in canonical order, built with `context_lambda_weights`
        and the hidden-state masses per context in one pass over the weights."""
        if self._ctx_lam_rows is None:
            sums: dict[Context, dict[str, dict[OutcomeTuple, Fraction]]] = {}
            for (outcome, context, lam), weight in self._weights.items():
                sums.setdefault(context, {}).setdefault(lam, {})[outcome] = weight
            masses: dict[tuple[Context, str], Fraction] = {}
            lambda_mass: dict[Context, dict[str, Fraction]] = {}
            rows: dict[tuple[Context, str], Mapping[OutcomeTuple, Fraction]] = {}
            # Storage order sorts the contexts, not the hidden states within one.
            rank = self._lambda_index.__getitem__
            for context, by_lambda in sums.items():
                per_lambda = lambda_mass[context] = {}
                for lam in sorted(by_lambda, key=rank):
                    row = by_lambda[lam]
                    mass = per_lambda[lam] = masses[(context, lam)] = sum(row.values(), ZERO)
                    rows[(context, lam)] = MappingProxyType({o: w / mass for o, w in row.items()})
            self._ctx_lam_mass, self._lambda_mass, self._ctx_lam_rows = masses, lambda_mass, rows
        return MappingProxyType(self._ctx_lam_rows)

    def context_lambda_weights(self) -> Mapping[tuple[Context, str], Fraction]:
        """Joint weight of each (context, hidden state) pair with positive mass."""
        self.context_lambda_distributions()
        return MappingProxyType(self._ctx_lam_mass)

    def lambda_distribution(self, context: Sequence[str]) -> Mapping[str, Fraction]:
        """Conditional distribution of the hidden state on a non-null context."""
        context = self.check_context(context)
        mass = self.context_weights().get(context, ZERO)
        if mass == 0:
            raise NullConditioningError(f"context {context} has probability 0")
        self.context_lambda_distributions()
        return {lam: weight / mass for lam, weight in self._lambda_mass[context].items()}

    def outcome_distribution(
        self, context: Sequence[str], lam: str | None = None
    ) -> Mapping[OutcomeTuple, Fraction]:
        """Conditional outcome distribution given a context, optionally a state."""
        if lam is None:
            return super().outcome_distribution(context)
        key = (self.check_context(context), self.check_lambda(lam))
        return _row(self.context_lambda_distributions(), key)

    def site_responses(self) -> Mapping[tuple[int, str, str], Mapping[str, Fraction]]:
        """Each site's response to its own measurement, p(a | m, λ).

        Keyed by (site index, measurement, hidden state), everything at the
        other sites summed out. Only keys with positive mass appear, in
        canonical order: site, then measurement, then hidden state. Each
        response lists its positive outcomes in the site's declared order.
        """
        if self._responses is None:
            masses: dict[tuple[int, str, str], dict[str, Fraction]] = {}
            for (outcome, context, lam), weight in self._weights.items():
                for i, m in enumerate(context):
                    row = masses.setdefault((i, m, lam), {})
                    a = outcome[i]
                    row[a] = row[a] + weight if a in row else weight
            responses: dict[tuple[int, str, str], Mapping[str, Fraction]] = {}
            for i, m, lam in sorted(
                masses, key=lambda k: (k[0], self._meas_index[k[0]][k[1]], self._lambda_index[k[2]])
            ):
                row = masses[(i, m, lam)]
                total = sum(row.values(), ZERO)
                responses[(i, m, lam)] = MappingProxyType(
                    {a: row[a] / total for a in self.sites[i].outcomes if a in row}
                )
            self._responses = responses
        return MappingProxyType(self._responses)


Model = EmpiricalModel | HiddenVariableModel
M = TypeVar("M", bound=_BaseModel)

_KIND_NAMES = {
    EmpiricalModel: "an empirical model",
    HiddenVariableModel: "a hidden-variable model",
    Model: "a model",
}


def require(model: object, kind: type[M], name: str) -> M:
    """The model-kind gate: `model` itself if it is a `kind` (one of the two
    classes, or `Model` for either), else an `InputError` saying which kind
    the operation `name` needs."""
    if not isinstance(model, kind):
        got = _KIND_NAMES.get(type(model), f"a {type(model).__name__}")
        raise InputError(f"{name} needs {_KIND_NAMES[kind]}, not {got}")
    return model


def as_empirical(model: object, name: str) -> EmpiricalModel:
    """`model` as an empirical model: a hidden-variable model is projected."""
    if isinstance(model, HiddenVariableModel):
        return project_to_empirical(model)
    return require(model, EmpiricalModel, name)


def project_to_empirical(hvm: HiddenVariableModel) -> EmpiricalModel:
    """Sum the hidden states out of a hidden-variable model."""
    require(hvm, HiddenVariableModel, "project_to_empirical")
    joint: dict[tuple[OutcomeTuple, Context], Fraction] = {}
    for (outcome, context, _), weight in hvm.weights.items():
        key = (outcome, context)
        joint[key] = joint.get(key, ZERO) + weight
    return EmpiricalModel(hvm.sites, joint)


def _prediction_agreement(left: _BaseModel, right: _BaseModel) -> PropertyVerdict:
    if left.sites != right.sites:
        raise SignatureMismatchError("models do not share the same site signature")
    left_ctx, left_rows = left.context_weights(), left.context_distributions()
    right_ctx, right_rows = right.context_weights(), right.context_distributions()
    contexts = sorted(set(left_ctx) | set(right_ctx), key=left.context_sort_key)
    for context in contexts:
        left_mass = left_ctx.get(context, ZERO)
        right_mass = right_ctx.get(context, ZERO)
        ctx_desc = describe_context(left.sites, context)
        if (left_mass == 0) != (right_mass == 0):
            return PropertyVerdict(
                False,
                Witness(
                    lhs_desc=f"left p({ctx_desc})",
                    rhs_desc=f"right p({ctx_desc})",
                    lhs=left_mass,
                    rhs=right_mass,
                    where=tuple(context),
                ),
            )
        if left_mass == 0:
            continue
        left_dist, right_dist = left_rows[context], right_rows[context]
        for outcome in sorted(set(left_dist) | set(right_dist), key=left.outcome_sort_key):
            left_p = left_dist.get(outcome, ZERO)
            right_p = right_dist.get(outcome, ZERO)
            if left_p != right_p:
                out_desc = describe_outcome(left.sites, outcome)
                return PropertyVerdict(
                    False,
                    Witness(
                        lhs_desc=f"left p({out_desc} | {ctx_desc})",
                        rhs_desc=f"right p({out_desc} | {ctx_desc})",
                        lhs=left_p,
                        rhs=right_p,
                        where=tuple(context) + tuple(outcome),
                    ),
                )
    return PropertyVerdict(True)


def equivalent_empirical(empirical: EmpiricalModel, hvm: HiddenVariableModel) -> PropertyVerdict:
    """Do an empirical model and a hidden-variable model predict alike?

    Same non-null contexts and same conditional outcome distributions on each.
    On failure the witness names the first disagreement in canonical
    (context, outcome) order.
    """
    return _prediction_agreement(
        require(empirical, EmpiricalModel, "equivalent_empirical"),
        require(hvm, HiddenVariableModel, "equivalent_empirical"),
    )


def equivalent_hvm(first: HiddenVariableModel, second: HiddenVariableModel) -> PropertyVerdict:
    """Do two hidden-variable models predict alike (hidden states summed out)?"""
    return _prediction_agreement(
        require(first, HiddenVariableModel, "equivalent_hvm"),
        require(second, HiddenVariableModel, "equivalent_hvm"),
    )


def equivalent_models(left: Model, right: Model) -> PropertyVerdict:
    """Prediction agreement for any combination of model kinds."""
    return _prediction_agreement(
        require(left, Model, "equivalent_models"),  # type: ignore[arg-type]
        require(right, Model, "equivalent_models"),  # type: ignore[arg-type]
    )
