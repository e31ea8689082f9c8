"""Finite probability models over measurement scenarios, with exact weights.

Two model kinds share one vocabulary. An *empirical model* assigns an exact
rational weight to each pair (outcome tuple, context), where a context picks
one measurement per site and an outcome tuple picks one outcome per site. A
*hidden-variable model* additionally carries a finite set of hidden states and
weights triples (outcome tuple, context, hidden state). All weights are
nonnegative `fractions.Fraction` values summing to exactly 1; nothing in this
package ever rounds.

A model stores its weights as int numerators over D, the lcm of the
weights' denominators, and caches only integer tables: counts over D per
context, per (context, hidden state) and per site response. Checks compare
ratios of counts by cross-multiplying, two count rows through
`first_unequal`; every fraction view, `weights` included, is derived per
call and never cached. `describe` writes the labels of a witness.

Canonical order sorts contexts, outcome tuples and hidden states by the
index of each label in its declared list, position by position. A model
stores its weight table in canonical order: by context, then outcome tuple,
then hidden state. So `weights` and every aggregate view (context marginals,
per-context and per-(context, hidden state) outcome rows, hidden-state
distributions, per-site responses) iterate in canonical order, and a check
that scans them in turn finds the canonically first violation.

One label rule, `_BaseModel._labels`, accepts a context or an outcome
tuple: a non-`str` sequence of one declared `str` label per site (a tuple is
kept as given), ranked by its label indices in mixed radix. `check_context`,
`check_outcome_tuple` and every lookup that takes a context go through it.
One key rule, `_BaseModel._key_rule`, serves both kinds and both paths in:
a weight key is (outcome tuple, context), followed by exactly one hidden
state when the model has hidden states, and its rank in canonical order is
one int, its label indices read in mixed radix, context first and hidden
state last. The rule ranks each distinct label tuple once, in caches that
live for one table and are never kept on a model. A key it does not take
goes to `_ranked_key`, which names the first fault or ranks the key by the
table's rule. The public constructors and the model-file reader (`modelio`)
are the only paths in, and share one core, `_settle`: the lcm of the
denominators, the sort by rank, the sum check and `_store`. Completions,
projections, membership witnesses (`local._mixture_hvm`) and the seeded
generator (`randgen`) hand int numerators in canonical order to `_derive`,
the core that checks nothing, reached only as a method of the validated
model they derive from.

The two row views take no arguments: `context_distributions()` maps each
non-null context to p(o | context), `context_lambda_distributions()` each
positive (context, hidden state) pair to p(o | context, λ). The lookups
`outcome_distribution` and `lambda_distribution` derive only the row they
return.

Events are partial assignments (some sites' outcomes, some sites'
measurements, optionally a hidden state). `event_prob` and `cond_prob` give
exact unconditional and conditional probabilities, and the module-level
`equivalent_*` functions decide whether two models make identical predictions:
the same non-null contexts and the same conditional outcome distributions on
each of them. One scan, `_prediction_agreement`, serves all three. It reads
the contexts, then each context's outcomes, as stored when both tables hold
the same keys, else as the sorted union, and its witness is the canonically
first disagreement: a context null on one side only, or an outcome whose
conditional probabilities differ.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, TypeVar, overload

from .codec import Codec, fraction_text, read_ratio
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
    try:
        out = tuple(labels)
    except TypeError:
        raise InputError(f"{what} must be a sequence of labels, not {show_value(labels)}") from None
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
        for part in ("outcomes", "measurements"):
            try:
                object.__setattr__(self, part, dict(getattr(self, part)))
            except (TypeError, ValueError):
                raise InputError(f"event {part} must be a mapping, not {show_value(getattr(self, part))}") from None

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


def site_tuple(sites: Sequence[Site], who: str) -> tuple[Site, ...]:
    """`sites` as a tuple of `Site`s, else an `InputError` naming `who`."""
    try:
        sites = tuple(sites)
    except TypeError:
        raise InputError(f"{who} needs a sequence of sites, not {show_value(sites)}") from None
    for site in sites:
        if not isinstance(site, Site):
            raise InputError(f"expected a Site, got {show_value(site)}")
    return sites


def describe(sites: Sequence[Site], labels: Sequence[str]) -> str:
    """One label per site as witness text, "a=x, b=y": a context, an outcome
    tuple or part of one."""
    return ", ".join(f"{s.name}={x}" for s, x in zip(sites, labels))


def first_unequal(
    keys: Iterable, left: Mapping, left_mass: int, right: Mapping, right_mass: int
) -> tuple[object, Fraction, Fraction] | None:
    """The first of `keys` whose counts differ as ratios, left[key] /
    left_mass != right[key] / right_mass (an absent key counts 0), with
    both ratios, or None. The one comparison of two count rows."""
    for key in keys:
        n, k = left.get(key, 0), right.get(key, 0)
        # n / left_mass != k / right_mass, without the divisions.
        if n * right_mass != k * left_mass:
            return key, Fraction(n, left_mass), Fraction(k, right_mass)
    return None


class _Ranks(dict):
    """Label tuple -> (that tuple, its rank by the label rule times
    `stride`), each distinct tuple put once through the label rule, which
    names the first fault of a tuple it refuses; an unhashable one raises
    `TypeError`."""

    def __init__(self, model: _BaseModel, index: tuple[dict[str, int], ...], what: str, stride: int) -> None:
        super().__init__()
        self.model, self.index, self.what, self.stride = model, index, what, stride

    def __missing__(self, labels: tuple) -> tuple[tuple[str, ...], int]:
        labels, rank = self.model._labels(labels, self.index, self.what)
        entry = self[labels] = labels, rank * self.stride
        return entry


class _BaseModel:
    """The weight table both model kinds share.

    A key is (outcome tuple, context), then one hidden state exactly when
    `_lambda_index` (hidden state -> index) is not None; beyond that the
    kinds differ here only in `_KEY_SHAPE`, the key shape an error names.
    `_key_rule` and `_ranked_key` return a key in tuple form with its int
    rank in canonical order. Validation, equality, the support, event
    probabilities and the per-context outcome table live here.

    The weights, and so every table built from them, are stored in canonical
    order. `_build_tables` relies on it to read each context's weights as
    one run, and `_prediction_agreement` to scan two tables that hold the
    same keys in their stored order.
    """

    _KEY_SHAPE: str
    _lambda_index: dict[str, int] | None

    def __init__(self, sites: Sequence[Site], weights: Mapping[tuple, object]) -> None:
        self._label(sites)
        self._settle(self._ranked_weights(weights))

    def _label(self, sites: Sequence[Site], lambda_set: Sequence[str] | None = None) -> None:
        """Check and keep the labels, as the public constructors do: a
        hidden-variable model's hidden states `lambda_set` first, then the sites."""
        if isinstance(self, HiddenVariableModel):
            self.lambda_set = _unique_labels(lambda_set, "hidden state set")
            self._lambda_index = {lam: i for i, lam in enumerate(self.lambda_set)}
        sites = site_tuple(sites, "a model")
        if not sites:
            raise InputError("a model needs at least one site")
        names = [site.name for site in sites]
        if len(set(names)) != len(names):
            raise InputError(f"duplicate site names: {show_value(names)}")
        self.sites: tuple[Site, ...] = sites
        self._site_index = {site.name: i for i, site in enumerate(sites)}
        self._meas_index = tuple({m: i for i, m in enumerate(site.measurements)} for site in sites)
        self._out_index = tuple({a: i for i, a in enumerate(site.outcomes)} for site in sites)

    def _key_rule(self) -> Callable[..., tuple[tuple, int]]:
        """The key rule for one table: (outcome tuple, context, the tuple of
        the parts after them) -> (the key, its int rank), one shared tuple
        per distinct outcome tuple or context. Any other key raises an
        `InputError`, `KeyError` or `TypeError`; `_ranked_key` names its
        first fault."""
        # The parts after the context: none for an empirical model, else one declared hidden state.
        lambdas = {(): ((), 0)} if self._lambda_index is None else {(lam,): ((lam,), l) for lam, l in self._lambda_index.items()}
        outcomes = _Ranks(self, self._out_index, "outcome", len(lambdas))
        contexts = _Ranks(self, self._meas_index, "measurement", len(lambdas) * math.prod(map(len, self._out_index)))

        def rank(outcome: tuple, context: tuple, lam: tuple) -> tuple[tuple, int]:
            (outcome, o), (context, c), (lam, l) = outcomes[outcome], contexts[context], lambdas[lam]
            return (outcome, context) + lam, c + o + l

        return rank

    def _ranked_weights(self, weights: Mapping[tuple, object]) -> dict[int, tuple[tuple, int, int]]:
        """The weights of a public constructor's table, checked key by key
        and weight by weight in the table's order, by rank, for `_settle`."""
        if not callable(getattr(weights, "items", None)):
            raise InputError(f"a model needs a mapping of weights, not {show_value(weights)}")
        ranked = {}
        rank = self._key_rule()
        for raw_key, raw in weights.items():
            try:
                # A key of label tuples is stored as given.
                if type(raw_key) is not tuple or type(raw_key[0]) is not tuple or type(raw_key[1]) is not tuple:
                    raise TypeError
                key, r = raw_key, rank(raw_key[0], raw_key[1], raw_key[2:])[1]
            except (IndexError, InputError, KeyError, TypeError):
                key, r = self._ranked_key(raw_key, rank)
            if type(raw) is Fraction:
                n, d = raw.numerator, raw.denominator
            else:
                n, d = read_ratio(raw, f"weight at {show_value(raw_key)}")
            if n < 0:
                raise NegativeWeightError(key, Fraction(n, d))
            ranked[r] = key, n, d
        return ranked

    def _settle(self, ranked: Mapping[int, tuple[tuple, int, int]]) -> None:
        """The core the public constructors and the model-file reader share.
        `ranked` maps the int rank of each nonnegative weight n / d to (its
        key, n, d); the positive weights are kept in rank order, as int
        numerators over the lcm of their denominators, once they sum to 1."""
        scale = math.lcm(*{d for _, n, d in ranked.values() if n})
        numerators = {key: n * (scale // d) for key, n, d in map(ranked.__getitem__, sorted(ranked)) if n}
        total = sum(numerators.values())
        if total != scale:
            raise WeightSumError(Fraction(total, scale))
        self._store(numerators, scale)

    def _store(self, numerators: dict[tuple, int], scale: int) -> None:
        """Keep `numerators` over `scale`, both divided by their gcd: over D.
        Int tables, key -> (mass, {item: count}) over D in canonical order,
        are built on first use in one pass over the weights. Every cache is
        assigned here, so instances keep sharing one dict key layout."""
        common = math.gcd(scale, *numerators.values())
        self._weights = numerators if common == 1 else {key: n // common for key, n in numerators.items()}
        self._denominator = scale // common
        self._ctx_table = self._lambda_rows = self._responses = None

    @overload
    def _derive(self, numerators: dict[tuple, int], scale: int, lambda_set: tuple[str, ...]) -> HiddenVariableModel: ...
    @overload
    def _derive(self, numerators: dict[tuple, int], scale: int, lambda_set: None = None) -> EmpiricalModel: ...
    def _derive(self, numerators: dict[tuple, int], scale: int, lambda_set: tuple[str, ...] | None = None) -> Model:
        """The core, which checks nothing: a model over this model's sites
        from `numerators` summing to `scale`, keyed by its labels in canonical
        order. Given distinct `lambda_set` states, it is a hidden-variable
        model over them; else an empirical model."""
        kind = EmpiricalModel if lambda_set is None else HiddenVariableModel
        model = kind.__new__(kind)
        if lambda_set is not None:
            model.lambda_set, model._lambda_index = lambda_set, {lam: i for i, lam in enumerate(lambda_set)}
        model.sites, model._site_index = self.sites, self._site_index
        model._meas_index, model._out_index = self._meas_index, self._out_index
        model._store(numerators, scale)
        return model

    def _ranked_key(self, key: object, rank: Callable[..., tuple[tuple, int]]) -> tuple[tuple, int]:
        """Any key checked part by part through the label rule, in tuple
        form with its int rank by `rank`, the table's `_key_rule`, or the
        `InputError` naming its first fault."""
        try:
            # A key longer than three parts is malformed, however long it is.
            parts = key if type(key) is tuple else tuple(itertools.islice(key, 4))  # type: ignore[call-overload]
        except TypeError:
            parts = ()
        if len(parts) != (2 if self._lambda_index is None else 3):
            raise ModelFormatError(f"weight key {show_value(key)} is not an {self._KEY_SHAPE}")
        outcome = self._labels(parts[0], self._out_index, "outcome")[0]
        context = self._labels(parts[1], self._meas_index, "measurement")[0]
        return rank(outcome, context, tuple(map(self.check_lambda, parts[2:])))

    def check_lambda(self, lam: str) -> str:
        """`lam` itself if it is one of the model's hidden states."""
        if self._lambda_index is None:
            raise InputError("empirical models have no hidden states to condition on")
        if not isinstance(lam, str) or lam not in self._lambda_index:
            raise UnknownLabelError(f"unknown hidden state {show_value(lam)}")
        return lam

    @property
    def weights(self) -> Mapping[tuple, Fraction]:
        """Read-only support of the joint weight table (zero entries omitted), derived per call."""
        return MappingProxyType({key: Fraction(n, self._denominator) for key, n in self._weights.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        same_labels = self.sites == other.sites and self._lambda_index == other._lambda_index
        # `_store` keeps both in lowest terms: the same weights are the same D and numerators.
        return same_labels and self._denominator == other._denominator and self._weights == other._weights

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        states = "" if self._lambda_index is None else f"{len(self._lambda_index)} hidden states, "
        return f"{type(self).__name__}({len(self.sites)} sites, {states}support {len(self._weights)})"

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

    def _check_labels(self, labels: Iterable[tuple[int, object]], index: tuple[dict[str, int], ...], what: str) -> None:
        """Each (site index, label) pair names a `str` label declared at that
        site, a measurement or an outcome as `what` says."""
        for i, label in labels:
            if not isinstance(label, str) or label not in index[i]:
                site = show_value(self.sites[i].name)
                raise UnknownLabelError(f"unknown {what} {show_value(label)} at site {site}")

    def _labels(self, labels: object, index: tuple[dict[str, int], ...], what: str) -> tuple[tuple, int]:
        """The label rule: `labels` as a tuple (kept as given when it is one)
        of one declared `str` label per site, with its rank, the index of
        each label read in mixed radix, the first site slowest, or the error
        that names the first fault."""
        if type(labels) is not tuple:
            if isinstance(labels, str):
                raise ModelFormatError(f"{show_value(labels)} is a string, not a sequence of {what}s, one per site")
            try:
                labels = tuple(labels)  # type: ignore[call-overload]
            except TypeError:
                raise ModelFormatError(f"{show_value(labels)} is not a sequence of {what}s, one per site") from None
        if len(labels) != len(index):
            raise ModelFormatError(f"{show_value(labels)} does not have one {what} per site")
        try:
            "".join(labels)  # raises unless every label is a str
            rank = 0
            for position, label in zip(index, labels):
                rank = rank * len(position) + position[label]
        except (KeyError, TypeError):
            self._check_labels(enumerate(labels), index, what)
        return labels, rank  # type: ignore[return-value]

    def check_context(self, context: Sequence[str]) -> Context:
        """Validate and canonicalize a context, one measurement per site."""
        return self._labels(context, self._meas_index, "measurement")[0]

    def check_outcome_tuple(self, outcome: Sequence[str]) -> OutcomeTuple:
        """Validate and canonicalize an outcome tuple, one outcome per site."""
        return self._labels(outcome, self._out_index, "outcome")[0]

    def _event_labels(self, event: Event) -> tuple[str | None, list[tuple[int, str]], list[tuple[int, str]]]:
        """The checked parts of `event`: its hidden state, then (site index,
        label) pairs of its outcomes and of its measurements."""
        hidden = None if event.hidden is None else self.check_lambda(event.hidden)
        outcomes = [(self.site_index(name), a) for name, a in event.outcomes.items()]
        self._check_labels(outcomes, self._out_index, "outcome")
        measurements = [(self.site_index(name), m) for name, m in event.measurements.items()]
        self._check_labels(measurements, self._meas_index, "measurement")
        return hidden, outcomes, measurements

    def event_prob(self, event: Event) -> Fraction:
        """Exact probability that every constraint in `event` is realized.

        Summed from the cached count tables, not the weights: per context,
        or per (context, λ) when the event pins λ, only the rows whose
        context meets the measurement constraints are read. The first call
        on a hidden-variable model builds its tables."""
        hidden, outcomes, measurements = self._event_labels(event)
        if hidden is None:
            rows: Iterable = self._context_table().items()
        else:
            rows = ((c, entry) for (c, lam), entry in self._lambda_table().items() if lam == hidden)  # type: ignore[attr-defined]
        total = 0
        for context, (mass, row) in rows:
            if all(context[i] == m for i, m in measurements):
                total += sum(n for o, n in row.items() if all(o[i] == a for i, a in outcomes)) if outcomes else mass
        return Fraction(total, self._denominator)

    def cond_prob(self, target: Event, given: Event) -> Fraction:
        """Exact conditional probability of `target` given `given`. A target
        that contradicts `given` has probability 0 once its labels pass
        `event_prob`'s checks."""
        denominator = self.event_prob(given)
        if denominator == 0:
            raise NullConditioningError(f"conditioning event has probability 0: {show_value(given)}")
        merged = merge_events(target, given)
        if merged is None:
            self._event_labels(target)
            return ZERO
        return self.event_prob(merged) / denominator

    def _build_tables(self) -> None:
        rows: dict[Context, dict[OutcomeTuple, int]] = {}
        for (outcome, context), n in self._weights.items():
            rows.setdefault(context, {})[outcome] = n
        self._ctx_table = _totalled(rows)

    def _context_table(self) -> dict[Context, tuple[int, dict[OutcomeTuple, int]]]:
        """Each non-null context's outcome counts, hidden states summed out."""
        if self._ctx_table is None:
            self._build_tables()
        return self._ctx_table  # type: ignore[return-value]

    def _masses(self, table: Mapping[tuple, tuple[int, Mapping]]) -> Mapping[tuple, Fraction]:
        return MappingProxyType({key: Fraction(mass, self._denominator) for key, (mass, _) in table.items()})

    def context_distributions(self) -> Mapping[Context, Mapping[OutcomeTuple, Fraction]]:
        """Row p(o | context) of each non-null context, hidden states summed
        out: a read-only view in canonical order."""
        return _fraction_rows(self._context_table())

    def context_weights(self) -> Mapping[Context, Fraction]:
        """Marginal weight of each non-null context (hidden states summed out)."""
        return self._masses(self._context_table())

    def outcome_distribution(self, context: Sequence[str]) -> Mapping[OutcomeTuple, Fraction]:
        """Conditional outcome distribution on a non-null context (sparse)."""
        return _row(self._context_table(), self.check_context(context))


def _totalled(rows: Mapping[tuple, dict]) -> dict[tuple, tuple[int, dict]]:
    return {key: (sum(row.values()), row) for key, row in rows.items()}


def _declared(row: dict[str, int], index: Mapping[str, int]) -> dict[str, int]:
    """`row` with its outcomes in their declared order at the site."""
    return {a: row[a] for a in sorted(row, key=index.__getitem__)}


def _fraction_row(mass: int, row: Mapping) -> Mapping:
    return MappingProxyType({item: Fraction(n, mass) for item, n in row.items()})


def _fraction_rows(table: Mapping[tuple, tuple[int, Mapping]]) -> Mapping[tuple, Mapping]:
    return MappingProxyType({key: _fraction_row(mass, row) for key, (mass, row) in table.items()})


def _row(table: Mapping[tuple, tuple[int, Mapping]], key: tuple) -> Mapping[OutcomeTuple, Fraction]:
    """The row of `key` as fractions, or the null-conditioning error."""
    entry = table.get(key)
    if entry is None:
        raise NullConditioningError(f"conditioning event {show_value(key)} has probability 0")
    return _fraction_row(*entry)


class EmpiricalModel(_BaseModel):
    """A weight for every (outcome tuple, context) pair, summing to 1.

    Treat instances as immutable; integer tables are cached on first use.
    """

    _KEY_SHAPE = "(outcome, context) pair"
    _lambda_index = None


class HiddenVariableModel(_BaseModel):
    """A weight for every (outcome tuple, context, hidden state), summing to 1.

    Treat instances as immutable; integer tables are cached on first use.
    """

    _KEY_SHAPE = "(outcome, context, hidden) triple"
    lambda_set: tuple[str, ...]

    def __init__(
        self,
        sites: Sequence[Site],
        lambda_set: Sequence[str],
        weights: Mapping[tuple[Sequence[str], Sequence[str], str], object],
    ) -> None:
        self._label(sites, lambda_set)
        self._settle(self._ranked_weights(weights))

    def _build_tables(self) -> None:
        # One pass over the weights, stored context-major: a context's row,
        # its hidden states and each site's response slot, per_site[i][m],
        # are found once per context.
        per_site: list[list[dict[str, dict[str, int]]]] = [[{} for _ in index] for index in self._meas_index]
        rows: dict[Context, dict[OutcomeTuple, int]] = {}
        by_context: dict[Context, dict[str, dict[OutcomeTuple, int]]] = {}
        context = None
        for (outcome, c, lam), n in self._weights.items():
            if c != context:
                context, row, by_lambda = c, rows.setdefault(c, {}), by_context.setdefault(c, {})
                slots = [per_site[i][index[m]] for i, (index, m) in enumerate(zip(self._meas_index, c))]
            row[outcome] = row.get(outcome, 0) + n
            by_lambda.setdefault(lam, {})[outcome] = n
            for slot, a in zip(slots, outcome):
                response = slot.setdefault(lam, {})
                response[a] = response.get(a, 0) + n
        # Storage order sorts the contexts, not the hidden states within one
        # nor the outcomes of one site; a row sorts only its own outcomes.
        rank = self._lambda_index.__getitem__
        self._ctx_table = _totalled(rows)
        self._lambda_rows = {
            (c, lam): (sum(row.values()), row)
            for c, by_lambda in by_context.items()
            for lam in sorted(by_lambda, key=rank)
            for row in [by_lambda[lam]]
        }
        self._responses = {
            (i, m, lam): (sum(row.values()), row if len(row) == 1 else _declared(row, self._out_index[i]))
            for i, (site, slots) in enumerate(zip(self.sites, per_site))
            for m, slot in zip(site.measurements, slots)
            for lam in sorted(slot, key=rank)
            for row in [slot[lam]]
        }

    def _lambda_table(self) -> dict[tuple[Context, str], tuple[int, dict[OutcomeTuple, int]]]:
        """Each positive (context, hidden state) pair's outcome counts."""
        self._context_table()  # builds every table
        return self._lambda_rows  # type: ignore[return-value]

    def _response_table(self) -> dict[tuple[int, str, str], tuple[int, dict[str, int]]]:
        """Each site's outcome counts given its own measurement and λ, as in `site_responses`."""
        self._context_table()  # builds every table
        return self._responses  # type: ignore[return-value]

    def context_lambda_distributions(self) -> Mapping[tuple[Context, str], Mapping[OutcomeTuple, Fraction]]:
        """Row p(o | context, λ) of each positive (context, hidden state)
        pair: a read-only view in canonical order."""
        return _fraction_rows(self._lambda_table())

    def context_lambda_weights(self) -> Mapping[tuple[Context, str], Fraction]:
        """Joint weight of each (context, hidden state) pair with positive mass."""
        return self._masses(self._lambda_table())

    def lambda_distribution(self, context: Sequence[str]) -> Mapping[str, Fraction]:
        """Conditional distribution of the hidden state on a non-null context."""
        context = self.check_context(context)
        entry = self._context_table().get(context)
        if entry is None:
            raise NullConditioningError(f"context {show_value(context)} has probability 0")
        mass, table = entry[0], self._lambda_table()
        return {lam: Fraction(table[(context, lam)][0], mass) for lam in self.lambda_set if (context, lam) in table}

    def outcome_distribution(
        self, context: Sequence[str], lam: str | None = None
    ) -> Mapping[OutcomeTuple, Fraction]:
        """Conditional outcome distribution given a context, optionally a state."""
        if lam is None:
            return super().outcome_distribution(context)
        return _row(self._lambda_table(), (self.check_context(context), self.check_lambda(lam)))

    def site_responses(self) -> Mapping[tuple[int, str, str], Mapping[str, Fraction]]:
        """Each site's response to its own measurement, p(a | m, λ).

        Keyed by (site index, measurement, hidden state), everything at the
        other sites summed out. Only keys with positive mass appear, in
        canonical order: site, then measurement, then hidden state. Each
        response lists its positive outcomes in the site's declared order.
        """
        return _fraction_rows(self._response_table())


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
        type_name = type(model).__name__
        got = _KIND_NAMES.get(type(model), f"{'an' if type_name[0] in 'AEIOUaeiou' else 'a'} {type_name}")
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
    joint: dict[tuple[OutcomeTuple, Context], int] = {}
    for (outcome, context, _), n in hvm._weights.items():
        key = (outcome, context)
        joint[key] = joint.get(key, 0) + n
    return hvm._derive(joint, hvm._denominator)


def _union(left: Mapping, right: Mapping, sort_key: Callable[[tuple], tuple[int, ...]]) -> Iterable:
    """The keys of both, in canonical order: `left` as stored when both
    hold the same keys, else the union sorted by `sort_key`."""
    return left if left.keys() == right.keys() else sorted(left.keys() | right.keys(), key=sort_key)


def _prediction_agreement(left: _BaseModel, right: _BaseModel) -> PropertyVerdict:
    if left.sites != right.sites:
        raise SignatureMismatchError("models do not share the same site signature")
    left_table, right_table = left._context_table(), right._context_table()
    for context in _union(left_table, right_table, left.context_sort_key):
        left_mass, left_row = left_table.get(context, (0, {}))
        right_mass, right_row = right_table.get(context, (0, {}))
        if left_mass and right_mass:
            outcomes = _union(left_row, right_row, left.outcome_sort_key)
            found = first_unequal(outcomes, left_row, left_mass, right_row, right_mass)
            if not found:
                continue
            outcome, lhs, rhs = found
            desc, where = f"p({describe(left.sites, outcome)} | {describe(left.sites, context)})", context + outcome
        else:
            desc, where = f"p({describe(left.sites, context)})", context
            lhs, rhs = Fraction(left_mass, left._denominator), Fraction(right_mass, right._denominator)
        witness = Witness(lhs_desc=f"left {desc}", rhs_desc=f"right {desc}", lhs=lhs, rhs=rhs, where=where)
        return PropertyVerdict(False, witness)
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
