"""Canonical models and mechanical impossibility arguments.

Three classic obstruction patterns, each verified by exact computation:

* `verify_epr`: on the two-site anti-correlated model, a single-valued
  completion must give its one hidden state the empirical 1/2 marginal while
  the partner's outcome pins it to 1, so outcome independence fails; a two
  hidden-state completion satisfies strong determinism, lambda-independence,
  and outcome independence instead.
* `verify_bell`: the three-direction anti-correlation model. The certificate
  route derives three equations over the eight deterministic joint response
  types whose right-hand sides sum past total probability; the polytope route
  proves by exact linear programming that no mixture of the 64 deterministic
  strategies reproduces the table, returning an independently rechecked
  Farkas certificate.
* `verify_ks`: the 18-label, 9-column orthogonality table. The coloring route
  searches the columns depth first and finds zero valid colorings (no
  consistent one-winner-per-column labeling); the guard caps its 262,144
  candidate winner patterns. The parity route counts label occurrences (all
  even) against the odd column count.

`local_polytope_feasibility` is the general membership test behind the Bell
polytope route and works on any empirical model: feasible inputs come back
with an explicit lambda-independent, local hidden-variable model. Its answer
may come from an exact presolve (E. D. Andersen and K. D. Andersen, Math.
Prog. 71, 1995) rather than from the simplex over all strategies. A model
that signals gets a +-1 Farkas certificate off the non-contextuality scan,
and otherwise the strategies that answer some context with a
zero-probability outcome are fixed at weight 0 before the simplex runs. The
returned x or y is still rechecked against the full, unpresolved system.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .codec import Codec
from .constructions import construct_sv
from .errors import InputError, check_size, show_value
from .linprog import feasible_point, verify_farkas, verify_solution
from .models import (
    DEFAULT_GUARD,
    ONE,
    ZERO,
    EmpiricalModel,
    Event,
    HiddenVariableModel,
    PropertyVerdict,
    Site,
    _unique_labels,
    describe,
    equivalent_empirical,
    require,
    site_tuple,
)
from .properties import (
    check_exchangeability,
    check_lambda_independence,
    check_locality,
    check_non_contextuality,
    check_outcome_independence,
    check_parameter_independence,
    check_strong_determinism,
    first_signal,
)


# ---------------------------------------------------------------------------
# Canonical models


_EPR_SITES = (
    Site("a", ("A",), ("+_a", "-_a")),
    Site("b", ("B",), ("+_b", "-_b")),
)


def epr_model() -> EmpiricalModel:
    """Two sites, one measurement each, perfectly anti-correlated outcomes."""
    half = Fraction(1, 2)
    return EmpiricalModel(
        _EPR_SITES,
        {
            (("+_a", "-_b"), ("A", "B")): half,
            (("-_a", "+_b"), ("A", "B")): half,
        },
    )


def epr_escape_hvm() -> HiddenVariableModel:
    """Two equally weighted hidden states, each pinning one joint outcome."""
    half = Fraction(1, 2)
    return HiddenVariableModel(
        _EPR_SITES,
        ("l1", "l2"),
        {
            (("+_a", "-_b"), ("A", "B"), "l1"): half,
            (("-_a", "+_b"), ("A", "B"), "l2"): half,
        },
    )


def bell_model() -> EmpiricalModel:
    """Two sites sharing three measurement directions, contexts weighted 1/9.

    Equal directions anti-correlate perfectly; unequal directions agree with
    probability 3/4, split evenly between the two agreeing outcomes.
    """
    directions = ("1", "2", "3")
    marks = ("+", "-")
    sites = (Site("A", directions, marks), Site("B", directions, marks))
    same = {("+", "-"): Fraction(1, 2), ("-", "+"): Fraction(1, 2)}
    different = {
        ("+", "+"): Fraction(3, 8),
        ("+", "-"): Fraction(1, 8),
        ("-", "+"): Fraction(1, 8),
        ("-", "-"): Fraction(3, 8),
    }
    ninth = Fraction(1, 9)
    weights: dict = {}
    for i in directions:
        for j in directions:
            table = same if i == j else different
            for outcome, p in table.items():
                weights[(outcome, (i, j))] = ninth * p
    return EmpiricalModel(sites, weights)


_KS_COLUMNS: tuple[tuple[str, str, str, str], ...] = (
    ("E1", "E2", "E3", "E4"),
    ("E1", "E5", "E6", "E7"),
    ("E8", "E9", "E3", "E10"),
    ("E8", "E11", "E7", "E12"),
    ("E2", "E5", "E13", "E14"),
    ("E9", "E11", "E14", "E15"),
    ("E16", "E17", "E4", "E10"),
    ("E16", "E18", "E6", "E12"),
    ("E17", "E18", "E13", "E15"),
)


@functools.cache
def ks_model() -> EmpiricalModel:
    """Four homogeneous sites over labels E1..E18 with one-winner contexts.

    The support has one context per (column, slot assignment) pair: each of
    the 9 columns is distributed over the 4 sites in all 24 ways, uniformly
    weighted 1/216, and the site holding the column's first label outputs 1
    while the rest output 0. Built once per process: models are immutable.
    """
    labels = tuple(f"E{i}" for i in range(1, 19))
    marks = ("0", "1")
    sites = tuple(Site(name, labels, marks) for name in ("A", "B", "C", "D"))
    weight = Fraction(1, 216)
    weights: dict = {}
    for column in _KS_COLUMNS:
        for image in itertools.permutations(range(4)):
            context: list[str] = [""] * 4
            for k, slot in enumerate(image):
                context[slot] = column[k]
            outcome = ["0"] * 4
            outcome[image[0]] = "1"
            weights[(tuple(outcome), tuple(context))] = weight
    return EmpiricalModel(sites, weights)


def canonical_model(name: str) -> EmpiricalModel:
    """Look up one of the built-in models: epr, bell, or ks."""
    builders = {"epr": epr_model, "bell": bell_model, "ks": ks_model}
    try:
        return builders[name]()
    except KeyError:
        raise InputError(f"unknown canonical model {show_value(name)}; expected epr, bell, or ks") from None


# ---------------------------------------------------------------------------
# Deterministic strategies and the local polytope


@dataclass(frozen=True)
class DeterministicStrategy:
    """One total response per site: responses[i][k] answers measurement k of site i."""

    responses: tuple[tuple[str, ...], ...]

    def outcome_for(self, sites: Sequence[Site], context: Sequence[str]) -> tuple[str, ...]:
        return tuple(
            self.responses[i][sites[i].measurements.index(m)] for i, m in enumerate(context)
        )

    def describe(self, sites: Sequence[Site]) -> str:
        parts = []
        for site, answers in zip(sites, self.responses):
            inner = " ".join(f"{m}->{a}" for m, a in zip(site.measurements, answers))
            parts.append(f"{site.name}[{inner}]")
        return " ".join(parts)


def count_deterministic_strategies(sites: Sequence[Site]) -> int:
    sites = site_tuple(sites, "count_deterministic_strategies")
    return math.prod(len(site.outcomes) ** len(site.measurements) for site in sites)


def enumerate_deterministic_strategies(
    sites: Sequence[Site], guard: int = DEFAULT_GUARD
) -> list[DeterministicStrategy]:
    """All per-site response functions, in a fixed lexicographic order."""
    sites = site_tuple(sites, "enumerate_deterministic_strategies")
    total = count_deterministic_strategies(sites)
    check_size("deterministic strategy enumeration", total, guard)
    per_site = [
        list(itertools.product(site.outcomes, repeat=len(site.measurements))) for site in sites
    ]
    return [DeterministicStrategy(combo) for combo in itertools.product(*per_site)]


@dataclass(frozen=True)
class PolytopeResult(Codec):
    """Outcome of the deterministic-mixture membership test.

    Feasible: `strategy_weights` lists (strategy index, weight) for the
    mixture and `hvm` is the witness model built from it. Infeasible:
    `certificate` holds one rational per equation row, rechecked to satisfy
    y.A >= 0 and y.b < 0.
    """

    kind = "polytope-membership"

    feasible: bool
    strategy_count: int
    row_labels: tuple[str, ...]
    strategy_weights: tuple[tuple[int, Fraction], ...] | None = None
    certificate: tuple[Fraction, ...] | None = None
    hvm: HiddenVariableModel | None = None


def _mixture_hvm(
    model: EmpiricalModel,
    strategies: Sequence[DeterministicStrategy],
    mixture: Sequence[tuple[int, Fraction]],
) -> HiddenVariableModel:
    """Hidden state `s<index>` plays strategy `index` with weight x on every
    context, each context at its weight in `model`."""
    lambda_set = tuple(f"s{index}" for index, _ in mixture)
    scale = math.lcm(*(x.denominator for _, x in mixture))
    ranked: dict = {}
    for position, (index, x) in enumerate(mixture):
        share = x.numerator * (scale // x.denominator)
        for context, (mass, _) in model._context_table().items():
            outcome = strategies[index].outcome_for(model.sites, context)
            rank = model.context_sort_key(context), model.outcome_sort_key(outcome), position
            ranked[rank] = (outcome, context, lambda_set[position]), mass * share
    weights = dict(map(ranked.__getitem__, sorted(ranked)))
    return model._derive(weights, model._denominator * scale, lambda_set)


def _membership_system(
    model: EmpiricalModel, strategies: Sequence[DeterministicStrategy]
) -> tuple[list[list[int]], list[Fraction], list[str], list[int | None]]:
    """The full membership system A x = b over every listed strategy, with
    the row labels: one 0/1 row per non-null context and outcome tuple, in
    canonical order, then normalization. Also, per strategy, the index of the
    first row with b = 0 that it answers, or None when it answers every
    context with an outcome of positive probability."""
    sites = model.sites
    outcomes = list(model.outcome_tuples())
    outcome_texts = [describe(sites, outcome) for outcome in outcomes]
    # A strategy's answer in a context is outcome row sum_i stride_i * (its
    # outcome index at site i), strides in canonical outcome order; each site's
    # answers are listed in the order that the strategies enumerate them.
    strides = [math.prod(len(site.outcomes) for site in sites[i + 1 :]) for i in range(len(sites))]
    answers = [
        list(itertools.product(range(len(site.outcomes)), repeat=len(site.measurements))) for site in sites
    ]
    rows: list[list[int]] = []
    rhs: list[Fraction] = []
    labels: list[str] = []
    cover: list[int | None] = [None] * len(strategies)
    for context, distribution in model.context_distributions().items():
        parts = [
            [stride * answer[site.measurements.index(m)] for answer in site_answers]
            for site, m, stride, site_answers in zip(sites, context, strides, answers)
        ]
        block = [[0] * len(strategies) for _ in outcomes]
        zero_row = [None if outcome in distribution else len(rows) + k for k, outcome in enumerate(outcomes)]
        for si, k in enumerate(map(sum, itertools.product(*parts))):
            block[k][si] = 1
            if cover[si] is None:
                cover[si] = zero_row[k]
        context_text = describe(sites, context)
        for outcome, row, text in zip(outcomes, block, outcome_texts):
            rows.append(row)
            rhs.append(distribution.get(outcome, ZERO))
            labels.append(f"p({text} | {context_text})")
    rows.append([1] * len(strategies))
    rhs.append(ONE)
    labels.append("total probability")
    return rows, rhs, labels, cover


def _signalling_certificate(
    model: EmpiricalModel, signal: tuple, n_rows: int
) -> list[Fraction]:
    """y over the membership rows of a model whose marginal q(a | c) for
    measurement m at site i differs from q(a | c'): +1 on the rows (o, c)
    and -1 on the rows (o, c') with o_i = a, negated if need be so that
    y.b < 0. Every strategy answers m the same in c and c', so y.A = 0."""
    i, _, first, other, a, lhs, rhs = signal
    contexts = list(model._context_table())
    width = model.n_outcome_tuples()
    # Context c's block of rows starts at row (position of c) * width.
    start, other_start = contexts.index(first) * width, contexts.index(other) * width
    sign = ONE if lhs < rhs else -ONE
    y = [ZERO] * n_rows
    for k, outcome in enumerate(model.outcome_tuples()):
        if outcome[i] == a:
            y[start + k] = sign
            y[other_start + k] = -sign
    return y


def _lifted_certificate(
    rows: Sequence[Sequence[int]], live: Sequence[int], certificate: Sequence[Fraction], cover: Sequence[int | None]
) -> list[Fraction]:
    """A certificate of the 0/1 membership system reduced to rows `live` and
    the strategies with no `cover` row, lifted to every row and strategy.

    With zeros on the other rows, y.A is the reduced y.A >= 0 on each kept
    strategy, but may be negative on a dropped one. Each such strategy j,
    in order, raises y on its cover row by its deficit. That row has b = 0,
    so y.b is unchanged, and it is 0 on every kept strategy and nonnegative
    elsewhere, so no other y.A falls. All in ints over one common scale."""
    scale = math.lcm(*(v.denominator for v in certificate))
    y = [0] * len(rows)
    for i, v in zip(live, certificate):
        y[i] = v.numerator * (scale // v.denominator)
    columns = range(len(cover))
    combination = [0] * len(cover)
    for row, yi in zip(rows, y):
        if yi:
            for j in itertools.compress(columns, row):
                combination[j] += yi
    for j, r in enumerate(cover):
        deficit = -combination[j]
        if r is not None and deficit > 0:
            y[r] += deficit
            for k in itertools.compress(columns, rows[r]):
                combination[k] += deficit
    return [Fraction(v, scale) for v in y]


def _presolved_answer(
    model: EmpiricalModel, rows: list[list[int]], rhs: list[Fraction], cover: list[int | None]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """(x, None) or (None, y) for the full membership system, as
    `feasible_point` answers, with the simplex run only where needed.

    A model that signals is answered by `_signalling_certificate`. Otherwise
    a strategy with a cover row must have weight 0, since that row has b = 0
    and A >= 0, so the simplex runs only on the other strategies and on the
    rows with b != 0 (the dropped rows are 0 on every kept strategy). Its x
    is lifted by zeros, and its y by `_lifted_certificate`."""
    signal = first_signal(model)
    if signal is not None:
        return None, _signalling_certificate(model, signal, len(rows))
    kept = [j for j, r in enumerate(cover) if r is None]
    live = [i for i, bi in enumerate(rhs) if bi]
    x, y = feasible_point([[rows[i][j] for j in kept] for i in live], [rhs[i] for i in live])
    if x is None:
        assert y is not None
        return None, _lifted_certificate(rows, live, y, cover)
    full = [ZERO] * len(cover)
    for j, v in zip(kept, x):
        full[j] = v
    return full, None


def local_polytope_feasibility(
    model: EmpiricalModel, guard: int = DEFAULT_GUARD
) -> PolytopeResult:
    """Can any mixture of deterministic strategies reproduce the model?

    Builds the exact equality system (one row per non-null context and
    outcome tuple, plus normalization) over all deterministic strategies and
    asks for nonnegative weights. The answer may come from the presolve
    (`_presolved_answer`): a signalling model gets a +-1 certificate with no
    simplex, and otherwise the simplex sees only the strategies that no zero
    cell rules out. Either answer is rechecked against the full system by
    direct arithmetic before being returned.
    """
    require(model, EmpiricalModel, "local_polytope_feasibility")
    strategies = enumerate_deterministic_strategies(model.sites, guard)
    rows, rhs, labels, cover = _membership_system(model, strategies)
    x, y = _presolved_answer(model, rows, rhs, cover)
    if x is not None:
        if not verify_solution(rows, rhs, x):
            raise AssertionError("solver returned a point that fails direct recheck")
        mixture = tuple((i, w) for i, w in enumerate(x) if w)
        hvm = _mixture_hvm(model, strategies, mixture)
        return PolytopeResult(
            feasible=True,
            strategy_count=len(strategies),
            row_labels=tuple(labels),
            strategy_weights=mixture,
            hvm=hvm,
        )
    assert y is not None
    if not verify_farkas(rows, rhs, y):
        raise AssertionError("solver returned a certificate that fails direct recheck")
    return PolytopeResult(
        feasible=False,
        strategy_count=len(strategies),
        row_labels=tuple(labels),
        certificate=tuple(y),
    )


MAX_MIXTURE_COMPONENTS = 4


def random_strategy_mixture(
    seed: int, sites: Sequence[Site], guard: int = DEFAULT_GUARD
) -> HiddenVariableModel:
    """Seeded random mixture of deterministic strategies, uniform over contexts.

    By construction the result is lambda-independent, strongly deterministic,
    and local; useful as a feasible control for the membership test. `guard`
    bounds the strategies and the weight rows (one per context and component).
    """
    sites = site_tuple(sites, "random_strategy_mixture")
    rng = random.Random(seed)
    strategies = enumerate_deterministic_strategies(sites, guard)
    k = rng.randint(1, max(1, min(MAX_MIXTURE_COMPONENTS, len(strategies))))
    indices = sorted(rng.sample(range(len(strategies)), k))
    parts = [rng.randint(1, 8) for _ in indices]
    total = sum(parts)
    rows = math.prod(len(site.measurements) for site in sites) * k
    check_size("strategy mixture weight table", rows, guard)
    contexts = list(itertools.product(*(site.measurements for site in sites)))
    # Any model whose contexts are equally likely gives the mixture its marginals.
    first = tuple(site.outcomes[0] for site in sites)
    uniform = EmpiricalModel(sites, {(first, context): Fraction(1, len(contexts)) for context in contexts})
    mixture = [(index, Fraction(part, total)) for index, part in zip(indices, parts)]
    return _mixture_hvm(uniform, strategies, mixture)


# ---------------------------------------------------------------------------
# The two-site anti-correlation obstruction


@dataclass(frozen=True)
class EprReport(Codec):
    """Single-valued completions of the anti-correlated model break outcome independence."""

    kind = "epr-report"

    marginal: Fraction
    pinned_by_partner: Fraction
    oi_single_state: PropertyVerdict
    escape_sd: PropertyVerdict
    escape_li: PropertyVerdict
    escape_oi: PropertyVerdict
    escape_equivalent: PropertyVerdict
    confirmed: bool


def verify_epr() -> EprReport:
    """Recompute the single-valued obstruction and its two-state escape."""
    e = epr_model()
    single = construct_sv(e)
    lam = single.lambda_set[0]
    context = Event(measurements={"a": "A", "b": "B"}, hidden=lam)
    marginal = single.cond_prob(Event(outcomes={"a": "+_a"}), context)
    pinned = single.cond_prob(
        Event(outcomes={"a": "+_a"}),
        Event(measurements={"a": "A", "b": "B"}, outcomes={"b": "-_b"}, hidden=lam),
    )
    oi_single = check_outcome_independence(single)

    escape = epr_escape_hvm()
    escape_sd = check_strong_determinism(escape)
    escape_li = check_lambda_independence(escape)
    escape_oi = check_outcome_independence(escape)
    escape_equivalent = equivalent_empirical(e, escape)
    confirmed = (
        marginal == Fraction(1, 2)
        and pinned == 1
        and marginal != pinned
        and not oi_single.holds
        and escape_sd.holds
        and escape_li.holds
        and escape_oi.holds
        and escape_equivalent.holds
    )
    return EprReport(
        marginal=marginal,
        pinned_by_partner=pinned,
        oi_single_state=oi_single,
        escape_sd=escape_sd,
        escape_li=escape_li,
        escape_oi=escape_oi,
        escape_equivalent=escape_equivalent,
        confirmed=confirmed,
    )


# ---------------------------------------------------------------------------
# The three-direction obstruction


_K_SETS: tuple[frozenset[int], ...] = (
    frozenset({1, 4, 5, 8}),
    frozenset({1, 2, 5, 6}),
    frozenset({1, 2, 3, 4}),
)
# Equal directions anti-correlate, so the second site answers + exactly where the first answers -.
_L_SETS: tuple[frozenset[int], ...] = tuple(frozenset(range(1, 9)) - k for k in _K_SETS)


@dataclass(frozen=True)
class CertificateEquation(Codec):
    """One agreement equation: p of its atoms equals the empirical agreement rate."""

    derived = ("rhs",)

    i: int
    j: int
    atoms: tuple[int, ...]
    plus_plus: Fraction
    minus_minus: Fraction

    @property
    def rhs(self) -> Fraction:
        return self.plus_plus + self.minus_minus


@dataclass(frozen=True)
class BellCertificate(Codec):
    """Three equations over eight response atoms that cannot all hold.

    Atoms 1..8 are the joint deterministic response types compatible with
    perfect anti-correlation on equal directions: atom k fixes the first
    site's answer to each direction (and thereby the second site's). k_sets
    and l_sets list, per direction, the atoms answering + at the first and
    second site respectively. Each equation equates the probability of its
    atom set with an empirically fixed agreement rate; summing all three
    counts each appearing atom exactly twice, so the atom probabilities would
    have to total `aggregate_value`, which exceeds 1.
    """

    kind = "bell-certificate"

    k_sets: tuple[tuple[int, ...], ...]
    l_sets: tuple[tuple[int, ...], ...]
    equations: tuple[CertificateEquation, ...]
    aggregate_atoms: tuple[int, ...]
    atoms_counted_twice: bool
    aggregate_value: Fraction
    impossible: bool


def bell_certificate() -> BellCertificate:
    """Derive the three-equation counting argument from the model's own table."""
    e = bell_model()
    equations = []
    for i, j in ((1, 2), (2, 3), (3, 1)):
        atoms = tuple(sorted(_K_SETS[i - 1] & _L_SETS[j - 1])) + tuple(
            sorted(_L_SETS[i - 1] & _K_SETS[j - 1])
        )
        given = Event(measurements={"A": str(i), "B": str(j)})
        plus_plus = e.cond_prob(Event(outcomes={"A": "+", "B": "+"}), given)
        minus_minus = e.cond_prob(Event(outcomes={"A": "-", "B": "-"}), given)
        equations.append(
            CertificateEquation(i=i, j=j, atoms=atoms, plus_plus=plus_plus, minus_minus=minus_minus)
        )
    counts = Counter(atom for eq in equations for atom in eq.atoms)
    atoms_counted_twice = all(count == 2 for count in counts.values())
    total = sum((eq.rhs for eq in equations), ZERO)
    aggregate_value = total / 2
    return BellCertificate(
        k_sets=tuple(tuple(sorted(s)) for s in _K_SETS),
        l_sets=tuple(tuple(sorted(s)) for s in _L_SETS),
        equations=tuple(equations),
        aggregate_atoms=tuple(sorted(counts)),
        atoms_counted_twice=atoms_counted_twice,
        aggregate_value=aggregate_value,
        impossible=atoms_counted_twice and aggregate_value > 1,
    )


@dataclass(frozen=True)
class BellEscapeReport(Codec):
    """The single-state completion keeps lambda-independence and parameter
    independence while failing outcome independence."""

    kind = "bell-escape"

    li: PropertyVerdict
    pi: PropertyVerdict
    oi: PropertyVerdict
    conditional_with_partner: Fraction
    conditional_alone: Fraction
    confirmed: bool


def bell_pi_escape() -> BellEscapeReport:
    """Check which properties survive on the single-state completion."""
    h = construct_sv(bell_model())
    lam = h.lambda_set[0]
    li = check_lambda_independence(h)
    pi = check_parameter_independence(h)
    oi = check_outcome_independence(h)
    with_partner = h.cond_prob(
        Event(outcomes={"A": "+"}),
        Event(measurements={"A": "1", "B": "1"}, outcomes={"B": "-"}, hidden=lam),
    )
    alone = h.cond_prob(
        Event(outcomes={"A": "+"}), Event(measurements={"A": "1", "B": "1"}, hidden=lam)
    )
    confirmed = li.holds and pi.holds and not oi.holds and with_partner != alone
    return BellEscapeReport(
        li=li,
        pi=pi,
        oi=oi,
        conditional_with_partner=with_partner,
        conditional_alone=alone,
        confirmed=confirmed,
    )


@dataclass(frozen=True)
class BellReport(Codec):
    """Combined result of the requested impossibility routes."""

    kind = "bell-report"

    certificate: BellCertificate | None
    polytope: PolytopeResult | None
    escape: BellEscapeReport
    confirmed: bool


def verify_bell(method: str = "both", guard: int = DEFAULT_GUARD) -> BellReport:
    """Run the certificate route, the polytope route, or both."""
    if method not in ("certificate", "polytope", "both"):
        raise InputError(f"unknown bell method {show_value(method)}; expected certificate, polytope, or both")
    certificate = bell_certificate() if method in ("certificate", "both") else None
    polytope = (
        local_polytope_feasibility(bell_model(), guard) if method in ("polytope", "both") else None
    )
    escape = bell_pi_escape()
    confirmed = escape.confirmed
    if certificate is not None:
        confirmed = confirmed and certificate.impossible
    if polytope is not None:
        confirmed = confirmed and not polytope.feasible
    return BellReport(certificate=certificate, polytope=polytope, escape=escape, confirmed=confirmed)


# ---------------------------------------------------------------------------
# The orthogonality-table obstruction


@dataclass(frozen=True)
class KsTable(Codec):
    """Columns of measurement labels; a coloring must pick one winner per column."""

    kind = "ks-table"

    columns: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.columns, Iterable):
            raise InputError(f"a table must be a sequence of columns, not {show_value(self.columns)}")
        columns = tuple(_unique_labels(column, f"column {k}") for k, column in enumerate(self.columns))
        if not columns:
            raise InputError("a table needs at least one column")
        if len({len(column) for column in columns}) != 1:
            raise InputError("all columns must share one height")
        object.__setattr__(self, "columns", columns)

    @property
    def height(self) -> int:
        return len(self.columns[0])

    def labels(self) -> tuple[str, ...]:
        """Distinct labels in first-appearance order."""
        return tuple(dict.fromkeys(itertools.chain.from_iterable(self.columns)))

    def label_counts(self) -> tuple[tuple[str, int], ...]:
        counts = Counter(itertools.chain.from_iterable(self.columns))
        return tuple((label, counts[label]) for label in self.labels())


def ks_table() -> KsTable:
    """The canonical 9-column, 18-label table behind `ks_model`."""
    return KsTable(_KS_COLUMNS)


@dataclass(frozen=True)
class KsColoring(Codec):
    """A 0/1 value per label, in the table's label order."""

    kind = "ks-coloring"

    assignment: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict[str, int]:
        return dict(self.assignment)

    def is_valid_for(self, table: KsTable) -> bool:
        values = self.as_dict()
        try:
            return all(sum(values[label] for label in column) == 1 for column in table.columns)
        except KeyError:
            return False


def ks_coloring_candidates(table: KsTable) -> int:
    """Size of the winner-pattern space the search covers; the guard caps it."""
    return table.height ** len(table.columns)


def ks_search_colorings(table: KsTable, guard: int = DEFAULT_GUARD) -> list[KsColoring]:
    """Every valid coloring, by a depth-first search over the columns in order.

    Column k's winner is a label not yet colored 0 whose column holds no other
    label colored 1; the column's uncolored labels then take 1 for the winner
    and 0 for the rest. Winners are tried in column order, so the colorings
    come out as `itertools.product` lists their winner patterns, first column
    slowest. Each partial pattern is met at most once, so the guard on
    `ks_coloring_candidates` also bounds the work.
    """
    if not isinstance(table, KsTable):
        raise InputError("ks_search_colorings expects a KsTable")
    candidates = ks_coloring_candidates(table)
    check_size("coloring candidate enumeration", candidates, guard)

    labels, columns = table.labels(), table.columns
    values: dict[str, int] = {}
    trail: list[str] = []  # the colored labels, in the order they were colored
    found = []
    # Untried (column, winner, trail length on entering the column), pushed in
    # reverse so that winners pop in column order; nothing recurses per column.
    stack = [(0, label, 0) for label in reversed(columns[0])]
    while stack:
        k, winner, mark = stack.pop()
        while len(trail) > mark:
            del values[trail.pop()]
        for label in columns[k]:
            if label not in values:
                values[label] = 1 if label == winner else 0
                trail.append(label)
        if k + 1 < len(columns):
            column = columns[k + 1]
            ones = {label for label in column if values.get(label) == 1}
            winners = [w for w in column if values.get(w) != 0 and ones <= {w}]
            stack.extend((k + 1, w, len(trail)) for w in reversed(winners))
        else:
            found.append(KsColoring(tuple((label, values[label]) for label in labels)))
    return found


@dataclass(frozen=True)
class KsParityReport(Codec):
    """Occurrence counts versus column count: all even against odd is conclusive."""

    kind = "ks-parity"

    label_counts: tuple[tuple[str, int], ...]
    column_count: int
    all_counts_even: bool
    column_count_odd: bool
    verdict: str

    @property
    def conclusive(self) -> bool:
        return self.verdict == "impossible"


def ks_parity_certificate(table: KsTable) -> KsParityReport:
    """Counting argument: a valid coloring marks one winner per column, so the
    winners' occurrence total is odd when the column count is odd; but if every
    label occurs an even number of times, any label subset has even total."""
    if not isinstance(table, KsTable):
        raise InputError("ks_parity_certificate expects a KsTable")
    counts = table.label_counts()
    all_even = all(count % 2 == 0 for _, count in counts)
    odd_columns = len(table.columns) % 2 == 1
    verdict = "impossible" if (all_even and odd_columns) else "undecided"
    return KsParityReport(
        label_counts=counts,
        column_count=len(table.columns),
        all_counts_even=all_even,
        column_count_odd=odd_columns,
        verdict=verdict,
    )


@dataclass(frozen=True)
class KsReport(Codec):
    """Combined result of the requested table obstruction routes."""

    kind = "ks-report"

    exchangeability: PropertyVerdict
    winner_pattern_ok: bool
    non_contextuality: PropertyVerdict
    coloring_candidates: int | None
    coloring_count: int | None
    parity: KsParityReport | None
    confirmed: bool


def verify_ks(method: str = "both", guard: int = DEFAULT_GUARD) -> KsReport:
    """Check the canonical table model and run the requested obstruction routes."""
    if method not in ("coloring", "parity", "both"):
        raise InputError(f"unknown ks method {show_value(method)}; expected coloring, parity, or both")
    e = ks_model()
    exchangeability = check_exchangeability(e)
    # Each context's row is one outcome tuple (so of probability 1) with one winner.
    pattern_ok = all(
        len(row) == 1 and sum(a == "1" for a in next(iter(row))) == 1
        for row in e.context_distributions().values()
    )
    non_contextuality = check_non_contextuality(e)

    table = ks_table()
    candidates = count = None
    if method in ("coloring", "both"):
        candidates = ks_coloring_candidates(table)
        count = len(ks_search_colorings(table, guard))
    parity = ks_parity_certificate(table) if method in ("parity", "both") else None

    confirmed = exchangeability.holds and pattern_ok and not non_contextuality.holds
    if count is not None:
        confirmed = confirmed and count == 0
    if parity is not None:
        confirmed = confirmed and parity.conclusive
    return KsReport(
        exchangeability=exchangeability,
        winner_pattern_ok=pattern_ok,
        non_contextuality=non_contextuality,
        coloring_candidates=candidates,
        coloring_count=count,
        parity=parity,
        confirmed=confirmed,
    )
