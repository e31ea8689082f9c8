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
  searches the columns depth first, a partial coloring held as two bitmasks
  over the labels (colored 1, colored 0), and finds zero valid colorings (no
  consistent one-winner-per-column labeling); the guard caps its 262,144
  candidate winner patterns. The parity route counts label occurrences (all
  even) against the odd column count.

The general membership test behind the Bell polytope route, for any
empirical model, is `hvw.local.local_polytope_feasibility`.
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
from .local import PolytopeResult, _guarded_strategy_count, _mixture_hvm, local_polytope_feasibility
from .models import (
    DEFAULT_GUARD,
    ZERO,
    EmpiricalModel,
    Event,
    HiddenVariableModel,
    PropertyVerdict,
    Site,
    _unique_labels,
    equivalent_empirical,
    site_tuple,
)
from .properties import (
    check_exchangeability,
    check_lambda_independence,
    check_non_contextuality,
    check_outcome_independence,
    check_parameter_independence,
    check_strong_determinism,
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


@functools.cache
def bell_model() -> EmpiricalModel:
    """Two sites sharing three measurement directions, contexts weighted 1/9.

    Equal directions anti-correlate perfectly; unequal directions agree with
    probability 3/4, split evenly between the two agreeing outcomes. Built
    once per process: models are immutable.
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
# Deterministic strategies


def enumerate_deterministic_strategies(
    sites: Sequence[Site], guard: int = DEFAULT_GUARD
) -> list[tuple[tuple[str, ...], ...]]:
    """All per-site response functions, in a fixed lexicographic order:
    `strategies[j][i][k]` answers measurement k of site i."""
    sites = site_tuple(sites, "enumerate_deterministic_strategies")
    _guarded_strategy_count(sites, guard)
    per_site = [
        list(itertools.product(site.outcomes, repeat=len(site.measurements))) for site in sites
    ]
    return list(itertools.product(*per_site))


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
    count = _guarded_strategy_count(sites, guard)
    k = rng.randint(1, max(1, min(MAX_MIXTURE_COMPONENTS, count)))
    indices = sorted(rng.sample(range(count), k))
    parts = [rng.randint(1, 8) for _ in indices]
    total = sum(parts)
    rows = math.prod(len(site.measurements) for site in sites) * k
    check_size("strategy mixture weight table", rows, guard)
    contexts = list(itertools.product(*(site.measurements for site in sites)))
    # Any model whose contexts are equally likely gives the mixture its marginals.
    first = tuple(site.outcomes[0] for site in sites)
    uniform = EmpiricalModel(sites, {(first, context): Fraction(1, len(contexts)) for context in contexts})
    mixture = [(index, Fraction(part, total)) for index, part in zip(indices, parts)]
    return _mixture_hvm(uniform, mixture)


# ---------------------------------------------------------------------------
# The two-site anti-correlation obstruction


@dataclass(frozen=True)
class EprReport(Codec):
    """Single-valued completions of the anti-correlated model break outcome independence."""

    kind = "epr-report"
    derived = ("confirmed",)

    marginal: Fraction
    pinned_by_partner: Fraction
    oi_single_state: PropertyVerdict
    escape_sd: PropertyVerdict
    escape_li: PropertyVerdict
    escape_oi: PropertyVerdict
    escape_equivalent: PropertyVerdict

    @property
    def confirmed(self) -> bool:
        """The single state's 1/2 marginal is pinned to 1 by its partner,
        and the two-state escape keeps SD, LI and OI and matches the model."""
        return (
            self.marginal == Fraction(1, 2)
            and self.pinned_by_partner == 1
            and not self.oi_single_state.holds
            and self.escape_sd.holds
            and self.escape_li.holds
            and self.escape_oi.holds
            and self.escape_equivalent.holds
        )


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
    escape = epr_escape_hvm()
    return EprReport(
        marginal=marginal,
        pinned_by_partner=pinned,
        oi_single_state=check_outcome_independence(single),
        escape_sd=check_strong_determinism(escape),
        escape_li=check_lambda_independence(escape),
        escape_oi=check_outcome_independence(escape),
        escape_equivalent=equivalent_empirical(e, escape),
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
    derived = ("aggregate_atoms", "atoms_counted_twice", "aggregate_value", "impossible")

    k_sets: tuple[tuple[int, ...], ...]
    l_sets: tuple[tuple[int, ...], ...]
    equations: tuple[CertificateEquation, ...]

    @property
    def aggregate_atoms(self) -> tuple[int, ...]:
        return tuple(sorted({atom for eq in self.equations for atom in eq.atoms}))

    @property
    def atoms_counted_twice(self) -> bool:
        counts = Counter(atom for eq in self.equations for atom in eq.atoms)
        return all(count == 2 for count in counts.values())

    @property
    def aggregate_value(self) -> Fraction:
        return sum((eq.rhs for eq in self.equations), ZERO) / 2

    @property
    def impossible(self) -> bool:
        return self.atoms_counted_twice and self.aggregate_value > 1


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
    return BellCertificate(
        k_sets=tuple(tuple(sorted(s)) for s in _K_SETS),
        l_sets=tuple(tuple(sorted(s)) for s in _L_SETS),
        equations=tuple(equations),
    )


@dataclass(frozen=True)
class BellEscapeReport(Codec):
    """The single-state completion keeps lambda-independence and parameter
    independence while failing outcome independence."""

    kind = "bell-escape"
    derived = ("confirmed",)

    li: PropertyVerdict
    pi: PropertyVerdict
    oi: PropertyVerdict
    conditional_with_partner: Fraction
    conditional_alone: Fraction

    @property
    def confirmed(self) -> bool:
        differs = self.conditional_with_partner != self.conditional_alone
        return self.li.holds and self.pi.holds and not self.oi.holds and differs


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
    return BellEscapeReport(li=li, pi=pi, oi=oi, conditional_with_partner=with_partner, conditional_alone=alone)


@dataclass(frozen=True)
class BellReport(Codec):
    """Combined result of the requested impossibility routes."""

    kind = "bell-report"
    derived = ("confirmed",)

    certificate: BellCertificate | None
    polytope: PolytopeResult | None
    escape: BellEscapeReport

    @property
    def confirmed(self) -> bool:
        """The escape holds, and so does every route that was run."""
        return (
            self.escape.confirmed
            and (self.certificate is None or self.certificate.impossible)
            and (self.polytope is None or not self.polytope.feasible)
        )


def verify_bell(method: str = "both", guard: int = DEFAULT_GUARD) -> BellReport:
    """Run the certificate route, the polytope route, or both."""
    if method not in ("certificate", "polytope", "both"):
        raise InputError(f"unknown bell method {show_value(method)}; expected certificate, polytope, or both")
    certificate = bell_certificate() if method in ("certificate", "both") else None
    polytope = (
        local_polytope_feasibility(bell_model(), guard) if method in ("polytope", "both") else None
    )
    return BellReport(certificate=certificate, polytope=polytope, escape=bell_pi_escape())


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

    Label b of `labels()` is bit 1 << b, and a partial coloring is two
    bitmasks, the labels colored 1 and those colored 0. Column k's winner is
    a label not yet colored 0 whose column holds no other label colored 1;
    the column's uncolored labels then take 1 for the winner and 0 for the
    rest. Winners are tried in column order, so the colorings come out as
    `itertools.product` lists their winner patterns, first column slowest.
    Each partial pattern is met at most once, so the guard on
    `ks_coloring_candidates` also bounds the work.
    """
    if not isinstance(table, KsTable):
        raise InputError("ks_search_colorings expects a KsTable")
    candidates = ks_coloring_candidates(table)
    check_size("coloring candidate enumeration", candidates, guard)

    labels, columns = table.labels(), table.columns
    bit = {label: 1 << b for b, label in enumerate(labels)}
    bits = [[bit[label] for label in column] for column in columns]
    masks = [sum(column) for column in bits]
    found = []
    # Untried (column, winner's bit, labels colored 1, labels colored 0 on
    # entering the column), pushed in reverse so that winners pop in column
    # order; nothing recurses per column.
    stack = [(0, w, 0, 0) for w in reversed(bits[0])]
    while stack:
        k, winner, ones, zeros = stack.pop()
        ones |= winner
        zeros |= masks[k] & ~ones
        if k + 1 < len(columns):
            lit = ones & masks[k + 1]
            stack.extend((k + 1, w, ones, zeros) for w in reversed(bits[k + 1]) if not (w & zeros or lit & ~w))
        else:
            found.append(KsColoring(tuple((label, ones >> b & 1) for b, label in enumerate(labels))))
    return found


@dataclass(frozen=True)
class KsParityReport(Codec):
    """Occurrence counts versus column count: all even against odd is conclusive."""

    kind = "ks-parity"
    derived = ("all_counts_even", "column_count_odd", "verdict")

    label_counts: tuple[tuple[str, int], ...]
    column_count: int

    @property
    def all_counts_even(self) -> bool:
        return all(count % 2 == 0 for _, count in self.label_counts)

    @property
    def column_count_odd(self) -> bool:
        return self.column_count % 2 == 1

    @property
    def conclusive(self) -> bool:
        return self.all_counts_even and self.column_count_odd

    @property
    def verdict(self) -> str:
        return "impossible" if self.conclusive else "undecided"


def ks_parity_certificate(table: KsTable) -> KsParityReport:
    """Counting argument: a valid coloring marks one winner per column, so the
    winners' occurrence total is odd when the column count is odd; but if every
    label occurs an even number of times, any label subset has even total."""
    if not isinstance(table, KsTable):
        raise InputError("ks_parity_certificate expects a KsTable")
    return KsParityReport(label_counts=table.label_counts(), column_count=len(table.columns))


@dataclass(frozen=True)
class KsReport(Codec):
    """Combined result of the requested table obstruction routes."""

    kind = "ks-report"
    derived = ("confirmed",)

    exchangeability: PropertyVerdict
    winner_pattern_ok: bool
    non_contextuality: PropertyVerdict
    coloring_candidates: int | None
    coloring_count: int | None
    parity: KsParityReport | None

    @property
    def confirmed(self) -> bool:
        """The model passes its checks, and every route that was run finds no coloring."""
        return (
            self.exchangeability.holds
            and self.winner_pattern_ok
            and not self.non_contextuality.holds
            and self.coloring_count in (None, 0)
            and (self.parity is None or self.parity.conclusive)
        )


def verify_ks(method: str = "both", guard: int = DEFAULT_GUARD) -> KsReport:
    """Check the canonical table model and run the requested obstruction routes."""
    if method not in ("coloring", "parity", "both"):
        raise InputError(f"unknown ks method {show_value(method)}; expected coloring, parity, or both")
    e = ks_model()
    exchangeability = check_exchangeability(e)
    # Each context's row is one outcome tuple (so of probability 1) with one winner.
    pattern_ok = all(len(row) == 1 and next(iter(row)).count("1") == 1 for _, row in e._context_table().values())
    non_contextuality = check_non_contextuality(e)

    table = ks_table()
    candidates = count = None
    if method in ("coloring", "both"):
        candidates = ks_coloring_candidates(table)
        count = len(ks_search_colorings(table, guard))
    return KsReport(
        exchangeability=exchangeability,
        winner_pattern_ok=pattern_ok,
        non_contextuality=non_contextuality,
        coloring_candidates=candidates,
        coloring_count=count,
        parity=ks_parity_certificate(table) if method in ("parity", "both") else None,
    )
