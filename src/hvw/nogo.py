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
polytope route and works on any empirical model. A feasible input comes back
with its mixture of deterministic strategies and an explicit
lambda-independent, local hidden-variable model built from it; an infeasible
one with a Farkas certificate. The guard counts the strategies, which are
never listed. Every answer is rechecked against the full system, over all N
strategies, by int code that shares nothing with `linprog`. `_System`
describes the system, and `_presolved_answer` the routes an answer takes.
"""

from __future__ import annotations

import array
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
from .errors import InputError, UnknownLabelError, check_size, show_value
from .linprog import feasible_point
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
# Deterministic strategies and the local polytope


@dataclass(frozen=True)
class DeterministicStrategy:
    """One total response per site: responses[i][k] answers measurement k of site i."""

    responses: tuple[tuple[str, ...], ...]

    def outcome_for(self, sites: Sequence[Site], context: Sequence[str]) -> tuple[str, ...]:
        """The outcome tuple answered in `context`, one measurement per site of
        `sites`, the sites the strategy ranges over."""
        n = len(self.responses)
        if not len(context) == len(sites) == n:
            if len(context) != n:
                raise InputError(f"context {show_value(context)} does not name one measurement for each of {n} sites")
            raise InputError(f"the strategy ranges over {n} sites, not the {len(sites)} given")
        try:
            return tuple(
                [answers[site.measurements.index(m)] for answers, site, m in zip(self.responses, sites, context)]
            )
        except ValueError:
            site, m = next((site, m) for site, m in zip(sites, context) if m not in site.measurements)
            raise UnknownLabelError(f"unknown measurement {show_value(m)} at site {show_value(site.name)}") from None

    def describe(self, sites: Sequence[Site]) -> str:
        parts = []
        for site, answers in zip(sites, self.responses):
            inner = " ".join(f"{m}->{a}" for m, a in zip(site.measurements, answers))
            parts.append(f"{site.name}[{inner}]")
        return " ".join(parts)


def count_deterministic_strategies(sites: Sequence[Site]) -> int:
    sites = site_tuple(sites, "count_deterministic_strategies")
    return math.prod(len(site.outcomes) ** len(site.measurements) for site in sites)


def _guarded_strategy_count(sites: Sequence[Site], guard: int) -> int:
    """N, the number of strategies over `sites`, once the guard allows N."""
    total = count_deterministic_strategies(sites)
    check_size("deterministic strategy enumeration", total, guard)
    return total


def enumerate_deterministic_strategies(
    sites: Sequence[Site], guard: int = DEFAULT_GUARD
) -> list[DeterministicStrategy]:
    """All per-site response functions, in a fixed lexicographic order."""
    sites = site_tuple(sites, "enumerate_deterministic_strategies")
    _guarded_strategy_count(sites, guard)
    per_site = [
        list(itertools.product(site.outcomes, repeat=len(site.measurements))) for site in sites
    ]
    return [DeterministicStrategy(combo) for combo in itertools.product(*per_site)]


def _digits(sites: Sequence[Site], index: int) -> list[list[int]]:
    """Strategy `index` of `enumerate_deterministic_strategies(sites)`, with
    no other listed, as `[i][k]`, the index of its outcome for measurement k
    of site i: `index` read in mixed radix, one digit per site and
    measurement, each in base the site's outcome count, the last site's last
    measurement lowest."""
    digits = []
    for site in reversed(sites):
        answers = []
        for _ in site.measurements:
            index, digit = divmod(index, len(site.outcomes))
            answers.append(digit)
        digits.append(answers[::-1])
    return digits[::-1]


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


def _mixture_hvm(model: EmpiricalModel, mixture: Sequence[tuple[int, Fraction]]) -> HiddenVariableModel:
    """Hidden state `s<index>` plays strategy `index` with weight x on every
    context, each context at its weight in `model`. Only the strategies of
    the mixture are decoded. Contexts come in canonical order, so only the
    mixture's answers within one are sorted, by outcome and then position."""
    sites = model.sites
    lambda_set = tuple(f"s{index}" for index, _ in mixture)
    scale = math.lcm(*(x.denominator for _, x in mixture))
    shares = [x.numerator * (scale // x.denominator) for _, x in mixture]
    decoded = [_digits(sites, index) for index, _ in mixture]
    weights = {}
    for context, (mass, _) in model._context_table().items():
        key = model.context_sort_key(context)
        answers = sorted((tuple(map(list.__getitem__, digits, key)), p) for p, digits in enumerate(decoded))
        for answer, p in answers:
            outcome = tuple(site.outcomes[o] for site, o in zip(sites, answer))
            weights[(outcome, context, lambda_set[p])] = mass * shares[p]
    return model._derive(weights, model._denominator * scale, lambda_set)


class _Scenario(dict):
    """What a membership system takes from its sites, never from p: the
    outcome tuples, `zeros`, the normalization row's N offsets, and per
    context read, built on first use and kept, N offsets (offsets[j], the
    row strategy j answers in the block) and one label per outcome tuple.
    Offsets are one compact int each, `bytes` up to 256 rows a block and
    an `array` above. `_scenario` keeps the last 4, keyed by the sites."""

    def __init__(self, sites: tuple[Site, ...]) -> None:
        self.sites = sites
        self.outcomes = list(itertools.product(*(site.outcomes for site in sites)))
        self.zeros = bytes(count_deterministic_strategies(sites))

    def __missing__(self, context: tuple[str, ...]) -> tuple[Sequence[int], list[str]]:
        # Strategy j is, in mixed radix, one outcome index per site and
        # measurement, the first slowest, as `enumerate_deterministic_strategies`
        # lists them. In a context it answers row sum_i stride_i * a_i, a_i its
        # index at site i's measurement k, which over site i's response functions
        # repeats each of range(base) base**(digits - 1 - k) times, base**k times over.
        width = len(self.outcomes)
        offsets, stride = [0], width
        for site, m in zip(self.sites, context):
            base, k = len(site.outcomes), site.measurements.index(m)
            stride //= base
            part = [stride * d for d in range(base) for _ in range(base ** (len(site.measurements) - 1 - k))] * base**k
            offsets = [v + w for v in offsets for w in part]
        column = bytes(offsets) if width <= 256 else array.array("H" if width <= 1 << 16 else "L", offsets)
        given = describe(self.sites, context)
        return self.setdefault(context, (column, [f"p({describe(self.sites, o)} | {given})" for o in self.outcomes]))


_scenario = functools.lru_cache(maxsize=4)(_Scenario)  # 3 scenarios alternate in the polytope benchmark


class _System:
    """The full membership system A x = b over all N strategies, in ints
    and nothing else. The strategies are counted and addressed by index,
    never listed.

    The rows are one per non-null context and outcome tuple, in canonical
    order, then normalization: the c-th of `contexts` has the `width` rows
    from c * width. A is 0/1: column j holds a 1 in the row of the outcome
    that strategy j gives in each context, and in the last row. So A is held
    by columns, as (start, offsets) pairs: strategy j answers row start +
    offsets[j]. `hits[c]` is (c * width, context c's offsets) and `hits[-1]`
    (the last row, `zeros`), the very sequences of the `scenario`, never copied:
    a solve adds to them one int per row, never a list of N.
    Row r has b = rhs[r] / common, where `common` is the lcm of the context
    masses: a cell of count n in a context of mass m, both over the model's
    denominator, has rhs[r] = n * (common // m), and rhs[-1] = common."""

    def __init__(self, model: EmpiricalModel) -> None:
        table = model._context_table()
        self.scenario = scenario = _scenario(model.sites)
        self.contexts = list(table)
        self.width = len(scenario.outcomes)
        self.common = math.lcm(*(mass for mass, _ in table.values()))
        self.hits: list[tuple[int, Sequence[int]]] = []
        self.rhs: list[int] = []
        for context, (mass, row) in table.items():
            self.hits.append((len(self.rhs), scenario[context][0]))
            scale = self.common // mass
            self.rhs += [row.get(outcome, 0) * scale for outcome in scenario.outcomes]
        self.hits.append((len(self.rhs), scenario.zeros))
        self.rhs.append(self.common)


def _signalling_certificate(system: _System, signal: tuple) -> list[Fraction]:
    """y over the membership rows of a model whose marginal q(a | c) for
    measurement m at site i differs from q(a | c'): +1 on the rows (o, c)
    and -1 on the rows (o, c') with o_i = a, negated if need be so that
    y.b < 0. Every strategy answers m the same in c and c', so y.A = 0."""
    i, _, first, other, a, lhs, rhs = signal
    width = system.width
    start, other_start = system.contexts.index(first) * width, system.contexts.index(other) * width
    sign = ONE if lhs < rhs else -ONE
    y = [ZERO] * len(system.rhs)
    for k, outcome in enumerate(system.scenario.outcomes):
        if outcome[i] == a:
            y[start + k] = sign
            y[other_start + k] = -sign
    return y


def _kept_strategies(system: _System) -> Sequence[int]:
    """The strategies that answer no row with b = 0, in order. Each
    context reads only the strategies that the earlier ones kept."""
    kept: Sequence[int] = range(len(system.scenario.zeros))
    for start, column in system.hits:
        kept = [j for j in kept if system.rhs[start + column[j]]]
    return kept


def _peeled_weights(system: _System, kept: Sequence[int]) -> list[int] | None:
    """The weights of the `kept` strategies, in order and as ints over
    `common`, when the rows force them all, else None.

    Singleton rows, the first rule of the Andersen and Andersen presolve: a
    row that exactly one unfixed kept strategy answers fixes that strategy's
    weight at the row's residual, b less the weights fixed before, and the
    weight is taken off every row the strategy answers, normalization
    included. All in ints over `common`: each row keeps its residual, from
    `rhs`, and its number of unfixed kept strategies with the sum of their
    positions in `kept`, which names the last one left. Every fixed weight
    is implied by rows that any solution satisfies, so when every
    kept strategy is fixed, each weight is >= 0 and each residual is 0, x is
    the only solution of the kept system, the one the simplex would return
    on b = `rhs`.
    Otherwise (a negative weight, a residual left over, or no singleton row
    to go on) None, and the simplex answers."""
    hits = system.hits
    residual = list(system.rhs)
    unfixed = [0] * len(residual)
    positions = [0] * len(residual)
    for start, column in hits:
        for p, j in enumerate(kept):
            r = start + column[j]
            unfixed[r] += 1
            positions[r] += p
    weights: dict[int, int] = {}
    ready = [r for r, k in enumerate(unfixed) if k == 1]
    while ready:
        r = ready.pop()
        if unfixed[r] != 1:  # its one strategy was fixed from another row
            continue
        p, w = positions[r], residual[r]
        if w < 0:
            return None
        weights[p] = w
        j = kept[p]
        for s in [start + column[j] for start, column in hits]:
            residual[s] -= w
            unfixed[s] -= 1
            positions[s] -= p
            if unfixed[s] == 1:
                ready.append(s)
    if len(weights) < len(kept) or any(residual):
        return None
    return [weights[p] for p in range(len(kept))]


def _lifted_certificate(system: _System, live: Sequence[int], certificate: Sequence[Fraction]) -> list[Fraction]:
    """A certificate of the membership system reduced to rows `live` and
    the `_kept_strategies`, lifted to all rows and every strategy.

    With zeros on the other rows, y.A is the reduced y.A >= 0 on each kept
    strategy, but may be negative on a dropped one. So y.A_j, the sum of y
    on the rows that j answers, is formed block by block of `hits`, and
    each j with y.A_j < 0, in order, raises y by its deficit -y.A_j, if still
    positive, on the first row with b = 0 that it answers. Then y.b is
    unchanged, and a raise, 0 on every kept strategy and >= 0 elsewhere,
    lowers no other y.A. All in ints over one common scale."""
    hits, rhs = system.hits, system.rhs
    scale = math.lcm(*(v.denominator for v in certificate))
    y = [0] * len(rhs)
    for i, v in zip(live, certificate):
        y[i] = v.numerator * (scale // v.denominator)
    sums = [0] * len(system.scenario.zeros)
    for start, column in hits:
        block = y[start : start + system.width]
        sums = [s + block[v] for s, v in zip(sums, column)]
    for j in [j for j, s in enumerate(sums) if s < 0]:
        rows = [start + column[j] for start, column in hits]
        deficit = -sum(y[r] for r in rows)
        if deficit > 0:
            y[next(r for r in rows if not rhs[r])] += deficit
    return [Fraction(v, scale) for v in y]


def _presolved_answer(
    model: EmpiricalModel, system: _System
) -> tuple[list[tuple[int, Fraction]] | None, list[Fraction] | None]:
    """(mixture, None) or (None, y) for the full membership system: the
    mixture as (strategy, weight) pairs, the strategies strictly increasing
    and every weight > 0, or a Farkas certificate y, one entry per row. The
    routes, an exact presolve (E. D. Andersen and K. D. Andersen, Math.
    Prog. 71, 1995) in front of the simplex:

    * signalling certificate: a model that signals is answered by
      `_signalling_certificate`, with no column read;
    * kept strategies: otherwise a strategy that answers a row with b = 0
      must have weight 0, since A >= 0, so only the `_kept_strategies` and
      the rows with b != 0 stay (the dropped rows are 0 on every kept
      strategy);
    * peel: when the rows force every kept weight (`_peeled_weights`), those
      weights are the mixture, with no simplex;
    * simplex: else `feasible_point` runs on a dense 0/1 table of the kept
      strategies and the live rows, built from `hits`, with the int `rhs` of
      those rows as b. That is b scaled by `common`, which keeps the pivots
      and y and scales x by `common`, and it starts every tableau row over
      denominator 1;
    * mixture: the weights of either route, over `common`, are divided by
      it once, as the mixture is built;
    * lifted certificate: the simplex's y is lifted to every row and
      strategy by `_lifted_certificate`."""
    signal = first_signal(model)
    if signal is not None:
        return None, _signalling_certificate(system, signal)
    kept = _kept_strategies(system)
    x = _peeled_weights(system, kept)
    if x is None:
        rhs = system.rhs
        live = [r for r, v in enumerate(rhs) if v]
        # A kept strategy answers only rows with b != 0, and so has a 1 in the
        # live row of each of its answers, normalization included.
        position = {r: p for p, r in enumerate(live)}
        table = [[0] * len(kept) for _ in live]
        for start, column in system.hits:
            for p, j in enumerate(kept):
                table[position[start + column[j]]][p] = 1
        x, y = feasible_point(table, [rhs[r] for r in live])
        if x is None:
            return None, _lifted_certificate(system, live, y)
    return [(j, Fraction(v, system.common)) for j, v in zip(kept, x) if v], None


def _solves(system: _System, n: int, mixture: Sequence[tuple[int, Fraction]]) -> bool:
    """Recheck that `mixture`, (strategy, weight) pairs over n strategies,
    has each strategy in range(n), the strategies strictly increasing and
    every weight > 0, and solves the membership system held by columns, in
    ints. Each weight, scaled by the lcm L of their denominators, is added
    into the row its strategy answers in each block of `hits`,
    normalization included; every row r must then hold b_r L, that is
    sums[r] * common == rhs[r] * L."""
    previous = -1
    for j, v in mixture:
        if not previous < j < n or v <= 0:
            return False
        previous = j
    scale = math.lcm(*(v.denominator for _, v in mixture))
    sums = [0] * len(system.rhs)
    for j, v in mixture:
        w = v.numerator * (scale // v.denominator)
        for start, column in system.hits:
            sums[start + column[j]] += w
    return all(s * system.common == b * scale for s, b in zip(sums, system.rhs))


def _certifies(system: _System, n: int, y: Sequence[Fraction]) -> bool:
    """Recheck a Farkas certificate of the membership system held by
    columns, in ints: y.A_j >= 0 for each of the n strategies, and y.b < 0.
    With y scaled by the lcm of its denominators, y.A_j is the sum of the
    entries of the rows that strategy j answers, one per block of `hits`,
    and y.b < 0 is z.rhs < 0, since z.rhs is y.b times that lcm and
    `common`."""
    if len(y) != len(system.rhs):
        return False
    scale = math.lcm(*(v.denominator for v in y))
    z = [v.numerator * (scale // v.denominator) for v in y]
    sums = [0] * n
    for start, column in system.hits:
        block = z[start : start + system.width]
        sums = [s + block[v] for s, v in zip(sums, column)]
    if any(s < 0 for s in sums):
        return False
    return sum(v * b for v, b in zip(z, system.rhs)) < 0


def local_polytope_feasibility(
    model: EmpiricalModel, guard: int = DEFAULT_GUARD
) -> PolytopeResult:
    """Can any mixture of deterministic strategies reproduce the model?

    Feasible: `strategy_weights` is the mixture, (strategy index, weight)
    pairs with the indices increasing and every weight > 0, and `hvm` its
    witness model. Infeasible: `certificate` is a Farkas certificate, one
    rational per row of `row_labels`. The guard counts the strategies, which
    are never listed. Either answer is rechecked against the full system
    over all N strategies (`_solves`, `_certifies`), by int code that shares
    nothing with `linprog`, before it is returned. `_System` describes the
    system, and `_presolved_answer` the routes an answer takes. The row
    labels, `p(outcome | context)` for each row of `_System` and then the
    normalization row, come from the sites' `_scenario`.
    """
    require(model, EmpiricalModel, "local_polytope_feasibility")
    n = _guarded_strategy_count(model.sites, guard)
    system = _System(model)
    mixture, y = _presolved_answer(model, system)
    if not (_certifies(system, n, y) if mixture is None else _solves(system, n, mixture)):
        raise AssertionError("solver returned an answer that fails direct recheck")
    labels = [label for _, block in map(system.scenario.__getitem__, system.contexts) for label in block]
    return PolytopeResult(
        feasible=mixture is not None,
        strategy_count=n,
        row_labels=(*labels, "total probability"),
        strategy_weights=None if mixture is None else tuple(mixture),
        certificate=None if y is None else tuple(y),
        hvm=None if mixture is None else _mixture_hvm(model, mixture),
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
    pattern_ok = all(
        len(row) == 1 and sum(a == "1" for a in next(iter(row))) == 1 for _, row in e._context_table().values()
    )
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
