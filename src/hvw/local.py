"""Membership in the local polytope: is an empirical model a mixture of
deterministic strategies?

`local_polytope_feasibility` answers for any empirical model. A feasible
input comes back with its mixture of deterministic strategies and an explicit
lambda-independent, local hidden-variable model built from it; an infeasible
one with a Farkas certificate. The guard counts the N strategies, which are
never listed: each is its index, and only those of a mixture are decoded.
`_System` holds the full membership system over all of them.

An answer takes one of these routes, an exact presolve (E. D. Andersen and
K. D. Andersen, Math. Prog. 71, 1995) in front of the simplex:

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
  strategy by `_lifted_certificate`.

Whatever its route, the answer is rechecked against the full system, over
all N strategies (`_solves`, `_certifies`), by int code that shares nothing
with `linprog`, before it is returned.
"""

from __future__ import annotations

import array
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .codec import Codec
from .errors import check_size
from .linprog import feasible_point
from .models import (
    DEFAULT_GUARD,
    ONE,
    ZERO,
    EmpiricalModel,
    HiddenVariableModel,
    Site,
    describe,
    require,
    site_tuple,
)
from .properties import first_signal


def count_deterministic_strategies(sites: Sequence[Site]) -> int:
    sites = site_tuple(sites, "count_deterministic_strategies")
    return math.prod(len(site.outcomes) ** len(site.measurements) for site in sites)


def _guarded_strategy_count(sites: Sequence[Site], guard: int) -> int:
    """N, the number of strategies over `sites`, once the guard allows N."""
    total = count_deterministic_strategies(sites)
    check_size("deterministic strategy enumeration", total, guard)
    return total


def _digits(sites: Sequence[Site], index: int) -> list[list[int]]:
    """Strategy `index` of `nogo.enumerate_deterministic_strategies(sites)`, with
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
        # measurement, the first slowest, as `nogo.enumerate_deterministic_strategies`
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
    and nothing else.

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
    """(mixture, None) or (None, y) for the full membership system, by the
    routes of the module docstring: the mixture as (strategy, weight) pairs,
    the strategies strictly increasing and every weight > 0, or a Farkas
    certificate y, one entry per row."""
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
    rational per row of `row_labels`: `p(outcome | context)` for each row of
    `_System` and then the normalization row, from the sites' `_scenario`.
    The guard counts the strategies. Either answer is rechecked before it
    is returned.
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
