"""Canonical hidden-variable completions of an empirical model.

Three constructions, each reproducing the input's predictions exactly:

* e1: one hidden state per cell of the full (outcome tuple, context) grid.
  The state remembers the whole table entry, so each site's response is a
  deterministic function of its own measurement (strong determinism).
* e2: hidden states 0..L-1 with L the least common multiple of all
  conditional-probability denominators. Within each non-null context the
  states are split into consecutive blocks, one per supported outcome tuple,
  of size proportional to its conditional probability. The state distribution
  is uniform on every context (lambda-independence) and each (context, state)
  pins a single outcome tuple (weak determinism).
* sv: a single hidden state carrying the empirical weights unchanged
  (single-valuedness).
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import InputError, check_size, show_value
from .models import (
    DEFAULT_GUARD,
    EmpiricalModel,
    HiddenVariableModel,
    project_to_empirical,
    require,
)


class ConstructionMethod(Enum):
    """The three completion strategies, by their short command names."""

    E1_STRONG_DETERMINISTIC = "e1"
    E2_WEAK_DET_LAMBDA_INDEP = "e2"
    SV_SINGLE_VALUED = "sv"


def construct_e1(model: EmpiricalModel, guard: int = DEFAULT_GUARD) -> HiddenVariableModel:
    """Completion whose hidden states enumerate the full prediction grid.

    The state labeled "o1,..,on|m1,..,mn" has weight q(outcomes, context) and
    forces exactly that context and outcome tuple. Inside each label a
    backslash, comma or bar is escaped by a backslash, so distinct cells get
    distinct states; labels without them appear as they are.
    """
    e = require(model, EmpiricalModel, "construct_e1")
    size = e.n_outcome_tuples() * e.n_context_tuples()
    check_size("e1 hidden state set", size, guard)
    outcomes = {outcome: _joined(outcome) for outcome in e.outcome_tuples()}
    contexts = {context: _joined(context) for context in e.context_tuples()}
    lambda_set = tuple(o + "|" + c for o in outcomes.values() for c in contexts.values())
    weights = {
        (outcome, context, outcomes[outcome] + "|" + contexts[context]): n
        for (outcome, context), n in e._weights.items()
    }
    return e._derive(weights, e._denominator, lambda_set)


def _joined(labels: tuple[str, ...]) -> str:
    """`labels` joined by commas, each with its backslashes, commas and bars escaped."""
    return ",".join(label.replace("\\", "\\\\").replace(",", "\\,").replace("|", "\\|") for label in labels)


def construct_e2(model: EmpiricalModel, guard: int = DEFAULT_GUARD) -> HiddenVariableModel:
    """Completion with uniformly distributed states and per-state point outcomes.

    |hidden states| is exactly the least common multiple of the denominators
    of all conditional outcome probabilities over non-null contexts. The
    output keeps the input's context marginal (a null context stays null, so
    equivalence is preserved), and the hidden state is uniform and independent
    of the context, which is what makes lambda independence hold.
    """
    e = require(model, EmpiricalModel, "construct_e2")
    table = e._context_table()
    # p = n / mass in lowest terms has denominator mass // gcd(n, mass).
    size = math.lcm(*(mass // math.gcd(n, mass) for mass, row in table.values() for n in row.values()))
    check_size("e2 hidden state set", size, guard)
    labels = tuple(str(i) for i in range(size))
    weights: dict = {}
    for context, (mass, row) in table.items():
        # Each state of the context carries mass / (D * size).
        start = 0
        for outcome, n in row.items():
            block, remainder = divmod(n * size, mass)
            assert remainder == 0
            for state in range(start, start + block):
                weights[(outcome, context, labels[state])] = mass
            start += block
        assert start == size
    return e._derive(weights, e._denominator * size, labels)


def construct_sv(model: EmpiricalModel) -> HiddenVariableModel:
    """Completion with a single hidden state carrying the weights unchanged."""
    e = require(model, EmpiricalModel, "construct_sv")
    label = "l0"
    weights = {(outcome, context, label): n for (outcome, context), n in e._weights.items()}
    return e._derive(weights, e._denominator, (label,))


def construct(
    model: EmpiricalModel, method: ConstructionMethod, guard: int = DEFAULT_GUARD
) -> HiddenVariableModel:
    """Dispatch one of the three completions."""
    if not isinstance(method, ConstructionMethod):
        raise InputError(f"unknown construction method: {show_value(method)}")
    if method is ConstructionMethod.E1_STRONG_DETERMINISTIC:
        return construct_e1(model, guard)
    if method is ConstructionMethod.E2_WEAK_DET_LAMBDA_INDEP:
        return construct_e2(model, guard)
    return construct_sv(model)


def reconstruct_hvm(
    model: HiddenVariableModel, method: ConstructionMethod, guard: int = DEFAULT_GUARD
) -> HiddenVariableModel:
    """Project a hidden-variable model and rebuild it with a chosen completion.

    The output predicts exactly like the input but carries the completion's
    guaranteed properties.
    """
    return construct(project_to_empirical(require(model, HiddenVariableModel, "reconstruct_hvm")), method, guard)
