"""Pinned digests of every check, view and completion over a seeded sweep.

For each shape, seeds 0-9 each give a random empirical model, random hidden
models with 1, 2 and 3 states and a deterministic-strategy mixture; each of
these five and the e1, e2 and sv completions of its projection is one model of
the sweep (1,200 in all). The digest covers, in order:

* every `Fraction` view of each model, with the type of every value;
* `to_dict()` of every property check that applies to it (the empirical
  properties of a hidden-variable model through its projection);
* `serialize_model` of each completion and its equivalence verdict against
  its source, and the equivalence verdicts between the sources;
* the membership LP's answer for the empirical model and the mixture.

The digests were recorded when the model stored `Fraction` aggregates. A
change to how models store or compare weights must leave each one as it is.
The membership answers of the four shapes with two or more sites were
re-recorded when the presolve came in front of the simplex: a signalling
table now gets its +-1 certificate, and a mixture the point of the reduced
system. Both answers, old and new, pass the rechecks against the full system,
and the old answers substituted back give the old digests.

Two membership sweeps pin `local_polytope_feasibility` alone, as the sha256
of each model's `to_dict()` JSON, concatenated in order: 146 small models
(random tables and projected strategy mixtures, with Bell and EPR first), and
1,206 projected mixtures on eight shapes followed by uniform one-site tables.
Each also pins how many answers came from the simplex and from the
signalling certificate, so the rest were peeled: a route change that keeps
every answer still shows.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter

import pytest

from conftest import mixture_membership_sweep, small_membership_sweep
from hvw import (
    ConstructionMethod,
    HiddenVariableModel,
    PropertyId,
    check_property,
    construct,
    equivalent_models,
    generate_random_model,
    grid_sites,
    local_polytope_feasibility,
    random_strategy_mixture,
    serialize_model,
)
from hvw import local
from hvw.models import as_empirical

SEEDS = range(10)

DIGESTS = {
    (1, 2, 2): "7f1b757513be2fd8235bc6f079fd76a592f3a2017808fac0f8b7a656f1f31911",
    (2, 2, 2): "98db874617e4112096e686c06226c21a1d9c0858290f8eb8029f510a31e4a488",
    (2, 3, 2): "8c4cf8313421325f9c91e692718ba9eff6fa6633004bfc8687494f2b9376f1cb",
    (3, 2, 2): "d612b2fe92433473b2999670e0a04f64756f5aae29ea3c39a9aaec8b42baddbd",
    (2, 2, 3): "46e047731216c1406883f31b08e14a92fe48b0c23456dd4032f5ba0d0733f8a5",
    (1, 3, 3): "ec3f252139d5f39e856eccf2a4ce1750dcbd1ba0da1267786e44ad86afa256d2",
}

EMPIRICAL_PROPERTIES = (PropertyId.NON_CONTEXTUALITY, PropertyId.EXCHANGEABILITY)


def _table(mapping) -> list:
    return [(key, repr(value)) for key, value in mapping.items()]


def _rows(mapping) -> list:
    return [(key, _table(row)) for key, row in mapping.items()]


def _views(model) -> list:
    views = [_rows(model.context_distributions()), _table(model.context_weights())]
    views += [_table(model.outcome_distribution(context)) for context in model.context_weights()]
    if isinstance(model, HiddenVariableModel):
        views += [
            _rows(model.context_lambda_distributions()),
            _table(model.context_lambda_weights()),
            _rows(model.site_responses()),
        ]
        views += [_table(model.lambda_distribution(context)) for context in model.context_weights()]
        views += [
            _table(model.outcome_distribution(context, lam))
            for context, lam in model.context_lambda_weights()
        ]
    return views


def _checks(model) -> list:
    props = PropertyId if isinstance(model, HiddenVariableModel) else EMPIRICAL_PROPERTIES
    return [check_property(model, prop).to_dict() for prop in props]


def _model_record(model) -> list:
    return [repr(_views(model)), _checks(model)]


def _sweep_text(shape: tuple[int, int, int]) -> str:
    sites = grid_sites(*shape)
    records: list = []
    for seed in SEEDS:
        empirical = generate_random_model(seed, sites)
        mixture = random_strategy_mixture(seed, sites)
        sources = [empirical, *(generate_random_model(seed, sites, lambda_size=k) for k in (1, 2, 3)), mixture]
        for source in sources:
            records.append(_model_record(source))
            projected = as_empirical(source, "parity sweep")
            for method in ConstructionMethod:
                completion = construct(projected, method)
                records.append(serialize_model(completion))
                records.append(equivalent_models(projected, completion).to_dict())
                records.append(_model_record(completion))
        for other in sources[1:]:
            records.append(equivalent_models(empirical, other).to_dict())
        for model in (empirical, as_empirical(mixture, "parity sweep")):
            records.append(local_polytope_feasibility(model).to_dict())
    return json.dumps(records)


@pytest.mark.parametrize("shape", list(DIGESTS), ids=str)
def test_sweep_digest_is_pinned(shape):
    assert hashlib.sha256(_sweep_text(shape).encode()).hexdigest() == DIGESTS[shape]


def _membership_digest(monkeypatch, models) -> tuple[str, int, int]:
    """The sha256 of the answers' `to_dict()` JSON, and how many answers
    came from `feasible_point` and from `_signalling_certificate`."""
    calls = Counter()
    for name in ("feasible_point", "_signalling_certificate"):

        def counted(*args, _name=name, _call=getattr(local, name)):
            calls[_name] += 1
            return _call(*args)

        monkeypatch.setattr(local, name, counted)
    digest = hashlib.sha256()
    for model in models:
        digest.update(json.dumps(local_polytope_feasibility(model).to_dict(), sort_keys=True).encode())
    return digest.hexdigest(), calls["feasible_point"], calls["_signalling_certificate"]


def test_small_membership_sweep_is_pinned(monkeypatch):
    """`small_membership_sweep`: 146 models. 52 reach the simplex and 46
    signal, so 48 are peeled."""
    models = small_membership_sweep()
    assert len(models) == 146
    assert _membership_digest(monkeypatch, models) == (
        "d83159a1b1eefd4d80825a6c4114d5f652d096384234579ce90ec1538bef5c55",
        52,
        46,
    )


def test_mixture_membership_sweep_is_pinned(monkeypatch):
    """`mixture_membership_sweep`: 1,206 models. 322 reach the simplex and
    none signals, so 884 are peeled."""
    models = mixture_membership_sweep()
    assert len(models) == 1206
    assert _membership_digest(monkeypatch, models) == (
        "4c4688c3f07fb66641ffdf2cc76c71a5cd1c254cf861079b81b750f9a0f301f4",
        322,
        0,
    )
