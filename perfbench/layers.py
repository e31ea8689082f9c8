"""Which library functions the traced run wraps, and the per-layer metrics.

Layers are the modules of `src/hvw`. Size counters are computed from outside
the program, from the arguments and results of the wrapped calls: strategies,
e2 hidden states and colouring candidates each against the size guard, LP rows
and columns, and the bit length of the LP answer.
"""

from __future__ import annotations

import inspect
from types import ModuleType
from typing import Callable

from spans import Recorder, SpanTotals

PROPERTY_CHECKS = (
    "single_valuedness",
    "lambda_independence",
    "strong_determinism",
    "weak_determinism",
    "outcome_independence",
    "parameter_independence",
    "locality",
    "non_contextuality",
    "exchangeability",
)

CLI_SUBCOMMANDS = ("canon", "check", "construct", "equiv", "nogo", "classify", "random")

# (module, function) pairs that get a span each.
TRACED = (
    [
        ("linprog", "feasible_point"),
        ("linprog", "verify_solution"),
        ("linprog", "verify_farkas"),
        ("nogo", "local_polytope_feasibility"),
        ("nogo", "enumerate_deterministic_strategies"),
        ("nogo", "random_strategy_mixture"),
        ("nogo", "ks_search_colorings"),
        ("nogo", "verify_epr"),
        ("nogo", "verify_bell"),
        ("nogo", "verify_ks"),
    ]
    + [("properties", f"check_{name}") for name in PROPERTY_CHECKS]
    + [
        ("constructions", "construct_e1"),
        ("constructions", "construct_e2"),
        ("constructions", "construct_sv"),
        ("models", "equivalent_empirical"),
        ("models", "equivalent_models"),
        ("models", "project_to_empirical"),
        ("modelio", "parse_model"),
        ("modelio", "serialize_model"),
        ("modelio", "load_model"),
        ("modelio", "save_model"),
        ("classify", "classify_all"),
        ("randgen", "generate_random_model"),
    ]
)


def _metric_table() -> dict[str, tuple[str, str]]:
    """name -> (unit, better). The traced run prints exactly these."""
    table = {
        "linprog.feasible_point.calls": "count",
        "linprog.feasible_point.busy_s": "s",
        "linprog.rows": "count",
        "linprog.cols": "count",
        "linprog.answer_max_bits": "bits",
        "linprog.verify_solution.busy_s": "s",
        "linprog.verify_farkas.busy_s": "s",
        "nogo.local_polytope_feasibility.calls": "count",
        "nogo.local_polytope_feasibility.busy_s": "s",
        "nogo.local_polytope_feasibility.self_s": "s",
        "nogo.enumerate_deterministic_strategies.busy_s": "s",
        "nogo.strategies": "count",
        "nogo.strategies_guard_pct": "%",
        "nogo.ks_search_colorings.busy_s": "s",
        "nogo.ks_candidates": "count",
        "nogo.ks_candidates_guard_pct": "%",
    }
    for function in ("verify_epr", "verify_bell", "verify_ks", "random_strategy_mixture"):
        table[f"nogo.{function}.busy_s"] = "s"
    for check in PROPERTY_CHECKS:
        table[f"properties.check_{check}.calls"] = "count"
        table[f"properties.check_{check}.busy_s"] = "s"
        table[f"properties.check_{check}.fails"] = "count"
    for function in ("construct_e1", "construct_e2", "construct_sv"):
        table[f"constructions.{function}.busy_s"] = "s"
    table["constructions.lambda_states"] = "count"
    table["constructions.lambda_states_guard_pct"] = "%"
    for function in ("equivalent_empirical", "equivalent_models", "project_to_empirical"):
        table[f"models.{function}.busy_s"] = "s"
    for function in ("parse_model", "serialize_model", "load_model", "save_model"):
        table[f"modelio.{function}.busy_s"] = "s"
    table["modelio.bytes_read"] = "bytes"
    table["modelio.bytes_written"] = "bytes"
    table["classify.classify_all.busy_s"] = "s"
    table["randgen.generate_random_model.busy_s"] = "s"
    for sub in CLI_SUBCOMMANDS:
        table[f"cli.{sub}.p50_s"] = "s"
    table["cli.import_s"] = "s"
    table["trace.overhead_s"] = "s"
    table["trace.overhead_pct"] = "%"
    # Every per-layer figure is a cost: smaller is better.
    return {name: (unit, "lower") for name, unit in table.items()}


METRICS = _metric_table()


def _guard_of(func: Callable) -> Callable[[tuple, dict], int]:
    signature = inspect.signature(func)

    def guard(args: tuple, kwargs: dict) -> int:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments["guard"]

    return guard


def _observers(hvw: ModuleType) -> dict[str, Callable]:
    """Counters read off one finished call: (recorder, args, kwargs, result)."""
    strategies_guard = _guard_of(hvw.nogo.enumerate_deterministic_strategies)
    e2_guard = _guard_of(hvw.constructions.construct_e2)
    ks_guard = _guard_of(hvw.nogo.ks_search_colorings)
    ks_candidates = hvw.nogo.ks_coloring_candidates

    def lp(rec: Recorder, args, kwargs, result) -> None:
        rows = args[0]
        rec.maximum("linprog.rows", len(rows))
        rec.maximum("linprog.cols", len(rows[0]) if rows else 0)
        answer = result[0] if result[0] is not None else result[1]
        bits = max((max(v.numerator.bit_length(), v.denominator.bit_length()) for v in answer), default=0)
        rec.maximum("linprog.answer_max_bits", bits)

    def strategies(rec: Recorder, args, kwargs, result) -> None:
        rec.maximum("nogo.strategies", len(result))
        rec.maximum("nogo.strategies_guard_pct", 100 * len(result) / strategies_guard(args, kwargs))

    def lambda_states(rec: Recorder, args, kwargs, result) -> None:
        size = len(result.lambda_set)
        rec.maximum("constructions.lambda_states", size)
        rec.maximum("constructions.lambda_states_guard_pct", 100 * size / e2_guard(args, kwargs))

    def colorings(rec: Recorder, args, kwargs, result) -> None:
        candidates = ks_candidates(args[0])
        rec.maximum("nogo.ks_candidates", candidates)
        rec.maximum("nogo.ks_candidates_guard_pct", 100 * candidates / ks_guard(args, kwargs))

    def bytes_read(rec: Recorder, args, kwargs, result) -> None:
        rec.count("modelio.bytes_read", len(args[0].encode("utf-8")))

    def bytes_written(rec: Recorder, args, kwargs, result) -> None:
        rec.count("modelio.bytes_written", len(result.encode("utf-8")))

    observers = {
        "linprog.feasible_point": lp,
        "nogo.enumerate_deterministic_strategies": strategies,
        "constructions.construct_e2": lambda_states,
        "nogo.ks_search_colorings": colorings,
        "modelio.parse_model": bytes_read,
        "modelio.serialize_model": bytes_written,
    }
    for check in PROPERTY_CHECKS:
        name = f"properties.check_{check}"
        observers[name] = lambda rec, args, kwargs, result, name=name: rec.count(
            f"{name}.fails", 0 if result.holds else 1
        )
    return observers


def targets(hvw: ModuleType) -> list[tuple[str, Callable, Callable | None]]:
    """(span name, original function, observer) for every traced function."""
    observers = _observers(hvw)
    found = []
    for module, function in TRACED:
        name = f"{module}.{function}"
        found.append((name, getattr(getattr(hvw, module), function), observers.get(name)))
    return found


def library_modules(modules: dict[str, ModuleType]) -> list[ModuleType]:
    """Every loaded module of the package, the package itself included."""
    return [m for key, m in modules.items() if key == "hvw" or key.startswith("hvw.")]


def per_layer(recorder: Recorder, measured: dict[str, float]) -> dict[str, float]:
    """Every metric in METRICS: span totals and counters from the recorder,
    the rest (CLI percentiles, import time, overhead) from `measured`."""
    totals = recorder.summary()
    values: dict[str, float] = {}
    for name in METRICS:
        layer, _, field = name.rpartition(".")
        if name in measured:
            values[name] = measured[name]
        elif field in ("calls", "busy_s", "self_s"):
            values[name] = getattr(totals.get(layer, SpanTotals()), field)
        else:
            values[name] = recorder.counters.get(name, recorder.maxima.get(name, 0))
    return values
