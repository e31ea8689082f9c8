"""Exact workbench for finite hidden-variable models.

Everything runs on rational arithmetic. The package builds and compares
empirical models (observable weight tables) and hidden-variable models
(weight tables refined by a finite set of hidden states), checks the standard
independence and determinism properties with explicit counterexample
witnesses, completes any empirical model by three constructions, replays
three classical impossibility arguments mechanically, and classifies every
implication-closed combination of properties as achievable or impossible.

`from hvw import X` imports X's module on first use, so `import hvw` alone
loads none of them.
"""

from __future__ import annotations

import importlib
import sys

__version__ = "0.1.0"

# Each public name, once, under the module that defines it.
_EXPORTS = {
    "classify": (
        "CODE_TO_PROPERTY", "CONSTRUCTION_GUARANTEES", "IMPLICATIONS", "OBSTRUCTION_KERNELS",
        "PROPERTY_CODES", "SPLIT_NOTE", "ClassificationReport", "RegionEntry", "RegionEvidence",
        "RegionVerdict", "canonical_codes", "classify_all", "classify_region", "closure",
        "enumerate_regions", "region_sort_key",
    ),
    "constructions": (
        "ConstructionMethod", "construct", "construct_e1", "construct_e2", "construct_sv",
        "reconstruct_hvm",
    ),
    "errors": (
        "InputError", "ModelFormatError", "NegativeWeightError", "NullConditioningError",
        "SignatureMismatchError", "SizeGuardError", "UnknownLabelError", "WeightSumError",
        "WorkbenchError",
    ),
    "linprog": ("feasible_point", "verify_farkas", "verify_solution"),
    "models": (
        "DEFAULT_GUARD", "EmpiricalModel", "Event", "HiddenVariableModel", "PropertyVerdict",
        "Site", "Witness", "equivalent_empirical", "equivalent_hvm", "equivalent_models",
        "merge_events", "project_to_empirical",
    ),
    "modelio": (
        "load_model", "model_from_dict", "model_to_dict", "parse_model", "save_model",
        "serialize_model",
    ),
    "local": ("PolytopeResult", "count_deterministic_strategies", "local_polytope_feasibility"),
    "nogo": (
        "BellCertificate", "BellEscapeReport", "BellReport", "EprReport", "KsColoring",
        "KsParityReport", "KsReport", "KsTable", "bell_certificate", "bell_model",
        "bell_pi_escape", "canonical_model", "enumerate_deterministic_strategies",
        "epr_escape_hvm", "epr_model", "ks_coloring_candidates", "ks_model",
        "ks_parity_certificate", "ks_search_colorings", "ks_table", "random_strategy_mixture",
        "verify_bell", "verify_epr", "verify_ks",
    ),
    "properties": (
        "EMPIRICAL_MODEL_PROPERTIES", "HIDDEN_MODEL_PROPERTIES", "Permutation", "PropertyId",
        "check_exchangeability", "check_lambda_independence", "check_locality",
        "check_non_contextuality", "check_outcome_independence", "check_parameter_independence",
        "check_property", "check_single_valuedness", "check_strong_determinism",
        "check_weak_determinism",
    ),
    "randgen": ("generate_random_model", "grid_sites"),
}
_MODULE_OF = {name: f"{__name__}.{module}" for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str) -> object:
    """Read `name` from its module on every access; nothing is stored here, so
    a function later replaced in its module (by a test's monkeypatch, or a
    tracing wrapper) is seen through the package too."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # Reading sys.modules first keeps the common, already-loaded case cheap.
    return getattr(sys.modules.get(module) or importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
