"""Classification of property combinations into achievable and impossible.

Six hidden-variable properties are tracked by short codes: SV
(single-valuedness), LI (lambda-independence), SD (strong determinism), WD
(weak determinism), OI (outcome independence), PI (parameter independence).
Four implications hold for every finite model: SV implies LI, SD implies WD,
SD implies PI, WD implies OI. A *region* is an implication-closed subset, read
as "every model satisfying at least these properties"; there are exactly 21.

Each region is either achievable, with at least one completion (e1, e2, sv)
guaranteeing all of its properties on any empirical model, or impossible,
because it contains one of three minimal obstruction kernels: {SV, OI} (the
two-site anti-correlation argument), {LI, PI, OI} (the three-direction
argument), or {LI, PI} (the orthogonality-table argument). The two cases are
asserted at runtime to be exclusive and exhaustive over all 21 regions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping

from .codec import Codec
from .constructions import ConstructionMethod, construct
from .errors import InputError
from .models import DEFAULT_GUARD, EmpiricalModel, HiddenVariableModel, equivalent_empirical, require
from .properties import PropertyId, check_property

CODE_TO_PROPERTY: Mapping[str, PropertyId] = {
    "SV": PropertyId.SINGLE_VALUEDNESS,
    "LI": PropertyId.LAMBDA_INDEPENDENCE,
    "SD": PropertyId.STRONG_DETERMINISM,
    "WD": PropertyId.WEAK_DETERMINISM,
    "OI": PropertyId.OUTCOME_INDEPENDENCE,
    "PI": PropertyId.PARAMETER_INDEPENDENCE,
}

PROPERTY_CODES: tuple[str, ...] = tuple(CODE_TO_PROPERTY)

IMPLICATIONS: tuple[tuple[str, str], ...] = (
    ("SV", "LI"),
    ("SD", "WD"),
    ("SD", "PI"),
    ("WD", "OI"),
)

# Properties each completion guarantees on every empirical model.
CONSTRUCTION_GUARANTEES: Mapping[ConstructionMethod, frozenset[str]] = {
    ConstructionMethod.E1_STRONG_DETERMINISTIC: frozenset({"SD", "WD", "OI", "PI"}),
    ConstructionMethod.E2_WEAK_DET_LAMBDA_INDEP: frozenset({"LI", "WD", "OI"}),
    ConstructionMethod.SV_SINGLE_VALUED: frozenset({"SV", "LI"}),
}

# Minimal unachievable property sets, with the argument that rules each out.
# Order matters: the first kernel contained in a region names its obstruction.
OBSTRUCTION_KERNELS: tuple[tuple[str, frozenset[str]], ...] = (
    ("epr", frozenset({"SV", "OI"})),
    ("bell", frozenset({"LI", "PI", "OI"})),
    ("ks", frozenset({"LI", "PI"})),
)


def _checked_codes(props: Iterable[str]) -> frozenset[str]:
    codes = frozenset(props)
    unknown = codes - set(PROPERTY_CODES)
    if unknown:
        raise InputError(f"unknown property codes {sorted(unknown)}; expected {PROPERTY_CODES}")
    return codes


def closure(props: Iterable[str]) -> frozenset[str]:
    """Close a property set under the four implications."""
    current = set(_checked_codes(props))
    changed = True
    while changed:
        changed = False
        for antecedent, consequent in IMPLICATIONS:
            if antecedent in current and consequent not in current:
                current.add(consequent)
                changed = True
    return frozenset(current)


def region_sort_key(region: frozenset[str]) -> tuple:
    order = {code: i for i, code in enumerate(PROPERTY_CODES)}
    return (len(region), tuple(sorted(order[code] for code in region)))


def canonical_codes(region: Iterable[str]) -> tuple[str, ...]:
    codes = _checked_codes(region)
    return tuple(code for code in PROPERTY_CODES if code in codes)


def enumerate_regions() -> tuple[frozenset[str], ...]:
    """All implication-closed subsets, in a fixed canonical order."""
    regions = []
    for r in range(len(PROPERTY_CODES) + 1):
        for combo in itertools.combinations(PROPERTY_CODES, r):
            subset = frozenset(combo)
            if closure(subset) == subset:
                regions.append(subset)
    regions.sort(key=region_sort_key)
    assert len(regions) == 21, f"expected 21 implication-closed regions, found {len(regions)}"
    return tuple(regions)


@dataclass(frozen=True)
class RegionVerdict(Codec):
    """One region's classification with its supporting construction(s) or kernel."""

    derived = ("kernel_properties",)

    region: tuple[str, ...]
    achievable: bool
    methods: tuple[str, ...] = ()
    kernel: str | None = None

    @property
    def kernel_properties(self) -> tuple[str, ...] | None:
        return None if self.kernel is None else canonical_codes(dict(OBSTRUCTION_KERNELS)[self.kernel])


def classify_region(region: Iterable[str]) -> RegionVerdict:
    """Classify one implication-closed property set.

    Raises an input error if the set is not closed. Asserts that achievability
    by construction and containment of an obstruction kernel never coincide
    and never both fail.
    """
    codes = _checked_codes(region)
    if closure(codes) != codes:
        missing = sorted(closure(codes) - codes)
        raise InputError(f"region must be implication-closed; missing {missing}")
    methods = tuple(
        method.value for method, guaranteed in CONSTRUCTION_GUARANTEES.items() if codes <= guaranteed
    )
    kernel = next((name for name, props in OBSTRUCTION_KERNELS if props <= codes), None)
    if methods and kernel is not None:
        raise AssertionError(f"region {sorted(codes)} is both achievable and obstructed")
    if not methods and kernel is None:
        raise AssertionError(f"region {sorted(codes)} is neither achievable nor obstructed")
    return RegionVerdict(region=canonical_codes(codes), achievable=kernel is None, methods=methods, kernel=kernel)


@dataclass(frozen=True)
class RegionEvidence(Codec):
    """Live recheck of one construction against one region's properties."""

    method: str
    properties_checked: tuple[str, ...]
    all_hold: bool
    equivalent: bool


@dataclass(frozen=True)
class RegionEntry(Codec):
    verdict: RegionVerdict
    note: str
    evidence: tuple[RegionEvidence, ...] = ()


SPLIT_NOTE = (
    "The outermost region (no properties required) is trivially achievable and is "
    "counted as such, giving 11 achievable and 10 impossible regions; a tally that "
    "leaves that region unannotated reads 10 achievable and 11 impossible instead."
)


@dataclass(frozen=True)
class ClassificationReport(Codec):
    """All 21 regions with verdicts, optional live evidence, and the split."""

    kind = "classification-report"
    derived = ("achievable_count", "impossible_count", "split_note")
    split_note = SPLIT_NOTE

    regions: tuple[RegionEntry, ...]

    @property
    def achievable_count(self) -> int:
        return sum(entry.verdict.achievable for entry in self.regions)

    @property
    def impossible_count(self) -> int:
        return len(self.regions) - self.achievable_count


_KERNEL_NOTES: Mapping[str, str] = {
    "epr": "two-site anti-correlation argument",
    "bell": "three-direction counting argument",
    "ks": "orthogonality-table coloring argument",
}


def classify_all(
    sample: EmpiricalModel | None = None, guard: int = DEFAULT_GUARD
) -> ClassificationReport:
    """Classify every region; with a sample model, recheck achievable ones live.

    For each achievable region and each of its guaranteeing constructions, the
    sample is completed, every property in the region is checked on the
    result, and the completion is verified equivalent to the sample. Each
    completion, and each check on it, runs once per call however many
    regions share it.
    """
    if sample is not None:
        require(sample, EmpiricalModel, "classify_all")

    @functools.cache
    def completion(method_value: str) -> HiddenVariableModel:
        return construct(sample, ConstructionMethod(method_value), guard=guard)

    @functools.cache
    def holds(method_value: str, code: str) -> bool:
        return check_property(completion(method_value), CODE_TO_PROPERTY[code]).holds

    @functools.cache
    def equivalent(method_value: str) -> bool:
        return equivalent_empirical(sample, completion(method_value)).holds

    entries = []
    for region in enumerate_regions():
        verdict = classify_region(region)
        if verdict.achievable:
            note = "achievable via " + ", ".join(verdict.methods)
            evidence: tuple[RegionEvidence, ...] = ()
            if sample is not None:
                checked = []
                for method_value in verdict.methods:
                    checked.append(
                        RegionEvidence(
                            method=method_value,
                            properties_checked=verdict.region,
                            all_hold=all(holds(method_value, code) for code in verdict.region),
                            equivalent=equivalent(method_value),
                        )
                    )
                evidence = tuple(checked)
            entries.append(RegionEntry(verdict=verdict, note=note, evidence=evidence))
        else:
            assert verdict.kernel is not None and verdict.kernel_properties is not None
            note = (
                "impossible: contains {" + ", ".join(verdict.kernel_properties) + "}, "
                f"ruled out by the {_KERNEL_NOTES[verdict.kernel]}"
            )
            entries.append(RegionEntry(verdict=verdict, note=note))
    return ClassificationReport(regions=tuple(entries))
