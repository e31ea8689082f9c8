"""Region enumeration and the achievable/impossible split."""

from __future__ import annotations

import itertools
import json

import pytest

from hvw import classify as classify_module
from hvw import (
    check_property,
    construct,
    CONSTRUCTION_GUARANTEES,
    IMPLICATIONS,
    OBSTRUCTION_KERNELS,
    PROPERTY_CODES,
    ClassificationReport,
    InputError,
    RegionVerdict,
    classify_all,
    classify_region,
    closure,
    enumerate_regions,
    epr_model,
    generate_random_model,
    grid_sites,
)


# ---------------------------------------------------------------------------
# Closure


def test_closure_oracles():
    assert closure(set()) == frozenset()
    assert closure({"SD"}) == {"SD", "WD", "OI", "PI"}
    assert closure({"SV"}) == {"SV", "LI"}
    assert closure({"WD"}) == {"WD", "OI"}
    assert closure({"OI"}) == {"OI"}
    assert closure({"SV", "SD"}) == {"SV", "LI", "SD", "WD", "OI", "PI"}


def test_closure_is_idempotent_and_monotone():
    for r in range(len(PROPERTY_CODES) + 1):
        for combo in itertools.combinations(PROPERTY_CODES, r):
            closed = closure(combo)
            assert closure(closed) == closed
            assert frozenset(combo) <= closed


def test_closure_rejects_unknown_codes():
    with pytest.raises(InputError):
        closure({"SD", "XX"})


# ---------------------------------------------------------------------------
# Region enumeration


def brute_force_regions() -> set[frozenset[str]]:
    """Check every one of the 64 subsets directly against the implication list."""
    regions = set()
    for r in range(len(PROPERTY_CODES) + 1):
        for combo in itertools.combinations(PROPERTY_CODES, r):
            subset = frozenset(combo)
            if all(b in subset for a, b in IMPLICATIONS if a in subset):
                regions.add(subset)
    return regions


def test_exactly_21_regions_match_brute_force():
    regions = enumerate_regions()
    assert len(regions) == 21
    assert set(regions) == brute_force_regions()
    assert len(set(regions)) == 21


def test_region_membership_spot_checks():
    regions = set(enumerate_regions())
    assert frozenset() in regions
    assert frozenset({"SD", "WD", "OI", "PI"}) in regions
    assert frozenset({"SD"}) not in regions
    assert frozenset({"SV", "WD"}) not in regions
    assert frozenset(PROPERTY_CODES) in regions


def test_regions_sorted_small_to_large():
    regions = enumerate_regions()
    sizes = [len(r) for r in regions]
    assert sizes == sorted(sizes)
    assert regions[0] == frozenset()
    assert regions[-1] == frozenset(PROPERTY_CODES)


# ---------------------------------------------------------------------------
# Single-region classification


def test_empty_region_is_achievable_by_all_methods():
    verdict = classify_region(())
    assert verdict.achievable
    assert verdict.methods == ("e1", "e2", "sv")
    assert verdict.kernel is None


def test_e1_region():
    verdict = classify_region({"SD", "WD", "OI", "PI"})
    assert verdict.achievable
    assert verdict.methods == ("e1",)
    assert verdict.region == ("SD", "WD", "OI", "PI")


def test_epr_kernel_region():
    verdict = classify_region({"SV", "LI", "OI"})
    assert not verdict.achievable
    assert verdict.kernel == "epr"
    assert verdict.kernel_properties == ("SV", "OI")


def test_ks_kernel_region():
    verdict = classify_region({"LI", "PI"})
    assert not verdict.achievable
    assert verdict.kernel == "ks"
    assert verdict.kernel_properties == ("LI", "PI")


def test_bell_kernel_region():
    verdict = classify_region({"LI", "OI", "PI"})
    assert not verdict.achievable
    assert verdict.kernel == "bell"
    assert verdict.kernel_properties == ("LI", "OI", "PI")


def test_kernels_are_matched_tightest_first():
    """A region containing several kernels is attributed to the first match."""
    verdict = classify_region(closure({"SV", "SD"}))
    assert verdict.kernel == "epr"
    kernel_names = [name for name, _ in OBSTRUCTION_KERNELS]
    assert kernel_names == ["epr", "bell", "ks"]


def test_classify_region_requires_closed_input():
    with pytest.raises(InputError) as exc:
        classify_region({"SD"})
    assert "implication-closed" in str(exc.value)
    with pytest.raises(InputError):
        classify_region({"QQ"})


def test_guarantee_table_is_closed_and_consistent():
    for method, guaranteed in CONSTRUCTION_GUARANTEES.items():
        assert closure(guaranteed) == guaranteed, method


# ---------------------------------------------------------------------------
# Full classification


def test_classify_all_counts():
    report = classify_all()
    assert len(report.regions) == 21
    assert report.achievable_count == 11
    assert report.impossible_count == 10
    assert report.achievable_count + report.impossible_count == 21
    assert "11 achievable and 10 impossible" in report.split_note


def test_every_region_has_a_note():
    report = classify_all()
    for entry in report.regions:
        if entry.verdict.achievable:
            assert entry.note.startswith("achievable via ")
            assert entry.verdict.methods
        else:
            assert entry.note.startswith("impossible: contains {")
            assert "ruled out by the" in entry.note
            assert entry.verdict.kernel in ("epr", "bell", "ks")


def test_classification_is_disjoint_and_exhaustive():
    report = classify_all()
    seen = set()
    for entry in report.regions:
        region = frozenset(entry.verdict.region)
        assert region not in seen
        seen.add(region)
        assert entry.verdict.achievable == (entry.verdict.kernel is None)
    assert seen == brute_force_regions()


def test_live_evidence_with_a_sample():
    report = classify_all(sample=epr_model())
    for entry in report.regions:
        if not entry.verdict.achievable:
            assert entry.evidence == ()
            continue
        assert len(entry.evidence) == len(entry.verdict.methods)
        for item in entry.evidence:
            assert item.all_hold
            assert item.equivalent
            assert item.properties_checked == entry.verdict.region


def test_live_evidence_on_random_samples():
    """The guarantee table is sound: every method delivers its region, live."""
    for seed in range(20):
        sample = generate_random_model(seed, grid_sites(2, 2, 2))
        report = classify_all(sample=sample)
        for entry in report.regions:
            for item in entry.evidence:
                assert item.all_hold, (seed, entry.verdict.region, item.method)
                assert item.equivalent, (seed, entry.verdict.region, item.method)


def test_live_evidence_builds_each_completion_once(monkeypatch):
    built = []
    checked = []

    def counting_construct(sample, method, guard):
        built.append(method)
        return construct(sample, method, guard)

    def counting_check(model, prop):
        checked.append((id(model), prop))
        return check_property(model, prop)

    monkeypatch.setattr(classify_module, "construct", counting_construct)
    monkeypatch.setattr(classify_module, "check_property", counting_check)
    classify_all(sample=epr_model())
    assert sorted(method.value for method in built) == ["e1", "e2", "sv"]
    assert len(checked) == len(set(checked)) == 9


def test_classification_report_round_trips():
    report = classify_all(sample=epr_model())
    data = json.loads(json.dumps(report.to_dict()))
    assert ClassificationReport.from_dict(data) == report


def test_region_verdict_round_trips():
    verdict = classify_region({"SV", "LI"})
    data = json.loads(json.dumps(verdict.to_dict()))
    assert RegionVerdict.from_dict(data) == verdict
