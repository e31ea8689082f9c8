"""Acceptance gate: one test per advertised guarantee, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Every numeric claim is checked in exact rational arithmetic; the stated time
budgets are asserted with a monotonic clock.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from conftest import fr, full_membership_system, half_noise, pi_violating_hvm, uniform_one_site

import hvw.linprog

from hvw import (
    ClassificationReport,
    EmpiricalModel,
    EprReport,
    HiddenVariableModel,
    KsReport,
    Site,
    bell_model,
    check_exchangeability,
    check_lambda_independence,
    check_locality,
    check_non_contextuality,
    check_outcome_independence,
    check_parameter_independence,
    check_single_valuedness,
    check_strong_determinism,
    check_weak_determinism,
    construct_e1,
    construct_e2,
    construct_sv,
    epr_escape_hvm,
    epr_model,
    equivalent_empirical,
    generate_random_model,
    grid_sites,
    ks_search_colorings,
    ks_table,
    local_polytope_feasibility,
    project_to_empirical,
    random_strategy_mixture,
    save_model,
    verify_farkas,
)
from hvw.local import _scenario
from hvw.nogo import BellReport

ONE = Fraction(1)


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def test_criterion_1_anticorrelation_argument(cli):
    with criterion(1, "two-site anti-correlation argument"):
        started = time.monotonic()
        code, out, _ = cli("nogo", "epr", "--format", "json")
        elapsed = time.monotonic() - started
        assert code == 1
        report = EprReport.from_dict(json.loads(out)["report"])
        assert report.marginal == fr("1/2")
        assert report.pinned_by_partner == ONE
        assert not report.oi_single_state.holds
        assert report.escape_sd.holds
        assert report.escape_li.holds
        assert report.escape_oi.holds
        assert report.escape_equivalent.holds
        assert report.confirmed
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_counting_certificate(cli):
    with criterion(2, "three-direction counting certificate"):
        started = time.monotonic()
        code, out, _ = cli("nogo", "bell", "--method", "certificate", "--format", "json")
        elapsed = time.monotonic() - started
        assert code == 1
        report = BellReport.from_dict(json.loads(out)["report"])
        cert = report.certificate
        assert cert is not None
        assert len(cert.equations) == 3
        for eq in cert.equations:
            assert eq.plus_plus == fr("3/8")
            assert eq.minus_minus == fr("3/8")
            assert eq.rhs == fr("3/4")
        assert cert.atoms_counted_twice
        assert cert.aggregate_value == fr("9/8")
        assert cert.aggregate_value > 1
        assert cert.impossible
        assert report.confirmed
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_polytope_membership(cli, uniform_quarter, all_pairs_anticorrelation):
    with criterion(3, "deterministic-mixture membership"):
        started = time.monotonic()
        code, out, _ = cli("nogo", "bell", "--method", "polytope", "--format", "json")
        assert code == 1
        report = BellReport.from_dict(json.loads(out)["report"])
        poly = report.polytope
        assert poly is not None
        assert not poly.feasible
        assert poly.strategy_count == 64
        assert report.confirmed

        # Revalidate the separating certificate against the reference system,
        # built from the public strategy enumeration and the model's own table.
        rows, rhs = full_membership_system(bell_model())
        assert len(rows) == len(poly.row_labels) == 37
        assert verify_farkas(rows, rhs, list(poly.certificate))

        # Controls: two behaviors that must sit inside the polytope, with
        # witness models carrying the guaranteed properties.
        for control in (uniform_quarter, all_pairs_anticorrelation):
            result = local_polytope_feasibility(control)
            assert result.feasible
            assert result.hvm is not None
            assert check_lambda_independence(result.hvm).holds
            assert check_locality(result.hvm).holds
            assert equivalent_empirical(control, result.hvm).holds
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_membership_at_512_strategies():
    """The membership test stays fast on a three-site control: (3,3,2) has
    512 deterministic strategies and 217 equations."""
    with criterion(3, "deterministic-mixture membership at 512 strategies"):
        started = time.monotonic()
        control = project_to_empirical(random_strategy_mixture(0, grid_sites(3, 3, 2)))
        result = local_polytope_feasibility(control)
        assert result.strategy_count == 512
        assert len(result.row_labels) == 217
        assert result.feasible
        assert result.hvm is not None
        assert equivalent_empirical(control, result.hvm).holds
        elapsed = time.monotonic() - started
        assert elapsed < 0.5, f"took {elapsed:.2f}s"


def test_criterion_3_membership_at_1024_strategies():
    """A two-site control with five measurements per site: (2,5,2) has 1,024
    deterministic strategies and 101 equations."""
    with criterion(3, "deterministic-mixture membership at 1,024 strategies"):
        started = time.monotonic()
        control = project_to_empirical(random_strategy_mixture(0, grid_sites(2, 5, 2)))
        result = local_polytope_feasibility(control)
        assert result.strategy_count == 1024
        assert len(result.row_labels) == 101
        assert result.feasible
        assert result.hvm is not None
        assert equivalent_empirical(control, result.hvm).holds
        elapsed = time.monotonic() - started
        assert elapsed < 0.5, f"took {elapsed:.2f}s"


@pytest.mark.parametrize("shape, rows", [((3, 4, 2), 513), ((2, 6, 2), 145)], ids=str)
def test_criterion_3_membership_at_4096_strategies(shape, rows):
    """The two 4,096-strategy controls: the presolve leaves the simplex a few
    pivots on each (28.7 s on the full (2,6,2) system)."""
    with criterion(3, f"deterministic-mixture membership at 4,096 strategies, {shape}"):
        started = time.monotonic()
        control = project_to_empirical(random_strategy_mixture(0, grid_sites(*shape)))
        result = local_polytope_feasibility(control)
        assert result.strategy_count == 4096
        assert len(result.row_labels) == rows
        assert result.feasible
        assert result.hvm is not None
        assert equivalent_empirical(control, result.hvm).holds
        elapsed = time.monotonic() - started
        assert elapsed < 0.5, f"took {elapsed:.2f}s"


def test_criterion_3_membership_of_a_point_mass_over_4000_outcomes():
    """One site, one measurement and 4,000 outcomes, all mass on the first:
    4,000 strategies and 4,001 rows, settled by the presolve. The strategies
    are counted, not listed, and the system is held by columns, so memory
    grows with the strategies, not with rows x strategies (125 MiB as a dense
    0/1 table)."""
    with criterion(3, "deterministic-mixture membership of a 4,000-outcome point mass"):
        site = Site("X", ("M",), tuple(f"o{i}" for i in range(4000)))
        model = EmpiricalModel((site,), {(("o0",), ("M",)): ONE})
        tracemalloc.start()
        try:
            started = time.monotonic()
            result = local_polytope_feasibility(model)
            elapsed = time.monotonic() - started
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.strategy_count == 4000
        assert len(result.row_labels) == 4001
        assert result.feasible
        assert result.strategy_weights == ((0, ONE),)
        assert equivalent_empirical(model, result.hvm).holds
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert elapsed < 0.5, f"took {elapsed:.2f}s"


def test_criterion_3_membership_of_the_uniform_table_over_4000_outcomes():
    """One site, one measurement and 4,000 equally likely outcomes: every
    cell is positive, so no strategy is dropped, but each row has one
    strategy, so the rows force every weight and the simplex never runs
    (20.8 s and 515 MiB through a 4,000 x 4,001 tableau). Timed on its
    own, with the `tracemalloc` peak taken in a second call. The witness,
    4,000 hidden states, is checked equivalent in its own time bound."""
    with criterion(3, "deterministic-mixture membership of the uniform 4,000-outcome table"):
        model = uniform_one_site(4000)
        started = time.monotonic()
        result = local_polytope_feasibility(model)
        elapsed = time.monotonic() - started
        started = time.monotonic()
        equivalent = equivalent_empirical(model, result.hvm)
        checked = time.monotonic() - started
        tracemalloc.start()
        try:
            local_polytope_feasibility(uniform_one_site(4000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.strategy_count == 4000
        assert result.feasible
        assert result.strategy_weights == tuple((j, Fraction(1, 4000)) for j in range(4000))
        assert equivalent.holds
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert elapsed < 0.5, f"took {elapsed:.2f}s"
        assert checked < 0.5, f"equivalence took {checked:.2f}s"


def test_criterion_3_membership_of_a_signalling_table_at_32768_strategies():
    """The seed-0 random table of (3,5,2) signals, on 101 non-null contexts
    of 125 and N = 32,768, and is answered by a certificate with 8 nonzero
    entries. Each solve starts from a cold scenario cache, so the columns
    are built; the system reads them in place, and each column holds one
    byte per strategy, so the `tracemalloc` peak is 3.8 MiB on a 2-vCPU Xeon
    with Python 3.11 (27 MiB with an 8-byte pointer per strategy, 123 MiB
    when each solve also copied every column), and a solve takes 0.21-0.26
    s there. Timed on its own, with the peak taken in a second call."""
    with criterion(3, "deterministic-mixture membership of the signalling (3,5,2) table"):
        model = generate_random_model(0, grid_sites(3, 5, 2))
        _scenario.cache_clear()
        started = time.monotonic()
        result = local_polytope_feasibility(model)
        elapsed = time.monotonic() - started
        _scenario.cache_clear()
        tracemalloc.start()
        try:
            local_polytope_feasibility(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not result.feasible
        assert result.strategy_count == 32768
        assert len(result.row_labels) == 101 * 8 + 1
        assert sum(1 for v in result.certificate if v) == 8
        assert peak < 8 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_3_membership_of_the_half_noise_control(monkeypatch):
    """Half the (2,3,2) seed-0 control and half the uniform table: every
    cell is positive and each row has 16 of the 64 strategies, so no
    strategy is dropped, the peel stalls, and the simplex takes 67 Bland
    pivots on a 37 x 64 table (0.014 s on a 2-vCPU Xeon with Python 3.11).
    Timed on its own, with the pivots counted in a second call."""
    with criterion(3, "deterministic-mixture membership of the half-noise (2,3,2) control"):
        control = half_noise(project_to_empirical(random_strategy_mixture(0, grid_sites(2, 3, 2))))
        started = time.monotonic()
        result = local_polytope_feasibility(control)
        elapsed = time.monotonic() - started
        pivots = 0
        pivot = hvw.linprog._pivot

        def counting(*args):
            nonlocal pivots
            pivots += 1
            pivot(*args)

        monkeypatch.setattr(hvw.linprog, "_pivot", counting)
        assert local_polytope_feasibility(control) == result
        assert result.strategy_count == 64
        assert len(result.row_labels) == 37
        assert result.feasible
        assert equivalent_empirical(control, result.hvm).holds
        assert pivots == 67
        assert elapsed < 0.1, f"took {elapsed:.3f}s"


def test_criterion_4_orthogonality_table(cli):
    with criterion(4, "orthogonality-table argument"):
        started = time.monotonic()
        code, out, _ = cli("nogo", "ks", "--format", "json")
        elapsed = time.monotonic() - started
        assert code == 1
        report = KsReport.from_dict(json.loads(out)["report"])
        assert report.exchangeability.holds
        assert report.winner_pattern_ok
        assert not report.non_contextuality.holds
        assert "E2" in report.non_contextuality.witness.where
        assert report.coloring_candidates == 4**9 == 262_144
        assert report.coloring_count == 0
        parity = report.parity
        assert parity is not None
        assert parity.all_counts_even
        assert parity.column_count == 9
        assert parity.column_count_odd
        assert parity.conclusive
        assert report.confirmed
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_4_coloring_search_is_fast():
    """The 262,144 winner patterns of the 18-label table are settled by a
    search, not by listing them."""
    with criterion(4, "coloring search of the orthogonality table"):
        started = time.monotonic()
        assert ks_search_colorings(ks_table()) == []
        elapsed = time.monotonic() - started
        assert elapsed < 0.05, f"took {elapsed:.3f}s"


def test_criterion_4_exchangeability_at_9_sites():
    """Exchangeability is decided on two generators of the symmetric group,
    not on all 9! = 362,880 site permutations."""
    with criterion(4, "exchangeability of a symmetric 9-site model"):
        sites = grid_sites(9, 1, 2)
        context = ("M1",) * 9
        # The weight of an outcome tuple depends only on how many sites read o2.
        raw = {
            (outcome, context): 1 + outcome.count("o2")
            for outcome in itertools.product(("o1", "o2"), repeat=9)
        }
        total = sum(raw.values())
        model = EmpiricalModel(sites, {key: Fraction(v, total) for key, v in raw.items()})
        started = time.monotonic()
        assert check_exchangeability(model).holds
        elapsed = time.monotonic() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_5_construction_guarantees():
    shapes = ((1, 1, 2), (1, 3, 3), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3))
    with criterion(5, "construction guarantees on random models"):
        started = time.monotonic()
        checked = 0
        for n_sites, n_meas, n_out in shapes:
            sites = grid_sites(n_sites, n_meas, n_out)
            for seed in range(100):
                base = generate_random_model(seed, sites)
                tag = (n_sites, n_meas, n_out, seed)

                deterministic = construct_e1(base)
                assert check_strong_determinism(deterministic).holds, tag
                assert equivalent_empirical(base, deterministic).holds, tag

                uniform = construct_e2(base)
                denominators = [1]
                for context in base.context_weights():
                    denominators.extend(
                        p.denominator for p in base.outcome_distribution(context).values()
                    )
                assert len(uniform.lambda_set) == math.lcm(*denominators), tag
                assert check_weak_determinism(uniform).holds, tag
                assert check_lambda_independence(uniform).holds, tag
                assert check_outcome_independence(uniform).holds, tag
                assert equivalent_empirical(base, uniform).holds, tag

                single = construct_sv(base)
                assert check_single_valuedness(single).holds, tag
                assert check_lambda_independence(single).holds, tag
                assert equivalent_empirical(base, single).holds, tag
                checked += 1
        elapsed = time.monotonic() - started
        assert checked == 700
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_6_implication_lattice():
    with criterion(6, "implication lattice on random models"):
        cases = [
            epr_escape_hvm(),
            pi_violating_hvm(),
            construct_sv(epr_model()),
            construct_e1(epr_model()),
            construct_e2(epr_model()),
            construct_sv(bell_model()),
            construct_e1(bell_model()),
            construct_e2(bell_model()),
        ]
        for seed in range(60):
            cases.append(random_strategy_mixture(seed, grid_sites(2, 2, 2)))
        shapes = ((2, 2, 2), (2, 3, 2), (2, 2, 3), (1, 2, 2))
        for seed in range(100):
            sites = grid_sites(*shapes[seed % len(shapes)])
            cases.append(generate_random_model(seed, sites, lambda_size=seed % 4 + 1))

        antecedents: Counter[str] = Counter()
        for hidden in cases:
            sv = check_single_valuedness(hidden).holds
            li = check_lambda_independence(hidden).holds
            sd = check_strong_determinism(hidden).holds
            wd = check_weak_determinism(hidden).holds
            oi = check_outcome_independence(hidden).holds
            pi = check_parameter_independence(hidden).holds
            local = check_locality(hidden).holds

            assert not sv or li, hidden
            assert not sd or wd, hidden
            assert not wd or oi, hidden
            assert not sd or pi, hidden
            assert local == (oi and pi), hidden
            if li and pi:
                projected = project_to_empirical(hidden)
                assert check_non_contextuality(projected).holds, hidden

            antecedents["SV"] += sv
            antecedents["SD"] += sd
            antecedents["WD"] += wd
            antecedents["LI&PI"] += li and pi

        # None of the implications may have passed vacuously.
        for name in ("SV", "SD", "WD", "LI&PI"):
            assert antecedents[name] > 0, antecedents


def test_criterion_6_locality_at_40_sites():
    """Locality is decided on the support: a point mass on 40 sites has
    2^40 outcome tuples but one support cell, and so has a two-cell model
    that fails, with the witness the dense scan would name first."""
    with criterion(6, "locality of 40-site point-mass models"):
        sites = grid_sites(40, 1, 2)
        context = ("M1",) * 40
        point = HiddenVariableModel(sites, ("l",), {(("o1",) * 40, context, "l"): ONE})
        split = HiddenVariableModel(
            sites,
            ("l", "m"),
            {
                (("o1",) * 40, context, "l"): Fraction(1, 2),
                (("o2",) * 40, context, "l"): Fraction(1, 4),
                (("o2",) * 40, context, "m"): Fraction(1, 4),
            },
        )
        started = time.monotonic()
        assert check_locality(point).holds
        verdict = check_locality(split)
        elapsed = time.monotonic() - started
        assert not verdict.holds
        assert verdict.witness.lhs == Fraction(2, 3)
        assert verdict.witness.rhs == Fraction(2, 3) ** 40
        assert verdict.witness.lhs_desc.startswith("p(s1=o1, s2=o1,")
        assert verdict.witness.where == ("l",)
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_7_region_classification(cli, tmp_path):
    with criterion(7, "region classification"):
        sample_path = tmp_path / "sample.em"
        save_model(epr_model(), str(sample_path))
        code, out, _ = cli(
            "classify", "--sample", str(sample_path), "--format", "json"
        )
        assert code == 0
        report = ClassificationReport.from_dict(json.loads(out)["report"])
        assert len(report.regions) == 21
        assert report.achievable_count == 11
        assert report.impossible_count == 10
        assert report.split_note

        seen = set()
        for entry in report.regions:
            region = frozenset(entry.verdict.region)
            assert region not in seen
            seen.add(region)
            if entry.verdict.achievable:
                assert entry.verdict.methods
                assert entry.verdict.kernel is None
                assert entry.evidence, entry.verdict.region
                for item in entry.evidence:
                    assert item.all_hold, (entry.verdict.region, item.method)
                    assert item.equivalent, (entry.verdict.region, item.method)
            else:
                assert entry.verdict.kernel in ("epr", "bell", "ks")
                assert not entry.verdict.methods
        assert len(seen) == 21
