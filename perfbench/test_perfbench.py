"""Tests of the benchmark's own arithmetic and bookkeeping.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

import layers
import run
from measure import REFERENCE_S, percentile, quartile_spread, reference_seconds, samples_needed, scaled
from spans import Recorder, covered, self_times

ROOT = Path(__file__).resolve().parent.parent


def test_percentile_needs_ten_samples_above_it():
    assert samples_needed(50) == 20
    assert samples_needed(90) == 100
    assert percentile([float(v) for v in range(19)], 50) is None
    assert percentile([float(v) for v in range(20)], 50) == 9.0
    assert percentile([float(v) for v in range(99)], 90) is None
    assert percentile([float(v) for v in reversed(range(100))], 90) == 89.0
    assert percentile([], 50) is None


def test_quartile_spread_is_a_share_of_the_median():
    assert quartile_spread([10.0] * 4) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


def test_scaling_divides_by_the_mean_reference_reading():
    assert scaled(0.3, [REFERENCE_S]) == pytest.approx(0.3)
    assert scaled(0.3, [2 * REFERENCE_S, 4 * REFERENCE_S]) == pytest.approx(0.1)
    assert reference_seconds(clock=iter([1.0, 1.25]).__next__) == 0.25


def test_covered_merges_overlapping_intervals():
    assert covered([]) == 0.0
    assert covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_self_time_subtracts_what_children_cover():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    recorder = Recorder(clock=lambda: next(ticks))
    leaf = recorder.wrap("leaf", lambda: None)
    inner = recorder.wrap("inner", lambda nested: leaf() if nested else None)
    outer = recorder.wrap("outer", lambda: (inner(False), inner(True)))
    outer()

    names = {span.ident: span.name for span in recorder.spans}
    parents = {span.name: names.get(span.parent) for span in recorder.spans}
    assert parents == {"leaf": "inner", "inner": "outer", "outer": None}
    own = self_times(recorder.spans)
    assert sorted((names[i], t) for i, t in own.items()) == [
        ("inner", 2.0), ("inner", 2.0), ("leaf", 1.0), ("outer", 5.0)
    ]
    totals = recorder.summary()
    assert (totals["outer"].calls, totals["outer"].busy_s, totals["outer"].self_s) == (1, 10.0, 5.0)
    assert (totals["inner"].calls, totals["inner"].busy_s, totals["inner"].self_s) == (2, 5.0, 4.0)


def test_restore_puts_back_module_attributes_and_dispatch_tables():
    module = types.ModuleType("fake")

    def square(x):
        return x * x

    module.square = square
    module.alias = square
    module.table = {"sq": square, "other": len}
    recorder = Recorder()
    recorder.install([module], [("fake.square", square, None)])
    assert module.square is not square and module.table["sq"] is not square
    assert module.square(3) == 9 and module.table["sq"](2) == 4 and module.alias(1) == 1
    recorder.restore()
    assert module.square is square and module.alias is square
    assert module.table == {"sq": square, "other": len}
    assert [span.name for span in recorder.spans] == ["fake.square"] * 3


@pytest.fixture
def hvw():
    sys.path.insert(0, str(run.SRC))
    try:
        yield run.load_library()
    finally:
        sys.path.remove(str(run.SRC))


def _library_functions(hvw):
    modules = layers.library_modules(sys.modules)
    found = {}
    for module in modules:
        for key, value in vars(module).items():
            found[(module.__name__, key)] = value
            if type(value) is dict:
                for inner_key, inner in value.items():
                    found[(module.__name__, key, inner_key)] = inner
    return found


def test_traced_round_restores_every_library_function(hvw):
    before = _library_functions(hvw)
    workload = run.WORKLOADS["polytope"]
    pool = workload.rounds(hvw, workload.generate(hvw, 3, ""), "")
    recorder = Recorder()
    plain, traced = run.measure_traced(hvw, pool[:1], recorder)
    after = _library_functions(hvw)

    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(s.ok for s in plain + traced) and len(plain) == len(traced)
    names = {span.name for span in recorder.spans}
    assert {"nogo.local_polytope_feasibility", "linprog.feasible_point"} <= names
    check = hvw.properties._CHECKERS[hvw.PropertyId.LOCALITY]
    assert check is hvw.properties.check_locality


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
