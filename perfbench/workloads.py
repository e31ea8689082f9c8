"""The three benchmark workloads: seeded inputs, timed operations, checks.

Each workload turns a seed into a pool of rounds. A round is a list of
operations; each operation has a timed call and a check that runs after the
clock has stopped. Inputs are built in set-up and copied fresh before every
timed call, so no operation starts from aggregates that an earlier operation
cached on the same model object.

Why these workloads:

* polytope -- deterministic-mixture membership. The LP in `linprog` and its
  build in `nogo` do nearly all the work. Feasible answers (mixture controls)
  and infeasible ones (random models, the Bell table) take different paths.
* corpus -- a library batch of completions and property checks. `properties`,
  `constructions`, `models` and `modelio` do the work; `linprog` does none.
  Holding verdicts scan everything while failing ones stop at the first
  witness.
* cli -- the README commands run in process through `hvw.cli.main`. Short
  commands set the median (parsing, writing, aggregation); `nogo ks`,
  `nogo bell` and `classify` set the tail.

Inputs whose single operation takes seconds at this revision, and whose cost
varies several-fold between seeds, are left out: with them a run of a few
tens of seconds cannot give the same figures on different seeds. That drops
the polytope shapes (2,4,2) and (3,3,2) (0.4 to 21 s a solve) in favour of
(3,2,2), and the e2 completion of a (5,4,2) model (3.5 s).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from types import ModuleType
from typing import Callable

# Instance seeds of one workload seed are SEED_STRIDE * seed + 0, 1, 2, ...,
# taken in order: no seed is picked by hand.
SEED_STRIDE = 100_000

POLYTOPE_SHAPES = ((2, 3, 2), (3, 2, 2))
POLYTOPE_PER_SHAPE = 2
POLYTOPE_ROUNDS = 40

CRITERION_5_SHAPES = ((1, 1, 2), (1, 3, 3), (2, 1, 2), (2, 2, 2), (2, 3, 2), (2, 2, 3), (2, 3, 3))
CORPUS_SHAPES = CRITERION_5_SHAPES + ((3, 2, 2), (3, 3, 2))
CORPUS_SWEEPS = 12
E2_SHAPES = ((3, 4, 2), (4, 4, 2))
SYMMETRIC_SHAPES = ((5, 2, 2), (6, 1, 2))
CORPUS_ROUNDS = 14

CLI_MODEL_SETS = 6

HIDDEN_CHECKS = (
    ("SV", "check_single_valuedness"),
    ("LI", "check_lambda_independence"),
    ("SD", "check_strong_determinism"),
    ("WD", "check_weak_determinism"),
    ("OI", "check_outcome_independence"),
    ("PI", "check_parameter_independence"),
    ("LOC", "check_locality"),
)

# What each completion guarantees (acceptance criterion 5).
GUARANTEES = {"e1": ("SD",), "e2": ("WD", "LI", "OI"), "sv": ("SV", "LI")}


@dataclass
class Op:
    """One timed operation: `run(*prepare())` is timed, `check(result)` is not."""

    label: str
    prepare: Callable[[], tuple]
    run: Callable[..., object]
    check: Callable[[object], bool]


class Workload:
    name: str
    why: str
    # Rounds the traced run covers, each once plain and once traced: a fixed
    # amount of work, so that counts repeat from run to run.
    trace_rounds: int

    def generate(self, hvw: ModuleType, seed: int, workdir: str) -> object:
        """Build the seeded inputs (and any files) for one run."""
        raise NotImplementedError

    def rounds(self, hvw: ModuleType, inputs: object, workdir: str) -> list[list[Op]]:
        """Record the expected results and return the pool of rounds."""
        raise NotImplementedError


def fresh(hvw: ModuleType, model):
    """An equal model object with empty aggregate caches."""
    if isinstance(model, hvw.HiddenVariableModel):
        return hvw.HiddenVariableModel(model.sites, model.lambda_set, model.weights)
    return hvw.EmpiricalModel(model.sites, model.weights)


def conditional_lcm(model) -> int:
    """Least common multiple of the conditional-probability denominators."""
    denominators = [1]
    for context in model.context_weights():
        denominators.extend(p.denominator for p in model.outcome_distribution(context).values())
    return math.lcm(*denominators)


def implications_hold(verdicts: dict[str, bool]) -> bool:
    """SV=>LI, SD=>WD, SD=>PI, WD=>OI and locality <=> PI and OI."""
    v = verdicts
    return (
        (not v["SV"] or v["LI"])
        and (not v["SD"] or v["WD"])
        and (not v["SD"] or v["PI"])
        and (not v["WD"] or v["OI"])
        and v["LOC"] == (v["OI"] and v["PI"])
    )


# ---------------------------------------------------------------------------
# polytope


class Polytope(Workload):
    name = "polytope"
    why = "LP membership on seeded feasible mixtures and infeasible random tables: linprog and nogo do the work"
    trace_rounds = 12

    def generate(self, hvw, seed, workdir):
        base = SEED_STRIDE * seed
        pool = []
        for r in range(POLYTOPE_ROUNDS):
            items = []
            for shape in POLYTOPE_SHAPES:
                sites = hvw.grid_sites(*shape)
                for i in range(POLYTOPE_PER_SHAPE):
                    s = base + r * POLYTOPE_PER_SHAPE + i
                    control = hvw.project_to_empirical(hvw.random_strategy_mixture(s, sites))
                    items.append((f"control{shape}", control))
                    items.append((f"random{shape}", hvw.generate_random_model(s, sites)))
            items.append(("bell", hvw.bell_model()))
            pool.append(items)
        return pool

    def rounds(self, hvw, inputs, workdir):
        pool = []
        for items in inputs:
            ops = []
            for label, model in items:
                if label.startswith("control"):
                    expected = True
                elif label == "bell" or not hvw.check_non_contextuality(model).holds:
                    expected = False
                else:
                    expected = None
                ops.append(
                    Op(
                        label,
                        lambda model=model: (fresh(hvw, model),),
                        lambda model: hvw.local_polytope_feasibility(model),
                        lambda result, model=model, expected=expected: self._correct(
                            hvw, model, expected, result
                        ),
                    )
                )
            pool.append(ops)
        return pool

    @staticmethod
    def _correct(hvw, model, expected, result) -> bool:
        if expected is not None and result.feasible != expected:
            return False
        if result.feasible:
            return result.hvm is not None and hvw.equivalent_empirical(model, result.hvm).holds
        return result.certificate is not None and len(result.certificate) == len(result.row_labels)


# ---------------------------------------------------------------------------
# corpus


def symmetric_model(hvw, seed: int, shape: tuple[int, int, int]):
    """Seeded model whose weights depend only on the multiset of (measurement,
    outcome) pairs, so every permutation of the sites leaves it unchanged."""
    rng = random.Random(seed)
    sites = hvw.grid_sites(*shape)
    orbit_weight: dict[tuple, int] = {}
    raw = {}
    for context in itertools.product(*(site.measurements for site in sites)):
        for outcome in itertools.product(*(site.outcomes for site in sites)):
            orbit = tuple(sorted(zip(context, outcome)))
            if orbit not in orbit_weight:
                orbit_weight[orbit] = rng.randint(0, 3)
            if orbit_weight[orbit]:
                raw[(outcome, context)] = orbit_weight[orbit]
    if not raw:
        context = tuple(site.measurements[0] for site in sites)
        raw[(tuple(site.outcomes[0] for site in sites), context)] = 1
    total = sum(raw.values())
    return hvw.EmpiricalModel(sites, {key: Fraction(v, total) for key, v in raw.items()})


def complete_and_check(hvw, model):
    """e1, e2 and sv completions, seven checks on each, two on the source,
    equivalence, and a serialize/parse round trip."""
    completions = {}
    for method in ("e1", "e2", "sv"):
        hidden = getattr(hvw, f"construct_{method}")(model)
        verdicts = {code: getattr(hvw, name)(hidden).holds for code, name in HIDDEN_CHECKS}
        equivalent = hvw.equivalent_empirical(model, hidden).holds
        completions[method] = (len(hidden.lambda_set), verdicts, equivalent)
    hvw.check_non_contextuality(model)
    hvw.check_exchangeability(model)
    round_trip = hvw.parse_model(hvw.serialize_model(model)) == model
    return completions, round_trip


def complete_e2(hvw, model):
    hidden = hvw.construct_e2(model)
    verdicts = {
        code: getattr(hvw, name)(hidden).holds
        for code, name in HIDDEN_CHECKS
        if code in GUARANTEES["e2"]
    }
    return len(hidden.lambda_set), verdicts, hvw.equivalent_empirical(model, hidden).holds


def check_symmetric(hvw, model):
    exchangeable = hvw.check_exchangeability(model).holds
    hvw.check_non_contextuality(model)
    return exchangeable


def full_correct(result, lcm: int) -> bool:
    """Criterion-5 guarantees, the implications, equivalence, round trip."""
    completions, round_trip = result
    if not round_trip or completions["e2"][0] != lcm:
        return False
    for method, (_, verdicts, equivalent) in completions.items():
        if not equivalent or not implications_hold(verdicts):
            return False
        if not all(verdicts[code] for code in GUARANTEES[method]):
            return False
    return True


def e2_correct(result, lcm: int) -> bool:
    size, verdicts, equivalent = result
    return size == lcm and equivalent and all(verdicts.values())


def symmetric_correct(result, lcm: int) -> bool:
    return result


class Corpus(Workload):
    """One operation is one model. A round holds CORPUS_SWEEPS sweeps, each
    one random model of every shape in CORPUS_SHAPES through
    `complete_and_check`, then the e2 completion of one model per E2_SHAPES
    shape and the exchangeability check of one model per SYMMETRIC_SHAPES
    shape. The costs of neighbouring shapes overlap, so each percentile falls
    where many samples lie on every seed."""

    name = "corpus"
    why = "completions and property checks on seeded random and symmetric models: properties, constructions, models, modelio"
    trace_rounds = 4

    def generate(self, hvw, seed, workdir):
        base = SEED_STRIDE * seed
        pool = []
        for r in range(CORPUS_ROUNDS):
            items = []
            for i in range(CORPUS_SWEEPS):
                s = base + r * CORPUS_SWEEPS + i
                for shape in CORPUS_SHAPES:
                    model = hvw.generate_random_model(s, hvw.grid_sites(*shape))
                    items.append((f"full{shape}", complete_and_check, full_correct, model))
            for shape in E2_SHAPES:
                model = hvw.generate_random_model(base + r, hvw.grid_sites(*shape))
                items.append((f"e2{shape}", complete_e2, e2_correct, model))
            for shape in SYMMETRIC_SHAPES:
                model = symmetric_model(hvw, base + r, shape)
                items.append((f"symmetric{shape}", check_symmetric, symmetric_correct, model))
            pool.append(items)
        return pool

    def rounds(self, hvw, inputs, workdir):
        return [
            [
                Op(
                    label,
                    lambda model=model: (hvw, fresh(hvw, model)),
                    work,
                    lambda result, correct=correct, lcm=conditional_lcm(model): correct(result, lcm),
                )
                for label, work, correct, model in items
            ]
            for items in inputs
        ]


# ---------------------------------------------------------------------------
# cli


def run_cli(hvw, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hvw.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class Cli(Workload):
    """A round runs every command once in each format. The commands that read
    model files use one of CLI_MODEL_SETS seeded sets of files per round, so
    that the median covers several models; the rest (canon, nogo) do the same
    work every round."""

    name = "cli"
    why = "README commands through hvw.cli.main in process: parsing and writing set the median, nogo and classify the tail"
    # 12 rounds give every subcommand the 20 samples its median needs.
    trace_rounds = 12

    def generate(self, hvw, seed, workdir):
        sets = []
        for k in range(CLI_MODEL_SETS):
            base = SEED_STRIDE * seed + 10 * k
            bell_shape = hvw.grid_sites(2, 3, 2)
            small = hvw.grid_sites(2, 2, 2)
            m1 = hvw.generate_random_model(base, bell_shape)
            models = {
                "m1.em": m1,
                "m1b.em": hvw.generate_random_model(base + 1, bell_shape),
                "m1-e2.hvm": hvw.construct_e2(m1),
                "m2.em": hvw.generate_random_model(base + 2, small),
                "h1.hvm": hvw.generate_random_model(base + 3, small, lambda_size=2),
            }
            for name, model in models.items():
                hvw.save_model(model, os.path.join(workdir, f"{k}-{name}"))
            sets.append((base + 7, models))
        return sets

    def rounds(self, hvw, inputs, workdir):
        ops_by_argv: dict[tuple[str, ...], Op] = {}
        pool = []
        for k, (random_seed, models) in enumerate(inputs):
            ops = []
            for fmt in ("text", "json"):
                for argv, code, stdout in self._commands(hvw, workdir, k, random_seed, models):
                    argv = argv + ["--format", fmt]
                    if tuple(argv) not in ops_by_argv:
                        ops_by_argv[tuple(argv)] = self._op(hvw, argv, code, stdout)
                    ops.append(ops_by_argv[tuple(argv)])
            pool.append(ops)
        return pool

    @staticmethod
    def _commands(hvw, workdir, k, random_seed, models):
        """(argv without --format, expected exit code, expected stdout or None)."""
        path = lambda name: os.path.join(workdir, f"{k}-{name}")
        expect_check = lambda name, prop: 0 if hvw.check_property(models[name], prop).holds else 1
        expect_equiv = lambda a, b: 0 if hvw.equivalent_models(models[a], models[b]).holds else 1
        serialized_random = hvw.serialize_model(
            hvw.generate_random_model(random_seed, hvw.grid_sites(2, 3, 2), lambda_size=2)
        )
        return [
            (["canon", "bell", "--out", os.path.join(workdir, "out-bell.em")], 0, ""),
            (["canon", "ks"], 0, hvw.serialize_model(hvw.ks_model())),
            (["check", path("m1.em"), "--property", "non-contextuality"], expect_check("m1.em", "non-contextuality"), None),
            (["check", path("h1.hvm"), "--property", "outcome-independence"], expect_check("h1.hvm", "outcome-independence"), None),
            (["check", path("m1-e2.hvm"), "--property", "lambda-independence"], 0, None),
            (["construct", path("m1.em"), "--method", "e1"], 0, None),
            (["construct", path("m1.em"), "--method", "e2", "--out", path("out-m1-e2.hvm")], 0, None),
            (["construct", path("m2.em"), "--method", "sv"], 0, None),
            (["equiv", path("m1.em"), path("m1-e2.hvm")], 0, None),
            (["equiv", path("m1.em"), path("m1b.em")], expect_equiv("m1.em", "m1b.em"), None),
            (["nogo", "epr"], 1, None),
            (["nogo", "bell"], 1, None),
            (["nogo", "ks"], 1, None),
            (["classify", "--sample", path("m1.em")], 0, None),
            (
                ["random", "--seed", str(random_seed), "--sites", "2", "--measurements", "3",
                 "--outcomes", "2", "--hidden", "2"],
                0,
                serialized_random,
            ),
        ]

    @staticmethod
    def _op(hvw, argv, code, stdout) -> Op:
        """Run the command once for its golden output; the operation must
        reproduce that output byte for byte."""
        golden = run_cli(hvw, argv)
        valid = golden[0] == code and golden[2] == "" and stdout in (None, golden[1])
        return Op(
            argv[0],
            lambda: (hvw, argv),
            run_cli,
            lambda result: valid and result == golden,
        )


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Polytope(), Corpus(), Cli())}
