"""Exact rational feasibility solver, cross-checked by direct arithmetic."""

from __future__ import annotations

import itertools
import math
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import fr, full_membership_system, half_noise, kept_membership_system

import hvw.linprog
import hvw.local
from hvw import (
    InputError,
    bell_model,
    feasible_point,
    generate_random_model,
    grid_sites,
    local_polytope_feasibility,
    project_to_empirical,
    random_strategy_mixture,
    verify_farkas,
    verify_solution,
)

F = Fraction


def rows_of(*rows):
    return [[F(v) for v in row] for row in rows]


def dense_feasible_point(rows, rhs):
    """Reference phase-one simplex: the dense tableau update, row by row.

    The solver under test must take the same Bland pivots and so return
    exactly the same x or y.
    """
    matrix = [[F(v) for v in row] for row in rows]
    b = [F(v) for v in rhs]
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    if m == 0:
        return [], None
    flip = [-1 if value < 0 else 1 for value in b]
    tableau = []
    for i in range(m):
        row = [flip[i] * v for v in matrix[i]]
        row.extend(F(1) if j == i else F(0) for j in range(m))
        row.append(flip[i] * b[i])
        tableau.append(row)
    basis = [n + i for i in range(m)]
    cost = [-sum(tableau[i][j] for i in range(m)) for j in range(n)]
    cost.extend(F(0) for _ in range(m))
    cost.append(-sum(tableau[i][-1] for i in range(m)))
    while True:
        col = next((j for j in range(n + m) if cost[j] < 0), None)
        if col is None:
            break
        pivot_row = -1
        best = None
        for i in range(m):
            coeff = tableau[i][col]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        assert pivot_row >= 0
        row = [v / tableau[pivot_row][col] for v in tableau[pivot_row]]
        tableau[pivot_row] = row
        for i, other in enumerate(tableau):
            if i != pivot_row and other[col]:
                tableau[i] = [a - other[col] * c for a, c in zip(other, row)]
        cost = [a - cost[col] * c for a, c in zip(cost, row)]
        basis[pivot_row] = col
    if cost[-1] == 0:
        x = [F(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tableau[i][-1]
        return x, None
    return None, [(cost[n + i] - 1) * flip[i] for i in range(m)]


def dense_farkas_holds(rows, rhs, y):
    """Reference recheck in Fraction arithmetic: y.A >= 0 and y.b < 0."""
    y = [F(v) for v in y]
    columns = zip(*[[F(v) for v in row] for row in rows]) if rows else ()
    if any(sum((yi * a for yi, a in zip(y, column)), F(0)) < 0 for column in columns):
        return False
    return sum((yi * F(bi) for yi, bi in zip(y, rhs)), F(0)) < 0


def test_two_by_two_feasible():
    rows = rows_of([1, 1], [1, -1])
    rhs = [F(3), F(1)]
    x, y = feasible_point(rows, rhs)
    assert y is None
    assert x == [F(2), F(1)]
    assert verify_solution(rows, rhs, x)


def test_infeasible_sign_conflict():
    """x1 + x2 = -1 has no nonnegative solution."""
    rows = rows_of([1, 1])
    rhs = [F(-1)]
    x, y = feasible_point(rows, rhs)
    assert x is None
    assert verify_farkas(rows, rhs, y)


def test_infeasible_pair_of_equations():
    rows = rows_of([1, 1], [1, 1])
    rhs = [F(1), F(2)]
    x, y = feasible_point(rows, rhs)
    assert x is None
    assert verify_farkas(rows, rhs, y)


def test_zero_equals_one_is_infeasible():
    rows = rows_of([0, 0])
    rhs = [F(1)]
    x, y = feasible_point(rows, rhs)
    assert x is None
    assert verify_farkas(rows, rhs, y)


def test_zero_row_zero_rhs_is_redundant():
    rows = rows_of([1, 2], [0, 0])
    rhs = [F(4), F(0)]
    x, y = feasible_point(rows, rhs)
    assert y is None
    assert verify_solution(rows, rhs, x)


def test_negative_rhs_feasible():
    rows = rows_of([-1, 0], [0, 1])
    rhs = [F(-2), F(5)]
    x, y = feasible_point(rows, rhs)
    assert y is None
    assert x == [F(2), F(5)]
    assert verify_solution(rows, rhs, x)


def test_empty_system_is_trivially_feasible():
    x, y = feasible_point([], [])
    assert x == [] and y is None


@pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf"), None, "abc", "1/0", object(), "-1/-2", True, Decimal("0.5")]
)
def test_bad_entries_raise_input_error(bad):
    with pytest.raises(InputError, match=r"row 1, column 0 is not a finite rational"):
        feasible_point([[F(1), F(0)], [bad, F(1)]], [F(1), F(1)])
    with pytest.raises(InputError, match=r"right-hand side 1 is not a finite rational"):
        feasible_point(rows_of([1], [1]), [F(1), bad])
    with pytest.raises(InputError):
        verify_solution([[bad]], [F(1)], [F(1)])
    with pytest.raises(InputError):
        verify_farkas([[F(1)]], [bad], [F(1)])
    with pytest.raises(InputError, match=r"certificate entry 1 is not a finite rational"):
        verify_farkas([[F(1)], [F(1)]], [F(1), F(2)], [F(1), bad])
    with pytest.raises(InputError, match=r"solution entry 1 is not a finite rational"):
        verify_solution([[F(1), F(0)]], [F(1)], [F(1), bad])


def test_huge_exponents_are_refused_before_the_power_is_built():
    started = time.monotonic()
    with pytest.raises(InputError, match=r"row 0, column 0: exponent in '1e999999999'"):
        feasible_point([["1e999999999"]], [1])
    with pytest.raises(InputError, match=r"right-hand side 0: exponent"):
        feasible_point([[1]], ["-1E+1_000_000"])
    with pytest.raises(InputError, match=r"certificate entry 0: exponent"):
        verify_farkas([[1]], [1], ["1e999999999"])
    with pytest.raises(InputError, match=r"solution entry 0: exponent"):
        verify_solution([[1]], [1], ["1e-999999999"])
    assert time.monotonic() - started < 0.5


def test_solution_entries_are_read_like_row_entries():
    assert verify_solution([[F(1)]], [F(1)], ["1"])
    assert verify_solution([[2, 2]], ["1"], [0.25, "1/4"])
    # 0.1 + 0.9 rounds to 1.0 in float arithmetic, but not in exact arithmetic.
    assert 0.1 + 0.9 == 1
    assert not verify_solution([[1, 1]], [1], [0.1, 0.9])


@pytest.mark.parametrize("bad_row", ["12", 5, None, {0: F(1)}])
def test_bad_rows_raise_input_error(bad_row):
    # A string row would otherwise read as its characters: "12" as [1, 2].
    with pytest.raises(InputError, match=r"^row 0 is not a list or tuple of numbers: "):
        feasible_point([bad_row], [3])
    with pytest.raises(InputError, match=r"^row 1 is not a list or tuple"):
        verify_solution([[F(1)], bad_row], [F(1), F(3)], [F(1)])
    with pytest.raises(InputError, match=r"^row 0 is not a list or tuple"):
        verify_farkas([bad_row], [F(3)], [F(-1)])


@pytest.mark.parametrize("bad", [None, 5, "12", pytest.param(10**5000, id="int-of-16610-bits")])
def test_solutions_and_certificates_must_be_lists(bad):
    # A string would otherwise read as its characters: "12" as x = [1, 2].
    with pytest.raises(InputError, match=r"^the solution is not a list or tuple of numbers: "):
        verify_solution([[F(1), F(1)]], [F(3)], bad)
    with pytest.raises(InputError, match=r"^the certificate is not a list or tuple of numbers: "):
        verify_farkas([[F(1)], [F(-1)]], [F(1), F(1)], bad)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: feasible_point(5, [1]), id="feasible_point-int"),
        pytest.param(lambda: feasible_point(None, []), id="feasible_point-None"),
        pytest.param(lambda: verify_solution(5, [1], [1]), id="verify_solution-int"),
        # A dict would otherwise read as its keys: {0: [1]} as the row 0.
        pytest.param(lambda: verify_farkas({0: [1]}, [1], [1]), id="verify_farkas-dict"),
    ],
)
def test_non_list_matrices_raise_input_error(call):
    with pytest.raises(InputError, match=r"^the matrix is not a list or tuple of numbers: "):
        call()


def test_string_right_hand_side_raises_input_error():
    with pytest.raises(InputError, match=r"^the right-hand side is not a list or tuple"):
        feasible_point([[F(1)], [F(1)]], "12")


def test_list_and_tuple_rows_are_accepted():
    assert feasible_point(((1, 1), [2, 0]), (2, 2)) == ([F(1), F(1)], None)


def test_floats_and_fraction_strings_are_accepted():
    x, y = feasible_point([[0.5, 0.25]], ["1/2"])
    assert y is None
    assert x == [F(1), F(0)]


def test_inputs_are_not_modified():
    rows = rows_of([-1, 2, 0], [0, 1, 1])
    rhs = [F(-1), F(3)]
    snapshot = ([list(row) for row in rows], list(rhs))
    feasible_point(rows, rhs)
    assert (rows, rhs) == snapshot


def test_shape_validation():
    with pytest.raises(InputError):
        feasible_point(rows_of([1, 2]), [F(1), F(2)])
    with pytest.raises(InputError):
        feasible_point(rows_of([1, 2], [1]), [F(1), F(2)])


def test_exact_fractions_survive():
    rows = [[fr("1/3"), fr("1/7")], [fr("2/3"), fr("-1/7")]]
    rhs = [fr("10/21"), fr("1/3")]
    x, y = feasible_point(rows, rhs)
    assert y is None
    assert verify_solution(rows, rhs, x)
    assert sum(c * v for c, v in zip(rows[0], x)) == fr("10/21")


def test_big_denominators_stay_exact():
    rows = [[F(1, 10**12), F(1)], [F(1), F(0)]]
    rhs = [F(1), F(10**12)]
    x, y = feasible_point(rows, rhs)
    assert y is None
    assert x[0] == F(10**12)
    assert x[1] == F(0)
    assert verify_solution(rows, rhs, x)


def test_degenerate_system_terminates():
    """Many tied ratios exercise the anti-cycling tie-break."""
    rows = rows_of(
        [1, 1, 1, 1, 0],
        [1, 1, 0, 0, 0],
        [0, 0, 1, 1, 0],
        [1, 0, 1, 0, 1],
    )
    rhs = [F(1), fr("1/2"), fr("1/2"), fr("1/2")]
    x, y = feasible_point(rows, rhs)
    assert y is None
    assert verify_solution(rows, rhs, x)


def planted_systems():
    """Feasible by construction: plant x0 >= 0 and ask for b = A x0."""
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        planted = [F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n)]
        yield rows, [sum((c * v for c, v in zip(row, planted)), F(0)) for row in rows]


def free_systems():
    """Small random systems of either verdict."""
    rng = random.Random(11)
    for _ in range(40):
        m = rng.randint(1, 4)
        n = rng.randint(1, 5)
        rows = [[F(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        yield rows, [F(rng.randint(-2, 2)) for _ in range(m)]


def _wide_fraction(rng, bits):
    """A random rational of either sign over a denominator of `bits` bits,
    before reduction."""
    return F(rng.randint(-(2**bits), 2**bits), rng.randint(2 ** (bits - 1), 2**bits))


def fractional_systems():
    """Seeded systems with fractional entries and right-hand sides of either
    sign, some with denominators of 50 to 64 bits, so that every row carries
    its own denominator and the cost row a common multiple of them."""
    rng = random.Random(23)
    for k in range(60):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        bits = (4, 50, 64)[k % 3]
        rows = [
            [F(0) if rng.random() < 0.3 else _wide_fraction(rng, bits) for _ in range(n)]
            for _ in range(m)
        ]
        if k % 2:
            # Planted, so that about half the systems are feasible.
            planted = [F(0) if rng.random() < 0.4 else abs(_wide_fraction(rng, bits)) for _ in range(n)]
            rhs = [sum((c * v for c, v in zip(row, planted)), F(0)) for row in rows]
        else:
            rhs = [_wide_fraction(rng, bits) for _ in range(m)]
        yield rows, rhs


def test_fractional_systems_match_dense_reference():
    verdicts = set()
    big_denominators = 0
    for rows, rhs in fractional_systems():
        answer = feasible_point(rows, rhs)
        assert answer == dense_feasible_point(rows, rhs), (rows, rhs)
        x, y = answer
        verdicts.add(x is not None)
        big_denominators += max(v.denominator for v in rhs).bit_length() >= 50
        if x is not None:
            assert verify_solution(rows, rhs, x)
        else:
            assert verify_farkas(rows, rhs, y) and dense_farkas_holds(rows, rhs, y)
    assert verdicts == {True, False}
    assert big_denominators >= 20
    assert any(v < 0 for _, rhs in fractional_systems() for v in rhs)


def test_verify_farkas_agrees_with_the_dense_recheck():
    """On solver certificates, perturbed certificates and random vectors, the
    integer recheck and the Fraction reference give the same verdict."""
    rng = random.Random(5)
    agreed = {True: 0, False: 0}
    systems = itertools.chain(free_systems(), fractional_systems())
    for rows, rhs in systems:
        _, certificate = feasible_point(rows, rhs)
        candidates = [[_wide_fraction(rng, rng.choice((3, 52))) for _ in rows] for _ in range(3)]
        if certificate is not None:
            candidates.append(certificate)
            for i in range(len(certificate)):
                for delta in (F(1, 3), -F(1, 2**55 + 1)):
                    nudged = list(certificate)
                    nudged[i] += delta
                    candidates.append(nudged)
            candidates.append([2 * v for v in certificate])
            candidates.append([-v for v in certificate])
        for y in candidates:
            verdict = verify_farkas(rows, rhs, y)
            assert verdict == dense_farkas_holds(rows, rhs, y), (rows, rhs, y)
            agreed[verdict] += 1
    assert agreed[True] > 20 and agreed[False] > 20


def dense_solution_holds(rows, rhs, x):
    """Reference recheck in Fraction arithmetic: x >= 0 and A x = b."""
    x = [F(v) for v in x]
    if any(v < 0 for v in x):
        return False
    return all(sum((F(a) * v for a, v in zip(row, x)), F(0)) == F(bi) for row, bi in zip(rows, rhs))


def mixed_systems():
    """Seeded systems whose entries mix ints, Fractions, "p/q" strings and
    finite floats, with right-hand sides of either sign and some zero rows.
    Every third system has rows of ints only, over fractional right-hand
    sides."""
    rng = random.Random(31)

    def entry(kinds):
        kind = rng.choice(kinds)
        if kind == "int":
            return rng.randint(-3, 3)
        if kind == "fraction":
            return F(rng.randint(-9, 9), rng.randint(1, 12))
        if kind == "string":
            return f"{rng.randint(-9, 9)}/{rng.randint(1, 16)}"
        return rng.choice((0.1, -0.3, 0.75, 2.5, 0.0))

    for k in range(90):
        m = rng.randint(1, 5)
        n = rng.randint(1, 6)
        kinds = ("int",) if k % 3 == 0 else ("int", "fraction", "string", "float")
        rows = [[entry(kinds) for _ in range(n)] for _ in range(m)]
        if k % 4 == 0:
            rows[rng.randrange(m)] = [0] * n
        if k % 2:
            # Planted, so that about half the systems are feasible.
            planted = [F(rng.randint(0, 4), rng.randint(1, 4)) for _ in range(n)]
            rhs = [sum((F(a) * v for a, v in zip(row, planted)), F(0)) for row in rows]
            rhs = [str(v) if i % 2 else v for i, v in enumerate(rhs)]
        else:
            rhs = [entry(("int", "fraction", "string", "float")) for _ in range(m)]
        yield rows, rhs


def test_rechecks_agree_with_the_fraction_references():
    rng = random.Random(13)
    verdicts = set()
    for rows, rhs in mixed_systems():
        x, y = answer = feasible_point(rows, rhs)
        assert answer == dense_feasible_point(rows, rhs), (rows, rhs)
        verdicts.add(x is not None)
        if x is not None:
            assert verify_solution(rows, rhs, x) and dense_solution_holds(rows, rhs, x)
            # Moving x along a nonzero column moves A x off b.
            j = next((j for j in range(len(x)) if any(F(row[j]) for row in rows)), None)
            if j is not None:
                moved = list(x)
                moved[j] += F(1, 7)
                assert not verify_solution(rows, rhs, moved)
                assert not dense_solution_holds(rows, rhs, moved)
        else:
            assert verify_farkas(rows, rhs, y) and dense_farkas_holds(rows, rhs, y)
            # -y has y.b > 0.
            assert not verify_farkas(rows, rhs, [-v for v in y])
            assert verify_farkas(rows, rhs, [2 * v for v in y])
        n = len(rows[0])
        for candidate in ([_wide_fraction(rng, 5) for _ in range(n)], [abs(_wide_fraction(rng, 3)) for _ in range(n)]):
            assert verify_solution(rows, rhs, candidate) == dense_solution_holds(rows, rhs, candidate)
        for candidate in ([_wide_fraction(rng, 5) for _ in rows], [_wide_fraction(rng, 60) for _ in rows]):
            assert verify_farkas(rows, rhs, candidate) == dense_farkas_holds(rows, rhs, candidate)
    assert verdicts == {True, False}


def test_random_systems_round_trip():
    for rows, rhs in planted_systems():
        x, y = feasible_point(rows, rhs)
        assert y is None, (rows, rhs)
        assert verify_solution(rows, rhs, x)


def test_matches_dense_reference_on_random_systems():
    for rows, rhs in itertools.chain(planted_systems(), free_systems()):
        assert feasible_point(rows, rhs) == dense_feasible_point(rows, rhs), (rows, rhs)


def _membership_models():
    """Bell and seeded tables and strategy-mixture controls on two shapes."""
    models = [bell_model()]
    for shape in ((2, 3, 2), (3, 2, 2)):
        sites = grid_sites(*shape)
        for seed in range(3):
            models.append(project_to_empirical(random_strategy_mixture(seed, sites)))
            models.append(generate_random_model(seed, sites))
    return models


def test_matches_dense_reference_on_membership_systems():
    """Same x and y as the dense reference on the full, unpresolved systems
    that the deterministic-mixture membership test builds, of both verdicts."""
    solved = []
    for model in _membership_models():
        rows, rhs = full_membership_system(model)
        answer = feasible_point(rows, rhs)
        assert answer == dense_feasible_point(rows, rhs)
        solved.append(answer[0] is not None)
    assert any(solved) and not all(solved)


def counted_pivots(monkeypatch) -> list[int]:
    """A one-item list holding the number of Bland pivots taken from here on."""
    counted = [0]
    pivot = hvw.linprog._pivot

    def counting(*args):
        counted[0] += 1
        pivot(*args)

    monkeypatch.setattr(hvw.linprog, "_pivot", counting)
    return counted


@pytest.mark.parametrize("shape, pivots", [((2, 3, 2), 6), ((2, 4, 2), 9), ((3, 3, 2), 0)])
def test_roadmap_controls_keep_their_pivot_counts(monkeypatch, shape, pivots):
    """The seed-0 strategy-mixture controls take as many Bland pivots as
    recorded, on the system that the presolve leaves (32, 123 and 127 on the
    full systems). The (3,3,2) control takes none: its rows force every
    kept weight."""
    counted = counted_pivots(monkeypatch)
    result = local_polytope_feasibility(project_to_empirical(random_strategy_mixture(0, grid_sites(*shape))))
    assert result.feasible
    assert counted == [pivots]


def test_the_peeled_control_still_takes_five_pivots_in_the_simplex(monkeypatch):
    """The simplex on the kept system of the (3,3,2) seed-0 control, the
    system it was handed before peeling, still takes 5 pivots, and its x,
    lifted by zeros, is the mixture that the peel returns."""
    control = project_to_empirical(random_strategy_mixture(0, grid_sites(3, 3, 2)))
    result = local_polytope_feasibility(control)
    kept, rows, rhs = kept_membership_system(control)
    counted = counted_pivots(monkeypatch)
    x, _ = feasible_point(rows, rhs)
    assert counted == [5]
    assert [(j, v) for j, v in zip(kept, x) if v] == list(result.strategy_weights)


def recorded_pivots(monkeypatch) -> list[tuple[int, int, int]]:
    """A list that gets the (pivot_row, pivot_col, a) of every Bland pivot
    taken from here on, a the pivot row's denominator after the pivot: 1
    for a unit pivot."""
    pivots = []
    pivot = hvw.linprog._pivot

    def recording(tableau, den, pivot_row, pivot_col):
        pivot(tableau, den, pivot_row, pivot_col)
        pivots.append((pivot_row, pivot_col, den[pivot_row]))

    monkeypatch.setattr(hvw.linprog, "_pivot", recording)
    return pivots


def assert_scaled_b_keeps_the_run(pivots, rows, ints, scale) -> tuple[int, int, bool]:
    """`feasible_point(rows, ints)` takes the pivots that it takes on b =
    ints / scale, returns the same y and an x `scale` times as large; the
    number of pivots, how many of them were unit pivots on b = ints, and
    the verdict."""
    pivots.clear()
    x, y = feasible_point(rows, [Fraction(v, scale) for v in ints])
    expected = [pivot[:2] for pivot in pivots]
    pivots.clear()
    scaled_x, scaled_y = feasible_point(rows, ints)
    assert [pivot[:2] for pivot in pivots] == expected
    assert scaled_y == y
    if x is None:
        assert scaled_x is None
    else:
        assert scaled_x == [scale * v for v in x]
    return len(expected), sum(a == 1 for _, _, a in pivots), x is not None


# name: (the table, its pivots, how many are unit pivots on an int b, the verdict)
SCALED_SYSTEMS = {
    "bell": (bell_model, 7, 7, False),
    "(2,3,2) control": (lambda: project_to_empirical(random_strategy_mixture(0, grid_sites(2, 3, 2))), 6, 6, True),
    "(2,4,2) control": (lambda: project_to_empirical(random_strategy_mixture(0, grid_sites(2, 4, 2))), 9, 9, True),
    "half-noise (2,3,2)": (
        lambda: half_noise(project_to_empirical(random_strategy_mixture(0, grid_sites(2, 3, 2)))),
        67,
        48,
        True,
    ),
}


@pytest.mark.parametrize("name", SCALED_SYSTEMS)
def test_an_int_b_keeps_the_pivots_and_y_and_scales_x(monkeypatch, name):
    """On the kept membership systems, b as ints over the lcm L of its
    denominators takes the same Bland pivots as b itself, returns the same
    y, and an x L times as large. Every row then starts over denominator 1,
    so the 0/1 tables of the sparse controls and Bell pivot on units alone."""
    build, *expected = SCALED_SYSTEMS[name]
    _, rows, rhs = kept_membership_system(build())
    scale = math.lcm(*(v.denominator for v in rhs))
    ints = [int(v * scale) for v in rhs]
    pivots = recorded_pivots(monkeypatch)
    assert assert_scaled_b_keeps_the_run(pivots, rows, ints, scale) == tuple(expected)


def test_the_sweep_systems_keep_their_run_with_an_int_b(monkeypatch):
    """The 322 systems that the mixtures of `test_parity`'s 1,206-model
    sweep hand the simplex (its uniform tables are peeled): each, with b the
    ints it is handed, keeps the run of the same system with b divided by
    the normalization row's b, 2,262 pivots in all."""
    systems = []
    solve = hvw.local.feasible_point

    def recording(rows, rhs):
        systems.append((rows, rhs))
        return solve(rows, rhs)

    monkeypatch.setattr(hvw.local, "feasible_point", recording)
    shapes = ((2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 4, 2), (3, 3, 2), (2, 2, 3), (1, 3, 3), (4, 2, 2))
    for shape in shapes:
        for seed in range(150):
            local_polytope_feasibility(project_to_empirical(random_strategy_mixture(seed, grid_sites(*shape))))
    assert len(systems) == 322
    pivots = recorded_pivots(monkeypatch)
    total = 0
    for rows, ints in systems:
        assert all(type(v) is int for v in ints)
        count, _, feasible = assert_scaled_b_keeps_the_run(pivots, rows, ints, ints[-1])
        assert feasible
        total += count
    assert total == 2262


def always_reduced_pivot(tableau, den, pivot_row, pivot_col):
    """The pivot as it was when every row it touched was divided by its gcd,
    unit pivots included: the reference for the values of the rows."""

    def reduce(i):
        g = math.gcd(den[i], *tableau[i])
        if g > 1:
            tableau[i][:] = [v // g for v in tableau[i]]
            den[i] //= g

    row = tableau[pivot_row]
    den[pivot_row] = row[pivot_col]
    reduce(pivot_row)
    a = den[pivot_row]
    nonzero = [(j, v) for j, v in enumerate(row) if v]
    for i, other in enumerate(tableau):
        factor = other[pivot_col]
        if not factor or i == pivot_row:
            continue
        if a != 1:
            other[:] = [a * v for v in other]
            den[i] *= a
        for j, v in nonzero:
            other[j] -= factor * v
        reduce(i)


def test_pivots_keep_the_values_of_the_always_reduced_reference(monkeypatch):
    """After every pivot, each row read as `Fraction`s equals the row that the
    always-reduced reference pivot makes from the same start; and some row is
    left with a common factor, so the unreduced path runs."""
    pivot = hvw.linprog._pivot
    started: list = []  # the solver's tableau and a reference copy, per solve
    unreduced = pivots = 0

    def compared(tableau, den, pivot_row, pivot_col):
        nonlocal unreduced, pivots
        if not started or started[0] is not tableau:
            started[:] = [tableau, [row[:] for row in tableau], den[:]]
        _, reference, reference_den = started
        always_reduced_pivot(reference, reference_den, pivot_row, pivot_col)
        pivot(tableau, den, pivot_row, pivot_col)
        pivots += 1
        for row, d, expected, e in zip(tableau, den, reference, reference_den):
            # With both denominators positive, v / d == w / e as Fractions
            # exactly when v e == w d.
            assert d > 0 and e > 0
            assert all(v * e == w * d for v, w in zip(row, expected))
            unreduced += math.gcd(d, *row) > 1

    monkeypatch.setattr(hvw.linprog, "_pivot", compared)
    for model in _membership_models():
        feasible_point(*full_membership_system(model))
    for rows, rhs in fractional_systems():
        assert feasible_point(rows, rhs) == dense_feasible_point(rows, rhs)
    assert pivots > 300
    assert unreduced > 0


def test_random_verdicts_are_always_certified():
    """Whatever the verdict, the independent recheck must accept it."""
    feasible = infeasible = 0
    for rows, rhs in free_systems():
        x, y = feasible_point(rows, rhs)
        if x is not None:
            feasible += 1
            assert verify_solution(rows, rhs, x)
        else:
            infeasible += 1
            assert verify_farkas(rows, rhs, y)
    assert feasible and infeasible


def test_verify_solution_rejects_wrong_vectors():
    rows = rows_of([1, 1])
    rhs = [F(2)]
    assert not verify_solution(rows, rhs, [F(1)])
    assert not verify_solution(rows, rhs, [F(3), F(-1)])
    assert not verify_solution(rows, rhs, [F(1), F(2)])
    assert verify_solution(rows, rhs, [F(1), F(1)])


def test_verify_farkas_rejects_wrong_vectors():
    rows = rows_of([1, 1], [1, 1])
    rhs = [F(1), F(2)]
    assert not verify_farkas(rows, rhs, [F(0)])
    assert not verify_farkas(rows, rhs, [F(0), F(0)])
    assert not verify_farkas(rows, rhs, [F(-1), F(0)])
    assert verify_farkas(rows, rhs, [F(1), F(-1)])
