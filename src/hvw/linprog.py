"""Exact feasibility of equality systems with nonnegative variables.

Decides whether A x = b has a solution x >= 0 over the rationals, by a
phase-one simplex with Bland's anti-cycling rule. Infeasible systems come
with a Farkas certificate y (y.A >= 0 componentwise while y.b < 0), and
`verify_farkas` / `verify_solution` recheck either answer by direct
arithmetic, independent of the solver's internals. Every entry they take,
of A, b, x or y, is an int, a `Fraction`, a string `codec.read_rational`
reads, or a finite float, which counts at its exact binary value.

Every value stays an exact rational, but the tableau holds no `Fraction`:
each row, the cost row included, is a list of `int` numerators over one
positive `int` denominator, as in Bareiss's fraction-free elimination
(Math. Comp. 22, 1968) but with each row kept reduced by its gcd. A pivot
scales the pivot row to a 1 in the pivot column, so that row is p over a
with p[q] = a, and turns every other row u over d whose entry f = u[q] is
nonzero into (a u - f p) over d a, again divided by its gcd. Only the
nonzero cells of the pivot row need the subtraction; when a = 1 the other
cells stay as they are. The ratio test compares rhs_i c_k with rhs_k c_i, in
which the row denominators cancel.

Since every denominator is positive, each sign and each comparison that
Bland's rule reads (the first negative reduced cost, the least ratio, the
lowest basic variable on a tie) comes out as it would in `Fraction`
arithmetic. So the pivot sequence is that of a `Fraction` tableau, and the x
or y built from the final rows, the only `Fraction`s the solver makes, is the
same to the last bit.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .codec import read_rational
from .errors import InputError, show_value


def _exact(value: object, where: str) -> Fraction | int:
    """An entry as an exact rational: a float is taken at its exact binary
    value, and everything else goes through the one reader, `read_rational`."""
    if type(value) is not float:
        return read_rational(value, where)
    try:
        return Fraction(value)
    except (ValueError, OverflowError):  # nan or an infinity
        raise InputError(f"{where} is not a finite rational: {value!r}") from None


# Entry types taken as they are; anything else goes through _exact.
_EXACT_TYPES = frozenset((Fraction, int))
_DENOMINATOR = operator.attrgetter("denominator")


def _listed(value: object, what: str) -> Sequence:
    """`value` itself if it is a list or tuple, else an `InputError` naming
    `what`. A string would otherwise read as its characters, one entry each."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} is not a list or tuple of numbers: {show_value(value)}")
    return value


def _checked_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[list[Fraction | int]], list[Fraction | int]]:
    _listed(rhs, "the right-hand side")
    if len(rows) != len(rhs):
        raise InputError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    matrix = []
    for i, row in enumerate(rows):
        _listed(row, f"row {i}")
        if not _EXACT_TYPES.issuperset(map(type, row)):
            row = [v if type(v) in _EXACT_TYPES else _exact(v, f"row {i}, column {j}") for j, v in enumerate(row)]
        matrix.append(row)
    width = {len(row) for row in matrix}
    if len(width) > 1:
        raise InputError(f"rows have inconsistent lengths: {sorted(width)}")
    b = [v if type(v) in _EXACT_TYPES else _exact(v, f"right-hand side {i}") for i, v in enumerate(rhs)]
    return matrix, b


def feasible_point(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Solve A x = b, x >= 0 exactly.

    Returns (x, None) with a nonnegative rational solution when the system is
    feasible, else (None, y) with a Farkas certificate of infeasibility.
    """
    matrix, b = _checked_system(rows, rhs)
    m = len(matrix)
    if m == 0:
        return [], None
    n = len(matrix[0])

    # Phase-one tableau: structural columns, artificial columns, rhs, each row
    # scaled by the lcm of its denominators. Rows with negative rhs are negated
    # first (sign unwound in the certificate).
    flip = [-1 if value < 0 else 1 for value in b]
    tableau: list[list[int]] = []
    den: list[int] = []
    for i, row in enumerate(matrix):
        d = math.lcm(b[i].denominator, *map(_DENOMINATOR, row))
        scale = flip[i] * d
        nums = [v.numerator * (scale // v.denominator) for v in row]
        nums += [0] * (m + 1)
        nums[n + i] = d
        nums[-1] = b[i].numerator * (scale // b[i].denominator)
        tableau.append(nums)
        den.append(d)
    basis = [n + i for i in range(m)]
    # Reduced costs for min sum(artificials), kept as row m of the tableau;
    # last cell is minus the objective.
    common = math.lcm(*den)
    scaled = [row if d == common else [v * (common // d) for v in row] for row, d in zip(tableau, den)]
    cost = [-sum(column) for column in zip(*scaled)]
    cost[n : n + m] = [0] * m
    tableau.append(cost)
    den.append(common)
    _reduce(tableau, den, m)

    total_cols = n + m
    while True:
        pivot_col = next((j for j in range(total_cols) if cost[j] < 0), None)
        if pivot_col is None:
            break
        # Ratio rhs_i / coeff_i over the rows with coeff_i > 0; both share the
        # row's denominator, so cross-multiplied numerators compare the ratios.
        pivot_row = -1
        best_rhs = best_coeff = 0
        for i in range(m):
            row = tableau[i]
            coeff = row[pivot_col]
            if coeff > 0:
                lhs, rhs_i = row[-1] * best_coeff, best_rhs * coeff
                if pivot_row < 0 or lhs < rhs_i or (lhs == rhs_i and basis[i] < basis[pivot_row]):
                    pivot_row, best_rhs, best_coeff = i, row[-1], coeff
        if pivot_row < 0:
            raise AssertionError("phase-one objective cannot be unbounded")
        _pivot(tableau, den, pivot_row, pivot_col)
        basis[pivot_row] = pivot_col

    if cost[-1] == 0:
        x = [Fraction(0)] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = Fraction(tableau[i][-1], den[i])
        return x, None

    # Optimal dual prices off the artificial columns, signs restored per row.
    y = [Fraction((cost[n + i] - den[m]) * flip[i], den[m]) for i in range(m)]
    return None, y


def _reduce(tableau: list[list[int]], den: list[int], i: int) -> None:
    """Divide row i and its denominator by their greatest common divisor."""
    if den[i] == 1:
        return
    row = tableau[i]
    g = math.gcd(den[i], *row)
    if g > 1:
        row[:] = [v // g for v in row]
        den[i] //= g


def _pivot(tableau: list[list[int]], den: list[int], pivot_row: int, pivot_col: int) -> None:
    """Scale the pivot row to a 1 in the pivot column and clear that column
    from every other row, the cost row included.

    With the pivot row reduced to numerators p over denominator a (so p[q] =
    a), row r with numerators u over d and factor f = u[q] becomes
    (a u - f p) / (d a), which is u - f p over d when a = 1.
    """
    row = tableau[pivot_row]
    den[pivot_row] = row[pivot_col]
    _reduce(tableau, den, pivot_row)
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
        _reduce(tableau, den, i)


def verify_solution(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], x: Sequence[Fraction]
) -> bool:
    """Directly recheck that x >= 0 and A x = b, term by term."""
    matrix, b = _checked_system(rows, rhs)
    x = _listed(x, "the solution")
    if matrix and len(x) != len(matrix[0]):
        return False
    x = [v if type(v) in _EXACT_TYPES else _exact(v, f"solution entry {j}") for j, v in enumerate(x)]
    if any(v < 0 for v in x):
        return False
    support = [(j, v) for j, v in enumerate(x) if v]
    for row, target in zip(matrix, b):
        if sum(row[j] * v for j, v in support if row[j]) != target:
            return False
    return True


def verify_farkas(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], y: Sequence[Fraction]
) -> bool:
    """Directly recheck a Farkas certificate: y.A >= 0 everywhere, y.b < 0.

    Any such y proves A x = b, x >= 0 unsolvable: it would force
    0 <= (y.A).x = y.b < 0.
    """
    matrix, b = _checked_system(rows, rhs)
    y = _listed(y, "the certificate")
    if len(y) != len(matrix):
        return False
    y = [v if type(v) in _EXACT_TYPES else _exact(v, f"certificate entry {i}") for i, v in enumerate(y)]
    # Every product y_i a_ij and y_i b_i times one positive common factor L is
    # an integer with the sign of the rational product. L is one factor for
    # all rows: scaling row i by a factor of its own would change y.A.
    used = []
    for yi, row, bi in zip(y, matrix, b):
        if yi:
            used.append((yi, row, bi, math.lcm(bi.denominator, *[a.denominator for a in row])))
    common = math.lcm(*[yi.denominator * d for yi, _, _, d in used])
    n = len(matrix[0]) if matrix else 0
    combination = [0] * n
    total = 0
    for yi, row, bi, d in used:
        s = yi.numerator * (common // (yi.denominator * d))
        for j, a in enumerate(row):
            if a:
                combination[j] += s * a.numerator * (d // a.denominator)
        total += s * bi.numerator * (d // bi.denominator)
    return all(v >= 0 for v in combination) and total < 0
