"""Exact feasibility of equality systems with nonnegative variables.

Decides whether A x = b has a solution x >= 0 over the rationals, by a
phase-one simplex with Bland's anti-cycling rule. Infeasible systems come
with a Farkas certificate y (y.A >= 0 componentwise while y.b < 0), and
`verify_farkas` / `verify_solution` recheck either answer by direct
arithmetic, independent of the solver's internals. Every entry they take,
of A, b, x or y, is an int, a `Fraction`, a string `codec.read_rational`
reads, or a finite float, which counts at its exact binary value.

All three read the system the same way, once, in `_checked_system`: row i
becomes the int numerators of A_i and b_i over one positive d_i, the lcm of
their denominators. The solver fills its tableau from these ints, and the
rechecks test A x = b and the signs of y.A and y.b in ints, each scaling x
or y by one common factor. Past that reading they share nothing with the
solver. `Fraction`s remain only at the edges: entries given or read as
fractions, until they become ints; the x or y that the solver returns; and
the x or y that a recheck reads, until it is scaled to ints.

Every value stays an exact rational, but the tableau holds no `Fraction`:
each row, the cost row included, is a list of `int` numerators over one
positive `int` denominator, as in Bareiss's fraction-free elimination
(Math. Comp. 22, 1968). A pivot scales the pivot row to a 1 in the pivot
column and divides it by its gcd, so that row is p over a with p[q] = a, and
turns every other row u over d whose entry f = u[q] is nonzero into
(a u - f p) over d a. Only the nonzero cells of the pivot row need the
subtraction; when a = 1 the other cells stay as they are. Every row starts
reduced by its gcd, and is divided by its gcd again whenever its denominator
changes: as the pivot row, and as a row cleared at a pivot with a != 1. A
row cleared at a unit pivot becomes u - f p over its unchanged d, so its
denominator cannot grow, and it is left as it is: it may share a factor with
d until it is next reduced. The ratio test compares rhs_i c_k with rhs_k c_i,
in which the row denominators cancel.

Since every denominator is positive, each sign and each comparison that
Bland's rule reads (the first negative reduced cost, the least ratio, the
lowest basic variable on a tie) comes out as it would in `Fraction`
arithmetic, reduced rows or not. So the pivot sequence is that of a
`Fraction` tableau, and the x or y built from the final rows, one `Fraction`
per entry, is the same to the last bit.

Scaling b by a constant c > 0 leaves the run as it is but for x: the
reduced costs, and so the pivot columns, do not read b; every ratio scales
by c, so the ratio test picks the same rows and breaks the same ties; and
the dual prices y depend on the basis alone. x comes back scaled by c. A
caller whose b is rationals over one denominator L can thus pass the int
numerators and divide x by L: every row then starts over denominator 1,
and a 0/1 A gives unit pivots, with no row multiplied through or reduced.
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
_INT_TYPE = frozenset((int,))
_DENOMINATOR = operator.attrgetter("denominator")


def _listed(value: object, what: str) -> Sequence:
    """`value` itself if it is a list or tuple, else an `InputError` naming
    `what`. A string would otherwise read as its characters, one entry each."""
    if not isinstance(value, (list, tuple)):
        raise InputError(f"{what} is not a list or tuple of numbers: {show_value(value)}")
    return value


def _checked_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Sequence[int]], list[int], list[int]]:
    """The system read into exact integers, the one reading that the solver
    and both rechecks share: row i of A and b_i are the int numerators
    `matrix[i]` and `b[i]` over one positive denominator `den[i]`, the lcm of
    the row's denominators and b_i's. A row of ints with an int b_i is taken
    as it is, over d_i = 1; any other row is scaled by its d_i."""
    _listed(rhs, "the right-hand side")
    _listed(rows, "the matrix")
    if len(rows) != len(rhs):
        raise InputError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    matrix, b, den = [], [], []
    for i, (row, bi) in enumerate(zip(rows, rhs)):
        _listed(row, f"row {i}")
        if type(bi) not in _EXACT_TYPES:
            bi = _exact(bi, f"right-hand side {i}")
        d = 1
        types = set(map(type, row))
        if type(bi) is not int or not types <= _INT_TYPE:
            if not types <= _EXACT_TYPES:
                row = [v if type(v) in _EXACT_TYPES else _exact(v, f"row {i}, column {j}") for j, v in enumerate(row)]
            d = math.lcm(bi.denominator, *map(_DENOMINATOR, row))
            row = [v.numerator * (d // v.denominator) for v in row]
            bi = bi.numerator * (d // bi.denominator)
        matrix.append(row)
        b.append(bi)
        den.append(d)
    width = {len(row) for row in matrix}
    if len(width) > 1:
        raise InputError(f"rows have inconsistent lengths: {sorted(width)}")
    return matrix, b, den


def feasible_point(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Solve A x = b, x >= 0 exactly.

    Returns (x, None) with a nonnegative rational solution when the system is
    feasible, else (None, y) with a Farkas certificate of infeasibility.
    """
    matrix, b, den = _checked_system(rows, rhs)
    m = len(matrix)
    if m == 0:
        return [], None
    n = len(matrix[0])

    # Phase-one tableau: structural columns, artificial columns, rhs, row i
    # over its denominator den[i]. Rows with negative rhs are negated first
    # (sign unwound in the certificate).
    flip = [-1 if value < 0 else 1 for value in b]
    tableau: list[list[int]] = []
    for i, row in enumerate(matrix):
        nums = [-v for v in row] if flip[i] < 0 else list(row)
        nums += [0] * (m + 1)
        nums[n + i] = den[i]
        nums[-1] = flip[i] * b[i]
        tableau.append(nums)
    basis = [n + i for i in range(m)]
    # Reduced costs for min sum(artificials), kept as row m of the tableau
    # over the common denominator of the rows: minus the column sums of the
    # rows, each scaled to that denominator, with the artificial columns
    # cleared. The last cell is minus the objective.
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
    (a u - f p) / (d a), divided by its gcd. When a = 1 it becomes u - f p
    over the same d and is not reduced: a gcd over the whole row then rarely
    finds a factor, and the denominator does not grow.
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
        if a != 1:
            _reduce(tableau, den, i)


def verify_solution(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], x: Sequence[Fraction]
) -> bool:
    """Directly recheck that x >= 0 and A x = b, term by term."""
    matrix, b, _ = _checked_system(rows, rhs)
    x = _listed(x, "the solution")
    if matrix and len(x) != len(matrix[0]):
        return False
    x = [v if type(v) in _EXACT_TYPES else _exact(v, f"solution entry {j}") for j, v in enumerate(x)]
    if any(v < 0 for v in x):
        return False
    # Row i reads (A_i d_i) (x L) = b_i d_i L, in integers, with L the lcm of
    # x's denominators.
    scale = math.lcm(*map(_DENOMINATOR, x))
    support = [(j, v.numerator * (scale // v.denominator)) for j, v in enumerate(x) if v]
    for row, target in zip(matrix, b):
        if sum(row[j] * v for j, v in support) != target * scale:
            return False
    return True


def verify_farkas(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], y: Sequence[Fraction]
) -> bool:
    """Directly recheck a Farkas certificate: y.A >= 0 everywhere, y.b < 0.

    Any such y proves A x = b, x >= 0 unsolvable: it would force
    0 <= (y.A).x = y.b < 0.
    """
    matrix, b, den = _checked_system(rows, rhs)
    y = _listed(y, "the certificate")
    if len(y) != len(matrix):
        return False
    y = [v if type(v) in _EXACT_TYPES else _exact(v, f"certificate entry {i}") for i, v in enumerate(y)]
    # Row i holds A_i d_i and b_i d_i, so y_i A_i = s_i (A_i d_i) / L with
    # s_i = y_i L / d_i. One positive common factor L = lcm(den(y_i) d_i)
    # makes every s_i an integer, and only signs are tested. L is one factor
    # for all rows: scaling row i by a factor of its own would change y.A.
    used = [(yi, row, bi, yi.denominator * d) for yi, row, bi, d in zip(y, matrix, b, den) if yi]
    common = math.lcm(*[q for _, _, _, q in used])
    combination = [0] * (len(matrix[0]) if matrix else 0)
    total = 0
    for yi, row, bi, q in used:
        s = yi.numerator * (common // q)
        for j, a in enumerate(row):
            if a:
                combination[j] += s * a
        total += s * bi
    return all(v >= 0 for v in combination) and total < 0
