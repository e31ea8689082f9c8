"""Exact feasibility of equality systems with nonnegative variables.

Decides whether A x = b has a solution x >= 0 over the rationals, by a
phase-one simplex with Bland's anti-cycling rule carried out entirely in
`fractions.Fraction`. Infeasible systems come with a Farkas certificate y
(y.A >= 0 componentwise while y.b < 0), and `verify_farkas` /
`verify_solution` recheck either answer by direct arithmetic, independent of
the solver's internals.

The tableau is dense, but every operation on it touches only the entries that
are not exactly zero: a pivot collects the nonzero cells of the pivot row once
and updates just those columns of the other rows and of the cost row, in
place. Bland's rule picks the same entering column and leaving row as a dense
update would, so the pivot sequence and the answers do not depend on this.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import InputError
from .models import ONE, ZERO


def _exact(value: object, where: str) -> Fraction:
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InputError(f"{where} is not a finite rational number: {value!r}") from None


def _checked_system(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[list[Fraction]], list[Fraction]]:
    # A string would otherwise read as its characters, one entry each.
    if not isinstance(rhs, (list, tuple)):
        raise InputError(f"the right-hand side is not a list or tuple of numbers: {rhs!r}")
    if len(rows) != len(rhs):
        raise InputError(f"{len(rows)} rows but {len(rhs)} right-hand sides")
    matrix = []
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise InputError(f"row {i} is not a list or tuple of numbers: {row!r}")
        matrix.append(
            [v if type(v) is Fraction else _exact(v, f"row {i}, column {j}") for j, v in enumerate(row)]
        )
    width = {len(row) for row in matrix}
    if len(width) > 1:
        raise InputError(f"rows have inconsistent lengths: {sorted(width)}")
    b = [v if type(v) is Fraction else _exact(v, f"right-hand side {i}") for i, v in enumerate(rhs)]
    return matrix, b


def feasible_point(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> tuple[list[Fraction] | None, list[Fraction] | None]:
    """Solve A x = b, x >= 0 exactly.

    Returns (x, None) with a nonnegative rational solution when the system is
    feasible, else (None, y) with a Farkas certificate of infeasibility.
    """
    # The tableau grows in place from the private rows `_checked_system`
    # copies, never from the caller's.
    tableau, b = _checked_system(rows, rhs)
    m = len(tableau)
    n = len(tableau[0]) if m else 0
    if m == 0:
        return [], None

    # Phase-one tableau: structural columns, artificial columns, rhs.
    # Rows with negative rhs are negated first (sign unwound in the certificate).
    flip = [-1 if value < 0 else 1 for value in b]
    for i, row in enumerate(tableau):
        if flip[i] < 0:
            row[:] = [-v for v in row]
        row.extend(ONE if j == i else ZERO for j in range(m))
        row.append(abs(b[i]))
    basis = [n + i for i in range(m)]
    # Reduced costs for min sum(artificials); last cell is minus the objective.
    cost = [ZERO] * (n + m + 1)
    for row in tableau:
        for j in range(n):
            if row[j]:
                cost[j] -= row[j]
        cost[-1] -= row[-1]

    total_cols = n + m
    while True:
        pivot_col = next((j for j in range(total_cols) if cost[j] < 0), None)
        if pivot_col is None:
            break
        pivot_row = -1
        best: Fraction | None = None
        for i in range(m):
            coeff = tableau[i][pivot_col]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if best is None or ratio < best or (ratio == best and basis[i] < basis[pivot_row]):
                    best = ratio
                    pivot_row = i
        if pivot_row < 0:
            raise AssertionError("phase-one objective cannot be unbounded")
        _pivot(tableau, cost, basis, pivot_row, pivot_col)

    objective = -cost[-1]
    if objective == 0:
        x = [ZERO] * n
        for i, var in enumerate(basis):
            if var < n:
                x[var] = tableau[i][-1]
        return x, None

    # Optimal dual prices off the artificial columns, signs restored per row.
    y = [(cost[n + i] - 1) * flip[i] for i in range(m)]
    return None, y


def _pivot(
    tableau: list[list[Fraction]],
    cost: list[Fraction],
    basis: list[int],
    pivot_row: int,
    pivot_col: int,
) -> None:
    row = tableau[pivot_row]
    pivot = row[pivot_col]
    nonzero = [(j, v) for j, v in enumerate(row) if v]
    if pivot != 1:
        nonzero = [(j, v / pivot) for j, v in nonzero]
        for j, v in nonzero:
            row[j] = v
    for other in tableau:
        factor = other[pivot_col]
        if factor and other is not row:
            _subtract(other, factor, nonzero)
    factor = cost[pivot_col]
    if factor:
        _subtract(cost, factor, nonzero)
    basis[pivot_row] = pivot_col


def _subtract(
    target: list[Fraction], factor: Fraction, nonzero: list[tuple[int, Fraction]]
) -> None:
    """target -= factor * row, given the row's nonzero cells."""
    # Most factors in 0/1 membership systems are +1 or -1; skip the product.
    if factor == 1:
        for j, v in nonzero:
            target[j] -= v
    elif factor == -1:
        for j, v in nonzero:
            target[j] += v
    else:
        for j, v in nonzero:
            target[j] -= factor * v


def verify_solution(
    rows: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction], x: Sequence[Fraction]
) -> bool:
    """Directly recheck that x >= 0 and A x = b, term by term."""
    matrix, b = _checked_system(rows, rhs)
    if matrix and len(x) != len(matrix[0]):
        return False
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
    if len(y) != len(matrix):
        return False
    # y.A accumulated row by row over the nonzero products only.
    n = len(matrix[0]) if matrix else 0
    combination = [ZERO] * n
    for yi, row in zip(y, matrix):
        if yi:
            for j, a in enumerate(row):
                if a:
                    combination[j] += yi * a
    if any(v < 0 for v in combination):
        return False
    return sum(yi * bi for yi, bi in zip(y, b) if yi and bi) < 0
