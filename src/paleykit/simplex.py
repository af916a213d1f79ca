"""Exact linear programming over the rationals.

Two-phase primal simplex on a dense integer tableau, exact, with Bland's
anti-cycling rule.  All variables are free (each is split into a
difference of two non-negative parts), which matches how the solver is
used here: the unknowns are rational weight vectors and a threshold, none
of which carries a sign constraint a priori.

The tableau is a matrix T of Python ints with one common denominator
d > 0: the true tableau is T / d.  The constraint data are scaled once by
the lcm of their denominators, and each row gets an artificial column
equal to 1, so the start basis is the identity and d = 1.  A pivot on
(r, c) with p = T[r][c] replaces every other row, the cost row included,
by (p T[i] - T[i][c] T[r]) / d and then sets d = p: the integer-
preserving pivot of Edmonds (J. Res. NBS 71B, 1967) and Bareiss (Math.
Comp. 22, 1968).  T stays equal to d B^{-1} M for the basis B of the
scaled constraint matrix M, and d = +-det B, so T = +-adj(B) M is an
integer matrix and the division is exact (Sylvester's identity); when a
pivot entry is negative the whole tableau is negated to keep d > 0.
Each entry depends only on its own column, so the artificial columns,
which no pivot decision reads, are not stored.

Every pivot decision reads only signs and ratios of the true tableau, so
it is the one a tableau of Fractions would make: Bland's rule picks the
first column with a negative reduced cost, and the ratio test compares
cross-products, ties going to the lowest basis index.  Fractions are
built only for the returned value and solution and for error messages.

No floating point enters at any stage, so a reported optimum is exact and
a feasibility verdict is a theorem about the input data.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError, UnboundedError


@dataclass
class LPResult:
    """Exact optimum of a linear program.

    Attributes
    ----------
    value : Fraction
        Optimal objective value.
    x : list of Fraction
        An optimal assignment of the original (free) variables.
    """

    value: Fraction
    x: list


def _rationals(values):
    return [v if type(v) is int else Fraction(v) for v in values]


def _rational_matrix(rows, width):
    out = []
    for row in rows:
        r = _rationals(row)
        if len(r) != width:
            raise ValueError("row of length %d, expected %d" % (len(r), width))
        out.append(r)
    return out


def _common_scale(rows):
    """Integer rows equal to the rational ``rows`` times the lcm of all
    their denominators, and that lcm."""
    scale = math.lcm(*(v.denominator for row in rows for v in row))
    return [[v.numerator * (scale // v.denominator) for v in row]
            for row in rows], scale


def _eliminate(row, prow, p, c, d):
    f = row[c]
    if f == 0:
        return row if p == d else [v * p // d for v in row]
    return [(p * a - f * b) // d for a, b in zip(row, prow)]


def _pivot(rows, cost, basis, d, r, c):
    """Integer-preserving pivot on (r, c); returns the new denominator."""
    prow = rows[r]
    p = prow[c]
    for i, row in enumerate(rows):
        if i != r:
            rows[i] = _eliminate(row, prow, p, c, d)
    cost[:] = _eliminate(cost, prow, p, c, d)
    basis[r] = c
    if p < 0:
        rows[:] = [[-v for v in row] for row in rows]
        cost[:] = [-v for v in cost]
        p = -p
    return p


def _simplex(rows, cost, basis, ncols, d):
    """Minimize with reduced-cost row ``cost`` over denominator ``d`` (its
    rhs cell holds minus the current objective value).  Bland's rule
    throughout; returns the final denominator."""
    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return d
        leave = -1
        for i, row in enumerate(rows):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave = i
                    continue
                # row[-1] / a against the best ratio, by cross-products
                lhs = row[-1] * rows[leave][enter]
                rhs = rows[leave][-1] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            raise UnboundedError("objective unbounded along column %d" % enter)
        d = _pivot(rows, cost, basis, d, leave, enter)


def lp_solve(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(), maximize=False):
    """Solve max/min objective . x  s.t.  a_ub x <= b_ub, a_eq x = b_eq.

    All coefficients are read as exact rationals (ints as they are, any
    other number through Fraction); variables are free.  Returns an
    LPResult with exact rational value and solution.  Raises
    InfeasibleError when the constraints admit no point and UnboundedError
    when the objective is unbounded over the feasible region.
    """
    nvar = len(objective)
    c_obj = _rationals(objective)
    if maximize:
        c_obj = [-v for v in c_obj]
    a_ub = _rational_matrix(a_ub, nvar)
    a_eq = _rational_matrix(a_eq, nvar)
    b_ub = _rationals(b_ub)
    b_eq = _rationals(b_eq)
    if len(b_ub) != len(a_ub) or len(b_eq) != len(a_eq):
        raise ValueError("constraint matrix / rhs length mismatch")

    nslack = len(a_ub)
    m = len(a_ub) + len(a_eq)
    # Columns: u_0, v_0, ..., u_{nvar-1}, v_{nvar-1}, slacks, then the
    # rhs; artificial k (column nstruct + k, basic in row k at the start)
    # is implicit.
    nstruct = 2 * nvar + nslack
    data, scale = _common_scale(
        [arow + [rhs] for arow, rhs in zip(a_ub + a_eq, b_ub + b_eq)]
    )

    rows = []
    for k, drow in enumerate(data):
        row = []
        for v in drow[:-1]:
            row.extend((v, -v))
        row.extend([0] * nslack)
        if k < nslack:
            row[2 * nvar + k] = 1
        row.append(drow[-1])
        if drow[-1] < 0:
            row = [-v for v in row]
        rows.append(row)

    basis = [nstruct + k for k in range(m)]
    d = 1

    # Phase 1: minimize the sum of artificials.  With the artificial
    # basis the reduced cost of column j is -(column sum over rows).
    cost = [-sum(col) for col in zip(*rows)] if rows else [0] * (nstruct + 1)
    d = _simplex(rows, cost, basis, nstruct, d)
    if cost[-1] != 0:
        raise InfeasibleError(
            "phase-1 optimum %s > 0" % (Fraction(-cost[-1], d * scale),)
        )

    # Drive any artificial still in the basis out, dropping rows that
    # turn out to be redundant.
    for i in reversed(range(len(rows))):
        if basis[i] >= nstruct:
            pivot_col = next(
                (j for j in range(nstruct) if rows[i][j] != 0), None
            )
            if pivot_col is None:
                del rows[i]
                del basis[i]
            else:
                d = _pivot(rows, cost, basis, d, i, pivot_col)

    # Phase 2: reduced costs of the real objective for the current basis,
    # scaled by the objective's own lcm and by d.  Artificials never
    # re-enter.
    c_int, c_scale = _common_scale([c_obj])
    full = [0] * (nstruct + 1)
    for i, v in enumerate(c_int[0]):
        full[2 * i] = v
        full[2 * i + 1] = -v
    cost = [d * v for v in full]
    for i, row in enumerate(rows):
        cb = full[basis[i]]
        if cb != 0:
            cost = [a - cb * b for a, b in zip(cost, row)]
    d = _simplex(rows, cost, basis, nstruct, d)

    assign = [0] * nstruct
    for i, b in enumerate(basis):
        assign[b] = rows[i][-1]
    x = [Fraction(assign[2 * i] - assign[2 * i + 1], d) for i in range(nvar)]
    value = Fraction(-cost[-1], d * c_scale)
    if maximize:
        value = -value
    return LPResult(value=value, x=x)
