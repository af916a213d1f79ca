"""Parity-splitting witnesses for smoothness sets.

A smoothness set S has the splitting property when two of its members
alpha, beta of opposite total-order parity admit a strictly positive
rational weight vector c with

    <alpha, c> = <beta, c> = 1   and   <gamma, c> <= 1 for all gamma in S.

The weight vector is found by exact linear programming: maximize the
smallest coordinate of c subject to the two equalities and the cap
constraints.  A pair qualifies iff the optimum is strictly positive, so
the verdict is exact, never a float comparison.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError, UnboundedError
from .multiindex import Smoothness, order
from .simplex import lp_solve


@dataclass(frozen=True)
class PropertyOWitness:
    """A verified witness (alpha, beta, c) with its margin t_star = min_j c_j."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    c: tuple[Fraction, ...]
    t_star: Fraction


def _coerce(smoothness):
    if isinstance(smoothness, Smoothness):
        return smoothness
    return Smoothness.from_indices(smoothness)


def verify_witness(smoothness, alpha, beta, c):
    """Exact check of the witness conditions.

    Requires alpha, beta in S with opposite parity of total order, every
    c_j a strictly positive rational, both pairings equal to 1, and every
    member of S paired with c at most 1.
    """
    S = _coerce(smoothness)
    alpha = tuple(alpha)
    beta = tuple(beta)
    if alpha not in S or beta not in S:
        return False
    if (order(alpha) - order(beta)) % 2 == 0:
        return False
    c = tuple(Fraction(v) for v in c)
    if len(c) != S.dim or any(v <= 0 for v in c):
        return False
    if sum(a * v for a, v in zip(alpha, c)) != 1:
        return False
    if sum(b * v for b, v in zip(beta, c)) != 1:
        return False
    for gamma in S.indices:
        if sum(g * v for g, v in zip(gamma, c)) > 1:
            return False
    return True


def _pair_lp(dim, members, alpha, beta):
    """Maximize t subject to c_j >= t, <alpha,c> = <beta,c> = 1,
    <gamma,c> <= 1 for all gamma.  Variables are (c_1..c_d, t)."""
    nv = dim + 1
    a_eq = [list(alpha) + [0], list(beta) + [0]]
    b_eq = [1, 1]
    a_ub = []
    b_ub = []
    for gamma in members:
        a_ub.append(list(gamma) + [0])
        b_ub.append(1)
    for j in range(dim):
        row = [0] * nv
        row[j] = -1
        row[dim] = 1
        a_ub.append(row)
        b_ub.append(0)
    return lp_solve([0] * dim + [1], a_ub, b_ub, a_eq, b_eq, maximize=True)


def find_witness(smoothness):
    """First qualifying witness in descending lexicographic pair order,
    or None when no pair qualifies.

    Pairs (alpha, beta) are scanned with alpha as major key and beta as
    minor key, both in descending lexicographic order over the members of
    S, skipping pairs of equal parity.  The returned weight vector is the
    exact LP optimizer, so repeated runs agree bit for bit.
    """
    S = _coerce(smoothness)
    members = S.sorted_indices()
    for alpha in members:
        for beta in members:
            if alpha == beta:
                continue
            if (order(alpha) - order(beta)) % 2 == 0:
                continue
            try:
                res = _pair_lp(S.dim, members, alpha, beta)
            except (InfeasibleError, UnboundedError):
                continue
            if res.value > 0:
                c = tuple(res.x[:-1])
                w = PropertyOWitness(
                    alpha=alpha, beta=beta, c=c, t_star=res.value
                )
                if not verify_witness(S, alpha, beta, c):
                    raise AssertionError(
                        "LP optimum failed exact re-verification"
                    )
                return w
    return None

