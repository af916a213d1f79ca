"""Parity-splitting witnesses for smoothness sets.

A smoothness set S has the splitting property when two of its members
alpha, beta of opposite total-order parity admit a strictly positive
rational weight vector c with

    <alpha, c> = <beta, c> = 1   and   <gamma, c> <= 1 for all gamma in S.

The weight vector is found by exact linear programming: maximize the
smallest coordinate of c subject to the two equalities and the cap
constraints.  A pair qualifies iff the optimum is strictly positive, so
the verdict is exact, never a float comparison.

Only maximal members can belong to a qualifying pair.  S is downward
closed, so if alpha < gamma for some gamma in S, then gamma exceeds
alpha in some coordinate j, and every c > 0 with <alpha, c> = 1 gives
<gamma, c> >= 1 + c_j > 1, breaking gamma's cap; likewise for beta.  The
search therefore solves LPs for pairs of maximal members only, which
turns the quadratic scan over all of S into one over its antichain of
maximal members (a box has one, so it solves none).
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import InfeasibleError, StageFailure, UnboundedError
from .multiindex import Smoothness, order
from .simplex import lp_solve


@dataclass(frozen=True)
class PropertyOWitness:
    """A verified witness (alpha, beta, c) with its margin t_star = min_j c_j."""

    alpha: tuple[int, ...]
    beta: tuple[int, ...]
    c: tuple[Fraction, ...]
    t_star: Fraction


def verify_witness(smoothness, alpha, beta, c):
    """Exact check of the witness conditions.

    Requires alpha, beta in S with opposite parity of total order, every
    c_j a strictly positive rational, both pairings equal to 1, and every
    member of S paired with c at most 1.
    """
    S = Smoothness.coerce(smoothness)
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
    minor key, both in descending lexicographic order over the maximal
    members of S, skipping pairs of equal parity.  No pair with a
    non-maximal member qualifies (see the module docstring), so the first
    qualifying pair is the one a scan over all members in the same order
    would find.  Each LP still carries the cap of every member of S, so
    its tableau, and hence the returned optimizer c and t_star, is the
    one that scan would solve: the result equals the full scan's bit for
    bit, and repeated runs agree.
    """
    S = Smoothness.coerce(smoothness)
    members = S.sorted_indices()
    tops = S.maximal()
    for alpha in tops:
        for beta in tops:
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


def find_witness_or_fail(smoothness):
    """find_witness, raising StageFailure("property_o", "no_witness") with
    the smoothness set in its details when there is no witness."""
    S = Smoothness.coerce(smoothness)
    w = find_witness(S)
    if w is None:
        raise StageFailure("property_o", "no_witness", {"smoothness": S})
    return w
