from fractions import Fraction

import numpy as np
import pytest

from paleykit.errors import InfeasibleError, UnboundedError
from paleykit.multiindex import order
from paleykit.property_o import _pair_lp
from paleykit.simplex import lp_solve

from helpers import FIXED_SETS, lp_solve_fractions, random_sets


def test_basic_max():
    res = lp_solve(
        [3, 2],
        a_ub=[[1, 1], [1, 0], [0, 1]],
        b_ub=[4, 2, 3],
        maximize=True,
    )
    assert res.value == 10
    assert res.x == [Fraction(2), Fraction(2)]


def test_equality_only():
    res = lp_solve([1, 1], a_eq=[[1, 1]], b_eq=[1])
    assert res.value == 1


def test_fractional_answer_is_exact():
    # max t with t <= 1/2 and t <= 1 (pinned weights)
    res = lp_solve(
        [0, 0, 1],
        a_ub=[[-1, 0, 1], [0, -1, 1]],
        b_ub=[0, 0],
        a_eq=[[2, 0, 0], [0, 1, 0]],
        b_eq=[1, 1],
        maximize=True,
    )
    assert res.value == Fraction(1, 2)
    assert res.x[0] == Fraction(1, 2)
    assert res.x[1] == 1


def test_infeasible():
    with pytest.raises(InfeasibleError):
        lp_solve([1], a_ub=[[1], [-1]], b_ub=[-1, -2])


def test_unbounded():
    with pytest.raises(UnboundedError):
        lp_solve([1], a_ub=[[-1]], b_ub=[0], maximize=True)


def test_free_variables_negative_optimum():
    # min x subject to x >= -3  (i.e. -x <= 3)
    res = lp_solve([1], a_ub=[[-1]], b_ub=[3])
    assert res.value == -3


def test_redundant_equalities():
    res = lp_solve(
        [1, 1],
        a_eq=[[1, 1], [2, 2]],
        b_eq=[1, 2],
        a_ub=[[-1, 0], [0, -1]],
        b_ub=[0, 0],
    )
    assert res.value == 1


def test_degenerate_vertex_terminates():
    # several constraints meet at the optimum; Bland's rule must not cycle
    res = lp_solve(
        [1, 1, 1],
        a_ub=[
            [1, 1, 1],
            [1, 1, 0],
            [1, 0, 1],
            [0, 1, 1],
            [-1, 0, 0],
            [0, -1, 0],
            [0, 0, -1],
        ],
        b_ub=[1, 1, 1, 1, 0, 0, 0],
        maximize=True,
    )
    assert res.value == 1


def test_random_cross_check_against_scipy():
    linprog = pytest.importorskip("scipy.optimize").linprog
    rng = np.random.default_rng(1234)
    for trial in range(25):
        nv = int(rng.integers(1, 4))
        nc = int(rng.integers(0, 5))
        c = rng.integers(-4, 5, size=nv)
        a = rng.integers(-3, 4, size=(nc, nv))
        b = rng.integers(-2, 6, size=nc)
        # box-constrain so nothing is unbounded
        a_full = np.vstack([a, np.eye(nv, dtype=int), -np.eye(nv, dtype=int)])
        b_full = np.concatenate([b, 5 * np.ones(2 * nv, dtype=int)])
        ref = linprog(
            c,
            A_ub=a_full,
            b_ub=b_full,
            bounds=[(None, None)] * nv,
            method="highs",
        )
        try:
            res = lp_solve(list(c), a_ub=a_full.tolist(), b_ub=b_full.tolist())
        except InfeasibleError:
            assert ref.status == 2, "exact solver infeasible, scipy not"
            continue
        assert ref.status == 0, "scipy failed on a feasible instance"
        assert abs(float(res.value) - ref.fun) < 1e-7, (trial, res.value, ref.fun)


# ----------------------------------------------------------------------
# the integer tableau against the Fraction tableau


def outcome(solve, *args, **kwargs):
    try:
        res = solve(*args, **kwargs)
    except (InfeasibleError, UnboundedError) as exc:
        return type(exc), str(exc)
    return res.value, res.x


def random_lp(rng):
    # fractional data, some float objectives, up to three equality rows,
    # either sense; some instances have a zero rhs (degenerate vertices,
    # artificials left basic after phase 1) or a last equality row that
    # doubles the first (a redundant row dropped after phase 1)
    def q():
        return Fraction(int(rng.integers(-6, 7)), int(rng.integers(1, 5)))

    nv = int(rng.integers(1, 5))
    nu = int(rng.integers(0, 6))
    ne = int(rng.integers(0, 4))
    c = [q() for _ in range(nv)]
    if rng.random() < 0.3:
        c = [float(v) for v in c]
    a_ub = [[q() for _ in range(nv)] for _ in range(nu)]
    a_eq = [[q() for _ in range(nv)] for _ in range(ne)]
    b_ub = [q() for _ in range(nu)]
    b_eq = [q() for _ in range(ne)]
    if rng.random() < 0.3:
        b_ub = [max(v, 0) for v in b_ub]
        b_eq = [0] * ne
    if ne >= 2 and rng.random() < 0.5:
        a_eq[-1] = [2 * v for v in a_eq[0]]
        b_eq[-1] = 2 * b_eq[0]
    return (c, a_ub, b_ub, a_eq, b_eq), {"maximize": bool(rng.random() < 0.5)}


def test_random_lps_match_fraction_tableau():
    rng = np.random.default_rng(2024)
    kinds = set()
    for trial in range(400):
        args, kwargs = random_lp(rng)
        got = outcome(lp_solve, *args, **kwargs)
        assert got == outcome(lp_solve_fractions, *args, **kwargs), trial
        kinds.add(got[0] if isinstance(got[0], type) else kwargs["maximize"])
    assert kinds == {InfeasibleError, UnboundedError, False, True}


def test_pair_lps_match_fraction_tableau(monkeypatch):
    # every opposite-parity member pair of the fixed sets, and every pair
    # of maximal members (the LPs find_witness solves) of random sets of
    # up to 20 members
    def pairs(tops):
        return [(a, b) for a in tops for b in tops
                if (order(a) - order(b)) % 2]

    jobs = [(S, pairs(S.sorted_indices())) for S in FIXED_SETS]
    jobs += [(S, pairs(S.maximal())) for S in random_sets(0, 60)]
    solved = 0
    for S, todo in jobs:
        members = S.sorted_indices()
        for alpha, beta in todo:
            got = outcome(_pair_lp, S.dim, members, alpha, beta)
            with monkeypatch.context() as m:
                m.setattr("paleykit.property_o.lp_solve", lp_solve_fractions)
                want = outcome(_pair_lp, S.dim, members, alpha, beta)
            assert got == want, (sorted(S.indices), alpha, beta)
            solved += not isinstance(got[0], type)
    assert solved > 0
