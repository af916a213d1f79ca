from fractions import Fraction

import pytest

from paleykit import property_o
from paleykit.errors import InfeasibleError, UnboundedError
from paleykit.multiindex import Smoothness, order, saturate
from paleykit.property_o import (
    PropertyOWitness,
    _pair_lp,
    find_witness,
    verify_witness,
)
from paleykit.simplex import lp_solve

from helpers import FIXED_SETS, random_sets


def anisotropic_example():
    return Smoothness.from_indices(saturate({(2, 0), (0, 1)}))


def test_find_witness_reference_set():
    w = find_witness(anisotropic_example())
    assert w is not None
    assert w.alpha == (2, 0)
    assert w.beta == (0, 1)
    assert w.c == (Fraction(1, 2), Fraction(1))
    assert w.t_star == Fraction(1, 2)


def test_witness_is_deterministic():
    a = find_witness(anisotropic_example())
    b = find_witness(anisotropic_example())
    assert a == b


def test_verify_witness_accepts_reference():
    S = anisotropic_example()
    assert verify_witness(S, (2, 0), (0, 1), (Fraction(1, 2), 1))


def test_verify_witness_rejects_bad_inputs():
    S = anisotropic_example()
    # same parity
    assert not verify_witness(S, (2, 0), (0, 0), (Fraction(1, 2), 1))
    # pairing off by one
    assert not verify_witness(S, (2, 0), (0, 1), (Fraction(1, 3), 1))
    # non-positive weight
    assert not verify_witness(S, (1, 0), (0, 1), (1, 0))
    # alpha outside the set
    assert not verify_witness(S, (3, 0), (0, 1), (Fraction(1, 3), 1))


def test_verify_witness_rejects_cap_violation():
    # c pairs to 1 with alpha and beta but exceeds 1 on another member
    S = Smoothness.from_indices(saturate({(1, 1)}))
    assert not verify_witness(S, (1, 0), (0, 1), (1, 1))


def test_full_box_has_no_witness():
    # every member sits under the corner, so any strictly positive c
    # pairing some gamma to 1 pushes the corner above 1
    assert find_witness(saturate({(2, 2)})) is None
    assert find_witness(saturate({(3,)})) is None


def test_isotropic_first_order_has_witness():
    # S = {0, e1, e2}: alpha = e1, beta = 0 fails (0 pairs to 0), but
    # e1/e2 have equal parity, so the only odd/even pairs involve 0;
    # <0, c> = 1 is impossible, hence no witness
    assert find_witness(saturate({(1, 0), (0, 1)})) is None


def test_three_dim_witness():
    S = saturate({(2, 0, 0), (0, 1, 0), (0, 0, 2)})
    w = find_witness(S)
    assert w is not None
    assert verify_witness(S, w.alpha, w.beta, w.c)
    assert w.t_star > 0


# ----------------------------------------------------------------------
# the search over maximal members against the scan over all members


def full_scan(S):
    # the search before it was restricted to maximal members: every
    # ordered member pair of opposite parity, alpha major and beta minor,
    # both in descending lexicographic order, one _pair_lp each
    members = S.sorted_indices()
    for alpha in members:
        for beta in members:
            if alpha == beta or (order(alpha) - order(beta)) % 2 == 0:
                continue
            try:
                res = _pair_lp(S.dim, members, alpha, beta)
            except (InfeasibleError, UnboundedError):
                continue
            if res.value > 0:
                return PropertyOWitness(alpha, beta, tuple(res.x[:-1]),
                                        res.value)
    return None


def pair_verdicts(S):
    # exact verdict of every opposite-parity pair of maximal members:
    # None when infeasible, else the optimum t
    members = S.sorted_indices()
    tops = S.maximal()
    out = {}
    for alpha in tops:
        for beta in tops:
            if (order(alpha) - order(beta)) % 2 == 0:
                continue
            try:
                out[alpha, beta] = _pair_lp(S.dim, members, alpha, beta).value
            except InfeasibleError:
                out[alpha, beta] = None
    return out


def test_maximal_search_matches_full_scan():
    sets = FIXED_SETS + random_sets(0, 60)
    found = 0
    for S in sets:
        got = find_witness(S)
        assert got == full_scan(S), sorted(S.indices)
        if got is not None:
            found += 1
            assert got.t_star == min(got.c)
    # both outcomes occur, in every dimension the sample covers
    assert 8 <= found <= len(sets) - 8
    assert {S.dim for S in sets} == {1, 2, 3, 4}
    assert sum(10 < len(S.indices) <= 20 for S in sets) >= 10


def test_pair_verdicts_match_linprog():
    linprog = pytest.importorskip("scipy.optimize").linprog
    checked = 0
    for S in FIXED_SETS + random_sets(1, 30):
        members = S.sorted_indices()
        d = S.dim
        a_ub = [list(g) + [0] for g in members]
        a_ub += [[-1 if i == j else 0 for i in range(d)] + [1]
                 for j in range(d)]
        b_ub = [1] * len(members) + [0] * d
        for (alpha, beta), t in pair_verdicts(S).items():
            ref = linprog([0] * d + [-1], A_ub=a_ub, b_ub=b_ub,
                          A_eq=[list(alpha) + [0], list(beta) + [0]],
                          b_eq=[1, 1], bounds=[(None, None)] * (d + 1),
                          method="highs")
            if t is None:
                assert ref.status == 2, (sorted(S.indices), alpha, beta)
            else:
                assert ref.status == 0, (sorted(S.indices), alpha, beta)
                assert abs(float(t) + ref.fun) < 1e-7
                assert (t > 0) == (-ref.fun > 1e-7)
            checked += 1
    assert checked > 0


def test_lp_calls_only_on_maximal_pairs(monkeypatch):
    calls = []

    def counting_lp_solve(*args, **kwargs):
        calls.append(args)
        return lp_solve(*args, **kwargs)

    monkeypatch.setattr(property_o, "lp_solve", counting_lp_solve)
    # a box has one maximal member, hence no pair and no LP
    for corner in ((2, 2, 2), (1, 1, 1, 1)):
        S = Smoothness.from_indices(saturate({corner}))
        assert S.maximal() == [corner]
        assert find_witness(S) is None
    assert calls == []
    S = anisotropic_example()
    w = find_witness(S)
    tops = S.maximal()
    tried = []
    for alpha in tops:
        for beta in tops:
            if (order(alpha) - order(beta)) % 2:
                tried.append((alpha, beta))
    tried = tried[:tried.index((w.alpha, w.beta)) + 1]
    assert tried == [((2, 0), (0, 1))]
    assert len(calls) == len(tried)
