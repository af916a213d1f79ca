import math
from decimal import Decimal, localcontext
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from paleykit import sequence
from paleykit.errors import ConstructionError, SingularFrequencyError, StageFailure
from paleykit.multiindex import Smoothness, q_s_eval, saturate, symbol_abs_int
from paleykit.property_o import find_witness
from paleykit.riesz import riesz_coeffs
from paleykit.sequence import (
    ball_count,
    bk_radius,
    build_sequence,
    certified_rho,
    check_conditions,
    closeness_bounds,
    compute_tau,
    estimate_ell,
    integer_nth_root,
    round_rational_power,
    techprop_quantities,
)

from helpers import _offsets, estimate_rho_de, stepwise_doubling, symbol_eval


def ref_smoothness():
    return Smoothness.from_indices(saturate({(2, 0), (0, 1)}))


def ref_plan(K=4, t0=100, q=10):
    S = ref_smoothness()
    return build_sequence(S, find_witness(S), K, t0, q)


def test_compute_tau():
    assert compute_tau((2, 0), (0, 1)) == 1j
    assert compute_tau((0, 1), (2, 0)) == -1j
    assert compute_tau((3, 0), (0, 0)) == -1j
    with pytest.raises(ValueError):
        compute_tau((1, 1), (0, 0))


def test_integer_nth_root():
    assert integer_nth_root(0, 3) == 0
    assert integer_nth_root(26, 3) == 2
    assert integer_nth_root(27, 3) == 3
    big = 10**40 + 12345
    r = integer_nth_root(big, 2)
    assert r**2 <= big < (r + 1) ** 2


def test_round_rational_power():
    assert round_rational_power(100, Fraction(1, 2)) == 10
    assert round_rational_power(100, 1) == 100
    assert round_rational_power(1000, Fraction(1, 2)) == 32  # 31.62 rounds up
    assert round_rational_power(2000, Fraction(1, 2)) == 45  # 44.72
    assert round_rational_power(Fraction(9, 4), Fraction(1, 2)) == 2  # tie 3/2 up


def test_build_sequence_first_point():
    p = ref_plan(K=1)
    assert p.sequence == [(10, 100)]
    assert p.radii == [0]
    assert p.tau == 1j
    assert p.ell_exact == 1
    assert p.report.cond_i
    assert p.report.sum_iii == 0.0
    assert p.report.sum_iv == 0.0


def test_build_sequence_inflation():
    # t_2 = 1000 gives min coordinate 32 <= 110 = D_2, so t doubles to 16000
    p = ref_plan(K=2)
    assert p.sequence == [(10, 100), (126, 16000)]
    assert p.ts == [100, 16000]
    assert p.radii == [0, 110]
    assert p.sequence[1][0] >= 3 * p.sequence[0][0]
    assert min(p.sequence[1]) > 110


def test_build_sequence_reference_k4():
    p = ref_plan()
    assert p.sequence == [
        (10, 100),
        (126, 16000),
        (18102, 327680000),
        (331588846, 109951162777600000),
    ]
    assert p.radii == [0, 110, 16236, 327714338]
    assert p.ell_exact == Fraction(27487790697902929, 27487790694400000)
    assert abs(p.rho_hat - 0.7043397485373276) < 1e-15
    mins = [min(n) for n in p.sequence]
    assert mins == sorted(set(mins))


def test_plan_invariants_k5():
    p = ref_plan(K=5)
    for k in range(2, 6):
        n, prev = p.sequence[k - 1], p.sequence[k - 2]
        assert bk_radius(p.sequence, k) < min(n)
        assert n[0] >= 3 * prev[0]
        assert min(n) > min(prev)
    assert 0 < p.rho_hat <= 1


def test_build_sequence_errors():
    S = ref_smoothness()
    w = find_witness(S)
    with pytest.raises(ConstructionError):
        build_sequence(S, w, 0, 100, 10)
    with pytest.raises(ConstructionError):
        build_sequence(S, w, 2, 1, 10)
    bad = ((2, 0), (0, 1), (Fraction(1, 3), 1))
    with pytest.raises(ConstructionError):
        build_sequence(S, bad, 2, 100, 10)


# (maximal members, t0, q): the exact_scan witness sets, two d = 3 sets,
# one of them doubling t about 170 times per index, and the squared
# schedules of a retry
DOUBLING_CASES = [
    ({(2, 0), (0, 1)}, 100, 10),
    ({(3, 0), (2, 1), (0, 2)}, 100, 10),
    ({(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}, 100, 10),
    ({(2, 0, 0), (0, 1, 0), (0, 0, 2)}, 100, 10),
    ({(1, 0, 0), (0, 2, 0), (0, 0, 3)}, 100, 10),
    ({(2, 0), (0, 3)}, 100**2, 10**2),
    ({(2, 0), (0, 3)}, 100**4, 10**4),
]


def _doublings(p):
    return [(t / (p.t0 * p.q ** k)).numerator.bit_length() - 1
            for k, t in enumerate(p.ts)]


@pytest.mark.parametrize("maximal, t0, q", DOUBLING_CASES)
def test_galloping_doubling_matches_one_step_loop(maximal, t0, q):
    S = Smoothness.from_indices(saturate(maximal))
    w = find_witness(S)
    p = build_sequence(S, w, 4, t0, q)
    assert (p.ts, p.sequence, p.radii) == stepwise_doubling(w.c, 4, t0, q)
    # the plan needs exactly max(j_k) doublings: one fewer raises, at
    # the same index k as the one-step loop
    j_max = max(_doublings(p))
    assert j_max > 0
    with pytest.raises(ConstructionError) as exc:
        build_sequence(S, w, 4, t0, q, max_doublings=j_max - 1)
    with pytest.raises(ConstructionError) as oracle:
        stepwise_doubling(w.c, 4, t0, q, max_doublings=j_max - 1)
    assert str(exc.value) == str(oracle.value)
    tight = build_sequence(S, w, 4, t0, q, max_doublings=j_max)
    assert (tight.ts, tight.sequence) == (p.ts, p.sequence)


def test_doubling_without_room_raises_at_the_first_index_that_needs_it():
    S = ref_smoothness()
    w = find_witness(S)
    assert _doublings(ref_plan()) == [0, 4, 15, 40]
    for max_doublings in (-1, 0, 3):
        with pytest.raises(ConstructionError, match="n_2"):
            build_sequence(S, w, 4, 100, 10, max_doublings=max_doublings)
    with pytest.raises(ConstructionError, match="n_4"):
        build_sequence(S, w, 4, 100, 10, max_doublings=39)


def test_reference_build_round_rational_power_calls(monkeypatch):
    # a work count, not a timing: j_k = 0, 4, 15, 40 doublings take
    # 1 + 5 + 9 + 13 probes of 2 coordinates by galloping and bisection,
    # against 63 probes (126 calls) one doubling at a time
    calls = []
    original = sequence.round_rational_power

    def counted(t, c):
        calls.append(t)
        return original(t, c)

    monkeypatch.setattr(sequence, "round_rational_power", counted)
    ref_plan()
    assert len(calls) == 56


def test_estimate_ell():
    est = estimate_ell((2, 0), (0, 1), [(10, 100)])
    assert est.exact == 1 and est.drift == 0.0
    # 31^2 = 961 on both axes at t = 961
    est = estimate_ell((2, 0), (0, 1), [(10, 100), (31, 961)])
    assert est.exact == Fraction(961, 961) == 1
    with pytest.raises(ValueError):
        estimate_ell((2, 0), (0, 1), [(0, 5)])


def test_bk_radius():
    assert bk_radius([(10, 100)], 1) == 0
    assert bk_radius([(10, 100), (126, 16000)], 2) == 110
    assert bk_radius([(5,), (40,), (99,)], 3) == 45
    with pytest.raises(ValueError):
        bk_radius([(10, 100)], 2)


def test_ball_count_matches_brute_force():
    for d in (1, 2, 3):
        for radius in (0, 1, 2, 5, 9):
            brute = 0
            from itertools import product

            for pt in product(range(-radius, radius + 1), repeat=d):
                if sum(abs(c) for c in pt) <= radius:
                    brute += 1
            assert ball_count(d, radius) == brute, (d, radius)


def test_check_conditions_reference():
    p = ref_plan()
    r = p.report
    assert r.cond_i
    assert 0 < r.sum_iii < 0.5 and r.bound_iii_met
    # 2 + 8 + 26 spectrum points of B_2..B_4 at this schedule
    assert r.sum_iv == pytest.approx(0.2768477037216, rel=1e-12)
    assert r.bound_iv_met


def test_check_conditions_squared_schedule():
    # the old retry schedule; every ball is summed, none is skipped
    p = ref_plan(t0=100**2, q=10**2)
    r = p.report
    assert r.cond_i and r.bound_iii_met and r.bound_iv_met
    assert r.sum_iv == pytest.approx(0.0254757258722, rel=1e-12)


def _iv_term(plan, m):
    a, b = plan.witness.alpha, plan.witness.beta
    neg = tuple(-c for c in m)
    num = abs(symbol_eval(a, neg) + plan.tau * plan.ell_hat * symbol_eval(b, neg))
    return num / math.sqrt(q_s_eval(plan.smoothness, m))


def _ball(center, radius):
    # every lattice point of the closed l1 ball, by brute force
    axes = [range(c - radius, c + radius + 1) for c in center]
    return [m for m in product(*axes)
            if sum(abs(x - c) for x, c in zip(m, center)) <= radius]


@pytest.mark.parametrize("maximal, K", [
    ({(2, 0), (0, 1)}, 3),
    ({(2, 0), (0, 3)}, 4),
    ({(3, 0), (2, 1), (0, 2)}, 3),
])
def test_check_conditions_sums_the_spectrum_in_each_ball(maximal, K):
    # tiny plans whose balls can be enumerated in full: condition (iv)
    # sums exactly over spec(R_K) ∩ B_k minus the centre n_k, and that
    # is at most the full lattice-ball sum
    S = Smoothness.from_indices(saturate(maximal))
    p = build_sequence(S, find_witness(S), K, 2, 2)
    spectrum = set(riesz_coeffs(p.sequence, K).coeffs)
    spec_sum = full_sum = 0.0
    for k in range(1, K + 1):
        center = p.sequence[k - 1]
        ball = _ball(center, p.radii[k - 1])
        assert len(ball) == ball_count(S.dim, p.radii[k - 1])
        points = (spectrum & set(ball)) - {center}
        assert len(points) == 3 ** (k - 1) - 1
        spec_sum += sum(_iv_term(p, m) for m in points)
        full_sum += sum(_iv_term(p, m) for m in ball)
    assert p.report.sum_iv == pytest.approx(spec_sum, rel=1e-12)
    assert p.report.sum_iv <= full_sum


def _decimal_sums(plan):
    # (iii) and (iv) in 60-digit decimal arithmetic from the exact
    # integers: |m^alpha - ell m^beta| / Q_S(m)^{1/2} per point
    a, b = plan.witness.alpha, plan.witness.beta
    ell = plan.ell_exact
    sums = [Decimal(0), Decimal(0)]
    with localcontext() as ctx:
        ctx.prec = 60
        for k in range(1, plan.K + 1):
            for d in product((-1, 0, 1), repeat=k - 1):
                m = tuple(sum(dj * n[i] for dj, n in zip(d + (1,), plan.sequence))
                          for i in range(len(plan.sequence[0])))
                num = abs(symbol_abs_int(a, m) * ell.denominator
                          - ell.numerator * symbol_abs_int(b, m))
                term = (Decimal(num) / Decimal(ell.denominator)
                        / Decimal(q_s_eval(plan.smoothness, m)).sqrt())
                sums[any(d)] += term
    return sums


@pytest.mark.parametrize("t0, q", [(100, 10), (10**4, 100), (10**8, 10**4)])
def test_condition_sums_match_a_decimal_reference(t0, q):
    # every term is one correctly rounded division over a square root,
    # so both sums agree with 60-digit arithmetic to a few ulps; the
    # float witness symbol missed (iv) by 4.9e-12 at (10^8, 10^4)
    p = ref_plan(t0=t0, q=q)
    r = p.report
    ref_iii, ref_iv = _decimal_sums(p)
    assert abs(Decimal(r.sum_iii) - ref_iii) <= Decimal("1e-15") * ref_iii
    assert abs(Decimal(r.sum_iv) - ref_iv) <= Decimal("1e-15") * ref_iv


def test_check_conditions_q_s_overflow_names_k():
    # on {(4,0),(0,1)} the squared schedule puts Q_S(n_4) past 1.8e308
    S = Smoothness.from_indices(saturate({(4, 0), (0, 1)}))
    with pytest.raises(StageFailure) as exc:
        build_sequence(S, find_witness(S), 4, 100**2, 10**2)
    assert exc.value.stage == "sequence"
    assert exc.value.reason == "q_s_overflow"
    assert exc.value.details == {"k": 4}


def test_techprop_exact_values():
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    q1, q2, q3 = techprop_quantities(S, (101, 100), (100, 100))
    assert abs(q1 - float(Fraction(67, 6734))) < 1e-15
    assert q_s_eval(S, (100, 100)) == 20001
    assert q_s_eval(S, (101, 100)) == 20202
    assert q2 > 0 and abs(q2 - q3) < 1e-15
    assert techprop_quantities(S, (7, 9), (7, 9)) == (0.0, 0.0, 0.0)


def test_techprop_q1_does_not_cancel():
    # Q_S(n)/Q_S(m) = 1 + 4.000000006e-09 + O(1e-18): the exact rational
    # rounded once, where 1 - float(ratio) kept only its first 8 digits
    S = Smoothness.from_indices({(2, 0), (1, 0), (0, 0), (0, 1)})
    q1, _, _ = techprop_quantities(S, (10**9, 5), (10**9 + 1, 5))
    qm, qn = q_s_eval(S, (10**9, 5)), q_s_eval(S, (10**9 + 1, 5))
    assert q1 == float(Fraction(qn - qm, qm)) == 4.000000006e-09
    # past double precision, 1 - float(ratio) would be exactly 0.0
    q1, _, _ = techprop_quantities(S, (10**180, 5), (10**180 + 1, 5))
    assert q1 != 0.0
    assert q1 == pytest.approx(4e-180, rel=1e-12)


def test_techprop_decay():
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    rows = [techprop_quantities(S, (t + 1, t + 1), (t, t)) for t in (10, 20, 40, 80)]
    for i in range(3):
        assert rows[i + 1][0] < rows[i][0]
        assert rows[i + 1][1] < rows[i][1]
        assert rows[i + 1][2] < rows[i][2]


def test_techprop_singular():
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    with pytest.raises(SingularFrequencyError):
        techprop_quantities(S, (0, 5), (1, 1))


@pytest.mark.parametrize("m", [(101.7, 100), (101, 100, 3), (101,),
                               ("x", 100), (True, 100)],
                         ids=["float", "long", "short", "str", "bool"])
def test_techprop_rejects_non_integer_frequencies(m):
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    with pytest.raises(ValueError, match="need 2 integer coordinates"):
        techprop_quantities(S, m, (100, 100))
    with pytest.raises(ValueError, match="need 2 integer coordinates"):
        techprop_quantities(S, (100, 100), m)


def test_techprop_accepts_numpy_integers():
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    m = tuple(np.array([101, 100], dtype=np.int64))
    assert techprop_quantities(S, m, (100, 100)) == \
        techprop_quantities(S, (101, 100), (100, 100))


def test_estimate_rho_de_anchors():
    # the sweep of tests/helpers.py, the oracle of certified_rho
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    assert estimate_rho_de(S, 0, 0.5)["rho"] == 2
    assert estimate_rho_de(S, 1, 1 - 1e-9)["rho"] == 2
    out = estimate_rho_de(S, 2, 0.1)
    assert out["rho"] == 32
    assert out["note"] == "empirical, not a proof"
    assert estimate_rho_de(S, 2, 0.1) == out


def test_estimate_rho_de_validation():
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    with pytest.raises(ValueError):
        estimate_rho_de(S, -1, 0.5)
    with pytest.raises(ValueError):
        estimate_rho_de(S, 1, 1.5)


def test_certified_rho_anchors():
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    assert certified_rho(S, 0, 0.5) == 2
    assert certified_rho(S, 1, 1 - 1e-9) == 4  # bounds 7/9 and 2/3 at rho = 4
    assert certified_rho(S, 2, 0.1) == 64
    assert closeness_bounds(S, 2, 64) == (Fraction(63, 961), Fraction(2, 31))
    # at rho = 32 the q1 bound is (16/15)^2 - 1 = 31/225 > 0.1
    assert closeness_bounds(S, 2, 32)[0] == Fraction(31, 225)


@pytest.mark.parametrize("D, eps", [(-1, 0.5), (1, 0.0), (1, 1.0), (1, 1.5)])
def test_certified_rho_validation(D, eps):
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    with pytest.raises(ValueError):
        certified_rho(S, D, eps)


def test_closeness_bounds_need_rho_above_d():
    S = Smoothness.from_indices(saturate({(1, 0), (0, 1)}))
    for D, rho in ((2, 2), (3, 2), (-1, 4)):
        with pytest.raises(ValueError):
            closeness_bounds(S, D, rho)


# (set, D, eps, certified rho, sweep rho)
LEMMA_SETS = [
    (saturate({(2, 0), (0, 1)}), 2, 0.1, 128, 128),
    (saturate({(2, 0), (0, 3)}), 3, 0.05, 512, 512),
    ({(0, 0), (1, 0), (0, 1)}, 2, 0.1, 64, 32),
    (saturate({(2, 0, 0), (0, 1, 0), (0, 0, 1)}), 2, 0.1, 128, 128),
]
LEMMA_IDS = ["ref", "(2,0),(0,3)", "(1,0),(0,1)", "d3"]


@pytest.mark.parametrize("members, D, eps, rho_cert, _", LEMMA_SETS, ids=LEMMA_IDS)
def test_closeness_bounds_hold_on_every_swept_pair(members, D, eps, rho_cert, _):
    # every pair with n in a band of 5 per axis above rho and |m - n|_1 <= D
    S = Smoothness.from_indices(members)
    assert certified_rho(S, D, eps) == rho_cert
    for rho in (4, 8, 16, rho_cert):
        b1, b2 = (float(b) * (1 + 1e-12) for b in closeness_bounds(S, D, rho))
        for n in product(range(rho, rho + 5), repeat=S.dim):
            for off in _offsets(S.dim, D):
                m = tuple(a + b for a, b in zip(n, off))
                q1, q2, q3 = techprop_quantities(S, m, n)
                assert q1 <= b1 and q2 <= b2, (rho, m, n)
                assert abs(q3 - q2) <= 1e-12 * q2, (rho, m, n)


@pytest.mark.parametrize("members, D, eps, rho_cert, rho_sweep", LEMMA_SETS,
                         ids=LEMMA_IDS)
def test_sweep_never_exceeds_certified_rho(members, D, eps, rho_cert, rho_sweep):
    S = Smoothness.from_indices(members)
    assert estimate_rho_de(S, D, eps)["rho"] == rho_sweep <= certified_rho(S, D, eps)
