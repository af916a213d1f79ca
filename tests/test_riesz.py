import numpy as np
import pytest

from paleykit.errors import StageFailure
from paleykit.multiindex import Smoothness, saturate
from paleykit.property_o import find_witness
from paleykit.riesz import riesz_coeffs
from paleykit.sequence import build_sequence

from helpers import cos_factor_poly, grid_points, riesz_poly


def ref_plan(K):
    S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
    return build_sequence(S, find_witness(S), K, 100, 10)


def test_k1_coefficients():
    mu = riesz_coeffs([(10, 100)], 1)
    assert mu.coeffs == {(0, 0): 1.0, (10, 100): 0.5, (-10, -100): 0.5}
    assert mu.multiplier((10, 100)) == 0.5
    assert mu.multiplier((3, 3)) == 0.0


def test_k0_is_lebesgue():
    mu = riesz_coeffs([(10, 100)], 0)
    assert mu.coeffs == {(0, 0): 1.0}


def test_k2_cross_coefficient():
    seq = [(10, 100), (126, 16000)]
    mu = riesz_coeffs(seq, 2)
    assert len(mu.coeffs) == 9
    assert mu.coeffs[(136, 16100)] == 0.25
    assert mu.coeffs[(116, 15900)] == 0.25
    assert mu.coeffs[(0, 0)] == 1.0


def test_spectrum_sizes():
    p = ref_plan(3)
    assert len(riesz_coeffs(p.sequence, 3).coeffs) == 27
    assert (0, 0) in riesz_coeffs(p.sequence, 2).coeffs


def _failure(sequence, K):
    with pytest.raises(StageFailure) as info:
        riesz_coeffs(sequence, K)
    assert info.value.stage == "riesz"
    return info.value.reason, info.value.details


def test_claim_b_balanced_ternary():
    seq = [(1,), (3,), (9,)]
    mu = riesz_coeffs(seq, 3)
    assert sorted(mu.coeffs) == [(v,) for v in range(-13, 14)]


def test_claim_b_collision():
    # first coordinates 1 and 2: pattern sums collide (9 patterns, 7 values)
    seq = [(1,), (2,)]
    reason, details = _failure(seq, 2)
    assert reason == "claim_b_collision"
    assert details == {"patterns": ((-1, 0), (1, -1))}
    a, b = details["patterns"]
    f = lambda d: sum(dk * n[0] for dk, n in zip(d, seq))
    assert f(a) == f(b) and a != b


def test_riesz_coeffs_refuses_collisions():
    # -1 + 2 - 3 = -2 in the first coordinate; the second coordinates
    # differ, but claim B asks for injectivity of the first coordinate
    reason, details = _failure([(1, 1), (2, 5), (3, 9)], 3)
    assert reason == "claim_b_collision"
    assert details == {"patterns": ((-1, 1, -1), (0, -1, 0))}


def test_claim_a_reference():
    for K in (1, 2, 4):
        p = ref_plan(K)
        assert len(riesz_coeffs(p.sequence, K).coeffs) == 3**K


def test_claim_a_counterexample_detection():
    # for honest plans (positive coordinates) containment is automatic by
    # the triangle inequality, so the detector can only fire on malformed
    # input: a negative coordinate makes the nominal radius too small
    assert _failure([(-5,), (20,)], 2) == (
        "claim_a_escape", {"frequency": (-15,)})


def test_claim_b_takes_precedence_over_escape():
    # the first pattern (-1, -1) already escapes (frequency -1, radius
    # D_2 = -1), and (1, 0) collides with it only later in the walk
    assert _failure([(-1,), (2,)], 2) == (
        "claim_b_collision", {"patterns": ((-1, -1), (1, 0))})


def test_symbolic_expansion_matches():
    p = ref_plan(4)
    mu = riesz_coeffs(p.sequence, 4)
    prod = cos_factor_poly(p.sequence[0])
    for n in p.sequence[1:4]:
        prod = prod * cos_factor_poly(n)
    assert prod.coeffs == mu.coeffs


def test_mass_and_nonnegativity_on_grid():
    # small synthetic plan so the grid stays tractable
    seq = [(4, 16), (25, 640)]
    mu = riesz_coeffs(seq, 2)
    f = riesz_poly(mu)
    n = 2 * f.maxfreq() + 1
    vals = f.evaluate(n)
    assert abs(vals.mean() - 1.0) < 1e-10
    assert vals.real.min() > -1e-10
    assert np.abs(vals.imag).max() < 1e-10


def test_pointwise_product_formula():
    seq = [(4, 16), (25, 640)]
    mu = riesz_coeffs(seq, 2)
    f = riesz_poly(mu)
    n = 2 * f.maxfreq() + 1
    vals = f.evaluate(n)
    pts = grid_points(n)
    for s, t in [(0, 0), (5, 17), (100, 3)]:
        x = np.array([pts[s], pts[t]])
        direct = 1.0
        for nk in seq:
            direct *= 1.0 + np.cos(x @ np.array(nk))
        assert abs(vals[s, t] - direct) < 1e-9
