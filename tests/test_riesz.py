import numpy as np
import pytest

from paleykit.errors import ConstructionError
from paleykit.multiindex import Smoothness, saturate
from paleykit.property_o import find_witness
from paleykit.riesz import (
    riesz_coeffs,
    riesz_spectrum,
    verify_claim_a,
    verify_claim_b,
)
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
    assert len(riesz_spectrum(p.sequence, 3)) == 27
    assert (0, 0) in riesz_spectrum(p.sequence, 2)


def test_claim_b_balanced_ternary():
    seq = [(1,), (3,), (9,)]
    ok, _ = verify_claim_b(seq, 3)
    assert ok


def test_claim_b_collision():
    # first coordinates 1 and 2: pattern sums collide (9 patterns, 7 values)
    seq = [(1,), (2,)]
    ok, pair = verify_claim_b(seq, 2)
    assert not ok
    assert pair is not None
    a, b = pair
    f = lambda d: sum(dk * n[0] for dk, n in zip(d, seq))
    assert f(a) == f(b) and a != b


def test_riesz_coeffs_refuses_collisions():
    with pytest.raises(ConstructionError):
        riesz_coeffs([(1,), (2,)], 2)


def test_claim_a_reference():
    for K in (1, 2, 4):
        p = ref_plan(K)
        ok, bad = verify_claim_a(p.sequence, K)
        assert ok, bad


def test_claim_a_counterexample_detection():
    # for honest plans (positive coordinates) containment is automatic by
    # the triangle inequality, so the detector can only fire on malformed
    # input: a negative coordinate makes the nominal radius too small
    seq = [(-5,), (20,)]
    ok, bad = verify_claim_a(seq, 2)
    assert not ok
    assert bad is not None


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
