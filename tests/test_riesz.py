import numpy as np
import pytest

from paleykit.errors import StageFailure
from paleykit.multiindex import Smoothness, saturate
from paleykit.orchestrator import OrchestratorConfig, run_construction
from paleykit.property_o import find_witness
from paleykit.riesz import riesz_coeffs
from paleykit.sequence import build_sequence

from helpers import count_sign_patterns, cos_factor_poly, grid_points, riesz_poly, riesz_walk


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
    # first coordinates 1 and 2: pattern sums collide (9 patterns, 7 values);
    # the ratio 2 < 3 is what riesz_coeffs rejects, the walk finds the clash
    seq = [(1,), (2,)]
    assert _failure(seq, 2) == ("not_lacunary", {"k": 2})
    with pytest.raises(StageFailure) as info:
        riesz_walk(seq, 2)
    assert info.value.reason == "claim_b_collision"
    assert info.value.details == {"patterns": ((-1, 0), (1, -1))}
    a, b = info.value.details["patterns"]
    f = lambda d: sum(dk * n[0] for dk, n in zip(d, seq))
    assert f(a) == f(b) and a != b


def test_riesz_coeffs_refuses_collisions():
    # -1 + 2 - 3 = -2 in the first coordinate; the second coordinates
    # differ, but claim B asks for injectivity of the first coordinate
    seq = [(1, 1), (2, 5), (3, 9)]
    assert _failure(seq, 3) == ("not_lacunary", {"k": 2})
    with pytest.raises(StageFailure, match="claim_b_collision"):
        riesz_walk(seq, 3)


def test_claim_a_reference():
    for K in (1, 2, 4):
        p = ref_plan(K)
        assert len(riesz_coeffs(p.sequence, K).coeffs) == 3**K


def test_claim_a_counterexample_detection():
    # for honest plans (positive coordinates) containment is automatic by
    # the triangle inequality, so the walk's detector can only fire on
    # malformed input: a negative coordinate makes the nominal radius too
    # small, and riesz_coeffs rejects that coordinate at k = 1
    seq = [(-5,), (20,)]
    assert _failure(seq, 2) == ("not_lacunary", {"k": 1})
    with pytest.raises(StageFailure) as info:
        riesz_walk(seq, 2)
    assert (info.value.reason, info.value.details) == (
        "claim_a_escape", {"frequency": (-15,)})


def test_claim_b_takes_precedence_over_escape():
    # in the walk, the first pattern (-1, -1) already escapes (frequency
    # -1, radius D_2 = -1), and (1, 0) collides with it only later
    seq = [(-1,), (2,)]
    assert _failure(seq, 2) == ("not_lacunary", {"k": 1})
    with pytest.raises(StageFailure) as info:
        riesz_walk(seq, 2)
    assert (info.value.reason, info.value.details) == (
        "claim_b_collision", {"patterns": ((-1, -1), (1, 0))})


def test_injective_but_not_lacunary_is_rejected():
    # the walk accepts (2), (3): its 9 sums are distinct and claim A
    # holds, but 3 < 3 * 2 breaks the ratio the proofs rest on
    assert len(riesz_walk([(2,), (3,)], 2)) == 9
    assert _failure([(2,), (3,)], 2) == ("not_lacunary", {"k": 2})
    assert _failure([(3, 1), (9, 0)], 2) == ("not_lacunary", {"k": 2})
    assert riesz_coeffs([(3, 1), (9, 1)], 2).K == 2


def _scan_plan(maximal):
    s = Smoothness.from_indices(saturate(maximal))
    config = OrchestratorConfig(matrix_dims=(), composite_count=1)
    return run_construction(s, config).plan.sequence


DECODE_CASES = [pytest.param(ref_plan(K).sequence, K, id="S_ref-K%d" % K) for K in range(1, 8)] + [
    pytest.param(_scan_plan({(3, 0), (2, 1), (0, 2)}), 4, id="S3021"),
    pytest.param(_scan_plan({(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}), 4, id="d4"),
    pytest.param([(1,), (3,), (9,)], 3, id="ternary"),
    pytest.param([(10, 100), (126, 16000)], 2, id="K2"),
    pytest.param([(4, 16), (25, 640)], 2, id="small"),
]


@pytest.mark.parametrize("seq, K", DECODE_CASES)
def test_decode_matches_the_walk(seq, K):
    # greedy decoding against the brute-force dict, on every spectrum
    # point and its 2d l1-neighbours, and the expansion in walk order
    walk = riesz_walk(seq, K)
    mu = riesz_coeffs(seq, K)
    assert list(mu.coeffs.items()) == list(walk.items())
    dim = len(seq[0])
    for m in walk:
        assert mu.multiplier(m) == walk[m]
        for i in range(dim):
            for step in (-1, 1):
                v = m[:i] + (m[i] + step,) + m[i + 1:]
                assert mu.multiplier(v) == walk.get(v, 0.0)


def test_walk_certifies_random_lacunary_sequences():
    # the proofs in paleykit.riesz, checked by brute force: no collision
    # and no escape on lacunary sequences, ratio exactly 3 included
    rng = np.random.default_rng(19)
    for trial in range(60):
        d, K = 1 + trial % 4, 1 + trial % 5
        seq, first = [], 0
        for _ in range(K):
            first = int(rng.integers(1, 4)) if not seq else 3 * first + int(rng.integers(0, 3))
            seq.append((first,) + tuple(int(v) for v in rng.integers(1, 50, size=d - 1)))
        walk = riesz_walk(seq, K)
        mu = riesz_coeffs(seq, K)
        assert len(walk) == 3**K
        assert all(mu.multiplier(m) == c for m, c in walk.items())


def test_multiplier_off_dimension_and_at_k0():
    assert riesz_coeffs([(10, 100)], 1).multiplier((10,)) == 0.0
    mu = riesz_coeffs([(10, 100)], 0)
    assert mu.multiplier((0, 0)) == 1.0
    assert mu.multiplier((0,)) == 0.0
    assert mu.multiplier((10, 100)) == 0.0


def test_no_sign_pattern_walk(monkeypatch):
    calls = count_sign_patterns(monkeypatch)
    mu = riesz_coeffs(ref_plan(7).sequence, 7)
    assert [mu.multiplier(n) for n in mu.sequence] == [0.5] * 7
    assert calls == []


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
