import math

import numpy as np
import pytest

from paleykit import crnorm
from paleykit.crnorm import (
    GAP_TOLERANCE,
    MAX_ITERATIONS,
    CrNormResult,
    Decomposition,
    MatrixSequence,
    cr_norm,
    khintchine_envelope,
    khintchine_ratio,
)
from paleykit.trigpoly import trace_norm

from helpers import (
    KHINTCHINE_CELLS,
    column_row_value,
    cr_norm_descent,
    khintchine_cell_sample,
    mixed_rank_sample,
)


def test_matrix_sequence_validation():
    ms = MatrixSequence([1.0, 2.0j])
    assert ms.length == 2 and ms.mdim == 1
    with pytest.raises(ValueError):
        MatrixSequence([])
    with pytest.raises(ValueError):
        MatrixSequence([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError):
        MatrixSequence([np.ones((2, 3))])


def test_matrix_sequence_rejects_empty_matrices():
    # cr_norm used to fail inside numpy, on a reduction with no identity
    with pytest.raises(ValueError, match=r"\(0, 0\)"):
        MatrixSequence([np.zeros((0, 0))])
    with pytest.raises(ValueError, match="1 x 1"):
        cr_norm([np.zeros((0, 0)), np.zeros((0, 0))])


def test_decomposition_shape_check():
    with pytest.raises(ValueError):
        Decomposition(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))


def test_column_row_pure_values():
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    stack = x[None]
    zero = np.zeros_like(stack)
    # both pure splits of a single matrix give its trace norm
    assert column_row_value(Decomposition(stack, zero)) == pytest.approx(
        trace_norm(x), rel=1e-12)
    assert column_row_value(Decomposition(zero, stack)) == pytest.approx(
        trace_norm(x), rel=1e-12)


def _assert_exact_bracket(r, want):
    assert abs(r.value - want) <= 1e-9 * want
    assert abs(r.lower - want) <= 1e-9 * want
    assert r.lower <= r.value
    assert r.gap <= GAP_TOLERANCE and r.converged


def test_scalar_pair_is_euclidean():
    r = cr_norm([3.0, 4.0])
    assert isinstance(r, CrNormResult)
    _assert_exact_bracket(r, 5.0)


def test_scalar_sequences_match_l2():
    rng = np.random.default_rng(1)
    for _ in range(20):
        length = int(rng.integers(1, 17))
        xs = [complex(a, b) for a, b in rng.standard_normal((length, 2))]
        _assert_exact_bracket(cr_norm(xs),
                              math.sqrt(sum(abs(c) ** 2 for c in xs)))


def test_single_matrix_is_trace_norm():
    rng = np.random.default_rng(2)
    for m in range(1, 9):
        x = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        _assert_exact_bracket(cr_norm([x]), trace_norm(x))


def test_solver_never_loses_to_pure_splits():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            for _ in range(4)]
    ms = MatrixSequence(mats)
    zero = np.zeros_like(ms.matrices)
    col = column_row_value(Decomposition(ms.matrices, zero))
    row = column_row_value(Decomposition(zero, ms.matrices))
    r = cr_norm(ms)
    assert r.value <= min(col, row) + 1e-12
    got = column_row_value(r.decomposition)
    assert got == pytest.approx(r.value, rel=1e-12)
    recon = r.decomposition.ys + r.decomposition.zs
    assert np.allclose(recon, ms.matrices, atol=1e-12)


def test_homogeneity():
    rng = np.random.default_rng(4)
    mats = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            for _ in range(3)]
    v1 = cr_norm(mats).value
    v2 = cr_norm([2.5 * m for m in mats]).value
    assert abs(v2 - 2.5 * v1) < 1e-6


def test_triangle_inequality():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for _ in range(3)]
        b = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
             for _ in range(3)]
        va = cr_norm(a).value
        vb = cr_norm(b).value
        vab = cr_norm([x + y for x, y in zip(a, b)]).value
        assert vab <= va + vb + 1e-6


def test_shared_column_split_beats_row():
    e11 = np.zeros((2, 2), complex)
    e11[0, 0] = 1.0
    e21 = np.zeros((2, 2), complex)
    e21[1, 0] = 1.0
    # the pure column split gives sqrt(2), the pure row split gives 2,
    # and a = x / sqrt(2) has R cap C norm 1 and pairs to sqrt(2)
    _assert_exact_bracket(cr_norm([e11, e21]), math.sqrt(2))


def test_zero_sequence_bracket():
    r = cr_norm([np.zeros((2, 2)), np.zeros((2, 2))])
    assert (r.value, r.lower, r.gap, r.iterations) == (0.0, 0.0, 0.0, 0)
    assert r.converged


# seed 0 round 0 covers every (m, L) cell once
ORACLE_SAMPLES = [(0, i) for i in range(len(KHINTCHINE_CELLS))] + [(1, 89)]
# samples with rank-deficient optima, and the values at which smoothed
# reweighted least squares stopped on them, at its 3000-step cap
FORMERLY_CAPPED = {(0, 18): 8.45141839, (0, 25): 11.2372103,
                   (1, 89): 9.85166989}
ORACLE_IDS = ["seed%d-%d" % s for s in ORACLE_SAMPLES]


@pytest.mark.parametrize("seed,index", ORACLE_SAMPLES, ids=ORACLE_IDS)
def test_cr_norm_never_loses_to_descent(seed, index):
    xs = khintchine_cell_sample(seed, index)
    oracle = cr_norm_descent(xs)
    r = cr_norm(xs)
    assert r.lower <= oracle * (1 + 1e-12)
    assert r.value <= oracle * (1 + 1e-9)
    assert r.lower <= r.value
    assert r.converged and r.gap <= GAP_TOLERANCE
    assert r.iterations < MAX_ITERATIONS
    if (seed, index) in FORMERLY_CAPPED:
        assert r.value < FORMERLY_CAPPED[seed, index]


@pytest.mark.parametrize("seed,index", ORACLE_SAMPLES, ids=ORACLE_IDS)
def test_value_is_its_split_by_singular_values(seed, index):
    # the split attains the value to rounding, and no Gram eigenvalue
    # stands in for a singular value that should be 0
    r = cr_norm(khintchine_cell_sample(seed, index))
    split = column_row_value(r.decomposition)
    assert abs(r.value - split) <= 1e-12 * split
    assert r.lower <= split


def test_oracle_step_budget():
    # 549 steps with Anderson acceleration, 1104 without it at RELAXATION
    # 1.5; the unrelaxed update took 1825
    total = sum(cr_norm(khintchine_cell_sample(*s)).iterations
                for s in ORACLE_SAMPLES)
    assert total <= 600


def test_mixed_rank_step_budget():
    # 692 steps with Anderson acceleration, 1060 without it at RELAXATION
    # 1.5 and 1423 unrelaxed; a factor of 1.7 took 1579 without it
    total = sum(cr_norm(mixed_rank_sample(i)).iterations for i in range(40))
    assert total <= 750


def test_single_matrices_keep_their_few_steps():
    # the 40 L = 1 cells of each of seeds 0 and 1, rounds 0-9, took
    # 127 + 111 steps before Anderson acceleration and 129 + 110 with it.  Their
    # residual often keeps its norm while w drifts, so the differences of
    # residuals are rounding noise.  Without the rank test they take
    # 141 + 120 steps, and without the safeguard as well one seed-1 cell
    # stalls at the cap
    total = sum(cr_norm(khintchine_cell_sample(seed, i)).iterations
                for seed in (0, 1) for i in range(0, 320, 8))
    assert total <= 245


@pytest.mark.parametrize("seed,index", [(0, 27), (0, 31), (1, 89)])
def test_extrapolations_that_raise_the_residual_are_dropped(monkeypatch, seed, index):
    # an Anderson point 100 plain steps ahead raises the residual; the
    # safeguard drops each one for the plain step, so the run is the
    # unaccelerated one with a wasted step after each plain one (640
    # steps against 321 for (1, 89)); keeping them, the gap never closes
    xs = khintchine_cell_sample(seed, index)
    monkeypatch.setattr(crnorm, "_anderson",
                        lambda w, g, res, dws, dgs, kept: w + 100.0 * g if kept else None)
    r = cr_norm(xs)
    assert r.converged and r.lower <= r.value
    assert r.value <= cr_norm_descent(xs) * (1 + 1e-9)


def test_rank_deficient_history_gives_the_plain_step():
    rng = np.random.default_rng(8)

    def gauss(*lead):
        shape = lead + (3, 2, 2)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    w, g, dws, dgs = gauss(), gauss(), gauss(crnorm.MEMORY), gauss(crnorm.MEMORY)
    res = float(np.vdot(g, g).real)
    # gamma is the real least-squares fit of g by the differences
    # read as real vectors
    cols = np.stack([d.view(float).ravel() for d in dgs[:3]], 1)
    gamma = np.linalg.lstsq(cols, g.view(float).ravel(), rcond=None)[0]
    want = w + g - np.tensordot(gamma, dws[:3] + dgs[:3], 1)
    assert np.allclose(crnorm._anderson(w, g, res, dws, dgs, 3), want,
                       rtol=1e-12, atol=1e-12)
    assert crnorm._anderson(w, g, res, dws, dgs, 0) is None
    repeated, nearly, zero_row = dgs.copy(), dgs.copy(), dgs.copy()
    repeated[1] = dgs[0]
    nearly[1] = dgs[0] + 1e-6 * dgs[2]
    zero_row[2] = 0.0
    for bad in (repeated, nearly, zero_row, np.zeros_like(dgs)):
        assert crnorm._anderson(w, g, res, dws, bad, 3) is None
    # a zero history at a fixed point: its Gram matrix is 0, and nothing raises
    assert crnorm._anderson(w, 0.0 * g, 0.0, dws, np.zeros_like(dgs), 2) is None


def test_repeated_calls_are_bit_identical():
    # no state survives a call, so a sample of the same shape in between
    # changes nothing
    xs = khintchine_cell_sample(0, 31)
    first = cr_norm(xs)
    cr_norm(khintchine_cell_sample(0, 63))
    again = cr_norm(xs)
    assert (again.value, again.lower, again.iterations) == \
        (first.value, first.lower, first.iterations)
    assert np.array_equal(again.decomposition.ys, first.decomposition.ys)


def _spread_sample(decades, m=2, length=4):
    # complex Gaussian terms scaled by logspace(0, decades, length)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((length, m, m)) + 1j * rng.standard_normal((length, m, m))
    return x * np.logspace(0, decades, length)[:, None, None]


@pytest.mark.parametrize("decades", [2, 3])
def test_terms_up_to_three_decades_apart_converge(decades):
    # at the cap without acceleration, with gaps 4.4e-10 and 1.9e-6; now
    # 35 and 51 steps
    x = _spread_sample(decades)
    r = cr_norm(x)
    assert r.converged and r.iterations <= 100
    assert r.lower <= r.value
    assert r.value <= cr_norm_descent(x) * (1 + 1e-9)


def test_unconverged_bracket_stays_sound():
    # terms six decades apart: one fixed step t cannot close the gap
    x = _spread_sample(6)
    r = cr_norm(x)
    assert r.converged is False
    assert r.iterations == MAX_ITERATIONS
    assert r.lower <= r.value
    zero = np.zeros_like(x)
    assert r.value <= column_row_value(Decomposition(x, zero))
    assert r.value <= column_row_value(Decomposition(zero, x))
    assert r.value >= max(trace_norm(a) for a in x) * (1 - 1e-12)


def test_large_and_tiny_scalars():
    for scale in (1e300, 1e-300):
        r = cr_norm([scale, scale])
        want = math.sqrt(2.0) * scale
        assert abs(r.value - want) <= 1e-15 * want
        assert abs(r.lower - want) <= 1e-15 * want
        assert r.converged
        assert khintchine_ratio([scale, scale], [1, 3]) == pytest.approx(
            khintchine_ratio([1.0, 1.0], [1, 3]), rel=1e-12)
    # sqrt(2) * 1.7e308 is beyond double range
    with pytest.raises(OverflowError):
        cr_norm([1.7e308, 1.7e308])


@pytest.mark.parametrize("k", [-600, 0, 600])
def test_power_of_two_scaling_is_exact(k):
    xs = np.array(khintchine_cell_sample(0, 26))
    r = cr_norm(xs)
    scaled = cr_norm(2.0 ** k * xs)
    assert scaled.value == math.ldexp(r.value, k)
    assert scaled.lower == math.ldexp(r.lower, k)
    assert scaled.iterations == r.iterations
    assert np.array_equal(scaled.decomposition.ys, 2.0 ** k * r.decomposition.ys)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
def test_non_finite_entries_are_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        MatrixSequence([1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        cr_norm([np.eye(2), np.full((2, 2), bad)])


def test_khintchine_single_character():
    rng = np.random.default_rng(6)
    x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert khintchine_ratio([x], [5]) == pytest.approx(1.0, rel=1e-9)


def test_khintchine_scalar_anchor():
    got = khintchine_ratio([1.0, 1.0, 1.0], [1, 3, 9])
    assert got == pytest.approx(0.9097709204572367, rel=1e-9)
    assert 0.0 < got <= math.sqrt(3.0)


def test_khintchine_scale_invariance():
    xs = [1.0 + 2.0j, -0.5, 3.0]
    r1 = khintchine_ratio(xs, [2, 5, 11])
    r2 = khintchine_ratio([10.0 * c for c in xs], [2, 5, 11])
    assert r1 == pytest.approx(r2, rel=1e-6)


def test_khintchine_validation():
    with pytest.raises(ValueError):
        khintchine_ratio([1.0, 1.0], [3, 3])
    with pytest.raises(ValueError):
        khintchine_ratio([1.0, 1.0], [3])
    with pytest.raises(ValueError):
        khintchine_ratio([1.0], [0])
    with pytest.raises(ValueError):
        khintchine_ratio([0.0, 0.0], [1, 3])
    # int() would read these as [1, 3] and return that ratio
    for freqs in ([1.5, 3], [True, 3]):
        with pytest.raises(ValueError):
            khintchine_ratio(MatrixSequence([np.eye(2), np.eye(2)]), freqs)
    assert khintchine_ratio([np.eye(2), np.eye(2)], np.array([1, 3])) == \
        khintchine_ratio([np.eye(2), np.eye(2)], [1, 3])


def test_khintchine_envelope_anchor():
    env = khintchine_envelope(count=5, seed=0)
    assert env["k_hat"] == pytest.approx(1.135355259285976, rel=1e-9)
    assert env["max_ratio"] <= env["k_hat"] + 1e-12
    assert env["min_ratio"] >= 1.0 / env["k_hat"] - 1e-12
    assert len(env["ratios"]) == len(env["brackets"]) == 5
    assert all(lower <= value for lower, value in env["brackets"])


def test_khintchine_envelope_prefix_stable():
    # per-sample streams depend only on (seed, index)
    e3 = khintchine_envelope(count=3, seed=0)
    e5 = khintchine_envelope(count=5, seed=0)
    assert e3["ratios"] == e5["ratios"][:3]


@pytest.mark.parametrize("kwargs", [
    {"count": 0}, {"count": True}, {"count": 2.0}, {"max_mdim": 0},
    {"max_length": 0},
], ids=["count-0", "count-bool", "count-float", "max_mdim-0", "max_length-0"])
def test_khintchine_envelope_validation(kwargs):
    name = next(iter(kwargs))
    with pytest.raises(ValueError, match="need %s|need integers" % name):
        khintchine_envelope(**kwargs)
