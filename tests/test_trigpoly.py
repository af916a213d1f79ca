import math
import re

import numpy as np
import pytest

from paleykit import operators
from paleykit.multiindex import Smoothness, derivative_multiplier, saturate
from paleykit.trigpoly import (
    CHOP,
    ROOT_STEPS,
    ROOT_TAU,
    TrigPoly,
    largest_bin,
    lp_norm,
    paley_l2_norm,
    pinch_minorant,
    random_trigpoly,
    s1_l1_norm,
    sobolev_norm,
    trace_norm,
    trace_norms,
)

from helpers import (
    cell,
    coeff_bits,
    cos_factor_poly,
    grid_points,
    largest_bin_alone,
    polar_minorant,
    random_trigpoly_scalar_draws,
    trace_norms_masked,
)


def test_construction_and_cleanup():
    f = TrigPoly({(1, 0): 2.0, (0, 1): 0.0})
    assert f.spectrum() == {(1, 0)}
    assert f.coeff((0, 1)) == 0
    assert f.dim == 2 and f.mdim is None


def test_construction_errors():
    with pytest.raises(ValueError):
        TrigPoly({(1, 0): 1.0, (1,): 1.0})
    with pytest.raises(ValueError):
        TrigPoly({(1, 0): 1.0, (0, 1): np.eye(2)})
    with pytest.raises(ValueError):
        TrigPoly({})
    with pytest.raises(ValueError, match="need dim"):
        TrigPoly({(): 1.0})  # used to build a dim-0 polynomial
    assert len(TrigPoly({}, dim=2)) == 0


@pytest.mark.parametrize("name", ["dim", "mdim"])
@pytest.mark.parametrize("bad", [2.5, 2.0, 0, -1, True])
def test_sizes_must_be_positive_integers(name, bad):
    # dim 0 used to fail later in numpy ("cannot reshape" in s1_l1_norm),
    # and dim 2.5 or True to pass
    with pytest.raises(ValueError, match="need"):
        TrigPoly({}, **{"dim": 2, "mdim": 2, name: bad})
    f = TrigPoly({}, **{"dim": 2, "mdim": 2, name: np.int64(3)})
    assert type(getattr(f, name)) is int and getattr(f, name) == 3


def test_frequencies_are_never_truncated():
    # int() would turn these keys into (10, 100) and (1, 3)
    for key in ((10.7, 100), (True, 3), (np.float64(2.0), 0)):
        with pytest.raises(ValueError):
            TrigPoly({key: 1.0})
    f = TrigPoly({(np.int64(10), 100): 1.0})
    assert f.spectrum() == {(10, 100)}
    with pytest.raises(ValueError):
        f.coeff((10.7, 100))
    with pytest.raises(ValueError):
        TrigPoly({(1, 0): 1.0}, mdim=2)
    with pytest.raises(ValueError):
        TrigPoly({(1, 0): np.eye(3)}, mdim=2)


def test_matrix_zero_adds_back():
    f = TrigPoly({(1, 0): np.eye(2)})
    g = (f - f) + f
    assert g.mdim == 2
    assert np.array_equal(g.coeffs[(1, 0)], np.eye(2))


def test_matrix_zero_evaluates_to_matrices():
    f = TrigPoly({(1, 0): np.eye(2)})
    vals = (f - f).evaluate(3)
    assert vals.shape == (3, 3, 2, 2)
    assert not vals.any()


def test_matrix_constant_derivative_stays_matrix():
    z = TrigPoly({(0, 0): np.eye(2)}).derivative((1, 0))
    assert len(z) == 0 and z.mdim == 2
    assert np.array_equal(z.coeff((5, 5)), np.zeros((2, 2)))


def test_empty_results_keep_matrix_size():
    f = TrigPoly({(1, 0): 1e-16 * np.eye(3)})
    zero = TrigPoly({}, dim=2, mdim=3)
    g = TrigPoly({(2, 1): np.ones((3, 3))})
    for out in (f.chop(), 0.0 * g, zero.conj(), zero * g, g * zero,
                zero + zero, zero - zero, -zero):
        assert len(out) == 0 and out.mdim == 3, out
    with pytest.raises(ValueError):
        zero * TrigPoly({(1, 0): 1.0})
    with pytest.raises(ValueError):
        zero * TrigPoly({(1, 0): np.eye(2)})


def test_add_mul_scalar():
    f = TrigPoly({(1,): 1.0})
    g = TrigPoly({(1,): -1.0, (2,): 3.0})
    assert (f + g).spectrum() == {(2,)}
    assert (2.0 * f).coeff((1,)) == 2.0


@pytest.mark.parametrize("mdim", [None, 2])
def test_sum_and_product_drop_only_exact_zeros(mdim):
    # terms far below CHOP survive a sum and a product, so both stay
    # homogeneous; an exact cancellation is still dropped
    one = np.eye(mdim) if mdim else 1.0
    f = TrigPoly({(1, 1): one})
    g = TrigPoly({(2, 2): one})
    for t in (1e-16, 1e-100, -2.5):
        tf, tg = t * f, t * g
        assert coeff_bits(tf + tg) == coeff_bits(t * (f + g))
        assert coeff_bits(tf - tg) == coeff_bits(t * (f - g))
        assert coeff_bits(tf * g) == coeff_bits(t * (f * g))
        assert (tf + tg).spectrum() == {(1, 1), (2, 2)}
        assert (tf * tg).spectrum() == {(3, 3)}
    assert (TrigPoly({(1, 1): 1e-16}) + TrigPoly({(2, 2): 1e-16})).spectrum() == \
        {(1, 1), (2, 2)}
    assert len((1e-16 * f) - (1e-16 * f)) == 0


def test_product_is_convolution():
    f = cos_factor_poly((3,))
    g = cos_factor_poly((9,))
    h = f * g
    # cross terms at 3+9, 3-9, etc
    assert h.coeff((12,)) == 0.25
    assert h.coeff((-6,)) == 0.25
    assert h.coeff((0,)) == 1.0
    assert h.coeff((3,)) == 0.5


def test_product_matches_pointwise_values():
    rng = np.random.default_rng(7)
    f = random_trigpoly([(1, 0), (2, -1)], seed=1)
    g = random_trigpoly([(0, 1), (-1, 2)], seed=2)
    n = 4 * (f * g).maxfreq() + 1
    vf = f.evaluate(n)
    vg = g.evaluate(n)
    vfg = (f * g).evaluate(n)
    assert np.allclose(vfg, vf * vg, atol=1e-12)


def test_matrix_product_is_matmul():
    f = random_trigpoly([(1,), (0,)], mdim=2, seed=3)
    g = random_trigpoly([(1,), (-1,)], mdim=2, seed=4)
    n = 4 * (f * g).maxfreq() + 1
    vf = f.evaluate(n)
    vg = g.evaluate(n)
    vfg = (f * g).evaluate(n)
    assert np.allclose(vfg, np.matmul(vf, vg), atol=1e-12)


def test_conj_matches_values():
    f = random_trigpoly([(2, 1), (0, -1)], seed=5)
    n = 4 * f.maxfreq() + 1
    assert np.allclose(f.conj().evaluate(n), f.evaluate(n).conj(), atol=1e-13)
    fm = random_trigpoly([(1, 0)], mdim=3, seed=6)
    vm = fm.evaluate(5)
    vmc = fm.conj().evaluate(5)
    assert np.allclose(vmc, np.conj(np.swapaxes(vm, -1, -2)), atol=1e-13)


def test_derivative_multiplies_coefficients():
    f = TrigPoly({(3, 2): 1.0})
    g = f.derivative((1, 0))
    assert g.coeff((3, 2)) == 3j
    # exponent zero leaves zero coordinates alone
    h = TrigPoly({(0, 5): 2.0}).derivative((0, 1))
    assert h.coeff((0, 5)) == 10j
    # derivative of a constant along any axis vanishes
    z = TrigPoly({(0, 0): 1.0}).derivative((1, 0))
    assert len(z) == 0


@pytest.mark.parametrize("mdim", [None, 2])
def test_derivative_drops_only_exact_zeros(mdim):
    # along (1, 0) the term at (0, 3) vanishes exactly and is dropped,
    # while the terms below CHOP, at CHOP and far below it are kept
    coeffs = {(1, 0): 0.5 * CHOP, (2, 0): 0.5 * CHOP, (0, 3): 1.0,
              (5, 1): 0.4 * CHOP, (1, 1): 1e-20, (-3, 2): 0.25}
    if mdim:
        coeffs = {n: v * np.eye(mdim) for n, v in coeffs.items()}
    f = TrigPoly(coeffs)
    for gamma in ((1, 0), (0, 1), (2, 1), (0, 0)):
        built = TrigPoly({n: derivative_multiplier(gamma, n) * v
                          for n, v in f.coeffs.items()}, dim=2, mdim=mdim)
        once = f.derivative(gamma)
        assert once.mdim == built.mdim == mdim
        assert once.coeffs.keys() == built.coeffs.keys()
        for n, v in built.coeffs.items():
            assert np.array_equal(once.coeffs[n], v)
    assert set(f.derivative((1, 0)).coeffs) == set(coeffs) - {(0, 3)}


def naive_values(f, n):
    # sum_k c_k e^{i<k, x>} at every grid point, one coefficient at a time
    axes = np.meshgrid(*([grid_points(n)] * f.dim), indexing="ij")
    out = 0
    for k, c in f.coeffs.items():
        phase = np.exp(1j * sum(kj * x for kj, x in zip(k, axes)))
        out = out + (phase[..., None, None] * c if f.mdim else phase * c)
    return out


def test_evaluate_matches_naive_sum():
    f = random_trigpoly([(2, -1), (0, 3)], seed=13)
    vals = f.evaluate(7)
    ref = naive_values(f, 7)
    assert vals.shape == ref.shape
    assert np.max(np.abs(vals - ref)) < 1e-12


def test_direct_and_fft_agree():
    # the evaluator against a direct sum; N = 5 and 9 fold the frequency
    # span onto itself
    f = random_trigpoly([(0, 0), (1, 2), (-3, 1), (4, -4)], seed=11)
    for n in (5, 9, 17, 33):
        vals = f.evaluate(n)
        ref = naive_values(f, n)
        assert vals.shape == ref.shape
        assert np.max(np.abs(vals - ref)) < 1e-12


def test_direct_and_fft_agree_matrix():
    f = random_trigpoly([(1, 1), (-2, 0)], mdim=2, seed=12)
    vals = f.evaluate(9)
    ref = naive_values(f, 9)
    assert vals.shape == ref.shape
    assert np.max(np.abs(vals - ref)) < 1e-12


@pytest.mark.parametrize("freqs,n", [
    # d = 3: negative frequencies and 9, -7 beyond N = 5 fold
    ([(0, 0, 0), (1, -2, 3), (-3, 1, 0), (9, -7, 2), (2, 2, -4)], 5),
    ([(0, 0, 0), (1, -2, 3), (-3, 1, 0), (9, -7, 2), (2, 2, -4)], 11),
    # d = 1: 13 and -20 fold at N = 7
    ([(0,), (-1,), (3,), (13,), (-20,)], 7),
    ([(0,), (-1,), (3,), (13,), (-20,)], 41),
])
def test_evaluate_matrix_valued_matches_naive_sum(freqs, n):
    f = random_trigpoly(freqs, mdim=3, seed=14)
    vals = f.evaluate(n)
    ref = naive_values(f, n)
    assert vals.shape == ref.shape == (n,) * f.dim + (3, 3)
    assert np.max(np.abs(vals - ref)) < 1e-12


def test_evaluate_exact_at_huge_frequencies():
    # the residue mod N is taken in the integer frequency, so nothing is
    # lost to forming k * x in floating point
    n = 101
    t = np.arange(n)
    for k in (10**12 + 7, 10**17 + 3, 2**60 + 1):
        vals = TrigPoly({(k,): 1.0}).evaluate(n)
        ref = (-1) ** (k % 2) * np.exp(2j * np.pi * ((k % n) * t % n) / n)
        assert np.max(np.abs(vals - ref)) < 1e-12


def test_lp_norm_known_values():
    e = TrigPoly({(5,): 1.0})
    assert abs(lp_norm(e, 1) - 1.0) < 1e-12
    assert abs(lp_norm(e, 2) - 1.0) < 1e-12
    f = cos_factor_poly((1,))
    assert abs(lp_norm(f, 1) - 1.0) < 1e-12
    # the node x = -pi is always on the grid, so 1 - cos peaks exactly there
    h = TrigPoly({(0,): 1.0, (1,): -0.5, (-1,): -0.5})
    assert abs(lp_norm(h, math.inf) - 2.0) < 1e-12
    # sup of 1 + cos sits between nodes; a fine grid gets close
    assert abs(lp_norm(f, math.inf, n_points=2001) - 2.0) < 1e-4
    g = TrigPoly({(1,): 0.5, (-1,): 0.5})  # cos x
    assert abs(lp_norm(g, 2) - math.sqrt(0.5)) < 1e-12


@pytest.mark.parametrize("p", [0.5, 0, -1, -math.inf, math.nan])
def test_lp_norm_rejects_bad_p(p):
    with pytest.raises(ValueError):
        lp_norm(TrigPoly({(3,): 2.0}), p)


def test_parseval():
    f = random_trigpoly([(1, 1), (2, -3), (0, 2), (-1, 0)], seed=21)
    energy = sum(abs(c) ** 2 for c in f.coeffs.values())
    assert abs(lp_norm(f, 2) ** 2 - energy) < 1e-12


def test_quadrature_stable_under_doubling():
    f = random_trigpoly([(3, 1), (-2, 2)], seed=22)
    n = 2 * f.maxfreq() + 1
    a = lp_norm(f, 2, n_points=n)
    b = lp_norm(f, 2, n_points=2 * n)
    assert abs(a - b) < 1e-12


def test_trace_norm():
    a = np.diag([3.0, -4.0])
    assert abs(trace_norm(a) - 7.0) < 1e-12
    u = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
    assert abs(trace_norm(u) - 2.0) < 1e-12


def test_trace_norm_takes_one_matrix_of_any_shape():
    # ones((2, 3)) has rank one and Frobenius norm sqrt(6)
    assert trace_norm(np.ones((2, 3))) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    assert trace_norm(np.ones((3, 2))) == pytest.approx(math.sqrt(6.0), rel=1e-15)
    a = np.arange(12.0).reshape(3, 4) + 1j
    assert trace_norm(a) == np.linalg.svd(a, compute_uv=False).sum()
    for bad in (2.0, np.ones(3), np.ones((1, 2, 2))):
        with pytest.raises(ValueError, match="one matrix"):
            trace_norm(bad)


def test_trace_norms_checks_the_shape():
    # a non-square stack or one without matrix axes names its shape
    for bad in (np.ones((5, 2, 3)), np.ones(3), np.ones((2, 3, 0))):
        with pytest.raises(ValueError, match=r"square matrices.*%s" % re.escape(
                repr(bad.shape))):
            trace_norms(bad)
    # a 0 x 0 matrix has trace norm 0, in a stack of any shape
    for shape in ((0, 0), (3, 0, 0), (2, 4, 0, 0), (0, 0, 0)):
        got = trace_norms(np.zeros(shape, complex))
        assert got.shape == shape[:-2] and not got.any()
    assert trace_norm(np.zeros((0, 0))) == 0.0
    with pytest.raises(ValueError, match="one matrix"):
        trace_norm(np.ones((5, 2, 3)))


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_trace_norms_match_svd(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((4, 50, m, m)) + 1j * rng.standard_normal((4, 50, m, m))
    a *= 10.0 ** rng.uniform(-3, 3, size=(4, 50, 1, 1))
    got = trace_norms(a)
    ref = np.linalg.svd(a, compute_uv=False).sum(-1)
    assert got.shape == ref.shape == (4, 50)
    assert np.max(np.abs(got - ref) / ref) < 1e-13


@pytest.mark.parametrize("a", [
    np.array([[1.0, 2.0], [2.0, 4.0]]),  # singular, det = 0
    np.zeros((2, 2)),
    np.outer([1.0 + 1j, 0.5j], [2.0, 1.0 - 0.5j]),  # complex, rank one
    np.diag([3.0, -4.0]),
    np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2),  # Hadamard unitary
])
def test_trace_norms_2x2_edge_cases(a):
    a = np.asarray(a, dtype=complex)
    ref = np.linalg.svd(a, compute_uv=False).sum()
    assert abs(trace_norm(a) - ref) <= 1e-13 * ref


def _edge_cases(m):
    rng = np.random.default_rng(10 + m)
    g = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    rank_one = np.outer(g[0], g[1].conj())
    zero_column = g.copy()
    zero_column[:, m // 2] = 0
    # full rank, but below the conditioning guard: sigma_min^2 /
    # sigma_max^2 ~ 1e-11 < GRAM_TAU at m = 8, kappa < ROOT_TAU at m = 3, 4
    u, _ = np.linalg.qr(g)
    graded = (u * np.geomspace(1.0, 3e-6, m)) @ u.conj().T
    inf_entry = g.copy()
    inf_entry[1, 2] = np.inf
    return {"zero": np.zeros((m, m), dtype=complex), "rank_one": rank_one,
            "zero_column": zero_column, "graded": graded, "big": 1e200 * g,
            "tiny": 1e-200 * g, "inf": inf_entry}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_trace_norms_2x2_out_of_range_go_to_svd():
    # the closed form squares the entries: without the range guard 1e200
    # * a overflows to inf with a RuntimeWarning, and 1e-170 * a reads 0.0
    a = np.array([[1, 2], [3, 4j]])
    for scale in (1e200, 1e-170, 1e-200):
        ref = np.linalg.svd(scale * a, compute_uv=False).sum()
        assert abs(trace_norm(scale * a) - ref) <= 1e-13 * ref
    # in range the closed form stays, bit for bit, beside the SVD
    stack = np.array([a, 1e-300 * a, 1e100 * a])
    got = trace_norms(stack)
    sq = a.real**2 + a.imag**2
    want = np.sqrt(sq.sum() + 2.0 * abs(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]))
    assert got[0] == want and got[2] == trace_norm(1e100 * a)
    assert got[1] == trace_norm(1e-300 * a) > 0.0
    nan_entry = np.eye(2, dtype=complex)
    nan_entry[0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        trace_norms(np.array([np.eye(2), nan_entry]))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [3, 4, 8])
def test_trace_norms_edge_cases_match_svd(m):
    cases = _edge_cases(m)
    stack = np.array(list(cases.values()))
    got = trace_norms(stack)
    ref = np.linalg.svd(stack, compute_uv=False).sum(-1)
    for i, name in enumerate(cases):
        single = trace_norm(cases[name])
        if name == "inf":
            assert np.isnan(got[i]) and np.isnan(ref[i]) and np.isnan(single)
        else:
            assert abs(got[i] - ref[i]) <= 1e-13 * ref[i], name
            assert single == got[i], name
    nan_entry = np.eye(m, dtype=complex)
    nan_entry[0, 1] = np.nan
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.svd(nan_entry, compute_uv=False)
    with pytest.raises(np.linalg.LinAlgError):
        trace_norms(np.array([np.eye(m), nan_entry]))


U = np.finfo(float).eps / 2


def _with_spectrum(rng, sig):
    """Complex matrices W diag(sigma) V^H, one per row of sig, with W, V
    unitary from the QR factors of Gaussian matrices."""
    n, m = sig.shape
    g = rng.standard_normal((2, n, m, m)) + 1j * rng.standard_normal((2, n, m, m))
    w, v = np.linalg.qr(g)[0]
    return (w * sig[:, None, :]) @ v.conj().swapaxes(-1, -2)


def _kappa(sig):
    """prod_{i<j} (sigma_i + sigma_j) / (2 s / m)^{m(m-1)/2}, in (0, 1]:
    the conditioning of s = sum sigma_i as the root trace_norms finds."""
    m = sig.shape[-1]
    with np.errstate(invalid="ignore"):  # nan for a zero matrix
        sig = sig / (2.0 * sig.sum(-1, keepdims=True) / m)
    return np.prod([sig[..., i] + sig[..., j] for i in range(m) for j in range(i + 1, m)],
                   axis=0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("m", [3, 4])
def test_trace_norms_closed_form_matches_svd(m, monkeypatch):
    # the oracle for the m = 3, 4 closed form: the error bound c u / kappa
    # (c = 16 here, at most about 7 measured) above the conditioning
    # guard, the SVD below it and out of range, exact powers of two, and
    # no SVD at all for Gaussian matrices
    rng = np.random.default_rng(40 + m)
    gauss = rng.standard_normal((5000, m, m)) + 1j * rng.standard_normal((5000, m, m))
    gauss *= 10.0 ** rng.uniform(-3, 3, size=(5000, 1, 1))
    # spectra (1, d^{1/(m-1)}, ..., d), jittered, for d from 1 to 1e-12;
    # every fourth has sigma_m = 0, and every fourth from the second has
    # its middle values 1: kappa runs from about 1 to far below the guard
    decay = np.geomspace(1.0, 1e-12, 400)
    sig = np.ones((len(decay), m)) * np.exp(rng.uniform(-0.1, 0.1, (len(decay), m)))
    sig[:, 1:] *= decay[:, None] ** (np.arange(1, m) / (m - 1))
    sig[::4, -1] = 0.0
    sig[1::4, 1:-1] = 1.0
    graded = _with_spectrum(rng, sig) * 10.0 ** rng.uniform(-3, 3, size=(len(sig), 1, 1))
    g = gauss[0]
    rank_one = np.outer(g[0], g[1].conj())
    zero_column = g.copy()
    zero_column[:, 1] = 0
    # at 1e-80, m = 3, E_2 ~ 1e-320 is subnormal: only the E_1 range
    # guard sends it to the SVD
    edge = np.array([zero_column, rank_one, np.zeros((m, m)), 1e150 * g, 1e-150 * g,
                     1e-80 * g])
    stack = np.concatenate([gauss, graded, edge])
    ref = np.linalg.svd(stack, compute_uv=False)
    kappa = _kappa(ref)
    ref = ref.sum(-1)
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, *args, **kw: calls.append(np.array(a)) or svd(a, *args, **kw))
    got = trace_norms(stack)
    assert np.all(np.abs(got - ref) <= 16 * U / np.fmax(kappa, ROOT_TAU) * ref)
    # Gaussian matrices, and one with a zero column (rank m - 1, well
    # conditioned as a root), stay on the closed form; the graded ones
    # reach the guard; the other edge cases go to the SVD
    sent = {a.tobytes() for a in np.concatenate(calls)}
    assert not any(a.tobytes() in sent for a in gauss)
    assert 0.2 < np.mean([a.tobytes() in sent for a in graded]) < 0.8
    assert [a.tobytes() in sent for a in edge] == [False] + [True] * 5
    # a power of two scales every step exactly, in range
    for k in (-60, -8, 9, 60):
        assert np.array_equal(trace_norms(2.0**k * gauss[:50]), 2.0**k * got[:50])
    # a truncated iteration fails the convergence guard: the SVD answers
    calls.clear()
    monkeypatch.setitem(ROOT_STEPS, m, 2)
    short = trace_norms(gauss[:200])
    assert np.all(np.abs(short - ref[:200]) <= 1e-14 * ref[:200])
    assert np.array_equal(np.concatenate(calls), gauss[:200])
    # non-finite entries: the SVD's own answer
    inf_entry, nan_entry = g.copy(), g.copy()
    inf_entry[0, 1], nan_entry[0, 1] = np.inf, np.nan
    assert np.isnan(trace_norms(np.array([g, inf_entry]))[1])
    with pytest.raises(np.linalg.LinAlgError):
        trace_norms(np.array([g, nan_entry]))


@pytest.mark.parametrize("m", [2, 3, 4, 8])
def test_trace_norm_does_not_depend_on_the_stack(m):
    # one matrix gives the same bits alone, inside a stack, and in any
    # slicing of that stack across GRAM_BLOCK boundaries
    rng = np.random.default_rng(50 + m)
    stack = rng.standard_normal((700, m, m)) + 1j * rng.standard_normal((700, m, m))
    stack *= 10.0 ** rng.uniform(-3, 3, size=(700, 1, 1))
    g = stack[0]
    stack[255:259] = [np.zeros((m, m)), np.outer(g[0], g[1]), 1e200 * g, 1e-200 * g]
    whole = trace_norms(stack)
    for cuts in ([1, 300, 600], [255, 257], [100, 356, 612]):
        parts = [trace_norms(p) for p in np.split(stack, cuts)]
        assert np.array_equal(_bits(np.concatenate(parts)), _bits(whole))
    for i in range(0, 700, 23):
        assert _bits(trace_norm(stack[i])) == _bits(whole[i])


@pytest.mark.parametrize("m", [3, 4])
def test_closed_form_takes_no_eigenvalue(m, monkeypatch):
    def raise_(*args, **kwargs):
        raise AssertionError("eigvalsh called")

    monkeypatch.setattr(np.linalg, "eigvalsh", raise_)
    rng = np.random.default_rng(60 + m)
    a = rng.standard_normal((600, m, m)) + 1j * rng.standard_normal((600, m, m))
    ref = np.linalg.svd(a, compute_uv=False).sum(-1)
    assert np.max(np.abs(trace_norms(a) - ref) / ref) < 1e-14
    f = random_trigpoly([(1, 2), (3, -1), (0, 4)], mdim=m, seed=m)
    assert s1_l1_norm(f, 11) > 0.0
    assert largest_bin([f, f.derivative((1, 0))], 11)[0][0] > 0.0


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 8])
def test_trace_norms_match_the_masked_formulation_bitwise(m):
    # 700 matrices are three Gram blocks; the middle one holds every edge
    # case (inf, out-of-range Frobenius norms, ill-conditioned and zero
    # matrices), the outer two only ordinary rows, which skip the masks
    rng = np.random.default_rng(20 + m)
    stack = rng.standard_normal((700, m, m)) + 1j * rng.standard_normal((700, m, m))
    stack *= 10.0 ** rng.uniform(-3, 3, size=(700, 1, 1))
    if m >= 3:
        cases = list(_edge_cases(m).values())
    else:
        cases = [np.zeros((m, m)), 1e200 * stack[0], 1e-200 * stack[1],
                 np.outer(stack[2, 0], stack[3, 0])]
    stack[300:300 + len(cases)] = cases
    # any leading shape, and a block with no slow matrix at all
    for a in (stack, stack[:600].reshape(4, 150, m, m), stack[:256]):
        got, want = trace_norms(a), trace_norms_masked(a)
        assert got.shape == want.shape == a.shape[:-2]
        assert np.array_equal(_bits(got), _bits(want))
    if m >= 3:
        assert np.isnan(trace_norms(stack)[300 + list(_edge_cases(m)).index("inf")])
    if m >= 3:
        nan_entry = np.eye(m, dtype=complex)
        nan_entry[0, 1] = np.nan
        for norms in (trace_norms, trace_norms_masked):
            with pytest.raises(np.linalg.LinAlgError):
                norms(np.array([np.eye(m), nan_entry]))


def test_trace_norms_send_only_ill_conditioned_matrices_to_svd(monkeypatch):
    # an 8 x 8 probe stack on the 51 x 51 grid, kept well conditioned by a
    # dominant constant term
    rng = np.random.default_rng(5)
    coeffs = {(0, 0): 20.0 * np.eye(8)}
    for n in [(1, 2), (-3, 1), (2, -2)]:
        coeffs[n] = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    vals = TrigPoly(coeffs).evaluate(51)
    assert vals.shape == (51, 51, 8, 8)
    svd = np.linalg.svd
    ref = svd(vals, compute_uv=False).sum(-1)
    sent = []

    def counting(a, *args, **kwargs):
        sent.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    got = trace_norms(vals)
    assert sent == []
    assert np.max(np.abs(got - ref) / ref) < 1e-13

    bad = [(0, 0), (7, 30), (25, 25), (50, 50)]  # in different blocks
    for i, j in bad:
        vals[i, j, :, 3] = 0
    ref = svd(vals, compute_uv=False).sum(-1)
    sent.clear()
    got = trace_norms(vals)
    assert np.array_equal(np.concatenate(sent), np.array([vals[p] for p in bad]))
    assert np.max(np.abs(got - ref) / ref) < 1e-13


def test_s1_l1_scalar_matches_l1():
    f = random_trigpoly([(2,), (-1,)], seed=31)
    assert abs(s1_l1_norm(f) - lp_norm(f, 1)) < 1e-12


def test_s1_l1_constant_matrix():
    a = np.array([[1.0, 2.0], [0.0, 1.0]], dtype=complex)
    f = TrigPoly({(0,): a})
    assert abs(s1_l1_norm(f, n_points=4) - trace_norm(a)) < 1e-12


def bin_of(f, n_points=None):
    # largest_bin on f alone
    return largest_bin([f], n_points)[0]


@pytest.mark.parametrize("dim,n_grid", [(1, 7), (2, 7), (2, 51), (3, 5)])
@pytest.mark.parametrize("mdim", [None, 1, 2, 3, 4, 8])
def test_largest_bin_pass_matches_each_part_alone_bitwise(dim, n_grid, mdim):
    # the derivatives of one sample binned in one pass, with one
    # trace_norms call over all their bins, against each derivative
    # binned with a call of its own: frequencies up to 3N, so most of them
    # alias, a pair n, n + N e_1 sharing a bin, and the zero index, whose
    # derivatives other than the zeroth drop it
    rng = np.random.default_rng([dim, n_grid, mdim or 0])
    smoothness = Smoothness.from_indices(
        saturate({(2,) + (0,) * (dim - 1), (0,) * (dim - 1) + (1,)}))
    for trial in range(4):
        draw = rng.integers(-3 * n_grid, 3 * n_grid + 1, size=(40, dim))
        freqs = [tuple(int(c) for c in row) for row in draw]
        freqs += [(freqs[0][0] + n_grid,) + freqs[0][1:], (0,) * dim]
        f = random_trigpoly(freqs, mdim=mdim, seed=trial)
        parts = [f.derivative(g) for g in smoothness]
        parts.append(TrigPoly({}, dim=dim, mdim=mdim))
        for n_points in (n_grid, None):
            got = largest_bin(parts, n_points)
            assert len(got) == len(parts)
            for (low, top), part in zip(got, parts):
                want_low, want_top = largest_bin_alone(part, n_points)
                assert low.hex() == want_low.hex()
                if want_top is None:
                    assert top is None
                else:
                    assert np.array_equal(np.atleast_1d(top).view(np.int64),
                                          np.atleast_1d(want_top).view(np.int64))
    assert largest_bin([], 7) == []


@pytest.mark.parametrize("dim,mdim", [(1, None), (2, None), (3, None),
                                      (1, 3), (2, 2), (2, 4), (3, 1)])
def test_s1_l1_lower_bound_below_norm(dim, mdim):
    # frequencies up to 3N, so many of them share a bin mod N; each case
    # also holds a pair n, n + N e_1 whose coefficients cancel in their bin
    n_grid = 7
    rng = np.random.default_rng([dim, mdim or 0])
    for trial in range(20):
        draw = rng.integers(-3 * n_grid, 3 * n_grid + 1, size=(6, dim))
        freqs = [tuple(int(c) for c in row) for row in draw]
        f = random_trigpoly(freqs, mdim=mdim, seed=trial)
        n = freqs[0]
        twin = (n[0] + n_grid,) + n[1:]
        if twin not in f.coeffs:
            f = f + TrigPoly({twin: f.coeffs[n]}, dim=dim, mdim=mdim)
        lower = bin_of(f, n_grid)[0]
        assert 0.0 < lower <= s1_l1_norm(f, n_grid)
        assert bin_of(f)[0] <= s1_l1_norm(f)


def test_s1_l1_lower_bound_cases():
    # one bin: the bound is the norm; a bin that cancels contributes 0
    # (7 is odd, so e_3 and e_10 carry opposite signs on the 7-grid)
    a = np.array([[1.0, 2j], [0.5, -1.0]])
    f = TrigPoly({(3,): a, (10,): a, (-4,): 2.0 * a})
    assert bin_of(f, 7)[0] == pytest.approx(s1_l1_norm(f, 7), rel=1e-12)
    assert bin_of(f, 7)[0] == pytest.approx(2.0 * trace_norm(a), rel=1e-15)
    g = TrigPoly({(3,): 1.0, (10,): 1.0})
    assert bin_of(g, 7)[0] == 0.0
    assert s1_l1_norm(g, 7) < 1e-15
    assert bin_of(TrigPoly({}, dim=2, mdim=3), 5)[0] == 0.0
    with pytest.raises(ValueError):
        bin_of(g, 0)


@pytest.mark.parametrize("dim,n_grid", [(1, 7), (1, 301), (2, 7), (2, 51), (3, 5), (3, 9)])
@pytest.mark.parametrize("mdim", [1, 3, 8])
def test_polar_minorant_is_below_the_norm_with_mean_the_bound(dim, n_grid, mdim):
    # the oracle below the pinch minorant: frequencies up to 3N in
    # modulus, so on the small grids most of them alias, and each case
    # holds a pair n, n + N e_1 sharing a bin
    rng = np.random.default_rng([dim, n_grid, mdim])
    worst = 0.0
    for trial in range(6):
        draw = rng.integers(-3 * n_grid, 3 * n_grid + 1, size=(6, dim))
        freqs = [tuple(int(c) for c in row) for row in draw]
        freqs.append((freqs[0][0] + n_grid,) + freqs[0][1:])
        f = random_trigpoly(freqs, mdim=mdim, seed=trial)
        ell = polar_minorant(f, n_grid)
        exact = trace_norms(f.evaluate(n_grid)).reshape(-1)
        assert ell.shape == exact.shape
        assert np.all(ell <= exact * (1 + 1e-12))
        assert ell.mean() == pytest.approx(bin_of(f, n_grid)[0], rel=1e-12)
        worst = max(worst, float((ell / exact).max()))
    assert worst > 0.5  # a minorant that is merely 0 would pass the rest


def test_polar_minorant_of_zero_and_of_one_character():
    assert not polar_minorant(TrigPoly({}, dim=2, mdim=3), 5).any()
    # f = a e_n: ||f(x)||_1 = ||a||_1 at every node, and so is ell
    a = random_trigpoly([(4, -9)], mdim=3, seed=1)
    assert polar_minorant(a, 7) == pytest.approx(
        trace_norm(a.coeffs[(4, -9)]) * np.ones(49), rel=1e-12)


@pytest.mark.parametrize("dim,n_grid", [(1, 7), (1, 301), (2, 7), (2, 51), (3, 5), (3, 9)])
@pytest.mark.parametrize("mdim", [3, 4, 5, 8])
def test_pinch_minorant_lies_between_the_polar_minorant_and_the_norm(dim, n_grid, mdim):
    # the draws of the polar minorant's test
    rng = np.random.default_rng([dim, n_grid, mdim])
    worst = gain = 0.0
    for trial in range(6):
        draw = rng.integers(-3 * n_grid, 3 * n_grid + 1, size=(6, dim))
        freqs = [tuple(int(c) for c in row) for row in draw]
        freqs.append((freqs[0][0] + n_grid,) + freqs[0][1:])
        f = random_trigpoly(freqs, mdim=mdim, seed=trial)
        ell = pinch_minorant(f, bin_of(f, n_grid)[1], n_grid)
        exact = trace_norms(f.evaluate(n_grid)).reshape(-1)
        polar = polar_minorant(f, n_grid)
        assert ell.shape == exact.shape
        assert np.all(ell <= exact * (1 + 1e-12))
        assert np.all(ell >= polar - 1e-12 * exact.max())
        assert ell.mean() >= bin_of(f, n_grid)[0] * (1 - 1e-12)
        worst = max(worst, float((ell / exact).max()))
        gain = max(gain, ell.mean() / polar.mean())
    assert worst > 0.5  # a minorant that is merely 0 would pass the rest
    assert gain > 1.01  # and so would the polar minorant itself


@pytest.mark.parametrize("mdim", [3, 4, 5, 8])
def test_pinch_minorant_of_zero_and_of_one_character(mdim):
    zero = pinch_minorant(TrigPoly({}, dim=2, mdim=mdim), None, 5)
    assert zero.shape == (25,) and not zero.any()
    # f = a e_n: ||f(x)||_1 = ||a||_1 at every node, and W^H a V is the
    # diagonal of singular values, which the pinch keeps whole
    a = random_trigpoly([(4, -9)], mdim=mdim, seed=1)
    assert pinch_minorant(a, bin_of(a, 7)[1], 7) == pytest.approx(
        trace_norm(a.coeffs[(4, -9)]) * np.ones(49), rel=1e-12)


@pytest.mark.parametrize("dim,mdim,n_grid", [
    (2, 1, 51), (2, 2, 51), (2, 3, 7), (2, 4, 51), (2, 8, 51), (2, 8, 16),
    (1, 4, 1025), (3, 3, 13)])
def test_s1_l1_norm_is_the_mean_of_the_grid_trace_norms_bitwise(dim, mdim, n_grid):
    # one trace_norms call on the whole grid, and the Paley probe's exact
    # term, which cuts the grid into blocks of GRAM_BLOCK itself at
    # m >= 3 and checks a part-way bound before each; 16^2 is one block,
    # no other N^d is a multiple of GRAM_BLOCK
    freqs = [(1, 2, 0), (-3, 5, 1), (6, -6, 2), (2, 0, -4)]
    f = random_trigpoly([n[:dim] for n in freqs], mdim=mdim, seed=mdim)
    want = float(trace_norms(f.evaluate(n_grid)).mean())
    assert s1_l1_norm(f, n_grid).hex() == want.hex()
    ell = pinch_minorant(f, bin_of(f, n_grid)[1], n_grid) if mdim >= 3 else None
    # best = 0 never meets the skip rule
    got = operators._exact_term(1.0, cell(0.0), [0.0], 0, f, ell, n_grid)
    assert got.hex() == want.hex()


def test_sobolev_norm_single_frequency():
    S = Smoothness.from_indices(saturate({(1, 0)}))
    f = TrigPoly({(3, 2): 1.0})
    # |f| and |df/dx1| integrate to 1 and 3
    assert abs(sobolev_norm(f, S) - 4.0) < 1e-10


def test_paley_l2_single_frequency():
    S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
    f = TrigPoly({(10, 100): 2.0})
    q = 1 + 10**2 + 10**4 + 100**2
    got = paley_l2_norm(f, S, [(10, 100), (999, 999)])
    assert abs(got - 2.0 * math.sqrt(q)) < 1e-12


def test_paley_l2_counts_a_repeated_frequency_once():
    # the sum ran over the list, so a repeat counted twice: 292.17, a
    # factor sqrt(2) above 206.60
    S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
    f = random_trigpoly([(10, 100), (3, 4)], mdim=2, seed=1)
    once = paley_l2_norm(f, S, [(10, 100), (3, 4)])
    assert paley_l2_norm(f, S, [(10, 100), (3, 4), (10, 100), (3, 4)]) == once
    assert paley_l2_norm(f, S, [(10, 100), (10, 100)]) == paley_l2_norm(f, S, [(10, 100)])


def _checked(f, out):
    # through the checked constructor, as the derived operations were built
    return TrigPoly(out, dim=f.dim, mdim=f.mdim)


def _big(v, tol=CHOP):
    return (np.max(np.abs(v)) if isinstance(v, np.ndarray) else abs(v)) > tol


@pytest.mark.parametrize("mdim", [None, 3])
def test_derived_operations_match_the_checked_constructor(mdim):
    # the derived operations trust keys and shapes; they must store the
    # same keys and the same coefficient bits as the checked constructor
    f = random_trigpoly([(0, 2), (1, 0), (3, -4), (5, 5)], mdim=mdim, seed=2)
    g = random_trigpoly([(1, 0), (2, 2), (0, 2)], mdim=mdim, seed=3)
    g = g + TrigPoly({(3, -4): -f.coeffs[(3, -4)]})  # cancels on addition
    gamma = (1, 2)

    def adjoint(v):
        return v.conj().T if mdim else v.conjugate()

    add = dict(f.coeffs)
    for n, v in g.coeffs.items():
        add[n] = add[n] + v if n in add else v
    conv = {}
    for n1, v1 in f.coeffs.items():
        for n2, v2 in g.coeffs.items():
            key = (n1[0] + n2[0], n1[1] + n2[1])
            prod = v1 @ v2 if mdim else v1 * v2
            conv[key] = conv[key] + prod if key in conv else prod
    derived = {n: derivative_multiplier(gamma, n) * v for n, v in f.coeffs.items()}
    pairs = [
        (f.derivative(gamma),
         _checked(f, {n: v for n, v in derived.items() if _big(v)})),
        (f.chop(0.5), _checked(f, {n: v for n, v in f.coeffs.items() if _big(v, 0.5)})),
        (f.conj(), _checked(f, {(-n[0], -n[1]): adjoint(v) for n, v in f.coeffs.items()})),
        ((0.5 - 1.5j) * f, _checked(f, {n: (0.5 - 1.5j) * v for n, v in f.coeffs.items()})),
        (1e-16 * f, _checked(f, {n: 1e-16 * v for n, v in f.coeffs.items()})),
        (-f, _checked(f, {n: -v for n, v in f.coeffs.items()})),
        (0 * f, _checked(f, {n: 0 * v for n, v in f.coeffs.items()})),
        (f + g, _checked(f, add)),
        (f * g, _checked(f, conv)),
    ]
    for got, want in pairs:
        assert (got.dim, got.mdim) == (want.dim, want.mdim)
        assert coeff_bits(got) == coeff_bits(want)
    assert (3, -4) not in (f + g).coeffs and (0, 2) not in f.derivative(gamma).coeffs


def test_random_trigpoly_deterministic():
    f = random_trigpoly([(1, 2)], seed=9)
    g = random_trigpoly([(1, 2)], seed=9)
    assert f.coeffs == g.coeffs


@pytest.mark.parametrize("mdim", [None, 1, 3])
def test_random_trigpoly_matches_scalar_draws(mdim):
    # one draw per polynomial is the stream of one draw per part, so the
    # Paley probe's and the composite check's samples stay bit-identical;
    # a repeated frequency keeps its first place and its last value
    freqs = [(1, 2), (-3, 0), (7, 7), (1, 2), (0, 5)]
    for seed in (0, 9, 2**31 - 1):
        got = random_trigpoly(freqs, mdim=mdim, seed=seed)
        want = random_trigpoly_scalar_draws(freqs, mdim=mdim, seed=seed)
        assert (got.dim, got.mdim) == (want.dim, want.mdim)
        assert coeff_bits(got) == coeff_bits(want)


def test_random_trigpoly_needs_a_frequency():
    with pytest.raises(ValueError, match="at least one frequency"):
        random_trigpoly([])
    for mdim in (None, 2):
        with pytest.raises(ValueError, match="wrong dimension"):
            random_trigpoly([(1, 2), (3,)], mdim=mdim)
        with pytest.raises(ValueError, match="need dim"):
            random_trigpoly([()], mdim=mdim)


@pytest.mark.parametrize("mdim", [None, 3])
def test_scalar_multiple_is_homogeneous(mdim):
    # a scalar multiple drops only exact zeros: at 1e-16 no coefficient is
    # lost, so the Paley ratio is that of the polynomial itself
    f = random_trigpoly([(1, 2), (3, 4)], mdim=mdim, seed=1)
    S = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
    want = operators.paley_ratio(f, S, [(1, 2)], 51)
    for t in (1e-16, 1e-100, -2.5):
        g = t * f
        assert g.spectrum() == f.spectrum() == (-g).spectrum()
        assert operators.paley_ratio(g, S, [(1, 2)], 51) == pytest.approx(want, rel=1e-12)
    assert len(0.0 * f) == 0
