"""Reference constructions and probes shared by the tests; nothing in
paleykit uses them."""

import itertools
import math
import multiprocessing
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from paleykit import riesz
from paleykit.crnorm import MatrixSequence
from paleykit.errors import ConstructionError, InfeasibleError, StageFailure, UnboundedError
from paleykit.multiindex import Smoothness, int_tuple, saturate, symbol_abs_int, symbol_phase
from paleykit.operators import (
    _coeff_l2,
    _merge,
    _search_half,
    composite_closed_form,
    convolve_riesz,
    coordinate_projection,
    operator_m,
    paley_ratio,
)
from paleykit.sequence import (
    _admissible,
    ball_count,
    bk_radius,
    pattern_frequency,
    round_rational_power,
    sign_patterns,
    techprop_quantities,
)
from paleykit.serialization import to_jsonable
from paleykit.simplex import LPResult
from paleykit.trigpoly import FRO2_MAX, FRO2_MIN, GRAM_BLOCK, GRAM_TAU, TrigPoly, trace_norms


def grid_points(n):
    """The N quadrature nodes -pi + 2*pi*t/N on one axis."""
    return -np.pi + 2.0 * np.pi * np.arange(n) / n


def cos_factor_poly(n):
    """1 + cos<x, n> as a TrigPoly."""
    n = tuple(int(c) for c in n)
    neg = tuple(-c for c in n)
    return TrigPoly({(0,) * len(n): 1.0, n: 0.5, neg: 0.5})


def riesz_poly(measure):
    """A truncated Riesz product as a TrigPoly (symbolic expansion)."""
    coeffs = measure.coeffs
    return TrigPoly(coeffs, dim=len(next(iter(coeffs))))


def riesz_walk(sequence, K):
    """The brute-force Riesz expansion, an oracle for riesz_coeffs and
    RieszMeasure.multiplier: the coefficient dict of the K-term product,
    built in one walk over the 3^K sign patterns that also certifies
    claims A and B for any sequence, lacunary or not.

    Raises StageFailure("riesz", "claim_b_collision", {"patterns":
    (d', d)}) at the first pattern d whose first coordinate the earlier
    pattern d' already took.  An escape from claim A is raised only after
    the walk, as StageFailure("riesz", "claim_a_escape", {"frequency":
    m}) with the first escaping m, so a collision anywhere takes
    precedence.
    """
    sequence = tuple(int_tuple(n) for n in sequence)
    if K < 0 or K > len(sequence):
        raise ValueError("K must be between 0 and len(sequence)")
    dim = len(sequence[0]) if sequence else 1
    sequence = sequence[:K]
    radii = [bk_radius(sequence, k) for k in range(1, K + 1)]
    first_seen = {}
    escape = None
    coeffs = {}
    for d in sign_patterns(K):
        freq = pattern_frequency(sequence, d, dim)
        if freq[0] in first_seen:
            raise StageFailure("riesz", "claim_b_collision",
                               {"patterns": (first_seen[freq[0]], d)})
        first_seen[freq[0]] = d
        active = [k for k in range(K) if d[k]]
        if active and escape is None:
            # claim A fails: farther than D_k from n_k and from -n_k in l1
            center, radius = sequence[active[-1]], radii[active[-1]]
            if (sum(abs(a - b) for a, b in zip(freq, center)) > radius
                    and sum(abs(a + b) for a, b in zip(freq, center)) > radius):
                escape = freq
        coeffs[freq] = 2.0 ** (-len(active))
    if escape is not None:
        raise StageFailure("riesz", "claim_a_escape", {"frequency": escape})
    return coeffs


def count_sign_patterns(monkeypatch):
    """Count the walks over sign patterns that paleykit.riesz starts:
    returns the list that records K for each call."""
    calls = []
    original = riesz.sign_patterns

    def counted(K):
        calls.append(K)
        return original(K)

    monkeypatch.setattr(riesz, "sign_patterns", counted)
    return calls


def symbol_eval(gamma, x):
    """sigma_gamma(x) = i^{|gamma|} x^gamma as a float complex, 0 when
    any coordinate of x is zero (including gamma = 0): the float witness
    symbol's building block, an oracle that shares no formula with
    sequence.witness_numerator."""
    a = symbol_abs_int(gamma, x)
    if a == 0:
        return 0j
    return symbol_phase(gamma, x) * float(a)


def column_row_value(dec):
    """Value of one decomposition y + z: the trace norms of (sum y^* y)^{1/2}
    and (sum z z^*)^{1/2}, from the singular values of the (L m) x m
    column that stacks the y_k and the m x (L m) row of the z_k.  Square
    roots of Gram eigenvalues would not see the rank of a low-rank split:
    an eigenvalue that should be 0 reads about eps ||x||^2."""
    length, m, _ = dec.ys.shape
    col = dec.ys.reshape(length * m, m)
    row = dec.zs.transpose(1, 0, 2).reshape(m, length * m)
    return sum(float(np.linalg.svd(a, compute_uv=False).sum())
               for a in (col, row))


def matrixseq_to_json(ms):
    """The JSON form of a MatrixSequence that matrixseq_from_json reads."""
    return {"mdim": ms.mdim, "matrices": to_jsonable(ms.matrices)}


def stepwise_doubling(c, K, t0, q, max_doublings=10000):
    """The doubling of build_sequence one step at a time: for each k,
    t = t0 q^{k-1} doubled until n(t) is admissible.  Returns (ts,
    sequence, radii), or raises the ConstructionError build_sequence
    raises.  It is the oracle that the galloping search must match."""
    ts, points, radii = [], [], []
    d_running = 0
    for k in range(1, K + 1):
        t = Fraction(t0) * Fraction(q) ** (k - 1)
        doubles = 0
        while True:
            n = tuple(max(1, round_rational_power(t, cj)) for cj in c)
            if _admissible(n, points, d_running):
                break
            t *= 2
            doubles += 1
            if doubles > max_doublings:
                raise ConstructionError(
                    "doubling did not reach an admissible n_%d" % k
                )
        ts.append(t)
        radii.append(d_running)
        points.append(n)
        d_running += sum(n)
    return ts, points, radii


def composite_stagewise(f, pipeline):
    """P(mu_R * M f) one stage after the other, over the whole spectrum
    of f: the oracle that composite_apply must match bit for bit."""
    return coordinate_projection(
        convolve_riesz(operator_m(f, pipeline), pipeline.riesz), pipeline)


def composite_relative_error_stagewise(f, pipeline):
    """composite_relative_error through TrigPoly subtraction of the
    stage-by-stage composite and the closed form."""
    got = composite_stagewise(f, pipeline)
    want = composite_closed_form(f, pipeline)
    num = _coeff_l2(got - want)
    den = _coeff_l2(want) or _coeff_l2(f)
    return num / den if den else num


def random_trigpoly_scalar_draws(frequencies, mdim=None, seed=0):
    """random_trigpoly drawing the real and the imaginary part of each
    coefficient in turn, one call each."""
    rng = np.random.default_rng(seed)
    out = {}
    for n in frequencies:
        n = int_tuple(n)
        if mdim is None:
            out[n] = complex(rng.standard_normal() + 1j * rng.standard_normal()) / math.sqrt(2)
        else:
            re = rng.standard_normal((mdim, mdim))
            im = rng.standard_normal((mdim, mdim))
            out[n] = (re + 1j * im) / math.sqrt(2)
    return TrigPoly(out)


def coeff_bits(f):
    """The coefficients of f in order, each as its exact bits."""
    out = []
    for n, v in f.coeffs.items():
        if isinstance(v, np.ndarray):
            out.append((n, v.shape, v.tobytes()))
        else:
            out.append((n, v.real.hex(), v.imag.hex()))
    return out


def paley_oracle(smoothness, frequencies, sampler):
    """The per-m sup of estimate_paley_constant by the plain loop: every
    sample's full paley_ratio, the first index on ties.  Returns
    {m: (sup_ratio, argmax_index)}."""
    out = {}
    for m in sampler.mdims():
        ratios = [paley_ratio(sampler.draw(m, i), smoothness, frequencies,
                              n_points=sampler.grid_n)
                  for i in range(sampler.count)]
        best = max(range(sampler.count), key=ratios.__getitem__)
        out[m] = (ratios[best], best)
    return out


def cell(value=-math.inf):
    """A running best for the probe's search helpers that no other process
    shares, so the work they do does not depend on timing."""
    return multiprocessing.Value("d", value)


def search_in_halves(smoothness, frequencies, sampler):
    """estimate_paley_constant's per-m search in this process: the even
    half, then the odd half against the best the even half left in one
    cell per m; returns {m: (sup_ratio, argmax_index)}, merged as the
    probe merges them.  The work it does is the same on every run."""
    lam = [int_tuple(n) for n in frequencies]
    out = {}
    for m in sampler.mdims():
        best = cell()
        out[m] = _merge([_search_half(smoothness, lam, sampler, m, side, best)
                         for side in (0, 1)])
    return out


def bins_of(f, n):
    """B_r = sum_{n_k = r mod N} (-1)^{|n_k|} c_k, keyed by the residue
    r in [0, N)^d, in the order the residues first occur in f."""
    bins = {}
    for k, v in f.coeffs.items():
        r = tuple(c % n for c in k)
        v = -v if sum(k) % 2 else v
        bins[r] = bins[r] + v if r in bins else v
    return bins


def largest_bin_alone(f, n_points=None):
    """(||B||_1, B) for f's bin of largest trace norm, the first on ties,
    or (0.0, None), from f's bins alone and a trace-norm call of their
    own: the oracle for trigpoly.largest_bin, which norms the bins of
    several polynomials in one call."""
    bins = bins_of(f, f._grid_n(n_points))
    if not bins:
        return 0.0, None
    vals = np.array(list(bins.values()), dtype=complex)
    norms = trace_norms_masked(vals) if f.is_matrix_valued() else np.abs(vals)
    top = int(np.argmax(norms))
    return float(norms[top]), vals[top].copy()


def trace_norms_masked(a):
    """trigpoly.trace_norms in its plain form, the oracle for its fast
    paths: the m = 2 closed form through a reduction over both matrix
    axes, with out-of-range matrices masked out to the SVD, and at m >= 3
    the slow matrices masked out of every Gram block whether or not the
    block holds any."""
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    m = a.shape[-1]
    flat = a.reshape(-1, m, m)
    if m == 2:
        with np.errstate(all="ignore"):
            fro2 = np.sum(flat.real**2 + flat.imag**2, axis=(-2, -1))
            det = flat[:, 0, 0] * flat[:, 1, 1] - flat[:, 0, 1] * flat[:, 1, 0]
            out = np.sqrt(fro2 + 2.0 * np.abs(det))
        slow = ~((fro2 >= FRO2_MIN) & (fro2 <= FRO2_MAX))
        out[slow] = np.linalg.svd(flat[slow], compute_uv=False).sum(-1)
        return out.reshape(a.shape[:-2])
    out = np.empty(len(flat))
    for lo in range(0, len(flat), GRAM_BLOCK):
        blk = flat[lo:lo + GRAM_BLOCK]
        with np.errstate(all="ignore"):
            gram = blk.conj().swapaxes(-1, -2) @ blk
        fro2 = np.trace(gram, axis1=-2, axis2=-1).real
        slow = ~((fro2 >= FRO2_MIN) & (fro2 <= FRO2_MAX))
        gram[slow] = np.eye(m)
        lam = np.linalg.eigvalsh(gram)
        slow |= lam[:, 0] < GRAM_TAU * lam[:, -1]
        res = out[lo:lo + len(blk)]
        res[~slow] = np.sqrt(lam[~slow]).sum(-1)
        if slow.any():
            res[slow] = np.linalg.svd(blk[slow], compute_uv=False).sum(-1)
    return out.reshape(a.shape[:-2])


def polar_minorant(f, n_points=None):
    """Grid values, flattened in ``evaluate``'s order, of the polar
    minorant ell(x_t) = Re tr(U^H w^{-<r*,t>} f(x_t)) of a matrix-valued f,
    the oracle below trigpoly.pinch_minorant.

    B = B_{r*} is the bin of largest trace norm (see trigpoly.largest_bin)
    and U = W V^H the unitary polar factor of its SVD, so tr(U^H B) =
    ||B||_1.  Since |tr(V a)| <= ||a||_1 for every unitary V, ell <=
    ||f||_1 pointwise, and its grid mean keeps only the term r = r* of
    f(x_t) = sum_r B_r w^{<r,t>}, so it is ||B||_1.  On the
    grid w^{<n,t>} = (-1)^{|n|} e^{i<n,x_t>}, so ell is (-1)^{|r*|} times
    the real part of the scalar polynomial with coefficient tr(U^H c_k)
    at n_k - r*.
    """
    n = f._grid_n(n_points)
    bins = bins_of(f, n)
    if not bins:
        return np.zeros(n ** f.dim)
    keys = list(bins)
    r_star = keys[int(np.argmax(trace_norms(np.array([bins[r] for r in keys]))))]
    w, _, vh = np.linalg.svd(bins[r_star])
    u_adj = (w @ vh).conj().T
    g = TrigPoly({tuple(a - b for a, b in zip(k, r_star)): np.trace(u_adj @ c)
                  for k, c in f.coeffs.items()}, dim=f.dim)
    vals = g.evaluate(n).real.reshape(-1)
    return -vals if sum(r_star) % 2 else vals


def _offsets(d, budget):
    # offsets with l1 norm <= budget, lexicographic
    if d == 1:
        for e in range(-budget, budget + 1):
            yield (e,)
        return
    for e in range(-budget, budget + 1):
        for rest in _offsets(d - 1, budget - abs(e)):
            yield (e,) + rest


@dataclass
class RhoSampler:
    """Sweep configuration for estimate_rho_de.

    band: candidate base points n run over [rho, rho+band]^d.
    pair_cap: above this many (n, m) pairs the n's are subsampled
    deterministically.  rho_limit: give up past this candidate.
    """

    band: int = 16
    pair_cap: int = 500000
    seed: int = 0
    rho_limit: int = 2**20


def estimate_rho_de(S, D, eps, sampler=None):
    """Least rho in {2, 4, 8, ...} such that every tested pair (n, m)
    with min_j n(j) >= rho and |n - m|_1 <= D has q1 < eps and
    q2^2, q3^2 < eps^2.

    The sweep is restricted to the positive orthant: every |sigma_gamma|
    is even in each coordinate, so the quantities only depend on the
    coordinate magnitudes.  The answer is empirical (a sweep over a
    finite band), not a proof: it is the oracle that
    sequence.certified_rho bounds from above.
    """
    S = Smoothness.coerce(S)
    if D < 0 or not 0 < eps < 1:
        raise ValueError("need D >= 0 and eps in (0, 1)")
    sampler = sampler or RhoSampler()
    d = S.dim
    eps2 = eps * eps
    rho = 2
    tested = 0
    per_n = ball_count(d, D)
    while rho <= sampler.rho_limit:
        ok = True
        for n in _band_points(d, rho, sampler, per_n):
            for off in _offsets(d, D):
                m = tuple(a + b for a, b in zip(n, off))
                if any(c <= 0 for c in m):
                    continue
                q1, q2, q3 = techprop_quantities(S, m, n)
                tested += 1
                if q1 >= eps or q2 * q2 >= eps2 or q3 * q3 >= eps2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return {
                "rho": rho,
                "pairs_tested": tested,
                "band": sampler.band,
                "note": "empirical, not a proof",
            }
        rho *= 2
    raise ConstructionError(
        "no rho <= %d passed the (D=%d, eps=%g) sweep" % (sampler.rho_limit, D, eps)
    )


def _band_points(d, rho, sampler, per_n):
    axis = range(rho, rho + sampler.band + 1)
    total = (sampler.band + 1) ** d
    pts = itertools.product(*([axis] * d))
    if total * per_n <= sampler.pair_cap:
        yield from pts
        return
    keep = max(1, sampler.pair_cap // per_n)
    rng = np.random.default_rng(sampler.seed + rho)
    idx = set(rng.choice(total, size=min(keep, total), replace=False).tolist())
    for i, p in enumerate(pts):
        if i in idx:
            yield p


def _smoothed_objective(ys, zs, eps):
    c = np.einsum("kij,kil->jl", ys.conj(), ys)
    r = np.einsum("kij,klj->il", zs, zs.conj())
    wc = np.clip(np.linalg.eigvalsh((c + c.conj().T) / 2.0) + eps, 0.0, None)
    wr = np.clip(np.linalg.eigvalsh((r + r.conj().T) / 2.0) + eps, 0.0, None)
    return float(np.sqrt(wc).sum() + np.sqrt(wr).sum())


def _inv_sqrt(h, eps):
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    w = np.clip(w + eps, eps, None)
    return (v / np.sqrt(w)) @ v.conj().T


def _descend(x, ys, iterations, tolerance, eps):
    """Backtracking gradient descent in y (z is eliminated as x - y)."""
    zs = x - ys
    f = _smoothed_objective(ys, zs, eps)
    step = 1.0
    for _ in range(iterations):
        cinv = _inv_sqrt(np.einsum("kij,kil->jl", ys.conj(), ys), eps)
        rinv = _inv_sqrt(np.einsum("kij,klj->il", zs, zs.conj()), eps)
        grad = ys @ cinv - np.einsum("ij,kjl->kil", rinv, zs)
        gnorm2 = float(np.sum(np.abs(grad) ** 2))
        if gnorm2 <= tolerance**2:
            return ys
        t = step
        while t > 1e-14:
            cand = ys - t * grad
            fc = _smoothed_objective(cand, x - cand, eps)
            if fc < f - 1e-4 * t * gnorm2:
                break
            t /= 2.0
        else:
            return ys
        drop = f - fc
        ys, zs, f = cand, x - cand, fc
        step = min(1.0, 2.0 * t)
        if drop <= tolerance * max(abs(f), 1.0):
            return ys
    return ys


def cr_norm_descent(xs):
    """The C+R upper bound by smoothed descent from six starts (z = 0,
    y = 0, the even split, three seeded perturbations of it): the best
    unsmoothed value.  It is the oracle that crnorm.cr_norm's bracket
    must never lose to."""
    x = MatrixSequence.coerce(xs).matrices
    scale = math.sqrt(float(np.mean(np.abs(x) ** 2))) or 1.0
    starts = [x.copy(), np.zeros_like(x), x / 2.0]
    for r in range(3):
        rng = np.random.default_rng([0, r])
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        starts.append(x / 2.0 + 0.25 * scale * noise)
    finals = (_descend(x, ys0, 300, 1e-10, 1e-9) for ys0 in starts)
    return min(_smoothed_objective(ys, x - ys, 0.0) for ys in finals)


# every (m, L) with m <= 4 and L <= 8
KHINTCHINE_CELLS = [(m, length) for m in range(1, 5) for length in range(1, 9)]


def khintchine_cell_sample(seed, i):
    """Sample i of the benchmark's Khintchine workload: the (i mod 32)-th
    (m, L) cell, Gaussian entries from rng [seed, i]."""
    m, length = KHINTCHINE_CELLS[i % len(KHINTCHINE_CELLS)]
    rng = np.random.default_rng([seed, i])
    return [(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            / math.sqrt(2) for _ in range(length)]


def mixed_rank_sample(i):
    """Sample i of a seeded family x_k = g_k v^T + u h_k^T with u and v
    fixed and g_k, h_k Gaussian vectors, m in 2..8 and L in 1..16.  Each
    part has one shared side, so the C+R optimum splits x into a rank-one
    column part and a rank-one row part."""
    rng = np.random.default_rng([0, i])
    m, length = int(rng.integers(2, 9)), int(rng.integers(1, 17))

    def gauss():
        return (rng.standard_normal(m) + 1j * rng.standard_normal(m)) / math.sqrt(2)

    u, v = gauss(), gauss()
    return [np.outer(gauss(), v) + np.outer(u, gauss()) for _ in range(length)]


def random_sets(seed, count, max_size=20):
    """Downward closures of 2-3 sparse random points in d = 2..4, of at
    most ``max_size`` members.  The full pair scan solves one exact LP
    per member pair, about 1 ms each at 20 members."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        d = int(rng.integers(2, 5))
        tops = {tuple(int(v) * int(rng.random() < 0.4)
                      for v in rng.integers(1, 4, size=d))
                for _ in range(int(rng.integers(2, 4)))}
        idx = saturate(tops)
        if len(idx) <= max_size:
            out.append(Smoothness.from_indices(idx))
    return out


# witness and no-witness sets in d = 1..4, S_ref first
FIXED_SETS = [
    Smoothness.from_indices(saturate({(2, 0), (0, 1)})),
    Smoothness.from_indices(saturate({(2, 0, 0), (0, 1, 0), (0, 0, 2)})),
    Smoothness.from_indices(saturate({(2, 0), (0, 3)})),
    Smoothness.from_indices(saturate({(3, 0), (1, 1), (0, 2)})),
    Smoothness.from_indices(saturate({(1, 1)})),
    Smoothness.from_indices(saturate({(3,)})),
    Smoothness.from_indices(saturate({(1, 0, 0, 0), (0, 2, 0, 0),
                                      (0, 0, 1, 1)})),
]

def _frac_matrix(rows, width):
    out = []
    for row in rows:
        r = [Fraction(v) for v in row]
        if len(r) != width:
            raise ValueError("row of length %d, expected %d" % (len(r), width))
        out.append(r)
    return out


def _frac_pivot(rows, cost, basis, r, c):
    piv = rows[r][c]
    rows[r] = [v / piv for v in rows[r]]
    for i in range(len(rows)):
        if i != r and rows[i][c] != 0:
            f = rows[i][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
    if cost[c] != 0:
        f = cost[c]
        for j in range(len(cost)):
            cost[j] -= f * rows[r][j]
    basis[r] = c


def _frac_simplex(rows, cost, basis, ncols):
    while True:
        enter = -1
        for j in range(ncols):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            return
        leave = -1
        best = None
        for i, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leave]
                ):
                    best = ratio
                    leave = i
        if leave < 0:
            raise UnboundedError("objective unbounded along column %d" % enter)
        _frac_pivot(rows, cost, basis, leave, enter)


def lp_solve_fractions(objective, a_ub=(), b_ub=(), a_eq=(), b_eq=(),
                       maximize=False):
    """simplex.lp_solve on a tableau of Fractions, with the artificial
    columns stored and every pivot dividing through: the same two phases
    and the same Bland pivot order, one gcd per entry and pivot.  It is
    the oracle that the integer tableau must match in value, solution and
    exception."""
    nvar = len(objective)
    c_obj = [Fraction(v) for v in objective]
    if maximize:
        c_obj = [-v for v in c_obj]
    a_ub = _frac_matrix(a_ub, nvar)
    a_eq = _frac_matrix(a_eq, nvar)
    b_ub = [Fraction(v) for v in b_ub]
    b_eq = [Fraction(v) for v in b_eq]
    if len(b_ub) != len(a_ub) or len(b_eq) != len(a_eq):
        raise ValueError("constraint matrix / rhs length mismatch")

    nslack = len(a_ub)
    m = len(a_ub) + len(a_eq)
    nstruct = 2 * nvar + nslack
    ncols = nstruct + m
    rows = []
    for k, (arow, rhs) in enumerate(
        list(zip(a_ub, b_ub)) + list(zip(a_eq, b_eq))
    ):
        row = []
        for v in arow:
            row.extend((v, -v))
        for s in range(nslack):
            row.append(Fraction(1 if (k < nslack and s == k) else 0))
        row.extend([Fraction(0)] * m)
        row.append(rhs)
        if rhs < 0:
            row = [-v for v in row]
        row[nstruct + k] = Fraction(1)
        rows.append(row)
    basis = [nstruct + k for k in range(m)]

    cost = [Fraction(0)] * (ncols + 1)
    for j in range(nstruct):
        cost[j] = -sum(row[j] for row in rows)
    cost[-1] = -sum(row[-1] for row in rows)
    _frac_simplex(rows, cost, basis, nstruct)
    if -cost[-1] != 0:
        raise InfeasibleError("phase-1 optimum %s > 0" % (-cost[-1],))
    for i in reversed(range(len(rows))):
        if basis[i] >= nstruct:
            pivot_col = next(
                (j for j in range(nstruct) if rows[i][j] != 0), None
            )
            if pivot_col is None:
                del rows[i]
                del basis[i]
            else:
                _frac_pivot(rows, cost, basis, i, pivot_col)

    full = [Fraction(0)] * (ncols + 1)
    for i in range(nvar):
        full[2 * i] = c_obj[i]
        full[2 * i + 1] = -c_obj[i]
    cost = list(full)
    for i, row in enumerate(rows):
        cb = full[basis[i]]
        if cb != 0:
            for j in range(ncols + 1):
                cost[j] -= cb * row[j]
    for k in range(nstruct, ncols):
        cost[k] = Fraction(0)
    _frac_simplex(rows, cost, basis, nstruct)

    assign = [Fraction(0)] * ncols
    for i, b in enumerate(basis):
        assign[b] = rows[i][-1]
    x = [assign[2 * i] - assign[2 * i + 1] for i in range(nvar)]
    value = -cost[-1]
    if maximize:
        value = -value
    return LPResult(value=value, x=x)
