"""The C+R norm on finite matrix sequences.

For x = (x_1..x_L) of m x m matrices the norm is the infimum of

    || (sum_k y_k^* y_k)^{1/2} ||_S1  +  || (sum_k z_k z_k^*)^{1/2} ||_S1

over decompositions x_k = y_k + z_k.  ``cr_norm`` brackets it: an upper
bound attained by a decomposition, from Douglas-Rachford splitting, and
a lower bound from a dual certificate in R cap C, so the reported gap is
proved, not estimated.  For scalar sequences the norm is the plain l2
norm and for L = 1 the trace norm; both ends of the bracket meet there.

Also here: empirical Khintchine ratios for lacunary one-variable series
with these matrix coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import int_at_least, int_tuple
from .trigpoly import TrigPoly, s1_l1_norm

# relative gap (value - lower) / value that counts as converged
GAP_TOLERANCE = 1e-10
# Douglas-Rachford steps before cr_norm returns its bracket unconverged
MAX_ITERATIONS = 3000
# over-relaxation factor of the Douglas-Rachford update, in (0, 2)
RELAXATION = 1.5


class MatrixSequence:
    """A finite list of complex square matrices of one common size, with
    finite entries.

    Scalars are accepted and treated as 1 x 1 matrices.
    """

    def __init__(self, matrices):
        mats = []
        for x in matrices:
            a = np.asarray(x, dtype=complex)
            if a.ndim == 0:
                a = a.reshape(1, 1)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError("entries must be square matrices or scalars")
            mats.append(a)
        if not mats:
            raise ValueError("need at least one matrix")
        if len({a.shape for a in mats}) != 1:
            raise ValueError("all matrices must share one dimension")
        self.matrices = np.stack(mats)
        if not np.isfinite(self.matrices).all():
            raise ValueError("entries must be finite")

    @classmethod
    def coerce(cls, xs):
        if isinstance(xs, cls):
            return xs
        return cls(xs)

    @property
    def length(self):
        return self.matrices.shape[0]

    @property
    def mdim(self):
        return self.matrices.shape[1]


@dataclass
class Decomposition:
    """A split x_k = y_k + z_k, stored as two stacked arrays."""

    ys: np.ndarray
    zs: np.ndarray

    def __post_init__(self):
        self.ys = np.asarray(self.ys, dtype=complex)
        self.zs = np.asarray(self.zs, dtype=complex)
        if self.ys.shape != self.zs.shape:
            raise ValueError("y and z parts must have matching shapes")


def _col(a):
    """The matrices of a stacked into one (L m) x m column."""
    return a.reshape(-1, a.shape[-1])


def _row(a):
    """The matrices of a side by side in one m x (L m) row."""
    return a.transpose(1, 0, 2).reshape(a.shape[1], -1)


def _gram_pair(a, out):
    """Write sum_k a_k^* a_k into out[0] and sum_k a_k a_k^* into out[1]."""
    col, row = _col(a), _row(a)
    np.matmul(col.conj().T, col, out=out[0])
    np.matmul(row, row.conj().T, out=out[1])
    return out


def _trace_norm(a):
    """The trace norm of a from its singular values."""
    return float(np.linalg.svd(a, compute_uv=False).sum())


def _scaled(a, e):
    """2^e a, exactly."""
    return np.ldexp(a.view(float), e).view(complex)


@dataclass
class CrNormResult:
    """A certified bracket lower <= ||x||_{C+R} <= value, with a
    decomposition attaining value."""

    value: float
    lower: float
    decomposition: Decomposition
    iterations: int
    # always 1: one run from one start.  perfbench's trace hook reads it,
    # so it stays until that hook records iterations and gap instead
    restarts_used = 1

    @property
    def gap(self):
        return (self.value - self.lower) / self.value if self.value else 0.0

    @property
    def converged(self):
        return self.gap <= GAP_TOLERANCE


def cr_norm(xs):
    """Bracket the C+R norm by Douglas-Rachford splitting.

    Write col(y) for the (L m) x m matrix that stacks the y_k and row(z)
    for the m x (L m) matrix that lays the z_k side by side.  Then
    (sum y^* y)^{1/2} and (sum z z^*)^{1/2} have the singular values of
    col(y) and row(z), and the norm is the minimum over y of f(y) + g(y),
    f(y) = ||col(y)||_S1 and g(y) = ||row(x - y)||_S1.

    Step.  Douglas-Rachford splitting (Lions-Mercier, SIAM J. Numer.
    Anal. 1979) with step t runs y = prox_tf(w), v = prox_tg(2y - w) and
    the over-relaxed update w <- w + RELAXATION (v - y).  Each prox is a
    singular-value soft threshold at t: with col(w) = U diag(c) V^*,
    col(y) = U diag((c - t)_+) V^*; with row(x - 2y + w) = U' diag(r)
    V'^*, the row part z = x - v has row(z) = U' diag((r - t)_+) V'^*.
    t = ||x||_F / sqrt(m) is the common singular value of col(x) when
    its m singular values are equal, and being homogeneous in x it keeps
    the steps homogeneous too.  The thresholds set the ranks of y and z
    exactly, and once they have found the optimum's rank the iterates
    converge fast, also where that rank is deficient.  The relaxed
    iteration converges for every factor in (0, 2) (Eckstein-Bertsekas,
    Math. Prog. 1992); 1.5 takes about 40% fewer steps than 1 on the
    Gaussian Khintchine samples, and unlike larger factors it is not
    slower than 1 on sequences with one shared column and one shared
    row part.  The factor moves only w: the two bounds below hold for
    the y and v that any w gives, so both ends stay certified.

    Upper bound.  ``value`` is the least objective over the two pure
    splits (y = x and y = 0) and the iterates (v, x - v), so it never
    exceeds min(column, row) and is attained by ``decomposition``.  It
    is summed from singular values: those of row(x - v) are the
    thresholded r, and col(v) takes one SVD.  Square roots of Gram
    eigenvalues would not do.  The iterates are exactly low rank, and a
    Gram eigenvalue that should be 0 comes back wrong by about eps
    ||x||_F^2, so its square root is off by about sqrt(eps) ||x||_F, far
    more than GAP_TOLERANCE allows.

    Lower bound.  For any (a_k) put s = max(||sum a_k^* a_k||,
    ||sum a_k a_k^*||)^{1/2}.  Stacking the y_k into one column Y and
    the a_k into A, Hoelder in S_1 gives |sum tr(a_k^* y_k)| =
    |tr(A^* Y)| <= ||A||_inf ||Y||_1 = ||sum a^* a||^{1/2}
    tr((sum y^* y)^{1/2}); stacking z and a into rows gives the same
    with sum a a^* and tr((sum z z^*)^{1/2}).  So for every split
    x = y + z, |sum tr(a_k^* x_k)| <= s (col(y) + row(z)), and taking
    the infimum, |sum tr(a_k^* x_k)| / s <= ||x||_{C+R}: the norm of
    R cap C in S_inf is dual to C+R in S_1.  The certificate of a step
    is its prox residual a = (w - y) / t, that is col(a) = U diag(min(c
    / t, 1)) V^*, a subgradient of f at y.  So ||col(a)|| <= 1 by
    construction, and at a fixed point a is also a subgradient of
    ||row(.)||_S1 at x - y and pairs with x to the optimum.  Both
    operator norms in s are computed, from the largest eigenvalues of
    the two Gram matrices, so the bound holds at every step, converged
    or not.  ``lower`` is the best such bound over the steps, capped at
    ``value``: where the two meet they differ only by rounding.

    Scale.  x is first scaled by the power of two that brings the
    largest modulus of a real or imaginary part into [1/2, 1), so
    nothing overflows or underflows, and ``value``, ``lower`` and
    ``decomposition`` are scaled back exactly: cr_norm(2^k x) is
    2^k cr_norm(x), bit for bit, while 2^k x and the results stay in
    the normal range.  A norm beyond double range raises OverflowError.

    Stopping.  The loop stops once the relative gap is at most
    GAP_TOLERANCE, or after MAX_ITERATIONS steps.  Scalar sequences (the
    l2 norm) and single matrices (the trace norm) close the gap within a
    few steps.
    """
    x = MatrixSequence.coerce(xs).matrices
    _, e = math.frexp(float(np.abs(x.view(float)).max()))
    x = _scaled(x, -e)
    length, m, _ = x.shape
    t = math.sqrt(float(np.vdot(x, x).real) / m)
    value, best = min(((_trace_norm(_col(ys)) + _trace_norm(_row(x - ys)), ys)
                       for ys in (x, np.zeros_like(x))), key=lambda p: p[0])
    lower, steps = 0.0, 0
    grams = np.empty((2, m, m), complex)
    w = x / 2.0
    while value - lower > GAP_TOLERANCE * value and steps < MAX_ITERATIONS:
        u, c, vh = np.linalg.svd(_col(w), full_matrices=False)
        y = ((u * np.maximum(c - t, 0.0)) @ vh).reshape(x.shape)
        a = ((u * np.minimum(c / t, 1.0)) @ vh).reshape(x.shape)
        s2 = float(np.linalg.eigvalsh(_gram_pair(a, grams))[:, -1].max())
        lower = max(lower, float(np.vdot(a, x).real) / math.sqrt(s2))
        u, r, vh = np.linalg.svd(_row(x - 2.0 * y + w), full_matrices=False)
        r = np.maximum(r - t, 0.0)
        v = x - ((u * r) @ vh).reshape(m, length, m).transpose(1, 0, 2)
        obj = _trace_norm(_col(v)) + float(r.sum())
        if obj < value:
            value, best = obj, v
        w += RELAXATION * (v - y)
        steps += 1
    return CrNormResult(value=math.ldexp(value, e),
                        lower=math.ldexp(min(lower, value), e),
                        decomposition=Decomposition(_scaled(best, e),
                                                    _scaled(x - best, e)),
                        iterations=steps)


def _lacunary_poly(xs, freqs):
    return TrigPoly({(n,): xs.matrices[k] for k, n in enumerate(freqs)})


def _validate_freqs(xs, freqs):
    freqs = list(int_tuple(freqs))
    if len(freqs) != xs.length:
        raise ValueError("need one frequency per matrix")
    if any(n < 1 for n in freqs) or any(
            b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("frequencies must be positive and strictly increasing")
    return freqs


def _khintchine(xs, freqs):
    """(L1(S1) norm of sum_k x_k e^{i n_k t}, cr_norm result of (x_k))."""
    xs = MatrixSequence.coerce(xs)
    freqs = _validate_freqs(xs, freqs)
    cr = cr_norm(xs)
    if cr.value == 0.0:
        raise ValueError("Khintchine ratio undefined for the zero sequence")
    return s1_l1_norm(_lacunary_poly(xs, freqs)), cr


def khintchine_ratio(xs, freqs):
    """L1(S1) norm of sum_k x_k e^{i n_k t} over the C+R norm of (x_k).

    The denominator is the upper end of the cr_norm bracket.  For an
    orthonormal system the L1(S1) norm is at most the C+R norm, and the
    default grid of 4 max n_k + 1 nodes keeps the characters orthonormal,
    so the ratio is at most 1 up to rounding."""
    num, cr = _khintchine(xs, freqs)
    return num / cr.value


def khintchine_envelope(count=100, seed=0, max_mdim=4, max_length=8):
    """Empirical two-sided Khintchine constant over random samples.

    Each sample draws a dimension m <= max_mdim, a length L <= max_length,
    Gaussian matrices, and frequencies 1, 3, 9, ..., then records the
    Khintchine ratio and its C+R bracket [lower, value].  K-hat = max(sup ratio, 1/inf ratio), so every
    sampled ratio lies in [1/K-hat, K-hat] by construction; the
    interesting question, left to the caller, is whether K-hat is stable
    as the sample grows.  Sample streams depend only on (seed, index).
    """
    count = int_at_least("count", count, 1)
    max_mdim = int_at_least("max_mdim", max_mdim, 1)
    max_length = int_at_least("max_length", max_length, 1)

    def one(i):
        rng = np.random.default_rng([seed, i])
        m = int(rng.integers(1, max_mdim + 1))
        length = int(rng.integers(1, max_length + 1))
        mats = [
            (rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
            / math.sqrt(2)
            for _ in range(length)
        ]
        num, cr = _khintchine(MatrixSequence(mats), [3**k for k in range(length)])
        return num / cr.value, [cr.lower, cr.value]

    ratios, brackets = zip(*(one(i) for i in range(count)))
    k_hat = max(max(ratios), 1.0 / min(ratios))
    return {
        "k_hat": k_hat,
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "ratios": list(ratios),
        "brackets": list(brackets),
        "count": count,
        "seed": seed,
    }
