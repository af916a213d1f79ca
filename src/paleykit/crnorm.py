"""The C+R norm on finite matrix sequences.

For x = (x_1..x_L) of m x m matrices the norm is the infimum of

    || (sum_k y_k^* y_k)^{1/2} ||_S1  +  || (sum_k z_k z_k^*)^{1/2} ||_S1

over decompositions x_k = y_k + z_k.  ``cr_norm`` brackets it: an upper
bound attained by a decomposition, from iteratively reweighted least
squares, and a lower bound from a dual certificate in R cap C, so the
reported gap is proved, not estimated.  For scalar sequences the norm is
the plain l2 norm and for L = 1 the trace norm; both ends of the bracket
meet there.

Also here: empirical Khintchine ratios for lacunary one-variable series
with these matrix coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import int_tuple
from .trigpoly import TrigPoly, s1_l1_norm

# relative gap (value - lower) / value that counts as converged
GAP_TOLERANCE = 1e-10
# IRLS steps before cr_norm returns its bracket unconverged
MAX_ITERATIONS = 3000


class MatrixSequence:
    """A finite list of complex square matrices of one common size.

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


def _gram_pair(ys, zs, out):
    """Write sum_k y_k^* y_k into out[0] and sum_k z_k z_k^* into out[1]."""
    length, m, _ = ys.shape
    y = ys.reshape(length * m, m)
    np.matmul(y.conj().T, y, out=out[0])
    z = zs.transpose(1, 0, 2).reshape(m, length * m)
    np.matmul(z, z.conj().T, out=out[1])
    return out


def _objective(ys, zs, out):
    # Gram sums are PSD up to rounding; clamp before the square roots
    w = np.linalg.eigvalsh(_gram_pair(ys, zs, out))
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


@dataclass
class CrNormResult:
    """A certified bracket lower <= ||x||_{C+R} <= value, with a
    decomposition attaining value."""

    value: float
    lower: float
    decomposition: Decomposition
    iterations: int
    # IRLS runs from one start, the even split
    restarts_used = 1

    @property
    def gap(self):
        return (self.value - self.lower) / self.value if self.value else 0.0

    @property
    def converged(self):
        return self.gap <= GAP_TOLERANCE


def cr_norm(xs):
    """Bracket the C+R norm by iteratively reweighted least squares.

    Step.  With C = sum y_k^* y_k = V diag(c) V^*, R = sum z_k z_k^* =
    U diag(r) U^* and the smoothed weights P = V diag(p) V^*, p =
    (c + delta)^{1/2}, Q = U diag(q) U^*, q = (r + delta)^{1/2}, the
    next y minimises sum tr(y_k P^{-1} y_k^*) + tr(z_k^* Q^{-1} z_k)
    over y + z = x, i.e. it solves Q y_k + y_k P = x_k P.  In the
    eigenbases, with x~_k = U^* x_k V, that is y~_k,ij = x~_k,ij p_j /
    (q_i + p_j) and y_k = U y~_k V^*.

    Upper bound.  ``value`` is the least unsmoothed objective over the
    two pure splits (y = x and y = 0) and every iterate, so it never
    exceeds min(column, row) and is attained by ``decomposition``.

    Lower bound.  For any (a_k) put s = max(||sum a_k^* a_k||,
    ||sum a_k a_k^*||)^{1/2}.  Stacking the y_k into one column Y and
    the a_k into A, Hoelder in S_1 gives |sum tr(a_k^* y_k)| =
    |tr(A^* Y)| <= ||A||_inf ||Y||_1 = ||sum a^* a||^{1/2}
    tr((sum y^* y)^{1/2}); stacking z and a into rows gives the same
    with sum a a^* and tr((sum z z^*)^{1/2}).  So for every split
    x = y + z, |sum tr(a_k^* x_k)| <= s (col(y) + row(z)), and taking
    the infimum, |sum tr(a_k^* x_k)| / s <= ||x||_{C+R}: the norm of
    R cap C in S_inf is dual to C+R in S_1.  We take a_k = (y_k P^{-1} +
    Q^{-1} z_k) / 2 for the new iterate; the step makes both halves
    equal, so in the eigenbases a~_k,ij = x~_k,ij / (q_i + p_j).  At an
    unsmoothed fixed point, a is the subgradient that certifies it.
    ``lower`` is the best such bound over the iterates, capped at
    ``value``: where the two meet they differ only by rounding.

    Smoothing and stopping.  delta starts at 1e-2 ||x||_F^2 / m and after
    each step drops to (0.1 gap value / m)^2 when that is smaller, so the
    smoothing bias m delta^{1/2} stays a tenth of the gap.  The loop stops
    once the relative gap is at most GAP_TOLERANCE, or after
    MAX_ITERATIONS steps.  Scalar sequences (the l2 norm) and single
    matrices (the trace norm) close the gap within a few steps.
    """
    x = MatrixSequence.coerce(xs).matrices
    m = x.shape[1]
    grams = np.empty((2, m, m), complex)
    value, best = min(((_objective(ys, x - ys, grams), ys)
                       for ys in (x, np.zeros_like(x))), key=lambda t: t[0])
    lower, steps = 0.0, 0
    delta = 1e-2 * float(np.vdot(x, x).real) / m
    ys = x / 2.0
    while True:
        w, v = np.linalg.eigh(_gram_pair(ys, x - ys, grams))
        w = np.clip(w, 0.0, None)
        obj = float(np.sqrt(w).sum())
        if obj < value:
            value, best = obj, ys
        if value - lower <= GAP_TOLERANCE * value or steps == MAX_ITERATIONS:
            break
        vc, ur = v
        p = np.sqrt(w[0] + delta)
        q = np.sqrt(w[1] + delta)
        xt = ur.conj().T @ x @ vc
        a = xt / (q[:, None] + p)
        s2 = float(np.linalg.eigvalsh(_gram_pair(a, a, grams))[:, -1].max())
        lower = max(lower, float(np.vdot(a, xt).real) / math.sqrt(s2))
        ys = ur @ (a * p) @ vc.conj().T
        steps += 1
        delta = min(delta, (0.1 * (value - lower) / m) ** 2)
    return CrNormResult(value=value, lower=min(lower, value),
                        decomposition=Decomposition(best, x - best),
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
    if count < 1:
        raise ValueError("need at least one sample")

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
