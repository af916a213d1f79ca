"""The C+R norm on finite matrix sequences.

For x = (x_1..x_L) of m x m matrices the norm is the infimum of

    || (sum_k y_k^* y_k)^{1/2} ||_S1  +  || (sum_k z_k z_k^*)^{1/2} ||_S1

over decompositions x_k = y_k + z_k.  The objective is convex in (y, z),
and we approximate the infimum by smoothed gradient descent from several
deterministic starts; the reported value is the unsmoothed objective of
the best final iterate, hence always an upper bound on the infimum.  For
scalar sequences the infimum is the plain l2 norm and for L = 1 it is
the trace norm, both attained at the starting points, which pins the
solver exactly there.

Also here: empirical Khintchine-type and unconditionality ratios for
lacunary one-variable series with these matrix coefficients.
"""

import math
from dataclasses import dataclass

import numpy as np

from .trigpoly import TrigPoly, s1_l1_norm

SMOOTHING = 1e-9


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


def _smoothed_objective(ys, zs, eps):
    # Gram sums are PSD up to rounding; clamp before the square roots
    c = np.einsum("kij,kil->jl", ys.conj(), ys)
    r = np.einsum("kij,klj->il", zs, zs.conj())
    wc = np.clip(np.linalg.eigvalsh((c + c.conj().T) / 2.0) + eps, 0.0, None)
    wr = np.clip(np.linalg.eigvalsh((r + r.conj().T) / 2.0) + eps, 0.0, None)
    return float(np.sqrt(wc).sum() + np.sqrt(wr).sum())


def column_row_value(dec):
    """Value of one decomposition: trace norms of the square roots of
    the two Gram sums, i.e. the sums of the square roots of their
    eigenvalues."""
    return _smoothed_objective(dec.ys, dec.zs, 0.0)


def _inv_sqrt(h, eps):
    w, v = np.linalg.eigh((h + h.conj().T) / 2.0)
    w = np.clip(w + eps, eps, None)
    return (v / np.sqrt(w)) @ v.conj().T


def _descend(x, ys, iterations, tolerance, eps):
    """Backtracking gradient descent in y (z is eliminated as x - y).

    Returns (final ys, converged flag).  A step that cannot decrease the
    smoothed objective means the iterate is stationary to line-search
    resolution, which counts as converged.
    """
    zs = x - ys
    f = _smoothed_objective(ys, zs, eps)
    step = 1.0
    for _ in range(iterations):
        cinv = _inv_sqrt(np.einsum("kij,kil->jl", ys.conj(), ys), eps)
        rinv = _inv_sqrt(np.einsum("kij,klj->il", zs, zs.conj()), eps)
        grad = ys @ cinv - np.einsum("ij,kjl->kil", rinv, zs)
        gnorm2 = float(np.sum(np.abs(grad) ** 2))
        if gnorm2 <= tolerance**2:
            return ys, True
        t = step
        accepted = False
        while t > 1e-14:
            cand = ys - t * grad
            fc = _smoothed_objective(cand, x - cand, eps)
            if fc < f - 1e-4 * t * gnorm2:
                accepted = True
                break
            t /= 2.0
        if not accepted:
            return ys, True
        drop = f - fc
        ys, zs, f = cand, x - cand, fc
        step = min(1.0, 2.0 * t)
        if drop <= tolerance * max(abs(f), 1.0):
            return ys, True
    return ys, False


@dataclass
class CrNormResult:
    value: float
    decomposition: Decomposition
    converged: bool
    restarts_used: int


def cr_norm(xs, restarts=6, iterations=300, tolerance=1e-10, seed=0):
    """Upper approximation of the C+R norm with its best decomposition.

    Deterministic starts first (z = 0, y = 0, the even split), then
    seeded random perturbations of the even split up to ``restarts``
    total; the best unsmoothed value wins.
    """
    if restarts < 1:
        raise ValueError("need at least one restart")
    xs = MatrixSequence.coerce(xs)
    x = xs.matrices
    scale = math.sqrt(float(np.mean(np.abs(x) ** 2))) or 1.0
    starts = [x.copy(), np.zeros_like(x), x / 2.0]
    for r in range(max(0, restarts - len(starts))):
        rng = np.random.default_rng([seed, r])
        noise = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
        starts.append(x / 2.0 + 0.25 * scale * noise)
    starts = starts[:restarts]

    def one(ys0):
        ys, ok = _descend(x, ys0, iterations, tolerance, SMOOTHING)
        dec = Decomposition(ys, x - ys)
        return column_row_value(dec), dec, ok

    value, dec, ok = min((one(ys0) for ys0 in starts), key=lambda r: r[0])
    return CrNormResult(value=value, decomposition=dec, converged=ok,
                        restarts_used=len(starts))


def _lacunary_poly(xs, freqs):
    return TrigPoly({(int(n),): xs.matrices[k] for k, n in enumerate(freqs)})


def _validate_freqs(xs, freqs):
    freqs = [int(n) for n in freqs]
    if len(freqs) != xs.length:
        raise ValueError("need one frequency per matrix")
    if any(n < 1 for n in freqs) or any(
            b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError("frequencies must be positive and strictly increasing")
    return freqs


def khintchine_ratio(xs, freqs):
    """L1(S1) norm of sum_k x_k e^{i n_k t} over the C+R norm of (x_k)."""
    xs = MatrixSequence.coerce(xs)
    freqs = _validate_freqs(xs, freqs)
    den = cr_norm(xs).value
    if den == 0.0:
        raise ValueError("Khintchine ratio undefined for the zero sequence")
    num = s1_l1_norm(_lacunary_poly(xs, freqs))
    return num / den


def unconditionality_ratio(a, xs, freqs):
    """How much multiplying the coefficients by (a_k) can move the
    L1(S1) norm of the lacunary series."""
    xs = MatrixSequence.coerce(xs)
    freqs = _validate_freqs(xs, freqs)
    if len(a) != xs.length:
        raise ValueError("need one scalar per matrix")
    den = s1_l1_norm(_lacunary_poly(xs, freqs))
    if den == 0.0:
        raise ValueError("unconditionality ratio undefined for the zero series")
    scaled = MatrixSequence([complex(c) * m for c, m in zip(a, xs.matrices)])
    num = s1_l1_norm(_lacunary_poly(scaled, freqs))
    return num / den


def khintchine_envelope(count=100, seed=0, max_mdim=4, max_length=8):
    """Empirical two-sided Khintchine constant over random samples.

    Each sample draws a dimension m <= max_mdim, a length L <= max_length,
    Gaussian matrices, and frequencies 1, 3, 9, ..., then records the
    Khintchine ratio.  K-hat = max(sup ratio, 1/inf ratio), so every
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
        freqs = [3**k for k in range(length)]
        return khintchine_ratio(MatrixSequence(mats), freqs)

    ratios = [one(i) for i in range(count)]
    k_hat = max(max(ratios), 1.0 / min(ratios))
    return {
        "k_hat": k_hat,
        "min_ratio": min(ratios),
        "max_ratio": max(ratios),
        "ratios": list(ratios),
        "count": count,
        "seed": seed,
    }
