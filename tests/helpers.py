"""Reference constructions and probes shared by the tests; nothing in
paleykit uses them."""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from paleykit import riesz
from paleykit.crnorm import MatrixSequence
from paleykit.errors import ConstructionError
from paleykit.multiindex import Smoothness
from paleykit.operators import paley_ratio
from paleykit.sequence import ball_count, techprop_quantities
from paleykit.trigpoly import TrigPoly


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
    dim = len(next(iter(measure.coeffs)))
    return TrigPoly(dict(measure.coeffs), dim=dim)


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
    if not isinstance(S, Smoothness):
        S = Smoothness.from_indices(S)
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
