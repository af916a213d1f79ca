"""Reference constructions and probes shared by the tests; nothing in
paleykit uses them."""

import numpy as np

from paleykit import riesz
from paleykit.operators import paley_ratio
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
