"""Truncated Riesz products over a lacunary frequency sequence.

The K-term product  prod_{k<=K} (1 + cos<x, n_k>)  expands into 3^K
exponentials indexed by sign patterns d in {-1,0,1}^K: the frequency is
sum_k d_k n_k and the coefficient is 2^{-(number of nonzero d_k)}.  The
expansion is only trusted after the first coordinates certify that
distinct patterns give distinct frequencies (claim B below); a collision
would mean coefficients silently merged, so it is an error, never a
merge.

Claim A: every nonzero spectrum point lies in B_k or -B_k for k the
largest index with d_k nonzero.  Claim B: the first-coordinate
projection of the spectrum is injective.  Both are verified by brute
force over all sign patterns.
"""

from dataclasses import dataclass

from .errors import ConstructionError
from .sequence import bk_radius, pattern_frequency, sign_patterns


@dataclass
class RieszMeasure:
    """Fourier data of a truncated Riesz product.

    coeffs maps each spectrum frequency to its coefficient (a dyadic
    rational stored as a float; the zero frequency carries mass 1).
    """

    sequence: tuple
    K: int
    coeffs: dict

    def multiplier(self, n):
        """Fourier coefficient at n (0 off the spectrum)."""
        return self.coeffs.get(tuple(int(c) for c in n), 0.0)


def verify_claim_b(sequence, K):
    """Distinctness of the 3^K first coordinates sum_k d_k n_k(1).

    Returns (True, None) or (False, (d, d')) with two colliding sign
    patterns.
    """
    seen = {}
    for d in sign_patterns(K):
        first = sum(dk * n[0] for dk, n in zip(d, sequence))
        if first in seen:
            return False, (seen[first], d)
        seen[first] = d
    return True, None


def verify_claim_a(sequence, K):
    """Containment of every nonzero spectrum point in B_k or -B_k for
    k the largest active index.  Returns (True, None) or (False, m)."""
    dim = len(sequence[0]) if sequence else 1
    for d in sign_patterns(K):
        active = [k for k in range(K) if d[k] != 0]
        if not active:
            continue
        k = active[-1] + 1  # 1-based ball index
        m = pattern_frequency(sequence, d, dim)
        radius = bk_radius(sequence, k)
        center = sequence[k - 1]
        dist_pos = sum(abs(a - b) for a, b in zip(m, center))
        dist_neg = sum(abs(-a - b) for a, b in zip(m, center))
        if dist_pos > radius and dist_neg > radius:
            return False, m
    return True, None


def riesz_coeffs(sequence, K):
    """Expand the K-term product into its 3^K Fourier coefficients.

    Requires claim B (certified injectivity) so that no two patterns
    write the same frequency; K = 0 gives the plain Lebesgue measure.
    """
    sequence = tuple(tuple(int(c) for c in n) for n in sequence)
    if K < 0 or K > len(sequence):
        raise ValueError("K must be between 0 and len(sequence)")
    ok, collision = verify_claim_b(sequence, K)
    if not ok:
        raise ConstructionError(
            "sign patterns %s and %s collide in the first coordinate"
            % collision
        )
    dim = len(sequence[0]) if sequence else 1
    coeffs = {}
    for d in sign_patterns(K):
        freq = pattern_frequency(sequence[:K], d, dim)
        nonzero = sum(1 for dk in d if dk)
        coeffs[freq] = 2.0 ** (-nonzero)
    return RieszMeasure(sequence=sequence[:K], K=K, coeffs=coeffs)


def riesz_spectrum(sequence, K):
    """The 3^K frequencies of the truncated product."""
    return frozenset(riesz_coeffs(sequence, K).coeffs)
