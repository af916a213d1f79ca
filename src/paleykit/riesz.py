"""Truncated Riesz products over a lacunary frequency sequence.

The K-term product  prod_{k<=K} (1 + cos<x, n_k>)  expands into 3^K
exponentials indexed by sign patterns d in {-1,0,1}^K: the frequency is
sum_k d_k n_k and the coefficient is 2^{-(number of nonzero d_k)}.

Two claims make the expansion trustworthy.  Claim A: every nonzero
spectrum point lies in B_k or -B_k for k the largest index with d_k
nonzero.  Claim B: the first-coordinate projection of the spectrum is
injective, so distinct patterns give distinct frequencies; a collision
would mean coefficients silently merged, so it is an error, never a
merge.  riesz_coeffs certifies both by brute force in the same single
walk over the sign patterns that writes the coefficients.
"""

from dataclasses import dataclass

from .errors import StageFailure
from .multiindex import int_tuple
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
        return self.coeffs.get(int_tuple(n), 0.0)


def riesz_coeffs(sequence, K):
    """Expand the K-term product into its 3^K Fourier coefficients,
    certifying claims A and B on the way; K = 0 gives the plain Lebesgue
    measure.

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
    return RieszMeasure(sequence=sequence, K=K, coeffs=coeffs)

