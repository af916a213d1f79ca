"""Truncated Riesz products over a lacunary frequency sequence.

The K-term product  prod_{k<=K} (1 + cos<x, n_k>)  expands into 3^K
exponentials indexed by sign patterns d in {-1,0,1}^K: the frequency is
sum_k d_k n_k and the coefficient is 2^{-(number of nonzero d_k)}.

riesz_coeffs checks, in O(K d), that the sequence is Hadamard-lacunary:
every coordinate at least 1, and a_k >= 3 a_{k-1} for a_k = n_k(1).  That
proves two claims (Zygmund, Trigonometric Series, ch. V); no walk needed.

Claim A: every nonzero spectrum point lies in B_k or -B_k, k the largest
index with d_k nonzero: the point minus d_k n_k is sum_{j<k} d_j n_j, and
for positive coordinates |sum_{j<k} d_j n_j|_1 <= sum_{j<k} |n_j|_1 = D_k.

Claim B: the first coordinate determines the pattern.  sum_{j<k} a_j <
1.5 a_{k-1} <= a_k / 2 (and 0 < a_1 / 2), so x = sum_{j<=k} d_j a_j has
2x > a_k if d_k = 1, 2x < -a_k if d_k = -1 and |2x| < a_k if d_k = 0:
x decides d_k, x - d_k a_k the lower signs, and no two patterns share x.
"""

from dataclasses import dataclass

from .errors import StageFailure
from .multiindex import int_tuple
from .sequence import pattern_frequency, sign_patterns


@dataclass
class RieszMeasure:
    """Fourier data of the Riesz product over K lacunary points in Z^dim."""

    sequence: tuple
    K: int
    dim: int

    @property
    def coeffs(self):
        """The 3^K spectrum frequencies and their dyadic coefficients, in
        sign_patterns order, expanded on each access."""
        return {pattern_frequency(self.sequence, d, self.dim): 2.0 ** (d.count(0) - self.K)
                for d in sign_patterns(self.K)}

    def multiplier(self, n):
        """Fourier coefficient at n (0 off the spectrum), in O(K dim): n is
        decoded from k = K down to 1 by the rule of claim B on the first
        coordinate of what is left, and is on the spectrum iff nothing is."""
        rest = int_tuple(n)
        if len(rest) != self.dim:
            return 0.0
        active = 0
        for nk in reversed(self.sequence):
            x = 2 * rest[0]
            if -nk[0] <= x <= nk[0]:
                continue
            sign = 1 if x > 0 else -1
            rest = tuple(a - sign * b for a, b in zip(rest, nk))
            active += 1
        return 0.0 if any(rest) else 2.0 ** -active


def riesz_coeffs(sequence, K):
    """The Riesz measure of the first K points of sequence; K = 0 gives
    the plain Lebesgue measure.

    Raises StageFailure("riesz", "not_lacunary", {"k": k}) at the first
    1-based k whose point has a coordinate below 1 or a first coordinate
    below 3 n_{k-1}(1); claims A and B hold otherwise.
    """
    sequence = tuple(int_tuple(n) for n in sequence)
    if K < 0 or K > len(sequence):
        raise ValueError("K must be between 0 and len(sequence)")
    dim = len(sequence[0]) if sequence else 1
    sequence = sequence[:K]
    for k, n in enumerate(sequence, 1):
        if min(n) < 1 or (k > 1 and n[0] < 3 * sequence[k - 2][0]):
            raise StageFailure("riesz", "not_lacunary", {"k": k})
    return RieszMeasure(sequence=sequence, K=K, dim=dim)
