"""Multi-indices, smoothness sets, and the symbols attached to them.

A smoothness set is a finite collection of d-dimensional multi-indices
that contains the zero index and is closed under coordinatewise decrease.
Every spectral object in the package is driven by the symbols

    sigma_gamma(x) = i^{|gamma|} * x^gamma,

evaluated on integer frequencies x, together with the fundamental
polynomial Q_S(x) = sum_{gamma in S} |sigma_gamma(x)|^2.

Convention: sigma_gamma(x) is defined to be 0 whenever any coordinate of
x is zero, for every gamma including gamma = 0.  The differentiation
multiplier uses the opposite convention 0^0 = 1, so the two agree only on
frequencies with all coordinates nonzero.
"""

import operator
from dataclasses import dataclass
from itertools import product

from .errors import InvalidSmoothnessError

# Powers of the imaginary unit: PHASES[e % 4] = i^e.
PHASES = (1 + 0j, 1j, -1 + 0j, -1j)


def order(gamma):
    """Total order |gamma| = gamma_1 + ... + gamma_d."""
    return sum(gamma)


def int_tuple(values, dim=None):
    """``values`` as a tuple of Python ints, for frequencies; given
    ``dim``, exactly dim of them.

    Python and numpy integers pass; a float, a bool, any other value or
    a wrong length raises ValueError, where int() would truncate a float
    silently.
    """
    key = tuple(values)
    if dim is None or len(key) == dim:
        for v in key:
            if type(v) is not int:
                break
        else:
            return key
        if not any(isinstance(v, bool) for v in key):
            try:
                return tuple(operator.index(v) for v in key)
            except TypeError:
                pass
    want = "integers" if dim is None else "%d integer coordinates" % dim
    raise ValueError("need %s, got %r" % (want, key))


def int_at_least(name, value, low):
    """value as a Python int; ValueError unless it is an integer, as
    int_tuple takes one, of at least low."""
    v = int_tuple((value,))[0]
    if v < low:
        raise ValueError("need %s >= %d, got %r" % (name, low, value))
    return v


def multi_le(gamma, delta):
    """Coordinatewise comparison gamma <= delta."""
    return len(gamma) == len(delta) and all(g <= e for g, e in zip(gamma, delta))


def validate_indices(indices):
    """Check that ``indices`` is a nonempty collection of equal-length
    tuples of non-negative integers.  Returns (dimension, set of tuples).
    """
    idx = {tuple(g) for g in indices}
    if not idx:
        raise InvalidSmoothnessError("empty multi-index collection")
    dims = {len(g) for g in idx}
    if len(dims) != 1:
        raise InvalidSmoothnessError("mixed dimensions: %s" % sorted(dims))
    d = dims.pop()
    if d == 0:
        raise InvalidSmoothnessError("zero-dimensional multi-indices")
    for g in idx:
        if any((not isinstance(c, int)) or isinstance(c, bool) or c < 0 for c in g):
            raise InvalidSmoothnessError("bad multi-index %r" % (g,))
    return d, idx


def saturate(indices):
    """Downward closure: every delta <= gamma for some gamma in the input.

    The result always contains the zero index, so saturating any valid
    collection yields a smoothness set.
    """
    d, idx = validate_indices(indices)
    closed = set()
    for g in idx:
        for delta in product(*(range(c + 1) for c in g)):
            closed.add(delta)
    return closed


def is_smoothness(indices):
    """True when ``indices`` is a smoothness set: finite, downward closed,
    containing the zero index.  Raises InvalidSmoothnessError on malformed
    input (mixed dimensions, negative entries, empty collection).
    """
    d, idx = validate_indices(indices)
    if (0,) * d not in idx:
        return False
    return idx == saturate(idx)


@dataclass(frozen=True)
class Smoothness:
    """A validated smoothness set.

    Attributes
    ----------
    dim : int
        Ambient dimension d.
    indices : frozenset of tuple
        The member multi-indices.
    """

    dim: int
    indices: frozenset

    @classmethod
    def from_indices(cls, indices):
        d, idx = validate_indices(indices)
        if not is_smoothness(idx):
            raise InvalidSmoothnessError(
                "not downward closed or missing the zero index: %s" % sorted(idx)
            )
        return cls(dim=d, indices=frozenset(idx))

    @classmethod
    def coerce(cls, indices):
        """indices itself if a Smoothness, else from_indices(indices)."""
        return indices if isinstance(indices, cls) else cls.from_indices(indices)

    def __iter__(self):
        return iter(sorted(self.indices, reverse=True))

    def __len__(self):
        return len(self.indices)

    def __contains__(self, gamma):
        return tuple(gamma) in self.indices

    def sorted_indices(self):
        """Members in descending lexicographic order (monomial display order)."""
        return sorted(self.indices, reverse=True)

    def maximal(self):
        """Members lying below no other member, in sorted_indices() order."""
        members = self.sorted_indices()
        return [g for g in members
                if not any(h != g and multi_le(g, h) for h in members)]


def symbol_abs_int(gamma, x):
    """|x^gamma| as an exact integer, 0 if any coordinate of x is zero.

    Exactness matters: frequencies produced by the lacunary construction
    overflow double precision long before the ratios of interest do.
    """
    if any(c == 0 for c in x):
        return 0
    out = 1
    for g, c in zip(gamma, x):
        out *= abs(c) ** g
    return out


def symbol_phase(gamma, x):
    """The unimodular factor i^{|gamma|} * sign(x)^gamma in {1, i, -1, -i}.

    A zero coordinate counts as positive; that is only right where it
    carries an even exponent, as it does in derivative_multiplier.
    """
    s = 1
    for g, c in zip(gamma, x):
        if c < 0 and g % 2 == 1:
            s = -s
    p = PHASES[order(gamma) % 4]
    return s * p


def q_s_eval(smoothness, x):
    """Fundamental polynomial Q_S(x) = sum_{gamma in S} |sigma_gamma(x)|^2.

    Exact integer.  Zero when any coordinate of x is zero, by the symbol
    convention; strictly positive otherwise since the zero index
    contributes 1.
    """
    if any(c == 0 for c in x):
        return 0
    total = 0
    for gamma in smoothness:
        total += symbol_abs_int(gamma, x) ** 2
    return total


def derivative_multiplier(gamma, n):
    """Multiplier of the exponential e_n under the partial derivative
    of multi-index gamma: prod_j (i n_j)^{gamma_j}, with 0^0 = 1.

    Unlike sigma_gamma this does not vanish on frequencies with zero
    coordinates unless a zero coordinate carries a positive exponent.
    """
    mag = 1
    for g, c in zip(gamma, n):
        if g > 0:
            mag *= abs(c) ** g
    if mag == 0:
        return 0j
    return symbol_phase(gamma, n) * float(mag)
