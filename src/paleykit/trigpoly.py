"""Sparse trigonometric polynomials on the d-torus, scalar or matrix valued.

A polynomial is a finite sum  f(x) = sum_n c_n e^{i<n,x>}  stored as a
dict from integer frequency tuples to coefficients.  Coefficients are
either complex scalars or square complex matrices of one common size;
matrix coefficients are how operator-valued (completely bounded) bounds
are probed.

Frequencies are plain Python integers, so lattice arithmetic stays exact
far beyond double range; floating point enters only through coefficient
values and grid evaluation.

Quadrature uses the uniform grid x_t = -pi + 2*pi*t/N per axis with
weight N^{-d}.  The rule integrates any polynomial with no nonzero
frequency divisible by N exactly, so N >= 2*maxfreq(f) + 1 makes every
product of two factors of f exact; the default N = 4*maxfreq + 1 leaves
headroom.

On that grid e^{i<n, x_t>} = (-1)^{|n|} w^{<n mod N, t> mod N} with
w = e^{2 pi i/N}, so grid values come from the coefficients signed by
(-1)^{|n|} and one table of the N roots of unity per axis, indexed by
residues taken in Python integers: exact in the frequency however large
it is, at a cost of O(T N^d m^2) for T terms of size m x m.
Per-point trace norms use |a| at m = 1.  At m = 2, 3, 4 the sum of the
singular values is the largest root of an equation in the sums of
squared minors, e(x) e(-x) = E(-x^2) between the elementary symmetric
functions of the singular values and of their squares: in closed form,
(||a||_F^2 + 2|det a|)^{1/2}, at m = 2, by a fixed number of Newton steps
at m = 3, 4.  Above that they are the square roots of the eigenvalues of
a^H a.  Singular values serve only the matrices whose Frobenius norm is
out of range, whose root or Gram matrix is ill-conditioned, or whose
Newton iteration has not converged (see ``trace_norms`` for the
identity, the guards and the error bound).

``largest_bin`` bounds that grid mean from below without the grid:
the coefficients binned by residue mod N and signed by (-1)^{|n|} are the
grid's discrete Fourier coefficients, and by the triangle inequality the
largest trace norm among them is at most the mean, in any d and under
aliasing.  It takes several polynomials at once, the derivatives of one
sample, and norms all their bins in one ``trace_norms`` call.
``pinch_minorant`` rotates the coefficients by the singular vectors of
the largest bin and sums, at each node, the trace norms of the rotated
value's diagonal 2 x 2 blocks (and its last diagonal entry when m is
odd).  By pinching that is a real function below the pointwise
trace norm, and its grid mean is at least that bound; it evaluates 2m
entries per node instead of m^2, and needs no eigenvalue.  So the exact
norms of the nodes done plus the minorant over the rest bound the mean
at every step of a grid norm taken in blocks.  The Paley probe uses both
to skip samples that cannot raise its sup (see
``operators.estimate_paley_constant`` for the skip rule, the part-way
bound and the rounding margin).
"""

import itertools
import math

import numpy as np

from .multiindex import _multiplier, int_at_least, int_tuple, q_s_eval

CHOP = 1e-15
# trace_norms: matrices per block, the eigenvalue-ratio guard at m >= 5,
# and the ||a||_F^2 range in which a^H a (m >= 5) or the squares of the
# 2 x 2 closed form are formed safely (at m = 3, 4 its m-th root)
GRAM_BLOCK = 256
GRAM_TAU = 1e-4
FRO2_MIN, FRO2_MAX = 1e-280, 1e280
# trace_norms at m = 3, 4: Newton steps (the last one only confirms
# convergence), the largest last step in units of the sum s, and the
# conditioning guard
ROOT_STEPS = {3: 6, 4: 7}
ROOT_STEP_TOL = 4.0 * np.finfo(float).eps
ROOT_TAU = 1e-2


def _above(v, tol):
    """Whether the largest entry of a coefficient exceeds tol in modulus."""
    return (np.max(np.abs(v)) if isinstance(v, np.ndarray) else abs(v)) > tol


def _grid_signed(n, v):
    """(-1)^{|n|} v: e^{i<n, x_0>} at the grid's first node x_0 = (-pi, ..., -pi)."""
    return -v if sum(n) % 2 else v


def _coerce_value(v):
    if isinstance(v, np.ndarray):
        a = np.asarray(v, dtype=complex)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix coefficients must be square 2-d arrays")
        return a
    return complex(v)


class TrigPoly:
    """Finite trigonometric polynomial with sparse coefficients.

    Parameters
    ----------
    coeffs : dict
        Maps frequency tuples (ints) to complex scalars or to m x m
        complex matrices.  All values must share one shape.
    dim : int, optional
        Ambient dimension; required when ``coeffs`` is empty.
    mdim : int, optional
        Matrix size m; only needed for a matrix-valued polynomial with
        no coefficients, so that a zero result stays matrix valued.

    A given dim or mdim, and a dim read off the keys, is a positive
    integer; numpy integers pass, a float or a bool raises ValueError.
    """

    def __init__(self, coeffs, dim=None, mdim=None):
        dim = None if dim is None else int_at_least("dim", dim, 1)
        mdim = None if mdim is None else int_at_least("mdim", mdim, 1)
        clean = {}
        seen_scalar = False
        for n, v in coeffs.items():
            key = int_tuple(n)
            if dim is None:
                dim = int_at_least("dim", len(key), 1)
            elif len(key) != dim:
                raise ValueError("frequency %r has wrong dimension" % (key,))
            val = _coerce_value(v)
            if isinstance(val, np.ndarray):
                if seen_scalar or (mdim is not None and val.shape[0] != mdim):
                    raise ValueError("mixed coefficient shapes")
                mdim = val.shape[0]
                if np.any(val != 0):
                    clean[key] = val
            else:
                if mdim is not None:
                    raise ValueError("mixed coefficient shapes")
                seen_scalar = True
                if val != 0:
                    clean[key] = val
        if dim is None:
            raise ValueError("dimension unknown for empty polynomial")
        self.dim = dim
        self.mdim = mdim
        self.coeffs = clean

    # ------------------------------------------------------------------
    # basic queries

    def coeff(self, n):
        """Coefficient at frequency n (zero scalar/matrix if absent)."""
        key = int_tuple(n)
        if key in self.coeffs:
            return self.coeffs[key]
        if self.mdim is None:
            return 0j
        return np.zeros((self.mdim, self.mdim), dtype=complex)

    def spectrum(self):
        """Frozenset of frequencies carrying a nonzero coefficient."""
        return frozenset(self.coeffs)

    def maxfreq(self):
        """max_j |n_j| over the spectrum, 0 for the zero polynomial."""
        if not self.coeffs:
            return 0
        return max(max(abs(c) for c in n) for n in self.coeffs)

    def is_matrix_valued(self):
        return self.mdim is not None

    def __len__(self):
        return len(self.coeffs)

    def __repr__(self):
        kind = "scalar" if self.mdim is None else "%dx%d" % (self.mdim, self.mdim)
        return "TrigPoly(dim=%d, %s, %d terms)" % (self.dim, kind, len(self.coeffs))

    # ------------------------------------------------------------------
    # algebra

    def chop(self, tol=CHOP):
        """Drop coefficients whose largest entry is at most tol."""
        return _nonzero(self.dim, self.mdim, {n: v for n, v in self.coeffs.items()
                                              if _above(v, tol)})

    def _check_compatible(self, other):
        if self.dim != other.dim or self.mdim != other.mdim:
            raise ValueError("incompatible polynomials")

    def __add__(self, other):
        # only exact zeros (cancellations) are dropped, so that sums, like
        # scalar multiples, stay homogeneous however small the terms
        self._check_compatible(other)
        out = dict(self.coeffs)
        for n, v in other.coeffs.items():
            out[n] = out[n] + v if n in out else v
        return _nonzero(self.dim, self.mdim, out)

    def __sub__(self, other):
        return self + (-1) * other

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            return self.convolve(other)
        # only exact zeros are dropped, so that (s t) f = s (t f) for all
        # scalars, however small
        out = {n: _coerce_value(other * v) for n, v in self.coeffs.items()}
        return _nonzero(self.dim, self.mdim, out)

    __rmul__ = __mul__

    def convolve(self, other):
        """Product of the two functions; coefficient maps convolve.

        Matrix times matrix multiplies the coefficients as matrices, so
        the result is the pointwise matrix product.  As in ``__add__``,
        only exact zeros are dropped.
        """
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")
        if self.mdim != other.mdim:
            raise ValueError("cannot multiply polynomials whose values differ in shape")
        out = {}
        for n1, v1 in self.coeffs.items():
            for n2, v2 in other.coeffs.items():
                key = tuple(a + b for a, b in zip(n1, n2))
                prod = v1 @ v2 if self.mdim is not None else v1 * v2
                out[key] = out[key] + prod if key in out else prod
        return _nonzero(self.dim, self.mdim, out)

    def conj(self):
        """Pointwise adjoint: coefficient at n becomes the conjugate
        (transpose) of the coefficient at -n."""
        out = {}
        for n, v in self.coeffs.items():
            key = tuple(-c for c in n)
            out[key] = v.conj().T if isinstance(v, np.ndarray) else v.conjugate()
        return _nonzero(self.dim, self.mdim, out)

    def derivative(self, gamma):
        """Partial derivative of multi-index gamma (0^0 = 1 convention).

        Only the coefficients whose multiplier is exactly zero are
        dropped, never small ones, so that d^gamma (t f) = t d^gamma f for
        every scalar t and sobolev_norm is homogeneous.  A nonzero
        multiplier is a power of i times an integer of modulus at least 1,
        so it sends no stored coefficient to zero, and the product needs
        no zero test.  The multipliers are derivative_multiplier's, from
        its cache."""
        gamma = int_tuple(gamma)
        out = {}
        for n, v in self.coeffs.items():
            mult = _multiplier(gamma, n)
            if mult:
                out[n] = mult * v
        return _trusted(self.dim, self.mdim, out)

    # ------------------------------------------------------------------
    # evaluation and quadrature

    def default_grid_n(self):
        """Default nodes per axis: 4*maxfreq + 1."""
        return 4 * int(self.maxfreq()) + 1

    def _grid_n(self, n_points):
        if n_points is None:
            return self.default_grid_n()
        return int_at_least("n_points", n_points, 1)

    def evaluate(self, n_points=None):
        """Values on the uniform grid, shape (N,)*dim (+(m, m)).

        Each coefficient c_k is signed once by (-1)^{|n_k|}, as
        ``largest_bin`` signs it, and each axis j gets the phase
        table E_j[t, k] = w[(n_kj mod N) t mod N] over the T terms; the
        reduction mod N is done in Python integers, so it is exact at
        any frequency.  The first dim - 1 tables are multiplied into the
        signed coefficients as leading batch axes, and one matmul with
        the last table sums the terms.  Cost O(T N^dim m^2); no
        intermediate holds more than N^(dim-1) T m^2 entries.
        """
        n = self._grid_n(n_points)
        freqs = list(self.coeffs)
        vshape = () if self.mdim is None else (self.mdim, self.mdim)
        acc = np.array([_grid_signed(k, self.coeffs[k]) for k in freqs],
                       dtype=complex)
        acc = acc.reshape(len(freqs), math.prod(vshape))
        return _grid_sum(freqs, acc, n, self.dim).reshape((n,) * self.dim + vshape)


def _trusted(dim, mdim, coeffs):
    """A polynomial on coefficients derived from checked ones, so that
    their keys are int tuples of length dim, their values complex scalars
    (mdim None) or complex mdim x mdim arrays, and none is exactly zero:
    none of the checks in __init__ runs."""
    out = TrigPoly.__new__(TrigPoly)
    out.dim, out.mdim, out.coeffs = dim, mdim, coeffs
    return out


def _nonzero(dim, mdim, coeffs):
    """_trusted on the coefficients that are not exactly zero: of the
    checks in __init__ only that rule runs again."""
    if mdim is None:
        return _trusted(dim, mdim, {n: v for n, v in coeffs.items() if v != 0})
    return _trusted(dim, mdim, {n: v for n, v in coeffs.items() if v.any()})


def _grid_sum(freqs, acc, n, dim):
    """sum_k acc[k] w^{<n_k mod N, t>} at every node t of the N-grid in
    dim dimensions, in ``evaluate``'s order: shape (N,)*dim + (E,) for
    acc of shape (T, E), one row per frequency n_k of the list freqs."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    ts = np.arange(n)

    def table(j):
        residues = np.array([k[j] % n for k in freqs], dtype=np.int64)
        return roots[np.outer(ts, residues) % n]

    for j in range(dim - 1):
        acc = table(j)[:, :, None] * acc[..., None, :, :]
    return table(dim - 1) @ acc


# ----------------------------------------------------------------------
# norms


def lp_norm(f, p, n_points=None):
    """L^p norm of a scalar polynomial by grid quadrature (p in [1, inf])."""
    if f.is_matrix_valued():
        raise ValueError("lp_norm is for scalar polynomials; see s1_l1_norm")
    if not p >= 1:  # also rejects nan
        raise ValueError("p must be at least 1 or math.inf")
    vals = np.abs(f.evaluate(n_points))
    if math.isinf(p):
        return float(vals.max()) if vals.size else 0.0
    w = 1.0 / vals.size
    return float((vals**p).sum() * w) ** (1.0 / p)


def trace_norms(a):
    """Trace norms of a stack of matrices, shape (..., m, m) -> (...).

    |a| at m = 1.  At m = 2, 3, 4 the sum s = sigma_1 + ... + sigma_m of
    the singular values needs no eigenvalue.  Let e_k be the elementary
    symmetric functions of the sigma_i and E_k those of the sigma_i^2.
    Then prod_i (1 + sigma_i x)(1 - sigma_i x) = prod_i (1 - sigma_i^2 x^2),
    that is e(x) e(-x) = E(-x^2), and every E_k is a sum of squares with
    no cancellation: E_1 = ||a||_F^2, E_k = sum |k x k minors of a|^2 by
    Cauchy-Binet, and e_m = |det a|.  The coefficients of x^2, x^4 and
    x^6, with e_1 = s, give

    * m = 2:  s^2 = E_1 + 2 |det a|.  Both terms are non-negative, so the
      absolute error is eps ||a||, as with an SVD.
    * m = 3:  f(s) = (s^2 - E_1)^2 - 4 E_2 - 8 |det a| s = 0.
    * m = 4:  f(s) = w^2 - E_2 - 2 s v + 2 |det a| = 0, with
      w = e_2 = (s^2 - E_1) / 2 and v = e_3 = (E_3 + 2 w |det a|)^{1/2}.

    Flipping the signs of an even number of the sigma_i keeps every E_k
    and e_m, so each sum +-sigma_1 +- ... +- sigma_m with an even number
    of minus signs solves the m = 3 quartic, and, squared out to
    (w^2 - E_2 + 2 |det a|)^2 = 4 s^2 v^2, the m = 4 equation; the roots
    of f are among these sums, and s is the largest of them (at m = 4,
    f(s) = 0 because w^2 - E_2 + 2 |det a| = 2 s e_3 >= 0 there).  At the
    root, f'(s) = 8 P at m = 3 and 2 P / e_3 at m = 4, with
    P = prod_{i<j} (sigma_i + sigma_j).

    Newton's method takes ROOT_STEPS[m] steps, elementwise over the stack
    (the E_k come from blocks of GRAM_BLOCK matrices), from
    s_0 = (E_1 + 2 (C(m,2) E_2)^{1/2})^{1/2} >= s, since e_2 <=
    (C(m,2) E_2)^{1/2} by Cauchy-Schwarz.  At m = 3 f is a quartic with
    real roots, increasing and convex right of its largest, so the
    iterates fall monotonically to s.  The last step only confirms that
    the one before had converged.  The E_k are summed in an order set by
    their count alone, and every other operation is elementwise, so a
    matrix's norm does not depend on the stack around it.  A matrix goes
    to the SVD instead when a guard fails:

    * E_1 lies outside [FRO2_MIN^{1/m}, FRO2_MAX^{1/m}], the range in which
      E_1^m, the scale of f, stays a normal double.  Outside, E_2 or E_3
      may over- or underflow (at m = 3 a Gaussian matrix times 1e-80 has
      E_2 ~ 1e-320 and would read 1e-5 off); zero, inf and nan land here.
    * the last step exceeds ROOT_STEP_TOL s: the iteration has not
      converged, as near a double root (rank <= 1 at m = 3).
    * kappa < ROOT_TAU, kappa = P / (2 s / m)^{C(m,2)} in (0, 1] (the mean
      of the C(m,2) pair sums is 2 s / m), read off f' before the last
      step.  A rounding error of order u s^4 in the data of f moves the
      root by that over f'(s), of order kappa s^3, so the computed s is
      off by at most about c u s / kappa: c <= 7 measured over Gaussian,
      graded and rank-deficient spectra, where the tests allow 16, so at
      most about 8e-14 s past the guard.  Below it the root is
      ill-conditioned although Newton converges: sigma = (1, 1e-6, 0)
      would read 1e-11 s off.

    At m >= 5, ||a||_1 = sum_i lambda_i^{1/2} over the eigenvalues of the
    Gram matrix G = a^H a, from one batched matmul and ``eigvalsh``, in
    blocks of GRAM_BLOCK matrices.  A matrix goes to the SVD instead when
    either guard fails:

    * tr G = ||a||_F^2 lies outside [FRO2_MIN, FRO2_MAX].  Inside, G
      neither overflows nor loses more than ~1e-308 per entry to
      underflow, against sigma_1^2 >= tr G / m; outside, and for inf or
      nan entries (where ``eigvalsh`` would raise on the whole stack), the
      SVD gives its own answer: a value, nan, or ``LinAlgError``.  The
      m = 2 closed form keeps this guard: out of range its squares
      overflow or underflow.
    * lambda_min < tau lambda_max, tau = GRAM_TAU.
      Forming G and ``eigvalsh`` are backward stable, so by Weyl each
      computed eigenvalue obeys |lambda_i - sigma_i^2| <= c m u sigma_1^2
      (u the unit roundoff, c a small constant).  With lambda_i >= tau sigma_1^2 the square root
      divides that by sqrt(lambda_i) + sigma_i >= 2 sqrt(tau) sigma_1, so
      the m terms sum to an error of at most c m^2 u sigma_1 / (2 sqrt(tau))
      <= c m^2 u / (2 sqrt(tau)) ||a||_1: about c * 3.6e-13 relative at
      m = 8.  Near-singular matrices, where the square root would amplify
      the error of a small eigenvalue, keep the SVD's eps ||a|| error.

    A stack of 0 x 0 matrices has trace norms 0; a shape other than
    (..., m, m) raises ValueError.
    """
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError("trace_norms takes a stack of square matrices, "
                         "shape (..., m, m), not %r" % (a.shape,))
    if a.shape[-1] == 0:
        return np.zeros(a.shape[:-2])
    if a.shape[-2:] == (1, 1):
        return np.abs(a[..., 0, 0])
    m = a.shape[-1]
    flat = a.reshape(-1, m, m)
    if m == 2:
        # the squared moduli added in row-major order, as a reduction over
        # both matrix axes adds them, on the four entry columns; the first
        # guard below sends a matrix to the SVD, as at m >= 3
        with np.errstate(all="ignore"):
            sq = flat.real**2 + flat.imag**2
            fro2 = sq[:, 0, 0] + sq[:, 0, 1] + sq[:, 1, 0] + sq[:, 1, 1]
            det = flat[:, 0, 0] * flat[:, 1, 1] - flat[:, 0, 1] * flat[:, 1, 0]
            out = np.sqrt(fro2 + 2.0 * np.abs(det))
        slow = ~((fro2 >= FRO2_MIN) & (fro2 <= FRO2_MAX))
        if slow.any():
            out[slow] = np.linalg.svd(flat[slow], compute_uv=False).sum(-1)
        return out.reshape(a.shape[:-2])
    if m <= 4:
        return _symmetric_root(flat).reshape(a.shape[:-2])
    out = np.empty(len(flat))
    for lo in range(0, len(flat), GRAM_BLOCK):
        blk = flat[lo:lo + GRAM_BLOCK]
        with np.errstate(all="ignore"):  # the first guard catches inf and nan
            gram = blk.conj().swapaxes(-1, -2) @ blk
        fro2 = np.trace(gram, axis1=-2, axis2=-1).real
        slow = ~((fro2 >= FRO2_MIN) & (fro2 <= FRO2_MAX))
        if slow.any():
            gram[slow] = np.eye(m)
        lam = np.linalg.eigvalsh(gram)
        slow |= lam[:, 0] < GRAM_TAU * lam[:, -1]
        res = out[lo:lo + len(blk)]
        if slow.any():
            res[~slow] = np.sqrt(lam[~slow]).sum(-1)
            res[slow] = np.linalg.svd(blk[slow], compute_uv=False).sum(-1)
        else:
            np.sqrt(lam).sum(-1, out=res)
    return out.reshape(a.shape[:-2])


def _sq_sum(z):
    """sum_k |z_k|^2 over the first axis of a complex array, in an order
    set by len(z) alone (row i added to row i + h, halving), so that no
    column's sum depends on the number of columns."""
    x = z.real**2 + z.imag**2
    while len(x) > 1:
        h = len(x) // 2
        y = x[:h] + x[h:2 * h]
        if len(x) % 2:
            y[-1] += x[-1]
        x = y
    return x[0]


def _entries(blk):
    """A stack of m x m matrices as m^2 rows of entries, row-major."""
    return np.ascontiguousarray(blk.reshape(len(blk), -1).T)


# m = 3: the 2 x 2 minor of rows (i, i+1) and columns (j+1, j+2), indices
# mod 3, is a[i, j+1] a[i+1, j+2] - a[i, j+2] a[i+1, j+1]: row i of the
# nine is the cross product of rows i and i+1, so row 0 holds the
# cofactors of row 2.  _X3 and _Y3 index the two products' factors.
_I3, _J3 = np.divmod(np.arange(9), 3)
_X3 = np.concatenate([3 * _I3 + (_J3 + 1) % 3, 3 * _I3 + (_J3 + 2) % 3])
_Y3 = np.concatenate([3 * ((_I3 + 1) % 3) + (_J3 + 2) % 3,
                      3 * ((_I3 + 1) % 3) + (_J3 + 1) % 3])


def _symmetric3(blk):
    """(E_1, E_2, e_3) of a block of 3 x 3 matrices: ||a||_F^2, the sum of
    the squared moduli of the nine 2 x 2 minors, and |det a|, expanded
    along row 2."""
    c = _entries(blk)
    p = c[_X3] * c[_Y3]
    minors = p[:9] - p[9:]
    d = c[6:] * minors[:3]
    return _sq_sum(c), _sq_sum(minors), np.abs(d[0] + d[1] + d[2])


# m = 4: the 2 x 2 minor of rows (i, j) and columns (p, q), both pairs in
# lexicographic order, is a[i, p] a[j, q] - a[i, q] a[j, p] (_X4, _Y4);
# the 3 x 3 minor of rows (i, j, k) and columns (p, q, r) is expanded
# along row i, a[i, p] M[jk, qr] - a[i, q] M[jk, pr] + a[i, r] M[jk, pq]
# (_E4 the entries, _M4 the 2 x 2 minors, term by term)
_PAIRS = list(itertools.combinations(range(4), 2))
_TRIPLES = list(itertools.combinations(range(4), 3))
_X4 = np.array([[4 * i + p for p, q in _PAIRS] for i, j in _PAIRS]
               + [[4 * i + q for p, q in _PAIRS] for i, j in _PAIRS]).ravel()
_Y4 = np.array([[4 * j + q for p, q in _PAIRS] for i, j in _PAIRS]
               + [[4 * j + p for p, q in _PAIRS] for i, j in _PAIRS]).ravel()
_E4 = np.array([[[4 * rows[0] + cols[x] for cols in _TRIPLES] for rows in _TRIPLES]
                for x in range(3)]).ravel()
_M4 = np.array([[[6 * _PAIRS.index(rows[1:]) + _PAIRS.index(cols[:x] + cols[x + 1:])
                  for cols in _TRIPLES] for rows in _TRIPLES] for x in range(3)]).ravel()


def _symmetric4(blk):
    """(E_1, E_2, E_3, e_4) of a block of 4 x 4 matrices: ||a||_F^2, the
    sums of the squared moduli of the 36 2 x 2 and the 16 3 x 3 minors,
    and |det a|, expanded along row 3 (the 3 x 3 minors of rows 0-2 on
    columns other than p, for p = 0..3, are rows 3..0 of the sixteen)."""
    c = _entries(blk)
    p = c[_X4] * c[_Y4]
    minors2 = p[:36] - p[36:]
    q = c[_E4] * minors2[_M4]
    minors3 = q[:16] - q[16:32] + q[32:]
    d = c[12:] * minors3[3::-1]
    return (_sq_sum(c), _sq_sum(minors2), _sq_sum(minors3),
            np.abs((d[0] - d[1]) + (d[2] - d[3])))


def _root3(sq1, sq2, det):
    """Newton on f(s) = (s^2 - E_1)^2 - 4 E_2 - 8 |det a| s, with sq1, sq2
    = E_1, E_2, from the upper bound s_0; returns the last iterate, the
    last step and f'/8 at the iterate before it."""
    s = np.sqrt(sq1 + 2.0 * np.sqrt(3.0 * sq2))
    four_sq2, eight_det = 4.0 * sq2, 8.0 * det
    for _ in range(ROOT_STEPS[3]):
        t = s * s - sq1
        df = 4.0 * s * t - eight_det
        step = (t * t - four_sq2 - eight_det * s) / df
        s = s - step
    return s, step, df / 8.0


def _root4(sq1, sq2, sq3, det):
    """Newton on f(s) = w^2 - E_2 - 2 s v + 2 |det a|, with w = (s^2 -
    E_1) / 2, v = (E_3 + 2 w |det a|)^{1/2} and sq1, sq2, sq3 = E_1, E_2,
    E_3, from the upper bound s_0; returns the last iterate, the last step
    and f' v / 2 at the iterate before it."""
    s = np.sqrt(sq1 + 2.0 * np.sqrt(6.0 * sq2))
    for _ in range(ROOT_STEPS[4]):
        s2 = s * s
        w = 0.5 * (s2 - sq1)
        v = np.sqrt(sq3 + 2.0 * w * det)
        df = 2.0 * (s * w - v - s2 * det / v)
        step = (w * w - sq2 - 2.0 * s * v + 2.0 * det) / df
        s = s - step
    return s, step, 0.5 * df * v


def _symmetric_root(flat):
    """trace_norms of a stack of m x m matrices at m = 3, 4 (see there):
    the E_k in blocks of GRAM_BLOCK, then Newton on the whole stack, and
    the SVD for each matrix a guard sends to it."""
    m = flat.shape[-1]
    symmetric, root = (_symmetric3, _root3) if m == 3 else (_symmetric4, _root4)
    sym = np.empty((m, len(flat)))
    with np.errstate(all="ignore"):  # the guards catch zero, inf and nan
        for lo in range(0, len(flat), GRAM_BLOCK):
            sym[:, lo:lo + GRAM_BLOCK] = symmetric(flat[lo:lo + GRAM_BLOCK])
        s, step, prod = root(*sym)
        ok = (sym[0] >= FRO2_MIN ** (1 / m)) & (sym[0] <= FRO2_MAX ** (1 / m))
        ok &= np.abs(step) <= ROOT_STEP_TOL * s
        ok &= prod >= ROOT_TAU * (2.0 * s / m) ** (m * (m - 1) // 2)
    if not ok.all():
        s[~ok] = np.linalg.svd(flat[~ok], compute_uv=False).sum(-1)
    return s


def trace_norm(a):
    """Sum of the singular values of one matrix, a 2-d array of any
    shape; a square one goes through ``trace_norms``."""
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2:
        raise ValueError("trace_norm takes one matrix, a 2-d array")
    if a.shape[0] != a.shape[1]:
        return float(np.linalg.svd(a, compute_uv=False).sum())
    return float(trace_norms(a))


def s1_l1_norm(f, n_points=None):
    """Integral over the torus of the trace norm of f(x).

    Scalar polynomials are treated as 1 x 1 matrices, so this coincides
    with the plain L^1 norm there.
    """
    if not f.is_matrix_valued():
        return lp_norm(f, 1, n_points)
    return float(trace_norms(f.evaluate(n_points)).mean())


def largest_bin(parts, n_points=None):
    """[(||B||_1, B) for each part]: B = B_{r*} is the part's bin of
    largest trace norm, the first in the part's order on ties, or
    (0.0, None) for a zero part.  ||B||_1 is a lower bound on
    s1_l1_norm(part, n_points) that never touches the grid.  The parts
    share one value shape, as the derivatives of one polynomial do, and
    each B is a copy, so a caller that keeps it keeps no other bin.

    Bin each part's coefficients by residue r = n mod N, each signed by
    (-1)^{|n|} as ``evaluate`` signs it:  B_r = sum_{n = r mod N}
    (-1)^{|n|} c_n.  The grid values are f(x_t) = sum_r B_r w^{<r,t>}, so
    B_r = N^{-d} sum_t f(x_t) w^{-<r,t>} is the grid's discrete Fourier
    coefficient, and since the trace norm is a norm and |w| = 1,
    ||B_r||_1 <= N^{-d} sum_t ||f(x_t)||_1, the grid mean s1_l1_norm
    computes.  This holds in any d and whatever the aliasing, at a cost
    of O(T m^2) per part plus one trace norm per bin, all in one
    ``trace_norms`` call (a matrix's trace norm does not depend on the
    stack around it, so each part's norms are those of a call of its own).
    """
    vals, ends = [], []
    for f in parts:
        n = f._grid_n(n_points)
        bins = {}
        for k, v in f.coeffs.items():
            r = tuple(c % n for c in k)
            v = _grid_signed(k, v)
            bins[r] = bins[r] + v if r in bins else v
        vals.extend(bins.values())
        ends.append(len(vals))
    if vals:
        vals = np.array(vals, dtype=complex)
        norms = trace_norms(vals) if vals.ndim == 3 else np.abs(vals)
    out, lo = [], 0
    for hi in ends:
        if hi == lo:
            out.append((0.0, None))
        else:
            top = lo + int(np.argmax(norms[lo:hi]))
            out.append((float(norms[top]), vals[top].copy()))
        lo = hi
    return out


def pinch_minorant(f, top, n_points=None):
    """Grid values, flattened in ``evaluate``'s order, of a real function
    ell with ell(x_t) <= ||f(x_t)||_1 at every node; f is matrix valued,
    and top is the bin B that ``largest_bin`` finds for f, whose trace
    norm is at most the grid mean of ell.

    Take the SVD B = W Sigma V^H.  ell(x_t) is the trace norm of the
    block-diagonal part of W^H f(x_t) V: the m // 2 diagonal 2 x 2
    blocks, each by the closed form of ``trace_norms``, plus the last
    diagonal entry in modulus when m is odd.

    * ell <= ||f||_1 pointwise: W, V are unitary, so ||W^H a V||_1 =
      ||a||_1, and keeping the diagonal blocks of a matrix (pinching) does
      not raise its trace norm (Bhatia, Matrix Analysis, 1997, ch. IV).
    * mean ell >= ||B||_1: with U = W V^H, Re tr(U^H w^{-<r*,t>} f(x_t))
      is at most the sum of the moduli of the diagonal of W^H f(x_t) V,
      which is at most ell(x_t), and its grid mean keeps only the term
      r = r* of f(x_t) = sum_r B_r w^{<r,t>}: Re tr(U^H B) = ||B||_1.

    Only the 2m block-diagonal entries of the rotated coefficients
    W^H c_k V are evaluated, so the cost is one SVD of an m x m matrix
    plus O(T m^3 + T N^d m), and the arrays hold 2m entries per node
    where those of ``evaluate`` hold m^2.
    """
    n = f._grid_n(n_points)
    if not f.coeffs:
        return np.zeros(n ** f.dim)
    w, _, vh = np.linalg.svd(top)
    freqs = list(f.coeffs)
    rot = w.conj().T @ np.array([_grid_signed(k, f.coeffs[k]) for k in freqs]) @ vh.conj().T
    m, h = f.mdim, f.mdim // 2
    entries = [rot[:, i:i + 2, i:i + 2].reshape(len(freqs), 4)
               for i in range(0, m - 1, 2)]
    if m % 2:
        entries.append(rot[:, m - 1, m - 1:])
    vals = _grid_sum(freqs, np.concatenate(entries, axis=1), n, f.dim)
    vals = vals.reshape(n ** f.dim, -1)
    ell = trace_norms(vals[:, :4 * h].reshape(-1, h, 2, 2)).sum(-1)
    if m % 2:
        ell += np.abs(vals[:, -1])
    return ell


def sobolev_norm(f, smoothness, n_points=None):
    """sum_{gamma in S} ||d^gamma f||_1, with the pointwise trace norm in
    place of the absolute value when f is matrix valued."""
    return sum(s1_l1_norm(f.derivative(gamma), n_points) for gamma in smoothness)


def paley_l2_norm(f, smoothness, frequencies):
    """Weighted coefficient norm (sum_{n} Q_S(n) |f_hat(n)|^2)^{1/2} over
    the set of the given frequencies, each counted once, in the order of
    first occurrence; matrix coefficients enter by Frobenius norm."""
    total = 0.0
    for key in dict.fromkeys(int_tuple(n) for n in frequencies):
        if key not in f.coeffs:
            continue
        v = f.coeffs[key]
        mag2 = float(np.sum(np.abs(v) ** 2)) if isinstance(v, np.ndarray) else abs(v) ** 2
        total += float(q_s_eval(smoothness, key)) * mag2
    return math.sqrt(total)


def random_trigpoly(frequencies, mdim=None, seed=0):
    """Independent standard complex Gaussian coefficients on the given
    frequencies (matrix entries i.i.d. when mdim is set).

    One draw of shape (T, 2) or (T, 2, m, m) for T frequencies: the same
    stream, in the same order, as a real and an imaginary part drawn per
    frequency in turn.  The keys are checked here, once, so the
    polynomial is built without the constructor's checks.
    """
    freqs = [int_tuple(n) for n in frequencies]
    if not freqs:
        raise ValueError("need at least one frequency")
    dim = int_at_least("dim", len(freqs[0]), 1)
    for n in freqs:
        if len(n) != dim:
            raise ValueError("frequency %r has wrong dimension" % (n,))
    rng = np.random.default_rng(seed)
    out = {}
    if mdim is None:
        for n, (re, im) in zip(freqs, rng.standard_normal((len(freqs), 2)).tolist()):
            out[n] = complex(re + 1j * im) / math.sqrt(2)
    else:
        draw = rng.standard_normal((len(freqs), 2, mdim, mdim))
        for n, (re, im) in zip(freqs, draw):
            out[n] = (re + 1j * im) / math.sqrt(2)
        mdim = draw.shape[-1]  # a Python int, as the constructor reads it
    return _nonzero(dim, mdim, out)
