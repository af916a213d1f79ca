"""The operator pipeline: M, convolution with the Riesz measure, and the
coordinate projection, composed into a closed-form Paley-type map.

On a plan with sequence (n_k), witness (alpha, beta), and constants tau,
ell, the three stages act on a trigonometric polynomial f as

    M f      = d^alpha f + tau*ell*d^beta f - corrections on -B_k,
    M_R f    = f * mu_R            (Fourier multiplier by Riesz coeffs),
    P        = restriction of the spectrum to Lambda = {n_k}.

Their composite collapses to   sum_k rho_k Q_S(n_k)^{1/2} f_hat(n_k) e_k
with rho_k = (sigma_alpha(n_k) + tau*ell*sigma_beta(n_k)) /
(2 Q_S(n_k)^{1/2}).

The witness symbol, the multiplier of d^alpha + tau*ell*d^beta, is
i^{|alpha|} W(nu) / den(ell) with W the exact integer of
sequence.witness_numerator (its docstring has the derivation), the one
formula check_conditions sums too.  M's correction removes the symbol
once per ball B_k holding -nu (a membership test, never an enumeration
of the ball), so M's multiplier is i^{|alpha|} W(nu) (1 - mult) /
den(ell), one correctly rounded int division, and it vanishes on -B_k
by integer arithmetic.  build_pipeline takes rho_k from M's multiplier
at n_k, so comparing the composite with its closed form checks what the
other two stages add, the Riesz coefficient 1/2 on each n_k and the
projection; the rho_k bounds, which keep |rho_k| away from 0, check that
no correction of M reaches Lambda.

All three stages are Fourier multipliers: each maps the coefficient at
nu to a number times that coefficient, with no mixing of frequencies.
So composite_apply projects first and runs M and the Riesz multiplier
on the K frequencies of Lambda only; whatever operator_m and
convolve_riesz would compute off Lambda, P throws away.  The factors at
each n_k are computed once, by build_pipeline, with the _m_factor
operator_m uses, and applied in the same order, so the result is the
stage-by-stage composite bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .multiindex import PHASES, int_tuple, order, q_s_eval
from .riesz import riesz_coeffs
from .sequence import witness_numerator
from .trigpoly import (
    CHOP,
    TrigPoly,
    _above,
    paley_l2_norm,
    pinch_minorant,
    random_trigpoly,
    s1_l1_lower_bound,
    s1_l1_norm_unless,
)


@dataclass
class OperatorPipeline:
    """A plan together with its Riesz measure and the constants rho_k.

    on_lambda maps each n_k to (M factor, Riesz coefficient) at n_k, the
    two multipliers composite_apply needs there.
    """

    plan: object
    riesz: object
    rho_k: list
    sqrt_q: list
    on_lambda: dict


def ball_multiplicity(plan, m):
    """Number of indices k with m in B_k; the correction in M counts
    each containment once.  Balls overlap only in plans that break
    condition (i), never in one build_sequence returns (see
    check_conditions, point (5))."""
    mult = 0
    for k in range(1, plan.K + 1):
        center = plan.sequence[k - 1]
        radius = plan.radii[k - 1]
        # the first coordinate alone already bounds the l1 distance
        if abs(m[0] - center[0]) > radius:
            continue
        if sum(abs(a - b) for a, b in zip(m, center)) <= radius:
            mult += 1
    return mult


def _m_factor(nu, plan):
    """The multiplier of M at nu: the witness symbol i^{|alpha|} W(nu) /
    den(ell) of witness_numerator, times 1 - mult for the number mult of
    balls B_k that hold -nu, rounded once from the exact rational."""
    mult = ball_multiplicity(plan, tuple(-c for c in nu))
    w = witness_numerator(plan, nu) * (1 - mult)
    return PHASES[order(plan.witness.alpha) % 4] * (w / plan.ell_exact.denominator)


def build_pipeline(plan):
    """Assemble the Riesz measure, the multipliers of M and of the Riesz
    measure on Lambda, and the per-index constants rho_k = M factor at
    n_k / (2 Q_S(n_k)^{1/2}).

    riesz_coeffs raises StageFailure at stage "riesz" unless the plan's
    sequence is lacunary, which proves claims A and B."""
    riesz = riesz_coeffs(plan.sequence, plan.K)
    rho = []
    roots = []
    on_lambda = {}
    for n in plan.sequence:
        root = math.sqrt(float(q_s_eval(plan.smoothness, n)))
        factor = _m_factor(n, plan)
        rho.append(factor / (2.0 * root))
        roots.append(root)
        on_lambda[n] = (factor, riesz.multiplier(n))
    return OperatorPipeline(plan=plan, riesz=riesz, rho_k=rho, sqrt_q=roots,
                            on_lambda=on_lambda)


def paley_project(f, frequencies):
    """Restrict the coefficient map to the given frequencies."""
    keep = {int_tuple(n) for n in frequencies}
    out = {n: v for n, v in f.coeffs.items() if n in keep}
    return TrigPoly(out, dim=f.dim, mdim=f.mdim)


def operator_m(f, pipeline):
    """Apply M in one pass over the spectrum of f: each coefficient times
    _m_factor at its frequency, dropped where the factor is zero, and
    chopped at CHOP."""
    out = {}
    for nu, coeff in f.coeffs.items():
        factor = _m_factor(nu, pipeline.plan)
        if factor != 0:
            out[nu] = factor * coeff
    return TrigPoly(out, dim=f.dim, mdim=f.mdim).chop()


def convolve_riesz(f, riesz):
    """Fourier multiplier by the Riesz coefficients."""
    out = {}
    for n, v in f.coeffs.items():
        w = riesz.multiplier(n)
        if w:
            out[n] = w * v
    return TrigPoly(out, dim=f.dim, mdim=f.mdim)


def coordinate_projection(f, pipeline):
    """Projection onto Lambda = (n_k): paley_project onto the plan's
    sequence, whatever the rest of the spectrum of f."""
    return paley_project(f, pipeline.plan.sequence)


def composite_apply(f, pipeline):
    """coordinate_projection(convolve_riesz(operator_m(f))), bit for bit.

    The three stages are Fourier multipliers, so they commute with the
    projection, and only the coefficients of f on Lambda can survive.
    Those are taken in the order of f and sent through the same steps as
    the stage-by-stage composite, with the factors build_pipeline
    computed: v = factor * c, dropped if the factor is zero or v is at
    most CHOP (operator_m's chop), then w * v, dropped if the Riesz
    coefficient w is zero.
    """
    out = {}
    for n, c in f.coeffs.items():
        factor, w = pipeline.on_lambda.get(n, (0, 0))
        if factor != 0 and w:
            v = factor * c
            if _above(v, CHOP):
                out[n] = w * v
    return TrigPoly(out, dim=f.dim, mdim=f.mdim)


def composite_closed_form(f, pipeline):
    """The right-hand side sum_k rho_k Q_S(n_k)^{1/2} f_hat(n_k) e_{n_k},
    computed without running the operators."""
    out = {}
    for k, n in enumerate(pipeline.plan.sequence):
        if n in f.coeffs:
            out[n] = pipeline.rho_k[k] * pipeline.sqrt_q[k] * f.coeffs[n]
    return TrigPoly(out, dim=f.dim, mdim=f.mdim)


def composite_relative_error(f, pipeline):
    """L2-coefficient distance between pipeline and closed form,
    relative to the closed form (or to f when the closed form is 0).

    The distance is _coeff_l2(got - want) summed in one pass: the keys
    of got, then those of want alone, as TrigPoly subtraction orders
    them, with its chop at CHOP of want's coefficients and of each
    difference.
    """
    got = composite_apply(f, pipeline).coeffs
    want = composite_closed_form(f, pipeline)
    total = 0.0
    for n, g in got.items():
        if n in want.coeffs and _above(want.coeffs[n], CHOP):
            g = g - want.coeffs[n]
        if _above(g, CHOP):
            total += _square(g)
    for n, v in want.coeffs.items():
        if n not in got and _above(v, CHOP):
            total += _square(v)
    num = math.sqrt(total)
    den = _coeff_l2(want)
    if den == 0.0:
        den = _coeff_l2(f)
    return num / den if den else num


def _square(v):
    if isinstance(v, np.ndarray):
        return float(np.sum(np.abs(v) ** 2))
    return abs(v) ** 2


def _coeff_l2(f):
    return math.sqrt(sum(_square(v) for v in f.coeffs.values()))


# ----------------------------------------------------------------------
# empirical Paley constants

# relative slack of the skip rule; estimate_paley_constant's docstring
# argues that it covers rounding
PALEY_MARGIN = 1e-6


def paley_ratio(f, smoothness, frequencies, n_points=None, best=None):
    """paley_l2_norm over sobolev_norm (p = 1), the per-function Paley
    quotient; undefined for the zero polynomial.

    With best given, returns None as soon as the quotient is proven not
    to exceed best (the skip rule of estimate_paley_constant).  A
    quotient that is returned always sums its s1_l1_norm terms in the
    order of smoothness, so it is bit-identical to
    paley_l2_norm(f) / sobolev_norm(f) whatever best is.
    """
    if len(f) == 0:
        raise ValueError("Paley ratio undefined for the zero polynomial")
    num = paley_l2_norm(f, smoothness, frequencies)
    parts = [f.derivative(gamma) for gamma in smoothness]
    terms = [0.0] * len(parts)
    ells = [None] * len(parts)

    def beaten(lows):
        # every entry of lows is at most its E_gamma
        return num <= best * sum(lows) * (1.0 - PALEY_MARGIN)

    if best is not None:
        terms = [s1_l1_lower_bound(p, n_points) for p in parts]
        if (f.mdim or 1) >= 3:
            for j in sorted(range(len(parts)), key=lambda j: -terms[j]):
                if beaten(terms):
                    return None
                ells[j] = pinch_minorant(parts[j], n_points)
                terms[j] = float(ells[j].mean())
    for j in sorted(range(len(parts)), key=lambda j: -terms[j]):
        stop = None
        if best is not None:
            def stop(bound, j=j):
                return beaten(terms[:j] + [bound] + terms[j + 1:])
            if stop(terms[j]):
                return None
        terms[j] = s1_l1_norm_unless(parts[j], stop, n_points, ells[j])
        if terms[j] is None:
            return None
    return num / sum(terms)


@dataclass(frozen=True)
class PaleySampler:
    """Sampling policy for estimate_paley_constant.

    support: candidate frequencies; each sample draws ``terms`` of them
    without replacement.  always: frequencies included in every sample
    (typically the grid-reachable part of Lambda).  mdim is one matrix
    dimension or a tuple of them; m = 1 still draws 1x1 matrices so
    every dimension goes through the same code path.  grid_n overrides
    the quadrature resolution, which is how plans whose exact Nyquist
    grid is out of reach stay testable.
    """

    count: int = 100
    support: tuple = ()
    always: tuple = ()
    terms: int = 8
    mdim: object = 1
    seed: int = 0
    grid_n: int = None

    def __post_init__(self):
        """The one gate on the probe's inputs: integers count >= 1, terms >=
        0, grid_n >= 1 or None (default grids), and mdim as mdims() takes it."""
        for name, low in (("count", 1), ("terms", 0), ("grid_n", 1)):
            value = getattr(self, name)
            if value is None and name == "grid_n":
                continue
            if int_tuple((value,))[0] < low:
                raise ValueError("need %s >= %d, got %r" % (name, low, value))
        self.mdims()

    def mdims(self):
        """The matrix dimensions as a tuple of distinct Python ints, each
        at least 1.  mdim is one integer or a sequence of them; numpy
        integers pass, while a bool, a float, a repeat or a dimension
        below 1 raises ValueError."""
        dims = int_tuple((self.mdim,) if np.ndim(self.mdim) == 0 else self.mdim)
        if not dims or len(set(dims)) != len(dims) or min(dims) < 1:
            raise ValueError("need distinct matrix dimensions, each at least 1, "
                             "got %r" % (dims,))
        return dims

    def draw(self, m, i):
        """Sample i of matrix dimension m, from the stream (seed, m, i)
        alone: Gaussian m x m coefficients on ``always`` plus ``terms``
        frequencies of ``support``."""
        rng = np.random.default_rng([self.seed, m, i])
        freqs = list(self.always)
        if len(self.support):
            take = min(self.terms, len(self.support))
            idx = rng.choice(len(self.support), size=take, replace=False)
            freqs.extend(self.support[j] for j in idx)
        coeff_seed = int(rng.integers(0, 2**31))
        return random_trigpoly(freqs, mdim=m, seed=coeff_seed)


def estimate_paley_constant(smoothness, frequencies, sampler):
    """Empirical sup of the Paley quotient over seeded random samples.

    Deterministic given the sampler; returns the overall sup, where it
    was attained, and a per-matrix-dimension table.  Sample streams
    depend only on (seed, m, index), never on count, so enlarging the
    sample can only raise the sup.  An observed sup is a lower bound on
    the true constant, never a proof of boundedness.

    Most samples cannot beat the running best, and their grid work is
    skipped.  Three certified lower bounds on E_gamma = s1_l1_norm(d^gamma
    f) stand in for it until it is computed, each at least the one
    before:

    * the bin bound L_gamma = s1_l1_lower_bound(d^gamma f), grid free;
    * at m >= 3, the pinch mean P_gamma, the grid mean of ell_gamma =
      pinch_minorant(d^gamma f), which is <= the trace norm at every node
      and >= the polar minorant, whose grid mean is L_gamma (see
      pinch_minorant);
    * part-way through an exact term at m >= 3, (norms computed so far +
      ell_gamma over the nodes not yet normed) / N^d: s1_l1_norm_unless
      computes the grid trace norms in blocks of GRAM_BLOCK and forms it
      before each block after the first, so it rises from P_gamma to
      E_gamma.

    A sample computes its numerator and every L_gamma, then stops as
    soon as

        num <= best * sum_gamma (E_gamma if computed, else its latest
                                 bound) * (1 - PALEY_MARGIN),

    since then num / sum E_gamma < best.  The rule is tried on the bin
    bounds; at m >= 3, after raising each L_gamma to P_gamma, largest
    L_gamma first, with the pinches all taken before any exact term
    (a pinch evaluates 2m entries per node and needs no Gram eigenvalue,
    against m^2 entries and an eigvalsh per node for the term); then
    before each exact E_gamma, largest bound first, and at every
    part-way bound inside it, whose ell_gamma is the pinch already
    computed.  A sample that finishes sums its E_gamma in the order of
    S, exactly as sobolev_norm does, so every per-m sup and argmax is
    the one of the plain loop over paley_ratio, bit for bit; a tie never
    replaces an earlier index.

    The margin covers rounding, which can push a computed bound above
    the computed E_gamma although it is below E_gamma exactly.  All of
    them start from the same T coefficients c_k; the bins and the grid
    values are sums of at most T terms with phases accurate to a few u
    (the unit roundoff), so with kappa = (sum_k ||c_k||_F)^2 / sum_r
    ||B_r||_F^2, which is at most T when no two frequencies share a bin,
    grid-value rounding moves E_gamma by at most about (2T + d + 4)
    sqrt(m) kappa u relative (E_gamma >= sum_r ||B_r||_F^2 / sum_k
    ||c_k||_F by discrete Parseval); trace_norms adds its stated c m^2 u
    / (2 sqrt(GRAM_TAU)), about c * 3.6e-13 at m = 8, and the sums and
    the quotient a few u more.  The pinch adds its own rounding: the SVD
    factors W, V are unitary to a few m u, so rotating gives W^H c_k V
    off by about 2 m sqrt(m) u ||c_k||_F and stretches trace norms by at
    most a few m u; evaluating its 2m block entries sums T terms with
    phases accurate to a few u, as the grid values do; and the 2 x 2
    closed form is off by a few u ||b||_F per block b, at most a few
    sqrt(m) u times the Frobenius norm over the m/2 blocks.  So each
    ell_gamma(x_t) is off by at most about (T + 2m + d + 6) sqrt(m) u
    sum_k ||c_k||_F, that is (T + 2m + d + 6) sqrt(m) kappa u relative
    to E_gamma: the order of the polar minorant's (T + 2m + d + 4)
    sqrt(m) kappa u and of the grid values.  The part-way bound adds
    only the computed norms E_gamma is the mean of.  At T = 9, m = 8 all
    of this is below 1e-12 relative, and PALEY_MARGIN = 1e-6 holds for
    kappa up to about 10^8: it fails only if every bin cancels to about
    1e-3 of its coefficients' size, where the grid values are themselves
    mostly rounding.
    """
    mdims = sampler.mdims()
    lam = [int_tuple(n) for n in frequencies]
    per_dim = {}
    for m in mdims:
        best = index = None
        for i in range(sampler.count):
            r = paley_ratio(sampler.draw(m, i), smoothness, lam,
                            n_points=sampler.grid_n, best=best)
            if r is not None and (best is None or r > best):
                best, index = r, i
        per_dim[m] = {"sup_ratio": best, "argmax_index": index}
    top = max(mdims, key=lambda m: per_dim[m]["sup_ratio"])
    return {
        "sup_ratio": per_dim[top]["sup_ratio"],
        "argmax_index": per_dim[top]["argmax_index"],
        "argmax_mdim": top,
        "per_dim": per_dim,
        "count": sampler.count,
        "mdim": sampler.mdim,
        "seed": sampler.seed,
    }
