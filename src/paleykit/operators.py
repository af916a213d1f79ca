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

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .multiindex import PHASES, int_at_least, int_tuple, order, q_s_eval
from .riesz import riesz_coeffs
from .sequence import witness_numerator
from .trigpoly import (
    CHOP,
    GRAM_BLOCK,
    TrigPoly,
    _above,
    largest_bin,
    paley_l2_norm,
    pinch_minorant,
    random_trigpoly,
    sobolev_norm,
    trace_norms,
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
    """L2-coefficient distance _coeff_l2(got - want) between pipeline and
    closed form, by TrigPoly subtraction, relative to the closed form
    (or to f when the closed form is 0)."""
    got = composite_apply(f, pipeline)
    want = composite_closed_form(f, pipeline)
    num = _coeff_l2(got - want)
    den = _coeff_l2(want) or _coeff_l2(f)
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


def paley_ratio(f, smoothness, frequencies, n_points=None):
    """paley_l2_norm over sobolev_norm (p = 1), the per-function Paley
    quotient; undefined for the zero polynomial."""
    if len(f) == 0:
        raise ValueError("Paley ratio undefined for the zero polynomial")
    return (paley_l2_norm(f, smoothness, frequencies)
            / sobolev_norm(f, smoothness, n_points))


def _beaten(num, best, lows):
    # the skip rule, with every entry of lows at most its E_gamma; before
    # there is a best, nothing is skipped
    return best is not None and num <= best * sum(lows) * (1.0 - PALEY_MARGIN)


def _bound(num, lows):
    # the certified upper bound num / sum(lows) on the quotient
    low = sum(lows)
    return num / low if low else (math.inf if num else 0.0)


def _raise_to_pinch(num, parts, tops, lows, best, n_points):
    """Raise each bin bound in lows, in place and largest first, to its
    pinch mean, and return the pinch arrays; None as soon as the skip
    rule holds."""
    ells = [None] * len(parts)
    for j in sorted(range(len(parts)), key=lambda j: -lows[j]):
        if _beaten(num, best, lows):
            return None
        ells[j] = pinch_minorant(parts[j], tops[j], n_points)
        lows[j] = float(ells[j].mean())
    return ells


def _exact_term(num, best, terms, j, part, ell, n_points):
    """E_j = s1_l1_norm(part, n_points) bit for bit, or None as soon as
    the skip rule holds with terms[j] raised to a part-way bound.

    part is matrix valued; its grid values live only inside this call.
    Given its pinch array ell (m >= 3), the trace norms are taken in
    blocks of GRAM_BLOCK, in ``evaluate``'s order, and before each block
    after the first the bound

        (sum_{t < lo} ||part(x_t)||_1 + sum_{t >= lo} ell(x_t)) / N^d

    stands for terms[j].  Without ell (m <= 2, closed-form norms) they
    are taken in one call with no check.  A block's norms do not depend
    on the stack around it, so the mean is s1_l1_norm's.
    """
    m = part.mdim
    vals = part.evaluate(n_points).reshape(-1, m, m)
    norms = np.empty(len(vals))
    step = len(vals) if ell is None else GRAM_BLOCK
    for lo in range(0, len(vals), step):
        if lo:
            bound = (norms[:lo].sum() + ell[lo:].sum()) / len(vals)
            if _beaten(num, best, terms[:j] + [bound] + terms[j + 1:]):
                return None
        norms[lo:lo + step] = trace_norms(vals[lo:lo + step])
    return float(norms.mean())


def _exact_ratio(num, parts, tops, lows, best, n_points, ells):
    """num over the exact terms E_gamma, taken largest bound first with
    lows as the bounds, or None as soon as the skip rule holds before a
    term or part-way through one.  With ells given (m >= 3) and a best
    to beat, a term whose pinch array ells lacks gets it from its bin in
    tops before its grid values.  A quotient that is returned sums the
    E_gamma in the order of smoothness, as sobolev_norm does."""
    terms = list(lows)
    for j in sorted(range(len(parts)), key=lambda j: -terms[j]):
        if _beaten(num, best, terms):
            return None
        if best is not None and ells is not None and ells[j] is None:
            ells[j] = pinch_minorant(parts[j], tops[j], n_points)
        ell = None if ells is None else ells[j]
        terms[j] = _exact_term(num, best, terms, j, parts[j], ell, n_points)
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
            if value is not None or name != "grid_n":
                int_at_least(name, value, low)
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

    * the bin bound L_gamma = ||B_gamma||_1 for the largest bin B_gamma
      of d^gamma f (largest_bin), grid free;
    * at m >= 3, the pinch mean P_gamma, the grid mean of ell_gamma =
      pinch_minorant(d^gamma f, B_gamma), with B_gamma from that same bin
      pass, which is <= the trace norm at every node and >= the polar
      minorant, whose grid mean is L_gamma (see pinch_minorant);
    * part-way through an exact term at m >= 3, (norms computed so far +
      ell_gamma over the nodes not yet normed) / N^d: _exact_term
      computes the grid trace norms in blocks of GRAM_BLOCK and forms it
      before each block after the first, so it rises from P_gamma to
      E_gamma.

    A sample is dropped as soon as

        num <= best * sum_gamma (E_gamma if computed, else its latest
                                 bound) * (1 - PALEY_MARGIN),

    since then num / sum E_gamma < best.  Per m the samples are visited
    best-first.  A first pass draws them and computes each numerator and
    every L_gamma, and a heap orders them by the upper bound num /
    sum_gamma L_gamma on the quotient, lower index first on equal
    bounds.  A sample's derivatives are binned in one pass, one
    largest_bin call over all of them.  A heap entry keeps the sample's
    coefficients, num, its latest bounds and each B_gamma, copied out of
    that pass, so no derivative is binned again; never a derivative or a
    grid array.  A visit pops the top sample, takes its derivatives again
    (derivative_multiplier caches the multiplier of each (gamma, n)), and

    * ends the search if the rule holds for it.  That is the rule's own
      inequality, so the margin argument below covers it; every sample
      left has a bound at most the popped one's, up to the few u of two
      divisions, far inside the margin, so none can beat best either;
    * at m >= 3, if it has bin bounds only, raises them to pinch means,
      largest L_gamma first, dropping the sample once the rule holds (a
      pinch evaluates 2m entries per node and needs no Gram eigenvalue,
      an exact term m^2 entries and an eigvalsh per node), and puts it
      back if its new bound no longer tops the heap.  The first visit
      pinches too, so that the first best comes from the sharper bound;
    * else computes the exact E_gamma, largest bound first, trying the
      rule before each and at every part-way bound inside it, with the
      term's pinch array just computed or, after a return to the heap,
      computed when the term starts.

    A sample that finishes sums its E_gamma in the order of S, exactly
    as sobolev_norm does, and replaces the best if its quotient is
    larger, or equal at a lower index.  The margin keeps the rule from
    firing on a tie, so no sample whose quotient equals the final sup is
    ever dropped, and every per-m sup and argmax is that of the plain
    loop over paley_ratio in index order, first index on ties, bit for
    bit.

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
    grid_n = sampler.grid_n
    per_dim = {}
    for m in mdims:
        # the pinch pays off only where the exact trace norms need Gram
        # eigenvalues, at m >= 3
        pinch = m >= 3
        heap = []
        for i in range(sampler.count):
            f = sampler.draw(m, i)
            num = paley_l2_norm(f, smoothness, lam)
            bins = largest_bin([f.derivative(g) for g in smoothness], grid_n)
            lows = [low for low, _ in bins]
            tops = [top for _, top in bins]
            heap.append((-_bound(num, lows), i, f, num, lows, tops, not pinch))
        heapq.heapify(heap)
        best = index = None
        while heap:
            # final: the bounds are as high as they get before exact terms
            _, i, f, num, lows, tops, final = heapq.heappop(heap)
            if _beaten(num, best, lows):
                break
            parts = [f.derivative(g) for g in smoothness]
            ells = [None] * len(parts) if pinch else None
            if not final:
                ells = _raise_to_pinch(num, parts, tops, lows, best, grid_n)
                if ells is None:
                    continue
                entry = (-_bound(num, lows), i, f, num, lows, tops, True)
                if heap and heap[0] < entry:
                    heapq.heappush(heap, entry)
                    continue
            r = _exact_ratio(num, parts, tops, lows, best, grid_n, ells)
            if r is not None and (best is None or r > best
                                  or (r == best and i < index)):
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
