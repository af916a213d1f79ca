"""Lacunary frequency sequences on the witness power curve.

Given a smoothness set with a parity-splitting witness (alpha, beta, c),
frequencies are taken on the curve n(j) = round(t^{c_j}).  The pairings
<alpha, c> = <beta, c> = 1 make |sigma_alpha(n)| and |sigma_beta(n)|
grow like t, while <gamma, c> <= 1 caps every other symbol, so the
normalized symbol sizes rho_hat stay bounded away from zero along the
whole sequence.

The builder walks t_k = t0 * q^{k-1} and doubles t_k greedily until
  * the ball radius D_k = sum of all coordinates of n_1..n_{k-1} is
    strictly below min_j n_k(j)   (condition (i)),
  * the first coordinates grow by a factor >= 3 (Hadamard lacunarity),
  * min_j n_k(j) strictly increases.
All lattice arithmetic is exact (Python integers / Fractions); floats
appear only in reported sums.

The module also carries the finite-truncation checks of the four
sequence conditions (condition (iv) summed over the Riesz spectrum
points of each ball B_k, all of them, see check_conditions), and the
closeness quantities q1, q2, q3 of the fundamental-polynomial ratio
together with their closed-form bounds, which certify the threshold
rho(D, eps) (see closeness_bounds).
"""

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Optional

from .errors import ConstructionError, SingularFrequencyError, StageFailure
from .multiindex import PHASES, Smoothness, order, q_s_eval, symbol_abs_int, symbol_eval
from .property_o import PropertyOWitness, verify_witness


def compute_tau(alpha, beta):
    """i^{|alpha| - |beta|}; requires opposite parity, so the value is
    i or -i."""
    e = order(alpha) - order(beta)
    if e % 2 == 0:
        raise ValueError("alpha and beta have equal total-order parity")
    return PHASES[e % 4]


def integer_nth_root(x, n):
    """floor(x^{1/n}) for non-negative integer x, exact."""
    if x < 0 or n < 1:
        raise ValueError("bad root arguments")
    if x == 0:
        return 0
    r = 1 << ((x.bit_length() + n - 1) // n)
    while True:
        r2 = ((n - 1) * r + x // r ** (n - 1)) // n
        if r2 >= r:
            break
        r = r2
    while (r + 1) ** n <= x:
        r += 1
    while r**n > x:
        r -= 1
    return r


def round_rational_power(t, c):
    """round(t^c) for positive rational t and non-negative rational c,
    computed exactly (ties round up)."""
    t = Fraction(t)
    c = Fraction(c)
    if t <= 0 or c < 0:
        raise ValueError("need t > 0 and c >= 0")
    p, q = c.numerator, c.denominator
    num = t.numerator**p
    den = t.denominator**p
    k = integer_nth_root(num // den, q)
    # round up when t^c >= k + 1/2, i.e. 2^q * num >= (2k+1)^q * den
    if (2**q) * num >= (2 * k + 1) ** q * den:
        k += 1
    return k


# ----------------------------------------------------------------------
# plan construction


@dataclass
class EllEstimate:
    """|sigma_alpha(n_K)| / |sigma_beta(n_K)| with last-step drift."""

    exact: Fraction
    value: float
    drift: float


@dataclass
class ConditionReport:
    """Finite-truncation verdicts for the four sequence conditions.

    sum_iii and sum_iv are the raw truncated sums compared against 1/2
    and 1.  sum_iv runs over every ball B_1 .. B_K, each on its Riesz
    spectrum points other than the centre (see check_conditions).
    """

    cond_i: bool
    ell_hat: float
    ell_drift: float
    sum_iii: float
    sum_iv: float
    bound_iii_met: bool
    bound_iv_met: bool


@dataclass
class LacunaryPlan:
    """Everything the construction produces for one smoothness set."""

    smoothness: Smoothness
    witness: PropertyOWitness
    K: int
    t0: Fraction
    q: Fraction
    ts: list[Fraction]
    sequence: list[tuple[int, ...]]
    radii: list[int]
    tau: complex
    ell_exact: Fraction
    ell_hat: float
    ell_drift: float
    rho_hat: float
    report: Optional[ConditionReport] = None


def estimate_ell(alpha, beta, sequence):
    """Symbol-size ratio at the last index, with relative drift from the
    previous index (zero drift for a single-term sequence)."""
    if not sequence:
        raise ValueError("empty sequence")
    for n in sequence:
        if any(c == 0 for c in n):
            raise ValueError("sequence point with zero coordinate")

    def ratio(n):
        return Fraction(symbol_abs_int(alpha, n), symbol_abs_int(beta, n))

    ell = ratio(sequence[-1])
    drift = 0.0
    if len(sequence) > 1:
        prev = ratio(sequence[-2])
        drift = abs(float((ell - prev) / ell))
    return EllEstimate(exact=ell, value=float(ell), drift=drift)


def bk_radius(sequence, k):
    """D_k = sum of all coordinates of n_1 .. n_{k-1}; D_1 = 0."""
    if not 1 <= k <= len(sequence):
        raise ValueError("index k=%d out of range" % k)
    return sum(sum(n) for n in sequence[: k - 1])


def ball_count(d, radius):
    """Number of lattice points in the closed l1 ball of the given
    radius in Z^d: sum_i 2^i C(d,i) C(radius,i)."""
    total = 0
    for i in range(0, min(d, radius) + 1):
        total += 2**i * math.comb(d, i) * math.comb(radius, i)
    return total


def sign_patterns(K):
    """All sign patterns d in {-1, 0, 1}^K, in lexicographic order."""
    return product((-1, 0, 1), repeat=K)


def pattern_frequency(sequence, d, dim):
    """The frequency sum_k d_k n_k of a sign pattern d, which may be
    shorter than the sequence."""
    return tuple(sum(dk * n[j] for dk, n in zip(d, sequence)) for j in range(dim))


def build_sequence(S, witness, K, t0, q, max_doublings=10000):
    """Construct a K-term plan on the witness power curve.

    t0 and q (both > 1) set the nominal schedule t_k = t0 * q^{k-1};
    each t_k is then doubled until the plan invariants hold at index k.
    The attached ConditionReport comes from check_conditions.
    """
    if not isinstance(S, Smoothness):
        S = Smoothness.from_indices(S)
    if isinstance(witness, (tuple, list)):
        witness = PropertyOWitness(
            alpha=tuple(witness[0]),
            beta=tuple(witness[1]),
            c=tuple(Fraction(v) for v in witness[2]),
            t_star=min(Fraction(v) for v in witness[2]),
        )
    if not verify_witness(S, witness.alpha, witness.beta, witness.c):
        raise ConstructionError("witness fails exact verification")
    if K < 1:
        raise ConstructionError("cannot build an empty plan (K >= 1)")
    t0 = Fraction(t0)
    q = Fraction(q)
    if t0 <= 1 or q <= 1:
        raise ConstructionError("need t0 > 1 and q > 1")

    c = witness.c
    ts = []
    points = []
    radii = []
    d_running = 0
    for k in range(1, K + 1):
        t = t0 * q ** (k - 1)
        doubles = 0
        while True:
            n = tuple(max(1, round_rational_power(t, cj)) for cj in c)
            if _admissible(n, points, d_running):
                break
            t *= 2
            doubles += 1
            if doubles > max_doublings:
                raise ConstructionError(
                    "doubling did not reach an admissible n_%d" % k
                )
        ts.append(t)
        radii.append(d_running)
        points.append(n)
        d_running += sum(n)

    ell = estimate_ell(witness.alpha, witness.beta, points)
    rho = _rho_hat(S, witness, points)
    plan = LacunaryPlan(
        smoothness=S,
        witness=witness,
        K=K,
        t0=t0,
        q=q,
        ts=ts,
        sequence=points,
        radii=radii,
        tau=compute_tau(witness.alpha, witness.beta),
        ell_exact=ell.exact,
        ell_hat=ell.value,
        ell_drift=ell.drift,
        rho_hat=rho,
    )
    plan.report = check_conditions(S, plan)
    return plan


def _admissible(n, points, d_running):
    if not points:
        return True
    prev = points[-1]
    if min(n) <= d_running:  # condition (i): D_k < min_j n_k(j)
        return False
    if n[0] < 3 * prev[0]:  # first-coordinate Hadamard ratio
        return False
    if min(n) <= min(prev):  # strict growth of the minimum
        return False
    return True


def _rho_hat(S, witness, points):
    # min over k and gamma in {alpha, beta} of |sigma_gamma| / Q_S^{1/2}
    worst = None
    for n in points:
        qn = q_s_eval(S, n)
        for gamma in (witness.alpha, witness.beta):
            r = Fraction(symbol_abs_int(gamma, n) ** 2, qn)
            if worst is None or r < worst:
                worst = r
    return math.sqrt(float(worst))


def _q_s_overflow(k):
    return StageFailure("sequence", "q_s_overflow", {"k": k})


def check_conditions(S, plan):
    """Evaluate conditions (i)-(iv) for the plan at its truncation.

    Condition (i) is exact integer work; the sums of (iii) and (iv) are
    reported as floats against the thresholds 1/2 and 1.  A plan whose
    Q_S(n_k), or Q_S at a point summed for (iv), leaves double range
    raises StageFailure("sequence", "q_s_overflow") naming k.

    (iii) sums |n_k^alpha - ell n_k^beta| / Q_S(n_k)^{1/2} over k.  (iv)
    sums |sigma_alpha(-m) + tau*ell*sigma_beta(-m)| / Q_S(m)^{1/2} over
    m = n_k + sum_{j<k} d_j n_j, d in {-1,0,1}^{k-1}, d != 0: the
    3^{k-1} - 1 Riesz spectrum points of B_k other than the centre n_k.
    No other point of B_k reaches the projection:
    (1) The correction part of operator_m lives on -B_k: at -m, m in
        B_k, it is -(sigma_alpha(-m) + tau*ell*sigma_beta(-m)) f_hat(-m).
    (2) convolve_riesz zeroes it off spec(R_K) and multiplies it by
        R_hat <= 1/2 on spec(R_K) (0 is not in -B_k, by condition (i)).
        As spec(R_K) = -spec(R_K), only m in spec(R_K) ∩ B_k survive,
        and the L1 norm of what survives is at most the sum of its
        coefficients' moduli.
    (3) Q_S(m)^{1/2} |f_hat(-m)| <= ||f||_{W^{S,1}}: |sigma_gamma(-m)
        f_hat(-m)| is the modulus of the coefficient of d^gamma f at -m,
        so at most ||d^gamma f||_1, and the l2 sum over S is at most the
        l1 sum.  So the convolved correction has L1 norm at most 1/2
        times the sum over spec(R_K) ∩ B_k, times ||f||_{W^{S,1}}.
    (4) The centre terms m = n_k are exactly condition (iii)'s terms:
        with tau = i^{|alpha|-|beta|}, sigma_alpha(-n) +
        tau*ell*sigma_beta(-n) = i^{|alpha|} ((-1)^{|alpha|} n^alpha +
        (-1)^{|beta|} ell n^beta), and alpha, beta have opposite parity,
        so its modulus is |n^alpha - ell n^beta|.
    (5) These points are exactly spec(R_K) ∩ B_k minus n_k.  By claim A
        a spectrum point with last nonzero sign d_j lies in B_j (d_j =
        1) or -B_j (d_j = -1).  Condition (i) puts every ball in the
        open positive orthant, so -B_j and 0 miss B_k.  For j < k a
        point of B_j has l1 norm at most |n_j|_1 + D_j = D_{j+1} <= D_k,
        a point of B_k at least |n_k|_1 - D_k >= dim * min n_k - D_k >
        (dim - 1) D_k >= D_k by condition (i) and dim >= 2 (a witness
        needs alpha != beta with <alpha,c> = <beta,c> = 1, impossible
        in dimension 1).  So B_j and B_k are disjoint, and the points
        of spec(R_K) in B_k are those with d_k = 1.  Claim B, which the
        Riesz stage requires, makes them distinct.
    The gate sum_iv < 1 leaves the factor 1/2 of (2) as slack.
    """
    alpha, beta = plan.witness.alpha, plan.witness.beta
    seq = plan.sequence
    dim = len(seq[0])
    cond_i = all(
        plan.radii[k - 1] < min(seq[k - 1]) for k in range(2, plan.K + 1)
    )

    ell = plan.ell_exact
    sum_iii = 0.0
    for k, n in enumerate(seq, 1):
        try:
            root = math.sqrt(float(q_s_eval(S, n)))
        except OverflowError:
            raise _q_s_overflow(k) from None
        num = abs(Fraction(symbol_abs_int(alpha, n)) - ell * symbol_abs_int(beta, n))
        sum_iii += float(num) / root

    tau_ell = plan.tau * float(ell)
    sum_iv = 0.0
    for k in range(2, plan.K + 1):
        try:
            for d in sign_patterns(k - 1):
                if not any(d):
                    continue
                m = pattern_frequency(seq, d + (1,), dim)
                # condition (i) keeps every point of B_k in the open
                # positive orthant
                assert all(c > 0 for c in m), (k, m)
                neg = tuple(-c for c in m)
                num = abs(symbol_eval(alpha, neg) + tau_ell * symbol_eval(beta, neg))
                sum_iv += num / math.sqrt(float(q_s_eval(S, m)))
        except OverflowError:
            raise _q_s_overflow(k) from None

    return ConditionReport(
        cond_i=cond_i,
        ell_hat=plan.ell_hat,
        ell_drift=plan.ell_drift,
        sum_iii=sum_iii,
        sum_iv=sum_iv,
        bound_iii_met=sum_iii < 0.5,
        bound_iv_met=sum_iv < 1.0,
    )


# ----------------------------------------------------------------------
# closeness of the fundamental-polynomial ratio


def int_frequency(dim, v):
    """v as a tuple of dim ints; a float or a bool is not an int."""
    v = tuple(v)
    if len(v) == dim and not any(isinstance(c, bool) for c in v):
        try:
            return tuple(map(operator.index, v))
        except TypeError:
            pass
    raise ValueError("need %d integer coordinates, got %r" % (dim, v))


def techprop_quantities(S, m, n):
    """The three closeness quantities between frequencies m and n.

    q1 = |1 - Q_S(n)/Q_S(m)|; q2 and q3 are the l2 sizes of the
    normalized symbol differences, unsigned and signed respectively.
    m and n must each hold S.dim integers (a bool is not one); anything
    else raises ValueError.
    """
    if not isinstance(S, Smoothness):
        S = Smoothness.from_indices(S)
    m, n = int_frequency(S.dim, m), int_frequency(S.dim, n)
    qm = q_s_eval(S, m)
    qn = q_s_eval(S, n)
    if qm == 0 or qn == 0:
        raise SingularFrequencyError(
            "Q_S vanishes at a frequency with a zero coordinate"
        )
    q1 = abs(1.0 - float(Fraction(qn, qm)))
    sqm = math.sqrt(float(qm))
    sqn = math.sqrt(float(qn))
    q2sq = 0.0
    q3sq = 0.0
    for gamma in S:
        am = symbol_abs_int(gamma, m) / sqm
        an = symbol_abs_int(gamma, n) / sqn
        q2sq += (am - an) ** 2
        q3sq += abs(symbol_eval(gamma, m) / sqm - symbol_eval(gamma, n) / sqn) ** 2
    return q1, math.sqrt(q2sq), math.sqrt(q3sq)


def closeness_bounds(S, D, rho):
    """Bounds (q1_bound, q2_bound), as Fractions, on techprop_quantities
    over every pair (m, n) with min_i n_i >= rho > D and |m - n|_1 <= D.

    Lemma.  Put delta = D/rho and g = max_{gamma in S} |gamma|.  Then
      q1 <= (1 - delta)^{-2g} - 1,
      q2 <= ((1 + delta)/(1 - delta))^g - 1,
      q3 = q2.
    Proof.
    (1) |m_i - n_i| <= D <= delta n_i, so m_i/n_i lies in [1 - delta,
        1 + delta], and 1 - delta > 0: m is in the open positive orthant
        with n.
    (2) |sigma_gamma(m)|/|sigma_gamma(n)| = prod_i (m_i/n_i)^{gamma_i}
        lies in [(1 - delta)^{|gamma|}, (1 + delta)^{|gamma|}], inside
        [(1 - delta)^g, (1 + delta)^g].
    (3) Q_S = sum_gamma |sigma_gamma|^2, so Q_S(n)/Q_S(m) lies in
        [y^{2g}, x^{2g}] with x = 1/(1 - delta), y = 1/(1 + delta), and
        q1 <= max(x^{2g} - 1, 1 - y^{2g}) = x^{2g} - 1, because x^{2g} +
        y^{2g} >= 2 (xy)^g >= 2 as xy = 1/(1 - delta^2) >= 1.
    (4) For a_gamma = |sigma_gamma|/Q_S^{1/2}, a_gamma(m)/a_gamma(n) is
        the ratio of (2) over (Q_S(m)/Q_S(n))^{1/2}; both lie in
        [(1 - delta)^g, (1 + delta)^g], so it lies in [1/u, u] with u =
        ((1 + delta)/(1 - delta))^g, and |a_gamma(m) - a_gamma(n)| <=
        (u - 1) a_gamma(n) as u - 1 >= 1 - 1/u.  sum_gamma a_gamma(n)^2
        = 1, so q2 <= u - 1.
    (5) sigma_gamma(x) = i^{|gamma|} x^gamma has one phase on the
        positive orthant, so each signed difference of q3 has the
        modulus of the unsigned one of q2.
    Both bounds fall to 0 as rho grows, and q1_bound >= q2_bound since
    1/(1 - delta) >= 1 + delta.  Needs 0 <= D < rho, else ValueError.
    """
    if not isinstance(S, Smoothness):
        S = Smoothness.from_indices(S)
    if not 0 <= D < rho:
        raise ValueError("need 0 <= D < rho")
    delta = Fraction(D) / rho
    g = max(order(gamma) for gamma in S)
    return (1 - delta) ** (-2 * g) - 1, ((1 + delta) / (1 - delta)) ** g - 1


def certified_rho(S, D, eps):
    """The threshold rho(D, eps) of the perturbation step, certified by
    closeness_bounds: the least rho in {2, 4, 8, ...} with rho > D at
    which both bounds are below eps, so that every pair with min_i n_i
    >= rho and |m - n|_1 <= D has q1, q2, q3 < eps.  The comparison is
    in exact rationals, against Fraction(eps); the bounds tend to 0, so
    the doubling always ends.
    """
    if D < 0 or not 0 < eps < 1:
        raise ValueError("need D >= 0 and eps in (0, 1)")
    eps = Fraction(eps)
    rho = 2
    while rho <= D or max(closeness_bounds(S, D, rho)) >= eps:
        rho *= 2
    return rho
