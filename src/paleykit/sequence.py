"""Lacunary frequency sequences on the witness power curve.

Given a smoothness set with a parity-splitting witness (alpha, beta, c),
frequencies are taken on the curve n(j) = round(t^{c_j}).  The pairings
<alpha, c> = <beta, c> = 1 make |sigma_alpha(n)| and |sigma_beta(n)|
grow like t, while <gamma, c> <= 1 caps every other symbol, so the
normalized symbol sizes rho_hat stay bounded away from zero along the
whole sequence.

The builder walks t_k = t0 * q^{k-1} and doubles t_k the least number
of times such that
  * the ball radius D_k = sum of all coordinates of n_1..n_{k-1} is
    strictly below min_j n_k(j)   (condition (i)),
  * the first coordinates grow by a factor >= 3 (Hadamard lacunarity),
  * min_j n_k(j) strictly increases.
build_until_met squares the schedule (t0, q) until the smallness
conditions hold; every way this stage stops is a StageFailure at stage
"sequence", one for each budget below.  All lattice arithmetic is exact
(Python integers / Fractions); floats appear only in reported sums.

The module also carries the finite-truncation checks of the four
sequence conditions (condition (iv) summed over the Riesz spectrum
points of each ball B_k, all of them, see check_conditions), the
exact witness symbol those checks share with the operator M
(witness_numerator), and the
closeness quantities q1, q2, q3 of the fundamental-polynomial ratio
together with their closed-form bounds, which certify the threshold
rho(D, eps) (see closeness_bounds).
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, count, product
from typing import Optional

from .errors import StageFailure
from .multiindex import (PHASES, Smoothness, fraction_above_one, int_at_least, int_tuple,
                         order, over_root, q_s_eval, symbol_abs_int, symbol_phase)
from .property_o import PropertyOWitness, verify_witness

# The stage's three budgets, each ending in a StageFailure at stage
# "sequence": check_conditions' range rule (q_s_overflow), the bit length
# of the schedule's denominators in build_until_met (schedule_budget) and
# the doublings of each t_k in build_sequence (doubling_budget).
Q_S_LIMIT = 2**1000
SCHEDULE_BITS = 2048
MAX_DOUBLINGS = 10000


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
class ConditionReport:
    """Finite-truncation verdicts for the four sequence conditions.

    sum_iii and sum_iv are the raw truncated sums compared against 1/2
    and 1.  sum_iv runs over every ball B_1 .. B_K, each on its Riesz
    spectrum points other than the centre (see check_conditions).
    """

    cond_i: bool
    sum_iii: float
    sum_iv: float
    bound_iii_met: bool
    bound_iv_met: bool


@dataclass
class LacunaryPlan:
    """What the construction was given for one smoothness set and what it
    found; K, the ball radii, tau and ell_hat are derived from these."""

    smoothness: Smoothness
    witness: PropertyOWitness
    t0: Fraction
    q: Fraction
    ts: list[Fraction]
    sequence: list[tuple[int, ...]]
    ell_exact: Fraction
    rho_hat: float
    report: Optional[ConditionReport] = None

    @property
    def K(self):
        return len(self.sequence)

    @property
    def radii(self):
        """[D_1, ..., D_K]: the ball radius D_k is the sum of all
        coordinates of n_1 .. n_{k-1}."""
        return list(accumulate((sum(n) for n in self.sequence[:-1]), initial=0))

    @property
    def tau(self):
        return compute_tau(self.witness.alpha, self.witness.beta)

    @property
    def ell_hat(self):
        return float(self.ell_exact)


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


def build_sequence(S, witness, K, t0, q):
    """Construct a K-term plan on the witness power curve.

    t0 and q (both > 1) set the nominal schedule t_k = t0 * q^{k-1};
    each t_k is then doubled until the plan invariants hold at index k:
    t_k * 2^j for the least j in [0, MAX_DOUBLINGS] at which n_k is
    admissible, else StageFailure("sequence", "doubling_budget", {"k":
    k}).  The attached ConditionReport comes from check_conditions.  K,
    t0 and q are checked as run_construction checks them, and with a
    witness that fails verify_witness they raise ValueError.

    The least j is found by galloping and bisection (_least_doubling),
    not by trying j = 0, 1, 2, ... in turn, and both give the same j,
    because admissibility is monotone in t: each coordinate max(1,
    round(t^{c_i})) of n is nondecreasing in t, as c_i >= 0, and each
    test of _admissible (min n > D_k, n(1) >= 3 n_{k-1}(1), min n >
    min n_{k-1}) asks a coordinate or the minimum of n to exceed a
    bound fixed by n_1 .. n_{k-1}, so once it holds it holds at every
    larger t.
    """
    S = Smoothness.coerce(S)
    K = int_at_least("K", K, 1)
    t0, q = fraction_above_one("t0", t0), fraction_above_one("q", q)
    if not verify_witness(S, witness.alpha, witness.beta, witness.c):
        raise ValueError("witness fails exact verification")

    c = witness.c
    ts = []
    points = []
    d_running = 0
    for k in range(1, K + 1):
        t = t0 * q ** (k - 1)
        j, n = _least_doubling(t, c, points, d_running)
        if n is None:
            raise StageFailure("sequence", "doubling_budget", {"k": k})
        ts.append(t * 2**j)
        points.append(n)
        d_running += sum(n)

    n_K = points[-1]
    plan = LacunaryPlan(
        smoothness=S,
        witness=witness,
        t0=t0,
        q=q,
        ts=ts,
        sequence=points,
        ell_exact=Fraction(symbol_abs_int(witness.alpha, n_K),
                           symbol_abs_int(witness.beta, n_K)),
        rho_hat=_rho_hat(S, witness, points),
    )
    plan.report = check_conditions(S, plan)
    return plan


def _least_doubling(t, c, points, d_running):
    """(j, n) for the least j in [0, MAX_DOUBLINGS] at which n = n(t 2^j)
    is admissible, or (None, None) if there is none.

    Probes j = 0, then gallops j = 1, 2, 4, ... (capped at MAX_DOUBLINGS)
    to the first admissible probe and bisects the gap behind it.
    Admissibility is monotone in j (see build_sequence), so this finds
    the j the plain loop j = 0, 1, 2, ... stops at.
    """
    def point(j):
        return tuple(max(1, round_rational_power(t * 2**j, cj)) for cj in c)

    n = point(0)
    if _admissible(n, points, d_running):
        return 0, n
    lo, hi = 0, 1  # n(t 2^lo) is inadmissible
    while True:
        hi = min(hi, MAX_DOUBLINGS)
        if hi <= lo:
            return None, None
        n = point(hi)
        if _admissible(n, points, d_running):
            break
        lo, hi = hi, 2 * hi
    while hi - lo > 1:  # lo inadmissible, hi admissible with point n
        mid = (lo + hi) // 2
        m = point(mid)
        if _admissible(m, points, d_running):
            hi, n = mid, m
        else:
            lo = mid
    return hi, n


def _admissible(n, points, d_running):
    if not points:
        return True
    prev = points[-1]
    return (min(n) > d_running  # condition (i): D_k < min_j n_k(j)
            and n[0] >= 3 * prev[0]  # first-coordinate Hadamard ratio
            and min(n) > min(prev))  # strict growth of the minimum


def build_until_met(S, witness, K, t0, q):
    """(plan, retries) for the first of the schedules (t0, q), (t0^2,
    q^2), ... whose plan meets conditions (i), (iii) and (iv).  No count
    caps the loop: check_conditions' range rule ends it, and so does a
    squaring that takes t0's or q's denominator past SCHEDULE_BITS bits,
    with StageFailure("sequence", "schedule_budget", {"retries": r})
    after r squarings: near 1 each squaring doubles that bit length but
    barely raises Q_S(n_K).

    Why squaring ends.  Condition (i) holds for every plan, by the
    doubling.  Put t* = min_j c_j, s = max_j c_j - t* and r(n) = n^alpha /
    n^beta, so that ell = r(n_K).  s > 0, since equal weights would give
    |alpha| = |beta|, against their opposite parity.
    (1) Each coordinate of n(t) is t^{c_j} (1 + theta) with |theta| <=
        t^{-c_j} / 2 <= 1/2, and <alpha - beta, c> = 0, so |log r(n(t))|
        <= x(t) = (|alpha| + |beta|) t^{-t*}: on the witness curve r -> 1.
    (2) As beta is in S, the (iii) term at n_k is at most |r(n_k) - ell|
        <= 2 x(t_k) + 2 x(t_K), once x <= 1, so sum_iii <= 4 (|alpha| +
        |beta|) sum_{k<K} t_k^{-t*} = O(t0^{-t*}).
    (3) A spectrum point m = n_k + sum_{j<k} d_j n_j of B_k has |m_i -
        n_k(i)| <= eps_k n_k(i) for eps_k = max_i sum_{j<k} n_j(i) /
        n_k(i).  Steps (1)-(4) of closeness_bounds hold with eps_k for
        delta, so with u_k = ((1 + eps_k)/(1 - eps_k))^g the (iv) term at
        m is at most term(n_k) + (1 + ell)(u_k - 1), and sum_iv <= sum_k
        (3^{k-1} - 1)(term(n_k) + (1 + ell)(u_k - 1)).
    (4) Condition (i) gives t_k^{t*} > D_k >= |n_{k-1}|_1 >=
        t_{k-1}^{t* + s} up to rounding, and t_j < t_k for j < k, so by
        (1) eps_k <= 3 (k - 1) (t_{k-1} / t_k)^{t*}, about 3 (k - 1)
        t_{k-1}^{-s} = O(K t0^{-s}), and u_k - 1 is about 2 g eps_k.
    So at fixed K, sum_iii = O(t0^{-t*}) and sum_iv = O(3^K (t0^{-t*} +
    g K t0^{-s})), with constants fixed by S and K, and a squaring
    squares t0: both sums fall doubly exponentially in the squarings
    until they meet 1/2 and 1.  Not delta_k = D_k / min n_k of
    closeness_bounds: the least doubling keeps it near 1 (0.74-0.99 on
    saturate{(2,0),(0,1)} and saturate{(2,0),(0,3)} over four
    squarings), while eps_k falls like t0^{-s} there.
    """
    t0, q = Fraction(t0), Fraction(q)
    for retries in count():
        plan = build_sequence(S, witness, K, t0, q)
        rep = plan.report
        if rep.cond_i and rep.bound_iii_met and rep.bound_iv_met:
            return plan, retries
        t0, q = t0 * t0, q * q
        if max(t0.denominator, q.denominator).bit_length() > SCHEDULE_BITS:
            raise StageFailure("sequence", "schedule_budget", {"retries": retries + 1})


def witness_numerator(plan, nu):
    """W(nu) = nu^alpha den(ell) + num(ell) nu^beta, an exact integer,
    for the plan's witness (alpha, beta) and ell = plan.ell_exact, so
    that the witness symbol is

        sigma_alpha(nu) + tau*ell*sigma_beta(nu) = i^{|alpha|} W(nu) / den(ell).

    The monomials are signed and take 0^0 = 1, the convention of the
    derivative multipliers: W(nu) i^{|alpha|} / den(ell) is the
    multiplier of d^alpha + tau*ell*d^beta at nu, which is the symbol
    sum wherever nu has no zero coordinate.  Derivation: d^gamma
    multiplies e_nu by prod_j (i nu_j)^{gamma_j} = i^{|gamma|} nu^gamma,
    and tau = i^{|alpha|-|beta|} gives tau i^{|beta|} = i^{|alpha|}, so
    the multiplier is i^{|alpha|} (nu^alpha + ell nu^beta).

    At nu = -m with m in the open positive orthant, (-m)^gamma =
    (-1)^{|gamma|} m^gamma, and alpha, beta have opposite parity, so
    W(-m) = +-(m^alpha den(ell) - num(ell) m^beta): the witness symbol
    at -m has modulus |m^alpha - ell m^beta|.
    """
    ell = plan.ell_exact
    a, b = plan.witness.alpha, plan.witness.beta
    return (math.prod(c**g for g, c in zip(a, nu)) * ell.denominator
            + ell.numerator * math.prod(c**g for g, c in zip(b, nu)))


def _rho_hat(S, witness, points):
    # min over k and gamma in {alpha, beta} of a_gamma(n_k) =
    # |sigma_gamma(n_k)| / Q_S(n_k)^{1/2}
    return min(over_root(symbol_abs_int(gamma, n), q_s_eval(S, n))
               for n in points for gamma in (witness.alpha, witness.beta))


def check_conditions(S, plan):
    """Evaluate conditions (i)-(iv) for the plan at its truncation.

    Condition (i) is exact integer work; the sums of (iii) and (iv) are
    reported as floats against the thresholds 1/2 and 1.

    One range rule comes first: build_pipeline and the Paley probe take
    Q_S(n_k) and M's multiplier at n_k as doubles, so the first k with
    Q_S(n_k) >= Q_S_LIMIT raises StageFailure("sequence", "q_s_overflow",
    {"k": k}) before any ball is walked.  Q_S_LIMIT = 2^1000 sits 2^24
    below the largest double, for the doubles a few times Q_S(n_k) that
    later stages form, such as sums of |rho_k|^2 Q_S(n_k) |f_hat(n_k)|^2.  No term can
    overflow: each is at most 1 + ell.

    Both sums come from one pass over the balls.  For k = 1..K and d in
    {-1,0,1}^{k-1}, in sign_patterns order, the point m = n_k +
    sum_{j<k} d_j n_j of B_k contributes
      term(m) = |m^alpha - ell m^beta| / Q_S(m)^{1/2},
    to (iii) when d = 0, where m is the centre n_k, and to (iv)
    otherwise: the 3^{k-1} - 1 Riesz spectrum points of B_k other than
    n_k.  The numerator is the exact integer |W(-m)| = |m^alpha den(ell)
    - num(ell) m^beta| of witness_numerator over den(ell), and
    over_root(|W(-m)|, den(ell)^2 Q_S(m)) rounds the term twice: one
    int division and one root.

    Why (iv) sums term(m), and over these points only:
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
    (4) Each modulus is term(m), the term (iii) sums at the centre, so
        one expression serves both sums: the witness symbol at -m is
        i^{|alpha|} W(-m) / den(ell), of modulus |m^alpha - ell m^beta|
        on the open positive orthant (see witness_numerator).
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
    seq = plan.sequence
    for k, n in enumerate(seq, 1):
        if q_s_eval(S, n) >= Q_S_LIMIT:
            raise StageFailure("sequence", "q_s_overflow", {"k": k})
    dim = len(seq[0])
    cond_i = all(r < min(n) for n, r in zip(seq[1:], plan.radii[1:]))

    den_sq = plan.ell_exact.denominator ** 2
    sum_iii = sum_iv = 0.0
    for k in range(1, plan.K + 1):
        for d in sign_patterns(k - 1):
            m = pattern_frequency(seq, d + (1,), dim)
            # condition (i) keeps every point of B_k in the open positive
            # orthant
            assert all(c > 0 for c in m), (k, m)
            num = witness_numerator(plan, tuple(-c for c in m))
            term = over_root(abs(num), den_sq * q_s_eval(S, m))
            if any(d):
                sum_iv += term
            else:
                sum_iii += term

    return ConditionReport(
        cond_i=cond_i,
        sum_iii=sum_iii,
        sum_iv=sum_iv,
        bound_iii_met=sum_iii < 0.5,
        bound_iv_met=sum_iv < 1.0,
    )


# ----------------------------------------------------------------------
# closeness of the fundamental-polynomial ratio


def techprop_quantities(S, m, n):
    """The three closeness quantities between frequencies m and n.

    q1 = |1 - Q_S(n)/Q_S(m)|, rounded once from the exact rational
    |Q_S(n) - Q_S(m)| / Q_S(m), so it keeps its digits when the two
    agree to more than double precision; q2 and q3 are the l2 sizes of
    the differences of the normalized symbols a_gamma = |sigma_gamma| /
    Q_S^{1/2}, unsigned and with the phases of sigma_gamma.  None of
    them floats Q_S, so frequencies past double range are fine.  m and
    n must each hold S.dim nonzero integers (a bool is not one), as Q_S
    vanishes at a zero coordinate; anything else raises ValueError.
    """
    S = Smoothness.coerce(S)
    m, n = int_tuple(m, S.dim), int_tuple(n, S.dim)
    qm, qn = q_s_eval(S, m), q_s_eval(S, n)
    if qm == 0 or qn == 0:
        raise ValueError("Q_S vanishes at a frequency with a zero coordinate")
    q1 = float(Fraction(abs(qn - qm), qm))
    q2sq = q3sq = 0.0
    for gamma in S:
        am = over_root(symbol_abs_int(gamma, m), qm)
        an = over_root(symbol_abs_int(gamma, n), qn)
        q2sq += (am - an) ** 2
        q3sq += abs(symbol_phase(gamma, m) * am - symbol_phase(gamma, n) * an) ** 2
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
    S = Smoothness.coerce(S)
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
