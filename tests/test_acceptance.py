"""End-to-end acceptance checks, one per shipped guarantee.

Every acceptance check prints exactly one PASS/FAIL line (bypassing
capture, so the lines survive a piped pytest run) and then asserts; the
one plain test shows that check 08's gates can fail.  Tolerances are
pinned here and nowhere else; the slow probes (500-sample Paley sweep,
full construction replay) dominate the runtime.
"""

import math
import time
from fractions import Fraction

import numpy as np

from paleykit.crnorm import MatrixSequence, cr_norm, khintchine_envelope
from paleykit.errors import StageFailure
from paleykit.multiindex import Smoothness, order, q_s_eval, saturate
from paleykit.operators import (
    PaleySampler,
    build_pipeline,
    composite_relative_error,
    estimate_paley_constant,
)
from paleykit.orchestrator import OrchestratorConfig, replay, run_construction
from paleykit.property_o import find_witness, verify_witness
from paleykit.riesz import riesz_coeffs
from paleykit.sequence import build_sequence, techprop_quantities
from paleykit.trigpoly import TrigPoly, lp_norm, random_trigpoly, trace_norm

from helpers import cos_factor_poly, estimate_rho_de

S_REF = Smoothness.from_indices(saturate({(2, 0), (0, 1)}))
WITNESS = find_witness(S_REF)
PLAN = build_sequence(S_REF, WITNESS, 4, 100, 10)
PIPE = build_pipeline(PLAN)


def _run(capsys, tag, label, body):
    try:
        ok, detail = body()
    except Exception as exc:
        with capsys.disabled():
            print("[acceptance %s] FAIL %s (error: %r)" % (tag, label, exc))
        raise
    with capsys.disabled():
        print("[acceptance %s] %s %s (%s)"
              % (tag, "PASS" if ok else "FAIL", label, detail))
    assert ok, "%s: %s" % (label, detail)


# ----------------------------------------------------------------------
# 1. witness oracle, exact


def _pair_feasible_2d(members, alpha, beta):
    # Independent brute-force check for one ordered pair in d=2: the two
    # pairing equalities pin c, so feasibility is a closed-form rational
    # computation with no simplex involved.
    if (order(alpha) - order(beta)) % 2 == 0:
        return False
    a1, a2 = alpha
    b1, b2 = beta
    det = a1 * b2 - a2 * b1
    if det == 0:
        # parallel distinct integer rows cannot both pair to 1
        return False
    c1 = Fraction(b2 - a2, det)
    c2 = Fraction(a1 - b1, det)
    if c1 <= 0 or c2 <= 0:
        return False
    return all(g1 * c1 + g2 * c2 <= 1 for g1, g2 in members)


def _sweep_feasible_2d(s):
    members = sorted(s.indices)
    return any(
        _pair_feasible_2d(members, a, b)
        for a in members
        for b in members
        if a != b
    )


def _random_staircase(rng):
    # random Young diagram: downward closed by construction
    w = int(rng.integers(1, 5))
    heights = sorted((int(rng.integers(1, 5)) for _ in range(w)), reverse=True)
    return Smoothness.from_indices(
        {(i, j) for i in range(w) for j in range(heights[i])}
    )


def test_witness_oracle(capsys):
    def body():
        w = find_witness(S_REF)
        if w is None or not verify_witness(S_REF, w.alpha, w.beta, w.c):
            return False, "no verified witness on the reference set"
        if (w.alpha, w.beta) != ((2, 0), (0, 1)):
            return False, "unexpected pair %r" % ((w.alpha, w.beta),)
        if tuple(w.c) != (Fraction(1, 2), Fraction(1, 1)):
            return False, "unexpected weights %r" % (w.c,)
        for bad in (saturate({(1, 1)}), {(0, 0)}):
            if find_witness(Smoothness.from_indices(bad)) is not None:
                return False, "witness on %r" % (sorted(bad),)
        rng = np.random.default_rng(0)
        infeasible = 0
        draws = 0
        while infeasible < 10 and draws < 80:
            s = _random_staircase(rng)
            draws += 1
            feasible = _sweep_feasible_2d(s)
            got = find_witness(s)
            if feasible != (got is not None):
                return False, "sweep disagrees on %r" % (sorted(s.indices),)
            if got is not None and not verify_witness(s, got.alpha, got.beta, got.c):
                return False, "unverified witness on %r" % (sorted(s.indices),)
            if not feasible:
                infeasible += 1
        if infeasible < 10:
            return False, "only %d infeasible sets in %d draws" % (infeasible, draws)
        return True, "reference witness exact; %d random sets cross-checked, " \
            "10 infeasible confirmed pairwise (exact, no tolerance)" % draws

    _run(capsys, "01", "property (O) witness oracle", body)


# ----------------------------------------------------------------------
# 2. Riesz brute force at K = 5


def test_riesz_brute_force(capsys):
    def body():
        plan5 = build_sequence(S_REF, WITNESS, 5, 100, 10)
        seq = plan5.sequence
        try:
            meas = riesz_coeffs(seq, 5)
        except StageFailure as exc:
            return False, "%s: %s" % (exc.reason, exc.details)
        if len(meas.coeffs) != 243:
            return False, "spectrum has %d points, want 243" % len(meas.coeffs)
        prod = cos_factor_poly(seq[0])
        for n in seq[1:]:
            prod = prod * cos_factor_poly(n)
        if set(prod.coeffs) != set(meas.coeffs):
            return False, "symbolic product spectrum differs"
        for k, v in meas.coeffs.items():
            if complex(prod.coeffs[k]) != complex(v):
                return False, "coefficient mismatch at %r" % (k,)
        return True, "243 points, both claims hold, product expansion " \
            "matches coefficient-for-coefficient exactly"

    _run(capsys, "02", "Riesz product brute force (K=5)", body)


# ----------------------------------------------------------------------
# 3. composite identity


def test_composite_identity(capsys):
    def body():
        worst = 0.0
        for i in range(200):
            rng = np.random.default_rng([7, i])
            freqs = {tuple(int(v) for v in rng.integers(1, 201, size=2))
                     for _ in range(12)}
            freqs.update(PLAN.sequence)
            f = TrigPoly({
                n: complex(rng.standard_normal() + 1j * rng.standard_normal())
                for n in sorted(freqs)
            })
            worst = max(worst, composite_relative_error(f, PIPE))
        return worst < 1e-9, "200 polynomials, max rel coeff err %.3e < 1e-9" % worst

    _run(capsys, "03", "composite identity", body)


# ----------------------------------------------------------------------
# 4. rho_k bounds


def test_rho_bounds(capsys):
    def body():
        lo = 0.5 * PLAN.rho_hat * (1.0 + PLAN.ell_hat)
        hi = 0.5 * (1.0 + PLAN.ell_hat)
        slack = 1e-12
        for k, r in enumerate(PIPE.rho_k):
            if not (lo - slack <= abs(r) <= hi + slack):
                return False, "|rho_%d| = %.17g outside [%.17g, %.17g]" \
                    % (k + 1, abs(r), lo, hi)
        return True, "all %d multipliers in [%.6f, %.6f], slack 1e-12" \
            % (len(PIPE.rho_k), lo, hi)

    _run(capsys, "04", "projection multiplier bounds", body)


# ----------------------------------------------------------------------
# 5. quadrature


def test_quadrature(capsys):
    def body():
        worst = 0.0
        for i in range(50):
            rng = np.random.default_rng([11, i])
            freqs = {tuple(int(v) for v in rng.integers(-8, 9, size=2))
                     for _ in range(10)}
            f = TrigPoly({
                n: complex(rng.standard_normal() + 1j * rng.standard_normal())
                for n in sorted(freqs)
            }, dim=2)
            lhs = lp_norm(f, 2) ** 2
            rhs = sum(abs(v) ** 2 for v in f.coeffs.values())
            worst = max(worst, abs(lhs - rhs) / rhs)
        if worst >= 1e-10:
            return False, "Parseval rel err %.3e" % worst

        pos = TrigPoly({(0, 0): 2.0, (3, 5): 0.5, (-3, -5): 0.5})
        g = random_trigpoly(sorted({(1, 2), (3, 1), (2, 5), (4, 4)}), seed=3)
        mag2 = g * g.conj()
        drifts = []
        for f in (pos, mag2):
            n = f.default_grid_n()
            a = lp_norm(f, 1, n)
            b = lp_norm(f, 1, 2 * n + 1)
            drifts.append(abs(a - b) / b)
        if max(drifts) >= 1e-8:
            return False, "L1 doubling drift %.3e" % max(drifts)

        cosine = TrigPoly({(0, 0): 1.0, (3, 7): 0.5, (-3, -7): 0.5})
        unit = abs(lp_norm(cosine, 1) - 1.0)
        if unit >= 1e-10:
            return False, "mass of 1 + cos is off by %.3e" % unit
        return True, "Parseval %.1e < 1e-10, doubling %.1e < 1e-8, " \
            "unit mass %.1e < 1e-10" % (worst, max(drifts), unit)

    _run(capsys, "05", "torus quadrature", body)


# ----------------------------------------------------------------------
# 6. column-plus-row scalar oracle


def test_cr_scalar_oracle(capsys):
    def body():
        worst = 0.0
        for i in range(100):
            rng = np.random.default_rng([13, i])
            length = int(rng.integers(1, 17))
            xs = [complex(rng.standard_normal() + 1j * rng.standard_normal())
                  for _ in range(length)]
            l2 = math.sqrt(sum(abs(x) ** 2 for x in xs))
            worst = max(worst, abs(cr_norm(xs).value - l2))
        if worst >= 1e-6:
            return False, "scalar gap %.3e" % worst

        rng = np.random.default_rng(17)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        single = abs(cr_norm([a]).value - trace_norm(a))
        if single >= 1e-6:
            return False, "single-matrix gap %.3e" % single

        xs = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(3)]
        ys = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
              for _ in range(3)]
        nx = cr_norm(xs).value
        homog = abs(cr_norm([2.5 * m for m in xs]).value - 2.5 * nx)
        if homog >= 1e-6:
            return False, "homogeneity gap %.3e" % homog
        tri = cr_norm([p + q for p, q in zip(xs, ys)]).value \
            - nx - cr_norm(ys).value
        if tri >= 1e-6:
            return False, "triangle excess %.3e" % tri
        return True, "100 scalar sequences gap %.1e, single matrix %.1e, " \
            "homogeneity %.1e, triangle excess %.1e; all < 1e-6" \
            % (worst, single, homog, max(tri, 0.0))

    _run(capsys, "06", "column-plus-row scalar oracle", body)


# ----------------------------------------------------------------------
# 7. Paley constant across matrix dimensions


def test_paley_matrix_dimensions(capsys):
    def body():
        box = tuple((i, j) for i in range(1, 7) for j in range(1, 7))
        sampler = PaleySampler(count=500, support=box,
                               always=(PLAN.sequence[0],), terms=8,
                               mdim=(1, 2, 4, 8), seed=0, grid_n=51)
        res = estimate_paley_constant(S_REF, PLAN.sequence, sampler)
        per = {m: res["per_dim"][m]["sup_ratio"] for m in (1, 2, 4, 8)}
        top = max(per.values())
        ok = top < 2.0 * per[1]
        return ok, "sup ratios %s; max/m=1 ratio %.4f < 2" % (
            {m: round(v, 4) for m, v in per.items()}, top / per[1])

    _run(capsys, "07", "Paley constant stability in matrix dimension", body)


# ----------------------------------------------------------------------
# 8. Khintchine ratio window


def khintchine_gates(env):
    """The sound gates on an envelope, or None when it passes them.  For
    an orthonormal system the L1(S1) numerator is at most the C+R norm,
    which is at most the bracket's upper end, so every ratio is at most 1;
    and every C+R bracket must be ordered."""
    for r in env["ratios"]:
        if r > 1 + 1e-9:
            return "ratio %.17g above 1 + 1e-9" % r
    for lower, value in env["brackets"]:
        if lower > value:
            return "C+R bracket [%.17g, %.17g] out of order" % (lower, value)
    return None


def test_khintchine_window(capsys):
    def body():
        base = khintchine_envelope(count=100, seed=0, max_mdim=4, max_length=8)
        k_hat = base["k_hat"]
        # the reciprocal bound double-rounds, so allow 1e-12 relative
        for r in base["ratios"]:
            if r > k_hat * (1 + 1e-12) or r * k_hat < 1 - 1e-12:
                return False, "ratio %.17g escapes [1/%.17g, same]" % (r, k_hat)
        double = khintchine_envelope(count=200, seed=0, max_mdim=4, max_length=8)
        drift = abs(double["k_hat"] / k_hat - 1.0)
        if drift > 0.2:
            return False, "K-hat moved by %.3f on doubling" % drift
        problem = khintchine_gates(double)
        if problem:
            return False, problem
        return True, "100 ratios inside [1/K, K], K = %.6f, " \
            "doubling drift %.1e <= 0.2; 200 ratios, max %.17g <= 1 + 1e-9, " \
            "200 brackets ordered" % (k_hat, drift, double["max_ratio"])

    _run(capsys, "08", "Khintchine ratio window", body)


def test_khintchine_gate_can_fail():
    env = khintchine_envelope(count=5, seed=0)
    assert khintchine_gates(env) is None
    doubled = dict(env, ratios=[2.0 * r for r in env["ratios"]])
    assert "above 1" in khintchine_gates(doubled)
    swapped = dict(env, brackets=[[v, lo] for lo, v in env["brackets"]])
    assert "out of order" in khintchine_gates(swapped)


# ----------------------------------------------------------------------
# 9. closeness quantities decay


def test_closeness_decay(capsys):
    def body():
        s3 = Smoothness.from_indices({(0, 0), (1, 0), (0, 1)})
        rows = []
        for t in (10, 20, 40, 80):
            rows.append(techprop_quantities(s3, (t + 1, t + 1), (t, t)))
        for a, b in zip(rows, rows[1:]):
            if not all(x > y for x, y in zip(a, b)):
                return False, "no strict decay: %r then %r" % (a, b)
        closed = abs(1.0 - float(Fraction(q_s_eval(s3, (10, 10)),
                                          q_s_eval(s3, (11, 11)))))
        gap = abs(rows[0][0] - closed)
        hand = abs(rows[0][0] - float(Fraction(14, 81)))
        if gap >= 1e-12 or hand >= 1e-12:
            return False, "q1(10) off closed form by %.3e / %.3e" % (gap, hand)
        first = estimate_rho_de(s3, 2, 0.1)
        second = estimate_rho_de(s3, 2, 0.1)
        if first != second:
            return False, "density sweep not replay-stable"
        if first["rho"] != 32:
            return False, "density threshold moved to %r" % (first["rho"],)
        return True, "q1,q2,q3 strictly decrease over t=10..80; q1(10) " \
            "matches 14/81 within 1e-12; rho sweep replay-stable at 32"

    _run(capsys, "09", "closeness quantities decay", body)


# ----------------------------------------------------------------------
# 10. end-to-end determinism


def test_replay_determinism(capsys):
    def body():
        t0 = time.time()
        report = run_construction(S_REF, OrchestratorConfig())
        res = replay(report, S_REF)
        if not res:
            return False, "; ".join(res.mismatches[:4])
        return True, "full report reproduced (ints exact, floats 1e-12 rel) " \
            "in %.0fs, digest %s..." % (time.time() - t0, report.digest[:12])

    _run(capsys, "10", "construction replay determinism", body)
