"""Output checks for the benchmark's operations.

Each check returns a list of problems (empty when the output is right).
The checks recompute what they can in this file, from the inputs the
benchmark generated, rather than asking paleykit to agree with itself:
the Paley quotient of an argmax sample is rebuilt by direct summation
with a per-point SVD, and a Khintchine ratio's C+R denominator is
bracketed by norms computed here.
"""

import math

import numpy as np

import paleykit

# tolerances, all relative
PALEY_RTOL = 1e-9
CR_RTOL = 1e-9
COMPOSITE_MAX = 1e-12


def rel_diff(a, b):
    scale = max(abs(a), abs(b))
    return abs(a - b) / scale if scale else 0.0


# ----------------------------------------------------------------------
# constructions


def check_witness(smoothness, witness):
    if witness is None:
        return ["no witness returned"]
    if not paleykit.verify_witness(smoothness, witness.alpha, witness.beta, witness.c):
        return ["witness (%s, %s) fails verify_witness" % (witness.alpha, witness.beta)]
    return []


def check_report(report):
    """Claims, composite identity and digest of a finished construction."""
    problems = check_witness(report.smoothness, report.witness)
    for name in ("claim_a", "claim_b", "rho_bounds_ok"):
        if getattr(report, name) is not True:
            problems.append("%s is %r" % (name, getattr(report, name)))
    err = report.composite_max_rel_error
    if not err <= COMPOSITE_MAX:
        problems.append("composite_max_rel_error %r > %g" % (err, COMPOSITE_MAX))
    digest = paleykit.plan_digest(report.plan)
    if digest != report.digest:
        problems.append("plan_digest %s != report digest %s" % (digest[:12], report.digest[:12]))
    return problems


def check_verdict(expected, report, error):
    """expected is "witness" or "no_witness"; exactly one of report and
    error is set.  The only failure a verdict table expects is the
    StageFailure that property_o raises for a set without a witness."""
    if expected == "no_witness":
        if report is not None:
            return ["expected no_witness, got a construction"]
        if not (isinstance(error, paleykit.StageFailure)
                and (error.stage, error.reason) == ("property_o", "no_witness")):
            return ["expected StageFailure(property_o, no_witness), got %r" % (error,)]
        return []
    if error is not None:
        return ["expected a witness, got %s: %s" % (type(error).__name__, error)]
    return check_report(report)


# ----------------------------------------------------------------------
# Paley probe: regenerate the argmax sample and recompute its quotient


def paley_sample(seed, m, index, always, support, terms):
    """The sample estimate_paley_constant draws at (seed, m, index):
    frequencies and their m x m Gaussian coefficients, in insertion order."""
    rng = np.random.default_rng([seed, m, index])
    freqs = list(always)
    if support:
        idx = rng.choice(len(support), size=min(terms, len(support)), replace=False)
        freqs.extend(support[j] for j in idx)
    crng = np.random.default_rng(int(rng.integers(0, 2**31)))
    coeffs = {}
    for n in freqs:
        re = crng.standard_normal((m, m))
        im = crng.standard_normal((m, m))
        coeffs[tuple(int(c) for c in n)] = (re + 1j * im) / math.sqrt(2)
    return coeffs


def _q_s(indices, n):
    if any(c == 0 for c in n):
        return 0
    return sum(math.prod(abs(c) ** g for g, c in zip(gamma, n)) ** 2 for gamma in indices)


def paley_quotient(indices, lam, coeffs, grid_n):
    """Weighted l2 of the Lambda coefficients over the S1-valued
    W^{S,1} norm, by direct summation on the grid_n^d grid."""
    num = 0.0
    for n in lam:
        n = tuple(int(c) for c in n)
        if n in coeffs:
            num += float(_q_s(indices, n)) * float(np.sum(np.abs(coeffs[n]) ** 2))
    x = -np.pi + 2.0 * np.pi * np.arange(grid_n) / grid_n
    d = len(next(iter(coeffs)))
    m = next(iter(coeffs.values())).shape[0]
    den = 0.0
    for gamma in indices:
        vals = np.zeros((grid_n,) * d + (m, m), dtype=complex)
        for n, c in coeffs.items():
            mult = math.prod((1j * nj) ** g for g, nj in zip(gamma, n))
            if mult == 0:
                continue
            phase = np.ones(())
            for nj in n:
                phase = np.multiply.outer(phase, np.exp(1j * nj * x))
            vals += (mult * phase)[..., None, None] * c
        sv = np.linalg.svd(vals.reshape(-1, m, m), compute_uv=False)
        den += float(sv.sum()) / grid_n**d
    return math.sqrt(num) / den


def check_paley(report):
    """Every per-m sup_ratio must equal the quotient of its regenerated
    argmax sample to PALEY_RTOL."""
    cfg = report.config
    if not cfg.matrix_dims:
        return []
    s = report.smoothness
    # run_construction's sampler draws from the paley_box square on d = 2
    box = range(1, cfg.paley_box + 1)
    support = [(i, j) for i in box for j in box] if s.dim == 2 else []
    lam = report.plan.sequence
    problems = []
    per_dim = report.paley.get("per_dim", {})
    for m in cfg.matrix_dims:
        if m not in per_dim:
            problems.append("paley: no entry for m=%d" % m)
            continue
        got = per_dim[m]["sup_ratio"]
        coeffs = paley_sample(cfg.seed, m, per_dim[m]["argmax_index"], (lam[0],),
                              support, cfg.paley_terms)
        want = paley_quotient(sorted(s.indices), lam, coeffs, cfg.grid_n)
        if not (math.isfinite(got) and rel_diff(got, want) <= PALEY_RTOL):
            problems.append("paley m=%d: sup_ratio %r, recomputed %r" % (m, got, want))
    return problems


def paley_fingerprint(report):
    """Values that must be bit-identical across runs of one seed."""
    fp = {"digest": report.digest}
    per_dim = report.paley.get("per_dim")
    if per_dim:
        fp["per_dim"] = {str(m): [float(v["sup_ratio"]).hex(), int(v["argmax_index"])]
                         for m, v in sorted(per_dim.items())}
    return fp


# ----------------------------------------------------------------------
# Khintchine ratios


def s1_l1_lacunary(mats, freqs):
    """Mean trace norm of sum_k x_k e^{i n_k t} on 4*max(n)+1 nodes."""
    n_pts = 4 * max(freqs) + 1
    t = -np.pi + 2.0 * np.pi * np.arange(n_pts) / n_pts
    phases = np.exp(1j * np.outer(t, freqs))
    vals = np.einsum("tk,kij->tij", phases, np.asarray(mats))
    return float(np.linalg.svd(vals, compute_uv=False).sum()) / n_pts


def _trace_norm(a):
    return float(np.linalg.svd(a, compute_uv=False).sum())


def _sqrt_trace(h):
    w = np.linalg.eigvalsh((h + h.conj().T) / 2.0)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def cr_bracket(mats):
    """[max_k ||x_k||_S1, min(||(sum x*x)^1/2||_S1, ||(sum x x*)^1/2||_S1)]."""
    x = np.asarray(mats)
    lower = max(_trace_norm(a) for a in x)
    col = _sqrt_trace(np.einsum("kji,kjl->il", x.conj(), x))
    row = _sqrt_trace(np.einsum("kij,klj->il", x, x.conj()))
    return lower, min(col, row)


def check_khintchine(mats, freqs, ratio):
    """The C+R value implied by the ratio (own numerator over ratio)
    must sit in its bracket, and hit it exactly where the norm is known."""
    if not (isinstance(ratio, float) and math.isfinite(ratio) and ratio > 0):
        return ["ratio %r is not finite and positive" % (ratio,)]
    x = np.asarray(mats)
    value = s1_l1_lacunary(x, freqs) / ratio
    lower, upper = cr_bracket(x)
    problems = []
    if value < lower * (1 - CR_RTOL) or value > upper * (1 + CR_RTOL):
        problems.append("cr_norm %r outside [%r, %r]" % (value, lower, upper))
    if len(x) == 1 and rel_diff(value, _trace_norm(x[0])) > CR_RTOL:
        problems.append("L=1: cr_norm %r != trace norm %r" % (value, _trace_norm(x[0])))
    if x.shape[1] == 1:
        l2 = float(np.sqrt(np.sum(np.abs(x) ** 2)))
        if rel_diff(value, l2) > CR_RTOL:
            problems.append("m=1: cr_norm %r != l2 norm %r" % (value, l2))
    return problems


# ----------------------------------------------------------------------
# determinism across the runs of one set


class DeterminismRecord:
    """Fingerprints seen so far for one source tree, keyed by seed and op.

    Plan digests do not depend on the seed, so a digest is compared
    against every earlier run; the Paley fields only against earlier
    runs of the same seed."""

    def __init__(self, data=None):
        self.data = data if data is not None else {"digests": {}, "seeds": {}}

    def check(self, seed, label, fingerprint):
        problems = []
        digest = fingerprint.get("digest")
        seen = self.data["digests"].setdefault(label, digest)
        if seen != digest:
            problems.append("determinism %s: digest %s, earlier run %s" % (label, digest[:12], seen[:12]))
        rest = {k: v for k, v in fingerprint.items() if k != "digest"}
        if rest:
            seen = self.data["seeds"].setdefault(str(seed), {}).setdefault(label, rest)
            if seen != rest:
                problems.append("determinism %s seed %s: %s, earlier run %s" % (label, seed, rest, seen))
        return problems
