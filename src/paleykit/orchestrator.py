"""End-to-end assembly: smoothness set in, verified construction out.

run_construction chains witness search, sequence building (with the
square-the-schedule retry when the smallness conditions fail at the
chosen truncation), Riesz verification, operator assembly, the
composite-identity check, and the empirical Paley probe, and returns
everything as one report of plain data.  replay re-runs the whole thing
from the report's own inputs and compares field by field, which is the
artifact's reproducibility guarantee.
"""

import math
import sys
import time
from dataclasses import dataclass, field, replace

from .errors import StageFailure
from .multiindex import int_at_least, int_tuple, q_s_eval, symbol_abs_int, symbol_phase
from .operators import (
    PaleySampler,
    build_pipeline,
    composite_relative_error,
    estimate_paley_constant,
)
from .property_o import find_witness_or_fail
from .sequence import build_sequence
from .serialization import plan_digest, to_jsonable
from .trigpoly import random_trigpoly

SCHEMA_VERSION = 5


@dataclass
class OrchestratorConfig:
    """Inputs for one full run; everything that affects the result."""

    K: int = 4
    t0: int = 100
    q: int = 10
    retries: int = 3
    seed: int = 0
    composite_count: int = 25
    matrix_dims: tuple = (1, 2, 4, 8)
    paley_count: int = 100
    paley_terms: int = 8
    paley_box: int = 6
    grid_n: int = 51


@dataclass
class ConstructionReport:
    """Pure data; every boolean corresponds to a re-runnable check.

    claim_a and claim_b are true in every report and stand for the
    lacunarity check that proves them: build_pipeline's riesz_coeffs
    raises StageFailure("riesz", "not_lacunary") otherwise.
    """

    schema_version: int
    smoothness: object
    config: OrchestratorConfig
    witness: object
    plan: object
    digest: str
    retries_used: int
    claim_a: bool
    claim_b: bool
    rho_bounds_ok: bool
    composite_max_rel_error: float
    paley: dict
    timings: dict = field(default_factory=dict)


def _build_with_retries(s, witness, config):
    t0, q = config.t0, config.q
    last = None
    for attempt in range(config.retries + 1):
        plan = build_sequence(s, witness, config.K, t0, q)
        rep = plan.report
        if rep.cond_i and rep.bound_iii_met and rep.bound_iv_met:
            return plan, attempt
        last = rep
        t0, q = t0 * t0, q * q
    raise StageFailure(
        "sequence", "conditions_unmet",
        {"retries": config.retries, "last_report": to_jsonable(last)})


def _composite_check(plan, pipeline, config):
    """The largest composite_relative_error over composite_count samples,
    sample i with Gaussian coefficients on Lambda alone, from the stream
    (seed, 7, i).  The composite identity reads f only on Lambda, and
    composite_apply projects onto Lambda first, so a frequency off Lambda
    would feed no check."""
    worst = 0.0
    for i in range(config.composite_count):
        f = random_trigpoly(plan.sequence, seed=[config.seed, 7, i])
        worst = max(worst, composite_relative_error(f, pipeline))
    return worst


def _rho_exact(plan, n):
    """rho_k = (sigma_alpha(n) + tau*ell*sigma_beta(n)) / (2 Q_S(n)^{1/2})
    at n = n_k, from the symbols' exact integers and phases, the exact
    ell and Q_S(n), independently of M's multiplier.  With ell = p/q,
    each of the real and imaginary parts is X / (2 q Q_S(n)^{1/2}) for an
    integer X, computed as sign(X) times the square root of the
    correctly rounded int division X^2 / (4 q^2 Q_S(n)): within about an
    ulp."""
    a, b = plan.witness.alpha, plan.witness.beta
    p, q = plan.ell_exact.numerator, plan.ell_exact.denominator
    pa = symbol_phase(a, n)
    pb = plan.tau * symbol_phase(b, n)
    abs_a = symbol_abs_int(a, n) * q
    abs_b = symbol_abs_int(b, n) * p
    scale = 4 * q * q * q_s_eval(plan.smoothness, n)
    parts = []
    for unit_a, unit_b in ((pa.real, pb.real), (pa.imag, pb.imag)):
        x = int(unit_a) * abs_a + int(unit_b) * abs_b
        root = math.sqrt(x * x / scale)
        parts.append(-root if x < 0 else root)
    return complex(*parts)


def _rho_bounds_ok(plan, pipeline):
    """Every rho_k of the pipeline agrees with _rho_exact to 4 ulps (it
    rounds four times on its way from M's multiplier, _rho_exact twice)
    and lies in [rho_hat (1 + ell) / 2, (1 + ell) / 2] up to 1e-12."""
    lo = 0.5 * plan.rho_hat * (1.0 + plan.ell_hat)
    hi = 0.5 * (1.0 + plan.ell_hat)
    slack = 1e-12
    for n, r in zip(plan.sequence, pipeline.rho_k):
        want = _rho_exact(plan, n)
        if abs(r - want) > 4 * sys.float_info.epsilon * abs(want):
            return False
        if not lo - slack <= abs(r) <= hi + slack:
            return False
    return True


def _check_paley_config(config):
    """The Paley probe's sampler for config, without support and with None
    standing for n_1 in always; ValueError unless paley_box is an integer
    >= 0 and PaleySampler takes the rest."""
    int_at_least("paley_box", config.paley_box, 0)
    return PaleySampler(count=config.paley_count, terms=config.paley_terms,
                        always=(None,), mdim=int_tuple(config.matrix_dims),
                        seed=config.seed, grid_n=config.grid_n)


def paley_probe(plan, config):
    """The plan's empirical Paley probe: config.paley_terms draws from
    the box [1, paley_box]^2 (no support off d = 2) plus n_1 in every
    sample, in each of config.matrix_dims."""
    box = range(1, config.paley_box + 1)
    support = [(i, j) for i in box for j in box] if plan.smoothness.dim == 2 else []
    sampler = replace(_check_paley_config(config), support=tuple(support),
                      always=(plan.sequence[0],))
    return estimate_paley_constant(plan.smoothness, plan.sequence, sampler)


def run_construction(s, config=None):
    """Execute every stage on the smoothness set and report.

    Raises StageFailure naming the first failing stage; in particular a
    set without the required witness fails at stage property_o.  Before
    any stage runs, a config raises ValueError unless K >= 1, seed >= 0,
    composite_count >= 1 and retries >= 0 are integers (numpy integers
    pass, a float or a bool does not): with no composite sample or a
    negative retry count the composite check or the sequence stage would
    report on nothing.  So does a config the Paley probe cannot run on
    (see _check_paley_config).
    """
    config = config or OrchestratorConfig()
    for name, low in (("K", 1), ("seed", 0), ("composite_count", 1), ("retries", 0)):
        int_at_least(name, getattr(config, name), low)
    if config.matrix_dims:
        _check_paley_config(config)
    timings = {}

    t = time.perf_counter()
    witness = find_witness_or_fail(s)
    timings["property_o"] = time.perf_counter() - t

    t = time.perf_counter()
    plan, retries_used = _build_with_retries(s, witness, config)
    timings["sequence"] = time.perf_counter() - t

    t = time.perf_counter()
    pipeline = build_pipeline(plan)  # raises unless the plan is lacunary
    timings["riesz"] = time.perf_counter() - t

    t = time.perf_counter()
    composite_err = _composite_check(plan, pipeline, config)
    rho_ok = _rho_bounds_ok(plan, pipeline)
    timings["composite"] = time.perf_counter() - t

    t = time.perf_counter()
    paley = paley_probe(plan, config) if config.matrix_dims else {}
    timings["paley"] = time.perf_counter() - t

    return ConstructionReport(
        schema_version=SCHEMA_VERSION,
        smoothness=s,
        config=config,
        witness=witness,
        plan=plan,
        digest=plan_digest(plan),
        retries_used=retries_used,
        claim_a=True,
        claim_b=True,
        rho_bounds_ok=rho_ok,
        composite_max_rel_error=composite_err,
        paley=paley,
        timings=timings,
    )


# the report's JSON form; perfbench calls and times it by this name
report_to_json = to_jsonable


@dataclass
class ReplayResult:
    """Truthy when the re-run matched; otherwise lists what moved."""

    match: bool
    mismatches: list

    def __bool__(self):
        return self.match


def _compare(path, a, b, out):
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            if k not in a or k not in b:
                out.append("%s.%s: present on one side only" % (path, k))
            else:
                _compare("%s.%s" % (path, k), a[k], b[k], out)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append("%s: length %d vs %d" % (path, len(a), len(b)))
            return
        for i, (x, y) in enumerate(zip(a, b)):
            _compare("%s[%d]" % (path, i), x, y, out)
    elif isinstance(a, float) or isinstance(b, float):
        fa, fb = float(a), float(b)
        if fa != fb and abs(fa - fb) > 1e-12 * max(abs(fa), abs(fb)):
            out.append("%s: %r vs %r" % (path, a, b))
    else:
        if a != b:
            out.append("%s: %r vs %r" % (path, a, b))


def replay(report, s, config=None):
    """Re-run from the original inputs and diff against the report.

    Floats must match to 1e-12 relative, everything else exactly;
    timings are measurements, not results, and are skipped.  A report
    from a different schema version cannot be meaningfully compared and
    fails with that as the explanation.
    """
    if report.schema_version != SCHEMA_VERSION:
        return ReplayResult(False, [
            "schema_version: report has %r, current is %r"
            % (report.schema_version, SCHEMA_VERSION)])
    fresh = run_construction(s, config or report.config)
    a = report_to_json(report)
    b = report_to_json(fresh)
    a.pop("timings"), b.pop("timings")
    mismatches = []
    _compare("report", a, b, mismatches)
    return ReplayResult(not mismatches, mismatches)
