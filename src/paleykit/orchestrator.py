"""End-to-end assembly: smoothness set in, verified construction out.

run_construction chains witness search, sequence building (with the
square-the-schedule retry when the smallness conditions fail at the
chosen truncation), Riesz verification, operator assembly, the
composite-identity check, and the empirical Paley probe, and returns
everything as one report of plain data.  replay re-runs the whole thing
from the report's own inputs and compares field by field, which is the
artifact's reproducibility guarantee.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import StageFailure
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

SCHEMA_VERSION = 3


@dataclass
class OrchestratorConfig:
    """Inputs for one full run; everything that affects the result."""

    K: int = 4
    t0: int = 100
    q: int = 10
    retries: int = 3
    seed: int = 0
    composite_count: int = 25
    composite_box: int = 50
    composite_terms: int = 8
    matrix_dims: tuple = (1, 2, 4, 8)
    paley_count: int = 100
    paley_terms: int = 8
    paley_box: int = 6
    grid_n: int = 51


@dataclass
class ConstructionReport:
    """Pure data; every boolean corresponds to a re-runnable check.

    claim_a and claim_b are true in every report: riesz_coeffs, run by
    build_pipeline, raises StageFailure when either claim fails.
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
    worst = 0.0
    box = config.composite_box
    for i in range(config.composite_count):
        rng = np.random.default_rng([config.seed, 7, i])
        freqs = list(plan.sequence)
        draw = rng.integers(1, box + 1, size=(config.composite_terms, plan.smoothness.dim))
        freqs.extend(tuple(row) for row in draw.tolist())
        f = random_trigpoly(freqs, seed=int(rng.integers(0, 2**31)))
        worst = max(worst, composite_relative_error(f, pipeline))
    return worst


def _rho_bounds_ok(plan, pipeline):
    lo = 0.5 * plan.rho_hat * (1.0 + plan.ell_hat)
    hi = 0.5 * (1.0 + plan.ell_hat)
    slack = 1e-12
    return all(lo - slack <= abs(r) <= hi + slack for r in pipeline.rho_k)


def paley_probe(plan, config):
    """The plan's empirical Paley probe: config.paley_terms draws from
    the box [1, paley_box]^2 (no support off d = 2) plus n_1 in every
    sample, in each of config.matrix_dims."""
    box = range(1, config.paley_box + 1)
    support = [(i, j) for i in box for j in box] if plan.smoothness.dim == 2 else []
    sampler = PaleySampler(count=config.paley_count, support=tuple(support),
                           always=(plan.sequence[0],), terms=config.paley_terms,
                           mdim=tuple(config.matrix_dims), seed=config.seed,
                           grid_n=config.grid_n)
    return estimate_paley_constant(plan.smoothness, plan.sequence, sampler)


def run_construction(s, config=None):
    """Execute every stage on the smoothness set and report.

    Raises StageFailure naming the first failing stage; in particular a
    set without the required witness fails at stage property_o.  A
    config with composite_count < 1 or retries < 0 raises ValueError,
    since the composite check or the sequence stage would then report
    on nothing.
    """
    config = config or OrchestratorConfig()
    if config.composite_count < 1:
        raise ValueError("need at least one composite sample")
    if config.retries < 0:
        raise ValueError("need retries >= 0")
    timings = {}

    t = time.perf_counter()
    witness = find_witness_or_fail(s)
    timings["property_o"] = time.perf_counter() - t

    t = time.perf_counter()
    plan, retries_used = _build_with_retries(s, witness, config)
    timings["sequence"] = time.perf_counter() - t

    t = time.perf_counter()
    pipeline = build_pipeline(plan)  # raises unless claims A and B hold
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
