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
from .riesz import verify_claim_a, verify_claim_b
from .sequence import build_sequence
from .serialization import paley_to_json, plan_digest, to_jsonable
from .trigpoly import random_trigpoly

SCHEMA_VERSION = 2


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
    """Pure data; every boolean corresponds to a re-runnable check."""

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
        freqs.extend(tuple(int(c) for c in row) for row in draw)
        f = random_trigpoly(freqs, seed=int(rng.integers(0, 2**31)))
        worst = max(worst, composite_relative_error(f, pipeline))
    return worst


def _rho_bounds_ok(plan, pipeline):
    lo = 0.5 * plan.rho_hat * (1.0 + plan.ell_hat)
    hi = 0.5 * (1.0 + plan.ell_hat)
    slack = 1e-12
    return all(lo - slack <= abs(r) <= hi + slack for r in pipeline.rho_k)


def run_construction(s, config=None):
    """Execute every stage on the smoothness set and report.

    Raises StageFailure naming the first failing stage; in particular a
    set without the required witness fails at stage property_o.
    """
    config = config or OrchestratorConfig()
    timings = {}

    t = time.perf_counter()
    witness = find_witness_or_fail(s)
    timings["property_o"] = time.perf_counter() - t

    t = time.perf_counter()
    plan, retries_used = _build_with_retries(s, witness, config)
    timings["sequence"] = time.perf_counter() - t

    t = time.perf_counter()
    ok_a, bad_a = verify_claim_a(plan.sequence, plan.K)
    ok_b, bad_b = verify_claim_b(plan.sequence, plan.K)
    if not ok_b:
        raise StageFailure("riesz", "claim_b_collision", {"patterns": bad_b})
    if not ok_a:
        raise StageFailure("riesz", "claim_a_escape", {"frequency": bad_a})
    pipeline = build_pipeline(plan)
    timings["riesz"] = time.perf_counter() - t

    t = time.perf_counter()
    composite_err = _composite_check(plan, pipeline, config)
    rho_ok = _rho_bounds_ok(plan, pipeline)
    timings["composite"] = time.perf_counter() - t

    t = time.perf_counter()
    paley = {}
    if config.matrix_dims:
        sampler = PaleySampler.for_plan(
            plan,
            count=config.paley_count,
            box=config.paley_box,
            terms=config.paley_terms,
            mdim=tuple(config.matrix_dims),
            seed=config.seed,
            grid_n=config.grid_n,
        )
        paley = estimate_paley_constant(s, plan.sequence, sampler)
    timings["paley"] = time.perf_counter() - t

    return ConstructionReport(
        schema_version=SCHEMA_VERSION,
        smoothness=s,
        config=config,
        witness=witness,
        plan=plan,
        digest=plan_digest(plan),
        retries_used=retries_used,
        claim_a=ok_a,
        claim_b=ok_b,
        rho_bounds_ok=rho_ok,
        composite_max_rel_error=composite_err,
        paley=paley,
        timings=timings,
    )


def report_to_json(report):
    return dict(to_jsonable(report), paley=paley_to_json(report.paley))


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
