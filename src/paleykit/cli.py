"""Command line interface.

Every subcommand is a thin wrapper over one library operation: it loads
inputs, calls the operation, and prints the result as canonical JSON on
standard output with a one-line human summary on standard error.  Exit
codes: 0 success, 2 input validation, 3 structured domain failure (for
example, no Property (O) witness), 1 internal error.
"""

import argparse
import json
import sys
from fractions import Fraction

from .crnorm import cr_norm
from .errors import (
    ConstructionError,
    InvalidSmoothnessError,
    PaleykitError,
    SingularFrequencyError,
    StageFailure,
)
from .multiindex import Smoothness
from .operators import PaleySampler, estimate_paley_constant, paley_project
from .orchestrator import OrchestratorConfig, report_to_json, run_construction
from .property_o import find_witness_or_fail
from .riesz import riesz_spectrum, verify_claim_a, verify_claim_b
from .sequence import RhoSampler, build_sequence, estimate_rho_de, techprop_quantities
from .serialization import (
    canonical_dumps,
    matrixseq_from_json,
    paley_to_json,
    plan_digest,
    plan_from_json,
    plan_to_json,
    poly_from_json,
    poly_to_json,
    smoothness_from_json,
    smoothness_to_json,
    to_jsonable,
    witness_to_json,
)


class _ValidationError(Exception):
    pass


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise _ValidationError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise _ValidationError("%s is not valid JSON: %s" % (path, exc))


def _parse_indices(text):
    try:
        return [tuple(int(c) for c in part.split(","))
                for part in text.split(";") if part.strip()]
    except ValueError:
        raise _ValidationError(
            "bad --indices; expected like '0,0;1,0;0,1'")


def _load_smoothness(args):
    """Build the smoothness set from --indices or --input."""
    if getattr(args, "indices", None):
        return Smoothness.from_indices(_parse_indices(args.indices))
    if getattr(args, "input", None):
        d = _read_json(args.input)
        try:
            return smoothness_from_json(d)
        except (KeyError, TypeError) as exc:
            raise _ValidationError("bad smoothness file: %s" % exc)
    raise _ValidationError("need --indices or --input")


def _load_plan(args):
    if not getattr(args, "plan", None):
        raise _ValidationError("need --plan")
    data = _read_json(args.plan)
    try:
        return plan_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _ValidationError("bad plan file: %s" % exc)


def _matrix_dims(args, default):
    dims = tuple(args.matrix_dim or default)
    if any(m < 1 for m in dims):
        raise _ValidationError("--matrix-dim must be at least 1")
    if len(set(dims)) != len(dims):
        raise _ValidationError("--matrix-dim repeats a dimension")
    return dims


def _check_positive(args, names):
    for name in names:
        v = getattr(args, name, None)
        if v is not None and v < 1:
            raise _ValidationError("--%s must be at least 1" % name.replace("_", "-"))


# ----------------------------------------------------------------------
# subcommand handlers: return (exit code, payload, summary)


def _cmd_check_smoothness(args):
    try:
        s = _load_smoothness(args)
    except InvalidSmoothnessError as exc:
        return 3, {"failure": "not_smoothness", "error": str(exc)}, \
            "not a smoothness set: %s" % exc
    payload = smoothness_to_json(s)
    payload["size"] = len(s.indices)
    return 0, payload, "smoothness set: dimension %d, %d indices" % (
        s.dim, len(s.indices))


def _cmd_check_property_o(args):
    w = find_witness_or_fail(_load_smoothness(args))
    return 0, witness_to_json(w), \
        "witness: alpha=%s beta=%s t*=%s" % (w.alpha, w.beta, w.t_star)


def _cmd_build_sequence(args):
    s = _load_smoothness(args)
    if args.t0 <= 1 or args.q <= 1:
        raise _ValidationError("--t0 and --q must be greater than 1")
    _check_positive(args, ["K"])
    plan = build_sequence(s, find_witness_or_fail(s), args.K, args.t0, args.q)
    return 0, plan_to_json(plan), \
        "plan: K=%d first=%s digest=%s" % (
            plan.K, plan.sequence[0], plan_digest(plan)[:12])


def _cmd_riesz_spectrum(args):
    plan = _load_plan(args)
    ok_b, bad_b = verify_claim_b(plan.sequence, plan.K)
    if not ok_b:
        raise StageFailure("riesz", "claim_b_collision", {"patterns": bad_b})
    spectrum = riesz_spectrum(plan.sequence, plan.K)
    ok_a, _ = verify_claim_a(plan.sequence, plan.K)
    sample = [list(n) for n in sorted(spectrum)[:9]]
    payload = {"size": len(spectrum), "claims": {"a": ok_a, "b": ok_b},
               "sample_frequencies": sample}
    return 0, payload, "spectrum: %d points, claim A %s, claim B %s" % (
        len(spectrum), ok_a, ok_b)


def _cmd_project(args):
    plan = _load_plan(args)
    if not args.poly:
        raise _ValidationError("need --poly")
    data = _read_json(args.poly)
    try:
        f = poly_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _ValidationError("bad polynomial file: %s" % exc)
    out = paley_project(f, plan.sequence)
    return 0, poly_to_json(out), "kept %d of %d coefficients" % (
        len(out), len(f))


def _cmd_estimate_paley(args):
    plan = _load_plan(args)
    _check_positive(args, ["count", "grid_n"])
    dims = _matrix_dims(args, (1,))
    sampler = PaleySampler.for_plan(
        plan, count=args.count, box=OrchestratorConfig.paley_box,
        terms=OrchestratorConfig.paley_terms, mdim=dims, seed=args.seed,
        grid_n=args.grid_n)
    result = estimate_paley_constant(plan.smoothness, plan.sequence, sampler)
    payload = paley_to_json(result)
    payload["m"] = payload.pop("mdim")
    payload["plan_digest"] = plan_digest(plan)
    return 0, payload, "empirical sup ratio %.6g over %d samples (m=%s)" % (
        result["sup_ratio"], args.count, list(dims))


def _cmd_cr_norm(args):
    if not args.input:
        raise _ValidationError("need --input")
    data = _read_json(args.input)
    try:
        ms = matrixseq_from_json(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise _ValidationError("bad matrix sequence file: %s" % exc)
    r = cr_norm(ms, seed=args.seed)
    payload = {"value": r.value, "converged": r.converged,
               "restarts_used": r.restarts_used}
    return 0, payload, "C+R norm %.9g (%d restarts%s)" % (
        r.value, r.restarts_used, "" if r.converged else ", not converged")


def _cmd_techprop(args):
    s = _load_smoothness(args)
    if args.pair:
        d = _read_json(args.pair)
        try:
            m, n = tuple(d["m"]), tuple(d["n"])
        except (KeyError, TypeError) as exc:
            raise _ValidationError("bad pair file: %s" % exc)
        q1, q2, q3 = techprop_quantities(s, m, n)
        return 0, {"q1": q1, "q2": q2, "q3": q3}, \
            "quantities at m=%s n=%s: %.6g %.6g %.6g" % (m, n, q1, q2, q3)
    if not 0.0 < args.eps < 1.0:
        raise _ValidationError("--eps must be in (0, 1)")
    if args.D < 0:
        raise _ValidationError("--D must be non-negative")
    result = estimate_rho_de(s, args.D, args.eps,
                             RhoSampler(seed=args.seed))
    return 0, result, "rho(D=%d, eps=%g) = %d after %d pairs" % (
        args.D, args.eps, result["rho"], result["pairs_tested"])


def _cmd_run_all(args):
    s = _load_smoothness(args)
    if args.t0 <= 1 or args.q <= 1:
        raise _ValidationError("--t0 and --q must be greater than 1")
    _check_positive(args, ["K", "count", "grid_n"])
    dims = _matrix_dims(args, OrchestratorConfig.matrix_dims)
    config = OrchestratorConfig(K=args.K, t0=args.t0, q=args.q, seed=args.seed,
                                paley_count=args.count, matrix_dims=dims,
                                grid_n=args.grid_n)
    report = run_construction(s, config)
    summary = ("construction verified: claims %s/%s, composite err %.3g, "
               "paley sup %.6g, digest %s" % (
                   report.claim_a, report.claim_b,
                   report.composite_max_rel_error,
                   report.paley.get("sup_ratio", float("nan")),
                   report.digest[:12]))
    return 0, report_to_json(report), summary


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="paleykit",
        description="Anisotropic Paley projections: construction and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, helptext, plan=False, poly=False, pair=False,
            seq_flags=False, sample_flags=False):
        p = sub.add_parser(name, help=helptext)
        p.set_defaults(handler=handler)
        p.add_argument("--indices", help="inline multi-indices '0,0;1,0;0,1'")
        p.add_argument("--input", help="JSON input file")
        p.add_argument("--seed", type=int, default=0)
        if plan:
            p.add_argument("--plan", help="plan JSON file")
        if poly:
            p.add_argument("--poly", help="polynomial JSON file")
        if pair:
            p.add_argument("--pair", help="JSON file with a frequency pair {m, n}")
            p.add_argument("--eps", type=float, default=0.1)
            p.add_argument("--D", type=int, default=1)
        if seq_flags:
            p.add_argument("--K", type=int, default=4)
            p.add_argument("--t0", type=Fraction, default=Fraction(100))
            p.add_argument("--q", type=Fraction, default=Fraction(10))
        if sample_flags:
            p.add_argument("--count", type=int, default=100)
            p.add_argument("--matrix-dim", type=int, action="append",
                           dest="matrix_dim")
            p.add_argument("--grid-n", type=int, default=51, dest="grid_n")
        return p

    add("check-smoothness", _cmd_check_smoothness,
        "validate a downward-closed multi-index set")
    add("check-property-o", _cmd_check_property_o,
        "search for a Property (O) witness")
    add("build-sequence", _cmd_build_sequence,
        "build a verified lacunary plan", seq_flags=True)
    add("riesz-spectrum", _cmd_riesz_spectrum,
        "spectrum size and claim checks for a plan", plan=True)
    add("project", _cmd_project,
        "restrict a polynomial to the plan frequencies", plan=True, poly=True)
    add("estimate-paley", _cmd_estimate_paley,
        "empirical Paley constants for a plan", plan=True, sample_flags=True)
    add("cr-norm", _cmd_cr_norm, "C+R norm of a matrix sequence")
    add("techprop", _cmd_techprop,
        "pair quantities or the rho(D, eps) doubling search", pair=True)
    add("run-all", _cmd_run_all,
        "full construction with every verification stage",
        seq_flags=True, sample_flags=True)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2

    try:
        code, payload, summary = args.handler(args)
    except _ValidationError as exc:
        print(canonical_dumps({"error": str(exc)}))
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except InvalidSmoothnessError as exc:
        print(canonical_dumps({"error": str(exc)}))
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except StageFailure as exc:
        payload = {"failure": exc.reason, "stage": exc.stage}
        if exc.details:
            payload["details"] = to_jsonable(exc.details)
        print(canonical_dumps(payload))
        print("failed at stage %s: %s" % (exc.stage, exc.reason),
              file=sys.stderr)
        return 3
    except (ConstructionError, SingularFrequencyError) as exc:
        print(canonical_dumps({"failure": type(exc).__name__,
                               "error": str(exc)}))
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except PaleykitError as exc:
        print(canonical_dumps({"error": str(exc)}))
        print("internal error: %s" % exc, file=sys.stderr)
        return 1
    except Exception as exc:
        print(canonical_dumps({"error": "%s: %s" % (type(exc).__name__, exc)}))
        print("internal error: %s" % exc, file=sys.stderr)
        return 1

    print(canonical_dumps(payload))
    if summary:
        print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
