"""Command line interface.

Every subcommand is a thin wrapper over one library operation: it loads
inputs, calls the operation, and prints the result as canonical JSON on
standard output with a one-line human summary on standard error.  A
subcommand takes exactly the flags its handler reads (_COMMANDS).  Exit
codes: 0 success, 2 input validation, including any unknown, missing or
ill-valued flag, 3 structured domain failure (for example, no Property
(O) witness), 1 internal error.
"""

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from itertools import islice

from .crnorm import cr_norm
from .errors import (
    ConstructionError,
    InvalidSmoothnessError,
    PaleykitError,
    SingularFrequencyError,
    StageFailure,
)
from .multiindex import Smoothness
from .operators import paley_project
from .orchestrator import OrchestratorConfig, paley_probe, report_to_json, run_construction
from .property_o import find_witness_or_fail
from .riesz import riesz_coeffs
from .sequence import (build_sequence, certified_rho, closeness_bounds, pattern_frequency,
                       sign_patterns, techprop_quantities)
from .serialization import (
    canonical_dumps,
    from_jsonable,
    matrixseq_from_json,
    plan_digest,
    plan_from_json,
    poly_from_json,
    poly_to_json,
    to_jsonable,
)


class _ValidationError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Sends flag errors down the exit-2 JSON path of all bad input."""

    def error(self, message):
        raise _ValidationError(message)


def _load(path, what, decode):
    try:
        with open(path) as fh:
            return decode(json.load(fh))
    except OSError as exc:
        raise _ValidationError("cannot read %s: %s" % (path, exc))
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError too
        raise _ValidationError("bad %s file: %s" % (what, exc))


def _load_smoothness(args):
    """Build the smoothness set from --indices or --input."""
    if args.indices:
        return Smoothness.from_indices(args.indices)
    if args.input:
        return _load(args.input, "smoothness",
                     lambda d: from_jsonable(Smoothness, d))
    raise _ValidationError("need --indices or --input")


def _config(args, **defaults):
    """OrchestratorConfig of the flags given; a field no flag sets takes
    its value from defaults, else OrchestratorConfig's default."""
    names = {f.name for f in dataclasses.fields(OrchestratorConfig)}
    given = {k: v for k, v in vars(args).items() if k in names}
    return OrchestratorConfig(**dict(defaults, **given))


def _checked(convert, expected, ok=lambda v: True):
    """An argparse type: convert(text), rejected unless ok."""
    def parse(text):
        try:
            v = convert(text)
            if ok(v):
                return v
        except (ValueError, ZeroDivisionError):
            pass
        raise argparse.ArgumentTypeError("expected %s, got %r" % (expected, text))
    return parse


def _indices(text):
    return [tuple(int(c) for c in part.split(","))
            for part in text.split(";") if part.strip()]


def _fraction(text):
    """An int when integral, as OrchestratorConfig holds it, else a Fraction."""
    v = Fraction(text)
    return v.numerator if v.denominator == 1 else v


_positive_int = _checked(int, "an integer at least 1", lambda v: v >= 1)
_nonnegative_int = _checked(int, "an integer at least 0", lambda v: v >= 0)
_rational = _checked(_fraction, "an integer or p/q greater than 1", lambda v: v > 1)


class _MatrixDims(argparse.Action):
    """Repeatable --matrix-dim, collected into a tuple; naming a dimension
    twice is an error."""

    def __call__(self, parser, namespace, value, option_string=None):
        dims = getattr(namespace, self.dest, ())
        if value in dims:
            raise argparse.ArgumentError(self, "repeats dimension %d" % value)
        setattr(namespace, self.dest, dims + (value,))


# add_argument keywords per flag.  A flag with no default is absent from
# the parsed namespace unless given; its dest names an OrchestratorConfig
# field, whose default _config supplies.
_FLAGS = {
    "--indices": dict(type=_checked(_indices, "indices like '0,0;1,0;0,1'"),
                      default=None, help="inline multi-indices '0,0;1,0;0,1'"),
    "--input": dict(default=None, help="JSON input file"),
    "--seed": dict(type=_nonnegative_int, default=0),
    "--plan": dict(required=True, help="plan JSON file"),
    "--poly": dict(required=True, help="polynomial JSON file"),
    "--pair": dict(default=None, help="JSON file with a frequency pair {m, n}"),
    "--eps": dict(type=_checked(float, "a number in (0, 1)", lambda v: 0 < v < 1),
                  default=0.1),
    "--D": dict(type=_nonnegative_int, default=1),
    "--K": dict(type=_positive_int),
    "--t0": dict(type=_rational),
    "--q": dict(type=_rational),
    "--count": dict(type=_positive_int, dest="paley_count", metavar="COUNT"),
    "--matrix-dim": dict(type=_positive_int, action=_MatrixDims, dest="matrix_dims",
                         metavar="M"),
    "--grid-n": dict(type=_positive_int),
}


# ----------------------------------------------------------------------
# subcommand handlers: return (exit code, payload, summary)


def _cmd_check_smoothness(args):
    try:
        s = _load_smoothness(args)
    except InvalidSmoothnessError as exc:
        return 3, {"failure": "not_smoothness", "error": str(exc)}, \
            "not a smoothness set: %s" % exc
    payload = to_jsonable(s)
    payload["size"] = len(s.indices)
    return 0, payload, "smoothness set: dimension %d, %d indices" % (
        s.dim, len(s.indices))


def _cmd_check_property_o(args):
    w = find_witness_or_fail(_load_smoothness(args))
    return 0, to_jsonable(w), \
        "witness: alpha=%s beta=%s t*=%s" % (w.alpha, w.beta, w.t_star)


def _cmd_build_sequence(args):
    s, c = _load_smoothness(args), _config(args)
    plan = build_sequence(s, find_witness_or_fail(s), c.K, c.t0, c.q)
    return 0, to_jsonable(plan), \
        "plan: K=%d first=%s digest=%s" % (
            plan.K, plan.sequence[0], plan_digest(plan)[:12])


def _cmd_riesz_spectrum(args):
    plan = _load(args.plan, "plan", plan_from_json)
    # StageFailure unless lacunary; by claim B, 3^K points in reversed-pattern order
    mu = riesz_coeffs(plan.sequence, plan.K)
    sample = [list(pattern_frequency(mu.sequence, d[::-1], mu.dim))
              for d in islice(sign_patterns(mu.K), 9)]
    payload = {"size": 3**mu.K, "claims": {"a": True, "b": True},
               "sample_frequencies": sample}
    return 0, payload, "spectrum: %d points, claims A and B hold" % 3**mu.K


def _cmd_project(args):
    plan = _load(args.plan, "plan", plan_from_json)
    f = _load(args.poly, "polynomial", poly_from_json)
    out = paley_project(f, plan.sequence)
    return 0, poly_to_json(out), "kept %d of %d coefficients" % (
        len(out), len(f))


def _cmd_estimate_paley(args):
    plan = _load(args.plan, "plan", plan_from_json)
    config = _config(args, matrix_dims=(1,))
    result = paley_probe(plan, config)
    payload = to_jsonable(result)
    payload["m"] = payload.pop("mdim")
    payload["plan_digest"] = plan_digest(plan)
    return 0, payload, "empirical sup ratio %.6g over %d samples (m=%s)" % (
        result["sup_ratio"], config.paley_count, list(config.matrix_dims))


def _cmd_cr_norm(args):
    r = cr_norm(_load(args.input, "matrix sequence", matrixseq_from_json))
    payload = {"value": r.value, "lower": r.lower, "gap": r.gap,
               "converged": r.converged, "iterations": r.iterations}
    return 0, payload, "C+R norm in [%.9g, %.9g] after %d steps%s" % (
        r.lower, r.value, r.iterations, "" if r.converged else ", not converged")


def _cmd_techprop(args):
    s = _load_smoothness(args)
    if args.pair:
        q1, q2, q3 = _load(args.pair, "pair",
                           lambda d: techprop_quantities(s, d["m"], d["n"]))
        return 0, {"q1": q1, "q2": q2, "q3": q3}, \
            "pair quantities: %.6g %.6g %.6g" % (q1, q2, q3)
    rho = certified_rho(s, args.D, args.eps)
    q1_bound, q2_bound = closeness_bounds(s, args.D, rho)
    return 0, {"rho": rho, "q1_bound": q1_bound, "q2_bound": q2_bound}, \
        "certified rho(D=%d, eps=%g) = %d" % (args.D, args.eps, rho)


def _cmd_run_all(args):
    report = run_construction(_load_smoothness(args), _config(args))
    summary = ("construction verified: claims %s/%s, composite err %.3g, "
               "paley sup %.6g, digest %s" % (
                   report.claim_a, report.claim_b,
                   report.composite_max_rel_error,
                   report.paley.get("sup_ratio", float("nan")),
                   report.digest[:12]))
    return 0, report_to_json(report), summary


_SMOOTHNESS = ("--indices", "--input")
_SCHEDULE = ("--K", "--t0", "--q")
_PROBE = ("--seed", "--count", "--matrix-dim", "--grid-n")

# name, handler, help, flags, {flag: keywords that differ from _FLAGS}
_COMMANDS = (
    ("check-smoothness", _cmd_check_smoothness,
     "validate a downward-closed multi-index set", _SMOOTHNESS, {}),
    ("check-property-o", _cmd_check_property_o,
     "search for a Property (O) witness", _SMOOTHNESS, {}),
    ("build-sequence", _cmd_build_sequence,
     "build a verified lacunary plan", _SMOOTHNESS + _SCHEDULE, {}),
    ("riesz-spectrum", _cmd_riesz_spectrum,
     "spectrum size and claim checks for a plan", ("--plan",), {}),
    ("project", _cmd_project,
     "restrict a polynomial to the plan frequencies", ("--plan", "--poly"), {}),
    ("estimate-paley", _cmd_estimate_paley, "empirical Paley constants for a plan",
     ("--plan",) + _PROBE, {}),
    ("cr-norm", _cmd_cr_norm, "C+R norm of a matrix sequence",
     ("--input",), {"--input": {"required": True}}),
    ("techprop", _cmd_techprop, "pair quantities or the certified rho(D, eps)",
     _SMOOTHNESS + ("--pair", "--eps", "--D"), {}),
    ("run-all", _cmd_run_all, "full construction with every verification stage",
     _SMOOTHNESS + _SCHEDULE + _PROBE, {}),
)


def _build_parser():
    parser = _Parser(
        prog="paleykit",
        description="Anisotropic Paley projections: construction and checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler, helptext, flags, overrides in _COMMANDS:
        p = sub.add_parser(name, help=helptext, argument_default=argparse.SUPPRESS)
        p.set_defaults(handler=handler)
        for flag in flags:
            p.add_argument(flag, **dict(_FLAGS[flag], **overrides.get(flag, {})))
    return parser


def _failure(exc):
    """(exit code, payload, summary) for an exception out of main."""
    if isinstance(exc, (_ValidationError, InvalidSmoothnessError)):
        return 2, {"error": str(exc)}, "error: %s" % exc
    if isinstance(exc, StageFailure):
        payload = {"failure": exc.reason, "stage": exc.stage}
        if exc.details:
            payload["details"] = to_jsonable(exc.details)
        return 3, payload, "failed at stage %s: %s" % (exc.stage, exc.reason)
    if isinstance(exc, (ConstructionError, SingularFrequencyError)):
        return 3, {"failure": type(exc).__name__, "error": str(exc)}, "error: %s" % exc
    text = str(exc) if isinstance(exc, PaleykitError) else "%s: %s" % (
        type(exc).__name__, exc)
    return 1, {"error": text}, "internal error: %s" % exc


def main(argv=None):
    try:
        args = _build_parser().parse_args(argv)
        code, payload, summary = args.handler(args)
    except SystemExit as exc:  # --help
        return exc.code
    except Exception as exc:
        code, payload, summary = _failure(exc)
    print(canonical_dumps(payload))
    if summary:
        print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
