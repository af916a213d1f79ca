"""Per-layer tracing from outside the program.

A Tracer replaces public functions of paleykit with wrappers that record
one span (name, start, end, parent, info) per call.  A function is
patched where it is defined, in every paleykit module that imported its
name, and, for methods, on the class.  Spans stay in memory until the
run ends.  A function that no longer exists is listed as absent and its
layer reports zeros; the run goes on.  pmap is only counted: its span
would hold the mapped function's work, which belongs to the caller.

The multiindex helpers, the CLI and the error types get no wrapper: the
helpers run up to ~10^7 times inside one check_conditions call, so a
wrapper would cost more than they do.
"""

import functools
import importlib
import statistics
import sys
import threading
import time


def _paley_ratio_info(args, kwargs, result):
    f = args[0]
    return {"m": f.mdim or 1}


def _grid_n(f, n_points):
    return int(n_points) if n_points is not None else f.default_grid_n()


def _evaluate_info(args, kwargs, result):
    f = args[0]
    n_points = args[1] if len(args) > 1 else kwargs.get("n_points")
    return {"grid_values": _grid_n(f, n_points) ** f.dim * (f.mdim or 1) ** 2}


def _s1_l1_info(args, kwargs, result):
    f = args[0]
    if not f.is_matrix_valued():
        return {"svd_matrices": 0}
    n_points = args[1] if len(args) > 1 else kwargs.get("n_points")
    return {"svd_matrices": _grid_n(f, n_points) ** f.dim}


def _build_info(args, kwargs, result):
    from paleykit.sequence import ball_count

    rep = result.report
    d = len(result.sequence[0])
    points = sum(ball_count(d, result.radii[k - 1]) for k in rep.iv_evaluated)
    return {"ball_points": points, "balls_skipped": len(rep.iv_skipped)}


def _riesz_info(args, kwargs, result):
    return {"patterns": len(result.coeffs)}


def _cr_info(args, kwargs, result):
    return {"converged": bool(result.converged), "restarts": result.restarts_used}


# layer -> [(module, qualified name, info hook or None)]
LAYERS = {
    "orchestrator": [("paleykit.orchestrator", "run_construction", None)],
    "simplex": [("paleykit.simplex", "lp_solve", None)],
    "property_o": [("paleykit.property_o", "find_witness", None)],
    "sequence": [("paleykit.sequence", "build_sequence", _build_info),
                 ("paleykit.sequence", "check_conditions", None)],
    "riesz": [("paleykit.riesz", "verify_claim_a", None),
              ("paleykit.riesz", "verify_claim_b", None),
              ("paleykit.riesz", "riesz_coeffs", _riesz_info)],
    "operators": [("paleykit.operators", "estimate_paley_constant", None),
                  ("paleykit.operators", "paley_ratio", _paley_ratio_info),
                  ("paleykit.operators", "composite_relative_error", None)],
    "trigpoly": [("paleykit.trigpoly", "sobolev_norm", None),
                 ("paleykit.trigpoly", "s1_l1_norm", _s1_l1_info),
                 ("paleykit.trigpoly", "TrigPoly.evaluate", _evaluate_info)],
    "crnorm": [("paleykit.crnorm", "khintchine_ratio", None),
               ("paleykit.crnorm", "cr_norm", _cr_info)],
    "serialization": [("paleykit.orchestrator", "report_to_json", None),
                      ("paleykit.serialization", "plan_digest", None)],
}

# module, name -> calls counted without a span
COUNTED = [("paleykit.parallel", "pmap")]

PALEY_DIMS = (1, 2, 4, 8)


class Tracer:
    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent, info]
        self.absent = []
        self.counts = {}
        self._local = threading.local()
        self._patches = []

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, layer, name, fn, info_hook=None):
        spans = self.spans
        stack_of = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = stack_of()
            span = [name, layer, time.perf_counter(), None, stack[-1] if stack else None, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if info_hook is not None:
                try:
                    span[5] = info_hook(args, kwargs, result)
                except Exception as exc:  # an API change must not end the run
                    span[5] = {"info_error": "%s: %s" % (type(exc).__name__, exc)}
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        targets = [(modname, qualname, functools.partial(self._wrap, layer, qualname, info_hook=hook))
                   for layer, entries in LAYERS.items() for modname, qualname, hook in entries]
        targets += [(modname, name, functools.partial(self._count, name))
                    for modname, name in COUNTED]
        for modname, qualname, make_wrapper in targets:
            try:
                owner = importlib.import_module(modname)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append("%s.%s" % (modname, qualname))
                continue
            wrapper = make_wrapper(original)
            self._patch(owner, attr, wrapper)
            if not path:
                for name, mod in list(sys.modules.items()):
                    if (name == "paleykit" or name.startswith("paleykit.")) \
                            and mod is not owner and getattr(mod, attr, None) is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------

    def span_table(self):
        """Spans as plain data, for the spans file."""
        return [{"name": s[0], "layer": s[1], "start": s[2], "end": s[3],
                 "parent": s[4], "info": s[5]} for s in self.spans]

    def self_times(self):
        """Per-layer self time: span durations minus their children's."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out = {layer: 0.0 for layer in LAYERS}
        for i, s in enumerate(self.spans):
            out[s[1]] += (s[3] - s[2]) - child[i]
        return out

    def layer_metrics(self, stage_times, traced_s, untraced_s, svd8_floor_per_s):
        """Every per-layer metric as {name: (value, unit)}."""
        by_name = {}
        for i, s in enumerate(self.spans):
            by_name.setdefault(s[0], []).append(i)

        def durations(name):
            return [self.spans[i][3] - self.spans[i][2] for i in by_name.get(name, [])]

        def total(name):
            return sum(durations(name))

        def info_sum(name, key):
            return sum((self.spans[i][5] or {}).get(key, 0) for i in by_name.get(name, []))

        def p50_ms(values):
            return 1000.0 * statistics.median(values) if values else 0.0

        def has_ancestor(i, name):
            p = self.spans[i][4]
            while p is not None:
                if self.spans[p][0] == name:
                    return True
                p = self.spans[p][4]
            return False

        n_fw = len(by_name.get("find_witness", []))
        lps_in_fw = sum(1 for i in by_name.get("lp_solve", []) if has_ancestor(i, "find_witness"))
        cr = by_name.get("cr_norm", [])
        cr_info = [self.spans[i][5] or {} for i in cr]
        ratio_ms = {m: [] for m in PALEY_DIMS}
        for i in by_name.get("paley_ratio", []):
            m = (self.spans[i][5] or {}).get("m")
            if m in ratio_ms:
                ratio_ms[m].append(self.spans[i][3] - self.spans[i][2])

        s, ms, n, frac = "s", "ms", "count", "fraction"
        metrics = {}
        for stage in ("property_o", "sequence", "riesz", "composite", "paley"):
            metrics["orchestrator.%s_s" % stage] = (stage_times.get(stage, 0.0), s)
        metrics.update({
            "simplex.lp_calls": (len(by_name.get("lp_solve", [])), n),
            "simplex.lp_s": (total("lp_solve"), s),
            "simplex.lp_ms_p50": (p50_ms(durations("lp_solve")), ms),
            "property_o.find_witness_s": (total("find_witness"), s),
            "property_o.lps_per_call": (lps_in_fw / n_fw if n_fw else 0.0, n),
            "sequence.build_calls": (len(by_name.get("build_sequence", [])), n),
            "sequence.build_s": (total("build_sequence"), s),
            "sequence.check_conditions_s": (total("check_conditions"), s),
            "sequence.ball_points": (info_sum("build_sequence", "ball_points"), n),
            "sequence.balls_skipped": (info_sum("build_sequence", "balls_skipped"), n),
            "riesz.claims_s": (total("verify_claim_a") + total("verify_claim_b"), s),
            "riesz.coeffs_s": (total("riesz_coeffs"), s),
            "riesz.patterns": (info_sum("riesz_coeffs", "patterns"), n),
            "operators.paley_probe_s": (total("estimate_paley_constant"), s),
        })
        for m in PALEY_DIMS:
            metrics["operators.paley_ratio_ms.m%d" % m] = (p50_ms(ratio_ms[m]), ms)
        metrics.update({
            "operators.composite_s": (total("composite_relative_error"), s),
            "operators.composite_calls": (len(by_name.get("composite_relative_error", [])), n),
            "trigpoly.sobolev_norm_s": (total("sobolev_norm"), s),
            "trigpoly.s1_l1_norm_s": (total("s1_l1_norm"), s),
            "trigpoly.evaluate_s": (total("TrigPoly.evaluate"), s),
            "trigpoly.evaluate_calls": (len(by_name.get("TrigPoly.evaluate", [])), n),
            "trigpoly.grid_values": (info_sum("TrigPoly.evaluate", "grid_values"), n),
            "trigpoly.svd_matrices": (info_sum("s1_l1_norm", "svd_matrices"), n),
            "trigpoly.svd8_floor_per_s": (svd8_floor_per_s, "1/s"),
            "crnorm.cr_norm_calls": (len(cr), n),
            "crnorm.cr_norm_s": (total("cr_norm"), s),
            "crnorm.cr_norm_ms_p50": (p50_ms(durations("cr_norm")), ms),
            "crnorm.converged_frac": (
                sum(1 for x in cr_info if x.get("converged")) / len(cr) if cr else 0.0, frac),
            "crnorm.restarts_used": (
                sum(x.get("restarts", 0) for x in cr_info) / len(cr) if cr else 0.0, n),
            "serialization.report_to_json_s": (total("report_to_json"), s),
            "serialization.plan_digest_s": (total("plan_digest"), s),
            "parallel.pmap_calls": (self.counts.get("pmap", 0), n),
        })
        self_s = self.self_times()
        for layer in LAYERS:
            metrics["%s.self_s" % layer] = (self_s[layer], s)
        metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0 if untraced_s else 0.0, frac)
        attributed = sum(self_s.values())
        metrics["trace.unattributed_frac"] = (
            max(0.0, 1.0 - attributed / traced_s) if traced_s else 0.0, frac)
        return metrics
