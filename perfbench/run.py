"""Benchmark of paleykit, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload construct_ref --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

Workloads (see workloads.py): construct_ref, exact_scan, khintchine.
The seed goes into OrchestratorConfig.seed and into the benchmark's own
sample generator, so paleykit only receives generated inputs.

--trace 0 makes passes over the workload's ops until --seconds have
gone by (at least one; a pass is never cut short) and reports the
end-to-end metrics:

    setup_s      import of numpy and paleykit plus building the inputs,
                 median of five set-ups (this process and four children)
    pass_s       mean time of one pass over the ops: the construction
                 (construct_s), the exact set list (scan_s), or a round
                 of 32 Khintchine samples
    peak_rss_mb  peak resident memory of this process

Both times are wall times scaled to a reference host speed
(hostspeed.py): the host's speed is sampled with a fixed kernel during
the passes and between the set-ups, because on a shared host it drifts
by up to 30% within a minute.  The unscaled wall times are printed too,
ungated.

It also prints, ungated, the per-op latency percentiles; on khintchine
these are ratio_ms_p50 and ratio_ms_p90.  They are not end-to-end
metrics of BENCHMARK.json: a Khintchine sample's cost depends on how
fast its descent converges, so with ~220 samples a run the p90 moved
+-10% (p50 +-6%) from seed to seed relative to the mean latency, on top
of the host's speed drift.

--trace 1 runs a fixed number of passes untraced, then the same passes
with tracing.py's wrappers installed, and reports the per-layer metrics,
the SVD floor and the tracing overhead.

Every op's output is checked (checks.py); an op fails when it raises,
other than with the StageFailure its verdict table expects, or when its
check finds a problem.  On one source tree, every plan digest must be
bit-identical across runs, and so must construct_ref's per-m sup ratios
and argmax indices across runs of one seed.  Results, spans and the
fingerprints behind that check go to .bench_build/perfbench/.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

End-to-end runs unset PALEY_THREADS (one pmap worker).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
SETUP_SAMPLES = 4  # host-speed samples before, between and after set-ups
SVD_BATCH = 51 * 51  # one 51 x 51 Paley grid of 8 x 8 values

ORIGINAL_ENV = {k: os.environ.get(k) for k in
                ("PALEY_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")}
os.environ.pop("PALEY_THREADS", None)


def import_paleykit():
    """Import paleykit from this checkout's src/, never from elsewhere."""
    if not (SRC / "paleykit" / "__init__.py").is_file():
        sys.exit("perfbench: no paleykit sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import paleykit

    if Path(paleykit.__file__).resolve().parent != SRC / "paleykit":
        sys.exit("perfbench: imported paleykit from %s" % paleykit.__file__)
    return paleykit


def set_up(workload, seed):
    """Import and build the inputs; returns (workload object, seconds)."""
    t = time.perf_counter()
    import_paleykit()
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    return wl, time.perf_counter() - t


def in_child(flag, workload, seed, timeout):
    """Last stdout line of this script run with one of its hidden modes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), flag,
           "--workload", workload, "--seed", str(seed)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=timeout, check=True)
    return out.stdout.strip().splitlines()[-1]


# ----------------------------------------------------------------------
# measurement


class Run:
    """Outcomes of the ops run so far, and the checks' verdicts."""

    def __init__(self, seed, record, clock):
        self.seed = seed
        self.record = record
        self.clock = clock
        self.op_seconds = []
        self.pass_seconds = []
        self.attempted = 0
        self.failed = 0
        self.problems = []  # (op label, problem)
        self.stage_times = {}

    def one_pass(self, ops):
        total = 0.0
        stages = {}
        for op in ops:
            value = error = None
            sampling = self.clock.sampling_s
            t = time.perf_counter()
            try:
                value = op.run()
            except Exception as exc:  # a failing op is counted, never fatal
                error = exc
            # wall time, less the host-speed samples taken inside the op
            dt = time.perf_counter() - t - (self.clock.sampling_s - sampling)
            total += dt
            self.op_seconds.append(dt)
            self.attempted += 1
            try:
                problems = op.check(value, error)
                fp = op.fingerprint(value)
                if fp is not None:
                    problems += self.record.check(self.seed, op.label, fp)
                for stage, sec in op.stage_times(value, error, dt).items():
                    stages[stage] = stages.get(stage, 0.0) + sec
            except Exception as exc:  # a check that crashes is a failed op
                problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
            self.failed += bool(problems)
            self.problems += [(op.label, p) for p in problems]
        self.pass_seconds.append(total)
        self.stage_times = stages
        return total


def measure(wl, run, seconds):
    """Passes until `seconds` are gone, with the host clock sampling;
    returns the host's mean speed over them."""
    since = len(run.clock.samples)
    start = time.perf_counter()
    r = 0
    run.clock.start()
    try:
        while True:
            run.one_pass(wl.ops(r))
            r += 1
            if time.perf_counter() - start + statistics.median(run.pass_seconds) > seconds:
                break
    finally:
        run.clock.stop()
    return run.clock.speed(since)


KNOWN_FAILURE_TIMEOUT_S = 30


def known_failures(wl):
    """Outcome of each known-failing op, run once and untimed."""
    out = []
    for op in wl.known_failures():
        try:
            value, error = op.run(), None
        except Exception as exc:
            value, error = None, exc
        problems = op.check(value, error)
        out.append({"op": op.label,
                    "outcome": "; ".join(problems) if problems else "passes its check"})
    return out


def known_failures_in_child(workload, seed):
    """known_failures in a child process, so that a fix which makes an op
    slow instead of failing cannot push the run past its time limit."""
    try:
        return json.loads(in_child("--known-failures", workload, seed, KNOWN_FAILURE_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        return [{"op": "all", "outcome": "did not finish in %d s" % KNOWN_FAILURE_TIMEOUT_S}]


def svd8_floor_per_s(seed, repeats=15):
    import numpy as np

    rng = np.random.default_rng([seed, 8])
    a = rng.standard_normal((SVD_BATCH, 8, 8)) + 1j * rng.standard_normal((SVD_BATCH, 8, 8))
    np.linalg.svd(a, compute_uv=False)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        np.linalg.svd(a, compute_uv=False)
        times.append(time.perf_counter() - t)
    return SVD_BATCH / statistics.median(times)


def percentile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ----------------------------------------------------------------------
# run record


def src_files():
    return sorted((SRC / "paleykit").glob("*.py"))


def src_hash():
    h = hashlib.sha256()
    for p in src_files():
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def metadata(args, run, wl_name):
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: "%s %s" % (deps[k].get("name"), deps[k].get("version"))
                for k in ("blas", "lapack")}
    except Exception as exc:  # older numpy has no dict form
        blas = {"unknown": str(exc)}
    return {
        "workload": wl_name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_lapack": blas,
        "env": ORIGINAL_ENV,
        "passes": len(run.pass_seconds),
        "ops_per_pass": run.attempted // max(1, len(run.pass_seconds)),
        "ops": run.attempted,
        "src_loc": {p.stem: len(p.read_text().splitlines()) for p in src_files()},
    }


def write_json(name, obj):
    (OUT / name).write_text(json.dumps(obj, indent=1, sort_keys=True, default=str))


# ----------------------------------------------------------------------


# headline names of each workload's numbers
ALIASES = {
    "construct_ref": {"construct_s": ("pass_s", "s")},
    "exact_scan": {"scan_s": ("pass_s", "s")},
    "khintchine": {"ratio_ms_p50": ("op_ms_p50", "ms"), "ratio_ms_p90": ("op_ms_p90", "ms")},
}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("construct_ref", "exact_scan", "khintchine"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--known-failures", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--selftest", action="store_true", help="only run the checks' self-tests")
    args = p.parse_args(argv)

    if args.setup_only:
        print(set_up(args.workload, args.seed)[1])
        return 0
    if args.known_failures:
        print(json.dumps(known_failures(set_up(args.workload, args.seed)[0])))
        return 0
    if args.selftest:
        import_paleykit()
        import selftest

        broken = selftest.run_selftests()
        for line in broken:
            print("BROKEN", line)
        print("%d self-test(s) broken" % len(broken))
        return 1 if broken else 0
    if args.workload is None:
        p.error("--workload is required")

    wl, first_setup = set_up(args.workload, args.seed)
    import hostspeed

    # set-ups scaled by the host speed sampled between them
    clock = hostspeed.HostClock()
    wall_setups = [first_setup]
    for _ in range(SETUP_REPEATS - 1):
        for _ in range(SETUP_SAMPLES):
            clock.sample()
        wall_setups.append(float(in_child("--setup-only", args.workload, args.seed, 120)))
    for _ in range(SETUP_SAMPLES):
        clock.sample()
    setup_speed = clock.speed()
    setups = [sec * setup_speed for sec in wall_setups]
    import checks
    import selftest
    import tracing
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    broken = selftest.run_selftests()
    # determinism fingerprints on disk, one table per source tree
    record_path = OUT / "determinism.json"
    records = json.loads(record_path.read_text()) if record_path.is_file() else {}
    tree = src_hash()
    run = Run(args.seed, checks.DeterminismRecord(records.get(tree)), clock)

    if args.trace == 0:
        speed = measure(wl, run, args.seconds)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.mean(run.pass_seconds) * speed, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
        ms = [1000.0 * s for s in run.op_seconds]
        latency = {"op_ms_p50": statistics.median(ms), "op_ms_p90": percentile(ms, 90)}
        spans = None
    else:
        rounds = workloads.TRACE_ROUNDS[args.workload]
        untraced = sum(run.one_pass(wl.ops(r)) for r in range(rounds))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced_stages = {}
            traced = 0.0
            for r in range(rounds):
                traced += run.one_pass(wl.ops(r))
                for k, v in run.stage_times.items():
                    traced_stages[k] = traced_stages.get(k, 0.0) + v
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(traced_stages, traced, untraced,
                                       svd8_floor_per_s(args.seed))
        spans = tracer.span_table()

    known = known_failures_in_child(args.workload, args.seed) if wl.known_failures() else []
    records[tree] = run.record.data
    record_path.write_text(json.dumps(records, indent=1, sort_keys=True))
    correct = not broken and not run.problems
    meta = metadata(args, run, args.workload)

    # human-readable summary
    print("perfbench %s seed=%d trace=%d: %d ops in %d passes, %d failed"
          % (args.workload, args.seed, args.trace, run.attempted,
             len(run.pass_seconds), run.failed))
    for name, (value, unit) in metrics.items():
        print("  %-36s %14.6g %s" % (name, value, unit))
    if args.trace == 0:
        print("  ungated: op_ms_p50 %.6g ms, op_ms_p90 %.6g ms over %d ops"
              % (latency["op_ms_p50"], latency["op_ms_p90"], len(ms)))
        print("  ungated wall times: pass %.6g s, setup %.6g s; host speed %.4g"
              " (%d kernel samples, median %.4g ms, reference %.4g ms)"
              % (statistics.mean(run.pass_seconds), statistics.median(wall_setups), speed,
                 len(clock.samples), 1e3 * clock.median_s(), 1e3 * hostspeed.REF_KERNEL_S))
        named = dict(latency, pass_s=metrics["pass_s"][0])
        for alias, (name, unit) in ALIASES[args.workload].items():
            print("  %-36s %14.6g %s  (= %s)" % (alias, named[name], unit, name))
    print("  %-36s %14.6g    (%d of %d ops)" % ("failed_frac", run.failed / run.attempted,
                                                run.failed, run.attempted))
    if args.trace and tracer.absent:
        print("  absent (reported as 0):", ", ".join(tracer.absent))
    for label, problem in run.problems:
        print("  FAILED %s: %s" % (label, problem))
    for line in broken:
        print("  SELF-TEST BROKEN %s" % line)
    for k in known:
        print("  known failure %s: %s" % (k["op"], k["outcome"]))
    print("  meta: nproc=%s python=%s numpy=%s %s env=%s src_loc=%d"
          % (meta["nproc"], meta["python"], meta["numpy"], meta["blas_lapack"],
             meta["env"], sum(meta["src_loc"].values())))

    stem = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    write_json(stem + ".json", {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "problems": run.problems, "selftests_broken": broken, "known_failures": known,
        "pass_seconds": run.pass_seconds, "op_seconds": run.op_seconds,
        "setup_seconds": setups, "wall_setup_seconds": wall_setups,
        "host_kernel_seconds": clock.samples, "meta": meta,
        "latency_ms": latency if args.trace == 0 else None,
        "absent": tracer.absent if args.trace else [],
    })
    if spans is not None:
        write_json(stem + "-spans.json", spans)

    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
