"""The benchmark's workloads: inputs made from a seed, the operations
that run on them, and the check each operation's output must pass.

An operation (op) is one unit of user work: one construction, one
smoothness set of the exact pipeline, or one Khintchine sample.  A pass
is one round over a workload's ops.
"""

import math
from dataclasses import dataclass

import numpy as np

import checks
import paleykit
from paleykit import orchestrator


def smoothness(maximal):
    return paleykit.Smoothness.from_indices(paleykit.saturate(maximal))


@dataclass
class Construction:
    """run_construction on one set, plus the report's JSON form."""

    label: str
    smoothness: object
    config: object
    expected: str  # "witness" or "no_witness"

    def run(self):
        # looked up at call time, so a traced run sees the wrappers
        report = paleykit.run_construction(self.smoothness, self.config)
        return report, orchestrator.report_to_json(report)

    def check(self, value, error):
        report = value[0] if value is not None else None
        problems = checks.check_verdict(self.expected, report, error)
        if report is not None and not problems:
            problems += checks.check_paley(report)
        return problems

    def fingerprint(self, value):
        return checks.paley_fingerprint(value[0]) if value is not None else None

    def stage_times(self, value, error, seconds):
        """report.timings; an op stopped by a StageFailure has no report,
        so its whole time goes to the stage that raised."""
        if value is not None:
            return dict(value[0].timings)
        if isinstance(error, paleykit.StageFailure):
            return {error.stage: seconds}
        return {}


@dataclass
class KhintchineSample:
    label: str
    mats: list
    freqs: list

    def run(self):
        return paleykit.khintchine_ratio(paleykit.MatrixSequence(self.mats), self.freqs)

    def check(self, value, error):
        if error is not None:
            return ["raised %s: %s" % (type(error).__name__, error)]
        return checks.check_khintchine(self.mats, self.freqs, value)

    def fingerprint(self, value):
        return None

    def stage_times(self, value, error, seconds):
        return {}


class ConstructRef:
    """The headline user run: the default config on S_ref, including the
    Paley probe over m in {1, 2, 4, 8} x 100 samples on a 51 x 51 grid."""

    name = "construct_ref"

    def __init__(self, seed):
        self.op = Construction("S_ref", smoothness({(2, 0), (0, 1)}),
                               paleykit.OrchestratorConfig(seed=seed), "witness")

    def ops(self, round_index):
        return [self.op]

    def known_failures(self):
        return []


# (maximal elements, verdict) of the exact scan.  The d = 3 witness sets
# and {(2,0),(0,3)} are left out: their sequence stage takes 19-164 s.
SCAN_SETS = [
    ([(1, 1)], "no_witness"),
    ([(1, 1, 1)], "no_witness"),
    ([(2, 1, 1)], "no_witness"),
    ([(1, 1, 1, 1)], "no_witness"),
    ([(2, 0), (0, 1)], "witness"),
    ([(3, 0), (2, 1), (0, 2)], "witness"),
    ([(2, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)], "witness"),
]

# Raises OverflowError in check_conditions on the retry path.  It runs
# once per run, untimed and outside attempted/failed, so the failure
# stays visible without making every exact_scan run a failing one.
KNOWN_FAILURES = [([(4, 0), (0, 1)], "witness")]


def _label(maximal):
    return "{%s}" % ",".join("(%s)" % ",".join(map(str, g)) for g in maximal)


class ExactScan:
    """The exact pipeline (no Paley probe) over witness and no-witness
    sets in d = 2..4: pair scans, LPs and condition-(iv) balls."""

    name = "exact_scan"

    def __init__(self, seed):
        config = paleykit.OrchestratorConfig(seed=seed, matrix_dims=())
        self.scan = [Construction(_label(s), smoothness(s), config, v) for s, v in SCAN_SETS]
        self.known = [Construction(_label(s), smoothness(s), config, v)
                      for s, v in KNOWN_FAILURES]

    def ops(self, round_index):
        return self.scan

    def known_failures(self):
        return self.known


# every (m, L) with m <= 4 and L <= 8, once per round
KHINTCHINE_CELLS = [(m, length) for m in range(1, 5) for length in range(1, 9)]


class Khintchine:
    """Khintchine ratios of lacunary matrix series, the only workload
    that reaches crnorm.  Sample i has Gaussian entries from rng
    [seed, i] and frequencies 3^k, as khintchine_envelope draws them,
    but its (m, L) is the (i mod 32)-th cell instead of a random draw:
    each round of 32 samples has the same mix, because cost grows
    tenfold from m = 1 to m = 4, and resampling 100 drawn samples from
    400 measured latencies moved their median by 25-50%."""

    name = "khintchine"

    def __init__(self, seed):
        self.seed = seed
        self.rounds = {0: self._round(0)}

    def _round(self, r):
        out = []
        for c, (m, length) in enumerate(KHINTCHINE_CELLS):
            i = r * len(KHINTCHINE_CELLS) + c
            rng = np.random.default_rng([self.seed, i])
            mats = [(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
                    / math.sqrt(2) for _ in range(length)]
            out.append(KhintchineSample("sample %d (m=%d, L=%d)" % (i, m, length),
                                        mats, [3**k for k in range(length)]))
        return out

    def ops(self, round_index):
        if round_index not in self.rounds:
            self.rounds[round_index] = self._round(round_index)
        return self.rounds[round_index]

    def known_failures(self):
        return []


WORKLOADS = {w.name: w for w in (ConstructRef, ExactScan, Khintchine)}

# passes per half of a traced run (untraced, then traced)
TRACE_ROUNDS = {"construct_ref": 1, "exact_scan": 1, "khintchine": 3}
