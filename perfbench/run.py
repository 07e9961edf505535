"""Closed-loop benchmark of aqpath's public API.

One client in one process issues one operation at a time; the next
operation starts only after the previous call returned and its output was
checked.  The inputs come from ``--seed`` alone, and the library only ever
receives the generated triples.

    python3 perfbench/run.py --workload construct-cross --seed 11 --seconds 20 --trace 0

Workloads (why each was chosen is in NOTES.md):

    construct-cross  construct(10, D), D spans both halves (flow only)
    construct-same   construct(8, D), D inside one half (packing-bound)
    oracle-sweep     max_dpaths(AQ_4, D) over the 105 pinned triples of an
                     exhaustive pi3(AQ_4) sweep, in a seeded order

The amount of work is fixed by ``--seconds`` through a nominal rate per
workload, so one seed always runs the same operations and the latency
percentiles are taken over the same number of samples.  Times are reported
at reference speed (see ``SpeedGauge``); the wall-clock values are on the
``summary`` line.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs a fixed
prefix of the operations once untraced and once traced, prints the
per-layer metrics and writes the spans to ``.bench_out/``.  Before the
result, one ``summary`` line carries what the result line has no room for:
failure and fallback ratios, wall-clock times, the tail percentile with its
sample count, and the output digest.  The last line of stdout is the JSON
result.  The exit code is 0 whenever a result was printed; it is 2 when the
library cannot be found.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import importlib
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import deque

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

# set-up samples per run, each in a fresh interpreter; setup_s is their median
SETUP_REPEATS = 21
# an untraced run starts no new round after this multiple of --seconds, so a
# slow machine runs fewer operations instead of overrunning the schedule;
# every workload's nominal work, set-up included, takes at most about
# --seconds at reference speed, so a run stays whole on a machine up to
# 1.5x slower
OVERRUN = 1.5
# share of a run's rounds (rounded down) that a traced run repeats, once
# untraced and once traced, so it takes about as long as an untraced run
TRACE_SHARE = 0.45
# no run starts a new round after this long, so it always exits in time
WALL_LIMIT_S = 110.0

# one child interpreter per set-up sample: import aqpath, build the views,
# then (untimed, so its imports are not charged) read the speed gauge in the
# same process and print the raw and the reference-speed seconds
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import aqpath
views = [aqpath.AugmentedCube(int(sys.argv[2]))]
elapsed = time.perf_counter() - t0
if not aqpath.__file__.startswith(sys.argv[1]):
    sys.exit(3)
sys.path.insert(0, sys.argv[3])
from run import SpeedGauge
gauge = SpeedGauge()
print(repr(elapsed), repr(elapsed * gauge.REF_S / gauge.kernel_s[0]))
"""


class SpeedGauge:
    """How fast the machine runs right now, from a kernel the benchmark owns.

    On the shared reference box the same Python code runs up to 1.8x slower
    or faster from one second to the next (other tenants; steal time stays
    under 1%, and process CPU time swings with wall time).  The gauge times
    a small dict-and-deque breadth-first search, shaped like the library's
    flow code but sharing none of it, before every operation and after the
    last.  A time measured between two readings is reported at reference
    speed: multiplied by ``REF_S`` over the mean of the two kernel times.
    A set-up sample is scaled by one reading taken in its own interpreter
    right after the timed set-up.
    No change to aqpath can move the kernel, so a slower library still
    reads slower.
    """

    REF_S = 1.5e-3  # the kernel's median time on the reference box

    def __init__(self):
        rng = random.Random(0)
        self.graph = {u: {v: 1 for v in rng.sample(range(400), 6)}
                      for u in range(400)}
        self.times: list[float] = []
        self.kernel_s: list[float] = []
        self.read()

    def _kernel(self) -> int:
        graph, reached = self.graph, 0
        for source in range(3):
            parent = {source: source}
            queue = deque([source])
            while queue:
                u = queue.popleft()
                for v in sorted(graph[u]):
                    if v not in parent and graph[u][v] > 0:
                        parent[v] = u
                        queue.append(v)
            reached += len(parent)
        return reached

    def read(self) -> None:
        """Median of three kernel timings, with the collector held off so
        the library's garbage is not charged to the kernel."""
        runs = []
        gc.disable()
        try:
            for _ in range(3):
                t0 = time.perf_counter()
                self._kernel()
                runs.append(time.perf_counter() - t0)
        finally:
            gc.enable()
        self.times.append(time.perf_counter())
        self.kernel_s.append(statistics.median(runs))

    def scale(self, start: float, end: float) -> float:
        """Factor to reference speed for an interval: the readings just
        before ``start`` and just after ``end``."""
        before = max(0, bisect.bisect_right(self.times, start) - 1)
        after = min(len(self.times) - 1, bisect.bisect_left(self.times, end))
        return 2 * self.REF_S / (self.kernel_s[before] + self.kernel_s[after])


class Workload:
    """A seeded stream of operations on one library entry point.

    ``rate`` is the nominal operations per second on a 2-core x86 box; it
    only sizes the run.  ``round_size`` is the number of operations that
    must run together (a whole sweep for the oracle).
    """

    def __init__(self, name, n, rate, round_size=1):
        self.name = name
        self.n = n
        self.rate = rate
        self.round_size = round_size

    min_rounds = 1

    def rounds(self, seconds: float, traced: bool) -> int:
        rounds = seconds * self.rate / self.round_size
        if traced:
            return max(1, int(rounds * TRACE_SHARE))
        return max(self.min_rounds, round(rounds))

    def samples(self, ops, latencies: list[float]) -> list[float]:
        """One latency sample per operation."""
        return latencies


class ConstructWorkload(Workload):
    def __init__(self, name, n, rate, same_half):
        super().__init__(name, n, rate)
        self.same_half = same_half

    def inputs(self, seed: int):
        """Endless seeded triples; the half of a vertex is its leading bit."""
        rng = random.Random(f"{self.name}/{seed}")
        top = self.n - 1
        while True:
            trip = tuple(rng.sample(range(1 << self.n), 3))
            if (len({v >> top for v in trip}) == 1) == self.same_half:
                yield trip

    def run(self, mods, view, trip):
        return mods["construct"].construct(self.n, trip)

    def check(self, mods, view, trip, fam):
        """Referee verdict on a fresh cube, the count, and the digest item."""
        want = mods["construct"].target_count(self.n)
        bad = mods["verify"].check_family(view, trip, fam.paths)
        ok = (bad is None and len(fam.paths) == want
              and tuple(fam.terminals) == trip)
        return ok, bool(fam.fallback_used), (trip, [tuple(p) for p in fam.paths])


class OracleSweep(Workload):
    """The pinned triples (0, b, c) of pi3_exact(AQ_4, "exhaustive").

    A run makes at least three sweeps, and a triple's latency sample is the
    median over them.  A few triples take seconds each, long enough for the
    machine's speed to change while one runs; the median of three runs set
    a sweep apart keeps one badly scaled run out of the sample.
    """

    PI3 = 4  # known pi3(AQ_4): every sweep's minimum must equal it
    min_rounds = 3

    def __init__(self, name, rate):
        super().__init__(name, 4, rate, round_size=105)
        self.triples = [(0, b, c) for b, c in
                        itertools.combinations(range(1, 1 << self.n), 2)]
        assert len(self.triples) == self.round_size

    def inputs(self, seed: int):
        rng = random.Random(f"{self.name}/{seed}")
        order = list(self.triples)
        while True:
            rng.shuffle(order)
            yield from order

    def run(self, mods, view, trip):
        return mods["oracle"].max_dpaths(view, trip)

    def samples(self, ops, latencies):
        runs: dict[tuple, list[float]] = {}
        for trip, seconds in zip(ops, latencies):
            runs.setdefault(trip, []).append(seconds)
        return [statistics.median(xs) for xs in runs.values()]

    def check(self, mods, view, trip, res):
        value, witness = res
        bad = mods["verify"].check_family(view, trip, witness)
        ok = bad is None and len(witness) == value and value >= self.PI3
        return ok, False, (trip, value, [tuple(p) for p in witness])


WORKLOADS = {
    w.name: w for w in (
        ConstructWorkload("construct-cross", 10, rate=7.0, same_half=False),
        ConstructWorkload("construct-same", 8, rate=1.5, same_half=True),
        OracleSweep("oracle-sweep", rate=10.0),
    )
}


def measure_setup(n: int) -> list[tuple[float, float]]:
    """(seconds, reference-speed seconds) of set-up in fresh interpreters;
    the first, which may compile bytecode, is discarded."""
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-I", "-c", SETUP_PROBE, SRC, str(n), HERE],
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        raw, scaled = proc.stdout.split()
        samples.append((float(raw), float(scaled)))
    return samples[1:]


def import_library():
    if not os.path.isfile(os.path.join(SRC, "aqpath", "__init__.py")):
        raise ImportError(f"no aqpath package under {SRC}")
    sys.path.insert(0, SRC)
    import aqpath
    if not os.path.abspath(aqpath.__file__).startswith(SRC + os.sep):
        raise ImportError(f"aqpath imported from {aqpath.__file__}, not {SRC}")
    return {name: importlib.import_module(f"aqpath.{name}")
            for name in ("construct", "oracle", "verify", "cube")}


class Pass:
    """Outcome of running a list of operations."""

    def __init__(self):
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # latencies at reference speed
        self.failed = 0
        self.fallbacks = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.sweep_values: list[int] = []
        self.sweep_minima: list[int] = []
        self.truncated = False


def run_ops(workload, mods, lib_view, check_view, ops, gauge, tracer=None,
            deadline=None) -> Pass:
    """Run whole rounds of ``ops`` until done or past ``deadline``."""
    out = Pass()
    clock = time.perf_counter
    intervals = []
    for i, trip in enumerate(ops):
        if deadline is not None and i % workload.round_size == 0 and clock() > deadline:
            out.truncated = True
            break
        gauge.read()
        if tracer is not None:
            tracer.op = i
        t0 = clock()
        try:
            res = workload.run(mods, lib_view, trip)
        except Exception as exc:  # any raise is a failed operation
            intervals.append((t0, clock()))
            out.failed += 1
            out.errors.append(f"{trip}: {type(exc).__name__}: {exc}")
            out.digest.update(repr((trip, type(exc).__name__)).encode())
            continue
        intervals.append((t0, clock()))
        try:
            ok, fallback, item = workload.check(mods, check_view, trip, res)
        except Exception as exc:
            ok, fallback, item = False, False, (trip, repr(exc))
        out.digest.update(repr(item).encode())
        out.fallbacks += fallback
        if not ok:
            out.failed += 1
            out.errors.append(f"{trip}: output rejected")
        if isinstance(workload, OracleSweep):
            out.sweep_values.append(res[0] if ok else -1)
            if len(out.sweep_values) == workload.round_size:
                out.sweep_minima.append(min(out.sweep_values))
                out.sweep_values = []
    gauge.read()
    out.latencies = [end - start for start, end in intervals]
    out.scaled = [(end - start) * gauge.scale(start, end) for start, end in intervals]
    return out


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples above it:
    (value, percentile, samples above)."""
    xs = sorted(latencies)
    k = max(0, len(xs) - 11)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs) - 1 - k


def sweeps_ok(workload, result: Pass) -> bool:
    if not isinstance(workload, OracleSweep):
        return True
    return bool(result.sweep_minima) and all(m == workload.PI3 for m in result.sweep_minima)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    started = time.perf_counter()
    deadline = started + WALL_LIMIT_S
    soft_deadline = started + min(OVERRUN * args.seconds, WALL_LIMIT_S)

    try:
        mods = import_library()
        gauge = SpeedGauge()
        setup = measure_setup(workload.n)
    except (ImportError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    AugmentedCube = mods["cube"].AugmentedCube
    lib_view = AugmentedCube(workload.n)    # what the oracle is handed
    check_view = AugmentedCube(workload.n)  # the referee's own, never shared

    traced = bool(args.trace)
    rounds = workload.rounds(args.seconds, traced)
    ops = list(itertools.islice(workload.inputs(args.seed),
                                rounds * workload.round_size))
    summary = {"workload": workload.name, "n": workload.n, "seed": args.seed}

    if not traced:
        result = run_ops(workload, mods, lib_view, check_view, ops, gauge,
                         deadline=soft_deadline)
        attempted = len(result.latencies)
        timed = {}
        for label, lats, setup_s in (("reference", result.scaled, [s for _, s in setup]),
                                     ("wall", result.latencies, [s for s, _ in setup])):
            lats = workload.samples(ops, lats)
            tail_s, tail_pct, above = tail(lats)
            timed[label] = {
                "ops_per_s": len(lats) / sum(lats),
                "latency_p50_ms": 1e3 * statistics.median(lats),
                "latency_tail_ms": 1e3 * tail_s,
                "setup_s": statistics.median(setup_s),
            }
        metrics = {
            "ops_per_s": (timed["reference"]["ops_per_s"], "1/s"),
            "latency_p50_ms": (timed["reference"]["latency_p50_ms"], "ms"),
            "latency_tail_ms": (timed["reference"]["latency_tail_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "setup_s": (timed["reference"]["setup_s"], "s"),
        }
        summary.update(wall=timed["wall"], samples=len(lats),
                       tail_percentile=round(tail_pct, 2),
                       tail_samples_above=above,
                       kernel_ms_median=1e3 * statistics.median(gauge.kernel_s))
    else:
        from tracer import LAYER_METRICS, Tracer

        plain = run_ops(workload, mods, lib_view, check_view, ops, gauge,
                        deadline=deadline)
        tracer = Tracer()
        tracer.install()
        try:
            result = run_ops(workload, mods, lib_view, check_view, ops, gauge,
                             tracer=tracer, deadline=deadline)
        finally:
            tracer.uninstall()
        attempted = len(result.latencies)
        layer = tracer.metrics()
        layer["trace.overhead_ratio"] = sum(result.scaled) / sum(plain.scaled)
        units = dict(LAYER_METRICS, **{"trace.overhead_ratio": "ratio"})
        metrics = {k: (layer[k], units[k]) for k in units}
        summary.update(boundaries=tracer.boundary_report(),
                       untraced_digest=plain.digest.hexdigest())
        if plain.truncated or result.truncated:
            result.errors.append(f"stopped at the {WALL_LIMIT_S:.0f} s wall limit")
        elif plain.digest.hexdigest() != result.digest.hexdigest():
            result.errors.append("traced and untraced outputs differ")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_file = os.path.join(OUT_DIR, f"spans-{workload.name}-s{args.seed}.jsonl")
        tracer.write_spans(spans_file)
        summary["spans_file"] = os.path.relpath(spans_file, ROOT)

    if result.fallbacks:
        result.errors.append(f"{result.fallbacks} families used the generic fallback")
    correct = (result.failed == 0 and sweeps_ok(workload, result)
               and not result.errors)
    summary.update(
        attempted=attempted, failed=result.failed,
        fail_ratio=result.failed / attempted,
        fallback_ratio=result.fallbacks / attempted,
        sweep_minima=result.sweep_minima or None,
        truncated=result.truncated,
        digest=result.digest.hexdigest(),
        wall_s=round(time.perf_counter() - started, 3),
        errors=result.errors[:5],
    )
    print("summary " + json.dumps(summary, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": result.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
