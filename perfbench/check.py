"""Steadiness and determinism checks for the benchmark, with its baseline.

    python3 perfbench/check.py spread [--seed0 101] [--record]
    python3 perfbench/check.py determinism [--record]

``spread`` runs each workload untraced once on each of ten seeds and
prints, for every end-to-end metric, the median, the quartiles and their
distance as a share of the median, against the metric's bound in
BENCHMARK.json.  A spread must stay below a third of the bound (for
``setup_s``, below the bound itself, for the reason given above
``spread``), and no run may be truncated (stopped early on a slow machine,
so that it ran fewer operations than its seed names).  When
``baseline.json`` holds medians, each new median is also compared with the
recorded one.  ``--record`` stores the new medians there.

``determinism`` makes two traced runs per workload on the primary and the
confirmation seed of ``baseline.json`` and requires the same output digest
and the same counts from both.  It then compares them with the recorded
ones: a difference there means the emitted paths or the work done changed,
which a refactor has to state.  ``--record`` stores them.

Both exit 1 on a failed check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
RUNS = 10  # seeds per workload in a spread set


def load(path):
    with open(path) as fh:
        return json.load(fh)


def bench_run(workload: str, seed: int, seconds: int, trace: int):
    """(result, summary) of one benchmark run."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd[1:])} failed:\n{proc.stderr[-2000:]}")
    summary = next((json.loads(line[len("summary "):]) for line in lines
                    if line.startswith("summary ")), {})
    return json.loads(lines[-1]), summary


# setup_s is ~20 ms of imports in a fresh interpreter; the median of 21
# samples per run still spreads 9-13% over ten seeds on the reference box,
# with or without scaling to reference speed, so it is held to its bound
# and not to a third of it (the benchmark contract exempts setup_s from the
# spread gate altogether and checks only its median)
def spread(bench, baseline, args) -> bool:
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(args.seed0, args.seed0 + RUNS))
    ok = True
    truncated = {name: 0 for name in workloads}
    longest = {name: 0.0 for name in workloads}
    recorded = baseline.setdefault("end_to_end", {})
    values: dict[str, dict[str, list[float]]] = {name: {} for name in workloads}
    # workloads take turns, so a slow stretch of the machine hits all alike
    for seed in seeds:
        for name in workloads:
            result, summary = bench_run(name, seed, bench["run_seconds"], 0)
            if not result["correct"] or result["failed"]:
                print(f"{name} seed {seed}: incorrect result {result}")
                ok = False
            longest[name] = max(longest[name], summary.get("wall_s", 0.0))
            if summary.get("truncated", True):
                print(f"{name} seed {seed}: run truncated")
                truncated[name] += 1
                ok = False
            for metric, m in result["metrics"].items():
                values[name].setdefault(metric, []).append(m["value"])
    for name in workloads:
        print(f"{name}  ({len(seeds)} runs, seeds {seeds[0]}..{seeds[-1]}, "
              f"{truncated[name]} truncated, longest {longest[name]:.1f} s)")
        stats = {}
        for spec in bench["end_to_end"]:
            metric, bound = spec["name"], spec["bound"]
            xs = values[name][metric]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            rel = (q3 - q1) / med
            steady = rel < (bound if metric == "setup_s" else bound / 3)
            line = (f"  {metric:16s} median {med:12.5f} {spec['unit']:4s} "
                    f"q1 {q1:12.5f} q3 {q3:12.5f} spread {rel:6.3f} "
                    f"bound {bound:4.2f} {'ok' if steady else 'WIDE'}")
            old = recorded.get(name, {}).get(metric)
            if old is not None and not args.record:
                change = (med - old["median"]) / old["median"]
                worse = change if spec["better"] == "lower" else -change
                held = worse <= bound
                line += f"  vs baseline {change:+.3f} {'ok' if held else 'WORSE'}"
                ok &= held
            print(line)
            ok &= steady
            stats[metric] = {"median": med, "q1": q1, "q3": q3, "spread": rel,
                             "unit": spec["unit"], "runs": len(xs)}
        if args.record:
            recorded[name] = stats
    if args.record:
        baseline["end_to_end_seeds"] = seeds
        baseline["end_to_end_truncated_runs"] = truncated
        baseline["machine"] = (f"{platform.machine()}, {os.cpu_count()} cores, "
                               f"Python {platform.python_version()}")
    return ok


def determinism(bench, baseline, args) -> bool:
    ok = True
    seeds = [baseline["seeds"]["primary"], baseline["seeds"]["confirm"]]
    recorded = baseline.setdefault("determinism", {})
    for spec in bench["workloads"]:
        name = spec["name"]
        for seed in seeds:
            runs = [bench_run(name, seed, bench["run_seconds"], 1) for _ in range(2)]
            got = []
            for result, summary in runs:
                counts = {k: m["value"] for k, m in result["metrics"].items()
                          if m["unit"] == "count"}
                got.append({"digest": summary.get("digest"),
                            "attempted": result["attempted"], "counts": counts,
                            "correct": result["correct"]})
            same = got[0] == got[1] and got[0]["correct"]
            old = recorded.get(name, {}).get(str(seed))
            if args.record:
                recorded.setdefault(name, {})[str(seed)] = got[0]
                vs = "recorded"
            elif old is None:
                vs = "no baseline"
            else:
                diff = sorted(k for k in got[0]["counts"]
                              if got[0]["counts"][k] != old["counts"].get(k))
                if got[0]["digest"] != old["digest"]:
                    diff.insert(0, "digest")
                vs = "baseline same" if not diff else "baseline differs: " + ", ".join(diff)
            print(f"{name:16s} seed {seed:4d}  digest {got[0]['digest'][:16]}  "
                  f"{'repeatable' if same else 'NOT REPEATABLE'}  {vs}")
            ok &= same
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("--seed0", type=int, default=101)
    sp.add_argument("--record", action="store_true")
    dp = sub.add_parser("determinism")
    dp.add_argument("--record", action="store_true")
    args = ap.parse_args()
    bench = load(os.path.join(ROOT, "BENCHMARK.json"))
    baseline = load(BASELINE) if os.path.exists(BASELINE) else {}
    baseline.setdefault("seeds", {"primary": 11, "confirm": 29})
    ok = (spread if args.cmd == "spread" else determinism)(bench, baseline, args)
    if args.record:
        with open(BASELINE, "w") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print("check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
