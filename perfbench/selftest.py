"""Self-test of the tracer on tiny inputs: every boundary must fire.

    python3 perfbench/selftest.py

Runs a handful of n = 4..6 calls that together reach every layer boundary
the traced benchmark wraps, prints the calls per boundary, and exits 1 if
any boundary is absent or never fired.  It also installs a tracer with one
boundary that does not exist, to show a removed boundary is reported as
absent instead of crashing the run.
"""

from __future__ import annotations

import importlib
import sys

import run
from tracer import FUNCTION_BOUNDARIES, Tracer

# (what it reaches, entry point, arguments)
CALLS = (
    ("flow: bundle + fan (E3)", "construct", (6, (0b000001, 0b001010, 0b111100))),
    ("packing + recursion (E1.2)", "construct", (6, (1, 2, 4))),
    ("linkage + recursion (O1)", "construct", (5, (1, 2, 4))),
    ("oracle profiles", "max_dpaths", (4, (0, 1, 2))),
)


def main() -> int:
    try:
        mods = run.import_library()
    except ImportError as exc:
        print(f"selftest: {exc}", file=sys.stderr)
        return 2
    cube = mods["cube"].AugmentedCube

    tracer = Tracer()
    tracer.install()
    try:
        for op, (what, entry, (n, trip)) in enumerate(CALLS):
            tracer.op = op
            if entry == "construct":
                importlib.import_module("aqpath.construct").construct(n, trip)
            else:
                importlib.import_module("aqpath.oracle").max_dpaths(cube(n), trip)
    finally:
        tracer.uninstall()
    report = tracer.boundary_report()
    metrics = tracer.metrics()
    ok = True
    for name, calls in sorted(report.items()):
        fired = isinstance(calls, int) and calls > 0
        ok &= fired
        print(f"  {'ok  ' if fired else 'FAIL'} {name}: {calls}")
    for name in ("construct.calls", "packing.calls", "flow.calls",
                 "oracle.profiles_tried", "cube.views_built", "verify.calls"):
        print(f"       {name} = {metrics[name]}")
    if metrics["construct.calls"] <= len(CALLS) - 1:
        print("  FAIL recursion into construct was not traced")
        ok = False

    ghost = Tracer(FUNCTION_BOUNDARIES + (("flow", "aqpath.flow", "no_such_engine"),))
    ghost.install()
    ghost.uninstall()
    reported = ghost.boundary_report().get("aqpath.flow.no_such_engine")
    print(f"  {'ok  ' if reported == 'absent' else 'FAIL'} "
          f"missing boundary reported as {reported!r}")
    ok &= reported == "absent"

    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
