"""Command line surface.

Vertices on the command line are binary strings of length n (decimal is
rejected so nobody trips over the bit order).  Exit status: 0 on success,
1 on a failed verification, a disproved claim, or a family the
constructor could not build, 2 for usage and resource-guard errors.
"""

from __future__ import annotations

import argparse
import sys

from . import oracle, report, textio
from .construct import ConstructionError, construct, target_count
from .cube import AugmentedCube, ResourceGuard, guard_size
from .packing import DEFAULT_BUDGET, SearchBudgetExceeded
from .verify import check_family


def _parse_triple(raw: str, bits: int) -> tuple[int, int, int]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError("triple must be three comma-separated vertices")
    trip = tuple(textio.parse_vertex(p.strip(), bits) for p in parts)
    if len(set(trip)) != 3:
        raise ValueError("triple vertices must be distinct")
    return trip


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


# -- command implementations ----------------------------------------------


def cmd_gen(args) -> int:
    cube = AugmentedCube(args.n)
    # the text is built whole before it is written, and its one reader,
    # ``oracle --graph``, takes no larger graph
    guard_size(cube, oracle.ORACLE_MAX_VERTICES, "gen")
    text = textio.render_graph(cube)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_neighbors(args) -> int:
    cube = AugmentedCube(args.n)
    v = textio.parse_vertex(args.v, args.n)
    for w in cube.neighbors(v):
        print(f"{textio.format_vertex(w, args.n)} {cube.mask_label(v, w)}")
    return 0


def cmd_construct(args) -> int:
    # construct verifies its family; one that fails raises ConstructionError
    trip = _parse_triple(args.triple, args.n)
    fam = construct(args.n, trip)
    sys.stdout.write(textio.render_family(
        trip, fam.paths, args.n, trace=fam.trace if args.trace else None))
    print(f"OK {len(fam.paths)}", file=sys.stderr)  # keep stdout pipeable
    return 0


def cmd_verify(args) -> int:
    cube = AugmentedCube(args.n)
    terminals, paths, bits = textio.parse_family(_read_text(args.family))
    if bits != args.n:
        print(f"VIOLATION WrongGraph: family uses {bits}-bit vertices, --n {args.n}")
        return 1
    bad = check_family(cube, terminals, paths)
    if bad is not None:
        print(f"VIOLATION {bad}")
        return 1
    print(f"OK {len(paths)}")
    return 0


def cmd_oracle(args) -> int:
    if args.graph is not None:
        view = textio.parse_graph(_read_text(args.graph))
        bits = view.bits
    else:
        view = AugmentedCube(args.n)
        bits = args.n
    trip = _parse_triple(args.triple, bits)
    value, _ = oracle.max_dpaths(view, trip, budget=args.budget)
    print(f"PID {value}")
    return 0


def cmd_pi3(args) -> int:
    cube = AugmentedCube(args.n)
    value, argmin = oracle.pi3_exact(cube, budget=args.budget)
    trip = ",".join(textio.format_vertex(v, args.n) for v in argmin)
    print(f"PI3 AQ{args.n} {value} {trip}")
    return 0


def cmd_bounds(args) -> int:
    print(f"BOUND {args.n} {oracle.cube_upper_bound(args.n)}")
    print(f"TARGET {args.n} {target_count(args.n)}")
    return 0


def cmd_witness(args) -> int:
    w = oracle.witness_triple(args.n)
    bits = args.n
    if args.printed_variant:
        x, y, _ = w.triple
        triple = (x, y, w.uncorrected_third)
        common = sorted(oracle.common_neighbors(AugmentedCube(args.n), triple))
    else:
        triple, common = w.triple, sorted(w.shared)
    print(f"WITNESS n={args.n} D="
          + ",".join(textio.format_vertex(v, bits) for v in triple))
    print("COMMON " + " ".join(textio.format_vertex(v, bits) for v in common))
    if args.printed_variant:
        print(f"DEVIATION the third vertex needs the complemented suffix; "
              f"this variant shares only {len(common)} neighbors, not 4")
        return 1
    for (u, v, label) in w.certificate:
        print(f"CERT {textio.format_vertex(u, bits)} "
              f"{textio.format_vertex(v, bits)} {label}")
    return 0


def cmd_report(args) -> int:
    results = report.run_all(emit=print)
    return 0 if all(r.passed for r in results) else 1


# -- argument plumbing ------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="aqpath",
        description="augmented-cube path systems: build, verify, measure")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="emit the graph text format")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("neighbors", help="list a vertex's neighbors with mask labels")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", required=True)
    p.set_defaults(fn=cmd_neighbors)

    p = sub.add_parser("construct", help="emit a maximum path family for a triple")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--triple", required=True, metavar="X,Y,Z")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(fn=cmd_construct)

    p = sub.add_parser("verify", help="referee a family file ('-' for stdin)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--family", required=True)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("oracle", help="exact maximum for one triple")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--graph", help="graph text file ('-' for stdin)")
    source.add_argument("--n", type=int)
    p.add_argument("--triple", required=True, metavar="X,Y,Z")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_oracle)

    p = sub.add_parser("pi3", help="minimum over triples, exact")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    p.set_defaults(fn=cmd_pi3)

    p = sub.add_parser("bounds", help="counting ceiling next to the built count")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("witness", help="extremal triple and its certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--printed-variant", action="store_true",
                   help="show the uncorrected variant (fails; exit 1)")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("report", help="run the acceptance sweep")
    p.set_defaults(fn=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ResourceGuard, SearchBudgetExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
