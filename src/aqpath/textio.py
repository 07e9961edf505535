"""Line-oriented text formats.

Graph format: a header ``AQ n=<n>`` (native cube) or ``G n=<bits>``
(arbitrary graph), then one line ``E <u> <v>`` per edge with vertices as
fixed-width binary strings, each edge once with u < v, sorted.

Family format: ``D <x> <y> <z>``, one ``P <v1> <v2> ...`` line per path,
and optional ``# trace:`` comment lines carrying the constructor's case
labels.  In both formats a line starting with ``#`` is a comment.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .cube import AdjListView, AugmentedCube


def format_vertex(v: int, bits: int) -> str:
    return format(v, f"0{bits}b")


def parse_vertex(token: str, bits: int) -> int:
    if len(token) != bits or any(ch not in "01" for ch in token):
        raise ValueError(
            f"vertex {token!r} must be a binary string of length {bits}")
    return int(token, 2)


def render_graph(view, bits: int | None = None) -> str:
    if bits is None:
        bits = view.bits
    kind = "AQ" if isinstance(view, AugmentedCube) else "G"
    n = view.n if kind == "AQ" else bits
    lines = [f"{kind} n={n}"]
    for u in sorted(view.vertices()):
        for w in view.neighbors(u):
            if u < w:
                lines.append(f"E {format_vertex(u, bits)} {format_vertex(w, bits)}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> AdjListView:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].split()[0] in ("AQ", "G"):
        raise ValueError("graph text must start with 'AQ n=<n>' or 'G n=<bits>'")
    head = lines[0].split()
    try:
        bits = int(head[1].removeprefix("n="))
    except (IndexError, ValueError) as exc:
        raise ValueError(f"bad graph header {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        if ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] != "E" or len(parts) != 3:
            raise ValueError(f"bad edge line {ln!r}")
        edges.append((parse_vertex(parts[1], bits), parse_vertex(parts[2], bits)))
    return AdjListView(edges, bits=bits)


def render_family(terminals: Sequence[int], paths: Iterable[Sequence[int]],
                  bits: int, trace=None) -> str:
    lines = []
    if trace:
        for e in trace:
            roles = ",".join(format_vertex(v, bits) for v in e.roles)
            lines.append(f"# trace: dim={e.dimension} case={e.case} "
                         f"xor={format_vertex(e.translation, bits)} roles={roles}")
    lines.append("D " + " ".join(format_vertex(v, bits) for v in terminals))
    for p in paths:
        lines.append("P " + " ".join(format_vertex(v, bits) for v in p))
    return "\n".join(lines) + "\n"


def parse_family(text: str) -> tuple[tuple[int, ...], list[tuple[int, ...]], int]:
    terminals = None
    paths: list[tuple[int, ...]] = []
    bits = None
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split()
        if parts[0] == "D":
            if terminals is not None:
                raise ValueError("family text has more than one D line")
            if len(parts) != 4 or len(set(parts[1:])) != 3:
                raise ValueError(f"D line needs three distinct terminals: {ln!r}")
            bits = len(parts[1])
            terminals = tuple(parse_vertex(t, bits) for t in parts[1:])
        elif parts[0] == "P":
            if bits is None:
                raise ValueError("family text must declare D before paths")
            paths.append(tuple(parse_vertex(t, bits) for t in parts[1:]))
        else:
            raise ValueError(f"bad family line {ln!r}")
    if terminals is None:
        raise ValueError("family text has no D line")
    return terminals, paths, bits
