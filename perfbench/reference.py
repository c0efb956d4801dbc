"""Expected answers for finite queries, computed from the definitions.

A finite space is a point tuple plus one least-vicinity mask per point,
as in the model files.  Everything here is written from the definitions
in the model-format and CLI documentation, without importing ``pretop``:

* adh A: the points whose least vicinity meets A; inh A: the points
  whose least vicinity lies inside A;
* a map is continuous when it sends every least vicinity into the least
  vicinity of the image point;
* the partial regularization replaces each kernel by its adherence; the
  strict extension over a dense base has kernels {p} + trace(p), the
  simple one has kernels o(trace(p)); the theta quotient has kernels
  {y' : fiber(y') inside K} for K the union of the fiber's kernels.

Where a check reports a witness, the witness is the first hit of the
scan order the program documents: ascending masks, then points in
declaration order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True)
class Space:
    points: tuple
    vic: tuple

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def full(self) -> int:
        return (1 << self.n) - 1

    def mask(self, names) -> int:
        return sum(1 << self.points.index(p) for p in names)

    def names(self, m: int) -> tuple:
        return tuple(p for i, p in enumerate(self.points) if m >> i & 1)

    def braces(self, m: int) -> str:
        return "{" + " ".join(self.names(m)) + "}"

    def adh(self, a: int) -> int:
        return sum(1 << i for i, v in enumerate(self.vic) if v & a)

    def inh(self, a: int) -> int:
        return sum(1 << i for i, v in enumerate(self.vic) if v & ~a == 0)


def from_opens(points, opens) -> Space:
    """Vicinity form of a topology: each point's least open set."""
    sp = Space(tuple(points), ())
    masks = [sp.mask(o) for o in opens]
    vic = []
    for i in range(len(points)):
        least = sp.full
        for m in masks:
            if m >> i & 1:
                least &= m
        vic.append(least)
    return Space(tuple(points), tuple(vic))


@dataclass(frozen=True)
class Map:
    source: Space
    target: Space
    graph: tuple  # target index per source index

    def image(self, a: int) -> int:
        out = 0
        for i, j in enumerate(self.graph):
            if a >> i & 1:
                out |= 1 << j
        return out

    def pre(self, b: int) -> int:
        return sum(1 << i for i, j in enumerate(self.graph) if b >> j & 1)


# -- answers as the CLI prints them ------------------------------------------


def verdict(witness) -> tuple:
    """(exit code, stdout) of a check: true, or false with its witness."""
    if witness is None:
        return 0, "true\n"
    return 1, "false\nwitness: " + json.dumps(_jsonable(witness)) + "\n"


def _jsonable(w):
    if isinstance(w, tuple):
        return [_jsonable(v) for v in w]
    return w


def block(name: str, sp: Space) -> str:
    """A space declaration in the canonical printed form."""
    lines = [f"space {name} {{", f"  points: {' '.join(sp.points)};"]
    for i, p in enumerate(sp.points):
        lines.append(f"  vicinity {p}: {sp.braces(sp.vic[i])};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- spaces ------------------------------------------------------------------


def hausdorff_witness(sp: Space):
    for i in range(sp.n):
        for j in range(i + 1, sp.n):
            if sp.vic[i] & sp.vic[j]:
                return (sp.points[i], sp.points[j])
    return None


def topological_witness(sp: Space):
    for a in range(sp.full + 1):
        c = sp.adh(a)
        if sp.adh(c) != c:
            return sp.names(a)
    return None


def regularized(sp: Space) -> Space:
    return Space(sp.points, tuple(sp.adh(v) for v in sp.vic))


def cl_theta(sp: Space, a: int, iterations: int) -> int:
    r = regularized(sp)
    for _ in range(iterations):
        a = r.adh(a)
    return a


def is_dense(sp: Space, base: int) -> bool:
    return base != 0 and sp.adh(base) == sp.full


def strict_extension(sp: Space, base: int) -> Space:
    return Space(sp.points, tuple((1 << i) | (v & base) for i, v in enumerate(sp.vic)))


def simple_extension(sp: Space, base: int) -> Space:
    traces = [v & base for v in sp.vic]
    kernels = []
    for t in traces:
        kernels.append(sum(1 << j for j, tj in enumerate(traces) if tj & ~t == 0))
    return Space(sp.points, tuple(kernels))


def theta_quotient(f: Map) -> Space:
    """Quotient onto the images, named in order of first appearance."""
    src = f.source
    order = list(dict.fromkeys(f.graph))
    fibers = [sum(1 << i for i, j in enumerate(f.graph) if j == t) for t in order]
    kernels = []
    for fib in fibers:
        k = 0
        for i in range(src.n):
            if fib >> i & 1:
                k |= src.vic[i]
        kernels.append(sum(1 << q for q, other in enumerate(fibers) if other & ~k == 0))
    return Space(tuple(f.target.points[t] for t in order), tuple(kernels))


# -- maps ----------------------------------------------------------------------


CONTINUITY_METHODS = ("limit", "adh-filter", "adh-set", "inh", "vicinity")
PERFECT_METHODS = ("definition", "adh-inequality", "a-and-b")


def continuity_witness(f: Map, method: str):
    src, tgt = f.source, f.target
    if method == "vicinity":
        for i in range(src.n):
            least = tgt.vic[f.graph[i]]
            if f.image(src.vic[i]) & ~least:
                return (src.points[i], tgt.names(least))
        return None
    if method == "limit":
        for k in range(1, src.full + 1):
            for i in range(src.n):
                if k & ~src.vic[i] == 0 and f.image(k) & ~tgt.vic[f.graph[i]]:
                    return (src.names(k), src.points[i])
        return None
    if method in ("adh-filter", "adh-set"):
        first = 1 if method == "adh-filter" else 0
        for a in range(first, src.full + 1):
            bad = f.image(src.adh(a)) & ~tgt.adh(f.image(a))
            if bad:
                return (src.names(a), tgt.names(bad)[0])
        return None
    if method == "inh":
        for b in range(tgt.full + 1):
            bad = f.pre(tgt.inh(b)) & ~src.inh(f.pre(b))
            if bad:
                return (tgt.names(b), src.names(bad)[0])
        return None
    raise ValueError(method)


def perfect_witness(f: Map, method: str):
    """Perfect: adh f[A] inside f[adh A] for every A, and compact fibers
    (every fiber of a finite space is compact)."""
    src, tgt = f.source, f.target
    if method == "definition":
        for j in range(tgt.n):
            fiber = f.pre(1 << j)
            s = tgt.vic[j]
            while s:
                p = f.pre(s)
                if p:
                    for k in range(1, src.full + 1):
                        if k & p and not src.adh(k) & fiber:
                            return (tgt.points[j], tgt.names(s), src.names(k))
                s = (s - 1) & tgt.vic[j]
        return None
    first = 1 if method == "adh-inequality" else 0
    for a in range(first, src.full + 1):
        bad = tgt.adh(f.image(a)) & ~f.image(src.adh(a))
        if bad:
            w = (src.names(a), tgt.names(bad)[0])
            return w if method == "adh-inequality" else ("a", w)
    return None
