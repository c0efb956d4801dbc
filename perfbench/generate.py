"""The generated part of the cli workload: seeded models of 16 points,
and CLI queries whose answers follow from how each model is built.

* ``T`` is the specialization space of a random preorder: the kernel of
  p is the up-set of p in the reflexive-transitive closure of random
  edges.  Its adherence is the down-set, which is idempotent, so ``T``
  is topological.  The two points merged by a back edge share their
  kernels, so it is not Hausdorff.
* ``C`` is a chain with up-set kernels.  ``mono`` sends p to the chain
  point numbered by the size of p's down-set; that size grows along the
  preorder, so the map is monotone, hence continuous.  ``ident`` is
  continuous and perfect.
* ``base`` is dense: it meets every kernel.
* Every finite space is compact, and so is its partial regularization.
* The exponential default routes run at sizes where each takes about a
  second: ``construct quotient`` at 5 points, ``check perfect`` on a
  9-point chain, ``check compact`` on a 5-cycle.  ``check compact`` on
  a 24-cycle is true as well, but the default route enumerates choice covers and does
  not finish (a known defect), so that query is expected to time out.

The preorder of model k is drawn once, from a stream of its own, and
the seed declares its points in a random order and picks the sets, the
base and the exponential instances.  The cost of the exhaustive checks
follows the kernel sizes, and a fresh preorder per seed moved the
90th-percentile latency by a fifth between seeds.
"""

from __future__ import annotations

import os
import random

import reference as ref
from queries import Query

POINTS = 16
MODELS = 3
EDGE_P = 0.12
CYCLE_DEFECT = (
    "check compact enumerates every choice cover, exponential in the size"
    " of the space (ROADMAP item 4)"
)


def preorder_space(n: int, rng: random.Random, prefix: str = "p") -> ref.Space:
    """Up-set kernels of the closure of random edges along a random rank,
    plus one back edge that merges two points into a class."""
    points = tuple(f"{prefix}{i + 1}" for i in range(n))
    rank = list(range(n))
    rng.shuffle(rank)
    up = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if rank[i] < rank[j] and rng.random() < EDGE_P:
                up[i] |= 1 << j
    a, b = rng.sample(range(n), 2)
    up[a] |= 1 << b
    up[b] |= 1 << a
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = up[i]
            for j in range(n):
                if up[i] >> j & 1:
                    acc |= up[j]
            if acc != up[i]:
                up[i] = acc
                changed = True
    return ref.Space(points, tuple(up))


def chain(n: int, prefix: str = "c") -> ref.Space:
    points = tuple(f"{prefix}{k + 1}" for k in range(n))
    return ref.Space(points, tuple(((1 << n) - 1) & ~((1 << k) - 1) for k in range(n)))


def shuffled(sp: ref.Space, rng: random.Random) -> ref.Space:
    """The same space with its points declared in a random order."""
    order = list(range(sp.n))
    rng.shuffle(order)
    where = {old: new for new, old in enumerate(order)}
    vic = []
    for old in order:
        vic.append(sum(1 << where[j] for j in range(sp.n) if sp.vic[old] >> j & 1))
    return ref.Space(tuple(sp.points[old] for old in order), tuple(vic))


def monotone_map(sp: ref.Space, target: ref.Space) -> ref.Map:
    down = [sum(1 for j in range(sp.n) if sp.vic[j] >> i & 1) for i in range(sp.n)]
    return ref.Map(sp, target, tuple(d - 1 for d in down))


def dense_base(sp: ref.Space, rng: random.Random) -> int:
    base = rng.getrandbits(sp.n) & rng.getrandbits(sp.n)
    for v in sp.vic:
        if not v & base:
            base |= 1 << rng.choice([i for i in range(sp.n) if v >> i & 1])
    return base


def cycle(n: int) -> ref.Space:
    points = tuple(f"z{i + 1}" for i in range(n))
    return ref.Space(points, tuple((1 << i) | (1 << (i + 1) % n) for i in range(n)))


def quotient_space(rng: random.Random) -> ref.Space:
    """Five points with kernel sizes 1, 1, 1, 1, 2: 2^19 choice covers."""
    sizes = [1, 1, 1, 1, 2]
    rng.shuffle(sizes)
    vic = []
    for i, size in enumerate(sizes):
        others = rng.sample([j for j in range(5) if j != i], size - 1)
        vic.append((1 << i) | sum(1 << j for j in others))
    return ref.Space(tuple(f"q{i + 1}" for i in range(5)), tuple(vic))


# -- model text ------------------------------------------------------------------


def _map_block(name: str, src: str, dst: str, f: ref.Map) -> str:
    lines = [f"map {name}: {src} -> {dst} {{"]
    lines += [f"  {p} -> {f.target.points[j]};" for p, j in zip(f.source.points, f.graph)]
    return "\n".join(lines) + "\n}\n"


def _set_line(name: str, sp: ref.Space, m: int) -> str:
    return f"set {name} = {sp.braces(m)}\n"


def _doc(*blocks) -> str:
    return "\n".join(blocks)


# -- the workload ------------------------------------------------------------------


def _model_queries(path: str, k: int, rng: random.Random) -> tuple:
    t = shuffled(preorder_space(POINTS, random.Random(f"large-finite-shape:{k}")), rng)
    c = chain(POINTS)
    mono = monotone_map(t, c)
    ident = ref.Map(t, t, tuple(range(t.n)))
    s1, s2 = rng.getrandbits(t.n), rng.getrandbits(t.n) | rng.getrandbits(t.n)
    sc = rng.getrandbits(c.n)
    base = dense_base(t, rng)
    text = _doc(
        ref.block("T", t),
        ref.block("C", c),
        _map_block("ident", "T", "T", ident),
        _map_block("mono", "T", "C", mono),
        _set_line("S1", t, s1) + _set_line("S2", t, s2) + _set_line("Sc", c, sc) + _set_line("base", t, base),
    )
    iterations = 1 + k % 2
    method = ref.CONTINUITY_METHODS[k % len(ref.CONTINUITY_METHODS)]
    sp = ("-f", path, "--space", "T")
    graph = "".join(f"{p} -> {c.points[j]}\n" for p, j in zip(t.points, mono.graph))
    qs = [
        ("validate", ("validate", "-f", path), 0, "ok: 8 declarations\n"),
        ("compute-adh", ("compute", "adh", *sp, "--set", "S1"), 0, t.braces(t.adh(s1)) + "\n"),
        ("compute-inh", ("compute", "inh", *sp, "--set", "S2"), 0, t.braces(t.inh(s2)) + "\n"),
        (
            "compute-cl-theta",
            ("compute", "cl-theta", *sp, "--set", "S1", "--iterations", str(iterations)),
            0,
            t.braces(ref.cl_theta(t, s1, iterations)) + "\n",
        ),
        ("topological", ("check", "topological", *sp), 0, "true\n"),
        ("hausdorff", ("check", "hausdorff", *sp), *ref.verdict(ref.hausdorff_witness(t))),
        ("quasi-phc", ("check", "quasi-phc", *sp), 0, "true\n"),
        ("continuous-ident", ("check", "continuous", "-f", path, "--map", "ident"), 0, "true\n"),
        (
            f"continuous-{method}",
            ("check", "continuous", "-f", path, "--map", "mono", "--method", method),
            0,
            "true\n",
        ),
        ("image", ("map", "image", "-f", path, "--map", "mono", "--set", "S1"), 0, c.braces(mono.image(s1)) + "\n"),
        ("preimage", ("map", "preimage", "-f", path, "--map", "mono", "--set", "Sc"), 0, t.braces(mono.pre(sc)) + "\n"),
        ("graph", ("map", "graph", "-f", path, "--map", "mono"), 0, graph),
        ("regularize", ("construct", "regularize", *sp), 0, ref.block("r_T", ref.regularized(t))),
        (
            "strict-extension",
            ("construct", "strict-extension", *sp, "--set", "base"),
            0,
            ref.block("T_plus", ref.strict_extension(t, base)),
        ),
        (
            "simple-extension",
            ("construct", "simple-extension", *sp, "--set", "base"),
            0,
            ref.block("T_sharp", ref.simple_extension(t, base)),
        ),
    ]
    return text, [Query(f"{qid}:L{k}", argv, code, out) for qid, argv, code, out in qs]


def _exponential_queries(path: str, rng: random.Random) -> tuple:
    x = quotient_space(rng)
    labels = ("u", "v", "w")
    graph = tuple(rng.sample(range(3), 3) + [rng.randrange(3), rng.randrange(3)])
    target = ref.Space(labels, (0b001, 0b010, 0b100))
    q = ref.Map(x, target, graph)
    p9 = shuffled(chain(9, prefix="r"), rng)
    ident9 = ref.Map(p9, p9, tuple(range(p9.n)))
    text = _doc(
        ref.block("X5", x),
        ref.block("D3", target),
        _map_block("q", "X5", "D3", q),
        ref.block("P9", p9),
        _map_block("ident9", "P9", "P9", ident9),
        ref.block("Z5", cycle(5)),
        ref.block("Z24", cycle(24)),
    )
    qs = [
        Query(
            "quotient:X5",
            ("construct", "quotient", "-f", path, "--space", "X5", "--map", "q"),
            0,
            ref.block("X5_quotient", ref.theta_quotient(q)),
        ),
        Query("perfect:P9", ("check", "perfect", "-f", path, "--map", "ident9"), 0, "true\n"),
        Query("compact:Z5", ("check", "compact", "-f", path, "--space", "Z5"), 0, "true\n"),
        Query(
            "compact:Z24",
            ("check", "compact", "-f", path, "--space", "Z24"),
            0,
            "true\n",
            known_defect=CYCLE_DEFECT,
        ),
    ]
    return text, qs


def build(seed: int, directory: str) -> tuple:
    """Write the models for ``seed`` under ``directory`` (relative to the
    checkout root) and return (model paths, queries)."""
    rng = random.Random(f"large-finite:{seed}")
    files = {}
    queries = []
    for k in range(MODELS):
        path = f"{directory}/L{k}.pt"
        files[path], qs = _model_queries(path, k, rng)
        queries += qs
    path = f"{directory}/exponential.pt"
    files[path], qs = _exponential_queries(path, rng)
    queries += qs
    rng.shuffle(queries)
    return files, queries


def write(files: dict, root: str):
    for path, text in files.items():
        full = os.path.join(root, path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w", encoding="utf-8") as fh:
            fh.write(text)
