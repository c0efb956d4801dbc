"""The corpus part of the cli workload: queries over corpus/*.pt and the
built-in symbolic spaces, each with the exit code and stdout it must produce.

Finite answers come from ``reference`` applied to the corpus spaces as
transcribed below.  Symbolic answers are written out by hand from the
vicinity rules of the built-in spaces and the comments of
corpus/urysohn.pt; each carries the reason it holds.  The seed picks the
set literals, iteration counts, ray counts, the spaces each compactness
method runs on, and the query order; how many queries each command gets
is the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import reference as ref


@dataclass(frozen=True)
class Query:
    qid: str
    argv: tuple
    exit_code: int
    stdout: str
    # Set when a failure of this query is a known defect of the program
    # (named here); it still counts as a failed operation.
    known_defect: str | None = None


def judge(q: Query, exit_code, stdout: str, stderr: str, timed_out: bool) -> str | None:
    """None when the answer is right, else why the operation failed."""
    if timed_out:
        return "timeout"
    if "MemoryError" in stderr:
        return "out of memory"
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if exit_code != q.exit_code:
        return f"exit {exit_code}, expected {q.exit_code}"
    if stdout != q.stdout:
        return "stdout differs"
    return None


# -- corpus/finite.pt and corpus/extensions.pt, transcribed -------------------

FINITE = "corpus/finite.pt"
EXTENSIONS = "corpus/extensions.pt"
URYSOHN = "corpus/urysohn.pt"

Q3 = ref.Space(("1", "2", "3"), (0b011, 0b110, 0b100))
D2 = ref.Space(("1", "2"), (0b01, 0b10))
P3 = ref.Space(("a", "b", "c"), (0b011, 0b010, 0b110))
S2 = ref.from_opens(("a", "b"), ((), ("a",), ("a", "b")))
Y = ref.Space(("1", "2", "3"), (0b001, 0b111, 0b110))

SPACES = {
    "Q3": (FINITE, Q3),
    "D2": (FINITE, D2),
    "P3": (FINITE, P3),
    "S2": (FINITE, S2),
    "Y": (EXTENSIONS, Y),
}
MAPS = {
    "collapse": ("Q3", ref.Map(Q3, S2, (0, 0, 1))),
    "fold": ("Q3", ref.Map(Q3, D2, (0, 0, 1))),
}
DECLARATIONS = {FINITE: 8, EXTENSIONS: 2, URYSOHN: 5}
COMPACT_METHODS = ("cover", "filter-refines", "vicinity-separation")
PHC_METHODS = ("rpi-compact", "adh-cover", "inherent-filter", "tower-adh")


def _cli(*argv) -> tuple:
    return tuple(str(a) for a in argv)


def _finite_queries(rng: random.Random) -> list:
    out = []
    for path, n in DECLARATIONS.items():
        out.append(Query(f"validate:{path}", _cli("validate", "-f", path), 0, f"ok: {n} declarations\n"))
    for name, (path, sp) in SPACES.items():
        for what in ("adh", "inh", "cl-theta"):
            a = rng.randrange(sp.full + 1)
            argv = ["compute", what, "-f", path, "--space", name, "--set", sp.braces(a)]
            if what == "adh":
                got = sp.adh(a)
            elif what == "inh":
                got = sp.inh(a)
            else:
                k = rng.randint(1, 3)
                argv += ["--iterations", k]
                got = ref.cl_theta(sp, a, k)
            out.append(Query(f"compute-{what}:{name}", _cli(*argv), 0, sp.braces(got) + "\n"))
        base = ["-f", path, "--space", name]
        out.append(Query(f"hausdorff:{name}", _cli("check", "hausdorff", *base), *ref.verdict(ref.hausdorff_witness(sp))))
        out.append(Query(f"topological:{name}", _cli("check", "topological", *base), *ref.verdict(ref.topological_witness(sp))))
        out.append(Query(f"regularize:{name}", _cli("construct", "regularize", *base), 0, ref.block(f"r_{name}", ref.regularized(sp))))
        dense = [b for b in range(1, sp.full + 1) if ref.is_dense(sp, b)]
        b = rng.choice(dense)
        for what, build, suffix in (
            ("strict-extension", ref.strict_extension, "plus"),
            ("simple-extension", ref.simple_extension, "sharp"),
        ):
            out.append(
                Query(
                    f"{what}:{name}",
                    _cli("construct", what, *base, "--set", sp.braces(b)),
                    0,
                    ref.block(f"{name}_{suffix}", build(sp, b)),
                )
            )
    # Every finite space is compact, and so is its regularization: the
    # default route and each method run on seeded spaces.
    for prop, methods in (("compact", COMPACT_METHODS), ("quasi-phc", PHC_METHODS)):
        for m in (None,) + methods:
            for name in rng.sample(sorted(SPACES), 1 if m is None else 2):
                path, _ = SPACES[name]
                argv = ("check", prop, "-f", path, "--space", name) + (("--method", m) if m else ())
                out.append(Query(f"{prop}-{m or 'default'}:{name}", _cli(*argv), 0, "true\n"))
    for mname, (src_name, f) in MAPS.items():
        base = ["-f", FINITE, "--map", mname]
        for m in ref.CONTINUITY_METHODS:
            out.append(Query(f"continuous-{m}:{mname}", _cli("check", "continuous", *base, "--method", m), *ref.verdict(ref.continuity_witness(f, m))))
        for m in ref.PERFECT_METHODS:
            out.append(Query(f"perfect-{m}:{mname}", _cli("check", "perfect", *base, "--method", m), *ref.verdict(ref.perfect_witness(f, m))))
        a = rng.randrange(f.source.full + 1)
        b = rng.randrange(f.target.full + 1)
        out.append(Query(f"image:{mname}", _cli("map", "image", *base, "--set", f.source.braces(a)), 0, f.target.braces(f.image(a)) + "\n"))
        out.append(Query(f"preimage:{mname}", _cli("map", "preimage", *base, "--set", f.target.braces(b)), 0, f.source.braces(f.pre(b)) + "\n"))
        graph = "".join(f"{p} -> {f.target.points[j]}\n" for p, j in zip(f.source.points, f.graph))
        out.append(Query(f"graph:{mname}", _cli("map", "graph", *base), 0, graph))
        out.append(
            Query(
                f"quotient:{mname}",
                _cli("construct", "quotient", "-f", FINITE, "--space", src_name, "--map", mname),
                0,
                ref.block(f"{src_name}_quotient", ref.theta_quotient(f)),
            )
        )
    return out


# -- symbolic spaces ------------------------------------------------------------
#
# urysohn: grid points G(n,m), rows n >= 1, columns m in Z, and two poles.
# G(n,m) with m != 0 is isolated.  G(n,0) has the vicinities
# {G(n,0)} + {G(n,m) : |m| > k}.  pinf has {pinf} + {G(n,m) : n > k, m >= 1},
# minf the mirror image over m <= -1.  half_grid is the m >= 0 half with
# pinf only.  discrete_ray(N) is N discrete copies of the naturals.

_U = ("-f", URYSOHN, "--space", "U")
_POLES_AND_RIGHT = "atom(pinf) | grid(G; cols=0..)"

SYMBOLIC = (
    # B = cols >= 1: the zero column (row tails) and pinf adhere, minf does not.
    ("adh-B:U", ("compute", "adh", *_U, "--set", "B"), 0, _POLES_AND_RIGHT),
    # A = zero column + pinf is closed: isolated points and minf miss it.
    ("adh-A:U", ("compute", "adh", *_U, "--set", "A"), 0, "atom(pinf) | grid(G; cols=0)"),
    ("adh-poles:U", ("compute", "adh", *_U, "--set", "poles"), 0, "atom(pinf) | atom(minf)"),
    # Only the isolated points of the right half have a vicinity inside it.
    ("inh-right_tail:U", ("compute", "inh", *_U, "--set", "right_tail"), 0, "grid(G; cols=1..)"),
    ("inh-B:U", ("compute", "inh", *_U, "--set", "B"), 0, "grid(G; cols=1..)"),
    # corpus/urysohn.pt: the theta-closure of B picks up the zero column and
    # the plus pole; a second iteration adds the minus pole.
    ("cl-theta-1:U", ("compute", "cl-theta", *_U, "--set", "B"), 0, _POLES_AND_RIGHT),
    (
        "cl-theta-2:U",
        ("compute", "cl-theta", *_U, "--set", "B", "--iterations", "2"),
        0,
        "atom(pinf) | atom(minf) | grid(G; cols=0..)",
    ),
    # Kernels meet only at a point and its own row tails: Hausdorff.
    ("hausdorff:U", ("check", "hausdorff", *_U), 0, "true"),
    # Closed vicinities of both poles contain G(n,0) for every large n.
    ("hausdorff-theta:U", ("check", "hausdorff", *_U, "--method", "theta"), 1, 'false\nwitness: ["pinf", "minf"]'),
    # The zero column climbing in n has no adherent point; in the theta form
    # both poles catch it.
    ("compact:U", ("check", "compact", *_U), 1, 'false\nwitness: "G(+,0)"'),
    ("compact-theta:U", ("check", "compact", *_U, "--method", "theta"), 0, "true"),
    ("builtin-compact:urysohn", ("builtin", "urysohn", "--check", "compact"), 1, 'false\nwitness: "G(+,0)"'),
    (
        "builtin-hausdorff-theta:urysohn",
        ("builtin", "urysohn", "--check", "hausdorff", "--method", "theta"),
        1,
        'false\nwitness: ["pinf", "minf"]',
    ),
    ("builtin-adh:urysohn", ("builtin", "urysohn", "--compute", "adh", "--set", "grid(G; cols=1..)"), 0, _POLES_AND_RIGHT),
    # half_grid: every point adheres to the right half (pinf and row tails).
    ("builtin-adh:half_grid", ("builtin", "half_grid", "--compute", "adh", "--set", "grid(G; cols=1..)"), 0, "all"),
    ("compute-adh:half_grid", ("compute", "adh", "--space", "half_grid", "--set", "atom(pinf)"), 0, "atom(pinf)"),
    ("builtin-hausdorff:half_grid", ("builtin", "half_grid", "--check", "hausdorff"), 0, "true"),
    # With one pole only, G(n,0) and pinf separate once k >= n.
    ("builtin-hausdorff-theta:half_grid", ("builtin", "half_grid", "--check", "hausdorff", "--method", "theta"), 0, "true"),
    ("builtin-compact:half_grid", ("builtin", "half_grid", "--check", "compact"), 1, 'false\nwitness: "G(+,0)"'),
    ("builtin-compact-theta:half_grid", ("builtin", "half_grid", "--check", "compact", "--method", "theta"), 0, "true"),
)


def _ray_text(rng: random.Random, r: int) -> tuple:
    """A random part of ray R<r> and its canonical text (``0..`` is the
    whole ray, a one-point range prints as the point)."""
    lo = rng.randint(0, 4)
    hi = lo + rng.randint(0, 3)
    if rng.random() < 0.5:
        canon = f"ray(R{r})" if lo == 0 else f"ray(R{r}; {lo}..)"
        return f"ray(R{r}; {lo}..)", canon
    return f"ray(R{r}; {lo}..{hi})", f"ray(R{r}; {lo if lo == hi else f'{lo}..{hi}'})"


def _ray_queries(rng: random.Random) -> list:
    """discrete_ray(N): discrete, so adh, inh and cl-theta fix every set;
    not compact (the first ray's end escapes); Hausdorff."""
    n = rng.randint(2, 4)
    key = f"discrete_ray({n})"
    out = []
    for what in ("adh", "inh", "cl-theta"):
        lit, canon = _ray_text(rng, rng.randint(1, n))
        out.append(Query(f"builtin-{what}:ray", _cli("builtin", key, "--compute", what, "--set", lit), 0, canon + "\n"))
        out.append(Query(f"compute-{what}:ray", _cli("compute", what, "--space", key, "--set", lit), 0, canon + "\n"))
    out.append(Query("builtin-compact:ray", _cli("builtin", key, "--check", "compact"), 1, 'false\nwitness: "R1(+)"\n'))
    out.append(Query("builtin-hausdorff:ray", _cli("builtin", key, "--check", "hausdorff"), 0, "true\n"))
    return out


def corpus_queries(seed: int) -> list:
    rng = random.Random(f"corpus-cli:{seed}")
    out = _finite_queries(rng)
    out += [Query(qid, _cli(*argv), code, text + "\n") for qid, argv, code, text in SYMBOLIC]
    out += _ray_queries(rng)
    rng.shuffle(out)
    return out


def corpus_files() -> list:
    return [FINITE, EXTENSIONS, URYSOHN]
