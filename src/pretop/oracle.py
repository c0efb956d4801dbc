"""Cross-checking batteries replaying every law the package relies on.

Each suite enumerates instances exhaustively at sizes 1 to 3 and, when
asked for size 4, adds a seeded sample.  A suite's plan is a generator:
the parent process draws its instances as a stream and cuts the next
fixed-size chunk only when that chunk is about to run, so no suite ever
holds its instance list.  A serial run holds one chunk at a time; a pool
holds at most two chunks per worker in flight.  Chunk outcomes are
folded in index order with the counterexample taken at the least
instance index, so the summary is byte-identical for any worker count.

The finite plans yield spaces, each looked up once per distinct vicinity
tuple, so no check looks one up again; a check names a space by its
``vicinity`` only when it fails.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from functools import lru_cache

from .construct import (
    end_extension,
    extend_map_kappa,
    make_extension,
    merged_end_extension,
    o_set,
    simple_extension,
    strict_extension,
    theta_quotient,
)
from .defsets import DefSet, Point
from .errors import SizeLimit
from .finite import (
    COVER_COMPACT_METHODS,
    PASS,
    FinitePretop,
    PrincipalFilter,
    Verdict,
    compact_at,
    count_hausdorff,
    enumerate_pretops,
    is_cover_compact,
    is_topological,
    vicinity_sweep,
)
from .intervals import AxisDomain, IntervalSet
from .maps import (
    CONTINUITY_METHODS,
    SpaceMap,
    continuity_verdicts,
    continuous,
    is_strongly_irreducible,
    perfect_verdicts,
)
from .model import eval_set, parse_set_expr
from .regularize import (
    HSET_METHODS,
    PHC_METHODS,
    hset_check,
    is_quasi_phc,
    partial_regularization,
    tower_lemmas_check,
)
from .symbolic import (
    StrandMap,
    build_sym_map,
    builtin,
    sym_adh,
    sym_identity,
    sym_is_continuous,
    sym_regularize,
)
from .symbolic.exprs import defset_bound
from .symbolic.space import box_points, truncate

_SAMPLE = 1200
_CHUNK = 512
_MAX_POINTS = 4
_IN_FLIGHT = 2  # chunks per pool worker submitted ahead of the fold


# The exhaustive parts reuse the 69 spaces of at most 3 points chunk after
# chunk, and 256 holds them all.  The seeded 4-point samples spread over
# 4,096 vicinity tuples: keeping every one alive costs about 5 MB to save
# rebuilds of a few microseconds each.
@lru_cache(maxsize=256)
def _space(vic: tuple) -> FinitePretop:
    return FinitePretop(tuple(str(i + 1) for i in range(len(vic))), tuple(vic))


def _sizes(n: int):
    return range(1, min(n, 3) + 1)


def _spaces(size: int) -> list:
    return [_space(sp.vicinity) for sp in enumerate_pretops(size)]


def _rand_space(size: int, rng: random.Random) -> FinitePretop:
    return _space(tuple(rng.randrange(1 << size) | (1 << i) for i in range(size)))


def _subsets_of(mask: int):
    """Submasks in ascending numeric order."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


# -- map batteries -------------------------------------------------------------


def _plan_maps(n: int, rng: random.Random):
    for size in _sizes(n):
        spaces = _spaces(size)
        yield from itertools.product(spaces, spaces, itertools.product(range(size), repeat=size))
    if n >= 4:
        for _ in range(_SAMPLE):
            yield _rand_space(4, rng), _rand_space(4, rng), tuple(rng.randrange(4) for _ in range(4))


def _map_where(f: SpaceMap) -> str:
    return f"vic={f.source.vicinity}->{f.target.vicinity} graph={f.graph}"


def _check_continuity(inst) -> str | None:
    """The five continuity routes agree.  Both verdicts occur: at
    ``--max-points 4``, seed 0, 45,729 maps are continuous and 66,128 are
    not."""
    f = SpaceMap(*inst)
    got = continuity_verdicts(f)
    if len(set(got)) != 1:
        return f"routes disagree {dict(zip(CONTINUITY_METHODS, got))} on {_map_where(f)}"
    return None


def _check_perfect(inst) -> str | None:
    """The definition and adh-inequality routes agree, and a-and-b with
    them on continuous maps.  Both verdicts occur: at ``--max-points 4``,
    seed 0, the definition route finds 17,596 maps perfect and 94,261 not;
    a-and-b runs on the 45,703 continuous ones, 5,789 perfect and 39,914
    not."""
    f = SpaceMap(*inst)
    got = perfect_verdicts(f)
    if len(set(got)) == 1:
        return None
    by_def, by_adh, *by_ab = got
    if by_def != by_adh:
        return f"definition={by_def} adh-inequality={by_adh} on {_map_where(f)}"
    return f"definition={by_def} a-and-b={by_ab[0]} on continuous {_map_where(f)}"


# -- compactness batteries --------------------------------------------------------


def _plan_compact_at(n: int, rng: random.Random):
    for size in _sizes(n):
        masks = range(1, 1 << size)
        yield from itertools.product(_spaces(size), masks, masks)
    if n >= 4:
        for _ in range(_SAMPLE):
            yield _rand_space(4, rng), rng.randrange(1, 16), rng.randrange(1, 16)


def _check_compact_at(inst) -> str | None:
    """The filter and cover routes of compactness at a set agree.  Both
    verdicts occur: at ``--max-points 4``, seed 0, 3,149 instances are
    compact and 1,224 are not."""
    sp, k, at = inst
    f = PrincipalFilter(k)
    by_filter = compact_at(sp, f, at, "filter").ok
    by_cover = compact_at(sp, f, at, "cover").ok
    if by_filter != by_cover:
        return f"filter={by_filter} cover={by_cover} on vic={sp.vicinity} kernel={k} at={at}"
    return None


def _check_cover_compact(inst) -> str | None:
    """The three cover-compactness routes agree.  Only ``True`` occurs:
    at ``--max-points 4``, seed 0, all 1,661 instances are cover-compact,
    as every subset of a finite space is."""
    sp, at = inst
    got = {m: is_cover_compact(sp, at, m).ok for m in COVER_COMPACT_METHODS}
    if len(set(got.values())) != 1:
        return f"routes disagree {got} on vic={sp.vicinity} at={at}"
    return None


# -- regularization batteries -------------------------------------------------------


def _plan_filters(n: int, rng: random.Random):
    for size in _sizes(n):
        yield from itertools.product(_spaces(size), range(1, 1 << size))
    if n >= 4:
        for _ in range(_SAMPLE):
            yield _rand_space(4, rng), rng.randrange(1, 16)


def _check_open_filter(inst) -> str | None:
    sp, k = inst
    report = tower_lemmas_check(sp, PrincipalFilter(k))
    if not report.open_identity:
        return (
            f"open filter kernel={k} on vic={sp.vicinity}: adh {report.adh_base}"
            f" vs regularized {report.adh_regularized}"
        )
    return None


def _check_tower_level(inst) -> str | None:
    sp, k = inst
    report = tower_lemmas_check(sp, PrincipalFilter(k))
    if not report.level_identity:
        return (
            f"kernel={k} on vic={sp.vicinity}: regularized adh {report.adh_regularized}"
            f" vs level-1 adh {report.adh_level1}"
        )
    return None


def _plan_spaces(n: int, rng: random.Random):
    for size in _sizes(n):
        yield from ((sp,) for sp in _spaces(size))
    if n >= 4:
        for _ in range(_SAMPLE):
            yield (_rand_space(4, rng),)


def _check_quasi_phc(inst) -> str | None:
    """The four quasi-PHC routes agree.  Only ``True`` occurs: at
    ``--max-points 4``, seed 0, all 1,269 spaces are quasi-PHC, as every
    finite space is."""
    (sp,) = inst
    got = {m: is_quasi_phc(sp, m).ok for m in PHC_METHODS}
    if len(set(got.values())) != 1:
        return f"routes disagree {got} on vic={sp.vicinity}"
    return None


def _plan_hset(n: int, rng: random.Random):
    del rng  # the topology count stays exhaustive through size 4
    for size in range(1, min(n, 4) + 1):
        for sp in enumerate_pretops(size):
            if is_topological(sp).ok:
                yield from ((sp, at) for at in range(1, sp.full + 1))


def _check_hset(inst) -> str | None:
    """The three H-set routes agree.  Only ``True`` occurs: at
    ``--max-points 4``, seed 0, all 5,541 subsets are H-sets, as every
    subset of a finite topology is."""
    sp, at = inst
    got = {m: hset_check(sp, at, m).ok for m in HSET_METHODS}
    if len(set(got.values())) != 1:
        return f"routes disagree {got} on vic={sp.vicinity} at={at}"
    return None


# -- construction batteries ----------------------------------------------------------


def _partitions(size: int):
    """Fiber label tuples in restricted-growth form; one per partition."""

    def rec(prefix: list, mx: int):
        if len(prefix) == size:
            yield tuple(prefix)
            return
        for v in range(mx + 2):
            yield from rec(prefix + [v], max(mx, v))

    yield from rec([], -1)


def _plan_quotients(n: int, rng: random.Random):
    for size in _sizes(n):
        yield from itertools.product(_spaces(size), _partitions(size))
    if n >= 4:
        parts4 = list(_partitions(4))
        for _ in range(_SAMPLE):
            yield _rand_space(4, rng), rng.choice(parts4)


def _irreducible_by_scan(f: SpaceMap) -> Verdict:
    """Strong irreducibility by its definition: the first violating pair of
    an ascending scan of every two sets with nonempty inherence, a pair
    whose overlap holds no fiber, read from the fibers themselves rather
    than through the small-image operator the route calls."""
    src = f.source
    fibers = [f.fiber(j) for j in range(f.target.n)]
    pool = [u for u in src.subsets() if src.inh(u)]
    for u in pool:
        for v in pool:
            meet = u & v
            if meet and all(fib & ~meet for fib in fibers):
                return Verdict(False, (src.names(u), src.names(v)))
    return PASS


def _check_quotient(inst) -> str | None:
    """The convergence lemma on every target set, and strong irreducibility
    of the projection by its route and by the definition scan."""
    sp, labels = inst
    f = theta_quotient(sp, {p: f"c{labels[i]}" for i, p in enumerate(sp.points)})
    sigma = f.target
    for j in range(sigma.n):
        k = vicinity_sweep(sp, f.fiber(j))
        for s in sigma.kernels():
            if (s & ~sigma.vicinity[j] == 0) != (f.preimage_mask(s) & ~k == 0):
                return f"convergence mismatch on vic={sp.vicinity} labels={labels}"
    if is_strongly_irreducible(f).ok != _irreducible_by_scan(f).ok:
        return f"strong irreducibility mismatch on vic={sp.vicinity} labels={labels}"
    return None


def _dense(sp: FinitePretop, base: int) -> bool:
    """``adh(base) == full``, read from the vicinities: every least
    vicinity meets the base."""
    return all(v & base for v in sp.vicinity)


def _plan_extensions(n: int, rng: random.Random):
    for size in _sizes(n):
        for sp in _spaces(size):
            yield from ((sp, base) for base in range(1, sp.full + 1) if _dense(sp, base))
    if n >= 4:
        added = 0
        while added < _SAMPLE:
            sp = _rand_space(4, rng)
            base = rng.randrange(1, 16)
            if _dense(sp, base):
                yield sp, base
                added += 1


def _check_extension_order(inst) -> str | None:
    sp, base = inst
    e = make_extension(sp, base)
    yplus = strict_extension(e)
    ysharp = simple_extension(e)
    ryplus = partial_regularization(yplus)
    for i in range(sp.n):
        if ysharp.vicinity[i] & ~ryplus.vicinity[i]:
            return (
                f"simple kernel escapes the regularized strict one at point"
                f" {sp.points[i]} on vic={sp.vicinity} base={base}"
            )
    ident = tuple(range(sp.n))
    if not continuous(SpaceMap(yplus, sp, ident)):
        return f"identity from the strict extension not continuous on vic={sp.vicinity} base={base}"
    if is_topological(sp).ok:
        if not continuous(SpaceMap(sp, ysharp, ident)):
            return f"identity into the simple extension not continuous on vic={sp.vicinity} base={base}"
    return None


def _check_strict_adh(inst) -> str | None:
    """Adherence formula in Y+ (kernels ``{p} + trace(p)``): for a point p
    outside the base and a base set U containing its trace,
    adh({p} + U) = oU + adh U, both adherences taken in Y+.  Traces are
    nonempty (the base is dense), so p and every point of oU adhere to U
    already; the base's own adherence of U would miss the points outside
    the base whose traces meet U without lying in it."""
    sp, base = inst
    e = make_extension(sp, base)
    yplus = strict_extension(e)
    for i in range(sp.n):
        if base >> i & 1:
            continue
        tr = e.trace(i)
        for u in _subsets_of(base):
            if tr & ~u:
                continue
            left = yplus.adh((1 << i) | u)
            right = o_set(e, u) | yplus.adh(u)
            if left != right:
                return (
                    f"adh {left} vs oU|adh {right} at p={sp.points[i]}"
                    f" U={u} on vic={sp.vicinity} base={base}"
                )
    return None


def _plan_hausdorff(n: int, rng: random.Random):
    del rng
    yield from ((size,) for size in range(1, min(n, 4) + 1))


def _check_hausdorff_count(inst) -> str | None:
    (size,) = inst
    count = count_hausdorff(size)
    if count != 1:
        return f"{count} Hausdorff pretopologies on {size} points, wanted the discrete one only"
    return None


# -- algebra batteries -----------------------------------------------------------


def _rand_interval(rng: random.Random, axis: AxisDomain) -> IntervalSet:
    pairs = []
    for _ in range(rng.randrange(3)):
        lo = None if rng.random() < 0.2 else rng.randint(-6, 6)
        hi = None if rng.random() < 0.2 else rng.randint(-6, 6)
        if lo is not None and hi is not None and lo > hi:
            lo, hi = hi, lo
        pairs.append((lo, hi))
    return IntervalSet.from_pairs(axis, pairs)


def _plan_intervals(n: int, rng: random.Random):
    del n
    for i in range(240):
        yield ("int", "nat0", "nat1")[i % 3], rng.randrange(2**32)


_AXES = {
    "int": AxisDomain("int"),
    "nat0": AxisDomain("nat", 0),
    "nat1": AxisDomain("nat", 1),
}


def _check_intervals(inst) -> str | None:
    key, mini_seed = inst
    axis = _AXES[key]
    rng = random.Random(mini_seed)
    a, b, c = (_rand_interval(rng, axis) for _ in range(3))
    where = f"axis={key} seed={mini_seed}"
    if ~(a | b) != (~a & ~b):
        return f"De Morgan fails {where}"
    if ~~a != a:
        return f"double complement fails {where}"
    if (a | (b & c)) != ((a | b) & (a | c)):
        return f"distributivity fails {where}"
    if (a - b) != (a & ~b):
        return f"difference fails {where}"
    if not (a & b).subset_of(a) or not a.subset_of(a | b):
        return f"ordering fails {where}"
    if a.meets(b) != (not (a & b).is_empty()):
        return f"meets fails {where}"
    if key == "int" and a.shift(5).shift(-5) != a:
        return f"shift round trip fails {where}"
    lo = -15 if axis.kind == "int" else axis.low
    for v in range(lo, 16):
        if ((v in a) or (v in b)) != (v in (a | b)):
            return f"union membership fails at {v} {where}"
        if ((v in a) and (v in b)) != (v in (a & b)):
            return f"intersection membership fails at {v} {where}"
        if (v in a) == (v in ~a):
            return f"complement membership fails at {v} {where}"
    return None


def _rand_defset(rng: random.Random, schema) -> DefSet:
    # the strands come atoms first, then rays, then grids: an atom is
    # drawn in or out, a ray gets one box and a grid up to two
    strands = {}
    for name, axes in schema.strands:
        if not axes:
            if rng.random() < 0.5:
                strands[name] = [()]
        else:
            count = 1 if len(axes) == 1 else rng.randrange(3)
            strands[name] = [tuple(_rand_interval(rng, ax) for ax in axes) for _ in range(count)]
    return DefSet.of(schema, strands)


def _plan_defsets(n: int, rng: random.Random):
    del n
    for i in range(180):
        yield ("urysohn", "half_grid", "discrete_ray(2)")[i % 3], rng.randrange(2**32)


def _check_defsets(inst) -> str | None:
    key, mini_seed = inst
    schema = builtin(key).schema
    rng = random.Random(mini_seed)
    s = _rand_defset(rng, schema)
    t = _rand_defset(rng, schema)
    where = f"schema={key} seed={mini_seed}"
    union, inter, comp = s | t, s & t, ~s
    if ~union != (comp & ~t):
        return f"De Morgan fails {where}"
    if ~comp != s:
        return f"double complement fails {where}"
    if (s - t) != (s & ~t):
        return f"difference fails {where}"
    if s.meets(t) != (not inter.is_empty()):
        return f"meets fails {where}"
    if (s | s) != s or (s & s) != s:
        return f"idempotence fails {where}"
    probes = set(
        itertools.chain(
            s.iter_sample_points(),
            t.iter_sample_points(),
            comp.iter_sample_points(),
            union.iter_sample_points(),
        )
    )
    for p in probes:
        if ((p in s) or (p in t)) != (p in union):
            return f"union membership fails at {p.describe()} {where}"
        if ((p in s) and (p in t)) != (p in inter):
            return f"intersection membership fails at {p.describe()} {where}"
        if (p in s) == (p in comp):
            return f"complement membership fails at {p.describe()} {where}"
    return None


# -- symbolic engine batteries ------------------------------------------------------


_DUAL_ENGINE_SETS = {
    "urysohn": (
        "grid(G; cols>0)",
        "grid(G; cols=0)",
        "atom(pinf) | atom(minf)",
        "grid(G; rows=1..3)",
        "grid(G; cols=..-1) | atom(minf)",
    ),
    "half_grid": ("grid(G; cols=0)", "grid(G; cols=2..)", "grid(G; rows=2)"),
    "discrete_ray(2)": ("ray(R1; 3..)", "ray(R2; 0..2)", "ray(R1)"),
}


def _plan_dual_engine(n: int, rng: random.Random):
    del n, rng
    yield from ((key, lit) for key, lits in _DUAL_ENGINE_SETS.items() for lit in lits)


def _check_dual_engine(inst) -> str | None:
    key, lit = inst
    x = builtin(key)
    s = eval_set(parse_set_expr(lit), x)
    w = 2 * (x.bound + defset_bound(s)) + 5
    fin, clipped = truncate(x, w)
    pts = box_points(x, w)
    mask = sum(1 << i for i, p in enumerate(pts) if p in s)
    adh_fin = fin.adh(mask)
    adh_sym = sym_adh(x, s)
    for i, p in enumerate(pts):
        if clipped >> i & 1:
            continue  # clipped kernel: the snapshot is not faithful here
        if bool(adh_fin >> i & 1) != (p in adh_sym):
            return f"{key} window={w} set {lit}: engines disagree at {p.describe()}"
    return None


def _plan_kappa(n: int, rng: random.Random):
    del n, rng
    yield from (("ray1",), ("ray2",), ("urysohn",))


def _check_kappa(inst) -> str | None:
    (case,) = inst
    if case == "ray1":
        x = builtin("discrete_ray(1)")
        ext = end_extension(x)
        names = tuple(dict.fromkeys(name for name, _ in ext.added))
        if names != ("end_R1_plus",):
            return f"added {names}, wanted one end point"
        if not ext.compact.ok:
            return "one-ray end extension not compact"
        shift = build_sym_map(x, x, {"R1": StrandMap.shift("R1", 1)}, label="shift")
        km = extend_map_kappa(shift, ext, ext)
        if not km.continuous.ok:
            return "extended shift map not continuous"
        if km.map.apply(Point.atom("end_R1_plus")) != Point.atom("end_R1_plus"):
            return "extended shift map moves the end point"
        return None
    if case == "ray2":
        x = builtin("discrete_ray(2)")
        ext = end_extension(x)
        merged = merged_end_extension(x)
        if not ext.compact.ok or not merged.compact.ok:
            return "two-ray extensions not compact"
        if not sym_is_continuous(sym_identity(ext.space)).ok:
            return "identity onto the two-point extension not continuous"
        onto_one = build_sym_map(
            ext.space,
            merged.space,
            {
                "R1": "R1",
                "R2": "R2",
                "end_R1_plus": Point.atom("omega"),
                "end_R2_plus": Point.atom("omega"),
            },
            label="merge ends",
        )
        if not sym_is_continuous(onto_one).ok:
            return "merge onto the one-point extension not continuous"
        return None
    x = builtin("urysohn")
    ext = end_extension(x)
    names = tuple(dict.fromkeys(name for name, _ in ext.added))
    if names != ("end_G_plus_0",):
        return f"added {names}, wanted the zero-column end"
    if not ext.compact.ok:
        return "urysohn end extension not compact"
    reg = sym_regularize(x)
    ext_reg = end_extension(reg)
    if ext_reg.added != ():
        return "regularized urysohn still has non-converging ends"
    if not ext_reg.compact.ok:
        return "regularized urysohn not compact"
    return None


# -- registry and runner -------------------------------------------------------------


@dataclass(frozen=True)
class Suite:
    name: str
    plan: object
    check: object


SUITES = {
    s.name: s
    for s in (
        Suite("continuity-5way", _plan_maps, _check_continuity),
        Suite("compact-at-2way", _plan_compact_at, _check_compact_at),
        Suite("cover-compact-3way", _plan_filters, _check_cover_compact),
        Suite("perfect-3way", _plan_maps, _check_perfect),
        Suite("open-filter-adh", _plan_filters, _check_open_filter),
        Suite("tower-level-adh", _plan_filters, _check_tower_level),
        Suite("quasi-phc-4way", _plan_spaces, _check_quasi_phc),
        Suite("hset-3way", _plan_hset, _check_hset),
        Suite("theta-quotient", _plan_quotients, _check_quotient),
        Suite("extension-order", _plan_extensions, _check_extension_order),
        Suite("strict-extension-adh", _plan_extensions, _check_strict_adh),
        Suite("hausdorff-collapse", _plan_hausdorff, _check_hausdorff_count),
        Suite("interval-laws", _plan_intervals, _check_intervals),
        Suite("defset-boolean", _plan_defsets, _check_defsets),
        Suite("symbolic-dual-engine", _plan_dual_engine, _check_dual_engine),
        Suite("kappa-fragment", _plan_kappa, _check_kappa),
    )
}


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: int
    counterexample: str | None


@dataclass(frozen=True)
class OracleSummary:
    max_points: int
    seed: int
    suites: tuple  # SuiteResult, in registry order

    @property
    def all_pass(self) -> bool:
        return all(s.failures == 0 for s in self.suites)

    def to_json(self) -> str:
        doc = {
            "config": {
                "max_points": self.max_points,
                "seed": self.seed,
                "suites": [s.name for s in self.suites],
            },
            "suites": [
                {
                    "name": s.name,
                    "checked": s.checked,
                    "failures": s.failures,
                    "counterexample": s.counterexample,
                }
                for s in self.suites
            ],
            "all_pass": self.all_pass,
        }
        return json.dumps(doc, indent=2)


def _run_chunk(name: str, chunk: list, base: int) -> tuple:
    """(checked, failures, first failing index, witness) for one slice."""
    check = SUITES[name].check
    failures = 0
    first = None
    witness = None
    for off, inst in enumerate(chunk):
        bad = check(inst)
        if bad is not None:
            failures += 1
            if first is None:
                first = base + off
                witness = bad
    return len(chunk), failures, first, witness


def run_suites(
    suites="all",
    max_points: int = 3,
    seed: int = 0,
    workers: int = 1,
) -> OracleSummary:
    """Run the batteries and fold the chunk results into one summary."""
    if not 1 <= max_points <= _MAX_POINTS:
        raise SizeLimit(f"exhaustive batteries support 1..{_MAX_POINTS} points, got {max_points}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if suites == "all" or suites is None:
        names = list(SUITES)
    else:
        names = [suites] if isinstance(suites, str) else list(suites)
        for name in names:
            if name not in SUITES:
                raise ValueError(f"unknown suite {name!r}")
        names = [n for n in SUITES if n in names]
        if not names:
            raise ValueError("no suite given")

    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # loaded only when a pool runs
        pool = ProcessPoolExecutor(max_workers=workers)
    with pool or nullcontext():
        results = [_run_suite(name, max_points, seed, pool, _IN_FLIGHT * workers) for name in names]
    return OracleSummary(max_points, seed, tuple(results))


def _run_suite(name: str, max_points: int, seed: int, pool, window: int) -> SuiteResult:
    """Draw one suite's instances as a stream, cut the next chunk only when
    it is about to run, and fold the chunk outcomes in index order.  A
    serial run holds one chunk at a time, a pool at most ``window``."""
    rng = random.Random(f"{seed}:{name}")
    stream = iter(SUITES[name].plan(max_points, rng))
    chunks = iter(lambda: list(itertools.islice(stream, _CHUNK)), [])
    tasks = ((name, chunk, i * _CHUNK) for i, chunk in enumerate(chunks))
    if pool is None:
        outcomes = (_run_chunk(*t) for t in tasks)
    else:
        outcomes = _pooled(pool, tasks, window)

    checked = failures = 0
    first = None
    witness = None
    for got, bad, idx, w in outcomes:
        checked += got
        failures += bad
        if first is None and idx is not None:
            first, witness = idx, w
    return SuiteResult(name, checked, failures, witness)


def _pooled(pool, tasks, window: int):
    """Outcomes of ``tasks`` in order, submitting each task only when
    fewer than ``window`` are in flight."""
    pending = deque()
    for task in tasks:
        pending.append(pool.submit(_run_chunk, *task))
        if len(pending) == window:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()
