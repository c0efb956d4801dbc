"""Strand-wise maps: images are exact, validation is one inclusion, and
the continuity decision matches hand-checked examples on the builtins
and brute-force certificates on seeded shift and collapse maps."""

import random

import pytest

from pretop.construct import end_extension
from pretop.defsets import DefSet, Point
from pretop.errors import (
    SchemaMismatch,
    UnclassifiableImageTrace,
    UnknownPoint,
)
from pretop.model import eval_set, parse_set_expr, set_literal
from pretop.symbolic import (
    EndClass,
    StrandMap,
    build_sym_map,
    builtin,
    ends,
    image_end,
    sym_identity,
    sym_image,
    sym_is_continuous,
    sym_restrict,
)
from pretop.symbolic.analysis import trace_sym
from pretop.symbolic.space import box_points


def _set(x, text: str) -> DefSet:
    return eval_set(parse_set_expr(text), x)


@pytest.fixture(scope="module")
def ray1():
    return builtin("discrete_ray(1)")


@pytest.fixture(scope="module")
def shift(ray1):
    return build_sym_map(ray1, ray1, {"R1": StrandMap.shift("R1", 1)}, label="shift")


# -- construction ---------------------------------------------------------------


def test_identity_is_continuous_everywhere():
    for key in ("urysohn", "half_grid", "discrete_ray(2)"):
        assert sym_is_continuous(sym_identity(builtin(key))).ok


def test_build_requires_every_strand(ray1):
    with pytest.raises(UnknownPoint):
        build_sym_map(ray1, ray1, {})
    with pytest.raises(UnknownPoint):
        build_sym_map(ray1, ray1, {"R1": "R1", "R9": "R1"})


def test_atoms_must_collapse():
    x = builtin("urysohn")
    with pytest.raises(SchemaMismatch):
        build_sym_map(x, x, {"G": "G", "pinf": StrandMap.shift("G", 0, 0), "minf": Point.atom("minf")})


def test_images_must_land_on_the_carrier(ray1):
    # shifting down pushes 0 to -1, below the axis floor
    with pytest.raises(UnknownPoint, match=r"R1\(-1\) lies below the floor"):
        build_sym_map(ray1, ray1, {"R1": StrandMap.shift("R1", -1)})


def test_images_must_land_inside_a_target_carrier(ray1):
    sub = sym_restrict(ray1, _set(ray1, "ray(R1; 2..5) | ray(R1; 8..)"))
    into = build_sym_map(sub, sub, {"R1": StrandMap.shift("R1", 6)})
    assert sym_image(into, sub.carrier_set) == _set(ray1, "ray(R1; 8..11) | ray(R1; 14..)")
    with pytest.raises(UnknownPoint, match=r"R1\(6\) lies outside the target carrier"):
        build_sym_map(sub, sub, {"R1": StrandMap.shift("R1", 1)})
    with pytest.raises(UnknownPoint, match=r"R1\(6\) lies outside the target carrier"):
        build_sym_map(ray1, sub, {"R1": StrandMap.to_point(Point.ray("R1", 6))})


def test_a_collapse_needs_a_point_of_the_target_schema(ray1):
    x = builtin("urysohn")
    with pytest.raises(UnknownPoint, match="no strand named 'R1'"):
        build_sym_map(x, x, {"G": "G", "pinf": Point.ray("R1", 0), "minf": Point.atom("minf")})
    with pytest.raises(UnknownPoint, match="not on grid 'G'"):
        build_sym_map(x, x, {"G": "G", "pinf": Point.grid("G", 0, 0), "minf": Point.atom("minf")})
    with pytest.raises(UnknownPoint, match="no strand named 'omega'"):
        build_sym_map(ray1, ray1, {"R1": Point.atom("omega")})


def test_shape_mismatch_rejected(ray1):
    x = builtin("urysohn")
    with pytest.raises(SchemaMismatch):
        build_sym_map(x, ray1, {"G": "R1", "pinf": Point.ray("R1", 0), "minf": Point.ray("R1", 0)})


# -- images --------------------------------------------------------------------


def test_shift_image(ray1, shift):
    assert sym_image(shift, _set(ray1, "ray(R1; 0..2)")) == _set(ray1, "ray(R1; 1..3)")


def test_collapse_image(ray1):
    two = builtin("discrete_ray(2)")
    fold = build_sym_map(two, ray1, {"R1": "R1", "R2": StrandMap.to_point(Point.ray("R1", 0))})
    assert sym_image(fold, _set(two, "ray(R2; 5..)")) == _set(ray1, "ray(R1; 0)")


def test_an_infinite_shift_image_is_exact(ray1, shift):
    assert sym_image(shift, _set(ray1, "ray(R1; 2..)")) == _set(ray1, "ray(R1; 3..)")


# -- continuity -----------------------------------------------------------------


def test_shift_is_continuous(shift):
    assert sym_is_continuous(shift).ok


def test_pole_swap_is_discontinuous():
    x = builtin("urysohn")
    swap = build_sym_map(
        x, x, {"G": "G", "pinf": Point.atom("minf"), "minf": Point.atom("pinf")}
    )
    v = sym_is_continuous(swap)
    assert not v.ok
    assert v.witness == (Point.atom("pinf"), 0)


def test_constant_map_is_continuous():
    x = builtin("urysohn")
    half = builtin("half_grid")
    const = build_sym_map(
        x,
        half,
        {"G": StrandMap.to_point(Point.atom("pinf")), "pinf": Point.atom("pinf"), "minf": Point.atom("pinf")},
    )
    assert sym_is_continuous(const).ok


def test_continuity_reads_vicinities_inside_the_source_carrier():
    # in the subspace the vicinities keep columns -2..2: shifted by -3,
    # pinf's land in minf's, and the column tails of G(n,0) are gone
    x = builtin("urysohn")
    sub = sym_restrict(x, _set(x, "grid(G; cols=-2..2) | atom(pinf)"))
    assignments = {"G": StrandMap.shift("G", 0, -3), "pinf": Point.atom("minf"), "minf": Point.atom("minf")}
    assert sym_is_continuous(build_sym_map(sub, x, assignments)).ok
    assert sym_is_continuous(build_sym_map(x, x, assignments)).witness == (Point.grid("G", 1, 0), 0)


def test_row_collapse_onto_half_grid_is_continuous():
    # forgetting the sign of the column is continuous on the grid part
    x = builtin("half_grid")
    assert sym_is_continuous(build_sym_map(x, x, {"G": "G", "pinf": Point.atom("pinf")})).ok


# -- certificates on seeded shift and collapse maps ------------------------------

_KEYS = ("urysohn", "half_grid", "discrete_ray(1)", "discrete_ray(2)")


@pytest.fixture(scope="module")
def spaces():
    base = [builtin(key) for key in _KEYS]
    exts = [end_extension(x).space for x in base]
    ury, rays = base[0], exts[3]
    subspaces = [
        sym_restrict(ury, _set(ury, "grid(G; cols=-2..2) | atom(pinf)")),
        sym_restrict(rays, _set(rays, "ray(R1; 1..) | ray(R2; 0..3) | atom(end_R1_plus) | atom(end_R2_plus)")),
    ]
    return base + exts + subspaces


def _strands(x) -> list:
    return [(n, len(axes)) for n, axes in x.schema.strands]


def _random_map(rng: random.Random, spaces):
    """A shift or collapse map between two of the spaces, or None when it
    fails validation: each ray or grid strand shifts onto a strand of
    its shape by offsets in -1..2, or collapses to a point of the
    target's radius-2 box."""
    x, y = rng.choice(spaces), rng.choice(spaces)
    pts = box_points(y, 2)
    assignments = {}
    for name, arity in _strands(x):
        same = [n for n, a in _strands(y) if a == arity and arity]
        if same and rng.random() < 0.7:
            assignments[name] = StrandMap.shift(rng.choice(same), *(rng.randint(-1, 2) for _ in range(arity)))
        else:
            assignments[name] = rng.choice(pts)
    try:
        return build_sym_map(x, y, assignments)
    except UnknownPoint:
        return None


def _inside_by(f, p, j: int, top: int = 24) -> bool:
    """Whether some k <= top gives f(T_p(k)) inside U_f(p)(j)."""
    u = f.target.vicinity(f.apply(p), j)
    return any(sym_image(f, f.source.vicinity(p, k)).subset_of(u) for k in range(top + 1))


def test_continuity_verdicts_carry_certificates(spaces):
    verdicts = []
    for seed in range(300):
        f = _random_map(random.Random(seed), spaces)
        if f is None:
            continue
        v = sym_is_continuous(f)
        verdicts.append(v.ok)
        if v.ok:
            for p in box_points(f.source, 3):
                for j in range(5):
                    assert _inside_by(f, p, j), (seed, p, j)
            continue
        p, j = v.witness
        assert p in f.source.carrier_set and j >= 0, seed
        u = f.target.vicinity(f.apply(p), j)
        for k in (0, 40, 200):
            assert not sym_image(f, f.source.vicinity(p, k)).subset_of(u), (seed, k)
        if j:  # the least j failing at p
            assert _inside_by(f, p, j - 1), seed
    assert verdicts.count(True) >= 50 and verdicts.count(False) >= 100


# -- ends under maps ---------------------------------------------------------------


def test_image_end_follows_the_strand(ray1, shift):
    e = ends(ray1)[0]
    assert e.describe() == "R1(+)"
    assert image_end(shift, e).describe() == "R1(+)"


def test_image_end_of_collapse_is_the_point(ray1):
    two = builtin("discrete_ray(2)")
    fold = build_sym_map(two, ray1, {"R1": "R1", "R2": StrandMap.to_point(Point.ray("R1", 0))})
    e2 = next(e for e in ends(two) if e.strand == "R2")
    assert image_end(fold, e2) == Point.ray("R1", 0)


def test_image_end_needs_a_pin():
    x = builtin("urysohn")
    col = next(e for e in ends(x) if e.describe() == "G(+,p)")
    assert image_end(sym_identity(x), col.pin(0)).describe() == "G(+,0)"
    with pytest.raises(UnclassifiableImageTrace):
        image_end(sym_identity(x), col)


def test_image_end_refuses_a_minus_end_onto_a_floor(shift):
    # ends() drops a minus end on an ℕ ray and build_sym_map refuses an image
    # below a floor, so only a class built by hand reaches this guard
    with pytest.raises(UnclassifiableImageTrace) as exc:
        image_end(shift, EndClass("R1", ("minus",)))
    assert str(exc.value) == "R1(-) maps toward the floor of 'R1'"


def test_an_end_class_of_another_shape_is_refused(ray1):
    corner = EndClass("R1", ("plus", "plus"))
    with pytest.raises(UnknownPoint, match="no grid named 'R1'"):
        trace_sym(ray1.schema, corner, None)
    with pytest.raises(UnknownPoint, match="no grid named 'R1'"):
        image_end(sym_identity(ray1), corner)
