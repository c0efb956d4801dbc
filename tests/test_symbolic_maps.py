"""Strand-wise maps: images must stay exact or refuse loudly, and the
continuity decision must match hand-checked examples on the builtins."""

import pytest

from pretop.defsets import DefSet, Point
from pretop.errors import (
    FragmentEscape,
    SchemaMismatch,
    UnclassifiableImageTrace,
    UnknownPoint,
)
from pretop.model import eval_set, parse_set_expr, set_literal
from pretop.symbolic import (
    AffineAxis,
    StrandMap,
    build_sym_map,
    builtin,
    ends,
    image_end,
    sym_identity,
    sym_image,
    sym_is_continuous,
)


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
    with pytest.raises(UnknownPoint):
        build_sym_map(ray1, ray1, {"R1": StrandMap.shift("R1", -1)})


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


def test_stretching_images_refuse_infinite_pieces(ray1):
    double = build_sym_map(ray1, ray1, {"R1": StrandMap.affine("R1", AffineAxis(2, 0))})
    assert sym_image(double, _set(ray1, "ray(R1; 0..2)")) == _set(ray1, "ray(R1; 0) | ray(R1; 2) | ray(R1; 4)")
    with pytest.raises(FragmentEscape):
        sym_image(double, _set(ray1, "ray(R1; 2..)"))


# -- continuity -----------------------------------------------------------------


def test_shift_is_continuous(shift):
    assert sym_is_continuous(shift).ok
    assert sym_is_continuous(shift, "adh-set").ok


def test_pole_swap_is_discontinuous():
    x = builtin("urysohn")
    swap = build_sym_map(
        x, x, {"G": "G", "pinf": Point.atom("minf"), "minf": Point.atom("pinf")}
    )
    v = sym_is_continuous(swap)
    assert not v.ok
    p, _ = v.witness
    assert p.describe() in ("pinf", "minf")


def test_constant_map_is_continuous():
    x = builtin("urysohn")
    half = builtin("half_grid")
    const = build_sym_map(
        x,
        half,
        {"G": StrandMap.to_point(Point.atom("pinf")), "pinf": Point.atom("pinf"), "minf": Point.atom("pinf")},
    )
    assert sym_is_continuous(const).ok
    assert sym_is_continuous(const, "adh-set").ok


def test_row_collapse_onto_half_grid_is_continuous():
    # forgetting the sign of the column is continuous on the grid part
    x = builtin("half_grid")
    assert sym_is_continuous(build_sym_map(x, x, {"G": "G", "pinf": Point.atom("pinf")})).ok


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
