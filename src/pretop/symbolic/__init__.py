"""Exact analysis of infinite spaces given by parametric vicinity rules."""

from .analysis import (
    DefFilterBase,
    EndClass,
    ParametricAnswer,
    cl_theta,
    end_converges,
    ends,
    noncompact_ends,
    sym_adh,
    sym_compact_at,
    sym_hausdorff,
    sym_inh,
    sym_is_compact,
    sym_regularize,
    sym_restrict,
)
from .exprs import SymDefSet, SymExpr, SymInterval, SymIntervalSet, sym_grid, sym_ray
from .maps import (
    StrandMap,
    SymbolicMap,
    build_sym_map,
    image_end,
    sym_identity,
    sym_image,
    sym_is_continuous,
)
# nothing calls the window sampler, but perfbench/tracer.py wraps two of
# its functions by name after `import pretop.cli` (ROADMAP item 1)
from . import solve  # noqa: F401
from .space import (
    PointPattern,
    SymbolicPretop,
    VicinityRule,
    build_symbolic,
    builtin,
    truncate,
)

__all__ = [
    "DefFilterBase",
    "EndClass",
    "ParametricAnswer",
    "PointPattern",
    "StrandMap",
    "SymDefSet",
    "SymExpr",
    "SymInterval",
    "SymIntervalSet",
    "SymbolicMap",
    "SymbolicPretop",
    "VicinityRule",
    "build_sym_map",
    "build_symbolic",
    "builtin",
    "cl_theta",
    "end_converges",
    "ends",
    "image_end",
    "noncompact_ends",
    "sym_adh",
    "sym_compact_at",
    "sym_grid",
    "sym_hausdorff",
    "sym_identity",
    "sym_image",
    "sym_inh",
    "sym_is_compact",
    "sym_is_continuous",
    "sym_ray",
    "sym_regularize",
    "sym_restrict",
    "truncate",
]
