"""Window sampling that is exact for unit-slope interval predicates.

Every set handled by the symbolic layer is a finite union of rectangles
whose endpoints are affine in the parameters with slope +1 or -1 and
constant part bounded by some B.  Any Boolean combination of membership
facts about such sets, viewed along one integer variable with the others
fixed, can only change truth value where the variable crosses one of
those endpoints.  Beyond 2B+3 on either side no endpoint remains, so the
truth value is constant there, and the whole predicate is determined by
its values on a finite window plus two constant tails.

The axis solver below samples the window, then re-checks the presumed
tails at guard points with pairwise coprime gaps.  When the guards
disagree, the bound was too small for the predicate and
:class:`~pretop.errors.FragmentEscape` is raised instead of an
approximation.
"""

from __future__ import annotations

from itertools import product

from ..errors import FragmentEscape
from ..intervals import INF, NEG_INF, AxisDomain, IntervalSet
from .exprs import SymDefSet, SymExpr

GUARD_OFFSETS = (2, 5, 9)


def stabilization(bound: int) -> int:
    """Window radius beyond which unit-slope predicates are constant."""
    return 2 * bound + 3


def axis_window(axis: AxisDomain, bound: int) -> tuple:
    """Sample points and (low guards, high guards) for one axis."""
    stab = stabilization(bound)
    if axis.kind == "nat":
        xs = list(range(axis.low, axis.low + stab + 1))
        return xs, [], [axis.low + stab + g for g in GUARD_OFFSETS]
    xs = list(range(-stab, stab + 1))
    return xs, [-stab - g for g in GUARD_OFFSETS], [stab + g for g in GUARD_OFFSETS]


def _runs(xs: list, vals: list) -> list:
    runs = []
    start = None
    for x, v in zip(xs, vals):
        if v and start is None:
            start = x
        elif not v and start is not None:
            runs.append((start, x - 1))
            start = None
    if start is not None:
        runs.append((start, xs[-1]))
    return runs


def solve_axis(axis: AxisDomain, pred, bound: int) -> IntervalSet:
    """Exact solution set of ``pred`` over one axis.

    ``bound`` must dominate the absolute value of every constant a truth
    change of ``pred`` can depend on; the guards turn an underestimate
    into a FragmentEscape rather than a wrong answer whenever the tail
    has not actually settled.
    """
    xs, low_guards, high_guards = axis_window(axis, bound)
    vals = [bool(pred(x)) for x in xs]
    runs = _runs(xs, vals)
    hi_tail = vals[-1]
    for g in high_guards:
        if bool(pred(g)) != hi_tail:
            raise FragmentEscape(
                f"axis predicate not settled above {xs[-1]}: guard {g} disagrees"
            )
    if hi_tail:
        lo0, _ = runs[-1]
        runs[-1] = (lo0, INF)
    if low_guards:
        lo_tail = vals[0]
        for g in low_guards:
            if bool(pred(g)) != lo_tail:
                raise FragmentEscape(
                    f"axis predicate not settled below {xs[0]}: guard {g} disagrees"
                )
        if lo_tail:
            _, hi0 = runs[0]
            runs[0] = (NEG_INF, hi0)
    return IntervalSet.from_pairs(axis, runs)


# -- affine fitting ----------------------------------------------------------

def fit_endpoint(varname: str, samples):
    """Fit one endpoint as const, var+c, -var+c or an infinity.

    ``samples`` pairs each variable value with the observed endpoint.
    Returns a SymExpr, an infinity, or None when no unit-slope affine
    form matches every sample.
    """
    vals = [v for _, v in samples]
    if all(v == INF for v in vals):
        return INF
    if all(v == NEG_INF for v in vals):
        return NEG_INF
    if any(isinstance(v, float) for v in vals):
        return None
    if all(v == vals[0] for v in vals):
        return SymExpr.const(vals[0])
    (x0, y0) = samples[0]
    slope = None
    prev_x, prev_y = x0, y0
    for x, y in samples[1:]:
        if x == prev_x:
            if y != prev_y:
                return None
            continue
        s, rem = divmod(y - prev_y, x - prev_x)
        if rem != 0 or s not in (1, -1) or (slope is not None and s != slope):
            return None
        slope = s
        prev_x, prev_y = x, y
    if slope == 1:
        return SymExpr.plus(varname, y0 - x0)
    if slope == -1:
        return SymExpr.minus(varname, y0 + x0)
    return None


def fit_intervalsets(varname: str, samples) -> tuple | None:
    """Fit a family of interval sets as one endpoint pair per part, or None."""
    sets = [s for _, s in samples]
    n = len(sets[0].parts)
    if any(len(s.parts) != n for s in sets):
        return None
    pairs = []
    for i in range(n):
        lo = fit_endpoint(varname, [(x, s.parts[i][0]) for x, s in samples])
        hi = fit_endpoint(varname, [(x, s.parts[i][1]) for x, s in samples])
        if lo is None or hi is None:
            return None
        pairs.append((lo, hi))
    return tuple(pairs)


def fit_defsets(varname: str, samples) -> SymDefSet | None:
    """Fit a family of concrete sets as one symbolic set, or None.

    Requires the canonical shape (strands met, box counts, piece counts)
    to be uniform across the samples; boxes split as in ``from_defset``.
    """
    xs, sets = zip(*samples)
    shape = [(name, len(boxes)) for name, boxes in sets[0].parts]
    if any([(name, len(boxes)) for name, boxes in d.parts] != shape for d in sets):
        return None
    parts = []
    for i, (name, count) in enumerate(shape):
        boxes = []
        for j in range(count):
            per_axis = zip(*(d.parts[i][1][j] for d in sets))
            fitted = [fit_intervalsets(varname, list(zip(xs, axis))) for axis in per_axis]
            if None in fitted:
                return None
            boxes += product(*fitted)
        parts.append((name, tuple(boxes)))
    return SymDefSet(sets[0].schema, tuple(parts))
