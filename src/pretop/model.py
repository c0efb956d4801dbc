"""Model files: a small text format naming spaces, maps, and sets.

A document is a sequence of declarations.  Point order in a ``space``
or ``topology`` block fixes the bitmask index order used everywhere
downstream, so it is preserved verbatim.  A ``topology`` block lists its
opens; it is read into its vicinity form, whose least vicinity at a
point is the least open holding it, and the opens are kept for printing.

    # three-point chain
    space Q3 {
      points: 1 2 3;
      vicinity 1: {1};
      vicinity 2: {1 2};
      vicinity 3: {2 3};
    }

    topology S2 {
      points: x y;
      opens: {} {y} {x y};
    }

    map f: Q3 -> S2 { 1 -> x; 2 -> y; 3 -> y; }

    builtin U = urysohn
    builtin R2 = discrete_ray(2)

    set B = grid(G; cols>0)
    set A = grid(G; cols=0) | atom(pinf)

Set expressions combine strand terms with ``|`` (union), ``&``
(intersection), ``\\`` (difference), ``~`` (complement, relative to
the space) and parentheses; precedence ``~`` > ``&`` > ``\\`` > ``|``,
binary operators left-associative.  ``{a b}`` is a finite literal
naming points (atoms, on a symbolic space); ``all`` and ``empty`` are
constants; a bare name refers to another ``set`` declaration.

A strand term takes one interval clause per axis at most: an atom
none, a ray one unlabelled clause (``ray(R; 3..)``), a grid ``rows``
and ``cols`` at most once each, in either order; ``=`` after a label is
optional (``rows 1`` is ``rows=1``).  Interval clauses accept comparison
forms (``rows>3``, ``cols!=0``) and range lists (``rows=1..4,7``); both
normalize to the same range-list form, which is what the canonical
printer emits, rows before cols.  Line comments start with ``#``.
"""

from __future__ import annotations

import re

from .defsets import KINDS, DefSet, GroundSchema
from .errors import (
    AxiomViolation,
    InvalidTopology,
    ParseError,
    ResolutionError,
    SizeLimit,
    UnknownBuiltin,
    UnknownPoint,
)
from .finite import FinitePretop, mask_reader, validate_space
from .intervals import INTEGERS, IntervalSet
from .maps import SpaceMap
from .record import field, record
from .symbolic import SymbolicPretop, builtin

# -- set-expression syntax tree ----------------------------------------------
#
# A strand term holds one spec per axis of its strand, in the strand's
# axis order (rows, then cols).  A spec is the normal parts of an
# ``IntervalSet`` over ``INTEGERS``, as the parser read them: sorted,
# disjoint, non-adjacent (lo, hi) pairs, ±inf for an open end.  None
# stands for the whole axis.  Equal documents therefore compare equal
# structurally, which the round-trip law relies on.


@record
class StrandTerm:
    kind: str  # "atom" | "ray" | "grid"
    name: str
    specs: tuple


@record
class FiniteLit:
    names: tuple


@record
class Const:
    which: str  # "all" | "empty"


@record
class SetRef:
    name: str


@record
class Not:
    arg: object


@record
class BinOp:
    op: str  # "|" | "&" | "\\"
    left: object
    right: object


# -- declarations -------------------------------------------------------------


@record
class SpaceDecl:
    name: str
    space: FinitePretop


@record
class TopologyDecl:
    name: str
    space: FinitePretop  # least open per point
    opens: tuple  # the distinct open masks, ascending


@record
class MapDecl:
    name: str
    source: str
    target: str
    entries: tuple  # ((source point, target point), ...) as declared
    line: int = field(default=0, compare=False)


@record
class BuiltinDecl:
    name: str
    kind: str  # "urysohn" | "half_grid" | "discrete_ray"
    arg: int | None = None

    @property
    def key(self) -> str:
        return self.kind if self.arg is None else f"{self.kind}({self.arg})"


@record
class SetDecl:
    name: str
    expr: object
    line: int = field(default=0, compare=False)


class ModelDocument:
    """Parsed declarations with every name resolved.

    Equality is structural on the declarations, so a canonical
    reprint parses back to an equal document.
    """

    def __init__(self, declarations):
        self.declarations = tuple(declarations)
        self._by_name = {}
        for d in self.declarations:
            if d.name in self._by_name:
                raise ResolutionError(f"name {d.name!r} declared twice")
            self._by_name[d.name] = d
        self._maps = {}
        self._set_refs = {}  # set name -> names its expression refers to
        self._set_order = []  # set names, each after the sets it refers to
        self._resolve()

    def __eq__(self, other):
        if not isinstance(other, ModelDocument):
            return NotImplemented
        return self.declarations == other.declarations

    def __hash__(self):
        return hash(self.declarations)

    # -- lookups -------------------------------------------------------------

    def _decl(self, name: str, kinds: tuple, what: str):
        d = self._by_name.get(name)
        if d is None or not isinstance(d, kinds):
            raise ResolutionError(f"no {what} named {name!r}")
        return d

    def finite(self, name: str) -> FinitePretop:
        """A finite space by name; topologies give their vicinity form."""
        return self._decl(name, (SpaceDecl, TopologyDecl), "finite space").space

    def space(self, name: str):
        """Finite or symbolic space by name."""
        d = self._decl(name, (SpaceDecl, TopologyDecl, BuiltinDecl), "space")
        if isinstance(d, BuiltinDecl):
            return builtin(d.key)
        return self.finite(name)

    def map(self, name: str) -> SpaceMap:
        self._decl(name, (MapDecl,), "map")
        return self._maps[name]

    def set_expr(self, name: str):
        return self._decl(name, (SetDecl,), "set").expr

    def set_closure(self, names) -> list:
        """The named sets and every set they refer to, in dependency order."""
        need, todo = set(), list(names)
        while todo:
            name = todo.pop()
            if name not in need:
                self.set_expr(name)
                need.add(name)
                todo += self._set_refs[name]
        return [n for n in self._set_order if n in need]

    # -- resolution ------------------------------------------------------------

    def _resolve(self):
        for d in self.declarations:
            if isinstance(d, MapDecl):
                self._maps[d.name] = self._resolve_map(d)
            elif isinstance(d, SetDecl):
                self._order_sets(d.name)

    def _resolve_map(self, d: MapDecl) -> SpaceMap:
        where = f"line {d.line}: map {d.name!r}"
        try:
            src = self.finite(d.source)
            dst = self.finite(d.target)
        except ResolutionError as e:
            raise ResolutionError(f"{where}: {e}") from None
        table = {}
        for p, q in d.entries:
            if p not in src.points:
                raise ResolutionError(f"{where}: source has no point {p!r}")
            if q not in dst.points:
                raise ResolutionError(f"{where}: target has no point {q!r}")
            table[p] = q
        missing = [p for p in src.points if p not in table]
        if missing:
            raise ResolutionError(f"{where}: no image for point {missing[0]!r}")
        return SpaceMap.from_table(src, dst, table)

    def _order_sets(self, root: str):
        """Depth-first from ``root`` along set references, appending each
        set to the dependency order once the sets it refers to are there.

        The walk keeps its own stack, so reference chains of any length
        resolve, and it enters each declaration once.
        """
        if root in self._set_refs:
            return
        path = {root: self._enter_set(root)}  # the walk's stack, in order
        while path:
            top = next(reversed(path))
            name = next(path[top], None)
            if name is None:
                del path[top]
                self._set_order.append(top)
            elif not isinstance(self._by_name.get(name), SetDecl):
                raise ResolutionError(f"set {root!r} refers to unknown set {name!r}")
            elif name in path:
                raise ResolutionError(f"circular set definition through {name!r}")
            elif name not in self._set_refs:
                path[name] = self._enter_set(name)

    def _enter_set(self, name: str):
        """Record the set's references; an iterator over them."""
        refs = self._set_refs[name] = _ref_names(self._by_name[name].expr)
        return iter(refs)


# -- lexer ---------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r\n]+|\#[^\n]*)
      | (?P<op>->|\.\.|>=|<=|!=|[{}():;=,|&\\~<>])
      | (?P<int>-?\d+)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@record
class _Token:
    kind: str  # "op" | "int" | "name" | "eof"
    value: str
    line: int
    col: int


def _lex(text: str) -> list:
    out = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"stray character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind != "ws":
            out.append(_Token(kind, value, line, col))
        newlines = value.count("\n")
        if newlines:
            line += newlines
            col = len(value) - value.rfind("\n")
        else:
            col += len(value)
        pos = m.end()
    out.append(_Token("eof", "", line, col))
    return out


# -- parser ----------------------------------------------------------------------

_CMP_LOW = {">": lambda n: (n + 1, None), ">=": lambda n: (n, None)}
_CMP_HIGH = {"<": lambda n: (None, n - 1), "<=": lambda n: (None, n)}
# Bounds the open ~ and ( while parsing, each of which costs the parser
# several interpreter frames, and the height of the syntax tree, where each
# ~ and each binary operator is one level: evaluation, reference checks,
# printing, eq and hash all recurse once per level.  Deeper input is
# refused before it can exhaust the stack.
_MAX_NESTING = 100
_BINARY = ("|", "\\", "&")  # loosest first
# the clause labels of each kind of strand term, one per axis; a ray's one
# clause is unlabelled
_CLAUSES = {"atom": (), "ray": ("",), "grid": ("rows", "cols")}


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0
        self.depth = 0  # open ~ and ( in the set expression being parsed
        self.height = 0  # tree height of the set expression last parsed

    # -- token plumbing -----------------------------------------------------

    @property
    def tok(self) -> _Token:
        return self.tokens[self.i]

    def _fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.tok
        raise ParseError(message, tok.line, tok.col)

    def advance(self) -> _Token:
        t = self.tok
        if t.kind != "eof":
            self.i += 1
        return t

    def expect_op(self, value: str) -> _Token:
        t = self.tok
        if t.kind != "op" or t.value != value:
            self._fail(f"expected {value!r}, found {t.value!r}" if t.kind != "eof" else f"expected {value!r}, found end of file")
        return self.advance()

    def at_op(self, *values) -> bool:
        return self.tok.kind == "op" and self.tok.value in values

    def point_name(self) -> _Token:
        t = self.tok
        if t.kind not in ("name", "int"):
            self._fail(f"expected a name, found {t.value!r}")
        return self.advance()

    def ident(self) -> _Token:
        t = self.tok
        if t.kind != "name":
            self._fail(f"expected an identifier, found {t.value!r}")
        return self.advance()

    def integer(self) -> int:
        t = self.tok
        if t.kind != "int":
            self._fail(f"expected an integer, found {t.value!r}")
        self.advance()
        return int(t.value)

    # -- document ---------------------------------------------------------------

    def document(self) -> ModelDocument:
        decls = []
        seen = {}
        while self.tok.kind != "eof":
            t = self.tok
            if t.kind != "name":
                self._fail(f"expected a declaration, found {t.value!r}")
            handler = {
                "space": self.space_decl,
                "topology": self.topology_decl,
                "map": self.map_decl,
                "builtin": self.builtin_decl,
                "set": self.set_decl,
            }.get(t.value)
            if handler is None:
                self._fail(f"unknown declaration keyword {t.value!r}")
            d = handler()
            if d.name in seen:
                self._fail(f"name {d.name!r} already declared", t)
            seen[d.name] = d
            decls.append(d)
        return ModelDocument(decls)

    def space_decl(self) -> SpaceDecl:
        head = self.advance()
        name = self.point_name().value
        self.expect_op("{")
        points = self.points_line()
        table = {}
        lines = {}
        while not self.at_op("}"):
            t = self.ident()
            if t.value != "vicinity":
                self._fail("expected a vicinity line", t)
            p = self.point_name()
            if p.value not in points:
                raise ResolutionError(
                    f"line {p.line}: space {name!r} has no point {p.value!r}"
                )
            if p.value in table:
                self._fail(f"duplicate vicinity line for {p.value!r}", p)
            self.expect_op(":")
            table[p.value] = self.brace_names(points, name)
            lines[p.value] = p.line
            self.expect_op(";")
        self.expect_op("}")
        for p in points:
            if p not in table:
                raise ResolutionError(
                    f"line {head.line}: space {name!r} gives no vicinity for {p!r}"
                )
            if p not in table[p]:
                raise AxiomViolation(
                    f"line {lines[p]}: point {p!r} missing from its own vicinity"
                )
        return SpaceDecl(name, validate_space(points, table))

    def topology_decl(self) -> TopologyDecl:
        head = self.advance()
        name = self.point_name().value
        self.expect_op("{")
        points = self.points_line()
        t = self.ident()
        if t.value != "opens":
            self._fail("expected an opens line", t)
        self.expect_op(":")
        mask, full = mask_reader(points), (1 << len(points)) - 1
        opens = set()
        while self.at_op("{"):
            opens.add(mask(self.brace_names(points, name)))
        self.expect_op(";")
        self.expect_op("}")
        if 0 not in opens or full not in opens:
            raise InvalidTopology(f"line {head.line}: missing empty set or whole set")
        for u in opens:
            for v in opens:
                if u | v not in opens or u & v not in opens:
                    raise InvalidTopology(
                        f"line {head.line}: family not closed under union/intersection"
                    )
        least = [full] * len(points)
        for u in opens:
            for i in range(len(points)):
                if u >> i & 1:
                    least[i] &= u
        return TopologyDecl(name, FinitePretop(points, tuple(least)), tuple(sorted(opens)))

    def points_line(self) -> tuple:
        t = self.ident()
        if t.value != "points":
            self._fail("expected a points line", t)
        self.expect_op(":")
        points = []
        while self.tok.kind in ("name", "int"):
            p = self.point_name()
            if p.value in points:
                self._fail(f"duplicate point {p.value!r}", p)
            points.append(p.value)
        if not points:
            self._fail("a space needs at least one point")
        self.expect_op(";")
        return tuple(points)

    def brace_names(self, points: tuple, owner: str) -> tuple:
        self.expect_op("{")
        names = []
        while self.tok.kind in ("name", "int"):
            p = self.point_name()
            if p.value not in points:
                raise ResolutionError(
                    f"line {p.line}: space {owner!r} has no point {p.value!r}"
                )
            if p.value not in names:
                names.append(p.value)
        self.expect_op("}")
        return tuple(names)

    def map_decl(self) -> MapDecl:
        head = self.advance()
        name = self.point_name().value
        self.expect_op(":")
        source = self.point_name().value
        self.expect_op("->")
        target = self.point_name().value
        self.expect_op("{")
        entries = []
        seen = set()
        while not self.at_op("}"):
            p = self.point_name()
            if p.value in seen:
                self._fail(f"duplicate image for {p.value!r}", p)
            seen.add(p.value)
            self.expect_op("->")
            q = self.point_name()
            self.expect_op(";")
            entries.append((p.value, q.value))
        self.expect_op("}")
        return MapDecl(name, source, target, tuple(entries), head.line)

    def builtin_decl(self) -> BuiltinDecl:
        self.advance()
        name = self.point_name().value
        self.expect_op("=")
        kind = self.ident()
        if kind.value in ("urysohn", "half_grid"):
            return BuiltinDecl(name, kind.value)
        if kind.value == "discrete_ray":
            self.expect_op("(")
            arg = self.integer()
            self.expect_op(")")
            try:
                builtin(f"discrete_ray({arg})")
            except (UnknownBuiltin, SizeLimit) as e:
                raise type(e)(f"line {kind.line}: {e}") from None
            return BuiltinDecl(name, "discrete_ray", arg)
        self._fail(f"unknown builtin {kind.value!r}", kind)

    def set_decl(self) -> SetDecl:
        head = self.advance()
        name = self.point_name().value
        self.expect_op("=")
        return SetDecl(name, self.set_expr(), head.line)

    # -- set expressions -----------------------------------------------------

    def set_expr(self, level: int = 0):
        """Left-associative chain of the operator ``_BINARY[level]`` over
        operands of the next level, built in a loop; each operator is one
        level of the tree."""
        if level == len(_BINARY):
            return self.unary_expr()
        op = _BINARY[level]
        node = self.set_expr(level + 1)
        height = self.height
        while self.at_op(op):
            tok = self.advance()
            node = BinOp(op, node, self.set_expr(level + 1))
            height = self.nest(max(height, self.height) + 1, tok)
        self.height = height
        return node

    def nest(self, level: int, tok: _Token) -> int:
        """``level`` itself, once it is known to be within the limit."""
        if level > _MAX_NESTING:
            self._fail(f"set expression nested deeper than {_MAX_NESTING} levels", tok)
        return level

    def unary_expr(self):
        if self.at_op("~"):
            tok = self.advance()
            self.depth = self.nest(self.depth + 1, tok)
            node = Not(self.unary_expr())
            self.depth -= 1
            self.height = self.nest(self.height + 1, tok)
            return node
        return self.primary()

    def primary(self):
        if self.at_op("("):
            self.depth = self.nest(self.depth + 1, self.advance())
            node = self.set_expr()
            self.expect_op(")")
            self.depth -= 1
            return node
        self.height = 0
        if self.at_op("{"):
            self.advance()
            names = []
            while self.tok.kind in ("name", "int"):
                names.append(self.advance().value)
            self.expect_op("}")
            return FiniteLit(tuple(names))
        t = self.tok
        if t.kind != "name":
            self._fail(f"expected a set term, found {t.value!r}")
        self.advance()
        if t.value in ("all", "empty"):
            return Const(t.value)
        if t.value in _CLAUSES:
            return self.strand_term(t.value)
        return SetRef(t.value)

    def strand_term(self, kind: str) -> StrandTerm:
        """``kind(name; clause; ...)`` after its keyword.  Labelled clauses
        are read while a ``;`` follows, so a repeated or unknown label is
        reported as such; an unlabelled clause is read once."""
        labels = _CLAUSES[kind]
        self.expect_op("(")
        name = self.ident().value
        specs, given = [None] * len(labels), set()
        while self.at_op(";") and labels and (labels[0] or not given):
            self.advance()
            axis = self.clause_axis(labels, given)
            specs[axis] = self.interval_spec()
        self.expect_op(")")
        return StrandTerm(kind, name, tuple(specs))

    def clause_axis(self, labels: tuple, given: set) -> int:
        """The axis the next clause sets, added to ``given``: the one axis
        when unlabelled, else the one its label names, at most once."""
        axis = 0
        if labels[0]:
            label = self.ident()
            if label.value not in labels:
                self._fail(f"expected {' or '.join(labels)}", label)
            axis = labels.index(label.value)
            if axis in given:
                self._fail(f"duplicate {label.value} clause", label)
        given.add(axis)
        return axis

    def interval_spec(self) -> tuple | None:
        """Comparison or range-list form, normalized (None for the whole axis)."""
        t = self.tok
        if self.at_op(">", ">=", "<", "<=", "!="):
            self.advance()
            n = self.integer()
            if t.value in _CMP_LOW:
                parts = [_CMP_LOW[t.value](n)]
            elif t.value in _CMP_HIGH:
                parts = [_CMP_HIGH[t.value](n)]
            else:
                parts = [(None, n - 1), (n + 1, None)]
            return self.normalize_parts(parts)
        if self.at_op("="):
            self.advance()
        return self.parts_list()

    def parts_list(self) -> tuple | None:
        parts = [self.one_part()]
        while self.at_op(","):
            self.advance()
            parts.append(self.one_part())
        return self.normalize_parts(parts)

    def one_part(self) -> tuple:
        t = self.tok
        if self.at_op(".."):
            self.advance()
            hi = self.integer() if self.tok.kind == "int" else None
            return (None, hi)
        if t.kind != "int":
            self._fail(f"expected an interval, found {t.value!r}")
        lo = self.integer()
        if self.at_op(".."):
            self.advance()
            hi = self.integer() if self.tok.kind == "int" else None
            if hi is not None and lo > hi:
                self._fail(f"empty interval {lo}..{hi}", t)
            return (lo, hi)
        return (lo, lo)

    def normalize_parts(self, parts) -> tuple | None:
        """The normal parts of ``parts`` (None for an open end) over the
        integers, or None for the whole axis."""
        s = IntervalSet.from_pairs(INTEGERS, parts)
        return None if s.is_full() else s.parts


def parse_model(text: str) -> ModelDocument:
    return _Parser(_lex(text)).document()


def parse_set_expr(text: str):
    """A standalone set expression, as used by --set on the command line."""
    p = _Parser(_lex(text))
    node = p.set_expr()
    if p.tok.kind != "eof":
        p._fail(f"trailing input {p.tok.value!r}")
    return node


# -- evaluation ---------------------------------------------------------------


def eval_set(expr, space, doc: ModelDocument | None = None):
    """Evaluate an expression against a space.

    Returns a bitmask on a finite space and a DefSet on a symbolic
    one; complements are taken relative to the space's own points.
    Referenced sets are evaluated once each, in dependency order.
    """
    if isinstance(space, FinitePretop):
        whole, term = space.full, lambda t: _finite_term(space, t)
    else:
        whole, term = space.carrier_set, lambda t: _symbolic_term(space, t)
    refs = _ref_names(expr)
    if refs and doc is None:
        raise ResolutionError(f"set reference {refs[0]!r} needs a model file")
    values = {}
    for name in doc.set_closure(refs) if refs else ():
        values[name] = _evaluate(doc.set_expr(name), whole, term, values)
    return _evaluate(expr, whole, term, values)


def _ref_names(expr) -> list:
    """Set names an expression refers to, left to right."""
    out, todo = [], [expr]
    while todo:
        e = todo.pop()
        if isinstance(e, SetRef):
            out.append(e.name)
        elif isinstance(e, Not):
            todo.append(e.arg)
        elif isinstance(e, BinOp):
            todo += [e.right, e.left]
    return out


def _evaluate(expr, whole, term, values: dict):
    """The walk both engines share: ``whole`` is the space's full set,
    ``term`` evaluates literals and strand terms and ``values`` holds the
    referenced sets; ``~a`` is ``whole & ~a`` and ``a \\ b`` is ``a & ~b``."""
    if isinstance(expr, SetRef):
        return values[expr.name]
    if isinstance(expr, Not):
        return whole & ~_evaluate(expr.arg, whole, term, values)
    if isinstance(expr, BinOp):
        left = _evaluate(expr.left, whole, term, values)
        right = _evaluate(expr.right, whole, term, values)
        if expr.op == "|":
            return left | right
        if expr.op == "&":
            return left & right
        return left & ~right
    return term(expr)


def _finite_term(space: FinitePretop, expr) -> int:
    if isinstance(expr, Const):
        return space.full if expr.which == "all" else 0
    if not isinstance(expr, FiniteLit):
        raise ResolutionError("strand terms need a symbolic space")
    mask = 0
    for name in expr.names:
        if name not in space.points:
            raise ResolutionError(f"space has no point {name!r}")
        mask |= 1 << space.points.index(name)
    return mask


def _symbolic_term(space: SymbolicPretop, expr) -> DefSet:
    schema, carrier = space.schema, space.carrier_set
    if isinstance(expr, Const):
        return carrier if expr.which == "all" else DefSet.empty(schema)
    if isinstance(expr, FiniteLit):
        try:
            for name in expr.names:
                schema.axes(name, "atom")
        except UnknownPoint as e:
            raise ResolutionError(str(e)) from None
        return DefSet.of(schema, {name: [()] for name in expr.names}) & carrier
    return _strand_defset(schema, expr) & carrier


def _strand_defset(schema: GroundSchema, expr: StrandTerm) -> DefSet:
    try:
        axes = schema.axes(expr.name, expr.kind)
    except UnknownPoint as e:
        raise ResolutionError(str(e)) from None
    box = tuple(
        IntervalSet.full(ax) if spec is None else IntervalSet.from_pairs(ax, spec)
        for ax, spec in zip(axes, expr.specs)
    )
    return DefSet.of(schema, {expr.name: [box]})


# -- printing -------------------------------------------------------------------

_PREC = {"|": 1, "\\": 2, "&": 3}


def _term_text(term: StrandTerm) -> str:
    """``kind(name; clause; ...)``, one clause per axis that is not whole."""
    clauses = [term.name]
    for label, spec in zip(_CLAUSES[term.kind], term.specs):
        if spec is not None:
            prefix = f"{label}=" if label else ""
            clauses.append(prefix + IntervalSet(INTEGERS, spec).describe())
    return f"{term.kind}({'; '.join(clauses)})"


def print_set_expr(expr) -> str:
    text, _ = _print_expr(expr)
    return text


def _print_expr(expr) -> tuple:
    """Text plus binding strength, for minimal parenthesization."""
    if isinstance(expr, StrandTerm):
        return _term_text(expr), 5
    if isinstance(expr, FiniteLit):
        return _braces(expr.names), 5
    if isinstance(expr, Const):
        return expr.which, 5
    if isinstance(expr, SetRef):
        return expr.name, 5
    if isinstance(expr, Not):
        text, prec = _print_expr(expr.arg)
        if prec < 4:
            text = f"({text})"
        return f"~{text}", 4
    left, lp = _print_expr(expr.left)
    right, rp = _print_expr(expr.right)
    p = _PREC[expr.op]
    if lp < p:
        left = f"({left})"
    if rp <= p:
        right = f"({right})"
    return f"{left} {expr.op} {right}", p


def _braces(names) -> str:
    return "{" + " ".join(names) + "}"


def print_model(doc: ModelDocument) -> str:
    blocks = []
    for d in doc.declarations:
        if isinstance(d, SpaceDecl):
            sp = d.space
            lines = [f"space {d.name} {{", f"  points: {' '.join(sp.points)};"]
            for i, p in enumerate(sp.points):
                lines.append(f"  vicinity {p}: {_braces(sp.names(sp.vicinity[i]))};")
            lines.append("}")
            blocks.append("\n".join(lines))
        elif isinstance(d, TopologyDecl):
            opens = " ".join(_braces(d.space.names(u)) for u in d.opens)
            blocks.append(
                "\n".join(
                    [
                        f"topology {d.name} {{",
                        f"  points: {' '.join(d.space.points)};",
                        f"  opens: {opens};",
                        "}",
                    ]
                )
            )
        elif isinstance(d, MapDecl):
            lines = [f"map {d.name}: {d.source} -> {d.target} {{"]
            for p, q in d.entries:
                lines.append(f"  {p} -> {q};")
            lines.append("}")
            blocks.append("\n".join(lines))
        elif isinstance(d, BuiltinDecl):
            blocks.append(f"builtin {d.name} = {d.key}")
        else:
            blocks.append(f"set {d.name} = {print_set_expr(d.expr)}")
    return "\n\n".join(blocks) + "\n"


# -- canonical literals for answers ---------------------------------------------


def set_literal(d: DefSet) -> str:
    """Canonical expression text denoting a definable set: the union of
    its boxes, each printed as the strand term holding its parts.

    Evaluating the result on the schema's full carrier reproduces the
    set, which keeps golden answers byte-stable and reparseable.
    """
    if d.is_empty():
        return "empty"
    if d == DefSet.full(d.schema):
        return "all"
    return " | ".join(
        _term_text(StrandTerm(KINDS[len(box)], name, tuple(None if s.is_full() else s.parts for s in box)))
        for name, boxes in d.parts
        for box in boxes
    )


def finite_literal(space: FinitePretop, mask: int) -> str:
    """Point-name braces for a mask, in declaration order."""
    return _braces(space.names(mask))
