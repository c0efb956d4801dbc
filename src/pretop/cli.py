"""Command line workbench over the model format and the space toolkit.

Exit codes: 0 success or property true, 1 property false (witness in the
report), 2 model parse error or usage error, 3 invalid model or reference
or an I/O error, 4 size or fragment limit hit.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from .construct import make_extension, simple_extension, strict_extension, theta_quotient
from .defsets import DefSet, Point
from .errors import (
    FragmentEscape,
    ParseError,
    SizeLimit,
    UnclassifiableImageTrace,
    WorkbenchError,
)
from .finite import FinitePretop, is_cover_compact, is_hausdorff, is_topological
from .maps import is_continuous, is_perfect
from .model import (
    ModelDocument,
    SpaceDecl,
    eval_set,
    finite_literal,
    parse_model,
    parse_set_expr,
    print_model,
    set_literal,
)
from .regularize import is_quasi_phc, partial_regularization
from .symbolic import (
    EndClass,
    SymbolicPretop,
    builtin,
    cl_theta,
    sym_adh,
    sym_hausdorff,
    sym_inh,
    sym_is_compact,
    sym_regularize,
)

_LIMIT_ERRORS = (SizeLimit, FragmentEscape, UnclassifiableImageTrace)


class MissingFlag(WorkbenchError):
    """A flag required by the requested action was not given."""


def _load(path: str | None) -> ModelDocument:
    if not path:
        raise MissingFlag("-f/--file is required")
    with open(path, encoding="utf-8") as fh:
        return parse_model(fh.read())


def _target(args) -> tuple:
    """(document, space): with -f the model's space named by --space,
    without it the builtin space whose key --space gives."""
    if args.file:
        doc = _load(args.file)
        return doc, doc.space(args.space)
    return None, builtin(args.space)


def _serialize(w):
    """Witnesses as JSON-ready values: names stay strings, sets become lists."""
    if w is None or isinstance(w, (bool, int, str)):
        return w
    if isinstance(w, Point):
        return w.describe()
    if isinstance(w, EndClass):
        return w.describe()
    if isinstance(w, DefSet):
        return set_literal(w)
    if isinstance(w, (tuple, list, frozenset, set)):
        items = sorted(w, key=repr) if isinstance(w, (set, frozenset)) else w
        return [_serialize(v) for v in items]
    return repr(w)


class Report:
    """One command outcome: a result value, an optional witness, provenance."""

    def __init__(self, result, witness=None, text=None, exit_code=0, json_override=None):
        self.result = result
        self.witness = witness
        self.text = text if text is not None else str(result)
        self.exit_code = exit_code
        self.json_override = json_override  # full document, already schema-stable

    @classmethod
    def from_verdict(cls, v) -> "Report":
        w = _serialize(v.witness)
        text = "true" if v.ok else "false"
        if not v.ok and w is not None:
            import json  # most reports print no JSON; json costs about 2 ms to load

            text += f"\nwitness: {json.dumps(w)}"
        return cls(v.ok, w, text, 0 if v.ok else 1)


def _emit(args, started: float, prov: dict, report: Report) -> int:
    if getattr(args, "json", False):
        if report.json_override is not None:
            print(report.json_override)
            return report.exit_code
        import json

        doc = {
            "result": report.result,
            "witness": report.witness,
            "elapsed_ms": round((time.perf_counter() - started) * 1000, 3),
            "provenance": prov,
        }
        print(json.dumps(doc, indent=2))
    else:
        print(report.text)
    return report.exit_code


def _provenance(command: str, args, keys: tuple) -> dict:
    prov = {"command": command}
    for k in keys:
        prov[k] = getattr(args, k.replace("-", "_"), None)
    return prov


def _finite_set(doc: ModelDocument, space: FinitePretop, text: str) -> int:
    return eval_set(parse_set_expr(text), space, doc)


# -- subcommand bodies ---------------------------------------------------------


def _cmd_validate(args) -> Report:
    doc = _load(args.file)
    return Report(True, text=f"ok: {len(doc.declarations)} declarations")


def _cmd_compute(args) -> Report:
    if args.what != "cl-theta" and args.iterations != 1:
        raise ValueError("--iterations applies to cl-theta only")
    doc, target = _target(args)
    if isinstance(target, SymbolicPretop):
        s = eval_set(parse_set_expr(args.set), target, doc)
        if args.what == "adh":
            out = sym_adh(target, s)
        elif args.what == "inh":
            out = sym_inh(target, s)
        else:
            out = cl_theta(target, s, args.iterations)
        return Report(set_literal(out))
    if args.what == "cl-theta" and args.iterations < 1:
        raise ValueError("iterations must be at least 1")
    mask = _finite_set(doc, target, args.set)
    if args.what == "adh":
        out = target.adh(mask)
    elif args.what == "inh":
        out = target.inh(mask)
    else:
        r = partial_regularization(target)
        out = mask
        for _ in range(args.iterations):
            out, prev = r.adh(out), out
            if out == prev:
                break  # every further step would repeat the fixed point
    return Report(finite_literal(target, out))


def _cmd_check(args) -> Report:
    if args.prop in ("continuous", "perfect"):
        doc = _load(args.file)
        if not args.map:
            raise MissingFlag("--map is required for map properties")
        f = doc.map(args.map)
        if args.prop == "continuous":
            v = is_continuous(f, args.method) if args.method else is_continuous(f)
        else:
            v = is_perfect(f, args.method) if args.method else is_perfect(f)
        return Report.from_verdict(v)
    if not args.space:
        raise MissingFlag("--space is required for space properties")
    _, target = _target(args)
    if isinstance(target, SymbolicPretop):
        if args.method not in (None, "plain", "theta"):
            raise ValueError(f"unknown method {args.method!r}")
        if args.method == "theta":
            target = sym_regularize(target)
        if args.prop == "hausdorff":
            return Report.from_verdict(sym_hausdorff(target))
        if args.prop == "compact":
            return Report.from_verdict(sym_is_compact(target))
        raise MissingFlag(f"{args.prop} is a finite-space property")
    if args.prop in ("hausdorff", "topological"):
        if args.method is not None:  # the one route takes no method
            raise ValueError(f"unknown method {args.method!r}")
        decide = is_hausdorff if args.prop == "hausdorff" else is_topological
        return Report.from_verdict(decide(target))
    if args.prop == "compact":
        method = args.method or "cover"
        return Report.from_verdict(is_cover_compact(target, target.full, method))
    method = args.method or "rpi-compact"
    return Report.from_verdict(is_quasi_phc(target, method))


def _cmd_map(args) -> Report:
    doc = _load(args.file)
    f = doc.map(args.map)
    if args.action == "graph":
        lines = [f"{p} -> {f.target.points[j]}" for p, j in zip(f.source.points, f.graph)]
        return Report(lines, text="\n".join(lines))
    if not args.set:
        raise MissingFlag("--set is required for image/preimage")
    if args.action == "image":
        mask = _finite_set(doc, f.source, args.set)
        return Report(finite_literal(f.target, f.image_mask(mask)))
    mask = _finite_set(doc, f.target, args.set)
    return Report(finite_literal(f.source, f.preimage_mask(mask)))


def _cmd_construct(args) -> Report:
    doc = _load(args.file)
    space = doc.finite(args.space)
    if args.what == "quotient":
        if not args.map:
            raise MissingFlag("--map is required for quotient")
        f = doc.map(args.map)
        table = {f.source.points[i]: f.target.points[j] for i, j in enumerate(f.graph)}
        out, name = theta_quotient(space, table).target, f"{args.space}_quotient"
    elif args.what == "regularize":
        out, name = partial_regularization(space), f"r_{args.space}"
    else:
        if not args.set:
            raise MissingFlag("--set is required for extensions")
        e = make_extension(space, _finite_set(doc, space, args.set))
        if args.what == "strict-extension":
            out, name = strict_extension(e), f"{args.space}_plus"
        else:
            out, name = simple_extension(e), f"{args.space}_sharp"
    block = print_model(ModelDocument((SpaceDecl(name, out),)))
    return Report(block, text=block.rstrip("\n"))


def _cmd_oracle(args) -> Report:
    from .oracle import run_suites  # the batteries load only for this command

    names = "all" if args.suites == "all" else [s for s in args.suites.split(",") if s]
    summary = run_suites(
        suites=names,
        max_points=args.max_points,
        seed=args.seed,
        workers=args.workers,
    )
    lines = []
    for r in summary.suites:
        flag = "ok  " if r.failures == 0 else "FAIL"
        lines.append(f"{flag} {r.name:24s} checked={r.checked:7d} failures={r.failures}")
        if r.counterexample:
            lines.append(f"     first: {r.counterexample}")
    lines.append("all suites pass" if summary.all_pass else "FAILURES FOUND")
    # The oracle report keeps its own schema: rerunning with another worker
    # count must stay byte-identical, which a timing field would break.
    return Report(
        summary.all_pass,
        text="\n".join(lines),
        exit_code=0 if summary.all_pass else 1,
        json_override=summary.to_json(),
    )


def _cmd_builtin(args) -> Report:
    """``builtin NAME --check P`` is ``check P --space NAME`` and
    ``builtin NAME --compute W`` is ``compute W --space NAME``."""
    builtin(args.name)  # an unknown name is reported before a missing flag
    if args.check:
        return _cmd_check(
            argparse.Namespace(
                prop=args.check, file=None, space=args.name, map=None, method=args.method
            )
        )
    if not args.compute:
        raise MissingFlag("one of --compute or --check is required")
    if not args.set:
        raise MissingFlag("--set is required with --compute")
    return _cmd_compute(
        argparse.Namespace(
            what=args.compute, file=None, space=args.name, set=args.set, iterations=args.iterations
        )
    )


_COMMANDS = {
    "validate": (_cmd_validate, ("file",)),
    "compute": (_cmd_compute, ("what", "file", "space", "set", "iterations")),
    "check": (_cmd_check, ("prop", "file", "space", "map", "method")),
    "map": (_cmd_map, ("action", "file", "map", "set")),
    "construct": (_cmd_construct, ("what", "file", "space", "map", "set")),
    "oracle": (_cmd_oracle, ("suites", "max_points", "seed", "workers")),
    "builtin": (_cmd_builtin, ("name", "compute", "check", "set", "iterations", "method")),
}


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="pretop", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, file=True):
        if file:
            p.add_argument("-f", "--file", help="model file (.pt)")
        p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("validate", help="parse and resolve a model file")
    common(p)

    p = sub.add_parser("compute", help="evaluate an operator over a named set")
    p.add_argument("what", choices=("adh", "inh", "cl-theta"))
    common(p)
    p.add_argument(
        "--space", required=True, help="space name (model space, or builtin key without -f)"
    )
    p.add_argument("--set", required=True, help="set literal or named set")
    p.add_argument("--iterations", type=int, default=1)

    p = sub.add_parser("check", help="decide a property, exit 1 with a witness if false")
    p.add_argument(
        "prop",
        choices=("hausdorff", "topological", "compact", "quasi-phc", "continuous", "perfect"),
    )
    common(p)
    p.add_argument("--space", help="space name (model space, or builtin key without -f)")
    p.add_argument("--map")
    p.add_argument("--method")

    p = sub.add_parser("map", help="evaluate a declared map")
    p.add_argument("action", choices=("image", "preimage", "graph"))
    common(p)
    p.add_argument("--map", required=True)
    p.add_argument("--set")

    p = sub.add_parser("construct", help="derive a space and print it as a model block")
    p.add_argument(
        "what",
        choices=("regularize", "strict-extension", "simple-extension", "quotient"),
    )
    common(p)
    p.add_argument("--space", required=True)
    p.add_argument("--map")
    p.add_argument("--set")

    p = sub.add_parser("oracle", help="run the cross-checking batteries")
    p.add_argument("--suites", default="all", help="comma-separated suite names")
    p.add_argument("--max-points", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    common(p, file=False)

    p = sub.add_parser(
        "builtin", help="shorthand for compute/check on a built-in space: --space NAME without -f"
    )
    p.add_argument("name", help="urysohn | half_grid | discrete_ray(N)")
    p.add_argument("--compute", choices=("adh", "inh", "cl-theta"))
    p.add_argument("--check", choices=("compact", "hausdorff"))
    p.add_argument("--set")
    p.add_argument("--iterations", type=int, default=1)
    p.add_argument("--method", choices=("plain", "theta"), default="plain")
    common(p, file=False)

    return top


def run_command(argv) -> int:
    args = _build_parser().parse_args(argv)
    body, prov_keys = _COMMANDS[args.command]
    started = time.perf_counter()
    sub = getattr(args, "what", None) or getattr(args, "prop", None) or getattr(args, "action", None)
    label = f"{args.command} {sub}" if sub else args.command
    prov = _provenance(label, args, prov_keys)
    try:
        report = body(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except _LIMIT_ERRORS as exc:
        print(f"limit: {exc}", file=sys.stderr)
        return 4
    except (WorkbenchError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    return _emit(args, started, prov, report)


def main() -> None:
    """The ``pretop`` command: run it, flush both streams, and end the
    process without interpreter teardown, which would only free every
    module and table just before the OS reclaims them (``mypy.util.hard_exit``
    does the same).  ``run_command`` is the in-process entry point.  A closed
    output pipe is an I/O error like any other (exit 3); any other exception
    leaves through the normal exit path with its traceback."""
    try:
        code = run_command(sys.argv[1:])
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the fd was closed at start-up
                stream.flush()
    except BrokenPipeError as exc:
        code = 3
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
    os._exit(code)


if __name__ == "__main__":
    main()
