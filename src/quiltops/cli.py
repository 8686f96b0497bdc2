"""Command line surface: calculators, verification suites, rendering.

Every verification suite is a thin driver over module operations; the
exit code is 0 exactly when all checks pass, so CI can gate on the
identities.  Arity-6 homology and the marked L-infinity relation from
arity 7 sit behind --deep: without it such a request exits 2 before any check
runs, as does a --max-arity that leaves nothing to check or a homology
--arity below 1, so a PASS never hides a skipped or empty suite.  Bad
input to a calculator (an operand that does not parse or is empty, an
arity below 1, a degree below 0 or any degree for trees, an unknown ring,
marks outside the arity, rep squaring over a ring not of characteristic
2) also exits 2 with one line on stderr.
"""

import argparse
import json
import sys
import time

from .rings import RingError, parse_ring
from .words import parse_word, enumerate_words
from .trees import parse_tree, enumerate_trees
from .quilts import parse_quilt, enumerate_quilts
from .extensions import boundary, check_slot, compose


class Report:
    def __init__(self, suite, fmt="text"):
        self.suite = suite
        self.fmt = fmt
        self.checks = []

    def add(self, name, passed, residual="", t=0.0):
        self.checks.append({"check": name, "status": "PASS" if passed else "FAIL",
                            "residual": str(residual), "seconds": round(t, 3)})

    def run(self, name, fn):
        t0 = time.perf_counter()
        residual = fn()
        if isinstance(residual, bool):
            ok, res = residual, ""
        else:
            ok = getattr(residual, "is_zero", lambda: not residual)()
            res = "" if ok else residual
        self.add(name, ok, res, time.perf_counter() - t0)

    def emit(self, out=None):
        out = out if out is not None else sys.stdout
        passed = sum(c["status"] == "PASS" for c in self.checks)
        if self.fmt == "json":
            json.dump({"suite": self.suite, "checks": self.checks, "passed": passed,
                       "failed": len(self.checks) - passed}, out, indent=2)
            out.write("\n")
        else:
            for c in self.checks:
                line = "%-4s %-52s %8.2fs" % (c["status"], c["check"], c["seconds"])
                if c["residual"]:
                    line += "  residual: %s" % c["residual"]
                out.write(line + "\n")
            out.write("%s: %d/%d checks passed\n" % (self.suite, passed, len(self.checks)))
        return 0 if passed == len(self.checks) else 1


def _fail(command, error):
    print("%s: %s" % (command, error), file=sys.stderr)
    return 2


def _parse(parse, text):
    try:
        return parse(text)
    except ValueError as e:
        raise ValueError("cannot parse %r: %s" % (text, e)) from None


def _cmd_enumerate(args):
    kind = args.kind
    n = args.arity
    if n < 1:
        return _fail("enumerate", "--arity %d has no %ss: arities start at 1" % (n, kind))
    if kind == "tree" and args.degree is not None:
        return _fail("enumerate", "--degree %d does not apply to trees: trees have no degree"
                     % args.degree)
    if (args.degree or 0) < 0:
        return _fail("enumerate", "--degree %d has no %ss: degrees start at 0"
                     % (args.degree, kind))
    if kind == "tree":
        items = enumerate_trees(n)
    elif kind == "word":
        items = enumerate_words(n, args.degree)
    else:
        items = enumerate_quilts(n, args.degree)
    for x in items:
        print(x)
    print("total: %d" % len(items), file=sys.stderr)
    return 0


def _cmd_boundary(args):
    if (args.word is None) == (args.quilt is None):
        return _fail("boundary", "give exactly one of --word and --quilt")
    try:
        x = (_parse(parse_word, args.word) if args.word is not None
             else _parse(parse_quilt, args.quilt))
    except ValueError as e:
        return _fail("boundary", e)
    print(boundary(x))
    return 0


def _cmd_compose(args):
    def parse_any(text):
        return _parse(parse_quilt if ";" in text else parse_tree if "(" in text
                      else parse_word, text)

    try:
        x = parse_any(args.left)
        y = parse_any(args.right)
        if type(x) is not type(y):
            raise ValueError("cannot compose a %s with a %s"
                             % (type(x).__name__.lower(), type(y).__name__.lower()))
        check_slot(args.slot, x.n, x)
    except ValueError as e:
        return _fail("compose", e)
    print(compose(x, args.slot, y))
    return 0


def _cmd_homology(args):
    from .homology import build_complex, homology_ranks, torsion_report
    n = args.arity
    if n < 1:
        return _fail("homology", "--arity %d has no quilts: arities start at 1" % n)
    if n >= 6 and not args.deep:
        return _fail("homology", "arity %d needs --deep (time and memory not "
                     "measured)" % n)
    if args.torsion and n > 4:
        return _fail("homology", "--torsion stops at arity 4: its dense Smith "
                     "form at arity %d needs gigabytes of memory" % n)
    try:
        ring = parse_ring(args.ring)
    except ValueError as e:
        return _fail("homology", e)
    progress = (lambda s: print(s, file=sys.stderr)) if args.deep else None
    c = build_complex(n, progress=progress)
    rows = homology_ranks(c, ring, progress=progress)
    print("degree  basis  rank H_k")
    acyclic = True
    for k, dim, h in rows:
        print("%6d %6d %9d" % (k, dim, h))
        if k > 0 and h != 0:
            acyclic = False
    if args.torsion:
        for k, _, _ in rows[:-1]:
            t = torsion_report(c, k)
            if t:
                print("torsion into degree %d: %s" % (k, t))
                acyclic = False
    print("acyclic in positive degrees: %s" % acyclic)
    return 0 if acyclic else 1


def _verify_gerstenhaber(args):
    from .mquilt import verify_identity, IDENTITY_NAMES
    rep = Report("gerstenhaber", args.format)
    for name in IDENTITY_NAMES:
        rep.run(name, lambda name=name: verify_identity(name))
    return rep.emit()


def _verify_linfty(args):
    from .linfty import (linfty_residual_quilt, linfty_residual_mquilt,
                        linfty_residual_coinvariant, linfty_residual_integer_route)
    top = args.max_arity
    if top < 2:
        print("--max-arity %d leaves nothing to check: the relations start at "
              "arity 2" % top, file=sys.stderr)
        return 2
    if args.target == "mquilt" and top >= 7 and not args.deep:
        print("mquilt relation at arity %d needs --deep" % top, file=sys.stderr)
        return 2
    checks = {"quilt": [("quilt relation", linfty_residual_quilt)],
              "mquilt": [("mquilt relation", linfty_residual_mquilt),
                         ("integer route", linfty_residual_integer_route)],
              "coinvariant": [("coinvariant relation", linfty_residual_coinvariant)]}
    rep = Report("linfty", args.format)
    for n in range(2, top + 1):
        for name, residual in checks[args.target]:
            rep.run("%s n=%d" % (name, n), lambda n=n, residual=residual: residual(n))
    return rep.emit()


def _cmd_render(args):
    from .render import render_ascii, render_svg
    try:
        q = _parse(parse_quilt, args.quilt)
    except ValueError as e:
        return _fail("render", e)
    if not 0 <= args.marks <= q.n:
        return _fail("render", "--marks %d is outside 0..%d, the arity of %s"
                     % (args.marks, q.n, q))
    if args.format == "svg":
        print(render_svg(q, args.marks))
    else:
        print(render_ascii(q, args.marks))
    return 0


def _cmd_rep(args):
    from .diagrams import load_diagram, DiagramError, DiagramSyntaxError
    from .cochains import delta_total, mc_residual, squaring, NerveDepthExceeded
    try:
        dia = load_diagram(args.diagram)
    except (OSError, DiagramSyntaxError) as e:
        print("%s: %s" % (args.diagram, e), file=sys.stderr)
        return 2
    except DiagramError as e:
        if args.action == "check-diagram":
            print("INVALID: %s" % e)
            return 1
        print("%s: INVALID: %s" % (args.diagram, e), file=sys.stderr)
        return 2
    if args.action == "check-diagram":
        print("VALID")
        return 0
    if args.cochain is None:
        print("rep %s needs --cochain FILE" % args.action, file=sys.stderr)
        return 2
    try:
        f = _load_cochain(dia, args.cochain)
    except (OSError, ValueError) as e:
        print("%s: %s" % (args.cochain, e), file=sys.stderr)
        return 2
    op = {"delta": delta_total, "mc": mc_residual, "squaring": squaring}[args.action]
    try:
        res = op(f, args.max_p)
    except NerveDepthExceeded as e:
        print("rep %s: %s (raise --max-p)" % (args.action, e), file=sys.stderr)
        return 2
    except RingError as e:
        return _fail("rep %s" % args.action, e)
    _dump_cochain(res)
    if args.action != "mc":
        return 0
    print("maurer-cartan solution: %s" % res.is_zero())
    return 0 if res.is_zero() else 1


def _load_cochain(dia, path):
    """Cochain file: lines "p q morphisms... : out in... value", or "0".

    Raises ValueError naming the first bad line: a malformed line, a value
    outside the ring, a tuple outside the nerve in degree p, an index
    without q+1 entries, or an index outside the dimensions of the target
    (out) and source (in) algebras of the tuple.
    """
    from fractions import Fraction
    from .cochains import Cochain
    cat = dia.category
    c = Cochain(dia)
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if line in ("", "0"):       # "0": _dump_cochain's zero cochain
                continue
            try:
                head, tail = line.split(":")
                bits, vals = head.split(), tail.split()
                p, q = int(bits[0]), int(bits[1])
                if p < 0 or q < 0:
                    raise ValueError
                tup = tuple(bits[2:])
                idx = tuple(int(v) for v in vals[:-1])
                value = Fraction(vals[-1])
            except (ValueError, IndexError, ZeroDivisionError):
                raise ValueError("line %d: expected 'p q morphisms... : out in... value'"
                                 % lineno) from None
            try:
                value = dia.ring.coerce(value)
            except RingError as e:
                raise ValueError("line %d: %s" % (lineno, e)) from None
            if not cat.in_nerve(tup, p):
                raise ValueError("line %d: %r is not in the nerve in degree %d"
                                 % (lineno, " ".join(tup), p))
            if len(idx) != q + 1:
                raise ValueError("line %d: a (%d, %d) entry needs %d indices, got %d"
                                 % (lineno, p, q, q + 1, len(idx)))
            xs = cat.tuple_objects(tup)
            dims = [dia.dims[xs[0]]] + [dia.dims[xs[-1]]] * q
            if not all(0 <= i < d for i, d in zip(idx, dims)):
                raise ValueError("line %d: index %s outside the dimensions %s"
                                 % (lineno, " ".join(map(str, idx)),
                                    " ".join(map(str, dims))))
            c._add((p, q), tup, idx, value)
    return c


def _dump_cochain(c):
    if c.is_zero():
        print("0")
        return
    for (p, q) in c.bidegrees():
        for tup, T in sorted(c.data[(p, q)].items()):
            for idx, v in sorted(T.items()):
                print("%d %d %s : %s %s" % (p, q, " ".join(tup),
                                            " ".join(str(i) for i in idx), v))


def main(argv=None):
    ap = argparse.ArgumentParser(prog="quiltops",
                                 description="exact computations in the quilt operads")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="list trees, words, or quilts")
    p.add_argument("kind", choices=["tree", "word", "quilt"])
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("boundary", help="signed sum of faces")
    p.add_argument("--word")
    p.add_argument("--quilt")
    p.set_defaults(fn=_cmd_boundary)

    p = sub.add_parser("compose", help="partial composition")
    p.add_argument("left")
    p.add_argument("slot", type=int)
    p.add_argument("right")
    p.set_defaults(fn=_cmd_compose)

    p = sub.add_parser("homology", help="ranks of the quilt complex")
    p.add_argument("--arity", type=int, required=True)
    p.add_argument("--ring", default="Q")
    p.add_argument("--deep", action="store_true")
    p.add_argument("--torsion", action="store_true")
    p.set_defaults(fn=_cmd_homology)

    p = sub.add_parser("verify", help="verification suites")
    vsub = p.add_subparsers(dest="suite", required=True)
    g = vsub.add_parser("gerstenhaber")
    g.add_argument("--format", choices=["text", "json"], default="text")
    g.set_defaults(fn=_verify_gerstenhaber)
    l = vsub.add_parser("linfty")
    l.add_argument("--max-arity", type=int, default=4)
    l.add_argument("--target", choices=["quilt", "mquilt", "coinvariant"],
                   default="quilt")
    l.add_argument("--deep", action="store_true")
    l.add_argument("--format", choices=["text", "json"], default="text")
    l.set_defaults(fn=_verify_linfty)

    p = sub.add_parser("render", help="draw a quilt as a grid diagram")
    p.add_argument("--quilt", required=True)
    p.add_argument("--marks", type=int, default=0)
    p.add_argument("--format", choices=["text", "svg"], default="text")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("rep", help="Hochschild representation operations")
    p.add_argument("action", choices=["check-diagram", "delta", "mc", "squaring"])
    p.add_argument("--diagram", required=True)
    p.add_argument("--cochain")
    p.add_argument("--max-p", type=int, default=4)
    p.set_defaults(fn=_cmd_rep)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
