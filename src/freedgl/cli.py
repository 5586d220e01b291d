"""Command-line surface: build, check, compute, serialize.

Every subcommand writes a deterministic line-oriented text report; scalars
are printed as exact rationals ("p/q"), never floats, so outputs can be
compared byte for byte.  Exit codes: 0 on success, 1 when a check ran and
found failures (the failing items are listed), 2 on usage or parse errors.
Usage errors, an unwritable --out path among them, are reported before any
input file is read or anything is built, and run() writes every report, to
stdout or to the --out path.

Output schemas by subcommand:

  build-model / model-of-complex
      the DGL file format of emit_dgl (header, gens, trunc, d-lines)
  homology
      "homology", "trunc <N>", then "H[<q>] = <dim>" per degree
  malcev
      "malcev", "trunc <N>", then "stage <k>: dim <d> new <w>" per stage
  pi
      "pi_<n> dim <d>" plus "abelian <yes|no>" when n = 1
  bch
      the element serialization of the product of the free generators
  whitney
      "whitney n=<n>" then one "<identity> ok|FAIL" line per identity
  check
      one "<axiom> ok" or "<axiom> FAIL <item>: <residue>" line per axiom,
      then a final "ok" or "FAIL" line
"""

import argparse
import os
import sys
from itertools import combinations, product

from .lie import (ConfigError, DomainError, SolveError, StructError,
                  generator_elt, GenSet)
from .serialize import ParseError, emit_dgl, emit_element, parse_dgl
from .series import bch
from .simplex import ModelFamily, check_model_axioms
from .complexes import minimal_model, model_of_complex, parse_complex
from .homology import (homology, linear_homology, malcev_tower, pi_n,
                       tower_layers)
from . import whitney as wh

FLAVORS = ("seed", "inductive", "symmetric")


class _UsageError(Exception):
    pass


def _cannot_write(path, error):
    return _UsageError("cannot write %s: %s" % (path, error))


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so run() owns exit codes."""

    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    top = _Parser(prog="freedgl", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", metavar="command")

    def common(p, trunc=True, flavor=False, out=False):
        if trunc:
            p.add_argument("--trunc", type=int, metavar="N",
                           help="bracket-length truncation (default 4)")
        if flavor:
            p.add_argument("--flavor", choices=FLAVORS,
                           help="model construction flavor (default seed)")
        if out:
            p.add_argument("--out", metavar="PATH",
                           help="write the report here instead of stdout")

    p = sub.add_parser("build-model", help="serialize a simplex model")
    p.add_argument("--n", type=int, required=True, metavar="DIM",
                   help="simplex dimension")
    common(p, flavor=True, out=True)

    p = sub.add_parser("model-of-complex",
                       help="serialize the model of a complex file")
    p.add_argument("--complex", required=True, metavar="PATH")
    common(p, out=True)

    p = sub.add_parser("homology",
                       help="homology dims of a model or a complex")
    p.add_argument("--model", metavar="PATH",
                   help="serialized DGL file (full bracket homology)")
    p.add_argument("--complex", metavar="PATH",
                   help="complex file (linear homology of its model)")
    p.add_argument("--degrees", metavar="LO:HI",
                   help="degree window for the model route; use the "
                        "--degrees=LO:HI form when LO is negative")
    common(p)

    p = sub.add_parser("malcev", help="group tower dims of a complex")
    p.add_argument("--complex", required=True, metavar="PATH")
    p.add_argument("--basepoint", type=int, metavar="V", help="vertex id")
    common(p)

    p = sub.add_parser("pi", help="homotopy group dims of a complex")
    p.add_argument("--complex", required=True, metavar="PATH")
    p.add_argument("--n", type=int, required=True, metavar="K",
                   help="which homotopy group (K >= 1)")
    p.add_argument("--basepoint", type=int, metavar="V", help="vertex id")
    common(p)

    p = sub.add_parser("bch", help="product of free degree-0 generators")
    p.add_argument("--count", type=int, default=2, metavar="K",
                   help="number of generators (default 2)")
    common(p)

    p = sub.add_parser("whitney", help="polynomial form identity suite")
    p.add_argument("--n", type=int, required=True, metavar="DIM")
    p.add_argument("--check", action="store_true",
                   help="run the identity suite")
    common(p, trunc=False)

    p = sub.add_parser("check", help="axiom checks on a model")
    p.add_argument("--model", metavar="PATH",
                   help="serialized DGL file (d-squared check)")
    p.add_argument("--n", type=int, metavar="DIM",
                   help="build and check a simplex model instead")
    common(p, flavor=True)
    return top


def _parse_degrees(text):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise _UsageError("--degrees wants LO:HI")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise _UsageError("--degrees wants integers") from None
    if lo > hi:
        raise _UsageError("--degrees window is empty")
    return list(range(lo, hi + 1))


def _validate(args):
    """Check every argument, then read and parse the input files, the one
    place that reads them: --complex becomes a SimplicialComplex, --model a
    FreeDGL, --basepoint the dense index of its vertex and --degrees a list
    of degrees."""
    # a --model route reads its truncation from the file and builds nothing,
    # so --trunc and --flavor are refused there rather than ignored
    for flag, default in (("trunc", 4), ("flavor", "seed")):
        if not hasattr(args, flag):
            continue
        if getattr(args, flag) is None:
            setattr(args, flag, default)
        elif getattr(args, "model", None) is not None:
            raise _UsageError("--%s does not apply to --model" % flag)
    if getattr(args, "trunc", 4) < 1:
        raise _UsageError("--trunc must be >= 1")
    if getattr(args, "n", 0) is not None and getattr(args, "n", 0) < 0:
        raise _UsageError("--n must be >= 0")
    if args.command == "pi" and args.n < 1:
        raise _UsageError("--n must be >= 1 for pi")
    if args.command == "bch" and args.count < 2:
        raise _UsageError("--count must be >= 2")
    if args.command == "homology":
        if (args.model is None) == (args.complex is None):
            raise _UsageError("give exactly one of --model / --complex")
        if args.degrees is not None:
            if args.model is None:
                raise _UsageError("--degrees needs --model")
            args.degrees = _parse_degrees(args.degrees)
    if args.command == "check":
        if (args.model is None) == (args.n is None):
            raise _UsageError("give exactly one of --model / --n")
    out = getattr(args, "out", None)
    if out:
        # opened for appending, which writes nothing, so that an unwritable
        # path is refused before anything is built; a file the probe made
        # is removed again
        made = not os.path.exists(out)
        try:
            open(out, "a").close()
        except OSError as e:
            raise _cannot_write(out, e) from None
        if made:
            os.remove(out)
    for flag, parse in (("complex", parse_complex), ("model", parse_dgl)):
        path = getattr(args, flag, None)
        if path is not None:
            try:
                with open(path) as fh:
                    text = fh.read()
            except OSError as e:
                raise _UsageError("cannot read %s: %s" % (path, e)) from None
            setattr(args, flag, parse(text))
    if hasattr(args, "basepoint"):
        # a vertex id as written in the complex file (None: the smallest)
        labels, vertex = args.complex.labels, args.basepoint
        if vertex is not None and vertex not in labels:
            raise _UsageError("basepoint %d is not a vertex of the complex"
                              % vertex)
        args.basepoint = 0 if vertex is None else labels.index(vertex)


def _cmd_build_model(args):
    model = ModelFamily(args.trunc, args.flavor).model(args.n)
    # emit_dgl's text less its last newline, which run() writes
    return [emit_dgl(model.dgl)[:-1]], 0


def _cmd_model_of_complex(args):
    return [emit_dgl(model_of_complex(args.complex, args.trunc).dgl)[:-1]], 0


def _cmd_homology(args):
    lines = ["homology"]
    if args.model is not None:
        L = args.model
        bad = [name for name, _ in L.check_d_squared()]
        if bad:
            raise DomainError("d^2 is not zero on %s" % ", ".join(bad))
        report = homology(L, degrees=args.degrees)
        lines.append("trunc %d" % L.N)
        for q in report.degrees:
            lines.append("H[%d] = %d" % (q, report.entries[q]["h"]))
    else:
        cm = model_of_complex(args.complex, args.trunc)
        dims, _ = linear_homology(cm.dgl)
        lines.append("trunc %d" % args.trunc)
        for q in sorted(dims):
            lines.append("H[%d] = %d" % (q, dims[q]))
    return lines, 0


def _cmd_malcev(args):
    quotients = malcev_tower(args.complex, args.basepoint, args.trunc)
    layers = tower_layers(quotients)
    lines = ["malcev", "trunc %d" % args.trunc]
    for k, (q, new) in enumerate(zip(quotients, layers), start=1):
        lines.append("stage %d: dim %d new %d" % (k, q.dim, new))
    return lines, 0


def _cmd_pi(args):
    M = minimal_model(args.complex, args.basepoint, args.trunc)
    group = pi_n(M, args.n)
    if args.n == 1:
        return ["pi_1 dim %d" % group.dim,
                "abelian %s" % ("yes" if group.is_abelian() else "no")], 0
    return ["pi_%d dim %d" % (args.n, group["h"])], 0


def _cmd_bch(args):
    names = ["x%d" % i for i in range(1, args.count + 1)]
    gens = GenSet([(n, 0) for n in names])
    elts = [generator_elt(gens, args.trunc, n) for n in names]
    return [emit_element(bch(*elts))], 0


def _whitney_suite(n):
    """Identity suite: each entry is (label, ok)."""
    def faces():
        for k in range(n + 1):
            yield from combinations(range(n + 1), k + 1)

    # each face's form is built once and read by every identity below
    forms = {f: wh.elementary_form(f, n) for f in faces()}
    results = []
    ok = all(wh.face_integral(form, f) == 1 for f, form in forms.items())
    results.append(("integral_normalization", ok))

    # each face's unit cochain and its Whitney inclusion, built once and
    # read by the next two identities
    units = {f: wh.Cochain(n, {f: 1}) for f in forms}
    incl = {f: wh.whitney_i(c) for f, c in units.items()}
    ok = all(wh.integrate_p(incl[f]) == c for f, c in units.items())
    results.append(("projection_splits_inclusion", ok))

    ok = all(wh.exterior_d(incl[f]) == wh.whitney_i(wh.cochain_d(c))
             for f, c in units.items())
    results.append(("inclusion_chain_map", ok))

    ok = True
    exp_pool = [e for e in product(range(3), repeat=n) if sum(e) <= 2]
    dts_pool = [s for k in range(n) for s in combinations(range(1, n + 1), k)]
    for e in exp_pool:
        for s in dts_pool:
            u = wh.PolyForm(n, {(e, s): 1})
            if wh.integrate_p(wh.exterior_d(u)) != wh.cochain_d(
                    wh.integrate_p(u)):
                ok = False
    results.append(("projection_chain_map", ok))

    ok = all(wh.restrict(form, sub).is_zero()
             for f, form in forms.items() for sub in forms
             if not set(f) <= set(sub))
    results.append(("restriction_locality", ok))
    return results


def _cmd_whitney(args):
    lines = ["whitney n=%d" % args.n]
    if args.check:
        suite = _whitney_suite(args.n)
        lines += ["%s %s" % (label, "ok" if ok else "FAIL")
                  for label, ok in suite]
        return lines, int(not all(ok for _, ok in suite))
    for k in range(args.n + 1):
        for face in combinations(range(args.n + 1), k + 1):
            form = wh.elementary_form(face, args.n)
            lines.append("w_%s = %s" % ("".join(map(str, face)), form))
    return lines, 0


def _cmd_check(args):
    if args.model is not None:
        report = {"d_squared": args.model.check_d_squared()}
    else:
        report = check_model_axioms(
            ModelFamily(args.trunc, args.flavor).model(args.n))
        del report["ok"]
    lines = ["check"]
    for key, items in report.items():
        if not items:
            lines.append("%s ok" % key)
        for item in items:
            if isinstance(item, tuple):
                # (name, residue) or (coface, name, residue)
                item = "%s: %s" % (" ".join(item[:-1]),
                                   emit_element(item[-1]))
            lines.append("%s FAIL %s" % (key, item))
    failed = any(report.values())
    lines.append("FAIL" if failed else "ok")
    return lines, int(failed)


_DISPATCH = {
    "build-model": _cmd_build_model,
    "model-of-complex": _cmd_model_of_complex,
    "homology": _cmd_homology,
    "malcev": _cmd_malcev,
    "pi": _cmd_pi,
    "bch": _cmd_bch,
    "whitney": _cmd_whitney,
    "check": _cmd_check,
}


def run(argv):
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required")
        _validate(args)
        lines, code = _DISPATCH[args.command](args)
        text = "\n".join(lines) + "\n"
        if getattr(args, "out", None):
            try:
                with open(args.out, "w") as fh:
                    fh.write(text)
            except OSError as e:
                raise _cannot_write(args.out, e) from None
        else:
            # looked up now, so a redirect_stdout around run() catches it
            sys.stdout.write(text)
        return code
    except _UsageError as e:
        sys.stderr.write("usage error: %s\n" % e)
        return 2
    except ParseError as e:
        sys.stderr.write("parse error: %s\n" % e)
        return 2
    except (ConfigError, DomainError, StructError, SolveError) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
