"""Command-line interface.

Subcommands:
  verify <background-id | file.json>   theory verifier + max-susy checks
  enumerate [--tables]                 parallelisable geometry tables
  susy <geometry-id>                   frame-constant supersymmetry counts
  canonicalize-cw <matrix.json>        plane-wave moduli invariant
  reduce <algebra-id> --along ...      group reduction identities, or
                                       the IIA reduction of e1_10

Exit code 0 iff every requested check passes.
"""

import argparse
import json
import os
import re
import sys

from .exactnum import parse_scalar
from .liealg import CWData, cw_canonicalize, nw6, so12_so3, e15, su3
from .kaluza import reduce_group, reduce_d11
from . import catalog

# what malformed input raises: a missing file, bad JSON or a bad scalar
_INPUT_ERRORS = (OSError, KeyError, ValueError, ZeroDivisionError)


def _emit_report(rep):
    """Reports also land in SUGRAVERIFY_REPORT_DIR as <name>.json when set."""
    outdir = os.environ.get("SUGRAVERIFY_REPORT_DIR")
    if outdir:
        os.makedirs(outdir, exist_ok=True)
        path = os.path.join(outdir, f"{rep.background}.json")
        with open(path, "w") as fh:
            fh.write(rep.to_json())


def _parse_perturb(text):
    """'A11=+1,A23=1/2' -> {(0, 0): 1, (1, 2): 1/2}; profile entries are
    numbered from 1."""
    out = {}
    for item in text.split(","):
        key, sep, val = item.partition("=")
        m = re.fullmatch(r"A([1-9])([1-9])", key.strip())
        if m is None or not sep:
            raise ValueError(f"--perturb entry {item!r}: expected "
                             f"A<i><j>=<value> with i, j in 1..9")
        out[(int(m[1]) - 1, int(m[2]) - 1)] = \
            parse_scalar(val.strip().lstrip("+"))
    return out


def cmd_verify(args):
    from_file = os.path.exists(args.background)
    if args.background == "all" or from_file:
        given = [f"--{k}" for k in ("mu", "r", "perturb")
                 if getattr(args, k) is not None]
        if given:
            print(f"error: {args.background}: {', '.join(given)} applies "
                  f"only to a catalog id", file=sys.stderr)
            return 2
    if args.background == "all":
        # every catalog entry, verified and reported in id order
        all_ok = True
        for name in sorted(catalog.background_ids()):
            rep = catalog.verify_background(catalog.get_background(name))
            all_ok = all_ok and rep.passed
            _emit_report(rep)
            if args.format == "json":
                print(rep.to_json())
            else:
                print(f"{'PASS' if rep.passed else 'FAIL'}  {name}")
        return 0 if all_ok else 1
    try:
        if from_file:
            b = catalog.load_background(args.background)
        else:
            perturb = _parse_perturb(args.perturb) if args.perturb else None
            b = catalog.get_background(args.background, mu=args.mu,
                                       Rv=args.r, perturb=perturb)
        rep = catalog.verify_background(b)
    except _INPUT_ERRORS as e:
        where = f"{args.background}: " if from_file else ""
        print(f"error: {where}{e}", file=sys.stderr)
        return 2
    _emit_report(rep)
    if args.format == "json":
        print(rep.to_json())
    else:
        print(rep.to_text())
    return 0 if rep.passed else 1


def cmd_enumerate(args):
    t2 = catalog.table2_lines()
    t3 = catalog.table3_lines()
    rej = catalog.table3_rejections()
    payload = {"parallelisable_geometries": t2,
               "backgrounds_with_dilaton": t3,
               "rejected": rej}
    if args.tables:
        payload["susy_counts"] = catalog.table4_lines()
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        print(f"ten-dimensional parallelisable geometries ({len(t2)}):")
        for l in t2:
            print(f"  {l}")
        print(f"type-II backgrounds with dilaton ({len(t3)}):")
        for l in t3:
            print(f"  {l}")
        print("rejected geometries:")
        for l in rej:
            print(f"  {l}")
        if args.tables:
            print("frame-constant supersymmetry counts:")
            for l in payload["susy_counts"]:
                print(f"  {l}")
    ok = len(t2) == 17 and len(t3) == 12 and len(rej) == 5
    return 0 if ok else 1


def cmd_susy(args):
    products = {p.ident(): p for p in catalog.enumerate_parallelisable(10)}
    p = products.get(args.geometry)
    if p is None:
        print(f"error: unknown geometry id {args.geometry!r}; have "
              f"{sorted(products)}", file=sys.stderr)
        return 2
    sol = catalog.solve_dilaton(p)
    out = {"geometry": p.display(), "sector": "frame-constant"}
    if not sol.accepted:
        out["rejected"] = sol.reason
    else:
        if catalog.has_constant_dilaton_member(p):
            out["constant"] = catalog.susy_count(p, "constant")
        else:
            out["constant"] = "no background with constant dilaton"
        out["nonconstant"] = catalog.susy_count(p, "nonconstant")
        out["note"] = ("enhanced counts for special plane-wave profiles are "
                       "not computed (out of scope)")
    if args.format == "json":
        print(json.dumps(out, indent=2, default=str))
    else:
        for k, v in out.items():
            print(f"{k}: {v}")
    return 0 if sol.accepted else 1


def cmd_canonicalize_cw(args):
    try:
        with open(args.matrix) as fh:
            rows = json.load(fh)
        if not (isinstance(rows, list) and rows and all(
                isinstance(r, list) and len(r) == len(rows) for r in rows)):
            raise ValueError("expected a square array of arrays")
        A = [[parse_scalar(str(x)) for x in row] for row in rows]
        key, degenerate = cw_canonicalize(CWData(A))
    except _INPUT_ERRORS as e:
        print(f"error: {args.matrix}: {e}", file=sys.stderr)
        return 2
    out = {
        "canonical_key": [[sign, str(v)] for sign, v in key],
        "degenerate": degenerate,
    }
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        print("canonical key:", ", ".join(f"({s}, {v})"
                                          for s, v in out["canonical_key"]))
        print("degenerate:", degenerate)
    return 0


_ALGEBRAS = {
    "nw6": nw6,
    "so12+so3": lambda: so12_so3(1, 1),
    "e15": e15,
    "su3": su3,
}


def _algebra_by_id(name, dim):
    """The algebra of the id name, or None for an unknown id.  A d2n2 id
    whose dimension 2n + 2 exceeds QuadraticSpace's 13 or differs from dim,
    the number of --along components, is rejected before it is built, and
    so is so12+so3(0)."""
    if name in _ALGEBRAS:
        return _ALGEBRAS[name]()
    if name.startswith("d2n2(") and name.endswith(")"):
        from .liealg import d2n2
        weights = [parse_scalar(w) for w in name[5:-1].split(",")]
        n = 2 * len(weights) + 2
        if not n == dim <= 13:
            raise ValueError(f"{name} has dimension {n} and --along {dim} "
                             f"components; both must agree, at most 13")
        return d2n2(weights)
    if name.startswith("so12+so3(") and name.endswith(")"):
        a = parse_scalar(name[9:-1])
        if a.is_zero():
            raise ValueError(f"{name}: the scale a must be nonzero")
        return so12_so3(a, a)
    return None


def cmd_reduce(args):
    try:
        X = [parse_scalar(x) for x in args.along.split(",")]
        if args.algebra == "e1_10":     # X in its frame (xp, xm, x1..x9)
            witnesses = reduce_d11(catalog.get_background("e1_10"), X)
            out = {k: not w for k, w in witnesses.items()}
        else:
            g = _algebra_by_id(args.algebra, len(X))
            if g is None:
                raise ValueError(f"unknown algebra {args.algebra!r}; have "
                                 f"{sorted(_ALGEBRAS)}, d2n2(w1,...), "
                                 f"so12+so3(a), and e1_10")
            if len(X) != g.dim:
                raise ValueError(f"expected {g.dim} components")
            out = {k: bool(v) for k, v in reduce_group(g, X).checks.items()}
    except _INPUT_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(out, indent=2))
    else:
        for k, v in out.items():
            print(f"{'PASS' if v else 'FAIL'}  {k}")
    return 0 if all(out.values()) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="sugraverify",
        description="exact verification of maximally supersymmetric and "
                    "parallelisable supergravity backgrounds")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="verify a background")
    pv.add_argument("background", help="catalog id or background file")
    pv.add_argument("--mu", type=int, default=None)
    pv.add_argument("--r", type=int, default=None)
    pv.add_argument("--perturb", default=None,
                    help="profile perturbation, e.g. A11=+1")
    pv.add_argument("--format", choices=("text", "json"), default="text")
    pv.set_defaults(func=cmd_verify)

    pe = sub.add_parser("enumerate", help="reproduce the geometry tables")
    pe.add_argument("--tables", action="store_true",
                    help="include the susy-count table")
    pe.add_argument("--format", choices=("text", "json"), default="text")
    pe.set_defaults(func=cmd_enumerate)

    ps = sub.add_parser("susy", help="frame-constant susy counts")
    ps.add_argument("geometry")
    ps.add_argument("--format", choices=("text", "json"), default="text")
    ps.set_defaults(func=cmd_susy)

    pc = sub.add_parser("canonicalize-cw", help="plane-wave moduli invariant")
    pc.add_argument("matrix", help="JSON file with the profile matrix")
    pc.add_argument("--format", choices=("text", "json"), default="text")
    pc.set_defaults(func=cmd_canonicalize_cw)

    pr = sub.add_parser("reduce", help="group or e1_10 reduction checks")
    pr.add_argument("algebra")
    pr.add_argument("--along", required=True,
                    help="comma-separated frame components")
    pr.add_argument("--format", choices=("text", "json"), default="text")
    pr.set_defaults(func=cmd_reduce)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
