"""In-process A/B timing of the certificate benchmark's units.

    python tests/perf_ab.py <checkout A> <checkout B> [--seed 1] [--rounds 12]

Imports each checkout's ``src/sugraverify`` under its own package name
(``sugraverify_a``, ``sugraverify_b``) in one process, and loads each
checkout's ``sugrabench/workloads.py`` against its own package.  The units
of one certificate pass of the seed come from ``workloads.certificate_pass``;
each unit runs ``--rounds`` times on each side, the sides alternating and
the side that goes first alternating too, and only the minimum of each
unit's times is kept.  Minima of interleaved runs cancel most of the load
drift of a shared machine, which moves whole benchmark runs by a third.

Prints one line per unit (minimum on A, on B, and B/A) and the sums of the
minima.  Every op must pass its own check on both sides.  Nothing under
``sugrabench/`` is changed.  The file is not named ``test_*``, so pytest
does not collect it.
"""

import argparse
import gc
import importlib
import importlib.util
import os
import sys
import time


def load_side(tag, checkout):
    """workloads.py of the checkout, bound to its own sugraverify package
    imported as sugraverify_<tag>."""
    src = os.path.join(checkout, "src", "sugraverify")
    name = f"sugraverify_{tag}"
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "__init__.py"),
        submodule_search_locations=[src])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    subs = {f"sugraverify.{f[:-3]}": importlib.import_module(f"{name}.{f[:-3]}")
            for f in sorted(os.listdir(src))
            if f.endswith(".py") and f != "__init__.py"}
    # workloads.py imports "sugraverify"; alias it to this side while it
    # loads, then drop the aliases so that the other side gets its own
    aliases = dict(subs, sugraverify=pkg)
    sys.modules.update(aliases)
    try:
        path = os.path.join(checkout, "sugrabench", "workloads.py")
        wspec = importlib.util.spec_from_file_location(f"workloads_{tag}",
                                                       path)
        workloads = importlib.util.module_from_spec(wspec)
        wspec.loader.exec_module(workloads)
    finally:
        for k in aliases:
            del sys.modules[k]
    return workloads


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", help="checkout A (the parent)")
    p.add_argument("b", help="checkout B (the change)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--rounds", type=int, default=12)
    args = p.parse_args(argv)
    sides = [load_side("a", args.a), load_side("b", args.b)]
    certs = [w.Certificate(args.seed) for w in sides]
    units = [c.passes[0] for c in certs]
    if units[0] != units[1]:
        raise SystemExit("the two checkouts generate different units")
    best = [[float("inf")] * len(units[0]) for _ in sides]
    gc.collect()
    for r in range(args.rounds):
        for i in range(len(units[0])):
            for s in ((0, 1) if (r + i) % 2 == 0 else (1, 0)):
                start = time.perf_counter()
                ok = certs[s].run(i)
                dt = time.perf_counter() - start
                if not ok:
                    raise SystemExit(f"unit {units[0][i]} fails on side "
                                     f"{'ab'[s]}")
                best[s][i] = min(best[s][i], dt)
    print(f"{'unit':<34} {'A ms':>8} {'B ms':>8} {'B/A':>6}")
    for i, u in enumerate(units[0]):
        a, b = best[0][i], best[1][i]
        print(f"{' '.join(u[:2]):<34} {a * 1e3:8.2f} {b * 1e3:8.2f} "
              f"{b / a:6.3f}")
    ta, tb = sum(best[0]), sum(best[1])
    print(f"{'sum of minima':<34} {ta * 1e3:8.2f} {tb * 1e3:8.2f} "
          f"{tb / ta:6.3f}")


if __name__ == "__main__":
    main()
