"""Command-line interface.

Exit codes: 0 all checks passed, 1 some check failed, 2 hypotheses not
met (nothing failed, but a check found its hypotheses unmet, one of
verify's angle conditions failed, or the map does not meet a command's
hypotheses), 3 usage error, 4 input/output or malformed-file error.
``verify`` lists a conclusion whose check finds its hypotheses unmet as
skipped, with the check's reason; a skip leaves the exit code alone.
"""

from __future__ import annotations

import argparse
import cmath
import collections
import functools
import inspect
import math
import sys

import numpy as np

from . import __version__, catalog, certificates, mapspec, metrics, report
from . import geometry, render as render_mod
from . import landau as landau_mod
from .core import (PolyharmonicMap, check_grid_size, dilatation, evaluate,
                   jacobian, quasiregularity_constant, wirtinger)
from .errors import (DegenerateMap, InvalidDiameter, InvalidParams,
                     MalformedParams, MalformedSpec, NoConvergence,
                     NoSignChange, OutsideDomain, UnknownName)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_HNM = 2
EXIT_USAGE = 3
EXIT_IO = 4

_HNM_ERRORS = (DegenerateMap, NoSignChange)
_USAGE_ERRORS = (InvalidParams, InvalidDiameter, OutsideDomain)
_IO_ERRORS = (MalformedSpec, MalformedParams, UnknownName, NoConvergence)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _cnum(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise _UsageError("not a complex number: %r" % text)


def _load(path) -> PolyharmonicMap:
    return mapspec.build_map(mapspec.load(path))


def _fmt_c(v: complex) -> str:
    return "%.17g%+.17gj" % (v.real, v.imag)


def _verdict_exit(verdict: str) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(verdict, EXIT_HNM)


def _positive(v) -> bool:
    return 0.0 < v < math.inf


_VALUE_RULES = {  # option dest: rule, test; every numeric option has one
    "z": ("finite", cmath.isfinite),
    "w": ("finite", cmath.isfinite),
    "mobius_a": ("finite", cmath.isfinite),
    "r": ("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    "r1": ("in (0, 1 - 1e-6]", lambda v: 0.0 < v <= certificates.R_EDGE),
    "grid": (">= 1", lambda v: v >= 1),
    "theta_samples": (">= 1", lambda v: v >= 1),
    "seed": (">= 0", lambda v: v >= 0),
    "K": ("finite and >= 1", lambda v: 1.0 <= v < math.inf),
    "m": ("positive and finite", _positive),
    "alpha": ("positive and finite", _positive),
    "l1": ("positive and finite", _positive),
    "diam": ("positive and finite", _positive),
    "M": ("positive and finite", _positive),
}


_UNREAD = (  # command, mode, whether args choose it, options that mode never reads
    ("landau", "--mode diameter", lambda a: a.mode == "diameter", ("K", "l1")),
    ("landau", "--mode length", lambda a: a.mode == "length", ("diam",)),
    ("jmetric", "--mobius-a", lambda a: a.mobius_a is not None, ("z", "w", "M")),
    ("jmetric", "jmetric without --mobius-a", lambda a: a.mobius_a is None, ("seed",)),
    ("length", "--sup", lambda a: a.sup, ("r",)),
)


def _check_values(args) -> None:
    # InvalidParams for the first option set to a value its rule rejects (an unset
    # one is not tested), then a usage error for one its chosen mode never reads
    for dest, v in vars(args).items():
        if dest in _VALUE_RULES and v is not None:
            rule, ok = _VALUE_RULES[dest]
            if not ok(v):
                raise InvalidParams("--%s must be %s, got %r"
                                    % (dest.replace("_", "-"), rule, v))
    for command, mode, chosen, unread in _UNREAD:
        for dest in unread:
            if command == args.command and chosen(args) and getattr(args, dest) is not None:
                raise _UsageError("%s takes no --%s" % (mode, dest.replace("_", "-")))


# ---- subcommands ----


def cmd_eval(args) -> int:
    F = _load(args.map)
    v = evaluate(F, args.z)
    print(_fmt_c(v))
    return EXIT_PASS


def cmd_derive(args) -> int:
    F = _load(args.map)
    fz, fzb = wirtinger(F, args.z)
    lam = dilatation(F, args.z)
    print("F_z     = %s" % _fmt_c(fz))
    print("F_zbar  = %s" % _fmt_c(fzb))
    print("jacobian = %.17g" % jacobian(F, args.z))
    print("lambda_small = %.17g" % lam.lambda_small)
    print("lambda_big   = %.17g" % lam.lambda_big)
    return EXIT_PASS


def cmd_length(args) -> int:
    if not args.sup and args.r is None:
        raise _UsageError("length needs --r or --sup")
    F = _load(args.map)
    if args.sup:
        v = geometry.sup_length(F)
        print("sup_length = %.17g" % v)
    else:
        v = geometry.curve_length(F, args.r)
        print("length = %.17g" % v)
    return EXIT_PASS


def cmd_area(args) -> int:
    F = _load(args.map)
    if args.method in ("series", "both"):
        s = geometry.area_series(F, args.r)
        print("S_series = %.17g" % s)
    if args.method in ("quadrature", "both"):
        q = geometry.area_quadrature(F, args.r)
        print("S_quadrature = %.17g" % q)
    if args.method == "both":
        print("difference = %.3g" % abs(s - q))
    return EXIT_PASS


def cmd_diam(args) -> int:
    check_grid_size(args.grid * args.theta_samples, "--grid x --theta-samples")
    F = _load(args.map)
    v = geometry.diameter_estimate(F, args.r, n_radii=args.grid,
                                   n_angles=args.theta_samples)
    print("diameter >= %.17g" % v)
    return EXIT_PASS


def cmd_landau(args) -> int:
    F = _load(args.map)
    p, alpha = F.p, args.alpha
    if alpha is None:
        alpha = dilatation(F, 0.0).lambda_small
        if not alpha > 0.0:
            raise DegenerateMap("lambda_small = %.3e at z = 0" % alpha)
    if args.mode == "length":
        K = args.K if args.K is not None else quasiregularity_constant(F)
        l1 = args.l1 if args.l1 is not None else geometry.sup_length(F)
        res = landau_mod.landau_from_length(p, alpha, K, l1)
        inputs = [("K", K), ("l1", l1)]
    else:
        diam = args.diam if args.diam is not None else geometry.diameter_estimate(F)
        if args.diam is None and not diam > 0.0:
            raise DegenerateMap("image diameter estimate is %r" % diam)
        res = landau_mod.landau_from_diameter(p, alpha, diam)
        inputs = [("diam", diam)]
    # printed once the solver has accepted them, so an error prints nothing
    print("mode = %s" % args.mode)
    print("p = %d" % p)
    for name, v in [("alpha", alpha)] + inputs + [("r_univ", res.r_univ),
                                                  ("rho_cover", res.rho_cover)]:
        print("%s = %.17g" % (name, v))
    return EXIT_PASS


def cmd_three_circles(args) -> int:
    F = _load(args.map)
    m = args.m if args.m is not None else float(geometry.area_series(F, args.r1))
    return _print_check(certificates.three_circles_area(F, args.r1, m))


def cmd_schwarz(args) -> int:
    F = _load(args.map)
    rep = certificates.area_schwarz(F)
    own = [] if rep.verdict == "hypotheses-not-met" else [
        "classification = %s" % rep.extras["classification"]]
    return _print_check(rep, *own)


def _print_check(rep, *own) -> int:
    print("check = %s" % rep.name)
    print("verdict = %s" % rep.verdict)
    if rep.verdict == "hypotheses-not-met":
        print("reason = %s" % rep.extras["reason"])
    for line in own:  # the check's own lines go before its worst slack
        print(line)
    worst = rep.worst_margin
    if worst is not None:
        print("worst slack = %.6g (%s)" % (worst.slack, worst.check_id))
    return _verdict_exit(rep.verdict)


def cmd_jmetric(args) -> int:
    if args.mobius_a is not None:
        rep = metrics.mobius_j_distortion(args.mobius_a,
                                          seed=7 if args.seed is None else args.seed)
        print("sup_ratio = %.17g" % rep.worst_margin.lhs)
        print("bound = %.17g" % rep.worst_margin.rhs)
        print("verdict = %s" % rep.verdict)
        return _verdict_exit(rep.verdict)
    if args.z is None or args.w is None:
        raise _UsageError("jmetric needs --z and --w (or --mobius-a)")
    v = metrics.j_metric(args.z, args.w, 1.0 if args.M is None else args.M)
    print("%.17g" % v)
    return EXIT_PASS


def cmd_render(args) -> int:
    F = _load(args.map)
    render_mod.render_svg(F, args.out)
    return EXIT_PASS


def cmd_catalog(args) -> int:
    for name, (maker, desc) in catalog._BUILTIN.items():
        declared = inspect.signature(maker).parameters
        if declared:
            desc += "; params " + ", ".join(declared)
        print("%-9s %s" % (name, desc))
    return EXIT_PASS


# ---- verify ----


def _derived_quantities(F: PolyharmonicMap, args) -> dict:
    coeff_sum = float(np.sum(np.abs(F.a)) + np.sum(np.abs(F.b)))
    return {
        "p": F.p,
        "J": F.J,
        "coefficient_sum": coeff_sum,
        "alpha_at_zero": float(dilatation(F, 0.0).lambda_small),
        "S_near_boundary": float(geometry.area_series(F, certificates.R_EDGE)),
        "K": args.K,  # without --K, filled in by the length check, the one reader
        "l1": float(args.l1) if args.l1 is not None else geometry.sup_length(F),
        "diam": (float(args.diam) if args.diam is not None
                 else geometry.diameter_estimate(F)),
    }


def cmd_verify(args) -> int:
    spec = mapspec.load(args.map)
    F = mapspec.build_map(spec)
    derived = _derived_quantities(F, args)
    entries = [dict(report.check_to_dict(certificates.arg_condition(F, kind)),
                    counts_as="hypothesis") for kind in ("diameter", "length", "area")]
    m = float(geometry.area_series(F, args.r1))
    # in report order; each check decides its own hypotheses, and the target
    # radius is the coefficient sum, the strongest the contraction allows
    reps = (certificates.diameter_coefficient_bounds(F, derived["diam"]),
            certificates.length_coefficient_bounds(F, derived["K"], derived["l1"]),
            certificates.three_circles_area(F, args.r1, m),
            certificates.area_schwarz(F),
            metrics.contraction_check(F, derived["coefficient_sum"], seed=args.seed),
            metrics.harmonic_lipschitz_check(F, seed=args.seed))
    if derived["K"] is None:  # null where alignment fails or the map is degenerate
        derived["K"] = reps[1].extras.get("K")
    for rep in reps:
        if rep.verdict == "hypotheses-not-met":
            entries.append({"name": rep.name, "verdict": "skipped",
                            "reason": rep.extras["reason"], "counts_as": "skipped"})
        else:
            entries.append(dict(report.check_to_dict(rep), counts_as="conclusion"))

    seen = collections.Counter(e["verdict"] for e in entries)
    counts = {v: seen[v] for v in ("pass", "fail", "hypotheses-not-met", "skipped")}
    failed = {e["counts_as"] for e in entries if e["verdict"] == "fail"}
    exit_code = (EXIT_FAIL if "conclusion" in failed else EXIT_HNM if failed
                 else EXIT_PASS)

    doc = {
        "tool": "polyharm",
        "version": __version__,
        "command": "verify",
        "input": {
            "path": str(args.map),
            "digest": mapspec.digest(spec),
            "label": F.label,
            "p": F.p,
            "J": F.J,
        },
        "environment": {
            "seed": args.seed,
            "grid": certificates.THREE_CIRCLES_GRID,
            "r1": args.r1,
            "theta_samples": metrics.boundary_samples(F),
            "tol_report": certificates.TOL_REPORT,
            "angle_tol": certificates.ANGLE_TOL,
            "pair_sampler": {"n_random": metrics.N_RANDOM,
                             "n_ray": metrics.N_RAY,
                             "r_cap": metrics.R_CAP},
        },
        "derived": derived,
        "checks": entries,
        "summary": dict(counts, exit_code=exit_code),
    }
    text = report.render_json(doc)
    if args.out:  # first, so that a path that cannot be written leaves stdout empty
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)
    return exit_code


# ---- parser ----


@functools.cache  # parsing leaves the parser as it was, so one serves every call
def build_parser() -> _Parser:
    parser = _Parser(prog="polyharm",
                     description="Coefficient-table maps: geometry, univalence "
                                 "radii, and inequality certificates.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def mapped(p):
        p.add_argument("--map", required=True, help="mapping file (JSON)")
        return p

    p = mapped(sub.add_parser("eval", help="evaluate the map at a point"))
    p.add_argument("--z", type=_cnum, required=True)
    p.set_defaults(func=cmd_eval)

    p = mapped(sub.add_parser("derive", help="Wirtinger derivatives and "
                                             "stretch data at a point"))
    p.add_argument("--z", type=_cnum, required=True)
    p.set_defaults(func=cmd_derive)

    p = mapped(sub.add_parser("length", help="length of a circle image"))
    p.add_argument("--r", type=float)
    p.add_argument("--sup", action="store_true",
                   help="supremum over all radii below 1")
    p.set_defaults(func=cmd_length)

    p = mapped(sub.add_parser("area", help="normalized image area"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--method", choices=("series", "quadrature", "both"),
                   default="series",
                   help="coefficient series, or Gauss-Legendre quadrature of "
                        "the Jacobian's circle means with p + ceil(J/2) - 1 "
                        "nodes in r^2, exact at every size")
    p.set_defaults(func=cmd_area)

    p = mapped(sub.add_parser("diam", help="lower estimate of the image diameter"))
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=16, help="radial grid count")
    p.add_argument("--theta-samples", type=int, default=1024)
    p.set_defaults(func=cmd_diam)

    p = mapped(sub.add_parser("landau", help="univalence and covering radii"))
    p.add_argument("--mode", choices=("diameter", "length"), required=True,
                   help="the Landau theorem from the image diameter, or from "
                        "K and the boundary length l1")
    p.add_argument("--alpha", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--l1", type=float)
    p.add_argument("--diam", type=float)
    p.set_defaults(func=cmd_landau)

    p = mapped(sub.add_parser("three-circles",
                              help="interpolation bound on the area"))
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--m", type=float)
    p.set_defaults(func=cmd_three_circles)

    p = mapped(sub.add_parser("schwarz", help="monotonicity of S(r)/r^2"))
    p.set_defaults(func=cmd_schwarz)

    p = sub.add_parser("jmetric", help="distance-ratio metric and distortion")
    p.add_argument("--z", type=_cnum)
    p.add_argument("--w", type=_cnum)
    p.add_argument("--M", type=float, help="default 1")
    p.add_argument("--mobius-a", type=_cnum)
    p.add_argument("--seed", type=int, help="default 7")
    p.set_defaults(func=cmd_jmetric)

    p = mapped(sub.add_parser("verify", help="run every applicable certificate"))
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--r1", type=float, default=0.3)
    p.add_argument("--K", type=float)
    p.add_argument("--l1", type=float)
    p.add_argument("--diam", type=float)
    p.set_defaults(func=cmd_verify)

    p = mapped(sub.add_parser("render", help="SVG sketch of the mapped mesh"))
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("catalog", help="list built-in maps")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_values(args)  # before any command reads its map
        return args.func(args)
    except _UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except _HNM_ERRORS as exc:
        print("hypotheses not met: %s" % exc, file=sys.stderr)
        return EXIT_HNM
    except _USAGE_ERRORS as exc:
        print("invalid request: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except _IO_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
