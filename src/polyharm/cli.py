"""Command-line interface.

Exit codes: 0 all checks passed, 1 some check failed, 2 hypotheses not
met (nothing failed, but a check gave a hypotheses-not-met verdict, a
hypothesis check failed, or the map does not meet a command's
hypotheses), 3 usage error, 4 input/output or malformed-file error.  A
check that ``verify`` skips leaves the exit code alone.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from . import __version__, catalog, certificates, mapspec, metrics, report
from . import geometry, render as render_mod
from . import landau as landau_mod
from .core import (PolyharmonicMap, build_map, check_grid_size, dilatation,
                   evaluate, jacobian, quasiregularity_constant, wirtinger)
from .errors import (DegenerateMap, InvalidDiameter, InvalidParams,
                     MalformedParams, MalformedSpec, NoConvergence,
                     NoSignChange, NotAnalytic, NotHarmonicPolynomial,
                     NotIntoDisk, OutsideDomain, UnknownName)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_HNM = 2
EXIT_USAGE = 3
EXIT_IO = 4

_HNM_ERRORS = (DegenerateMap, NoSignChange, NotAnalytic,
               NotHarmonicPolynomial, NotIntoDisk)
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
    return build_map(mapspec.load(path))


def _fmt_c(v: complex) -> str:
    return "%.17g%+.17gj" % (v.real, v.imag)


def _verdict_exit(verdict: str) -> int:
    return {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(verdict, EXIT_HNM)


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
    F = _load(args.map)
    if args.sup:
        v = geometry.sup_length(F, integral_tol=args.tol)
        print("sup_length = %.17g" % v)
    else:
        if args.r is None:
            raise _UsageError("length needs --r or --sup")
        v = geometry.curve_length(F, args.r, tol=args.tol)
        print("length = %.17g" % v)
    return EXIT_PASS


def cmd_area(args) -> int:
    F = _load(args.map)
    if args.method in ("series", "both"):
        s = geometry.area_series(F, args.r)
        print("S_series = %.17g" % s)
    if args.method in ("quadrature", "both"):
        q = geometry.area_quadrature(F, args.r, n_radial=args.radial_nodes,
                                     n_theta=args.theta_samples)
        print("S_quadrature = %.17g" % q)
    if args.method == "both":
        print("difference = %.3g" % abs(s - q))
    return EXIT_PASS


def cmd_diam(args) -> int:
    F = _load(args.map)
    v = geometry.diameter_estimate(F, args.r, n_radii=args.grid,
                                   n_angles=args.theta_samples)
    print("diameter >= %.17g" % v)
    return EXIT_PASS


def cmd_landau(args) -> int:
    F = _load(args.map)
    if args.mode == "fourgon":
        for flag in ("alpha", "K", "l1"):
            if getattr(args, flag) is not None:
                raise _UsageError("--mode fourgon solves with alpha = 1 and "
                                  "takes no --%s" % flag)
        p, alpha = 2, 1.0  # the two-layer bound at unit normalization
    else:
        p, alpha = F.p, args.alpha
        if alpha is None:
            alpha = dilatation(F, 0.0).lambda_small
            if not alpha > 0.0:
                raise DegenerateMap("lambda_small = %.3e at z = 0" % alpha)
    print("mode = %s" % args.mode)
    print("p = %d" % p)
    print("alpha = %.17g" % alpha)
    if args.mode == "length":
        K = args.K if args.K is not None else quasiregularity_constant(F)
        l1 = args.l1 if args.l1 is not None else geometry.sup_length(F)
        print("K = %.17g" % K)
        print("l1 = %.17g" % l1)
        res = landau_mod.landau_from_length(p, alpha, K, l1, tol=args.tol)
    else:
        diam = args.diam if args.diam is not None else geometry.diameter_estimate(F)
        if args.diam is None and not diam > 0.0:
            raise DegenerateMap("image diameter estimate is %r" % diam)
        print("diam = %.17g" % diam)
        res = landau_mod.landau_from_diameter(p, alpha, diam, tol=args.tol)
    print("r_univ = %.17g" % res.r_univ)
    print("rho_cover = %.17g" % res.rho_cover)
    return EXIT_PASS


def cmd_three_circles(args) -> int:
    F = _load(args.map)
    if args.analytic:
        if args.r2 is None:
            raise _UsageError("--analytic needs --r2")
        rep = certificates.hadamard_three_circles(F, args.r1, args.r2,
                                                  n_theta=args.theta_samples)
    else:
        m = args.m if args.m is not None else float(geometry.area_series(F, args.r1))
        if args.m is None and not m > 0.0:  # the map's own S(r1) breaks 0 < m
            rep = certificates.CheckReport("three-circles-area", "hypotheses-not-met",
                                           extras={"S_at_r1": m})
        else:
            rep = certificates.three_circles_area(F, args.r1, m, n_grid=args.grid)
    print("check = %s" % rep.name)
    print("verdict = %s" % rep.verdict)
    worst = rep.worst()
    if worst is not None:
        print("worst slack = %.6g (%s)" % (worst.slack, worst.check_id))
    return _verdict_exit(rep.verdict)


def cmd_schwarz(args) -> int:
    F = _load(args.map)
    rep = certificates.area_schwarz(F, n_grid=args.grid)
    print("check = %s" % rep.name)
    print("verdict = %s" % rep.verdict)
    if rep.verdict != "hypotheses-not-met":
        print("classification = %s" % rep.extras["classification"])
        worst = rep.worst()
        if worst is not None:
            print("worst slack = %.6g (%s)" % (worst.slack, worst.check_id))
    return _verdict_exit(rep.verdict)


def cmd_jmetric(args) -> int:
    if args.mobius_a is not None:
        rep = metrics.mobius_j_distortion(args.mobius_a, args.mobius_theta,
                                          seed=args.seed)
        print("sup_ratio = %.17g" % rep.sup_ratio)
        print("bound = %.17g" % rep.bound)
        print("verdict = %s" % rep.verdict)
        return _verdict_exit(rep.verdict)
    if args.z is None or args.w is None:
        raise _UsageError("jmetric needs --z and --w (or --mobius-a)")
    v = metrics.j_metric(args.z, args.w, args.M)
    print("%.17g" % v)
    return EXIT_PASS


def cmd_render(args) -> int:
    F = _load(args.map)
    render_mod.render_svg(F, args.out, rings=args.rings, rays=args.rays,
                          samples=args.samples)
    return EXIT_PASS


def cmd_catalog(args) -> int:
    for name, (_, desc) in catalog._BUILTIN.items():
        print("%-9s %s" % (name, desc))
    return EXIT_PASS


# ---- verify ----


def _derived_quantities(F: PolyharmonicMap, args) -> dict:
    coeff_sum = float(np.sum(np.abs(F.a)) + np.sum(np.abs(F.b)))
    out = {
        "p": F.p,
        "J": F.J,
        "coefficient_sum": coeff_sum,
        "alpha_at_zero": float(dilatation(F, 0.0).lambda_small),
        "S_near_boundary": float(geometry.area_series(F, certificates.R_EDGE)),
    }
    if args.K is not None:
        out["K"] = float(args.K)
    else:
        try:
            out["K"] = quasiregularity_constant(F)
        except DegenerateMap:
            out["K"] = None
    out["l1"] = float(args.l1) if args.l1 is not None else geometry.sup_length(F)
    out["diam"] = (float(args.diam) if args.diam is not None
                   else geometry.diameter_estimate(F))
    return out


def cmd_verify(args) -> int:
    # checked up front: the checks that use them may be skipped for this map
    if args.grid < 1 or args.theta_samples < 1:
        raise InvalidParams("need --grid >= 1 and --theta-samples >= 1, got %r and %r"
                            % (args.grid, args.theta_samples))
    check_grid_size(args.grid, "--grid")
    check_grid_size(args.theta_samples, "--theta-samples")
    spec = mapspec.load(args.map)
    F = build_map(spec)
    derived = _derived_quantities(F, args)
    entries = []

    def add(kind, payload):
        payload = dict(payload)
        payload["counts_as"] = kind
        entries.append(payload)

    def skip(name, reason):
        add("skipped", {"name": name, "verdict": "skipped", "reason": reason})

    hyps = {}
    for kind in ("diameter", "length", "area"):
        rep = certificates.arg_condition(F, kind)
        hyps[kind] = rep.verdict == "pass"
        add("hypothesis", report.check_to_dict(rep))

    if not hyps["diameter"]:
        skip("diameter-coefficient-bounds", "layer angle condition fails")
    elif args.diam is None and not derived["diam"] > 0.0:
        skip("diameter-coefficient-bounds", "image diameter estimate is zero")
    else:
        rep = certificates.diameter_coefficient_bounds(F, derived["diam"])
        add("conclusion", report.check_to_dict(rep))

    if not hyps["length"]:
        skip("length-coefficient-bounds", "layer alignment condition fails")
    elif derived["K"] is None:
        skip("length-coefficient-bounds", "map is degenerate on the closed disk")
    else:
        rep = certificates.length_coefficient_bounds(F, derived["K"], derived["l1"])
        add("conclusion", report.check_to_dict(rep))

    m = float(geometry.area_series(F, args.r1))
    if not hyps["area"]:
        skip("three-circles-area", "area angle condition fails")
        skip("area-schwarz", "area angle condition fails")
    else:
        if not m > 0.0:
            skip("three-circles-area", "normalized area at r1 is not positive")
        elif derived["S_near_boundary"] <= 1.0 + certificates.TOL_REPORT and m < 1.0:
            rep = certificates.three_circles_area(F, args.r1, m, n_grid=args.grid)
            add("conclusion", report.check_to_dict(rep))
        else:
            skip("three-circles-area", "normalized area exceeds the unit budget")
        rep = certificates.area_schwarz(F)
        add("conclusion", report.check_to_dict(rep))

    if F.p == 1 and not np.any(F.b != 0):
        rep = certificates.hadamard_three_circles(F, 0.3, 0.9)
        add("conclusion", report.check_to_dict(rep))
    else:
        skip("hadamard-three-circles", "map is not a single analytic layer")

    target = args.M if args.M is not None else derived["coefficient_sum"]
    if target > 0.0:
        rep = metrics.contraction_check(F, target, seed=args.seed)
        add("conclusion", report.lipschitz_to_dict(rep))
    else:
        skip("j-contraction", "zero map has no target disk")

    if F.p != 1:
        skip("harmonic-j-lipschitz", "table has more than one layer")
    else:
        try:
            rep = metrics.harmonic_lipschitz_check(F, seed=args.seed,
                                                   n_boundary=args.theta_samples)
            add("conclusion", report.lipschitz_to_dict(rep))
        except NotIntoDisk:
            skip("harmonic-j-lipschitz", "map does not send the disk into itself")

    counts = {"pass": 0, "fail": 0, "hypotheses-not-met": 0, "skipped": 0}
    exit_code = EXIT_PASS
    conclusion_fail = False
    hnm_seen = False
    for e in entries:
        v = e["verdict"]
        if v in counts:
            counts[v] += 1
        if e["counts_as"] == "conclusion" and v == "fail":
            conclusion_fail = True
        if v == "hypotheses-not-met" or (e["counts_as"] == "hypothesis"
                                         and v == "fail"):
            hnm_seen = True
    if conclusion_fail:
        exit_code = EXIT_FAIL
    elif hnm_seen:
        exit_code = EXIT_HNM

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
            "grid": args.grid,
            "r1": args.r1,
            "theta_samples": args.theta_samples,
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
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
    p.add_argument("--tol", type=float, default=1e-10)
    p.set_defaults(func=cmd_length)

    p = mapped(sub.add_parser("area", help="normalized image area"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--method", choices=("series", "quadrature", "both"),
                   default="series")
    p.add_argument("--theta-samples", type=int, default=2048)
    p.add_argument("--radial-nodes", type=int, default=64)
    p.set_defaults(func=cmd_area)

    p = mapped(sub.add_parser("diam", help="lower estimate of the image diameter"))
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--grid", type=int, default=16, help="radial grid count")
    p.add_argument("--theta-samples", type=int, default=1024)
    p.set_defaults(func=cmd_diam)

    p = mapped(sub.add_parser("landau", help="univalence and covering radii"))
    p.add_argument("--mode", choices=("diameter", "length", "fourgon"),
                   required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--K", type=float)
    p.add_argument("--l1", type=float)
    p.add_argument("--diam", type=float)
    p.add_argument("--tol", type=float, default=1e-12)
    p.set_defaults(func=cmd_landau)

    p = mapped(sub.add_parser("three-circles",
                              help="interpolation bound on the area (or the "
                                   "classical analytic version)"))
    p.add_argument("--r1", type=float, required=True)
    p.add_argument("--m", type=float)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--analytic", action="store_true")
    p.add_argument("--r2", type=float)
    p.add_argument("--theta-samples", type=int, default=4096)
    p.set_defaults(func=cmd_three_circles)

    p = mapped(sub.add_parser("schwarz", help="monotonicity of S(r)/r^2"))
    p.add_argument("--grid", type=int, default=100)
    p.set_defaults(func=cmd_schwarz)

    p = sub.add_parser("jmetric", help="distance-ratio metric and distortion")
    p.add_argument("--z", type=_cnum)
    p.add_argument("--w", type=_cnum)
    p.add_argument("--M", type=float, default=1.0)
    p.add_argument("--mobius-a", type=_cnum)
    p.add_argument("--mobius-theta", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(func=cmd_jmetric)

    p = mapped(sub.add_parser("verify", help="run every applicable certificate"))
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--grid", type=int, default=50)
    p.add_argument("--r1", type=float, default=0.3)
    p.add_argument("--theta-samples", type=int, default=2048)
    p.add_argument("--K", type=float)
    p.add_argument("--l1", type=float)
    p.add_argument("--diam", type=float)
    p.add_argument("--M", type=float)
    p.set_defaults(func=cmd_verify)

    p = mapped(sub.add_parser("render", help="SVG sketch of the mapped mesh"))
    p.add_argument("--out", required=True)
    p.add_argument("--rings", type=int, default=8)
    p.add_argument("--rays", type=int, default=16)
    p.add_argument("--samples", type=int, default=512)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("catalog", help="list built-in maps")
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
