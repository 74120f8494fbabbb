"""Per-layer spans and counters, recorded from outside polyharm.

``Tracer.install`` replaces each public function named in ``WRAPPED`` by a
timing wrapper in every loaded polyharm module that holds it.  Rebinding
only the defining module is not enough: ``cli``, ``geometry``,
``certificates``, ``metrics`` and ``render`` import ``evaluate`` and
``wirtinger`` by name, so their calls would bypass a wrapper placed on
``polyharm.core`` alone.  ``uninstall`` puts the originals back.

Spans are aggregated as they close, per function: calls, inclusive time
and self time (inclusive minus the time of the spans it called).  The
program is single-threaded, so spans nest strictly.  Every span must run
under a ``cli.main`` span, the root of one operation; any other span that
opens with nothing above it is counted in ``orphans``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

WRAPPED = {
    "core": ("evaluate", "wirtinger", "dilatation", "quasiregularity_constant"),
    "geometry": ("curve_length", "sup_length", "area_series", "area_quadrature",
                 "area_growth_excess", "diameter_estimate"),
    "certificates": ("arg_condition", "diameter_coefficient_bounds",
                     "length_coefficient_bounds", "three_circles_area",
                     "hadamard_three_circles", "area_schwarz"),
    "landau": ("landau_from_diameter", "landau_from_length"),
    "metrics": ("contraction_check", "harmonic_lipschitz_check",
                "mobius_j_distortion"),
    "mapspec": ("load",),
    "report": ("render_json",),
    "cli": ("main",),
}

SPANS = tuple("%s.%s" % (mod, fn) for mod, fns in WRAPPED.items() for fn in fns)
ROOT = "cli.main"
# wirtinger work attributed to the enclosing span of these layers
HOSTS = ("geometry.curve_length", "geometry.area_quadrature")

COUNTERS = (
    "core.wirtinger.points", "core.evaluate.points", "core.wirtinger.term_points",
    "geometry.curve_length.failed", "geometry.curve_length.points",
    "geometry.curve_length.wirtinger_self_s",
    "geometry.area_quadrature.wirtinger_self_s",
    "landau.iterations", "metrics.samples", "report.bytes",
)


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)
        self.own = defaultdict(float)
        self.counters = defaultdict(float)
        self.orphans = 0
        self._stack = []  # [name, child seconds] per open span
        self._saved = []  # (module, attribute, original)

    def install(self) -> None:
        for mod in tuple(WRAPPED) + ("render",):
            importlib.import_module("polyharm." + mod)
        modules = [m for name, m in sys.modules.items()
                   if name == "polyharm" or name.startswith("polyharm.")]
        for mod, names in WRAPPED.items():
            home = sys.modules["polyharm." + mod]
            for fn in names:
                original = getattr(home, fn)
                wrapper = self._wrap("%s.%s" % (mod, fn), original)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            self._saved.append((m, attr, original))
                            setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            m, attr, original = self._saved.pop()
            setattr(m, attr, original)

    def _wrap(self, name, func):
        stack = self._stack

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not stack and name != ROOT:
                self.orphans += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            ok = False
            try:
                result = func(*args, **kwargs)
                ok = True
                return result
            finally:
                dt = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                self.calls[name] += 1
                self.total[name] += dt
                self.own[name] += dt - frame[1]
                self._count(name, args, result if ok else None, ok, dt - frame[1])

        return traced

    def _count(self, name, args, result, ok, self_s) -> None:
        c = self.counters
        if name in ("core.wirtinger", "core.evaluate"):
            F, z = args[0], args[1]
            points = int(getattr(z, "size", 1))
            c[name + ".points"] += points
            if name == "core.wirtinger":
                c["core.wirtinger.term_points"] += points * F.p * F.J
                for host in HOSTS:
                    if any(frame[0] == host for frame in self._stack):
                        c[host + ".wirtinger_self_s"] += self_s
                        if host == "geometry.curve_length":
                            c[host + ".points"] += points
        elif name == "geometry.curve_length" and not ok:
            c["geometry.curve_length.failed"] += 1
        elif name.startswith("landau.") and ok:
            c["landau.iterations"] += result.iterations
        elif name.startswith("metrics.") and ok:
            c["metrics.samples"] += result.samples
        elif name == "report.render_json" and ok:
            c["report.bytes"] += len(result.encode("utf-8"))

    def metrics(self, rounds: int) -> dict:
        """Per-round averages of every span and counter, as name -> (value, unit)."""
        out = {}
        for name in SPANS:
            out[name + ".calls"] = (self.calls[name] / rounds, "count")
            out[name + ".s"] = (self.total[name] / rounds, "s")
            out[name + ".self_s"] = (self.own[name] / rounds, "s")
        for name in COUNTERS:
            unit = "s" if name.endswith("_s") else "B" if name.endswith("bytes") else "count"
            out[name] = (self.counters[name] / rounds, unit)
        calls = self.calls["geometry.curve_length"]
        failed = self.counters["geometry.curve_length.failed"]
        # with no calls nothing was wasted, so the ratio reads 1
        out["geometry.curve_length.converged_ratio"] = (
            (calls - failed) / calls if calls else 1.0, "ratio")
        return out
