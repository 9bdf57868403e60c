"""Per-layer spans and counters, recorded from outside the program.

The tracer wraps the public functions each realdp layer exports.  A wrapper
replaces every module attribute that names the function, because modules
import functions by name (`catalog` and `search` hold their own reference to
`enumerate_classes`).  Each span adds its duration to its parent's child
time, so a layer's self time is its span time minus the time covered by the
spans it caused.  Only aggregates are kept: calls and self time per span,
plus the work counters below.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter


def _bits(value):
    return max(value.numerator.bit_length(), value.denominator.bit_length())


def _count(key, amount):
    def observe(counters, args, result):
        counters[key] += amount(args, result)
    return observe


def _track_max(key, bits):
    def observe(counters, args, result):
        counters[key] = max(counters[key], bits(args, result))
    return observe


def _hyperbolicity(counters, args, result):
    counters["topology.trials"] += result.trial if result.refuted else result.trials
    counters["topology.boundary_contacts"] += result.boundary_contacts


# (module, attribute, counter hook or None).  `restrict_to_line` is a method
# of HypersurfaceSpec and is wrapped on the class.
SPANS = (
    ("realdp.intlinalg", "enumerate_quadratic",
     _count("intlinalg.enumerate_quadratic.points", lambda a, r: len(r))),
    ("realdp.lattice", "enumerate_classes",
     _count("lattice.enumerate_classes.kept", lambda a, r: len(r))),
    ("realdp.catalog", "minus_one_curves", None),
    ("realdp.catalog", "builtin", None),
    ("realdp.search", "check_conditions",
     _count("search.check_conditions.passed", lambda a, r: int(r.passed))),
    ("realdp.search", "search", None),
    ("realdp.topology", "hyperbolicity_check", _hyperbolicity),
    ("realdp.topology", "HypersurfaceSpec.restrict_to_line", None),
    ("realdp.topology", "linking_number",
     _count("topology.linking_number.segments", lambda a, r: 2 * len(a[0].points))),
    ("realdp.realroots", "sturm_count",
     _track_max("realroots.max_coeff_bits", lambda a, r: max(map(_bits, a[0]), default=0))),
    ("realdp.realroots", "gcd_poly", None),
    ("realdp.realroots", "squarefree_decomposition", None),
    ("realdp.conic", "discriminant",
     _track_max("conic.disc_max_bits", lambda a, r: max(abs(c).bit_length() for c in r.coeffs))),
    ("realdp.conic", "analyze", None),
    ("realdp.conic", "factored_str", None),
    ("realdp.cli", "main", None),
)


def span_name(module, attr):
    return module.split(".", 1)[1] + "." + attr.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.calls = {span_name(m, a): 0 for m, a, _ in SPANS}
        self.self_s = dict.fromkeys(self.calls, 0.0)
        self.counters = {
            "intlinalg.enumerate_quadratic.points": 0,
            "lattice.enumerate_classes.kept": 0,
            "search.check_conditions.passed": 0,
            "topology.trials": 0,
            "topology.boundary_contacts": 0,
            "topology.linking_number.segments": 0,
            "realroots.max_coeff_bits": 0,
            "conic.disc_max_bits": 0,
        }
        self._child_time = []  # one accumulator per open span
        self._patches = []

    def _wrap(self, name, fn, observe):
        calls, self_s, counters, stack = self.calls, self.self_s, self.counters, self._child_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                calls[name] += 1
                self_s[name] += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def install(self):
        """Replace every realdp module attribute naming a traced function."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "realdp" or n.startswith("realdp.")]
        for module_name, attr, observe in SPANS:
            name = span_name(module_name, attr)
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self._wrap(name, original, observe))
                self._patches.append((cls, attr, original))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, observe)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patches.append((module, key, original))

    def uninstall(self):
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        c, s, k = self.calls, self.self_s, self.counters
        points = k["intlinalg.enumerate_quadratic.points"]
        kept = k["lattice.enumerate_classes.kept"]
        checks = c["search.check_conditions"]
        restrictions = c["topology.restrict_to_line"]
        out = {
            "intlinalg.enumerate_quadratic.calls": (c["intlinalg.enumerate_quadratic"], "count"),
            "intlinalg.enumerate_quadratic.self_s": (s["intlinalg.enumerate_quadratic"], "s"),
            "intlinalg.enumerate_quadratic.points": (points, "count"),
            "lattice.enumerate_classes.calls": (c["lattice.enumerate_classes"], "count"),
            "lattice.enumerate_classes.self_s": (s["lattice.enumerate_classes"], "s"),
            "lattice.enumerate_classes.kept": (kept, "count"),
            "lattice.enumerate_classes.keep_ratio": (kept / points if points else 0.0, "ratio"),
            "catalog.minus_one_curves.calls": (c["catalog.minus_one_curves"], "count"),
            "catalog.minus_one_curves.self_s": (s["catalog.minus_one_curves"], "s"),
            "catalog.builtin.self_s": (s["catalog.builtin"], "s"),
            "search.check_conditions.calls": (checks, "count"),
            "search.check_conditions.self_s": (s["search.check_conditions"], "s"),
            "search.check_conditions.us_per_call": (
                1e6 * s["search.check_conditions"] / checks if checks else 0.0, "us"),
            "search.pass_ratio": (
                k["search.check_conditions.passed"] / checks if checks else 0.0, "ratio"),
            "search.search.self_s": (s["search.search"], "s"),
            "topology.hyperbolicity_check.self_s": (s["topology.hyperbolicity_check"], "s"),
            "topology.restrict_to_line.calls": (restrictions, "count"),
            "topology.restrict_to_line.self_s": (s["topology.restrict_to_line"], "s"),
            "topology.trials": (k["topology.trials"], "count"),
            "topology.boundary_contacts": (k["topology.boundary_contacts"], "count"),
            "topology.linking_number.calls": (c["topology.linking_number"], "count"),
            "topology.linking_number.self_s": (s["topology.linking_number"], "s"),
            "topology.linking_number.segments": (k["topology.linking_number.segments"], "count"),
            "realroots.sturm_count.calls": (c["realroots.sturm_count"], "count"),
            "realroots.sturm_count.self_s": (s["realroots.sturm_count"], "s"),
            "realroots.gcd_poly.calls": (c["realroots.gcd_poly"], "count"),
            "realroots.gcd_poly.self_s": (s["realroots.gcd_poly"], "s"),
            "realroots.gcd_poly.per_restriction": (
                c["realroots.gcd_poly"] / restrictions if restrictions else 0.0, "ratio"),
            "realroots.squarefree_decomposition.calls": (c["realroots.squarefree_decomposition"], "count"),
            "realroots.max_coeff_bits": (k["realroots.max_coeff_bits"], "bits"),
            "conic.discriminant.self_s": (s["conic.discriminant"], "s"),
            "conic.analyze.self_s": (s["conic.analyze"], "s"),
            "conic.factored_str.self_s": (s["conic.factored_str"], "s"),
            "conic.disc_max_bits": (k["conic.disc_max_bits"], "bits"),
            "cli.main.self_s": (s["cli.main"], "s"),
        }
        return out

    def work_counts(self):
        """The counters that must repeat exactly for a given seed."""
        return {name: value for name, (value, unit) in self.metrics().items()
                if unit in ("count", "bits")}
