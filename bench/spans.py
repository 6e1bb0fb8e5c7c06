"""Per-layer spans, recorded from outside the program.

The tracer wraps public functions of the lenumbers modules.  A wrapper
replaces the function in the namespace of every lenumbers module that holds
it, so calls from inside the package go through it as well as calls from
the benchmark.  Each span adds to its name's call count and self time (its
duration minus the durations of the spans it encloses); some spans also
record sizes of what they return.  Spans are aggregated in memory, per
name, and written out when the run ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

# (span name, quantities) in the order they are reported.  Spans that some
# workload never enters report their calls only: their self time would read
# 0 on every run of that workload, and it is small wherever they run, since
# their work sits in the spans they enclose (bench/out keeps it).
LAYER_METRICS = (
    ("poly.apply_frame", ("calls", "self_s", "out_terms")),
    ("poly.restrict", ("calls",)),
    ("poly.iomdine", ("calls",)),
    ("groebner.basis", ("calls", "self_s", "max_len", "max_coeff_bits")),
    ("groebner.saturate_polar", ("calls", "self_s")),
    ("groebner.saturate_slice", ("calls", "self_s")),
    ("groebner.radical_member", ("calls",)),
    ("local.standard_basis", ("calls", "self_s", "max_len")),
    ("local.truncated", ("calls", "self_s", "hit_ratio")),
    ("local.quotient_dim", ("calls",)),
    ("local.local_dim", ("calls", "self_s")),
    ("local.hilbert_numerator", ("calls", "self_s")),
    ("cycles.intersection_number", ("calls", "self_s", "undefined")),
    ("cycles.lambda_numbers", ("calls", "self_s")),
    ("cycles.generic_le", ("frames_tried", "frames_defined_ratio")),
    ("milnor.milnor", ("calls",)),
    ("milnor.sectional", ("calls",)),
    ("checks.check_newmpr_and_easybound", ("calls",)),
    ("checks.check_teissier", ("calls",)),
    ("checks.check_dagger", ("calls",)),
    ("checks.search_dagger", ("calls",)),
    ("checks.check_leiom", ("calls",)),
    ("checks.check_mainmany", ("calls",)),
)

UNITS = {
    "self_s": "s",
    "max_coeff_bits": "bits",
    "hit_ratio": "ratio",
    "frames_defined_ratio": "ratio",
}

# quantities that add up over rounds, reported per round
_ADDITIVE = {"calls", "self_s", "out_terms", "undefined", "frames_tried"}


def _is_max_ideal(J) -> bool:
    """Whether J is generated by exactly the variables of its ring."""
    n = len(J.vars)
    units = set()
    for g in J.gens:
        if len(g.terms) != 1:
            return False
        ((e, c),) = g.terms.items()
        if sum(e) != 1 or c == 0:
            return False
        units.add(e)
    return len(units) == n == len(J.gens)


def _coeff_bits(basis) -> int:
    return max(
        (
            max(c.numerator.bit_length(), c.denominator.bit_length())
            for p in basis
            for c in p.terms.values()
        ),
        default=0,
    )


class Tracer:
    def __init__(self):
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self._stack: list[list] = []  # [span name, seconds spent in child spans]
        self.active = True

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, fn, name, after=None):
        """fn inside a span; name is a string or a function of fn's
        arguments; after(stats, result, parent frame) records sizes."""
        stats, stack = self.stats, self._stack

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = name if isinstance(name, str) else name(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [span, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                st = stats[span]
                st["calls"] += 1
                st["self_s"] += t1 - t0 - frame[1]
                st["incl_s"] += t1 - t0
                if parent is not None:
                    parent[1] += t1 - t0
            if after is not None:
                after(st, result, parent)
                # size bookkeeping is nobody's self time
                if parent is not None:
                    parent[1] += perf_counter() - t1
            return result

        return wrapper

    def install(self, lib) -> None:
        """Wrap the traced functions of the imported package lib."""
        st = self.stats

        def frames(_, rec, parent):
            if parent is not None and parent[0] == "cycles.generic_le":
                st["cycles.generic_le"]["frames_tried"] += 1
                st["cycles.generic_le"]["frames_defined"] += rec.fully_defined

        def basis_size(s, basis, _):
            s["max_len"] = max(s["max_len"], len(basis))

        def basis_sizes(s, basis, _):
            basis_size(s, basis, _)
            s["max_coeff_bits"] = max(s["max_coeff_bits"], _coeff_bits(basis))

        def count(key, pred):
            def after(s, result, _):
                s[key] += pred(result)
            return after

        def saturate_kind(I, J):
            return "groebner.saturate_slice" if _is_max_ideal(J) else "groebner.saturate_polar"

        targets = [
            (lib.poly, "apply_frame", "poly.apply_frame", count("out_terms", lambda p: len(p.terms))),
            (lib.poly, "restrict", "poly.restrict", None),
            (lib.poly, "iomdine", "poly.iomdine", None),
            (lib.groebner, "saturate", saturate_kind, None),
            (lib.groebner, "radical_member", "groebner.radical_member", None),
            (lib.local, "local_standard_basis", "local.standard_basis", basis_size),
            (lib.local, "truncated_quotient_dim", "local.truncated", count("hits", lambda q: q is not None)),
            (lib.local, "local_quotient_dim", "local.quotient_dim", None),
            (lib.local, "local_dim", "local.local_dim", None),
            (lib.local, "hilbert_numerator", "local.hilbert_numerator", None),
            (lib.cycles, "intersection_number", "cycles.intersection_number", count("undefined", lambda q: q is None)),
            (lib.cycles, "lambda_numbers", "cycles.lambda_numbers", frames),
            (lib.cycles, "generic_le", "cycles.generic_le", None),
            (lib.milnor, "milnor", "milnor.milnor", None),
            (lib.milnor, "sectional", "milnor.sectional", None),
        ]
        targets += [
            (lib.checks, f, f"checks.{f}", None)
            for f in (
                "check_newmpr_and_easybound",
                "check_teissier",
                "check_dagger",
                "search_dagger",
                "check_leiom",
                "check_mainmany",
            )
        ]
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "lenumbers"]
        for home, attr, name, after in targets:
            orig = getattr(home, attr)
            wrapped = self.wrap(orig, name, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
        # a method: one class attribute serves every caller
        Ideal = lib.groebner.Ideal
        Ideal.groebner = self.wrap(Ideal.groebner, "groebner.basis", basis_sizes)

    def metrics(self, rounds: int) -> dict:
        """Every layer metric, additive quantities per round."""
        out = {}
        for span, quantities in LAYER_METRICS:
            st = self.stats.get(span, {})
            for q in quantities:
                if q == "hit_ratio":
                    value = st.get("hits", 0) / st["calls"] if st.get("calls") else 0.0
                elif q == "frames_defined_ratio":
                    tried = st.get("frames_tried", 0)
                    value = st.get("frames_defined", 0) / tried if tried else 0.0
                else:
                    value = st.get(q, 0)
                    if q in _ADDITIVE:
                        value /= rounds
                if q != "self_s" and float(value).is_integer():
                    value = int(value)
                out[f"{span}.{q}"] = {"value": value, "unit": UNITS.get(q, "count")}
        return out

    def table(self) -> dict:
        """Every span's aggregates, for the trace file; incl_s is the time
        inside the span, children included."""
        return {span: dict(st) for span, st in sorted(self.stats.items())}
