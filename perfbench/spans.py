"""Spans and counters around qformkit's public functions, from outside.

``Tracer.install`` replaces each traced function at every module (or
class) attribute through which qformkit's own code reaches it.  A module
that did ``from .forms import congruence_diagonalize`` holds its own
binding, so wrapping ``forms.congruence_diagonalize`` alone would miss
the calls made from ``containment``.  ``Tracer.remove`` puts the
originals back.

A span is [name, start_ns, end_ns, parent_index].  Spans stay in memory
and are written out once, when the run ends.  Self time is a span's
duration minus the time its child spans cover; one thread makes every
call, so children never overlap.

``count_constructions`` counts ``Fraction`` and ``QuadExt``
constructions with a profiler hook, in a pass of its own, since the hook
slows every Python call.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from time import perf_counter_ns

# span name -> [(module path, attribute)], every binding callers go through
TARGETS = {
    "forms.diagonalize": [("forms", "congruence_diagonalize"), ("containment", "congruence_diagonalize"),
                          ("polys", "congruence_diagonalize"), ("semidefinite", "congruence_diagonalize")],
    "forms.classify": [("forms", "classify"), ("containment", "classify"), ("polys", "classify"),
                       ("semidefinite", "classify")],
    "forms.evaluate": [("forms", "evaluate"), ("containment", "evaluate"), ("polys", "form_eval")],
    "forms.parse": [("forms", "form_from_json"), ("forms", "transform_from_json")],
    "linalg.mat_mul": [("linalg", "mat_mul")],
    "linalg.mat_vec": [("linalg", "mat_vec")],
    "linalg.rref": [("linalg", "rref")],
    "semidefinite.kernel": [("linalg", "kernel")],
    "containment.decide": [("containment", "decide_containment"), ("relativity", "decide_containment"),
                           ("semidefinite", "decide_containment")],
    "containment.witness": [("containment", "construct_witness")],
    "containment.verify": [("containment", "verify_witness")],
    "polys.decide": [("polys", "decide_containment_homogeneous")],
    "polys.divide": [("polys", "reduce_by_quadratic")],
    "polys.evaluate": [("polys.HomogeneousPoly", "evaluate")],
    "polys.sample": [("polys", "sample_cone_point")],
    "polys.verify": [("polys", "verify_poly_witness")],
    "polys.parse": [("polys", "poly_from_json")],
    "semidefinite.simdiag": [("semidefinite", "simdiag_general")],
    "semidefinite.psd": [("semidefinite", "simdiag_psd")],
    "relativity.check": [("relativity", "check_interval_invariance")],
}


def _resolve(path):
    import importlib

    head, _, cls = path.partition(".")
    obj = importlib.import_module(f"qformkit.{head}")
    return getattr(obj, cls) if cls else obj


def _bits(x):
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.diag_results = []
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack
        keep = self.diag_results if name == "forms.diagonalize" else None

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if keep is not None:
                keep.append(out)
            return out

        return traced

    def install(self):
        wrapped = {}
        for name, sites in TARGETS.items():
            for path, attr in sites:
                owner = _resolve(path)
                original = getattr(owner, attr)
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def span(self, name, fn, *args):
        """Run fn(*args) as a root span; returns (result, exception, ns)."""
        idx = len(self.spans)
        self.spans.append([name, 0, 0, -1])
        self.stack.append(idx)
        out = exc = None
        start = perf_counter_ns()
        try:
            out = fn(*args)
        except Exception as err:  # the caller records the failed verdict
            exc = err
        end = perf_counter_ns()
        self.stack.pop()
        self.spans[idx][1] = start
        self.spans[idx][2] = end
        return out, exc, end - start

    def diag_bits_max(self):
        """Largest numerator or denominator bit length among the diagonal
        and basis entries returned by congruence diagonalization."""
        best = 0
        for d in self.diag_results:
            best = max([best] + [_bits(x) for x in d.diag] + [_bits(x) for row in d.basis for x in row])
        self.diag_results.clear()
        return best

    def summarize(self):
        """Per span name: calls, inclusive ns (outermost spans of that name
        only) and self ns."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child_ns[s[3]] += s[2] - s[1]
        calls, incl, self_ns = {}, {}, {}
        for idx, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_ns[name] = self_ns.get(name, 0) + dur - child_ns[idx]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                incl[name] = incl.get(name, 0) + dur
        return {"calls": calls, "incl_ns": incl, "self_ns": self_ns}

    def under(self, ancestor_name, name):
        """How many spans called `name` have an ancestor called `ancestor_name`."""
        spans, count = self.spans, 0
        for s in spans:
            if s[0] != name:
                continue
            p = s[3]
            while p >= 0:
                if spans[p][0] == ancestor_name:
                    count += 1
                    break
                p = spans[p][3]
        return count


def count_constructions(fn, *args):
    """Run fn(*args) under a profiler hook; returns (result, exception,
    Fraction constructions, QuadExt constructions)."""
    from qformkit.scalars import QuadExt

    fraction_new = Fraction.__new__.__code__
    quadext_init = QuadExt.__init__.__code__
    counts = [0, 0]

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code is fraction_new:
                counts[0] += 1
            elif code is quadext_init:
                counts[1] += 1

    sys.setprofile(hook)
    try:
        out, exc = fn(*args), None
    except Exception as err:  # the caller records the failed verdict
        out, exc = None, err
    finally:
        sys.setprofile(None)
    return out, exc, counts[0], counts[1]
