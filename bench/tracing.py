"""Span tracing of the apolarity package from outside the package.

A ``Tracer`` replaces public names of the package with timing wrappers while
it is installed.  A function is replaced in every module that imported it
(``jordan.rank_rows`` as well as ``exactlinalg.rank_rows``); a method is
replaced on its class.  Private helpers are never wrapped, so their time
stays in the self time of the public caller.  Each call records a span
(name, start, end, parent) in memory; self time is a span's duration minus
the durations of its direct children.  A name that the package no longer
defines is reported as absent instead of failing the run.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

PACKAGE = "apolarity"
OP = "op"


def _count_monomials(args, kwargs, result):
    return {"polyring.monomials_emitted": len(result)}


def _coord_cells(model):
    """Sum over degrees of (table size) x h_t, read from a returned model."""
    tables = getattr(model, "_coords", None)
    if tables is None:
        return 0
    return sum(len(table) * model.h(t) for t, table in enumerate(tables))


def _count_model(args, kwargs, result):
    return {"apolar.coord_cells": _coord_cells(result)}


def _count_span(args, kwargs, result):
    return {"exactlinalg.span_added": int(result[0])}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rank(args, kwargs, result):
    rows = _arg(args, kwargs, 0, "rows")
    ncols = len(rows[0]) if rows else 0
    return {"exactlinalg.rank_cells": len(rows) * ncols}


def _count_matmul(args, kwargs, result):
    a_rows = _arg(args, kwargs, 0, "a_rows")
    b_rows = _arg(args, kwargs, 1, "b_rows")
    b_ncols = _arg(args, kwargs, 3, "b_ncols")
    return {"exactlinalg.matmul_madds": len(a_rows) * len(b_rows) * b_ncols}


def _count_forms(args, kwargs, result):
    return {"perazzo.forms": 1}


# (span name, defining module, attribute, counter).  Several attributes may
# share one span name; their self times add up under it.
TARGETS = (
    ("polyring.monomials", "polyring", "VariableSet.monomials", _count_monomials),
    ("apolar.model_from_dual", "apolar", "model_from_dual", _count_model),
    ("apolar.model_from_ideal", "apolar", "model_from_ideal", _count_model),
    ("apolar.hilbert_function", "apolar", "hilbert_function", None),
    ("apolar.annihilator_basis", "apolar", "annihilator_basis", None),
    ("apolar.step_matrix_rows", "apolar", "step_matrix_rows", None),
    ("exactlinalg.span", "exactlinalg", "SpanSolver.express_or_add", _count_span),
    ("exactlinalg.rank", "exactlinalg", "rank_rows", _count_rank),
    ("exactlinalg.kernel", "exactlinalg", "Matrix.kernel_basis", None),
    ("exactlinalg.matmul", "exactlinalg", "mat_mul_rows", _count_matmul),
    ("jordan.rank_profile", "jordan", "rank_profile", None),
    ("jordan.strings", "jordan", "jordan_strings", None),
    ("perazzo.verify", "perazzo", "verify_full_perazzo", None),
    ("perazzo.classify", "perazzo", "classify_linear_form", None),
    ("perazzo.predict", "perazzo", "predicted_jordan", _count_forms),
    ("cli.run_command", "cli", "run_command", None),
    ("cli.parse", "cli", "build_parser", None),
    ("cli.parse", "cli", "parse_field", None),
    ("cli.parse", "cli", "parse_perazzo", None),
    ("cli.parse", "cli", "parse_polynomial", None),
    ("cli.parse", "cli", "parse_linear_form_kv", None),
    ("cli.render", "cli", "render_record", None),
)


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


class Tracer:
    """Wraps the target names while installed and keeps every span."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # (name, start, end, parent index or -1)
        self.counters = Counter()
        self.absent = []
        self._stack = []
        self._patches = []
        for _span, modname, attr, _count in targets:
            if self._lookup(modname, attr) is None:
                self.absent.append(f"{modname}.{attr}")

    @staticmethod
    def _lookup(modname, attr):
        obj = sys.modules.get(f"{PACKAGE}.{modname}")
        for part in attr.split("."):
            obj = getattr(obj, part, None)
            if obj is None:
                return None
        return obj

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if count is not None:
                counters.update(count(args, kwargs, result))
            return result

        return wrapper

    def install(self):
        modules = _package_modules()
        for name, modname, attr, count in self.targets:
            orig = self._lookup(modname, attr)
            if orig is None:
                continue
            wrapper = self._wrap(name, orig, count)
            owner_path, _, leaf = attr.rpartition(".")
            if owner_path:
                owner = self._lookup(modname, owner_path)
                self._patches.append((owner, leaf, orig))
                setattr(owner, leaf, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, orig = self._patches.pop()
            setattr(owner, key, orig)

    def op(self, fn, *args):
        """Run one benchmark op under a root span."""
        return self._wrap(OP, fn, None)(*args)

    def summary(self, share_names=()):
        """Self time and call count per span name, and the inclusive time of
        each name in ``share_names`` (outermost spans of that name only)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        inclusive = defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            if name in share_names:
                p = parent
                while p >= 0 and spans[p][0] != name:
                    p = spans[p][3]
                if p < 0:
                    inclusive[name] += end - start
        return self_s, calls, inclusive
