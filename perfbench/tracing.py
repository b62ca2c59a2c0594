"""Per-layer tracing of borelsum, installed from the benchmark's side.

The tracer wraps the public functions behind each per-layer metric.  Modules
bind imported names locally (``classical`` and ``ramified`` do
``from .numerics import gamma_ratio``), so every attribute of every loaded
``borelsum`` module that is bound to a wrapped function is rebound, and so
is every entry of a module-level dict (``BUILTIN_SERIES``); patching only the
defining module would leave calls made from other modules uncounted.

A call that enters a group from outside it records a span (name, start, end,
parent, pass id) and counts toward the group's calls, distinct arguments and
argument-derived counts; a call nested inside its own group runs unrecorded.
Spans stay in memory until the run ends.  A group's self time is the sum of
its spans' durations minus their children's.  ``stirling_first`` (tens of
thousands of calls a pass) is counted but not timed, so its time stays in its
caller, ``stirling_transform``.  This module imports no borelsum code at
import time, so the runner can use :func:`combine` and
:func:`per_layer_metrics` without loading the package.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction


def _freeze(x):
    """Hashable, exact identity of an argument (mpmath values by mantissa)."""
    raw = getattr(x, "_mpc_", None) or getattr(x, "_mpf_", None)
    return x if raw is None else raw


def _key_gamma(z, n, s=0, prec=None):
    return (_freeze(z), n, _freeze(s), prec)


def _key_d(r, j, prec=None):
    return (Fraction(r), j)


def _key_d_row(r, j_max):
    return (Fraction(r), "row", j_max)


def _products(a, prec=None, with_condition=False):
    # input length L = n + 1 gives sum_{i<L} (i+1) = (n+1)(n+2)/2 products
    return len(a) * (len(a) + 1) // 2


def _terms(depth, prec=None):
    return depth + 1


# module, attribute, group, spanned, key of distinct arguments, (counter, fn)
TARGETS = (
    ("reproduce", "run_target", "reproduce", True, None, None),
    ("ramified", "branch_sum", "ramified", True, None, None),
    ("ramified", "generalized_coefficients", "ramified", True, None, None),
    ("ramified", "generalized_factorial_sum", "ramified", True, None, None),
    ("ramified", "rotated_generalized_sum", "ramified", True, None, None),
    ("ramified", "least_term_sum_ramified", "ramified", True, None, None),
    ("ramified", "r_as_ramified", "ramified", True, None, None),
    ("classical", "factorial_expansion", "classical", True, None, None),
    ("classical", "factorial_series_sum", "classical", True, None, None),
    ("classical", "stirling_transform", "classical.stirling_transform", True, None,
     ("classical.stirling_transform.products", _products)),
    ("classical", "r_fact", "classical.bounds", True, None, None),
    ("classical", "r_fact_asymptotic", "classical.bounds", True, None, None),
    ("classical", "r_as", "classical.bounds", True, None, None),
    ("classical", "b_bound", "classical.bounds", True, None, None),
    ("classical", "bound_comparison_table", "classical.bounds", True, None, None),
    ("series", "scale", "series", True, None, None),
    ("series", "rotate", "series", True, None, None),
    ("series", "branch_split", "series", True, None, None),
    ("series", "power", "series", True, None, None),
    ("series", "partial_sum", "series", True, None, None),
    ("combinatorics", "d_coefficient_exact", "combinatorics.d_coefficients", True, _key_d, None),
    ("combinatorics", "d_coefficient", "combinatorics.d_coefficients", True, _key_d, None),
    ("combinatorics", "d_coefficient_row", "combinatorics.d_coefficients", True, _key_d_row, None),
    ("combinatorics", "bell_partial", "combinatorics.d_coefficients", True, None, None),
    ("combinatorics", "stirling_first", "combinatorics.stirling_first", False,
     lambda n, k: (n, k), None),
    ("numerics", "gamma_ratio", "numerics.gamma_ratio", True, _key_gamma, None),
    ("oracle", "psi_series", "oracle.coefficients", True, None, ("oracle.coefficients.terms", _terms)),
    ("oracle", "example2_series", "oracle.coefficients", True, None, ("oracle.coefficients.terms", _terms)),
    ("oracle", "euler_series", "oracle.coefficients", True, None, ("oracle.coefficients.terms", _terms)),
    ("oracle", "laplace_quadrature", "oracle.quadrature", True, None, None),
)

LAYERS = ("cli", "reproduce", "ramified", "classical", "series",
          "combinatorics", "numerics", "oracle")


def _layer(group: str) -> str:
    return group.split(".", 1)[0]


class Tracer:
    """Spans and argument-derived counts for one process."""

    def __init__(self):
        self.spans: list[list] = []   # [name, group, start, end, parent, pass_id]
        self.stack: list[int] = []
        self.pass_id = "setup"
        self.calls: Counter = Counter()
        self.distinct: dict[str, set] = defaultdict(set)
        self.counts: Counter = Counter()
        self.errors: Counter = Counter()
        self._patches: list = []

    # -- recording -------------------------------------------------------

    def _raised(self, parent: int, group: str) -> None:
        if parent < 0 or _layer(self.spans[parent][1]) != _layer(group):
            self.errors[_layer(group)] += 1

    @contextmanager
    def span(self, name: str, group: str):
        """Record one span around a block that is not a wrapped call."""
        parent = self.stack[-1] if self.stack else -1
        rec = [name, group, time.perf_counter(), 0.0, parent, self.pass_id]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        except Exception:
            self._raised(parent, group)
            raise
        finally:
            rec[3] = time.perf_counter()
            self.stack.pop()

    def _wrap(self, fn, name, group, spanned, key, counter):
        # the wrapper runs up to ~10^5 times a pass: keep its work inline
        spans, stack, calls, counts = self.spans, self.stack, self.calls, self.counts
        keys = self.distinct[group]
        count_name, count_fn = counter or (None, None)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent >= 0 and spans[parent][1] == group:
                return fn(*args, **kwargs)  # nested in its own group: unrecorded
            calls[group] += 1
            if key is not None:
                keys.add(key(*args, **kwargs))
            if count_fn is not None:
                counts[count_name] += count_fn(*args, **kwargs)
            if not spanned:
                try:
                    return fn(*args, **kwargs)
                except Exception:
                    self._raised(parent, group)
                    raise
            rec = [name, group, clock(), 0.0, parent, self.pass_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            except Exception:
                self._raised(parent, group)
                raise
            finally:
                rec[3] = clock()
                stack.pop()
        return functools.update_wrapper(wrapper, fn)

    def _count_evals(self, fn):
        def counted(zeta):
            self.counts["oracle.quadrature.integrand_evals"] += 1
            return fn(zeta)
        return counted

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        """Rebind every reference to a target held by a loaded borelsum module."""
        import borelsum.oracle as oracle
        modules = [m for name, m in list(sys.modules.items())
                   if name == "borelsum" or name.startswith("borelsum.")]
        for modname, attr, group, spanned, key, counter in TARGETS:
            mod = sys.modules.get(f"borelsum.{modname}")
            if mod is None:
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, f"{modname}.{attr}", group, spanned, key, counter)
            seen_dicts = set()
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patches.append((m.__dict__, name, original))
                        setattr(m, name, wrapper)
                    elif isinstance(value, dict) and id(value) not in seen_dicts:
                        seen_dicts.add(id(value))
                        for k, v in list(value.items()):
                            if v is original:
                                self._patches.append((value, k, original))
                                value[k] = wrapper
        evaluators = oracle.BUILTIN_EVALUATORS
        for name, ev in list(evaluators.items()):
            self._patches.append((evaluators, name, ev))
            evaluators[name] = dataclasses.replace(ev, fn=self._count_evals(ev.fn))

    def uninstall(self) -> None:
        while self._patches:
            container, name, original = self._patches.pop()
            container[name] = original

    # -- results ---------------------------------------------------------

    def summary(self) -> dict:
        """Self time, calls, distinct arguments, counts and errors by group."""
        child = [0.0] * len(self.spans)
        for name, group, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for i, (name, group, start, end, parent, _) in enumerate(self.spans):
            self_s[group] += (end - start) - child[i]
        return {"self_s": dict(self_s), "calls": dict(self.calls),
                "distinct": {g: len(s) for g, s in self.distinct.items()},
                "counts": dict(self.counts), "errors": dict(self.errors)}

    def span_records(self, proc: str) -> list[dict]:
        return [{"proc": proc, "name": n, "start": s, "end": e, "parent": p, "pass": pid}
                for n, g, s, e, p, pid in self.spans]


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "1" if metric.endswith("_ratio") else "count"


def combine(summaries) -> dict:
    """Sum summaries of several processes field by field.

    Distinct-argument counts add up across processes: an in-process cache
    could reuse only what repeats within one process.
    """
    out: dict = {"self_s": Counter(), "calls": Counter(), "distinct": Counter(),
                 "counts": Counter(), "errors": Counter()}
    for s in summaries:
        for field, values in s.items():
            out[field].update(values)
    return out


def per_layer_metrics(lib: dict, cold: dict, overhead_ratio: float) -> dict:
    """Every per-layer metric, from the library process (setup and first
    pass) and from the cold CLI children (``cli.*``, ``reproduce.*``)."""
    def ratio(group):
        calls = lib["calls"].get(group, 0)
        return lib["distinct"].get(group, 0) / calls if calls else 1.0

    m = {
        "cli.import_s": cold["counts"].get("cli.import_s", 0.0),
        "cli.self_s": cold["self_s"].get("cli", 0.0),
        "reproduce.self_s": cold["self_s"].get("reproduce", 0.0),
    }
    for group in ("ramified", "classical", "classical.stirling_transform",
                  "classical.bounds", "series", "combinatorics.d_coefficients",
                  "numerics.gamma_ratio", "oracle.coefficients", "oracle.quadrature"):
        m[f"{group}.self_s"] = lib["self_s"].get(group, 0.0)
    m["ramified.calls"] = lib["calls"].get("ramified", 0)
    m["classical.stirling_transform.products"] = lib["counts"].get(
        "classical.stirling_transform.products", 0)
    for group in ("combinatorics.d_coefficients", "combinatorics.stirling_first",
                  "numerics.gamma_ratio"):
        m[f"{group}.calls"] = lib["calls"].get(group, 0)
        m[f"{group}.unique_ratio"] = ratio(group)
    m["oracle.coefficients.terms"] = lib["counts"].get("oracle.coefficients.terms", 0)
    m["oracle.quadrature.integrand_evals"] = lib["counts"].get(
        "oracle.quadrature.integrand_evals", 0)
    for layer in LAYERS:
        source = cold if layer in ("cli", "reproduce") else lib
        m[f"{layer}.errors"] = source["errors"].get(layer, 0)
    m["trace.overhead_ratio"] = overhead_ratio
    return m
