"""Outside-in layer trace for qybe.

The tracer wraps qybe's public functions from the outside: every module
attribute that binds one of them is replaced by a wrapper for the
duration of a ``with tracer.installed():`` block and restored afterwards,
so code outside the block runs the unwrapped library.  Nothing inside
``src/`` is edited.

Two kinds of wrapper are used:

* span wrappers record (name, start, end, parent) plus an optional tag
  and the exception class a call raised; every public function of the
  layer modules gets one;
* counter wrappers only count calls; they are used for the hot scalar
  kernels (``qcore.qnum``, ``DeformationParameter.pow``) and for the
  numpy kernels beneath the library (``numpy.kron``, ``numpy.linalg.*``),
  where a span per call would cost more than the call itself.

Spans stay in memory until :meth:`Tracer.write_spans`.
"""
from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("qcore", "rep", "tensorrep", "rop", "cyclic", "verify", "cli")
COUNTED_FUNCTIONS = {"qcore.qnum"}

# verify suites with a per-suite total time (every public check_* function)
VERIFY_SUITES = ("check_fundamental_ybe", "check_rll", "check_decomposed_ybe",
                 "check_unitarity", "check_branch_independence", "check_casimir_spectrum",
                 "check_cyclic_centrality", "check_phi_identity", "check_shift_laws",
                 "check_cyclic_r_ratio", "check_partial_r")
ASSEMBLY_FAILURES = ("CompletenessFailure", "SingularBasis", "PoleAtSector")

# (name, unit) of every per-layer metric, in report order
PER_LAYER_METRICS = (
    ("qcore.qnum.calls", "count"),
    ("qcore.pow.calls", "count"),
    ("qcore.sample_generic_q.calls", "count"),
    ("rep.build_spin_rep.calls", "count"),
    ("rep.build_spin_rep.self_s", "s"),
    ("rep.build_lax.self_s", "s"),
    ("rep.fundamental_r.calls", "count"),
    ("tensorrep.coproduct_generators.calls", "count"),
    ("tensorrep.coproduct_generators.self_s", "s"),
    ("tensorrep.lowest_weight_vectors.calls", "count"),
    ("tensorrep.lowest_weight_vectors.self_s", "s"),
    ("tensorrep.lowest_weight_vectors.total_s", "s"),
    ("tensorrep.tensor_casimir.total_s", "s"),
    ("tensorrep.coproducts_per_assembly", "ratio"),
    ("rop.assemble_R.calls", "count"),
    ("rop.assemble_R.self_s", "s"),
    ("rop.assemble_R.total_s", "s"),
    ("rop.assemble_R.failed", "count"),
    *((f"rop.assemble_R.failed.{kind}", "count") for kind in ASSEMBLY_FAILURES),
    ("rop.assemble_R.xxz.total_s", "s"),
    ("rop.assemble_R.xxx.total_s", "s"),
    ("rop.sector_builds_per_assembly", "ratio"),
    ("rop.eigenvalue_sequence.self_s", "s"),
    ("rop.eigenvalue_ratios.self_s", "s"),
    ("cyclic.build_cyclic_rep.calls", "count"),
    ("cyclic.build_cyclic_rep.self_s", "s"),
    ("cyclic.eigenstate_family.calls", "count"),
    ("cyclic.eigenstate_family.self_s", "s"),
    ("cyclic.partial_R.total_s", "s"),
    ("cyclic.tensor_power_scalars.total_s", "s"),
    ("cyclic.central_elements.total_s", "s"),
    ("cyclic.reps_per_family", "ratio"),
    *((f"verify.{suite}.total_s", "s") for suite in VERIFY_SUITES),
    ("verify.decomposed_residuals.self_s", "s"),
    ("verify.residual.calls", "count"),
    ("verify.point_accept_ratio", "ratio"),
    ("cli.main.total_s", "s"),
    ("cli.matrix_document.self_s", "s"),
    ("cli.dump_document.self_s", "s"),
    ("cli.bytes_written", "bytes"),
    ("numpy.kron.calls", "count"),
    ("numpy.linalg.calls", "count"),
    ("trace.overhead_frac", "ratio"),
)


def _assembly_mode(args, kwargs, result):
    """assemble_R(ell1, ell2, u, q=None, mode="xxz", ...) -> its mode."""
    return kwargs.get("mode", args[4] if len(args) > 4 else "xxz")


def _sample_count(args, kwargs, result):
    """Distinct sample points behind a check's report (or list of reports)."""
    if result is None:
        return None
    report = result[0] if isinstance(result, list) else result
    return len(report.samples)


TAGGERS = {"rop.assemble_R": _assembly_mode,
           **{f"verify.{suite}": _sample_count for suite in VERIFY_SUITES}}


class Tracer:
    """Spans and call counters collected while the wrappers are installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.tags: list = []
        self.errors: list[str | None] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, tagger=None):
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        tags, errors, stack, clock = self.tags, self.errors, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            tags.append(None)
            errors.append(None)
            stack.append(idx)
            starts.append(clock())
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                errors[idx] = type(exc).__name__
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
                if tagger is not None:
                    tags[idx] = tagger(args, kwargs, result)

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore them on exit."""
        import numpy as np
        from qybe import qcore

        patches = []  # (owner, attribute, original)
        replacement = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"qybe.{layer}"]
            for attr, fn in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapper = (self.counter(name, fn) if name in COUNTED_FUNCTIONS
                           else self.span(name, fn, TAGGERS.get(name)))
                replacement[id(fn)] = wrapper
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                if id(value) in replacement:
                    patches.append((module, attr, value))
        pow_fn = qcore.DeformationParameter.__dict__["pow"]
        patches.append((qcore.DeformationParameter, "pow", pow_fn))
        replacement[id(pow_fn)] = self.counter("qcore.pow", pow_fn)
        patches.append((np, "kron", np.kron))
        replacement[id(np.kron)] = self.counter("numpy.kron", np.kron)
        for attr, fn in vars(np.linalg).items():
            if not attr.startswith("_") and callable(fn) and not isinstance(fn, type) \
                    and getattr(fn, "__module__", None) == "numpy.linalg":
                patches.append((np.linalg, attr, fn))
                replacement[id(fn)] = self.counter("numpy.linalg", fn)
        try:
            for owner, attr, original in patches:
                setattr(owner, attr, replacement[id(original)])
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, tag, error."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for row in zip(self.names, self.starts, self.ends, self.parents,
                           self.tags, self.errors):
                fh.write(json.dumps(row) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: list[list[int]] = [[] for _ in starts]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    out = []
    for idx, kids in enumerate(children):
        lo, hi = starts[idx], ends[idx]
        covered, reach = 0.0, lo
        for s, e in sorted((max(starts[k], lo), min(ends[k], hi)) for k in kids):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append((hi - lo) - covered)
    return out


def nearest_ancestor(names, parents, wanted) -> list[int]:
    """Index of the closest strict ancestor whose name satisfies ``wanted``
    (-1 if none); parents always precede their children."""
    out: list[int] = []
    for parent in parents:
        if parent < 0:
            out.append(-1)
        else:
            out.append(parent if wanted(names[parent]) else out[parent])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer values of one traced repetition (trace.overhead_frac and
    cli.bytes_written are filled in by the caller)."""
    names, parents, tags, errors = tracer.names, tracer.parents, tracer.tags, tracer.errors
    durations = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    selfs = self_times(tracer.starts, tracer.ends, parents)
    calls: Counter = Counter(names)
    calls.update(tracer.counts)
    self_s: Counter = Counter()
    total_s: Counter = Counter()
    for idx, name in enumerate(names):
        self_s[name] += selfs[idx]
        total_s[name] += durations[idx]
        if name == "rop.assemble_R":
            total_s[f"rop.assemble_R.{tags[idx]}"] += durations[idx]

    out: dict[str, float] = {}
    for metric, _unit in PER_LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(calls[base])
        elif kind == "self_s":
            out[metric] = self_s[base]
        elif kind == "total_s":
            out[metric] = total_s[base]

    failed = Counter(errors[i] for i, n in enumerate(names)
                     if n == "rop.assemble_R" and errors[i] is not None)
    out["rop.assemble_R.failed"] = float(sum(failed.values()))
    for kind in ASSEMBLY_FAILURES:
        out[f"rop.assemble_R.failed.{kind}"] = float(failed[kind])

    under_assembly = nearest_ancestor(names, parents, lambda n: n == "rop.assemble_R")
    xxz = [i for i, n in enumerate(names) if n == "rop.assemble_R" and tags[i] == "xxz"]
    xxz_set = set(xxz)
    cops = sum(1 for i, n in enumerate(names)
               if n == "tensorrep.coproduct_generators" and under_assembly[i] in xxz_set)
    sectors = sum(1 for i, n in enumerate(names)
                  if n == "tensorrep.lowest_weight_vectors" and under_assembly[i] in xxz_set)
    out["tensorrep.coproducts_per_assembly"] = _ratio(cops, len(xxz))
    out["rop.sector_builds_per_assembly"] = _ratio(sectors, len(xxz))

    under_family = nearest_ancestor(names, parents, lambda n: n == "cyclic.eigenstate_family")
    reps = sum(1 for i, n in enumerate(names)
               if n == "cyclic.build_cyclic_rep" and under_family[i] >= 0)
    out["cyclic.reps_per_family"] = _ratio(reps, calls["cyclic.eigenstate_family"])

    under_check = nearest_ancestor(names, parents, lambda n: n.startswith("verify.check_"))
    draws: Counter = Counter(under_check[i] for i, n in enumerate(names)
                             if n == "qcore.sample_generic_q" and under_check[i] >= 0)
    samples = sum(tags[check] or 0 for check in draws)
    out["verify.point_accept_ratio"] = _ratio(samples, sum(draws.values()))
    return out
