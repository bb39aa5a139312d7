"""Spans around the library's layer boundaries, recorded from outside it.

:func:`install` wraps the public functions of every ``targetkit``
module (those in its ``__all__``), rebinding each wrapper at every name
under which any targetkit module imported the function, and wraps the
``numpy.linalg`` and ``scipy.linalg`` entry points (the ``kernel``
layer).  ``numpy.linalg.norm`` is wrapped too: a spectral or nuclear
norm of a matrix runs a full SVD, and is recorded as ``kernel.norm2``
and counted with the SVDs; its other norms are not traced.  A wrapper
records a span only while :attr:`Tracer.active` is set, which the
benchmark does around library calls alone, so its own checks are never
traced.

Spans stay in memory with their parent's id.  After each operation
:meth:`Tracer.end_op` folds them into running per-layer totals; the
spans of the first operations traced are kept to be written out at the end.
A layer's self time is its spans' durations minus the parts their child
spans cover.
"""

import functools
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

from workloads import CLASSES

KERNEL_NAMES = (
    "svd", "svdvals", "eig", "eigh", "eigvals", "eigvalsh", "qr", "solve",
    "lstsq", "inv", "pinv", "cholesky", "det", "slogdet", "schur", "lu",
)
SVD_NAMES = {"svd", "svdvals", "norm2"}
SVD_NORM_ORDS = (2, -2, "nuc")  # matrix norms numpy computes from singular values
EIG_NAMES = {"eig", "eigh", "eigvals", "eigvalsh"}
AUDIT_NAMES = {"verify.verify_property", "verify.verify_targeting"}
SIZED = {"mmio.read_matrix", "mmio.write_matrix"}  # record the file's size

# span tuple fields
ID, PARENT, NAME, LAYER, T0, T1, OK, NBYTES = range(8)


class Tracer:
    def __init__(self, keep: int):
        self.active = False
        self._stack = [0]
        self._next = 1
        self.spans = []  # spans of the current operation
        self.kept = []  # (op label, class, spans) of the first operations traced
        self._keep = keep  # spans still to keep
        self.totals = Totals()

    def wrap(self, fn, name, layer):
        tracer = self
        sized = name in SIZED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next
            tracer._next = sid + 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            ok = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                nbytes = 0
                if sized and ok:
                    try:
                        nbytes = os.path.getsize(args[0])
                    except (OSError, TypeError, IndexError):
                        nbytes = 0
                tracer.spans.append((sid, parent, name, layer, t0, t1, ok, nbytes))

        return wrapper

    def wrap_norm(self, norm):
        """Trace ``norm`` only where it runs an SVD: a 2-D input, ord 2, -2 or 'nuc'."""
        traced = self.wrap(norm, "kernel.norm2", "kernel")

        @functools.wraps(norm)
        def wrapper(x, ord=None, axis=None, keepdims=False):
            if self.active and axis is None and getattr(x, "ndim", 0) == 2 and ord in SVD_NORM_ORDS:
                return traced(x, ord, axis, keepdims)
            return norm(x, ord, axis, keepdims)

        return wrapper

    def begin_op(self):
        self.spans = []
        self.active = True

    def end_op(self, op, latency, cond, ref, report_bytes):
        """Fold the finished operation's spans into the totals.

        Call after :attr:`active` has been cleared and the output checked.
        """
        self.totals.add(op, self.spans, latency, cond, ref, report_bytes)
        if self._keep > 0:
            self.kept.append((op.label, op.cls, self.spans))
            self._keep -= len(self.spans)


def _targetkit_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == "targetkit" or n.startswith("targetkit."))]


def install(tracer: Tracer) -> int:
    """Wrap every public targetkit function and linalg entry point; return the count."""
    import numpy.linalg
    import scipy.linalg

    replace = {}
    for mod in _targetkit_modules():
        layer = mod.__name__.rpartition(".")[2]
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                replace[fn] = tracer.wrap(fn, f"{layer}.{attr}", layer)
    for mod in (numpy.linalg, scipy.linalg):
        for attr in KERNEL_NAMES:
            fn = getattr(mod, attr, None)
            if callable(fn) and fn not in replace:
                wrapper = tracer.wrap(fn, f"kernel.{attr}", "kernel")
                replace[fn] = wrapper
                setattr(mod, attr, wrapper)
    norm = numpy.linalg.norm
    replace[norm] = tracer.wrap_norm(norm)
    numpy.linalg.norm = replace[norm]
    for mod in _targetkit_modules():
        for attr, value in list(vars(mod).items()):
            try:
                wrapper = replace.get(value)
            except TypeError:  # unhashable module attribute
                continue
            if wrapper is not None:
                setattr(mod, attr, wrapper)
    return len(replace)


def _is_solve(span) -> bool:
    return span[LAYER] == "solvers" and span[NAME].startswith("solvers.solve")


def _per(total, count) -> float:
    return total / count if count else 0.0


class Totals:
    """Per-layer sums over every traced operation."""

    def __init__(self):
        self.ops = 0
        self.op_seconds = 0.0
        self.calls = Counter()  # span name -> calls
        self.seconds = Counter()  # span name -> inclusive seconds
        self.self_seconds = Counter()  # layer -> self seconds
        self.nbytes = Counter()  # span name -> bytes
        self.solve_seconds = Counter()  # class -> seconds in returned top-level solves
        self.solve_count = Counter()  # class -> returned top-level solves
        self.solve_svds = Counter()  # class -> SVDs inside returned top-level solves
        self.solve_self = 0.0  # solvers-layer self seconds inside returned solves
        self.audits_in_solves = 0
        # bordering branch -> [invertible-hermitian solves that searched, candidates scored
        # (the SVDs they ran themselves), SVDs they ran themselves including spectral norms]
        self.border = {}
        self.cli_ops = 0
        self.report_bytes = 0
        self.ref_svd_seconds = 0.0  # plain SVD of each operation's X
        self.ref_ops = 0
        self.solve_ref_seconds = 0.0  # plain SVD time matched to returned solves
        self.cond_min = None

    def add(self, op, spans, latency, cond, ref, report_bytes):
        self.ops += 1
        self.op_seconds += latency
        self.cli_ops += op.kind == "cli"
        self.report_bytes += report_bytes
        if ref is not None:
            self.ref_svd_seconds += ref
            self.ref_ops += 1
        if cond is not None:
            self.cond_min = cond if self.cond_min is None else min(self.cond_min, cond)
        ok = {s[ID]: s[OK] for s in spans}
        child = Counter()
        for s in spans:
            child[s[PARENT]] += s[T1] - s[T0]
        top_solve = {}  # span id -> id of its outermost solve ancestor, if any
        for s in sorted(spans):  # a parent's id is below its children's
            parent_top = top_solve.get(s[PARENT])
            top_solve[s[ID]] = parent_top if parent_top is not None else (s[ID] if _is_solve(s) else None)
        # candidates a returned invertible-hermitian solve scored, and spectral norms it took
        candidates = norms = 0
        for s in spans:
            dur = s[T1] - s[T0]
            own = dur - child[s[ID]]
            name, layer = s[NAME], s[LAYER]
            self.calls[name] += 1
            self.seconds[name] += dur
            self.self_seconds[layer] += own
            self.nbytes[name] += s[NBYTES]
            root = top_solve[s[ID]]
            if root is None or not ok[root]:
                continue
            if root == s[ID]:
                self.solve_seconds[op.cls] += dur
                self.solve_count[op.cls] += 1
                if ref is not None:
                    self.solve_ref_seconds += ref
            if layer == "solvers":
                self.solve_self += own
            self.audits_in_solves += name in AUDIT_NAMES
            self.solve_svds[op.cls] += layer == "kernel" and name[len("kernel."):] in SVD_NAMES
            if op.cls == "invertible-hermitian" and s[PARENT] == root:
                candidates += name == "kernel.svd"
                norms += name == "kernel.norm2"
        if candidates:  # a full-rank X needs no search
            branch = self.border.setdefault(op.pair.branch, [0, 0, 0])
            branch[0] += 1
            branch[1] += candidates
            branch[2] += candidates + norms

    def metrics(self):
        ops = max(self.ops, 1)
        solves = sum(self.solve_count.values())

        def calls(names):
            return sum(self.calls[n] for n in names)

        def seconds(names):
            return sum(self.seconds[n] for n in names)

        def mean_ms(names):
            return 1e3 * _per(seconds(names), calls(names))

        kernel = [n for n in self.calls if n.startswith("kernel.")]
        searches, candidates, border_svds = (sum(t[i] for t in self.border.values()) for i in range(3))
        svd = [n for n in kernel if n[len("kernel."):] in SVD_NAMES]
        eig = [n for n in kernel if n[len("kernel."):] in EIG_NAMES]
        build = [n for n in self.calls if n.startswith("sources.build_source")]
        mmio = ["mmio.read_matrix", "mmio.write_matrix"]
        out = {
            "linalg.svd_calls_per_op": (calls(svd) / ops, "calls/op"),
            "linalg.eig_calls_per_op": (calls(eig) / ops, "calls/op"),
            "linalg.kernel_ms_per_op": (1e3 * seconds(kernel) / ops, "ms"),
            "linalg.kernel_share": (_per(seconds(kernel), self.op_seconds), "ratio"),
            "linalg.coerce_calls_per_op": (self.calls["linalg.as_matrix"] / ops, "calls/op"),
            "linalg.coerce_ms_per_op": (1e3 * self.seconds["linalg.as_matrix"] / ops, "ms"),
            "linalg.svd_ref_ms": (1e3 * _per(self.ref_svd_seconds, self.ref_ops), "ms"),
            "feasibility.check_ms": (mean_ms(["feasibility.check"]), "ms"),
            "feasibility.check_calls_per_op": (self.calls["feasibility.check"] / ops, "calls/op"),
            "solvers.construct_self_ms": (1e3 * _per(self.solve_self, solves), "ms"),
        }
        for cls in CLASSES:
            out[f"solvers.solve_ms.{cls}"] = (
                1e3 * _per(self.solve_seconds[cls], self.solve_count[cls]), "ms")
        out.update({
            "solvers.cost_over_svd": (
                _per(sum(self.solve_seconds.values()), self.solve_ref_seconds), "ratio"),
            "solvers.bordering_svds_per_solve": (_per(border_svds, searches), "calls/solve"),
            "solvers.bordering_useful_ratio": (_per(searches, candidates), "ratio"),
            "solvers.inv_herm_cond_min": (self.cond_min or 0.0, "ratio"),
            "verify.audit_ms": (mean_ms(AUDIT_NAMES), "ms"),
            "verify.audit_calls_per_solve": (_per(self.audits_in_solves, solves), "calls/solve"),
            "sources.build_ms": (mean_ms(build), "ms"),
            "mmio.read_ms": (mean_ms(mmio[:1]), "ms"),
            "mmio.write_ms": (mean_ms(mmio[1:]), "ms"),
            "mmio.bytes_per_op": (sum(self.nbytes[n] for n in mmio) / ops, "bytes/op"),
            "cli.self_ms": (1e3 * _per(self.self_seconds["cli"], self.cli_ops), "ms"),
            "cli.report_bytes": (_per(self.report_bytes, self.cli_ops), "bytes"),
        })
        return out

    def svds_per_solve(self) -> dict:
        """SVDs, spectral norms included, per returned solve of each class."""
        return {cls: self.solve_svds[cls] / n for cls, n in sorted(self.solve_count.items())}

    def bordering_by_branch(self) -> dict:
        """Per bordering branch: searches, and candidates and SVDs per search."""
        return {branch: {"solves": n, "candidates_per_solve": c / n, "svds_per_solve": v / n}
                for branch, (n, c, v) in sorted(self.border.items())}
