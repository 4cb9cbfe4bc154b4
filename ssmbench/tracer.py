"""Spans around the public functions of diagssm, recorded from outside.

Each boundary names a function and the module where its callers look it
up (``diagssm.layer.causal_conv_fft`` is the name ``ssm_outputs`` calls).
While a root span ("setup" or "op") is open, those module attributes are
replaced by wrappers that append one span per call to an in-memory list;
the originals are put back when the root closes.  Nothing inside the
program is edited.

A span's self time is its duration minus the durations of its direct
children; the root's own self time is the time no boundary accounts for
("unattributed").  The self times under a root plus that remainder add up
to the root's duration by construction.  What can fail is the nesting:
the program is assumed single-threaded, so children never overlap and no
self time is negative.  ``per_root`` reports whether that held.
"""

import functools
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter


def _basis(params, l, *args, **kwargs):
    # One N x L complex exponential basis per kernel build or gradient.
    return params.n * int(l)


def _steps(params, u, *args, **kwargs):
    return params.n * len(u)


def _points(x, *args, **kwargs):
    return len(x)


# (span name, module the callers look the function up in, attribute, work
# counter).  One name may have several lookup sites.
BOUNDARIES = (
    ("hippo.skew_hippo_lambda", "diagssm.layer", "skew_hippo_lambda", None),
    ("hippo.symmetric_eigenvalues", "diagssm.hippo", "symmetric_eigenvalues", None),
    ("layer.init_layer", "diagssm.layer", "init_layer", None),
    ("layer.layer_forward", "diagssm.layer", "layer_forward", None),
    ("layer.ssm_outputs", "diagssm.layer", "ssm_outputs", None),
    ("layer.layer_kernels", "diagssm.layer", "layer_kernels", None),
    ("layer.gelu", "diagssm.layer", "gelu", None),
    ("layer.train_toy_delay", "diagssm.layer", "train_toy_delay", None),
    ("kernel.build_kernel", "diagssm.layer", "build_kernel", _basis),
    ("kernel.kernel_grad_exp", "diagssm.layer", "kernel_grad_exp", _basis),
    ("fftconv.causal_conv_fft", "diagssm.layer", "causal_conv_fft", None),
    ("fftconv.fft", "diagssm.fftconv", "fft", _points),
    ("recurrence.run_exp", "diagssm.layer", "run_exp", _steps),
    ("recurrence.run_softmax_stable", "diagssm.layer", "run_softmax_stable", _steps),
    ("cnum.reciprocal_eps", "diagssm.kernel", "reciprocal_eps", None),
    ("cnum.reciprocal_eps", "diagssm.recurrence", "reciprocal_eps", None),
    ("cnum.reciprocal_eps", "diagssm.cnum", "reciprocal_eps", None),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))

# Work counts summed from the spans' counters.  A call made from inside a
# call of the same name (the inverse FFT runs a forward FFT) adds nothing,
# so each count is the work requested from outside that function.
COMPUTED = {
    "kernel.exp_evals": (("kernel.build_kernel", "kernel.kernel_grad_exp"), 1),
    "kernel.basis_bytes": (("kernel.build_kernel", "kernel.kernel_grad_exp"), 16),
    "fftconv.fft_points": (("fftconv.fft",), 1),
    "recurrence.state_steps": (("recurrence.run_exp", "recurrence.run_softmax_stable"), 1),
}


class BoundaryMissing(LookupError):
    """A traced name no longer exists where its callers look it up."""


def resolve_boundaries():
    """The (name, module, attribute, function, counter) of every boundary.

    Raises :class:`BoundaryMissing` when a module or attribute is gone, so
    a renamed function stops the benchmark instead of reading as zero.
    """
    sites = []
    for name, module_name, attr, counter in BOUNDARIES:
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise BoundaryMissing(f"{name}: cannot import {module_name}: {exc}") from exc
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise BoundaryMissing(f"{name}: {module_name}.{attr} is not a function")
        sites.append((name, module, attr, fn, counter))
    return sites


class Tracer:
    """In-memory span recorder.

    ``spans`` holds [name, start, end, parent index, root index, work] per
    call; a root span has parent -1 and is its own root.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._sites = resolve_boundaries()
        self._wrappers = [self._wrap(name, fn, counter)
                          for name, _, _, fn, counter in self._sites]

    def _open(self, name, work):
        stack = self._stack
        idx = len(self.spans)
        parent = stack[-1] if stack else -1
        root = stack[0] if stack else idx
        self.spans.append([name, perf_counter(), 0.0, parent, root, work])
        stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name, counter(*args, **kwargs) if counter else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    @contextmanager
    def root(self, kind):
        """Trace everything called inside the block under one root span."""
        for (_, module, attr, _, _), wrapper in zip(self._sites, self._wrappers):
            setattr(module, attr, wrapper)
        idx = self._open(kind, 0)
        try:
            yield
        finally:
            self._close(idx)
            for _, module, attr, fn, _ in self._sites:
                setattr(module, attr, fn)

    def per_root(self):
        """One summary per root span, in order.

        Each is {"kind", "duration_s", "unattributed_s", "calls", "self_s",
        "work", "nested"}: calls, self_s and work are keyed by span name, and
        nested says whether no span under the root, the root included, had
        children that add up to more than its own duration.
        """
        spans = self.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_s[parent] += end - start
        roots = {}
        for idx, (name, start, end, parent, root, work) in enumerate(spans):
            self_s = end - start - child_s[idx]
            if parent < 0:
                roots[idx] = {"kind": name, "duration_s": end - start,
                              "unattributed_s": self_s,
                              "calls": dict.fromkeys(SPAN_NAMES, 0),
                              "self_s": dict.fromkeys(SPAN_NAMES, 0.0),
                              "work": dict.fromkeys(SPAN_NAMES, 0),
                              "nested": self_s >= 0}
                continue
            summary = roots[root]
            summary["calls"][name] += 1
            summary["self_s"][name] += self_s
            summary["nested"] = summary["nested"] and self_s >= 0
            if spans[parent][0] != name:
                summary["work"][name] += work
        return list(roots.values())


def phase_profile(summaries):
    """Counts and median self times over the roots of one kind.

    Returns (profile, counts_repeat): profile maps span names to calls,
    self_s and work, plus "unattributed_s" and "duration_s"; counts_repeat
    says whether every root had the same calls and work.
    """
    first = summaries[0]
    counts_repeat = all(s["calls"] == first["calls"] and s["work"] == first["work"]
                        for s in summaries)
    return {
        "roots": len(summaries),
        "duration_s": statistics.median(s["duration_s"] for s in summaries),
        "unattributed_s": statistics.median(s["unattributed_s"] for s in summaries),
        "calls": dict(first["calls"]),
        "work": dict(first["work"]),
        "self_s": {name: statistics.median(s["self_s"][name] for s in summaries)
                   for name in SPAN_NAMES},
    }, counts_repeat


def computed_counts(work):
    """The COMPUTED counts from per-span-name work totals."""
    return {metric: factor * sum(work[name] for name in names)
            for metric, (names, factor) in COMPUTED.items()}
