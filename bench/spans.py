"""Span tracing from outside the library: wrap public functions, restore them.

The benchmark never edits ``src/``.  It times layers by replacing each public
function named in :data:`SPANS` with a wrapper for the length of a ``with``
block, wherever a ``tensorard`` module binds it, and puts every original back
on exit.  Calls inside the library go through module attributes
(``factorized.reconstruct``, ``checkpoint.save_network``), so they reach the
wrappers too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time

# (module, class or None, public functions).  A method is named after its
# module: ``Network.sample`` is the span ``network.sample``.
SPANS = (
    ("training", None, ("train", "evaluate", "predict_uncertainty")),
    ("network", "Network", ("sample", "forward", "backward", "kl_total", "kl_gradients")),
    ("network", None, ("nll_multinomial", "embedding_lookup")),
    ("factorized", None, ("reconstruct", "backprop_reconstruction", "prune")),
    ("bayes", None, ("sample_factors", "layer_kl", "kl_gradients", "update_rank_variances")),
    ("dense", None, ("khatri_rao", "mode_n_product")),
    ("checkpoint", None, ("save_network", "load_network")),
    ("datasets", None, ("gen_synthetic", "batches")),
    ("cli", None, ("main",)),
)

SPAN_NAMES = tuple(f"{module}.{func}" for module, _, funcs in SPANS for func in funcs)


def _bindings(names):
    """(span name, original function, [(owner, attribute)]) for each span."""
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "tensorard" or key.startswith("tensorard."))
    ]
    out = []
    for module_name, cls, funcs in SPANS:
        module = importlib.import_module(f"tensorard.{module_name}")
        for func in funcs:
            name = f"{module_name}.{func}"
            if name not in names:
                continue
            if cls is not None:
                owner = getattr(module, cls)
                out.append((name, vars(owner)[func], [(owner, func)]))
                continue
            original = getattr(module, func)
            holders = [
                (m, attr) for m in modules for attr, value in vars(m).items()
                if value is original
            ]
            out.append((name, original, holders))
    return out


@contextlib.contextmanager
def patched(make_wrapper, names=SPAN_NAMES):
    """Replace each named span's function by ``make_wrapper(name, original)``.

    On exit every binding gets its original back; a binding that does not is
    an error, so a traced run can never leak into the next one.
    """
    replaced = []
    try:
        for name, original, holders in _bindings(names):
            wrapper = make_wrapper(name, original)
            for owner, attr in holders:
                setattr(owner, attr, wrapper)
                replaced.append((owner, attr, original))
        yield
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
        leaked = [attr for owner, attr, original in replaced if getattr(owner, attr) is not original]
        if leaked:
            raise RuntimeError(f"span wrappers not restored: {leaked}")


def step_probe(stamps):
    """Wrapper factory that appends a timestamp to ``stamps`` on every call."""

    def make(name, original):
        @functools.wraps(original)
        def probe(*args, **kwargs):
            stamps.append(time.perf_counter())
            return original(*args, **kwargs)

        return probe

    return make


class Tracer:
    """Accumulates calls and self time per span.

    Self time is a span's duration minus the durations of the spans called
    directly inside it.  Totals are kept in memory; the benchmark turns them
    into per-op metrics when the run ends.
    """

    def __init__(self, names=SPAN_NAMES):
        self.self_s = dict.fromkeys(names, 0.0)
        self.calls = dict.fromkeys(names, 0)
        self._child_s = []

    def wrap(self, name, original):
        @functools.wraps(original)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self.self_s[name] += elapsed - self._child_s.pop()
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += elapsed

        return span
