"""In-memory span tracer installed around dmdlab's public functions.

``Tracer.installed()`` replaces each traced function under every name that
refers to it in a loaded ``dmdlab`` module, so a call is seen whichever import
it goes through (``as_predictor`` calls ``dmdlab.flow.net_forward``, the
runner calls ``dmdlab.lab.runner.generator_update``, and so on). Leaving the
block puts the original functions back, so untraced runs execute the library
exactly as shipped.

Each call records one span ``[name, start_ns, end_ns, parent, child_ns, rows,
key]``. Spans are appended when they open, so a parent always precedes its
children. ``child_ns`` accumulates the time the span's direct children cover;
self time is ``end - start - child_ns``. ``rows`` is the batch size of a
network forward pass; ``key`` identifies the (model, x, tau, cond) of a
forward pass made inside a direction span. The tracer draws no random numbers
and passes arguments and results through untouched.
"""

import contextlib
import csv
import functools
import hashlib
import inspect
import sys
import time

import numpy as np

# (module, function) pairs; the span name drops the leading "dmdlab."
TRACED = [
    ("dmdlab.net", "net_forward"),
    ("dmdlab.net", "net_forward_cached"),
    ("dmdlab.net", "net_backward"),
    ("dmdlab.optim", "adam_step"),
    ("dmdlab.flow", "renoise"),
    ("dmdlab.flow", "train_teacher"),
    ("dmdlab.distill", "generator_update"),
    ("dmdlab.distill", "dmd_direction_coupled"),
    ("dmdlab.distill", "dmd_direction_decoupled"),
    ("dmdlab.distill", "backward_simulate"),
    ("dmdlab.distill", "fake_model_update"),
    ("dmdlab.distill", "gan_losses"),
    ("dmdlab.distill", "sample_generator"),
    ("dmdlab.metrics", "sliced_wasserstein2"),
    ("dmdlab.metrics", "mode_coverage"),
    ("dmdlab.checkpoint", "save_params"),
    ("dmdlab.data", "sample_dataset"),
    ("dmdlab.data", "sample_points_for_labels"),
    ("dmdlab.lab.runner", "run_config"),
]

FORWARDS = ("net.net_forward", "net.net_forward_cached")
DIRECTIONS = ("distill.dmd_direction_coupled", "distill.dmd_direction_decoupled")

NAME, START, END, PARENT, CHILD, ROWS, KEY = range(7)


def _eval_key(params, x, tau, cond):
    digest = hashlib.blake2b(digest_size=16)
    for value in (x, tau, cond):
        digest.update(np.ascontiguousarray(value).tobytes())
    return id(params), digest.digest()


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        forward = name in FORWARDS
        # (params, x, noise_level, cond), passed by position or by keyword
        inputs = list(inspect.signature(fn).parameters)[:4]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, 0, 0, None]
            if forward:
                params, x, tau, cond = (
                    args[i] if i < len(args) else kwargs[key]
                    for i, key in enumerate(inputs))
                rec[ROWS] = np.shape(x)[0]
                if any(spans[i][NAME] in DIRECTIONS for i in stack):
                    # hashing is harness work: keep it out of the parent's
                    # self time as if it were a child span
                    t0 = clock()
                    rec[KEY] = _eval_key(params, x, tau, cond)
                    spans[parent][CHILD] += clock() - t0
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = end = clock()
                stack.pop()
                if stack:
                    spans[stack[-1]][CHILD] += end - rec[START]

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced function into every loaded dmdlab module."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "dmdlab" or n.startswith("dmdlab.")]
        patched = []
        try:
            for module_name, attr in TRACED:
                original = getattr(sys.modules[module_name], attr)
                wrapper = self._wrap(module_name.removeprefix("dmdlab.")
                                     + "." + attr, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapper)
                            patched.append((module, key, original))
            yield self
        finally:
            for module, key, original in reversed(patched):
                setattr(module, key, original)

    def write_csv(self, path) -> None:
        """One row per span; times in ns from the first span's start."""
        t0 = self.spans[0][START] if self.spans else 0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "name", "start_ns", "end_ns", "parent",
                             "self_ns", "rows"])
            for i, s in enumerate(self.spans):
                writer.writerow([i, s[NAME], s[START] - t0, s[END] - t0,
                                 s[PARENT], s[END] - s[START] - s[CHILD],
                                 s[ROWS]])
