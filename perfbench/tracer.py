"""Span tracer for the traced benchmark run.

The tracer replaces public functions and methods of the freedgl modules with
wrappers that record one span per call: the span's name, start, end and the
index of the enclosing traced span.  Spans live in flat arrays in memory and
are written out once, when the run ends.  Per-layer figures (call counts and
self times) are computed from the recorded spans afterwards.

A module that did ``from .lie import bracket`` holds its own reference to
the function, so wrapping ``freedgl.lie.bracket`` alone would miss its calls.
``install`` therefore rebinds every module-level name, in every module it is
given, that refers to a traced function.  Methods are replaced on the class.
"""

import functools
import json
import time
from array import array


class Tracer:
    """Records spans around wrapped callables and restores them on request."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._restore = []

    def wrap(self, fn, name, before=None, after=None):
        """A wrapper of fn that records a span named name per call.

        before(args, kwargs) runs ahead of the span and after(args, result)
        behind it, so bookkeeping hooks stay out of the measured interval.
        """
        nid = len(self.names)
        self.names.append(name)
        names = self.span_name
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, owner, attr, name, modules, before=None, after=None):
        """Wrap owner.attr; owner is a module or a class.

        For a module-level function, every binding of the same function
        object in the given modules is replaced as well.
        """
        original = getattr(owner, attr)
        wrapper = self.wrap(original, name, before, after)
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def uninstall(self):
        """Put every original binding back."""
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def layer_stats(self):
        """{name: (calls, self seconds)} for every wrapped name.

        A span's self time is its duration minus the durations of the traced
        spans directly inside it.
        """
        parents = self.span_parent
        starts = self.span_start
        ends = self.span_end
        n = len(parents)
        inner = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                inner[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        own = [0.0] * len(self.names)
        span_name = self.span_name
        for i in range(n):
            nid = span_name[i]
            calls[nid] += 1
            own[nid] += ends[i] - starts[i] - inner[i]
        return {name: (calls[i], own[i]) for i, name in enumerate(self.names)}

    def dump(self, stem):
        """Write the spans as <stem>.json (layout and names) and <stem>.bin
        (the four arrays back to back, native byte order)."""
        arrays = (self.span_name, self.span_parent,
                  self.span_start, self.span_end)
        header = {
            "spans": len(self.span_name),
            "names": self.names,
            "arrays": [["name", "i"], ["parent", "i"],
                       ["start_s", "d"], ["end_s", "d"]],
        }
        with open(str(stem) + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
        with open(str(stem) + ".bin", "wb") as fh:
            for arr in arrays:
                arr.tofile(fh)
