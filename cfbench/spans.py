"""Per-layer spans recorded from outside the program.

The tracer replaces the public functions named in TIMED and COUNTED with
wrappers, in every loaded ``cfrealize`` module that binds them (``cli``,
``hankel`` and ``realize`` import by name), and puts the originals back on
``uninstall``.  A timed wrapper records a span (layer id, start, end,
parent span) in flat arrays kept in memory; a counted wrapper only counts
calls, so its time stays in its caller's span.  Self time is a span's
duration minus the durations of its child spans.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, metric prefix); an attribute "Cls.meth" wraps a method.
TIMED = (
    ("cli", "main", "cli.self"),
    ("symdiff", "bilinear_coefficients", "symdiff.bilinear_coefficients"),
    ("symdiff", "cf_coefficients", "symdiff.cf_coefficients"),
    ("symdiff", "read_model", "symdiff.read_model"),
    ("symdiff", "format_model", "symdiff.format_model"),
    ("fps", "Series.__init__", "fps.Series"),
    ("fps", "coefficient", "fps.coefficient"),
    ("fps", "format_series", "fps.format_series"),
    ("fps", "parse_series", "fps.parse_series"),
    ("fps", "to_float", "fps.to_float"),
    ("hankel", "hankel_build", "hankel.hankel_build"),
    ("hankel", "rank_exact", "hankel.rank_exact"),
    ("hankel", "rank_numeric", "hankel.rank_numeric"),
    ("hankel", "lie_rank", "hankel.lie_rank"),
    ("exactla", "rank", "exactla.rank"),
    ("exactla", "RowSpan.add", "exactla.RowSpan"),
    ("exactla", "RowSpan.coords", "exactla.RowSpan"),
    ("freelie", "expand_bracket", "freelie.expand_bracket"),
    ("realize", "bilinear_realize", "realize.bilinear_realize"),
    ("realize", "verify_realization", "realize.verify_realization"),
    ("paths", "sample_brownian", "paths.sample_brownian"),
    ("paths", "simulate_analytic", "paths.simulate_analytic"),
    ("paths", "simulate_bilinear", "paths.simulate_bilinear"),
    ("paths", "iterated_stratonovich", "paths.iterated_stratonovich"),
    ("paths", "cf_trajectory", "paths.cf_trajectory"),
    ("paths", "zakai_build", "paths.zakai_build"),
    ("paths", "zakai_readout", "paths.zakai_readout"),
    ("paths", "normalize_filter", "paths.normalize_filter"),
    ("dupire", "functional_ito_residual", "dupire.functional_ito_residual"),
    ("dupire", "hijab_decomposition_check", "dupire.hijab_decomposition_check"),
)
COUNTED = (
    ("symdiff", "lie_derivative", "symdiff.lie_derivative"),
    ("dupire", "vertical_derivative", "dupire.vertical_derivative"),
    ("dupire", "second_vertical_derivative", "dupire.second_vertical_derivative"),
)
# Call counts reported besides the counted-only functions.
CALLS_OF_TIMED = ("fps.coefficient", "exactla.RowSpan", "paths.simulate_analytic")

LAYERS = tuple(dict.fromkeys(prefix for _, _, prefix in TIMED))


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.group = array("i")  # index of the command call the span belongs to
        self.calls = Counter()
        self.call_index = 0
        self._stack = [-1]
        self._undo = []

    # -- wrappers ------------------------------------------------------------

    def _timed(self, fn, layer_id, prefix):
        tr = self

        def wrapper(*args, **kwargs):
            tr.calls[prefix] += 1
            idx = len(tr.start)
            tr.layer.append(layer_id)
            tr.parent.append(tr._stack[-1])
            tr.group.append(tr.call_index)
            tr.end.append(0.0)
            tr._stack.append(idx)
            tr.start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                tr.end[idx] = perf_counter()
                tr._stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, prefix):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[prefix] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        targets = [(mod, attr, prefix, True) for mod, attr, prefix in TIMED]
        targets += [(mod, attr, prefix, False) for mod, attr, prefix in COUNTED]
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cfrealize"]
        for mod, attr, prefix, timed in targets:
            owner = sys.modules[f"cfrealize.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                holders = [(getattr(owner, cls_name), meth)]
            else:
                holders = [(m, attr) for m in modules if m.__dict__.get(attr) is owner.__dict__[attr]]
            original = getattr(*holders[0])
            wrapped = (
                self._timed(original, LAYERS.index(prefix), prefix)
                if timed
                else self._counted(original, prefix)
            )
            for holder, name in holders:
                self._undo.append((holder, name, getattr(holder, name)))
                setattr(holder, name, wrapped)

    def uninstall(self):
        for holder, name, original in reversed(self._undo):
            setattr(holder, name, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def metrics(self, scales, passes: int) -> dict:
        """Per-pass self seconds of each layer, each span scaled by
        scales[its call], and per-pass call counts: {name: (value, unit)}."""
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        own = dict.fromkeys(LAYERS, 0.0)
        for i, lid in enumerate(self.layer):
            own[LAYERS[lid]] += (self.end[i] - self.start[i] - child[i]) * scales[self.group[i]]
        out = {f"{p}_s": (own[p] / passes, "s") for p in LAYERS}
        for p in CALLS_OF_TIMED + tuple(p for _, _, p in COUNTED):
            out[f"{p}_calls"] = (self.calls[p] / passes, "count")
        return out
