"""Span recording around the public entry points of each archcredit module.

``Tracer.installed()`` replaces the entry points listed in ``ENTRY_POINTS``
with wrappers for the duration of a ``with`` block and restores the originals
afterwards, so untraced runs execute the program unmodified.  The program's
source is never edited.

A span is ``(id, layer, start, end, parent id, row id, amount)``: ``amount`` is
the number of points evaluated or variates drawn for layers that take or
return arrays, else 1.  Spans stay in memory in one flat float array and are
written out with ``save`` when the run ends.  A layer's self time is the total
duration of its spans minus the durations of their direct child spans;
single-threaded calls nest, so children never overlap.
"""

from __future__ import annotations

import importlib
import time
from array import array
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# layer name, whether its amount is the size of the result, entry points
# (module path, attribute path) that the program calls it through
ENTRY_POINTS = (
    ("rng.substream", False, [("archcredit.rng", "RngStream.substream")]),
    ("rng.draw", True, [
        ("archcredit.rng", "RngStream.uniform"),
        ("archcredit.rng", "RngStream.standard_exponential"),
        ("archcredit.rng", "RngStream.binomial"),
    ]),
    ("stable.sf", True, [("archcredit.stable", "PositiveStableLaw.sf")]),
    ("stable.pdf", True, [("archcredit.stable", "PositiveStableLaw.pdf")]),
    ("stable.sample", True, [("archcredit.stable", "PositiveStableLaw.sample")]),
    ("estimators.setup", False, [("archcredit.estimators", "RunContext.__init__")]),
    ("estimators", False, [
        ("archcredit.estimators", "run_tail_estimate"),
        ("archcredit.estimators", "is_expected_shortfall"),
        ("archcredit.cli", "run_tail_estimate"),
        ("archcredit.cli", "is_expected_shortfall"),
    ]),
    ("estimators.is_sample_v", False, [("archcredit.estimators", "is_sample_v")]),
    ("estimators.aggregate", False, [("archcredit.estimators", "aggregate")]),
    ("portfolio.solve_vstar", False, [
        ("archcredit.portfolio", "solve_vstar"),
        ("archcredit.asymptotics", "solve_vstar"),
    ]),
    ("asymptotics.tail", False, [
        ("archcredit.asymptotics", "tail_probability_asymptotic"),
        ("archcredit.cli", "tail_probability_asymptotic"),
    ]),
    ("asymptotics.es", False, [
        ("archcredit.asymptotics", "expected_shortfall_asymptotic"),
        ("archcredit.cli", "expected_shortfall_asymptotic"),
    ]),
    ("cli", False, [("archcredit.cli", "main")]),
)
LAYERS = tuple(name for name, _, _ in ENTRY_POINTS)
FIELDS = ("id", "layer", "start", "end", "parent", "row", "amount")


def _resolve(module_path: str, attr_path: str):
    """(owner object, attribute name) for ``module.attr_path``, or None if absent."""
    owner = importlib.import_module(module_path)
    *parents, attr = attr_path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
        if owner is None:
            return None
    return (owner, attr) if hasattr(owner, attr) else None


class Tracer:
    """Records spans of one traced pass."""

    def __init__(self):
        self.buf = array("d")
        self.stack: list[int] = []
        self.next_id = 0
        self.row = -1
        self.missing: list[str] = []

    def _wrap(self, code: int, sized: bool, fn):
        buf, stack, clock = self.buf, self.stack, time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                t1 = clock()
                stack.pop()
                buf.extend((sid, code, t0, t1, parent, tracer.row, 0))
                raise
            t1 = clock()
            stack.pop()
            buf.extend((sid, code, t0, t1, parent, tracer.row,
                        getattr(result, "size", 1) if sized else 1))
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every entry point for the duration of the block."""
        saved = []
        wrappers = {}
        try:
            for code, (_, sized, points) in enumerate(ENTRY_POINTS):
                for module_path, attr_path in points:
                    target = _resolve(module_path, attr_path)
                    if target is None:
                        self.missing.append(f"{module_path}.{attr_path}")
                        continue
                    owner, attr = target
                    original = getattr(owner, attr)
                    # one wrapper per function, whichever module it is bound in
                    wrapper = wrappers.setdefault(id(original), self._wrap(code, sized, original))
                    saved.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def spans(self) -> np.ndarray:
        return np.frombuffer(self.buf, dtype=float).reshape(-1, len(FIELDS))


def summarize(spans: np.ndarray) -> dict[str, dict[str, float]]:
    """Per layer: calls, amount and self time; plus the is_sample_v accept ratio."""
    sid = spans[:, 0].astype(np.int64)
    code = spans[:, 1].astype(np.int64)
    dur = spans[:, 3] - spans[:, 2]
    parent = spans[:, 4].astype(np.int64)
    amount = spans[:, 6]
    size = int(sid.max()) + 1 if sid.size else 0
    child_time = np.zeros(size)
    has_parent = parent >= 0
    np.add.at(child_time, parent[has_parent], dur[has_parent])
    self_time = dur - child_time[sid]
    out = {}
    for c, name in enumerate(LAYERS):
        mask = code == c
        out[name] = {
            "calls": float(mask.sum()),
            "amount": float(amount[mask].sum()),
            "self_s": float(self_time[mask].sum()),
        }
    # body draws accepted / stable.sample calls made inside is_sample_v: every
    # is_sample_v call that drew from the body ends with one accepted draw
    layer_of = np.full(size, -1, dtype=np.int64)
    layer_of[sid] = code
    in_isv = (code == LAYERS.index("stable.sample")) & has_parent
    in_isv &= layer_of[np.where(has_parent, parent, 0)] == LAYERS.index("estimators.is_sample_v")
    draws = int(in_isv.sum())
    accepted = len(np.unique(parent[in_isv]))
    out["estimators.is_sample_v"]["accept_ratio"] = accepted / draws if draws else 0.0
    return out


def save(path: Path, passes: list[np.ndarray]) -> None:
    """Write the spans of every traced pass, with the layer names, as .npz."""
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(
        path,
        layers=np.array(LAYERS),
        fields=np.array(FIELDS),
        **{f"pass{i}": s for i, s in enumerate(passes)},
    )
