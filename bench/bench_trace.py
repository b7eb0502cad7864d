"""Span tracing of poirec's layers from outside the program.

`Tracer.install` wraps every public function of the poirec modules
(`corpus`, `features`, `model`, `training`, `evaluation`, `checkpoint`,
`cli`) and every public method of the classes they define. A wrapper is
put under each name that refers to the function, in every poirec module,
because `training` and `evaluation` bind `forward_users` and similar
names with `from .model import ...`; wrapping only the defining module
would miss those calls.

Each call records a span (name, start, end, parent) in flat arrays that
stay in memory; `save` writes them out once at the end. Spans are taken
only while `active` is set, so the benchmark's own checks, which call
poirec functions too, stay out of the figures.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass

import numpy as np

LAYERS = ("corpus", "features", "model", "training", "evaluation", "checkpoint", "cli")

# Called once per token or per id lookup: a wrapper would cost more than
# the call, and the time stays in the caller's self time.
UNTRACED = frozenset({"features.hash_token", "features.Vocabulary.lookup", "features.Vocabulary.id_of"})

# Spans whose first argument's length is recorded as the work they did.
ROWS = frozenset({"model.CandidateBlock.from_features"})


class Tracer:
    def __init__(self):
        self.active = False
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.rows = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        if qualname not in self._name_id:
            self._name_id[qualname] = len(self.names)
            self.names.append(qualname)
        name_id = self._name_id[qualname]
        count_rows = qualname in ROWS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = len(self.name)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.rows.append(len(args[1]) if count_rows else 0)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(span)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self._stack.pop()
                self.start[span] = t0
                self.end[span] = t1

        return traced

    def _set(self, owner, attr: str, value) -> None:
        # A class keeps its descriptor (classmethod) so that undo restores it.
        original = vars(owner)[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = importlib.import_module("poirec")
        modules = {layer: importlib.import_module(f"poirec.{layer}") for layer in LAYERS}
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    qualname = f"{layer}.{attr}"
                    if qualname not in UNTRACED:
                        wrapped[id(obj)] = self._wrap(qualname, obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for mod in (package, *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and id(obj) in wrapped:
                    self._set(mod, attr, wrapped[id(obj)])

    def _wrap_methods(self, layer: str, cls: type) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            qualname = f"{layer}.{cls.__name__}.{attr}"
            if qualname in UNTRACED:
                continue
            if isinstance(member, classmethod):
                self._set(cls, attr, classmethod(self._wrap(qualname, member.__func__)))
            elif inspect.isfunction(member):
                self._set(cls, attr, self._wrap(qualname, member))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "rows": np.frombuffer(self.rows, dtype=np.int64),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


@dataclass
class SpanSummary:
    names: list[str]
    calls: np.ndarray  # per name
    self_s: np.ndarray  # per name
    rows_in_training: int  # CandidateBlock rows built under a training call
    forwards_in_training: int  # tower forwards under loss_and_gradients in training
    batches: int  # loss_and_gradients calls under a training call

    def _id(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def calls_of(self, name: str) -> int:
        i = self._id(name)
        return int(self.calls[i]) if i >= 0 else 0

    def self_of(self, name: str) -> float:
        i = self._id(name)
        return float(self.self_s[i]) if i >= 0 else 0.0

    def layer_self(self, layer: str) -> float:
        return float(sum(s for n, s in zip(self.names, self.self_s) if n.split(".")[0] == layer))


def summarize(tracer: Tracer) -> SpanSummary:
    a = tracer.arrays()
    names = tracer.names
    n_names = len(names)
    dur = a["end"] - a["start"]
    parent = a["parent"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child

    def ids(*wanted):
        return [names.index(w) for w in wanted if w in names]

    def under(anchor_ids) -> np.ndarray:
        """Spans that have an ancestor among `anchor_ids`."""
        anchor = np.isin(a["name"], anchor_ids).tolist()
        out = [False] * len(anchor)
        # Parents precede children, so one pass in index order settles it.
        for i, par in enumerate(parent.tolist()):
            if par >= 0 and (anchor[par] or out[par]):
                out[i] = True
        return np.array(out, dtype=bool)

    in_training = under(ids("training.train", "training.two_phase_train"))
    in_step = under(ids("training.loss_and_gradients")) & in_training
    name = a["name"]
    rows_in_training = int(a["rows"][in_training].sum())
    forwards = int((np.isin(name, ids("model.forward_users", "model.forward_candidates")) & in_step).sum())
    batches = int((np.isin(name, ids("training.loss_and_gradients")) & in_training).sum())
    return SpanSummary(
        names=names,
        calls=np.bincount(name, minlength=n_names),
        self_s=np.bincount(name, weights=self_time, minlength=n_names),
        rows_in_training=rows_in_training,
        forwards_in_training=forwards,
        batches=batches,
    )
