"""Per-layer tracing from outside the library.

``Tracer.install()`` replaces every public function of the layer modules,
and the public methods of the classes they define, by a timing wrapper.
Modules import one another's functions by name (``from .series import
nilpotency_data`` in ``maximal``, ``from .linalg import rref`` in
``constraints``), so a function is rebound in every ``leibalg`` module that
holds it, not only in the module that defines it.  Class methods are
rebound on the class, which every module shares.

Each wrapped call is a span with a name, a start, an end and a parent.  A
stack of open spans gives the self time on the fly: the span's duration
minus the durations of its direct children.  Calls, inclusive time and
self time are summed per span name.  A search at GF(11) makes millions of
``_modp`` calls, more than memory can hold one by one, so a finished span
is kept as a record only when it lasted at least ``KEEP_SPAN_S`` or is an
operation (depth 1); the others live on in the per-name sums and in
``folded_spans``.  A parent always outlasts its child, so every kept span's
parent is kept as well.

``fields`` operations are not wrapped: a wrapper costs more than a scalar
multiplication, so their time is part of the self time of whichever layer
calls them, and ``micro.py`` times them on their own.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

import leibalg

LAYERS = (
    "linalg",
    "_modp",
    "core",
    "series",
    "maximal",
    "catalog",
    "constraints",
    "poly",
    "formats",
    "randomgen",
    "reproduce",
)
# Operator methods that are the public interface of value classes such as
# MultiPoly, and constructors that do real work (table validation,
# polynomial normalisation).
WRAPPED_DUNDERS = frozenset(
    {"__init__", "__add__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__"}
)
KEEP_SPAN_S = 1e-3


class Tracer:
    def __init__(self):
        self.names: list[str] = ["<root>"]
        self.calls: list[int] = [0]
        self.incl: list[float] = [0.0]
        self.self_time: list[float] = [0.0]
        # An open span: [time of its finished children, span id].
        self.stack: list[list] = [[0.0, 0]]
        self.spans: list[tuple] = []
        self.folded_spans = 0
        self.next_id = 1
        self._restore: list[tuple] = []

    # -- installation --------------------------------------------------------

    def install(self, hooks=None) -> None:
        """Wrap every layer; ``hooks`` maps a span name to f(args, result)."""
        hooks = hooks or {}
        modules = {
            name: importlib.import_module(f"leibalg.{name}") for name in LAYERS
        }
        holders = [leibalg] + [
            m
            for m in (importlib.import_module(n) for n in _all_leibalg_modules())
            if m is not leibalg
        ]
        for layer, module in modules.items():
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    wrapper = self._wrap(obj, f"{layer}.{attr}", hooks)
                    for holder in holders:
                        for hattr, hobj in list(vars(holder).items()):
                            if hobj is obj:
                                self._set(holder, hattr, wrapper)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_class(obj, layer, hooks)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _set(self, holder, attr, value) -> None:
        self._restore.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def _wrap_class(self, cls, layer: str, hooks) -> None:
        generated = "__dataclass_fields__" in vars(cls)  # its __init__ only stores fields
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and (attr not in WRAPPED_DUNDERS or generated):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                value = classmethod(self._wrap(raw.__func__, name, hooks))
            elif isinstance(raw, staticmethod):
                value = staticmethod(self._wrap(raw.__func__, name, hooks))
            elif inspect.isfunction(raw):
                value = self._wrap(raw, name, hooks)
            else:
                continue
            self._restore.append((cls, attr, raw))
            setattr(cls, attr, value)

    def _wrap(self, fn, name: str, hooks):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.incl.append(0.0)
        self.self_time.append(0.0)
        stack, spans = self.stack, self.spans
        calls, incl, self_time = self.calls, self.incl, self.self_time
        clock = time.perf_counter
        hook = hooks.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            span_id = tracer.next_id
            tracer.next_id = span_id + 1
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                parent = stack[-1]
                parent[0] += dur
                calls[idx] += 1
                incl[idx] += dur
                self_time[idx] += dur - frame[0]
                if dur >= KEEP_SPAN_S or len(stack) == 1:
                    spans.append((idx, start, end, span_id, parent[1]))
                else:
                    tracer.folded_spans += 1
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- results ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-name sums: {name: (calls, inclusive s, self s)}."""
        return {
            name: (self.calls[i], self.incl[i], self.self_time[i])
            for i, name in enumerate(self.names)
            if i
        }

    def write(self, path) -> None:
        """Write the kept spans and the per-name sums as JSON."""
        with open(path, "w") as out:
            json.dump(
                {
                    "keep_span_s": KEEP_SPAN_S,
                    "folded_spans": self.folded_spans,
                    "names": self.names,
                    "spans": [
                        {"name": self.names[i], "start": s, "end": e, "id": sid, "parent": pid}
                        for i, s, e, sid, pid in self.spans
                    ],
                    "totals": {
                        name: {"calls": c, "incl_s": t, "self_s": st}
                        for name, (c, t, st) in self.snapshot().items()
                    },
                },
                out,
            )


def _all_leibalg_modules():
    import pkgutil

    return [f"leibalg.{m.name}" for m in pkgutil.iter_modules(leibalg.__path__)]
