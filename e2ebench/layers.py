"""Wall-clock time per layer, measured from outside the library.

Each layer is a set of ``repro`` modules.  :class:`LayerTracer` wraps
every function those modules define (module functions and the methods
of the classes they define; dunder methods excepted) and times each call
on :func:`time.perf_counter`.  Nothing in ``src/`` is edited: the
wrappers are installed on the module and class objects at run time and
removed afterwards, and :meth:`LayerTracer.remove` proves every original
is back.

How a call is timed:

* A plain function: the call, start to return.
* A generator function (a simulated process or an iterator): the call
  returns a proxy whose ``send``/``throw``/``close`` time each
  resumption, so the time a process spends suspended on an event is not
  charged to anyone.
* A call into the layer that is already on top of the span stack is not
  a new span: ``calls`` counts entries into a layer from another one.

Spans are aggregated online on a stack: a span's self time is its
duration minus the durations of the spans it encloses.  ``sim`` is the
root (``Environment.run_until``), so its self time is kernel dispatch
plus everything no layer claims — the benchmark's own client loops and
modules outside every layer (``repro.obs``, ``repro.health``, ...).
The self times of all layers add up to the wall time inside the root.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Layer name -> the modules it consists of.  ``sim`` wraps only public
#: names: the kernel's private methods are its per-event dispatch path,
#: which the root span already times.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("sim", ("repro.sim.kernel", "repro.sim.resources", "repro.sim.cpu")),
    ("storage.device", ("repro.storage.device",)),
    ("storage.filesystem", ("repro.storage.filesystem",)),
    ("storage.page_cache", ("repro.storage.page_cache",)),
    ("lsm.engine", ("repro.lsm.engine",)),
    ("lsm.memtable", ("repro.lsm.memtable", "repro.lsm.skiplist")),
    ("lsm.wal", ("repro.lsm.wal",)),
    ("lsm.sstable", ("repro.lsm.sstable", "repro.lsm.codec")),
    ("lsm.bloom", ("repro.lsm.bloom",)),
    ("lsm.cache", ("repro.lsm.cache",)),
    ("lsm.version", ("repro.lsm.version", "repro.lsm.manifest")),
    ("lsm.iterators", ("repro.lsm.iterators",)),
    ("core", ("repro.core.bolt_engine", "repro.core.compaction_file",
              "repro.core.fd_cache")),
    ("svc", ("repro.svc.server",)),
    ("cluster", ("repro.cluster.store", "repro.cluster.replication",
                 "repro.cluster.failover", "repro.cluster.partition",
                 "repro.cluster.net")),
)

LAYER_NAMES: Tuple[str, ...] = tuple(name for name, _ in LAYERS)

_SIM = 0


class _Clock:
    """The span stack and per-layer accumulators."""

    __slots__ = ("stack", "self_s", "calls", "now")

    def __init__(self) -> None:
        # Each frame is [layer index, start, time covered by children].
        self.stack: List[list] = []
        self.self_s = [0.0] * len(LAYERS)
        self.calls = [0] * len(LAYERS)
        self.now = time.perf_counter

    def leave(self, frame: list) -> None:
        """Close ``frame`` (the top of the stack) and charge its layer."""
        duration = self.now() - frame[1]
        stack = self.stack
        stack.pop()
        layer = frame[0]
        self.self_s[layer] += duration - frame[2]
        self.calls[layer] += 1
        if stack:
            stack[-1][2] += duration


class _TimedGenerator:
    """A generator proxy that times each resumption of ``gen``."""

    __slots__ = ("_gen", "_layer", "_clock")

    def __init__(self, gen: Any, layer: int, clock: _Clock):
        self._gen = gen
        self._layer = layer
        self._clock = clock

    @property
    def __name__(self) -> str:
        """The wrapped generator's name (the kernel names processes by it)."""
        return self._gen.__name__

    def __iter__(self) -> "_TimedGenerator":
        return self

    def __next__(self) -> Any:
        return self.send(None)

    def _resume(self, method: Callable, *args: Any) -> Any:
        clock = self._clock
        stack = clock.stack
        if stack and stack[-1][0] == self._layer:
            return method(*args)
        frame = [self._layer, clock.now(), 0.0]
        stack.append(frame)
        try:
            return method(*args)
        finally:
            clock.leave(frame)

    def send(self, value: Any) -> Any:
        """Resume the generator with ``value``, timed."""
        return self._resume(self._gen.send, value)

    def throw(self, *args: Any) -> Any:
        """Raise into the generator, timed."""
        return self._resume(self._gen.throw, *args)

    def close(self) -> None:
        """Close the generator (runs its ``finally`` blocks), timed."""
        self._resume(self._gen.close)


class _FlaggedGenerator(_TimedGenerator):
    """A proxy that marks ``active[key]`` while its generator runs."""

    __slots__ = ("_active", "_key")

    def __init__(self, gen: Any, active: Dict[str, int], key: str):
        self._gen = gen
        self._active = active
        self._key = key

    def _resume(self, method: Callable, *args: Any) -> Any:
        self._active[self._key] += 1
        try:
            return method(*args)
        finally:
            self._active[self._key] -= 1


def _timed_function(fn: Callable, layer: int, clock: _Clock) -> Callable:
    stack = clock.stack
    now = clock.now
    leave = clock.leave

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if stack and stack[-1][0] == layer:
            return fn(*args, **kwargs)
        frame = [layer, now(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            leave(frame)
    return wrapper


def _timed_generator_function(fn: Callable, layer: int,
                              clock: _Clock) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _TimedGenerator(fn(*args, **kwargs), layer, clock)
    return wrapper


class LayerTracer:
    """Installs, aggregates and removes the per-layer wrappers.

    ``observers`` maps a function's ``module:qualname`` to a callback
    that sees each call's result, for counts taken at a boundary (for
    instance bloom-filter negatives).  ``contexts`` names generator
    functions whose resumptions set a flag, readable as
    ``tracer.active[name]``, so an observer can count calls made from
    inside them (barriers issued by compactions).
    """

    def __init__(self, observers: Optional[Dict[str, Callable]] = None,
                 contexts: Tuple[str, ...] = ()):
        self.clock = _Clock()
        self.observers = dict(observers or {})
        self.contexts = contexts
        self.active: Dict[str, int] = {name: 0 for name in contexts}
        #: (owner, attribute, original) for every replaced attribute.
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- aggregation ----------------------------------------------------

    def totals(self) -> Dict[str, Tuple[int, float]]:
        """layer -> (calls, self seconds), cumulative since install."""
        clock = self.clock
        return {name: (clock.calls[i], clock.self_s[i])
                for i, name in enumerate(LAYER_NAMES)}

    # -- install / remove -------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's functions."""
        if self._patched:
            raise RuntimeError("layer wrappers are already installed")
        replaced: Dict[int, Callable] = {}
        for layer, (_name, modules) in enumerate(LAYERS):
            for module_name in modules:
                module = importlib.import_module(module_name)
                self._wrap_module(module, layer, replaced)
        # Modules that imported a wrapped function by name keep their
        # own reference to it: point those at the wrapper too.
        for module_name, module in sorted(sys.modules.items()):
            if not module_name.startswith("repro.") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                wrapper = replaced.get(id(value))
                if wrapper is not None and value is not wrapper:
                    self._set(module, attr, wrapper)

    def remove(self) -> List[str]:
        """Restore every original; returns the attributes left wrapped."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        leftovers = [f"{getattr(owner, '__name__', owner)}.{attr}"
                     for owner, attr, original in self._patched
                     if vars(owner).get(attr) is not original]
        self._patched = []
        return leftovers

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_module(self, module: types.ModuleType, layer: int,
                     replaced: Dict[int, Callable]) -> None:
        public_only = layer == _SIM

        def skipped(name: str) -> bool:
            return name.startswith("__") or (public_only
                                             and name.startswith("_"))

        for attr, value in list(vars(module).items()):
            # Only what the module defines, under its own name (not an
            # alias such as Kernel = Environment, which would wrap twice).
            if (getattr(value, "__module__", None) != module.__name__
                    or getattr(value, "__name__", None) != attr):
                continue
            if inspect.isclass(value):
                for name, member in list(vars(value).items()):
                    if skipped(name):
                        continue
                    wrapped = self._wrap_member(member, layer, module)
                    if wrapped is not None:
                        self._set(value, name, wrapped)
            elif isinstance(value, types.FunctionType) and not skipped(attr):
                wrapped = self._wrap(value, layer, module)
                replaced[id(value)] = wrapped
                self._set(module, attr, wrapped)

    def _wrap_member(self, member: Any, layer: int,
                     module: types.ModuleType) -> Any:
        if isinstance(member, staticmethod):
            return staticmethod(self._wrap(member.__func__, layer, module))
        if isinstance(member, classmethod):
            return classmethod(self._wrap(member.__func__, layer, module))
        if isinstance(member, types.FunctionType):
            return self._wrap(member, layer, module)
        return None

    def _wrap(self, fn: Callable, layer: int,
              module: types.ModuleType) -> Callable:
        key = f"{module.__name__}:{fn.__qualname__}"
        if inspect.isgeneratorfunction(fn):
            wrapped = _timed_generator_function(fn, layer, self.clock)
            if key in self.contexts:
                wrapped = self._flagging(wrapped, key)
        else:
            wrapped = _timed_function(fn, layer, self.clock)
        observer = self.observers.get(key)
        if observer is not None:
            wrapped = _observed(wrapped, observer)
        return wrapped

    def _flagging(self, make_gen: Callable, key: str) -> Callable:
        active = self.active

        @functools.wraps(make_gen)
        def wrapper(*args, **kwargs):
            return _FlaggedGenerator(make_gen(*args, **kwargs), active, key)
        return wrapper


def _observed(fn: Callable, observer: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        observer(result)
        return result
    return wrapper
