"""Per-layer tracing by wrapping the public functions of the orbitrecur modules.

A `Tracer` replaces every public module-level function of each layer module
with a timing wrapper, at every place a module of the package has bound that
function by name (for example both `matcher.sample_sequence` and
`symbolic.sample_sequence`). Nothing inside the package changes. Self time is
a call's duration minus the durations of the wrapped calls it made.

Generator functions are left unwrapped: their work happens while the caller
iterates, so a wrapper would time only the creation of the generator. That
work is counted in the self time of the wrapped caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

PACKAGE = "orbitrecur"
LAYERS = ("symbolic", "thermo", "matcher", "intervalmaps", "proximity",
          "estimators", "diagnostics", "expcli")


def _first_arg_len(args, kwargs, result) -> int:
    return len(args[0])


def _result_len(args, kwargs, result) -> int:
    return len(result)


# Work counted per call, for the functions whose throughput is reported.
WORK = {
    "symbolic.sample_sequence": _result_len,          # symbols sampled
    "matcher.longest_self_match": _first_arg_len,     # symbols indexed
    "intervalmaps.doubling_orbit_exact": _result_len,  # orbit points built
    "proximity.closest_pair": _first_arg_len,         # orbit points scanned
}


class FunctionStats:
    __slots__ = ("calls", "total_s", "self_s", "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.work = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "total_s": self.total_s,
                "self_s": self.self_s, "work": self.work}


def public_functions(module) -> list[str]:
    """Names in the module's `__all__` that are plain functions defined there."""
    out = []
    for name in module.__all__:
        obj = getattr(module, name, None)
        if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                and not inspect.isgeneratorfunction(obj)):
            out.append(name)
    return out


class Tracer:
    """Wraps the layers' public functions; `install` patches, `uninstall`
    restores every binding it patched."""

    def __init__(self) -> None:
        self.stats: dict[str, FunctionStats] = {}
        self._child_time: list[float] = []  # one accumulator per open wrapped call
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        originals = []
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in public_functions(module):
                originals.append((f"{layer}.{name}", getattr(module, name)))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for qualname, fn in originals:
            self.stats[qualname] = FunctionStats()
            wrapper = self._wrap(qualname, fn)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def patched_bindings(self) -> list[tuple[str, str]]:
        return [(m.__name__, attr) for m, attr, _ in self._patched]

    def _wrap(self, qualname: str, fn):
        stats = self.stats[qualname]
        child_time = self._child_time
        work = WORK.get(qualname)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                inner = child_time.pop()
                if child_time:
                    child_time[-1] += dur
                stats.calls += 1
                stats.total_s += dur
                stats.self_s += dur - inner
            if work is not None:
                stats.work += work(args, kwargs, result)
            return result

        return wrapper

    def summary(self) -> dict[str, dict]:
        return {name: st.as_dict() for name, st in self.stats.items()}
