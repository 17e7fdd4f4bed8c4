"""Per-layer tracing of zetachain from outside the library.

The tracer replaces every public function and public method of each layer
module with a timing wrapper, in every module namespace that binds it (so
``hankel.integrate`` and ``quadrature.integrate`` are both wrapped), and
restores the originals on exit.  Each wrapped call is a span; a layer's
self time is the time inside its spans minus the time inside spans nested
in them.  Integrand callbacks passed to ``quadrature.integrate`` are spans
of their own pseudo-layer, so they count as ``quadrature.integrand_s``
rather than quadrature self time.  A function calling itself directly
(``integrate`` flipping b < a, ``gamma_fn`` reflecting) is one call.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = (
    "exact",
    "values",
    "precision",
    "zeta",
    "special",
    "quadrature",
    "eulersums",
    "hankel",
    "ramanujan",
    "chain",
    "cli",
)

INTEGRAND = "quadrature.integrand"

# integrate is the quadrature layer's one entry point; h_euler and h_euler_shifted
# are the two faces of one Euler-sum kernel
COUNTER_ALIASES = {
    "quadrature.integrate": "quadrature",
    "eulersums.h_euler": "eulersums.h_sum",
    "eulersums.h_euler_shifted": "eulersums.h_sum",
    "values.SymbolicValue.numeric": "values.numeric",
}


def _public_targets(module):
    """(owner, attribute, function, key) for the public callables a module defines."""
    layer = module.__name__.rsplit(".", 1)[-1]
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj) and obj.__module__ == module.__name__:
            yield module, name, obj, f"{layer}.{name}"
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, staticmethod) and inspect.isfunction(member.__func__):
                    yield obj, attr, member, f"{layer}.{name}.{attr}"
                elif inspect.isfunction(member):
                    yield obj, attr, member, f"{layer}.{name}.{attr}"


class Tracer:
    """Context manager collecting call counts and per-layer self time."""

    def __init__(self) -> None:
        self.modules = [importlib.import_module(f"zetachain.{layer}") for layer in LAYERS]
        self.counts: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [layer, child seconds, function]
        self._saved: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _span(self, layer: str, fn, args, kwargs):
        stack = self._stack
        frame = [layer, 0.0, fn]
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            self.self_s[layer] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def _wrap(self, fn, key: str):
        layer = key.split(".", 1)[0]
        counter = COUNTER_ALIASES.get(key, key) + ".calls"
        is_integrate = key == "quadrature.integrate"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._stack and self._stack[-1][2] is fn:
                return fn(*args, **kwargs)  # direct self-recursion: one call
            self.counts[counter] += 1
            if not is_integrate:
                return self._span(layer, fn, args, kwargs)
            args = (self._wrap_integrand(args[0]),) + args[1:]
            result = self._span(layer, fn, args, kwargs)
            self.counts["quadrature.levels"] += result.levels
            self.counts["quadrature.unconverged"] += not result.converged
            return result

        return wrapper

    def _wrap_integrand(self, f):
        def integrand(*args):
            self.counts["quadrature.integrand_evals"] += 1
            return self._span(INTEGRAND, f, args, {})

        return integrand

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        replacements = {}
        for module in self.modules:
            for owner, attr, member, key in _public_targets(module):
                if isinstance(member, staticmethod):
                    wrapped = staticmethod(self._wrap(member.__func__, key))
                    replacements[id(member.__func__)] = wrapped.__func__
                else:
                    wrapped = self._wrap(member, key)
                    replacements[id(member)] = wrapped
                self._saved.append((owner, attr, member))
                setattr(owner, attr, wrapped)
        # rebind every module-level name that refers to a wrapped function,
        # including names imported from another layer and private aliases
        for module in self.modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in replacements:
                    self._saved.append((module, name, obj))
                    setattr(module, name, replacements[id(obj)])
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict[str, float]:
        """Counters plus ``<layer>.self_s`` for every layer and the integrand time."""
        out: dict[str, float] = dict(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        out["quadrature.integrand_s"] = self.self_s.get(INTEGRAND, 0.0)
        return out
