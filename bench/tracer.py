"""Span tracing installed from outside the simulator.

`Tracer.install()` replaces every public function of the traced modules,
and every public method of their service classes, with a wrapper that
times the call. Data records (dataclasses), enums and exceptions are not
layer boundaries and stay unwrapped. Functions imported by name into other
modules (`from .energy import consume`) are rebound there as well, and
`install()` raises if anything but the tracer itself still refers to an
unwrapped original afterwards, so a missed rebind fails loudly instead of
reading 0 s.

Spans are aggregated in memory, per scope and span name, as call count,
total time, self time (total minus the time of wrapped calls made inside
it), exceptions raised by type, and, for spans listed in OUTCOMES, how many
calls had the useful outcome.
"""

from __future__ import annotations

import dataclasses
import enum
import gc
import inspect
import sys
import time

PACKAGE = "imids_sim"
MODULES = ("engine", "rng", "topology", "ids", "attack", "energy", "itids")

# Span name -> predicate on the return value counted as a useful outcome.
OUTCOMES = {
    "ids.cc_validate": lambda result: result.accepted,
    "attack.apply_deprivation": lambda result: result.woken,
}


class RebindError(RuntimeError):
    """A module of the package still refers to an unwrapped original."""


@dataclasses.dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    outcomes: int = 0
    raised: dict = dataclasses.field(default_factory=dict)  # exception name -> count

    def add(self, other: "SpanStats") -> None:
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.outcomes += other.outcomes
        for kind, count in other.raised.items():
            self.raised[kind] = self.raised.get(kind, 0) + count


def _is_service_class(cls) -> bool:
    return not (
        dataclasses.is_dataclass(cls)
        or issubclass(cls, (enum.Enum, BaseException))
    )


def _targets():
    """Yield (span name, owner, attribute, original) for every traced callable."""
    for short in MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for name, value in sorted(vars(module).items()):
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                yield f"{short}.{name}", module, name, value
            elif inspect.isclass(value) and _is_service_class(value):
                for attr, member in sorted(vars(value).items()):
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{short}.{name}.{attr}", value, attr, member


class Tracer:
    """Aggregating span recorder for the imids_sim package.

    `scope` names the bucket new spans land in; the caller switches it
    (for instance between "setup" and "run") around the code it drives.
    """

    def __init__(self):
        self.scopes = {}
        self.scope = "run"
        self.spans = []      # every span name install() wrapped
        self._stack = [0.0]  # child time accumulated by each open span
        self._patches = []   # (owner, attribute, original)

    def stats(self, scope: str) -> dict:
        return self.scopes.setdefault(scope, {})

    def _wrap(self, span: str, fn):
        tracer = self
        stack = self._stack
        outcome = OUTCOMES.get(span)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stats = tracer.scopes.setdefault(tracer.scope, {})
            entry = stats.get(span)
            if entry is None:
                entry = stats[span] = SpanStats()
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                kind = type(exc).__name__
                entry.raised[kind] = entry.raised.get(kind, 0) + 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                entry.calls += 1
                entry.total_s += elapsed
                entry.self_s += elapsed - children
            if outcome is not None and outcome(result):
                entry.outcomes += 1
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original) -> (original, wrapper)
        for span, owner, attr, original in _targets():
            wrapper = self._wrap(span, original)
            wrappers[id(original)] = (original, wrapper)
            self.spans.append(span)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
        # Rebind names imported into other modules of the package.
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])
        missed = self._stray_references(wrappers)
        if missed:
            self.uninstall()
            raise RebindError(f"unwrapped originals still referenced: {missed}")

    def _stray_references(self, wrappers) -> list:
        """Holders of an original other than the tracer's own bookkeeping:
        a module or class dict, a default-argument tuple or a closure the
        rebinding did not reach."""
        ours = {id(wrappers)} | {id(p) for p in self._patches} | {id(w) for w in wrappers.values()}
        for _original, wrapper in wrappers.values():
            ours.update(id(cell) for cell in wrapper.__closure__)
        stray = []
        for original, _wrapper in wrappers.values():
            for holder in gc.get_referrers(original):
                if id(holder) not in ours and not inspect.isframe(holder):
                    stray.append(f"{original.__qualname__} held by {type(holder).__name__}")
        return stray

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
