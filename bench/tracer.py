"""Per-layer call tracing for the benchmark's traced runs.

Every wrapped call is a span with a name, a start, an end and a parent (the
innermost span open when it started).  The process is single-threaded, so
spans nest strictly and one stack holds the open ones.  A span's self time
is its duration minus the time its direct children cover.

A box-study pass opens tens of millions of spans, far too many to keep, so
each span is folded into its name's totals when it closes: call count, self
time, and an optional result measure (candidates returned, tells, traces).
Summing self time over every span under a root gives back the root's
duration exactly, which is how the traced run accounts for its pass time.

Library functions are patched where they are looked up, not only where they
are defined: ``planner`` imports ``applicable``, ``step_belief_protocol``
and the rest by name, so :meth:`Tracer.patch_function` rebinds every module
global of the package that refers to the original object.  Methods are
patched on their class, which every call site resolves through.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # name -> [calls, self seconds, summed result measure]
        self.stats: dict[str, list] = {}
        # Child time accumulated by each open span; the bottom entry
        # collects top-level spans and is never popped.
        self._stack: list[float] = [0.0]
        self._undo: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ----------------------------------------------------------------

    def _entry(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0])

    def wrap(self, name: str, fn: Callable, measure: Optional[Callable] = None) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        entry = self._entry(name)
        stack = self._stack
        clock = self.clock

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                entry[0] += 1
                entry[1] += duration - children
                stack[-1] += duration
            if measure is not None:
                entry[2] += measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    @property
    def top_level_s(self) -> float:
        """Summed duration of every closed span that had no parent."""
        return self._stack[0]

    def calls(self, name: str) -> int:
        return self._entry(name)[0]

    def self_s(self, name: str) -> float:
        return self._entry(name)[1]

    def measured(self, name: str):
        return self._entry(name)[2]

    # -- patching -------------------------------------------------------------

    def patch_function(
        self, name: str, module: object, attr: str, package: str,
        measure: Optional[Callable] = None,
    ) -> None:
        """Wrap ``module.attr`` under every global name that binds it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        traced = self.wrap(name, original, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, value))
                    setattr(mod, key, traced)

    def patch_method(
        self, name: str, cls: type, attr: str, measure: Optional[Callable] = None
    ) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(name)
            return
        self._undo.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, measure))

    def unpatch(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)
