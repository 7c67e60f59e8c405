"""Outside-in layer tracing: self time per layer from wrapped entry points.

The benchmark never edits the program to time it. A :class:`Tracer`
replaces chosen public methods on their classes with timing wrappers for
the duration of one traced pass, then puts the originals back. Every
wrapped call is a span; a span's *self time* is its duration minus the
time covered by the wrapped calls nested inside it, so summing self
times over every layer counts each traced microsecond exactly once.

Wrappers must be installed before the objects under test are built:
the engine registers bound methods (``loop.step``, the coordinator's
``coordinate``) as periodic tasks at build time, and a bound method
keeps the function it was created from.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable


class Tracer:
    """Self time, call counts and custom counts per layer."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        #: Layer name -> accumulated self seconds.
        self.self_seconds: dict[str, float] = defaultdict(float)
        #: Layer name -> calls that entered the layer from another layer
        #: (a layer re-entering itself is one call, not two).
        self.calls: Counter = Counter()
        #: Free-form counts fed by the ``count`` hooks.
        self.counts: Counter = Counter()
        #: Wrapped calls made while this is False run untimed, so that
        #: only the program's work (not the harness's checks) is traced.
        self.enabled = True
        self._clock = clock
        self._stack: list[list] = []
        self._patches: list[tuple[type, str, object]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def wrap(self, owner: type, attr: str, layer: str,
             count: Callable | None = None) -> None:
        """Time ``owner.attr`` as ``layer``.

        ``count(tracer, parent_layer, args, result)`` runs after the
        call's clock stops, for counters derived from the arguments or
        the result. Only attributes defined on ``owner`` itself are
        wrapped, so a subclass override and its base are wrapped
        separately and restored exactly.
        """
        if attr not in owner.__dict__:
            raise AttributeError(f"{owner.__name__} defines no {attr!r} of its own")
        original = owner.__dict__[attr]
        stack = self._stack
        self_seconds = self.self_seconds
        calls = self.calls
        clock = self._clock

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [layer, 0.0]
            stack.append(frame)
            started = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - started
                stack.pop()
                self_seconds[layer] += elapsed - frame[1]
                if parent is not None:
                    parent[1] += elapsed
            parent_layer = parent[0] if parent is not None else None
            if parent_layer != layer:
                calls[layer] += 1
            if count is not None:
                count(self, parent_layer, args, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original method back, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def patches(self) -> list[tuple[type, str, object]]:
        """``(owner, attr, original)`` for every wrapper now installed."""
        return list(self._patches)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def attributed_seconds(self) -> float:
        """Every layer's self time summed: the traced wall time that
        the wrapped spans account for."""
        return sum(self.self_seconds.values())

