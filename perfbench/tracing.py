"""Layer spans for the traced run (``--trace 1``).

Each layer's public entry point is wrapped, for the duration of the
timed window only, in a :mod:`repro.obs` span on an in-memory
:class:`~repro.obs.Tracer`; a :class:`~repro.obs.MetricsRegistry` is
installed alongside, so the counters the pipeline already emits
(``se.paths_forked``, ``solver.unknown``, ...) are collected too.
Nothing under ``src/`` changes: the wrappers are installed by
attribute assignment and removed on exit.  The spans are written out
as JSONL once the run ends.

A span's *self time* is its duration minus the part of it that child
spans cover; :meth:`LayerTrace.total` with ``minus`` subtracts the
named descendant spans (engine time = ``SymbolicEngine.explore`` minus
the solver spans under it).
"""

from __future__ import annotations

import functools
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro import obs


def _status(result: Any) -> Optional[str]:
    """The solver status of a ``check*`` return value (or None)."""
    if isinstance(result, tuple):
        result = result[0]
    return getattr(result, "status", None)


class LayerTrace:
    """Installs layer spans on enter, restores the originals on exit."""

    def __init__(self) -> None:
        self.tracer = obs.Tracer()
        self.registry = obs.MetricsRegistry()
        self._plan: List[Tuple[Any, str, str, Optional[Callable]]] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        self._observed = None
        self._by_id: Optional[Dict[int, obs.Span]] = None

    def wrap(
        self, owner: Any, attr: str, span: str,
        when: Optional[Callable[..., bool]] = None,
    ) -> "LayerTrace":
        """Time ``owner.attr`` (a module function or a method) as ``span``.

        ``when(*args, **kwargs)`` restricts the span to matching calls
        (the artifact store's ``edge`` kind, for instance).
        """
        self._plan.append((owner, attr, span, when))
        return self

    def __enter__(self) -> "LayerTrace":
        self._observed = obs.observed(self.tracer, self.registry)
        self._observed.__enter__()
        for owner, attr, span, when in self._plan:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._spanned(original, span, when))
        return self

    def __exit__(self, *exc: object) -> bool:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self._observed.__exit__(None, None, None)
        return False

    @staticmethod
    def _spanned(fn: Callable, name: str, when: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def spanned(*args: Any, **kwargs: Any) -> Any:
            if when is not None and not when(*args, **kwargs):
                return fn(*args, **kwargs)
            with obs.trace.span(name) as s:
                result = fn(*args, **kwargs)
                status = _status(result)
                if status is not None:
                    s.set(status=status)
                return result

        return spanned

    # -- reading the spans ----------------------------------------------------

    def spans(self, name: str) -> List[obs.Span]:
        return [s for s in self.tracer.spans if s.name == name]

    def count(self, name: str, under: Optional[obs.Span] = None, **attrs: Any) -> int:
        """How many ``name`` spans (inside ``under``, with ``attrs``) ran."""
        return sum(
            1 for s in self.spans(name)
            if all(s.attrs.get(k) == v for k, v in attrs.items())
            and (under is None or under in self._ancestors(s))
        )

    def total(self, names: Iterable[str], minus: Iterable[str] = ()) -> float:
        """Summed seconds of ``names`` spans, less nested ``minus`` spans."""
        names, minus = set(names), set(minus)
        seconds = sum(s.duration for s in self.tracer.spans if s.name in names)
        for s in self.tracer.spans:
            if s.name in minus and any(a.name in names for a in self._ancestors(s)):
                seconds -= s.duration
        return seconds

    def _ancestors(self, span: obs.Span) -> Iterator[obs.Span]:
        if self._by_id is None or len(self._by_id) != len(self.tracer.spans):
            self._by_id = {s.span_id: s for s in self.tracer.spans}
        parent_id = span.parent_id
        while parent_id is not None and parent_id in self._by_id:
            parent = self._by_id[parent_id]
            yield parent
            parent_id = parent.parent_id

    def counter(self, name: str) -> float:
        return self.registry.snapshot()["counters"].get(name, 0)

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            self.tracer.dump_jsonl(fh)


def mean_ms(trace: LayerTrace, name: str) -> float:
    """Mean duration of the ``name`` spans in ms (0 when none ran)."""
    spans = trace.spans(name)
    return 1000.0 * sum(s.duration for s in spans) / len(spans) if spans else 0.0
