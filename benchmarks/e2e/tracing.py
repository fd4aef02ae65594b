"""Span tracing from outside the program, for the traced run only.

The traced run substitutes wrapped versions of each layer's public
functions into their modules and classes *in the harness process* —
no file under ``src/`` changes, and an untraced run never installs a
wrapper at all. A wrapper times its call, charges the time to the
calling span as child time (so a layer's self time is its span minus
its children), and keeps a span record: always for the cold lifecycle
calls, for a 1-in-``sample_every`` sample of requests on the per-tuple
path. Spans stay in memory and are written as JSONL when the run ends.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections.abc import Callable
from contextlib import contextmanager

_clock = time.perf_counter

# Frame layout (a list, not an object: this sits on the per-tuple path).
_ID, _CHILDREN, _RID, _PARENT, _START = range(5)


class Tracer:
    """Collects spans and per-name busy totals across threads."""

    def __init__(self, sample_every: int = 256) -> None:
        self.sample_every = sample_every
        #: ``(id, name, start, end, parent id or None, own request id or
        #: None, chunk, thread)``.
        self.spans: list[tuple] = []
        #: Request id for spans that are not one sampled tuple: the index
        #: of the measurement chunk they fell in (the generator sets it).
        self.chunk = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[tuple[list, dict, list]] = []
        self._states_lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _state(self) -> tuple[list, dict, list]:
        """This thread's ``(span stack, totals, [top-level hot calls])``.

        Totals are per thread: ``+=`` on a shared cell is not atomic, and
        the receiver threads run the same wrappers concurrently.
        """
        try:
            return self._local.state
        except AttributeError:
            state = ([], {}, [0])
            self._local.state = state
            with self._states_lock:
                self._states.append(state)
            return state

    def _enter(self, hot: bool) -> tuple[list, tuple]:
        state = self._state()
        stack = state[0]
        parent = stack[-1] if stack else None
        if not hot or (parent is not None and parent[_ID] is not None):
            span_id = next(self._ids)
        elif parent is None:
            # A request enters here: keep 1 in sample_every, with every
            # span under it, so a sampled request's tree is complete.
            calls = state[2]
            calls[0] += 1
            span_id = (
                next(self._ids) if calls[0] % self.sample_every == 0 else None
            )
        else:
            span_id = None
        frame = [span_id, 0.0, None, parent, 0.0]
        stack.append(frame)
        frame[_START] = _clock()
        return frame, state

    def _exit(self, name: str, frame: list, state: tuple) -> None:
        end = _clock()
        state[0].pop()
        duration = end - frame[_START]
        total = state[1].get(name)
        if total is None:
            total = state[1][name] = [0, 0.0, 0.0]
        total[0] += 1
        total[1] += duration
        total[2] += frame[_CHILDREN]
        parent = frame[_PARENT]
        if parent is not None:
            parent[_CHILDREN] += duration
        if frame[_ID] is not None:
            self.spans.append((
                frame[_ID], name, frame[_START], end,
                None if parent is None else parent[_ID],
                frame[_RID], self.chunk, threading.current_thread().name,
            ))

    @contextmanager
    def span(self, name: str, rid: int | None = None):
        """Time a block as one always-recorded span."""
        frame, state = self._enter(False)
        frame[_RID] = rid
        try:
            yield
        finally:
            self._exit(name, frame, state)

    def record(
        self, name: str, start: float, end: float, rid: int | None = None
    ) -> None:
        """Add a span whose times were measured elsewhere (episodes)."""
        self.spans.append((
            next(self._ids), name, start, end, None, rid, self.chunk,
            threading.current_thread().name,
        ))

    # ------------------------------------------------------------- wrapping

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        hot: bool = False,
        rid_of: Callable[[object], int] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a timed wrapper until :meth:`restore`.

        ``hot`` marks a per-tuple function: timed on every call, recorded
        as a span only for sampled requests. ``rid_of`` maps the call's
        return value to its request id (``submit`` returns the tuple seq).
        ``after`` is called with the call's arguments once its span has
        closed, so what it does is charged to no layer.
        """
        original = getattr(owner, attr)
        enter, leave = self._enter, self._exit

        def wrapper(*args, **kwargs):
            frame, state = enter(hot)
            try:
                result = original(*args, **kwargs)
                if rid_of is not None and frame[_ID] is not None:
                    frame[_RID] = rid_of(result)
            finally:
                leave(name, frame, state)
            if after is not None:
                after(*args, **kwargs)
            return result

        wrapper.__wrapped__ = original
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back exactly as it was."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -------------------------------------------------------------- reading

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """``name -> (calls, busy seconds, seconds spent in child spans)``."""
        merged: dict[str, list] = {}
        with self._states_lock:
            states = list(self._states)
        for _, totals, _ in states:
            for name, (calls, busy, children) in list(totals.items()):
                cell = merged.setdefault(name, [0, 0.0, 0.0])
                cell[0] += calls
                cell[1] += busy
                cell[2] += children
        return {name: tuple(cell) for name, cell in merged.items()}

    def calls(self, name: str) -> int:
        return self.totals().get(name, (0, 0.0, 0.0))[0]

    def busy_seconds(self, name: str) -> float:
        return self.totals().get(name, (0, 0.0, 0.0))[1]

    def self_seconds(self, name: str) -> float:
        """A layer's own time: its spans minus the child spans they cover."""
        _, busy, children = self.totals().get(name, (0, 0.0, 0.0))
        return busy - children

    def write_jsonl(self, path) -> int:
        """Write every kept span, one JSON object per line; returns the count.

        Spans of one request share its id: a span without a request id of
        its own takes its parent's (``submit`` learns the tuple's seq only
        when it returns, after the spans under it have closed), and one
        with no parent takes the chunk it fell in.
        """
        own = {span[0]: span[5] for span in self.spans if span[5] is not None}
        parents = {span[0]: span[4] for span in self.spans}

        def request_id(span_id, chunk):
            while span_id is not None:
                if span_id in own:
                    return own[span_id]
                span_id = parents.get(span_id)
            return chunk

        with open(path, "w") as out:
            for span_id, name, start, end, parent, _, chunk, thread in self.spans:
                out.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "rid": request_id(span_id, chunk),
                    "thread": thread,
                }) + "\n")
        return len(self.spans)
