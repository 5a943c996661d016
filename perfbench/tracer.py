"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces every public function of every ``freerat``
module with a timing wrapper, once per binding: ``signs.reduced_acceptor``
and ``automata.reduced_acceptor`` are wrapped separately, so a call is
caught whichever import it goes through.  Spans are named after the
defining module (``automata.reduced_acceptor``) and carry the binding
that was called.  ``uninstall`` puts the original objects back.

A span's self time is its duration minus the time of the wrapped calls
made inside it.  A generator (``enumerate_accepted``) is one span whose
time is the sum of the ``next()`` calls made on it, so the consumer's
per-item work stays with the consumer.

``Word.__mul__``, ``FPElement.__mul__``, ``Acceptor.step`` and
``Acceptor.accepts`` run millions of times; they are counted, not spanned.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

_clock = time.perf_counter

# (module, class, method) -> (counter name, size of the result or None)
_COUNTED = {
    ("freerat.words", "Word", "__mul__"): ("words.Word.mul", "letters"),
    ("freerat.freeprod", "FPElement", "__mul__"): ("freeprod.FPElement.mul", "syllables"),
    ("freerat.automata", "Acceptor", "step"): ("automata.Acceptor.step", None),
    ("freerat.automata", "Acceptor", "accepts"): ("automata.Acceptor.accepts", None),
}


# span name -> (counter, amount of work) of a call's result
_RESULT_MEASURES = {
    "automata.saturate": lambda acc: ("automata.saturate.nfa_states", acc.n_states),
    "automata.determinize": lambda acc: ("automata.determinize.dfa_states", acc.n_states),
    "ratexpr.enumerate_bounded": lambda words: ("ratexpr.enumerate_bounded.words_out", len(words)),
    "ratexpr.standard_form": lambda sf: ("ratexpr.standard_form.summands", len(sf.summands)),
    "verbal.support_dichotomy_check": lambda case: (
        "verbal.support_dichotomy_check.refuted",
        int(type(case).__name__ == "RefutedCase"),
    ),
    "refuter.refute": lambda report: (f"refuter.outcome.{report.outcome}", 1),
}
_ITEM_COUNTERS = {"automata.enumerate_accepted": "strings"}


class Tracer:
    def __init__(self, max_spans: int = 50_000):
        self.max_spans = max_spans
        self.spans: list[tuple] = []  # (id, parent, name, binding, request, start, dur)
        self.dropped = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self.request = -1
        self._stack = [[0, 0.0]]  # [span id, time of wrapped children]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items()) if n == "freerat" or n.startswith("freerat.")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                home = getattr(obj, "__module__", None) or ""
                if not home.startswith("freerat.") or getattr(obj, "_perfbench_wrapped", False):
                    continue
                name = f"{home.removeprefix('freerat.')}.{obj.__name__}"
                binding = f"{module.__name__.removeprefix('freerat.')}.{attr}"
                self._patch(module, attr, self._wrap(obj, name, binding))
        for (modname, cls_name, meth), (counter, size) in _COUNTED.items():
            cls = getattr(sys.modules.get(modname), cls_name, None)
            if cls is not None and hasattr(cls, meth):
                self._patch(cls, meth, self._counting(getattr(cls, meth), counter, size))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    # -- wrappers ----------------------------------------------------------

    def _counting(self, method, counter: str, size):
        counters = self.counters

        @functools.wraps(method)
        def wrapper(*args, **kwargs):
            result = method(*args, **kwargs)
            counters[counter + ".calls"] += 1
            if size is not None:
                counters[f"{counter}.{size}"] += len(result)
            return result

        wrapper._perfbench_wrapped = True
        return wrapper

    def _wrap(self, fn, name: str, binding: str):
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return self._timed_iter(fn(*args, **kwargs), name, binding)

            gen_wrapper._perfbench_wrapped = True
            return gen_wrapper

        measure = _RESULT_MEASURES.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0]
            frame = [span_id, 0.0]
            stack.append(frame)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = _clock() - start
                stack.pop()
                stack[-1][1] += dur
                self._record(span_id, parent, name, binding, start, dur, dur - frame[1])
            if measure is not None:
                counter, amount = measure(result)
                self.counters[counter] += amount
            return result

        wrapper._perfbench_wrapped = True
        return wrapper

    def _timed_iter(self, inner, name: str, binding: str):
        stack = self._stack
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][0]
        items = _ITEM_COUNTERS.get(name)
        first = None
        total = own = 0.0
        try:
            while True:
                frame = [span_id, 0.0]
                stack.append(frame)
                start = _clock()
                if first is None:
                    first = start
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dur = _clock() - start
                    stack.pop()
                    stack[-1][1] += dur
                    total += dur
                    own += dur - frame[1]
                if items:
                    self.counters[f"{name}.{items}"] += 1
                yield item
        finally:
            inner.close()
            self._record(span_id, parent, name, binding, first or _clock(), total, own)

    def _record(self, span_id, parent, name, binding, start, dur, own) -> None:
        self.calls[name] += 1
        self.self_time[name] += own
        if len(self.spans) < self.max_spans:
            self.spans.append((span_id, parent, name, binding, self.request, start, dur))
        else:
            self.dropped += 1

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, name, binding, request, start, dur in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "parent": parent, "name": name, "binding": binding,
                         "request": request, "start": start, "dur": dur},
                        separators=(",", ":"),
                    )
                    + "\n"
                )
