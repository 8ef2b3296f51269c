"""Per-layer spans for the traced run, recorded from outside the package.

The tracer replaces module-level names that ascseq's modules call each other
through (for example `ascseq.cli.parse_seq` or `ascseq.bijection.
require_avoids_word`) with timing wrappers, and puts the originals back when
the traced pass ends.  Private helpers (`_to_permutation`, `_split_*`,
`_join_*`, `_completes_occurrence`) are left alone, so their time counts as
self time of the span that calls them.  A name that no longer exists is
skipped, and its span reports zero calls.

A span's self time is its duration minus the time covered by the spans it
encloses.  Streams are timed per `next()`, so a span covers only the work of
producing each object, never the consumer's work between objects.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# span name -> "module:name" bindings whose calls it times
CALL_SPANS = {
    "core.parse": ("cli:parse_seq",),
    "core.validate": ("cli:validate_permutation",
                      "bijection:validate_ascent_sequence",
                      "bijection:validate_permutation",
                      "stats:validate_ascent_sequence",
                      "enumeration:validate_permutation",
                      "enumeration:validate_word_pattern"),
    "core.format": ("cli:format_seq", "enumeration:format_seq"),
    "patterns.domain_check": ("bijection:require_avoids_word",
                              "bijection:require_avoids_perm"),
    "stats": ("cli:asc", "cli:rlm", "cli:special_maximum",
              "enumeration:asc", "enumeration:rlm"),
    "bijection.forward": ("cli:ascent_to_permutation",),
    "bijection.inverse": ("cli:permutation_to_ascent",),
    "enumeration.tally": ("cli:joint_distribution", "enumeration:joint_distribution"),
    "enumeration.verify": ("cli:verify_equidistribution",),
}
STREAM_SPANS = {
    "enumeration.stream": ("cli:ascent_sequences_avoiding",
                           "cli:permutations_avoiding",
                           "enumeration:ascent_sequences_avoiding",
                           "enumeration:permutations_avoiding"),
}
CLI_SPAN = "cli"  # opened by the benchmark around each `cli.main` call


class Span:
    __slots__ = ("calls", "self_s", "max_s")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.max_s = 0.0


class Tracer:
    def __init__(self) -> None:
        names = [CLI_SPAN, *CALL_SPANS, *STREAM_SPANS]
        self.spans = {name: Span() for name in names}
        self.objects = 0  # items produced by traced streams
        self._covered: list[float] = []  # per open span: time its children took

    def timed(self, name: str, fn, *args, **kwargs):
        span = self.spans[name]
        covered = self._covered
        covered.append(0.0)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = perf_counter() - start
            inner = covered.pop()
            if covered:
                covered[-1] += duration
            span.calls += 1
            span.self_s += duration - inner
            if duration > span.max_s:
                span.max_s = duration


class _Stream:
    """Iterator proxy that times each `next()` of the stream it wraps."""

    def __init__(self, tracer: Tracer, name: str, it) -> None:
        self._tracer, self._name, self._it = tracer, name, it

    def __iter__(self):
        return self

    def __next__(self):
        item = self._tracer.timed(self._name, next, self._it)
        self._tracer.objects += 1
        return item


def _call_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.timed(name, fn, *args, **kwargs)
    return wrapper


def _stream_wrapper(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if iter(result) is result:  # a one-shot iterator: time its next()
            return _Stream(tracer, name, result)
        return result
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Wrap every listed binding for the duration of the block.

    Default arguments that hold a wrapped function (such as the statistics
    pair `joint_distribution` tallies by default) are bound too.
    """
    plan = [(name, target, _call_wrapper) for name, targets in CALL_SPANS.items()
            for target in targets]
    plan += [(name, target, _stream_wrapper) for name, targets in STREAM_SPANS.items()
             for target in targets]
    by_module: dict[str, list] = {}
    for name, target, make in plan:
        module_name, attr = target.split(":")
        by_module.setdefault(module_name, []).append((name, attr, make))

    undo = []
    try:
        for module_name, entries in by_module.items():
            module = importlib.import_module(f"ascseq.{module_name}")
            namespace = dict(vars(module))
            swaps = {}
            for name, attr, make in entries:
                original = namespace.get(attr)
                if callable(original):
                    swaps[id(original)] = make(tracer, name, original)
            for attr, value in namespace.items():
                if id(value) in swaps:
                    undo.append((module, attr, value))
                    setattr(module, attr, swaps[id(value)])
                defaults = getattr(value, "__defaults__", None)
                if getattr(value, "__module__", None) == module.__name__ and defaults:
                    bound = tuple(_rebind(d, swaps) for d in defaults)
                    if bound != defaults:
                        undo.append((value, "__defaults__", defaults))
                        value.__defaults__ = bound
        yield tracer
    finally:
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)


def _rebind(default, swaps):
    if isinstance(default, tuple):
        return tuple(swaps.get(id(v), v) for v in default)
    return swaps.get(id(default), default)
