"""Spans around the calls into biquad's layers, recorded from outside.

Each layer's public function is replaced by a wrapper at the module
attribute where its caller looks it up (``biquad.arith.factorize`` is
looked up inside ``biquad.arith``, ``rank_lower_bound`` inside
``biquad.cli``, and so on).  A span records its name, start, end, parent
span and item id; spans stay in memory until the run ends.  A span's
self time is its duration minus the durations of its child spans, so the
self times of all spans of an item add up to the item's wall time, with
``cli.main`` (the benchmark's own call) as the root that takes the rest.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

# (module, attribute, span name); the layer is the name up to the first dot
WRAPPED = (
    ("biquad.cli", "main", "cli.main"),
    ("biquad.cli", "regulator_report", "heights.regulator_report"),
    ("biquad.heights", "canonical_height", "heights.canonical_height"),
    ("biquad.heights", "add", "curves.add"),
    ("biquad.heights", "scalar_mul", "curves.scalar_mul"),
    ("biquad.arith", "factorize", "arith.factorize"),
    ("biquad.cli", "rank_lower_bound", "descent.rank_lower_bound"),
    ("biquad.descent", "search_solutions", "descent.search_solutions"),
    ("biquad.cli", "specialize_euler", "families.specialize_euler"),
    ("biquad.cli", "specialize_general", "families.specialize_general"),
    ("biquad.cli", "euler_integral_model", "families.euler_integral_model"),
    ("biquad.cli", "euler_family_points", "families.euler_family_points"),
    ("biquad.cli", "general_family_points", "families.general_family_points"),
    ("biquad.cli", "euler_n", "families.euler_n"),
    ("biquad.cli", "twin_search", "search.twin_search"),
)

# spans whose first argument and result the metrics need
_KEEP_ARGS = {
    "heights.canonical_height", "arith.factorize",
    "descent.search_solutions", "search.twin_search",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "item", "args", "result")

    def __init__(self, name, parent, item):
        self.name, self.parent, self.item = name, parent, item
        self.args = self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self, modules: dict) -> None:
        """Wrap every entry point in WRAPPED that the program still has."""
        for mod_name, attr, name in WRAPPED:
            module = modules.get(mod_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, fn, name):
        keep = name in _KEEP_ARGS

        def wrapper(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None, self.item)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if keep:
                span.args, span.result = args, result
            return result

        return wrapper

    def self_times(self) -> list[float]:
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start, s.end, s.parent, s.item]) + "\n")

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics over every span of the run."""
        own = self.self_times()
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for s, t in zip(self.spans, own):
            calls[s.name] = calls.get(s.name, 0) + 1
            self_s[s.name] = self_s.get(s.name, 0.0) + t
            layer = s.name.split(".")[0]
            self_s[layer] = self_s.get(layer, 0.0) + t

        def of(name):
            return [s for s in self.spans if s.name == name]

        heights = of("heights.canonical_height")
        points = {(p.curve.b, p.x, p.y) for p in (s.args[0] for s in heights)}
        factored = [s.args[0] for s in of("arith.factorize")]
        # candidates: 2 signs * squarefree divisors * (bound + 1) u * bound v
        candidates = solutions = 0
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        for i, s in enumerate(self.spans):
            if s.name == "descent.search_solutions":
                solutions += len(s.result)
                # the factorization of B behind its squarefree divisors
                f = next((c for c in children.get(i, ()) if c.name == "arith.factorize"), None)
                if f is not None:
                    bound = s.args[1]
                    candidates += 2 * 2 ** len(f.result) * (bound + 1) * bound
        twin = of("search.twin_search")
        pairs = sum(s.args[0] * (s.args[0] + 1) // 2 for s in twin)

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "heights.canonical_height.calls": calls.get("heights.canonical_height", 0),
            "heights.canonical_height.distinct_points": len(points),
            "heights.canonical_height.self_s": self_s.get("heights.canonical_height", 0.0),
            "heights.canonical_height.max_x_digits": max(
                (len(str(max(abs(x.numerator), x.denominator))) for _, x, _ in points),
                default=0,
            ),
            "heights.reuse_ratio": ratio(len(points), len(heights)),
            "heights.regulator_report.self_s": self_s.get("heights.regulator_report", 0.0),
            "heights.self_s": self_s.get("heights", 0.0),
            "arith.factorize.calls": len(factored),
            "arith.factorize.distinct_n": len(set(factored)),
            "arith.factorize.self_s": self_s.get("arith.factorize", 0.0),
            "arith.factorize.max_digits": max((len(str(n)) for n in set(factored)), default=0),
            "arith.factorize.reuse_ratio": ratio(len(set(factored)), len(factored)),
            "descent.search_solutions.calls": calls.get("descent.search_solutions", 0),
            "descent.search_solutions.self_s": self_s.get("descent.search_solutions", 0.0),
            "descent.search_solutions.candidates": candidates,
            "descent.search_solutions.solutions": solutions,
            "descent.hit_ratio": ratio(solutions, candidates),
            "descent.rank_lower_bound.self_s": self_s.get("descent.rank_lower_bound", 0.0),
            "descent.self_s": self_s.get("descent", 0.0),
            "curves.add.calls": calls.get("curves.add", 0),
            "curves.scalar_mul.calls": calls.get("curves.scalar_mul", 0),
            "curves.self_s": self_s.get("curves", 0.0),
            "families.specialize.calls": calls.get("families.specialize_euler", 0)
            + calls.get("families.specialize_general", 0),
            "families.specialize.self_s": self_s.get("families.specialize_euler", 0.0)
            + self_s.get("families.specialize_general", 0.0),
            "families.self_s": self_s.get("families", 0.0),
            "search.twin_search.self_s": self_s.get("search.twin_search", 0.0),
            "search.twin_search.pairs": pairs,
            "search.twin_search.records": sum(len(s.result) for s in twin),
            "search.twin_search.pairs_per_s": ratio(pairs, self_s.get("search.twin_search", 0.0)),
            "cli.self_s": self_s.get("cli", 0.0),
            "trace.spans": len(self.spans),
        }
