"""Spans around the package's public layer functions, recorded in memory.

Traced passes replace each public function listed in ``TARGETS`` by a timing
wrapper, everywhere the package refers to it: the defining module, every
module that imported the name (``paradox`` imports ``classify_word``), and
class attributes such as the ``PiecewiseRigidMap.__call__`` alias.

Calls that run once or a few times per request (the CLI entry, the sweeps,
the emitters) become stored spans with name, start, end, parent span and
request id.  Leaf calls that run millions of times (decode, encode,
classify, multiply, apply, eval) are not stored one by one: they are
aggregated under their nearest stored ancestor span as a call count, total
time and self time.  A call's self time is its duration minus the time its
traced children cover; each frame on the call stack sums the durations of
its direct children, which is exact because calls nest on one thread.

Work done in private helpers (``_is_member``, ``_tree_fixed_indices``,
``_letters_finite``, ...) is not traced separately: it lands in the self
time of the public function that called it.
"""

from __future__ import annotations

import json
import sys
import time
import weakref

#: (metric prefix, module, attribute path, stored span?)
TARGETS = (
    ("freegroup.classify_word", "freegroup", "classify_word", False),
    ("freegroup.multiply", "freegroup", "multiply", False),
    ("freegroup.enumerate", "freegroup", "enumerate_words", True),
    ("labeling.decode", "labeling", "VertexLabeling.word_of_label", False),
    ("labeling.encode", "labeling", "VertexLabeling.label_of_word", False),
    ("labeling.ball", "labeling", "VertexLabeling.ball", True),
    ("permutation.apply", "permutation", "TreePermutation.apply", False),
    ("rigid.eval", "rigid", "PiecewiseRigidMap.eval", False),
    ("rigid.eval", "rigid", "PiecewiseRigidMap.eval_inverse", False),
    ("rigid.pieces", "rigid", "PiecewiseRigidMap.pieces_in_window", True),
    ("rigid.audit", "rigid", "rigidity_audit", True),
    ("paradox.verify_partition", "paradox", "ParadoxInstance.verify_partition", True),
    ("paradox.verify_reassembly", "paradox", "ParadoxInstance.verify_reassembly", True),
    ("paradox.certify_free_action", "paradox", "ParadoxInstance.certify_free_action", True),
    ("render.emit", "render", "function_graph_svg", True),
    ("render.emit", "render", "line_strip_svg", True),
    ("render.emit", "render", "cayley_ball_dot", True),
    ("cli.main", "cli", "main", True),
)

#: Per-layer metric names and units, in report order.
LAYER_METRICS = (
    ("freegroup.classify_word.calls", "count"),
    ("freegroup.classify_word.self_s", "s"),
    ("freegroup.multiply.calls", "count"),
    ("freegroup.multiply.self_s", "s"),
    ("freegroup.enumerate.words", "count"),
    ("freegroup.enumerate.self_s", "s"),
    ("labeling.decode.calls", "count"),
    ("labeling.decode.self_s", "s"),
    ("labeling.decode.repeat_ratio", "ratio"),
    ("labeling.encode.calls", "count"),
    ("labeling.encode.self_s", "s"),
    ("labeling.encode.repeat_ratio", "ratio"),
    ("labeling.max_word_len", "letters"),
    ("labeling.max_label_bits", "bits"),
    ("labeling.ball.vertices", "count"),
    ("labeling.ball.self_s", "s"),
    ("permutation.apply.calls", "count"),
    ("permutation.apply.self_s", "s"),
    ("permutation.fixed_scan.pairs", "count"),
    ("rigid.eval.calls", "count"),
    ("rigid.eval.self_s", "s"),
    ("rigid.audit.calls", "count"),
    ("rigid.audit.self_s", "s"),
    ("rigid.pieces.self_s", "s"),
    ("paradox.verify_partition.self_s", "s"),
    ("paradox.verify_reassembly.self_s", "s"),
    ("paradox.certify_free_action.self_s", "s"),
    ("paradox.labels_swept", "count"),
    ("paradox.sweep_passes", "count"),
    ("render.emit.calls", "count"),
    ("render.emit.self_s", "s"),
    ("render.bytes", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_out", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


class Tracer:
    """Span store plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: list[list] = []  # [id, name, start, end, parent, request, child_s]
        self.leaves: dict[tuple, list] = {}  # (span id, name) -> [calls, total_s, self_s]
        # Call stack frames: [time covered by direct children, enclosing span id].
        self.stack: list[list] = [[0.0, None]]
        self.request: int | None = None
        self.counts: dict[str, float] = {}
        self._seen: dict[tuple[str, int], set] = {}
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, stored: bool, observe=None):
        stack = self.stack
        perf = time.perf_counter

        if stored:
            spans = self.spans

            def traced(*args, **kwargs):
                parent = stack[-1]
                span = [len(spans), name, 0.0, 0.0, parent[1], self.request, 0.0]
                spans.append(span)
                frame = [0.0, span[0]]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    span[2], span[3], span[6] = t0, t1, frame[0]
                if observe is not None:
                    observe(args, result)
                # The wrapper's own bookkeeping counts as covered by this
                # child, so it does not inflate the parent's self time.
                parent[0] += perf() - t0
                return result
        else:
            leaves = self.leaves

            def traced(*args, **kwargs):
                parent = stack[-1]
                frame = [0.0, parent[1]]
                stack.append(frame)
                t0 = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    stack.pop()
                    key = (parent[1], name)
                    agg = leaves.get(key)
                    if agg is None:
                        agg = leaves[key] = [0, 0.0, 0.0]
                    agg[0] += 1
                    agg[1] += t1 - t0
                    agg[2] += t1 - t0 - frame[0]
                if observe is not None:
                    observe(args, result)
                parent[0] += perf() - t0
                return result

        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def maximum(self, name: str, value: float) -> None:
        if value > self.counts.get(name, 0):
            self.counts[name] = value

    def _repeat(self, kind: str, owner, key) -> bool:
        """Whether this labeling instance already handled ``key``.

        Labelings compare equal by rank, so instances are told apart by id;
        the entry is dropped when the instance dies, before its id can be
        reused by the next request's labeling.
        """
        ident = (kind, id(owner))
        seen = self._seen.get(ident)
        if seen is None:
            seen = self._seen[ident] = set()
            weakref.finalize(owner, self._seen.pop, ident, None)
        if key in seen:
            return True
        seen.add(key)
        return False

    # -- observers: counters read from arguments and results ---------------

    def _on_decode(self, args, word) -> None:
        labeling, n = args[0], args[1]
        if self._repeat("decode", labeling, n):
            self.count("labeling.decode.repeats")
        self.maximum("labeling.max_word_len", len(word.letters))
        self.maximum("labeling.max_label_bits", abs(n).bit_length())

    def _on_encode(self, args, label) -> None:
        labeling, word = args[0], args[1]
        if self._repeat("encode", labeling, word.letters):
            self.count("labeling.encode.repeats")
        self.maximum("labeling.max_word_len", len(word.letters))
        self.maximum("labeling.max_label_bits", abs(label).bit_length())

    def _on_ball(self, args, ball) -> None:
        self.count("labeling.ball.vertices", len(ball.entries))

    def _on_enumerate(self, args, words) -> None:
        self.count("freegroup.enumerate.words", len(words))

    def _on_sweep(self, args, report) -> None:
        lo, hi = report.window
        self.count("paradox.labels_swept", hi - lo + 1)
        self.count("paradox.sweeps")

    def _on_free(self, args, report) -> None:
        self._on_sweep(args, report)
        lo, hi = report.window
        self.count("permutation.fixed_scan.pairs", report.words_checked * (hi - lo + 1))

    def _on_emit(self, args, text) -> None:
        self.count("render.bytes", len(text.encode()))

    _OBSERVERS = {
        "VertexLabeling.word_of_label": _on_decode,
        "VertexLabeling.label_of_word": _on_encode,
        "VertexLabeling.ball": _on_ball,
        "enumerate_words": _on_enumerate,
        "ParadoxInstance.verify_partition": _on_sweep,
        "ParadoxInstance.verify_reassembly": _on_sweep,
        "ParadoxInstance.certify_free_action": _on_free,
        "function_graph_svg": _on_emit,
        "line_strip_svg": _on_emit,
        "cayley_ball_dot": _on_emit,
    }

    # -- installation --------------------------------------------------------

    def install(self, package: str = "lineparadox") -> None:
        """Replace every reference the package holds to each target."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, module, path, stored in TARGETS:
            owner = sys.modules.get(f"{package}.{module}")
            original = owner
            for part in path.split("."):
                original = getattr(original, part, None)
            if original is None:
                self.missing.append(f"{module}.{path}")
                continue
            observe = self._OBSERVERS.get(path)
            bound = None if observe is None else observe.__get__(self)
            traced = self.wrap(name, original, stored, bound)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, traced)
                    elif isinstance(value, type) and value.__module__.startswith(package):
                        for cattr, cvalue in list(vars(value).items()):
                            if cvalue is original:
                                setattr(value, cattr, traced)

    # -- results ---------------------------------------------------------------

    def layer_metrics(self, verify_requests: int, bytes_out: int) -> dict[str, float]:
        """Per-layer values for one pass (``trace.overhead_frac`` excluded)."""
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        for (_, name), (n, _total, own) in self.leaves.items():
            calls[name] = calls.get(name, 0) + n
            self_s[name] = self_s.get(name, 0.0) + own
        for _, name, start, end, _, _, child in self.spans:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start - child)
        c = self.counts
        decodes = calls.get("labeling.decode", 0)
        encodes = calls.get("labeling.encode", 0)
        out = {}
        for metric, _unit in LAYER_METRICS:
            prefix, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls.get(prefix, 0)
            elif field == "self_s":
                out[metric] = self_s.get(prefix, 0.0)
            else:
                out[metric] = c.get(metric, 0)
        out["labeling.decode.repeat_ratio"] = c.get("labeling.decode.repeats", 0) / decodes if decodes else 0.0
        out["labeling.encode.repeat_ratio"] = c.get("labeling.encode.repeats", 0) / encodes if encodes else 0.0
        out["paradox.sweep_passes"] = c.get("paradox.sweeps", 0) / verify_requests if verify_requests else 0.0
        out["cli.bytes_out"] = bytes_out
        del out["trace.overhead_frac"]
        return out

    def dump(self, path: str) -> None:
        """Write the spans and leaf aggregates of this pass as JSON."""
        doc = {
            "spans": [
                {"id": i, "name": name, "start": start, "end": end, "parent": parent,
                 "request": request, "self_s": end - start - child}
                for i, name, start, end, parent, request, child in self.spans
            ],
            "aggregates": [
                {"span": span, "name": name, "calls": n, "total_s": total, "self_s": own}
                for (span, name), (n, total, own) in self.leaves.items()
            ],
            "untraced": self.missing,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
