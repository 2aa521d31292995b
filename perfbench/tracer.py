"""Outside-in tracer: spans around gencp's public functions, from the benchmark.

Nothing in gencp knows about this module.  ``install`` swaps module and class
attributes that the search calls through for timing wrappers, and
``traced_lm`` wraps the backend object handed to the search.  A hook point
that does not exist (renamed or removed by a later change) is recorded in
``Tracer.missing`` instead of failing.

Each span records its name, start, end and parent span.  Self time is a
span's duration minus the durations of its direct children, and minus the
tracer's own cost around each child call, which is measured once when the
tracer is made; so callers are not charged for the tracing of their callees.
Spans stay in memory until ``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import gzip
import itertools
import json
import time
from collections import Counter, defaultdict

# (owner path, attribute, span name)
MODULE_HOOKS = [
    ("gencp.constraints", "filter_domain", "constraints.filter_domain"),
    ("gencp.constraints", "can_extend", "constraints.can_extend"),
    ("gencp.constraints", "check_complete", "constraints.check_complete"),
    ("gencp.constraints", "word_valid", "constraints.word_valid"),
    ("gencp.constraints", "only_words", "constraints.only_words"),
    ("gencp.model.SolverModel", "save_state", "model.save_state"),
    ("gencp.model.SolverModel", "backtrack", "model.backtrack"),
    ("gencp.model.SolverModel", "backtrack_to", "model.backtrack_to"),
    ("gencp.model.SolverModel", "assigned_words", "model.assigned_words"),
    ("gencp.model.SolverModel", "contains_empty_variable", "model.contains_empty_variable"),
    ("gencp.model.SolverModel", "current_sentence", "model.current_sentence"),
    ("gencp.solver", "generate_variable", "solver.generate_variable"),
    ("gencp.solver", "is_solution", "solver.is_solution"),
    ("gencp.solver", "order_candidates", "solver.order_candidates"),
    ("gencp.solver", "predicts_period", "lm.predicts_period"),
    ("gencp.solver", "perplexity", "lm.perplexity"),
    ("gencp.beam", "expand_beams", "beam.expand_beams"),
    ("gencp.beam", "predicts_period", "lm.predicts_period"),
    ("gencp.beam", "perplexity", "lm.perplexity"),
    ("gencp.beam", "sequence_logprob", "lm.sequence_logprob"),
    ("gencp.harness", "predicts_period", "lm.predicts_period"),
]


def _resolve(path):
    """Import ``a.b.C`` as module ``a.b`` attribute ``C``; None when missing."""
    import importlib

    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name, None)
            if obj is None:
                return None
        return obj
    return None


class Tracer:
    def __init__(self):
        self.spans = []  # (span id, parent id, name, start, end)
        # keyed by (operation kind, operation label, span name or note key)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.notes = defaultdict(float)
        self.missing = []  # hook points that do not exist
        self.recording = True  # keep spans; False after the first traced pass
        self.op = ("", "")
        self._stack = []  # [span id, start, seconds covered by children]
        self._ids = itertools.count(1)
        self._undo = []
        self._seen_predicts = set()
        self._outside = 0.0
        self._outside = self._wrapper_cost()

    def _wrapper_cost(self, n=20_000):
        """Seconds per call that a wrapper spends outside the span it records."""
        probe = self.wrap("probe", lambda: None)
        started = time.perf_counter()
        for _ in range(n):
            probe()
        outside = (time.perf_counter() - started - self.self_s[self.op + ("probe",)]) / n
        self.calls.clear()
        self.self_s.clear()
        self.spans.clear()
        return outside

    def begin(self, kind, label):
        """Attribute the following spans to one operation, e.g. ("solve", "d80")."""
        self.op = (kind, label)
        self._seen_predicts = set()

    def wrap(self, name, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter
        ids = self._ids

        def traced(*args, **kwargs):
            frame = [next(ids), clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[2] += duration + self._outside
                key = self.op + (name,)
                self.calls[key] += 1
                self.self_s[key] += duration - frame[2]
                if self.recording:
                    self.spans.append((frame[0], parent[0] if parent else 0, name, frame[1], end))
            if observe is not None:
                try:
                    observe(args, kwargs, result)
                except Exception:  # the hooked signature changed; keep timing it
                    if name + ".observe" not in self.missing:
                        self.missing.append(name + ".observe")
            return result

        traced.__wrapped__ = fn
        return traced

    def note(self, key, value=1.0):
        self.notes[self.op + (key,)] += value

    def absent_spans(self):
        """Span names none of whose hook points exist."""
        present = {name for owner, attr, name in MODULE_HOOKS
                   if f"{owner}.{attr}" not in self.missing}
        return {name for _, _, name in MODULE_HOOKS} - present

    def install(self):
        """Wrap every hook point that exists; record the missing ones."""
        observers = {
            "constraints.filter_domain": self._observe_filter,
            "constraints.can_extend": self._observe_can_extend,
            "beam.expand_beams": self._observe_expand,
        }
        wrapped = {}
        for owner_path, attr, name in MODULE_HOOKS:
            owner = _resolve(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if fn is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            # one wrapper per function, so a by-value import shares its span
            if fn not in wrapped:
                wrapped[fn] = self.wrap(name, fn, observers.get(name))
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, wrapped[fn])

    def uninstall(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    def _observe_filter(self, args, kwargs, result):
        domain = args[1] if len(args) > 1 else kwargs["domain"]
        self.note("filter_domain.offered", len(domain.values))
        self.note("filter_domain.kept", len(result.values))

    def _observe_can_extend(self, args, kwargs, result):
        if not result:
            self.note("can_extend.rejected")

    def _observe_expand(self, args, kwargs, result):
        beams = args[0] if args else kwargs["beams"]
        k = args[3] if len(args) > 3 else kwargs["k"]
        self.note("expand_beams.slots", len(beams) * k)
        self.note("expand_beams.kept", len(result[0]))

    def observe_predict(self, args, kwargs, result):
        sentence, params = args[0], args[1]
        k = args[2] if len(args) > 2 else kwargs.get("k")
        key = (sentence, params.k if k is None else k, params)
        if key not in self._seen_predicts:
            self._seen_predicts.add(key)
            self.note("predict.distinct")

    def write_spans(self, path):
        """Write the spans as gzipped JSON lines: id, parent, name, start, end."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def traced_lm(tracer, backend):
    """A delegating backend whose predict and conditional_logprob are spans."""
    import gencp

    base = getattr(gencp, "LanguageModel", None)
    if base is None:
        tracer.missing.append("gencp.LanguageModel")
        base = object

    class TracedLM(base):
        def __init__(self):
            self.predict = tracer.wrap("lm.predict", backend.predict, tracer.observe_predict)
            self.conditional_logprob = tracer.wrap(
                "lm.conditional_logprob", backend.conditional_logprob
            )

        def __getattr__(self, name):
            return getattr(backend, name)

    return TracedLM()
