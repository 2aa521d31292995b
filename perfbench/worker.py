"""One workload in a fresh process: set-up, warm-up with checks, timed repetitions.

Started by ``run.py`` as ``python3 worker.py PLAN.json MODE SECONDS``, where
MODE is ``setup`` (import gencp and load the backends, print the seconds),
``time`` (end-to-end metrics) or ``trace`` (per-layer metrics).  gencp is
imported from the ``src`` directory that ``run.py`` puts on PYTHONPATH, and
only its public functions are called.  The last line of standard output is
one JSON object for ``run.py``.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
import urllib.request
from dataclasses import dataclass
from pathlib import Path

MIN_REPS = 3
TABLE_DEEP_BEAM_PASSES = 20
NGRAM_BEAM_PASSES = 1

DEMO60_REFERENCE = [
    "The following is an article by the author of the above book.",
    "The first time you see the movie version of your book on TV.",
    "The New York Times has an article on the new book by Tim Wu.",
    "The new year is here and we are ready to make the next step.",
]


class _Node:
    __slots__ = ("word", "kids")

    def __init__(self, word):
        self.word = word
        self.kids = []


def calibrate_search():
    """A fixed pure-Python loop with the search's mix of work.

    It grows a word stack, renders it, builds small dicts and snapshots, as
    the solver does per node.  Returns its wall seconds.
    """
    started = time.perf_counter()
    words = ["w%d" % i for i in range(60)]
    acc = 0
    for _ in range(130):
        stack = []
        for w in words:
            stack.append(_Node(w))
            acc += len(" ".join(n.word for n in stack))
            acc += sum({n.word: len(n.word) for n in stack[-8:]}.values())
            acc += any(c in "qxz" for c in w)
        acc += len(tuple(tuple(stack[:j]) for j in range(0, len(stack), 10)))
    if acc <= 0:
        raise AssertionError("calibration loop did no work")
    return time.perf_counter() - started


@dataclass(frozen=True)
class _Candidate:
    text: str
    logprob: float

    def __post_init__(self):
        if not self.text or any(ch.isspace() for ch in self.text) or self.logprob > 0.0:
            raise ValueError("bad candidate")


_VOCAB = ["v%05d" % i for i in range(10_000)]
_SEEN = {w: 1 + i % 3 for i, w in enumerate(_VOCAB[::200])}


def calibrate_backend():
    """A fixed copy of the smoothed n-gram backend's per-call work.

    A probability for every word of a 10k vocabulary, one validated
    candidate object per word, and a ranking sort: a working set of
    megabytes, which a busy neighbour slows more than the search loop.
    Returns its wall seconds.
    """
    started = time.perf_counter()
    denom = sum(_SEEN.values()) + 1.0 * len(_VOCAB)
    for _ in range(2):
        dist = {w: (_SEEN.get(w, 0) + 1.0) / denom for w in _VOCAB}
        cands = [_Candidate(w, math.log(p)) for w, p in dist.items()]
        sorted(cands, key=lambda c: (-c.logprob, c.text))
    return time.perf_counter() - started


# Each workload is calibrated by the loop that slows down with the host the
# way it does, and the reference is that loop's seconds on the reference host
# (2-vCPU shared VM, Python 3.11): calibrated = raw * reference / measured.
CALIBRATION = {
    "table-deep": (calibrate_search, 0.050),
    "ngram-zipf": (calibrate_backend, 0.065),
    "remote-latency": (calibrate_search, 0.050),
}


@dataclass
class Op:
    kind: str  # "solve", "beam" or "oracle": the end-to-end metric it counts towards
    label: str
    backend: str  # key into plan["backends"]
    task: object
    run: object  # (task, lm) -> output as JSON-able data
    pairs_with: str = ""  # label of the op whose solution set must be equal


def _records(records):
    return [[r.sentence, repr(r.ppl), list(r.words)] for r in records]


def solve_all(max_variables):
    def run(task, lm):
        import gencp
        return {"solutions": _records(gencp.solve_all(
            task, lm, gencp.SolveOptions(max_variables=max_variables)))}
    return run


def solve_capped(n, backtrack_to=None):
    def run(task, lm):
        import gencp
        opts = gencp.SolveOptions(max_solutions=n, backtrack_to=backtrack_to)
        return {"solutions": _records(gencp.run_search(task, lm, opts).solutions)}
    return run


def beam(k, max_words, passes=1):
    def run(task, lm):
        import gencp
        for _ in range(passes):
            solutions, bad = gencp.beam_search(task, lm, k=k, max_words=max_words)
        return {"solutions": _records(solutions), "bad": bad}
    return run


def oracle(depth_cap):
    def run(task, lm):
        import gencp
        return {"sentences": sorted(gencp.brute_force_oracle(task, lm, depth_cap=depth_cap))}
    return run


def build_ops(plan):
    import gencp

    tasks = {name: gencp.load_task_file(path) for name, path in plan["tasks"].items()}
    ops = []
    if plan["workload"] == "table-deep":
        for depth in plan["depths"]:
            d, task = f"d{depth}", tasks[f"d{depth}"]
            ops += [
                Op("solve", d, d, task, solve_all(depth + 8)),
                Op("beam", d, d, task, beam(3, depth + 8, TABLE_DEEP_BEAM_PASSES)),
                Op("oracle", d, d, task, oracle(depth + 1), pairs_with=d),
            ]
        demo = gencp.with_k(gencp.builtin_task("demo-60"), 10)
        ops.append(Op("solve", "demo-60", "demo", demo, solve_capped(4, backtrack_to=2)))
    elif plan["workload"] == "ngram-zipf":
        ops += [
            # The word-count and word-length tasks do the same work for every
            # seed (11 and 12 predicts for 6 solutions).  An exact character
            # count does not: the predicts its first solution needed varied
            # up to fourfold between seeds, too uneven for a fixed batch, so
            # character counts are measured on table-deep and demo-60 instead.
            Op("solve", "zipf-words", "ngram", tasks["zipf-words"], solve_capped(6)),
            Op("solve", "zipf-short", "ngram", tasks["zipf-short"], solve_capped(6)),
            Op("beam", "zipf-words", "ngram", tasks["zipf-words"], beam(3, 10, NGRAM_BEAM_PASSES)),
            Op("beam", "zipf-short", "ngram", tasks["zipf-short"], beam(3, 10, NGRAM_BEAM_PASSES)),
        ]
        tiny = tasks["zipf-oracle"]
        ops += [
            Op("solve", "zipf-oracle", "ngram", tiny, solve_all(4)),
            Op("oracle", "zipf-oracle", "ngram", tiny, oracle(2), pairs_with="zipf-oracle"),
        ]
    elif plan["workload"] == "remote-latency":
        task = tasks["remote-tree"]
        ops += [
            Op("solve", "tree", "remote", task, solve_all(8)),
            Op("beam", "tree-k3", "remote", task, beam(3, 8)),
            Op("beam", "tree-k9", "remote", task, beam(9, 8)),
            Op("oracle", "tree", "remote", task, oracle(8), pairs_with="tree"),
        ]
    else:
        raise ValueError(f"unknown workload {plan['workload']!r}")
    return ops


class Runner:
    """Runs the op list against backends loaded once (or fresh per op for remote)."""

    def __init__(self, plan):
        import gencp

        self.gencp = gencp
        self.plan = plan
        self.fresh = plan["workload"] == "remote-latency"
        self.calibrate, self.cal_ref = CALIBRATION[plan["workload"]]
        self.backends = {key: gencp.load_backend(spec) for key, spec in plan["backends"].items()}
        self.ops = build_ops(plan)
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def backend(self, op):
        if self.fresh:  # a new RemoteLM, so its private memo starts empty
            return self.gencp.load_backend(self.plan["backends"][op.backend])
        return self.backends[op.backend]

    def stub(self, path="/stats", method="GET"):
        base = self.plan["stub_url"].rsplit("/", 1)[0]
        req = urllib.request.Request(base + path, method=method, data=b"" if method == "POST" else None)
        with urllib.request.urlopen(req, timeout=30) as resp:
            return json.load(resp)

    def rep(self, wrap_lm=None, tracer=None, cals=None):
        """One pass over all ops.

        Returns outputs by op index; then, by (kind, label), the op's seconds,
        the seconds of them spent in the stub's injected latency, and the
        index in ``cals`` of the calibration sample taken just before it; and
        the POSTs.  With ``cals``, a calibration runs after every op.
        """
        outputs, seconds, waited, at, posts = {}, {}, {}, {}, 0
        for i, op in enumerate(self.ops):
            lm = self.backend(op)
            if wrap_lm is not None:
                lm = wrap_lm(lm)
            if self.fresh:
                before = self.stub()
            self.attempted += 1
            run = op.run
            if tracer is not None:
                tracer.begin(op.kind, op.label)
                run = tracer.wrap(SPAN_OF_KIND[op.kind], op.run)
            started = time.perf_counter()
            try:
                outputs[i] = run(op.task, lm)
            except Exception:
                self.fail(f"{op.kind} {op.label} raised:\n{traceback.format_exc()}")
                outputs[i] = None
            key = (op.kind, op.label)
            seconds[key] = time.perf_counter() - started
            waited[key] = 0.0
            if self.fresh:
                after = self.stub()
                posts += after["posts"] - before["posts"]
                waited[key] = after["waited_s"] - before["waited_s"]
            if cals is not None:
                at[key] = len(cals) - 1
                cals.append(self.calibrate())
        return outputs, seconds, waited, at, posts

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)

    def check(self, outputs):
        """The invariants every workload must keep; an op that breaks any is one failure."""
        g = self.gencp
        broken = {}  # op index -> first broken invariant
        index = {(op.kind, op.label): i for i, op in enumerate(self.ops)}
        for i, op in enumerate(self.ops):
            out = outputs[i]
            if out is None or op.kind == "oracle":
                continue
            lm = self._check_lm if self.fresh else self.backends[op.backend]
            for sentence, _ppl, words in out["solutions"]:
                if not g.check_complete(list(words), op.task):
                    broken.setdefault(i, f"{op.label}: {sentence!r} fails check_complete")
                content = [w for w in words if w != "."]
                if not g.predicts_period(lm, g.render_sentence(content), op.task.lm_params):
                    broken.setdefault(i, f"{op.label}: backend does not rank '.' after {sentence!r}")
            if op.kind == "solve" and not out["solutions"]:
                broken.setdefault(i, f"{op.label}: solver found no solution")
            expected = self.plan.get("expected_solutions", {}).get(op.label)
            if op.kind == "solve" and expected is not None and len(out["solutions"]) != expected:
                broken.setdefault(i, f"{op.label}: {len(out['solutions'])} solutions, "
                                     f"expected {expected}")
            if op.label == "demo-60" and [s for s, _, _ in out["solutions"]] != DEMO60_REFERENCE:
                broken.setdefault(i, "demo-60 no longer yields its reference sentences")
        for i, op in enumerate(self.ops):
            solved = outputs[index[("solve", op.pairs_with)]] if op.pairs_with else None
            if solved is None or outputs[i] is None:
                continue
            if sorted(s for s, _, _ in solved["solutions"]) != outputs[i]["sentences"]:
                broken.setdefault(i, f"{op.label}: exhaustive solve differs from the oracle")
        for message in broken.values():
            self.fail(message)

    def compare(self, outputs, reference, what):
        """Count each op whose outputs differ from the warm-up's as a failure."""
        for i, op in enumerate(self.ops):
            if outputs[i] is not None and outputs[i] != reference[i]:
                self.fail(f"{op.kind} {op.label}: {what} outputs differ from the warm-up's")

    def warm_up(self, counting_tracer):
        """First pass: untimed, checked, and counted at the backend boundary."""
        from tracer import traced_lm

        if self.fresh:
            self._check_lm = self.gencp.load_backend(self.plan["backends"]["remote"])
            outputs, _, _, _, posts = self.rep()
            self.check(outputs)
            return outputs, posts
        outputs, *_ = self.rep(wrap_lm=lambda lm: traced_lm(counting_tracer, lm))
        self.check(outputs)
        calls = sum(v for key, v in counting_tracer.calls.items()
                    if key[2] in ("lm.predict", "lm.conditional_logprob"))
        return outputs, calls


SPAN_OF_KIND = {"solve": "solver.run_search", "beam": "beam.beam_search", "oracle": "harness.oracle"}


def digest(ops, outputs):
    """SHA-256 over every op's outputs (sentences and perplexities, exact repr)."""
    doc = [[op.kind, op.label, outputs[i]] for i, op in enumerate(ops)]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def timed_reps(runner, seconds, reference, trace_every_other=False):
    """Repetitions, calibrated op by op, until ``seconds`` have passed.

    Returns the repetitions as (raw seconds, calibrated seconds, POSTs), the
    calibration samples, and the traced passes when tracing.
    """
    deadline = time.perf_counter() + seconds
    cals = [runner.calibrate()]
    reps = []
    traced = []
    while len(reps) < MIN_REPS or time.perf_counter() < deadline:
        outputs, secs, waited, at, posts = runner.rep(cals=cals)
        reps.append((secs, waited, at, posts))
        runner.compare(outputs, reference, "a repetition's")
        if trace_every_other:
            traced.append(trace_rep(runner, reference, keep_spans=not traced))
    return ([(secs, scale(secs, waited, at, cals, runner.cal_ref), posts)
             for secs, waited, at, posts in reps], cals, traced)


def scale(secs, waited, at, cals, reference):
    """Seconds scaled to the reference host.

    A single calibration sample is as noisy as the op it would correct, so
    each op is scaled by the median of the three samples before it and the
    three after it: that follows the host's drift over seconds and minutes
    but not its jitter.  Time spent in the stub's injected latency does not
    depend on the host and is left as it is.
    """
    return {key: (s - waited[key]) * reference
            / statistics.median(cals[max(0, at[key] - 2):at[key] + 4]) + waited[key]
            for key, s in secs.items()}


def trace_rep(runner, reference, keep_spans):
    from tracer import Tracer, traced_lm

    tracer = Tracer()
    tracer.recording = keep_spans
    tracer.install()
    try:
        if runner.fresh:
            runner.stub("/stats/reset", "POST")
        outputs, secs, *_ = runner.rep(wrap_lm=lambda lm: traced_lm(tracer, lm), tracer=tracer)
        wall = sum(secs.values())
    finally:
        tracer.uninstall()
    runner.compare(outputs, reference, "a traced repetition's")
    stub = runner.stub() if runner.fresh else None
    return tracer, secs, wall, stub


def median_batch(reps, kind, calibrated):
    """Sum over the kind's ops of each op's median seconds across repetitions."""
    table = [rep[1 if calibrated else 0] for rep in reps]
    return sum(statistics.median(t[key] for t in table) for key in table[0] if key[0] == kind)


def end_to_end(runner, reps, cals, backend_calls):
    metrics = {f"{kind}_s": (median_batch(reps, kind, True), "s")
               for kind in ("solve", "beam", "oracle")}
    print("reps: " + json.dumps({"cals": cals, "reps": [
        {f"{k}/{l}": v for (k, l), v in secs.items()} for secs, _, _ in reps]}), file=sys.stderr)
    print("raw median seconds: " + json.dumps({
        kind: median_batch(reps, kind, False) for kind in ("solve", "beam", "oracle")
    } | {"calibration": statistics.median(cals)}), file=sys.stderr)
    metrics["backend_calls"] = (backend_calls, "count")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def per_layer(runner, reps, cals, traced):
    n = len(traced)
    merged_calls, merged_self, merged_notes = {}, {}, {}
    for tracer, *_ in traced:
        for src, dst in ((tracer.calls, merged_calls), (tracer.self_s, merged_self),
                         (tracer.notes, merged_notes)):
            for key, value in src.items():
                dst[key] = dst.get(key, 0.0) + value / n
    missing = set(traced[0][0].missing)
    absent = traced[0][0].absent_spans()

    def total(table, name, kind=None, label=None):
        return sum(v for (kd, lb, nm), v in table.items()
                   if nm == name and (kind is None or kd == kind) and (label is None or lb == label))

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("lm.predict", "lm.conditional_logprob", "lm.perplexity", "lm.predicts_period"):
        m[f"{name}.calls"] = (total(merged_calls, name), "count")
        m[f"{name}.self_s"] = (total(merged_self, name), "s")
    calls = total(merged_calls, "lm.predict")
    m["lm.predict.repeat_frac"] = (1.0 - ratio(total(merged_notes, "predict.distinct"), calls), "ratio")
    m["lm.predict.mean_ms"] = (1000.0 * ratio(total(merged_self, "lm.predict"), calls), "ms")

    stubs = [stub for *_, stub in traced if stub is not None]
    for key in ("posts", "distinct_prompts", "busy_s"):
        value = statistics.fmean(s[key] for s in stubs) if stubs else 0.0
        m[f"stub.{key}"] = (value, "s" if key == "busy_s" else "count")
    m["lm.remote.overhead_s"] = (
        total(merged_self, "lm.predict") - m["stub.busy_s"][0] if stubs else -1.0, "s")

    for name in ("filter_domain", "can_extend", "check_complete", "word_valid", "only_words"):
        m[f"constraints.{name}.calls"] = (total(merged_calls, f"constraints.{name}"), "count")
        m[f"constraints.{name}.self_s"] = (total(merged_self, f"constraints.{name}"), "s")
    m["constraints.filter_domain.kept_frac"] = (ratio(
        total(merged_notes, "filter_domain.kept"), total(merged_notes, "filter_domain.offered")), "ratio")
    m["constraints.can_extend.reject_frac"] = (ratio(
        total(merged_notes, "can_extend.rejected"), total(merged_calls, "constraints.can_extend")), "ratio")

    for name in ("save_state", "backtrack", "assigned_words", "contains_empty_variable"):
        m[f"model.{name}.calls"] = (total(merged_calls, f"model.{name}"), "count")
        m[f"model.{name}.self_s"] = (total(merged_self, f"model.{name}"), "s")

    m["solver.nodes"] = (total(merged_calls, "solver.generate_variable"), "count")
    for name in ("is_solution", "order_candidates"):
        m[f"solver.{name}.calls"] = (total(merged_calls, f"solver.{name}"), "count")
        m[f"solver.{name}.self_s"] = (total(merged_self, f"solver.{name}"), "s")
    m["solver.run_search.self_s"] = (total(merged_self, "solver.run_search"), "s")
    for depth in (20, 40, 80):
        label = f"d{depth}"
        nodes = total(merged_calls, "solver.generate_variable", "solve", label)
        untraced = [scaled.get(("solve", label)) for _, scaled, _ in reps]
        value = -1.0
        if nodes and None not in untraced:
            value = 1e6 * statistics.median(untraced) / nodes
        m[f"solver.node_us.{label}"] = (value, "us")

    m["beam.expand_beams.calls"] = (total(merged_calls, "beam.expand_beams"), "count")
    m["beam.expand_beams.self_s"] = (total(merged_self, "beam.expand_beams"), "s")
    m["beam.kept_frac"] = (ratio(total(merged_notes, "expand_beams.kept"),
                                 total(merged_notes, "expand_beams.slots")), "ratio")
    m["harness.oracle.nodes"] = (total(merged_calls, "constraints.check_complete", "oracle"), "count")
    m["harness.oracle.self_s"] = (total(merged_self, "harness.oracle"), "s")

    solve_self = {nm: v for (kd, _, nm), v in merged_self.items() if kd == "solve"}
    whole = sum(solve_self.values())
    for layer in ("lm", "constraints", "model", "solver"):
        part = sum(v for nm, v in solve_self.items() if nm.split(".")[0] == layer)
        m[f"solve.share.{layer}"] = (ratio(part, whole), "ratio")

    m["host.cal_s"] = (statistics.median(cals), "s")
    untraced_wall = statistics.median(sum(secs.values()) for secs, *_ in reps)
    traced_wall = statistics.median(wall for _, _, wall, _ in traced)
    m["trace.overhead_frac"] = (traced_wall / untraced_wall - 1.0, "ratio")

    for hook in sorted(missing):
        print(f"hook absent: {hook}", file=sys.stderr)
    derived = {"solver.nodes": "solver.generate_variable",
               "solver.node_us": "solver.generate_variable",
               "beam.kept_frac": "beam.expand_beams",
               "harness.oracle.nodes": "constraints.check_complete"}
    for name in m:
        span = next((s for prefix, s in derived.items() if name.startswith(prefix)), name)
        if any(span.startswith(a + ".") or span == a for a in absent):
            m[name] = (-1.0, m[name][1])
    return m, traced[0][0]


def main(argv):
    plan_path, mode, seconds = argv[1], argv[2], float(argv[3])
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    started = time.perf_counter()
    runner = Runner(plan)  # imports gencp and loads every backend
    setup_s = (time.perf_counter() - started) * runner.cal_ref / (
        (runner.calibrate() + runner.calibrate()) / 2)
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    from tracer import Tracer

    counting = Tracer()
    counting.recording = False  # counts only: spans would inflate peak memory
    reference, backend_calls = runner.warm_up(counting)
    reps, cals, traced = timed_reps(runner, seconds, reference, trace_every_other=mode == "trace")
    if runner.fresh:
        counts = {posts for _, _, posts in reps} | {backend_calls}
        if len(counts) != 1:
            runner.fail(f"POSTs per batch changed between repetitions: {sorted(counts)}")
    if mode == "trace":
        metrics, first = per_layer(runner, reps, cals, traced)
        first.write_spans(Path(plan["out_dir"]) / f"spans-{plan['workload']}.jsonl.gz")
    else:
        metrics = end_to_end(runner, reps, cals, backend_calls)
    print(json.dumps({
        "setup_s": setup_s,
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors[:20],
        "digest": digest(runner.ops, reference),
        "reps": len(reps),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
