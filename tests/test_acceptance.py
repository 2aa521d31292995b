"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time


from gencp import (
    CharCountExact,
    ForbiddenChars,
    LMParams,
    NGramLM,
    RemoteLM,
    ReportRow,
    SolveOptions,
    TableLM,
    TaskSpec,
    WordCountRange,
    beam_search,
    brute_force_oracle,
    builtin_task,
    check_complete,
    dumps_report,
    loads_report,
    perplexity,
    run_search,
    solve,
    solve_all,
    variability,
    with_k,
)
from gencp.cli import main

from conftest import random_table

# depth/branching profiles keeping each builtin task's solutions reachable
# while the 50x6 grid stays inside the runtime budget
PROFILES = {
    "sent-1": dict(depth=22, branching=3, chain_after=3, period_prob=0.5),
    "sent-2": dict(depth=12, branching=3, chain_after=3, period_prob=0.5),
    "sent-3": dict(depth=24, branching=3, chain_after=3, period_prob=0.5),
    "sent-4": dict(depth=6, branching=3, chain_after=None, period_prob=0.5),
    "sent-4*": dict(depth=8, branching=3, chain_after=3, period_prob=0.5),
    "demo-60": dict(depth=14, branching=3, chain_after=3, period_prob=0.5),
}


def test_criterion_1_every_output_satisfies_all_constraints():
    started = time.perf_counter()
    params = LMParams(k=3)
    total_solutions = 0
    for name, profile in PROFILES.items():
        task = builtin_task(name, lm_params=params)
        for i in range(50):
            rng = random.Random(hash((name, i)) & 0xFFFFFFFF)
            lm = random_table(rng, seed_words=task.seed, **profile)
            records = solve(
                task, lm, SolveOptions(max_solutions=5, max_variables=profile["depth"] + 2)
            )
            for record in records:
                assert check_complete(list(record.words), task), (
                    f"{name} instance {i} emitted a violating sentence: {record.sentence!r}"
                )
            total_solutions += len(records)
    elapsed = time.perf_counter() - started
    assert total_solutions > 0, "grid produced no solutions at all; instances too shallow"
    assert elapsed < 10.0, f"satisfaction grid took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 satisfaction-invariant: PASS "
          f"({total_solutions} outputs, 0 violations, {elapsed:.1f}s)")


def test_criterion_2_exhaustive_search_equals_oracle():
    started = time.perf_counter()
    params = LMParams(k=4)
    tasks = [
        TaskSpec(name="window", constraints=(WordCountRange(2, 4),), lm_params=params),
        TaskSpec(name="no-e", constraints=(ForbiddenChars("e"), WordCountRange(1, 5)),
                 lm_params=params),
        TaskSpec(name="chars-18", constraints=(CharCountExact(18),), lm_params=params),
    ]
    checked = 0
    nonempty = 0
    for i in range(25):
        rng = random.Random(5000 + i)
        lm = random_table(rng, depth=6, branching=4, period_prob=0.6)
        task = tasks[i % len(tasks)]
        oracle = brute_force_oracle(task, lm, depth_cap=6).keys()
        searched = {s.sentence for s in solve_all(task, lm, SolveOptions(max_variables=6))}
        assert searched == oracle, f"instance {i} ({task.name}): {searched ^ oracle}"
        checked += 1
        nonempty += bool(oracle)
    elapsed = time.perf_counter() - started
    assert nonempty > 0
    assert elapsed < 30.0, f"oracle-equivalence grid took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 2 oracle-equivalence: PASS "
          f"({checked} instances, {nonempty} non-empty, {elapsed:.1f}s)")


def test_criterion_3_more_candidates_never_lose_solutions():
    ks = (2, 3, 5, 8)
    task = TaskSpec(name="window", constraints=(WordCountRange(1, 4),), lm_params=LMParams(k=2))
    grids = 0
    for i in range(10):
        rng = random.Random(9000 + i)
        lm = random_table(rng, depth=5, branching=6, period_prob=0.5)
        by_k = {
            k: {s.sentence for s in solve_all(with_k(task, k), lm, SolveOptions(max_variables=5))}
            for k in ks
        }
        for small, large in [(a, b) for a in ks for b in ks if a < b]:
            assert by_k[small] <= by_k[large], (
                f"instance {i}: k={small} found {by_k[small] - by_k[large]} missing at k={large}"
            )
        grids += 1
    print(f"\nACCEPTANCE 3 k-monotonicity: PASS ({grids} instances x k in {ks})")


def test_criterion_4_beam_misses_what_backtracking_finds(fixtures_dir):
    lm = TableLM.from_file(fixtures_dir / "bs_miss.tbl")
    task = TaskSpec(name="two-words", constraints=(WordCountRange(2, 2),),
                    lm_params=LMParams(k=2), require_period=True)
    oracle = brute_force_oracle(task, lm, depth_cap=4)
    assert len(oracle) >= 1
    beam_solutions, bad = beam_search(task, lm, k=2)
    assert beam_solutions == []
    assert len(bad) >= 1
    searched = solve(task, lm, SolveOptions(max_variables=4))
    assert {s.sentence for s in searched} == oracle.keys()
    print(f"\nACCEPTANCE 4 beam-miss fixture: PASS "
          f"(oracle={sorted(oracle)}, beam k=2 found 0 with {len(bad)} bad outputs)")


def test_criterion_5_uniform_model_perplexity_equals_vocabulary_size():
    letters = "abcdefghij"
    for v in (2, 10, 100):
        vocab = sorted({letters[i // 10] + letters[i % 10] + "x" for i in range(v)})
        assert len(vocab) == v
        counts = [{(): {w: 1 for w in vocab}}, {}]
        lm = NGramLM(order=1, smoothing=1.0, counts=counts, vocabulary=vocab)
        params = LMParams(k=min(v, 10))
        for n in (1, 5, 20):
            words = [vocab[i % v] for i in range(n)]
            got = perplexity(lm, words, params)
            assert abs(got - v) < 1e-9, f"V={v} n={n}: PPL={got!r}"
    print("\nACCEPTANCE 5 uniform perplexity: PASS (V in {2,10,100}, n in {1,5,20}, tol 1e-9)")


def test_criterion_6_variability_examples_and_forced_divergence():
    assert variability("The little boy is".split(), "The little cat is".split()) == 1
    assert variability("My name is John".split(), "John is my name".split()) == 4
    lm = TableLM({
        "": [("We", 1.0)],
        "We": [("like", 0.4), ("hate", 0.3), ("love", 0.2)],
        "We like": [("tea", 0.9)],
        "We hate": [("war", 0.9)],
        "We love": [("sun", 0.9)],
        "We like tea": [(".", 1.0)],
        "We hate war": [(".", 1.0)],
        "We love sun": [(".", 1.0)],
    })
    task = TaskSpec(name="three", constraints=(WordCountRange(3, 3),),
                    lm_params=LMParams(k=3), require_period=True)
    records = solve(task, lm, SolveOptions(backtrack_to=2, max_variables=5))
    assert len(records) == 3
    for earlier, later in zip(records, records[1:]):
        assert earlier.words[0] == later.words[0]
        assert earlier.words[1] != later.words[1]
    print("\nACCEPTANCE 6 variability: PASS (reference pairs 1 and 4; "
          f"{len(records)} jump-back solutions diverge at position 2)")


def test_criterion_7_demo_task_reproduction(fixtures_dir, capsys):
    code = main([
        "solve", "--task", "demo-60", "--lm", f"table:{fixtures_dir / 'demo60.tbl'}",
        "--k", "10", "--max-solutions", "4", "--backtrack-to", "2",
    ])
    assert code == 0
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert len(lines) == 4
    sentences = [line.split("\t")[0] for line in lines]
    for sentence in sentences:
        assert sentence.startswith("The")
        assert len(sentence) == 60
        assert sentence.endswith(".")
        words = sentence[:-1].split(" ")
        assert 10 <= len(words) <= 15
    assert len(set(sentences)) == 4
    with capsys.disabled():
        print("\nACCEPTANCE 7 demo-60 reproduction: PASS (4 sentences, 60 chars, 10-15 words)")


def test_criterion_8_reference_sentences_check_out():
    task = builtin_task("demo-60")
    for sentence, n_words in [
        ("The following is an article by the author of the above book.", 12),
        ("The first time you see the movie version of your book on TV.", 13),
    ]:
        assert len(sentence) == 60
        words = sentence[:-1].split(" ")
        assert len(words) == n_words
        assert check_complete(words + ["."], task) is True
    print("\nACCEPTANCE 8 reference sentences: PASS (both 60 chars, 12/13 words)")


def test_criterion_9_report_roundtrip_and_header():
    header = "method,task,k,seconds,n_solutions,sat_pct,n_bad_outputs,n_backtracks,mean_ppl,max_variability"
    rng = random.Random(2024)
    methods = ["gencp", "bs-first", "bs-all", "oracle"]
    for trial in range(100):
        rows = [
            ReportRow(
                method=rng.choice(methods),
                task=rng.choice(["sent-1", "sent-4*", "demo-60", "custom-task"]),
                k=rng.randrange(1, 60),
                seconds=rng.random() * 3000,
                n_solutions=rng.randrange(0, 900),
                sat_pct=None if rng.random() < 0.25 else rng.random() * 100,
                n_bad_outputs=None if rng.random() < 0.5 else rng.randrange(0, 120),
                n_backtracks=None if rng.random() < 0.5 else rng.randrange(0, 700),
                mean_ppl=None if rng.random() < 0.25 else rng.random() * 600,
                max_variability=None if rng.random() < 0.5 else rng.randrange(0, 15),
            )
            for _ in range(rng.randrange(1, 9))
        ]
        csv_text = dumps_report(rows, "csv")
        assert csv_text.splitlines()[0] == header
        assert csv_text.encode("utf-8").startswith(header.encode("utf-8"))
        assert loads_report(csv_text, "csv") == rows
        assert loads_report(dumps_report(rows, "json"), "json") == rows
    print("\nACCEPTANCE 9 report round-trip: PASS (100 random row sets, header byte-exact)")


def test_criterion_10_remote_backend_end_to_end(stub_server):
    server = stub_server({
        "": [("My", 0.6), ("We", 0.4)],
        "My": [("dog", 0.9), ("cat", 0.1)],
        "We": [("run", 0.9), ("eat", 0.1)],
        "My cat": [(".", 1.0)],
    })
    lm = RemoteLM(server.url)
    task = TaskSpec(name="two-words", constraints=(WordCountRange(2, 2),),
                    lm_params=LMParams(k=2), require_period=True)
    outcome = run_search(task, lm, SolveOptions(max_variables=4))
    lm.close()
    assert [s.sentence for s in outcome.solutions] == ["My cat."]
    posts = sum(server.counts.values())
    distinct = len(server.counts)
    assert posts == distinct, f"{posts} POSTs for {distinct} distinct prompts"
    assert max(server.counts.values()) == 1
    print(f"\nACCEPTANCE 10 remote backend: PASS "
          f"({posts} POSTs for {distinct} distinct prompts, solution found)")
