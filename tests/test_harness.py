import ast
import inspect
import json
import logging
import random
import re
import textwrap
import time

import pytest

from gencp import (
    ForbiddenChars,
    LMParams,
    MaxWordLen,
    OracleLimitError,
    ReportRow,
    RunConfig,
    SolveOptions,
    TableLM,
    TaskSpec,
    WordCountRange,
    beam_search,
    brute_force_oracle,
    dumps_report,
    emit_report,
    loads_report,
    parse_report,
    run_benchmark,
    solve_all,
)
from gencp.constraints import Constraint
from gencp.harness import REPORT_FIELDS

from conftest import FIG_TABLE, PromptLog, long_chain, random_table


def _task(*constraints, k=3):
    return TaskSpec(
        name="t", constraints=tuple(constraints), seed=(),
        lm_params=LMParams(k=k), require_period=True,
    )


class TestBruteForceOracle:
    def test_walkthrough_table(self, fig_task):
        lm = TableLM(FIG_TABLE)
        got = brute_force_oracle(fig_task, lm, depth_cap=8)
        assert got == {"A man drinks milk.": ("A", "man", "drinks", "milk", ".")}

    def test_unsatisfiable_is_empty(self):
        lm = TableLM({"": [("see", 1.0)]})
        task = _task(ForbiddenChars("e"))
        assert brute_force_oracle(task, lm, depth_cap=4).keys() == set()

    def test_matches_exhaustive_search_on_random_tables(self):
        rng = random.Random(20240902)
        task = _task(WordCountRange(1, 4))
        for _ in range(5):
            lm = random_table(rng, depth=5, branching=4, period_prob=0.5)
            oracle = brute_force_oracle(task, lm, depth_cap=5)
            searched = {s.sentence: s.words for s in solve_all(task, lm, SolveOptions(max_variables=5))}
            assert oracle == searched

    def test_matches_exhaustive_search_at_the_word_tests_boundaries(self):
        """The oracle tests words by the clauses, the window by their data; both agree at either boundary.

        One table needs a word exactly as long as the limit.  The other ranks
        words with the forbidden letter at their start or their end above the
        one word free of it, which at k = 1 is the only child.
        """
        cases = [
            (_task(MaxWordLen(6), k=1), {"": [("planet", 0.5)], "planet": [(".", 0.5)]}, {"planet."}),
            (_task(ForbiddenChars("e"), k=1),
             {"": [("egg", 0.4), ("she", 0.3), ("tram", 0.2)], "tram": [(".", 0.5)],
              "egg": [(".", 0.5)], "she": [(".", 0.5)]}, {"tram."}),
        ]
        for task, table, expected in cases:
            lm = TableLM(table)
            oracle = brute_force_oracle(task, lm, depth_cap=3)
            searched = {s.sentence: s.words for s in solve_all(task, lm, SolveOptions(max_variables=3))}
            assert oracle == searched
            assert oracle.keys() == expected

    def test_tests_words_only_up_to_the_kth_valid_one(self):
        """The oracle tests a prefix's words in rank order and stops at the k-th that passes.

        The root offers eight candidates at k = 2: fragments, which no clause
        is asked about, words with a "z", which fail the clause, and two
        valid words ranked past the second.
        """
        class NoZ(Constraint):
            """A test-only ``per_word`` clause, no "z" in any word, that logs the words it tests alone."""

            per_word = True

            def __init__(self):
                self.tested = []

            def holds(self, words, content):
                if "." not in words:  # a word test; ``check_complete`` passes the sentence with its period
                    self.tested += content
                return not any("z" in w for w in content)

        lm = TableLM({
            "": [("3rd", 0.3), ("zap", 0.2), ("sun", 0.15), ("-", 0.1), ("fizz", 0.08), ("moon", 0.07),
                 ("sky", 0.05), ("buzz", 0.02)],
            "sun": [(".", 0.9)], "moon": [(".", 0.9)], "sky": [(".", 0.9)], "zap": [(".", 0.9)],
        })
        clause = NoZ()
        found = brute_force_oracle(_task(clause, k=2), lm, depth_cap=3)
        assert clause.tested == ["zap", "sun", "fizz", "moon"]
        assert found == brute_force_oracle(_task(ForbiddenChars("z"), k=2), lm, depth_cap=3) == {
            "sun.": ("sun", "."), "moon.": ("moon", ".")}

    def test_refuses_past_node_limit(self):
        rng = random.Random(1)
        lm = random_table(rng, depth=5, branching=4, period_prob=0.0)
        task = _task(WordCountRange(1, 5))
        with pytest.raises(OracleLimitError):
            brute_force_oracle(task, lm, depth_cap=5, node_limit=10)

    def test_refuses_past_time_budget(self, fig_task):
        class SlowTableLM(TableLM):
            def predict(self, sentence, params):
                time.sleep(0.02)
                return super().predict(sentence, params)

        with pytest.raises(OracleLimitError, match="time budget"):
            brute_force_oracle(fig_task, SlowTableLM(FIG_TABLE), depth_cap=8, time_budget=0.01)

    def test_walks_a_sentence_longer_than_the_recursion_limit(self):
        words, table = long_chain(1200)
        task = TaskSpec(name="chain", constraints=(WordCountRange(1200, 1200),), lm_params=LMParams(k=1))
        found = brute_force_oracle(task, TableLM(table), depth_cap=1300)
        assert found == {" ".join(words) + ".": (*words, ".")}

    def test_shares_no_machinery_with_the_searches(self):
        """The oracle is the independent check: it reads no summary, window, solver state or pruning datum."""
        tree = ast.parse(textwrap.dedent(inspect.getsource(brute_force_oracle)))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert names & {"PrefixSummary", "summarize", "_Rules", "window", "generate_variable",
                        "order_candidates", "run_search", "completes", "can_extend", "admits"} == set()
        assert names & {"word_len_cap", "forbidden", "word_cap", "char_cap", "pins", "word_floor",
                        "char_floor", "required_words", "separations"} == set()
        assert {"only_words", "word_valid", "check_complete"} <= names

    def test_respects_seed(self):
        lm = TableLM({
            "": [("A", 1.0)],
            "The": [("end", 1.0)],
            "The end": [(".", 1.0)],
        })
        task = TaskSpec(name="seeded", constraints=(WordCountRange(2, 2),),
                        seed=("The",), lm_params=LMParams(k=2))
        assert brute_force_oracle(task, lm, depth_cap=3).keys() == {"The end."}


def test_the_three_word_caps_are_one_bound():
    """``max_variables``, ``max_words`` and ``depth_cap`` at m each bound a search to m content words.

    On tables deeper than m that offer "." first after every word, none of
    the three searches asks about a prompt of more than m words or emits a
    longer sentence; each emits m-word sentences when the task's floor is m
    and none when it is m + 1; and each refuses a cap no longer than its seed.
    """
    searches = {
        "solver": lambda task, lm, m: [r.words for r in solve_all(task, lm, SolveOptions(max_variables=m))],
        "beam": lambda task, lm, m: [r.words for r in beam_search(task, lm, max_words=m)[0]],
        "oracle": lambda task, lm, m: list(brute_force_oracle(task, lm, depth_cap=m).values()),
    }
    for m in (1, 2, 3, 4):
        for period in (True, False):
            lm = random_table(random.Random(m), depth=m + 2, branching=2, period_prob=1.0)
            for floor in (m, m + 1):
                task = TaskSpec(name="cap", constraints=(WordCountRange(floor),), lm_params=LMParams(k=2),
                                require_period=period)
                for name, search in searches.items():
                    log = PromptLog(lm)
                    lengths = {len([w for w in words if w != "."]) for words in search(task, log, m)}
                    assert lengths == ({m} if floor == m else set()), (name, m, period, floor)
                    assert max(len(p.split()) for p in log.prompts) <= m, (name, m, period, floor)
            seeded = TaskSpec(name="cap", constraints=(WordCountRange(1),), seed=("a",) * m, require_period=period)
            for name, search in searches.items():
                with pytest.raises(ValueError, match="must exceed the seed length"):
                    search(seeded, lm, m)


class TestRunBenchmark:
    def _config(self, fixtures_dir, **kwargs):
        defaults = dict(
            tasks=(str(fixtures_dir / "two_words.json"),),
            lm_spec=f"table:{fixtures_dir / 'bs_miss.tbl'}",
            k_values=(2,),
            methods=("gencp", "bs-all"),
            options=SolveOptions(max_variables=6),
        )
        defaults.update(kwargs)
        return RunConfig(**defaults)

    def test_produces_one_row_per_cell(self, fixtures_dir):
        rows = run_benchmark(self._config(fixtures_dir))
        assert len(rows) == 2
        by_method = {r.method: r for r in rows}
        assert by_method["gencp"].sat_pct == 100.0
        assert by_method["gencp"].n_solutions == 1
        assert by_method["gencp"].n_bad_outputs is None
        assert by_method["bs-all"].n_solutions == 0
        assert by_method["bs-all"].n_bad_outputs == 2
        assert by_method["bs-all"].sat_pct == 0.0

    def test_zero_one_pairing(self, fixtures_dir):
        # beam search misses; the paired search is capped at one solution
        rows = run_benchmark(self._config(fixtures_dir, pair_gencp_to_bs=True))
        by_method = {r.method: r for r in rows}
        assert by_method["bs-all"].n_solutions == 0
        assert by_method["gencp"].n_solutions == 1

    def test_oracle_method_row(self, fixtures_dir):
        rows = run_benchmark(self._config(fixtures_dir, methods=("oracle", "gencp")))
        by_method = {r.method: r for r in rows}
        assert by_method["oracle"].n_solutions == 1
        assert by_method["oracle"].sat_pct == 100.0
        # the oracle's rescoring of its words, the final "." among them, equals the search's score
        assert by_method["oracle"].mean_ppl == by_method["gencp"].mean_ppl

    def test_oracle_row_scores_the_words_the_oracle_found(self, tmp_path):
        # Without a final period "U.S." ends the sentence; splitting the
        # rendering would score "a U.S ." instead, at perplexity 16 ** (1 / 3).
        table = tmp_path / "us.tbl"
        table.write_text("\ta\t0.5\na\tU.S.\t0.5\na\tU.S\t0.25\na U.S\t.\t0.5\n", encoding="utf-8")
        task = TaskSpec("np", (WordCountRange(2, 2),), seed=("a", "U.S."), require_period=False)
        config = RunConfig(tasks=(task,), lm_spec=f"table:{table}", k_values=(1,),
                           methods=("gencp", "oracle"), options=SolveOptions(max_variables=4))
        by_method = {r.method: r for r in run_benchmark(config)}
        assert by_method["gencp"].mean_ppl == 2.0
        assert by_method["oracle"].mean_ppl == by_method["gencp"].mean_ppl
        assert by_method["oracle"].n_solutions == 1

    def test_oracle_method_honours_time_budget(self, fixtures_dir, stub_server):
        server = stub_server({"": [("My", 0.6), ("We", 0.4)], "My": [("cat", 0.5)],
                              "My cat": [(".", 1.0)]}, delay=0.05)
        config = self._config(fixtures_dir, methods=("oracle",), lm_spec=f"remote:{server.url}",
                              options=SolveOptions(max_variables=6, time_budget=0.01))
        row = run_benchmark(config)[0]
        assert (row.method, row.n_solutions, row.sat_pct) == ("oracle", 0, None)

    def test_a_failed_cell_is_logged_by_gencp_harness(self, fixtures_dir, stub_server, caplog):
        server = stub_server({"": [("My", 0.6)], "My": [("cat", 0.5)]}, delay=0.05)
        config = self._config(fixtures_dir, methods=("oracle",), lm_spec=f"remote:{server.url}",
                              options=SolveOptions(max_variables=6, time_budget=0.01))
        with caplog.at_level(logging.WARNING, logger="gencp.harness"):
            run_benchmark(config)
        [record] = [r for r in caplog.records if r.name == "gencp.harness"]
        assert record.levelno == logging.WARNING
        assert record.getMessage().startswith("oracle on two_words (k=2) failed after ")

    def test_rows_are_sorted_and_deterministic(self, fixtures_dir):
        config = self._config(fixtures_dir, k_values=(2, 3), methods=("bs-all", "gencp"))
        rows_a = run_benchmark(config)
        rows_b = run_benchmark(config)
        keys = [(r.task, r.method, r.k) for r in rows_a]
        assert keys == sorted(keys)
        strip = lambda rows: [
            (r.method, r.task, r.k, r.n_solutions, r.sat_pct, r.n_bad_outputs,
             r.n_backtracks, r.mean_ppl, r.max_variability)
            for r in rows
        ]
        assert strip(rows_a) == strip(rows_b)

    def test_builtin_task_by_name(self, fixtures_dir):
        config = RunConfig(
            tasks=("demo-60",),
            lm_spec=f"table:{fixtures_dir / 'demo60.tbl'}",
            k_values=(10,),
            methods=("gencp",),
            options=SolveOptions(max_solutions=4, backtrack_to=2),
        )
        rows = run_benchmark(config)
        assert rows[0].n_solutions == 4
        assert rows[0].max_variability >= 1

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            RunConfig(tasks=(), lm_spec="table:x", k_values=(1,), methods=("gencp",))
        with pytest.raises(ValueError):
            RunConfig(tasks=("demo-60",), lm_spec="table:x", k_values=(1,), methods=("magic",))

    def test_row_counts_match_direct_solve(self, fixtures_dir):
        from gencp import TableLM, load_task_file, solve, with_k

        rows = run_benchmark(self._config(fixtures_dir, methods=("gencp",)))
        task = with_k(load_task_file(fixtures_dir / "two_words.json"), 2)
        lm = TableLM.from_file(fixtures_dir / "bs_miss.tbl")
        direct = solve(task, lm, SolveOptions(max_variables=6))
        assert rows[0].n_solutions == len(direct)


SAMPLE_ROWS = [
    ReportRow("gencp", "demo-60", 10, 0.125, 4, 100.0, None, 4, 1.3345, 3),
    ReportRow("bs-all", "demo-60", 10, 0.5, 0, 0.0, 7, None, None, None),
    ReportRow("oracle", "two-words", 2, 0.001, 1, 100.0, None, None, 4.25, None),
]


class TestReportIO:
    def test_csv_header_is_exact(self):
        text = dumps_report(SAMPLE_ROWS, "csv")
        assert text.splitlines()[0] == "method,task,k,seconds,n_solutions,sat_pct,n_bad_outputs,n_backtracks,mean_ppl,max_variability"
        assert "\r" not in text

    def test_csv_roundtrip(self):
        text = dumps_report(SAMPLE_ROWS, "csv")
        assert loads_report(text, "csv") == SAMPLE_ROWS

    def test_json_roundtrip(self):
        text = dumps_report(SAMPLE_ROWS, "json")
        assert loads_report(text, "json") == SAMPLE_ROWS

    def test_none_becomes_empty_csv_field_and_json_null(self):
        text = dumps_report([SAMPLE_ROWS[1]], "csv")
        line = text.splitlines()[1]
        assert line.endswith(",0.0,7,,,")
        jtext = dumps_report([SAMPLE_ROWS[1]], "json")
        assert '"n_backtracks": null' in jtext

    def test_file_roundtrip(self, tmp_path):
        for fmt in ("csv", "json"):
            path = tmp_path / f"report.{fmt}"
            emit_report(SAMPLE_ROWS, fmt, path)
            assert parse_report(path, fmt) == SAMPLE_ROWS

    def test_lf_line_endings_on_disk(self, tmp_path):
        path = tmp_path / "report.csv"
        emit_report(SAMPLE_ROWS, "csv", path)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.startswith(b"method,task,k,seconds,")

    def test_stdout_when_no_path(self, capsys):
        emit_report(SAMPLE_ROWS[:1], "csv", None)
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("method,task,")

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            dumps_report([], "csv")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            loads_report("method,task\n", "csv")

    def test_malformed_rows_raise_one_line_value_errors_naming_the_row(self):
        csv_text = dumps_report(SAMPLE_ROWS[:1], "csv")
        cases = [
            ("[1]", "json", "report row 1 is not an object"),
            ("{}", "json", "a JSON report holds a list of rows"),
            ("[" * 100_000 + "]" * 100_000, "json", "nested too deeply"),
            ('[{"method": "gencp"}]', "json", "report row 1 is not an object with the keys method, task,"),
            (csv_text + "gencp,demo-60,10\n", "csv", "report row 2 has 3 fields, not 10"),
            (csv_text + "gencp,demo-60,10,0.5,4,,,,,,9\n", "csv", "report row 2 has 11 fields, not 10"),
            (csv_text + "gencp,demo-60,ten,0.5,4,,,,,\n", "csv", "report row 2: invalid literal"),
        ]
        row = json.loads(dumps_report(SAMPLE_ROWS[:1], "json"))[0]
        for field, value, kind in [("k", 1.5, "an integer"), ("n_solutions", 2.9, "an integer"),
                                   ("k", True, "an integer"), ("seconds", "0.5", "a number"),
                                   ("method", 5, "a string"), ("k", None, "an integer"),
                                   ("n_backtracks", "", "an integer")]:  # a JSON cell must have its field's type
            cases.append((json.dumps([row, {**row, field: value}]), "json",
                          re.escape(f"report row 2: {field!r} must be {kind}, got {value!r}") + "$"))
        for text, fmt, message in cases:
            with pytest.raises(ValueError, match=message) as raised:
                loads_report(text, fmt)
            assert "\n" not in str(raised.value), message

    def test_a_json_number_fills_a_float_field_as_a_float(self):
        rows = json.loads(dumps_report(SAMPLE_ROWS, "json"))
        rows[0]["seconds"] = 2
        assert type(loads_report(json.dumps(rows), "json")[0].seconds) is float

    def test_random_rows_roundtrip(self):
        rng = random.Random(99)
        methods = ["gencp", "bs-first", "bs-all", "oracle"]
        rows = []
        for _ in range(100):
            rows.append(
                ReportRow(
                    method=rng.choice(methods),
                    task=rng.choice(["sent-1", "demo-60", "custom"]),
                    k=rng.randrange(1, 60),
                    seconds=rng.random() * 100,
                    n_solutions=rng.randrange(0, 40),
                    sat_pct=None if rng.random() < 0.3 else rng.random() * 100,
                    n_bad_outputs=None if rng.random() < 0.5 else rng.randrange(0, 50),
                    n_backtracks=None if rng.random() < 0.5 else rng.randrange(0, 500),
                    mean_ppl=None if rng.random() < 0.3 else rng.random() * 300,
                    max_variability=None if rng.random() < 0.5 else rng.randrange(0, 12),
                )
            )
        for fmt in ("csv", "json"):
            assert loads_report(dumps_report(rows, fmt), fmt) == rows

    def test_fields_tuple_matches_dataclass(self):
        assert set(REPORT_FIELDS) == set(ReportRow.__dataclass_fields__)
