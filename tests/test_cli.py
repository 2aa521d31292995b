import json

import pytest

from gencp import NGramLM, parse_report
from gencp.cli import main
from gencp.lm import MAX_NGRAM_ORDER

from conftest import long_chain


class TestSolveCommand:
    def test_demo_run_prints_sentences(self, fixtures_dir, capsys):
        code = main([
            "solve", "--task", "demo-60", "--lm", f"table:{fixtures_dir / 'demo60.tbl'}",
            "--k", "10", "--max-solutions", "4", "--backtrack-to", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert len(lines) == 4
        for line in lines:
            sentence, _, ppl = line.partition("\t")
            assert sentence.startswith("The ")
            assert len(sentence) == 60
            assert ppl.startswith("ppl=")

    def test_summary_names_domain_fetches_not_backend_calls(self, fixtures_dir, capsys):
        code = main([
            "solve", "--task", "demo-60", "--lm", f"table:{fixtures_dir / 'demo60.tbl'}",
            "--k", "10", "--max-solutions", "4", "--backtrack-to", "2",
        ])
        assert code == 0
        # 47 predict calls fetch domains; the period checks call the backend
        # too, so "47 LM calls" undercounted the backend's work.
        assert capsys.readouterr().err == "4 solution(s), 4 backtracks, 47 domain fetches\n"

    def test_a_bad_table_line_exits_1_naming_its_line(self, tmp_path, capsys):
        table = tmp_path / "bad.tbl"
        table.write_text("\ta\t1.5\njust one field\n", encoding="utf-8")
        code = main(["solve", "--task", "demo-60", "--lm", f"table:{table}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == f"error: {table}:1: probability for 'a' must be in (0, 1], got 1.5\n"
        assert captured.out == ""

    def test_task_file(self, fixtures_dir, capsys):
        code = main([
            "solve", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}", "--all",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split("\t")[0] == "My cat."

    def test_seed_words_override(self, fixtures_dir, tmp_path, capsys):
        table = tmp_path / "seeded.tbl"
        table.write_text("We go\t.\t1.0\n", encoding="utf-8")
        task = tmp_path / "task.json"
        task.write_text(json.dumps({
            "constraints": [{"type": "word_count_range", "lo": 2, "hi": 2}],
            "seed": ["The"],
            "k": 2,
        }), encoding="utf-8")
        code = main([
            "solve", "--task", str(task), "--lm", f"table:{table}",
            "--seed-words", "We,go",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[0].split("\t")[0] == "We go."


class TestBeamCommand:
    def test_beam_run(self, fixtures_dir, capsys):
        code = main([
            "beam", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", f"table:{fixtures_dir / 'bs_k_shift.tbl'}", "--k", "5",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[0].split("\t")[0] == "it was."
        assert "satisfaction" in captured.err


class TestBenchCommand:
    def test_csv_report_to_file(self, fixtures_dir, tmp_path, capsys):
        out_path = tmp_path / "report.csv"
        code = main([
            "bench", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}",
            "--k", "2,3", "--method", "gencp,bs-all", "--max-variables", "6",
            "--out", str(out_path),
        ])
        assert code == 0
        rows = parse_report(out_path, "csv")
        assert len(rows) == 4
        assert {r.method for r in rows} == {"gencp", "bs-all"}

    def test_stdout_json(self, fixtures_dir, capsys):
        code = main([
            "bench", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}",
            "--k", "2", "--method", "oracle", "--max-variables", "6",
            "--format", "json",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["method"] == "oracle"
        assert payload[0]["n_solutions"] == 1

    def test_seed_words_override(self, fixtures_dir, capsys):
        code = main([
            "bench", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}",
            "--k", "2", "--method", "oracle", "--format", "json", "--seed-words", "We",
        ])
        assert code == 0
        # "My cat." is the task's one solution; no sentence starting "We" ends.
        assert json.loads(capsys.readouterr().out)[0]["n_solutions"] == 0

    def test_bad_k_list_is_usage_error(self, fixtures_dir, capsys):
        code = main([
            "bench", "--task", "demo-60", "--lm", "table:x",
            "--k", "five", "--method", "gencp",
        ])
        assert code == 1

    @pytest.mark.parametrize("option, field", [
        (["--max-solutions", "0"], "max_solutions"),
        (["--backtrack-to", "0"], "backtrack_to"),
        (["--ordering", "bogus"], "ordering"),
    ], ids=["max-solutions", "backtrack-to", "ordering"])
    def test_bad_run_option_exits_1_before_the_backend_loads(
        self, fixtures_dir, tmp_path, monkeypatch, capsys, option, field
    ):
        def refuse(spec):
            raise AssertionError(f"loaded {spec}")

        monkeypatch.setattr("gencp.harness.load_backend", refuse)
        out_path = tmp_path / "report.csv"
        # beam search alone reads none of the three, so only the check rejects them
        code = main([
            "bench", "--task", "demo-60", "--lm", f"table:{fixtures_dir / 'demo60.tbl'}",
            "--k", "10", "--method", "bs-all", "--out", str(out_path),
        ] + option)
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and field in err
        assert not out_path.exists()


class TestOracleCommand:
    def test_lists_solutions(self, fixtures_dir, capsys):
        code = main([
            "oracle", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}", "--max-variables", "4",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["My cat."]

    def test_sentence_longer_than_the_recursion_limit(self, tmp_path, capsys):
        words, table = long_chain(1200)
        tbl = tmp_path / "chain.tbl"
        tbl.write_text("".join(f"{prefix}\t{word}\t{p}\n" for prefix, entries in table.items()
                               for word, p in entries), encoding="utf-8")
        task = tmp_path / "chain.json"
        task.write_text(json.dumps({"constraints": [{"type": "word_count_range", "lo": 1200, "hi": 1200}],
                                    "k": 1}), encoding="utf-8")
        code = main(["oracle", "--task", str(task), "--lm", f"table:{tbl}", "--max-variables", "1300"])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.splitlines() == [" ".join(words) + "."]
        assert "Traceback" not in captured.err

    def test_time_budget_is_backend_failure(self, fixtures_dir, stub_server, capsys):
        server = stub_server({"": [("My", 0.6), ("We", 0.4)], "My": [("cat", 0.5)],
                              "My cat": [(".", 1.0)]}, delay=0.05)
        code = main([
            "oracle", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", f"remote:{server.url}", "--time-budget", "0.01",
        ])
        assert code == 2
        assert "time budget" in capsys.readouterr().err


class TestTrainNgramCommand:
    def test_trains_and_saves(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat on the mat . the dog ran .", encoding="utf-8")
        out = tmp_path / "model.json"
        code = main([
            "train-ngram", "--corpus", str(corpus), "--order", "2", "--out", str(out),
        ])
        assert code == 0
        model = NGramLM.load(out)
        assert "cat" in model.vocabulary

    def test_missing_corpus_is_error(self, tmp_path):
        code = main([
            "train-ngram", "--corpus", str(tmp_path / "nope.txt"), "--order", "1",
            "--out", str(tmp_path / "m.json"),
        ])
        assert code == 1

    @pytest.mark.parametrize("smoothing", ["nan", "inf", "-1"])
    def test_smoothing_must_be_finite_and_not_negative(self, tmp_path, capsys, smoothing):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat .", encoding="utf-8")
        out = tmp_path / "model.json"
        code = main([
            "train-ngram", "--corpus", str(corpus), "--order", "1",
            "--smoothing", smoothing, "--out", str(out),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert len(err.splitlines()) == 1 and "smoothing" in err
        assert not out.exists()

    def test_order_above_the_cap_exits_1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("the cat sat .", encoding="utf-8")
        out = tmp_path / "model.json"
        code = main([
            "train-ngram", "--corpus", str(corpus), "--order", "1000000000", "--out", str(out),
        ])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: order must be between 1 and {MAX_NGRAM_ORDER}, got 1000000000\n"
        )
        assert not out.exists()


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys):
        code = main(["solve", "--task", "demo-60", "--lm", "table:x", "--frobnicate"])
        assert code == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_task_is_usage_error(self, fixtures_dir, capsys):
        code = main(["solve", "--task", "sent-99", "--lm", f"table:{fixtures_dir / 'demo60.tbl'}"])
        assert code == 1

    def test_missing_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unreachable_backend_is_backend_failure(self, fixtures_dir, capsys):
        code = main([
            "solve", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", "remote:http://127.0.0.1:9/completion",
        ])
        assert code == 2
        assert "backend failure" in capsys.readouterr().err

    def test_malformed_remote_endpoint_exits_1(self, fixtures_dir, capsys):
        code = main([
            "solve", "--task", str(fixtures_dir / "two_words.json"), "--lm", "remote:localhost:8080",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "'remote:localhost:8080'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("timeout", ["0", "-1", "nan", "inf"])
    def test_bad_remote_timeout_exits_1_before_any_request(
        self, fixtures_dir, stub_server, monkeypatch, capsys, timeout
    ):
        server = stub_server({"": [("My", 0.6)], "My": [("cat", 0.5)], "My cat": [(".", 1.0)]})
        monkeypatch.setenv("GENCP_LM_TIMEOUT_SECS", timeout)
        code = main([
            "solve", "--task", str(fixtures_dir / "two_words.json"), "--lm", f"remote:{server.url}",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "GENCP_LM_TIMEOUT_SECS" in err
        assert "Traceback" not in err
        assert server.counts == {}

    def test_bad_lm_spec_is_usage_error(self, fixtures_dir):
        code = main([
            "solve", "--task", str(fixtures_dir / "two_words.json"), "--lm", "nonsense",
        ])
        assert code == 1

    @pytest.mark.parametrize("budget", ["-1", "nan"])
    @pytest.mark.parametrize("command", [
        ["solve"], ["beam"], ["oracle"], ["bench", "--k", "10", "--method", "gencp"],
    ], ids=lambda c: c[0])
    def test_negative_or_nan_time_budget_exits_1(self, fixtures_dir, capsys, command, budget):
        code = main(command + [
            "--task", "demo-60", "--lm", f"table:{fixtures_dir / 'demo60.tbl'}",
            "--time-budget", budget,
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "time budget" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command, field", [
        (["oracle", "--max-variables", "0"], "depth_cap"),
        (["beam", "--max-variables", "0"], "max_words"),
        (["solve", "--max-variables", "0"], "max_variables"),
        (["solve", "--backtrack-to", "0"], "backtrack_to"),
    ], ids=["oracle-depth", "beam-words", "solve-variables", "solve-backtrack-to"])
    def test_bound_below_its_minimum_exits_1(self, fixtures_dir, capsys, command, field):
        code = main(command + ["--task", "demo-60", "--lm", f"table:{fixtures_dir / 'demo60.tbl'}"])
        err = capsys.readouterr().err
        assert code == 1
        assert field in err
        assert "Traceback" not in err

    def test_ngram_order_above_the_cap_exits_1(self, fixtures_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("My cat.\n", encoding="utf-8")
        code = main(["solve", "--task", str(fixtures_dir / "two_words.json"),
                     "--lm", f"ngram:{corpus},1000000000"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: order must be between 1 and {MAX_NGRAM_ORDER}, got 1000000000\n"
        )

    def test_non_integer_ngram_order_exits_1(self, fixtures_dir, tmp_path, capsys):
        corpus = tmp_path / "corpus.txt"
        corpus.write_text("My cat.\n", encoding="utf-8")
        spec = f"ngram:{corpus},x"
        code = main(["solve", "--task", str(fixtures_dir / "two_words.json"), "--lm", spec])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: bad ngram spec {spec!r}; expected ngram:<corpus>,<order>"
            " with <order> an integer >= 1, or ngram:<model.json>\n"
        )

    @pytest.mark.parametrize("ordering", ["char-target:x", "char-target:0"])
    def test_bad_ordering_pivot_exits_1(self, fixtures_dir, capsys, ordering):
        code = main(["solve", "--task", "demo-60", "--lm", f"table:{fixtures_dir / 'demo60.tbl'}",
                     "--ordering", ordering])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: unknown ordering {ordering!r}; expected probability, ppl or char-target[:PIVOT]"
            " with PIVOT an integer >= 1\n"
        )


WORDS_2 = {"type": "word_count_range", "lo": 2, "hi": 2}


@pytest.mark.parametrize("source", ["task-file", "seed-words"])
@pytest.mark.parametrize("command", [
    ["solve"], ["beam"], ["oracle"], ["bench", "--k", "2", "--method", "gencp,bs-all,oracle"],
], ids=lambda c: c[0])
def test_seed_word_with_whitespace_exits_1(fixtures_dir, tmp_path, capsys, command, source):
    task = tmp_path / "task.json"
    if source == "task-file":
        task.write_text(json.dumps({"constraints": [WORDS_2], "seed": ["My dog"]}), encoding="utf-8")
        extra = []
    else:
        task = fixtures_dir / "two_words.json"
        extra = ["--seed-words", "My dog"]
    code = main(command + ["--task", str(task), "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}"]
                + extra)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: seed word 'My dog' contains whitespace\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [["solve", "--all"], ["beam"], ["oracle"]], ids=lambda c: c[0])
def test_the_period_as_seed_word_exits_1(tmp_path, capsys, command):
    """A seed "." would count as a word and finish the sentence: solve printed ".", oracle ". x"."""
    table = tmp_path / "dot.tbl"
    table.write_text(".\tx\t0.5\n. x\t.\t0.5\n", encoding="utf-8")
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"constraints": [{"type": "word_count_range", "lo": 1, "hi": 4}],
                                "require_period": False, "k": 2}), encoding="utf-8")
    code = main(command + ["--task", str(task), "--lm", f"table:{table}", "--seed-words", "."])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == "error: seed word '.' is the final period, not a word\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"constraints": [{"type": "char_count_exact", "n": "60"}]}, "'n'"),
        ({"constraints": [WORDS_2], "k": "3"}, "'k'"),
        ({"constraints": [{"type": "mandatory_keywords", "words": "beach"}]}, "'words'"),
        ({"constraints": [{"type": "starts_with", "prefix": "The"}]}, "'prefix'"),
        ({"constraints": [WORDS_2], "seed": "The"}, "'seed'"),
    ],
    ids=["string-n", "string-k", "string-words", "string-prefix", "string-seed"],
)
def test_malformed_task_file_exits_1(payload, field, fixtures_dir, tmp_path, capsys):
    task = tmp_path / "bad.json"
    task.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["solve", "--task", str(task), "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}"])
    err = capsys.readouterr().err
    assert code == 1
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("value", ["1e400", "NaN"])
def test_non_finite_temperature_in_a_task_file_exits_1(value, fixtures_dir, tmp_path, capsys):
    # Python's JSON reader takes 1e400 as inf and NaN as nan; neither may reach a backend.
    task = tmp_path / "task.json"
    task.write_text(f'{{"constraints": [{json.dumps(WORDS_2)}], "temperature": {value}}}',
                    encoding="utf-8")
    code = main(["solve", "--task", str(task), "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: temperature must be a finite number > 0, got {float(value)!r}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["solve"], ["beam"], ["oracle"], ["bench", "--k", "2", "--method", "bs-all,oracle"],
], ids=lambda c: c[0])
def test_unknown_ordering_in_a_task_file_exits_1(fixtures_dir, tmp_path, capsys, command):
    task = tmp_path / "task.json"
    task.write_text(json.dumps({"constraints": [WORDS_2], "ordering": "bogus"}), encoding="utf-8")
    code = main(command + ["--task", str(task), "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == (
        "error: unknown ordering 'bogus'; expected probability, ppl or char-target[:PIVOT]"
        " with PIVOT an integer >= 1\n"
    )
    assert captured.out == ""


@pytest.mark.parametrize("command", [
    ["solve", "--max-solutions", "1"],
    ["bench", "--k", "2", "--method", "gencp", "--max-solutions", "1", "--format", "json"],
], ids=lambda c: c[0])
def test_ordering_flag_prints_what_the_task_file_ordering_prints(tmp_path, capsys, command):
    """``--ordering`` sets the task's ordering, as ``"ordering"`` in the task file does."""
    table = tmp_path / "t.tbl"
    table.write_text("\tWe\t1.0\nWe\tgo\t0.5\nWe\twander\t0.4\nWe go\t.\t1.0\nWe wander\t.\t1.0\n",
                     encoding="utf-8")

    def output(flags, **fields):
        task = tmp_path / "task.json"
        task.write_text(json.dumps({"constraints": [WORDS_2], **fields}), encoding="utf-8")
        assert main(command + ["--task", str(task), "--lm", f"table:{table}"] + flags) == 0
        out = capsys.readouterr().out
        if command[0] == "bench":  # the rows without their wall times
            return [{**row, "seconds": None} for row in json.loads(out)]
        return out

    by_flag = output(["--ordering", "char-target"])
    assert by_flag == output([], ordering="char-target")
    assert by_flag != output([])  # longer words first: "We wander." before "We go."


GOOD_NGRAM = {"format": "gencp-ngram", "order": 1, "smoothing": 1.0, "vocabulary": ["a", "b"],
              "counts": [[0, [], [["a", 1], ["b", 1]]]]}


@pytest.mark.parametrize(
    "payload, field",
    [
        ({"format": "gencp-ngram"}, "'order'"),
        ({**GOOD_NGRAM, "smoothing": -1.0}, "smoothing"),
        ({**GOOD_NGRAM, "counts": [[2, ["a", "b"], [["a", 1]]]]}, "'counts[0]'"),
        ({**GOOD_NGRAM, "vocabulary": []}, "'vocabulary'"),
        ([GOOD_NGRAM], "not a saved n-gram model"),
    ],
    ids=["format-only", "negative-smoothing", "length-over-order", "no-vocabulary", "not-an-object"],
)
def test_malformed_ngram_model_exits_1(payload, field, fixtures_dir, tmp_path, capsys):
    model = tmp_path / "bad.json"
    model.write_text(json.dumps(payload), encoding="utf-8")
    code = main(["solve", "--task", str(fixtures_dir / "two_words.json"), "--lm", f"ngram:{model}"])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and field in err


DEEP_JSON = "[" * 100_000 + "]" * 100_000  # json.load raises RecursionError, not a ValueError


@pytest.mark.parametrize("where", ["task", "ngram"])
def test_json_nested_past_the_recursion_limit_exits_1(where, fixtures_dir, tmp_path, capsys):
    task, lm = str(fixtures_dir / "two_words.json"), f"table:{fixtures_dir / 'bs_miss.tbl'}"
    deep = tmp_path / "deep.json"
    if where == "task":
        deep.write_text(DEEP_JSON, encoding="utf-8")
        task = str(deep)
    else:
        deep.write_text(json.dumps({**GOOD_NGRAM, "counts": None}).replace("null", DEEP_JSON), encoding="utf-8")
        lm = f"ngram:{deep}"
    code = main(["solve", "--task", task, "--lm", lm])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: {deep}: JSON nested too deeply\n"
    assert captured.out == ""
