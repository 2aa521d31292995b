import json

import pytest

from gencp import NGramLM, parse_report
from gencp.cli import main


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

    def test_bad_k_list_is_usage_error(self, fixtures_dir, capsys):
        code = main([
            "bench", "--task", "demo-60", "--lm", "table:x",
            "--k", "five", "--method", "gencp",
        ])
        assert code == 1


class TestOracleCommand:
    def test_lists_solutions(self, fixtures_dir, capsys):
        code = main([
            "oracle", "--task", str(fixtures_dir / "two_words.json"),
            "--lm", f"table:{fixtures_dir / 'bs_miss.tbl'}", "--max-variables", "4",
        ])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == ["My cat."]

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


WORDS_2 = {"type": "word_count_range", "lo": 2, "hi": 2}


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
