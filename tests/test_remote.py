import gc
import json
import math
import random
import socket
import subprocess
import sys
import threading
import time
import warnings
import weakref
from collections import Counter
from pathlib import Path

import pytest

import gencp
from gencp import (
    ForbiddenChars,
    LanguageModel,
    LMParams,
    RemoteLM,
    RunConfig,
    SearchAborted,
    SolveOptions,
    TableLM,
    TaskSpec,
    TransportError,
    WordCountRange,
    beam_search,
    brute_force_oracle,
    predicts_period,
    render_prefix,
    run_benchmark,
    run_search,
    sequence_logprob,
    solve_all,
)
from gencp.cli import main
from gencp.lm import REMOTE_WORKERS, TIMEOUT_ENV_VAR, _parse_response_path

PARAMS = LMParams(k=2)

TREE = {
    "": [("My", 0.6), ("We", 0.4)],
    "My": [("dog", 0.9), ("cat", 0.1)],
    "We": [("run", 0.9), ("eat", 0.1)],
    "My cat": [(".", 1.0)],
}


def full_tree(words, depth):
    """Every word under every prefix to ``depth``; "." ranks first from two words on."""
    table = {}

    def grow(prefix):
        entries = [(".", 0.4)] if len(prefix) >= 2 else []
        if len(prefix) < depth:
            entries += [(w, 0.5 / len(words)) for w in words]
            for w in words:
                grow(prefix + [w])
        table[render_prefix(prefix)] = entries

    grow([])
    return table


WIDE = full_tree(("red", "big", "old"), 3)
WIDE_TASK = TaskSpec(name="two-or-three", constraints=(WordCountRange(2, 3),),
                     lm_params=LMParams(k=3), require_period=True)


@pytest.fixture(autouse=True)
def close_clients(monkeypatch):
    """Close every client a test makes, so that no connection is left to the garbage collector."""
    made = []
    init = RemoteLM.__init__

    def recording(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)

    monkeypatch.setattr(RemoteLM, "__init__", recording)
    yield
    for lm in made:
        lm.close()


def _record_connections(monkeypatch):
    """Weak references to every client socket opened from now on."""
    opened = []
    connect = socket.create_connection

    def recording(*args, **kwargs):
        sock = connect(*args, **kwargs)
        opened.append(weakref.ref(sock))
        return sock

    monkeypatch.setattr(socket, "create_connection", recording)
    return opened


def _open_sockets(opened):
    """The recorded sockets still open, after collecting the unreachable ones."""
    gc.collect()
    return [ref() for ref in opened if ref() is not None and ref().fileno() != -1]


def _unclosed(caught):
    """Sockets the garbage collector found open, from the recorded warnings."""
    return [str(w.message) for w in caught if issubclass(w.category, ResourceWarning)]


class SequentialRemoteLM(RemoteLM):
    """The client as a backend that ignores prefetch hints would drive it."""

    prefetch = LanguageModel.prefetch


class FailingRemoteLM(RemoteLM):
    """Fails the POST for one prompt after 50 ms, as a dropped connection would."""

    def __init__(self, url, prompt):
        super().__init__(url)
        self.prompt = prompt
        self.refused = threading.Event()

    def _request(self, body):
        if json.loads(body)["prompt"] == self.prompt:
            self.refused.set()
            time.sleep(0.05)
            raise ConnectionResetError("connection reset")
        return super()._request(body)


class TestResponsePath:
    def test_default_path(self):
        assert _parse_response_path("completion_probabilities[0].probs") == [
            "completion_probabilities", 0, "probs",
        ]

    def test_plain_key(self):
        assert _parse_response_path("probs") == ["probs"]

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            _parse_response_path("a..b")


class TestRemotePredict:
    def test_fixed_answer_passes_through(self, stub_server):
        server = stub_server({"hello": [("one", 0.5), ("two", 0.3), ("sky", 0.2)]})
        lm = RemoteLM(server.url)
        cands = lm.predict("hello", LMParams(k=3))
        assert [c.text for c in cands] == ["one", "two", "sky"]

    def test_leading_space_tokens_are_stripped(self, stub_server):
        server = stub_server({"go": [("the", 0.8)]})
        lm = RemoteLM(server.url)
        cands = lm.predict("go", PARAMS)
        assert [c.text for c in cands] == ["the"]
        # the stub adds llama-style leading spaces; text comes back bare
        assert server.requests[0]["prompt"] == "go"

    def test_request_carries_sampling_fields(self, stub_server):
        server = stub_server({"x": [("ok", 0.5)]})
        lm = RemoteLM(server.url)
        params = LMParams(k=3, top_k=17, top_p=0.9, temperature=0.4, oversample=2)
        lm.predict("x", params)
        req = server.requests[0]
        assert req["n_predict"] == 1
        assert req["n_probs"] == 6
        assert req["top_k"] == 17
        assert req["top_p"] == 0.9
        assert req["temperature"] == 0.4

    def test_memoizes_by_sentence_and_params(self, stub_server):
        server = stub_server({"x": [("ok", 0.5)]})
        lm = RemoteLM(server.url)
        for _ in range(4):
            lm.predict("x", PARAMS)
        assert server.counts == {"x": 1}
        lm.predict("x", LMParams(k=2, temperature=0.5))
        assert server.counts == {"x": 2}

    def test_http_error_is_transport_error(self, stub_server):
        server = stub_server({})
        server.fail_with(500)
        with pytest.raises(TransportError, match="HTTP 500"):
            RemoteLM(server.url).predict("x", PARAMS)

    def test_failed_post_is_not_memoized(self, stub_server):
        server = stub_server({"x": [("ok", 0.5)]})
        lm = RemoteLM(server.url)
        server.fail_with(500)
        with pytest.raises(TransportError, match="HTTP 500"):
            lm.predict("x", PARAMS)
        server.respond_normally()
        assert [c.text for c in lm.predict("x", PARAMS)] == ["ok"]
        assert server.counts == {"x": 2}

    def test_malformed_json_is_transport_error(self, stub_server):
        server = stub_server({})
        server.respond_raw(b"this is not json")
        with pytest.raises(TransportError, match="malformed"):
            RemoteLM(server.url).predict("x", PARAMS)

    def test_missing_path_is_transport_error(self, stub_server):
        server = stub_server({})
        server.respond_raw(b'{"something": []}')
        with pytest.raises(TransportError, match="response lacks"):
            RemoteLM(server.url).predict("x", PARAMS)

    def test_connection_refused_is_transport_error(self):
        lm = RemoteLM("http://127.0.0.1:9/completion", timeout=0.5)
        with pytest.raises(TransportError):
            lm.predict("x", PARAMS)

    def test_timeout_env_override(self, stub_server, monkeypatch):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, "7.5")
        lm = RemoteLM("http://127.0.0.1:9/x")
        assert lm.timeout == 7.5

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf", "soon"])
    def test_bad_timeout_env_is_rejected_at_construction(self, monkeypatch, value):
        monkeypatch.setenv(TIMEOUT_ENV_VAR, value)
        with pytest.raises(ValueError, match=f"^{TIMEOUT_ENV_VAR} must be .*{value!r}"):
            RemoteLM("http://127.0.0.1:9/x")

    @pytest.mark.parametrize("value", [0, -1, math.nan, math.inf])
    def test_bad_timeout_argument_is_rejected_at_construction(self, value):
        with pytest.raises(ValueError, match="^timeout must be"):
            RemoteLM("http://127.0.0.1:9/x", timeout=value)

    def test_conditional_logprob_via_server(self, stub_server):
        server = stub_server(TREE)
        lm = RemoteLM(server.url)
        got = sequence_logprob(lm, ["My", "cat"], PARAMS)
        assert got == pytest.approx(math.log(0.6) + math.log(0.1))


class TestConnections:
    def test_exhaustive_solve_opens_one_connection_per_posting_thread(self, stub_server):
        sequential = stub_server(WIDE)
        expected = _solve(SequentialRemoteLM(sequential.url))
        overlapped = stub_server(WIDE, delay=0.01)
        assert _solve(RemoteLM(overlapped.url)) == expected
        assert len(overlapped.requests) == len(sequential.requests) > REMOTE_WORKERS + 1
        assert sequential.connections == 1
        assert overlapped.connections <= REMOTE_WORKERS + 1

    def test_dropped_idle_connection_costs_one_silent_reconnect(self, stub_server):
        server = stub_server(TREE)
        server.drop_idle_connections()
        lm = RemoteLM(server.url)
        for prompt in ("", "My", "We"):
            lm.predict(prompt, PARAMS)
        assert server.counts == {"": 1, "My": 1, "We": 1}
        assert server.connections == 3

    def test_refused_connection_is_not_retried(self, stub_server, monkeypatch):
        attempts = []
        connect = socket.create_connection

        def counting(address, *args, **kwargs):
            attempts.append(address)
            return connect(address, *args, **kwargs)

        monkeypatch.setattr(socket, "create_connection", counting)
        lm = RemoteLM("http://127.0.0.1:9/completion", timeout=5)
        started = time.perf_counter()
        with pytest.raises(TransportError, match="refused"):
            lm.predict("x", PARAMS)
        assert time.perf_counter() - started < 1
        assert attempts == [("127.0.0.1", 9)]
        # A dropped idle connection is reopened once; when that is refused,
        # the request fails.
        server = stub_server(TREE)
        server.drop_idle_connections()
        lm = RemoteLM(server.url, timeout=5)
        lm.predict("", PARAMS)
        server.close()
        attempts.clear()
        with pytest.raises(TransportError, match="refused"):
            lm.predict("My", PARAMS)
        assert len(attempts) == 1

    def test_close_leaves_no_connection_open(self, stub_server, monkeypatch):
        opened = _record_connections(monkeypatch)
        server = stub_server(WIDE, delay=0.01)
        running = set(threading.enumerate())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            lm = RemoteLM(server.url)
            _solve(lm)
            lm.prefetch(["red", "big"], WIDE_TASK.lm_params, 9)  # queued or in flight at close
            lm.close()
            assert _open_sockets(opened) == []
        assert len(opened) > 1  # the caller's connection and the pool's
        assert _unclosed(caught) == []
        started = set(threading.enumerate()) - running
        assert [t.name for t in started if t.name.startswith("gencp-remote")] == []

    def test_cli_and_benchmark_close_the_backend_they_load(self, stub_server, monkeypatch, fixtures_dir):
        opened = _record_connections(monkeypatch)
        server = stub_server(TREE)
        common = ["--task", str(fixtures_dir / "two_words.json"), "--lm", f"remote:{server.url}"]
        config = RunConfig(tasks=(str(fixtures_dir / "two_words.json"),),
                           lm_spec=f"remote:{server.url}", k_values=(2,), methods=("gencp",))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for command in (["solve", "--all"], ["beam"], ["oracle"]):
                assert main(command[:1] + common + command[1:]) == 0
            assert run_benchmark(config)[0].n_solutions == 1
            assert _open_sockets(opened) == []
        assert len(opened) >= 4  # one client per command and one for the benchmark
        assert _unclosed(caught) == []


class TestStandardLibraryOnly:
    def test_import_and_remote_backend_load_only_the_standard_library(self):
        src = Path(gencp.__file__).resolve().parents[1]
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import gencp\n"
            "gencp.load_backend('remote:http://127.0.0.1:9/completion')\n"
            "print(sorted({name.partition('.')[0] for name in sys.modules}\n"
            "             - set(sys.stdlib_module_names) - {'gencp', '__main__'}))\n"
        )
        # -S: no site hooks, which may import third-party modules of their own
        run = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, timeout=60, check=True)
        assert run.stdout.strip() == "[]"

    def test_project_declares_no_runtime_dependency(self):
        tomllib = pytest.importorskip("tomllib")  # Python 3.11+
        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
            assert tomllib.load(fh)["project"]["dependencies"] == []


class TestRemoteEndToEnd:
    def test_search_with_one_post_per_prefix(self, stub_server):
        server = stub_server(TREE)
        lm = RemoteLM(server.url)
        task = TaskSpec(name="two-words", constraints=(WordCountRange(2, 2),),
                        lm_params=PARAMS, require_period=True)
        outcome = run_search(task, lm, SolveOptions(max_variables=4))
        assert [s.sentence for s in outcome.solutions] == ["My cat."]
        assert max(server.counts.values()) == 1
        assert set(server.counts) == {"", "My", "My dog", "My cat", "We", "We run", "We eat"}


class TestRemoteScoring:
    # Four forbidden words outrank the only allowed one, so the task-k
    # request for "" (k=1, 4 candidates with the default oversample) holds
    # the "q" words only; a width-2 beam asks for 8 and finds "fine".
    TABLE = {
        "": [("qa", 0.2), ("qb", 0.2), ("qc", 0.2), ("qd", 0.2), ("fine", 0.1)],
        "fine": [(".", 0.9)],
    }

    def test_beam_wider_than_k_scores_words_outside_the_task_window(self, stub_server):
        task = TaskSpec(name="no-q", constraints=(ForbiddenChars("q"), WordCountRange(1, 3)),
                        lm_params=LMParams(k=1), require_period=True)
        server = stub_server(self.TABLE)
        remote, _bad = beam_search(task, RemoteLM(server.url), k=2)
        table, _bad = beam_search(task, TableLM(self.TABLE), k=2)
        assert [r.sentence for r in remote] == [r.sentence for r in table] == ["fine."]
        # ln(0.1) + ln(0.9) over two words; rescoring "fine" in the k=1
        # window charged it the 1e-10 floor, a ppl of about 105,409
        assert remote[0].ppl == table[0].ppl == pytest.approx(10 / 3)


def period_tree(words, depth):
    """Every word under every prefix to ``depth``, in falling probability.

    "." ranks first after an even number of words and last after an odd
    number, below the first k=3, so odd-length beams are checked for a
    period, fail it and are expanded.
    """
    table = {}

    def grow(prefix):
        finish = len(prefix) % 2 == 0
        entries = [(".", 0.25)] if prefix and finish else []
        if len(prefix) < depth:
            entries += [(w, 0.2 - 0.01 * i) for i, w in enumerate(words)]
            for w in words:
                grow(prefix + [w])
        if prefix and not finish:
            entries.append((".", 0.1))
        table[render_prefix(prefix)] = entries

    grow([])
    return table


class TestOnePostPerPrompt:
    TABLE = period_tree(("red", "big", "old", "new"), 3)
    TASK = TaskSpec(name="one-to-three", constraints=(WordCountRange(1, 3),),
                    lm_params=LMParams(k=3), require_period=True)

    @pytest.mark.parametrize("width", [9, 2])
    def test_beam_wider_or_narrower_than_k_posts_each_prompt_once(self, stub_server, width):
        server = stub_server(self.TABLE, delay=0.005)
        remote, remote_bad = beam_search(self.TASK, RemoteLM(server.url), k=width)
        table, table_bad = beam_search(self.TASK, TableLM(self.TABLE), k=width)
        assert [(r.sentence, r.ppl) for r in remote] == [(r.sentence, r.ppl) for r in table]
        assert remote_bad == table_bad
        assert len(remote) > 1
        # each odd-length beam was both checked for a period and expanded
        assert set(server.counts.values()) == {1}

    def test_narrower_request_is_served_from_a_wider_response(self, stub_server):
        server = stub_server(self.TABLE)
        lm = RemoteLM(server.url)
        params = self.TASK.lm_params
        wide = lm.predict("red", params, 9)
        narrow = lm.predict("red", params)
        lm.prefetch(["red"], params, 2)
        assert [c.text for c in wide] == ["red", "big", "old", "new", "."]
        assert narrow == RemoteLM(server.url).predict("red", params)
        assert [r["n_probs"] for r in server.requests] == [36, 12]  # the second from a fresh client
        assert server.counts == {"red": 2}

    def test_wider_request_posts_once_more(self, stub_server):
        server = stub_server(self.TABLE)
        lm = RemoteLM(server.url)
        params = self.TASK.lm_params
        lm.predict("red", params)
        lm.prefetch(["red"], params, 9)
        for k in (9, 3, 2, 9):
            lm.predict("red", params, k)
        assert [r["n_probs"] for r in server.requests] == [12, 36]

    def test_an_answer_once_given_survives_a_wider_response(self, stub_server):
        # A server whose wider answer ranks differently, as one with ties at
        # the cut may: the narrow answer the search already saw stays.
        server = stub_server(self.TABLE)
        lm = RemoteLM(server.url)
        params = self.TASK.lm_params
        narrow = lm.predict("red", params)
        server.respond_raw(json.dumps({"completion_probabilities": [
            {"probs": [{"token": " new", "prob": 0.5}, {"token": " red", "prob": 0.1}]}
        ]}).encode())
        assert [c.text for c in lm.predict("red", params, 9)] == ["new", "red"]
        assert lm.predict("red", params) == narrow
        assert [c.text for c in lm.predict("red", params, 2)] == ["new", "red"]
        assert [r["n_probs"] for r in server.requests] == [12, 36]

    def test_wider_announcement_drops_the_queued_narrower_one(self, stub_server):
        words = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "jay", "koi", "owl", "yak")
        server = stub_server({w: [("ok", 0.5)] for w in words}, delay=0.05)
        lm = RemoteLM(server.url)
        lm.prefetch(words, PARAMS)
        lm.prefetch(words, PARAMS, 9)
        assert all([c.text for c in lm.predict(w, PARAMS)] == ["ok"] for w in words)
        # Only the narrow requests a worker had started went out.
        assert len([r for r in server.requests if r["n_probs"] == 8]) <= REMOTE_WORKERS
        assert Counter(r["prompt"] for r in server.requests if r["n_probs"] == 36) == dict.fromkeys(words, 1)

    def test_failed_wide_response_is_not_reused_for_a_narrow_request(self, stub_server):
        server = stub_server(self.TABLE)
        lm = RemoteLM(server.url)
        params = self.TASK.lm_params
        server.fail_with(500)
        with pytest.raises(TransportError, match="HTTP 500"):
            lm.predict("red", params, 9)
        server.respond_normally()
        assert lm.predict("red", params) == TableLM(self.TABLE).predict("red", params)
        lm.predict("red", params, 2)
        assert [r["n_probs"] for r in server.requests] == [36, 12]

    def test_width_is_cut_before_duplicate_spellings_merge(self, stub_server):
        # Each word comes as several whitespace variants (" a", "  a", " a "),
        # so the first 12 tokens spell two words and "." is the 13th.  Merging
        # the 36 tokens first and cutting at 12 would put "." third, inside
        # the period check's window of k=3.
        variants = ("a", " a", "a ", "b", " b", "b ") * 2
        entries = [(word, 0.07 - 0.001 * i) for i, word in enumerate(variants)]
        entries += [(".", 0.05), ("c", 0.04)]
        server = stub_server({"p": entries})
        params = self.TASK.lm_params
        shared = RemoteLM(server.url)
        shared.predict("p", params, 9)
        narrow = shared.predict("p", params)
        fresh = RemoteLM(server.url).predict("p", params)
        assert [c.text for c in narrow] == [c.text for c in fresh] == ["a", "b"]
        assert narrow == fresh
        assert not predicts_period(shared, "p", params)
        assert [c.text for c in shared.predict("p", params, 9)] == ["a", "b", ".", "c"]
        assert server.counts == {"p": 2}


def _solve(lm):
    return [r.sentence for r in solve_all(WIDE_TASK, lm, SolveOptions(max_variables=4))]


def _beam(lm):
    solutions, bad = beam_search(WIDE_TASK, lm, k=3, max_words=4)
    return [r.sentence for r in solutions], bad


def _oracle(lm):
    return sorted(brute_force_oracle(WIDE_TASK, lm, depth_cap=4))


SEARCHES = {"solve_all": _solve, "beam_search": _beam, "oracle": _oracle}


class TestPrefetch:
    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_exhaustive_runs_post_each_sequential_prompt_once(self, stub_server, search):
        sequential = stub_server(WIDE)
        expected = SEARCHES[search](SequentialRemoteLM(sequential.url))
        overlapped = stub_server(WIDE, delay=0.02)
        assert SEARCHES[search](RemoteLM(overlapped.url)) == expected
        posted = Counter((r["prompt"], r["n_probs"]) for r in overlapped.requests)
        assert max(posted.values()) == 1
        assert posted == Counter((r["prompt"], r["n_probs"]) for r in sequential.requests)
        assert overlapped.peak_in_flight >= 2
        assert sequential.peak_in_flight == 1

    @pytest.mark.parametrize(
        "options",
        [SolveOptions(max_solutions=2), SolveOptions(backtrack_to=1),
         SolveOptions(max_solutions=3, backtrack_to=1)],
        ids=["solution-cap", "jump-back", "both"],
    )
    def test_capped_and_jump_back_runs_post_only_what_they_ask(self, stub_server, options):
        sequential = stub_server(WIDE)
        expected = run_search(WIDE_TASK, SequentialRemoteLM(sequential.url), options).solutions
        overlapped = stub_server(WIDE, delay=0.02)
        outcome = run_search(WIDE_TASK, RemoteLM(overlapped.url), options)
        time.sleep(0.1)  # nothing may arrive after the search returned
        assert [r.sentence for r in outcome.solutions] == [r.sentence for r in expected]
        assert overlapped.requests == sequential.requests
        assert overlapped.peak_in_flight == 1

    @pytest.mark.parametrize("refused", [None, "yak"], ids=["unannounced", "failed"])
    def test_predict_does_not_queue_behind_prefetches(self, stub_server, refused):
        words = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "jay", "koi", "owl")
        server = stub_server({w: [("ok", 0.5)] for w in words + ("yak",)}, delay=0.05)
        lm = FailingRemoteLM(server.url, refused)
        if refused is not None:
            lm.prefetch([refused], PARAMS)
            assert lm.refused.wait(timeout=5)
            time.sleep(0.1)  # the failure is in the memo
            lm.prompt = None
        lm.prefetch(words, PARAMS)
        assert [c.text for c in lm.predict("yak", PARAMS)] == ["ok"]
        lm.cancel_prefetch()
        # "yak" went out at once, beside the prefetches already started,
        # not behind the ones still queued.
        assert "yak" in [r["prompt"] for r in server.requests[: REMOTE_WORKERS + 1]]
        assert server.counts["yak"] == 1

    def test_predict_survives_a_cancel_of_the_prompt_it_waits_on(self, stub_server):
        words = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "jay", "koi", "owl", "yak")
        server = stub_server({w: [("ok", 0.5)] for w in words}, delay=0.05)
        lm = RemoteLM(server.url)
        lm.prefetch(words, PARAMS)
        answers = []
        waiter = threading.Thread(target=lambda: answers.append(lm.predict("yak", PARAMS)))
        waiter.start()
        time.sleep(0.02)  # the waiter waits on the queued prefetch of "yak"
        lm.cancel_prefetch()  # as another search sharing the client does on return
        waiter.join(timeout=5)
        assert [[c.text for c in a] for a in answers] == [["ok"]]
        assert server.counts["yak"] == 1

    @pytest.mark.parametrize(
        "options, refused",
        [(SolveOptions(time_budget=0.08), None), (SolveOptions(), "ant")],
        ids=["time-budget", "aborted"],
    )
    def test_search_end_drops_queued_prefetches(self, stub_server, options, refused):
        words = ("ant", "bee", "cat", "dog", "eel", "fox", "gnu", "hen", "jay", "koi", "owl", "yak")
        server = stub_server(full_tree(words, 2), delay=0.05)
        task = TaskSpec(name="two", constraints=(WordCountRange(2, 2),),
                        lm_params=LMParams(k=12), require_period=True)
        lm = FailingRemoteLM(server.url, refused)
        if refused is None:
            run_search(task, lm, options)
        else:
            with pytest.raises(SearchAborted):
                run_search(task, lm, options)
        at_return = len(server.requests)
        time.sleep(0.5)
        # Only requests a worker had started may still arrive; the children
        # of "" and "ant" queued behind them were dropped.
        assert len(server.requests) - at_return <= REMOTE_WORKERS
        assert len(server.requests) < 1 + 2 * len(words)

    def test_failed_prefetch_does_not_abort_a_search_that_never_asks(self, stub_server):
        server = stub_server(TREE)
        lm = FailingRemoteLM(server.url, "We")
        lm.prefetch(["We"], PARAMS)
        assert lm.refused.wait(timeout=5)
        task = TaskSpec(name="two-words", constraints=(WordCountRange(2, 2),),
                        lm_params=PARAMS, require_period=True)
        outcome = run_search(task, lm, SolveOptions(max_variables=4, max_solutions=1))
        assert [s.sentence for s in outcome.solutions] == ["My cat."]
        assert "We" not in server.counts

    def test_concurrent_callers_share_one_post_per_prompt(self, stub_server):
        server = stub_server(WIDE)
        lm = RemoteLM(server.url)
        params = WIDE_TASK.lm_params
        prompts = sorted(WIDE)
        answers, errors = {}, []

        def caller(seed):
            order = prompts[:]
            random.Random(seed).shuffle(order)
            try:
                lm.prefetch(order, params)
                lm.cancel_prefetch()
                for prompt in reversed(order):
                    answers[seed, prompt] = lm.predict(prompt, params)
            except Exception as exc:  # reported below; a thread cannot fail the test itself
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert server.counts == {prompt: 1 for prompt in prompts}
        local = TableLM(WIDE)
        assert answers == {(seed, prompt): local.predict(prompt, params)
                           for seed in range(8) for prompt in prompts}


class RecordingRemoteLM(RemoteLM):
    """Records each POSTed prompt and whether a pool thread sent it.

    The POST of a prompt in ``held`` waits until ``gate`` is set; ``holding``
    is set once one does.
    """

    def __init__(self, url, held=()):
        super().__init__(url)
        self.held = set(held)
        self.gate = threading.Event()
        self.holding = threading.Event()
        self.posts = []

    def _post(self, sentence, n, params):
        self.posts.append((sentence, threading.current_thread().name.startswith("gencp-remote")))
        if sentence in self.held:
            self.holding.set()
            assert self.gate.wait(timeout=5)
        return super()._post(sentence, n, params)


def _fixed(*hints):
    """An expansion that discloses ``hints`` whatever the answer."""
    return lambda answer: list(hints)


class TestSubtreePrefetch:
    def test_grandchild_is_posted_before_the_search_asks_for_its_parent(self, stub_server):
        server = stub_server(WIDE, delay=0.01)
        seen = {}

        class WaitingRemoteLM(RemoteLM):
            def predict(self, sentence, params, k=None):
                if sentence == "red":  # a child of the root, which the search asks first
                    deadline = time.perf_counter() + 2
                    while "red old" not in server.counts and time.perf_counter() < deadline:
                        time.sleep(0.005)
                    seen[sentence] = "red old" in server.counts
                return super().predict(sentence, params, k)

        assert _solve(WaitingRemoteLM(server.url)) == _solve(TableLM(WIDE))
        # Only the expansion of "red" announces "red old" before the search
        # has "red"'s answer; each prompt still goes out once.
        assert seen == {"red": True}
        assert set(server.counts.values()) == {1}

    def test_pool_starts_the_earliest_prompt_in_visit_order(self, stub_server, monkeypatch):
        monkeypatch.setattr(gencp.lm, "REMOTE_WORKERS", 1)
        order = ["hold", "c", "a", "a1", "a2", "a2x", "b"]
        server = stub_server({p: [("ok", 0.5)] for p in order})
        lm = RecordingRemoteLM(server.url, held={"hold"})
        lm.prefetch(["hold"], PARAMS)
        assert lm.holding.wait(timeout=5)  # the one pool thread is busy
        lm.prefetch([("a", _fixed("a1", ("a2", _fixed("a2x")))), "b"], PARAMS)
        lm.prefetch(["c"], PARAMS)  # a search announces from where it stands
        lm.gate.set()
        assert all([c.text for c in lm.predict(p, PARAMS)] == ["ok"] for p in order)
        # The later call's prompt first, then depth first: each prompt's
        # expansion before the next prompt of its batch.
        assert lm.posts == [(p, True) for p in order]
        assert [r["prompt"] for r in server.requests] == order

    def test_cancel_stops_the_expansion_of_a_prompt_in_flight(self, stub_server):
        server = stub_server({"a": [("ok", 0.5)], "a1": [("ok", 0.5)]})
        lm = RecordingRemoteLM(server.url, held={"a"})
        lm.prefetch([("a", _fixed("a1"))], PARAMS)
        assert lm.holding.wait(timeout=5)
        lm.cancel_prefetch()  # "a" is in flight, so only its expansion can be dropped
        lm.gate.set()
        lm.predict("a", PARAMS)
        lm.predict("a1", PARAMS)
        # "a1" was never queued, so the caller POSTed it.
        assert lm.posts == [("a", True), ("a1", False)]
        assert server.counts == {"a": 1, "a1": 1}

    def test_concurrent_searches_share_one_post_per_prompt(self, stub_server):
        # Each search's return cancels the others' queued prompts and drops
        # the expansions in flight; each prompt still goes out once.
        server = stub_server(WIDE)
        lm = RemoteLM(server.url)
        expected = {name: search(TableLM(WIDE)) for name, search in SEARCHES.items()}
        results, errors = [], []

        def run(name):
            try:
                results.append((name, SEARCHES[name](lm)))
            except Exception as exc:  # reported below; a thread cannot fail the test itself
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(name,)) for name in sorted(SEARCHES) * 3]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert sorted(results) == sorted((name, expected[name]) for name in sorted(SEARCHES) * 3)
        assert set(server.counts.values()) == {1}
