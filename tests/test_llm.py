"""Prompts, response parsing, caches, identification/generation, augmentation."""

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import requests
from hypothesis import example, given, settings
from hypothesis import strategies as st

import goe
from goe.graph import (
    InputError,
    TextAttributedGraph,
    make_class_split,
    sample_data_split,
    save_dataset,
)
from goe.llm import (
    DEFAULT_MODEL,
    ChatCache,
    GeneratedNode,
    HashEmbeddingProvider,
    HttpChatClient,
    HttpEmbeddingProvider,
    MockChatClient,
    PrecomputedEmbeddingProvider,
    PseudoOodSet,
    ReplayChatClient,
    ReplayMiss,
    annotation_accuracy,
    annotation_pool,
    augment_graph,
    build_generation_prompt,
    build_identification_prompt,
    chat_key,
    embed_texts,
    generate_pseudo_ood,
    identify_pseudo_ood,
    load_generated,
    load_pseudo_set,
    parse_generation_response,
    parse_identification_response,
    save_generated,
    save_pseudo_set,
    text_key,
    _complete_misses,
    _identification_head,
    _prefix_keyer,
    _top_k_lowest_id,
)
from goe.synthetic import PLANTED_CATEGORIES, CentroidEmbeddingProvider, make_planted_tag

# sha256 of pseudo_ood.json for 60 mock annotations on the seed-0 planted graph
PSEUDO_SET_SHA256 = "f188b52cfa52804cf7b6397b51c8e405c0d3864ad4dd9bc7d276c2892497e5b4"


@pytest.fixture()
def planted_setup(planted):
    graph, manifest = planted
    class_split = make_class_split(graph.labels, [0, 1])
    split = sample_data_split(graph, class_split, seed=0,
                              test_id_size=150, test_ood_size=150)
    return graph, manifest, class_split, split


class TestIdentificationPrompt:
    def test_contains_categories_and_none_instruction(self):
        prompt = build_identification_prompt(
            "some content", ["Diabetes Type 1", "Diabetes Type 2"], "paper")
        assert "Diabetes Type 1, Diabetes Type 2" in prompt
        assert 'say "none"' in prompt
        assert prompt.rstrip().endswith("some content")

    def test_category_order_preserved(self):
        prompt = build_identification_prompt("x", ["B", "A", "C"], "article")
        assert prompt.index("B, A, C") > 0

    def test_empty_text_rejected(self):
        with pytest.raises(ValueError, match="empty node text"):
            build_identification_prompt("", ["A", "B"], "paper")

    # braces, quotes, newlines, non-ASCII and astral characters
    TRICKY_PIECES = st.one_of(
        st.sampled_from(['{', '}', '{content}', '"', "'", '\\', '\n', '\r\n', '\x00']),
        st.characters(max_codepoint=0xFFFF, exclude_categories=("Cs",)),
        st.characters(min_codepoint=0x10000),
    )
    TRICKY_TEXT = st.lists(TRICKY_PIECES, min_size=1).map("".join)

    @given(text=TRICKY_TEXT,
           names=st.lists(TRICKY_TEXT, min_size=1, max_size=4),
           kind=st.sampled_from(["paper", "article", "post {x}"]),
           model=st.lists(TRICKY_PIECES, max_size=8).map("".join))
    @settings(max_examples=200, deadline=None)
    def test_prefix_key_equals_the_full_prompt_key(self, text, names, kind, model):
        key = _prefix_keyer(model, _identification_head(names, kind))
        assert key(text) == chat_key(model, build_identification_prompt(text, names, kind))

    def test_prefix_key_rejects_empty_text(self, planted_setup):
        key = _prefix_keyer(DEFAULT_MODEL, _identification_head(["A", "B"], "paper"))
        with pytest.raises(ValueError, match="empty node text"):
            key("")
        graph, manifest, class_split, split = planted_setup
        blank = dataclasses.replace(graph, texts=[""] * graph.node_count)
        with pytest.raises(ValueError, match="empty node text"):
            identify_pseudo_ood(blank, manifest, class_split, split,
                                client=MockChatClient(), cache=None, sample_size=5, seed=0)


class TestGenerationPrompt:
    def test_count_and_category_substituted(self):
        prompt = build_generation_prompt("Reinforcement Learning", 10, "paper")
        assert "generate 10 paper(s)" in prompt
        assert "'Reinforcement Learning'" in prompt
        assert "Title:" in prompt and "Abstract:" in prompt

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            build_generation_prompt("X", 0, "paper")

    def test_empty_category_rejected(self):
        with pytest.raises(ValueError):
            build_generation_prompt("", 3, "paper")


class TestParseIdentification:
    NAMES = ["Diabetes Type 1", "Diabetes Type 2"]

    def test_none_with_punctuation(self):
        assert parse_identification_response("None.", self.NAMES) == ("ood", None)

    def test_unique_category_match(self):
        kind, idx = parse_identification_response(
            "This belongs to Diabetes Type 2", self.NAMES)
        assert (kind, idx) == ("id", 1)

    def test_two_categories_unparseable(self):
        kind, _ = parse_identification_response(
            "Could be Diabetes Type 1 or Diabetes Type 2", self.NAMES)
        assert kind == "unparseable"

    def test_no_match_without_none_unparseable(self):
        kind, _ = parse_identification_response("Cardiology, clearly.", self.NAMES)
        assert kind == "unparseable"

    def test_none_wins_over_category_mention(self):
        kind, _ = parse_identification_response(
            "none of these; it reads like Diabetes Type 1", self.NAMES)
        assert kind == "ood"

    def test_robust_to_random_casing_and_punctuation(self):
        rng = np.random.default_rng(0)
        punct = list(".,;:!?\"'()[]")
        for _ in range(100):
            word = "".join(
                ch.upper() if rng.random() < 0.5 else ch for ch in "none")
            decorated = (rng.choice(punct) + word + rng.choice(punct)
                         if rng.random() < 0.7 else word)
            assert parse_identification_response(decorated, self.NAMES)[0] == "ood"

            name = self.NAMES[int(rng.integers(0, 2))]
            cased = "".join(
                ch.upper() if rng.random() < 0.5 else ch.lower() for ch in name)
            kind, idx = parse_identification_response(f"  {cased}! ", self.NAMES)
            assert kind == "id" and self.NAMES[idx] == name

    def test_parse_is_idempotent_under_its_own_normalization(self):
        for raw in ["NONE!!", "diabetes TYPE 2?", "???"]:
            first = parse_identification_response(raw, self.NAMES)
            again = parse_identification_response(raw.lower(), self.NAMES)
            assert first == again


class TestParseGeneration:
    def test_two_pairs(self):
        nodes = parse_generation_response(
            "Title: A\nAbstract: B\nTitle: C\nAbstract: D")
        assert [(n.title, n.body) for n in nodes] == [("A", "B"), ("C", "D")]
        assert nodes[0].text == "A. B"

    def test_bullets_and_numbering(self):
        nodes = parse_generation_response("1. Title: A\n   Abstract: B")
        assert len(nodes) == 1
        nodes = parse_generation_response("- **Title:** A\n- **Abstract:** B")
        assert len(nodes) == 1

    def test_multiline_abstract(self):
        nodes = parse_generation_response(
            "Title: A\nAbstract: first line\nsecond line\nTitle: C\nAbstract: D")
        assert nodes[0].body == "first line second line"
        assert len(nodes) == 2

    def test_trailing_incomplete_pair_dropped(self):
        nodes = parse_generation_response(
            "Title: A\nAbstract: B\nTitle: orphan title")
        assert len(nodes) == 1

    def test_abstract_alone_rejected(self):
        with pytest.raises(ValueError, match="unparseable generation"):
            parse_generation_response("Abstract: B")


class TestMockClient:
    def test_identification_picks_mentioned_category(self):
        client = MockChatClient()
        prompt = build_identification_prompt(
            f"field notes on {PLANTED_CATEGORIES[0].lower()}",
            list(PLANTED_CATEGORIES[:2]), "report")
        assert client.complete("m", [{"role": "user", "content": prompt}]) \
            == PLANTED_CATEGORIES[0]

    def test_identification_falls_back_to_none(self):
        client = MockChatClient()
        prompt = build_identification_prompt(
            "unrelated content about volcanoes",
            list(PLANTED_CATEGORIES[:2]), "report")
        assert client.complete("m", [{"role": "user", "content": prompt}]) == "none"

    def test_generation_block_count(self):
        client = MockChatClient()
        prompt = build_generation_prompt("Gamma Morphology", 7, "report")
        reply = client.complete("m", [{"role": "user", "content": prompt}])
        assert len(parse_generation_response(reply)) == 7

    def test_deterministic(self):
        client = MockChatClient()
        prompt = build_generation_prompt("X Studies", 3, "report")
        msg = [{"role": "user", "content": prompt}]
        assert client.complete("m", msg) == client.complete("m", msg)


class TestChatCache:
    def test_put_get_and_reload(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ChatCache(path)
        record = {"key": chat_key("m", "p"), "node_id": 3, "prompt": "p",
                  "response": "r", "parsed": "ood", "model": "m",
                  "timestamp": "2026-01-01T00:00:00+00:00"}
        cache.put(record)
        cache.put(record)  # duplicate keys are ignored
        reloaded = ChatCache(path)
        assert len(reloaded) == 1
        assert reloaded.get(record["key"]) == "r"

    @staticmethod
    def _record(prompt):
        return {"key": chat_key("m", prompt), "node_id": None, "prompt": prompt,
                "response": f"reply to {prompt}", "parsed": "", "model": "m",
                "timestamp": ""}

    def test_torn_last_line_is_skipped_then_cut_on_put(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = [json.dumps(self._record(p)) + "\n" for p in ("a", "b", "c")]
        path.write_text(lines[0] + lines[1] + lines[2][:25])
        with pytest.warns(UserWarning, match="torn last line 3") as caught:
            cache = ChatCache(path)
        assert str(path) in str(caught[0].message)
        assert len(cache) == 2
        assert cache.get(chat_key("m", "c")) is None

        cache.put(self._record("c"))
        assert path.read_text() == "".join(lines)
        reloaded = ChatCache(path)
        assert len(reloaded) == 3
        assert reloaded.get(chat_key("m", "c")) == "reply to c"

    def test_unterminated_complete_last_line_is_kept(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = [json.dumps(self._record(p)) + "\n" for p in ("a", "b")]
        path.write_text(lines[0] + lines[1].rstrip("\n"))
        cache = ChatCache(path)
        assert len(cache) == 2
        cache.put(self._record("c"))
        assert len(ChatCache(path)) == 3

    def test_bad_inner_line_raises_with_its_number(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        good = json.dumps(self._record("a")) + "\n"
        path.write_text(good + '{"key": "torn\n' + good)
        with pytest.raises(ValueError, match="line 2 is not a chat record"):
            ChatCache(path)

    def test_replay_client_roundtrip(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ChatCache(path)
        cache.put({"key": chat_key("m", "hello"), "node_id": None,
                   "prompt": "hello", "response": "world", "parsed": "",
                   "model": "m", "timestamp": ""})
        client = ReplayChatClient(path)
        assert client.complete("m", [{"role": "user", "content": "hello"}]) == "world"
        with pytest.raises(RuntimeError, match="no cached response"):
            client.complete("m", [{"role": "user", "content": "missing"}])

    def test_replay_client_skips_a_torn_last_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = [json.dumps(self._record(p)) + "\n" for p in ("a", "b", "c")]
        path.write_text(lines[0] + lines[1] + lines[2][:25])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            client = ReplayChatClient(path)     # reads the file only when first asked
        with pytest.warns(UserWarning, match="torn last line 3"):
            reply = client.complete("m", [{"role": "user", "content": "a"}])
        assert reply == "reply to a"
        assert client.complete("m", [{"role": "user", "content": "b"}]) == "reply to b"
        with pytest.raises(RuntimeError, match="no cached response"):
            client.complete("m", [{"role": "user", "content": "c"}])
        assert path.read_text() == lines[0] + lines[1] + lines[2][:25]

    def test_two_writers_on_one_path_keep_every_record(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        writers = [ChatCache(path), ChatCache(path)]

        def put_many(cache, name):
            for i in range(500):
                cache.put(self._record(f"{name} {i} " + "x" * 2000))

        threads = [threading.Thread(target=put_many, args=(cache, name))
                   for cache, name in zip(writers, "ab")]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = ChatCache(path)
        assert len(reloaded) == 1000
        assert len(path.read_text().splitlines()) == 1000

    @pytest.mark.parametrize("tail", ["torn", "unterminated"])
    def test_pending_repair_keeps_another_writers_records(self, tmp_path, tail):
        path = tmp_path / "cache.jsonl"
        lines = [json.dumps(self._record(p)) + "\n" for p in ("a", "b", "c")]
        if tail == "torn":
            path.write_text(lines[0] + lines[1] + lines[2][:25])
            kept = 2
        else:
            path.write_text(lines[0] + lines[1] + lines[2].rstrip("\n"))
            kept = 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            a, b = ChatCache(path), ChatCache(path)
        b.put(self._record("from b"))
        a.put(self._record("from a"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reloaded = ChatCache(path)
        assert len(reloaded) == kept + 2
        for prompt in ("a", "b", "from a", "from b"):
            assert reloaded.get(chat_key("m", prompt)) is not None

    def test_short_write_is_cut_back_and_raises(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        cache = ChatCache(path)
        cache.put(self._record("a"))
        before = path.read_bytes()
        real_write = os.write
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", lambda fd, data: real_write(fd, data[:10]))
            with pytest.raises(OSError, match="short write"):
                cache.put(self._record("b"))
        assert path.read_bytes() == before
        assert cache.get(chat_key("m", "b")) is None
        cache.put(self._record("b"))
        assert len(ChatCache(path)) == 2

    def test_loaded_cache_holds_responses_not_prompts(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        records, prompt_len = 2000, 2000
        with path.open("w") as fh:
            for i in range(records):
                record = self._record(f"{i:05d} " + "p" * prompt_len)
                record["response"] = f"reply {i}"
                fh.write(json.dumps(record) + "\n")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            cache = ChatCache(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(cache) == records
        assert held < records * prompt_len

    def test_put_then_reload_serves_the_same_response(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record = self._record("long prompt " * 100)
        cache = ChatCache(path)
        cache.put(record)
        assert cache.get(record["key"]) == record["response"]
        assert json.loads(path.read_text()) == record
        assert ChatCache(path).get(record["key"]) == record["response"]

    @pytest.mark.parametrize("line, field", [
        ('{"response": "r"}', "key"),
        ('{"key": "k"}', "response"),
        ('{"key": 7, "response": "r"}', "key"),
        ('{"key": "k", "response": null}', "response"),
        ('["k", "r"]', "key"),
    ], ids=["no-key", "no-response", "int-key", "null-response", "not-an-object"])
    @pytest.mark.parametrize("terminated", [True, False], ids=["inner", "last"])
    def test_record_without_string_key_or_response_raises(self, tmp_path, line, field,
                                                           terminated):
        path = tmp_path / "cache.jsonl"
        good = json.dumps(self._record("a")) + "\n"
        path.write_text(good + line + "\n" + good if terminated else good + line)
        with pytest.raises(ValueError) as caught:
            ChatCache(path)
        message = str(caught.value)
        assert message == f"{path}: line 2 is not a chat record: no string {field!r}"

    def _file_of(self, tmp_path, prompts):
        path = tmp_path / "cache.jsonl"
        path.write_text("".join(json.dumps(self._record(p)) + "\n" for p in prompts))
        return path

    @staticmethod
    def _count_loads(monkeypatch) -> list[int]:
        """Count the file parses, without keeping a reference to any cache."""
        loads = []
        real_load = ChatCache._load

        def load(cache):
            loads.append(1)
            real_load(cache)

        monkeypatch.setattr(ChatCache, "_load", load)
        return loads

    @pytest.mark.parametrize("client_first", [True, False], ids=["client-first", "cache-first"])
    def test_a_client_and_a_cache_on_one_file_parse_it_once(self, tmp_path, monkeypatch,
                                                             client_first):
        path = self._file_of(tmp_path, ("a", "b"))
        loads = self._count_loads(monkeypatch)
        if client_first:
            client, cache = ReplayChatClient(path), ChatCache(path)
        else:
            cache, client = ChatCache(path), ReplayChatClient(path)
        assert len(loads) == 1
        assert len(cache) == 2
        assert client.complete("m", [{"role": "user", "content": "b"}]) == "reply to b"
        # each cache owns its responses, as after two loads
        cache.put(self._record("c"))
        assert cache.get(chat_key("m", "c")) == "reply to c"
        with pytest.raises(ReplayMiss):
            client.complete("m", [{"role": "user", "content": "c"}])

    def test_opens_racing_a_writer_never_copy_a_stale_parse(self, tmp_path):
        """Each cache opened while another thread appends holds every record
        put before the open began, and none that had not begun when it ended."""
        path = tmp_path / "cache.jsonl"
        writer = ChatCache(path)
        writer.put(self._record("seed"))
        started, done, bad = [0], [0], []

        def write():
            for i in range(60):
                started[0] += 1
                writer.put(self._record(f"w {i}"))
                done[0] += 1
                time.sleep(0)   # let the readers open between puts

        def read():
            opened = []
            while done[0] < 60 and not bad:
                low = done[0]
                opened.append(ChatCache(path))
                high = started[0]
                if not low <= len(opened[-1]) - 1 <= high:
                    bad.append((low, len(opened[-1]) - 1, high))
                del opened[:-3]

        threads = [threading.Thread(target=write)] + [threading.Thread(target=read)
                                                       for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        assert len(ChatCache(path)) == 61


class TestIdentify:
    def test_always_none_mock_flags_everything(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        client = MockChatClient(reply_fn=lambda prompt: "none")
        pseudo, annotations = identify_pseudo_ood(
            graph, manifest, class_split, split, client=client,
            cache=ChatCache(tmp_path / "c.jsonl"), sample_size=40, seed=0)
        assert len(pseudo) == 40
        assert len(annotations) == 40

    def test_category_only_mock_yields_empty_set(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        client = MockChatClient(reply_fn=lambda prompt: PLANTED_CATEGORIES[0])
        pseudo, _ = identify_pseudo_ood(
            graph, manifest, class_split, split, client=client,
            cache=ChatCache(tmp_path / "c.jsonl"), sample_size=30, seed=0)
        assert len(pseudo) == 0
        # downstream exposure training must refuse an empty pseudo set
        from goe.gcn import TrainConfig, train_classifier
        from goe.graph import normalize_adjacency
        with pytest.raises(ValueError, match="no pseudo-OOD"):
            train_classifier(graph.embeddings, normalize_adjacency(graph),
                             class_split.compact_labels(graph.labels), split, TrainConfig(),
                             "exposure", id_class_count=2,
                             pseudo_ood_ids=pseudo.node_ids)

    def test_pool_excludes_evaluation_splits(self, planted_setup):
        graph, _, _, split = planted_setup
        pool = annotation_pool(graph, split)
        assert np.intersect1d(pool, split.evaluation_nodes()).size == 0

    def test_sampled_nodes_stay_out_of_eval_splits(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        pseudo, annotations = identify_pseudo_ood(
            graph, manifest, class_split, split, client=MockChatClient(),
            cache=ChatCache(tmp_path / "c.jsonl"), sample_size=60, seed=0)
        annotated = np.array([a.node_id for a in annotations])
        assert np.intersect1d(annotated, split.evaluation_nodes()).size == 0

    def test_replay_and_cache_determinism(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        cache_path = tmp_path / "c.jsonl"
        first, ann_first = identify_pseudo_ood(
            graph, manifest, class_split, split, client=MockChatClient(),
            cache=ChatCache(cache_path), sample_size=50, seed=0)
        entries_after_first = len(ChatCache(cache_path))

        replay = ReplayChatClient(cache_path)
        second, ann_second = identify_pseudo_ood(
            graph, manifest, class_split, split, client=replay,
            cache=ChatCache(cache_path), sample_size=50, seed=0)
        assert np.array_equal(first.node_ids, second.node_ids)
        assert [a.raw_response for a in ann_first] == \
            [a.raw_response for a in ann_second]
        assert len(ChatCache(cache_path)) == entries_after_first

    def test_concurrency_does_not_change_results(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        serial, _ = identify_pseudo_ood(
            graph, manifest, class_split, split, client=MockChatClient(),
            cache=ChatCache(tmp_path / "a.jsonl"), sample_size=40, seed=0,
            concurrency=1)
        parallel, _ = identify_pseudo_ood(
            graph, manifest, class_split, split, client=MockChatClient(),
            cache=ChatCache(tmp_path / "b.jsonl"), sample_size=40, seed=0,
            concurrency=4)
        assert np.array_equal(serial.node_ids, parallel.node_ids)

    def test_failing_call_stops_the_pass_and_keeps_earlier_responses(
            self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        workers, failing_call = 2, 10
        lock = threading.Lock()
        calls, returned, failed = [], [], threading.Event()
        mock = MockChatClient()

        class FlakyClient:
            def complete(self, model, messages, **kwargs):
                with lock:
                    calls.append(messages[-1]["content"])
                    number = len(calls)
                if number == failing_call:
                    failed.set()
                    raise ConnectionError(f"call {number} failed")
                response = mock.complete(model, messages, **kwargs)
                with lock:
                    if not failed.is_set():
                        returned.append(messages[-1]["content"])
                return response

        cache_path = tmp_path / "c.jsonl"
        with pytest.raises(ConnectionError, match="call 10 failed"):
            identify_pseudo_ood(graph, manifest, class_split, split, client=FlakyClient(),
                                cache=ChatCache(cache_path), sample_size=80, seed=0,
                                concurrency=workers)
        assert len(calls) <= failing_call + 8 * workers
        reloaded = ChatCache(cache_path)
        for prompt in returned:
            assert reloaded.get(chat_key(DEFAULT_MODEL, prompt)) is not None

    def test_cold_log_holds_records_in_sample_order_at_any_concurrency(
            self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        mock = MockChatClient()

        class JitteredClient:
            """Replies after a delay set by the prompt, so calls finish out of order."""

            def complete(self, model, messages, **kwargs):
                prompt = messages[-1]["content"]
                time.sleep(int(hashlib.sha256(prompt.encode()).hexdigest(), 16) % 4 / 1000)
                return mock.complete(model, messages, **kwargs)

        logs = []
        for concurrency in (1, 4):
            path = tmp_path / f"c{concurrency}.jsonl"
            _, annotations = identify_pseudo_ood(
                graph, manifest, class_split, split, client=JitteredClient(),
                cache=ChatCache(path), sample_size=60, seed=0, concurrency=concurrency)
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for rec in records:
                del rec["timestamp"]
            assert [rec["node_id"] for rec in records] == [a.node_id for a in annotations]
            logs.append(records)
        assert logs[0] == logs[1]

    @pytest.mark.parametrize("workers", [2, 3])
    def test_blocked_oldest_call_neither_deadlocks_nor_widens_the_window(self, workers):
        window = 8 * workers
        lock = threading.Lock()
        started, others_started = [], threading.Event()
        waited = []

        class HeadBlockedClient:
            """The first call returns only once ``window - 1`` other calls have started."""

            def complete(self, model, messages, **kwargs):
                with lock:
                    started.append(messages[-1]["content"])
                    number = len(started)
                if number == window:
                    others_started.set()
                if number == 1:
                    waited.append(others_started.wait(timeout=10))
                return messages[-1]["content"]

        misses = [(i, f"key{i}", f"prompt {i}") for i in range(5 * window)]
        seen = []

        def on_response(miss, response):
            with lock:
                seen.append((miss[0], response, len(started)))

        _complete_misses(HeadBlockedClient(), DEFAULT_MODEL, misses, on_response,
                         workers=workers)
        assert waited == [True]
        assert [(i, response) for i, response, _ in seen] == \
            [(i, prompt) for i, _, prompt in misses]
        # nothing is submitted while the oldest call blocks the window
        assert seen[0][2] == window

    def test_mock_client_answers_in_the_calling_thread(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        threads = set()

        def reply(prompt):
            threads.add(threading.get_ident())
            return "none"

        client = MockChatClient(reply_fn=reply)
        identify_pseudo_ood(graph, manifest, class_split, split, client=client,
                            cache=ChatCache(tmp_path / "c.jsonl"), sample_size=40, seed=0,
                            concurrency=4)
        assert threads == {threading.get_ident()}
        assert client.calls == 40

    def test_in_process_failure_stops_at_the_failing_call(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        mock = MockChatClient()

        def reply(prompt):
            if client.calls == 10:
                raise ConnectionError("call 10 failed")
            return mock.complete(DEFAULT_MODEL, [{"role": "user", "content": prompt}])

        client = MockChatClient(reply_fn=reply)
        cache_path = tmp_path / "c.jsonl"
        with pytest.raises(ConnectionError, match="call 10 failed"):
            identify_pseudo_ood(graph, manifest, class_split, split, client=client,
                                cache=ChatCache(cache_path), sample_size=80, seed=0,
                                concurrency=4)
        assert client.calls == 10
        assert len(ChatCache(cache_path)) == 9
        assert len(cache_path.read_text().splitlines()) == 9

    def test_mock_cold_log_and_pseudo_set_do_not_depend_on_concurrency(
            self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        outputs = []
        for concurrency in (1, 2, 4):
            path = tmp_path / f"c{concurrency}.jsonl"
            pseudo, _ = identify_pseudo_ood(
                graph, manifest, class_split, split, client=MockChatClient(),
                cache=ChatCache(path), sample_size=60, seed=0, concurrency=concurrency)
            records = [json.loads(line) for line in path.read_text().splitlines()]
            for rec in records:
                del rec["timestamp"]
            save_pseudo_set(pseudo, tmp_path / f"p{concurrency}.json")
            outputs.append((records, (tmp_path / f"p{concurrency}.json").read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]
        assert hashlib.sha256(outputs[0][1]).hexdigest() == PSEUDO_SET_SHA256

    def test_replay_keeps_the_cache_file_and_pseudo_set_bytes(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        cache_path = tmp_path / "annotations.jsonl"
        cold, _ = identify_pseudo_ood(graph, manifest, class_split, split,
                                      client=MockChatClient(), cache=ChatCache(cache_path),
                                      sample_size=60, seed=0)
        save_pseudo_set(cold, tmp_path / "cold.json")
        logged = cache_path.read_bytes()
        assert len(logged.splitlines()) == 60

        replayed, _ = identify_pseudo_ood(graph, manifest, class_split, split,
                                          client=ReplayChatClient(cache_path),
                                          cache=ChatCache(cache_path), sample_size=60, seed=0)
        save_pseudo_set(replayed, tmp_path / "replay.json")
        assert cache_path.read_bytes() == logged
        pseudo_bytes = (tmp_path / "cold.json").read_bytes()
        assert (tmp_path / "replay.json").read_bytes() == pseudo_bytes
        assert hashlib.sha256(pseudo_bytes).hexdigest() == PSEUDO_SET_SHA256

    def test_mock_identifier_is_accurate_on_planted_graph(self, planted_setup, tmp_path):
        graph, manifest, class_split, split = planted_setup
        pseudo, annotations = identify_pseudo_ood(
            graph, manifest, class_split, split, client=MockChatClient(),
            cache=ChatCache(tmp_path / "c.jsonl"), sample_size=80, seed=0)
        # planted texts name their category, so the mock is a perfect annotator
        assert annotation_accuracy(annotations, graph.labels, class_split) == 1.0
        assert np.all(np.isin(graph.labels[pseudo.node_ids], class_split.ood_classes))

    def test_pool_smaller_than_sample_rejected(self, planted_setup):
        graph, manifest, class_split, split = planted_setup
        with pytest.raises(ValueError, match="smaller than sample"):
            identify_pseudo_ood(graph, manifest, class_split, split,
                                client=MockChatClient(), cache=None,
                                sample_size=10_000, seed=0)

    def test_all_unparseable_rejected(self, planted_setup):
        graph, manifest, class_split, split = planted_setup
        gibberish = MockChatClient(reply_fn=lambda prompt: "???")
        with pytest.raises(RuntimeError, match="unparseable"):
            identify_pseudo_ood(graph, manifest, class_split, split,
                                client=gibberish, cache=None,
                                sample_size=20, seed=0)


class TestHttpChatClient:
    class Reply:
        def __init__(self, status_code, headers=None):
            self.status_code = status_code
            self.headers = headers or {}
            self.text = "body"

        def json(self):
            return {"choices": [{"message": {"content": "ok"}}]}

    def client(self, monkeypatch, statuses):
        posts, sleeps = [], []
        replies = iter(statuses)

        def post(url, **kwargs):
            posts.append(url)
            return next(replies)

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr("goe.llm.time.sleep", sleeps.append)
        return HttpChatClient(base_url="http://chat.invalid"), posts, sleeps

    def complete(self, client):
        return client.complete("m", [{"role": "user", "content": "hi"}])

    @pytest.mark.parametrize("retry_after, waited", [
        ("7", 7.0),
        ("Wed, 21 Oct 2015 07:28:00 GMT", 1),
        (None, 1),
    ], ids=["seconds", "http-date", "absent"])
    def test_rate_limit_is_retried(self, monkeypatch, retry_after, waited):
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        client, posts, sleeps = self.client(
            monkeypatch, [self.Reply(429, headers), self.Reply(200)])
        assert self.complete(client) == "ok"
        assert len(posts) == 2
        assert sleeps == [waited]

    def test_client_error_fails_after_one_call(self, monkeypatch):
        client, posts, sleeps = self.client(monkeypatch, [self.Reply(400), self.Reply(200)])
        with pytest.raises(RuntimeError, match="rejected \\(400\\)"):
            self.complete(client)
        assert len(posts) == 1
        assert sleeps == []

    def test_persistent_server_error_raises_after_max_attempts(self, monkeypatch):
        client, posts, sleeps = self.client(monkeypatch, [self.Reply(503)] * 10)
        with pytest.raises(RuntimeError, match="after 4 attempts"):
            self.complete(client)
        assert len(posts) == client.max_attempts == 4
        assert sleeps == [1, 2, 4]

    def test_long_retry_after_fails_instead_of_sleeping(self, monkeypatch):
        client, posts, sleeps = self.client(
            monkeypatch, [self.Reply(429, {"Retry-After": "3600"}), self.Reply(200)])
        with pytest.raises(InputError, match="/chat/completions: rate limited with "
                                             "Retry-After 3600 s, over the 60 s"):
            self.complete(client)
        assert len(posts) == 1
        assert sleeps == []

    @pytest.mark.parametrize("body, fault", [
        (b"<html>busy</html>", "reply is not JSON: '<html>busy</html>'"),
        (b'{"choices": []}', "reply has no choices[0].message.content string"),
        (b'{"choices": [{"message": {"content": null}}]}',
         "reply has no choices[0].message.content string"),
    ], ids=["not-json", "no-choice", "null-content"])
    def test_malformed_reply_fails_in_one_line_without_retry(self, monkeypatch, body, fault):
        reply = requests.models.Response()
        reply.status_code, reply._content, reply.encoding = 200, body, "utf-8"
        client, posts, sleeps = self.client(monkeypatch, [reply, self.Reply(200)])
        with pytest.raises(InputError) as raised:
            self.complete(client)
        assert str(raised.value) == f"http://chat.invalid/chat/completions: {fault}"
        assert len(posts) == 1
        assert sleeps == []


class TestHttpEmbeddingProvider:
    class Reply(TestHttpChatClient.Reply):
        def json(self):
            return {"data": [{"index": 1, "embedding": [0.0, 1.0]},
                             {"index": 0, "embedding": [1.0, 0.0]}]}

    @pytest.mark.parametrize("retry_after", ["7", "Wed, 21 Oct 2015 07:28:00 GMT", None],
                             ids=["seconds", "http-date", "absent"])
    def test_rate_limit_waits_as_the_chat_client_does(self, monkeypatch, retry_after):
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        chat, _, chat_sleeps = TestHttpChatClient().client(
            monkeypatch, [self.Reply(429, headers), TestHttpChatClient.Reply(200)])
        assert chat.complete("m", [{"role": "user", "content": "hi"}]) == "ok"

        posts, sleeps = [], []
        replies = iter([self.Reply(429, headers), self.Reply(200)])

        def post(url, **kwargs):
            posts.append((url, kwargs["json"]))
            return next(replies)

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr("goe.llm.time.sleep", sleeps.append)
        provider = HttpEmbeddingProvider("e", base_url="http://embed.invalid")
        out = provider.embed(["a", "b"])
        assert np.array_equal(out, [[1.0, 0.0], [0.0, 1.0]])
        assert posts == [("http://embed.invalid/embeddings",
                          {"model": "e", "input": ["a", "b"]})] * 2
        assert sleeps == chat_sleeps and len(sleeps) == 1

    @pytest.mark.parametrize("bodies, message", [
        ([{"object": "list"}], "reply has no data list of items"),
        # 2 + 1 texts, answered 1 + 2: the total matches, the batches do not
        ([{"data": [{"index": 0, "embedding": [1.0, 0.0]}]},
          {"data": [{"index": 0, "embedding": [0.0, 1.0]},
                    {"index": 1, "embedding": [1.0, 1.0]}]}],
         "reply holds 1 items for a batch of 2 texts"),
        ([{"data": [{"index": 0, "embedding": [1.0, 0.0]},
                    {"index": 2, "embedding": [0.0, 1.0]}]}],
         "reply item indices are not 0..1"),
        ([{"data": [{"index": 0, "embedding": [1.0, 0.0]}, {"index": 1}]}],
         "a reply item has no embedding list"),
    ], ids=["no-data", "short-then-long", "bad-index", "no-embedding"])
    def test_a_malformed_reply_fails_in_one_line_without_retry(self, monkeypatch, bodies,
                                                               message):
        posts = []

        class Reply(TestHttpChatClient.Reply):
            def __init__(self, body):
                super().__init__(200)
                self.body = body

            def json(self):
                return self.body

        replies = iter([Reply(body) for body in bodies])

        def post(url, **kwargs):
            posts.append(url)
            return next(replies)

        monkeypatch.setattr(requests, "post", post)
        monkeypatch.setattr("goe.llm.EMBED_BATCH_SIZE", 2)
        provider = HttpEmbeddingProvider("e", base_url="http://embed.invalid")
        with pytest.raises(InputError, match=re.escape(f"http://embed.invalid/embeddings: "
                                                       f"{message}")):
            provider.embed(["a", "b", "c"])
        assert posts == ["http://embed.invalid/embeddings"]


def test_annotation_accuracy_hand_case():
    from goe.llm import LlmAnnotation
    labels = np.array([0, 1, 2, 2])
    class_split = make_class_split(labels, [0, 1])
    annotations = [
        LlmAnnotation(0, "r", "id", 0),            # ID predicted ID: correct
        LlmAnnotation(1, "r", "ood", None),        # ID predicted OOD: wrong
        LlmAnnotation(2, "r", "ood", None),        # OOD predicted OOD: correct
        LlmAnnotation(3, "r", "unparseable", None),  # counts as ID: wrong
    ]
    assert annotation_accuracy(annotations, labels, class_split) == 0.5


class TestGenerate:
    def test_mock_generation_deterministic_quota(self, tmp_path):
        nodes, warnings = generate_pseudo_ood(
            ["Gamma Morphology"], per_class=10, object_kind="report",
            client=MockChatClient(), cache=ChatCache(tmp_path / "c.jsonl"))
        assert len(nodes) == 10
        assert warnings == []
        again, _ = generate_pseudo_ood(
            ["Gamma Morphology"], per_class=10, object_kind="report",
            client=MockChatClient(), cache=ChatCache(tmp_path / "c.jsonl"))
        assert [n.title for n in nodes] == [n.title for n in again]

    def test_quota_list_per_category(self, tmp_path):
        nodes, _ = generate_pseudo_ood(
            ["A Studies", "B Studies"], per_class=[3, 5], object_kind="paper",
            client=MockChatClient(), cache=None)
        assert sum(n.category == "A Studies" for n in nodes) == 3
        assert sum(n.category == "B Studies" for n in nodes) == 5

    def test_short_yield_triggers_retry_and_warning(self):
        calls = []

        def stingy(prompt):
            calls.append(prompt)
            return "Title: only one\nAbstract: short supply"

        nodes, warnings = generate_pseudo_ood(
            ["Rare Topic"], per_class=4, object_kind="paper",
            client=MockChatClient(reply_fn=stingy), cache=None)
        assert len(calls) == 2          # first call plus one follow-up
        assert len(nodes) == 2
        assert warnings and warnings[0]["requested"] == 4

    def test_zero_yield_rejected(self):
        broken = MockChatClient(reply_fn=lambda prompt: "no structure here")
        with pytest.raises(RuntimeError, match="no nodes"):
            generate_pseudo_ood(["X"], per_class=3, object_kind="paper",
                                client=broken, cache=None)

    def test_generated_jsonl_roundtrip(self, tmp_path):
        nodes = [GeneratedNode("C", "T1", "B1"), GeneratedNode("C", "T2", "B2")]
        path = tmp_path / "generated.jsonl"
        save_generated(nodes, path)
        loaded = load_generated(path)
        assert [(n.category, n.title, n.body) for n in loaded] == \
            [("C", "T1", "B1"), ("C", "T2", "B2")]


class TestEmbeddingProviders:
    def test_hash_provider_deterministic_unit_rows(self):
        provider = HashEmbeddingProvider(dim=24)
        m = embed_texts(provider, ["alpha", "alpha", "beta"])
        assert np.array_equal(m[0], m[1])
        assert not np.array_equal(m[0], m[2])
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-6)

    def test_outputs_are_pinned(self):
        """Both providers draw their directions from one hash-seeded helper;
        the digests are those of the two copies it replaced."""
        hashed = HashEmbeddingProvider(8).embed(["alpha", "", "β text", "alpha"])
        assert hashlib.sha256(hashed.tobytes()).hexdigest() == (
            "ea0c5a88a65085d7df3dde0d619d864b1b5a9b8caf9c322abf284eb8f89cba67")
        graph, manifest = make_planted_tag(seed=0)
        names = manifest.category_names
        centroid = CentroidEmbeddingProvider(graph, manifest).embed(
            [f"a {names[0]} paper", "nothing in common", names[2].upper()])
        assert hashlib.sha256(centroid.tobytes()).hexdigest() == (
            "c032dc0bc05a65092bdac071e076f0308215dd2b50eb250aefcf04bbaf0b3b71")

    def test_empty_text_list(self):
        provider = HashEmbeddingProvider(dim=8)
        m = embed_texts(provider, [])
        assert m.shape == (0, 8)

    def test_dimension_mismatch_rejected(self):
        provider = HashEmbeddingProvider(dim=8)
        with pytest.raises(ValueError, match="dimension mismatch"):
            embed_texts(provider, ["x"], expected_dim=16)

    def test_precomputed_lookup(self, tmp_path):
        path = tmp_path / "vectors.jsonl"
        with path.open("w") as fh:
            fh.write(json.dumps({"key": text_key("hello"), "vector": [1.0, 2.0]}) + "\n")
        provider = PrecomputedEmbeddingProvider(path)
        np.testing.assert_array_equal(provider.embed(["hello"]), [[1.0, 2.0]])
        with pytest.raises(InputError, match="vectors.jsonl: no embedding for text hash "
                                             f"{text_key('unknown')}$"):
            provider.embed(["unknown"])


class TestAugmentGraph:
    @staticmethod
    def _texts(rows):
        return [f"t{i}. b{i}" for i in range(len(rows))]

    def test_none_mode_preserves_structure(self, planted):
        graph, _ = planted
        rows = np.random.default_rng(0).normal(size=(10, graph.embedding_dim))
        augmented = augment_graph(graph, self._texts(rows), rows, edge_mode="none")
        n = graph.node_count
        assert augmented.node_count == n + 10
        assert np.array_equal(augmented.edges, graph.edges)
        assert np.array_equal(augmented.embeddings[:n], graph.embeddings)
        assert np.array_equal(augmented.embeddings[n:], rows.astype(graph.embeddings.dtype))
        assert augmented.texts[n:] == self._texts(rows)
        assert np.all(augmented.labels[n:] == -1)

    def test_knn_connects_identical_row_to_its_source(self, planted):
        graph, _ = planted
        rows = graph.embeddings[7:8].astype(np.float64)
        augmented = augment_graph(graph, self._texts(rows), rows, edge_mode="knn", knn_k=1)
        added = set(map(tuple, augmented.edges.tolist())) \
            - set(map(tuple, graph.edges.tolist()))
        assert added == {(7, graph.node_count)}

    def test_knn_edges_match_stable_argsort_reference(self):
        # Rows drawn from 4 distinct vectors, so most similarities tie and the
        # k-th place is usually shared: the lower id must win it.
        rng = np.random.default_rng(11)
        n, dim, k = 60, 5, 7
        palette = rng.normal(size=(4, dim)).astype(np.float32)
        embeddings = palette[rng.integers(0, 4, size=n)]
        pairs = {tuple(sorted(p)) for p in rng.integers(0, n, size=(80, 2)) if p[0] != p[1]}
        graph = TextAttributedGraph(
            node_count=n, edges=np.array(sorted(pairs), dtype=np.int64),
            texts=[f"n{i}" for i in range(n)], embeddings=embeddings,
            labels=np.zeros(n, dtype=np.int64))
        rows = np.vstack([palette.astype(np.float64), rng.normal(size=(3, dim)),
                          np.zeros((1, dim))])
        augmented = augment_graph(graph, self._texts(rows), rows, edge_mode="knn", knn_k=k)

        base = embeddings.astype(np.float64)
        base_norm = np.linalg.norm(base, axis=1)
        extra = []
        for offset, v in enumerate(rows):
            sims = (base @ v) / (base_norm * (np.linalg.norm(v) or 1.0))
            extra += [(int(t), n + offset) for t in np.argsort(-sims, kind="stable")[:k]]
        reference = np.unique(np.vstack([graph.edges, np.array(extra)]), axis=0)
        assert np.array_equal(augmented.edges, reference)

    def test_knn_k_too_large_rejected(self, planted):
        graph, _ = planted
        rows = np.zeros((1, graph.embedding_dim))
        with pytest.raises(InputError, match="knn_k must be at least 0 and below"):
            augment_graph(graph, self._texts(rows), rows, edge_mode="knn",
                          knn_k=graph.node_count)

    def test_rows_and_texts_of_different_lengths_rejected(self, planted):
        graph, _ = planted
        for row_count in (0, 1, 3):
            rows = np.zeros((row_count, graph.embedding_dim))
            with pytest.raises(ValueError, match=f"^{row_count} embedding rows for 2 generated"):
                augment_graph(graph, ["t0. b0", "t1. b1"], rows)


@settings(max_examples=200, deadline=None)
@given(scores=st.lists(st.integers(-3, 3).map(float), min_size=1, max_size=40),
       data=st.data())
def test_top_k_is_the_stable_argsort_prefix(scores, data):
    scores = np.array(scores)
    k = data.draw(st.integers(0, len(scores)))
    chosen = _top_k_lowest_id(scores, k)
    assert sorted(chosen.tolist()) == sorted(np.argsort(-scores, kind="stable")[:k].tolist())


def test_pseudo_set_roundtrip(tmp_path):
    pseudo = PseudoOodSet(mode="identified", node_ids=np.array([3, 5, 9]),
                          provenance=[{"node_id": 3, "parsed": "ood"}])
    path = tmp_path / "pseudo.json"
    save_pseudo_set(pseudo, path)
    loaded = load_pseudo_set(path)
    assert loaded.mode == "identified"
    assert np.array_equal(loaded.node_ids, pseudo.node_ids)
    assert loaded.provenance == pseudo.provenance


# quotes, backslashes, control and non-ASCII characters, and any text at all
_PARSED = (st.text(st.sampled_from('"\\\n\tae\u00e9\u5b57\U0001f600\x00'), max_size=6)
           | st.text(max_size=6))


@given(mode=st.sampled_from(["identified", "generated"]),
       node_ids=st.lists(st.integers(0, 2**40), max_size=6),
       rows=st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), _PARSED), max_size=6))
@example(mode="identified", node_ids=[], rows=[])
@example(mode="identified", node_ids=[], rows=[(4, "ood")])
@example(mode="identified", node_ids=[7], rows=[])
@example(mode="identified", node_ids=[1, 2],
         rows=[(1, 'say "none" \\ caf\u00e9 \u5b57'), (2, 'say "none" \\ caf\u00e9 \u5b57')])
@settings(max_examples=150, deadline=None)
def test_pseudo_set_bytes_are_those_of_json_dumps(mode, node_ids, rows):
    provenance = [{"node_id": node_id, "parsed": parsed} for node_id, parsed in rows]
    expected = json.dumps({"mode": mode, "node_ids": node_ids, "provenance": provenance},
                          indent=2) + "\n"
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "pseudo.json")
        save_pseudo_set(PseudoOodSet(mode=mode, node_ids=np.array(node_ids, dtype=np.int64),
                                     provenance=provenance), path)
        with open(path, "rb") as fh:
            assert fh.read() == expected.encode("utf-8")


@pytest.mark.parametrize("row", [
    {"node_id": 3, "parsed": "ood", "extra": 1},
    {"node_id": 3},
    {"parsed": "ood", "node_id": 3},
    {"node_id": True, "parsed": "ood"},
    {"node_id": np.int64(3), "parsed": "ood"},
    {"node_id": 3, "parsed": None},
], ids=["extra-key", "no-parsed", "reordered", "bool-id", "numpy-id", "null-parsed"])
def test_pseudo_set_row_other_than_node_id_and_parsed_raises(tmp_path, row):
    pseudo = PseudoOodSet(mode="identified", node_ids=np.array([3]),
                          provenance=[{"node_id": 1, "parsed": "id:A"}, row])
    with pytest.raises(ValueError, match="not a provenance row"):
        save_pseudo_set(pseudo, tmp_path / "pseudo.json")


def _records(path):
    """The cache file's records, in file order, each without its timestamp."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for rec in records:
        assert list(rec) == ["key", "node_id", "prompt", "response", "parsed", "model",
                             "timestamp"]
        del rec["timestamp"]
    return records


def test_cache_records_of_both_pipelines(planted_setup, tmp_path):
    path = tmp_path / "annotations.jsonl"
    client = MockChatClient()
    nodes, _ = generate_pseudo_ood(["Quantum Widgets"], per_class=3, object_kind="paper",
                                   client=client, cache=ChatCache(path))
    prompt = build_generation_prompt("Quantum Widgets", 3, "paper")
    assert client.calls == 1
    assert _records(path) == [{"key": chat_key(DEFAULT_MODEL, prompt), "node_id": None,
                               "prompt": prompt, "response": client.complete(
                                   DEFAULT_MODEL, [{"role": "user", "content": prompt}]),
                               "parsed": "generation", "model": DEFAULT_MODEL}]
    replayed = MockChatClient()
    again, _ = generate_pseudo_ood(["Quantum Widgets"], per_class=3, object_kind="paper",
                                   client=replayed, cache=ChatCache(path))
    assert replayed.calls == 0
    assert [n.text for n in again] == [n.text for n in nodes]

    graph, manifest, class_split, split = planted_setup
    path.unlink()
    names = [manifest.category_names[c] for c in class_split.id_classes]
    replies = ["none", names[0], "no idea", names[1].upper()]
    client = MockChatClient(reply_fn=lambda prompt: replies[len(prompt) % 4])
    identify_pseudo_ood(graph, manifest, class_split, split, client=client,
                        cache=ChatCache(path), sample_size=40, seed=0, concurrency=3)
    records = _records(path)
    assert len(records) == client.calls == 40
    node_ids = [rec["node_id"] for rec in records]
    assert node_ids == sorted(node_ids)
    tags = {"none": "ood", names[0]: f"id:{names[0]}", "no idea": "unparseable",
            names[1].upper(): f"id:{names[1]}"}
    for rec in records:
        prompt = build_identification_prompt(graph.texts[rec["node_id"]], names,
                                             manifest.object_kind)
        assert rec["prompt"] == prompt and rec["key"] == chat_key(DEFAULT_MODEL, prompt)
        assert rec["model"] == DEFAULT_MODEL
        assert rec["parsed"] == tags[rec["response"]]
    assert {rec["parsed"] for rec in records} == set(tags.values())


@pytest.mark.parametrize("content, message", [
    ('{"category": "C", "title": "T", "abstract": "B"}\n\n{"category": "C", "title": "T"}\n',
     "line 3 is not a generated node: no 'abstract' of type str"),
    ('{"category": "C", "title": "T", "abstract": "B"}\n{"category": "C" "title": "T"}\n',
     "line 2 is not a generated node: Expecting ',' delimiter at column 18"),
    ('{"category": "C", "title": 5, "abstract": "b"}\n',
     "line 1 is not a generated node: no 'title' of type str"),
    ('["C", "T", "B"]\n', "line 1 is not a generated node: no 'category' of type str"),
], ids=["missing_field", "bad_json", "numeric_title", "not_an_object"])
def test_load_generated_names_the_bad_line(tmp_path, content, message):
    path = tmp_path / "generated.jsonl"
    path.write_text(content)
    with pytest.raises(ValueError) as raised:
        load_generated(path)
    assert str(raised.value) == f"{path}: {message}"


@pytest.mark.parametrize("content, message", [
    ('{"key": "a", "vector": [1, 2]}\n{"vector": [1, 2]}\n',
     "line 2 is not an embedding record: no 'key' of type str"),
    ('{"key": "a", "vector": [1, 2]}\n\n{"key": "b" "vector": [1, 2]}\n',
     "line 3 is not an embedding record: Expecting ',' delimiter at column 13"),
    ('{"key": "a", "vector": ["1", "2"]}\n',
     "line 1 is not an embedding record: 'vector' is not a non-empty list of numbers"),
    ('{"key": "a", "vector": []}\n',
     "line 1 is not an embedding record: 'vector' is not a non-empty list of numbers"),
    ('{"key": "a", "vector": [1, 2]}\n{"key": "b", "vector": [1]}\n',
     "line 2: inconsistent vector dimensions in embedding file"),
], ids=["missing_key", "bad_json", "string_numbers", "empty_vector",
        "inconsistent_dimension"])
def test_precomputed_embedding_file_names_the_bad_line(tmp_path, content, message):
    path = tmp_path / "vectors.jsonl"
    path.write_text(content)
    with pytest.raises(ValueError) as raised:
        PrecomputedEmbeddingProvider(path)
    assert str(raised.value) == f"{path}: {message}"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_annotation_accuracy_equals_the_counting_loop(data):
    from goe.llm import LlmAnnotation
    labels = np.array(data.draw(st.lists(st.sampled_from([-1, 0, 1, 2, 3]), min_size=4,
                                         max_size=30)) + [0, 1])
    class_split = make_class_split(labels, [0, 1])
    node_ids = data.draw(st.lists(st.integers(0, len(labels) - 1), min_size=1))
    annotations = [LlmAnnotation(i, "r", data.draw(st.sampled_from(["id", "ood", "unparseable"])))
                   for i in node_ids]
    correct = total = 0
    for ann in annotations:
        label = labels[ann.node_id]
        if label >= 0:
            correct += int((label in class_split.ood_classes) == (ann.parsed == "ood"))
            total += 1
    if total == 0:
        with pytest.raises(ValueError, match="no annotated node has a ground-truth label"):
            annotation_accuracy(annotations, labels, class_split)
    else:
        accuracy = annotation_accuracy(annotations, labels, class_split)
        assert type(accuracy) is float and accuracy == correct / total



def test_text_files_are_read_and_written_as_utf8_under_the_c_locale(planted, tmp_path):
    """With UTF-8 mode and locale coercion off, the C locale's codec is ASCII; a
    dataset and a chat cache holding non-ASCII text must still load, and a torn
    non-ASCII last line is cut back by its UTF-8 length."""
    graph, manifest = planted
    texts = list(graph.texts)
    texts[0] = "Caf\u00e9 na\u00efve \u5b57 " + texts[0]
    save_dataset(dataclasses.replace(graph, texts=texts), manifest, tmp_path / "data")
    record = {"key": chat_key("m", "a"), "node_id": None, "prompt": "a",
              "response": "r\u00e9ponse \u5b57", "parsed": "", "model": "m", "timestamp": ""}
    torn = dict(record, key=chat_key("m", "b"), prompt="b", response="\u00e9" * 40)
    cache_path = tmp_path / "cache.jsonl"
    lines = [json.dumps(rec, ensure_ascii=False) + "\n" for rec in (record, torn)]
    cache_path.write_bytes((lines[0] + lines[1][:-30]).encode("utf-8"))
    script = (
        "import json, sys, warnings\n"
        "from goe.graph import load_dataset\n"
        "from goe.llm import ChatCache\n"
        "graph, _ = load_dataset(sys.argv[1])\n"
        "with warnings.catch_warnings():\n"
        "    warnings.simplefilter('ignore')\n"
        "    cache = ChatCache(sys.argv[2])\n"
        "cache.put(json.loads(sys.argv[3]))\n"
        "print(ascii(graph.texts[0]))\n"
        "print(ascii(cache.get(sys.argv[4])))\n"
    )
    src = os.path.dirname(os.path.dirname(goe.__file__))
    env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "data"), str(cache_path),
         json.dumps(torn), record["key"]],
        env=env, capture_output=True, timeout=120)
    assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
    assert result.stdout.decode("ascii").splitlines() == [ascii(texts[0]),
                                                          ascii(record["response"])]
    assert cache_path.read_bytes() == (lines[0] + json.dumps(torn) + "\n").encode("utf-8")
