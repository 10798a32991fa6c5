"""LLM-driven pseudo-OOD supervision for text-attributed graphs.

Two pipelines produce pseudo-OOD training signal without real OOD labels:

* identification — sample unlabeled nodes, ask a chat model whether each one
  fits any in-distribution category, and keep the nodes it rejects;
* generation — ask the chat model to write new out-of-category texts, embed
  them, and append them to the graph as synthetic nodes.

Chat traffic flows through an append-only jsonl cache keyed by
hash(model, prompt), so every pipeline can be replayed offline and
byte-for-byte deterministically. Both pipelines ask through ``_ask``: it looks
every prompt up in the calling thread and appends each miss's reply with one
``os.write`` under ``flock``, in submission order, so the log's record order
depends only on the prompts. Threads only help a client that waits on the
network: the mock and replay clients answer in the calling thread, while any
other client at ``concurrency > 1`` gets worker threads, at most
``8 × concurrency`` calls in flight, and a slow oldest call holds back new
submissions while the other calls run on. Identification asks for its whole
sample in one ``_ask``; generation asks for one prompt per call.
"""

from __future__ import annotations

import fcntl
import functools
import hashlib
import itertools
import json
import math
import os
import re
import threading
import time
import warnings
import weakref
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np
import requests

from .graph import STREAM_ANNOTATION_POOL, InputError, TextAttributedGraph, stream_rng, unique_edges

DEFAULT_MODEL = "gpt-4o-mini"
IDENTIFY_TEMPERATURE = 0.0
IDENTIFY_MAX_TOKENS = 512
GENERATE_TEMPERATURE = 1.0
GENERATE_MAX_TOKENS = 2048
MAX_RETRY_AFTER_SECONDS = 60.0   # a longer rate-limit wait fails rather than sleeps

PARSED_ID = "id"
PARSED_OOD = "ood"
PARSED_UNPARSEABLE = "unparseable"

_IDENTIFICATION_TEMPLATE = (
    "As a research scientist, your task is to analyze and classify {object} based on "
    "their main topics, meanings, background, and methods.\n\n"
    "Please first read the content of the {object} carefully. Then, identify the "
    "{object}'s key focus. Finally, match the content to one of the given categories:\n\n"
    "[{categories}]\n\n"
    "Given the current possible categories, determine if it belongs to one of them. "
    "If so, specify that category; otherwise, say \"none\".\n\n"
)  # the node text follows

_GENERATION_TEMPLATE = (
    "Please generate {count} {object}(s) belonging to the category "
    "'{category}', including title and abstract.\n\n"
    "Output Format:\n"
    "Title: <Generated Title>\n"
    "Abstract: <Generated Abstract>"
)


def chat_key(model: str, prompt: str) -> str:
    return hashlib.sha256(f"{model}\x00{prompt}".encode("utf-8")).hexdigest()


def text_key(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Chat clients and response cache
# ---------------------------------------------------------------------------

class ChatCache:
    """Append-only jsonl log of chat responses, keyed by hash(model, prompt).

    The file keeps whole records, but only key → response is held in memory,
    so ``get`` returns the response or None. The first ``put``
    creates the directory and opens one ``O_APPEND`` descriptor, which lives
    as long as the cache. Each record is encoded once and written with a
    single ``os.write`` under ``flock(LOCK_EX)``, so writers in several
    threads or processes never interleave records; a short write is cut back
    off and raises. Loading reads under ``LOCK_SH``, so it sees whole records
    only. A cache that only reads opens no descriptor.

    A crash mid-append leaves a torn last line with no newline. Loading skips
    it with a warning, and the first ``put`` cuts the file back to the end of
    its last complete line before appending (or writes the missing newline
    after a complete record). That repair runs under the same lock, and only
    if the file still has the size seen at load: otherwise another writer has
    already repaired it and appended, and cutting would destroy its records.
    Any other unreadable line, or one without a string ``key`` and
    ``response``, raises naming the file and the line; a file that is not
    UTF-8 text raises naming the file.

    Each cache parses its file once, when it opens. A ``ReplayChatClient``
    reads its file only when first asked, and ``_ask`` looks every prompt up
    in the run's cache before asking the client, so replaying the run's own
    cache file parses it once.
    """

    def __init__(self, path: Path | str):
        self.path = Path(path)
        self._responses: dict[str, str] = {}
        self._lock = threading.Lock()
        self._fd: int | None = None
        # (size seen at load, size to cut the file to, bytes to write first)
        self._repair: tuple[int, int, bytes] | None = None
        if self.path.exists():
            try:
                self._load()
            except UnicodeDecodeError:
                raise InputError(f"{self.path} is not UTF-8 text") from None

    def _load(self) -> None:
        line = "\n"
        with self.path.open(encoding="utf-8") as fh:
            fcntl.flock(fh, fcntl.LOCK_SH)
            size = os.fstat(fh.fileno()).st_size
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except ValueError as exc:
                    if line.endswith("\n"):
                        raise InputError(
                            f"{self.path}: line {number} is not a chat record: {exc}"
                        ) from None
                    warnings.warn(f"{self.path}: skipping torn last line {number}",
                                  stacklevel=3)
                    self._repair = (size, size - len(line.encode("utf-8")), b"")
                    return
                fields = rec if isinstance(rec, dict) else {}
                key, response = fields.get("key"), fields.get("response")
                if not (isinstance(key, str) and isinstance(response, str)):
                    name = "response" if isinstance(key, str) else "key"
                    raise InputError(f"{self.path}: line {number} is not a chat record: "
                                     f"no string {name!r}")
                self._responses[key] = response
        if not line.endswith("\n"):
            self._repair = (size, size, b"\n")

    def __len__(self) -> int:
        return len(self._responses)

    def get(self, key: str) -> str | None:
        return self._responses.get(key)

    def put(self, record: dict) -> None:
        data = (json.dumps(record) + "\n").encode()
        with self._lock:
            if record["key"] in self._responses:
                return
            if self._fd is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                weakref.finalize(self, os.close, self._fd)
            fcntl.flock(self._fd, fcntl.LOCK_EX)
            try:
                if self._repair is not None:
                    seen, cut, prefix = self._repair
                    if os.fstat(self._fd).st_size == seen:
                        os.ftruncate(self._fd, cut)
                        data = prefix + data
                written = os.write(self._fd, data)
                if written != len(data):
                    end = os.lseek(self._fd, 0, os.SEEK_END)
                    os.ftruncate(self._fd, end - written)
                    raise OSError(f"{self.path}: short write ({written} of {len(data)} bytes)")
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)
            self._repair = None
            self._responses[record["key"]] = record["response"]


class MockChatClient:
    """Deterministic offline chat model.

    Identification prompts are answered by checking whether any listed
    category name appears in the node content (first match wins, else
    "none"). Generation prompts get the requested number of synthetic
    Title/Abstract pairs. A custom ``reply_fn`` overrides both behaviors.
    """

    def __init__(self, reply_fn=None):
        self.reply_fn = reply_fn
        self.calls = 0

    def complete(self, model: str, messages: list[dict], *,
                 temperature: float = 0.0, max_tokens: int = 512) -> str:
        self.calls += 1
        prompt = messages[-1]["content"]
        if self.reply_fn is not None:
            return self.reply_fn(prompt)
        return _default_mock_reply(prompt)


_GEN_PROMPT_RE = re.compile(
    r"Please generate (\d+) .+?\(s\) belonging to the category '([^']*)'")


def _default_mock_reply(prompt: str) -> str:
    gen = _GEN_PROMPT_RE.search(prompt)
    if gen:
        count, category = int(gen.group(1)), gen.group(2)
        blocks = []
        for i in range(1, count + 1):
            blocks.append(
                f"{i}. Title: {category} concept study {i}\n"
                f"Abstract: A synthetic overview of {category.lower()} prepared "
                f"for benchmarking, variant {i}."
            )
        return "\n".join(blocks)

    bracket = re.search(r"\[(.*?)\]", prompt, flags=re.DOTALL)
    marker = 'say "none".'
    content = prompt.rsplit(marker, 1)[-1] if marker in prompt else prompt
    if bracket:
        content = content.lower()
        for name in (c.strip() for c in bracket.group(1).split(",")):
            if name and name.lower() in content:
                return name
    return "none"


class ReplayMiss(InputError, RuntimeError):
    """A prompt that the replay file holds no response for."""


class ReplayChatClient:
    """Serves responses recorded in a chat cache file; never goes to the network.

    The file must exist when the client is made, but it is read, through a
    ``ChatCache``, only at the first ``load`` or ``complete``. ``_ask`` looks
    every prompt up in the run's cache first, so when the replay file is the
    run's cache file every prompt it holds is a hit and the client reads
    nothing. A torn last line is skipped with a warning at that first read;
    the client never writes to the file.
    """

    def __init__(self, cache_path: Path | str):
        self.path = Path(cache_path)
        if not self.path.exists():
            raise FileNotFoundError(f"replay cache not found: {self.path}")
        self._cache: ChatCache | None = None

    def load(self) -> ChatCache:
        """Read the file, once; a malformed file raises here."""
        if self._cache is None:
            self._cache = ChatCache(self.path)
        return self._cache

    def complete(self, model: str, messages: list[dict], *,
                 temperature: float = 0.0, max_tokens: int = 512) -> str:
        response = self.load().get(chat_key(model, messages[-1]["content"]))
        if response is None:
            raise ReplayMiss(f"{self.path}: no cached response for prompt in replay mode")
        return response


class HttpChatClient:
    """OpenAI-compatible /chat/completions client with retry and backoff (``_post_json``)."""

    def __init__(self, base_url: str | None = None, api_key: str | None = None,
                 timeout: float = 60.0, max_attempts: int = 4):
        self.base_url = (base_url or os.environ.get("GOE_LLM_BASE_URL") or "").rstrip("/")
        self.api_key = api_key or os.environ.get("GOE_LLM_API_KEY")
        self.timeout = timeout
        self.max_attempts = max_attempts
        if not self.base_url:
            raise InputError("no chat endpoint: set GOE_LLM_BASE_URL")

    def complete(self, model: str, messages: list[dict], *,
                 temperature: float = 0.0, max_tokens: int = 512) -> str:
        data = _post_json(self, "/chat/completions", {
            "model": model,
            "messages": messages,
            "temperature": temperature,
            "max_tokens": max_tokens,
        })
        try:
            content = data["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError):
            content = None
        if not isinstance(content, str):
            raise InputError(f"{self.base_url}/chat/completions: reply has no "
                             f"choices[0].message.content string")
        return content


def _post_json(endpoint: HttpChatClient, route: str, body: dict) -> dict:
    """POST ``body`` to ``endpoint.base_url + route`` and return the decoded reply.

    Transport errors, 5xx responses and 429 rate limits are retried, up to
    ``endpoint.max_attempts`` calls, with 1s/2s/4s waits, or as many seconds
    as a 429's ``Retry-After`` header gives. Other 4xx responses fail at once,
    and so do a ``Retry-After`` above ``MAX_RETRY_AFTER_SECONDS`` and a 200
    reply that is not JSON, each with an ``InputError``.
    """
    headers = {"Content-Type": "application/json"}
    if endpoint.api_key:
        headers["Authorization"] = f"Bearer {endpoint.api_key}"
    last_error: Exception | None = None
    for attempt in range(endpoint.max_attempts):
        delay = None
        try:
            resp = requests.post(f"{endpoint.base_url}{route}", json=body,
                                 headers=headers, timeout=endpoint.timeout)
            if resp.status_code == 429:
                last_error = RuntimeError("rate limited (429)")
                delay = _retry_after_seconds(resp)
                if delay is not None and delay > MAX_RETRY_AFTER_SECONDS:
                    raise InputError(f"{endpoint.base_url}{route}: rate limited with Retry-After "
                                     f"{delay:g} s, over the {MAX_RETRY_AFTER_SECONDS:g} s "
                                     f"this client waits")
            elif resp.status_code >= 500:
                last_error = RuntimeError(f"server error {resp.status_code}")
            elif resp.status_code >= 400:
                raise RuntimeError(f"request rejected ({resp.status_code}): {resp.text[:200]}")
            else:
                try:
                    return resp.json()
                except ValueError:   # requests' JSONDecodeError is a RequestException too
                    raise InputError(f"{endpoint.base_url}{route}: reply is not JSON: "
                                     f"{resp.text[:80]!r}") from None
        except requests.RequestException as exc:
            last_error = exc
        if attempt + 1 < endpoint.max_attempts:
            time.sleep(2 ** attempt if delay is None else delay)
    raise RuntimeError(f"chat endpoint unreachable after {endpoint.max_attempts} attempts") \
        from last_error


def _retry_after_seconds(resp) -> float | None:
    """A ``Retry-After`` header given in seconds; None when absent or a date."""
    try:
        seconds = float(resp.headers.get("Retry-After", ""))
    except ValueError:
        return None
    return seconds if 0.0 <= seconds < math.inf else None


def _prefix_keyer(model: str, head: str):
    """``key(text) == chat_key(model, head + text)``, hashing ``model`` and ``head`` once."""
    base = hashlib.sha256(f"{model}\x00{head}".encode("utf-8"))

    def key(text: str) -> str:
        if not text:
            raise ValueError("empty node text")
        h = base.copy()
        h.update(text.encode("utf-8"))
        return h.hexdigest()
    return key


def _complete_misses(client, model: str, misses: list[tuple[int, str, str]],
                     on_response, *, workers: int,
                     temperature: float = IDENTIFY_TEMPERATURE,
                     max_tokens: int = IDENTIFY_MAX_TOKENS) -> None:
    """Run the chat call of each ``(index, key, prompt)`` miss.

    With one worker the calls run in the calling thread, one at a time: each
    reply goes to ``on_response(miss, response)`` before the next call, and
    an error is raised as it comes, after the replies before it were passed
    on. With more, the calls run on worker threads, at most ``8 × workers``
    in flight. The calling thread waits for the oldest, runs ``on_response``
    and only then submits the next miss, so responses arrive in the order of
    ``misses`` whatever the timing. The price is head-of-line waiting: a slow
    oldest call holds back new submissions, though the calls already queued
    keep running. If a call raises, the calls not yet started are cancelled,
    the replies of calls already running are still passed on, and the first
    error is raised.
    """
    def call(miss: tuple[int, str, str]) -> str:
        return client.complete(model, [{"role": "user", "content": miss[2]}],
                               temperature=temperature, max_tokens=max_tokens)

    if workers == 1:
        for miss in misses:
            on_response(miss, call(miss))
        return
    todo = iter(misses)
    window: deque = deque()
    error: Exception | None = None
    with ThreadPoolExecutor(max_workers=workers) as executor:
        def submit(miss: tuple[int, str, str]) -> None:
            window.append((executor.submit(call, miss), miss))

        try:
            for miss in itertools.islice(todo, 8 * workers):
                submit(miss)
            while window:
                fut, miss = window.popleft()
                try:
                    response = fut.result()
                except Exception as exc:  # a call cancelled below raises CancelledError
                    if error is None:
                        error = exc
                        for queued, _ in window:
                            queued.cancel()
                    continue
                on_response(miss, response)
                if error is None and (miss := next(todo, None)) is not None:
                    submit(miss)
        finally:
            for fut, _ in window:
                fut.cancel()
    if error is not None:
        raise error


def _ask(client, cache: ChatCache | None, model: str, head: str, texts, tag, *,
         node_ids=None, workers: int = 1, temperature: float,
         max_tokens: int) -> list[str]:
    """The reply to each prompt ``head + text``: from the cache, else from
    ``_complete_misses`` with ``workers`` workers. Lookups run in the calling
    thread and hash ``model`` and ``head`` once; each miss's reply is appended
    to the cache in submission order, with ``node_ids[i]`` (or None) and
    ``parsed`` set to ``tag(reply)``. If a call raises, the replies received
    so far are still recorded and the error is re-raised. The mock and
    replay clients never wait on the network, so they answer in the calling
    thread whatever ``workers`` is."""
    if isinstance(client, (MockChatClient, ReplayChatClient)):
        workers = 1
    key_of = _prefix_keyer(model, head)
    replies: list[str | None] = [None] * len(texts)
    misses = []
    for i, text in enumerate(texts):
        key = key_of(text)
        replies[i] = hit = None if cache is None else cache.get(key)
        if hit is None:
            misses.append((i, key, head + text))

    def record(miss: tuple[int, str, str], response: str) -> None:
        i, key, prompt = miss
        replies[i] = response
        if cache is not None:
            cache.put({"key": key, "node_id": None if node_ids is None else int(node_ids[i]),
                       "prompt": prompt, "response": response, "parsed": tag(response),
                       "model": model, "timestamp": datetime.now(timezone.utc).isoformat()})

    _complete_misses(client, model, misses, record, workers=workers,
                     temperature=temperature, max_tokens=max_tokens)
    return replies


# ---------------------------------------------------------------------------
# Identification pipeline
# ---------------------------------------------------------------------------

def build_identification_prompt(node_text: str, id_category_names: list[str],
                                object_kind: str) -> str:
    if not node_text:
        raise ValueError("empty node text")
    return _identification_head(id_category_names, object_kind) + node_text


def _identification_head(id_category_names: list[str], object_kind: str) -> str:
    """The part of every identification prompt that precedes the node text."""
    if not id_category_names:
        raise ValueError("empty category list")
    return _IDENTIFICATION_TEMPLATE.format(object=object_kind,
                                           categories=", ".join(id_category_names))


def _normalize(text: str) -> str:
    lowered = text.lower()
    cleaned = re.sub(r"[^a-z0-9]+", " ", lowered)
    return " ".join(cleaned.split())


def parse_identification_response(raw: str, id_category_names: list[str],
                                  ) -> tuple[str, int | None]:
    """Classify a raw chat response as (kind, category_index).

    A standalone token "none" means OOD. Otherwise exactly one category name
    must appear (case-insensitive, punctuation-blind substring); zero or
    several matches are unparseable.
    """
    norm = _normalize(raw)
    if "none" in norm.split():
        return PARSED_OOD, None
    names = map(_normalize, id_category_names)
    matches = [i for i, name in enumerate(names) if name and name in norm]
    if len(matches) == 1:
        return PARSED_ID, matches[0]
    return PARSED_UNPARSEABLE, None


@dataclass
class LlmAnnotation:
    node_id: int
    raw_response: str
    parsed: str                      # PARSED_ID | PARSED_OOD | PARSED_UNPARSEABLE
    category_index: int | None = None


@dataclass
class PseudoOodSet:
    """Pseudo-OOD supervision: node ids plus how they were obtained.

    In identified mode the ids index the original graph; in generated mode
    they index the augmented graph (range [n, n+m)).
    """

    mode: str                        # "identified" | "generated"
    node_ids: np.ndarray
    provenance: list[dict] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.node_ids)


def annotation_pool(graph: TextAttributedGraph, split) -> np.ndarray:
    """Unlabeled nodes outside every training/validation/test set."""
    return np.setdiff1d(np.arange(graph.node_count), split.evaluation_nodes())


def identify_pseudo_ood(
    graph: TextAttributedGraph,
    manifest,
    class_split,
    split,
    *,
    client,
    cache: ChatCache | None,
    sample_size: int = 200,
    seed: int = 0,
    model: str = DEFAULT_MODEL,
    concurrency: int = 4,
) -> tuple[PseudoOodSet, list[LlmAnnotation]]:
    """Sample unlabeled nodes, annotate them, keep the ones marked OOD.

    The prompts go through ``_ask``, which uses ``concurrency`` threads only
    for a client that waits on the network (the mock and replay clients
    answer in the calling thread); cache records land in sample order at any
    concurrency. Each distinct response is parsed once. Annotations come back
    in node-id order.
    """
    pool = annotation_pool(graph, split)
    if len(pool) < sample_size:
        raise InputError(
            f"annotation pool ({len(pool)}) smaller than sample size ({sample_size})"
        )
    rng = stream_rng(seed, STREAM_ANNOTATION_POOL)
    sample = np.sort(rng.choice(pool, size=sample_size, replace=False))

    id_names = [manifest.category_names[c] for c in class_split.id_classes]
    parse = functools.cache(lambda response: parse_identification_response(response,
                                                                           id_names))

    def tag(response: str) -> str:
        kind, idx = parse(response)
        return f"id:{id_names[idx]}" if kind == PARSED_ID else kind

    replies = _ask(client, cache, model, _identification_head(id_names, manifest.object_kind),
                   [graph.texts[node_id] for node_id in sample], tag, node_ids=sample,
                   workers=max(1, concurrency), temperature=IDENTIFY_TEMPERATURE,
                   max_tokens=IDENTIFY_MAX_TOKENS)
    annotations = [LlmAnnotation(int(node_id), response, *parse(response))
                   for node_id, response in zip(sample, replies)]

    if all(a.parsed == PARSED_UNPARSEABLE for a in annotations):
        raise RuntimeError("all annotations unparseable; model or parser failure")

    # sample order is node-id order
    ood_ids = np.array([a.node_id for a in annotations if a.parsed == PARSED_OOD],
                       dtype=np.int64)
    provenance = [{"node_id": a.node_id, "parsed": a.parsed} for a in annotations]
    return PseudoOodSet(mode="identified", node_ids=ood_ids,
                        provenance=provenance), annotations


def annotation_accuracy(annotations: list[LlmAnnotation], labels: np.ndarray,
                        class_split) -> float:
    """Binary accuracy of OOD-vs-ID calls against ground-truth labels.

    Unparseable annotations count as an ID prediction (the conservative
    reading: nothing was confidently rejected).
    """
    if not annotations:
        raise ValueError("empty annotation set")
    truth = np.asarray(labels)[[ann.node_id for ann in annotations]]
    known = truth >= 0
    if not known.any():
        raise ValueError("no annotated node has a ground-truth label")
    pred_ood = np.array([ann.parsed == PARSED_OOD for ann in annotations])
    return float(np.mean(np.isin(truth, class_split.ood_classes)[known] == pred_ood[known]))


# ---------------------------------------------------------------------------
# Generation pipeline
# ---------------------------------------------------------------------------

@dataclass
class GeneratedNode:
    category: str
    title: str
    body: str

    @property
    def text(self) -> str:
        return f"{self.title}. {self.body}"


def build_generation_prompt(category_name: str, count: int,
                            object_kind: str) -> str:
    if count < 1:
        raise ValueError("count must be >= 1")
    if not category_name:
        raise ValueError("empty category name")
    return _GENERATION_TEMPLATE.format(count=count, object=object_kind,
                                       category=category_name)


_FIELD_MARKER_RE = re.compile(
    r"^\s*(?:[-*•]\s*)?(?:\d+[.)]\s*)?\**(title|abstract)\**\s*:\s*(.*)$",
    re.IGNORECASE,
)


def parse_generation_response(raw: str, category: str = "") -> list[GeneratedNode]:
    """Extract Title/Abstract pairs from a generation response.

    Tolerates list bullets, numbering and bold markers around the field
    names. Only complete title+abstract pairs become nodes; a trailing title
    without an abstract is dropped.
    """
    nodes: list[GeneratedNode] = []
    title: str | None = None
    abstract: str | None = None
    current: str | None = None

    def flush() -> None:
        nonlocal title, abstract
        if title and abstract:
            t, a = title.strip(), abstract.strip()
            if t and a:
                nodes.append(GeneratedNode(category=category, title=t, body=a))
        title = abstract = None

    for line in raw.splitlines():
        m = _FIELD_MARKER_RE.match(line)
        if m:
            kind = m.group(1).lower()
            value = m.group(2).strip().strip("*").strip()
            if kind == "title":
                flush()
                title = value
                current = "title"
            else:
                abstract = value if abstract is None else f"{abstract} {value}"
                current = "abstract"
        elif line.strip():
            if current == "title" and title is not None:
                title = f"{title} {line.strip()}"
            elif current == "abstract" and abstract is not None:
                abstract = f"{abstract} {line.strip()}"
    flush()

    if not nodes:
        raise ValueError("unparseable generation")
    return nodes


def generate_pseudo_ood(
    ood_category_names: list[str],
    *,
    per_class: int | list[int] = 10,
    object_kind: str,
    client,
    cache: ChatCache | None,
    model: str = DEFAULT_MODEL,
) -> tuple[list[GeneratedNode], list[dict]]:
    """Generate pseudo-OOD texts for each OOD category.

    One chat call per category, plus a single follow-up for the shortfall if
    the first response parsed to fewer nodes than requested. A category that
    still yields nothing raises; a partial yield is recorded as a warning.
    """
    if not ood_category_names:
        raise ValueError("no OOD categories to generate from")
    if isinstance(per_class, int):
        quotas = [per_class] * len(ood_category_names)
    else:
        quotas = list(per_class)
        if len(quotas) != len(ood_category_names):
            raise ValueError("per-category quota list does not match category list")

    nodes: list[GeneratedNode] = []
    warnings: list[dict] = []
    for name, quota in zip(ood_category_names, quotas):
        if quota <= 0:
            continue
        collected = _generate_for_category(name, quota, object_kind, client, cache, model)
        if len(collected) < quota:
            missing = quota - len(collected)
            retry = _generate_for_category(name, missing, object_kind, client, cache, model)
            collected.extend(retry)
        if not collected:
            raise RuntimeError(f"generation yielded no nodes for category {name!r}")
        if len(collected) < quota:
            warnings.append({
                "category": name, "requested": quota, "produced": len(collected),
            })
        nodes.extend(collected[:quota])
    return nodes, warnings


def _generate_for_category(name: str, count: int, object_kind: str, client,
                           cache: ChatCache | None, model: str) -> list[GeneratedNode]:
    prompt = build_generation_prompt(name, count, object_kind)
    [response] = _ask(client, cache, model, "", [prompt], lambda _: "generation",
                      temperature=GENERATE_TEMPERATURE, max_tokens=GENERATE_MAX_TOKENS)
    try:
        return parse_generation_response(response, category=name)
    except ValueError:
        return []


def save_generated(nodes: list[GeneratedNode], path: Path | str) -> None:
    with Path(path).open("w", encoding="utf-8") as fh:
        for node in nodes:
            fh.write(json.dumps({
                "category": node.category, "title": node.title, "abstract": node.body,
            }) + "\n")


def load_generated(path: Path | str) -> list[GeneratedNode]:
    return [GeneratedNode(category=rec["category"], title=rec["title"], body=rec["abstract"])
            for _, rec in _jsonl_records(path, "a generated node",
                                         {"category": str, "title": str, "abstract": str})]


def _jsonl_records(path: Path | str, what: str, fields: dict[str, type]):
    """Yield ``(line number, record)`` for each non-blank line of a jsonl file.

    A line that is not a JSON object holding each of ``fields`` with its type
    raises one ``InputError`` naming the file and the 1-based line; a file
    that is not UTF-8 text raises one naming the file.
    """
    try:
        with Path(path).open(encoding="utf-8") as fh:
            for number, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise InputError(f"{path}: line {number} is not {what}: "
                                     f"{exc.msg} at column {exc.pos + 1}") from None
                for name, kind in fields.items():
                    if not (isinstance(rec, dict) and isinstance(rec.get(name), kind)):
                        raise InputError(f"{path}: line {number} is not {what}: "
                                         f"no {name!r} of type {kind.__name__}")
                yield number, rec
    except UnicodeDecodeError:
        raise InputError(f"{path} is not UTF-8 text") from None


# ---------------------------------------------------------------------------
# Embedding providers
# ---------------------------------------------------------------------------

def hash_unit_vector(text: str, dim: int) -> np.ndarray:
    """A unit vector in ``dim`` dimensions, seeded from the sha256 of ``text``."""
    seed = int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")
    v = np.random.default_rng(seed).standard_normal(dim)
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else np.eye(dim)[0]


class HashEmbeddingProvider:
    """Deterministic unit vector per text, seeded from the text's hash."""

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self._dim = int(dim)

    def embed(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self._dim), dtype=np.float64)
        for i, text in enumerate(texts):
            out[i] = hash_unit_vector(text, self._dim)
        return out


class PrecomputedEmbeddingProvider:
    """Looks embeddings up in a jsonl file keyed by sha256 of the text."""

    def __init__(self, path: Path | str):
        self._path = path
        self._table: dict[str, np.ndarray] = {}
        dim = None
        for number, rec in _jsonl_records(path, "an embedding record",
                                          {"key": str, "vector": list}):
            vec = np.asarray(rec["vector"])
            if vec.ndim != 1 or not vec.size or vec.dtype.kind not in "iuf":
                raise InputError(f"{path}: line {number} is not an embedding record: "
                                 "'vector' is not a non-empty list of numbers")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise InputError(f"{path}: line {number}: inconsistent vector dimensions "
                                 "in embedding file")
            self._table[rec["key"]] = vec.astype(np.float64)
        if dim is None:
            raise InputError(f"{path}: embedding file is empty")
        self._dim = int(dim)

    def embed(self, texts: list[str]) -> np.ndarray:
        out = np.zeros((len(texts), self._dim), dtype=np.float64)
        for i, text in enumerate(texts):
            key = text_key(text)
            if key not in self._table:
                raise InputError(f"{self._path}: no embedding for text hash {key}")
            out[i] = self._table[key]
        return out


EMBED_BATCH_SIZE = 64


class HttpEmbeddingProvider:
    """OpenAI-compatible /embeddings client with the chat client's retry policy."""

    def __init__(self, model: str, base_url: str | None = None,
                 api_key: str | None = None, timeout: float = 60.0):
        self.model = model
        self._endpoint = HttpChatClient(base_url=base_url, api_key=api_key, timeout=timeout)

    def embed(self, texts: list[str]) -> np.ndarray:
        """One row per text. Each batch's reply must hold one item per text, with
        indices 0..len(batch)-1 and list embeddings; else an ``InputError``."""
        url = f"{self._endpoint.base_url}/embeddings"
        rows: list[np.ndarray] = []
        for start in range(0, len(texts), EMBED_BATCH_SIZE):
            batch = texts[start:start + EMBED_BATCH_SIZE]
            data = _post_json(self._endpoint, "/embeddings",
                              {"model": self.model, "input": batch})
            items = data.get("data") if isinstance(data, dict) else None
            if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
                raise InputError(f"{url}: reply has no data list of items")
            if len(items) != len(batch):
                raise InputError(f"{url}: reply holds {len(items)} items for a batch of "
                                 f"{len(batch)} texts")
            vectors = {item.get("index"): item.get("embedding") for item in items}
            if set(vectors) != set(range(len(batch))):
                raise InputError(f"{url}: reply item indices are not 0..{len(batch) - 1}")
            if not all(isinstance(vector, list) for vector in vectors.values()):
                raise InputError(f"{url}: a reply item has no embedding list")
            rows.extend(np.asarray(vectors[i], dtype=np.float64) for i in range(len(batch)))
        return np.vstack(rows)


def embed_texts(provider, texts: list[str],
                expected_dim: int | None = None) -> np.ndarray:
    """Embed texts, one row per text, and validate shape/finiteness against
    the graph dimension."""
    matrix = provider.embed(list(texts))
    if matrix.shape[0] != len(texts):
        raise ValueError("provider returned wrong number of rows")
    if expected_dim is not None and matrix.shape[1] != expected_dim:
        raise InputError(
            f"embedding dimension mismatch: provider {matrix.shape[1]}, graph {expected_dim}"
        )
    if not np.all(np.isfinite(matrix)):
        raise ValueError("non-finite embedding entry")
    return matrix


# ---------------------------------------------------------------------------
# Graph augmentation
# ---------------------------------------------------------------------------

def _top_k_lowest_id(scores: np.ndarray, k: int) -> np.ndarray:
    """The k highest scores, ties broken by lower index, in no particular order.

    The same set as ``np.argsort(-scores, kind="stable")[:k]``, from one
    partition instead of a full sort: every index scoring above the k-th
    highest score, then the lowest indices that tie with it.
    """
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    neg = -scores
    kth = np.partition(neg, k - 1)[k - 1]
    above = np.flatnonzero(neg < kth)
    return np.concatenate([above, np.flatnonzero(neg == kth)[:k - above.size]])


def augment_graph(
    graph: TextAttributedGraph,
    texts: list[str],
    vectors: np.ndarray,
    edge_mode: str = "none",
    knn_k: int = 5,
) -> TextAttributedGraph:
    """The graph with one unlabeled node appended per text.

    ``vectors`` holds one embedding row per text, as ``embed_texts`` returns
    them. The first n = ``graph.node_count`` embedding rows stay bitwise
    identical, and text i becomes node n + i. ``edge_mode="none"`` adds no
    edges (generated nodes only interact through the self-loop added at
    normalization); ``"knn"`` connects each generated node to its ``knn_k``
    most cosine-similar original nodes, ties broken by lower node id.
    """
    n, m = graph.node_count, len(texts)
    if len(vectors) != m:
        raise ValueError(f"{len(vectors)} embedding rows for {m} generated texts")
    vectors = np.asarray(vectors, dtype=np.float64)
    embeddings = np.vstack([graph.embeddings, vectors.astype(graph.embeddings.dtype)])
    labels = np.concatenate([graph.labels, np.full(m, -1, dtype=np.int64)])

    if edge_mode == "none":
        edges = graph.edges.copy()
    elif edge_mode == "knn":
        if not 0 <= knn_k < n:
            raise InputError(f"knn_k must be at least 0 and below the graph's {n} nodes, "
                             f"got {knn_k}")
        base = graph.embeddings.astype(np.float64)
        base_norm = np.linalg.norm(base, axis=1)
        base_norm[base_norm == 0] = 1.0
        targets = []
        for v in vectors:
            v_norm = np.linalg.norm(v) or 1.0
            sims = (base @ v) / (base_norm * v_norm)
            targets.append(_top_k_lowest_id(sims, knn_k))
        edges = graph.edges.reshape(-1, 2)
        edges = unique_edges(
            np.concatenate([edges[:, 0], *targets]),
            np.concatenate([edges[:, 1], np.repeat(np.arange(n, n + m), knn_k)]),
            n + m,
        )
    else:
        raise ValueError(f"unknown edge_mode {edge_mode!r}")

    combined = TextAttributedGraph(
        node_count=n + m, edges=edges, texts=list(graph.texts) + list(texts),
        embeddings=embeddings, labels=labels,
    )
    combined.validate()
    return combined


_PROVENANCE_ROW = '    {\n      "node_id": %d,\n      "parsed": %s\n    }'


def save_pseudo_set(pseudo: PseudoOodSet, path: Path | str) -> None:
    """Write the bytes of ``json.dumps({"mode", "node_ids", "provenance"},
    indent=2) + "\\n"``, built from one template per provenance row, since
    ``indent`` makes ``json.dumps`` run its pure-Python encoder. A row must
    hold exactly an int ``node_id`` and a str ``parsed``, in that order."""
    encode = functools.cache(json.dumps)   # each distinct ``parsed`` once
    rows = []
    for row in pseudo.provenance:
        if tuple(row) != ("node_id", "parsed") or type(row["node_id"]) is not int \
                or not isinstance(row["parsed"], str):
            raise ValueError(f"not a provenance row of node_id and parsed: {row!r}")
        rows.append(_PROVENANCE_ROW % (row["node_id"], encode(row["parsed"])))
    ids = [str(int(v)) for v in pseudo.node_ids]
    Path(path).write_text(
        '{\n  "mode": %s,\n  "node_ids": %s,\n  "provenance": %s\n}\n' % (
            json.dumps(pseudo.mode),
            "[\n    " + ",\n    ".join(ids) + "\n  ]" if ids else "[]",
            "[\n" + ",\n".join(rows) + "\n  ]" if rows else "[]"),
        encoding="utf-8")


def load_pseudo_set(path: Path | str) -> PseudoOodSet:
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    return PseudoOodSet(
        mode=data["mode"],
        node_ids=np.array(data["node_ids"], dtype=np.int64),
        provenance=list(data.get("provenance", [])),
    )
