"""Dual-stage brand decoding over an abstract remote-model client, tier
classification against a reference database, and pipeline evaluation.

Stage 1 transcribes visible signage text into a strict two-key JSON object;
stage 2 rectifies and classifies the raw strings into brand tiers. One
function builds each stage's whole request, `stage1_request` and
`stage2_request`; a corpus is decoded on a bounded thread pool for every
client. All tests and the bundled pipelines run against the deterministic
offline fixture backend; the live HTTP backend reads its endpoint, token,
and model name from environment variables only.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Protocol

from .exceptions import ModelOutputError, TransportError, ValidationError
from .geodata import BrandTally, _Check, _id_checks, _isin, _raise_first, _read_csv_rows

TIERS = ("International", "Local", "Ordinary")

ENV_ENDPOINT = "SEVI_BRAND_ENDPOINT"
ENV_TOKEN = "SEVI_BRAND_TOKEN"
ENV_MODEL = "SEVI_BRAND_MODEL"

PROMPT_VERSION = "v1"

# the columns of the brand-corpus tables, all text, read stripped
CORPUS_SCHEMA = {"image_id": "text", "point_id": "text"}
LABELED_SCHEMA = {"image_id": "text", "brand": "text", "tier": "text"}

_FENCE_RE = re.compile(r"^```[a-zA-Z0-9_-]*\s*\n(.*?)\n?```\s*$", re.DOTALL)
_WS_RE = re.compile(r"\s+")


def normalize_brand(text: str) -> str:
    """Canonical form for matching: casefold, trim, collapse whitespace."""
    return _WS_RE.sub(" ", text.strip()).casefold()


@dataclass(frozen=True)
class GenerationParams:
    temperature: float = 0.0
    top_p: float = 1.0
    max_new_tokens: int = 64
    do_sample: bool = False


S1_PARAMS = GenerationParams(max_new_tokens=64)
S2_PARAMS = GenerationParams(max_new_tokens=128)


@dataclass(frozen=True)
class VlmRequest:
    image_ref: str
    prompt: str
    params: GenerationParams
    stage: str  # "s1" | "s2"


@dataclass
class VlmResponse:
    brands_found: list[str]
    summary: str


def request_hash(request: VlmRequest) -> str:
    payload = json.dumps(
        {"image_ref": request.image_ref, "prompt": request.prompt,
         "stage": request.stage, "params": asdict(request.params),
         "version": PROMPT_VERSION},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# reference database
# ---------------------------------------------------------------------------

@dataclass
class ReferenceDb:
    """Canonical brand names with tiers and alias lists.

    Canonical names and aliases share one lookup namespace; an alias mapping
    to two canonical entries is a load error.
    """

    entries: dict[str, tuple[str, list[str]]] = field(default_factory=dict)
    _lookup: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_mapping(cls, mapping: dict) -> "ReferenceDb":
        """`mapping` gives each canonical name {"tier": ..., "aliases": [...]}."""
        if not isinstance(mapping, dict):
            raise ValidationError("reference db must map brand names to entries, "
                                  f"got a {type(mapping).__name__}")
        db = cls()
        for canonical in sorted(mapping):
            spec = mapping[canonical]
            if not isinstance(spec, dict):
                raise ValidationError(f"reference db entry {canonical!r}: expected an object "
                                      f"with a tier and aliases, got {spec!r}")
            tier, aliases = spec.get("tier"), spec.get("aliases", [])
            if tier not in TIERS:
                raise ValidationError(
                    f"reference db entry {canonical!r}: unknown tier {tier!r}"
                )
            if not (isinstance(aliases, list) and all(isinstance(a, str) for a in aliases)):
                raise ValidationError(f"reference db entry {canonical!r}: aliases must be a "
                                      f"list of strings, got {aliases!r}")
            db.entries[canonical] = (tier, list(aliases))
            for name in [canonical, *aliases]:
                key = normalize_brand(name)
                if not key:
                    raise ValidationError(f"reference db entry {canonical!r}: empty alias")
                if key in db._lookup and db._lookup[key] != canonical:
                    raise ValidationError(
                        f"alias {name!r} maps to both {db._lookup[key]!r} and {canonical!r}"
                    )
                db._lookup[key] = canonical
        return db

    @classmethod
    def from_json(cls, path) -> "ReferenceDb":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                mapping = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read reference db {path}: {exc}") from exc
        return cls.from_mapping(mapping)

    def resolve(self, raw: str) -> tuple[str, str] | None:
        """(canonical name, tier) for a raw brand string, or None."""
        canonical = self._lookup.get(normalize_brand(raw))
        if canonical is None:
            return None
        return canonical, self.entries[canonical][0]

    def __len__(self) -> int:
        return len(self.entries)


# ---------------------------------------------------------------------------
# prompts and parsing
# ---------------------------------------------------------------------------

def stage1_request(image_ref: str) -> VlmRequest:
    """The stage-1 request: transcribe the visible signage of one image."""
    prompt = (
        "You are a street-view signage recognition assistant.\n"
        f"Image: {image_ref}\n"
        "Extract only the brand names that are actually visible as text or logos "
        "in the image. Do not fabricate or guess names that are not clearly "
        "readable. If no clear brand is present, return an empty list.\n"
        "Respond with a single JSON object with exactly two keys:\n"
        '  "brands_found": list of visible brand name strings\n'
        '  "summary": one short sentence describing the signage\n'
        "No other keys and no text outside the JSON object."
    )
    return VlmRequest(image_ref=image_ref, prompt=prompt, params=S1_PARAMS, stage="s1")


def stage2_request(image_ref: str, reference_db: ReferenceDb,
                   raw_brands: list[str]) -> VlmRequest:
    """The stage-2 request: classify `raw_brands` into tiers against `reference_db`."""
    if len(reference_db):
        db_lines = "\n".join(
            f"- {name}: {tier}" + (f" (aliases: {', '.join(aliases)})" if aliases else "")
            for name, (tier, aliases) in sorted(reference_db.entries.items())
        )
    else:
        db_lines = "(reference database is empty)"
    brand_list = json.dumps(raw_brands, ensure_ascii=False)
    prompt = (
        "You are a professional commercial classification assistant.\n"
        "Reference database of known brands:\n"
        f"{db_lines}\n"
        f"Observed brand strings: {brand_list}\n"
        "Classify every observed string into exactly one tier, reasoning in this "
        "strict order: (1) if it matches a reference entry or alias, use that "
        "tier; (2) a chain operating across countries is \"International\"; "
        "(3) a recognizable regional chain is \"Local\"; (4) anything else is "
        "\"Ordinary\".\n"
        "Respond with a single JSON object mapping each observed string to its "
        "tier. No other keys and no text outside the JSON object."
    )
    return VlmRequest(image_ref=image_ref, prompt=prompt, params=S2_PARAMS, stage="s2")


def _strip_fences(text: str) -> str:
    stripped = text.strip()
    m = _FENCE_RE.match(stripped)
    if m:
        return m.group(1).strip()
    return stripped


def parse_model_json(text: str, schema: str):
    """Validate raw model output against the `schema` contract, "s1" or "s2".

    Code fences are tolerated; unknown keys and unknown tier strings are
    rejected. Failures raise with the raw text attached, never a silent
    empty result.
    """
    body = _strip_fences(text)
    try:
        doc = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ModelOutputError(f"model output is not valid JSON: {exc}", text)
    if not isinstance(doc, dict):
        raise ModelOutputError(f"model output must be a JSON object, got {type(doc).__name__}", text)

    if schema == "s1":
        if set(doc.keys()) != {"brands_found", "summary"}:
            raise ModelOutputError(
                f"s1 output must have exactly the keys brands_found and summary, "
                f"got {sorted(doc.keys())}", text)
        brands = doc["brands_found"]
        if not isinstance(brands, list) or not all(isinstance(b, str) for b in brands):
            raise ModelOutputError("brands_found must be a list of strings", text)
        if not isinstance(doc["summary"], str):
            raise ModelOutputError("summary must be a string", text)
        return VlmResponse(brands_found=list(brands), summary=doc["summary"])

    for key, tier in doc.items():
        if tier not in TIERS:
            raise ModelOutputError(f"unknown tier {tier!r} for brand {key!r}", text)
    return dict(doc)


# ---------------------------------------------------------------------------
# clients
# ---------------------------------------------------------------------------

class BrandModelClient(Protocol):
    def complete(self, request: VlmRequest) -> str: ...


class OfflineFixtureClient:
    """Deterministic backend keyed by request hash; a miss is an error so
    offline decodes are always total."""

    def __init__(self, fixtures: dict[str, str]):
        self.fixtures = dict(fixtures)

    @classmethod
    def from_json(cls, path) -> "OfflineFixtureClient":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                fixtures = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read fixtures {path}: {exc}") from exc
        if not isinstance(fixtures, dict):
            raise ValidationError(f"fixtures {path}: expected an object of responses")
        for key, response in fixtures.items():
            if not isinstance(response, str):
                raise ValidationError(f"fixtures {path}: response {key!r} is not a string: "
                                      f"{response!r}")
        return cls(fixtures)

    def complete(self, request: VlmRequest) -> str:
        key = request_hash(request)
        if key not in self.fixtures:
            raise TransportError(
                f"no offline fixture for {request.stage} request on "
                f"{request.image_ref!r} (hash {key[:12]}...)"
            )
        return self.fixtures[key]


class HttpChatClient:
    """Minimal chat-completion-style HTTP client with bounded retries.

    Endpoint, token, and model come from the environment, never the command
    line. Each request carries its hash as an idempotency key.
    """

    def __init__(self, endpoint: str, token: str, model: str,
                 timeout: float = 60.0, max_retries: int = 3):
        self.endpoint = endpoint
        self.token = token
        self.model = model
        self.timeout = timeout
        self.max_retries = max_retries

    @classmethod
    def from_env(cls) -> "HttpChatClient":
        endpoint = os.environ.get(ENV_ENDPOINT)
        token = os.environ.get(ENV_TOKEN)
        model = os.environ.get(ENV_MODEL)
        if not (endpoint and token and model):
            raise ValidationError(
                f"live brand backend needs {ENV_ENDPOINT}, {ENV_TOKEN} and "
                f"{ENV_MODEL} in the environment"
            )
        return cls(endpoint=endpoint, token=token, model=model)

    def complete(self, request: VlmRequest) -> str:
        import http.client
        import urllib.request

        payload = {
            "model": self.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.params.temperature,
            "top_p": request.params.top_p,
            "max_tokens": request.params.max_new_tokens,
        }
        headers = {
            "Authorization": f"Bearer {self.token}",
            "X-Idempotency-Key": request_hash(request),
            "Content-Type": "application/json",
        }
        body = json.dumps(payload).encode("utf-8")
        last_err = None
        for attempt in range(self.max_retries):
            if attempt:  # back off between attempts, not after the last
                time.sleep(min(2.0 ** (attempt - 1), 8.0))
            try:
                post = urllib.request.Request(self.endpoint, data=body, headers=headers,
                                              method="POST")
                # an HTTP error status raises HTTPError, an OSError
                with urllib.request.urlopen(post, timeout=self.timeout) as resp:
                    reply = json.loads(resp.read())
            except (OSError, http.client.HTTPException, ValueError) as exc:
                last_err = exc
                continue
            try:
                content = reply["choices"][0]["message"]["content"]
            except (LookupError, TypeError):  # a reply of another shape
                content = None
            if isinstance(content, str):
                return content
            last_err = "the reply has no text at choices[0].message.content"
        raise TransportError(f"model call failed after {self.max_retries} attempts: {last_err}")


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class TierAssignment:
    """Exactly one tier per input brand string."""

    tiers: dict[str, str] = field(default_factory=dict)
    provenance: dict[str, str] = field(default_factory=dict)  # reference-db | model | default

    @property
    def unresolved(self) -> list[str]:
        return sorted(b for b, src in self.provenance.items() if src == "default")


def classify(raw_brands: list[str], reference_db: ReferenceDb,
             client: BrandModelClient, image_ref: str = "batch") -> TierAssignment:
    """Reference database first, then one batched stage-2 model call for the
    remainder; anything still unresolved defaults to Ordinary with a flag."""
    assignment = TierAssignment()
    pending: list[str] = []
    for raw in dict.fromkeys(raw_brands):  # each distinct string once, in input order
        hit = reference_db.resolve(raw)
        if hit is not None:
            assignment.tiers[raw] = hit[1]
            assignment.provenance[raw] = "reference-db"
        else:
            pending.append(raw)

    if pending:
        request = stage2_request(image_ref, reference_db, pending)
        answer = parse_model_json(client.complete(request), "s2")
        by_norm = {normalize_brand(k): v for k, v in answer.items()}
        for raw in pending:
            tier = answer.get(raw) or by_norm.get(normalize_brand(raw))
            if tier is not None:
                assignment.tiers[raw] = tier
                assignment.provenance[raw] = "model"
            else:
                assignment.tiers[raw] = "Ordinary"
                assignment.provenance[raw] = "default"
    return assignment


# ---------------------------------------------------------------------------
# corpus decoding
# ---------------------------------------------------------------------------

@dataclass
class DecodedImage:
    image_id: str
    point_id: str
    assignment: TierAssignment


def load_corpus(path) -> list[tuple[str, str]]:
    """corpus.csv rows (image_id, point_id) in file order. Image ids are
    distinct, and no id is empty."""
    lines, columns = _read_csv_rows(path, CORPUS_SCHEMA)
    image_ids, point_ids = (columns[name] for name in CORPUS_SCHEMA)
    _raise_first(path, lines, [*_id_checks("image_id", image_ids, "image"),
                               _Check("point_id", _isin(point_ids, {""}), lambda i: "empty id")])
    return list(zip(image_ids, point_ids))


def _decode_one(image_id: str, point_id: str, reference_db: ReferenceDb,
                client: BrandModelClient) -> DecodedImage:
    response = parse_model_json(client.complete(stage1_request(image_id)), "s1")
    assignment = classify(response.brands_found, reference_db, client, image_ref=image_id)
    return DecodedImage(image_id=image_id, point_id=point_id, assignment=assignment)


def decode_corpus(corpus: list[tuple[str, str]], reference_db: ReferenceDb,
                  client: BrandModelClient, parallelism: int = 1) -> list[DecodedImage]:
    """Run the full two-stage decode over a corpus, ordered by image id.

    The images are decoded on a pool of `parallelism` threads, whatever the
    client; the results, and the first failure, come back in image-id order.
    """
    ordered = sorted(corpus, key=lambda t: t[0])
    with ThreadPoolExecutor(max_workers=parallelism) as pool:
        return list(pool.map(lambda row: _decode_one(*row, reference_db, client), ordered))


def tally_by_point(decoded: list[DecodedImage]) -> dict[str, BrandTally]:
    acc: dict[str, dict[str, int]] = {}
    for item in decoded:
        slot = acc.setdefault(item.point_id, dict.fromkeys(TIERS, 0))
        for tier in item.assignment.tiers.values():
            slot[tier] += 1
    return {pid: BrandTally(c["Local"], c["International"], c["Ordinary"])
            for pid, c in acc.items()}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

RATES = ("precision", "recall", "f1")  # the leading fields of TierMetrics


@dataclass
class TierMetrics:
    precision: float
    recall: float
    f1: float
    tp: int = 0
    fp: int = 0
    fn: int = 0


@dataclass
class EvalReport:
    per_tier: dict[str, TierMetrics]
    overall: TierMetrics
    gt_counts: dict[str, int]


def harmonic_f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _overall_mean(per_tier: dict[str, TierMetrics]) -> TierMetrics:
    return TierMetrics(*(sum(getattr(per_tier[t], rate) for t in TIERS) / len(TIERS)
                         for rate in RATES))


def load_labeled_pairs(path) -> dict[str, set[tuple[str, str]]]:
    """CSV (image_id, brand, tier) -> per-image sets of normalized pairs. No
    image id or brand is empty, and every tier is one of TIERS."""
    out: dict[str, set[tuple[str, str]]] = {}
    lines, columns = _read_csv_rows(path, LABELED_SCHEMA)
    image_ids, brands, tiers = (columns[name] for name in LABELED_SCHEMA)
    _raise_first(path, lines, [
        _Check("image_id", _isin(image_ids, {""}), lambda i: "empty id"),
        _Check("brand", _isin(brands, {""}), lambda i: "empty brand"),
        _Check("tier", ~_isin(tiers, TIERS), lambda i: f"unknown tier {tiers[i]!r}")])
    for image_id, brand, tier in zip(image_ids, brands, tiers):
        out.setdefault(image_id, set()).add((normalize_brand(brand), tier))
    return out


def evaluate(predictions: dict[str, set[tuple[str, str]]],
             ground_truth: dict[str, set[tuple[str, str]]]) -> EvalReport:
    """Per-tier set matching of (canonical brand, tier) pairs per image.

    The overall row is the unweighted mean of the three tier rows. The two
    inputs must cover exactly the same image ids.
    """
    if set(predictions) != set(ground_truth):
        only_pred = sorted(set(predictions) - set(ground_truth))[:5]
        only_gt = sorted(set(ground_truth) - set(predictions))[:5]
        raise ValidationError(
            f"image id mismatch between predictions and ground truth "
            f"(only in predictions: {only_pred}, only in ground truth: {only_gt})"
        )
    counts = {t: {"tp": 0, "fp": 0, "fn": 0} for t in TIERS}
    gt_counts = {t: 0 for t in TIERS}
    for image_id in ground_truth:
        pred = {(normalize_brand(b), t) for b, t in predictions[image_id]}
        gt = {(normalize_brand(b), t) for b, t in ground_truth[image_id]}
        for tier in TIERS:
            p_set = {b for b, t in pred if t == tier}
            g_set = {b for b, t in gt if t == tier}
            counts[tier]["tp"] += len(p_set & g_set)
            counts[tier]["fp"] += len(p_set - g_set)
            counts[tier]["fn"] += len(g_set - p_set)
            gt_counts[tier] += len(g_set)

    per_tier = {}
    for tier in TIERS:
        tp, fp, fn = counts[tier]["tp"], counts[tier]["fp"], counts[tier]["fn"]
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        per_tier[tier] = TierMetrics(precision=precision, recall=recall,
                                     f1=harmonic_f1(precision, recall),
                                     tp=tp, fp=fp, fn=fn)
    return EvalReport(per_tier=per_tier, overall=_overall_mean(per_tier),
                      gt_counts=gt_counts)
