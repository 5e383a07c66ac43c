import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from sevi import brandsem
from sevi.brandsem import (HttpChatClient, OfflineFixtureClient, ReferenceDb, S2_PARAMS,
                           DecodedImage, TierAssignment, VlmRequest,
                           classify, decode_corpus, evaluate,
                           harmonic_f1, load_corpus, load_labeled_pairs,
                           normalize_brand, parse_model_json,
                           request_hash, stage1_request, stage2_request, tally_by_point)
from sevi.exceptions import ModelOutputError, SchemaError, TransportError, ValidationError
from sevi.geodata import BrandTally

DB = ReferenceDb.from_mapping({
    "Starbucks": {"tier": "International", "aliases": ["星巴克", "STARBUCKS COFFEE"]},
    "Jinling Teahouse": {"tier": "Local", "aliases": ["金陵茶馆"]},
    "Corner Grocery": {"tier": "Ordinary", "aliases": []},
})


class _ExplodingClient:
    def complete(self, request):
        raise AssertionError("client must not be called")


class _RecordingClient:
    def __init__(self, answer_json):
        self.answer = answer_json
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.answer


# ---------------------------------------------------------------------------
# prompts
# ---------------------------------------------------------------------------

def test_prompts_deterministic():
    a = stage1_request("img1"), stage2_request("img1", DB, ["X", "Y"])
    b = stage1_request("img1"), stage2_request("img1", DB, ["X", "Y"])
    assert a == b


def test_empty_db_marker():
    s2 = stage2_request("img1", ReferenceDb(), ["X"]).prompt
    assert "(reference database is empty)" in s2


def test_db_names_appear_verbatim():
    s2 = stage2_request("img1", DB, []).prompt
    for name in ("Starbucks", "Jinling Teahouse", "Corner Grocery"):
        assert name in s2


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_s1_empty_list():
    resp = parse_model_json('{"brands_found": [], "summary": "none"}', "s1")
    assert resp.brands_found == []
    assert resp.summary == "none"


def test_parse_fenced_equals_unfenced():
    raw = '{"brands_found": ["A"], "summary": "s"}'
    fenced = f"```json\n{raw}\n```"
    assert parse_model_json(fenced, "s1").brands_found == \
           parse_model_json(raw, "s1").brands_found


def test_parse_s2_single_assignment():
    assert parse_model_json('{"Starbucks": "International"}', "s2") == \
           {"Starbucks": "International"}


def test_parse_rejects_unknown_keys():
    with pytest.raises(ModelOutputError):
        parse_model_json('{"brands_found": [], "summary": "s", "extra": 1}', "s1")


def test_parse_rejects_unknown_tier():
    with pytest.raises(ModelOutputError):
        parse_model_json('{"X": "Premium"}', "s2")


def test_parse_rejects_non_string_brands():
    with pytest.raises(ModelOutputError):
        parse_model_json('{"brands_found": [1], "summary": "s"}', "s1")


def test_parse_error_carries_raw_text():
    with pytest.raises(ModelOutputError) as err:
        parse_model_json("not json at all", "s1")
    assert err.value.raw == "not json at all"


# ---------------------------------------------------------------------------
# reference db
# ---------------------------------------------------------------------------

def test_alias_collision_rejected():
    with pytest.raises(ValidationError, match="maps to both"):
        ReferenceDb.from_mapping({
            "A": {"tier": "Local", "aliases": ["shared"]},
            "B": {"tier": "Ordinary", "aliases": ["SHARED"]},
        })


_STARBUCKS = {"tier": "International", "aliases": ["星巴克"]}
_NOT_STRINGS = "entry 'Starbucks': aliases must be a list of strings, got "

# per malformed reference db: the mapping and the message of its error
_BAD_DBS = {
    "aliases as one string": ({"Starbucks": {**_STARBUCKS, "aliases": "星巴克"}},
                              _NOT_STRINGS + "'星巴克'"),
    "aliases as one spaced string": ({"Starbucks": {**_STARBUCKS, "aliases": "STARBUCKS COFFEE"}},
                                     _NOT_STRINGS + "'STARBUCKS COFFEE'"),
    "integer alias": ({"Starbucks": {**_STARBUCKS, "aliases": ["星巴克", 7]}},
                      _NOT_STRINGS + "['星巴克', 7]"),
    "entry not an object": ({"Starbucks": "International"},
                            "entry 'Starbucks': expected an object with a tier and aliases, "
                            "got 'International'"),
    "document a list": ([{"Starbucks": _STARBUCKS}],
                        "reference db must map brand names to entries, got a list"),
}


@pytest.mark.parametrize("case", list(_BAD_DBS))
def test_malformed_reference_db_names_its_entry(case):
    mapping, message = _BAD_DBS[case]
    with pytest.raises(ValidationError) as err:
        ReferenceDb.from_mapping(mapping)
    assert message in str(err.value)


def test_normalization_rules():
    assert normalize_brand("  Star  Bucks  ") == "star bucks"
    assert DB.resolve("sTARBUCKS   coffee") == ("Starbucks", "International")
    assert DB.resolve("星巴克") == ("Starbucks", "International")
    assert DB.resolve("unknown thing") is None


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_alias_hit_skips_client():
    assignment = classify(["星巴克", "corner grocery"], DB, _ExplodingClient())
    assert assignment.tiers == {"星巴克": "International", "corner grocery": "Ordinary"}
    assert set(assignment.provenance.values()) == {"reference-db"}


def test_empty_input_skips_client():
    assignment = classify([], DB, _ExplodingClient())
    assert assignment.tiers == {}


def test_batched_model_call_and_fixture_match():
    answer = json.dumps({"New Cafe": "Local", "Mega Chain": "International",
                         "Side Stall": "Ordinary", "Odd Shop": "Ordinary",
                         "Fifth Brand": "Local"})
    client = _RecordingClient(answer)
    raw = ["New Cafe", "Mega Chain", "Side Stall", "Odd Shop", "Fifth Brand"]
    assignment = classify(raw, DB, client)
    assert len(client.requests) == 1  # one batched call
    assert client.requests[0].stage == "s2"
    assert client.requests[0].params == S2_PARAMS
    assert assignment.tiers == json.loads(answer)
    assert set(assignment.provenance.values()) == {"model"}


def test_unresolved_defaults_to_ordinary_with_flag():
    client = _RecordingClient(json.dumps({"Known": "Local"}))
    assignment = classify(["Known", "Ghost Sign"], DB, client)
    assert assignment.tiers["Ghost Sign"] == "Ordinary"
    assert assignment.provenance["Ghost Sign"] == "default"
    assert assignment.unresolved == ["Ghost Sign"]


def test_stage2_request_lists_each_unresolved_string_once():
    client = _RecordingClient(json.dumps({"Nova Sports": "Local"}))
    assignment = classify(["Nova Sports", "Starbucks", "Nova Sports", "nova sports"], DB, client)
    (request,) = client.requests
    assert request == stage2_request("batch", DB, ["Nova Sports", "nova sports"])
    assert 'Observed brand strings: ["Nova Sports", "nova sports"]' in request.prompt
    assert assignment.tiers == {"Nova Sports": "Local", "Starbucks": "International",
                                "nova sports": "Local"}


def test_never_fewer_assignments_than_inputs():
    client = _RecordingClient(json.dumps({}))
    raw = ["A", "B", "C"]
    assignment = classify(raw, DB, client)
    assert set(assignment.tiers) == set(raw)


def test_fixture_miss_is_an_error():
    client = OfflineFixtureClient({})
    request = VlmRequest(image_ref="img", prompt="p", params=S2_PARAMS, stage="s2")
    with pytest.raises(TransportError, match="no offline fixture"):
        client.complete(request)


def test_request_hash_sensitive_to_prompt():
    a = VlmRequest(image_ref="img", prompt="p1", params=S2_PARAMS, stage="s2")
    b = VlmRequest(image_ref="img", prompt="p2", params=S2_PARAMS, stage="s2")
    assert request_hash(a) != request_hash(b)
    assert request_hash(a) == request_hash(a)


# ---------------------------------------------------------------------------
# tallies
# ---------------------------------------------------------------------------

def _image(point_id, tiers, image_id="img"):
    return DecodedImage(image_id=image_id, point_id=point_id,
                        assignment=TierAssignment(tiers=tiers))


def test_brand_counts_all_ordinary():
    tally = tally_by_point([_image("p0", {f"b{i}": "Ordinary" for i in range(4)})])
    assert tally == {"p0": BrandTally(n_ordinary=4)}


def test_brand_counts_mixed_hand_tally():
    # two images of p0 add up; p1 is tallied apart
    decoded = [_image("p0", {"a": "Local", "b": "International"}, "i0"),
               _image("p1", {"a": "International"}, "i1"),
               _image("p0", {"c": "Local", "d": "Ordinary"}, "i2")]
    assert tally_by_point(decoded) == {
        "p0": BrandTally(n_local=2, n_international=1, n_ordinary=1),
        "p1": BrandTally(n_international=1)}


def test_brand_counts_empty():
    assert tally_by_point([_image("p0", {})]) == {"p0": BrandTally()}
    assert tally_by_point([]) == {}


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

def test_perfect_predictions_score_one():
    gt = {"img1": {("starbucks", "International"), ("corner grocery", "Ordinary")},
          "img2": {("jinling teahouse", "Local")}}
    rep = evaluate(gt, gt)
    for tier in ("International", "Local", "Ordinary"):
        assert rep.per_tier[tier].precision == 1.0
        assert rep.per_tier[tier].recall == 1.0
        assert rep.per_tier[tier].f1 == 1.0
    assert rep.overall.f1 == 1.0


def test_image_id_mismatch_rejected():
    gt = {"img1": {("a", "Local")}}
    pred = {"img2": {("a", "Local")}}
    with pytest.raises(ValidationError, match="image id mismatch"):
        evaluate(pred, gt)


def test_f1_identity_and_paper_spot_check():
    assert harmonic_f1(0.802, 0.737) == pytest.approx(0.768, abs=1e-3)
    assert harmonic_f1(0.0, 0.0) == 0.0
    # the paper's per-tier (precision, recall): International, Ordinary, Local
    for precision, recall in ((0.802, 0.737), (1.000, 0.852), (0.939, 0.660)):
        assert harmonic_f1(precision, recall) == pytest.approx(
            2 * precision * recall / (precision + recall), abs=1e-9)


def test_adding_correct_prediction_never_decreases_recall():
    gt = {"img1": {("a", "Local"), ("b", "Local")}}
    sparse = {"img1": {("a", "Local")}}
    fuller = {"img1": {("a", "Local"), ("b", "Local")}}
    assert evaluate(fuller, gt).per_tier["Local"].recall >= \
           evaluate(sparse, gt).per_tier["Local"].recall


def test_adding_incorrect_prediction_never_increases_precision():
    gt = {"img1": {("a", "Local")}}
    clean = {"img1": {("a", "Local")}}
    noisy = {"img1": {("a", "Local"), ("zzz", "Local")}}
    assert evaluate(noisy, gt).per_tier["Local"].precision <= \
           evaluate(clean, gt).per_tier["Local"].precision


def test_evaluation_normalizes_brand_names():
    gt = {"img1": {("Starbucks", "International")}}
    pred = {"img1": {("  STARBUCKS ", "International")}}
    rep = evaluate(pred, gt)
    assert rep.per_tier["International"].f1 == 1.0


# ---------------------------------------------------------------------------
# corpus decoding over offline fixtures
# ---------------------------------------------------------------------------

def test_offline_decode_is_total_and_deterministic(corpus_dir):
    db = ReferenceDb.from_json(corpus_dir / "reference_db.json")
    client = OfflineFixtureClient.from_json(corpus_dir / "fixtures.json")
    corpus = load_corpus(corpus_dir / "corpus.csv")
    assert len(corpus) == 50

    decoded_a = decode_corpus(corpus, db, client)
    decoded_b = decode_corpus(corpus, db, client)
    assert decoded_a == decoded_b
    assert [d.image_id for d in decoded_a] == sorted(d.image_id for d in decoded_a)

    total_brands = sum(len(d.assignment.tiers) for d in decoded_a)
    assert total_brands > 0
    for d in decoded_a:
        for brand, tier in d.assignment.tiers.items():
            assert tier in ("International", "Local", "Ordinary")
    # the planted silent brand is defaulted and flagged, never dropped
    flagged = [b for d in decoded_a for b in d.assignment.unresolved]
    assert all(b == "Mystery Sign 9" for b in flagged)
    assert flagged  # the corpus plants at least one

    tally = tally_by_point(decoded_a)
    assert sum(t.n_local + t.n_international + t.n_ordinary
               for t in tally.values()) == total_brands


class _FixtureRecorder(OfflineFixtureClient):
    """The offline client, recording the hash of each request and the
    thread that sent it."""

    def __init__(self, fixtures):
        super().__init__(fixtures)
        self.sent = []

    def complete(self, request):
        self.sent.append((request_hash(request), threading.current_thread()))
        return super().complete(request)


def test_offline_decode_on_four_threads_equals_one(corpus_dir):
    db = ReferenceDb.from_json(corpus_dir / "reference_db.json")
    corpus = load_corpus(corpus_dir / "corpus.csv")
    decoded = {}
    for parallelism in (1, 4):
        client = _FixtureRecorder.from_json(corpus_dir / "fixtures.json")
        decoded[parallelism] = decode_corpus(corpus, db, client, parallelism=parallelism)
        # an offline client goes through the thread pool like any other
        assert threading.main_thread() not in {thread for _, thread in client.sent}
    assert decoded[4] == decoded[1]


def test_decode_sends_exactly_the_fixture_requests(corpus_dir):
    # synth keys each fixture by the hash of a request built by the same
    # two builders the decode uses: every fixture is used, every request has one
    client = _FixtureRecorder.from_json(corpus_dir / "fixtures.json")
    decode_corpus(load_corpus(corpus_dir / "corpus.csv"),
                  ReferenceDb.from_json(corpus_dir / "reference_db.json"), client)
    assert sorted(key for key, _ in client.sent) == sorted(client.fixtures)


def test_malformed_fixture_never_silently_empty(corpus_dir):
    db = ReferenceDb.from_json(corpus_dir / "reference_db.json")
    client = OfflineFixtureClient.from_json(corpus_dir / "fixtures.json")
    # corrupt one fixture in memory
    key = sorted(client.fixtures)[0]
    client.fixtures[key] = "garbage {{{"
    with pytest.raises((ModelOutputError, TransportError)):
        decode_corpus(load_corpus(corpus_dir / "corpus.csv"), db, client)


def test_non_string_fixture_response_names_its_key(tmp_path):
    path = tmp_path / "fixtures.json"
    path.write_text(json.dumps({"a1": '{"Starbucks": "International"}', "b2": 7}),
                    encoding="utf-8")
    with pytest.raises(ValidationError, match="response 'b2' is not a string: 7"):
        OfflineFixtureClient.from_json(path)
    path.write_text(json.dumps(["{}"]), encoding="utf-8")
    with pytest.raises(ValidationError, match="expected an object of responses"):
        OfflineFixtureClient.from_json(path)


# per fault in a labeled-pairs CSV: its rows and the error of the first bad row
_LABELED_FAULTS = {
    "empty image id": ("img1,A,Local\n ,B,Local\n", "row 3, column 'image_id': empty id"),
    "empty brand": ("img1,,Local\nimg2,B,Local\n", "row 2, column 'brand': empty brand"),
    "blank brand": ("img1,A,Local\nimg2, ,Local\n", "row 3, column 'brand': empty brand"),
    "unknown tier": ("img1,A,Local\nimg2,B,Global\n",
                     "row 3, column 'tier': unknown tier 'Global'"),
    "smallest row first": ("img1,A,Global\nimg2,,Local\n",
                           "row 2, column 'tier': unknown tier 'Global'"),
    "brand before tier": ("img1,,Global\n", "row 2, column 'brand': empty brand"),
}


@pytest.mark.parametrize("case", list(_LABELED_FAULTS))
def test_labeled_pairs_name_their_first_bad_row(tmp_path, case):
    rows, message = _LABELED_FAULTS[case]
    path = tmp_path / "pairs.csv"
    path.write_text("image_id,brand,tier\n" + rows, encoding="utf-8")
    with pytest.raises(SchemaError) as err:
        load_labeled_pairs(path)
    assert str(err.value) == f"{path}: {message}"


def test_load_labeled_pairs_and_eval_against_plant(corpus_dir):
    gt = load_labeled_pairs(corpus_dir / "ground_truth.csv")
    pred = load_labeled_pairs(corpus_dir / "predictions.csv")
    for image_id in gt:
        pred.setdefault(image_id, set())
    rep = evaluate(pred, gt)
    # degraded predictions must score strictly between chance and perfection
    assert 0.3 < rep.overall.f1 < 1.0
    assert all(0.0 <= m.recall <= 1.0 and 0.0 <= m.precision <= 1.0
               for m in rep.per_tier.values())


# ---------------------------------------------------------------------------
# live HTTP client, against a local server
# ---------------------------------------------------------------------------

@pytest.fixture
def chat_server(monkeypatch):
    """A localhost endpoint answering with the queued replies, then with 200
    and an echo of the model: an int is that HTTP status with the echo, any
    other value a 200 with that value as its JSON body. It records each
    request's headers and body. `time.sleep` is stubbed to record the retry
    back-off."""
    seen, replies, sleeps = [], [], []

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            seen.append((dict(self.headers), body))
            reply = replies.pop(0) if replies else 200
            echo = {"choices": [{"message": {"content": f"echo {body['model']}"}}]}
            status, answer = (reply, echo) if isinstance(reply, int) else (200, reply)
            data = json.dumps(answer).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setattr(brandsem.time, "sleep", sleeps.append)
    client = HttpChatClient(f"http://127.0.0.1:{server.server_port}/v1/chat", token="t0k",
                            model="m1", timeout=10.0, max_retries=3)
    yield client, seen, replies, sleeps
    server.shutdown()
    server.server_close()
    thread.join()


_REQUEST = VlmRequest(image_ref="img-1", prompt="read the signs", params=S2_PARAMS, stage="s2")


def test_http_client_posts_and_parses(chat_server):
    client, seen, _, sleeps = chat_server
    assert client.complete(_REQUEST) == "echo m1"
    (headers, body), = seen
    assert headers["Authorization"] == "Bearer t0k"
    assert headers["X-Idempotency-Key"] == request_hash(_REQUEST)
    assert body["messages"] == [{"role": "user", "content": "read the signs"}]
    assert body["max_tokens"] == S2_PARAMS.max_new_tokens
    assert sleeps == []


def test_http_client_retries_a_server_error(chat_server):
    client, seen, statuses, sleeps = chat_server
    statuses.append(500)
    assert client.complete(_REQUEST) == "echo m1"
    assert len(seen) == 2
    assert sleeps == [1.0]


def test_http_client_gives_up_after_max_retries(chat_server):
    client, seen, statuses, sleeps = chat_server
    statuses.extend([500, 502, 503])
    with pytest.raises(TransportError, match="after 3 attempts"):
        client.complete(_REQUEST)
    assert len(seen) == 3
    assert sleeps == [1.0, 2.0]


@pytest.mark.parametrize("answer", [{"choices": []}, {"choices": ["x"]},
                                    {"choices": [{"message": {"content": None}}]}])
def test_http_client_retries_a_reply_without_text(chat_server, answer):
    # a 200 whose reply holds no text at choices[0].message.content is a
    # failed attempt: it is retried, and a lasting one raises TransportError
    client, seen, replies, sleeps = chat_server
    replies.append(answer)
    assert client.complete(_REQUEST) == "echo m1"
    assert len(seen) == 2 and sleeps == [1.0]

    replies.extend([answer] * 3)
    with pytest.raises(TransportError, match=r"after 3 attempts: .*choices\[0\]\.message"):
        client.complete(_REQUEST)
    assert len(seen) == 5
