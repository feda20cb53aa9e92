import json

import pytest

from mforge import (
    GF,
    LinearMatroid,
    SchemaError,
    SizeCapError,
    free_swirl,
    io_roundtrip,
    matroid_from_json,
    matroid_to_json,
    pg,
    two_sum_chain,
    uniform,
)


def test_linear_document_shape():
    doc = matroid_to_json(pg(3, 2).matroid)
    assert set(doc) == {"kind", "field", "columns"}
    assert doc["kind"] == "linear"
    assert doc["field"] == {"p": 2, "k": 1, "modulus": [0, 1]}
    assert len(doc["columns"]) == 7


def test_bases_document_shape():
    doc = matroid_to_json(uniform(2, 4).matroid)
    assert doc["kind"] == "bases"
    assert doc["rank"] == 2 and doc["n"] == 4
    assert doc["bases"] == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def test_views_serialize_as_bases():
    doc = matroid_to_json(free_swirl(4).matroid)
    assert doc["kind"] == "bases"
    assert doc["rank"] == 4 and doc["n"] == 8


@pytest.mark.parametrize(
    "m",
    [
        pg(3, 2).matroid,
        pg(2, 9).matroid,
        uniform(2, 4).matroid,
        uniform(0, 2).matroid,
        free_swirl(4).matroid,
        two_sum_chain(2).matroid,
        pg(3, 2).matroid.dual(),
        pg(4, 2).matroid,  # PG(3,2): 15 elements, so the sampled check runs
    ],
)
def test_roundtrip_rank_agreement(m):
    assert io_roundtrip(m)


def test_documents_past_the_verify_cap_are_refused():
    # the loader checks basis exchange on at most 5000 bases, so the writer
    # refuses more, for a bases backend and for a materialized view alike
    with pytest.raises(SizeCapError, match="11440 bases exceed"):
        matroid_to_json(uniform(7, 16).matroid)
    # materialize_bases stops at the first basis past the cap, so the count
    # of the view's 24696 bases is never reached
    plane = pg(3, 7).matroid.delete({0})  # 56 points of PG(2,7)
    with pytest.raises(SizeCapError, match="5001 bases exceed cap 5000"):
        matroid_to_json(plane)


# four one-element bases on a ground of 400,000,001 elements: 107 bytes of JSON
# whose masks would take about 50 MB each
_HUGE_GROUND = ('{"kind":"bases","rank":1,"n":400000001,'
                '"bases":[[400000000],[399999999],[399999998],[399999997]]}')


def test_bases_loader_checks_the_ground_cap_before_building_masks():
    import tracemalloc

    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=r"^ground size 400000001 outside \[0, 4096\]$"):
            matroid_from_json(_HUGE_GROUND)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_roundtrip_from_string():
    text = json.dumps(matroid_to_json(uniform(2, 4).matroid))
    back = matroid_from_json(text)
    assert back.full_rank == 2 and back.n == 4


def _reason(doc) -> str:
    with pytest.raises(SchemaError) as err:
        matroid_from_json(doc)
    return err.value.reason


def test_schema_rejection_reasons():
    lin = {"kind": "linear", "field": {"p": 2, "k": 1, "modulus": [0, 1]}, "columns": [[1]]}
    assert _reason({**lin, "surprise": 1}) == "unknown-field"
    assert _reason({**lin, "field": {"p": 6, "k": 1, "modulus": [0, 1]}}) == "not-prime-power"
    assert _reason({**lin, "field": {"p": 2, "k": 2, "modulus": [0, 0, 1]}}) == "bad-value"
    # field values are JSON integers as written, and a field has only its three keys
    assert _reason({**lin, "field": {"p": "2", "k": 1, "modulus": [0, 1]}}) == "bad-value"
    assert _reason({**lin, "field": {"p": 2.9, "k": True, "modulus": ["0", "1"]}}) == "bad-value"
    assert _reason({**lin, "field": {"p": 2, "k": 1, "modulus": [0, 1], "q": 2}}) == "unknown-field"
    assert _reason({**lin, "columns": [[2]]}) == "bad-value"  # entry outside GF(2)
    assert _reason({**lin, "columns": [[1], [1, 0]]}) == "bad-value"  # ragged
    assert _reason({**lin, "columns": [[True]]}) == "bad-value"
    assert _reason({"kind": "bases", "rank": 2, "n": 4, "bases": [[0, 1], [2, 3]]}) == "exchange-axiom"
    assert _reason({"kind": "bases", "rank": 2, "n": 4, "bases": [[0, 1, 2]]}) == "bad-value"
    assert _reason({"kind": "bases", "rank": 2, "n": 4, "bases": [[0, 0]]}) == "bad-value"
    assert _reason({"kind": "bases", "rank": 2, "n": 4, "bases": []}) == "bad-value"
    assert _reason({"kind": "bases", "rank": 2, "n": 4, "bases": [[0, 9]]}) == "bad-value"
    assert _reason({"kind": "mystery"}) == "bad-value"
    assert _reason([1, 2, 3]) == "bad-value"
    assert _reason("{not json") == "bad-value"
    assert _reason({"kind": "bases", "rank": -1, "n": 4, "bases": [[0]]}) == "bad-value"


def test_field_documents_checked_strictly():
    lin = {"kind": "linear", "field": {"p": 2, "k": 1}, "columns": [[1]]}
    assert _reason(lin) == "bad-value"  # missing modulus
    lin["field"] = {"p": 2, "k": 1, "modulus": [0, 1], "x": 0}
    assert _reason(lin) == "unknown-field"


def test_parse_reconstructs_arithmetic():
    gf = GF(9)
    m = LinearMatroid(gf, [(1, 0), (0, 1), (1, 1), (1, 3)])
    back = matroid_from_json(matroid_to_json(m))
    assert isinstance(back, LinearMatroid)
    assert back.field == gf
    for x in range(1 << 4):
        assert back.rank(x) == m.rank(x)


def test_saved_files_are_pinned(tmp_path):
    # keys sorted, default separators, one trailing newline
    from mforge.serialize import save_path

    fano, line = tmp_path / "fano.json", tmp_path / "line.json"
    save_path(pg(3, 2).matroid, str(fano))
    save_path(uniform(2, 3).matroid, str(line))
    assert fano.read_bytes() == (
        b'{"columns": [[0, 0, 1], [0, 1, 0], [0, 1, 1], [1, 0, 0], [1, 0, 1], [1, 1, 0], '
        b'[1, 1, 1]], "field": {"k": 1, "modulus": [0, 1], "p": 2}, "kind": "linear"}\n')
    assert line.read_bytes() == b'{"bases": [[0, 1], [0, 2], [1, 2]], "kind": "bases", "n": 3, "rank": 2}\n'
