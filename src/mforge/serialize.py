"""JSON interchange for matroids.

Two document shapes are accepted:

    {"kind": "linear", "field": {"p": 2, "k": 1, "modulus": [0, 1]},
     "columns": [[1, 0], [0, 1], [1, 1]]}

    {"kind": "bases", "rank": 2, "n": 4,
     "bases": [[0, 1], [0, 2], ...]}

Parsing is strict: unknown keys are rejected rather than ignored, so a
typo in a hand-written file fails loudly instead of silently producing
a different matroid.  Every rejection raises SchemaError with a stable
``reason`` tag (unknown-field, not-prime-power, exchange-axiom,
bad-value) so callers can branch without string-matching messages.
"""

from __future__ import annotations

import json

from .errors import NotPrimePowerError, SchemaError, SizeCapError
from .gf import GF
from .matroid import (BASES_VERIFY_CAP, BasesMatroid, LinearMatroid, Matroid, bits, check_ground,
                      materialize_bases, rank_mismatch)

_LINEAR_KEYS = {"kind", "field", "columns"}
_FIELD_KEYS = {"p", "k", "modulus"}
_BASES_KEYS = {"kind", "rank", "n", "bases"}


def _require_int(doc: dict, key: str, low: int = 0) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < low:
        raise SchemaError("bad-value", f"{key!r} must be an integer >= {low}, got {v!r}")
    return v


def _check_keys(doc: dict, allowed: set[str], where: str) -> None:
    extra = set(doc) - allowed
    if extra:
        raise SchemaError("unknown-field", f"unexpected key(s) in {where}: {sorted(extra)}")
    missing = allowed - set(doc)
    if missing:
        raise SchemaError("bad-value", f"missing key(s) in {where}: {sorted(missing)}")


def _field_from_doc(doc: dict) -> GF:
    if not isinstance(doc, dict):
        raise SchemaError("bad-value", "'field' must be an object")
    _check_keys(doc, _FIELD_KEYS, "field")
    p = _require_int(doc, "p", low=2)
    k = _require_int(doc, "k", low=1)
    mod = doc["modulus"]
    if not isinstance(mod, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in mod
    ):
        raise SchemaError("bad-value", "'modulus' must be a list of integers")
    try:
        return GF.from_parts(p, k, tuple(mod))
    except NotPrimePowerError as exc:
        raise SchemaError("not-prime-power", str(exc)) from exc
    except ValueError as exc:
        raise SchemaError("bad-value", f"rejected modulus {mod}: {exc}") from exc


def _linear_from_doc(doc: dict) -> LinearMatroid:
    _check_keys(doc, _LINEAR_KEYS, "linear matroid")
    gf = _field_from_doc(doc["field"])
    cols = doc["columns"]
    if not isinstance(cols, list):
        raise SchemaError("bad-value", "'columns' must be a list")
    vecs = []
    dim = None
    for i, col in enumerate(cols):
        if not isinstance(col, list):
            raise SchemaError("bad-value", f"column {i} is not a list")
        if dim is None:
            dim = len(col)
        elif len(col) != dim:
            raise SchemaError("bad-value", f"column {i} has length {len(col)}, expected {dim}")
        for entry in col:
            if not isinstance(entry, int) or isinstance(entry, bool) or not 0 <= entry < gf.q:
                raise SchemaError(
                    "bad-value", f"column {i} entry {entry!r} outside field of order {gf.q}"
                )
        vecs.append(tuple(col))
    if dim == 0 and vecs:
        raise SchemaError("bad-value", "columns must have at least one row")
    return LinearMatroid(gf, vecs)


def _bases_from_doc(doc: dict) -> BasesMatroid:
    _check_keys(doc, _BASES_KEYS, "bases matroid")
    rank = _require_int(doc, "rank")
    n = _require_int(doc, "n")
    check_ground(n)  # before any mask is built: n sizes every mask
    raw = doc["bases"]
    if not isinstance(raw, list) or not raw:
        raise SchemaError("bad-value", "'bases' must be a nonempty list")
    masks = []
    for i, basis in enumerate(raw):
        if not isinstance(basis, list):
            raise SchemaError("bad-value", f"basis {i} is not a list")
        mask = 0
        for e in basis:
            if not isinstance(e, int) or isinstance(e, bool) or not 0 <= e < n:
                raise SchemaError("bad-value", f"basis {i} element {e!r} outside 0..{n - 1}")
            if mask >> e & 1:
                raise SchemaError("bad-value", f"basis {i} repeats element {e}")
            mask |= 1 << e
        if mask.bit_count() != rank:
            raise SchemaError("bad-value", f"basis {i} has size {mask.bit_count()}, rank is {rank}")
        masks.append(mask)
    try:
        return BasesMatroid(n, masks, verify=True)
    except ValueError as exc:
        raise SchemaError("exchange-axiom", str(exc)) from exc


def matroid_from_json(doc) -> Matroid:
    """Parse a matroid document (dict or JSON string)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise SchemaError("bad-value", f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("bad-value", "document must be a JSON object")
    kind = doc.get("kind")
    if kind == "linear":
        return _linear_from_doc(doc)
    if kind == "bases":
        return _bases_from_doc(doc)
    raise SchemaError("bad-value", f"unknown kind {kind!r}")


def matroid_to_json(m: Matroid) -> dict:
    """Serialize a matroid.

    Linear matroids keep their column form exactly.  Everything else
    (views, bases backends) is flattened to an explicit bases list,
    which loses the construction history but preserves the rank
    function on every subset.  More than BASES_VERIFY_CAP bases raise
    SizeCapError, since the loader could not verify the document.
    """
    if isinstance(m, LinearMatroid):
        return {
            "kind": "linear",
            "field": m.field.to_json(),
            "columns": [list(c) for c in m.columns],
        }
    bm = m if isinstance(m, BasesMatroid) else materialize_bases(m)
    if len(bm.bases) > BASES_VERIFY_CAP:
        raise SizeCapError(
            f"{len(bm.bases)} bases exceed the cap {BASES_VERIFY_CAP} that loading verifies")
    return {
        "kind": "bases",
        "rank": bm.full_rank,
        "n": bm.n,
        "bases": sorted(sorted(bits(b)) for b in bm.bases),
    }


def load_path(path: str) -> Matroid:
    with open(path, "r", encoding="utf-8") as fh:
        return matroid_from_json(fh.read())


def save_path(m: Matroid, path: str) -> None:
    # built before the file is opened, so a refused document leaves no file behind
    text = json.dumps(matroid_to_json(m), sort_keys=True) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def io_roundtrip(m: Matroid) -> bool:
    """serialize -> parse -> rank-agreement check.

    Exhaustive over all subsets when n <= 12, otherwise 4096 seeded random
    subsets plus the empty and the full set.  Returns True on agreement; raises on schema trouble so
    a silent False never hides a serializer bug.
    """
    import random

    back = matroid_from_json(matroid_to_json(m))
    if back.n != m.n:
        return False
    full = (1 << m.n) - 1
    if m.n <= 12:
        masks = range(1 << m.n)
    else:
        rng = random.Random(0)
        masks = [rng.randrange(1 << m.n) for _ in range(4096)] + [0, full]
    return rank_mismatch(m, back, masks) is None
