"""Readers and writers for the package's external file formats.

CSV files start with the version header line ``# jpminhash-v1`` (further
``#`` lines are free-form comments) and print floats with 9 significant
digits; JSONL records carry ``"v": 1``.  64-bit ids and seeds are encoded as
decimal strings to survive JSON consumers that truncate to 53-bit integers.
"""

from __future__ import annotations

import json
import math
import operator
import re
from collections.abc import Mapping
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .harness import BandingScheme, InvertedIndex, PairSample, PairScore, PRPoint
from .minhash import Signature
from .sparse import MAX_ID

__all__ = [
    "VERSION_HEADER",
    "fmt_float",
    "write_pair_csv",
    "read_pair_csv",
    "write_pr_csv",
    "read_pr_csv",
    "write_signatures_jsonl",
    "read_signatures_jsonl",
    "write_index_jsonl",
    "read_index_jsonl",
    "read_corpus_jsonl",
]

VERSION_HEADER = "# jpminhash-v1"

PAIR_COLUMNS = "idA,idB,jp,jw,jsd,tv,jaccard,weight"
PR_COLUMNS = "method,a,o,cost,precision,recall,mode"


def fmt_float(v: float) -> str:
    return format(float(v), ".9g")


def _write_text(path: str | Path, lines: Iterable[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _data_lines(path: str | Path) -> list[tuple[int, str]]:
    """Non-comment, non-empty lines with their 1-based line numbers."""
    out = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def write_pair_csv(path: str | Path, pairs: PairSample, comments: Sequence[str] = ()) -> None:
    lines = [VERSION_HEADER]
    lines.extend(f"# {c}" for c in comments)
    lines.append(PAIR_COLUMNS)
    for s in pairs.scores:
        lines.append(
            ",".join(
                (
                    s.id_a,
                    s.id_b,
                    fmt_float(s.jp),
                    fmt_float(s.jw),
                    fmt_float(s.jsd),
                    fmt_float(s.tv),
                    fmt_float(s.support_jaccard),
                    fmt_float(s.weight),
                )
            )
        )
    _write_text(path, lines)


def read_pair_csv(path: str | Path) -> PairSample:
    rows = _data_lines(path)
    if not rows or rows[0][1] != PAIR_COLUMNS:
        raise ValueError(f"{path}: expected pair CSV columns {PAIR_COLUMNS!r}")
    scores = []
    for lineno, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 8:
            raise ValueError(f"{path}:{lineno}: expected 8 fields, got {len(parts)}")
        try:
            scores.append(
                PairScore(
                    id_a=parts[0],
                    id_b=parts[1],
                    jp=float(parts[2]),
                    jw=float(parts[3]),
                    jsd=float(parts[4]),
                    tv=float(parts[5]),
                    support_jaccard=float(parts[6]),
                    weight=float(parts[7]),
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return PairSample(tuple(scores))


def write_pr_csv(path: str | Path, points: Sequence[PRPoint], comments: Sequence[str] = ()) -> None:
    lines = [VERSION_HEADER]
    lines.extend(f"# {c}" for c in comments)
    lines.append(PR_COLUMNS)
    for p in points:
        lines.append(
            f"{p.method},{p.a},{p.o},{p.cost},{fmt_float(p.precision)},{fmt_float(p.recall)},{p.mode}"
        )
    _write_text(path, lines)


def read_pr_csv(path: str | Path) -> list[PRPoint]:
    rows = _data_lines(path)
    if not rows or rows[0][1] != PR_COLUMNS:
        raise ValueError(f"{path}: expected PR CSV columns {PR_COLUMNS!r}")
    points = []
    for lineno, line in rows[1:]:
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"{path}:{lineno}: expected 7 fields, got {len(parts)}")
        try:
            points.append(
                PRPoint(
                    method=parts[0],
                    a=int(parts[1]),
                    o=int(parts[2]),
                    cost=int(parts[3]),
                    precision=float(parts[4]),
                    recall=float(parts[5]),
                    mode=parts[6],
                )
            )
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return points


_scan_json = json.JSONDecoder().scan_once


def _json_lines(path: str | Path, text: str | None = None) -> Iterator[tuple[int, dict]]:
    """The JSON object on each non-comment, non-empty line, with its 1-based line number.

    ``text`` is the file's content when the caller has read it already.
    Each line is decoded by one call to the decoder's scanner, which is what
    ``json.loads`` runs after its own per-call checks.
    """
    if text is None:
        text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj, end = _scan_json(line, 0)
        except StopIteration:
            raise ValueError(f"{path}:{lineno}: malformed JSON (Expecting value)") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSON ({exc.msg})") from None
        if end != len(line):
            raise ValueError(f"{path}:{lineno}: malformed JSON (Extra data)")
        if not isinstance(obj, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object")
        yield lineno, obj


def _require(obj: dict, key: str, path: str | Path, lineno: int):
    if key not in obj:
        raise ValueError(f"{path}:{lineno}: missing field {key!r}")
    return obj[key]


def write_signatures_jsonl(path: str | Path, sigs: Iterable[Signature]) -> None:
    """One line per signature, what ``json.dumps`` writes for its record, formatted directly.

    The record is ``{"v": 1, "id", "seed", "k", "samples"}`` with the seed
    and the samples as decimal strings; only the id needs JSON escaping.
    """
    _write_text(
        path,
        (
            '{"v": 1, "id": %s, "seed": "%d", "k": %d, "samples": ["%s"]}'
            % (json.dumps(s.doc_id), s.base_seed, s.k, '", "'.join(map(str, s.samples)))
            for s in sigs
        ),
    )


def read_signatures_jsonl(path: str | Path) -> list[Signature]:
    sigs = []
    for lineno, obj in _json_lines(path):
        try:
            sigs.append(
                Signature(
                    doc_id=_require(obj, "id", path, lineno),
                    samples=tuple(int(v) for v in _require(obj, "samples", path, lineno)),
                    base_seed=int(_require(obj, "seed", path, lineno)),
                    k=int(_require(obj, "k", path, lineno)),
                )
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return sigs


def write_index_jsonl(path: str | Path, index: InvertedIndex) -> None:
    """One header line, then one line per bucket sorted by (band, key).

    Each line is what ``json.dumps`` writes for the same object; the bucket
    lines are formatted directly, which is the form the reader's fast path
    recognises.
    """
    scheme = index.scheme
    lines = [
        json.dumps(
            {"v": 1, "kind": "index", "a": scheme.a, "o": scheme.o, "seed": str(scheme.base_seed)}
        )
    ]
    lines.extend(
        '{"band": %d, "key": "%d", "docs": %s}' % (band, key, json.dumps(docs))
        for (band, key), docs in sorted(index.buckets.items())
    )
    _write_text(path, lines)


# The header and a bucket line of the canonical index file, as
# write_index_jsonl writes them: ASCII only.  Strings hold printable
# characters and JSON escapes, which is all json.dumps emits with its default
# ensure_ascii; numbers have no leading zeros.  The character class excludes
# the quote and the backslash, and each escape starts with a backslash, so a
# string matches in one way only and a failed match backtracks in linear time.
_NUM = r"(0|[1-9][0-9]{0,19})"
_CHARS = r"[ !#-\[\]-~]*"  # printable ASCII but '"' and '\\'
_STR = r'"%s(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})%s)*"' % (_CHARS, _CHARS)
_CANONICAL_HEADER = re.compile(
    r'\{"v": 1, "kind": "index", "a": ([1-9][0-9]{0,9}), "o": ([1-9][0-9]{0,9}), "seed": "%s"\}\n'
    % _NUM
)
_CANONICAL_BUCKET = re.compile(  # groups: band, key, docs
    r'\{"band": %s, "key": "%s", "docs": (\[(?:%s(?:, %s)*)?\])\}\n' % (_NUM, _NUM, _STR, _STR)
)


def _slot(bucket) -> int | None:
    """``band << 64 | key`` for a bucket ``(band, key)`` of integers, else None."""
    try:
        band, key = map(operator.index, bucket)
    except (TypeError, ValueError):
        return None
    return band << 64 | key if band >= 0 and 0 <= key <= MAX_ID else None


class _LazyBuckets(Mapping):
    """Read-only buckets that keep each bucket's ``docs`` JSON text and decode it on lookup.

    ``raw`` maps ``band << 64 | key`` to the text; integer keys make no
    object the garbage collector tracks, however many buckets there are.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: dict[int, str]) -> None:
        self._raw = raw

    def __getitem__(self, bucket: tuple[int, int]) -> tuple[str, ...]:
        text = self._raw.get(_slot(bucket))
        if text is None:
            raise KeyError(bucket)
        return tuple(json.loads(text))

    def __contains__(self, bucket) -> bool:
        return _slot(bucket) in self._raw

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return ((slot >> 64, slot & MAX_ID) for slot in self._raw)

    def __len__(self) -> int:
        return len(self._raw)


def _read_canonical_index(text: str) -> InvertedIndex | None:
    """The index in ``text`` if the text is canonical and valid, else None.

    Every check of :func:`_read_index_json` holds for a text this accepts,
    which then reads to the same index; anything else is left to that reader.
    """
    header = _CANONICAL_HEADER.match(text)
    if header is None:
        return None
    a, o, seed = map(int, header.groups())
    # (text between lines, band, key, docs) per line, and the text after the last
    parts = _CANONICAL_BUCKET.split(text[header.end():])
    if seed > MAX_ID or any(parts[0::4]):  # no text outside the matched lines
        return None
    bands, keys = list(map(int, parts[1::4])), list(map(int, parts[2::4]))
    if bands and (max(bands) >= o or max(keys) > MAX_ID):
        return None
    raw = dict(zip([band << 64 | key for band, key in zip(bands, keys)], parts[3::4]))
    if len(raw) != len(bands):  # a repeated bucket
        return None
    return InvertedIndex(_LazyBuckets(raw), BandingScheme(a=a, o=o, base_seed=seed))


def read_index_jsonl(path: str | Path) -> InvertedIndex:
    """Index written by :func:`write_index_jsonl`.

    Header ``a`` and ``o`` must be JSON integers.  On each bucket line
    ``band`` must be a JSON integer in ``[0, o)``, ``key`` a decimal string
    no larger than 2**64-1 and ``docs`` a list of string ids; no
    ``(band, key)`` may repeat.

    A file in the canonical form that :func:`write_index_jsonl` writes
    (ASCII, one ``json.dumps`` object per line, numbers without leading
    zeros) is validated in one pattern scan over its text, and its
    ``buckets`` is a read-only mapping that decodes a bucket's ``docs`` only
    when the bucket is looked up; a query decodes its ``o`` buckets.  Any
    other file, and any canonical file that fails a check, is read from the
    same text by the line-by-line JSON reader, which accepts the same files,
    returns equal buckets and raises each error with its ``path:line``; such
    a file costs that reader plus the failed pattern scan.
    """
    text = Path(path).read_text(encoding="utf-8")
    index = _read_canonical_index(text)
    return index if index is not None else _read_index_json(path, text)


def _read_index_json(path: str | Path, text: str | None = None) -> InvertedIndex:
    """:func:`read_index_jsonl` decoding every line as JSON into a dict of buckets.

    ``text`` is the file's content when the caller has read it already.
    """
    lines = _json_lines(path, text)
    lineno, meta = next(lines, (0, None))
    if meta is None:
        raise ValueError(f"{path}: empty index file")
    if meta.get("kind") != "index":
        raise ValueError(f"{path}:{lineno}: expected index metadata line")
    a, o, seed = (_require(meta, field, path, lineno) for field in ("a", "o", "seed"))
    try:
        if type(a) is not int or type(o) is not int:
            raise ValueError("'a' and 'o' must be JSON integers")
        scheme = BandingScheme(a=a, o=o, base_seed=int(seed))
        if not 0 <= scheme.base_seed <= MAX_ID:
            raise ValueError("seed must fit in 64 bits")
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None
    buckets: dict[tuple[int, int], tuple[str, ...]] = {}
    for lineno, obj in lines:
        try:
            band, key, docs = obj["band"], obj["key"], obj["docs"]
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: missing field {exc.args[0]!r}") from None
        if type(band) is not int or not 0 <= band < o:
            raise ValueError(f"{path}:{lineno}: 'band' must be an integer in [0, {o}), got {band!r}")
        value = int(key) if type(key) is str and key.isascii() and key.isdigit() else -1
        if not 0 <= value <= MAX_ID:
            raise ValueError(f"{path}:{lineno}: 'key' must be a decimal string below 2**64, got {key!r}")
        if not isinstance(docs, list):
            raise ValueError(f"{path}:{lineno}: 'docs' must be a list")
        try:
            "".join(docs)  # one C-level pass: raises unless every doc id is a string
        except TypeError:
            raise ValueError(f"{path}:{lineno}: 'docs' must hold string ids") from None
        bucket = (band, value)
        if bucket in buckets:
            raise ValueError(f"{path}:{lineno}: repeats bucket (band {band}, key {key})")
        buckets[bucket] = tuple(docs)
    return InvertedIndex(buckets, scheme)


def read_corpus_jsonl(path: str | Path) -> list[dict]:
    """Raw corpus records: each line needs 'id' plus 'text' or 'weights'.

    'id' and 'text' must be strings; 'weights' an object of finite
    non-negative numbers.
    """
    records = []
    for lineno, obj in _json_lines(path):
        if not isinstance(_require(obj, "id", path, lineno), str):
            raise ValueError(f"{path}:{lineno}: 'id' must be a string")
        if "text" in obj:
            if not isinstance(obj["text"], str):
                raise ValueError(f"{path}:{lineno}: 'text' must be a string")
        elif "weights" in obj:
            _check_weights(obj["weights"], path, lineno)
        else:
            raise ValueError(f"{path}:{lineno}: need either 'text' or 'weights'")
        records.append(obj)
    return records


def _check_weights(weights, path: str | Path, lineno: int) -> None:
    if not isinstance(weights, dict):
        raise ValueError(f"{path}:{lineno}: 'weights' must be a JSON object")
    for token, w in weights.items():
        try:
            ok = 0.0 <= float(w) < math.inf
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(
                f"{path}:{lineno}: weight of {token!r} must be a finite non-negative number, got {w!r}"
            )
