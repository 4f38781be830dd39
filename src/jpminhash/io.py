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
from itertools import chain
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
_SCORE_COLUMNS = PAIR_COLUMNS.split(",")[2:7]  # each must lie in [0, 1]


def fmt_float(v: float) -> str:
    return format(float(v), ".9g")


def _write_text(path: str | Path, lines: Iterable[str]) -> None:
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_csv(path: str | Path, columns: str, comments: Sequence[str], rows: Iterable[str]) -> None:
    """The version header, a ``#`` line per comment, the column line, then the rows."""
    _write_text(path, [VERSION_HEADER, *(f"# {c}" for c in comments), columns, *rows])


def _read_text(path: str | Path, sep: str | None = None) -> str:
    """The text of a UTF-8 file, its line endings translated as ``Path.read_text`` does.

    A byte that is not UTF-8 raises a ValueError naming the path and the
    line, counted as :func:`_data_lines` counts lines ending at ``sep``.
    """
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        data = Path(path).read_bytes()  # the error's offset is into the chunk being decoded
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        lineno = len(head.split(sep)) if sep else len((head + "x").splitlines())
        raise ValueError(f"{path}:{lineno}: not valid UTF-8") from None
    raise ValueError(f"{path}: not valid UTF-8")  # the file changed between the reads


def _data_lines(
    path: str | Path, text: str | None = None, sep: str | None = None
) -> list[tuple[int, str]]:
    """Non-comment, non-empty lines, stripped, with their 1-based line numbers.

    ``text`` is the file's content when the caller has read it already.
    Lines end at ``sep``, or at every line break ``str.splitlines`` knows
    when ``sep`` is None.
    """
    if text is None:
        text = _read_text(path, sep)
    lines = text.split(sep) if sep else text.splitlines()
    return [
        (lineno, line)
        for lineno, line in enumerate(map(str.strip, lines), start=1)
        if line and not line.startswith("#")
    ]


def _read_csv(path: str | Path, kind: str, columns: str, parse) -> list:
    """The rows of a ``kind`` CSV file with header ``columns``, each one ``parse(*fields)``.

    A wrong header, a row with the wrong number of fields and a ValueError
    from ``parse`` raise a ValueError naming the path, and the line for a row.
    """
    rows = _data_lines(path)
    if not rows or rows[0][1] != columns:
        raise ValueError(f"{path}: expected {kind} CSV columns {columns!r}")
    n_fields = columns.count(",") + 1
    out = []
    for lineno, line in rows[1:]:
        fields = line.split(",")
        if len(fields) != n_fields:
            raise ValueError(f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
        try:
            out.append(parse(*fields))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return out


def _check_pair_ids(pairs: PairSample) -> None:
    """Raise for an id that a pair CSV row would not read back as written.

    A comma splits a field and a line break splits a row; the reader strips
    each line and skips it as a comment if it starts with ``#``, which is
    where ``idA`` starts.
    """
    for s in pairs.scores:
        for pair_id in (s.id_a, s.id_b):
            if "," in pair_id or "".join(pair_id.splitlines()) != pair_id:
                raise ValueError(f"pair id {pair_id!r} contains a comma or a line break")
        if s.id_a.startswith("#") or s.id_a[:1].isspace():
            raise ValueError(f"pair id {s.id_a!r} starts with '#' or whitespace")


def write_pair_csv(path: str | Path, pairs: PairSample, comments: Sequence[str] = ()) -> None:
    """Scored pairs as a pair CSV; an id it could not read back raises before anything is written."""
    _check_pair_ids(pairs)
    rows = (
        ",".join((s.id_a, s.id_b, *map(fmt_float, (s.jp, s.jw, s.jsd, s.tv, s.support_jaccard, s.weight))))
        for s in pairs.scores
    )
    _write_csv(path, PAIR_COLUMNS, comments, rows)


def read_pair_csv(path: str | Path) -> PairSample:
    return PairSample(tuple(_read_csv(path, "pair", PAIR_COLUMNS, _pair_score)))


def _pair_score(id_a: str, id_b: str, *values: str) -> PairScore:
    *scores, weight = map(float, values)
    for name, v in zip(_SCORE_COLUMNS, scores):
        if not 0.0 <= v <= 1.0:  # false on NaN too
            raise ValueError(f"{name} must be in [0, 1], got {v!r}")
    if not 0.0 <= weight < math.inf:
        raise ValueError(f"weight must be finite and non-negative, got {weight!r}")
    return PairScore(id_a, id_b, *scores, weight)


def write_pr_csv(path: str | Path, points: Sequence[PRPoint], comments: Sequence[str] = ()) -> None:
    rows = (
        f"{p.method},{p.a},{p.o},{p.cost},{fmt_float(p.precision)},{fmt_float(p.recall)},{p.mode}"
        for p in points
    )
    _write_csv(path, PR_COLUMNS, comments, rows)


def read_pr_csv(path: str | Path) -> list[PRPoint]:
    return _read_csv(path, "PR", PR_COLUMNS, _pr_point)


def _pr_point(method: str, a: str, o: str, cost: str, precision: str, recall: str, mode: str) -> PRPoint:
    return PRPoint(method, int(a), int(o), int(cost), float(precision), float(recall), mode)


_scan_json = json.JSONDecoder().scan_once


def _json_lines(
    path: str | Path, text: str | None = None, sep: str | None = None
) -> Iterator[tuple[int, dict]]:
    """The JSON object on each non-comment, non-empty line, with its 1-based line number.

    ``text`` and ``sep`` are as for :func:`_data_lines`.  Each line is
    decoded by one call to the decoder's scanner, which is what
    ``json.loads`` runs after its own per-call checks.
    """
    for lineno, line in _data_lines(path, text, sep):
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


def _uint64_text(value, what: str, path: str | Path, lineno: int) -> int:
    """``value`` as an int if it is an ASCII decimal string in [0, 2**64 - 1], else raise.

    The error names ``what``, the path and the line.  A string of more than
    20 significant digits is never converted, so it cannot hit ``int``'s
    digit limit.
    """
    if type(value) is str and value.isascii() and value.isdigit() and len(value.lstrip("0")) <= 20:
        n = int(value)
        if n <= MAX_ID:
            return n
    raise ValueError(f"{path}:{lineno}: {what} must be a decimal string below 2**64, got {value!r}")


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
    """The signatures of a file as :func:`write_signatures_jsonl` writes it.

    ``id`` must be a string, ``k`` a JSON integer, ``samples`` a list of
    ``k`` entries, and ``seed`` and each sample decimal strings, as index
    keys are; each error names the path and the line.
    """
    sigs = []
    for lineno, obj in _json_lines(path):
        doc_id, samples, seed, k = (_require(obj, f, path, lineno) for f in ("id", "samples", "seed", "k"))
        if type(doc_id) is not str:
            raise ValueError(f"{path}:{lineno}: 'id' must be a string")
        if type(k) is not int:
            raise ValueError(f"{path}:{lineno}: 'k' must be a JSON integer, got {k!r}")
        if type(samples) is not list:
            raise ValueError(f"{path}:{lineno}: 'samples' must be a list")
        seed = _uint64_text(seed, "'seed'", path, lineno)
        samples = tuple(_uint64_text(v, "a sample", path, lineno) for v in samples)
        try:
            sigs.append(Signature(doc_id, samples, seed, k))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return sigs


def write_index_jsonl(path: str | Path, index: InvertedIndex) -> None:
    """One header line, then one line per bucket sorted by (band, key).

    Each line is what ``json.dumps`` writes for the same object; the bucket
    lines are formatted directly, which is the form the reader's fast path
    recognises, from each distinct doc id ``json.dumps``-encoded once.
    :func:`~jpminhash.harness.index_build` yields its buckets in this
    order already, which the sort then checks in one pass.
    """
    scheme = index.scheme
    lines = [
        json.dumps(
            {"v": 1, "kind": "index", "a": scheme.a, "o": scheme.o, "seed": str(scheme.base_seed)}
        )
    ]
    buckets = sorted(index.buckets.items())
    enc = {d: json.dumps(d) for d in set(chain.from_iterable(docs for _, docs in buckets))}
    lines.extend(
        '{"band": %d, "key": "%d", "docs": [%s]}' % (band, key, ", ".join(map(enc.__getitem__, docs)))
        for (band, key), docs in buckets
    )
    _write_text(path, lines)


def _int_range(n: int) -> str:
    """A group-free pattern for the decimal integers in ``[0, n]`` without leading zeros.

    The alternatives come longest first: for each digit of ``n`` where a
    smaller digit fits, the numbers that share ``n``'s digits before it and
    have that smaller digit, then ``n``, then the shorter numbers.  A number
    as long as ``n`` thus matches before any shorter alternative is tried.
    """
    s = str(n)
    alts = []
    for i, d in enumerate(map(int, s)):
        lo = 0 if i else 1  # no leading zero
        if d > lo:
            alts.append("%s[%d-%d][0-9]{%d}" % (s[:i], lo, d - 1, len(s) - i - 1))
    alts.append(s)
    if len(s) > 1:
        alts.append("[1-9][0-9]{0,%d}" % (len(s) - 2))
    if n:
        alts.append("0")
    return "(?:%s)" % "|".join(alts)


# The header and a bucket line of the canonical index file, as
# write_index_jsonl writes them: ASCII only.  Strings hold printable
# characters and JSON escapes, which is all json.dumps emits with its default
# ensure_ascii; numbers have no leading zeros, and each range check is in the
# pattern.  The character class excludes the quote and the backslash, and
# each escape starts with a backslash, so a string matches in one way only
# and a failed match backtracks in linear time.  Both are compiled on the
# first read, through re's cache, so an import compiles neither; the bucket
# line's band range is filled in from the header's ``o``.
_UINT64 = _int_range(MAX_ID)
_CHARS = r"[ !#-\[\]-~]*"  # printable ASCII but '"' and '\\'
_STR = r'"%s(?:\\(?:["\\/bfnrt]|u[0-9a-fA-F]{4})%s)*"' % (_CHARS, _CHARS)
_CANONICAL_HEADER = (  # groups: a, o, seed
    r'\{"v": 1, "kind": "index", "a": ([1-9][0-9]{0,9}), "o": ([1-9][0-9]{0,9}), "seed": "(%s)"\}\n'
    % _UINT64
)
_CANONICAL_BUCKET = (  # groups: the bucket's text (see _bucket_text), docs; %s is the band
    r'\{"band": (%%s, "key": "%s)", "docs": (\[(?:%s(?:, %s)*)?\])\}\n' % (_UINT64, _STR, _STR)
)
_KEY_SEP = ', "key": "'


def _canonical_bucket(o: int) -> re.Pattern[str]:
    """The pattern of a canonical bucket line under a header's ``o``."""
    return re.compile(_CANONICAL_BUCKET % _int_range(o - 1))


def _bucket_text(bucket) -> str | None:
    """A bucket ``(band, key)`` of 64-bit integers as its line's text, else None.

    The text runs from ``band`` through ``key``: ``band, "key": "key``.
    """
    try:
        band, key = map(operator.index, bucket)
    except (TypeError, ValueError):
        return None
    return "%d%s%d" % (band, _KEY_SEP, key) if 0 <= band <= MAX_ID and 0 <= key <= MAX_ID else None


class _LazyBuckets(Mapping):
    """Read-only buckets that keep each bucket's ``docs`` JSON text and decode it on lookup.

    ``raw`` maps each bucket's line text from ``band`` through ``key``, which
    is canonical (:func:`_bucket_text`), to its ``docs`` text; a lookup
    formats its bucket into that text, and iteration parses the text back.
    String keys and values make no object the garbage collector tracks,
    however many buckets there are.
    """

    __slots__ = ("_raw",)

    def __init__(self, raw: dict[str, str]) -> None:
        self._raw = raw

    def __getitem__(self, bucket: tuple[int, int]) -> tuple[str, ...]:
        text = self._raw.get(_bucket_text(bucket))
        if text is None:
            raise KeyError(bucket)
        return tuple(json.loads(text))

    def __contains__(self, bucket) -> bool:
        return _bucket_text(bucket) in self._raw

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return (tuple(map(int, text.split(_KEY_SEP))) for text in self._raw)

    def __len__(self) -> int:
        return len(self._raw)


def _read_canonical_index(text: str) -> InvertedIndex | None:
    """The index in ``text`` if the text is canonical and valid, else None.

    Every check of :func:`_read_index_json` holds for a text this accepts,
    which then reads to the same index; anything else is left to that reader.
    The pattern scan makes every check but the one for repeated buckets,
    which is one comparison of sizes.
    """
    header = re.match(_CANONICAL_HEADER, text)
    if header is None:
        return None
    a, o, seed = map(int, header.groups())
    # (text between lines, bucket text, docs) per line, and the text after the last
    parts = _canonical_bucket(o).split(text[header.end():])
    if any(parts[0::3]):  # no text outside the matched lines
        return None
    raw = dict(zip(parts[1::3], parts[2::3]))
    if len(raw) != len(parts) // 3:  # a repeated bucket
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
    zeros) is validated in one pattern scan over its text, whose patterns
    hold the range checks of ``band`` and ``key`` too.  Its ``buckets`` is a
    read-only mapping keyed by each bucket's line text, which no bucket's
    numbers are parsed from, and it decodes a bucket's ``docs`` only when
    the bucket is looked up; a query decodes its ``o`` buckets.  Any
    other file, and any canonical file that fails a check, is read from the
    same text by the line-by-line JSON reader, which accepts the same files,
    returns equal buckets and raises each error with its ``path:line``; such
    a file costs that reader plus the failed pattern scan.
    """
    text = _read_text(path)
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
        value = _uint64_text(key, "'key'", path, lineno)
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
    non-negative numbers whose keys encode to UTF-8, which a key holding a
    lone surrogate (a valid JSON escape) does not.

    Records end only at a line feed (a carriage return before it is
    stripped): a JSON string may hold U+2028, U+2029 and U+0085 raw, as
    ``json.dumps(..., ensure_ascii=False)`` writes them, and
    ``str.splitlines`` would break the record there.
    """
    records = []
    for lineno, obj in _json_lines(path, sep="\n"):
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
            token.encode("utf-8")  # what a token's element id is hashed from
        except UnicodeEncodeError:
            raise ValueError(f"{path}:{lineno}: weight key {token!r} is not valid UTF-8") from None
        try:  # a JSON number: not a bool, which is an int, nor a numeric string
            ok = type(w) in (int, float) and 0.0 <= float(w) < math.inf
        except OverflowError:  # an integer past the float range
            ok = False
        if not ok:
            raise ValueError(
                f"{path}:{lineno}: weight of {token!r} must be a finite non-negative number, got {w!r}"
            )
