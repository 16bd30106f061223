"""Canonical JSON report emission.

Reports are pure functions of (command, parameters, seed, constants):
keys are sorted, separators fixed, no timestamps, NaN rejected, and
numpy scalars reduced to built-ins, so identical runs produce identical
bytes.  Every record carries the tool version, the fully resolved
parameter set, the seed, and a hash of the calibration constants in
effect; that tuple is sufficient to reproduce the record bit-for-bit.

An Encoded value holds the canonical text of a piece of a report, made
by the same rules, and canonical_json writes that text in its place.  A
report whose long lists repeat a few distinct pieces (the search's block
records: one per block and k, but only one success per distinct walk and
k) is then encoded from those pieces once each, by RecordJoin, and not
from one Python dict per item, which json's encoder takes about a
microsecond to write.  The bytes are those of the plain encoding.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__

__all__ = ["Encoded", "RecordJoin", "canonical_json", "report_envelope", "write_report", "write_csv"]

# the stand-in json writes for an Encoded value, cut out again at its quoted
# text _SPLICED; report data that happens to contain that text raises
_SPLICE = "\x00walklab.Encoded\x00"
_SPLICED = json.dumps(_SPLICE)


def _to_builtin(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _dumps(value, default=_to_builtin) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False, default=default)


def _split(text: str, count: int) -> list[str]:
    """text cut at the count splice markers it holds; it holds no others."""
    parts = text.split(_SPLICED)
    if len(parts) != count + 1:
        raise ValueError(f"report data contains the splice marker {_SPLICE!r}")
    return parts


def _encode(value, end: str = "") -> str:
    """The canonical text of value, then end, with the text of each Encoded value in it spliced in place."""
    fragments = []

    def default(obj):
        if isinstance(obj, Encoded):
            fragments.append(obj.text)
            return _SPLICE
        return _to_builtin(obj)

    text = _dumps(value, default)
    parts = _split(text, len(fragments))
    pieces = [""] * (2 * len(parts) - 1)
    pieces[::2], pieces[1::2] = parts, fragments
    pieces[-1] += end
    return "".join(pieces)


class Encoded:
    """The canonical text of a value, encoded once; canonical_json writes it in the value's place."""

    __slots__ = ("text",)

    def __init__(self, value):
        self.text = _encode(value)

    @classmethod
    def _of_text(cls, text: str) -> "Encoded":
        encoded = object.__new__(cls)
        encoded.text = text
        return encoded


class RecordJoin:
    """Lists whose record i is heads[i] merged with tails[tail_of[i]], each head and tail encoded once.

    Every head key sorts before every tail key, so the canonical text of
    a merged record is its head's text without the closing brace, a
    comma, and its tail's text without the opening brace.  The heads are
    encoded here, in one pass with a splice marker after each; a call
    encodes its tails and interleaves them with the heads.
    """

    def __init__(self, heads: Sequence[dict], tail_of: Sequence[int]):
        self._last = max(max(head) for head in heads)
        # '[{head 0},MARK,{head 1},MARK]' cuts into '[{head 0},', ',{head 1},' and ']'
        parts = _split(_dumps([item for head in heads for item in (head, _SPLICE)]), len(heads))
        self._pieces = [""] * (2 * len(heads) + 1)
        self._pieces[::2] = [part[:-2] + "," for part in parts[:-1]] + parts[-1:]
        self._tail_of = tail_of

    def __call__(self, tails: Sequence[dict]) -> Encoded:
        if min(min(tail) for tail in tails) <= self._last:
            raise ValueError(f"every tail key must sort after the head key {self._last!r}")
        text = [_encode(tail)[1:] for tail in tails]
        pieces = self._pieces.copy()
        pieces[1::2] = map(text.__getitem__, self._tail_of)
        return Encoded._of_text("".join(pieces))


def canonical_json(record: dict) -> str:
    """Deterministic JSON text: sorted keys, tight separators, finite numbers only, Encoded values spliced."""
    return _encode(record, end="\n")


def report_envelope(
    command: str,
    params: dict,
    seed: int | None,
    constants_hash: str | None,
    results,
) -> dict:
    return {
        "tool": "walklab",
        "version": __version__,
        "spec": {"command": command, **params},
        "seed": seed,
        "constants_hash": constants_hash,
        "results": results,
    }


def write_report(path: Path | str, record: dict) -> Path:
    path = Path(path)
    path.write_text(canonical_json(record))
    return path


def write_csv(path: Path | str, rows: Sequence[dict], fields: Iterable[str]) -> Path:
    path = Path(path)
    fields = list(fields)
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="raise")
        writer.writeheader()
        writer.writerows(rows)
    return path
