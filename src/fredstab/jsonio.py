"""Canonical JSON serialization shared by all artifact writers.

Artifacts must be byte-identical across runs for the same inputs, so the
stdlib encoder runs with sorted keys, fixed separators, ``repr`` floats (the
shortest text that reads back to the same double, as in every CSV and SVG)
and complex numbers as [re, im] pairs; a non-finite float is refused.

Every artifact writer opens its file with overwrite: the file is written
over in place from its first byte and cut to the new length on close,
never opened with O_TRUNC.  On ext4 (auto_da_alloc, its default), XFS and
btrfs a file truncated to zero and written again is queued for writeback
on close, and the next unlink or truncation of it waits for that
writeback; an in-place overwrite is not.  No writer calls fsync, so
neither way promises durability; only when the kernel writes back differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
from itertools import chain
from typing import Any

import numpy as np


def cpairs(values) -> list[list[float]]:
    """Encode a complex sequence as [[re, im], ...]."""
    arr = np.asarray(values, dtype=complex).ravel()
    return np.stack((arr.real, arr.imag), axis=1).tolist()


def _all_numbers(values) -> bool:
    """True when every value is a JSON number that reads as a float: a float, or an int in
    the float range (a bool is neither).  The types are tested at C speed."""
    types = set(map(type, values))
    return types <= {float, int} and (int not in types or all(
        abs(v) <= sys.float_info.max for v in values if type(v) is int))


def from_number(value, kind, where: str):
    """Decode a JSON number of kind (float, or int: an integer); a refusal names where."""
    if not (_all_numbers([value]) and (kind is float or type(value) is int)):
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{where} must be {what}, got {value!r}")
    return kind(value)


def from_numbers(values, where: str) -> np.ndarray:
    """Decode a JSON list of numbers into a float array; a refusal names where."""
    if not (type(values) is list and _all_numbers(values)):
        raise ValueError(f"{where} must be a list of numbers")
    return np.array(values, dtype=float)


def from_cpairs(pairs, where: str) -> np.ndarray:
    """Decode [[re, im], ...] into a complex array; an entry that is not a number is refused."""
    if not (type(pairs) is list and set(map(type, pairs)) <= {list}
            and set(map(len, pairs)) <= {2} and _all_numbers(list(chain.from_iterable(pairs)))):
        raise ValueError(f"{where} must be a list of [re, im] lists of numbers")
    arr = np.array(pairs, dtype=float).reshape(-1, 2)
    # re + 1j * im would turn an imaginary -0.0 into 0.0; cpairs must round-trip
    out = np.empty(arr.shape[0], dtype=complex)
    out.real = arr[:, 0]
    out.imag = arr[:, 1]
    return out


def _plain(obj: Any) -> Any:
    """The JSON value of a numpy array or scalar, or of a complex number."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, (complex, np.complexfloating)):
        return [obj.real, obj.imag]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Serialize to deterministic JSON text (sorted keys, repr floats)."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                          allow_nan=False, default=_plain)
    except ValueError as exc:
        raise ValueError("non-finite float cannot be serialized canonically") from exc


@contextlib.contextmanager
def overwrite(path, newline=None):
    """A UTF-8 text file that writes path over in place, from its first byte.

    The file is created if missing and never truncated on open; on exit,
    also on an exception, it is cut at the current position, so it holds
    exactly the bytes written.  newline is open()'s.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    with os.fdopen(fd, "w", encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        finally:
            fh.truncate()


def write_json(path, obj: Any) -> None:
    """Write canonical JSON and a newline; if serializing fails, the file is untouched."""
    text = canonical_json(obj) + "\n"
    with overwrite(path) as fh:
        fh.write(text)


def read_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_hash(obj: Any) -> str:
    """SHA-256 of the canonical serialization, used to stamp reports."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
