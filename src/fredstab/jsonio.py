"""Canonical JSON serialization shared by all artifact writers.

Artifacts must be byte-identical across runs for the same inputs, so the
stdlib encoder runs with sorted keys, fixed separators, ``repr`` floats (the
shortest text that reads back to the same double, as in every CSV and SVG)
and complex numbers as [re, im] pairs; a non-finite float is refused.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

import numpy as np


def cpairs(values) -> list[list[float]]:
    """Encode a complex sequence as [[re, im], ...]."""
    arr = np.asarray(values, dtype=complex).ravel()
    return np.stack((arr.real, arr.imag), axis=1).tolist()


def from_cpairs(pairs) -> np.ndarray:
    """Decode [[re, im], ...] into a complex array."""
    arr = np.asarray(pairs, dtype=float)
    if arr.size == 0:
        return np.zeros(0, dtype=complex)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("complex pairs must be an Nx2 array of [re, im]")
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


def write_json(path, obj: Any) -> None:
    """Write canonical JSON and a newline; if serializing fails, the file is untouched."""
    text = canonical_json(obj) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_hash(obj: Any) -> str:
    """SHA-256 of the canonical serialization, used to stamp reports."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
