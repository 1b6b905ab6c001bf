"""Canonical JSON serialization shared by all artifact writers.

Artifacts must be byte-identical across runs for the same inputs, so the
writer fixes key order (sorted), float formatting (17 significant digits)
and complex encoding ([re, im] pairs).  The reader is plain ``json``.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any

import numpy as np


def cpairs(values) -> list[list[float]]:
    """Encode a complex sequence as [[re, im], ...]."""
    arr = np.asarray(values, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in arr]


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


def _fmt_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float cannot be serialized canonically")
    if x == int(x) and abs(x) < 1e16:
        # keep integral floats compact but unambiguous
        return f"{x:.1f}"
    return format(x, ".17g")


def _canon(obj: Any, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_fmt_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (complex, np.complexfloating)):
        _canon([float(obj.real), float(obj.imag)], out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
            if i:
                out.append(",")
            out.append(json.dumps(key, ensure_ascii=False))
            out.append(":")
            _canon(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        seq = obj.tolist() if isinstance(obj, np.ndarray) else obj
        for i, item in enumerate(seq):
            if i:
                out.append(",")
            _canon(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_json(obj: Any) -> str:
    """Serialize to deterministic JSON text (sorted keys, 17-digit floats)."""
    out: list[str] = []
    _canon(obj, out)
    return "".join(out)


def write_json(path, obj: Any) -> None:
    """Write canonical JSON, newline-terminated."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(obj) + "\n")


def read_json(path) -> Any:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def config_hash(obj: Any) -> str:
    """SHA-256 of the canonical serialization, used to stamp reports."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
