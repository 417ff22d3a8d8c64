"""Deterministic report serialization.

JSON is the single machine format: one line per report.  The text rendering
is derived from the same JSON-able structure.  Keys are sorted and floats use
their shortest exact repr, so identical inputs produce byte-identical output.
Complex numbers serialize as [re, im] pairs.
"""

from __future__ import annotations

import json

from .gaussian import GaussianRational


def jsonable(obj):
    """Recursively convert report values into JSON-serializable ones."""
    # exact types only: np.float64 subclasses float and takes the numpy branch
    if obj is None or type(obj) in (float, int, str, bool):
        return obj
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [jsonable(v) for v in obj]
    # numpy scalars and arrays, told by their module so that numpy need not
    # be imported; tolist gives the Python scalar or nested lists of them.  A
    # complex array becomes its [re, im] pairs through one float view, with
    # no call per entry; a 0-d one has no such view and takes the scalar path.
    if type(obj).__module__ == "numpy":
        if obj.ndim and obj.dtype.kind == "c":
            pairs = obj.astype("c16", order="C", copy=False).view("f8")
            return pairs.reshape(*obj.shape, 2).tolist()
        return jsonable(obj.tolist())
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, GaussianRational):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} into a report")


def dumps(report) -> str:
    """Canonical JSON text: one line, sorted keys, compact separators and a
    trailing newline.  With no ``indent``, CPython writes it with its C
    encoder."""
    return json.dumps(jsonable(report), sort_keys=True, separators=(",", ":")) + "\n"


def render_text(report) -> str:
    """Human-readable rendering derived from the JSON-able structure."""
    return _render(jsonable(report), 0)


def _render(data, indent: int) -> str:
    """Render plain JSON data: dicts, lists and scalars only."""
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(data, dict):
        for key in sorted(data):
            value = data[key]
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}{key}:")
                lines.append(_render(value, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")
        return "\n".join(lines)
    if isinstance(data, list):
        if len(data) > 12 and all(isinstance(v, (int, float)) for v in data):
            head = ", ".join(_scalar_text(v) for v in data[:4])
            lines.append(f"{pad}[{head}, ... {len(data)} values]")
            return "\n".join(lines)
        for value in data:
            if isinstance(value, (dict, list)) and value:
                lines.append(f"{pad}-")
                lines.append(_render(value, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(value)}")
        return "\n".join(lines)
    return f"{pad}{_scalar_text(data)}"


def _scalar_text(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)) and not value:
        return "{}" if isinstance(value, dict) else "[]"
    return str(value)
