"""Canonical JSON for every artifact the toolkit reads or writes.

One float, one spelling: floats are written by repr, the shortest text
that reads back as the same double; keys are emitted sorted, int keys
as decimal strings; and exact rationals travel as "p/q" strings so
nothing is lost to binary conversion.  Two equal objects therefore
serialize to byte-identical text, which is what makes digests and
replay comparisons meaningful.
"""

import dataclasses
import hashlib
import json
import typing
from fractions import Fraction

import numpy as np

from .crnorm import MatrixSequence
from .multiindex import Smoothness
from .sequence import LacunaryPlan, bk_radius, int_frequency
from .trigpoly import TrigPoly


def canonical_dumps(obj):
    """Serialize to canonical JSON text (sorted keys, repr floats)."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def to_jsonable(obj):
    """Recursively rewrite into plain JSON-compatible values: dataclasses
    to {field name: value}, Fractions to "p/q" strings, complex to
    {re, im}, arrays to nested lists, sets to sorted lists, int dict
    keys to decimal strings.  Any other non-str key is a TypeError."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, np.ndarray):
        return to_jsonable(obj.tolist())
    if isinstance(obj, (list, tuple, frozenset, set)):
        vals = list(obj)
        if isinstance(obj, (frozenset, set)):
            vals = sorted(vals)
        return [to_jsonable(v) for v in vals]
    if isinstance(obj, dict):
        return {_key(k): to_jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    raise TypeError("no JSON form for %r" % type(obj))


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, (int, np.integer)) and not isinstance(k, bool):
        return str(int(k))
    raise TypeError("a JSON key must be a str or an int, got %r" % (k,))


def _fraction(text):
    if not isinstance(text, str):
        raise ValueError("a rational must be a 'p/q' string, got %r" % (text,))
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in rational %r" % text) from None


def _cplx(d):
    return complex(d["re"], d["im"])


def from_jsonable(cls, data):
    """Inverse of to_jsonable, driven by the declared type ``cls``.

    Dataclasses are rebuilt field by field from their type hints (a
    field with a default may be absent), Smoothness through
    Smoothness.from_indices so outside input is validated.  Malformed
    input raises KeyError, TypeError or ValueError.
    """
    if cls is Smoothness:
        return Smoothness.from_indices(tuple(g) for g in data["indices"])
    if dataclasses.is_dataclass(cls):
        hints = typing.get_type_hints(cls)
        return cls(**{
            f.name: from_jsonable(hints[f.name], data[f.name])
            for f in dataclasses.fields(cls)
            if f.name in data or f.default is dataclasses.MISSING})
    origin, args = typing.get_origin(cls), typing.get_args(cls)
    if origin is typing.Union:  # Optional[X]
        (inner,) = [a for a in args if a is not type(None)]
        return None if data is None else from_jsonable(inner, data)
    if origin in (list, tuple):  # list[X] or tuple[X, ...]
        if not isinstance(data, list):
            raise TypeError("expected a list, got %r" % (data,))
        return origin(from_jsonable(args[0], v) for v in data)
    if cls is Fraction:
        return _fraction(data)
    if cls is complex:
        return _cplx(data)
    if cls in (bool, int, float, str) and type(data) is cls:  # no bool for int
        return data
    raise TypeError("expected %s, got %r" % (getattr(cls, "__name__", cls), data))


def plan_from_json(d):
    """A plan, checked across fields: K = len(sequence) = len(ts) =
    len(radii) >= 1, and each radius is bk_radius of the sequence."""
    plan = from_jsonable(LacunaryPlan, d)
    if not plan.K == len(plan.sequence) == len(plan.ts) == len(plan.radii) >= 1:
        raise ValueError("plan needs K = len(sequence) = len(ts) = len(radii) >= 1")
    if plan.radii != [bk_radius(plan.sequence, k) for k in range(1, plan.K + 1)]:
        raise ValueError("plan radii are not the ball radii of its sequence")
    return plan


def poly_to_json(f):
    return {
        "dim": f.dim,
        "mdim": f.mdim if f.is_matrix_valued() else None,
        "coeffs": [{"n": list(n), "value": to_jsonable(f.coeffs[n])}
                   for n in sorted(f.coeffs)],
    }


def _matrix(rows):
    return np.array([[_cplx(x) for x in row] for row in rows], dtype=complex)


def poly_from_json(d):
    if not isinstance(d, dict):
        raise TypeError("a polynomial is a JSON object, got %r" % (d,))
    decode = _matrix if d.get("mdim") else _cplx
    coeffs = {int_frequency(d["dim"], e["n"]): decode(e["value"])
              for e in d["coeffs"]}
    return TrigPoly(coeffs, dim=d["dim"], mdim=d.get("mdim"))


def matrixseq_to_json(ms):
    return {"mdim": ms.mdim, "matrices": to_jsonable(ms.matrices)}


def matrixseq_from_json(d):
    ms = MatrixSequence([_matrix(m) for m in d["matrices"]])
    if from_jsonable(int, d["mdim"]) != ms.mdim:
        raise ValueError("mdim %r, but the matrices are %d x %d"
                         % (d["mdim"], ms.mdim, ms.mdim))
    return ms


def plan_digest(plan):
    """Identity of a plan: hash of the inputs plus the sequence they
    produced.  Derived floats stay out so the digest is exact."""
    payload = {name: to_jsonable(getattr(plan, name)) for name in
               ("smoothness", "witness", "K", "t0", "q", "sequence")}
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()
