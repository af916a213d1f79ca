"""Canonical JSON for every artifact the toolkit reads or writes.

One float, one spelling: floats are printed with 17 significant digits
(enough to round-trip a double exactly), keys are emitted sorted, and
exact rationals travel as "p/q" strings so nothing is lost to binary
conversion.  Two equal objects therefore serialize to byte-identical
text, which is what makes digests and replay comparisons meaningful.
"""

import dataclasses
import hashlib
import json
import math
import typing
from fractions import Fraction

import numpy as np

from .crnorm import MatrixSequence
from .multiindex import Smoothness
from .property_o import PropertyOWitness
from .sequence import LacunaryPlan, bk_radius
from .trigpoly import TrigPoly


def _float_repr(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float has no canonical JSON form")
    s = "%.17g" % x
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _emit(o, out):
    if o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, (int, np.integer)):
        out.append(str(int(o)))
    elif isinstance(o, (float, np.floating)):
        out.append(_float_repr(float(o)))
    elif isinstance(o, str):
        out.append(json.dumps(o))
    elif isinstance(o, (list, tuple)):
        out.append("[")
        for i, v in enumerate(o):
            if i:
                out.append(",")
            _emit(v, out)
        out.append("]")
    elif isinstance(o, dict):
        out.append("{")
        for i, k in enumerate(sorted(o)):
            if not isinstance(k, str):
                raise TypeError("canonical JSON keys must be strings")
            if i:
                out.append(",")
            out.append(json.dumps(k))
            out.append(":")
            _emit(o[k], out)
        out.append("}")
    else:
        raise TypeError("no canonical JSON form for %r" % type(o))


def canonical_dumps(obj):
    """Serialize to canonical JSON text (sorted keys, %.17g floats)."""
    out = []
    _emit(to_jsonable(obj), out)
    return "".join(out)


def to_jsonable(obj):
    """Recursively rewrite into plain JSON-compatible values: dataclasses
    to {field name: value}, Fractions to "p/q" strings, complex to
    {re, im}, arrays to nested lists, sets to sorted lists."""
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
        return {k: to_jsonable(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    raise TypeError("no JSON form for %r" % type(obj))


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
    if cls in (bool, int, float, str) and isinstance(data, cls):
        return data
    raise TypeError("expected %s, got %r" % (getattr(cls, "__name__", cls), data))


# ----------------------------------------------------------------------
# typed names for the generic pair

smoothness_to_json = witness_to_json = plan_to_json = to_jsonable


def smoothness_from_json(d):
    return from_jsonable(Smoothness, d)


def witness_from_json(d):
    return from_jsonable(PropertyOWitness, d)


def plan_from_json(d):
    """A plan, checked across fields: K = len(sequence) = len(ts) =
    len(radii) >= 1, and each radius is bk_radius of the sequence."""
    plan = from_jsonable(LacunaryPlan, d)
    if not plan.K == len(plan.sequence) == len(plan.ts) == len(plan.radii) >= 1:
        raise ValueError("plan needs K = len(sequence) = len(ts) = len(radii) >= 1")
    if plan.radii != [bk_radius(plan.sequence, k) for k in range(1, plan.K + 1)]:
        raise ValueError("plan radii are not the ball radii of its sequence")
    return plan


def paley_to_json(result):
    """An estimate_paley_constant result.  Its per_dim table is keyed by
    the int matrix dimension m in memory and by str(m) in JSON."""
    out = to_jsonable(result)
    if "per_dim" in out:
        out["per_dim"] = {str(m): v for m, v in out["per_dim"].items()}
    return out


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
    coeffs = {tuple(e["n"]): decode(e["value"]) for e in d["coeffs"]}
    return TrigPoly(coeffs, dim=d["dim"], mdim=d.get("mdim"))


def matrixseq_to_json(ms):
    return {"mdim": ms.mdim, "matrices": to_jsonable(ms.matrices)}


def matrixseq_from_json(d):
    return MatrixSequence([_matrix(m) for m in d["matrices"]])


def plan_digest(plan):
    """Identity of a plan: hash of the inputs plus the sequence they
    produced.  Derived floats stay out so the digest is exact."""
    payload = {name: to_jsonable(getattr(plan, name)) for name in
               ("smoothness", "witness", "K", "t0", "q", "sequence")}
    return hashlib.sha256(canonical_dumps(payload).encode()).hexdigest()
