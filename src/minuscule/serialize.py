"""JSON-friendly dictionaries, their JSON text, and DOT renderings of
the core structures.

Rationals are serialized as "num/den" strings (JSON numbers cannot
carry exactness); ideals are serialized as 0/1 strings indexed by heap
element.  All emitted orderings are deterministic.  ``dumps`` writes
the text of ``json.dumps(value, indent=2, sort_keys=True)``, which with
an indent runs the json module's pure-Python encoder; here a flat list
of ints or of strings is joined in one C call.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _string

from .bits import bit_string
from .cartan import CartanDatum
from .heap import Heap
from .ideals import IdealLattice
from .orbit import OrbitPoset


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` for a value built
    of dicts with str keys, lists, tuples, strs, ints, bools and None.
    Any other type, a float or ``Fraction`` included, or a non-str key,
    raises ``TypeError``."""
    return _render(value, "\n")


def _render(value, newline: str) -> str:
    """``value`` as JSON, its lines after the first starting with
    ``newline``'s indent."""
    if isinstance(value, str):
        return _string(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {int}:
            items = map(int.__repr__, value)
        elif kinds == {str}:
            items = map(_string, value)
        else:
            items = [_render(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key in sorted(value):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(_string(key) + ": " + _render(value[key], inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def frac_str(value) -> str:
    """A ``Fraction`` or an int as "num/den": both keep their numerator
    and denominator in lowest terms, the denominator positive."""
    return f"{value.numerator}/{value.denominator}"


def cartan_to_dict(cd: CartanDatum) -> dict:
    return {
        "family": cd.family,
        "rank": cd.rank,
        "numbering": "bourbaki",
        "matrix": [list(row) for row in cd.matrix],
        "omega_sq": frac_str(cd.omega_sq),
    }


def orbit_to_dict(orbit: OrbitPoset) -> dict:
    return {
        "size": len(orbit),
        "weights": [list(w) for w in orbit.weights],
        "covers": [list(c) for c in orbit.covers],
        "layers": list(orbit.layers),
        "bottom": orbit.bottom,
        "top": orbit.top,
    }


def heap_to_dict(h: Heap) -> dict:
    return {
        "size": len(h),
        "labels": list(h.labels),
        "covers": [list(c) for c in h.covers],
        "ranks": list(h.ranks),
        "names": [list(n) for n in h.names],
        "base": list(h.base) if h.base is not None else None,
    }


def lattice_to_dict(lattice: IdealLattice) -> dict:
    width = len(lattice.heap)
    return {
        "count": len(lattice),
        "ideals": [bit_string(m, width) for m in lattice.ideals],
        "covers": [list(c) for c in lattice.covers],
        "weights": [list(w) for w in lattice.weights] if lattice.weights else None,
    }


def orbit_dot(orbit: OrbitPoset) -> str:
    lines = ["digraph orbit {", "  rankdir=BT;"]
    for k, w in enumerate(orbit.weights):
        coords = ",".join(str(c) for c in w)
        lines.append(f'  w{k} [label="({coords})"];')
    for u, v, i in orbit.covers:
        lines.append(f'  w{u} -> w{v} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def heap_dot(h: Heap) -> str:
    lines = ["digraph heap {", "  rankdir=BT;"]
    for p, label in enumerate(h.labels):
        lines.append(f'  p{p} [label="{p} (node {label})"];')
    for a, b in h.covers:
        lines.append(f"  p{a} -> p{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
