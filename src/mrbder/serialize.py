"""JSON instance files.

An instance file is a single JSON object:

    {
      "field": "Q" | "Fp:<prime>",
      "dim": <int>,
      "kappa": <scalar>,
      "mu": [[i, j, [<scalar>, ...]], ...],     sparse triples, 0-based
      "R": <matrix>, "d": <matrix>,             dense rows; column j = image of e_j
      "bimodule":    {"dim_m", "l", "r", "R_M", "d_M"},          optional
      "deformation": {"order", "mu": [...], "R": [...], "d": [...]}, optional
      "extension":   {"i": <matrix>, "p": <matrix>},             optional
      "cocycle":     {"theta": triples, "xi": <matrix>, "chi": <matrix>}, optional
    }

Scalars are JSON ints or strings "a" / "a/b"; floats are rejected outright
(exact arithmetic only).  Missing mu triples mean zero products.  ``l`` uses
triples [a, w, vector] for l(e_a, e_w); ``r`` uses [w, a, vector].  In a
deformation block each family lists one entry per order starting at t^1.  In
an extension block the file's main structure maps are the TOTAL pair; the
base and fiber are recovered from (i, p).

``dumps_canonical`` renders reports deterministically: sorted keys, fixed
separators, no timestamps.
"""

from __future__ import annotations

import json
import re
import sys

from .fields import Field, ParseError, Value
from .linalg import MAX_ENTRIES, Matrix, MultiTensor, check_entries, matrix_as_tensor, tensor_as_matrix
from .structures import Algebra, Bimodule, MRBDerPair
from .cohomology import Cochain
from .deformation import Deformation
from .extension import Extension


class Instance(Value):
    __slots__ = ("pair", "bim", "deformation", "extension", "cocycle")

    def __init__(self, pair: MRBDerPair, bim: Bimodule | None = None,
                 deformation: Deformation | None = None, extension: Extension | None = None,
                 cocycle: Cochain | None = None):
        self._init(pair, bim, deformation, extension, cocycle)


def _reject_float(text):
    raise ParseError("inexact-scalar: %s" % text)


def loads_json(text: str):
    limit = sys.get_int_max_str_digits()     # Python reads no int of more digits (0: no limit)
    if limit and re.search(r"(?<!\d)\d{%d}" % (limit + 1), text):     # one scan per run of digits
        raise ParseError("number of more than %d digits" % limit)
    try:
        return json.loads(text, parse_float=_reject_float,
                          parse_constant=_reject_float)
    except json.JSONDecodeError as e:
        raise ParseError("bad JSON: %s" % e) from None
    except RecursionError:
        raise ParseError("bad JSON: nested too deeply") from None


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


# ---------------------------------------------------------------------------
# readers


def _expect_dict(obj, where):
    if not isinstance(obj, dict):
        raise ParseError("%s: expected an object" % where)
    return obj


def _expect_int(obj, where):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ParseError("%s: expected an integer" % where)
    return obj


def _read_matrix(field: Field, obj, nrows: int, ncols: int, where: str) -> Matrix:
    if not isinstance(obj, list) or len(obj) != nrows:
        raise ParseError("%s: expected %d rows" % (where, nrows))
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != ncols:
            raise ParseError("%s: row %d must have %d entries" % (where, r, ncols))
        try:
            rows.append([field.parse(x) for x in row])
        except ParseError as e:
            raise ParseError("%s: row %d: %s" % (where, r, e)) from None
    return Matrix.from_rows(field, rows)


def _read_triples(field: Field, obj, dim0: int, dim1: int, cod: int, where: str,
                  max_entries: int) -> MultiTensor:
    if not isinstance(obj, list):
        raise ParseError("%s: expected a list of [i, j, vector] triples" % where)
    values = {}
    for k, trip in enumerate(obj):
        if not (isinstance(trip, list) and len(trip) == 3):
            raise ParseError("%s: entry %d is not an [i, j, vector] triple" % (where, k))
        i, j, vec = trip
        i = _expect_int(i, "%s: entry %d index" % (where, k))
        j = _expect_int(j, "%s: entry %d index" % (where, k))
        if not (0 <= i < dim0 and 0 <= j < dim1):
            raise ParseError("%s: entry %d: index (%d, %d) out of range" % (where, k, i, j))
        if (i, j) in values:
            raise ParseError("%s: duplicate entry for (%d, %d)" % (where, i, j))
        if not isinstance(vec, list) or len(vec) != cod:
            raise ParseError("%s: entry %d: vector must have %d coordinates" % (where, k, cod))
        try:
            values[(i, j)] = tuple(field.parse(x) for x in vec)
        except ParseError as e:
            raise ParseError("%s: entry %d: %s" % (where, k, e)) from None
    check_entries(dim0 * dim1 * cod, max_entries)
    zero = (field.zero,) * cod
    return MultiTensor.from_map(field, (dim0, dim1), cod,
                                lambda a, b: values.get((a, b), zero))


def _block(data: dict, name: str, keys: set):
    """The optional block ``name`` of an instance, None when it is absent."""
    if name not in data:
        return None
    block = _expect_dict(data[name], name)
    extra = set(block) - keys
    if extra:
        raise ParseError("%s: unknown keys: %s" % (name, ", ".join(sorted(extra))))
    return block


def _matrix_or_zeros(field: Field, block: dict, name: str, key: str, nrows: int, ncols: int):
    """The matrix ``key`` of the block ``name``, zeros when the key is absent."""
    if key not in block:
        return Matrix.zeros(field, nrows, ncols)
    return _read_matrix(field, block[key], nrows, ncols, "%s.%s" % (name, key))


def load_instance(text: str, *, max_entries: int = MAX_ENTRIES) -> Instance:
    """Parse and validate the shape of an instance file (no axiom checks); each
    tensor it declares is checked against ``max_entries`` before it is filled."""
    data = _expect_dict(loads_json(text), "instance")
    unknown = set(data) - {"field", "dim", "kappa", "mu", "R", "d",
                           "bimodule", "deformation", "extension", "cocycle"}
    if unknown:
        raise ParseError("unknown keys: %s" % ", ".join(sorted(unknown)))
    for key in ("field", "dim", "kappa", "R", "d"):
        if key not in data:
            raise ParseError("missing key: %s" % key)
    if not isinstance(data["field"], str):
        raise ParseError("field: expected a string")
    field = Field.from_name(data["field"])
    dim = _expect_int(data["dim"], "dim")
    if dim < 1:
        raise ParseError("dim must be positive")
    kappa = field.parse(data["kappa"])
    mu = _read_triples(field, data.get("mu", []), dim, dim, dim, "mu", max_entries)
    R = _read_matrix(field, data["R"], dim, dim, "R")
    d = _read_matrix(field, data["d"], dim, dim, "d")
    pair = MRBDerPair(Algebra(field, dim, mu), R, d, kappa)

    bim = None
    b = _block(data, "bimodule", {"dim_m", "l", "r", "R_M", "d_M"})
    if b is not None:
        if "dim_m" not in b:
            raise ParseError("bimodule: missing dim_m")
        m = _expect_int(b["dim_m"], "bimodule.dim_m")
        if m < 1:
            raise ParseError("bimodule.dim_m must be positive")
        left = _read_triples(field, b.get("l", []), dim, m, m, "bimodule.l", max_entries)
        right = _read_triples(field, b.get("r", []), m, dim, m, "bimodule.r", max_entries)
        R_M, d_M = (_matrix_or_zeros(field, b, "bimodule", k, m, m) for k in ("R_M", "d_M"))
        bim = Bimodule(m, left, right, R_M, d_M)

    defo = None
    dd = _block(data, "deformation", {"order", "mu", "R", "d"})
    if dd is not None:
        order = _expect_int(dd.get("order", 0), "deformation.order")
        if order < 1:
            raise ParseError("deformation.order must be >= 1")
        terms = {name: dd.get(name, []) for name in ("mu", "R", "d")}
        for name, lst in terms.items():
            if not isinstance(lst, list) or len(lst) != order:
                raise ParseError("deformation.%s: expected %d entries (one per order)"
                                 % (name, order))
        mu_terms = tuple(_read_triples(field, t, dim, dim, dim, "deformation.mu[%d]" % k,
                                       max_entries) for k, t in enumerate(terms["mu"]))
        R_terms, d_terms = (tuple(_read_matrix(field, t, dim, dim, "deformation.%s[%d]" % (name, k))
                                  for k, t in enumerate(terms[name])) for name in ("R", "d"))
        defo = Deformation(pair, order, mu_terms, R_terms, d_terms)

    ext = None
    e = _block(data, "extension", {"i", "p"})
    if e is not None:
        if "i" not in e or "p" not in e:
            raise ParseError("extension: both i and p are required")
        if not (isinstance(e["i"], list) and e["i"] and isinstance(e["i"][0], list)):
            raise ParseError("extension.i: expected a matrix")
        m = len(e["i"][0])
        if not (1 <= m < dim):
            raise ParseError("extension.i: fiber dimension must be in 1..%d" % (dim - 1))
        i_m = _read_matrix(field, e["i"], dim, m, "extension.i")
        p_m = _read_matrix(field, e["p"], dim - m, dim, "extension.p")
        ext = Extension(pair, i_m, p_m)

    coc = None
    c = _block(data, "cocycle", {"theta", "xi", "chi"})
    if c is not None:
        m = bim.dim_m if bim is not None else dim
        theta = _read_triples(field, c.get("theta", []), dim, dim, m, "cocycle.theta", max_entries)
        # xi and chi, dim A x dim M entries each, are no larger than theta
        xi_m, chi_m = (_matrix_or_zeros(field, c, "cocycle", k, m, dim) for k in ("xi", "chi"))
        coc = Cochain(2, (theta, matrix_as_tensor(xi_m), matrix_as_tensor(chi_m)))

    return Instance(pair, bim, defo, ext, coc)


def load_instance_file(path: str, *, max_entries: int = MAX_ENTRIES) -> Instance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return load_instance(fh.read(), max_entries=max_entries)
    except OSError as e:
        raise ParseError("cannot read %s: %s" % (path, e)) from None


# ---------------------------------------------------------------------------
# writers


def matrix_to_json(m: Matrix) -> list:
    F = m.field
    return [[F.to_str(x) for x in row] for row in m.rows]


def triples_to_json(t: MultiTensor) -> list:
    to_str = t.field.to_str
    return [[i, j, [to_str(x) for x in vec]] for (i, j), vec in t.nonzero_values()]


def pair_to_json(pair: MRBDerPair) -> dict:
    F = pair.field
    return {
        "field": F.name,
        "dim": pair.dim,
        "kappa": F.to_str(pair.kappa),
        "mu": triples_to_json(pair.mu),
        "R": matrix_to_json(pair.R),
        "d": matrix_to_json(pair.d),
    }


def bimodule_to_json(bim: Bimodule) -> dict:
    return {
        "dim_m": bim.dim_m,
        "l": triples_to_json(bim.left),
        "r": triples_to_json(bim.right),
        "R_M": matrix_to_json(bim.R_M),
        "d_M": matrix_to_json(bim.d_M),
    }


def deformation_to_json(defo: Deformation) -> dict:
    return {
        "order": defo.order,
        "mu": [triples_to_json(t) for t in defo.mu_terms],
        "R": [matrix_to_json(m) for m in defo.R_terms],
        "d": [matrix_to_json(m) for m in defo.d_terms],
    }


def cocycle_to_json(c: Cochain) -> dict:
    theta, xi, chi = c.parts
    return {
        "theta": triples_to_json(theta),
        "xi": matrix_to_json(tensor_as_matrix(xi)),
        "chi": matrix_to_json(tensor_as_matrix(chi)),
    }


def instance_to_json(inst: Instance) -> dict:
    out = pair_to_json(inst.pair)
    if inst.bim is not None:
        out["bimodule"] = bimodule_to_json(inst.bim)
    if inst.deformation is not None:
        out["deformation"] = deformation_to_json(inst.deformation)
    if inst.extension is not None:
        out["extension"] = {"i": matrix_to_json(inst.extension.i),
                            "p": matrix_to_json(inst.extension.p)}
    if inst.cocycle is not None:
        out["cocycle"] = cocycle_to_json(inst.cocycle)
    return out
