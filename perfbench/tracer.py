"""Per-layer spans recorded from outside the package.

Each span wraps one public function of an ``mrbder`` module, installed by
rebinding that function's name; nothing under ``src/`` is edited.  Spans are
kept in memory as ``[name, start, end, parent, excluded]`` and turned into
per-layer self times when a pass ends.

Two pitfalls make spans go missing without any error, and both are handled
here:

* ``import mrbder.cohomology as C`` binds the *function* ``cohomology``: the
  package ``__init__`` re-exports it under the submodule's name and so
  shadows the module.  Modules are therefore fetched from ``sys.modules`` via
  ``importlib.import_module``.
* ``from .x import y`` makes a separate binding of ``y`` in every importing
  module (``mrbder.cli.cohomology``, ``mrbder.cohomology.rank_and_kernel``,
  ``mrbder.cohomology.differential_matrix``, the package namespace ...).
  Rebinding only the defining module would miss calls made through the
  others, so every module of the package is scanned for names bound to the
  target object and each one is rebound.  ``install`` then checks that no
  binding to an original is left.

Job code must look functions up through the module at call time (``C.cohomology``
rather than a reference taken earlier), for the same reason.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "mrbder"


def _matrix_size(m) -> int:
    return m.nrows * m.ncols


def _count_assemble(tracer, bound, out):
    a = bound.arguments
    key = (id(a["pair"]), id(a["bim"]), a["n"], a["which"], id(a.get("convention")))
    repeat = key in tracer.assembled
    if not repeat:
        tracer.assembled.add(key)
        # the key holds ids: keep the objects alive so no id is reused in this pass
        tracer.keep.append((a["pair"], a["bim"], a.get("convention")))
    nnz = sum(sum(map(bool, row)) for row in out.rows)
    c = tracer.counts
    c["cohomology.assemble_calls"] += 1
    c["cohomology.assemble_repeats"] += repeat
    c["cohomology.assemble_entries"] += _matrix_size(out)
    c["cohomology.assemble_nnz"] += nnz
    tracer.shapes.append({"job": tracer.job, "n": a["n"], "which": a["which"],
                          "rows": out.nrows, "cols": out.ncols, "nnz": nnz,
                          "repeat": repeat})


def _count_eliminate(size):
    def count(tracer, bound, out):
        tracer.counts["linalg.eliminate_calls"] += 1
        tracer.counts["linalg.eliminate_entries"] += size(bound.arguments)
    return count


def _rref_vectors_size(a) -> int:
    vectors = a["vectors"]
    return len(vectors) * (len(vectors[0]) if vectors else 0)


def _listify_vectors(bound):
    # rref_vectors accepts any iterable; a generator would be spent by counting
    bound.arguments["vectors"] = list(bound.arguments["vectors"])


def _count_emit(tracer, bound, out):
    tracer.counts["serialize.emit_bytes"] += len(out.encode("utf-8"))


# (module, attribute, span name, counter, argument fix-up); an attribute of
# the form "Class.method" wraps the method on the class.
TARGETS = (
    ("cli", "main", "cli.main", None, None),
    ("serialize", "load_instance", "serialize.load", None, None),
    ("serialize", "dumps_canonical", "serialize.emit", _count_emit, None),
    ("serialize", "pair_to_json", "serialize.emit", None, None),
    ("serialize", "bimodule_to_json", "serialize.emit", None, None),
    ("serialize", "cocycle_to_json", "serialize.emit", None, None),
    ("serialize", "matrix_to_json", "serialize.emit", None, None),
    ("serialize", "instance_to_json", "serialize.emit", None, None),
    ("structures", "verify_pair", "structures.verify", None, None),
    ("structures", "check_bimodule", "structures.verify", None, None),
    ("constructions", "direct_sum", "constructions", None, None),
    ("constructions", "semidirect_product", "constructions", None, None),
    ("constructions", "induced_algebra", "constructions", None, None),
    ("constructions", "induced_bimodule", "constructions", None, None),
    ("cohomology", "cohomology", "cohomology.request", None, None),
    ("cohomology", "differential_matrix", "cohomology.assemble", _count_assemble, None),
    ("linalg", "rank_and_kernel", "linalg.eliminate",
     _count_eliminate(lambda a: _matrix_size(a["m"])), None),
    ("linalg", "rref_vectors", "linalg.eliminate",
     _count_eliminate(_rref_vectors_size), _listify_vectors),
    ("linalg", "solve_linear", "linalg.eliminate",
     _count_eliminate(lambda a: a["m"].nrows * (a["m"].ncols + 1)), None),
    ("linalg", "Matrix.__mul__", "linalg.matmul", None, None),
    ("deformation", "check_deformation", "deformation", None, None),
    ("deformation", "infinitesimal", "deformation", None, None),
    ("deformation", "trivialize", "deformation", None, None),
    ("deformation", "equivalent_infinitesimals", "deformation", None, None),
    ("deformation", "apply_gauge", "deformation", None, None),
    ("extension", "build_extension", "extension", None, None),
    ("extension", "extract_cocycle", "extension", None, None),
    ("extension", "check_extension", "extension", None, None),
    ("extension", "derive_base", "extension", None, None),
    ("extension", "classify", "extension", None, None),
    ("extension", "cocycles_cohomologous", "extension", None, None),
    ("fuzzing", "random_instances", "fuzzing.generate", None, None),
    ("fuzzing", "random_instance", "fuzzing.generate", None, None),
    ("fuzzing", "check_instance", "fuzzing.generate", None, None),
)

# per-layer metric -> span name whose self time it sums
SELF_TIME_METRICS = {
    "cohomology.assemble_s": "cohomology.assemble",
    "linalg.eliminate_s": "linalg.eliminate",
    "linalg.matmul_s": "linalg.matmul",
    "serialize.load_s": "serialize.load",
    "serialize.emit_s": "serialize.emit",
    "structures.verify_s": "structures.verify",
    "constructions.s": "constructions",
    "deformation.s": "deformation",
    "extension.s": "extension",
    "fuzzing.generate_s": "fuzzing.generate",
}


class Tracer:
    """Spans and counts for one traced pass at a time."""

    def __init__(self):
        self.active = False
        self.job = None
        self.missing = []
        self._restore = []
        self.reset()

    def reset(self):
        self.overhead = 0.0
        self.spans = []
        self._stack = []
        self.counts = defaultdict(int)
        self.assembled = set()
        self.keep = []
        self.shapes = []

    # -- installing -----------------------------------------------------

    def _wrap(self, name, fn, count, fixup):
        tracer = self
        sig = inspect.signature(fn) if (count or fixup) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            bound = None
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                if fixup is not None:
                    fixup(bound)
                    args, kwargs = bound.args, bound.kwargs
            spans, stack = tracer.spans, tracer._stack
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer, bound, out)
            # the wrapper's own time is tracer work: take it out of every
            # enclosing span, and keep it as the measured overhead
            spent = (rec[1] - t_in) + (perf_counter() - rec[2])
            tracer.overhead += spent
            for i in stack:
                spans[i][4] += spent
            return out

        return traced

    def install(self):
        targets = []
        for modname, attr, name, count, fixup in TARGETS:
            try:
                mod = importlib.import_module("%s.%s" % (PACKAGE, modname))
            except ImportError:
                mod = None
            owner, _, key = attr.rpartition(".")
            owner = getattr(mod, owner, None) if owner else None
            orig = (owner.__dict__ if owner else vars(mod) if mod else {}).get(key)
            if not callable(orig):
                self.missing.append("%s.%s" % (modname, attr))
                continue
            targets.append((owner, key, orig, self._wrap(name, orig, count, fixup)))
        # listed only now, when every target module has been imported
        modules = [m for k, m in list(sys.modules.items())
                   if k == PACKAGE or k.startswith(PACKAGE + ".")]
        for owner, key, orig, wrapped in targets:
            bindings = [(owner, key)] if owner else \
                [(m, k) for m in modules for k, v in list(vars(m).items()) if v is orig]
            for o, k in bindings:
                setattr(o, k, wrapped)
                self._restore.append((o, k, orig))
        left = [(m.__name__, k) for m in modules for k, v in vars(m).items()
                if any(v is orig for _, _, orig, _ in targets)]
        if left:
            raise RuntimeError("still bound to unwrapped functions: %s" % left)

    def uninstall(self):
        for owner, key, orig in reversed(self._restore):
            setattr(owner, key, orig)
        self._restore = []

    # -- reading --------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer self times and counts of the spans recorded since ``reset``."""
        spans = self.spans
        eff = [end - start - excl for _, start, end, _, excl in spans]
        child = [0.0] * len(spans)
        for i, rec in enumerate(spans):
            if rec[3] >= 0:
                child[rec[3]] += eff[i]
        self_time = defaultdict(float)
        for i, rec in enumerate(spans):
            self_time[rec[0]] += eff[i] - child[i]
        out = {metric: self_time.get(span, 0.0) for metric, span in SELF_TIME_METRICS.items()}
        # inclusive time of cohomology(), counting nested calls once
        out["cohomology.request_s"] = sum(
            eff[i] for i, rec in enumerate(spans)
            if rec[0] == "cohomology.request" and not self._inside(i, "cohomology.request"))
        c = self.counts
        calls = c["cohomology.assemble_calls"]
        entries = c["cohomology.assemble_entries"]
        out["cohomology.assemble_calls"] = calls
        out["cohomology.assemble_entries"] = entries
        out["cohomology.assemble_repeat_share"] = c["cohomology.assemble_repeats"] / calls if calls else 0.0
        out["cohomology.assemble_nnz_share"] = c["cohomology.assemble_nnz"] / entries if entries else 0.0
        out["linalg.eliminate_calls"] = c["linalg.eliminate_calls"]
        out["linalg.eliminate_entries"] = c["linalg.eliminate_entries"]
        out["serialize.emit_bytes"] = c["serialize.emit_bytes"]
        return out

    def _inside(self, i: int, name: str) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False
