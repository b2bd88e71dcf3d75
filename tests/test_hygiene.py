"""Dead code in ``src/mrbder``, found by a scan of its syntax trees.

* No module imports a name it never uses.  ``__init__`` is left out: its
  imports are the package's public names.
* Every top-level private (``_``-prefixed) name is used somewhere in
  ``src/``, outside its own definition.  A private helper that only tests
  call belongs with the tests.
* ``@dataclass`` decorates ``CohomologyResult`` alone: every other value
  class is a ``fields.Value``, which compiles no code when it is imported.
* No ``MultiTensor.from_map`` callback calls ``.apply(`` or ``.eval(``: a
  structure map that is a composite of others is built with
  ``precompose_slot``, ``postcompose`` and matrix products, not evaluated
  again one basis vector at a time.
* Each step of the exact linear algebra is written once: ``_echelon`` is
  called only by ``rank_and_kernel``, ``kernel_rref``, ``rref_vectors``,
  the [m | B] reader ``_solve_block`` and ``modular_rank``, a rank that
  reads no kernel, and ``math.lcm`` in ``linalg`` only by the scaling
  helper ``_scaled``.
* The elimination is one pipeline: ``_rref_mod`` is called only by
  ``_reduce``, ``_reduce`` only by ``_echelon`` (a first pass) and
  ``_lift`` (the later primes over Q), and ``_crt``, ``_reconstruct`` and
  ``_certified`` only by ``_lift``.
* No function in ``src/`` calls ``rref_vectors``, which takes dense
  vectors: every elimination of the engine starts from sparse rows.  It
  stays public for the tests and the benchmark's tracer.
* The entry lists of the structure maps have one reader: ``_assemble`` is
  called only by ``_Complex.matrix``, so every cochain map is its kept
  matrix.  (``_blocks`` lays out the blocks and checks the budget; the
  budget check of several degrees at once calls it too, and lists nothing.)
* The entry budget is an argument, never module state: ``src/`` holds no
  ``global`` statement and none of the names of the process-wide cap and
  the degree caps it replaced, and ``cli.main`` has no ``finally`` that
  would restore one.
* The four entry lists (``_coboundary_entries``, ``_ce_entries``,
  ``_operator_map_entries``, ``_defect_entries``) and the product kernels
  (``_product``, ``_walked_rows``, ``_unpack``, ``_packed_dots``) run on
  plain ints: none takes a field argument or reads a ``Field`` method, so
  the entries of D_n and of every product enter the field in
  ``Matrix.from_ints`` alone.  So do the integer induced maps
  (``_Complex.induced``) and the zero test ``Matrix.product_is_zero``.
* A ``Matrix`` stores one form, (scale, integer rows): only
  ``Matrix._store``, which every constructor calls, writes ``_ints``, and
  nothing in ``src/`` tests it against None or as a truth value, so no
  reader branches on which form exists.
* phi is one tensor power: ``cohomology`` shifts no bit and reads neither
  ``itertools.product`` nor ``bit_count``, so nothing runs over the 2^n
  sets of bare slots, and no refusal in ``_blocks`` tests a map kind.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "mrbder"
MODULES = {p.stem: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _used_names(node) -> Counter:
    """Names read below ``node``: bare names, attribute names, and the names
    a ``from`` import takes from another module."""
    used = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used[n.id] += 1
        elif isinstance(n, ast.Attribute):
            used[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            used.update(a.name for a in n.names)
    return used


def _bound_by_imports(tree) -> list:
    names = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Import):
            names += [(a.asname or a.name).split(".")[0] for a in n.names]
        elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
            names += [a.asname or a.name for a in n.names]
    return names


@pytest.mark.parametrize("module", sorted(m for m in MODULES if m != "__init__"))
def test_no_unused_imports(module):
    tree = MODULES[module]
    read = Counter()
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            read[n.id] += 1
        elif isinstance(n, ast.Attribute):
            for base in ast.walk(n.value):
                if isinstance(base, ast.Name):
                    read[base.id] += 1
    assert [name for name in _bound_by_imports(tree) if not read[name]] == []


def _private_definitions(tree):
    """(name, node) of each top-level private name the module defines."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def test_every_private_name_is_used():
    used = sum((_used_names(tree) for tree in MODULES.values()), Counter())
    unused = []
    for module, tree in MODULES.items():
        for name, node in _private_definitions(tree):
            # a use inside the definition itself (recursion) does not count
            inside = _used_names(node)[name] if isinstance(node, (ast.FunctionDef,
                                                                  ast.ClassDef)) else 0
            if used[name] - inside < 1:
                unused.append("%s.%s" % (module, name))
    assert unused == []


def test_dataclass_decorates_only_the_cohomology_result():
    decorated = []
    for tree in MODULES.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for d in node.decorator_list:
                    f = d.func if isinstance(d, ast.Call) else d
                    if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) \
                            == "dataclass":
                        decorated.append(node.name)
    assert decorated == ["CohomologyResult"]


def _from_map_callbacks(tree):
    """(line, callback node) of each ``MultiTensor.from_map`` call; a named
    callback is every function of that name in the enclosing function, or in
    the module when the call is at module level."""
    parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    for call in ast.walk(tree):
        f = call.func if isinstance(call, ast.Call) else None
        if not (isinstance(f, ast.Attribute) and f.attr == "from_map"
                and isinstance(f.value, ast.Name) and f.value.id == "MultiTensor"):
            continue
        fns = call.args[3:] + [k.value for k in call.keywords if k.arg == "fn"]
        for fn in fns:
            if isinstance(fn, ast.Name):
                scope = parent[call]
                while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                    scope = parent[scope]
                yield from ((call.lineno, d) for d in ast.walk(scope)
                            if isinstance(d, ast.FunctionDef) and d.name == fn.id)
            else:
                yield call.lineno, fn


def test_from_map_callbacks_evaluate_no_structure_map():
    offenders = []
    for module, tree in MODULES.items():
        for line, fn in _from_map_callbacks(tree):
            if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                   and n.func.attr in ("apply", "eval") for n in ast.walk(fn)):
                offenders.append("%s:%d" % (module, line))
    assert offenders == []


def test_the_from_map_scan_resolves_lambdas_and_named_callbacks():
    found = {(module, type(fn).__name__) for module, tree in MODULES.items()
             for _, fn in _from_map_callbacks(tree)}
    assert {("serialize", "Lambda"), ("structures", "FunctionDef")} <= found


def _dotted(node):
    """The dotted name of a callee such as ``math.lcm``, or None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and base + "." + node.attr
    return None


def _callers(tree, name) -> list:
    """(enclosing function, line) of each call of ``name`` in ``tree``, also
    when called through a module (``linalg._echelon``); "<module>" for a
    call outside every function."""
    out = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if isinstance(node, ast.Call):
            callee = _dotted(node.func) or ""
            if callee == name or callee.endswith("." + name):
                out.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return out


PLANTED = """\
import math
from mrbder import linalg

def helper(F, rows):
    return linalg._echelon(F, rows, 3), math.lcm(2, 3)

class Planted:
    def method(self, F):
        return _echelon(F, [], 0)

X = math.lcm(4, 6)
"""


def test_the_call_scan_finds_planted_calls():
    tree = ast.parse(PLANTED)
    assert _callers(tree, "_echelon") == [("helper", 5), ("method", 9)]
    assert _callers(tree, "math.lcm") == [("helper", 5), ("<module>", 11)]


def test_one_elimination_entry_per_reduction():
    callers = {f for tree in MODULES.values() for f, _ in _callers(tree, "_echelon")}
    assert callers == {"rank_and_kernel", "kernel_rref", "rref_vectors", "_solve_block",
                       "modular_rank"}


def _linalg_callers(name) -> list:
    return sorted({f for tree in MODULES.values() for f, _ in _callers(tree, name)})


def test_one_elimination_pipeline():
    assert _linalg_callers("_rref_mod") == ["_reduce"]
    assert _linalg_callers("_reduce") == ["_echelon", "_lift"]
    for name in ("_crt", "_reconstruct", "_certified"):
        assert _linalg_callers(name) == ["_lift"], name


def test_no_engine_elimination_of_dense_vectors():
    assert [(module, f) for module, tree in MODULES.items()
            for f, _ in _callers(tree, "rref_vectors")] == []


def test_one_lcm_scaling():
    callers = sorted(f for f, _ in _callers(MODULES["linalg"], "math.lcm"))
    assert callers == ["_scaled"]


def test_entry_lists_have_one_reader():
    callers = [(module, f) for module, tree in MODULES.items()
               for f, _ in _callers(tree, "_assemble")]
    complex_class = next(node for node in MODULES["cohomology"].body
                         if isinstance(node, ast.ClassDef) and node.name == "_Complex")
    assert callers == [("cohomology", "matrix")]
    assert [f for f, _ in _callers(complex_class, "_assemble")] == ["matrix"]
    assert sorted(f for f, _ in _callers(MODULES["cohomology"], "_blocks")) \
        == ["check_budget", "matrix"]


REMOVED_LIMITS = ("_max_tensor_entries", "set_max_tensor_entries", "max_tensor_entries",
                  "MAX_MATRIX_DEGREE", "MAX_COHOMOLOGY_DEGREE")


def test_the_budget_is_no_module_state():
    found = [(module, type(n).__name__) for module, tree in MODULES.items()
             for n in ast.walk(tree) if isinstance(n, (ast.Global, ast.Nonlocal))]
    assert found == []
    texts = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert [(m, name) for m, text in texts.items() for name in REMOVED_LIMITS if name in text] == []
    main = next(n for n in MODULES["cli"].body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    assert [n for n in ast.walk(main) if isinstance(n, ast.Try) and n.finalbody] == []


ENTRY_LISTS = ("_coboundary_entries", "_ce_entries", "_operator_map_entries", "_defect_entries")
FIELD_METHODS = {node.name for cls in MODULES["fields"].body
                 if isinstance(cls, ast.ClassDef) and cls.name == "Field"
                 for node in cls.body
                 if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}


def _field_uses(fn) -> list:
    """The field arguments of the function ``fn`` (named F or field, or
    annotated Field) and the ``Field`` method names it reads as attributes."""
    args = [a for a in fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            if a.arg in ("F", "field")
            or (isinstance(a.annotation, ast.Name) and a.annotation.id == "Field")]
    return [a.arg for a in args] + sorted({n.attr for n in ast.walk(fn)
                                          if isinstance(n, ast.Attribute)
                                          and n.attr in FIELD_METHODS})


def _functions(tree) -> dict:
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_entry_lists_run_on_plain_ints():
    defs = _functions(MODULES["cohomology"])
    assert {name: _field_uses(defs[name]) for name in ENTRY_LISTS} \
        == {name: [] for name in ENTRY_LISTS}


PRODUCT_KERNELS = ("_product", "_walked_rows", "_unpack", "_packed_dots")


def test_product_kernels_run_on_plain_ints():
    defs = _functions(MODULES["linalg"])
    assert {name: _field_uses(defs[name]) for name in PRODUCT_KERNELS} \
        == {name: [] for name in PRODUCT_KERNELS}


def _methods(tree, cls: str) -> dict:
    return _functions(next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == cls))


def test_the_induced_maps_and_the_zero_test_run_on_plain_ints():
    # the induced maps are contracted over ints, reduced mod p over F_p, and
    # the zero test reads integer rows: neither takes a field argument or
    # reads a Field method (``self.field.p`` is the modulus, not arithmetic)
    assert _field_uses(_methods(MODULES["cohomology"], "_Complex")["induced"]) == []
    assert _field_uses(_methods(MODULES["linalg"], "Matrix")["product_is_zero"]) == []
    # the field-level formulas of ``constructions`` serve the public
    # ``induced_lie_pair`` alone, not the complex
    readers = {n.name for n in MODULES["cohomology"].body
               if isinstance(n, (ast.FunctionDef, ast.ClassDef))
               and _used_names(n).keys() & {"induced_product", "induced_action"}}
    assert readers == {"induced_lie_pair"}


def test_the_field_scan_flags_the_field_arithmetic_build():
    # the oracle's entry lists are the former ones, written with the field's
    # own operations, so the rule must flag each of them
    oracles = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    defs = _functions(oracles)
    flagged = {name: _field_uses(defs["field_" + name.lstrip("_")]) for name in ENTRY_LISTS}
    assert all(uses[0] == "F" and len(uses) > 1 for uses in flagged.values()), flagged
    assert {"add", "mul", "neg", "pow", "one"} <= FIELD_METHODS


def test_phi_runs_over_no_sets_of_bare_slots():
    tree = MODULES["cohomology"]
    assert [n for n in ast.walk(tree)
            if isinstance(n, ast.BinOp) and isinstance(n.op, ast.LShift)] == []
    assert {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)} \
        & {"product", "bit_count"} == set()
    refusals = [n.test for n in ast.walk(_functions(tree)["_blocks"])
                if isinstance(n, ast.If) and any(isinstance(b, ast.Raise) for b in n.body)]
    assert len(refusals) == 2
    assert [c.value for t in refusals for c in ast.walk(t)
            if isinstance(c, ast.Constant) and isinstance(c.value, str)] == []


def _form_uses(tree) -> tuple:
    """(enclosing function of each write of an ``_ints`` attribute, line of
    each test of one: against None, or read as a truth value)."""
    writes, tests = [], []

    def is_ints(node):
        return isinstance(node, ast.Attribute) and node.attr == "_ints"

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        if is_ints(node) and isinstance(node.ctx, ast.Store):
            writes.append(scope)
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(is_ints, operands)) and any(
                    isinstance(o, ast.Constant) and o.value is None for o in operands):
                tests.append(node.lineno)
        truths = (node.values if isinstance(node, ast.BoolOp)
                  else [node.test] if isinstance(node, (ast.If, ast.IfExp, ast.While))
                  else [node.operand] if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
                  else [])
        tests.extend(node.lineno for t in truths if is_ints(t))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "<module>")
    return writes, tests


PLANTED_FORMS = """\
class M:
    def __init__(self):
        self._ints = None

    def int_rows(self):
        if self._ints is None:
            self._ints = 1, []
        return self._ints

    def transpose(self):
        scale, rows = self._ints or (None, [])
        return not self._ints
"""


def test_the_form_scan_finds_planted_writes_and_tests():
    assert _form_uses(ast.parse(PLANTED_FORMS)) == (["__init__", "int_rows"], [6, 11, 12])


def test_only_the_constructors_write_the_stored_form():
    # a Matrix holds one form, (scale, integer rows): the constructors store
    # it through _store, every other method reads it, and none asks whether
    # it exists
    uses = {name: _form_uses(tree) for name, tree in MODULES.items()}
    assert [(name, f) for name, (writes, _) in uses.items() for f in writes] == [("linalg", "_store")]
    assert {name: tests for name, (_, tests) in uses.items() if tests} == {}
