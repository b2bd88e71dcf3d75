"""The value classes (subclasses of ``fields.Value``) behave as the frozen
dataclasses they replace.

Each class is compared with its twin in ``oracles.VALUE_TWINS``, a frozen
dataclass with the same name, fields and defaults, on sample instances over
Q and F_5: ``repr``, ``hash``, ``==`` and ``!=``, the constructor's
signature, frozen fields, and the checks that run on construction.  Importing
the CLI compiles no generated code beyond the one dataclass that is left.
"""

import copy
import dataclasses
import inspect
import pickle
import subprocess
import sys

import pytest

from mrbder.cohomology import Cochain, CochainSpace, PairSpace, ce_delta, cohomology, hom_space
from mrbder.constructions import LiePair, commutator_lie_pair, rho_representation
from mrbder.deformation import (Deformation, Gauge, derivation_scaling_deformation,
                                identity_gauge, zero_deformation)
from mrbder.extension import (Extension, ExtensionClassification, build_extension,
                              canonical_section, classify, fiber_retraction)
from mrbder.fields import MAX_PRIME, Field, ParseError, QQ, Value
from mrbder.fuzzing import FuzzInstance, random_instances
from mrbder.linalg import (MAX_ENTRIES, EntryCapExceeded, Matrix, MultiTensor, ShapeError,
                           TensorSpace, check_entries)
from mrbder.serialize import Instance
from mrbder.structures import (Algebra, Bimodule, CheckFailure, CheckReport, MRBDerPair,
                               adjoint_bimodule, check_commutation, dual_pair,
                               upper_triangular_pair, verify_pair)

from oracles import VALUE_TWINS

CLASSES = (Field, MultiTensor, TensorSpace, CheckFailure, CheckReport, Algebra, MRBDerPair,
           Bimodule, LiePair, Cochain, CochainSpace, Deformation, Gauge, Extension,
           ExtensionClassification, Instance, FuzzInstance)
FIELDS = {"Q": QQ, "F5": Field(5)}


def _samples(F) -> dict:
    """Two or more distinct instances of every value class over F, by name."""
    pair, ut = dual_pair(F), upper_triangular_pair(F, F.one)
    bim = adjoint_bimodule(pair)
    reps = cohomology(pair, bim, 2).representatives
    zero2 = PairSpace(F, pair.dim, bim.dim_m, 2).zero()
    failing = check_commutation(pair.R, Matrix.from_rows(F, [[F.one, F.one], [F.zero, F.zero]]))
    lie = commutator_lie_pair(pair)
    return {
        "Field": [F, Field(7)],
        "MultiTensor": [pair.mu, bim.left, ut.mu],
        "TensorSpace": [hom_space(2, 2, 1, F), hom_space(2, 3, 2, F)],
        "CheckFailure": list(failing.failures) + [CheckFailure("assoc", (0, 1), (F.one, F.zero))],
        "CheckReport": [verify_pair(pair), failing],
        "Algebra": [pair.algebra, ut.algebra],
        "MRBDerPair": [pair, ut, dual_pair(F)],
        "Bimodule": [bim, adjoint_bimodule(ut)],
        "LiePair": [lie, rho_representation(pair, bim),
                    LiePair(F, lie.dim, lie.bracket, lie.R, lie.d, lie.kappa)],
        "Cochain": list(reps) + [zero2],
        "CochainSpace": [PairSpace(F, 2, 2, 2), CochainSpace(F, 2, 2, (3, 2))],
        "Deformation": [zero_deformation(pair, 1), derivation_scaling_deformation(pair, 2)],
        "Gauge": [identity_gauge(pair, 1), identity_gauge(pair, 2)],
        "Extension": [build_extension(pair, bim, zero2), build_extension(pair, bim, reps[0])],
        "ExtensionClassification": [classify(pair, bim),
                                    ExtensionClassification(0, 1, (zero2,), True)],
        "Instance": [Instance(pair), Instance(pair, bim, cocycle=zero2)],
        "FuzzInstance": random_instances(F, 1, 2, 0),
    }


@pytest.fixture(scope="module", params=sorted(FIELDS))
def samples(request):
    return _samples(FIELDS[request.param])


def _twin_of(obj):
    twin = VALUE_TWINS[type(obj).__name__]
    return twin(*(getattr(obj, f.name) for f in dataclasses.fields(twin) if f.init))


def test_every_value_class_has_a_twin_and_samples():
    assert sorted(c.__name__ for c in CLASSES) == sorted(VALUE_TWINS)
    assert sorted(c.__name__ for c in Value.__subclasses__()) == sorted(VALUE_TWINS)
    assert sorted(_samples(QQ)) == sorted(VALUE_TWINS)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_repr_hash_and_equality_match_the_dataclass(cls, samples):
    objs = samples[cls.__name__]
    assert len(objs) >= 2
    twins = [_twin_of(o) for o in objs]
    for o, t in zip(objs, twins):
        assert repr(o) == repr(t)
        assert hash(o) == hash(t)
        # another class, even a twin with equal fields, is never equal
        assert o.__eq__(t) is NotImplemented and o.__eq__(None) is NotImplemented
        assert not (o == t) and o != t and o != 0
    for a, ta in zip(objs, twins):
        for b, tb in zip(objs, twins):
            assert (a == b) is (ta == tb)
            assert (a != b) is (ta != tb)
    assert any(a != b for a in objs for b in objs)
    # an equal value built anew compares and hashes equal
    again = [cls(*o._values()) for o in objs]
    assert again == objs and [hash(x) for x in again] == [hash(o) for o in objs]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_fields_are_frozen(cls, samples):
    obj = samples[cls.__name__][0]
    before = repr(obj)
    for name in obj._fields + ("not_a_field",):
        with pytest.raises(AttributeError, match="cannot assign to field %r" % name):
            setattr(obj, name, None)
        with pytest.raises(AttributeError, match="cannot delete field %r" % name):
            delattr(obj, name)
    assert repr(obj) == before
    assert not hasattr(obj, "__dict__")


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
def test_constructor_matches_the_dataclass(cls, samples):
    def params(c):
        return [(p.name, p.default, p.kind) for p in inspect.signature(c).parameters.values()]

    assert params(cls) == params(VALUE_TWINS[cls.__name__])
    for obj in samples[cls.__name__]:
        values = obj._values()
        assert cls(*values) == obj
        assert cls(**dict(zip(obj._fields, values))) == obj
        assert copy.copy(obj) == obj and copy.deepcopy(obj) == obj
        assert pickle.loads(pickle.dumps(obj)) == obj


def test_defaults():
    assert Field() == Field(None) == QQ
    lie = commutator_lie_pair(dual_pair(QQ))
    short = LiePair(QQ, lie.dim, lie.bracket, lie.R, lie.d, lie.kappa)
    assert (short.rho, short.R_M, short.d_M) == (None, None, None)
    inst = Instance(dual_pair(QQ))
    assert (inst.bim, inst.deformation, inst.extension, inst.cocycle) == (None,) * 4


def test_pair_keeps_its_complexes_outside_its_value():
    pair = dual_pair(QQ)
    cohomology(pair, adjoint_bimodule(pair), 2)
    assert pair._complexes and not dual_pair(QQ)._complexes
    assert pair == dual_pair(QQ) and hash(pair) == hash(dual_pair(QQ))
    assert "_complexes" not in repr(pair) and pair._fields == ("algebra", "R", "d", "kappa")
    assert not copy.copy(pair)._complexes


def test_lie_pair_keeps_its_complex_outside_its_value():
    def make():
        pair = dual_pair(QQ)
        return rho_representation(pair, adjoint_bimodule(pair))

    lp = make()
    ce_delta(lp, hom_space(2, 2, 1, QQ).zero())
    assert lp._complex and not make()._complex
    assert lp == make() and hash(lp) == hash(make())
    assert "_complex" not in repr(lp)
    assert lp._fields == ("field", "dim", "bracket", "R", "d", "kappa", "rho", "R_M", "d_M")
    assert not copy.copy(lp)._complex


def test_extension_keeps_its_splitting_outside_its_value():
    pair = dual_pair(QQ)
    bim = adjoint_bimodule(pair)
    ext = build_extension(pair, bim, PairSpace(QQ, 2, 2, 2).zero())
    fresh = build_extension(pair, bim, PairSpace(QQ, 2, 2, 2).zero())
    s = canonical_section(ext)
    assert canonical_section(ext) is s and fiber_retraction(ext) == fiber_retraction(ext)
    assert ext._splitting and not fresh._splitting
    assert ext == fresh and hash(ext) == hash(fresh)
    assert "_splitting" not in repr(ext) and ext._fields == ("total", "i", "p")
    assert not copy.copy(ext)._splitting


def _bad_constructions():
    """(name, constructor call, exception type, message): each call fails the
    first of its class's checks that it breaks."""
    F = QQ
    pair = dual_pair(F)
    mu, R = pair.mu, pair.R
    bim = adjoint_bimodule(pair)
    z1 = MultiTensor.zeros(F, (1, 1), 1)
    z3 = Matrix.zeros(F, 3, 3)
    cases = [
        ("field-too-large", lambda: Field(MAX_PRIME + 1), ParseError,
         "prime too large: %d (the limit is %d)" % (MAX_PRIME + 1, MAX_PRIME)),
        ("field-not-prime", lambda: Field(4), ParseError, "not a prime: 4"),
        ("tensor-count", lambda: MultiTensor(F, (2,), 2, (F.zero,) * 3), ShapeError,
         "entry count 3, expected 4"),
        ("algebra-shape", lambda: Algebra(F, 3, mu), ShapeError, "mu must map A x A -> A"),
        ("pair-R", lambda: MRBDerPair(pair.algebra, z3, pair.d, pair.kappa), ShapeError,
         "operator must be 2x2"),
        ("pair-d", lambda: MRBDerPair(pair.algebra, R, z3, pair.kappa), ShapeError,
         "operator must be 2x2"),
        ("bim-cod", lambda: Bimodule(1, bim.left, bim.right, bim.R_M, bim.d_M), ShapeError,
         "actions must land in M"),
        ("bim-slot", lambda: Bimodule(1, z1, MultiTensor.zeros(F, (2, 1), 1), z3, z3),
         ShapeError, "action module slots must have dim 1"),
        ("bim-algebra-slots", lambda: Bimodule(1, MultiTensor.zeros(F, (2, 1), 1), z1, z3, z3),
         ShapeError, "action algebra slots disagree"),
        ("bim-operator", lambda: Bimodule(1, z1, z1, z3, z3), ShapeError,
         "module operator must be 1x1"),
        ("cochain-degree", lambda: Cochain(0, ()), ShapeError, "degree must be >= 1"),
        ("cochain-arities", lambda: Cochain(2, [mu]), ShapeError,
         "parts of arities (2,) form neither OC^2 nor PC^2"),
        ("deformation-order", lambda: Deformation(pair, 7, (), (), ()), ShapeError,
         "order must be in 1..6"),
        ("deformation-count", lambda: Deformation(pair, 1, (mu, mu), (R,), (R,)), ShapeError,
         "need exactly 1 coefficients per family"),
        ("deformation-mu", lambda: Deformation(pair, 1, (MultiTensor.zeros(F, (2, 2), 3),),
                                               (R,), (R,)), ShapeError,
         "mu coefficients must be bilinear maps on A"),
        ("deformation-operator", lambda: Deformation(pair, 1, (mu,), (z3,), (R,)), ShapeError,
         "operator coefficients must be 2x2"),
        ("extension-total", lambda: Extension(pair, Matrix.zeros(F, 3, 1), R), ShapeError,
         "inclusion/projection do not match the total dimension"),
        ("extension-sum", lambda: Extension(pair, Matrix.zeros(F, 2, 1), R), ShapeError,
         "fiber and base dimensions must sum to the total"),
    ]
    return cases


@pytest.mark.parametrize("case", _bad_constructions(), ids=lambda c: c[0])
def test_construction_checks_keep_type_and_message(case):
    _, build, exc, message = case
    with pytest.raises(exc) as info:
        build()
    assert type(info.value) is exc and str(info.value) == message


def test_tensor_checks_the_entry_cap():
    # the constructor checks the entry count against the shape, and no
    # budget: the budget is checked where a request grows, before it builds
    with pytest.raises(ShapeError, match="^entry count 0, expected 100000000$"):
        MultiTensor(QQ, (10**4, 10**4), 1, ())
    with pytest.raises(EntryCapExceeded, match="^tensor with 100000000 entries exceeds cap 1000000$"):
        check_entries(10**8, MAX_ENTRIES)


def test_cochain_stores_its_parts_as_a_tuple():
    f = MultiTensor.zeros(QQ, (2,), 2)
    c = Cochain(1, [f])
    assert type(c.parts) is tuple and c == Cochain(1, (f,))


IMPORT_COUNT = """
import builtins, collections, sys
counts = collections.Counter()
run = builtins.exec
def spy(*args, **kwargs):
    counts[sys._getframe(1).f_globals.get("__name__")] += 1
    return run(*args, **kwargs)
builtins.exec = spy
import mrbder.cli
print(counts["dataclasses"])
"""


def test_importing_the_cli_compiles_only_the_one_dataclass():
    # CohomologyResult, a frozen dataclass of five fields, compiles six
    # methods; every other value class is a fields.Value and compiles none
    out = subprocess.run([sys.executable, "-c", IMPORT_COUNT], capture_output=True,
                         text=True, check=True).stdout
    assert int(out) <= 6
