"""The extension maps and the operator enumeration against their point-by-point
transcriptions in ``oracles``, compared exactly (``==`` and ``repr``).

* Random extensions over Q and F_5: ``build_extension`` of a random closed
  degree-2 cochain of a fuzzing instance, a random section s + i h, and a
  random invertible change of basis of the total space.
* Every operator of the five dimension-2 product tables over F_2, F_3, F_5
  and F_7, the largest prime under ``CLASS_ENUMERATION_CAP`` (over F_2,
  -1 = 1), in the order of the list that the fuzz draw indexes.

A spy on ``linalg._echelon`` counts the row reductions: an extension finds
its section and its retraction with one each, whatever the dimensions, and
keeps them for every later step.  A spy on ``operator_residual`` counts the
residuals the enumeration reads: n^2 + C(n^2, 2) per table, not one per
candidate operator.
"""

import math
import random
import time
from pathlib import Path

import pytest

from mrbder import fuzzing
from mrbder.cli import main
from mrbder.cohomology import PairSpace, differential_matrix
from mrbder.extension import (Extension, build_extension, canonical_section, derive_base,
                              extract_cocycle, fiber_retraction)
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_instances, random_invertible, random_matrix
from mrbder.linalg import Matrix, rank_and_kernel
from mrbder.structures import InvalidStructure, dual_pair

from oracles import (pairwise_mrb_options, pointwise_derive_base, pointwise_extract_cocycle,
                     pointwise_retraction, pointwise_section)

F5 = Field.prime(5)
ROOT = Path(__file__).resolve().parents[1]


def same(a, b):
    return a == b and repr(a) == repr(b)


def random_closed_cochain(rng, pair, bim):
    """A random vector of the kernel of D_2, as a degree-2 cochain."""
    F, space = pair.field, PairSpace(pair.field, pair.dim, bim.dim_m, 2)
    _, basis = rank_and_kernel(differential_matrix(pair, bim, 2, "pair"))
    flat = [F.zero] * space.dim
    for v in basis:
        c = F.random(rng)
        flat = [F.add(x, F.mul(c, y)) for x, y in zip(flat, v)]
    return space.unflatten(flat)


def conjugated(rng, ext, s):
    """The extension and section after the base change x |-> T x of the total
    space, T random and invertible."""
    F = ext.total.field
    T = random_invertible(rng, F, ext.total.dim)
    Ti = T.inverse()
    return Extension(conjugate_pair(ext.total, T), Ti * ext.i, ext.p * T), Ti * s


def random_extensions(field, count, seed):
    rng = random.Random(seed)
    for k, inst in enumerate(random_instances(field, 2, count, seed)):
        c = random_closed_cochain(rng, inst.pair, inst.bim)
        ext = build_extension(inst.pair, inst.bim, c)
        h = random_matrix(rng, field, inst.bim.dim_m, inst.pair.dim)
        yield "%d:%s" % (k, inst.label), conjugated(rng, ext, canonical_section(ext) + ext.i * h)


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_extension_maps_match_the_pointwise_transcriptions(field):
    seen = 0
    for label, (ext, s) in random_extensions(field, 12, seed=11):
        assert same(canonical_section(ext), pointwise_section(ext)), label
        assert same(fiber_retraction(ext), pointwise_retraction(ext)), label
        base = derive_base(ext)
        assert same(base, pointwise_derive_base(ext)), label
        pair, bim = base
        for section in (None, s):
            c = extract_cocycle(pair, bim, ext, section)
            assert same(c, pointwise_extract_cocycle(pair, bim, ext, section)), label
            seen += not c.is_zero()
    # the sections and base changes must give nonzero cochains to compare
    assert seen > 0


def _non_ideal(F):
    # the unit line of the dual numbers: the products escape the fiber
    one, zero = F.one, F.zero
    return Extension(dual_pair(F), Matrix.from_rows(F, [[one], [zero]]),
                     Matrix.from_rows(F, [[zero, one]]))


def _not_onto(F):
    one, zero = F.one, F.zero
    return Extension(dual_pair(F), Matrix.from_rows(F, [[zero], [one]]),
                     Matrix.from_rows(F, [[zero, zero]]))


def _not_injective(F):
    one, zero = F.one, F.zero
    return Extension(dual_pair(F), Matrix.from_rows(F, [[zero], [zero]]),
                     Matrix.from_rows(F, [[one, zero]]))


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
@pytest.mark.parametrize("make,message", [
    (_non_ideal, "vector does not lie in the fiber"),
    (_not_onto, "projection is not surjective"),
    (_not_injective, "inclusion is not injective"),
], ids=["non-ideal", "not-onto", "not-injective"])
def test_derive_base_refuses_as_the_transcription_does(field, make, message):
    ext = make(field)
    for fn in (derive_base, pointwise_derive_base):
        with pytest.raises(InvalidStructure) as err:
            fn(ext)
        assert str(err.value) == message


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_extract_cocycle_refuses_values_outside_the_fiber(field):
    # the base and fiber of the line extension, measured on the non-ideal one
    ext = _non_ideal(field)
    line = Extension(ext.total, Matrix.from_rows(field, [[field.zero], [field.one]]),
                     Matrix.from_rows(field, [[field.one, field.zero]]))
    pair, bim = derive_base(line)
    for fn in (extract_cocycle, pointwise_extract_cocycle):
        with pytest.raises(InvalidStructure) as err:
            fn(pair, bim, ext)
        assert str(err.value) == "vector does not lie in the fiber"


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_operator_enumeration_matches_the_pairwise_solve(p):
    F = Field.prime(p)
    fuzzing._mrb_options.cache_clear()
    for name, alg in sorted(fuzzing._dim2_tables(F).items()):
        got = fuzzing._mrb_options(F, alg)
        # equal in order too: the fuzz draw picks an index into this list
        assert same(got, pairwise_mrb_options(F, alg)), name
        assert got, name


@pytest.mark.parametrize("p", [2, 5, 7])
def test_operator_enumeration_reads_the_identity_once_per_polarization(p, monkeypatch):
    F, calls = Field.prime(p), []
    real = fuzzing.operator_residual

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(fuzzing, "operator_residual", spy)
    fuzzing._mrb_options.cache_clear()
    for name, alg in sorted(fuzzing._dim2_tables(F).items()):
        del calls[:]
        fuzzing._mrb_options(F, alg)
        n2 = alg.dim ** 2
        assert 0 < len(calls) <= n2 + math.comb(n2, 2), name


def test_operator_enumeration_over_f7_is_fast():
    F = Field.prime(7)
    tables = sorted(fuzzing._dim2_tables(F).items())
    best = math.inf
    # the best of three runs, each from an empty cache, so that a slow phase
    # of the host alone does not fail the bound
    for _ in range(3):
        fuzzing._mrb_options.cache_clear()
        start = time.perf_counter()
        for _, alg in tables:
            fuzzing._mrb_options(F, alg)
        best = min(best, time.perf_counter() - start)
    assert best < 0.3


@pytest.mark.parametrize("field", [QQ, F5], ids=["Q", "F5"])
def test_the_splitting_costs_two_eliminations(field, eliminations):
    dims = set()
    for label, (ext, s) in random_extensions(field, 12, seed=11):
        ext = Extension(ext.total, ext.i, ext.p)
        del eliminations[:]
        section, retraction = canonical_section(ext), fiber_retraction(ext)
        assert len(eliminations) == 2, label
        pair, bim = derive_base(ext)
        extract_cocycle(pair, bim, ext)
        extract_cocycle(pair, bim, ext, s)
        assert canonical_section(ext) is section and fiber_retraction(ext) == retraction
        assert len(eliminations) == 2, label
        dims.add(ext.dim_base)
    # one elimination finds a section of every width
    assert max(dims) >= 2


@pytest.mark.parametrize("argv,count", [
    (["extend", "extract", "instances/extension_total.json"], 2),
    (["verify", "instances/extension_total.json"], 2),
], ids=["extract", "verify"])
def test_cli_eliminations(argv, count, eliminations, monkeypatch, capsys):
    # the section and the retraction, which also decide exactness
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert len(eliminations) == count
