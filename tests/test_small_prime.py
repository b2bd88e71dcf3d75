"""The small prime: the first prime of a large column component over Q.

Over Q, ``_echelon`` reduces each column component of more than
``_SPLIT_MIN_ENTRIES`` entries (rows times columns) first modulo
``_small_prime(scale)``: the first of 7, 11 and 13 that does not divide the
matrix's scale.  Rows independent mod p are independent over Q, so the rank
there bounds the rank over Q from below; if the ranks of the first primes
reach the caller's bound the elimination ends there, and otherwise
``_lift`` takes the component on through the primes below 2**30, which
start from the rows it picked.  It is a first prime like any other: its
residues are combined with those of a later prime whose pivots are the
same, and an unlucky small prime costs a certificate that fails, after
which all rows run again.  Here:

* a small prime that divides column 0 gives the same RREF and the same
  CLI bytes;
* the choice passes over a prime of the scale (13 on the conjugated dual,
  whose D is 3120), and with all three dividing it no small prime runs;
* a balance rung above the gate is proven at the small prime alone;
* the small prime's residues are combined only with a prime of the same
  pivots;
* a matrix at or below the gate runs the primes below 2**30 alone, in
  order, the first over all rows;
* ``kernel_rref``'s elimination with the columns reversed peels the rows
  as they are, and equals the elimination of reversed copies.
"""

import json
import math
import random
from itertools import islice

import pytest

from mrbder import linalg
from mrbder.cli import main
from mrbder.cohomology import cohomology, differential_matrix
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ
from mrbder.fuzzing import conjugate_pair, random_invertible
from mrbder.linalg import Matrix, kernel_rref, rank_and_kernel
from mrbder.serialize import Instance, instance_to_json
from mrbder.structures import adjoint_bimodule, dual_pair

from oracles import dense_rank_and_kernel
from test_peel import KINDS, made

F5 = Field(5)
FIELDS = {"Q": QQ, "F5": F5}
SMALL = (7, 11, 13)


def conjugated(name):
    pair = dual_pair(QQ)
    if name == "dual+dual":
        pair = direct_sum(pair, pair)
    pair = conjugate_pair(pair, random_invertible(random.Random(0), QQ, pair.dim))
    return pair, adjoint_bimodule(pair)


def reductions(monkeypatch):
    """(prime, rows reduced, pivots, residues) of each ``_reduce`` call from now on."""
    calls, real = [], linalg._reduce

    def spy(p, A, run, nc):
        out = real(p, A, run, nc)
        calls.append((p, len(run), out[0], out[2]))
        return out

    monkeypatch.setattr(linalg, "_reduce", spy)
    return calls


def force_small_prime(monkeypatch, q):
    monkeypatch.setattr(linalg, "_small_prime", lambda scale: q)


def with_column_zero_mod(q, d):
    """``d``, whose rows are all nonzero, with a new column 0 put in front:
    over Q it lies outside the span of the other columns, and modulo q it
    vanishes, also once each row is divided by its gcd g, its entry being q
    k g."""
    scale, rows = d.int_rows()
    rng = random.Random(1)
    out = [{0: q * rng.randrange(1, 50) * math.gcd(*r.values()), **{j + 1: v for j, v in r.items()}}
           for r in rows]
    return Matrix.from_ints(QQ, out, scale, d.ncols + 1)


def test_a_small_prime_that_divides_column_0_gives_the_same_rref(monkeypatch):
    d = differential_matrix(*conjugated("dual+dual"), 2, "pair")
    assert d.nrows * (d.ncols + 1) > linalg._SPLIT_MIN_ENTRIES
    # the reference: the primes below 2**30 alone, as below the gate
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 10**9)
    want = rank_and_kernel(with_column_zero_mod(7, d)), kernel_rref(with_column_zero_mod(7, d))
    monkeypatch.undo()
    assert want[0][0] == 81
    force_small_prime(monkeypatch, 7)
    calls = reductions(monkeypatch)
    certified = linalg._certified
    monkeypatch.setattr(linalg, "_certified", lambda *a: calls.append(certified(*a)) or calls[-1])
    assert rank_and_kernel(with_column_zero_mod(7, d)) == want[0]
    # modulo 7 column 0 is lost; the primes below 2**30 reduce the 80 rows
    # picked there until a certificate fails, and the next prime reduces all
    assert calls[0][:2] == (7, 400) and len(calls[0][2]) == 80 and 0 not in calls[0][2]
    failed = calls.index(False)
    picked = [c for c in calls[1:failed] if c is not True]
    assert [c[0] for c in picked] == list(islice(linalg._primes(), len(picked)))
    assert {c[1] for c in picked} == {80}
    assert calls[failed + 1][1] == 400 and calls[-1] is True
    del calls[:]
    assert kernel_rref(with_column_zero_mod(7, d)) == want[1] and calls[0][0] == 7


@pytest.fixture
def conjugated_file(tmp_path):
    path = tmp_path / "conjugated_dual_dual.json"
    path.write_text(json.dumps(instance_to_json(Instance(*conjugated("dual+dual")))))
    return str(path)


def cli(capsys, path, n):
    code = main(["cohomology", "--degree", str(n), path])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_an_unlucky_small_prime_gives_the_same_bytes(monkeypatch, capsys, conjugated_file):
    # 2 divides column 0 and the scale of D_2 of the conjugated dual+dual,
    # whose rank modulo 2 is 74, not 80: the certificate fails, and the
    # elimination falls back on all of its rows
    d = differential_matrix(*conjugated("dual+dual"), 2, "pair")
    scale, rows = d.int_rows()
    assert scale % 2 == 0 and all(r[0] % 2 == 0 for r in rows if 0 in r)
    want = cli(capsys, conjugated_file, 2)
    assert want[0] == 0 and json.loads(want[1])["dim_h"] == 2
    force_small_prime(monkeypatch, 2)
    calls = reductions(monkeypatch)
    assert cli(capsys, conjugated_file, 2) == want
    assert [(p, len(pivots)) for p, _, pivots, _ in calls if p == 2] == [(2, 74)]
    assert max(c[1] for c in calls[1:]) == 400


def test_the_prime_choice_passes_over_primes_of_the_scale(monkeypatch):
    pair, bim = conjugated("dual")
    d1, d2 = (differential_matrix(pair, bim, n, "pair") for n in (1, 2))
    D = d1.int_rows()[0]
    assert D == 3120 == 2**4 * 3 * 5 * 13 and d2.int_rows()[0] == D**2
    assert linalg._small_prime(D**2) == 7
    assert linalg._small_prime(7 * D) == 11
    assert linalg._small_prime(7 * 11 * D) is None
    # modulo 13 the blocks of lower D-power vanish from D_2: its rank there
    # is 2, and 9 once each row is divided by its gcd, as the Q path does
    ints = [r for r in d2.int_rows()[1] if r]
    for rows, ranks in ((ints, [12, 12, 2]), ([{j: v // math.gcd(*r.values()) for j, v in r.items()}
                                               for r in ints], [12, 12, 9])):
        A = [(r, list(r.values())) for r in rows]
        assert [len(linalg._reduce(p, A, range(len(A)), d2.ncols)[0]) for p in SMALL] == ranks
    # with 7, 11 and 13 all dividing the scale, the primes below 2**30 run alone
    d = differential_matrix(*conjugated("dual+dual"), 2, "pair")
    scale, rows = d.int_rows()
    k = math.prod(SMALL)
    calls = reductions(monkeypatch)
    m = Matrix.from_ints(QQ, [{j: k * v for j, v in r.items()} for r in rows], k * scale, d.ncols)
    assert kernel_rref(m) == kernel_rref(d)
    assert calls[0][:2] == (linalg._prime(0), 400)
    assert [c[0] for c in calls].count(7) == 1         # d alone


def test_a_balance_rung_above_the_gate_stops_at_the_small_prime(monkeypatch):
    pair, bim = conjugated("dual+dual")
    d2, d3 = (differential_matrix(pair, bim, n, "pair") for n in (2, 3))
    assert min(d2.nrows * d2.ncols, d3.nrows * d3.ncols) > linalg._SPLIT_MIN_ENTRIES
    calls = reductions(monkeypatch)
    r = cohomology(pair, bim, 3)
    assert (r.dim_cocycles, r.dim_coboundaries, r.dim_h) == (80, 80, 0)
    # rank D_2 and rank D_3, each at 7 alone, with no prime below 2**30
    assert [(p, len(pivots)) for p, _, pivots, _ in calls] == [(7, 80), (7, 320)]
    assert (d2._rank, d3._rank) == (80, 320)


def test_the_small_prime_is_combined_only_when_its_pivots_match(monkeypatch):
    # the small prime is a component's first prime like any other (this
    # replaced a pass whose residues were never kept): its residues start
    # the accumulation, a later prime with the same pivots is combined with
    # them by CRT, and one with better pivots starts anew.  Every component
    # here is above the gate, and the matrices have the scale 1
    monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", 0)
    rng = random.Random(5)
    basis = [[rng.randrange(1, 9) for _ in range(6)] for _ in range(3)]
    coefficients = [[rng.randrange(1, 4) for _ in basis] for _ in range(7)]
    rows = [{j: sum(k * b[j] for k, b in zip(ks, basis)) for j in range(6)} for ks in coefficients]
    d = Matrix.from_ints(QQ, rows, 1, 6)
    calls = reductions(monkeypatch)
    combined, crt = [], linalg._crt
    monkeypatch.setattr(linalg, "_crt", lambda acc, m, *a: combined.append((acc, m)) or crt(acc, m, *a))
    for a, matched in ((d, True), (with_column_zero_mod(7, d), False)):
        del calls[:], combined[:]
        assert rank_and_kernel(a) == dense_rank_and_kernel(a) and calls[0][0] == 7
        sevens = [pivots for p, _, pivots, _ in calls if p == 7]
        later = [pivots for p, _, pivots, _ in calls if p != 7]
        # rank 3 at 7; over Q the rank is 3, or 4 with the column 0 lost at 7
        assert len(sevens) == 1 and len(sevens[0]) == 3 and dense_rank_and_kernel(a)[0] == 4 - matched
        assert (later[0] == sevens[0]) is matched
        if matched:
            # 7's own residue lists, combined first with the next prime's
            assert combined[0][0] is calls[0][3] and combined[0][1] == 7
        else:
            assert all(m % 7 for _, m in combined)


def test_at_or_below_the_gate_the_parent_primes_run(monkeypatch):
    d = differential_matrix(*conjugated("dual+dual"), 2, "pair")
    calls = reductions(monkeypatch)
    entries = d.nrows * d.ncols
    for gate, first in ((entries, linalg._prime(0)), (entries - 1, 7)):
        monkeypatch.setattr(linalg, "_SPLIT_MIN_ENTRIES", gate)
        del calls[:]
        d._rank = None
        kernel_rref(d)
        assert calls[0][:2] == (first, 400)
    # the conjugated dual, below the gate at every degree: the primes from
    # _primes, in order, the first over all rows
    monkeypatch.undo()
    calls = reductions(monkeypatch)
    pair, bim = conjugated("dual")
    for n in (1, 2, 3):
        d = differential_matrix(pair, bim, n, "pair")
        del calls[:]
        rank_and_kernel(d)
        assert [c[0] for c in calls] == list(islice(linalg._primes(), len(calls)))
        assert calls[0][1] == d.nrows


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("kind", KINDS)
def test_the_reversed_elimination_is_that_of_reversed_rows(monkeypatch, field, kind):
    F = FIELDS[field]
    peeled, peel = [], linalg._peel
    monkeypatch.setattr(linalg, "_peel", lambda rows, *a: peeled.append(rows) or peel(rows, *a))
    for seed in range(6):
        m = made(F, kind, seed)[0]
        scale, rows = m.int_rows()
        n = m.ncols
        reversed_rows = [{n - 1 - j: v for j, v in r.items()} for r in rows]
        flipped = peel([r for r in rows if r], n, True)
        assert flipped == peel([r for r in reversed_rows if r], n)
        if kind == "no_singleton":
            # no row is a singleton, and the peel still renumbers the rows in
            # reversed order (this replaced a reversed copy made without it)
            assert flipped[0] == [] and flipped[2] == sorted({n - 1 - c for r in rows for c in r})
        del peeled[:]
        got = linalg._echelon(F, (scale, rows), n, None, True)
        # the rows the peel reads are the matrix's own
        assert all(a is b for a, b in zip(peeled[0], [r for r in rows if r]))
        assert got == linalg._echelon(F, (scale, reversed_rows), n)
