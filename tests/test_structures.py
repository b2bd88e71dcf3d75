from pathlib import Path

import pytest

from mrbder.cli import main
from mrbder.constructions import direct_sum
from mrbder.fields import Field, QQ
from mrbder.linalg import Matrix, MultiTensor, ShapeError
from mrbder.serialize import load_instance_file
from mrbder.structures import (Algebra, Bimodule, CheckReport, MRBDerPair,
                               adjoint_bimodule, check_associativity,
                               check_bimodule, check_commutation,
                               check_derivation, check_modified_rb,
                               dual_algebra, dual_pair, is_homomorphism,
                               scalar_pair, unit_vector, upper_triangular_pair,
                               verify_pair, zero_pair)

F5 = Field.prime(5)


def with_mu(pair, table):
    alg = Algebra.from_table(pair.field, pair.dim, table)
    return MRBDerPair(alg, pair.R, pair.d, pair.kappa)


def dual_table(F):
    one, zero = F.one, F.zero
    return {(0, 0): (one, zero), (0, 1): (zero, one), (1, 0): (zero, one)}


class TestFixtures:
    @pytest.mark.parametrize("F", [QQ, F5], ids=["Q", "F5"])
    def test_all_fixtures_verify(self, F):
        pairs = [zero_pair(F), zero_pair(F, 3), dual_pair(F),
                 scalar_pair(dual_algebra(F), F.parse(2)),
                 upper_triangular_pair(F, F.parse(2))]
        for pair in pairs:
            assert verify_pair(pair).ok
            assert check_bimodule(pair, adjoint_bimodule(pair)).ok

    def test_scalar_pair_weight(self):
        pair = scalar_pair(dual_algebra(QQ), QQ.parse(3))
        assert pair.kappa == QQ.parse(-9)
        assert pair.R.rows == Matrix.scalar(QQ, 2, QQ.parse(3)).rows
        assert pair.d.is_zero()

    def test_upper_triangular_dim(self):
        pair = upper_triangular_pair(QQ, QQ.parse(2))
        assert pair.dim == 3
        assert pair.kappa == QQ.parse(-4)

    def test_zero_pair_products_vanish(self):
        pair = zero_pair(F5, 2)
        assert pair.mu.is_zero()
        assert pair.kappa == 0


class TestDualPairLonghand:
    """The two-dimensional pair spanned by a unit and a square-zero element."""

    def test_multiplication_table(self):
        alg = dual_algebra(QQ)
        one, zero = QQ.one, QQ.zero
        assert alg.mu.value_at(0, 0) == (one, zero)
        assert alg.mu.value_at(0, 1) == (zero, one)
        assert alg.mu.value_at(1, 0) == (zero, one)
        assert alg.mu.value_at(1, 1) == (zero, zero)

    def test_operators(self):
        pair = dual_pair(QQ)
        assert pair.R.rows == ((QQ.one, QQ.zero), (QQ.zero, QQ.parse(-1)))
        assert pair.d.rows == ((QQ.zero, QQ.zero), (QQ.zero, QQ.one))
        assert pair.kappa == QQ.parse(-1)

    def test_modified_identity_by_hand(self):
        # mu(R e0, R e1) = -e1 and R(mu(R e0, e1) + mu(e0, R e1)) + kappa mu(e0, e1)
        # = R(e1 - e1) - e1 = -e1
        pair = dual_pair(QQ)
        e0, e1 = unit_vector(QQ, 2, 0), unit_vector(QQ, 2, 1)
        lhs = pair.algebra.product(pair.R.apply(e0), pair.R.apply(e1))
        inner = tuple(QQ.add(a, b) for a, b in zip(
            pair.algebra.product(pair.R.apply(e0), e1),
            pair.algebra.product(e0, pair.R.apply(e1))))
        rhs = tuple(QQ.add(a, QQ.mul(pair.kappa, b))
                    for a, b in zip(pair.R.apply(inner),
                                    pair.algebra.product(e0, e1)))
        assert lhs == rhs == (QQ.zero, QQ.parse(-1))

    def test_product_bilinearity(self):
        alg = dual_algebra(QQ)
        u = (QQ.parse(2), QQ.parse(3))
        v = (QQ.parse(-1), QQ.parse(4))
        # (2 + 3x)(-1 + 4x) = -2 + 5x since x^2 = 0
        assert alg.product(u, v) == (QQ.parse(-2), QQ.parse(5))


class TestChecksCatchBreakage:
    def test_nonassociative_mutation(self):
        pair = dual_pair(QQ)
        table = dual_table(QQ)
        table[(0, 1)] = (QQ.one, QQ.zero)  # unit * x := unit
        bad = with_mu(pair, table)
        rep = check_associativity(bad.algebra)
        assert not rep.ok
        assert rep.first.identity == "assoc"
        assert (1, 0, 1) in [f.args for f in rep.failures]

    def test_square_one_mutation_is_associative_but_invalid(self):
        # sending the square-zero generator to a square root of the unit keeps
        # associativity, so the breakage only shows in the operator identities
        pair = dual_pair(QQ)
        table = dual_table(QQ)
        table[(1, 1)] = (QQ.one, QQ.zero)
        bad = with_mu(pair, table)
        assert check_associativity(bad.algebra).ok
        rep = verify_pair(bad)
        assert not rep.ok
        assert {f.identity for f in rep.failures} <= {"mrb", "derivation"}
        assert "mrb" in {f.identity for f in rep.failures}

    def test_broken_operator(self):
        pair = dual_pair(QQ)
        bad = MRBDerPair(pair.algebra,
                         Matrix.from_rows(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]]),
                         pair.d, pair.kappa)
        rep = check_modified_rb(bad.algebra, bad.R, bad.kappa)
        assert not rep.ok
        assert rep.first.identity == "mrb"

    def test_broken_weight(self):
        pair = dual_pair(QQ)
        bad = MRBDerPair(pair.algebra, pair.R, pair.d, QQ.zero)
        assert check_modified_rb(bad.algebra, bad.R, bad.kappa).first.identity == "mrb"

    def test_broken_derivation(self):
        pair = dual_pair(QQ)
        d = Matrix.from_rows(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.one]])
        rep = check_derivation(pair.algebra, d)
        assert not rep.ok
        # the unit is never in the image of a derivation
        assert rep.first.args == (0, 0)

    def test_broken_commutation(self):
        R = Matrix.from_rows(QQ, [[QQ.zero, QQ.one], [QQ.zero, QQ.zero]])
        d = Matrix.from_rows(QQ, [[QQ.one, QQ.zero], [QQ.zero, QQ.zero]])
        rep = check_commutation(R, d)
        assert not rep.ok
        assert rep.first.identity == "commute"

    def test_failures_keep_subcheck_order(self):
        pair = dual_pair(QQ)
        table = dual_table(QQ)
        table[(0, 1)] = (QQ.one, QQ.zero)
        bad = MRBDerPair(with_mu(pair, table).algebra, pair.R,
                         Matrix.identity(QQ, 2), pair.kappa)
        rep = verify_pair(bad)
        names = [f.identity for f in rep.failures]
        assert "assoc" in names and "derivation" in names
        assert names.index("assoc") < names.index("derivation")


class TestBimodule:
    def test_adjoint_matches_pair_data(self, dual_q):
        bim = adjoint_bimodule(dual_q)
        assert bim.dim_m == dual_q.dim
        assert bim.left.entries == dual_q.mu.entries
        assert bim.right.entries == dual_q.mu.entries
        assert bim.R_M.rows == dual_q.R.rows
        assert bim.d_M.rows == dual_q.d.rows

    def test_identity_module_operator_valid_at_this_weight(self, dual_q):
        # kappa = -1 makes R_M = Id compatible: the operator identities reduce
        # to (1 + kappa) l(a, m) = 0
        base = adjoint_bimodule(dual_q)
        bim = Bimodule(2, base.left, base.right, Matrix.identity(QQ, 2), base.d_M)
        assert check_bimodule(dual_q, bim).ok

    def test_projection_module_operator_fails(self, dual_q):
        base = adjoint_bimodule(dual_q)
        RM = Matrix.from_rows(QQ, [[QQ.zero, QQ.zero], [QQ.zero, QQ.one]])
        bim = Bimodule(2, base.left, base.right, RM, base.d_M)
        rep = check_bimodule(dual_q, bim)
        assert not rep.ok
        assert rep.first.identity == "op-left"

    def test_broken_module_derivation(self, dual_q):
        base = adjoint_bimodule(dual_q)
        bim = Bimodule(2, base.left, base.right, base.R_M, Matrix.identity(QQ, 2))
        rep = check_bimodule(dual_q, bim)
        names = {f.identity for f in rep.failures}
        assert "der-left" in names or "der-right" in names

    def test_dim_mismatch_raises(self):
        pair3 = upper_triangular_pair(QQ, QQ.one)
        with pytest.raises(ShapeError):
            check_bimodule(pair3, adjoint_bimodule(dual_pair(QQ)))


class TestHomomorphism:
    def test_operator_is_automorphism(self, dual_q):
        assert is_homomorphism(dual_q.R, dual_q, dual_q).ok

    def test_identity_map(self, dual_q):
        assert is_homomorphism(Matrix.identity(QQ, 2), dual_q, dual_q).ok

    def test_non_multiplicative(self, dual_q):
        f = Matrix.from_rows(QQ, [[QQ.one, QQ.zero], [QQ.one, QQ.one]])
        rep = is_homomorphism(f, dual_q, dual_q)
        assert not rep.ok
        assert "multiplicative" in {x.identity for x in rep.failures}

    def test_weight_mismatch(self, dual_q):
        other = scalar_pair(dual_algebra(QQ), QQ.parse(2))
        rep = is_homomorphism(Matrix.identity(QQ, 2), dual_q, other)
        assert not rep.ok
        assert rep.first.identity == "kappa"

    def test_shape_guard(self, dual_q):
        with pytest.raises(ShapeError):
            is_homomorphism(Matrix.zeros(QQ, 3, 2), dual_q, dual_q)


class TestConstructors:
    def test_from_table_missing_pairs_zero(self):
        alg = Algebra.from_table(QQ, 2, {(0, 0): (QQ.one, QQ.zero)})
        assert alg.mu.value_at(1, 1) == (QQ.zero, QQ.zero)

    def test_operator_shape_guard(self):
        alg = dual_algebra(QQ)
        with pytest.raises(ShapeError):
            MRBDerPair(alg, Matrix.zeros(QQ, 3, 3), Matrix.zeros(QQ, 2, 2), QQ.zero)

    def test_bimodule_shape_guards(self, dual_q):
        base = adjoint_bimodule(dual_q)
        with pytest.raises(ShapeError):
            Bimodule(3, base.left, base.right, Matrix.zeros(QQ, 3, 3),
                     Matrix.zeros(QQ, 3, 3))
        with pytest.raises(ShapeError):
            Bimodule(2, base.left, base.right, Matrix.zeros(QQ, 3, 3), base.d_M)

    def test_report_combine_and_first(self):
        good = CheckReport(True, ())
        assert good.first is None
        assert CheckReport.combine([good, good]).ok


class TestGoldenFailures:
    """Full failure tuples, in report order, recorded from the loop-based checks."""

    def test_perturbed_pair_bimodule_and_homomorphism(self, dual_q, edited, failure_list):
        bad = MRBDerPair(Algebra(QQ, 2, edited(dual_q.mu, {0: "2", 1: "2"})),
                         edited(dual_q.R, {(0, 1): "2"}), dual_q.d, dual_q.kappa)
        assert failure_list(verify_pair(bad)) == [
            ("assoc", (0, 0, 1), ("0", "1")),
            ("assoc", (1, 0, 0), ("0", "-1")),
            ("mrb", (0, 0), ("-8", "8")),
            ("mrb", (0, 1), ("-8", "8")),
            ("mrb", (1, 0), ("-8", "8")),
            ("mrb", (1, 1), ("0", "8")),
            ("derivation", (0, 0), ("0", "2")),
            ("commute", (1,), ("2", "0")),
        ]
        adj = adjoint_bimodule(dual_q)
        bim = Bimodule(2, edited(adj.left, {4: "3"}), adj.right,
                       edited(adj.R_M, {(1, 0): "1"}), edited(adj.d_M, {(0, 0): "1"}))
        assert failure_list(check_bimodule(dual_q, bim)) == [
            ("module-left", (1, 1, 0), ("-9", "-3")),
            ("module-mixed", (1, 0, 1), ("0", "3")),
            ("der-left", (1, 0), ("-3", "-1")),
            ("der-right", (0, 1), ("0", "-1")),
        ]
        f = Matrix.from_rows(QQ, [[QQ.one, QQ.one], [QQ.zero, QQ.one]])
        assert failure_list(is_homomorphism(f, dual_q, dual_q)) == [
            ("multiplicative", (1, 1), ("-1", "-2")),
            ("operator-intertwine", (1,), ("-2", "0")),
            ("derivation-intertwine", (1,), ("1", "0")),
        ]


INSTANCES = sorted(str(p) for p in (Path(__file__).resolve().parents[1] / "instances").glob("*.json"))


def _input_tensors(inst) -> list:
    """The tensors an instance file declares."""
    out = [inst.pair.mu]
    if inst.bim is not None:
        out += [inst.bim.left, inst.bim.right]
    if inst.deformation is not None:
        out += inst.deformation.mu_terms
    if inst.cocycle is not None:
        out += inst.cocycle.parts
    return out


def test_checks_fit_under_a_cap_equal_to_the_largest_input(monkeypatch, capsys):
    # the axiom checks take no entry budget: no tensor that they, or the
    # verify, deform-check and extend extract commands, build outgrows the
    # largest tensor of the input, which the loader has checked
    built = []
    real, real_ints = MultiTensor.__init__, MultiTensor.from_ints

    def spy(self, field, dims, cod, entries):
        built.append(len(entries))
        real(self, field, dims, cod, entries)

    def spy_ints(field, dims, cod, ints, scale):
        t = real_ints(field, dims, cod, ints, scale)
        built.append(len(t.int_entries()[1]))
        return t

    # a tensor is made from field entries or, by every operation, from ints
    monkeypatch.setattr(MultiTensor, "__init__", spy)
    monkeypatch.setattr(MultiTensor, "from_ints", staticmethod(spy_ints))
    # mu of dual + dual has exactly 4 * 4 * 4 = 64 entries
    pair = direct_sum(dual_pair(QQ), dual_pair(QQ))
    built.clear()
    assert verify_pair(pair).ok
    assert check_bimodule(pair, adjoint_bimodule(pair)).ok
    assert max(built) == 64
    for path in INSTANCES:
        largest = max(len(t.entries) for t in _input_tensors(load_instance_file(path)))
        for command in (["verify"], ["deform-check"], ["extend", "extract"]):
            built.clear()
            main(command + [path])
            assert max(built) <= largest, (command, path)
    capsys.readouterr()
