import random

import pytest

from mrbder.fields import CLASS_ENUMERATION_CAP, Field, QQ
from mrbder.fuzzing import (check_instance, conjugate_bimodule, conjugate_pair,
                            random_instance, random_instances,
                            random_invertible, random_kernel_element,
                            random_matrix)
from mrbder.linalg import Matrix, rank_and_kernel
from mrbder.structures import adjoint_bimodule, check_bimodule, dual_pair, verify_pair

F5 = Field.prime(5)
F7 = Field.prime(7)


class TestGenerators:
    @pytest.mark.parametrize("field,dim,count", [
        (F5, 1, 20), (F5, 2, 40), (F7, 2, 15), (QQ, 1, 10), (QQ, 2, 15),
    ], ids=["f5-dim1", "f5-dim2", "f7-dim2", "q-dim1", "q-dim2"])
    def test_all_instances_valid(self, field, dim, count):
        for inst in random_instances(field, dim, count, seed=5):
            assert check_instance(inst), inst.label

    def test_deterministic_for_seed(self):
        a = random_instances(F5, 2, 8, seed=42)
        b = random_instances(F5, 2, 8, seed=42)
        assert [x.label for x in a] == [y.label for y in b]
        for x, y in zip(a, b):
            assert x.pair.mu.entries == y.pair.mu.entries
            assert x.pair.R.rows == y.pair.R.rows
            assert x.pair.kappa == y.pair.kappa
            assert x.bim.left.entries == y.bim.left.entries

    def test_seeds_differ(self):
        a = random_instances(F5, 2, 8, seed=0)
        b = random_instances(F5, 2, 8, seed=1)
        assert any(x.pair.mu.entries != y.pair.mu.entries or x.label != y.label
                   for x, y in zip(a, b))

    def test_labels_name_the_bimodule_kind(self):
        kinds = {"adjoint", "trivial", "induced", "conjugated"}
        seen = set()
        for inst in random_instances(F5, 2, 60, seed=9):
            kind = inst.label.rsplit("/", 1)[1]
            assert kind in kinds
            seen.add(kind)
        # with 60 draws every kind should have appeared
        assert seen == kinds

    def test_dim1_pairs_have_matched_weight(self):
        rng = random.Random(3)
        for _ in range(20):
            inst = random_instance(rng, F5, 1)
            pair = inst.pair
            if not pair.mu.is_zero() and "dim1" in inst.label and "conj" not in inst.label:
                # nonzero product in dimension 1 forces kappa = -r^2 and d = 0
                r = pair.R.entry(0, 0)
                assert pair.kappa == F5.neg(F5.mul(r, r))

    def test_dim_guard(self):
        with pytest.raises(ValueError):
            random_instance(random.Random(0), F5, 3)

    @pytest.mark.parametrize("p", [11, 13])
    def test_dim2_enumeration_cap(self, p):
        # over F_p, dimension 2 enumerates p^4 operators; above the cap the
        # request is refused for every seed, before a draw decides the dimension
        F = Field.prime(p)
        assert p ** 4 > CLASS_ENUMERATION_CAP
        for seed in range(5):
            rng = random.Random(seed)
            state = rng.getstate()
            with pytest.raises(ValueError, match="would enumerate %d operators" % p ** 4):
                random_instance(rng, F, 2)
            assert rng.getstate() == state
        assert len(random_instances(F, 1, 3, seed=0)) == 3


class TestBasisChange:
    def test_random_invertible(self):
        rng = random.Random(4)
        for _ in range(10):
            T = random_invertible(rng, F5, 3)
            rank, _ = rank_and_kernel(T)
            assert rank == 3

    def test_conjugation_round_trip(self):
        rng = random.Random(5)
        pair = dual_pair(F5)
        T = random_invertible(rng, F5, 2)
        back = conjugate_pair(conjugate_pair(pair, T), T.inverse())
        assert back.mu.entries == pair.mu.entries
        assert back.R.rows == pair.R.rows
        assert back.d.rows == pair.d.rows

    def test_conjugation_preserves_validity(self):
        rng = random.Random(6)
        for seed_pair in random_instances(F5, 2, 10, seed=11):
            T = random_invertible(rng, F5, seed_pair.pair.dim)
            assert verify_pair(conjugate_pair(seed_pair.pair, T)).ok

    def test_bimodule_conjugation_with_independent_module_map(self):
        rng = random.Random(7)
        pair = dual_pair(F5)
        bim = adjoint_bimodule(pair)
        T = random_invertible(rng, F5, 2)
        # transporting the adjoint module requires S = T
        assert check_bimodule(conjugate_pair(pair, T),
                              conjugate_bimodule(bim, T, T)).ok

    def test_kernel_element_helpers(self):
        rng = random.Random(8)
        assert random_kernel_element(rng, F5, []) is None
        m = random_matrix(rng, F5, 2, 3)
        assert (m.nrows, m.ncols) == (2, 3)
