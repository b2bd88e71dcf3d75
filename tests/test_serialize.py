import glob
import json
import os
import time

import pytest

from mrbder.cli import main
from mrbder.fields import ParseError, QQ
from mrbder.serialize import (Instance, dumps_canonical, instance_to_json,
                              load_instance, load_instance_file, loads_json,
                              matrix_to_json, pair_to_json, triples_to_json)
from mrbder.structures import adjoint_bimodule, dual_pair, verify_pair

INSTANCE_DIR = os.path.join(os.path.dirname(__file__), "..", "instances")


def minimal(**overrides):
    data = {
        "field": "Q",
        "dim": 2,
        "kappa": "-1",
        "mu": [[0, 0, ["1", "0"]], [0, 1, ["0", "1"]], [1, 0, ["0", "1"]]],
        "R": [["1", "0"], ["0", "-1"]],
        "d": [["0", "0"], ["0", "1"]],
    }
    data.update(overrides)
    return json.dumps(data)


class TestRoundTrips:
    def test_shipped_instances_parse(self):
        files = sorted(glob.glob(os.path.join(INSTANCE_DIR, "*.json")))
        assert len(files) >= 7
        for path in files:
            inst = load_instance_file(path)
            assert inst.pair.dim >= 1

    def test_shipped_instances_canonical_round_trip(self):
        for path in sorted(glob.glob(os.path.join(INSTANCE_DIR, "*.json"))):
            with open(path) as fh:
                text = fh.read()
            once = dumps_canonical(instance_to_json(load_instance(text)))
            twice = dumps_canonical(instance_to_json(load_instance(once)))
            assert once == twice

    def test_dual_pair_round_trip(self):
        pair = dual_pair(QQ)
        inst = Instance(pair, adjoint_bimodule(pair))
        text = dumps_canonical(instance_to_json(inst))
        back = load_instance(text)
        assert back.pair.mu.entries == pair.mu.entries
        assert back.pair.R.rows == pair.R.rows
        assert back.pair.kappa == pair.kappa
        assert back.bim.left.entries == pair.mu.entries
        assert verify_pair(back.pair).ok

    def test_parse_matches_fixture(self):
        inst = load_instance_file(os.path.join(INSTANCE_DIR, "fixd.json"))
        pair = dual_pair(QQ)
        assert inst.pair.mu.entries == pair.mu.entries
        assert inst.pair.R.rows == pair.R.rows
        assert inst.pair.d.rows == pair.d.rows
        assert inst.pair.kappa == pair.kappa
        assert inst.bim is not None and inst.bim.dim_m == 2

    def test_deformation_file(self):
        inst = load_instance_file(os.path.join(INSTANCE_DIR, "deform_d_scaling.json"))
        assert inst.deformation is not None
        assert inst.deformation.order == 3
        assert inst.deformation.d_at(1).rows == inst.pair.d.rows

    def test_extension_file(self):
        inst = load_instance_file(os.path.join(INSTANCE_DIR, "extension_total.json"))
        assert inst.extension is not None
        assert inst.extension.dim_fiber == 1
        assert inst.extension.dim_base == 1

    def test_cocycle_file(self):
        inst = load_instance_file(os.path.join(INSTANCE_DIR, "extension_build.json"))
        assert inst.cocycle is not None
        assert inst.cocycle.degree == 2


class TestCanonicalSerialization:
    def test_sorted_keys_and_trailing_newline(self):
        out = dumps_canonical({"b": 1, "a": 2})
        assert out == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_byte_identical(self):
        pair = dual_pair(QQ)
        a = dumps_canonical(instance_to_json(Instance(pair)))
        b = dumps_canonical(instance_to_json(Instance(pair)))
        assert a == b

    def test_triples_skip_zero_vectors_and_sort(self):
        pair = dual_pair(QQ)
        triples = triples_to_json(pair.mu)
        assert [t[:2] for t in triples] == [[0, 0], [0, 1], [1, 0]]

    def test_matrix_strings(self):
        assert matrix_to_json(dual_pair(QQ).R) == [["1", "0"], ["0", "-1"]]

    def test_pair_block(self):
        block = pair_to_json(dual_pair(QQ))
        assert block["field"] == "Q"
        assert block["dim"] == 2
        assert block["kappa"] == "-1"


class TestRejection:
    def test_bad_json(self):
        with pytest.raises(ParseError, match="bad JSON"):
            loads_json("{nope")

    @pytest.mark.parametrize("text,msg", [
        (minimal(kappa=0.5), "inexact-scalar"),
        (minimal(R=[["1", 0.25], ["0", "-1"]]), "inexact-scalar"),
        (minimal(field="Fp:4"), "not a prime"),
        (minimal(field="R"), "bad field name"),
        (minimal(dim=0), "dim must be positive"),
        (minimal(dim=True), "expected an integer"),
        (minimal(extra=1), "unknown keys: extra"),
        (minimal(R=[["1", "0"]]), "expected 2 rows"),
        (minimal(R=[["1"], ["0", "-1"]]), "must have 2 entries"),
        (minimal(mu=[[0, 0, ["1", "0"]], [0, 0, ["0", "1"]]]), "duplicate entry"),
        (minimal(mu=[[0, 2, ["1", "0"]]]), "out of range"),
        (minimal(mu=[[0, 0, ["1"]]]), "vector must have 2 coordinates"),
        (minimal(mu=[[0, 0]]), "triple"),
        (minimal(mu={"0": 1}), "expected a list"),
        (minimal(kappa="a/b"), "bad scalar literal"),
        ("[1, 2]", "expected an object"),
    ])
    def test_rejects(self, text, msg):
        with pytest.raises(ParseError, match=msg):
            load_instance(text)

    @pytest.mark.parametrize("key", ["field", "dim", "kappa", "R", "d"])
    def test_missing_required(self, key):
        data = json.loads(minimal())
        del data[key]
        with pytest.raises(ParseError, match="missing key: %s" % key):
            load_instance(json.dumps(data))

    def test_missing_mu_means_zero_products(self):
        data = json.loads(minimal(kappa="0"))
        del data["mu"]
        data["R"] = [["0", "0"], ["0", "0"]]
        data["d"] = [["0", "0"], ["0", "0"]]
        inst = load_instance(json.dumps(data))
        assert inst.pair.mu.is_zero()

    @pytest.mark.parametrize("overrides,where", [
        ({"mu": None}, "mu"),
        ({"bimodule": {"dim_m": 1, "l": None}}, "bimodule.l"),
        ({"bimodule": {"dim_m": 1, "r": None}}, "bimodule.r"),
        ({"cocycle": {"theta": None}}, "cocycle.theta"),
        ({"deformation": {"order": 1, "mu": [None], "R": [[["0", "0"], ["0", "0"]]],
                          "d": [[["0", "0"], ["0", "0"]]]}}, "deformation.mu\\[0\\]"),
    ], ids=["mu", "l", "r", "theta", "deformation.mu"])
    def test_null_triples_rejected(self, overrides, where):
        # a null is refused where a list of triples is expected, as it is
        # where a matrix is expected; only an absent key means zero
        with pytest.raises(ParseError, match="^%s: expected a list of \\[i, j, vector\\] triples$"
                           % where):
            load_instance(minimal(**overrides))

    @pytest.mark.parametrize("block", ["bimodule", "deformation", "extension", "cocycle"])
    def test_optional_block_shape(self, block):
        # the full text of both refusals every optional block shares
        with pytest.raises(ParseError, match="^%s: expected an object$" % block):
            load_instance(minimal(**{block: []}))
        with pytest.raises(ParseError, match="^%s: unknown keys: w, z$" % block):
            load_instance(minimal(**{block: {"z": 0, "w": 0}}))

    @pytest.mark.parametrize("block,key,rows", [("bimodule", "R_M", 1), ("bimodule", "d_M", 1),
                                                ("cocycle", "xi", 2), ("cocycle", "chi", 2)])
    def test_null_optional_matrix_rejected(self, block, key, rows):
        # only an absent key means zeros; a null matrix is refused
        present = {"dim_m": 1} if block == "bimodule" else {}
        with pytest.raises(ParseError, match="^%s\\.%s: expected %d rows$" % (block, key, rows)):
            load_instance(minimal(**{block: {**present, key: None}}))

    def test_absent_triples_mean_zero(self):
        inst = load_instance(minimal(bimodule={"dim_m": 1}, cocycle={}))
        assert inst.bim.left.is_zero() and inst.bim.right.is_zero()
        assert inst.cocycle.parts[0].is_zero()
        # and so do absent optional matrices
        assert inst.bim.R_M.is_zero() and inst.bim.d_M.is_zero()
        assert inst.cocycle.parts[1].is_zero() and inst.cocycle.parts[2].is_zero()

    def test_scientific_notation_rejected(self):
        with pytest.raises(ParseError, match="inexact-scalar"):
            load_instance(minimal(kappa=1e3))

    def test_nested_unknown_keys(self):
        with pytest.raises(ParseError, match="bimodule: unknown keys"):
            load_instance(minimal(bimodule={"dim_m": 1, "weird": 1}))
        with pytest.raises(ParseError, match="deformation: unknown keys"):
            load_instance(minimal(deformation={"order": 1, "mu": [[]],
                                               "R": [[["0", "0"], ["0", "0"]]],
                                               "d": [[["0", "0"], ["0", "0"]]],
                                               "x": 0}))

    def test_deformation_entry_count(self):
        with pytest.raises(ParseError, match="expected 2 entries"):
            load_instance(minimal(deformation={
                "order": 2,
                "mu": [[]],
                "R": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
                "d": [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]],
            }))

    def test_extension_requires_both_maps(self):
        with pytest.raises(ParseError, match="both i and p"):
            load_instance(minimal(extension={"i": [["0"], ["1"]]}))

    def test_extension_fiber_bounds(self):
        with pytest.raises(ParseError, match="fiber dimension"):
            load_instance(minimal(extension={"i": [["0", "0"], ["0", "0"]],
                                             "p": [["1", "0"], ["0", "1"]]}))

    # a number past the 4300 digits CPython converts from text is refused
    # with one short message, whether the file writes it as a string or as
    # a bare JSON int, and the message does not echo the digits
    @pytest.mark.parametrize("kappa", ['"%s"' % ("7" * 5000), "7" * 5000, '"1/%s"' % ("7" * 5000)],
                             ids=["string", "bare-int", "denominator"])
    def test_long_numbers_are_refused(self, tmp_path, capsys, kappa):
        text = minimal(kappa="KAPPA").replace('"KAPPA"', kappa)
        with pytest.raises(ParseError, match="^number of more than 4300 digits$"):
            load_instance(text)
        path = tmp_path / "long.json"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: number of more than 4300 digits\n")

    def test_the_digit_limit_is_checked_before_parsing(self):
        # 4300 digits are read, 4301 are not, wherever they stand
        inst = load_instance(minimal(mu=[[0, 0, ["7" * 4300, "-" + "7" * 4300]]]))
        assert inst.pair.mu.entries[0] == 7 * (10 ** 4300 - 1) // 9
        with pytest.raises(ParseError, match="^number of more than 4300 digits$"):
            load_instance(minimal(mu=[[0, 0, ["0", "0"]], [1, 1, ["7" * 4301, "0"]]]))

    def test_the_digit_scan_is_linear(self):
        # a scan that restarts inside every run of digits takes about 12 s
        # on these 200 runs of 4300 digits, and one scan per run milliseconds
        start = time.perf_counter()
        assert len(loads_json("[" + ",".join(["7" * 4300] * 200) + "]")) == 200
        assert time.perf_counter() - start < 2.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_instance_file(str(tmp_path / "absent.json"))

    def test_fp_parse_and_denominator(self):
        text = minimal(field="Fp:5", kappa="4", mu=[[0, 0, ["1", "0"]]],
                       R=[["1", "0"], ["0", "4"]], d=[["0", "0"], ["0", "0"]])
        inst = load_instance(text)
        assert inst.pair.field.p == 5
        with pytest.raises(ParseError):
            load_instance(minimal(field="Fp:5", kappa="1/5"))
