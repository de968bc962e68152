import json
import random

import pytest

from treedpp import jsonio
from treedpp.dpp import ConstrainedDPP, z_tree
from treedpp.graphs import Graph
from treedpp.rational import Rat
from treedpp.reductions import apreduce_md_to_zt
from treedpp.verify import (
    random_bipartite,
    random_connected_graph,
    random_md_instance,
    random_weighted_psd,
    triangle_graph,
)


def through_json(obj):
    """obj as a reader of its JSON text sees it: object keys become strings."""
    return json.loads(json.dumps(obj))


def integer_triangle():
    return Graph([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 0, 2)])


class TestRationalFormat:
    def test_parse_fraction(self):
        assert jsonio.parse_rational("3/4") == Rat(3, 4)

    def test_parse_integer_string(self):
        assert jsonio.parse_rational("-7") == -7

    def test_parse_integer(self):
        assert jsonio.parse_rational(5) == 5

    def test_rejects_float(self):
        with pytest.raises(ValueError):
            jsonio.parse_rational(1.5)

    def test_rejects_bool(self):
        with pytest.raises(ValueError):
            jsonio.parse_rational(True)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError, match="bad rational literal"):
            jsonio.parse_rational("three halves")

    def test_roundtrip_normalizes(self):
        from treedpp.rational import format_rational

        assert format_rational(Rat(2, 4)) == "1/2"
        assert jsonio.parse_rational(format_rational(Rat(-9, 3))) == -3

    def test_refuses_a_longer_part_before_converting(self, monkeypatch):
        def forbidden(digits):
            raise AssertionError("converted an over-long literal")

        monkeypatch.setattr(jsonio, "_text_int", forbidden)
        over = "7" * (jsonio.MAX_LITERAL_DIGITS + 1)
        for literal in (over, "-" + over, "1/" + over):
            with pytest.raises(ValueError, match="bad rational literal"):
                jsonio.parse_rational(literal)

    def test_decimal_refuses_negative_digits(self):
        from treedpp.rational import format_decimal

        assert format_decimal(Rat(-2, 3), 0) == "-1"
        with pytest.raises(ValueError, match="nonnegative"):
            format_decimal(Rat(2, 3), -1)

    def test_renders_past_the_int_digit_limit(self):
        from treedpp.rational import format_rational

        rng = random.Random(2)
        for bits in (1999, 2000, 2001, 14_500, 60_000):
            num = -rng.getrandbits(bits) | 1
            den = rng.getrandbits(bits // 2) * 2 + 1
            text = format_rational(Rat(num, den))
            assert jsonio.parse_rational(text) == Rat(num, den)
            assert jsonio.parse_rational(format_rational(num)) == num
            head, _, tail = text.partition("/")
            assert head[0] == "-" and head[1] != "0"
            # Read back 1,000 digits at a time, under the limit.
            for digits, value in ((head[1:], -Rat(num, den).numerator),
                                  (tail, Rat(num, den).denominator)):
                back = 0
                for i in range(0, len(digits), 1000):
                    chunk = digits[i:i + 1000]
                    back = back * 10 ** len(chunk) + int(chunk)
                assert back == value


class TestMatrixRoundtrip:
    def test_weighted_psd(self):
        rng = random.Random(1)
        for _ in range(5):
            n = rng.randint(1, 5)
            for ids in ([f"a{i}" for i in range(n)], list(range(n))):
                m = random_weighted_psd(rng, n, labels=ids)
                back = jsonio.load_weighted_psd(through_json(jsonio.dump_weighted_psd(m)))
                assert back.base == m.base
                assert back.weights == m.weights

    def test_labels_default_to_indices(self):
        m = jsonio.load_sym_matrix({"rows": [["1", "0"], ["0", "1"]]})
        assert m.labels == ("0", "1")

    def test_weights_length_mismatch(self):
        with pytest.raises(ValueError, match="parallel"):
            jsonio.load_weighted_psd(
                {"labels": ["a"], "rows": [["1"]], "weights": ["1", "2"]}
            )

    def test_missing_rows(self):
        with pytest.raises(ValueError, match="rows"):
            jsonio.load_sym_matrix({"labels": ["a"]})


class TestGraphRoundtrip:
    def test_graph_with_weights(self):
        rng = random.Random(2)
        g = random_connected_graph(rng, 6, extra_edges=3)
        weights = {eid: Rat(rng.randint(1, 9), rng.choice((1, 2, 5))) for eid in g.edge_by_id}
        g2, w2 = jsonio.load_graph(through_json(jsonio.dump_graph(g, weights)))
        assert g2.vertices == g.vertices
        assert g2.edges == g.edges
        assert w2 == weights

    def test_integer_edge_ids_keep_their_weights(self):
        g = integer_triangle()
        weights = {0: Rat(2), 1: Rat(3, 2), 2: Rat(5)}
        g2, w2 = jsonio.load_graph(through_json(jsonio.dump_graph(g, weights)))
        assert g2.edges == g.edges
        assert w2 == weights

    def test_unknown_weight_edge(self):
        obj = jsonio.dump_graph(triangle_graph())
        obj["weights"] = {"zzz": "1"}
        with pytest.raises(ValueError, match="unknown edges"):
            jsonio.load_graph(obj)

    def test_bipartite(self):
        b = random_bipartite(random.Random(3), 3)
        b2 = jsonio.load_bipartite(through_json(jsonio.dump_bipartite(b)))
        assert (b2.left, b2.right, b2.edges) == (b.left, b.right, b.edges)


class TestBundleRoundtrip:
    def test_tree_bundle(self):
        for g in (triangle_graph(), integer_triangle()):
            ids = sorted(g.edge_by_id)
            m = random_weighted_psd(random.Random(4), 3, labels=ids)
            dpp = ConstrainedDPP(m, "tree", graph=g)
            back = jsonio.load_bundle(through_json(jsonio.dump_bundle(dpp)))
            assert back.constraint == "tree"
            assert back.matrix.base == m.base
            assert back.matrix.weights == m.weights
            assert back.graph.edges == g.edges
            assert z_tree(back.matrix, back.graph) == z_tree(m, g)

    def test_partition_bundle(self):
        m = random_weighted_psd(random.Random(5), 4, labels=("1", "2", "3", "4"))
        dpp = ConstrainedDPP(m, "partition", parts=(("1", "2"), ("3", "4")))
        back = jsonio.load_bundle(through_json(jsonio.dump_bundle(dpp)))
        assert back.parts == (("1", "2"), ("3", "4"))

    def test_weights_object_rejected(self):
        obj = {"matrix": {"rows": [["1"]]}, "weights": {"0": "2"}, "constraint": "tree"}
        with pytest.raises(ValueError, match="weights"):
            jsonio.load_bundle(obj)

    def test_missing_constraint(self):
        with pytest.raises(ValueError, match="constraint"):
            jsonio.load_bundle({"matrix": {"rows": [["1"]]}})


class TestMdRoundtrip:
    def test_instance(self):
        inst = random_md_instance(random.Random(6), 3)
        back = jsonio.load_md_instance(through_json(jsonio.dump_md_instance(inst)))
        assert back.matrices == inst.matrices


class TestReport:
    def test_report_fields(self):
        inst = random_md_instance(random.Random(7), 2)
        report = apreduce_md_to_zt(inst, Rat(1, 2))
        obj = jsonio.report_to_obj(report)
        for key in ("witness", "x", "y", "oracle_value", "estimate", "bounds_check"):
            assert key in obj
        assert obj["bounds_check"]["pass"] is True
        assert isinstance(obj["x_bits"], int)
        assert obj["oracle_calls"] == [{"kind": "tree", "delta": "1/4"}]
        back = jsonio.parse_rational(obj["estimate"])
        assert back == report.estimate
