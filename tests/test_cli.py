import io
import json
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from treedpp import jsonio, verify
from treedpp.cli import COMMANDS, MAX_DECIMAL_DIGITS, _build_parser, main
from treedpp.dpp import ConstrainedDPP
from treedpp.graphs import Graph
from treedpp.linalg import SymMatrix, WeightedPSD
from treedpp.mixed_disc import build_partition_instance
from treedpp.reductions import build_md_gadget, gadget_z_exact
from treedpp.rational import format_rational
from treedpp.verify import complete_graph, random_md_instance

# Hypothesis caches source constants and unicode tables even without an
# example database; keep them out of the working tree.
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "treedpp-hypothesis")


@pytest.fixture
def triangle_bundle(tmp_path):
    path = tmp_path / "triangle.json"
    jsonio.write_json(
        path,
        {
            "graph": {
                "vertices": ["1", "2", "3"],
                "edges": [["a", "1", "2"], ["b", "2", "3"], ["c", "1", "3"]],
            },
            "matrix": {
                "labels": ["a", "b", "c"],
                "rows": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
            },
            "weights": ["1", "1", "1"],
            "constraint": "tree",
            "parts": None,
        },
    )
    return str(path)


@pytest.fixture
def k33_file(tmp_path):
    left = [f"u{i}" for i in range(3)]
    right = [f"w{i}" for i in range(3)]
    path = tmp_path / "k33.json"
    jsonio.write_json(
        path,
        {"left": left, "right": right, "edges": [[u, w] for u in left for w in right]},
    )
    return str(path)


@pytest.fixture
def md_identity_file(tmp_path):
    eye = {"labels": ["0", "1"], "rows": [["1", "0"], ["0", "1"]]}
    path = tmp_path / "md.json"
    jsonio.write_json(path, {"matrices": [eye, eye]})
    return str(path)


def write_bundle(path, graph, matrix=None):
    """A tree bundle file of graph, with the identity kernel unless matrix is given."""
    if matrix is None:
        ids = [eid for eid, _, _ in graph.edges]
        matrix = WeightedPSD(SymMatrix(ids, [[int(a == b) for b in ids] for a in ids]))
    jsonio.write_json(path, jsonio.dump_bundle(ConstrainedDPP(matrix, "tree", graph=graph)))
    return str(path)


def integer_triangle():
    return Graph([0, 1, 2], [(0, 0, 1), (1, 1, 2), (2, 0, 2)])


class TestValueCommands:
    def test_zt(self, triangle_bundle, capsys):
        assert main(["zt", triangle_bundle]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_zf(self, triangle_bundle, capsys):
        assert main(["zf", triangle_bundle]) == 0
        assert capsys.readouterr().out.strip() == "7"

    def test_znorm(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        jsonio.write_json(path, {"labels": ["a", "b"], "rows": [["1", "0"], ["0", "2"]]})
        assert main(["znorm", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_count_trees_weighted(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        jsonio.write_json(
            path,
            {
                "vertices": ["1", "2", "3"],
                "edges": [["a", "1", "2"], ["b", "2", "3"], ["c", "1", "3"]],
                "weights": {"a": "2", "b": "3", "c": "5"},
            },
        )
        assert main(["count-trees", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "31"

    def test_integer_edge_ids(self, tmp_path, capsys):
        # JSON object keys are strings: weight "1" belongs to edge id 1.
        path = tmp_path / "g.json"
        weights = {0: 2, 1: 3, 2: 5}
        jsonio.write_json(path, jsonio.dump_graph(integer_triangle(), weights))
        assert main(["count-trees", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "31"
        bundle = write_bundle(tmp_path / "b.json", integer_triangle())
        assert main(["zt", bundle]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_count_pm(self, k33_file, capsys):
        assert main(["count-pm", k33_file]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_reduce_pm_zt(self, k33_file, capsys):
        assert main(["reduce-pm-zt", k33_file]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_reduce_zt_zf(self, triangle_bundle, capsys):
        assert main(["reduce-zt-zf", triangle_bundle]) == 0
        assert capsys.readouterr().out.strip() == "3"

    def test_mixed_disc(self, md_identity_file, capsys):
        assert main(["mixed-disc", md_identity_file]) == 0
        assert capsys.readouterr().out.strip() == "2"

    @pytest.mark.parametrize("command", ["mixed-disc", "apreduce-zt"])
    def test_kernels_with_differing_labels_rejected(self, command, tmp_path, capsys):
        path = tmp_path / "md.json"
        jsonio.write_json(path, {"matrices": [
            {"labels": ["a", "b"], "rows": [["2", "0"], ["0", "1"]]},
            {"labels": ["b", "a"], "rows": [["2", "0"], ["0", "1"]]},
        ]})
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "share one label tuple" in captured.err

    def test_decimal_rendering(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        jsonio.write_json(path, {"labels": ["a"], "rows": [["1/3"]]})
        assert main(["znorm", str(path), "--decimal", "4"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["4/3", "1.3333"]

    def test_json_output(self, triangle_bundle, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["zt", triangle_bundle, "--json", str(out)]) == 0
        assert json.loads(out.read_text())["value"] == "3"


class TestSample:
    def test_deterministic(self, triangle_bundle, capsys):
        assert main(["sample", triangle_bundle, "--seed", "7", "--count", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["sample", triangle_bundle, "--seed", "7", "--count", "5"]) == 0
        assert capsys.readouterr().out == first
        lines = [json.loads(line) for line in first.strip().splitlines()]
        assert len(lines) == 5
        assert all(len(s) == 2 for s in lines)


class TestApReduce:
    def test_tree_route_report(self, md_identity_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            ["apreduce-zt", md_identity_file, "--epsilon", "1/2", "--json", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["bounds_check"]["pass"] is True
        assert report["oracle_calls"] == [{"kind": "tree", "delta": "1/4"}]
        value = capsys.readouterr().out.strip()
        assert value == report["estimate"]

    def test_forest_route_noisy(self, md_identity_file, capsys):
        code = main(
            ["apreduce-zf", md_identity_file, "--epsilon", "1/2",
             "--oracle", "noisy", "--seed", "11"]
        )
        assert code == 0
        capsys.readouterr()

    def test_adversarial_down(self, md_identity_file, capsys):
        code = main(
            ["apreduce-zt", md_identity_file, "--epsilon", "1/4",
             "--oracle", "adversarial", "--direction", "down"]
        )
        assert code == 0
        capsys.readouterr()

    def test_declared_zero(self, tmp_path, capsys):
        zero = {"labels": ["0", "1"], "rows": [["0", "0"], ["0", "0"]]}
        eye = {"labels": ["0", "1"], "rows": [["1", "0"], ["0", "1"]]}
        path = tmp_path / "md0.json"
        jsonio.write_json(path, {"matrices": [zero, eye]})
        assert main(["apreduce-zt", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "D = 0"


class TestExitCodes:
    def test_parse_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["zt", str(bad)]) == 2
        capsys.readouterr()

    def test_missing_file(self, capsys):
        assert main(["zt", "/nonexistent/x.json"]) == 2
        capsys.readouterr()

    def test_input_contract_error(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        jsonio.write_json(path, {"labels": ["a", "b"], "rows": [["0", "1"], ["1", "0"]]})
        assert main(["znorm", str(path)]) == 2
        capsys.readouterr()

    def test_weights_object_rejected(self, tmp_path, capsys):
        # Read as an array, the object's keys 3 and 4 would give det = 20.
        path = tmp_path / "m.json"
        path.write_text('{"rows":[[1,0],[0,1]],"weights":{"3":100,"4":100}}')
        assert main(["znorm", str(path)]) == 2
        assert "weights" in capsys.readouterr().err

    def test_unhashable_labels_rejected(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text('{"labels":[[1],[2]],"rows":[[1,0],[0,1]]}')
        assert main(["znorm", str(path)]) == 2
        assert "labels" in capsys.readouterr().err

    @pytest.mark.parametrize("command,flag", [
        (command, f"--max-{size}") for command in COMMANDS for size in ("edges", "vertices")
    ])
    def test_unread_cap_flags_refused(self, command, flag, md_identity_file, capsys):
        # The size caps have no flags: DEFAULT_FAMILY_CAP is the one
        # enumeration cap, so either old flag is a parse error everywhere.
        argv = [command] + ([md_identity_file] if command != "verify" else [])
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "30"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("command,text,field", [
        ("znorm", '{"rows": 5}', "rows"),
        ("znorm", '{"rows": [1, 2]}', "rows"),
        ("count-trees",
         '{"vertices": ["1", "2"], "edges": [["a", "1", "2"]], "weights": ["2"]}',
         "weights"),
        ("count-trees", '{"vertices": ["1"], "edges": 5}', "edges"),
        ("count-pm", '{"left": ["u"], "right": ["w"], "edges": 5}', "edges"),
        ("mixed-disc", '{"matrices": 5}', "matrices"),
        # Mixed label types cannot be sorted when the trees are enumerated.
        ("zt", '{"graph": {"vertices": ["1", "2", "3"], "edges": [[1, "1", "2"], '
               '["b", "2", "3"]]}, "matrix": {"labels": [1, "b"], '
               '"rows": [[1, 0], [0, 1]]}, "constraint": "tree"}', "labels"),
    ])
    def test_malformed_container_rejected(self, command, text, field, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        assert repr(field) in capsys.readouterr().err

    # Only "p" and "p/q" are rationals: decimals, underscores, spaces,
    # exponents and parts over MAX_LITERAL_DIGITS are refused before any
    # big-integer conversion.
    @pytest.mark.parametrize("literal", ["0.5", "1_000", " 3/4 ", "1e100000", "1e4000000",
                                         "1/" + "3" * (jsonio.MAX_LITERAL_DIGITS + 1)],
                             ids=["0.5", "1_000", " 3/4 ", "1e100000", "1e4000000",
                                  "over-long"])
    def test_bad_rational_literal_rejected(self, literal, tmp_path, capsys):
        path = tmp_path / "m.json"
        jsonio.write_json(path, {"rows": [[literal]]})
        assert main(["znorm", str(path)]) == 2
        assert "bad rational literal" in capsys.readouterr().err

    def test_bad_epsilon_literal(self, md_identity_file, capsys):
        assert main(["apreduce-zt", md_identity_file, "--epsilon", "1/0"]) == 2
        assert "1/0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["mixed-disc"], ["apreduce-zt"], ["apreduce-zf"],
        ["apreduce-zt", "--oracle", "noisy"], ["apreduce-zf", "--oracle", "noisy"],
    ], ids=["mixed-disc", "zt", "zf", "zt-noisy", "zf-noisy"])
    def test_empty_instance_gives_one(self, argv, tmp_path, capsys):
        # n = 0: no kernels and D = 1, the empty determinant.  An empty
        # gadget has one spanning tree and one forest, so the exact oracle
        # estimates 1 and the noisy one lands inside its window around 1.
        path = tmp_path / "md0.json"
        jsonio.write_json(path, {"matrices": []})
        out = tmp_path / "report.json"
        extra = [] if argv[0] == "mixed-disc" else ["--json", str(out)]
        assert main([argv[0], str(path), *argv[1:], *extra]) == 0
        printed = capsys.readouterr().out.strip()
        if extra:
            report = json.loads(out.read_text())
            assert report["reference"] == "1" and report["bounds_check"]["pass"]
            assert printed == report["estimate"]
        if "noisy" not in argv:
            assert printed == "1"

    def test_apreduce_minor_cap(self, tmp_path, capsys):
        eye = {"labels": [str(i) for i in range(5)],
               "rows": [[int(i == j) for j in range(5)] for i in range(5)]}
        path = tmp_path / "md5.json"
        jsonio.write_json(path, {"matrices": [eye] * 5})
        assert main(["apreduce-zf", str(path)]) == 3
        assert "gadget minor cap" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["znorm", "{matrix}", "--decimal", "-1"],
        ["znorm", "{matrix}", "--decimal", str(MAX_DECIMAL_DIGITS + 1)],
        ["apreduce-zt", "{md}", "--decimal", "-3"],
        ["sample", "{bundle}", "--count", "-1"],
    ], ids=["decimal-negative", "decimal-over-bound", "apreduce-decimal", "count-negative"])
    def test_bad_count_refused_before_output(self, argv, tmp_path, md_identity_file,
                                             triangle_bundle, capsys):
        matrix = tmp_path / "m.json"
        jsonio.write_json(matrix, {"labels": ["a"], "rows": [["1/3"]]})
        paths = {"matrix": str(matrix), "md": md_identity_file, "bundle": triangle_bundle}
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**paths) for arg in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert argv[-2] in captured.err

    @pytest.mark.parametrize("digits", [0, 5000, MAX_DECIMAL_DIGITS])
    def test_every_accepted_decimal_renders(self, digits, tmp_path, capsys):
        # 5000 digits is past the interpreter's 4,300-digit int-to-str limit.
        path = tmp_path / "m.json"
        jsonio.write_json(path, {"labels": ["a"], "rows": [["1/3"]]})
        assert main(["znorm", str(path), "--decimal", str(digits)]) == 0
        exact, rendered = capsys.readouterr().out.splitlines()
        assert exact == "4/3"
        assert rendered == ("1." + "3" * digits if digits else "1")

    def test_zero_count_draws_nothing(self, triangle_bundle, capsys):
        assert main(["sample", triangle_bundle, "--count", "0"]) == 0
        assert capsys.readouterr().out == ""

    def test_report_past_the_digit_limit_is_written(self, tmp_path, capsys):
        # The noisy forest-route report on this n = 3 instance holds an
        # oracle value of more than 4,300 decimal digits.
        md = tmp_path / "md3.json"
        jsonio.write_json(md, jsonio.dump_md_instance(random_md_instance(random.Random(0), 3)))
        out = tmp_path / "report.json"
        assert main(["apreduce-zf", str(md), "--oracle", "noisy", "--seed", "5",
                     "--json", str(out)]) == 0
        report = json.loads(out.read_text())
        assert len(report["oracle_value"]) > 4300
        assert capsys.readouterr().out.strip() == report["estimate"]

    @pytest.mark.parametrize("command", ["zt", "sample"])
    def test_family_cap_counts_trees(self, command, tmp_path, monkeypatch, capsys):
        # K12 has 12 vertices and 12^10 = 61,917,364,224 spanning trees.
        path = write_bundle(tmp_path / "k12.json", complete_graph(12))

        def forbidden(self, positions):
            raise AssertionError("a minor was evaluated")

        monkeypatch.setattr(SymMatrix, "minor_det", forbidden)
        assert main([command, path]) == 3
        assert "61917364224 spanning trees" in capsys.readouterr().err

    def test_gadget_bundle_passes_zt(self, tmp_path, capsys):
        # The n = 3 gadget: 13 vertices and 1,728 spanning trees.
        gadget = build_md_gadget(build_partition_instance(
            random_md_instance(random.Random(0), 3)))
        assert gadget.graph.num_vertices == 13
        path = write_bundle(tmp_path / "gadget.json", gadget.graph, matrix=gadget.kernel)
        assert main(["zt", path]) == 0
        assert capsys.readouterr().out.strip() == format_rational(gadget_z_exact(gadget, "tree"))

    def test_cap_exceeded(self, tmp_path, capsys):
        left = [f"u{i}" for i in range(11)]
        right = [f"w{i}" for i in range(11)]
        path = tmp_path / "big.json"
        jsonio.write_json(
            path,
            {"left": left, "right": right, "edges": [[u, w] for u, w in zip(left, right)]},
        )
        assert main(["count-pm", str(path)]) == 3
        capsys.readouterr()


def test_parser_built_once():
    assert _build_parser() is _build_parser()


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, capsys):
        assert main(["verify", "--seed", "42"]) == 0
        first = capsys.readouterr().out
        assert "properties passed" in first
        assert "FAIL" not in first
        assert main(["verify", "--seed", "42"]) == 0
        assert capsys.readouterr().out == first

    def test_crashing_check_is_a_fail_line(self, monkeypatch, capsys):
        def crashes(rng):
            raise ValueError("bad weights")

        def passes(rng):
            pass

        monkeypatch.setattr(verify, "ALL_CHECKS", [("crashes", crashes), ("passes", passes)])
        assert main(["verify", "--seed", "0"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["FAIL crashes: ValueError: bad weights", "PASS passes",
                       "1/2 properties passed"]


# One valid input per file format, with the commands that read it.
FIXTURES = (
    ({
        "graph": {"vertices": ["1", "2", "3"],
                  "edges": [["a", "1", "2"], ["b", "2", "3"], ["c", "1", "3"]]},
        "matrix": {"labels": ["a", "b", "c"],
                   "rows": [["2", "1", "0"], ["1", "2", "0"], ["0", "0", "1"]]},
        "weights": ["1", "1/2", "3"],
        "constraint": "tree",
        "parts": None,
    }, ("zt", "zf", "sample", "reduce-zt-zf")),
    ({"labels": ["a", "b"], "rows": [["1", "0"], ["0", "2"]], "weights": ["1", "2"]},
     ("znorm",)),
    ({"vertices": [1, 2, 3], "edges": [["a", 1, 2], ["b", 2, 3]], "weights": {"a": "2"}},
     ("count-trees",)),
    ({"left": ["u1", "u2"], "right": ["w1", "w2"],
      "edges": [["u1", "w1"], ["u1", "w2"], ["u2", "w2"]]},
     ("count-pm", "reduce-pm-zt")),
    ({"matrices": [{"labels": ["0", "1"], "rows": [["1", "0"], ["0", "1"]]},
                   {"labels": ["0", "1"], "rows": [["1", "1"], ["1", "1"]]}]},
     ("mixed-disc", "apreduce-zt", "apreduce-zf")),
)
FILE_COMMANDS = tuple(c for _, commands in FIXTURES for c in commands)
FIELDS = ("rows", "labels", "weights", "vertices", "edges", "left", "right",
          "matrices", "matrix", "graph", "constraint", "parts")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10**6) | st.floats(allow_nan=False)
    | st.sampled_from(["0", "1", "-1", "1/2", "1/0", "0.5", "1e4000000", "a", "tree",
                       "partition"])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(FIELDS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=10,
)


def _paths(value, prefix=()):
    """Every path (a tuple of keys and indices) into a JSON value."""
    yield prefix
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_fixtures(draw):
    """A command and a valid input of its format with one value replaced or
    removed."""
    doc, commands = draw(st.sampled_from(FIXTURES))
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(json_values)
    return draw(st.sampled_from(commands)), doc


class TestFuzz:
    """Any JSON file gives exit 0, 2 or 3 on every command that reads one:
    an answer, an input error or a cap, never a traceback."""

    @staticmethod
    def run(tmp_path_factory, command, doc):
        path = tmp_path_factory.getbasetemp() / "fuzz-input.json"
        path.write_text(json.dumps(doc))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main([command, str(path)])
        assert code in (0, 2, 3), (command, doc, err.getvalue())
        return code

    @settings(database=None, deadline=None, max_examples=150)
    @given(command=st.sampled_from(FILE_COMMANDS), doc=json_values)
    def test_arbitrary_json(self, tmp_path_factory, command, doc):
        self.run(tmp_path_factory, command, doc)

    @settings(database=None, deadline=None, max_examples=300)
    @given(case=mutated_fixtures())
    def test_mutated_fixtures(self, tmp_path_factory, case):
        self.run(tmp_path_factory, *case)

    def test_fixtures_are_valid(self, tmp_path_factory):
        for doc, commands in FIXTURES:
            for command in commands:
                assert self.run(tmp_path_factory, command, doc) == 0, command
