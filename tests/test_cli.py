import json

import pytest

from treedpp import jsonio
from treedpp.cli import main


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
        ("apreduce-zt", "--max-edges"), ("apreduce-zf", "--max-vertices"),
        ("znorm", "--max-vertices"), ("zt", "--max-edges"), ("zf", "--max-vertices"),
    ])
    def test_unread_cap_flags_refused(self, command, flag, md_identity_file, capsys):
        # A command offers only the caps it reads; any other is a parse error.
        with pytest.raises(SystemExit) as exc:
            main([command, md_identity_file, flag, "30"])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_apreduce_minor_cap(self, tmp_path, capsys):
        eye = {"labels": [str(i) for i in range(5)],
               "rows": [[int(i == j) for j in range(5)] for i in range(5)]}
        path = tmp_path / "md5.json"
        jsonio.write_json(path, {"matrices": [eye] * 5})
        assert main(["apreduce-zf", str(path)]) == 3
        assert "gadget minor cap" in capsys.readouterr().err

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


class TestVerifyCommand:
    def test_passes_and_is_deterministic(self, capsys):
        assert main(["verify", "--seed", "42", "--n", "2"]) == 0
        first = capsys.readouterr().out
        assert "properties passed" in first
        assert "FAIL" not in first
        assert main(["verify", "--seed", "42", "--n", "2"]) == 0
        assert capsys.readouterr().out == first
