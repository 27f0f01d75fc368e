import csv
import json
import math
from pathlib import Path

import pytest

from pufferot import NumericError, cli

GOLDEN_TABLES = Path(__file__).parent / "data" / "tables_golden.json"


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(payload, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    return str(path)


@pytest.fixture
def pairs_file(tmp_path):
    payload = {
        "prior": "worked-examples",
        "conditionals": {
            "ex2-a": {"support": [1, 2, 3, 4, 5], "mass": [0.2, 0.225, 0.5, 0.075, 0.0]},
            "ex2-b": {"support": [1, 2, 3, 4, 5], "mass": [0.0, 0.075, 0.5, 0.225, 0.2]},
        },
        "pairs": [["ex2-a", "ex2-b"]],
    }
    return write_json(payload, tmp_path / "pairs.json")


class TestTables:
    def test_matches_checked_in_golden_bytes(self, tmp_path):
        out = tmp_path / "tables.json"
        assert cli.main(["tables", "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_TABLES.read_bytes()

    def test_plan_values_match_exact_fractions(self, tmp_path):
        out = tmp_path / "tables.json"
        cli.main(["tables", "--out", str(out)])
        payload = read_json(out)
        plan = {(i, j): m for i, j, m in payload["example_1"]["plan"]["entries"]}
        assert math.isclose(plan[(0, 1)], 1 / 12, abs_tol=1e-12)
        assert payload["example_1"]["sensitivity"] == 1.0
        assert payload["example_2"]["sensitivity"] == 2.0


class TestPlan:
    def test_writes_plan_with_sensitivity_and_cost(self, tmp_path):
        p = write_json({"support": [1, 2, 3, 4], "mass": [1 / 3, 1 / 6, 1 / 3, 1 / 6]},
                       tmp_path / "p.json")
        q = write_json({"support": [1, 2, 3, 4], "mass": [0.25, 0.25, 1 / 6, 1 / 3]},
                       tmp_path / "q.json")
        out = tmp_path / "plan.json"
        assert cli.main(["plan", "--p", p, "--q", q, "--out", str(out)]) == 0
        payload = read_json(out)
        assert payload["sensitivity"] == 1.0
        assert math.isclose(payload["w1_cost"], 0.25, abs_tol=1e-12)
        assert len(payload["entries"]) == 6


class TestCalibrate:
    def test_strict_method(self, pairs_file, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main([
            "calibrate", "--pairs", pairs_file, "--epsilon", "1.0",
            "--method", "theorem1", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["theta"] == 2.0
        assert payload["variance"] == 8.0
        assert payload["method"] == "theorem-1"
        assert payload["pairs"][0]["prior"] == "worked-examples"

    def test_relaxed_method(self, pairs_file, tmp_path):
        out = tmp_path / "report.json"
        cli.main([
            "calibrate", "--pairs", pairs_file, "--epsilon", "1.0",
            "--method", "theorem2", "--out", str(out),
        ])
        payload = read_json(out)
        assert payload["theta"] <= 2.0
        assert payload["method"] == "theorem-2"

    def test_gaussian_method_requires_delta(self, pairs_file, tmp_path, capsys):
        code = cli.main([
            "calibrate", "--pairs", pairs_file, "--epsilon", "1.0",
            "--method", "gaussian-a", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("method", ["theorem1", "theorem2"])
    @pytest.mark.parametrize("epsilon", ["nan", "inf", "-inf"])
    def test_non_finite_epsilon_is_a_validation_error(
        self, pairs_file, tmp_path, capsys, epsilon, method
    ):
        code = cli.main([
            "calibrate", "--pairs", pairs_file, f"--epsilon={epsilon}",
            "--method", method, "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"]["type"] == "ValidationError"
        assert not (tmp_path / "r.json").exists()

    def test_table_ingestion_path(self, tmp_path):
        table = tmp_path / "survey.csv"
        table.write_text(
            "race,education\n"
            + "A,red\n" * 3 + "A,blue\n"
            + "B,red\n" + "B,blue\n" * 3,
            encoding="utf-8",
        )
        mapping = write_json(["red", "green", "blue"], tmp_path / "mapping.json")
        out = tmp_path / "report.json"
        code = cli.main([
            "calibrate", "--table", str(table), "--secret-col", "race",
            "--data-col", "education", "--mapping", mapping,
            "--epsilon", "1.0", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["pairs"][0]["labels"] == ["A", "B"]
        assert payload["pairs"][0]["prior"] == "survey"
        assert payload["theta"] == 2.0  # mass moves between indices 1 and 3

    def test_pairs_and_table_are_exclusive(self, pairs_file, tmp_path):
        code = cli.main([
            "calibrate", "--pairs", pairs_file, "--table", "x.csv",
            "--epsilon", "1.0", "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2

    def test_table_requires_ingestion_flags(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("a,b\n1,red\n", encoding="utf-8")
        code = cli.main([
            "calibrate", "--table", str(table), "--epsilon", "1.0",
            "--out", str(tmp_path / "r.json"),
        ])
        assert code == 2


class TestFigure4:
    def test_default_grid_endpoints(self, tmp_path):
        outdir = tmp_path / "fig4"
        assert cli.main(["figure4", "--out", str(outdir)]) == 0
        strict = (outdir / "theorem1.csv").read_text().splitlines()
        relaxed = (outdir / "theorem2.csv").read_text().splitlines()
        assert strict[0] == relaxed[0] == "epsilon,variance"
        assert len(strict) == len(relaxed) == 12
        eps, var = map(float, strict[1].split(","))
        assert (eps, var) == (0.8, 12.5)
        eps, var = map(float, relaxed[1].split(","))
        assert eps == 0.8
        assert math.isclose(var, 3.125, rel_tol=1e-3)

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["figure4", "--out", str(a)])
        cli.main(["figure4", "--out", str(b)])
        for name in ("theorem1.csv", "theorem2.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestRelease:
    def write_table(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("id,education\n1,3\n2,7\n3,1\n", encoding="utf-8")
        return str(path)

    def test_noiseless_release_preserves_values(self, tmp_path):
        table = self.write_table(tmp_path)
        out = tmp_path / "released.csv"
        code = cli.main([
            "release", "--table", table, "--data-col", "education",
            "--theta", "0", "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["education"]) for r in rows] == [3.0, 7.0, 1.0]
        assert [r["id"] for r in rows] == ["1", "2", "3"]

    def test_seeded_release_is_deterministic(self, tmp_path):
        table = self.write_table(tmp_path)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            cli.main([
                "release", "--table", table, "--data-col", "education",
                "--theta", "2.5", "--seed", "11", "--out", str(out),
            ])
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_mapped_release(self, tmp_path):
        table = tmp_path / "labels.csv"
        table.write_text("secret,color\nA,red\nB,blue\n", encoding="utf-8")
        mapping = write_json(["red", "green", "blue"], tmp_path / "mapping.json")
        out = tmp_path / "released.csv"
        code = cli.main([
            "release", "--table", str(table), "--data-col", "color",
            "--mapping", mapping, "--theta", "0", "--out", str(out),
        ])
        assert code == 0
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["color"]) for r in rows] == [1.0, 3.0]

    def test_non_numeric_cell_rejected(self, tmp_path):
        table = tmp_path / "bad.csv"
        table.write_text("id,education\n1,abc\n", encoding="utf-8")
        code = cli.main([
            "release", "--table", str(table), "--data-col", "education",
            "--theta", "1.0", "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2


class TestVerifyCommand:
    def test_log_ratio_report(self, pairs_file, tmp_path):
        out = tmp_path / "verify.json"
        code = cli.main([
            "verify", "--pairs", pairs_file, "--family", "laplace",
            "--theta", "2.0", "--epsilon", "1.0", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["kind"] == "log-ratio"
        assert payload["pass"] is True

    def test_delta_report(self, pairs_file, tmp_path):
        out = tmp_path / "verify.json"
        code = cli.main([
            "verify", "--pairs", pairs_file, "--family", "gaussian",
            "--theta", "10.0", "--epsilon", "1.0", "--delta", "1e-5",
            "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["kind"] == "delta-tail"
        assert "violation_mass" in payload["pairs"][0]


class TestScenarioCommand:
    def test_counting_scenario(self, tmp_path):
        scen = write_json({"V": 3, "priors": [[0.5, 0.5]] * 3, "query": "counting"},
                          tmp_path / "scen.json")
        out = tmp_path / "out.json"
        code = cli.main(["scenario", "--scenario", scen, "--user", "0",
                         "--mode", "values", "--out", str(out)])
        assert code == 0
        payload = read_json(out)
        assert payload["query_sensitivity"] == 1.0
        assert len(payload["pairs"]) == 1
        assert payload["pairs"][0]["labels"] == ["S0=0", "S0=1"]

    def test_absence_mode(self, tmp_path):
        scen = write_json({"priors": [[0.3, 0.7]] * 2, "query": "counting"},
                          tmp_path / "scen.json")
        out = tmp_path / "out.json"
        cli.main(["scenario", "--scenario", scen, "--user", "1",
                  "--mode", "absence", "--out", str(out)])
        payload = read_json(out)
        assert [p["labels"] for p in payload["pairs"]] == [
            ["S1=0", "S1=absent"], ["S1=1", "S1=absent"],
        ]

    def test_tabled_query(self, tmp_path):
        scen = write_json(
            {"priors": [[0.5, 0.25, 0.25]], "query": [[0, 3, 6]]},
            tmp_path / "scen.json",
        )
        out = tmp_path / "out.json"
        assert cli.main(["scenario", "--scenario", scen, "--out", str(out)]) == 0
        assert read_json(out)["query_sensitivity"] == 6.0

    def test_inconsistent_user_count(self, tmp_path):
        scen = write_json({"V": 5, "priors": [[0.5, 0.5]], "query": "counting"},
                          tmp_path / "scen.json")
        code = cli.main(["scenario", "--scenario", scen, "--out", str(tmp_path / "o.json")])
        assert code == 2


class TestExitDiscipline:
    def test_missing_input_file(self, tmp_path, capsys):
        code = cli.main(["plan", "--p", "missing.json", "--q", "missing.json",
                         "--out", str(tmp_path / "x.json")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert "error" in record

    def test_argparse_usage_error(self):
        assert cli.main(["plan"]) == 2

    def test_numeric_failure_maps_to_three(self, monkeypatch, tmp_path):
        def boom(config):
            raise NumericError("bracket lost")

        monkeypatch.setitem(cli._COMMANDS, "tables", boom)
        assert cli.main(["tables", "--out", str(tmp_path / "t.json")]) == 3

    def test_malformed_json_input(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = cli.main(["plan", "--p", str(bad), "--q", str(bad),
                         "--out", str(tmp_path / "x.json")])
        assert code == 2
