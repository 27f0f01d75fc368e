import csv
import hashlib
import json
import math
import os
import random
import shlex
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import pytest

from pufferot import AttributeMapping, NumericError, cli, load_table

DATA = Path(__file__).parent / "data"
GOLDEN_TABLES = DATA / "tables_golden.json"
README = Path(__file__).parent.parent / "README.md"


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

    def test_matches_checked_in_golden_bytes(self, tmp_path):
        assert cli.main(["figure4", "--out", str(tmp_path)]) == 0
        for name in ("theorem1.csv", "theorem2.csv"):
            assert (tmp_path / name).read_bytes() == (DATA / f"figure4_{name}").read_bytes()

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

    @pytest.mark.parametrize(
        ("text", "mapped", "message"),
        [
            ("id,v\n1,2\n2,abc\n3\n", False, "row 3 column 'v' is not numeric: 'abc'"),
            ("id,v\n1,2\n2,3\n3,x1\n4,y\n", False, "row 4 column 'v' is not numeric: 'x1'"),
            ("id,v\n1\n2,abc\n3,4\n", False, "row 2 is too short"),
            ("id,v\n1,2\n\n3,4\n", False, "row 3 is too short"),
            ("id,v\n1,red\n2,teal\n3\n", True, "label 'teal' is not in the attribute mapping"),
            ("id,v\n1\n2,teal\n", True, "row 2 is too short"),
        ],
    )
    def test_first_failing_row_is_reported(self, tmp_path, capsys, text, mapped, message):
        table = tmp_path / "t.csv"
        table.write_text(text, encoding="utf-8")
        extra = ["--mapping", write_json(["red", "blue"], tmp_path / "m.json")] if mapped else []
        code = cli.main([
            "release", "--table", str(table), "--data-col", "v", "--theta", "1.0",
            "--out", str(tmp_path / "out.csv"), *extra,
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"].endswith(message)

    def test_unmapped_label_names_the_table_and_row(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text("id,v\n1,red\n2,teal\n", encoding="utf-8")
        code = cli.main([
            "release", "--table", str(table), "--data-col", "v", "--theta", "1.0",
            "--mapping", write_json(["red", "blue"], tmp_path / "m.json"),
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["message"] == (
            f"{table}: row 3 column 'v': label 'teal' is not in the attribute mapping"
        )

    @pytest.mark.parametrize("command", ["calibrate", "release"])
    @pytest.mark.parametrize(
        ("header", "times"),
        [
            pytest.param("color,secret,color", 2, id="duplicate-name"),
            pytest.param("color,secret, color", 2, id="duplicate-stripped"),
            pytest.param(" color,secret,color, color", 3, id="duplicate-mixed"),
        ],
    )
    def test_duplicated_column_rejected(self, tmp_path, capsys, command, header, times):
        table = tmp_path / "t.csv"
        table.write_text(f"{header}\nred,A,blue,red\ngreen,B,red\n", encoding="utf-8")
        mapping = write_json(["red", "green", "blue"], tmp_path / "m.json")
        out = tmp_path / "out"
        extra = {"calibrate": ["--secret-col", "secret", "--epsilon", "1.0"],
                 "release": ["--theta", "1.0"]}[command]
        code = cli.main([
            command, "--table", str(table), "--data-col", "color", "--mapping", mapping,
            "--out", str(out), *extra,
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        assert f"column 'color' named {times} times in header" in error["message"]
        assert not out.exists()

    def test_unnamed_column_rejected(self, tmp_path, capsys):
        table = tmp_path / "t.csv"
        table.write_text(",v\n1,2\n", encoding="utf-8")
        code = cli.main([
            "release", "--table", str(table), "--data-col", "", "--theta", "1.0",
            "--out", str(tmp_path / "out.csv"),
        ])
        assert code == 2
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        assert message.endswith("an unnamed column cannot be released")

    def test_fifo_table_releases_the_file_bytes(self, tmp_path):
        text = 'id,note,v\n1,"a, b",3\n2, c ,7\n' + "".join(
            f"{k},n{k},{k % 9}\n" for k in range(3, 3 * cli._BLOCK_ROWS))
        table = tmp_path / "t.csv"
        table.write_text(text, encoding="utf-8")
        fifo = tmp_path / "t.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_text, args=(text,),
                                  kwargs={"encoding": "utf-8"}, daemon=True)
        writer.start()
        try:
            from_fifo = self.release_to(tmp_path / "from_fifo.csv", fifo)
        finally:
            writer.join(timeout=30)
        assert not writer.is_alive()
        from_file = self.release_to(tmp_path / "from_file.csv", table)
        assert from_fifo.read_bytes() == from_file.read_bytes()

    @staticmethod
    def release_to(out, table):
        assert cli.main([
            "release", "--table", str(table), "--data-col", "v", "--theta", "2.5",
            "--seed", "5", "--out", str(out),
        ]) == 0
        return out

    def test_table_is_opened_once(self, tmp_path, monkeypatch):
        table = tmp_path / "t.csv"
        table.write_text("id,v\n" + "".join(f"{k},{k}\n" for k in range(2 * cli._BLOCK_ROWS + 1)),
                         encoding="utf-8")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(str(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(cli, "open", counting_open, raising=False)
        self.release_to(tmp_path / "out.csv", table)
        assert opened.count(str(table)) == 1

    @pytest.mark.parametrize(
        ("cell", "message"),
        [
            ("abc", "column 'v' is not numeric: 'abc'"),
            (None, "is too short"),
            ("nan", "column 'v' is not finite: 'nan'"),
            (" -Infinity ", "column 'v' is not finite: '-Infinity'"),
        ],
    )
    def test_bad_row_in_a_later_block_leaves_earlier_output(self, tmp_path, capsys, cell,
                                                            message):
        bad = cli._BLOCK_ROWS + 5  # the header is row 1, so this row is in the second block
        rows = [f"{k},{k % 7}" for k in range(2, 2 * cli._BLOCK_ROWS)]
        rows[bad - 2] = f"{bad}" if cell is None else f"{bad},{cell}"
        table = tmp_path / "t.csv"
        table.write_text("id,v\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        out.write_text("earlier release\n", encoding="utf-8")
        code = cli.main([
            "release", "--table", str(table), "--data-col", "v", "--theta", "1.0",
            "--out", str(out),
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == f"{table}: row {bad} {message}"
        assert out.read_text(encoding="utf-8") == "earlier release\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv", "t.csv"]

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_cell_rejected(self, tmp_path, capsys, cell):
        table = tmp_path / "t.csv"
        table.write_text(f"id,v\n1,2\n2,{cell}\n3,4\n", encoding="utf-8")
        out = tmp_path / "sub" / "deeper" / "out.csv"
        code = cli.main([
            "release", "--table", str(table), "--data-col", "v", "--theta", "1.0",
            "--out", str(out),
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == f"{table}: row 3 column 'v' is not finite: {cell!r}"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]

    def test_out_may_name_the_table(self, tmp_path):
        table = tmp_path / "t.csv"
        text = 'id,note,v\n1,"a, b",3\n2, c ,7\n'
        table.write_text(text, encoding="utf-8")
        copy = tmp_path / "copy.csv"
        copy.write_text(text, encoding="utf-8")
        for src, out in ((copy, tmp_path / "released.csv"), (table, table)):
            assert cli.main([
                "release", "--table", str(src), "--data-col", "v", "--theta", "2.5",
                "--out", str(out),
            ]) == 0
        assert table.read_bytes() == (tmp_path / "released.csv").read_bytes()
        assert table.read_text(encoding="utf-8").splitlines()[1].startswith('1,"a, b",')
        assert sorted(p.name for p in tmp_path.iterdir()) == ["copy.csv", "released.csv", "t.csv"]


class TestLazyImports:
    @staticmethod
    def fresh_python(code: str) -> str:
        """The output of ``code`` in a new interpreter, which has imported nothing yet."""
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True).stdout

    def test_cli_leaves_verify_and_scenarios_unloaded(self):
        out = self.fresh_python(
            "import sys, pufferot.cli, pufferot\n"
            "loaded = sorted(m for m in ('pufferot.verify', 'pufferot.scenarios') if m in sys.modules)\n"
            "missing = [n for n in pufferot.__all__ if getattr(pufferot, n, None) is None]\n"
            "print(loaded, missing, len(pufferot.__all__))\n"
        )
        assert out.split("\n")[0] == "[] [] 39"

    def test_modules_are_attributes_of_the_package(self):
        out = self.fresh_python(
            "import pufferot\nprint(pufferot.verify.__name__, pufferot.tabular.__name__)\n"
        )
        assert out == "pufferot.verify pufferot.tabular\n"

    def test_unknown_name_is_an_attribute_error(self):
        import pufferot

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            pufferot.no_such_name


def write_census_table(tmp_path, rows=2000, seed=5):
    """A seeded census-like CSV with quoted cells, padded labels and a quoted newline.

    Drawn with ``random.Random``, whose ``random()`` stream is fixed across
    Python versions, so the table's bytes never change.
    """
    rng = random.Random(seed)
    secrets = ["north", '"south, coast"', "  east", "west  ", '"mid\nlands"', "isles"]
    labels = [f"edu-{k:02d}" for k in range(12)]
    lines = ["id, group ,education,note"]
    for i in range(rows):
        secret = secrets[int(rng.random() ** 1.5 * len(secrets))]
        # skew each secret's labels differently so that plans move mass
        shift = secrets.index(secret) * 2
        label = labels[(int(rng.random() * 7) + shift) % len(labels)]
        pad = " " * int(rng.random() * 3)
        note = '"a, b"' if rng.random() < 0.1 else f"n{i % 13}"
        lines.append(f"{i},{secret},{pad}{label}{pad},{note}")
    table = tmp_path / "census.csv"
    table.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(table), write_json(labels, tmp_path / "labels.json")


class TestCensusArtefacts:
    # sha256 of the calibration report and the released table: any change
    # to these bytes changes what a curator publishes. The released digest
    # also depends on numpy's seeded Laplace stream.
    REPORT_SHA256 = "317b283f83b376ea16fa3d1765add9b923ea9d1d91bc0025b8fd9d741e69ce39"
    RELEASED_SHA256 = "1310744b463b6b5697c5d553333d4882e999d67519dab1286a3cf862f8e6ad0b"

    def test_calibrate_and_release_bytes(self, tmp_path):
        table, mapping = write_census_table(tmp_path)
        report, released = tmp_path / "report.json", tmp_path / "released.csv"
        assert cli.main([
            "calibrate", "--table", table, "--secret-col", "group",
            "--data-col", "education", "--mapping", mapping,
            "--epsilon", "1.0", "--method", "theorem1", "--out", str(report),
        ]) == 0
        theta = read_json(report)["theta"]
        assert cli.main([
            "release", "--table", table, "--data-col", "education",
            "--mapping", mapping, "--theta", repr(theta), "--seed", "3",
            "--out", str(released),
        ]) == 0
        assert hashlib.sha256(report.read_bytes()).hexdigest() == self.REPORT_SHA256
        assert hashlib.sha256(released.read_bytes()).hexdigest() == self.RELEASED_SHA256


class TestBoundedMemory:
    """Peak traced memory of the census publish path, per row of a 50 000-row table.

    Neither ``release`` nor ``load_table`` keeps a row: their peaks are a few
    float arrays (``release``) or one integer code (``load_table``) per row.
    """

    ROWS = 50_000

    @pytest.fixture(scope="class")
    def wide_table(self, tmp_path_factory):
        """40 secrets and 100 labels, so most tally codes are beyond the small-int cache."""
        tmp_path = tmp_path_factory.mktemp("wide")
        rng = random.Random(17)
        labels = [f"edu-{k:03d}" for k in range(100)]
        lines = ["id,group,education,note"]
        for i in range(self.ROWS):
            lines.append(f"{i},g{int(rng.random() * 40)},{labels[int(rng.random() * 100)]},n{i % 7}")
        table = tmp_path / "wide.csv"
        table.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(table), write_json(labels, tmp_path / "labels.json")

    def traced_peak_per_row(self, fn) -> float:
        fn()  # one run first, so one-time imports and caches are not counted
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1] / self.ROWS
        finally:
            tracemalloc.stop()

    def test_release(self, wide_table, tmp_path):
        table, mapping = wide_table
        argv = ["release", "--table", table, "--data-col", "education", "--mapping", mapping,
                "--theta", "2.0", "--out", str(tmp_path / "released.csv")]

        def release():
            assert cli.main(argv) == 0

        assert self.traced_peak_per_row(release) <= 40

    def test_load_table(self, wide_table):
        table, mapping = wide_table
        labels = AttributeMapping.from_json_file(mapping)
        assert self.traced_peak_per_row(
            lambda: load_table(table, "group", "education", labels)) <= 20


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

    @pytest.mark.parametrize("command", ["calibrate", "release"])
    def test_oversized_csv_field_is_a_validation_error(self, tmp_path, capsys, command):
        # a cell longer than csv.field_size_limit() makes the csv reader raise csv.Error
        table = tmp_path / "t.csv"
        table.write_text(
            "secret,color\nA,red\nB,blue\nB," + "x" * 200_000 + "\n", encoding="utf-8"
        )
        mapping = write_json(["red", "green", "blue"], tmp_path / "m.json")
        out = tmp_path / "out"
        extra = {"calibrate": ["--secret-col", "secret", "--epsilon", "1.0"],
                 "release": ["--theta", "1.0"]}[command]
        code = cli.main([
            command, "--table", str(table), "--data-col", "color", "--mapping", mapping,
            "--out", str(out), *extra,
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert f"field larger than field limit ({csv.field_size_limit()})" in error["message"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith(f"{table}: line 4: ")
        assert not out.exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["m.json", "t.csv"]

    @pytest.mark.parametrize("command", ["calibrate", "release"])
    @pytest.mark.parametrize("delimiter", ["ab", ""])
    def test_delimiter_must_be_one_character(self, tmp_path, capsys, command, delimiter):
        # the table does not exist: the delimiter is rejected before it is opened
        table = tmp_path / "missing.csv"
        mapping = write_json(["red", "blue"], tmp_path / "m.json")
        out = tmp_path / "out"
        extra = {"calibrate": ["--secret-col", "secret", "--epsilon", "1.0"],
                 "release": ["--theta", "1.0"]}[command]
        code = cli.main([
            command, "--table", str(table), "--data-col", "color", "--mapping", mapping,
            "--delimiter", delimiter, "--out", str(out), *extra,
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        assert f"--delimiter must be one character, got {delimiter!r}" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("flags,message", [
        (["--theta", "-1"], "theta must be finite and >= 0, got -1.0"),
        (["--theta", "nan"], "theta must be finite and >= 0, got nan"),
        (["--theta", "1.0", "--seed", "-1"], "--seed must be >= 0, got -1"),
    ])
    def test_release_flags_checked_before_the_table_is_read(
        self, tmp_path, capsys, flags, message
    ):
        # the second row is too short: reading the table would report it instead
        table = tmp_path / "t.csv"
        table.write_text("secret,v\nA,1\nB\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        code = cli.main(["release", "--table", str(table), "--data-col", "v", *flags,
                         "--out", str(out)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == message
        assert not out.exists()

    @pytest.mark.parametrize("method,epsilon,message", [
        ("theorem1", "1e-160", "laplace noise variance overflows"),
        ("gaussian-b", "1e-300", "gaussian noise variance overflows"),
        ("theorem2", "1e-16", "within the rounding bound"),
    ])
    def test_unrepresentable_calibration_exits_three(
        self, tmp_path, capsys, pairs_file, method, epsilon, message
    ):
        out = tmp_path / "report.json"
        delta = ["--delta", "1e-5"] if method.startswith("gaussian") else []
        code = cli.main(["calibrate", "--pairs", pairs_file, "--method", method,
                         "--epsilon", epsilon, *delta, "--out", str(out)])
        assert code == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "NumericError"
        assert message in error["message"]
        assert not out.exists()

    def test_argparse_usage_error(self):
        assert cli.main(["plan"]) == 2

    @pytest.mark.parametrize("case", [
        "plan-p-scalar", "conditionals-list", "pairs-scalar", "pairs-of-scalars",
        "priors-scalar", "priors-flat", "query-of-scalars", "V-list", "support-object",
        "mass-object", "query-output-list",
    ])
    def test_malformed_json_shape_is_a_validation_error(self, tmp_path, capsys, case):
        dist = {"support": [1, 2], "mass": [0.5, 0.5]}
        conditionals = {"a": dist, "b": dist}
        payload, argv = {
            "plan-p-scalar": (5, ["plan", "--q", write_json(dist, tmp_path / "q.json"), "--p"]),
            "conditionals-list": ({"conditionals": [1, 2]}, ["calibrate", "--pairs"]),
            "pairs-scalar": ({"conditionals": conditionals, "pairs": 5}, ["calibrate", "--pairs"]),
            "pairs-of-scalars": ({"conditionals": conditionals, "pairs": [5]},
                                 ["calibrate", "--pairs"]),
            "priors-scalar": ({"priors": 5}, ["scenario", "--scenario"]),
            "priors-flat": ({"priors": [0.5, 0.5]}, ["scenario", "--scenario"]),
            "query-of-scalars": ({"priors": [[0.5, 0.5]], "query": [5]},
                                 ["scenario", "--scenario"]),
            "V-list": ({"V": [1], "priors": [[0.5, 0.5]]}, ["scenario", "--scenario"]),
            "query-output-list": ({"priors": [[0.5, 0.5]], "query": [[1, [2]]]},
                                  ["scenario", "--scenario"]),
            "support-object": ({"support": {"a": 1}, "mass": [1]},
                               ["plan", "--q", write_json(dist, tmp_path / "q.json"), "--p"]),
            "mass-object": ({"support": [1], "mass": {"a": 1}},
                            ["plan", "--q", write_json(dist, tmp_path / "q.json"), "--p"]),
        }[case]
        if argv[0] == "calibrate":
            argv = [*argv[:1], "--epsilon", "1.0", *argv[1:]]
        out = tmp_path / "out.json"
        code = cli.main([*argv, write_json(payload, tmp_path / "in.json"), "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "ValidationError"
        assert not out.exists()

    def test_removed_flags_are_usage_errors(self, tmp_path, pairs_file):
        out = str(tmp_path / "out")
        assert cli.main(["calibrate", "--pairs", pairs_file, "--epsilon", "1.0",
                         "--seed", "3", "--out", out]) == 2
        assert cli.main(["plan", "--p", "p.json", "--q", "q.json", "--metric", "l1",
                         "--out", out]) == 2
        assert cli.main(["figure4", "--epsilon-step", "1", "--out", out]) == 2
        assert not os.path.exists(out)

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


def readme_commands():
    """The ``pufferot ...`` lines of README's "Command line" block, continuations joined."""
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines if line.startswith("pufferot ")]


class TestReadmeCommands:
    def test_block_lists_every_command(self):
        assert {argv[1] for argv in readme_commands()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
    def test_readme_command_parses(self, argv):
        assert argv[0] == "pufferot"
        cli.build_parser().parse_args(argv[1:])
