import argparse
import csv
import hashlib
import inspect
import json
import math
import os
import random
import shlex
import subprocess
import sys
import threading
import tracemalloc
import typing
import warnings
from pathlib import Path

import pytest

from pufferot import (
    AttributeMapping, MechanismSpec, NumericError, ValidationError, cli, load_table, tabular,
)
from pufferot.mechanisms import FAMILIES, METHODS

from oracles import dictreader_load_table, enumerated_conditional, stripping_release

DATA = Path(__file__).parent / "data"
GOLDEN_TABLES = DATA / "tables_golden.json"
GOLDEN_SCENARIO = DATA / "scenario_golden.json"
GOLDEN_PLAN = DATA / "plan_golden.json"
GOLDEN_VERIFY = DATA / "verify_golden.json"
GOLDEN_VERIFY_DELTA = DATA / "verify_delta_golden.json"
GOLDEN_VERIFY_GAUSSIAN = DATA / "verify_gaussian_golden.json"
GOLDEN_SCENARIO_COUNTING = DATA / "scenario_counting_golden.json"
GOLDEN_CALIBRATE = DATA / "calibrate_golden.json"
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

    def test_matches_checked_in_golden_bytes(self, tmp_path):
        # a seeded 100-atom pair with empty atoms and atoms at and under the
        # drop tolerance: every swept entry keeps its bits
        out = tmp_path / "plan.json"
        args = ["plan", "--p", str(DATA / "plan_p.json"), "--q", str(DATA / "plan_q.json")]
        assert cli.main([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_PLAN.read_bytes()

    @pytest.mark.parametrize(("p", "q"), [
        (([-1.7e308, 1.7e308], [0.5, 0.5]), ([-1.7e308, 1.7e308], [0.25, 0.75])),
        (([-1.7e308], [1.0]), ([1.7e308], [1.0])),
        (([1.7e308], [1.0]), ([-1.7e308], [1.0])),
    ])
    def test_distance_past_the_float_range_is_a_validation_error(self, tmp_path, capsys, p, q):
        # a RuntimeWarning is an error under this suite's settings, so none may be issued
        paths = [write_json({"support": s, "mass": m}, tmp_path / f"{name}.json")
                 for name, (s, m) in (("p", p), ("q", q))]
        out = tmp_path / "plan.json"
        assert cli.main(["plan", "--p", paths[0], "--q", paths[1], "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValidationError",
            "message": f"sensitivity overflows a float: the plan moves mass further than "
                       f"{sys.float_info.max!r}",
        }
        assert not out.exists()
        # the same supports with equal masses move no mass, so nothing overflows
        assert cli.main(["plan", "--p", paths[0], "--q", paths[0], "--out", str(out)]) == 0
        assert read_json(out)["sensitivity"] == read_json(out)["w1_cost"] == 0.0
        assert capsys.readouterr().err == ""


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

    def test_relaxed_report_matches_golden(self, tmp_path):
        # the 21 verify pairs, each with its plan sensitivity and its Theorem-2 root
        out = tmp_path / "report.json"
        code = cli.main([
            "calibrate", "--pairs", str(DATA / "verify_pairs.json"), "--epsilon", "1",
            "--method", "theorem2", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == GOLDEN_CALIBRATE.read_bytes()

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

    @pytest.mark.parametrize("method,delta", [("theorem1", []), ("gaussian-a", ["--delta", "1e-5"])])
    def test_report_keys(self, pairs_file, tmp_path, method, delta):
        out = tmp_path / "report.json"
        code = cli.main([
            "calibrate", "--pairs", pairs_file, "--epsilon", "1.0",
            "--method", method, *delta, "--out", str(out),
        ])
        assert code == 0
        assert set(read_json(out)) == {"method", "epsilon", "delta", "theta", "variance", "pairs"}

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
            f"{k},n{k},{k % 9}\n" for k in range(3, 3 * tabular._BLOCK_ROWS))
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
        table.write_text("id,v\n" + "".join(f"{k},{k}\n" for k in range(2 * tabular._BLOCK_ROWS + 1)),
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
        bad = tabular._BLOCK_ROWS + 5  # the header is row 1, so this row is in the second block
        rows = [f"{k},{k % 7}" for k in range(2, 2 * tabular._BLOCK_ROWS)]
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
    def fresh_python(code: str, **extra_env: str) -> str:
        """The output of ``code`` in a new interpreter, which has imported nothing yet.

        OPENBLAS_NUM_THREADS is left out of its environment unless given in
        ``extra_env``: this process has imported ``pufferot.cli``, which sets it.
        """
        src = str(Path(cli.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        env.pop("OPENBLAS_NUM_THREADS", None)
        env.update(extra_env)
        return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60, check=True).stdout

    # The thread count is printed only where it can be read and numpy loaded
    # OpenBLAS, whose worker threads are what the CLI's default avoids.
    OPENBLAS_STATE = (
        "import os, sys\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'), 'numpy' in sys.modules)\n"
        "maps = '/proc/self/maps'\n"
        "if os.path.exists(maps) and 'openblas' in open(maps).read().lower():\n"
        "    print(len(os.listdir('/proc/self/task')))\n"
    )

    def test_cli_starts_with_one_openblas_thread(self):
        out = self.fresh_python("import pufferot.cli\n" + self.OPENBLAS_STATE).split()
        assert out[:2] == ["1", "True"]
        assert out[2:] in ([], ["1"])

    def test_cli_keeps_a_preset_openblas_thread_count(self):
        out = self.fresh_python("import pufferot.cli\n" + self.OPENBLAS_STATE,
                                OPENBLAS_NUM_THREADS="3").split()
        assert out[:2] == ["3", "True"]

    def test_library_leaves_openblas_threads_to_the_host(self):
        out = self.fresh_python("import pufferot\npufferot.load_table\n" + self.OPENBLAS_STATE)
        assert out.split()[:2] == ["None", "True"]

    def test_cli_leaves_verify_and_scenarios_unloaded(self):
        out = self.fresh_python(
            "import sys, pufferot.cli, pufferot\n"
            "loaded = sorted(m for m in ('pufferot.verify', 'pufferot.scenarios') if m in sys.modules)\n"
            "missing = [n for n in pufferot.__all__ if getattr(pufferot, n, None) is None]\n"
            "print(loaded, missing, len(pufferot.__all__))\n"
        )
        assert out.split("\n")[0] == "[] [] 35"

    def test_modules_are_attributes_of_the_package(self):
        out = self.fresh_python(
            "import pufferot\nprint(pufferot.verify.__name__, pufferot.tabular.__name__)\n"
        )
        assert out == "pufferot.verify pufferot.tabular\n"

    def test_cli_annotations_resolve_without_the_lazy_modules(self):
        # an annotation naming a class that only a function body imports
        # makes typing.get_type_hints raise NameError
        functions = [f for f in vars(cli).values()
                     if inspect.isfunction(f) and f.__module__ == cli.__name__]
        assert len(functions) > 10
        for function in functions:
            typing.get_type_hints(function)

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
    REPORT_SHA256 = "59895b628c076e6c151822e54ac49efae3838937af217128c1e2afac56776aab"
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


#: The labels of ``plain_rows``'s ``edu`` column, in mapping order.
EDU_LABELS = ["edu-a", "edu-b", "edu-c"]


def plain_rows(count=3500, seed=23):
    """A header and ``count`` seeded data rows of unpadded, unquoted ASCII cells.

    Data row k is ``rows[k]`` and line k + 1 of the table, so rows 1024 and
    1025 end ``release``'s first block and start its second.
    """
    rng = random.Random(seed)
    rows = [["id", "group", "v", "edu", "note"]]
    for k in range(1, count + 1):
        rows.append([str(k), f"g{int(rng.random() * 5)}", str(int(rng.random() * 20) - 5),
                     EDU_LABELS[int(rng.random() * 3)], "" if k % 7 == 0 else f"n{k % 11}"])
    return rows


def write_rows(path, rows, delimiter=",", newline="\n", final_newline=True):
    text = newline.join(map(delimiter.join, rows))
    path.write_bytes((text + newline if final_newline else text).encode("utf-8"))
    return str(path)


class TestPlainBlocks:
    """``release`` writes the bytes of stripping every cell and one ``csv.writer``.

    Regular blocks of unpadded, unquoted ASCII are split, and skip the strip
    and ``csv.writer``; the tables here mix such blocks with blocks that
    need both.
    """

    # sha256 of ``plain_rows()`` released, as recorded before plain blocks
    # skipped csv.writer: every block of it is split. Its CRLF table, recorded
    # while CRLF blocks still went through csv.writer, gives the same bytes:
    # the release ends every line as csv.writer does, with "\r\n".
    PLAIN_SHA256 = "ca6f2dc8a9c397d6a09b7224c2bee71136544a6f593d59d353fd27975e4bcde7"

    #: Cells (data row, column, text) that each make a block or two not split; a
    #: column past the row's end appends the cell.
    EDITS = {
        "plain": [],
        "padded-in-block-2": [(1500, 4, " n1 "), (1600, 2, " 4 ")],
        "ragged-in-block-3": [(2100, 5, "extra"), (2300, 5, "more")],
        "multiline-at-1024": [(1024, 4, '"x\ny"'), (1025, 4, '"z\n\nw"')],
        "non-ascii": [(2100, 4, "caf\u00e9"), (2200, 4, "\u00a0n2\u3000")],
        "vt-and-fs": [(2500, 4, "\x0b"), (3100, 2, "\x1c3\x1c")],
        "padded-header": [(0, 1, " group ")],
        "no-final-newline": [],
    }

    @classmethod
    def table(cls, tmp_path, edits="plain", delimiter=",", newline="\n"):
        rows = plain_rows()
        for k, cell, text in cls.EDITS[edits]:
            rows[k][cell:cell + 1] = [text]
        return write_rows(tmp_path / "t.csv", rows, delimiter, newline,
                          final_newline=edits != "no-final-newline")

    @staticmethod
    def released(table, tmp_path, data_col="v", delimiter=",", mapped=False):
        """``release``'s bytes and the oracle's for ``table``."""
        mapping = ["--mapping", write_json(EDU_LABELS, tmp_path / "edu.json")] if mapped else []
        out = tmp_path / "released.csv"
        assert cli.main([
            "release", "--table", table, "--data-col", data_col, "--delimiter", delimiter,
            "--theta", "2.5", "--seed", "3", "--out", str(out), *mapping,
        ]) == 0
        return out.read_bytes()

    @staticmethod
    def oracle(table, data_col="v", delimiter=",", mapped=False):
        return stripping_release(table, data_col, MechanismSpec("laplace", 2.5, 1.0), 3,
                                 mapping=AttributeMapping(EDU_LABELS) if mapped else None,
                                 delimiter=delimiter)

    @pytest.mark.parametrize("edits", EDITS)
    @pytest.mark.parametrize(("delimiter", "newline", "mapped"), [
        (",", "\n", False), (",", "\n", True), (";", "\n", False), ("\t", "\n", True),
        (",", "\r\n", False), (";", "\r\n", True), (".", "\n", False),
    ])
    def test_matches_the_stripping_oracle(self, tmp_path, edits, delimiter, newline, mapped):
        table = self.table(tmp_path, edits, delimiter, newline)
        data_col = "edu" if mapped else "v"
        assert (self.released(table, tmp_path, data_col, delimiter, mapped)
                == self.oracle(table, data_col, delimiter, mapped))

    @pytest.mark.parametrize("newline", ["\n", "\r\n"])
    def test_plain_table_bytes(self, tmp_path, newline):
        table = self.table(tmp_path, newline=newline)
        released = self.released(table, tmp_path)
        assert released == self.oracle(table)
        assert hashlib.sha256(released).hexdigest() == self.PLAIN_SHA256

    @pytest.mark.parametrize(("edits", "delimiter", "newline", "blocks"), [
        ("plain", ",", "\n", []),
        # a carriage return only ever ends a line, so CRLF blocks are plain too
        ("plain", ",", "\r\n", []),
        ("padded-in-block-2", ",", "\n", [1024]),
        # a ragged block is read by csv.reader, even when plain, and written by csv.writer
        ("ragged-in-block-3", ";", "\n", [1024]),
        ("multiline-at-1024", ";", "\n", [1024, 1024]),
        ("vt-and-fs", "\t", "\n", [1024, 428]),
        ("padded-header", ",", "\n", []),
        # a noised value's repr holds a "." and is quoted, so no block is joined
        ("plain", ".", "\n", [1024, 1024, 1024, 428]),
    ])
    def test_only_blocks_that_are_not_split_go_through_csv_writer(
            self, tmp_path, monkeypatch, edits, delimiter, newline, blocks):
        table = self.table(tmp_path, edits, delimiter, newline)
        written = []
        csv_writer = csv.writer

        class CountingWriter:
            def __init__(self, *args, **kwargs):
                self.writer = csv_writer(*args, **kwargs)
                self.writerow = self.writer.writerow

            def writerows(self, rows):
                rows = list(rows)
                written.append(len(rows))
                self.writer.writerows(rows)

        with monkeypatch.context() as patch:
            patch.setattr(cli.csv, "writer", CountingWriter)
            released = self.released(table, tmp_path, delimiter=delimiter)
        assert written == blocks
        assert released == self.oracle(table, delimiter=delimiter)

    @pytest.mark.parametrize(("data_col", "cells", "message"), [
        ("v", ["2055"], "row 2056 is too short"),
        ("edu", ["2055", "g1", "3", "teal", "n1"],
         "row 2056 column 'edu': label 'teal' is not in the attribute mapping"),
        ("v", ["2055", "g1", "3", "edu-a", "x" * 200_000],
         f"line 2056: field larger than field limit ({csv.field_size_limit()})"),
    ])
    def test_errors_after_two_plain_blocks(self, tmp_path, capsys, data_col, cells, message):
        rows = plain_rows()
        rows[2055] = cells  # the 7th row of the third block
        table = write_rows(tmp_path / "t.csv", rows)
        mapping = ["--mapping", write_json(EDU_LABELS, tmp_path / "edu.json")]
        out = tmp_path / "out.csv"
        code = cli.main([
            "release", "--table", table, "--data-col", data_col, "--theta", "1.0",
            "--out", str(out), *(mapping if data_col == "edu" else []),
        ])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error == {"type": "ValidationError", "message": f"{table}: {message}"}
        assert not out.exists()


def mixed_table(path, seed, delimiter, blank_lines=True, oversized=False):
    """A seeded table of 3 to 5 blocks of ``plain_rows`` that mixes every kind of block.

    The first block holds a few ragged rows, blank lines, rows ending in
    ``\r`` and in ``\r\n`` and cells padded with spaces; data rows 1023 to
    1025 hold quoted cells with a line feed and the delimiter. The third
    block is regular and plain, its lines ending in ``\n``, ``\r\n`` or a
    mix of ``\r`` and ``\n`` (with ``oversized``, one of its cells is longer
    than ``csv.field_size_limit()``). A fourth and fifth block, if any, each
    have a few rows with one of those features.
    """
    rng = random.Random(seed)
    blocks = rng.choice([3, 4, 5])
    rows = plain_rows((blocks - 1) * 1024 + rng.randint(100, 1024), seed)
    ends = ["\n"] * len(rows)
    blank = set()

    def scatter(feature, span):
        for k in rng.sample(span, 6):
            if feature == "ragged":
                rows[k] = rows[k][:4] if rng.random() < 0.5 else rows[k] + ["extra"]
            elif feature == "blank":
                if blank_lines:
                    blank.add(k)
            elif feature == "padded":
                cell = rng.choice([1, 2, 3])
                rows[k][cell] = f" {rows[k][cell]} "
            else:
                ends[k] = feature

    features = ["ragged", "blank", "\r", "\r\n", "padded"]
    for feature in features:
        scatter(feature, range(1, 1000))
    for k in (1023, 1024, 1025):
        rows[k][4] = f'"q{k}\n{delimiter}r"'
    third = range(2 * 1024 + 1, min(3 * 1024 + 1, len(rows)))
    for k in third:
        ends[k] = rng.choice({0: ["\n"], 1: ["\r\n"], 2: ["\r", "\n"]}[seed % 3])
    if oversized:
        rows[third[len(third) // 2]][4] = "x" * (csv.field_size_limit() + 1)
    for b, feature in zip(range(3, blocks), rng.sample(features, 2)):
        scatter(feature, range(b * 1024 + 1, min((b + 1) * 1024, len(rows))))
    text = "".join(("\n" if k in blank else "") + delimiter.join(row) + end
                   for k, (row, end) in enumerate(zip(rows, ends)))
    path.write_bytes(text.encode("utf-8"))
    return str(path)


class TestSharedBlockReader:
    """``load_table`` and ``release`` read tables through ``tabular.table_blocks``.

    Its regular plain blocks are split without ``csv.reader``; every other
    block goes through it. Both commands give their oracles' results on
    tables that mix every kind of block.
    """

    MAPPING = AttributeMapping(EDU_LABELS)

    @classmethod
    def counts_or_error(cls, load, table, delimiter):
        try:
            counts = load(table, "group", "edu", cls.MAPPING, delimiter=delimiter)
        except ValidationError as exc:
            return str(exc)
        return list(counts), [counts[k].tolist() for k in counts]

    @staticmethod
    def release(table, tmp_path, delimiter, mapped):
        mapping = ["--mapping", write_json(EDU_LABELS, tmp_path / "edu.json")] if mapped else []
        out = tmp_path / "released.csv"
        code = cli.main([
            "release", "--table", table, "--data-col", "edu" if mapped else "v",
            "--delimiter", delimiter, "--theta", "2.5", "--seed", "3", "--out", str(out), *mapping,
        ])
        return code, out.read_bytes() if code == 0 else None

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("delimiter", [",", ";", "\t"])
    def test_load_table_matches_dictreader(self, tmp_path, seed, delimiter):
        table = mixed_table(tmp_path / "t.csv", seed, delimiter)
        new = self.counts_or_error(load_table, table, delimiter)
        assert new == self.counts_or_error(dictreader_load_table, table, delimiter)
        assert not isinstance(new, str)  # ragged rows keep their labels, so no row is rejected

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(("delimiter", "mapped"), [(",", False), (";", True), ("\t", False)])
    def test_release_matches_the_stripping_oracle(self, tmp_path, seed, delimiter, mapped):
        table = mixed_table(tmp_path / "t.csv", seed, delimiter, blank_lines=False)
        oracle = stripping_release(table, "edu" if mapped else "v",
                                   MechanismSpec("laplace", 2.5, 1.0), 3,
                                   mapping=self.MAPPING if mapped else None, delimiter=delimiter)
        assert self.release(table, tmp_path, delimiter, mapped) == (0, oracle)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_column_with_blank_lines(self, tmp_path, seed):
        """With one cell a line, only the blank lines tell a blank block from a regular one."""
        rng = random.Random(seed)
        lines = ["edu"] + [rng.choice(EDU_LABELS) for _ in range(3000)]
        for k in rng.sample(range(1, len(lines)), 5):
            lines[k] = ""
        table = write_rows(tmp_path / "t.csv", [[line] for line in lines])
        new, old = (load(table, "edu", "edu", self.MAPPING)
                    for load in (load_table, dictreader_load_table))
        assert list(new) == list(old)
        assert [v.tolist() for v in new.values()] == [v.tolist() for v in old.values()]

    @pytest.mark.parametrize("delimiter", [",", ";", "\t"])
    def test_oversized_cell_in_a_plain_block(self, tmp_path, capsys, delimiter):
        table = mixed_table(tmp_path / "t.csv", 1, delimiter, blank_lines=False, oversized=True)
        with open(table, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh, delimiter=delimiter)
            with pytest.raises(csv.Error) as exc:
                for _ in reader:
                    pass
        message = f"{table}: line {reader.line_num}: {exc.value}"
        assert self.counts_or_error(load_table, table, delimiter) == message
        assert self.release(table, tmp_path, delimiter, False) == (2, None)
        assert json.loads(capsys.readouterr().err)["error"]["message"] == message

    @pytest.mark.parametrize(("edits", "readers"), [("plain", 0), ("padded-header", 1),
                                                    ("padded-in-block-2", 1)])
    def test_regular_plain_blocks_build_no_csv_reader(self, tmp_path, monkeypatch, edits,
                                                      readers):
        table = TestPlainBlocks.table(tmp_path, edits)
        built = []
        csv_reader = csv.reader

        def counting_reader(*args, **kwargs):
            built.append(1)
            return csv_reader(*args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(csv, "reader", counting_reader)
            counts = self.counts_or_error(load_table, table, ",")
            released = self.release(table, tmp_path, ",", False)
        assert len(built) == 2 * readers
        assert counts == self.counts_or_error(dictreader_load_table, table, ",")
        assert released == (0, TestPlainBlocks.oracle(table))


class TestBoundedMemory:
    """Peak traced memory of the census publish path, per row of a 50 000-row table.

    Neither ``release`` nor ``load_table`` keeps a row: their peaks are a few
    float arrays (``release``) or one integer code (``load_table``) per row.
    The peak of ``release`` also stays the same as its table grows tenfold.
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

    @staticmethod
    def traced_peak(fn) -> int:
        fn()  # one run first, so one-time imports and caches are not counted
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def traced_peak_per_row(self, fn) -> float:
        return self.traced_peak(fn) / self.ROWS

    def test_release(self, wide_table, tmp_path):
        table, mapping = wide_table
        argv = ["release", "--table", table, "--data-col", "education", "--mapping", mapping,
                "--theta", "2.0", "--out", str(tmp_path / "released.csv")]

        def release():
            assert cli.main(argv) == 0

        assert self.traced_peak_per_row(release) <= 40

    def test_release_peak_does_not_grow_with_the_table(self, tmp_path):
        """The peak on 200 000 rows is that on 20 000 within 64 KiB (0.36 B per extra row).

        The peak on 20 000 rows is also within 128 KiB of that on one block of
        1000 rows; keeping a block while the next is read adds about 400 KiB.
        """
        peaks = []
        for count in (1000, 20_000, 200_000):
            rows = plain_rows(count)
            for k in range(5000, count, 5000):  # one block in five takes the csv path
                rows[k][4] = f" {rows[k][4]} "
            table = write_rows(tmp_path / f"t{count}.csv", rows)
            del rows
            argv = ["release", "--table", table, "--data-col", "v", "--theta", "2.0",
                    "--out", str(tmp_path / "released.csv")]

            def release():
                assert cli.main(argv) == 0

            peaks.append(self.traced_peak(release))
        assert peaks[1] <= peaks[0] + 128 * 1024
        assert peaks[2] <= peaks[1] + 64 * 1024

    def test_load_table_peak_does_not_grow_with_the_table(self, tmp_path):
        """The peak on 200 000 rows is that on 20 000 within 64 KiB, as for ``release``."""
        mapping = AttributeMapping(EDU_LABELS)
        peaks = []
        for count in (20_000, 200_000):
            rows = plain_rows(count)
            for k in range(5000, count, 5000):  # one block in five takes the csv path
                rows[k][4] = f" {rows[k][4]} "
            table = write_rows(tmp_path / f"t{count}.csv", rows)
            del rows
            peaks.append(self.traced_peak(lambda: load_table(table, "group", "edu", mapping)))
        assert peaks[1] <= peaks[0] + 64 * 1024

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


    def test_mixed_sizes_match_golden(self, tmp_path):
        # the adult conditionals with worked examples 1 and 2 and a point mass:
        # 21 pairs of 4, 5, 14 and 15 positive-mass points, some failing
        out = tmp_path / "verify.json"
        code = cli.main([
            "verify", "--pairs", str(DATA / "verify_pairs.json"), "--family", "laplace",
            "--theta", "4", "--epsilon", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == GOLDEN_VERIFY.read_bytes()

    def test_delta_report_matches_golden(self, tmp_path):
        # the same 21 pairs at about the gaussian-a scale: 3 pass on their tail mass
        out = tmp_path / "verify.json"
        code = cli.main([
            "verify", "--pairs", str(DATA / "verify_pairs.json"), "--family", "gaussian",
            "--theta", "4.85", "--epsilon", "1", "--delta", "1e-5", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == GOLDEN_VERIFY_DELTA.read_bytes()

    def test_gaussian_log_ratio_report_matches_golden(self, tmp_path):
        # the same 21 pairs, each passing or failing on its grid maximum, slack and limits
        out = tmp_path / "verify.json"
        code = cli.main([
            "verify", "--pairs", str(DATA / "verify_pairs.json"), "--family", "gaussian",
            "--theta", "4.85", "--epsilon", "1", "--out", str(out),
        ])
        assert code == 0
        assert out.read_bytes() == GOLDEN_VERIFY_GAUSSIAN.read_bytes()

    def test_huge_grid_counts_are_short_and_never_evaluated(self, tmp_path):
        # at theta = 1e-170 every grid needs about 1e172 points: none is built
        out = tmp_path / "verify.json"
        code = cli.main([
            "verify", "--pairs", str(DATA / "verify_pairs.json"), "--family", "gaussian",
            "--theta", "1e-170", "--epsilon", "1", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["pass"] is False
        entries = payload["pairs"]
        assert [entry["worst_log_ratio"] for entry in entries] == [None] * 21
        assert [entry["argmax_y"] for entry in entries] == [None] * 21
        assert "needs up to 6.5e+172 points" in entries[0]["note"]
        assert all(len(entry["note"]) < 120 for entry in entries)

    def test_overflowing_laplace_decays_warn_nothing(self, tmp_path, capsys):
        # (1e10 - 0) / 1e-300 overflows to an infinite decay: the far atom adds nothing
        pairs = write_json({
            "prior": "far",
            "conditionals": {"a": {"support": [0, 1e10], "mass": [0.5, 0.5]},
                             "b": {"support": [0, 1e10], "mass": [0.25, 0.75]}},
            "pairs": [["a", "b"]],
        }, tmp_path / "far.json")
        out = tmp_path / "verify.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["verify", "--pairs", pairs, "--family", "laplace",
                             "--theta", "1e-300", "--epsilon", "1", "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        payload = read_json(out)
        assert payload["pass"] is True
        entry = payload["pairs"][0]
        assert (entry["worst_log_ratio"], entry["argmax_y"]) == (math.log(2), 0.0)

    def test_underflowing_delta_scale_fails_every_pair(self, tmp_path):
        # theta * eps / sensitivity underflows to 0: the whole noise mass violates
        out = tmp_path / "verify.json"
        code = cli.main([
            "verify", "--pairs", str(DATA / "verify_pairs.json"), "--family", "gaussian",
            "--theta", "1e-170", "--epsilon", "1e-170", "--delta", "1e-5", "--out", str(out),
        ])
        assert code == 0
        payload = read_json(out)
        assert payload["pass"] is False
        assert [entry["violation_mass"] for entry in payload["pairs"]] == [1.0] * 21


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestStrictJson:
    """Every JSON artefact parses under RFC 8259: no NaN, Infinity or -Infinity."""

    @pytest.mark.parametrize("family, theta, delta", [
        ("gaussian", "1", "1e-5"),  # worst inf at y -> -inf: the extremes differ
        ("gaussian", "0", "1e-5"),
        ("gaussian", "1", None),
        ("laplace", "0", None),
        ("laplace", "1", None),
    ])
    def test_verify_writes_infinities_as_strings(self, pairs_file, tmp_path,
                                                 family, theta, delta):
        out = tmp_path / "verify.json"
        argv = ["verify", "--pairs", pairs_file, "--family", family, "--theta", theta,
                "--epsilon", "1", "--out", str(out)]
        assert cli.main(argv + (["--delta", delta] if delta else [])) == 0
        (entry,) = json.loads(out.read_text(encoding="utf-8"),
                              parse_constant=_reject_constant)["pairs"]
        if family == "gaussian" or theta == "0":
            assert entry["worst_log_ratio"] == "inf"
            assert float(entry["worst_log_ratio"]) == math.inf
        if family == "gaussian" and theta == "1":
            assert entry["argmax_y"] == "-inf"

    def test_every_command_writes_strict_json(self, pairs_file, tmp_path):
        scen = write_json({"priors": [[0.5, 0.5]] * 3, "query": "counting"},
                          tmp_path / "scen.json")
        p = write_json({"support": [1, 2], "mass": [0.5, 0.5]}, tmp_path / "p.json")
        commands = {
            "plan": ["--p", p, "--q", p],
            "calibrate": ["--pairs", pairs_file, "--epsilon", "1"],
            "verify": ["--pairs", pairs_file, "--family", "gaussian", "--theta", "1",
                       "--epsilon", "1", "--delta", "1e-5"],
            "scenario": ["--scenario", scen, "--mode", "absence"],
            "tables": [],
        }
        for command, argv in commands.items():
            out = tmp_path / f"{command}.json"
            assert cli.main([command, *argv, "--out", str(out)]) == 0, command
            json.loads(out.read_text(encoding="utf-8"), parse_constant=_reject_constant)

    def test_a_non_finite_number_fails_before_the_file_is_written(self, tmp_path):
        out = tmp_path / "out.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json({"x": math.nan}, str(out))
        assert not out.exists()


class TestScenarioCommand:
    def test_counting_absence_matches_golden(self, tmp_path):
        # integer outputs, on the grid: user 1's leave-one-out law, and the absence law
        # extended from it by user 1's term
        out = tmp_path / "out.json"
        assert cli.main(["scenario", "--scenario", str(DATA / "scenario_counting.json"),
                         "--user", "1", "--mode", "absence", "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_SCENARIO_COUNTING.read_bytes()

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

    def test_fractional_absence_matches_golden(self, tmp_path):
        # near-equal sums of the tabled outputs are merged into one atom
        scen = write_json(
            {"priors": [[0.2, 0.3, 0.5], [0.5, 0.25, 0.25], [0.1, 0.6, 0.3]],
             "query": [[0, 0.5, 1.25], [0.1, 0.2, 0.3], [0.2, 0.1, 0.75]]},
            tmp_path / "scen.json",
        )
        out = tmp_path / "out.json"
        assert cli.main(["scenario", "--scenario", scen, "--mode", "absence",
                         "--out", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_SCENARIO.read_bytes()

    @pytest.mark.parametrize("scenario", [
        {"priors": [[1.0]] * 3, "query": [[1e308]] * 3},
        {"priors": [[0.5, 0.5]] * 2, "query": [[0.5, 1.5e308]] * 2},
    ])
    def test_outputs_summing_past_the_float_range(self, tmp_path, capsys, scenario):
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["scenario", "--scenario", write_json(scenario, tmp_path / "s.json"),
                             "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"].startswith("query outputs can sum past the float range")
        assert not out.exists()

    def test_merged_products_that_underflow_are_dropped(self, tmp_path, capsys):
        # products of masses 1e-200 underflow to 0; merged, a run of them would divide 0 by 0
        payload = {"priors": [[1e-200, 1, 1e-200]] * 2,
                   "query": [[0, 0.5, 1.25], [0.1, 0.2, 0.3]]}
        out = tmp_path / "out.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["scenario", "--scenario", write_json(payload, tmp_path / "s.json"),
                             "--mode", "absence", "--out", str(out)])
        assert code == 0 and capsys.readouterr().err == ""
        system = cli._system_from_json(payload)
        for pair in read_json(out)["pairs"]:
            value = float(pair["labels"][0].removeprefix("S0="))
            for side, event in ((pair["p"], value), (pair["q"], None)):
                law = enumerated_conditional(system, 0, event)
                for key, expected in zip(("support", "mass"), law):
                    assert len(side[key]) == expected.size
                    assert all(map(math.isclose, side[key], expected.tolist()))
        # absent: the five sums whose mass is a product with at most one factor 1e-200
        assert len(pair["q"]["support"]) == 5

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

    def test_root_past_the_float_range_exits_three(self, tmp_path, capsys):
        # supports 1e300 apart at eps = 1e-10: G stays positive up to theta = the largest float
        dist = {"support": [0, 1e300], "mass": [0.5, 0.5]}
        pairs = write_json({"conditionals": {"a": dist, "b": {**dist, "mass": [0.25, 0.75]}},
                            "pairs": [["a", "b"]]}, tmp_path / "far.json")
        out = tmp_path / "report.json"
        code = cli.main(["calibrate", "--pairs", pairs, "--method", "theorem2",
                         "--epsilon", "1e-10", "--out", str(out)])
        assert code == 3
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "NumericError"
        assert "no upper bracket" in error["message"]
        assert not out.exists()

    def test_root_below_the_float_range_exits_three(self, tmp_path, capsys):
        # supports 1e-308 apart at eps = 1.5: the root lies below theta = exp(-709.78)
        dist = {"support": [0, 1e-308], "mass": [0.5, 0.5]}
        pairs = write_json({"conditionals": {"a": dist, "b": {**dist, "mass": [0.25, 0.75]}},
                            "pairs": [["a", "b"]]}, tmp_path / "tiny.json")
        out = tmp_path / "report.json"
        code = cli.main(["calibrate", "--pairs", pairs, "--method", "theorem2",
                         "--epsilon", "1.5", "--out", str(out)])
        assert code == 3
        (line,) = capsys.readouterr().err.splitlines()
        error = json.loads(line)["error"]
        assert error["type"] == "NumericError"
        assert "no lower bracket" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize(("listed", "message"), [
        # a value that is not a list is the file's fault; a bad entry is the pair's
        ({"a": "b"}, '{path}: "pairs" must be "all" or a list of [a, b] lists'),
        ("some", '{path}: "pairs" must be "all" or a list of [a, b] lists'),
        (["ab"], "pair 'ab' must hold exactly two labels"),
        ([{"a": 1, "b": 2}], "pair {{'a': 1, 'b': 2}} must hold exactly two labels"),
    ])
    def test_malformed_pair_list_exits_two(self, tmp_path, capsys, listed, message):
        dist = {"support": [0, 1], "mass": [0.5, 0.5]}
        pairs = write_json({"conditionals": {"a": dist, "b": dist}, "pairs": listed},
                           tmp_path / "pairs.json")
        out = tmp_path / "report.json"
        code = cli.main(["calibrate", "--pairs", pairs, "--epsilon", "1", "--out", str(out)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        assert error["message"] == message.format(path=pairs)
        assert not out.exists()

    def test_argparse_usage_error(self):
        assert cli.main(["plan"]) == 2

    @pytest.mark.parametrize("case", [
        "plan-p-scalar", "conditionals-list", "pairs-scalar", "pairs-of-scalars",
        "priors-scalar", "priors-flat", "query-of-scalars", "V-list", "support-object",
        "mass-object", "query-output-list", "priors-string", "query-bool", "support-mixed",
        "mass-bool", "query-short", "query-infinite", "support-huge-int", "query-huge-int",
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
            "priors-string": ({"priors": [[0.5, 0.5], ["0.5", "0.5"]]}, ["scenario", "--scenario"]),
            "query-bool": ({"priors": [[0.5, 0.5]] * 2, "query": [[0, 1], [True, False]]},
                           ["scenario", "--scenario"]),
            "support-mixed": ({"support": [0, "1", True], "mass": [0.5, 0.5, 0]},
                              ["plan", "--q", write_json(dist, tmp_path / "q.json"), "--p"]),
            "mass-bool": ({"conditionals": {"a": dist, "b": {"support": [1, 2],
                                                             "mass": [False, True]}}},
                          ["calibrate", "--pairs"]),
            "query-short": ({"priors": [[0.5, 0.5], [0.5, 0.5]], "query": [[0, 1], [0]]},
                            ["scenario", "--scenario"]),
            "query-infinite": ({"priors": [[0.5, 0.5]], "query": [[0, math.inf]]},
                               ["scenario", "--scenario"]),
            "support-huge-int": ({"support": [10**400], "mass": [1]},
                                 ["plan", "--q", write_json(dist, tmp_path / "q.json"), "--p"]),
            "query-huge-int": ({"priors": [[0.5, 0.5]], "query": [[0, 10**400]]},
                               ["scenario", "--scenario"]),
        }[case]
        message = {
            "priors-string": "priors[1][0] must be a number, got '0.5'",
            "query-bool": "query[1][0] must be a number, got True",
            "support-mixed": "support[1] must be a number, got '1'",
            "mass-bool": "mass[0] must be a number, got False",
            "query-short": "user 1 needs 2 outputs, got shape (1,)",
            "query-infinite": "query output for user 0 at 1.0 is not finite",
            "support-huge-int": "support must be a list of numbers: int too large to convert to float",
            "query-huge-int": "query outputs must be numbers: int too large to convert to float",
        }.get(case)
        if argv[0] == "calibrate":
            argv = [*argv[:1], "--epsilon", "1.0", *argv[1:]]
        out = tmp_path / "out.json"
        code = cli.main([*argv, write_json(payload, tmp_path / "in.json"), "--out", str(out)])
        assert code == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError"
        if message is not None:
            assert error["message"] == message
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

    def test_scale_outside_the_floats_maps_to_three(self, tmp_path, capsys):
        # eps / sensitivity underflows to 0 here; the parent raised ZeroDivisionError
        payload = {
            "prior": "edge",
            "conditionals": {
                "a": {"support": [1e308, 1.5e308], "mass": [0.5, 0.5]},
                "b": {"support": [1.2e308, 1.7e308], "mass": [0.5, 0.5]},
            },
            "pairs": [["a", "b"]],
        }
        out = tmp_path / "report.json"
        code = cli.main(["calibrate", "--pairs", write_json(payload, tmp_path / "edge.json"),
                         "--epsilon", "1e-20", "--method", "theorem1", "--out", str(out)])
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NumericError"
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["calibrate", "--method", "theorem1"],
        ["calibrate", "--method", "gaussian-a", "--delta", "1e-5"],
        ["calibrate", "--method", "theorem2"],
        ["verify", "--family", "laplace", "--theta", "1e300"],
        ["verify", "--family", "gaussian", "--theta", "1", "--delta", "1e-5"],
    ])
    def test_pair_spanning_past_the_float_range(self, tmp_path, capsys, command):
        # a RuntimeWarning is an error under this suite's settings, so none may be issued
        payload = {
            "prior": "span",
            "conditionals": {
                "a": {"support": [-1.7e308, 1.7e308], "mass": [0.5, 0.5]},
                "b": {"support": [-1.7e308, 1.7e308], "mass": [0.25, 0.75]},
            },
            "pairs": [["a", "b"]],
        }
        out = tmp_path / "report.json"
        code = cli.main([*command, "--pairs", write_json(payload, tmp_path / "span.json"),
                         "--epsilon", "1", "--out", str(out)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == {
            "type": "ValidationError",
            "message": "pair ('a', 'b'): the supports span -1.7e+308 to 1.7e+308, "
                       "a distance past the float range",
        }
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,payload,message", [
        (["calibrate", "--epsilon", "1"], "--pairs", [], "expected a JSON object"),
        (["scenario"], "--scenario", [], "scenario file must hold a JSON object"),
        (["scenario"], "--scenario", {"priors": [[0.5, 0.5]], "query": "sum"},
         "scenario 'query' must be \"counting\" or a list of output lists"),
    ])
    def test_input_file_shape_rejected(self, tmp_path, capsys, command, flag, payload, message):
        path = write_json(payload, tmp_path / "in.json")
        assert cli.main([*command, flag, path, "--out", str(tmp_path / "o.json")]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError" and message in error["message"]

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


class TestChoices:
    """The method and family lists are mechanisms' own, in their order."""

    @pytest.mark.parametrize(
        "command,flag,names",
        [("calibrate", "--method", tuple(METHODS)), ("release", "--family", FAMILIES),
         ("verify", "--family", FAMILIES)],
    )
    def test_choices_come_from_mechanisms(self, command, flag, names):
        parser = cli.build_parser()
        (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        (action,) = (a for a in sub.choices[command]._actions if flag in a.option_strings)
        assert tuple(action.choices) == names


class TestReadmeCommands:
    def test_block_lists_every_command(self):
        assert {argv[1] for argv in readme_commands()} == set(cli._COMMANDS)

    @pytest.mark.parametrize("argv", readme_commands(), ids=lambda argv: argv[1])
    def test_readme_command_parses(self, argv):
        assert argv[0] == "pufferot"
        cli.build_parser().parse_args(argv[1:])
