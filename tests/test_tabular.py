import math
import random

import numpy as np
import pytest

from pufferot import (
    AttributeMapping,
    ValidationError,
    adult_education_conditionals,
    adult_education_fixture,
    adult_education_pair,
    empirical_conditionals,
    enumerate_pairs,
    load_table,
    optimal_plan,
    plan_sensitivity,
    support_sensitivity,
)

from pufferot.tabular import load_conditionals_json

from oracles import dictreader_load_table

TOY_MAPPING = AttributeMapping(labels=("red", "green", "blue"))


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestAttributeMapping:
    def test_one_based_contiguous_indices(self):
        assert TOY_MAPPING.index("red") == 1
        assert TOY_MAPPING.index("blue") == 3
        assert TOY_MAPPING.support.tolist() == [1.0, 2.0, 3.0]

    def test_unknown_label(self):
        with pytest.raises(ValidationError, match="'magenta'"):
            TOY_MAPPING.index("magenta")

    def test_empty_rejected(self):
        with pytest.raises(ValidationError, match="needs at least one label"):
            AttributeMapping(labels=())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValidationError, match="duplicate label"):
            AttributeMapping(labels=("a", "b", "a"))

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text('["x", "y"]', encoding="utf-8")
        mapping = AttributeMapping.from_json_file(str(path))
        assert mapping.labels == ("x", "y")

    def test_json_file_must_hold_array(self, tmp_path):
        path = tmp_path / "mapping.json"
        path.write_text('{"x": 1}', encoding="utf-8")
        with pytest.raises(ValidationError, match="array"):
            AttributeMapping.from_json_file(str(path))


class TestLoadTable:
    def test_hand_tally(self, tmp_path):
        path = write_csv(
            tmp_path / "toy.csv",
            "secret,color\nA,red\nA,blue\nB,red\nA,red\n",
        )
        counts = load_table(path, "secret", "color", TOY_MAPPING)
        assert counts["A"].tolist() == [2.0, 0.0, 1.0]
        assert counts["B"].tolist() == [1.0, 0.0, 0.0]

    def test_single_row(self, tmp_path):
        path = write_csv(tmp_path / "one.csv", "secret,color\nZ,green\n")
        counts = load_table(path, "secret", "color", TOY_MAPPING)
        assert counts["Z"].tolist() == [0.0, 1.0, 0.0]

    def test_unmappable_label_names_row(self, tmp_path):
        path = write_csv(
            tmp_path / "bad.csv", "secret,color\nA,red\nA,mauve\nB,blue\n"
        )
        with pytest.raises(ValidationError, match=r"'mauve' at row 3"):
            load_table(path, "secret", "color", TOY_MAPPING)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "cols.csv", "secret,color\nA,red\n")
        with pytest.raises(ValidationError, match="'shade'"):
            load_table(path, "secret", "shade", TOY_MAPPING)

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "")
        with pytest.raises(ValidationError, match="empty file"):
            load_table(path, "secret", "color", TOY_MAPPING)

    def test_header_only(self, tmp_path):
        path = write_csv(tmp_path / "header.csv", "secret,color\n")
        with pytest.raises(ValidationError, match="no data rows"):
            load_table(path, "secret", "color", TOY_MAPPING)

    def test_whitespace_and_quotes(self, tmp_path):
        path = write_csv(
            tmp_path / "ws.csv", 'secret,color\n A , red \n"B","green"\n'
        )
        counts = load_table(path, "secret", "color", TOY_MAPPING)
        assert counts["A"].tolist() == [1.0, 0.0, 0.0]
        assert counts["B"].tolist() == [0.0, 1.0, 0.0]

    def test_repeated_name_of_another_column(self, tmp_path):
        path = write_csv(tmp_path / "x.csv", "x,secret,x,color\n1,A,2,red\n")
        counts = load_table(path, "secret", "color", TOY_MAPPING)
        assert counts["A"].tolist() == [1.0, 0.0, 0.0]

    def test_custom_delimiter(self, tmp_path):
        path = write_csv(tmp_path / "semi.csv", "secret;color\nA;red\n")
        counts = load_table(path, "secret", "color", TOY_MAPPING, delimiter=";")
        assert counts["A"].tolist() == [1.0, 0.0, 0.0]


def load_both(path, secret="secret", data="color", mapping=TOY_MAPPING, **kw):
    """``load_table`` and the DictReader oracle on one file: counts, or the error text."""
    out = []
    for load in (load_table, dictreader_load_table):
        try:
            counts = load(path, secret, data, mapping, **kw)
        except ValidationError as exc:
            out.append(str(exc))
        else:
            out.append((list(counts), [counts[k].tolist() for k in counts]))
    return out


class TestLoadTableMatchesDictReader:
    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("secret,color\n\nA,red\n\n\nB,blue\n\n", id="blank-lines"),
            pytest.param("secret,color\nA,red\n\nB,mauve\n", id="blank-line-before-rejected"),
            pytest.param("\nsecret,color\nA,red\n", id="blank-header-line"),
            pytest.param("color,secret\nred\nblue,B\n", id="short-row-missing-secret"),
            pytest.param("secret,color\nA\nB,blue\n", id="short-row-missing-label"),
            pytest.param("secret,color\nA,red,x,y\nB,blue,\n", id="extra-cells"),
            pytest.param('secret,color\n"A,1",red\n"B\n2"," blue"\n"A,1",red\n', id="quoted"),
            pytest.param(" secret , color \n  A ,\tred  \nB,  blue\n", id="whitespace"),
            pytest.param("color,secret,color\nred,A,blue\ngreen,B,red\n", id="duplicate-name"),
            pytest.param("color,secret,color\nred,A,blue\ngreen,B\n", id="duplicate-name-short"),
            pytest.param("color,secret, color\nred,A,blue\ngreen,B,red\n", id="duplicate-stripped"),
            pytest.param(" color,secret,color, color\nred,A,blue,green\n", id="duplicate-mixed"),
            pytest.param("secret,color\nA,red\nA,mauve\nB,\nC,teal\n", id="several-rejected"),
            pytest.param("secret,,color\nA,x,red\n", id="empty-name"),
            pytest.param(",color\nA,red\nB,blue\n", id="empty-name-secret"),
            pytest.param("secret,color\n\n\n", id="only-blank-rows"),
            pytest.param("secret\nA\n", id="missing-column"),
        ],
    )
    def test_dictreader_row_semantics(self, tmp_path, text):
        """Equal to the oracle, except that a header naming "color" twice is rejected."""
        path = write_csv(tmp_path / "t.csv", text)
        secret = "" if text.startswith(",") else "secret"
        new, old = load_both(path, secret=secret)
        fieldnames = [name.strip() for name in text.split("\n", 1)[0].split(",")]
        times = fieldnames.count("color")
        if times > 1:
            assert new.endswith(f"column 'color' named {times} times in header {fieldnames}")
        else:
            assert new == old

    def test_seeded_random_table(self, tmp_path):
        rng = random.Random(11)
        secrets = ["A", " A", "B ", '"C,D"', '"E\nF"', ""]
        labels = list(TOY_MAPPING.labels) + [" red", "green  "]
        lines, short = ["id, secret ,color,extra"], []
        for i in range(5000):
            roll = rng.random()
            if roll < 0.02:
                lines.append("")
                continue
            cells = [str(i), rng.choice(secrets), rng.choice(labels), "x"]
            if roll < 0.05:
                cells = cells[:2]
                short.append(len(lines))
            elif roll < 0.1:
                cells += ["y", "z"]
            lines.append(",".join(cells))
        path = write_csv(tmp_path / "random.csv", "\n".join(lines) + "\n")
        new, old = load_both(path)
        assert new == old
        assert f"{len(short)} row(s) rejected" in new  # a short row has no label
        skip = set(short)
        kept = [line for k, line in enumerate(lines) if k not in skip]
        path = write_csv(tmp_path / "kept.csv", "\n".join(kept) + "\n")
        new, old = load_both(path)
        assert new == old
        assert len(new[0]) == 5


class TestEmpiricalConditionals:
    def test_uniform_counts(self):
        dists = empirical_conditionals({"A": [3, 3, 3]})
        assert dists["A"].mass.tolist() == [1 / 3, 1 / 3, 1 / 3]
        assert dists["A"].support.tolist() == [1.0, 2.0, 3.0]

    def test_zero_count_secret_rejected(self):
        with pytest.raises(ValidationError, match="'B'"):
            empirical_conditionals({"A": [1, 0], "B": [0, 0]})

    def test_round_trip_exact_frequencies(self, tmp_path):
        counts = {"A": [5, 0, 3], "B": [2, 2, 4]}
        text = "secret,color\n" + "".join(
            f"{secret},{label}\n"
            for secret, row in counts.items()
            for label, k in zip(TOY_MAPPING.labels, row)
            for _ in range(k)
        )
        path = write_csv(tmp_path / "freq.csv", text)
        loaded = load_table(path, "secret", "color", TOY_MAPPING)
        dists = empirical_conditionals(loaded)
        for secret, row in counts.items():
            expected = np.array(row, dtype=float) / sum(row)
            assert np.array_equal(dists[secret].mass, expected)


class TestEnumeratePairs:
    def make_conditionals(self, n):
        return empirical_conditionals(
            {f"s{k}": np.arange(1, 4) + k for k in range(n)}
        )

    def test_two_secrets_single_pair(self):
        pairs = enumerate_pairs(self.make_conditionals(2))
        assert len(pairs) == 1

    def test_all_mode_counts(self):
        pairs = enumerate_pairs(self.make_conditionals(5))
        assert len(pairs) == 10

    def test_listed_mode(self):
        conditionals = self.make_conditionals(3)
        pairs = enumerate_pairs(conditionals, pairs=[("s0", "s2")], prior="tagged")
        assert len(pairs) == 1
        assert pairs[0].labels == ("s0", "s2")
        assert pairs[0].prior == "tagged"

    def test_unknown_label_in_list(self):
        with pytest.raises(ValidationError, match="'s9'"):
            enumerate_pairs(self.make_conditionals(2), pairs=[("s0", "s9")])

    def test_single_secret_rejected_in_all_mode(self):
        with pytest.raises(ValidationError, match="two secrets"):
            enumerate_pairs(self.make_conditionals(1))

    def test_all_mode_keeps_sorted_pair_order(self):
        pairs = enumerate_pairs(self.make_conditionals(4))
        assert [pair.labels for pair in pairs] == [
            ("s0", "s1"), ("s0", "s2"), ("s0", "s3"), ("s1", "s2"), ("s1", "s3"), ("s2", "s3"),
        ]

    @pytest.mark.parametrize("entry", [("s0",), ("s0", "s1", "s2")])
    def test_listed_entry_must_hold_two_labels(self, entry):
        with pytest.raises(ValidationError, match="must hold exactly two labels"):
            enumerate_pairs(self.make_conditionals(3), pairs=[entry])

    def test_listed_pair_of_one_label_rejected(self):
        with pytest.raises(ValidationError, match="pair labels must be distinct, got 's0' twice"):
            enumerate_pairs(self.make_conditionals(2), pairs=[("s0", "s0")])

    @pytest.mark.parametrize("payload", [{}, {"_source": "metadata only"}])
    def test_conditionals_object_without_distributions_rejected(self, payload):
        with pytest.raises(ValidationError, match="no per-secret distributions found"):
            load_conditionals_json(payload)


class TestAdultFixture:
    def test_quoted_masses(self):
        conditionals = adult_education_conditionals()
        white = conditionals["White"]
        asian = conditionals["Asian-Pac-Islander"]
        assert math.isclose(white.mass[5], 0.131250674048244, abs_tol=1e-9)
        assert math.isclose(asian.mass[2], 0.123195380173244, abs_tol=1e-9)
        assert white.support.tolist() == [float(k) for k in range(1, 15)]

    def test_pipeline_plan_sensitivity(self):
        pair = adult_education_pair()
        plan = optimal_plan(pair.p, pair.q)
        assert plan_sensitivity(plan) == 2.0

    def test_support_diameter_versus_quoted_value(self):
        pair = adult_education_pair()
        computed = support_sensitivity(pair.p, pair.q)
        quoted = adult_education_fixture()["_meta"]["quoted_alphabet_diameter"]
        assert computed == 13.0
        assert quoted == 14
        assert computed != quoted  # known discrepancy, recorded in the fixture metadata
