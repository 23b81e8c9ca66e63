import hashlib
import json

import pytest

from plimpton import formats
from plimpton.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_all_lines_reproduced(self, capsys):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        assert "15/15 lines reproduced" in out
        assert out.count(": ok") == 15
        assert "boundary 82.5824" in out

    def test_use_inscribed_flags_five_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "--use-inscribed")
        assert code == 1
        assert "10/15 lines reproduced" in out
        for row in (2, 8, 9, 13, 15):
            assert f"line {row:2d}: MISMATCH" in out

    def test_single_line(self, capsys):
        code, out, _ = run(capsys, "verify", "--line", "3")
        assert code == 0
        assert "1/1 lines reproduced" in out

    def test_json_export(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 15
        assert all(record["status"] == "ok" for record in payload)

    def test_csv_round_trips_tablet_lines(self, capsys, tmp_path):
        from plimpton.tablet import load_dataset

        path = tmp_path / "tablet.csv"
        code, _, _ = run(capsys, "--format", "csv", "--output", str(path), "verify")
        assert code == 0
        parsed = formats.from_csv(path.read_text(encoding="utf-8"))
        lines = [formats.tablet_from_record(r) for r in parsed]
        assert lines == list(load_dataset().lines)


class TestReconstruct:
    def test_line_1(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "24.30")
        assert code == 0
        assert "1.59.00.15" in out
        assert "colII         119" in out.replace("  ", "  ")
        assert "2.49" in out
        assert "base" in out and "120" in out

    def test_flat_triangle(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "0")
        assert code == 0
        assert "colII         0" in out

    def test_out_of_range_anchor_one(self, capsys):
        code, _, err = run(capsys, "reconstruct", "59.59", "--anchor", "1")
        assert code == 2
        assert "not below 60" in err

    def test_malformed_takiltum(self, capsys):
        # 59.59 at anchor 0 is inside the range but not a perfect square
        code, _, err = run(capsys, "reconstruct", "59.59")
        assert code == 2
        assert "square" in err

    def test_parse_error(self, capsys):
        code, _, err = run(capsys, "reconstruct", "1.60.3")
        assert code == 2
        assert "exceeds 59" in err

    def test_shorten_flag(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "10.40", "--shorten", "max")
        assert code == 0
        assert "colII         56" in out
        assert "colIII        106" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "reconstruct", "24.30")
        assert code == 0
        (record,) = json.loads(out)
        assert record["colI_sex"] == "1.59.00.15"
        assert record["colI_decimal"] == "3600 x 1.983402p7"


class TestEnumerate:
    def test_default_csv_with_marks(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "enumerate", "--mark-tablet")
        assert code == 0
        records = formats.from_csv(out)
        assert len(records) == 245
        marked = [r for r in records if r["tablet_line"]]
        assert len(marked) == 15
        assert [int(r["tablet_line"]) for r in marked] == list(range(1, 16))

    def test_range_window(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "enumerate", "--range", "44.7:44.8")
        assert code == 0
        records = formats.from_csv(out)
        assert len(records) == 1
        assert records[0]["width"] == "119"

    def test_range_needs_lo_hi(self, capsys):
        code, _, err = run(capsys, "enumerate", "--range", "5")
        assert code == 2
        assert "--range needs LO:HI" in err

    def test_max_places_cap(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "enumerate", "--max-places", "4")
        assert code == 0
        records = formats.from_csv(out)
        assert records
        assert all(int(r["colI_places"]) <= 4 for r in records)

    def test_gaps_footer(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "enumerate", "--gaps")
        assert code == 0
        assert "# gaps:" in out
        assert "tablet_span_rows=28" in out

    def test_markdown_output(self, capsys):
        code, out, _ = run(
            capsys, "--format", "md", "enumerate", "--max-generator", "20"
        )
        assert code == 0
        assert out.startswith("| row |")

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "--format", "csv", "enumerate")
        _, second, _ = run(capsys, "--format", "csv", "enumerate")
        assert first == second

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "table.csv"
        code, out, _ = run(
            capsys, "--format", "csv", "--output", str(path), "enumerate",
            "--max-generator", "20",
        )
        assert code == 0
        assert out == ""
        assert path.read_text(encoding="utf-8").startswith("row,")


class TestConvert:
    def test_triple(self, capsys):
        code, out, _ = run(capsys, "convert", "triple", "4601", "6649", "4800")
        assert code == 0
        assert "bab_tan    57.5125" in out
        assert "bab_sec    83.1125" in out
        assert "sine       4601/6649" in out

    def test_values(self, capsys):
        code, out, _ = run(capsys, "convert", "values", "3/4", "5/4")
        assert code == 0
        assert "width      45" in out
        assert "diagonal   75" in out
        assert "base       60" in out

    def test_bad_triple(self, capsys):
        code, _, err = run(capsys, "convert", "triple", "3", "5", "5")
        assert code == 2
        assert "right triangle" in err

    @pytest.mark.parametrize("argv, message", [
        (("triple", "3", "4"), "convert triple needs 3 values, got 2"),
        (("values", "3/4"), "convert values needs 2 values, got 1"),
    ], ids=["triple", "values"])
    def test_value_count_named(self, capsys, argv, message):
        code, _, err = run(capsys, "convert", *argv)
        assert code == 2
        assert message in err


class TestErrors:
    def test_line_13(self, capsys):
        code, out, _ = run(capsys, "errors", "13")
        assert code == 0
        assert "multiply un-rooted column I by 16" in out

    def test_all_errata_summarized(self, capsys):
        code, out, _ = run(capsys, "errors")
        assert code == 0
        for row in (2, 8, 9, 13, 15):
            assert f"line {row} column" in out
        assert "ruled out" in out

    def test_clean_row(self, capsys):
        code, out, _ = run(capsys, "errors", "11")
        assert code == 0
        assert "no erratum" in out

    def test_out_of_range(self, capsys):
        code, _, err = run(capsys, "errors", "99")
        assert code == 2
        assert "99" in err

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "errors", "2")
        assert code == 0
        (record,) = json.loads(out)
        assert record["row"] == 2
        assert len(record["hypotheses"]) == 4
        assert any(h["rejected"] for h in record["hypotheses"])


class TestCadence:
    def test_default_cadence(self, capsys):
        code, out, _ = run(capsys, "cadence")
        assert code == 0
        assert "total span: 3600.0 s over 25 steps" in out

    def test_custom(self, capsys):
        code, out, _ = run(capsys, "cadence", "--steps", "15", "--seconds", "150")
        assert code == 0
        assert "total span: 2100.0 s" in out

    def test_bad_steps(self, capsys):
        code, _, err = run(capsys, "cadence", "--steps", "0")
        assert code == 2
        assert "at least one" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--line", "0"),
        ("verify", "--line", "99"),
        ("errors", "0"),
        ("enumerate", "--range", "5"),
        ("enumerate", "--max-generator", "1"),
        ("--output", "/nonexistent/x", "verify"),
        ("convert", "values", "3/4"),
        ("enumerate", "--range", "80:95"),
        ("cadence", "--seconds", "nan"),
        ("cadence", "--seconds", "inf"),
        ("reconstruct", "\u0662\u0664.\u0663\u0660"),  # 24.30 in Arabic-Indic digits
    ],
    ids=" ".join,
)
def test_malformed_input_exits_2_with_one_error_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


# stdout sha256 and exit code of each command under each --format,
# captured before the CLI's output paths were folded into one; a change
# to any output byte must show up here.
GOLDEN_CASES = [
    ('text', 'verify', 0, "a3b6bc4823dfb50fb84c0072d170ecc3ff9e4d48ae562951edc07638884748f0"),
    ('text', 'verify --use-inscribed', 1, "b87c6d79d9e8db0376d6e9ffe2e07668ea9fefe1c9489adb95b643da6c0390f9"),
    ('text', 'verify --line 3', 0, "adc7049ec4cdba7c48a26635b73cd676d91d63c90b8d1d5a23609496eb765aa0"),
    ('text', 'reconstruct 24.30', 0, "cc8c602eaa410645592c9ba213953315bf7aa58548944a07338d2ca099efa829"),
    ('text', 'reconstruct 10.40 --shorten max', 0, "c4601894d81feb24a45fbb09a90557256bef5fa8de9805de25e9ef8c95ba5376"),
    ('text', 'convert triple 4601 6649 4800', 0, "d3dfb14529142cf78a52c3fc4e996f20371e197105672bc9763a202ebb5cd5a1"),
    ('text', 'convert values 3/4 5/4', 0, "183c091b10714c31b77525f6fdf0d1dfeb5e877729a0c166cfce8775db087801"),
    ('text', 'errors', 0, "6f67d87b31de52ba2b596c8ae5443676d7001147ccf97ff9dc69758c266c019a"),
    ('text', 'errors 2', 0, "712e0ccc0e01a57af0158bd185965bdae502316b1ed34f47ab18e1053ca4d5f4"),
    ('text', 'enumerate --mark-tablet --gaps', 0, "fbe7f89b1b8fa8068f5c28acaed393b6bead01659170e2c596c31e1fe9dfa53c"),
    ('text', 'cadence --steps 15', 0, "bba5cc82d6f5d64dac549b18d6f8b4aa508d81b7e8264cb67c8c42b782d71086"),
    ('csv', 'verify', 0, "a0f00a76f80978f24780413c983984e3773bcf5442b590e4d3e536d0b74c4cb6"),
    ('csv', 'verify --use-inscribed', 1, "e2af88df419fa6617780874adcead721874349bc82b65e8b77f39f28cf3ba8b3"),
    ('csv', 'verify --line 3', 0, "1e7646f776692aa4c26f72c6082b0197a5841ed74602754c95cf93114fd5b8e5"),
    ('csv', 'reconstruct 24.30', 0, "cc8c602eaa410645592c9ba213953315bf7aa58548944a07338d2ca099efa829"),
    ('csv', 'reconstruct 10.40 --shorten max', 0, "c4601894d81feb24a45fbb09a90557256bef5fa8de9805de25e9ef8c95ba5376"),
    ('csv', 'convert triple 4601 6649 4800', 0, "d3dfb14529142cf78a52c3fc4e996f20371e197105672bc9763a202ebb5cd5a1"),
    ('csv', 'convert values 3/4 5/4', 0, "183c091b10714c31b77525f6fdf0d1dfeb5e877729a0c166cfce8775db087801"),
    ('csv', 'errors', 0, "6f67d87b31de52ba2b596c8ae5443676d7001147ccf97ff9dc69758c266c019a"),
    ('csv', 'errors 2', 0, "712e0ccc0e01a57af0158bd185965bdae502316b1ed34f47ab18e1053ca4d5f4"),
    ('csv', 'enumerate --mark-tablet --gaps', 0, "fbe7f89b1b8fa8068f5c28acaed393b6bead01659170e2c596c31e1fe9dfa53c"),
    ('csv', 'cadence --steps 15', 0, "bba5cc82d6f5d64dac549b18d6f8b4aa508d81b7e8264cb67c8c42b782d71086"),
    ('json', 'verify', 0, "10f2683d60271affea218be098e7c1fd60b480947e7b3a3f1d8c9390a2dd47e3"),
    ('json', 'verify --use-inscribed', 1, "e75f200cd6efb5579b08a20bd0fe81be7231c9cfa9e528bbaf730cc025c964e4"),
    ('json', 'verify --line 3', 0, "6b592a35d8912d969051a363267a3ab9e9fc86a934bc290b043f2b9682134b28"),
    ('json', 'reconstruct 24.30', 0, "935980605c38a10a67809a42f80a456d65eca7927ed195035e4eb8cea740dc94"),
    ('json', 'reconstruct 10.40 --shorten max', 0, "188d3eb11c555a2d5e6ce6dd7785f6477d57ecf46e80167b034f6131c89b8f00"),
    ('json', 'convert triple 4601 6649 4800', 0, "ec455ac3b67db114095df88024948dabd42a655777745006b32b4025b6f5f891"),
    ('json', 'convert values 3/4 5/4', 0, "d07cab2068669364278ba22bfe74890be971f56b39f556fa49fcf4845ab056e8"),
    ('json', 'errors', 0, "25e3758b3b405c4cc369bb9ca454bc32c4f7b8f306539781c7afaec484e3ccf1"),
    ('json', 'errors 2', 0, "fbf4ef6fea0f03cee4ea350253c24d5aba111d764739869503ed333dc7ae8b52"),
    ('json', 'enumerate --mark-tablet --gaps', 0, "1d7bbfa53812b2c45ca09306ebad198bd64389d0eb480878e4a185576e6e2863"),
    ('json', 'cadence --steps 15', 0, "ab4a46a8ca50747b66133aaf0d0895744818d11063e71f0a9bae03f3254898a7"),
    ('md', 'verify', 0, "7dea29bf799b92b66f6596eab9a6c24afb13481571809c7decc0a9d88ab10074"),
    ('md', 'verify --use-inscribed', 1, "1489440691ff22916d76398ace9bae02f02e4ab30957f4f738f2d94b0131cab2"),
    ('md', 'verify --line 3', 0, "0a3f10794783253e4f927eae37e807a50ce521654057e4f392d2d8fbd2c519e8"),
    ('md', 'reconstruct 24.30', 0, "cc8c602eaa410645592c9ba213953315bf7aa58548944a07338d2ca099efa829"),
    ('md', 'reconstruct 10.40 --shorten max', 0, "c4601894d81feb24a45fbb09a90557256bef5fa8de9805de25e9ef8c95ba5376"),
    ('md', 'convert triple 4601 6649 4800', 0, "d3dfb14529142cf78a52c3fc4e996f20371e197105672bc9763a202ebb5cd5a1"),
    ('md', 'convert values 3/4 5/4', 0, "183c091b10714c31b77525f6fdf0d1dfeb5e877729a0c166cfce8775db087801"),
    ('md', 'errors', 0, "6f67d87b31de52ba2b596c8ae5443676d7001147ccf97ff9dc69758c266c019a"),
    ('md', 'errors 2', 0, "712e0ccc0e01a57af0158bd185965bdae502316b1ed34f47ab18e1053ca4d5f4"),
    ('md', 'enumerate --mark-tablet --gaps', 0, "cb46dc57cac9689177ec0a9916b6258b796aa1ee022bc0f69c547c07cb5e42b7"),
    ('md', 'cadence --steps 15', 0, "bba5cc82d6f5d64dac549b18d6f8b4aa508d81b7e8264cb67c8c42b782d71086"),
]


@pytest.mark.parametrize("fmt,command,code,digest", GOLDEN_CASES)
def test_golden_output(capsys, fmt, command, code, digest):
    got, out, _ = run(capsys, "--format", fmt, *command.split())
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
