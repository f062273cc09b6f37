import csv
import enum
import hashlib
import json
import random
from pathlib import Path

import pytest

from shicone import cli
from shicone.cli import main
from shicone.posets import FinitePoset

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, _ = run_cli(capsys, *argv)
    return code, json.loads(out) if out.strip().startswith("{") else None


# -- roots ---------------------------------------------------------------------


def test_roots_b2(capsys):
    code, data = run_json(capsys, "roots", "--type", "B2")
    assert code == 0
    payload = data["payload"]
    assert data["cartan_type"] == "B2"
    assert len(payload["positive_roots"]) == 4
    assert payload["coxeter_number"] == 4
    assert payload["parking"] == 25
    assert payload["narayana"] == [1, 4, 1]


def test_roots_a1(capsys):
    code, data = run_json(capsys, "roots", "--type", "A1")
    assert code == 0
    assert data["payload"]["positive_roots"] == [[1]]


def test_roots_e8_rejected(capsys):
    code, out, err = run_cli(capsys, "roots", "--type", "E8")
    assert code == 2
    assert "error" in err
    assert "E" in err


def test_roots_sorted_by_height_then_lex(capsys):
    _, data = run_json(capsys, "roots", "--type", "B3")
    roots = data["payload"]["positive_roots"]
    keys = [(sum(r), r) for r in roots]
    assert keys == sorted(keys)


#: sha256 of ``shicone roots`` output per type, in json, csv and text.
ROOTS_SHA256 = {
    "A1": (
        "109ad456433777bcf6a3c07f37bcd091ae3f93008352406a045a19c7191250bd",
        "c1878884dc369a7427989bb21358d5ef55de58a584fc046f0160f470829c7fbf",
        "b534f42ef24b29ffa754f4c7470bc4cab168c0fe4c4a6b74abbff4705b153352",
    ),
    "A2": (
        "be9ad7ff909acf1f269f916ac982792d611fd0bb12514c0e3506ddd448adaa50",
        "f38f7cbd28cd6d6a7f1a97debca6893f2500768077caaeef6ecfb33780111ce1",
        "f3936a35e476019f499a7b1d9c31df04b0f8300fcd7c8386dc2934e626ec7757",
    ),
    "A3": (
        "08ed7b25634edda70824300472eedc3e91e20e5f16722352ae9674050b5fcf3a",
        "13017084868e00495c024940ad97430d1188a8b971f6b952551acf614fe94c50",
        "1db1d109b520beed92ae7158c14b03c8041e69b9617ebd4981356a61d3836648",
    ),
    "B2": (
        "bdb5f32fc58cd7bc7e06aa415921d3dd2e897b36d814b1bbb81e5b75d1c29d33",
        "1180db0a6a62921d2e7d49c7b3642008d162a16c8203ad62fa512826927edd0e",
        "5aeb3bf78948800b057c96d444baf7ccd60749038d2a169bc05ec46fd8dc15aa",
    ),
    "B3": (
        "d4476a05e78214fd5c3a8c65a3a879be329f2c0bc45ae7521aced6d480b5b42c",
        "f0852d23164d5a574a8cc9d983d62da903733febc80b3a35e2357562216a9bec",
        "f22201d118b82b265ba84604e1261ea22ccc40886e386ee00968b4848b78fc5e",
    ),
    "C3": (
        "edb1dca0351b8b8f878035e0cd036d6512dcb0b92191316dc9b0fd292a0504a4",
        "ed70c6960a414086e679312c1ff9d2affdf4f72061a145a44212f3e96ea4d8ab",
        "703a336db7b402310e1c05fa9eeaecc7f1a29e22995e776b6afc725772b24602",
    ),
    "D3": (
        "5e7d9c98131b0be991fa88676e5139873cfac7f9f9200697035198f4ef403823",
        "650246b9c53016b1cefb1ff6d35647241490fa7e504723d4df12a3f13fc959a1",
        "e0c27334495f6f2231ca69405c3040fd7eddf416b4d97cb9f25bedad340c32fd",
    ),
    "G2": (
        "34d253d2502c8ee85176d47e64d1ab8d8afd9a44eac9b856a4dd62eb3a2615f6",
        "2973efe65159360607a3ac3af8621119182c6b92ebadda1c80e890142ac7a093",
        "01782d07820d6b5340deaae49a1f4461dd04288466722814a19fe334960d7ab7",
    ),
    "A4": (
        "3e312561974005bb306b9d2444b68caa87662bff51cfc530f296da315c3f00cf",
        "a5f13070213741f268bcf4145129a3c9b2c9fbcdfbd48a6b3a72adf5eeb709d3",
        "1a7f0b414ef3b45bb142ac4771c475bd1b0972759e5932d4baab28544c44798d",
    ),
    "B4": (
        "cb9637b3a461fa33c67846f612283692cc42ff90b1ce516b4c8a101b8a072e90",
        "50478008d769f66bbb0dff1d5c0ee546b1a61ed9ac041319fe781b4586b06a5a",
        "372481617a632d1137e82513e5d5149dfcef32587feb4a9f71dd4445938e04af",
    ),
    "C4": (
        "13a5b73dd558d7d1a6e4779a1c014a73f0c7bb4bbc9cd6d2537ec55964abd425",
        "c46115c440152d02fc6a9ffb8bf92ebca1f1ee7c6270e35e9bc599e127d8af4f",
        "ef215d3d7758830678113d24922bad6727242c4cc8398f21c53c8d44dfeb3fa2",
    ),
    "D4": (
        "e424b7df9fe926bc35c64323137296a2ab69e493690360baf52ac778012df4bf",
        "562ff0880acf051083ad7100e3eeb15e58efe207b707b5439eaf6991f0fe976c",
        "f1c1fde6ec72688c2372134f6755ef65e8afcde8606992445df05c2aeb9dbaeb",
    ),
    "F4": (
        "98c7aaab1888b185d8d4e847368c1cfc6a43a4c44d3a099e6d2a94cc96d27076",
        "772f09e38cf2bf11ae0e682f8364ef245d01e57a35832376d018e063f0989957",
        "03e4e1e9effe85a3fc8a08cf5553b450dfedc2d8965d427439263dd5a8952cb1",
    ),
}


@pytest.mark.parametrize("name", ROOTS_SHA256)
def test_roots_bytes_pinned(capsys, name):
    """The covers are printed in the root poset's position order, with
    no sort of their own; a changed byte is a bug, never a re-pin."""
    for fmt, digest in zip(("json", "csv", "text"), ROOTS_SHA256[name]):
        code, out, _ = run_cli(capsys, "roots", "--type", name, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt


# -- cone ----------------------------------------------------------------------


def test_cone_b2_st(capsys):
    code, data = run_json(capsys, "cone", "--type", "B2", "--word", "st")
    assert code == 0
    payload = data["payload"]
    assert payload["poincare"] == [1, 2]
    assert len(payload["regions"]) == 3
    assert len(payload["flats"]) == 3


def test_cone_b2_identity(capsys):
    code, data = run_json(capsys, "cone", "--type", "B2", "--word", "")
    assert code == 0
    assert data["payload"]["poincare"] == [1, 4, 1]


def test_cone_a3_digit_word(capsys):
    code, data = run_json(capsys, "cone", "--type", "A3", "--word", "121")
    assert code == 0
    payload = data["payload"]
    assert len(payload["regions"]) == len(payload["flats"])
    assert sum(payload["poincare"]) == len(payload["regions"])


def test_cone_non_reduced_word_length(capsys):
    # s1 s1 is the identity and s1 s2 s1 s2 s1 = s2 s1 s2 in B2, whose
    # longest element has length 4
    _, ss = run_json(capsys, "cone", "--type", "B2", "--word", "11")
    _, e = run_json(capsys, "cone", "--type", "B2", "--word", "")
    _, long_word = run_json(capsys, "cone", "--type", "B2", "--word", "12121")
    assert ss["payload"]["length"] == 0
    assert ss["payload"]["inversions"] == []
    assert ss["payload"]["regions"] == e["payload"]["regions"]
    assert long_word["payload"]["length"] == 3
    assert len(long_word["payload"]["inversions"]) == 3


def test_cone_invalid_word(capsys):
    code, out, err = run_cli(capsys, "cone", "--type", "A3", "--word", "1x")
    assert code == 2
    assert "invalid generator" in err


def test_cone_letters_only_rank2(capsys):
    code, _, err = run_cli(capsys, "cone", "--type", "A3", "--word", "st")
    assert code == 2


def test_cone_letter_t_rejected_in_rank1(capsys):
    code, out, err = run_cli(capsys, "cone", "--type", "A1", "--word", "t")
    assert code == 2
    assert out == ""
    assert err == "error: invalid generator symbol 't' for rank 1\n"


def test_cone_with_deletion(capsys):
    code, data = run_json(capsys, "cone", "--type", "B2", "--e", "0,3")
    assert code == 0
    payload = data["payload"]
    assert payload["e_indices"] == [0, 3]
    assert sum(payload["poincare"]) == len(payload["regions"])


def test_cone_empty_deletion(capsys):
    code, data = run_json(capsys, "cone", "--type", "B2", "--e", "")
    assert code == 0
    assert len(data["payload"]["regions"]) == 1


def test_cone_deletion_bad_index(capsys):
    code, _, err = run_cli(capsys, "cone", "--type", "B2", "--e", "0,9")
    assert code == 2


def test_cone_deletion_unparsable_index(capsys):
    code, out, err = run_cli(capsys, "cone", "--type", "B2", "--e", "1,x")
    assert code == 2
    assert out == ""
    assert err == "error: cannot parse index list '1,x'\n"


@pytest.mark.parametrize(
    "word, symbol",
    [("\u0661\u0662", "\u0661"), ("\u00b2", "\u00b2"), ("1\uff12", "\uff12")],
)
def test_cone_non_ascii_digit_rejected(capsys, word, symbol):
    # Arabic-Indic, superscript and fullwidth digits are not generators,
    # though str.isdigit accepts them and int() reads the first as 1
    code, out, err = run_cli(capsys, "cone", "--type", "A3", "--word", word)
    assert code == 2
    assert out == ""
    assert err == f"error: invalid generator symbol {symbol!r} for rank 3\n"


@pytest.mark.parametrize("text", ["1_0", "\u0661", "0,\u00b3", "+1", "-0"])
def test_cone_deletion_non_ascii_or_signed_index_rejected(capsys, text):
    # int() would read 1_0 as 10, the Arabic-Indic one as 1, +1 as 1 and -0 as 0
    code, out, err = run_cli(capsys, "cone", "--type", "B2", "--e", text)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot parse index list {text!r}\n"


def test_cone_deletion_spaces_around_indices(capsys):
    _, spaced = run_json(capsys, "cone", "--type", "B2", "--e", " 0 , 3 ")
    _, plain = run_json(capsys, "cone", "--type", "B2", "--e", "0,3")
    assert spaced == plain


def test_cone_non_ascii_rank_rejected(capsys):
    code, out, err = run_cli(capsys, "cone", "--type", "B\u0662")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot parse Cartan type 'B\u0662'")


def test_cone_above_the_kernel_bound_fails_before_the_antichain_walk(capsys, monkeypatch):
    # A14's root poset has 9,694,845 antichains, too many to walk, so the
    # kernel's bound must refuse the request before the walk
    def no_walk(self):
        raise AssertionError("antichain walk above the kernel bound")

    monkeypatch.setattr(FinitePoset, "antichains", no_walk)
    code, out, err = run_cli(capsys, "cone", "--type", "A14", "--e", "0,1")
    assert code == 2
    assert out == ""
    assert err == "error: dimension 14 exceeds the supported bound 4\n"


def test_cone_word_and_deletion_rejected(capsys):
    code, out, err = run_cli(capsys, "cone", "--type", "B2", "--word", "12", "--e", "0,3")
    assert code == 2
    assert out == ""
    assert "--word" in err


# sha256 of each golden with its regions' "witness" fields removed, as
# ``json.dumps(..., sort_keys=True)``: a witness is whatever interior point
# the kernel returns, and moves when the kernel's rows do, but any change
# to an ideal, ceiling, flat or polynomial changes these.
GOLDEN_SKELETONS = {
    "cone_B2_12.json": "5f9d05d0933e969210d1cd385336efb09f15be5506d5f4269372a1ec977e8268",
    "cone_B3_123.json": "8ab7e309c344568cdf99c7ffaa42a9088f4d1f1c8ed9b56d97bfe389620b805f",
    "cone_A3_e012345.json": "8b03be57c97e6b17fee0da855aaf05dce31ae9645278aeaef8bf32470103e14a",
    "cone_C3_e025.json": "92b44025a721baf229f6fed6b678467794c117a6b5ff08fb20bf7e6a49e0f15a",
}


@pytest.mark.parametrize(
    "golden, argv",
    [
        ("cone_B2_12.json", ["--type", "B2", "--word", "12"]),
        ("cone_B3_123.json", ["--type", "B3", "--word", "123"]),
        ("cone_A3_e012345.json", ["--type", "A3", "--e", "0,1,2,3,4,5"]),
        ("cone_C3_e025.json", ["--type", "C3", "--e", "0,2,5"]),
    ],
)
def test_cone_golden_bytes(capsys, golden, argv):
    code, out, _ = run_cli(capsys, "cone", *argv)
    assert code == 0
    text = (DATA / golden).read_text()
    assert out == text
    data = json.loads(text)
    for region in data["payload"]["regions"]:
        del region["witness"]
    skeleton = hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()
    assert skeleton == GOLDEN_SKELETONS[golden]


# -- verify ----------------------------------------------------------------------


def test_verify_b2_all(capsys):
    code, data = run_json(capsys, "verify", "--type", "B2")
    assert code == 0
    payload = data["payload"]
    assert payload["all_passed"] is True
    names = {c["name"] for c in payload["checks"]}
    assert "region_ceiling_bijection" in names
    assert "counting_identities" in names


def test_verify_a1_single_theorem(capsys):
    code, data = run_json(capsys, "verify", "--type", "A1", "--theorem", "2")
    assert code == 0
    assert [c["name"] for c in data["payload"]["checks"]] == [
        "flat_antichain_bijection"
    ]


def test_verify_a2_level_two(capsys):
    code, data = run_json(capsys, "verify", "--type", "A2", "--m", "2")
    assert code == 0
    details = data["payload"]["checks"][0]["details"]
    assert "11 flats vs 12 regions" in details
    assert "max|mu|=2" in details


@pytest.mark.parametrize("m", ["0", "-3"])
def test_verify_level_below_one_rejected(capsys, m):
    code, out, err = run_cli(capsys, "verify", "--type", "A2", "--m", m)
    assert code == 2
    assert out == ""
    assert "m >= 1" in err


def test_verify_theorem_with_level_rejected(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--type", "A2", "--theorem", "1", "--m", "2"
    )
    assert code == 2
    assert out == ""
    assert "needs m = 1" in err


def test_verify_deterministic_apart_from_elapsed(capsys):
    def run():
        code, data = run_json(capsys, "verify", "--type", "A2", "--theorem", "1")
        assert code == 0
        for check in data["payload"]["checks"]:
            assert check.pop("elapsed_s") >= 0
        return data

    assert run() == run()


def test_verify_bound_violation_reported(capsys):
    code, _, err = run_cli(capsys, "verify", "--type", "B4", "--m", "2")
    assert code == 2
    assert "rank" in err


def test_verify_failure_exit_code(capsys, monkeypatch):
    import shicone.verify as verify_mod

    def broken(ctx):
        raise verify_mod._Failure("forced failure for exit-code test")

    monkeypatch.setitem(
        verify_mod._THEOREM_CHECKS, "1", [("region_ceiling_bijection", broken)]
    )
    code, data = run_json(capsys, "verify", "--type", "A1", "--theorem", "1")
    assert code == 1
    assert data["payload"]["all_passed"] is False


# -- orderring --------------------------------------------------------------------


def test_orderring_from_file(tmp_path, capsys):
    poset = {
        "elements": [1, 2, 3, 4, 5],
        "covers": [[0, 2], [1, 2], [2, 3], [2, 4]],
    }
    path = tmp_path / "poset.json"
    path.write_text(json.dumps(poset))
    code, data = run_json(capsys, "orderring", "--poset-file", str(path))
    assert code == 0
    payload = data["payload"]
    assert payload["hilbert"] == [1, 5, 2]
    assert len(payload["vertices"]) == 8
    assert len(payload["generators"]) == 13


def test_orderring_b2(capsys):
    code, data = run_json(capsys, "orderring", "--type", "B2")
    assert code == 0
    assert data["payload"]["hilbert"] == [1, 4, 1]


def test_orderring_empty_poset(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"elements": [], "covers": []}))
    code, data = run_json(capsys, "orderring", "--poset-file", str(path))
    assert code == 0
    assert data["payload"]["hilbert"] == [1]
    assert data["payload"]["vertices"] == [[]]


#: Elements with a comma, a quote, a non-ASCII letter and the empty string.
PINNED_POSET = {
    "elements": ["a,b", 'say "hi"', "\u00e9t\u00e9", "", "z"],
    "covers": [[0, 1], [1, 2], [3, 2], [3, 4]],
}


@pytest.mark.parametrize(
    "source, fmt, digest",
    [
        ("F4", "json", "d46f9ceef752597cd7d210672e311117c9c2fbfdedd280e0201d3001a0d2eae6"),
        ("F4", "csv", "5a018e19a7f8c987418146e2340bad5c8bedf26dbc486df6000443f2ea6017fd"),
        ("F4", "text", "c39b779505e4279fcd57a89bcf5d0aa76fc85048cefa94b0e6e44b892556b3d0"),
        ("file", "json", "d5f1f6eec31918a37b25fe8606a20b7d4948a7affb09a16e8473cb2fc51cea22"),
        ("file", "csv", "6327a602b7fcf29cd57799339e562093c1230c3ecd068a5b3b0de1e0d82017e3"),
        ("file", "text", "e8a4962bfeb4523805c064729984a477d72c6dc2deda4f41d7a87158593ef5f3"),
    ],
)
def test_orderring_bytes_pinned(tmp_path, capsys, source, fmt, digest):
    """The digests were taken before the CLI had its own json writer; a
    changed byte is a bug, never a re-pin."""
    if source == "file":
        path = tmp_path / "poset.json"
        path.write_text(json.dumps(PINNED_POSET))
        argv = ["--poset-file", str(path)]
    else:
        argv = ["--type", source]
    code, out, _ = run_cli(capsys, "orderring", *argv, "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        '{"elements": [1, 2], "covers": [[0, 5]]}',
        '{"elements": [1, 2, 3], "covers": [[-1, 0]]}',
        '{"elements": [1, 2], "covers": [[1, 1]]}',
        '{"elements": "ab", "covers": [[0, 1]]}',
        '{"elements": [1, 2], "covers": {}}',
        '{"elements": [1, 2], "covers": ""}',
    ],
    ids=[
        "not-json",
        "cover-past-end",
        "cover-negative",
        "self-cover",
        "elements-string",
        "covers-object",
        "covers-string",
    ],
)
def test_orderring_malformed_file(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, _, err = run_cli(capsys, "orderring", "--poset-file", str(path))
    assert code == 2
    assert "malformed poset file" in err


def test_orderring_needs_input(capsys):
    code, _, err = run_cli(capsys, "orderring")
    assert code == 2


def test_orderring_type_and_file_rejected(tmp_path, capsys):
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"elements": [1, 2], "covers": [[0, 1]]}))
    code, out, err = run_cli(
        capsys, "orderring", "--type", "B2", "--poset-file", str(path)
    )
    assert code == 2
    assert out == ""
    assert "error: --type and --poset-file cannot be combined" in err


# -- output handling ----------------------------------------------------------------


def test_json_round_trip_and_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "cone", "--type", "B2", "--word", "st")
    code2, out2, _ = run_cli(capsys, "cone", "--type", "B2", "--word", "st")
    assert code1 == code2 == 0
    assert out1 == out2
    data = json.loads(out1)
    assert json.dumps(data, sort_keys=True, indent=2) + "\n" == out1


def test_csv_format(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "B2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "command,roots"
    assert "narayana,1,4,1" in lines


def test_csv_cells_are_quoted_and_kept(tmp_path, capsys):
    # a comma inside a cell and an empty cell survive a CSV reader
    path = tmp_path / "poset.json"
    path.write_text(json.dumps({"elements": ["a,b", "c", ""], "covers": [[0, 1]]}))
    code, out, _ = run_cli(
        capsys, "orderring", "--poset-file", str(path), "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert ["elements", "a,b", "c", ""] in rows
    code, out, _ = run_cli(
        capsys, "verify", "--type", "A2", "--theorem", "1", "--format", "csv"
    )
    assert code == 0
    details = [r for r in csv.reader(out.splitlines()) if r[0] == "checks[0].details"]
    assert details == [["checks[0].details", "6 cones, 16 regions, 15 facet probes"]]


def test_csv_and_text_read_tuples_as_lists():
    def as_lists(value):
        if isinstance(value, dict):
            return {k: as_lists(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [as_lists(v) for v in value]
        return value

    payload = {
        "rows": ((0, 1), (1, 1), ()),
        "mixed": [("a,b", 'q"'), [1, (2, (3, "z"))], ()],
        "deep": {"x": (((),),), "y": ("", -1)},
        "empty": (),
    }
    for fmt in ("csv", "text"):
        assert cli.render("c", "t", payload, fmt) == cli.render(
            "c", "t", as_lists(payload), fmt
        )


def test_text_format(capsys):
    code, out, _ = run_cli(capsys, "roots", "--type", "A1", "--format", "text")
    assert code == 0
    assert out.startswith("roots A1")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out, _ = run_cli(
        capsys, "roots", "--type", "B2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    data = json.loads(target.read_text())
    assert data["payload"]["parking"] == 25


def test_out_file_unwritable(tmp_path, capsys):
    # a failed write is a usage error (exit 2); exit 1 means a failed check
    target = tmp_path / "missing" / "result.json"
    code, out, err = run_cli(
        capsys, "roots", "--type", "B2", "--out", str(target)
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert not target.parent.exists()


# -- one parser per process ------------------------------------------------------------

#: ``orderring --type B2`` in json, as the CLI wrote it before it kept its parser.
ORDERRING_B2_SHA256 = "97462f9b482ff20522f5d29b0c8444096c51acf74e6bb50967af5a20fb440fc3"


def test_parser_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_out_file_then_stdout(tmp_path, capsys):
    target = tmp_path / "result.json"
    assert run_cli(capsys, "roots", "--type", "B2", "--out", str(target))[:2] == (0, "")
    code, out, _ = run_cli(capsys, "roots", "--type", "B2")
    assert code == 0
    assert out == target.read_text()


def test_parse_error_then_valid_request(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["orderring", "--type", "B2", "--format", "yaml"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, err = run_cli(capsys, "orderring", "--type", "B2")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == ORDERRING_B2_SHA256


def test_failing_verify_then_passing_verify(capsys, monkeypatch):
    import shicone.verify as verify_mod

    def broken(ctx):
        raise verify_mod._Failure("forced failure")

    argv = ("verify", "--type", "A1", "--theorem", "1")
    with monkeypatch.context() as patch:
        patch.setitem(verify_mod._THEOREM_CHECKS, "1", [("region_ceiling_bijection", broken)])
        code, data = run_json(capsys, *argv)
        assert (code, data["payload"]["all_passed"]) == (1, False)
    code, data = run_json(capsys, *argv)
    assert (code, data["payload"]["all_passed"]) == (0, True)


# -- the json writer -----------------------------------------------------------------


def stdlib_json(payload, command="c", cartan_type="t") -> str:
    """The json output as ``render`` promises it."""
    record = {"command": command, "cartan_type": cartan_type, "payload": payload}
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


#: Characters for random strings: ASCII, quotes and backslashes, control
#: characters, non-ASCII letters and an astral-plane character.
ALPHABET = "ab Z09,\"\\/\n\t\r\x00\x1f\x7f\u00e9\u0416\u2028\ud83d\ude00\U0001f600"

FLOATS = [-0.0, 0.0, 1e300, -1e-300, 0.5, float("inf"), float("-inf")]


def random_string(rng) -> str:
    return "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 6)))


def random_value(rng, depth: int):
    """A random JSON-able value: every kind the writer handles itself
    and every kind it hands to ``json.dumps``, with empty containers
    possible at every depth."""
    scalars = [
        lambda: rng.randint(-5, 5),
        lambda: rng.choice([-1, 1]) * rng.randint(0, 10**40),
        lambda: rng.choice([True, False, None]),
        lambda: rng.choice(FLOATS + [rng.uniform(-1e6, 1e6)]),
        lambda: random_string(rng),
    ]
    containers = [
        lambda: [rng.randint(-(10**30), 10**30) for _ in range(rng.randint(0, 5))],
        lambda: [rng.choice([0, 1, True, False]) for _ in range(rng.randint(0, 4))],
        lambda: [random_string(rng) for _ in range(rng.randint(0, 5))],
        lambda: [random_value(rng, depth - 1) for _ in range(rng.randint(0, 4))],
        lambda: tuple(random_value(rng, depth - 1) for _ in range(rng.randint(0, 3))),
        lambda: {
            random_string(rng): random_value(rng, depth - 1)
            for _ in range(rng.randint(0, 4))
        },
        lambda: {rng.randint(-9, 9): random_value(rng, depth - 1) for _ in range(2)},
        lambda: {},
        lambda: [],
    ]
    if depth <= 0:
        return rng.choice(scalars + containers[-2:])()
    return rng.choice(scalars + containers)()


def test_writer_matches_json_dumps_on_random_payloads():
    rng = random.Random(23)
    for _ in range(5000):
        payload = random_value(rng, rng.randint(0, 5))
        assert cli.render("c", "t", payload, "json") == stdlib_json(payload)


def captured_payloads(monkeypatch, capsys, *argv) -> list:
    """The payloads ``main`` renders for ``argv``."""
    seen = []
    render = cli.render

    def spy(command, cartan_type, payload, fmt):
        seen.append(payload)
        return render(command, cartan_type, payload, fmt)

    monkeypatch.setattr(cli, "render", spy)
    main(list(argv))
    capsys.readouterr()
    monkeypatch.setattr(cli, "render", render)
    return seen


#: A poset whose elements are JSON scalars of every kind.
SCALAR_POSET = {
    "elements": [True, None, 2.5, "a", -3],
    "covers": [[0, 2], [1, 2], [2, 3]],
}


def scalar_poset_argv(tmp_path) -> list:
    path = tmp_path / "scalars.json"
    path.write_text(json.dumps(SCALAR_POSET))
    return ["orderring", "--poset-file", str(path)]


@pytest.mark.parametrize(
    "argv",
    [
        ["roots", "--type", "B3"],
        ["cone", "--type", "B3", "--word", "121"],
        ["verify", "--type", "A2", "--theorem", "1"],
        ["orderring", "--type", "B3"],
        ["cone", "--type", "C3", "--e", "0,2,5"],
        ["verify", "--type", "A2", "--m", "2"],
        SCALAR_POSET,
    ],
)
def test_writer_matches_json_dumps_on_real_records(tmp_path, monkeypatch, capsys, argv):
    if argv is SCALAR_POSET:
        argv = scalar_poset_argv(tmp_path)
    (payload,) = captured_payloads(monkeypatch, capsys, *argv)
    assert cli.render("c", "t", payload, "json") == stdlib_json(payload)


def test_orderring_record_never_reaches_json_dumps(tmp_path, monkeypatch, capsys):
    # the root poset's cells are ints, the file's every kind of JSON scalar
    for label, argv in [
        ("F4", ["orderring", "--type", "F4"]),
        ("-", scalar_poset_argv(tmp_path)),
    ]:
        (payload,) = captured_payloads(monkeypatch, capsys, *argv)
        calls = []
        dumps = json.dumps

        def counting(*args, **kwargs):
            calls.append(args)
            return dumps(*args, **kwargs)

        monkeypatch.setattr(cli.json, "dumps", counting)
        text = cli.render("orderring", label, payload, "json")
        monkeypatch.setattr(cli.json, "dumps", dumps)
        assert calls == []
        assert text == stdlib_json(payload, "orderring", label)


class Colour(enum.IntEnum):
    RED = 1


#: Strings that look like the seams and the escapes of the table writer,
#: or hold the brackets and braces its shape check counts.
TABLE_STRINGS = [
    "]",
    ", ",
    "],\n    [",
    "[\n    \n  ]",
    "],\n      ",
    '"]"',
    "\\",
    "\n",
    "\x00\x1f",
    "[",
    "{",
    "}",
]


def random_row(rng):
    """A row of JSON scalars, as a list or a tuple."""
    cells = [
        lambda: rng.randint(-5, 5),
        lambda: rng.choice([-1, 1]) * (2**64 + rng.randint(0, 10**30)),
        lambda: random_string(rng) + "], " + random_string(rng),
        lambda: rng.choice(TABLE_STRINGS),
        lambda: rng.choice(FLOATS + [True, False, None, Colour.RED]),
    ]
    kinds = rng.sample(cells, rng.randint(1, len(cells)))
    row = [rng.choice(kinds)() for _ in range(rng.choice([0, 1, 2, 5]))]
    return tuple(row) if rng.random() < 0.5 else row


def odd_row(rng):
    """A row with one cell that is not a scalar."""
    row = list(random_row(rng))
    odd = rng.choice([[1, "a"], [], (2,), [[]], {}, {"k": 1}, {"a": [1]}])
    row.insert(rng.randint(0, len(row)), odd)
    return tuple(row) if rng.random() < 0.5 else row


def nest(rng, value, depth: int):
    """``value`` inside ``depth`` random dicts and lists."""
    for _ in range(depth):
        value = rng.choice(
            [
                lambda v: {"k": v},
                lambda v: {"a": [], "k": v, "z": 1},
                lambda v: [v],
                lambda v: [1, v, "s"],
                lambda v: [v, v],
            ]
        )(value)
    return value


def not_all_scalars(rows) -> bool:
    """Whether some cell is a list, tuple or dict, or a string holding
    a bracket or brace, which is when ``_table`` must refuse the rows."""
    return any(
        isinstance(cell, (list, tuple, dict))
        or isinstance(cell, str) and ("[" in cell or "{" in cell)
        for row in rows
        for cell in row
    )


def test_writer_matches_json_dumps_on_tables(monkeypatch):
    calls = []
    table = cli._table

    def counting(rows, pad):
        text = table(rows, pad)
        assert (text is None) == not_all_scalars(rows)
        calls.append(len(rows))
        return text

    monkeypatch.setattr(cli, "_table", counting)
    rng = random.Random(31)
    fixed = [
        [],
        [[]],
        [()],
        [[], [], ()],
        [[], [1, 2]],
        [[1], (), ["a"]],
        [(1, "b"), []],
        [[0, 1], (1, 1), [-7, 2**70]],
        [["]", ", "], ("\n", '"'), ["\\", "\x01", "\U0001f600"]],
        # a one-item nested list adds a bracket but no separator
        [[1, [2]], [3]],
        [(1,), [[]]],
        [[{"a": 1}], [2]],
        [[{}], ()],
        [["["], ["{"], ["],\n      "]],
        [["a]", 1], ("{b", "}")],
        [[0.5, -0.0, 1e300], (float("inf"), float("-inf")), [True, False, None]],
        [[Colour.RED, 1], (Colour.RED,), [None]],
    ]
    tables = fixed + [
        [random_row(rng) for _ in range(rng.randint(1, 6))] for _ in range(300)
    ]
    for rows in tables:
        for depth in range(4):
            payload = nest(rng, rows, depth)
            calls.clear()
            assert cli.render("c", "t", payload, "json") == stdlib_json(payload)
            assert calls or not rows
    for _ in range(300):
        rows = [random_row(rng) for _ in range(rng.randint(0, 4))]
        rows.insert(rng.randint(0, len(rows)), odd_row(rng))
        payload = nest(rng, rows, rng.randint(0, 3))
        assert cli.render("c", "t", payload, "json") == stdlib_json(payload)


def test_orderring_tables_skip_the_row_recursion(tmp_path, monkeypatch, capsys):
    """Rows are written by one call, so a poset with thousands of
    antichains costs as many ``_dumps`` calls as B2's root poset."""
    # two covers among 12 elements: 3 * 3 * 2**8 = 2304 antichains
    path = tmp_path / "poset.json"
    names = [f"e{i}" for i in range(12)]
    path.write_text(json.dumps({"elements": names, "covers": [[0, 1], [2, 3]]}))
    small, large = (
        captured_payloads(monkeypatch, capsys, "orderring", *argv)[0]
        for argv in (["--type", "B2"], ["--poset-file", str(path)])
    )
    assert len(large["standard_monomials"]) == 2304
    calls = []
    dumps = cli._dumps

    def counting(value, pad=""):
        calls.append(pad)
        return dumps(value, pad)

    monkeypatch.setattr(cli, "_dumps", counting)
    counts = []
    for payload in (small, large):
        calls.clear()
        assert cli.render("orderring", "t", payload, "json") == stdlib_json(
            payload, "orderring"
        )
        counts.append(len(calls))
    assert counts[0] == counts[1]
