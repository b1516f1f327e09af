import json
import pathlib

import pytest
from conftest import count_enumerations

from perfectcover import catalog, construction
from perfectcover.cli import main
from perfectcover.errors import InputError
from perfectcover.groups import ENUMERATION_CAP
from perfectcover.groupfile import (
    parse_family_file,
    parse_group_file,
    parse_group_text,
)


def test_parse_group_file_a5(tmp_path):
    path = tmp_path / "a5.grp"
    path.write_text("# alternating group\ndegree 5\n(1 2 3 4 5)\n(1 2 3)\n")
    G = parse_group_file(str(path))
    assert G.order == 60


def test_parse_group_file_trivial(tmp_path):
    path = tmp_path / "t.grp"
    path.write_text("degree 3\n")
    assert parse_group_file(str(path)).order == 1


def test_parse_group_file_errors():
    with pytest.raises(InputError) as err:
        parse_group_text("degree 3\n(1 2 2)\n", source="test")
    assert "test:2" in str(err.value)
    with pytest.raises(InputError):
        parse_group_text("order 3\n", source="test")
    with pytest.raises(InputError):
        parse_group_text("", source="test")


def test_parse_family_file(tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text(
        "group A5 catalog:A5\ngroup P catalog:PSL27\nparams d=2 k=1\n"
    )
    names, members, d, k = parse_family_file(str(fam))
    assert names == ["A5", "P"]
    assert [G.order for G in members] == [60, 168]
    assert (d, k) == (2, 1)


def test_parse_family_file_requires_params(tmp_path):
    fam = tmp_path / "family.txt"
    fam.write_text("group A5 catalog:A5\n")
    with pytest.raises(InputError):
        parse_family_file(str(fam))


def test_catalog_self_test():
    for name in catalog.names():
        entry = catalog.CATALOG[name]
        assert entry.group().order == entry.order, name


def test_cli_analyze(capsys):
    assert main(["analyze", "catalog:SL25"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "G_0 |G_0|=120"
    assert out[1] == "G_1 |G_1|=2"
    assert out[2] == "G_2 |G_2|=1"
    assert out[3] == "level=2 perfect=true dmin=2"


def test_cli_analyze_imperfect(capsys):
    assert main(["analyze", "catalog:S3"]) == 0
    out = capsys.readouterr().out
    assert "perfect=false" in out
    assert "abelianization=2" in out


def test_cli_catalog(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "SL25" in out and "E16A5" in out


def test_cli_cover(capsys):
    assert main(["cover", "catalog:A5", "--class", "(1 2)(3 4)"]) == 0
    out = capsys.readouterr().out
    assert "covering number e=2" in out


def test_cli_cover_witness(capsys):
    assert main(
        ["cover", "catalog:A5", "--class", "(1 2)(3 4)", "--witness", "(1 2 3)"]
    ) == 0
    out = capsys.readouterr().out
    assert "(1 2 3) =" in out


def test_cli_cover_witness_walks_the_group_once(capsys, monkeypatch):
    # the simplicity check, the covering number and the decomposition read
    # one walk of A5's classes
    enumerated = count_enumerations(monkeypatch)
    assert main(
        ["cover", "catalog:A5", "--class", "(1 2 3)", "--witness", "(1 2)(3 4)"]
    ) == 0
    assert enumerated == [("conjugacy_classes", 60, ENUMERATION_CAP)]


def test_cli_cover_default_class_keeps_the_cap(capsys, monkeypatch):
    enumerated = count_enumerations(monkeypatch)
    assert main(["cover", "catalog:A5", "--cap", "500"]) == 0
    assert "class of (3 4 5): size 20" in capsys.readouterr().out
    assert enumerated
    assert all(cap == 500 for _, _, cap in enumerated)


@pytest.mark.parametrize(
    "args",
    [
        ["--class", "(1 2 3)", "--witness", "(1 2 3 4 5 6)"],
        ["--class", "(1 2 3 4 5 6)", "--witness", "(1 2 3)"],
        ["--witness", "(1 2"],
    ],
    ids=["witness", "class", "unclosed-witness"],
)
def test_cli_cover_parses_before_it_prints(capsys, args):
    assert main(["cover", "catalog:A5", *args]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_cli_cover_witness_outside_the_group(capsys):
    # (1 2) is odd: the fault is the element, not the number of rounds
    assert main(["cover", "catalog:A5", "--witness", "(1 2)"]) == 1
    err = capsys.readouterr().err
    assert "element is not in the group" in err
    assert "rounds" not in err


def test_cli_construct_verify_round_trip(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("group A5 catalog:A5\nparams d=2 k=1\n")
    cert_path = tmp_path / "cert.json"
    assert main(
        ["construct", str(fam), "--seed", "7", "--budget", "2", "-o", str(cert_path)]
    ) == 0
    capsys.readouterr()
    assert main(["verify", str(cert_path)]) == 0
    out = capsys.readouterr().out
    assert "certificate valid" in out

    # construct twice with the same seed: byte-identical output
    cert2 = tmp_path / "cert2.json"
    assert main(
        ["construct", str(fam), "--seed", "7", "--budget", "2", "-o", str(cert2)]
    ) == 0
    assert cert_path.read_bytes() == cert2.read_bytes()


@pytest.mark.parametrize("budget", ["-3", "0", "1"])
def test_cli_construct_rejects_a_budget_below_2(tmp_path, capsys, monkeypatch, budget):
    # refused before any search: admissibility is never asked
    def refuse(*args):
        raise AssertionError("admissibility was checked")

    monkeypatch.setattr(construction, "is_in_Y", refuse)
    family = pathlib.Path(__file__).parent.parent / "bench" / "families" / "k1-cover.txt"
    cert_path = tmp_path / "cert.json"
    args = ["construct", str(family), "--budget", budget, "-o", str(cert_path)]
    assert main(args) == 1
    assert "budget must be at least 2" in capsys.readouterr().err
    assert not cert_path.exists()


def test_cli_verify_rejects_tampered(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("group A5 catalog:A5\nparams d=2 k=1\n")
    cert_path = tmp_path / "cert.json"
    main(["construct", str(fam), "--seed", "7", "--budget", "2", "-o", str(cert_path)])
    data = json.loads(cert_path.read_text())
    data["levels"][0]["words"][0] = "x1"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "words: FAIL" in out


def test_cli_verify_version_gate(tmp_path, capsys):
    fam = tmp_path / "family.txt"
    fam.write_text("group A5 catalog:A5\nparams d=2 k=1\n")
    cert_path = tmp_path / "cert.json"
    main(["construct", str(fam), "--seed", "7", "--budget", "2", "-o", str(cert_path)])
    data = json.loads(cert_path.read_text())
    data["version"] = "0.0.0"
    stale = tmp_path / "stale.json"
    stale.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(stale)]) == 1
    assert main(["verify", str(stale), "--force"]) == 0


def test_cli_bad_group_file_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.grp"
    path.write_text("degree 5\n(1 2 2)\n")
    assert main(["analyze", str(path)]) == 2


def test_cli_missing_file_exit_code(tmp_path):
    assert main(["verify", str(tmp_path / "nope.json")]) == 2


@pytest.mark.parametrize(
    "text",
    [
        '{"format":"perfectcover.certificate","version":"0.1.0"}',
        '{"format":',
        "[1,2]",
    ],
    ids=["fields-missing", "truncated", "not-an-object"],
)
def test_cli_verify_unreadable_exit_code(tmp_path, capsys, text):
    path = tmp_path / "cert.json"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_cli_verify_directory_exit_code(tmp_path, capsys):
    assert main(["verify", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err
    assert captured.err.startswith("error: ")
    assert len(captured.err.splitlines()) == 1


def test_cli_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2
