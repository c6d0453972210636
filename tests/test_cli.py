"""Command line interface: JSON contracts, exit codes, file outputs."""

import json

import pytest

from sumsetchains.cli import main
from sumsetchains.search import kernel_digest


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestMu:
    def test_profile(self, capsys):
        code, got = run_json(capsys, "mu", "--k", "5", "--t", "12")
        assert code == 0
        assert got == {"b": 1, "c": 3, "k": 5, "mu": 8, "t": 12}

    def test_out_of_range(self, capsys):
        code = main(["mu", "--k", "5", "--t", "99"])
        assert code == 1
        assert "out of range" in capsys.readouterr().err


class TestDim:
    def test_two_dimensional(self, capsys):
        code, got = run_json(capsys, "dim", "--set", "{0,1,2,5}")
        assert code == 0
        assert got == {"dim": 2, "lambda": 1, "set": [0, 1, 2, 5]}

    def test_bad_literal(self, capsys):
        code = main(["dim", "--set", "not-a-set"])
        assert code == 1
        assert "bad set literal" in capsys.readouterr().err


class TestDecompose:
    def test_split(self, capsys):
        code, got = run_json(capsys, "decompose", "--set", "{0,2,3,4,5}")
        assert code == 0
        assert got == {"a1": [0, 2], "a2": [0], "p_len": 4}

    def test_not_decomposable(self, capsys):
        code, got = run_json(capsys, "decompose", "--set", "{0,1,2,4,5}")
        assert code == 2
        assert got == {"error": "not_decomposable"}


class TestChainCheck:
    def test_positive(self, capsys):
        code, got = run_json(capsys, "chain-check", "--set", "{0,4,6,7,8,10,14}")
        assert code == 0
        assert got["chain"] is True
        assert got["volume"] == 15
        assert got["layers"] == [
            [6, 7, 8],
            [4, 6, 7, 8],
            [0, 4, 6, 7, 8],
            [0, 4, 6, 7, 8, 10],
            [0, 4, 6, 7, 8, 10, 14],
        ]
        assert got["factorization"]["base"] == [0, 2, 3, 4, 5, 7]
        assert got["factorization"]["steps"] == [{"variant": "Dx", "x": 7}]

    def test_negative(self, capsys):
        code, got = run_json(capsys, "chain-check", "--set", "{0,3,4,6,7,8}")
        assert code == 2
        assert got == {"chain": False, "set": [0, 3, 4, 6, 7, 8]}


class TestFactorize:
    def test_positive(self, capsys):
        code, got = run_json(capsys, "factorize", "--set", "{0,4,5,6,8}")
        assert code == 0
        assert got == {
            "b_prime_case": False,
            "base": [0, 2, 3, 4],
            "steps": [{"variant": "Dx", "x": 5}],
        }

    def test_stuck(self, capsys):
        code, got = run_json(capsys, "factorize", "--set", "{0,1,3,7,12}")
        assert code == 2
        assert got["error"] == "not_factorizable"


class TestFiso:
    def test_isomorphic(self, capsys):
        code, got = run_json(capsys, "fiso", "--a", "{0,1,2,4}", "--b", "{0,2,3,4}")
        assert code == 0
        assert got == {"isomorphic": True, "mapping": {"0": 4, "1": 3, "2": 2, "4": 0}}

    def test_not_isomorphic(self, capsys):
        code, got = run_json(capsys, "fiso", "--a", "{0,1,2,3}", "--b", "{0,1,2,4}")
        assert code == 2
        assert got == {"isomorphic": False}


class TestChainEnum:
    def test_k4_records(self, capsys):
        code, out = run(capsys, "chain-enum", "--k", "4")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["set"] for r in records] == [[0, 1, 2, 3], [0, 2, 3, 4]]
        assert [r["t"] for r in records] == [7, 8]
        assert [r["vol"] for r in records] == [4, 5]
        for r in records:
            assert r["factorization"]["b_prime_case"] is False

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "chains.jsonl"
        code, _ = run(capsys, "chain-enum", "--k", "4", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 2 and json.loads(lines[0])["set"] == [0, 1, 2, 3]


class TestSearch:
    def test_csv_with_sidecars(self, capsys, tmp_path):
        out_path = tmp_path / "report.csv"
        code, _ = run(capsys, "search", "--k", "4", "--t", "7", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "k,t,c,b,mu,observed_max_vol,attained,witness,violations"
        assert lines[1] == '4,7,2,0,3,4,1,"{0,1,2,3}",0'
        meta = json.loads((tmp_path / "report.meta.json").read_text())
        assert meta["backend"] in ("c", "python")
        assert meta["kernel_digest"] == kernel_digest()
        assert meta["threads"] == 1 and meta["force"] is False
        witnesses = [
            json.loads(line)
            for line in (tmp_path / "report.witnesses.jsonl").read_text().splitlines()
        ]
        assert witnesses == [{"k": 4, "kind": "witness", "set": [0, 1, 2, 3], "t": 7}]

    def test_csv_bytes_are_reproducible(self, capsys, tmp_path):
        first = tmp_path / "one.csv"
        second = tmp_path / "two.csv"
        for path in (first, second):
            code, _ = run(capsys, "search", "--k", "4", "--out", str(path))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_out_into_a_missing_directory(self, capsys, tmp_path):
        out_path = tmp_path / "missing" / "report.csv"
        code = main(["search", "--k", "4", "--t", "7", "--out", str(out_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("sumsetchains: error: ")
        assert captured.out == ""

    def test_json_format(self, capsys):
        code, got = run_json(capsys, "search", "--k", "4", "--t", "7", "--format", "json")
        assert code == 0
        assert got[0]["observed_max_vol"] == 4
        assert got[0]["witnesses"] == [[0, 1, 2, 3]]


class TestVerify:
    def test_k4_json(self, capsys):
        code, got = run_json(capsys, "verify", "--k", "4", "--format", "json")
        assert code == 0
        assert got["ok"] is True
        assert got["chains"] == {"count": 2, "failures": []}
        assert got["extension_sweep"] == {"pairs": 11, "sets": 3, "violations": []}
        assert [c["t"] for c in got["conjecture"]] == [7, 8]
        assert all(c["ok"] for c in got["conjecture"])


@pytest.mark.parametrize("command", ["search", "verify"])
@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_must_be_positive(capsys, command, threads):
    with pytest.raises(SystemExit) as exc:
        main([command, "--k", "4", "--threads", threads])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert "--threads" in captured.err and captured.out == ""


def test_unknown_subcommand(capsys):
    with pytest.raises(SystemExit):
        main(["no-such-command"])
