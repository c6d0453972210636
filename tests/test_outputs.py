"""Byte-identical reports: the stdout of search and verify, pinned by sha256.

A change to the kernels or the layers above them that alters a report, even
by one byte, fails here. Each command runs on both kernels from a cold
start: an empty slice table in memory, an empty cache directory and only the
seed chain levels. Pure-Python ``search --k 7`` takes seconds, so k = 7 runs
on the compiled kernel alone.
"""

import hashlib

import pytest

from sumsetchains import chains, kernel, search
from sumsetchains.cli import main

SMALL_K = {
    ("search", "--k", "3"): "50b3b8caa8907645d488ba5aeed08eceb5b30b88aee135ab83be16fc4e6c2fef",
    ("search", "--k", "3", "--format", "json"):
        "6f96e3b0719de2d48df4c5689e2fc7f59362ec37660575ff9d7c83ac130a26b3",
    ("verify", "--k", "3"): "6da55863a8a55fb58d6f596bc4629883284ea0eff23128f1f4e303e2ba40195a",
    ("verify", "--k", "3", "--format", "json"):
        "60ea719b1342612601d897523a3baf5e365fbe1c24d5cfd41b4ed77b8db3c830",
    ("search", "--k", "4"): "de29fdd97c6afd998b8d7697809081d1065de99e2f69dc58dc0b1c359b903fc4",
    ("search", "--k", "4", "--format", "json"):
        "da23e3645b7ce9a344bdcfe427953e22253b5dda81d67c294fb3250cb7ff9ba7",
    ("verify", "--k", "4"): "e800a49f0fcc336a5d20333346aef13ce0d887ac6ce3ed09a1e1975fc4c835b1",
    ("verify", "--k", "4", "--format", "json"):
        "9cb540632abb4d16637a0af6a58dfdcfa5b41f52e55749cfb4854fce98365838",
    ("search", "--k", "5"): "c267f9293089f8a992dbbbb42863398c02c1eed33abb586a818d79ba9698032b",
    ("search", "--k", "5", "--format", "json"):
        "4aa26d28472e82e38c9073132c2694cf8b614ff52ea32bfacd0c216642be60f7",
    ("verify", "--k", "5"): "a456f47400174fff1634d9f39912e7cd65e3b113d9eb947fba8d8954cc5118e2",
    ("verify", "--k", "5", "--format", "json"):
        "b1f9501cdd2cfcb796e8b369585e9f15d67c0b8bf85502e92d95e327405fe7da",
    ("search", "--k", "6"): "0e0b81776a9edfbcf00924c8f92794e42c0a9cce1bfd11a243b66d56a00df13a",
    ("search", "--k", "6", "--format", "json"):
        "06fbaae7e16263f4d2a84e51c88833a5a3808317835c0970513247911c73847a",
    ("verify", "--k", "6"): "0eac7c6e88f3a476b18c6ea7bbea2c8babea9c79d32d270cf381a723b6b7fb58",
    ("verify", "--k", "6", "--format", "json"):
        "8047601dfcc8573c227e4b14ff23166c4b5936bf2446533732fddc7cb36cf43e",
}
K7 = {
    ("search", "--k", "7"): "3c6a77e67ed331c74948d40a5f5bbc2160402ec3ab8636e82f1dc2de4d107159",
    ("verify", "--k", "7"): "925a0e9fa28f99a57f1f9bbed542e740378da020b296f2a64492b86cd35a2350",
    ("verify", "--k", "7", "--format", "json"):
        "303178cf425ca524caf7b39c4a07b418a1b847c28fce94f44a6fbf90895fb216",
}


@pytest.fixture
def cold(monkeypatch, tmp_path):
    monkeypatch.setattr(search, "_SLICE_CACHE", {})
    monkeypatch.setenv(search.CACHE_ENV, str(tmp_path))
    monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])


@pytest.fixture(params=["python", "c"])
def engine(request, monkeypatch, cold):
    if request.param == "c":
        return request.getfixturevalue("compiled_facade")
    monkeypatch.setattr(kernel, "_c", None)
    monkeypatch.setattr(kernel, "BACKEND", "python")
    return kernel


def stdout_sha256(capsys, argv):
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("argv", list(SMALL_K), ids=" ".join)
def test_small_k_reports_are_pinned(engine, capsys, argv):
    assert stdout_sha256(capsys, argv) == SMALL_K[argv]


@pytest.mark.parametrize("argv", list(K7), ids=" ".join)
def test_k7_reports_are_pinned(compiled_facade, cold, capsys, argv):
    assert stdout_sha256(capsys, argv) == K7[argv]
