"""The k = 8 verdict of ``search --k 8 --force``, pinned by the sha256 of its
CSV: every (8, T) class attains mu(8, T) and none exceeds it.

Marked slow and deselected by default: the sweep covers C(72, 7) = 1.5e9
candidate sets, about 25 s on two cores with the compiled kernel. Run it
with ``python -m pytest -m slow``.
"""

import csv
import hashlib

import pytest

from sumsetchains import kernel, search
from sumsetchains.cli import main

K8_CSV_SHA256 = "f1471e7477cb820cdc3efb6e2ef1a8e5ffd5bf393e2e7506244a524ef85f7026"


@pytest.mark.slow
def test_k8_search_verdict_is_pinned(compiled_kernel, monkeypatch, tmp_path):
    monkeypatch.setattr(kernel, "_c", compiled_kernel)
    monkeypatch.setattr(search, "_SLICE_CACHE", {})
    monkeypatch.setenv(search.CACHE_ENV, str(tmp_path))
    out = tmp_path / "k8.csv"
    assert main(["search", "--k", "8", "--force", "--threads", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["t"]) for r in rows] == list(range(15, 31))
    for r in rows:
        assert int(r["observed_max_vol"]) == int(r["mu"]) + 1, r
        assert r["attained"] == "1" and r["violations"] == "0", r
    assert hashlib.sha256(out.read_bytes()).hexdigest() == K8_CSV_SHA256
