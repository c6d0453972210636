"""The k = 8 verdicts and the k = 9 slice table to m = 49, pinned by the
sha256 of their outputs.

``search --k 8 --force``: every (8, T) class attains mu(8, T) and none
exceeds it. ``verify --k 8 --force``: the conjecture, chain and uniqueness
parts pass, and the extension sweep finds 13 sets whose doubling constant
moves from 6 to 4.

Marked slow and deselected by default: the sweep covers C(72, 7) = 1.5e9
candidate sets, 6-9 s on two cores with the compiled kernel, and each
verify run over the filled table (JSON, then text) takes 5-8 s more. Both tests share one
forced table, so ``python -m pytest -m slow`` sweeps k = 8 once. The k = 9
table to m = 49 covers C(49, 8) = 4.5e8 candidates, the bound of the
classes with T <= 32, in about 2 s on two cores.
"""

import csv
import hashlib
import json

import pytest

from sumsetchains import kernel, search
from sumsetchains.cli import main

K8_CSV_SHA256 = "f1471e7477cb820cdc3efb6e2ef1a8e5ffd5bf393e2e7506244a524ef85f7026"
K8_VERIFY_SHA256 = "cdbd94ab618a12152a356a4760a8aa8f14c3c7f44e48ae6b8ca3c0c281ea794a"
K8_VERIFY_TEXT_SHA256 = "b4b79c2b8a2b3eca9e86e76f049a84acc4ad2ff5e2f72d82887e70b0d52e05fb"
# repr(sorted(slices.items())) of the realized doublings per maximum m <= 49 at
# k = 9
K9_SLICES_SHA256 = "a1f21fa765472f804c74bdfb618796f0552f3cdef99b1e0b94a071db337af2fe"

# the (set, x) of every extension-sweep violation: (k, T) = (8, 30) sets
# extended by x = max + 1 with delta_t = 2, so T_x = 32 at k = 9, where c = 4
K8_EXTENSION_VIOLATIONS = [
    ([0, 2, 9, 10, 14, 18, 20, 21], 22),
    ([0, 4, 9, 10, 16, 18, 20, 21], 22),
    ([0, 7, 11, 13, 16, 19, 20, 21], 22),
    ([0, 8, 11, 15, 17, 20, 21, 22], 23),
    ([0, 9, 11, 14, 15, 19, 21, 22], 23),
    ([0, 7, 9, 15, 18, 21, 22, 23], 24),
    ([0, 8, 10, 14, 19, 20, 22, 23], 24),
    ([0, 5, 12, 15, 20, 22, 23, 24], 25),
    ([0, 7, 10, 15, 20, 22, 23, 24], 25),
    ([0, 9, 10, 16, 20, 22, 24, 25], 26),
    ([0, 12, 14, 17, 18, 22, 24, 25], 26),
    ([0, 12, 15, 19, 21, 24, 25, 26], 27),
    ([0, 13, 21, 26, 29, 31, 32, 33], 34),
]


@pytest.fixture(scope="module")
def k8_engine(compiled_kernel, tmp_path_factory):
    """The compiled kernel and one slice table, in memory and in a cache
    directory of its own, for every test of this module."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernel, "_c", compiled_kernel)
        mp.setattr(search, "_SLICE_CACHE", {})
        mp.setenv(search.CACHE_ENV, str(tmp_path_factory.mktemp("k8-cache")))
        yield


@pytest.mark.slow
def test_k8_search_verdict_is_pinned(k8_engine, tmp_path):
    out = tmp_path / "k8.csv"
    assert main(["search", "--k", "8", "--force", "--threads", "2", "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(r["t"]) for r in rows] == list(range(15, 31))
    for r in rows:
        assert int(r["observed_max_vol"]) == int(r["mu"]) + 1, r
        assert r["attained"] == "1" and r["violations"] == "0", r
    assert hashlib.sha256(out.read_bytes()).hexdigest() == K8_CSV_SHA256


@pytest.mark.slow
def test_k8_verify_verdict_is_pinned(k8_engine, capsys):
    code = main(["verify", "--k", "8", "--force", "--threads", "2", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 2
    got = json.loads(out)
    assert all(c["ok"] for c in got["conjecture"])
    assert got["chains"] == {"count": 396, "failures": []}
    assert got["uniqueness"] == {"applicable": 284, "failures": []}
    sweep = got["extension_sweep"]
    assert (sweep["sets"], sweep["pairs"]) == (261830, 5554594)
    assert [(v["set"], v["x"]) for v in sweep["violations"]] == K8_EXTENSION_VIOLATIONS
    for v in sweep["violations"]:
        assert v["problems"] == ["doubling constant moved from 6 to 4"]
    assert hashlib.sha256(out.encode()).hexdigest() == K8_VERIFY_SHA256
    # the text report of the same verdict, on the table now filled
    assert main(["verify", "--k", "8", "--threads", "2"]) == 2
    text = capsys.readouterr().out
    assert hashlib.sha256(text.encode()).hexdigest() == K8_VERIFY_TEXT_SHA256


@pytest.mark.slow
def test_k9_slice_table_to_m49_is_pinned(k8_engine):
    slices = search._realized_slices(9, 49, threads=2, use_cache=False, force=False)
    assert sorted(slices) == list(range(8, 50))
    # the realized doublings: the keys of each slice's census
    realized = {m: tuple(census) for m, census in slices.items()}
    digest = hashlib.sha256(repr(sorted(realized.items())).encode()).hexdigest()
    assert digest == K9_SLICES_SHA256
