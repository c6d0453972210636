"""Chain recognition, enumeration, and the structure theorem checks.

A chain grows from a 3-term progression one out-of-hull element at a time,
staying one-dimensional and volume-maximal within its doubling class at
every level.
"""

import hashlib

import pytest

from sumsetchains import chains, kernel
from sumsetchains.chains import (
    CHAIN_ENUM_CAP,
    _canonical_tuple,
    enumerate_chains,
    is_chain,
    is_chain_extension,
    is_chain_member,
    verify_main_theorem,
    volume_1d,
)
from sumsetchains.cli import main
from sumsetchains.errors import CapacityError
from sumsetchains.dimension import out_of_hull_pool
from sumsetchains.doubling import t_range
from sumsetchains.growth import invert_step
from sumsetchains.intset import IntSet, doubling, mirror_tuple, normalize

S = IntSet.from_text


def floor_free_level(below: dict, k: int) -> dict:
    """Level k grown from level k - 1 as before chain_children took floors:
    every child of every parent, kept per doubling at the largest top seen
    so far, the groups in first-seen order."""
    cap = t_range(k)[1]
    tops: dict = {}
    groups: dict = {}
    for prev in below:
        for canon, t in kernel.chain_children(prev, cap):
            if canon[-1] > tops.get(t, -1):
                tops[t] = canon[-1]
                groups[t] = {}
            if canon[-1] == tops[t]:
                groups[t][canon] = t
    return {canon: t for group in groups.values() for canon, t in group.items()}


class TestVolume:
    def test_examples(self):
        assert volume_1d(S("{0,4,6,7,8}")) == 9
        assert volume_1d(S("{0,2,3,4,6}")) == 7
        # volume normalizes first
        assert volume_1d(S("{3,5,7}")) == 3

    def test_matches_normalized_hull(self):
        for text in ["{0,4,6,7,8}", "{0,2,3,4,6}", "{0,1,2,3,4}"]:
            a = S(text)
            assert volume_1d(a) == normalize(a)[0].max + 1


class TestRecognition:
    def test_certificate_layers(self):
        cert = is_chain(S("{0,4,6,7,8,10,14}"))
        assert cert is not None
        assert [layer.to_text() for layer in cert.sets] == [
            "{6,7,8}",
            "{4,6,7,8}",
            "{0,4,6,7,8}",
            "{0,4,6,7,8,10}",
            "{0,4,6,7,8,10,14}",
        ]
        assert cert.volume == 15
        assert [(p.k, p.t) for p in cert.profiles] == [
            (3, 5), (4, 8), (5, 12), (6, 15), (7, 19),
        ]
        fact = cert.factorization
        assert fact is not None
        assert fact.base == S("{0,2,3,4,5,7}")

    def test_non_chains(self):
        assert is_chain(S("{0,3,4,6,7,8}")) is None
        assert is_chain(S("{0,1,3}")) is None
        assert is_chain(S("{0,2,3,4,5,10,15}")) is None

    def test_three_term_progressions_are_chains(self):
        assert is_chain(S("{0,1,2}")) is not None
        # recognition works on raw coordinates
        assert is_chain(S("{3,5,7}")) is not None
        assert is_chain(S("{0,2,4}")) is not None

    def test_membership_matches_the_certificate(self):
        from sumsetchains.search import enumerate_normal_sets

        for k in range(3, 7):
            for a in enumerate_normal_sets(k, 2 * k + 2):
                assert is_chain_member(a) == (is_chain(a) is not None), a
        for bad, error in [
            (S("{0,1}"), ValueError),
            (IntSet(range(CHAIN_ENUM_CAP + 1)), CapacityError),
        ]:
            for recognize in (is_chain_member, is_chain):
                with pytest.raises(error):
                    recognize(bad)

    def test_extension_examples(self):
        assert is_chain_extension(S("{0,1,2}"), S("{0,1,2,4}"))
        assert is_chain_extension(S("{0,1,2,4}"), S("{0,1,2,4,6}"))
        assert not is_chain_extension(S("{0,1,2}"), S("{0,1,2,5}"))
        assert not is_chain_extension(S("{0,1,2,3}"), S("{0,1,2,3,7}"))


class TestEnumeration:
    def test_counts(self):
        assert [len(enumerate_chains(k)) for k in range(4, 9)] == [2, 7, 27, 109, 396]

    def test_counts_at_k9_and_k10(self, compiled_facade, monkeypatch):
        # a table of its own, grown by the compiled kernel: the levels past 8
        # are too slow for the pure one here
        monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])
        assert [len(chains._chain_level(k)) for k in (9, 10)] == [1323, 4053]

    def test_level_k11_past_the_cap_on_both_twins(self, compiled_facade, monkeypatch):
        # levels past CHAIN_ENUM_CAP are pinned without raising it; the pure
        # table and the compiled one agree on contents and order
        assert CHAIN_ENUM_CAP == 10
        with pytest.raises(CapacityError):
            enumerate_chains(11)
        levels = {}
        for backend in ("c", "python"):
            monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])
            if backend == "python":
                monkeypatch.setattr(compiled_facade, "_c", None)
            levels[backend] = list(chains._chain_level(11).items())
        assert len(levels["c"]) == 11_619
        assert levels["python"] == levels["c"]

    @pytest.mark.parametrize("backend, top", [("c", 11), ("python", 9)])
    def test_floored_levels_match_floor_free_growth(
        self, compiled_facade, monkeypatch, backend, top
    ):
        # _chain_level passes its running maxima as floors, so chain_children
        # skips the children it would drop: each level keeps the sets, and the
        # order, that floor-free calls give
        monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])
        if backend == "python":
            monkeypatch.setattr(compiled_facade, "_c", None)
        level = chains._chain_level(3)
        for k in range(4, top + 1):
            level = floor_free_level(level, k)
            assert list(chains._chain_level(k).items()) == list(level.items()), k

    @pytest.mark.parametrize("backend", ["c", "python"])
    def test_pools_align_with_the_kernel_children(self, compiled_facade, monkeypatch, backend):
        # the uniqueness checks read chain membership off chain_children:
        # on every chain A of levels 4..8, A's pool and its children align one
        # to one in y order, none dropped; and for x > max A in the pool, up
        # to level 7, b = A ∪ {x} and its reflexion have as many children as
        # pool points, the last of them pairing up with b's right extensions
        if backend == "python":
            monkeypatch.setattr(compiled_facade, "_c", None)
        aligned = 0
        for k in range(4, 9):
            for elems in chains._chain_level(k):
                pool = out_of_hull_pool(IntSet(elems))
                children = kernel.chain_children(elems, t_range(k + 1)[1])
                assert len(children) == len(pool), elems
                for (y, ty), child in zip(pool, children):
                    assert child == (_canonical_tuple(tuple(sorted(elems + (y,)))), ty), elems
                aligned += len(pool)
                for x, _ in pool:
                    if k > 7 or x < elems[-1]:
                        continue
                    for b in (elems + (x,), mirror_tuple(elems + (x,))):
                        rights = kernel.right_extensions(b)
                        children = kernel.chain_children(b, t_range(k + 2)[1])
                        assert len(children) == len(out_of_hull_pool(IntSet(b))), b
                        assert [canon for canon, _ in children[-len(rights):]] == [
                            _canonical_tuple(b + (y,)) for y, _, _ in rights
                        ], b
        assert aligned == 18_589

    def test_level_k12_past_the_cap(self, compiled_facade, monkeypatch):
        monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])
        assert len(chains._chain_level(12)) == 31_496
        assert CHAIN_ENUM_CAP == 10

    # the levels 13, 14 and 15 grown compiled, pinned by count and by the
    # sha256 of repr(list(level.items())), their contents in order; the
    # level-15 hash was taken from floor-free growth
    @pytest.mark.slow
    @pytest.mark.parametrize(
        "k, count, digest",
        [
            pytest.param(
                13, 81_700, "c37df77582eab75012cbd629a0dad110e4e2843a9d69ea00e918df41f1d30a60",
                id="k13",
            ),
            pytest.param(
                14, 204_417, "2cfad81b076cae4a939f0456b5bb2bece685fb4dc569e62d98dfc8898bba8518",
                id="k14",
            ),
            pytest.param(
                15, 496_782, "b7bfd73fbe4fdcf3c6080fa66d634ae7521a5f4518afcc9800e1eb9149558f22",
                id="k15",
            ),
        ],
    )
    def test_levels_k13_to_k15_past_the_cap(self, compiled_facade, monkeypatch, k, count, digest):
        monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])
        level = list(chains._chain_level(k).items())
        assert len(level) == count
        assert hashlib.sha256(repr(level).encode()).hexdigest() == digest

    def test_chain_enum_k10_output(self, compiled_facade, monkeypatch, capsys):
        monkeypatch.setattr(chains, "_LEVELS", chains._LEVELS[:4])
        assert main(["chain-enum", "--k", "10"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(out) == 910_088
        assert hashlib.sha256(out).hexdigest() == (
            "cbb52e284891484d34ae523de3585cb32c966d515065c3f71333a36903083f9b"
        )

    def test_k4(self):
        assert [r.set.to_text() for r in enumerate_chains(4)] == ["{0,1,2,3}", "{0,2,3,4}"]

    def test_k5_table(self):
        rows = [(r.set.to_text(), r.profile.t, r.volume, r.set.max) for r in enumerate_chains(5)]
        assert rows == [
            ("{0,1,2,3,4}", 9, 5, 4),
            ("{0,2,3,4,5}", 10, 6, 5),
            ("{0,2,3,4,6}", 11, 7, 6),
            ("{0,2,4,5,6}", 11, 7, 6),
            ("{0,3,4,5,6}", 11, 7, 6),
            ("{0,4,5,6,8}", 12, 9, 8),
            ("{0,4,6,7,8}", 12, 9, 8),
        ]

    def test_all_records_are_recognized_chains(self):
        for k in range(4, 7):
            for rec in enumerate_chains(k):
                cert = is_chain(rec.set)
                assert cert is not None
                assert cert.volume == rec.volume

    def test_volume_is_mu_plus_one(self):
        for k in range(4, 9):
            for rec in enumerate_chains(k):
                assert rec.volume == rec.profile.mu + 1

    def test_deletion_closure(self):
        """Dropping an extreme element of a chain leaves a chain."""
        for k in range(4, 8):
            for rec in enumerate_chains(k):
                es = rec.set.elements
                survivors = [
                    trimmed
                    for trimmed in (IntSet(es[1:]), IntSet(es[:-1]))
                    if is_chain(trimmed) is not None
                ]
                assert survivors, rec.set.to_text()

    def test_argument_guards(self):
        with pytest.raises(ValueError):
            enumerate_chains(2)
        with pytest.raises(CapacityError):
            enumerate_chains(CHAIN_ENUM_CAP + 1)


class TestStructure:
    def test_main_theorem_over_all_chains(self):
        for k in range(4, 9):
            for rec in enumerate_chains(k):
                report = verify_main_theorem(is_chain(rec.set))
                assert report.ok, (rec.set.to_text(), report.failures)

    def test_flagged_bases_are_rare_and_real(self):
        flagged = []
        for k in range(4, 9):
            for rec in enumerate_chains(k):
                fact = is_chain(rec.set).factorization
                if fact is not None and fact.b_prime_case:
                    flagged.append(rec.set)
        assert len(flagged) == 28
        for a in flagged:
            assert doubling(a) > 3 * len(a) - 4

    def test_single_odd_chains_halve_to_chains(self):
        """One odd element means the set is a dilate-adjoin image of a
        smaller chain."""
        singles = 0
        for k in range(4, 9):
            for rec in enumerate_chains(k):
                a = rec.set
                if sum(e % 2 for e in a.elements) != 1:
                    continue
                singles += 1
                dilations = [
                    pred
                    for step, pred in invert_step(a)
                    if step.variant.value == "Dx"
                ]
                assert dilations, a.to_text()
                assert len(dilations[0]) >= 3 and is_chain(dilations[0]) is not None
        assert singles == 363

    def test_extensions_of_single_odd_chains_stay_single_odd(self):
        """Past the 3k-4 regime, growing a single-odd chain by one element
        cannot introduce a second odd element."""
        checked = 0
        for k in range(4, 8):
            for rec in enumerate_chains(k):
                a = rec.set
                if sum(e % 2 for e in a.elements) != 1:
                    continue
                span = list(range(-2 * a.max, 0)) + list(range(a.max + 1, 3 * a.max + 1))
                for x in span:
                    b = a.adjoin(x)
                    if not is_chain_extension(a, b):
                        continue
                    if doubling(b) > 3 * len(b) - 4:
                        checked += 1
                        assert sum(e % 2 for e in b.elements) == 1, b.to_text()
        assert checked == 580

    def test_decomposed_chain_parts_have_no_consecutive_elements(self):
        from sumsetchains.errors import NotDecomposable
        from sumsetchains.stability import stable_decompose

        checked = 0
        for k in range(4, 9):
            for rec in enumerate_chains(k):
                a = rec.set
                if doubling(a) > 3 * k - 4:
                    continue
                try:
                    dec = stable_decompose(a)
                except NotDecomposable:
                    continue
                checked += 1
                for part in (dec.a1, dec.a2):
                    es = part.elements
                    if len(es) >= 2:
                        assert all(y - x > 1 for x, y in zip(es, es[1:])), a.to_text()
        assert checked == 73

    def test_report_shape(self):
        report = verify_main_theorem(is_chain(S("{0,4,6,7,8,10,14}")))
        assert report.ok
        assert report.volume_ok and report.factorization_ok and report.replay_ok
        assert (report.volume, report.expected_volume) == (15, 15)
        assert report.failures == ()

    def test_report_without_a_factorization(self):
        cert = is_chain(S("{0,4,6,7,8,10,14}"))._replace(factorization=None, volume=14)
        report = verify_main_theorem(cert)
        assert report == (
            False, False, False, False, 14, 15,
            (
                "volume 14 != mu(7,19)+1 = 15",
                "no growth factorization found for {0,4,6,7,8,10,14}",
            ),
        )
