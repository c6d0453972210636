"""Result records: immutable, hashable named tuples with the field names,
defaults and repr of the frozen dataclasses they replaced."""

import pytest

from sumsetchains.chains import ChainCertificate, EnumeratedChain, TheoremReport
from sumsetchains.dimension import RelationBasis
from sumsetchains.doubling import DoublingProfile, profile
from sumsetchains.growth import Factorization, GrowthStep, GrowthVariant
from sumsetchains.intset import IntSet
from sumsetchains.search import (
    SCOPE_NOTE,
    ExtensionCheck,
    ExtensionSweepReport,
    LemmaOutcome,
    SearchReport,
    UniquenessReport,
)
from sumsetchains.stability import DensityCheck, StableDecomposition

RECORDS = [
    DensityCheck,
    StableDecomposition,
    SearchReport,
    ExtensionCheck,
    ExtensionSweepReport,
    LemmaOutcome,
    UniquenessReport,
    RelationBasis,
    DoublingProfile,
    GrowthStep,
    Factorization,
    ChainCertificate,
    EnumeratedChain,
    TheoremReport,
]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_records_reject_assignment_and_stay_hashable(cls):
    values = tuple(range(len(cls._fields)))
    rec = cls(*values)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(rec, name, -1)
    with pytest.raises(AttributeError):
        rec.unknown_field = 1
    assert rec == cls(*values) and hash(rec) == hash(cls(*values))
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(cls._fields, values))
    assert repr(rec) == f"{cls.__name__}({fields})"
    assert rec._replace(**{cls._fields[0]: -1}) != rec


def test_record_defaults_and_behaviour_survive():
    assert GrowthStep(GrowthVariant.EXTEND_RIGHT).x is None
    assert Factorization(IntSet((0, 1, 2)), ()).b_prime_case is False
    report = SearchReport(5, 12, 8, 20, 9, (), (), True)
    assert report.scope == SCOPE_NOTE and report.holds
    # a named tuple is truthy when non-empty; DensityCheck keeps its own truth
    assert not DensityCheck(False, True) and DensityCheck(True, False)
    assert {profile(6, 14): 1}[profile(6, 14)] == 1
