"""The result records are NamedTuples: outputs rely on their order, their
hash and their immutability."""

from fractions import Fraction

import pytest

from cubecount import asymptotics as asym
from cubecount import exact as ex
from cubecount.clusters import Observable
from cubecount.polymers import CensusEntry, DefectType, census


def test_defect_types_sort_by_size_deficiency_cert():
    types = [DefectType(2, 2, 1), DefectType(1, 0, 0), DefectType(2, 1, 5),
             DefectType(3, 0, 0), DefectType(2, 1, 3)]
    assert sorted(types) == [DefectType(1, 0, 0), DefectType(2, 1, 3),
                             DefectType(2, 1, 5), DefectType(2, 2, 1),
                             DefectType(3, 0, 0)]


def test_equal_records_hash_equal():
    a, b = DefectType(3, 5, 7), DefectType.from_key("s3c5g7")
    assert a == b and a is not b
    # a tuple's hash, as the frozen dataclass hash was, so set and dict
    # orders keyed on records are unchanged
    assert hash(a) == hash(b) == hash((3, 5, 7))
    assert len({a, b, DefectType(3, 5, 8)}) == 2
    assert hash(CensusEntry(a, 4)) == hash(CensusEntry(b, 4))
    assert hash(Observable.size(2)) == hash(Observable("size", 2))


def test_setting_a_record_field_raises_attribute_error():
    records = [(DefectType(1, 0, 0), "size"),
               (census(4, 2), "d"),
               (census(4, 2).entries[0], "count"),
               (Observable.one(), "power"),
               (ex.size_profile(3), "counts"),
               (asym.lambda_beta(Fraction(1, 2), 10, 3), "value")]
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        # nor is there an instance dict to take a new attribute
        with pytest.raises(AttributeError):
            record.extra = 0
