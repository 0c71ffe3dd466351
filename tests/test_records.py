"""The record classes of the package: ==, hash, repr, str, pickling and
immutability, each pinned to the exact text the records have always had.

Each record is a plain class whose ``__init__`` checks its arguments and
writes its fields once.  == holds only between records of one class with
equal fields in order, hash is the hash of that field tuple, and a frozen
record refuses assignment and deletion.  ``Report`` is the one mutable
record: it is unhashable, and its counters and lists grow in place.
"""

import pickle
from fractions import Fraction

import pytest

from zpeta import eta, exact, manifold

TRICOSM = manifold.validate(3, 1, 0, 1)


def _entry(ell=2):
    return eta.FailureEntry("(3,1,0,1)", "trivial,h=1", ell, "1/3", "2/3")


# per class: a factory of one record, the same record built with one field
# changed, its field tuple, and its repr and str
RECORDS = {
    "ResidueModZ": (
        lambda: exact.ResidueModZ(Fraction(2, 3)),
        lambda: exact.ResidueModZ(Fraction(1, 3)),
        (Fraction(2, 3),),
        "ResidueModZ(value=Fraction(2, 3))",
        "2/3",
    ),
    "RadicalValue": (
        lambda: exact.RadicalValue(Fraction(-1, 2), "i", 5),
        lambda: exact.RadicalValue(Fraction(-1, 2), "1", 5),
        (Fraction(-1, 2), "i", 5),
        "RadicalValue(coeff=Fraction(-1, 2), unit='i', radicand=5)",
        "-1/2*i*sqrt(5)",
    ),
    "RadicalValue-zero": (
        lambda: exact.RadicalValue(0, "i", 7),
        lambda: exact.RadicalValue(1, "i", 7),
        (Fraction(0), "1", 1),
        "RadicalValue(coeff=Fraction(0, 1), unit='1', radicand=1)",
        "0",
    ),
    "ZpParams": (
        lambda: manifold.ZpParams(3, 1, 0, 1),
        lambda: manifold.ZpParams(3, 1, 0, 3),
        (3, 1, 0, 1, "principal"),
        "ZpParams(p=3, a=1, b=0, c=1, ideal_label='principal')",
        "(3,1,0,1)",
    ),
    "HomologyH1": (
        lambda: manifold.homology_h1(manifold.validate(5, 2, 1, 2)),
        lambda: manifold.homology_h1(manifold.validate(5, 1, 1, 2)),
        (5, 2, 3),
        "HomologyH1(p=5, torsion_copies=2, free_rank=3)",
        None,
    ),
    "SpinStructure": (
        lambda: manifold.SpinStructure((1, -1), 2),
        lambda: manifold.SpinStructure((1, -1), 1),
        ((1, -1), 2),
        "SpinStructure(deltas=(1, -1), h=2)",
        None,
    ),
    "HolonomyReport": (
        lambda: manifold.holonomy_checks(manifold.build_holonomy(TRICOSM), TRICOSM),
        lambda: manifold.holonomy_checks(manifold.IntMatrix.identity(3), TRICOSM),
        (TRICOSM, True, True, True, 1, True, True),
        "HolonomyReport(params=ZpParams(p=3, a=1, b=0, c=1, ideal_label='principal'), "
        "power_identity=True, order_exact=True, det_one=True, fixed_space_dim=1, "
        "fixed_space_ok=True, charpoly_ok=True)",
        None,
    ),
    "EtaClosedForm": (
        lambda: eta.eta_series_closed_form(TRICOSM, 1, 1),
        lambda: eta.eta_series_closed_form(TRICOSM, 2, 1),
        (3, 1, ((Fraction(1, 3), 1), (Fraction(2, 3), -1))),
        "EtaClosedForm(p=3, scale=1, terms=((Fraction(1, 3), 1), (Fraction(2, 3), -1)))",
        None,
    ),
    "InvariantRecord": (
        lambda: eta.structure_records(TRICOSM, manifold.SpinStructure((), 1))[1],
        lambda: eta.structure_records(TRICOSM, manifold.SpinStructure((), 1))[0],
        (
            Fraction(1, 3), 1, Fraction(2, 3),
            exact.ResidueModZ(Fraction(2, 3)), exact.ResidueModZ(Fraction(0)),
        ),
        "InvariantRecord(eta=Fraction(1, 3), dim_ker=1, eta_bar=Fraction(2, 3), "
        "eta_bar_mod_Z=ResidueModZ(value=Fraction(2, 3)), "
        "relative_mod_Z=ResidueModZ(value=Fraction(0, 1)))",
        None,
    ),
    "FailureEntry": (
        _entry,
        lambda: _entry(None),
        ("(3,1,0,1)", "trivial,h=1", 2, "1/3", "2/3"),
        "FailureEntry(params='(3,1,0,1)', structure='trivial,h=1', ell=2, "
        "expected='1/3', got='2/3')",
        None,
    ),
    "Report": (
        lambda: eta.Report("parity", 3, [_entry(None)], [{"a": 1}]),
        lambda: eta.Report("parity", 4, [_entry(None)], [{"a": 1}]),
        None,  # mutable: no hash
        "Report(suite='parity', cases=3, failures=[FailureEntry(params='(3,1,0,1)', "
        "structure='trivial,h=1', ell=None, expected='1/3', got='2/3')], "
        "expected_exceptions=[{'a': 1}])",
        None,
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_eq_hash_repr_and_str(name):
    make, changed, fields, text, string = RECORDS[name]
    record = make()
    assert record == make() and not record != make()
    assert record != changed()
    assert record != fields and record != text  # another class is never equal
    if fields is None:
        with pytest.raises(TypeError, match="unhashable type: 'Report'"):
            hash(record)
    else:
        assert hash(record) == hash(make()) == hash(fields)
    assert repr(record) == text
    assert str(record) == (text if string is None else string)


@pytest.mark.parametrize("name", RECORDS)
def test_pickle_round_trip(name):
    record = RECORDS[name][0]()
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record) and back == record and repr(back) == repr(record)
    assert vars(back) == vars(record)


@pytest.mark.parametrize("name", [name for name in RECORDS if name != "Report"])
def test_a_frozen_record_refuses_assignment_and_deletion(name):
    record = RECORDS[name][0]()
    before = dict(vars(record))
    field = next(iter(before))
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(record, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(record, field)
    with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
        record.extra = 1
    assert vars(record) == before


def test_a_report_grows_in_place_and_starts_with_lists_of_its_own():
    first, second = eta.Report("parity"), eta.Report("parity")
    assert (first.cases, first.failures, first.expected_exceptions) == (0, [], [])
    first.check(False, "(3,1,0,1)", "trivial,h=1", None, "1/3", "2/3")
    first.expected_exceptions.append({"a": 1})
    assert first.cases == 1 and first.failures == [_entry(None)]
    assert second.failures == [] and second.expected_exceptions == []
