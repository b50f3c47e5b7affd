"""The small record classes behave as the dataclasses they were written as.

LabelSet is frozen and hashable; VerificationReport and EitVerdict compare
field by field and are unhashable.  Each compares equal only to an instance
of its own class, and its repr names every field.
"""

import copy
import inspect
import pickle

import pytest

from magiclab import families
from magiclab.families import EitVerdict, eit_feasible
from magiclab.labeling import LabelSet, VerificationReport


def parameters(cls):
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


class TestLabelSet:
    def test_signature(self):
        assert parameters(LabelSet) == [("values", inspect.Parameter.empty)]
        assert LabelSet(values=(1, 2)) == LabelSet((1, 2))

    def test_equality_is_by_values_and_class(self):
        assert LabelSet((1, 3)) == LabelSet.from_values([3, 1])
        assert LabelSet((1, 3)) != LabelSet((1, 2))
        assert LabelSet((1, 3)) != (1, 3)
        assert (1, 3) != LabelSet((1, 3))

    def test_repr(self):
        assert repr(LabelSet((1, 2, 4))) == "LabelSet(values=(1, 2, 4))"

    def test_hash_follows_values(self):
        assert hash(LabelSet((1, 2))) == hash(LabelSet.natural(2)) == hash(((1, 2),))
        assert len({LabelSet((1, 2)), LabelSet.natural(2), LabelSet((1, 3))}) == 2

    def test_frozen(self):
        s = LabelSet((1, 2))
        with pytest.raises(AttributeError):
            s.values = (1, 3)
        with pytest.raises(AttributeError):
            del s.values
        with pytest.raises(AttributeError):
            s.other = 1
        assert s.values == (1, 2)

    def test_copies_and_pickles(self):
        s = LabelSet((1, 2, 5))
        for twin in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert twin == s and type(twin) is LabelSet


def report(**changes):
    fields = dict(is_magic=True, constant=6, weights=(6, 6), violations=[], is_distance_magic=True)
    fields.update(changes)
    return VerificationReport(**fields)


class TestVerificationReport:
    def test_signature_and_defaults(self):
        params = parameters(VerificationReport)
        assert [name for name, _ in params] == [
            "is_magic", "constant", "weights", "violations", "is_distance_magic",
        ]
        # the first three are required; violations defaults to a fresh list
        assert [default is inspect.Parameter.empty for _, default in params] == [
            True, True, True, False, False,
        ]
        assert params[-1][1] is False
        r = VerificationReport(True, 6, (6, 6))
        assert (r.violations, r.is_distance_magic) == ([], False)

    def test_each_report_gets_its_own_violations(self):
        a, b = VerificationReport(False, None, (1, 2)), VerificationReport(False, None, (1, 2))
        a.violations.append("w(0)=1 != w(1)=2")
        assert b.violations == []

    def test_equality_is_field_wise(self):
        assert report() == report()
        assert report() != report(constant=7)
        assert report() != report(violations=["x"])
        assert report() != report(is_distance_magic=False)
        assert report() != (True, 6, (6, 6), [], True)

    def test_repr(self):
        assert repr(report()) == (
            "VerificationReport(is_magic=True, constant=6, weights=(6, 6), "
            "violations=[], is_distance_magic=True)"
        )

    def test_mutable_and_unhashable(self):
        r = report()
        r.constant = 7
        assert r == report(constant=7)
        with pytest.raises(TypeError):
            hash(r)

    def test_copies_and_pickles(self):
        r = report(violations=["x"])
        for twin in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
            assert twin == r and type(twin) is VerificationReport


class TestEitVerdict:
    def test_signature(self):
        names = [name for name, _ in parameters(EitVerdict)]
        assert names == ["teams", "rounds", "feasible", "reason"]
        by_keyword = EitVerdict(teams=8, rounds=4, feasible=True, reason="r")
        assert EitVerdict(8, 4, True, "r") == by_keyword

    def test_equality_is_field_wise(self):
        v = eit_feasible(8, 4)
        assert v == EitVerdict(8, 4, True, "n = 0 (mod 4) with even rounds in range")
        assert v != EitVerdict(8, 4, None, v.reason)
        assert v != (8, 4, True, v.reason)

    def test_repr(self):
        assert repr(eit_feasible(7, 2)) == (
            "EitVerdict(teams=7, rounds=2, feasible=None, reason='odd team count with even "
            "rounds is not decided by the implemented characterization')"
        )

    def test_json(self):
        assert EitVerdict(6, 3, False, "odd").to_json_dict() == {
            "teams": 6, "rounds": 3, "feasible": False, "reason": "odd",
        }

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(eit_feasible(8, 4))

    def test_copies_and_pickles(self):
        v = eit_feasible(8, 4)
        for twin in (copy.copy(v), pickle.loads(pickle.dumps(v))):
            assert twin == v and type(twin) is EitVerdict

    def test_errors_are_the_dispatchers_own(self):
        with pytest.raises(families.HypothesisError):
            eit_feasible(1, 0)
        with pytest.raises(families.HypothesisError):
            families.theta_hnp(1, 3)
