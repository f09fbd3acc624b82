"""The package's records are plain slotted classes with the value semantics
of a frozen dataclass (ring._Record): equal fields give equal instances
with equal hashes, one changed field or another class gives unequal ones,
and the repr reads Name(field=value, ...)."""

from __future__ import annotations

import importlib

import pytest

from torsionlab.ideals import MembershipAnswer
from torsionlab.ring import _Record

RECORDS = {
    "ring": ("CriticalPairResult",),
    "dsl": ("Token", "Affine", "VarFactor", "TermTemplate", "ElementTemplate",
            "Comparison", "RangeBinding", "Comprehension", "RuleTemplate",
            "GeneratorTemplate", "RingStatement", "IdealStatement",
            "QueryStatement", "NameRef", "CheckStatement", "FamilyStatement",
            "RunExampleStatement", "Script"),
    "families": ("WindowedClaim", "FamilySpec", "ClaimResult",
                 "ExampleReport"),
    "harness": ("HarnessInstance", "HarnessViolation", "HarnessReport"),
    "torsion": ("TorsionResult", "FairnessComparison", "FairnessReport"),
    "ideals": ("MembershipAnswer", "SaturationResult"),
    "spectrum": ("AssassinReport",),
}
MODULES = {name: importlib.import_module("torsionlab." + name)
           for name in RECORDS}
CLASSES = [getattr(MODULES[module], name)
           for module, names in RECORDS.items() for name in names]


def test_every_record_class_is_listed():
    found = {obj for module in MODULES.values() for obj in vars(module).values()
             if isinstance(obj, type) and issubclass(obj, _Record)
             and obj is not _Record}
    assert len(CLASSES) == 32
    assert found == set(CLASSES)


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_record_value_semantics(cls):
    fields = cls.__slots__
    values = [("value", i) for i in range(len(fields))]
    record = cls(*values)
    same = cls(**dict(zip(fields, values)))
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert [getattr(record, name) for name in fields] == values
    assert not hasattr(record, "__dict__")
    for i in range(len(fields)):
        changed = values[:i] + [("changed", i)] + values[i + 1:]
        assert record != cls(*changed)
    twin = type("Twin", (_Record,),
                {"__slots__": fields, "__init__": cls.__init__})
    assert record != twin(*values) and twin(*values) != record
    assert repr(record) == "%s(%s)" % (cls.__name__, ", ".join(
        "%s=%r" % (name, value) for name, value in zip(fields, values)))


def test_record_defaults_and_repr():
    answer = MembershipAnswer("no")
    assert answer == MembershipAnswer("no", None)
    assert repr(answer) == "MembershipAnswer(verdict='no', certificate=None)"
