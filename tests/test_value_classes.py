"""The value classes are plain classes that behave as frozen records."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tricatalan
from tricatalan import EvenTree, PartialMatching, Poly, tree_from_paren
from tricatalan.frozen import Frozen
from tricatalan.verify import CheckResult, VerifyReport, run_verify


def test_import_loads_neither_dataclasses_nor_inspect():
    env = dict(os.environ, PYTHONPATH=str(Path(tricatalan.__file__).parents[1]))
    code = (
        "import sys, tricatalan.cli;"
        " print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0 and done.stdout == "[]\n", done.stderr


# (value, its repr, a validated copy, a value differing in one field)
VALUES = [
    (
        Poly((14, 21, 15, 5)),
        "Poly(coeffs=(14, 21, 15, 5))",
        Poly([14, 21, 15, 5, 0]),
        Poly((14, 21, 15, 6)),
    ),
    (
        PartialMatching._trusted(4, ((1, 3), (2, 4))),
        "PartialMatching(m=4, edges=((1, 3), (2, 4)))",
        PartialMatching(4, [[2, 4], [1, 3]]),
        PartialMatching(5, ((1, 3), (2, 4))),
    ),
    (
        EvenTree._trusted("()(()())", True),
        "EvenTree(body='()(()())', dotted=True)",
        tree_from_paren("*()(()())"),
        tree_from_paren("()(()())"),
    ),
]


@pytest.mark.parametrize(
    "value, text, validated, other", VALUES, ids=lambda v: type(v).__name__
)
def test_value_class_parity(value, text, validated, other):
    assert repr(value) == text
    assert value == validated and hash(value) == hash(validated)
    assert not value != validated
    assert value != other and not value == other
    fields = tuple(vars(value).values())
    assert value != fields and value.__eq__(fields) is NotImplemented
    assert hash(value) == hash(fields)
    for name in vars(value):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert vars(value) == vars(validated)


@pytest.mark.parametrize(
    "value, validated", [(v[0], v[2]) for v in VALUES], ids=lambda v: type(v).__name__
)
def test_trusted_matches_the_validated_constructor(value, validated):
    trusted = type(value)._trusted(*vars(validated).values())
    assert repr(trusted) == repr(validated) == repr(value)
    assert hash(trusted) == hash(validated)
    assert list(vars(trusted)) == list(vars(validated)) == list(vars(value))


def test_trusted_and_hash_are_written_for_each_class():
    # Fields named cls and value, names that a method's own parameters and
    # locals often take: the compiled _trusted and __hash__ must not clash.
    class Sample(Frozen):
        value: int
        cls: str
        rest: tuple

    class Twin(Frozen):
        value: int
        cls: str
        rest: tuple

    x = Sample._trusted(3, "c", (1,))
    assert list(vars(x).items()) == [("value", 3), ("cls", "c"), ("rest", (1,))]
    assert repr(x) == "Sample(value=3, cls='c', rest=(1,))"
    assert hash(x) == hash(tuple(vars(x).values())) == hash((3, "c", (1,)))
    assert x == Sample._trusted(3, "c", (1,)) and x != Sample._trusted(3, "c", ())
    twin = Twin._trusted(3, "c", (1,))
    assert hash(twin) == hash(x) and x != twin and not x == twin
    with pytest.raises(TypeError):
        Sample._trusted(3, "c")
    with pytest.raises(AttributeError, match="cannot assign"):
        x.cls = "d"
    assert x.cls == "c"


def test_report_records_compare_by_value_and_stay_mutable():
    report = run_verify(1)
    check = report.checks[0]
    assert repr(check) == (
        "CheckResult(name='path-enumeration-vs-table', scope='i <= 2',"
        " passed=True, detail='')"
    )
    copy = CheckResult(check.name, check.scope, check.passed, check.detail)
    assert check == copy and not check != copy
    assert check != CheckResult(check.name, check.scope, check.passed, "witness")
    fields = (check.name, check.scope, check.passed, check.detail)
    assert check.__eq__(fields) is NotImplemented
    assert report == VerifyReport(list(report.checks))
    assert report.__eq__(report.checks) is NotImplemented
    for record in (check, report):
        with pytest.raises(TypeError):
            hash(record)
    copy.passed = False
    assert copy.passed is False and check != copy
    assert list(report.to_json()["checks"][0]) == ["name", "scope", "passed", "detail"]
