"""Every verify check must be able to fail, and say where."""

import random

import pytest

from tricatalan import cli, eventree, lattice, matching, verify
from tricatalan.errors import DomainError
from tricatalan.poly import Poly


def corrupt(monkeypatch, module, name, target, wrong):
    """Make module.name return wrong(result) when called with exactly target."""
    real = getattr(module, name)

    def faulty(*args):
        result = real(*args)
        return wrong(result) if args == target else result

    monkeypatch.setattr(module, name, faulty)


def plus_one(value):
    return value + 1


def plus_one_poly(p):
    return p + Poly.one()


def reversed_path(path):
    return path[::-1]


EEENEN_MATCHING = matching.PartialMatching(4, ((1, 3), (2, 4)))
# The first sample the shift-lift check draws at seed 0, after one shift.
FIRST_SHIFTED = matching.shift(verify._random_matching(random.Random(0), 12))

# check -> (module, function, arguments to corrupt, corruption, text in witness)
FAULTS = {
    "path-enumeration-vs-table": (
        lattice, "weight_exponent", ("EEEN",), plus_one, "(i,j)=(3,1)"
    ),
    "corner-coefficient-formula": (
        lattice, "catalan3_coeff", (2, 1), plus_one, "n=2 k=1"
    ),
    "descent-closed-form": (lattice, "descent_poly", (3,), plus_one_poly, "n=2"),
    "odd-column-row-sum": (lattice, "lattice_poly", (3, 0), plus_one_poly, "n=2"),
    "on-line-collapse": (lattice, "lattice_poly", (4, 1), plus_one_poly, "n=2"),
    "matching-class-counts": (
        matching, "crossings", (EEENEN_MATCHING,), plus_one, "(i,j)=(4,2)"
    ),
    "matching-bijection": (
        matching, "matching_to_path", (EEENEN_MATCHING,), reversed_path,
        "path 'EEENEN'",
    ),
    "even-tree-counts": (eventree, "r_index_poly", (2,), plus_one_poly, "n=2"),
    "even-tree-bijection": (
        eventree, "tree_to_path", (eventree.path_to_tree("EEEENN"),), reversed_path,
        "path 'EEEENN'",
    ),
    "shift-lift-crossing-deltas": (
        matching, "crossings", (FIRST_SHIFTED,), plus_one,
        "shift changed crossings on {'m': 6,",
    ),
}


def test_every_check_has_a_fault():
    assert set(FAULTS) == {c.name for c in verify.run_verify(1).checks}


@pytest.mark.parametrize("check", FAULTS)
def test_fault_injection_fails_the_check(monkeypatch, check):
    module, name, target, wrong, where = FAULTS[check]
    corrupt(monkeypatch, module, name, target, wrong)
    report = verify.run_verify(2)
    result = next(c for c in report.checks if c.name == check)
    assert not result.passed
    assert where in result.detail
    assert not report.overall


def test_exception_in_checked_code_is_the_witness(capsys, monkeypatch):
    real = matching.matching_to_path

    def crashing(m):
        if m == EEENEN_MATCHING:
            raise DomainError("injected")
        return real(m)

    monkeypatch.setattr(matching, "matching_to_path", crashing)
    result = next(
        c for c in verify.run_verify(2).checks if c.name == "matching-bijection"
    )
    assert not result.passed
    assert result.detail == "raised DomainError: injected"
    assert cli.main(["verify", "--max-n", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == list(FAULTS)
    assert "FAIL matching-bijection [i <= 4]: raised DomainError" in lines[6]
    assert lines[-1] == "overall: FAIL"


def test_exception_while_enumerating_matchings_fails_both_matching_checks(
    capsys, monkeypatch
):
    real = matching.enumerate_matchings

    def crashing(points, edge_count):
        if (points, edge_count) == (4, 2):
            raise DomainError("injected")
        return real(points, edge_count)

    monkeypatch.setattr(matching, "enumerate_matchings", crashing)
    assert cli.main(["verify", "--max-n", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == list(FAULTS)
    failed = [line for line in lines[:-1] if line.startswith("FAIL")]
    assert failed == [
        f"FAIL {name} [i <= 4]: raised DomainError: injected"
        for name in ("matching-class-counts", "matching-bijection")
    ]
    assert lines[-1] == "overall: FAIL"


def test_verify_help_states_the_caps(capsys, monkeypatch):
    monkeypatch.setattr(verify, "MATCHING_MAX_I", 13)
    monkeypatch.setattr(verify, "TREE_BIJECTION_MAX_N", 6)
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "paths i <= 14" in text and "matchings i <= 13" in text
    assert "tree counts n <= 8" in text and "tree bijection n <= 6" in text


def test_verify_folds_and_unfolds_each_object_once(monkeypatch):
    counts = {}

    def counting(module, name):
        real = getattr(module, name)

        def counted(*args):
            counts[name] = counts.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    counting(matching, "path_to_matching")
    counting(matching, "matching_to_path")
    counting(eventree, "path_to_tree")
    counting(eventree, "tree_to_path")
    assert verify.run_verify(5).overall
    # 1,255 paths with i <= 10 (the matching table's members) plus the
    # shift-lift check's 200 samples; 344 trees at (2n, n) for n <= 5.
    assert counts == {
        "path_to_matching": 1255 + verify.RANDOM_TRIALS,
        "matching_to_path": 1255,
        "path_to_tree": 1255,
        "tree_to_path": 344,
    }
