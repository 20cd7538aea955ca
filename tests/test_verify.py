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
    return p + Poly((1,))


def reversed_path(path):
    return path[::-1]


def edit_cell(i, j, edit):
    """A corruption of streamed lattice_columns that replaces the
    coefficients c of L(i, j) by edit(c)."""

    def wrong(columns):
        for k, column in enumerate(columns):
            if k == i:
                column = list(column)
                column[j] = edit(column[j])
            yield column

    return wrong


def bump_cell(i, j):
    """Adds 1 to L(i, j)."""
    return edit_cell(i, j, lambda c: (c[0] + 1, *c[1:]))


EEENEN_MATCHING = matching.PartialMatching(4, ((1, 3), (2, 4)))
EEEENN_TREE = eventree.path_to_tree("EEEENN")  # 4 edges, in the family for n = 2
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
    # run_verify(2)'s closed-form checks read one pass over lattice_columns(4).
    "odd-column-row-sum": (lattice, "lattice_columns", (4,), bump_cell(3, 0), "n=2"),
    "on-line-collapse": (lattice, "lattice_columns", (4,), bump_cell(4, 1), "n=2"),
    "matching-class-counts": (
        matching, "crossings", (EEENEN_MATCHING,), plus_one, "(i,j)=(4,2)"
    ),
    "matching-bijection": (
        matching, "matching_to_path", (EEENEN_MATCHING,), reversed_path,
        "path 'EEENEN'",
    ),
    "even-tree-counts": (eventree, "r_index", (EEEENN_TREE,), plus_one, "n=2"),
    "even-tree-bijection": (
        eventree, "tree_to_path", (EEEENN_TREE,), reversed_path, "path 'EEEENN'"
    ),
    "shift-lift-crossing-deltas": (
        matching, "crossings", (FIRST_SHIFTED,), plus_one,
        "shift changed crossings on {'m': 6,",
    ),
}


# The witnesses that FAULTS does not reach, each fired by one corruption:
# (check, module, function, arguments to corrupt, corruption, witness).
WITNESS_FAULTS = [
    (
        "corner-coefficient-formula", lattice, "catalan3", (2,), plus_one,
        "n=2: coefficient sum 3 != 4",
    ),
    (
        "corner-coefficient-formula", lattice, "lattice_columns", (4,),
        edit_cell(4, 2, lambda c: (*c, 1)), "n=2: table degree 2 != 1",
    ),
    (
        "matching-bijection", matching, "enumerate_matchings", (4, 2),
        lambda members: members[1:],
        "(i,j)=(4,2): images differ from the enumerated family",
    ),
    (
        "matching-bijection", matching, "path_to_matching", ("EEENE",),
        lambda _: matching.path_to_matching("EEEEN"),
        "(i,j)=(4,1): duplicate images under path folding",
    ),
    # A family that lists an object twice fails the checks that read it,
    # though its map of objects to statistics holds each object once.
    (
        "path-enumeration-vs-table", lattice, "enumerate_paths", (3, 1),
        lambda paths: [*paths, paths[0]],
        "raised ValueError: an object is enumerated twice",
    ),
    (
        "even-tree-bijection", eventree, "path_to_tree", ("EENE",),
        lambda _: eventree.path_to_tree("EEEN"),
        "(i,j)=(3,1): duplicate intermediate trees",
    ),
    # With three isolated points lift joins 1 and 3 over 2, one crossing;
    # the corruption joins 1 and 2 instead, as the even lift would.
    (
        "shift-lift-crossing-deltas", matching, "lift",
        (matching.path_to_matching("EEE"),),
        lambda _: matching.PartialMatching(3, ((1, 2),)),
        "lift changed crossings by 0 (expected 1)",
    ),
]


def failed_check(monkeypatch, check, module, name, target, wrong):
    """The result of check in run_verify(2) with the corruption in place."""
    corrupt(monkeypatch, module, name, target, wrong)
    report = verify.run_verify(2)
    assert not report.overall
    return next(c for c in report.checks if c.name == check)


def test_every_check_has_a_fault():
    assert set(FAULTS) == {c.name for c in verify.run_verify(1).checks}


@pytest.mark.parametrize("check", FAULTS)
def test_fault_injection_fails_the_check(monkeypatch, check):
    module, name, target, wrong, where = FAULTS[check]
    result = failed_check(monkeypatch, check, module, name, target, wrong)
    assert not result.passed
    assert where in result.detail


@pytest.mark.parametrize(
    "check, module, name, target, wrong, witness",
    WITNESS_FAULTS,
    ids=[fault[2] for fault in WITNESS_FAULTS],
)
def test_each_witness_fires(monkeypatch, check, module, name, target, wrong, witness):
    result = failed_check(monkeypatch, check, module, name, target, wrong)
    assert not result.passed
    assert result.detail.startswith(witness)


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
    calls = []

    def crashing(points, edge_count):
        calls.append((points, edge_count))
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
    # The table is built once per run: its failing build is not run again
    # for the second check that reads it.
    assert calls.count((4, 2)) == 1


def test_verify_help_states_the_caps(capsys, monkeypatch):
    monkeypatch.setattr(verify, "MATCHING_MAX_I", 13)
    monkeypatch.setattr(verify, "TREE_BIJECTION_MAX_N", 6)
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "paths i <= 14" in text and "matchings i <= 13" in text
    assert "tree counts n <= 8" in text and "tree bijection n <= 6" in text


def counting(monkeypatch, *targets):
    """Count the calls of each (module, name) target; returns the live counts."""
    counts = {name: 0 for _, name in targets}
    for module, name in targets:
        real = getattr(module, name)

        def counted(*args, name=name, real=real):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    return counts


def test_verify_folds_and_unfolds_each_object_once(monkeypatch):
    counts = counting(
        monkeypatch,
        (matching, "path_to_matching"),
        (matching, "matching_to_path"),
        (eventree, "path_to_tree"),
        (eventree, "tree_to_path"),
    )
    assert verify.run_verify(5).overall
    # 1,255 paths with i <= 10 (the matching table's members) plus the
    # shift-lift check's 200 samples; 344 trees at (2n, n) for n <= 5.
    assert counts == {
        "path_to_matching": 1255 + verify.RANDOM_TRIALS,
        "matching_to_path": 1255,
        "path_to_tree": 1255,
        "tree_to_path": 344,
    }


def test_verify_counts_each_members_crossings_once(monkeypatch):
    counts = counting(monkeypatch, (matching, "crossings"))
    seen = {}
    for result in verify.iter_verify(5):
        assert result.passed
        seen[result.name] = counts["crossings"]
    # The matching table's build takes the 1,255 members' crossings, on the
    # class counts' first read, and the bijection reads them from it.  The
    # shift-lift check makes 3 calls per sample and one more for each
    # sample with a lift: 158 of the 200 at seed 0.
    assert seen["matching-class-counts"] == 1255
    assert seen["matching-bijection"] == 1255
    assert counts["crossings"] == 1255 + 3 * verify.RANDOM_TRIALS + 158


def test_verify_computes_each_objects_statistic_once(monkeypatch):
    counts = counting(
        monkeypatch,
        (lattice, "weight_exponent"),
        (eventree, "r_index"),
        (eventree, "enumerate_even_trees"),
        (matching, "crossings"),
    )
    assert verify.run_verify(5).overall
    # Each family maps its objects to their statistic, built once per run:
    # the 1,255 paths with i <= 10 are weighed once for the path oracle and
    # both bijections, and the 344 trees with 2n <= 10 edges are enumerated
    # once per n and indexed once for the counts and the bijection.  The
    # crossings are the 1,255 members' plus the shift-lift check's.
    assert counts == {
        "weight_exponent": 1255,
        "r_index": 344,
        "enumerate_even_trees": 5,
        "crossings": 1255 + 3 * verify.RANDOM_TRIALS + 158,
    }


def test_verify_enumerates_each_path_cell_once(monkeypatch):
    counts = counting(monkeypatch, (lattice, "enumerate_paths"))
    assert verify.run_verify(5).overall
    # The 36 cells with i <= 10, shared by the path oracle and both bijections.
    assert counts == {"enumerate_paths": 36}


CLOSED_FORM = [
    "corner-coefficient-formula",
    "descent-closed-form",
    "odd-column-row-sum",
    "on-line-collapse",
]


def test_closed_form_checks_share_one_dp_pass(monkeypatch):
    counts = counting(
        monkeypatch, (lattice, "lattice_columns"), (lattice, "lattice_poly")
    )
    seen = {}
    for result in verify.iter_verify(5):
        assert result.passed
        seen[result.name] = dict(counts)
    # Results stream: each count is read as soon as its check has run.  The
    # first check starts the one pass; no check reruns the DP per cell.
    assert list(seen) == list(FAULTS)
    for name in seen:
        assert seen[name] == {"lattice_columns": 1, "lattice_poly": 0}


def test_first_check_reads_only_the_columns_it_needs(monkeypatch):
    # The path oracle needs columns 0..14; the closed-form checks carry on
    # through the same pass to column 2 * max_n.
    real = lattice.lattice_columns
    calls, read = [], []

    def counted(max_i):
        calls.append(max_i)

        def columns():
            for column in real(max_i):
                read.append(column)
                yield column

        return columns()

    monkeypatch.setattr(lattice, "lattice_columns", counted)
    results = verify.iter_verify(200)
    first = next(results)
    assert first.name == "path-enumeration-vs-table" and first.passed
    assert len(read) <= verify.PATH_ORACLE_MAX_I + 1 and calls == [400]
    for name in CLOSED_FORM:
        result = next(results)
        assert result.name == name and result.passed
    assert len(read) == 401 and calls == [400]


def test_verify_runs_without_lattice_poly(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify must read the shared DP pass")

    monkeypatch.setattr(lattice, "lattice_poly", refuse)
    report = verify.run_verify(6)
    assert report.overall, [c.detail for c in report.checks if not c.passed]


def test_exception_in_the_shared_dp_pass_fails_the_closed_form_checks(
    capsys, monkeypatch
):
    real = lattice.lattice_columns

    def crashing(max_i):
        for i, column in enumerate(real(max_i)):
            if i == 3:
                raise ArithmeticError("injected")
            yield column

    monkeypatch.setattr(lattice, "lattice_columns", crashing)
    assert cli.main(["verify", "--max-n", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines[:-1]] == list(FAULTS)
    failed = [line for line in lines[:-1] if line.startswith("FAIL")]
    # Every check that reads a table value reads it from the pass, in order.
    reads_the_pass = {
        "path-enumeration-vs-table": "i <= 4",
        **{name: "n = 1..2" for name in CLOSED_FORM},
        "matching-class-counts": "i <= 4",
        "even-tree-counts": "n = 1..2",
    }
    assert failed == [
        f"FAIL {name} [{scope}]: raised ArithmeticError: injected"
        for name, scope in reads_the_pass.items()
    ]
    assert sum(line.startswith("PASS") for line in lines) == 3
    assert lines[-1] == "overall: FAIL"
