import re
import sys
import time
import tracemalloc
from itertools import product
from math import comb

import pytest

import tricatalan
from tricatalan import lattice
from tricatalan.errors import ParseError
from tricatalan.eventree import enumerate_even_trees, path_to_tree, r_index_poly
from tricatalan.lattice import (
    ballot,
    catalan3,
    catalan3_coeff,
    descent_poly,
    enumerate_paths,
    lattice_columns,
    lattice_poly,
    lattice_table,
    parse_path,
    path_endpoint,
    weight_exponent,
)
from tricatalan.matching import crossing_poly, enumerate_matchings, path_to_matching
from tricatalan.poly import Poly, histogram_poly

# The full printed table of weighted path counts, row by row.
GOLDEN = [
    *[(i, 0, (1,)) for i in range(9)],
    (2, 1, (1,)),
    (3, 1, (1, 1)),
    (4, 1, (2, 1)),
    (5, 1, (2, 2)),
    (6, 1, (3, 2)),
    (7, 1, (3, 3)),
    (8, 1, (4, 3)),
    (4, 2, (2, 1)),
    (5, 2, (2, 3, 2)),
    (6, 2, (5, 5, 2)),
    (7, 2, (5, 8, 5)),
    (8, 2, (9, 11, 5)),
    (6, 3, (5, 5, 2)),
    (7, 3, (5, 10, 10, 5)),
    (8, 4, (14, 21, 15, 5)),
]


@pytest.mark.parametrize("i,j,coeffs", GOLDEN)
def test_golden_table(i, j, coeffs):
    assert lattice_poly(i, j) == Poly(coeffs)


def test_above_line_is_zero():
    for i in range(-3, 30):
        for j in range(-3, 20):
            if i < 0 or j < 0 or i < 2 * j:
                assert lattice_poly(i, j) == Poly.zero(), (i, j)


def test_parse_path_accepts_valid():
    assert parse_path("") == ""
    assert parse_path("EEENEN") == "EEENEN"
    assert path_endpoint("EEENEN") == (4, 2)


def test_parse_path_reports_bad_character_index():
    with pytest.raises(ParseError, match="index 2"):
        parse_path("EEXEN")


def test_parse_path_reports_first_violation_index():
    with pytest.raises(ParseError, match="index 0"):
        parse_path("N")
    with pytest.raises(ParseError, match="index 1"):
        parse_path("ENE")
    with pytest.raises(ParseError, match="index 3"):
        parse_path("EENN")


def _outcome(function, path):
    try:
        function(path)
    except ParseError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("fold", [path_to_matching, path_to_tree, weight_exponent])
def test_folds_check_each_step_as_parse_path_does(fold):
    # The folds and weight_exponent check their steps in their own loop, so
    # each must accept exactly what parse_path accepts and name the same
    # first bad step: "EX" and "EN" are refused, not counted.
    for length in range(9):
        for steps in product("ENX", repeat=length):
            path = "".join(steps)
            assert _outcome(fold, path) == _outcome(parse_path, path), path


def test_weight_exponent():
    assert weight_exponent("EENEEN") == 0
    assert weight_exponent("EEENEN") == 1
    assert weight_exponent("") == 0
    assert weight_exponent("EEEENEEENNEN") == 2


def test_enumerate_paths_base_cases():
    assert enumerate_paths(0, 0) == [""]
    assert enumerate_paths(2, 1) == ["EEN"]
    assert enumerate_paths(1, 1) == []


@pytest.mark.parametrize("count", [True, 2.0, "3"])
def test_enumerators_refuse_a_count_that_is_not_an_int(count):
    # A bool is refused too, though bool is an int subclass: each family
    # would otherwise be listed for 1 or 0, or a float fail deep inside.
    calls = [
        (enumerate_paths, (count, 0), "i"),
        (enumerate_paths, (4, count), "j"),
        (enumerate_matchings, (count, 0), "points"),
        (enumerate_matchings, (4, count), "edge_count"),
        (crossing_poly, (count, 0), "points"),
        (crossing_poly, (4, count), "edge_count"),
        (enumerate_even_trees, (count,), "edge_count"),
        (r_index_poly, (count,), "n"),
    ]
    for enumerate_family, args, name in calls:
        message = f"{name} must be an integer, got {re.escape(repr(count))}"
        with pytest.raises(TypeError, match=message):
            enumerate_family(*args)


@pytest.mark.parametrize("count", [True, 2.0, "3"])
def test_lattice_entries_refuse_a_count_that_is_not_an_int(count):
    # ballot(4.0, 1) returned the float 3.0, ballot(True, 0), catalan3(True)
    # and lattice_poly(True, 0) read True as 1, and a float failed inside
    # range.  Both streams refuse at call time, before a column is asked for.
    calls = [
        (ballot, (count, 0), "i"),
        (ballot, (4, count), "j"),
        (ballot, (4, 1, count), "cap"),
        (catalan3, (count,), "n"),
        (catalan3_coeff, (count, 0), "n"),
        (catalan3_coeff, (3, count), "k"),
        (descent_poly, (count,), "n"),
        (lattice_poly, (count, 0), "i"),
        (lattice_poly, (4, count), "j"),
        (lattice_columns, (count,), "max_i"),
        (lattice_table, (count,), "max_i"),
    ]
    for entry, args, name in calls:
        message = f"{name} must be an integer, got {re.escape(repr(count))}"
        with pytest.raises(TypeError, match=message):
            entry(*args)


def test_enumerate_paths_lexicographic():
    paths = enumerate_paths(4, 1)
    assert paths == sorted(paths)
    assert paths == ["EEEEN", "EEENE", "EENEE"]


@pytest.mark.parametrize("n", range(1, 6))
def test_enumerate_paths_corner_counts(n):
    assert len(enumerate_paths(2 * n, n)) == catalan3(n)


def test_enumeration_matches_table():
    # Independent route: explicit paths, weights summed by exponent.
    for i in range(11):
        for j in range(i // 2 + 1):
            counts = {}
            for p in enumerate_paths(i, j):
                w = weight_exponent(p)
                counts[w] = counts.get(w, 0) + 1
            coeffs = [counts.get(k, 0) for k in range(max(counts, default=-1) + 1)]
            assert Poly(tuple(coeffs)) == lattice_poly(i, j), (i, j)


def test_catalan3_values():
    assert [catalan3(n) for n in range(8)] == [1, 1, 3, 12, 55, 273, 1428, 7752]
    with pytest.raises(ValueError):
        catalan3(-1)


def test_catalan3_is_the_closed_binomial_form():
    # The closed form typed again here, so catalan3 is pinned to a route
    # that does not pass through lattice.ballot.
    for n in range(300):
        q, r = divmod(comb(3 * n, n), 2 * n + 1)
        assert r == 0 and catalan3(n) == q, n


def test_exact_div_names_an_inexact_division():
    assert lattice._exact_div(12, 4, "twelve") == 3
    with pytest.raises(ArithmeticError, match=r"^thirteen: division by 4 is not exact$"):
        lattice._exact_div(13, 4, "thirteen")


def test_ballot_counts_the_enumerated_paths():
    for i in range(15):
        for j in range(i // 2 + 1):
            assert ballot(i, j) == len(enumerate_paths(i, j)), (i, j)


def test_ballot_is_the_table_at_one():
    for i, column in enumerate(lattice_columns(120)):
        for j, coeffs in enumerate(column):
            assert ballot(i, j) == sum(coeffs), (i, j)


def test_ballot_is_zero_off_the_region():
    for i in range(-3, 20):
        for j in range(-3, 12):
            if i < 0 or j < 0 or i < 2 * j:
                assert ballot(i, j) == 0 and ballot(i, j, 5) == 0, (i, j)


def test_capped_ballot_is_exact_up_to_the_cap():
    for i in range(31):
        for j in range(i // 2 + 1):
            b = ballot(i, j)
            for cap in (b - 1, b, b + 1):
                capped = ballot(i, j, cap)
                assert (capped == b) if b <= cap else (capped > cap), (i, j, cap)
    with pytest.raises(ValueError):
        ballot(2, 1, -1)


def test_capped_ballot_stops_early_at_any_size():
    start = time.perf_counter()
    assert ballot(10**30, 10**29, 10**7) > 10**7
    assert time.perf_counter() - start < 0.5


def test_ballot_is_exported():
    assert tricatalan.ballot is ballot and "ballot" in tricatalan.__all__


def test_catalan3_coeff_values():
    assert catalan3_coeff(4, 0) == 14
    assert catalan3_coeff(3, 1) == 5
    assert catalan3_coeff(4, 3) == 5
    with pytest.raises(ValueError):
        catalan3_coeff(0, 0)
    with pytest.raises(ValueError):
        catalan3_coeff(3, 3)


def test_descent_poly_values():
    assert descent_poly(2) == Poly((1,))
    assert descent_poly(3) == Poly((2, 1))
    assert descent_poly(4) == Poly((5, 5, 2))
    with pytest.raises(ValueError):
        descent_poly(1)


@pytest.mark.parametrize("n", range(1, 101))
def test_corner_identities(n):
    corner = lattice_poly(2 * n, n)
    assert descent_poly(n + 1) == corner
    assert corner == lattice_poly(2 * n, n - 1)
    assert corner.eval_at_one() == catalan3(n)
    assert [corner.coefficient(k) for k in range(n)] == [
        catalan3_coeff(n, k) for k in range(n)
    ]


@pytest.mark.parametrize("n", range(1, 13))
def test_row_sum_identity(n):
    total = Poly.zero()
    for j in range(n):
        total = total + lattice_poly(2 * n - 1, j)
    assert total == lattice_poly(2 * n, n)


def test_lattice_table_shape():
    cells = lattice_table(4)
    assert [(i, j) for i, j, _ in cells] == [
        (0, 0), (1, 0), (2, 0), (2, 1), (3, 0), (3, 1),
        (4, 0), (4, 1), (4, 2),
    ]
    with pytest.raises(ValueError):
        lattice_table(-1)


def test_lattice_table_validates_at_call_time():
    # Both streams check max_i before any column is asked for.
    with pytest.raises(ValueError):
        lattice_columns(-1)
    cells = lattice_table(0)
    assert [(i, j, p) for i, j, p in cells] == [(0, 0, Poly((1,)))]


def test_streams_agree_with_lattice_poly():
    columns = list(lattice_columns(12))
    assert [len(column) for column in columns] == [i // 2 + 1 for i in range(13)]
    cells = list(lattice_table(12))
    assert [(i, j) for i, j, _ in cells] == [
        (i, j) for i, column in enumerate(columns) for j in range(len(column))
    ]
    for i, j, p in cells:
        assert p == lattice_poly(i, j) == Poly(columns[i][j]), (i, j)
        assert p.coeffs == columns[i][j] and p.coeffs[-1] != 0


# The odd-column symmetry that the module docstring proves, by two routes.
@pytest.mark.parametrize("i", range(1, 16, 2))
def test_odd_column_weights_are_palindromes_by_enumeration(i):
    for j in range(i // 2 + 1):
        coeffs = histogram_poly(map(weight_exponent, enumerate_paths(i, j))).coeffs
        assert len(coeffs) == j + 1, (i, j)
        assert coeffs == coeffs[::-1], (i, j)


def test_every_dp_cell_is_the_closed_form():
    # The DP mirrors each odd-column cell from its first half, so its
    # palindromes hold by construction; the closed form is the second route.
    for i, column in enumerate(lattice_columns(120)):
        for j, coeffs in enumerate(column):
            assert coeffs == lattice_poly(i, j).coeffs and coeffs[-1] != 0, (i, j)


def test_closed_form_bottom_row():
    # (0, 0) lies outside both formulas, and (1, 0) is the odd one at m = 0.
    for i in range(300):
        assert lattice_poly(i, 0) == Poly((1,)), i


def test_closed_form_trims_the_zero_top_of_even_on_line_cells():
    # At k = m the even-column weight m(m+1-j) - k is 0 on the line j = m,
    # so L(2m, m) has degree m - 1, as its neighbour L(2m, m - 1) does.
    for m in range(1, 150):
        assert lattice_poly(2 * m, m).degree() == m - 1, m
        assert lattice_poly(2 * m, m - 1).degree() == m - 1, m
        assert lattice_poly(2 * m + 1, m).degree() == m, m


def test_closed_form_reads_a_far_odd_cell():
    # The DP had not reached column 4000 after nine minutes.
    coeffs = lattice_poly(4001, 2000).coeffs
    assert len(coeffs) == 2001 and coeffs == coeffs[::-1]
    assert sum(coeffs) == ballot(4001, 2000)


def test_cold_deep_corner_needs_no_recursion():
    # The seed's recursive cached DP raised RecursionError here when cold.
    assert sys.getrecursionlimit() <= 1000
    corner = lattice_poly(400, 200)
    assert corner.coeffs == tuple(catalan3_coeff(200, k) for k in range(200))


def test_lattice_table_streams_in_bounded_memory():
    # Consuming lattice_table(200) peaked at 23.1 MB under tracemalloc with
    # the seed's cached DP, which kept every cell; two columns take well
    # under 1 MB.
    tracemalloc.start()
    try:
        count = sum(1 for _ in lattice_table(200))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert count == sum(i // 2 + 1 for i in range(201))
    assert peak < 3_000_000, peak
