import random
import sys
from bisect import bisect_left, bisect_right
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tricatalan import matching
from tricatalan.errors import DomainError, ParseError
from tricatalan.lattice import enumerate_paths, weight_exponent
from tricatalan.matching import (
    FORBIDDEN_PATTERN,
    PartialMatching,
    canonical_sequence,
    completed_sequence,
    contains_forbidden,
    contains_pattern,
    crossing_poly,
    crossings,
    enumerate_matchings,
    is_admissible,
    lift,
    matching_from_json,
    matching_to_json,
    matching_to_path,
    path_to_matching,
    sequence_text,
    shift,
)
from tricatalan.lattice import lattice_poly
from tricatalan.poly import Poly
from tricatalan.verify import _random_path


def test_construction_validates():
    PartialMatching(0)
    PartialMatching(5, ((1, 4), (3, 5)))
    with pytest.raises(ParseError, match=r"edge \(1,4\) is not inside 1\.\.3"):
        PartialMatching(3, ((1, 4),))
    for edge in ((2, 2), (2, 1)):
        with pytest.raises(ParseError, match=r"a must be less than b"):
            PartialMatching(4, (edge,))
    with pytest.raises(ParseError):
        PartialMatching(4, ((1, 3), (3, 4)))
    with pytest.raises(ParseError):
        PartialMatching(-1)


@pytest.mark.parametrize(
    "m, edges, boolean",
    [
        (True, (), True),
        (2, ((True, 2),), True),
        (2, ((1, False),), True),
        ("3", (), False),
        (3, ((1, "2"), (1, 3)), False),
        (3, ((1, 2.0),), False),
        (3, ((1,),), False),
        (3, (7,), False),
    ],
)
def test_construction_rejects_non_integers(m, edges, boolean):
    with pytest.raises(ParseError) as exc:
        PartialMatching(m, edges)
    assert ("boolean" in str(exc.value)) == boolean


def test_edges_stored_sorted():
    m = PartialMatching(6, ((3, 5), (1, 2)))
    assert m.edges == ((1, 2), (3, 5))
    assert m.isolated() == (4, 6)


def test_canonical_sequence_examples():
    assert canonical_sequence(PartialMatching(8, ((1, 7), (2, 4), (3, 8), (5, 6)))) == (
        1, 2, 3, 2, 4, 4, 1, 3,
    )
    assert canonical_sequence(PartialMatching(5, ((1, 4), (3, 5)))) == (1, 2, 3, 1, 3)
    assert canonical_sequence(PartialMatching(1)) == (1,)
    assert sequence_text((1, 2, 3, 1, 3)) == "1,2,3,1,3"


def test_completed_sequence_appends_virtual_closes():
    # Isolated points dangle past the right end and do not cross each other.
    assert completed_sequence(PartialMatching(5, ((1, 4), (3, 5)))) == (
        1, 2, 3, 1, 3, 2,
    )
    assert completed_sequence(PartialMatching(3)) == (1, 2, 3, 3, 2, 1)
    assert completed_sequence(PartialMatching(4, ((1, 2), (3, 4)))) == (1, 1, 2, 2)


def test_contains_pattern_examples():
    assert contains_pattern((1, 2, 3, 2, 4, 4, 1, 3), FORBIDDEN_PATTERN)
    assert not contains_pattern((1, 2, 3, 1, 3), FORBIDDEN_PATTERN)
    assert contains_pattern((5, 7), (1,))
    assert not contains_pattern((), (1,))
    assert contains_pattern((4, 4), (2, 2))
    assert not contains_pattern((4, 5), (2, 2))
    assert contains_pattern(iter((1, 2, 3, 1, 2)), FORBIDDEN_PATTERN)
    assert not contains_pattern((1, 2), iter((2, 1)))
    # The empty pattern is in every word, the empty word holds no other.
    assert contains_pattern((), ())
    assert contains_pattern((3, 1), ())
    assert not contains_pattern((), FORBIDDEN_PATTERN)
    # Letters need not be 1..k, and words may repeat values.
    assert contains_pattern((7, 3, 8, 3), (5, 2, 9, 2))
    assert not contains_pattern((7, 3, 8, 4), (5, 2, 9, 2))
    assert not contains_pattern((3, 7, 8, 3), (5, 2, 9, 2))
    assert contains_pattern((2, 2, 6, 2, 6, 6), (1, 1, 4))
    assert not contains_pattern((6, 6, 2, 2), (1, 1, 4))
    # A fifth letter's values must lie above the fourth's, and every level
    # must test all letters so far, the smallest included.
    assert not contains_pattern((4, 6, 3, 1, 3, 5, 4, 5), (1, 0, 3, 2, 4))
    assert not contains_pattern((4, 1, 2, 3, 0, 1, 2, 3), (0, 4, 1, 2, 3))
    # The sixth letter's level must test the third letter too.
    assert not contains_pattern((0, 1, 5, 2, 3, 4), (0, 1, 2, 5, 3, 4))
    # Patterns of many letters, each level testing every earlier letter.
    word = tuple(range(17))
    assert contains_pattern(word + (16,), word + (16,))
    assert not contains_pattern(word + (15,), word + (16,))
    assert contains_pattern(range(40), range(0, 80, 2))
    assert not contains_pattern(range(39), range(40))
    assert not contains_pattern(range(39, -1, -1), range(40))


def test_permutations_contain_only_themselves_exhaustively():
    # Every pair of permutations of 0..5 as word and pattern: a permutation
    # holds a pattern of its own length only when the two are equal.  The
    # sixth letter's level tests the whole pattern and alone decides a
    # match, so a test there that leaves out any letter admits a wrong pair.
    perms = list(permutations(range(6)))
    for pattern in perms:
        found = [word for word in perms if contains_pattern(word, pattern)]
        assert found == [pattern], pattern


def test_too_few_values_are_answered_without_a_search():
    # Two values cannot hold 300 letters, nor 999 values 1,000.  A word
    # that holds a pattern of 1,000 letters takes one value per letter,
    # each tested once against the pattern cut down so far.
    assert not contains_pattern((1, 2), range(300))
    assert contains_pattern(range(1000), range(1000))
    assert not contains_pattern(range(999), range(1000))


def _naive_contains(seq, pattern):
    for positions in combinations(range(len(seq)), len(pattern)):
        values = [seq[p] for p in positions]
        if all(
            (values[a] < values[b]) == (pattern[a] < pattern[b])
            and (values[a] == values[b]) == (pattern[a] == pattern[b])
            for a in range(len(pattern))
            for b in range(a + 1, len(pattern))
        ):
            return True
    return False


@st.composite
def _words_and_patterns(draw):
    # The empty pattern, and up to 6 letters with gaps and negative values
    # in a pattern of at most 6 places.
    count = draw(st.integers(min_value=0, max_value=6))
    letters = draw(
        st.lists(
            st.sampled_from((-7, -2, 0, 3, 4, 9)),
            unique=True, min_size=count, max_size=count,
        )
    )
    repeats = []
    if letters:
        repeats = draw(st.lists(st.sampled_from(letters), max_size=6 - count))
    pattern = draw(st.permutations(letters + repeats))
    seq = draw(st.lists(st.integers(min_value=-3, max_value=6), max_size=8))
    # Half the words get a copy of the pattern spliced in, each letter
    # doubled and sometimes moved by one or three, which may tie or swap
    # neighbours: long patterns are then found about as often as missed.
    if draw(st.booleans()):
        at = draw(st.integers(min_value=0, max_value=len(seq)))
        seq[at:at] = [2 * p + draw(st.sampled_from((0, 0, 1, -1, 3, -3))) for p in pattern]
    return seq, pattern


@settings(max_examples=300)
@given(_words_and_patterns())
def test_pattern_engine_agrees_with_naive_matcher(case):
    seq, pattern = case
    assert contains_pattern(seq, pattern) == _naive_contains(tuple(seq), tuple(pattern))


def test_patterns_interleaved_with_the_forbidden_one_get_their_own_answers():
    # 27 patterns, each called between two calls with FORBIDDEN_PATTERN on
    # the same word: no call may carry anything over to the next.
    patterns = list(product((1, 2, 3), repeat=3))
    rng = random.Random(3)
    for _ in range(30):
        seq = tuple(rng.randint(1, 5) for _ in range(rng.randint(0, 9)))
        for pattern in patterns:
            for p in (FORBIDDEN_PATTERN, pattern):
                assert contains_pattern(seq, p) == _naive_contains(seq, p), (seq, p)


def test_crossings_micro_values():
    assert crossings(PartialMatching(5, ((1, 4), (2, 5)))) == 3
    assert crossings(PartialMatching(5, ((1, 4), (3, 5)))) == 2
    assert crossings(PartialMatching(5, ((1, 5), (3, 4)))) == 1
    assert crossings(PartialMatching(4, ((1, 3), (2, 4)))) == 1
    assert crossings(PartialMatching(0)) == 0


def test_admissibility_examples():
    assert is_admissible(PartialMatching(4, ((1, 3),)))
    assert not is_admissible(PartialMatching(4, ((1, 4),)))
    assert not is_admissible(PartialMatching(4, ((2, 4),)))


def test_contains_forbidden_uses_dangling_reading():
    # Passes the bare-sequence check but is forbidden once isolated points
    # are read as dangling edges.
    extra = PartialMatching(6, ((1, 4), (3, 5)))
    assert not contains_pattern(canonical_sequence(extra), FORBIDDEN_PATTERN)
    assert contains_forbidden(extra)
    assert contains_forbidden(PartialMatching(6, ((1, 5), (3, 4))))
    assert not contains_forbidden(PartialMatching(6, ((1, 3), (4, 5))))
    assert not contains_forbidden(PartialMatching(6, ((2, 4), (3, 5))))
    assert not contains_forbidden(PartialMatching(3))


def _all_matchings(m):
    """Every partial matching on points 1..m."""

    def pairings(free):
        if not free:
            yield ()
            return
        first, rest = free[0], free[1:]
        yield from pairings(rest)  # first stays isolated
        for t, partner in enumerate(rest):
            for tail in pairings(rest[:t] + rest[t + 1 :]):
                yield ((first, partner),) + tail

    return [PartialMatching(m, edges) for edges in pairings(list(range(1, m + 1)))]


def _backtracking_contains_pattern(seq, pattern):
    """Order-isomorphic containment by backtracking over positions: a
    test-only oracle for contains_pattern, which assigns values instead."""
    seq = tuple(seq)
    pattern = tuple(pattern)
    n, k = len(seq), len(pattern)
    if k == 0:
        return True
    if k > n:
        return False
    chosen: list[int] = []

    def compatible(value: int, depth: int) -> bool:
        for t, prev in enumerate(chosen):
            if (prev < value) != (pattern[t] < pattern[depth]):
                return False
            if (prev == value) != (pattern[t] == pattern[depth]):
                return False
        return True

    def extend(start: int, depth: int) -> bool:
        if depth == k:
            return True
        for pos in range(start, n - (k - depth) + 1):
            if compatible(seq[pos], depth):
                chosen.append(seq[pos])
                if extend(pos + 1, depth + 1):
                    return True
                chosen.pop()
        return False

    return extend(0, 0)


@given(
    st.lists(st.integers(min_value=0, max_value=9), max_size=14),
    st.lists(st.integers(min_value=0, max_value=9), max_size=6),
)
def test_pattern_engine_agrees_with_backtracker(seq, pattern):
    # Any letters, repeated values, and empty words on either side.
    assert contains_pattern(seq, pattern) == _backtracking_contains_pattern(seq, pattern)


def _backtracker_contains(m):
    return _backtracking_contains_pattern(completed_sequence(m), FORBIDDEN_PATTERN)


def test_arc_detector_agrees_with_backtracker_exhaustively():
    # The value-assignment matcher must agree with the backtracker as well.
    objects = [pm for m in range(11) for pm in _all_matchings(m)]
    assert len(objects) == 13232
    disagree = []
    for pm in objects:
        want = _backtracker_contains(pm)
        got = contains_pattern(completed_sequence(pm), FORBIDDEN_PATTERN)
        if contains_forbidden(pm) != want or got != want:
            disagree.append(pm)
    assert disagree == []


def _unpruned_pairings(points):
    """Every perfect pairing of the sorted points in the oracle's order: the
    smallest point paired with each later point in turn, depth first."""
    if not points:
        yield ()
        return
    for t in range(1, len(points)):
        for tail in _unpruned_pairings(points[1:t] + points[t + 1 :]):
            yield ((points[0], points[t]),) + tail


def _record_oracle_words(monkeypatch, calls):
    """Make enumerate_matchings hand each candidate's word and values to
    calls instead of its search, and keep every candidate."""

    def record(seq, values):
        calls.append((tuple(seq), list(values)))
        return False

    monkeypatch.setattr(matching, "_contains_12312", record)


def test_pruned_pairings_are_the_admissible_pairings_in_order(monkeypatch):
    # The oracle hands its search a copy of the completed sequence of each
    # pairing that survives its pruning, in the order it builds them,
    # labelled by opener position; relabelled by first occurrence it is the
    # completed sequence, which determines the pairing.  Record them, keep
    # all, and check that the search gets the values that contains_pattern
    # would give it.
    calls = []
    _record_oracle_words(monkeypatch, calls)
    for m in range(11):
        for size in range(0, m + 1, 2):
            want = [
                edges
                for chosen in combinations(range(1, m + 1), size)
                for edges in _unpruned_pairings(list(chosen))
                if matching.admissibility_violation(PartialMatching(m, edges)) is None
            ]
            calls.clear()
            got = enumerate_matchings(m, size // 2)
            seen = []
            for seq, values in calls:
                assert values == sorted(set(seq))
                labels = {}
                seen.append(tuple(labels.setdefault(v, len(labels) + 1) for v in seq))
            if size:
                assert seen == [completed_sequence(PartialMatching(m, e)) for e in want]
            else:
                # An edgeless cell is answered without a search.
                assert seen == [] and got == [PartialMatching(m)]
            assert [pm.edges for pm in got] == sorted(want)


def test_oracle_search_is_the_generic_matcher_on_the_forbidden_pattern(monkeypatch):
    # The oracle's search is module code, visible to profilers and coverage.
    search = matching._contains_12312
    assert search.__code__.co_filename == matching.__file__
    # Every word of length <= 8 over four values and <= 7 over five, those
    # of length <= 6 also against the naive matcher: (values, longest
    # length, words, words that contain the pattern).
    for size, longest, count, hits in ((4, 8, 87381, 7303), (5, 7, 97656, 3581)):
        alphabet = range(size)
        words = [w for n in range(longest + 1) for w in product(alphabet, repeat=n)]
        assert len(words) == count
        found = 0
        for w in words:
            want = contains_pattern(w, FORBIDDEN_PATTERN)
            assert search(w, sorted(set(w))) == want, w
            if len(w) <= 6:
                assert _naive_contains(w, FORBIDDEN_PATTERN) == want, w
            found += want
        assert found == hits, size
    # Every word the oracle searches for m <= 12: none at edge count 0.
    calls = []
    _record_oracle_words(monkeypatch, calls)
    for m in range(13):
        for size in range(0, m + 1, 2):
            enumerate_matchings(m, size // 2)
    assert len(calls) == 33107
    for seq, values in calls:
        assert search(seq, values) == contains_pattern(seq, FORBIDDEN_PATTERN), seq


def test_edgeless_cells_are_answered_without_a_search(monkeypatch):
    # The one word of an edgeless cell, 1..m then m..1, cannot hold the
    # pattern, so the search is never called, even on 3,000 points.
    def search(seq, values):
        raise AssertionError("searched an edgeless word")

    monkeypatch.setattr(matching, "_contains_12312", search)
    for m in (*range(13), 3000):
        assert enumerate_matchings(m, 0) == [PartialMatching(m)]


def test_oracle_recursion_is_as_deep_as_its_edge_count():
    # The oracle recurses once per edge, not once per point: with the
    # recursion limit 20 frames above the caller, cells of 40 and 30 points
    # still enumerate, and agree with the folds of their paths.
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        got = {cell: enumerate_matchings(*cell) for cell in ((40, 1), (30, 2))}
    finally:
        sys.setrecursionlimit(limit)
    for (i, j), found in got.items():
        folds = map(path_to_matching, enumerate_paths(i, j))
        assert found == sorted(folds, key=lambda m: m.edges), (i, j)


def test_covered_points_lie_in_the_oracle_window():
    # The oracle draws covered points from 1..size + (free + 1) // 2: no
    # covered point of an admissible matching has more than (free + 1) // 2
    # isolated points before it.  Every cell with an edge reaches that
    # bound with a pattern-avoiding member, so no narrower window is safe.
    for m in range(11):
        for size in range(2, m + 1, 2):
            free = m - size
            top = top_kept = 0
            for chosen in combinations(range(1, m + 1), size):
                for edges in _unpruned_pairings(list(chosen)):
                    pm = PartialMatching(m, edges)
                    if matching.admissibility_violation(pm) is not None:
                        continue
                    # The last covered point has the most isolated points before it.
                    before = chosen[-1] - size
                    top = max(top, before)
                    if not contains_pattern(completed_sequence(pm), FORBIDDEN_PATTERN):
                        top_kept = max(top_kept, before)
            assert top <= (free + 1) // 2, (m, size)
            assert top_kept == (free + 1) // 2, (m, size)


def _pairwise_crossings(pm):
    """Crossings by comparing every pair of edges, plus a bisection per edge
    into the isolated points: a test-only reference for the sweep."""
    count = 0
    # The edges are sorted and disjoint, so a < c in every pair taken here.
    for (_, b), (c, d) in combinations(pm.edges, 2):
        if c < b < d:
            count += 1
    iso = pm.isolated()
    for a, b in pm.edges:
        count += bisect_left(iso, b) - bisect_right(iso, a)
    return count


def test_crossings_sweep_equals_the_pairwise_count_exhaustively():
    # Every partial matching with m <= 10, admissible or not.
    for m in range(11):
        for pm in _all_matchings(m):
            assert crossings(pm) == _pairwise_crossings(pm), pm


@given(
    st.integers(min_value=0, max_value=40),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=20),
)
def test_crossings_sweep_equals_the_pairwise_count_on_random_matchings(m, seeds):
    pm = _build_matching(m, seeds)
    assert crossings(pm) == _pairwise_crossings(pm)


def test_crossings_on_long_paths():
    # The pairwise count would take about a minute on this path.
    path = _random_path(random.Random(1), 10 ** 5)
    assert crossings(path_to_matching(path)) == weight_exponent(path)
    k = 10 ** 5
    staircase = "E" * (2 * k) + "N" * k
    assert crossings(path_to_matching(staircase)) == weight_exponent(staircase) == 0


def _reference_pairings(points, iso):
    """The admissible perfect pairings of the sorted points against the
    sorted isolated points iso, by recursion, each edge's counts by bisect."""
    if not points:
        yield ()
        return
    a = points[0]
    for t in range(1, len(points)):
        b = points[t]
        inside = bisect_left(iso, b) - bisect_right(iso, a)
        before = bisect_left(iso, a)
        after = len(iso) - bisect_right(iso, b)
        if matching._edge_violation(a, b, inside, before, after) is not None:
            continue
        for tail in _reference_pairings(points[1:t] + points[t + 1 :], iso):
            yield ((a, b),) + tail


def _reference_enumeration(points, edge_count):
    """enumerate_matchings by a separate route: combinations, recursive
    pruned pairings, completed_sequence, then contains_pattern."""
    kept = []
    for chosen in combinations(range(1, points + 1), 2 * edge_count):
        iso = [p for p in range(1, points + 1) if p not in chosen]
        for edges in _reference_pairings(list(chosen), iso):
            seq = completed_sequence(PartialMatching(points, edges))
            if not contains_pattern(seq, FORBIDDEN_PATTERN):
                kept.append(edges)
    kept.sort()
    return [PartialMatching(points, edges) for edges in kept]


def test_oracle_equals_the_reference_route():
    for i in range(13):
        for j in range(i // 2 + 1):
            assert enumerate_matchings(i, j) == _reference_enumeration(i, j), (i, j)


@given(
    st.integers(min_value=0, max_value=16),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=8),
)
def test_arc_detector_agrees_with_backtracker_on_random_matchings(m, seeds):
    pm = _build_matching(m, seeds)
    assert contains_forbidden(pm) == _backtracker_contains(pm)


def test_oracle_does_not_use_the_arc_detector(monkeypatch):
    want = enumerate_matchings(8, 3)

    def refuse(*args):
        raise AssertionError("the oracle must not call the arc detector or the fold")

    for name in (
        "contains_forbidden",
        "_lift_positions",
        "shift",
        "lift",
        "path_to_matching",
    ):
        monkeypatch.setattr(matching, name, refuse)
    assert enumerate_matchings(8, 3) == want


def test_arc_detector_on_long_matchings():
    assert not contains_forbidden(PartialMatching(6000))
    assert contains_forbidden(PartialMatching(6000, ((1, 4), (2, 5), (3, 6))))
    for m in (6, 12):
        three = PartialMatching(m, ((1, 4), (2, 5), (3, 6)))
        assert contains_forbidden(three) and _backtracker_contains(three)


def test_fold_states_equal_their_revalidated_copies(monkeypatch):
    # shift, lift and path_to_matching skip the constructor's checks, so
    # every state they build must be one the constructor would accept, and
    # compare and hash like it (verify compares these states as sets).
    # path_to_matching builds one state per path; stepping each path through
    # the public shift/lift as well records one state per step.
    built = []
    trusted = PartialMatching._trusted

    def recording(cls, m, edges):
        state = trusted(m, edges)
        built.append(state)
        return state

    monkeypatch.setattr(PartialMatching, "_trusted", classmethod(recording))
    for i in range(13):
        for j in range(i // 2 + 1):
            for p in enumerate_paths(i, j):
                stepped = PartialMatching(0)
                for ch in p:
                    stepped = shift(stepped) if ch == "E" else lift(stepped)
                assert path_to_matching(p) == stepped
    assert len(built) > 10 ** 4
    for state in built:
        checked = PartialMatching(state.m, state.edges)
        assert checked == state and hash(checked) == hash(state)


def test_enumerate_matchings_small():
    assert enumerate_matchings(2, 1) == [PartialMatching(2, ((1, 2),))]
    assert enumerate_matchings(1, 0) == [PartialMatching(1)]
    assert [m.edges for m in enumerate_matchings(4, 1)] == [
        ((1, 2),),
        ((1, 3),),
        ((2, 3),),
    ]
    assert len(enumerate_matchings(4, 2)) == 3
    with pytest.raises(ValueError):
        enumerate_matchings(3, 2)


def test_crossing_poly_examples():
    assert crossing_poly(4, 1) == Poly((2, 1))
    assert crossing_poly(6, 3) == Poly((5, 5, 2))
    assert crossing_poly(4, 2) == Poly((2, 1))
    assert crossing_poly(7, 0) == Poly((1,))


def test_shift_examples():
    assert shift(PartialMatching(0)) == PartialMatching(1)
    assert shift(PartialMatching(2, ((1, 2),))) == PartialMatching(3, ((1, 2),))


def test_lift_examples():
    assert lift(PartialMatching(2)).edges == ((1, 2),)
    lifted = lift(PartialMatching(4))
    assert lifted.edges == ((2, 3),) and crossings(lifted) == 0
    odd = lift(PartialMatching(3))
    assert odd.edges == ((1, 3),) and crossings(odd) == 1


def test_lift_unavailable():
    with pytest.raises(DomainError, match="lift unavailable"):
        lift(PartialMatching(1))
    with pytest.raises(DomainError, match="lift unavailable"):
        lift(PartialMatching(0))
    with pytest.raises(DomainError, match="lift unavailable"):
        lift(PartialMatching(3, ((1, 2),)))


def test_path_to_matching_examples():
    assert path_to_matching("") == PartialMatching(0)
    assert path_to_matching("EEN") == PartialMatching(2, ((1, 2),))
    folded = path_to_matching("EEENEN")
    assert folded == PartialMatching(4, ((1, 3), (2, 4)))
    assert crossings(folded) == 1


def test_matching_to_path_examples():
    assert matching_to_path(PartialMatching(0)) == ""
    assert matching_to_path(PartialMatching(2, ((1, 2),))) == "EEN"
    assert matching_to_path(PartialMatching(4, ((1, 3), (2, 4)))) == "EEENEN"


def test_matching_to_path_rejections_name_the_condition():
    with pytest.raises(DomainError, match=r"covers 2 isolated points"):
        matching_to_path(PartialMatching(4, ((1, 4),)))
    with pytest.raises(DomainError, match=r"isolated points before"):
        matching_to_path(PartialMatching(4, ((2, 4),)))
    with pytest.raises(DomainError, match="pattern"):
        matching_to_path(PartialMatching(5, ((1, 4), (2, 5))))
    with pytest.raises(DomainError, match="pattern"):
        matching_to_path(PartialMatching(6, ((1, 4), (3, 5))))


def test_refold_accepts_exactly_the_admissible_avoiding_matchings():
    for m in range(11):
        for pm in _all_matchings(m):
            violation = matching.admissibility_violation(pm)
            forbidden = contains_pattern(completed_sequence(pm), FORBIDDEN_PATTERN)
            if violation is None and not forbidden:
                assert path_to_matching(matching_to_path(pm)) == pm
                continue
            with pytest.raises(DomainError) as exc:
                matching_to_path(pm)
            if violation is not None:
                assert violation in str(exc.value)
            else:
                assert sequence_text(FORBIDDEN_PATTERN) in str(exc.value)


def test_refold_runs_the_pattern_detector_only_on_rejection(monkeypatch):
    def refuse(*args):
        raise AssertionError("an accepted matching needs no pattern check")

    monkeypatch.setattr(matching, "contains_forbidden", refuse)
    for p in enumerate_paths(10, 4):
        assert matching_to_path(path_to_matching(p)) == p


def test_long_path_roundtrip():
    path = _random_path(random.Random(100), 10 ** 5)
    folded = path_to_matching(path)
    assert folded.m == 10 ** 5
    assert matching_to_path(folded) == path


def test_bijection_sweep():
    for i in range(9):
        for j in range(i // 2 + 1):
            paths = enumerate_paths(i, j)
            images = [path_to_matching(p) for p in paths]
            assert len(set(images)) == len(images)
            assert set(images) == set(enumerate_matchings(i, j))
            for p, m in zip(paths, images):
                assert crossings(m) == weight_exponent(p)
                assert is_admissible(m) and not contains_forbidden(m)
                assert matching_to_path(m) == p
            assert crossing_poly(i, j) == lattice_poly(i, j)


matchings_strategy = st.builds(
    lambda m, pairs: _build_matching(m, pairs),
    st.integers(min_value=0, max_value=10),
    st.lists(st.integers(min_value=0, max_value=10 ** 6), max_size=5),
)


def _build_matching(m, seeds):
    points = list(range(1, m + 1))
    edges = []
    for seed in seeds:
        if len(points) < 2:
            break
        a = points.pop(seed % len(points))
        b = points.pop(seed % len(points) if points else 0)
        edges.append((min(a, b), max(a, b)))
    return PartialMatching(m, tuple(edges))


@given(matchings_strategy)
def test_shift_preserves_crossings(m):
    assert crossings(shift(m)) == crossings(m)
    assert shift(m).m == m.m + 1
    assert shift(m).edges == m.edges


@given(matchings_strategy)
def test_json_roundtrip(m):
    assert matching_from_json(matching_to_json(m)) == m


def test_json_shape_errors():
    with pytest.raises(ParseError):
        matching_from_json({"m": 2})
    with pytest.raises(ParseError):
        matching_from_json({"m": "2", "edges": []})
    with pytest.raises(ParseError):
        matching_from_json({"m": 2, "edges": [[1, 2, 3]]})
    with pytest.raises(ParseError):
        matching_from_json([1, 2])
