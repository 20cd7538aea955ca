"""Partial matchings on a line, their crossing statistic, and the path bijection.

A partial matching places points 1..m on a line and joins some of them by
disjoint edges; uncovered points are isolated.  Crossings are counted in the
generalized sense: two interleaved edges (a < c < b < d) cross, and an
isolated point strictly inside an edge crosses it.  An isolated point
behaves throughout like a dangling edge reaching past the right end of the
matching: it crosses every edge covering it but never crosses another
isolated point.

The admissible class consists of matchings in which every edge covers at
most one isolated point and no edge has more isolated points before its left
endpoint than after its right endpoint.  Within that class, the matchings
avoiding the pattern 1,2,3,1,2 are exactly the objects generated from
lattice paths by the shift/lift operations below, with the crossing number
tracking the path's weight exponent.  Pattern avoidance for a matching is
checked on its completed sequential form (canonical form plus a virtual
right endpoint per isolated point, see completed_sequence): the dangling
reading above, not the bare canonical form, is what makes the generated
class match the path counts.

The completed form is a perfect-matching word (every label occurs twice),
so it contains 1,2,3,1,2 exactly when two arcs A and B cross (open A <
open B < close A < close B) and a third arc opens strictly between open B
and close A: the arc-diagram reading of crossings in Chen, Deng, Du,
Stanley and Yan, "Crossings and nestings of matchings and partitions"
(Trans. AMS, 2007), and in Jelinek, "Dyck paths and pattern-avoiding
matchings" (Electron. J. Combin., 2007).  contains_forbidden tests that
criterion in one left-to-right scan that keeps the openers of the open
arcs on a stack: when an arc closes, only the first two arcs opened after
it and still open can matter, so each close either leaves from the last
two places or completes the pattern.  matching_to_path does not need it
to decide membership: it refolds the matching with the same lift rule
(_lift_positions, inlined in its loop) and calls contains_forbidden only
to explain a rejection.

enumerate_matchings is a deliberately naive brute force, so that it can
serve as an independent oracle for the bijection.  It makes one flat pass
per choice of covered points, drawn from the window the class rule leaves
them: it pairs them depth first on an explicit stack, skipping every edge
that breaks the class condition.  It keeps one word labelled by opener
position and edits in place only the entries of the edge it takes or
drops, so each complete pairing's word, followed by its isolated points
in reverse, is an order-isomorphic copy of its completed sequence.  It
tests that copy with the search of the generic matcher contains_pattern,
which assigns increasing values to the pattern's letters one at a time
and drops a partial assignment as soon as it cannot spell a subsequence.
That search, one nested for loop per letter, each testing its cut-down
pattern inline, is compiled from source text once per pattern, on the
pattern's first call, and kept in a memo bounded to a few patterns
(_restricted); the oracle fetches the one for
FORBIDDEN_PATTERN once per call and hands it each candidate directly,
with the candidate's opener positions as the values.  The source is built
from the letters' ranks alone, never from the values of the pattern or
the word, so no input becomes code; tests/test_matching.py checks the
compiled search against a naive matcher and a backtracker.  The oracle
shares no code with shift/lift,
_lift_positions, the folds or the arc scan, and takes no shortcut through
the arc criterion: nothing in it knows which pair a lift joins, so its
agreement with the fold's images checks the bijection rather than
restating it.  Each edge's counts come from a prefix count of the isolated
points, and the class rule is tested inline by the two comparisons of
_edge_violation, which admissibility_violation applies with its messages.
test_pruned_pairings_are_the_admissible_pairings_in_order
(tests/test_matching.py) pins the oracle's pruning to
admissibility_violation for every covered set with m <= 10, so the two
copies of the rule cannot drift apart, and
test_covered_points_lie_in_the_oracle_window checks the window on every
admissible matching with m <= 10.

path_to_matching checks each step inside its fold loop and raises
parse_path's error for the first bad one, so a path is read once.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Callable, Sequence
from functools import lru_cache
from itertools import chain, combinations, compress

from .errors import NOT_IN_IMAGE, DomainError, ParseError
from .frozen import Frozen
from .lattice import EAST, NORTH, _step_error
from .poly import Poly, histogram_poly

FORBIDDEN_PATTERN = (1, 2, 3, 1, 2)


def _integer_error(what: str, value: object) -> ParseError:
    kind = "the boolean " if isinstance(value, bool) else ""
    return ParseError(f"{what} must be an integer, got {kind}{value!r}")


class PartialMatching(Frozen):
    """Points 1..m with edges, a sorted tuple of disjoint int pairs (a, b)
    with 1 <= a < b <= m."""

    m: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, m: int, edges: Sequence[tuple[int, int]] = ()) -> None:
        # type(...) is int, not isinstance: bool is an int subclass.
        if type(m) is not int:
            raise _integer_error("point count", m)
        if m < 0:
            raise ParseError("point count must be nonnegative")
        if not isinstance(edges, (tuple, list)):
            raise ParseError(f"edges {edges!r} are not a sequence of pairs")
        pairs = []
        seen: set[int] = set()
        for e in edges:
            if not isinstance(e, (tuple, list)) or len(e) != 2:
                raise ParseError(f"edge {e!r} is not a pair")
            a, b = e
            if type(a) is not int or type(b) is not int:
                bad = b if type(a) is int else a
                raise _integer_error(f"edge {e!r}: each endpoint", bad)
            if not (1 <= a <= m and 1 <= b <= m):
                raise ParseError(f"edge ({a},{b}) is not inside 1..{m}")
            if a >= b:
                raise ParseError(f"edge ({a},{b}): a must be less than b")
            if a in seen or b in seen:
                raise ParseError(f"edge ({a},{b}) reuses an endpoint")
            seen.add(a)
            seen.add(b)
            pairs.append((a, b))
        pairs.sort()
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "edges", tuple(pairs))

    def isolated(self) -> tuple[int, ...]:
        points = set(range(1, self.m + 1))
        return tuple(sorted(points.difference(chain.from_iterable(self.edges))))


def canonical_sequence(matching: PartialMatching) -> tuple[int, ...]:
    """Label sequence of the matching, labels assigned in order of first occurrence.

    Scanning points left to right, an isolated point or a left endpoint opens
    the next unused label; a right endpoint repeats its edge's label.
    """
    return _sequence(matching.m, matching.edges)


def sequence_text(seq: Sequence[int]) -> str:
    """Comma-separated rendering, e.g. "1,2,3,1,3" (labels can exceed 9)."""
    return ",".join(str(v) for v in seq)


def completed_sequence(matching: PartialMatching) -> tuple[int, ...]:
    """Canonical sequence plus virtual right endpoints for isolated points.

    Each isolated point is read as an edge dangling past the right end of
    the matching, so its label recurs after every real point.  The virtual
    endpoints are appended in descending label order (danglings do not cross
    each other, mirroring the crossing statistic, which counts no crossing
    between two isolated points).
    """
    seq = _sequence(matching.m, matching.edges)
    virtual = [seq[p - 1] for p in matching.isolated()]
    return seq + tuple(reversed(virtual))


def contains_forbidden(matching: PartialMatching) -> bool:
    """True iff the matching contains the forbidden pattern 1,2,3,1,2.

    Containment is order-isomorphic subsequence containment on the completed
    sequential form, so an isolated point can close a pattern edge the way a
    crossing edge would.  Since every label of that form occurs twice, this
    holds iff two arcs A, B cross (open A < open B < close A < close B) and
    some arc opens strictly between open B and close A (Chen, Deng, Du,
    Stanley and Yan 2007; Jelinek 2007), which is decided in O(m).
    """
    return _crossing_pair_with_opener_inside(matching.m, matching.edges)


def _crossing_pair_with_opener_inside(
    m: int, edges: Sequence[tuple[int, int]]
) -> bool:
    """The arc criterion of contains_forbidden, by one left-to-right scan.

    opened holds, in order, the openers of the arcs still open: left ends
    not yet closed, and every isolated point, whose virtual close comes
    after m, in reverse order, when nothing else is open, so it never
    matters.  latest is the last opener passed.  When the arc A opened at a
    closes, the arcs crossing it are the entries after a, and the first of
    them, B, has an opener strictly inside (open B, close A) exactly when
    another entry follows B or latest is past B.  So A completes the
    pattern unless a is the last entry, or the second to last with latest
    the last; then a leaves from one of the last two places, in O(1).
    """
    left_of = {b: a for a, b in edges}
    opened: list[int] = []
    latest = 0
    for p in range(1, m + 1):
        a = left_of.get(p)
        if a is None:
            opened.append(p)
            latest = p
        elif opened[-1] == a:
            opened.pop()
        elif opened[-2:] == [a, latest]:
            del opened[-2]
        else:
            return True
    return False


def contains_pattern(seq: Sequence[int], pattern: Sequence[int]) -> bool:
    """True iff some subsequence of seq is order-isomorphic to pattern.

    Order isomorphism honors equalities: positions i, t of the subsequence
    must compare (<, =, >) exactly as pattern[i] and pattern[t] do.  Such a
    subsequence is an increasing assignment of distinct values of seq to the
    distinct values of pattern (the letters) under which the word pattern
    spells is a subsequence of seq.  The letters are assigned in increasing
    order, one at a time, each a larger value than the last; a partial
    assignment is abandoned as soon as the pattern cut down to the letters
    assigned so far does not spell a subsequence of seq, which every full
    match would, so pruning rejects no match.  That search is compiled once
    per pattern by _restricted.  A seq with fewer distinct values than the
    pattern has letters is answered False without compiling any search.
    """
    seq = tuple(seq)
    pattern = tuple(pattern)
    values = sorted(set(seq))
    # len(pattern) bounds the letter count, so the letters are counted only
    # for a word with fewer values than the pattern has places.
    if len(values) < len(pattern) and len(values) < len(set(pattern)):
        return False
    return _restricted(pattern)(seq, values)


# Loop levels per compiled function: CPython refuses more than 20
# statically nested blocks in one function.
_LEVELS = 16


@lru_cache(maxsize=8)
def _restricted(pattern: tuple[int, ...]) -> Callable[[tuple, list], bool]:
    """contains_pattern's search for one pattern, compiled: a function of
    (seq, values), values being the sorted distinct values of seq.

    Letter k is the pattern's k-th smallest value.  The search nests one
    for loop per letter k, over the indexes of values above letter k-1's
    that leave a value for each larger letter.  Each level tests at once,
    inline, that the pattern cut down to letters 0..k spells a subsequence
    of seq, as one chain `v0 not in rest or v1 not in rest ...` on a single
    iterator over seq, and moves to letter k's next value when it does not.
    The source holds only letter numbers, never pattern values.  A pattern
    with more than _LEVELS letters continues its loops in a second function
    called from the innermost level of the first, and so on.  The source
    grows with the pattern's length times its letter count, so compiling
    a pattern of a thousand distinct letters takes seconds; patterns of a
    few letters, like FORBIDDEN_PATTERN, compile in well under a
    millisecond.
    """
    letters = sorted(set(pattern))
    rank_of = {letter: rank for rank, letter in enumerate(letters)}
    ranks = [rank_of[p] for p in pattern]
    need = len(letters)
    source = ["def search0(seq, values):", f"    last = len(values) - {need}"]
    for first in range(0, need or 1, _LEVELS):
        stop = min(first + _LEVELS, need)
        if first:
            known = "".join(f", v{r}" for r in range(first))
            source.append(f"def search{first}(seq, values, last, i{first - 1}{known}):")
        pad = "    "
        for k in range(first, stop):
            test = " or ".join(f"v{r} not in rest" for r in ranks if r <= k)
            source += [
                f"{pad}for i{k} in range({f'i{k - 1} + 1' if k else 0}, last + {k + 1}):",
                f"{pad}    v{k} = values[i{k}]",
                f"{pad}    rest = iter(seq)",
                f"{pad}    if {test}:",
                f"{pad}        continue",
            ]
            pad += "    "
        if stop == need:
            source.append(f"{pad}return True")
        else:
            known = "".join(f", v{r}" for r in range(stop))
            source.append(f"{pad}if search{stop}(seq, values, last, i{stop - 1}{known}):")
            source.append(f"{pad}    return True")
        source.append("    return False")
    namespace: dict[str, object] = {}
    exec(compile("\n".join(source), "<contains_pattern>", "exec"), namespace)
    return namespace["search0"]


def crossings(matching: PartialMatching) -> int:
    """Edge pairs a < c < b < d, plus (edge, isolated point inside it) pairs.

    One left-to-right sweep.  opened holds the left ends of the open edges
    in ascending order.  At the right end b of an edge (a, b), the edges
    opened after a and still open are those that cross it, and the
    isolated points passed since a are those it covers: the running count
    of isolated points is subtracted at a and added at b.  Each right end
    costs one bisection and one deletion from opened, whose shift moves only
    the entries after a.  A seeded 10^5-step path or the staircase
    E^(2k) N^k with k = 10^5 takes under 0.1 s, and k = 4*10^5 about 0.4 s
    (Python 3.11, one CPU).  The worst case is n pairwise crossing edges
    (i, n + i), whose deletions shift O(n^2) list entries: 1.0 s at
    n = 10^5 and 3.7-4.1 s at n = 2*10^5 (Python 3.11, Xeon, 2 CPUs).  No
    CLI path counts the crossings of an arbitrary matching.
    """
    mate = [0] * (matching.m + 1)  # mate[p]: b at a left end a, -a at a right end b
    for a, b in matching.edges:
        mate[a] = b
        mate[b] = -a
    opened: list[int] = []
    isolated = count = 0
    for p in range(1, matching.m + 1):
        q = mate[p]
        if q > 0:
            opened.append(p)
            count -= isolated
        elif q:
            k = bisect_left(opened, -q)
            count += len(opened) - k - 1 + isolated
            del opened[k]
        else:
            isolated += 1
    return count


def admissibility_violation(matching: PartialMatching) -> str | None:
    """Name the first violated class condition, or None if admissible."""
    iso = matching.isolated()
    for a, b in matching.edges:
        before_a, before_b = bisect_left(iso, a), bisect_left(iso, b)
        violation = _edge_violation(
            a, b, before_b - before_a, before_a, len(iso) - before_b
        )
        if violation is not None:
            return violation
    return None


def _edge_violation(
    a: int, b: int, inside: int, before: int, after: int
) -> str | None:
    """The class condition that edge (a, b) breaks, given how many isolated
    points lie inside it, before a and after b, or None; admissible means
    no edge breaks one.  enumerate_matchings tests the same two conditions
    inline."""
    if inside > 1:
        return f"edge ({a},{b}) covers {inside} isolated points"
    if before > after:
        return (
            f"edge ({a},{b}) has {before} isolated points before it"
            f" and only {after} after"
        )
    return None


def is_admissible(matching: PartialMatching) -> bool:
    return admissibility_violation(matching) is None


def _sequence(m: int, edges: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    left_label: dict[int, int] = {}
    left_of = {b: a for a, b in edges}
    seq: list[int] = []
    next_label = 1
    for p in range(1, m + 1):
        if p in left_of:
            seq.append(left_label[left_of[p]])
        else:
            left_label[p] = next_label
            seq.append(next_label)
            next_label += 1
    return tuple(seq)


def enumerate_matchings(points: int, edge_count: int) -> list[PartialMatching]:
    """Brute-force oracle: all admissible, pattern-avoiding matchings.

    One flat pass per choice of 2*edge_count covered points, drawn from the
    window 1..size + (free + 1) // 2 that the class rule leaves them, where
    size = 2*edge_count and free = points - size.  With B(p) the number of
    isolated points before p, an admissible edge (a, b) has B(b) <= B(a) + 1
    (at most one isolated point inside) and B(a) <= free - B(b) (no more
    before than after), so 2*B(b) - 1 <= free.  The last covered point z
    closes an edge and has B(z) = z - size, hence z <= size + (free + 1) // 2.
    Every cell with an edge and at most 12 points has a member whose last
    covered point is exactly there, so no narrower window is safe; for
    points <= 10 the window cuts the covered sets from 1,024 to 282.

    A prefix count of the isolated points gives each edge's class test its
    counts by two subtractions.  The pairings are built depth first on an
    explicit stack, the smallest free point paired with each later free
    point in turn, and an edge that breaks the class condition (a condition
    on each edge alone) is skipped with every pairing containing it.  One
    word, labelled by opener position, is kept for every candidate: a at
    the right end of each edge (a, b) taken and p at every other point p,
    with one opener flag per point; taking or dropping an edge rewrites
    only its right end's two entries.  The word followed by the isolated
    points in reverse (the order of their virtual closes) is order-isomorphic
    to the completed sequence, its labels in order of first occurrence
    renamed to the points that open them, so the compiled search of
    contains_pattern gives the same answer on it, with the opener positions
    as its sorted distinct values; the candidate is kept when it finds no
    1,2,3,1,2.  Order is lexicographic on the sorted edge
    list.  Every pairing built here is sorted, disjoint and inside
    1..points, so the results are wrapped without the constructor's checks.
    """
    if points < 0 or edge_count < 0 or 2 * edge_count > points:
        raise ValueError(f"need 0 <= 2*{edge_count} <= {points}")
    size = 2 * edge_count
    free_count = points - size
    search = _restricted(FORBIDDEN_PATTERN)
    kept: list[tuple[tuple[int, int], ...]] = []
    line = range(1, points + 1)
    # word[p - 1]: the opener of the arc at p, a at the right end of an
    # edge (a, b) taken and p everywhere else; opener[p - 1]: p opens one.
    word = list(line)
    opener = [True] * points
    for chosen in combinations(range(1, size + (free_count + 1) // 2 + 1), size):
        covered = set(chosen)
        before = [0] * (points + 1)  # before[p]: isolated points left of p
        isolated: list[int] = []
        for p in line:
            before[p] = len(isolated)
            if p not in covered:
                isolated.append(p)
        isolated.reverse()  # the order of their virtual closes
        used = [False] * size
        taken: list[tuple[int, int]] = []  # (s, t) of each edge taken
        s, t = 0, 1  # pair chosen[s], the smallest free point, with chosen[t]
        while True:
            if len(taken) < edge_count and t < size:
                a, b = chosen[s], chosen[t]
                # _edge_violation's two conditions: more than one isolated
                # point inside (a, b), or more before a than after b.
                if (
                    used[t]
                    or before[b] - before[a] > 1
                    or before[a] > free_count - before[b]
                ):
                    t += 1
                    continue
                used[s] = used[t] = True
                taken.append((s, t))
                word[b - 1] = a
                opener[b - 1] = False
                if len(taken) < edge_count:
                    s = used.index(False, s + 1)
                    t = s + 1
                continue
            if len(taken) == edge_count and not search(
                word + isolated, list(compress(line, opener))
            ):
                kept.append(tuple([(chosen[u], chosen[v]) for u, v in taken]))
            if not taken:
                break
            s, t = taken.pop()
            used[s] = used[t] = False
            b = chosen[t]
            word[b - 1] = b
            opener[b - 1] = True
            t += 1
    kept.sort()
    return [PartialMatching._trusted(points, edges) for edges in kept]


def crossing_poly(points: int, edge_count: int) -> Poly:
    """Generating polynomial of the crossing number over enumerate_matchings."""
    return histogram_poly(map(crossings, enumerate_matchings(points, edge_count)))


def shift(matching: PartialMatching) -> PartialMatching:
    """Append an isolated point after the last point; crossings unchanged."""
    return PartialMatching._trusted(matching.m + 1, matching.edges)


def _lift_positions(count: int) -> tuple[int, int]:
    """Indices, among count isolated points in order, of the pair lift joins."""
    if count < 2:
        raise DomainError("lift unavailable at this position")
    k = count // 2
    return k - 1, k + count % 2


def lift(matching: PartialMatching) -> PartialMatching:
    """Join two middle isolated points by a new edge: with 2k isolated points
    the k-th and (k+1)-st (1-indexed), creating no crossing; with 2k+1 the
    k-th and (k+2)-nd, covering one point and creating exactly one crossing."""
    iso = matching.isolated()
    lo, hi = _lift_positions(len(iso))
    edges = list(matching.edges)
    insort(edges, (iso[lo], iso[hi]))
    return PartialMatching._trusted(matching.m, tuple(edges))


def path_to_matching(path: str) -> PartialMatching:
    """Fold a path into a matching: shift per east step, lift per north step.

    Each step is checked as it is folded, with parse_path's errors: after
    x east and y north steps x - 2y points are isolated, so a north step
    stays in the region exactly when at least two are.
    """
    iso: list[int] = []
    edges: list[tuple[int, int]] = []
    m = 0
    for ch in path:
        if ch == EAST:
            m += 1
            iso.append(m)
        elif ch == NORTH and len(iso) >= 2:
            lo, hi = _lift_positions(len(iso))
            edges.append((iso[lo], iso[hi]))
            del iso[hi], iso[lo]
        else:
            raise _step_error(ch, m + len(edges))
    edges.sort()
    return PartialMatching._trusted(m, tuple(edges))


def matching_to_path(matching: PartialMatching) -> str:
    """Reverse construction: recover the unique path folding to this matching.

    Refolds from the empty matching: whenever the pair a lift would join is
    an edge of the target, lift (north step); otherwise shift (east step)
    while points remain.  The choice is forced.  The left half of the
    isolated list gains points only from shifts and loses only its top to a
    lift, so once a shift passes a pair, that pair is never the lift pair
    again.  The matching is in the image exactly when the refold uses every
    edge.  Otherwise the error names the first violated class condition,
    else the forbidden pattern, else says the matching is not in the image.
    """
    unused = dict(matching.edges)
    iso: list[int] = []
    steps: list[str] = []
    for point in range(1, matching.m + 1):
        iso.append(point)
        steps.append(EAST)
        while (count := len(iso)) >= 2:
            lo = count // 2 - 1  # _lift_positions(count), inlined
            hi = lo + 1 + count % 2
            if unused.get(iso[lo]) != iso[hi]:
                break
            del unused[iso[lo]], iso[hi], iso[lo]
            steps.append(NORTH)
    if not unused:
        return "".join(steps)
    violation = admissibility_violation(matching)
    if violation is not None:
        raise DomainError(f"not in the generating class: {violation}")
    if contains_forbidden(matching):
        pattern = sequence_text(FORBIDDEN_PATTERN)
        raise DomainError(f"completed sequential form contains the pattern {pattern}")
    raise DomainError(NOT_IN_IMAGE)


def matching_to_json(matching: PartialMatching) -> dict:
    """JSON object {"m": ..., "edges": [[a, b], ...]} with 1-indexed endpoints."""
    return {"m": matching.m, "edges": [list(e) for e in matching.edges]}


def matching_from_json(obj: object) -> PartialMatching:
    if not isinstance(obj, dict) or set(obj) != {"m", "edges"}:
        raise ParseError('matching JSON must be {"m": int, "edges": [[a,b],...]}')
    return PartialMatching(obj["m"], obj["edges"])
