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
criterion in its own body, by one left-to-right scan that keeps the
openers of the open arcs on a stack: when an arc closes, only the first
two arcs opened after it and still open can matter, so each close either
leaves from the last two places or completes the pattern.  No other
function holds the scan.  matching_to_path does not need it to decide
membership: it refolds the matching with the same lift rule
(_lift_positions, inlined in its loop) and calls contains_forbidden only
to explain a rejection.

enumerate_matchings is a deliberately naive brute force, so that it can
serve as an independent oracle for the bijection: verify and the tests
compare it with the fold's images, while the CLI's `enum matchings` lists
the class by folding the paths instead.  For each choice of covered
points, drawn from the window the class rule leaves them, it pairs the
points by a recursion over edges: the smallest unpaired point is joined to
each later one in turn that keeps the class condition, then the rest are
paired, so it never takes an edge that breaks the condition and goes one
call deep per edge.  It keeps one word labelled by opener position,
followed by the isolated points in reverse, and the sorted list of the
word's values, and edits in place only the entries of the edge it takes,
restoring them on the way back, so at each complete pairing the word is
an order-isomorphic copy of its completed sequence.  It tests that copy
with _contains_12312, the search of the generic matcher contains_pattern
written out for FORBIDDEN_PATTERN: contains_pattern assigns increasing
values to the pattern's letters one at a time and drops a partial
assignment as soon as it cannot spell a subsequence, and _contains_12312
assigns letters 1 and 2 by two nested for loops and gives letter 3, which
occurs once in the pattern, the leftmost value that can follow them, in
the same scan that tests the whole pattern.  The oracle hands it each
candidate directly, with the candidate's opener positions as the values;
tests/test_matching.py checks it against contains_pattern, a naive
matcher and a backtracker.  An edgeless cell is answered without a
search: its one word is 1..m then m..1, in which any two values a < b read
a, b, b, a, so none spell the 1, 2, ..., 1, 2 of the pattern.  The oracle
shares no code with shift/lift, _lift_positions, the folds or
contains_forbidden, and takes no shortcut through the arc criterion:
nothing in it knows which pair a lift joins, so its agreement with the
fold's images checks the bijection rather than restating it.  Each edge's
counts come from the number of isolated points left of each covered
point, and the class rule is tested inline, as each edge is tried, by the
two comparisons of _edge_violation, which admissibility_violation applies
with its messages.
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
from collections.abc import Sequence
from itertools import chain, combinations

from .errors import NOT_IN_IMAGE, DomainError, ParseError
from .frozen import Frozen
from .lattice import EAST, NORTH, _require_int, _step_error
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
    Stanley and Yan 2007; Jelinek 2007), which one left-to-right scan
    decides in O(m).

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
    left_of = {b: a for a, b in matching.edges}
    opened: list[int] = []
    latest = 0
    for p in range(1, matching.m + 1):
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
    match would, so pruning rejects no match.  Each value tried costs one
    walk of the pattern and at most one of seq, on a single iterator, and
    nothing is kept between calls.  A seq with fewer distinct values than
    the pattern has letters leaves no value for the first letter and is
    answered False before any test.
    """
    seq = tuple(seq)
    pattern = tuple(pattern)
    letters = sorted(set(pattern))
    rank_of = {letter: rank for rank, letter in enumerate(letters)}
    ranks = [rank_of[p] for p in pattern]  # the pattern, 0 for its smallest letter
    values = sorted(set(seq))
    need = len(letters)
    spare = len(values) - need  # letter k takes at most values[k + spare]
    value_of = [0] * need  # value_of[k]: the value given to the letter of rank k
    tries = [0]  # tries[k]: index in values of the next value to give letter k
    k = 0
    while k < need:
        t = tries[k]
        if t > k + spare:  # no value left for letter k: back up one letter
            if k == 0:
                return False
            tries.pop()
            k -= 1
            tries[k] += 1
            continue
        value_of[k] = values[t]
        rest = iter(seq)
        for r in ranks:
            if r <= k and value_of[r] not in rest:
                tries[k] = t + 1
                break
        else:
            tries.append(t + 1)
            k += 1
    return True


def _contains_12312(seq: Sequence[int], values: Sequence[int]) -> bool:
    """contains_pattern(seq, FORBIDDEN_PATTERN), given values, the sorted
    distinct values of seq.

    Letters 1 < 2 take values v0 < v1 in turn, each pair leaving a larger
    value for letter 3, and one scan of a single iterator over seq decides
    each pair: the leftmost v0, the leftmost v1 after it, then for letter 3
    the leftmost element greater than v1, then v0 and v1 again.  Letter 3
    occurs once in 1,2,3,1,2, so any later element greater than v1 would
    leave less of seq for the closing v0 and v1: the leftmost one is its
    best value, and no other is tried.  Unlike contains_pattern, the search
    does not first test that v0 occurs twice (the cut-down pattern 1,1):
    every value of the oracle's words occurs twice, so that test would
    never prune there, and the scan tests it anyway.
    """
    last = len(values) - 3
    for i0 in range(last + 1):
        v0 = values[i0]
        for v1 in values[i0 + 1 : last + 2]:
            rest = iter(seq)
            if v0 not in rest or v1 not in rest:
                continue
            for v in rest:
                if v > v1:
                    if v0 in rest and v1 in rest:
                        return True
                    break
    return False


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

    One pass per choice of 2*edge_count covered points, drawn from the
    window 1..size + (free + 1) // 2 that the class rule leaves them, where
    size = 2*edge_count and free = points - size.  With B(p) the number of
    isolated points before p, an admissible edge (a, b) has B(b) <= B(a) + 1
    (at most one isolated point inside) and B(a) <= free - B(b) (no more
    before than after), so 2*B(b) - 1 <= free.  The last covered point z
    closes an edge and has B(z) = z - size, hence z <= size + (free + 1) // 2.
    Every cell with an edge and at most 12 points has a member whose last
    covered point is exactly there, so no narrower window is safe; for
    points <= 10 the window cuts the covered sets from 1,024 to 282.

    Per covered set, B(p) for the s-th covered point p (from 0) is
    p - 1 - s, and each edge's class test reads its counts from B by two
    subtractions.  The pairings are built by a recursion over edges: the
    smallest unpaired point a is joined to each later unpaired point b in
    turn, then the points left are paired the same way, so the recursion
    is one call deep per edge.  An edge that breaks the class condition is
    never taken; both of its counts, B(b) - B(a) and B(a) - (free - B(b)),
    grow with b, so the first b that breaks it ends a's turn.

    One word, labelled by opener position, is kept per covered set: a at
    the right end of each edge (a, b) taken and p at every other point p,
    followed by the isolated points in reverse, the order of their virtual
    closes; beside it is kept the sorted list of its values, the opener
    positions.  Taking an edge rewrites its right end's entry of the word
    and removes that point from the list; returning from it restores both.
    At a complete pairing the word is order-isomorphic to the completed
    sequence, its labels in order of first occurrence renamed to the points
    that open them, so _contains_12312, the search of contains_pattern
    written out for FORBIDDEN_PATTERN, gives the same answer on it with the
    list as its sorted distinct values; the pairing is kept, as the tuple
    of its edges, when the search finds no 1,2,3,1,2.  Order is
    lexicographic on the sorted edge list.  Every pairing built here is
    sorted, disjoint and inside 1..points, so the results are wrapped
    without the constructor's checks.  A cell with no edge is answered
    without a search: its one word is 1..points then points..1, in which
    any two values a < b read a, b, b, a and so cannot spell the pattern's
    1, 2, ..., 1, 2.  A count that is not an int raises TypeError.
    """
    _require_int(points=points, edge_count=edge_count)
    if points < 0 or edge_count < 0 or 2 * edge_count > points:
        raise ValueError(f"need 0 <= 2*{edge_count} <= {points}")
    if not edge_count:
        return [PartialMatching._trusted(points, ())]
    size = 2 * edge_count
    free_count = points - size
    search = _contains_12312
    kept: list[tuple[tuple[int, int], ...]] = []
    taken: list[tuple[int, int]] = []
    line = range(1, points + 1)
    before = [0] * (points + 1)  # before[p]: isolated points left of covered p

    def pair(a: int, later: list[int]) -> None:
        # Join a to each point b of later, the unpaired points after it, in
        # turn while (a, b) keeps _edge_violation's two conditions, then
        # pair the rest; later is whole again before its next b is read.
        ba = before[a]
        last = len(later) == 1
        for t, b in enumerate(later):
            if before[b] - ba > 1 or ba > free_count - before[b]:
                break
            word[b - 1] = a
            openers.remove(b)
            if last:
                if not search(word, openers):
                    kept.append((*taken, (a, b)))
            else:
                taken.append((a, b))
                del later[t]
                pair(later[0], later[1:])
                later.insert(t, b)
                taken.pop()
            word[b - 1] = b
            insort(openers, b)

    for chosen in combinations(range(1, size + (free_count + 1) // 2 + 1), size):
        # The s-th covered point p (from 0) has p - 1 points left of it, s
        # of them covered.
        for s, p in enumerate(chosen):
            before[p] = p - 1 - s
        # word[p - 1]: the opener of the arc at p, a at the right end of an
        # edge (a, b) taken and p everywhere else, then the isolated points
        # in reverse, the order of their virtual closes; openers: its
        # values, sorted.
        word = [*line, *[p for p in reversed(line) if p not in chosen]]
        openers = list(line)
        pair(chosen[0], list(chosen[1:]))
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
