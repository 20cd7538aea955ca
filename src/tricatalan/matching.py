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
criterion with one sweep over the arcs.  matching_to_path does not need it
to decide membership: it refolds the matching with the same lift rule
(_lift_positions, inlined in its loop) and calls contains_forbidden only
to explain a rejection.

enumerate_matchings is a deliberately naive brute force, so that it can
serve as an independent oracle for the bijection.  It makes one flat pass
per choice of covered points: it pairs them depth first on an explicit
stack, skipping every edge that breaks the class condition, writes each
complete pairing's completed sequence in the same loop, and tests it with
the generic matcher contains_pattern, which assigns increasing values to
the pattern's letters one at a time and drops a partial assignment as soon
as it cannot spell a subsequence.  A pattern's letter ranks and its
cut-down forms are prepared once and kept in a memo bounded to a few
patterns (_restricted), so the oracle's calls, all with FORBIDDEN_PATTERN,
share one preparation.  It shares no code with shift/lift,
_lift_positions, the folds or the arc sweep, and takes no shortcut through
the arc criterion: nothing in it knows which pair a lift joins, so its
agreement with the fold's images checks the bijection rather than
restating it.  Each edge's counts come from a prefix count of the isolated
points, and the class rule is tested inline by the two comparisons of
_edge_violation, which admissibility_violation applies with its messages.
test_pruned_pairings_are_the_admissible_pairings_in_order
(tests/test_matching.py) pins the oracle's pruning to
admissibility_violation for every covered set with m <= 10, so the two
copies of the rule cannot drift apart.

path_to_matching checks each step inside its fold loop and raises
parse_path's error for the first bad one, so a path is read once.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections.abc import Sequence
from functools import lru_cache
from itertools import chain, combinations

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
    Stanley and Yan 2007; Jelinek 2007), which is decided in O(m log m).
    """
    return _crossing_pair_with_opener_inside(matching.m, matching.edges)


def _crossing_pair_with_opener_inside(
    m: int, edges: Sequence[tuple[int, int]]
) -> bool:
    """The arc criterion of contains_forbidden, by one sweep over the openers.

    Openers are the isolated points and left endpoints; the isolated point
    opening the t-th arc from the right closes virtually at m + t, as in
    completed_sequence.  For each arc B, a crossing A with an opener inside
    (open B, close A) exists iff some arc opened before B closes strictly
    between the next opener after B and close B.  A Fenwick tree over close
    positions counts the closes of the arcs opened so far.
    """
    close_of = dict(edges)
    right = set(close_of.values())
    openers = [p for p in range(1, m + 1) if p not in right]
    closes = []
    virtual = m
    for p in reversed(openers):
        if p not in close_of:
            virtual += 1
        closes.append(close_of.get(p, virtual))
    closes.reverse()
    tree = [0] * (virtual + 1)

    def closed_up_to(pos: int) -> int:
        total = 0
        while pos > 0:
            total += tree[pos]
            pos &= pos - 1
        return total

    for nxt, close_b in zip(openers[1:], closes):
        if closed_up_to(close_b - 1) > closed_up_to(nxt):
            return True
        pos = close_b
        while pos <= virtual:
            tree[pos] += 1
            pos += pos & -pos
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
    match would, so pruning rejects no match.  The cut-down patterns come
    from _restricted, prepared once per pattern.
    """
    seq = tuple(seq)
    restricted = _restricted(tuple(pattern))
    values = sorted(set(seq))
    need = len(restricted)
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
        for rank in restricted[k]:
            if value_of[rank] not in rest:
                tries[k] = t + 1
                break
        else:
            tries.append(t + 1)
            k += 1
    return True


@lru_cache(maxsize=8)
def _restricted(pattern: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The pattern written in the ranks of its letters (0 for the smallest),
    cut down to ranks <= k, for k = 0 .. the number of letters - 1."""
    letters = sorted(set(pattern))
    rank_of = {letter: rank for rank, letter in enumerate(letters)}
    ranks = [rank_of[p] for p in pattern]
    return tuple(tuple(r for r in ranks if r <= k) for k in range(len(letters)))


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
    (Python 3.11, one CPU); comparing every pair of edges took 2.7 s at
    20,000 east steps.
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

    One flat pass per choice of 2*edge_count covered points.  A prefix count
    of the isolated points gives each edge's class test its counts by two
    subtractions.  The pairings are built depth first on an explicit stack,
    the smallest free point paired with each later free point in turn, and
    an edge that breaks the class condition (a condition on each edge alone)
    is skipped with every pairing containing it.  Each complete pairing's
    completed sequence is written in the same loop, labels in order of first
    occurrence and then the isolated labels reversed, and the candidate is
    kept when contains_pattern finds no 1,2,3,1,2 in it; order is
    lexicographic on the sorted edge list.  Every pairing built here is
    sorted, disjoint and inside 1..points, so the results are wrapped
    without the constructor's checks.
    """
    if points < 0 or edge_count < 0 or 2 * edge_count > points:
        raise ValueError(f"need 0 <= 2*{edge_count} <= {points}")
    size = 2 * edge_count
    free_count = points - size
    kept: list[tuple[tuple[int, int], ...]] = []
    left_of = [0] * (points + 1)  # left_of[b]: the left end of the edge at b, or 0
    label = [0] * (points + 1)  # label[p]: the label opened at p
    line = range(1, points + 1)
    for chosen in combinations(line, size):
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
                left_of[b] = a
                if len(taken) < edge_count:
                    s = used.index(False, s + 1)
                    t = s + 1
                continue
            if len(taken) == edge_count:
                seq = []
                count = 0
                for p in line:
                    if left_of[p]:
                        seq.append(label[left_of[p]])
                    else:
                        count += 1
                        label[p] = count
                        seq.append(count)
                seq += [label[p] for p in isolated]
                if not contains_pattern(seq, FORBIDDEN_PATTERN):
                    kept.append(tuple([(chosen[u], chosen[v]) for u, v in taken]))
            if not taken:
                break
            s, t = taken.pop()
            used[s] = used[t] = False
            left_of[chosen[t]] = 0
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
