"""Independent routes to every output the benchmark checks.

Nothing here imports tricatalan: the folds, statistics and closed forms are
written again from their definitions, so a defect in the timed code cannot
also hide in its check.  Every fold is iterative, so the oracle works on
inputs deeper than the interpreter's recursion limit.
"""

from __future__ import annotations

import re
from math import comb

VERIFY_CHECKS = (
    "path-enumeration-vs-table",
    "corner-coefficient-formula",
    "descent-closed-form",
    "odd-column-row-sum",
    "on-line-collapse",
    "matching-class-counts",
    "matching-bijection",
    "even-tree-counts",
    "even-tree-bijection",
    "shift-lift-crossing-deltas",
)


# --- lattice paths -------------------------------------------------------


def weight_exponent(path: str) -> int:
    """North steps taken at odd x."""
    x = exponent = 0
    for ch in path:
        if ch == "E":
            x += 1
        else:
            exponent += x % 2
    return exponent


def corner_poly(n: int) -> list[int]:
    """Coefficients of L(2n, n): C(n-1+k, n-1) * C(2n-k, n+1) / n for k < n.

    This is the closed form behind both catalan3_coeff(n, k) and
    descent_poly(n + 1); its coefficients sum to C(3n, n) / (2n + 1).
    """
    coeffs = []
    for k in range(n):
        q, r = divmod(comb(n - 1 + k, n - 1) * comb(2 * n - k, n + 1), n)
        if r:
            raise ArithmeticError(f"corner coefficient ({n},{k}) is not an integer")
        coeffs.append(q)
    q, r = divmod(comb(3 * n, n), 2 * n + 1)
    if r or sum(coeffs) != q:
        raise ArithmeticError(f"corner coefficients for n={n} do not sum to C3({n})")
    return coeffs


# --- partial matchings ---------------------------------------------------


def fold_matching(path: str) -> dict:
    """Matching JSON of a path: E appends an isolated point, N joins the
    middle isolated points (the k-th and (k+1)-st of 2k, or the k-th and
    (k+2)-nd of 2k+1)."""
    isolated: list[int] = []
    edges = []
    m = 0
    for ch in path:
        if ch == "E":
            m += 1
            isolated.append(m)
            continue
        k = len(isolated) // 2
        if len(isolated) % 2 == 0:
            a, b = isolated[k - 1], isolated[k]
            del isolated[k - 1 : k + 1]
        else:
            a, b = isolated[k - 1], isolated[k + 1]
            del isolated[k + 1]
            del isolated[k - 1]
        edges.append([a, b])
    edges.sort()
    return {"m": m, "edges": edges}


def crossings(matching: dict) -> int:
    """Interleaved edge pairs plus (edge, isolated point inside it) pairs."""
    edges = [tuple(e) for e in matching["edges"]]
    covered = {p for e in edges for p in e}
    isolated = [p for p in range(1, matching["m"] + 1) if p not in covered]
    count = 0
    for k, (a, b) in enumerate(edges):
        for c, d in edges[k + 1 :]:
            if a < c < b < d or c < a < d < b:
                count += 1
        count += sum(1 for p in isolated if a < p < b)
    return count


# --- even trees ----------------------------------------------------------


def fold_tree(path: str) -> dict:
    """Tree JSON of a path, by the shift/lift rules on mutable child lists.

    E at even x adds a dotted outer leaf pair to the root, E at odd x makes
    it regular.  N at odd x moves root[1] and root[-2] to the outside of the
    last child; N at even x moves the outer pair to the outside of the second
    child, except that the lift onto the line x = 2y is the identity.
    """
    root: list = []
    dotted = False
    x = y = 0
    for ch in path:
        if ch == "E":
            if dotted:
                dotted = False
            else:
                root = [[]] + root + [[]]
                dotted = True
            x += 1
            continue
        if x % 2 == 1:
            root = [root[0]] + root[2:-2] + [[root[1]] + root[-1] + [root[-2]]]
        elif y != x // 2 - 1:
            root = [[root[0]] + root[1] + [root[-1]]] + root[2:-1]
        y += 1
    return {"dotted": dotted, "root": root}


def r_index(tree: dict) -> int:
    """Half the sum of the degrees of all right children."""
    total = 0
    todo = [tree["root"]]
    while todo:
        node = todo.pop()
        total += sum(len(c) for c in node[len(node) // 2 :])
        todo.extend(node)
    if total % 2:
        raise ValueError("right-child degrees sum to an odd number")
    return total // 2


# --- command outputs -----------------------------------------------------


def verify_text_ok(text: str) -> str | None:
    """None when a text `verify` report passes all ten named checks."""
    lines = text.splitlines()
    passed = {line.split()[1] for line in lines if line.startswith("PASS ")}
    missing = [name for name in VERIFY_CHECKS if name not in passed]
    if missing:
        return f"checks not reported as PASS: {', '.join(missing)}"
    if not lines or lines[-1] != "overall: PASS":
        return "last line is not 'overall: PASS'"
    return None


_CELL = re.compile(r"\[(\d+),(\d+),\[([0-9,]*)\]\]")
_MAX_CELL_CHARS = 1 << 20


class TableScanner:
    """Streams `table --format json` text and keeps only what the checks need.

    Keeps the corner cells (2n, n) and the sums over j of the odd columns
    (2n - 1, j), and checks that the cells come in table order, each once,
    inside one JSON array.  Memory stays bounded by one chunk plus the kept
    polynomials, so the 238 MB output of --max-i 400 is never held whole.
    """

    def __init__(self, max_i: int) -> None:
        self.max_i = max_i
        self.corners: dict[int, list[int]] = {}
        self.odd_sums: dict[int, list[int]] = {}
        self.error: str | None = None
        self._buf = ""
        self._next = (0, 0)
        self._state = "open"  # open -> cell -> sep -> cell ... -> closed

    def feed(self, text: str) -> None:
        if self.error is not None:
            return
        buf = self._buf + text
        pos = 0
        while pos < len(buf):
            if self._state == "closed":
                if buf[pos:].strip():
                    self.error = "text after the closing ']'"
                pos = len(buf)
            elif self._state == "open":
                if buf[pos] != "[":
                    self.error = "output does not start with '['"
                    return
                pos, self._state = pos + 1, "cell"
            elif self._state == "sep":
                if buf[pos] not in ",]":
                    self.error = f"expected ',' or ']' before cell {self._next}"
                    return
                self._state = "cell" if buf[pos] == "," else "closed"
                pos += 1
            else:
                match = _CELL.match(buf, pos)
                if match is None:
                    # A cell ends in ']]', so no match may just be a cell
                    # cut by the chunk boundary; no cell is this long.
                    if len(buf) - pos > _MAX_CELL_CHARS:
                        self.error = f"malformed cell near {self._next}"
                        return
                    break
                self._take(int(match[1]), int(match[2]), match[3])
                if self.error is not None:
                    return
                pos, self._state = match.end(), "sep"
        self._buf = buf[pos:]

    def _take(self, i: int, j: int, body: str) -> None:
        if (i, j) != self._next:
            self.error = f"cell ({i},{j}) where ({self._next[0]},{self._next[1]}) was due"
            return
        self._next = (i, j + 1) if 2 * (j + 1) <= i else (i + 1, 0)
        if i % 2 == 1 or 2 * j == i:
            coeffs = [int(c) for c in body.split(",")] if body else []
            if 2 * j == i and i > 0:
                self.corners[j] = coeffs
            if i % 2 == 1:
                acc = self.odd_sums.setdefault((i + 1) // 2, [])
                acc.extend([0] * (len(coeffs) - len(acc)))
                for k, c in enumerate(coeffs):
                    acc[k] += c

    def finish(self) -> str | None:
        """End of output: None when every check passed, else the first failure."""
        if self.error is None and self._state != "closed":
            self.error = "output ends before the closing ']'"
        if self.error is None and self._next != (self.max_i + 1, 0):
            self.error = f"table stops before cell {self._next}"
        if self.error is None:
            for n in range(1, self.max_i // 2 + 1):
                want = corner_poly(n)
                if _trim(self.corners.get(n, [])) != want:
                    self.error = f"cell ({2 * n},{n}) differs from the closed form"
                    break
                if _trim(self.odd_sums.get(n, [])) != want:
                    self.error = f"column {2 * n - 1} does not sum to cell ({2 * n},{n})"
                    break
        return self.error


def _trim(coeffs: list[int]) -> list[int]:
    end = len(coeffs)
    while end and coeffs[end - 1] == 0:
        end -= 1
    return coeffs[:end]
