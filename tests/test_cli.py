import contextlib
import csv
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tricatalan
from tricatalan import cli, eventree, lattice, matching
from tricatalan.verify import run_verify


def run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_verify_passes_at_small_scale():
    report = run_verify(1)
    assert report.overall
    assert [c.name for c in report.checks] == [
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
    ]
    assert run_verify(2, seed=7).overall


def test_run_verify_rejects_bad_range():
    with pytest.raises(ValueError):
        run_verify(0)


def test_verify_cli_passes(capsys):
    code, out, _ = run(capsys, ["verify", "--max-n", "1"])
    assert code == 0
    assert "overall: PASS" in out
    assert out.count("PASS") == 11  # ten checks plus the overall line


def test_verify_cli_json(capsys):
    code, out, _ = run(capsys, ["verify", "--max-n", "1", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert len(report["checks"]) == 10


def test_verify_cli_csv(capsys):
    code, out, _ = run(capsys, ["verify", "--max-n", "1", "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["name", "scope", "passed", "detail"]
    assert len(rows) == 11
    assert all(row[2] == "pass" for row in rows[1:])


def test_verify_fault_injection_exits_1_with_witness(capsys, monkeypatch):
    true_coeff = lattice.catalan3_coeff

    def corrupted(n, k):
        value = true_coeff(n, k)
        return value + 1 if (n, k) == (2, 1) else value

    monkeypatch.setattr(lattice, "catalan3_coeff", corrupted)
    code, out, _ = run(capsys, ["verify", "--max-n", "2"])
    assert code == 1
    assert "FAIL corner-coefficient-formula" in out
    assert "n=2 k=1" in out
    assert "overall: FAIL" in out


# sha256 of a passing `verify --max-n 2 --seed 0` report, which pins the check
# names, scopes, field order and line layout of all three formats.
VERIFY_2_SHA256 = {
    "text": "1dd56887e9c6591f7b58c87c8526be58dfdd003d76cc56ab7e3b444b27afaecd",
    "json": "131fb51ad68b079dbf59ef235bfeb066913ae33aab67b0a10de0d94a419f32b5",
    "csv": "82f888f28deae378089049221207e1c70bc03494ab26a784d31a2d1133fcfc66",
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_2_SHA256))
def test_verify_report_bytes_unchanged(capsys, fmt):
    argv = ["verify", "--max-n", "2", "--seed", "0", "--format", fmt]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_2_SHA256[fmt]


# sha256 of a passing `verify --max-n 5` report at seeds 0 and 7: at this
# size every brute-force family reaches cells past the smallest ones.
VERIFY_5_SHA256 = {
    (0, "text"): "05d11d88c57c53533f7d75702fb6c498bf610af8b9281afd8d54228e2d027aa9",
    (0, "json"): "570bdb16915873ce23b8c90d677bf3bb8d3b2f29ddb8907b54d8f4a57e890237",
    (0, "csv"): "c77a93a09ce09202b166d4c7a698ff812e5bfbb4603992b4aa402b47a2e00c2d",
    (7, "text"): "7f8221f55831c62257bf144c41c48cc424dd74cc51ef9aabb6feaf6da30824dd",
    (7, "json"): "b97841e08468b5af3436e19c106abdab977e64327837564726a5dc0d5c48dcd0",
    (7, "csv"): "8a7acd5df267dbc4c958ac895b454815fcdb0dad159e2e93095681eece7dc4e6",
}


@pytest.mark.parametrize("seed, fmt", sorted(VERIFY_5_SHA256))
def test_verify_report_bytes_unchanged_at_max_n_5(capsys, seed, fmt):
    argv = ["verify", "--max-n", "5", "--seed", str(seed), "--format", fmt]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_5_SHA256[seed, fmt]


@pytest.mark.parametrize("max_n", [cli.VERIFY_MAX_N + 1, 10**9])
def test_verify_refuses_max_n_past_the_limit(capsys, max_n):
    started = time.perf_counter()
    code, out, err = run(capsys, ["verify", "--max-n", str(max_n)])
    assert code == 3 and out == ""
    assert f"--max-n <= {cli.VERIFY_MAX_N}" in err
    # Refused before the DP pass, whose work grows with max_n.
    assert time.perf_counter() - started < 1


def test_verify_help_states_the_max_n_limit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert f"--max-n is at most {cli.VERIFY_MAX_N}" in text


class FlushedOnly(io.StringIO):
    """stdout that shows a reader only what has been flushed."""

    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


@pytest.mark.parametrize(
    "fmt, first",
    [
        ("text", "PASS path-enumeration-vs-table [i <= 4]\n"),
        ("csv", "name,scope,passed,detail\npath-enumeration-vs-table,i <= 4,pass,\n"),
    ],
)
def test_verify_streams_each_line_as_its_check_finishes(monkeypatch, fmt, first):
    out = FlushedOnly()
    monkeypatch.setattr("sys.stdout", out)
    seen = []
    real = lattice.catalan3_coeff

    def spy(*args):
        # The second check's first call: it compares the formula with the table.
        seen.append(out.flushed)
        return real(*args)

    monkeypatch.setattr(lattice, "catalan3_coeff", spy)
    assert cli.main(["verify", "--max-n", "2", "--format", fmt]) == 0
    assert seen[0] == first
    assert out.flushed.startswith(first) and len(out.flushed) > len(first)


def test_verify_json_is_one_object_written_at_the_end(capsys):
    argv = ["verify", "--max-n", "2", "--seed", "7", "--format", "json"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    assert out == cli._compact(run_verify(2, seed=7).to_json()) + "\n"


def test_verify_piped_into_head_exits_cleanly():
    env = dict(os.environ, PYTHONPATH=str(Path(tricatalan.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "tricatalan", "verify", "--max-n", "6"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert first == b"PASS path-enumeration-vs-table [i <= 12]\n"
    assert code == 0 and err == b""


def test_verify_bad_max_n_is_usage_error(capsys):
    code, _, err = run(capsys, ["verify", "--max-n", "0"])
    assert code == 2
    assert "error" in err


def test_map_examples_byte_identical(capsys):
    code, out, _ = run(capsys, ["map", "path-to-matching", "EEENEN"])
    assert code == 0 and out == '{"m":4,"edges":[[1,3],[2,4]]}\n'
    code, out, _ = run(capsys, ["map", "path-to-tree", ""])
    assert code == 0 and out == '{"dotted":false,"root":[]}\n'
    code, out, _ = run(
        capsys, ["map", "matching-to-tree", '{"m":4,"edges":[[1,3],[2,4]]}']
    )
    assert code == 0 and out == '{"dotted":false,"root":[[],[[],[]]]}\n'


def test_map_outputs_reparse_through_the_inverse_kind(capsys):
    _, matching_json, _ = run(capsys, ["map", "path-to-matching", "EEENEN"])
    _, path_json, _ = run(capsys, ["map", "matching-to-path", matching_json.strip()])
    assert json.loads(path_json) == "EEENEN"
    _, again, _ = run(capsys, ["map", "path-to-matching", path_json.strip()])
    assert again == matching_json

    _, tree_json, _ = run(capsys, ["map", "path-to-tree", "EENEEN"])
    _, path2, _ = run(capsys, ["map", "tree-to-path", tree_json.strip()])
    assert json.loads(path2) == "EENEEN"


def test_map_text_format_prints_bare_path(capsys):
    code, out, _ = run(
        capsys,
        ["map", "matching-to-path", '{"m":2,"edges":[[1,2]]}', "--format", "text"],
    )
    assert code == 0 and out == "EEN\n"


def test_map_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"m":4,"edges":[[1,3],[2,4]]}\n'))
    code, out, _ = run(capsys, ["map", "matching-to-path", "-"])
    assert code == 0 and json.loads(out) == "EEENEN"


def test_map_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, ["map", "path-to-matching", "EEX"])
    assert code == 2 and "index 2" in err
    code, _, err = run(capsys, ["map", "path-to-matching", "ENE"])
    assert code == 2 and "index 1" in err
    code, _, err = run(capsys, ["map", "matching-to-path", "{not json"])
    assert code == 2
    code, _, err = run(capsys, ["map", "matching-to-path", '{"m":2,"edges":[[2,2]]}'])
    assert code == 2
    # Valid JSON of the wrong shape is a parse error too.
    assert run(capsys, ["map", "path-to-matching", "5"]) == (
        2, "", "error: a path must be a string over the alphabet {E,N}\n"
    )
    assert run(capsys, ["map", "matching-to-path", '{"m": 3, "edges": 5}']) == (
        2, "", "error: edges 5 are not a sequence of pairs\n"
    )
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["map", "path-to-matching", "EEN", "--format", "csv"])
    assert exit_info.value.code == 2 and "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["path-to-matching", "path-to-tree"])
@pytest.mark.parametrize(
    "value, message",
    [
        ("EENNE", "step at index 3 moves above the line x = 2y"),
        ('"EENNE"', "step at index 3 moves above the line x = 2y"),
        ("EEXEN", "invalid step 'X' at index 2: expected 'E' or 'N'"),
        ('"EEXEN"', "invalid step 'X' at index 2: expected 'E' or 'N'"),
    ],
)
def test_map_names_the_first_bad_path_step(capsys, kind, value, message):
    assert run(capsys, ["map", kind, value]) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "edges, message",
    [
        ("[[2,1]]", "edge (2,1): a must be less than b"),
        ("[[1,1]]", "edge (1,1): a must be less than b"),
        ("[[1,5]]", "edge (1,5) is not inside 1..4"),
        ("[[0,2]]", "edge (0,2) is not inside 1..4"),
    ],
)
def test_map_names_the_bad_edge(capsys, edges, message):
    argv = ["map", "matching-to-path", '{"m":4,"edges":%s}' % edges]
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_map_domain_rejections_exit_3(capsys):
    code, _, err = run(capsys, ["map", "matching-to-path", '{"m":4,"edges":[[1,4]]}'])
    assert code == 3 and "covers 2 isolated points" in err
    code, _, err = run(
        capsys, ["map", "tree-to-path", '{"dotted":true,"root":[[],[]]}']
    )
    assert code == 3 and "endpoint required" in err


def test_enum_trees(capsys):
    code, out, _ = run(capsys, ["enum", "trees", "--edges", "4"])
    lines = out.splitlines()
    assert code == 0 and len(lines) == 3
    assert all(json.loads(line)["dotted"] is False for line in lines)

    code, out, _ = run(capsys, ["enum", "trees", "--edges", "4", "--format", "text"])
    lines = out.splitlines()
    assert lines[-1] == "count: 3"
    assert lines[:-1] == ["(()())()", "()(()())", "()()()()"]


def test_enum_matchings(capsys):
    code, out, _ = run(capsys, ["enum", "matchings", "--i", "4", "--j", "1"])
    lines = out.splitlines()
    assert code == 0 and len(lines) == 3
    assert json.loads(lines[0]) == {"m": 4, "edges": [[1, 2]]}


def test_enum_paths(capsys):
    code, out, _ = run(capsys, ["enum", "paths", "--i", "0", "--j", "0"])
    assert code == 0 and out == '""\n'
    code, out, _ = run(
        capsys, ["enum", "paths", "--i", "4", "--j", "1", "--format", "text"]
    )
    assert out.splitlines() == ["EEEEN", "EEENE", "EENEE", "count: 3"]


def test_enum_paths_along_a_long_axis(capsys):
    assert sys.getrecursionlimit() <= 1000
    code, out, _ = run(capsys, ["enum", "paths", "--i", "1200", "--j", "0"])
    assert code == 0 and out.splitlines() == [json.dumps("E" * 1200)]


def test_enum_bounds_violations_exit_2(capsys):
    assert run(capsys, ["enum", "paths", "--i", "1", "--j", "1"])[0] == 2
    assert run(capsys, ["enum", "trees", "--edges", "3"])[0] == 2
    assert run(capsys, ["enum", "matchings", "--i", "4"])[0] == 2
    assert run(capsys, ["enum", "paths", "--i", "-1", "--j", "0"])[0] == 2
    assert run(capsys, ["enum", "paths", "--i", "3"])[0] == 2
    assert run(capsys, ["enum", "matchings", "--i", "3", "--j", "2"])[0] == 2
    assert run(capsys, ["enum", "trees"])[0] == 2


def test_enum_csv(capsys):
    code, out, _ = run(
        capsys, ["enum", "matchings", "--i", "4", "--j", "1", "--format", "csv"]
    )
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m", "edges"]
    assert rows[1] == ["4", "[[1,2]]"]
    assert run(
        capsys, ["enum", "paths", "--i", "4", "--j", "1", "--format", "csv"]
    ) == (0, "path\nEEEEN\nEEENE\nEENEE\n", "")
    assert run(capsys, ["enum", "trees", "--edges", "4", "--format", "csv"]) == (
        0, "tree\n(()())()\n()(()())\n()()()()\n", ""
    )


def test_table_text_contains_goldens(capsys):
    code, out, _ = run(capsys, ["table", "--max-i", "8"])
    assert code == 0
    assert "14 + 21*x + 15*x^2 + 5*x^3" in out
    assert "5 + 10*x + 10*x^2 + 5*x^3" in out


def test_table_max_i_zero(capsys):
    code, out, _ = run(capsys, ["table", "--max-i", "0"])
    assert code == 0
    assert out.splitlines()[-1].split() == ["j=0", "1"]


def test_table_json(capsys):
    code, out, _ = run(capsys, ["table", "--max-i", "4", "--format", "json"])
    assert code == 0
    assert "[4,2,[2,1]]" in out
    cells = json.loads(out)
    assert cells[0] == [0, 0, [1]]


def test_table_csv(capsys):
    code, out, _ = run(capsys, ["table", "--max-i", "4", "--format", "csv"])
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["i", "j", "coeffs"]
    assert ["4", "2", "2 1"] in rows


# sha256 of the seed's `table --max-i 16` output in json (the value the
# benchmark records) and in csv; streaming must not change a byte.
TABLE_16_SHA256 = {
    "json": "444e736b2a8a6ecdb9aa9677795f7532d5bb0c8fafa19f8e0cd3fde1dede0353",
    "csv": "11d7fbe86394b86c7533720c798253d157e2dd6b0a6d1d1ff8ea7d6d6766a345",
}


@pytest.mark.parametrize("fmt", sorted(TABLE_16_SHA256))
def test_table_streamed_bytes_unchanged(capsys, fmt):
    code, out, _ = run(capsys, ["table", "--max-i", "16", "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_16_SHA256[fmt]


# Odd columns hold cells of length 1 and 2, odd- and even-length palindromes
# and non-palindromes, which the writers must convert whole.
FAKE_COLUMNS = [
    [(1,), (4, 4)],
    [(7,), (5, 6), (3, 9, 3), (2, 8, 8, 2), (1, 2, 3), (10**40, 3, 10**40), (4, 1, 4, 5)],
    [(2, 2), (6, 1, 6)],
    [(12345678901234567890,), (9, 9)],
]


def test_table_writes_every_cell_exactly(capsys, monkeypatch):
    monkeypatch.setattr(lattice, "lattice_columns", lambda max_i: iter(FAKE_COLUMNS))
    cells = [
        (i, j, coeffs)
        for i, column in enumerate(FAKE_COLUMNS)
        for j, coeffs in enumerate(column)
    ]
    _, out, _ = run(capsys, ["table", "--max-i", "3", "--format", "json"])
    compact = [json.dumps([i, j, list(c)], separators=(",", ":")) for i, j, c in cells]
    assert out == "[" + ",".join(compact) + "]\n"
    _, out, _ = run(capsys, ["table", "--max-i", "3", "--format", "csv"])
    rows = [f"{i},{j},{' '.join(map(str, c))}" for i, j, c in cells]
    assert out == "i,j,coeffs\n" + "\n".join(rows) + "\n"


def test_table_json_equals_a_plain_encoding_of_the_table(capsys):
    _, out, _ = run(capsys, ["table", "--max-i", "101", "--format", "json"])
    cells = [[i, j, list(p.coeffs)] for i, j, p in lattice.lattice_table(101)]
    want = json.dumps(cells, separators=(",", ":")) + "\n"
    if out != want:  # megabytes on one line: name where they part, not a diff
        end = min(len(out), len(want))
        at = next((k for k, (a, b) in enumerate(zip(out, want)) if a != b), end)
        pytest.fail(f"output parts from the reference at {at}: {out[at : at + 80]!r}")


class RecordingWriter(io.TextIOBase):
    """stdout stand-in that keeps each write as its own string."""

    def __init__(self):
        self.writes = []

    def writable(self):
        return True

    def write(self, s):
        self.writes.append(s)
        return len(s)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_table_writes_are_cell_sized(monkeypatch, fmt):
    writer = RecordingWriter()
    monkeypatch.setattr("sys.stdout", writer)
    assert cli.main(["table", "--max-i", "60", "--format", fmt]) == 0
    cells = [[i, j, list(p.coeffs)] for i, j, p in lattice.lattice_table(60)]
    if fmt == "json":
        texts = [json.dumps(cell, separators=(",", ":")) for cell in cells]
        # Each cell's text with the separator before it ("[" for the first).
        pieces = ["[" + texts[0], *("," + text for text in texts[1:]), "]\n"]
    else:
        reference = io.StringIO()
        rows = csv.writer(reference, lineterminator="\n")
        rows.writerow(["i", "j", "coeffs"])
        rows.writerows([i, j, " ".join(map(str, c))] for i, j, c in cells)
        pieces = reference.getvalue().splitlines(keepends=True)
    longest = max(map(len, pieces))
    assert max(map(len, writer.writes)) <= longest
    assert "".join(writer.writes) == "".join(pieces)


class CountingWriter(io.TextIOBase):
    """stdout stand-in that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def writable(self):
        return True

    def write(self, s):
        self.chars += len(s)
        return len(s)


def test_table_text_limit(capsys, monkeypatch):
    limit = cli.TEXT_TABLE_MAX_I
    assert limit >= 200
    code, out, err = run(capsys, ["table", "--max-i", str(limit + 1)])
    assert code == 2 and out == ""
    assert f"--max-i <= {limit}" in err and "--format json or csv" in err
    writer = CountingWriter()
    monkeypatch.setattr("sys.stdout", writer)
    assert cli.main(["table", "--max-i", str(limit)]) == 0
    assert writer.chars > 0
    # The streamed formats have no such limit.
    writer = CountingWriter()
    monkeypatch.setattr("sys.stdout", writer)
    assert cli.main(["table", "--max-i", str(limit + 1), "--format", "csv"]) == 0
    assert writer.chars > 0


def test_table_help_states_the_text_limit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["table", "--help"])
    assert f"at most {cli.TEXT_TABLE_MAX_I}" in capsys.readouterr().out


class ClosedPipe(io.TextIOBase):
    """stdout whose reader has gone away, as under `| head`."""

    def writable(self):
        return True

    def write(self, s):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--max-i", "30", "--format", "json"],
        ["table", "--max-i", "30", "--format", "csv"],
        ["table", "--max-i", "8"],
        ["enum", "paths", "--i", "8", "--j", "4"],
    ],
)
def test_closed_stdout_is_a_normal_stop(capsys, monkeypatch, argv):
    monkeypatch.setattr("sys.stdout", ClosedPipe())
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


def test_table_piped_into_head_exits_cleanly():
    env = dict(os.environ, PYTHONPATH=str(Path(tricatalan.__file__).parents[1]))
    argv = ["table", "--max-i", "1500", "--format", "json"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tricatalan", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    head = proc.stdout.read(1000)
    proc.stdout.close()
    try:
        err = proc.stderr.read()
        code = proc.wait(timeout=60)
    finally:
        proc.kill()
        proc.stderr.close()
    assert head.startswith(b"[[0,0,[1]],[1,0,[1]],")
    assert code == 0 and err == b""


def test_map_rejects_boolean_endpoints(capsys):
    for edges in ("[[true,2]]", "[[1,false]]"):
        code, out, err = run(
            capsys, ["map", "matching-to-path", '{"m":2,"edges":%s}' % edges]
        )
        assert code == 2 and out == "" and "boolean" in err


def _digits_past_the_limit():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return "1" * (limit + 1) if limit else None


@pytest.mark.skipif(
    _digits_past_the_limit() is None, reason="no integer digit limit is in force"
)
@pytest.mark.parametrize(
    "kind, template",
    [
        ("matching-to-path", '{"m":%s,"edges":[]}'),
        ("matching-to-tree", '{"m":%s,"edges":[]}'),
        ("path-to-tree", "%s"),
        ("tree-to-path", '{"dotted":false,"root":[[],[%s]]}'),
    ],
)
def test_map_refuses_integer_literals_past_the_digit_limit(capsys, kind, template):
    code, out, err = run(capsys, ["map", kind, template % _digits_past_the_limit()])
    assert code == 2 and out == ""
    assert f"({sys.get_int_max_str_digits()} digits," in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "kind, value",
    [
        ("tree-to-path", '{"dotted":false,"root":[[],[],[[]],[]]}'),
        ("tree-to-path", '{"dotted":[],"root":[[],[]]}'),
        ("matching-to-tree", '{"m":2,"edges":[[true,2]]}'),
        pytest.param(
            "tree-to-path", '{"dotted":false,"root":%s}' % ("[" * 1200 + "]" * 1200),
            id="tree-to-path-deep-json",
        ),
        pytest.param(
            "matching-to-path", '{"m":2,"edges":%s}' % ("[" * 1200 + "]" * 1200),
            id="matching-to-path-deep-json",
        ),
        pytest.param(
            "matching-to-tree", '{"m":2,"edges":%s}' % ("[" * 1200 + "]" * 1200),
            id="matching-to-tree-deep-json",
        ),
        ("tree-to-path", "(()"),
        ("tree-to-path", "())("),
        ("tree-to-path", "(())()"),
    ],
)
def test_map_refuses_hostile_objects_at_the_boundary(capsys, kind, value):
    code, out, err = run(capsys, ["map", kind, value])
    assert code == 2 and out == "" and err.startswith("error: ")


def test_map_tree_kinds_print_paren_text_in_text_format(capsys):
    code, out, _ = run(capsys, ["map", "path-to-tree", "EEEN", "--format", "text"])
    assert code == 0 and out == "*()(()())\n"
    code, out, _ = run(
        capsys,
        ["map", "matching-to-tree", '{"m":4,"edges":[[1,3],[2,4]]}', "--format", "text"],
    )
    assert code == 0 and out == "()(()())\n"
    code, out, _ = run(capsys, ["map", "tree-to-path", "()(()())", "--format", "text"])
    assert code == 0 and out == "EEENEN\n"


def test_tree_json_text_matches_the_json_encoder():
    for edges in range(0, 11, 2):
        for tree in eventree.enumerate_even_trees(edges):
            variants = [tree]
            if eventree.paren(tree).startswith("()"):
                variants.append(eventree.tree_from_paren("*" + eventree.paren(tree)))
            for t in variants:
                assert cli._tree_json(t) == cli._compact(eventree.tree_to_json(t))


def test_deep_staircase_trees_through_the_cli(capsys):
    assert sys.getrecursionlimit() <= 1000
    path = "E" * 2000 + "N" * 1000  # folds into a tree of depth 1000
    code, out, _ = run(capsys, ["map", "path-to-tree", path])
    assert code == 0
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:  # the encoder recurses by depth; it is only the reference here
        expected = json.dumps(eventree.tree_to_json(eventree.path_to_tree(path)),
                              separators=(",", ":"))
    finally:
        sys.setrecursionlimit(limit)
    assert out == expected + "\n"
    code, _, err = run(capsys, ["map", "tree-to-path", out.strip()])
    assert code == 2 and "nested deeper than the decoder allows" in err

    path = "E" * 200000 + "N" * 100000
    code, text, _ = run(capsys, ["map", "path-to-tree", path, "--format", "text"])
    assert code == 0 and len(text) == 400001
    code, back, err = run(capsys, ["map", "tree-to-path", text.strip(), "--format", "text"])
    assert code == 0 and back == path + "\n" and err == ""


def test_map_matching_to_path_on_a_long_matching(capsys):
    rng = random.Random(600)
    steps, x, y = [], 0, 0
    while x < 400:
        if x >= 2 * (y + 1) and y < 200 and rng.random() < 0.4:
            steps.append("N")
            y += 1
        else:
            steps.append("E")
            x += 1
    path = "".join(steps) + "N" * (200 - y)
    assert len(path) == 600
    folded = matching.path_to_matching(path)
    code, out, _ = run(
        capsys,
        ["map", "matching-to-path", json.dumps(matching.matching_to_json(folded)),
         "--format", "text"],
    )
    assert code == 0 and out == path + "\n"


@pytest.mark.parametrize("kind", ["matching-to-path", "matching-to-tree"])
@pytest.mark.parametrize("points", [cli.MAP_MAX_POINTS + 1, 10**20 - 1])
def test_map_refuses_matchings_past_the_point_limit(capsys, kind, points):
    started = time.perf_counter()
    value = json.dumps({"m": points, "edges": []})
    code, out, err = run(capsys, ["map", kind, value])
    assert code == 3 and out == ""
    assert f"m <= {cli.MAP_MAX_POINTS} points" in err
    # Refused before the refold, whose work grows with the point count.
    assert time.perf_counter() - started < 1


def test_map_help_states_the_point_limit(capsys):
    with pytest.raises(SystemExit):
        cli.main(["map", "--help"])
    assert f"at most {cli.MAP_MAX_POINTS} points" in capsys.readouterr().out


def test_table_negative_max_i_exits_2(capsys):
    assert run(capsys, ["table", "--max-i", "-1"])[0] == 2


def test_json_output_is_deterministic(capsys):
    _, first, _ = run(capsys, ["table", "--max-i", "6", "--format", "json"])
    _, second, _ = run(capsys, ["table", "--max-i", "6", "--format", "json"])
    assert first == second


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


# Option values for the CLI fuzz: each stays small enough that no case can
# start an unbounded enumeration, or is refused (exit 2 or 3) before any.
_MISTYPED = st.text(max_size=12).filter(lambda v: v != "-")  # "-" reads stdin
_SMALL = st.integers(-3, 10).map(str)
_HUGE = st.integers(10**9, 10**30).map(str)
_LONG_DIGITS = st.integers(5000, 6000).map(lambda n: "9" * n)
_DEPTH = st.integers(1, 5 * 10**4)


def _mostly(values, typo=_MISTYPED):
    """values, or about one time in ten typo."""
    return st.sampled_from(range(10)).flatmap(lambda k: typo if k == 9 else values)


def _option(name, values):
    """[name, value], or about one time in ten nothing."""
    return _mostly(values.map(lambda v: [name, v]), st.just([]))


_FORMAT = _mostly(st.sampled_from(["text", "json", "csv"]))


@st.composite
def _table_argv(draw):
    fmt = draw(_FORMAT)
    # Only the text grid refuses a large --max-i; json and csv stream any size.
    big = [_HUGE] if fmt == "text" else []
    max_i = draw(_option("--max-i", _mostly(st.one_of(_SMALL, *big))))
    return ["table", *max_i, "--format", fmt]


@st.composite
def _enum_argv(draw):
    family = draw(_mostly(st.sampled_from(["paths", "matchings", "trees"])))
    # A huge --j leaves no cell below the line and a huge negative count no
    # family; any other large size would enumerate without end.
    i = draw(_option("--i", _mostly(_SMALL)))
    j = draw(_option("--j", _mostly(st.one_of(_SMALL, _SMALL, _HUGE))))
    edges = _mostly(st.one_of(_SMALL, _HUGE.map(lambda v: f"-{v}")), _LONG_DIGITS)
    edges = draw(_option("--edges", edges))
    return ["enum", family, *i, *j, *edges, "--format", draw(_FORMAT)]


def _matching_text(m, depth):
    return json.dumps({"m": m, "edges": json.loads("[" * depth + "]" * depth)})


@st.composite
def _map_argv(draw):
    kind = draw(_mostly(st.sampled_from(cli.MAP_KINDS)))
    depth = draw(_DEPTH)
    value = draw(
        _mostly(
            st.sampled_from(
                [
                    "[" * depth + "]" * depth,
                    "(" * depth + ")" * depth,
                    "(" * depth + ")" * (depth - 1),
                    '"' + "E" * depth + "N" * (depth // 2) + '"',
                    "E" * (2 * depth) + "N" * depth,
                    "E" * depth + "N" * depth,
                    '{"m": %s, "edges": []}' % ("9" * (depth % 6000 + 1)),
                    '{"dotted": false, "root": ' + "[" * depth + "]" * depth + "}",
                    '{"dotted": 1, "root": []}',
                    _matching_text(depth % 40, 1),
                    _matching_text(depth % 40, 2),
                    _matching_text(depth * 10**20, 1),
                    json.dumps({"m": 4, "edges": [[1, 3], [2, 4]]}),
                    json.dumps({"m": 6, "edges": [[1, 4], [2, 5], [3, 6]]}),
                    json.dumps({"m": 3, "edges": [[True, 2]]}),
                ]
            )
        )
    )
    return ["map", kind, value, *draw(_option("--format", _FORMAT))]


@st.composite
def _verify_argv(draw):
    # --max-n up to 2 runs every check; past the limit it is refused.
    max_n = _mostly(st.one_of(st.integers(-3, 2).map(str), _HUGE), _LONG_DIGITS)
    return [
        "verify",
        *draw(_option("--max-n", max_n)),
        *draw(_option("--seed", _mostly(st.one_of(_SMALL, _HUGE)))),
        *draw(_option("--format", _FORMAT)),
    ]


@pytest.mark.parametrize(
    "argvs", [_table_argv(), _enum_argv(), _map_argv(), _verify_argv()],
    ids=["table", "enum", "map", "verify"],
)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_maps_hostile_arguments_onto_the_exit_codes(argvs, data):
    argv = data.draw(argvs) + data.draw(
        _mostly(st.just([]), st.sampled_from([["--bogus"], ["--format"], ["x"]]))
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in {0, 2, 3}, (argv, err.getvalue())
