"""Runs one batch of tricatalan CLI calls in a fresh interpreter.

Started by run.py with the package on PYTHONPATH and a JSON request on
stdin: the argv of each call, which call's output feeds which, whether to
keep stdout text, an optional table size to scan, and for a traced run the
path of the span file.  Each call goes through tricatalan.cli.main with
stdout sent to a counting, hashing sink.  The reply, one JSON object, goes
to the real stdout once every call has ended.

Clocks: time.perf_counter is CLOCK_MONOTONIC on Linux, shared by all
processes, so the parent's spawn time and this process's first stdout byte
are on one time line.  The recursion limit is left at the interpreter
default; the tracer only offsets it by the frames its own wrappers add.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time

CHUNK = 1 << 20
clock = time.perf_counter


class Sink(io.TextIOBase):
    """stdout stand-in: counts and hashes what is written, keeps it only if asked."""

    def __init__(self, keep: bool, scanner, first_write: list[float]) -> None:
        self.sha256 = hashlib.sha256()
        self.nbytes = 0
        self.parts: list[str] | None = [] if keep else None
        self.scanner = scanner
        self.first_write = first_write  # shared by all sinks of the process

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if s and not self.first_write:
            self.first_write.append(clock())
        for k in range(0, len(s), CHUNK):
            piece = s[k : k + CHUNK]
            data = piece.encode()
            self.sha256.update(data)
            self.nbytes += len(data)
            if self.parts is not None:
                self.parts.append(piece)
            if self.scanner is not None:
                self.scanner.feed(piece)
        return len(s)


def run_batch(request: dict) -> dict:
    tracer = None
    if request.get("spans_path"):
        from tracer import Tracer

        tracer = Tracer(request["spawn"])
        tracer.trace_imports("tricatalan")
    from tricatalan import cli

    if tracer is not None:
        tracer.trace_package("tricatalan")
        Sink.write = tracer.wrap(Sink.write, "bench.sink")
    scanner = None
    if request.get("scan_max_i") is not None:
        from oracle import TableScanner

        scanner = TableScanner(request["scan_max_i"])

    first_byte: list[float] = []
    real_stdout, real_stderr = sys.stdout, sys.stderr
    records: list[dict] = []
    for k, op in enumerate(request["ops"]):
        argv = list(op["argv"])
        source = op.get("input_from")
        if source is not None:
            if records[source]["rc"] != 0 or records[source]["text"] is None:
                records.append({"rc": None, "error": None, "text": None, "skipped": True})
                continue
            argv.append(records[source]["text"].strip())
        out = Sink(request["keep"], scanner, first_byte)
        err = io.StringIO()
        rc, error = None, None
        if tracer is not None:
            tracer.op = k
        sys.stdout, sys.stderr = out, err
        start = clock()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # the call's failure is the measurement
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        seconds = clock() - start
        sys.stdout, sys.stderr = real_stdout, real_stderr
        records.append(
            {
                "rc": rc,
                "error": error,
                "seconds": seconds,
                "bytes": out.nbytes,
                "sha256": out.sha256.hexdigest(),
                "text": "".join(out.parts) if out.parts is not None else None,
                "stderr": err.getvalue()[-500:],
            }
        )
    end = clock()
    reply = {
        "ops": records,
        "first_byte": first_byte[0] if first_byte else None,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "recursion_limit": sys.getrecursionlimit(),
    }
    if scanner is not None:
        reply["scan_error"] = scanner.finish()
    if tracer is not None:
        tracer.close(end)
        tracer.write(request["spans_path"])
    return reply


def main() -> None:
    request = json.loads(sys.stdin.read())
    reply = run_batch(request)
    sys.stdout.write(json.dumps(reply))
    sys.stdout.flush()


if __name__ == "__main__":
    main()
