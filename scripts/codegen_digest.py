#!/usr/bin/env python
"""Per-cell sha256 of the generated code: the byte-identity guard for
back-end changes that must not change what the compiler emits.

A cell is (target, strategy, program) over the 4 targets, the 3
strategies and the 19 programs (Livermore K1-K14 plus the compile-time
suite): 228 cells.  Each cell is compiled with the artifact cache off;
its digest is the sha256 of the linked instruction stream (one
formatted instruction per line) plus the function entry table.  A cell
that fails to compile records ``error: <ExceptionType>: <message>``
instead, so an unchanged failure compares equal too.

Usage::

    PYTHONPATH=src python scripts/codegen_digest.py --out before.json
    ... change the back end ...
    PYTHONPATH=src python scripts/codegen_digest.py --compare before.json

``--targets i860`` and ``--programs K7,K8,matrix`` restrict the grid.
``--compare`` exits 1 and lists the cells of this run whose digests
differ from the file's (a cell the file lacks counts as different), so a
slice can be checked against a full-grid file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys

import repro
from repro.backend.asmprinter import format_instr
from repro.cache import configure as configure_cache
from repro.targets import TARGET_NAMES
from repro.workloads import LIVERMORE_KERNELS, PROGRAM_SUITE

STRATEGIES = ("postpass", "ips", "rase")
PROGRAMS = {f"K{k.id}": k.source for k in LIVERMORE_KERNELS}
PROGRAMS.update((p.name, p.source) for p in PROGRAM_SUITE)


def cell_digest(source: str, target: str, strategy: str) -> str:
    """The digest of one cell's linked code, or its compile error."""
    try:
        exe = repro.compile_c(
            source, target, repro.CompileOptions(strategy=strategy)
        )
    except repro.MarionError as exc:
        return f"error: {type(exc).__name__}: {exc}"
    digest = hashlib.sha256()
    for instr in exe.instrs:
        digest.update(format_instr(instr).encode())
        digest.update(b"\n")
    for name, address in sorted(exe.functions.items()):
        digest.update(f"{name}@{address}\n".encode())
    return digest.hexdigest()


def digests(targets, programs) -> dict[str, str]:
    """``"target/strategy/program" -> digest`` over the selected grid."""
    configure_cache(enabled=False)
    return {
        f"{target}/{strategy}/{program}": cell_digest(
            PROGRAMS[program], target, strategy
        )
        for target in targets
        for strategy in STRATEGIES
        for program in programs
    }


def compare(ours: dict[str, str], theirs: dict[str, str]) -> list[str]:
    """Cells of ``ours`` whose digests ``theirs`` lacks or disagrees with."""
    return sorted(cell for cell in ours if ours[cell] != theirs.get(cell))


def _names(text: str | None, known, kind: str) -> list[str]:
    if text is None:
        return list(known)
    names = [name for name in text.split(",") if name]
    unknown = [name for name in names if name not in known]
    if unknown:
        raise SystemExit(f"unknown {kind}: {', '.join(unknown)}")
    return names


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--targets", help="comma-separated target names")
    parser.add_argument("--programs", help="comma-separated K<n> or suite names")
    parser.add_argument("--out", help="write the digests here as JSON")
    parser.add_argument(
        "--compare", metavar="FILE",
        help="compare against digests written earlier by --out",
    )
    args = parser.parse_args(argv)
    targets = _names(args.targets, TARGET_NAMES, "targets")
    programs = _names(args.programs, PROGRAMS, "programs")
    cells = digests(targets, programs)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(cells, handle, indent=1, sort_keys=True)
            handle.write("\n")
    failed = sum(value.startswith("error:") for value in cells.values())
    print(f"{len(cells)} cells, {failed} with a compile error")
    if args.compare:
        with open(args.compare) as handle:
            baseline = json.load(handle)
        differing = compare(cells, baseline)
        for cell in differing:
            print(f"DIFFERS {cell}: {baseline.get(cell)} -> {cells.get(cell)}")
        if differing:
            return 1
        print(f"identical to {args.compare} on all {len(cells)} cells")
    return 0


if __name__ == "__main__":
    sys.exit(main())
