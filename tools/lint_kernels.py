#!/usr/bin/env python3
"""Tree lint: one LBM kernel stack.

The per-point LBM arithmetic lives in src/lbm/point_update.hpp and is
called only by lbm::Solver's kernels. The threaded-rank runtime steps
through those same kernels (rank-local solvers, interior/frontier
passes), which is what keeps every execution path bit-identical to the
serial solver. A file under src/ outside src/lbm/ that includes
lbm/point_update.hpp is the start of a second kernel, so this lint fails
on it. There is no escape hatch: a new per-point loop belongs in
lbm::Solver.

Usage: lint_kernels.py [--root REPO_ROOT] [DIR ...]
Exit status: 0 clean, 1 findings, 2 usage error.
"""
from __future__ import annotations

import argparse
import pathlib
import re
import sys

DEFAULT_DIRS = ["src"]
# The kernel stack itself.
ALLOWED_PREFIX = "src/lbm/"

KERNEL_INCLUDE = re.compile(r'^\s*#\s*include\s*[<"]lbm/point_update\.hpp[>"]')


def lint_file(path: pathlib.Path) -> list[str]:
    findings = []
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        if KERNEL_INCLUDE.match(line):
            findings.append(
                f"{path}:{lineno}: includes lbm/point_update.hpp outside "
                f"src/lbm/ — step through lbm::Solver's kernels instead "
                f"of writing a second per-point loop: {line.strip()}")
    return findings


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("dirs", nargs="*", default=DEFAULT_DIRS,
                        help=f"directories to scan (default: {DEFAULT_DIRS})")
    args = parser.parse_args()

    root = pathlib.Path(args.root)
    findings: list[str] = []
    n_files = 0
    for rel in (args.dirs or DEFAULT_DIRS):
        directory = root / rel
        if not directory.is_dir():
            print(f"lint_kernels: no such directory: {directory}",
                  file=sys.stderr)
            return 2
        for source in sorted(directory.rglob("*")):
            if source.suffix not in (".hpp", ".cpp"):
                continue
            if source.relative_to(root).as_posix().startswith(ALLOWED_PREFIX):
                continue
            n_files += 1
            findings.extend(lint_file(source))

    for finding in findings:
        print(finding, file=sys.stderr)
    status = "FAIL" if findings else "OK"
    print(f"lint_kernels: {status} — {n_files} source files, "
          f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
