"""Which functions under ``src/`` do a set of runs call?  A reach report.

Record: with ``tools`` on ``PYTHONPATH`` and ``REACH_DIR`` set, the
``sitecustomize`` beside this file calls :func:`install`, so a process
writes the functions it called to ``REACH_DIR/<pid>.txt`` at exit (forked
pool workers skip ``atexit``: record with ``--workers 1``).  Report:
``python tools/reach.py GATED_DIR --tests TESTS_DIR --out FILE`` lists each
``def`` under ``--src`` (by qualname, ``outer.<locals>.inner`` if nested)
no gated dump reached, tagged ``tests`` or ``none``, matched by file and
``co_firstlineno``; text after `` -- `` is a disposition ``--out`` keeps.
"""

import argparse
import ast
import atexit
import os
import sys
import threading
from pathlib import Path


def install(out_dir: str) -> None:
    """Record every Python function this process calls; dump at exit."""
    seen = set()

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    def dump():
        sys.setprofile(None)
        os.makedirs(out_dir, exist_ok=True)
        rows = {f"{os.path.realpath(c.co_filename)}\t{c.co_firstlineno}\n" for c in seen}
        with open(os.path.join(out_dir, f"{os.getpid()}.txt"), "w") as fh:
            fh.writelines(sorted(rows))

    atexit.register(dump)
    threading.setprofile(hook)
    sys.setprofile(hook)


def functions(src: Path) -> dict:
    """``{(file, first line): (qualname, body lines)}`` for every def."""
    found = {}

    def walk(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                body = child.end_lineno - child.body[0].lineno + 1
                found[(path, first)] = (prefix + child.name, body)
                walk(child, path, f"{prefix}{child.name}.<locals>.")
            else:
                name = f"{child.name}." if isinstance(child, ast.ClassDef) else ""
                walk(child, path, prefix + name)

    for path in sorted(src.rglob("*.py")):
        walk(ast.parse(path.read_text()), str(path.resolve()), "")
    return found


def reached(dirs) -> set:
    """The ``(file, first line)`` pairs any dump in ``dirs`` recorded."""
    rows = (row.rpartition("\t") for d in dirs for f in Path(d).glob("*.txt")
            for row in f.read_text().splitlines())
    return {(name, int(line)) for name, _, line in rows}


def report(src: Path, gated: list, tests: list, reasons: dict) -> list:
    """The report's lines: a count, then one line per function not gated."""
    defs, hit, tested = functions(src), reached(gated), reached(tests)
    lines = []
    for key in sorted(k for k in defs if k not in hit):
        (qualname, body), where = defs[key], os.path.relpath(key[0], src.resolve().parent)
        tag = ", tests" if key in tested else ", none" if tests else ""
        reason = reasons.get(f"{where} {qualname}")
        lines.append(f"{where}:{key[1]} {qualname} ({body} lines{tag})"
                     + (f" -- {reason}" if reason else ""))
    only_tests = sum(", tests)" in line for line in lines)
    unexplained = sum(" -- " not in line for line in lines)
    return [f"# {len(defs)} functions under {src.name}/, {len(defs) - len(lines)} reached "
            f"by the gated runs, {len(lines)} not ({only_tests} reached only by tests); "
            f"{unexplained} without a disposition", *lines]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("gated", nargs="+", help="dump directories of the gated runs")
    ap.add_argument("--tests", nargs="*", default=[], help="dump directories of tier-1")
    ap.add_argument("--src", type=Path, default=Path("src"), help="default: src")
    ap.add_argument("--out", type=Path, required=True, help="keeps its dispositions")
    args = ap.parse_args()
    old = args.out.read_text().splitlines() if args.out.exists() else []
    heads = [row.partition(" -- ") for row in old if " -- " in row and row[0] != "#"]
    reasons = {f"{h.split()[0].split(':')[0]} {h.split()[1]}": r for h, _, r in heads}
    args.out.write_text("\n".join(report(args.src, args.gated, args.tests, reasons)) + "\n")


if __name__ == "__main__":
    main()
