"""Regenerate the calibration table in ``repro/lint/calibration.py``.

Run after a deliberate Varanus-compiler rule-plan change::

    PYTHONPATH=src python -m tests.regen_calibration

The script measures every calibration-corpus property with
``plan_property``, then splices the resulting dict literal over the
``CALIBRATION = {...}`` block in the module source.  ``--check`` compares
the live measurements against the checked-in table without writing
(exit 1 on drift) — CI runs this so the table cannot go stale silently.
"""

import argparse
import os
import re
import sys

from repro.lint import calibration
from repro.lint.calibration import CALIBRATION, regenerate

SOURCE = calibration.__file__

#: (table name, checked-in table, live measurer) for each spliced block.
TABLES = (
    ("CALIBRATION", CALIBRATION, regenerate),
)


def _table_re(name):
    return re.compile(
        rf"^{name}: Dict\[str, Tuple\[int, int, int\]\] = \{{$.*?^\}}$",
        re.MULTILINE | re.DOTALL,
    )


def render_table(name, table):
    lines = [f"{name}: Dict[str, Tuple[int, int, int]] = {{"]
    for key in sorted(table):
        lines.append(f"    {key!r}: {table[key]!r},")
    lines.append("}")
    return "\n".join(lines)


def check():
    failed = 0
    for name, checked_in, measure in TABLES:
        live = measure()
        if live == checked_in:
            print(f"{name} up to date ({len(live)} properties)")
            continue
        failed = 1
        for key in sorted(set(live) | set(checked_in)):
            if live.get(key) != checked_in.get(key):
                print(f"  {name}[{key}]: checked-in {checked_in.get(key)} "
                      f"vs measured {live.get(key)}")
        print(f"{name} drifted: rerun "
              "PYTHONPATH=src python -m tests.regen_calibration")
    return failed


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check", action="store_true",
        help="compare the checked-in tables against live measurements "
             "instead of rewriting them")
    args = parser.parse_args()
    if args.check:
        raise SystemExit(check())
    with open(SOURCE, encoding="utf-8") as fp:
        source = fp.read()
    for name, _, measure in TABLES:
        pattern = _table_re(name)
        if not pattern.search(source):
            print(f"could not locate the {name} block in {SOURCE}",
                  file=sys.stderr)
            raise SystemExit(2)
        table = measure()
        source = pattern.sub(
            render_table(name, table).replace("\\", r"\\"), source, count=1)
        print(f"measured {len(table)} {name} rows")
    with open(SOURCE, "w", encoding="utf-8") as fp:
        fp.write(source)
    print(f"wrote {os.path.relpath(SOURCE)}")


if __name__ == "__main__":
    main()
