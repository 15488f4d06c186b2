"""Certified practical UXS lengths, committed as data.

A practical plan is ``splitmix_offsets(n, T, stream)``: the symbols depend on
``(n, stream)`` alone, and certification (:func:`repro.uxs.generators.
certify_plan`) contributes only the length ``T``.  So the whole result of
certifying ``n`` is one integer, and :data:`CERTIFIED_T` holds it for the
default arguments (``safety=2``, ``stream=0``) and every ``n`` from 1 to
128.  :func:`repro.uxs.generators.practical_plan` reads ``T`` from here and
certifies live only outside the table.

The table is generated, never hand-edited::

    python -m repro.uxs.table                 # regenerate this file
    python -m repro.uxs.table --check         # re-certify every tabled n
    python -m repro.uxs.table --check --max-n 32 --jobs 2

``--check`` exits non-zero on any mismatch.  The tier-1 suite re-certifies
``n <= 32`` (``tests/test_uxs.py``); the nightly workflow runs the full
``--check``.
"""

from __future__ import annotations

import re
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

#: The ``practical_plan`` arguments the table was certified for.
CERTIFIED_SAFETY = 2
CERTIFIED_STREAM = 0

#: Largest ``n`` the regenerator tables by default.
TABLE_MAX_N = 128

# BEGIN CERTIFIED_T (generated by `python -m repro.uxs.table`; do not edit)
CERTIFIED_T: Dict[int, int] = {
    1: 0,
    2: 2,
    3: 26,
    4: 42,
    5: 70,
    6: 168,
    7: 176,
    8: 428,
    9: 912,
    10: 1156,
    11: 758,
    12: 2280,
    13: 2700,
    14: 3250,
    15: 3750,
    16: 3170,
    17: 5438,
    18: 5608,
    19: 6212,
    20: 5560,
    21: 7698,
    22: 11756,
    23: 11492,
    24: 14696,
    25: 20880,
    26: 16220,
    27: 29160,
    28: 31360,
    29: 14930,
    30: 35230,
    31: 32414,
    32: 40298,
    33: 39514,
    34: 55488,
    35: 58800,
    36: 61378,
    37: 61326,
    38: 69312,
    39: 56644,
    40: 75516,
    41: 80688,
    42: 84672,
    43: 62892,
    44: 92522,
    45: 97200,
    46: 101568,
    47: 106032,
    48: 221184,
    49: 115248,
    50: 120000,
    51: 124848,
    52: 129792,
    53: 134832,
    54: 139968,
    55: 145200,
    56: 150528,
    57: 155952,
    58: 161472,
    59: 167088,
    60: 172800,
    61: 178608,
    62: 184512,
    63: 190512,
    64: 196608,
    65: 473200,
    66: 243936,
    67: 251384,
    68: 258944,
    69: 533232,
    70: 274400,
    71: 564592,
    72: 580608,
    73: 298424,
    74: 613312,
    75: 315000,
    76: 323456,
    77: 664048,
    78: 340704,
    79: 698992,
    80: 358400,
    81: 734832,
    82: 376544,
    83: 771568,
    84: 395136,
    85: 404600,
    86: 828352,
    87: 847728,
    88: 433664,
    89: 443576,
    90: 907200,
    91: 927472,
    92: 473984,
    93: 484344,
    94: 989632,
    95: 1010800,
    96: 516096,
    97: 526904,
    98: 1075648,
    99: 1097712,
    100: 1120000,
    101: 1142512,
    102: 1165248,
    103: 1188208,
    104: 1211392,
    105: 1234800,
    106: 1258432,
    107: 1282288,
    108: 1306368,
    109: 1330672,
    110: 1355200,
    111: 1379952,
    112: 1404928,
    113: 1430128,
    114: 1455552,
    115: 1481200,
    116: 1507072,
    117: 1533168,
    118: 3118976,
    119: 3172064,
    120: 1612800,
    121: 3279584,
    122: 1667008,
    123: 1694448,
    124: 1722112,
    125: 1750000,
    126: 1778112,
    127: 1806448,
    128: 1835008,
}
# END CERTIFIED_T

_BLOCK = re.compile(r"(# BEGIN CERTIFIED_T.*?\n)(.*?)(# END CERTIFIED_T)", re.DOTALL)


def _certify(n: int) -> Tuple[int, int, float]:
    """``(n, T, seconds)`` of one live certification."""
    from repro.uxs.generators import certify_plan

    t0 = time.perf_counter()
    plan = certify_plan(n, CERTIFIED_SAFETY, CERTIFIED_STREAM)
    return n, plan.T, time.perf_counter() - t0


def certify_all(ns: Sequence[int], jobs: int = 1) -> Dict[int, int]:
    """``{n: T}`` certified live, the largest ``n`` first over ``jobs``
    worker processes; prints one progress line per ``n`` to stderr."""
    order = sorted(ns, reverse=True)
    out: Dict[int, int] = {}

    def collect(results) -> None:
        for n, t, seconds in results:
            print(f"n={n:>4}  T={t:>10}  {seconds:8.2f} s", file=sys.stderr)
            out[n] = t

    if jobs > 1:
        import multiprocessing

        with multiprocessing.get_context("spawn").Pool(jobs) as pool:
            collect(pool.imap_unordered(_certify, order))
    else:
        collect(map(_certify, order))
    return dict(sorted(out.items()))


def render(table: Dict[int, int]) -> str:
    """The dict literal for the generated block."""
    rows = "".join(f"    {n}: {t},\n" for n, t in sorted(table.items()))
    return "CERTIFIED_T: Dict[int, int] = {\n" + rows + "}\n"


def check(table: Dict[int, int], jobs: int = 1) -> List[str]:
    """One message per tabled ``n`` whose live certification disagrees."""
    live = certify_all(list(table), jobs)
    return [
        f"n={n}: table says T={t}, certify_plan gives T={live[n]}"
        for n, t in table.items()
        if live[n] != t
    ]


def main(argv: Optional[List[str]] = None) -> int:
    """Regenerate this module's table, or ``--check`` it; see the module
    docstring."""
    import argparse  # only the command line needs it, not table lookups

    parser = argparse.ArgumentParser(
        prog="python -m repro.uxs.table",
        description="Regenerate or check the certified practical UXS lengths.",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="re-certify every tabled n and exit 1 on any mismatch",
    )
    parser.add_argument(
        "--max-n", type=int, default=None,
        help=f"largest n to table or check (default: {TABLE_MAX_N} when "
             "regenerating, every tabled n when checking)",
    )
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)

    if args.check:
        table = {
            n: t for n, t in CERTIFIED_T.items()
            if args.max_n is None or n <= args.max_n
        }
        mismatches = check(table, args.jobs)
        for line in mismatches:
            print(line)
        print(f"checked {len(table)} tabled n: {len(mismatches)} mismatch(es)")
        return 1 if mismatches else 0

    max_n = TABLE_MAX_N if args.max_n is None else args.max_n
    table = certify_all(range(1, max_n + 1), args.jobs)
    path = Path(__file__)
    source = path.read_text()
    path.write_text(_BLOCK.sub(lambda m: m.group(1) + render(table) + m.group(3), source))
    print(f"wrote {len(table)} certified lengths to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
