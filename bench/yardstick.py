"""A fixed pure-Python kernel that measures how fast the machine runs right now.

A virtual machine on a shared host (2 vCPUs, Intel Xeon) can change speed
by up to a third for minutes at a time under neighbouring load, which moves
every timing of a run together. Each run times `kernel` between schedule
cycles and reports its times scaled to a nominal machine on which one kernel
call takes NOMINAL_MS: a reported time is the measured time divided by
`median kernel time / NOMINAL_MS`. The kernel belongs to the benchmark and
uses no library code, and the runner times it with the cyclic garbage
collector off (after one full collection at the start of each timed loop),
so the size of the heap the library keeps does not move it either.

Neighbouring load slows kinds of work unevenly, so the kernel mixes the work
the workloads do: exact elimination over `Fraction` and over residues modulo
a prime held in small objects, building and hashing small tuples, dicts and
strings, and indented JSON output. One mixed kernel followed all three
workloads better than a kernel per workload did.
"""

from __future__ import annotations

import json
from fractions import Fraction

NOMINAL_MS = 10.0
PRIME = 10007


def _eliminate(m, inverse, reduce):
    """Gauss-Jordan elimination in place; `reduce` maps an entry to its
    canonical form (identity over Q, remainder modulo p over GF(p))."""
    n = len(m)
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        inv = inverse(m[c][c])
        m[c] = [reduce(inv * x) for x in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [reduce(a - f * b) for a, b in zip(m[r], m[c])]


class _Mod:
    """A residue modulo PRIME as a small object, as prime-field scalars are."""

    __slots__ = ("v",)

    def __init__(self, v):
        self.v = v % PRIME

    def __mul__(self, other):
        return _Mod(self.v * other.v)

    def __sub__(self, other):
        return _Mod(self.v - other.v)

    def __bool__(self):
        return self.v != 0


def kernel() -> None:
    n = 11
    rational = [
        [Fraction((i * 7 + j * 3) % 11 - 5, (i + 2 * j) % 5 + 1) for j in range(n)]
        for i in range(n)
    ]
    _eliminate(rational, lambda x: 1 / x, lambda x: x)
    modular = [[_Mod(i * 31 + j * j * 17 + 1) for j in range(20)] for i in range(20)]
    _eliminate(modular, lambda x: _Mod(pow(x.v, -1, PRIME)), lambda x: x)
    table = {}
    for i in range(2000):
        key = (i % 97, frozenset((i % 5, i % 7)))
        table.setdefault(key, []).append(f"{i} mod {PRIME}")
    json.dumps(
        {str(k[0]): sorted(v) for k, v in table.items() if k[0] < 12},
        indent=2, sort_keys=True,
    )
