"""Verdict census: every exact scheme on n+1 integer nodes in a box, through plain ``mz_check``.

For each order ``n`` and each set of ``n+1`` distinct integer nodes in
``[-B, B]``, the scheme ``construct_exact(nodes, n)`` gets its catalog
verdict.  The verdicts are counted by order, status, certificate kind and
whether the absolute moment ``sum a_i * b_i**(n-1) * |b_i|`` is 0.

The absolute moment is a check that does not come from the catalog.  The
test function ``f(h) = h**(n-1) * |h|`` is ``n-1`` times Peano
differentiable at 0, with every one of those derivatives 0, and it has no
``n``-th Peano derivative, since ``f(h) / h**n = sign(h)``.  The scheme's
quotient on it is ``sign(h)`` times the absolute moment.  When that moment
is 0 the quotient's limit exists while the Taylor expansion fails, so the
scheme is not MZ: no ``known-mz`` verdict may fall on such a scheme.

Set verdicts (``mz_set_check``) are left out.  To print the table::

    PYTHONPATH=src python tests/census.py B N

for the box ``[-B, B]`` and the orders ``1..N``; ``8 4`` gives the table of
the box ``[-8, 8]`` at orders 1 to 4.
"""

import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional

from grdcalc import STATUS_MZ, STATUS_NOT_MZ, STATUS_OPEN, Scheme, construct_exact, mz_check


def absolute_moment(scheme: Scheme, n: int) -> Fraction:
    """``sum a_i * b_i**(n-1) * |b_i|``: the scheme's quotient on ``h**(n-1) * |h|``, over sign(h)."""
    return sum((t.coeff * t.node ** (n - 1) * abs(t.node) for t in scheme), Fraction(0))


def census(bound: int, orders: Iterable[int]) -> Counter:
    """Counts of ``(order, status, certificate kind or None, absolute moment is 0)`` over the
    exact schemes on integer nodes in ``[-bound, bound]``."""
    counts: Counter = Counter()
    for n in orders:
        for nodes in combinations(range(-bound, bound + 1), n + 1):
            scheme = construct_exact(nodes, n)
            verdict = mz_check(scheme)
            kind = verdict.certificate.kind if verdict.certificate else None
            counts[n, verdict.status, kind, absolute_moment(scheme, n) == 0] += 1
    return counts


def table(counts: Counter) -> list[str]:
    """One markdown row per order: known verdicts by kind, open ones, and open ones with moment 0."""

    def kinds(n: int, status: str) -> str:
        per_kind = Counter()
        for (order, s, kind, _), count in counts.items():
            if order == n and s == status:
                per_kind[kind] += count
        return ", ".join(f"{count} {kind}" for kind, count in sorted(per_kind.items())) or "0"

    def total(n: int, status: str, vanishing: Optional[bool] = None) -> int:
        return sum(
            count for (order, s, _, zero), count in counts.items()
            if order == n and s == status and vanishing in (None, zero)
        )

    rows = [
        "| n | known-mz | known-not-mz | open | open, absolute moment 0 |",
        "| --- | --- | --- | --- | --- |",
    ]
    for n in sorted({cell[0] for cell in counts}):
        rows.append(
            f"| {n} | {kinds(n, STATUS_MZ)} | {kinds(n, STATUS_NOT_MZ)}"
            f" | {total(n, STATUS_OPEN)} | {total(n, STATUS_OPEN, True)} |"
        )
    return rows


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit("usage: PYTHONPATH=src python tests/census.py B N")
    bound, top = int(sys.argv[1]), int(sys.argv[2])
    print("\n".join(table(census(bound, range(1, top + 1)))))
