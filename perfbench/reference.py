"""Independent exact reference for checking grdcalc outputs.

Nothing here imports grdcalc.  A scheme is a dict ``{node: coeff}`` of
Fractions with no zero coefficients.  The constructions use the Lagrange
closed form ``a_i = n! / prod_{j != i} (b_i - b_j)`` (the last row of the
inverse Vandermonde matrix) instead of elimination, so an agreement with the
program's solver is a real cross-check.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from typing import Iterable, Optional

F = Fraction
Scheme = dict


def canon(pairs: Iterable[tuple[Fraction, Fraction]]) -> Scheme:
    """Merge ``(coeff, node)`` pairs into a scheme, dropping zero coefficients."""
    out: dict = {}
    for coeff, node in pairs:
        out[node] = out.get(node, F(0)) + coeff
    return {b: a for b, a in out.items() if a != 0}


def lagrange(nodes: Iterable[Fraction], n: int) -> Scheme:
    """The unique normalized order-``n`` scheme on ``n + 1`` distinct nodes."""
    nodes = [F(b) for b in nodes]
    if len(nodes) != n + 1 or len(set(nodes)) != len(nodes):
        raise ValueError("need n + 1 distinct nodes")
    fact = factorial(n)
    return {b: F(fact) / prod(b - c for c in nodes if c != b) for b in nodes}


def moment(s: Scheme, j: int) -> Fraction:
    return sum((a * b ** j for b, a in s.items()), F(0))


def order(s: Scheme) -> tuple[int, Fraction]:
    """First nonvanishing moment index and its value."""
    for j in range(len(s)):
        m = moment(s, j)
        if m != 0:
            return j, m
    raise ValueError("zero scheme has no order")


def normalize(s: Scheme) -> Scheme:
    n, m = order(s)
    factor = F(factorial(n)) / m
    return {b: a * factor for b, a in s.items()}


def dilate(s: Scheme, c: Fraction, d: Fraction) -> Scheme:
    """``c * S(d*h)``: nodes times ``d``, coefficients times ``c``."""
    return canon((c * a, d * b) for b, a in s.items())


def scale(s: Scheme, r: Fraction) -> Scheme:
    """The value-preserving scale: ``r**(-n) * S(r*h)``."""
    return dilate(s, F(1) / F(r) ** order(s)[0], F(r))


def parts(s: Scheme, n: int) -> tuple[Scheme, Scheme]:
    """Symmetric and skew parts ``(S(h) +- (-1)**n S(-h)) / 2``."""
    sign = -1 if n % 2 else 1
    nodes = set(s) | {-b for b in s}
    half = F(1, 2)
    plus = canon((half * (s.get(b, 0) + sign * s.get(-b, 0)), b) for b in nodes)
    minus = canon((half * (s.get(b, 0) - sign * s.get(-b, 0)), b) for b in nodes)
    return plus, minus


def _max_abs(s: Scheme) -> Fraction:
    return max(abs(b) for b in s)


def scale_factor(a: Scheme, b: Scheme) -> Optional[Fraction]:
    """Some ``r`` with ``scale(a, r) == b``: a scale maps the largest node
    magnitude of ``a`` onto that of ``b``, so only two signed ratios can work."""
    if len(a) != len(b):
        return None
    if _max_abs(a) == 0 or _max_abs(b) == 0:
        return F(1) if a == b else None
    ratio = _max_abs(b) / _max_abs(a)
    for r in (ratio, -ratio):
        if scale(a, r) == b:
            return r
    return None


def _skew_match(a_minus: Scheme, b_minus: Scheme) -> bool:
    if not a_minus or not b_minus:
        return not a_minus and not b_minus
    if len(a_minus) != len(b_minus):
        return False
    ratio = _max_abs(b_minus) / _max_abs(a_minus)
    for s in (ratio, -ratio):
        moved = dilate(a_minus, F(1), s)
        node = next(iter(moved))
        if node in b_minus and dilate(moved, b_minus[node] / moved[node], F(1)) == b_minus:
            return True
    return False


def equivalent(a: Scheme, b: Scheme) -> bool:
    """Equivalence of the normalized schemes: symmetric parts are scales of
    each other, and skew parts are nonzero multiples of dilations of each other."""
    a, b = normalize(a), normalize(b)
    n = order(a)[0]
    if order(b)[0] != n:
        return False
    a_plus, a_minus = parts(a, n)
    b_plus, b_minus = parts(b, n)
    return scale_factor(a_plus, b_plus) is not None and _skew_match(a_minus, b_minus)


def witness_ok(a: Scheme, b: Scheme, w: dict) -> bool:
    """Re-expand a witness ``{n, r, s, A, B}`` mapping normalized ``a`` onto ``b``."""
    a, b = normalize(a), normalize(b)
    n, r, s = w["n"], F(w["r"]), F(w["s"])
    big_a, big_b = F(w["A"]), F(w["B"])
    if r == 0 or s == 0 or n != order(a)[0] or big_a != r ** -n:
        return False
    a_plus, a_minus = parts(a, n)
    b_plus, b_minus = parts(b, n)
    if (big_b == 0) != (not a_minus):
        return False
    return dilate(a_plus, big_a, r) == b_plus and dilate(a_minus, big_b, s) == b_minus


# --- families, as node lists for the Lagrange form -------------------------


def geometric_nodes(variant: str, n: int, q: Fraction) -> list[Fraction]:
    """Nodes of the geometric (Gaussian) family members."""
    q = F(q)
    if variant == "GaussianForward":
        return [F(0)] + [q ** i for i in range(n)]
    if variant == "GaussianAffine":
        return [q ** i for i in range(n + 1)]
    if variant == "GaussianSymmetric":
        count = n // 2 if n % 2 == 0 else n // 2 + 1
        pos = [abs(q) ** i for i in range(count)]
        return pos + [-p for p in pos] + ([F(0)] if n % 2 == 0 else [])
    raise ValueError(f"unknown geometric variant {variant!r}")


def riemann(n: int) -> Scheme:
    return lagrange(range(n + 1), n)


def shift(n: int, k: int) -> Scheme:
    return lagrange(range(k, k + n + 1), n)


def mz_tilde(n: int) -> Scheme:
    return lagrange([0] + [2 ** i for i in range(n)], n)


D31 = lagrange([-1, 0, 1, 2], 3)
D2S = lagrange([-1, 0, 1], 2)


# --- JSON forms ------------------------------------------------------------


def fmt(x: Fraction) -> str:
    x = F(x)
    return f"{x.numerator}/{x.denominator}"


def to_json(s: Scheme) -> dict:
    return {"terms": [{"coeff": fmt(s[b]), "node": fmt(b)} for b in sorted(s)]}


def from_json(d: dict) -> Scheme:
    """Read a scheme; it must already be canonical (sorted nodes, no zeros)."""
    terms = [(F(t["coeff"]), F(t["node"])) for t in d["terms"]]
    nodes = [b for _, b in terms]
    if nodes != sorted(set(nodes)) or any(a == 0 for a, _ in terms):
        raise ValueError("scheme JSON is not canonical")
    return {b: a for a, b in terms}


# --- subgroup membership and oracles ----------------------------------------


def _small_factor(m: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


def _exponents(x: Fraction, primes: list[int]) -> Optional[list[int]]:
    """Exponents of ``|x|`` over ``primes``, or None if another prime divides it."""
    vec = []
    num, den = abs(x.numerator), x.denominator
    for p in primes:
        e = 0
        while num % p == 0:
            num //= p
            e += 1
        while den % p == 0:
            den //= p
            e -= 1
        vec.append(e)
    return vec if num == 1 and den == 1 else None


def in_subgroup(x: Fraction, gens: list[Fraction]) -> bool:
    """Membership of ``x`` in the multiplicative group generated by ``gens``.

    Only the generators are factored: the primes of ``x`` outside them are
    stripped by division, and the exponent vector (with the sign as a
    coordinate mod 2) is reduced against an integer echelon basis.
    """
    primes = sorted({p for g in gens for n in (g.numerator, g.denominator)
                     for p in _small_factor(abs(n))})
    target = _exponents(x, primes)
    if target is None:
        return False
    target = [1 if x < 0 else 0] + target
    rows = [[1 if g < 0 else 0] + _exponents(g, primes) for g in gens]
    rows.append([2] + [0] * len(primes))
    basis = _echelon(rows)
    for row in basis:
        col = next(i for i, v in enumerate(row) if v)
        if any(target[:col]):
            return False
        if target[col] % row[col]:
            return False
        times = target[col] // row[col]
        target = [t - times * v for t, v in zip(target, row)]
    return not any(target)


def _echelon(rows: list[list[int]]) -> list[list[int]]:
    """Integer row echelon form by Euclid steps (row operations keep the lattice)."""
    rows = [r for r in rows if any(r)]
    out = []
    width = len(rows[0]) if rows else 0
    for col in range(width):
        live = [r for r in rows if r[col]]
        rows = [r for r in rows if not r[col]]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            head = live[0]
            rest = []
            for r in live[1:]:
                q = r[col] // head[col]
                r = [u - q * v for u, v in zip(r, head)]
                if r[col]:
                    rest.append(r)
                elif any(r):
                    rows.append(r)
            live = [head] + rest
        if live:
            out.append(live[0])
    return out


def parse_oracle(text: str) -> tuple:
    """``("abs",)``, ``("sgnsq",)``, ``("mono", k)``, ``("poly", coeffs)``,
    ``("subgmono", k, gens)``."""
    head, _, tail = text.partition(":")
    if head in ("abs", "sgnsq"):
        return (head,)
    if head == "mono":
        return ("mono", int(tail.split("=")[1]))
    if head == "poly":
        return ("poly", [F(c) for c in tail.split(",")])
    fields = dict(piece.split("=") for piece in tail.split(";"))
    return ("subgmono", int(fields["k"]), [F(g) for g in fields["gens"].split(",")])


def evaluate(oracle: tuple, x: Fraction) -> Fraction:
    kind = oracle[0]
    if kind == "abs":
        return abs(x)
    if kind == "sgnsq":
        return x * abs(x)
    if kind == "mono":
        return x ** oracle[1]
    if kind == "poly":
        total, power = F(0), F(1)
        for c in oracle[1]:
            total += c * power
            power *= x
        return total
    if x != 0 and in_subgroup(x, oracle[2]):
        return x ** oracle[1]
    return F(0)


def quotient(s: Scheme, n: int, oracle: tuple, x: Fraction, h: Fraction) -> Fraction:
    return sum((a * evaluate(oracle, x + b * h) for b, a in s.items()), F(0)) / h ** n


def auto_ratios(gens: list[Fraction]) -> list[Fraction]:
    """One step ratio inside the subgroup and 1/p for the least prime outside it."""
    out = []
    for g in gens:
        if abs(g) == 1:
            continue
        if g > 1:
            out.append(1 / g)
        elif 0 < g < 1:
            out.append(g)
        else:
            out.append(1 / (g * g) if g * g > 1 else g * g)
        break
    used = {p for g in gens for n in (g.numerator, g.denominator)
            for p in _small_factor(abs(n))}
    p = 2
    while p in used or _small_factor(p) != {p: 1}:
        p += 1
    out.append(F(1, p))
    return out


def close(u: Fraction, v: Fraction, tol: Fraction) -> bool:
    return abs(u - v) <= tol * max(F(1), abs(u), abs(v))
