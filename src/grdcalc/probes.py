"""Numeric limit probes on exactly evaluable test functions.

The probe machinery samples difference quotients ``S(h)/h**n`` along
geometric step sequences ``h_j = sign * h0 * rho**j`` and classifies the
tails: one shared limit (converges), settled subsequences with separated
limits (diverges), or neither (inconclusive).  Every sample is an exact
rational because the test functions here are exactly evaluable on
rationals; the verdicts are still evidence, not proof, and the reports say
so.  The subgroup-supported monomials need exact membership in a finitely
generated multiplicative subgroup of the nonzero rationals; one function,
``_in_group``, decides it.  No prime is needed: gcd factor refinement (Bach,
Driscoll and Shallit, J. Algorithms 15, 1993) splits the generators into a
pairwise coprime base, whose elements are divided out of the point's
numerator and denominator.  The point is over the base exactly when the two
leave equal cofactors, so the pair need not be reduced, and its exponent
vector over the base is then decided by forward substitution in the
generators' lattice, reduced to echelon form once per generator tuple.

Every per-sample step runs on integers.  A sequence is walked by one
multiplication per step, ``h *= rho``, from ``sign * h0 * rho**j_min``, and
built with its steps' texts once per ``(sign * h0, rho, j_min, j_max)``, for
every probe with that configuration and every stage of a Peano probe; its
steps' in-group flags once per generator lattice.  One kernel call per
sequence gives its quotients as reduced integer pairs ``(p, q)``, ``q > 0``,
which the tail test reads and JSON prints as they are; the ``(h, p/q)``
Fractions are built only if ``samples`` is read.  For ``mono`` and ``poly``,
``f(x+t) = sum c_j t**j`` gives ``S(h)/h**n = sum_j c_j*m_j * h**(j-n)``
over the moments ``m_j`` (Ash, Trans. AMS 126, 1967), one integer Horner
per sample.  The other oracles are summed over the nodes, with the
coefficients and nodes scaled to integers ``A_i`` and ``B_i`` over their
lcm denominators ``DA`` and ``DB``: for ``h = H/DH`` and ``x = xn/xd``
each ``x + b_i*h`` is ``u_i/D`` with ``D = xd*DB*DH`` and
``u_i = xn*DB*DH + xd*B_i*H``, the oracle of homogeneous degree ``e`` is
``F_i/D**e`` (``F_i`` is ``|u_i|``, ``u_i*|u_i|``, or ``u_i**k`` on the
subgroup and 0 off it), and the quotient is
``sum A_i*F_i * DH**n / (DA*D**e * H**n)``, reduced by one gcd.  The
subgroup kernel strips the shared ``D`` over the base once per sample and
asks ``_in_group`` about ``u_i/D`` only when the cofactor ``D`` leaves
divides ``u_i``: ``u_i/D`` is over the base only when ``|u_i|`` leaves that
same cofactor; a zero node's term, ``x`` at every step, is decided once
per kernel; at ``x = 0`` membership is decided once per node and once per
step instead (``_quotient_kernel``).  The tail test compares ``a/b`` and
``c/d`` under the tolerance ``s/t`` as ``t*|a*d - c*b| <= s*max(b*d, |a|*d,
|c|*b)``, and skips equal pairs: a pair is close to itself.

Limits keep a probe's work bounded: the Peano depth is at most
``MAX_PEANO_DEPTH``, the last exponent ``j_max`` at most ``MAX_J``, and
``depth * max(j_max, degree)**2 * max(degree, 1)`` (depth 1 for a single
probe; the degree, a monomial's exponent or a polynomial's highest power,
has no cap of its own) times the most decimal digits of a numerator or
denominator of ``x``, ``h0`` and each ratio it runs (``x`` and ``h`` for
``eval_quotient``) at most ``MAX_PROBE_SIZE``; larger inputs are refused with
``OrderBudgetExceeded``, or ``ProbeBoundExceeded``, before any sample.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, gcd
from typing import Callable, Optional, Sequence

from .families import mz_tilde, named_scheme
from .scheme import (
    CalculusError,
    OrderBudgetExceeded,
    Rationalish,
    Scheme,
    _Record,
    _check_budget,
    _digits,
    _echo,
    _format_pair,
    _int_field,
    _is_int,
    _items,
    _over_common_denominator,
    _shown,
    _width,
    format_rational,
    moment,
    order_info,
    parse_rational,
)

ORACLE_ABS = "abs"
ORACLE_SGNSQ = "sgnsq"
ORACLE_MONOMIAL = "mono"
ORACLE_POLYNOMIAL = "poly"
ORACLE_SUBGROUP_MONOMIAL = "subgmono"


class ZeroInput(CalculusError):
    """Subgroup membership is defined on nonzero rationals."""


class ZeroStep(CalculusError):
    """Difference quotients need a nonzero step."""


ProbeBoundExceeded = OrderBudgetExceeded  # a public name of the same class, for probe callers

# Limits on the integer inputs that set a probe's work (README.md gives
# timings).  The depth and j_max caps are small multiples of what the
# workloads and golden cases use: depth 4 and j_max 40.  A stage takes about
# j_max samples per sequence, each of about j_max * degree digits, and the
# moment kernel's setup grows as degree**3, so ``depth * max(j_max,
# degree)**2 * max(degree, 1)`` tracks a probe's time and output (25,600 in
# the workloads and golden cases) and bounds the degree too.  That counts one
# digit per number given; the point at step j has about ``(j + 2) * w``
# digits for ``w`` the most digits of ``x``, ``h0`` and the ratio, so the
# product times ``w`` (at least 1) is what is bounded.
MAX_PEANO_DEPTH = 16
MAX_J = 256
MAX_PROBE_SIZE = 2 ** 22


# Echelon steps of an integer column lattice: for each row, the pivot column
# reduced onto it, or None where no column reaches the row.
Echelon = tuple[tuple[int, Optional[tuple[int, ...]]], ...]


def _lattice_member(steps: Echelon, target: list[int]) -> bool:
    """Whether ``target`` lies in the lattice with the echelon ``steps``.

    Forward substitution: a row with no pivot column needs a zero entry,
    and a row with one needs an entry divisible by the pivot, whose
    multiple of the pivot column is subtracted.  Later pivot columns are
    zero on earlier rows, so a target that passes every row is used up.
    """
    vec = target
    for row, pivot in steps:
        entry = vec[row]
        if pivot is None:
            if entry:
                return False
        elif entry:
            if entry % pivot[row]:
                return False
            times = entry // pivot[row]
            vec = [v - times * u for v, u in zip(vec, pivot)]
    return True


# A coprime base and the echelon steps of the sign/exponent lattice over it.
Lattice = tuple[tuple[int, ...], Echelon]


def _coprime_base(values: Sequence[int]) -> tuple[int, ...]:
    """Pairwise coprime integers > 1 whose powers multiply to each of ``values``.

    A value sharing ``g = gcd(a, b) > 1`` with a base element ``b`` splits
    into ``a/g``, ``b/g`` and ``g``; each split shrinks the product held.
    """
    base: list[int] = []
    pending = [v for v in values if v > 1]
    while pending:
        a = pending.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                pending.extend(v for v in (a // g, b // g, g) if v > 1)
                break
        else:
            base.append(a)
    return tuple(sorted(base))


def _strip(value: int, base: Sequence[int]) -> tuple[list[int], int]:
    """The exponents of the base elements in ``value > 0`` and the cofactor left."""
    exponents = []
    for b in base:
        exp = 0
        while value % b == 0:
            value //= b
            exp += 1
        exponents.append(exp)
    return exponents, value


def _over_base(
    num: int, den_strip: tuple[list[int], int], base: Sequence[int]
) -> Optional[list[int]]:
    """Sign bit and exponents of ``num/den != 0`` over a coprime base, where
    ``den_strip = _strip(den, base)`` for ``den > 0`` and the pair need not
    be reduced; None if ``num/den`` is not over the base.

    ``num/den`` is over the base exactly when ``|num|`` and ``den`` leave
    equal cofactors: the base elements are pairwise coprime, so one that
    divided the ratio of the cofactors would divide a cofactor itself.
    """
    top, rest = _strip(abs(num), base)
    bottom, left = den_strip
    if rest != left:
        return None
    return [1 if num < 0 else 0] + [t - b for t, b in zip(top, bottom)]


@lru_cache(maxsize=256)
def _generator_lattice(generators: tuple[Fraction, ...]) -> Lattice:
    """A coprime base of the generators and the echelon steps of their lattice.

    The base refines the generators' numerators and denominators, so no
    prime is ever needed.  The columns are the generators' sign/exponent
    vectors plus the doubled sign coordinate (sign flips only matter mod 2).
    Row by row, gcd column operations, which preserve the lattice, reduce
    the columns not yet used to one pivot column (Hermite-style; Cohen, *A
    Course in Computational Algebraic Number Theory*, section 2.4); any Bezout
    pair, here from ``pow``, gives a unimodular step.  None of this depends
    on a target, so it runs once per generator tuple.
    """
    base = _coprime_base([v for g in generators for v in (abs(g.numerator), g.denominator)])
    cols = [_over_base(g.numerator, _strip(g.denominator, base), base) for g in generators]
    cols.append([2] + [0] * len(base))
    steps = []
    used = 0
    for row in range(len(base) + 1):
        pivot = None
        for j in range(used, len(cols)):
            if cols[j][row] != 0:
                if pivot is None:
                    pivot = j
                else:
                    a, b = cols[pivot][row], cols[j][row]
                    g = gcd(a, b)
                    x = pow(a // g, -1, abs(b // g))  # 0 when b // g is +-1
                    y = (g - a * x) // b
                    combo = [x * u + y * v for u, v in zip(cols[pivot], cols[j])]
                    kernel = [
                        -(b // g) * u + (a // g) * v
                        for u, v in zip(cols[pivot], cols[j])
                    ]
                    cols[pivot], cols[j] = combo, kernel
        if pivot is None:
            steps.append((row, None))
            continue
        steps.append((row, tuple(cols[pivot])))
        cols[used], cols[pivot] = cols[pivot], cols[used]
        used += 1
    return base, tuple(steps)


def _in_group(num: int, den_strip: tuple[list[int], int], lattice: Lattice) -> bool:
    """Whether ``num/den != 0`` is in the lattice's group; ``den_strip = _strip(den, base)``."""
    base, steps = lattice
    target = _over_base(num, den_strip, base)
    return target is not None and _lattice_member(steps, target)


# ``_in_group`` is the one membership test.  This is its entry for callers with
# a plain denominator: ``_sequence`` (once per step, sequence and lattice),
# ``FunctionOracle.evaluate`` and ``subgroup_membership``.  The quotient
# kernel calls ``_in_group`` itself, with a denominator it strips once per
# sample, or at x = 0 once per node and per step given no flag.  Nothing is
# cached; the zero-size lru_cache stays only so that perfbench can count the
# calls as ``cache_info()`` misses.
@lru_cache(maxsize=0)
def _membership(num: int, den: int, lattice: Lattice) -> bool:
    return _in_group(num, _strip(den, lattice[0]), lattice)


def subgroup_membership(x: Rationalish, generators: Sequence[Rationalish]) -> bool:
    """Exact membership of ``x`` in the multiplicative group the generators span.

    No number is factored into primes.  The generators' numerators and
    denominators are refined by gcds into a pairwise coprime base; the base
    elements are divided out of ``x``, and anything left over means ``x`` is
    not a member.  Otherwise membership is an integer lattice question on
    the exponents over the base, with the sign over Z/2 encoded as an extra
    doubled coordinate.
    """
    x = parse_rational(x)
    gens = tuple(parse_rational(g) for g in _items(generators, "generators"))
    if x == 0 or any(g == 0 for g in gens):
        raise ZeroInput("subgroup membership is defined on nonzero rationals")
    return _membership(x.numerator, x.denominator, _generator_lattice(gens))


def _check_size(
    oracle: FunctionOracle, depth: int, j_max: int, numbers: Sequence[Fraction]
) -> None:
    """Refuse a probe over the size bound: ``depth`` stages up to ``j_max``, where
    ``numbers`` are the point, the first step and each ratio that the probe reads."""
    degree = max(oracle.degree, len(oracle.coeffs) - 1)  # k, or a polynomial's top power
    size = depth * max(j_max, degree) ** 2 * max(degree, 1)
    product = "depth * max(j_max, degree)**2 * max(degree, 1) * digits"
    _check_budget(f"the probe size {product}", size * _width(numbers), MAX_PROBE_SIZE)


# kind -> the fields besides ``kind`` that it takes; every other field keeps its default
_ORACLE_FIELDS = {
    ORACLE_ABS: (),
    ORACLE_SGNSQ: (),
    ORACLE_MONOMIAL: ("degree",),
    ORACLE_POLYNOMIAL: ("coeffs",),
    ORACLE_SUBGROUP_MONOMIAL: ("degree", "generators"),
}


class FunctionOracle(_Record):
    """An exactly evaluable test function.

    Kinds: ``abs`` (|x|), ``sgnsq`` (x*|x|), ``mono`` (x**degree), ``poly``
    (rational coefficients, ascending powers), and ``subgmono`` (x**degree
    on a multiplicative subgroup, zero off it).
    """

    kind: str
    degree: int = 0
    coeffs: tuple[Fraction, ...] = ()
    generators: tuple[Fraction, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.kind, str) or self.kind not in _ORACLE_FIELDS:
            raise CalculusError(f"unknown oracle kind {_echo(_shown(self.kind))}")
        fields = ("degree", "coeffs", "generators")
        ignored = [f for f in fields if f not in _ORACLE_FIELDS[self.kind] and getattr(self, f)]
        if ignored:
            raise CalculusError(f"oracle kind {self.kind!r} takes no {' or '.join(ignored)}")
        for field in ("coeffs", "generators"):
            values = _items(getattr(self, field), field)
            object.__setattr__(self, field, tuple(parse_rational(v) for v in values))
        if not _is_int(self.degree):
            raise CalculusError("monomial degree must be an integer")
        if self.degree < 0:
            raise CalculusError("monomial degree must be >= 0")
        if self.kind == ORACLE_SUBGROUP_MONOMIAL:
            if not self.generators:
                raise CalculusError("subgroup monomials need generators")
            if any(g == 0 for g in self.generators):
                raise ZeroInput("subgroup generators must be nonzero")

    def evaluate(self, x: Rationalish) -> Fraction:
        x = parse_rational(x)
        if self.kind == ORACLE_ABS:
            return abs(x)
        if self.kind == ORACLE_SGNSQ:
            return x * abs(x)
        if self.kind == ORACLE_MONOMIAL:
            return x ** self.degree
        if self.kind == ORACLE_POLYNOMIAL:
            return sum(
                (c * x ** i for i, c in enumerate(self.coeffs)), Fraction(0)
            )
        on_group = x != 0 and _membership(
            x.numerator, x.denominator, _generator_lattice(self.generators)
        )
        return x ** self.degree if on_group else Fraction(0)


def abs_oracle() -> FunctionOracle:
    return FunctionOracle(ORACLE_ABS)


def sgnsq_oracle() -> FunctionOracle:
    return FunctionOracle(ORACLE_SGNSQ)


def monomial_oracle(degree: int) -> FunctionOracle:
    return FunctionOracle(ORACLE_MONOMIAL, degree=degree)


def polynomial_oracle(coeffs: Sequence[Rationalish]) -> FunctionOracle:
    return FunctionOracle(ORACLE_POLYNOMIAL, coeffs=coeffs)


def subgroup_monomial_oracle(
    degree: int, generators: Sequence[Rationalish]
) -> FunctionOracle:
    return FunctionOracle(ORACLE_SUBGROUP_MONOMIAL, degree=degree, generators=generators)


def parse_oracle(text: str) -> FunctionOracle:
    """Parse oracle strings: ``abs``, ``sgnsq``, ``mono:k=3``, ``poly:1,0,-2``,
    ``subgmono:k=2;gens=2,3``."""
    head, _, tail = text.strip().partition(":")
    if head in (ORACLE_ABS, ORACLE_SGNSQ):
        if tail:
            raise CalculusError(f"oracle {head!r} takes no fields, got {_echo(repr(tail))}")
        return abs_oracle() if head == ORACLE_ABS else sgnsq_oracle()
    if head == ORACLE_MONOMIAL:
        key, eq, value = tail.partition("=")
        if key.strip() != "k" or not eq:
            raise CalculusError("monomial oracles look like mono:k=<degree>")
        return monomial_oracle(_int_field(value, "monomial degree must be an integer"))
    if head == ORACLE_POLYNOMIAL:
        if not tail:
            raise CalculusError("polynomial oracles look like poly:c0,c1,...")
        return polynomial_oracle([parse_rational(c) for c in tail.split(",")])
    if head == ORACLE_SUBGROUP_MONOMIAL:
        degree: Optional[int] = None
        gens: Optional[list[Fraction]] = None
        for piece in tail.split(";"):
            key, eq, value = piece.partition("=")
            if key.strip() == "k" and eq and degree is None:
                degree = _int_field(value, "subgroup degree must be an integer")
            elif key.strip() == "gens" and eq and gens is None:
                gens = [parse_rational(g) for g in value.split(",")]
            else:
                raise CalculusError(f"bad subgroup oracle field {_echo(repr(piece))}")
        if degree is None or gens is None:
            raise CalculusError("subgroup oracles look like subgmono:k=2;gens=2,3")
        return subgroup_monomial_oracle(degree, gens)
    raise CalculusError(f"unknown oracle {_echo(repr(text))}")


def format_oracle(oracle: FunctionOracle) -> str:
    if oracle.kind == ORACLE_MONOMIAL:
        return f"mono:k={_digits(oracle.degree)}"
    if oracle.kind == ORACLE_POLYNOMIAL:
        return "poly:" + ",".join(format_rational(c) for c in oracle.coeffs)
    if oracle.kind == ORACLE_SUBGROUP_MONOMIAL:
        gens = ",".join(format_rational(g) for g in oracle.generators)
        return f"subgmono:k={_digits(oracle.degree)};gens={gens}"
    return oracle.kind


def eval_quotient(
    scheme: Scheme, oracle: FunctionOracle, x: Rationalish, h: Rationalish
) -> Fraction:
    """The exact ``S(h,x;f) / h**n`` at the detected order, sized as a probe of one step."""
    x, h = parse_rational(x), parse_rational(h)
    if h == 0:
        raise ZeroStep("the step h must be nonzero")
    _check_size(oracle, 1, 1, (x, h))
    return Fraction(*_quotient_kernel(scheme, order_info(scheme).order, oracle, x)([h])[0])


# A quotient kernel maps a sequence of nonzero steps to the reduced pairs ``(p, q)``,
# ``q > 0``, of their quotients ``p/q``, in one call; a subgroup kernel at x = 0
# also reads the steps' in-group flags if given, and decides them if not.
Kernel = Callable[..., list[tuple[int, int]]]


def _moment_terms(
    scheme: Scheme, n: int, oracle: FunctionOracle, x: Fraction
) -> tuple[list[int], int, int, int]:
    """``S(h,x;f)/h**n = sum_j c_j*m_j * h**(j-n)`` for ``mono`` and ``poly``, where
    ``f(x+t) = sum c_j t**j``: for the nonzero ``c_j*m_j = D_j/DD`` (``lo <= j <= hi``) and
    ``h = H/DH``, ``P = sum D_j H**(j-lo) DH**(hi-j)`` gives ``P*H**(lo-n)*DH**(n-hi)/DD``;
    returns the ``D_j``, ``DD``, ``lo - n`` and ``n - hi``."""
    p = oracle.coeffs if oracle.kind == ORACLE_POLYNOMIAL else (0,) * oracle.degree + (1,)
    c = [sum(comb(i, j) * p[i] * x ** (i - j) for i in range(j, len(p))) for j in range(len(p))]
    d = [c_j * moment(scheme, j) for j, c_j in enumerate(c)]
    nonzero = [j for j, d_j in enumerate(d) if d_j] or [n]  # all zero: P = 0
    lo, hi = nonzero[0], nonzero[-1]
    top, dd = _over_common_denominator(d[lo:hi + 1])
    return top, dd, lo - n, n - hi


def _quotient_kernel(scheme: Scheme, n: int, oracle: FunctionOracle, x: Fraction) -> Kernel:
    """The ``Kernel`` of ``S(h,x;f) / h**n``, in integer arithmetic: for ``h = H/DH`` each
    quotient is ``P * H**a * DH**b / DD``, with ``P`` the moments' Horner sum for ``mono``
    and ``poly`` and ``sum A_i*F_i`` over the nodes for the others (``a = -n``, ``b = n - e``
    and ``DD = DA*(xd*DB)**e``, since the oracle of degree ``e`` at ``u_i/D`` is ``F_i/D**e``).

    A subgroup kernel at x = 0 decides each node's membership once: the point
    ``u_i/D`` is ``(B_i/DB)*h`` and G is a group, so at a step in G it is in G
    exactly when the node is, and ``P = K * H**k`` for ``K = sum A_i*B_i**k`` over
    the nodes in G; at a step outside G only the nodes outside G are tested.
    """
    kind, k = oracle.kind, oracle.degree
    moments = kind in (ORACLE_MONOMIAL, ORACLE_POLYNOMIAL)
    xn, xd = x.numerator, x.denominator
    if moments:
        top, dd, a, b = _moment_terms(scheme, n, oracle, x)
    else:
        coeffs, da, nodes, db = scheme._ints
        terms = list(zip(coeffs, nodes))
        e = {ORACLE_ABS: 1, ORACLE_SGNSQ: 2}.get(kind, k)
        dd, a, b = da * (xd * db) ** e, -n, n - e
        if kind == ORACLE_SUBGROUP_MONOMIAL:
            lattice = _generator_lattice(oracle.generators)
            gens = lattice[0]
            on_group = xn != 0 and _in_group(xn, _strip(xd, gens), lattice)  # node 0: u/D = x
            zero = on_group * sum(c for c, b_i in terms if not b_i)
            terms = [(c, b_i) for c, b_i in terms if b_i]
            if not xn:  # u_i/D = (B_i/DB)*h
                node_strip = _strip(db, gens)
                inside = [_in_group(b_i, node_strip, lattice) for _, b_i in terms]
                in_sum = sum(c * b_i ** k for (c, b_i), flag in zip(terms, inside) if flag)
                terms = [t for t, flag in zip(terms, inside) if not flag]
    up_n, up_d, down_n, down_d = max(a, 0), max(b, 0), max(-a, 0), max(-b, 0)

    def quotients(
        steps: Sequence[Fraction], flags: Optional[Sequence[bool]] = None
    ) -> list[tuple[int, int]]:
        pairs = []
        for h, flag in zip(steps, flags or [None] * len(steps)):
            hn, hd = h.numerator, h.denominator
            total = 0
            if moments:
                power = 1
                for d_j in reversed(top):
                    total = total * hn + d_j * power
                    power *= hd
            else:
                base, step = xn * db * hd, xd * hn  # u_i = base + B_i*step
                if kind == ORACLE_ABS:
                    for c, b_i in terms:
                        total += c * abs(base + b_i * step)
                elif kind == ORACLE_SGNSQ:
                    for c, b_i in terms:
                        u = base + b_i * step
                        total += c * u * abs(u)
                elif not xn and (flag or flag is None and _in_group(hn, _strip(hd, gens), lattice)):
                    total = in_sum * hn ** k  # u_i = B_i*H
                else:  # at x = 0, ``terms`` holds only the nodes outside G
                    total = zero * base ** k if zero else 0
                    if terms:
                        shared = _strip(xd * db * hd, gens)  # the shared denominator D
                        left = shared[1]  # over the base, |u| leaves it too: it divides u
                        for c, b_i in terms:
                            u = base + b_i * step
                            if u and not u % left and _in_group(u, shared, lattice):
                                total += c * u ** k
            num, den = total * hn ** up_n * hd ** up_d, dd * hn ** down_n * hd ** down_d
            g = gcd(num, den) if den > 0 else -gcd(num, den)
            pairs.append((num // g, den // g))
        return pairs

    return quotients


class ProbeConfig(_Record):
    """Step-sequence layout and tolerance for limit probes."""

    h0: Fraction = Fraction(1)
    ratios: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    j_min: int = 4
    j_max: int = 40
    tol: Fraction = Fraction(1, 10 ** 9)

    def __post_init__(self) -> None:
        object.__setattr__(self, "h0", parse_rational(self.h0))
        object.__setattr__(
            self, "ratios", tuple(parse_rational(r) for r in _items(self.ratios, "ratios"))
        )
        object.__setattr__(self, "tol", parse_rational(self.tol))
        if self.h0 == 0:
            raise ZeroStep("h0 must be nonzero")
        if not self.ratios or any(not 0 < abs(r) < 1 for r in self.ratios):
            raise CalculusError("ratios must satisfy 0 < |rho| < 1")
        if not (_is_int(self.j_min) and _is_int(self.j_max) and 0 <= self.j_min < self.j_max):
            raise CalculusError("need 0 <= j_min < j_max")
        _check_budget("j_max", self.j_max, MAX_J)
        if self.tol <= 0:
            raise CalculusError("tolerance must be positive")

    def to_json_dict(self) -> dict:
        return {
            "h0": format_rational(self.h0),
            "ratios": [format_rational(r) for r in self.ratios],
            "j_min": self.j_min,
            "j_max": self.j_max,
            "tol": format_rational(self.tol),
        }


class ProbeSequence(_Record, hidden=("step_texts",)):
    """Samples along one geometric step sequence and its settled tail value.

    ``values`` holds each step's quotient as its reduced pair ``(p, q)``,
    ``q > 0``; ``samples``, the ``(h, p/q)`` Fraction pairs, is built on first read.
    """

    ratio: Fraction
    sign: int
    steps: tuple[Fraction, ...]
    values: tuple[tuple[int, int], ...]
    settled: bool
    candidate: Optional[Fraction]
    in_group: Optional[bool] = None
    step_texts: tuple[str, ...] = ()

    @cached_property
    def samples(self) -> tuple[tuple[Fraction, Fraction], ...]:
        return tuple((h, Fraction(p, q)) for h, (p, q) in zip(self.steps, self.values))

    def to_json_dict(self) -> dict:
        texts = self.step_texts or [format_rational(h) for h in self.steps]
        return {
            "ratio": format_rational(self.ratio),
            "sign": self.sign,
            "settled": self.settled,
            "candidate": format_rational(self.candidate) if self.settled else None,
            "in_group": self.in_group,
            "samples": [
                {"h": text, "value": _format_pair(p, q)} for text, (p, q) in zip(texts, self.values)
            ],
        }


VERDICT_CONVERGES = "converges"
VERDICT_DIVERGES = "diverges"
VERDICT_INCONCLUSIVE = "inconclusive"

_TAIL_LENGTH = 5


class ProbeReport(_Record):
    """Probe verdict with full samples; numeric evidence, not proof."""

    verdict: str
    estimate: Optional[Fraction]
    sequences: tuple[ProbeSequence, ...]
    evidence: tuple[ProbeSequence, ...]
    config: ProbeConfig
    numeric_evidence: bool = True

    def to_json_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "estimate": format_rational(self.estimate) if self.estimate is not None else None,
            "numeric_evidence": self.numeric_evidence,
            "config": self.config.to_json_dict(),
            "evidence": [s.to_json_dict() for s in self.evidence],
            "sequences": [s.to_json_dict() for s in self.sequences],
        }


def _close(u: tuple[int, int], v: tuple[int, int], tol: Fraction) -> bool:
    """``|u - v| <= tol * max(1, |u|, |v|)`` for ``tol > 0`` and the pairs ``u = (a, b)``
    and ``v = (c, d)`` of ``a/b`` and ``c/d`` (``b``, ``d > 0``), on integers.

    With ``tol = s/t`` (``t > 0``) both sides are multiplied by ``b*d*t``.
    """
    (a, b), (c, d) = u, v
    bound = max(b * d, abs(a) * d, abs(c) * b)
    return tol.denominator * abs(a * d - c * b) <= tol.numerator * bound


def _ratios(oracle: FunctionOracle, cfg: ProbeConfig) -> tuple[Fraction, ...]:
    """The step ratios a probe runs: the configured ones, then, for a subgroup
    oracle, one ratio inside its subgroup and one outside it, each unless
    configured already.

    The in-group ratio comes from the first generator of magnitude != 1
    (it or its square when the sign blocks it, inverted if above 1); the
    out-group ratio is 1/p for the least p > 1 coprime to the generators'
    base, which is prime because its least prime factor is coprime too.
    """
    if oracle.kind != ORACLE_SUBGROUP_MONOMIAL:
        return cfg.ratios
    extra: list[Fraction] = []
    g = next((g for g in oracle.generators if abs(g) != 1), None)
    if g is not None:
        power = g if g > 0 else g * g
        extra.append(power if power < 1 else 1 / power)
    base = _generator_lattice(oracle.generators)[0]
    p = 2
    while any(gcd(p, b) > 1 for b in base):
        p += 1
    extra.append(Fraction(1, p))
    return cfg.ratios + tuple(r for r in extra if r not in cfg.ratios)


@lru_cache(maxsize=64)
def _sequence(
    h0: Fraction, ratio: Fraction, j_min: int, j_max: int, lattice: Optional[Lattice]
) -> tuple[tuple[Fraction, ...], tuple[str, ...], Optional[tuple[bool, ...]]]:
    """The steps ``h0 * ratio**j`` for ``j_min <= j <= j_max``, their texts, and
    whether each step is in the group of ``lattice`` (None without one), which
    the quotient kernel reads at x = 0 and the probe's ``in_group`` summarizes.

    Each step is one multiplication (Fractions are canonical, so each equals
    ``h0 * ratio**j`` computed afresh).  An entry with a lattice holds the
    steps and texts of the entry without one, not copies.
    """
    if lattice is not None:
        steps, texts, _ = _sequence(h0, ratio, j_min, j_max, None)
        return steps, texts, tuple(_membership(h.numerator, h.denominator, lattice) for h in steps)
    steps = []
    h = h0 * ratio ** j_min
    for _ in range(j_min, j_max + 1):
        steps.append(h)
        h *= ratio
    return tuple(steps), tuple(format_rational(h) for h in steps), None


def limit_probe(
    scheme: Scheme,
    oracle: FunctionOracle,
    x: Rationalish = 0,
    config: Optional[ProbeConfig] = None,
) -> ProbeReport:
    """Sample ``S(h,x;f)/h**n`` along geometric sequences and classify the tails.

    Each configured ratio is run with both signs of ``h0``.  For subgroup
    oracles one in-group and one out-of-group ratio are added
    automatically.  A sequence is settled when its last five samples agree
    within the relative tolerance; the probe converges when every settled
    candidate agrees, and diverges when two settled candidates sit further
    than ten tolerances apart.
    """
    cfg = config or ProbeConfig()
    x = parse_rational(x)
    ratios = _ratios(oracle, cfg)
    _check_size(oracle, 1, cfg.j_max, (x, cfg.h0, *ratios))
    lattice = None
    if oracle.kind == ORACLE_SUBGROUP_MONOMIAL:
        lattice = _generator_lattice(oracle.generators)
    effective = ProbeConfig(cfg.h0, ratios, cfg.j_min, cfg.j_max, cfg.tol)
    quotients = _quotient_kernel(scheme, order_info(scheme).order, oracle, x)
    sequences = []
    for ratio in ratios:
        for sign in (1, -1):
            steps, texts, flags = _sequence(sign * cfg.h0, ratio, cfg.j_min, cfg.j_max, lattice)
            values = tuple(quotients(steps, flags))
            in_group = flags[0] if flags and len(set(flags)) == 1 else None  # all, none or some
            tail = values[-_TAIL_LENGTH:]
            settled = len(tail) >= _TAIL_LENGTH and (len(set(tail)) == 1 or all(
                _close(u, v, cfg.tol) for u, v in combinations(tail, 2)
            ))
            candidate = Fraction(*tail[-1]) if settled else None
            sequences.append(
                ProbeSequence(ratio, sign, steps, values, settled, candidate, in_group, texts)
            )
    settled_seqs = [s for s in sequences if s.settled]
    verdict, estimate, evidence = VERDICT_INCONCLUSIVE, None, ()
    one_limit = len({s.values[-1] for s in settled_seqs}) <= 1  # no pair to tell apart
    pairs, wide = combinations(settled_seqs, 2), 10 * cfg.tol
    separated = None if one_limit else next(
        ((u, v) for u, v in pairs if not _close(u.values[-1], v.values[-1], wide)), None
    )
    if separated is not None:
        verdict, evidence = VERDICT_DIVERGES, separated
    elif len(settled_seqs) == len(sequences):
        candidates = [s.values[-1] for s in settled_seqs]
        if one_limit or all(_close(u, v, cfg.tol) for u, v in combinations(candidates, 2)):
            verdict = VERDICT_CONVERGES
            estimate = settled_seqs[0].candidate
    return ProbeReport(verdict, estimate, tuple(sequences), evidence, effective)


def peano_probe(
    oracle: FunctionOracle,
    x: Rationalish,
    n: int,
    config: Optional[ProbeConfig] = None,
) -> list[tuple[int, ProbeReport]]:
    """Probe the doubling-node witness quotients for orders 1..n in turn.

    Settled estimates are numeric candidates for the Taylor coefficients;
    the staging stops at the first order whose probe fails to converge.
    """
    if not _is_int(n) or n < 1:
        raise CalculusError("the probe depth n must be a positive integer")
    _check_budget("the probe depth n", n, MAX_PEANO_DEPTH)
    cfg, x = config or ProbeConfig(), parse_rational(x)
    _check_size(oracle, n, cfg.j_max, (x, cfg.h0, *_ratios(oracle, cfg)))
    stages = []
    for order in range(1, n + 1):
        report = limit_probe(named_scheme(mz_tilde(order)), oracle, x, cfg)
        stages.append((order, report))
        if report.verdict != VERDICT_CONVERGES:
            break
    return stages
