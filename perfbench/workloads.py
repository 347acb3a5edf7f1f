"""Seeded command generators for the three workloads.

Each workload is a fixed cycle of command templates ("slots").  Inside a
slot, every choice that drives the cost of a command (order, family,
presentation, oracle, base point) is dealt from a shuffled deck per choice,
so each run holds every option in equal shares and runs with different
seeds do comparable work; only the pairing of choices and the free details
(random nodes, scale factors) vary with the seed.  Inputs are built with the
exact reference arithmetic in ``reference.py``; nothing here imports
grdcalc.  Every command is valid input, so a nonzero exit is a failure of
the program, never of the generator.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable, Iterator, Sequence

from reference import (
    D2S,
    D31,
    F,
    canon,
    dilate,
    fmt,
    geometric_nodes,
    lagrange,
    mz_tilde,
    order,
    parts,
    riemann,
    scale,
    shift,
    to_json,
)


@dataclass(frozen=True)
class Command:
    """One CLI invocation (without the ``--output json`` prefix) and what the
    checker needs to judge its output."""

    argv: list
    expect: dict


class Draw:
    """Seeded parameter source: ``pick`` deals from a shuffled deck per key
    (balanced shares), ``rng`` draws free details."""

    def __init__(self, seed_text: str) -> None:
        self.rng = random.Random(seed_text)
        self._decks: dict[str, list] = {}

    def pick(self, key: str, options: Sequence):
        deck = self._decks.get(key)
        if not deck:
            deck = self._decks[key] = self.rng.sample(list(options), len(options))
        return deck.pop()


WORKLOADS = ("catalog", "construct-hi", "probe")

Q_CHOICES = (F(2), F(3), F(3, 2), F(-2), F(1, 2), F(-3, 2), F(5, 2), F(2, 3))
FACTORS = (F(2), F(-1), F(1, 2), F(3), F(-3, 2), F(2, 3), F(5, 4), F(-2))
SKEW_FACTORS = (F(1, 2), F(2), F(-1), F(3), F(-1, 3), F(5, 2))
CATALOG_ORDERS = range(1, 7)
GEOMETRIC = {"GaussianForward": "gauss-fwd", "GaussianAffine": "gauss-aff",
             "GaussianSymmetric": "gauss-sym"}

_SMALL_NODES = sorted({F(a, d) for a in range(-6, 7) for d in (1, 2)})
_WIDE_NODES = sorted({F(a, d) for a in range(-40, 41) for d in (1, 2, 3, 5, 7)})


def _arg(s: dict) -> str:
    return json.dumps(to_json(s), separators=(",", ":"))


def _q_text(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else fmt(q)


def random_scheme(d: Draw, n: int) -> dict:
    return lagrange(d.rng.sample(_SMALL_NODES, n + 1), n)


def class_member(s: dict, r: Fraction, t: Fraction, skew: Fraction) -> dict:
    """``r**(-n) s_plus(r h) + skew * s_minus(t h)``: equivalent to ``s``."""
    n = order(s)[0]
    plus, minus = parts(s, n)
    return canon((a, b) for b, a in list(dilate(plus, r ** -n, r).items())
                 + list(dilate(minus, skew, t).items()))


def random_member(d: Draw, s: dict) -> dict:
    return class_member(s, d.rng.choice(FACTORS), d.rng.choice(FACTORS), d.rng.choice(SKEW_FACTORS))


def geometric(variant: str, n: int, q: Fraction) -> tuple[str, dict]:
    return f"{GEOMETRIC[variant]}:n={n},q={_q_text(q)}", lagrange(geometric_nodes(variant, n, q), n)


# --- labeled catalog schemes ------------------------------------------------

LABELED = ("gauss-fwd", "gauss-aff", "mz-tilde", "riemann", "D31", "D2s")


def labeled_scheme(d: Draw, key: str, n: int) -> tuple[str, dict, str]:
    """A family member of order ``n`` with its catalog status from the paper:
    geometric members and the doubling witness are known-mz, as is the
    order-3 backward shift ``D31``; the equispaced scheme is known-mz at
    orders 1 and 2 (it is geometric there), known-not-mz at 3 and open at
    4..6; the symmetric second difference ``D2s`` is known-not-mz.  ``D31``
    and ``D2s`` fix their own order."""
    family = d.pick(key + ".family", LABELED)
    if family == "gauss-fwd":
        return (*geometric("GaussianForward", n, d.pick(key + ".q", Q_CHOICES)), "known-mz")
    if family == "gauss-aff":
        return (*geometric("GaussianAffine", n, d.pick(key + ".q", Q_CHOICES)), "known-mz")
    if family == "mz-tilde":
        return f"mz-tilde:n={n}", mz_tilde(n), "known-mz"
    if family == "D31":
        return "shift:n=3,k=-1", D31, "known-mz"
    if family == "D2s":
        return "riemann-sym:n=2", D2S, "known-not-mz"
    label = "known-mz" if n <= 2 else "known-not-mz" if n == 3 else "open"
    return f"riemann:n={n}", riemann(n), label


def presented(d: Draw, key: str, spec: str, s: dict) -> tuple[str, dict]:
    """The scheme as its family string, as an exact scale, or as a member of
    its equivalence class with random constants (both as inline JSON)."""
    how = d.pick(key + ".how", ("family", "scale", "member"))
    if how == "family":
        return spec, s
    moved = scale(s, d.rng.choice(FACTORS)) if how == "scale" else random_member(d, s)
    return _arg(moved), moved


# --- catalog slots ----------------------------------------------------------


def cat_equiv_member(d):
    n = d.pick("eqm.n", CATALOG_ORDERS)
    if d.pick("eqm.kind", ("family", "random")) == "family":
        spec, a, _ = labeled_scheme(d, "eqm", n)
    else:
        a = random_scheme(d, n)
        spec = _arg(a)
    b = random_member(d, a)
    return Command(["equiv", "--a", spec, "--b", _arg(b)], {"kind": "equiv", "a": a, "b": b, "label": True})


def _equiv_random(d, key, extra):
    n = d.pick(key + ".n", CATALOG_ORDERS)
    a, b = random_scheme(d, n), random_scheme(d, n)
    return Command(["equiv", "--a", _arg(a), "--b", _arg(b)] + extra,
                   {"kind": "equiv", "a": a, "b": b, "label": None})


def cat_equiv_random(d):
    return _equiv_random(d, "eqr", [])


def cat_equiv_nofast(d):
    return _equiv_random(d, "eqn", ["--no-fast"])


def cat_equiv_orders(d):
    n = d.pick("eqo.n", CATALOG_ORDERS)
    m = (n - 1 + d.pick("eqo.gap", range(1, 6))) % 6 + 1
    spec, a, _ = labeled_scheme(d, "eqo", n)
    b = random_scheme(d, m if m != order(a)[0] else n)
    return Command(["equiv", "--a", spec, "--b", _arg(b)], {"kind": "equiv", "a": a, "b": b, "label": False})


def cat_mz_labeled(d):
    spec, s, label = labeled_scheme(d, "mzl", d.pick("mzl.n", CATALOG_ORDERS))
    spec, s = presented(d, "mzl", spec, s)
    return Command(["mz-check", spec], {"kind": "mz-check", "scheme": s, "label": label})


def cat_mz_known_not(d):
    """The proven negative orders 3 and 7; order 7 only as its family string,
    since the equivalence search on its class members takes ~0.5 s."""
    n = d.pick("mzn.n", (3, 3, 7))
    spec, s = f"riemann:n={n}", riemann(n)
    if n == 3:
        spec, s = presented(d, "mzn", spec, s)
    return Command(["mz-check", spec], {"kind": "mz-check", "scheme": s, "label": "known-not-mz"})


def cat_mz_random(d):
    s = random_scheme(d, d.pick("mzr.n", CATALOG_ORDERS))
    return Command(["mz-check", _arg(s)], {"kind": "mz-check", "scheme": s, "label": None})


def cat_mz_set(d):
    """Backward-shift sets (full or reduced) are known-mz, as is any set with
    a geometric member; scales of one open equispaced scheme stay open."""
    pick = d.pick("set.kind", ("ggr", "ggr-reduced", "geometric", "scales"))
    if pick.startswith("ggr"):
        n = d.pick(pick + ".n", (2, 3))
        k_max = n if pick == "ggr" else max(1, n // 2)
        specs = [f"shift:n={n},k={-k}" for k in range(1, k_max + 1)]
        schemes = [shift(n, -k) for k in range(1, k_max + 1)]
        label = "known-mz"
    elif pick == "geometric":
        n = d.pick("set.n", CATALOG_ORDERS)
        spec, member = geometric("GaussianAffine", n, d.pick("set.q", Q_CHOICES))
        other = random_scheme(d, n)
        specs, schemes, label = [_arg(other), spec], [other, member], "known-mz"
    else:
        n = d.pick("set.open_n", (4, 5, 6))
        schemes = [riemann(n)] + [scale(riemann(n), d.rng.choice(FACTORS)) for _ in range(2)]
        specs = [f"riemann:n={n}"] + [_arg(s) for s in schemes[1:]]
        label = "open"
    return Command(["mz-set"] + specs, {"kind": "mz-set", "schemes": schemes, "label": label})


def geometric_scale(d: Draw, key: str, n: int) -> tuple[str, dict]:
    """A geometric member as its family string or as an exact scale (JSON)."""
    spec, member = geometric(d.pick(key + ".variant", tuple(GEOMETRIC)), n, d.pick(key + ".q", Q_CHOICES))
    if d.pick(key + ".how", ("family", "scale", "scale")) == "family":
        return spec, member
    s = scale(member, d.rng.choice(FACTORS))
    return _arg(s), s


def cat_recognize(d):
    spec, s = geometric_scale(d, "rec", d.pick("rec.n", CATALOG_ORDERS))
    return Command(["recognize", spec], {"kind": "recognize", "scheme": s, "geometric": True})


def cat_recognize_random(d):
    s = random_scheme(d, d.pick("recr.n", CATALOG_ORDERS))
    return Command(["recognize", _arg(s)], {"kind": "recognize", "scheme": s, "geometric": None})


def cat_decompose(d):
    n = d.pick("dec.n", CATALOG_ORDERS)
    if d.pick("dec.kind", ("family", "random")) == "family":
        spec, s, _ = labeled_scheme(d, "dec", n)
    else:
        s = random_scheme(d, n)
        spec = _arg(s)
    return Command(["decompose", spec], {"kind": "decompose", "scheme": s})


def cat_scale(d):
    spec, s, _ = labeled_scheme(d, "sca", d.pick("sca.n", CATALOG_ORDERS))
    spec, s = presented(d, "sca", spec, s)
    r = d.rng.choice(FACTORS)
    return Command(["scale", spec, f"--by={fmt(r)}"], {"kind": "scale", "scheme": s, "r": r})


def cat_ntimes(d):
    """Chains of orders 0..3: all geometric stages (certified by all-MZ), the
    paper's identity chain through the symmetric second difference, and the
    equispaced chain (not certified)."""
    pick = d.pick("nt.kind", ("geometric", "identity", "equispaced"))
    if pick == "geometric":
        chain = [
            geometric("GaussianAffine", 1, d.rng.choice(Q_CHOICES))[1],
            geometric("GaussianForward", 2, d.rng.choice(Q_CHOICES))[1],
            scale(D31, d.rng.choice(FACTORS)),
        ]
    elif pick == "identity":
        chain = [riemann(1), D2S, scale(D31, d.rng.choice(FACTORS))]
    else:
        chain = [riemann(1), riemann(2), scale(riemann(3), d.rng.choice(FACTORS))]
    argv = ["ntimes", "--entry", "0:cont"]
    for j, s in enumerate(chain, start=1):
        argv += ["--entry", f"{j}:{_arg(s)}"]
    return Command(argv, {"kind": "ntimes", "chain": chain})


CATALOG = (
    cat_equiv_member, cat_mz_labeled, cat_decompose, cat_recognize,
    cat_equiv_random, cat_mz_random, cat_scale, cat_equiv_orders,
    cat_mz_labeled, cat_recognize_random, cat_equiv_member, cat_mz_known_not,
    cat_equiv_nofast, cat_mz_set, cat_scale, cat_ntimes,
)


# --- construct-hi slots -----------------------------------------------------


def hi_construct(d):
    n = d.pick("con.n", range(8, 17))
    nodes = d.rng.sample(_WIDE_NODES, n + 1)
    return Command(["construct", "--nodes=" + ",".join(fmt(b) for b in nodes), "--order", str(n)],
                   {"kind": "construct", "nodes": nodes, "n": n})


def hi_recognize(d):
    spec, s = geometric_scale(d, "hrec", d.pick("hrec.n", range(8, 12)))
    return Command(["recognize", spec], {"kind": "recognize", "scheme": s, "geometric": True})


def hi_qggr(d):
    n = d.pick("qg.n", (8, 9))
    ell = d.pick("qg.ell", range(-2, 3))
    q = d.pick("qg.q", Q_CHOICES)
    return Command(["qggr", "--order", str(n), f"--ell={ell}", f"--q={fmt(q)}"],
                   {"kind": "qggr", "n": n, "ell": ell, "q": q})


def hi_ggr(d):
    n = d.pick("gg.n", range(8, 13))
    reduced = d.pick("gg.reduced", (False, True))
    return Command(["ggr", "--order", str(n)] + (["--reduced"] if reduced else []),
                   {"kind": "ggr", "n": n, "reduced": reduced})


CONSTRUCT_HI = (
    hi_construct, hi_recognize, hi_construct, hi_ggr,
    hi_construct, hi_qggr, hi_construct, hi_recognize,
)


# --- probe slots ------------------------------------------------------------

PROBE_ORDERS = range(1, 5)
X_CHOICES = (F(1, 3), F(-1, 2), F(1), F(2, 5), F(-3, 7), F(5, 3))
GENERATOR_SETS = ("2,3", "2", "3,5", "-2,3", "1/2,5")
PROBE_FAMILIES = ("riemann", "mz-tilde", "gauss-fwd", "shift", "random")


def probe_scheme(d: Draw, key: str, n: int) -> tuple[str, dict]:
    family = d.pick(key + ".family", PROBE_FAMILIES)
    if family == "riemann":
        return f"riemann:n={n}", riemann(n)
    if family == "mz-tilde":
        return f"mz-tilde:n={n}", mz_tilde(n)
    if family == "gauss-fwd":
        return geometric("GaussianForward", n, d.pick(key + ".q", (F(2), F(3), F(-2), F(1, 2))))
    if family == "shift":
        return f"shift:n={n},k=-1", shift(n, -1)
    s = lagrange(d.rng.sample([F(a) for a in range(-3, 4)], n + 1), n)
    return _arg(s), s


def _probe(d: Draw, key: str, oracle: str, x: Fraction, n: int) -> Command:
    spec, s = probe_scheme(d, key, n)
    return Command(["probe", spec, f"--oracle={oracle}", f"--x={fmt(x)}"],
                   {"kind": "probe", "scheme": s, "oracle": oracle, "x": x})


def _subgroup_oracle(d: Draw, key: str) -> str:
    return f"subgmono:k={d.pick(key + '.k', (1, 2, 3))};gens={d.pick(key + '.gens', GENERATOR_SETS)}"


def pr_abs(d):
    return _probe(d, "abs", "abs", d.pick("abs.x", (F(0),) + X_CHOICES), d.pick("abs.n", PROBE_ORDERS))


def pr_sgnsq(d):
    return _probe(d, "sq", "sgnsq", d.pick("sq.x", (F(0),) + X_CHOICES), d.pick("sq.n", PROBE_ORDERS))


def pr_mono(d):
    """``x**n`` probed with an order-``n`` scheme: the checker also asks for
    convergence to exactly ``n!``."""
    n = d.pick("mono.n", PROBE_ORDERS)
    return _probe(d, "mono", f"mono:k={n}", d.pick("mono.x", (F(0),) + X_CHOICES), n)


def pr_poly(d):
    coeffs = ",".join(str(d.rng.randint(-3, 3)) for _ in range(d.pick("poly.len", (2, 3, 4, 5))))
    return _probe(d, "poly", f"poly:{coeffs}", d.pick("poly.x", X_CHOICES), d.pick("poly.n", PROBE_ORDERS))


def pr_subgroup_zero(d):
    return _probe(d, "sg0", _subgroup_oracle(d, "sg0"), F(0), d.pick("sg0.n", PROBE_ORDERS))


def pr_subgroup_off_zero(d):
    """Subgroup oracle away from 0: the program factors every sample point by
    trial division and may refuse; such refusals stay in the workload."""
    return _probe(d, "sgx", _subgroup_oracle(d, "sgx"), d.pick("sgx.x", X_CHOICES),
                  d.pick("sgx.n", PROBE_ORDERS))


PEANO_CASES = [(kind, depth, at_zero) for kind in ("abs", "sgnsq", "mono", "poly", "subgmono")
               for depth in PROBE_ORDERS for at_zero in (True, False)]


def pr_peano(d):
    """Staged probes.  How many stages run depends on the oracle, the depth
    and whether x is 0 together, so the three are dealt as one card."""
    kind, depth, at_zero = d.pick("pea.case", PEANO_CASES)
    oracle = {"mono": f"mono:k={d.pick('pea.k', (1, 2, 3))}", "poly": "poly:1,-1,2",
              "subgmono": _subgroup_oracle(d, "pea")}.get(kind, kind)
    x = F(0) if at_zero or kind == "subgmono" else d.pick("pea.x", X_CHOICES)
    return Command(["probe", "--peano", str(depth), f"--oracle={oracle}", f"--x={fmt(x)}"],
                   {"kind": "peano", "depth": depth, "oracle": oracle, "x": x})


PROBE = (pr_abs, pr_mono, pr_subgroup_zero, pr_sgnsq, pr_poly, pr_subgroup_off_zero, pr_peano)


SLOTS: dict[str, tuple[Callable[[Draw], Command], ...]] = {
    "catalog": CATALOG,
    "construct-hi": CONSTRUCT_HI,
    "probe": PROBE,
}


def commands(workload: str, seed: int) -> Iterator[Command]:
    """The endless seeded command stream of a workload, cycling its slots."""
    d = Draw(f"{workload}/{seed}")
    slots = SLOTS[workload]
    for i in count():
        yield slots[i % len(slots)](d)
