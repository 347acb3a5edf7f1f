"""Shared fixtures."""

import pytest

import grdcalc.families
import grdcalc.mz
import grdcalc.scheme
from grdcalc.scheme import CalculusError, Scheme, Term


@pytest.fixture(autouse=True)
def empty_member_memo() -> None:
    """Each test starts with no named member built and no verdict kept, whatever ran before it.

    ``named_scheme`` keeps the members it builds, and the deciders behind ``mz_check``,
    ``mz_set_check`` and ``n_times_check`` the verdicts they give, for the whole process; a
    test that counts builds, derivations or decisions must not depend on test order.
    """
    grdcalc.families.named_scheme.cache_clear()
    for memo in (grdcalc.mz._decide_mz, grdcalc.mz._decide_mz_set, grdcalc.mz._decide_chain):
        memo.cache_clear()


class Derivations:
    """Every order detection and every symmetric/skew split, with its scheme object.

    ``order_info`` and ``decompose`` keep what they derive on the scheme
    object; these records count the derivations themselves, not the calls.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.orders: list = []
        self.splits: list = []
        find_order, split = grdcalc.scheme._find_order, grdcalc.scheme._split

        def counting_find_order(scheme):
            self.orders.append(scheme)
            return find_order(scheme)

        def counting_split(scheme, odd):
            self.splits.append((scheme, odd))
            return split(scheme, odd)

        monkeypatch.setattr(grdcalc.scheme, "_find_order", counting_find_order)
        monkeypatch.setattr(grdcalc.scheme, "_split", counting_split)

    def clear(self) -> None:
        self.orders.clear()
        self.splits.clear()

    def assert_each_once(self) -> None:
        """No scheme object detected its order twice or split twice at one parity.

        The records hold every object they name, so no two of them share an id.
        """
        assert len({id(s) for s in self.orders}) == len(self.orders)
        assert len({(id(s), odd) for s, odd in self.splits}) == len(self.splits)


@pytest.fixture
def derivations(monkeypatch: pytest.MonkeyPatch) -> Derivations:
    return Derivations(monkeypatch)


class CheckedBuilds:
    """Every trusted scheme build, rebuilt by the public ``Scheme(terms)`` to compare.

    ``grdcalc.scheme._built(sums, C, D)`` stores the reduced integer form
    ``(A, da, B, db)`` of the coefficients ``sums[k] / C`` at the nodes
    ``k / D``, trusting its caller for positive denominators and integer
    sums.  Here each result must equal ``Scheme(terms)`` on its own
    ``coeffs`` and ``nodes`` views, which sorts and refuses duplicate nodes
    and zero coefficients, and its stored form must be the one that rebuild
    derives: both denominators positive, reduced (``gcd(da, *A) ==
    gcd(db, *B) == 1``), ``B`` strictly increasing and no zero in ``A``, in
    tuples (a list field would leave the form unhashable).  A build that
    does not is kept in ``faults`` rather than raised, so that no caller's
    error handling can hide it; the fixture fails the test on any.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.count = 0
        self.faults: list = []
        trusted = grdcalc.scheme._built

        def checked(sums, C, D):
            self.count += 1
            built = trusted(sums, C, D)
            form = built._ints
            try:
                valid = (
                    form[1] > 0 and form[3] > 0
                    and (rebuilt := Scheme(map(Term, built.coeffs, built.nodes))) == built
                    and rebuilt._ints == form
                    and all(type(v) is int for v in (*form[0], form[1], *form[2], form[3]))
                )
            except CalculusError:
                valid = False
            if not valid:
                self.faults.append((sums, C, D))
            return built

        monkeypatch.setattr(grdcalc.scheme, "_built", checked)


@pytest.fixture
def checked_builds(monkeypatch: pytest.MonkeyPatch):
    checks = CheckedBuilds(monkeypatch)
    yield checks
    assert not checks.faults, f"unchecked builds broke the invariant: {checks.faults[:3]}"
