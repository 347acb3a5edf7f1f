"""Shared fixtures."""

from fractions import Fraction

import pytest

import grdcalc.families
import grdcalc.mz
import grdcalc.scheme
from grdcalc.scheme import CalculusError, Scheme, Term


@pytest.fixture(autouse=True)
def empty_member_memo() -> None:
    """Each test starts with no named member built and no verdict kept, whatever ran before it.

    ``named_scheme`` keeps the members it builds, and ``mz_check``, ``mz_set_check`` and
    ``n_times_check`` the verdicts they give, for the whole process; a test that counts
    builds, derivations or decisions must not depend on test order.
    """
    grdcalc.families.named_scheme.cache_clear()
    grdcalc.mz._VERDICTS.clear()


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
    """Every unchecked scheme build, rebuilt by the public ``Scheme(terms)`` to compare.

    ``grdcalc.scheme._scheme(coeffs, nodes)`` trusts its caller for tuples
    whose nodes strictly increase and whose coefficients are nonzero, all of
    them ``Fraction``s.  Here each of its results must equal ``Scheme(terms)``
    on the same pairs, which sorts and refuses duplicate nodes and zero
    coefficients, and hold two tuples of ``Fraction`` values only (a list
    field would leave the scheme unhashable).  A build that does not is
    kept in ``faults`` rather than raised, so that no caller's error handling
    can hide it; the fixture fails the test on any.
    """

    def __init__(self, monkeypatch: pytest.MonkeyPatch) -> None:
        self.count = 0
        self.faults: list = []
        trusted = grdcalc.scheme._scheme

        def checked(coeffs, nodes):
            self.count += 1
            built = trusted(coeffs, nodes)
            try:
                valid = (
                    type(coeffs) is tuple and type(nodes) is tuple
                    and Scheme(map(Term, coeffs, nodes)) == built
                    and all(isinstance(v, Fraction) for v in coeffs + nodes)
                )
            except CalculusError:
                valid = False
            if not valid:
                self.faults.append((coeffs, nodes))
            return built

        monkeypatch.setattr(grdcalc.scheme, "_scheme", checked)


@pytest.fixture
def checked_builds(monkeypatch: pytest.MonkeyPatch):
    checks = CheckedBuilds(monkeypatch)
    yield checks
    assert not checks.faults, f"unchecked builds broke the invariant: {checks.faults[:3]}"
