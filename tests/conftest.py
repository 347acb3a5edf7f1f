"""Shared fixtures."""

import pytest

import grdcalc.families
import grdcalc.scheme


@pytest.fixture(autouse=True)
def empty_member_memo() -> None:
    """Each test starts with no named member built, whatever ran before it.

    ``named_scheme`` keeps the members it builds for the whole process; a
    test that counts builds or derivations must not depend on test order.
    """
    grdcalc.families.named_scheme.cache_clear()


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
