"""The verdict census on the box [-4, 4] at orders 1 to 3 (see ``census.py``).

The table pins what the catalog says on every exact scheme of the box.  Two
facts are checked against the absolute moment, which the catalog does not
read: no ``known-mz`` scheme has a vanishing one (the test function
``h**(n-1) * |h|`` would refute it), and every symmetric second difference
that the catalog calls not MZ has one.
"""

import pytest

from census import census
from grdcalc import (
    CERT_D2S_NOT_MZ,
    CERT_D31,
    CERT_GAUSSIAN,
    CERT_RIEMANN_NOT_MZ,
    STATUS_MZ,
    STATUS_NOT_MZ,
    STATUS_OPEN,
)

# (order, status, certificate kind, absolute moment is 0) -> count, measured on the box [-4, 4]
EXPECTED = {
    (1, STATUS_MZ, CERT_GAUSSIAN, False): 32,
    (1, STATUS_OPEN, None, True): 4,
    (2, STATUS_MZ, CERT_GAUSSIAN, False): 28,
    (2, STATUS_NOT_MZ, CERT_D2S_NOT_MZ, True): 4,
    (2, STATUS_OPEN, None, False): 52,
    (3, STATUS_MZ, CERT_D31, False): 8,
    (3, STATUS_MZ, CERT_GAUSSIAN, False): 4,
    (3, STATUS_NOT_MZ, CERT_RIEMANN_NOT_MZ, False): 2,
    (3, STATUS_OPEN, None, False): 106,
    (3, STATUS_OPEN, None, True): 6,
}


@pytest.fixture(scope="module")
def counts():
    return census(4, (1, 2, 3))


def test_census_table(counts):
    assert dict(counts) == EXPECTED


def test_no_known_mz_scheme_has_a_vanishing_absolute_moment(counts):
    assert [cell for cell in counts if cell[1] == STATUS_MZ and cell[3]] == []


def test_every_symmetric_second_difference_has_a_vanishing_absolute_moment(counts):
    d2s = [cell for cell in counts if cell[2] == CERT_D2S_NOT_MZ]
    assert d2s and all(cell[3] for cell in d2s)
