"""Independent reference for the family-membership check: the Scheme-based form.

``reference_is_member`` is the body ``families._is_member`` once had, kept
unchanged apart from its name.  It reads a built ``Scheme``: its sorted
nodes against the member's, and its order and normalizer by ``order_info``.
``_is_member`` now reads an integer form ``(A, da, B, db)`` (coefficients
``A_i / da`` at nodes ``B_i / db``) and checks the same three facts on
integers, so ``verify_quantum_ggr`` checks each shift on the integer sums of
its scale and builds no Scheme per shift; the reference tests pin the two
forms to the same answers.
"""

from grdcalc.families import FamilyKind, family_nodes
from grdcalc.scheme import Scheme, order_info


def reference_is_member(scheme: Scheme, kind: FamilyKind) -> bool:
    """Whether ``scheme`` is the member ``kind``: on the member's nodes, of order ``n``
    and normalizer 1, which is complete (see :func:`named_scheme`)."""
    info = order_info(scheme)
    on_nodes = scheme.nodes == tuple(sorted(family_nodes(kind)))
    return on_nodes and (info.order, info.normalizer) == (kind.n, 1)
