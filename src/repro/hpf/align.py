"""ALIGN semantics: alignment groups with cascading redistribution.

The paper aligns all CG vectors with ``p``::

    !HPF$ ALIGN (:) WITH p(:) :: q, r, x
    !HPF$ DISTRIBUTE p(BLOCK)

"Vector p is chosen as the target of the ultimate alignment thus the
distribution of p determines the distribution of all other vectors aligned
with it.  Whenever its distribution is changed, the others are also
automatically redistributed."  :class:`AlignmentGroup` implements exactly
that: one *target* array, any number of identity-aligned members, and a
:meth:`redistribute` that moves every member at once (charging the machine
for the data motion).
"""

from __future__ import annotations

import weakref
from typing import TYPE_CHECKING, List, Optional

from .distribution import Distribution
from .errors import AlignmentError

if TYPE_CHECKING:  # pragma: no cover
    from .array import DistributedArray

__all__ = ["AlignmentGroup", "aligned"]


class AlignmentGroup:
    """A set of equal-extent arrays sharing one distribution.

    The first array is the alignment target; members follow its
    distribution forever after.

    Ownership runs one way, so the arrays form no reference cycle and free
    by reference counting alone: the target holds its group, the group
    holds its other members, and the group's reference to the target and
    each member's reference to the group are weak.  A member kept alive
    only by the group therefore lives as long as the target.  When the
    target dies the group dies with it, and a member still referenced
    elsewhere becomes ungrouped (``group is None``), keeping its data and
    distribution.
    """

    def __init__(self, target: "DistributedArray"):
        self._target = weakref.ref(target)
        self._followers: List["DistributedArray"] = []

    @property
    def target(self) -> Optional["DistributedArray"]:
        """The alignment target, or ``None`` once it has been freed."""
        return self._target()

    @property
    def members(self) -> List["DistributedArray"]:
        """The target (while it lives) followed by the aligned arrays."""
        target = self.target
        return ([] if target is None else [target]) + self._followers

    def add(self, array: "DistributedArray") -> None:
        """Identity-align ``array`` with the group's target.

        The array is redistributed to the target's current distribution if
        necessary (this is creation-time layout, not runtime traffic, so it
        is not charged to the machine).
        """
        target = self.target
        if array is target or array in self._followers:
            return
        if target is None:
            raise AlignmentError("the group's alignment target has been freed")
        if array.n != target.n:
            raise AlignmentError(
                f"cannot align extent {array.n} with target extent "
                f"{target.n} (only identity alignment is supported)"
            )
        if array.group is not None and array.group is not self:
            raise AlignmentError(
                f"array {array.name!r} already belongs to another alignment group"
            )
        if not array.distribution.same_mapping(target.distribution):
            array._relayout(target.distribution)
        array.group = self
        self._followers.append(array)

    def redistribute(
        self, new_distribution: Distribution, charge: bool = True
    ) -> None:
        """Move every member to ``new_distribution`` (cascade semantics)."""
        for member in self.members:
            member._redistribute_single(new_distribution, charge=charge)

    def names(self) -> List[Optional[str]]:
        return [m.name for m in self.members]

    def __contains__(self, array: "DistributedArray") -> bool:
        return array in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        target = self.target
        name = None if target is None else target.name
        return f"AlignmentGroup(target={name!r}, size={len(self.members)})"


def aligned(*arrays: "DistributedArray") -> bool:
    """True when all arrays place every element on the same rank.

    This is the owner-computes precondition for element-wise operations:
    HPF performs "parallel array assignments" without communication only on
    co-located operands.
    """
    if len(arrays) < 2:
        return True
    first = arrays[0]
    return all(
        a.n == first.n
        and (
            a.distribution.same_mapping(first.distribution)
            or a.distribution.is_replicated
            or first.distribution.is_replicated
        )
        for a in arrays[1:]
    )
