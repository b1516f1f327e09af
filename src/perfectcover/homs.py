"""Homomorphisms from generator images, verified by the graph criterion.

The assignment generator -> image extends to a homomorphism exactly when
the subgroup of source x target generated by the pairs (g_i, image_i) has
the same order as the source: the subgroup is then the graph of a function.
"""

from __future__ import annotations

from collections import deque

from .errors import SizeLimitError, VerificationError
from .groups import ENUMERATION_CAP, PermGroup
from .perms import Permutation
from .products import DirectProduct


class Homomorphism:
    """A verified homomorphism source -> target."""

    def __init__(self, source: PermGroup, target: PermGroup, images):
        images = tuple(images)
        if len(images) != len(source.generators):
            raise VerificationError("need exactly one image per source generator")
        self.source = source
        self.target = target
        self.images = images
        prod = DirectProduct((source, target))
        pairs = [
            prod.element({0: g, 1: im}).flat()
            for g, im in zip(source.generators, images)
        ]
        graph = PermGroup(prod.degree, pairs)
        if graph.order != source.order:
            raise VerificationError(
                f"not a homomorphism: graph subgroup has order {graph.order}, "
                f"source has order {source.order}"
            )
        self.graph = graph
        image_group = PermGroup(target.degree, [p for p in images])
        self.surjective = image_group.order == target.order
        self._table: dict[Permutation, Permutation] | None = None

    def _factor_table(self, cap: int) -> dict[Permutation, Permutation]:
        """BFS image table over the whole source group."""
        if self.source.order > cap:
            raise SizeLimitError("source too large to tabulate")
        table = {self.source.identity: self.target.identity}
        queue = deque([self.source.identity])
        while queue:
            x = queue.popleft()
            fx = table[x]
            for g, im in zip(self.source.generators, self.images):
                y = x * g
                if y not in table:
                    table[y] = fx * im
                    queue.append(y)
        return table

    def apply(self, g: Permutation, cap: int = ENUMERATION_CAP) -> Permutation:
        if self._table is None:
            self._table = self._factor_table(cap)
        try:
            return self._table[g]
        except KeyError:
            raise VerificationError("element is not in the source group") from None
