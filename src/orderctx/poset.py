"""Finite partial orders with brute-force domain-theoretic checks.

A ``FinitePoset`` stores the full order relation as a boolean matrix, the way
several of our earlier order-theory tools did.  On top of the order itself it
exposes the approximation relation (defined through directed subsets and their
suprema), compactness, bases, and a dcpo check.  All of these are computed from
the literal family of directed subsets, generated from their greatest elements.
That family can be exponential in size and is therefore capped: the point of
this module is to be an executable definition that larger claims can be tested
against, not to scale.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import (
    CycleError,
    EmptySubsetError,
    SizeLimitError,
    UnknownLabelError,
)

# 2**15 subsets is the largest enumeration we are willing to run by default.
DEFAULT_ENUMERATION_CAP = 15


@dataclass
class PosetReport:
    """Result bundle of the brute-force structural checks."""

    is_dcpo: bool
    maximal_elements: frozenset
    compact_elements: frozenset
    context_transitivity_holds: bool
    counterexample: Optional[tuple] = None


class FinitePoset:
    """Immutable finite poset over string labels.

    The relation matrix ``leq`` has ``leq[i, j]`` true iff element ``i`` is
    below element ``j``.  Instances are never mutated after construction, so
    derived structures (covers, directed subsets, approximation matrix) are
    computed once and cached.
    """

    def __init__(self, elements: Sequence[str], leq: np.ndarray):
        elements = tuple(elements)
        if len(set(elements)) != len(elements):
            raise ValueError("duplicate element labels")
        n = len(elements)
        leq = np.array(leq, dtype=bool)
        if leq.shape != (n, n):
            raise ValueError("relation matrix shape does not match element count")
        if not leq.diagonal().all():
            raise ValueError("relation is not reflexive")
        mutual = leq & leq.T
        np.fill_diagonal(mutual, False)
        if mutual.any():
            i, j = np.argwhere(mutual)[0]
            raise CycleError(f"{elements[i]!r} and {elements[j]!r} are mutually below each other")
        if ((leq @ leq) != leq).any():
            raise ValueError("relation is not transitive")
        self.elements = elements
        self._index = {label: i for i, label in enumerate(elements)}
        self.leq = leq
        self.leq.setflags(write=False)
        self._family = None
        self._wb = None
        self._rows = None

    @classmethod
    def from_cover_relations(cls, elements: Sequence[str], covers: Iterable[Sequence[str]]) -> "FinitePoset":
        """Build the poset as the reflexive-transitive closure of cover pairs.

        Raises CycleError when the pairs close into a cycle and
        UnknownLabelError when a pair names a label not in ``elements``.
        """
        elements = tuple(elements)
        index = {label: i for i, label in enumerate(elements)}
        rel = np.eye(len(elements), dtype=bool)
        for lo, hi in covers:
            if lo not in index:
                raise UnknownLabelError(lo)
            if hi not in index:
                raise UnknownLabelError(hi)
            rel[index[lo], index[hi]] = True
        return cls(elements, _transitive_closure(rel))

    # -- basics ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self.elements)

    def __repr__(self) -> str:
        return f"FinitePoset({len(self)} elements)"

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(label) from None

    def holds(self, x: str, y: str) -> bool:
        """Whether x is below y in the information order."""
        # Label-keyed rows of ``leq``, built on first use: brute-force checks
        # call this hundreds of millions of times, and two dict lookups cost
        # far less than two index() calls plus numpy scalar indexing.
        rows = self._rows
        if rows is None:
            rows = self._rows = {
                label: dict(zip(self.elements, row)) for label, row in zip(self.elements, self.leq.tolist())
            }
        try:
            return rows[x][y]
        except KeyError as exc:
            raise UnknownLabelError(exc.args[0]) from None

    def _subset_indices(self, subset: Iterable[str]) -> np.ndarray:
        idx = sorted({self.index(label) for label in subset})
        return np.array(idx, dtype=int)

    def up_set(self, x: str) -> frozenset:
        """Everything above x, x included."""
        row = self.leq[self.index(x)]
        return frozenset(e for i, e in enumerate(self.elements) if row[i])

    def down_set(self, x: str) -> frozenset:
        """Everything below x, x included."""
        col = self.leq[:, self.index(x)]
        return frozenset(e for i, e in enumerate(self.elements) if col[i])

    def maximal_elements(self) -> frozenset:
        strict = self.leq & ~np.eye(len(self), dtype=bool)
        top = ~strict.any(axis=1)
        return frozenset(e for i, e in enumerate(self.elements) if top[i])

    def cover_pairs(self) -> list:
        """Minimal pairs (x, y) with x strictly below y and nothing in between."""
        lt = self.leq & ~np.eye(len(self), dtype=bool)
        cov = lt & ~(lt @ lt)
        return [(self.elements[i], self.elements[j]) for i, j in np.argwhere(cov)]

    # -- directed subsets and suprema -----------------------------------

    def is_directed(self, subset: Iterable[str]) -> bool:
        """Nonempty and every pair has an upper bound inside the subset."""
        idx = self._subset_indices(subset)
        if idx.size == 0:
            raise EmptySubsetError("directedness is defined for nonempty subsets")
        sub = self.leq[np.ix_(idx, idx)]
        return bool((sub @ sub.T).all())

    def supremum(self, subset: Iterable[str]) -> Optional[str]:
        """Least upper bound label, or None when it does not exist."""
        idx = self._subset_indices(subset)
        if idx.size == 0:
            raise EmptySubsetError("supremum of the empty set is not considered")
        ub = self.leq[idx, :].all(axis=0)
        for z in np.nonzero(ub)[0]:
            if self.leq[z, ub].all():
                return self.elements[z]
        return None

    def directed_family(self, cap: Optional[int] = None) -> list:
        """Every nonempty directed subset, paired with its supremum.

        A finite nonempty subset is directed iff it has a greatest element m,
        its supremum, so the family is {m} | S for each m and each S strictly
        below m, grouped by m.  The cost tracks the family's size (2**n - 1 on
        an n-chain), so posets larger than the cap raise SizeLimitError.
        """
        cap = DEFAULT_ENUMERATION_CAP if cap is None else int(cap)
        n = len(self)
        if n > cap:
            raise SizeLimitError(f"{n} elements exceeds the enumeration cap of {cap}")
        if self._family is None:
            family = []
            for m, top in enumerate(self.elements):
                subsets = [frozenset((top,))]
                for i in np.flatnonzero(self.leq[:, m]):
                    if i != m:
                        below = self.elements[i]
                        subsets += [s | {below} for s in subsets]
                family += [(s, top) for s in subsets]
            self._family = family
        return self._family

    def is_dcpo(self, cap: Optional[int] = None) -> tuple:
        """(verdict, witness): witness is a directed subset with no supremum."""
        for members, sup in self.directed_family(cap):
            if sup is None:
                return False, members
        return True, None

    # -- approximation ---------------------------------------------------

    def way_below_matrix(self, cap: Optional[int] = None) -> np.ndarray:
        """Brute-force approximation relation, straight from its definition.

        wb[x, y] holds iff every directed subset whose supremum dominates y
        contains some member dominating x.  No shortcut through the order
        itself: the matrix exists so that the collapse of approximation onto
        the order on finite posets stays a testable claim.
        """
        if self._wb is None:
            n = len(self)
            wb = np.ones((n, n), dtype=bool)
            for members, sup in self.directed_family(cap):
                idx = self._subset_indices(members)
                covered = self.leq[:, idx].any(axis=1)   # x below some member
                dominated = self.leq[:, self.index(sup)]  # y below the supremum
                wb &= ~np.outer(~covered, dominated)
            wb.setflags(write=False)
            self._wb = wb
        return self._wb

    def way_below(self, x: str, y: str, cap: Optional[int] = None) -> bool:
        """Whether x approximates y."""
        return bool(self.way_below_matrix(cap)[self.index(x), self.index(y)])

    def wayup_set(self, x: str, cap: Optional[int] = None) -> frozenset:
        row = self.way_below_matrix(cap)[self.index(x)]
        return frozenset(e for i, e in enumerate(self.elements) if row[i])

    def waydown_set(self, x: str, cap: Optional[int] = None) -> frozenset:
        col = self.way_below_matrix(cap)[:, self.index(x)]
        return frozenset(e for i, e in enumerate(self.elements) if col[i])

    def compact_elements(self, cap: Optional[int] = None) -> frozenset:
        """Elements that approximate themselves."""
        diag = self.way_below_matrix(cap).diagonal()
        return frozenset(e for i, e in enumerate(self.elements) if diag[i])

    def is_basis(self, candidate: Iterable[str], cap: Optional[int] = None) -> bool:
        """Whether the candidate set generates every element from below.

        For each element r the members of the candidate set approximating r
        must form a nonempty directed subset whose supremum is r itself.
        """
        idx = self._subset_indices(candidate)
        wb = self.way_below_matrix(cap)
        for r in range(len(self)):
            approximants = [i for i in idx if wb[i, r]]
            if not approximants:
                return False
            labels = [self.elements[i] for i in approximants]
            if not self.is_directed(labels):
                return False
            if self.supremum(labels) != self.elements[r]:
                return False
        return True

    def check_context_transitivity(self, cap: Optional[int] = None) -> tuple:
        """Approximation extends along the order when the top is approximable.

        Verifies, by exhausting triples (r, s, t), that r approximating s with
        s below t forces r to approximate t, provided something approximates t
        at all.  Returns (verdict, counterexample-triple-or-None).
        """
        wb = self.way_below_matrix(cap)
        approximable = wb.any(axis=0)  # column t: some element approximates t
        n = len(self)
        for t in range(n):
            if not approximable[t]:
                continue
            for s in range(n):
                if not self.leq[s, t]:
                    continue
                bad = wb[:, s] & ~wb[:, t]
                if bad.any():
                    r = int(np.nonzero(bad)[0][0])
                    return False, (self.elements[r], self.elements[s], self.elements[t])
        return True, None

    def analyze(self, cap: Optional[int] = None) -> PosetReport:
        """Run every structural check and bundle the verdicts."""
        dcpo_ok, _witness = self.is_dcpo(cap)
        holds, counterexample = self.check_context_transitivity(cap)
        return PosetReport(
            is_dcpo=dcpo_ok,
            maximal_elements=self.maximal_elements(),
            compact_elements=self.compact_elements(cap),
            context_transitivity_holds=holds,
            counterexample=counterexample,
        )

    # -- serialization ---------------------------------------------------

    def to_dot(self) -> str:
        """Hasse diagram in DOT form: one node per element, one edge per cover."""
        def q(label):
            return '"%s"' % label.replace("\\", "\\\\").replace('"', '\\"')

        lines = ["digraph hasse {", "  rankdir=BT;"]
        lines += [f"  {q(e)};" for e in self.elements]
        lines += [f"  {q(lo)} -> {q(hi)};" for lo, hi in self.cover_pairs()]
        lines.append("}")
        return "\n".join(lines) + "\n"


def load_poset(path) -> FinitePoset:
    """Read a poset from a JSON document with `elements` and `covers` fields."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return poset_from_dict(doc)


def poset_from_dict(doc: dict) -> FinitePoset:
    if not isinstance(doc, dict) or "elements" not in doc or "covers" not in doc:
        raise ValueError("poset document needs `elements` and `covers` fields")
    elements = doc["elements"]
    covers = doc["covers"]
    if not isinstance(elements, (list, tuple)) or not all(isinstance(e, str) for e in elements):
        raise ValueError("`elements` must be an array of strings")
    if not isinstance(covers, (list, tuple)):
        raise ValueError("`covers` must be an array")
    for pair in covers:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or not all(isinstance(p, str) for p in pair):
            raise ValueError("`covers` must contain two-element string arrays")
    return FinitePoset.from_cover_relations(elements, covers)


def _transitive_closure(rel: np.ndarray) -> np.ndarray:
    closed = rel.copy()
    for k in range(closed.shape[0]):
        closed |= np.outer(closed[:, k], closed[k, :])
    return closed
