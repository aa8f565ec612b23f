"""Todd-Coxeter coset enumeration over the trivial subgroup.

The enumerator semidecides finiteness of a finitely presented group: when
the coset table closes, the number of live cosets equals the group order.
A budget bounds the total number of cosets ever defined (live plus
collapsed), so infinite groups come back as Exceeded, which callers must
treat as "no information", never as "infinite".  DEFINITION_FIRST checks
the budget before each definition and never passes it.  RELATOR_FIRST
checks it after each relator scan, and a scan can define up to L - 1
cosets, L the longest relator, so it can stop up to max(L - 1, 1) cosets
past the budget.

Two deterministic strategies are provided (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, ch. 5).  RELATOR_FIRST is the
classic scan-and-fill loop: each coset in definition order is traced around
every relator, defining new cosets to bridge gaps, and then has its
remaining table entries filled.  DEFINITION_FIRST is Felsch's strategy.
It defines one coset at a time, at the first hole of the table, found by a
pointer that only moves forward: rows before it are full or dead, and live
rows only gain entries.  Every entry the table gains, by a definition, a
deduction or a coincidence, goes on a stack of deductions together with its
inverse entry.  Processing one scans, at its coset, only the cyclic
conjugates of the relators that begin with its column; with both entries
pushed, that covers every relator cycle through the new edge, in either
direction.  No edge leads into the cycle of a length-1 relator before the
scan that closes it, so each new coset is also scanned once against the
length-1 relators.  When the stack runs dry, the table is closed under
every deduction and coincidence the relators force, so exactly the cosets
are defined that a rescan of every coset against every relator between
definitions would define.  Both strategies agree on the group order
whenever both terminate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .words import Word, reduce_relators


@dataclass(frozen=True)
class FinitePresentation:
    """Plain finite presentation: generator count plus relator words.

    No Artin condition; any relator count is allowed.
    """

    ngens: int
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "relators", reduce_relators(self.ngens, self.relators))


class Strategy(Enum):
    RELATOR_FIRST = "relator-first"
    DEFINITION_FIRST = "definition-first"


@dataclass(frozen=True)
class Finite:
    """The table closed: order is the group order, cosets_defined the total
    allocation (live plus collapsed).

    The counters do not take part in equality: peak_live is the largest
    number of live cosets at any time, coincidences the number of scans
    that closed on two different cosets (each starts a merge, which can
    collapse many more).
    """

    order: int
    cosets_defined: int
    peak_live: int = field(default=0, compare=False)
    coincidences: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Exceeded:
    """The allocation budget ran out before the table closed.  The counters
    are those of Finite at the moment the budget ran out, and likewise do
    not take part in equality.  cosets_defined is at most limit for
    DEFINITION_FIRST and at most limit + max(L - 1, 1) for RELATOR_FIRST,
    where L is the longest relator."""

    limit: int
    cosets_defined: int = field(default=0, compare=False)
    peak_live: int = field(default=0, compare=False)
    coincidences: int = field(default=0, compare=False)


EnumResult = Finite | Exceeded

# A relator compiled for scanning: the table column of each letter, read
# forward, and the column of each letter's inverse, read backward.
_Compiled = tuple[tuple[int, ...], tuple[int, ...]]


class CosetTable:
    """Partial multiplication table on cosets of the trivial subgroup.

    The table is one flat list: the row of coset c starts at c * ncols, and
    -1 marks an undefined entry.  Columns alternate generator and inverse:
    column 2(k-1) holds the x_k image, column 2(k-1)+1 the x_k^-1 image, so
    column ^ 1 is the inverse column.  Every entry has its inverse entry.

    Coincidences are handled by union-find with the smaller coset as
    representative, so coset 0 never dies.  A merge folds each dead row
    into its representative and repoints the entries that named it, so once
    merge() returns, live rows refer to live cosets only and scans need no
    representative lookups.  Dead rows keep their storage.

    When deductions is a list, every entry the table gains is pushed on it
    as its flat position c * ncols + column, together with its inverse
    entry, and a merge pushes every defined entry of each surviving row in
    the same way; the Felsch loop in enumerate_cosets drains it.
    """

    def __init__(self, ngens: int) -> None:
        self.ngens = ngens
        self.ncols = 2 * ngens
        self.table: list[int] = [-1] * self.ncols
        self.parent: list[int] = [0]
        self.live = 1
        self.defined = 1
        self.peak_live = 1
        self.coincidences = 0
        self.deductions: list[int] | None = None

    @staticmethod
    def column(letter: int) -> int:
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

    def rep(self, coset: int) -> int:
        parent = self.parent
        root = coset
        while parent[root] != root:
            root = parent[root]
        while parent[coset] != root:
            parent[coset], coset = root, parent[coset]
        return root

    def is_live(self, coset: int) -> bool:
        return self.parent[coset] == coset

    def define(self, coset: int, letter: int) -> int:
        return self._define(coset, self.column(letter))

    def _define(self, coset: int, column: int) -> int:
        new = self.defined
        n = self.ncols
        self.table.extend([-1] * n)
        self.table[coset * n + column] = new
        self.table[new * n + (column ^ 1)] = coset
        self.parent.append(new)
        self.defined += 1
        self.live += 1
        if self.live > self.peak_live:
            self.peak_live = self.live
        if self.deductions is not None:
            self.deductions += (coset * n + column, new * n + (column ^ 1))
        return new

    def merge(self, a: int, b: int) -> None:
        """Identify two cosets and fold tables, queueing induced
        coincidences until none remain."""
        self.coincidences += 1
        table, n, rep = self.table, self.ncols, self.rep
        dead: list[int] = []

        def union(a: int, b: int) -> None:
            a, b = rep(a), rep(b)
            if a != b:
                if b < a:
                    a, b = b, a
                self.parent[b] = a
                self.live -= 1
                dead.append(b)

        union(a, b)
        for gamma in dead:  # union() appends while this loop runs
            row = gamma * n
            for column in range(n):
                delta = table[row + column]
                if delta < 0:
                    continue
                back = column ^ 1
                table[delta * n + back] = -1
                mu, nu = rep(gamma), rep(delta)
                target = table[mu * n + column]
                if target >= 0:
                    union(nu, target)
                elif table[nu * n + back] >= 0:
                    union(mu, table[nu * n + back])
                else:
                    table[mu * n + column] = nu
                    table[nu * n + back] = mu
        if self.deductions is not None:
            for mu in dict.fromkeys(map(rep, dead)):
                for column in range(n):
                    target = table[mu * n + column]
                    if target >= 0:
                        self.deductions += (mu * n + column, target * n + (column ^ 1))

    def scan(self, start: int, word: Word, fill: bool) -> bool:
        """Trace the cycle that a relator forces at a coset.

        Walks forward along defined entries, then backward from the far end.
        A one-letter gap becomes a deduction, a mismatch at the meeting
        point a coincidence.  With fill=True, wider gaps are bridged by
        defining new cosets, so the scan always completes.  Returns True if
        the table changed.
        """
        return self._scan(self.rep(start), *_compile(word), fill)

    def _scan(
        self, start: int, forward: tuple[int, ...], backward: tuple[int, ...], fill: bool
    ) -> bool:
        table, n = self.table, self.ncols
        f = b = start
        i, j = 0, len(forward) - 1
        changed = False
        while True:
            while i <= j:
                nxt = table[f * n + forward[i]]
                if nxt < 0:
                    break
                f = nxt
                i += 1
            if i <= j:
                while j >= i:
                    nxt = table[b * n + backward[j]]
                    if nxt < 0:
                        break
                    b = nxt
                    j -= 1
            if j < i:
                # both walks covered the word; the junction cosets coincide
                if f != b:
                    self.merge(f, b)
                    return True
                return changed
            if i == j:
                table[f * n + forward[i]] = b
                table[b * n + backward[i]] = f
                if self.deductions is not None:
                    self.deductions += (f * n + forward[i], b * n + backward[i])
                return True
            if not fill:
                return changed
            f = self._define(f, forward[i])
            changed = True
            i += 1

    def check_consistency(self) -> None:
        """Inverse-pair invariant: entry(k, x) = k' iff entry(k', x^-1) = k,
        up to union-find representatives.  Assertable between scans."""
        table, n = self.table, self.ncols
        for coset in range(self.defined):
            if not self.is_live(coset):
                continue
            for column in range(n):
                raw = table[coset * n + column]
                if raw < 0:
                    continue
                back = table[self.rep(raw) * n + (column ^ 1)]
                if back < 0 or self.rep(back) != coset:
                    raise AssertionError(
                        f"table inconsistent at coset {coset}, column {column}"
                    )


def _compile(word: Word) -> _Compiled:
    return (
        tuple(CosetTable.column(letter) for letter in word),
        tuple(CosetTable.column(-letter) for letter in word),
    )


def enumerate_cosets(
    presentation: FinitePresentation,
    max_cosets: int = 100_000,
    strategy: Strategy = Strategy.RELATOR_FIRST,
    validate: bool = False,
) -> EnumResult:
    """Enumerate cosets of the trivial subgroup.

    Returns Finite(order, total defined) when the table closes, in which
    case order is exactly the group order, or Exceeded(max_cosets) once the
    allocation budget is exhausted.  Deterministic for a fixed strategy;
    raising the budget never changes a Finite answer.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    relators = tuple(r for r in presentation.relators if r)
    table = CosetTable(presentation.ngens)
    if strategy is Strategy.RELATOR_FIRST:
        exceeded = _relator_first(table, relators, max_cosets, validate)
    else:
        exceeded = _definition_first(table, relators, max_cosets, validate)
    counters = (table.defined, table.peak_live, table.coincidences)
    return Exceeded(max_cosets, *counters) if exceeded else Finite(table.live, *counters)


def _relator_first(
    table: CosetTable, relators: tuple[Word, ...], max_cosets: int, validate: bool
) -> bool:
    compiled = [_compile(r) for r in relators]
    tab, n, parent = table.table, table.ncols, table.parent
    alpha = 0
    while alpha < table.defined:
        if parent[alpha] != alpha:
            alpha += 1
            continue
        for forward, backward in compiled:
            table._scan(alpha, forward, backward, True)
            if table.defined > max_cosets:
                return True
            if validate:
                table.check_consistency()
            if parent[alpha] != alpha:
                break
        else:
            row = alpha * n
            for column in range(n):
                if tab[row + column] < 0:
                    table._define(alpha, column)
                    if table.defined > max_cosets:
                        return True
        alpha += 1
    return False


def _definition_first(
    table: CosetTable, relators: tuple[Word, ...], max_cosets: int, validate: bool
) -> bool:
    n = table.ncols
    # every distinct cyclic conjugate of each relator, filed under the column
    # of its first letter; entries are pushed both ways, so a cycle through
    # an entry is found in whichever direction it runs
    by_column: list[list[_Compiled]] = [[] for _ in range(n)]
    seen: set[Word] = set()
    for relator in relators:
        for i in range(len(relator)):
            conjugate = relator[i:] + relator[:i]
            if conjugate not in seen:
                seen.add(conjugate)
                by_column[table.column(conjugate[0])].append(_compile(conjugate))
    # no table entry leads into a length-1 relator's cycle before the scan
    # that defines it, so each new coset is scanned against them directly
    short = [_compile(r) for r in relators if len(r) == 1]
    tab, parent = table.table, table.parent
    stack = table.deductions = []
    new = 0
    hole = 0
    while True:
        for forward, backward in short:
            table._scan(new, forward, backward, False)
        while stack:
            position = stack.pop()
            coset, column = divmod(position, n)
            for forward, backward in by_column[column]:
                if parent[coset] != coset:
                    break
                table._scan(coset, forward, backward, False)
        if validate:
            table.check_consistency()
        # rows before the hole are full or dead, and live rows only gain
        # entries, so the next hole is never behind this one
        while True:
            try:
                hole = tab.index(-1, hole)
            except ValueError:
                return False
            coset = hole // n
            if parent[coset] == coset:
                break
            hole = (coset + 1) * n
        if table.defined + 1 > max_cosets:
            return True
        new = table._define(coset, hole % n)
