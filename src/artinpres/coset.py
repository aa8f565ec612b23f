"""Todd-Coxeter coset enumeration over the trivial subgroup.

The enumerator semidecides finiteness of a finitely presented group: when
the coset table closes, the number of live cosets equals the group order.
The budget bounds the cosets ever defined (live plus collapsed); no
strategy passes it.  The table holds the budget and refuses the
definition that would pass it, so infinite groups come back as Exceeded,
which callers must treat as "no information", never as "infinite".

The table keeps one row per coset, a list of its entries, so a scan step is
one subscript of a row.  A generator g with g^2 or g^-2 among the relators
is an involution and gets one column, its own inverse; every other
generator gets two, one for g and one for g^-1.  The relators are folded
onto the columns once: g^-1 reads as g for an involution and adjacent g g
cancel, so g^2 vanishes, since the column enforces it.  Defining one entry
of an involution's column then defines the one coset the group has there,
where two columns would make two and leave a merge to remove the spare.

A coincidence folds each dead row into its representative and then
releases it, so memory follows the live cosets, not every coset ever
defined, and no coset is renumbered.  The merge, _merge, takes two
distinct live cosets, the only kind a walk along live rows finds, and in
its fold resolves representatives inline, calling the compressing find
only for a coset more than one step from its representative.  Each
strategy makes one scan call per coset it traces, against all the
relators that apply there.  Both share one scan: one forward walk per
relator, and a backward walk from the far end only where the forward walk
meets an undefined entry.  Relator-first scans the cosets in increasing
order, so at each coset it leaves out the reflected relators, such as
every Coxeter relator (s t)^m between two involutions, whose cycle there
the scan of an earlier coset has closed; _relator_first decides this once
per coset, from the coset's row, and gives the argument.

Two deterministic strategies are provided (Holt, Eick and O'Brien,
*Handbook of Computational Group Theory*, ch. 5).  RELATOR_FIRST is the
classic scan-and-fill loop: each coset in definition order is traced around
every relator, defining new cosets to bridge gaps, and then has its
remaining table entries filled.  DEFINITION_FIRST is Felsch's strategy.
It defines one coset at a time, at the first hole of the table, found by a
pointer that only moves forward: rows before it are full or released, and
live rows only gain entries.  Every entry the table gains, by a definition, a
deduction or a coincidence, goes on a stack of deductions together with its
inverse entry.  Processing one scans, at its coset, only the cyclic
conjugates of the relators that begin with its column; with both entries
pushed (in one column for an involution), that covers every relator cycle
through the new edge, in either direction.  No edge leads into the cycle
of a length-1 relator before the scan that closes it, so each new coset is
also scanned once against the length-1 relators.  When the stack runs dry, the table is closed under
every deduction and coincidence the relators force, so exactly the cosets
are defined that a rescan of every coset against every relator between
definitions would define.  Both strategies agree on the group order
whenever both terminate.  The CLI's coset command runs RELATOR_FIRST.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable
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
    """RELATOR_FIRST is the default and the one strategy the CLI runs.
    DEFINITION_FIRST stays only because benchmarks/coset_orders.py still
    runs it; ROADMAP item 4 retires it after item 16's benchmark-only
    change drops those cases."""

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
    not take part in equality.  No strategy passes the budget, so
    cosets_defined always equals limit."""

    limit: int
    cosets_defined: int = field(default=0, compare=False)
    peak_live: int = field(default=0, compare=False)
    coincidences: int = field(default=0, compare=False)


EnumResult = Finite | Exceeded

# A relator compiled for scanning: its letters as (index, column) pairs,
# and the column of each letter's inverse, read backward.
_Compiled = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]

class _BudgetExhausted(Exception):
    """The table refused to define a coset past its budget."""


class CosetTable:
    """Partial multiplication table on cosets of the trivial subgroup.

    rows[c] is the row of coset c: a list of ncols entries, -1 marking an
    undefined one.  columns maps each letter to its column and inverse each
    column to the column of the inverse letter.  The generators take their
    columns in order: x_k one column that is its own inverse when k is
    among the involutions given to the constructor, else a column for x_k
    followed by one for x_k^-1.  Every entry has its inverse entry; in a
    self-inverse column, the edge c -> d is the entry of both c and d.

    Coincidences are handled by union-find with the smaller coset as
    representative, so coset 0 never dies.  A merge folds each dead row
    into its representative and repoints the entries that named it, so once
    _merge() returns, live rows refer to live cosets only and scans need no
    representative lookups.  Once folded, a dead coset is named by no entry
    and its row is released (rows[c] is None), so the table holds at most
    peak_live rows while no coset is renumbered.

    The budget given to the constructor bounds the cosets ever defined:
    _define, the only code that makes a coset, raises _BudgetExhausted in
    place of making one past it, and leaves the table as it was.

    When deductions is a list, every entry the table gains is pushed on it
    as its position c * ncols + column, together with its inverse entry:
    _scan pushes each deduction, and a merge every defined entry of each
    surviving row.  _define pushes nothing.  While a deduction stack exists
    _scan stops at a gap it would bridge, so the Felsch loop in
    _definition_first makes every definition, pushes the entry it made,
    and drains the stack.
    """

    def __init__(self, ngens: int, max_cosets: int, involutions: Collection[int] = ()) -> None:
        self.ngens = ngens
        self.max_cosets = max_cosets
        self.columns: dict[int, int] = {}
        self.inverse: list[int] = []
        for k in range(1, ngens + 1):
            column = len(self.inverse)
            if k in involutions:
                self.columns[k] = self.columns[-k] = column
                self.inverse.append(column)
            else:
                self.columns[k], self.columns[-k] = column, column + 1
                self.inverse += (column + 1, column)
        self.ncols = len(self.inverse)
        self.rows: list[list[int] | None] = [[-1] * self.ncols]
        self.parent: list[int] = [0]
        self.live = 1
        self.defined = 1
        self.peak_live = 1
        self.coincidences = 0
        self.deductions: list[int] | None = None

    def column(self, letter: int) -> int:
        return self.columns[letter]

    def fold(self, word: Word) -> tuple[int, ...]:
        """The columns a scan of the word follows, freely reduced on the
        inverse map: an involution's x_k^-1 reads as x_k, and x_k x_k
        cancels."""
        inverse = self.inverse
        path: list[int] = []
        for column in map(self.columns.__getitem__, word):
            if path and path[-1] == inverse[column]:
                path.pop()
            else:
                path.append(column)
        return tuple(path)

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
        if new == self.max_cosets:
            raise _BudgetExhausted
        back = self.inverse[column]
        row = [-1] * self.ncols
        row[back] = coset
        rows = self.rows
        rows[coset][column] = new
        rows.append(row)
        self.parent.append(new)
        self.defined = new + 1
        self.live = live = self.live + 1
        if live > self.peak_live:
            self.peak_live = live
        return new

    def _merge(self, a: int, b: int) -> None:
        """Identify two cosets and fold tables, queueing induced
        coincidences until none remain; each dead row is released once
        folded.  Precondition: a != b and both are live, as _scan ensures.

        The finds in the fold are inline: a coset that is live, or one step
        from its representative, is resolved by two subscripts, and only a
        longer path calls rep(), which compresses it.  So the unions, and
        the compressed parent links, are exactly those of one rep() call
        per find.
        """
        self.coincidences += 1
        rows, parent, rep, inverse = self.rows, self.parent, self.rep, self.inverse
        if b < a:
            a, b = b, a
        parent[b] = a
        dead = [b]
        for gamma in dead:  # the unions below append while this loop runs
            # enumerate reads the row as it goes: a loop at gamma clears
            # the inverse entry ahead of the walk, or in a self-inverse
            # column the entry just read
            for column, delta in enumerate(rows[gamma]):
                if delta < 0:
                    continue
                back = inverse[column]
                rows[delta][back] = -1
                mu = parent[gamma]
                if parent[mu] != mu:
                    mu = rep(gamma)
                nu = parent[delta]
                if parent[nu] != nu:
                    nu = rep(delta)
                mu_row, nu_row = rows[mu], rows[nu]
                # the representative kept, and the coset to identify with it
                if mu_row[column] >= 0:
                    keep, other = nu, mu_row[column]
                elif nu_row[back] >= 0:
                    keep, other = mu, nu_row[back]
                else:
                    mu_row[column] = nu
                    nu_row[back] = mu
                    continue
                root = parent[other]
                if parent[root] != root:
                    root = rep(other)
                if root != keep:
                    if root < keep:
                        keep, root = root, keep
                    parent[root] = keep
                    dead.append(root)
            rows[gamma] = None
        self.live -= len(dead)
        if self.deductions is not None:
            n = self.ncols
            for mu in dict.fromkeys(map(rep, dead)):
                for column, target in enumerate(rows[mu]):
                    if target >= 0:
                        self.deductions += (mu * n + column, target * n + inverse[column])

    def _scan(self, coset: int, relators: list[_Compiled]) -> None:
        """Trace, in order, the cycle each compiled relator forces at a
        coset; returns as soon as the coset dies.

        Walks every relator it is given: forward along defined entries,
        then, if the walk meets an undefined entry, backward from the far
        end.  A one-letter gap becomes a deduction, a mismatch at the
        meeting point a coincidence.  Without a deduction stack
        (relator-first), wider gaps are bridged by defining new cosets, so
        each scan completes unless the budget runs out; Felsch leaves them
        for a later definition.  Both walks follow live rows, so _merge
        gets the two distinct live cosets it requires.  Only a merge can
        kill the coset, so liveness is checked on entry and after each
        merge.
        """
        rows, parent, deductions, n = self.rows, self.parent, self.deductions, self.ncols
        if parent[coset] != coset:
            return
        for steps, backward in relators:
            f = coset
            for i, column in steps:
                nxt = rows[f][column]
                if nxt < 0:
                    break
                f = nxt
            else:
                # the forward walk covered the word; it must end where it began
                if f != coset:
                    self._merge(f, coset)
                    if parent[coset] != coset:
                        return
                continue
            b = coset
            j = len(backward) - 1
            while True:
                while j >= i:
                    nxt = rows[b][backward[j]]
                    if nxt < 0:
                        break
                    b = nxt
                    j -= 1
                if j < i:
                    # both walks covered the word; the junction cosets coincide
                    if f != b:
                        self._merge(f, b)
                        if parent[coset] != coset:
                            return
                    break
                column = steps[i][1]
                if i == j:
                    rows[f][column] = b
                    rows[b][backward[i]] = f
                    if deductions is not None:
                        deductions += (f * n + column, b * n + backward[i])
                    break
                if deductions is not None:
                    break
                # the new coset's one entry is the inverse of letter i; the
                # relators are folded, so letter i + 1 is not that inverse,
                # and a forward walk could not leave the new coset
                f = self._define(f, column)
                i += 1

    def check_consistency(self) -> None:
        """The invariant _merge() restores and _scan relies on: a coset has a
        row exactly while it is live, and every entry of a live row names a
        live coset whose inverse entry points straight back.  So a walk
        along the table meets live cosets only, which is what _merge
        requires of its two arguments.  Assertable between scans."""
        rows, parent, inverse = self.rows, self.parent, self.inverse
        if len(rows) != self.defined:
            raise AssertionError(f"{len(rows)} rows for {self.defined} cosets")
        for coset, row in enumerate(rows):
            if (row is None) == (parent[coset] == coset):
                state = "live coset without" if row is None else "dead coset keeps"
                raise AssertionError(f"{state} its row: {coset}")
            if row is None:
                continue
            for column, target in enumerate(row):
                if target >= 0 and (
                    parent[target] != target or rows[target][inverse[column]] != coset
                ):
                    raise AssertionError(
                        f"table inconsistent at coset {coset}, column {column}"
                    )


def _compile(path: tuple[int, ...], inverse: list[int]) -> _Compiled:
    return tuple(enumerate(path)), tuple(map(inverse.__getitem__, path))


def _involutions(relators: Iterable[Word]) -> set[int]:
    """The generators g with g^2 or g^-2 among the (reduced) relators."""
    return {abs(r[0]) for r in relators if len(r) == 2 and r[0] == r[1]}


def _mirror_columns(path: tuple[int, ...], inverse: list[int]) -> tuple[int, ...]:
    """The pair of columns at which relator-first may leave a folded
    relator path out of a coset's scan; empty when the path has no
    reflection.

    An end of the path qualifies when its column is its own inverse and
    the rest of the path, without that column, equals its own inverse.
    With one qualifying end the pair repeats its column.
    """
    inverted = tuple(inverse[column] for column in reversed(path))
    ends = []
    if inverse[path[0]] == path[0] and path[1:] == inverted[:-1]:
        ends.append(path[0])
    if inverse[path[-1]] == path[-1] and path[:-1] == inverted[1:]:
        ends.append(path[-1])
    return (ends[0], ends[-1]) if ends else ()


def enumerate_cosets(
    presentation: FinitePresentation,
    max_cosets: int = 100_000,
    strategy: Strategy = Strategy.RELATOR_FIRST,
) -> EnumResult:
    """Enumerate cosets of the trivial subgroup.

    Returns Finite(order, total defined) when the table closes, in which
    case order is exactly the group order, or Exceeded(max_cosets) when
    closing it would define more than max_cosets cosets.  The budget bounds
    the cosets ever defined; no strategy passes it.  Deterministic for a
    fixed strategy: a run that closes after defining D cosets gives the
    same Finite under every budget of at least D, and Exceeded under any
    smaller one.
    """
    if max_cosets < 1:
        raise ValueError("max_cosets must be at least 1")
    relators = presentation.relators
    table = CosetTable(presentation.ngens, max_cosets, _involutions(relators))
    run = _relator_first if strategy is Strategy.RELATOR_FIRST else _definition_first
    try:
        run(table, relators)
    except _BudgetExhausted:
        return Exceeded(max_cosets, table.defined, table.peak_live, table.coincidences)
    return Finite(table.live, table.defined, table.peak_live, table.coincidences)


def _relator_first(table: CosetTable, relators: tuple[Word, ...]) -> None:
    """Scan each live coset in increasing order against the relators, then
    define its remaining entries.

    A relator with mirror columns is left out at a coset alpha whose entry
    in either column is a coset e < alpha.  Say the relator is a w with a
    an involution and w equal to its own inverse, and e = alpha * a.  Then
    e is live, since live rows name only live cosets, so it was scanned
    against the relator, and the cycle that scan closed,
    e -a-> alpha -w-> e, which every merge since has kept closed, read
    backward gives e -w-> alpha, as w^-1 = w.  So alpha's cycle,
    alpha -a-> e -w-> alpha, is closed too.  For w a and its last column
    the argument is the mirror image.  The rule is read off alpha's row
    once, before its scan; while alpha lives, a merge only lowers or
    defines its entries, so each relator left out would walk a closed
    cycle, which neither defines nor merges, and the table is as if every
    relator were walked.  The relators to walk depend only on which
    entries of the row name an earlier coset, so they are kept per such
    pattern, for at most 256 patterns; past that, a new pattern selects
    them afresh at each coset.
    """
    inverse = table.inverse
    paths = [p for p in map(table.fold, relators) if p]
    compiled = [_compile(p, inverse) for p in paths]
    # each relator with its mirror pair, (-1, -1) for one that has none
    mirrored = [(c, *(_mirror_columns(p, inverse) or (-1, -1))) for c, p in zip(compiled, paths)]
    if all(a < 0 for _, a, _ in mirrored):
        mirrored = []
    walks: dict[bytes, list[_Compiled]] = {}
    rows, parent = table.rows, table.parent
    alpha = 0
    while alpha < table.defined:
        if parent[alpha] == alpha:
            walk = compiled
            if mirrored:
                row = rows[alpha]
                # which entries name an earlier coset; -1 is no coset
                if -1 in row:
                    earlier = bytes(0 <= e < alpha for e in row)
                else:
                    earlier = bytes(map(alpha.__gt__, row))
                walk = walks.get(earlier)
                if walk is None:
                    walk = [c for c, a, b in mirrored if a < 0 or not (earlier[a] or earlier[b])]
                    if len(walks) < 256:  # Coxeter S8 meets 128
                        walks[earlier] = walk
            table._scan(alpha, walk)
            # a row is mostly full once scanned, which `in` checks in C
            if parent[alpha] == alpha and -1 in (row := rows[alpha]):
                for column, target in enumerate(row):
                    if target < 0:
                        table._define(alpha, column)
        alpha += 1


def _definition_first(table: CosetTable, relators: tuple[Word, ...]) -> None:
    n = table.ncols
    # every distinct cyclic conjugate of each relator, filed under the column
    # of its first letter; entries are pushed both ways, so a cycle through
    # an entry is found in whichever direction it runs
    paths = [p for p in map(table.fold, relators) if p]
    by_column: list[list[_Compiled]] = [[] for _ in range(n)]
    seen: set[tuple[int, ...]] = set()
    for path in paths:
        for i in range(len(path)):
            conjugate = path[i:] + path[:i]
            if conjugate not in seen:
                seen.add(conjugate)
                by_column[conjugate[0]].append(_compile(conjugate, table.inverse))
    # no table entry leads into a length-1 relator's cycle before the scan
    # that defines it, so each new coset is scanned against them directly
    short = [_compile(p, table.inverse) for p in paths if len(p) == 1]
    rows = table.rows
    stack = table.deductions = []
    new = 0
    hole = 0
    while True:
        table._scan(new, short)
        while stack:
            coset, column = divmod(stack.pop(), n)
            table._scan(coset, by_column[column])
        # rows before the hole are full or released, and live rows only gain
        # entries, so the next hole is never behind this one
        while (row := rows[hole]) is None or -1 not in row:
            hole += 1
            if hole == table.defined:
                return
        column = row.index(-1)
        new = table._define(hole, column)
        stack += (hole * n + column, new * n + table.inverse[column])
