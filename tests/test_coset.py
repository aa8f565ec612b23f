import random
from math import factorial
from operator import mul
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from artinpres.coset import (
    CosetTable,
    Exceeded,
    Finite,
    FinitePresentation,
    Strategy,
    _BudgetExhausted,
    _compile,
    _definition_first,
    _involutions,
    _mirror_columns,
    _relator_first,
    enumerate_cosets,
)
from artinpres.triangle import enumerate_trivial, triangle_quotient
from artinpres.twogen import build_r2

T235 = FinitePresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 5))
# the Euclidean triangle group T(3,3,3) is infinite
T333 = FinitePresentation(2, ((1,) * 3, (2,) * 3, (1, 2) * 3))
PSL27 = FinitePresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 7, (-1, -2, 1, 2) * 4))
Q8 = FinitePresentation(2, ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
# <x, y | xyx^-1 y^-2, yxy^-1 x^-2> collapses only through coincidences
COINCIDENT = FinitePresentation(2, ((1, 2, -1, -2, -2), (2, 1, -2, -1, -1)))
# <a, b, x | a^2, b^2, (ab)^5, a x a x^-1, b x b x, x^3>: a fixes x and b
# inverts it, so (ab)^5 inverts x, which collapses, leaving D5 of order 10
REFLECTED = FinitePresentation(
    3, ((1, 1), (2, 2), (1, 2) * 5, (1, 3, 1, -3), (2, 3, 2, 3), (3, 3, 3))
)
# <x | x^3, x^2> is trivial, and both relators are proper powers of one
# letter, on which a scan that stops short of the whole relator closes the
# table too early, a fault that random draws can miss for a whole run
CUBE_AND_SQUARE = FinitePresentation(1, ((1, 1, 1), (1, 1)))


def coxeter_symmetric(n):
    """Coxeter presentation of S_n on n-1 generators."""
    m = n - 1
    relators = [(i, i) for i in range(1, m + 1)]
    relators += [(i, i + 1) * 3 for i in range(1, m)]
    relators += [(i, j) * 2 for i in range(1, m + 1) for j in range(i + 2, m + 1)]
    return FinitePresentation(m, tuple(relators))


def coxeter_triangle(l, m, n):
    """Coxeter presentation of the reflection triangle group
    <a, b, c | a^2, b^2, c^2, (ab)^l, (bc)^m, (ca)^n>, which holds
    T(l, m, n) with index 2."""
    return FinitePresentation(3, ((1, 1), (2, 2), (3, 3), (1, 2) * l, (2, 3) * m, (3, 1) * n))


def rotated(presentation):
    """The presentation with each relator rotated by one letter."""
    return FinitePresentation(
        presentation.ngens, tuple(r[1:] + r[:1] for r in presentation.relators)
    )


def shuffled(presentation, seed=0):
    """The presentation with each relator rotated and the relators
    reordered by a fixed seed; neither changes the group."""
    rng = random.Random(seed)
    relators = []
    for r in presentation.relators:
        k = rng.randrange(len(r))
        relators.append(r[k:] + r[:k])
    rng.shuffle(relators)
    return FinitePresentation(presentation.ngens, tuple(relators))


def elementary_abelian(k):
    """<x_1..x_k | x_i^2, (x_i x_j)^2>, of order 2^k."""
    relators = [(i, i) for i in range(1, k + 1)]
    relators += [(i, j) * 2 for i in range(1, k + 1) for j in range(i + 1, k + 1)]
    return FinitePresentation(k, tuple(relators))


def presentation_of(t):
    return FinitePresentation(2, build_r2(t).relators)


class Checked:
    """Asserts the table invariant between scans: in relator-first after
    each relator's scan, in Felsch after each drained deduction stack, so
    before every definition at a hole and once the table closes.  Asserts
    _merge's precondition, two distinct live cosets, on every merge."""

    def _merge(self, a, b):
        assert a != b and self.is_live(a) and self.is_live(b), (a, b)
        super()._merge(a, b)

    def _scan(self, coset, relators):
        if self.deductions is None:
            for relator in relators:
                super()._scan(coset, [relator])
                self.check_consistency()
        else:
            super()._scan(coset, relators)
            if not self.deductions:
                self.check_consistency()


class CheckedCosetTable(Checked, CosetTable):
    pass


def checked_enumerate(presentation, max_cosets=100_000, strategy=Strategy.RELATOR_FIRST):
    """enumerate_cosets on a CheckedCosetTable."""
    with patch("artinpres.coset.CosetTable", CheckedCosetTable):
        return enumerate_cosets(presentation, max_cosets, strategy)


class TestFinitePresentation:
    def test_relators_reduced(self):
        p = FinitePresentation(1, ((1, -1),))
        assert p.relators == ((),)

    def test_generator_range_checked(self):
        with pytest.raises(ValueError):
            FinitePresentation(1, ((2,),))

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            FinitePresentation(-1, ())


class TestKnownOrders:
    def test_cyclic_five(self):
        result = enumerate_cosets(FinitePresentation(1, ((1,) * 5,)))
        assert isinstance(result, Finite) and result.order == 5

    def test_icosahedral_triangle_group(self):
        result = enumerate_cosets(T235)
        assert isinstance(result, Finite) and result.order == 60

    def test_binary_icosahedral(self):
        result = enumerate_cosets(presentation_of((-1, -3, 2)))
        assert isinstance(result, Finite) and result.order == 120

    def test_trivial_family_member(self):
        result = enumerate_cosets(presentation_of((5, 2, 3)))
        assert isinstance(result, Finite) and result.order == 1

    def test_empty_presentation(self):
        assert enumerate_cosets(FinitePresentation(0, ())) == Finite(1, 1)

    def test_trivially_presented_free_factor_exceeds(self):
        result = enumerate_cosets(FinitePresentation(2, ((1, 1),)), max_cosets=500)
        assert result == Exceeded(500)

    def test_euclidean_triangle_group_exceeds(self):
        assert enumerate_cosets(T333, max_cosets=2000) == Exceeded(2000)

    def test_relators_interact(self):
        # <x | x^6, x^4> has order gcd(6, 4), <x | x^3, x^2> order 1; under
        # Felsch each closes through a forward walk that ends on a coset
        # below the one scanned
        for strategy in Strategy:
            for powers, order in (((6, 4), 2), ((3, 2), 1)):
                presentation = FinitePresentation(1, tuple((1,) * m for m in powers))
                result = enumerate_cosets(presentation, strategy=strategy)
                assert isinstance(result, Finite) and result.order == order

    def test_quaternion_group(self):
        result = checked_enumerate(Q8)
        assert isinstance(result, Finite) and result.order == 8

    def test_coincidence_heavy_trivial_presentation(self):
        for strategy in Strategy:
            result = checked_enumerate(COINCIDENT, strategy=strategy)
            assert isinstance(result, Finite) and result.order == 1


class TestStrategies:
    @pytest.mark.parametrize(
        "presentation, order",
        [
            (FinitePresentation(1, ((1,) * 5,)), 5),
            (FinitePresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 3)), 12),
            (T235, 60),
            (presentation_of((5, 1, 2)), 1),
            (presentation_of((2, 1, 1)), 1),
            (presentation_of((-1, -3, 2)), 120),
        ],
    )
    def test_strategies_agree(self, presentation, order):
        hlt = enumerate_cosets(presentation, strategy=Strategy.RELATOR_FIRST)
        felsch = enumerate_cosets(presentation, strategy=Strategy.DEFINITION_FIRST)
        assert isinstance(hlt, Finite) and hlt.order == order
        assert isinstance(felsch, Finite) and felsch.order == order

    def test_deterministic(self):
        first = enumerate_cosets(T235)
        second = enumerate_cosets(T235)
        assert first == second


class TestPinnedDefinitions:
    """Exact definition counts of both strategies: a rewrite of the
    enumerator must define the same cosets in the same order, not just
    reach the same order."""

    @pytest.mark.parametrize(
        "presentation, relator_first, definition_first",
        [
            (T235, Finite(60, 66), Finite(60, 60)),
            (presentation_of((-1, -3, 2)), Finite(120, 386), Finite(120, 263)),
            (PSL27, Finite(168, 268), Finite(168, 168)),
            (coxeter_symmetric(5), Finite(120, 129), Finite(120, 120)),
            (coxeter_symmetric(6), Finite(720, 825), Finite(720, 720)),
            # x1^2 makes x1 an involution, with one self-inverse column
            (
                FinitePresentation(2, ((1, 1), (1, 2) * 4 + (1, -2, -2))),
                Finite(480, 529),
                Finite(480, 495),
            ),
            (coxeter_triangle(2, 3, 5), Finite(120, 120), Finite(120, 120)),
            (Q8, Finite(8, 8), Finite(8, 8)),
            (COINCIDENT, Finite(1, 12), Finite(1, 10)),
            # a length-1 relator: no table edge ever triggers its scan
            (FinitePresentation(2, ((-1,) * 6, (2,))), Finite(6, 6), Finite(6, 6)),
        ],
    )
    def test_cosets_defined(self, presentation, relator_first, definition_first):
        assert enumerate_cosets(presentation, strategy=Strategy.RELATOR_FIRST) == relator_first
        assert (
            enumerate_cosets(presentation, strategy=Strategy.DEFINITION_FIRST)
            == definition_first
        )


class TestBudget:
    def test_monotone_budget(self):
        # the run closes after defining exactly 66 cosets
        closure = enumerate_cosets(T235, max_cosets=66)
        assert closure == Finite(60, 66)
        for budget in (67, 200, 100_000):
            assert enumerate_cosets(T235, max_cosets=budget) == closure

    def test_exhausted_budget(self):
        assert enumerate_cosets(T235, max_cosets=65) == Exceeded(65)

    def test_exhausted_budget_on_trivial_group(self):
        # r(5,1,2) is trivial, but two cosets are not enough to show it
        assert enumerate_cosets(presentation_of((5, 1, 2)), max_cosets=2) == Exceeded(2)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            enumerate_cosets(T235, max_cosets=0)


class TestTableInternals:
    def test_consistency_checked_during_run(self):
        result = checked_enumerate(T235)
        assert isinstance(result, Finite) and result.order == 60
        result = checked_enumerate(T235, strategy=Strategy.DEFINITION_FIRST)
        assert isinstance(result, Finite) and result.order == 60

    def test_column_layout(self):
        table = CosetTable(3, 10)
        assert [table.column(k) for k in (1, -1, 3, -3)] == [0, 1, 4, 5]
        assert (table.ncols, table.inverse) == (6, [1, 0, 3, 2, 5, 4])

    def test_involution_layout(self):
        # x2 takes one column, its own inverse, and shifts x3's two
        table = CosetTable(3, 10, {2})
        assert [table.column(k) for k in (1, -1, 2, -2, 3, -3)] == [0, 1, 2, 2, 3, 4]
        assert (table.ncols, table.inverse) == (5, [1, 0, 2, 4, 3])

    def test_involutions_found_from_squares(self):
        relators = ((1, 1), (-3, -3), (2, 2, 2), (1, 2) * 2, (2, -2))
        assert _involutions(relators) == {1, 3}

    @pytest.mark.parametrize(
        "word, path",
        [
            ((2, 2), ()),
            ((-2, -2), ()),
            ((1, -2, 1, 2), (0, 2, 0, 2)),
            # x2^-1 x2^-1 folds to x2 x2, which cancels, and then x1^-1 x1
            ((1, 2, -2, -1), ()),
            ((-1, -2, -2, 1), ()),
            ((1, 2, 2, 2, -1), (0, 2, 1)),
            ((1, 1), (0, 0)),
        ],
    )
    def test_fold(self, word, path):
        assert CosetTable(2, 10, {2}).fold(word) == path

    def test_self_inverse_column_entries(self):
        # one definition makes both entries of the edge 0 -x1- 1, and a
        # fixed point is a single entry
        table = CosetTable(2, 10, {1})
        first = table.define(0, -1)
        assert table.rows == [[1, -1, -1], [0, -1, -1]]
        table.rows[first][2] = table.rows[first][1] = first
        table.check_consistency()
        table._merge(first, 0)
        assert table.rows == [[0, 0, 0], None]
        table.check_consistency()

    def test_merge_keeps_row_zero(self):
        table = CosetTable(1, 10)
        first = table.define(0, 1)
        second = table.define(first, 1)
        table._merge(second, 0)
        assert table.is_live(0)
        assert table.rep(second) == 0
        table.check_consistency()

    def test_consistency_rejects_broken_inverse_entry(self):
        table = CosetTable(1, 10)
        first = table.define(0, 1)
        table.rows[first][table.column(-1)] = -1
        with pytest.raises(AssertionError):
            table.check_consistency()

    def test_consistency_rejects_entry_into_dead_row(self):
        # 0 -x-> 1 with 1 collapsed into 0 by hand and the x^-1 entry of
        # row 0 naming 0: every entry checks out up to representatives,
        # but row 0 still names the dead coset 1
        table = CosetTable(1, 10)
        first = table.define(0, 1)
        table.parent[first] = 0
        table.live -= 1
        table.rows[0][table.column(-1)] = 0
        with pytest.raises(AssertionError):
            table.check_consistency()

    def test_merge_releases_dead_rows(self):
        # 0 -x-> 1 -x-> 2 -x-> 3 -x-> 4; identifying 4 with 2 folds the
        # chain down to a cycle of length 2, and every dead row is released
        table = CosetTable(1, 10)
        coset = 0
        for _ in range(4):
            coset = table.define(coset, 1)
        table._merge(4, 2)
        assert [table.is_live(c) for c in range(5)] == [True, True, False, False, False]
        assert table.rows[2:] == [None, None, None]
        assert table.rows[:2] == [[1, 1], [0, 0]]
        table.check_consistency()

    def test_consistency_rejects_dead_row_kept(self):
        # 0 -x-> 1 with 1 collapsed into 0 by hand and every entry naming
        # it removed: the table is consistent but for the row of 1
        table = CosetTable(1, 10)
        first = table.define(0, 1)
        table.parent[first] = 0
        table.live -= 1
        table.rows[0][table.column(1)] = -1
        with pytest.raises(AssertionError, match="dead coset keeps its row"):
            table.check_consistency()
        table.rows[first] = None
        table.check_consistency()

    def test_consistency_rejects_live_row_released(self):
        table = CosetTable(1, 10)
        first = table.define(0, 1)
        table.rows[0][table.column(1)] = -1
        table.rows[first] = None
        with pytest.raises(AssertionError, match="live coset without its row"):
            table.check_consistency()

    @pytest.mark.parametrize(
        "word, mirror",
        [
            # a Coxeter relator between two involutions, from either end
            ((1, 2) * 3, (0, 1)),
            ((2, 1) * 3, (1, 0)),
            ((1, 2) * 2, (0, 1)),
            # a x a x^-1 and a x b x^-1 from their first letter, x a x^-1 a
            # from its last
            ((1, 3, 1, -3), (0, 0)),
            ((1, 3, 2, -3), (0, 0)),
            ((3, 1, -3, 1), (0, 0)),
            ((1,), (0, 0)),
            # x3 is no involution: (x1 x3)^5 reads x3 where a mirror needs x3^-1
            ((1, 3) * 5, ()),
            ((1, 2, 3), ()),
            ((3, 1, 3, 1), ()),
        ],
    )
    def test_mirror_columns(self, word, mirror):
        table = CosetTable(3, 10, {1, 2})
        assert _mirror_columns(table.fold(word), table.inverse) == mirror

    def test_table_refuses_definition_past_budget(self):
        table = CosetTable(1, 2)
        table.define(0, 1)
        snapshot = [list(row) for row in table.rows]
        with pytest.raises(_BudgetExhausted):
            table.define(0, -1)
        assert (table.defined, table.live, table.rows) == (2, 2, snapshot)


class TestCounters:
    def test_peak_live_and_coincidences(self):
        result = enumerate_cosets(T235)
        assert (result.peak_live, result.coincidences) == (64, 3)
        result = enumerate_cosets(COINCIDENT, strategy=Strategy.DEFINITION_FIRST)
        assert (result.peak_live, result.coincidences) == (10, 3)

    def test_counters_left_out_of_equality(self):
        assert Finite(60, 82, peak_live=69, coincidences=17) == Finite(60, 82)
        assert Exceeded(400, 402, peak_live=402, coincidences=5) == Exceeded(400)

    @pytest.mark.parametrize(
        "strategy, counters",
        [(Strategy.RELATOR_FIRST, (400, 400, 0)), (Strategy.DEFINITION_FIRST, (400, 400, 0))],
    )
    def test_budget_hit_on_euclidean_triangle_group(self, strategy, counters):
        result = enumerate_cosets(T333, max_cosets=400, strategy=strategy)
        assert result == Exceeded(400)
        assert (result.cosets_defined, result.peak_live, result.coincidences) == counters

    def test_relator_first_on_symmetric_group_of_degree_seven(self):
        # a table 7 times larger than any other pin guards the definition order
        result = enumerate_cosets(coxeter_symmetric(7))
        assert result == Finite(5040, 6411)
        assert (result.peak_live, result.coincidences) == (5045, 1348)

    def test_relator_first_on_symmetric_group_of_degree_eight(self):
        # the largest table the benchmark builds; with two columns for each
        # involution it defined 106,296 cosets and made 65,236 coincidences
        result = enumerate_cosets(coxeter_symmetric(8), max_cosets=60_000)
        assert result == Finite(40320, 55119)
        assert (result.peak_live, result.coincidences) == (40325, 14670)

    def test_budget_hit_after_coincidences(self):
        # relator-first would define its 66th coset inside a scan; the
        # table refuses it and the run stops there
        result = enumerate_cosets(T235, max_cosets=65)
        assert result == Exceeded(65)
        assert (result.cosets_defined, result.peak_live, result.coincidences) == (65, 63, 1)


# Naive references: the enumerator as it was before the flat table, with
# rows as lists of None-or-coset and a definition-first strategy that
# rescans every coset against every relator until nothing changes, then
# searches for the first hole from coset 0.  Given the involutions the
# enumerator finds, they use its column layout and scan the relators folded
# as it folds them, and the rewritten enumerator must make exactly the same
# definitions.  Given none, they are the two-column enumerator, which
# defines other cosets but must find the same order.


def naive_involutions(presentation):
    return {
        k
        for k in range(1, presentation.ngens + 1)
        if (k, k) in presentation.relators or (-k, -k) in presentation.relators
    }


def naive_fold(word, involutions):
    """x_k^-1 read as x_k for an involution x_k, then adjacent inverse
    letters cancelled, where an involution is its own inverse."""
    folded = []
    for letter in word:
        if -letter in involutions:
            letter = -letter
        inverse = letter if letter in involutions else -letter
        if folded and folded[-1] == inverse:
            folded.pop()
        else:
            folded.append(letter)
    return tuple(folded)


class NaiveCosetTable:
    def __init__(self, ngens, involutions=()):
        # x_k's column, then x_k^-1's unless x_k is an involution
        self.columns = {}
        self.letters = []
        for k in range(1, ngens + 1):
            self.columns[k] = self.columns[-k] = len(self.letters)
            self.letters.append(k)
            if k not in involutions:
                self.columns[-k] = len(self.letters)
                self.letters.append(-k)
        self.ncols = len(self.letters)
        self.rows = [[None] * self.ncols]
        self.parent = [0]
        self.live = 1
        self.defined = 1

    def column(self, letter):
        return self.columns[letter]

    def rep(self, coset):
        while self.parent[coset] != coset:
            coset = self.parent[coset]
        return coset

    def is_live(self, coset):
        return self.parent[coset] == coset

    def entry(self, coset, letter):
        raw = self.rows[coset][self.column(letter)]
        return None if raw is None else self.rep(raw)

    def set_entry(self, coset, letter, target):
        self.rows[coset][self.column(letter)] = target
        self.rows[target][self.column(-letter)] = coset

    def define(self, coset, letter):
        new = len(self.rows)
        self.rows.append([None] * self.ncols)
        self.parent.append(new)
        self.live += 1
        self.defined += 1
        self.set_entry(coset, letter, new)
        return new

    def merge(self, a, b):
        queue = [(a, b)]
        while queue:
            a, b = queue.pop()
            a, b = self.rep(a), self.rep(b)
            if a == b:
                continue
            if b < a:
                a, b = b, a
            self.parent[b] = a
            self.live -= 1
            row_a, row_b = self.rows[a], self.rows[b]
            for column in range(self.ncols):
                target = row_b[column]
                if target is None:
                    continue
                if row_a[column] is None:
                    row_a[column] = target
                else:
                    queue.append((row_a[column], target))

    def scan(self, start, word, fill):
        changed = False
        f = b = self.rep(start)
        i, j = 0, len(word) - 1
        while True:
            while i <= j:
                nxt = self.entry(f, word[i])
                if nxt is None:
                    break
                f = nxt
                i += 1
            if i > j:
                if f != b:
                    self.merge(f, b)
                    changed = True
                return changed
            while j >= i:
                nxt = self.entry(b, -word[j])
                if nxt is None:
                    break
                b = nxt
                j -= 1
            if j < i:
                if f != b:
                    self.merge(f, b)
                    changed = True
                return changed
            if i == j:
                self.set_entry(f, word[i], b)
                return True
            if not fill:
                return changed
            f = self.define(f, word[i])
            changed = True
            i += 1


def naive_setup(presentation, involutions):
    """The table and the folded nonempty relators; involutions None means
    those the enumerator finds."""
    if involutions is None:
        involutions = naive_involutions(presentation)
    relators = [naive_fold(r, involutions) for r in presentation.relators]
    return NaiveCosetTable(presentation.ngens, involutions), [r for r in relators if r]


def naive_relator_first(presentation, max_cosets, involutions=None):
    table, relators = naive_setup(presentation, involutions)
    alpha = 0
    while alpha < len(table.rows):
        if not table.is_live(alpha):
            alpha += 1
            continue
        for relator in relators:
            table.scan(alpha, relator, fill=True)
            if table.defined > max_cosets:
                return Exceeded(max_cosets)
            if not table.is_live(alpha):
                break
        if table.is_live(alpha):
            row = table.rows[alpha]
            for column in range(table.ncols):
                if row[column] is None:
                    table.define(alpha, table.letters[column])
                    if table.defined > max_cosets:
                        return Exceeded(max_cosets)
        alpha += 1
    return Finite(table.live, table.defined)


def naive_definition_first(presentation, max_cosets, involutions=None):
    table, relators = naive_setup(presentation, involutions)
    while True:
        changed = True
        while changed:
            changed = False
            for alpha in range(len(table.rows)):
                for relator in relators:
                    if not table.is_live(alpha):
                        break
                    if table.scan(alpha, relator, fill=False):
                        changed = True
        hole = next(
            (
                (coset, column)
                for coset in range(len(table.rows))
                if table.is_live(coset)
                for column in range(table.ncols)
                if table.rows[coset][column] is None
            ),
            None,
        )
        if hole is None:
            return Finite(table.live, table.defined)
        if table.defined + 1 > max_cosets:
            return Exceeded(max_cosets)
        table.define(hole[0], table.letters[hole[1]])


NAIVE = {
    Strategy.RELATOR_FIRST: naive_relator_first,
    Strategy.DEFINITION_FIRST: naive_definition_first,
}


@st.composite
def small_presentations(draw):
    ngens = draw(st.integers(1, 3))
    letter = st.integers(-ngens, ngens).filter(bool)
    word = st.lists(letter, min_size=1, max_size=8)
    # proper powers u^m, such as the (x1 x2)^c of triangle_quotient
    power = st.builds(mul, st.lists(letter, min_size=1, max_size=3), st.integers(2, 5))
    # squares x_k^2, which make x_k an involution with one table column
    square = letter.map(lambda k: (k, k))
    relators = draw(st.lists(st.one_of(word, power, square), min_size=1, max_size=4))
    return FinitePresentation(ngens, tuple(map(tuple, relators)))


@st.composite
def coxeter_presentations(draw):
    """A Coxeter presentation of rank 2-4, its relators rotated and
    shuffled, sometimes with a relator a x a x^-1 on a further generator x."""
    rank = draw(st.integers(2, 4))
    relators = [(i, i) for i in range(1, rank + 1)]
    for i in range(1, rank + 1):
        for j in range(i + 1, rank + 1):
            relators.append((i, j) * draw(st.integers(2, 6)))
    ngens = rank
    if draw(st.booleans()):
        ngens += 1
        a = draw(st.integers(1, rank))
        relators += [(a, ngens, a, -ngens), (ngens,) * draw(st.integers(2, 4))]
    rotations = [draw(st.integers(0, len(r) - 1)) for r in relators]
    relators = [r[k:] + r[:k] for r, k in zip(relators, rotations)]
    return FinitePresentation(ngens, tuple(draw(st.permutations(relators))))


class TestBudgetBound:
    """The budget bounds the cosets ever defined; no strategy passes it.
    A run stops exactly at the budget, and a budget changes only where a
    run stops, never the definitions it makes."""

    @settings(max_examples=200, deadline=None)
    @given(small_presentations(), st.integers(1, 60), st.sampled_from(list(Strategy)))
    def test_stops_exactly_at_budget(self, presentation, budget, strategy):
        result = enumerate_cosets(presentation, budget, strategy)
        if isinstance(result, Finite):
            assert result.cosets_defined <= budget
        else:
            assert result.cosets_defined == budget
        closure = enumerate_cosets(presentation, 10_000, strategy)
        if isinstance(closure, Finite):
            if closure.cosets_defined <= budget:
                assert result == closure
            else:
                assert result == Exceeded(budget)


class TestAgainstNaiveReference:
    @settings(max_examples=60, deadline=None)
    @given(small_presentations(), st.sampled_from([50, 400]))
    @example(CUBE_AND_SQUARE, 50)
    def test_relator_first(self, presentation, budget):
        result = checked_enumerate(presentation, budget, Strategy.RELATOR_FIRST)
        assert result == naive_relator_first(presentation, budget)

    @settings(max_examples=30, deadline=None)
    @given(small_presentations(), st.sampled_from([50, 400]))
    @example(CUBE_AND_SQUARE, 50)
    def test_definition_first(self, presentation, budget):
        result = checked_enumerate(presentation, budget, Strategy.DEFINITION_FIRST)
        assert result == naive_definition_first(presentation, budget)

    # triples on which a Felsch loop that drops a deduction (a one-way push,
    # no push after a coincidence) or skips a hole defines other cosets
    @pytest.mark.parametrize(
        "t", [(-6, -4, -3), (-5, 3, 2), (-6, -6, -1), (-6, 1, 2), (-4, -1, 1), (-5, 0, 2)]
    )
    def test_definition_first_on_r2_triples(self, t):
        presentation = presentation_of(t)
        result = checked_enumerate(presentation, 50, Strategy.DEFINITION_FIRST)
        assert result == naive_definition_first(presentation, 50)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_pinned_presentations(self, strategy):
        for presentation in (T235, PSL27, Q8, COINCIDENT, presentation_of((-1, -3, 2))):
            result = checked_enumerate(presentation, strategy=strategy)
            assert result == NAIVE[strategy](presentation, 100_000)


class TestAgainstTwoColumnReference:
    """One column per involution changes which cosets are defined, never
    the order: wherever both close, the enumerator finds the order of the
    naive enumerator that gives every generator two columns."""

    @settings(max_examples=150, deadline=None)
    @given(small_presentations(), st.sampled_from(list(Strategy)))
    @example(T235, Strategy.RELATOR_FIRST)
    @example(PSL27, Strategy.DEFINITION_FIRST)
    def test_same_order(self, presentation, strategy):
        result = checked_enumerate(presentation, 200, strategy)
        reference = NAIVE[strategy](presentation, 200, involutions=())
        if isinstance(result, Finite) and isinstance(reference, Finite):
            assert result.order == reference.order

    def test_fewer_cosets_on_coxeter_presentations(self):
        for n in (4, 5, 6):
            result = enumerate_cosets(coxeter_symmetric(n))
            reference = naive_relator_first(coxeter_symmetric(n), 100_000, involutions=())
            assert result.order == reference.order == factorial(n)
            assert result.cosets_defined < reference.cosets_defined


# (l, m, n) and the order of <x, y | x^l, y^m, (xy)^n>: the dihedral
# group of order 2n, the tetrahedral, octahedral and icosahedral groups
SPHERICAL = [((2, 2, n), 2 * n) for n in range(2, 13)] + [
    ((2, 3, 3), 12),
    ((2, 3, 4), 24),
    ((2, 3, 5), 60),
]


class TestClosedForms:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SPHERICAL), st.sampled_from(list(Strategy)))
    def test_spherical_triangle_orders(self, case, strategy):
        (l, m, n), order = case
        presentation = FinitePresentation(2, ((1,) * l, (2,) * m, (1, 2) * n))
        result = enumerate_cosets(presentation, strategy=strategy)
        assert isinstance(result, Finite) and result.order == order

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("case", SPHERICAL)
    def test_reflection_triangle_orders(self, case, strategy):
        (l, m, n), order = case
        result = checked_enumerate(coxeter_triangle(l, m, n), strategy=strategy)
        assert isinstance(result, Finite) and result.order == 2 * order

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(list(enumerate_trivial(6))))
    def test_strategies_agree_on_trivial_family(self, t):
        presentation = presentation_of(t)
        orders = {
            enumerate_cosets(presentation, strategy=strategy).order for strategy in Strategy
        }
        assert orders == {1}


# Reference: the scan and merge of the per-coset-row table before the
# reflection skip and the inline finds, and a relator-first loop that
# walks every relator at every coset, so leaves no reflected relator out.
# Every scan walks the whole relator forward, liveness is checked before
# every relator, and every find is a rep() call made through a union
# closure.  The current table must leave the same rows and parent links,
# so the same representatives, after every enumeration.


def relator_first_walking_every_relator(table, relators):
    compiled = [_compile(p, table.inverse) for p in map(table.fold, relators) if p]
    alpha = 0
    while alpha < table.defined:
        if table.is_live(alpha):
            table._scan(alpha, compiled)
            if table.is_live(alpha):
                for column, target in enumerate(table.rows[alpha]):
                    if target < 0:
                        table._define(alpha, column)
        alpha += 1


class IndexedWalkCosetTable(CosetTable):
    def _merge(self, a, b):
        self.coincidences += 1
        rows, rep, inverse = self.rows, self.rep, self.inverse
        dead = []

        def union(a, b):
            a, b = rep(a), rep(b)
            if a != b:
                if b < a:
                    a, b = b, a
                self.parent[b] = a
                self.live -= 1
                dead.append(b)

        union(a, b)
        for gamma in dead:
            for column, delta in enumerate(rows[gamma]):
                if delta < 0:
                    continue
                back = inverse[column]
                rows[delta][back] = -1
                mu, nu = rep(gamma), rep(delta)
                mu_row, nu_row = rows[mu], rows[nu]
                if mu_row[column] >= 0:
                    union(nu, mu_row[column])
                elif nu_row[back] >= 0:
                    union(mu, nu_row[back])
                else:
                    mu_row[column] = nu
                    nu_row[back] = mu
            rows[gamma] = None
        if self.deductions is not None:
            n = self.ncols
            for mu in dict.fromkeys(map(rep, dead)):
                for column, target in enumerate(rows[mu]):
                    if target >= 0:
                        self.deductions += (mu * n + column, target * n + inverse[column])

    def _scan(self, coset, relators):
        rows, parent, deductions, n = self.rows, self.parent, self.deductions, self.ncols
        for steps, backward in relators:
            if parent[coset] != coset:
                return
            f = coset
            for i, column in steps:
                nxt = rows[f][column]
                if nxt < 0:
                    break
                f = nxt
            else:
                if f != coset:
                    self._merge(f, coset)
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
                    if f != b:
                        self._merge(f, b)
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
                f = self._define(f, column)
                i += 1


class CheckedIndexedWalkCosetTable(Checked, IndexedWalkCosetTable):
    pass


def run_table(table_class, presentation, budget, strategy):
    """The table enumerate_cosets builds, left as the run ends; a
    reference table runs the reference relator-first loop."""
    table = table_class(presentation.ngens, budget, _involutions(presentation.relators))
    if strategy is Strategy.DEFINITION_FIRST:
        run = _definition_first
    elif issubclass(table_class, IndexedWalkCosetTable):
        run = relator_first_walking_every_relator
    else:
        run = _relator_first
    try:
        run(table, presentation.relators)
    except _BudgetExhausted:
        pass
    return table


def table_state(table):
    return (
        table.rows,
        table.parent,
        table.live,
        table.defined,
        table.peak_live,
        table.coincidences,
    )


def result_fields(result):
    return (type(result).__name__, *vars(result).values())


class TestAgainstIndexedWalkReference:
    @settings(max_examples=120, deadline=None)
    @given(small_presentations(), st.sampled_from([50, 400]), st.sampled_from(list(Strategy)))
    @example(CUBE_AND_SQUARE, 50, Strategy.RELATOR_FIRST)
    @example(CUBE_AND_SQUARE, 50, Strategy.DEFINITION_FIRST)
    def test_same_table_and_counters(self, presentation, budget, strategy):
        table = run_table(CheckedCosetTable, presentation, budget, strategy)
        reference = run_table(CheckedIndexedWalkCosetTable, presentation, budget, strategy)
        assert table_state(table) == table_state(reference)
        result = checked_enumerate(presentation, budget, strategy)
        if isinstance(result, Finite):
            expected = ("Finite", reference.live, reference.defined)
        else:
            expected = ("Exceeded", budget, reference.defined)
        assert result_fields(result) == expected + (reference.peak_live, reference.coincidences)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_coincidence_heavy_tables(self, strategy):
        # relator-first on the rank-3 presentation finds a coset two steps
        # from its representative as the second coset of a union, so a find
        # there that does not compress leaves other parent links
        deep_find = FinitePresentation(
            3, ((-1, 3, 2, 1, -3), (2, -3, 2, -1, 3, 3), (1, 3, 1, 2))
        )
        # triangle_quotient's own (x1 x2)^c relators are proper powers with
        # no reflection, as neither generator is an involution
        presentations = (
            T235,
            PSL27,
            COINCIDENT,
            coxeter_symmetric(6),
            deep_find,
            triangle_quotient((1, 3, -2)),
            triangle_quotient((3, 8, 5)),
        )
        for presentation in presentations:
            table = run_table(CosetTable, presentation, 100_000, strategy)
            reference = run_table(IndexedWalkCosetTable, presentation, 100_000, strategy)
            assert table_state(table) == table_state(reference)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize(
        "presentation",
        # rotated by one letter, a Coxeter relator (ab)^m reads (ba)^m, and
        # a x a x^-1 reads x a x^-1 a, whose mirror is its last column
        [rotated(coxeter_symmetric(n)) for n in (4, 5, 6, 7)]
        + [coxeter_triangle(2, 3, 5), REFLECTED, rotated(REFLECTED)],
        ids=["S4", "S5", "S6", "S7", "Delta(2,3,5)", "reflected", "reflected rotated"],
    )
    def test_reflected_relators(self, presentation, strategy):
        table = run_table(CosetTable, presentation, 100_000, strategy)
        reference = run_table(IndexedWalkCosetTable, presentation, 100_000, strategy)
        assert table_state(table) == table_state(reference)

    @settings(max_examples=60, deadline=None)
    @given(coxeter_presentations(), st.sampled_from([50, 400]), st.sampled_from(list(Strategy)))
    def test_random_coxeter_presentations(self, presentation, budget, strategy):
        table = run_table(CheckedCosetTable, presentation, budget, strategy)
        reference = run_table(CheckedIndexedWalkCosetTable, presentation, budget, strategy)
        assert table_state(table) == table_state(reference)

    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize(
        "presentation, order",
        # which entries of a scanned coset's row name an earlier coset: in
        # 2^k each coset has its own pattern, more than relator-first
        # keeps, while the 720 cosets of S6 share 32
        [(shuffled(elementary_abelian(k)), 2**k) for k in (10, 12)]
        + [(shuffled(coxeter_symmetric(6)), 720)],
        ids=["2^10", "2^12", "S6 shuffled"],
    )
    def test_row_patterns(self, presentation, order, strategy):
        table = run_table(CosetTable, presentation, 100_000, strategy)
        reference = run_table(IndexedWalkCosetTable, presentation, 100_000, strategy)
        assert table.live == order
        assert table_state(table) == table_state(reference)
