import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinpres.coset import (
    CosetTable,
    Exceeded,
    Finite,
    FinitePresentation,
    Strategy,
    enumerate_cosets,
)
from artinpres.fourmanifolds import enumerate_trivial
from artinpres.triangle import TriangleParams, spherical_order, triangle_presentation
from artinpres.twogen import build_r2

T235 = FinitePresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 5))
# the Euclidean triangle group T(3,3,3) is infinite
T333 = FinitePresentation(2, ((1,) * 3, (2,) * 3, (1, 2) * 3))
PSL27 = FinitePresentation(2, ((1, 1), (2, 2, 2), (1, 2) * 7, (-1, -2, 1, 2) * 4))
Q8 = FinitePresentation(2, ((1, 1, 1, 1), (1, 1, -2, -2), (-2, 1, 2, 1)))
# <x, y | xyx^-1 y^-2, yxy^-1 x^-2> collapses only through coincidences
COINCIDENT = FinitePresentation(2, ((1, 2, -1, -2, -2), (2, 1, -2, -1, -1)))


def coxeter_symmetric(n):
    """Coxeter presentation of S_n on n-1 generators."""
    m = n - 1
    relators = [(i, i) for i in range(1, m + 1)]
    relators += [(i, i + 1) * 3 for i in range(1, m)]
    relators += [(i, j) * 2 for i in range(1, m + 1) for j in range(i + 2, m + 1)]
    return FinitePresentation(m, tuple(relators))


def presentation_of(t):
    return FinitePresentation(2, build_r2(t).relators)


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
        # <x | x^6, x^4> has order gcd(6, 4)
        result = enumerate_cosets(FinitePresentation(1, ((1,) * 6, (1,) * 4)))
        assert isinstance(result, Finite) and result.order == 2

    def test_quaternion_group(self):
        result = enumerate_cosets(Q8, validate=True)
        assert isinstance(result, Finite) and result.order == 8

    def test_coincidence_heavy_trivial_presentation(self):
        for strategy in Strategy:
            result = enumerate_cosets(COINCIDENT, strategy=strategy, validate=True)
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
            (T235, Finite(60, 82), Finite(60, 60)),
            (presentation_of((-1, -3, 2)), Finite(120, 386), Finite(120, 263)),
            (PSL27, Finite(168, 542), Finite(168, 168)),
            (coxeter_symmetric(5), Finite(120, 220), Finite(120, 120)),
            (coxeter_symmetric(6), Finite(720, 1513), Finite(720, 720)),
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
        # the run closes after defining exactly 82 cosets
        closure = enumerate_cosets(T235, max_cosets=82)
        assert closure == Finite(60, 82)
        for budget in (83, 200, 100_000):
            assert enumerate_cosets(T235, max_cosets=budget) == closure

    def test_exhausted_budget(self):
        assert enumerate_cosets(T235, max_cosets=81) == Exceeded(81)

    def test_exhausted_budget_on_trivial_group(self):
        # r(5,1,2) is trivial, but two cosets are not enough to show it
        assert enumerate_cosets(presentation_of((5, 1, 2)), max_cosets=2) == Exceeded(2)

    def test_budget_must_be_positive(self):
        with pytest.raises(ValueError):
            enumerate_cosets(T235, max_cosets=0)


class TestTableInternals:
    def test_consistency_checked_during_run(self):
        result = enumerate_cosets(T235, validate=True)
        assert isinstance(result, Finite) and result.order == 60
        result = enumerate_cosets(
            T235, strategy=Strategy.DEFINITION_FIRST, validate=True
        )
        assert isinstance(result, Finite) and result.order == 60

    def test_column_layout(self):
        assert CosetTable.column(1) == 0
        assert CosetTable.column(-1) == 1
        assert CosetTable.column(3) == 4
        assert CosetTable.column(-3) == 5

    def test_merge_keeps_row_zero(self):
        table = CosetTable(1)
        first = table.define(0, 1)
        second = table.define(first, 1)
        table.merge(second, 0)
        assert table.is_live(0)
        assert table.rep(second) == 0


class TestCounters:
    def test_peak_live_and_coincidences(self):
        result = enumerate_cosets(T235)
        assert (result.peak_live, result.coincidences) == (69, 17)
        result = enumerate_cosets(COINCIDENT, strategy=Strategy.DEFINITION_FIRST)
        assert (result.peak_live, result.coincidences) == (10, 3)

    def test_counters_left_out_of_equality(self):
        assert Finite(60, 82, peak_live=69, coincidences=17) == Finite(60, 82)
        assert Exceeded(400, 402, peak_live=402, coincidences=5) == Exceeded(400)

    @pytest.mark.parametrize(
        "strategy, counters",
        [(Strategy.RELATOR_FIRST, (402, 402, 0)), (Strategy.DEFINITION_FIRST, (400, 400, 0))],
    )
    def test_budget_hit_on_euclidean_triangle_group(self, strategy, counters):
        result = enumerate_cosets(T333, max_cosets=400, strategy=strategy)
        assert result == Exceeded(400)
        assert (result.cosets_defined, result.peak_live, result.coincidences) == counters

    def test_budget_hit_after_coincidences(self):
        # relator-first defines its 82nd coset inside a scan, past the budget
        result = enumerate_cosets(T235, max_cosets=81)
        assert result == Exceeded(81)
        assert (result.cosets_defined, result.peak_live, result.coincidences) == (82, 69, 11)


# Naive references: the enumerator as it was before the flat table, with
# rows as lists of None-or-coset and a definition-first strategy that
# rescans every coset against every relator until nothing changes, then
# searches for the first hole from coset 0.  The rewritten enumerator must
# make exactly the same definitions.


class NaiveCosetTable:
    def __init__(self, ngens):
        self.ncols = 2 * ngens
        self.rows = [[None] * self.ncols]
        self.parent = [0]
        self.live = 1
        self.defined = 1

    @staticmethod
    def column(letter):
        return 2 * (letter - 1) if letter > 0 else 2 * (-letter - 1) + 1

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


def _column_letter(column):
    k = column // 2 + 1
    return k if column % 2 == 0 else -k


def naive_relator_first(presentation, max_cosets):
    relators = [r for r in presentation.relators if r]
    table = NaiveCosetTable(presentation.ngens)
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
                    table.define(alpha, _column_letter(column))
                    if table.defined > max_cosets:
                        return Exceeded(max_cosets)
        alpha += 1
    return Finite(table.live, table.defined)


def naive_definition_first(presentation, max_cosets):
    relators = [r for r in presentation.relators if r]
    table = NaiveCosetTable(presentation.ngens)
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
        table.define(hole[0], _column_letter(hole[1]))


NAIVE = {
    Strategy.RELATOR_FIRST: naive_relator_first,
    Strategy.DEFINITION_FIRST: naive_definition_first,
}


@st.composite
def small_presentations(draw):
    ngens = draw(st.integers(1, 3))
    letter = st.integers(-ngens, ngens).filter(bool)
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=8), min_size=1, max_size=4))
    return FinitePresentation(ngens, tuple(map(tuple, relators)))


class TestBudgetBound:
    """Relator-first checks the budget after each scan, and a scan of a
    relator of length L defines at most L - 1 cosets; definition-first
    checks it before each definition."""

    @settings(max_examples=200, deadline=None)
    @given(small_presentations(), st.integers(1, 60), st.sampled_from(list(Strategy)))
    def test_overshoot_at_most_longest_relator_less_one(self, presentation, budget, strategy):
        result = enumerate_cosets(presentation, budget, strategy)
        if strategy is Strategy.RELATOR_FIRST:
            slack = max(max(map(len, presentation.relators)) - 1, 1)
        else:
            slack = 0
        if isinstance(result, Finite):
            assert result.cosets_defined <= budget
        else:
            assert budget <= result.cosets_defined <= budget + slack


class TestAgainstNaiveReference:
    @settings(max_examples=60, deadline=None)
    @given(small_presentations(), st.sampled_from([50, 400]))
    def test_relator_first(self, presentation, budget):
        result = enumerate_cosets(presentation, budget, Strategy.RELATOR_FIRST, validate=True)
        assert result == naive_relator_first(presentation, budget)

    @settings(max_examples=30, deadline=None)
    @given(small_presentations(), st.sampled_from([50, 400]))
    def test_definition_first(self, presentation, budget):
        result = enumerate_cosets(presentation, budget, Strategy.DEFINITION_FIRST, validate=True)
        assert result == naive_definition_first(presentation, budget)

    # triples on which a Felsch loop that drops a deduction (a one-way push,
    # no push after a coincidence) or skips a hole defines other cosets
    @pytest.mark.parametrize(
        "t", [(-6, -4, -3), (-5, 3, 2), (-6, -6, -1), (-6, 1, 2), (-4, -1, 1), (-5, 0, 2)]
    )
    def test_definition_first_on_r2_triples(self, t):
        presentation = presentation_of(t)
        result = enumerate_cosets(presentation, 50, Strategy.DEFINITION_FIRST, validate=True)
        assert result == naive_definition_first(presentation, 50)

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_pinned_presentations(self, strategy):
        for presentation in (T235, PSL27, Q8, COINCIDENT, presentation_of((-1, -3, 2))):
            result = enumerate_cosets(presentation, strategy=strategy, validate=True)
            assert result == NAIVE[strategy](presentation, 100_000)


SPHERICAL = [TriangleParams(2, 2, n) for n in range(2, 13)] + [
    TriangleParams(2, 3, n) for n in (3, 4, 5)
]


class TestClosedForms:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(SPHERICAL), st.sampled_from(list(Strategy)))
    def test_spherical_triangle_orders(self, t, strategy):
        result = enumerate_cosets(triangle_presentation(t), strategy=strategy)
        assert isinstance(result, Finite) and result.order == spherical_order(t)

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(enumerate_trivial(6)))
    def test_strategies_agree_on_trivial_family(self, t):
        presentation = presentation_of(t)
        orders = {
            enumerate_cosets(presentation, strategy=strategy).order for strategy in Strategy
        }
        assert orders == {1}
