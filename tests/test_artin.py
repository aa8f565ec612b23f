import random
from itertools import chain, combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artinpres.artin import (
    ArtinPresentation,
    ExponentMatrix,
    _defect,
    _from_reduced,
    _smith_diagonal,
    abelianization_invariants,
    artin_defect,
    compose,
    exponent_matrix,
    format_presentation,
    identity_presentation,
    is_artin,
    is_unimodular,
    parse_presentation,
)
from artinpres.coset import FinitePresentation
from artinpres.twogen import build_r2
from artinpres.words import (
    MAX_EXPONENT,
    MAX_LETTERS,
    ParseError,
    _join,
    concat,
    conjugate,
    exponent_sum,
    format_word,
    free_reduce,
    invert,
    max_generator,
    reduce_relators,
    substitute,
)

from conftest import random_framed_pure_braid


class TestArtinDefect:
    @pytest.mark.parametrize("a", [-3, -1, 0, 1, 5])
    def test_single_generator_power(self, a):
        relator = (1,) * a if a >= 0 else (-1,) * (-a)
        assert artin_defect(1, (relator,)) == ()

    def test_swapped_generators_fail(self):
        defect = artin_defect(2, ((2,), (1,)))
        assert defect != ()
        assert defect == (-1, -2, 1, -2, -1, 2, 1, 2)

    def test_empty_presentation(self):
        assert artin_defect(0, ()) == ()

    def test_out_of_range_generator(self):
        with pytest.raises(ValueError):
            artin_defect(1, ((2,),))

    def test_relator_count_mismatch(self):
        with pytest.raises(ValueError):
            artin_defect(2, ((1,),))

    def test_out_of_range_message_shared_with_finite_presentations(self):
        message = "^relator r2 uses a generator beyond x2$"
        for construct in (artin_defect, ArtinPresentation, FinitePresentation):
            with pytest.raises(ValueError, match=message):
                construct(2, ((1,), (2, -3, 1)))


# Naive reference: the defect as it was computed before the relator check
# moved to words.reduce_relators, with one conjugate per generator.


def reference_artin_defect(n, relators):
    if n < 0:
        raise ValueError("generator count must be nonnegative")
    reduced = tuple(free_reduce(r) for r in relators)
    if len(reduced) != n:
        raise ValueError(f"expected {n} relators, got {len(reduced)}")
    for i, relator in enumerate(reduced, start=1):
        if max_generator(relator) > n:
            raise ValueError(f"relator r{i} uses a generator beyond x{n}")
    product = concat(*(conjugate((i,), reduced[i - 1]) for i in range(1, n + 1)))
    return concat(invert(product), tuple(range(1, n + 1)))


def defect_outcome(defect, n, relators):
    """The defect word, or the type of the exception it raised."""
    try:
        return defect(n, relators)
    except Exception as exc:
        return type(exc)


@st.composite
def candidates(draw):
    """Unreduced relator lists of rank 0-4; about half carry one fault: a
    relator too many, the letter 0, or a generator beyond x_n."""
    n = draw(st.integers(0, 4))
    letters = st.integers(-n, n).filter(bool) if n else st.nothing()
    relators = draw(st.lists(st.lists(letters, max_size=12), min_size=n, max_size=n))
    fault = draw(st.sampled_from([None, None, None, "extra", 0, -(n + 1)]))
    if fault == "extra" or (fault is not None and not n):
        relators.append([] if fault == "extra" else [fault])
    elif fault is not None:
        relator = relators[draw(st.integers(0, n - 1))]
        relator.insert(draw(st.integers(0, len(relator))), fault)
    return n, tuple(map(tuple, relators))


class TestAgainstConjugateReference:
    @settings(max_examples=300, deadline=None)
    @given(candidates())
    def test_random_candidates(self, candidate):
        n, relators = candidate
        expected = defect_outcome(reference_artin_defect, n, relators)
        assert defect_outcome(artin_defect, n, relators) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 5))
    def test_braid_outputs_and_a_perturbation(self, seed, n):
        from artinpres.braids import braid_to_artin

        p = braid_to_artin(random_framed_pure_braid(random.Random(seed), n))
        perturbed = (p.relators[0] + (2,),) + p.relators[1:]
        for relators in (p.relators, perturbed):
            assert artin_defect(n, relators) == reference_artin_defect(n, relators)


# Reference: compose and the defect as they were before products of words
# known to be reduced were joined without another check; every product went
# through concat, which checks each factor again.


def concat_compose(u, r):
    images = {j: conjugate((j,), u.relators[j - 1]) for j in range(1, u.n + 1)}
    return tuple(concat(u.relators[i], substitute(r.relators[i], images)) for i in range(u.n))


def concat_defect(n, relators):
    reduced = reduce_relators(n, relators)
    if len(reduced) != n:
        raise ValueError(f"expected {n} relators, got {len(reduced)}")
    factors = chain.from_iterable(
        (invert(relator), (i,), relator) for i, relator in enumerate(reduced, start=1)
    )
    return concat(invert(concat(*factors)), tuple(range(1, n + 1)))


@st.composite
def presentation_pairs(draw):
    """Two braid_to_artin outputs of rank 2-4, or two build_r2 outputs."""
    from artinpres.braids import braid_to_artin

    if draw(st.booleans()):
        rng = random.Random(draw(st.integers(0, 2**32)))
        n = draw(st.integers(2, 4))
        return tuple(braid_to_artin(random_framed_pure_braid(rng, n)) for _ in range(2))
    triples = st.tuples(st.integers(-6, 6), st.integers(-6, 6), st.integers(-4, 4))
    return build_r2(draw(triples)), build_r2(draw(triples))


class TestAgainstConcatReference:
    @settings(max_examples=150, deadline=None)
    @given(presentation_pairs())
    def test_compose_and_defect(self, pair):
        u, r = pair
        relators = concat_compose(u, r)
        assert compose(u, r).relators == relators
        raw = tuple(u_i + r_i for u_i, r_i in zip(u.relators, r.relators))
        perturbed = (relators[0] + (2,),) + relators[1:]
        for candidate in (relators, raw, perturbed, u.relators + r.relators):
            expected = defect_outcome(concat_defect, u.n, candidate)
            assert defect_outcome(artin_defect, u.n, candidate) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(2, 4))
    def test_composition_with_inverse(self, seed, n):
        from artinpres.braids import artin_inverse, braid_to_artin

        fp = random_framed_pure_braid(random.Random(seed), n)
        p, q = braid_to_artin(fp), artin_inverse(fp)
        # every junction u_i * image cancels completely
        for u, r in ((p, q), (q, p)):
            assert compose(u, r) == identity_presentation(n)
            assert concat_compose(u, r) == ((),) * n


# Reference: the defect as one join of r_i^-1, x_i and r_i for every i,
# inverted and joined with x_1 ... x_n, before the common suffix of
# neighbouring relators was cut off.


def join_defect(n, relators):
    factors = chain.from_iterable(
        (invert(relator), (i,), relator) for i, relator in enumerate(relators, start=1)
    )
    return _join((invert(_join(factors)), tuple(range(1, n + 1))))


def suffix_sharing_relators(rng, n):
    """n reduced relators in x_1 .. x_n, often empty, equal to their left
    neighbour, or ending in a tail shared with it."""
    letters = [k for i in range(1, n + 1) for k in (i, -i)]
    relators = []
    for i in range(n):
        relator = free_reduce(rng.choices(letters, k=rng.randrange(9)))
        kind = rng.randrange(4)
        if i and kind == 0:
            relator = relators[-1]
        elif i and kind == 1:
            tail = relators[-1][rng.randrange(len(relators[-1]) + 1) :]
            relator = free_reduce(relator + tail)
        relators.append(relator)
    return tuple(relators)


class TestDefectAgainstJoinReference:
    def test_seeded_relator_lists(self):
        rng = random.Random(3301)
        for _ in range(400):
            n = rng.randrange(5)
            relators = suffix_sharing_relators(rng, n)
            assert _defect(n, relators) == join_defect(n, relators), (n, relators)

    def test_artin_relator_lists(self):
        from artinpres.braids import braid_to_artin

        rng = random.Random(3302)
        cases = [(0, ()), (1, ((),)), (1, ((1,) * 5,)), (1, ((-1,) * 3,))]
        cases += [(n, identity_presentation(n).relators) for n in range(5)]
        for _ in range(100):
            n = rng.randrange(2, 5)
            p = braid_to_artin(random_framed_pure_braid(rng, n))
            cases.append((n, p.relators))
        for n, relators in cases:
            assert _defect(n, relators) == join_defect(n, relators) == (), (n, relators)

    def test_every_composition_of_a_braid_set(self):
        from artinpres.braids import braid_to_artin

        rng = random.Random(3303)
        for n in (2, 3, 4):
            braids = [braid_to_artin(random_framed_pure_braid(rng, n)) for _ in range(6)]
            for u, r in ((u, r) for u in braids for r in braids):
                relators = compose(u, r).relators
                assert _defect(n, relators) == join_defect(n, relators) == ()
                mixed = r.relators[:1] + u.relators[1:]
                assert _defect(n, mixed) == join_defect(n, mixed)

    @pytest.mark.parametrize(
        "n, relators, defect",
        [
            (2, ((1,), (1,)), "x1^-1 x2^-1 x1 x2"),
            (3, ((1, 2), (2, 3, -1), (3,)), "x3^-1 x1 x3^-1 x2^-1 x3 x1^-1 x2^-1 x1^-1 x2 x1 x2 x3"),
            # the two relators end in x1, which the product cancels
            (2, ((1, 2, 1), (2, 2, 1)), "x1^-1 x2^-2 x1^-1 x2 x1^2 x2"),
        ],
    )
    def test_error_text_names_the_defect(self, n, relators, defect):
        assert format_word(join_defect(n, relators)) == defect
        with pytest.raises(ValueError) as error:
            ArtinPresentation(n, relators)
        assert str(error.value) == f"relators do not satisfy the Artin identity (defect {defect})"


@st.composite
def composable_presentations(draw):
    """braid_to_artin outputs of rank 2-5, each replaced, with probability
    one half, by its composition with another one, so that composed results
    are composed again."""
    from artinpres.braids import braid_to_artin

    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(2, 5))

    def draw_one():
        p = braid_to_artin(random_framed_pure_braid(rng, n, max_letters=12))
        if draw(st.booleans()):
            p = compose(p, braid_to_artin(random_framed_pure_braid(rng, n, max_letters=12)))
        return p

    return draw_one(), draw_one()


class TestComposeOnOneTable:
    @settings(max_examples=100, deadline=None)
    @given(composable_presentations())
    def test_matches_concat_reference(self, pair):
        u, r = pair
        c = compose(u, r)
        assert c.relators == concat_compose(u, r)
        # compose skips the constructor's reduction, which must then have
        # nothing to do
        assert ArtinPresentation(c.n, c.relators) == c
        for relator in c.relators:
            assert free_reduce(relator) == relator
            assert max_generator(relator) <= c.n

    def test_from_reduced_rejects_non_artin_like_the_constructor(self):
        for relators in (((1,), (1,)), ((2,), (1,)), ((1, 2), (1,))):
            with pytest.raises(ValueError) as public:
                ArtinPresentation(2, relators)
            with pytest.raises(ValueError) as private:
                _from_reduced(2, relators)
            assert str(private.value) == str(public.value)
            assert str(public.value).startswith("relators do not satisfy the Artin identity")


class TestIsArtin:
    def test_canonical_family_member(self):
        p = build_r2((-1, -3, 2))
        assert is_artin(p.n, p.relators)

    def test_right_twist(self):
        assert is_artin(2, ((1, 2), (1, 2)))

    def test_repeated_first_generator_fails(self):
        assert not is_artin(2, ((1,), (1,)))

    def test_constructor_rejects_non_artin(self):
        with pytest.raises(ValueError, match="Artin identity"):
            ArtinPresentation(2, ((1,), (1,)))


class TestCompose:
    def test_identity_laws(self):
        r = build_r2((3, -2, 1))
        e = identity_presentation(2)
        assert compose(e, r) == r
        assert compose(r, e) == r

    def test_power_presentations_add(self):
        assert compose(build_r2((0, 1, 0)), build_r2((1, 0, 0))) == build_r2((1, 1, 0))

    def test_twist_squared(self):
        t = build_r2((1, 1, 1))
        assert compose(t, t) == build_r2((2, 2, 2))

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(identity_presentation(1), identity_presentation(2))

    def test_operator_alias(self):
        t = build_r2((1, 1, 1))
        assert t * t == compose(t, t)

    def test_associative_on_braid_samples(self):
        from artinpres.braids import braid_to_artin

        rng = random.Random(7)
        for _ in range(25):
            n = rng.randint(2, 4)
            u, v, w = (
                braid_to_artin(random_framed_pure_braid(rng, n, max_letters=12))
                for _ in range(3)
            )
            assert compose(compose(u, v), w) == compose(u, compose(v, w))


class TestIdentityPresentation:
    def test_empty(self):
        p = identity_presentation(0)
        assert p.n == 0 and p.relators == ()
        with pytest.raises(ValueError, match="nonnegative"):
            identity_presentation(-1)

    def test_two_generators(self):
        p = identity_presentation(2)
        assert p.relators == ((), ())
        assert is_artin(p.n, p.relators)

    def test_zero_matrix(self):
        m = identity_presentation(3).exponent_matrix()
        assert m.entries == ((0, 0, 0), (0, 0, 0), (0, 0, 0))


class TestExponentMatrix:
    @pytest.mark.parametrize("t", [(1, 1, 1), (-1, -3, 2), (5, 2, 3), (0, 7, -2)])
    def test_canonical_family(self, t):
        a, b, c = t
        assert build_r2(t).exponent_matrix().entries == ((a, c), (c, b))

    @pytest.mark.parametrize("a", [-2, 0, 3])
    def test_single_generator(self, a):
        relator = (1,) * a if a >= 0 else (-1,) * (-a)
        assert exponent_matrix(1, (relator,)).entries == ((a,),)

    def test_symmetric_for_braid_generated(self):
        from artinpres.braids import braid_to_artin

        rng = random.Random(11)
        for _ in range(40):
            n = rng.randint(2, 5)
            p = braid_to_artin(random_framed_pure_braid(rng, n))
            assert p.exponent_matrix().is_symmetric()

    def test_additivity(self):
        from artinpres.braids import braid_to_artin

        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(2, 4)
            u = braid_to_artin(random_framed_pure_braid(rng, n))
            r = braid_to_artin(random_framed_pure_braid(rng, n))
            total = compose(u, r).exponent_matrix()
            assert total == u.exponent_matrix() + r.exponent_matrix()
        with pytest.raises(ValueError, match="matrix sizes differ"):
            ExponentMatrix(((1,),)) + ExponentMatrix(((1, 0), (0, 1)))

    def test_negation_is_the_inverse_braid(self):
        # rank 2 through build_r2 and tuple_neg is in test_twogen
        from artinpres.braids import artin_inverse, braid_to_artin

        rng = random.Random(17)
        for _ in range(40):
            fp = random_framed_pure_braid(rng, rng.randint(2, 5))
            assert -braid_to_artin(fp).exponent_matrix() == artin_inverse(fp).exponent_matrix()

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ExponentMatrix(((1, 2),))
        # one relator for two generators
        with pytest.raises(ValueError, match="expected 2 relators, got 1"):
            exponent_matrix(2, [()])

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.lists(st.integers(-n - 2, n + 2).filter(bool), max_size=16).map(tuple),
                    min_size=n,
                    max_size=n,
                ),
            )
        )
    )
    def test_exponent_sum_definition_on_any_candidate(self, candidate):
        # unreduced words, and letters beyond x_n, which are not counted
        n, relators = candidate
        expected = tuple(
            tuple(exponent_sum(relators[j], i) for j in range(n)) for i in range(1, n + 1)
        )
        assert exponent_matrix(n, relators).entries == expected


class TestDeterminantAndUnimodularity:
    def test_binary_icosahedral_matrix(self):
        m = build_r2((-1, -3, 2)).exponent_matrix()
        assert m.det() == -1
        assert is_unimodular(m)

    def test_determinant_five(self):
        m = build_r2((3, 3, 2)).exponent_matrix()
        assert m.det() == 5
        assert not is_unimodular(m)

    def test_empty_matrix(self):
        m = ExponentMatrix(())
        assert m.det() == 1
        assert is_unimodular(m)

    def test_bareiss_handles_zero_pivot(self):
        assert ExponentMatrix(((0, 1), (1, 0))).det() == -1
        assert ExponentMatrix(((0, 2, 1), (1, 0, 3), (2, 1, 0))).det() == 13

    @pytest.mark.parametrize(
        "entries", [((0, 1), (0, 0)), ((0, 0, 1), (0, 0, 2), (1, 1, 0))]
    )
    def test_bareiss_moves_to_a_later_column(self, entries):
        # a column with no nonzero entry left is passed over, so the
        # elimination runs on and finds the rank short of n
        assert ExponentMatrix(entries).det() == 0


class TestAbelianizationInvariants:
    def test_identity_matrix(self):
        assert abelianization_invariants(build_r2((1, 1, 0)).exponent_matrix()) == (1, 1)

    @pytest.mark.parametrize("a", [-7, -1, 0, 4])
    def test_rank_one(self, a):
        assert abelianization_invariants(ExponentMatrix(((a,),))) == (abs(a),)

    def test_direct_smith_form(self):
        assert abelianization_invariants(ExponentMatrix(((2, 0), (0, 0)))) == (2, 0)

    def test_three_by_three(self):
        m = ExponentMatrix(((12, 6, 4), (3, 9, 6), (2, 16, 14)))
        assert abelianization_invariants(m) == (1, 10, 30)

    def test_divisor_chain(self):
        invariants = abelianization_invariants(ExponentMatrix(((4, 2), (2, 4))))
        nonzero = [d for d in invariants if d]
        for first, second in zip(nonzero, nonzero[1:]):
            assert second % first == 0

    def test_unimodular_iff_all_ones(self):
        for t in [(1, 1, 0), (-1, -3, 2), (5, 2, 3), (3, 3, 2), (2, 2, 0), (0, 0, 0)]:
            m = build_r2(t).exponent_matrix()
            assert is_unimodular(m) == all(
                d == 1 for d in abelianization_invariants(m)
            )


def smith_diagonal_reference(entries):
    """The nested Euclid loops that _smith_diagonal replaced: rows and
    columns swap partway through a division."""
    m = [list(row) for row in entries]
    size = len(m)
    diagonal = []
    t = 0
    while t < size:
        pivot = None
        for i in range(t, size):
            for j in range(t, size):
                if m[i][j] != 0 and (pivot is None or abs(m[i][j]) < abs(m[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            diagonal.extend([0] * (size - t))
            break
        pi, pj = pivot
        m[t], m[pi] = m[pi], m[t]
        for row in m:
            row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, size):
                while m[i][t]:
                    q = m[i][t] // m[t][t]
                    for j in range(t, size):
                        m[i][j] -= q * m[t][j]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
            for j in range(t + 1, size):
                while m[t][j]:
                    q = m[t][j] // m[t][t]
                    for i in range(t, size):
                        m[i][j] -= q * m[i][t]
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
            if any(m[i][t] for i in range(t + 1, size)):
                continue
            offender = next(
                (i for i in range(t + 1, size) for j in range(t + 1, size) if m[i][j] % m[t][t]),
                None,
            )
            if offender is None:
                break
            for j in range(t, size):
                m[t][j] += m[offender][j]
        diagonal.append(abs(m[t][t]))
        t += 1
    return diagonal


@st.composite
def square_matrices(draw):
    """Square matrices up to 6 x 6 with entries up to +-1000; a third are
    products through a narrower middle, so rank-deficient."""
    n = draw(st.integers(0, 6))
    if n and draw(st.integers(0, 2)) == 0:
        rank = draw(st.integers(0, n - 1))
        small = st.integers(-12, 12)
        left = draw(st.lists(st.lists(small, min_size=rank, max_size=rank), min_size=n, max_size=n))
        right = draw(st.lists(st.lists(small, min_size=n, max_size=n), min_size=rank, max_size=rank))
        return tuple(
            tuple(sum(left[i][k] * right[k][j] for k in range(rank)) for j in range(n))
            for i in range(n)
        )
    entries = st.integers(-1000, 1000) | st.integers(-3, 3)
    row = st.lists(entries, min_size=n, max_size=n).map(tuple)
    return tuple(draw(st.lists(row, min_size=n, max_size=n)))


class TestSmithAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_same_diagonal(self, entries):
        assert _smith_diagonal(entries) == smith_diagonal_reference(entries)


def laplace_det(rows):
    if not rows:
        return 1
    return sum(
        (-1) ** j * x * laplace_det([row[:j] + row[j + 1 :] for row in rows[1:]])
        for j, x in enumerate(rows[0])
        if x
    )


class TestDeterminantAgainstLaplace:
    """Bareiss against cofactor expansion, over signs, zero pivots that
    need a row swap, and singular and non-symmetric matrices."""

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_same_determinant(self, entries):
        assert ExponentMatrix(entries).det() == laplace_det([list(row) for row in entries])


def determinantal_divisors(entries):
    """d_k, the gcd of the k x k minors, for k = 1 .. n."""
    n = len(entries)
    return [
        gcd(
            *(
                laplace_det([[entries[i][j] for j in cols] for i in rows])
                for rows in combinations(range(n), k)
                for cols in combinations(range(n), k)
            )
        )
        for k in range(1, n + 1)
    ]


class TestSmithAgainstDeterminantalDivisors:
    """The Smith diagonal is s_k = d_k / d_(k-1), with d_0 = 1 and s_k = 0
    once d_k = 0, whatever the elimination order."""

    @settings(max_examples=300, deadline=None)
    @given(square_matrices().filter(lambda m: len(m) <= 4))
    def test_quotients_of_divisors(self, entries):
        divisors = [1] + determinantal_divisors(entries)
        expected = [d // c if d else 0 for c, d in zip(divisors, divisors[1:])]
        assert _smith_diagonal(entries) == expected

    @settings(max_examples=300, deadline=None)
    @given(square_matrices())
    def test_product_and_chain(self, entries):
        diagonal = _smith_diagonal(entries)
        assert prod(diagonal) == abs(laplace_det([list(row) for row in entries]))
        assert all(d >= 0 for d in diagonal)
        for first, second in zip(diagonal, diagonal[1:]):
            assert second % first == 0 if first else second == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_random_matrices(self, seed):
        # the block left to reduce is kept modulo |det|; unreduced, its
        # entries grow until one such matrix takes seconds
        rng = random.Random(4000 + seed)
        entries = tuple(tuple(rng.randint(-9, 9) for _ in range(40)) for _ in range(40))
        diagonal = _smith_diagonal(entries)
        assert prod(diagonal) == abs(ExponentMatrix(entries).det()) != 0
        assert diagonal[0] == gcd(*chain.from_iterable(entries))
        for first, second in zip(diagonal, diagonal[1:]):
            assert second % first == 0


class TestPresentationText:
    def test_round_trip(self):
        p = build_r2((-1, -3, 2))
        text = format_presentation(p.n, p.relators)
        assert parse_presentation(text) == (p.n, p.relators)

    def test_exact_format(self):
        p = build_r2((1, 1, 1))
        assert format_presentation(p.n, p.relators) == "artin 2\nr1 = x1 x2\nr2 = x1 x2"

    def test_relators_past_the_letter_cap_in_all_are_refused(self):
        half = " ".join([f"x1^{MAX_EXPONENT}"] * 6)
        with pytest.raises(ParseError, match=f"^relators of more than {MAX_LETTERS} letters in all$"):
            parse_presentation(f"artin 1\nr1 = {half}\nr2 = {half}")

    def test_relator_past_the_letter_cap_is_refused_as_a_word(self):
        with pytest.raises(ParseError, match=f"^word of more than {MAX_LETTERS} letters$"):
            parse_presentation("artin 1\nr1 = " + " ".join([f"x1^{MAX_EXPONENT}"] * 11))

    def test_relators_rereduced_on_parse(self):
        n, relators = parse_presentation("artin 1\nr1 = x1 x1^-1")
        assert relators == ((),)

    def test_non_artin_candidate_parses(self):
        n, relators = parse_presentation("artin 2\nr1 = x1\nr2 = x1")
        assert (n, relators) == (2, ((1,), (1,)))

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_presentation("group 2\nr1 = x1\nr2 = x2")
        with pytest.raises(ParseError, match="empty presentation text"):
            parse_presentation(" \n\t\n")

    def test_wrong_relator_count(self):
        # any number of relators parses, for coset enumeration; the Artin
        # consumers refuse a count other than n
        assert parse_presentation("artin 2\nr1 = x1") == (2, ((1,),))
        assert parse_presentation("artin 1\nr1 = x1\nr2 = x1^2") == (1, ((1,), (1, 1)))
        with pytest.raises(ValueError, match="expected 2 relators, got 1"):
            artin_defect(*parse_presentation("artin 2\nr1 = x1"))

    def test_out_of_range_generator(self):
        with pytest.raises(ParseError):
            parse_presentation("artin 1\nr1 = x2")

    # the range check is on the reduced relator: a token past x_n that
    # cancels, or has exponent 0, leaves no letter beyond x_n
    @pytest.mark.parametrize("relator", ["x3 x3^-1", "x3^0", "x1 x3^2 x3^-2 x1^-1"])
    def test_cancelled_generator_beyond_n_is_accepted(self, relator):
        assert parse_presentation(f"artin 2\nr1 = {relator}\nr2 = 1") == (2, ((), ()))

    @pytest.mark.parametrize(
        "text, message",
        [
            ("artin 2\nr1 = x3\nr2 = 1", "relator r1 uses a generator beyond x2"),
            ("artin 2\nr1 = x1\nr2 = x3^0 x2 x3^-1", "relator r2 uses a generator beyond x2"),
        ],
    )
    def test_generator_beyond_n_names_the_relator(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_presentation(text)
        assert str(caught.value) == message

    # tokens are parsed in order, so the first bad one is named by its
    # position, also when a later one is bad too or lies beyond x_n
    @pytest.mark.parametrize(
        "relator, message",
        [
            ("x1 q x1 x0", "bad word token 'q' at position 2"),
            ("x1 x0 x1 q", "generator index must be >= 1 in token 'x0' at position 2"),
            (
                "x2 x1^1000001 q x1^1000001",
                "exponent beyond 1000000 in word token 'x1^1000001' at position 2",
            ),
            ("x3 x2 q y", "bad word token 'q' at position 3"),
        ],
    )
    def test_first_bad_token_is_named(self, relator, message):
        with pytest.raises(ParseError) as caught:
            parse_presentation(f"artin 2\nr1 = x1\nr2 = {relator}")
        assert str(caught.value) == message

    def test_misnumbered_relator(self):
        with pytest.raises(ParseError):
            parse_presentation("artin 2\nr1 = x1\nr3 = x2")

    # an unflagged \d takes non-ASCII digits; the grammar does not
    @pytest.mark.parametrize(
        "text, message",
        [
            ("artin \u0661\nr1 = x1", "expected 'artin <n>' header, got 'artin \u0661'"),
            ("artin 1\nr\u0661 = x1", "expected 'r1 = <word>', got 'r\u0661 = x1'"),
            ("artin 1\nr1 = x\u0661", "bad word token 'x\u0661' at position 1"),
        ],
    )
    def test_only_ascii_digits(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_presentation(text)
        assert str(caught.value) == message

    def test_zero_padded_header_and_labels(self):
        text = "artin 002\nr01 = x1\nr" + "0" * 5000 + "2 = x2"
        assert parse_presentation(text) == (2, ((1,), (2,)))

    @pytest.mark.parametrize(
        "text, message",
        [
            # more digits than int() converts by default (4,300)
            ("artin " + "7" * 5000 + "\nr1 = x1", "generator count beyond 1000000 in 'artin <n>' header"),
            ("artin 1000001\nr1 = x1", "generator count beyond 1000000 in 'artin <n>' header"),
            ("artin 1\nr" + "7" * 5000 + " = x1", "expected 'r1 = <word>', got 'r" + "7" * 5000 + " = x1'"),
            ("artin 1\nr0 = x1", "expected 'r1 = <word>', got 'r0 = x1'"),
        ],
    )
    def test_huge_numbers_are_parse_errors(self, text, message):
        with pytest.raises(ParseError) as caught:
            parse_presentation(text)
        assert str(caught.value) == message


def known_smith_form(seed, size, divisors):
    """U D V for D = diag(divisors) padded with zeros to size x size, and U, V
    products of 400 random elementary row and column operations."""
    rng = random.Random(seed)
    m = [[0] * size for _ in range(size)]
    for i, d in enumerate(divisors):
        m[i][i] = d
    for _ in range(400):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        if rng.random() < 0.5:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
        else:
            for row in m:
                row[i] += c * row[j]
    return tuple(map(tuple, m))


class TestSmithOnSingularMatrices:
    """The modulus of a singular matrix is a nonzero maximal minor, so its
    entries stay bounded: without it one such 40 x 40 matrix took minutes."""

    @pytest.mark.parametrize("rank", [39, 35, 0])
    def test_known_divisor_chain(self, rank):
        divisors = [1] * (rank - 4) + [2, 4, 12, 120] if rank else []
        entries = known_smith_form(rank, 40, divisors)
        assert _smith_diagonal(entries) == divisors + [0] * (40 - rank)
        assert ExponentMatrix(entries).det() == 0
