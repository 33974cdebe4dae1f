"""The run-aware reader against the per-layer repeat memos it replaced.

exact_numeric._read converts a value sequence once per run of one object.
These tests hold every layer that reads value sequences through it
(_rationals and the positive spectra and norms on it, integer_units, and
verify's expectations, targets and pairs) to the former code kept in
_oracles: the same values and types, the same reports, and the same
exception class and message, on runs, repeats that are not adjacent, equal
values held by distinct objects, one-shot generators and a bad value at a
random position. The work counts show what the reader saves.
"""

import fractions
import random
from fractions import Fraction

import pytest

import spectral_tetris.verify as verify_module
from spectral_tetris import (
    RadicalScalar,
    SynthesisMatrix,
    construct_untf,
    pnstc,
    weighted_fusion,
)
from spectral_tetris.construct import Sweep
from spectral_tetris.exact_numeric import _rationals, _read
from spectral_tetris.sequences import (
    _positive_rationals,
    as_norms_squared,
    as_spectrum,
    integer_units,
    st_ready_search,
)

import goldens
from _oracles import (
    exact_expectation_by_id_oracle,
    integer_units_oracle,
    matches_by_id_oracle,
    positive_rationals_oracle,
    rationals_oracle,
    sums_match_by_id_oracle,
)

F = Fraction
PALETTE = (F(1, 2), F(2, 3), F(5, 4), F(7, 3), F(3), F(11, 4))
BAD = (None, "x", float("inf"), float("nan"), 1j, -float("inf"))


def _outcome(call, *args):
    """What call(*args) gives: its value with the type of each element, or
    the exception class and message."""
    try:
        value = call(*args)
    except Exception as failure:  # the class and message are what is compared
        return type(failure), str(failure)
    if isinstance(value, (list, tuple)):
        return type(value), value, [_typed(v) for v in value]
    return value, _typed(value)


def _typed(value):
    if isinstance(value, (list, tuple)):
        return type(value), [type(v) for v in value]
    return type(value)


def _runs(rng, count):
    """count positions in runs of one object each, drawn from the palette."""
    values = []
    while len(values) < count:
        values += [rng.choice(PALETTE)] * rng.randint(1, 6)
    return values[:count]


def _scattered(rng, count):
    """Repeats that are not adjacent: every value from a few shared objects,
    in an order where neighbours mostly differ."""
    shared = rng.sample(PALETTE, 3)
    return [shared[(i * 2 + rng.randint(0, 1)) % 3] for i in range(count)]


def _distinct_objects(rng, count):
    """Equal values, each position its own object."""
    return [F(v.numerator, v.denominator) for v in _runs(rng, count)]


def _mixed(rng, count):
    """Runs of ints, Fractions, numeric strings and floats, the forms a
    caller may hand in."""
    kinds = (lambda v: v, lambda v: v.numerator, lambda v: str(v), float)
    values = []
    while len(values) < count:
        value = rng.choice(kinds)(rng.choice(PALETTE))
        values += [value] * rng.randint(1, 4)
    return values[:count]


def _ints_and_fractions(rng, count):
    """Whole values as ints beside Fractions, which must all come back as
    Fractions."""
    return [v.numerator if v.denominator == 1 and rng.random() < 0.5 else v for v in _runs(rng, count)]


SHAPES = (_runs, _scattered, _distinct_objects, _mixed, _ints_and_fractions)


def _cases(seed, count=60):
    """Seeded value lists of every shape, some with a bad value planted at a
    random position (once, or wherever its object recurs)."""
    rng = random.Random(seed)
    for _ in range(count):
        values = rng.choice(SHAPES)(rng, rng.randint(0, 25))
        if values and rng.random() < 0.4:
            bad = rng.choice(BAD)
            for position in rng.sample(range(len(values)), min(len(values), rng.randint(1, 2))):
                values[position] = bad
        if values and rng.random() < 0.15:
            values[rng.randrange(len(values))] = -rng.choice(PALETTE)
        yield values


def _as_given(values, one_shot):
    return (v for v in values) if one_shot else values


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("one_shot", [False, True])
def test_rationals_and_positive_values_equal_the_former_walk(seed, one_shot):
    for values in _cases(seed):
        for what in ("eigenvalue", "squared norm"):
            assert _outcome(_rationals, _as_given(values, one_shot), what) == _outcome(
                rationals_oracle, _as_given(values, one_shot), what
            )
        assert _outcome(as_spectrum, _as_given(values, one_shot)) == _outcome(
            positive_rationals_oracle,
            _as_given(values, one_shot),
            "eigenvalue",
            "spectrum must be nonempty",
        )
        assert _outcome(as_norms_squared, _as_given(values, one_shot)) == _outcome(
            positive_rationals_oracle,
            _as_given(values, one_shot),
            "squared norm",
            "norm sequence must be nonempty",
        )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("one_shot", [False, True])
def test_integer_units_equal_the_former_passes(seed, one_shot):
    """Groups of Fractions in every shape, plus a bad value now and then
    (the former code raised AttributeError for a value without a
    denominator, and so does the reader). A one-shot group is compared with
    the former code on the same values held in a list: the former code read
    each group twice, so it could not take one."""
    rng = random.Random(seed)
    for _ in range(60):
        groups = [rng.choice(SHAPES[:3])(rng, rng.randint(0, 25)) for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.2:
            group = rng.choice(groups)
            if group:
                group[rng.randrange(len(group))] = rng.choice((None, 0.5, "x"))
        given = [_as_given(group, one_shot) for group in groups]
        assert _outcome(integer_units, *given) == _outcome(integer_units_oracle, *groups)


def test_integer_units_reads_a_one_shot_group_once():
    """The former code walked each group twice, once for the unit and once
    to scale, so a generator came back empty."""
    assert integer_units(v for v in [F(1, 2), F(1, 3)]) == (6, (3, 2))
    assert integer_units_oracle(v for v in [F(1, 2), F(1, 3)]) == (6, ())
    norms = (F(3, 2),) * 4
    assert integer_units(iter(norms), (v for v in [F(5, 6)] * 3)) == (6, (9,) * 4, (5,) * 3)


def _fused_norms():
    """A weighted fusion frame's per-column squared weights, as the
    benchmark builds them: each group's weight at its columns. The golden
    frame puts group i at columns i and i + 9, so no weight's copies are
    adjacent."""
    shared = {w: F(w) for w in set(goldens.WEIGHTED_WEIGHTS_SQ)}
    weights = [shared[w] for w in goldens.WEIGHTED_WEIGHTS_SQ]
    frame = weighted_fusion(weights, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM)
    norms = [F(0)] * frame.generator.col_count
    for group, weight in zip(frame.partition, frame.weights_squared):
        for col in group:
            norms[col] = weight
    return frame.generator, norms


def _matrices():
    irrational = SynthesisMatrix(
        2, 3,
        {
            (0, 0): RadicalScalar([(1, 1), (2, 1)]),
            (1, 1): RadicalScalar.from_rational(1),
            (1, 2): RadicalScalar.sqrt(F(1, 2)),
        },
    )
    return [
        construct_untf(4, 11),
        construct_untf(3, 12),
        pnstc((F(1, 2), F(3, 4), F(3, 4)) * 2, (F(2),) * 2),
        _fused_norms()[0],
        irrational,
    ]


def _expectations(rng, sums):
    """Expectations for a list of square sums: the sums themselves in each
    shape (shared, one object per position, ints where whole, a generator),
    a RadicalScalar copy, one wrong value, a short and a long list, and a
    bad value at a random position."""
    shared = {}
    same = [shared.setdefault(s, s) for s in sums]
    yield same
    yield [F(s) if isinstance(s, F) else s for s in sums]
    yield [s.numerator if isinstance(s, F) and s.denominator == 1 else s for s in sums]
    yield (v for v in same)
    yield [RadicalScalar.from_rational(s) if isinstance(s, F) else s for s in sums]
    if sums:
        wrong = list(same)
        wrong[rng.randrange(len(wrong))] = F(1, 7)
        yield wrong
        yield same[:-1]
        bad = list(same)
        for position in rng.sample(range(len(bad)), min(2, len(bad))):
            bad[position] = rng.choice(BAD)
        yield bad
    yield same + [F(1)]


@pytest.mark.parametrize("seed", range(3))
def test_expectations_targets_and_pairs_equal_the_former_memos(seed):
    rng = random.Random(seed)
    for matrix in _matrices():
        for columns in (False, True):
            sums = Sweep(matrix).col_sums if columns else Sweep(matrix).row_sums
            for expected in _expectations(rng, sums):
                expected = list(expected)
                assert _outcome(verify_module._exact_expectation, iter(expected)) == _outcome(
                    exact_expectation_by_id_oracle, iter(expected)
                )
                got = _outcome(verify_module._sums_match, Sweep(matrix), columns, iter(expected))
                want = _outcome(sums_match_by_id_oracle, Sweep(matrix), columns, iter(expected))
                assert got == want
    generator, norms = _fused_norms()
    assert verify_module._sums_match(Sweep(generator), True, norms) is True
    assert sums_match_by_id_oracle(Sweep(generator), True, norms) is True


@pytest.mark.parametrize("seed", range(3))
def test_pairs_compare_like_the_former_memo(seed):
    """Settled sums against expectations of every shape: runs on both sides
    that start at different positions, repeats that are not adjacent, equal
    values in distinct objects, RadicalScalars and unequal lengths."""
    rng = random.Random(seed)
    objects = [F(1, 2), F(2, 3), RadicalScalar([(1, 1), (2, 1)]), F(3)]
    for _ in range(200):
        actual = []
        while len(actual) < 12:
            actual += [rng.choice(objects)] * rng.randint(1, 4)
        expected = [
            rng.choice((value, F(1, 7), objects[0]))
            if isinstance(value, F) and rng.random() < 0.2
            else value
            for value in actual
        ]
        if rng.random() < 0.3:
            expected = [F(v) if isinstance(v, F) else v for v in expected]
        if rng.random() < 0.1:
            expected = expected[:-1]
        assert verify_module._matches(actual, expected) is matches_by_id_oracle(actual, expected)


def test_the_reader_converts_each_run_once_and_names_the_first_bad_position():
    calls = []

    def convert(value):
        calls.append(value)
        return F(value)

    one, two = F(1), F(2)
    values = [one] * 3 + [two] * 2 + [one] + [1, 1]
    out = _read(iter(values), convert, "v {value!r} at {position}")
    assert out == values and calls == [one, two, one, 1]
    assert out[0] is out[1] is out[2] and out[3] is out[4]
    with pytest.raises(ValueError, match=r"^v None at 2$"):
        _read([one, one, None, None, "x"], convert, "v {value!r} at {position}")
    assert _read([], convert, "") == []


def test_fresh_objects_never_join_a_run():
    """A generator that builds each value and drops it: the reader holds the
    previous value, so a fresh object cannot reuse its memory and pass as
    the same one."""
    calls = []

    def convert(value):
        calls.append(value.numerator)
        return value.numerator

    assert _read((F(k // 2 % 2) for k in range(50)), convert, "") == [k // 2 % 2 for k in range(50)]
    assert len(calls) == 50


def test_a_unit_norm_search_reads_and_scales_its_one_norm_once(monkeypatch):
    """71 copies of one squared norm on the flat M = 20 spectrum, as
    equal_norm_frame feeds them: the norm's numerator is read for its sign
    and its scaling, once each, and its denominator once; so is the flat
    eigenvalue's. The former layers read both at every position."""
    norm, eigenvalue = F(1), F(71, 20)
    reads = {}
    numerator, denominator = F.numerator, F.denominator

    def counted(name, read):
        def get(value):
            if value is norm or value is eigenvalue:
                key = (value is norm, name)
                reads[key] = reads.get(key, 0) + 1
            return read.fget(value)

        return property(get)

    monkeypatch.setattr(fractions.Fraction, "numerator", counted("numerator", numerator))
    monkeypatch.setattr(fractions.Fraction, "denominator", counted("denominator", denominator))
    certificate = st_ready_search((norm,) * 71, [eigenvalue] * 20)
    monkeypatch.undo()
    assert certificate is not None and certificate.partition[-1] == 71
    assert reads == {
        (True, "numerator"): 2,
        (True, "denominator"): 1,
        (False, "numerator"): 2,
        (False, "denominator"): 1,
    }


def test_positive_values_check_each_run_once():
    assert _positive_rationals([F(1)] * 5 + [F(2)], "eigenvalue", "") == (F(1),) * 5 + (F(2),)
    with pytest.raises(ValueError, match=r"^eigenvalues must be positive$"):
        _positive_rationals([F(1)] * 3 + [F(0)] + [F(1)], "eigenvalue", "")
    with pytest.raises(ValueError, match=r"^eigenvalue None at position 4 is not a finite number$"):
        _positive_rationals([-1] * 4 + [None], "eigenvalue", "")
