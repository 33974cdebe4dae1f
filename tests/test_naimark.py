"""Naimark complements and scaling against the parent code.

naimark_complement reads the floating-point completion once and converts
each distinct float once, and SynthesisMatrix.scale multiplies each distinct
entry object once. Neither may change a value: every entry, its key order
and the encoded document must equal those of the parent naimark_complement
(kept verbatim in _oracles) and of entry-by-entry multiplication.
"""

import json
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spectral_tetris import (
    FusionFrame,
    RadicalScalar,
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
    matrix_to_json,
    naimark_complement,
    naimark_complement_fusion,
    sffr,
)
from spectral_tetris.exact_numeric import ComplexRadicalEntry
from spectral_tetris.sequences import untf_feasible

from _oracles import assert_constructor_accepts, naimark_complement_oracle


def _assert_same_complement(got, want):
    assert_constructor_accepts(got)
    assert (got.row_count, got.col_count, got.meta) == (want.row_count, want.col_count, want.meta)
    assert list(got.entries) == list(want.entries)
    for key, value in want.entries.items():
        assert got.entries[key].terms == value.terms
    assert json.dumps(matrix_to_json(got)) == json.dumps(matrix_to_json(want))


def _parseval_untf(dim, count):
    return construct_untf(dim, count).scale(RadicalScalar.sqrt(F(dim, count)))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 8), extra=st.integers(0, 30))
def test_naimark_complement_equals_the_parent_on_parseval_untf(dim, extra):
    count = dim + extra
    assume(untf_feasible(dim, count))
    parseval = _parseval_untf(dim, count)
    _assert_same_complement(naimark_complement(parseval), naimark_complement_oracle(parseval))


def _scaled_sffr(c, subspaces, dim):
    """Flat integer sffr scaled by 1/sqrt(c): a Parseval fusion frame with
    squared weights 1/c, as the benchmark's Naimark slots build it."""
    base = sffr([F(c)] * (subspaces * dim // c), subspaces, dim)
    return FusionFrame(
        base.m,
        (F(1, c),) * subspaces,
        base.dims,
        base.generator.scale(RadicalScalar.sqrt(F(1, c))),
        base.partition,
    )


@settings(max_examples=40, deadline=None)
@given(c=st.integers(2, 4), subspaces=st.integers(2, 12), dim=st.integers(1, 3))
def test_naimark_complements_equal_the_parent_on_scaled_sffr(c, subspaces, dim):
    assume(subspaces >= c and (subspaces * dim) % c == 0)
    frame = _scaled_sffr(c, subspaces, dim)
    want = naimark_complement_oracle(frame.generator)
    _assert_same_complement(naimark_complement(frame.generator), want)
    mate = naimark_complement_fusion(frame)
    _assert_same_complement(mate.generator, want)
    assert mate.weights_squared == (1 - F(1, c),) * subspaces


def test_naimark_complement_shares_one_entry_per_distinct_value():
    complement = naimark_complement(_parseval_untf(5, 36))
    values = {value.terms for value in complement.entries.values()}
    assert len({id(value) for value in complement.entries.values()}) == len(values)
    assert len(values) < complement.nonzero_count


# -- scale -------------------------------------------------------------------------


def _per_entry(value, factor):
    if isinstance(value, ComplexRadicalEntry):
        return ComplexRadicalEntry.make(value.modulus * factor, value.root_exponent, value.root_order)
    return value * factor


def _all_distinct():
    """Every entry a different object with a different value, some of two terms."""
    entries = {}
    for i in range(6):
        for j in range(9):
            value = RadicalScalar.sqrt(F(i * 9 + j + 1, 7))
            entries[(i, j)] = value + 1 if (i + j) % 3 == 0 else value
    return SynthesisMatrix(6, 9, entries)


FACTORS = (RadicalScalar.sqrt(F(2, 3)), RadicalScalar.from_rational(3), RadicalScalar.sqrt(2) + 1)


def test_scale_equals_per_entry_products():
    shared = construct_untf(20, 550)
    distinct = _all_distinct()
    assert len({id(value) for value in shared.entries.values()}) < shared.nonzero_count // 10
    assert len({id(value) for value in distinct.entries.values()}) == distinct.nonzero_count
    for matrix in (shared, distinct, construct_untf_dft(4, 5), construct_untf_dft(5, 7)):
        for factor in FACTORS:
            scaled = matrix.scale(factor)
            assert_constructor_accepts(scaled)
            assert (scaled.row_count, scaled.col_count) == (matrix.row_count, matrix.col_count)
            assert scaled.meta == matrix.meta and scaled.meta is not matrix.meta
            assert list(scaled.entries) == list(matrix.entries)
            for key, value in matrix.entries.items():
                assert scaled.entries[key] == _per_entry(value, factor)


def test_scale_multiplies_each_distinct_entry_object_once(monkeypatch):
    matrix = construct_untf(20, 550)
    distinct = len({id(value) for value in matrix.entries.values()})
    calls = 0
    multiply = RadicalScalar.__mul__

    def counting(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(RadicalScalar, "__mul__", counting)
    matrix.scale(RadicalScalar.sqrt(F(20, 550)))
    assert calls == distinct


def test_scale_of_hand_made_complex_entries_answers_as_the_constructor_does():
    """A ComplexRadicalEntry built directly may have modulus 0 or a real
    phase. The constructor refuses both, so no checked matrix holds one to
    be scaled; a real phase wrapped unchecked scales to a RadicalScalar,
    so the flag is read off the products."""
    with pytest.raises(ValueError, match=r"^stored zero entry at \(0, 0\)$"):
        SynthesisMatrix(1, 1, {(0, 0): ComplexRadicalEntry(RadicalScalar(), 1, 3)})
    one = RadicalScalar.from_rational(1)
    entries = {(0, 0): ComplexRadicalEntry(one, 0, 1)}
    with pytest.raises(ValueError, match=r"^entry \(0, 0\) has phase 0/1, not a root of unity"):
        SynthesisMatrix(1, 1, entries)
    real_phase = SynthesisMatrix._unchecked(1, 1, entries, True, {})
    assert real_phase.is_complex
    scaled = real_phase.scale(RadicalScalar.from_rational(2))
    assert_constructor_accepts(scaled)
    assert not scaled.is_complex
