"""JSON serialization: exact round trips and strict loader validation."""

import enum
import json
import os
from fractions import Fraction

import pytest

from spectral_tetris import (
    ComplexRadicalEntry,
    RadicalScalar,
    SynthesisMatrix,
    construct_untf,
    construct_untf_dft,
    fusion_from_json,
    fusion_to_json,
    matrix_from_json,
    matrix_to_json,
    pnstc,
    pnstc_str,
    read_document,
    sffr,
    sfr,
    uff,
    verify_frame,
    weighted_fusion,
    write_document,
)
import spectral_tetris.exact_numeric as exact_numeric
import spectral_tetris.json_io as json_io
from spectral_tetris.json_io import is_fusion_document

import goldens
from _oracles import assert_constructor_accepts, entry_from_json_oracle
from goldens import ONE, rat

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def golden_matrices():
    return {
        "untf_4x11": construct_untf(4, 11),
        "untf_4x6": construct_untf(4, 6),
        "sfr_3x10": sfr((rat("13/3"), rat("10/3"), rat("7/3")), 10),
        "pnstc_5x8": pnstc((16, 1, 4, 3, 1, 2, 9, 4), (18, 6, 2, 10, 4)),
        "str_2x6": pnstc_str((3, 4, 3, 1, 4, 2), (9, 8))[0],
        "dft_4x5": construct_untf_dft(4, 5),
    }


def assert_same_matrix(left, right):
    assert_constructor_accepts(left)
    assert_constructor_accepts(right)
    assert left.row_count == right.row_count
    assert left.col_count == right.col_count
    assert left.is_complex == right.is_complex
    assert dict(left.entries) == dict(right.entries)


# -- round trips ---------------------------------------------------------------


def test_matrix_round_trip_is_bit_exact_for_every_golden():
    for name, matrix in golden_matrices().items():
        document = matrix_to_json(matrix)
        wire = json.loads(json.dumps(document))  # force a real serialization pass
        loaded = matrix_from_json(wire)
        assert_same_matrix(matrix, loaded), name


def test_a_document_declared_too_small_is_refused():
    """Every golden's document declared one row or one column short. The
    decoder builds its matrix unchecked, so its own bounds test must refuse
    each one."""
    for matrix in golden_matrices().values():
        wire = json.loads(json.dumps(matrix_to_json(matrix)))
        m, n = matrix.row_count, matrix.col_count
        for shape in ((m - 1, n), (m, n - 1)):
            outside = r"^invalid matrix: entry index \(\d+, \d+\) outside"
            with pytest.raises(ValueError, match=outside):
                matrix_from_json({**wire, "m": shape[0], "n": shape[1]})


def test_round_trip_preserves_the_verification_report():
    matrix = construct_untf(4, 11)
    loaded = matrix_from_json(matrix_to_json(matrix))
    expectations = dict(
        expected_spectrum=(Fraction(11, 4),) * 4, expected_norms=(1,) * 11
    )
    assert verify_frame(loaded, **expectations) == verify_frame(matrix, **expectations)


def test_fusion_round_trip_preserves_every_field():
    frames = (
        sffr(goldens.SFFR_SPECTRUM, 5, 2),
        uff((Fraction(11, 4),) * 4, goldens.UFF_DIMS),
        weighted_fusion(
            goldens.WEIGHTED_WEIGHTS_SQ, goldens.WEIGHTED_DIMS, goldens.WEIGHTED_SPECTRUM
        ),
    )
    for frame in frames:
        document = fusion_to_json(frame)
        loaded = fusion_from_json(json.loads(json.dumps(document)))
        assert loaded.m == frame.m
        assert loaded.weights_squared == frame.weights_squared
        assert loaded.dims == frame.dims
        assert loaded.partition == frame.partition
        assert_same_matrix(loaded.generator, frame.generator)


def test_complex_entries_round_trip_with_their_phases():
    matrix = construct_untf_dft(4, 5)
    document = matrix_to_json(matrix)
    assert document["complex"] is True
    phased = [entry for entry in document["entries"] if "omega_num" in entry]
    assert phased  # the transform path must write explicit phases
    assert all(isinstance(entry["omega_den"], int) for entry in phased)
    assert_same_matrix(matrix, matrix_from_json(document))


def test_document_layout_has_no_floats():
    for matrix in golden_matrices().values():
        text = json.dumps(matrix_to_json(matrix))
        for token in ("e-", "e+", "."):
            assert token not in text


def test_fixture_files_match_their_constructions():
    staircase = matrix_from_json(
        read_document(os.path.join(FIXTURES, "untf_4x9_staircase.json"))
    )
    assert_same_matrix(staircase, construct_untf(4, 9))
    alternative = matrix_from_json(
        read_document(os.path.join(FIXTURES, "untf_4x9_alternative.json"))
    )
    assert_same_matrix(alternative, SynthesisMatrix(4, 9, dict(goldens.ALT_4x9)))
    assert alternative.nonzero_count == 15


def test_write_and_read_documents_through_a_file(tmp_path):
    target = tmp_path / "frame.json"
    document = matrix_to_json(construct_untf(4, 6))
    write_document(str(target), document)
    assert read_document(str(target)) == document
    assert target.read_text().endswith("\n")


def test_write_document_writes_text_as_it_stands(tmp_path):
    target = tmp_path / "grid.csv"
    write_document(str(target), "m,n,feasible\n1,1,true\n")
    assert target.read_text() == "m,n,feasible\n1,1,true\n"
    assert sorted(os.listdir(tmp_path)) == ["grid.csv"]


def test_failed_writes_leave_neither_target_nor_staging_file(tmp_path):
    target = tmp_path / "out.json"
    with pytest.raises(TypeError):
        write_document(str(target), {"m": object()})
    # a lone surrogate has no encoding, so the text fails inside the write
    with pytest.raises(UnicodeEncodeError):
        write_document(str(target), "ok\ud800")
    assert os.listdir(tmp_path) == []


def test_read_document_rejects_malformed_json(tmp_path):
    target = tmp_path / "broken.json"
    target.write_text("{\"m\": 4,")
    with pytest.raises(ValueError, match="not valid JSON"):
        read_document(str(target))


def test_is_fusion_document_keys_off_the_partition():
    fusion_doc = fusion_to_json(uff((Fraction(11, 4),) * 4, goldens.UFF_DIMS))
    assert is_fusion_document(fusion_doc)
    assert not is_fusion_document(matrix_to_json(construct_untf(4, 6)))
    assert not is_fusion_document(["partition"])


# -- loader validation -----------------------------------------------------------


def minimal_document():
    return {
        "m": 1,
        "n": 1,
        "complex": False,
        "entries": [{"row": 0, "col": 0, "terms": [{"num": 1, "den": 1, "rad": 1}]}],
    }


def test_loader_rejects_float_coefficients():
    document = minimal_document()
    document["entries"][0]["terms"][0]["num"] = 0.5
    with pytest.raises(ValueError, match="must be an integer"):
        matrix_from_json(document)


def test_loader_rejects_booleans_posing_as_integers():
    document = minimal_document()
    document["m"] = True
    with pytest.raises(ValueError, match="must be an integer"):
        matrix_from_json(document)


def test_loader_rejects_zero_denominators():
    document = minimal_document()
    document["entries"][0]["terms"][0]["den"] = 0
    with pytest.raises(ValueError, match="zero denominator"):
        matrix_from_json(document)


def test_loader_rejects_explicit_zero_entries():
    document = minimal_document()
    document["entries"][0]["terms"] = []
    with pytest.raises(ValueError, match="explicit zero"):
        matrix_from_json(document)
    document["entries"][0]["terms"] = [{"num": 0, "den": 1, "rad": 1}]
    with pytest.raises(ValueError, match="explicit zero"):
        matrix_from_json(document)


def test_loader_rejects_duplicate_positions():
    document = minimal_document()
    document["entries"].append(
        {"row": 0, "col": 0, "terms": [{"num": 2, "den": 1, "rad": 1}]}
    )
    with pytest.raises(ValueError, match="duplicate entry"):
        matrix_from_json(document)


def test_loader_rejects_a_lying_complex_flag():
    document = minimal_document()
    document["complex"] = True
    with pytest.raises(ValueError, match="does not match"):
        matrix_from_json(document)
    document["complex"] = "yes"
    with pytest.raises(ValueError, match="must be a boolean"):
        matrix_from_json(document)


def test_loader_rejects_out_of_bounds_entries():
    document = minimal_document()
    document["entries"][0]["col"] = 3
    with pytest.raises(ValueError, match="invalid matrix"):
        matrix_from_json(document)


def test_loader_rejects_structural_garbage():
    with pytest.raises(ValueError, match="must be an object"):
        matrix_from_json([1, 2, 3])
    with pytest.raises(ValueError, match="entries must be a list"):
        matrix_from_json({"m": 1, "n": 1, "complex": False, "entries": "none"})
    document = minimal_document()
    document["entries"][0] = "junk"
    with pytest.raises(ValueError, match="entry must be an object"):
        matrix_from_json(document)


def test_loader_rejects_negative_radicands():
    document = minimal_document()
    document["entries"][0]["terms"][0]["rad"] = -2
    with pytest.raises(ValueError, match="is invalid"):
        matrix_from_json(document)


def test_fusion_loader_rejects_bad_partitions():
    base = fusion_to_json(uff((Fraction(11, 4),) * 4, goldens.UFF_DIMS))

    document = json.loads(json.dumps(base))
    del document["partition"]
    with pytest.raises(ValueError, match="partition and weights_sq"):
        fusion_from_json(document)

    document = json.loads(json.dumps(base))
    document["weights_sq"] = document["weights_sq"][:-1]
    with pytest.raises(ValueError, match="same length"):
        fusion_from_json(document)

    document = json.loads(json.dumps(base))
    document["partition"][0] = []
    with pytest.raises(ValueError, match="nonempty"):
        fusion_from_json(document)

    document = json.loads(json.dumps(base))
    document["partition"][0][0] = document["partition"][1][0]
    with pytest.raises(ValueError, match="invalid fusion frame"):
        fusion_from_json(document)


def test_fusion_loader_rejects_a_bare_number_weight():
    document = fusion_to_json(sffr((3, 3), 3, 2))
    document["weights_sq"][0] = 1
    with pytest.raises(ValueError, match=r"^weights_sq entry must be a num/den object, got 1$"):
        fusion_from_json(document)


class _Small(enum.IntEnum):
    ONE = 1
    TWO = 2
    THREE = 3


def test_integer_enum_fields_decode_as_their_ints():
    """Term fields and omega fields that are IntEnum members, ints but not
    exactly int, pass the field checks and decode to the entry of the
    equal ints."""
    term = {"num": _Small.ONE, "den": _Small.THREE, "rad": _Small.TWO}
    phase = {"omega_num": _Small.ONE, "omega_den": _Small.THREE}
    for fields, complex_flag in (({}, False), (phase, True)):
        enum_entry = {"row": 0, "col": 0, "terms": [term], **fields}
        int_entry = json.loads(json.dumps(enum_entry))
        assert type(int_entry["terms"][0]["num"]) is int
        decoded = [
            matrix_from_json({"m": 1, "n": 1, "complex": complex_flag, "entries": [entry]})
            for entry in (enum_entry, int_entry)
        ]
        assert decoded[0].entries == decoded[1].entries
    assert decoded[0].entries == {
        (0, 0): ComplexRadicalEntry.make(RadicalScalar.sqrt(Fraction(2, 9)), 1, 3)
    }


def test_single_entry_matrix_survives_the_round_trip():
    matrix = SynthesisMatrix(1, 1, {(0, 0): ONE})
    assert_same_matrix(matrix, matrix_from_json(matrix_to_json(matrix)))


# -- the canonical-form decoder against the parent's -------------------------------


def _term(num, den, rad):
    return {"num": num, "den": den, "rad": rad}


HAND_MADE_TERMS = {
    "canonical": [_term(1, 2, 1), _term(-3, 4, 2), _term(5, 1, 30)],
    "rad-8": [_term(1, 1, 8)],
    "rad-12": [_term(3, 2, 12)],
    "rad-18": [_term(1, 3, 18), _term(1, 1, 2)],
    "unsorted": [_term(1, 1, 3), _term(1, 1, 2)],
    "duplicate": [_term(1, 1, 2), _term(1, 1, 2)],
    "duplicate-cancelling": [_term(1, 1, 2), _term(-1, 1, 2), _term(1, 1, 3)],
    "split-duplicate": [_term(1, 1, 2), _term(-1, 2, 8)],
    "zero-coefficient": [_term(0, 1, 2), _term(1, 1, 3)],
    "zero-coefficient-rad-0": [_term(0, 5, 0), _term(1, 1, 3)],
    "rad-0": [_term(1, 1, 0)],
    "rad-minus-3": [_term(1, 1, -3)],
    "all-zero": [_term(0, 1, 1), _term(0, 7, 5)],
    "no-terms": [],
    "negative-denominator": [_term(1, -2, 5)],
    "unreduced": [_term(2, 4, 7)],
    "bool-num": [_term(True, 1, 2)],
    "bool-rad": [_term(1, 1, True)],
    "float-den": [_term(1, 2.0, 2)],
    "float-rad": [_term(1, 1, 2.0)],
    "missing-rad": [{"num": 1, "den": 1}],
    "zero-denominator": [_term(1, 0, 2)],
    "term-not-object": [[1, 1, 2]],
}

PHASES = {
    "real": {},
    "order-3": {"omega_num": 1, "omega_den": 3},
    "order-2": {"omega_num": 1, "omega_den": 2},
    "order-0": {"omega_num": 1, "omega_den": 0},
    "float-omega": {"omega_num": 1.0, "omega_den": 4},
}


def _decoded(decode, document):
    """The decoded value with its type, or the ValueError message."""
    try:
        row, col, value = decode(document)
    except ValueError as failure:
        return "error", str(failure)
    return row, col, value, type(value)


@pytest.mark.parametrize("phase", sorted(PHASES))
@pytest.mark.parametrize("name", sorted(HAND_MADE_TERMS))
def test_entry_decoder_equals_the_parent(name, phase):
    document = {"row": 1, "col": 2, "terms": HAND_MADE_TERMS[name], **PHASES[phase]}
    assert _decoded(json_io._entry_from_json, document) == _decoded(
        entry_from_json_oracle, document
    )


def test_entry_decoder_equals_the_parent_on_every_golden():
    for matrix in list(golden_matrices().values()) + [construct_untf_dft(4, 5)]:
        for raw in matrix_to_json(matrix)["entries"]:
            assert _decoded(json_io._entry_from_json, raw) == _decoded(entry_from_json_oracle, raw)


def test_decoding_splits_each_distinct_radicand_once():
    """A 1,000-entry document of 2x2-block style entries: the squarefree
    split runs at most once per distinct radicand, however often it recurs."""
    radicands = [1, 2, 3, 5, 6, 7, 10, 11, 13, 14]
    entries = [
        {"row": k % 40, "col": k, "terms": [_term(1 + k % 7, 3 + k % 5, radicands[k % 10])]}
        for k in range(1000)
    ]
    document = {"m": 40, "n": 1000, "complex": False, "entries": entries}
    split = exact_numeric._squarefree_split
    split.cache_clear()
    matrix = matrix_from_json(document)
    assert matrix.nonzero_count == 1000
    assert split.cache_info().misses <= len(radicands)


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_written_files_get_the_mode_the_umask_gives(tmp_path, umask, mode):
    """Staging through a private 0600 file left every output 0600."""
    target = tmp_path / "frame.json"
    previous = os.umask(umask)
    try:
        write_document(str(target), matrix_to_json(construct_untf(4, 6)))
    finally:
        os.umask(previous)
    assert target.stat().st_mode & 0o777 == mode
    assert os.listdir(tmp_path) == ["frame.json"]


@pytest.mark.parametrize(
    "position",
    [
        {"row": True, "col": 2},
        {"row": 1.0, "col": 2},
        {"row": "1", "col": 2},
        {"col": 2},
        {"row": 1, "col": 2.5},
        {"row": 1, "col": False},
        {"row": 1, "col": None},
        {"row": None, "col": None},
        {"row": -1, "col": 2},
    ],
)
def test_entry_positions_are_read_like_the_parent(position):
    """Row and col take an exact-int fast path; anything else gets the
    parent's field messages, row first."""
    for terms in (WARM_TERMS, [_term(1, 0, 2)]):
        document = {**position, "terms": terms}
        assert _decoded(json_io._entry_from_json, document) == _decoded(
            entry_from_json_oracle, document
        )


# -- the entry memo -------------------------------------------------------------

WARM_TERMS = [_term(1, 2, 1)]
ORDER_4 = {"omega_num": 1, "omega_den": 4}

# each is equal, as a Python value, to a field of the warm entries, and
# True == 1, 2.0 == 2 hash alike, so a memo keyed before the type checks
# would hand back the cached entry instead of raising
LOOKALIKES = {
    "bool-num": ([_term(True, 2, 1)], {}),
    "bool-rad": ([_term(1, 2, True)], {}),
    "float-den": ([_term(1, 2.0, 1)], {}),
    "bool-num-complex": ([_term(True, 2, 1)], ORDER_4),
    "float-den-complex": ([_term(1, 2.0, 1)], ORDER_4),
    "float-omega": (WARM_TERMS, {"omega_num": 1.0, "omega_den": 4}),
    "bool-omega": (WARM_TERMS, {"omega_num": True, "omega_den": 4}),
}


@pytest.mark.parametrize("name", sorted(LOOKALIKES))
def test_a_warm_memo_still_rejects_lookalike_fields(name):
    warm = [
        {"row": 0, "col": 0, "terms": WARM_TERMS},
        {"row": 0, "col": 1, "terms": WARM_TERMS, **ORDER_4},
    ]
    decoded = matrix_from_json({"m": 1, "n": 2, "complex": True, "entries": warm})
    half = RadicalScalar.from_rational(rat("1/2"))
    assert decoded.entries[(0, 1)] == ComplexRadicalEntry(half, 1, 4)
    terms, phase = LOOKALIKES[name]
    document = {"row": 0, "col": 2, "terms": terms, **phase}
    expected = _decoded(entry_from_json_oracle, document)
    assert expected[0] == "error"
    assert _decoded(json_io._entry_from_json, document) == expected


def test_decoding_builds_each_distinct_entry_once(monkeypatch):
    """The 200 x 5500 unit-norm tight frame's document: 5,700 entries but
    four distinct ones (the singleton 1 and three block entries). The
    decoder builds Fractions and RadicalScalars once per distinct (terms,
    omega) key; the previous decoder built them once per entry."""
    document = matrix_to_json(construct_untf(200, 5500))
    keys = {
        (tuple((t["num"], t["den"], t["rad"]) for t in raw["terms"]), None)
        for raw in document["entries"]
    }
    distinct_terms = sum(len(terms) for terms, _ in keys)
    assert len(document["entries"]) > 100 * len(keys)

    built = {"fractions": 0, "scalars": 0}

    def counting_fraction(*args):
        built["fractions"] += 1
        return Fraction(*args)

    wrap = RadicalScalar._canonical.__func__
    construct = RadicalScalar.__init__

    def counting_wrap(cls, terms):
        built["scalars"] += 1
        return wrap(cls, terms)

    def counting_construct(self, terms=()):
        built["scalars"] += 1
        construct(self, terms)

    monkeypatch.setattr(json_io, "Fraction", counting_fraction)
    monkeypatch.setattr(RadicalScalar, "_canonical", classmethod(counting_wrap))
    monkeypatch.setattr(RadicalScalar, "__init__", counting_construct)
    json_io._entry_value.cache_clear()
    decoded = matrix_from_json(document)
    assert decoded.nonzero_count == len(document["entries"])
    assert built["fractions"] <= distinct_terms
    assert built["scalars"] <= len(keys)


# -- shapes ---------------------------------------------------------------------


@pytest.mark.parametrize("m, n", [(-1, 0), (2, -3), (-2, -2)])
def test_loader_rejects_negative_dimensions(m, n):
    """A negative m or n decoded as a matrix, and verify called it a frame."""
    with pytest.raises(ValueError, match="invalid matrix: negative dimension"):
        matrix_from_json({"m": m, "n": n, "complex": False, "entries": []})


@pytest.mark.parametrize(
    "m, n",
    [(json_io.MAX_DIMENSION + 1, 1), (1, json_io.MAX_DIMENSION + 1), (10**9, 10**9), (-1, 10**9)],
)
def test_loader_refuses_declared_shapes_above_the_bound(m, n):
    """An empty document's verification costs work and memory in
    proportion to its declared shape, so an oversized one is refused before
    any entry is read: here the entries are not even a list."""
    message = f"declared shape {m}x{n} exceeds the bound {json_io.MAX_DIMENSION} on m and n"
    document = {"m": m, "n": n, "complex": False, "entries": None}
    with pytest.raises(ValueError, match=f"^{message}$"):
        matrix_from_json(document)
    with pytest.raises(ValueError, match=f"^{message}$"):
        fusion_from_json({**document, "partition": [[0]], "weights_sq": [{"num": 1, "den": 1}]})


def test_loader_accepts_declared_shapes_at_the_bound():
    bound = json_io.MAX_DIMENSION
    matrix = matrix_from_json({"m": bound, "n": bound, "complex": False, "entries": []})
    assert (matrix.row_count, matrix.col_count, matrix.nonzero_count) == (bound, bound, 0)


# -- the decoder's messages -------------------------------------------------------


def _entry(row, col, *terms, **phase):
    return {"row": row, "col": col, "terms": list(terms) or [_term(1, 1, 2)], **phase}


def _document(*entries, m=2, n=3, flag=False):
    return {"m": m, "n": n, "complex": flag, "entries": list(entries)}


# the full text each hostile document raises, and so its order: a malformed
# entry wins over an earlier one outside the shape, and over a negative m
DECODER_MESSAGES = {
    "not-an-object": ([], "matrix document must be an object"),
    "float-m": ({**_document(), "m": 2.0}, "m must be an integer, got 2.0"),
    "entries-not-list": ({**_document(), "entries": {}}, "entries must be a list"),
    "entry-not-object": (_document([0, 0]), "entry must be an object, got [0, 0]"),
    "bool-row": (_document(_entry(True, 0)), "entry.row must be an integer, got True"),
    "float-num": (
        _document(_entry(0, 1, _term(1.0, 1, 2))),
        "entry (0, 1) term.num must be an integer, got 1.0",
    ),
    "zero-den": (_document(_entry(0, 1, _term(1, 0, 2))), "entry (0, 1) term has zero denominator"),
    "zero-rad": (
        _document(_entry(0, 1, _term(1, 1, 0))),
        "entry (0, 1) is invalid: radicand 0 is not a positive integer",
    ),
    "explicit-zero": (
        _document(_entry(0, 1, _term(0, 1, 2))),
        "entry (0, 1) encodes an explicit zero",
    ),
    "term-not-object": (
        _document(_entry(0, 1, [1, 1, 2])),
        "entry (0, 1) has a malformed term [1, 1, 2]",
    ),
    "terms-not-list": (
        _document({"row": 0, "col": 1, "terms": _term(1, 1, 2)}),
        "entry (0, 1) needs a list of terms",
    ),
    "float-omega": (
        _document(_entry(0, 1, omega_num=1.5, omega_den=3), flag=True),
        "entry (0, 1) is invalid: entry.omega_num must be an integer, got 1.5",
    ),
    "duplicate": (_document(_entry(0, 1), _entry(1, 2), _entry(0, 1)), "duplicate entry at (0, 1)"),
    "outside-then-malformed": (
        _document(_entry(2, 0), _entry(0, 1, _term(1, 1, "2"))),
        "entry (0, 1) term.rad must be an integer, got '2'",
    ),
    "outside-twice": (
        _document(_entry(0, 0), _entry(0, 3), _entry(5, 0)),
        "invalid matrix: entry index (0, 3) outside 2x3",
    ),
    "negative-m-bad-entry": (
        _document(_entry(0, 0), _entry(0, 1, _term(1, 0, 2)), m=-1),
        "entry (0, 1) term has zero denominator",
    ),
    "negative-m-outside": (
        _document(_entry(0, 0), m=-1),
        "invalid matrix: negative dimension in shape -1x3",
    ),
    "outside-flag-not-bool": (
        {**_document(_entry(2, 0)), "complex": "false"},
        "invalid matrix: entry index (2, 0) outside 2x3",
    ),
    "flag-mismatch-real": (
        _document(_entry(0, 0), flag=True),
        "complex flag does not match the entries",
    ),
    "flag-mismatch-complex": (
        _document(_entry(0, 0, omega_num=1, omega_den=3)),
        "complex flag does not match the entries",
    ),
    "flag-not-bool": ({**_document(_entry(0, 0)), "complex": 0}, "complex flag must be a boolean"),
    "flag-missing": ({"m": 2, "n": 3, "entries": [_entry(0, 0)]}, "complex flag must be a boolean"),
}


@pytest.mark.parametrize("name", sorted(DECODER_MESSAGES))
def test_decoder_messages_are_pinned(name):
    document, message = DECODER_MESSAGES[name]
    with pytest.raises(ValueError) as failure:
        matrix_from_json(document)
    assert str(failure.value) == message
    if isinstance(document, dict):
        fusion = {**document, "partition": [[0]], "weights_sq": [{"num": 1, "den": 1}]}
        with pytest.raises(ValueError) as failure:
            fusion_from_json(fusion)
        assert str(failure.value) == message
