"""Lossless JSON encoding of synthesis matrices and fusion frames.

The document layout is fixed:

    {"m": int, "n": int, "complex": bool,
     "entries": [{"row": int, "col": int,
                  "terms": [{"num": int, "den": int, "rad": int}, ...],
                  "omega_num": int?, "omega_den": int?}, ...]}

Omitted entries are zero. An entry is the sum of its terms, each the
rational num/den times the square root of the positive integer rad; the
optional omega pair multiplies that modulus by exp(2*pi*i*omega_num/
omega_den) and appears only for genuinely complex phases. Fusion frames add
"partition" (lists of 0-based column indices) and "weights_sq" (squared
weights as {"num", "den"} objects). Rationals are never written as floats,
and the loader rejects floats outright, so a round trip is exact.

A document repeats few values, since every column is a singleton or half
of a 2x2 block. So the encoder reads each run of one entry object in
(row, col) order once. The decoder reads the entries in one pass and makes
each check once per entry: a plain entry (exact int row and col, one term
of exact ints, no omega) is looked up in a per-document memo keyed on its
(num, den, rad) once those types are tested; a miss, and every other
entry, is read field by field and built once per distinct entry by the
public RadicalScalar constructor, from a bounded memo keyed on its (num,
den, rad) triples and omega pair. The matrix is then built unchecked,
since the pass has made the constructor's checks. A document declaring m
or n above MAX_DIMENSION is refused before any entry is read.

Files and CLI reports are written as indented JSON by _render, whose text
equals json.dumps(value, indent=2) for every value json.dumps accepts, and
which raises the same exception classes (TypeError for what json cannot
serialize, ValueError for a circular container). Up to CPython 3.12,
json.dumps with an indent runs the stdlib's pure-Python encoder, one
generator step per token; _render walks only the nonempty lists, tuples
and dicts and builds each one's text with one join. It writes None, bools,
exact ints and the exact strs in containers itself; json (its C encoder,
with no indent) writes every other leaf and every key that is not an exact
str, or raises its own exception for it. A matrix or fusion frame handed to
write_document is written straight from the object, with no document
dicts: each run of one entry object has its terms and omega text rendered
once, and each entry is one format string around its row, column and that
text.
"""

from __future__ import annotations

import functools
import json
import os
from json.encoder import encode_basestring_ascii as _quote
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple, Union

from .construct import SynthesisMatrix
from .errors import SpectralTetrisError
from .exact_numeric import ComplexRadicalEntry, MatrixEntry, RadicalScalar
from .fusion import FusionFrame


def _int_field(value, label: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{label} must be an integer, got {value!r}")
    return value


def _fraction_field(value, label: str) -> Fraction:
    if not isinstance(value, dict):
        raise ValueError(f"{label} must be a num/den object, got {value!r}")
    num = _int_field(value.get("num"), f"{label}.num")
    den = _int_field(value.get("den"), f"{label}.den")
    if den == 0:
        raise ValueError(f"{label} has zero denominator")
    return Fraction(num, den)


_Terms = Tuple[Tuple[int, int, int], ...]


def _json_form(value: MatrixEntry) -> Tuple[_Terms, Optional[Tuple[int, int]]]:
    """An entry's (num, den, rad) int triples and its omega pair (None when
    real): what the document holds and what _entry_value decodes."""
    omega = None
    if isinstance(value, ComplexRadicalEntry):
        value, omega = value.modulus, (value.root_exponent, value.root_order)
    return tuple([(c.numerator, c.denominator, r) for r, c in value.terms]), omega


@functools.lru_cache(maxsize=4096)
def _entry_value(terms: _Terms, omega: Optional[Tuple[int, int]]) -> MatrixEntry:
    """The entry that (num, den, rad) int triples and an optional int omega
    pair encode; raises what the constructors raise for invalid values.

    Memoized with a fixed size: a document repeats the few values of its
    singletons and blocks many times over. Callers pass only fields they
    have checked to be ints (True == 1 and 2.0 == 2 hash alike, so a bool
    or float key would find an int entry), and the values are immutable,
    so entries and documents may share them.
    """
    modulus = RadicalScalar((rad, Fraction(num, den)) for num, den, rad in terms)
    return modulus if omega is None else ComplexRadicalEntry.make(modulus, *omega)


def _term_from_json(term, row: int, col: int) -> Tuple[int, int, int]:
    """A term's (num, den, rad), checked field by field with the labelled
    messages; the labels are formatted only on this path."""
    if not isinstance(term, dict):
        raise ValueError(f"entry ({row}, {col}) has a malformed term {term!r}")
    coefficient = _fraction_field(term, f"entry ({row}, {col}) term")
    radicand = _int_field(term.get("rad"), f"entry ({row}, {col}) term.rad")
    return coefficient.numerator, coefficient.denominator, radicand


def _entry_from_json(document) -> Tuple[int, int, MatrixEntry]:
    if not isinstance(document, dict):
        raise ValueError(f"entry must be an object, got {document!r}")
    row, col = document.get("row"), document.get("col")
    if type(row) is not int or type(col) is not int:
        row, col = _int_field(row, "entry.row"), _int_field(col, "entry.col")
    terms = document.get("terms")
    if not isinstance(terms, list):
        raise ValueError(f"entry ({row}, {col}) needs a list of terms")
    key = []
    for term in terms:
        if type(term) is dict:
            num, den, rad = term.get("num"), term.get("den"), term.get("rad")
            if type(num) is int and type(den) is int and type(rad) is int and den:
                key.append((num, den, rad))
                continue
        key.append(_term_from_json(term, row, col))
    omega = None
    if "omega_num" in document or "omega_den" in document:
        omega = document.get("omega_num"), document.get("omega_den")
    try:
        if omega is not None and not (type(omega[0]) is int and type(omega[1]) is int):
            # the terms are read first, so their errors come before the omega's
            _entry_value(tuple(key), None)
            omega = (
                _int_field(omega[0], "entry.omega_num"),
                _int_field(omega[1], "entry.omega_den"),
            )
        value = _entry_value(tuple(key), omega)
    except (SpectralTetrisError, ValueError, TypeError) as failure:
        raise ValueError(f"entry ({row}, {col}) is invalid: {failure}") from failure
    if not value:
        raise ValueError(f"entry ({row}, {col}) encodes an explicit zero")
    return row, col, value


def matrix_to_json(matrix: SynthesisMatrix) -> Dict[str, object]:
    """Entries in (row, col) order, each in fresh dicts and lists."""
    entries = []
    last = form = None
    for (row, col), value in sorted(matrix.entries.items()):
        if value is not last:  # a row's singletons are runs of one entry object
            last, form = value, _json_form(value)
        terms, omega = form
        if len(terms) == 1:  # most entries: no comprehension to call
            ((num, den, rad),) = terms
            listed = [{"num": num, "den": den, "rad": rad}]
        else:
            listed = [{"num": num, "den": den, "rad": rad} for num, den, rad in terms]
        document = {"row": row, "col": col, "terms": listed}
        if omega is not None:
            document["omega_num"], document["omega_den"] = omega
        entries.append(document)
    return {
        "m": matrix.row_count,
        "n": matrix.col_count,
        "complex": matrix.is_complex,
        "entries": entries,
    }


#: The largest m or n a document may declare. Even an empty document costs
#: verify_frame work and memory in proportion to its declared shape: it
#: allocates per row and per column and reports every square sum. An empty
#: 10^5 x 10^5 document takes `spectral-tetris verify --input` 0.4-0.5 s,
#: 42 MB and a 2.2 MB report; at 10^6 it took 3.2-3.7 s and 271 MB (Python
#: 3.11 on a 2-core x86-64 host).
MAX_DIMENSION = 10**5


def matrix_from_json(document) -> SynthesisMatrix:
    """The matrix a document encodes, read in one pass that makes each
    check once per entry.

    The type tests of a plain entry come before its memo lookup, so a bool
    or float never meets an int key. Duplicates are refused in the pass. An
    entry outside the shape is noted there and refused after it, behind the
    negative-dimension check, so every message and its order are those of
    reading every entry and then calling the public constructor.
    """
    if not isinstance(document, dict):
        raise ValueError("matrix document must be an object")
    m = _int_field(document.get("m"), "m")
    n = _int_field(document.get("n"), "n")
    if m > MAX_DIMENSION or n > MAX_DIMENSION:
        raise ValueError(f"declared shape {m}x{n} exceeds the bound {MAX_DIMENSION} on m and n")
    raw_entries = document.get("entries")
    if not isinstance(raw_entries, list):
        raise ValueError("entries must be a list")
    entries: Dict[Tuple[int, int], MatrixEntry] = {}
    plain: Dict[Tuple[int, int, int], MatrixEntry] = {}
    is_complex = outside = False
    for raw in raw_entries:
        key = value = None
        if type(raw) is dict and "omega_num" not in raw and "omega_den" not in raw:
            row, col, terms = raw.get("row"), raw.get("col"), raw.get("terms")
            if type(row) is int and type(col) is int and type(terms) is list and len(terms) == 1:
                term = terms[0]
                if type(term) is dict:
                    key = term.get("num"), term.get("den"), term.get("rad")
                    num, den, rad = key
                    if type(num) is int and type(den) is int and type(rad) is int and den:
                        value = plain.get(key)
                    else:
                        key = None
        if value is None:
            row, col, value = _entry_from_json(raw)
            if key is not None:
                plain[key] = value
            elif type(value) is ComplexRadicalEntry:
                is_complex = True
        position = row, col
        if position in entries:
            raise ValueError(f"duplicate entry at ({row}, {col})")
        entries[position] = value
        if not (0 <= row < m and 0 <= col < n):
            outside = True
    if outside or m < 0 or n < 0:
        try:  # the constructor names the shape or the first entry outside it
            SynthesisMatrix(m, n, entries)
        except ValueError as failure:
            raise ValueError(f"invalid matrix: {failure}") from failure
    declared = document.get("complex")
    if not isinstance(declared, bool):
        raise ValueError("complex flag must be a boolean")
    if declared != is_complex:
        raise ValueError("complex flag does not match the entries")
    return SynthesisMatrix._unchecked(m, n, entries, is_complex, {})


def fusion_to_json(frame: FusionFrame) -> Dict[str, object]:
    document = matrix_to_json(frame.generator)
    document["partition"] = [list(group) for group in frame.partition]
    document["weights_sq"] = [
        {"num": weight.numerator, "den": weight.denominator}
        for weight in frame.weights_squared
    ]
    return document


def fusion_from_json(document) -> FusionFrame:
    matrix = matrix_from_json(document)
    raw_partition = document.get("partition")
    raw_weights = document.get("weights_sq")
    if not isinstance(raw_partition, list) or not isinstance(raw_weights, list):
        raise ValueError("fusion document needs partition and weights_sq lists")
    if len(raw_partition) != len(raw_weights):
        raise ValueError("partition and weights_sq must have the same length")
    partition = []
    for group in raw_partition:
        if not isinstance(group, list) or not group:
            raise ValueError(f"partition group {group!r} must be a nonempty list")
        partition.append(tuple(_int_field(col, "partition column") for col in group))
    weights = tuple(
        _fraction_field(weight, "weights_sq entry") for weight in raw_weights
    )
    dims = tuple(len(group) for group in partition)
    try:
        return FusionFrame(
            m=matrix.row_count,
            weights_squared=weights,
            dims=dims,
            generator=matrix,
            partition=tuple(partition),
        )
    except ValueError as failure:
        raise ValueError(f"invalid fusion frame: {failure}") from failure


def is_fusion_document(document) -> bool:
    """Files carrying a partition are fusion frames; plain matrices are not."""
    return isinstance(document, dict) and "partition" in document


def _text(value, newline: str, path: Set[int]) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    is_list = isinstance(value, (list, tuple))
    # the container test comes first, since bool() of a numpy array raises
    if not (is_list or isinstance(value, dict)) or not value:
        return json.dumps(value)  # json's C encoder: its own text or its own exception
    marker = id(value)
    if marker in path:
        raise ValueError("Circular reference detected")
    path.add(marker)
    inner = newline + "  "
    parts: List[str] = []
    append = parts.append
    # exact ints and strs, the bulk of a document, skip the call; a key is
    # written before its value, so a bad key is what fails first, as in json
    if is_list:
        for item in value:
            kind = type(item)
            if kind is int:
                append(int.__repr__(item))
            elif kind is str:
                append(_quote(item))
            else:
                append(_text(item, inner, path))
    else:
        for key, item in value.items():
            # json writes any other key, or refuses it, as in {key: 0}
            key = (_quote(key) if type(key) is str else json.dumps({key: 0})[1:-4]) + ": "
            kind = type(item)
            if kind is int:
                append(key + int.__repr__(item))
            elif kind is str:
                append(key + _quote(item))
            else:
                append(key + _text(item, inner, path))
    path.discard(marker)
    opening, closing = ("[", "]") if is_list else ("{", "}")
    return opening + inner + ("," + inner).join(parts) + newline + closing


def _render(value, newline: str = "\n") -> str:
    """json.dumps(value, indent=2), with the same exception classes, for a
    value nested where newline (a newline and its indentation) starts each
    of its lines: TypeError for what json cannot serialize, ValueError for
    a container that holds itself.

    Only the layout of nonempty containers is made here. Every leaf other
    than None, a bool, an exact int or an exact str in a container, every
    empty container and every key other than an exact str is json.dumps's
    own text without an indent, or json.dumps's own exception.
    """
    return _text(value, newline, set())


#: One entry of a matrix document, around its row, column and terms text,
#: and one term of exact ints.
_ENTRY = '\n    {\n      "row": %s,\n      "col": %s,\n      "terms": %s\n    }'
_TERM = '\n        {\n          "num": %d,\n          "den": %d,\n          "rad": %d\n        }'


def _terms_text(value: MatrixEntry) -> str:
    """An entry's text after "terms": at its place in a matrix document."""
    terms, omega = _json_form(value)
    if terms and all(type(field) is int for term in terms for field in term):
        text = "[" + ",".join([_TERM % term for term in terms]) + "\n      ]"
    else:
        text = _render([{"num": num, "den": den, "rad": rad} for num, den, rad in terms], "\n      ")
    if omega is not None:
        text += ',\n      "omega_num": %s,\n      "omega_den": %s' % (
            _render(omega[0]),
            _render(omega[1]),
        )
    return text


def _matrix_text(matrix: SynthesisMatrix, tail: str = "") -> str:
    """_render(matrix_to_json(matrix)) + tail + the closing brace and a
    newline, with no document dicts: each run of one entry object renders
    its terms and omega once."""
    head = '{\n  "m": %s,\n  "n": %s,\n  "complex": %s,\n  "entries": ' % (
        _render(matrix.row_count),
        _render(matrix.col_count),
        _render(matrix.is_complex),
    )
    entries = []
    last = None
    for (row, col), value in sorted(matrix.entries.items()):
        if value is not last:  # a row's singletons are runs of one entry object
            last, body = value, _terms_text(value)
        if type(row) is not int or type(col) is not int:
            row, col = _render(row), _render(col)
        entries.append(_ENTRY % (row, col, body))
    listed = "[" + ",".join(entries) + "\n  ]" if entries else "[]"
    return head + listed + tail + "\n}\n"


def _fusion_text(frame: FusionFrame) -> str:
    """_render(fusion_to_json(frame)) + "\\n", the generator's entries written
    as _matrix_text writes them."""
    weights = [
        {"num": weight.numerator, "den": weight.denominator} for weight in frame.weights_squared
    ]
    return _matrix_text(
        frame.generator,
        ',\n  "partition": %s,\n  "weights_sq": %s'
        % (_render(frame.partition, "\n  "), _render(weights, "\n  ")),
    )


def write_document(
    path: str, document: Union[str, SynthesisMatrix, FusionFrame, Dict[str, object]]
) -> None:
    """Write atomically: the file appears complete or not at all.

    A str is written as it stands. Anything else is written as the text of
    json.dumps(..., indent=2) plus a newline: a SynthesisMatrix or
    FusionFrame as its matrix_to_json or fusion_to_json document, rendered
    from the object with the text of each run of one entry object made
    once, and any other value (a dict, say) through _render. The text is
    made before any file is opened. The file gets the mode open(path, "w")
    gives a new file: 0o666 less the umask.
    """
    if isinstance(document, str):
        text = document
    elif isinstance(document, FusionFrame):
        text = _fusion_text(document)
    elif isinstance(document, SynthesisMatrix):
        text = _matrix_text(document)
    else:
        text = _render(document) + "\n"
    directory = os.path.dirname(os.path.abspath(path))
    staging = os.path.join(directory, f"tmp{os.urandom(8).hex()}.tmp")
    handle = os.open(staging, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
        os.replace(staging, path)
    except BaseException:
        os.unlink(staging)
        raise


def read_document(path: str):
    with open(path, "r") as stream:
        try:
            return json.load(stream)
        except json.JSONDecodeError as failure:
            raise ValueError(f"{path} is not valid JSON: {failure}") from failure
