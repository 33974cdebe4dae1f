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
(row, col) order once, and the decoder, once each field is checked to be an
int, builds each distinct entry once from a bounded memo keyed on its
(num, den, rad) triples and omega pair.
"""

from __future__ import annotations

import functools
import json
import os
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .construct import SynthesisMatrix
from .errors import SpectralTetrisError
from .exact_numeric import ComplexRadicalEntry, MatrixEntry, RadicalScalar, _squarefree_split
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


def _is_canonical(pairs: Tuple[Tuple[int, Fraction], ...]) -> bool:
    """Whether (radicand, coefficient) pairs already satisfy RadicalScalar's
    canonical-term invariant: radicands positive, strictly increasing and
    squarefree, coefficients nonzero. The encoder writes only such terms."""
    previous = 0
    for radicand, coefficient in pairs:
        if radicand <= previous or not coefficient or _squarefree_split(radicand)[0] != 1:
            return False
        previous = radicand
    return True


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
    pairs = tuple((rad, Fraction(num, den)) for num, den, rad in terms)
    if _is_canonical(pairs):
        modulus = RadicalScalar._canonical(pairs)
    else:
        modulus = RadicalScalar(pairs)
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


def matrix_from_json(document) -> SynthesisMatrix:
    if not isinstance(document, dict):
        raise ValueError("matrix document must be an object")
    m = _int_field(document.get("m"), "m")
    n = _int_field(document.get("n"), "n")
    raw_entries = document.get("entries")
    if not isinstance(raw_entries, list):
        raise ValueError("entries must be a list")
    entries: Dict[Tuple[int, int], MatrixEntry] = {}
    for raw in raw_entries:
        row, col, value = _entry_from_json(raw)
        if (row, col) in entries:
            raise ValueError(f"duplicate entry at ({row}, {col})")
        entries[(row, col)] = value
    try:
        matrix = SynthesisMatrix(m, n, entries)
    except ValueError as failure:
        raise ValueError(f"invalid matrix: {failure}") from failure
    declared = document.get("complex")
    if not isinstance(declared, bool):
        raise ValueError("complex flag must be a boolean")
    if declared != matrix.is_complex:
        raise ValueError("complex flag does not match the entries")
    return matrix


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


def write_document(path: str, document: Union[str, Dict[str, object]]) -> None:
    """Write atomically: the file appears complete or not at all.

    A str is written as it stands, a dict as indented JSON, serialized before
    any file is opened. The file gets the mode open(path, "w") gives a new
    file: 0o666 less the umask.
    """
    text = document if isinstance(document, str) else json.dumps(document, indent=2) + "\n"
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
