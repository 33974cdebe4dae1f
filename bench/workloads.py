"""Seeded instances, the pipeline each one runs, and the check on its output.

Every instance carries a label that comes from how it was generated, never
from the code under test:

* ``feasible``: the generator holds a witness (an ordering, a column layout)
  or a theorem that guarantees an answer; the output must verify.
* ``infeasible``: a stated criterion rules every answer out; the program
  must say so (``None`` or ``Infeasible``).
* ``expect_cut`` (on top of either label): the instance's search space is
  larger than the budget it is given (more distinct orders than states, or a
  budget of one state where the tagged search must run), so today's searches
  stop at the budget. A correct answer within budget is also accepted.

A budget cut is never a wrong answer, but it is not a result either: it
counts against ``success_ratio`` (the complement of the failure ratio).
Anything else that disagrees with the label fails the instance.

Pipelines wrap each call into a layer in a span (see tracing.py); the span
names say which package module the call belongs to.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import spectral_tetris as st
from spectral_tetris import cli as st_cli

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"
ANSWER = "answer"
BUDGET_CUT = "budget_cut"

FRAME_TOLERANCE = 1e-12
FUSION_TOLERANCE = 1e-10

# Budget handed to every searching call in spectrum_to_frame.
SEARCH_BUDGET = 1000

@dataclass
class Instance:
    ident: int
    family: str
    params: Dict[str, object]
    label: str
    why: str
    m: int
    n: int
    expect_cut: bool = False

    def fingerprint(self) -> str:
        return json.dumps(
            [self.family, self.label, self.expect_cut, _plain(self.params)], sort_keys=True
        )


def _plain(value):
    if isinstance(value, F):
        return str(value)
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _outcome_of(failure: Exception) -> str:
    if isinstance(failure, st.SearchBudgetExceeded):
        return BUDGET_CUT
    if isinstance(failure, st.Infeasible):
        # weighted_fusion reports a blown budget as Infeasible; the message
        # is the only thing that tells the two apart
        return BUDGET_CUT if "budget" in str(failure) else INFEASIBLE
    return "unexpected " + type(failure).__name__


# -- independent models used by the generators ---------------------------------


def _unit_rows_layout(spectrum: Sequence[F]) -> Optional[List[Tuple[int, ...]]]:
    """Row supports of the columns the unit-norm greedy fill lays down.

    A column is a singleton while a whole unit fits in the row, otherwise a
    pair of columns spans this row and the next. Returns None when the fill
    cannot complete. This is the generator's own model of the 2x2 route.
    """
    remaining = list(spectrum)
    supports: List[Tuple[int, ...]] = []
    for row in range(len(remaining)):
        while remaining[row] > 0:
            if remaining[row] >= 1:
                supports.append((row,))
                remaining[row] -= 1
                continue
            spill = 2 - remaining[row]
            if row + 1 >= len(remaining) or spill > remaining[row + 1]:
                return None
            supports += [(row, row + 1), (row, row + 1)]
            remaining[row + 1] -= spill
            remaining[row] = 0
    return supports


def _first_fit_groups(supports: Sequence[Tuple[int, ...]]) -> List[List[int]]:
    """Columns dropped into the lowest group whose rows they avoid."""
    groups: List[List[int]] = []
    rows: List[set] = []
    for col, support in enumerate(supports):
        for group, used in zip(groups, rows):
            if not used.intersection(support):
                group.append(col)
                used.update(support)
                break
        else:
            groups.append([col])
            rows.append(set(support))
    return groups


def _round_robin_tags(dims: Sequence[int]) -> List[int]:
    tags = []
    for layer in range(max(dims)):
        tags += [tag for tag, dim in enumerate(dims) if layer < dim]
    return tags


def _tags_share_a_row(supports, tags) -> bool:
    seen = set()
    for support, tag in zip(supports, tags):
        for row in support:
            if (tag, row) in seen:
                return True
        seen.update((tag, row) for row in support)
    return False


def _dft_fill_completes(m: int, n: int) -> bool:
    """The generator's own weight walk of the J x J block greedy (no entries)."""
    remaining = [F(n, m)] * m
    col = row = 0
    while col < n:
        if row >= m:
            return False
        rest = remaining[row]
        if rest == 0:
            row += 1
        elif rest >= 2 or rest == 1:
            remaining[row] -= 1
            col += 1
        else:
            for size in range(2, m - row + 1):
                trailing = (size - rest) / (size - 1)
                if all(trailing <= remaining[row + i] for i in range(1, size)):
                    for i in range(1, size):
                        remaining[row + i] -= trailing
                    remaining[row] = F(0)
                    col += size
                    row += 1
                    break
            else:
                return False
    return True


def _ready_unit_order(rng: random.Random, m: int, palette: Sequence[F]) -> Optional[List[F]]:
    """An eigenvalue order that is Spectral-Tetris ready for unit norms.

    Built step by step so that the floor cuts n_k = floor(prefix_k) strictly
    increase and jump by at least 2 after every fractional prefix, which is
    the readiness rule for unit norms; the last eigenvalue closes the sum on
    an integer count. None when the palette cannot continue the walk.
    """
    for _ in range(20):
        order: List[F] = []
        prefix = F(0)
        for _ in range(m - 1):
            cut = math.floor(prefix)
            need = cut + 2 if prefix.denominator != 1 else cut + 1
            choices = [v for v in palette if math.floor(prefix + v) >= need]
            if not choices:
                break
            order.append(rng.choice(choices))
            prefix += order[-1]
        else:
            cut = math.floor(prefix)
            count = cut + 2 if prefix.denominator != 1 else cut + rng.choice((1, 2))
            order.append(count - prefix)
            return order
    return None


def _flat_untf_infeasible(m: int, n: int) -> bool:
    """1 < N/M < 2 and N/M (reduced) not of the form (2L-1)/L."""
    ratio = F(n, m)
    return 1 < ratio < 2 and ratio.numerator != 2 * ratio.denominator - 1


# -- wide_exact -------------------------------------------------------------------

NORM_PALETTE = (F(1, 2), F(2, 3), F(5, 6), F(4, 3), F(3, 2), F(5, 3), F(7, 6))


def _pnstc_pair(rng: random.Random, n: int, m: int) -> Tuple[List[F], List[F]]:
    """Non-decreasing non-square norms and a spectrum with every eigenvalue at
    least twice the largest norm: then a norm that overflows a row always has
    a partner at least as large and the spill always fits the next row, so
    pnstc completes in the given order."""
    values = rng.sample(NORM_PALETTE, rng.randint(2, 3))
    norms = sorted(rng.choice(values) for _ in range(n))
    top, total = norms[-1], sum(norms)
    while m > 1 and total < 2 * m * top + F(m, 6):
        m -= 1
    spare = int((total - 2 * m * top) * 6)
    cuts = sorted(rng.sample(range(1, spare), m - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
    return norms, [2 * top + F(part, 6) for part in parts]


def generate_wide_exact(rng: random.Random, tiny: bool) -> List[Instance]:
    count = 4 if tiny else 48
    out = []
    for i in range(count):
        # sizes and dimensions are fixed per slot, so seeds vary the entries,
        # not the cost of a pass; 48 slots keep the 90th percentile inside a
        # run of similar sizes rather than between the two largest
        target = 12 + 8 * i if tiny else 24 + 8 * i
        m = 2 + (i * 3) % 7
        if i % 2 == 0:
            n = max(2 * m, target + rng.randint(-4, 4))
            params = {"m": m, "n": n, "spectrum": [F(n, m)] * m, "norms": [F(1)] * n}
            why = "N >= 2M: the 2x2 fill of the flat spectrum always completes"
            out.append(Instance(i, "untf", params, FEASIBLE, why, m, n))
        else:
            norms, spectrum = _pnstc_pair(rng, target + rng.randint(-4, 4), m)
            params = {"norms": norms, "spectrum": spectrum}
            why = "every eigenvalue >= 2 * largest norm, norms non-decreasing"
            out.append(Instance(i, "pnstc", params, FEASIBLE, why, len(spectrum), len(norms)))
    return out


def run_wide(inst: Instance, tr) -> Dict[str, object]:
    p = inst.params
    with tr.span("construct.build"):
        if inst.family == "untf":
            matrix = st.construct_untf(p["m"], p["n"])
        else:
            matrix = st.pnstc(p["norms"], p["spectrum"])
    with tr.span("json_io.encode"):
        text = json.dumps(st.matrix_to_json(matrix))
    with tr.span("json_io.decode"):
        decoded = st.matrix_from_json(json.loads(text))
    with tr.span("verify.frame"):
        report = st.verify_frame(decoded, p["spectrum"], p["norms"])
    return {
        "status": ANSWER,
        "built": [matrix],
        "frames": [(decoded, p["spectrum"], report)],
        "json_bytes": [len(text)],
        "round_trips": [(matrix, decoded)],
    }


# -- spectrum_to_frame ------------------------------------------------------------

WALK_PALETTE = (F(1, 2), F(3, 4), F(5, 4), F(4, 3), F(3, 2), F(5, 3), F(2), F(5, 2), F(3))


def _walk_spectrum(rng: random.Random, m: int) -> List[F]:
    while True:
        order = _ready_unit_order(rng, m, rng.sample(WALK_PALETTE, 3))
        if order is not None:
            return sorted(order, reverse=True)


def _narrow_infeasible(rng: random.Random, m: int, distinct: int) -> List[F]:
    """Eigenvalues strictly inside (1, 3/2) with an integer total.

    No order is ready for unit norms: the first prefix is fractional with
    fractional part below 1/2, so the next eigenvalue would have to exceed
    3/2 for the floor cut to jump by 2.
    """
    while True:
        values = [F(k, 20) + 1 for k in rng.sample(range(1, 10), distinct)]
        spectrum = [values[i % distinct] for i in range(m - 1)]
        last = math.ceil(sum(spectrum) + 1) - sum(spectrum)
        if 1 < last < F(3, 2) and last.denominator != 1:
            return sorted(spectrum + [last], reverse=True)


def _wide_spectrum(rng: random.Random, m: int) -> List[F]:
    """M > 8 eigenvalues, all >= 2, small denominators: the given order is ready."""
    spectrum = [rng.randint(2, 4) + rng.choice((F(0), F(1, 2), F(1, 3), F(1, 4))) for _ in range(m - 1)]
    total = sum(spectrum)
    spectrum.append(rng.randint(2, 3) + (math.ceil(total) - total))
    return sorted(spectrum, reverse=True)


def _coprime_spectrum(rng: random.Random, m: int) -> List[F]:
    """Every eigenvalue is an integer plus c/M with gcd(c, M) = 1.

    A sub-multiset of s eigenvalues sums to an integer only when M divides s,
    so no integer-sum part has 8 or fewer members and the heuristic maximal
    block number enumerates every subset of size <= 8.
    """
    c = rng.choice([c for c in range(1, m) if math.gcd(c, m) == 1])
    return sorted((rng.randint(2, 4) + F(c, m) for _ in range(m)), reverse=True)


def _weighted_case(m: int, ratio: F):
    """Unit weights over the flat spectrum, with dimensions read off a
    support-disjoint first-fit grouping of the fill's columns (the witness),
    listed in the first rotation of ascending order whose round-robin tags put
    two columns of one row in the same group, so the tagged search has to
    run. The order is fixed because the search cost swings with it."""
    spectrum = [ratio] * m
    supports = _unit_rows_layout(spectrum)
    dims = sorted(len(group) for group in _first_fit_groups(supports))
    while not _tags_share_a_row(supports, _round_robin_tags(dims)):
        dims = dims[1:] + dims[:1]
    return spectrum, dims, len(supports)


def generate_spectrum_to_frame(rng: random.Random, tiny: bool) -> List[Instance]:
    out: List[Instance] = []

    def add(family, params, label, why, m, n, expect_cut=False):
        out.append(Instance(len(out), family, params, label, why, m, n, expect_cut))

    # Walks stop at M = 7: an M = 8 walk costs anywhere from 3 to 60 ms
    # depending on the values, and a seed drawing 0 or 3 of them moved the
    # 90th percentile by a third. M = 8 searches run in the flat, budget-cut
    # and coprime instances instead, whose cost the seed does not move.
    walk_ms = (5, 6) if tiny else (5, 6, 7) * 8
    for i, m in enumerate(walk_ms):
        spectrum = _walk_spectrum(rng, m)
        n = int(sum(spectrum))
        family = "sfr" if i % 2 == 0 else "equal_norm"
        add(family, {"spectrum": spectrum, "n": n}, FEASIBLE,
            "a ready order was built step by step, then sorted away", m, n)
    flats = ((5, 8),) if tiny else ((7, 9), (7, 10), (7, 11), (7, 12), (6, 8), (8, 13))
    for m, n in flats:
        assert _flat_untf_infeasible(m, n)
        family = "equal_norm" if m == 8 else "sfr"
        add(family, {"spectrum": [F(n, m)] * m, "n": n}, INFEASIBLE,
            "flat N/M in (1, 2) not of the form (2L-1)/L", m, n)
    narrow = ((6, 3),) if tiny else ((6, 3), (6, 6)) * 2
    for m, distinct in narrow:
        spectrum = _narrow_infeasible(rng, m, distinct)
        add("sfr", {"spectrum": spectrum, "n": int(sum(spectrum))}, INFEASIBLE,
            "all eigenvalues inside (1, 3/2)", m, int(sum(spectrum)))
    cuts = (() if tiny else (8,) * 6)
    for distinct in cuts:
        spectrum = _narrow_infeasible(rng, 8, distinct)
        add("equal_norm", {"spectrum": spectrum, "n": int(sum(spectrum))}, INFEASIBLE,
            f"all eigenvalues inside (1, 3/2); more distinct orders than the budget {SEARCH_BUDGET}",
            8, int(sum(spectrum)), expect_cut=True)
    weighted = ((4, F(11, 4)),) if tiny else ((4, F(11, 4)), (6, F(7, 3)), (6, F(5, 2)), (4, F(9, 4)))
    for i, (m, ratio) in enumerate(weighted):
        spectrum, dims, n = _weighted_case(m, ratio)
        cut = not tiny and i == len(weighted) - 1
        params = {"spectrum": spectrum, "dims": dims, "weights": [F(1)] * len(dims),
                  "budget": 1 if cut else SEARCH_BUDGET}
        why = "support-disjoint first-fit grouping of the fill's columns"
        if cut:
            why += "; round-robin fails and a budget of 1 state cannot hold the search"
        add("weighted", params, FEASIBLE, why, m, n, expect_cut=cut)
    wide_ms = (9, 10) if tiny else (9, 10, 11, 12, 13, 14, 16, 18, 20, 20) * 2
    for i, m in enumerate(wide_ms):
        spectrum = _wide_spectrum(rng, m)
        n = int(sum(spectrum))
        add("sfr" if i % 2 == 0 else "equal_norm", {"spectrum": spectrum, "n": n}, FEASIBLE,
            "every eigenvalue >= 2, so the given order is ready", m, n)
    coprime_ms = (9,) if tiny else (11, 12, 13, 14)
    for m in coprime_ms:
        spectrum = _coprime_spectrum(rng, m)
        n = int(sum(spectrum))
        add("sfr", {"spectrum": spectrum, "n": n}, FEASIBLE,
            "every eigenvalue >= 2; no integer-sum part of size <= 8", m, n)
    for inst in out:
        if "norms" not in inst.params and inst.family != "weighted":
            inst.params["norms"] = [F(1)] * inst.n
    return out


def run_search(inst: Instance, tr) -> Dict[str, object]:
    p = inst.params
    spectrum, n = p["spectrum"], inst.n
    out: Dict[str, object] = {"status": ANSWER, "built": [], "frames": [], "fusions": []}
    try:
        if inst.family == "sfr":
            with tr.span("sequences.search"):
                certificate = st.sfr_feasible(spectrum, n)
            if certificate is None:
                out["status"] = INFEASIBLE
                return out
            with tr.span("construct.build"):
                matrix = st.sfr(spectrum, n)
            norms = p["norms"]
        elif inst.family == "equal_norm":
            with tr.span("sequences.search"):
                certificate = st.st_ready_search(p["norms"], spectrum, SEARCH_BUDGET)
            if certificate is None:
                out["status"] = INFEASIBLE
                return out
            with tr.span("construct.build"):
                matrix = st.equal_norm_frame(spectrum, n, SEARCH_BUDGET)
            norms = p["norms"]
        else:
            weights, dims = p["weights"], p["dims"]
            fed = [w for w, d in zip(weights, dims) for _ in range(d)]
            with tr.span("sequences.search"):
                certificate = st.st_ready_search(fed, spectrum, SEARCH_BUDGET)
            if certificate is None:
                out["status"] = INFEASIBLE
                return out
            with tr.span("fusion.build"):
                frame = st.weighted_fusion(weights, dims, spectrum, p["budget"])
            matrix = frame.generator
            norms = [F(0)] * matrix.col_count
            for group, weight in zip(frame.partition, frame.weights_squared):
                for col in group:
                    norms[col] = weight
            out["fusions"].append((frame, dims, None))
    except (st.SpectralTetrisError, ValueError) as failure:
        out["status"] = _outcome_of(failure)
        out["error"] = failure
        return out
    order = matrix.meta.get("eigenvalue_order")
    realized = [spectrum[i] for i in order] if order is not None else list(spectrum)
    with tr.span("verify.frame"):
        report = st.verify_frame(matrix, realized, norms)
    out["built"].append(matrix)
    out["frames"].append((matrix, realized, report))
    return out


# -- numeric_fusion ---------------------------------------------------------------

DFT_SHAPES = ((5, 4), (6, 5), (7, 5))


def _integer_split(rng: random.Random, total: int, m: int, low: int, high: int) -> List[int]:
    values = [low] * m
    for _ in range(total - low * m):
        open_rows = [i for i in range(m) if values[i] < high]
        values[rng.choice(open_rows)] += 1
    return sorted(values, reverse=True)


def generate_numeric_fusion(rng: random.Random, tiny: bool) -> List[Instance]:
    out: List[Instance] = []

    def add(family, params, why, m, n):
        out.append(Instance(len(out), family, params, FEASIBLE, why, m, n))

    # M stays small enough (<= 8, or denominators 4 and 5 with M <= 16) that
    # the maximal block number inside verify_frame stays cheap
    dft_ms = ((4, 8),) if tiny else ((4, 4), (4, 8), (4, 12), (5, 5), (5, 10))
    for denominator, m in dft_ms:
        numerator = rng.choice([p for p, q in DFT_SHAPES if q == denominator])
        n = m * numerator // denominator
        assert _dft_fill_completes(m, n)
        add("dft", {"m": m, "n": n, "spectrum": [F(n, m)] * m, "norms": [F(1)] * n},
            "redundancy below 2; the generator's weight walk of the block greedy completes", m, n)
    # Sizes are fixed per slot (the seed draws values, not sizes), so every
    # seed's pass costs about the same.
    slots = 1 if tiny else 8
    for i in range(slots):
        subspaces, dim, m = 6 + i, 2 + i % 2, 3 + i % 4
        spectrum = [F(v) for v in _integer_split(rng, subspaces * dim, m, 2, subspaces)]
        add("sffr", {"spectrum": spectrum, "subspaces": subspaces, "dim": dim},
            "integer eigenvalues in [2, D]: floor condition holds, groups orthogonal", m,
            subspaces * dim)
    for i in range(slots):
        subspaces = 6 + i if tiny else 10 + i
        parts = 1 + i % ((subspaces - 2) // 2)
        spectrum = sorted(
            [F(2 * subspaces - 1, 2), F(5, 2)]
            + [F(v) for v in _integer_split(rng, subspaces - 2, parts, 2, subspaces)],
            reverse=True,
        )
        add("sffr", {"spectrum": spectrum, "subspaces": subspaces, "dim": 2},
            "eigenvalues in [2, D] with floor(first fractional) > D - 3: numeric route",
            len(spectrum), 2 * subspaces)
    slots = 1 if tiny else 6
    for i in range(slots):
        m = 3 + i % 4
        spectrum = [rng.randint(2, 5) + rng.choice((F(0), F(1, 2))) for _ in range(m - 1)]
        spectrum.append(3 + (math.ceil(sum(spectrum)) - sum(spectrum)))
        n = int(sum(spectrum))
        add("rff", {"spectrum": spectrum, "n": n},
            "every eigenvalue >= 2: the unit fill completes in the given order", m, n)
    for i in range(slots):
        m = 4 + i % 4
        n = 2 * m + 1 + i % (m - 1)
        spectrum = [F(n, m)] * m
        sizes = sorted((len(g) for g in _first_fit_groups(_unit_rows_layout(spectrum))), reverse=True)
        dims = list(sizes)
        for _ in range(rng.randint(1, 3)):
            if dims[0] - dims[-1] >= 2:
                dims[0] -= 1
                dims[-1] += 1
                dims.sort(reverse=True)
        add("uff", {"spectrum": spectrum, "dims": dims},
            "requested dims are majorized by the first-fit group sizes", m, n)
    for i in range(slots):
        m = 3 + i % 3
        weight = rng.choice((F(1), F(2), F(1, 2)))
        n, subspaces = _round_robin_size(rng, m)
        spectrum = [weight * F(n, m)] * m
        add("weighted_rr", {"spectrum": spectrum, "weights": [weight] * subspaces,
                            "dims": [n // subspaces] * subspaces},
            "equal dims with more groups than any row spans: round-robin groups are support-disjoint",
            m, n)
    # eight Naimark slots of similar cost make the top decile of the pass, so
    # the 90th percentile falls inside that tier rather than on its edge
    for i in range(1 if tiny else 8):
        m = 3 + i % 3
        n = 2 * m + (2 + i if tiny else 16 + 2 * i)
        c = 2 + i % 3
        subspaces = 4 + i % 2 + c
        dim = 2
        fm = subspaces * dim // c
        while fm * c != subspaces * dim or fm < 2:
            subspaces += 1
            fm = subspaces * dim // c
        add("naimark", {"m": m, "n": n, "c": c, "subspaces": subspaces, "dim": dim, "fm": fm},
            "scaled unit-norm tight frames are Parseval; flat integer sffr scaled by 1/c is a "
            "Parseval fusion frame with weights in (0, 1)", m, n)
    return out


def _round_robin_size(rng: random.Random, m: int) -> Tuple[int, int]:
    while True:
        n = rng.randint(2 * m, 4 * m)
        supports = _unit_rows_layout([F(n, m)] * m)
        span = max(
            max(c for c, s in enumerate(supports) if row in s)
            - min(c for c, s in enumerate(supports) if row in s) + 1
            for row in range(m)
        )
        for subspaces in range(span, n + 1):
            if n % subspaces == 0 and n // subspaces >= 1 and subspaces < n:
                return n, subspaces


def run_numeric(inst: Instance, tr) -> Dict[str, object]:
    p = inst.params
    out: Dict[str, object] = {"status": ANSWER, "built": [], "frames": [], "fusions": [],
                              "json_bytes": [], "round_trips": [], "naimark": []}
    family = inst.family
    if family == "dft":
        with tr.span("construct.build"):
            matrix = st.construct_untf_dft(p["m"], p["n"])
        with tr.span("verify.frame"):
            report = st.verify_frame(matrix, p["spectrum"], p["norms"])
        out["built"].append(matrix)
        out["frames"].append((matrix, p["spectrum"], report))
        return out
    if family == "naimark":
        with tr.span("construct.build"):
            parseval = st.construct_untf(p["m"], p["n"]).scale(st.RadicalScalar.sqrt(F(p["m"], p["n"])))
            complement = st.naimark_complement(parseval)
        c = p["c"]
        with tr.span("fusion.build"):
            base = st.sffr([F(c)] * p["fm"], p["subspaces"], p["dim"])
            scaled = st.FusionFrame(base.m, (F(1, c),) * p["subspaces"], base.dims,
                                     base.generator.scale(st.RadicalScalar.sqrt(F(1, c))), base.partition)
            mate = st.naimark_complement_fusion(scaled)
        for frame in (scaled, mate):
            _fusion_round_trip(frame, tr, out)
        # the complement's float-derived dyadic entries stay out of "built":
        # the arithmetic probes would take RadicalScalar.sqrt of their
        # squares, whose trial-division split of ~100-bit integers does not
        # finish (a known defect of _squarefree_split)
        out["built"] += [parseval, scaled.generator]
        out["naimark"] = [(parseval, complement), (scaled.generator, mate.generator)]
        out["mate"] = (scaled, mate)
        return out
    with tr.span("fusion.build"):
        if family == "sffr":
            frame = st.sffr(p["spectrum"], p["subspaces"], p["dim"])
        elif family == "rff":
            frame = st.rff(p["spectrum"], p["n"])
        elif family == "uff":
            frame = st.uff(p["spectrum"], p["dims"])
        else:
            frame = st.weighted_fusion(p["weights"], p["dims"], p["spectrum"])
    decoded = _fusion_round_trip(frame, tr, out)
    with tr.span("verify.fusion"):
        report = st.verify_fusion(decoded, p["spectrum"])
    out["built"].append(frame.generator)
    if family == "sffr":
        requested = (p["dim"],) * p["subspaces"]
    elif family == "rff":
        requested = frame.dims
    else:
        requested = tuple(p["dims"])
    out["fusions"].append((frame, requested, report))
    return out


def _fusion_round_trip(frame, tr, out):
    with tr.span("json_io.encode"):
        text = json.dumps(st.fusion_to_json(frame))
    with tr.span("json_io.decode"):
        decoded = st.fusion_from_json(json.loads(text))
    out["json_bytes"].append(len(text))
    out["round_trips"].append((frame, decoded))
    return decoded


# -- cli_files --------------------------------------------------------------------


def generate_cli_files(rng: random.Random, tiny: bool) -> List[Instance]:
    out: List[Instance] = []
    rounds = 1 if tiny else 4
    for r in range(rounds):
        for f, fmt in enumerate(("json", "csv")):
            # sizes fixed per slot; the seed draws the values
            m = 3 + (2 * r + f) % 6
            n = 2 * m + (2 if tiny else 8 * r + 4 * f) + rng.randint(0, 3)
            params = {"command": "untf", "format": fmt, "m": m, "n": n,
                      "spectrum": [F(n, m)] * m, "norms": [F(1)] * n}
            out.append(Instance(len(out), "cli", params, FEASIBLE,
                                "N >= 2M: the 2x2 fill of the flat spectrum always completes", m, n))
            count = (12 if tiny else 16 + 12 * r + 6 * f) + rng.randint(0, 3)
            norms, spectrum = _pnstc_pair(rng, count, 2 + (2 * r + f) % 7)
            params = {"command": "pnstc", "format": fmt, "norms": norms, "spectrum": spectrum}
            out.append(Instance(len(out), "cli", params, FEASIBLE,
                                "every eigenvalue >= 2 * largest norm, norms non-decreasing",
                                len(spectrum), len(norms)))
            subspaces, dim, m = 5 + 2 * r + f, 2 + f, 3 + r % 3
            spectrum = [F(v) for v in _integer_split(rng, subspaces * dim, m, 2, subspaces)]
            params = {"command": "sffr", "format": fmt, "spectrum": spectrum,
                      "subspaces": subspaces, "dim": dim}
            out.append(Instance(len(out), "cli", params, FEASIBLE,
                                "integer eigenvalues in [2, D]: floor condition holds", m,
                                subspaces * dim))
    return out


def cli_argv(inst: Instance, workdir: str) -> Tuple[List[str], Optional[List[str]], str]:
    p = inst.params
    path = os.path.join(workdir, f"job{inst.ident}.{p['format']}")
    text = [str(v) for v in p["spectrum"]]
    if p["command"] == "untf":
        argv = ["untf", "--dim", str(p["m"]), "--count", str(p["n"])]
        check = ["--spectrum", *text, "--norms", *[str(v) for v in p["norms"]]]
    elif p["command"] == "pnstc":
        argv = ["pnstc", "--norms-squared", *[str(v) for v in p["norms"]], "--spectrum", *text]
        check = ["--spectrum", *text, "--norms", *[str(v) for v in p["norms"]]]
    else:
        argv = ["sffr", "--spectrum", *text, "--subspaces", str(p["subspaces"]),
                "--subspace-dim", str(p["dim"])]
        check = ["--spectrum", *text]
    argv += ["--output", path, "--format", p["format"]]
    verify = ["verify", "--input", path, *check] if p["format"] == "json" else None
    return argv, verify, path


def _call_cli(argv: List[str]) -> Tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = st_cli.run(argv)
    return code, stdout.getvalue(), stderr.getvalue()


def run_cli(inst: Instance, tr, workdir: str) -> Dict[str, object]:
    argv, verify, path = cli_argv(inst, workdir)
    calls = []
    with tr.span("cli.run"):
        calls.append(_call_cli(argv))
    if verify is not None:
        with tr.span("cli.run"):
            calls.append(_call_cli(verify))
    return {"status": ANSWER, "calls": calls, "path": path, "built": [], "frames": []}


# -- checks -------------------------------------------------------------------------


def _exact_frame_problem(report, m: int, n: int, optimal: bool) -> Optional[str]:
    if not report.exact:
        return "report is not exact"
    if not (report.rows_orthogonal and report.is_frame):
        return "rows not orthogonal or not a frame"
    if report.spectrum_matches is not True:
        return "row square sums differ from the spectrum in its realized order"
    if report.norms_match is not True:
        return "column norms differ from the requested norms"
    if report.nonzero_count > n + 2 * (m - 1):
        return "more nonzeros than one 2x2 block per row boundary allows"
    # N + 2(M - mu) is the optimal count for the flat unit-norm fill; mu is
    # exact for M <= 8 only
    if optimal and m <= 8 and report.nonzero_count > report.optimal_sparsity_bound:
        return "nonzero count exceeds the optimal sparsity bound"
    return None


def _round_trip_problem(out) -> Optional[str]:
    for original, decoded in out.get("round_trips", ()):
        if isinstance(original, st.FusionFrame):
            if (decoded.partition != original.partition
                    or decoded.weights_squared != original.weights_squared
                    or decoded.generator.entries != original.generator.entries):
                return "fusion JSON round trip changed the frame"
        elif decoded.entries != original.entries:
            return "JSON round trip changed the entries"
    return None


def check_wide(inst: Instance, out) -> Optional[str]:
    _matrix, _spectrum, report = out["frames"][0]
    return _round_trip_problem(out) or _exact_frame_problem(
        report, inst.m, inst.n, optimal=inst.family == "untf"
    )


def check_search(inst: Instance, out) -> Optional[str]:
    status = out["status"]
    if status == BUDGET_CUT:
        return BUDGET_CUT
    if inst.label == INFEASIBLE:
        if status == INFEASIBLE:
            return None
        return f"expected infeasible ({inst.why}), got {status}"
    if status != ANSWER:
        return f"expected a frame ({inst.why}), got {status}: {out.get('error')}"
    matrix, _realized, report = out["frames"][0]
    problem = _exact_frame_problem(report, inst.m, matrix.col_count, optimal=False)
    if problem:
        return problem
    for frame, dims, _report in out["fusions"]:
        if tuple(frame.dims) != tuple(dims) or [len(g) for g in frame.partition] != list(dims):
            return "fusion frame dimensions differ from the request"
    return None


def _numeric_identity_gap(top, bottom) -> float:
    stacked = np.vstack([top.to_dense(), bottom.to_dense()])
    return float(np.max(np.abs(stacked @ stacked.conj().T - np.eye(stacked.shape[0]))))


def check_numeric(inst: Instance, out) -> Optional[str]:
    problem = _round_trip_problem(out)
    if problem:
        return problem
    if inst.family == "dft":
        matrix, _spectrum, report = out["frames"][0]
        if report.exact or not report.rows_orthogonal or not report.is_frame:
            return "DFT frame report is not a numeric tight frame"
        if report.spectrum_matches is not True or report.norms_match is not True:
            return "DFT square sums or norms differ from the request"
        dense = matrix.to_dense()
        gap = np.max(np.abs(dense @ dense.conj().T - np.eye(inst.m) * (inst.n / inst.m)))
        return None if gap <= FRAME_TOLERANCE else f"DFT Gram off by {gap:.2e}"
    if inst.family == "naimark":
        for top, bottom in out["naimark"]:
            gap = _numeric_identity_gap(top, bottom)
            if gap > FUSION_TOLERANCE:
                return f"Naimark stack deviates from orthogonal by {gap:.2e}"
        scaled, mate = out["mate"]
        if mate.dims != scaled.dims or mate.partition != scaled.partition:
            return "Naimark fusion complement changed the groups"
        if mate.weights_squared != tuple(1 - w for w in scaled.weights_squared):
            return "Naimark fusion complement weights are not 1 - w^2"
        return None
    frame, requested, report = out["fusions"][0]
    if tuple(report.subspace_dims) != tuple(requested):
        return f"subspace dims {report.subspace_dims} differ from the requested {tuple(requested)}"
    if not (report.is_frame and report.weights_consistent):
        return "fusion report is not a frame with consistent weights"
    if report.exact:
        if report.spectrum_matches is not True:
            return "exact fusion spectrum differs from the request"
    else:
        if inst.family != "sffr" or frame.meta.get("floor_condition"):
            return "fusion report left the exact route although the groups are orthogonal"
        total = float(sum(w * d for w, d in zip(frame.weights_squared, frame.dims)))
        if abs(sum(report.spectrum) - total) > FUSION_TOLERANCE:
            return "numeric fusion operator trace differs from the weighted dimension total"
    return None


def _csv_gram_problem(path: str, spectrum: Sequence[F]) -> Optional[str]:
    dense = np.loadtxt(path, delimiter=",", ndmin=2)
    gap = np.max(np.abs(dense @ dense.T - np.diag([float(v) for v in spectrum])))
    return None if gap <= FRAME_TOLERANCE else f"CSV frame Gram off by {gap:.2e}"


def check_cli(inst: Instance, out) -> Optional[str]:
    p = inst.params
    for code, stdout, stderr in out["calls"]:
        if code != 0:
            return f"exit {code}: {stderr.strip()}"
        report = json.loads(stdout)["report"]
        if p["command"] == "sffr":
            if report["subspace_dims"] != [p["dim"]] * p["subspaces"]:
                return "fusion report dims differ from the request"
            if not (report["exact"] and report["is_frame"] and report["spectrum_matches"]):
                return "fusion report is not an exact match"
        else:
            if not (report["exact"] and report["rows_orthogonal"] and report["is_frame"]):
                return "frame report is not exact and orthogonal"
            if not (report["spectrum_matches"] and report["norms_match"]):
                return "frame report spectrum or norms mismatch"
            m = len(p["spectrum"])
            n = len(p["norms"])
            if report["nonzero_count"] > n + 2 * (m - 1):
                return "more nonzeros than one 2x2 block per row boundary allows"
            if p["command"] == "untf" and report["nonzero_count"] > report["optimal_sparsity_bound"]:
                return "nonzero count exceeds the optimal sparsity bound"
    if p["format"] == "csv":
        return _csv_gram_problem(out["path"], p["spectrum"])
    return None


# -- registry -----------------------------------------------------------------------

GENERATORS: Dict[str, Callable[[random.Random, bool], List[Instance]]] = {
    "wide_exact": generate_wide_exact,
    "spectrum_to_frame": generate_spectrum_to_frame,
    "numeric_fusion": generate_numeric_fusion,
    "cli_files": generate_cli_files,
}

CHECKS = {
    "wide_exact": check_wide,
    "spectrum_to_frame": check_search,
    "numeric_fusion": check_numeric,
    "cli_files": check_cli,
}


def generate(workload: str, seed: int, tiny: bool = False) -> List[Instance]:
    """The instances of one pass; the same (workload, seed, tiny) gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    instances = GENERATORS[workload](rng, tiny)
    order = list(range(len(instances)))
    rng.shuffle(order)
    return [instances[i] for i in order]


def pipeline(workload: str, workdir: str) -> Callable:
    if workload == "wide_exact":
        return run_wide
    if workload == "spectrum_to_frame":
        return run_search
    if workload == "numeric_fusion":
        return run_numeric
    return lambda inst, tr: run_cli(inst, tr, workdir)
