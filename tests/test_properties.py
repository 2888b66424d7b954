"""Property-based checks of the module invariants."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lesioneval.matching import greedy_match
from lesioneval.metrics import Columns, LesionPairMetrics
from lesioneval.report import _dump_json
from lesioneval.stratify import BIN_NAMES, LesionTable, bin_index
from lesioneval.volume import Volume, binarize
from oracles import SIZE_BIN_EDGES, categorize


@given(st.integers(1, 10_000))
def test_categorize_partitions(v):
    # exactly one stated bin holds each count, and bin_index picks it
    holds = [n for n, lo, hi in SIZE_BIN_EDGES if lo <= v and (hi is None or v < hi)]
    assert holds == [categorize(v)] == [BIN_NAMES[bin_index(v)]]


def test_bin_index_is_categorize_on_arrays():
    # bin_index reads only the lower bounds: it agrees with the stated edges
    # because the bins tile [1, inf), each ending where the next begins
    assert SIZE_BIN_EDGES[0][1] == 1
    assert [e[2] for e in SIZE_BIN_EDGES] == [e[1] for e in SIZE_BIN_EDGES[1:]] + [None]
    assert BIN_NAMES == tuple(e[0] for e in SIZE_BIN_EDGES)
    # the array rule behind stratify and inspect picks categorize's bin
    sizes = np.arange(1, 1001)
    assert [BIN_NAMES[i] for i in bin_index(sizes).tolist()] == [
        categorize(v) for v in sizes.tolist()
    ]
    assert bin_index(np.array([], np.int64)).tolist() == []
    with pytest.raises(ValueError, match="got 0"):
        bin_index(np.array([5, 0, 12]))


@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.floats(0.01, 1.0)),
        max_size=30,
    )
)
def test_greedy_match_is_one_to_one(pairs):
    matches = greedy_match(pairs)
    gts = [g for g, _, _ in matches]
    preds = [p for _, p, _ in matches]
    assert len(set(gts)) == len(gts)
    assert len(set(preds)) == len(preds)
    # every accepted pair was a candidate
    keys = {(g, p) for g, p, _ in pairs}
    assert all((g, p) in keys for g, p, _ in matches)


@settings(max_examples=30)
@given(
    st.lists(st.floats(0.0, 2.0), min_size=1, max_size=27),
    st.floats(0.0, 0.999),  # idempotence holds for thresholds in [0, 1)
)
def test_binarize_idempotent(values, threshold):
    n = len(values)
    arr = np.zeros(27)
    arr[:n] = values
    v = Volume(arr.reshape(3, 3, 3), (1, 1, 1))
    once = binarize(v, threshold)
    assert binarize(once, threshold) == once
    assert set(np.unique(once.data)) <= {0, 1}


_JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=30,
)


_NAMES = st.sampled_from(("TP", "FP", "FN", *BIN_NAMES))
# a lesion-table cell: a number, None, NaN, an infinity or a status or bin name
_CELLS = st.none() | st.integers() | st.floats() | _NAMES
_TYPED = {np.int64: st.integers(-(2**63), 2**63 - 1), np.float64: st.floats(), np.str_: _NAMES}


@st.composite
def _tables(draw):
    cls = draw(st.sampled_from((LesionTable, LesionPairMetrics)))
    n = draw(st.integers(0, 4))  # empty tables included

    def column():
        kind = draw(st.sampled_from((object, *_TYPED)))
        if kind is object:  # Python scalars, as stratify stores the optional cells
            c = np.empty(n, object)
            c[:] = draw(st.lists(_CELLS, min_size=n, max_size=n))
            return c
        return np.array(draw(st.lists(_TYPED[kind], min_size=n, max_size=n)), kind)

    return cls(**{f.name: column() for f in dataclasses.fields(cls)})


@settings(max_examples=300)
@given(st.dictionaries(st.text(max_size=5), _JSON_VALUES | _tables(), max_size=5))
def test_dump_json_is_json_dumps_byte_for_byte(obj):
    # empty containers, None, NaN and infinities, floats, bools and str keys,
    # nested in dicts, lists and tuples at any depth; a top-level value may
    # also be a lesion table, which must read as its rows() would
    rows = {k: v.rows() if isinstance(v, Columns) else v for k, v in obj.items()}
    assert _dump_json(obj) == json.dumps(rows, indent=2, sort_keys=True) + "\n"
