"""Property-based checks of the module invariants."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lesioneval.matching import CandidatePair, greedy_match
from lesioneval.stratify import SIZE_BINS, categorize
from lesioneval.volume import Volume, binarize

@given(st.integers(1, 10_000))
def test_categorize_partitions(v):
    assert sum(b.contains(v) for b in SIZE_BINS) == 1
    assert categorize(v).contains(v)


@given(
    st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 8), st.floats(0.01, 1.0)),
        max_size=30,
    )
)
def test_greedy_match_is_one_to_one(pairs):
    cands = [CandidatePair(g, p, iou) for g, p, iou in pairs]
    matches = greedy_match(cands)
    gts = [g for g, _, _ in matches]
    preds = [p for _, p, _ in matches]
    assert len(set(gts)) == len(gts)
    assert len(set(preds)) == len(preds)
    # every accepted pair was a candidate
    keys = {(c.gt_id, c.pred_id) for c in cands}
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
