"""The bit-identity digest (``report_digest.py``): stable across runs, and
covering every method, in both shapes of call."""

import hashlib

import numpy as np
import pytest

from deltalift.engine import METHODS, ContributionReport
from deltalift.genomics import MethodComparison

import report_digest


def test_two_runs_give_the_same_digest_over_every_method():
    records = list(report_digest.records())
    digest = report_digest.digest(records)
    assert report_digest.digest() == digest
    assert len(digest) == 64

    reports = [out for _, out in records if isinstance(out, ContributionReport)]
    reports += [out[0] for label, out in records if label.endswith("lrp_epsilon")]
    for method in METHODS:
        shapes = {r.batch is None for r in reports if r.method == method}
        assert shapes == {True, False}, method  # one sample and a batch
    shares = [out[1]["bias_relevance"] for label, out in records
              if label.endswith("lrp_epsilon")]
    assert shares and all(shares)
    comparisons = [out for _, out in records if isinstance(out, MethodComparison)]
    assert len(comparisons) == 2
    assert comparisons[0].rows and comparisons[0].rows[0].deeplift_track is not None


def test_the_digest_sees_one_bit_of_a_score():
    label, report = next(r for r in report_digest.records() if r[0].startswith("cnn"))
    before = report_digest.digest([(label, report)])
    scores = report.contributions["seq"]
    scores.view(np.uint64).flat[0] ^= 1
    assert report_digest.digest([(label, report)]) != before


def test_every_field_type_is_hashed():
    h = hashlib.sha256()
    report_digest.feed(h, {"a": (1, 2.0, np.float64(3.0), "s", None, True, np.int64(4)),
                           "b": [np.zeros((2, 3)), np.arange(3)]})
    with pytest.raises(TypeError, match="cannot digest a object"):
        report_digest.feed(h, object())
