import numpy as np
import pytest

from coopad.metrics import (MetricError, aggregate_reports, anomaly_ranges,
                            auc_pr, average_anomaly_length, buffered_weights,
                            evaluate, range_auc_pr, select_peaks, standard_f1,
                            topk_accuracy, vus_pr)

# ---------------------------------------------------------------------------
# brute-force oracles: explicit loops, no shared code with the implementation
# ---------------------------------------------------------------------------


def oracle_ranges(labels):
    out, start = [], None
    for i, v in enumerate(labels):
        if v and start is None:
            start = i
        if not v and start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(labels) - 1))
    return out


def oracle_weights(labels, buffer):
    ranges = oracle_ranges(labels)
    w = [0.0] * len(labels)
    for i in range(len(labels)):
        best = 0.0
        for s, e in ranges:
            if s <= i <= e:
                d = 0
            elif i < s:
                d = s - i
            else:
                d = i - e
            best = max(best, max(0.0, 1.0 - d / (buffer + 1.0)))
        w[i] = best
    return w


def oracle_pr_points(scores, weights):
    """(precision, recall) at every distinct threshold, descending, by
    re-thresholding the whole series from scratch each time."""
    total = sum(weights)
    points = []
    for tau in sorted(set(scores), reverse=True):
        tp = sum(w for s, w in zip(scores, weights) if s >= tau)
        npred = sum(1 for s in scores if s >= tau)
        points.append((tp / npred, tp / total))
    return points


def oracle_auc_pr(scores, labels, buffer):
    weights = oracle_weights(labels, buffer)
    area, prev_r = 0.0, 0.0
    for p, r in oracle_pr_points(scores, weights):
        area += (r - prev_r) * p
        prev_r = r
    return area


def oracle_f1(scores, labels):
    pos = sum(labels)
    best = 0.0
    for tau in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= tau and y)
        npred = sum(1 for s in scores if s >= tau)
        p, r = tp / npred, tp / pos
        if p + r > 0:
            best = max(best, 2 * p * r / (p + r))
    return best


def oracle_vus(scores, labels, max_buffer, steps=11):
    if steps == 1 or max_buffer <= 0:
        return oracle_auc_pr(scores, labels, 0.0)
    buffers = np.linspace(0.0, max_buffer, steps)
    vals = [oracle_auc_pr(scores, labels, b) for b in buffers]
    area = 0.0
    for i in range(1, steps):
        area += 0.5 * (vals[i] + vals[i - 1]) * (buffers[i] - buffers[i - 1])
    return area / max_buffer


def oracle_topk(scores, anomaly_range, k, radius=100, exclusion=100):
    scores = list(scores)
    taken = []
    for _ in range(k):
        best, best_i = -np.inf, None
        for i, s in enumerate(scores):
            if any(abs(i - j) <= exclusion for j in taken):
                continue
            if s > best:
                best, best_i = s, i
        if best_i is None:
            break
        taken.append(best_i)
    s, e = anomaly_range
    return 1 if any(s - radius <= i <= e + radius for i in taken) else 0


def random_instance(rng):
    n = int(rng.integers(4, 65))
    labels = np.zeros(n, dtype=np.int8)
    while labels.sum() == 0:
        for _ in range(int(rng.integers(1, 4))):
            s = int(rng.integers(0, n))
            e = min(n - 1, s + int(rng.integers(0, 8)))
            labels[s:e + 1] = 1
    if rng.random() < 0.3:
        scores = rng.integers(0, 5, size=n).astype(np.float64)  # heavy ties
    else:
        scores = rng.normal(size=n)
    return scores, labels


# ---------------------------------------------------------------------------


class TestAnomalyRanges:
    def test_examples(self):
        assert anomaly_ranges([0, 1, 1, 0, 1]) == [(1, 2), (4, 4)]
        assert anomaly_ranges([1, 1, 1]) == [(0, 2)]
        assert anomaly_ranges([0, 0]) == []

    def test_average_length(self):
        assert average_anomaly_length([0, 1, 1, 0, 1]) == 1.5
        assert average_anomaly_length([0, 0, 0]) == 0.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            labels = (rng.random(size=rng.integers(1, 40)) < 0.3).astype(int)
            assert anomaly_ranges(labels) == oracle_ranges(labels)


class TestStandardF1:
    def test_perfect(self):
        assert standard_f1([0.1, 0.9, 0.8, 0.2], [0, 1, 1, 0]) == 1.0

    def test_inverted_scores(self):
        # best threshold predicts everything positive: p=1/2, r=1
        v = standard_f1([0.9, 0.1], [0, 1])
        assert np.isclose(v, 2 * 0.5 * 1.0 / 1.5, atol=1e-12)

    def test_all_tied(self):
        # one threshold group: everything positive
        v = standard_f1([1.0, 1.0, 1.0, 1.0], [0, 1, 0, 0])
        assert np.isclose(v, 2 * 0.25 * 1.0 / 1.25, atol=1e-12)

    def test_no_positives(self):
        with pytest.raises(MetricError):
            standard_f1([1.0, 2.0], [0, 0])

    def test_length_mismatch(self):
        with pytest.raises(MetricError):
            standard_f1([1.0], [0, 1])


class TestBufferedWeights:
    def test_buffer_zero_is_labels(self):
        labels = [0, 1, 1, 0, 0]
        assert buffered_weights(labels, 0).tolist() == [0, 1, 1, 0, 0]

    def test_single_range_ramp(self):
        # buffer 2: ramp 1 - d/3 on each side
        w = buffered_weights([0, 0, 0, 1, 1, 0, 0, 0], 2)
        expected = [0, 1 / 3, 2 / 3, 1, 1, 2 / 3, 1 / 3, 0]
        assert np.allclose(w, expected, atol=1e-12)

    def test_overlap_takes_max(self):
        w = buffered_weights([1, 0, 0, 1], 2)
        assert np.allclose(w, [1, 2 / 3, 2 / 3, 1], atol=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            _, labels = random_instance(rng)
            buf = float(rng.uniform(0, 10))
            assert np.allclose(buffered_weights(labels, buf),
                               oracle_weights(labels, buf), atol=1e-12)


class TestAucPr:
    def test_perfect(self):
        assert np.isclose(auc_pr([0.1, 0.9, 0.8, 0.2], [0, 1, 1, 0]), 1.0,
                          atol=1e-12)

    def test_hand_computed(self):
        # thresholds desc: 0.9 (tp1/n1), 0.5 (tp1/n2), 0.3 (tp2/n3)
        # area = 0.5*1 + 0*0.5 + 0.5*(2/3)
        v = auc_pr([0.5, 0.9, 0.3], [0, 1, 1])
        assert np.isclose(v, 0.5 + 0.5 * 2 / 3, atol=1e-12)

    def test_random_scorer_approaches_prevalence(self):
        rng = np.random.default_rng(2)
        labels = np.zeros(20_000, dtype=int)
        labels[rng.random(20_000) < 0.1] = 1
        v = auc_pr(rng.normal(size=20_000), labels)
        assert abs(v - labels.mean()) < 0.02

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        scores, labels = rng.normal(size=50), (rng.random(50) < 0.2).astype(int)
        labels[0] = 1
        a = auc_pr(scores, labels)
        b = auc_pr(np.exp(scores) * 3.0 + 1.0, labels)
        assert np.isclose(a, b, atol=1e-12)
        assert np.isclose(standard_f1(scores, labels),
                          standard_f1(np.exp(scores), labels), atol=1e-12)


class TestRangeAucPr:
    def test_buffer_zero_equals_plain(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            scores, labels = random_instance(rng)
            assert range_auc_pr(scores, labels, buffer=0) == \
                auc_pr(scores, labels)

    def test_near_miss_gets_credit(self):
        # detection 2 points left of a range: worthless at buffer 0,
        # partial credit with a buffer
        labels = np.zeros(50, dtype=int)
        labels[30:35] = 1
        scores = np.zeros(50)
        scores[28] = 1.0
        assert range_auc_pr(scores, labels, buffer=5) > \
            range_auc_pr(scores, labels, buffer=0)


class TestVusPr:
    def test_degenerate_cases(self):
        scores = np.array([0.1, 0.9, 0.2, 0.3])
        labels = np.array([0, 1, 0, 0])
        assert vus_pr(scores, labels, max_buffer=0) == auc_pr(scores, labels)

    def test_perfect_scorer(self):
        labels = np.zeros(40, dtype=int)
        labels[10:15] = 1
        scores = labels.astype(float) + \
            np.random.default_rng(5).uniform(0, 0.1, 40)
        # buffered weights put credit on low-scored neighbors, so even a
        # perfect scorer stays below 1; it must still beat a random one
        v = vus_pr(scores, labels)
        assert v > 0.7
        assert v > vus_pr(np.random.default_rng(6).normal(size=40), labels)


class TestOracleSweep:
    def test_500_random_instances(self):
        rng = np.random.default_rng(6)
        for _ in range(500):
            scores, labels = random_instance(rng)
            assert abs(standard_f1(scores, labels)
                       - oracle_f1(scores, labels)) < 1e-9
            assert abs(auc_pr(scores, labels)
                       - oracle_auc_pr(scores, labels, 0.0)) < 1e-9
            buf = float(rng.uniform(0, 8))
            assert abs(range_auc_pr(scores, labels, buffer=buf)
                       - oracle_auc_pr(scores, labels, buf)) < 1e-9
            mb = float(rng.uniform(0, 10))
            assert abs(vus_pr(scores, labels, max_buffer=mb)
                       - oracle_vus(scores, labels, mb)) < 1e-9


class TestTopK:
    def test_peak_inside_range(self):
        scores = np.zeros(1000)
        scores[500] = 5.0
        assert topk_accuracy(scores, (480, 520), k=1) == 1

    def test_peak_within_radius(self):
        scores = np.zeros(1000)
        scores[379] = 5.0  # 101 left of range start: miss at radius 100
        assert topk_accuracy(scores, (480, 520), k=1) == 0
        scores2 = np.zeros(1000)
        scores2[380] = 5.0  # exactly 100 away: hit
        assert topk_accuracy(scores2, (480, 520), k=1) == 1

    def test_exclusion_forces_spread(self):
        # two near-identical peaks 50 apart collapse to one candidate
        scores = np.zeros(1000)
        scores[100], scores[150] = 5.0, 4.9
        scores[700] = 4.0
        assert select_peaks(scores, 2) == [100, 700]

    def test_k_ordering(self):
        scores = np.zeros(2000)
        scores[100], scores[600], scores[1200] = 3.0, 2.0, 1.0
        assert topk_accuracy(scores, (1150, 1250), k=1) == 0
        assert topk_accuracy(scores, (1150, 1250), k=3) == 1

    def test_100_random_fixtures_match_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            n = int(rng.integers(300, 1500))
            scores = rng.normal(size=n)
            s = int(rng.integers(0, n - 10))
            e = s + int(rng.integers(0, 10))
            for k in (1, 3, 5):
                assert topk_accuracy(scores, (s, e), k) == \
                    oracle_topk(scores, (s, e), k), (n, s, e, k)
                assert select_peaks(scores, k)[0] == int(np.argmax(scores))


class TestEvaluateAndAggregate:
    def test_single_anomaly_has_topk(self):
        labels = np.zeros(500, dtype=int)
        labels[200:220] = 1
        scores = labels + np.random.default_rng(8).uniform(0, 0.1, 500)
        rep = evaluate(scores, labels)
        assert set(rep.topk) == {1, 3, 5}
        assert rep.topk[1] == 1
        d = rep.to_dict("demo")
        assert d["dataset"] == "demo" and "top1" in d and "top3" in d

    def test_multi_anomaly_skips_topk(self):
        labels = np.zeros(500, dtype=int)
        labels[100:110] = 1
        labels[300:310] = 1
        rep = evaluate(np.random.default_rng(9).normal(size=500), labels)
        assert rep.topk == {}

    def test_aggregate_means(self):
        r1 = {"dataset": "a", "f1": 1.0, "auc_pr": 0.5, "r_auc_pr": 0.5,
              "vus_pr": 0.5, "top1": 1}
        r2 = {"dataset": "b", "f1": 0.0, "auc_pr": 0.5, "r_auc_pr": 0.5,
              "vus_pr": 0.5}
        agg = aggregate_reports([r1, r2])
        assert agg["datasets"] == 2
        assert agg["f1"] == 0.5
        assert agg["top1"] == 1.0  # only datasets reporting top-k
