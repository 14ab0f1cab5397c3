"""Tests of the benchmark's own code: inputs, schedule, statistics, checks.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import json
import statistics
import types

import pytest

from pbench import checks, layers, loadgen, payloads


def test_same_seed_same_inputs_other_seed_different():
    assert payloads.cold_payloads(50, 7) == payloads.cold_payloads(50, 7)
    assert payloads.hot_choices(50, 7) == payloads.hot_choices(50, 7)
    assert loadgen.poisson_schedule(6.0, 20, 7) == loadgen.poisson_schedule(6.0, 20, 7)
    assert payloads.ga_spec(7, 0) == payloads.ga_spec(7, 0)
    assert payloads.cold_payloads(50, 7) != payloads.cold_payloads(50, 8)
    assert payloads.hot_choices(50, 7) != payloads.hot_choices(50, 8)
    assert loadgen.poisson_schedule(6.0, 20, 7) != loadgen.poisson_schedule(6.0, 20, 8)
    assert payloads.ga_spec(7, 0) != payloads.ga_spec(8, 0)
    assert payloads.ga_spec(7, 0) != payloads.ga_spec(7, 1)


def test_cold_payloads_are_distinct_default_requests():
    batch = payloads.cold_payloads(500, 3)
    assert len({payloads.encode(p) for p in batch}) == 500
    for payload in batch:
        assert payload["n_panels"] == 200
        assert -2.0 <= payload["alpha_degrees"] <= 8.0
        assert 5e5 <= payload["reynolds"] <= 3e6
        assert len(payload["airfoil"]) == 4
    hot = {payloads.encode(p) for p in payloads.hot_keys()}
    assert len(hot) == 16
    assert not hot & {payloads.encode(p) for p in batch}
    assert payloads.encode(payloads.warmup_payload(3)) not in hot


@pytest.mark.parametrize("rate,seconds", [(6.0, 30), (20.0, 30), (50.0, 200)])
def test_poisson_schedule_mean_rate(rate, seconds):
    offsets = loadgen.poisson_schedule(rate, seconds, 11)
    assert len(offsets) == round(rate * seconds)
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] < seconds
    gaps = [b - a for a, b in zip(offsets, offsets[1:])]
    assert statistics.mean(gaps) == pytest.approx(1.0 / rate, rel=0.05)
    # Exponential gaps have a coefficient of variation near 1 (a
    # uniform grid would have 0).
    assert statistics.pstdev(gaps) / statistics.mean(gaps) == pytest.approx(1.0, abs=0.25)


@pytest.mark.parametrize("n,expected", [
    (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (180, 90.0),
    (999, 90.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert loadgen.tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_supported():
    for n in range(20, 3000, 37):
        q = loadgen.tail_percentile(n)
        values = list(range(n))
        cut = loadgen.percentile(values, q)
        assert sum(1 for v in values if v > cut) >= loadgen.MIN_BEYOND
        higher = [h for h in loadgen.TAIL_LADDER if h > q]
        for h in higher:
            assert sum(1 for v in values if v > loadgen.percentile(values, h)) < 10


def test_percentile_nearest_rank():
    values = list(range(1, 101))
    assert loadgen.percentile(values, 50) == 50
    assert loadgen.percentile(values, 90) == 90
    assert loadgen.percentile(values, 100) == 100


PAYLOAD = {"airfoil": "2412", "alpha_degrees": 4.0, "reynolds": 1e6,
           "n_panels": 200}
RECORD = {"airfoil": "NACA 2412", "alpha_degrees": 4.0, "cd": 0.0124,
          "cl": 0.7414, "cm": -0.0611, "lift_to_drag": 59.79, "n_panels": 200,
          "precision": "double", "reynolds": 1e6, "separated": True,
          "use_head": True}
REFERENCE = types.SimpleNamespace(cl=0.7414, cm=-0.0611, cd=0.0124)


def _body(**changes):
    record = dict(RECORD, **changes)
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode()


def test_checker_accepts_a_good_body():
    assert checks.check_record(_body(), PAYLOAD) == []
    assert checks.check_against_reference(_body(), REFERENCE) == []


def test_checker_rejects_a_nan_body():
    body = _body(cd=float("nan"))
    assert b"NaN" in body
    assert checks.check_record(body, PAYLOAD)
    assert checks.check_against_reference(body, REFERENCE)


def test_checker_rejects_cl_off_by_1e3():
    problems = checks.check_against_reference(_body(cl=0.7414 + 1e-3), REFERENCE)
    assert problems and "cl" in problems[0]


def test_checker_rejects_a_wrong_echo():
    assert checks.check_record(_body(alpha_degrees=2.0), PAYLOAD)


def _snapshot(**requests):
    base = dict.fromkeys(checks.REQUEST_COUNTERS, 0)
    base.update(requests)
    return {"requests": dict(base, in_flight=0)}


def test_request_accounting_matches_the_client():
    statuses = [200, 200, 200, 503]
    after = _snapshot(admitted=3, completed=3, shed=1)
    assert checks.check_request_accounting(_snapshot(), after, statuses) == []
    lying = _snapshot(admitted=3, completed=2, failed=1, shed=1)
    assert checks.check_request_accounting(_snapshot(), lying, statuses)


def _span(span_id, name, start, end, parent=0, rid=None, extra=None):
    return [span_id, name, start, end, parent, rid, extra]


def test_attribution_adds_up_to_client_wall():
    spans = [
        _span(1, "serve.analyze", 0.000, 0.090, rid="r"),
        _span(2, "serve.cache.key", 0.001, 0.002, parent=1, rid="r"),
        _span(3, "serve.cache.get", 0.002, 0.003, parent=1, rid="r"),
        _span(4, "serve.cache.get", 0.050, 0.051, rid="r"),
        _span(5, "core.evaluate", 0.051, 0.085, extra={"rids": ["r"]}),
        _span(6, "core.solve_systems", 0.051, 0.075, parent=5),
        _span(7, "panel.assemble", 0.051, 0.055, parent=6),
        _span(8, "linalg.factor", 0.055, 0.070, parent=6,
              extra={"stack": 1, "m": 200}),
        _span(9, "viscous.analyze", 0.075, 0.083, parent=5),
        _span(10, "core.serialize", 0.085, 0.086, rid="r"),
        _span(11, "serve.cache.put", 0.086, 0.087, rid="r"),
        _span(12, "core.canonical_json", 0.091, 0.092, rid="r"),
    ]
    index = layers.SpanIndex(spans)
    got = layers.attribute_request(index, "r", 100.0, {"r": spans[4]})
    assert got["serve.service"] == pytest.approx(47.0)
    assert got["panel"] == pytest.approx(4.0)
    assert got["linalg"] == pytest.approx(15.0)
    assert got["viscous"] == pytest.approx(8.0)
    assert got["serve.http"] == pytest.approx(100.0 - 90.0 - 1.0)
    total = sum(got[name] for name in layers.LAYERS) + got["unattributed"]
    assert total == pytest.approx(100.0)
    assert got["serve.cache"] == pytest.approx(4.0)
    assert got["unattributed"] == pytest.approx(4.0)  # 0-1 ms and 87-90 ms
