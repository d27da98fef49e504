"""Same seed, same bytes, same simulated numbers; another seed, another
schedule."""

import run as bench
from harness import gw, lsm, schedule, spec, tcp

MIXED = spec.GATEWAY["gw-mixed"]


def test_values_carry_their_key_and_version():
    value = schedule.make_value("k00042", 7, 64)
    assert len(value) == 64
    assert schedule.read_version("k00042", value) == 7
    assert schedule.read_version("k00043", value) is None
    assert schedule.read_version("k00042", value[:-1] + b"\x00") is None
    assert schedule.read_version("k00042", None) is None
    assert schedule.read_version("k00042", b"") is None


def test_gateway_plan_is_a_function_of_the_seed():
    first = gw.plan_digest(gw.plan_round(MIXED, 1, 0, 0.05))
    assert gw.plan_digest(gw.plan_round(MIXED, 1, 0, 0.05)) == first
    assert gw.plan_digest(gw.plan_round(MIXED, 2, 0, 0.05)) != first
    assert gw.plan_digest(gw.plan_round(MIXED, 1, 1, 0.05)) != first


def test_tcp_and_lsm_plans_are_functions_of_the_seed():
    for plan, digest in ((lambda seed: tcp.plan_round(spec.TCP, seed, 0,
                                                      200, 100),
                          tcp.plan_digest),
                         (lambda seed: lsm.plan_round(spec.LSM, seed, 0, 200),
                          lsm.plan_digest)):
        assert digest(plan(1)) == digest(plan(1))
        assert digest(plan(1)) != digest(plan(2))


def test_open_loop_arrivals_are_poisson_at_the_offered_rate():
    plan = gw.plan_round(MIXED, 3, 0, 1.0)
    for _label, rate, requests in plan["steps"]:
        achieved = len(requests) / requests[-1].due
        assert abs(achieved / rate - 1.0) < 0.1
        assert [request.conn for request in requests[:3]] == [0, 1, 2]


def test_same_seed_same_simulated_metrics():
    first = gw.run_round(MIXED, 5, 0, 0.05)
    again = gw.run_round(MIXED, 5, 0, 0.05)
    other = gw.run_round(MIXED, 6, 0, 0.05)
    sim = lambda result: bench.simulated_metrics([result])[0]  # noqa: E731
    assert sim(first) == sim(again)
    assert sim(first) != sim(other)
    assert first["failures"].count == 0
    assert first["digest"] == again["digest"] != other["digest"]
