"""reprolint: per-rule detection, pragma suppression, and a clean tree.

The fixture files under ``tests/fixtures/lint/`` carry one known
violation per rule; these tests assert each is found (with a usable
location) and that idiomatic simulation code stays clean.
"""

import pathlib

import pytest

from repro.analysis import lint

FIXTURES = pathlib.Path(__file__).parent / "fixtures" / "lint"
SRC = pathlib.Path(__file__).parent.parent / "src" / "repro"


def rules_in(path):
    return {violation.rule for violation in lint.lint_paths([path])}


class TestRuleTable:
    def test_at_least_twelve_rules_implemented(self):
        assert len(lint.RULES) >= 12

    def test_rule_classes_cover_det_sim_obs(self):
        prefixes = {rule_id[:3] for rule_id in lint.RULES}
        assert prefixes == {"DET", "SIM", "OBS"}

    def test_every_rule_fires_on_the_fixture_tree(self):
        fired = rules_in(FIXTURES)
        assert fired == set(lint.RULES), (
            f"rules never exercised by fixtures: {set(lint.RULES) - fired}"
        )


class TestDetRules:
    def test_det_rules_on_fixture(self):
        assert rules_in(FIXTURES / "bad_det.py") == {
            "DET001", "DET002", "DET003", "DET004", "DET005", "DET006",
        }

    @pytest.mark.parametrize("snippet,rule", [
        ("import time\nt = time.time()\n", "DET001"),
        ("import time\nt = time.monotonic_ns()\n", "DET001"),
        ("from time import perf_counter\nt = perf_counter()\n", "DET001"),
        ("from datetime import datetime\nd = datetime.now()\n", "DET001"),
        ("import random\nx = random.randint(0, 9)\n", "DET002"),
        ("import random\nrandom.shuffle(items)\n", "DET002"),
        ("import uuid\nu = uuid.uuid4()\n", "DET003"),
        ("import secrets\ns = secrets.token_bytes(8)\n", "DET003"),
        ("b = hash('key')\n", "DET005"),
        ("order = sorted(events, key=id)\n", "DET006"),
        ("order = sorted(events, key=lambda e: id(e))\n", "DET006"),
        ("first = id(a) < id(b)\n", "DET006"),
    ])
    def test_snippet_flagged(self, snippet, rule):
        rules = {v.rule for v in lint.lint_source(snippet)}
        assert rule in rules

    @pytest.mark.parametrize("snippet", [
        # Seeded RNG construction is the sanctioned idiom.
        "import random\nrng = random.Random(42)\n",
        # Sorted iteration over a set is fine.
        "def f(engine, dies):\n"
        "    for die in sorted({1, 2}):\n"
        "        yield engine.timeout(die)\n",
        # Set iteration with no scheduling in the body is fine.
        "total = 0\nfor x in {1, 2, 3}:\n    total += x\n",
    ])
    def test_clean_idioms_not_flagged(self, snippet):
        assert lint.lint_source(snippet) == []


class TestSimRules:
    def test_sim_rules_on_fixture(self):
        assert rules_in(FIXTURES / "bad_sim.py") == {
            "SIM101", "SIM102", "SIM103", "SIM104", "SIM105", "SIM107",
        }

    def test_discarded_timeout_flagged_but_yielded_is_not(self):
        bad = "def p(engine):\n    engine.timeout(1)\n    yield\n"
        good = "def p(engine):\n    yield engine.timeout(1)\n"
        assert {v.rule for v in lint.lint_source(bad)} == {"SIM101"}
        assert lint.lint_source(good) == []

    def test_now_equality_flagged_but_ordering_is_not(self):
        bad = "done = engine.now == 5.0\n"
        good = "done = engine.now >= 5.0\n"
        assert {v.rule for v in lint.lint_source(bad)} == {"SIM104"}
        assert lint.lint_source(good) == []

    def test_yield_in_finally_flagged_only_for_generators(self):
        bad = (
            "def p(engine):\n"
            "    try:\n"
            "        yield engine.timeout(1)\n"
            "    finally:\n"
            "        yield engine.timeout(2)\n"
        )
        assert {v.rule for v in lint.lint_source(bad)} == {"SIM105"}
        # A plain function's finally has no GeneratorExit hazard.
        plain = (
            "def f(res, req):\n"
            "    try:\n"
            "        res.use(req)\n"
            "    finally:\n"
            "        res.release(req)\n"
        )
        assert lint.lint_source(plain) == []

    def test_yield_in_try_body_or_nested_def_is_clean(self):
        try_body = (
            "def p(engine, res, req):\n"
            "    try:\n"
            "        yield engine.timeout(1)\n"
            "    finally:\n"
            "        res.release(req)\n"
        )
        assert lint.lint_source(try_body) == []
        # A nested generator inside the finally is its own scope.
        nested = (
            "def p(engine):\n"
            "    try:\n"
            "        yield engine.timeout(1)\n"
            "    finally:\n"
            "        def inner(e):\n"
            "            yield e.timeout(2)\n"
            "        register(inner)\n"
        )
        assert lint.lint_source(nested) == []


class TestSpawnAndJoin:
    """SIM106: a process spawned only so its one holder can join it."""

    def test_fixture_pair(self):
        bad = lint.lint_paths([FIXTURES / "bad_spawn_join.py"])
        assert {v.rule for v in bad} == {"SIM106"}
        assert [v.line for v in bad] == [5, 6, 11, 18, 19, 22]
        assert lint.lint_paths([FIXTURES / "ok_spawn_join.py"]) == []

    @pytest.mark.parametrize("receiver", [
        "engine", "self.engine", "self.fs.engine", "api.engine",
    ])
    def test_any_engine_receiver_flagged(self, receiver):
        source = f"def p(self):\n    x = yield {receiver}.process(self.f(1))\n"
        assert {v.rule for v in lint.lint_source(source)} == {"SIM106"}

    def test_delegation_and_concurrency_are_clean(self):
        source = (
            "def p(engine, f):\n"
            "    x = yield from f(1)\n"
            "    leg = engine.process(f(2))\n"
            "    yield engine.all_of([leg, engine.process(f(3))])\n"
            "    yield leg\n"
        )
        assert lint.lint_source(source) == []

    @pytest.mark.parametrize("comment,accepted", [
        ("# spawn: moves the gateway_group_commit golden", True),
        ("#spawn:moves lsm-dual sim_set_p99_us", True),
        ("# spawn:", False),
        ("# spawn:   ", False),
        ("# spawn: TODO", False),
        ("# spawn: fixme: find out", False),
        ("# spawn: XXX", False),
        ("# keeps the golden", False),
    ])
    def test_reason_required_same_or_preceding_line(self, comment, accepted):
        same_line = f"def p(engine, f):\n    yield engine.process(f())  {comment}\n"
        line_above = f"def p(engine, f):\n    {comment}\n    yield engine.process(f())\n"
        for source in (same_line, line_above):
            assert (lint.lint_source(source) == []) is accepted, source

    def test_reason_does_not_reach_two_lines_down(self):
        source = (
            "def p(engine, f):\n"
            "    # spawn: moves a golden\n"
            "    yield engine.process(f())\n"
            "    yield engine.process(f())\n"
        )
        assert [v.line for v in lint.lint_source(source)] == [4]

    def test_disable_pragma_is_not_a_reason_but_still_suppresses(self):
        source = ("def p(engine, f):\n"
                  "    yield engine.process(f())  # reprolint: disable=SIM106\n")
        assert lint.lint_source(source) == []

    def test_every_kept_site_in_src_names_what_it_moves(self):
        """The convention is the reason comment, not the blanket pragma."""
        for path in lint.iter_python_files([SRC]):
            assert "disable=SIM106" not in path.read_text(), path


class TestObsRules:
    def test_obs_rules_on_fixture(self):
        assert rules_in(FIXTURES / "core" / "api.py") == {
            "OBS101", "OBS102", "OBS103", "OBS104",
        }

    def test_obs101_only_applies_to_core_api_paths(self):
        source = "def ba_pin(self):\n    yield\n"
        assert lint.lint_source(source, path="core/api.py") != []
        assert lint.lint_source(source, path="other/module.py") == []

    def test_guarded_observe_is_clean(self):
        source = (
            "from repro.obs import tracing\n"
            "def f(engine):\n"
            "    if tracing.enabled:\n"
            "        tracing.observe('core.api.ba_sync', engine.now)\n"
        )
        assert lint.lint_source(source) == []

    def test_obs104_namespace_registry(self):
        bad = (
            "from repro.obs import tracing\n"
            "def f(engine):\n"
            "    if tracing.enabled:\n"
            "        tracing.count('custer.appends')\n"  # typo'd layer
        )
        assert {v.rule for v in lint.lint_source(bad)} == {"OBS104"}
        good = bad.replace("custer.", "cluster.")
        assert lint.lint_source(good) == []

    def test_obs104_not_doubled_onto_malformed_names(self):
        # A name that already fails OBS103 should not also fire OBS104.
        source = (
            "from repro.obs import tracing\n"
            "def f(engine):\n"
            "    if tracing.enabled:\n"
            "        tracing.observe('BA SYNC', 1.0)\n"
        )
        assert {v.rule for v in lint.lint_source(source)} == {"OBS103"}


class TestSuppression:
    def test_line_pragma_suppresses_named_rule(self):
        source = "import time\nt = time.time()  # reprolint: disable=DET001\n"
        assert lint.lint_source(source) == []

    def test_line_pragma_all(self):
        source = "import time\ntime.sleep(1)  # reprolint: disable=all\n"
        assert lint.lint_source(source) == []

    def test_pragma_does_not_leak_to_other_lines(self):
        source = (
            "import time\n"
            "a = time.time()  # reprolint: disable=DET001\n"
            "b = time.time()\n"
        )
        violations = lint.lint_source(source)
        assert [v.line for v in violations] == [3]

    def test_per_path_ignores(self):
        config = lint.LintConfig(per_path_ignores=(
            ("*/special.py", frozenset({"DET001"})),
        ))
        source = "import time\nt = time.time()\n"
        assert lint.lint_source(source, path="pkg/special.py", config=config) == []
        assert lint.lint_source(source, path="pkg/other.py", config=config) != []


class TestCliContract:
    def test_diagnostics_carry_precise_locations(self):
        violations = lint.lint_paths([FIXTURES / "bad_sim.py"])
        for violation in violations:
            assert violation.path.endswith("bad_sim.py")
            assert violation.line > 0 and violation.col > 0
            text = violation.format()
            assert f":{violation.line}:{violation.col}: {violation.rule}" in text

    def test_main_exit_codes(self, capsys):
        assert lint.main([str(FIXTURES / "clean.py")]) == 0
        assert lint.main([str(FIXTURES)]) == 1
        out = capsys.readouterr().out
        assert "bad_det.py" in out and "DET001" in out

    def test_select_limits_rules(self):
        config = lint.LintConfig(select=frozenset({"SIM102"}))
        violations = lint.lint_paths([FIXTURES / "bad_sim.py"], config)
        assert {v.rule for v in violations} == {"SIM102"}

    def test_syntax_error_reported_not_raised(self):
        violations = lint.lint_source("def broken(:\n", path="x.py")
        assert [v.rule for v in violations] == ["E999"]


class TestRealTreeIsClean:
    def test_src_repro_lints_clean(self):
        violations = lint.lint_paths([SRC])
        assert violations == [], "\n".join(v.format() for v in violations)
