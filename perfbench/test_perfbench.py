"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import re
import sys
import tempfile
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Sampler, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark():
    with open(HERE.parent / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_metric_names_are_well_formed_and_match_the_runner():
    bench = _benchmark()
    workloads = run.load_workloads()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += [w["name"] for w in bench["workloads"]]
    names += [inv["id"] for w in workloads.values() for inv in w["invocations"]]
    bad = [n for n in names if not NAME.fullmatch(n)]
    assert not bad
    assert [m["name"] for m in bench["per_layer"]] == run.layer_names(workloads)
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in bench["per_layer"])
    assert [w["name"] for w in bench["workloads"]] == list(workloads)


def test_corrupted_digest_counts_as_a_failure():
    with tempfile.TemporaryDirectory() as tmp:
        deadline = time.perf_counter() + 120
        good = run.Run(run.DEFAULT_SEED, tmp, deadline)
        # the cheapest suite: one claim, well under a second
        inv = {"id": "maximality", "argv": ["verify", "--suite", "maximality"], "sha256": "0" * 64}
        out = good.invoke("test", inv)
        assert (good.attempted, good.failed) == (1, 1)

        again = run.Run(run.DEFAULT_SEED, tmp, deadline)
        again.invoke("test", dict(inv, sha256=out.digest))
        assert (again.attempted, again.failed) == (1, 0)


def test_children_past_the_deadline_are_killed():
    with tempfile.TemporaryDirectory() as tmp:
        start = time.perf_counter()
        slow = [sys.executable, "-c", "import time; time.sleep(30)"]
        with pytest.raises(TimeoutError):
            run.run_child(slow, tmp, start + 0.5)
        assert time.perf_counter() - start < 10
        # A child that exits on its own, with any status, is no timeout.
        quick = [sys.executable, "-c", "import sys; sys.exit(3)"]
        assert run.run_child(quick, tmp, time.perf_counter() + 60).status == 3


def test_other_seeds_must_repeat_their_own_bytes():
    inv = {"id": "seeded", "argv": ["dump"], "seed_offset": 0, "sha256": "0" * 64}
    first = run.Outcome(1.0, 1.0, 1, 0, b"a,b\n", b"")
    other = run.Outcome(1.0, 1.0, 1, 0, b"a,c\n", b"")
    seen = {}
    assert run.check(inv, first, 7, seen) is None
    assert run.check(inv, first, 7, seen) is None
    assert run.check(inv, other, 7, seen) is not None
    assert run.check(inv, first, run.DEFAULT_SEED, {}) is not None


def _spin(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _toy_modules():
    """Three modules a -> b -> c; c's leaf spins longest."""
    c = types.ModuleType("toy_c")
    c.__dict__.update(spin=_spin)
    exec("def leaf():\n    spin(0.05)\n", c.__dict__)
    b = types.ModuleType("toy_b")
    b.__dict__.update(spin=_spin, leaf=c.leaf)
    exec("def mid():\n    spin(0.03)\n    leaf()\n    leaf()\n", b.__dict__)
    a = types.ModuleType("toy_a")
    a.__dict__.update(spin=_spin, mid=b.mid)
    exec(
        "def helper():\n    spin(0.01)\n\n"
        "def outer():\n    helper()\n    mid()\n    mid()\n",
        a.__dict__,
    )
    return a, b, c


def test_sampled_self_times_add_up_to_the_span_total():
    a, b, c = _toy_modules()
    sampler = Sampler({"toy_a": "a", "toy_b": "b", "toy_c": "c"}, {b.mid.__code__: "mid_s"})
    sampler.start()
    a.outer()
    sampler.stop()
    span_total = sampler.last - sampler.started

    # Every sample goes to exactly one module, or to None outside them.
    assert abs(sum(sampler.self_s.values()) - span_total) < 1e-9
    assert sampler.samples > 20
    # _spin is in none of the modules: its time goes to the toy module calling it.
    s = sampler.self_s
    assert s["c"] > s["b"] > s["a"] > 0
    assert abs(s["c"] - 0.2) < 0.05
    assert abs(sampler.inclusive_s["mid_s"] - 0.26) < 0.05


def test_calls_count_only_from_outside_the_module():
    t = Tracer()
    leaf = t.span("c", "leaf", lambda: None)

    def mid_body():
        leaf()
        return leaf()

    mid = t.span("b", "mid", mid_body)
    helper = t.span("a", "helper", lambda: None)

    def outer_body():
        helper()  # same module: passes through, not counted
        mid()
        mid()

    t.span("a", "outer", outer_body)()
    calls = {name: rec[0] for (_, name), rec in t.calls.items()}
    assert calls == {"leaf": 4, "mid": 2, "helper": 0, "outer": 1}
    assert t.module_calls() == {"a": 1, "b": 2, "c": 4}
    assert t.cur == [None]
