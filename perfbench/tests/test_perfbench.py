"""Tests of the benchmark itself: its generator, its model, and that its
simulated numbers repeat exactly at a seed.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import pytest

from perfbench import drive, run, tracegen as tg
from perfbench.model import Model, WrongResult, first_mismatch
from perfbench.workloads import WORKLOADS, fault_workload


def short(name: str, n_ops: int) -> tuple:
    w = WORKLOADS[name]
    return replace(w, mix=replace(w.mix, n_ops=n_ops))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_workload_repeats_exactly(name, tmp_path):
    w = short(name, {"hotspot-64": 60, "stream-8": 80, "churn-4": 150}[name])
    trace = drive.population(tg.generate(w.mix, 5))
    clock = run.HostClock()
    first = run.run_round(w, trace, 5, str(tmp_path / "a"), clock,
                          verify=True)
    second = run.run_round(w, trace, 5, str(tmp_path / "b"), clock,
                           verify=True)
    assert first.outcome.wrong == [] and second.outcome.wrong == []
    assert not first.outcome.failed
    assert first.virtual() == second.virtual()


def test_sliced_replay_runs_the_same_events(tmp_path):
    w = short("churn-4", 120)
    trace = drive.population(tg.generate(w.mix, 9))
    seen = []
    for sliced in (False, True):
        cluster, model = run.set_up(w, trace, 9, str(tmp_path / str(sliced)))
        out = drive.Outcome()
        coro = drive.replay(cluster, trace.ops, model, out)
        if sliced:
            run.run_sliced(cluster.kernel, coro, lambda: None)
        else:
            cluster.run(coro)
        seen.append((cluster.kernel.events_processed, cluster.kernel.now,
                     cluster.metrics.snapshot(), out.read_ms, out.write_ms))
        cluster.close()
    assert seen[0] == seen[1]


def test_host_clock_scales_to_reference_seconds():
    clock = run.HostClock()
    clock.calibrate()
    assert clock.due() == 0.0          # sampled just now
    assert clock.scale() == pytest.approx(
        run.CAL_REF_S / clock.samples[0])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_another_seed_draws_another_trace(name):
    mix = WORKLOADS[name].mix
    assert tg.generate(mix, 1).ops != tg.generate(mix, 2).ops
    assert tg.generate(mix, 1).ops == tg.generate(mix, 1).ops


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_properties(name):
    trace = tg.generate(WORKLOADS[name].mix, 3)
    assert len(trace.ops) == WORKLOADS[name].mix.n_ops
    writer: dict[str, int] = {}
    created: dict[str, int] = {}
    seqs: dict[str, list[int]] = {}
    for i, op in enumerate(trace.ops):
        if op.kind in (tg.WRITE, tg.WRITE_RANGE):
            assert writer.setdefault(op.path, op.client) == op.client
            seqs.setdefault(op.path, []).append(op.seq)
        elif op.kind == tg.CREATE:
            assert op.path not in created
            created[op.path] = op.client
        elif op.kind == tg.REMOVE:
            assert created.get(op.path) == op.client, op
        if i:
            assert trace.ops[i - 1].at_ms <= op.at_ms
    for path, numbers in seqs.items():
        assert numbers == list(range(1, len(numbers) + 1)), path


def test_hotspot_draws_the_simulator_generators_operations():
    from repro.workloads import WorkloadGenerator, hotspot_config

    theirs = [op for op in WorkloadGenerator(hotspot_config(
        n_clients=32, duration_ms=20_000.0, seed=42)).generate()
        if op.at_ms < 20_000.0]
    _w, fault = fault_workload()        # same shape, write sharing kept
    mine = [op for op in fault.ops if op.at_ms < 20_000.0]
    assert len(mine) == len(theirs)
    for a, b in zip(mine, theirs):
        assert (a.at_ms, a.kind, a.path) == (b.at_ms, b.kind.value, b.path)
        if a.kind != tg.REMOVE:
            assert a.client == b.client


def test_payloads_are_unique_and_named():
    a = tg.payload("/d/f", 1, 10_000)
    assert len(a) == 10_000 and a.startswith(b"/d/f#1\n")
    assert a != tg.payload("/d/f", 2, 10_000)
    assert a != tg.payload("/d/g", 1, 10_000)
    assert a == tg.payload("/d/f", 1, 10_000)


@dataclass
class _Attrs:
    size: int


def _model() -> tuple[Model, tg.Op]:
    trace = tg.Trace(files={"/d/f": 1000}, dirs=["/d"], ops=[])
    model = Model(trace)
    op = tg.Op(0.0, 0, tg.WRITE_RANGE, "/d/f", 100, offset=200, seq=1)
    model.outcome(op, model.issue(op, 0.0), True, 1.0)
    return model, op


def test_model_checks_ranged_reads_byte_by_byte():
    model, _op = _model()
    good = bytearray(model.files["/d/f"].image)
    read = tg.Op(2.0, 1, tg.READ_RANGE, "/d/f", 400, offset=100)
    model.check(read, bytes(good[100:500]), 2.0, 3.0)
    stale = tg.payload("/d/f", 0, 1000)[100:500]     # before the write
    model.check(read, stale, 2.0, 3.0)
    good[250] ^= 0xFF
    with pytest.raises(WrongResult, match="byte 250"):
        model.check(read, bytes(good[100:500]), 2.0, 3.0)
    with pytest.raises(WrongResult, match="ranged read returned"):
        model.check(read, bytes(good[100:300]), 2.0, 3.0)   # a write's end
    stat = tg.Op(2.0, 1, tg.GETATTR, "/d/f")
    with pytest.raises(WrongResult, match="getattr size 300"):
        model.check(stat, _Attrs(size=300), 2.0, 3.0)
    model.check(stat, _Attrs(size=1000), 2.0, 3.0)


def test_first_mismatch_names_the_first_bad_byte():
    model, _op = _model()
    f = model.files["/d/f"]
    data = bytearray(f.fill.data)
    assert first_mismatch(bytes(data), 0, [f.fill]) is None
    data[7] ^= 1
    assert first_mismatch(bytes(data), 0, [f.fill]) == 7


def test_model_checks_listings_and_the_final_state():
    trace = tg.Trace(files={"/d/f": 100}, dirs=["/d"], ops=[])
    model = Model(trace)
    create = tg.Op(0.0, 0, tg.CREATE, "/d/new")
    model.outcome(create, model.issue(create, 0.0), True, 10.0)
    listing = tg.Op(5000.0, 1, tg.READDIR, "/d")
    model.check(listing, [{"name": "f"}, {"name": "new"}], 5000.0, 5001.0)
    with pytest.raises(WrongResult, match="new missing"):
        model.check(listing, [{"name": "f"}], 5000.0, 5001.0)
    model.check(listing, [{"name": "f"}], 100.0, 101.0)  # within the TTL
    assert model.final_names("/d") == ({"f", "new"}, {"f", "new"})
    write = tg.Op(1.0, 0, tg.WRITE, "/d/f", 100, seq=1)
    model.outcome(write, model.issue(write, 1.0), True, 2.0)
    assert model.final_ok("/d/f", tg.payload("/d/f", 1, 100))
    assert not model.final_ok("/d/f", tg.payload("/d/f", 0, 100))
