import pytest

from perfbench import spans
from perfbench.spans import SpanRecorder, ledger, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _open(recorder, clock, name, at, hot=False):
    clock.now = at
    return recorder.enter(name, at, hot), at


def _close(recorder, clock, opened, at):
    clock.now = at
    recorder.leave(opened[0], opened[1], at)


def test_self_time_from_nested_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    job = _open(recorder, clock, "job", 0.0)
    enum = _open(recorder, clock, "compiler.enumerate", 1.0)
    for start in (2.0, 3.0):
        read = _open(recorder, clock, "mem.read", start, hot=True)
        _close(recorder, clock, read, start + 0.5)
    _close(recorder, clock, enum, 4.0)
    run = _open(recorder, clock, "cpu.run", 5.0)
    patch = _open(recorder, clock, "core.patch", 6.0, hot=True)
    _close(recorder, clock, patch, 7.0)
    _close(recorder, clock, run, 9.0)
    _close(recorder, clock, job, 10.0)
    records, _ = recorder.take()

    assert self_times(records) == {
        "job": 3.0,
        "compiler.enumerate": 2.0,
        "mem.read": 1.0,
        "cpu.run": 3.0,
        "core.patch": 1.0,
    }
    reads = [r for r in records if r.name == "mem.read"]
    assert len(reads) == 1 and reads[0].calls == 2  # hot spans coalesce
    assert reads[0].parent.name == "compiler.enumerate"

    layers, other, _ = ledger(records, wall=12.0)
    assert layers["compiler"] == 2.0 and layers["cpu"] == 3.0
    assert layers["mem"] == 1.0 and layers["core"] == 1.0
    # 3 s of job self time plus 2 s outside any span.
    assert other == 5.0
    assert sum(layers.values()) + other == 12.0


def test_job_spans_carry_the_job_id():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.job_span("pass1/fir"):
        inner = _open(recorder, clock, "cpu.run", 0.0)
        _close(recorder, clock, inner, 1.0)
    records, _ = recorder.take()
    assert [(r.name, r.job) for r in records] == [
        ("job", "pass1/fir"), ("cpu.run", "pass1/fir"),
    ]
    assert records[1].parent is records[0]


def test_take_refuses_open_spans():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    _open(recorder, clock, "cpu.run", 0.0)
    with pytest.raises(RuntimeError, match="still open"):
        recorder.take()


def test_wrapped_call_closes_its_span_when_it_raises():
    recorder = SpanRecorder()

    def boom():
        raise KeyError("x")

    wrapped = recorder.timed("cpu.run", boom)
    with pytest.raises(KeyError):
        wrapped()
    records, _ = recorder.take()
    assert records[0].calls == 1


def test_install_wraps_every_binding_and_restore_puts_originals_back():
    import repro.compiler as compiler_package
    import repro.compiler.driver as driver
    import repro.compiler.ise as ise
    import repro.mem.hierarchy as hierarchy

    original_enumerate = ise.enumerate_candidates
    original_read = hierarchy.MemorySystem.__dict__["read"]
    spans.assert_pristine()

    recorder = SpanRecorder()
    installed = spans.install(recorder)
    try:
        assert ise.enumerate_candidates is not original_enumerate
        assert driver.enumerate_candidates is ise.enumerate_candidates
        assert compiler_package.enumerate_candidates is ise.enumerate_candidates
        assert set(spans.wrapped_boundaries()) == {
            b.name for b in spans.BOUNDARIES
        }
        with pytest.raises(RuntimeError, match="wrapped entry points"):
            spans.assert_pristine()
        memory = hierarchy.MemorySystem.stitch()
        memory.read(0x100)
        records, _ = recorder.take()
        assert [(r.name, r.calls) for r in records] == [("mem.read", 1)]
    finally:
        installed.restore()

    assert ise.enumerate_candidates is original_enumerate
    assert driver.enumerate_candidates is original_enumerate
    assert compiler_package.enumerate_candidates is original_enumerate
    assert hierarchy.MemorySystem.__dict__["read"] is original_read
    assert spans.wrapped_boundaries() == []
    spans.assert_pristine()


def test_boundary_counters_agree_with_a_re_simulation():
    from repro.compiler.driver import KernelCompiler, SINGLE_OPTIONS
    from repro.workloads import make_kernel

    from perfbench.workloads import _simulate

    kernel = make_kernel("fir", seed=1)
    recorder = SpanRecorder()
    installed = spans.install(recorder)
    try:
        with recorder.job_span("pass1/fir"):
            compiler = KernelCompiler(kernel)
            compiled = compiler.compile(SINGLE_OPTIONS[0])
    finally:
        installed.restore()
    records, counts = recorder.take()
    calls = spans.call_counts(records)
    assert calls["compiler.profile"] == 1 and calls["compiler.compile"] == 1
    assert calls["compiler.enumerate"] >= 1
    assert counts["compiler.enumerate_visited"] > 0
    assert counts["compiler.select_offered"] >= counts["compiler.select_placed"]
    # Profile, reference and measure runs: one slice each.
    assert calls["cpu.run"] == 3

    core = _simulate(kernel, compiled.program, compiled.cfg_table)
    assert core.cycles == compiled.cycles
    assert counts["cpu.instructions"] == (
        2 * compiler.profile.instructions + core.instret
    )
    assert calls["core.patch"] == core.patch.executions > 0
