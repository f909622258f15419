"""Unit tests for functional patch execution (single and fused)."""

import gc
import weakref
from collections import Counter

import pytest

from repro.core import (
    AT_AS,
    AT_MA,
    AT_SA,
    FusedConfig,
    PatchConfig,
    PatchExecutor,
    TMode,
    UnitConfig,
)
from repro.core.config import CONTROL_BITS
from repro.core.executor import evaluate_fused, evaluate_patch
from repro.core.units import Source
from repro.cpu import Core
from repro.isa import Op, decoded
from repro.mem import MemorySystem, SPM_BASE
from repro.sim.baselines import ARCH_STITCH, AppEvaluator
from repro.workloads import make_kernel
from repro.workloads.apps import APP_FACTORIES
from tests.cpu.test_engine_differential import compile_case, replica_for


def mem_with(values, base=SPM_BASE):
    memory = MemorySystem.stitch()
    memory.load(base, values)
    return memory


class TestSinglePatch:
    def test_alu_only(self):
        cfg = PatchConfig(AT_MA, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1))
        out0, out1 = evaluate_patch(cfg, [3, 4, 0, 0], None)
        assert (out0, out1) == (7, None)

    def test_at_chain_load(self):
        # ext0 + ext1 computes an SPM address; the LMAU loads from it.
        memory = mem_with([111, 222])
        cfg = PatchConfig(
            AT_MA, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1), t=TMode.LOAD
        )
        out0, _ = evaluate_patch(cfg, [SPM_BASE, 4, 0, 0], memory)
        assert out0 == 222

    def test_store_data_chain(self):
        # Computed value (ext0 ^ ext1) stored to address ext2.
        memory = MemorySystem.stitch()
        cfg = PatchConfig(
            AT_MA,
            u0=UnitConfig(Op.XOR, Source.EXT0, Source.EXT1),
            t=TMode.STORE_DATA_CHAIN,
        )
        evaluate_patch(cfg, [0b1100, 0b1010, SPM_BASE + 8, 0], memory)
        assert memory.spm.dump_words(SPM_BASE + 8, 1) == [0b0110]

    def test_store_addr_chain(self):
        # Computed address (ext0 + ext1), data from ext3.
        memory = MemorySystem.stitch()
        cfg = PatchConfig(
            AT_MA,
            u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1),
            t=TMode.STORE_ADDR_CHAIN,
        )
        out0, _ = evaluate_patch(cfg, [SPM_BASE, 12, 0, -7], memory)
        assert memory.spm.dump_words(SPM_BASE + 12, 1) == [-7]
        assert out0 == -7  # stored data forwards on the chain

    def test_lmau_without_memory_raises(self):
        cfg = PatchConfig(AT_MA, t=TMode.LOAD)
        with pytest.raises(RuntimeError):
            evaluate_patch(cfg, [SPM_BASE, 0, 0, 0], None)

    def test_ma_tail_mul_then_add(self):
        # (load SPM[ext0]) * ext1 + ext2 via AT-MA full chain.
        memory = mem_with([5])
        cfg = PatchConfig(
            AT_MA,
            t=TMode.LOAD,
            u2=UnitConfig(Op.MUL, Source.CHAIN, Source.EXT1),
            u3=UnitConfig(Op.ADD, Source.CHAIN, Source.EXT2),
        )
        out0, out1 = evaluate_patch(cfg, [SPM_BASE, 3, 10, 0], memory)
        assert out0 == 25
        assert out1 == 5  # the AT half's value is the second output

    def test_as_tail_add_then_shift(self):
        cfg = PatchConfig(
            AT_AS,
            u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1),
            u2=UnitConfig(Op.ADD, Source.CHAIN, Source.EXT2),
            u3=UnitConfig(Op.SLL, Source.CHAIN, Source.EXT3),
        )
        out0, out1 = evaluate_patch(cfg, [1, 2, 3, 4], None)
        assert out0 == (1 + 2 + 3) << 4
        assert out1 == 3

    def test_sa_tail_shift_then_add(self):
        cfg = PatchConfig(
            AT_SA,
            u2=UnitConfig(Op.SRA, Source.EXT2, Source.EXT1),
            u3=UnitConfig(Op.ADD, Source.CHAIN, Source.EXT3),
        )
        out0, _ = evaluate_patch(cfg, [0, 2, -16, 100], None)
        assert out0 == 100 + (-16 >> 2)

    def test_chain_on_both_inputs_squares(self):
        cfg = PatchConfig(
            AT_MA,
            u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1),
            u2=UnitConfig(Op.MUL, Source.CHAIN, Source.CHAIN),
        )
        out0, _ = evaluate_patch(cfg, [3, 4, 0, 0], None)
        assert out0 == 49

    def test_aa_pattern_via_bypass(self):
        # Section III-A: {AA} on AT-MA with T and M bypassed.
        cfg = PatchConfig(
            AT_MA,
            u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1),
            u3=UnitConfig(Op.SUB, Source.CHAIN, Source.EXT2),
        )
        out0, out1 = evaluate_patch(cfg, [10, 20, 5, 0], None)
        assert out0 == 25
        assert out1 == 30  # intermediate connection exposes both values

    def test_chain_defaults_to_ext0(self):
        cfg = PatchConfig(AT_SA, u2=UnitConfig(Op.SLL, Source.CHAIN, Source.EXT1))
        out0, _ = evaluate_patch(cfg, [1, 4, 0, 0], None)
        assert out0 == 16


class TestFusedPatch:
    def make_fused(self):
        # A: (ext0 + ext1) << ext2 on AT-AS;  B: result - ext3 on AT-AS.
        cfg_a = PatchConfig(
            AT_AS,
            u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1),
            u3=UnitConfig(Op.SLL, Source.CHAIN, Source.EXT2),
        )
        cfg_b = PatchConfig(
            AT_AS,
            u0=UnitConfig(Op.SUB, Source.EXT0, Source.EXT1),
        )
        return FusedConfig(
            cfg_a, cfg_b, b_ext=("a_out0", "ext3", "ext2", "ext3"),
            outs=("b_out0",),
        )

    def test_fused_dataflow(self):
        fused = self.make_fused()
        outs = evaluate_fused(fused, [3, 4, 2, 10], None, None)
        assert outs == (((3 + 4) << 2) - 10,)

    def test_two_outputs(self):
        cfg_a = PatchConfig(AT_AS, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1))
        cfg_b = PatchConfig(AT_AS, u0=UnitConfig(Op.XOR, Source.EXT0, Source.EXT1))
        fused = FusedConfig(
            cfg_a, cfg_b, b_ext=("a_out0", "ext2", "ext2", "ext3"),
            outs=("a_out0", "b_out0"),
        )
        outs = evaluate_fused(fused, [1, 2, 4, 0], None, None)
        assert outs == (3, 3 ^ 4)

    def test_control_bits_fit_38(self):
        fused = self.make_fused()
        assert 0 <= fused.control_bits() < (1 << 38)

    def test_b_ext_must_wire_all_slots(self):
        cfg = PatchConfig(AT_AS, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1))
        with pytest.raises(ValueError):
            FusedConfig(cfg, cfg, b_ext=("a_out0",), outs=("b_out0",))

    def test_illegal_out_source_rejected(self):
        cfg = PatchConfig(AT_AS, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1))
        with pytest.raises(ValueError):
            FusedConfig(cfg, cfg, b_ext=("ext0",) * 4, outs=("c_out0",))


class TestPatchExecutor:
    def test_executor_pads_operands(self):
        cfg = PatchConfig(AT_MA, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1))
        executor = PatchExecutor([cfg], MemorySystem.stitch())
        assert executor.execute(0, [5]) == [5, 0]
        assert executor.executions == 1

    def test_executor_fused_requires_bound_remote_spm(self):
        cfg_a = PatchConfig(AT_AS, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1))
        cfg_b = PatchConfig(AT_AS, t=TMode.LOAD)
        fused = FusedConfig(
            cfg_a, cfg_b, b_ext=("a_out0", "ext1", "ext2", "ext3"),
            outs=("b_out0",),
        )
        executor = PatchExecutor([fused], MemorySystem.stitch())
        with pytest.raises(RuntimeError):
            executor.execute(0, [SPM_BASE, 0, 0, 0])

    def test_executor_fused_remote_spm(self):
        remote = MemorySystem.stitch()
        remote.load(SPM_BASE + 4, [99])
        cfg_a = PatchConfig(AT_AS, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1))
        cfg_b = PatchConfig(AT_AS, t=TMode.LOAD)
        fused = FusedConfig(
            cfg_a, cfg_b, b_ext=("a_out0", "ext1", "ext2", "ext3"),
            outs=("b_out0",), remote_tile=5,
        )
        executor = PatchExecutor(
            [fused], MemorySystem.stitch(), remote_memories={5: remote}
        )
        assert executor.execute(0, [SPM_BASE, 4, 0, 0]) == [99]
        assert executor.fused_executions == 1

    def test_unknown_config_id(self):
        executor = PatchExecutor([], MemorySystem.stitch())
        with pytest.raises(IndexError):
            executor.execute(0, [1])


def _lmau_pair():
    """A load patch and a fused pair whose B half stores."""
    load = PatchConfig(
        AT_MA, u0=UnitConfig(Op.ADD, Source.EXT0, Source.EXT1), t=TMode.LOAD)
    store = PatchConfig(AT_AS, t=TMode.STORE_DATA_CHAIN)
    fused = FusedConfig(load, store, b_ext=("a_out0", "ext1", "ext2", "ext3"),
                        outs=("b_out0", "a_out1"))
    return [load, fused]


class TestGeneratedCode:
    def test_equal_configurations_share_one_code_object(self):
        runs = []
        for _ in range(2):
            memory = MemorySystem.stitch()
            executor = PatchExecutor(_lmau_pair(), memory,
                                     replica_memory=MemorySystem.stitch())
            for cfg_id in (0, 1):
                executor.execute(cfg_id, [SPM_BASE, 8, SPM_BASE + 12])
            runs.append(list(executor._runs.values()))
        for first, second in zip(*runs):
            assert first is not second  # each binds its own memories
            assert first.__code__ is second.__code__

    def test_the_code_cache_is_bounded(self):
        bound = decoded.CODE_CACHE_SIZE
        configs = []
        for word in range(1 << CONTROL_BITS):
            try:
                cfg = PatchConfig.decode(AT_MA, word)
            except ValueError:
                continue
            if cfg.encode() == word:
                configs.append(cfg)
            if len(configs) > bound:
                break
        executor = PatchExecutor(configs, MemorySystem.stitch())
        factories = {bind.func.__code__ for bind in executor._lowered}
        assert len(factories) > bound
        assert decoded.compiled.cache_info().currsize <= bound

    def test_executors_and_memories_die_without_gc(self):
        gc.disable()
        try:
            # Whether or not its configurations ran: a run binds cells.
            for calls in ((0, 1, 0, 1), ()):
                memory, replica = MemorySystem.stitch(), MemorySystem.stitch()
                executor = PatchExecutor(_lmau_pair(), memory,
                                         replica_memory=replica)
                for cfg_id in calls:
                    executor.execute(cfg_id, [SPM_BASE, 8, SPM_BASE + 12])
                assert replica.spm.writes == len(calls) // 2
                refs = [weakref.ref(obj)
                        for obj in (executor, memory, replica)]
                del executor, memory, replica
                assert all(ref() is None for ref in refs), calls
        finally:
            gc.enable()


def count_execute(monkeypatch):
    """Wrap ``PatchExecutor.execute`` at class level, as CI's traced co-sim
    gate does, reading ``fused_executions`` around each call; returns the
    running tally."""
    tally = Counter()
    execute = PatchExecutor.execute

    def counted(executor, *args, **kwargs):
        fused = executor.fused_executions
        try:
            return execute(executor, *args, **kwargs)
        finally:
            tally["execute"] += 1
            tally["fused"] += executor.fused_executions - fused

    monkeypatch.setattr(PatchExecutor, "execute", counted)
    return tally


class TestOneExecutePerCix:
    """Every ``cix`` enters ``PatchExecutor.execute`` exactly once, from
    translated blocks and the cold step of both block engines.  Set-up
    compiles, which simulates too, so the wrapper goes in just before
    the run."""

    @pytest.mark.parametrize("engine", ["fast", "instrumented"])
    def test_fir_at_ma(self, monkeypatch, engine):
        compiled = compile_case("fir", "AT-MA")
        kernel = make_kernel("fir", seed=1)
        memory = MemorySystem.stitch()
        patch = PatchExecutor(compiled.cfg_table, memory,
                              replica_memory=replica_for(compiled, kernel))
        core = Core(compiled.program, memory, patch=patch, engine=engine)
        kernel.setup(core)
        calls = count_execute(monkeypatch)
        core.run()
        assert core.selected_engine() == engine and any(core._blocks)
        assert calls["execute"] == patch.executions == core.cix_retired > 0
        assert calls["fused"] == patch.fused_executions

    @pytest.mark.parametrize("engine", ["fast", "instrumented"])
    def test_app1_cosim(self, monkeypatch, engine):
        evaluator = AppEvaluator(APP_FACTORIES["APP1"](seed=1))
        system, _ = evaluator.build_system(ARCH_STITCH, items=2,
                                           engine=engine)
        calls = count_execute(monkeypatch)
        system.run()
        cores = [core for core in system.cores if core is not None]
        assert {core.selected_engine() for core in cores} == {engine}
        patches = [core.patch for core in cores if core.patch is not None]
        assert calls["execute"] == sum(
            patch.executions for patch in patches) == sum(
            core.cix_retired for core in cores) > 0
        assert calls["fused"] == sum(
            patch.fused_executions for patch in patches) > 0
