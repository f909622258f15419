"""The lowered patch executor against the walking executor it replaced.

``PatchExecutor`` lowers every configuration once, when it is built.
The oracle below is the executor of commit 8d08ca4, which walked the
configuration object on every ``cix``: its ``_resolve``,
``evaluate_patch``, ``evaluate_fused`` and ``execute`` bodies, copied
verbatim.  Both sides must agree on the outputs (or the exception type
and message), the scratchpad words and ``reads``/``writes`` counters,
and the executor's counters.

Tier-1 draws single and fused configurations, operand vectors and
scratchpad bindings with hypothesis.  The soak tier (``pytest -m
soak``) runs every distinct legal single-patch configuration on fixed
operand vectors: the decodable 19-bit words of the three Stitch types
and every LOCUS-SFU unit combination.
"""

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import executor as lowered
from repro.core.config import CONTROL_BITS, PatchConfig, TMode, UnitConfig
from repro.core.fusion import FusedConfig
from repro.core.patches import AT_AS, AT_MA, AT_SA, LOCUS_SFU
from repro.core.units import Source, UnitKind
from repro.isa.instructions import Op, eval_alu, eval_mul, eval_shift, wrap32
from repro.mem import SPM_BASE, SPM_SIZE, MemorySystem

STITCH_TYPES = (AT_MA, AT_AS, AT_SA)
SPM_END = SPM_BASE + SPM_SIZE
#: Scratchpad contents every memory starts from: distinct, signed words.
PRISTINE = [wrap32(0x9E3779B1 * (i + 1)) for i in range(SPM_SIZE // 4)]


# -- the oracle: the executor of commit 8d08ca4, verbatim ---------------------


def _resolve(source, chain, ext):
    if source == Source.CHAIN:
        return chain
    return ext[Source.ext_index(source)]


def evaluate_patch(cfg, ext, memory):
    """Evaluate a single-patch configuration.

    ``ext`` is the 4-entry external operand list; ``memory`` provides
    the LMAU's scratchpad.  Returns ``(out0, out1)`` where ``out1`` is
    ``None`` unless both chain halves produced values.
    """
    chain = ext[0]
    half = None
    tail_active = False

    if cfg.u0 is not None:
        lhs = _resolve(cfg.u0.in1, chain, ext)
        rhs = _resolve(cfg.u0.in2, chain, ext)
        chain = eval_alu(cfg.u0.op, lhs, rhs)
        half = chain

    def compute(position, unit_cfg, chain):
        kind = cfg.ptype.unit(position).kind
        lhs = _resolve(unit_cfg.in1, chain, ext)
        rhs = _resolve(unit_cfg.in2, chain, ext)
        if kind is UnitKind.ALU:
            return eval_alu(unit_cfg.op, lhs, rhs)
        if kind is UnitKind.SHIFT:
            return eval_shift(unit_cfg.op, lhs, rhs)
        return eval_mul(unit_cfg.op, lhs, rhs)

    mode = cfg.t
    if mode is not TMode.OFF:
        if memory is None:
            raise RuntimeError("LMAU active but no scratchpad is reachable")
        if mode is TMode.LOAD:
            chain = memory.spm_read(chain & 0xFFFFFFFF)
        elif mode is TMode.STORE_DATA_CHAIN:
            memory.spm_write(ext[2] & 0xFFFFFFFF, chain)
        else:  # STORE_ADDR_CHAIN
            memory.spm_write(chain & 0xFFFFFFFF, ext[3])
            chain = ext[3]
        half = chain
    elif cfg.u1 is not None:
        chain = compute(1, cfg.u1, chain)
        half = chain

    for position, unit_cfg in ((2, cfg.u2), (3, cfg.u3)):
        if unit_cfg is None:
            continue
        chain = compute(position, unit_cfg, chain)
        tail_active = True

    out1 = half if (tail_active and half is not None) else None
    return chain, out1


def evaluate_fused(cfg, ext, memory_a, memory_b):
    """Evaluate a fused pair: A on the origin tile, B on the remote."""
    a_out0, a_out1 = evaluate_patch(cfg.cfg_a, ext, memory_a)
    produced = {
        "a_out0": a_out0,
        "a_out1": a_out1 if a_out1 is not None else 0,
    }
    ext_b = []
    for source in cfg.b_ext:
        if source in produced:
            ext_b.append(produced[source])
        else:
            ext_b.append(ext[Source.ext_index(source)])
    b_out0, b_out1 = evaluate_patch(cfg.cfg_b, ext_b, memory_b)
    produced["b_out0"] = b_out0
    produced["b_out1"] = b_out1 if b_out1 is not None else 0
    return tuple(produced[source] for source in cfg.outs)


class OracleExecutor:
    def __init__(self, cfg_table, memory, remote_memories=None,
                 replica_memory=None):
        self.cfg_table = list(cfg_table)
        self.memory = memory
        self.remote_memories = remote_memories or {}
        self.replica_memory = replica_memory
        self.executions = 0
        self.fused_executions = 0
        self.config_counts = {}
        self.remote_spm_accesses = 0

    def execute(self, cfg_id, in_values):
        try:
            cfg = self.cfg_table[cfg_id]
        except IndexError:
            raise IndexError(
                f"cix names config {cfg_id} but the table has "
                f"{len(self.cfg_table)} entries"
            ) from None
        ext = list(in_values) + [0] * (4 - len(in_values))
        self.executions += 1
        self.config_counts[cfg_id] = self.config_counts.get(cfg_id, 0) + 1
        if isinstance(cfg, FusedConfig):
            self.fused_executions += 1
            if cfg.remote_tile is not None:
                memory_b = self.remote_memories.get(cfg.remote_tile)
            else:
                memory_b = self.replica_memory
            if memory_b is None and cfg.cfg_b.uses_lmau():
                raise RuntimeError(
                    "fused B half uses its LMAU but no remote scratchpad "
                    "is bound (was the pair stitched?)"
                )
            if cfg.remote_tile is not None and cfg.cfg_b.uses_lmau():
                self.remote_spm_accesses += 1
            outs = evaluate_fused(cfg, ext, self.memory, memory_b)
            return [out if out is not None else 0 for out in outs]
        out0, out1 = evaluate_patch(cfg, ext, self.memory)
        return [out0, out1 if out1 is not None else 0]


# -- comparison helpers --------------------------------------------------------


def outcome(call, *args):
    """``("ok", result)`` or ``("raised", type, message)``."""
    try:
        return ("ok", call(*args))
    except Exception as exc:  # the exception itself is what is compared
        return ("raised", type(exc), str(exc))


def make_memory(kind):
    """A tile memory: ``stitch`` (with a scratchpad), ``baseline`` (none)
    or ``None`` (no memory reachable at all)."""
    if kind is None:
        return None
    if kind == "baseline":
        return MemorySystem.baseline()
    memory = MemorySystem.stitch()
    memory.spm.window()[0][:] = PRISTINE
    return memory


def spm_state(memory):
    """Everything a patch can change in a memory: SPM words and counters."""
    if memory is None or memory.spm is None:
        return None
    spm = memory.spm
    return list(spm.window()[0]), spm.reads, spm.writes


def counters(executor):
    return (executor.executions, executor.fused_executions,
            executor.remote_spm_accesses,
            list(executor.config_counts.items()))


# -- strategies ------------------------------------------------------------------

i32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
operands = st.one_of(
    i32,
    st.integers(-8, 8),
    st.integers(0, SPM_SIZE // 4 - 1).map(lambda word: SPM_BASE + 4 * word),
    st.integers(0, SPM_SIZE - 1).filter(lambda offset: offset % 4).map(
        lambda offset: SPM_BASE + offset),
    st.just(SPM_END),
)
operand_vectors = st.lists(operands, min_size=4, max_size=4)


def unit_configs(ptype, position):
    spec = ptype.unit(position)
    return st.none() | st.builds(
        UnitConfig, st.sampled_from(spec.ops),
        st.sampled_from(spec.in1_choices), st.sampled_from(spec.in2_choices),
    )


#: Strategies are built once, here: building one per draw costs hypothesis
#: more than the draw.
UNITS = {
    (ptype, position): unit_configs(ptype, position)
    for ptype in STITCH_TYPES + (LOCUS_SFU,)
    for position in range(4)
    if not (ptype.has_lmau and position == 1)
}
T_MODES = st.sampled_from(TMode)


@st.composite
def patch_configs(draw, ptypes):
    ptype = draw(ptypes)
    units = {f"u{p}": draw(UNITS[ptype, p]) for p in (0, 2, 3)}
    if ptype.has_lmau:
        units["t"] = draw(T_MODES)
        active = units["t"] is not TMode.OFF
    else:
        units["u1"] = draw(UNITS[ptype, 1])
        active = units["u1"] is not None
    if not active and all(units[f"u{p}"] is None for p in (0, 2, 3)):
        # Every legal configuration activates a unit: take the ALU.
        units["u0"] = UnitConfig(Op.ADD, Source.EXT0, Source.EXT1)
    return PatchConfig(ptype, **units)


patches = patch_configs(st.sampled_from(STITCH_TYPES + (LOCUS_SFU,)))
stitch_patches = patch_configs(st.sampled_from(STITCH_TYPES))
b_ext_wirings = st.lists(
    st.sampled_from(("ext0", "ext1", "ext2", "ext3", "a_out0", "a_out1")),
    min_size=4, max_size=4,
)
out_selections = st.lists(
    st.sampled_from(("a_out0", "a_out1", "b_out0", "b_out1")),
    min_size=1, max_size=2,
)
#: How a fused pair's B half reaches a scratchpad: through ``remote_tile``,
#: through the replica, or not at all (tile unknown, or nothing bound).
B_BINDINGS = ("remote", "replica", "missing", "unknown-tile")
REMOTE_TILE = 5


@st.composite
def fused_configs(draw, binding):
    return FusedConfig(
        draw(stitch_patches), draw(stitch_patches),
        b_ext=draw(b_ext_wirings), outs=draw(out_selections),
        remote_tile=REMOTE_TILE if binding in ("remote", "unknown-tile")
        else None,
    )


FUSED = {binding: fused_configs(binding) for binding in B_BINDINGS}
any_fused = st.one_of(*FUSED.values())
#: ``(binding, cfg_table)``: one to three single or fused entries.
tables = st.one_of(*(
    st.tuples(st.just(binding),
              st.lists(patches | FUSED[binding], min_size=1, max_size=3))
    for binding in B_BINDINGS
))
#: ``cix`` calls into a table of at most three entries: ids in and out of
#: range both ways, with zero to four operands.
cix_calls = st.lists(
    st.tuples(st.integers(-4, 3), st.lists(operands, max_size=4)),
    min_size=1, max_size=4,
)


def executors(cls, table, binding, memory_kind):
    """An executor of ``cls`` over fresh memories, plus those memories."""
    memory = make_memory(memory_kind)
    memory_b = make_memory("stitch")
    remote = {REMOTE_TILE: memory_b} if binding == "remote" else None
    replica = memory_b if binding == "replica" else None
    return cls(table, memory, remote_memories=remote,
               replica_memory=replica), (memory, memory_b)


# -- tier 1 ------------------------------------------------------------------------

MEMORY_KINDS = st.sampled_from(("stitch", "baseline", None))
EXAMPLES = 200


class TestAgainstOracle:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(patches, operand_vectors, MEMORY_KINDS)
    def test_evaluate_patch(self, cfg, ext, memory_kind):
        memories = [make_memory(memory_kind) for _ in range(2)]
        want = outcome(evaluate_patch, cfg, ext, memories[0])
        got = outcome(lowered.evaluate_patch, cfg, ext, memories[1])
        assert got == want
        assert spm_state(memories[1]) == spm_state(memories[0])

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(any_fused, operand_vectors, MEMORY_KINDS,
           st.sampled_from((None, "stitch")))
    def test_evaluate_fused(self, cfg, ext, kind_a, kind_b):
        sides = [(make_memory(kind_a), make_memory(kind_b)) for _ in range(2)]
        want = outcome(evaluate_fused, cfg, ext, *sides[0])
        got = outcome(lowered.evaluate_fused, cfg, ext, *sides[1])
        assert got == want
        for want_mem, got_mem in zip(*sides):
            assert spm_state(got_mem) == spm_state(want_mem)

    @settings(max_examples=EXAMPLES, deadline=None)
    @given(tables, MEMORY_KINDS, cix_calls)
    def test_execute(self, drawn, memory_kind, calls):
        binding, table = drawn
        oracle, oracle_mems = executors(OracleExecutor, table, binding,
                                        memory_kind)
        executor, mems = executors(lowered.PatchExecutor, table, binding,
                                   memory_kind)
        for cfg_id, in_values in calls:
            want = outcome(oracle.execute, cfg_id, in_values)
            got = outcome(executor.execute, cfg_id, in_values)
            assert got == want
            for want_mem, got_mem in zip(oracle_mems, mems):
                assert spm_state(got_mem) == spm_state(want_mem)
        assert counters(executor) == counters(oracle)


def effects(cfg, ext):
    """Outputs and scratchpad state after the lowered executor runs."""
    memory = make_memory("stitch")
    memory_b = make_memory("stitch")
    if isinstance(cfg, FusedConfig):
        result = outcome(lowered.evaluate_fused, cfg, ext, memory, memory_b)
    else:
        result = outcome(lowered.evaluate_patch, cfg, ext, memory)
    return result, spm_state(memory), spm_state(memory_b)


class TestExtSlotsUsed:
    @settings(max_examples=EXAMPLES, deadline=None)
    @given(patches | FUSED["replica"], operand_vectors, operands)
    @example(  # the chain wire feeds ext0 to in2
        PatchConfig(AT_MA, u2=UnitConfig(Op.MUL, Source.EXT2, Source.CHAIN)),
        [3, 5, 7, 11], 13,
    )
    def test_unread_operands_are_dont_cares(self, cfg, ext, other):
        """Changing an operand outside ``ext_slots_used()`` changes
        neither the outputs nor the scratchpad effects."""
        baseline = effects(cfg, ext)
        for slot in sorted(set(range(4)) - set(cfg.ext_slots_used())):
            changed = list(ext)
            changed[slot] = other
            assert effects(cfg, changed) == baseline, f"slot {slot}"


# -- soak: every distinct legal single-patch configuration ---------------------

#: Fixed operand vectors: in-window aligned addresses and offsets,
#: misaligned and one-past-the-end addresses, and 32-bit extremes and
#: shift amounts past 31.
SOAK_VECTORS = (
    [SPM_BASE + 12, 8, SPM_BASE + 40, -7],
    [0x7FFFFFFF, -2, 33, SPM_BASE + 1],
    [SPM_END - 4, 4, SPM_END, -(1 << 31)],
)


def stitch_configs(ptype, tally):
    """Every distinct configuration a 19-bit word decodes to; counts the
    decodable words in ``tally["decodable"]``."""
    for word in range(1 << CONTROL_BITS):
        try:
            cfg = PatchConfig.decode(ptype, word)
        except ValueError:
            continue
        tally["decodable"] += 1
        if cfg.encode() == word:  # bypassed units' fields are don't-cares
            yield cfg


def sfu_configs():
    """Every LOCUS-SFU unit combination that activates a unit."""
    choices = [
        [None] + [
            UnitConfig(op, in1, in2)
            for op in spec.ops
            for in1 in spec.in1_choices
            for in2 in spec.in2_choices
        ]
        for spec in LOCUS_SFU.units
    ]
    for u0, u1, u2, u3 in itertools.product(*choices):
        if (u0, u1, u2, u3) != (None, None, None, None):
            yield PatchConfig(LOCUS_SFU, u0=u0, u1=u1, u2=u2, u3=u3)


def soak_compare(configs):
    """Run each config on every soak vector on both sides; return how
    many configs ran.  One memory per side is reset after each write."""
    want_mem, got_mem = make_memory("stitch"), make_memory("stitch")
    count = 0
    for cfg in configs:
        count += 1
        for ext in SOAK_VECTORS:
            want = outcome(evaluate_patch, cfg, ext, want_mem)
            got = outcome(lowered.evaluate_patch, cfg, ext, got_mem)
            assert got == want, (cfg, ext)
            want_spm, got_spm = want_mem.spm, got_mem.spm
            assert (got_spm.reads, got_spm.writes) == (
                want_spm.reads, want_spm.writes), (cfg, ext)
            if want_spm.writes or got_spm.writes:
                assert spm_state(got_mem) == spm_state(want_mem), (cfg, ext)
                for spm in (want_spm, got_spm):
                    spm.window()[0][:] = PRISTINE
                    spm.writes = 0
    return count


@pytest.mark.soak
@pytest.mark.parametrize("ptype, decodable, distinct", [
    pytest.param(AT_MA, 392_192, 192_099, id="AT-MA"),
    pytest.param(AT_AS, 523_264, 282_499, id="AT-AS"),
    pytest.param(AT_SA, 523_264, 282_499, id="AT-SA"),
])
def test_soak_every_stitch_word(ptype, decodable, distinct):
    tally = Counter()
    assert soak_compare(stitch_configs(ptype, tally)) == distinct
    assert tally["decodable"] == decodable


@pytest.mark.soak
def test_soak_every_sfu_combination():
    assert soak_compare(sfu_configs()) == 1_200_624
