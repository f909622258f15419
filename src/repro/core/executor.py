"""Functional single-cycle execution of configured patches.

The executor is the tile's :class:`~repro.cpu.PatchPort`.  A ``cix``
instruction names an entry of the program's configuration table; the
executor evaluates the configured chain and performs any LMAU
scratchpad traffic inside the same cycle (Section III-C).

Each table entry is lowered once, when the executor is built, the way
:mod:`repro.isa.decoded` lowers programs.  Every active unit becomes a
step ``(value function, lhs slot, rhs slot)`` over one working list of
operand slots.  A compute unit's value function is its op's entry in
:data:`repro.isa.instructions.OP_VALUE`, the interpreter's own
definition, so a custom instruction stays bit-identical to the software
sequence it replaces.  The LMAU's step has its mode and its
scratchpad's ``spm_read``/``spm_write`` bound in.  A ``cix`` then only
runs the steps.  The working-list slots::

    0-3  ext0-ext3: the cix operands, zero-padded
    4    chain wire of the patch (of patch A in a fused pair): out0, a_out0
    5    its second output: out1, a_out1
    6    chain wire of a fused pair's patch B: b_out0
    7    its second output: b_out1
"""

from repro.core.config import TMode
from repro.core.fusion import FusedConfig
from repro.core.units import Source
from repro.cpu.core import PatchPort
from repro.isa.instructions import OP_VALUE

_MASK32 = 0xFFFFFFFF
#: A working list is the cix operands followed by as many of these as
#: bring it to eight slots.
_SLOTS = (0,) * 8
#: Working-list slot of every fused-pair source and output.
_FUSED_SLOT = {
    "ext0": 0, "ext1": 1, "ext2": 2, "ext3": 3,
    "a_out0": 4, "a_out1": 5, "b_out0": 6, "b_out1": 7,
}


def _working(ext):
    values = list(ext)
    values += _SLOTS[len(values):]
    return values


def _no_scratchpad(chain, operand):
    raise RuntimeError("LMAU active but no scratchpad is reachable")


def _unbound_remote(values):
    raise RuntimeError(
        "fused B half uses its LMAU but no remote scratchpad "
        "is bound (was the pair stitched?)"
    )


def _lmau_step(mode, memory, wire, ext):
    """The LMAU as a step: it reads the chain wire and drives it."""
    if memory is None:
        return _no_scratchpad, wire, wire
    if mode is TMode.LOAD:
        spm_read = memory.spm_read

        def load(addr, _):
            return spm_read(addr & _MASK32)

        return load, wire, wire
    spm_write = memory.spm_write

    def store(addr, data):  # the stored data drives the chain wire
        spm_write(addr & _MASK32, data)
        return data

    if mode is TMode.STORE_DATA_CHAIN:
        return store, ext[2], wire
    return store, wire, ext[3]


def _lower_patch(cfg, memory, missing, ext=(0, 1, 2, 3), chain=4):
    """Lower a :class:`PatchConfig` to ``run(values) -> [out0, out1]``.

    ``ext`` holds the slots of the patch's four operands and ``chain``
    the slot of its chain wire; ``run`` leaves the outputs in slots
    ``chain`` and ``chain + 1``.  ``out1`` is the chain value after
    positions 0-1 when a unit there and one in positions 2-3 are both
    active, else ``missing``.
    """
    steps = []
    split = 0
    wire = ext[0]  # the chain wire carries ext0 until a unit drives it
    for position, unit in enumerate((cfg.u0, cfg.u1, cfg.u2, cfg.u3)):
        if position == 1 and cfg.t is not TMode.OFF:
            steps.append(_lmau_step(cfg.t, memory, wire, ext))
        elif unit is not None:
            lhs, rhs = (
                wire if source == Source.CHAIN
                else ext[Source.ext_index(source)]
                for source in (unit.in1, unit.in2)
            )
            steps.append((OP_VALUE[unit.op], lhs, rhs))
        else:
            continue
        wire = chain
        if position < 2:
            split = len(steps)
    front, tail = tuple(steps[:split]), tuple(steps[split:])
    has_out1 = bool(front and tail)
    half, end = chain + 1, chain + 2

    def run(values):
        for value_of, lhs, rhs in front:
            values[chain] = value_of(values[lhs], values[rhs])
        values[half] = values[chain] if has_out1 else missing
        for value_of, lhs, rhs in tail:
            values[chain] = value_of(values[lhs], values[rhs])
        return values[chain:end]

    return run


def _lower_fused(cfg, memory_a, memory_b):
    """Lower a :class:`FusedConfig` to ``run(values) -> [outs...]``.

    Patch B reads its operands straight from the slots ``b_ext`` wires
    them to, so A's outputs reach B without a copy.
    """
    run_a = _lower_patch(cfg.cfg_a, memory_a, 0)
    run_b = _lower_patch(
        cfg.cfg_b, memory_b, 0,
        ext=tuple(_FUSED_SLOT[source] for source in cfg.b_ext), chain=6,
    )
    outs = tuple(_FUSED_SLOT[source] for source in cfg.outs)
    if len(outs) == 1:
        (out,) = outs

        def run(values):
            run_a(values)
            run_b(values)
            return [values[out]]
    else:
        out0, out1 = outs

        def run(values):
            run_a(values)
            run_b(values)
            return [values[out0], values[out1]]

    return run


def evaluate_patch(cfg, ext, memory):
    """Evaluate a single-patch configuration.

    ``ext`` is the 4-entry external operand list; ``memory`` provides
    the LMAU's scratchpad.  Returns ``(out0, out1)`` where ``out1`` is
    ``None`` unless both chain halves produced values.
    """
    return tuple(_lower_patch(cfg, memory, None)(_working(ext)))


def evaluate_fused(cfg, ext, memory_a, memory_b):
    """Evaluate a fused pair: A on the origin tile, B on the remote."""
    return tuple(_lower_fused(cfg, memory_a, memory_b)(_working(ext)))


class PatchExecutor(PatchPort):
    """PatchPort implementation bound to one tile.

    A fused configuration's B half reaches the scratchpad of
    ``remote_memories[cfg.remote_tile]`` when its ``remote_tile`` is
    set, else ``replica_memory``.  The stitcher records the partner
    tile in ``Assignment.remote_tile`` and the mapper builds every
    ``FusedConfig`` with ``remote_tile=None``, so in co-simulation B
    halves run against ``replica_memory`` (None there) and
    ``remote_spm_accesses`` stays 0.

    The configuration table is lowered once, here; ``execute`` then
    counts the call and runs the lowered entry.
    """

    def __init__(self, cfg_table, memory, remote_memories=None,
                 replica_memory=None):
        self.cfg_table = list(cfg_table)
        self.memory = memory
        self.remote_memories = remote_memories or {}
        # Scratchpad standing in for "some remote tile holding a copy
        # of the replicated read-only regions" when the fused pair has
        # not been placed yet (single-kernel measurement).
        self.replica_memory = replica_memory
        self.executions = 0
        self.fused_executions = 0
        # Telemetry: invocations per config id, and how many fused
        # executions touched a *remote* tile's scratchpad via the
        # inter-patch path (the cross-SPM traffic Section IV argues for).
        self.config_counts = {}
        self.remote_spm_accesses = 0
        # (run, fused, remote) per config id; the entries hold memories
        # but never the executor, which keeps the counters.
        self._lowered = [self._lower(cfg) for cfg in self.cfg_table]

    def _lower(self, cfg):
        if not isinstance(cfg, FusedConfig):
            return _lower_patch(cfg, self.memory, 0), False, False
        if cfg.remote_tile is not None:
            memory_b = self.remote_memories.get(cfg.remote_tile)
        else:
            memory_b = self.replica_memory
        b_lmau = cfg.cfg_b.uses_lmau()
        if memory_b is None and b_lmau:
            return _unbound_remote, True, False
        return (_lower_fused(cfg, self.memory, memory_b), True,
                cfg.remote_tile is not None and b_lmau)

    def execute(self, cfg_id, in_values):
        try:
            run, fused, remote = self._lowered[cfg_id]
        except IndexError:
            raise IndexError(
                f"cix names config {cfg_id} but the table has "
                f"{len(self.cfg_table)} entries"
            ) from None
        values = list(in_values)
        values += _SLOTS[len(values):]
        self.executions += 1
        self.config_counts[cfg_id] = self.config_counts.get(cfg_id, 0) + 1
        if fused:
            self.fused_executions += 1
            if remote:
                self.remote_spm_accesses += 1
        return run(values)

    def stats(self):
        """Invocation counters (feeds the SystemStats roll-up)."""
        return {
            "executions": self.executions,
            "fused_executions": self.fused_executions,
            "remote_spm_accesses": self.remote_spm_accesses,
            "per_config": dict(self.config_counts),
        }
