"""Functional single-cycle execution of configured patches.

The executor is the tile's :class:`~repro.cpu.PatchPort`.  A ``cix``
instruction names an entry of the program's configuration table; the
executor evaluates the configured chain and performs any LMAU
scratchpad traffic inside the same cycle (Section III-C).

Each table entry, a single patch or a fused pair, is lowered once, when
the executor is built, to one generated Python function of the ``cix``
operands, the way :mod:`repro.cpu.engine` translates a basic block.
Each active unit becomes one assignment built from its op's template in
:data:`repro.isa.decoded.VALUES`, the template the block engine inlines
for the same op, so a custom instruction stays bit-identical to the
software sequence it replaces.  The LMAU indexes its scratchpad's words
(:meth:`~repro.mem.spm.Scratchpad.window`) when the address is aligned
and inside the window, and bumps ``reads``/``writes``; any other
address goes through ``MemorySystem.spm_read``/``spm_write``, which
raise the checked path's error.  Missing operands read 0; operands past
the fourth are ignored.

A configuration's function counts its own calls: before it runs it
adds one to its count cell, a fused one also to the executor's fused
cell, and one whose B half reaches a remote tile's scratchpad to the
remote cell.  :meth:`PatchExecutor.execute` only looks the run up and
calls it; the executor's counters are read from the cells.

The generated code is cached by its source text in
:func:`repro.isa.decoded.compiled`, the code cache the block engine's
translations share, so executors over equal configurations and
memories of one geometry share one code object.  What is cached is a
factory: each executor binds its own memories and cells into it, so the
cache holds neither executors nor memories.
"""

import functools

from repro.core.config import TMode
from repro.core.fusion import FusedConfig
from repro.core.units import Source
from repro.cpu.core import PatchPort
from repro.isa.decoded import OP_KIND, WRAP, compiled, value_source, window_test


class _Lowering:
    """The straight-line source of one configuration.

    ``lines`` is the body of ``run(e)`` after its count and operand
    prologue, ``binds`` the ``(parameter, value)`` pairs its factory
    takes before ``calls``, the id's count cell, and ``used`` the
    operand slots the body reads (as ``e0``-``e3``).  ``counted`` names
    the cells a call adds one to before it runs: ``calls``, then the
    shared ``(parameter, cell)`` pairs given as ``cells``.
    """

    def __init__(self, cells=()):
        self.lines = []
        self.binds = list(cells)
        self.counted = ["calls"] + [name for name, _ in cells]
        self.used = set()

    def ext(self, slot):
        self.used.add(slot)
        return f"e{slot}"

    def patch(self, cfg, memory, side, ext, missing):
        """Emit patch ``cfg`` with operands ``ext(slot)``; returns the
        names of ``(out0, out1)``.

        Unit ``p`` of side ``a`` assigns ``a{p}``.  The chain wire
        carries ext0 until a unit drives it; ``out1`` is the wire after
        positions 0-1 when a unit there and one in positions 2-3 are
        both active, else ``missing``.
        """
        wire = None  # ext(0), read only if something reads the wire
        front = tail = None
        for position, unit in enumerate((cfg.u0, cfg.u1, cfg.u2, cfg.u3)):
            if position == 1 and cfg.t is not TMode.OFF:
                wire = self._lmau(cfg.t, memory, side, wire or ext(0), ext)
            elif unit is not None:
                lhs, rhs = (
                    wire or ext(0) if source == Source.CHAIN
                    else ext(Source.ext_index(source))
                    for source in (unit.in1, unit.in2)
                )
                wire = f"{side}{position}"
                self.lines.append(f"{wire} = " + value_source(
                    OP_KIND[unit.op],
                    lambda slot, name: lhs if name == "a" else rhs))
            else:
                continue
            if position < 2:
                front = wire
            else:
                tail = wire
        return wire, front if front and tail else missing

    def _lmau(self, mode, memory, side, wire, ext):
        """Emit the LMAU; returns the wire it drives."""
        if mode is TMode.LOAD:
            addr, data = wire, None
        elif mode is TMode.STORE_DATA_CHAIN:
            addr, data = ext(2), wire
        else:
            addr, data = wire, ext(3)
        # A load drives the wire with the word, a store with its data.
        driven = f"{side}1" if data is None else data
        if memory is None:  # the code after this line never runs
            self.lines.append('raise RuntimeError("LMAU active but no '
                              'scratchpad is reachable")')
            return driven
        self.binds.append((f"m{side}", memory))
        if data is None:
            checked = f"{side}1 = m{side}.spm_read({addr} & 4294967295)"
            direct = [f"s{side}.reads += 1", f"{side}1 = w{side}[i >> 2]"]
        else:
            checked = f"m{side}.spm_write({addr} & 4294967295, {data})"
            direct = [f"s{side}.writes += 1",
                      f"w{side}[i >> 2] = " + WRAP.format(data)]
        spm = getattr(memory, "spm", None)
        if spm is None:
            self.lines.append(checked)
        else:
            words, base, end, _ = spm.window()
            self.binds += [(f"s{side}", spm), (f"w{side}", words)]
            self.lines += [f"i = ({addr} & 4294967295) - {base}",
                           f"if {window_test(base, end)}:",
                           f"    {checked}",
                           "else:"] + [f"    {line}" for line in direct]
        return driven

    def run(self, outs):
        """``bind(calls) -> run(e) -> [outs...]``: the cached factory
        with this lowering's memories and shared cells bound, which
        binds a count cell ``calls`` (a one-item list) into a run."""
        reads = [f"e{slot} = e[{slot}]" for slot in sorted(self.used)]
        body = [f"{name}[0] += 1" for name in self.counted]
        if reads:
            body += ["try:", *(f"    {line}" for line in reads),
                     "except (IndexError, TypeError):  # short, or not a list",
                     "    e = [*e, 0, 0, 0, 0]",
                     *(f"    {line}" for line in reads)]
        body += [*self.lines, f"return [{', '.join(outs)}]"]
        params = [name for name, _ in self.binds] + ["calls"]
        source = (f"def bind({', '.join(params)}):\n"
                  "    def run(e):\n"
                  + "".join(f"        {line}\n" for line in body)
                  + "    return run\n")
        return functools.partial(compiled(source, "<patch configuration>"),
                                 *(value for _, value in self.binds))


def _lower_patch(cfg, memory, missing):
    """Lower a :class:`PatchConfig` to ``bind(calls) -> run(ext) ->
    [out0, out1]``, with ``missing`` standing for an ``out1`` the patch
    does not drive."""
    lowering = _Lowering()
    return lowering.run(
        lowering.patch(cfg, memory, "a", lowering.ext, repr(missing)))


def _lower_unbound(cells):
    """``bind(calls) -> run(ext)`` for a fused configuration whose B half
    uses its LMAU with no scratchpad bound: it counts, then raises."""
    lowering = _Lowering(cells)
    lowering.lines.append('raise RuntimeError("fused B half uses its LMAU '
                          'but no remote scratchpad is bound (was the '
                          'pair stitched?)")')
    return lowering.run([])


def _lower_fused(cfg, memory_a, memory_b, cells=()):
    """Lower a :class:`FusedConfig` to ``bind(calls) -> run(ext) ->
    [outs...]``.

    Patch B's operands are the names ``b_ext`` wires them to, so A's
    outputs reach B without a copy; an output a half does not drive
    reads 0.
    """
    lowering = _Lowering(cells)
    produced = dict(zip(("a_out0", "a_out1"), lowering.patch(
        cfg.cfg_a, memory_a, "a", lowering.ext, "0")))

    def b_ext(slot):
        source = cfg.b_ext[slot]
        if source in produced:
            return produced[source]
        return lowering.ext(Source.ext_index(source))

    produced.update(zip(("b_out0", "b_out1"), lowering.patch(
        cfg.cfg_b, memory_b, "b", b_ext, "0")))
    return lowering.run([produced[source] for source in cfg.outs])


def evaluate_patch(cfg, ext, memory):
    """Evaluate a single-patch configuration.

    ``ext`` is the 4-entry external operand list; ``memory`` provides
    the LMAU's scratchpad.  Returns ``(out0, out1)`` where ``out1`` is
    ``None`` unless both chain halves produced values.
    """
    return tuple(_lower_patch(cfg, memory, None)([0])(ext))


def evaluate_fused(cfg, ext, memory_a, memory_b):
    """Evaluate a fused pair: A on the origin tile, B on the remote."""
    return tuple(_lower_fused(cfg, memory_a, memory_b)([0])(ext))


class PatchExecutor(PatchPort):
    """PatchPort implementation bound to one tile.

    A fused configuration's B half reaches the scratchpad of
    ``remote_memories[cfg.remote_tile]`` when its ``remote_tile`` is
    set, else ``replica_memory``.  The stitcher records the partner
    tile in ``Assignment.remote_tile`` and the mapper builds every
    ``FusedConfig`` with ``remote_tile=None``, so in co-simulation B
    halves run against ``replica_memory`` (None there) and
    ``remote_spm_accesses`` stays 0.

    The configuration table is lowered once, here, to one generated
    factory per entry.  An id's first call binds the entry's run to a
    count cell of its own; every later call of ``execute`` looks the run
    up and calls it, and the run counts itself.
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
        # Telemetry cells: fused executions, and how many fused
        # executions touched a *remote* tile's scratchpad via the
        # inter-patch path (the cross-SPM traffic Section IV argues for).
        self._fused = [0]
        self._remote = [0]
        # Factory per table entry; each holds memories and cells but
        # never the executor.
        self._lowered = [self._lower(cfg) for cfg in self.cfg_table]
        # Run and count cell per config id as given, in first-use order.
        self._runs = {}
        self._calls = {}

    def _lower(self, cfg):
        if not isinstance(cfg, FusedConfig):
            return _lower_patch(cfg, self.memory, 0)
        if cfg.remote_tile is not None:
            memory_b = self.remote_memories.get(cfg.remote_tile)
        else:
            memory_b = self.replica_memory
        b_lmau = cfg.cfg_b.uses_lmau()
        cells = [("fused", self._fused)]
        if memory_b is None and b_lmau:
            return _lower_unbound(cells)
        if cfg.remote_tile is not None and b_lmau:
            cells.append(("remote", self._remote))
        return _lower_fused(cfg, self.memory, memory_b, cells)

    def execute(self, cfg_id, in_values):
        try:
            run = self._runs[cfg_id]
        except KeyError:
            run = self._install(cfg_id)
        return run(in_values)

    def _install(self, cfg_id):
        """Bind ``cfg_id``'s run on its first call.  The id is kept as
        given, so ``-1`` counts apart from the last entry's index."""
        try:
            bind = self._lowered[cfg_id]
        except IndexError:
            raise IndexError(
                f"cix names config {cfg_id} but the table has "
                f"{len(self.cfg_table)} entries"
            ) from None
        calls = self._calls[cfg_id] = [0]
        run = self._runs[cfg_id] = bind(calls)
        return run

    @property
    def executions(self):
        return sum(calls[0] for calls in self._calls.values())

    @property
    def fused_executions(self):
        return self._fused[0]

    @property
    def remote_spm_accesses(self):
        return self._remote[0]

    @property
    def config_counts(self):
        """Invocations per config id, in first-use order."""
        return {cfg_id: calls[0] for cfg_id, calls in self._calls.items()}

    def stats(self):
        """Invocation counters (feeds the SystemStats roll-up)."""
        return {
            "executions": self.executions,
            "fused_executions": self.fused_executions,
            "remote_spm_accesses": self.remote_spm_accesses,
            "per_config": self.config_counts,
        }
