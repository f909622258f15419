"""Compiling leaves nothing of the compiler or its programs in cyclic garbage.

A nested function that calls itself (a recursive search written as a
closure) holds a reference cycle through its own cell, so every call
that defined one left garbage only the cycle collector could free.  A
decoded program that held its ``Program``, which memoizes it, made
every simulated program such a cycle, with its instructions and basic
blocks.
"""

import gc
import types

import pytest

from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION, KernelCompiler
from repro.isa import BasicBlock, Instruction, Program
from repro.isa.decoded import DecodedProgram
from repro.workloads import make_kernel


@pytest.fixture(scope="module")
def garbage():
    """What the cycle collector finds unreachable after fir is compiled
    at every option with the collector off."""
    kernel = make_kernel("fir", seed=1)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        KernelCompiler(kernel).compile_options(ALL_OPTIONS + (LOCUS_OPTION,))
        gc.collect()
        return list(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


def test_compiling_every_option_leaves_no_compiler_functions_behind(garbage):
    leaked = sorted(
        obj.__qualname__ for obj in garbage
        if isinstance(obj, types.FunctionType)
        and obj.__module__.startswith("repro.compiler")
    )
    assert leaked == []


def test_compiling_every_option_leaves_no_program_behind(garbage):
    kinds = (Program, DecodedProgram, Instruction, BasicBlock)
    leaked = sorted(type(obj).__name__ for obj in garbage
                    if isinstance(obj, kinds))
    assert leaked == []
