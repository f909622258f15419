"""Compiling leaves no compiler function in cyclic garbage.

A nested function that calls itself (a recursive search written as a
closure) holds a reference cycle through its own cell, so every call
that defined one left garbage only the cycle collector could free.
"""

import gc
import types

from repro.compiler.driver import ALL_OPTIONS, LOCUS_OPTION, KernelCompiler
from repro.workloads import make_kernel


def test_compiling_every_option_leaves_no_compiler_functions_behind():
    kernel = make_kernel("fir", seed=1)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        KernelCompiler(kernel).compile_options(ALL_OPTIONS + (LOCUS_OPTION,))
        gc.collect()
        leaked = sorted(
            obj.__qualname__ for obj in gc.garbage
            if isinstance(obj, types.FunctionType)
            and obj.__module__.startswith("repro.compiler")
        )
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert leaked == []
