"""Driver versioning: one validated executable per patch option."""

from collections import Counter

import pytest

from repro.compiler import driver
from repro.compiler.dfg import DFG
from repro.compiler.driver import (
    ALL_OPTIONS,
    FUSED_OPTIONS,
    KernelCompiler,
    LOCUS_OPTION,
    MiscompileError,
    PatchOption,
    SINGLE_OPTIONS,
    _first_divergence,
)
from repro.compiler.ise import enumerate_candidates
from repro.core.patches import AT_AS, AT_MA
from repro.provenance import CompileReport, EnumerationLog
from repro.workloads import make_kernel


@pytest.fixture(scope="module")
def fir_versions():
    report = CompileReport("fir")
    compiler = KernelCompiler(make_kernel("fir"), report=report)
    compiled = compiler.compile_options(ALL_OPTIONS)
    return compiler, compiled, report


class TestVersioning:
    def test_one_version_per_option(self, fir_versions):
        _, compiled, report = fir_versions
        assert sorted(compiled) == sorted(o.name for o in ALL_OPTIONS)
        assert sorted(report.versions) == sorted(compiled)

    def test_all_versions_bit_exact(self, fir_versions):
        _, _, report = fir_versions
        assert all(
            v.validated is True for v in report.versions.values()
        )

    def test_fused_options_prefer_pair_then_fall_back(self):
        option = PatchOption("AT-MA+AT-AS", AT_MA, AT_AS)
        assert option.targets() == [(AT_MA, AT_AS), AT_MA]
        single = PatchOption("AT-MA", AT_MA)
        assert single.targets() == [AT_MA]

    def test_fused_fallback_flag_is_consistent(self, fir_versions):
        # A fused option whose candidates cannot cross the pair still
        # compiles — its mappings are single-patch and the version says
        # so — and a version with fused mappings never claims fallback.
        _, compiled, report = fir_versions
        for option in FUSED_OPTIONS:
            version = report.versions[option.name]
            assert version.fused
            assert version.mappings == len(compiled[option.name].mappings)
            if version.fallback_single:
                assert version.fused_mappings == 0 and version.mappings > 0
            if version.fused_mappings:
                assert not version.fallback_single

    def test_single_options_never_fuse(self, fir_versions):
        _, compiled, _ = fir_versions
        for option in SINGLE_OPTIONS:
            assert not compiled[option.name].uses_fusion

    def test_versions_cached_by_option_name(self, fir_versions):
        compiler, compiled, _ = fir_versions
        again = compiler.compile(ALL_OPTIONS[0])
        assert again is compiled[ALL_OPTIONS[0].name]


class TestSharedSweeps:
    """Every option with one output-port budget shares a hot block's
    sweep, and no version's provenance shows it."""

    @pytest.mark.parametrize("name", ["aes", "fft"])
    def test_one_sweep_per_block_and_budget(self, name, monkeypatch):
        sweeps = Counter()

        def counting(dfg, *args, **kwargs):
            sweeps[(dfg.block.index, kwargs["max_outputs"])] += 1
            return enumerate_candidates(dfg, *args, **kwargs)

        monkeypatch.setattr(driver, "enumerate_candidates", counting)
        report = CompileReport(name)
        compiler = KernelCompiler(make_kernel(name), report=report)
        options = ALL_OPTIONS + (LOCUS_OPTION,)
        compiler.compile_options(options)

        hot = compiler.profile.hot_blocks(compiler.hot_threshold)
        assert hot
        assert sweeps == Counter(
            {(block.block.index, outputs): 1
             for block in hot for outputs in (1, 2)}
        )
        fresh = {}
        for block in hot:
            dfg = DFG(
                block.block,
                spm_only=compiler.profile.spm_only,
                live_out=compiler.block_live_out[block.block.index],
                replicable=frozenset(compiler.replicable),
            )
            for outputs in (1, 2):
                log = EnumerationLog()
                found = enumerate_candidates(
                    dfg, max_outputs=outputs, observer=log
                )
                fresh[(block.block.index, outputs)] = (log.to_dict(),
                                                       len(found))
        assert len(report.versions) == 13
        for option in options:
            version = report.versions[option.name]
            assert version.accounted(), option.name
            outputs = option.max_outputs or compiler.max_outputs
            assert [r.block_index for r in version.blocks] \
                == [block.block.index for block in hot]
            for record in version.blocks:
                assert (record.enumeration.to_dict(), record.enumerated) \
                    == fresh[(record.block_index, outputs)], option.name

    def test_versions_hold_their_own_tally(self):
        report = CompileReport("fir")
        compiler = KernelCompiler(make_kernel("fir"), report=report)
        compiler.compile_options(SINGLE_OPTIONS[:2])
        first, second = (report.versions[o.name] for o in SINGLE_OPTIONS[:2])
        assert first.blocks[0].enumeration is not second.blocks[0].enumeration
        assert first.blocks[0].enumeration.rejections \
            is not second.blocks[0].enumeration.rejections


class TestMiscompileError:
    def test_first_divergence_in_sequences(self):
        assert _first_divergence([1, 2, 3], [1, 9, 3]) == ("[1]", 2, 9)
        assert _first_divergence([[1], [2, 3]], [[1], [2, 4]]) == (
            "[1][1]", 3, 4
        )
        assert _first_divergence([1], [1, 2]) == (".length", 1, 2)
        assert _first_divergence([1, 2], [1, 2]) is None

    def test_first_divergence_in_dicts(self):
        expected = {"mem": [1, 2], "reg": 7}
        actual = {"mem": [1, 5], "reg": 7}
        assert _first_divergence(expected, actual) == ("['mem'][1]", 2, 5)
        assert _first_divergence({"a": 1}, {}) == ("['a']", 1, "<absent>")

    def test_miscompile_error_names_kernel_option_and_word(self):
        error = MiscompileError.from_results(
            "fir", "AT-MA", [0, 1, 2], [0, 1, 99]
        )
        assert error.kernel == "fir"
        assert error.option == "AT-MA"
        assert error.divergence == ("[2]", 2, 99)
        assert "fir @ AT-MA" in str(error)
        assert "diverges at word [2]" in str(error)
        assert "expected 2" in str(error) and "got 99" in str(error)

    def test_tampered_reference_raises_located_miscompile(self):
        # Regression: a real validation failure must surface the kernel,
        # the option and the first diverging word — not a bare assert.
        compiler = KernelCompiler(make_kernel("fir"))
        reference = compiler._reference
        assert isinstance(reference, (list, tuple)) or hasattr(
            reference, "__iter__"
        )
        tampered = list(reference)
        tampered[0] = (
            tampered[0] + 1 if isinstance(tampered[0], int)
            else [v + 1 for v in tampered[0]]
            if isinstance(tampered[0], list) else tampered[0]
        )
        compiler._reference = (
            tuple(tampered) if isinstance(reference, tuple) else tampered
        )
        with pytest.raises(MiscompileError) as excinfo:
            compiler.compile(ALL_OPTIONS[0])
        error = excinfo.value
        assert error.kernel == "fir"
        assert error.option == ALL_OPTIONS[0].name
        assert error.divergence is not None
        assert "diverges at word" in str(error)

    def test_validation_failure_recorded_in_report(self):
        report = CompileReport("fir")
        compiler = KernelCompiler(make_kernel("fir"), report=report)
        reference = compiler._reference
        tampered = list(reference)
        tampered[-1] = None  # guaranteed mismatch whatever the payload
        compiler._reference = (
            tuple(tampered) if isinstance(reference, tuple) else tampered
        )
        with pytest.raises(MiscompileError):
            compiler.compile(ALL_OPTIONS[0])
        version = report.versions[ALL_OPTIONS[0].name]
        assert version.validated is False
        assert version.wall_seconds > 0
