"""Tests for the static invariant checker and registry parity auditor.

Each lint checker gets true-positive fixtures (a seeded violation must
be found) and true-negative fixtures (the repo's accepted idioms must
not be); the parity layer is exercised both on the shipped tree (all 57
columns must agree) and against a deliberately skewed kernel (the skew
must be caught).
"""

import json
import textwrap

import numpy as np
import pytest

from repro.audit.baseline import Baseline, BaselineEntry, write_baseline
from repro.audit.checks import all_checkers
from repro.audit.checks.checkpoint import CheckpointContractChecker
from repro.audit.checks.coverage import CoverageChecker
from repro.audit.checks.exceptions import ExceptionHygieneChecker
from repro.audit.checks.floatsum import FloatAccumulationChecker
from repro.audit.checks.rng import RngDisciplineChecker
from repro.audit.checks.sharedmem import SharedMemoryChecker
from repro.audit.checks.spawn import SpawnSafetyChecker
from repro.audit.linter import ModuleInfo, lint_modules, run_lint
from repro.audit.parity import KERNEL_RTOL, ColumnProbe, run_parity
from repro.cli import main
from repro.core.scenario import Scenario
from repro.engine.vector import params as P
from repro.engine.vector.params import COLUMN_NAMES, COLUMN_SPECS, ColumnSpec
from repro.errors import ParameterError


def _module(source, relpath="pkg/mod.py", **kwargs):
    return ModuleInfo.from_source(relpath, textwrap.dedent(source), **kwargs)


def _findings(checker, source, **kwargs):
    return list(checker.check_module(_module(source, **kwargs)))


# ----------------------------------------------------------------------
# GF-RNG
# ----------------------------------------------------------------------


def test_rng_flags_legacy_and_unseeded():
    findings = _findings(
        RngDisciplineChecker(),
        """
        import numpy as np

        def f():
            np.random.seed(0)
            return np.random.default_rng()
        """,
    )
    assert len(findings) == 2
    assert all(f.check == "GF-RNG" for f in findings)


def test_rng_accepts_seeded_and_seedsequence():
    assert not _findings(
        RngDisciplineChecker(),
        """
        import numpy as np

        def f(seed):
            entropy = int(np.random.SeedSequence().entropy)
            return np.random.default_rng(seed), entropy
        """,
    )


def test_rng_skips_test_modules():
    assert not _findings(
        RngDisciplineChecker(),
        """
        import numpy as np

        def test_f():
            return np.random.default_rng()
        """,
        relpath="tests/test_mod.py",
    )


# ----------------------------------------------------------------------
# GF-SPAWN
# ----------------------------------------------------------------------


def test_spawn_flags_lambda_and_nested_function():
    findings = _findings(
        SpawnSafetyChecker(),
        """
        from concurrent.futures import ProcessPoolExecutor

        def f(items):
            def work(x):
                return x
            with ProcessPoolExecutor() as pool:
                a = pool.submit(lambda x: x, items[0])
                b = pool.map(work, items)
            return a, b
        """,
    )
    assert len(findings) == 2
    assert all(f.check == "GF-SPAWN" for f in findings)


def test_spawn_flags_run_stream_lambda():
    findings = _findings(
        SpawnSafetyChecker(),
        """
        def f(source, reduction):
            return run_stream(source, reduction, on_chunk=lambda i: i)
        """,
    )
    assert len(findings) == 1


def test_spawn_skips_thread_pools():
    assert not _findings(
        SpawnSafetyChecker(),
        """
        from concurrent.futures import ThreadPoolExecutor

        def f(items):
            def piece(x):
                return x
            with ThreadPoolExecutor() as pool:
                return list(pool.map(piece, items))
        """,
    )


# ----------------------------------------------------------------------
# GF-SHM
# ----------------------------------------------------------------------


def test_sharedmem_flags_uncovered_create():
    findings = _findings(
        SharedMemoryChecker(),
        """
        from multiprocessing.shared_memory import SharedMemory

        def f(n):
            shm = SharedMemory(create=True, size=n)
            return shm.name
        """,
    )
    assert len(findings) == 1
    assert findings[0].check == "GF-SHM"


def test_sharedmem_accepts_try_finally_cleanup():
    assert not _findings(
        SharedMemoryChecker(),
        """
        from multiprocessing.shared_memory import SharedMemory

        def f(n):
            shm = SharedMemory(create=True, size=n)
            try:
                return bytes(shm.buf)
            finally:
                shm.close()
                shm.unlink()
        """,
    )


def test_sharedmem_ignores_attach():
    assert not _findings(
        SharedMemoryChecker(),
        """
        from multiprocessing.shared_memory import SharedMemory

        def f(name):
            return SharedMemory(name=name)
        """,
    )


# ----------------------------------------------------------------------
# GF-FLT
# ----------------------------------------------------------------------

_REDUCTION_MODULE = """
def neumaier_add(total, comp, value):
    return total, comp

def naive_total(xs):
    total = 0.0
    for x in xs:
        total += x
    return total

def builtin_total(xs):
    return sum(xs)
"""


def test_floatsum_flags_naive_accumulation_near_helpers():
    findings = _findings(FloatAccumulationChecker(), _REDUCTION_MODULE)
    assert len(findings) == 2
    assert all(f.check == "GF-FLT" for f in findings)


def test_floatsum_ignores_modules_without_helpers():
    assert not _findings(
        FloatAccumulationChecker(),
        """
        def naive_total(xs):
            total = 0.0
            for x in xs:
                total += x
            return total
        """,
    )


def test_floatsum_exempts_the_compensated_implementation():
    assert not _findings(
        FloatAccumulationChecker(),
        """
        def neumaier_total(xs):
            total = 0.0
            for x in xs:
                total += x
            return total
        """,
    )


# ----------------------------------------------------------------------
# GF-EXC
# ----------------------------------------------------------------------


def test_exceptions_flags_unjustified_broad_except():
    findings = _findings(
        ExceptionHygieneChecker(),
        """
        def f():
            try:
                g()
            except Exception:
                pass
        """,
    )
    assert len(findings) == 1
    assert findings[0].check == "GF-EXC"


def test_exceptions_flags_bare_tag_without_reason():
    findings = _findings(
        ExceptionHygieneChecker(),
        """
        def f():
            try:
                g()
            except Exception:  # noqa: BLE001
                pass
        """,
    )
    assert len(findings) == 1
    assert "no justification" in findings[0].message


def test_exceptions_accepts_justified_tag_reraise_and_narrow():
    assert not _findings(
        ExceptionHygieneChecker(),
        """
        def f():
            try:
                g()
            except Exception as exc:  # noqa: BLE001 - surfaced via the result future
                record(exc)
            try:
                g()
            except Exception:
                cleanup()
                raise
            try:
                g()
            except ValueError:
                pass
        """,
    )


# ----------------------------------------------------------------------
# GF-COV
# ----------------------------------------------------------------------


def _coverage_findings():
    specs = (
        ColumnSpec(0, "COL_BOTH", "g", ("models",), ("knob_both",)),
        ColumnSpec(1, "COL_KERNEL_ONLY", "g", ("models",), ("knob_kernel",)),
        ColumnSpec(2, "COL_SCALAR_ONLY", "g", ("models",), ("knob_scalar",)),
    )
    modules = [
        _module(
            """
            from repro.engine.vector import params as P

            def build(params):
                return params.col(P.COL_BOTH) + params.col(P.COL_KERNEL_ONLY)
            """,
            relpath="engine/vector/evaluator.py",
        ),
        _module(
            """
            def assess(model):
                return model.knob_both + model.knob_scalar
            """,
            relpath="models/act.py",
        ),
    ]
    checker = CoverageChecker(specs=specs)
    return {f.symbol: f for f in checker.check_project(modules)}


def test_coverage_flags_one_sided_columns():
    by_symbol = _coverage_findings()
    assert "COL_BOTH" not in by_symbol
    assert "no scalar model reads" in by_symbol["COL_KERNEL_ONLY"].message
    assert "kernel path ignores" in by_symbol["COL_SCALAR_ONLY"].message


def test_registry_specs_cover_every_column():
    assert len(COLUMN_SPECS) == P.N_PARAM_COLS
    for spec in COLUMN_SPECS:
        assert COLUMN_NAMES[spec.index] == spec.name
        assert spec.scalar_packages and spec.scalar_attrs


# ----------------------------------------------------------------------
# GF-CKPT
# ----------------------------------------------------------------------


def test_checkpoint_flags_reducer_without_state_contract():
    findings = _findings(
        CheckpointContractChecker(),
        """
        class Sketchy:
            def update(self, result):
                pass

            def merge(self, other):
                pass

            def fresh(self):
                return Sketchy()
        """,
    )
    assert len(findings) == 1
    finding = findings[0]
    assert finding.check == "GF-CKPT"
    assert finding.symbol == "Sketchy"
    assert "from_state" in finding.message and "to_state" in finding.message


def test_checkpoint_reports_only_the_missing_half():
    findings = _findings(
        CheckpointContractChecker(),
        """
        class HalfWay:
            def update(self, result):
                pass

            def merge(self, other):
                pass

            def fresh(self):
                return HalfWay()

            def to_state(self):
                return {}
        """,
    )
    assert len(findings) == 1
    assert "from_state" in findings[0].message
    assert "to_state —" not in findings[0].message


def test_checkpoint_accepts_full_contract_and_non_reducers():
    # The full contract is clean.
    assert not _findings(
        CheckpointContractChecker(),
        """
        class Durable:
            def update(self, result):
                pass

            def merge(self, other):
                pass

            def fresh(self):
                return Durable()

            def to_state(self):
                return {}

            @classmethod
            def from_state(cls, state):
                return cls()
        """,
    )
    # A class missing part of the update/merge/fresh trio is not a
    # streaming reducer and is out of scope.
    assert not _findings(
        CheckpointContractChecker(),
        """
        class Accumulator:
            def update(self, result):
                pass

            def merge(self, other):
                pass
        """,
    )


def test_checkpoint_skips_test_modules():
    assert not _findings(
        CheckpointContractChecker(),
        """
        class FakeReducer:
            def update(self, result):
                pass

            def merge(self, other):
                pass

            def fresh(self):
                return FakeReducer()
        """,
        relpath="tests/test_mod.py",
    )


def test_checkpoint_registry_reducers_all_satisfy_contract():
    # The audit rule and the runtime registry must agree: every reducer
    # the checkpoint layer can be asked to persist implements both
    # halves of the state contract (plus the bundle that wraps them).
    from repro.engine.vector.reducers import REDUCER_REGISTRY, StreamingReduction

    for cls in (*REDUCER_REGISTRY, StreamingReduction):
        assert callable(getattr(cls, "to_state")), cls.__name__
        assert callable(getattr(cls, "from_state")), cls.__name__


# ----------------------------------------------------------------------
# Baseline reconciliation
# ----------------------------------------------------------------------

_VIOLATION = """
import numpy as np

def f():
    return np.random.default_rng()
"""


def test_baseline_suppresses_known_finding():
    modules = [_module(_VIOLATION)]
    raw = lint_modules(modules, checks=[RngDisciplineChecker()])
    assert len(raw.findings) == 1 and not raw.ok
    baseline = Baseline(
        (BaselineEntry(raw.findings[0].fingerprint, "fixture: deliberate"),)
    )
    report = lint_modules(modules, checks=[RngDisciplineChecker()], baseline=baseline)
    assert report.ok
    assert len(report.suppressed) == 1
    assert report.suppressed[0].justification == "fixture: deliberate"
    assert not report.stale


def test_baseline_reports_stale_entries_without_failing():
    baseline = Baseline((BaselineEntry("GF-RNG::gone.py::f::fixed long ago", "x"),))
    report = lint_modules([], checks=[RngDisciplineChecker()], baseline=baseline)
    assert report.ok
    assert report.stale == ("GF-RNG::gone.py::f::fixed long ago",)


def test_baseline_rejects_missing_justification(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"suppressions": [{"fingerprint": "a::b::c::d"}]}))
    with pytest.raises(ParameterError):
        Baseline.load(path)


def test_write_baseline_preserves_justifications(tmp_path):
    modules = [_module(_VIOLATION)]
    raw = lint_modules(modules, checks=[RngDisciplineChecker()])
    path = tmp_path / "baseline.json"
    write_baseline(list(raw.findings), path)
    # Fresh entries carry the TODO placeholder...
    entries = json.loads(path.read_text())["suppressions"]
    assert entries[0]["justification"].startswith("TODO")
    # ...and a hand-edited justification survives a rewrite.
    entries[0]["justification"] = "reviewed: fixture"
    path.write_text(json.dumps({"suppressions": entries}))
    write_baseline(list(raw.findings), path)
    assert Baseline.load(path).entries[0].justification == "reviewed: fixture"


# ----------------------------------------------------------------------
# The shipped tree
# ----------------------------------------------------------------------


def test_shipped_tree_is_lint_clean():
    report = run_lint()
    assert report.ok, report.render()
    assert not report.stale, report.render()
    # Every suppression is deliberate: justified, and still matching.
    assert all(f.justification for f in report.suppressed)


def test_all_checkers_have_distinct_ids():
    checkers = all_checkers()
    ids = [c.id for c in checkers]
    assert len(set(ids)) == len(ids) == 7


# ----------------------------------------------------------------------
# Parity auditor
# ----------------------------------------------------------------------


def test_parity_all_columns_agree():
    report = run_parity(values_per_column=2)
    assert len(report.columns) == P.N_PARAM_COLS
    assert report.ok, report.render()
    for column in report.columns:
        assert column.moved and column.outputs_changed, column.render()
        assert column.kernel_max_rel_err <= KERNEL_RTOL, column.render()
        assert column.fused_max_rel_err <= KERNEL_RTOL, column.render()
        assert column.stream_bitident, column.render()


def test_parity_reports_fused_tier_and_chain_override():
    fused = run_parity(values_per_column=1, columns=[P.OP_CI])
    assert fused.kernel_tier == "fused-numpy"
    chain = run_parity(
        values_per_column=1, columns=[P.OP_CI], kernel_tier="numpy"
    )
    assert chain.kernel_tier == "numpy-chain"
    assert chain.ok, chain.render()


def _skew_operation(monkeypatch, interpreter):
    """Scale the shared operation sub-model by 1.01 when ``interpreter``
    (a class, or a tuple of them) runs it."""
    from repro.engine.vector import model

    real = model.operation_per_chip_year_kg

    def skewed(ops, *args):
        out = real(ops, *args)
        return ops.mul(out, 1.01) if isinstance(ops, interpreter) else out

    monkeypatch.setattr(model, "operation_per_chip_year_kg", skewed)


def test_parity_catches_skewed_fused_kernel(monkeypatch):
    from repro.engine.vector.fused import DeferredOps

    _skew_operation(monkeypatch, DeferredOps)
    report = run_parity(values_per_column=1, columns=[P.OP_CI])
    assert not report.ok
    assert report.columns[0].fused_max_rel_err > KERNEL_RTOL
    # The chain path is untouched — only the fused sweep trips.
    assert report.columns[0].kernel_max_rel_err <= KERNEL_RTOL


def test_parity_catches_skewed_kernel(monkeypatch):
    from repro.engine.vector.kernels import NumpyOps

    _skew_operation(monkeypatch, NumpyOps)
    report = run_parity(values_per_column=1, columns=[P.OP_CI])
    assert not report.ok
    assert report.columns[0].kernel_max_rel_err > KERNEL_RTOL


def test_parity_skewed_shared_model_trips_both_tiers(monkeypatch):
    # One source, two interpreters: a change to a shared sub-model
    # reaches the chain and the fused tier alike.
    from repro.engine.vector.fused import DeferredOps
    from repro.engine.vector.kernels import NumpyOps

    _skew_operation(monkeypatch, (NumpyOps, DeferredOps))
    report = run_parity(values_per_column=1, columns=[P.OP_CI])
    assert not report.ok
    assert report.columns[0].kernel_max_rel_err > KERNEL_RTOL
    assert report.columns[0].fused_max_rel_err > KERNEL_RTOL


def test_parity_inert_probe_is_a_coverage_failure():
    probes = (ColumnProbe(P.OP_CI, (1.0,), lambda c, v: c),)
    report = run_parity(values_per_column=1, probes=probes)
    assert not report.ok
    assert not report.columns[0].moved
    assert not report.columns[0].outputs_changed


def test_parity_captures_probe_exceptions():
    def boom(c, v):
        raise RuntimeError("broken probe")

    probes = (ColumnProbe(P.OP_CI, (1.0,), boom),)
    report = run_parity(values_per_column=1, probes=probes)
    assert not report.ok
    assert "broken probe" in report.columns[0].error


def test_parity_rejects_bad_depth():
    with pytest.raises(ParameterError):
        run_parity(values_per_column=0)


# ----------------------------------------------------------------------
# Monte-Carlo seed discipline (the opt-in satellite)
# ----------------------------------------------------------------------


def test_monte_carlo_rejects_unseeded_without_opt_in(dnn_comparator):
    from repro.analysis.montecarlo import ParameterDistribution, monte_carlo

    dist = ParameterDistribution("x", 1.0, 2.0, lambda c, v: c)
    scn = Scenario(num_apps=2, app_lifetime_years=1.0, volume=1000)
    with pytest.raises(ParameterError, match="allow_unseeded"):
        monte_carlo(dnn_comparator, scn, [dist], n_samples=3, seed=None)
    result = monte_carlo(
        dnn_comparator, scn, [dist], n_samples=3, seed=None, allow_unseeded=True
    )
    assert result.ratios.shape == (3,)
    assert np.all(np.isfinite(result.ratios))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_audit_lint_only_passes_on_shipped_tree(capsys):
    assert main(["audit", "--lint-only"]) == 0
    out = capsys.readouterr().out
    assert "lint:" in out and "audit: OK" in out


def test_cli_audit_parity_only(capsys):
    assert main(["audit", "--parity-only", "--parity-values", "1"]) == 0
    out = capsys.readouterr().out
    assert "parity: 57 columns probed, 0 failed" in out


def test_cli_audit_json_report(tmp_path, capsys):
    out_path = tmp_path / "audit.json"
    assert main(["audit", "--lint-only", "--json", str(out_path)]) == 0
    payload = json.loads(out_path.read_text())
    assert payload["audit_version"] == 1
    assert payload["ok"] is True
    assert payload["lint"]["ok"] is True
    assert payload["parity"] is None
    capsys.readouterr()


def test_cli_audit_fails_on_seeded_violation(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n\n\ndef f():\n    return np.random.default_rng()\n"
    )
    assert main(
        ["audit", "--lint-only", "--root", str(tmp_path), "--checks", "GF-RNG"]
    ) == 1
    assert "GF-RNG" in capsys.readouterr().out


def test_cli_audit_clean_custom_root(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n\n\ndef f(seed):\n    return np.random.default_rng(seed)\n"
    )
    assert main(
        ["audit", "--lint-only", "--root", str(tmp_path), "--checks", "GF-RNG"]
    ) == 0
    capsys.readouterr()


def test_cli_audit_rejects_unknown_checker(tmp_path, capsys):
    assert main(["audit", "--lint-only", "--checks", "GF-NOPE"]) == 2
    assert "unknown checker" in capsys.readouterr().err


def test_cli_audit_update_baseline(tmp_path, capsys):
    (tmp_path / "mod.py").write_text(
        "import numpy as np\n\n\ndef f():\n    return np.random.default_rng()\n"
    )
    baseline_path = tmp_path / "baseline.json"
    assert main(
        [
            "audit", "--lint-only", "--root", str(tmp_path),
            "--checks", "GF-RNG", "--baseline", str(baseline_path),
            "--update-baseline",
        ]
    ) == 0
    entries = json.loads(baseline_path.read_text())["suppressions"]
    assert len(entries) == 1 and entries[0]["fingerprint"].startswith("GF-RNG::")
    capsys.readouterr()
