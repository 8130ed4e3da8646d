"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def test_suite_command(capsys):
    assert main(["suite", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "consph" in out and "ASIC_680k" in out


def test_analyze_named_matrix(capsys):
    assert main(["analyze", "ASIC_680k", "--platform", "knl",
                 "--scale", "0.15"]) == 0
    out = capsys.readouterr().out
    assert "bounds on knl" in out
    assert "classes:" in out
    assert "optimized:" in out


def test_analyze_mtx_file(tmp_path, capsys, banded_csr):
    from repro.matrices import write_matrix_market

    path = tmp_path / "m.mtx"
    write_matrix_market(banded_csr, path)
    assert main(["analyze", str(path), "--platform", "knc"]) == 0
    assert "P_CSR" in capsys.readouterr().out


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    for key in ("fig1", "fig7-knl", "table5", "ablation-imb"):
        assert key in out


def test_experiment_unknown_id(capsys):
    assert main(["experiment", "fig99"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_experiment_table3(capsys):
    assert main(["experiment", "table3"]) == 0
    out = capsys.readouterr().out
    assert "Xeon Phi" in out


def test_parallel_command_reports_supervision(capsys):
    assert main(["parallel", "consph", "--platform", "knl",
                 "--scale", "0.05", "--threads", "1,2",
                 "--schedule", "balanced-nnz", "--repeats", "1",
                 "--deadline-ms", "60000", "--max-retries", "1"]) == 0
    out = capsys.readouterr().out
    assert "imb (cpu)" in out
    # A generous budget on a tiny matrix never demotes, and the report
    # says so explicitly rather than staying silent.
    assert "degradation ladder: no demotions" in out


def test_parallel_command_rejects_bad_threads(capsys):
    assert main(["parallel", "consph", "--threads", "0,2"]) == 2
    assert "bad thread list" in capsys.readouterr().err


#: A one-width, one-repeat ``parallel`` sweep on a small matrix.
_SWEEP = ["parallel", "consph", "--platform", "knl", "--scale", "0.05",
          "--threads", "2", "--repeats", "1"]


@pytest.fixture
def built_stacks(monkeypatch):
    """Every ``(spec, kernel, stack)`` that ``build_executor`` builds,
    recorded while the real one builds it."""
    import repro.engine

    real = repro.engine.build_executor
    built = []

    def record(csr, spec=None, **kwargs):
        stack = real(csr, spec, **kwargs)
        built.append((spec, kwargs.get("kernel"), stack))
        return stack

    monkeypatch.setattr(repro.engine, "build_executor", record)
    return built


def test_parallel_spec_supervision_tokens_reach_the_stack(built_stacks):
    assert main(_SWEEP + [
        "--schedule", "balanced-nnz", "--engine-spec",
        "retries=1,backoff-ms=50,no-serial-fallback,deadline-ms=60000",
    ]) == 0
    ((spec, _, stack),) = built_stacks
    from repro.engine import SupervisionSpec

    assert spec.supervision == SupervisionSpec(
        deadline_seconds=60.0, max_retries=1, backoff_seconds=0.05,
        serial_fallback=False,
    )
    assert (stack.deadline_seconds, stack.max_retries,
            stack.backoff_seconds, stack.serial_fallback) == (
        60.0, 1, 0.05, False)


def test_parallel_spec_guard_is_applied_by_build_executor(built_stacks,
                                                          capsys):
    from repro.engine import GuardedKernel

    assert main(_SWEEP + ["--schedule", "balanced-nnz",
                          "--engine-spec", "guard"]) == 0
    ((spec, kernel, stack),) = built_stacks
    assert spec.guard
    assert not isinstance(kernel, GuardedKernel)
    assert isinstance(stack.inner, GuardedKernel)


#: Spec tokens the sweep refuses, and what its message says to use.
_REFUSED = {
    "threads=4": "--threads",
    "schedule=dynamic": "--schedule",
    "workspace=shared": "repro-spmv run --engine-spec",
    "trace": "repro-spmv run --engine-spec",
}


@pytest.mark.parametrize("token", sorted(_REFUSED))
def test_parallel_rejects_spec_tokens_the_sweep_sets(token, capsys):
    assert main(_SWEEP + ["--engine-spec", f"guard,{token}"]) == 2
    err = capsys.readouterr().err
    assert repr(token) in err and _REFUSED[token] in err


def test_parallel_spec_chunk_rows_passes_through(built_stacks, capsys):
    assert main(_SWEEP + ["--schedule", "dynamic",
                          "--engine-spec", "chunk-rows=7"]) == 0
    ((spec, _, stack),) = built_stacks
    assert spec.parallel.chunk_rows == 7
    assert stack.chunk_rows == 7


def test_parallel_spec_chunk_rows_needs_a_chunked_schedule(capsys):
    assert main(_SWEEP + ["--engine-spec", "chunk-rows=7"]) == 2
    assert "--schedule" in capsys.readouterr().err


def test_parallel_explicit_flags_override_spec_supervision(built_stacks,
                                                           capsys):
    # The explicit values equal the defaults, which must still win.
    assert main(_SWEEP + [
        "--schedule", "balanced-nnz", "--engine-spec",
        "retries=0,deadline-ms=5", "--max-retries", "2",
        "--deadline-ms", "60000",
    ]) == 0
    ((spec, _, stack),) = built_stacks
    assert spec.supervision.max_retries == 2
    assert spec.supervision.deadline_seconds == 60.0
    assert (stack.max_retries, stack.deadline_seconds) == (2, 60.0)


def test_run_guarded_supervised_stack(capsys):
    # The exit status is the run's bit-identity check against serial CSR.
    assert main(["run", "smallfem", "--engine-spec",
                 "guard,threads=2,supervise", "--repeats", "1"]) == 0
    assert "guard -> kernel[" in capsys.readouterr().out


def test_analyze_reports_cache_hit(capsys):
    assert main(["analyze", "consph", "--platform", "knl",
                 "--scale", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "repeat build: cache_hit=True, overhead 0.00 ms" in out


def test_plan_explain_charges_sum_to_plan_overhead(capsys):
    assert main(["plan", "consph", "--platform", "knl",
                 "--scale", "0.05", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "cache_hit=False" in out
    # one row per planning stage in pipeline order
    for stage in ("cache", "analyze", "classify", "select", "transform"):
        assert f"\n{stage}" in out or out.startswith(stage)
    import re

    m = re.search(
        r"stage charges sum to ([0-9.]+) ms; "
        r"plan total overhead is ([0-9.]+) ms",
        out,
    )
    assert m, out
    assert m.group(1) == m.group(2)


def test_plan_cache_roundtrip_across_invocations(tmp_path, capsys):
    cache = tmp_path / "plans.json"
    assert main(["plan", "consph", "--platform", "knl", "--scale",
                 "0.05", "--save-cache", str(cache)]) == 0
    first = capsys.readouterr().out
    assert "cache_hit=False" in first
    assert cache.exists()

    assert main(["plan", "consph", "--platform", "knl", "--scale",
                 "0.05", "--cache", str(cache), "--explain"]) == 0
    second = capsys.readouterr().out
    assert "loaded plan cache" in second
    assert "cache_hit=True" in second


def test_trace_emits_schema_versioned_spans(capsys):
    assert main(["trace", "consph", "--platform", "knl",
                 "--scale", "0.05"]) == 0
    import json

    from repro.pipeline import TRACE_SCHEMA_VERSION

    payload = json.loads(capsys.readouterr().out)
    assert payload["schema_version"] == TRACE_SCHEMA_VERSION
    names = [s["name"] for s in payload["spans"]]
    for stage in ("analyze", "classify", "select", "transform",
                  "execute"):
        assert stage in names
    execute = payload["spans"][names.index("execute")]
    assert execute["attributes"]["gflops"] > 0


def test_trace_execute_span_is_the_operator_simulation(capsys):
    """The ``execute`` span carries the planned operator's simulated
    run: the same ``summary()`` as ``optimize(csr).simulate()``."""
    import json

    from repro import AdaptiveSpMV, named_matrix
    from repro.machine import KNL

    assert main(["trace", "consph", "--platform", "knl",
                 "--scale", "0.05"]) == 0
    spans = json.loads(capsys.readouterr().out)["spans"]
    (execute,) = [s for s in spans if s["name"] == "execute"]
    op = AdaptiveSpMV(KNL).optimize(named_matrix("consph", scale=0.05))
    expected = op.simulate()
    attrs = execute["attributes"]
    assert {k: attrs[k] for k in expected.summary()} == expected.summary()
    assert attrs["cost_model"] == "analytic"
    assert attrs["predicted_gflops"] == float(expected.gflops)


def test_trace_writes_file(tmp_path, capsys):
    out_path = tmp_path / "trace.json"
    assert main(["trace", "consph", "--platform", "knl",
                 "--scale", "0.05", "--output", str(out_path)]) == 0
    assert "wrote" in capsys.readouterr().out
    import json

    payload = json.loads(out_path.read_text())
    assert payload["spans"]


def test_validate_accepts_good_file(tmp_path, capsys, banded_csr):
    from repro.matrices import write_matrix_market

    path = tmp_path / "good.mtx"
    write_matrix_market(banded_csr, path)
    assert main(["validate", str(path)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and f"nnz={banded_csr.nnz}" in out


def test_validate_rejects_nan_values(tmp_path, capsys, banded_csr):
    from repro.guard import inject_value_fault
    from repro.matrices import write_matrix_market

    path = tmp_path / "nan.mtx"
    write_matrix_market(inject_value_fault(banded_csr, "nan"), path)
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "INVALID" in err and "non-finite-values" in err
    # structure-only validation lets the same file through
    assert main(["validate", str(path), "--no-values"]) == 0


def test_validate_rejects_corrupt_stream(tmp_path, capsys, banded_csr):
    import io

    from repro.guard import corrupt_matrix_market
    from repro.matrices import write_matrix_market

    buf = io.StringIO()
    write_matrix_market(banded_csr, buf)
    path = tmp_path / "corrupt.mtx"
    path.write_text(
        corrupt_matrix_market(buf.getvalue(), "malformed-entry")
    )
    assert main(["validate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "INVALID" in err and "line " in err


def test_validate_missing_file(capsys):
    assert main(["validate", "/no/such/file.mtx"]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_parser_rejects_bad_platform():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["analyze", "x", "--platform", "epyc"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_train_command_saves_classifier(tmp_path, capsys):
    out = tmp_path / "clf.json"
    assert main(["train", str(out), "--platform", "knl",
                 "--count", "8", "--seed", "9"]) == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "saved to" in text

    from repro.core import FeatureGuidedClassifier

    clf = FeatureGuidedClassifier.load(out)
    assert clf.machine.codename == "knl"


def test_export_suite_roundtrips(tmp_path, capsys):
    assert main(["export-suite", str(tmp_path), "--scale", "0.05"]) == 0
    files = sorted(tmp_path.glob("*.mtx"))
    assert len(files) >= 18

    from repro.matrices import named_matrix, read_matrix_market

    back = read_matrix_market(tmp_path / "consph.mtx")
    ref = named_matrix("consph", scale=0.05)
    assert back.shape == ref.shape and back.nnz == ref.nnz
